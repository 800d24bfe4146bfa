"""Exhaustive and greedy scoring against the slot-by-slot oracle."""

import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avqclab.codes as codes
import avqclab.quantum as quantum
from avqclab import (
    Avqc,
    BipartiteSource,
    CorrelatedCode,
    CorrelatedEntanglementCode,
    DensityMatrix,
    DeterministicCode,
    Povm,
    PureState,
    QuantumChannel,
    RandomCode,
    bit_flip_channel,
    compose_two_phase,
    constant_channel,
    dumps_document,
    evaluate_code,
    evaluate_entanglement_code,
    from_document,
    identity_channel,
    loads_document,
    phase_flip_channel,
    projective_decoder,
    to_document,
)
from avqclab.util import content_key

from helpers import (
    entanglement_fidelity_oracle,
    greedy_oracle,
    per_message_success,
    random_channel,
    random_density,
    random_povm,
    random_prob_vector,
    rng_for,
)


def random_det(rng, l, dim_in, dim_out, messages):
    words = tuple(random_density(rng, dim_in**l) for _ in range(messages))
    return DeterministicCode(l, words, random_povm(rng, dim_out**l, messages))


def copied(obj):
    """An equal object that shares no array with ``obj``."""
    if isinstance(obj, Povm):
        return Povm(tuple(np.array(op) for op in obj.elements))
    if isinstance(obj, QuantumChannel):
        return QuantumChannel(tuple(np.array(op) for op in obj.kraus))
    return tuple(DensityMatrix(np.array(rho.matrix)) for rho in obj)


def random_correlated(rng, l, dim_out, messages):
    """Two distinct encoders and decoders spread over the observations as copies."""
    r = max(1, (l + 1) // 2)
    n = l // r
    joint = random_prob_vector(rng, 4).reshape(2, 2)
    if rng.random() < 0.5:
        joint[0, 1] = 0.0
        joint /= joint.sum()
    source = BipartiteSource((0, 1), (0, 1), joint)
    pool = [random_det(rng, l, 2, dim_out, messages) for _ in range(2)]
    encoders = {x: copied(pool[x[0]].encoder) for x in itertools.product((0, 1), repeat=n)}
    decoders = {y: copied(pool[y[-1]].decoder) for y in itertools.product((0, 1), repeat=n)}
    return CorrelatedCode(l, r, source, encoders, decoders)


def build(seed, kind, l, n_states, dim_out, messages):
    rng = rng_for(seed)
    labels = tuple(f"s{i}" for i in range(n_states))
    avqc = Avqc(labels, {s: random_channel(rng, 2, dim_out=dim_out) for s in labels})
    if kind == "deterministic":
        code = random_det(rng, l, 2, dim_out, messages)
    elif kind == "random":
        support = tuple(random_det(rng, l, 2, dim_out, messages) for _ in range(3))
        code = RandomCode(support, random_prob_vector(rng, 3))
    else:
        code = random_correlated(rng, l, dim_out, messages)
    return avqc, code


def oracle_table(avqc, code, l):
    seqs = list(itertools.product(avqc.states, repeat=l))
    return seqs, np.array([per_message_success(avqc, code, seq) for seq in seqs])


def assert_report_matches(report, seqs, table):
    avgs = table.mean(axis=1)
    assert report.avg_success_worst == pytest.approx(avgs.min(), abs=1e-12)
    assert report.max_error_worst == pytest.approx(1.0 - table.min(), abs=1e-12)
    first = seqs.index(report.worst_state_seq)
    assert avgs[first] <= avgs.min() + 1e-12
    assert np.all(avgs[:first] >= avgs[first] - 1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["deterministic", "random", "correlated"]),
    l=st.integers(1, 4),
    n_states=st.integers(1, 3),
    dim_out=st.sampled_from([2, 3]),
    messages=st.integers(1, 3),
)
def test_split_scoring_matches_slot_by_slot_oracle(
    seed, kind, l, n_states, dim_out, messages
):
    avqc, code = build(seed, kind, l, n_states, dim_out, messages)
    seqs, expect = oracle_table(avqc, code, l)
    table = codes._exhaustive_table(avqc, l, codes._scoring_terms(code))
    assert table.shape == expect.shape
    assert np.max(np.abs(table - expect)) <= 1e-12
    for seq, row in codes._greedy_search(avqc, l, code).items():
        assert np.max(np.abs(row - expect[seqs.index(seq)])) <= 1e-12
    assert_report_matches(evaluate_code(avqc, code, mode="exhaustive"), seqs, expect)


KINDS = ("deterministic", "random", "correlated")


def scored(avqc, code, l, method):
    """Per-message success by sequence, as exhaustive or greedy scoring lists it."""
    if method == "greedy":
        return codes._greedy_search(avqc, l, code)
    seqs = itertools.product(avqc.states, repeat=l)
    return dict(zip(seqs, codes._exhaustive_table(avqc, l, codes._scoring_terms(code))))


@pytest.mark.parametrize(
    "kind, method",
    [(kind, "exhaustive") for kind in KINDS] + [(kind, "greedy") for kind in KINDS],
    ids=[*KINDS, *(f"greedy-{kind}" for kind in KINDS)],
)
def test_chunked_walk_matches_one_batch(kind, method, monkeypatch):
    avqc, code = build(5, kind, 4, 3, 3, 2)
    chunks = []  # images per chunk of each whole walk

    class Recorded(quantum._ImageTree):
        def walk(self, spare, nodes=None, start=0, depth=0):
            for first, images in super().walk(spare, nodes, start, depth):
                if depth == 0:
                    chunks.append(len(images))
                yield first, images

    monkeypatch.setattr(codes, "_ImageTree", Recorded)
    whole = scored(avqc, code, 4, method)
    report = evaluate_code(avqc, code, mode=method)
    assert max(chunks) > 1
    # room for a single 36-dim image: every subtree is walked node by node,
    # one image per chunk; the suffix trees hold 81-dim elements and do not
    # fit in half of it, so both searches recompute the suffix images for
    # each prefix chunk
    monkeypatch.setattr(codes, "_STACK_BYTES", 16 * 36 * 36)
    chunks.clear()
    chunked = scored(avqc, code, 4, method)
    assert set(chunks) == {1}
    assert list(chunked) == list(whole)
    for seq, row in chunked.items():
        assert np.max(np.abs(row - whole[seq])) <= 1e-12
        assert np.max(np.abs(row - per_message_success(avqc, code, seq))) <= 1e-12
    again = evaluate_code(avqc, code, mode=method)
    assert again.worst_state_seq == report.worst_state_seq
    assert again.avg_success_worst == pytest.approx(report.avg_success_worst, abs=1e-12)
    assert again.max_error_worst == pytest.approx(report.max_error_worst, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(KINDS),
    l=st.integers(1, 5),
    n_states=st.integers(1, 4),
    dim_out=st.sampled_from([2, 3]),
    messages=st.integers(2, 3),
)
def test_greedy_search_follows_the_sequential_oracle(
    seed, kind, l, n_states, dim_out, messages
):
    # with one message every sequence scores 1, and the search would move on
    # rounding noise, which two summation orders need not share
    avqc, code = build(seed, kind, l, n_states, dim_out, messages)
    expect = greedy_oracle(avqc, code, l)
    got = codes._greedy_search(avqc, l, code)
    assert list(got) == list(expect)
    for seq, row in expect.items():
        assert np.max(np.abs(got[seq] - row)) <= 1e-12
    avgs = [float(row.mean()) for row in expect.values()]
    first_worst = list(expect)[codes._first_worst(avgs, dim_out**l)]
    assert evaluate_code(avqc, code, mode="greedy").worst_state_seq == first_worst


def greedy_wall(l):
    """{identity, bit flip 0.25, phase flip 0.3} and 4 orthonormal pure codewords on l qubits.

    The codewords are the Q factor of a complex Gaussian 2^l × 4 matrix from
    ``default_rng(0)``, decoded by ``projective_decoder``.
    """
    labels = ("s0", "s1", "s2")
    channels = (identity_channel(2), bit_flip_channel(0.25), phase_flip_channel(0.3))
    rng = np.random.default_rng(0)
    gauss = rng.normal(size=(2**l, 4)) + 1j * rng.normal(size=(2**l, 4))
    words = [PureState(col) for col in np.linalg.qr(gauss)[0].T]
    code = DeterministicCode(l, tuple(w.to_density() for w in words), projective_decoder(words))
    return Avqc(labels, dict(zip(labels, channels))), code


def test_greedy_images_each_neighbourhood_through_the_split(monkeypatch):
    # the candidates close the prefix and the suffix is one word, so slots
    # after the searched one are imaged once per message, not once per
    # candidate: imaging every candidate through all l slots takes 668
    kernel = quantum.apply_channel_to_slot_batch
    matrices = []

    def counted(ch, mats, *args, **kwargs):
        matrices.append(len(mats))
        return kernel(ch, mats, *args, **kwargs)

    monkeypatch.setattr(quantum, "apply_channel_to_slot_batch", counted)
    avqc, code = greedy_wall(6)
    greedy = evaluate_code(avqc, code, mode="greedy")
    assert sum(matrices) <= 492
    matrices.clear()
    exact = evaluate_code(avqc, code, mode="exhaustive")
    assert sum(matrices) == 312
    assert greedy.worst_state_seq == exact.worst_state_seq
    assert abs(greedy.avg_success_worst - exact.avg_success_worst) <= 1e-12


@pytest.mark.parametrize("stack_bytes", [None, 16 * 36 * 36])
def test_scoring_leaves_no_image_tree_to_the_cyclic_collector(stack_bytes, monkeypatch):
    # with DEBUG_SAVEALL every object the collector frees is kept in
    # gc.garbage, so a tree held by a reference cycle shows up there; the
    # small stack walks every subtree node by node
    avqc, code = build(5, "deterministic", 4, 3, 3, 2)
    if stack_bytes is not None:
        monkeypatch.setattr(codes, "_STACK_BYTES", stack_bytes)
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        evaluate_code(avqc, code, mode="exhaustive")
        evaluate_code(avqc, code, mode="greedy")
        gc.collect()
        trees = [obj for obj in gc.garbage if isinstance(obj, quantum._ImageTree)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert trees == []


def test_identical_members_report_the_first_worst_sequence():
    rng = rng_for(11)
    channel = random_channel(rng, 2)
    twin = QuantumChannel(tuple(np.array(op) for op in channel.kraus))
    code = random_det(rng, 3, 2, 2, 2)
    report = evaluate_code(Avqc(("a", "b"), {"a": channel, "b": twin}), code)
    assert report.worst_state_seq == ("a", "a", "a")


def test_duplicated_member_never_displaces_an_earlier_tie():
    rng = rng_for(12)
    first, second = random_channel(rng, 2), random_channel(rng, 2)
    twin = QuantumChannel(tuple(np.array(op) for op in first.kraus))
    code = random_det(rng, 3, 2, 2, 2)
    pair = evaluate_code(Avqc(("a", "b"), {"a": first, "b": second}), code)
    triple = evaluate_code(Avqc(("a", "b", "c"), {"a": first, "b": second, "c": twin}), code)
    assert "c" not in triple.worst_state_seq
    assert triple.worst_state_seq == pair.worst_state_seq
    assert triple.avg_success_worst == pytest.approx(pair.avg_success_worst, abs=1e-15)


def constant_pair_problem(rng, l):
    """Two constant members and two messages: every sequence averages 1/2
    exactly, and the computed averages differ only by rounding."""
    avqc = Avqc(("s0", "s1"), {s: constant_channel(random_density(rng, 2)) for s in ("s0", "s1")})
    return avqc, random_det(rng, l, 2, 2, 2)


def test_rounding_never_displaces_the_first_of_exact_ties():
    # under a fixed 1e-15 rule this instance reported (s1, s1, s1, s1) at
    # 0.49999999999999706
    avqc, code = constant_pair_problem(rng_for(28), 4)
    report = evaluate_code(avqc, code)
    assert report.worst_state_seq == ("s0",) * 4
    assert report.avg_success_worst == pytest.approx(0.5, abs=1e-14)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), l=st.integers(1, 5), mode=st.sampled_from(["exhaustive", "greedy"]))
def test_exact_ties_report_the_first_searched_sequence(seed, l, mode):
    avqc, code = constant_pair_problem(rng_for(seed), l)
    report = evaluate_code(avqc, code, mode=mode)
    assert report.worst_state_seq == ("s0",) * l
    assert report.avg_success_worst == pytest.approx(0.5, abs=1e-14)


def test_round_tripped_correlated_code_groups_like_the_original():
    """Equal but distinct encoders and decoders group by content; read back, they are one object."""
    rng = rng_for(13)
    source = BipartiteSource((0, 1), (0, 1), np.array([[0.4, 0.1], [0.1, 0.4]]))
    heads = [random_det(rng, 1, 2, 2, 2) for _ in range(2)]
    cr_code = CorrelatedCode(
        1, 1, source, {(x,): heads[x].encoder for x in (0, 1)},
        {(y,): heads[y].decoder for y in (0, 1)},
    )
    payload = RandomCode(
        tuple(random_det(rng, 2, 2, 2, 2) for _ in range(2)), np.array([0.5, 0.5])
    )
    composed = compose_two_phase(cr_code, payload, 3)
    copies = CorrelatedCode(
        composed.l, composed.r, composed.source,
        {x: copied(enc) for x, enc in composed.encoders.items()},
        {y: copied(dec) for y, dec in composed.decoders.items()},
    )
    assert copies.encoders[(0, 0, 0)] is not copies.encoders[(0, 1, 1)]
    back = from_document(loads_document(dumps_document(to_document(composed))))
    for table in ("encoders", "decoders"):
        by_content: dict = {}
        for obj in getattr(back, table).values():
            by_content.setdefault(content_key(obj), set()).add(id(obj))
        assert len(by_content) == 2
        assert all(len(ids) == 1 for ids in by_content.values())
    assert back.encoders[(0, 0, 0)] is back.encoders[(0, 1, 1)]
    in_memory = codes._CorrelatedEvaluator(composed)
    avqc = Avqc(("u", "v"), {s: random_channel(rng, 2) for s in ("u", "v")})
    for code in (copies, back):
        grouped = codes._CorrelatedEvaluator(code)
        assert len(grouped.pair_weight) == len(in_memory.pair_weight) == 4
        assert grouped.pair_weight == pytest.approx(in_memory.pair_weight)
        assert evaluate_code(avqc, code) == evaluate_code(avqc, composed)
        assert evaluate_code(avqc, code, mode="greedy") == evaluate_code(
            avqc, composed, mode="greedy"
        )


def test_the_evaluator_hashes_each_object_once(monkeypatch):
    rng = rng_for(14)
    source = BipartiteSource((0, 1), (0, 1), np.array([[0.4, 0.1], [0.1, 0.4]]))
    heads = [random_det(rng, 1, 2, 2, 2) for _ in range(2)]
    cr_code = CorrelatedCode(
        1, 1, source, {(x,): heads[x].encoder for x in (0, 1)},
        {(y,): heads[y].decoder for y in (0, 1)},
    )
    payload = RandomCode(
        tuple(random_det(rng, 2, 2, 2, 2) for _ in range(2)), np.array([0.5, 0.5])
    )
    composed = compose_two_phase(cr_code, payload, 3)
    back = from_document(loads_document(dumps_document(to_document(composed))))
    objects = [*back.encoders.values(), *back.decoders.values()]
    assert len(objects) == 16 and len({id(obj) for obj in objects}) == 4
    hashed = []

    def counted(obj):
        hashed.append(id(obj))
        return content_key(obj)

    monkeypatch.setattr(codes, "content_key", counted)
    grouped = codes._CorrelatedEvaluator(back)
    assert sorted(hashed) == sorted({id(obj) for obj in objects})
    assert grouped.pair_weight == codes._CorrelatedEvaluator(composed).pair_weight


def random_entanglement_code(rng, l, dim_in, dim_out, code_dim):
    """Two distinct encoders and decoders spread over the observations as copies.

    The source always has a zero-mass pair, and sometimes two.
    """
    r = l if rng.random() < 0.5 else (l + 1) // 2
    n = l // r
    joint = random_prob_vector(rng, 4).reshape(2, 2)
    joint[0, 1] = 0.0
    if rng.random() < 0.5:
        joint[1, 0] = 0.0
    source = BipartiteSource((0, 1), (0, 1), joint / joint.sum())
    encs = [random_channel(rng, code_dim, dim_out=dim_in**l) for _ in range(2)]
    # a channel onto the code space needs code_dim * kraus_count >= its input dim
    kraus_count = max(2, -(-(dim_out**l) // code_dim))
    decs = [
        random_channel(rng, dim_out**l, kraus_count, dim_out=code_dim) for _ in range(2)
    ]
    encoders = {x: copied(encs[x[0]]) for x in itertools.product((0, 1), repeat=n)}
    decoders = {y: copied(decs[y[-1]]) for y in itertools.product((0, 1), repeat=n)}
    return CorrelatedEntanglementCode(l, r, source, code_dim, encoders, decoders)


def build_entanglement(seed, l, n_states, dim_in, dim_out, code_dim):
    rng = rng_for(seed)
    labels = tuple(f"s{i}" for i in range(n_states))
    avqc = Avqc(labels, {s: random_channel(rng, dim_in, dim_out=dim_out) for s in labels})
    return avqc, random_entanglement_code(rng, l, dim_in, dim_out, code_dim)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    l=st.integers(1, 3),
    n_states=st.integers(1, 3),
    dim_in=st.sampled_from([2, 3]),
    dim_out=st.sampled_from([2, 3]),
    code_dim=st.integers(1, 3),
)
def test_entanglement_scoring_matches_the_kraus_oracle(
    seed, l, n_states, dim_in, dim_out, code_dim
):
    avqc, code = build_entanglement(seed, l, n_states, dim_in, dim_out, code_dim)
    seqs = list(itertools.product(avqc.states, repeat=l))
    expect = np.array([entanglement_fidelity_oracle(avqc, code, seq) for seq in seqs])
    report = evaluate_entanglement_code(avqc, code)
    assert report.worst_fidelity == pytest.approx(expect.min(), abs=1e-12)
    tie = expect.min() + 4.0 * dim_out**l * np.finfo(float).eps
    assert report.worst_state_seq == seqs[int(np.argmax(expect <= tie))]
    assert report.method == "exhaustive"


def test_entanglement_basis_chunks_match_one_batch(monkeypatch):
    avqc, code = build_entanglement(7, 3, 2, 2, 3, 3)
    whole = evaluate_entanglement_code(avqc, code)
    # room for less than one basis element: the basis is scored one element
    # at a time, and the split kernel walks every subtree node by node
    monkeypatch.setattr(codes, "_STACK_BYTES", 16 * 27 * 27)
    chunked = evaluate_entanglement_code(avqc, code)
    assert chunked.worst_state_seq == whole.worst_state_seq
    assert chunked.worst_fidelity == pytest.approx(whole.worst_fidelity, abs=1e-12)


def test_entanglement_ties_report_the_first_sequence():
    # identical channels under two labels: every sequence scores the same
    rng = rng_for(14)
    channel = random_channel(rng, 2)
    avqc = Avqc(("a", "b"), {"a": channel, "b": copied(channel)})
    code = random_entanglement_code(rng, 3, 2, 2, 2)
    report = evaluate_entanglement_code(avqc, code)
    assert report.worst_state_seq == ("a", "a", "a")
    oracle = entanglement_fidelity_oracle(avqc, code, ("a", "a", "a"))
    assert report.worst_fidelity == pytest.approx(oracle, abs=1e-12)
