"""Invariance across the commands: what is reported may not depend on how a family is written.

The paper's results are stated over the convex hull of the family, so
adding a member that is a convex mixture of the others changes no worst
case: each sequence's success is affine in each slot's channel, and a
symmetrizing witness can move the new member's mass onto the members it
mixes. Greedy search scores a subset of the sequences that exhaustive
scoring does, so it never reports a smaller worst average success.

Names are not physics either: reordering the members or relabelling the
messages (encoder states and decoder elements together) moves no worst
case. Nor does a change of basis on each side of every channel use: with
each Kraus operator K replaced by V K U†, the codewords by U^{⊗l} ρ U^{†⊗l}
and the decoder elements by V^{⊗l} D V^{†⊗l}, every trace
tr(D N_seq(ρ)) is unchanged.

The same holds for the random capacity of a cq family: an added branch
that mixes the others, or V W V† in place of every output W, leaves the
max-min Holevo value where it was, so the certified intervals of the two
families must overlap.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from avqclab import (
    AvCqc,
    Avqc,
    CqChannel,
    DensityMatrix,
    DeterministicCode,
    Povm,
    QuantumChannel,
    RandomCode,
    check_symmetrizable,
    constant_channel,
    cq_random_capacity,
    evaluate_code,
    hermitian_probe_frame,
)

from helpers import mixture, random_channel, random_density, random_povm, rng_for

FAMILIES = dict(
    seed=st.integers(0, 2**32 - 1),
    members=st.integers(2, 3),
    constant=st.booleans(),
    l=st.sampled_from([2, 3]),
    messages=st.integers(2, 4),
    supports=st.integers(1, 2),
)


def family_and_code(seed, members, constant, l, messages, supports):
    """A random qubit family, the same family with a mixture member appended, and a code.

    With ``constant`` the last member is a constant channel, so the family
    is symmetrizable at l=1 and the verdict has something to keep.
    """
    rng = rng_for(seed)
    channels = [random_channel(rng, 2) for _ in range(members)]
    if constant:
        channels[-1] = constant_channel(random_density(rng, 2))
    weights = rng.dirichlet(np.ones(members))
    # the Kraus stack sqrt(w_s) K of all members is the channel sum_s w_s N_s
    mixed = QuantumChannel(
        tuple(np.sqrt(w) * op for w, ch in zip(weights, channels) for op in ch.kraus)
    )
    labels = tuple(f"s{i}" for i in range(members + 1))
    family = Avqc(labels[:-1], dict(zip(labels, channels)))
    extended = Avqc(labels, dict(zip(labels, channels + [mixed])))
    dim = 2**l
    support = tuple(
        DeterministicCode(
            l,
            tuple(random_density(rng, dim) for _ in range(messages)),
            random_povm(rng, dim, messages),
        )
        for _ in range(supports)
    )
    return family, extended, RandomCode(support, rng.dirichlet(np.ones(supports)))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(**FAMILIES)
def test_a_mixture_member_changes_no_exhaustive_worst_case(**draw):
    family, extended, code = family_and_code(**draw)
    before = evaluate_code(family, code, mode="exhaustive")
    after = evaluate_code(extended, code, mode="exhaustive")
    assert abs(after.avg_success_worst - before.avg_success_worst) <= 1e-12
    assert abs(after.max_error_worst - before.max_error_worst) <= 1e-12


@settings(max_examples=15, deadline=None, derandomize=True)
@given(**FAMILIES)
def test_a_mixture_member_changes_no_symmetrizability_verdict(**draw):
    family, extended, _ = family_and_code(**draw)
    frame = hermitian_probe_frame(2)
    before = check_symmetrizable(family, 1, frame)
    assert before.feasible == check_symmetrizable(extended, 1, frame).feasible
    if draw["constant"]:
        assert before.feasible


@settings(max_examples=15, deadline=None, derandomize=True)
@given(**FAMILIES)
def test_greedy_never_reports_below_exhaustive(**draw):
    # beyond the tie allowance of codes._first_worst, 4 * d_out * eps
    allowance = 4 * 2 ** draw["l"] * np.finfo(float).eps
    family, extended, code = family_and_code(**draw)
    for avqc in (family, extended):
        exact = evaluate_code(avqc, code, mode="exhaustive").avg_success_worst
        assert evaluate_code(avqc, code, mode="greedy").avg_success_worst >= exact - allowance


def assert_same_worst_case(avqc, code, other_avqc, other_code):
    before = evaluate_code(avqc, code, mode="exhaustive")
    after = evaluate_code(other_avqc, other_code, mode="exhaustive")
    assert abs(after.avg_success_worst - before.avg_success_worst) <= 1e-12
    assert abs(after.max_error_worst - before.max_error_worst) <= 1e-12
    return after


def each_support(code, change):
    """``code`` with ``change(encoder, elements) -> (encoder, elements)`` applied to each support code."""
    support = []
    for det in code.support:
        encoder, elements = change(det.encoder, det.decoder.elements)
        support.append(DeterministicCode(det.l, tuple(encoder), Povm(tuple(elements))))
    return RandomCode(tuple(support), code.weights)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data(), **FAMILIES)
def test_reordered_members_change_no_worst_case(data, **draw):
    family, _, code = family_and_code(**draw)
    order = data.draw(st.permutations(family.states))
    reordered = Avqc(tuple(order), family.channels)
    exact = assert_same_worst_case(family, code, reordered, code).avg_success_worst
    allowance = 4 * 2 ** draw["l"] * np.finfo(float).eps
    assert evaluate_code(reordered, code, mode="greedy").avg_success_worst >= exact - allowance


@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data(), **FAMILIES)
def test_permuted_messages_change_no_worst_case(data, **draw):
    family, _, code = family_and_code(**draw)
    tau = data.draw(st.permutations(range(draw["messages"])))
    permuted = each_support(
        code, lambda enc, els: ([enc[t] for t in tau], [els[t] for t in tau])
    )
    assert_same_worst_case(family, code, family, permuted)


def random_unitary(rng, dim: int) -> np.ndarray:
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(gauss)[0]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(**FAMILIES)
def test_local_unitaries_change_no_exhaustive_worst_case(**draw):
    family, _, code = family_and_code(**draw)
    rng = rng_for(draw["seed"] + 1)
    u, v = random_unitary(rng, 2), random_unitary(rng, 2)
    u_block, v_block = (functools.reduce(np.kron, [w] * draw["l"]) for w in (u, v))
    rotated = Avqc(
        family.states,
        {
            s: QuantumChannel(tuple(v @ op @ u.conj().T for op in family.channels[s].kraus))
            for s in family.states
        },
    )
    rotated_code = each_support(
        code,
        lambda enc, els: (
            [DensityMatrix(u_block @ rho.matrix @ u_block.conj().T) for rho in enc],
            [v_block @ op @ v_block.conj().T for op in els],
        ),
    )
    assert_same_worst_case(family, code, rotated, rotated_code)


CQ_FAMILIES = dict(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 3),
    letters=st.integers(2, 3),
    members=st.integers(2, 3),
)


def cq_family(seed, dim, letters, members):
    rng = rng_for(seed)
    alphabet = tuple(range(letters))
    branches = {
        s: CqChannel(alphabet, {z: random_density(rng, dim) for z in alphabet})
        for s in range(members)
    }
    return rng, AvCqc(tuple(branches), branches)


def assert_intervals_overlap(avcqc, other):
    # both intervals are certified to hold the same max-min value
    first, second = cq_random_capacity(avcqc), cq_random_capacity(other)
    assert max(first.lower_bound, second.lower_bound) <= min(
        first.upper_bound, second.upper_bound
    ) + 1e-12


@settings(max_examples=10, deadline=None, derandomize=True)
@given(**CQ_FAMILIES)
def test_a_mixture_branch_keeps_the_capacity_intervals_overlapping(**draw):
    rng, family = cq_family(**draw)
    mixed = mixture(family, rng.dirichlet(np.ones(len(family.states))))
    extended = AvCqc(family.states + ("mix",), {**family.branches, "mix": mixed})
    assert_intervals_overlap(family, extended)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(**CQ_FAMILIES)
def test_local_unitaries_keep_the_capacity_intervals_overlapping(**draw):
    rng, family = cq_family(**draw)
    v = random_unitary(rng, draw["dim"])
    rotated = {
        s: CqChannel(
            family.alphabet,
            {
                z: DensityMatrix(v @ rho.matrix @ v.conj().T)
                for z, rho in family.branches[s].outputs.items()
            },
        )
        for s in family.states
    }
    assert_intervals_overlap(family, AvCqc(family.states, rotated))
