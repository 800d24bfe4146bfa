"""Block codes for adversarially varying channel families, and the adversary.

A deterministic code fixes per-message input states and a decoding POVM for
a block of l channel uses. A random code is a finitely supported mixture of
deterministic codes (shared randomness between sender and receiver); a
correlated code indexes encoder and decoder by the two halves of an i.i.d.
bipartite source, modelling weaker common randomness. The adversary fixes
one family label per channel use after seeing the code; ``evaluate_code``
searches that choice exhaustively when the sequence space is small and
greedily otherwise. Both searches, ``reduce`` and entanglement scoring score
sequences through one meet-in-the-middle table, ``_success_table``, whose
images ``quantum._ImageTree`` forms within ``_STACK_BYTES``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .avqc import Avqc
from .config import ENUM_BUDGET, EXHAUSTIVE_BUDGET, TOL_PROB
from .correlation import BipartiteSource, covers_words
from .errors import BudgetExceeded, DimensionMismatch, ValidationError
from .quantum import (
    DensityMatrix,
    Povm,
    PureState,
    QuantumChannel,
    _hermitian_basis,
    _ImageTree,
    check_psd,
    hermitize,
)
from .util import check_distributions, check_int, check_words, content_key, power_exceeds, words

__all__ = [
    "DeterministicCode",
    "RandomCode",
    "CorrelatedCode",
    "CorrelatedEntanglementCode",
    "ErrorReport",
    "FidelityReport",
    "evaluate_code",
    "evaluate_entanglement_code",
    "permutation_symmetrize",
    "random_code_reduction",
    "compose_two_phase",
    "compose_two_phase_entanglement",
    "projective_decoder",
]


@dataclass(frozen=True, eq=False)
class DeterministicCode:
    """Fixed encoder states and decoding POVM for an l-use block."""

    l: int
    encoder: tuple
    decoder: Povm

    def __post_init__(self):
        object.__setattr__(self, "l", check_int(self.l, 1, "DeterministicCode: l"))
        encoder = tuple(self.encoder)
        if not encoder:
            raise ValidationError("DeterministicCode: needs at least one message")
        dims = {rho.dim for rho in encoder}
        if len(dims) != 1:
            raise DimensionMismatch("DeterministicCode: encoder states of mixed dims")
        if self.decoder.outcome_count != len(encoder):
            raise DimensionMismatch(
                f"DeterministicCode: {self.decoder.outcome_count} decoder outcomes "
                f"for {len(encoder)} messages"
            )
        object.__setattr__(self, "encoder", encoder)

    @property
    def message_count(self) -> int:
        return len(self.encoder)

    @property
    def input_dim(self) -> int:
        return self.encoder[0].dim


@dataclass(frozen=True, eq=False)
class RandomCode:
    """A finitely supported mixture of deterministic codes."""

    support: tuple
    weights: np.ndarray

    def __post_init__(self):
        support = tuple(self.support)
        if not support:
            raise ValidationError("RandomCode: empty support")
        w = np.array(self.weights, dtype=float)
        if w.shape != (len(support),):
            raise DimensionMismatch("RandomCode: weight count must match support")
        check_distributions(w, 0.0, "RandomCode: weights")
        keys = {
            (c.l, c.message_count, c.input_dim, c.decoder.dim) for c in support
        }
        if len(keys) != 1:
            raise ValidationError("RandomCode: support codes have mixed shapes")
        w.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", w)

    @property
    def l(self) -> int:
        return self.support[0].l

    @property
    def message_count(self) -> int:
        return self.support[0].message_count


def _set_observation_maps(code, what: str) -> None:
    """Check a correlated code's l, r and observation keys; store them, and copies of its maps."""
    for size in ("l", "r"):
        object.__setattr__(code, size, check_int(getattr(code, size), 1, f"{what}: {size}"))
    n = code.l // code.r
    if n < 1:
        raise ValidationError(f"{what}: block too short for one sample")
    source = code.source
    # covers_words forms |alphabet|^n; a one-letter space has one word at any
    # n, which its keys alone decide, and is bounded where it is listed
    for party, alphabet in (("sender", source.x_alphabet), ("receiver", source.y_alphabet)):
        if len(alphabet) > 1:
            check_words(len(alphabet), n, ENUM_BUDGET, f"{what}: {party} observation space")
    for side, alphabet in (("encoders", source.x_alphabet), ("decoders", source.y_alphabet)):
        mapping = dict(getattr(code, side))
        if not covers_words(mapping, alphabet, n):
            raise ValidationError(f"{what} {side}: keys must be exactly the length-{n} sequences")
        object.__setattr__(code, side, mapping)


@dataclass(frozen=True, eq=False)
class CorrelatedCode:
    """A code whose encoder and decoder read correlated source sequences.

    Over l channel uses the parties observe n = floor(l / r) source samples;
    the sender encodes with the states attached to its observation and the
    receiver measures with the POVM attached to its own.
    """

    l: int
    r: int
    source: BipartiteSource
    encoders: Mapping
    decoders: Mapping

    def __post_init__(self):
        _set_observation_maps(self, "CorrelatedCode")
        counts = {len(enc) for enc in self.encoders.values()}
        counts |= {povm.outcome_count for povm in self.decoders.values()}
        if len(counts) != 1:
            raise ValidationError("CorrelatedCode: message counts disagree")
        in_dims = {rho.dim for enc in self.encoders.values() for rho in enc}
        out_dims = {povm.dim for povm in self.decoders.values()}
        if len(in_dims) != 1 or len(out_dims) != 1:
            raise DimensionMismatch("CorrelatedCode: mixed dimensions")

    @property
    def n(self) -> int:
        return self.l // self.r

    @property
    def message_count(self) -> int:
        return len(next(iter(self.encoders.values())))

    @property
    def input_dim(self) -> int:
        return next(iter(self.encoders.values()))[0].dim


@dataclass(frozen=True, eq=False)
class CorrelatedEntanglementCode:
    """Entanglement-transmission variant: encoder and decoder are channels.

    Encoders map a code space of dimension ``code_dim`` into the l-use input
    space; decoders map the l-use output space back onto the code space.
    """

    l: int
    r: int
    source: BipartiteSource
    code_dim: int
    encoders: Mapping
    decoders: Mapping

    def __post_init__(self):
        _set_observation_maps(self, "CorrelatedEntanglementCode")
        object.__setattr__(
            self, "code_dim", check_int(self.code_dim, 1, "CorrelatedEntanglementCode: code_dim")
        )
        for enc in self.encoders.values():
            if enc.dim_in != self.code_dim:
                raise DimensionMismatch(
                    "CorrelatedEntanglementCode: encoder input must be the code space"
                )
        for dec in self.decoders.values():
            if dec.dim_out != self.code_dim:
                raise DimensionMismatch(
                    "CorrelatedEntanglementCode: decoder output must be the code space"
                )

    @property
    def n(self) -> int:
        return self.l // self.r


@dataclass(frozen=True)
class ErrorReport:
    """Adversarial performance of a message code.

    ``worst_state_seq`` is the first searched state sequence, in search
    order, whose average success is within rounding noise (4 * dim_out * eps,
    dim_out the block's output dimension) of the smallest, and
    ``avg_success_worst`` is its average; ``max_error_worst``
    maximizes 1 minus the smallest per-message success over the same set.
    With ``method == "exhaustive"`` both are exact optima, up to that
    rounding; with ``greedy`` they only bound the adversary's best from the
    searched side.
    """

    avg_success_worst: float
    max_error_worst: float
    worst_state_seq: tuple
    method: str


@dataclass(frozen=True)
class FidelityReport:
    """Worst-case source-averaged entanglement fidelity, ties settled as in ``ErrorReport``."""

    worst_fidelity: float
    worst_state_seq: tuple
    method: str


def projective_decoder(codewords: Sequence[PureState]) -> Povm:
    """Projector decoder with the leftover identity mass folded into message 0's element."""
    if not codewords:
        raise ValidationError("projective_decoder: no codewords")
    dim = codewords[0].dim
    elements = [np.outer(s.amplitudes, s.amplitudes.conj()) for s in codewords]
    rest = np.eye(dim, dtype=complex) - sum(elements)
    check_psd(rest, "projective_decoder: the identity minus the codeword projectors")
    elements[0] = hermitize(elements[0] + rest)
    return Povm(tuple(elements))


# Bytes of channel images that scoring may hold at once, on top of the code's
# own matrices.
_STACK_BYTES = 1 << 28


def _success_table(avqc: Avqc, levels, h: int, states, elements) -> np.ndarray:
    """tr(D_i N_w(rho_i)) for every message i and every word w over ``levels``.

    ``levels[k]`` lists the channels slot k may hold (every member, or in
    greedy search one except at the searched slot), ``states[i]`` is the
    input matrix for message i and ``elements[i]`` the Hermitian operator it
    is traced against. The result has shape (W, M), the W words in
    ``itertools.product`` order over the levels.

    Meet in the middle at slot h: each state is pushed forward under every
    word of the first h levels, each element is pulled back under the
    adjoint of every word of the last l - h, and
    tr(D (A⊗B)(rho)) = tr((id⊗B†)(D) (A⊗id)(rho)) makes each message's
    table one GEMM over the flattened images. Both images are Hermitian, so
    the trace is the real part of P @ Q^H, which one real GEMM over their
    interleaved real and imaginary parts gives directly.

    The images held at once stay within ``_STACK_BYTES``. Suffix images are
    kept when they fit in half of it; otherwise they are recomputed for
    each chunk of prefix images, one node per tree level, and the prefix
    chunks get the rest of the room.
    """
    l = len(levels)
    shape = (math.prod(map(len, levels[:h])), math.prod(map(len, levels[h:])), len(states))
    table = np.empty(shape)
    for i, (rho, op) in enumerate(zip(states, elements)):
        prefixes = _ImageTree(
            np.asarray(rho)[None], levels[:h], range(h), [avqc.dim_in] * l, False
        )
        suffixes = _ImageTree(
            np.asarray(op)[None], levels[h:], range(h, l), [avqc.dim_out] * l, True
        )
        if suffixes.cost(1, 0) <= _STACK_BYTES / 2:
            kept = list(suffixes.walk(_STACK_BYTES / 2))
            room = _STACK_BYTES - sum(images.nbytes for _, images in kept)
        else:
            kept = None
            room = _STACK_BYTES - suffixes.path_bytes()
        for p0, pre in prefixes.walk(room):
            pre = pre.reshape(len(pre), -1).view(float)
            for q0, suf in kept if kept is not None else suffixes.walk(0):
                suf = suf.reshape(len(suf), -1).view(float)
                table[p0 : p0 + len(pre), q0 : q0 + len(suf), i] = pre @ suf.T
    return table.reshape(-1, len(states))


def _det_term(code: DeterministicCode) -> tuple:
    """Encoder states and decoder elements of a deterministic code, by message."""
    return [rho.matrix for rho in code.encoder], list(code.decoder.elements)


class _CorrelatedEvaluator:
    """Source mass of each distinct (encoder, decoder) pair of a correlated code.

    Encoders and decoders, of message or entanglement codes, are told apart
    by ``content_key``, so equal objects read back from separate JSON entries
    fall into one pair; an object held by several entries is hashed once.
    ``encs`` and ``decs`` hold those that carry mass, by key, and
    ``pair_weight`` the summed p^n(x, y) of each key pair.
    """

    def __init__(self, code):
        x_seqs = code.source.x_sequences(code.n)
        y_seqs = code.source.y_sequences(code.n)
        table = code.source.joint_power(code.n)
        keys = {}  # id -> content_key; the code keeps every object alive

        def key_of(obj) -> bytes:
            if id(obj) not in keys:
                keys[id(obj)] = content_key(obj)
            return keys[id(obj)]

        dec_keys = [key_of(code.decoders[y]) for y in y_seqs]
        encs, decs, weight = {}, {}, {}
        for xi, x in enumerate(x_seqs):
            enc = code.encoders[x]
            enc_key = key_of(enc)
            for yi, y in enumerate(y_seqs):
                mass = table[xi, yi]
                if mass == 0.0:
                    continue
                encs.setdefault(enc_key, enc)
                decs.setdefault(dec_keys[yi], code.decoders[y])
                key = (enc_key, dec_keys[yi])
                weight[key] = weight.get(key, 0.0) + float(mass)
        self.encs, self.decs, self.pair_weight = encs, decs, weight

    def terms(self, states, elements) -> list:
        """``(states(enc), mixed elements(dec))`` terms whose traces sum to the score.

        Traces are linear in the decoder, so each distinct encoder is scored
        once, against the source-weighted sum of the decoders it meets.
        """
        ops_of = {key: elements(dec) for key, dec in self.decs.items()}
        mixed: dict = {}
        for (enc_key, dec_key), weight in self.pair_weight.items():
            part = [weight * op for op in ops_of[dec_key]]
            if enc_key in mixed:
                part = [a + b for a, b in zip(mixed[enc_key], part)]
            mixed[enc_key] = part
        return [(states(self.encs[key]), ops) for key, ops in mixed.items()]


def _scoring_terms(code) -> list:
    """``(weight, states, elements)`` terms; their weighted traces sum to the success."""
    if isinstance(code, DeterministicCode):
        return [(1.0, *_det_term(code))]
    if isinstance(code, RandomCode):
        return [
            (float(w), *_det_term(det))
            for w, det in zip(code.weights, code.support)
            if w != 0.0
        ]
    if isinstance(code, CorrelatedCode):
        terms = _CorrelatedEvaluator(code).terms(
            lambda enc: [rho.matrix for rho in enc], lambda dec: dec.elements
        )
        return [(1.0, *term) for term in terms]
    raise ValidationError(f"evaluate_code: unsupported code type {type(code).__name__}")


def _terms_table(avqc: Avqc, terms, levels, h: int) -> np.ndarray:
    """Per-message success at every word over ``levels``: the terms' weighted tables."""
    table = 0.0
    for weight, states, elements in terms:
        table = table + weight * _success_table(avqc, levels, h, states, elements)
    return table


def _exhaustive_table(avqc: Avqc, l: int, terms) -> np.ndarray:
    """Per-message success at every sequence, shape (|S|^l, M), product order, split at l // 2."""
    levels = [[avqc.channels[s] for s in avqc.states]] * l
    return _terms_table(avqc, terms, levels, l // 2)


def _check_code_dims(avqc: Avqc, l: int, input_dim: int, output_dim: int) -> None:
    if power_exceeds(avqc.dim_in, l, input_dim) or input_dim != avqc.dim_in**l:
        raise DimensionMismatch(
            f"code input dim {input_dim} does not match {avqc.dim_in}^{l}"
        )
    if power_exceeds(avqc.dim_out, l, output_dim) or output_dim != avqc.dim_out**l:
        raise DimensionMismatch(
            f"code output dim {output_dim} does not match {avqc.dim_out}^{l}"
        )


def _code_shape(code) -> tuple[int, int, int]:
    if isinstance(code, DeterministicCode):
        return code.l, code.input_dim, code.decoder.dim
    if isinstance(code, RandomCode):
        first = code.support[0]
        return first.l, first.input_dim, first.decoder.dim
    if isinstance(code, CorrelatedCode):
        return code.l, code.input_dim, next(iter(code.decoders.values())).dim
    raise ValidationError(f"unsupported code type {type(code).__name__}")


def _greedy_search(avqc: Avqc, l: int, code) -> dict:
    """Per-message success of each sequence the greedy search scores, in that order.

    Coordinate descent on the average success from each constant sequence:
    each position in turn tries every other state, moving on any improvement
    by more than 1e-15, until a sweep moves nowhere. The candidates at a
    position do not depend on the move taken there, so the unscored ones are
    scored as one ``_terms_table``: each slot holds the sequence's channel,
    the position holds the candidates', and the split falls right after the
    position (before it at the last slot). The candidates then close the
    prefix, and the suffix is one word: one pulled-back image per message.
    """
    terms = _scoring_terms(code)
    scores, means = {}, {}

    def score(seq, pos, letters):
        letters = [s for s in letters if seq[:pos] + (s,) + seq[pos + 1 :] not in scores]
        if not letters:
            return
        levels = [[avqc.channels[s]] for s in seq]
        levels[pos] = [avqc.channels[s] for s in letters]
        for s, vec in zip(letters, _terms_table(avqc, terms, levels, min(pos + 1, l - 1))):
            cand = seq[:pos] + (s,) + seq[pos + 1 :]
            scores[cand], means[cand] = vec, float(vec.mean())

    for first in avqc.states:
        seq = (first,) * l
        score(seq, 0, [first])
        current = means[seq]
        improved = True
        while improved:
            improved = False
            for pos in range(l):
                score(seq, pos, avqc.states)
                for s in avqc.states:
                    cand = seq[:pos] + (s,) + seq[pos + 1 :]
                    if s != seq[pos] and means[cand] < current - 1e-15:
                        seq, current = cand, means[cand]
                        improved = True
    return scores


def _first_worst(scores, d_out: int) -> int:
    """Index of the first score, in search order, within 4 * d_out * eps of the smallest."""
    # a score is an inner product over d_out**2 entries of unit scale, whose
    # rounding noise grows like d_out * eps: exact ties of random
    # constant-channel codes spread up to 13 eps at d_out = 32
    tie = min(scores) + 4.0 * d_out * np.finfo(float).eps
    return next(n for n, score in enumerate(scores) if score <= tie)


def evaluate_code(avqc: Avqc, code, mode: str = "auto") -> ErrorReport:
    """Search the adversary's per-use state choices against a message code.

    With at most ``EXHAUSTIVE_BUDGET`` sequences (or with
    ``mode="exhaustive"``, up to the ``ENUM_BUDGET`` that exhaustive scoring
    lists), every sequence is scored, all at once by ``_success_table``, and
    the optima are exact.
    Otherwise a greedy coordinate descent on the average success
    runs from each constant sequence, and the report bounds the adversary's
    damage from below.
    """
    l, d_in, d_out = _code_shape(code)
    _check_code_dims(avqc, l, d_in, d_out)
    if mode not in ("auto", "exhaustive", "greedy"):
        raise ValidationError(f"evaluate_code: unknown mode {mode!r}")
    if mode == "auto":
        mode = "greedy" if power_exceeds(len(avqc.states), l, EXHAUSTIVE_BUDGET) else "exhaustive"
    if mode == "exhaustive":
        # EXHAUSTIVE_BUDGET picks the mode; it does not cap an exhaustive request
        seqs = words(avqc.states, l, ENUM_BUDGET, "evaluate_code: state sequences")
        scores = zip(seqs, _exhaustive_table(avqc, l, _scoring_terms(code)))
    else:
        # greedy's sequence count is unbounded by design, but each of its
        # sequences is one word of length l
        check_words(1, l, ENUM_BUDGET, "evaluate_code: a greedy state sequence")
        scores = _greedy_search(avqc, l, code).items()

    seqs, avgs = [], []
    worst_maxerr = 0.0
    for seq, vec in scores:
        seqs.append(seq)
        avgs.append(float(vec.mean()))
        worst_maxerr = max(worst_maxerr, 1.0 - float(vec.min()))
    at = _first_worst(avgs, d_out)
    return ErrorReport(avgs[at], worst_maxerr, seqs[at], mode)


def evaluate_entanglement_code(avqc: Avqc, code: CorrelatedEntanglementCode) -> FidelityReport:
    """Worst-case source-averaged entanglement fidelity, exhaustively.

    The score of a sequence N is the source-weighted fidelity of I/d through
    D∘N∘E. With G_1 … G_{d²} an orthonormal Hermitian basis of the code space,
    F_e(I/d, D∘N∘E) = (1/d²) Σ_j tr[D†(G_j) · N(E(G_j))] = (1/d²) Σ_k |tr K_k|²,
    the trace of the composite map with Kraus operators K_k. So
    ``_success_table`` scores it as a code with d² messages, the Hermitian
    states E(G_j) and elements D†(G_j), the basis taken in chunks whose
    images fit in ``_STACK_BYTES``.

    E(G_j) and D†(G_j) are Kraus sums, not ``apply_channel_to_slot_batch``
    calls: a map between the code space and an n-dimensional block has a
    transfer matrix of n²·d² entries but often only a few Kraus operators,
    and through it L=6 ran 1.7 times slower.
    """
    what = "evaluate_entanglement_code: state sequences, capped at EXHAUSTIVE_BUDGET"
    seqs = words(avqc.states, code.l, EXHAUSTIVE_BUDGET, what)
    # the code's own dimensions, so that dim ** l is formed only once it is known to be small
    d_in = next(iter(code.encoders.values())).dim_out
    d_out = next(iter(code.decoders.values())).dim_in
    for enc in code.encoders.values():
        _check_code_dims(avqc, code.l, enc.dim_out, d_out)
    for dec in code.decoders.values():
        _check_code_dims(avqc, code.l, d_in, dec.dim_in)
    evaluator = _CorrelatedEvaluator(code)
    # bytes per basis element: E(G_j), mixed D†(G_j) per encoder plus one such pair
    # of temporaries, and D†(G_j) per decoder
    per_element = 16 * (
        (len(evaluator.encs) + 1) * (d_in**2 + d_out**2) + len(evaluator.decs) * d_out**2
    )
    chunk = max(1, _STACK_BYTES // per_element)
    basis = _hermitian_basis(code.code_dim)
    fidelity = 0.0
    while block := list(itertools.islice(basis, chunk)):
        block = np.stack(block)
        terms = evaluator.terms(
            lambda enc: sum(op @ block @ op.conj().T for op in enc.stacked),
            lambda dec: sum(op.conj().T @ block @ op for op in dec.stacked),
        )
        for states, elements in terms:
            table = _exhaustive_table(avqc, code.l, [(1.0, states, elements)])
            fidelity = fidelity + table.sum(axis=1)
        del terms, states, elements  # this chunk's images, before the next is built
    scores = (fidelity / code.code_dim**2).tolist()
    at = _first_worst(scores, d_out)
    return FidelityReport(scores[at], seqs[at], "exhaustive")


def permutation_symmetrize(
    code,
    mode: str = "exact",
    sample_count: int | None = None,
    seed: int | None = None,
) -> RandomCode:
    """Average a code over relabelings of its message set.

    Each support code is replaced by all (or, in ``sample`` mode, uniformly
    drawn) message permutations: the permuted code encodes message i with
    the original codeword of tau(i) and decodes with the matching element
    order. The result has equal per-message success for every channel, at
    the original average, since averaging over tau uniformizes the index.
    """
    if isinstance(code, DeterministicCode):
        code = RandomCode((code,), np.array([1.0]))
    if not isinstance(code, RandomCode):
        raise ValidationError("permutation_symmetrize: expected a code")
    m = code.message_count

    def permuted(det: DeterministicCode, tau) -> DeterministicCode:
        encoder = tuple(det.encoder[tau[i]] for i in range(m))
        decoder = Povm(tuple(det.decoder.elements[tau[i]] for i in range(m)))
        return DeterministicCode(det.l, encoder, decoder)

    if mode == "exact":
        total = math.factorial(m) * len(code.support)
        if total > EXHAUSTIVE_BUDGET:
            raise BudgetExceeded(
                f"permutation_symmetrize: {total} permuted codes exceed budget "
                f"{EXHAUSTIVE_BUDGET}; use sampling"
            )
        support, weights = [], []
        for w, det in zip(code.weights, code.support):
            for tau in itertools.permutations(range(m)):
                support.append(permuted(det, tau))
                weights.append(w / math.factorial(m))
        return RandomCode(tuple(support), np.array(weights))
    if mode == "sample":
        sample_count = check_int(sample_count, 1, "permutation_symmetrize: sample_count")
        rng = np.random.Generator(np.random.Philox(0 if seed is None else seed))
        support, weights = [], []
        for w, det in zip(code.weights, code.support):
            for _ in range(sample_count):
                tau = tuple(rng.permutation(m))
                support.append(permuted(det, tau))
                weights.append(w / sample_count)
        return RandomCode(tuple(support), np.array(weights))
    raise ValidationError(f"permutation_symmetrize: unknown mode {mode!r}")


def random_code_reduction(
    code: RandomCode,
    avqc: Avqc,
    l: int,
    sample_count: int,
    eps: float,
    seed: int,
) -> tuple[list, bool]:
    """Replace a random code by finitely many sampled deterministic codes.

    Draws ``sample_count`` support codes i.i.d. from the code's weights and
    verifies exhaustively that the sampled uniform mixture keeps every
    per-message success above 1 - eps for every state sequence. Requires
    eps > 2 * eps_l, where eps_l is the input code's worst-case per-message
    error; below that margin the sampled-mixture guarantee has no content.
    """
    l = check_int(l, 1, "random_code_reduction: l")
    if code.l != l:
        raise DimensionMismatch(f"random_code_reduction: code has l={code.l}, not {l}")
    if not 0.0 < eps < 1.0:
        raise ValidationError("random_code_reduction: eps must lie in (0, 1)")
    sample_count = check_int(sample_count, 1, "random_code_reduction: sample_count")
    seed = check_int(seed, 0, "random_code_reduction: seed")
    l_, d_in, d_out = _code_shape(code)
    _check_code_dims(avqc, l_, d_in, d_out)
    what = "random_code_reduction: state sequences, capped at EXHAUSTIVE_BUDGET"
    check_words(len(avqc.states), l, EXHAUSTIVE_BUDGET, what)
    # success[j, seq_index, i] for each support code j
    success = np.stack([_exhaustive_table(avqc, l, _scoring_terms(det)) for det in code.support])
    mixed = np.einsum("j,jsi->si", code.weights, success)
    eps_l = 1.0 - float(mixed.min())
    if eps <= 2.0 * eps_l:
        raise ValidationError(
            f"random_code_reduction: eps={eps} must exceed twice the code's "
            f"worst-case per-message error {eps_l:.6f}"
        )
    rng = np.random.Generator(np.random.Philox(seed))
    draws = rng.choice(len(code.support), size=sample_count, p=np.asarray(code.weights))
    sampled_mean = success[draws].mean(axis=0)
    verified = bool(sampled_mean.min() >= 1.0 - eps - 1e-12)
    return [code.support[j] for j in draws], verified


def _extend_observations(
    cr_code: CorrelatedCode, target_l: int, encode, decode, what: str
) -> tuple[dict, dict]:
    """Composed encoders and decoders keyed by full-length observations.

    Only the first ``cr_code.n`` samples select a first-phase entry, so
    ``encode`` and ``decode`` run once per entry and are shared by every
    observation that starts with it.
    """
    n_total = target_l // cr_code.r
    if n_total < cr_code.n:
        raise ValidationError(f"{what}: target block shorter than phase 1")
    source = cr_code.source
    x_words = words(source.x_alphabet, n_total, ENUM_BUDGET, f"{what}: sender observation space")
    y_words = words(source.y_alphabet, n_total, ENUM_BUDGET, f"{what}: receiver observation space")
    shared_enc = {x: encode(states) for x, states in cr_code.encoders.items()}
    shared_dec = {y: decode(povm) for y, povm in cr_code.decoders.items()}
    encoders = {x: shared_enc[x[: cr_code.n]] for x in x_words}
    decoders = {y: shared_dec[y[: cr_code.n]] for y in y_words}
    return encoders, decoders


def compose_two_phase(
    cr_code: CorrelatedCode, payload: RandomCode, target_l: int
) -> CorrelatedCode:
    """Chain a correlated code into the shared-randomness slot of a mixture.

    The first ``cr_code.l`` channel uses ship a uniformly drawn support
    index of ``payload``; the remaining uses carry the payload codeword of
    that support code. Encoder states are the index-averaged products

        sum_i (1/k) cr_state(x, i) (x) payload_i(j)

    and decoder elements chain the index measurement into the matching
    payload measurement. If each phase has worst-case average success at
    least 1 - delta and 1 - eps, the composition has at least 1 - delta - eps.
    """
    k = len(payload.support)
    if payload.l + cr_code.l != target_l:
        raise DimensionMismatch(
            f"compose_two_phase: phases {cr_code.l} + {payload.l} != {target_l}"
        )
    if float(np.max(np.abs(payload.weights - 1.0 / k))) > TOL_PROB:
        raise ValidationError(
            "compose_two_phase: payload weights must be uniform over the support"
        )
    if cr_code.message_count < k:
        raise ValidationError(
            f"compose_two_phase: first phase carries {cr_code.message_count} "
            f"messages, needs at least {k}"
        )
    m_count = payload.message_count
    payload_dec_dim = payload.support[0].decoder.dim

    def encode(cr_states):
        rows = []
        for j in range(m_count):
            acc = None
            for i, det in enumerate(payload.support):
                part = np.kron(cr_states[i].matrix, det.encoder[j].matrix) / k
                acc = part if acc is None else acc + part
            rows.append(DensityMatrix(acc))
        return tuple(rows)

    def decode(cr_povm):
        # index outcomes beyond the used support decode to message 0
        leftover = None
        for i in range(k, cr_code.message_count):
            part = np.kron(cr_povm.elements[i], np.eye(payload_dec_dim))
            leftover = part if leftover is None else leftover + part
        elements = []
        for j in range(m_count):
            acc = None
            for i, det in enumerate(payload.support):
                part = np.kron(cr_povm.elements[i], det.decoder.elements[j])
                acc = part if acc is None else acc + part
            if j == 0 and leftover is not None:
                acc = acc + leftover
            elements.append(acc)
        return Povm(tuple(elements))

    encoders, decoders = _extend_observations(
        cr_code, target_l, encode, decode, "compose_two_phase"
    )
    return CorrelatedCode(target_l, cr_code.r, cr_code.source, encoders, decoders)


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(hermitize(mat))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def compose_two_phase_entanglement(
    cr_code: CorrelatedCode,
    payload_blocks: Sequence,
    target_l: int,
) -> CorrelatedEntanglementCode:
    """Entanglement-transmission analogue of ``compose_two_phase``.

    ``payload_blocks`` is a sequence of (encoder, decoder) channel pairs on
    a common code space. The composed encoder sends a uniformly drawn index
    through the correlated code while the matching block encoder carries the
    code-space input; the composed decoder measures the index block and runs
    the selected block decoder. Both directions are channels (built in Kraus
    form and revalidated), so worst-case entanglement fidelity composes just
    like success probability.
    """
    blocks = [(enc, dec) for enc, dec in payload_blocks]
    k = len(blocks)
    if k < 1:
        raise ValidationError("compose_two_phase_entanglement: no payload blocks")
    code_dims = {enc.dim_in for enc, _ in blocks} | {dec.dim_out for _, dec in blocks}
    if len(code_dims) != 1:
        raise DimensionMismatch(
            "compose_two_phase_entanglement: blocks disagree on the code space"
        )
    code_dim = code_dims.pop()
    if cr_code.message_count < k:
        raise ValidationError(
            "compose_two_phase_entanglement: first phase carries too few messages"
        )
    block_in = {enc.dim_out for enc, _ in blocks}
    block_out = {dec.dim_in for _, dec in blocks}
    if len(block_in) != 1 or len(block_out) != 1:
        raise DimensionMismatch(
            "compose_two_phase_entanglement: blocks disagree on the channel block"
        )

    def encode(cr_states):
        kraus = []
        for i, (enc, _) in enumerate(blocks):
            vals, vecs = np.linalg.eigh(hermitize(np.asarray(cr_states[i].matrix)))
            for r_idx in range(vals.size):
                lam = float(vals[r_idx])
                if lam <= 1e-15:
                    continue
                col = (math.sqrt(lam) * vecs[:, r_idx]).reshape(-1, 1)
                for op in enc.kraus:
                    kraus.append(np.kron(col, op) / math.sqrt(k))
        return QuantumChannel(tuple(kraus))

    def decode(cr_povm):
        kraus = []
        for i in range(cr_code.message_count):
            root = _sqrt_psd(np.asarray(cr_povm.elements[i]))
            block_dec = blocks[i][1] if i < k else blocks[0][1]
            for r_idx in range(root.shape[0]):
                row = root[r_idx : r_idx + 1, :]
                for op in block_dec.kraus:
                    kraus.append(np.kron(row, op))
        return QuantumChannel(tuple(kraus))

    encoders, decoders = _extend_observations(
        cr_code, target_l, encode, decode, "compose_two_phase_entanglement"
    )
    return CorrelatedEntanglementCode(
        target_l, cr_code.r, cr_code.source, code_dim, encoders, decoders
    )
