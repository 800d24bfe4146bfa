"""Arbitrarily varying channel families and their derived constructions.

An ``Avqc`` is a finite family of channels with common input and output
dimensions, indexed by state labels. The adversary picks one label per
channel use; block-length-l behaviour is the l-fold product family. Derived
constructions: classical-quantum families with flagged side information
built from a bipartite source, and fully classical families obtained by
fixing signal states and measurements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .config import DIM_CAP, ENUM_BUDGET, TOL_PROB
from .errors import BudgetExceeded, DimensionMismatch, ValidationError
from .quantum import (
    DensityMatrix,
    Povm,
    apply_channel_to_slot_batch,
    apply_product_channel,
    tensor_channel,
)
from .util import power_exceeds

if TYPE_CHECKING:
    from .correlation import BipartiteSource

__all__ = [
    "Avqc",
    "CqChannel",
    "AvCqc",
    "ClassicalAvc",
    "product_avqc",
    "build_associated_avcqc",
    "reduce_to_classical",
    "reduce_to_classical_weighted",
]


@dataclass(frozen=True, eq=False)
class Avqc:
    """A finite channel family sharing input and output dimensions."""

    states: tuple
    channels: Mapping

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise ValidationError("Avqc: empty state set")
        if len(set(states)) != len(states):
            raise ValidationError("Avqc: duplicate state labels")
        channels = dict(self.channels)
        missing = [s for s in states if s not in channels]
        if missing:
            raise ValidationError(f"Avqc: no channel for states {missing}")
        extra = [s for s in channels if s not in states]
        if extra:
            raise ValidationError(f"Avqc: channels for unknown states {extra}")
        dims = {(channels[s].dim_in, channels[s].dim_out) for s in states}
        if len(dims) != 1:
            raise DimensionMismatch(f"Avqc: mixed channel dimensions {sorted(dims)}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "channels", channels)

    @property
    def dim_in(self) -> int:
        return self.channels[self.states[0]].dim_in

    @property
    def dim_out(self) -> int:
        return self.channels[self.states[0]].dim_out

    def state_sequences(self, l: int, budget: int = ENUM_BUDGET) -> list:
        """All length-l label tuples in lexicographic order.

        The work is the count times l, so l above ``budget`` is rejected as
        well, which a one-member family would otherwise pass at any l.
        """
        if l < 1:
            raise ValidationError("state_sequences: l must be >= 1")
        if power_exceeds(len(self.states), l, budget) or l > budget:
            raise BudgetExceeded(
                f"state_sequences: {len(self.states)}^{l} sequences of length {l} "
                f"exceed budget {budget}"
            )
        return list(itertools.product(self.states, repeat=l))


@dataclass(frozen=True, eq=False)
class CqChannel:
    """A classical-quantum channel: one output state per input letter."""

    alphabet: tuple
    outputs: Mapping

    def __post_init__(self):
        alphabet = tuple(self.alphabet)
        if not alphabet:
            raise ValidationError("CqChannel: empty alphabet")
        if len(set(alphabet)) != len(alphabet):
            raise ValidationError("CqChannel: duplicate letters")
        outputs = dict(self.outputs)
        missing = [z for z in alphabet if z not in outputs]
        if missing:
            raise ValidationError(f"CqChannel: no output for letters {missing}")
        dims = {outputs[z].dim for z in alphabet}
        if len(dims) != 1:
            raise DimensionMismatch("CqChannel: outputs have mixed dimensions")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "outputs", outputs)

    @property
    def dim(self) -> int:
        return self.outputs[self.alphabet[0]].dim

    def output_list(self) -> list:
        return [self.outputs[z] for z in self.alphabet]


@dataclass(frozen=True, eq=False)
class AvCqc:
    """A finite family of cq channels over a common input alphabet."""

    states: tuple
    branches: Mapping

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise ValidationError("AvCqc: empty state set")
        if len(set(states)) != len(states):
            raise ValidationError("AvCqc: duplicate state labels")
        branches = dict(self.branches)
        missing = [s for s in states if s not in branches]
        if missing:
            raise ValidationError(f"AvCqc: no branch for states {missing}")
        alphabets = {branches[s].alphabet for s in states}
        if len(alphabets) != 1:
            raise ValidationError("AvCqc: branches disagree on the alphabet")
        dims = {branches[s].dim for s in states}
        if len(dims) != 1:
            raise DimensionMismatch("AvCqc: branches have mixed output dimensions")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "branches", branches)

    @property
    def alphabet(self) -> tuple:
        return self.branches[self.states[0]].alphabet

    @property
    def dim(self) -> int:
        return self.branches[self.states[0]].dim

    def mixture(self, weights) -> CqChannel:
        """The averaged branch sum_s q(s) W_s as a cq channel."""
        q = np.asarray(weights, dtype=float)
        if q.size != len(self.states):
            raise DimensionMismatch("mixture: weight count must match state count")
        if np.any(q < 0) or abs(float(q.sum()) - 1.0) > TOL_PROB:
            raise ValidationError("mixture: weights must be a probability vector")
        outputs = {}
        for z in self.alphabet:
            acc = np.zeros((self.dim, self.dim), dtype=complex)
            for weight, s in zip(q, self.states):
                acc += weight * self.branches[s].outputs[z].matrix
            outputs[z] = DensityMatrix(acc)
        return CqChannel(self.alphabet, outputs)


@dataclass(frozen=True, eq=False)
class ClassicalAvc:
    """A finite family of stochastic kernels over common alphabets."""

    states: tuple
    kernels: Mapping

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise ValidationError("ClassicalAvc: empty state set")
        if len(set(states)) != len(states):
            raise ValidationError("ClassicalAvc: duplicate state labels")
        kernels = {}
        shape = None
        for s in states:
            if s not in dict(self.kernels):
                raise ValidationError(f"ClassicalAvc: no kernel for state {s!r}")
            mat = np.array(dict(self.kernels)[s], dtype=float)
            if mat.ndim != 2:
                raise ValidationError(f"ClassicalAvc: kernel for {s!r} is not a matrix")
            if shape is None:
                shape = mat.shape
            elif mat.shape != shape:
                raise DimensionMismatch("ClassicalAvc: kernels have mixed shapes")
            if np.any(mat < -TOL_PROB):
                raise ValidationError(f"ClassicalAvc: kernel for {s!r} has negative entries")
            row_defect = float(np.max(np.abs(mat.sum(axis=1) - 1.0)))
            if row_defect > TOL_PROB:
                raise ValidationError(
                    f"ClassicalAvc: kernel rows for {s!r} deviate from 1 by {row_defect:.3e}"
                )
            mat.setflags(write=False)
            kernels[s] = mat
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "kernels", kernels)

    @property
    def input_count(self) -> int:
        return self.kernels[self.states[0]].shape[0]

    @property
    def output_count(self) -> int:
        return self.kernels[self.states[0]].shape[1]


def product_avqc(avqc: Avqc, l: int, budget: int = ENUM_BUDGET) -> Avqc:
    """The l-fold product family, indexed by label tuples in lex order."""
    seqs = avqc.state_sequences(l, budget=budget)
    channels = {
        seq: tensor_channel([avqc.channels[s] for s in seq]) for seq in seqs
    }
    return Avqc(tuple(seqs), channels)


def build_associated_avcqc(
    avqc: Avqc,
    n: int,
    source: "BipartiteSource",
    signals: Sequence[DensityMatrix],
    budget: int = ENUM_BUDGET,
) -> AvCqc:
    """The flagged cq family attached to a channel family and a source.

    For block length ``n``, a bipartite source and ``K`` signal states turn
    each state sequence into a cq channel whose input letters are all
    functions from sender observations to signal indices. The channel output
    appends an orthonormal flag recording the receiver observation:

        W_seq(f) = sum_{x,y} p^n(x, y) |rank(y)><rank(y)| (x) N_seq(rho_f(x))

    States are the length-n label tuples. Letters are value tables (tuples
    of 0-based signal indices) over the lexicographically ordered sender
    sequences. Output dimension is |Y|^n * dim_out^n, with the flag block
    first.
    """
    signals = tuple(signals)
    if len(signals) < 1:
        raise ValidationError("build_associated_avcqc: needs at least one signal")
    if n < 1:
        raise ValidationError("build_associated_avcqc: n must be >= 1")
    if {sig.dim for sig in signals} != {avqc.dim_in}:
        raise DimensionMismatch(
            "build_associated_avcqc: signal dims must equal the channel input dim"
        )
    signal_count = len(signals)
    x_count, y_count = len(source.x_alphabet), len(source.y_alphabet)
    # each of the signal_count ** (x_count ** n) letters is a table over x_count ** n sequences
    if power_exceeds(x_count, n, budget) or power_exceeds(signal_count, x_count**n, budget):
        raise BudgetExceeded(
            f"build_associated_avcqc: {signal_count}^({x_count}^{n}) functions exceed budget {budget}"
        )
    domain = x_count**n
    letters = list(itertools.product(range(signal_count), repeat=domain))
    seqs = avqc.state_sequences(n, budget=budget)

    if power_exceeds(y_count * avqc.dim_out, n, DIM_CAP):
        raise ValidationError(
            f"build_associated_avcqc: output dimension ({y_count}*{avqc.dim_out})^{n} exceeds the cap"
        )
    n_y = y_count**n
    d_block = avqc.dim_out**n
    dim_total = n_y * d_block
    joint_n = source.joint_power(n)

    branches = {}
    for seq in seqs:
        factors = [avqc.channels[s] for s in seq]
        images = [apply_product_channel(factors, sig).matrix for sig in signals]
        outputs = {}
        for f in letters:
            # mass[k, y] = sum over sender sequences mapped to signal k
            mass = np.zeros((signal_count, n_y))
            for x_rank, k in enumerate(f):
                mass[k] += joint_n[x_rank]
            w = np.zeros((dim_total, dim_total), dtype=complex)
            for y_rank in range(n_y):
                block = sum(mass[k, y_rank] * images[k] for k in range(signal_count))
                lo = y_rank * d_block
                hi = lo + d_block
                w[lo:hi, lo:hi] = block
            outputs[f] = DensityMatrix(w)
        branches[seq] = CqChannel(tuple(letters), outputs)
    return AvCqc(tuple(seqs), branches)


def reduce_to_classical(
    avqc: Avqc, signals: Sequence[DensityMatrix], povm: Povm
) -> ClassicalAvc:
    """Classical kernels U_t(j|i) = tr(D_j N_t(rho_i)) from fixed signals and POVM."""
    return reduce_to_classical_weighted(avqc, [(signals, povm, 1.0)])


def reduce_to_classical_weighted(
    avqc: Avqc,
    components: Sequence[tuple],
) -> ClassicalAvc:
    """Averaged classical reduction over weighted (signals, POVM) pairs.

    ``components`` is a sequence of (signals, povm, weight) triples with a
    common signal count and outcome count; weights must form a probability
    vector. The kernel is U_t(j|i) = sum_z gamma(z) tr(D_j^z N_t(rho_i^z)).
    """
    if not components:
        raise ValidationError("reduce_to_classical_weighted: no components")
    weights = np.array([float(c[2]) for c in components])
    if np.any(weights < 0) or abs(float(weights.sum()) - 1.0) > TOL_PROB:
        raise ValidationError(
            "reduce_to_classical_weighted: weights must be a probability vector"
        )
    n_in = len(components[0][0])
    n_out = components[0][1].outcome_count
    for signals, povm, _ in components:
        if len(signals) != n_in or povm.outcome_count != n_out:
            raise DimensionMismatch(
                "reduce_to_classical_weighted: components have mixed arities"
            )
        if any(sig.dim != avqc.dim_in for sig in signals):
            raise DimensionMismatch(
                "reduce_to_classical_weighted: signal dim must match channel input"
            )
        if povm.dim != avqc.dim_out:
            raise DimensionMismatch(
                "reduce_to_classical_weighted: POVM dim must match channel output"
            )
    # every signal of every weighted component in one stack, so each channel's
    # transfer matrix is built once
    live = [c for c in components if c[2] != 0.0]
    stack = np.stack([sig.matrix for signals, _, _ in live for sig in signals])
    kernels = {}
    for s in avqc.states:
        ch = avqc.channels[s]
        outs = apply_channel_to_slot_batch(ch, stack, 0, [ch.dim_in])
        outs = outs.reshape(len(live), n_in, ch.dim_out, ch.dim_out)
        mat = np.zeros((n_in, n_out))
        for (_, povm, weight), out in zip(live, outs):
            mat += weight * np.einsum("jab,iba->ij", np.stack(povm.elements), out).real
        kernels[s] = mat
    return ClassicalAvc(avqc.states, kernels)
