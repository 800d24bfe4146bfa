"""Arbitrarily varying channel families and their derived constructions.

An ``Avqc`` is a finite family of channels with common input and output
dimensions, indexed by state labels. The adversary picks one label per
channel use; block-length-l behaviour is the l-fold product family. Beside
it sit classical-quantum families (``AvCqc``). A classical AVC, a family of
stochastic kernels W_s(y|x), is the cq family with commuting outputs
W_s(x) = diag(W_s(.|x)) (``_classical_family``); so is the classical family
obtained by fixing weighted signal states and measurements
(``reduce_to_classical_weighted``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import ENUM_BUDGET, TOL_PROB
from .errors import DimensionMismatch, ValidationError
from .quantum import DensityMatrix, apply_channel_to_slot_batch
from .util import check_distributions, check_int, check_labels, words

__all__ = [
    "Avqc",
    "CqChannel",
    "AvCqc",
    "reduce_to_classical_weighted",
]


@dataclass(frozen=True, eq=False)
class Avqc:
    """A finite channel family sharing input and output dimensions."""

    states: tuple
    channels: Mapping

    def __post_init__(self):
        channels = dict(self.channels)
        states = check_labels(self.states, "Avqc: states", channels)
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

    def state_sequences(self, l: int) -> list:
        """All length-l label tuples in lexicographic order, within ``ENUM_BUDGET``."""
        l = check_int(l, 1, "state_sequences: l")
        return words(self.states, l, ENUM_BUDGET, "state_sequences")


@dataclass(frozen=True, eq=False)
class CqChannel:
    """A classical-quantum channel: one output state per input letter."""

    alphabet: tuple
    outputs: Mapping

    def __post_init__(self):
        outputs = dict(self.outputs)
        alphabet = check_labels(self.alphabet, "CqChannel: alphabet", outputs)
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
        branches = dict(self.branches)
        states = check_labels(self.states, "AvCqc: states", branches)
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


def _classical_family(states, kernels: Mapping) -> AvCqc:
    """The cq family of a classical AVC: letter x under state s outputs diag(kernels[s][x]).

    Each kernel is a matrix of probability rows, one row per input letter;
    the letters are its row indices as strings. Each kernel is checked by
    the probability rule (entries >= -TOL_PROB, rows summing to 1 within
    TOL_PROB) before any state is built, since ``DensityMatrix`` alone would
    let an entry down to -TOL_PSD pass.
    """
    branches = {}
    for s in states:
        kernel = np.asarray(kernels[s], dtype=float)
        check_distributions(kernel, TOL_PROB, f"classical kernel for {s!r}")
        letters = tuple(map(str, range(len(kernel))))
        branches[s] = CqChannel(
            letters, {x: DensityMatrix(np.diag(row)) for x, row in zip(letters, kernel)}
        )
    return AvCqc(states, branches)


def reduce_to_classical_weighted(
    avqc: Avqc,
    components: Sequence[tuple],
) -> AvCqc:
    """Averaged classical reduction over weighted (signals, POVM) pairs.

    ``components`` is a sequence of (signals, povm, weight) triples with a
    common signal count and outcome count; weights must form a probability
    vector. The kernel is U_t(j|i) = sum_z gamma(z) tr(D_j^z N_t(rho_i^z)),
    returned as the diagonal cq family of ``_classical_family``.
    """
    if not components:
        raise ValidationError("reduce_to_classical_weighted: no components")
    weights = [float(c[2]) for c in components]
    check_distributions(weights, 0.0, "reduce_to_classical_weighted: weights")
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
    return _classical_family(avqc.states, kernels)
