"""Arbitrarily varying channel families and their derived constructions.

An ``Avqc`` is a finite family of channels with common input and output
dimensions, indexed by state labels. The adversary picks one label per
channel use; block-length-l behaviour is the l-fold product family. Beside
it sit classical-quantum families (``AvCqc``), classical kernel families
(``ClassicalAvc``), and the classical family obtained by fixing weighted
signal states and measurements (``reduce_to_classical_weighted``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import ENUM_BUDGET, TOL_PROB
from .errors import DimensionMismatch, ValidationError
from .quantum import apply_channel_to_slot_batch
from .util import words

__all__ = [
    "Avqc",
    "CqChannel",
    "AvCqc",
    "ClassicalAvc",
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
        """All length-l label tuples in lexicographic order, within ``budget`` (``util.words``)."""
        if l < 1:
            raise ValidationError("state_sequences: l must be >= 1")
        return words(self.states, l, budget, "state_sequences")


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
