"""Shared random-instance generators for the test suite. Seeded throughout."""

from __future__ import annotations

import numpy as np

from avqclab import (
    Avqc,
    CorrelatedCode,
    DensityMatrix,
    DeterministicCode,
    Povm,
    PureState,
    QuantumChannel,
    RandomCode,
    apply_channel_to_slot,
)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat))


def random_pure(rng: np.random.Generator, dim: int) -> PureState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_channel(
    rng: np.random.Generator, dim: int, kraus_count: int = 2, dim_out: int | None = None
) -> QuantumChannel:
    """Random CPTP map: random operators normalized through the Gram root."""
    shape = (dim if dim_out is None else dim_out, dim)
    ops = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(kraus_count)]
    total = sum(op.conj().T @ op for op in ops)
    vals, vecs = np.linalg.eigh(total)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return QuantumChannel(tuple(op @ inv_root for op in ops))


def random_povm(rng: np.random.Generator, dim: int, outcomes: int) -> Povm:
    """Random POVM: PSD pieces conjugated by the inverse root of their sum."""
    pieces = []
    for _ in range(outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        pieces.append(g @ g.conj().T)
    total = sum(pieces)
    vals, vecs = np.linalg.eigh(total)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return Povm(tuple(inv_root @ p @ inv_root for p in pieces))


def random_avqc(rng: np.random.Generator, dim: int, n_states: int) -> Avqc:
    labels = tuple(f"s{i}" for i in range(n_states))
    return Avqc(labels, {s: random_channel(rng, dim) for s in labels})


def random_prob_vector(rng: np.random.Generator, k: int) -> np.ndarray:
    v = rng.random(k) + 1e-3
    return v / v.sum()


def _images(avqc: Avqc, seq, encoder) -> list:
    out = []
    for rho in encoder:
        dims = [avqc.dim_in] * len(seq)
        mat = np.asarray(rho.matrix)
        for slot, s in enumerate(seq):
            mat = apply_channel_to_slot(avqc.channels[s], mat, slot, dims)
            dims[slot] = avqc.channels[s].dim_out
        out.append(mat)
    return out


def _traces(images, decoder: Povm) -> np.ndarray:
    return np.array(
        [float(np.einsum("ij,ji->", op, mat).real) for op, mat in zip(decoder.elements, images)]
    )


def per_message_success(avqc: Avqc, code, seq) -> np.ndarray:
    """Oracle: per-message success at one state sequence, one slot at a time.

    Each encoder state goes through ``apply_channel_to_slot`` slot by slot
    and is traced against its decoder element. Random codes average over
    their whole support; correlated codes sum over every observation pair
    (x, y) with its source mass, without grouping equal encoders.
    """
    if isinstance(code, DeterministicCode):
        return _traces(_images(avqc, seq, code.encoder), code.decoder)
    if isinstance(code, RandomCode):
        total = np.zeros(code.message_count)
        for w, det in zip(code.weights, code.support):
            total += w * _traces(_images(avqc, seq, det.encoder), det.decoder)
        return total
    assert isinstance(code, CorrelatedCode)
    xs = code.source.x_sequences(code.n)
    ys = code.source.y_sequences(code.n)
    table = code.source.joint_power(code.n)
    total = np.zeros(code.message_count)
    for xi, x in enumerate(xs):
        images = _images(avqc, seq, code.encoders[x])
        for yi, y in enumerate(ys):
            if table[xi, yi] > 0.0:
                total += table[xi, yi] * _traces(images, code.decoders[y])
    return total
