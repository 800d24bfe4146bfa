"""Entropic quantities, all in bits (base-2 logarithms).

Eigenvalues and probabilities below ``TOL_PSD`` contribute zero to every
entropy here, which keeps the functions total on validated inputs whose
spectra may dip a hair below zero.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .config import TOL_PSD
from .errors import DimensionMismatch, ValidationError
from .quantum import DensityMatrix, QuantumChannel, hermitize

if TYPE_CHECKING:
    from .avqc import CqChannel
    from .correlation import BipartiteSource

__all__ = [
    "shannon_entropy",
    "von_neumann_entropy",
    "holevo_chi",
    "mutual_information",
    "entanglement_fidelity",
]


def shannon_entropy(probs) -> float:
    """Entropy of a nonnegative vector; entries below tolerance contribute 0."""
    p = np.asarray(probs, dtype=float).reshape(-1)
    if np.any(p < -TOL_PSD):
        raise ValidationError(f"shannon_entropy: negative entry {p.min():.3e}")
    kept = p[p > TOL_PSD]
    if kept.size == 0:
        return 0.0
    value = float(-(kept * np.log2(kept)).sum())
    if not np.isfinite(value):
        raise ValidationError("shannon_entropy: non-finite result")
    return value


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr(rho log2 rho)."""
    vals = np.linalg.eigvalsh(hermitize(np.asarray(rho.matrix)))
    return shannon_entropy(vals)


def holevo_chi(probs, w: "CqChannel") -> float:
    """Holevo quantity of the ensemble {p(z), W(z)} in bits.

    chi = S(sum_z p(z) W(z)) - sum_z p(z) S(W(z)); ``probs`` is aligned with
    ``w.alphabet``.
    """
    p = np.asarray(probs, dtype=float).reshape(-1)
    outputs = w.output_list()
    if p.size != len(outputs):
        raise DimensionMismatch(
            f"holevo_chi: {p.size} probabilities for {len(outputs)} letters"
        )
    if np.any(p < -TOL_PSD) or abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValidationError("holevo_chi: probs must form a probability vector")
    avg = np.zeros((w.dim, w.dim), dtype=complex)
    conditional = 0.0
    for weight, out in zip(p, outputs):
        if weight <= 0.0:
            continue
        avg += weight * out.matrix
        conditional += weight * von_neumann_entropy(out)
    return von_neumann_entropy(DensityMatrix(avg)) - conditional


def _joint_table(src) -> np.ndarray:
    joint = np.asarray(getattr(src, "joint", src), dtype=float)
    if joint.ndim != 2:
        raise ValidationError("mutual_information: expected a 2-d joint table")
    return joint


def mutual_information(src: "BipartiteSource") -> float:
    """I(X; Y) = H(X) + H(Y) - H(X, Y) of a joint table, in bits.

    Accepts a bipartite source or a raw joint probability table.
    """
    joint = _joint_table(src)
    h_x = shannon_entropy(joint.sum(axis=1))
    h_y = shannon_entropy(joint.sum(axis=0))
    return h_x + h_y - shannon_entropy(joint)


def entanglement_fidelity(rho: DensityMatrix, ch: QuantumChannel) -> float:
    """F_e(rho, N) = sum_k |tr(rho K_k)|^2 over the Kraus family of ``N``.

    Requires a square channel acting on the space of ``rho``. Agrees with
    the purification definition <psi|(id ⊗ N)(|psi><psi|)|psi>, which
    ``entanglement_fidelity_purification`` in ``tests/helpers.py`` evaluates
    as an independent oracle.
    """
    if ch.dim_in != ch.dim_out:
        raise DimensionMismatch("entanglement_fidelity: channel must be square")
    if ch.dim_in != rho.dim:
        raise DimensionMismatch(
            f"entanglement_fidelity: state dim {rho.dim} vs channel dim {ch.dim_in}"
        )
    traces = np.einsum("kij,ji->k", ch.stacked, rho.matrix)
    value = float(np.sum(np.abs(traces) ** 2))
    return value
