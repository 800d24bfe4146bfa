"""Entropic quantities, all in bits (base-2 logarithms), evaluated on stacks.

One zero rule holds for every entropy in the package, ``capacity``'s too: an
eigenvalue or a probability at or below ``_ZERO`` = 1e-12 counts as 0.
``TOL_PSD`` only checks inputs: an entry below -``TOL_PSD`` is rejected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .config import TOL_PSD
from .errors import DimensionMismatch, ValidationError
from .quantum import DensityMatrix, QuantumChannel, hermitize
from .util import check_distributions

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

_ZERO = 1e-12


def _log_on_support(vals: np.ndarray) -> np.ndarray:
    """log2 of values above ``_ZERO``, and 0 at or below it."""
    kept = vals > _ZERO
    return np.where(kept, np.log2(np.where(kept, vals, 1.0)), 0.0)


def _shannon(probs: np.ndarray) -> np.ndarray:
    """Entropies in bits of a stack (..., k) of probability vectors."""
    return -(probs * _log_on_support(probs)).sum(axis=-1)


def _entropies(mats: np.ndarray) -> np.ndarray:
    """Entropies in bits of a stack (..., d, d) of states."""
    return _shannon(np.linalg.eigvalsh(hermitize(mats)))


def _chi(p: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """chi = S(sum_z p_z W(z)) - sum_z p_z S(W(z)) for outputs W of shape (Z, d, d)."""
    return _entropies(np.einsum("z,zij->ij", p, outputs)) - p @ _entropies(outputs)


def _mutual_informations(tables: np.ndarray) -> np.ndarray:
    """I(X; Y) = H(X) + H(Y) - H(X, Y) in bits of a stack (..., n_x, n_y) of joint tables."""
    joint = _shannon(tables.reshape(*tables.shape[:-2], -1))
    return _shannon(tables.sum(axis=-1)) + _shannon(tables.sum(axis=-2)) - joint


def _checked(measure, values, what: str) -> float:
    """``measure(values)``; entries must be finite and at least -TOL_PSD, the result finite."""
    arr = np.asarray(values, dtype=float)
    if not (np.all(np.isfinite(arr)) and np.all(arr >= -TOL_PSD)):
        raise ValidationError(f"{what}: entries must be finite and at least -{TOL_PSD:g}")
    value = float(measure(arr))
    if not np.isfinite(value):
        raise ValidationError(f"{what}: non-finite result")
    return value


def shannon_entropy(probs) -> float:
    """Entropy of a nonnegative vector; entries at or below 1e-12 contribute 0."""
    return _checked(lambda p: _shannon(p.reshape(-1)), probs, "shannon_entropy")


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr(rho log2 rho)."""
    return float(_entropies(np.asarray(rho.matrix)))


def holevo_chi(probs, w: "CqChannel") -> float:
    """Holevo quantity of the ensemble {p(z), W(z)} in bits.

    chi = S(sum_z p(z) W(z)) - sum_z p(z) S(W(z)); ``probs`` is aligned with
    ``w.alphabet``, and entries down to -TOL_PSD count as 0.
    """
    p = np.asarray(probs, dtype=float).reshape(-1)
    outputs = w.output_list()
    if p.size != len(outputs):
        raise DimensionMismatch(
            f"holevo_chi: {p.size} probabilities for {len(outputs)} letters"
        )
    check_distributions(p, TOL_PSD, "holevo_chi: probs")
    return float(_chi(np.maximum(p, 0.0), np.array([out.matrix for out in outputs])))


def mutual_information(src: "BipartiteSource") -> float:
    """I(X; Y) = H(X) + H(Y) - H(X, Y) of a joint table, in bits.

    Accepts a bipartite source or a raw joint probability table.
    """
    joint = np.asarray(getattr(src, "joint", src), dtype=float)
    if joint.ndim != 2:
        raise ValidationError("mutual_information: expected a 2-d joint table")
    return _checked(_mutual_informations, joint, "mutual_information")


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
