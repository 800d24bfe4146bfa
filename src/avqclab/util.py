"""Shared helpers that do not belong to any one analysis."""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

from .config import TOL_PROB
from .errors import BudgetExceeded, ValidationError


def content_key(obj) -> bytes:
    """Digest of the arrays that make up an encoder or a decoder.

    Accepts a POVM (its elements), a channel (its Kraus operators) or a
    sequence of states, so that equal objects read back from separate JSON
    entries share a key even though they are distinct Python objects.
    """
    arrays = getattr(obj, "elements", None)
    if arrays is None:
        arrays = getattr(obj, "kraus", None)
    if arrays is None:
        arrays = [rho.matrix for rho in obj]
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.digest()


def power_exceeds(base: int, exp: int, limit: float) -> bool:
    """Whether ``base ** exp > limit``, for integers base, exp >= 0.

    A document's block length can be any integer, and ``len(alphabet) ** l``
    for l = 10**12 never finishes. Past a logarithm test the answer is
    certain, so the power is formed only when it is below about 2 * limit.
    """
    if base < 2 or exp < 2 or limit < 1:
        return base ** min(exp, 1) > limit
    if limit == math.inf:
        return False
    bits = math.log2(limit) + 1  # base**exp >= 2**exp, so past it exp is small
    if exp > bits or exp * math.log2(base) > bits:
        return True
    return base**exp > limit


def check_words(letters: int, n: int, budget: int, what: str) -> None:
    """Raise ``BudgetExceeded`` unless the length-n words over ``letters`` letters fit ``budget``.

    The one rule for every word space. Listing costs the count times n, so
    both are bounded: the count ``letters ** n``, which is never formed, and
    n itself, which a one-letter space would otherwise pass at any n.
    """
    if power_exceeds(letters, n, budget) or n > budget:
        raise BudgetExceeded(f"{what}: {letters}^{n} words of length {n} exceed budget {budget}")


def words(alphabet, n: int, budget: int, what: str) -> list:
    """The length-n words over ``alphabet``, in ``itertools.product`` order, within ``budget``."""
    check_words(len(alphabet), n, budget, what)
    return list(itertools.product(alphabet, repeat=n))


def check_int(value, low: int, what: str) -> int:
    """``value`` as a Python int: the one rule for every integer size.

    A Python or numpy integer >= ``low``, never a bool; else ``ValidationError``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValidationError(f"{what} {value!r} is not an integer >= {low}")
    return int(value)


def check_labels(labels, what: str, table=None) -> tuple:
    """``labels`` as a tuple: the one rule for every label table.

    Labels are non-empty, hashable and distinct, and the keys of ``table``, if
    given, are exactly the labels; else ``ValidationError``, naming the keys.
    """
    labels = tuple(labels)
    try:
        distinct = set(labels)
    except TypeError:
        raise ValidationError(f"{what}: labels must be hashable") from None
    if not labels or len(distinct) != len(labels):
        raise ValidationError(f"{what}: labels must be non-empty and distinct")
    missing = [s for s in labels if table is not None and s not in table]
    unknown = [s for s in table or () if s not in distinct]
    if missing or unknown:
        raise ValidationError(f"{what}: missing keys {missing}, unknown keys {unknown}")
    return labels


def check_distributions(rows, floor: float, what: str) -> None:
    """Raise ``ValidationError`` unless each row (last axis) of ``rows`` is a probability vector.

    The one rule for every probability table: each entry at least ``-floor``,
    and each row summing to 1 within ``TOL_PROB``. Both tests are written so
    that a comparison with NaN, which is always false, fails them, and an
    infinite entry gives an infinite or NaN row sum; so a non-finite entry
    is rejected.
    """
    rows = np.asarray(rows, dtype=float)
    if not np.all(rows >= -floor):
        raise ValidationError(f"{what}: entries must be non-negative numbers, to within {floor:g}")
    defect = np.abs(rows.sum(axis=-1) - 1.0)
    if not np.all(defect <= TOL_PROB):
        raise ValidationError(f"{what}: rows deviate from 1 by {np.max(defect):.3e}")
