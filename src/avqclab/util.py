"""Shared helpers that do not belong to any one analysis."""

from __future__ import annotations

import hashlib

import numpy as np


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
