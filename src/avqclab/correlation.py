"""Bipartite sources and common-randomness extraction diagnostics.

A source is a joint probability table over two finite alphabets. The
functions here decide whether perfect common randomness is extractable from
the components of its support graph, found by one depth-first traversal,
reduce correlated sources to maximally informative binary quantizations, and
turn near-agreeing function pairs into balanced binary ones with certified masses.

Block objects are bounded by ``PAIR_ENUM_BUDGET`` before anything is listed:
a function pair's domains and a source's words by ``util.check_words``, on
both their count |alphabet|^l and their length l, and a block table's entries.
``covers_words`` checks that a table's keys are exactly the length-n words
without forming any, for function pairs here and correlated codes alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .config import ENUM_BUDGET, PAIR_ENUM_BUDGET, TOL_MI
from .errors import BudgetExceeded, DimensionMismatch, ValidationError
from .measures import _mutual_informations, mutual_information
from .util import check_distributions, check_int, check_labels, check_words, power_exceeds, words

__all__ = [
    "BipartiteSource",
    "CrExtractability",
    "BinaryReduction",
    "WitsenhausenSplit",
    "CrFunctionsPair",
    "CrPairStatistics",
    "binary_reduction",
    "cr_extractable",
    "witsenhausen_binarize",
    "cr_pair_statistics",
]


@dataclass(frozen=True, eq=False)
class BipartiteSource:
    """A joint distribution p(x, y) over two finite label alphabets."""

    x_alphabet: tuple
    y_alphabet: tuple
    joint: np.ndarray

    def __post_init__(self):
        x_alphabet = check_labels(self.x_alphabet, "BipartiteSource: x_alphabet")
        y_alphabet = check_labels(self.y_alphabet, "BipartiteSource: y_alphabet")
        joint = np.array(self.joint, dtype=float)
        if joint.shape != (len(x_alphabet), len(y_alphabet)):
            raise DimensionMismatch(
                f"BipartiteSource: table shape {joint.shape} does not match alphabets"
            )
        check_distributions(joint.ravel(), 0.0, "BipartiteSource: joint table")
        joint.setflags(write=False)
        object.__setattr__(self, "x_alphabet", x_alphabet)
        object.__setattr__(self, "y_alphabet", y_alphabet)
        object.__setattr__(self, "joint", joint)

    def joint_power(self, n: int) -> np.ndarray:
        """The i.i.d. block table p^(x)n over lexicographically ranked sequences."""
        n = check_int(n, 1, "joint_power: n")
        pairs = len(self.x_alphabet) * len(self.y_alphabet)
        if power_exceeds(pairs, n, PAIR_ENUM_BUDGET):
            raise BudgetExceeded(
                f"joint_power: {pairs}^{n} entries exceed budget {PAIR_ENUM_BUDGET}"
            )
        if pairs == 1:  # 1 ** n passes the budget for every n
            return self.joint ** n
        table = self.joint
        for _ in range(n - 1):
            table = np.kron(table, self.joint)
        return table

    def x_sequences(self, n: int) -> list:
        """The sender's length-n words, in product order, within ``PAIR_ENUM_BUDGET``."""
        return words(self.x_alphabet, n, PAIR_ENUM_BUDGET, "x_sequences")

    def y_sequences(self, n: int) -> list:
        """The receiver's length-n words, in product order, within ``PAIR_ENUM_BUDGET``."""
        return words(self.y_alphabet, n, PAIR_ENUM_BUDGET, "y_sequences")


@dataclass(frozen=True)
class BinaryReduction:
    """A maximizing binary quantization pair and its mutual information."""

    f_table: tuple
    g_table: tuple
    bits: float


def binary_reduction(src: BipartiteSource) -> BinaryReduction:
    """Exhaustively maximize I(f(X); g(Y)) over binary partitions of each side.

    Tables are reported as 0/1 tuples aligned with the alphabets; letter i is
    bit i of a mask. All pairs' 2x2 tables come from two mask-matrix products.
    In increasing (sender mask, receiver mask) order, a pair replaces the best
    only if it beats it by more than 1e-12. Errors on product sources.
    """
    joint = src.joint
    n_x, n_y = joint.shape
    # one (sender, receiver) partition pair per binary word of length n_x + n_y
    check_words(2, n_x + n_y, ENUM_BUDGET, "binary_reduction: partition pairs")
    if mutual_information(joint) <= TOL_MI:
        raise ValidationError(
            "binary_reduction: source is a product distribution, no informative "
            "binary pair exists"
        )
    # tables[f, g, a, b]: the mass where sender mask f gives a and receiver mask g gives b
    tables = np.einsum("fai,ij,gbj->fgab", _masks(n_x), joint, _masks(n_y), optimize=True)
    values = _mutual_informations(tables).ravel().tolist()
    best = 0
    for pair, value in enumerate(values):
        if value > values[best] + 1e-12:
            best = pair
    mask_f, mask_g = divmod(best, 2**n_y)
    f_table = tuple((mask_f >> i) & 1 for i in range(n_x))
    g_table = tuple((mask_g >> i) & 1 for i in range(n_y))
    return BinaryReduction(f_table, g_table, values[best])


def _masks(n: int) -> np.ndarray:
    """(2^n, 2, n): entry [m, v, i] is 1 where mask m puts letter i in class v."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    return np.stack([1 - bits, bits], axis=1).astype(float)


@dataclass(frozen=True)
class CrExtractability:
    """Support-connectivity verdict for perfect common-randomness extraction."""

    extractable: bool
    component_count: int
    x_partition: tuple | None
    y_partition: tuple | None


def cr_extractable(src: BipartiteSource) -> CrExtractability:
    """Decide extractability from the support graph of the joint table.

    The graph has an edge wherever p(x, y) > 0. One depth-first traversal
    from each unreached letter, senders first, numbers its connected
    components in scan order; letters with zero marginal mass have no edge
    and go to the first block. Two or more components (the Gács–Körner
    common part) mean both parties can compute a common nonconstant function
    with certainty; a connected support admits no such function.
    """
    n_x = len(src.x_alphabet)
    support = src.joint > 0
    # letter k < n_x is sender letter k, letter n_x + j receiver letter j
    neighbours = [np.flatnonzero(x) + n_x for x in support] + [np.flatnonzero(y) for y in support.T]
    block = np.full(len(neighbours), -1)  # -1 until the traversal reaches the letter
    count = 0
    for start, first in enumerate(neighbours):
        if block[start] >= 0 or not first.size:
            continue
        block[start] = count
        stack = [start]
        while stack:
            near = neighbours[stack.pop()]
            fresh = near[block[near] < 0]
            block[fresh] = count
            stack.extend(fresh.tolist())
        count += 1
    if count < 2:
        return CrExtractability(False, count, None, None)
    letters = src.x_alphabet + src.y_alphabet
    parts = [[[] for _ in range(count)] for _ in range(2)]  # sender side, receiver side
    for k, label in enumerate(np.maximum(block, 0).tolist()):
        parts[k >= n_x][label].append(letters[k])
    x_partition, y_partition = (tuple(map(tuple, side)) for side in parts)
    return CrExtractability(True, count, x_partition, y_partition)


@dataclass(frozen=True)
class WitsenhausenSplit:
    """A balanced binary coarsening of a near-agreeing function pair.

    ``m_hat`` letters (in the given order) map to class one; ``theta_table``
    spells the indicator out. Both class-one masses are certified to lie in
    [sigma, sigma + 2 eps], and the coarsened functions agree with
    probability at least ``agreement_lb``.
    """

    m_hat: int
    mass_a: float
    mass_b: float
    agreement_lb: float
    theta_table: tuple


def witsenhausen_binarize(a, b, c, sigma: float, eps: float) -> WitsenhausenSplit:
    """Coarsen a shared value alphabet to a binary one with balanced masses.

    ``a`` and ``b`` are the two parties' value distributions over a common
    alphabet; ``c`` is the vector of joint agreement masses, so c <= min(a, b)
    entrywise and sum(c) >= 1 - eps. Scanning cumulative sums A_m, B_m, the
    split keeps the smallest prefix whose masses both reach ``sigma``; the
    precondition that no single letter carries more than ``eps`` traps both
    prefix masses inside [sigma, sigma + 2 eps].
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    if not (a.size == b.size == c.size) or a.size == 0:
        raise DimensionMismatch("witsenhausen_binarize: vectors must share a length")
    if not 0.0 < sigma < 0.5:
        raise ValidationError("witsenhausen_binarize: sigma must lie in (0, 1/2)")
    if eps < 0.0:
        raise ValidationError("witsenhausen_binarize: eps must be nonnegative")
    slack = 1e-12
    if not np.all(c >= -slack):
        raise ValidationError("witsenhausen_binarize: c has negative or non-numeric mass")
    for name, vec in (("a", a), ("b", b)):
        check_distributions(vec, slack, f"witsenhausen_binarize: {name}")
        if float(vec.max()) > eps + slack:
            raise ValidationError(
                f"witsenhausen_binarize: {name} has a letter of mass > eps"
            )
    if np.any(c > a + slack) or np.any(c > b + slack):
        raise ValidationError(
            "witsenhausen_binarize: agreement masses exceed a marginal"
        )
    if float(c.sum()) < 1.0 - eps - slack:
        raise ValidationError(
            f"witsenhausen_binarize: agreement mass {c.sum():.6f} below 1 - eps"
        )
    cum_a = np.cumsum(a)
    cum_b = np.cumsum(b)
    floor = np.minimum(cum_a, cum_b)
    hits = np.nonzero(floor >= sigma - slack)[0]
    if hits.size == 0:
        raise ValidationError("witsenhausen_binarize: no prefix reaches sigma")
    m_hat = int(hits[0]) + 1
    mass_a = float(cum_a[m_hat - 1])
    mass_b = float(cum_b[m_hat - 1])
    hi = sigma + 2.0 * eps + 1e-9
    lo = sigma - 1e-9
    if not (lo <= mass_a <= hi and lo <= mass_b <= hi):
        raise ValidationError(
            f"witsenhausen_binarize: certified interval violated, masses "
            f"({mass_a:.6f}, {mass_b:.6f}) outside [{sigma}, {sigma + 2 * eps}]"
        )
    theta = tuple(1 if k < m_hat else 0 for k in range(a.size))
    return WitsenhausenSplit(m_hat, mass_a, mass_b, 1.0 - eps, theta)


def covers_words(mapping: Mapping, alphabet: tuple, n: int) -> bool:
    """Whether the keys of ``mapping`` are exactly the length-n words over ``alphabet``.

    Distinct length-n words over the alphabet, |alphabet|^n of them, are all
    of them, so no word is built; the caller bounds |alphabet|^n, while n can
    be 10**12 when |alphabet| = 1.
    """
    letters = set(alphabet)
    return len(mapping) == len(alphabet) ** n and all(
        isinstance(key, tuple) and len(key) == n and letters.issuperset(key) for key in mapping
    )


@dataclass(frozen=True, eq=False)
class CrFunctionsPair:
    """Block functions f: X^l -> values and g: Y^l -> values over a shared range."""

    x_alphabet: tuple
    y_alphabet: tuple
    l: int
    value_count: int
    f_table: Mapping
    g_table: Mapping

    def __post_init__(self):
        x_alphabet = tuple(self.x_alphabet)
        y_alphabet = tuple(self.y_alphabet)
        l = check_int(self.l, 1, "CrFunctionsPair: l")
        value_count = check_int(self.value_count, 1, "CrFunctionsPair: value_count")
        # a one-letter domain passes every count, so the other domain's count
        # is tested before any length
        sides = (("sender", x_alphabet), ("receiver", y_alphabet))
        for side, alphabet in sorted(sides, key=lambda side: len(side[1]) == 1):
            check_words(len(alphabet), l, PAIR_ENUM_BUDGET, f"CrFunctionsPair: {side} domain")
        f_table = dict(self.f_table)
        g_table = dict(self.g_table)
        for name, table, alphabet in (
            ("f_table", f_table, x_alphabet),
            ("g_table", g_table, y_alphabet),
        ):
            if not covers_words(table, alphabet, l):
                raise ValidationError(
                    f"CrFunctionsPair: {name} must cover exactly the length-{l} sequences"
                )
            for seq, val in table.items():
                table[seq] = check_int(val, 0, f"CrFunctionsPair: {name}[{seq!r}] =")
                if table[seq] >= value_count:
                    raise ValidationError(
                        f"CrFunctionsPair: {name}[{seq!r}] = {val!r} is not below {value_count}"
                    )
        object.__setattr__(self, "x_alphabet", x_alphabet)
        object.__setattr__(self, "y_alphabet", y_alphabet)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "value_count", value_count)
        object.__setattr__(self, "f_table", f_table)
        object.__setattr__(self, "g_table", g_table)


@dataclass(frozen=True)
class CrPairStatistics:
    """Exact block statistics of a function pair on an i.i.d. source."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    agreement: float


def cr_pair_statistics(src: BipartiteSource, pair: CrFunctionsPair) -> CrPairStatistics:
    """Exact value-distribution and agreement masses by block enumeration.

    a(k) and b(k) are the pushforward masses of f and g on the i.i.d. block
    source; c(k) is the joint mass of both parties computing value k. The
    joint enumeration costs (|X| |Y|)^l table entries, guarded by
    ``PAIR_ENUM_BUDGET``.
    """
    if (pair.x_alphabet, pair.y_alphabet) != (src.x_alphabet, src.y_alphabet):
        raise ValidationError("cr_pair_statistics: pair and source alphabets differ")
    table = src.joint_power(pair.l)
    f_ranks = np.array([pair.f_table[seq] for seq in src.x_sequences(pair.l)], dtype=int)
    g_ranks = np.array([pair.g_table[seq] for seq in src.y_sequences(pair.l)], dtype=int)
    k = pair.value_count
    a = np.array([table[f_ranks == v].sum() for v in range(k)])
    b = np.array([table[:, g_ranks == v].sum() for v in range(k)])
    c = np.array(
        [table[np.ix_(f_ranks == v, g_ranks == v)].sum() for v in range(k)]
    )
    return CrPairStatistics(a, b, c, float(c.sum()))
