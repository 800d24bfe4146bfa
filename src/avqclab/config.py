"""Numeric tolerances and enumeration budgets shared across the package.

All tolerances are absolute. Operations accept an explicit ``tol`` where
overriding makes sense, with these constants as defaults; the budgets are
fixed caps. All are chosen for dimensions up to a few dozen, which is the
scale everything here is meant for.
"""

from __future__ import annotations

# Validation tolerances for constructed objects.
TOL_HERM = 1e-9
TOL_TRACE = 1e-9
TOL_NORM = 1e-9
TOL_PROB = 1e-9
TOL_PSD = 1e-8
TOL_CPTP = 1e-9
TOL_POVM = 1e-9

# Feasibility threshold for the symmetrizability linear programs.
TOL_FEAS = 1e-7

# Threshold below which a mutual information is treated as zero.
TOL_MI = 1e-9

# Hard cap on any total Hilbert-space dimension.
DIM_CAP = 4096

# Cap on a listed word space (state sequences, observation sequences): on
# its word count and on its word length, the two halves of util.check_words.
ENUM_BUDGET = 65536

# Above this many state sequences the adversary search switches to greedy.
EXHAUSTIVE_BUDGET = 4096

# Cap on enumerated sequence pairs in exact common-randomness statistics.
PAIR_ENUM_BUDGET = 2**20

