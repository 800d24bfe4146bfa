"""Numeric tolerances and enumeration budgets shared across the package.

All tolerances are absolute. Operations accept explicit ``tol``/``budget``
arguments where overriding makes sense; these module constants are the
defaults and are chosen for dimensions up to a few dozen, which is the
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

# Strict-positivity threshold for relative-interior tests on sources.
TOL_POS = 1e-12

# Hard cap on any total Hilbert-space dimension.
DIM_CAP = 4096

# Cap on enumerated index sets (state sequences, function alphabets).
ENUM_BUDGET = 65536

# Above this many state sequences the adversary search switches to greedy.
EXHAUSTIVE_BUDGET = 4096

# Cap on enumerated sequence pairs in exact common-randomness statistics.
PAIR_ENUM_BUDGET = 2**20

# Cap on total Kraus-operator entries of an explicitly built product channel.
KRAUS_ENTRY_BUDGET = 2**22

