"""Invariance across the commands: what is reported may not depend on how a family is written.

The paper's results are stated over the convex hull of the family, so
adding a member that is a convex mixture of the others changes no worst
case: each sequence's success is affine in each slot's channel, and a
symmetrizing witness can move the new member's mass onto the members it
mixes. Greedy search scores a subset of the sequences that exhaustive
scoring does, so it never reports a smaller worst average success.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from avqclab import (
    Avqc,
    DeterministicCode,
    QuantumChannel,
    RandomCode,
    check_symmetrizable,
    constant_channel,
    evaluate_code,
    hermitian_probe_frame,
)

from helpers import random_channel, random_density, random_povm, rng_for

FAMILIES = dict(
    seed=st.integers(0, 2**32 - 1),
    members=st.integers(2, 3),
    constant=st.booleans(),
    l=st.sampled_from([2, 3]),
    messages=st.integers(2, 4),
    supports=st.integers(1, 2),
)


def family_and_code(seed, members, constant, l, messages, supports):
    """A random qubit family, the same family with a mixture member appended, and a code.

    With ``constant`` the last member is a constant channel, so the family
    is symmetrizable at l=1 and the verdict has something to keep.
    """
    rng = rng_for(seed)
    channels = [random_channel(rng, 2) for _ in range(members)]
    if constant:
        channels[-1] = constant_channel(random_density(rng, 2))
    weights = rng.dirichlet(np.ones(members))
    # the Kraus stack sqrt(w_s) K of all members is the channel sum_s w_s N_s
    mixed = QuantumChannel(
        tuple(np.sqrt(w) * op for w, ch in zip(weights, channels) for op in ch.kraus)
    )
    labels = tuple(f"s{i}" for i in range(members + 1))
    family = Avqc(labels[:-1], dict(zip(labels, channels)))
    extended = Avqc(labels, dict(zip(labels, channels + [mixed])))
    dim = 2**l
    support = tuple(
        DeterministicCode(
            l,
            tuple(random_density(rng, dim) for _ in range(messages)),
            random_povm(rng, dim, messages),
        )
        for _ in range(supports)
    )
    return family, extended, RandomCode(support, rng.dirichlet(np.ones(supports)))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(**FAMILIES)
def test_a_mixture_member_changes_no_exhaustive_worst_case(**draw):
    family, extended, code = family_and_code(**draw)
    before = evaluate_code(family, code, mode="exhaustive")
    after = evaluate_code(extended, code, mode="exhaustive")
    assert abs(after.avg_success_worst - before.avg_success_worst) <= 1e-12
    assert abs(after.max_error_worst - before.max_error_worst) <= 1e-12


@settings(max_examples=15, deadline=None, derandomize=True)
@given(**FAMILIES)
def test_a_mixture_member_changes_no_symmetrizability_verdict(**draw):
    family, extended, _ = family_and_code(**draw)
    frame = hermitian_probe_frame(2)
    before = check_symmetrizable(family, 1, frame)
    assert before.feasible == check_symmetrizable(extended, 1, frame).feasible
    if draw["constant"]:
        assert before.feasible


@settings(max_examples=15, deadline=None, derandomize=True)
@given(**FAMILIES)
def test_greedy_never_reports_below_exhaustive(**draw):
    # beyond the tie allowance of codes._first_worst, 4 * d_out * eps
    allowance = 4 * 2 ** draw["l"] * np.finfo(float).eps
    family, extended, code = family_and_code(**draw)
    for avqc in (family, extended):
        exact = evaluate_code(avqc, code, mode="exhaustive").avg_success_worst
        assert evaluate_code(avqc, code, mode="greedy").avg_success_worst >= exact - allowance
