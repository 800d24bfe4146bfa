"""Minimax random-code capacity search for cq channel families."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avqclab.capacity as capacity
from avqclab import (
    AvCqc,
    BudgetExceeded,
    CqChannel,
    ValidationError,
    basis_state,
    check_symmetrizable_cq,
    chi_of_mixture,
    cq_random_capacity,
    holevo_chi,
    maximally_mixed,
    simplex_grid,
)

from helpers import random_density, rng_for, scalar_capacity_search


def binary_entropy(x):
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def orthogonal_branch():
    return CqChannel(
        (0, 1),
        {0: basis_state(2, 0).to_density(), 1: basis_state(2, 1).to_density()},
    )


def swapped_branch():
    return CqChannel(
        (0, 1),
        {0: basis_state(2, 1).to_density(), 1: basis_state(2, 0).to_density()},
    )


def constant_branch(rho):
    return CqChannel((0, 1), {0: rho, 1: rho})


def random_branch(rng, dim=2, letters=(0, 1)):
    return CqChannel(letters, {z: random_density(rng, dim) for z in letters})


class TestSimplexGrid:
    def test_binary_count_and_values(self):
        pts = list(simplex_grid(2, 4))
        assert len(pts) == 5
        assert sorted(p[0] for p in pts) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_ternary_count(self):
        pts = list(simplex_grid(3, 4))
        assert len(pts) == math.comb(6, 2)
        for p in pts:
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p >= 0)

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(ValidationError):
            list(simplex_grid(0, 4))
        with pytest.raises(ValidationError):
            list(simplex_grid(2, 0))


class TestChiOfMixture:
    def test_point_mass_matches_single_channel(self):
        rng = rng_for(70)
        branch = random_branch(rng)
        avcqc = AvCqc((0, 1), {0: branch, 1: random_branch(rng)})
        p = np.array([0.3, 0.7])
        assert chi_of_mixture(avcqc, p, [1.0, 0.0]) == pytest.approx(
            holevo_chi(p, branch), abs=1e-12
        )

    def test_constant_mixture_is_zero(self):
        rng = rng_for(71)
        avcqc = AvCqc(
            (0, 1),
            {
                0: constant_branch(random_density(rng, 2)),
                1: constant_branch(random_density(rng, 2)),
            },
        )
        assert chi_of_mixture(avcqc, [0.5, 0.5], [0.4, 0.6]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_swap_pair_closed_form(self):
        avcqc = AvCqc((0, 1), {0: orthogonal_branch(), 1: swapped_branch()})
        value = chi_of_mixture(avcqc, [0.5, 0.5], [0.75, 0.25])
        assert value == pytest.approx(1.0 - binary_entropy(0.25), abs=1e-4)

    def test_length_mismatch(self):
        avcqc = AvCqc((0, 1), {0: orthogonal_branch(), 1: swapped_branch()})
        with pytest.raises(Exception):
            chi_of_mixture(avcqc, [0.5, 0.5], [1.0])


class TestCapacityAnchors:
    def test_family_with_constant_member_has_zero_capacity(self):
        rng = rng_for(72)
        avcqc = AvCqc(
            (0, 1),
            {0: random_branch(rng), 1: constant_branch(maximally_mixed(2))},
        )
        result = cq_random_capacity(avcqc, grid_step=1.0 / 64.0)
        assert result.value == pytest.approx(0.0, abs=1e-6)

    def test_singleton_orthogonal_outputs(self):
        avcqc = AvCqc((0,), {0: orthogonal_branch()})
        result = cq_random_capacity(avcqc, grid_step=1.0 / 64.0)
        assert result.value == pytest.approx(1.0, abs=1e-4)
        assert np.allclose(result.argmax_p, [0.5, 0.5], atol=1e-3)

    def test_swap_pair_zero(self):
        avcqc = AvCqc((0, 1), {0: orthogonal_branch(), 1: swapped_branch()})
        result = cq_random_capacity(avcqc, grid_step=1.0 / 64.0)
        assert result.value == pytest.approx(0.0, abs=1e-6)


class TestCapacityProperties:
    def test_result_fields_sane(self):
        rng = rng_for(73)
        avcqc = AvCqc((0, 1), {0: random_branch(rng), 1: random_branch(rng)})
        result = cq_random_capacity(avcqc, grid_step=1.0 / 16.0)
        assert result.value >= 0.0
        assert result.certified_gap >= 0.0
        assert result.grid_step == pytest.approx(1.0 / 16.0)
        assert result.argmax_p.sum() == pytest.approx(1.0, abs=1e-9)
        assert result.argmin_q.sum() == pytest.approx(1.0, abs=1e-9)

    def test_singleton_matches_direct_maximization(self):
        rng = rng_for(74)
        for _ in range(3):
            branch = random_branch(rng)
            avcqc = AvCqc((0,), {0: branch})
            result = cq_random_capacity(avcqc, grid_step=1.0 / 32.0)
            direct = max(
                holevo_chi(p, branch) for p in simplex_grid(2, 256)
            )
            assert abs(result.value - direct) <= result.certified_gap + 1e-9

    def test_monotone_under_family_growth(self):
        rng = rng_for(75)
        for _ in range(3):
            b0, b1 = random_branch(rng), random_branch(rng)
            small = cq_random_capacity(
                AvCqc((0,), {0: b0}), grid_step=1.0 / 16.0
            )
            large = cq_random_capacity(
                AvCqc((0, 1), {0: b0, 1: b1}), grid_step=1.0 / 16.0
            )
            # adding a channel shrinks nothing but the inf's feasible hull
            assert large.value <= small.value + 1e-6

    def test_half_step_consistency(self):
        rng = rng_for(76)
        avcqc = AvCqc((0, 1), {0: random_branch(rng), 1: random_branch(rng)})
        coarse = cq_random_capacity(avcqc, grid_step=1.0 / 16.0)
        fine = cq_random_capacity(avcqc, grid_step=1.0 / 32.0)
        assert abs(coarse.value - fine.value) <= coarse.certified_gap + 1e-9

    def test_symmetrizable_swap_pair_consistency(self):
        avcqc = AvCqc((0, 1), {0: orthogonal_branch(), 1: swapped_branch()})
        verdict = check_symmetrizable_cq(avcqc)
        result = cq_random_capacity(avcqc, grid_step=1.0 / 16.0)
        assert verdict.feasible
        assert result.value <= result.certified_gap + 1e-9

    def test_grid_step_validation(self):
        avcqc = AvCqc((0,), {0: orthogonal_branch()})
        with pytest.raises(ValidationError):
            cq_random_capacity(avcqc, grid_step=0.9)
        with pytest.raises(ValidationError):
            cq_random_capacity(avcqc, grid_step=0.0)

    def test_budget_guard(self):
        avcqc = AvCqc((0, 1), {0: orthogonal_branch(), 1: swapped_branch()})
        with pytest.raises(BudgetExceeded):
            cq_random_capacity(avcqc, grid_step=1.0 / 64.0, budget=100)

    def test_over_budget_grid_is_rejected_before_it_is_built(self):
        rng = rng_for(77)
        letters = (0, 1, 2)
        avcqc = AvCqc((0, 1, 2), {s: random_branch(rng, letters=letters) for s in range(3)})
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="501501x501501 grid pairs exceed budget"):
            cq_random_capacity(avcqc, grid_step=1.0 / 1000.0)
        assert time.perf_counter() - start < 0.05


def identical(a, b) -> bool:
    """Every field equal bit for bit, signed zeros included."""
    for field in dataclasses.fields(a):
        x, y = np.asarray(getattr(a, field.name)), np.asarray(getattr(b, field.name))
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            return False
    return True


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["random", "swap-pair", "constant-member", "twin-member", "twin-letter"]),
    seed=st.integers(0, 2**16),
    dim=st.integers(2, 3),
    n_z=st.integers(1, 3),
    n_s=st.integers(1, 3),
    steps=st.integers(4, 16),
)
def test_batched_search_equals_the_scalar_oracle(kind, seed, dim, n_z, n_s, steps):
    rng = rng_for(seed)
    if kind == "swap-pair":
        avcqc = AvCqc((0, 1), {0: orthogonal_branch(), 1: swapped_branch()})
    else:
        # an added twin of a member or a letter ties mixtures up to rounding,
        # which the 1e-15 scan rules then decide
        outputs = [[random_density(rng, dim) for _ in range(n_z)] for _ in range(n_s)]
        if kind == "constant-member":
            outputs[-1] = [outputs[-1][0]] * n_z
        elif kind == "twin-member":
            outputs.append(outputs[0])
        elif kind == "twin-letter":
            outputs = [row + [row[0]] for row in outputs]
        letters = tuple(range(len(outputs[0])))
        avcqc = AvCqc(
            tuple(range(len(outputs))),
            {s: CqChannel(letters, dict(zip(letters, row))) for s, row in enumerate(outputs)},
        )
    kwargs = dict(grid_step=1.0 / steps, lipschitz_samples=200, seed=seed)
    batched = cq_random_capacity(avcqc, **kwargs)
    assert identical(batched, scalar_capacity_search(avcqc, **kwargs))


def sequential_search(f, x, step, iterations):
    """Oracle for ``_coordinate_search``: one move scored per call."""
    value = f(x)
    for _ in range(iterations):
        moved = False
        for i in range(x.size):
            for j in range(x.size):
                if i == j or x[j] < step - 1e-15:
                    continue
                cand = np.array(x)
                cand[j] -= step
                cand[i] += step
                if f(cand) < value - 1e-15:
                    x, value = cand, f(cand)
                    moved = True
        if not moved:
            step /= 2.0
    return x, value


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), k=st.integers(2, 4), iterations=st.integers(1, 8))
def test_coordinate_sweeps_take_the_moves_of_a_sequential_loop(seed, k, iterations):
    rng = rng_for(seed)
    weights = rng.normal(size=(k, k))

    def f(x):
        # rugged, so that many moves of a sweep are taken
        return float(np.sin(37.0 * (x @ weights @ x)))

    def score(points):
        return [f(x) for x in points], [np.array(x) for x in points]

    x0 = rng.multinomial(8, np.ones(k) / k) / 8.0
    x, value, payload = capacity._coordinate_search(
        score, x0, f(x0), x0, 1.0 / 8.0, iterations, capacity._lower
    )
    expect_x, expect_value = sequential_search(f, x0, 1.0 / 8.0, iterations)
    assert x.tobytes() == expect_x.tobytes()
    assert value == expect_value
    assert payload.tobytes() == x.tobytes()
