"""Minimax random-code capacity search for cq channel families."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avqclab.capacity as capacity
import avqclab.symmetrize as symmetrize
from avqclab.config import TOL_FEAS
from avqclab import (
    AvCqc,
    CqChannel,
    DensityMatrix,
    ValidationError,
    basis_state,
    cq_random_capacity,
    holevo_chi,
    maximally_mixed,
)

from helpers import (
    branch_stack,
    chi_of_mixture,
    chi_table,
    linprog_master,
    random_density,
    random_pure,
    rng_for,
    simplex_grid,
)


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


def golden_section_max(f, lo=0.0, hi=1.0, width=1e-12):
    """Maximum of a concave f on [lo, hi], bracketed to ``width``.

    Near its maximum a smooth f is flat to second order, so the value is
    far more accurate than ``width``.
    """
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo + (1.0 - shrink) * (hi - lo), lo + shrink * (hi - lo)
    fa, fb = f(a), f(b)
    while hi - lo > width:
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + shrink * (hi - lo)
            fb = f(b)
        else:
            hi, b, fb = b, a, fa
            a = lo + (1.0 - shrink) * (hi - lo)
            fa = f(a)
    return max(fa, fb, f(lo), f(hi))


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
        result = cq_random_capacity(avcqc)
        assert result.value == pytest.approx(0.0, abs=1e-6)

    def test_singleton_orthogonal_outputs(self):
        avcqc = AvCqc((0,), {0: orthogonal_branch()})
        result = cq_random_capacity(avcqc)
        assert result.value == pytest.approx(1.0, abs=1e-4)
        assert np.allclose(result.argmax_p, [0.5, 0.5], atol=1e-3)

    def test_swap_pair_zero(self):
        avcqc = AvCqc((0, 1), {0: orthogonal_branch(), 1: swapped_branch()})
        result = cq_random_capacity(avcqc)
        assert result.value == pytest.approx(0.0, abs=1e-6)
        # at the first query, the uniform q, every output is I/2 and the inner
        # solve keeps the uniform p, so the interval closes on 0
        assert result.lower_bound == 0.0
        assert result.certified_gap <= 1e-6

    def test_one_letter_has_the_interval_zero_zero(self):
        rng = rng_for(78)
        avcqc = AvCqc(
            (0, 1),
            {s: CqChannel((0,), {0: random_density(rng, 3)}) for s in (0, 1)},
        )
        result = cq_random_capacity(avcqc)
        assert (result.value, result.lower_bound, result.upper_bound) == (0.0, 0.0, 0.0)
        assert result.argmax_p.tolist() == [1.0]


class TestCapacityProperties:
    def test_result_fields_sane(self):
        rng = rng_for(73)
        avcqc = AvCqc((0, 1), {0: random_branch(rng), 1: random_branch(rng)})
        result = cq_random_capacity(avcqc)
        assert result.value >= 0.0
        assert result.certified_gap >= 0.0
        assert result.argmax_p.sum() == pytest.approx(1.0, abs=1e-9)
        assert result.argmin_q.sum() == pytest.approx(1.0, abs=1e-9)
        # full-rank outputs: the saddle point is certified to a small interval
        assert result.lower_bound <= result.value <= result.upper_bound
        assert result.certified_gap <= 1e-5

    def test_certificate_falls_back_where_a_partial_is_infinite(self):
        # at q = (1, 0) mixing in the swapped member lowers chi at an
        # infinite rate, down to 0 at q = (1/2, 1/2), so there is no cut
        avcqc = AvCqc((0, 1), {0: orthogonal_branch(), 1: swapped_branch()})
        p, q = np.array([0.5, 0.5]), np.array([1.0, 0.0])
        assert chi_of_mixture(avcqc, p, q) == pytest.approx(1.0)
        assert capacity._gradient(branch_stack(avcqc), p, q) is None
        grad = capacity._gradient(branch_stack(avcqc), p, np.array([0.5, 0.5]))
        assert np.abs(grad).max() <= 1e-12

    def test_singleton_matches_direct_maximization(self):
        rng = rng_for(74)
        for _ in range(3):
            branch = random_branch(rng)
            avcqc = AvCqc((0,), {0: branch})
            result = cq_random_capacity(avcqc)
            direct = golden_section_max(lambda t: holevo_chi([t, 1.0 - t], branch))
            assert abs(result.value - direct) <= result.certified_gap + 1e-9

    def test_one_member_runs_blahut_arimoto_alone(self, monkeypatch):
        rng = rng_for(79)
        letters = (0, 1, 2)
        avcqc = AvCqc((0,), {0: random_branch(rng, dim=3, letters=letters)})

        def no_master(cuts, basis):
            raise AssertionError("the master LP ran for a one-member family")

        monkeypatch.setattr(capacity, "_master", no_master)
        result = cq_random_capacity(avcqc)
        assert result.argmin_q.tolist() == [1.0]
        assert result.certified_gap <= 1e-9
        assert result.lower_bound <= result.value <= result.upper_bound

    def test_monotone_under_family_growth(self):
        rng = rng_for(75)
        for _ in range(3):
            b0, b1 = random_branch(rng), random_branch(rng)
            small = cq_random_capacity(AvCqc((0,), {0: b0}))
            large = cq_random_capacity(AvCqc((0, 1), {0: b0, 1: b1}))
            # adding a channel shrinks nothing but the inf's feasible hull
            assert large.value <= small.value + 1e-6

    def test_symmetrizable_swap_pair_consistency(self):
        avcqc = AvCqc((0, 1), {0: orthogonal_branch(), 1: swapped_branch()})
        # images[z, s]: the real coordinates of letter z's output under member s
        outputs = [
            [avcqc.branches[s].outputs[z].matrix for s in avcqc.states] for z in avcqc.alphabet
        ]
        images = symmetrize._hvec(np.array(outputs))
        feasible, _, _ = symmetrize._pairwise_mixture_feasibility(images, TOL_FEAS)
        result = cq_random_capacity(avcqc)
        assert feasible
        assert result.value <= 1e-9

    def test_grid_step_validation(self):
        # the solver takes no tuning parameter: no grid, refinement or budget
        avcqc = AvCqc((0,), {0: orthogonal_branch()})
        for knob in ("grid_step", "refine_iterations", "budget"):
            with pytest.raises(TypeError):
                cq_random_capacity(avcqc, **{knob: 1})

    def test_budget_guard(self, monkeypatch):
        # at the cut cap the wider interval is returned, and it still brackets
        rng = rng_for(77)
        letters = (0, 1, 2)
        avcqc = AvCqc((0, 1, 2), {s: random_branch(rng, letters=letters) for s in range(3)})
        full = cq_random_capacity(avcqc)
        monkeypatch.setattr(capacity, "_MAX_CUTS", 3)
        capped = cq_random_capacity(avcqc)
        assert capped.certified_gap > full.certified_gap
        assert capped.lower_bound <= full.lower_bound <= full.upper_bound <= capped.upper_bound
        assert_brackets(branch_stack(avcqc), capped, 24)


def assert_brackets(branch, result, steps):
    """The reported interval holds against ``steps``-grids over p and q.

    The grids include the reported points. Every chi(argmax_p, q) is at
    least ``lower_bound`` and every chi(p, argmin_q) at most
    ``upper_bound``; the row and the column then bracket the grids' saddle
    value max_p min_q chi, which is also computed outright when the table
    is small.
    """
    n_s, n_z = branch.shape[:2]
    ps = np.vstack([np.array(list(simplex_grid(n_z, steps))), result.argmax_p])
    qs = np.vstack([np.array(list(simplex_grid(n_s, steps))), result.argmin_q])
    assert chi_table(branch, result.argmax_p[None], qs).min() >= result.lower_bound - 1e-9
    assert chi_table(branch, ps, result.argmin_q[None]).max() <= result.upper_bound + 1e-9
    if len(ps) * len(qs) <= 2500:
        saddle = chi_table(branch, ps, qs).min(axis=1).max()
        assert result.lower_bound - 1e-9 <= saddle <= result.upper_bound + 1e-9
    assert result.lower_bound <= result.value <= result.upper_bound
    assert math.isfinite(result.certified_gap)
    assert result.certified_gap == result.upper_bound - result.lower_bound


def assert_chi_at_the_reported_points_in_interval(avcqc, result):
    # the public holevo_chi applies capacity's zero rule, so it cannot read
    # above the certified upper bound (it did by 4.8e-7 at masses of 9e-9)
    chi = chi_of_mixture(avcqc, result.argmax_p, result.argmin_q)
    assert result.lower_bound - 1e-12 <= chi <= result.upper_bound + 1e-12


def family_of_kind(kind, rng, dim, n_z, n_s) -> AvCqc:
    """A cq family with random, pure or orthogonal outputs, or a special shape.

    An added twin of a member or a letter ties mixtures up to rounding,
    which the 1e-15 scan rules then decide; pure and orthogonal outputs and
    the swap pair put mixtures and their averages on kernels.
    """
    if kind == "swap-pair":
        return AvCqc((0, 1), {0: orthogonal_branch(), 1: swapped_branch()})
    if kind == "pure":
        outputs = [[random_pure(rng, dim).to_density() for _ in range(n_z)] for _ in range(n_s)]
    elif kind == "orthogonal":
        outputs = [
            [basis_state(dim, int(k)).to_density() for k in rng.integers(0, dim, size=n_z)]
            for _ in range(n_s)
        ]
    else:
        outputs = [[random_density(rng, dim) for _ in range(n_z)] for _ in range(n_s)]
    if kind == "constant-member":
        outputs[-1] = [outputs[-1][0]] * n_z
    elif kind == "twin-member":
        outputs.append(outputs[0])
    elif kind == "twin-letter":
        outputs = [row + [row[0]] for row in outputs]
    letters = tuple(range(len(outputs[0])))
    return AvCqc(
        tuple(range(len(outputs))),
        {s: CqChannel(letters, dict(zip(letters, row))) for s, row in enumerate(outputs)},
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(
        [
            "random",
            "pure",
            "orthogonal",
            "constant-member",
            "swap-pair",
            "twin-member",
            "twin-letter",
        ]
    ),
    seed=st.integers(0, 2**16),
    dim=st.integers(2, 3),
    n_z=st.integers(1, 3),
    n_s=st.integers(1, 3),
)
def test_certificate_brackets_both_one_sided_problems(kind, seed, dim, n_z, n_s):
    rng = rng_for(seed)
    avcqc = family_of_kind(kind, rng, dim, n_z, n_s)
    branch = branch_stack(avcqc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = cq_random_capacity(avcqc)
        # at a point of the 1/4 grids, faces included, the cut and the
        # divergence bound are not pinned to a near-saddle value, so they
        # test the formulas themselves
        p0, q0 = (rng.multinomial(4, np.ones(n) / n) / 4.0 for n in branch.shape[1::-1])
        grad = capacity._gradient(branch, p0, q0)
        out = np.einsum("s,szij->zij", q0, branch)
        div, finite = capacity._divergences(out, capacity._entropies(out), p0)[:2]
    assert_brackets(branch, result, 48)
    assert_chi_at_the_reported_points_in_interval(avcqc, result)
    qs = np.array(list(simplex_grid(branch.shape[0], 48)))
    ps = np.array(list(simplex_grid(branch.shape[1], 48)))
    if grad is not None:
        assert (chi_table(branch, p0[None], qs)[0] >= qs @ grad - 1e-9).all()
    if finite:
        assert chi_table(branch, ps, q0[None]).max() <= div.max() + 1e-9


@pytest.mark.parametrize("mass", [9e-9, 1e-10])
def test_holevo_chi_at_the_reported_points_near_a_face(mass):
    # one member; W(z) puts 1 - 2 mass on |z> and mass on the other two basis states
    diagonals = np.where(np.eye(3, dtype=bool), 1.0 - 2.0 * mass, mass)
    outputs = {z: DensityMatrix(np.diag(row)) for z, row in enumerate(diagonals)}
    avcqc = AvCqc((0,), {0: CqChannel((0, 1, 2), outputs)})
    assert_chi_at_the_reported_points_in_interval(avcqc, cq_random_capacity(avcqc))


def tangent_hessian_by_differences(branch, q, p, step):
    """Oracle: chi's Hessian on the simplex's tangent, basis e_z - e_last, by central differences.

    chi comes from ``chi_table``, which shares no code with the library.
    """
    n_z = len(p)
    basis = np.eye(n_z)[:, :-1] - np.eye(n_z)[:, -1:]
    signs = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    table = np.empty((n_z - 1, n_z - 1))
    for i in range(n_z - 1):
        for j in range(n_z - 1):
            ps = p + step * (signs[:, :1] * basis[:, i] + signs[:, 1:] * basis[:, j])
            values = chi_table(branch, ps, q[None])[:, 0]
            table[i, j] = (values[0] - values[1] - values[2] + values[3]) / (4.0 * step**2)
    return basis, table


def assert_hessian_matches_differences(branch, q, p):
    out = np.einsum("s,szij->zij", q, branch)
    vals, rotated = capacity._divergences(out, capacity._entropies(out), p)[2:]
    hess = capacity._hessian(vals, rotated)
    assert np.allclose(hess, hess.T, rtol=0.0, atol=1e-12 * np.abs(hess).max())
    basis, table = tangent_hessian_by_differences(branch, q, p, 1e-3 * p.min())
    exact = basis.T @ hess @ basis
    # the differences' rounding and truncation errors are about 5e-7 of the largest entry
    assert np.abs(exact - table).max() <= 1e-5 * np.abs(exact).max()
    return vals


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["random", "pure", "twin-letter"]),
    seed=st.integers(0, 2**16),
    dim=st.integers(2, 3),
    n_z=st.integers(2, 4),
    n_s=st.integers(1, 2),
)
def test_hessian_matches_central_differences(kind, seed, dim, n_z, n_s):
    # a twin letter, or more letters than rho has room for, makes the
    # Hessian singular; it still equals the differences
    rng = rng_for(seed)
    branch = branch_stack(family_of_kind(kind, rng, dim, n_z, n_s))
    p = 0.5 / branch.shape[1] + 0.5 * rng.dirichlet(np.ones(branch.shape[1]))
    assert_hessian_matches_differences(branch, rng.dirichlet(np.ones(branch.shape[0])), p)


def test_hessian_at_a_repeated_eigenvalue():
    # the four BB84 states at equal weights average to I/2 exactly, so every
    # divided difference is the equal-eigenvalue one, 1/lambda
    plus, minus = np.array([1.0, 1.0]) / math.sqrt(2.0), np.array([1.0, -1.0]) / math.sqrt(2.0)
    states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.outer(plus, plus), np.outer(minus, minus)]
    branch = np.array([states], dtype=complex)
    vals = assert_hessian_matches_differences(branch, np.ones(1), np.full(4, 0.25))
    assert vals[0] == vals[1] == 0.5


@pytest.mark.parametrize(
    "kind, dim, n_z, n_s, seed",
    [
        ("orthogonal", 3, 3, 3, 9),
        ("random", 2, 5, 3, 25),
        ("pure", 2, 3, 3, 0),
        ("random", 3, 4, 4, 3),
    ],
)
def test_the_slowest_scan_seeds_certify(kind, dim, n_z, n_s, seed):
    # the slowest seed of each kind in the 160-family scan (kinds x sizes,
    # seeds 0-39); the Blahut-Arimoto tail took 75-105 s on orthogonal seed
    # 9 and still ended above 1e-7
    result = cq_random_capacity(family_of_kind(kind, np.random.default_rng(seed), dim, n_z, n_s))
    assert result.certified_gap <= 1e-7
    assert result.lower_bound <= result.value <= result.upper_bound
    if kind == "orthogonal":
        # every output is a basis state; at the worst q = (1/2, 0, 1/2) the
        # family is a Z channel with crossover 1/2, of capacity log2(5/4)
        assert abs(result.value - math.log2(5.0 / 4.0)) <= 1e-7


@pytest.mark.parametrize(
    "dim, n_z, n_s, seed", [(2, 2, 2, 51), (2, 3, 2, 30), (3, 3, 3, 5), (3, 3, 3, 7)]
)
def test_an_infinite_partial_derivative_does_not_end_the_search(monkeypatch, dim, n_z, n_s, seed):
    # the second query sits at a vertex mixed 1e-9 towards the uniform q, where
    # a W_q(z) eigenvalue of about 5e-13 counts as 0, so there is no cut; the
    # search used to stop there with a gap of 0.07-0.26 bits
    gradient, infinite = capacity._gradient, []

    def counted(*args):
        grad = gradient(*args)
        infinite.append(grad is None)
        return grad

    monkeypatch.setattr(capacity, "_gradient", counted)
    result = cq_random_capacity(family_of_kind("pure", np.random.default_rng(seed), dim, n_z, n_s))
    assert any(infinite)
    assert result.certified_gap <= 1e-7
    assert result.lower_bound <= result.value <= result.upper_bound


def test_a_step_never_makes_a_finite_divergence_infinite():
    # letter 0 alone reaches one basis state, through the 1e-9 mixing towards
    # the uniform q; once p_0 * 3.3e-10 falls to 1e-12 that eigenvalue of rho
    # counts as 0, and a step there would leave no cut and end the search
    # with the interval [0, 0.28]
    family = family_of_kind("orthogonal", np.random.default_rng(10), 3, 3, 3)
    result = cq_random_capacity(family)
    assert result.certified_gap <= 1e-7
    assert result.lower_bound <= result.value <= result.upper_bound


def test_blahut_arimoto_steps_alone_still_certify(monkeypatch):
    # a Newton step that never raises chi leaves every step to the fallback
    monkeypatch.setattr(capacity, "_newton", lambda p, div, hess: (np.zeros_like(p), 1.0))
    rng = rng_for(83)
    avcqc = AvCqc((0, 1), {s: random_branch(rng, letters=(0, 1, 2)) for s in range(2)})
    result = cq_random_capacity(avcqc)
    assert result.certified_gap <= 1e-7
    assert_brackets(branch_stack(avcqc), result, 24)


def cut_table(kind, rng, n_cuts, n_s, scale):
    """A random, integer-valued (ties everywhere), repeated-row or near-tied cut table.

    Near-tied rows differ by 1e-9, so a master that stops at a larger
    reduced cost leaves a gap far above rounding.
    """
    if kind == "random":
        table = rng.normal(size=(n_cuts, n_s))
    elif kind == "integer":
        table = rng.integers(-3, 4, size=(n_cuts, n_s)).astype(float)
    else:
        rows = rng.normal(size=(int(rng.integers(1, 4)), n_s))
        table = rows[rng.integers(0, len(rows), size=n_cuts)]
        if kind == "near-tied":
            table = table + 1e-9 * rng.normal(size=table.shape)
    return scale * table


def assert_master_solves(cuts, q, weights):
    """q and the weights are probability vectors with a duality gap of at most 1e-12 * max|G|."""
    for vec, n in ((q, cuts.shape[1]), (weights, len(cuts))):
        assert vec.shape == (n,) and (vec >= 0.0).all()
        assert abs(vec.sum() - 1.0) <= 1e-12
    assert (cuts @ q).max() - (weights @ cuts).min() <= 1e-12 * np.abs(cuts).max()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["random", "integer", "repeated-row", "near-tied"]),
    seed=st.integers(0, 2**16),
    n_cuts=st.integers(1, 60),
    n_s=st.integers(1, 5),
    scale=st.floats(1e-3, 40.0),
)
def test_master_solves_the_game_to_rounding(kind, seed, n_cuts, n_s, scale):
    cuts = cut_table(kind, rng_for(seed), n_cuts, n_s, scale)
    q, weights, _ = capacity._master(cuts, None)
    assert_master_solves(cuts, q, weights)
    oracle_q, _ = linprog_master(cuts)
    assert abs((cuts @ q).max() - (cuts @ oracle_q).max()) <= 1e-12 * np.abs(cuts).max()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["random", "integer", "repeated-row", "near-tied"]),
    seed=st.integers(0, 2**16),
    n_cuts=st.integers(1, 60),
    n_s=st.integers(1, 5),
    scale=st.floats(1e-3, 40.0),
)
def test_a_warm_master_solves_each_longer_table(kind, seed, n_cuts, n_s, scale):
    # the table grows one row at a time, as Kelley's loop grows it, and each
    # call starts from the last call's basis; about a quarter of the rows are
    # scaled by 4, 16, 64, ... and set a new min or max of G, so the scaling
    # of M changes under a kept basis
    rng = rng_for(seed)
    cuts = cut_table(kind, rng, n_cuts, n_s, scale)
    wide = rng.random(n_cuts) < 0.25
    cuts[wide] *= 4.0 ** np.arange(1, wide.sum() + 1)[:, None]
    basis = None
    for rows in range(1, n_cuts + 1):
        table = cuts[:rows]
        q, weights, basis = capacity._master(table, basis)
        assert_master_solves(table, q, weights)
        cold_q = capacity._master(table, None)[0]
        assert abs((table @ q).max() - (table @ cold_q).max()) <= 1e-12 * np.abs(table).max()


def test_master_at_its_pivot_cap_returns_a_valid_bound(monkeypatch):
    cuts = cut_table("random", rng_for(82), 30, 4, 1.0)
    value = (cuts @ linprog_master(cuts)[0]).max()
    monkeypatch.setattr(capacity, "_MAX_PIVOTS", 1)
    q, weights, _ = capacity._master(cuts, None)
    for vec in (q, weights):
        assert (vec >= 0.0).all() and abs(vec.sum() - 1.0) <= 1e-12
    # one pivot is not optimal here, yet weak duality still brackets the value
    assert (weights @ cuts).min() <= value <= (cuts @ q).max()
    assert (cuts @ q).max() - (weights @ cuts).min() > 1e-3


def test_any_master_output_still_brackets_the_saddle_value(monkeypatch):
    # lower_bound holds for any dual weights and upper_bound at any query, so
    # a master that ignores its cuts only widens the interval
    rng = rng_for(80)
    avcqc = AvCqc((0, 1), {s: random_branch(rng) for s in range(2)})
    draws = rng_for(81)

    def crude_master(cuts, basis):
        q, weights = draws.dirichlet(np.ones(cuts.shape[1])), np.full(len(cuts), 1.0 / len(cuts))
        return q, weights, basis

    monkeypatch.setattr(capacity, "_master", crude_master)
    result = cq_random_capacity(avcqc)
    # the 48-grids make 2500 pairs, so assert_brackets computes the saddle outright
    assert_brackets(branch_stack(avcqc), result, 48)
