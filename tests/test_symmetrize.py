"""Symmetrizability feasibility programs and the probe-frame machinery."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs
from scipy.optimize._highspy._core import MatrixFormat

from avqclab import (
    Avqc,
    BudgetExceeded,
    DensityMatrix,
    PureState,
    SymmetrizingFamily,
    ValidationError,
    basis_state,
    bit_flip_channel,
    check_symmetrizable,
    check_symmetrizable_pure,
    constant_channel,
    extend_family,
    hermitian_probe_frame,
    identity_channel,
    maximally_mixed,
    symmetrization_residual,
)

import avqclab.symmetrize as symmetrize
from avqclab.config import TOL_FEAS
from helpers import (
    random_avqc,
    random_channel,
    random_density,
    reference_convex_lp,
    reference_pairwise_lp,
    rng_for,
)


def apply_raw(ch, mat):
    return sum(k @ mat @ k.conj().T for k in ch.kraus)


def grid_min_residual(avqc, probes, steps=51):
    """Independent oracle: sweep per-probe mixing weights on a grid.

    Two channels, two probes, l = 1. Families are parameterized by the
    weights (q1, q2) each probe assigns to the first channel.
    """
    s0, s1 = avqc.states
    images = np.stack(
        [
            np.stack(
                [apply_raw(avqc.channels[s], np.asarray(p.matrix)) for s in (s0, s1)]
            )
            for p in probes
        ]
    )
    qs = np.linspace(0.0, 1.0, steps)
    best = np.inf
    for q1 in qs:
        for q2 in qs:
            # probe 0's family weights (q1, 1-q1) act on probe 1's images
            # and vice versa; equality up to tolerance means symmetrizable
            lhs = q2 * images[1][0] + (1 - q2) * images[1][1]
            rhs = q1 * images[0][0] + (1 - q1) * images[0][1]
            best = min(best, float(np.max(np.abs(lhs - rhs))))
    return best


class TestQuantumCheck:
    def test_constant_family_feasible(self):
        rng = rng_for(50)
        sig_a = random_density(rng, 2)
        sig_b = random_density(rng, 2)
        avqc = Avqc(
            (0, 1),
            {0: constant_channel(sig_a), 1: constant_channel(sig_b)},
        )
        probes = [random_density(rng, 2), random_density(rng, 2)]
        verdict = check_symmetrizable(avqc, 1, probes)
        assert verdict.feasible
        assert verdict.residual <= 1e-9
        assert verdict.witness is not None
        assert verdict.witness.distributions.shape == (2, 2)

    def test_singleton_identity_infeasible(self):
        avqc = Avqc((0,), {0: identity_channel(2)})
        probes = [basis_state(2, 0).to_density(), basis_state(2, 1).to_density()]
        verdict = check_symmetrizable(avqc, 1, probes)
        assert not verdict.feasible
        assert verdict.witness is None
        assert verdict.residual == pytest.approx(1.0, abs=1e-7)

    def test_needs_two_probes(self):
        avqc = Avqc((0,), {0: identity_channel(2)})
        with pytest.raises(ValidationError):
            check_symmetrizable(avqc, 1, [maximally_mixed(2)])

    def test_duplicate_probes_flagged(self):
        rng = rng_for(51)
        avqc = random_avqc(rng, 2, 2)
        rho = random_density(rng, 2)
        verdict = check_symmetrizable(avqc, 1, [rho, rho])
        assert (0, 1) in verdict.degenerate_pairs

    def test_grid_oracle_agreement(self):
        rng = rng_for(52)
        for _ in range(6):
            avqc = random_avqc(rng, 2, 2)
            probes = [random_density(rng, 2), random_density(rng, 2)]
            verdict = check_symmetrizable(avqc, 1, probes, tol=1e-7)
            oracle = grid_min_residual(avqc, probes)
            if verdict.feasible:
                assert oracle <= 5e-2
            else:
                # the LP optimum lower-bounds any gridded family
                assert oracle >= verdict.residual - 1e-9

    def test_sequence_budget(self):
        # 2**17 sequences exceed ENUM_BUDGET: rejected before a probe is read
        rng = rng_for(53)
        avqc = random_avqc(rng, 2, 2)
        probes = [random_density(rng, 4), random_density(rng, 4)]
        with pytest.raises(BudgetExceeded, match="2\\^17 words of length 17"):
            check_symmetrizable(avqc, 17, probes)
        with pytest.raises(BudgetExceeded, match="2\\^17 words of length 17"):
            symmetrization_residual(avqc, 17, probes, family=None)

    def test_level_two_constant_family(self):
        rng = rng_for(54)
        avqc = Avqc(
            ("a", "b"),
            {
                "a": constant_channel(random_density(rng, 2)),
                "b": constant_channel(random_density(rng, 2)),
            },
        )
        probes = [random_density(rng, 4), random_density(rng, 4)]
        verdict = check_symmetrizable(avqc, 2, probes)
        assert verdict.feasible
        assert verdict.witness.distributions.shape == (2, 4)
        assert set(verdict.witness.labels) == set(
            itertools.product("ab", repeat=2)
        )

    def test_relabeling_invariance(self):
        rng = rng_for(55)
        for _ in range(4):
            ch_a = random_channel(rng, 2)
            ch_b = random_channel(rng, 2)
            probes = [random_density(rng, 2), random_density(rng, 2)]
            v1 = check_symmetrizable(Avqc((0, 1), {0: ch_a, 1: ch_b}), 1, probes)
            v2 = check_symmetrizable(
                Avqc(("x", "y"), {"x": ch_b, "y": ch_a}), 1, probes
            )
            assert v1.feasible == v2.feasible
            assert v1.residual == pytest.approx(v2.residual, abs=1e-8)

    def test_probe_monotonicity(self):
        # more probes means more constraints: feasibility can only shrink
        rng = rng_for(56)
        for _ in range(6):
            avqc = random_avqc(rng, 2, 2)
            probes = [random_density(rng, 2) for _ in range(3)]
            small = check_symmetrizable(avqc, 1, probes[:2])
            large = check_symmetrizable(avqc, 1, probes)
            if large.feasible:
                assert small.feasible
            assert large.residual >= small.residual - 1e-8

    def test_pure_variant_matches_density_route(self):
        rng = rng_for(57)
        for _ in range(4):
            avqc = random_avqc(rng, 2, 2)
            vecs = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2)]
            pures = [PureState(v / np.linalg.norm(v)) for v in vecs]
            v_pure = check_symmetrizable_pure(avqc, 1, pures)
            v_dens = check_symmetrizable(avqc, 1, [p.to_density() for p in pures])
            assert v_pure.feasible == v_dens.feasible
            assert v_pure.residual == pytest.approx(v_dens.residual, abs=1e-9)


class TestWitnessSoundness:
    def test_witness_residual_by_substitution(self):
        rng = rng_for(58)
        found = 0
        for _ in range(12):
            avqc = Avqc(
                (0, 1),
                {
                    0: constant_channel(random_density(rng, 2)),
                    1: constant_channel(random_density(rng, 2)),
                },
            )
            probes = [random_density(rng, 2) for _ in range(3)]
            verdict = check_symmetrizable(avqc, 1, probes)
            if not verdict.feasible:
                continue
            found += 1
            res = symmetrization_residual(avqc, 1, probes, verdict.witness)
            assert res <= 1e-6
            assert res == pytest.approx(verdict.residual, abs=1e-9)
        assert found >= 10

    def test_residual_label_mismatch(self):
        avqc = Avqc((0, 1), {0: identity_channel(2), 1: identity_channel(2)})
        family = SymmetrizingFamily(((1,), (0,)), np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValidationError):
            symmetrization_residual(avqc, 1, [maximally_mixed(2)] * 2, family)


def kernel_row_verdict(kernels):
    """The one feasibility core on a classical family: images[i, s] = kernels[s][i]."""
    kernels = [np.asarray(k, dtype=float) for k in kernels]
    images = np.stack([[k[i] for k in kernels] for i in range(len(kernels[0]))])
    return symmetrize._pairwise_mixture_feasibility(images, TOL_FEAS)


def cq_output_verdict(outputs):
    """The one feasibility core on a cq family: outputs[s][z] is letter z's state under s."""
    mats = [[rho.matrix for rho in row] for row in outputs]
    images = symmetrize._hvec(np.array(mats).transpose(1, 0, 2, 3))
    return symmetrize._pairwise_mixture_feasibility(images, TOL_FEAS)


class TestClassicalCheck:
    """Classical kernel rows, mixed across inputs, through the feasibility core."""

    def test_complementary_flip_pair_feasible(self):
        kernels = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
        feasible, dist, _ = kernel_row_verdict(kernels)
        assert feasible
        # substitute the witness into the defining cross-mixing equalities
        lhs = sum(dist[1, t] * kernels[t][0] for t in range(2))
        rhs = sum(dist[0, t] * kernels[t][1] for t in range(2))
        assert np.max(np.abs(lhs - rhs)) <= 1e-7

    def test_known_witness_accepted(self):
        # swapping the kernel index with the input reproduces the images
        kernels = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
        _, _, residual = kernel_row_verdict(kernels)
        sigma = np.array([[1.0, 0.0], [0.0, 1.0]])
        lhs = sum(sigma[1, t] * kernels[t][0] for t in range(2))
        rhs = sum(sigma[0, t] * kernels[t][1] for t in range(2))
        assert np.max(np.abs(lhs - rhs)) == 0.0
        assert residual <= 1e-8

    def test_noisy_singleton_infeasible(self):
        feasible, dist, residual = kernel_row_verdict([np.array([[0.9, 0.1], [0.1, 0.9]])])
        assert not feasible and dist is None
        assert residual == pytest.approx(0.8, abs=1e-7)

    def test_uniform_singleton_feasible(self):
        feasible, _, residual = kernel_row_verdict([np.full((2, 2), 0.5)])
        assert feasible
        assert residual <= 1e-9


class TestCqCheck:
    """Classical-quantum outputs, mixed across letters, through the feasibility core."""

    def test_constant_branches_feasible(self):
        rng = rng_for(59)
        rho = random_density(rng, 2)
        tau = random_density(rng, 2)
        feasible, _, _ = cq_output_verdict([[rho, rho], [tau, tau]])
        assert feasible

    def test_singleton_distinct_outputs_infeasible(self):
        ket0, ket1 = basis_state(2, 0).to_density(), basis_state(2, 1).to_density()
        feasible, _, _ = cq_output_verdict([[ket0, ket1]])
        assert not feasible

    def test_swap_pair_matches_grid_oracle(self):
        rng = rng_for(60)
        rho = random_density(rng, 2)
        tau = random_density(rng, 2)
        outputs = [[rho, tau], [tau, rho]]
        feasible, _, residual = cq_output_verdict(outputs)
        assert feasible

        # images[z][s]: letter z's output under member s
        images = [[np.asarray(outputs[s][z].matrix) for s in (0, 1)] for z in (0, 1)]
        qs = np.linspace(0.0, 1.0, 101)
        best = np.inf
        for q1 in qs:
            for q2 in qs:
                lhs = q2 * images[1][0] + (1 - q2) * images[1][1]
                rhs = q1 * images[0][0] + (1 - q1) * images[0][1]
                best = min(best, float(np.max(np.abs(lhs - rhs))))
        assert best <= 1e-9
        assert residual <= 1e-7


class TestExtendFamily:
    def _feasible_instance(self, seed):
        rng = rng_for(seed)
        avqc = Avqc(
            (0, 1),
            {
                0: constant_channel(random_density(rng, 2)),
                1: constant_channel(random_density(rng, 2)),
            },
        )
        probes = [random_density(rng, 2) for _ in range(3)]
        verdict = check_symmetrizable(avqc, 1, probes)
        assert verdict.feasible
        return rng, avqc, probes, verdict

    def test_midpoint_distribution_is_average(self):
        rng, avqc, probes, verdict = self._feasible_instance(62)
        mid = DensityMatrix(0.5 * (probes[0].matrix + probes[1].matrix))
        fam = extend_family(probes, verdict.witness, [mid], [[0.5, 0.5, 0.0]])
        assert fam.index_count == 4
        assert np.allclose(
            fam.distributions[3],
            0.5 * (verdict.witness.distributions[0] + verdict.witness.distributions[1]),
        )
        res = symmetrization_residual(avqc, 1, probes + [mid], fam)
        assert res <= 1e-6

    def test_random_convex_extension_keeps_equalities(self):
        rng, avqc, probes, verdict = self._feasible_instance(64)
        weights = rng.dirichlet(np.ones(3), size=3)
        new = [
            DensityMatrix(sum(w[j] * probes[j].matrix for j in range(3)))
            for w in weights
        ]
        fam = extend_family(probes, verdict.witness, new, weights)
        res = symmetrization_residual(avqc, 1, probes + new, fam)
        assert res <= 1e-9 + verdict.residual

    def test_wrong_representation_rejected(self):
        rng, avqc, probes, verdict = self._feasible_instance(65)
        stranger = random_density(rng, 2)
        with pytest.raises(ValidationError):
            extend_family(probes, verdict.witness, [stranger], [[0.5, 0.5, 0.0]])

    def test_empty_extension_is_identity(self):
        rng, avqc, probes, verdict = self._feasible_instance(66)
        fam = extend_family(probes, verdict.witness, [], np.zeros((0, 3)))
        assert np.allclose(fam.distributions, verdict.witness.distributions)


class TestProbeFrame:
    def test_frame_size_and_hermiticity(self):
        for dim in (2, 3):
            frame = hermitian_probe_frame(dim)
            assert len(frame) == dim * dim
            for op in frame:
                assert np.allclose(op, op.conj().T)
                assert np.trace(op).real == pytest.approx(1.0, abs=1e-12)

    def test_frame_rejects_scalars(self):
        with pytest.raises(ValidationError):
            hermitian_probe_frame(1)

    def test_states_lie_in_frame_hull(self):
        rng = rng_for(67)
        for dim in (2, 3):
            frame = hermitian_probe_frame(dim)
            for _ in range(5):
                rho = random_density(rng, dim)
                res = linprog(method="highs", **reference_convex_lp(rho, frame))
                assert res.status == 0 and res.fun <= 1e-8
                recon = sum(w * op for w, op in zip(res.x[:-1], frame))
                assert np.max(np.abs(recon - rho.matrix)) <= 1e-7

    def test_outside_point_has_no_representation(self):
        frame = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        target = np.diag([2.0, -1.0]).astype(complex)
        res = linprog(method="highs", **reference_convex_lp(target, frame))
        assert res.status == 0 and res.fun > 1e-8


def capture_rounds(monkeypatch) -> list:
    """Spy on each round's solve: (simplex iterations, optimum, the model's LP after run())."""
    rounds = []
    real = symmetrize._min_violation

    def spy(model, *args):
        out = real(model, *args)
        rounds.append((model.getInfo().simplex_iteration_count, out[1], model.getLp()))
        return out

    monkeypatch.setattr(symmetrize, "_min_violation", spy)
    return rounds


def model_dual(lp) -> dict:
    """The ``linprog`` arguments of a HiGHS model whose rows are all at most their upper bounds."""
    assert np.all(np.asarray(lp.row_lower_) == -np.inf)
    matrix = lp.a_matrix_
    assert matrix.format_ == MatrixFormat.kColwise
    return {
        "c": np.asarray(lp.col_cost_),
        "A_ub": sparse.csc_array(
            (np.asarray(matrix.value_), np.asarray(matrix.index_), np.asarray(matrix.start_)),
            shape=(lp.num_row_, lp.num_col_),
        ),
        "b_ub": np.asarray(lp.row_upper_),
        "bounds": np.stack([lp.col_lower_, lp.col_upper_], axis=1),
    }


class TestLpLayout:
    """Each round's HiGHS model is the dual of the reference layout, bit for bit."""

    @staticmethod
    def reference_dual(primal: dict) -> dict:
        """min b_ub.u - b_eq.v, u >= 0 and v free, s.t. [-A_ub^T A_eq^T](u, v) <= c."""
        n_u, n_v = len(primal["b_ub"]), len(primal["b_eq"])
        bounds = np.zeros((n_u + n_v, 2))
        bounds[:, 1] = np.inf
        bounds[n_u:, 0] = -np.inf
        return {
            "c": np.concatenate([primal["b_ub"], -primal["b_eq"]]),
            "A_ub": sparse.csc_array(np.hstack([-primal["A_ub"].T, primal["A_eq"].T])),
            "b_ub": primal["c"],
            "bounds": bounds,
        }

    @staticmethod
    def assert_bits_equal(got: dict, want: dict) -> None:
        assert sorted(got) == sorted(want)
        # HiGHS holds the column starts, row indices and values of the CSC
        matrix, expect = got.pop("A_ub"), want.pop("A_ub")
        assert matrix.shape == expect.shape
        assert np.array_equal(matrix.indptr, expect.indptr)
        assert np.array_equal(matrix.indices, expect.indices)
        assert matrix.data.dtype == expect.data.dtype
        assert matrix.data.tobytes() == expect.data.tobytes()
        for key, expect in want.items():
            arr = np.asarray(got[key])
            assert arr.dtype == expect.dtype and arr.shape == expect.shape, key
            assert arr.tobytes() == expect.tobytes(), key

    def test_pairwise_check(self, monkeypatch):
        # after each run() the model is the reference dual restricted to that
        # round's working rows, which are read back from its columns and only
        # ever grow; the model holds the free columns v first, then the u
        avqc = random_avqc(rng_for(131), 2, 2)
        frame = hermitian_probe_frame(4)
        rounds = capture_rounds(monkeypatch)
        check_symmetrizable(avqc, 2, frame)
        full = reference_pairwise_lp(avqc, 2, frame)
        where = {tuple(row): r for r, row in enumerate(full["A_ub"])}
        assert len(rounds) >= 2
        previous = []
        n_v = len(full["b_eq"])
        for _, _, lp in rounds:
            got = model_dual(lp)
            order = np.r_[n_v : lp.num_col_, :n_v]
            got["c"], got["bounds"] = got["c"][order], got["bounds"][order]
            got["A_ub"] = got["A_ub"][:, order]
            rows = [where[tuple(-col)] for col in got["A_ub"].toarray().T[: lp.num_col_ - n_v]]
            assert rows[: len(previous)] == previous and len(rows) > len(previous)
            previous = rows
            working = dict(full, A_ub=full["A_ub"][rows], b_ub=full["b_ub"][rows])
            self.assert_bits_equal(got, self.reference_dual(working))


def family_case(seed: int, dim: int, l: int, n_states: int, kind: str, probes: str):
    rng = rng_for(seed)
    labels = [f"s{i}" for i in range(n_states)]
    channels = {s: random_channel(rng, dim) for s in labels}
    if kind == "constant":
        # a member that forgets its input makes the family symmetrizable
        channels[labels[0]] = constant_channel(random_density(rng, dim))
    if probes == "frame":
        mats = hermitian_probe_frame(dim**l)
    else:
        mats = [random_density(rng, dim**l) for _ in range(int(rng.integers(2, 5)))]
    return Avqc(tuple(labels), channels), mats


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    # (dim, l, probes); the qutrit frame at l=2 would have 81 probes
    case=st.sampled_from(
        [(2, 1, "frame"), (2, 2, "frame"), (3, 1, "frame"),
         (2, 1, "random"), (2, 2, "random"), (3, 1, "random"), (3, 2, "random")]
    ),
    n_states=st.integers(1, 3),
    kind=st.sampled_from(["random", "constant"]),
)
def test_dual_optimum_matches_reference_primal(seed, case, n_states, kind):
    dim, l, probes = case
    avqc, mats = family_case(seed, dim, l, n_states, kind, probes)
    with pytest.MonkeyPatch.context() as mp:
        rounds = capture_rounds(mp)
        verdict = check_symmetrizable(avqc, l, mats, tol=1e-7)
    optima = [optimum for _, optimum, _ in rounds]
    primal = linprog(method="highs", **reference_pairwise_lp(avqc, l, mats))
    assert primal.status == 0
    assert abs(optima[-1] - primal.fun) <= 1e-9 * max(1.0, abs(primal.fun))
    assert verdict.feasible == (primal.fun <= 1e-7)
    if verdict.feasible:
        assert symmetrization_residual(avqc, l, mats, verdict.witness) == verdict.residual
    else:
        assert verdict.residual == optima[-1]


def test_row_generation_reaches_the_full_optimum(monkeypatch):
    # a random qubit family with three members at l=2 needs four rounds; the
    # first round's optimum, 2.82, is well below the full LP's 3.60
    avqc = random_avqc(rng_for(154), 2, 3)
    frame = hermitian_probe_frame(4)
    solved = []
    real = symmetrize._min_violation
    monkeypatch.setattr(
        symmetrize, "_min_violation", lambda *args: solved.append(real(*args)) or solved[-1]
    )
    verdict = check_symmetrizable(avqc, 2, frame)
    dist, optimum = solved[-1]
    primal = linprog(method="highs", **reference_pairwise_lp(avqc, 2, frame))
    assert abs(optimum - primal.fun) <= 1e-9 * max(1.0, abs(primal.fun))
    # the last witness certifies the optimum: no row exceeds it by more than the allowance
    images = symmetrize._probe_images(avqc, 2, frame)
    assert symmetrize._pairwise_residual(images, dist) <= optimum + 1e-9 * max(1.0, optimum)
    assert not verdict.feasible and verdict.residual == optimum
    assert len(solved) >= 2


def test_rounds_after_the_first_start_from_the_last_basis(monkeypatch):
    # the same family: each later round re-solves the grown model from the
    # last basis, in fewer simplex iterations than a cold solve of its LP
    avqc = random_avqc(rng_for(154), 2, 3)
    frame = hermitian_probe_frame(4)
    rounds = capture_rounds(monkeypatch)
    check_symmetrizable(avqc, 2, frame)
    assert len(rounds) >= 3
    for iterations, _, lp in rounds[1:]:
        cold = linprog(method="highs", **model_dual(lp))
        assert cold.status == 0 and iterations < cold.nit
    primal = linprog(method="highs", **reference_pairwise_lp(avqc, 2, frame))
    assert abs(rounds[-1][1] - primal.fun) <= 1e-9 * max(1.0, abs(primal.fun))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    case=st.sampled_from(
        [(2, 1, "frame"), (2, 2, "frame"), (3, 1, "frame"),
         (2, 1, "random"), (2, 2, "random"), (3, 1, "random")]
    ),
    n_states=st.integers(1, 3),
    kind=st.sampled_from(["random", "constant"]),
    shuffle=st.integers(0, 2**16),
)
def test_verdicts_do_not_depend_on_state_labels_or_probe_order(seed, case, n_states, kind,
                                                               shuffle):
    dim, l, probes = case
    avqc, mats = family_case(seed, dim, l, n_states, kind, probes)
    rng = rng_for(shuffle)
    # new names in a new order, and the probes permuted
    names = {s: f"t{int(k)}" for s, k in zip(avqc.states, rng.permutation(n_states))}
    relabelled = Avqc(
        tuple(names[s] for s in reversed(avqc.states)),
        {names[s]: avqc.channels[s] for s in avqc.states},
    )
    permuted = [mats[int(i)] for i in rng.permutation(len(mats))]
    verdicts = []
    for family, probe_list in ((avqc, mats), (relabelled, permuted)):
        verdict = check_symmetrizable(family, l, probe_list, tol=1e-7)
        if verdict.feasible:
            witness_residual = symmetrization_residual(family, l, probe_list, verdict.witness)
            assert witness_residual == verdict.residual
        verdicts.append(verdict)
    first, second = verdicts
    assert first.feasible == second.feasible
    assert abs(first.residual - second.residual) <= 1e-9


class TestVerdictConsistency:
    def test_optimum_within_tol_with_failing_witness(self, monkeypatch):
        # a solver whose optimum passes while its witness does not
        avqc = Avqc((0,), {0: identity_channel(2)})
        probes = [basis_state(2, 0).to_density(), basis_state(2, 1).to_density()]
        monkeypatch.setattr(symmetrize, "_min_violation", lambda *args: (np.ones((2, 1)), 0.0))
        verdict = check_symmetrizable(avqc, 1, probes, tol=1e-7)
        assert not verdict.feasible and verdict.witness is None
        # the witness's re-verified violation, not the optimum, is reported
        assert verdict.residual == pytest.approx(1.0, abs=1e-12)
        assert verdict.residual > 1e-7

    def test_negative_optimum_clamped(self, monkeypatch):
        class Shifted(highs._Highs):
            def getObjectiveValue(self):
                return 5.3e-14  # a dual optimum just above zero: t = -5.3e-14

        monkeypatch.setattr(highs, "_Highs", Shifted)
        rounds = capture_rounds(monkeypatch)
        # one zero row over two groups of two: the optimum is t = 0
        symmetrize._pairwise_mixture_feasibility(np.zeros((2, 2, 1)), 1e-7)
        [(_, optimum, _)] = rounds
        assert optimum == 0.0 and str(optimum) == "0.0"


class TestLevelThree:
    def test_identity_and_bit_flip_with_the_frame(self):
        # 64 probes and 8 sequences: 258048 primal rows, 4.4M nonzeros
        avqc = Avqc(("i", "x"), {"i": identity_channel(2), "x": bit_flip_channel(0.25)})
        verdict = check_symmetrizable(avqc, 3, hermitian_probe_frame(8))
        assert not verdict.feasible and verdict.witness is None
        assert verdict.residual == pytest.approx(79.54951288348659, abs=1e-9)

    def test_nonzero_budget_rejects_before_building(self):
        # four members at l=3: 258048 rows of 129 entries, 33M nonzeros
        avqc = random_avqc(rng_for(141), 2, 4)
        frame = hermitian_probe_frame(8)
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="nonzeros"):
            check_symmetrizable(avqc, 3, frame)
        assert time.perf_counter() - t0 < 0.05

    def test_core_budget_on_images(self):
        # the core checks its budget on the images alone, before any LP is built
        images = np.broadcast_to(0.0, (200, 64, 64))
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            symmetrize._pairwise_mixture_feasibility(images, 1e-7)
        assert time.perf_counter() - t0 < 0.05


class TestFamilyValidation:
    def test_row_sum_enforced(self):
        with pytest.raises(ValidationError):
            SymmetrizingFamily(((0,), (1,)), np.array([[0.6, 0.6]]))

    def test_negative_probability(self):
        with pytest.raises(ValidationError):
            SymmetrizingFamily(((0,), (1,)), np.array([[1.2, -0.2]]))

    def test_shape_guard(self):
        with pytest.raises(Exception):
            SymmetrizingFamily(((0,),), np.array([0.5, 0.5]))
