"""Codes, worst-case evaluation, and the three code transformations."""

import itertools
import math
import time

import numpy as np
import pytest

from avqclab import (
    Avqc,
    BipartiteSource,
    BudgetExceeded,
    CorrelatedCode,
    CorrelatedEntanglementCode,
    DensityMatrix,
    DeterministicCode,
    DimensionMismatch,
    Povm,
    PureState,
    QuantumChannel,
    RandomCode,
    ValidationError,
    basis_state,
    bit_flip_channel,
    completely_depolarizing_channel,
    compose_two_phase,
    compose_two_phase_entanglement,
    computational_povm,
    constant_channel,
    entanglement_fidelity,
    evaluate_code,
    evaluate_entanglement_code,
    identity_channel,
    maximally_mixed,
    permutation_symmetrize,
    phase_flip_channel,
    projective_decoder,
    random_code_reduction,
)

from avqclab.config import ENUM_BUDGET, EXHAUSTIVE_BUDGET

from helpers import (
    per_message_success,
    random_avqc,
    random_density,
    random_povm,
    rng_for,
    tensor_channel,
)

COMP_WORDS = (basis_state(2, 0).to_density(), basis_state(2, 1).to_density())
COMP_POVM = computational_povm(2)
CORRELATED_SRC = BipartiteSource(
    (0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]])
)


def computational_code(l=1):
    if l == 1:
        return DeterministicCode(1, COMP_WORDS, COMP_POVM)
    dim = 2**l
    words = tuple(basis_state(dim, i).to_density() for i in (0, dim - 1))
    decoder = projective_decoder((basis_state(dim, 0), basis_state(dim, dim - 1)))
    return DeterministicCode(l, words, decoder)


def useless_code():
    half = (np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2)
    return DeterministicCode(1, COMP_WORDS, Povm(half))


class TestProjectiveDecoder:
    def test_orthonormal_basis_exact(self):
        povm = projective_decoder((basis_state(2, 0), basis_state(2, 1)))
        assert np.allclose(povm.elements[0], np.diag([1.0, 0.0]))
        assert np.allclose(povm.elements[1], np.diag([0.0, 1.0]))

    def test_leftover_absorbed(self):
        povm = projective_decoder((basis_state(3, 0), basis_state(3, 1)))
        assert np.allclose(povm.elements[0], np.diag([1.0, 0.0, 1.0]))
        assert np.allclose(povm.elements[1], np.diag([0.0, 1.0, 0.0]))

    def test_overcomplete_rejected(self):
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
        with pytest.raises(ValidationError):
            projective_decoder((basis_state(2, 0), basis_state(2, 1), plus))


class TestEvaluateCode:
    def test_identity_orthogonal_code_perfect(self):
        avqc = Avqc((0,), {0: identity_channel(2)})
        report = evaluate_code(avqc, computational_code())
        assert report.avg_success_worst == pytest.approx(1.0, abs=1e-12)
        assert report.max_error_worst == pytest.approx(0.0, abs=1e-12)
        assert report.worst_state_seq == (0,)
        assert report.method == "exhaustive"

    def test_constant_family_bounds_any_code(self):
        rng = rng_for(80)
        avqc = Avqc(
            (0, 1),
            {
                0: constant_channel(random_density(rng, 2)),
                1: constant_channel(random_density(rng, 2)),
            },
        )
        for m in (2, 3):
            for _ in range(3):
                dim = 4
                words = tuple(random_density(rng, dim) for _ in range(m))
                code = DeterministicCode(2, words, random_povm(rng, dim, m))
                report = evaluate_code(avqc, code)
                assert report.avg_success_worst <= 0.75 + 1e-9

    def test_depolarizing_half(self):
        avqc = Avqc((0,), {0: completely_depolarizing_channel(2)})
        report = evaluate_code(avqc, computational_code())
        assert report.avg_success_worst == pytest.approx(0.5, abs=1e-12)

    def test_worst_sequence_attains_reported_optimum(self):
        rng = rng_for(81)
        avqc = random_avqc(rng, 2, 2)
        words = tuple(random_density(rng, 4) for _ in range(2))
        code = DeterministicCode(2, words, random_povm(rng, 4, 2))
        report = evaluate_code(avqc, code)
        direct = per_message_success(avqc, code, report.worst_state_seq)
        assert float(direct.mean()) == pytest.approx(
            report.avg_success_worst, abs=1e-12
        )

    def test_greedy_never_reports_worse_than_truth(self):
        rng = rng_for(82)
        for _ in range(5):
            avqc = random_avqc(rng, 2, 2)
            words = tuple(random_density(rng, 4) for _ in range(2))
            code = DeterministicCode(2, words, random_povm(rng, 4, 2))
            exact = evaluate_code(avqc, code, mode="exhaustive")
            greedy = evaluate_code(avqc, code, mode="greedy")
            assert greedy.method == "greedy"
            assert greedy.avg_success_worst >= exact.avg_success_worst - 1e-12

    def test_max_error_dominates_average_error(self):
        rng = rng_for(83)
        for _ in range(5):
            avqc = random_avqc(rng, 2, 2)
            words = tuple(random_density(rng, 2) for _ in range(3))
            code = DeterministicCode(1, words, random_povm(rng, 2, 3))
            report = evaluate_code(avqc, code)
            assert report.max_error_worst >= 1.0 - report.avg_success_worst - 1e-12

    def test_auto_falls_back_to_greedy(self):
        # 9**4 = 6,561 sequences exceed EXHAUSTIVE_BUDGET; 8**4 = 4,096 do not
        code = computational_code(4)
        for members, method in ((9, "greedy"), (8, "exhaustive")):
            labels = tuple(range(members))
            avqc = Avqc(labels, {s: bit_flip_channel(s / 16) for s in labels})
            assert evaluate_code(avqc, code).method == method

    def test_auto_mode_chooses_within_what_exhaustive_scoring_may_list(self):
        # auto mode's exhaustive choice needs no cap of its own on top of its threshold
        assert EXHAUSTIVE_BUDGET < ENUM_BUDGET

    def test_random_code_mixture(self):
        avqc = Avqc((0,), {0: identity_channel(2)})
        mix = RandomCode(
            (computational_code(), useless_code()), np.array([0.5, 0.5])
        )
        report = evaluate_code(avqc, mix)
        assert report.avg_success_worst == pytest.approx(0.75, abs=1e-12)

    def test_correlated_code_observation_masking(self):
        # encoder shifts the basis by x, decoder unshifts by y: success is
        # exactly the probability that the observations agree
        shifted = {
            0: (COMP_WORDS, COMP_POVM),
            1: (
                (COMP_WORDS[1], COMP_WORDS[0]),
                Povm((COMP_POVM.elements[1], COMP_POVM.elements[0])),
            ),
        }
        src = BipartiteSource(
            (0, 1), (0, 1), np.array([[0.45, 0.05], [0.05, 0.45]])
        )
        code = CorrelatedCode(
            1,
            1,
            src,
            {(x,): shifted[x][0] for x in (0, 1)},
            {(y,): shifted[y][1] for y in (0, 1)},
        )
        report = evaluate_code(Avqc((0,), {0: identity_channel(2)}), code)
        assert report.avg_success_worst == pytest.approx(0.9, abs=1e-12)
        assert report.max_error_worst == pytest.approx(0.1, abs=1e-12)

    def test_dimension_mismatch(self):
        avqc = Avqc((0,), {0: identity_channel(2)})
        words = (
            basis_state(3, 0).to_density(),
            basis_state(3, 1).to_density(),
        )
        decoder = Povm(
            (
                np.diag([1.0, 0.0, 0.0]).astype(complex),
                np.diag([0.0, 1.0, 1.0]).astype(complex),
            )
        )
        code = DeterministicCode(1, words, decoder)
        with pytest.raises(DimensionMismatch):
            evaluate_code(avqc, code)

    def test_mode_validation(self):
        avqc = Avqc((0,), {0: identity_channel(2)})
        with pytest.raises(ValidationError):
            evaluate_code(avqc, computational_code(), mode="simulated-annealing")


class TestPermutationSymmetrize:
    def test_single_message_unchanged(self):
        word = (maximally_mixed(2),)
        code = DeterministicCode(1, word, Povm((np.eye(2, dtype=complex),)))
        sym = permutation_symmetrize(code)
        assert len(sym.support) == 1
        assert sym.weights[0] == pytest.approx(1.0)

    def test_two_message_average(self):
        # per-message successes (1.0, 0.6) flatten to (0.8, 0.8)
        rho1 = DensityMatrix(np.diag([0.4, 0.6]))
        code = DeterministicCode(1, (COMP_WORDS[0], rho1), COMP_POVM)
        avqc = Avqc((0,), {0: identity_channel(2)})
        base = per_message_success(avqc, code, (0,))
        assert np.allclose(base, [1.0, 0.6])
        sym = permutation_symmetrize(code)
        assert len(sym.support) == 2
        flat = per_message_success(avqc, sym, (0,))
        assert np.allclose(flat, [0.8, 0.8], atol=1e-12)

    def test_uniformity_and_average_preservation(self):
        rng = rng_for(84)
        for _ in range(4):
            avqc = random_avqc(rng, 2, 2)
            words = tuple(random_density(rng, 2) for _ in range(3))
            code = DeterministicCode(1, words, random_povm(rng, 2, 3))
            sym = permutation_symmetrize(code)
            assert len(sym.support) == math.factorial(3)
            for seq in itertools.product(avqc.states, repeat=1):
                before = per_message_success(avqc, code, seq)
                after = per_message_success(avqc, sym, seq)
                assert after.max() - after.min() <= 1e-9
                assert after.mean() == pytest.approx(before.mean(), abs=1e-9)

    def test_max_error_equals_one_minus_average(self):
        rng = rng_for(85)
        avqc = random_avqc(rng, 2, 2)
        words = tuple(random_density(rng, 2) for _ in range(2))
        code = DeterministicCode(1, words, random_povm(rng, 2, 2))
        sym = permutation_symmetrize(code)
        report = evaluate_code(avqc, sym)
        assert report.max_error_worst == pytest.approx(
            1.0 - report.avg_success_worst, abs=1e-9
        )

    def test_exact_mode_budget(self):
        # 7! = 5,040 permuted codes exceed EXHAUSTIVE_BUDGET; 6! = 720 do not
        rng = rng_for(86)
        words = tuple(random_density(rng, 2) for _ in range(7))
        code = DeterministicCode(1, words, random_povm(rng, 2, 7))
        with pytest.raises(BudgetExceeded, match="5040 permuted codes exceed budget 4096"):
            permutation_symmetrize(code)
        six = DeterministicCode(1, words[:6], random_povm(rng, 2, 6))
        assert len(permutation_symmetrize(six).support) == 720

    def test_sample_mode_deterministic_and_near_uniform(self):
        rng = rng_for(87)
        words = tuple(random_density(rng, 2) for _ in range(3))
        code = DeterministicCode(1, words, random_povm(rng, 2, 3))
        avqc = Avqc((0,), {0: identity_channel(2)})
        sym1 = permutation_symmetrize(code, mode="sample", sample_count=200, seed=9)
        sym2 = permutation_symmetrize(code, mode="sample", sample_count=200, seed=9)
        succ1 = per_message_success(avqc, sym1, (0,))
        succ2 = per_message_success(avqc, sym2, (0,))
        assert np.allclose(succ1, succ2)
        base = per_message_success(avqc, code, (0,))
        assert succ1.max() - succ1.min() <= 0.15
        assert succ1.mean() == pytest.approx(base.mean(), abs=0.05)

    def test_sample_mode_needs_count(self):
        code = computational_code()
        with pytest.raises(ValidationError):
            permutation_symmetrize(code, mode="sample")

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            permutation_symmetrize(computational_code(), mode="shuffle")


class TestRandomCodeReduction:
    def test_perfect_deterministic_input(self):
        avqc = Avqc((0,), {0: identity_channel(2)})
        code = RandomCode((computational_code(),), np.array([1.0]))
        sampled, verified = random_code_reduction(code, avqc, 1, 5, 0.1, seed=1)
        assert verified
        assert len(sampled) == 5
        assert all(det is code.support[0] for det in sampled)

    def test_margin_precondition(self):
        avqc = Avqc((0,), {0: identity_channel(2)})
        mix = RandomCode(
            (computational_code(), useless_code()), np.array([0.5, 0.5])
        )
        # eps_l = 0.25, so any eps at or below 0.5 has no guarantee
        with pytest.raises(ValidationError):
            random_code_reduction(mix, avqc, 1, 4, 0.4, seed=0)

    def test_fifty_fifty_toy_against_enumeration(self):
        avqc = Avqc((0,), {0: identity_channel(2)})
        perfect, useless = computational_code(), useless_code()
        mix = RandomCode((perfect, useless), np.array([0.5, 0.5]))
        for seed in range(30):
            sampled, verified = random_code_reduction(
                mix, avqc, 1, 4, 0.6, seed=seed
            )
            # direct recomputation of the sampled-mixture criterion
            table = np.stack(
                [per_message_success(avqc, det, (0,)) for det in sampled]
            )
            oracle = bool(table.mean(axis=0).min() >= 1 - 0.6 - 1e-12)
            assert verified == oracle
            # a perfect-code fraction of 2/3 or more always verifies
            frac = sum(det is perfect for det in sampled) / 4
            if frac >= 2 / 3:
                assert verified
            # here even all-useless samples pass: min mean is 0.5 >= 0.4
            assert verified

    def test_tight_margin_can_fail_and_matches_oracle(self):
        avqc = Avqc((0,), {0: identity_channel(2)})
        perfect, useless = computational_code(), useless_code()
        mix = RandomCode((perfect, useless), np.array([0.9, 0.1]))
        # eps_l = 0.05; eps = 0.11 verifies only all-perfect samples
        outcomes = set()
        for seed in range(60):
            sampled, verified = random_code_reduction(
                mix, avqc, 1, 4, 0.11, seed=seed
            )
            table = np.stack(
                [per_message_success(avqc, det, (0,)) for det in sampled]
            )
            oracle = bool(table.mean(axis=0).min() >= 1 - 0.11 - 1e-12)
            assert verified == oracle
            assert verified == all(det is perfect for det in sampled)
            outcomes.add(verified)
        assert outcomes == {True, False}

    def test_seed_determinism(self):
        avqc = Avqc((0,), {0: identity_channel(2)})
        mix = RandomCode(
            (computational_code(), useless_code()), np.array([0.5, 0.5])
        )
        a1, v1 = random_code_reduction(mix, avqc, 1, 6, 0.6, seed=123)
        a2, v2 = random_code_reduction(mix, avqc, 1, 6, 0.6, seed=123)
        assert v1 == v2
        assert all(x is y for x, y in zip(a1, a2))

    def test_argument_validation(self):
        avqc = Avqc((0,), {0: identity_channel(2)})
        code = RandomCode((computational_code(),), np.array([1.0]))
        with pytest.raises(DimensionMismatch):
            random_code_reduction(code, avqc, 2, 4, 0.1, seed=0)
        with pytest.raises(ValidationError):
            random_code_reduction(code, avqc, 1, 0, 0.1, seed=0)
        with pytest.raises(ValidationError):
            random_code_reduction(code, avqc, 1, 4, 1.5, seed=0)

    def test_sequences_past_the_cap_are_rejected_at_once(self):
        # 65 members over 2 uses: 4,225 sequences, past EXHAUSTIVE_BUDGET;
        # no support code is scored
        labels = tuple(range(65))
        avqc = Avqc(labels, {s: identity_channel(2) for s in labels})
        code = RandomCode((computational_code(2),), np.array([1.0]))
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="65\\^2 words of length 2 exceed budget 4096"):
            random_code_reduction(code, avqc, 2, 4, 0.1, seed=0)
        assert time.perf_counter() - t0 < 0.05


def basic_cr_code():
    return CorrelatedCode(
        1,
        1,
        CORRELATED_SRC,
        {(0,): COMP_WORDS, (1,): COMP_WORDS},
        {(0,): COMP_POVM, (1,): COMP_POVM},
    )


def swap_pair_payload():
    det_a = DeterministicCode(1, COMP_WORDS, COMP_POVM)
    det_b = DeterministicCode(
        1,
        (COMP_WORDS[1], COMP_WORDS[0]),
        Povm((COMP_POVM.elements[1], COMP_POVM.elements[0])),
    )
    return RandomCode((det_a, det_b), np.array([0.5, 0.5]))


class TestComposeTwoPhase:
    def test_perfect_phases_compose_perfectly(self):
        composed = compose_two_phase(basic_cr_code(), swap_pair_payload(), 2)
        avqc = Avqc(("u", "v"), {"u": identity_channel(2), "v": identity_channel(2)})
        report = evaluate_code(avqc, composed)
        assert report.avg_success_worst == pytest.approx(1.0, abs=1e-12)
        assert report.max_error_worst == pytest.approx(0.0, abs=1e-9)

    def test_index_error_cross_term(self):
        # bit flips hit both the index transmission and the payload: the
        # composed success is right-index + wrong-index contributions
        avqc = Avqc((0, 1), {0: bit_flip_channel(0.2), 1: identity_channel(2)})
        composed = compose_two_phase(basic_cr_code(), swap_pair_payload(), 2)
        report = evaluate_code(avqc, composed)
        assert report.avg_success_worst == pytest.approx(
            0.8 * 0.8 + 0.2 * 0.2, abs=1e-12
        )

    def test_chained_bound_engineered_phases(self):
        avqc = Avqc(
            (0, 1), {0: bit_flip_channel(0.05), 1: phase_flip_channel(0.1)}
        )
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
        minus = PureState(np.array([1.0, -1.0]) / np.sqrt(2))
        det = DeterministicCode(
            1,
            (plus.to_density(), minus.to_density()),
            projective_decoder((plus, minus)),
        )
        payload = RandomCode((det, det), np.array([0.5, 0.5]))
        cr = basic_cr_code()
        cr_worst = evaluate_code(avqc, cr).avg_success_worst
        pay_worst = evaluate_code(
            avqc, RandomCode((det,), np.array([1.0]))
        ).avg_success_worst
        assert cr_worst == pytest.approx(0.95, abs=1e-12)
        assert pay_worst == pytest.approx(0.9, abs=1e-12)
        composed = compose_two_phase(cr, payload, 2)
        report = evaluate_code(avqc, composed)
        assert report.avg_success_worst >= cr_worst + pay_worst - 1.0 - 1e-9

    def test_leftover_index_outcomes(self):
        # a three-message cr phase carrying a two-code payload still yields
        # a complete decoder; the perfect instance stays perfect
        words3 = tuple(basis_state(3, i).to_density() for i in range(3))
        cr = CorrelatedCode(
            1,
            1,
            CORRELATED_SRC,
            {(0,): words3, (1,): words3},
            {(0,): computational_povm(3), (1,): computational_povm(3)},
        )
        composed = compose_two_phase(cr, swap_pair_payload(), 2)
        avqc = Avqc((0,), {0: identity_channel(3)})
        # mixed input dims: index block is a qutrit, payload a qubit
        with pytest.raises(DimensionMismatch):
            evaluate_code(avqc, composed)
        qubit_avqc = Avqc((0,), {0: identity_channel(2)})
        with pytest.raises(DimensionMismatch):
            evaluate_code(qubit_avqc, composed)

    def test_arity_checks(self):
        with pytest.raises(DimensionMismatch):
            compose_two_phase(basic_cr_code(), swap_pair_payload(), 5)
        lopsided = RandomCode(
            swap_pair_payload().support, np.array([0.9, 0.1])
        )
        with pytest.raises(ValidationError):
            compose_two_phase(basic_cr_code(), lopsided, 2)

    def test_cr_message_capacity_check(self):
        det = DeterministicCode(1, COMP_WORDS, COMP_POVM)
        wide = RandomCode((det, det, det), np.full(3, 1 / 3))
        with pytest.raises(ValidationError):
            compose_two_phase(basic_cr_code(), wide, 2)


class TestComposeTwoPhaseEntanglement:
    def test_identity_blocks_perfect(self):
        blocks = [(identity_channel(2), identity_channel(2))] * 2
        ent = compose_two_phase_entanglement(basic_cr_code(), blocks, 2)
        avqc = Avqc((0,), {0: identity_channel(2)})
        report = evaluate_entanglement_code(avqc, ent)
        assert report.worst_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_index_error_cross_term(self):
        x_gate = QuantumChannel((np.array([[0.0, 1.0], [1.0, 0.0]]),))
        blocks = [(identity_channel(2), identity_channel(2)), (x_gate, x_gate)]
        ent = compose_two_phase_entanglement(basic_cr_code(), blocks, 2)
        avqc = Avqc((0, 1), {0: bit_flip_channel(0.2), 1: identity_channel(2)})
        report = evaluate_entanglement_code(avqc, ent)
        assert report.worst_fidelity == pytest.approx(0.68, abs=1e-9)

    def test_product_block_fidelity_factorizes(self):
        unit = tensor_channel([identity_channel(2), identity_channel(2)])
        ent = compose_two_phase_entanglement(basic_cr_code(), [(unit, unit)] * 2, 3)
        avqc = Avqc((0,), {0: bit_flip_channel(0.2)})
        report = evaluate_entanglement_code(avqc, ent)
        f_unit = entanglement_fidelity(maximally_mixed(2), bit_flip_channel(0.2))
        assert report.worst_fidelity == pytest.approx(f_unit * f_unit, abs=1e-9)

    def test_chained_bound(self):
        avqc = Avqc(
            (0, 1), {0: bit_flip_channel(0.05), 1: phase_flip_channel(0.1)}
        )
        blocks = [(identity_channel(2), identity_channel(2))] * 2
        ent = compose_two_phase_entanglement(basic_cr_code(), blocks, 2)
        report = evaluate_entanglement_code(avqc, ent)
        # cr worst success 0.95, identity-block worst fidelity 0.9
        assert report.worst_fidelity >= 0.85 - 1e-9

    def test_block_dim_checks(self):
        blocks = [
            (identity_channel(2), identity_channel(2)),
            (identity_channel(3), identity_channel(3)),
        ]
        with pytest.raises(DimensionMismatch):
            compose_two_phase_entanglement(basic_cr_code(), blocks, 2)
        with pytest.raises(ValidationError):
            compose_two_phase_entanglement(basic_cr_code(), [], 2)

    def test_a_huge_block_length_fails_on_its_dimensions(self):
        # one member passes the sequence count at any l, so the length half of
        # the word rule rejects l before the dimensions are checked;
        # 2**(10**12) is never formed
        source = BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))
        ent = CorrelatedEntanglementCode(
            10**12, 10**12, source, 2,
            {(x,): identity_channel(2) for x in (0, 1)},
            {(y,): identity_channel(2) for y in (0, 1)},
        )
        with pytest.raises(BudgetExceeded, match="length 1000000000000"):
            evaluate_entanglement_code(Avqc((0,), {0: identity_channel(2)}), ent)

    def test_observation_space_budget(self):
        # 2 letters over 17 samples: 131,072 observation sequences
        blocks = [(identity_channel(2), identity_channel(2))] * 2
        with pytest.raises(BudgetExceeded):
            compose_two_phase_entanglement(basic_cr_code(), blocks, 17)

    def test_constructor_budget_before_enumeration(self):
        # 2 letters over 18 samples: 262,144 sequences, rejected before any
        # of them is built, as CorrelatedCode does
        for cls, extra in ((CorrelatedCode, ()), (CorrelatedEntanglementCode, (2,))):
            t0 = time.perf_counter()
            with pytest.raises(BudgetExceeded):
                cls(18, 1, CORRELATED_SRC, *extra, {}, {})
            assert time.perf_counter() - t0 < 0.05

    def test_budget_guard(self):
        # 65 members over 2 uses: 4,225 sequences, past EXHAUSTIVE_BUDGET
        blocks = [(identity_channel(2), identity_channel(2))] * 2
        ent = compose_two_phase_entanglement(basic_cr_code(), blocks, 2)
        labels = tuple(range(65))
        avqc = Avqc(labels, {s: bit_flip_channel(s / 128) for s in labels})
        with pytest.raises(BudgetExceeded, match="65\\^2 words of length 2 exceed budget 4096"):
            evaluate_entanglement_code(avqc, ent)


class TestCodeValidation:
    def test_deterministic_code_shape_checks(self):
        one_outcome = Povm((np.eye(2, dtype=complex),))
        with pytest.raises(DimensionMismatch):
            DeterministicCode(1, COMP_WORDS, one_outcome)
        with pytest.raises(ValidationError):
            DeterministicCode(0, COMP_WORDS, COMP_POVM)

    def test_random_code_weight_checks(self):
        det = computational_code()
        with pytest.raises(ValidationError):
            RandomCode((det, det), np.array([0.7, 0.7]))
        with pytest.raises(ValidationError):
            RandomCode((), np.array([]))

    def test_random_code_mixed_shapes(self):
        det1 = computational_code()
        det3 = DeterministicCode(
            1,
            tuple(basis_state(3, i).to_density() for i in range(2)),
            projective_decoder((basis_state(3, 0), basis_state(3, 1))),
        )
        with pytest.raises(ValidationError):
            RandomCode((det1, det3), np.array([0.5, 0.5]))

    def test_correlated_code_key_coverage(self):
        with pytest.raises(ValidationError):
            CorrelatedCode(
                1,
                1,
                CORRELATED_SRC,
                {(0,): COMP_WORDS},
                {(0,): COMP_POVM, (1,): COMP_POVM},
            )
