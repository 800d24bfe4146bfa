"""Eleven acceptance checks, one test and one printed verdict line each.

Each test prints ``criterion NN: PASS`` after its assertions; a failing
criterion shows up as the corresponding failed test. Timed criteria assert
their stated wall-clock budgets.
"""

import itertools
import math
import time

import numpy as np
import pytest

from avqclab import (
    Avqc,
    AvCqc,
    BipartiteSource,
    CorrelatedCode,
    CqChannel,
    DensityMatrix,
    DeterministicCode,
    Povm,
    PureState,
    RandomCode,
    apply_channel,
    basis_state,
    bit_flip_channel,
    check_symmetrizable,
    check_symmetrizable_pure,
    completely_depolarizing_channel,
    compose_two_phase,
    computational_povm,
    constant_channel,
    cq_random_capacity,
    cr_extractable,
    entanglement_fidelity,
    evaluate_code,
    extend_family,
    holevo_chi,
    maximally_mixed,
    mutual_information,
    permutation_symmetrize,
    phase_flip_channel,
    projective_decoder,
    random_code_reduction,
    symmetrization_residual,
    witsenhausen_binarize,
)

from helpers import (
    per_message_success,
    random_avqc,
    random_channel,
    random_density,
    random_povm,
    rng_for,
)


def report(number, text):
    print(f"criterion {number:02d}: PASS - {text}")


def constant_pair(rng):
    return Avqc(
        (0, 1),
        {
            0: constant_channel(random_density(rng, 2)),
            1: constant_channel(random_density(rng, 2)),
        },
    )


def test_criterion_01_symmetrizability_verdicts_match_grid_oracle():
    rng = rng_for(201)
    started = time.perf_counter()
    qs = np.linspace(0.0, 1.0, 51)
    verdicts = set()
    for case in range(52):
        if case % 2 == 0:
            avqc = Avqc((0, 1), {0: random_channel(rng, 2), 1: random_channel(rng, 2)})
        else:
            avqc = constant_pair(rng)
        probes = [random_density(rng, 2), random_density(rng, 2)]
        verdict = check_symmetrizable(avqc, 1, probes, tol=1e-6)

        images = np.stack(
            [
                np.stack(
                    [
                        np.asarray(apply_channel(avqc.channels[t], p).matrix)
                        for t in (0, 1)
                    ]
                )
                for p in probes
            ]
        )
        lhs = (
            qs[:, None, None] * images[0, 0] + (1 - qs)[:, None, None] * images[0, 1]
        )
        rhs = (
            qs[:, None, None] * images[1, 0] + (1 - qs)[:, None, None] * images[1, 1]
        )
        resid = np.abs(lhs[:, None] - rhs[None, :]).max(axis=(2, 3))
        oracle_feasible = bool(resid.min() <= 1e-6)
        assert verdict.feasible == oracle_feasible, f"disagreement on case {case}"
        verdicts.add(verdict.feasible)
    elapsed = time.perf_counter() - started
    assert verdicts == {True, False}
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f} s"
    report(1, f"52/52 oracle agreements in {elapsed:.2f} s")


def test_criterion_02_convex_extension_keeps_equalities():
    rng = rng_for(202)
    x_gate = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for case in range(20):
        if case % 2 == 0:
            avqc = constant_pair(rng)
            probes = [random_density(rng, 2), random_density(rng, 2)]
            alpha = float(rng.uniform(0.2, 0.8))
            dist = np.array([[alpha, 1 - alpha], [alpha, 1 - alpha]])
        else:
            base = random_channel(rng, 2)
            flipped = tuple(op @ x_gate for op in base.kraus)
            avqc = Avqc((0, 1), {0: base, 1: type(base)(flipped)})
            rho = random_density(rng, 2)
            probes = [rho, DensityMatrix(x_gate @ rho.matrix @ x_gate)]
            dist = np.array([[1.0, 0.0], [0.0, 1.0]])
        verdict = check_symmetrizable(avqc, 1, probes)
        assert verdict.feasible, f"instance {case} unexpectedly infeasible"
        family = type(verdict.witness)(verdict.witness.labels, dist)
        base_res = symmetrization_residual(avqc, 1, probes, family)
        assert base_res <= 1e-12

        mixing = rng.dirichlet(np.ones(2), size=5)
        hull_points = [
            DensityMatrix(
                mixing[i, 0] * probes[0].matrix + mixing[i, 1] * probes[1].matrix
            )
            for i in range(5)
        ]
        extended = extend_family(probes, family, hull_points, mixing)
        residual = symmetrization_residual(avqc, 1, probes + hull_points, extended)
        assert residual <= 1e-9, f"instance {case} residual {residual:.2e}"
    report(2, "20 extended families, all pairwise residuals <= 1e-9")


def test_criterion_03_pure_and_mixed_probe_verdicts_agree():
    rng = rng_for(203)
    tetra_bloch = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    ) / math.sqrt(3)
    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    pures = []
    for n in tetra_bloch:
        mat = (np.eye(2, dtype=complex) + sum(c * p for c, p in zip(n, paulis))) / 2
        vals, vecs = np.linalg.eigh(mat)
        pures.append(PureState(vecs[:, -1]))

    verdicts = set()
    for case in range(20):
        if case % 2 == 0:
            avqc = Avqc((0, 1), {0: random_channel(rng, 2), 1: random_channel(rng, 2)})
        else:
            avqc = constant_pair(rng)
        weights = rng.dirichlet(np.ones(4), size=3)
        mixed = [
            DensityMatrix(
                sum(w[i] * pures[i].to_density().matrix for i in range(4))
            )
            for w in weights
        ]
        v_pure = check_symmetrizable_pure(avqc, 1, pures)
        v_mixed = check_symmetrizable(avqc, 1, mixed)
        assert v_pure.feasible == v_mixed.feasible, f"disagreement on case {case}"
        verdicts.add(v_pure.feasible)
    assert verdicts == {True, False}
    report(3, "20/20 pure-vs-mixed verdict agreements")


def test_criterion_04_constant_pair_caps_success_at_three_quarters():
    rng = rng_for(204)
    avqc = constant_pair(rng)
    for l in (1, 2, 3):
        dim = 2**l
        for _ in range(4):
            words = tuple(random_density(rng, dim) for _ in range(2))
            code = DeterministicCode(l, words, random_povm(rng, dim, 2))
            reportd = evaluate_code(avqc, code, mode="exhaustive")
            assert reportd.avg_success_worst <= 0.75 + 1e-9
    report(4, "12 M=2 codes at l in {1,2,3}, worst success <= 3/4")


def test_criterion_05_permutation_symmetrization_uniformizes():
    rng = rng_for(205)
    configs = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]
    for case in range(20):
        l, n_states = configs[case % len(configs)]
        m = 2 + case % 2
        avqc = random_avqc(rng, 2, n_states)
        dim = 2**l
        words = tuple(random_density(rng, dim) for _ in range(m))
        code = DeterministicCode(l, words, random_povm(rng, dim, m))
        sym = permutation_symmetrize(code)
        for seq in itertools.product(avqc.states, repeat=l):
            before = per_message_success(avqc, code, seq)
            after = per_message_success(avqc, sym, seq)
            assert after.max() - after.min() <= 1e-9
            assert abs(after.mean() - before.mean()) <= 1e-9
    report(5, "20 codes, all sequences: uniform within 1e-9, average preserved")


def test_criterion_06_random_code_reduction_meets_markov_bound():
    started = time.perf_counter()
    l, rate, eps, eps_l_nominal, n_states = 4, 0.5, 0.1, 0.01, 2
    avqc = Avqc(
        (0, 1), {0: bit_flip_channel(0.002), 1: phase_flip_channel(0.002)}
    )
    dim = 2**l
    codeword_idx = (0, 3, 12, 15)
    pures = [basis_state(dim, i) for i in codeword_idx]
    words = tuple(p.to_density() for p in pures)
    good_dec = projective_decoder(pures)
    mediocre_dec = Povm(
        tuple(0.8 * e + 0.05 * np.eye(dim) for e in good_dec.elements)
    )
    good = DeterministicCode(l, words, good_dec)
    mediocre = DeterministicCode(l, words, mediocre_dec)
    mix = RandomCode((good, mediocre), np.array([0.99, 0.01]))

    # the nominal eps_l must dominate the instance's actual worst error
    worst = min(
        per_message_success(avqc, mix, seq).min()
        for seq in itertools.product(avqc.states, repeat=l)
    )
    assert 1.0 - worst <= eps_l_nominal

    exponent = -(160 * (eps - 2 * eps_l_nominal)) + l * (
        rate + eps + math.log2(n_states)
    )
    bound = 1.0 - 2.0**exponent
    trials = 200
    verified_count = 0
    for seed in range(trials):
        _, verified = random_code_reduction(mix, avqc, l, 160, eps, seed=seed)
        verified_count += verified
    fraction = verified_count / trials
    sigma_hat = math.sqrt(fraction * (1.0 - fraction) / trials)
    elapsed = time.perf_counter() - started
    assert fraction >= bound - 3.0 * sigma_hat - 1e-12
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f} s"
    report(
        6,
        f"verified fraction {fraction:.3f} >= bound {bound:.5f} in {elapsed:.1f} s",
    )


def test_criterion_07_extractability_matches_partition_search():
    def brute_force(joint):
        sup_x = [i for i in range(joint.shape[0]) if joint[i].sum() > 0]
        sup_y = [j for j in range(joint.shape[1]) if joint[:, j].sum() > 0]
        for r in range(1, len(sup_x)):
            for a_part in itertools.combinations(sup_x, r):
                a_set = set(a_part)
                b_set = {j for i in a_set for j in sup_y if joint[i, j] > 0}
                rest = [i for i in sup_x if i not in a_set]
                if not any(joint[i, j] > 0 for i in rest for j in b_set):
                    return True
        return False

    checked = 0
    for mask_bits in range(1, 512):
        mask = np.array(
            [(mask_bits >> k) & 1 for k in range(9)], dtype=float
        ).reshape(3, 3)
        joint = mask / mask.sum()
        src = BipartiteSource((0, 1, 2), (0, 1, 2), joint)
        verdict = cr_extractable(src)
        assert verdict.extractable == brute_force(joint), f"mask {mask_bits}"
        if mask_bits == 511:
            assert not verdict.extractable
        checked += 1
    assert checked == 511
    report(7, "511 support patterns, verdicts all match the partition search")


def test_criterion_08_witsenhausen_masses_stay_in_sandwich():
    rng = rng_for(208)
    done = 0
    while done < 100:
        n = int(rng.integers(8, 15))
        raw = rng.random(n) + 0.2
        a = raw / raw.sum()
        b = a * (1.0 + rng.uniform(-0.02, 0.02, size=n))
        b = b / b.sum()
        eps = float(max(a.max(), b.max()) * rng.uniform(1.05, 1.6))
        c = np.minimum(a, b) * rng.uniform(0.97, 1.0, size=n)
        if c.sum() < 1.0 - eps:
            continue
        sigma = float(rng.uniform(0.05, 0.45))
        split = witsenhausen_binarize(a, b, c, sigma=sigma, eps=eps)
        assert sigma <= split.mass_a <= sigma + 2 * eps, f"tuple {done}"
        assert sigma <= split.mass_b <= sigma + 2 * eps, f"tuple {done}"
        done += 1
    report(8, "100 randomized tuples, zero sandwich violations")


def test_criterion_09_capacity_anchors():
    rng = rng_for(209)
    words = (basis_state(2, 0).to_density(), basis_state(2, 1).to_density())
    random_branch = CqChannel(
        (0, 1), {0: random_density(rng, 2), 1: random_density(rng, 2)}
    )
    constant_member = AvCqc(
        (0, 1),
        {
            0: random_branch,
            1: CqChannel((0, 1), {0: maximally_mixed(2), 1: maximally_mixed(2)}),
        },
    )
    singleton = AvCqc((0,), {0: CqChannel((0, 1), {0: words[0], 1: words[1]})})
    swap = AvCqc(
        (0, 1),
        {
            0: CqChannel((0, 1), {0: words[0], 1: words[1]}),
            1: CqChannel((0, 1), {0: words[1], 1: words[0]}),
        },
    )
    timings = []
    for avcqc, check in (
        (constant_member, lambda r: r.value <= 1e-6),
        (singleton, lambda r: abs(r.value - 1.0) <= 1e-3),
        (swap, lambda r: r.value <= 1e-6),
    ):
        started = time.perf_counter()
        result = cq_random_capacity(avcqc)
        elapsed = time.perf_counter() - started
        assert check(result)
        assert elapsed < 5.0, f"anchor took {elapsed:.1f} s"
        timings.append(elapsed)
    report(9, "3 anchors by cutting planes, " + ", ".join(f"{t:.2f} s" for t in timings))


def test_criterion_10_two_phase_composition_bound():
    avqc = Avqc((0, 1), {0: bit_flip_channel(0.05), 1: phase_flip_channel(0.1)})
    src = BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))

    # first phase, two uses: computational codeword on use 1, padding after
    cr_words = tuple(
        DensityMatrix(np.kron(basis_state(2, j).to_density().matrix, np.eye(2) / 2))
        for j in (0, 1)
    )
    cr_povm = Povm(
        tuple(
            np.kron(e, np.eye(2, dtype=complex))
            for e in computational_povm(2).elements
        )
    )
    cr_code_obj = CorrelatedCode(
        2,
        2,
        src,
        {(0,): cr_words, (1,): cr_words},
        {(0,): cr_povm, (1,): cr_povm},
    )
    cr_report = evaluate_code(avqc, cr_code_obj, mode="exhaustive")
    assert cr_report.avg_success_worst == pytest.approx(0.95, abs=1e-9)

    # second phase, three uses: conjugate-basis codeword on use 3, padding after
    plus = PureState(np.array([1.0, 1.0]) / math.sqrt(2))
    minus = PureState(np.array([1.0, -1.0]) / math.sqrt(2))
    pay_words = tuple(
        DensityMatrix(np.kron(s.to_density().matrix, np.eye(4) / 4))
        for s in (plus, minus)
    )
    pay_povm_elems = tuple(
        np.kron(s.to_density().matrix, np.eye(4, dtype=complex)) for s in (plus, minus)
    )
    det_a = DeterministicCode(3, pay_words, Povm(pay_povm_elems))
    det_b = DeterministicCode(
        3, (pay_words[1], pay_words[0]), Povm((pay_povm_elems[1], pay_povm_elems[0]))
    )
    pay_report = evaluate_code(avqc, det_a, mode="exhaustive")
    assert pay_report.avg_success_worst == pytest.approx(0.9, abs=1e-9)

    payload = RandomCode((det_a, det_b), np.array([0.5, 0.5]))
    composed = compose_two_phase(cr_code_obj, payload, 5)
    composed_report = evaluate_code(avqc, composed, mode="exhaustive")
    assert composed_report.avg_success_worst >= 0.85 - 1e-9
    report(
        10,
        f"composed l=5 worst success {composed_report.avg_success_worst:.4f} >= 0.85",
    )


def test_criterion_11_information_measure_anchors():
    plus = PureState(np.array([1.0, 1.0]) / math.sqrt(2))
    cq = CqChannel(
        (0, 1), {0: basis_state(2, 0).to_density(), 1: plus.to_density()}
    )
    chi = holevo_chi([0.5, 0.5], cq)
    assert chi == pytest.approx(0.600876, abs=1e-5)

    src = BipartiteSource((0, 1), (0, 1), np.array([[0.4, 0.1], [0.1, 0.4]]))
    assert mutual_information(src) == pytest.approx(0.27807, abs=1e-5)

    fid = entanglement_fidelity(maximally_mixed(2), completely_depolarizing_channel(2))
    assert fid == pytest.approx(0.25, abs=1e-9)
    report(11, "chi, mutual information, and fidelity anchors all hit")
