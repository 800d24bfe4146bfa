"""Bipartite sources: binary reduction, extractability, binarization, statistics."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avqclab import (
    BipartiteSource,
    BudgetExceeded,
    CrFunctionsPair,
    ValidationError,
    binary_reduction,
    cr_extractable,
    cr_pair_statistics,
    mutual_information,
    witsenhausen_binarize,
)

from helpers import cr_extractability_oracle, rng_for


def brute_force_extractable(joint: np.ndarray) -> bool:
    """Oracle: exists a split of the supported letters with no crossing mass."""
    sup_x = [i for i in range(joint.shape[0]) if joint[i].sum() > 0]
    sup_y = [j for j in range(joint.shape[1]) if joint[:, j].sum() > 0]
    for r in range(1, len(sup_x)):
        for a_part in itertools.combinations(sup_x, r):
            a_set = set(a_part)
            b_set = {j for i in a_set for j in sup_y if joint[i, j] > 0}
            rest = [i for i in sup_x if i not in a_set]
            crossing = any(joint[i, j] > 0 for i in rest for j in b_set)
            if not crossing:
                return True
    return False


class TestBipartiteSource:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            BipartiteSource((0, 1), (0, 1), np.array([[0.6, -0.1], [0.3, 0.2]]))

    def test_rejects_wrong_total(self):
        with pytest.raises(ValidationError):
            BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.1], [0.1, 0.4]]))

    def test_a_huge_block_power_is_rejected_without_forming_it(self):
        # 4**(10**12) is never formed: the test returns only if it is not
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.4, 0.1], [0.1, 0.4]]))
        with pytest.raises(BudgetExceeded, match=r"4\^1000000000000 entries"):
            src.joint_power(10**12)

    def test_a_one_by_one_power_takes_no_kron_steps(self):
        # 1 ** n passes the budget for every n; n - 1 kron steps would never end
        src = BipartiteSource((0,), (0,), np.array([[1.0]]))
        assert src.joint_power(10**12).tolist() == [[1.0]]
        assert src.joint_power(1).tolist() == [[1.0]]


class TestBinaryReduction:
    def test_perfectly_correlated_binary(self):
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))
        red = binary_reduction(src)
        assert red.bits == pytest.approx(1.0, abs=1e-12)
        # the partitions separate the two letters on each side
        assert red.f_table[0] != red.f_table[1]
        assert red.g_table[0] != red.g_table[1]

    def test_product_source_rejected(self):
        src = BipartiteSource((0, 1), (0, 1), np.outer([0.3, 0.7], [0.4, 0.6]))
        with pytest.raises(ValidationError):
            binary_reduction(src)

    def test_uniform_diagonal_three_symbols(self):
        src = BipartiteSource((0, 1, 2), (0, 1, 2), np.eye(3) / 3)
        red = binary_reduction(src)
        assert red.f_table == (1, 0, 0)
        assert red.g_table == (1, 0, 0)
        h_third = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
        assert red.bits == pytest.approx(h_third, abs=1e-4)

    def test_exhaustive_search_oracle(self):
        rng = rng_for(41)
        for _ in range(5):
            joint = rng.random((3, 3)) ** 3
            joint /= joint.sum()
            src = BipartiteSource((0, 1, 2), (0, 1, 2), joint)
            if mutual_information(src) <= 1e-9:
                continue
            red = binary_reduction(src)
            best = 0.0
            for mf in range(1, 7):
                for mg in range(1, 7):
                    f = [(mf >> i) & 1 for i in range(3)]
                    g = [(mg >> j) & 1 for j in range(3)]
                    table = np.zeros((2, 2))
                    for i in range(3):
                        for j in range(3):
                            table[f[i], g[j]] += joint[i, j]
                    best = max(
                        best,
                        mutual_information(
                            BipartiteSource((0, 1), (0, 1), table)
                        ),
                    )
            assert red.bits == pytest.approx(best, abs=1e-9)
            assert red.bits > 0

    def test_positive_information_preserved(self):
        rng = rng_for(42)
        for _ in range(10):
            joint = rng.random((3, 3)) ** 2
            joint /= joint.sum()
            src = BipartiteSource((0, 1, 2), (0, 1, 2), joint)
            if mutual_information(src) > 1e-9:
                assert binary_reduction(src).bits > 0


class TestCrExtractable:
    def test_full_support_not_extractable(self):
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.4, 0.1], [0.1, 0.4]]))
        verdict = cr_extractable(src)
        assert not verdict.extractable
        assert verdict.component_count == 1

    def test_block_diagonal_extractable(self):
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))
        verdict = cr_extractable(src)
        assert verdict.extractable
        assert verdict.component_count == 2
        assert verdict.x_partition is not None

    def test_chain_support_single_component(self):
        joint = np.zeros((2, 2))
        joint[0, 0] = joint[0, 1] = joint[1, 1] = 1 / 3
        src = BipartiteSource((0, 1), (0, 1), joint)
        verdict = cr_extractable(src)
        assert not verdict.extractable
        assert verdict.component_count == 1
        assert brute_force_extractable(joint) is False

    def test_matches_brute_force_on_random_supports(self):
        rng = rng_for(43)
        for _ in range(40):
            shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            mask = rng.random(shape) < 0.5
            if not mask.any():
                continue
            joint = np.where(mask, 1.0, 0.0)
            joint /= joint.sum()
            src = BipartiteSource(
                tuple(range(shape[0])), tuple(range(shape[1])), joint
            )
            assert cr_extractable(src).extractable == brute_force_extractable(joint)

    def test_support_pattern_equivalence(self):
        # masses on a fixed support pattern do not change the verdict
        rng = rng_for(44)
        mask = np.array([[1, 0, 0], [0, 1, 1], [0, 1, 1]], dtype=bool)
        verdicts = []
        for _ in range(5):
            joint = np.where(mask, rng.random(mask.shape) + 0.05, 0.0)
            joint /= joint.sum()
            src = BipartiteSource((0, 1, 2), (0, 1, 2), joint)
            verdicts.append(cr_extractable(src).extractable)
        assert all(verdicts)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n_x=st.integers(1, 6),
    n_y=st.integers(1, 6),
    density=st.floats(0.05, 0.9),
    zero_rows=st.sets(st.integers(0, 5)),
    zero_columns=st.sets(st.integers(0, 5)),
    seed=st.integers(0, 2**16),
)
def test_the_whole_verdict_matches_the_merging_oracle(
    n_x, n_y, density, zero_rows, zero_columns, seed
):
    # count, both partitions and their order, and massless letters in the first block
    rng = rng_for(seed)
    joint = np.where(rng.random((n_x, n_y)) < density, rng.random((n_x, n_y)) + 0.05, 0.0)
    joint[[i for i in zero_rows if i < n_x]] = 0.0
    joint[:, [j for j in zero_columns if j < n_y]] = 0.0
    assume(joint.sum() > 0)
    src = BipartiteSource(
        tuple(f"x{i}" for i in range(n_x)), tuple(range(10, 10 + n_y)), joint / joint.sum()
    )
    assert cr_extractable(src) == cr_extractability_oracle(src)


class TestWitsenhausenBinarize:
    def test_worked_example(self):
        a = b = [0.2] * 5
        c = [0.19] * 5
        split = witsenhausen_binarize(a, b, c, sigma=0.3, eps=0.2)
        assert split.m_hat == 2
        assert split.mass_a == pytest.approx(0.4, abs=1e-12)
        assert split.mass_b == pytest.approx(0.4, abs=1e-12)
        assert 0.3 <= split.mass_a <= 0.3 + 2 * 0.2
        assert split.agreement_lb == pytest.approx(0.8, abs=1e-12)

    def test_uniform_exact_threshold(self):
        for n, sigma in ((10, 0.3), (8, 0.25), (5, 0.4)):
            a = [1.0 / n] * n
            split = witsenhausen_binarize(a, a, a, sigma=sigma, eps=1.0 / n)
            assert split.m_hat == math.ceil(sigma * n)

    def test_mass_violation_rejected(self):
        a = [0.5, 0.5]
        with pytest.raises(ValidationError):
            witsenhausen_binarize(a, a, a, sigma=0.3, eps=0.1)

    def test_masses_always_in_sandwich(self):
        rng = rng_for(45)
        done = 0
        while done < 30:
            n = int(rng.integers(6, 12))
            eps = float(rng.uniform(0.08, 0.2))
            a = rng.random(n)
            a = a / a.sum() * 1.0
            if a.max() > eps:
                continue
            b = np.array(a)
            c = a * rng.uniform(0.85, 1.0, size=n)
            if c.sum() < 1 - eps:
                continue
            sigma = float(rng.uniform(0.1, 0.45))
            split = witsenhausen_binarize(a, b, c, sigma=sigma, eps=eps)
            assert sigma - 1e-9 <= split.mass_a <= sigma + 2 * eps + 1e-9
            assert sigma - 1e-9 <= split.mass_b <= sigma + 2 * eps + 1e-9
            done += 1


class TestCrPairStatistics:
    def test_identity_functions_on_correlated_source(self):
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))
        pair = CrFunctionsPair(
            (0, 1), (0, 1), 1, 2, {(0,): 0, (1,): 1}, {(0,): 0, (1,): 1}
        )
        stats = cr_pair_statistics(src, pair)
        assert np.allclose(stats.a, [0.5, 0.5])
        assert np.allclose(stats.b, [0.5, 0.5])
        assert np.allclose(stats.c, [0.5, 0.5])
        assert stats.agreement == pytest.approx(1.0, abs=1e-12)

    def test_constant_functions(self):
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.4, 0.1], [0.1, 0.4]]))
        pair = CrFunctionsPair(
            (0, 1), (0, 1), 1, 1, {(0,): 0, (1,): 0}, {(0,): 0, (1,): 0}
        )
        stats = cr_pair_statistics(src, pair)
        assert stats.a[0] == pytest.approx(1.0, abs=1e-12)
        assert stats.agreement == pytest.approx(1.0, abs=1e-12)

    def test_parity_agreement(self):
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.4, 0.1], [0.1, 0.4]]))
        f = {seq: (seq[0] + seq[1]) % 2 for seq in itertools.product((0, 1), repeat=2)}
        pair = CrFunctionsPair((0, 1), (0, 1), 2, 2, f, dict(f))
        stats = cr_pair_statistics(src, pair)
        assert stats.agreement == pytest.approx(0.68, abs=1e-12)

    def test_budget_guard(self):
        # each side's 2**11 words pass, but the 4**11 pairs exceed PAIR_ENUM_BUDGET
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.4, 0.1], [0.1, 0.4]]))
        f = {seq: 0 for seq in itertools.product((0, 1), repeat=11)}
        pair = CrFunctionsPair((0, 1), (0, 1), 11, 1, f, dict(f))
        with pytest.raises(BudgetExceeded, match=r"4\^11 entries"):
            cr_pair_statistics(src, pair)

    @pytest.mark.parametrize(
        "f_table, entry",
        [
            # int() would truncate these to the classes 0 and 1
            ({(0,): 0.9, (1,): 1.7}, r"f_table\[\(0,\)\] = 0\.9"),
            ({(0,): 0, (1,): "1"}, r"f_table\[\(1,\)\] = '1'"),
            ({(0,): float("nan"), (1,): 1}, r"f_table\[\(0,\)\] = nan"),
            ({(0,): 0, (1,): True}, r"f_table\[\(1,\)\] = True"),
        ],
        ids=["float", "string", "nan", "bool"],
    )
    def test_function_values_must_be_integers(self, f_table, entry):
        with pytest.raises(ValidationError, match=entry):
            CrFunctionsPair((0, 1), (0, 1), 1, 2, f_table, {(0,): 0, (1,): 1})

    def test_numpy_integer_values_and_count_are_accepted(self):
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))
        table = {(0,): np.int64(0), (1,): np.uint8(1)}
        pair = CrFunctionsPair((0, 1), (0, 1), 1, np.int32(2), table, dict(table))
        assert cr_pair_statistics(src, pair).agreement == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("count", [2.0, "2", True])
    def test_value_count_must_be_an_integer(self, count):
        with pytest.raises(ValidationError, match="value_count"):
            CrFunctionsPair((0, 1), (0, 1), 1, count, {(0,): 0, (1,): 0}, {(0,): 0, (1,): 0})

    @pytest.mark.parametrize(
        "sides, reason",
        [
            (((0, 1), (0,)), "sender domain"),
            (((0,), (0, 1)), "receiver domain"),
            # 1 ** l passes any power budget; the length alone is rejected
            (((0,), (0,)), "length 1000000000000"),
        ],
    )
    def test_a_huge_block_length_is_rejected_without_its_domain(self, sides, reason):
        with pytest.raises(BudgetExceeded, match=reason):
            CrFunctionsPair(*sides, 10**12, 2, {}, {})
