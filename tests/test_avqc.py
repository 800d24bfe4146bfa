"""Channel families, products, the flagged cq construction, classical reduction."""

import itertools
import math

import numpy as np
import pytest

from avqclab import (
    Avqc,
    AvCqc,
    BipartiteSource,
    BudgetExceeded,
    ClassicalAvc,
    CqChannel,
    DimensionMismatch,
    ValidationError,
    apply_channel,
    basis_state,
    bit_flip_channel,
    build_associated_avcqc,
    completely_depolarizing_channel,
    computational_povm,
    identity_channel,
    maximally_mixed,
    product_avqc,
    reduce_to_classical,
    reduce_to_classical_weighted,
)

from avqclab.util import power_exceeds

from helpers import apply_channel_to_slot, random_channel, random_density, random_povm, rng_for

KET0 = basis_state(2, 0).to_density()
KET1 = basis_state(2, 1).to_density()


def two_family():
    return Avqc(
        ("i", "d"),
        {"i": identity_channel(2), "d": completely_depolarizing_channel(2)},
    )


class TestAvqcValidation:
    def test_requires_common_dims(self):
        with pytest.raises(DimensionMismatch):
            Avqc(("a", "b"), {"a": identity_channel(2), "b": identity_channel(3)})

    def test_rejects_missing_channel(self):
        with pytest.raises(ValidationError):
            Avqc(("a", "b"), {"a": identity_channel(2)})

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            Avqc(("a", "a"), {"a": identity_channel(2)})

    def test_sequence_enumeration_budget(self):
        fam = two_family()
        with pytest.raises(BudgetExceeded):
            fam.state_sequences(3, budget=7)
        assert len(fam.state_sequences(3)) == 8

    def test_a_huge_block_length_is_rejected_without_its_power(self):
        # 2**(10**12) has 3 * 10**11 digits; the test returns only if it is never formed
        with pytest.raises(BudgetExceeded):
            two_family().state_sequences(10**12)

    def test_one_member_at_a_huge_block_length_is_rejected_by_the_length(self):
        # 1 ** l passes every count, so l itself is held to the budget; the
        # test returns only if no length-l tuple is built
        fam = Avqc(("a",), {"a": identity_channel(2)})
        assert fam.state_sequences(7, budget=7) == [("a",) * 7]
        with pytest.raises(BudgetExceeded, match="of length 8 exceed budget 7"):
            fam.state_sequences(8, budget=7)
        with pytest.raises(BudgetExceeded):
            fam.state_sequences(10**12)


def test_power_exceeds_decides_the_power_against_the_limit():
    for base, exp in itertools.product(range(6), range(12)):
        for limit in (-1, 0, 0.5, 1, 7, 8, 9, 4096, 2**20, 10**40, math.inf):
            assert power_exceeds(base, exp, limit) == (base**exp > limit), (base, exp, limit)


def test_power_exceeds_never_forms_a_power_above_the_limit():
    assert power_exceeds(2, 10**400, 2**20)
    assert power_exceeds(3, 10**12, 10**500)
    assert not power_exceeds(1, 10**400, 1)
    assert not power_exceeds(7, 10**400, math.inf)


class TestProductAvqc:
    def test_state_count(self):
        prod = product_avqc(two_family(), 3)
        assert len(prod.states) == 8

    def test_singleton_square(self):
        fam = Avqc(("x",), {"x": bit_flip_channel(0.25)})
        prod = product_avqc(fam, 2)
        assert prod.states == (("x", "x"),)
        out = apply_channel(prod.channels[("x", "x")], KET0.tensor(KET0))
        expect = np.diag([0.75 * 0.75, 0.75 * 0.25, 0.25 * 0.75, 0.25 * 0.25])
        assert np.allclose(out.matrix, expect, atol=1e-12)

    def test_depolarizing_component(self):
        prod = product_avqc(two_family(), 2)
        rho = random_density(rng_for(21), 4)
        out = apply_channel(prod.channels[("d", "d")], rho)
        assert np.allclose(out.matrix, np.eye(4) / 4, atol=1e-12)


class TestAssociatedConstruction:
    def test_function_alphabet_count(self):
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))
        fam = two_family()
        avcqc = build_associated_avcqc(fam, 1, src, [KET0, KET1])
        # K=2 signals, |X|=2, n=1: 2^2 = 4 function letters
        assert len(avcqc.alphabet) == 4

    def test_outputs_are_valid_states(self):
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.4, 0.1], [0.1, 0.4]]))
        avcqc = build_associated_avcqc(two_family(), 1, src, [KET0, KET1])
        for s in avcqc.states:
            for z in avcqc.alphabet:
                out = avcqc.branches[s].outputs[z]
                assert abs(float(np.trace(out.matrix).real) - 1.0) <= 1e-9

    def test_constant_function_on_correlated_source(self):
        # uniform perfectly correlated binary source, f constant at signal 1:
        # output is sum_y (1/2) flag_y (x) N_s(rho_1), independent of x
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))
        fam = Avqc(("b",), {"b": bit_flip_channel(0.3)})
        avcqc = build_associated_avcqc(fam, 1, src, [KET0, KET1])
        f_const_one = (1, 1)
        out = avcqc.branches[("b",)].outputs[f_const_one].matrix
        image = apply_channel(bit_flip_channel(0.3), KET1).matrix
        expect = np.zeros((4, 4), dtype=complex)
        expect[0:2, 0:2] = 0.5 * image
        expect[2:4, 2:4] = 0.5 * image
        assert np.allclose(out, expect, atol=1e-12)

    def test_product_source_factorizes(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.6, 0.4])
        src = BipartiteSource((0, 1), (0, 1), np.outer(px, py))
        fam = Avqc(("b",), {"b": bit_flip_channel(0.2)})
        avcqc = build_associated_avcqc(fam, 1, src, [KET0, KET1])
        f = (0, 1)  # f(x) = x
        out = avcqc.branches[("b",)].outputs[f].matrix
        signal_avg = sum(
            px[x] * apply_channel(bit_flip_channel(0.2), [KET0, KET1][x]).matrix
            for x in range(2)
        )
        expect = np.kron(np.diag(py).astype(complex), signal_avg)
        assert np.allclose(out, expect, atol=1e-12)

    def test_signal_dim_mismatch(self):
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))
        with pytest.raises(DimensionMismatch):
            build_associated_avcqc(two_family(), 1, src, [maximally_mixed(3)])

    @pytest.mark.parametrize("family", [two_family(), Avqc(("b",), {"b": bit_flip_channel(0.3)})])
    def test_a_huge_block_length_is_rejected_without_its_power(self, family):
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))
        with pytest.raises(BudgetExceeded, match="functions exceed"):
            build_associated_avcqc(family, 10**12, src, [KET0, KET1])


class TestClassicalReduction:
    def test_identity_channel_orthogonal_signals(self):
        fam = Avqc(("e",), {"e": identity_channel(2)})
        avc = reduce_to_classical(fam, [KET0, KET1], computational_povm(2))
        assert np.allclose(avc.kernels["e"], np.eye(2), atol=1e-12)

    def test_depolarizing_rows_uniform(self):
        fam = Avqc(("d",), {"d": completely_depolarizing_channel(2)})
        avc = reduce_to_classical(fam, [KET0, KET1], computational_povm(2))
        assert np.allclose(avc.kernels["d"], np.full((2, 2), 0.5), atol=1e-12)

    def test_bit_flip_kernel(self):
        fam = Avqc(("b",), {"b": bit_flip_channel(0.3)})
        avc = reduce_to_classical(fam, [KET0, KET1], computational_povm(2))
        assert np.allclose(
            avc.kernels["b"], np.array([[0.7, 0.3], [0.3, 0.7]]), atol=1e-12
        )

    def test_rows_are_probability_vectors(self):
        rng = rng_for(22)
        fam = two_family()
        signals = [random_density(rng, 2), random_density(rng, 2)]
        avc = reduce_to_classical(fam, signals, computational_povm(2))
        for s in fam.states:
            rows = avc.kernels[s]
            assert np.all(rows >= -1e-9)
            assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_weighted_components_average(self):
        fam = Avqc(("b",), {"b": bit_flip_channel(0.3)})
        povm = computational_povm(2)
        mixed = reduce_to_classical_weighted(
            fam, [([KET0, KET1], povm, 0.5), ([KET1, KET0], povm, 0.5)]
        )
        # averaging a kernel with its input-swapped copy makes rows equal
        assert np.allclose(mixed.kernels["b"], np.full((2, 2), 0.5), atol=1e-12)

    def test_weighted_matches_per_signal_traces(self):
        """Every kernel entry against tr(D_j^z N_t(rho_i^z)) through the einsum oracle."""
        rng = rng_for(23)
        fam = Avqc(
            ("t", "u"),
            {s: random_channel(rng, 2, kraus_count=3, dim_out=3) for s in ("t", "u")},
        )
        components = [
            ([random_density(rng, 2) for _ in range(4)], random_povm(rng, 3, 2), w)
            for w in (0.25, 0.0, 0.75)
        ]
        mixed = reduce_to_classical_weighted(fam, components)
        for s in fam.states:
            want = np.zeros((4, 2))
            for signals, povm, weight in components:
                for i, sig in enumerate(signals):
                    out = apply_channel_to_slot(fam.channels[s], sig.matrix, 0, [2])
                    for j, element in enumerate(povm.elements):
                        want[i, j] += weight * np.trace(element @ out).real
            assert np.max(np.abs(mixed.kernels[s] - want)) < 1e-14

    def test_weight_validation(self):
        fam = two_family()
        povm = computational_povm(2)
        with pytest.raises(ValidationError):
            reduce_to_classical_weighted(fam, [([KET0, KET1], povm, 0.7)])


class TestClassicalAvcAndCq:
    def test_classical_avc_row_validation(self):
        with pytest.raises(ValidationError):
            ClassicalAvc(("t",), {"t": np.array([[0.5, 0.4], [0.5, 0.5]])})

    def test_cq_channel_requires_all_letters(self):
        with pytest.raises(ValidationError):
            CqChannel((0, 1), {0: KET0})

    def test_avcqc_mixture(self):
        w1 = CqChannel((0, 1), {0: KET0, 1: KET1})
        w2 = CqChannel((0, 1), {0: KET1, 1: KET0})
        fam = AvCqc(("a", "b"), {"a": w1, "b": w2})
        mixed = fam.mixture([0.5, 0.5])
        for z in (0, 1):
            assert np.allclose(mixed.outputs[z].matrix, np.eye(2) / 2, atol=1e-12)
