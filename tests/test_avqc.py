"""Channel families, cq and classical families, classical reduction."""

import itertools
import math

import numpy as np
import pytest

from avqclab import (
    Avqc,
    AvCqc,
    BudgetExceeded,
    ClassicalAvc,
    CqChannel,
    DimensionMismatch,
    ValidationError,
    basis_state,
    bit_flip_channel,
    completely_depolarizing_channel,
    computational_povm,
    identity_channel,
    reduce_to_classical_weighted,
)

from avqclab.util import power_exceeds

from helpers import (
    apply_channel_to_slot,
    mixture,
    random_channel,
    random_density,
    random_povm,
    rng_for,
)

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


class TestClassicalReduction:
    def test_identity_channel_orthogonal_signals(self):
        fam = Avqc(("e",), {"e": identity_channel(2)})
        avc = reduce_to_classical_weighted(fam, [([KET0, KET1], computational_povm(2), 1.0)])
        assert np.allclose(avc.kernels["e"], np.eye(2), atol=1e-12)

    def test_depolarizing_rows_uniform(self):
        fam = Avqc(("d",), {"d": completely_depolarizing_channel(2)})
        avc = reduce_to_classical_weighted(fam, [([KET0, KET1], computational_povm(2), 1.0)])
        assert np.allclose(avc.kernels["d"], np.full((2, 2), 0.5), atol=1e-12)

    def test_bit_flip_kernel(self):
        fam = Avqc(("b",), {"b": bit_flip_channel(0.3)})
        avc = reduce_to_classical_weighted(fam, [([KET0, KET1], computational_povm(2), 1.0)])
        assert np.allclose(
            avc.kernels["b"], np.array([[0.7, 0.3], [0.3, 0.7]]), atol=1e-12
        )

    def test_rows_are_probability_vectors(self):
        rng = rng_for(22)
        fam = two_family()
        signals = [random_density(rng, 2), random_density(rng, 2)]
        avc = reduce_to_classical_weighted(fam, [(signals, computational_povm(2), 1.0)])
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
        mixed = mixture(fam, [0.5, 0.5])
        for z in (0, 1):
            assert np.allclose(mixed.outputs[z].matrix, np.eye(2) / 2, atol=1e-12)
