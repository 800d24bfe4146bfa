"""Entropies, Holevo information, mutual information, entanglement fidelity."""

import math

import numpy as np
import pytest

from avqclab import (
    BipartiteSource,
    CqChannel,
    DimensionMismatch,
    PureState,
    ValidationError,
    basis_state,
    completely_depolarizing_channel,
    entanglement_fidelity,
    holevo_chi,
    identity_channel,
    maximally_mixed,
    mutual_information,
    shannon_entropy,
    von_neumann_entropy,
)
from avqclab import DensityMatrix, QuantumChannel
from avqclab.quantum import PAULI_Z

from helpers import (
    entanglement_fidelity_purification,
    random_channel,
    random_density,
    random_prob_vector,
    random_pure,
    rng_for,
)

KET0 = basis_state(2, 0).to_density()
KET1 = basis_state(2, 1).to_density()
PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2)).to_density()


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(random_pure(rng_for(31), 4).to_density()) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(maximally_mixed(2)) == pytest.approx(1.0, abs=1e-12)

    def test_binary_entropy_eigenvalues(self):
        rho = DensityMatrix(np.diag([0.85355339, 0.14644661]).astype(complex))
        assert von_neumann_entropy(rho) == pytest.approx(0.600876, abs=1e-5)

    def test_unitary_invariance(self):
        rng = rng_for(32)
        rho = random_density(rng, 3)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(g)
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-9
        )

    def test_shannon_entropy_uniform(self):
        assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)

    def test_binary_entropy_symmetry(self):
        assert shannon_entropy([0.25, 0.75]) == pytest.approx(
            shannon_entropy([0.75, 0.25]), abs=1e-12
        )

    @pytest.mark.parametrize("probs", [[np.nan, 1.0], [np.inf, 1.0]])
    def test_shannon_entropy_rejects_non_finite_entries(self, probs):
        # a NaN used to be dropped with the zero entries, giving -0.0
        with pytest.raises(ValidationError, match="shannon_entropy"):
            shannon_entropy(probs)

    def test_the_zero_rule_is_1e_minus_12(self):
        # masses above 1e-12 count, as in capacity's entropies; at or below, they do not
        assert shannon_entropy([1e-9, 1.0]) == pytest.approx(-1e-9 * math.log2(1e-9), rel=1e-12)
        assert shannon_entropy([1e-12, 1.0]) == 0.0


class TestHolevoChi:
    def test_constant_channel_zero(self):
        w = CqChannel((0, 1), {0: PLUS, 1: PLUS})
        assert holevo_chi([0.3, 0.7], w) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_outputs_one_bit(self):
        w = CqChannel((0, 1), {0: KET0, 1: KET1})
        assert holevo_chi([0.5, 0.5], w) == pytest.approx(1.0, abs=1e-12)

    def test_zero_plus_ensemble(self):
        w = CqChannel((0, 1), {0: KET0, 1: PLUS})
        assert holevo_chi([0.5, 0.5], w) == pytest.approx(0.600876, abs=1e-5)

    def test_nonnegative_and_bounded_by_average_entropy(self):
        rng = rng_for(33)
        for _ in range(10):
            outputs = {z: random_density(rng, 2) for z in range(3)}
            w = CqChannel((0, 1, 2), outputs)
            p = random_prob_vector(rng, 3)
            chi = holevo_chi(p, w)
            avg = sum(
                weight * np.asarray(outputs[z].matrix) for z, weight in zip(w.alphabet, p)
            )
            assert -1e-9 <= chi <= von_neumann_entropy(DensityMatrix(avg)) + 1e-9

    def test_length_mismatch(self):
        w = CqChannel((0, 1), {0: KET0, 1: KET1})
        with pytest.raises(DimensionMismatch):
            holevo_chi([1.0], w)

    def test_non_finite_probabilities_are_rejected(self):
        # NaN used to pass the inline check and was caught only by the average
        # state's DensityMatrix check ("negative eigenvalue -inf")
        w = CqChannel((0, 1), {0: KET0, 1: KET1})
        for probs in ([np.nan, 1.0], [0.5, np.nan]):
            with pytest.raises(ValidationError, match="holevo_chi: probs"):
                holevo_chi(probs, w)


class TestMutualInformation:
    def test_product_source_zero(self):
        src = BipartiteSource((0, 1), (0, 1), np.outer([0.3, 0.7], [0.4, 0.6]))
        assert mutual_information(src) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation_one_bit(self):
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert mutual_information(src) == pytest.approx(1.0, abs=1e-12)

    def test_anchor_value(self):
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.4, 0.1], [0.1, 0.4]]))
        assert mutual_information(src) == pytest.approx(0.27807, abs=1e-5)

    def test_non_finite_entries_are_rejected(self):
        # a NaN entry used to be dropped, giving -0.69 bits
        with pytest.raises(ValidationError, match="mutual_information"):
            mutual_information(np.array([[np.nan, 0.5], [0.25, 0.25]]))

    def test_symmetry_under_transpose(self):
        rng = rng_for(34)
        joint = rng.random((3, 4))
        joint /= joint.sum()
        a = BipartiteSource(tuple(range(3)), tuple(range(4)), joint)
        b = BipartiteSource(tuple(range(4)), tuple(range(3)), joint.T)
        assert mutual_information(a) == pytest.approx(mutual_information(b), abs=1e-12)


class TestEntanglementFidelity:
    def test_identity_channel_unity(self):
        rho = random_density(rng_for(35), 3)
        assert entanglement_fidelity(rho, identity_channel(3)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_depolarizing_anchor(self):
        assert entanglement_fidelity(
            maximally_mixed(2), completely_depolarizing_channel(2)
        ) == pytest.approx(0.25, abs=1e-9)

    def test_unitary_z_channel_zero(self):
        assert entanglement_fidelity(maximally_mixed(2), QuantumChannel((PAULI_Z,))) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_purification_forms_agree(self):
        rng = rng_for(36)
        for _ in range(5):
            rho = random_density(rng, 3)
            ch = random_channel(rng, 3)
            direct = entanglement_fidelity(rho, ch)
            eigen = entanglement_fidelity_purification(rho, ch, scheme="eigen")
            embed = entanglement_fidelity_purification(rho, ch, scheme="embed")
            assert direct == pytest.approx(eigen, abs=1e-9)
            assert direct == pytest.approx(embed, abs=1e-9)

    def test_kraus_formula_oracle(self):
        rng = rng_for(37)
        rho = random_density(rng, 2)
        ch = random_channel(rng, 2, kraus_count=3)
        manual = sum(
            abs(np.trace(np.asarray(rho.matrix) @ np.asarray(k))) ** 2 for k in ch.kraus
        )
        assert entanglement_fidelity(rho, ch) == pytest.approx(manual, abs=1e-9)

    def test_requires_square_channel(self):
        v = np.zeros((4, 2), dtype=complex)
        v[0, 0] = 1.0
        v[3, 1] = 1.0
        with pytest.raises(DimensionMismatch):
            entanglement_fidelity(maximally_mixed(2), QuantumChannel((v,)))
