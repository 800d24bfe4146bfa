"""Core quantum objects: validation, channel application, measurement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avqclab import (
    DensityMatrix,
    DimensionMismatch,
    Povm,
    PureState,
    QuantumChannel,
    ValidationError,
    apply_channel,
    apply_product_channel,
    basis_state,
    bit_flip_channel,
    completely_depolarizing_channel,
    compose_channels,
    computational_povm,
    identity_channel,
    maximally_mixed,
    measure,
    mix_channels,
    phase_flip_channel,
    projective_povm,
    tensor_channel,
    tensor_states,
    unitary_channel,
)
from avqclab.quantum import (
    PAULI_Z,
    _hermitian_basis,
    apply_channel_to_slot_batch,
    apply_product_to_matrix,
    constant_channel,
)

from helpers import (
    apply_channel_to_slot,
    random_channel,
    random_density,
    random_povm,
    random_pure,
    rng_for,
)


KET0 = basis_state(2, 0).to_density()
KET1 = basis_state(2, 1).to_density()
PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2)).to_density()


class TestDensityMatrix:
    def test_accepts_valid_state(self):
        rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        assert rho.dim == 2

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_dimension_above_cap(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(8192, dtype=complex) / 8192)

    def test_matrix_is_frozen(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

    def test_tensor(self):
        prod = KET0.tensor(KET1)
        expect = np.zeros((4, 4))
        expect[1, 1] = 1.0
        assert np.allclose(prod.matrix, expect)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 1.0]))

    def test_to_density_is_projector(self):
        psi = random_pure(rng_for(11), 3)
        rho = psi.to_density().matrix
        assert np.allclose(rho @ rho, rho, atol=1e-12)


class TestQuantumChannel:
    def test_rejects_incomplete_kraus(self):
        with pytest.raises(ValidationError):
            QuantumChannel((np.eye(2, dtype=complex) * 0.5,))

    def test_rejects_mixed_shapes(self):
        with pytest.raises(DimensionMismatch):
            QuantumChannel((np.eye(2, dtype=complex), np.eye(3, dtype=complex)))

    def test_rectangular_channel_dims(self):
        # isometry |0> -> |00>, |1> -> |11|
        v = np.zeros((4, 2), dtype=complex)
        v[0, 0] = 1.0
        v[3, 1] = 1.0
        ch = QuantumChannel((v,))
        assert (ch.dim_in, ch.dim_out) == (2, 4)


class TestApplyChannel:
    def test_identity_on_ket0(self):
        assert np.allclose(apply_channel(identity_channel(2), KET0).matrix, KET0.matrix)

    def test_depolarizing_sends_everything_to_maximally_mixed(self):
        dep = completely_depolarizing_channel(2)
        for seed in range(3):
            rho = random_density(rng_for(seed), 2)
            assert np.allclose(apply_channel(dep, rho).matrix, np.eye(2) / 2, atol=1e-12)

    def test_bit_flip_probability_point_three(self):
        out = apply_channel(bit_flip_channel(0.3), KET0)
        assert np.allclose(out.matrix, np.diag([0.7, 0.3]), atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_channel(identity_channel(3), KET0)

    def test_output_always_valid_state(self):
        # constructor validation of the output is the property under test
        for seed in range(5):
            rng = rng_for(100 + seed)
            ch = random_channel(rng, 3)
            rho = random_density(rng, 3)
            out = apply_channel(ch, rho)
            assert isinstance(out, DensityMatrix)


class TestTensorChannel:
    def test_identity_pair_gives_identity4(self):
        ch = tensor_channel([identity_channel(2), identity_channel(2)])
        rho = random_density(rng_for(3), 4)
        assert np.allclose(apply_channel(ch, rho).matrix, rho.matrix, atol=1e-12)

    def test_depolarizing_pair_gives_maximally_mixed(self):
        ch = tensor_channel(
            [completely_depolarizing_channel(2), completely_depolarizing_channel(2)]
        )
        rho = random_density(rng_for(4), 4)
        assert np.allclose(apply_channel(ch, rho).matrix, np.eye(4) / 4, atol=1e-12)

    def test_kraus_count_multiplies(self):
        a = bit_flip_channel(0.5)  # 2 Kraus ops
        b = completely_depolarizing_channel(2)  # 4 Kraus ops
        assert len(tensor_channel([a, b]).kraus) == 8

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            tensor_channel([])

    def test_tensor_apply_equals_apply_then_tensor(self):
        rng = rng_for(5)
        ch_a, ch_b = random_channel(rng, 2), random_channel(rng, 2)
        rho_a, rho_b = random_density(rng, 2), random_density(rng, 2)
        joint = apply_channel(tensor_channel([ch_a, ch_b]), rho_a.tensor(rho_b))
        split = apply_channel(ch_a, rho_a).tensor(apply_channel(ch_b, rho_b))
        assert np.allclose(joint.matrix, split.matrix, atol=1e-9)


class TestMixChannels:
    def test_single_channel_unchanged(self):
        ch = bit_flip_channel(0.2)
        mixed = mix_channels([ch], [1.0])
        rho = random_density(rng_for(6), 2)
        assert np.allclose(
            apply_channel(mixed, rho).matrix, apply_channel(ch, rho).matrix, atol=1e-12
        )

    def test_constant_mixture_gives_maximally_mixed(self):
        mixed = mix_channels(
            [constant_channel(KET0), constant_channel(KET1)], [0.5, 0.5]
        )
        rho = random_density(rng_for(7), 2)
        assert np.allclose(apply_channel(mixed, rho).matrix, np.eye(2) / 2, atol=1e-12)

    def test_identity_bitflip_mixture(self):
        mixed = mix_channels([identity_channel(2), bit_flip_channel(1.0)], [0.75, 0.25])
        out = apply_channel(mixed, KET0)
        assert np.allclose(out.matrix, np.diag([0.75, 0.25]), atol=1e-12)

    def test_action_equals_weighted_sum(self):
        rng = rng_for(8)
        chs = [random_channel(rng, 2) for _ in range(3)]
        q = np.array([0.5, 0.3, 0.2])
        rho = random_density(rng, 2)
        direct = apply_channel(mix_channels(chs, q), rho).matrix
        summed = sum(w * apply_channel(c, rho).matrix for w, c in zip(q, chs))
        assert np.allclose(direct, summed, atol=1e-9)

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            mix_channels([identity_channel(2)], [0.5])
        with pytest.raises(DimensionMismatch):
            mix_channels([identity_channel(2)], [0.5, 0.5])


class TestMeasure:
    def test_computational_on_ket0(self):
        assert np.allclose(measure(computational_povm(2), KET0), [1.0, 0.0])

    def test_computational_on_maximally_mixed(self):
        assert np.allclose(measure(computational_povm(2), maximally_mixed(2)), [0.5, 0.5])

    def test_hadamard_basis_on_ket0(self):
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
        minus = PureState(np.array([1.0, -1.0]) / np.sqrt(2))
        povm = projective_povm([plus, minus], pad=False)
        assert np.allclose(measure(povm, KET0), [0.5, 0.5], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        for seed in range(5):
            rng = rng_for(200 + seed)
            povm = random_povm(rng, 3, 4)
            rho = random_density(rng, 3)
            probs = measure(povm, rho)
            assert abs(probs.sum() - 1.0) <= 1e-9
            assert np.all(probs >= -1e-9)


class TestPovmValidation:
    def test_rejects_not_summing_to_identity(self):
        with pytest.raises(ValidationError):
            Povm((np.eye(2, dtype=complex) * 0.5,))

    def test_rejects_non_psd_element(self):
        with pytest.raises(ValidationError):
            Povm((np.diag([1.5, 1.0]).astype(complex), np.diag([-0.5, 0.0]).astype(complex)))

    def test_zero_element_allowed(self):
        povm = Povm((np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)))
        assert povm.outcome_count == 2


class TestSlotApplication:
    def test_slot_application_matches_tensor_channel(self):
        rng = rng_for(9)
        ch = random_channel(rng, 2)
        rho = random_density(rng, 4)
        via_tensor = apply_channel(tensor_channel([ch, identity_channel(2)]), rho)
        raw = apply_channel_to_slot(ch, np.asarray(rho.matrix), 0, [2, 2])
        assert np.allclose(via_tensor.matrix, raw, atol=1e-10)

    def test_product_application_matches_explicit_product(self):
        rng = rng_for(10)
        chs = [random_channel(rng, 2), random_channel(rng, 2)]
        rho = random_density(rng, 4)
        explicit = apply_channel(tensor_channel(chs), rho)
        slotwise = apply_product_channel(chs, rho)
        assert np.allclose(explicit.matrix, slotwise.matrix, atol=1e-10)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        d_in=st.integers(1, 3),
        d_out=st.integers(1, 3),
        extra_kraus=st.integers(0, 2),
        n_slots=st.integers(1, 3),
        count=st.integers(1, 3),
    )
    def test_batch_matches_single_slot_application(
        self, seed, d_in, d_out, extra_kraus, n_slots, count
    ):
        """The one kernel against the Kraus-by-Kraus einsum, and its adjoint by duality."""
        rng = rng_for(seed)
        kraus_count = -(-d_in // d_out) + extra_kraus  # enough for a full-rank sum of K†K
        channels = [
            random_channel(rng, d_in, kraus_count, dim_out=d_out) for _ in range(n_slots)
        ]
        size_in, size_out = d_in**n_slots, d_out**n_slots
        mats = rng.normal(size=(count, size_in, size_in, 2)) @ [1.0, 1.0j] / size_in

        # a stack through the product loop, element by element against the oracle
        got = apply_product_to_matrix(channels, mats)
        assert got.shape == (count, size_out, size_out)
        for mat, image in zip(mats, got):
            want, dims = mat, [d_in] * n_slots
            for slot, ch in enumerate(channels):
                want = apply_channel_to_slot(ch, want, slot, dims)
                dims[slot] = d_out
            assert np.max(np.abs(image - want)) < 1e-13

        rho = random_density(rng, d_in)
        want = apply_channel_to_slot(channels[0], np.asarray(rho.matrix), 0, [d_in])
        assert np.max(np.abs(apply_channel(channels[0], rho).matrix - want)) < 1e-13

        # tr(B N(A)) = tr(N†(B) A) with N on one slot of a product space
        slot = int(rng.integers(n_slots))
        dims_in = [d_in] * n_slots
        dims_out = list(dims_in)
        dims_out[slot] = d_out
        size_b = math.prod(dims_out)
        ops = rng.normal(size=(count, size_b, size_b, 2)) @ [1.0, 1.0j]
        image = apply_channel_to_slot_batch(channels[slot], mats, slot, dims_in)
        pulled = apply_channel_to_slot_batch(
            channels[slot], ops, slot, dims_out, adjoint=True
        )
        lhs = np.einsum("mij,mji->m", ops, image)
        rhs = np.einsum("mij,mji->m", pulled, mats)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_batch_matches_single_slot_application_on_mixed_slot_dims(self):
        rng = rng_for(11)
        ch = random_channel(rng, 2, kraus_count=3, dim_out=3)
        dims = [3, 2, 2]
        stack = np.stack([random_density(rng, 12).matrix for _ in range(3)])
        for slot in (1, 2):
            batch = apply_channel_to_slot_batch(ch, stack, slot, dims)
            assert batch.shape == (3, 18, 18)
            for mat, got in zip(stack, batch):
                assert np.max(np.abs(got - apply_channel_to_slot(ch, mat, slot, dims))) < 1e-14

    def test_adjoint_is_the_trace_dual(self):
        rng = rng_for(12)
        ch = random_channel(rng, 2, dim_out=3)
        rho = random_density(rng, 4).matrix
        povm = random_povm(rng, 6, 2)
        image = apply_channel_to_slot_batch(ch, rho[None], 1, [2, 2])[0]
        pulled = apply_channel_to_slot_batch(
            ch, np.stack(povm.elements), 1, [2, 3], adjoint=True
        )
        assert pulled.shape == (2, 4, 4)
        for op, back in zip(povm.elements, pulled):
            assert np.trace(op @ image) == pytest.approx(np.trace(back @ rho), abs=1e-14)
        # the adjoint of a trace-preserving map is unital
        ones = apply_channel_to_slot_batch(ch, np.eye(6)[None], 1, [2, 3], adjoint=True)
        assert np.allclose(ones[0], np.eye(4), atol=1e-14)

    def test_batch_dimension_checks(self):
        ch = random_channel(rng_for(13), 2, dim_out=3)
        with pytest.raises(DimensionMismatch):
            apply_channel_to_slot_batch(ch, np.eye(4), 0, [2, 2])
        with pytest.raises(DimensionMismatch):
            apply_channel_to_slot_batch(ch, np.eye(4)[None], 0, [2, 3])
        with pytest.raises(DimensionMismatch):
            apply_channel_to_slot_batch(ch, np.eye(6)[None], 1, [2, 3])
        with pytest.raises(DimensionMismatch):
            apply_channel_to_slot_batch(ch, np.eye(4)[None], 1, [2, 2], adjoint=True)


class TestComposeAndConstructors:
    def test_compose_unitary_with_inverse_is_identity(self):
        rng = rng_for(12)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(g)
        ch = compose_channels(unitary_channel(u.conj().T), unitary_channel(u))
        rho = random_density(rng, 2)
        assert np.allclose(apply_channel(ch, rho).matrix, rho.matrix, atol=1e-10)

    def test_phase_flip_fixes_diagonal_states(self):
        out = apply_channel(phase_flip_channel(0.3), KET1)
        assert np.allclose(out.matrix, KET1.matrix, atol=1e-12)

    def test_constant_channel_outputs_target(self):
        tgt = random_density(rng_for(13), 3)
        ch = constant_channel(tgt)
        rho = random_density(rng_for(14), 3)
        assert np.allclose(apply_channel(ch, rho).matrix, tgt.matrix, atol=1e-10)

    def test_unitary_channel_z_action(self):
        out = apply_channel(unitary_channel(PAULI_Z), PLUS)
        assert np.allclose(out.matrix, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-12)

    def test_tensor_states(self):
        prod = tensor_states([KET0, KET1, KET0])
        assert prod.dim == 8
        assert prod.matrix[2, 2] == pytest.approx(1.0)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_hermitian_basis_is_orthonormal(dim):
    basis = np.stack(list(_hermitian_basis(dim)))
    assert basis.shape == (dim * dim, dim, dim)
    assert np.array_equal(basis, basis.conj().transpose(0, 2, 1))
    gram = np.einsum("iab,jba->ij", basis, basis)
    assert np.max(np.abs(gram - np.eye(dim * dim))) <= 1e-15
