"""Channel families, cq and classical families, classical reduction, non-finite inputs."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avqclab import (
    Avqc,
    AvCqc,
    BipartiteSource,
    BudgetExceeded,
    CqChannel,
    DeterministicCode,
    DimensionMismatch,
    PureState,
    RandomCode,
    SymmetrizingFamily,
    ValidationError,
    basis_state,
    bit_flip_channel,
    check_symmetrizable,
    completely_depolarizing_channel,
    computational_povm,
    extend_family,
    from_document,
    identity_channel,
    reduce_to_classical_weighted,
    witsenhausen_binarize,
)

from avqclab.config import ENUM_BUDGET
from avqclab.util import check_words, power_exceeds, words

from helpers import (
    apply_channel_to_slot,
    classical_kernels,
    mixture,
    random_channel,
    random_density,
    random_povm,
    rng_for,
    run_python,
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
        # 2**16 sequences fill ENUM_BUDGET exactly; 2**17 exceed it
        fam = two_family()
        assert len(fam.state_sequences(3)) == 8
        assert len(fam.state_sequences(16)) == ENUM_BUDGET
        too_many = rf"2\^17 words of length 17 exceed budget {ENUM_BUDGET}"
        with pytest.raises(BudgetExceeded, match=too_many):
            fam.state_sequences(17)

    def test_a_huge_block_length_is_rejected_without_its_power(self):
        # 2**(10**12) has 3 * 10**11 digits; the test returns only if it is never formed
        with pytest.raises(BudgetExceeded):
            two_family().state_sequences(10**12)

    def test_one_member_at_a_huge_block_length_is_rejected_by_the_length(self):
        # 1 ** l passes every count, so l itself is held to the budget; the
        # test returns only if no length-l tuple is built
        fam = Avqc(("a",), {"a": identity_channel(2)})
        assert fam.state_sequences(ENUM_BUDGET) == [("a",) * ENUM_BUDGET]
        with pytest.raises(BudgetExceeded, match=f"of length {ENUM_BUDGET + 1} exceed budget"):
            fam.state_sequences(ENUM_BUDGET + 1)
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.integers(0, 70), st.integers(1, 2**40))
def test_check_words_bounds_the_count_and_the_length(letters, n, budget):
    over = letters**n > budget or n > budget
    try:
        check_words(letters, n, budget, "words")
    except BudgetExceeded as exc:
        assert over
        assert f"{letters}^{n} words of length {n} exceed budget {budget}" in str(exc)
    else:
        assert not over
    if not over and letters**n <= 4096:
        alphabet = tuple(range(letters))
        assert words(alphabet, n, budget, "words") == list(itertools.product(alphabet, repeat=n))


def test_check_words_rejects_a_huge_length_at_once():
    # letters ** (10**12) is never formed: each call returns only if it is not
    for letters in range(1, 41):
        for budget in (1, 4096, 2**39):
            t0 = time.perf_counter()
            with pytest.raises(BudgetExceeded, match="length 1000000000000"):
                check_words(letters, 10**12, budget, "words")
            assert time.perf_counter() - t0 < 0.05


# Library calls at l = 10**12 whose word space has one letter (a one-member
# family) or whose block dimension is 2**l; each defines ``call``.
HUGE_LENGTH_CALLS = {
    "evaluate_entanglement_code": """
from avqclab import (
    Avqc, BipartiteSource, CorrelatedEntanglementCode, QuantumChannel, evaluate_entanglement_code,
)
unit = QuantumChannel((np.eye(1),))
source = BipartiteSource((0, 1), (0, 1), np.eye(2) / 2)
maps = {(0,): unit, (1,): unit}
code = CorrelatedEntanglementCode(10**12, 10**12, source, 1, maps, dict(maps))
call = lambda: evaluate_entanglement_code(Avqc((0,), {0: unit}), code)
""",
    "symmetrization_residual": """
from avqclab import (
    Avqc, SymmetrizingFamily, bit_flip_channel, identity_channel, maximally_mixed,
    symmetrization_residual,
)
avqc = Avqc((0, 1), {0: identity_channel(2), 1: bit_flip_channel(0.1)})
family = SymmetrizingFamily(((0,), (1,)), np.eye(2))
call = lambda: symmetrization_residual(avqc, 10**12, [maximally_mixed(2)] * 2, family)
""",
}


@pytest.mark.parametrize("name", sorted(HUGE_LENGTH_CALLS))
def test_a_library_call_at_a_huge_block_length_is_rejected_at_once(name):
    # in a fresh interpreter under a memory cap and a timeout, so that a call
    # that lists 10**12 slots or forms 2**(10**12) fails instead of stalling
    # the suite
    script = "import time\nimport numpy as np\n" + HUGE_LENGTH_CALLS[name] + """
from avqclab import BudgetExceeded
t0 = time.perf_counter()
try:
    call()
except BudgetExceeded as exc:
    print(time.perf_counter() - t0, exc)
"""
    done = run_python("-c", script, address_space=4 << 30, timeout=30)
    assert done.returncode == 0, done.stderr
    elapsed, message = done.stdout.split(" ", 1)
    assert float(elapsed) < 0.05
    assert "length 1000000000000" in message


class TestClassicalReduction:
    def test_identity_channel_orthogonal_signals(self):
        fam = Avqc(("e",), {"e": identity_channel(2)})
        avc = reduce_to_classical_weighted(fam, [([KET0, KET1], computational_povm(2), 1.0)])
        assert np.allclose(classical_kernels(avc)["e"], np.eye(2), atol=1e-12)

    def test_depolarizing_rows_uniform(self):
        fam = Avqc(("d",), {"d": completely_depolarizing_channel(2)})
        avc = reduce_to_classical_weighted(fam, [([KET0, KET1], computational_povm(2), 1.0)])
        assert np.allclose(classical_kernels(avc)["d"], np.full((2, 2), 0.5), atol=1e-12)

    def test_bit_flip_kernel(self):
        fam = Avqc(("b",), {"b": bit_flip_channel(0.3)})
        avc = reduce_to_classical_weighted(fam, [([KET0, KET1], computational_povm(2), 1.0)])
        assert np.allclose(
            classical_kernels(avc)["b"], np.array([[0.7, 0.3], [0.3, 0.7]]), atol=1e-12
        )

    def test_rows_are_probability_vectors(self):
        rng = rng_for(22)
        fam = two_family()
        signals = [random_density(rng, 2), random_density(rng, 2)]
        avc = reduce_to_classical_weighted(fam, [(signals, computational_povm(2), 1.0)])
        for rows in classical_kernels(avc).values():
            assert np.all(rows >= -1e-9)
            assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_weighted_components_average(self):
        fam = Avqc(("b",), {"b": bit_flip_channel(0.3)})
        povm = computational_povm(2)
        mixed = reduce_to_classical_weighted(
            fam, [([KET0, KET1], povm, 0.5), ([KET1, KET0], povm, 0.5)]
        )
        # averaging a kernel with its input-swapped copy makes rows equal
        assert np.allclose(classical_kernels(mixed)["b"], np.full((2, 2), 0.5), atol=1e-12)

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
            assert np.max(np.abs(classical_kernels(mixed)[s] - want)) < 1e-14

    def test_weight_validation(self):
        fam = two_family()
        povm = computational_povm(2)
        with pytest.raises(ValidationError):
            reduce_to_classical_weighted(fam, [([KET0, KET1], povm, 0.7)])


class TestClassicalAvcAndCq:
    def test_classical_avc_row_validation(self):
        # a row off by 0.1, and an entry of -5e-9: below -TOL_PROB, though a
        # DensityMatrix alone would let it pass (-TOL_PSD = -1e-8)
        for kernel in ([[0.5, 0.4], [0.5, 0.5]], [[1.000000005, -5e-9], [0.5, 0.5]]):
            doc = {"kind": "classical_avc", "states": ["t"], "kernels": {"t": kernel}}
            with pytest.raises(ValidationError):
                from_document(doc)

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


def _non_finite_calls(bad: float) -> dict:
    """One call per library entry point, with ``bad`` where its probability, norm or point rule reads."""
    fam = two_family()
    povm = computational_povm(2)
    det = DeterministicCode(1, (KET0, KET1), povm)
    base = SymmetrizingFamily((("i",), ("d",)), np.eye(2))
    point = np.array([[bad, 0.0], [0.0, 0.5]])
    return {
        "BipartiteSource": lambda: BipartiteSource((0, 1), (0, 1), [[bad, 0.5], [0.5, 0.0]]),
        "PureState": lambda: PureState([bad, 1.0]),
        "RandomCode": lambda: RandomCode((det, det), [bad, 0.5]),
        "SymmetrizingFamily": lambda: SymmetrizingFamily((("i",), ("d",)), [[bad, 1.0]]),
        "reduce_to_classical_weighted": lambda: reduce_to_classical_weighted(
            fam, [([KET0, KET1], povm, bad), ([KET1, KET0], povm, 1.0)]
        ),
        "extend_family": lambda: extend_family([KET0, KET1], base, [point], [[0.5, 0.5]]),
        "check_symmetrizable": lambda: check_symmetrizable(fam, 1, [KET0, point]),
        "witsenhausen_binarize": lambda: witsenhausen_binarize(
            [0.25, 0.25, 0.5], [0.25, 0.25, 0.5], [bad, 0.25, 0.5], 0.3, 0.5
        ),
    }


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(_non_finite_calls(0.0)))
def test_a_non_finite_value_is_a_validation_error(name, bad):
    # NaN fails every comparison, so a check written as `x > tol` lets it pass
    with pytest.raises(ValidationError):
        _non_finite_calls(bad)[name]()
