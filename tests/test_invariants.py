"""The shared input rules: integer sizes and label tables, at every site that takes one.

Each site is fed bools, floats, numpy integers, zero and negative sizes,
unhashable labels and unknown table keys. It either succeeds or raises an
``AvqclabError``: never a raw ``TypeError`` or ``AttributeError``, and never
a ``RuntimeWarning``. A numpy integer is a valid size: the object stores it
as a Python int and writes through ``dumps_document``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avqclab import (
    Avqc,
    AvCqc,
    AvqclabError,
    BipartiteSource,
    CorrelatedCode,
    CorrelatedEntanglementCode,
    CqChannel,
    CrFunctionsPair,
    DeterministicCode,
    QuantumChannel,
    RandomCode,
    ValidationError,
    basis_state,
    bit_flip_channel,
    check_lp_size,
    check_symmetrizable,
    completely_depolarizing_channel,
    computational_povm,
    dumps_document,
    hermitian_probe_frame,
    identity_channel,
    maximally_mixed,
    permutation_symmetrize,
    random_code_reduction,
    to_document,
)

WORDS = (basis_state(2, 0).to_density(), basis_state(2, 1).to_density())
POVM = computational_povm(2)
CODE = DeterministicCode(1, WORDS, POVM)
FAMILY = Avqc(("i", "x"), {"i": identity_channel(2), "x": bit_flip_channel(0.25)})
NOISELESS = Avqc(("i",), {"i": identity_channel(2)})
SOURCE = BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))
# one letter a side: each party's only observation at n = 1 is (0,)
ONE_LETTER = BipartiteSource((0,), (0,), np.array([[1.0]]))
CHANNEL = identity_channel(2)
BRANCH = CqChannel(("a",), {"a": maximally_mixed(2)})
PARITY = {(0,): 0, (1,): 1}


def _pair(l=1, count=2, value=1):
    return CrFunctionsPair((0, 1), (0, 1), l, count, {(0,): 0, (1,): value}, PARITY)


def _entanglement(l=1, r=1, code_dim=2):
    return CorrelatedEntanglementCode(l, r, ONE_LETTER, code_dim, {(0,): CHANNEL}, {(0,): CHANNEL})


def _reduction(l=1, sample_count=2, seed=0):
    return random_code_reduction(RandomCode((CODE,), [1.0]), NOISELESS, l, sample_count, 0.5, seed)


# name: (least valid size, the size the site is built for, feed, the size the
# result stores or None)
SIZE_SITES = {
    "DeterministicCode.l": (1, 1, lambda v: DeterministicCode(v, WORDS, POVM), lambda c: c.l),
    "CorrelatedCode.l": (
        1, 1, lambda v: CorrelatedCode(v, 1, ONE_LETTER, {(0,): WORDS}, {(0,): POVM}),
        lambda c: c.l,
    ),
    "CorrelatedCode.r": (
        1, 1, lambda v: CorrelatedCode(1, v, ONE_LETTER, {(0,): WORDS}, {(0,): POVM}),
        lambda c: c.r,
    ),
    "CorrelatedEntanglementCode.l": (1, 1, lambda v: _entanglement(l=v), lambda c: c.l),
    "CorrelatedEntanglementCode.r": (1, 1, lambda v: _entanglement(r=v), lambda c: c.r),
    "CorrelatedEntanglementCode.code_dim": (
        1, 2, lambda v: _entanglement(code_dim=v), lambda c: c.code_dim
    ),
    "Avqc.state_sequences": (1, 2, FAMILY.state_sequences, None),
    "check_lp_size": (1, 1, lambda v: check_lp_size(FAMILY, v), None),
    "BipartiteSource.joint_power": (1, 2, SOURCE.joint_power, None),
    "random_code_reduction.l": (1, 1, lambda v: _reduction(l=v), None),
    "random_code_reduction.sample_count": (1, 2, lambda v: _reduction(sample_count=v), None),
    "random_code_reduction.seed": (0, 0, lambda v: _reduction(seed=v), None),
    "permutation_symmetrize.sample_count": (
        1, 2, lambda v: permutation_symmetrize(CODE, "sample", v), None
    ),
    "CrFunctionsPair.l": (1, 1, lambda v: _pair(l=v), lambda p: p.l),
    "CrFunctionsPair.value_count": (1, 2, lambda v: _pair(count=v), lambda p: p.value_count),
    "CrFunctionsPair.f_table": (0, 1, lambda v: _pair(value=v), lambda p: p.f_table[(1,)]),
    "hermitian_probe_frame": (2, 2, hermitian_probe_frame, None),
    "completely_depolarizing_channel": (1, 2, completely_depolarizing_channel, None),
}

# name: (feed, whether a value is a valid input). A label site puts the value
# in the label list; a key site adds it to the table as one more key.
LABEL_SITES = {
    "Avqc label": (lambda v: Avqc((v,), {"a": CHANNEL}), lambda v: v == "a"),
    "Avqc key": (lambda v: Avqc(("a",), {"a": CHANNEL, v: CHANNEL}), lambda v: v == "a"),
    "CqChannel label": (
        lambda v: CqChannel((v,), {"a": maximally_mixed(2)}), lambda v: v == "a"
    ),
    "CqChannel key": (
        lambda v: CqChannel(("a",), {"a": maximally_mixed(2), v: maximally_mixed(2)}),
        lambda v: v == "a",
    ),
    "AvCqc label": (lambda v: AvCqc((v,), {"a": BRANCH}), lambda v: v == "a"),
    "AvCqc key": (lambda v: AvCqc(("a",), {"a": BRANCH, v: BRANCH}), lambda v: v == "a"),
    "BipartiteSource x_alphabet": (
        lambda v: BipartiteSource((v,), (0,), np.array([[1.0]])), lambda v: _hashable(v)
    ),
    "BipartiteSource y_alphabet": (
        lambda v: BipartiteSource((0,), (v,), np.array([[1.0]])), lambda v: _hashable(v)
    ),
}

VALUES = st.one_of(
    st.booleans(),
    st.floats(),
    st.integers(-3, 3),
    st.integers(-3, 3).map(np.int64),
    st.integers(0, 3).map(np.uint8),
    st.sampled_from(["a", "b"]),
    st.lists(st.integers(0, 1), max_size=2),  # unhashable
    st.none(),
)


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _is_size(value, low: int) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low


def _feed(site: str, feed, value, valid):
    """``feed(value)``, or None if it raised an ``AvqclabError``.

    It must succeed when ``valid`` is True and raise a ``ValidationError``
    when it is False; None allows either.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = feed(value)
        except AvqclabError as exc:
            assert valid is not True, f"{site} rejected {value!r}: {exc}"
            assert valid is None or isinstance(exc, ValidationError), f"{site}: {exc!r}"
            return None
    assert valid is not False, f"{site} accepted {value!r}"
    return result


@settings(max_examples=200, deadline=None, derandomize=True)
@given(VALUES)
def test_every_site_takes_valid_input_or_raises_a_library_error(value):
    for site, (low, size, feed, stored) in SIZE_SITES.items():
        # a valid size other than the one the site is built for may fail its other checks
        valid = (bool(value == size) or None) if _is_size(value, low) else False
        result = _feed(site, feed, value, valid)
        if result is not None and stored is not None:
            assert type(stored(result)) is int, site
        if isinstance(result, (DeterministicCode, CorrelatedCode, RandomCode, QuantumChannel)):
            dumps_document(to_document(result))
    for site, (feed, accepts) in LABEL_SITES.items():
        if _hashable(value) or site.endswith("label"):  # no table holds an unhashable key
            _feed(site, feed, value, bool(accepts(value)))


def test_an_overflowing_raw_probe_is_a_validation_error_without_a_warning():
    probe = np.array([[1e308, -1e308], [1e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="not Hermitian"):
            check_symmetrizable(FAMILY, 1, [probe, np.eye(2) / 2])
