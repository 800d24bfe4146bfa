"""JSON document round-trips, schema diagnostics, and float exactness."""

import copy
import gc
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avqclab import (
    Avqc,
    AvCqc,
    BipartiteSource,
    BudgetExceeded,
    ClassicalAvc,
    CorrelatedCode,
    CqChannel,
    DensityMatrix,
    DeterministicCode,
    Povm,
    PureState,
    QuantumChannel,
    RandomCode,
    SchemaError,
    ValidationError,
    basis_state,
    bit_flip_channel,
    compose_two_phase,
    computational_povm,
    dumps_document,
    from_document,
    identity_channel,
    loads_document,
    probes_to_document,
    read_document,
    to_document,
    write_document,
)

from avqclab.serialize import _matrix_from_json, field

from helpers import (
    matrix_from_json_oracle,
    random_channel,
    random_density,
    random_povm,
    rng_for,
)


def roundtrip(obj):
    """Document-level fixpoint: decode then re-encode reproduces the bytes."""
    doc = to_document(obj)
    text = dumps_document(doc)
    loaded = loads_document(text)
    decoded = from_document(loaded)
    assert dumps_document(to_document(decoded)) == text
    return decoded


class TestRoundTrips:
    def test_density_matrix(self):
        rng = rng_for(90)
        rho = random_density(rng, 3)
        decoded = roundtrip(rho)
        assert np.array_equal(decoded.matrix, rho.matrix)

    def test_awkward_floats_survive(self):
        rho = DensityMatrix(
            np.array(
                [
                    [1 / 3, 1 / 7 + 1e-17j],
                    [1 / 7 - 1e-17j, 2 / 3],
                ]
            )
        )
        decoded = roundtrip(rho)
        assert decoded.matrix[0, 0] == rho.matrix[0, 0]
        assert decoded.matrix[0, 1] == rho.matrix[0, 1]

    def test_pure_state(self):
        vec = np.array([1.0, 1.0j]) / math.sqrt(2)
        decoded = roundtrip(PureState(vec))
        assert np.array_equal(decoded.amplitudes, vec)

    def test_channel(self):
        rng = rng_for(91)
        decoded = roundtrip(random_channel(rng, 2))
        assert decoded.dim_in == 2 and decoded.dim_out == 2

    def test_rectangular_channel(self):
        iso = np.zeros((4, 2), dtype=complex)
        iso[0, 0] = iso[3, 1] = 1.0
        decoded = roundtrip(QuantumChannel((iso,)))
        assert decoded.dim_in == 2 and decoded.dim_out == 4

    def test_povm(self):
        rng = rng_for(92)
        decoded = roundtrip(random_povm(rng, 2, 3))
        assert decoded.outcome_count == 3

    def test_avqc_labels_become_strings(self):
        avqc = Avqc((0, 1), {0: identity_channel(2), 1: bit_flip_channel(0.25)})
        decoded = roundtrip(avqc)
        assert decoded.states == ("0", "1")

    def test_av_cqc(self):
        rng = rng_for(93)
        branch = CqChannel(
            ("x", "y"), {"x": random_density(rng, 2), "y": random_density(rng, 2)}
        )
        decoded = roundtrip(AvCqc(("s",), {"s": branch}))
        assert decoded.alphabet == ("x", "y")

    def test_classical_avc(self):
        cavc = ClassicalAvc(
            (0,), {0: np.array([[0.25, 0.75], [0.5, 0.5]])}
        )
        decoded = roundtrip(cavc)
        assert np.array_equal(decoded.kernels["0"], cavc.kernels[0])

    def test_bipartite_source(self):
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.4, 0.1], [0.1, 0.4]]))
        decoded = roundtrip(src)
        assert decoded.x_alphabet == (0, 1)

    def test_deterministic_code(self):
        words = (basis_state(2, 0).to_density(), basis_state(2, 1).to_density())
        code = DeterministicCode(1, words, computational_povm(2))
        decoded = roundtrip(code)
        assert decoded.message_count == 2

    def test_random_code(self):
        words = (basis_state(2, 0).to_density(), basis_state(2, 1).to_density())
        det = DeterministicCode(1, words, computational_povm(2))
        decoded = roundtrip(RandomCode((det, det), np.array([1 / 3, 2 / 3])))
        assert decoded.weights[0] == 1 / 3

    def test_correlated_code(self):
        words = (basis_state(2, 0).to_density(), basis_state(2, 1).to_density())
        povm = computational_povm(2)
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))
        code = CorrelatedCode(
            2,
            1,
            src,
            {xy: words for xy in ((0, 0), (0, 1), (1, 0), (1, 1))},
            {
                xy: Povm(tuple(np.kron(e, np.eye(2)) for e in povm.elements))
                for xy in ((0, 0), (0, 1), (1, 0), (1, 1))
            },
        )
        decoded = roundtrip(code)
        assert decoded.n == 2 and decoded.message_count == 2

    def test_probe_set(self):
        rng = rng_for(94)
        probes = [random_density(rng, 2) for _ in range(3)]
        doc = probes_to_document(probes)
        decoded = from_document(doc)
        assert len(decoded) == 3
        assert dumps_document(probes_to_document(decoded)) == dumps_document(doc)

    def test_plain_real_entries_accepted(self):
        doc = {"kind": "density_matrix", "matrix": [[0.5, 0], [0, 0.5]]}
        decoded = from_document(doc)
        assert decoded.matrix[0, 0] == 0.5


class TestSchemaErrors:
    def test_malformed_json_reports_position(self):
        with pytest.raises(SchemaError) as err:
            loads_document('{"kind": "channel",', origin="input.json")
        assert err.value.path.startswith("input.json:")
        assert ":" in err.value.path.rsplit(":", 1)[0]

    def test_unknown_kind(self):
        with pytest.raises(SchemaError) as err:
            from_document({"kind": "teleporter"})
        assert err.value.path == "$.kind"
        assert "teleporter" in str(err.value)

    def test_missing_kind(self):
        with pytest.raises(SchemaError):
            from_document({"matrix": [[1.0]]})

    def test_non_object_document(self):
        with pytest.raises(SchemaError):
            from_document([1, 2, 3])

    def test_pure_state_amplitudes_must_be_an_array(self):
        with pytest.raises(SchemaError) as err:
            from_document({"kind": "pure_state", "amplitudes": 5})
        assert err.value.path == "$.amplitudes"

    def test_source_labels_must_be_scalars(self):
        doc = {
            "kind": "bipartite_source",
            "x_alphabet": [[0], 1],
            "y_alphabet": [0, 1],
            "joint": [[0.5, 0.0], [0.0, 0.5]],
        }
        with pytest.raises(SchemaError) as err:
            from_document(doc)
        assert err.value.path == "$.x_alphabet"

    def test_family_labels_follow_the_same_rule(self):
        # str(["a"]) names the channel, so only the label rule rejects this
        doc = to_document(Avqc(("['a']",), {"['a']": identity_channel(2)}))
        doc["states"] = [["a"]]
        with pytest.raises(SchemaError) as err:
            from_document(doc)
        assert err.value.path == "$.states"

    def test_missing_field_path(self):
        with pytest.raises(SchemaError) as err:
            from_document({"kind": "channel", "dim_in": 2, "dim_out": 2})
        assert "kraus" in str(err.value)

    def test_nested_cell_path(self):
        doc = {
            "kind": "channel",
            "dim_in": 2,
            "dim_out": 2,
            "kraus": [
                [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                [[[0, 0], "zap"], [[0, 0], [0, 0]]],
            ],
        }
        with pytest.raises(SchemaError) as err:
            from_document(doc)
        assert "$.kraus[1]" in err.value.path

    def test_declared_dims_checked(self):
        ch = identity_channel(2)
        doc = to_document(ch)
        doc["dim_out"] = 3
        with pytest.raises(SchemaError) as err:
            from_document(doc)
        assert "dim" in str(err.value)

    def test_avqc_channel_paths(self):
        avqc = Avqc(("a",), {"a": identity_channel(2)})
        doc = to_document(avqc)
        doc["channels"]["a"]["kraus"][0][0][1] = "oops"
        with pytest.raises(SchemaError) as err:
            from_document(doc)
        assert "$.channels.a.kraus[0]" in err.value.path

    def test_ragged_matrix(self):
        doc = {"kind": "density_matrix", "matrix": [[1.0, 0.0], [0.0]]}
        with pytest.raises(SchemaError):
            from_document(doc)

    @pytest.mark.parametrize(
        "table, field, value",
        [
            ("encoders", "x", 5),
            ("encoders", "states", 5),
            ("decoders", "y", 5),
            ("encoders", "x", [[0]]),
        ],
    )
    def test_correlated_entry_fields_must_be_arrays(self, table, field, value):
        words = (basis_state(2, 0).to_density(), basis_state(2, 1).to_density())
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))
        povm = computational_povm(2)
        code = CorrelatedCode(1, 1, src, {(0,): words, (1,): words}, {(0,): povm, (1,): povm})
        doc = to_document(code)
        doc[table][0][field] = value
        with pytest.raises(SchemaError) as err:
            from_document(doc)
        assert err.value.path == f"$.{table}[0].{field}"

    @pytest.mark.parametrize("value", [True, False, 0, -1, 1.0, "1"])
    @pytest.mark.parametrize("field", ["l", "r"])
    def test_code_lengths_are_positive_integers(self, field, value):
        words = (basis_state(2, 0).to_density(), basis_state(2, 1).to_density())
        povm = computational_povm(2)
        src = BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))
        correlated = to_document(
            CorrelatedCode(1, 1, src, {(0,): words, (1,): words}, {(0,): povm, (1,): povm})
        )
        correlated[field] = value
        docs = {"$": correlated}
        if field == "l":
            random = to_document(RandomCode((DeterministicCode(1, words, povm),), [1.0]))
            random["support"][0]["l"] = value
            docs["$.support[0]"] = random
        for at, doc in docs.items():
            with pytest.raises(SchemaError) as err:
                from_document(doc)
            assert err.value.path == f"{at}.{field}"

    def test_semantic_errors_left_to_constructors(self):
        doc = {"kind": "density_matrix", "matrix": [[0.9, 0.0], [0.0, 0.9]]}
        with pytest.raises(ValidationError):
            from_document(doc)


def correlated_doc(**fields) -> dict:
    words = (basis_state(2, 0).to_density(), basis_state(2, 1).to_density())
    src = BipartiteSource((0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))
    povm = computational_povm(2)
    doc = to_document(
        CorrelatedCode(1, 1, src, {(0,): words, (1,): words}, {(0,): povm, (1,): povm})
    )
    return dict(json.loads(json.dumps(doc)), **fields)


def _bool_sites():
    """For each kind that held a number a bool could pass as: a document, where, the path."""
    words = (basis_state(2, 0).to_density(), basis_state(2, 1).to_density())
    det = DeterministicCode(1, words, computational_povm(2))
    return {
        "density_matrix": (to_document(words[0]), ("matrix", 1, 1), "$.matrix[1][1]"),
        "povm": (
            to_document(computational_povm(2)),
            ("elements", 0, 0, 0, 1),
            "$.elements[0][0][0]",
        ),
        "pure_state": (to_document(basis_state(2, 0)), ("amplitudes", 0), "$.amplitudes[0]"),
        "random_code": (to_document(RandomCode((det,), [1.0])), ("weights", 0), "$.weights[0]"),
        "bipartite_source": (
            to_document(BipartiteSource((0, 1), (0, 1), np.eye(2) / 2)),
            ("joint", 0, 1),
            "$.joint[0][1]",
        ),
    }


class TestNumberRule:
    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("kind", sorted(_bool_sites()))
    def test_a_bool_is_not_a_number(self, kind, value):
        doc, keys, at = _bool_sites()[kind]
        doc = json.loads(json.dumps(doc))
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        with pytest.raises(SchemaError) as err:
            from_document(doc)
        assert err.value.path == at

    def test_an_int_beyond_the_float_range_is_not_finite(self):
        doc = {"kind": "density_matrix", "matrix": [[10**400, 0], [0, 0]]}
        with pytest.raises(SchemaError, match="finite") as err:
            from_document(doc)
        assert err.value.path == "$.matrix[0][0]"

    def test_declared_dims_are_positive_integers(self):
        # true == 1, so only the number rule rejects this
        doc = {"kind": "channel", "dim_in": True, "dim_out": 1, "kraus": [[[1.0]]]}
        with pytest.raises(SchemaError) as err:
            from_document(doc)
        assert err.value.path == "$.dim_in"


class TestKindRule:
    def test_kinds_are_checked_before_decoding(self):
        doc = {"kind": "channel", "kraus": "not decoded"}
        with pytest.raises(SchemaError) as err:
            from_document(doc, kinds={"avqc"})
        assert err.value.path == "$.kind"
        assert "'channel'" in str(err.value)

    def test_sub_documents_have_their_kind_checked(self):
        doc = correlated_doc()
        doc["decoders"][1]["povm"]["kind"] = "density_matrix"
        with pytest.raises(SchemaError) as err:
            from_document(doc)
        assert err.value.path == "$.decoders[1].povm.kind"

    def test_field_decodes_a_sub_document_at_its_path(self):
        envelope = {"kind": "simulation_problem", "code": {"kind": "povm"}}
        with pytest.raises(SchemaError) as err:
            field(envelope, "code", "in.json:$", {"random_code"})
        assert err.value.path == "in.json:$.code.kind"
        with pytest.raises(SchemaError, match="missing field 'avqc'"):
            field(envelope, "avqc", "in.json:$", {"avqc"})


class TestObservationEntries:
    @pytest.mark.parametrize("table, label", [("encoders", "x"), ("decoders", "y")])
    def test_a_repeated_sequence_is_a_schema_error(self, table, label):
        doc = correlated_doc()
        doc[table].append(copy.deepcopy(doc[table][0]))
        with pytest.raises(SchemaError, match="repeats") as err:
            from_document(doc)
        assert err.value.path == f"$.{table}[2].{label}"

    def test_a_huge_block_length_fails_without_forming_the_power(self):
        doc = correlated_doc(l=10**12)
        with pytest.raises(BudgetExceeded, match="observation space"):
            from_document(doc)


class TestDocumentIO:
    def test_write_then_read(self, tmp_path):
        rng = rng_for(95)
        doc = to_document(random_density(rng, 2))
        target = tmp_path / "state.json"
        write_document(doc, str(target))
        assert read_document(str(target)) == doc

    def test_read_reports_filename(self, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text("{]")
        with pytest.raises(SchemaError) as err:
            read_document(str(target))
        assert str(target) in err.value.path

    def test_read_rejects_text_that_is_not_utf8(self, tmp_path):
        target = tmp_path / "utf16.json"
        target.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(SchemaError) as err:
            read_document(str(target))
        assert err.value.path == str(target)
        assert "UTF-8" in str(err.value)

    def test_codec_leaves_the_collector_as_it_found_it(self):
        obj = random_density(rng_for(96), 2)
        for enabled in (True, False):
            if not enabled:
                gc.disable()
            try:
                from_document(loads_document(dumps_document(to_document(obj))))
                with pytest.raises(SchemaError):
                    loads_document("{]")
                assert gc.isenabled() is enabled
            finally:
                gc.enable()

    def test_no_nan_output(self):
        with pytest.raises(ValueError):
            dumps_document({"kind": "x", "value": float("nan")})

    def test_stable_key_order(self):
        text = dumps_document({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")


# ---------------------------------------------------------------- fast codec

_NUMBERS = st.one_of(
    st.floats(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([-0.0, 5e-324, 1e16, 2**63, -(2**63) - 1, 2**64, 10**400]),
    st.booleans(),
)
_PAIRS = st.one_of(
    st.lists(_NUMBERS, min_size=2, max_size=2), st.tuples(_NUMBERS, _NUMBERS)
)
_DEFECTS = [
    "string",
    "none",
    "dict",
    "triple",
    "single",
    "empty_entry",
    "empty_row",
    "ragged",
    "tuple_row",
    "deep",
    "numpy_scalar",
    "no_rows",
    "tuple_rows",
]


@st.composite
def json_matrices(draw, defect):
    """Matrices as JSON decodes them, broken in one place by ``defect``."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    form = draw(st.sampled_from(["scalar", "pair", "mixed"]))

    def entry():
        if form == "scalar" or (form == "mixed" and draw(st.booleans())):
            return draw(_NUMBERS)
        return draw(_PAIRS)

    rows = [[entry() for _ in range(m)] for _ in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
    x, y = draw(_NUMBERS), draw(_NUMBERS)
    if defect == "string":
        rows[i][j] = draw(st.text(max_size=3))
    elif defect == "none":
        rows[i][j] = None
    elif defect == "dict":
        rows[i][j] = {}
    elif defect == "triple":
        rows[i][j] = [x, y, x]
    elif defect == "single":
        rows[i][j] = [x]
    elif defect == "empty_entry":
        rows[i][j] = []
    elif defect == "empty_row":
        rows[i] = []
    elif defect == "ragged":
        rows[i] = rows[i][:-1] if m > 1 else rows[i] + [entry()]
    elif defect == "tuple_row":
        rows[i] = tuple(rows[i])
    elif defect == "deep":
        rows[i][j] = [[x], [y]]
    elif defect == "numpy_scalar":
        rows[i][j] = draw(
            st.sampled_from([np.float32(0.5), np.int64(3), np.float64(0.25), np.bool_(True)])
        )
    elif defect == "no_rows":
        rows = []
    elif defect == "tuple_rows":
        rows = tuple(rows)
    return rows


def _decode_outcome(decode, rows):
    try:
        arr = decode(copy.deepcopy(rows), "$.m")
    except (SchemaError, OverflowError) as exc:
        return type(exc), str(exc), getattr(exc, "path", None)
    return arr.dtype, arr.shape, arr.tobytes()


@pytest.mark.parametrize("defect", [None] + _DEFECTS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_matrix_decode_matches_the_per_entry_oracle(defect, data):
    """Same array bits and dtype, or the same error and path, as the walk."""
    rows = data.draw(json_matrices(defect))
    assert _decode_outcome(_matrix_from_json, rows) == _decode_outcome(
        matrix_from_json_oracle, rows
    )


_ESCAPES = "\"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600a"
_TEXT = st.text(alphabet=st.sampled_from(_ESCAPES), max_size=6)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 1e22]),
)
_INTS = st.one_of(st.integers(-(2**80), 2**80), st.sampled_from([0, -1, 2**63, 10**40]))
_LEAVES = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT)
_NUMBER_LISTS = st.lists(st.one_of(_INTS, _FLOATS), max_size=5)
_PAIR_LISTS = st.lists(st.lists(st.one_of(_INTS, _FLOATS), min_size=2, max_size=2), max_size=4)
_BAD_LEAVES = st.sampled_from(
    [math.nan, math.inf, -math.inf, np.float32(0.5), np.int64(3), np.float64(0.25)]
)


def _documents(leaves):
    return st.recursive(
        st.one_of(leaves, _NUMBER_LISTS, _PAIR_LISTS),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.tuples(children, children),
            st.dictionaries(_TEXT, children, max_size=4),
        ),
        max_leaves=25,
    )


def _reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=_documents(_LEAVES))
def test_writer_matches_json_dumps_byte_for_byte(doc):
    assert dumps_document(doc) == _reference(doc)


def _containers(leaves):
    children = st.one_of(leaves, _NUMBER_LISTS, _PAIR_LISTS)
    return st.one_of(
        st.lists(children, min_size=1, max_size=4),
        st.tuples(children, children),
        st.dictionaries(_TEXT, children, min_size=1, max_size=4),
        _NUMBER_LISTS.filter(bool),
        _PAIR_LISTS.filter(bool),
    )


@st.composite
def _aliased_documents(draw):
    """Documents that hold one inner and one outer container several times.

    Both repeat at one depth and at others, the outer container may hold
    the inner one, and either may hold a NaN or an infinity, which sends the
    whole document to ``json.dumps``.
    """
    odd = st.sampled_from([math.nan, math.inf, -math.inf])
    inner = draw(_containers(st.one_of(_LEAVES, odd)))
    outer = draw(_containers(st.one_of(_LEAVES, odd, st.just(inner))))
    tree = st.recursive(
        st.one_of(_LEAVES, st.just(inner), st.just(outer)),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.tuples(children, children),
            st.dictionaries(_TEXT, children, max_size=4),
        ),
        max_leaves=12,
    )
    parts = draw(st.lists(tree, max_size=3))
    parts += [outer, outer, {"again": [outer, (inner,)]}, inner]
    return draw(st.permutations(parts))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=_aliased_documents())
def test_writer_matches_json_dumps_on_shared_subdocuments(doc):
    """A list or dict held several times renders as ``json.dumps`` renders it."""
    try:
        expected = _reference(doc)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            dumps_document(doc)
        assert str(err.value) == str(exc)
    else:
        assert dumps_document(doc) == expected


def test_composed_code_shares_the_documents_of_its_first_phase():
    """Entries with one first-phase prefix hold the same states and POVM."""
    words = (basis_state(2, 0).to_density(), basis_state(2, 1).to_density())
    povm = computational_povm(2)
    source = BipartiteSource((0, 1), (0, 1), np.array([[0.4, 0.1], [0.1, 0.4]]))
    cr_code = CorrelatedCode(
        1, 1, source, {(0,): words, (1,): words}, {(0,): povm, (1,): povm}
    )
    swapped = DeterministicCode(1, words[::-1], Povm(povm.elements[::-1]))
    payload = RandomCode(
        (DeterministicCode(1, words, povm), swapped), np.array([0.5, 0.5])
    )
    composed = compose_two_phase(cr_code, payload, 2)
    doc = to_document(composed)
    for side, label, field in (("encoders", "x", "states"), ("decoders", "y", "povm")):
        by_prefix: dict = {}
        for entry in doc[side]:
            by_prefix.setdefault(entry[label][0], []).append(entry[field])
        assert sorted(by_prefix) == [0, 1]
        for parts in by_prefix.values():
            assert len(parts) == 2 and parts[0] is parts[1]
        assert by_prefix[0][0] is not by_prefix[1][0]
    text = dumps_document(doc)
    assert text == _reference(doc)
    assert json.loads(text) == doc
    assert dumps_document(to_document(from_document(json.loads(text)))) == text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    doc=_documents(_LEAVES),
    bad=st.one_of(
        _BAD_LEAVES,
        st.builds(lambda v: {1: v}, _LEAVES),
        st.builds(lambda v: {1: v, "a": v}, _LEAVES),
        st.builds(lambda v: [[v, 1.0]], _BAD_LEAVES),
        st.builds(lambda v: [1, v], _BAD_LEAVES),
    ),
    first=st.booleans(),
)
def test_writer_defers_what_it_does_not_render(doc, bad, first):
    """The same text, or the same exception, as ``json.dumps``."""
    wrapped = {"bad": bad, "doc": doc} if first else [doc, {"z": bad}]
    try:
        expected = _reference(wrapped)
    except (ValueError, TypeError) as exc:
        with pytest.raises(type(exc)) as err:
            dumps_document(wrapped)
        assert str(err.value) == str(exc)
    else:
        assert dumps_document(wrapped) == expected


def test_writer_on_circular_and_deep_documents():
    loop: dict = {"a": [1.0]}
    loop["self"] = loop
    with pytest.raises(ValueError, match="Circular reference"):
        dumps_document(loop)
    deep: list = [0.5]
    for _ in range(300):
        deep = [deep, 1]
    assert dumps_document(deep) == _reference(deep)


def _nested(depth: int) -> list:
    doc: list = [0.5]
    for _ in range(depth):
        doc = [doc]
    return doc


def _dumps_outcome(dumps, doc):
    try:
        return dumps(doc)
    except RecursionError:
        return RecursionError


def test_writer_meets_recursion_limit_where_json_dumps_does():
    low, high = 1, 4 * sys.getrecursionlimit()
    while high - low > 1:  # the shallowest nesting json.dumps cannot write
        mid = (low + high) // 2
        if _dumps_outcome(_reference, _nested(mid)) is RecursionError:
            high = mid
        else:
            low = mid
    for depth in (low, high):
        doc = _nested(depth)
        assert _dumps_outcome(dumps_document, doc) == _dumps_outcome(_reference, doc)
