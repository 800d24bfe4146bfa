"""Malformed documents of every kind fail as library errors, and the CLI exits 2 or 3.

A valid document of each kind has one leaf changed: set to a bool, null, a
string, a list or an object, deleted, or its ``kind`` made a non-string.
Decoding must then return or raise an ``AvqclabError``; nothing else may
escape. The command line reads the same document alone (``validate``) and
inside each envelope that holds its kind.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avqclab import (
    Avqc,
    AvCqc,
    BipartiteSource,
    ClassicalAvc,
    CorrelatedCode,
    CqChannel,
    DeterministicCode,
    RandomCode,
    SchemaError,
    basis_state,
    bit_flip_channel,
    computational_povm,
    from_document,
    identity_channel,
    probes_to_document,
    to_document,
)
from avqclab.cli import run
from avqclab.errors import AvqclabError

WORDS = (basis_state(2, 0).to_density(), basis_state(2, 1).to_density())
POVM = computational_povm(2)
DET = DeterministicCode(1, WORDS, POVM)
SOURCE = BipartiteSource((0, 1), (0, 1), np.eye(2) / 2)
AVQC = Avqc(("a", "b"), {"a": identity_channel(2), "b": bit_flip_channel(0.25)})


def valid_documents() -> dict:
    cq = CqChannel((0, 1), {0: WORDS[0], 1: WORDS[1]})
    return {
        "density_matrix": to_document(WORDS[0]),
        "probe_set": probes_to_document(WORDS),
        "pure_state": to_document(basis_state(2, 1)),
        "channel": to_document(bit_flip_channel(0.25)),
        "povm": to_document(POVM),
        "avqc": to_document(AVQC),
        "av_cqc": to_document(AvCqc(("s",), {"s": cq})),
        "classical_avc": to_document(ClassicalAvc(("a",), {"a": np.eye(2)})),
        "bipartite_source": to_document(SOURCE),
        "deterministic_code": to_document(DET),
        "random_code": to_document(RandomCode((DET, DET), np.array([0.5, 0.5]))),
        "correlated_code": to_document(
            CorrelatedCode(1, 1, SOURCE, {(0,): WORDS, (1,): WORDS}, {(0,): POVM, (1,): POVM})
        ),
    }


VALID = {kind: json.loads(json.dumps(doc)) for kind, doc in valid_documents().items()}

# (command, envelope kind or None, field of the envelope) for each document kind
ENVELOPES = {
    "avqc": [("symcheck", None, None), ("simulate", "simulation_problem", "avqc"),
             ("reduce", "reduction_problem", "avqc")],
    "av_cqc": [("capacity", None, None)],
    "bipartite_source": [("cr", None, None)],
    "deterministic_code": [("simulate", "simulation_problem", "code")],
    "random_code": [("simulate", "simulation_problem", "code"),
                    ("reduce", "reduction_problem", "code"),
                    ("compose", "composition_problem", "payload")],
    "correlated_code": [("simulate", "simulation_problem", "code"),
                        ("compose", "composition_problem", "cr_code")],
}
PROBLEMS = {
    "simulation_problem": {"avqc": VALID["avqc"], "code": VALID["deterministic_code"]},
    "reduction_problem": {
        "avqc": VALID["avqc"], "code": VALID["random_code"], "l": 1, "sample_count": 2, "eps": 0.5,
    },
    "composition_problem": {
        "cr_code": VALID["correlated_code"], "payload": VALID["random_code"], "target_l": 2,
    },
}

REPLACEMENTS = [True, False, None, "x", [], {}]
BAD_KINDS = [[], {}, 1, None, True, ["avqc"]]


def leaf_paths(doc, prefix=()):
    """Paths to every leaf of a document, and to every empty container."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


def kind_holders(doc, prefix=()):
    """Paths to every object with a ``kind`` field."""
    if isinstance(doc, dict):
        if "kind" in doc:
            yield prefix
        for key, value in doc.items():
            yield from kind_holders(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from kind_holders(value, prefix + (i,))


@st.composite
def mutations(draw):
    """A document kind, and its valid document with one change."""
    kind = draw(st.sampled_from(sorted(VALID)))
    doc = copy.deepcopy(VALID[kind])
    if draw(st.integers(0, 4)) == 0:
        path = draw(st.sampled_from(list(kind_holders(doc)))) + ("kind",)
        value = draw(st.sampled_from(BAD_KINDS))
    else:
        path = draw(st.sampled_from(list(leaf_paths(doc))))
        value = draw(st.sampled_from(REPLACEMENTS + ["delete"]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return kind, doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


def decodes(doc) -> bool:
    try:
        from_document(copy.deepcopy(doc))
    except AvqclabError:
        return False
    return True


def cli_exit(workdir, argv_head, doc, extra=()) -> int:
    path = workdir / "input.json"
    path.write_text(json.dumps(doc))
    return run(argv_head + ["--input", str(path), "--out", str(workdir / "out.json"), *extra])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=mutations())
def test_one_changed_leaf_decodes_or_raises_a_library_error(case):
    _, doc = case
    decodes(doc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=mutations())
def test_one_changed_leaf_exits_2_or_3_in_every_envelope(workdir, case):
    kind, doc = case
    allowed = (0, 2, 3) if decodes(doc) else (2, 3)
    assert cli_exit(workdir, ["validate"], doc) in allowed
    for command, envelope, key in ENVELOPES.get(kind, []):
        if envelope is None:
            outer = doc
        else:
            outer = dict(copy.deepcopy(PROBLEMS[envelope]), kind=envelope)
            outer[key] = doc
        assert cli_exit(workdir, [command], outer) in allowed, command
    if kind == "probe_set":
        probes = workdir / "probes.json"
        probes.write_text(json.dumps(doc))
        avqc_exit = cli_exit(workdir, ["symcheck"], VALID["avqc"], ("--probes", str(probes)))
        assert avqc_exit in allowed


@pytest.mark.parametrize("kind", sorted(VALID))
def test_a_non_string_kind_is_a_schema_error(kind):
    for bad in BAD_KINDS:
        with pytest.raises(SchemaError) as err:
            from_document(dict(VALID[kind], kind=bad))
        assert err.value.path == "$.kind"
