"""JSON documents for every object kind, with exact float round-trips.

Every document is a JSON object with a top-level ``"kind"`` discriminator.
Complex numbers serialize as two-element arrays ``[re, im]`` and matrices as
nested row-major arrays of those pairs. Floats are emitted through Python's
shortest round-trip repr, so dump/load is bit-exact at double precision.
Decode errors raise :class:`SchemaError` carrying the JSON path of the
offending field. Every label list (family states, cq letters, source
alphabets, observation sequences) holds JSON scalars only; family state and
letter labels are read as their ``str()``.

:func:`dumps_document` returns exactly ``json.dumps(doc, sort_keys=True,
indent=2, allow_nan=False) + "\\n"``, but renders each array of numbers, and
each array of ``[re, im]`` number pairs, with one ``str.join``, and renders a
list or dict that the document holds again at the same depth only once.
:func:`to_document` encodes an object it meets again to the same
sub-document, so the repeats of a composed or sampled code cost one
rendering each. Anything the writer does not render (non-``str`` keys, numpy
scalars, non-finite floats, nesting deeper than ``_MAX_DEPTH``) sends the
whole document to ``json.dumps``, so the bytes or the exception are the
same. A matrix whose rows are lists of one width, holding only plain numbers
or only plain number pairs, decodes in one ``np.array`` call; any other
input goes through the per-entry walk, which accepts or rejects it as before
and names the offending path. Parsing, decoding and encoding run with the
cyclic garbage collector paused.
"""

from __future__ import annotations

import cmath
import gc
import json
import math
from contextlib import contextmanager
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .avqc import AvCqc, Avqc, ClassicalAvc, CqChannel
from .codes import CorrelatedCode, DeterministicCode, RandomCode
from .correlation import BipartiteSource
from .errors import SchemaError, ValidationError
from .quantum import DensityMatrix, Povm, PureState, QuantumChannel

__all__ = [
    "to_document",
    "from_document",
    "probes_to_document",
    "dumps_document",
    "loads_document",
    "read_document",
    "write_document",
]

# Exact leaf types of the fast paths. ``bool`` is a type of its own here, and
# subclasses (numpy scalars among them) take the slow paths.
_NUMBERS = frozenset((int, float))
_DECODED_NUMBERS = frozenset((int, float, bool))


def _complex_to_json(arr) -> list:
    """Nested lists of ``[re, im]`` float pairs, one per complex entry."""
    arr = np.ascontiguousarray(arr, dtype=complex)
    return arr.view(float).reshape(arr.shape + (2,)).tolist()


def _real_to_json(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


@contextmanager
def _collector_paused():
    """Hold off the cyclic garbage collector while a document is built or read.

    Decoding and encoding make hundreds of thousands of lists, none of them
    in a reference cycle, and each counts toward the collector's thresholds;
    its passes over the heap took longer than the decode of a 9 MB document.
    The collector runs again as soon as the call returns, and one that the
    caller had turned off stays off.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _expect(doc: Any, key: str, path: str) -> Any:
    if not isinstance(doc, dict):
        raise SchemaError(f"expected an object", path=path)
    if key not in doc:
        raise SchemaError(f"missing field {key!r}", path=path)
    return doc[key]


def positive_int(doc: Any, key: str, path: str) -> int:
    """The field ``key`` of ``doc``, which must be an integer >= 1 and not a bool."""
    value = _expect(doc, key, path)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SchemaError("expected a positive integer", path=f"{path}.{key}")
    return value


def _as_complex(entry: Any, path: str) -> complex:
    if isinstance(entry, (int, float)):
        value = complex(float(entry), 0.0)
    elif (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(v, (int, float)) for v in entry)
    ):
        value = complex(float(entry[0]), float(entry[1]))
    else:
        raise SchemaError("expected a number or an [re, im] pair", path=path)
    if not cmath.isfinite(value):
        raise SchemaError("expected a finite number", path=path)
    return value


def _matrix_walk(rows: Any, path: str) -> np.ndarray:
    """Per-entry decode: the matrices the fast path leaves, and every error path."""
    if not isinstance(rows, list) or not rows:
        raise SchemaError("expected a non-empty array of rows", path=path)
    width = None
    data = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise SchemaError("expected a non-empty row array", path=f"{path}[{i}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(
                f"row has {len(row)} entries, expected {width}", path=f"{path}[{i}]"
            )
        data.append([_as_complex(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(data, dtype=complex)


def _matrix_fast(rows: Any) -> np.ndarray | None:
    """One ``np.array`` call on the flattened entries of plain rows; None otherwise.

    Every row must be a list of the same width, holding only plain finite
    numbers or only pairs of them. Types are checked before numpy sees the
    entries, so numpy never accepts what the walk rejects (tuple rows, numpy
    scalars), and ``dtype=float`` converts each int as ``float()`` does.
    """
    if type(rows) is not list or set(map(type, rows)) != {list}:
        return None
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    shape = (len(rows), widths.pop())
    entries = list(chain.from_iterable(rows))
    kinds = set(map(type, entries))
    if kinds <= _DECODED_NUMBERS:
        leaves = entries
    elif kinds <= {list, tuple} and set(map(len, entries)) == {2}:
        leaves = list(chain.from_iterable(entries))
        if not set(map(type, leaves)) <= _DECODED_NUMBERS:
            return None
    else:
        return None
    try:
        flat = np.array(leaves, dtype=float)
    except OverflowError:  # an int beyond float range; the walk raises it
        return None
    if not np.isfinite(flat).all():  # NaN, Infinity or 1e400; the walk names the entry
        return None
    if leaves is entries:
        return flat.astype(complex).reshape(shape)
    return flat.view(complex).reshape(shape)


def _matrix_from_json(rows: Any, path: str) -> np.ndarray:
    mat = _matrix_fast(rows)
    return _matrix_walk(rows, path) if mat is None else mat


def _real_matrix_from_json(rows: Any, path: str) -> np.ndarray:
    mat = _matrix_from_json(rows, path)
    if np.any(mat.imag != 0.0):
        raise SchemaError("expected real entries", path=path)
    return mat.real


def _vector_from_json(entries: Any, path: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise SchemaError("expected a non-empty array", path=path)
    out = []
    for i, v in enumerate(entries):
        if not isinstance(v, (int, float)):
            raise SchemaError("expected a number", path=f"{path}[{i}]")
        if isinstance(v, float) and not math.isfinite(v):
            raise SchemaError("expected a finite number", path=f"{path}[{i}]")
        out.append(float(v))
    return np.array(out)


# ---------------------------------------------------------------- encoding


def _once(obj: Any, memo: dict, make) -> Any:
    """``make(obj)``, called once per object identity within one encoding.

    The memo holds ``obj`` beside its document, so no object made while the
    encoding runs can take over its id.
    """
    hit = memo.get(id(obj))
    if hit is None:
        hit = memo[id(obj)] = (obj, make(obj))
    return hit[1]


def _states(states, memo: dict) -> list:
    """The matrices of a tuple of density matrices, shared by its repeats."""
    return _once(
        states, memo, lambda seq: [_complex_to_json(rho.matrix) for rho in seq]
    )


def _encode(obj: Any, memo: dict) -> dict:
    return _once(obj, memo, lambda o: _build_document(o, memo))


def _build_document(obj: Any, memo: dict) -> dict:
    if isinstance(obj, DensityMatrix):
        return {"kind": "density_matrix", "matrix": _complex_to_json(obj.matrix)}
    if isinstance(obj, PureState):
        return {
            "kind": "pure_state",
            "amplitudes": _complex_to_json(obj.amplitudes),
        }
    if isinstance(obj, QuantumChannel):
        return {
            "kind": "channel",
            "dim_in": obj.dim_in,
            "dim_out": obj.dim_out,
            "kraus": [_complex_to_json(op) for op in obj.kraus],
        }
    if isinstance(obj, Povm):
        return {
            "kind": "povm",
            "elements": [_complex_to_json(el) for el in obj.elements],
        }
    if isinstance(obj, Avqc):
        return {
            "kind": "avqc",
            "states": [str(s) for s in obj.states],
            "channels": {str(s): _encode(obj.channels[s], memo) for s in obj.states},
        }
    if isinstance(obj, AvCqc):
        return {
            "kind": "av_cqc",
            "states": [str(s) for s in obj.states],
            "alphabet": [str(x) for x in obj.alphabet],
            "branches": {
                str(s): [
                    _complex_to_json(obj.branches[s].outputs[x].matrix)
                    for x in obj.alphabet
                ]
                for s in obj.states
            },
        }
    if isinstance(obj, ClassicalAvc):
        return {
            "kind": "classical_avc",
            "states": [str(s) for s in obj.states],
            "kernels": {
                str(s): _real_to_json(obj.kernels[s]) for s in obj.states
            },
        }
    if isinstance(obj, BipartiteSource):
        return {
            "kind": "bipartite_source",
            "x_alphabet": list(obj.x_alphabet),
            "y_alphabet": list(obj.y_alphabet),
            "joint": _real_to_json(obj.joint),
        }
    if isinstance(obj, DeterministicCode):
        return {
            "kind": "deterministic_code",
            "l": obj.l,
            "encoder": _states(obj.encoder, memo),
            "decoder": _encode(obj.decoder, memo),
        }
    if isinstance(obj, RandomCode):
        return {
            "kind": "random_code",
            "support": [_encode(det, memo) for det in obj.support],
            "weights": _real_to_json(obj.weights),
        }
    if isinstance(obj, CorrelatedCode):
        return {
            "kind": "correlated_code",
            "l": obj.l,
            "r": obj.r,
            "source": _encode(obj.source, memo),
            "encoders": [
                {"x": list(x), "states": _states(enc, memo)}
                for x, enc in sorted(obj.encoders.items(), key=lambda kv: repr(kv[0]))
            ],
            "decoders": [
                {"y": list(y), "povm": _encode(povm, memo)}
                for y, povm in sorted(obj.decoders.items(), key=lambda kv: repr(kv[0]))
            ],
        }
    raise ValidationError(f"no JSON encoding for {type(obj).__name__}")


def to_document(obj: Any) -> dict:
    """Encode a library object as a self-describing JSON document.

    Within one call, an object met again by identity (a code, a POVM, an
    encoder's tuple of states) encodes to the same sub-document object, so
    the result may share sub-documents. Deep-copy a document before editing
    one of its parts in place.
    """
    with _collector_paused():
        return _encode(obj, {})


# ---------------------------------------------------------------- decoding


def _decode_channel(doc: Any, path: str) -> QuantumChannel:
    kraus_doc = _expect(doc, "kraus", path)
    if not isinstance(kraus_doc, list) or not kraus_doc:
        raise SchemaError("expected a non-empty array", path=f"{path}.kraus")
    ops = [
        _matrix_from_json(op, f"{path}.kraus[{i}]") for i, op in enumerate(kraus_doc)
    ]
    channel = QuantumChannel(tuple(ops))
    for key, value in (("dim_in", channel.dim_in), ("dim_out", channel.dim_out)):
        if key in doc and doc[key] != value:
            raise SchemaError(
                f"declared {key}={doc[key]} but kraus operators give {value}",
                path=f"{path}.{key}",
            )
    return channel


def _decode_povm(doc: Any, path: str) -> Povm:
    elements_doc = _expect(doc, "elements", path)
    if not isinstance(elements_doc, list) or not elements_doc:
        raise SchemaError("expected a non-empty array", path=f"{path}.elements")
    return Povm(
        tuple(
            _matrix_from_json(el, f"{path}.elements[{i}]")
            for i, el in enumerate(elements_doc)
        )
    )


def _decode_density(doc: Any, path: str) -> DensityMatrix:
    return DensityMatrix(_matrix_from_json(_expect(doc, "matrix", path), f"{path}.matrix"))


def _is_label(value: Any) -> bool:
    """Labels are JSON scalars: strings, numbers, booleans or null."""
    return not isinstance(value, (list, dict))


def _decode_labels(doc: Any, key: str, path: str) -> list:
    labels = _expect(doc, key, path)
    if not isinstance(labels, list) or not labels:
        raise SchemaError("expected a non-empty array", path=f"{path}.{key}")
    if not all(map(_is_label, labels)):
        raise SchemaError(
            "labels must be strings, numbers, booleans or null", path=f"{path}.{key}"
        )
    return labels


def _decode_avqc(doc: Any, path: str) -> Avqc:
    states = _decode_labels(doc, "states", path)
    channels_doc = _expect(doc, "channels", path)
    if not isinstance(channels_doc, dict):
        raise SchemaError("expected an object", path=f"{path}.channels")
    channels = {}
    for s in states:
        key = str(s)
        if key not in channels_doc:
            raise SchemaError(f"missing channel for state {key!r}", path=f"{path}.channels")
        channels[key] = _decode_channel(channels_doc[key], f"{path}.channels.{key}")
    return Avqc(tuple(str(s) for s in states), channels)


def _decode_av_cqc(doc: Any, path: str) -> AvCqc:
    states = _decode_labels(doc, "states", path)
    alphabet = _decode_labels(doc, "alphabet", path)
    branches_doc = _expect(doc, "branches", path)
    if not isinstance(branches_doc, dict):
        raise SchemaError("expected an object", path=f"{path}.branches")
    branches = {}
    for s in states:
        key = str(s)
        if key not in branches_doc:
            raise SchemaError(f"missing branch for state {key!r}", path=f"{path}.branches")
        row = branches_doc[key]
        if not isinstance(row, list) or len(row) != len(alphabet):
            raise SchemaError(
                f"expected {len(alphabet)} output states", path=f"{path}.branches.{key}"
            )
        letters = tuple(str(x) for x in alphabet)
        outputs = {
            letters[i]: DensityMatrix(
                _matrix_from_json(row[i], f"{path}.branches.{key}[{i}]")
            )
            for i in range(len(letters))
        }
        branches[key] = CqChannel(letters, outputs)
    return AvCqc(tuple(str(s) for s in states), branches)


def _decode_classical_avc(doc: Any, path: str) -> ClassicalAvc:
    states = _decode_labels(doc, "states", path)
    kernels_doc = _expect(doc, "kernels", path)
    if not isinstance(kernels_doc, dict):
        raise SchemaError("expected an object", path=f"{path}.kernels")
    kernels = {}
    for s in states:
        key = str(s)
        if key not in kernels_doc:
            raise SchemaError(f"missing kernel for state {key!r}", path=f"{path}.kernels")
        kernels[key] = _real_matrix_from_json(kernels_doc[key], f"{path}.kernels.{key}")
    return ClassicalAvc(tuple(str(s) for s in states), kernels)


def _decode_source(doc: Any, path: str) -> BipartiteSource:
    x_alphabet = _decode_labels(doc, "x_alphabet", path)
    y_alphabet = _decode_labels(doc, "y_alphabet", path)
    joint = _real_matrix_from_json(_expect(doc, "joint", path), f"{path}.joint")
    if joint.shape != (len(x_alphabet), len(y_alphabet)):
        raise SchemaError(
            f"joint table shape {joint.shape} does not match the alphabets",
            path=f"{path}.joint",
        )
    return BipartiteSource(tuple(x_alphabet), tuple(y_alphabet), joint)


def _decode_det_code(doc: Any, path: str) -> DeterministicCode:
    l = positive_int(doc, "l", path)
    encoder_doc = _expect(doc, "encoder", path)
    if not isinstance(encoder_doc, list) or not encoder_doc:
        raise SchemaError("expected a non-empty array", path=f"{path}.encoder")
    encoder = tuple(
        DensityMatrix(_matrix_from_json(m, f"{path}.encoder[{i}]"))
        for i, m in enumerate(encoder_doc)
    )
    decoder = _decode_povm(_expect(doc, "decoder", path), f"{path}.decoder")
    return DeterministicCode(l, encoder, decoder)


def _decode_random_code(doc: Any, path: str) -> RandomCode:
    support_doc = _expect(doc, "support", path)
    if not isinstance(support_doc, list) or not support_doc:
        raise SchemaError("expected a non-empty array", path=f"{path}.support")
    support = tuple(
        _decode_det_code(d, f"{path}.support[{i}]") for i, d in enumerate(support_doc)
    )
    weights = _vector_from_json(_expect(doc, "weights", path), f"{path}.weights")
    return RandomCode(support, weights)


def _sequence_key(labels: Any, path: str) -> tuple:
    """An observation sequence as a dict key: an array of hashable labels."""
    if not isinstance(labels, list) or not all(map(_is_label, labels)):
        raise SchemaError("expected an array of labels", path=path)
    return tuple(labels)


def _decode_correlated_code(doc: Any, path: str) -> CorrelatedCode:
    l = positive_int(doc, "l", path)
    r = positive_int(doc, "r", path)
    source = _decode_source(_expect(doc, "source", path), f"{path}.source")
    encoders_doc = _expect(doc, "encoders", path)
    decoders_doc = _expect(doc, "decoders", path)
    if not isinstance(encoders_doc, list) or not isinstance(decoders_doc, list):
        raise SchemaError("expected arrays of entries", path=path)
    encoders = {}
    for i, entry in enumerate(encoders_doc):
        at = f"{path}.encoders[{i}]"
        x = _expect(entry, "x", at)
        states_doc = _expect(entry, "states", at)
        if not isinstance(states_doc, list):
            raise SchemaError("expected an array", path=f"{at}.states")
        states = tuple(
            DensityMatrix(_matrix_from_json(m, f"{at}.states[{j}]"))
            for j, m in enumerate(states_doc)
        )
        encoders[_sequence_key(x, f"{at}.x")] = states
    decoders = {}
    for i, entry in enumerate(decoders_doc):
        at = f"{path}.decoders[{i}]"
        y = _expect(entry, "y", at)
        povm = _decode_povm(_expect(entry, "povm", at), f"{at}.povm")
        decoders[_sequence_key(y, f"{at}.y")] = povm
    return CorrelatedCode(l, r, source, encoders, decoders)


def _decode_pure_state(doc: Any, path: str) -> PureState:
    amplitudes = _expect(doc, "amplitudes", path)
    if not isinstance(amplitudes, list):
        raise SchemaError("expected an array", path=f"{path}.amplitudes")
    return PureState(
        np.array(
            [_as_complex(a, f"{path}.amplitudes[{i}]") for i, a in enumerate(amplitudes)]
        )
    )


def _decode_probe_set(doc: Any, path: str) -> tuple:
    states_doc = _expect(doc, "states", path)
    if not isinstance(states_doc, list) or not states_doc:
        raise SchemaError("expected a non-empty array", path=f"{path}.states")
    return tuple(
        DensityMatrix(_matrix_from_json(m, f"{path}.states[{i}]"))
        for i, m in enumerate(states_doc)
    )


def probes_to_document(probes) -> dict:
    """Encode a sequence of probe density matrices as a probe_set document."""
    return {
        "kind": "probe_set",
        "states": [_complex_to_json(p.matrix) for p in probes],
    }


_DECODERS = {
    "density_matrix": _decode_density,
    "probe_set": _decode_probe_set,
    "pure_state": _decode_pure_state,
    "channel": _decode_channel,
    "povm": _decode_povm,
    "avqc": _decode_avqc,
    "av_cqc": _decode_av_cqc,
    "classical_avc": _decode_classical_avc,
    "bipartite_source": _decode_source,
    "deterministic_code": _decode_det_code,
    "random_code": _decode_random_code,
    "correlated_code": _decode_correlated_code,
}


def from_document(doc: Any, path: str = "$"):
    """Decode a JSON document into the library object its kind names.

    Raises :class:`SchemaError` with the offending JSON path for structural
    problems; semantic validation errors come from the object constructors.
    """
    kind = _expect(doc, "kind", path)
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise SchemaError(
            f"unknown kind {kind!r} (expected one of {sorted(_DECODERS)})",
            path=f"{path}.kind",
        )
    with _collector_paused():
        return decoder(doc, path)


# ---------------------------------------------------------------- writing

_INDENT = "  "
_MAX_DEPTH = 100  # deeper (or circular) documents go to json.dumps


class _Unrendered(Exception):
    """A value the fast writer leaves to ``json.dumps``."""


def _number_list(items: list, sep: str) -> str | None:
    """The joined items of a list of plain ints and floats, else None."""
    if not set(map(type, items)) <= _NUMBERS:
        return None
    return sep.join(map(repr, items))


def _pair_list(items: list, nl: str) -> str | None:
    """The joined items of a list of ``[x, y]`` lists of plain numbers, else None.

    ``nl`` is the newline and indent of the pairs; their entries sit one
    level deeper.
    """
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    if not set(map(type, chain.from_iterable(items))) <= _NUMBERS:
        return None
    inner = nl + _INDENT
    leaves = iter(map(repr, chain.from_iterable(items)))
    pairs = map(("," + inner).join, zip(leaves, leaves))
    return "[" + inner + (nl + "]," + nl + "[" + inner).join(pairs) + nl + "]"


def _render(value: Any, level: int, out: list, spans: dict) -> None:
    """Append the ``json.dumps(..., sort_keys=True, indent=2)`` text of value.

    ``spans`` maps ``(id, level)`` of each list or dict already rendered to
    the slice of ``out`` that holds its text, or to that text once a repeat
    has joined it; a repeat appends the text instead of rendering again.
    The document holds every container it renders, so no id is reused.
    """
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is float:
        if not math.isfinite(value):
            raise _Unrendered
        out.append(repr(value))
    elif kind is int:
        out.append(repr(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is list or kind is tuple or kind is dict:
        if not value:
            out.append("{}" if kind is dict else "[]")
            return
        key = (id(value), level)
        span = spans.get(key)
        if span is not None:
            if type(span) is tuple:
                span = spans[key] = "".join(out[span[0] : span[1]])
            out.append(span)
            return
        if level >= _MAX_DEPTH:
            raise _Unrendered
        start = len(out)
        nl = "\n" + _INDENT * (level + 1)
        sep = "," + nl
        if kind is dict:
            if set(map(type, value)) != {str}:
                raise _Unrendered
            out.append("{")
            for i, name in enumerate(sorted(value)):
                out += (sep if i else nl, encode_basestring_ascii(name), ": ")
                _render(value[name], level + 1, out, spans)
            out += ("\n", _INDENT * level, "}")
        else:
            body = _number_list(value, sep)
            if body is None and kind is list:
                body = _pair_list(value, nl)
            if body is not None:
                if "n" in body:  # nan, inf or -inf: no other number repr has an n
                    raise _Unrendered
                out += ("[", nl, body, "\n", _INDENT * level, "]")
            else:
                out.append("[")
                for i, item in enumerate(value):
                    out.append(sep if i else nl)
                    _render(item, level + 1, out, spans)
                out += ("\n", _INDENT * level, "]")
        spans[key] = (start, len(out))
    else:
        raise _Unrendered


def dumps_document(doc: dict) -> str:
    """Serialize a document with sorted keys; floats round-trip bit-exactly.

    Returns exactly ``json.dumps(doc, sort_keys=True, indent=2,
    allow_nan=False) + "\\n"``, and raises what that call raises. A list or
    dict that the document holds more than once, at the same depth, is
    rendered once.
    """
    out: list = []
    try:
        _render(doc, 0, out, {})
    except (_Unrendered, ValueError, RecursionError):
        # ValueError: an int beyond the interpreter's str conversion limit
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    out.append("\n")
    return "".join(out)


def loads_document(text: str | bytes, origin: str = "<string>") -> Any:
    """Parse JSON text; bytes must be UTF-8. Errors raise :class:`SchemaError`."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(
                f"not UTF-8 text: {exc.reason} at byte {exc.start}", path=origin
            ) from exc
    try:
        with _collector_paused():
            return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"malformed JSON: {exc.msg}", path=f"{origin}:{exc.lineno}:{exc.colno}"
        ) from exc


def read_document(filename: str) -> Any:
    with open(filename, "rb") as handle:
        raw = handle.read()
    return loads_document(raw, origin=filename)


def write_document(doc: dict, filename: str) -> None:
    with open(filename, "w", encoding="utf-8") as handle:
        handle.write(dumps_document(doc))
