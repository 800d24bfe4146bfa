"""JSON documents for every object kind, with exact float round-trips.

Every document is a JSON object with a top-level ``"kind"`` discriminator.
Complex numbers serialize as two-element arrays ``[re, im]`` and matrices as
nested row-major arrays of those pairs. Floats are emitted through Python's
shortest round-trip repr, so dump/load is bit-exact at double precision.
Decode errors raise :class:`SchemaError` carrying the JSON path of the
offending field. Every field goes through the same few readers, which the
command line uses as well: a number is a finite int or float, never a bool
(:func:`finite_real`, :func:`positive_int`); a kind is a string that is
checked against the kinds its place allows before anything is decoded
(:func:`document_kind`, :func:`from_document`, :func:`field`); arrays are
non-empty. Every label list (family states, cq letters, source alphabets,
observation sequences) holds JSON scalars only; family state and letter
labels are read as their ``str()``, and no two observation entries of a
correlated code may hold the same sequence. A ``classical_avc`` document,
one stochastic kernel per state with a row per input letter, is an input
spelling of a cq family: it decodes to the diagonal ``AvCqc`` with letters
"0", "1", ... (``avqc._classical_family``), which encodes as ``av_cqc``.

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
input goes through the per-entry walk, which applies the number rule and
names the offending path. Equal ``encoders`` or ``decoders`` entries of a
correlated code, the repeats the writer renders once, are decoded once and
share one object (:func:`_observations`). Parsing, decoding and encoding run
with the cyclic garbage collector paused.
"""

from __future__ import annotations

import gc
import json
import marshal
import math
from contextlib import contextmanager
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .avqc import AvCqc, Avqc, CqChannel, _classical_family
from .codes import CorrelatedCode, DeterministicCode, RandomCode
from .correlation import BipartiteSource
from .errors import SchemaError, ValidationError
from .quantum import DensityMatrix, Povm, PureState, QuantumChannel
from .util import check_int, check_labels

__all__ = [
    "to_document",
    "from_document",
    "probes_to_document",
    "dumps_document",
    "loads_document",
    "write_document",
]

# Exact leaf types of the fast paths. Each is a number by ``_is_number``; a bool,
# or any subclass of int or float, takes the per-entry walk.
_NUMBERS = frozenset((int, float))

# Types that marshal writes by exact type. It writes any other object that
# exposes a buffer (bytes, a numpy scalar) as its raw bytes, so np.float64(1.0)
# and the int64 of the same bits write alike; values holding such objects are
# kept out of the memo of ``_observations``.
_SEQUENCES = frozenset((list, tuple))
_CONTAINERS = _SEQUENCES | {dict}
_MARSHAL_EXACT = _CONTAINERS | {str, int, float, bool, type(None)}


def _marshal_exact(value: Any) -> bool:
    """Whether ``value`` is built of ``_MARSHAL_EXACT`` types alone, one nesting level at a time."""
    level = [value]
    while True:
        kinds = set(map(type, level))
        if not kinds <= _MARSHAL_EXACT:
            return False
        if kinds.isdisjoint(_CONTAINERS):
            return True
        if not kinds <= _SEQUENCES:
            level = [v for v in level if type(v) in _CONTAINERS]
            level += [v.values() for v in level if type(v) is dict]
        level = list(chain.from_iterable(level))


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


def _at(doc: Any, key: str, path: str) -> tuple[Any, str]:
    """The field ``key`` of the object ``doc``, and its path."""
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", path=path)
    if key not in doc:
        raise SchemaError(f"missing field {key!r}", path=path)
    return doc[key], f"{path}.{key}"


def _is_number(value: Any) -> bool:
    """The number rule of every field: an int or a float, never a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value: Any, path: str) -> float:
    """A number as a finite float; an int beyond the float range is not finite."""
    if not _is_number(value):
        raise SchemaError("expected a number", path=path)
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise SchemaError("expected a finite number", path=path)
    return out


def positive_int(doc: Any, key: str, path: str) -> int:
    """The field ``key`` of ``doc``, which must be an integer >= 1 (``util.check_int``)."""
    value, at = _at(doc, key, path)
    try:
        return check_int(value, 1, key)
    except ValidationError:
        raise SchemaError("expected a positive integer", path=at) from None


def finite_real(doc: Any, key: str, path: str) -> int | float:
    """The field ``key`` of ``doc``, which must be a finite number; returned as given."""
    value, at = _at(doc, key, path)
    _finite(value, at)
    return value


def _each(items: Any, path: str, decode) -> list:
    """``decode(item, path)`` of each item of a non-empty array."""
    if not isinstance(items, list) or not items:
        raise SchemaError("expected a non-empty array", path=path)
    return [decode(item, f"{path}[{i}]") for i, item in enumerate(items)]


def _as_complex(entry: Any, path: str) -> complex:
    parts = entry if isinstance(entry, (list, tuple)) and len(entry) == 2 else (entry, 0.0)
    if not all(map(_is_number, parts)):
        raise SchemaError("expected a number or an [re, im] pair", path=path)
    return complex(*(_finite(v, path) for v in parts))


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
    entries, so numpy never accepts what the walk rejects (booleans, tuple
    rows, numpy scalars), and ``dtype=float`` converts each int as
    ``float()`` does.
    """
    if type(rows) is not list or set(map(type, rows)) != {list}:
        return None
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    shape = (len(rows), widths.pop())
    entries = list(chain.from_iterable(rows))
    kinds = set(map(type, entries))
    if kinds <= _NUMBERS:
        leaves = entries
    elif kinds <= {list, tuple} and set(map(len, entries)) == {2}:
        leaves = list(chain.from_iterable(entries))
        if not set(map(type, leaves)) <= _NUMBERS:
            return None
    else:
        return None
    try:
        flat = np.array(leaves, dtype=float)
    except OverflowError:  # an int beyond float range; the walk names the entry
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


def _density(rows: Any, path: str) -> DensityMatrix:
    return DensityMatrix(_matrix_from_json(rows, path))


def _densities(items: Any, path: str) -> tuple:
    return tuple(_each(items, path, _density))


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
    channel = QuantumChannel(tuple(_each(*_at(doc, "kraus", path), _matrix_from_json)))
    for key, value in (("dim_in", channel.dim_in), ("dim_out", channel.dim_out)):
        if key in doc and positive_int(doc, key, path) != value:
            raise SchemaError(
                f"declared {key}={doc[key]} but kraus operators give {value}",
                path=f"{path}.{key}",
            )
    return channel


def _decode_povm(doc: Any, path: str) -> Povm:
    return Povm(tuple(_each(*_at(doc, "elements", path), _matrix_from_json)))


def _is_label(value: Any) -> bool:
    """Labels are JSON scalars: strings, numbers, booleans or null."""
    return not isinstance(value, (list, dict))


def _labels(doc: Any, key: str, path: str) -> tuple:
    labels, at = _at(doc, key, path)
    if not all(_each(labels, at, lambda label, _: _is_label(label))):
        raise SchemaError("labels must be strings, numbers, booleans or null", path=at)
    return tuple(labels)


def _label_table(doc: Any, key: str, path: str, decode) -> tuple[tuple, dict]:
    """The state labels as strings, exactly the keys of ``doc[key]``, and each entry decoded."""
    states = tuple(map(str, _labels(doc, "states", path)))
    table, at = _at(doc, key, path)
    if not isinstance(table, dict):
        raise SchemaError("expected an object", path=at)
    try:
        check_labels(states, "states", table)
    except ValidationError as exc:
        raise SchemaError(str(exc), path=at) from None
    return states, {s: decode(table[s], f"{at}.{s}") for s in states}


def _decode_avqc(doc: Any, path: str) -> Avqc:
    return Avqc(*_label_table(doc, "channels", path, partial(_decode, kinds={"channel"})))


def _decode_av_cqc(doc: Any, path: str) -> AvCqc:
    letters = tuple(map(str, _labels(doc, "alphabet", path)))

    def branch(row: Any, at: str) -> CqChannel:
        outputs = _densities(row, at)
        if len(outputs) != len(letters):
            raise SchemaError(f"expected {len(letters)} output states", path=at)
        return CqChannel(letters, dict(zip(letters, outputs)))

    return AvCqc(*_label_table(doc, "branches", path, branch))


def _decode_classical_avc(doc: Any, path: str) -> AvCqc:
    """A ``classical_avc`` document, an input spelling of the diagonal ``av_cqc`` it decodes to."""
    return _classical_family(*_label_table(doc, "kernels", path, _real_matrix_from_json))


def _decode_source(doc: Any, path: str) -> BipartiteSource:
    x_alphabet = _labels(doc, "x_alphabet", path)
    y_alphabet = _labels(doc, "y_alphabet", path)
    joint, at = _at(doc, "joint", path)
    joint = _real_matrix_from_json(joint, at)
    if joint.shape != (len(x_alphabet), len(y_alphabet)):
        raise SchemaError(
            f"joint table shape {joint.shape} does not match the alphabets", path=at
        )
    return BipartiteSource(x_alphabet, y_alphabet, joint)


def _decode_det_code(doc: Any, path: str) -> DeterministicCode:
    return DeterministicCode(
        positive_int(doc, "l", path),
        _densities(*_at(doc, "encoder", path)),
        _decode(*_at(doc, "decoder", path), {"povm"}),
    )


def _decode_random_code(doc: Any, path: str) -> RandomCode:
    support = _each(*_at(doc, "support", path), partial(_decode, kinds={"deterministic_code"}))
    return RandomCode(tuple(support), np.array(_each(*_at(doc, "weights", path), _finite)))


def _observations(doc: Any, key: str, label: str, name: str, path: str, decode) -> dict:
    """``decode(entry[name], at)`` of each entry of ``doc[key]``, keyed by its observation sequence.

    An entry's ``label`` field holds its sequence, an array of labels; no two
    entries may hold the same one. An entry's ``name`` field equal to one
    already decoded gets that same object. Equality is that of the
    ``marshal`` bytes, which tell bool, int and float apart and, unlike
    ``==``, never let ``true`` stand for ``1``. Only values that decoded
    enter the memo, so every error is raised at its own entry's path. A
    first copy is shared only once it is found to be made of
    ``_MARSHAL_EXACT`` types alone, which is checked at its first repeat, so
    a table without repeats pays for no check; a value that marshal refuses
    is decoded on its own.
    """
    table: dict = {}
    firsts: dict = {}  # marshal bytes -> (value, decoded object) of the first copy
    shared: set = set()  # marshal bytes whose first copy passed _marshal_exact

    def read(entry: Any, at: str) -> None:
        seq, seq_at = _at(entry, label, at)
        if not isinstance(seq, list) or not all(map(_is_label, seq)):
            raise SchemaError("expected an array of labels", path=seq_at)
        if tuple(seq) in table:
            raise SchemaError("repeats an earlier observation sequence", path=seq_at)
        value, value_at = _at(entry, name, at)
        try:
            content = marshal.dumps(value, 2)
        except ValueError:
            content = None
        first = firsts.get(content)
        if first is not None and (content in shared or _marshal_exact(first[0])):
            shared.add(content)
            table[tuple(seq)] = first[1]
            return
        table[tuple(seq)] = decoded = decode(value, value_at)
        if content is not None:
            firsts.setdefault(content, (value, decoded))

    _each(*_at(doc, key, path), read)
    return table


def _decode_correlated_code(doc: Any, path: str) -> CorrelatedCode:
    return CorrelatedCode(
        positive_int(doc, "l", path),
        positive_int(doc, "r", path),
        _decode(*_at(doc, "source", path), {"bipartite_source"}),
        _observations(doc, "encoders", "x", "states", path, _densities),
        _observations(doc, "decoders", "y", "povm", path, partial(_decode, kinds={"povm"})),
    )


def _decode_pure_state(doc: Any, path: str) -> PureState:
    return PureState(np.array(_each(*_at(doc, "amplitudes", path), _as_complex)))


def _decode_probe_set(doc: Any, path: str) -> tuple:
    return _densities(*_at(doc, "states", path))


def probes_to_document(probes) -> dict:
    """Encode a sequence of probe density matrices as a probe_set document."""
    return {
        "kind": "probe_set",
        "states": [_complex_to_json(p.matrix) for p in probes],
    }


_DECODERS = {
    "density_matrix": lambda doc, path: _density(*_at(doc, "matrix", path)),
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


def document_kind(doc: Any, path: str = "$", kinds=None) -> str:
    """The ``kind`` of ``doc``: a string in ``kinds``, by default any decodable kind."""
    kind, at = _at(doc, "kind", path)
    allowed = _DECODERS if kinds is None else kinds
    if not isinstance(kind, str) or kind not in allowed:
        raise SchemaError(f"expected a kind in {sorted(allowed)}, got {kind!r}", path=at)
    return kind


def _decode(doc: Any, path: str, kinds=None):
    return _DECODERS[document_kind(doc, path, kinds)](doc, path)


def from_document(doc: Any, path: str = "$", kinds=None):
    """Decode a JSON document into the library object its kind names.

    The kind must be a string in ``kinds`` (by default, any decodable kind)
    and is checked before anything is decoded; so is the kind of every
    sub-document. Raises :class:`SchemaError` with the offending JSON path for
    structural problems; semantic validation errors come from the object
    constructors.
    """
    with _collector_paused():
        return _decode(doc, path, kinds)


def field(doc: Any, key: str, path: str, kinds=None):
    """``from_document`` of the sub-document ``doc[key]``, at its own path."""
    return from_document(*_at(doc, key, path), kinds)


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


def write_document(doc: dict, filename: str) -> None:
    with open(filename, "w", encoding="utf-8") as handle:
        handle.write(dumps_document(doc))
