"""JSON objects <-> config dataclasses, driven by the dataclass fields.

Keys are the field names, or the file names given in ``names``. Every
error is a :class:`DataError` naming the document and the key path.

A field's single-value rules live in its metadata (:func:`bounded`), and
:func:`check` applies them, so a config built in Python, from a flag or
from a file fails alike, naming the field.

An artifact's JSON lists are read by :func:`array` alone.
"""

from __future__ import annotations

import json
import math
import types
import typing
from contextlib import contextmanager
from dataclasses import MISSING, field, fields, is_dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DataError

RULES = "rules"  # the metadata key of a field's rules
FORMAT_VERSIONS = {"concept_distil": 1, "concept_teachers": 2, "ffnn_blackbox": 1}  # of each artifact kind


class Rule(typing.NamedTuple):
    """A field rule: ``test(v)`` is true for a valid value and ``text`` says which values are."""

    text: str
    test: typing.Callable


def within(lo, hi=math.inf, lo_open=False, hi_open=False) -> Rule:
    """Valid when ``lo <= v <= hi`` (``<`` at an open end), so NaN never is."""
    text = (f"{'>' if lo_open else '>='} {lo}" if hi == math.inf
            else f"in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}")
    return Rule(text, lambda v: (lo < v if lo_open else lo <= v) and (v < hi if hi_open else v <= hi))


ge = within  # ge(lo): lo <= v
gt = partial(within, lo_open=True)  # gt(lo): lo < v
nonempty = Rule("non-empty", bool)
# every field's implicit rule: a float, alone or in a tuple, is finite
_FINITE = Rule("finite", lambda v: all(math.isfinite(x) for x in (v if isinstance(v, tuple) else (v,))
                                       if isinstance(x, float)))


def one_of(options) -> Rule:
    return Rule("one of " + ", ".join(map(repr, options)), tuple(options).__contains__)


def each(rule: Rule) -> Rule:
    return Rule(f"all {rule.text}", lambda v: all(map(rule.test, v)))


def bounded(default, *rules):
    """A dataclass field with ``default`` (``MISSING``: required) whose value must pass ``rules``."""
    return field(default=default, metadata={RULES: rules})


def check(obj) -> None:
    """Raise a DataError naming the first field of dataclass ``obj`` that breaks its rules."""
    for f in fields(obj):
        if bad := _violation(getattr(obj, f.name), f.metadata.get(RULES, ())):
            raise DataError(f"{f.name} {bad}")


class Checked:
    """Base of a config dataclass: constructing one applies :func:`check`."""

    __post_init__ = check


def _violation(value, rules) -> str | None:
    """``must be <rule>, got <value>`` for the first rule ``value`` breaks, else None. None passes:
    whether a field may be null is up to its type."""
    broken = next((r for r in (_FINITE, *rules) if value is not None and not r.test(value)), None)
    return broken and f"must be {broken.text}, got {value!r}"


def read(cls, doc, where: str, names: dict | None = None, reject: dict | None = None, prefix: str = ""):
    """Dataclass ``cls`` from the JSON object ``doc``, each value cast by its field's type. A missing
    key keeps the default; an unknown key, a key path in ``reject`` (to the reason) or a bad value fails."""
    names, reject = names or {}, reject or {}
    if not isinstance(doc, dict):
        raise DataError(f"{where}: {prefix.rstrip('.') or 'document'} must be a JSON object, got {doc!r}")
    by_key = {names.get(f.name, f.name): f for f in fields(cls)}
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in doc.items():
        path = prefix + key
        if path in reject or key not in by_key:
            raise DataError(f"{where}: key {path!r} {reject.get(path, 'is unknown')}")
        f = by_key[key]
        kwargs[f.name] = _cast(hints[f.name], value, where, names, reject, path)
        if bad := _violation(kwargs[f.name], f.metadata.get(RULES, ())):
            raise DataError(f"{where}: {path!r} {bad}")
    for key, f in by_key.items():
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise DataError(f"{where}: key {prefix + key!r} is missing")
    try:
        return cls(**kwargs)
    except DataError as exc:  # the dataclass's cross-field checks
        raise DataError(f"{where}: {exc}") from None


def _cast(tp, value, where, names, reject, path):
    if is_dataclass(tp):
        return read(tp, value, where, names, reject, path + ".")
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # T | None
        return None if value is None else _cast(args[0], value, where, names, reject, path)
    if typing.get_origin(tp) is tuple:  # tuple[T, ...]
        if not isinstance(value, list):
            raise DataError(f"{where}: {path!r} expects a list, got {value!r}")
        return tuple(_cast(args[0], v, where, names, reject, f"{path}[{i}]") for i, v in enumerate(value))
    if tp is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise DataError(f"{where}: {path!r} is out of range for a float") from None
    if not isinstance(value, tp) or (isinstance(value, bool) and tp is not bool):
        raise DataError(f"{where}: {path!r} expects {tp.__name__}, got {value!r}")
    return value


def write(obj, names: dict | None = None, omit=(), prefix: str = ""):
    """The JSON value :func:`read` turns back into ``obj``, less the key paths in ``omit``."""
    if isinstance(obj, tuple):
        return [write(v, names, omit, prefix) for v in obj]
    if not is_dataclass(obj):
        return obj
    keys = {f.name: (names or {}).get(f.name, f.name) for f in fields(obj)}
    return {k: write(getattr(obj, n), names, omit, f"{prefix}{k}.") for n, k in keys.items() if prefix + k not in omit}


# an array item's kind: the JSON types it admits (a bool is not an int here) and their name in a refusal
_ITEMS = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string"),
          float | None: ((int, float, type(None)), "a number or null"), dict: ((dict,), "an object")}


def a_type(value) -> str:
    """The type of ``value`` as a refusal names it: ``a str``, ``an int``."""
    return ("an " if type(value).__name__[0] in "aeiou" else "a ") + type(value).__name__


def array(doc: dict, key: str, kind, length: int | None, where: str = ""):
    """``doc[key]``, a JSON list of ``length`` items (None: any number) of ``kind``, a key of ``_ITEMS``: an int64
    or float64 array (finite for ``float``; ``float | None`` reads null as NaN), a tuple of distinct strings or
    the list of objects. Every error is a DataError naming ``<where>.<key>``, and an item's its index."""
    at, values = f"{where}.{key}" if where else key, doc[key]
    if type(values) is not list:
        raise DataError(f"{at} is {a_type(values)}, not a list")
    if length is not None and len(values) != length:
        raise DataError(f"{at} has length {len(values)}, not {length}")
    admits, text = _ITEMS[kind]
    if not set(map(type, values)).issubset(admits):
        k = next(k for k, v in enumerate(values) if type(v) not in admits)
        raise DataError(f"{at}[{k}] is {a_type(values[k])}, not {text}")
    if kind is str and len(set(values)) != len(values):
        k = next(k for k, v in enumerate(values) if v in values[:k])
        raise DataError(f"{at}[{k}] repeats {values[k]!r}")
    if kind in (str, dict):
        return tuple(values) if kind is str else values
    try:
        a = np.array(values, dtype=np.int64 if kind is int else np.float64)
    except OverflowError:
        raise DataError(f"{at} holds a number out of range") from None
    if kind is float and not np.isfinite(a).all():
        raise DataError(f"{at} holds non-finite values")
    return a


def as_list(a) -> list:
    """Array ``a`` flattened into the JSON list :func:`array` reads back, NaN written as null."""
    return [None if v != v else v for v in np.ravel(a).tolist()]


@contextmanager
def open_input(path):
    """The UTF-8 text file at ``path``, opened for reading with ``newline=""``. A missing file, a directory or
    bytes that are not UTF-8, met when opening or while reading inside, are DataErrors naming the file."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except IsADirectoryError:
        raise DataError(f"{path}: is a directory, not a file") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_json(path) -> dict:
    """The JSON object stored at ``path``; a DataError naming the file if it is none, nested too deeply to
    parse, or holding an integer longer than Python converts (``sys.get_int_max_str_digits``)."""
    path = Path(path)
    try:
        with open_input(path) as fh:
            doc = json.loads(fh.read())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    except ValueError:  # json's limit on an integer's digits
        raise DataError(f"{path}: holds an integer too long to read") from None
    except RecursionError:
        raise DataError(f"{path}: nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def save_file(path, kind: str, body: dict) -> None:
    """Write ``body`` as a ``kind`` artifact: one JSON object led by the kind's ``format_version`` and ``kind``."""
    doc = {"format_version": FORMAT_VERSIONS[kind], "kind": kind, **body}
    Path(path).write_text(json.dumps(doc, allow_nan=False), encoding="utf-8")


def load_file(path, kind: str, from_doc):
    """``from_doc`` of the ``kind`` document at ``path``, which :func:`save_file` wrote. Its DataErrors and a
    RecursionError from a document nested too deeply become DataErrors naming the file; a KeyError names the
    missing key. Any other exception is a bug in ``from_doc`` and propagates."""
    doc = load_json(path)
    if doc.get("kind") != kind:
        raise DataError(f"{path}: not a {kind} file (kind={doc.get('kind')!r})")
    if type(version := doc.get("format_version")) is not int or version != FORMAT_VERSIONS[kind]:
        raise DataError(f"{path}: unsupported {kind} format_version {version!r}")
    try:
        return from_doc(doc)
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc}") from None
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except RecursionError:  # json's nesting limit is not Python's from 3.12 on, so a document may pass the decoder
        raise DataError(f"{path}: nested too deeply to read") from None
