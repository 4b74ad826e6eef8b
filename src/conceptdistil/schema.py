"""JSON objects <-> config dataclasses, driven by the dataclass fields.

Keys are the field names, or the file names given in ``names``. Every
error is a :class:`DataError` naming the document and the key path.

A field's single-value rules live in its metadata (:func:`bounded`), and
:func:`check` applies them, so a config built in Python, from a flag or
from a file fails alike, naming the field.
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
        value = float(value)
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


def names(doc: dict, key: str) -> tuple[str, ...]:
    """``doc[key]``, a JSON list of strings, as a tuple; anything else is a DataError naming ``key``."""
    if isinstance(value := doc[key], list) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise DataError(f"{key}: must be a list of strings")


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
    """The JSON object stored at ``path``; a DataError naming the file if it is none, or nested too deeply
    to parse."""
    path = Path(path)
    try:
        with open_input(path) as fh:
            doc = json.loads(fh.read())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
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
    """``from_doc`` of the ``kind`` document at ``path``, which :func:`save_file` wrote. Its errors, a
    ValueError, TypeError or OverflowError from a value of the wrong kind and a RecursionError from a document
    nested too deeply become DataErrors naming the file; a KeyError names the key."""
    doc = load_json(path)
    if doc.get("kind") != kind:
        raise DataError(f"{path}: not a {kind} file (kind={doc.get('kind')!r})")
    if type(version := doc.get("format_version")) is not int or version != FORMAT_VERSIONS[kind]:
        raise DataError(f"{path}: unsupported {kind} format_version {version!r}")
    try:
        return from_doc(doc)
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc}") from None
    except (DataError, ValueError, TypeError, OverflowError) as exc:
        raise DataError(f"{path}: {exc}") from None
    except RecursionError:  # json's nesting limit is not Python's from 3.12 on, so a document may pass the decoder
        raise DataError(f"{path}: nested too deeply to read") from None
