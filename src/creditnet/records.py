"""The record protocol: configs, fitted statistics and checkpoint headers.

``@record`` (or ``make_record``, from a field list) makes a class a frozen
dataclass with:

- a JSON form, ``to_dict`` (``record_to_dict``): one key per field, nested
  records as objects, tuples and arrays as lists;
- a reader, ``from_dict`` (``config_from_dict``), which rejects a value that
  is not an object, an unknown key and a missing required key, reads nested
  records from objects and array fields from lists of finite numbers (naming
  the first entry that is not one), then builds;
- a construction check: every build, direct or from JSON, checks each field
  against its type hint, against the range of a bounded number (``Count``,
  ``Seed``, ``Positive``, ``Rate``, ``Finite``: ``Annotated`` hints) and
  against a closed set of names (a ``Literal`` hint, e.g. the model variants),
  before the class's own ``__post_init__`` cross-field rules. A mistyped,
  out-of-range or unknown value is a ``ConfigError`` naming class and field.
  A list fitting a tuple hint is stored as a tuple, lists inside it too; an
  array field (``FiniteArray``) takes numeric arrays of finite entries only,
  so every record that builds reads back from its JSON form. The hints are
  resolved once per class, since ``get_type_hints`` costs more than the check.

``checked`` gives each argument of a library call the same check by its own hint.

This module imports only ``errors``, the standard library and numpy.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import re
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache, wraps
from numbers import Integral, Real
from typing import (Annotated, Callable, Literal, NamedTuple, Union, get_args, get_origin,
                    get_type_hints)

import numpy as np

from .errors import ConfigError


def is_integer(value) -> bool:
    """Whether a config value or library argument is an integer, not a bool."""
    # the exact-type test skips the slow ABC check for plain ints
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


class Bound(NamedTuple):
    """The range of a number, as the ``Annotated`` metadata of its hint:
    ``holds`` tests a value that fits the hint's type, ``text`` spells the
    range out in messages."""

    holds: Callable[[float], bool]
    text: str

    def __repr__(self):  # how the range reads inside str(hint)
        return self.text


def at_least(k: int) -> Bound:
    return Bound(lambda v: v >= k, f">= {k}")


def _finite(value) -> bool:
    """Finite as a float64; ``math.isfinite`` raises on an int beyond its range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_FINITE = Bound(_finite, "finite")

Count = Annotated[int, at_least(1)]  # sizes, widths, counts
Seed = Annotated[int, at_least(0)]  # what numpy's generators take
Positive = Annotated[float, Bound(lambda v: 0 < v <= sys.float_info.max, "> 0 and finite")]
Rate = Annotated[float, Bound(lambda v: 0 < v < 1, "in (0, 1)")]  # the open interval
Finite = Annotated[float, _FINITE]
# numpy scalars too, for a library argument that is used and not stored
FiniteReal = Annotated[Real, _FINITE]
# a record's array field: JSON, and so a checkpoint, holds finite numbers only
FiniteArray = Annotated[np.ndarray, Bound(lambda a: a.dtype.kind in "iuf"
                                          and bool(np.isfinite(a).all()), "finite")]


def _alternatives(hint) -> tuple:
    """The types a hint admits: the members of a ``Union``/``Optional``, else itself."""
    return get_args(hint) if get_origin(hint) is Union else (hint,)


@cache
def _fits(hint):
    """The predicate for values that fit a record field's type hint, and its
    bound if it has one, built once per hint."""
    if hint is float:
        return lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if hint is int:
        return is_integer
    if hint is Real:
        return lambda v: isinstance(v, Real) and not isinstance(v, bool)
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        fits, bound = _fits(args[0]), args[1]
        return lambda v: fits(v) and bound.holds(v)
    if origin is Literal:  # a closed set of names
        return lambda v: isinstance(v, str) and v in args
    if origin is Union:
        alternatives = [_fits(a) for a in args]
        return lambda v: any(fits(v) for fits in alternatives)
    if origin is tuple:
        if args[-1] is Ellipsis:
            item = _fits(args[0])
            return lambda v: isinstance(v, (list, tuple)) and all(map(item, v))
        items = [_fits(a) for a in args]
        return lambda v: (isinstance(v, (list, tuple)) and len(v) == len(items)
                          and all(fits(x) for fits, x in zip(items, v)))
    return lambda v: isinstance(v, hint)


def check_arg(name: str, value, hint) -> None:
    """Raise ``ConfigError`` naming ``name`` unless ``value`` fits ``hint``."""
    if not _fits(hint)(value):
        # "Optional[creditnet.training.EarlyStop]" -> "Optional[EarlyStop]",
        # "tuple[typing.Annotated[int, >= 1], ...]" -> "tuple[int >= 1, ...]",
        # "typing.Annotated[float, finite]" -> "finite float",
        # "typing.Literal['sgd', 'adam']" -> "one of 'sgd', 'adam'"
        expected = re.sub(r"\w+\.", "", str(hint)) if get_origin(hint) else hint.__name__
        expected = re.sub(r"Annotated\[(\w+), ([^]]+)\]",
                          lambda m: f"{m[2]} {m[1]}" if m[2].isalpha() else f"{m[1]} {m[2]}",
                          expected)
        expected = re.sub(r"^Literal\[(.*)\]$", r"one of \1", expected)
        raise ConfigError(f"{name} must be {expected}, got {value!r}")


def checked(fn):
    """``fn``, checking each argument a call passes against its parameter's
    hint, as ``check_arg`` does, before the body runs; defaults and unhinted
    parameters go unchecked. The first call resolves the hints (deferred by
    ``from __future__ import annotations``) and positions: binding costs 8x."""
    checks = None

    @wraps(fn)
    def call(*args, **kwargs):
        nonlocal checks
        if checks is None:  # (position, name, hint, fits) per checked parameter
            hints = get_type_hints(fn, include_extras=True)
            checks = [(sys.maxsize if p.kind is p.KEYWORD_ONLY else i, name, hint, _fits(hint))
                      for i, (name, p) in enumerate(inspect.signature(fn).parameters.items())
                      if (hint := hints.get(name)) is not None]
        for i, name, hint, fits in checks:
            value = args[i] if i < len(args) else kwargs.get(name, MISSING)
            if value is not MISSING and not fits(value):
                check_arg(name, value, hint)
        return fn(*args, **kwargs)

    return call


@cache
def _hints(cls) -> dict:
    """A record class's field type hints, bounds kept, resolved once."""
    return get_type_hints(cls, include_extras=True)


@cache
def _field_checks(cls) -> tuple:
    """``(name, hint, fits, takes_tuple)`` per field of a record class."""
    return tuple((name, hint, _fits(hint),
                  any(get_origin(h) is tuple for h in _alternatives(hint)))
                 for name, hint in _hints(cls).items())


def _as_tuple(value):
    """A list or tuple, and every list or tuple inside it, as a tuple."""
    return tuple(_as_tuple(v) if isinstance(v, (list, tuple)) else v for v in value)


def _check_fields(self) -> None:
    """Check each field of a record against its hint; a list that fits a
    tuple hint is stored as a tuple, nested lists as nested tuples."""
    for name, hint, fits, takes_tuple in _field_checks(type(self)):
        value = getattr(self, name)
        if not fits(value):
            check_arg(f"{type(self).__name__} key {name!r}", value, hint)
        if takes_tuple and isinstance(value, (list, tuple)):
            object.__setattr__(self, name, _as_tuple(value))


def record(cls):
    """Make ``cls`` a record: a frozen dataclass whose ``__post_init__`` checks
    every field's type before the class's own rules, with ``to_dict`` and
    ``from_dict``."""
    rules = cls.__dict__.get("__post_init__")

    def __post_init__(self):
        _check_fields(self)
        if rules is not None:
            rules(self)

    cls.__post_init__ = __post_init__
    cls.to_dict = record_to_dict
    cls.from_dict = classmethod(config_from_dict)
    return dataclass(frozen=True)(cls)


def make_record(name: str, spec: list):
    """A record class named ``name`` (as messages name it) with the fields
    ``spec``, each ``(name, hint)`` or ``(name, hint, default)``."""
    return record(type(name, (), {"__annotations__": {f[0]: f[1] for f in spec},
                                  **{f[0]: f[2] for f in spec if len(f) > 2}}))


def record_to_dict(record):
    """A record dataclass's JSON form: one key per field, nested records as
    their own dicts, dicts as dicts, tuples and lists as lists and arrays as
    (nested) lists, recursively. ``config_from_dict`` reads it back."""
    if is_dataclass(record):
        return {f.name: record_to_dict(getattr(record, f.name)) for f in fields(record)}
    if isinstance(record, dict):
        return {k: record_to_dict(v) for k, v in record.items()}
    if isinstance(record, (tuple, list)):
        return [record_to_dict(v) for v in record]
    return record.tolist() if isinstance(record, np.ndarray) else record


def _from_json(label: str, hint, value):
    """``value`` as decoded from JSON, read for the field ``label`` typed
    ``hint`` (or ``Optional[hint]``): an object (a list's items) becomes the
    record (tuple of records) it names, a list a float64 array once each entry
    is a finite number (else a ``ConfigError`` names the first that is not);
    else it is unchanged, for the field check to refuse."""
    for h in _alternatives(hint):
        if is_dataclass(h) and isinstance(value, dict):
            return config_from_dict(h, value)
        if get_origin(h) is tuple and is_dataclass(get_args(h)[0]) and isinstance(value, list):
            return tuple(config_from_dict(get_args(h)[0], v) for v in value)
        if h == FiniteArray and isinstance(value, list):
            for i, v in enumerate(value):
                check_arg(f"{label} entry {i}", v, Finite)
            return np.array(value, dtype=np.float64)
    return value


def config_from_dict(cls, d: dict):
    """The ``cls`` record that ``record_to_dict`` wrote as ``d``.

    ``d`` must be an object holding every field without a default and no
    other key. Nested records are read from their dicts and array fields from
    lists of finite numbers; building the record then checks every value's type.
    Each fault is a ``ConfigError`` naming ``cls``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {d!r}")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(d) - set(names))
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} key(s) {unknown}; allowed: {', '.join(names)}")
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing {cls.__name__} key(s) {missing}")
    hints = _hints(cls)
    return cls(**{key: _from_json(f"{cls.__name__} key {key!r}", hints[key], value)
                  for key, value in d.items()})


def check_path(path, what: str) -> None:
    """Raise ``ConfigError`` naming ``what`` unless ``path`` is a str or a
    path (``open`` would take an int, ``True`` too, as a file descriptor)
    free of NUL bytes, which no file name holds."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"{what} path must be a str or path, got {path!r}")
    if "\0" in os.fspath(path):
        raise ConfigError(f"{what} path holds a NUL byte: {path!r}")


def read_json_object(path, what: str) -> dict:
    """The JSON object in the UTF-8 file at ``path``; a path of another type,
    or a file that cannot be read, is not JSON or holds another value, is a
    ``ConfigError`` naming it as ``what``."""
    check_path(path, what)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise ConfigError(f"{what} {path} must contain a JSON object")
    return d
