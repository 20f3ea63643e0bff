"""Frozen dataclasses as the schema of the JSON they are read from.

Each field of a spec class is declared once, by `key`: its JSON kind, its
default (a field without one is a required key; a None default also takes
an explicit null) and its bounds.  A spec class is a plain dataclass, and
its fields, in declaration order, are its key table, built once per class
and process.  `read` walks that table in one pass and raises ScenarioError
naming the key path of the first value that is unknown, missing, of the
wrong kind, out of bounds or a repeated label.

A kind is one of the reader functions below, a spec class (an object),
[kind] (a list of any length) or (kind, kind) (a list of exactly two).
`read_text` opens every input file, a bundled data file once per process, and
`decode_json` reads every JSON input; scenario.load_scenario and
materials.load_materials join the two.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import operator
import sys
from importlib import resources

from .errors import ScenarioError

_BOUNDS = {"gt": (">", operator.gt), "ge": (">=", operator.ge), "le": ("<=", operator.le)}

# The physical domain of the numeric input keys, as key() bounds.  It spans
# decades on either side of a 20 kHz desk charger driven with amps, and it
# keeps every intermediate a finite float.  omega^2 L lies in 4e-8 to 4e17,
# so a resonant capacitance exists.  A coupling m is below 3e5 (H, or H m for
# a plate), so (omega m)^2 < 2e28, while a receiver branch is at least 2e-6
# ohm for a coil and 6e-33 ohm for the faintest plate; so |Z_in| < 1e34 ohm,
# and u = |Z_in| I and p = Re(Z_in) I^2 stay below 1e43, which a relative
# noise of at most 1 scales by a few.  A plate close to a large coil still
# meets the quadrature's work cap (eddy._MAX_J1_WORK).
FREQUENCY_HZ = dict(ge=1, le=1e8)
LENGTH_M = dict(ge=1e-4, le=1e2)
TURNS = dict(ge=1, le=10_000)
RESISTANCE_OHM = dict(ge=1e-6, le=1e6)
INDUCTANCE_H = dict(ge=1e-9, le=1)
CAPACITANCE_F = dict(ge=1e-15, le=1)
MU_R = dict(ge=1, le=1e6)
CONDUCTIVITY_S_PER_M = dict(ge=1e-3, le=1e9)
CURRENT_A = dict(ge=0, le=1e4)
RELATIVE_SIGMA = dict(ge=0, le=1)


def key(kind, default=dataclasses.MISSING, **bounds):
    """A spec field: its kind, its default (none: required) and gt/ge/le bounds.

    The field's metadata holds the kind and the bounds, and its default is
    the key's; read takes all three from the field.  The bounds of a list
    hold for each of its items.
    """
    checks = tuple((*_BOUNDS[op], limit) for op, limit in bounds.items())
    return dataclasses.field(default=default, metadata={"kind": kind, "bounds": checks})


def read_text(path, what: str, bundled: str | None = None) -> str:
    """The UTF-8 text of the input file at path, or of the bundled data file when path is None.

    bundled names that file in wptmod/data, which is read once per process
    (_bundled_text); a file at path is read on every call, so an edit is seen.

    ScenarioError names what and path when the file cannot be read or is not UTF-8.
    """
    if path is None:
        return _bundled_text(bundled)
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {what} {path!r}: {exc}") from exc


# package data cannot change while the process runs
@functools.cache
def _bundled_text(name: str) -> str:
    return resources.files("wptmod.data").joinpath(name).read_text(encoding="utf-8")


def decode_json(text: str, what: str):
    """The JSON value in text, the input that what names.

    ScenarioError names what when text is not JSON, and names what and the
    key when an object repeats a key, whose later value json would keep.
    """

    def unique(pairs):
        obj = {}
        for name, value in pairs:
            if name in obj:
                raise ScenarioError(f"{what} repeats the key {name!r} within one object")
            obj[name] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{what} is not valid JSON: {exc}") from exc


def _number(value) -> bool:
    # bools are not numbers; also rejects nan, infinities and huge ints
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and abs(value) <= sys.float_info.max
    )


def finite(value, where: str):
    if not _number(value):
        raise ScenarioError(f"{where} must be a finite number, got {value!r}")
    return value


def integer(value, where: str) -> int:
    if not (_number(value) and value == int(value)):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return int(value)


def string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{where} must be a string, got {value!r}")
    return value


def unique_label(value, where: str) -> str:
    """A string unique within its list and safe as a curves.csv field."""
    # curves.csv splits rows on line boundaries and fields on commas
    if not isinstance(value, str) or "," in value or "".join(value.splitlines()) != value:
        raise ScenarioError(
            f"{where} must be a string without commas or line breaks, got {value!r}"
        )
    return value


def read(kind, value, where: str, bounds=(), seen=None):
    """value read as kind and checked against bounds; where names it in errors.

    seen holds the labels already read from the enclosing list.
    """
    if isinstance(kind, (list, tuple)):
        if not isinstance(value, list) or isinstance(kind, tuple) and len(value) != len(kind):
            size = f" of {len(kind)}" if isinstance(kind, tuple) else ""
            raise ScenarioError(f"{where} must be a list{size}, got {value!r}")
        seen = set()
        return tuple(read(kind[0], v, f"{where}[{i}]", bounds, seen) for i, v in enumerate(value))
    value = _object(kind, value, where, seen) if isinstance(kind, type) else kind(value, where)
    for symbol, holds, limit in bounds:
        if not holds(value, limit):
            raise ScenarioError(f"{where} must be {symbol} {limit}, got {value!r}")
    return value


def read_key(cls, name: str, value, where: str):
    """value read with the kind and bounds of key `name` of the spec class cls."""
    (f,) = (f for f in dataclasses.fields(cls) if f.name == name)
    return read(f.metadata["kind"], value, where, f.metadata["bounds"])


# a spec class's fields cannot change while the process runs
@functools.cache
def _key_table(cls):
    """cls's keys as (name, kind, bounds, required, takes null) rows, and their names."""
    rows = tuple(
        (f.name, f.metadata["kind"], f.metadata["bounds"],
         f.default is dataclasses.MISSING, f.default is None)
        for f in dataclasses.fields(cls)
    )
    return rows, frozenset(row[0] for row in rows)


def _object(cls, obj, where: str, seen):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be an object, got {obj!r}")
    rows, names = _key_table(cls)
    unknown = obj.keys() - names
    if unknown:
        raise ScenarioError(f"unknown keys in {where}: {sorted(unknown)}")
    values = {}
    for name, kind, bounds, required, takes_null in rows:
        if name not in obj:
            if required:
                raise ScenarioError(f"{where}.{name} is missing")
        elif obj[name] is not None or not takes_null:
            value = values[name] = read(kind, obj[name], f"{where}.{name}", bounds)
            if kind is unique_label:
                if value in seen:
                    raise ScenarioError(f"duplicate label {value!r} at {where}")
                seen.add(value)
    return cls(**values)
