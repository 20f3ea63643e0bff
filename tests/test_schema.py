"""Validation cases generated from the declared keys of every spec class.

For each field of each spec class, reached through the bundled scenario, the
bundled material database or a fitted threshold.json, a value of the wrong
kind, the removal of a required key and a value just past each declared
bound must exit 2 with a message naming the key path.
"""

import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from wptmod import cli, detection, materials, schema
from wptmod.errors import ScenarioError
from wptmod.scenario import Scenario

_REMOVE = object()


def _bundled(name: str):
    return json.loads(resources.files("wptmod.data").joinpath(name).read_text())


def _fields(cls, path):
    """(path, field) for each field of cls and, depth first, of its nested specs.

    A field not declared by schema.key() has no "kind" and stops collection here.
    """
    for f in dataclasses.fields(cls):
        kind = f.metadata["kind"]
        yield path + (f.name,), f
        if isinstance(kind, type):
            yield from _fields(kind, path + (f.name,))
        elif isinstance(kind, list) and isinstance(kind[0], type):
            yield from _fields(kind[0], path + (f.name, 0))


def _past(kind, symbol, limit):
    """The value nearest to limit that breaks the bound `symbol limit`."""
    if symbol == ">":
        return limit
    step = -1 if symbol == ">=" else 1
    if kind is schema.integer:
        # the reader prints an integer key's value as an int, whatever the limit's type
        return int(limit) + step
    return math.nextafter(limit, step * math.inf)


def _name(path) -> str:
    return path[0] + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path[1:])


def _cases(cls, path):
    """(id, path, value, message) for every declared field of cls below path."""
    for where, f in _fields(cls, path):
        kind, name = f.metadata["kind"], _name(where)
        wrong = "x" if kind in (schema.finite, schema.integer) else 5
        yield f"{name}-kind", where, wrong, f"{name} must be "
        if f.default is dataclasses.MISSING:
            yield f"{name}-missing", where, _REMOVE, f"{name} is missing"
        listed = isinstance(kind, (list, tuple))
        for symbol, _, limit in f.metadata["bounds"]:
            value = _past(kind[0] if listed else kind, symbol, limit)
            # the bounds of a list hold for each item: break them all, the first is named
            edit, at = ([value] * len(kind), f"{name}[0]") if listed else (value, name)
            yield f"{name}-{symbol}", where, edit, f"{at} must be {symbol} {limit}, got {value!r}"


@dataclasses.dataclass(frozen=True)
class _Part:
    label: str = schema.key(schema.unique_label)
    size_m: float = schema.key(schema.finite, 1.0, gt=0)


@dataclasses.dataclass(frozen=True)
class _Plain:
    count: int = schema.key(schema.integer, ge=1)
    parts: tuple[_Part, ...] = schema.key([_Part], ())
    note: str | None = schema.key(schema.string, None)


@pytest.mark.parametrize(
    "value, message",
    [
        ({"parts": []}, "plain.count is missing"),
        ({"count": 0}, "plain.count must be >= 1, got 0"),
        ({"count": 1, "extra": 1}, "unknown keys in plain: ['extra']"),
        ({"count": 1, "parts": [{"size_m": 2.0}]}, "plain.parts[0].label is missing"),
        ({"count": 1, "parts": [{"label": "a", "size_m": 0}]}, "plain.parts[0].size_m must be > 0"),
        ({"count": 1, "parts": [{"label": "a"}, {"label": "a"}]}, "duplicate label 'a' at plain"),
    ],
    ids=["missing", "bound", "unknown", "nested_missing", "nested_bound", "duplicate"],
)
def test_plain_dataclass_is_a_spec_class(value, message):
    # key() alone declares a spec class
    raw = {"count": 2, "parts": [{"label": "a", "size_m": 0.5}, {"label": "b"}], "note": None}
    assert schema.read(_Plain, raw, "plain") == _Plain(2, (_Part("a", 0.5), _Part("b")))
    assert schema.read_key(_Plain, "count", 3, "--count") == 3
    with pytest.raises(ScenarioError, match=re.escape(message)):
        schema.read(_Plain, value, "plain")


def test_largest_finite_float_is_a_number():
    # the bound is abs(value) <= the largest float, ends included
    top = sys.float_info.max
    assert schema.finite(top, "x") == top
    assert schema.finite(-top, "x") == -top
    for value in (2**1024, math.inf):
        with pytest.raises(ScenarioError, match="^x must be a finite number"):
            schema.finite(value, "x")


# malformed inputs that exited 2 naming no key, or passed until a later verb
_ROADMAP = [
    ("steps_1", ("scenario", "sweep", "steps"), 1, "scenario.sweep.steps must be >= 2, got 1"),
    (
        "i_min_above_i_max",
        ("scenario", "sweep", "i_min_a"),
        11.0,
        "scenario.sweep.i_max_a must be > i_min_a 11.0, got 10.0",
    ),
    (
        "sigma_negative",
        ("scenario", "noise", "relative_sigma"),
        -1,
        "scenario.noise.relative_sigma must be >= 0, got -1",
    ),
    (
        "load_zero",
        ("scenario", "receiver_coils", 0, "load_ohm"),
        0,
        "scenario.receiver_coils[0].load_ohm must be >= 1e-06, got 0",
    ),
    (
        "mu_r_half",
        ("scenario", "metal_plates", 0, "mu_r"),
        0.5,
        "scenario.metal_plates[0].mu_r must be >= 1, got 0.5",
    ),
    ("turns_zero", ("scenario", "transmitter", "turns"), 0,
     "scenario.transmitter.turns must be >= 1, got 0"),
    (
        "current_negative",
        ("scenario", "detection", "test_currents_a"),
        [3.0, -1.0],
        "scenario.detection.test_currents_a[1] must be >= 0, got -1.0",
    ),
    ("degree_zero", ("scenario", "detection", "degree"), 0,
     "scenario.detection.degree must be >= 1, got 0"),
    ("gate_zero", ("scenario", "detection", "gate_amps"), 0,
     "scenario.detection.gate_amps must be > 0, got 0"),
    ("seed_negative", ("scenario", "noise", "seed"), -1,
     "scenario.noise.seed must be >= 0, got -1"),
    (
        "tx_resistance_zero",
        ("scenario", "transmitter", "resistance_ohm"),
        0,
        "scenario.transmitter.resistance_ohm must be >= 1e-06, got 0",
    ),
]

SCENARIO_CASES = [*_cases(Scenario, ("scenario",)), *_ROADMAP]
MATERIAL_CASES = list(_cases(materials._Entry, ("entry", 0)))
THRESHOLD_CASES = [
    *_cases(detection._ThresholdFile, ("threshold.json",)),
    (
        "threshold.json-unknown",
        ("threshold.json", "extra"),
        1,
        "unknown keys in threshold.json: ['extra']",
    ),
    (
        "threshold.json-p_poly-length",
        ("threshold.json", "degree"),
        3,
        "threshold.json.p_poly_W_per_A_n must have degree + 1 = 4 entries, got 3",
    ),
]


def _edit(raw, path, value):
    *head, last = path
    for step in head:
        raw = raw[step]
    if value is _REMOVE:
        del raw[last]
    else:
        raw[last] = value


@pytest.mark.parametrize(
    "path, value, message", [c[1:] for c in SCENARIO_CASES], ids=[c[0] for c in SCENARIO_CASES]
)
def test_scenario_key_named(tmp_path, capsys, path, value, message):
    raw = {"scenario": _bundled("paper_repro.json")}
    _edit(raw, path, value)
    scenario_path = tmp_path / "edited.json"
    scenario_path.write_text(json.dumps(raw["scenario"]))
    argv = ["curves", "--scenario", str(scenario_path), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "curves.csv").exists()


@pytest.mark.parametrize(
    "path, value, message", [c[1:] for c in MATERIAL_CASES], ids=[c[0] for c in MATERIAL_CASES]
)
def test_material_key_named(tmp_path, capsys, path, value, message):
    raw = {"entry": _bundled("materials.json")}
    _edit(raw, path, value)
    db = tmp_path / "db.json"
    db.write_text(json.dumps(raw["entry"]))
    assert cli.main(["materials", "--db", str(db)]) == cli.EXIT_VALIDATION
    assert f"material database {str(db)!r}: {message}" in capsys.readouterr().err



def _detect(tmp_path, text: str) -> int:
    """detect on the bundled scenario with threshold.json holding text."""
    (tmp_path / "threshold.json").write_text(text)
    return cli.main(["detect", "--out", str(tmp_path)])


@pytest.mark.parametrize(
    "path, value, message", [c[1:] for c in THRESHOLD_CASES], ids=[c[0] for c in THRESHOLD_CASES]
)
def test_threshold_key_named(tmp_path, capsys, repro_curves, path, value, message):
    model = detection.fit_thresholds(
        [c for c in repro_curves if c.label.startswith("metal:")],
        [c for c in repro_curves if c.label.startswith("coil:")],
    )
    raw = {"threshold.json": json.loads(model.to_json())}
    _edit(raw, path, value)
    assert _detect(tmp_path, json.dumps(raw["threshold.json"])) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_threshold_not_json(tmp_path, capsys):
    assert _detect(tmp_path, '{"degree": 2,') == cli.EXIT_VALIDATION
    assert "threshold.json is not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def _repeated(name: str, old: str, again: str) -> str:
    """The text of bundled file name with `again` written after its first `old`."""
    text = resources.files("wptmod.data").joinpath(name).read_text()
    assert old in text
    return text.replace(old, f"{old} {again}", 1)


@pytest.mark.parametrize(
    "old, again, key",
    [
        # json keeps the later value: fe_0.1m read r_m 1.22e-9 ohm at 1 Hz, not 2.46e-5 ohm
        ('"frequency_hz": 20000.0,', '"frequency_hz": 1.0,', "frequency_hz"),
        ('"turns": 3,', '"turns": 1,', "turns"),
    ],
    ids=["top_level", "nested"],
)
def test_scenario_repeated_key_named(tmp_path, capsys, old, again, key):
    path = tmp_path / "twice.json"
    path.write_text(_repeated("paper_repro.json", old, again))
    argv = ["impedance", "--scenario", str(path), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert f"scenario file {str(path)!r} repeats the key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_material_repeated_key_named(tmp_path, capsys):
    db = tmp_path / "db.json"
    db.write_text(_repeated("materials.json", '"mu_r": 300.0,', '"mu_r": 1.0,'))
    assert cli.main(["materials", "--db", str(db)]) == cli.EXIT_VALIDATION
    assert f"material database {str(db)!r} repeats the key 'mu_r'" in capsys.readouterr().err


def test_threshold_repeated_key_named(tmp_path, capsys, repro_curves):
    model = detection.fit_thresholds(
        [c for c in repro_curves if c.label.startswith("metal:")],
        [c for c in repro_curves if c.label.startswith("coil:")],
    )
    once = '"i_min_gate_A": 3.0'
    text = model.to_json().replace(once, f'{once}, "i_min_gate_A": 50')
    assert _detect(tmp_path, text) == cli.EXIT_VALIDATION
    assert "threshold.json repeats the key 'i_min_gate_A'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def _readme_tables():
    """{key: (bound, default)} of each `| key | kind | bound | default |` table in README.md."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    tables = []
    for n, line in enumerate(lines):
        if line == "| key | kind | bound | default |":
            rows = itertools.takewhile(lambda row: row.startswith("|"), lines[n + 2 :])
            cells = [row.split("|") for row in rows]
            tables.append({c[1].strip(" `"): (c[3].strip(), c[4].strip()) for c in cells})
    return tables


def _stated_bounds(cell: str) -> set:
    """The (symbol, limit) bounds a README bound cell states before its first , or ;."""
    head = re.split("[,;]", cell.removeprefix("each "))[0]
    if match := re.fullmatch(r"(\S+) to (\S+)", head):
        return {(">=", float(match[1])), ("<=", float(match[2]))}
    if match := re.fullmatch(r"(>|≥|≤) (\S+)", head):
        return {({"≥": ">=", "≤": "<="}.get(match[1], match[1]), float(match[2]))}
    return set()


@pytest.mark.parametrize(
    "index, cls", [(0, Scenario), (1, materials._Entry)], ids=["scenario", "material"]
)
def test_readme_tables_list_the_declared_keys(index, cls):
    declared = {_name(path).replace("[0]", "[i]"): f for path, f in _fields(cls, ())}
    listed = _readme_tables()[index]
    assert set(listed) == set(declared)
    for name, f in declared.items():
        bound, default = listed[name]
        assert (default == "required") == (f.default is dataclasses.MISSING), name
        bounds = {(symbol, float(limit)) for symbol, _, limit in f.metadata["bounds"]}
        assert _stated_bounds(bound) == bounds, name


def test_bundled_files_read_once_per_process(tmp_path):
    # package data cannot change while the process runs, so each bundled file
    # is read once; a file named by path is read on every call, so an edit is seen
    named = tmp_path / "named.json"
    named.write_text(resources.files("wptmod.data").joinpath("materials.json").read_text())
    src = str(Path(schema.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import collections, os, sys\n"
        "opened = collections.Counter()\n"
        "def count(event, args):\n"
        "    if event == 'open' and isinstance(args[0], (str, os.PathLike)):\n"
        "        opened[os.path.basename(args[0])] += 1\n"
        "sys.addaudithook(count)\n"
        "from wptmod import materials, scenario\n"
        "for _ in range(3):\n"
        "    materials.load_materials(), scenario.load_scenario()\n"
        "    materials.load_materials(sys.argv[1])\n"
        "print(opened['materials.json'], opened['paper_repro.json'], opened['named.json'])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, str(named)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.split() == ["1", "1", "3"]
