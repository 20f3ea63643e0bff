"""Validation cases generated from the declared keys of every spec class.

For each field of each spec class, reached through the bundled scenario, the
bundled material database or a fitted threshold.json, a value of the wrong
kind, the removal of a required key and a value just past each declared
bound must exit 2 with a message naming the key path.
"""

import dataclasses
import json
import math
from importlib import resources

import pytest

from wptmod import cli, detection, eddy, schema
from wptmod.scenario import Scenario

_REMOVE = object()


def _bundled(name: str):
    return json.loads(resources.files("wptmod.data").joinpath(name).read_text())


def _fields(cls, path):
    """(path, field) for each field of cls and, depth first, of its nested specs."""
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
    return limit + step if kind is schema.integer else math.nextafter(limit, step * math.inf)


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


# ROADMAP item 5: inputs that exited 2 naming no key, or passed until a later verb
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
        "scenario.receiver_coils[0].load_ohm must be > 0, got 0",
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
        "scenario.transmitter.resistance_ohm must be > 0, got 0",
    ),
]

SCENARIO_CASES = [*_cases(Scenario, ("scenario",)), *_ROADMAP]
MATERIAL_CASES = list(_cases(eddy._Entry, ("entry", 0)))
THRESHOLD_CASES = [
    *_cases(detection._ThresholdFile, ("threshold.json",)),
    (
        "threshold.json-unknown",
        ("threshold.json", "extra"),
        1,
        "unknown keys in threshold.json: ['extra']",
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
