"""Inside the declared input domain every verb's numbers stay finite.

Each numeric key of a scenario and of the material database declares a
physical range (wptmod.schema).  Inside it `couplings`, `impedance`,
`curves`, `fit` and `detect` raise no RuntimeWarning and write only finite
numbers; `fit` may exit 4 on classes it cannot separate, and a plate close
to a large coil exits 2 at the quadrature's work cap.  So no overflow check
is needed downstream of the reader.  The scenarios sit at the range ends
and, through hypothesis, anywhere in the ranges; every value is drawn from
the bounds the reader checks.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wptmod import cli, eddy, materials, schema
from wptmod.errors import ScenarioError
from wptmod.scenario import MIN_STEP_A, Scenario, parse_scenario, plates

VERBS = ("couplings", "impedance", "curves", "fit", "detect")


def _ranged(cls, path):
    """(path, kind, default, low, high) of each key below cls bounded on both sides.

    sweep.steps sizes the arrays rather than the physics and keeps its
    bundled value, and mu_r_range stays unset: it bounds another key.
    """
    for f in dataclasses.fields(cls):
        name, kind = f.name, f.metadata["kind"]
        if isinstance(kind, list) and isinstance(kind[0], type):
            yield from _ranged(kind[0], path + (name, 0))
        elif isinstance(kind, type):
            yield from _ranged(kind, path + (name,))
        else:
            limits = {symbol: limit for symbol, _, limit in f.metadata["bounds"]}
            if {">=", "<="} <= limits.keys() and name != "steps" and not isinstance(kind, tuple):
                yield path + (name,), kind, f.default, limits[">="], limits["<="]


KEYS = [*_ranged(Scenario, ("scenario",)), *_ranged(materials._Entry, ("entry", 0))]
RANGES = {key[0]: key[3:] for key in KEYS}
LENGTHS = [path for path in RANGES if path[-1] in ("half_side_m", "distance_m")]
I_MIN, I_MAX = (("scenario", "sweep", name) for name in ("i_min_a", "i_max_a"))


def _inputs() -> dict:
    """The bundled scenario cut to its first coil and plate, and a database of its metal.

    One receiver of each class keeps every run short.
    """
    raw = json.loads(resources.files("wptmod.data").joinpath("paper_repro.json").read_text())
    raw["receiver_coils"] = raw["receiver_coils"][:1]
    raw["metal_plates"] = raw["metal_plates"][:1]
    material = eddy.load_materials()[raw["metal_plates"][0]["material"]]
    entry = {"name": material.name, "conductivity_S_per_m": material.conductivity}
    return {"scenario": raw, "entry": [entry]}


def _edited(values: dict) -> dict:
    """_inputs() with each key path in values set; a list key holds its one value."""
    inputs = _inputs()
    for path, value in values.items():
        *head, last = path
        node = inputs
        for step in head:
            node = node[step]
        node[last] = [value] if isinstance(node.get(last), list) else value
    return inputs


def _numbers(value):
    """Every number in a JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [n for item in value for n in _numbers(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def _run(inputs: dict) -> list[int]:
    """Each verb on inputs, in process, until one refuses; checks the domain's outcomes.

    Returns the exit codes.  Only `fit` may exit 4, and only the work cap may
    exit 2; either ends the run, since the later verbs lack their upstream
    artifact.  Every number written is finite.
    """
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "db.json").write_text(json.dumps(inputs["entry"]))
        path = tmp / "scenario.json"
        path.write_text(json.dumps({**inputs["scenario"], "materials_db": str(tmp / "db.json")}))
        out = tmp / "out"
        for verb in VERBS:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main([verb, "--scenario", str(path), "--out", str(out)]))
            if codes[-1] == cli.EXIT_VALIDATION:
                assert "m is too small" in err.getvalue(), err.getvalue()
                assert "over its cap of 1e+09" in err.getvalue(), err.getvalue()
                break
            assert codes[-1] in ((0, 4) if verb == "fit" else (0,)), err.getvalue()
            if codes[-1]:
                break
        for name in ("couplings.csv", "impedance.csv", "curves.csv"):
            if (out / name).exists():
                for cell in (out / name).read_text().replace("\n", ",").split(","):
                    with contextlib.suppress(ValueError):
                        assert math.isfinite(float(cell)), (name, cell)
        for name in ("threshold.json", "report.json"):
            if (out / name).exists():
                assert all(map(math.isfinite, _numbers(json.loads((out / name).read_text()))))
    return codes


@pytest.mark.parametrize("end", [0, 1], ids=["low", "high"])
def test_every_key_at_one_end(end):
    values = {path: ends[end] for path, ends in RANGES.items()}
    # i_max_a must pass i_min_a, so at either end the sweep spans the whole current range
    values[I_MIN], values[I_MAX] = RANGES[I_MIN][0], RANGES[I_MAX][1]
    assert _run(_edited(values))[:3] == [0, 0, 0]


@pytest.mark.parametrize("end", [0, 1], ids=["low", "high"])
@pytest.mark.parametrize("path", LENGTHS, ids=[".".join(map(str, p[1:])) for p in LENGTHS])
def test_each_length_at_each_end(path, end):
    assert _run(_edited({path: RANGES[path][end]}))[:3] == [0, 0, 0]


def test_every_plate_at_the_corners_loses_power(tmp_path):
    # so build_sweeps needs no refusal of a plate with r_m = l_m = 0: every plate a file
    # can bind loses some power, or meets the work cap.  The grid spans the corners of
    # each key a plate's r_m depends on, and mu_r between its ends too, at one turn
    # (r_m scales as turns^2); the faintest plate, 1 Hz, 1e-3 S/m, mu_r 1e6 and 1e-4 m
    # at 100 m, reads 1.9e-33 ohm
    mu_r = ("entry", 0, "mu_r")
    ends = [
        ("scenario", "frequency_hz"),
        ("entry", 0, "conductivity_S_per_m"),
        ("scenario", "transmitter", "half_side_m"),
        ("scenario", "metal_plates", 0, "half_side_m"),
        ("scenario", "metal_plates", 0, "distance_m"),
    ]
    axes = {path: RANGES[path] for path in ends}
    axes[mu_r] = (RANGES[mu_r][0], 1e2, 1e4, RANGES[mu_r][1])
    db = tmp_path / "db.json"
    r_m, refused = [], 0
    for corner in itertools.product(*axes.values()):
        inputs = _edited({**dict(zip(axes, corner)), ("scenario", "transmitter", "turns"): 1})
        db.write_text(json.dumps(inputs["entry"]))
        sc = parse_scenario({**inputs["scenario"], "materials_db": str(db)})
        try:
            [(_, rx)] = plates(sc)
        except ScenarioError as exc:
            assert "over its cap of 1e+09" in str(exc), exc
            refused += 1
        else:
            r_m.append(rx.r_m)
    assert len(r_m) + refused == 128 and refused < 64
    assert min(r_m) > 0.0


def _value(kind, default, low, high):
    """A value of a key with these bounds: an end, or drawn log-uniform between them."""
    if low > 0:
        inner = st.floats(math.log10(low), math.log10(high))
        inner = inner.map(lambda e: min(max(10.0**e, low), high))
    else:
        inner = st.floats(low, high)
    value = st.one_of(st.sampled_from([low, high]), inner)
    if kind is schema.integer:
        value = value.map(round)
    return st.one_of(st.none(), value) if default is None else value


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.fixed_dictionaries({key[0]: _value(*key[1:]) for key in KEYS}))
def test_anywhere_in_the_domain(values):
    values = {path: value for path, value in values.items() if value is not None}
    values[I_MIN], values[I_MAX] = sorted((values[I_MIN], values[I_MAX]))
    inputs = _edited(values)
    # the reader refuses a sweep whose steps curves.csv could not tell apart
    steps = inputs["scenario"]["sweep"]["steps"]
    assume(values[I_MAX] - values[I_MIN] >= MIN_STEP_A * (steps - 1))
    _run(inputs)


def test_sweep_at_the_minimum_step_accepted():
    # a span of exactly MIN_STEP_A per step, exact in floating point, is allowed
    inputs = _edited({I_MIN: 0, I_MAX: 1e-9, ("scenario", "sweep", "steps"): 2})
    assert 1e-9 - 0 == MIN_STEP_A * (2 - 1)
    assert parse_scenario(inputs["scenario"]).sweep.i_max_a == 1e-9


def test_sweep_finer_than_curves_csv_named(tmp_path, capsys):
    # 20 steps of 2.5e-103 A all printed as 0.000000000000, and `fit` refused the curve
    inputs = _edited({I_MIN: 0, I_MAX: 5e-102})
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(inputs["scenario"]))
    code = cli.main(["curves", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_VALIDATION
    assert (
        "scenario.sweep.i_max_a must be > i_min_a 0, got 5e-102 (by at least 1e-09 A per step, "
        "20 steps)" in capsys.readouterr().err
    )
    assert not (tmp_path / "o").exists()
