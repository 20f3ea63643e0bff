"""Scenario files: human-editable JSON binding geometry to the pipeline.

Keys carry explicit units in their names; unknown keys are rejected so a
typo cannot silently fall back to a default.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import circuit, eddy, magnetics
from .characteristics import NoiseSpec, SweepSpec, evaluate_point
from .circuit import DriveSpec, MetalReceiver, TxCoil, couplings_from_coaxial
from .detection import Sample
from .errors import ScenarioError


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ScenarioError(f"{where} must be an object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ScenarioError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ScenarioError(f"missing key {key!r} in {where}")
    return section[key]


def _finite(value, where: str, integer: bool = False):
    """value as a finite number (an integer if asked); bools are rejected."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max  # also rejects nan and huge ints
        or (integer and value != int(value))
    ):
        kind = "an integer" if integer else "a finite number"
        raise ScenarioError(f"{where} must be {kind}, got {value!r}")
    return int(value) if integer else value


def _list(section: dict, key: str, where: str, default=()) -> list:
    """section[key], which must be a list; an absent key gives the default."""
    value = section.get(key, list(default))
    if not isinstance(value, list):
        raise ScenarioError(f"{where}.{key} must be a list, got {value!r}")
    return value


_REQUIRED = object()


def _number(section: dict, key: str, where: str, default=_REQUIRED, integer: bool = False):
    """section[key] read by _finite; an absent optional key gives the default.

    Keys whose default is None also take an explicit null.
    """
    optional = default is not _REQUIRED
    if optional and (key not in section or (default is None and section[key] is None)):
        return default
    return _finite(_require(section, key, where), f"{where}.{key}", integer)


def _label(entry: dict, where: str, seen: set[str]) -> str:
    """Receiver label, unique within its class and safe as a curves.csv field."""
    label = _require(entry, "label", where)
    # curves.csv splits rows on line boundaries and fields on commas
    if not isinstance(label, str) or "," in label or "".join(label.splitlines()) != label:
        raise ScenarioError(
            f"{where}.label must be a string without commas or line breaks, got {label!r}"
        )
    if label in seen:
        raise ScenarioError(f"duplicate label {label!r} at {where}")
    seen.add(label)
    return label


@dataclass(frozen=True)
class TransmitterSpec:
    half_side_m: float
    turns: int
    resistance_ohm: float
    inductance_h: float
    capacitance_f: float | None = None


@dataclass(frozen=True)
class ReceiverCoilSpec:
    label: str
    load_ohm: float
    half_side_m: float
    turns: int
    resistance_ohm: float
    inductance_h: float
    distance_m: float
    capacitance_f: float | None = None


@dataclass(frozen=True)
class MetalPlateSpec:
    label: str
    material: str
    half_side_m: float
    distance_m: float
    mu_r: float | None = None


@dataclass(frozen=True)
class SweepSection:
    i_min_a: float
    i_max_a: float
    steps: int
    azimuth_rad: float


@dataclass(frozen=True)
class DetectionSection:
    degree: int = 2
    gate_amps: float = 3.0
    test_currents_a: tuple[float, ...] = (3.0, 6.0, 9.0)


@dataclass(frozen=True)
class Scenario:
    frequency_hz: float
    transmitter: TransmitterSpec
    receiver_coils: tuple[ReceiverCoilSpec, ...]
    metal_plates: tuple[MetalPlateSpec, ...]
    sweep: SweepSection
    noise: NoiseSpec
    detection: DetectionSection
    materials_db: str | None = None

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * self.frequency_hz


def load_scenario(path=None) -> Scenario:
    """Load and validate a scenario file; None loads the bundled repro setup."""
    if path is None:
        text = resources.files("wptmod.data").joinpath("paper_repro.json").read_text()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return parse_scenario(raw)


def parse_scenario(raw: dict) -> Scenario:
    _check_keys(
        raw,
        {
            "frequency_hz",
            "transmitter",
            "receiver_coils",
            "metal_plates",
            "sweep",
            "noise",
            "detection",
            "materials_db",
        },
        "scenario",
    )
    freq = _number(raw, "frequency_hz", "scenario")
    if not freq > 0.0:
        raise ScenarioError("frequency_hz must be > 0")

    tx_raw = _require(raw, "transmitter", "scenario")
    _check_keys(
        tx_raw,
        {"half_side_m", "turns", "resistance_ohm", "inductance_h", "capacitance_f"},
        "transmitter",
    )
    tx = TransmitterSpec(
        half_side_m=_number(tx_raw, "half_side_m", "transmitter"),
        turns=_number(tx_raw, "turns", "transmitter", integer=True),
        resistance_ohm=_number(tx_raw, "resistance_ohm", "transmitter"),
        inductance_h=_number(tx_raw, "inductance_h", "transmitter"),
        capacitance_f=_number(tx_raw, "capacitance_f", "transmitter", None),
    )

    coils, seen = [], set()
    for idx, entry in enumerate(_list(raw, "receiver_coils", "scenario")):
        where = f"receiver_coils[{idx}]"
        _check_keys(
            entry,
            {
                "label",
                "load_ohm",
                "half_side_m",
                "turns",
                "resistance_ohm",
                "inductance_h",
                "distance_m",
                "capacitance_f",
            },
            where,
        )
        coils.append(
            ReceiverCoilSpec(
                label=_label(entry, where, seen),
                load_ohm=_number(entry, "load_ohm", where),
                half_side_m=_number(entry, "half_side_m", where),
                turns=_number(entry, "turns", where, integer=True),
                resistance_ohm=_number(entry, "resistance_ohm", where),
                inductance_h=_number(entry, "inductance_h", where),
                distance_m=_number(entry, "distance_m", where),
                capacitance_f=_number(entry, "capacitance_f", where, None),
            )
        )

    plates, seen = [], set()
    for idx, entry in enumerate(_list(raw, "metal_plates", "scenario")):
        where = f"metal_plates[{idx}]"
        _check_keys(
            entry, {"label", "material", "half_side_m", "distance_m", "mu_r"}, where
        )
        label = _label(entry, where, seen)
        material = _require(entry, "material", where)
        if not isinstance(material, str):
            raise ScenarioError(f"{where}.material must be a string, got {material!r}")
        plates.append(
            MetalPlateSpec(
                label=label,
                material=material,
                half_side_m=_number(entry, "half_side_m", where),
                distance_m=_number(entry, "distance_m", where),
                mu_r=_number(entry, "mu_r", where, None),
            )
        )

    sweep_raw = _require(raw, "sweep", "scenario")
    _check_keys(sweep_raw, {"i_min_a", "i_max_a", "steps", "azimuth_rad"}, "sweep")
    sweep = SweepSection(
        i_min_a=_number(sweep_raw, "i_min_a", "sweep"),
        i_max_a=_number(sweep_raw, "i_max_a", "sweep"),
        steps=_number(sweep_raw, "steps", "sweep", integer=True),
        azimuth_rad=_number(sweep_raw, "azimuth_rad", "sweep"),
    )

    noise_raw = raw.get("noise", {})
    _check_keys(noise_raw, {"relative_sigma", "seed"}, "noise")
    try:
        noise = NoiseSpec(
            relative_sigma=_number(noise_raw, "relative_sigma", "noise", 0.01),
            seed=_number(noise_raw, "seed", "noise", 0, integer=True),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    det_raw = raw.get("detection", {})
    _check_keys(det_raw, {"degree", "gate_amps", "test_currents_a"}, "detection")
    currents = _list(det_raw, "test_currents_a", "detection", (3.0, 6.0, 9.0))
    detection = DetectionSection(
        degree=_number(det_raw, "degree", "detection", 2, integer=True),
        gate_amps=_number(det_raw, "gate_amps", "detection", 3.0),
        test_currents_a=tuple(
            _finite(v, f"detection.test_currents_a[{j}]") for j, v in enumerate(currents)
        ),
    )

    try:
        return Scenario(
            frequency_hz=freq,
            transmitter=tx,
            receiver_coils=tuple(coils),
            metal_plates=tuple(plates),
            sweep=sweep,
            noise=noise,
            detection=detection,
            materials_db=raw.get("materials_db"),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


# -- builders binding a scenario to the physics modules ----------------------


def build_tx_coil(sc: Scenario) -> TxCoil:
    t = sc.transmitter
    cap = t.capacitance_f
    if cap is None:
        cap = circuit.resonant_capacitance(t.inductance_h, sc.omega)
    try:
        return TxCoil(t.resistance_ohm, t.inductance_h, cap)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def tx_loop(sc: Scenario) -> magnetics.SquareLoop:
    try:
        return magnetics.SquareLoop(sc.transmitter.half_side_m, sc.transmitter.turns)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def coil_pair(sc: Scenario, spec: ReceiverCoilSpec) -> magnetics.CoaxialPair:
    return magnetics.CoaxialPair(
        primary=tx_loop(sc),
        secondary_half_side=spec.half_side_m,
        separation=spec.distance_m,
        secondary_turns=spec.turns,
    )


def coil_coupling(sc: Scenario, spec: ReceiverCoilSpec) -> float:
    """Coil-to-coil coupling, exact for the coaxial square pair."""
    return magnetics.mutual_inductance_coaxial_squares(coil_pair(sc, spec))


def plate_coupling(sc: Scenario, spec: MetalPlateSpec) -> float:
    return magnetics.mutual_inductance_coil_plate(
        tx_loop(sc), spec.half_side_m, spec.distance_m
    )


def plate_material(sc: Scenario, spec: MetalPlateSpec) -> eddy.MetalMaterial:
    db = eddy.load_materials(sc.materials_db)
    key = spec.material.lower()
    if key not in db:
        raise ScenarioError(f"unknown material {spec.material!r}")
    mat = db[key]
    if spec.mu_r is not None:
        mat = eddy.MetalMaterial(mat.name, mat.conductivity, spec.mu_r)
    return mat


def plate_eddy_geometry(sc: Scenario, spec: MetalPlateSpec) -> eddy.EddyGeometry:
    # kernel length scale saturates at whichever of plate and coil is smaller
    scale = min(spec.half_side_m, sc.transmitter.half_side_m)
    return eddy.EddyGeometry(
        coil_half_side=scale,
        coil_turns=sc.transmitter.turns,
        plate_distance=spec.distance_m,
        angular_frequency=sc.omega,
    )


def plate_receiver(sc: Scenario, spec: MetalPlateSpec) -> MetalReceiver:
    imp = eddy.plate_impedance(plate_eddy_geometry(sc, spec), plate_material(sc, spec))
    return MetalReceiver(r_m=imp.r_m, l_m=imp.l_m)


def coil_receiver(sc: Scenario, spec: ReceiverCoilSpec) -> circuit.CoilReceiver:
    cap = spec.capacitance_f
    if cap is None:
        cap = circuit.resonant_capacitance(spec.inductance_h, sc.omega)
    try:
        return circuit.CoilReceiver(
            resistance=spec.resistance_ohm,
            inductance=spec.inductance_h,
            capacitance=cap,
            load=spec.load_ohm,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def build_sweeps(sc: Scenario) -> list[SweepSpec]:
    """All labeled sweeps of the scenario; labels carry the class prefix.

    Raises ScenarioError when either receiver class is empty.
    """
    for name in ("receiver_coils", "metal_plates"):
        if not getattr(sc, name):
            raise ScenarioError(f"{name} is empty; the threshold fit needs both classes")
    tx = build_tx_coil(sc)
    drive = DriveSpec(angular_frequency=sc.omega, amplitude=0.0, steering=sc.sweep.azimuth_rad)
    receivers = [
        (f"coil:{spec.label}", coil_coupling(sc, spec), coil_receiver(sc, spec))
        for spec in sc.receiver_coils
    ] + [
        (f"metal:{spec.label}", plate_coupling(sc, spec), plate_receiver(sc, spec))
        for spec in sc.metal_plates
    ]
    return [
        SweepSpec(
            i_min=sc.sweep.i_min_a,
            i_max=sc.sweep.i_max_a,
            steps=sc.sweep.steps,
            drive=drive,
            receiver=receiver,
            couplings=couplings_from_coaxial(m, sc.sweep.azimuth_rad),
            tx=tx,
            label=label,
        )
        for label, m, receiver in receivers
    ]


def generate_test_samples(
    sc: Scenario, seed: int | None = None, sweeps: list[SweepSpec] | None = None
):
    """Noisy labeled test points at the scenario's test currents.

    Returns (true_label, label, Sample) triples.  u_tx and p_in are scaled
    by independent (1 + eps) factors, clipped at 0; one draw of shape
    (receivers, currents, 2) fixes the receiver-major, current-minor order,
    so a seed pins the whole batch.  Pass precomputed sweeps to skip
    rebuilding couplings and impedances.
    """
    sweeps = build_sweeps(sc) if sweeps is None else sweeps
    currents = sc.detection.test_currents_a
    rng = np.random.default_rng(sc.noise.seed if seed is None else seed)
    eps = rng.normal(0.0, sc.noise.relative_sigma, (len(sweeps), len(currents), 2))
    samples = []
    for sweep, eps_r in zip(sweeps, eps):
        true_label, name = sweep.label.split(":", 1)
        u, p = evaluate_point(sweep, currents)
        u = np.maximum(u * (1.0 + eps_r[:, 0]), 0.0).tolist()
        p = np.maximum(p * (1.0 + eps_r[:, 1]), 0.0).tolist()
        samples += [(true_label, name, Sample(*row)) for row in zip(currents, u, p)]
    return samples
