"""Scenario files: human-editable JSON binding geometry to the pipeline.

Keys carry explicit units in their names; unknown keys are rejected so a
typo cannot silently fall back to a default.  Each spec class below
declares its keys once, as fields with their kind, default and bounds
(wptmod.schema), and parse_scenario reads them all in one pass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import circuit, eddy, magnetics
from .characteristics import SweepSpec, evaluate_point
from .circuit import DriveSpec, TxCoil, couplings_from_coaxial
from .detection import Sample
from .errors import ScenarioError, WorkLimitError
from .schema import finite, integer, key, keyed, load_json, read, string, unique_label


# the most points one sweep may hold: each point is a curves.csv row of
# about 60 bytes per receiver, so this bounds the sweep arrays and the file
MAX_STEPS = 100_000


@keyed
@dataclass(frozen=True)
class TransmitterSpec:
    half_side_m: float = key(finite, gt=0)
    turns: int = key(integer, ge=1)
    resistance_ohm: float = key(finite, gt=0)
    inductance_h: float = key(finite, gt=0)
    capacitance_f: float | None = key(finite, None, gt=0)


@keyed
@dataclass(frozen=True)
class ReceiverCoilSpec:
    label: str = key(unique_label)
    load_ohm: float = key(finite, gt=0)
    half_side_m: float = key(finite, gt=0)
    turns: int = key(integer, ge=1)
    resistance_ohm: float = key(finite, gt=0)
    inductance_h: float = key(finite, gt=0)
    distance_m: float = key(finite, gt=0)
    capacitance_f: float | None = key(finite, None, gt=0)


@keyed
@dataclass(frozen=True)
class MetalPlateSpec:
    label: str = key(unique_label)
    material: str = key(string)
    half_side_m: float = key(finite, gt=0)
    distance_m: float = key(finite, gt=0)
    mu_r: float | None = key(finite, None, ge=1)


@keyed
@dataclass(frozen=True)
class SweepSection:
    i_min_a: float = key(finite, ge=0)
    i_max_a: float = key(finite)  # > i_min_a, checked by parse_scenario
    steps: int = key(integer, ge=2, le=MAX_STEPS)
    azimuth_rad: float = key(finite)


@keyed
@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative relative Gaussian noise, reproducible from the seed."""

    relative_sigma: float = key(finite, 0.01, ge=0)
    seed: int = key(integer, 0, ge=0)


@keyed
@dataclass(frozen=True)
class DetectionSection:
    degree: int = key(integer, 2, ge=1)
    gate_amps: float = key(finite, 3.0, gt=0)
    test_currents_a: tuple[float, ...] = key([finite], (3.0, 6.0, 9.0), ge=0)


@keyed
@dataclass(frozen=True, kw_only=True)
class Scenario:
    frequency_hz: float = key(finite, gt=0)
    transmitter: TransmitterSpec = key(TransmitterSpec)
    receiver_coils: tuple[ReceiverCoilSpec, ...] = key([ReceiverCoilSpec], ())
    metal_plates: tuple[MetalPlateSpec, ...] = key([MetalPlateSpec], ())
    sweep: SweepSection = key(SweepSection)
    noise: NoiseSpec = key(NoiseSpec, NoiseSpec())
    detection: DetectionSection = key(DetectionSection, DetectionSection())
    materials_db: str | None = key(string, None)

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * self.frequency_hz


def load_scenario(path=None) -> Scenario:
    """Load and validate a scenario file; None loads the bundled repro setup."""
    return parse_scenario(load_json(path, "paper_repro.json", "scenario file"))


def parse_scenario(raw: dict) -> Scenario:
    """Validate a scenario dict; ScenarioError names the first bad key path."""
    sc = read(Scenario, raw, "scenario")
    if not sc.sweep.i_max_a > sc.sweep.i_min_a:
        raise ScenarioError(
            f"scenario.sweep.i_max_a must be > i_min_a {sc.sweep.i_min_a!r}, "
            f"got {sc.sweep.i_max_a!r}"
        )
    return sc


# -- builders binding a scenario to the physics modules ----------------------


def _capacitance(sc: Scenario, part: TransmitterSpec | ReceiverCoilSpec) -> float:
    """part's capacitance_f, or the one resonant with its inductance_h at the frequency."""
    if part.capacitance_f is not None:
        return part.capacitance_f
    # 1 / (w^2 L) is finite and nonzero only while w^2 L neither underflows nor overflows
    if not 1.0 / sys.float_info.max < sc.omega * sc.omega * part.inductance_h < math.inf:
        raise ScenarioError(
            f"scenario.frequency_hz {sc.frequency_hz!r} leaves no finite resonant "
            f"capacitance for inductance_h {part.inductance_h!r}; give capacitance_f"
        )
    return circuit.resonant_capacitance(part.inductance_h, sc.omega)


def tx_loop(sc: Scenario) -> magnetics.SquareLoop:
    return magnetics.SquareLoop(sc.transmitter.half_side_m, sc.transmitter.turns)


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


def plate_materials(sc: Scenario) -> list[eddy.MetalMaterial]:
    """The material of each metal plate, from one read of the database."""
    db = eddy.load_materials(sc.materials_db)
    mats = []
    for spec in sc.metal_plates:
        mat = db.get(spec.material.lower())
        if mat is None:
            raise ScenarioError(f"unknown material {spec.material!r}")
        if spec.mu_r is not None:
            mat = eddy.MetalMaterial(mat.name, mat.conductivity, spec.mu_r)
        mats.append(mat)
    return mats


def plate_impedance(
    sc: Scenario, index: int, mat: eddy.MetalMaterial
) -> circuit.MetalReceiver:
    """The equivalent series R-L branch of metal plate `index` made of mat.

    Raises ScenarioError naming the plate's distance_m when the plate sits so
    close that its quadrature would pass eddy's work cap.
    """
    spec = sc.metal_plates[index]
    geom = eddy.EddyGeometry(
        # kernel length scale saturates at whichever of plate and coil is smaller
        coil_half_side=min(spec.half_side_m, sc.transmitter.half_side_m),
        coil_turns=sc.transmitter.turns,
        plate_distance=spec.distance_m,
        angular_frequency=sc.omega,
    )
    try:
        return eddy.plate_impedance(geom, mat)
    except WorkLimitError as exc:
        raise ScenarioError(
            f"scenario.metal_plates[{index}].distance_m {spec.distance_m!r} m is too small: {exc}"
        ) from exc


def build_sweeps(sc: Scenario) -> list[SweepSpec]:
    """All labeled sweeps of the scenario; labels carry the class prefix.

    Raises ScenarioError when either receiver class is empty, or naming the
    plate when a plate reflects no impedance (r_m = l_m = 0), which leaves
    its receiver current undefined.
    """
    for name in ("receiver_coils", "metal_plates"):
        if not getattr(sc, name):
            raise ScenarioError(f"{name} is empty; the threshold fit needs both classes")
    t = sc.transmitter
    tx = TxCoil(t.resistance_ohm, t.inductance_h, _capacitance(sc, t))
    drive = DriveSpec(angular_frequency=sc.omega, amplitude=0.0, steering=sc.sweep.azimuth_rad)
    receivers = [
        (
            f"coil:{spec.label}",
            coil_coupling(sc, spec),
            circuit.CoilReceiver(
                spec.resistance_ohm, spec.inductance_h, _capacitance(sc, spec), spec.load_ohm
            ),
        )
        for spec in sc.receiver_coils
    ]
    for index, (spec, mat) in enumerate(zip(sc.metal_plates, plate_materials(sc))):
        m = plate_coupling(sc, spec)
        rx = plate_impedance(sc, index, mat)
        if rx.r_m == rx.l_m == 0.0:
            raise ScenarioError(
                f"scenario.metal_plates[{index}] {spec.label!r} (material {spec.material!r}) "
                "reflects no impedance: r_m = l_m = 0"
            )
        receivers.append((f"metal:{spec.label}", m, rx))
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
    rebuilding couplings and impedances.  Raises ScenarioError naming the
    test currents when there are none, and naming them or the noise level
    when a test point overflows.
    """
    currents = sc.detection.test_currents_a
    if not currents:
        raise ScenarioError("scenario.detection.test_currents_a must not be empty")
    sweeps = build_sweeps(sc) if sweeps is None else sweeps
    rng = np.random.default_rng(sc.noise.seed if seed is None else seed)
    eps = rng.normal(0.0, sc.noise.relative_sigma, (len(sweeps), len(currents), 2))
    # overflow is detected below, by key, instead of warned about
    with np.errstate(over="ignore", invalid="ignore"):
        clean = np.array([evaluate_point(sweep, currents) for sweep in sweeps])
        noisy = np.maximum(clean * (1.0 + eps.transpose(0, 2, 1)), 0.0)
    if not np.isfinite(clean).all():
        raise ScenarioError(
            f"scenario.detection.test_currents_a {max(currents)!r} A overflows the test points"
        )
    if not np.isfinite(noisy).all():
        raise ScenarioError(
            f"scenario.noise.relative_sigma {sc.noise.relative_sigma!r} overflows the test points"
        )
    samples = []
    for sweep, (u, p) in zip(sweeps, noisy.tolist()):
        true_label, name = sweep.label.split(":", 1)
        samples += [(true_label, name, Sample(*row)) for row in zip(currents, u, p)]
    return samples
