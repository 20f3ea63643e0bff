"""Scenario files: human-editable JSON binding geometry to the pipeline.

Keys carry explicit units in their names; unknown keys are rejected so a
typo cannot silently fall back to a default.  Each spec class below
declares its keys once, as fields with their kind, default and bounds
(wptmod.schema, whose named ranges are the physical domain of each
quantity), and parse_scenario reads them all in one pass.

Importing this module loads the spec classes and magnetics, which runs on
the math module, so `couplings` runs without numpy.  Each builder imports
the physics modules it calls when it starts, once per call and never in a
per-receiver helper: plates() imports eddy and materials, build_sweeps()
circuit and characteristics, and generate_test_samples() numpy, circuit,
characteristics and detection.  So a CLI verb loads only the modules it
runs: `fit` loads neither eddy nor materials, and only `detect` loads them
all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import TYPE_CHECKING

from . import magnetics, schema
from .errors import ScenarioError, WorkLimitError
from .schema import decode_json, finite, integer, key, read, read_text, string, unique_label

if TYPE_CHECKING:
    from .characteristics import SweepSpec
    from .circuit import MetalReceiver
    from .materials import MetalMaterial


# the most points one sweep may hold: each point is a curves.csv row of
# about 60 bytes per receiver, so this bounds the sweep arrays and the file
MAX_STEPS = 100_000
# the least current step of a sweep: curves.csv keeps 12 decimals of each
# current, so points closer than this could print equal, and `fit` refuses a
# curve whose currents do not rise.  1e-9 A is 1000 of those decimals and
# over 500 float spacings at the largest current, 1e4 A
MIN_STEP_A = 1e-9


@dataclass(frozen=True)
class TransmitterSpec:
    half_side_m: float = key(finite, **schema.LENGTH_M)
    turns: int = key(integer, **schema.TURNS)
    resistance_ohm: float = key(finite, **schema.RESISTANCE_OHM)
    inductance_h: float = key(finite, **schema.INDUCTANCE_H)
    capacitance_f: float | None = key(finite, None, **schema.CAPACITANCE_F)


@dataclass(frozen=True)
class ReceiverCoilSpec:
    label: str = key(unique_label)
    load_ohm: float = key(finite, **schema.RESISTANCE_OHM)
    half_side_m: float = key(finite, **schema.LENGTH_M)
    turns: int = key(integer, **schema.TURNS)
    resistance_ohm: float = key(finite, **schema.RESISTANCE_OHM)
    inductance_h: float = key(finite, **schema.INDUCTANCE_H)
    distance_m: float = key(finite, **schema.LENGTH_M)
    capacitance_f: float | None = key(finite, None, **schema.CAPACITANCE_F)


@dataclass(frozen=True)
class MetalPlateSpec:
    label: str = key(unique_label)
    material: str = key(string)
    half_side_m: float = key(finite, **schema.LENGTH_M)
    distance_m: float = key(finite, **schema.LENGTH_M)
    mu_r: float | None = key(finite, None, **schema.MU_R)


ReceiverSpec = ReceiverCoilSpec | MetalPlateSpec


@dataclass(frozen=True)
class SweepSection:
    i_min_a: float = key(finite, **schema.CURRENT_A)
    i_max_a: float = key(finite, **schema.CURRENT_A)  # > i_min_a, checked by parse_scenario
    steps: int = key(integer, ge=2, le=MAX_STEPS)


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative relative Gaussian noise, reproducible from the seed."""

    relative_sigma: float = key(finite, 0.01, **schema.RELATIVE_SIGMA)
    seed: int = key(integer, 0, ge=0)


@dataclass(frozen=True)
class DetectionSection:
    degree: int = key(integer, 2, ge=1)
    gate_amps: float = key(finite, 3.0, gt=0)
    test_currents_a: tuple[float, ...] = key([finite], (3.0, 6.0, 9.0), **schema.CURRENT_A)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    frequency_hz: float = key(finite, **schema.FREQUENCY_HZ)
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
    text = read_text(path, "scenario file", "paper_repro.json")
    return parse_scenario(decode_json(text, f"scenario file {path!r}"))


def parse_scenario(raw: dict) -> Scenario:
    """Validate a scenario dict; ScenarioError names the first bad key path."""
    sc = read(Scenario, raw, "scenario")
    sweep = sc.sweep
    if not sweep.i_max_a - sweep.i_min_a >= MIN_STEP_A * (sweep.steps - 1):
        raise ScenarioError(
            f"scenario.sweep.i_max_a must be > i_min_a {sweep.i_min_a!r}, got "
            f"{sweep.i_max_a!r} (by at least {MIN_STEP_A:g} A per step, {sweep.steps - 1} steps)"
        )
    return sc


# -- builders binding a scenario to the physics modules ----------------------


def tx_loop(sc: Scenario) -> magnetics.SquareLoop:
    return magnetics.SquareLoop(sc.transmitter.half_side_m, sc.transmitter.turns)


def coil_pair(sc: Scenario, spec: ReceiverCoilSpec) -> magnetics.CoaxialPair:
    return magnetics.CoaxialPair(
        primary=tx_loop(sc),
        secondary_half_side=spec.half_side_m,
        separation=spec.distance_m,
        secondary_turns=spec.turns,
    )


def plates(sc: Scenario) -> list[tuple[MetalMaterial, MetalReceiver]]:
    """The material and equivalent series R-L branch of each metal plate.

    Reads the material database once, then binds each plate in order.
    Raises ScenarioError naming the plate's key: its material when the
    database lacks it, its mu_r when that lies outside the material's
    mu_r_range, and its distance_m when the plate sits so close that its
    quadrature would pass eddy's work cap or overflow.  So of two faulty
    plates the first in order is reported, whichever its fault.
    """
    from . import eddy, materials

    db = materials.load_materials(sc.materials_db)
    out = []
    for index, spec in enumerate(sc.metal_plates):
        where = f"scenario.metal_plates[{index}]"
        mat = db.get(spec.material.lower())
        if mat is None:
            raise ScenarioError(
                f"{where}.material {spec.material!r} is not in the material database"
            )
        if spec.mu_r is not None:
            try:
                mat = replace(mat, rel_permeability=spec.mu_r)
            except ValueError as exc:
                raise ScenarioError(f"{where}.{exc}") from exc
        geom = eddy.EddyGeometry(
            # kernel length scale saturates at whichever of plate and coil is smaller
            coil_half_side=min(spec.half_side_m, sc.transmitter.half_side_m),
            coil_turns=sc.transmitter.turns,
            plate_distance=spec.distance_m,
            angular_frequency=sc.omega,
        )
        try:
            out.append((mat, eddy.plate_impedance(geom, mat)))
        except WorkLimitError as exc:
            raise ScenarioError(
                f"{where}.distance_m {spec.distance_m!r} m is too small: {exc}"
            ) from exc
    return out


def coupling(sc: Scenario, spec: ReceiverSpec) -> float:
    """The coupling m of receiver spec, of either class, to the transmitter.

    A coil's is the exact coaxial square-pair form, a plate's the closed form
    of its radius integral.  Inside the input domain (wptmod.schema) m and
    (w*m)^2 are finite floats.
    """
    if isinstance(spec, ReceiverCoilSpec):
        return magnetics.mutual_inductance_coaxial_squares(coil_pair(sc, spec))
    return magnetics.mutual_inductance_coil_plate(tx_loop(sc), spec.half_side_m, spec.distance_m)


def build_sweeps(sc: Scenario) -> list[SweepSpec]:
    """All labeled sweeps of the scenario; labels carry the class prefix.

    Every receiver sits on coil B's axis (coupling m_bc = m, m_ac = 0) and
    coil B alone carries the drive (steering 0).  Raises ScenarioError when
    either receiver class is empty, and where plates() raises.  Inside the
    input domain (wptmod.schema) every plate loses some power, r_m > 0, and
    every Z_in is finite; a plate built outside it that reflects nothing
    meets circuit's "receiver impedance is zero" when its sweep is evaluated.
    """
    from . import characteristics, circuit

    for name in ("receiver_coils", "metal_plates"):
        if not getattr(sc, name):
            raise ScenarioError(f"{name} is empty; the threshold fit needs both classes")

    def capacitance(part: TransmitterSpec | ReceiverCoilSpec) -> float:
        """part's capacitance_f, or the one resonant with its inductance_h at the frequency."""
        if part.capacitance_f is not None:
            return part.capacitance_f
        return circuit.resonant_capacitance(part.inductance_h, sc.omega)

    t, s = sc.transmitter, sc.sweep
    tx = circuit.TxCoil(t.resistance_ohm, t.inductance_h, capacitance(t))
    bound = []
    for spec in sc.receiver_coils:
        cap = capacitance(spec)
        rx = circuit.CoilReceiver(spec.resistance_ohm, spec.inductance_h, cap, spec.load_ohm)
        bound.append(("coil", spec, rx))
    bound += [("metal", spec, rx) for spec, (_, rx) in zip(sc.metal_plates, plates(sc))]
    drive = circuit.DriveSpec(sc.omega)
    return [
        characteristics.SweepSpec(
            s.i_min_a, s.i_max_a, s.steps, drive, rx,
            circuit.Couplings(0.0, coupling(sc, spec)), tx, label=f"{kind}:{spec.label}",
        )
        for kind, spec, rx in bound
    ]


def generate_test_samples(
    sc: Scenario, seed: int | None = None, sweeps: list[SweepSpec] | None = None
):
    """Noisy labeled test points at the scenario's test currents.

    Returns (true_label, label, Sample) triples.  u_tx and p_in are scaled
    by independent (1 + eps) factors, clipped at 0; one draw of shape
    (receivers, currents, 2) fixes the receiver-major, current-minor order,
    so a seed pins the whole batch.  Each sweep's Z_in is computed once and
    every receiver meets every current in one broadcast.  Pass precomputed
    sweeps to skip rebuilding couplings and impedances.  Raises
    ScenarioError naming the test currents when there are none.
    """
    import numpy as np

    from . import characteristics, circuit, detection

    currents = sc.detection.test_currents_a
    if not currents:
        raise ScenarioError("scenario.detection.test_currents_a must not be empty")
    sweeps = build_sweeps(sc) if sweeps is None else sweeps
    rng = np.random.default_rng(sc.noise.seed if seed is None else seed)
    eps = rng.normal(0.0, sc.noise.relative_sigma, (len(sweeps), len(currents), 2))
    z_in = [circuit.input_impedance(s.drive, s.couplings, s.receiver, s.tx) for s in sweeps]
    # one row (|Z_in|, Re Z_in) per receiver, the magnitude from Python's abs:
    # np.abs over a complex array can differ in the last bit
    parts = np.array([(abs(z), z.real) for z in z_in])
    # (2, receivers, currents)
    noisy = np.array(characteristics._u_and_p(parts[:, :1], parts[:, 1:], currents))
    noisy *= 1.0 + eps.transpose(2, 0, 1)
    np.maximum(noisy, 0.0, out=noisy)
    samples = []
    for sweep, u, p in zip(sweeps, *noisy.tolist()):
        true_label, name = sweep.label.split(":", 1)
        # tuple.__new__ builds each Sample in C, skipping the NamedTuple's Python __new__
        points = map(tuple.__new__, repeat(detection.Sample), zip(currents, u, p))
        samples += zip(repeat(true_label), repeat(name), points)
    return samples
