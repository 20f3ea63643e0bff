"""Two-orthogonal-coil WPT simulation with communication-free metal detection."""

from .characteristics import CharacteristicCurve, NoiseSpec, SweepSpec, sweep_curve
from .circuit import (
    CoilReceiver,
    Couplings,
    DriveSpec,
    EquivalenceConstants,
    MetalReceiver,
    PhasorSolution,
    TxCoil,
    couplings_from_coaxial,
    current_decomposition,
    equivalence_constants,
    input_power,
    receiver_current,
    solve_from_drive,
    solve_full_system,
    solve_single_coil,
    transmitter_voltages,
)
from .detection import Sample, ThresholdModel, Verdict, classify, evaluate_batch, fit_thresholds
from .eddy import EddyGeometry, EddyImpedance, MetalMaterial, phi_k, plate_impedance
from .magnetics import (
    CoaxialPair,
    SquareLoop,
    mutual_inductance_coil_coil_closed,
    mutual_inductance_coil_plate,
    mutual_inductance_neumann,
)

__version__ = "0.1.0"
