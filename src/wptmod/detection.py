"""Threshold fitting and metal-vs-coil classification.

Training takes labeled characteristic curves for both classes, fits a line
in the U-I plane and a polynomial in the P-I plane through the midpoints
between the metal upper envelope and the coil lower envelope, and gates
verdicts below a minimum transmitter current.  The paper gates them because
noise dominates at low current, but the scenario's noise is relative only:
every margin t(I)/u(I) is the same at every current (the fitted intercepts
are rounding), so the gate changes no error probability and only drops
points.  It would matter under an absolute noise floor, which the model
lacks.

One decision rule classifies (I, U, P) points held in arrays, in one array
pass; classify (one point) and evaluate_batch (a report) are its only public
callers.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .characteristics import CharacteristicCurve
from .errors import NonSeparableDataError, ScenarioError
from .schema import decode_json, finite, integer, key, read


class Sample(NamedTuple):
    """One measurement triple taken at a fixed transmitter current.

    A plain record: classify and evaluate_batch check its values.
    """

    i_tx: float
    u_tx: float
    p_in: float


class Label(enum.Enum):
    METAL = "metal"
    COIL = "coil"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Verdict:
    """Classification outcome with per-test detail.

    u_below/p_below report whether the sample fell strictly below each
    threshold curve; gated flags a sample under the minimum-current gate.
    """

    label: Label
    u_below: bool | None
    p_below: bool | None
    gated: bool


@dataclass(frozen=True)
class _ULine:
    slope_V_per_A: float = key(finite)
    intercept_V: float = key(finite)


@dataclass(frozen=True)
class _ThresholdFile:
    """threshold.json, keyed as ThresholdModel.to_json writes it."""

    u_line: _ULine = key(_ULine)
    p_poly_W_per_A_n: tuple[float, ...] = key([finite])
    degree: int = key(integer, ge=1)
    i_min_gate_A: float = key(finite, gt=0)


@dataclass(frozen=True)
class ThresholdModel:
    """Fitted separating curves plus the minimum-current validity gate."""

    u_slope: float  # [V/A]
    u_intercept: float  # [V]
    p_poly: tuple[float, ...]  # ascending powers of current, degree >= 1
    i_min_gate: float = 3.0  # [A]

    def __post_init__(self):
        if len(self.p_poly) < 2:
            raise ValueError(f"p_poly must have at least 2 coefficients, got {len(self.p_poly)}")
        if not 0.0 < self.i_min_gate < math.inf:
            raise ValueError(f"i_min_gate must be finite and > 0, got {self.i_min_gate!r}")
        # every comparison with a NaN threshold is false: each decided point would read coil
        for name in ("u_slope", "u_intercept"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        object.__setattr__(self, "p_poly", tuple(float(c) for c in self.p_poly))
        if not all(map(math.isfinite, self.p_poly)):
            raise ValueError(f"p_poly must be finite, got {self.p_poly!r}")

    @property
    def degree(self) -> int:
        """The P-I polynomial's degree, fixed by its coefficient count."""
        return len(self.p_poly) - 1

    def u_threshold(self, i_tx):
        """The U-I threshold at i_tx, a float or a float array.

        numpy rounds each element as Python rounds one float, so a point's
        threshold does not depend on the batch it is in; likewise p_threshold.
        """
        return self.u_slope * i_tx + self.u_intercept

    def p_threshold(self, i_tx):
        # Horner's rule in polyval's order, so the result is bit-identical
        acc = 0.0
        for coeff in reversed(self.p_poly):
            acc = acc * i_tx + coeff
        return acc

    def to_json(self) -> str:
        line = _ULine(self.u_slope, self.u_intercept)
        f = _ThresholdFile(line, self.p_poly, self.degree, self.i_min_gate)
        return json.dumps(asdict(f), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ThresholdModel":
        """Parse threshold.json; ScenarioError names the first bad key path."""
        f = read(_ThresholdFile, decode_json(text, "threshold.json"), "threshold.json")
        if len(f.p_poly_W_per_A_n) != f.degree + 1:
            raise ScenarioError(
                f"threshold.json.p_poly_W_per_A_n must have degree + 1 = {f.degree + 1} "
                f"entries, got {len(f.p_poly_W_per_A_n)}"
            )
        line = f.u_line
        return cls(line.slope_V_per_A, line.intercept_V, f.p_poly_W_per_A_n, f.i_min_gate_A)


def _on_grid(curves: list[CharacteristicCurve]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fit's grid and the curves' (u, p) on it, one row per curve.

    The curves share the first curve's grid when each i_tx is that array,
    as every sweep over one range has it, or equals it; their own values
    are then taken as they are.  Otherwise they are linearly resampled onto
    a grid that spans their common range with the largest point count among
    them, so the grid does not depend on the curves' order.
    """
    first = curves[0].i_tx
    if all(c.i_tx is first or np.array_equal(c.i_tx, first) for c in curves[1:]):
        return first, np.stack([c.u_tx for c in curves]), np.stack([c.p_in for c in curves])
    lo = max(float(c.i_tx[0]) for c in curves)
    hi = min(float(c.i_tx[-1]) for c in curves)
    if not lo < hi:
        raise ValueError("curves have no overlapping current range")
    grid = np.linspace(lo, hi, max(c.i_tx.size for c in curves))
    u = np.stack([np.interp(grid, c.i_tx, c.u_tx) for c in curves])
    p = np.stack([np.interp(grid, c.i_tx, c.p_in) for c in curves])
    return grid, u, p


def _scaled_polyfit(x: np.ndarray, y: np.ndarray, degree: int) -> np.ndarray:
    """Least squares on the Vandermonde system with column norm scaling."""
    vand = np.vander(x, degree + 1, increasing=True)
    norms = np.linalg.norm(vand, axis=0)
    norms[norms == 0.0] = 1.0
    coeffs, *_ = np.linalg.lstsq(vand / norms, y, rcond=None)
    return coeffs / norms


def fit_thresholds(
    metal_curves: list[CharacteristicCurve],
    coil_curves: list[CharacteristicCurve],
    degree: int = 2,
    i_min_gate: float = 3.0,
) -> ThresholdModel:
    """Fit separating threshold curves from labeled training curves.

    At each grid current the fit target is the midpoint between the metal
    upper envelope and the coil lower envelope: a least-squares line in the
    U-I plane and a polynomial of the given degree in the P-I plane.  One
    pass puts every curve on the grid: curves on one grid (swept over one
    range, or read back from one curves.csv) are taken as they are, curves
    on mismatched grids linearly resampled onto their common current range,
    at the largest point count among the curves.
    Raises NonSeparableDataError when the class envelopes overlap at 10% or
    more of the grid points at or above the gate, or at the last point when
    the gate lies past the grid, and ValueError when the degree is below 1 or
    not below the grid's point count (an underdetermined fit).
    """
    if not metal_curves or not coil_curves:
        raise ValueError("need at least one metal and one coil curve")
    grid, u, p = _on_grid(metal_curves + coil_curves)
    if not 1 <= degree < grid.size:
        raise ValueError(
            f"degree must be >= 1 and < {grid.size}, the grid's point count, got {degree}"
        )
    n = len(metal_curves)
    u_hi = u[:n].max(axis=0)
    u_lo = u[n:].min(axis=0)
    p_hi = p[:n].max(axis=0)
    p_lo = p[n:].min(axis=0)

    start = min(i_min_gate, grid[-1])
    checked = grid >= start
    overlap = (u_hi >= u_lo) | (p_hi >= p_lo)
    frac = float(np.count_nonzero(overlap & checked)) / float(np.count_nonzero(checked))
    if frac >= 0.10:
        raise NonSeparableDataError(
            f"class envelopes overlap at {frac:.0%} of the grid points at or above {start:g} A, "
            f"{np.count_nonzero(checked)} in all (gate {i_min_gate:g} A)"
        )

    u_mid = 0.5 * (u_hi + u_lo)
    p_mid = 0.5 * (p_hi + p_lo)
    line = _scaled_polyfit(grid, u_mid, 1)
    p_coeffs = _scaled_polyfit(grid, p_mid, degree)
    return ThresholdModel(
        u_slope=float(line[1]),
        u_intercept=float(line[0]),
        p_poly=tuple(float(c) for c in p_coeffs),
        i_min_gate=i_min_gate,
    )


# a decision code indexes Label's members: 0 metal, 1 coil, 2 indeterminate
_VERDICTS = tuple(lab.value for lab in Label)


def _decide(i_tx, u_tx, p_in, model: ThresholdModel):
    """(code, gated, u_below, p_below) arrays of the decision rule; see classify."""
    i, u, p = (np.asarray(a, dtype=float) for a in (i_tx, u_tx, p_in))
    for a in (i, u, p):
        if not ((a >= 0.0) & (a < math.inf)).all():
            raise ValueError("sample values must be finite and >= 0")
    # a threshold that overflows compares as the scalar float one does
    with np.errstate(over="ignore", invalid="ignore"):
        u_below = u < model.u_threshold(i)
        p_below = p < model.p_threshold(i)
    gated = i < model.i_min_gate
    # agreeing sub-tests: metal (0) when both are below, else coil (1)
    code = np.where(gated | (u_below != p_below), 2, ~u_below)
    return code, gated, u_below, p_below


def classify(sample: Sample, model: ThresholdModel) -> Verdict:
    """Classify one measured point by the decision rule.

    Strictly below both threshold curves means metal, on or above both means
    coil (an on-threshold value counts as the coil side), and disagreeing
    sub-tests or a current under the gate give indeterminate; a gated sample
    reports None for u_below and p_below.  The thresholds come from
    ThresholdModel.u_threshold and p_threshold, which round an array as they
    round one float, so evaluate_batch decides each point as classify does.
    Raises ValueError unless every value is finite and >= 0: the one check of
    a Sample's values.
    """
    code, gated, u_below, p_below = _decide(*sample, model)
    if gated:
        return Verdict(Label.INDETERMINATE, None, None, gated=True)
    return Verdict(Label(_VERDICTS[code]), bool(u_below), bool(p_below), gated=False)


def evaluate_batch(
    samples: list[tuple[str, Sample]], model: ThresholdModel
) -> dict:
    """Aggregate verdict statistics for (true_label, sample) pairs.

    The whole batch is decided in one array pass of classify's rule,
    and the report rows are built from its arrays.  Accuracy is computed
    over decidable (non-indeterminate) samples; indeterminate verdicts are
    counted separately.
    """
    if not samples:
        raise ValueError("sample batch must be non-empty")
    true, points = zip(*samples)
    i, u, p = zip(*points)
    code, gated, u_below, p_below = _decide(i, u, p, model)
    # count (true label, verdict) pairs as integer codes, true labels in first-seen order
    kinds = {t: k for k, t in enumerate(dict.fromkeys(true))}
    index = np.fromiter(map(kinds.__getitem__, true), np.intp, len(true))
    pairs = np.bincount(index * len(_VERDICTS) + code, minlength=len(kinds) * len(_VERDICTS))
    rows = pairs.reshape(len(kinds), len(_VERDICTS)).tolist()
    counts = {t: dict(zip(_VERDICTS, row)) for t, row in zip(kinds, rows)}
    undecided = sum(c[Label.INDETERMINATE.value] for c in counts.values())
    decidable = len(samples) - undecided
    correct = sum(counts[v][v] for v in (Label.METAL.value, Label.COIL.value) if v in counts)
    detail = [
        {
            "true_label": t,
            "i_tx_A": ii,
            "u_tx_V": uu,
            "p_in_W": pp,
            "verdict": _VERDICTS[c],
            # a gated sample has no sub-test result
            "u_below": None if g else ub,
            "p_below": None if g else pb,
            "gated": g,
        }
        for t, ii, uu, pp, c, ub, pb, g in zip(
            true, i, u, p, code.tolist(), u_below.tolist(), p_below.tolist(), gated.tolist()
        )
    ]
    return {
        "counts": counts,
        "total": len(samples),
        "decidable": decidable,
        "no_decidable_samples": decidable == 0,
        "accuracy": (correct / decidable) if decidable else None,
        "samples": detail,
    }
