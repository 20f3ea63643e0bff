"""Threshold fitting and metal-vs-coil classification.

Training takes labeled characteristic curves for both classes, fits a line
in the U-I plane and a polynomial in the P-I plane through the midpoints
between the metal upper envelope and the coil lower envelope, and gates
verdicts below a minimum transmitter current where noise dominates.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .characteristics import CharacteristicCurve
from .errors import NonSeparableDataError


@dataclass(frozen=True)
class Sample:
    """One measurement triple taken at a fixed transmitter current."""

    i_tx: float
    u_tx: float
    p_in: float

    def __post_init__(self):
        if self.i_tx < 0.0 or self.u_tx < 0.0 or self.p_in < 0.0:
            raise ValueError("sample values must be >= 0")


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
class ThresholdModel:
    """Fitted separating curves plus the minimum-current validity gate."""

    u_slope: float  # [V/A]
    u_intercept: float  # [V]
    p_poly: tuple[float, ...]  # ascending powers of current
    degree: int
    i_min_gate: float = 3.0  # [A]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if len(self.p_poly) != self.degree + 1:
            raise ValueError("p_poly must have degree + 1 coefficients")
        if not 0.0 < self.i_min_gate < math.inf:
            raise ValueError(f"i_min_gate must be finite and > 0, got {self.i_min_gate!r}")
        object.__setattr__(self, "p_poly", tuple(float(c) for c in self.p_poly))

    def u_threshold(self, i_tx: float) -> float:
        return self.u_slope * i_tx + self.u_intercept

    def p_threshold(self, i_tx: float) -> float:
        # Horner's rule in polyval's order, so the result is bit-identical
        acc = 0.0
        for coeff in reversed(self.p_poly):
            acc = acc * i_tx + coeff
        return acc

    def to_json(self) -> str:
        return json.dumps(
            {
                "u_line": {"slope_V_per_A": self.u_slope, "intercept_V": self.u_intercept},
                "p_poly_W_per_A_n": list(self.p_poly),
                "degree": self.degree,
                "i_min_gate_A": self.i_min_gate,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ThresholdModel":
        """Parse threshold.json; a missing or mistyped key raises ValueError naming it."""
        data = json.loads(text)

        def get(*path):
            value = data
            for depth, key in enumerate(path):
                if not isinstance(value, dict) or key not in value:
                    raise ValueError(
                        f"threshold.json: missing key {'.'.join(path[: depth + 1])!r}"
                    )
                value = value[key]
            return value

        def number(*path):
            value = get(*path)
            if not _is_number(value):
                raise ValueError(
                    f"threshold.json: {'.'.join(path)!r} must be a finite number, got {value!r}"
                )
            return value

        p_poly = get("p_poly_W_per_A_n")
        if not (isinstance(p_poly, list) and all(_is_number(c) for c in p_poly)):
            raise ValueError(
                f"threshold.json: 'p_poly_W_per_A_n' must be a list of finite numbers, "
                f"got {p_poly!r}"
            )
        degree = get("degree")
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise ValueError(f"threshold.json: 'degree' must be an integer, got {degree!r}")
        return cls(
            u_slope=number("u_line", "slope_V_per_A"),
            u_intercept=number("u_line", "intercept_V"),
            p_poly=tuple(p_poly),
            degree=degree,
            i_min_gate=number("i_min_gate_A"),
        )


def _is_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _resample(curves: list[CharacteristicCurve], grid: np.ndarray):
    u = np.stack([np.interp(grid, c.i_tx, c.u_tx) for c in curves])
    p = np.stack([np.interp(grid, c.i_tx, c.p_in) for c in curves])
    return u, p


def _common_grid(
    metal_curves: list[CharacteristicCurve], coil_curves: list[CharacteristicCurve]
) -> np.ndarray:
    grids = [c.i_tx for c in metal_curves + coil_curves]
    first = grids[0]
    if all(len(g) == len(first) and np.array_equal(g, first) for g in grids[1:]):
        return first
    lo = max(float(g[0]) for g in grids)
    hi = min(float(g[-1]) for g in grids)
    if not lo < hi:
        raise ValueError("curves have no overlapping current range")
    return np.linspace(lo, hi, len(first))


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
    U-I plane and a polynomial of the given degree in the P-I plane.
    Raises NonSeparableDataError when the class envelopes overlap at 10% or
    more of the grid points above the gate, and ValueError when the degree
    is not below the grid's point count (an underdetermined fit).
    """
    if not metal_curves or not coil_curves:
        raise ValueError("need at least one metal and one coil curve")
    grid = _common_grid(metal_curves, coil_curves)
    if not degree < grid.size:
        raise ValueError(f"degree must be < {grid.size}, the grid's point count, got {degree}")
    u_metal, p_metal = _resample(metal_curves, grid)
    u_coil, p_coil = _resample(coil_curves, grid)
    u_hi = u_metal.max(axis=0)
    u_lo = u_coil.min(axis=0)
    p_hi = p_metal.max(axis=0)
    p_lo = p_coil.min(axis=0)

    gated = grid >= i_min_gate
    if np.any(gated):
        overlap = (u_hi >= u_lo) | (p_hi >= p_lo)
        frac = float(np.count_nonzero(overlap & gated)) / float(np.count_nonzero(gated))
        if frac >= 0.10:
            raise NonSeparableDataError(
                f"class envelopes overlap at {frac:.0%} of grid points above the gate"
            )

    u_mid = 0.5 * (u_hi + u_lo)
    p_mid = 0.5 * (p_hi + p_lo)
    line = _scaled_polyfit(grid, u_mid, 1)
    p_coeffs = _scaled_polyfit(grid, p_mid, degree)
    return ThresholdModel(
        u_slope=float(line[1]),
        u_intercept=float(line[0]),
        p_poly=tuple(float(c) for c in p_coeffs),
        degree=degree,
        i_min_gate=i_min_gate,
    )


def classify(sample: Sample, model: ThresholdModel) -> Verdict:
    """Classify one sample; strictly below both thresholds means metal.

    On-threshold values count as the coil side; samples under the current
    gate or with disagreeing sub-tests come back indeterminate.
    """
    if sample.i_tx < model.i_min_gate:
        return Verdict(Label.INDETERMINATE, None, None, gated=True)
    u_below = bool(sample.u_tx < model.u_threshold(sample.i_tx))
    p_below = bool(sample.p_in < model.p_threshold(sample.i_tx))
    if u_below and p_below:
        label = Label.METAL
    elif not u_below and not p_below:
        label = Label.COIL
    else:
        label = Label.INDETERMINATE
    return Verdict(label, u_below, p_below, gated=False)


def evaluate_batch(
    samples: list[tuple[str, Sample]], model: ThresholdModel
) -> dict:
    """Aggregate verdict statistics for (true_label, sample) pairs.

    Accuracy is computed over decidable (non-indeterminate) samples;
    indeterminate verdicts are counted separately.
    """
    if not samples:
        raise ValueError("sample batch must be non-empty")
    counts: dict[str, dict[str, int]] = {}
    detail = []
    correct = 0
    decidable = 0
    for true_label, sample in samples:
        verdict = classify(sample, model)
        per_class = counts.setdefault(true_label, {lab.value: 0 for lab in Label})
        per_class[verdict.label.value] += 1
        if verdict.label is not Label.INDETERMINATE:
            decidable += 1
            if verdict.label.value == true_label:
                correct += 1
        detail.append(
            {
                "true_label": true_label,
                "i_tx_A": sample.i_tx,
                "u_tx_V": sample.u_tx,
                "p_in_W": sample.p_in,
                "verdict": verdict.label.value,
                "u_below": verdict.u_below,
                "p_below": verdict.p_below,
                "gated": verdict.gated,
            }
        )
    return {
        "counts": counts,
        "total": len(samples),
        "decidable": decidable,
        "no_decidable_samples": decidable == 0,
        "accuracy": (correct / decidable) if decidable else None,
        "samples": detail,
    }
