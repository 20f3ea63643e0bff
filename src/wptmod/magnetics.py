"""Mutual inductance for square-loop transmitter geometry.

The transmitter pair consists of two identical square coils in orthogonal
planes.  Mutual inductance between coaxial square loops is available four
ways: the exact form over parallel sides (used by the pipeline), a discretized
Neumann double contour integral (its independent test reference), the paper's
closed-form estimate, and a plate variant stacking loops over the plate radius.

Every form the `couplings` verb prints runs on the math module, so that verb
loads no numpy; only the Neumann test reference imports numpy, inside the two
functions that build and sum its element tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError

MU0 = 4.0e-7 * math.pi  # vacuum permeability [N/A^2]
# elements per side of the first Neumann estimate
_NEUMANN_START = 16
# Simpson panels of the plate radius integral
_SIMPSON_PANELS = 64
# cap on the element pairs of one block of the Neumann double sum
_NEUMANN_BLOCK = 1 << 16


@dataclass(frozen=True)
class SquareLoop:
    """Square loop described by its half side length and turn count."""

    half_side: float  # [m]
    turns: int = 1

    def __post_init__(self):
        if not self.half_side > 0.0:
            raise ValueError(f"half_side must be > 0, got {self.half_side}")
        if int(self.turns) != self.turns or self.turns < 1:
            raise ValueError(f"turns must be a positive integer, got {self.turns}")


@dataclass(frozen=True)
class CoaxialPair:
    """Two coaxial parallel square loops separated along the common axis."""

    primary: SquareLoop
    secondary_half_side: float  # [m]
    separation: float  # [m]
    secondary_turns: int = 1

    def __post_init__(self):
        if not self.secondary_half_side > 0.0:
            raise ValueError("secondary_half_side must be > 0")
        if not self.separation > 0.0:
            raise ValueError("separation must be > 0")
        if int(self.secondary_turns) != self.secondary_turns or self.secondary_turns < 1:
            raise ValueError("secondary_turns must be a positive integer")


def _square_contour(half_side: float, z: float, n_per_side: int):
    """Midpoints and directed element vectors of a square contour, n per side."""
    import numpy as np

    corners = [
        (half_side, -half_side),
        (half_side, half_side),
        (-half_side, half_side),
        (-half_side, -half_side),
    ]
    mids, dls = [], []
    t = (np.arange(n_per_side) + 0.5) / n_per_side
    for i in range(4):
        x0, y0 = corners[i]
        x1, y1 = corners[(i + 1) % 4]
        mids.append(
            np.stack(
                [x0 + (x1 - x0) * t, y0 + (y1 - y0) * t, np.full(n_per_side, z)],
                axis=1,
            )
        )
        dls.append(
            np.tile([(x1 - x0) / n_per_side, (y1 - y0) / n_per_side, 0.0], (n_per_side, 1))
        )
    return np.concatenate(mids), np.concatenate(dls)


def _neumann_sum(a: float, b: float, h: float, n_per_side: int) -> float:
    import numpy as np

    p1, d1 = _square_contour(a, 0.0, n_per_side)
    p2, d2 = _square_contour(b, h, n_per_side)
    total = 0.0
    # block the (elements x elements) pair table so its memory stays bounded
    step = max(1, _NEUMANN_BLOCK // len(p2))
    for i in range(0, len(p1), step):
        dist = np.sqrt(sum((p1[i : i + step, k, None] - p2[:, k]) ** 2 for k in range(3)))
        total += float(np.sum(d1[i : i + step] @ d2.T / dist))
    return MU0 / (4.0 * math.pi) * total


def mutual_inductance_neumann(
    pair: CoaxialPair, rel_tol: float = 1e-3, n_max: int = 1024
) -> float:
    """Mutual inductance of two coaxial square loops by contour discretization.

    Each square is split into straight elements, 16 per side at first, and
    the double sum of dot(dl1, dl2)/|r1 - r2| is refined (element count
    doubled) until two successive estimates agree to rel_tol.  Includes the
    turns product.
    """
    a = pair.primary.half_side
    b = pair.secondary_half_side
    h = pair.separation
    prev = _neumann_sum(a, b, h, _NEUMANN_START)
    n = _NEUMANN_START * 2
    while n <= n_max:
        cur = _neumann_sum(a, b, h, n)
        if abs(cur - prev) <= rel_tol * abs(cur):
            return cur * pair.primary.turns * pair.secondary_turns
        prev = cur
        n *= 2
    raise ConvergenceError(
        f"Neumann integral did not converge to {rel_tol:g} within {n_max} elements/side"
    )


def mutual_inductance_coaxial_squares(pair: CoaxialPair) -> float:
    """Exact mutual inductance of two coaxial parallel square loops, with turns.

    Only parallel sides couple: each primary side sees one co-directed side at
    d1 = sqrt((a-b)^2 + h^2) and one counter-directed side at
    d2 = sqrt((a+b)^2 + h^2).  Centred parallel filaments of half lengths a, b
    at distance d give S(d) = 2F(a+b) - 2F(a-b) with
    F(u) = u*asinh(u/d) - sqrt(u^2 + d^2) (Grover, Inductance Calculations).
    """
    a, b, h = pair.primary.half_side, pair.secondary_half_side, pair.separation

    def s(d: float) -> float:
        def f(u: float) -> float:
            return u * math.asinh(u / d) - math.hypot(u, d)

        return 2.0 * f(a + b) - 2.0 * f(a - b)

    m = MU0 / math.pi * (s(math.hypot(a - b, h)) - s(math.hypot(a + b, h)))
    return pair.primary.turns * pair.secondary_turns * m


def mutual_inductance_coil_coil_closed(pair: CoaxialPair) -> float:
    """Closed-form estimate of the coaxial square-loop mutual inductance.

    Reads the logarithm as the half-log of the ratio
    ((a+b)^2 + h^2) / ((a-b)^2 + h^2), which is the unique dimensionally
    consistent form whose radius integral reproduces the plate closed form.
    This is a labeled approximation: it overshoots the exact value of
    mutual_inductance_coaxial_squares by roughly 1.5-2.2x on desk-scale
    geometry.  The half-logs are taken of hypot(a +- b, h), which neither
    underflows nor overflows for any positive h.
    """
    a = pair.primary.half_side
    b = pair.secondary_half_side
    h = pair.separation
    log_ratio = math.log(math.hypot(a + b, h)) - math.log(math.hypot(a - b, h))
    m = 4.0 * MU0 * b / math.pi * log_ratio
    return m * pair.primary.turns * pair.secondary_turns


def mutual_inductance_coil_plate(
    primary: SquareLoop, plate_half_side: float, separation: float
) -> float:
    """Closed-form mutual inductance between a square coil and a coaxial plate.

    The plate is modeled as a stack of square loops with half sides from 0
    to plate_half_side; this is the closed-form evaluation of that radius
    integral.  Includes the primary turn count (the plate counts as one turn).
    The radius integral adds a length: the result is in H*m and grows as
    lambda^2 when every length scales by lambda, where the coil-to-coil
    coupling (Grover) grows as lambda.
    """
    if not plate_half_side > 0.0:
        raise ValueError("plate_half_side must be > 0")
    if not separation > 0.0:
        raise ValueError("separation must be > 0")
    a = primary.half_side
    b = plate_half_side
    h = separation
    # half of log((a -+ b)^2 + h^2), without squaring a tiny h into underflow
    log_m = math.log(math.hypot(a - b, h))
    log_p = math.log(math.hypot(a + b, h))
    bracket = (
        a * b
        + a * h * math.atan((a - b) / h)
        - a * h * math.atan((a + b) / h)
        + (a * a - b * b - h * h) * log_m / 2.0
        - (a * a - b * b - h * h) * log_p / 2.0
    )
    return 4.0 * MU0 / math.pi * bracket * primary.turns


def mutual_inductance_coil_plate_by_integration(
    primary: SquareLoop, plate_half_side: float, separation: float
) -> float:
    """Numeric radius integral of the coil-coil closed form over the plate.

    Independent evaluation path for mutual_inductance_coil_plate; composite
    Simpson quadrature on 64 panels over plate half sides in
    (0, plate_half_side]: nodes i * step, the last one plate_half_side
    itself, weights 1, 4, 2, ..., 4, 1, summed by math.fsum.  The tests hold
    it to a numpy evaluation of the same sum within 1e-14 over desk
    geometry and 1e-10 wherever h is at most 10 max(a, b).  Farther away
    both cancel in log(hypot(a + b, h)) - log(hypot(a - b, h)) and drift
    apart by up to ~1e-7, the closed form's fault too (ROADMAP item 11).
    """
    if not plate_half_side > 0.0:
        raise ValueError("plate_half_side must be > 0")
    if not separation > 0.0:
        raise ValueError("separation must be > 0")
    a = primary.half_side
    h = separation
    n = 2 * _SIMPSON_PANELS
    step = plate_half_side / n
    nodes = [i * step for i in range(n)] + [plate_half_side]
    weights = [1.0] + [4.0, 2.0] * (_SIMPSON_PANELS - 1) + [4.0, 1.0]
    terms = []
    for w, b in zip(weights, nodes):
        # half of log(((a + b)^2 + h^2) / ((a - b)^2 + h^2)), without squaring a tiny h
        # into underflow
        log_ratio = math.log(math.hypot(a + b, h)) - math.log(math.hypot(a - b, h))
        terms.append(w * (4.0 * MU0 * b / math.pi * log_ratio))
    return step / 3.0 * math.fsum(terms) * primary.turns
