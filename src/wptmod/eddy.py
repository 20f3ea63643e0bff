"""Equivalent series impedance of a metal plate in the transmitter field.

A plate exposed to the coil field behaves like a series R-L branch: the
resistance carries the eddy-current loss and the inductance the induced
current's flux contribution.  Both follow from one semi-infinite spatial
frequency integral (Dodd and Deeds, J. Appl. Phys. 39, 1968) of a material
response kernel times an exponential distance decay and a geometric Bessel
weight: R_m from its imaginary part, L_m from its real part.

The integral is evaluated with numpy alone: fixed composite Gauss-Legendre
(32 nodes per panel, checked by an embedded 16-node rule) on [0, k_max],
with k_max certified by the exponential tail bound, and J1 by the
trapezoid rule on its periodic integral (Trefethen and Weideman, SIAM
Review 56, 2014).  The panels come from two rules: uniform panels across
which J1(ka)^2 turns by at most 24 rad, at least 4 of them, and a head of
panels halving toward 0 from the first uniform edge down past
k_s / (4 mur), where the material response turns.  Those two rules, not
the floor, resolve the integrand: on passes the floor sets, the largest
relative gap between the 16- and 32-node values over 4,486 test plates was
3e-12 with a floor of 48, 1.3e-11 with 12 and 2.1e-11 with 4.  With this
grid and head the floor is 4: on the passes it sets for 802 test plates
no part gaps by more than 2.9e-11 of itself, and over 2,626 plates drawn
across the reader's domain the largest gap, 8.0e-10, is on a pass the
phase rule sets.  The check refuses at 1e-6.

Every panel lies on a grid in x = a k that every plate shares: level L has
panel width w = 12 * 2^-L in x, and a pass takes the coarsest level that
needs at least 4 panels to reach x_max = a k_max: 4 to 6 of them where
x_max <= 36, and the phase rule's count above.  The last edge may pass
k_max, which only shrinks the truncation error.  The head's panels
[w 2^-(j+1), w 2^-j] and [0, w 2^-s] are panel 1 of level L + j + 1 and
panel 0 of level L + s.  So the rule's nodes, and its weights times
J1(x)^2, depend on the level and the panel index alone, and one bounded
LRU cache keeps them, in read-only tables of 16 panels; every pass is the
response at the tables' nodes, one exp and one matrix product.  Each table
takes its trapezoid node count from its own panels, so no value depends on
the order in which plates are evaluated, and its trapezoid sum is split by
angle addition into a table over the panel centres and one over the node
offsets.  The grid stops at level 363, the first whose weights have all
underflowed to 0: a pass whose level or head would reach deeper (an x_max
below about 1.9e-108, or an a k_low below about 6.4e-109) stops there, and
so drops only terms that are 0.  The reader's domain reaches level 43.

The plate's material is a wptmod.materials.MetalMaterial; the database
reader, wptmod.materials.load_materials, is reachable here by that name too.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .circuit import MetalReceiver
from .errors import ConvergenceError, WorkLimitError
from .magnetics import MU0
# bench/spans.py wraps eddy.load_materials, and the acceptance gate builds eddy.MetalMaterial
from .materials import MetalMaterial, load_materials  # noqa: F401

# max of |J1| on the real line, used for the truncation tail bound
_J1_SUP = 0.5819
# cap on each (points x trapezoid nodes) table of bessel_j1; the x-grid tables'
# J1 needs none: at most 16 panels x 7,971 trapezoid nodes a table
_J1_BLOCK = 1 << 20
# plate integral: minimum panel count, and the most J1(ka)^2 may turn in one panel.
# The phase rule (2.5 a/d panels on the first pass) and the grading set what the
# integrand needs; the floor binds below a/d of about 1.6, and every panel is
# kernel work, so it is kept at the least the 16- vs 32-node check certifies
_PANELS = 4
_PANEL_PHASE = 24.0
# the x = a k grid: level L has width _PANEL_PHASE / 2 * 2^-L, and its tables
# hold _GRID_BLOCK panels each, 18 KiB (768 nodes x 3 floats).  _GRID_LEVELS is
# the first level whose first table's weights have all underflowed to 0 (at
# level 362, 214 of them are still 5e-324), so a pass whose level or head
# depth stops there drops only zero terms.  Every pass below level 0 takes only
# its level's first table, so a pass asks for at most the 164 level-0 tables of
# the widest pass the work cap admits and one table on each level below it
# that it reaches.  Inside the reader's domain that is level 43: 207 tables,
# about 3.6 MiB, which the cache's _GRID_TABLES hold, so that repeating any
# pass rebuilds none.  Outside it the clamp bounds a pass at 164 + 363 tables,
# about 9.3 MiB; a pass that asks for more than the cache holds rebuilds some
# when repeated
_GRID_BLOCK = 16
_GRID_TABLES = 256
_GRID_LEVELS = 363
# 32-node Gauss-Legendre rule per panel, and the 16-node rule that checks it
_FINE_NODES, _FINE_WEIGHTS = np.polynomial.legendre.leggauss(32)
_CHECK_NODES, _CHECK_WEIGHTS = np.polynomial.legendre.leggauss(16)
_NODES = np.concatenate([_FINE_NODES, _CHECK_NODES])
# the weights as two columns, the 32-node rule's on its nodes and the 16-node
# rule's on the rest, so that one matrix product takes both sums
_WEIGHTS = np.zeros((_NODES.size, 2))
_WEIGHTS[: _FINE_NODES.size, 0] = _FINE_WEIGHTS
_WEIGHTS[_FINE_NODES.size :, 1] = _CHECK_WEIGHTS
# leggauss returns each rule's nodes in exact +- pairs: the 24 positive ones, and
# for each of _NODES the one of equal size and its sign
_OFFSETS = _NODES[_NODES > 0.0]
_MIRROR = np.array([np.flatnonzero(_OFFSETS == abs(t))[0] for t in _NODES])
_SIGNS = np.sign(_NODES)
# cap on the work of one quadrature pass, counted as the (points x trapezoid
# nodes) sine table bessel_j1 would take on its nodes; a/d = 50 counts 2.5e6
# for coil half side a and plate distance d, and the cap admits a/d up to about 1000, where
# a first call takes about 1.2 s on a 2-core Xeon host (building its x-grid
# tables) and a repeat about 10 ms
_MAX_J1_WORK = 1e9


@dataclass(frozen=True)
class EddyGeometry:
    """Geometry and excitation for the plate impedance integrals."""

    coil_half_side: float  # [m], length scale entering the Bessel kernel
    coil_turns: int
    plate_distance: float  # [m], coil-to-plate separation
    angular_frequency: float  # [rad/s]

    def __post_init__(self):
        if not (
            self.coil_half_side > 0.0
            and self.coil_turns > 0
            and self.plate_distance > 0.0
            and self.angular_frequency > 0.0
        ):
            raise ValueError("all EddyGeometry fields must be strictly positive")


def _ks2(geom: EddyGeometry, mat: MetalMaterial) -> float:
    """k_s^2 = w*sigma*mu0*mur, or 0 where that product is subnormal.

    |root + k*mur|^2 >= k_s^2 in phi_k, and the complex division there
    overflows once that divisor falls below 1/max float (about 5.6e-309);
    a subnormal k_s^2 lets it.  Taken as 0, the plate is the lossless
    static image that a k_s^2 underflowing to 0 already gives.
    """
    ks2 = geom.angular_frequency * mat.conductivity * MU0 * mat.rel_permeability
    return ks2 if ks2 >= sys.float_info.min else 0.0


def phi_k(k, geom: EddyGeometry, mat: MetalMaterial):
    """Complex material response at spatial frequency k (principal root).

    phi = (root - k*mur) / (root + k*mur) with root = sqrt(k^2 + j*k_s^2) and
    k_s^2 = w*sigma*mu0*mur (0 where subnormal, see _ks2).  Bounded by 1 in
    magnitude with nonnegative imaginary part for any passive material,
    which keeps the loss resistance nonnegative.  Evaluated as the equal
    quotient (k^2 (1 - mur^2) + j k_s^2) / (root + k*mur)^2, which does not
    cancel in root - k*mur when k >> k_s, with both sides written through
    root^2 = k^2 + j k_s^2: the denominator as root^2 + (k mur)^2 + 2 k mur
    root, since squaring root + k mur as a complex number cancels in its
    real part when k << k_s (by up to 5e-9 of R_m at 100 MHz, 1e9 S/m).
    """
    k = np.asarray(k, dtype=float)
    if not (k >= 0.0).all():
        raise ValueError("k must be >= 0")
    square = k * k + 1j * _ks2(geom, mat)
    km = k * mat.rel_permeability
    km2 = km * km
    den = square + km2
    den += 2.0 * km * np.sqrt(square)
    out = (square - km2) / den
    return out if out.ndim else complex(out)


def _j1_nodes(x_max: float) -> np.ndarray:
    """sin t at the midpoint trapezoid nodes of the first quarter period.

    Their count leaves J1 at rounding level on [-x_max, x_max]; see bessel_j1.
    """
    quarter = (int(x_max) + 16 + math.ceil(12.0 * x_max ** (1.0 / 3.0)) + 3) // 4
    return np.sin((np.arange(quarter) + 0.5) * (0.5 * math.pi / quarter))


def bessel_j1(x):
    """Bessel function of the first kind, order 1 (odd in x).

    Trapezoid rule on the periodic integral
    J1(x) = (1/2pi) * int_0^2pi sin(x sin t) sin t dt.  Its error with m
    midpoint nodes is of the size of J_m(x), which falls off geometrically
    once m passes |x| by a few |x|^(1/3) (the Bessel transition zone), so
    m >= |x| + 16 + 12 |x|^(1/3) leaves it at rounding level.  m is a
    multiple of 4, so the integrand's symmetry about t = pi/2 and t = pi
    folds the sum onto the first quarter period.  The odd form gives
    J1(0) == 0 and J1(-x) == -J1(x) exactly.
    """
    x = np.asarray(x, dtype=float)
    s = _j1_nodes(float(np.max(np.abs(x), initial=0.0, where=np.isfinite(x))))
    flat = x.ravel()
    out = np.empty_like(flat)
    # block the (points x nodes) table so its memory stays bounded
    step = max(1, _J1_BLOCK // s.size)
    for i in range(0, flat.size, step):
        out[i : i + step] = np.sin(flat[i : i + step, None] * s) @ s / s.size
    return out.reshape(x.shape)[()]


def _panel_j1(edges: np.ndarray) -> np.ndarray:
    """bessel_j1(x) at the rule nodes x of the equal-width panels between edges.

    Row p holds the nodes c_p + h t_j of panel p, with c_p its centre, h the
    shared half width and t_j the _NODES.  With A = c_p s_m and
    B = h t_j s_m, sin(A + B) = sin A cos B + cos A sin B splits
    bessel_j1's sum over its trapezoid nodes s_m into a table over the
    centres times one over the offsets: sines are taken once per panel and
    once per offset, not once per (node, trapezoid node) pair.  The offsets
    come in +- pairs, so cos B and sin B are taken at the positive ones and
    mirrored, which gives the same bits where sin is odd and cos even.
    """
    half = np.diff(edges) / 2.0
    centre = edges[:-1] + half
    offset = half[0] * _OFFSETS
    s = _j1_nodes(float(centre[-1] + np.max(offset)))
    turn = np.outer(offset, s)
    cos_b = (np.cos(turn) * s)[_MIRROR].T
    sin_b = (np.sin(turn) * s)[_MIRROR].T * _SIGNS
    phase = np.outer(centre, s)
    return (np.sin(phase) @ cos_b + np.cos(phase) @ sin_b) / s.size


@functools.lru_cache(maxsize=_GRID_TABLES)
def _grid_table(level: int, block: int) -> np.ndarray:
    """Rule nodes and weights of panels 16 block .. 16 block + 15 of the x-grid's level.

    Row 48 p + j is node j of the block's panel p: its x, then
    J1(x)^2 w_j h / 2 for panel width h in the column of the node's rule
    (32-node, then 16-node), and 0 in the other.  J1 comes from _panel_j1 on
    the block's own edges, so its trapezoid node count, and every value
    here, is the same whichever plate asks first.  Every caller shares the
    array, so it refuses writes.
    """
    width = math.ldexp(_PANEL_PHASE / 2.0, -level)
    start = block * _GRID_BLOCK
    edges = width * np.arange(start, start + _GRID_BLOCK + 1)
    half = width / 2.0
    j1 = _panel_j1(edges)
    table = np.empty((j1.size, 3))
    table[:, 0] = ((edges[:-1, None] + half) + half * _NODES).ravel()
    table[:, 1:] = ((j1 * j1 * half)[:, :, None] * _WEIGHTS).reshape(-1, 2)
    table.flags.writeable = False
    return table


def _grid_rows(level: int, panels: int, depth: int) -> np.ndarray:
    """_grid_table rows of the pass _pass_plan gives, one panel per 48 rows.

    Without a head (depth 0) these are the level's first `panels` panels.
    A head of `depth` levels replaces panel 0 by panel 0 of level
    level + depth, then panel 1 of each level from level + depth down to
    level + 1: the panels [0, w 2^-depth], ..., [w / 2, w] for the level's
    width w.
    """
    n = _NODES.size
    blocks = [_grid_table(level, b) for b in range(-(-panels // _GRID_BLOCK))]
    rows = (blocks[0] if len(blocks) == 1 else np.concatenate(blocks))[: panels * n]
    if depth:
        head = [_grid_table(level + j, 0)[n : 2 * n] for j in range(depth, 0, -1)]
        rows = np.concatenate([_grid_table(level + depth, 0)[:n], *head, rows[n:]])
    return rows


def _pass_plan(geom: EddyGeometry, mat: MetalMaterial, k_max: float) -> tuple[int, int, int]:
    """The x-grid level, uniform panel count and head depth of a pass to k_max.

    The pass's uniform panels have the level's width w = 12 * 2^-level in
    x = a k, narrow enough that J1(x)^2 turns by at most _PANEL_PHASE
    radians across one; the level is the coarsest that needs at least
    _PANELS of them to reach x_max = a k_max (see the module docstring), and
    the last edge, panels * w / a, may pass k_max.  With
    k_s = sqrt(w sigma mu0 mur), the material response has a pole at
    |k| = k_s / sqrt(mur^2 - 1) and branch points at |k| = k_s.  When a
    quarter of k_s / mur, k_low, lies below the first uniform edge w / a, a
    head of panels halving toward 0 replaces the first uniform panel, so
    that no panel is wide against its distance to either: the panels
    [w 2^-j, w 2^-(j-1)] / a, j from depth down to 1, are panel 1 of level
    level + j, and [0, w 2^-depth] / a is panel 0 of level level + depth,
    for the least depth that puts w 2^-depth / a at or below k_low.  The
    level and level + depth stop at _GRID_LEVELS, whose weights are all 0.
    _grid_rows(level, panels, depth) holds the pass's nodes and weights.
    Raises WorkLimitError, before any table is built, when the J1 work of
    the panels would pass _MAX_J1_WORK, or when k_max is so large that phi_k
    would overflow.
    """
    x_max = geom.coil_half_side * k_max
    n = 2.0 * x_max / _PANEL_PHASE
    # _j1_nodes' count for x_max, as a float that may be inf
    work = max(_PANELS, n) * _NODES.size * (x_max + 16.0 + 12.0 * x_max ** (1.0 / 3.0)) / 4.0
    if not work <= _MAX_J1_WORK:
        amount = f"about {work:.2g}" if math.isfinite(work) else "over 1e+308"
        raise WorkLimitError(
            f"the plate quadrature needs {amount} J1 sine evaluations, "
            f"over its cap of {_MAX_J1_WORK:.0e}"
        )
    # phi_k squares about k * (1 + mur) at nodes up to the last edge, below
    # 1.1 k_max; the factor 2 keeps that square, and its rounding, below the
    # largest float
    reach = 2.0 * k_max * (1.0 + mat.rel_permeability)
    if not math.isfinite(reach * reach):
        raise WorkLimitError(
            f"the plate quadrature's cutoff k_max {k_max:.3g} 1/m overflows the material "
            f"response at mu_r {mat.rel_permeability:g}"
        )
    # the coarsest level whose width leaves more than _PANELS - 1 widths below
    # x_max; x_max 2^level is exact, and x_max / width is x_max 2^level / 12
    level, scaled, full = 0, x_max, (_PANELS - 1) * _PANEL_PHASE / 2.0
    while scaled <= full and level < _GRID_LEVELS:
        level, scaled = level + 1, 2.0 * scaled
    panels = max(_PANELS, math.ceil(scaled / (_PANEL_PHASE / 2.0)))
    edge = math.ldexp(_PANEL_PHASE / 2.0, -level) / geom.coil_half_side
    k_low = math.sqrt(_ks2(geom, mat)) / mat.rel_permeability / 4.0
    # k_s is 0 for a vanishing conductivity: phi is then the constant of the
    # magnetic image, and uniform panels integrate it
    if not 0.0 < k_low < edge:
        return level, panels, 0
    # the least depth with edge 2^-depth <= k_low, read off the binary exponents
    (top, top_exp), (low, low_exp) = math.frexp(edge), math.frexp(k_low)
    depth = top_exp - low_exp + (top > low)
    return level, panels, min(depth, _GRID_LEVELS - level)


def _spectral_integral(geom: EddyGeometry, mat: MetalMaterial, k_max: float) -> complex:
    """int_0^K phi(k) exp(-2kd) [N a J1(ka)]^2 dk, Re and Im in one pass.

    K is the last panel edge of _pass_plan's pass, k_max or a little past
    it.  The integral is taken in x = a k, as (N a)^2 / a times the sum of
    phi exp(-2 x d / a) at the pass's table nodes against their weights:
    the 32-node rule's gives the value, the embedded 16-node rule's on the
    same panels its error estimate.  (N a)^2 enters ahead of the sum, so a
    plate too small for its value to be a float gives 0.
    """
    a = geom.coil_half_side
    rows = _grid_rows(*_pass_plan(geom, mat, k_max))
    k = rows[:, 0] / a
    f = phi_k(k, geom, mat) * np.exp(-2.0 * geom.plate_distance * k)
    f *= (geom.coil_turns * a) ** 2
    # rows (value, check), columns (Re, Im)
    sums = rows[:, 1:].T @ f.view(float).reshape(-1, 2) / a
    value, check = complex(*sums[0]), complex(*sums[1])
    # a subnormal part holds too few bits for a relative check, so the gap is
    # measured against the smallest normal float there instead
    for part, gap in ((value.real, (value - check).real), (value.imag, (value - check).imag)):
        if not math.isfinite(part) or abs(gap) > 1e-6 * max(abs(part), sys.float_info.min):
            raise ConvergenceError(
                f"plate impedance quadrature error {abs(gap):g} too large for value {part:g}"
            )
    return value


def plate_impedance(geom: EddyGeometry, mat: MetalMaterial) -> MetalReceiver:
    """Evaluate the plate's equivalent (R_m, L_m) by fixed Gauss-Legendre.

    The semi-infinite integral is truncated at k_max = 30/d first, or at the
    last panel edge past it, which only shrinks the tail.  |phi| <= 1,
    so the tail beyond k is at most sup_t exp(-2 k d) / (2 d), with
    sup_t = (N a sup|J1|)^2.  A second pass runs at the k where that bound
    meets 1e-12 of the smaller of |Re| and |Im| of the first, floored at
    1e-30 sup_t, when that k passes 30/d; both sides of that equation are
    taken in logs, since sup_t and the target underflow at tiny lengths.  The
    work grows as (a/d)^2; a plate so close that either pass would pass
    _MAX_J1_WORK, or whose k_max would overflow phi_k (d below about
    1.3e-150 m at mur = 300, 9e-153 m at mur = 1), raises WorkLimitError.
    """
    d = geom.plate_distance
    w = geom.angular_frequency
    k_max = 30.0 / d
    raw = _spectral_integral(geom, mat, k_max)
    log_sup = 2.0 * math.log(geom.coil_turns * geom.coil_half_side * _J1_SUP)
    small = min(abs(raw.real), abs(raw.imag))
    log_small = math.log(small) if small else -math.inf
    log_target = math.log(1e-12) + max(log_small, log_sup + math.log(1e-30))
    k_need = (log_sup - math.log(2.0 * d) - log_target) / (2.0 * d)
    if k_need > k_max:
        raw = _spectral_integral(geom, mat, k_need)
    return MetalReceiver(r_m=w * math.pi * MU0 * raw.imag, l_m=math.pi * MU0 * raw.real)
