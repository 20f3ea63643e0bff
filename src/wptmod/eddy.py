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
which J1(ka)^2 turns by at most 24 rad, at least 12 of them, and panels
graded toward k_s / (4 mur), where the material response turns.  Those two
rules, not the floor, resolve the integrand: on passes the floor sets, the
largest relative gap between the 16- and 32-node values over 4,486 test
plates was 3e-12 with a floor of 48, 1.3e-11 with 12 and 2.1e-11 with 4,
against the check's 1e-6 refusal limit.  On the uniform panels, which
share one width, the trapezoid sum is split by angle addition into a table
over the panel centres and one over the node offsets; the graded panels,
when there are any, take the direct rule.

The plate's material is a wptmod.materials.MetalMaterial; the database
reader, wptmod.materials.load_materials, is reachable here by that name too.
"""

from __future__ import annotations

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
# cap on each (points or panels x trapezoid nodes) table of the J1 rule
_J1_BLOCK = 1 << 20
# plate integral: minimum panel count, and the most J1(ka)^2 may turn in one panel.
# The phase rule (2.5 a/d panels on the first pass) and the grading set what the
# integrand needs; the floor binds below a/d of about 5, and since each panel is
# a fixed numpy cost it is kept low
_PANELS = 12
_PANEL_PHASE = 24.0
# 32-node Gauss-Legendre rule per panel, and the 16-node rule that checks it
_FINE_NODES, _FINE_WEIGHTS = np.polynomial.legendre.leggauss(32)
_CHECK_NODES, _CHECK_WEIGHTS = np.polynomial.legendre.leggauss(16)
_NODES = np.concatenate([_FINE_NODES, _CHECK_NODES])
# cap on the work of one quadrature pass, counted as the (points x trapezoid
# nodes) sine table of the direct J1 rule; a/d = 50 counts 2.5e6 for coil half
# side a and plate distance d, and the cap admits a/d up to about 1000, where
# a call takes about 1 s on a 2-core Xeon host
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
    cancel in root - k*mur when k >> k_s.
    """
    k = np.asarray(k, dtype=float)
    if not np.all(k >= 0.0):
        raise ValueError("k must be >= 0")
    mur = mat.rel_permeability
    ks2 = _ks2(geom, mat)
    root = np.sqrt(k * k + 1j * ks2)
    out = (k * k * (1.0 - mur * mur) + 1j * ks2) / (root + k * mur) ** 2
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


def _panel_j1(edges: np.ndarray, a: float) -> np.ndarray:
    """bessel_j1(a k) at the rule nodes k of the equal-width panels between edges.

    Row p holds the nodes c_p + h t_j of panel p, with c_p its centre, h the
    shared half width and t_j the _NODES.  With A = a c_p s_m and
    B = a h t_j s_m, sin(A + B) = sin A cos B + cos A sin B splits
    bessel_j1's sum over its trapezoid nodes s_m into a table over the
    centres times one over the offsets: sines are taken once per panel and
    once per offset, not once per (node, trapezoid node) pair.
    """
    half = np.diff(edges) / 2.0
    centre = a * (edges[:-1] + half)
    offset = a * half[0] * _NODES
    s = _j1_nodes(float(centre[-1] + np.max(offset)))
    turn = np.outer(offset, s)
    cos_b, sin_b = (np.cos(turn) * s).T, (np.sin(turn) * s).T
    out = np.empty((centre.size, _NODES.size))
    # block the (panels x trapezoid nodes) tables so their memory stays bounded
    step = max(1, _J1_BLOCK // s.size)
    for i in range(0, centre.size, step):
        phase = np.outer(centre[i : i + step], s)
        out[i : i + step] = np.sin(phase) @ cos_b + np.cos(phase) @ sin_b
    return out / s.size


def _panel_edges(
    geom: EddyGeometry, mat: MetalMaterial, k_max: float
) -> tuple[np.ndarray, int]:
    """Panel edges on [0, k_max] for the composite Gauss-Legendre rule.

    Panels are uniform, narrow enough that J1(k a)^2 turns by at most
    _PANEL_PHASE radians across one.  With k_s = sqrt(w sigma mu0 mur), the
    material response has a pole at |k| = k_s / sqrt(mur^2 - 1) and branch
    points at |k| = k_s.  Below the first uniform edge, panels grow
    geometrically by at most 2x from a quarter of k_s / mur, so that no
    panel is wide against its distance to either.  Returns the edges and the
    index of the first uniform panel.  Raises WorkLimitError, before any
    table is allocated, when the J1 work of the panels would pass
    _MAX_J1_WORK, or when k_max is so large that phi_k would overflow.
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
    # phi_k squares about k * (1 + mur) at nodes up to k_max; the factor 2 keeps
    # that square, and its rounding, below the largest float
    reach = 2.0 * k_max * (1.0 + mat.rel_permeability)
    if not math.isfinite(reach * reach):
        raise WorkLimitError(
            f"the plate quadrature's cutoff k_max {k_max:.3g} 1/m overflows the material "
            f"response at mu_r {mat.rel_permeability:g}"
        )
    edges = np.linspace(0.0, k_max, max(_PANELS, math.ceil(n)) + 1)
    k_low = math.sqrt(_ks2(geom, mat)) / mat.rel_permeability / 4.0
    # k_s is 0 for a vanishing conductivity: phi is then the constant of the
    # magnetic image, and uniform panels integrate it
    if not 0.0 < k_low < edges[1]:
        return edges, 0
    # [0, k_low], then `steps` geometric panels up to the first uniform edge
    steps = math.ceil(math.log2(edges[1] / k_low))
    graded = np.geomspace(k_low, edges[1], steps + 1)
    return np.concatenate([[0.0], graded, edges[2:]]), steps + 1


def _spectral_integral(geom: EddyGeometry, mat: MetalMaterial, k_max: float) -> complex:
    """int_0^k_max phi(k) exp(-2kd) [N a J1(ka)]^2 dk, Re and Im in one pass.

    The 32-node rule gives the value; an embedded 16-node rule on the same
    panels is its error estimate.
    """
    edges, first = _panel_edges(geom, mat, k_max)
    half = np.diff(edges)[:, None] / 2.0
    k = (edges[:-1, None] + half) + half * _NODES
    a = geom.coil_half_side
    # the uniform panels by angle addition, the graded ones (if any) by the direct rule
    j1 = _panel_j1(edges[first:], a)
    if first:
        j1 = np.concatenate([bessel_j1(k[:first] * a), j1])
    f = phi_k(k, geom, mat) * np.exp(-2.0 * geom.plate_distance * k)
    f *= (geom.coil_turns * a * j1) ** 2
    f *= half
    value = complex(np.sum(f[:, : _FINE_NODES.size] @ _FINE_WEIGHTS))
    check = complex(np.sum(f[:, _FINE_NODES.size :] @ _CHECK_WEIGHTS))
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

    The semi-infinite integral is truncated at k_max = 30/d first.  |phi| <= 1,
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
