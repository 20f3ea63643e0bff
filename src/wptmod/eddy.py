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
Review 56, 2014).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .circuit import MetalReceiver
from .errors import ConvergenceError
from .magnetics import MU0
from .schema import finite, key, keyed, read, string

# max of |J1| on the real line, used for the truncation tail bound
_J1_SUP = 0.5819
# cap on the (points x nodes) table of the J1 trapezoid rule
_J1_BLOCK = 1 << 20
# plate integral: minimum panel count, and the most J1(ka)^2 may turn in one panel
_PANELS = 48
_PANEL_PHASE = 24.0
# 32-node Gauss-Legendre rule per panel, and the 16-node rule that checks it
_FINE_NODES, _FINE_WEIGHTS = np.polynomial.legendre.leggauss(32)
_CHECK_NODES, _CHECK_WEIGHTS = np.polynomial.legendre.leggauss(16)
_NODES = np.concatenate([_FINE_NODES, _CHECK_NODES])


@dataclass(frozen=True)
class MetalMaterial:
    """Bulk metal described by conductivity and relative permeability."""

    name: str
    conductivity: float  # [S/m]
    rel_permeability: float = 1.0
    rel_permeability_range: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.conductivity > 0.0:
            raise ValueError("conductivity must be > 0")
        if self.rel_permeability < 1.0:
            raise ValueError("rel_permeability must be >= 1")


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


def phi_k(k, geom: EddyGeometry, mat: MetalMaterial):
    """Complex material response at spatial frequency k (principal root).

    phi = (root - k*mur) / (root + k*mur) with root = sqrt(k^2 + j*k_s^2) and
    k_s^2 = w*sigma*mu0*mur.  Bounded by 1 in magnitude with nonnegative
    imaginary part for any passive material, which keeps the loss
    resistance nonnegative.  Evaluated as the equal quotient
    (k^2 (1 - mur^2) + j k_s^2) / (root + k*mur)^2, which does not cancel
    in root - k*mur when k >> k_s.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k < 0.0):
        raise ValueError("k must be >= 0")
    mur = mat.rel_permeability
    ks2 = geom.angular_frequency * mat.conductivity * MU0 * mur
    root = np.sqrt(k * k + 1j * ks2)
    out = (k * k * (1.0 - mur * mur) + 1j * ks2) / (root + k * mur) ** 2
    return out if out.ndim else complex(out)


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
    x_max = float(np.max(np.abs(x), initial=0.0, where=np.isfinite(x)))
    quarter = (int(x_max) + 16 + math.ceil(12.0 * x_max ** (1.0 / 3.0)) + 3) // 4
    s = np.sin((np.arange(quarter) + 0.5) * (0.5 * math.pi / quarter))
    flat = x.ravel()
    out = np.empty_like(flat)
    # block the (points x nodes) table so its memory stays bounded
    step = max(1, _J1_BLOCK // quarter)
    for i in range(0, flat.size, step):
        out[i : i + step] = np.sin(flat[i : i + step, None] * s) @ s / quarter
    return out.reshape(x.shape)[()]


def geometry_factor(k, geom: EddyGeometry):
    """Squared Bessel kernel weight [N * a * J1(k a)]^2."""
    k = np.asarray(k, dtype=float)
    a = geom.coil_half_side
    out = (geom.coil_turns * a * bessel_j1(k * a)) ** 2
    return out if out.ndim else float(out)


def _tail_k_max(geom: EddyGeometry, estimate: float, floor: float) -> float:
    """Smallest k_max whose truncation tail is below 1e-12 of the estimate.

    |phi| <= 1, so the tail is bounded by sup(T) * exp(-2 k d) / (2 d).
    """
    d = geom.plate_distance
    sup_t = (geom.coil_turns * geom.coil_half_side * _J1_SUP) ** 2
    target = 1e-12 * max(abs(estimate), floor)
    return math.log(sup_t / (2.0 * d * target)) / (2.0 * d)


def _panel_edges(geom: EddyGeometry, mat: MetalMaterial, k_max: float) -> np.ndarray:
    """Panel edges on [0, k_max] for the composite Gauss-Legendre rule.

    Panels are uniform, narrow enough that J1(k a)^2 turns by at most
    _PANEL_PHASE radians across one.  With k_s = sqrt(w sigma mu0 mur), the
    material response has a pole at |k| = k_s / sqrt(mur^2 - 1) and branch
    points at |k| = k_s.  Below the first uniform edge, panels grow
    geometrically by at most 2x from a quarter of k_s / mur, so that no
    panel is wide against its distance to either.
    """
    n = max(_PANELS, math.ceil(2.0 * geom.coil_half_side * k_max / _PANEL_PHASE))
    edges = np.linspace(0.0, k_max, n + 1)
    k_s = math.sqrt(
        geom.angular_frequency * mat.conductivity * MU0 * mat.rel_permeability
    )
    k_low = k_s / mat.rel_permeability / 4.0
    if k_low < edges[1]:
        steps = math.ceil(math.log2(edges[1] / k_low))
        edges = np.union1d(edges, np.geomspace(k_low, edges[1], steps + 1))
    return edges


def _spectral_integral(geom: EddyGeometry, mat: MetalMaterial, k_max: float) -> complex:
    """int_0^k_max phi(k) exp(-2kd) [N a J1(ka)]^2 dk, Re and Im in one pass.

    The 32-node rule gives the value; an embedded 16-node rule on the same
    panels is its error estimate.
    """
    edges = _panel_edges(geom, mat, k_max)
    half = np.diff(edges)[:, None] / 2.0
    k = (edges[:-1, None] + half) + half * _NODES
    f = phi_k(k, geom, mat) * np.exp(-2.0 * geom.plate_distance * k) * geometry_factor(k, geom)
    f *= half
    value = complex(np.sum(f[:, : _FINE_NODES.size] @ _FINE_WEIGHTS))
    check = complex(np.sum(f[:, _FINE_NODES.size :] @ _CHECK_WEIGHTS))
    for part, gap in ((value.real, (value - check).real), (value.imag, (value - check).imag)):
        if not math.isfinite(part) or abs(gap) > 1e-6 * abs(part):
            raise ConvergenceError(
                f"plate impedance quadrature error {abs(gap):g} too large for value {part:g}"
            )
    return value


def plate_impedance(geom: EddyGeometry, mat: MetalMaterial) -> MetalReceiver:
    """Evaluate the plate's equivalent (R_m, L_m) by fixed Gauss-Legendre.

    The semi-infinite integral is truncated at a k_max certified by the
    exponential tail bound; the truncation point is re-derived once from a
    first-pass estimate so the tail stays below 1e-12 of the result.
    """
    d = geom.plate_distance
    w = geom.angular_frequency
    # first pass with a generous truncation, then certify
    k_max = 60.0 / (2.0 * d)
    raw = _spectral_integral(geom, mat, k_max)
    floor = (geom.coil_turns * geom.coil_half_side * _J1_SUP) ** 2 * 1e-30
    k_need = max(_tail_k_max(geom, raw.imag, floor), _tail_k_max(geom, raw.real, floor))
    if k_need > k_max:
        raw = _spectral_integral(geom, mat, k_need)
    return MetalReceiver(r_m=w * math.pi * MU0 * raw.imag, l_m=math.pi * MU0 * raw.real)


@keyed
@dataclass(frozen=True)
class _Entry:
    """One material database entry, keyed as the JSON file spells it."""

    name: str = key(string)
    conductivity_S_per_m: float = key(finite, gt=0)
    mu_r: float = key(finite, 1.0, ge=1)
    mu_r_range: tuple[float, float] | None = key((finite, finite), None, ge=1)
    aliases: tuple[str, ...] = key([string], ())


def load_materials(path=None) -> dict[str, MetalMaterial]:
    """Load the material database, keyed by lowercase name and aliases.

    With no path, the bundled database seeded from standard metal
    properties (Cu, Al, Fe) is used.  A file that cannot be read, is not
    JSON or holds a malformed entry raises ValueError naming the path (and
    the entry's key).
    """
    if path is None:
        text = resources.files("wptmod.data").joinpath("materials.json").read_text()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read material database {path!r}: {exc}") from exc
    try:
        entries = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"material database {path!r} is not valid JSON: {exc}") from exc
    db: dict[str, MetalMaterial] = {}
    for entry in read([_Entry], entries, f"material database {path!r}: entry"):
        mat = MetalMaterial(entry.name, entry.conductivity_S_per_m, entry.mu_r, entry.mu_r_range)
        for name in (entry.name, *entry.aliases):
            db[name.lower()] = mat
    return db
