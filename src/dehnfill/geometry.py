"""Model metrics of the filled end: the black-hole cap, the hyperbolic cusp,
their warped-product profiles, curvatures, arclength coordinates, and the
cap-sizing formulas tying the meridian length to the cap radius.

All metrics here are torus invariant and diagonal,

    g = ds^2 + f_2(s)^2 dtheta^2 + f_3(s)^2 dx_3^2 + ... + f_n(s)^2 dx_n^2,

with s the arclength from the core.  The black-hole cap has
f_2 = sqrt(V(r)), f_i = r with V(r) = r^2 - 2 r^(3-n); the cusp model has
f_i = r (all i) with r = e^s.  Both arclengths are closed form: s = log r on
the cusp and s = (2/(n-1)) artanh(sqrt(1 - (r_+/r)^(n-1))) on the cap, which
ArclengthMap evaluates in log1p/expm1 form.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

__all__ = [
    "r_plus",
    "theta_period",
    "v_profile",
    "sectional_curvatures",
    "coordinate_curvature_oracle",
    "radius_for_meridian",
    "metric_gap",
    "ArclengthMap",
    "RadialGrid",
    "DiagonalMetricProfile",
    "TrivialVariation",
    "black_hole_profile",
    "cusp_profile",
]


def _closed_cap(s, f):
    """True when the profile closes at a cap: the grid starts at s = 0 and
    the theta fiber f_2 vanishes there."""
    return bool(s[0] == 0.0 and f[0, 0] == 0.0)


def _check_integer(value, name, least, most=None, detail=""):
    """value as an int, if an integer, not a bool, in least..most; else a
    ValueError naming the argument `name`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least or (most is not None and value > most)):
        bound = f">= {least}" if most is None else f"from {least} to {most}"
        raise ValueError(f"{name} must be an integer {bound}{detail}, got {value!r}")
    return int(value)


def _check_dimension(n):
    return _check_integer(n, "dimension", 3)


def r_plus(n):
    """Inner radius of the cap: the positive root of V, r_+^(n-1) = 2."""
    n = _check_dimension(n)
    return 2.0 ** (1.0 / (n - 1))


def theta_period(n):
    """Period of the meridian angle closing the cap smoothly, 4 pi / ((n-1) r_+)."""
    n = _check_dimension(n)
    return 4.0 * np.pi / ((n - 1) * r_plus(n))


def v_profile(n, r):
    """V, V', V'' at radius r, with V(r) = r^2 - 2 r^(3-n).

    Accepts scalars or arrays; raises for any r <= 0.
    """
    n = _check_dimension(n)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("v_profile requires r > 0")
    v = r**2 - 2.0 * r ** (3 - n)
    vp = 2.0 * r + 2.0 * (n - 3) * r ** (2 - n)
    vpp = 2.0 - 2.0 * (n - 3) * (n - 2) * r ** (1 - n)
    if v.ndim == 0:
        return float(v), float(vp), float(vpp)
    return v, vp, vpp


def _v_from_offset(n, x, rp):
    """V at r = r_+ (1 + x), cancellation-free near the root.

    Uses V = r^(3-n) * (r^(n-1) - 2) with r^(n-1) - 2 = 2 expm1((n-1) log1p(x)),
    which keeps full relative precision for x down to 0.
    """
    x = np.asarray(x, dtype=float)
    r = rp * (1.0 + x)
    return r ** (3 - n) * 2.0 * np.expm1((n - 1) * np.log1p(x))


def sectional_curvatures(n, r):
    """Sectional curvatures (K12, K1i, Kij) of the cap metric at radius r.

    K12 is the (r, theta) plane, K1i = K2i the planes containing one torus
    direction, Kij the purely toroidal planes.  The Kij slot needs two
    distinct directions i, j >= 3 and is only geometrically meaningful for
    n >= 5; the closed form is returned for every n >= 3.  For n = 3 all
    existing planes have curvature -1 (the metric is hyperbolic).
    """
    n = _check_dimension(n)
    r = np.asarray(r, dtype=float)
    rp = r_plus(n)
    if np.any(r < rp * (1.0 - 1e-12)):
        raise ValueError("sectional_curvatures requires r >= r_plus")
    w = r ** (1 - n)
    k12 = -1.0 + (n - 3) * (n - 2) * w
    k1i = -1.0 - (n - 3) * w
    kij = -1.0 + 2.0 * w
    if r.ndim == 0:
        return float(k12), float(k1i), float(kij)
    return k12, k1i, kij


def coordinate_curvature_oracle(metric_diag, n, r0, step=1e-4,
                                richardson=False):
    """Sectional curvatures of a diagonal metric by finite differences.

    ``metric_diag(r)`` returns the n diagonal metric components
    (a_1, ..., a_n) as functions of the single coordinate x_1 = r.
    Christoffel symbols and the curvature tensor are assembled from
    second-order central differences; nothing is shared with the closed
    forms above.  With richardson=True one extrapolation step (half step
    size) removes the leading truncation term, which is needed near the cap
    in high dimension where the bare second-order constant is large.
    Returns the full antisymmetric-pair matrix K[i, j].
    """
    if richardson:
        coarse = coordinate_curvature_oracle(metric_diag, n, r0, step)
        fine = coordinate_curvature_oracle(metric_diag, n, r0, step / 2.0)
        return (4.0 * fine - coarse) / 3.0

    def gammas(r):
        a = np.asarray(metric_diag(r), dtype=float)
        ap = (np.asarray(metric_diag(r + step), dtype=float)
              - np.asarray(metric_diag(r - step), dtype=float)) / (2.0 * step)
        g = np.zeros((n, n, n))
        g[0, 0, 0] = ap[0] / (2.0 * a[0])
        for j in range(1, n):
            g[0, j, j] = -ap[j] / (2.0 * a[0])
            g[j, 0, j] = g[j, j, 0] = ap[j] / (2.0 * a[j])
        return g

    a0 = np.asarray(metric_diag(r0), dtype=float)
    g0 = gammas(r0)
    dg = (gammas(r0 + step) - gammas(r0 - step)) / (2.0 * step)

    K = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            # R^i_{jij} = d_i G^i_{jj} - d_j G^i_{ij} + G^i_{il} G^l_{jj} - G^i_{jl} G^l_{ij}
            r_up = 0.0
            if i == 0:
                r_up += dg[i, j, j]
            if j == 0:
                r_up -= dg[i, i, j]
            for l in range(n):
                r_up += g0[i, i, l] * g0[l, j, j] - g0[i, j, l] * g0[l, i, j]
            K[i, j] = a0[i] * r_up / (a0[i] * a0[j])
    return K


def radius_for_meridian(n, ell):
    """Cap radius R solving V(R) = (ell / beta)^2 for a meridian of length ell.

    V is strictly increasing on (r_+, oo), since V' = 2r + 2(n-3) r^(2-n) > 0,
    and V(r_+) = 0 < target < V(hi).  So bisection keeps the root bracketed
    and runs until the two ends are adjacent floats, across which the
    evaluated V crosses the target; of those two it returns the one with the
    smaller |V - target|.  (Rounding makes the evaluated V non-monotone at
    the scale of one ulp of R, so a float further out can sit closer to the
    target; the result is the computed crossing, a few ulps from the root.)
    """
    n = _check_dimension(n)
    if not 0.0 < ell < np.inf:
        raise ValueError(f"meridian length ell must be positive and finite, got {ell!r}")
    rp = r_plus(n)
    beta = theta_period(n)
    lo, hi = rp, rp + max(2.0, ell / beta + 2.0)
    too_long = ValueError(f"meridian length ell = {ell:g} is too long: "
                          f"V(R) = (ell / beta)^2 overflows")
    try:
        target = (float(ell) / beta) ** 2      # a float power raises on overflow
    except OverflowError:
        raise too_long from None
    # so must V = r^(3-n) 2 expm1((n-1) log1p(x)) up to hi, or bisection
    # would stop where it overflows
    if (n - 1) * np.log1p((hi - rp) / rp) >= np.log(np.finfo(float).max):
        raise too_long

    def gap(r):
        return float(_v_from_offset(n, (r - rp) / rp, rp)) - target

    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo if abs(gap(lo)) <= abs(gap(hi)) else hi


def metric_gap(n, r):
    """Deviation of the cap metric from the model cusp metric at radius r.

    Returns the two nonzero components in the unit frame of the cusp metric,
    (2 r^(-n+1) r^2/V, -2 r^(-n+1)), and their root-sum-square.
    """
    n = _check_dimension(n)
    r = np.asarray(r, dtype=float)
    rp = r_plus(n)
    if np.any(r <= rp + 1.0):
        raise ValueError("metric_gap requires r > r_plus + 1")
    v = v_profile(n, r)[0]
    c_rr = 2.0 * r ** (1 - n) * (r**2 / v)
    c_tt = -2.0 * r ** (1 - n)
    norm = np.hypot(c_rr, c_tt)
    if r.ndim == 0:
        return float(c_rr), float(c_tt), float(norm)
    return c_rr, c_tt, norm


# -- grids and profiles -------------------------------------------------------

@dataclass
class RadialGrid:
    """Sample points in the radial coordinate r."""

    nodes: np.ndarray
    n: int

    def __post_init__(self):
        self.n = _check_dimension(self.n)
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.size < 3:
            raise ValueError("need at least 3 nodes")
        if not np.isfinite(self.nodes).all():
            raise ValueError("nodes must be finite")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if self.nodes[0] < r_plus(self.n) * (1.0 - 1e-12):
            raise ValueError("r-grid must start at or above r_plus")


@dataclass
class DiagonalMetricProfile:
    """Torus-invariant diagonal metric ds^2 + sum_i f_i(s)^2 dx_i^2.

    f has shape (n-1, N); f[0] is the theta-fiber radius and may vanish at
    the first node only (closed cap).  r holds the model radial coordinate
    of each node when one is meaningful.
    """

    n: int
    s: np.ndarray
    f: np.ndarray
    theta_period: float
    r: np.ndarray | None = None
    cap_radius: float | None = None

    def __post_init__(self):
        self.n = _check_dimension(self.n)
        self.s = np.asarray(self.s, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        if self.f.shape != (self.n - 1, self.s.size):
            raise ValueError("f must have shape (n-1, len(s))")
        self.check_positive()

    def check_positive(self):
        """Raise unless f > 0, but at a closed cap's first node."""
        interior = self.f[:, 1:] if self.has_cap else self.f
        if np.any(interior <= 0.0):
            raise ValueError("profile functions must be positive away from the cap")

    @property
    def has_cap(self):
        return _closed_cap(self.s, self.f)

    @property
    def spacing(self):
        return float(self.s[1] - self.s[0])

    def torus_block(self):
        """M(s) = diag(f_2^2, ..., f_n^2) as an (N, n-1, n-1) array."""
        N = self.s.size
        M = np.zeros((N, self.n - 1, self.n - 1))
        idx = np.arange(self.n - 1)
        M[:, idx, idx] = (self.f**2).T
        return M

    def copy(self):
        return DiagonalMetricProfile(
            self.n, self.s.copy(), self.f.copy(), self.theta_period,
            None if self.r is None else self.r.copy(), self.cap_radius)


@dataclass
class TrivialVariation:
    """Symmetric matrix u acting on the torus block as g -> g + r^2 u_ij dx_i dx_j.

    The deformation preserves the Einstein condition exactly iff tr u = 0.
    """

    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        k = self.u.shape[0]
        if self.u.shape != (k, k) or np.any(np.abs(self.u - self.u.T) > 1e-12):
            raise ValueError("u must be a symmetric square matrix")

    @property
    def trace(self):
        return float(np.trace(self.u))

    @property
    def size(self):
        return float(np.linalg.norm(self.u))


# -- arclength -----------------------------------------------------------------

class ArclengthMap:
    """Arclength s(r) = int_{r_+}^{r} dr / sqrt(V) of the cap metric and its
    inverse, both in closed form.

    With x = (r - r_+)/r_+ and y = sqrt(1 - (r_+/r)^(n-1)) = f_2/r, the cap
    has ds = 2 dy / ((n-1)(1 - y^2)), so s = (2/(n-1)) artanh(y) and
    y = tanh((n-1) s/2): the law prod f_i = r^(n-1) y = sinh((n-1) s) that
    sqrtdet_sinh_check certifies.  The map evaluates the split forms

        s = log1p(x) + (2/(n-1)) log1p(y),
        x = expm1((2/(n-1)) log1p(2 sinh^2((n-1) s/4))),

    with y = sqrt(-expm1(-(n-1) log1p(x))).  They keep full relative
    precision from the core (x ~ 1e-16) out to large r, where artanh(y)
    loses most digits in 1 - y (8.5e-3 off at n = 7, r = 300), and take
    every r >= r_+: the map has no outer range.
    """

    def __init__(self, n):
        self.n = _check_dimension(n)
        self.rp = r_plus(self.n)
        # Integrand nodes the map evaluated: none, the map is closed form.
        # Read only by perfbench's tracer (geometry.arclength_points).
        self._s_of_sigma = SimpleNamespace(x=np.empty(0))

    def _s_of_x(self, x):
        k = self.n - 1
        y = np.sqrt(-np.expm1(-k * np.log1p(x)))
        return np.log1p(x) + (2.0 / k) * np.log1p(y)

    def s_of_r(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < self.rp - 1e-12):
            raise ValueError("the arclength map needs r >= r_plus")
        return self._s_of_x((np.maximum(r, self.rp) - self.rp) / self.rp)

    def sigma_of_s(self, s):
        return np.sqrt(2.0 * self.rp * self.offset_of_s(s))

    def r_of_s(self, s):
        return self.rp * (1.0 + self.offset_of_s(s))

    def offset_of_s(self, s):
        """(r - r_+)/r_+ at arclength s, at full relative precision."""
        k = self.n - 1
        s = np.maximum(np.asarray(s, dtype=float), 0.0)
        return np.expm1((2.0 / k) * np.log1p(2.0 * np.sinh(k * s / 4.0) ** 2))


def black_hole_profile(n, r_max, nodes):
    """Cap metric sampled on a uniform arclength grid over r in [r_plus, r_max]."""
    n = _check_dimension(n)
    nodes = _check_integer(nodes, "nodes", 8)
    if r_max <= r_plus(n):
        raise ValueError("r_max must exceed r_plus")
    amap = ArclengthMap(n)
    s = np.linspace(0.0, float(amap.s_of_r(r_max)), nodes)
    x = amap.offset_of_s(s)
    r = amap.rp * (1.0 + x)
    f = np.empty((n - 1, nodes))
    f[0] = np.sqrt(_v_from_offset(n, x, amap.rp))
    f[0, 0] = 0.0
    f[1:] = r
    return DiagonalMetricProfile(n, s, f, theta_period(n), r=r)


def cusp_profile(n, s_lo, s_hi, nodes, rate=1.0):
    """Model cusp end f_i = exp(rate * s) on a uniform arclength grid.

    rate = 1 is the hyperbolic cusp metric; other rates give deliberately
    non-Einstein profiles for residual tests.
    """
    n = _check_dimension(n)
    nodes = _check_integer(nodes, "nodes", 2)   # a grid with a spacing
    s = np.linspace(float(s_lo), float(s_hi), nodes)
    f = np.tile(np.exp(rate * s), (n - 1, 1))
    return DiagonalMetricProfile(n, s, f, theta_period(n), r=np.exp(s))
