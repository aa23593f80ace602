"""Glued almost-Einstein profile on the model filled end, the decay weight,
the weighted sup norms with their trivial-variation-corrected variant, and
the residual decay sweep.

The glued metric is the cap metric deep inside, the model cusp metric
r^{-2} dr^2 + r^2 (dtheta^2 + dx^2) beyond the boundary torus at r = R, and
the componentwise convex interpolation chi g_cap + (1-chi) g_cusp on the
collar of unit arclength before the boundary.  Both pieces are Einstein, so
the residual is supported in the collar and decays like R^{-n+1} as the
filling torus grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._stencils import MIN_NODES, e2_constant, reduced_residual
from .geometry import (ArclengthMap, DiagonalMetricProfile,
                       TrivialVariation, _check_dimension, _v_from_offset,
                       r_plus, radius_for_meridian, theta_period, v_profile)
from .operators import InvariantTensor

__all__ = [
    "GluedEnd",
    "glue",
    "WeightFunction",
    "weight",
    "rho_cutoff",
    "unit_frame_components",
    "NormReport",
    "weighted_norms",
    "double_star_decompose",
    "double_star_norm",
    "residual_decay_sweep",
]


# -- smooth cutoff -------------------------------------------------------------

def _psi_derivatives(t):
    """psi, psi' and psi'' at t, from one exp."""
    u, up, upp = np.zeros_like(t), np.zeros_like(t), np.zeros_like(t)
    m = t > 0
    tm = t[m]
    e = np.exp(-1.0 / tm)
    u[m] = e
    up[m] = e / tm ** 2
    upp[m] = e * (1.0 / tm ** 4 - 2.0 / tm ** 3)
    return u, up, upp


def _bump_from_psi(t, u, v):
    """B(t) from u = psi(t), v = psi(1-t); 0 for t <= 0, 1 for t >= 1."""
    s = u + v
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.where(s > 0, u / np.where(s > 0, s, 1.0), 0.0)
    return np.where(t >= 1.0, 1.0, np.where(t <= 0.0, 0.0, b))


def _bump01_value(t):
    """B(t) = psi(t) / (psi(t) + psi(1-t)), psi(x) = exp(-1/x) for x > 0, alone,
    where no derivative is read: in closed form at t clamped to [0, 1], where
    psi(0) = exp(-inf) = 0 gives B(0) = 0 and B(1) = 1; a NaN reads as 0."""
    t = np.asarray(t, dtype=float)
    x = np.where(t > 0.0, np.minimum(t, 1.0), 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        u, v = np.exp(-1.0 / x), np.exp(-1.0 / (1.0 - x))
    return u / (u + v)


def _bump01(t):
    """B(t) and two derivatives; B(<=0)=0, B(>=1)=1."""
    t = np.asarray(t, dtype=float)
    u, up, upp = _psi_derivatives(t)
    v, vp, vpp = _psi_derivatives(1.0 - t)
    vp = -vp
    s = u + v
    with np.errstate(divide="ignore", invalid="ignore"):
        b1 = np.where(s > 0, (up * v - u * vp) / s**2, 0.0)
        b2 = np.where(s > 0,
                      (upp * v - u * vpp) / s**2
                      - 2.0 * (up * v - u * vp) * (up + vp) / s**3,
                      0.0)
    b1 = np.where((t >= 1.0) | (t <= 0.0), 0.0, b1)
    b2 = np.where((t >= 1.0) | (t <= 0.0), 0.0, b2)
    return _bump_from_psi(t, u, v), b1, b2


# -- the glued end -------------------------------------------------------------

_NEWTON_STEPS = 30       # cap on the collar inversion, which takes two or three
_COLLAR_WIDTH = 1.0      # cap arclength of the interpolation collar
R_MAX = np.finfo(float).max ** 0.25     # the closed forms square V ~ r^2

# The 16-point Gauss-Legendre rule, numpy.polynomial.legendre.leggauss(16),
# whose nodes and weights are symmetric about 0: held as constants, since
# computing it imports all of numpy.polynomial on the first glue
_GL16_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499])
_GL16_WEIGHTS = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
    0.062253523938647456, 0.027152459411754176])
_GAUSS_LEGENDRE_16 = (np.concatenate((-_GL16_NODES[::-1], _GL16_NODES)),
                      np.concatenate((_GL16_WEIGHTS[::-1], _GL16_WEIGHTS)))


def _panel(edges, v):
    """Index of the panel between consecutive edges holding each v."""
    return np.clip(np.searchsorted(edges, v, side="right") - 1, 0, edges.size - 2)


class _GluedArclength:
    """Arclength s of the glued metric over [r_+, r_out] and its inverse.

    The variable is the cap arclength t (ArclengthMap, closed form).  Below
    the collar, t <= s_R - width, chi = 1 and the glued metric is the cap's,
    so s = t.  Beyond the boundary torus it is the cusp's, so
    s = s(R) + log(r/R).  Only the unit-width collar is integrated, where

        ds/dt = sqrt(chi + (1 - chi) V/r^2),   V/r^2 = tanh^2((n-1) t/2),

    is smooth and lies in (0, 1].  It is taken by `panels` panels of a
    Gauss-Legendre `rule`, (nodes, weights) on [-1, 1]; s inside a panel is
    one more application of the rule from the panel's edge.  The inverse on
    the collar is Newton in t, whose derivative is the integrand itself.
    """

    def __init__(self, end, panels=16, rule=_GAUSS_LEGENDRE_16):
        self.end = end
        self._gl = rule
        self.t_edges = np.linspace(end.s_R - _COLLAR_WIDTH, end.s_R, panels + 1)
        steps = self._integral(self.t_edges[:-1], self.t_edges[1:])
        self.s_edges = self.t_edges[0] + np.concatenate(([0.0], np.cumsum(steps)))
        self.s_R = float(self.s_edges[-1])
        self.s_max = self.s_R + float(np.log(end.r_out / end.R))

    def _rate(self, t):
        """ds/dt on the collar."""
        end = self.end
        chi = _bump01_value((end.s_R - t) / _COLLAR_WIDTH)
        y2 = np.tanh(0.5 * (end.n - 1) * t) ** 2
        return np.sqrt(chi + (1.0 - chi) * y2)

    def _integral(self, a, b):
        """int_a^b ds/dt dt, one Gauss-Legendre rule per interval."""
        nodes, weights = self._gl
        h = 0.5 * (b - a)
        t = (a + h)[:, None] + h[:, None] * nodes
        return h * (self._rate(t) @ weights)

    def _s_of_t(self, t):
        j = _panel(self.t_edges, t)
        return self.s_edges[j] + self._integral(self.t_edges[j], t)

    def _t_of_s(self, s):
        j = _panel(self.s_edges, s)
        ta, tb = self.t_edges[j], self.t_edges[j + 1]
        sa, sb = self.s_edges[j], self.s_edges[j + 1]
        t = ta + (s - sa) * (tb - ta) / (sb - sa)
        for _ in range(_NEWTON_STEPS):
            dt = (self._s_of_t(t) - s) / self._rate(t)
            t = t - dt
            if np.all(np.abs(dt) <= 1e-10):   # quadratic: t is now at roundoff
                return t
        raise RuntimeError("collar arclength inversion did not converge")

    def offset_of_s(self, s):
        """(r - r_+)/r_+ at glued arclength s."""
        end = self.end
        s = np.asarray(s, dtype=float)
        t = s.copy()
        collar = (s > self.s_edges[0]) & (s < self.s_R)
        t[collar] = self._t_of_s(s[collar])
        beyond = s >= self.s_R
        x = end.cap_map.offset_of_s(t)
        x[beyond] = end.R * np.exp(s[beyond] - self.s_R) / end.rp - 1.0
        return x


class GluedEnd:
    """Closed-form glued metric with exact radial derivatives.

    The interpolation collar is the unit-arclength tubular neighborhood of
    the boundary torus measured in the cap metric: the cutoff argument is
    s_cap(R) - s_cap(r), so chi = 1 for s_cap(r) <= s_cap(R) - width and 0
    at the boundary.  An r-width collar would shrink to arclength ~ 1/R and
    its cutoff derivatives would eat the R^(-n+1) decay of the mismatch.

    Provides the profile functions f_i(r), their first and second arclength
    derivatives, and the pointwise normalized residual, all analytically;
    the sampled DiagonalMetricProfile comes from to_profile().

    The cutoff reads the closed-form cap arclength cap_map.  The glued
    metric's own arclength amap (see _GluedArclength) integrates the collar
    only; it is built on first access, by to_profile.
    """

    def __init__(self, n, ell, r_out_factor=4.0):
        self.n = _check_dimension(n)
        self.ell = float(ell)
        self.rp = r_plus(n)
        self.beta = theta_period(n)
        self.R = radius_for_meridian(n, ell)
        if r_out_factor <= 1.0:
            raise ValueError("outer factor must exceed 1")
        self.r_out = r_out_factor * self.R
        if not self.r_out < R_MAX:
            raise ValueError(
                f"ell = {self.ell:g} with outer factor {r_out_factor:g} puts the "
                f"outer radius at {self.r_out:g}, beyond {R_MAX:.3g}, where V^2 overflows")
        self.cap_map = ArclengthMap(n)
        self.s_R = float(self.cap_map.s_of_r(self.R))
        if self.s_R <= _COLLAR_WIDTH + 0.05:
            raise ValueError(
                f"meridian length ell = {self.ell:g} is too short: the boundary torus sits "
                f"at arclength {self.s_R:.3f} < collar width {_COLLAR_WIDTH:g} from the core")

    @cached_property
    def amap(self):
        """Arclength map of the glued metric over [r_+, r_out]."""
        return _GluedArclength(self)

    # metric data ---------------------------------------------------------

    def collar_r_range(self):
        lo = float(self.cap_map.r_of_s(np.array([self.s_R - _COLLAR_WIDTH]))[0])
        return lo, self.R

    def _collar_arg(self, r):
        """Cutoff argument: the cap arclength from r to the boundary torus,
        in collar widths."""
        return (self.s_R - self.cap_map.s_of_r(r)) / _COLLAR_WIDTH

    def chi(self, r):
        """Cutoff: 1 below the collar, 0 beyond the boundary torus."""
        return _bump01_value(self._collar_arg(r))

    def ratios(self, r):
        """d_i = f_i'/f_i and q_i = f_i''/f_i (arclength derivatives) at r,
        from one evaluation of the cutoff and of V."""
        r = np.asarray(r, dtype=float)
        v, vp, vpp = v_profile(self.n, r)
        # the cutoff's r-derivatives: its argument has dt/dr = -1/sqrt(V)
        chi, b1, b2 = _bump01(self._collar_arg(r))
        sv = np.sqrt(np.maximum(v, 1e-300))
        with np.errstate(invalid="ignore", over="ignore"):
            dt = -1.0 / (sv * _COLLAR_WIDTH)
            chi1 = np.where(b1 != 0.0, b1 * dt, 0.0)
            chi2 = np.where((b1 != 0.0) | (b2 != 0.0),
                            b2 * dt * dt
                            + b1 * vp / (2.0 * sv**3) / _COLLAR_WIDTH,
                            0.0)
        # a = (dr/ds)^-2 = chi/V + (1-chi)/r^2 and f_2^2 = w = chi V + (1-chi) r^2
        a = chi / v + (1.0 - chi) / r**2
        a1 = chi1 * (1.0 / v - 1.0 / r**2) - chi * vp / v**2 - (1.0 - chi) * 2.0 / r**3
        w = chi * v + (1.0 - chi) * r**2
        w1 = chi1 * (v - r**2) + chi * vp + (1.0 - chi) * 2.0 * r
        w2 = (chi2 * (v - r**2) + 2.0 * chi1 * (vp - 2.0 * r)
              + chi * vpp + (1.0 - chi) * 2.0)
        # f = sqrt(w), d/ds = a^(-1/2) d/dr:
        #   d = f'(s)/f = (w1/2w) / sqrt(a)
        #   q = f''(s)/f = [ f''(r)/f - (f'(r)/f) a'/(2a) ] / a
        # with f''(r)/f = w2/(2w) - (w1/(2w))^2.
        L1 = w1 / (2.0 * w)
        d2 = L1 / np.sqrt(a)
        q2 = (w2 / (2.0 * w) - L1**2 - L1 * a1 / (2.0 * a)) / a
        # torus components f = r: f'(r) = 1, f''(r) = 0
        dj = 1.0 / (r * np.sqrt(a))
        qj = (-a1 / (2.0 * a)) / (a * r)
        return d2, q2, dj, qj

    def normalized_residual(self, r):
        """(E1/sqrt det M components (theta, torus), E2) pointwise, closed form."""
        n = self.n
        d2, q2, dj, qj = self.ratios(r)
        S = d2 + (n - 2) * dj
        ss = d2**2 + (n - 2) * dj**2
        e1, e2 = reduced_residual(n, np.array([d2, dj]), np.array([q2, qj]), S, ss)
        return e1[0], e1[1], e2

    def to_profile(self, nodes):
        """Sample on a uniform arclength grid over [r_+, r_out]."""
        if nodes < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES - 2} interior nodes")
        s = np.linspace(0.0, self.amap.s_max, nodes)
        x = self.amap.offset_of_s(s)
        r = self.rp * (1.0 + x)
        v = _v_from_offset(self.n, x, self.rp)
        chi = self.chi(r)
        f = np.empty((self.n - 1, nodes))
        f[0] = np.sqrt(chi * v + (1.0 - chi) * r**2)
        f[0, 0] = 0.0
        f[1:] = r
        return DiagonalMetricProfile(self.n, s, f, self.beta, r=r,
                                     cap_radius=self.R)


def glue(n, ell, r_out_factor=4.0, nodes=2048):
    """Glued almost-Einstein profile for a meridian of length ell, sampled
    from GluedEnd(n, ell, r_out_factor)."""
    return GluedEnd(n, ell, r_out_factor).to_profile(nodes)


# -- weight and norms -----------------------------------------------------------

_WINDOW = 0.5            # arclength width of the seminorm window
_WEIGHT_EXPONENT = 0.1   # decay rate e of the weight W = (r/R_k)^e + r^(-e)


@dataclass
class WeightFunction:
    """Decay weight W = (r/R_k)^0.1 + r^(-0.1) on the filled end, 1 outside."""

    n: int
    R_k: float

    def __post_init__(self):
        self.n = _check_dimension(self.n)
        if self.R_k <= r_plus(self.n):
            raise ValueError("R_k must exceed r_plus")


def weight(wf: WeightFunction, r):
    """W(r); the formula applies on the end r <= R_k, outside W = 1."""
    r = np.asarray(r, dtype=float)
    e = _WEIGHT_EXPONENT
    val = np.where(r <= wf.R_k, (r / wf.R_k) ** e + r ** (-e), 1.0)
    return float(val) if val.ndim == 0 else val


def rho_cutoff(s, s_boundary):
    """Trivial-variation carrier: 1 on the middle of the end, 0 within unit
    arclength of the boundary torus and within distance 1 of the core
    (rising over s in [1, 2], falling over the last unit before s_boundary)."""
    s = np.asarray(s, dtype=float)
    rise = _bump01_value(s - 1.0)
    fall = _bump01_value(s_boundary - s)
    out = rise * fall
    return np.where(s > s_boundary, 0.0, out)


@dataclass
class NormReport:
    """Evaluated norms of an invariant tensor on the filled end.

    double_star is the two-candidate infimum min(star, constructive) and
    never exceeds star; double_star_constructive is the value of the
    center-point decomposition h = hbar + rho u itself, the quantity whose
    gap against star (ratio W(c_k)) motivates the corrected norm.
    """

    sup: float
    star: float
    double_star: float
    double_star_constructive: float
    u: np.ndarray | None = None
    c_k_index: int | None = None


def _mixed_row(h: InvariantTensor):
    """Row 0 of h's unit frame, (n, N): r^2 h11, then the mixed components.

    The cusp has g_11 = a_r = r^-2 and sqrt(g_ii) = r on every torus axis.
    """
    r = h.grid.nodes
    a_r = 1.0 / r**2
    out = np.empty((h.grid.n, r.size))
    out[0] = h.h11 / a_r
    out[1:] = h.h1i / (np.sqrt(a_r) * r)
    return out


def unit_frame_components(h: InvariantTensor):
    """Components of h in the orthonormal frame of the cusp: r^2 h11, h1i,
    r^-2 hij.  Returns an (N, n, n) symmetric matrix field, a view of a
    component-major (n, n, N) array, nodes contiguous.
    """
    n, r = h.grid.n, h.grid.nodes
    out = np.empty((n, n, r.size))
    out[0] = _mixed_row(h)
    out[1:, 0] = out[0, 1:]
    np.divide(np.moveaxis(h.hij, 0, -1), r * r, out=out[1:, 1:])
    return out.transpose(2, 0, 1)


def _torus_pairs(k):
    """Torus index pairs (i, j), i <= j, the k diagonal ones first."""
    i, j = np.triu_indices(k, 1)
    d = np.arange(k)
    return np.concatenate([d, i]), np.concatenate([d, j])


def _gradient(f, s):
    """np.gradient(f, s, axis=1), bit for bit, with one temporary the size
    of the interior."""
    dx = np.diff(s)
    out = np.empty_like(f)
    mid = out[:, 1:-1]
    if (dx == dx[0]).all():                  # np.gradient's even-step rule
        np.subtract(f[:, 2:], f[:, :-2], out=mid)
        mid /= 2.0 * dx[0]
    else:
        dx1, dx2 = dx[:-1], dx[1:]
        np.multiply(-dx2 / (dx1 * (dx1 + dx2)), f[:, :-2], out=mid)
        tmp = (dx2 - dx1) / (dx1 * dx2) * f[:, 1:-1]
        mid += tmp
        mid += np.multiply(dx1 / (dx2 * (dx1 + dx2)), f[:, 2:], out=tmp)
    out[:, 0] = (f[:, 1] - f[:, 0]) / dx[0]
    out[:, -1] = (f[:, -1] - f[:, -2]) / dx[-1]
    return out


def _squares(rows, n_diag, s, order):
    """Share of a set of frame components in the squared norm of the frame
    and of its s-derivatives: row p of the result is the share of the p-th
    derivative, p = 0..order.

    rows holds the components on and above the diagonal, (m, N), the first
    n_diag of them diagonal; each other one stands for two entries.  One
    derivative is alive at a time.
    """
    if order > 2:
        raise ValueError("discrete derivatives available up to order 2")
    out = np.empty((max(order, 0) + 1, rows.shape[1]))
    for p in range(out.shape[0]):
        if p:
            rows = _gradient(rows, s)
        sq = rows * rows
        sq[n_diag:] *= 2.0
        sq.sum(axis=0, out=out[p])
    return out


def fits_window(r):
    """True when the cusp arclength log r of the radial samples r steps by at
    most the seminorm window, as the norms require."""
    return bool(np.diff(np.log(r)).max() <= _WINDOW)


def _window_bounds(s):
    """Index bounds of the seminorm window around each node."""
    if np.diff(s).max() > _WINDOW:
        raise ValueError("grid too coarse for the seminorm window")
    half = _WINDOW / 2.0
    return (np.searchsorted(s, s - half, side="left"),
            np.searchsorted(s, s + half, side="right"))


def _window_spans(lo, hi):
    """Sparse-table level of each window [lo, hi) and the starts of the two
    spans of length 2^level flush with its ends."""
    level = np.frexp(hi - lo)[1] - 1          # floor(log2(window length))
    return level, lo, hi - (1 << level)


def _window_max(values, level, first, second):
    """max over every window, each non-empty, from its _window_spans.

    Sparse table: row p holds the maxima over spans of length 2^p, and a
    window is covered by the two such spans flush with its ends.  Max is
    exact, so the result does not depend on how the window is split.
    """
    table = np.empty((int(level.max()) + 1, values.size))
    table[0] = values
    for p in range(1, table.shape[0]):
        w = 1 << (p - 1)
        m = values.size - 2 * w + 1
        table[p, :m] = np.maximum(table[p - 1, :m], table[p - 1, w:w + m])
    return np.maximum(table[level, first], table[level, second])


def _least_over_windows(w, lo, hi):
    """Least w_k over the windows [lo_k, hi_k) that hold each node j.

    lo and hi increase with k and window k holds node k, so the windows
    holding j run from the first k with hi_k > j, the count of hi_k <= j,
    to the last k with lo_k <= j, one less than the count of lo_k <= j:
    both read off cumulative bincounts.
    """
    first = np.cumsum(np.bincount(hi, minlength=w.size + 1)[:w.size])
    stop = np.cumsum(np.bincount(lo, minlength=w.size))
    return -_window_max(-w, *_window_spans(first, stop))


def _center_cutoff(r, s, wf):
    """c_k and rho of the center-point decomposition, from the grid alone."""
    ck = int(np.argmin(np.abs(r - np.sqrt(wf.R_k))))
    s_boundary = float(np.interp(min(wf.R_k, r[-1]), r, s))
    return ck, rho_cutoff(s - s[0], s_boundary - s[0])


def _trace_free(block):
    """u: the trace-free part of a k x k torus block of the unit frame."""
    k = block.shape[0]
    return block - np.trace(block) / k * np.eye(k)


class _NormPlan:
    """What the norms compute from the grid, the weight and the order alone,
    built once for every tensor measured on that grid: log r, the least W
    over the windows holding each node, the torus pairs, r^2, c_k and rho.

    Every window holds its own node, and a correctly rounded division by
    W > 0 is monotone, so the star norm max_k max_{j in window k} v_j / W_k
    is max_j v_j / Wmin_j bit for bit, and the sup is max_j v_j: no window
    maximum is taken of a measured tensor.

    One core, `_report`, reads a tensor's torus rows h_ij (i <= j, the k
    diagonal ones first) and its mixed row's squares.  `double_star` feeds
    it every row of h; `double_star_diagonal` the k diagonal rows of a
    tensor whose other components vanish, as the solver's f^2 - f0^2 does.
    The rows it skips are exact zeros, which change no sum of squares and
    no max, so the two agree bit for bit.
    """

    def __init__(self, grid, wf: WeightFunction, order):
        self.s = np.log(grid.nodes)
        self.wmin = _least_over_windows(weight(wf, grid.nodes),
                                        *_window_bounds(self.s))
        self.order = order
        self.k = grid.n - 1
        self.pairs = _torus_pairs(self.k)
        self.scale = grid.nodes * grid.nodes     # a torus row's frame is row / r^2
        self.ck, self.rho = _center_cutoff(grid.nodes, self.s, wf)

    def _sup_star(self, mixed, rows):
        """(sup, star) from the torus rows and the mixed row's _squares (None
        where that row vanishes): the largest frame norm over the derivative
        orders and the nodes, and its largest ratio to Wmin."""
        # rows / r^2 is _squares' only reference, freed once differentiated
        sq = _squares(rows / self.scale, self.k, self.s, self.order)
        if mixed is not None:
            sq += mixed
        point = np.sqrt(sq.max(axis=0))
        return float(point.max()), float((point / self.wmin).max())

    def _split(self, h: InvariantTensor):
        """The torus rows of h and the _squares of its mixed row."""
        return (np.moveaxis(h.hij, 0, -1)[self.pairs],
                _squares(_mixed_row(h), 1, self.s, self.order))

    def _report(self, rows, block, mixed):
        """NormReport from the torus rows, the torus frame block at c_k and
        the mixed row's squares (None where that row vanishes)."""
        u = _trace_free(block)
        sup, star = self._sup_star(mixed, rows)
        i, j = (p[:len(rows)] for p in self.pairs)
        # hbar differs from h only in its torus rows
        _, star_bar = self._sup_star(
            mixed, rows - self.rho * u[i, j, None] * self.scale)
        constructive = star_bar + TrivialVariation(u).size
        return NormReport(sup=sup, star=star,
                          double_star=min(star, constructive),
                          double_star_constructive=constructive,
                          u=u, c_k_index=self.ck)

    def double_star(self, h: InvariantTensor):
        """NormReport of h: double_star_norm."""
        rows, mixed = self._split(h)
        return self._report(rows, h.hij[self.ck] / self.scale[self.ck], mixed)

    def double_star_diagonal(self, diag):
        """double_star of the tensor whose torus diagonal h_ii is diag, (k, N),
        and whose other components vanish."""
        return self._report(diag, np.diag(diag[:, self.ck] / self.scale[self.ck]),
                            None)


def weighted_norms(h: InvariantTensor, wf: WeightFunction, order=2):
    """(sup, star): the sup and weighted-sup norms of an invariant tensor.

    The local Hoelder seminorm is replaced by the max of the unit-frame
    magnitude and its discrete s-derivatives up to `order`, s = log r the
    cusp arclength, over a window of fixed arclength width _WINDOW.
    """
    plan = _NormPlan(h.grid, wf, order)
    rows, mixed = plan._split(h)
    return plan._sup_star(mixed, rows)


def double_star_decompose(h: InvariantTensor, wf: WeightFunction):
    """Center-point decomposition h = hbar + rho u.

    u is the orthogonal projection of the unit-frame torus block at the
    center node (nearest r = sqrt(R_k)) onto the trace-free deformations;
    the residue (h - u)(c_k) is orthogonal to that subspace.  rho vanishes
    near the boundary torus and the core.
    """
    s = np.log(h.grid.nodes)
    ck, rho = _center_cutoff(h.grid.nodes, s, wf)
    scale = h.grid.nodes * h.grid.nodes
    u = _trace_free(h.hij[ck] / scale[ck])
    hbar = InvariantTensor(h.grid, h.h11.copy(), h.h1i.copy(),
                           h.hij - rho[:, None, None] * u[None, :, :]
                           * scale[:, None, None])
    return hbar, TrivialVariation(u), ck, rho


def double_star_norm(h: InvariantTensor, wf: WeightFunction, order=2):
    """NormReport with sup, star, and the corrected double-star norms.

    The constructive value is ||hbar||_star + |u| for the center-point
    decomposition; the reported double_star is min(star, constructive),
    the two-candidate infimum, so double_star <= star holds exactly.

    One pass over h: the grid-only work (arclength grid, weight, windows,
    c_k and rho) is a _NormPlan, which a caller measuring many tensors on
    one grid builds once, and no (n, n, N) frame is built.  hbar differs
    from h only in its torus components, which are formed as
    (h_ij - rho u_ij r^2) / r^2, the arithmetic of
    unit_frame_components(double_star_decompose(h)[0]), and only they are
    differentiated again; the values equal those of weighted_norms on the
    decomposed tensor.
    """
    return _NormPlan(h.grid, wf, order).double_star(h)


# -- decay sweep -----------------------------------------------------------------

_SWEEP_SAMPLES = 4000    # radial samples of each glued end's residual


def residual_decay_sweep(n, radii, r_out_factor=4.0):
    """Star-weighted glued residual against the cap radius, with slope fit.

    The residual is evaluated in closed form (no grid truncation), weighted
    by 1/W, and the sup taken over a dense radial sample of the end.
    Returns a dict with per-R values and the log-log slope, which tracks
    R^(-n+1).
    """
    n = _check_dimension(n)
    radii = np.asarray(radii, dtype=float)
    if not np.all(radii < R_MAX):
        raise ValueError(f"cap radii R must be finite and below {R_MAX:.3g}")
    rp = r_plus(n)
    if not np.all(radii > rp):
        raise ValueError(f"cap radii R must exceed r_plus = {rp:.6f}")
    if radii.size < 3:
        raise ValueError("need at least 3 sweep points")
    if radii.min() == radii.max():
        raise ValueError("cap radii R must hold at least two distinct values "
                         "to fit a slope")
    ells = theta_period(n) * np.sqrt(v_profile(n, radii)[0])
    out_R, out_res = [], []
    for ell in ells:
        end = GluedEnd(n, float(ell), r_out_factor)
        wf = WeightFunction(n, end.R)
        r = np.linspace(end.rp * 1.01, end.r_out, _SWEEP_SAMPLES)
        e1t, e1x, e2 = end.normalized_residual(r)
        local = np.maximum(np.abs(e1t), np.abs(e1x))
        local = np.maximum(local, np.abs(e2) / e2_constant(n))
        weighted = local / weight(wf, r)
        out_R.append(end.R)
        out_res.append(float(weighted.max()))
    logR = np.log(out_R)
    logres = np.log(out_res)
    slope = float(np.polyfit(logR, logres, 1)[0])
    return {"R": np.array(out_R), "ell": ells,
            "residual": np.array(out_res), "slope": slope}
