"""Einstein residual of torus-invariant metrics, its linearization, the
cusp component ODE residuals, gauge operators, and the closed-form kernel
element of the cap metric.

The nonlinear residual is the symmetry-reduced matrix system

    (I)  (sqrt(det M) M' M^{-1})' - 2(n-1) sqrt(det M) Id = 0
    (II) chi_2(M' M^{-1}) - 2(n-1)(n-2) = 0

for metrics ds^2 + M(s), where chi_2 is the degree-2 elementary symmetric
polynomial of the eigenvalues.  E1 is the matrix field of (I) (reported
divided by sqrt(det M)), E2 the scalar field of the constraint (II).  Both
vanish identically iff the metric is Einstein with Ric = -(n-1) g in this
symmetry class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _stencils
from .geometry import (BlackHoleProfile, BlockMetricProfile,
                       DiagonalMetricProfile, RadialGrid, TrivialVariation,
                       _check_dimension, r_plus, v_profile)

__all__ = [
    "InvariantTensor",
    "EinsteinResidual",
    "GaugeField",
    "einstein_residual",
    "linearized_residual",
    "block_variation_of_tensor",
    "cusp_ode_residual",
    "trace_ode_residual",
    "divergence_h1i_residual",
    "div_star_radial",
    "gauge_fix_xi",
    "explicit_kernel_element",
    "sqrtdet_sinh_check",
    "bh_kernel_variation",
    "kernel_reparametrization",
]


@dataclass
class InvariantTensor:
    """Torus-invariant symmetric 2-tensor in the (r, x_2..x_n) coordinates.

    h11 multiplies dr^2, h1i the mixed dr dx_i terms, hij the torus block
    (x_2 is the meridian angle theta).  All components are functions of r
    sampled on the grid.
    """

    grid: RadialGrid
    h11: np.ndarray
    h1i: np.ndarray
    hij: np.ndarray

    def __post_init__(self):
        N = self.grid.nodes.size
        k = self.grid.n - 1
        self.h11 = np.zeros(N) if self.h11 is None else np.asarray(self.h11, float)
        self.h1i = np.zeros((k, N)) if self.h1i is None else np.asarray(self.h1i, float)
        self.hij = np.zeros((N, k, k)) if self.hij is None else np.asarray(self.hij, float)
        if self.h11.shape != (N,) or self.h1i.shape != (k, N) or self.hij.shape != (N, k, k):
            raise ValueError("component arrays do not match the grid")
        if np.any(np.abs(self.hij - np.swapaxes(self.hij, 1, 2)) > 1e-12):
            raise ValueError("torus block must be symmetric")

    @classmethod
    def zero(cls, grid):
        return cls(grid, None, None, None)


@dataclass
class GaugeField:
    """Radial 1-form xi = xi_1(r) dr used to gauge away the dr^2 component."""

    grid: RadialGrid
    xi1: np.ndarray

    def __post_init__(self):
        self.xi1 = np.asarray(self.xi1, dtype=float)
        if self.xi1.shape != self.grid.nodes.shape:
            raise ValueError("xi1 must be sampled on the grid")


@dataclass
class EinsteinResidual:
    """Residual fields of the reduced system on the interior nodes.

    e1 holds E1 / sqrt(det M): diagonal entries (n-1, N-2) on the diagonal
    path, full matrices (N-2, n-1, n-1) on the block path.  e2 is the raw
    constraint residual; e2_relative() divides by its constant term
    2 (n-1)(n-2).
    """

    n: int
    s: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    sqrt_det: np.ndarray
    r: np.ndarray | None = None

    def max_e1(self):
        return float(np.abs(self.e1).max())

    def max_e2(self):
        return float(np.abs(self.e2).max())

    def e2_relative(self):
        return self.e2 / _stencils.e2_constant(self.n)

    def max_e2_relative(self):
        return float(np.abs(self.e2_relative()).max())


def _check_uniform(profile):
    if profile.s.size < 66:
        raise ValueError("need at least 64 interior nodes")
    d = np.diff(profile.s)
    if np.any(np.abs(d - d[0]) > 1e-8 * d[0]):
        raise ValueError("residual evaluation requires a uniform s-grid")


def einstein_residual(profile):
    """E1 (normalized by sqrt(det M)) and E2 of a sampled profile.

    Diagonal profiles use the curvature-matched scalar stencils with the
    fourth-order parity window at a closed cap; block profiles use plain
    central matrix stencils and must be positive definite everywhere.
    """
    if isinstance(profile, DiagonalMetricProfile):
        _check_uniform(profile)
        if np.any(profile.f[:, 1:] <= 0) or (not profile.has_cap and profile.f[0, 0] <= 0):
            raise ValueError("torus block is not positive definite at an interior node")
        sys = _stencils.DiagonalSystem(profile.n, profile.s, profile.f)
        e1n, e2 = sys.residual()
        r = None if profile.r is None else profile.r[1:-1]
        return EinsteinResidual(profile.n, profile.s[1:-1], e1n, e2,
                                sys.sqrt_det(), r=r)
    if isinstance(profile, BlockMetricProfile):
        if np.any(np.linalg.eigvalsh(profile.M[1:-1]) <= 0):
            raise ValueError("torus block is not positive definite at an interior node")
        e1n, e2 = _stencils.block_residual(profile.n, profile.s, profile.M)
        u = np.sqrt(np.linalg.det(profile.M[1:-1]))
        r = None if profile.r is None else profile.r[1:-1]
        return EinsteinResidual(profile.n, profile.s[1:-1], e1n, e2, u, r=r)
    raise TypeError("expected a DiagonalMetricProfile or BlockMetricProfile")


def _split_diag_off(dM):
    k = dM.shape[1]
    idx = np.arange(k)
    diag = np.zeros_like(dM)
    diag[:, idx, idx] = dM[:, idx, idx]
    return diag, dM - diag


def linearized_residual(profile, dM):
    """Directional derivative of einstein_residual at the profile.

    dM is the per-node symmetric variation of the torus block M(s).  At a
    diagonal background the linearization splits by reflection parity into
    the diagonal sector (differentiating the scalar scheme) and the
    off-diagonal sector (differentiating the matrix scheme); the two do not
    couple.  Returns an EinsteinResidual holding (dE1 normalized, dE2).
    """
    dM = np.asarray(dM, dtype=float)
    if isinstance(profile, BlockMetricProfile):
        e1n, e2, de1, de2 = _stencils.block_residual(profile.n, profile.s,
                                                     profile.M, dM=dM)
        u = np.sqrt(np.linalg.det(profile.M[1:-1]))
        return EinsteinResidual(profile.n, profile.s[1:-1], de1, de2, u)
    if not isinstance(profile, DiagonalMetricProfile):
        raise TypeError("expected a profile")
    _check_uniform(profile)
    N = profile.s.size
    k = profile.n - 1
    if dM.shape != (N, k, k):
        raise ValueError("dM must have shape (N, n-1, n-1)")
    diag, off = _split_diag_off(dM)
    sys = _stencils.DiagonalSystem(profile.n, profile.s, profile.f, partials=True)
    # diagonal sector: delta log f_i = dM_ii / (2 f_i^2)
    f2 = profile.f**2
    dw = np.zeros((k, N))
    pos = f2 > 0
    dw[pos] = diag[:, np.arange(k), np.arange(k)].T[pos] / (2.0 * f2[pos])
    de1_diag, de2 = sys.apply_linearization(dw)
    nint = N - 2
    de1 = np.zeros((nint, k, k))
    de1[:, np.arange(k), np.arange(k)] = de1_diag.T
    if np.any(off != 0.0):
        # the matrix path only inverts interior nodes, so a closed cap
        # (singular M at s = 0) is harmless here
        M = profile.torus_block()
        _, _, de1_off, de2_off = _stencils.block_residual(profile.n, profile.s, M, dM=off)
        de1 += de1_off
        de2 = de2 + de2_off
    u = sys.sqrt_det()
    return EinsteinResidual(profile.n, profile.s[1:-1], de1, de2, u)


def _cap_block_derivative(n, r):
    """M'(s) of the cap metric: diag(V' sqrt(V), 2 r sqrt(V), ...)."""
    v, vp, _ = v_profile(n, r)
    sv = np.sqrt(np.maximum(v, 0.0))
    k = n - 1
    Mp = np.zeros((r.size, k, k))
    Mp[:, 0, 0] = vp * sv
    for i in range(1, k):
        Mp[:, i, i] = 2.0 * r * sv
    return Mp


def block_variation_of_tensor(h: InvariantTensor, profile: BlackHoleProfile):
    """Convert an invariant tensor on the cap to a pure torus-block variation.

    A finite dr^2 component is absorbed by the first-order reparametrization
    of the arclength, delta_s(r) = (1/2) int_{r_+}^{r} h11 sqrt(V), so the
    equivalent variation of M(s) is  dM = h_blk - delta_s * M'(s).  Mixed
    dr dx_i components cannot be represented and must vanish.
    """
    from scipy.integrate import cumulative_simpson
    if np.any(np.abs(h.h1i) > 0):
        raise ValueError("mixed components have no torus-block representation")
    if not np.all(np.isfinite(h.h11)):
        raise ValueError("h11 must be finite; singular gauges need their own quadrature")
    n = h.grid.n
    r = h.grid.nodes
    rp = r_plus(n)
    if r[0] > rp + 1e-10:
        raise ValueError("conversion quadrature must start at r_plus")
    v = np.maximum(v_profile(n, r)[0], 0.0)
    sig = np.sqrt(np.maximum(2.0 * (r - rp), 0.0))
    ds = 0.5 * cumulative_simpson(np.sqrt(v) * h.h11 * sig, x=sig, initial=0.0)
    return h.hij - ds[:, None, None] * _cap_block_derivative(n, r)


def cusp_ode_residual(h: InvariantTensor, n=None):
    """Residuals of the cusp component ODEs for an invariant tensor.

    Block (I) is the second-order equation for r^2 h11, block (II) the one
    for each h1i, block (III) the coupled system for r^{-2} h_ij:

        (I)   r^2 (r^2 h11)'' + n r (r^2 h11)' - 2(n-1)(r^2 h11) = 0
        (II)  r^2 h1i''       + n r h1i'       - n h1i           = 0
        (III) r^2 (r^{-2} hij)'' + n r (r^{-2} hij)' - 2 delta_ij sum_k r^{-2} h_kk = 0

    Second-order stencils on the (possibly nonuniform) r-grid; returns a
    dict with per-node residual arrays on the interior nodes.
    """
    n = h.grid.n if n is None else _check_dimension(n)
    r = h.grid.nodes
    if r.size < 5:
        raise ValueError("need at least 5 nodes")
    if np.any(r <= 0):
        raise ValueError("cusp grid must have positive radii")
    rm = r[1:-1]
    q1 = r**2 * h.h11
    res1 = _euler_apply(q1, r, n, -2.0 * (n - 1))
    res2 = np.vstack([_euler_apply(h.h1i[i], r, n, -float(n))
                      for i in range(n - 1)])
    phi = h.hij / (r**2)[:, None, None]
    k = n - 1
    res3 = np.empty((r.size - 2, k, k))
    for i in range(k):
        for j in range(i, k):
            res3[:, i, j] = res3[:, j, i] = _euler_apply(phi[:, i, j], r, n, 0.0)
    tr_phi = np.trace(phi, axis1=1, axis2=2)[1:-1]
    for i in range(k):
        res3[:, i, i] -= 2.0 * tr_phi
    return {"I": res1, "II": res2, "III": res3, "r": rm}


def trace_ode_residual(q, r, n):
    """Residual of r^2 q'' + n r q' - 2(n-1) q, the trace equation."""
    n = _check_dimension(n)
    r = np.asarray(r, dtype=float)
    return _euler_apply(np.asarray(q, dtype=float), r, n, -2.0 * (n - 1))


def _d1_d2_nonuniform(y, x):
    """Second-order first/second derivatives on a nonuniform grid (interior)."""
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    ym, y0, yp = y[:-2], y[1:-1], y[2:]
    d1 = (hm**2 * yp - hp**2 * ym + (hp**2 - hm**2) * y0) / (hm * hp * (hm + hp))
    d2 = 2.0 * (hm * yp + hp * ym - (hm + hp) * y0) / (hm * hp * (hm + hp))
    return d1, d2


def _euler_apply(y, r, a_coef, b_coef):
    """r^2 y'' + a r y' + b y on the interior of an r-grid."""
    d1, d2 = _d1_d2_nonuniform(y, r)
    rm = r[1:-1]
    return rm**2 * d2 + a_coef * rm * d1 + b_coef * y[1:-1]


def divergence_h1i_residual(h1i, n, r):
    """Residual of the mixed-component divergence ODE on the cap,

        V h' + (V' + (n-2) V / r) h = 0,

    whose kernel 1/(V r^{n-2}) blows up like 1/(r - r_+) at the core.
    """
    n = _check_dimension(n)
    r = np.asarray(r, dtype=float)
    h1i = np.asarray(h1i, dtype=float)
    rp = r_plus(n)
    if np.any(r <= rp * (1.0 + 1e-14)):
        raise ValueError("grid must stay strictly above r_plus (V degenerates)")
    v, vp, _ = v_profile(n, r)
    d1, _ = _d1_d2_nonuniform(h1i, r)
    rm = r[1:-1]
    return v[1:-1] * d1 + (vp[1:-1] + (n - 2) * v[1:-1] / rm) * h1i[1:-1]


def div_star_radial(xi: GaugeField, profile: BlackHoleProfile, xi1_prime=None):
    """Symmetrized covariant derivative of the radial 1-form on the cap.

    Nonzero components:  (DIV* xi)_11 = xi' + V'/(2V) xi,
    (DIV* xi)_22 = (1/2) V V' xi,  (DIV* xi)_ii = r V xi for i >= 3.
    xi' is differenced from the samples unless exact values are supplied.
    """
    n = profile.n
    r = xi.grid.nodes
    v, vp, _ = v_profile(n, r)
    if xi1_prime is not None:
        xi1p = np.asarray(xi1_prime, dtype=float)
    else:
        d1, _ = _d1_d2_nonuniform(xi.xi1, r)
        xi1p = np.empty_like(xi.xi1)
        xi1p[1:-1] = d1
        xi1p[0] = (xi.xi1[1] - xi.xi1[0]) / (r[1] - r[0])
        xi1p[-1] = (xi.xi1[-1] - xi.xi1[-2]) / (r[-1] - r[-2])
    out = InvariantTensor.zero(xi.grid)
    out.h11 = xi1p + vp / (2.0 * v) * xi.xi1
    k = n - 1
    hij = np.zeros((r.size, k, k))
    hij[:, 0, 0] = 0.5 * v * vp * xi.xi1
    for i in range(1, k):
        hij[:, i, i] = r * v * xi.xi1
    out.hij = hij
    return out


def gauge_fix_xi(h11, profile: BlackHoleProfile, grid: RadialGrid,
                 decay_check=True):
    """Radial gauge field cancelling a dr^2 component:

        xi_1(r) = -(1/sqrt(V)) int_{r_+}^{r} sqrt(V) h11,

    so that (DIV* xi)_11 = -h11.  The quadrature runs in the smoothing
    variable sigma = sqrt(2 (r - r_+)); the grid must start at r_+.
    Returns the gauge field and the fitted constant of the near-edge bound
    sqrt(V) |xi_1| <= C (r - r_+)^(1/2).
    """
    from scipy.integrate import cumulative_simpson
    n = profile.n
    r = grid.nodes
    h11 = np.asarray(h11, dtype=float)
    rp = profile.r_plus
    if abs(r[0] - rp) > 1e-10:
        raise ValueError("gauge quadrature must start at r_plus")
    v = np.maximum(v_profile(n, r)[0], 0.0)
    if decay_check:
        tail = r > rp + 1.0
        if np.any(tail):
            bound = np.abs(v[tail] * h11[tail]) * r[tail] ** (n - 1.1)
            if bound.max() > 1e3 * max(1.0, np.abs(h11).max()):
                import warnings
                warnings.warn("V*|h11| does not appear to decay like r^(-n+1.1)")
    sig = np.sqrt(2.0 * np.maximum(r - rp, 0.0))
    integrand = np.sqrt(v) * h11 * sig
    acc = cumulative_simpson(integrand, x=sig, initial=0.0)
    xi1 = np.zeros_like(r)
    xi1[1:] = -acc[1:] / np.sqrt(v[1:])
    edge = (r > rp) & (r <= rp + 0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(v) * np.abs(xi1) / np.sqrt(np.maximum(r - rp, 1e-300))
    c_fit = float(ratio[edge].max()) if np.any(edge) else 0.0
    return GaugeField(grid, xi1), c_fit


def explicit_kernel_element(n, u: TrivialVariation, grid: RadialGrid):
    """Closed-form invariant Einstein variation of the cap metric.

    For a symmetric u over the (n-2) torus directions x_3..x_n,

        h = -tr u (n-1)/(V r^{n-1}) dr^2 - tr u V V'/(2r) dtheta^2
            + 2 tr u r^{-n+3} (dx_3^2 + ... + dx_n^2) + u_ij r^2 dx_i dx_j.

    For tr u = 0 this reduces to the pure trivial variation r^2 u_ij.
    """
    n = _check_dimension(n)
    if u.u.shape != (n - 2, n - 2):
        raise ValueError("u must act on the n-2 flat torus directions")
    r = grid.nodes
    v, vp, _ = v_profile(n, r)
    tru = u.trace
    out = InvariantTensor.zero(grid)
    out.h11 = -tru * (n - 1) / (v * r ** (n - 1))
    k = n - 1
    hij = np.zeros((r.size, k, k))
    hij[:, 0, 0] = -tru * v * vp / (2.0 * r)
    for i in range(1, k):
        hij[:, i, i] = 2.0 * tru * r ** (3 - n)
    hij[:, 1:, 1:] += (r**2)[:, None, None] * u.u[None, :, :]
    out.hij = hij
    return out


def kernel_reparametrization(n, r, tr_u=1.0):
    """Arclength shift absorbing the kernel element's dr^2 component.

    The integral (1/2) int sqrt(V) h11 with h11 = -tr u (n-1)/(V r^{n-1})
    evaluates in closed form:  delta_s(r) = -tr u sqrt(V)/(2 r)
    (differentiating by arclength returns the integrand, and the value
    vanishes at the core).
    """
    v = np.maximum(v_profile(n, np.asarray(r, dtype=float))[0], 0.0)
    return -tr_u * np.sqrt(v) / (2.0 * np.asarray(r, dtype=float))


def bh_kernel_variation(n, u: TrivialVariation, profile_samples):
    """Torus-block variation dM of the closed-form kernel element on a cap
    profile.

    With the reparametrization delta_s = -tr u sqrt(V)/(2r) the gauge part
    cancels identically:  dM_theta,theta = 0 and the torus block collapses
    to the exact lattice rescaling  dM_ij = r^2 (u_ij + tr u delta_ij).
    The kernel element is therefore gauge plus a rescaling of the flat
    directions, which the reduced system annihilates exactly.
    """
    n = _check_dimension(n)
    if u.u.shape != (n - 2, n - 2):
        raise ValueError("u must act on the n-2 flat torus directions")
    r = np.asarray(profile_samples.r, dtype=float)
    k = n - 1
    dM = np.zeros((r.size, k, k))
    dM[:, 1:, 1:] = (r**2)[:, None, None] * (
        u.u + u.trace * np.eye(n - 2))[None, :, :]
    return dM


def sqrtdet_sinh_check(profile: DiagonalMetricProfile, certify_tol=1e-5):
    """Least-squares fit sqrt(det M) = A sinh((n-1) s) on an Einstein profile.

    Certifies the profile first (normalized residual below certify_tol) and
    returns (A, max relative deviation of the fit).
    """
    res = einstein_residual(profile)
    worst = max(res.max_e1(), res.max_e2_relative())
    if worst > certify_tol:
        raise ValueError(
            f"profile is not Einstein to tolerance {certify_tol:g} "
            f"(residual {worst:.3e}); refusing to certify the sinh law")
    u = np.prod(profile.f, axis=0)
    sh = np.sinh((profile.n - 1) * profile.s)
    mask = sh > 1e-8
    A = float((u[mask] * sh[mask]).sum() / (sh[mask] ** 2).sum())
    rel = np.abs(u[mask] / (A * sh[mask]) - 1.0).max()
    return A, float(rel)
