"""Einstein residual of torus-invariant metrics, its linearization, the
torus-block variation of the cap metric's kernel element, and the
sqrt(det M) = A sinh((n-1) s) law of an Einstein profile.

The nonlinear residual is the symmetry-reduced matrix system

    (I)  (sqrt(det M) M' M^{-1})' - 2(n-1) sqrt(det M) Id = 0
    (II) chi_2(M' M^{-1}) - 2(n-1)(n-2) = 0

for metrics ds^2 + M(s), where chi_2 is the degree-2 elementary symmetric
polynomial of the eigenvalues.  E1 is the matrix field of (I) (reported
divided by sqrt(det M)), E2 the scalar field of the constraint (II).  Both
vanish identically iff the metric is Einstein with Ric = -(n-1) g in this
symmetry class.

The residual is evaluated on diagonal profiles, M = diag(f_i^2), where E1
is diagonal too.  Only the linearization leaves them: its off-diagonal
sector differentiates the matrix scheme (_stencils.block_residual), so
linearized_residual alone returns full matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _stencils
from .geometry import (DiagonalMetricProfile, RadialGrid, TrivialVariation,
                       _check_dimension)

__all__ = [
    "InvariantTensor",
    "EinsteinResidual",
    "einstein_residual",
    "linearized_residual",
    "sqrtdet_sinh_check",
    "bh_kernel_variation",
]

CERTIFY_TOL = 1e-6     # EinsteinResidual.worst() below which a profile is Einstein


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
        i, j = np.triu_indices(k, 1)        # the diagonal is symmetric as it is
        if np.any(np.abs(self.hij[:, i, j] - self.hij[:, j, i]) > 1e-12):
            raise ValueError("torus block must be symmetric")

    @classmethod
    def zero(cls, grid):
        return cls(grid, None, None, None)


@dataclass
class EinsteinResidual:
    """Residual fields of the reduced system on the interior nodes.

    e1 holds E1 / sqrt(det M): its diagonal entries, (n-1, N-2), from
    einstein_residual, and full matrices, (N-2, n-1, n-1), from
    linearized_residual.  e2 is the raw constraint residual;
    max_e2_relative() divides by its constant term 2 (n-1)(n-2).
    """

    n: int
    s: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    r: np.ndarray | None = None

    def max_e1(self):
        return float(np.abs(self.e1).max())

    def max_e2(self):
        return float(np.abs(self.e2).max())

    def max_e2_relative(self):
        return float(np.abs(self.e2 / _stencils.e2_constant(self.n)).max())

    def worst(self):
        """The certificate: the larger of max |E1| and max relative |E2|,
        which CERTIFY_TOL bounds on an Einstein profile."""
        return max(self.max_e1(), self.max_e2_relative())


def _check_uniform(profile):
    if profile.s.size < _stencils.MIN_NODES:
        raise ValueError(f"need at least {_stencils.MIN_NODES - 2} interior nodes")
    d = np.diff(profile.s)
    if np.any(np.abs(d - d[0]) > 1e-8 * d[0]):
        raise ValueError("residual evaluation requires a uniform s-grid")


def einstein_residual(profile: DiagonalMetricProfile):
    """E1 (normalized by sqrt(det M)) and E2 of a sampled profile, by the
    curvature-matched scalar stencils with the fourth-order parity window
    at a closed cap.
    """
    return _residual_and_system(profile)[0]


def _residual_and_system(profile):
    """einstein_residual, and the stencil system it evaluates."""
    _check_uniform(profile)
    profile.check_positive()
    sys = _stencils.DiagonalSystem(profile.n, profile.s, profile.f)
    e1n, e2 = sys.residual()
    r = None if profile.r is None else profile.r[1:-1]
    return EinsteinResidual(profile.n, profile.s[1:-1], e1n, e2, r=r), sys


def linearized_residual(profile: DiagonalMetricProfile, dM):
    """Directional derivative of einstein_residual at the profile.

    dM is the per-node symmetric variation of the torus block M(s).  At a
    diagonal background the linearization splits by reflection parity into
    the diagonal sector (differentiating the scalar scheme) and the
    off-diagonal sector (differentiating the matrix scheme); the two do not
    couple.  Returns an EinsteinResidual holding (dE1 normalized, full
    matrices, and dE2).

    The diagonal sector contracts the Newton matrix's own products
    (jacobian_triples) with delta log f: cross[i, j] is E1_i's change
    through f_j, which is 2 d_i dd_j for i != j, and dE2 = 4 sum_j
    (S - d_j) dd_j is twice the sum of those off-diagonal entries.
    """
    dM = np.asarray(dM, dtype=float)
    _check_uniform(profile)
    N = profile.s.size
    k = profile.n - 1
    if dM.shape != (N, k, k):
        raise ValueError("dM must have shape (N, n-1, n-1)")
    idx = np.arange(k)
    off = dM.copy()
    off[:, idx, idx] = 0.0
    sys = _stencils.DiagonalSystem(profile.n, profile.s, profile.f, partials=True)
    # diagonal sector: delta log f_i = dM_ii / (2 f_i^2)
    f2 = profile.f**2
    dw = np.divide(dM[:, idx, idx].T, 2.0 * f2, out=np.zeros((k, N)), where=f2 > 0)
    cross = np.einsum("ijmt,jtm->ijt", sys.jacobian_triples(),
                      _stencils._windows(dw))
    de1 = np.zeros((N - 2, k, k))
    de1[:, idx, idx] = cross.sum(axis=1).T
    cross[idx, idx] = 0.0       # zeroed, not subtracted from the sum: no cancellation
    de2 = 2.0 * cross.sum(axis=(0, 1))
    if np.any(off != 0.0):
        # the matrix path only inverts interior nodes, so a closed cap
        # (singular M at s = 0) is harmless here
        M = profile.torus_block()
        _, _, de1_off, de2_off = _stencils.block_residual(profile.n, profile.s, M, dM=off)
        de1 += de1_off
        de2 = de2 + de2_off
    return EinsteinResidual(profile.n, profile.s[1:-1], de1, de2)


def bh_kernel_variation(n, u: TrivialVariation, profile_samples):
    """Torus-block variation dM of the closed-form kernel element on a cap
    profile.

    For a symmetric u over the (n-2) flat torus directions the invariant
    Einstein variation of the cap metric is

        h = -tr u (n-1)/(V r^{n-1}) dr^2 - tr u V V'/(2r) dtheta^2
            + 2 tr u r^{-n+3} (dx_3^2 + ... + dx_n^2) + u_ij r^2 dx_i dx_j.

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


def sqrtdet_sinh_check(profile: DiagonalMetricProfile):
    """Least-squares fit sqrt(det M) = A sinh((n-1) s) on an Einstein profile.

    Certifies the profile first (EinsteinResidual.worst() below CERTIFY_TOL)
    and returns (A, max relative deviation of the fit).
    """
    worst = einstein_residual(profile).worst()
    if not worst < CERTIFY_TOL:
        raise ValueError(
            f"profile is not Einstein to tolerance {CERTIFY_TOL:g} "
            f"(residual {worst:.3e}); refusing to certify the sinh law")
    u = np.prod(profile.f, axis=0)
    sh = np.sinh((profile.n - 1) * profile.s)
    mask = sh > 1e-8
    A = float((u[mask] * sh[mask]).sum() / (sh[mask] ** 2).sum())
    rel = np.abs(u[mask] / (A * sh[mask]) - 1.0).max()
    return A, float(rel)
