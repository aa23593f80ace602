"""Newton and frozen-Jacobian boundary-value solvers driving a glued
profile to a discrete Einstein metric, plus spectral probes of the
assembled linearization.

Unknowns are the multiplicative perturbations delta log f_i at every node,
which keeps the profile positive unconditionally.  Boundary closure: the
theta fiber is pinned to zero at the cap (its node-0 unknown is excluded),
the remaining components carry one-sided even-parity rows f_i'(0) = 0, and
the outer boundary is Dirichlet (eliminated, not penalized).  The scalar
constraint (E2) is not imposed; on smooth capped solutions of the evolution
rows it propagates automatically and is monitored as drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _stencils
from ._lapack import check_info, dgbtrf, dgbtrs
from .geometry import DiagonalMetricProfile, RadialGrid
from .gluing import WeightFunction, double_star_norm
from .operators import InvariantTensor, einstein_residual

__all__ = [
    "NumericalError",
    "SolverConfig",
    "NewtonReport",
    "BandedLinearization",
    "newton_solve",
    "verify_einstein",
    "kernel_spectrum",
    "rayleigh_quotient",
    "trivial_direction",
]

_PARITY_W = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_STEP_CLIP = 1.0        # bound on each Newton update of log f_i
_PROBE_TOL = 1e-12      # relative change that stops the spectral probe
_PROBE_STEPS = 400      # step cap of the spectral probe
_VERIFY_TOL = 1e-6      # residual below which verify_einstein passes a profile


class NumericalError(ValueError):
    """Non-finite state reached a linear solve: the Newton matrix or a
    right-hand side holds infs or NaNs.  A subclass of ValueError, so that
    callers catching ValueError still catch it."""


@dataclass
class SolverConfig:
    """Newton driver settings.

    The reachable residual floor is set by roundoff in the second
    differences, about 20 eps / spacing^2: relative noise of size eps in f
    moves E1 of a solved glued profile by 16-19 eps / spacing^2 for
    n = 3..7, 1.5e-9 to 2.6e-9 at 2048 nodes and 2.5e-8 at 8192.
    Tolerances below it make the iteration stall, which is detected and
    reported.
    """

    max_iterations: int = 12
    residual_tolerance: float = 1e-8
    mode: str = "newton"

    def __post_init__(self):
        if self.residual_tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.mode not in ("newton", "frozen_jacobian"):
            raise ValueError("mode must be 'newton' or 'frozen_jacobian'")


@dataclass
class NewtonReport:
    converged: bool
    iterations: int
    residual_history: list
    star_history: list
    double_star_history: list
    e2_drift: float
    cone_angle_ratio: float
    convergence_orders: list = field(default_factory=list)
    diverged: bool = False
    message: str = ""

    def order_estimate(self):
        return max(self.convergence_orders) if self.convergence_orders else float("nan")


class BandedLinearization:
    """Banded Newton matrix of the discrete system in the log-profile unknowns.

    Rows/columns are node-major over the free unknowns: all components at
    node 0 except the pinned theta fiber, then nodes 1..N-2 (the Dirichlet
    node N-1 is eliminated).  Row slots: parity rows for the node-0
    unknowns, then the evolution rows (E1 normalized) node by node.

    The matrix is held once, as the band `ab` in LAPACK layout: A[i, j]
    sits at ab[u + i - j, j].  With n-1 unknowns per node, E1_i at node t
    and f_j at sample t+m-2 always meet on band row u + (2-m)(n-1) + i - j,
    so each (i, j, slot m) set of the partials of
    `DiagonalSystem.jacobian_triples` is written there with one strided
    slice, clipped at the pinned f_2(0) and the Dirichlet node; each
    sample of the parity rows is one more slice.  The band widths follow
    from the numbering: l = 3n-4 and u = 4(n-1).  The band is LU-factored
    in place (LAPACK dgbtrf) on the first solve and the factors are held
    beside it: every later `solve` and every `solve_transpose` (A^T x = b,
    from the same factors) is a pair of triangular band sweeps.  Both take
    one right-hand side or a matrix of them, column by column.  `sys` is
    the system at the profile when the caller already built it with
    partials.
    """

    def __init__(self, profile: DiagonalMetricProfile, sys=None):
        if not profile.has_cap:
            raise ValueError("the solver expects a capped profile")
        self.profile = profile
        n, N = profile.n, profile.s.size
        self.n, self.N = n, N
        self.sys = (_stencils.DiagonalSystem(n, profile.s, profile.f, partials=True)
                    if sys is None else sys)
        self.index = _unknown_index(n, N)
        self.size = int(self.index.max()) + 1
        self._lu = self._piv = None
        self._assemble()

    def _assemble(self):
        n, N, kz, index = self.n, self.N, self.sys.kz, self.index
        step = n - 1                    # unknowns per node, node-major
        vals = self.sys.jacobian_triples()
        # E1_{n-1} at node t reads f_2 at t-2; the parity rows reach node 4
        self.l, self.u = 3 * n - 4, 4 * step
        ab = np.zeros((self.l + self.u + 1, self.size))
        for i, j, m in np.ndindex(step, step, 5):
            # the nodes t whose table fills slot m and whose sample t+m-2 is
            # an unknown: not f_2(0), not the Dirichlet node
            lo = max(1, 2 - m + (j == 0))
            hi = min(N - 2, N - m) if 1 <= m <= 3 else min(kz, N - m)
            c0 = index[j, lo + m - 2]
            cols = slice(c0, c0 + (hi - lo) * step + 1, step)
            ab[self.u + index[i, lo] - c0, cols] = vals[i, j, m, lo - 1:hi]
        # the parity rows f_i'(0) = 0, i >= 1, in the node-0 slots
        w = _PARITY_W / self.sys.delta
        for p in range(5):
            ab[self.u - p * step, index[1:, p]] = w[p] * self.sys.f[1:, p]
        self.ab = ab

    def residual_vector(self):
        """Stacked residual in row order: parity rows, then E1 rows."""
        return _stacked_residual(self.index, self.sys)

    def _factor(self):
        if not np.isfinite(self.ab).all():
            raise NumericalError("the Newton matrix holds infs or NaNs")
        # dgbtrf needs l spare rows for fill-in; in Fortran order it factors
        # the work array in place rather than a copy of it
        work = np.zeros((2 * self.l + self.u + 1, self.size), order="F")
        work[self.l:] = self.ab
        lu, piv, info = dgbtrf(work, self.l, self.u, overwrite_ab=True)
        check_info(info, "dgbtrf")
        self._lu, self._piv = lu, piv

    def _band_solve(self, rhs, trans):
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.size:
            raise ValueError("right-hand side does not match the matrix")
        if not np.isfinite(rhs).all():
            raise NumericalError("right-hand side holds infs or NaNs")
        if self._lu is None:
            self._factor()
        x, info = dgbtrs(self._lu, self.l, self.u, rhs, self._piv, trans=trans)
        check_info(info, "dgbtrs")
        return x

    def solve(self, rhs):
        """A x = rhs for a vector or for each column of a matrix."""
        return self._band_solve(rhs, 0)

    def solve_transpose(self, rhs):
        """A^T x = rhs for a vector or for each column of a matrix."""
        return self._band_solve(rhs, 1)

    def matvec(self, x):
        """A x, one band diagonal at a time."""
        out = np.zeros(self.size)
        for band_row in range(self.l + self.u + 1):
            off = band_row - self.u          # row - col on this diagonal
            lo, hi = max(0, -off), min(self.size, self.size - off)
            out[lo + off:hi + off] += self.ab[band_row, lo:hi] * x[lo:hi]
        return out

    def sigma_min(self, count=1, row_scale=None, col_scale=None, seed=7):
        """The count smallest singular values of B = D_row A D_col^{-1},
        ascending, by block power iteration on (B^T B)^{-1} from a seeded
        start block.

        Each step applies (B^T B)^{-1} to the block, re-orthonormalizes it
        by QR, and estimates the largest eigenvalues of (B^T B)^{-1} as the
        singular values of R; for one column that is the norm of the iterate.
        Unlike the diagonal of R, these converge at the gap to the first
        eigenvalue outside the block, even where two inside nearly coincide.
        The loop stops when no estimate moves by more than _PROBE_TOL
        relative, or after _PROBE_STEPS steps.
        """
        rs = np.ones(self.size) if row_scale is None else np.asarray(row_scale)
        cs = np.ones(self.size) if col_scale is None else np.asarray(col_scale)
        rs, cs = rs[:, None], cs[:, None]
        rng = np.random.Generator(np.random.Philox(seed))
        X, _ = np.linalg.qr(rng.standard_normal((self.size, count)))
        lam = np.zeros(count)
        for _ in range(_PROBE_STEPS):
            Y = self.solve_transpose(cs * X) / rs    # B^{-T} X = D_r^{-1} A^{-T} D_c X
            Y = cs * self.solve(Y / rs)              # B^{-1} Y = D_c A^{-1} D_r^{-1} Y
            X, R = np.linalg.qr(Y)
            lam_new = np.linalg.svd(R, compute_uv=False)    # descending
            done = np.all(np.abs(lam_new - lam) <= _PROBE_TOL * lam_new)
            lam = lam_new
            if done:
                break
        return 1.0 / np.sqrt(lam)


def _unknown_index(n, N):
    """Node-major unknown numbering; -1 marks the pinned f_2(0) and the
    Dirichlet last node."""
    free = np.ones((n - 1, N), dtype=bool)
    free[0, 0] = free[:, -1] = False
    index = np.full((n - 1, N), -1)
    index.T[free.T] = np.arange(int(free.sum()))
    return index


def _stacked_residual(index, sys):
    """Residual of a system at any iterate, in the row order of index."""
    e1n, _ = sys.residual()
    out = np.zeros(int(index.max()) + 1)
    out[index[:, 1:-1]] = e1n
    for comp in range(1, index.shape[0]):
        out[index[comp, 0]] = (_PARITY_W @ sys.f[comp, :5]) / sys.delta
    return out


def trivial_direction(profile: DiagonalMetricProfile, u_diag, lin=None):
    """Unknown-vector of a cutoff trace-free trivial variation.

    delta(f_i^2) = rho(s) r^2 u_ii  =>  delta log f_i = rho r^2 u_ii / (2 f_i^2).
    """
    from .gluing import rho_cutoff
    lin = BandedLinearization(profile) if lin is None else lin
    u_diag = np.asarray(u_diag, dtype=float)
    if abs(u_diag.sum()) > 1e-12:
        raise ValueError("trivial direction must be trace free")
    s_b = profile.s[-1] if profile.cap_radius is None else float(
        np.interp(profile.cap_radius, profile.r, profile.s))
    rho = rho_cutoff(profile.s, s_b)
    r2 = profile.r**2
    dw = rho * r2 * u_diag[:, None] / (2.0 * profile.f**2 + 1e-300)
    return _to_unknowns(lin, dw)


def _to_unknowns(lin, per_sample):
    """Unknown vector holding per_sample[i, node] at each free slot."""
    free = lin.index >= 0
    vec = np.zeros(lin.size)
    vec[lin.index[free]] = per_sample[free]
    return vec


def _cone_angle_ratio(profile):
    delta = profile.spacing
    slope = float(_PARITY_W @ profile.f[0, :5]) / delta
    return slope * profile.theta_period / (2.0 * np.pi)


def newton_solve(g0: DiagonalMetricProfile, cfg: SolverConfig | None = None):
    """Drive the glued profile to a discrete Einstein profile.

    Newton mode reassembles the linearization every step; frozen_jacobian
    mode assembles and factors it once, at the initial profile, and
    afterwards evaluates only the residual, realizing the fixed point
    iteration h -> h - L^{-1} Phi(g + h).  A matrix is assembled only when
    a step follows.  At most one linearization is alive: a Newton step
    drops the previous one, and the system it was built from, before it
    builds the next, so a step holds one band, its LU factors and one
    system's stencil tables.  When the profile carries its radii and cap
    radius, each iterate's perturbation is measured in the star and
    double-star norms of the weight at the cap radius.  Returns
    (profile, report).
    """
    cfg = SolverConfig() if cfg is None else cfg
    profile = g0.copy()
    wf = (WeightFunction(g0.n, g0.cap_radius)
          if g0.cap_radius is not None and g0.r is not None else None)
    index = _unknown_index(profile.n, profile.s.size)
    free = index >= 0
    lin = None
    history, stars, dstars = [], [], []
    grow = 0
    diverged = False
    message = ""
    for it in range(cfg.max_iterations + 1):
        if cfg.mode == "newton":
            lin = sys = None     # free the last step's matrix before the next
        # partials only where a matrix may be assembled from this system
        fresh = lin is None
        sys = _stencils.DiagonalSystem(profile.n, profile.s, profile.f, partials=fresh)
        res = _stacked_residual(index, sys)
        rnorm = float(np.abs(res[index[:, 1:-1]]).max())
        history.append(rnorm)
        if wf is not None:
            h = _perturbation_tensor(g0, profile)
            norms = double_star_norm(h, wf, order=0)
            stars.append(norms.star)
            dstars.append(norms.double_star)
        if rnorm < cfg.residual_tolerance:
            break
        if len(history) >= 2 and history[-1] > history[-2]:
            grow += 1
            if grow >= 3:
                diverged = True
                message = "residual grew on three consecutive iterations"
                break
        else:
            grow = 0
        if len(history) >= 2 and rnorm < 1e-6 and rnorm > 0.7 * history[-2]:
            message = "residual stalled at the roundoff floor"
            break
        if it == cfg.max_iterations:
            message = "maximum iterations reached"
            break
        if fresh:
            lin = BandedLinearization(profile, sys)
        step = np.clip(lin.solve(-res), -_STEP_CLIP, _STEP_CLIP)
        profile.f[free] *= np.exp(step[index[free]])
        profile.f[0, 0] = 0.0
    _, e2 = sys.residual()       # every exit breaks right after sys is built
    orders = _fit_orders(history)
    report = NewtonReport(
        converged=history[-1] < cfg.residual_tolerance and not diverged,
        iterations=len(history) - 1,
        residual_history=history,
        star_history=stars,
        double_star_history=dstars,
        e2_drift=float(np.abs(e2 / _stencils.e2_constant(profile.n)).max()),
        cone_angle_ratio=_cone_angle_ratio(profile),
        convergence_orders=orders,
        diverged=diverged,
        message=message,
    )
    return profile, report


def _fit_orders(history, floor=1e-12):
    h = [x for x in history if x > floor]
    orders = []
    for i in range(len(h) - 2):
        if h[i + 1] < h[i] and h[i + 2] < h[i + 1]:
            orders.append(float(np.log(h[i + 2] / h[i + 1])
                                / np.log(h[i + 1] / h[i])))
    return orders


def _perturbation_tensor(g0, profile):
    """Accumulated perturbation as an invariant tensor (torus block only)."""
    grid = RadialGrid("r", g0.r, g0.n, exterior=True)
    k = g0.n - 1
    hij = np.zeros((g0.r.size, k, k))
    dfsq = profile.f**2 - g0.f**2
    hij[:, np.arange(k), np.arange(k)] = dfsq.T
    return InvariantTensor(grid, None, None, hij)


def verify_einstein(profile):
    """Report-only certification of a profile against the reduced system,
    at tolerance _VERIFY_TOL."""
    res = einstein_residual(profile)
    report = {
        "max_e1_normalized": res.max_e1(),
        "max_e2": res.max_e2(),
        "max_e2_relative": res.max_e2_relative(),
        "tolerance": _VERIFY_TOL,
        "passes": max(res.max_e1(), res.max_e2_relative()) < _VERIFY_TOL,
    }
    if isinstance(profile, DiagonalMetricProfile) and profile.n == 3:
        sys = _stencils.DiagonalSystem(profile.n, profile.s, profile.f)
        k12 = -sys.q[0]
        k13 = -sys.q[1]
        k23 = -sys.d[0] * sys.d[1]
        dev = max(np.abs(k12 + 1).max(), np.abs(k13 + 1).max(),
                  np.abs(k23 + 1).max())
        report["max_curvature_deviation"] = float(dev)
    if res.r is not None:
        # the node of the largest |E1|, and its entry named as the residual
        # CSV names its columns: E1_ii, or E1_ij on the block path
        e1 = np.abs(res.e1)
        if e1.ndim == 2:        # diagonal entries, (n-1, N-2)
            worst = np.argmax(e1.max(axis=0))
            i = j = int(np.argmax(e1[:, worst]))
        else:                   # full matrices, (N-2, n-1, n-1)
            worst = np.argmax(e1.reshape(e1.shape[0], -1).max(axis=1))
            i, j = np.unravel_index(np.argmax(e1[worst]), e1.shape[1:])
        report["residual_argmax_r"] = float(res.r[worst])
        report["residual_argmax_component"] = f"E1_{i + 2}{j + 2}"
    return report


def kernel_spectrum(profile, count=1, weight_fn: WeightFunction | None = None,
                    conjugate=False, seed=7):
    """Smallest singular values of the assembled linearization.

    With conjugate=True the operator is D A D^{-1} with D the diagonal of
    inverse weights 1/W at each unknown's node (the discrete shadow of
    measuring both sides in the weighted norm).  Deterministic start block;
    see BandedLinearization.sigma_min.
    """
    lin = BandedLinearization(profile)
    rs = cs = None
    if conjugate:
        if weight_fn is None:
            raise ValueError("conjugation needs a weight function")
        rs = cs = 1.0 / _unknown_weights(lin, profile, weight_fn)
    return lin.sigma_min(count, rs, cs, seed)


def _unknown_weights(lin, profile, weight_fn):
    from .gluing import weight
    w = weight(weight_fn, profile.r)
    return _to_unknowns(lin, np.broadcast_to(w, lin.index.shape))


def rayleigh_quotient(profile, direction, weight_fn=None, lin=None):
    """||A h|| / ||h|| for one direction, optionally in the weighted scale."""
    lin = BandedLinearization(profile) if lin is None else lin
    y = lin.matvec(direction)
    if weight_fn is not None:
        w = _unknown_weights(lin, profile, weight_fn)
        return float(np.linalg.norm(y / w) / np.linalg.norm(direction / w))
    return float(np.linalg.norm(y) / np.linalg.norm(direction))
