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

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _stencils
from ._lapack import check_info, dgbtrf, dgbtrs, dgeqrf, dormqr, dpbtrs
from .geometry import DiagonalMetricProfile, RadialGrid, _check_integer
from .gluing import WeightFunction, _NormPlan, rho_cutoff, weight
from .operators import CERTIFY_TOL, _residual_and_system

__all__ = [
    "NumericalError",
    "MODES",
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
_PANEL = 48             # columns per panel of the probe's banded QR
_FINITE_BLOCK = 512     # columns per finiteness check of a band
MODES = ("newton", "frozen_jacobian")   # the values of SolverConfig.mode


class NumericalError(ValueError):
    """Non-finite state reached a linear solve: the Newton matrix or a
    right-hand side holds infs or NaNs.  A subclass of ValueError, so that
    callers catching ValueError still catch it."""


def _check_finite(band):
    """Raise NumericalError unless every entry of the band is finite; checked
    a block of columns at a time, so no band-sized temporary is made."""
    for c in range(0, band.shape[1], _FINITE_BLOCK):
        if not np.isfinite(band[:, c:c + _FINITE_BLOCK]).all():
            raise NumericalError("the Newton matrix holds infs or NaNs")


def _diagonals(band, row, col, shape):
    """The view V[i, j] = band[row + i - j, col + j] of a band array, with
    matrix rows and columns.  Off the band, V addresses other memory of the
    array's base: the caller masks it and keeps every address in the base."""
    s0, s1 = band.strides
    return np.lib.stride_tricks.as_strided(band[row, col:], shape, (s0, s1 - s0))


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
        _check_integer(self.max_iterations, "max_iterations", 0)
        tol = self.residual_tolerance
        if not (isinstance(tol, numbers.Real) and np.isfinite(tol) and tol > 0):
            raise ValueError(f"residual_tolerance must be finite and positive, "
                             f"got {tol!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}")


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

    Columns are node-major over the free unknowns, numbered by `index`: all
    components at node 0 except the pinned theta fiber, then nodes
    1..N-2 (the Dirichlet node N-1 is eliminated).  Each unknown owns one
    equation: the parity row f_i'(0) = 0 at node 0, E1_i (normalized) at
    node t >= 1.  The band's rows are in closed form: node 1's E1 rows on
    rows 0..n-2 and then the parity rows on rows n-1..2n-4, each in
    component order (`_head` lists their unknowns), and from node 2 on each
    equation on its unknown's number.  The parity rows read nodes 0..4;
    placed first they alone set u = 4(n-1), and after node 1's rows, whose
    E1_2 on row 0 reads f_n at node 3, the widths are l = 3n-4 and u = 4n-6.
    The order changes the cost, not the bits: LU with partial pivoting
    picks the same pivot rows, eliminating with the same arithmetic,
    whatever order the rows start in, so each `solve` is bit for bit that
    of the band with the parity rows first (tested for n = 3..7).  Vectors in
    and out of `solve`, `solve_transpose`, `matvec` and `residual_vector`
    are in the unknown order; `solve` puts its right-hand side in row
    order.  The transpose solve's dot products run over the narrower band,
    so its last bits may differ from the wider band's.

    The matrix is written once, by `_band`, straight into the array that
    LAPACK's dgbtrf factors in place: a Fortran-ordered (2l+u+1, size)
    array whose first l rows are spare for the fill-in and whose rows
    l.. hold the band, A[r, c] at row l + u + r - c of column c.  With
    n-1 unknowns per node, E1_i at node t >= 2 and f_j at sample t+m-2
    always meet on band row u + (2-m)(n-1) + i - j, so each (i, j, slot m)
    of the partials, formed by `DiagonalSystem.jacobian_writer`, is written
    there into one strided slice, clipped at the pinned f_2(0) and the
    Dirichlet node; node 1's entry is one more write, and each sample of
    the parity rows one more slice.  No table of the partials and no copy
    of the band is made; the private `_work`, a spent linearization's
    `_lu`, is zeroed and written in place of a new array, and `_index`, a
    solve's numbering, is used in place of a new one.  The first solve,
    in either direction, factors that array in place and `_lu` holds the
    factors from then on; until then `ab`, the band rows, is a view of it,
    and afterwards `ab` and `matvec` write the band anew from `sys`.

    `solve` and `solve_transpose` (A^T x = b) sweep A's factors, on one
    right-hand side or a matrix of them.  `sigma_min` factors no LU: it
    reads the band, its rows back in the unknown order, into the R of a
    banded QR and sweeps R.  `sys` is the system at the profile when the
    caller already built it with partials.
    """

    def __init__(self, profile: DiagonalMetricProfile, sys=None, *, _work=None,
                 _index=None):
        if not profile.has_cap:
            raise ValueError("the solver expects a capped profile")
        n, N = profile.n, profile.s.size
        self.n, self.N = n, N
        self.sys = (_stencils.DiagonalSystem(n, profile.s, profile.f, partials=True)
                    if sys is None else sys)
        self.index = _unknown_index(n, N) if _index is None else _index
        self.size = int(self.index.max()) + 1
        # the unknowns whose equations sit on rows 0..2n-4, node 1's E1 rows
        # and then the parity rows; every later row is its unknown's
        self._head = np.concatenate((self.index[:, 1], self.index[1:, 0]))
        # E1_{n-1} at node t reads f_2 at t-2; E1_2 at node 1, on row 0,
        # reads f_n at node 3
        self.l, self.u = 3 * n - 4, 4 * n - 6
        self._lu = self._band(_work)     # factored in place by the first solve
        self._piv = None

    def _band(self, work=None):
        """A's band under the fill rows of a dgbtrf work array: a new one,
        or `work`, zeroed and rewritten."""
        n, N, kz, index = self.n, self.N, self.sys.kz, self.index
        l, u = self.l, self.u
        step = n - 1                    # unknowns per node, node-major
        if work is None:
            work = np.zeros((2 * l + u + 1, self.size), order="F")
        else:
            work.fill(0.0)
        write = self.sys.jacobian_writer()
        for i, j, m in np.ndindex(step, step, 5):
            # the nodes t whose table fills slot m and whose sample t+m-2 is
            # an unknown: not f_2(0), not the Dirichlet node
            lo = max(1, 2 - m + (j == 0))
            hi = min(N - 2, N - m) if 1 <= m <= 3 else min(kz, N - m)
            row = write(i, j, m, slice(lo - 1, hi))
            if lo == 1:                 # node 1's row, row i, is off the stride
                c = index[j, m - 1]
                work[l + u + i - c, c] = row[0]
                row, lo = row[1:], 2
            r0, c0 = index[i, lo], index[j, lo + m - 2]
            span = (hi - lo) * step + 1
            work[l + u + r0 - c0, c0:c0 + span:step] = row
        # the parity rows f_i'(0) = 0, i >= 1, from row n-1, each reading its
        # node-0..4 samples
        w = _PARITY_W / self.sys.delta
        for p in range(5):
            cols = slice(index[1, p], index[-1, p] + 1)
            work[l + u + n - 1 - index[1, p], cols] = w[p] * self.sys.f[1:, p]
        return work

    @property
    def ab(self):
        """A's band in LAPACK layout, A[r, c] at ab[u + r - c, c] with the
        rows in row order: a view of the array the first solve factors, or,
        once it is factored, the band written anew from `sys`."""
        return (self._lu if self._piv is None else self._band())[self.l:]

    def residual_vector(self):
        """Stacked residual in the unknown order: each unknown's own
        equation, the parity rows at node 0 and the E1 rows after them."""
        return _stacked_residual(self.sys, self.sys.residual()[0])

    def _factor(self):
        """LU-factor A in place and hold the factors."""
        _check_finite(self._lu[self.l:])
        lu, piv, info = dgbtrf(self._lu, self.l, self.u, overwrite_ab=True)
        if info:
            self._band(self._lu)        # dgbtrf has overwritten the band
        check_info(info, "dgbtrf")
        self._lu, self._piv = lu, piv

    def _band_solve(self, rhs, trans):
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.size:
            raise ValueError("right-hand side does not match the matrix")
        if not np.isfinite(rhs).all():
            raise NumericalError("right-hand side holds infs or NaNs")
        if self._piv is None:
            self._factor()
        if not trans:       # the right-hand side in row order, solved in place
            b = np.array(rhs, order="F")
            b[:self._head.size] = rhs[self._head]
            rhs = b
        x, info = dgbtrs(self._lu, self.l, self.u, rhs, self._piv, trans=trans,
                         overwrite_b=not trans)
        check_info(info, "dgbtrs")
        if trans:           # A^T's solution comes in row order
            self._to_unknown_order(x)
        return x

    def _to_unknown_order(self, y):
        """Put a vector or matrix in row order into unknown order, in place."""
        y[self._head] = y[:self._head.size].copy()

    def solve(self, rhs):
        """A x = rhs for a vector or for each column of a matrix."""
        return self._band_solve(rhs, 0)

    def solve_transpose(self, rhs):
        """A^T x = rhs for a vector or for each column of a matrix."""
        return self._band_solve(rhs, 1)

    def matvec(self, x):
        """A x, one band diagonal at a time."""
        ab = self.ab
        out = np.zeros(self.size)
        for band_row in range(self.l + self.u + 1):
            off = band_row - self.u          # row - col on this diagonal
            lo, hi = max(0, -off), min(self.size, self.size - off)
            out[lo + off:hi + off] += ab[band_row, lo:hi] * x[lo:hi]
        self._to_unknown_order(out)
        return out

    def sigma_min(self, count=1, scale=None, seed=7):
        """The count smallest singular values of B = D A D^{-1}, with
        D = diag(scale) or the identity, ascending, by block power iteration
        on (B^T B)^{-1} from a seeded start block.

        scale must hold `size` finite nonzero numbers.  B = QR is factored
        once, keeping only R (`_r_factor`), and R's diagonal is checked once
        for a zero: each step applies (B^T B)^{-1} = R^{-1} R^{-T} by one
        dpbtrs call, both triangular band sweeps of R, with no pivots, and
        without squaring the condition number as a Cholesky factor of B^T B
        would.  It re-orthonormalizes the block by QR and estimates the
        largest eigenvalues of (B^T B)^{-1} as the singular values of that
        QR's triangle; unlike its diagonal, these converge at the gap to the
        first eigenvalue outside the block, even where two inside nearly
        coincide.  One column needs neither factorization: its estimate is
        the norm of the iterate, which is then divided by it in place.
        The loop stops when no estimate moves by more than _PROBE_TOL
        relative, or after _PROBE_STEPS steps.
        """
        _check_integer(count, "count", 1)
        d = np.ones(self.size) if scale is None else np.asarray(scale, dtype=float)
        if d.shape != (self.size,) or not np.all(np.isfinite(d) & (d != 0)):
            raise ValueError(f"scale must be a ({self.size},) array of finite"
                             f" nonzero numbers, got shape {d.shape}")
        r = self._r_factor(d)
        if not r[-1].all():             # a zero on R's diagonal
            raise np.linalg.LinAlgError("singular matrix")
        rng = np.random.Generator(np.random.Philox(seed))
        X, _ = np.linalg.qr(rng.standard_normal((self.size, count)))
        lam = 0.0 if count == 1 else np.zeros(count)
        for _ in range(_PROBE_STEPS):
            X, info = dpbtrs(r, X, overwrite_b=True)    # R^{-1} R^{-T} X
            check_info(info, "dpbtrs")
            if count == 1:
                x = X.ravel()
                lam_new = math.sqrt(x @ x)
                X /= lam_new
                done = abs(lam_new - lam) <= _PROBE_TOL * lam_new
            else:
                X, R = np.linalg.qr(X)
                lam_new = np.linalg.svd(R, compute_uv=False)    # descending
                done = np.all(np.abs(lam_new - lam) <= _PROBE_TOL * lam_new)
            lam = lam_new
            if done:
                break
        return 1.0 / np.sqrt(np.atleast_1d(lam))

    def _r_factor(self, d):
        """R of the Householder QR of B = diag(d) A diag(d)^{-1}, A's rows
        in the unknown order, banded with kd = l + 4(n-1), A's upper width
        in that order, in LAPACK 'U' band storage (R[i, j] at
        r[kd + i - j, j]); Q is never formed.  The panel at column k holds
        rows k..k+_PANEL+l-1 in columns k..k+_PANEL+kd-1, all their entries.
        Its first l rows carry over, transformed, from the last panel; the
        rest are read from the band by a strided view, masked, put in the
        unknown order (the first panel's rows 0..2n-4) and scaled, so R is
        the same whatever the band's row order.  dgeqrf factors its first
        _PANEL columns and dormqr applies Q^T to the others; its first
        _PANEL rows are R's, its last l carry on.  Rows and columns past the
        matrix are zero and leave R unchanged."""
        l, u, size, b = self.l, self.u, self.size, _PANEL
        kd = l + 4 * (self.n - 1)
        ab = self.ab
        _check_finite(ab)
        i, j = np.indices((b + l, b + kd))
        in_band, in_r = (i - j <= l) & (j - i <= u), (j >= i) & (j - i <= kd)
        panel = np.zeros((b + l, b + kd), order="F")
        r = np.zeros((kd + 1, size), order="F")
        for k in range(0, size, b):
            first = l if k else 0           # rows carried from the last panel
            m, w = min(b + l, size - k), min(b + kd, size - k)
            if k:
                panel[:l, :kd] = panel[b:, b:]
                panel[:l, kd:] = panel[l:] = 0.0
            if m > first:
                fresh = panel[first:m, :w]
                np.copyto(fresh, _diagonals(ab, u + first, k, fresh.shape),
                          where=in_band[first:m, :w])
                if not k:
                    self._to_unknown_order(fresh)
                fresh *= d[k + first:k + m, None]
                fresh /= d[k:k + w]
            _, tau, _, info = dgeqrf(panel[:, :b], overwrite_a=True)
            check_info(info, "dgeqrf")
            _, _, info = dormqr("L", "T", panel[:, :b], tau, panel[:, b:], kd,
                                overwrite_c=True)
            check_info(info, "dormqr")
            rows = min(b, size - k)
            np.copyto(_diagonals(r, kd, k, (rows, w)), panel[:rows, :w],
                      where=in_r[:rows, :w])
        return r


def _unknown_index(n, N):
    """Node-major unknown numbering of the (n-1, N) samples, -1 at the
    pinned f_2(0) and the Dirichlet last node."""
    index = np.full((n - 1, N), -1)
    parity, nodes = _node_major(np.arange((n - 1) * (N - 2) + n - 2), n)
    index[1:, 0], index[:, 1:-1] = parity, nodes.T
    return index


def _node_major(vec, n):
    """The pair of views of a vector in the unknown order that hold node 0's
    n-2 free components, as f[1:, 0] does, and then, one (n-1)-row a node,
    those of nodes 1..N-2, as f[:, 1:-1].T does."""
    return vec[:n - 2], vec[n - 2:].reshape(-1, n - 1)


def _stacked_residual(sys, e1n):
    """Residual of a system at any iterate in the unknown order, from its
    normalized E1 rows e1n, written through the _node_major views: the
    parity rows, then e1n.T."""
    out = np.empty(e1n.size + sys.n - 2)
    parity, rows = _node_major(out, sys.n)
    rows[:] = e1n.T
    for comp in range(1, sys.n - 1):
        parity[comp - 1] = (_PARITY_W @ sys.f[comp, :5]) / sys.delta
    return out


def trivial_direction(profile: DiagonalMetricProfile, u_diag):
    """Unknown-vector of a cutoff trace-free trivial variation, in the
    unknown order of any linearization at the profile; none is built.

    delta(f_i^2) = rho(s) r^2 u_ii  =>  delta log f_i = rho r^2 u_ii / (2 f_i^2).
    """
    u_diag = np.asarray(u_diag, dtype=float)
    if abs(u_diag.sum()) > 1e-12:
        raise ValueError("trivial direction must be trace free")
    s_b = profile.s[-1] if profile.cap_radius is None else float(
        np.interp(profile.cap_radius, profile.r, profile.s))
    rho = rho_cutoff(profile.s, s_b)
    r2 = profile.r**2
    dw = rho * r2 * u_diag[:, None] / (2.0 * profile.f**2 + 1e-300)
    return _to_unknowns(dw)


def _to_unknowns(per_sample):
    """Unknown vector holding per_sample[i, node] at each free slot, read
    through the _node_major views; the sizes are per_sample's, (n-1, N)."""
    k, N = per_sample.shape
    vec = np.empty(k * (N - 2) + k - 1)
    parity, rows = _node_major(vec, k + 1)
    parity[:], rows[:] = per_sample[1:, 0], per_sample[:, 1:-1].T
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
    a step follows; the unknowns are numbered once a solve.  Each
    step is negated, clipped and exponentiated in the solve's output array
    and multiplies f in place through the _node_major views.  Between
    steps a solve holds only what the next step reads: in Newton mode the
    spent step's dgbtrf work array and stencil tables, which the next
    system and band are written into, so a solve allocates one band and one
    pair of tables; in frozen mode the one linearization's factors, whose
    stencil system is dropped once they exist.  A step's residual,
    right-hand side and update are dropped once read.  When the profile
    carries its radii and cap radius, each iterate's perturbation is
    measured, before its system is built, in the star and double-star
    norms of the weight at the cap radius, through one order-0 norm plan
    built per solve: from its torus diagonal f_i^2 - f0_i^2 alone, formed
    in one array, through the same norm core as double_star_norm, whose
    order-0 values on the full tensor it equals bit for bit.  Returns
    (profile, report).
    """
    cfg = SolverConfig() if cfg is None else cfg
    profile = g0.copy()
    plan = None
    if g0.cap_radius is not None and g0.r is not None:
        plan = _NormPlan(RadialGrid(g0.r, g0.n),
                         WeightFunction(g0.n, g0.cap_radius), order=0)
        f0_squared = g0.f**2
    numbering = _unknown_index(profile.n, profile.s.size)
    lin = work = tables = None
    history, stars, dstars = [], [], []
    grow, diverged, message = 0, False, ""
    for it in range(cfg.max_iterations + 1):
        if plan is not None:
            diag = np.square(profile.f)
            diag -= f0_squared
            norms = plan.double_star_diagonal(diag)
            stars.append(norms.star)
            dstars.append(norms.double_star)
            del diag
        # partials only where a matrix may be assembled from this system
        fresh = lin is None
        sys = _stencils.DiagonalSystem(profile.n, profile.s, profile.f, partials=fresh,
                                       _tables=tables)
        e1n, e2 = sys.residual()
        rnorm = float(np.abs(e1n).max())
        history.append(rnorm)
        grow = grow + 1 if len(history) >= 2 and rnorm > history[-2] else 0
        if rnorm < cfg.residual_tolerance:
            break
        if grow >= 3:
            diverged, message = True, "residual grew on three consecutive iterations"
            break
        if len(history) >= 2 and rnorm < 1e-6 and rnorm > 0.7 * history[-2]:
            message = "residual stalled at the roundoff floor"
            break
        if it == cfg.max_iterations:
            message = "maximum iterations reached"
            break
        if fresh:
            lin = BandedLinearization(profile, sys, _work=work, _index=numbering)
        rhs = _stacked_residual(sys, e1n)
        del e1n, e2             # read: none of a step is kept to the next
        # -solve(r) is solve(-r), bit for bit: negation is exact
        step = lin.solve(rhs)
        lin.sys = rhs = None    # later frozen steps read the factors alone
        np.negative(step, out=step)
        np.clip(step, -_STEP_CLIP, _STEP_CLIP, out=step)
        np.exp(step, out=step)
        parity, rows = _node_major(step, profile.n)
        profile.f[1:, 0] *= parity
        np.multiply(profile.f[:, 1:-1], rows.T, out=profile.f[:, 1:-1])
        if cfg.mode == "newton":    # keep the spent step's arrays, not its objects
            work, tables, lin = lin._lu, (sys.wd, sys.wq), None
        del step, parity, rows, sys
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


def _fit_orders(history):
    h = [x for x in history if x > 1e-12]       # orders above roundoff only
    orders = []
    for i in range(len(h) - 2):
        if h[i + 1] < h[i] and h[i + 2] < h[i + 1]:
            orders.append(float(np.log(h[i + 2] / h[i + 1])
                                / np.log(h[i + 1] / h[i])))
    return orders


def verify_einstein(profile):
    """Report-only certification of a profile against the reduced system:
    it passes when EinsteinResidual.worst() is below CERTIFY_TOL."""
    res, sys = _residual_and_system(profile)
    report = {
        "max_e1_normalized": res.max_e1(),
        "max_e2": res.max_e2(),
        "max_e2_relative": res.max_e2_relative(),
        "tolerance": CERTIFY_TOL,
        "passes": res.worst() < CERTIFY_TOL,
    }
    if profile.n == 3:
        k12 = -sys.q[0]
        k13 = -sys.q[1]
        k23 = -sys.d[0] * sys.d[1]
        dev = max(np.abs(k12 + 1).max(), np.abs(k13 + 1).max(),
                  np.abs(k23 + 1).max())
        report["max_curvature_deviation"] = float(dev)
    if res.r is not None:
        # the node of the largest |E1|, and its entry named as the residual
        # CSV names its columns, E1_ii
        e1 = np.abs(res.e1)
        worst = np.argmax(e1.max(axis=0))
        i = int(np.argmax(e1[:, worst])) + 2
        report["residual_argmax_r"] = float(res.r[worst])
        report["residual_argmax_component"] = f"E1_{i}{i}"
    return report


def kernel_spectrum(profile, count=1, weight_fn: WeightFunction | None = None,
                    conjugate=False, seed=7):
    """Smallest singular values of the assembled linearization.

    With conjugate=True the operator is D A D^{-1} with D the diagonal of
    inverse weights 1/W at each unknown's node (the discrete shadow of
    measuring both sides in the weighted norm).  The matrix is assembled
    and never LU-factored: the probe reads its band into the R of a banded
    QR, and each step is one dpbtrs call on R.  Deterministic start block;
    see BandedLinearization.sigma_min.
    """
    scale = None
    if conjugate:
        if weight_fn is None:
            raise ValueError("conjugation needs a weight function")
        scale = 1.0 / _unknown_weights(profile, weight_fn)
    return BandedLinearization(profile).sigma_min(count, scale, seed)


def _unknown_weights(profile, weight_fn):
    w = weight(weight_fn, profile.r)
    return _to_unknowns(np.broadcast_to(w, profile.f.shape))


def rayleigh_quotient(profile, direction):
    """||A h|| / ||h|| for one direction."""
    y = BandedLinearization(profile).matvec(direction)
    return float(np.linalg.norm(y) / np.linalg.norm(direction))
