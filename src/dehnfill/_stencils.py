"""Finite-difference machinery for the cohomogeneity-one Einstein system.

The residual of the diagonal system is assembled from per-component
derivative ratios d_i = f_i'/f_i and q_i = f_i''/f_i:

    E1_ii / (2 sqrt(det M)) = q_i + d_i (S - d_i) - (n-1),   S = sum_j d_j,
    E2 = 4 e_2({d_i}) - 2 (n-1)(n-2),

which is the expanded form of (sqrt(det M) M' M^{-1})' - 2(n-1) sqrt(det M)
for M = diag(f_i^2); the algebraic cancellation of (f_2'/f_2)^2 keeps every
discretized quantity finite through the cap where f_2 vanishes.

Two stencil families are used:

* "matched" 3-point stencils: standard central differences corrected by the
  locally estimated curvature ratio z = (h_+ + h_- - 2 h_0)/h_0, making them
  exact on exponentials exp(a s) and trigonometric profiles.  The cusp
  profile f = e^s therefore has residual at roundoff level, and the
  truncation constants on near-Einstein ends are small.
* a fourth-order 5-point window on s < S_ZONE for capped profiles, applied
  to the even-parity variables (g = f_2/s for the collapsing fiber, f_j
  directly for the rest) with ghost values reflected across s = 0.  The
  plain 3-point constants near the cap grow like the square of the core
  curvature and would dominate the global error; inside the window the
  truncation is pushed to fourth order so the global error is governed by
  the smooth far field and stays second order under refinement.

The discrete operator has one representation: a fixed-width table per
component, indexed by offset.  The ratios of component i at interior node
k read at most the five samples k-2, ..., k+2, and slot m of the row
always means sample k+m-2: wd[k-1, m] and wq[k-1, m] are the exact
partials of d and q with respect to that sample.  Matched 3-point rows
fill slots 1-3 and parity-window rows slots 0-4; a folded ghost (node 1's
reflected sample, and for the collapsing fiber the chain rule through
g = f_2/s with the extrapolated g(0) at nodes 1-2) lands in the slots of
the samples it folds into.  The Newton matrix (`jacobian_triples`) and
the directional derivative (`apply_linearization`, over a sliding window
of the samples) are both read from them, so the linearization is the
exact derivative of the reported residual.  The parity-window sums run
left to right in column order rather than through a reduction whose
order numpy chooses, so the ratios are reproducible to the last bit.
"""

from __future__ import annotations

import numpy as np

from .geometry import _closed_cap

S_ZONE = 2.0
_Z_CLAMP = 4.0
_WIDTH = 5          # table slots per row: samples k-2..k+2 of node k
_NODE1_SLOTS = [4, 1, 0, 2, 3]   # node 1's local columns [1, 0, 2, 3] by offset

_W1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_W2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_G0_COEF = np.array([1.5, -0.6, 0.1])   # g(0) from g(1..3), even extension, O(d^6)


def _c1(z):
    return 1.0 + z / 6.0 + z * z / 120.0 + z**3 / 5040.0


def _c1p(z):
    return 1.0 / 6.0 + z / 60.0 + z * z / 1680.0


def _c2(z):
    return 1.0 + z / 12.0 + z * z / 360.0 + z**3 / 20160.0


def _c2p(z):
    return 1.0 / 12.0 + z / 180.0 + z * z / 6720.0


def matched_ratios(h, delta, partials=False):
    """d = h'/h and q = h''/h at interior nodes by curvature-matched stencils.

    Returns (d, q) and, when requested, their partial derivatives as offset
    table rows of shape (N-2, 5): with respect to h[k-1], h[k], h[k+1] in
    slots 1-3, slots 0 and 4 zero.
    """
    a = h[2:]
    b = h[:-2]
    c = h[1:-1]
    z_raw = (a + b - 2.0 * c) / c
    z = np.clip(z_raw, -_Z_CLAMP, _Z_CLAMP)
    live = (z_raw > -_Z_CLAMP) & (z_raw < _Z_CLAMP)
    c1, c2 = _c1(z), _c2(z)
    q = z_raw / (delta * delta * c2)
    d = (a - b) / (2.0 * delta * c * c1)
    if not partials:
        return d, q
    c1r = _c1p(z) / c1
    c2r = _c2p(z) / c2
    dz_a = np.where(live, 1.0 / c, 0.0)
    dz_c = np.where(live, -(z_raw + 2.0) / c, 0.0)
    inv = 1.0 / (delta * delta * c2)
    # q = z_raw / (d^2 c2(z)); z enters both numerator and the correction
    dq_a = inv * (1.0 / c) - q * c2r * dz_a
    dq_c = inv * (-(z_raw + 2.0) / c) - q * c2r * dz_c
    dd_a = 1.0 / (2.0 * delta * c * c1) - d * c1r * dz_a
    dd_b = -1.0 / (2.0 * delta * c * c1) - d * c1r * dz_a
    dd_c = -d / c - d * c1r * dz_c
    zero = np.zeros_like(d)
    pd = np.stack([zero, dd_b, dd_c, dd_a, zero], axis=1)
    pq = np.stack([zero, dq_a, dq_c, dq_a, zero], axis=1)   # symmetric in a <-> b
    return d, q, pd, pq


def _windows(v):
    """Width-5 sliding windows of the samples, zero-padded by one at each end:
    _windows(v)[..., k-1, m] = v[..., k+m-2] at interior node k (a view)."""
    pad = np.zeros(v.shape[:-1] + (v.shape[-1] + 2,))
    pad[..., 1:-1] = v
    return np.lib.stride_tricks.sliding_window_view(pad, _WIDTH, axis=-1)


def _slot_sum(w, v):
    """sum_m w[..., m] v[..., m], accumulated left to right over the slots."""
    acc = w[..., 0] * v[..., 0]
    for m in range(1, w.shape[-1]):
        acc = acc + w[..., m] * v[..., m]
    return acc


def zone_rows(h, delta, kmax):
    """Fourth-order d, q at nodes 1..kmax with even-parity ghosts across 0.

    Returns (d, q, wd, wq): the ratios and their offset table rows.  At
    node 1 the ghost h[-1] = h[1] folds onto the centre slot, and the sums
    read the columns [1, 0, 2, 3] in that order.
    """
    k = np.arange(1, kmax + 1)
    cols = np.abs(k[:, None] + np.arange(-2, 3))
    w1 = np.tile(_W1, (kmax, 1))
    w2 = np.tile(_W2, (kmax, 1))
    cols[0] = [1, 0, 2, 3, -1]
    w1[0] = [_W1[0] + _W1[2], _W1[1], _W1[3], _W1[4], 0.0]
    w2[0] = [_W2[0] + _W2[2], _W2[1], _W2[3], _W2[4], 0.0]
    h0 = h[1:kmax + 1]
    hc = h[cols]
    d = _slot_sum(w1, hc) / (delta * h0)
    q = _slot_sum(w2, hc) / (delta * delta * h0)
    w1[0], w2[0] = w1[0, _NODE1_SLOTS], w2[0, _NODE1_SLOTS]
    wd = w1 / (delta * h0)[:, None]
    wq = w2 / (delta * delta * h0)[:, None]
    wd[:, 2] -= d / h0
    wq[:, 2] -= q / h0
    return d, q, wd, wq


def plain_component(h, delta, kz=0, partials=False):
    """Ratios of a smooth positive component (f_j, or g off the cap).

    Nodes 1..kz use the parity window.  Returns (d, q, table) with
    table = (wd, wq) of shape (N-2, 5), or None without partials.
    """
    d, q, *table = matched_ratios(h, delta, partials)
    if kz > 0:
        dz, qz, *zone = zone_rows(h, delta, kz)
        d[:kz], q[:kz] = dz, qz
        for rows, z in zip(table, zone):     # the partials, if asked for
            rows[:kz] = z
    return d, q, (tuple(table) if partials else None)


def capped_theta_component(f2, s, delta, kz, partials=False):
    """Ratios of the collapsing fiber via the even variable g = f_2/s.

    d = 1/s + (Dg)/g and q = 2 (Dg)/(s g) + (D2g)/g; the table is chained
    back to the f_2 samples through dg[c]/df_2[c] = 1/s[c].  g[0] is the
    O(d^6) even extrapolation from g[1..3], so the rows of nodes 1 and 2,
    which read g[0] in slots 1 and 0, pick up its sensitivity on the slots
    of samples 1..3; the slot of sample 0 is left zero.
    """
    N = f2.size
    g = np.empty(N)
    g[1:] = f2[1:] / s[1:]
    g[0] = _G0_COEF @ g[1:4]
    dg, qg, table = plain_component(g, delta, kz=kz, partials=partials)
    sm = s[1:-1]
    d = 1.0 / sm + dg
    q = 2.0 * dg / sm + qg
    if not partials:
        return d, q, None
    wdg, wqg = table
    wqg = 2.0 * wdg / sm[:, None] + wqg
    inv_s = np.zeros(N)         # g[0] is no sample of f_2: merged below
    inv_s[1:] = 1.0 / s[1:]
    inv_s = _windows(inv_s)
    wd = wdg * inv_s
    wq = wqg * inv_s
    w0 = _G0_COEF / s[1:4]
    for row, ghost in ((0, 1), (1, 0)):
        wd[row, ghost + 1:ghost + 4] += wdg[row, ghost] * w0
        wq[row, ghost + 1:ghost + 4] += wqg[row, ghost] * w0
    return d, q, (wd, wq)


def e2_constant(n):
    """Constant term 2(n-1)(n-2) of the constraint E2."""
    return 2.0 * (n - 1) * (n - 2)


def reduced_residual(n, d, q, S, s2):
    """(E1/sqrt(det M) rows, E2) from the ratios d_i, q_i, S = sum_i d_i
    and s2 = sum_i d_i^2."""
    e1n = 2.0 * (q + d * (S - d) - (n - 1))
    e2 = 2.0 * (S * S - s2) - e2_constant(n)
    return e1n, e2


class DiagonalSystem:
    """Residual of the diagonal Einstein system and its exact linearization.

    With partials, wd and wq hold the offset tables of all components,
    each of shape (n-1, N-2, 5): d[i, k-1] has partial wd[i, k-1, m] with
    respect to f_i[k+m-2], and q likewise with wq.
    """

    def __init__(self, n, s, f, partials=False):
        self.n = n
        self.s = s
        self.f = f
        self.delta = float(s[1] - s[0])
        self.capped = _closed_cap(s, f)
        self.kz = 0
        if self.capped:
            self.kz = int(np.clip(np.searchsorted(s, S_ZONE), 3, s.size - 3))
        comps = [capped_theta_component(f[0], s, self.delta, self.kz, partials)
                 if self.capped and i == 0 else
                 plain_component(f[i], self.delta, self.kz, partials)
                 for i in range(n - 1)]
        self.d = np.vstack([c[0] for c in comps])
        self.q = np.vstack([c[1] for c in comps])
        self.S = self.d.sum(axis=0)
        if partials:
            tables = zip(*(c[2] for c in comps))
            self.wd, self.wq = (np.stack(t) for t in tables)

    def residual(self):
        """(E1/sqrt(det M) rows, E2) at the interior nodes."""
        return reduced_residual(self.n, self.d, self.q, self.S,
                                (self.d * self.d).sum(axis=0))

    def apply_linearization(self, delta_w):
        """Directional derivative of (E1n, E2) for delta log f_i = delta_w[i].

        delta_w has shape (n-1, N); the derivative is exact for the discrete
        scheme (the tables of the Newton matrix).
        """
        df = _windows(delta_w * self.f)
        dd, dq = _slot_sum(self.wd, df), _slot_sum(self.wq, df)
        dS = dd.sum(axis=0)
        de1 = 2.0 * (dq + dd * (self.S - 2.0 * self.d) + self.d * dS)
        de2 = 4.0 * ((self.S - self.d) * dd).sum(axis=0)
        return de1, de2

    def jacobian_triples(self):
        """Partials of the E1 rows with respect to the log-profile samples.

        Returns vals of shape (n-1, n-1, 5, N-2): vals[i, j, m, k-1] is the
        derivative of E1_i at interior node k by log f_j at sample k+m-2
        (d f = f d log f), zero in the slots a table row leaves empty.
        E1_i depends on component j through S, and for i = j also through
        q_j and d_j.  Which samples are unknowns is left to the caller.
        """
        k = self.n - 1
        wd = self.wd.transpose(0, 2, 1)               # (j, slot, node)
        f_col = _windows(self.f).transpose(0, 2, 1)
        vals = np.empty((k, k, _WIDTH, self.d.shape[1]))   # node-contiguous
        np.multiply((2.0 * self.d)[:, None, None, :], wd, out=vals)
        vals *= f_col
        own = np.arange(k)
        vals[own, own] = 2.0 * (self.wq.transpose(0, 2, 1)
                                + wd * (self.S - self.d)[:, None, :]) * f_col
        return vals


# -- full torus block (non-diagonal) ------------------------------------------

def block_residual(n, s, M, dM=None):
    """Residual of the matrix system for a full torus block M(s).

    Plain second-order central stencils; requires M positive definite at
    every node (no cap support on this path).  With dM given, also returns
    the exact directional derivative of (E1n, E2) in that direction.

    E1 = sym((u M' M^{-1})' - 2(n-1) u I) / u  with u = sqrt(det M), expanded
    as tr(P)/2 P + Q - P^2 - 2(n-1) I for P = M'M^{-1}, Q = M''M^{-1}.
    """
    delta = float(s[1] - s[0])
    Mi = np.linalg.inv(M[1:-1])
    D1 = (M[2:] - M[:-2]) / (2.0 * delta)
    D2 = (M[2:] + M[:-2] - 2.0 * M[1:-1]) / (delta * delta)
    P = D1 @ Mi
    Q = D2 @ Mi
    trP = np.trace(P, axis1=1, axis2=2)
    T = 0.5 * trP[:, None, None] * P + Q - P @ P
    k = n - 1
    eye = np.eye(k)
    X = T - 2.0 * (n - 1) * eye[None, :, :]
    e1n = 0.5 * (X + np.swapaxes(X, 1, 2))
    e2 = 0.5 * (trP**2 - np.trace(P @ P, axis1=1, axis2=2)) - e2_constant(n)
    if dM is None:
        return e1n, e2
    dMi = -Mi @ dM[1:-1] @ Mi
    dD1 = (dM[2:] - dM[:-2]) / (2.0 * delta)
    dD2 = (dM[2:] + dM[:-2] - 2.0 * dM[1:-1]) / (delta * delta)
    dP = dD1 @ Mi + D1 @ dMi
    dQ = dD2 @ Mi + D2 @ dMi
    dtrP = np.trace(dP, axis1=1, axis2=2)
    dT = (0.5 * dtrP[:, None, None] * P + 0.5 * trP[:, None, None] * dP
          + dQ - dP @ P - P @ dP)
    de1 = 0.5 * (dT + np.swapaxes(dT, 1, 2))
    de2 = trP * dtrP - np.trace(P @ dP, axis1=1, axis2=2)
    return e1n, e2, de1, de2
