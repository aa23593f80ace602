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

The discrete operator has one representation: one fixed-width table,
indexed by component, node and offset, built for all components in one
pass over their stacked samples.  The ratios of component i at interior
node k read at most the five samples k-2, ..., k+2, and slot m of the row
always means sample k+m-2: wd[i, k-1, m] and wq[i, k-1, m] are the exact
partials of d and q with respect to that sample.  Matched 3-point rows
fill slots 1-3 and parity-window rows slots 0-4; a folded ghost (node 1's
reflected sample, and for the collapsing fiber the chain rule through
g = f_2/s with the extrapolated g(0) at nodes 1-2) lands in the slots of
the samples it folds into.  The linearization has one representation,
the per-slot product of `DiagonalSystem.jacobian_writer`, so it is the
exact derivative of the reported residual: the solver writes each
(component, component, slot) of it straight into its band, and
`jacobian_triples` collects the same products into the one table that
`operators.linearized_residual` contracts with a direction.  The
parity-window sums run left to right in column order rather than through
a reduction whose order numpy chooses, so the ratios are reproducible to
the last bit.
"""

from __future__ import annotations

import numpy as np

from .geometry import _closed_cap

S_ZONE = 2.0
MIN_NODES = 66      # fewest samples the residual takes: 64 interior nodes
_Z_CLAMP = 4.0
_WIDTH = 5          # table slots per row: samples k-2..k+2 of node k

_W1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_W2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
# node 1 reads its reflected ghost h[-1] = h[1] on the centre column: its
# weights over the columns [1, 0, 2, 3] (and a zero), and their offset slots
_NODE1_COLS = [1, 0, 2, 3, -1]
_NODE1_SLOTS = [4, 1, 0, 2, 3]
_W1_NODE1 = np.array([_W1[0] + _W1[2], _W1[1], _W1[3], _W1[4], 0.0])
_W2_NODE1 = np.array([_W2[0] + _W2[2], _W2[1], _W2[3], _W2[4], 0.0])
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

    h holds samples along its last axis, (..., N).  Returns (d, q), each
    (..., N-2), and, when requested, their partial derivatives as offset
    table rows of shape (..., N-2, 5): with respect to h[k-1], h[k], h[k+1]
    in slots 1-3, slots 0 and 4 zero.
    """
    a = h[..., 2:]
    b = h[..., :-2]
    c = h[..., 1:-1]
    z_raw = (a + b - 2.0 * c) / c
    z = np.clip(z_raw, -_Z_CLAMP, _Z_CLAMP)
    c1, c2 = _c1(z), _c2(z)
    q = z_raw / (delta * delta * c2)
    d = (a - b) / (2.0 * delta * c * c1)
    if not partials:
        return d, q
    live = (z_raw > -_Z_CLAMP) & (z_raw < _Z_CLAMP)
    c1r = _c1p(z) / c1
    c2r = _c2p(z) / c2
    dz_a = np.where(live, 1.0 / c, 0.0)
    dz_c = np.where(live, -(z_raw + 2.0) / c, 0.0)
    inv = 1.0 / (delta * delta * c2)
    pd = np.zeros(d.shape + (_WIDTH,))
    pq = np.zeros(d.shape + (_WIDTH,))
    # q = z_raw / (d^2 c2(z)); z enters both numerator and the correction;
    # q is symmetric in a <-> b
    pq[..., 1] = pq[..., 3] = inv * (1.0 / c) - q * c2r * dz_a
    pq[..., 2] = inv * (-(z_raw + 2.0) / c) - q * c2r * dz_c
    pd[..., 3] = 1.0 / (2.0 * delta * c * c1) - d * c1r * dz_a
    pd[..., 1] = -1.0 / (2.0 * delta * c * c1) - d * c1r * dz_a
    pd[..., 2] = -d / c - d * c1r * dz_c
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


def _zone_table(w, w_node1, kmax):
    """Parity-window weights by offset slot at nodes 1..kmax, (kmax, 5)."""
    table = np.tile(w, (kmax, 1))
    table[0] = w_node1[_NODE1_SLOTS]
    return table


def zone_rows(h, delta, kmax, partials=False):
    """Fourth-order d, q at nodes 1..kmax with even-parity ghosts across 0.

    h holds samples along its last axis.  Returns (d, q) and, when
    requested, their offset table rows (wd, wq).  At node 1 the ghost
    h[-1] = h[1] folds onto the centre slot, and its sums read the columns
    [1, 0, 2, 3] in that order; every other node's sum is one shifted
    slice of the samples per slot.
    """
    h0 = h[..., 1:kmax + 1]
    sums = []
    for w, w_node1 in ((_W1, _W1_NODE1), (_W2, _W2_NODE1)):
        acc = np.empty(h0.shape)
        acc[..., 0] = _slot_sum(w_node1, h[..., _NODE1_COLS])
        rest = acc[..., 1:]         # nodes 2..kmax read samples k-2..k+2
        np.multiply(w[0], h[..., :kmax - 1], out=rest)
        for m in range(1, _WIDTH):
            rest += w[m] * h[..., m:kmax - 1 + m]
        sums.append(acc)
    d = sums[0] / (delta * h0)
    q = sums[1] / (delta * delta * h0)
    if not partials:
        return d, q
    wd = _zone_table(_W1, _W1_NODE1, kmax) / (delta * h0)[..., None]
    wq = _zone_table(_W2, _W2_NODE1, kmax) / (delta * delta * h0)[..., None]
    wd[..., 2] -= d / h0
    wq[..., 2] -= q / h0
    return d, q, wd, wq


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

    All n-1 components are evaluated in one pass over an (n-1, N) stack of
    samples whose row 0 holds g = f_2/s when the profile is capped: the
    parity window on nodes 1..kz and the matched stencils beyond it each
    run once on the stack, and row 0 is then mapped back to f_2.  With
    partials, wd and wq hold the offset tables, each of shape
    (n-1, N-2, 5): d[i, k-1] has partial wd[i, k-1, m] with respect to
    f_i[k+m-2], and q likewise with wq.  The linearization is read from
    them in one place, `jacobian_writer`.
    """

    def __init__(self, n, s, f, partials=False):
        self.n = n
        self.s = s
        self.f = f
        self.delta = float(s[1] - s[0])
        self.capped = _closed_cap(s, f)
        self.kz = 0
        h = f
        if self.capped:
            self.kz = int(np.clip(np.searchsorted(s, S_ZONE), 3, s.size - 3))
            h = f.copy()    # row 0 becomes g = f_2/s, g[0] its even extension
            h[0, 1:] /= s[1:]
            h[0, 0] = _G0_COEF @ h[0, 1:4]
        # matched stencils beyond the parity window, nodes kz+1..N-2
        parts = matched_ratios(h[:, self.kz:], self.delta, partials)
        if self.kz:
            zone = zone_rows(h, self.delta, self.kz, partials)
            parts = [np.concatenate(pair, axis=1) for pair in zip(zone, parts)]
        d, q, *tables = parts
        if self.capped:
            self._theta_from_g(d, q, *tables)
        self.d, self.q = d, q
        self.S = d.sum(axis=0)
        if partials:
            self.wd, self.wq = tables

    def _theta_from_g(self, d, q, wd=None, wq=None):
        """Map row 0 from the ratios of g = f_2/s to those of f_2, in place.

        d = 1/s + (Dg)/g and q = 2 (Dg)/(s g) + (D2g)/g; the table is chained
        back to the f_2 samples through dg[c]/df_2[c] = 1/s[c].  The rows of
        nodes 1 and 2, which read g[0] in slots 1 and 0, pick up its
        sensitivity on the slots of samples 1..3; the slot of sample 0 is
        left zero.
        """
        s = self.s
        sm = s[1:-1]
        q[0] = 2.0 * d[0] / sm + q[0]
        d[0] = 1.0 / sm + d[0]
        if wd is None:
            return
        wdg, wqg = wd[0], 2.0 * wd[0] / sm[:, None] + wq[0]
        ghosts = [(row, ghost, wdg[row, ghost], wqg[row, ghost])
                  for row, ghost in ((0, 1), (1, 0))]
        inv_s = np.zeros(s.size)      # g[0] is no sample of f_2: merged below
        inv_s[1:] = 1.0 / s[1:]
        inv_s = _windows(inv_s)
        np.multiply(wdg, inv_s, out=wd[0])
        np.multiply(wqg, inv_s, out=wq[0])
        w0 = _G0_COEF / s[1:4]
        for row, ghost, gd, gq in ghosts:
            wd[0, row, ghost + 1:ghost + 4] += gd * w0
            wq[0, row, ghost + 1:ghost + 4] += gq * w0

    def residual(self):
        """(E1/sqrt(det M) rows, E2) at the interior nodes."""
        return reduced_residual(self.n, self.d, self.q, self.S,
                                (self.d * self.d).sum(axis=0))

    def jacobian_writer(self):
        """The partials of the E1 rows by the log-profile samples, one
        (i, j, slot) at a time.

        Returns write(i, j, m, nodes, out), which stores in out the
        derivative of E1_i at the interior nodes k with k-1 in the slice
        `nodes` by log f_j at sample k+m-2 (d f = f d log f).  E1_i depends
        on component j through S, and for i = j also through q_j and d_j:
        the products are (2 d_i wd_j[m]) f_j off the diagonal and
        2 (wq_i[m] + wd_i[m] (S - d_i)) f_i on it, in that order, so an
        entry is the same double whatever slice it is written with.  out
        may be a strided view, such as a diagonal of a band matrix.
        """
        two_d, s_less_d = 2.0 * self.d, self.S - self.d
        f_col = _windows(self.f)
        wd, wq = self.wd, self.wq

        def write(i, j, m, nodes, out):
            if i == j:
                np.multiply(wd[i, nodes, m], s_less_d[i, nodes], out=out)
                out += wq[i, nodes, m]
                out *= 2.0
            else:
                np.multiply(two_d[i, nodes], wd[j, nodes, m], out=out)
            out *= f_col[j, nodes, m]

        return write

    def jacobian_triples(self):
        """All partials of `jacobian_writer`, as vals of shape
        (n-1, n-1, 5, N-2): vals[i, j, m, k-1] is the derivative of E1_i at
        interior node k by log f_j at sample k+m-2, zero in the slots a
        table row leaves empty.  Which samples are unknowns is left to the
        caller."""
        k = self.n - 1
        vals = np.empty((k, k, _WIDTH, self.d.shape[1]))
        write = self.jacobian_writer()
        for i, j, m in np.ndindex(k, k, _WIDTH):
            write(i, j, m, slice(None), vals[i, j, m])
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
