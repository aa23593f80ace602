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
pass over their stacked samples, and written in place: the parity
window fills columns :kz and the matched stencils the rest of one set
of full-width arrays, so no part is joined to another.  The tables are
slot-major in memory behind their (component, node, slot) view: each
slot of a component is one contiguous row over the nodes, as the
stencils write it and the Jacobian reads it.  The ratios of
component i at interior
node k read at most the five samples k-2, ..., k+2, and slot m of the row
always means sample k+m-2: wd[i, k-1, m] and wq[i, k-1, m] are the exact
partials of d and q with respect to that sample.  Matched 3-point rows
fill slots 1-3 and parity-window rows slots 0-4; a folded ghost (node 1's
reflected sample, and for the collapsing fiber the chain rule through
g = f_2/s with the extrapolated g(0) at nodes 1-2) lands in the slots of
the samples it folds into.  The linearization has one representation,
the per-slot product of `DiagonalSystem.jacobian_writer`, so it is the
exact derivative of the reported residual: the solver writes each
(component, component, slot) of it into its band, formed in a contiguous
row and stored by one strided write, and
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


def _series(z, c0, k1, k2, k3=None):
    """c0 + z/k1 + z*z/k2 (+ z**3/k3), each term formed and added in that
    order, in the returned array and one scratch array."""
    acc = np.divide(z, k1)
    acc += c0
    term = np.multiply(z, z)
    term /= k2
    acc += term
    if k3 is not None:
        np.power(z, 3, out=term)
        term /= k3
        acc += term
    return acc


def _c1(z):
    return _series(z, 1.0, 6.0, 120.0, 5040.0)


def _c1p(z):
    return _series(z, 1.0 / 6.0, 60.0, 1680.0)


def _c2(z):
    return _series(z, 1.0, 12.0, 360.0, 20160.0)


def _c2p(z):
    return _series(z, 1.0 / 12.0, 180.0, 6720.0)


def matched_ratios(h, delta, d, q, wd=None, wq=None):
    """d = h'/h and q = h''/h at interior nodes by curvature-matched stencils.

    h holds samples along its last axis, (..., N); the ratios are written
    into d and q, each (..., N-2), and, when wd and wq are given, their
    partial derivatives into those offset table rows of shape (..., N-2, 5):
    with respect to h[k-1], h[k], h[k+1] in slots 1-3.  Slots 0 and 4 are
    not written; the caller zeroes them.  The (..., N-2) intermediates are
    formed in place and each is dropped after its last use, at most six
    alive at once; the operations, their operands and their order are those
    of the plain expressions in the comments, so the results are the same
    to the bit.
    """
    partials = wd is not None
    a, b, c = h[..., 2:], h[..., :-2], h[..., 1:-1]
    z_raw = a + b                       # (a + b - 2 c) / c
    z_raw -= 2.0 * c
    z_raw /= c
    z = np.clip(z_raw, -_Z_CLAMP, _Z_CLAMP)
    den = _c1(z)                        # d = (a - b) / (2 delta c c1(z))
    if partials:
        r = _c1p(z)
        r /= den
    np.multiply(2.0 * delta * c, den, out=den)
    np.subtract(a, b, out=d)
    d /= den
    if partials:
        # z's partials, dz_a = 1/c by a and b and dz_c = -(z_raw + 2)/c by
        # c, are 0 where z is clamped
        dead = ~((z_raw > -_Z_CLAMP) & (z_raw < _Z_CLAMP))
        dz, row = np.empty_like(d), np.empty_like(d)
        np.multiply(d, r, out=r)        # d c1'/c1
        np.divide(1.0, c, out=dz)
        np.copyto(dz, 0.0, where=dead)
        dz *= r                         # d c1r dz_a
        np.divide(1.0, den, out=row)    # 1 / (2 delta c c1) - d c1r dz_a
        row -= dz
        wd[..., 3] = row
        np.divide(-1.0, den, out=row)   # -1 / (2 delta c c1) - d c1r dz_a
        row -= dz
        wd[..., 1] = row
        _dz_by_centre(z_raw, c, dz)
        np.copyto(dz, 0.0, where=dead)
        dz *= r                         # d c1r dz_c
        np.negative(d, out=row)         # -d / c - d c1r dz_c
        row /= c
        row -= dz
        wd[..., 2] = row
        del r, dz, row
    del den
    den = _c2(z)                        # q = z_raw / (delta^2 c2(z))
    if partials:
        r = _c2p(z)
        r /= den
    del z
    np.multiply(delta * delta, den, out=den)
    np.divide(z_raw, den, out=q)
    if not partials:
        return
    # z enters both the numerator and the correction; q is symmetric in
    # a <-> b
    np.divide(1.0, den, out=den)        # inv = 1 / (delta^2 c2)
    np.multiply(q, r, out=r)            # q c2'/c2
    dz, row = np.empty_like(d), np.empty_like(d)
    np.divide(1.0, c, out=dz)
    np.multiply(den, dz, out=row)       # inv (1/c) - q c2r dz_a
    np.copyto(dz, 0.0, where=dead)
    dz *= r
    row -= dz
    wq[..., 1] = wq[..., 3] = row
    _dz_by_centre(z_raw, c, dz)
    np.multiply(den, dz, out=row)       # inv (-(z_raw + 2)/c) - q c2r dz_c
    np.copyto(dz, 0.0, where=dead)
    dz *= r
    row -= dz
    wq[..., 2] = row


def _dz_by_centre(z_raw, c, out):
    """z's partial by the centre sample, -(z_raw + 2) / c, into out."""
    np.add(z_raw, 2.0, out=out)
    np.negative(out, out=out)
    out /= c


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


def zone_rows(h, delta, d, q, wd=None, wq=None):
    """Fourth-order d, q at nodes 1..kmax with even-parity ghosts across 0.

    h holds samples along its last axis; the ratios are written into d and
    q, each (..., kmax), and, when wd and wq are given, all five slots of
    their offset table rows into those (..., kmax, 5) arrays.  At node 1
    the ghost h[-1] = h[1] folds onto the centre slot, and its sums read
    the columns [1, 0, 2, 3] in that order; every other node's sum is one
    shifted slice of the samples per slot.
    """
    kmax = d.shape[-1]
    h0 = h[..., 1:kmax + 1]
    for acc, table, w, w_node1, scale in (
            (d, wd, _W1, _W1_NODE1, delta * h0),
            (q, wq, _W2, _W2_NODE1, delta * delta * h0)):
        acc[..., 0] = _slot_sum(w_node1, h[..., _NODE1_COLS])
        rest = acc[..., 1:]         # nodes 2..kmax read samples k-2..k+2
        np.multiply(w[0], h[..., :kmax - 1], out=rest)
        for m in range(1, _WIDTH):
            rest += w[m] * h[..., m:kmax - 1 + m]
        acc /= scale
        if table is not None:
            np.divide(w, scale[..., None], out=table)
            table[..., 0, :] = w_node1[_NODE1_SLOTS] / scale[..., :1]
            table[..., 2] -= acc / h0


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
    run once on the stack, writing columns :kz and kz: of the full-width
    d and q, and row 0 is then mapped back to f_2 in place, one slot at a
    time.  With partials, wd and wq hold the offset tables, each of shape
    (n-1, N-2, 5), written the same way: d[i, k-1] has partial
    wd[i, k-1, m] with respect to f_i[k+m-2], and q likewise with wq.
    Each is a view of an (n-1, 5, N-2) array, so wd[i, :, m] is
    contiguous.  The private `_tables`, a spent system's (wd, wq), are
    zeroed and rewritten in place of new tables.  The linearization is
    read from them in one place, `jacobian_writer`.
    """

    def __init__(self, n, s, f, partials=False, *, _tables=None):
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
        shape = (n - 1, s.size - 2)
        out = [np.empty(shape), np.empty(shape)]
        if partials:
            if _tables is None:     # slot-major memory behind node-major views
                _tables = tuple(np.zeros((n - 1, _WIDTH, s.size - 2)).transpose(0, 2, 1)
                                for _ in range(2))
            else:
                for table in _tables:
                    table.fill(0.0)
            self.wd, self.wq = _tables
            out += _tables
        # matched stencils beyond the parity window, nodes kz+1..N-2
        matched_ratios(h[:, self.kz:], self.delta, *(a[:, self.kz:] for a in out))
        if self.kz:
            zone_rows(h, self.delta, *(a[:, :self.kz] for a in out))
        if self.capped:
            self._theta_from_g(*out)
        self.d, self.q = out[:2]
        self.S = self.d.sum(axis=0)

    def _theta_from_g(self, d, q, wd=None, wq=None):
        """Map row 0 from the ratios of g = f_2/s to those of f_2, in place.

        d = 1/s + (Dg)/g and q = 2 (Dg)/(s g) + (D2g)/g; the table is chained
        back to the f_2 samples through dg[c]/df_2[c] = 1/s[c].  The rows of
        nodes 1 and 2, which read g[0] in slots 1 and 0, pick up its
        sensitivity on the slots of samples 1..3; the slot of sample 0 is
        left zero.  The tables are mapped one slot at a time through one
        scratch row, each entry by the operations of the whole-table
        expressions, in their order, so no table-sized temporary is made.
        """
        s = self.s
        sm = s[1:-1]
        q[0] = 2.0 * d[0] / sm + q[0]
        d[0] = 1.0 / sm + d[0]
        if wd is None:
            return
        inv_s = np.zeros(s.size + 2)    # 1/s at samples -1..N; g[0] is no
        inv_s[2:-1] = 1.0 / s[1:]       # sample of f_2: merged below
        wqg = np.empty(sm.size)
        ghosts = []
        for m in range(_WIDTH):
            wdg, wqm, inv_m = wd[0, :, m], wq[0, :, m], inv_s[m:m + sm.size]
            np.multiply(wdg, 2.0, out=wqg)      # 2 wd / s + wq
            wqg /= sm
            wqg += wqm
            ghosts += [(row, m, wdg[row], wqg[row]) for row in (0, 1) if row + m == 1]
            np.multiply(wqg, inv_m, out=wqm)
            wdg *= inv_m
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

        Returns write(i, j, m, nodes), which returns the derivative of E1_i
        at the interior nodes k with k-1 in the slice `nodes` by log f_j at
        sample k+m-2 (d f = f d log f), in a contiguous scratch row that the
        next call overwrites.  E1_i depends on component j through S, and
        for i = j also through q_j and d_j: the products are
        (2 d_i wd_j[m]) f_j off the diagonal and
        2 (wq_i[m] + wd_i[m] (S - d_i)) f_i on it, in that order, so an
        entry is the same double whatever slice it is written with.  2 d_i
        and S - d_i are formed for one i at a time, when a call names a new
        i.
        """
        d, S, wd, wq = self.d, self.S, self.wd, self.wq
        f_col = _windows(self.f)
        scratch, two_d, s_less_d = np.empty((3, d.shape[1]))
        own = None                      # the i of two_d and s_less_d

        def write(i, j, m, nodes):
            nonlocal own
            if i != own:
                np.multiply(2.0, d[i], out=two_d)
                np.subtract(S, d[i], out=s_less_d)
                own = i
            row = scratch[nodes]
            if i == j:
                np.multiply(wd[i, nodes, m], s_less_d[nodes], out=row)
                row += wq[i, nodes, m]
                row *= 2.0
            else:
                np.multiply(two_d[nodes], wd[j, nodes, m], out=row)
            row *= f_col[j, nodes, m]
            return row

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
            vals[i, j, m] = write(i, j, m, slice(None))
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
