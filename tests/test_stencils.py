"""The one-pass DiagonalSystem against per-component stencil code.

The reference below evaluates each profile component on its own, as the
system did before its components were stacked: the matched 3-point
stencils on every interior node, overwritten on nodes 1..kz by the
parity window, and the collapsing fiber through g = f_2/s with its chain
rule and ghost fold applied to that component's table alone.  The stacked
pass must agree with it bit for bit.
"""

import numpy as np
import pytest

from dehnfill import _stencils
from dehnfill._stencils import (_G0_COEF, _W1, _W2, _Z_CLAMP, S_ZONE, _slot_sum,
                                _windows)
from dehnfill.geometry import _closed_cap, cusp_profile, theta_period, v_profile
from dehnfill.gluing import glue
from dehnfill.solver import SolverConfig, newton_solve


# the curvature corrections as plain expressions: the module forms them in
# place, term by term in this order
def _c1(z):
    return 1.0 + z / 6.0 + z * z / 120.0 + z**3 / 5040.0


def _c1p(z):
    return 1.0 / 6.0 + z / 60.0 + z * z / 1680.0


def _c2(z):
    return 1.0 + z / 12.0 + z * z / 360.0 + z**3 / 20160.0


def _c2p(z):
    return 1.0 / 12.0 + z / 180.0 + z * z / 6720.0


def _matched(h, delta, partials):
    a, b, c = h[2:], h[:-2], h[1:-1]
    z_raw = (a + b - 2.0 * c) / c
    z = np.clip(z_raw, -_Z_CLAMP, _Z_CLAMP)
    live = (z_raw > -_Z_CLAMP) & (z_raw < _Z_CLAMP)
    c1, c2 = _c1(z), _c2(z)
    q = z_raw / (delta * delta * c2)
    d = (a - b) / (2.0 * delta * c * c1)
    if not partials:
        return d, q
    c1r, c2r = _c1p(z) / c1, _c2p(z) / c2
    dz_a = np.where(live, 1.0 / c, 0.0)
    dz_c = np.where(live, -(z_raw + 2.0) / c, 0.0)
    inv = 1.0 / (delta * delta * c2)
    dq_a = inv * (1.0 / c) - q * c2r * dz_a
    dq_c = inv * (-(z_raw + 2.0) / c) - q * c2r * dz_c
    dd_a = 1.0 / (2.0 * delta * c * c1) - d * c1r * dz_a
    dd_b = -1.0 / (2.0 * delta * c * c1) - d * c1r * dz_a
    dd_c = -d / c - d * c1r * dz_c
    zero = np.zeros_like(d)
    return (d, q, np.stack([zero, dd_b, dd_c, dd_a, zero], axis=1),
            np.stack([zero, dq_a, dq_c, dq_a, zero], axis=1))


def _zone(h, delta, kmax):
    k = np.arange(1, kmax + 1)
    cols = np.abs(k[:, None] + np.arange(-2, 3))
    w1, w2 = np.tile(_W1, (kmax, 1)), np.tile(_W2, (kmax, 1))
    cols[0] = [1, 0, 2, 3, -1]
    w1[0] = [_W1[0] + _W1[2], _W1[1], _W1[3], _W1[4], 0.0]
    w2[0] = [_W2[0] + _W2[2], _W2[1], _W2[3], _W2[4], 0.0]
    h0, hc = h[1:kmax + 1], h[cols]
    d = _slot_sum(w1, hc) / (delta * h0)
    q = _slot_sum(w2, hc) / (delta * delta * h0)
    slots = [4, 1, 0, 2, 3]
    w1[0], w2[0] = w1[0, slots], w2[0, slots]
    wd = w1 / (delta * h0)[:, None]
    wq = w2 / (delta * delta * h0)[:, None]
    wd[:, 2] -= d / h0
    wq[:, 2] -= q / h0
    return d, q, wd, wq


def _plain(h, delta, kz, partials):
    d, q, *table = _matched(h, delta, partials)
    if kz > 0:
        dz, qz, *zone = _zone(h, delta, kz)
        d[:kz], q[:kz] = dz, qz
        for rows, z in zip(table, zone):
            rows[:kz] = z
    return d, q, table


def _theta(f2, s, delta, kz, partials):
    g = np.empty(f2.size)
    g[1:] = f2[1:] / s[1:]
    g[0] = _G0_COEF @ g[1:4]
    dg, qg, table = _plain(g, delta, kz, partials)
    sm = s[1:-1]
    d, q = 1.0 / sm + dg, 2.0 * dg / sm + qg
    if not partials:
        return d, q, []
    wdg, wqg = table
    wqg = 2.0 * wdg / sm[:, None] + wqg
    inv_s = np.zeros(f2.size)
    inv_s[1:] = 1.0 / s[1:]
    inv_s = _windows(inv_s)
    wd, wq = wdg * inv_s, wqg * inv_s
    w0 = _G0_COEF / s[1:4]
    for row, ghost in ((0, 1), (1, 0)):
        wd[row, ghost + 1:ghost + 4] += wdg[row, ghost] * w0
        wq[row, ghost + 1:ghost + 4] += wqg[row, ghost] * w0
    return d, q, [wd, wq]


def _per_component(n, s, f, partials):
    """(d, q, wd, wq) of the profile, one component at a time."""
    delta = float(s[1] - s[0])
    capped = _closed_cap(s, f)
    kz = int(np.clip(np.searchsorted(s, S_ZONE), 3, s.size - 3)) if capped else 0
    comps = [_theta(f[0], s, delta, kz, partials) if capped and i == 0
             else _plain(f[i], delta, kz, partials) for i in range(n - 1)]
    out = [np.vstack([c[0] for c in comps]), np.vstack([c[1] for c in comps])]
    if partials:
        out += [np.stack([c[2][t] for c in comps]) for t in range(2)]
    return out


def _profiles(n):
    ell = theta_period(n) * np.sqrt(v_profile(n, 8.0)[0])
    glued = glue(n, ell, nodes=512)
    solved, _ = newton_solve(glued, SolverConfig(max_iterations=2))
    # noise of up to a factor e^1.5 drives the curvature ratio past its clamp
    noisy = glued.copy()
    noisy.f[:, 1:] *= np.exp(np.random.default_rng(n).uniform(-1.5, 1.5, (n - 1, 511)))
    return {"glued": glued, "solved": solved, "noisy": noisy,
            "uncapped": cusp_profile(n, -1.0, 3.0, 300)}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_one_pass_system_matches_per_component_code(n):
    # with partials the system is also written into tables holding stale
    # values, which it zeroes first, as new ones are zero: no stencil writes
    # slots 0 and 4 of a matched row, so a NaN left there would show.  The
    # tables are slot-major, as a spent system hands them over: each slot
    # of a component is one contiguous row
    for name, p in _profiles(n).items():
        shape = (n - 1, 5, p.s.size - 2)
        for partials, stale in ((False, False), (True, False), (True, True)):
            tables = tuple(np.full(shape, np.nan).transpose(0, 2, 1)
                           for _ in range(2)) if stale else None
            sys = _stencils.DiagonalSystem(n, p.s, p.f, partials=partials, _tables=tables)
            ref = _per_component(n, p.s, p.f, partials)
            got = [sys.d, sys.q] + ([sys.wd, sys.wq] if partials else [])
            if stale:
                assert sys.wd is tables[0] and sys.wq is tables[1]
            if partials:
                assert sys.wd[-1, :, 4].flags.c_contiguous
                assert sys.wq[-1, :, 4].flags.c_contiguous
            for label, a, b in zip(("d", "q", "wd", "wq"), got, ref):
                assert a.shape == b.shape, (name, label)
                assert np.array_equal(a, b), (name, partials, stale, label)
            assert np.array_equal(sys.S, ref[0].sum(axis=0))

