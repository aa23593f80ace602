import itertools

import numpy as np
import pytest

from dehnfill._stencils import block_residual
from dehnfill.geometry import (DiagonalMetricProfile, RadialGrid,
                               TrivialVariation, black_hole_profile,
                               cusp_profile, r_plus, theta_period, v_profile)
from dehnfill.gluing import glue
from dehnfill.operators import (InvariantTensor, bh_kernel_variation,
                                einstein_residual, linearized_residual,
                                sqrtdet_sinh_check)
from dehnfill.solver import verify_einstein


def sym_e2(vals):
    """Independent elementary symmetric polynomial of degree 2."""
    return sum(a * b for a, b in itertools.combinations(vals, 2))


# -- einstein_residual ----------------------------------------------------------

def test_bh_residual_small_and_second_order():
    for n in (3, 4):
        errs = {}
        for nodes in (512, 1024, 2048):
            res = einstein_residual(black_hole_profile(n, 20.0, nodes))
            errs[nodes] = max(res.max_e1(), res.max_e2_relative())
        slope = np.log2(errs[512] / errs[2048]) / 2.0
        assert 1.8 < slope < 2.2
        assert errs[2048] < 1.6e-6


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_bh_residual_refines_by_four(n):
    # second order on the cap: each halving of ds divides E1 and the
    # relative E2 by four (truncation dominates from 512 to 2048 nodes)
    prev = None
    for nodes in (512, 1024, 2048):
        res = einstein_residual(black_hole_profile(n, 20.0, nodes))
        cur = np.array([res.max_e1(), res.max_e2_relative()])
        if prev is not None:
            assert np.all((prev / cur >= 3.9) & (prev / cur <= 4.1))
        prev = cur


def test_cusp_residual_roundoff():
    res = einstein_residual(cusp_profile(5, 0.3, 3.0, 700))
    assert res.max_e1() < 1e-9
    assert res.max_e2() < 1e-9


def test_scaled_cusp_constant_e2():
    # f_i = exp(1.1 s): chi_2 shifts by a constant, E1 stays proportional
    n = 5
    res = einstein_residual(cusp_profile(n, 0.3, 3.0, 700, rate=1.1))
    # oracle: chi_2(2*1.1 I) = 4 * 1.1^2 * e_2(1,...,1)
    expected = 4.0 * 1.1**2 * sym_e2([1.0] * (n - 1)) - 2.0 * (n - 1) * (n - 2)
    assert expected == pytest.approx((1.1**2 - 1.0) * 2 * (n - 1) * (n - 2))
    assert np.abs(res.e2 - expected).max() < 1e-8
    assert res.e2.std() < 1e-9        # constant along the end


def test_block_path_matches_diagonal_path():
    # a diagonal profile pushed through the full-block stencils gives the
    # same E2 and the diagonal of E1 up to the stencil family difference
    n = 4
    p = cusp_profile(n, 0.4, 2.4, 400, rate=1.05)
    res_d = einstein_residual(p)
    e1_b, e2_b = block_residual(n, p.s, p.torus_block())
    # both discretizations are second order; compare against each other
    diag_b = e1_b[:, np.arange(n - 1), np.arange(n - 1)].T
    assert np.abs(diag_b - res_d.e1).max() < 50 * p.spacing**2
    assert np.abs(e2_b - res_d.e2).max() < 50 * p.spacing**2


def test_residual_rejects_bad_input():
    p = cusp_profile(4, 0.3, 2.0, 128)
    q = p.copy()
    q.f[1, 50] = -1.0       # non-positive-definite torus block
    with pytest.raises(ValueError):
        einstein_residual(q)
    bad = p.copy()
    bad.s = np.concatenate([bad.s[:50], bad.s[51:]])
    bad.f = np.concatenate([bad.f[:, :50], bad.f[:, 51:]], axis=1)
    with pytest.raises(ValueError):
        einstein_residual(bad)      # grid no longer uniform


# -- linearized residual --------------------------------------------------------

def test_linearized_trivial_variation_cusp():
    n = 5
    p = cusp_profile(n, 0.3, 3.0, 600)
    k = n - 1
    u = np.diag([0.4, -0.3, -0.1, 0.0])
    dM = (p.r**2)[:, None, None] * u[None, :, :]
    dres = linearized_residual(p, dM)
    dlt = p.spacing
    assert np.abs(dres.e1).max() < 10 * dlt**2
    assert np.abs(dres.e2).max() < 10 * dlt**2


def test_linearized_kernel_element_bh():
    for n, diag in ((4, [1.0, 0.0]), (5, [0.7, -0.2, 0.4])):
        p = black_hole_profile(n, 25.0, 2048)
        u = TrivialVariation(np.diag(diag))
        dM = bh_kernel_variation(n, u, p)
        dres = linearized_residual(p, dM)
        dlt = p.spacing
        assert np.abs(dres.e1).max() < 10 * dlt**2
        assert np.abs(dres.e2).max() < 10 * dlt**2


def _divided_difference(profile, dM, t):
    def shifted(sign):
        M = profile.torus_block() + sign * t * dM
        f = np.sqrt(M[:, np.arange(profile.n - 1), np.arange(profile.n - 1)].T)
        q = DiagonalMetricProfile(profile.n, profile.s, f, profile.theta_period,
                                  r=profile.r)
        if profile.has_cap:
            q.f[0, 0] = 0.0
        return einstein_residual(q)
    rp = shifted(+1.0)
    rm = shifted(-1.0)
    return (rp.e1 - rm.e1) / (2 * t), (rp.e2 - rm.e2) / (2 * t)


def test_linearized_matches_divided_differences_diagonal_sector():
    n = 4
    p = cusp_profile(n, 0.4, 2.2, 300, rate=1.03)
    rng = np.random.Generator(np.random.Philox(3))
    k = n - 1
    diag = rng.standard_normal((p.s.size, k))
    dM = np.zeros((p.s.size, k, k))
    dM[:, np.arange(k), np.arange(k)] = diag * (p.f**2).T
    dres = linearized_residual(p, dM)
    errs = []
    for t in (2e-4, 1e-4, 5e-5):
        dd1, dd2 = _divided_difference(p, dM, t)
        errs.append(max(np.abs(dd1 - dres.e1[:, np.arange(k), np.arange(k)].T).max(),
                        np.abs(dd2 - dres.e2).max()))
    # Richardson slope of the consistency error in t
    slope = np.log(errs[0] / errs[2]) / np.log(4.0)
    assert slope > 1.9


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_linearized_matches_central_differences_glued_cap(n):
    # the capped end reaches every folded slot of the table: the parity
    # window, node 1's ghost, and the chain rule through g = f_2/s and g(0)
    p = glue(n, 10.0 + 2 * n, nodes=256)
    k = n - 1
    idx = np.arange(k)
    rng = np.random.Generator(np.random.Philox(n))
    dw = rng.standard_normal((k, p.s.size))     # the direction in log f
    dw[0, 0] = 0.0                              # f_2 vanishes at the cap
    dM = np.zeros((p.s.size, k, k))
    dM[:, idx, idx] = (2.0 * p.f**2 * dw).T
    lin = linearized_residual(p, dM)

    def residual(t):
        q = p.copy()
        q.f = p.f * np.exp(t * dw)
        return einstein_residual(q)

    t = 1e-6
    plus, minus = residual(t), residual(-t)
    de1 = lin.e1[:, idx, idx].T
    fd1 = (plus.e1 - minus.e1) / (2 * t)
    fd2 = (plus.e2 - minus.e2) / (2 * t)
    assert np.abs(fd1 - de1).max() <= 1e-6 * np.abs(de1).max()
    assert np.abs(fd2 - lin.e2).max() <= 1e-6 * np.abs(lin.e2).max()


def test_linearized_offdiagonal_sector():
    n = 4
    p = cusp_profile(n, 0.4, 2.2, 300, rate=1.02)
    k = n - 1
    off = np.zeros((k, k))
    off[0, 1] = off[1, 0] = 1.0
    dM = (p.r**2)[:, None, None] * off[None, :, :]
    dres = linearized_residual(p, dM)
    # parity: off-diagonal variations do not source E2 at diagonal metrics
    assert np.abs(dres.e2).max() < 1e-12

    def block_dd(t):
        M = p.torus_block()
        e1_p, _ = block_residual(n, p.s, M + t * dM)
        e1_m, _ = block_residual(n, p.s, M - t * dM)
        return (e1_p - e1_m) / (2 * t)

    errs = [np.abs(block_dd(t) - dres.e1).max() for t in (2e-3, 1e-3, 5e-4)]
    slope = np.log(errs[0] / errs[2]) / np.log(4.0)
    assert slope > 1.9


# -- divergence and gauge -------------------------------------------------------

def test_divergence_kernel_blowup_constant():
    n = 5
    rp = r_plus(n)
    eps = np.array([1e-4, 1e-5, 1e-6])
    r = rp + eps
    v = v_profile(n, r)[0]
    val = (1.0 / (v * r ** (n - 2))) * eps
    assert val[-1] == pytest.approx(1.0 / (2.0 * (n - 1)), rel=1e-4)

def test_gauge_invariance_divided_difference():
    # adding t * DIV* xi to the cap metric moves the residual only at O(t^2)
    n = 4
    nodes = 2048
    p = black_hole_profile(n, 10.0, nodes)
    rp = r_plus(n)
    r = p.r
    v, vp, _ = v_profile(n, np.maximum(r, rp * (1 + 1e-15)))
    s0, w = 1.9, 0.08
    bump = np.exp(-((r - s0) ** 2) / w) * np.clip(r - rp, 0.0, None) ** 2
    bump_p = np.exp(-((r - s0) ** 2) / w) * (
        2.0 * np.clip(r - rp, 0.0, None)
        - np.clip(r - rp, 0.0, None) ** 2 * 2.0 * (r - s0) / w)
    h11 = bump_p + vp / (2.0 * np.maximum(v, 1e-300)) * bump
    h11[0] = 0.0
    k = n - 1
    hij = np.zeros((r.size, k, k))
    hij[:, 0, 0] = 0.5 * v * vp * bump
    for i in range(1, k):
        hij[:, i, i] = r * v * bump

    def residual_of(t):
        f = np.empty_like(p.f)
        f[0] = np.sqrt(np.maximum(p.f[0] ** 2 + t * hij[:, 0, 0], 0.0))
        for i in range(1, k):
            f[i] = np.sqrt(p.f[i] ** 2 + t * hij[:, i, i])
        # the dr^2 part changes the arclength: resample via the perturbed grr
        grr = 1.0 / np.maximum(v, 1e-300) + t * h11
        grr[0] = np.inf
        sig = np.sqrt(2.0 * np.maximum(r - rp, 0.0))
        integ = sig * np.sqrt(np.where(np.isfinite(grr), grr, 0.0))
        integ[0] = np.sqrt(2.0 / ((n - 1) * rp))
        from scipy.integrate import cumulative_simpson
        from scipy.interpolate import CubicSpline
        s_new = cumulative_simpson(integ, x=sig, initial=0.0)
        su = np.linspace(0.0, s_new[-1], nodes)
        fu = np.empty_like(f)
        for i in range(k):
            fu[i] = CubicSpline(s_new, f[i])(su)
        fu[0, 0] = 0.0
        q = DiagonalMetricProfile(n, su, fu, p.theta_period)
        return einstein_residual(q)

    outs = []
    for t in (2e-3, 1e-3):
        res = residual_of(t)
        base = residual_of(0.0)
        outs.append(max(np.abs(res.e1 - base.e1).max(),
                        np.abs(res.e2 - base.e2).max()))
    # quadratic in t: halving t cuts the change by about 4
    assert outs[1] < 0.35 * outs[0]

# -- sinh law -------------------------------------------------------------------

def test_sqrtdet_sinh_bh():
    p = black_hole_profile(3, 20.0, 2048)
    A, rel = sqrtdet_sinh_check(p)
    assert A == pytest.approx(1.0, abs=1e-6)
    assert rel < 1e-6
    # the quoted point: at r = 2, sqrt(det M) = sqrt(2)*2 = sinh(2 s(2))
    s2 = np.arccosh(2.0 / np.sqrt(2.0))
    assert np.sqrt(2.0) * 2.0 == pytest.approx(np.sinh(2.0 * s2), rel=1e-12)
    assert np.sqrt(2.0) * 2.0 == pytest.approx(2.8284271, abs=5e-8)
    for n in (4, 5):
        A, rel = sqrtdet_sinh_check(black_hole_profile(n, 20.0, 2048))
        assert rel < 1e-6
        assert A == pytest.approx(1.0, abs=1e-6)


def test_sqrtdet_sinh_rejects_non_einstein():
    with pytest.raises(ValueError):
        sqrtdet_sinh_check(cusp_profile(4, 0.1, 2.0, 300, rate=1.2))

def test_cone_family_solves_system():
    # f2 = A sinh(s), f3 = B cosh(s) solves the n=3 system for any A, B
    # (the cone angle is a modulus): the residual is pure truncation, at the
    # same small scale regardless of the moduli
    s = np.linspace(0.0, 3.0, 700)
    dlt = s[1] - s[0]
    worst = []
    for A, B in ((np.sqrt(2.0), np.sqrt(2.0)), (1.7, 0.6)):
        f = np.vstack([A * np.sinh(s), B * np.cosh(s)])
        p = DiagonalMetricProfile(3, s, f, theta_period(3))
        res = einstein_residual(p)
        worst.append(max(res.max_e1(), res.max_e2()))
    assert max(worst) < 0.2 * dlt**2
    assert worst[1] == pytest.approx(worst[0], rel=0.05)


@pytest.mark.parametrize("nodes", [512, 1024])
def test_sinh_check_certifies_as_verify_einstein_does(nodes):
    # one certificate: the residual reads 3.5e-6 at 512 nodes, refused by
    # both, and 8.6e-7 at 1024, passed by both
    p = black_hole_profile(4, 20.0, nodes)
    passes = verify_einstein(p)["passes"]
    assert passes == (nodes == 1024)
    if passes:
        sqrtdet_sinh_check(p)
    else:
        with pytest.raises(ValueError, match="not Einstein"):
            sqrtdet_sinh_check(p)


def _open_profile_with_a_zero_torus_radius():
    """A profile without a cap whose f_3 vanishes at node 0."""
    p = cusp_profile(4, 0.5, 2.0, 128)
    p.f[1, 0] = 0.0
    return p


_GRID = RadialGrid(np.geomspace(1.5, 64.0, 100), 4)


@pytest.mark.parametrize("call, name", [
    (lambda: InvariantTensor(_GRID, np.zeros(99), None, None), "component arrays"),
    (lambda: InvariantTensor(_GRID, None, None, np.tile(np.triu(np.ones((3, 3))),
                                                        (100, 1, 1))), "torus block"),
    (lambda: einstein_residual(cusp_profile(4, 0.3, 2.0, 40)), "interior nodes"),
    (lambda: einstein_residual(_open_profile_with_a_zero_torus_radius()),
     "profile functions"),
    (lambda: linearized_residual(cusp_profile(4, 0.3, 2.0, 128), np.zeros((128, 2, 2))),
     "dM"),
    (lambda: bh_kernel_variation(4, TrivialVariation(np.eye(3)),
                                 black_hole_profile(4, 20.0, 64)), "u must act"),
], ids=["component shapes", "symmetric torus block", "nodes", "torus radius at node 0",
        "dM shape", "u shape"])
def test_operators_reject_bad_input_by_name(call, name):
    with pytest.raises(ValueError, match=name):
        call()
