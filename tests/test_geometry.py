import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from dehnfill.asymptotics import ugly_estimate_harness
from dehnfill.geometry import (ArclengthMap, DiagonalMetricProfile, RadialGrid,
                               TrivialVariation, _v_from_offset,
                               black_hole_profile, coordinate_curvature_oracle,
                               metric_gap, r_plus, radius_for_meridian,
                               sectional_curvatures, theta_period, v_profile)
from dehnfill.gluing import glue


def test_r_plus_values():
    assert r_plus(3) == pytest.approx(1.4142136, abs=5e-8)
    assert r_plus(4) == pytest.approx(1.2599210, abs=5e-8)
    assert 1.0 < r_plus(64) < 1.02
    for n in range(3, 12):
        v, _, _ = v_profile(n, r_plus(n))
        assert abs(v) < 1e-14 * max(1.0, r_plus(n) ** 2)


def test_r_plus_rejects_low_dimension():
    with pytest.raises(ValueError):
        r_plus(2)


def test_theta_period_values():
    assert theta_period(3) == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-15)
    assert theta_period(4) == pytest.approx(4 * np.pi / (3 * 2 ** (1 / 3)), rel=1e-15)
    for n in range(3, 20):
        assert theta_period(n) * (n - 1) * r_plus(n) == pytest.approx(
            4.0 * np.pi, rel=1e-14)


def test_v_profile_values():
    v, vp, vpp = v_profile(4, 2.0)
    assert (v, vp) == (3.0, 4.5)
    assert vpp == pytest.approx(1.5, rel=1e-15)
    # n = 3 : the subtracted term is constant, V'' = 2 everywhere
    for r in (1.5, 2.0, 7.0):
        assert v_profile(3, r)[2] == 2.0
    with pytest.raises(ValueError):
        v_profile(4, -1.0)


def test_sectional_curvature_values():
    assert sectional_curvatures(4, 2.0) == pytest.approx((-0.75, -1.125, -0.75))
    # n = 3: every existing plane (K12 and the two mixed ones) is hyperbolic
    for r in (1.5, 3.0, 10.0):
        k12, k1i, _ = sectional_curvatures(3, r)
        assert (k12, k1i) == pytest.approx((-1.0, -1.0))
    # Einstein contraction at the quoted point
    k12, k1i, _ = sectional_curvatures(4, 2.0)
    assert k12 + 2 * k1i == pytest.approx(-3.0, abs=1e-15)


def test_ricci_contraction_identities_exact():
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(20):
        n = int(rng.integers(3, 11))
        r = float(r_plus(n) + rng.uniform(0.01, 50.0))
        k12, k1i, kij = sectional_curvatures(n, r)
        assert k12 + (n - 2) * k1i == pytest.approx(-(n - 1), rel=1e-13)
        assert (n - 3) * kij + 2 * k1i == pytest.approx(-(n - 1), rel=1e-13)


def test_curvature_against_fd_oracle():
    # independent oracle: Christoffel/Riemann assembly by finite differences
    # in the smoothing chart sigma = sqrt(2 (r - r_plus))
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(12):
        n = int(rng.integers(3, 11))
        rp = r_plus(n)
        r0 = float(np.exp(rng.uniform(np.log(rp + 0.1), np.log(100.0))))
        sig0 = np.sqrt(2 * (r0 - rp))

        def metric_in_sigma(sig):
            r = rp + 0.5 * sig**2
            v = r**2 - 2.0 * r ** (3 - n)
            return np.array([sig**2 / v, v] + [r**2] * (n - 2))

        step = 1e-3 * max(1.0, sig0)
        K = coordinate_curvature_oracle(metric_in_sigma, n, sig0, step=step,
                                        richardson=True)
        k12, k1i, kij = sectional_curvatures(n, r0)
        tol = max(1e-8, 10 * step**2)
        assert abs(K[0, 1] - k12) < tol
        assert abs(K[0, 2] - k1i) < tol
        assert abs(K[1, 2] - k1i) < tol
        if n > 3:
            assert abs(K[2, 3] - kij) < tol


def test_oracle_reproduces_hyperbolic_space():
    # cusp model r^-2 dr^2 + r^2 dx^2: constant curvature -1
    n = 4
    K = coordinate_curvature_oracle(
        lambda r: np.array([r**-2.0, r**2, r**2, r**2]), n, 1.7, step=1e-4)
    off = K[~np.eye(n, dtype=bool)]
    assert np.allclose(off, -1.0, atol=1e-7)


def test_arclength_n3_closed_form():
    grid = RadialGrid(np.linspace(np.sqrt(2), 20.0, 64), 3)
    amap = ArclengthMap(3)
    s = amap.s_of_r(grid.nodes)
    # closed form: s = arccosh(r / sqrt(2))
    expected = np.arccosh(grid.nodes / np.sqrt(2.0))
    assert np.abs(s - expected).max() < 1e-11
    assert s[0] == pytest.approx(0.0, abs=1e-12)
    assert amap.s_of_r(2.0) == pytest.approx(0.8813735870195430, abs=1e-11)


def test_arclength_quadrature_cross_check():
    # adaptive quadrature oracle for n = 4
    n = 4
    rp = r_plus(n)
    amap = ArclengthMap(n)
    for r in (1.5, 3.0, 11.0):
        ref, err = quad(lambda t: 1.0 / np.sqrt(t**2 - 2.0 / t), rp, r,
                        epsabs=1e-13, epsrel=1e-12, points=[rp] if r < 2 else None)
        assert amap.s_of_r(r) == pytest.approx(ref, abs=5e-9)


def test_arclength_round_trip_and_monotone():
    # the map is closed form, with no outer range: far radii round-trip too
    for n in (3, 5):
        amap = ArclengthMap(n)
        r = np.geomspace(r_plus(n) + 1e-6, 1e30, 400)
        s = amap.s_of_r(r)
        assert np.all(np.diff(s) > 0)
        back = amap.r_of_s(s)
        assert np.abs(back - r)[r <= 30.0].max() < 1e-10
        assert np.all(np.abs(back - r) <= 1e-12 * r)
        with pytest.raises(ValueError, match="r >= r_plus"):
            amap.s_of_r(r_plus(n) * (1.0 - 1e-9))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_arclength_closed_form_matches_quadrature_in_sigma(n):
    # independent oracle: s = int_0^sigma sigma' / sqrt(V) dsigma' with
    # r = r_+ + sigma'^2 / 2, whose integrand is smooth through the cap
    rp = r_plus(n)
    amap = ArclengthMap(n)

    def integrand(sig):
        if sig == 0.0:
            return np.sqrt(2.0 / ((n - 1) * rp))
        return sig / np.sqrt(_v_from_offset(n, sig**2 / (2.0 * rp), rp))

    for r in (rp * (1.0 + 1e-6), 1.5 * rp, 3.0, 12.0, 100.0, 300.0):
        sig = np.sqrt(2.0 * (r - rp))
        ref, _ = quad(integrand, 0.0, sig, epsabs=1e-300, epsrel=1e-13, limit=200)
        s = amap.s_of_r(r)
        assert abs(s - ref) <= 1e-13 * ref
        x = (r - rp) / rp
        assert abs(amap.offset_of_s(s) - x) <= 1e-13 * x
    assert black_hole_profile(n, 300.0, 64).s[-1] == amap.s_of_r(300.0)


def test_radius_for_meridian():
    beta = theta_period(3)
    R = radius_for_meridian(3, 10.0)
    # n = 3 closed form: V = R^2 - 2
    assert R == pytest.approx(np.sqrt((10.0 / beta) ** 2 + 2.0), rel=1e-13)
    assert R == pytest.approx(2.6582060, abs=5e-7)
    for n, ell in ((4, 3.0), (5, 40.0), (6, 8.0)):
        R = radius_for_meridian(n, ell)
        target = (ell / theta_period(n)) ** 2
        v = v_profile(n, R)[0]
        assert abs(v - target) < 1e-12 * max(1.0, target)
    # ell -> 0 brings the cap radius to the root of V
    assert radius_for_meridian(4, 1e-8) == pytest.approx(r_plus(4), rel=1e-9)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_radius_for_meridian_is_the_float_root(n):
    rp, beta = r_plus(n), theta_period(n)
    ells = np.geomspace(1e-8, 1e3, 50)
    R = np.array([radius_for_meridian(n, ell) for ell in ells])
    # below ell ~ 1e-7 the root lies within an ulp or two of r_+
    assert np.all(np.diff(R) >= 0.0)
    assert np.all(np.diff(R[ells >= 1e-6]) > 0.0)
    for ell, r in zip(ells, R):
        t = (ell / beta) ** 2

        def gap(x):
            return float(_v_from_offset(n, (x - rp) / rp, rp)) - t

        ref = brentq(gap, rp, rp + ell / beta + 2.0, xtol=1e-15,
                     rtol=8.881784197001252e-16)
        assert abs(r - ref) <= 1e-14 * ref
        if n == 5:
            # V = R^2 - 2 R^-2 is a quadratic in R^2
            assert abs(r - np.sqrt(0.5 * (t + np.sqrt(t * t + 8.0)))) <= 1e-14 * r
        # the computed V crosses t between r and the neighbouring float on
        # the other side, and |V - t| is no larger at r than there; the far
        # neighbour is not compared, since V's rounding is not monotone
        # at the scale of one ulp of r
        other = np.nextafter(r, np.inf if gap(r) < 0.0 else 0.0)
        assert (gap(r) < 0.0) != (gap(other) < 0.0)
        assert abs(gap(r)) <= abs(gap(other))


@pytest.mark.parametrize("n, ell", [(3, np.nan), (4, np.inf), (3, 1e300),
                                   (3, 1.5e154 * theta_period(3)),
                                   (7, 1e60), (5, -1.0)])
def test_radius_for_meridian_rejects_out_of_range_lengths(n, ell):
    # (ell / beta)^2 overflows at 1e300 and, at n = 3, just above
    # ell / beta = 1.34e154, where V up to the bracket is still finite; at
    # n = 7 the evaluated V overflows (through r^6) long before it reaches
    # (1e60 / beta)^2, where bisection would have stopped at the overflow
    # edge instead of the root
    with pytest.raises(ValueError, match="ell"):
        radius_for_meridian(n, ell)


@pytest.mark.parametrize("n, ell", [(3, 1e150), (7, 1e45)])
def test_radius_for_meridian_long_lengths(n, ell):
    R = radius_for_meridian(n, ell)
    assert v_profile(n, R)[0] == pytest.approx((ell / theta_period(n)) ** 2, rel=1e-14)


def test_metric_gap_against_tensor_subtraction():
    # oracle: subtract the coordinate metrics and push into the cusp unit frame
    n, r = 4, 10.0
    v = r**2 - 2.0 / r
    gap_rr = (1.0 / v - r**-2.0) * r**2      # frame vector r d_r
    gap_tt = (v - r**2) / r**2               # frame vector d_theta / r
    c_rr, c_tt, norm = metric_gap(n, r)
    assert c_rr == pytest.approx(gap_rr, rel=1e-13)
    assert c_tt == pytest.approx(gap_tt, rel=1e-13)
    assert c_rr == pytest.approx(2.0040080160320641e-03, rel=1e-12)
    assert c_tt == pytest.approx(-2.0e-03, rel=1e-15)
    assert norm == pytest.approx(np.hypot(gap_rr, gap_tt), rel=1e-13)


def test_metric_gap_asymptotics():
    for n in (4, 5, 6):
        r = np.geomspace(10.0, 100.0, 40)
        _, _, norm = metric_gap(n, r)
        slope = np.polyfit(np.log(r), np.log(norm), 1)[0]
        assert slope == pytest.approx(-(n - 1), abs=0.05)
        ratio = norm / (2.0 * np.sqrt(2.0) * r ** (1 - n))
        assert abs(ratio[-1] - 1.0) < 1e-3
        # strictly decreasing beyond r_plus + 1
        assert np.all(np.diff(norm) < 0)
    with pytest.raises(ValueError):
        metric_gap(4, r_plus(4) + 0.5)


def test_black_hole_profile_sampling():
    p = black_hole_profile(4, 20.0, 256)
    assert p.has_cap
    assert p.f[0, 0] == 0.0
    assert np.all(p.f[:, 1:] > 0)
    assert p.r[0] == pytest.approx(r_plus(4), rel=1e-14)
    assert p.r[-1] == pytest.approx(20.0, rel=1e-8)
    # theta fiber matches sqrt(V) on the nose
    v = v_profile(4, p.r[1:])[0]
    assert np.abs(p.f[0, 1:] - np.sqrt(v)).max() < 1e-11


def test_radial_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(np.array([1.0, 2.0]), 4)
    with pytest.raises(ValueError):
        RadialGrid(np.array([1.0, 1.0, 2.0]), 4)
    with pytest.raises(ValueError, match="r_plus"):
        RadialGrid(np.array([1.0, 1.1, 1.2]), 4)


@pytest.mark.parametrize("call, name", [
    (lambda: sectional_curvatures(4, 1.0), "r >= r_plus"),
    (lambda: DiagonalMetricProfile(4, np.linspace(0, 1, 5), np.ones((2, 5)), 1.0), "f must"),
    (lambda: DiagonalMetricProfile(4, np.linspace(0, 1, 5), -np.ones((3, 5)), 1.0),
     "profile functions"),
    (lambda: TrivialVariation(np.array([[0.0, 1.0], [0.0, 0.0]])), "u must"),
    (lambda: TrivialVariation(np.zeros((2, 3))), "u must"),
    (lambda: black_hole_profile(4, 20.0, 7), "nodes"),
    (lambda: black_hole_profile(4, 1.0, 64), "r_max"),
], ids=["curvature r", "f shape", "f sign", "u symmetric", "u square", "nodes",
        "r_max"])
def test_geometry_rejects_bad_input_by_name(call, name):
    with pytest.raises(ValueError, match=re.escape(name)):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: ugly_estimate_harness(4, 16.0, 0.5, trials=2.5), "trials"),
    (lambda: glue(3, 10.0, nodes=2048.0), "nodes"),
    (lambda: black_hole_profile(3, 20.0, 100.0), "nodes"),
    (lambda: black_hole_profile(3, 20.0, True), "nodes"),
], ids=["trials", "glue nodes", "black_hole_profile nodes", "bool nodes"])
def test_a_count_that_is_not_an_integer_is_rejected_by_name(call, name):
    # one rule for every integer argument: an integer, not a bool, in range
    with pytest.raises(ValueError, match=rf"{name} must be an integer"):
        call()
