import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from dehnfill.asymptotics import (EulerODE, ResonanceError,
                                  cusp_block_exponents,
                                  cusp_kernel_classification,
                                  euler_particular_coefficient, indicial_roots,
                                  solve_euler_bvp, ugly_estimate_harness)


def quadratic_residual(ode, gamma):
    return gamma * (gamma - 1.0) + ode.a * gamma + ode.b


def test_indicial_roots_block_I():
    # closed form (1 - n +- sqrt(n^2 + 6n - 7)) / 2 for a = n, b = -2(n-1)
    for n, expect in ((3, (1.2360680, -3.2360680)),):
        roots = indicial_roots(EulerODE(float(n), -2.0 * (n - 1)))
        assert roots.gamma1 == pytest.approx(expect[0], abs=5e-8)
        assert roots.gamma2 == pytest.approx(expect[1], abs=5e-8)
    for n in range(3, 65):
        ode = EulerODE(float(n), -2.0 * (n - 1))
        roots = indicial_roots(ode)
        closed = 0.5 * (-n + 1 + np.sqrt(n**2 + 6 * n - 7))
        assert roots.gamma1 == pytest.approx(closed, rel=1e-12)
        assert abs(quadratic_residual(ode, roots.gamma1)) < 1e-12 * max(1, n)
        assert abs(quadratic_residual(ode, roots.gamma2)) < 1e-12 * max(1, n)
        assert roots.gamma1 > 0.1
        assert roots.gamma2 < -n + 1


def test_indicial_roots_block_II_and_simple():
    for n in range(3, 20):
        roots = indicial_roots(EulerODE(float(n), -float(n)))
        assert roots.gamma1 == pytest.approx(1.0, rel=1e-13)
        assert roots.gamma2 == pytest.approx(-float(n), rel=1e-13)
    roots = indicial_roots(EulerODE(2.0, -2.0))
    assert (roots.gamma1, roots.gamma2) == pytest.approx((1.0, -2.0))
    assert roots.gamma1 >= roots.gamma2


def test_indicial_roots_complex_regime():
    with pytest.raises(ValueError):
        indicial_roots(EulerODE(1.0, 25.0))


def test_particular_coefficient():
    ode = EulerODE(2.0, -2.0)
    c = euler_particular_coefficient(ode, 3.0)
    assert c == pytest.approx(0.1, rel=1e-14)
    # substitution oracle: r^2 (c r^3)'' + 2 r (c r^3)' - 2 c r^3 = r^3
    r = np.linspace(0.5, 2.0, 7)
    lhs = c * (6.0 * r**3) + 2.0 * c * 3.0 * r**3 - 2.0 * c * r**3
    assert np.allclose(lhs, r**3, rtol=1e-13)
    # n = 4 block-I with forcing r^(-n+1)
    n = 4
    c = euler_particular_coefficient(EulerODE(float(n), -2.0 * (n - 1)), -n + 1.0)
    assert c == pytest.approx(-1.0 / 6.0, rel=1e-14)
    with pytest.raises(ResonanceError):
        euler_particular_coefficient(ode, 1.0)


def test_particular_coefficient_identity():
    rng = np.random.Generator(np.random.Philox(21))
    for _ in range(30):
        a, b = rng.uniform(-4, 8), rng.uniform(-10, -0.5)
        ode = EulerODE(a, b)
        delta = rng.uniform(-5, 5)
        try:
            c = euler_particular_coefficient(ode, delta)
        except (ResonanceError, ValueError):
            continue
        assert c * (delta * (delta - 1) + a * delta + b) == pytest.approx(1.0, rel=1e-14)


def test_cusp_block_exponents():
    e3 = cusp_block_exponents(3)
    assert e3["I"] == pytest.approx((1.236068, -3.236068), abs=1e-6)
    assert e3["II"] == pytest.approx((1.0, -3.0))
    assert e3["III"] == pytest.approx((2.0, 0.0))
    e10 = cusp_block_exponents(10)
    assert e10["I"][0] == pytest.approx(0.5 * (-9 + np.sqrt(153)), rel=1e-12)
    assert e10["I"][0] == pytest.approx(1.6847, abs=2e-4)
    for n in range(3, 65):
        cusp_block_exponents(n)     # asserts the gap internally


def test_kernel_classification_dimensions():
    for n in range(3, 17):
        modes, dim = cusp_kernel_classification(n)
        assert dim == n * (n - 1) // 2 - 1
        assert modes["I"] == [] and modes["II"] == []
    assert cusp_kernel_classification(3)[1] == 2
    assert cusp_kernel_classification(4)[1] == 5
    # two-sided strict window kills the constant mode
    for n in (3, 5, 8):
        assert cusp_kernel_classification(n, strict=True)[1] == 0
    with pytest.raises(ValueError):
        cusp_kernel_classification(4, growth_floor=-0.1, growth_ceil=2.0)


def test_bvp_recovers_homogeneous_mode():
    ode = EulerODE(4.0, -6.0)
    roots = indicial_roots(ode)
    r = np.geomspace(0.5, 4.0, 800)
    exact = r**roots.gamma1
    f = solve_euler_bvp(ode, np.zeros_like(r), (exact[0], exact[-1]), r)
    dlt = np.diff(np.log(r)).max()
    assert np.abs(f - exact).max() < 10 * dlt**2 * np.abs(exact).max()


def test_bvp_recovers_particular_solution():
    ode = EulerODE(2.0, -2.0)
    r = np.geomspace(0.5, 2.0, 600)
    exact = 0.1 * r**3
    f = solve_euler_bvp(ode, r**3, (exact[0], exact[-1]), r)
    assert np.abs(f - exact).max() < 1e-5


def test_bvp_superposition():
    # forcing r^d1 + r^d2 with fitted homogeneous part
    ode = EulerODE(3.0, -4.0)
    roots = indicial_roots(ode)
    c1 = euler_particular_coefficient(ode, 2.5)
    c2 = euler_particular_coefficient(ode, -0.5)
    r = np.geomspace(0.6, 3.0, 1200)
    exact = (c1 * r**2.5 + c2 * r**-0.5
             + 0.3 * r**roots.gamma1 - 0.2 * r**roots.gamma2)
    f = solve_euler_bvp(ode, r**2.5 + r**-0.5, (exact[0], exact[-1]), r)
    assert np.abs(f - exact).max() < 1e-6 * np.abs(exact).max()


def test_harness_zero_data():
    assert ugly_estimate_harness(4, 16.0, 0.0, trials=3, seed=1,
                                 nodes=200) >= 0.0
    # zero forcing and zero boundary give exactly zero
    import dehnfill.asymptotics as asy
    r = np.geomspace(2.0, 16.0, 200)
    f = asy.solve_euler_bvp(EulerODE(4.0, -6.0), np.zeros_like(r), (0.0, 0.0), r)
    assert np.abs(f).max() == 0.0


def test_harness_deterministic_and_linear():
    c1 = ugly_estimate_harness(4, 16.0, 0.4, trials=8, seed=3, nodes=400)
    c1b = ugly_estimate_harness(4, 16.0, 0.4, trials=8, seed=3, nodes=400)
    assert c1 == c1b
    c2 = ugly_estimate_harness(4, 16.0, 0.4, trials=8, seed=4, nodes=400)
    assert c2 != c1
    assert 0.0 < c1 < 50.0


def test_harness_stability_quick():
    vals = [ugly_estimate_harness(4, R, 0.5, trials=10, seed=0, nodes=512)
            for R in (16.0, 32.0)]
    assert max(vals) / min(vals) < 2.0


def test_forcing_scales_linearly():
    # with zero boundary data the solved response is exactly linear in the
    # forcing amplitude, so doubling alpha doubles the forced part
    ode = EulerODE(4.0, -6.0)
    r = np.geomspace(2.0, 16.0, 400)
    phi = (r / 16.0) ** 0.1 + r ** (-0.1)
    h1 = solve_euler_bvp(ode, 0.3 * phi, (0.0, 0.0), r)
    h2 = solve_euler_bvp(ode, 0.6 * phi, (0.0, 0.0), r)
    assert np.abs(h2).max() == pytest.approx(2.0 * np.abs(h1).max(), rel=1e-12)


def _spy_on_dgtsv(monkeypatch):
    """Record the band and right-hand side of each dgtsv call; dgtsv sees the
    band only as three views of it."""
    import dehnfill.asymptotics as asy
    dgtsv, seen = asy.dgtsv, []

    def spy(dl, d, du, rhs):
        seen.append((d.base.copy(), rhs.copy()))
        return dgtsv(dl, d, du, rhs)

    monkeypatch.setattr(asy, "dgtsv", spy)
    return seen


@pytest.mark.parametrize("a, b, r", [
    (4.0, -6.0, np.geomspace(2.0, 16.0, 200)),
    (2.0, -2.0, np.geomspace(0.5, 2.0, 61)),
    (3.0, -4.0, np.sort(np.random.default_rng(5).uniform(0.6, 3.0, 300))),
    (-1.5, 0.75, 1.0 + np.linspace(0.0, 1.0, 97) ** 2),
])
def test_bvp_matches_solve_banded_bit_for_bit(monkeypatch, a, b, r):
    # the tridiagonal solve is the dgtsv call that solve_banded((1, 1), ...)
    # makes, so the two agree bit for bit on the band the solver built
    seen = _spy_on_dgtsv(monkeypatch)
    phi = np.sin(3.0 * r) + r**0.5
    f = solve_euler_bvp(EulerODE(a, b), phi, (0.3, -1.1), r)
    (ab, rhs), = seen
    assert ab.shape == (3, r.size)
    assert np.array_equal(f, solve_banded((1, 1), ab, rhs))


def test_bvp_rejects_nan_and_singular_systems(monkeypatch):
    # the errors solve_banded raised: ValueError for non-finite input,
    # LinAlgError for a singular band
    r = np.geomspace(0.5, 4.0, 50)
    phi = np.zeros_like(r)
    phi[7] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_euler_bvp(EulerODE(4.0, -6.0), phi, (0.0, 1.0), r)
    # on r = 1..5, a = -4 and b = 8 zero row 1 but for its entry in column
    # 0, so rows 0 and 1 are parallel
    seen = _spy_on_dgtsv(monkeypatch)
    r = np.arange(1.0, 6.0)
    with pytest.raises(LinAlgError):
        solve_euler_bvp(EulerODE(-4.0, 8.0), np.ones_like(r), (0.0, 1.0), r)
    (ab, rhs), = seen
    assert [ab[2, 0], ab[1, 1], ab[0, 2]] == [8.0, 0.0, 0.0]   # row 1
    with pytest.raises(LinAlgError):
        solve_banded((1, 1), ab, rhs)


def _harness_loop(n, R, alpha, trials, seed, nodes=1024):
    """ugly_estimate_harness one trial and one block at a time, each its own
    tridiagonal solve."""
    import dehnfill.asymptotics as asy
    rp = 2.0 ** (1.0 / (n - 1))
    r_inner = rp + 1.0
    r = np.exp(np.linspace(np.log(r_inner), np.log(R), nodes))
    blocks = [EulerODE(float(n), -2.0 * (n - 1)), EulerODE(float(n), -float(n)),
              EulerODE(float(n), 0.0)]
    envelope = (r / R) ** 0.1 + r ** (-0.1)
    denom_tail = r ** (-n + 1.1)
    worst = 0.0
    for stream in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.Generator(np.random.Philox(stream))
        c = rng.uniform(-1.0, 1.0, size=3)
        c /= max(1.0, np.abs(c[:2]).sum() + abs(c[2]))
        t = (np.log(r) - np.log(r_inner)) / (np.log(R) - np.log(r_inner))
        phi = alpha * (c[0] * (r / R) ** 0.1 + c[1] * r ** (-0.1)
                       + c[2] * asy._bump(t) * envelope)
        b_in, b_out = rng.uniform(-1.0, 1.0, size=2)
        for ode in blocks:
            h = solve_euler_bvp(ode, phi, (b_in, b_out), r)
            ratio = np.abs(h[1:-1]) / (abs(b_out) + alpha + denom_tail[1:-1])
            worst = max(worst, float(ratio.max()))
    return worst


@pytest.mark.parametrize("n, R, alpha, seed", [
    (3, 16.0, 0.5, 0), (4, 32.0, 0.5, 3), (4, 32.0, 0.0, 9), (5, 20.0, 0.9, 11),
    (7, 64.0, 0.3, 5)])
def test_harness_batch_matches_trial_loop(monkeypatch, n, R, alpha, seed):
    # the same draws in the same order and one solve per block with a
    # column per trial: each column's right-hand side and the fitted
    # constant are the loop's, bit for bit
    seen = _spy_on_dgtsv(monkeypatch)
    expected = _harness_loop(n, R, alpha, trials=50, seed=seed)
    singles = [rhs for _, rhs in seen]
    seen.clear()
    assert ugly_estimate_harness(n, R, alpha, trials=50, seed=seed) == expected
    assert len(seen) == 3
    for b, (_, rhs) in enumerate(seen):
        assert rhs.shape == (1024, 50)
        assert all(np.array_equal(rhs[:, m], singles[3 * m + b]) for m in range(50))


def test_bvp_columns_are_single_solves():
    r = np.geomspace(2.0, 16.0, 300)
    ode = EulerODE(4.0, -6.0)
    rng = np.random.default_rng(2)
    phi = rng.standard_normal((r.size, 7))
    ends = rng.uniform(-1.0, 1.0, (2, 7))
    f = solve_euler_bvp(ode, phi, (ends[0], ends[1]), r)
    assert f.shape == phi.shape
    for m in range(phi.shape[1]):
        single = solve_euler_bvp(ode, phi[:, m], (ends[0, m], ends[1, m]), r)
        assert np.array_equal(f[:, m], single)
    phi[5, 3] = np.inf
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_euler_bvp(ode, phi, (ends[0], ends[1]), r)


@pytest.mark.parametrize("R", [np.inf, np.nan, 1e300, 2.5])
def test_harness_rejects_out_of_range_radius(R):
    with pytest.raises(ValueError, match="R must exceed"):
        ugly_estimate_harness(4, R, 0.5, trials=2)


def test_bvp_rejects_a_right_hand_side_without_columns():
    # SciPy's dgtsv wrapper corrupts the heap on a right-hand side with no
    # columns, so the solve refuses before it reaches LAPACK
    r = np.geomspace(2.0, 16.0, 10)
    with pytest.raises(ValueError, match="no columns"):
        solve_euler_bvp(EulerODE(4.0, -6.0), np.zeros((r.size, 0)),
                        (np.zeros(0), np.zeros(0)), r)


@pytest.mark.parametrize("trials", [0, -1])
def test_harness_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match="trials"):
        ugly_estimate_harness(4, 16.0, 0.5, trials=trials)
