import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dehnfill.geometry import (ArclengthMap, RadialGrid, r_plus,
                               radius_for_meridian, theta_period, v_profile)
from dehnfill.gluing import (_COLLAR_WIDTH, GluedEnd, WeightFunction, _bump01,
                             _bump01_value, _gradient, _GluedArclength,
                             _tensor_s_grid, _window_max,
                             double_star_decompose, double_star_norm, glue,
                             residual_decay_sweep, rho_cutoff,
                             unit_frame_components, weight, weighted_norms)
from dehnfill.operators import InvariantTensor, einstein_residual


def test_cutoff_basic_shape():
    r = np.array([3.0, 3.9999, 5.0, 5.5, 7.0])
    chi, chi1, chi2 = _bump01(5.0 - r)
    assert chi[0] == 1.0 and chi1[0] == 0.0 and chi2[0] == 0.0
    assert chi[1] == pytest.approx(1.0, abs=1e-12)
    assert chi[2] == 0.0 and chi[3] == 0.0 and chi[4] == 0.0
    # midpoint symmetry of the bump construction
    assert _bump01(5.0 - np.array([4.5]))[0][0] == pytest.approx(0.5, rel=1e-14)
    # monotone decreasing through the collar
    rr = np.linspace(4.0, 5.0, 200)
    vals = _bump01(5.0 - rr)[0]
    assert np.all(np.diff(vals) <= 1e-15)


def test_glue_profile_structure():
    n, ell = 3, 10.0
    p = glue(n, ell, nodes=512)
    R = radius_for_meridian(n, ell)
    assert p.cap_radius == pytest.approx(R, rel=1e-14)
    assert p.has_cap
    assert np.all(p.f[:, 1:] > 0)
    # pure cap metric below the collar, pure cusp metric above it
    v = v_profile(n, p.r[1:])[0]
    lo, hi = p.source.collar_r_range()
    inner = p.r[1:] < lo - 1e-9
    outer = p.r[1:] > hi
    assert np.abs(p.f[0, 1:][inner] - np.sqrt(v[inner])).max() < 1e-12
    assert np.abs(p.f[0, 1:][outer] - p.r[1:][outer]).max() < 1e-12
    assert np.abs(p.f[1] - p.r).max() < 1e-12


def test_glue_meridian_matches_boundary_torus():
    # the filled piece's boundary meridian: beta * sqrt(V(R)) = ell
    for n, ell in ((3, 10.0), (4, 30.0)):
        end = GluedEnd(n, ell)
        v = v_profile(n, end.R)[0]
        assert end.beta * np.sqrt(v) == pytest.approx(ell, abs=1e-10)


def test_glue_residual_supported_in_collar():
    n, ell = 3, 10.0
    end = GluedEnd(n, ell)
    lo, hi = end.collar_r_range()
    r_in = np.linspace(end.rp + 0.05, lo - 1e-9, 500)
    r_collar = np.linspace(lo, hi, 500)
    r_out = np.linspace(hi + 1e-9, end.r_out, 500)
    for r, should_vanish in ((r_in, True), (r_collar, False), (r_out, True)):
        e1t, e1x, e2 = end.normalized_residual(r)
        m = max(np.abs(e1t).max(), np.abs(e1x).max(), np.abs(e2).max())
        if should_vanish:
            assert m < 1e-11
        else:
            assert m > 1e-3


def test_glue_fd_residual_matches_analytic():
    n, ell = 4, 30.0
    p = glue(n, ell, nodes=4096)
    end = p.source
    res = einstein_residual(p)
    e1t, e1x, e2 = end.normalized_residual(res.r)
    dlt = p.spacing
    assert np.abs(res.e1[0] - e1t).max() < 200 * dlt**2
    assert np.abs(res.e2 - e2).max() < 200 * dlt**2
    # residual peak sits inside the collar on both paths
    k_fd = np.argmax(np.abs(res.e1).max(axis=0))
    lo, hi = end.collar_r_range()
    assert lo <= res.r[k_fd] <= hi


def test_glue_rejects_short_meridian():
    with pytest.raises(ValueError):
        glue(3, 1.0)


def test_weight_values():
    wf = WeightFunction(4, 100.0)
    assert weight(wf, 100.0) == pytest.approx(1.0 + 100.0 ** -0.1, rel=1e-14)
    assert weight(wf, 10.0) == pytest.approx(2.0 * 10.0 ** -0.1, rel=1e-14)
    assert weight(wf, 10.0) == pytest.approx(1.5886565, abs=5e-8)
    assert weight(wf, 150.0) == 1.0
    # the minimum sits at sqrt(R) and 1/W never exceeds 1
    r = np.linspace(r_plus(4), 150.0, 4000)
    w = weight(wf, r)
    assert np.all(1.0 / w <= 1.0 + 1e-12)      # 1/W in (0, 1], = 1 outside
    assert np.all(w[r > 100.0] == 1.0)
    on_end = r <= 100.0
    assert r[on_end][np.argmin(w[on_end])] == pytest.approx(10.0, abs=0.1)


def _random_tensor(n, r, seed, scale=1.0):
    rng = np.random.Generator(np.random.Philox(seed))
    grid = RadialGrid("r", r, n)
    k = n - 1
    blk = rng.standard_normal((r.size, k, k))
    hij = 0.5 * (blk + np.swapaxes(blk, 1, 2)) * (r**2)[:, None, None] * scale
    return InvariantTensor(grid, rng.standard_normal(r.size) / r**2 * scale,
                           rng.standard_normal((k, r.size)) * scale, hij)


def test_norms_zero_and_homogeneous():
    n, R = 4, 64.0
    r = np.geomspace(r_plus(n) * 1.01, R, 600)
    wf = WeightFunction(n, R)
    zero = InvariantTensor.zero(RadialGrid("r", r, n))
    sup, star, _ = weighted_norms(zero, wf)
    assert sup == 0.0 and star == 0.0
    h = _random_tensor(n, r, 12)
    s1, st1, _ = weighted_norms(h, wf, order=1)
    h3 = InvariantTensor(h.grid, 3.0 * h.h11, 3.0 * h.h1i, 3.0 * h.hij)
    s3, st3, _ = weighted_norms(h3, wf, order=1)
    assert s3 == pytest.approx(3.0 * s1, rel=1e-12)
    assert st3 == pytest.approx(3.0 * st1, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(size=st.integers(1, 3000), half=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_window_max_matches_slices(size, half, seed):
    # the sparse-table range max equals the max of each window's slice on
    # an irregular grid; monotone values expose a span that overruns either
    # end of its window, and a NaN must propagate
    rng = np.random.default_rng(seed)
    s = np.cumsum(rng.exponential(0.01, size))
    lo = np.searchsorted(s, s - half, side="left")
    hi = np.searchsorted(s, s + half, side="right")
    values = rng.standard_normal(size) ** 2
    with_nan = values.copy()
    with_nan[rng.integers(size)] = np.nan
    for v in (values, np.sort(values), np.sort(values)[::-1], with_nan):
        ref = np.array([v[a:b].max() for a, b in zip(lo, hi)])
        assert np.array_equal(_window_max(v, lo, hi), ref, equal_nan=True)


def test_norms_weight_placed_component():
    # a scalar W placed in one unit-frame component has star norm close to 1
    n, R = 4, 100.0
    r = np.geomspace(r_plus(n) * 1.01, R, 4000)
    wf = WeightFunction(n, R)
    grid = RadialGrid("r", r, n)
    h = InvariantTensor.zero(grid)
    h.hij[:, 1, 1] = weight(wf, r) * r**2     # unit-frame magnitude W
    sup, star, _ = weighted_norms(h, wf, order=0)
    # the sup over the seminorm window inflates by the weight's variation
    assert star == pytest.approx(1.0, rel=0.02)
    assert star >= 1.0
    _, star1, _ = weighted_norms(h, wf, order=1)
    assert 1.0 <= star1 < 1.2       # first derivatives inflate mildly


def test_double_star_recovers_carried_variation():
    n, R = 4, 100.0
    r = np.geomspace(r_plus(n) * 1.001, 4 * R, 6000)
    wf = WeightFunction(n, R)
    grid = RadialGrid("r", r, n)
    k = n - 1
    u0 = np.diag([0.6, -0.1, -0.5])
    s = np.log(r)
    s_b = float(np.interp(R, r, s))
    rho = rho_cutoff(s - s[0], s_b - s[0])
    h = InvariantTensor.zero(grid)
    h.hij = rho[:, None, None] * u0[None, :, :] * (r**2)[:, None, None]
    hbar, u, ck, _ = double_star_decompose(h, wf)
    assert np.abs(u.u - u0).max() < 1e-12
    assert np.abs(hbar.hij).max() < 1e-9 * (r.max() ** 2)
    # orthogonality of the residue at the center point
    h2 = _random_tensor(n, r, 44)
    hbar2, u2, ck2, _ = double_star_decompose(h2, wf)
    from dehnfill.gluing import unit_frame_components
    res_frame = unit_frame_components(hbar2, "cusp")[ck2, 1:, 1:]
    assert abs(np.tensordot(res_frame, u2.u)) < 1e-12 * max(1.0, np.abs(u2.u).max())


def test_double_star_zero_block():
    n, R = 4, 64.0
    r = np.geomspace(r_plus(n) * 1.01, R, 800)
    wf = WeightFunction(n, R)
    h = InvariantTensor.zero(RadialGrid("r", r, n))
    h.h11 = 1.0 / r**2
    _, u, _, _ = double_star_decompose(h, wf)
    assert np.abs(u.u).max() == 0.0


def test_double_star_never_exceeds_star():
    n, R = 4, 50.0
    r = np.geomspace(r_plus(n) * 1.01, 2 * R, 700)
    wf = WeightFunction(n, R)
    for seed in range(100):
        h = _random_tensor(n, r, 1000 + seed)
        rep = double_star_norm(h, wf, order=0)
        assert rep.double_star <= rep.star + 1e-14 * rep.star


def test_double_star_gap_ratio():
    # carried trivial variation: star sees W^-1(c_k) |u|, the corrected norm
    # pays |u| itself; the gap is R^0.05 / 2
    n, R = 4, 100.0
    r = np.geomspace(r_plus(n) * 1.001, 4 * R, 8000)
    wf = WeightFunction(n, R)
    grid = RadialGrid("r", r, n)
    u0 = np.diag([0.5, -0.25, -0.25])
    s = np.log(r)
    s_b = float(np.interp(R, r, s))
    rho = rho_cutoff(s - s[0], s_b - s[0])
    h = InvariantTensor.zero(grid)
    h.hij = rho[:, None, None] * u0[None, :, :] * (r**2)[:, None, None]
    rep = double_star_norm(h, wf, order=0)
    expected = R**0.05 / 2.0
    assert rep.star / rep.double_star_constructive == pytest.approx(
        expected, rel=0.1)


def test_sweep_slope_quick():
    table = residual_decay_sweep(3, radii=np.array([6.0, 12.0, 24.0]))
    assert table["slope"] == pytest.approx(-2.0, abs=0.2)
    assert np.all(np.diff(table["residual"]) < 0)


def test_weighted_norms_accepts_residual():
    p = glue(4, 30.0, nodes=1024)
    res = einstein_residual(p)
    wf = WeightFunction(4, p.cap_radius)
    sup, star, _ = weighted_norms(res, wf, order=0)
    assert 0 < star <= sup
    # the weighted value agrees with the closed-form sweep scale
    lo, hi = p.source.collar_r_range()
    e1t, _, _ = p.source.normalized_residual(np.linspace(lo, hi, 2000))
    assert sup == pytest.approx(np.abs(e1t).max(), rel=0.2)


def _count_arclength_builds(monkeypatch):
    builds = []
    init = ArclengthMap.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ArclengthMap, "__init__", counted)
    return builds


def test_tensor_s_grid_bh_n3_closed_form():
    r = np.linspace(np.sqrt(2.0), 20.0, 64)
    h = InvariantTensor.zero(RadialGrid("r", r, 3))
    s = _tensor_s_grid(h, "bh")
    assert np.abs(s - np.arccosh(r / np.sqrt(2.0))).max() < 1e-11


def test_double_star_norm_bh_builds_one_map(monkeypatch):
    n, R = 4, 64.0
    r = np.geomspace(r_plus(n) * 1.01, R, 800)
    wf = WeightFunction(n, R)
    h = _random_tensor(n, r, 7)
    # reference: the parts composed through the public functions
    sup, star, _ = weighted_norms(h, wf, 0, "bh")
    hbar, u, ck, _ = double_star_decompose(h, wf, "bh")
    _, star_bar, _ = weighted_norms(hbar, wf, 0, "bh")
    builds = _count_arclength_builds(monkeypatch)
    rep = double_star_norm(h, wf, order=0, background="bh")
    assert len(builds) == 1
    assert (rep.sup, rep.star, rep.c_k_index) == (sup, star, ck)
    assert rep.double_star_constructive == star_bar + u.size
    assert np.array_equal(rep.u, u.u)


def _reference_norms(h, wf, order, background, window=0.5):
    """weighted_norms the long way: an (N, n, n) frame built entry by entry,
    np.linalg.norm of it and of its np.gradient along the nodes, and a slice
    max per window."""
    r, n = h.grid.nodes, h.grid.n
    if background == "cusp":
        g11, diag = r**-2.0, np.tile(r**2, (n - 1, 1))
    else:
        v = v_profile(n, r)[0]
        g11, diag = 1.0 / v, np.vstack([v, np.tile(r**2, (n - 2, 1))])
    frame = np.empty((r.size, n, n))
    frame[:, 0, 0] = h.h11 / g11
    for i in range(n - 1):
        frame[:, 0, i + 1] = frame[:, i + 1, 0] = h.h1i[i] / np.sqrt(g11 * diag[i])
        for j in range(n - 1):
            frame[:, i + 1, j + 1] = h.hij[:, i, j] / np.sqrt(diag[i] * diag[j])
    s = _tensor_s_grid(h, background)
    mags = [np.linalg.norm(frame.reshape(r.size, -1), axis=1)]
    d = frame
    for _ in range(order):
        d = np.gradient(d, s, axis=0)
        mags.append(np.linalg.norm(d.reshape(r.size, -1), axis=1))
    point = np.max(mags, axis=0)
    lo = np.searchsorted(s, s - window / 2.0, side="left")
    hi = np.searchsorted(s, s + window / 2.0, side="right")
    local = np.array([point[a:b].max() for a, b in zip(lo, hi)])
    return frame, local.max(), (local / weight(wf, r)).max()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 6), order=st.integers(0, 2),
       background=st.sampled_from(["cusp", "bh"]), nodes=st.integers(100, 700),
       seed=st.integers(0, 2**32 - 1))
def test_double_star_norm_is_the_composition(n, order, background, nodes, seed):
    R = 64.0
    r = np.geomspace(r_plus(n) * 1.01, R, nodes)
    wf = WeightFunction(n, R)
    h = _random_tensor(n, r, seed)
    sup, star, _ = weighted_norms(h, wf, order, background)
    hbar, u, ck, _ = double_star_decompose(h, wf, background)
    _, star_bar, _ = weighted_norms(hbar, wf, order, background)
    rep = double_star_norm(h, wf, order, background)
    # hbar's frame is formed with the arithmetic of the coordinate round
    # trip, so the one-pass norm equals the composition at every order
    assert (rep.sup, rep.star, rep.c_k_index) == (sup, star, ck)
    assert rep.double_star_constructive == star_bar + u.size
    assert rep.double_star == min(star, star_bar + u.size)
    assert np.array_equal(rep.u, u.u)
    # the frame and the norms against the long way round; the norms sum the
    # squares in another order, the derivatives are np.gradient's own
    frame, ref_sup, ref_star = _reference_norms(h, wf, order, background)
    assert np.allclose(unit_frame_components(h, background), frame,
                       rtol=1e-15, atol=0.0)
    assert sup == pytest.approx(ref_sup, rel=1e-14, abs=0.0)
    assert star == pytest.approx(ref_star, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("s", [np.log(np.linspace(1.3, 64.0, 500)),
                               np.arange(40.0) * 3.0, np.array([0.0, 0.5])])
def test_gradient_is_numpys(s):
    # nonuniform and evenly spaced grids (np.gradient's two interior rules)
    f = np.random.default_rng(s.size).standard_normal((5, s.size))
    assert np.array_equal(_gradient(f, s), np.gradient(f, s, axis=1))


def test_unit_frame_components_is_a_node_major_view():
    n = 5
    r = np.geomspace(r_plus(n) * 1.01, 40.0, 300)
    frame = unit_frame_components(_random_tensor(n, r, 3))
    assert frame.shape == (r.size, n, n)
    # the component-major array underneath, nodes contiguous
    assert frame.base.shape == (n, n, r.size) and frame.base.flags.c_contiguous
    assert np.array_equal(frame, np.swapaxes(frame, 1, 2))


def test_double_star_norm_memory_peak():
    # the frame is built once, hbar's pass reads only its torus rows, and
    # one derivative is alive at a time: the traced peak of an order-2 call
    # is about 3.5 frames of (N, n, n) floats
    import tracemalloc
    n, R, N = 4, 64.0, 16384
    h = _random_tensor(n, np.linspace(r_plus(n) * 1.01, R, N), 0)
    wf = WeightFunction(n, R)
    double_star_norm(h, wf)
    tracemalloc.start()
    try:
        double_star_norm(h, wf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * N * n * n * 8


def test_bump_value_matches_bump01():
    t = np.concatenate([np.linspace(-2.0, 3.0, 2001),
                        [0.0, -0.0, 1e-300, 1e-3, 0.5, 1.0 - 1e-16, 1.0,
                         np.nextafter(1.0, 2.0), 1e300, -1e300, np.inf, -np.inf,
                         np.nan]])
    b = _bump01_value(t)
    with np.errstate(all="ignore"):     # psi'' at t = 1e-300 overflows
        assert np.array_equal(b, _bump01(t)[0], equal_nan=True)
        inside = (t > 0.0) & (t < 1.0)
        u, v = np.exp(-1.0 / t[inside]), np.exp(-1.0 / (1.0 - t[inside]))
    assert np.array_equal(b[inside], u / (u + v))
    assert np.all(b[t <= 0.0] == 0.0) and np.all(b[t >= 1.0] == 1.0)
    assert np.all(b[np.isnan(t)] == 0.0)
    # rho_cutoff reads the value alone
    s = np.linspace(0.0, 6.0, 1001)
    assert np.array_equal(rho_cutoff(s, 5.0),
                          np.where(s > 5.0, 0.0,
                                   _bump01(s - 1.0)[0] * _bump01(5.0 - s)[0]))


def test_glued_end_rejects_overflowing_radii():
    # the closed-form ratios square V ~ r^2, so r_out^4 must be a float
    with pytest.raises(ValueError, match="outer radius"):
        GluedEnd(3, 10.0, r_out_factor=1e300)
    with pytest.raises(ValueError, match="outer radius"):
        residual_decay_sweep(3, radii=np.array([8.0, 1e77, 32.0]))
    with pytest.raises(ValueError, match="radii R"):
        residual_decay_sweep(3, radii=np.array([8.0, np.nan, 32.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_rejects_radii_at_the_core_and_repeated_radii():
    # rejected before the square root of V < 0 and before a slope is fitted
    # to a single abscissa
    with pytest.raises(ValueError, match="exceed r_plus"):
        residual_decay_sweep(4, radii=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="exceed r_plus"):
        residual_decay_sweep(4, radii=np.array([r_plus(4), 8.0, 16.0]))
    with pytest.raises(ValueError, match="two distinct"):
        residual_decay_sweep(4, radii=np.array([8.0, 8.0, 8.0]))


def test_sweep_builds_one_map_per_radius(monkeypatch):
    builds = _count_arclength_builds(monkeypatch)
    radii = np.array([6.0, 12.0, 24.0])
    residual_decay_sweep(3, radii=radii, samples=500)
    assert len(builds) == radii.size


@pytest.mark.parametrize("n, ell", [(3, 10.0), (4, 20.0), (5, 20.0), (6, 12.0),
                                   (7, 12.0)])
def test_glued_arclength_matches_panel_refinement(n, ell):
    p = glue(n, ell, nodes=2048)
    end = p.source
    fine = _GluedArclength(end, panels=256, order=24)
    assert abs(end.amap.s_max - fine.s_max) <= 1e-14 * fine.s_max
    assert np.array_equal(p.s, np.linspace(0.0, end.amap.s_max, 2048))
    r_fine = end.rp * (1.0 + fine.offset_of_s(p.s))
    assert np.all(np.abs(p.r - r_fine) <= 1e-14 * r_fine)


@pytest.mark.parametrize("n, ell", [(3, 10.0), (5, 20.0), (7, 12.0)])
def test_glued_s_max_matches_quadrature_in_r(n, ell):
    # independent of the cap-arclength variable: the collar's
    # int sqrt(chi / V + (1 - chi) / r^2) dr taken by adaptive quadrature
    end = GluedEnd(n, ell)
    lo, hi = end.collar_r_range()

    def integrand(r):
        chi = end.chi(r)[0]
        return np.sqrt(chi / v_profile(n, r)[0] + (1.0 - chi) / r**2)

    collar, _ = quad(integrand, lo, hi, epsabs=1e-300, epsrel=1e-13, limit=200)
    ref = end.s_R - _COLLAR_WIDTH + collar + np.log(end.r_out / end.R)
    assert end.amap.s_max == pytest.approx(ref, rel=1e-13)


def test_collar_r_range_reads_cap_map_only():
    end = GluedEnd(4, 20.0)
    lo, hi = end.collar_r_range()
    assert hi == end.R and lo < hi
    assert float(end.cap_map.s_of_r(lo)) == pytest.approx(
        end.s_R - _COLLAR_WIDTH, abs=1e-9)
    assert "amap" not in vars(end)
