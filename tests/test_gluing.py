import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dehnfill import gluing
from dehnfill.geometry import (ArclengthMap, RadialGrid, r_plus,
                               radius_for_meridian, theta_period, v_profile)
from dehnfill.gluing import (_COLLAR_WIDTH, GluedEnd, WeightFunction, _bump01,
                             _GAUSS_LEGENDRE_16, _bump01_value, _gradient,
                             _gradient_weights, _GluedArclength,
                             _least_over_windows,
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
    end = GluedEnd(n, ell)
    R = radius_for_meridian(n, ell)
    assert p.cap_radius == pytest.approx(R, rel=1e-14)
    assert p.has_cap
    assert np.all(p.f[:, 1:] > 0)
    # pure cap metric below the collar, pure cusp metric above it
    v = v_profile(n, p.r[1:])[0]
    lo, hi = end.collar_r_range()
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
    end = GluedEnd(n, ell)
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
    grid = RadialGrid(r, n)
    k = n - 1
    blk = rng.standard_normal((r.size, k, k))
    hij = 0.5 * (blk + np.swapaxes(blk, 1, 2)) * (r**2)[:, None, None] * scale
    return InvariantTensor(grid, rng.standard_normal(r.size) / r**2 * scale,
                           rng.standard_normal((k, r.size)) * scale, hij)


def test_norms_zero_and_homogeneous():
    n, R = 4, 64.0
    r = np.geomspace(r_plus(n) * 1.01, R, 600)
    wf = WeightFunction(n, R)
    zero = InvariantTensor.zero(RadialGrid(r, n))
    sup, star = weighted_norms(zero, wf)
    assert sup == 0.0 and star == 0.0
    h = _random_tensor(n, r, 12)
    s1, st1 = weighted_norms(h, wf, order=1)
    h3 = InvariantTensor(h.grid, 3.0 * h.h11, 3.0 * h.h1i, 3.0 * h.hij)
    s3, st3 = weighted_norms(h3, wf, order=1)
    assert s3 == pytest.approx(3.0 * s1, rel=1e-12)
    assert st3 == pytest.approx(3.0 * st1, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(size=st.integers(1, 3000), half=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_least_over_windows_matches_brute_force(size, half, seed):
    # the sparse-table range min equals, per node, the least w over the
    # windows holding it on an irregular grid; monotone weights expose a
    # span that overruns either end of its range, and a NaN must propagate
    rng = np.random.default_rng(seed)
    s = np.cumsum(rng.exponential(0.01, size))
    lo = np.searchsorted(s, s - half, side="left")
    hi = np.searchsorted(s, s + half, side="right")
    weights = np.exp(rng.standard_normal(size))
    with_nan = weights.copy()
    with_nan[rng.integers(size)] = np.nan
    for w in (weights, np.sort(weights), np.sort(weights)[::-1], with_nan):
        ref = [w[(lo <= j) & (hi > j)].min() for j in range(size)]
        assert np.array_equal(_least_over_windows(w, lo, hi), ref, equal_nan=True)


@settings(max_examples=30, deadline=None)
@given(size=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
def test_least_weight_per_node_gives_the_windowed_norms(size, seed):
    # max_j v_j / Wmin_j, Wmin_j the least W over the windows holding node j,
    # is the windowed star max_k (max of v over window k) / W_k bit for bit,
    # and max_j v_j the windowed sup.  The grid steps by multiples of 2^-17,
    # so a half-width read off two nodes puts each on the other's window
    # edge exactly; a NaN must propagate
    rng = np.random.default_rng(seed)
    s = np.cumsum(rng.integers(1, 2**10, size)) * 2.0**-17
    a = int(rng.integers(size))
    b = min(size - 1, a + int(rng.integers(500)))
    half = s[b] - s[a]
    lo = np.searchsorted(s, s - half, side="left")
    hi = np.searchsorted(s, s + half, side="right")
    assert hi[a] == b + 1 and lo[b] == a
    w = np.exp(rng.standard_normal(size))
    wmin = _least_over_windows(w, lo, hi)
    assert np.array_equal(wmin, [w[(lo <= j) & (hi > j)].min() for j in range(size)])
    values = rng.standard_normal(size) ** 2
    with_nan = values.copy()
    with_nan[rng.integers(size)] = np.nan
    for v in (values, np.sort(values), np.sort(values)[::-1], with_nan):
        local = np.array([v[a:b].max() for a, b in zip(lo, hi)])
        assert np.array_equal(v.max(), local.max(), equal_nan=True)
        assert np.array_equal((v / wmin).max(), (local / w).max(), equal_nan=True)


def test_norms_weight_placed_component():
    # a scalar W placed in one unit-frame component has star norm close to 1
    n, R = 4, 100.0
    r = np.geomspace(r_plus(n) * 1.01, R, 4000)
    wf = WeightFunction(n, R)
    grid = RadialGrid(r, n)
    h = InvariantTensor.zero(grid)
    h.hij[:, 1, 1] = weight(wf, r) * r**2     # unit-frame magnitude W
    sup, star = weighted_norms(h, wf, order=0)
    # the sup over the seminorm window inflates by the weight's variation
    assert star == pytest.approx(1.0, rel=0.02)
    assert star >= 1.0
    _, star1 = weighted_norms(h, wf, order=1)
    assert 1.0 <= star1 < 1.2       # first derivatives inflate mildly


def test_double_star_recovers_carried_variation():
    n, R = 4, 100.0
    r = np.geomspace(r_plus(n) * 1.001, 4 * R, 6000)
    wf = WeightFunction(n, R)
    grid = RadialGrid(r, n)
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
    res_frame = unit_frame_components(hbar2)[ck2, 1:, 1:]
    assert abs(np.tensordot(res_frame, u2.u)) < 1e-12 * max(1.0, np.abs(u2.u).max())


def test_double_star_zero_block():
    n, R = 4, 64.0
    r = np.geomspace(r_plus(n) * 1.01, R, 800)
    wf = WeightFunction(n, R)
    h = InvariantTensor.zero(RadialGrid(r, n))
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
    grid = RadialGrid(r, n)
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


def test_sampled_glued_residual_matches_closed_form():
    # the stencil residual of the sampled glued profile has the size of the
    # closed-form residual on the collar
    p = glue(4, 30.0, nodes=1024)
    end = GluedEnd(4, 30.0)
    res = einstein_residual(p)
    lo, hi = end.collar_r_range()
    e1t, _, _ = end.normalized_residual(np.linspace(lo, hi, 2000))
    assert res.max_e1() == pytest.approx(np.abs(e1t).max(), rel=0.2)


def _count_calls(monkeypatch, owner, name):
    """The argument tuples of every call of owner.name, from now on."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _reference_norms(h, wf, order, window=0.5):
    """weighted_norms the long way: an (N, n, n) frame built entry by entry,
    np.linalg.norm of it and of its np.gradient along the nodes, and a slice
    max per window."""
    r, n = h.grid.nodes, h.grid.n
    g11, diag = r**-2.0, np.tile(r**2, (n - 1, 1))
    frame = np.empty((r.size, n, n))
    frame[:, 0, 0] = h.h11 / g11
    for i in range(n - 1):
        frame[:, 0, i + 1] = frame[:, i + 1, 0] = h.h1i[i] / np.sqrt(g11 * diag[i])
        for j in range(n - 1):
            frame[:, i + 1, j + 1] = h.hij[:, i, j] / np.sqrt(diag[i] * diag[j])
    s = np.log(r)
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
@given(n=st.integers(3, 6), nodes=st.integers(100, 700),
       seed=st.integers(0, 2**32 - 1))
def test_double_star_norm_is_the_composition(n, nodes, seed):
    R = 64.0
    r = np.geomspace(r_plus(n) * 1.01, R, nodes)
    wf = WeightFunction(n, R)
    h = _random_tensor(n, r, seed)
    for order in range(3):
        sup, star = weighted_norms(h, wf, order)
        hbar, u, ck, _ = double_star_decompose(h, wf)
        _, star_bar = weighted_norms(hbar, wf, order)
        rep = double_star_norm(h, wf, order)
        # hbar's frame is formed with the arithmetic of the coordinate round
        # trip, so the one-pass norm equals the composition at every order
        assert (rep.sup, rep.star, rep.c_k_index) == (sup, star, ck)
        assert rep.double_star_constructive == star_bar + u.size
        assert rep.double_star == min(star, star_bar + u.size)
        assert np.array_equal(rep.u, u.u)
        # the frame and the norms against the long way round; the norms sum
        # the squares in another order, the derivatives are np.gradient's own
        frame, ref_sup, ref_star = _reference_norms(h, wf, order)
        assert np.allclose(unit_frame_components(h), frame,
                           rtol=1e-15, atol=0.0)
        assert sup == pytest.approx(ref_sup, rel=1e-14, abs=0.0)
        assert star == pytest.approx(ref_star, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("spacing", [np.linspace, np.geomspace])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_diagonal_entry_matches_double_star_exactly(n, spacing):
    # the solver's entry point reads the k torus diagonal rows alone; the
    # components it skips are exact zeros, so every field of its report
    # equals double_star's on the full tensor, bit for bit
    R, k = 64.0, n - 1
    r = spacing(r_plus(n) * 1.01, R, 700)
    rng = np.random.Generator(np.random.Philox(n))
    diag = rng.standard_normal((k, r.size)) * r**2     # negative entries too
    diag[k // 2] = 0.0                                  # one zero component
    hij = np.zeros((r.size, k, k))
    hij[:, np.arange(k), np.arange(k)] = diag.T
    h = InvariantTensor(RadialGrid(r, n), None, None, hij)
    wf = WeightFunction(n, R)
    for order in range(3):
        plan = gluing._NormPlan(h.grid, wf, order)
        got, ref = plan.double_star_diagonal(diag), double_star_norm(h, wf, order)
        assert got.sup == ref.sup and got.star == ref.star
        assert got.double_star == ref.double_star
        assert got.double_star_constructive == ref.double_star_constructive
        assert got.u.shape == ref.u.shape and (got.u == ref.u).all()
        assert got.c_k_index == ref.c_k_index
        assert ref.star > 0.0 and (ref.u != 0.0).any()


@pytest.mark.parametrize("s", [np.log(np.linspace(1.3, 64.0, 500)),
                               np.arange(40.0) * 3.0, np.array([0.0, 0.5])])
def test_gradient_is_numpys(s):
    # nonuniform and evenly spaced grids (np.gradient's two interior rules),
    # on one row and on a stack of rows, from the weights computed once
    f = np.random.default_rng(s.size).standard_normal((5, s.size))
    weights = _gradient_weights(s)
    assert np.array_equal(_gradient(f, weights), np.gradient(f, s, axis=-1))
    assert np.array_equal(_gradient(f[2], weights), np.gradient(f[2], s))


def _reference_squares(frame, n_diag, s, order):
    """_squares the whole-array way: every frame row and derivative at once,
    squared, the off-diagonal rows doubled, summed with .sum(axis=0)."""
    out = np.empty((order + 1, frame.shape[1]))
    g = frame
    for p in range(order + 1):
        if p:
            g = np.gradient(g, s, axis=-1)
        sq = g * g
        sq[n_diag:] *= 2.0
        sq.sum(axis=0, out=out[p])
    return out


@pytest.mark.parametrize("even", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_streamed_squares_equal_the_whole_array_formula(m, even):
    # one row and one derivative at a time, added in row order, equals the
    # stacked squares summed over rows, bit for bit, for h's torus rows and
    # hbar's, at every order, a NaN entry included.  The even grid's log r
    # steps by 2^-8 within [2, 4), where log(exp(s)) gives s back exactly
    n, R, N = 4, 64.0, 400
    r = (np.exp(2.0 + np.arange(N) / 256.0) if even
         else np.geomspace(r_plus(n) * 1.01, R, N))
    wf = WeightFunction(n, R)
    rng = np.random.default_rng(m)
    rows = rng.standard_normal((m, N)) * r**2
    rows[m - 1, N // 3] = np.nan
    u = rng.standard_normal((n - 1, n - 1))
    i, j = (p[:m] for p in gluing._torus_pairs(n - 1))
    s = np.log(r)
    for order in range(3):
        plan = gluing._NormPlan(RadialGrid(r, n), wf, order)
        if order:
            assert (np.ndim(plan.weights[0]) == 0) == even
        else:           # an order-0 plan takes no derivative
            assert plan.weights is None
        ref = _reference_squares(rows / r**2, n - 1, s, order)
        assert np.array_equal(plan._torus_squares(rows), ref, equal_nan=True)
        hbar = (rows - plan.rho * u[i, j, None] * r**2) / r**2
        ref_bar = _reference_squares(hbar, n - 1, s, order)
        assert np.array_equal(plan._torus_squares(rows, u[i, j]), ref_bar,
                              equal_nan=True)
        # the NaN reaches every derivative order, and not the far end
        assert np.isnan(ref).any(axis=1).all() and not np.isnan(ref[:, 0]).any()


@pytest.mark.parametrize("order", [-1, -5, True, 1.0, 3])
def test_order_outside_0_to_2_is_rejected(order):
    n, R = 4, 64.0
    r = np.geomspace(r_plus(n) * 1.01, R, 200)
    h, wf = _random_tensor(n, r, 0), WeightFunction(n, R)
    for call in (lambda: weighted_norms(h, wf, order),
                 lambda: double_star_norm(h, wf, order),
                 lambda: gluing._NormPlan(h.grid, wf, order)):
        with pytest.raises(ValueError, match="order"):
            call()


def test_unit_frame_components_is_a_node_major_view():
    n = 5
    r = np.geomspace(r_plus(n) * 1.01, 40.0, 300)
    frame = unit_frame_components(_random_tensor(n, r, 3))
    assert frame.shape == (r.size, n, n)
    # the component-major array underneath, nodes contiguous
    assert frame.base.shape == (n, n, r.size) and frame.base.flags.c_contiguous
    assert np.array_equal(frame, np.swapaxes(frame, 1, 2))


def test_double_star_norm_memory_peak():
    # no frame is built, hbar's pass reads only its torus rows, and one row
    # and one derivative are alive at a time: the traced peak of an order-2
    # call stays below 2 frames of (N, n, n) floats (1.50 measured)
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
    assert peak <= 2.0 * N * n * n * 8


def test_bump_value_matches_bump01():
    t = np.concatenate([np.linspace(-2.0, 3.0, 2001),
                        [0.0, -0.0, 1e-300, 1e-3, 0.5, 1.0 - 1e-16, 1.0,
                         np.nextafter(1.0, 2.0), 1e300, -1e300, np.inf, -np.inf,
                         np.nan]])
    b = _bump01_value(t)
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


def test_bump01_derivatives_equal_the_whole_array_formula():
    # the derivatives are formed only where psi(x) > 0 and x < 1, each
    # sample by the operations the formula applies to the whole array, with
    # the same powers: the same doubles, and 0 elsewhere
    t = np.concatenate([np.linspace(-1.0, 2.0, 30001), 2.0 ** -np.arange(60.0),
                        1.0 - 2.0 ** -np.arange(1.0, 54.0),
                        [1e-300, 1.0 / 745.0, 1.0 / 744.0, np.inf, -np.inf, np.nan]])
    x, u, v = gluing._psi_pair(t)
    y, s = 1.0 - x, u + v
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        up, upp = u / x**2, u * (1.0 / x**4 - 2.0 / x**3)
        vp, vpp = -(v / y**2), v * (1.0 / y**4 - 2.0 / y**3)
        b1 = (up * v - u * vp) / s**2
        b2 = (upp * v - u * vpp) / s**2 - 2.0 * (up * v - u * vp) * (up + vp) / s**3
    live = (u > 0.0) & (x < 1.0)
    _, got1, got2 = _bump01(t)
    assert got1.tobytes() == np.where(live, b1, 0.0).tobytes()
    assert got2.tobytes() == np.where(live, b2, 0.0).tobytes()
    assert live.sum() > 10000 and (got1[live] != 0.0).any()


def test_bump01_vanishes_where_psi_underflows():
    # below t ~ 1/745 psi(t) = exp(-1/t) is 0 in double, and so are B and
    # both derivatives, with no warning even where t^2 or t^4 underflows;
    # pytest raises RuntimeWarning as an error
    t = np.array([5e-324, 1e-300, 1e-160, 1e-100, 1e-78])
    for b in _bump01(t):
        assert np.array_equal(b, np.zeros_like(t))


def test_glued_end_rejects_overflowing_radii():
    # the closed-form ratios square V ~ r^2, so r_out^4 must be a float
    with pytest.raises(ValueError, match="outer radius"):
        GluedEnd(3, 10.0, r_out_factor=1e300)
    with pytest.raises(ValueError, match="outer radius"):
        residual_decay_sweep(3, radii=np.array([8.0, 1e77, 32.0]))
    with pytest.raises(ValueError, match="radii R"):
        residual_decay_sweep(3, radii=np.array([8.0, np.nan, 32.0]))


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
    builds = _count_calls(monkeypatch, ArclengthMap, "__init__")
    radii = np.array([6.0, 12.0, 24.0])
    residual_decay_sweep(3, radii=radii)
    assert len(builds) == radii.size


def test_glued_end_evaluates_each_sample_once(monkeypatch):
    # the residual takes V once for the ratios and the cutoff's derivatives;
    # the sampled profile reads the cutoff's value alone
    end = GluedEnd(4, 20.0)
    v_calls = _count_calls(monkeypatch, gluing, "v_profile")
    bump_calls = _count_calls(monkeypatch, gluing, "_bump01")
    end.normalized_residual(np.linspace(end.rp * 1.01, end.r_out, 500))
    assert len(v_calls) == 1 and len(bump_calls) == 1
    del bump_calls[:]
    end.to_profile(512)
    assert not bump_calls


@pytest.mark.parametrize("n, ell", [(3, 10.0), (4, 20.0), (5, 20.0), (6, 12.0),
                                   (7, 12.0)])
def test_glued_arclength_matches_panel_refinement(n, ell):
    p = glue(n, ell, nodes=2048)
    end = GluedEnd(n, ell)
    fine = _GluedArclength(end, panels=256,
                           rule=np.polynomial.legendre.leggauss(24))
    assert abs(end.amap.s_max - fine.s_max) <= 1e-14 * fine.s_max
    assert np.array_equal(p.s, np.linspace(0.0, end.amap.s_max, 2048))
    r_fine = end.rp * (1.0 + fine.offset_of_s(p.s))
    assert np.all(np.abs(p.r - r_fine) <= 1e-14 * r_fine)


def test_held_rule_is_numpys_16_point_gauss_legendre():
    for held, computed in zip(_GAUSS_LEGENDRE_16, np.polynomial.legendre.leggauss(16)):
        np.testing.assert_array_max_ulp(held, computed, maxulp=1)


@pytest.mark.parametrize("n, ell", [(3, 10.0), (5, 20.0), (7, 12.0)])
def test_glued_s_max_matches_quadrature_in_r(n, ell):
    # independent of the cap-arclength variable: the collar's
    # int sqrt(chi / V + (1 - chi) / r^2) dr taken by adaptive quadrature
    end = GluedEnd(n, ell)
    lo, hi = end.collar_r_range()

    def integrand(r):
        chi = end.chi(r)
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


@pytest.mark.parametrize("call, name", [
    (lambda: GluedEnd(3, 10.0, r_out_factor=1.0), "outer factor"),
    (lambda: glue(3, 10.0, nodes=65), "nodes"),
    (lambda: WeightFunction(4, 1.0), "R_k"),
    (lambda: residual_decay_sweep(3, [6.0, 12.0]), "sweep points"),
], ids=["outer factor", "nodes", "R_k", "sweep points"])
def test_gluing_rejects_bad_input_by_name(call, name):
    with pytest.raises(ValueError, match=name):
        call()


def test_norms_take_the_grid_that_fits_window_takes():
    # the norms refuse a grid exactly when fits_window does: the log r steps
    # of geomspace(1.5, 64, N) are 3.75 / (N - 1), over the window 0.5 at 8
    wf = WeightFunction(4, 64.0)
    for nodes in (8, 9):
        r = np.geomspace(1.5, 64.0, nodes)
        assert gluing.fits_window(r) == (nodes == 9)
        h = InvariantTensor.zero(RadialGrid(r, 4))
        if nodes == 9:
            weighted_norms(h, wf)
        else:
            with pytest.raises(ValueError, match="seminorm window"):
                weighted_norms(h, wf)
