import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solve_banded

from dehnfill import _stencils, solver
from dehnfill.geometry import (BlockMetricProfile, TrivialVariation,
                               black_hole_profile, cusp_profile, r_plus,
                               theta_period, v_profile)
from dehnfill.gluing import WeightFunction, glue
from dehnfill.operators import einstein_residual, linearized_residual
from dehnfill.solver import (BandedLinearization, SolverConfig,
                             kernel_spectrum, newton_solve, rayleigh_quotient,
                             trivial_direction, verify_einstein)


def ell_for_radius(n, R):
    return theta_period(n) * np.sqrt(v_profile(n, R)[0])


def dense_matrix(lin):
    """The matrix held in the band: A[i, j] = ab[u + i - j, j]."""
    A = np.zeros((lin.size, lin.size))
    j = np.arange(lin.size)
    for off in range(-lin.u, lin.l + 1):        # row - col
        c = j[max(0, -off):lin.size - max(0, off)]
        A[c + off, c] = lin.ab[lin.u + off, c]
    return A


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_matvec_matches_linearized_residual(n):
    # the assembled matrix and the tensor-space linearization share partials;
    # their actions must agree to solver precision on random directions
    p = black_hole_profile(n, 15.0, 512)
    lin = BandedLinearization(p)
    rng = np.random.Generator(np.random.Philox(17))
    k = n - 1
    for trial in range(20):
        dw = rng.standard_normal((k, p.s.size)) * 0.1
        dw[0, 0] = 0.0
        dw[:, -1] = 0.0      # respect Dirichlet elimination
        dM = np.zeros((p.s.size, k, k))
        dM[:, np.arange(k), np.arange(k)] = (2.0 * dw * p.f**2).T
        dres = linearized_residual(p, dM)
        free = lin.index >= 0
        vec = np.zeros(lin.size)
        vec[lin.index[free]] = dw[free]
        de1 = lin.matvec(vec)[lin.index[:, 1:-1]]
        ref = dres.e1[:, np.arange(k), np.arange(k)].T
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(de1 - ref).max() < 1e-10 * scale


@settings(max_examples=12, deadline=None)
@given(n=st.integers(3, 7), ell=st.sampled_from([10.0, 14.0, 20.0]),
       nodes=st.integers(128, 512), pick=st.integers(0, 10**6))
def test_matrix_is_derivative_of_residual(n, ell, nodes, pick):
    # central differences of the reported residual in one log-profile
    # unknown reproduce that column of the Newton matrix; the sampled
    # columns cover the cap ghost (nodes 0..3), both edges of the parity
    # window, the matched region and one node drawn at random
    p = glue(n, ell, nodes=nodes)
    lin = BandedLinearization(p)
    kz, N = lin.sys.kz, p.s.size
    h = 1e-5
    for comp in range(n - 1):
        for node in (0, 1, 2, 3, kz - 1, kz, kz + 1, N - 2, 1 + pick % (N - 2)):
            u = lin.index[comp, node]
            if u < 0:
                continue
            e = np.zeros(lin.size)
            e[u] = 1.0
            col = lin.matvec(e)
            res = []
            for sign in (1.0, -1.0):
                q = p.copy()
                q.f[comp, node] *= np.exp(sign * h)
                res.append(BandedLinearization(q).residual_vector())
            fd = (res[0] - res[1]) / (2.0 * h)
            assert np.abs(fd - col).max() <= 1e-6 * np.abs(col).max()


glued_ends = dict(n=st.integers(3, 7), ell=st.sampled_from([10.0, 14.0, 20.0]),
                  nodes=st.integers(128, 512), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=10, deadline=None)
@given(**glued_ends)
def test_solve_transpose_is_adjoint_solve(n, ell, nodes, seed):
    # A^T x, from the dense matrix rather than the LU factors, reproduces
    # the right-hand side of the transpose solve
    lin = BandedLinearization(glue(n, ell, nodes=nodes))
    b = np.random.default_rng(seed).standard_normal(lin.size)
    x = lin.solve_transpose(b)
    atx = dense_matrix(lin).T @ x
    assert np.linalg.norm(atx - b) <= 1e-10 * np.linalg.norm(b)


@settings(max_examples=10, deadline=None)
@given(**glued_ends)
def test_band_entries_are_unique(n, ell, nodes, seed):
    # the band is written by slices, which would overwrite rather than sum
    # two partials landing on one (row, col): each partial of E1_i at node
    # t by a free sample f_j[t+m-2] has a (row, col) of its own, and the
    # band holds exactly these and the parity rows
    lin = BandedLinearization(glue(n, ell, nodes=nodes))
    dense = dense_matrix(lin)
    vals = lin.sys.jacobian_triples()
    i, j, m, node = np.indices(vals.shape)
    node += 1
    # samples -1 and N clip onto the Dirichlet node, no unknown like f_2(0)
    cols = lin.index[j, np.clip(node + m - 2, -1, lin.N - 1)]
    keep = cols >= 0
    r, c = lin.index[i, node][keep], cols[keep]
    assert np.unique(r * lin.size + c).size == r.size
    assert np.array_equal(dense[r, c], vals[keep])
    # matvec sums the band diagonal by diagonal, the dense matrix row by row
    y = np.random.default_rng(seed).standard_normal(lin.size)
    scale = np.abs(dense) @ np.abs(y)
    assert np.all(np.abs(lin.matvec(y) - dense @ y) <= 1e-14 * scale.max())
    dense[r, c] = 0.0
    p = lin.profile
    for comp in range(1, n - 1):
        row = lin.index[comp, 0]
        assert np.array_equal(dense[row, lin.index[comp, :5]],
                              solver._PARITY_W / p.spacing * p.f[comp, :5])
        dense[row] = 0.0
    assert not dense.any()


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_band_widths_follow_from_the_numbering(n):
    # E1_{n-1} at node t reads f_2 at t-2; the parity rows reach node 4
    lin = BandedLinearization(glue(n, 14.0, nodes=256))
    assert (lin.l, lin.u) == (3 * n - 4, 4 * (n - 1))
    assert lin.ab[0].any() and lin.ab[-1].any()


@settings(max_examples=10, deadline=None)
@given(**glued_ends)
def test_solves_match_column_solves_and_solve_banded(n, ell, nodes, seed):
    lin = BandedLinearization(glue(n, ell, nodes=nodes))
    B = np.random.default_rng(seed).standard_normal((lin.size, 3))
    # the forward solve is LAPACK's gbsv split into its two halves
    x = lin.solve(B[:, 0])
    assert np.array_equal(x, solve_banded((lin.l, lin.u), lin.ab, B[:, 0]))
    for solve in (lin.solve, lin.solve_transpose):
        X = solve(B)
        assert X.shape == B.shape
        cols = np.column_stack([solve(B[:, i]) for i in range(B.shape[1])])
        # the transpose sweep may group a column's dot products differently
        assert np.abs(X - cols).max() <= 1e-13 * np.abs(cols).max()


def test_non_finite_and_singular_bands_raise():
    p = glue(4, 10.0, nodes=128)
    p.f[1, 40] = np.nan
    lin = BandedLinearization(p)
    # named as non-finite input, not as a singular matrix
    with pytest.raises(ValueError, match="infs or NaNs"):
        lin.solve(np.ones(lin.size))
    with pytest.raises(ValueError, match="infs or NaNs"):
        lin.solve_transpose(np.ones(lin.size))
    with pytest.raises(ValueError, match="infs or NaNs"):
        newton_solve(p)
    with pytest.raises(solver.NumericalError, match="Newton matrix"):
        lin.solve(np.ones(lin.size))
    lin = BandedLinearization(glue(4, 10.0, nodes=128))
    with pytest.raises(ValueError, match="infs or NaNs"):
        lin.solve(np.full(lin.size, np.inf))
    with pytest.raises(solver.NumericalError, match="right-hand side"):
        lin.solve_transpose(np.full(lin.size, np.nan))
    lin.ab[:, 7] = 0.0
    with pytest.raises(LinAlgError):
        lin.solve(np.ones(lin.size))


@pytest.mark.parametrize("mode", ["newton", "frozen_jacobian"])
def test_matrix_assembled_and_factored_only_for_steps(monkeypatch, mode):
    # a matrix is built only when a step follows, and factored once
    built, factored = [], []
    init, factor = solver.BandedLinearization.__init__, solver.BandedLinearization._factor

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_factor(self):
        factored.append(self)
        factor(self)

    monkeypatch.setattr(solver.BandedLinearization, "__init__", counting_init)
    monkeypatch.setattr(solver.BandedLinearization, "_factor", counting_factor)
    _, rep = newton_solve(glue(3, 10.0, nodes=256), SolverConfig(mode=mode))
    assert rep.converged and rep.iterations >= 2
    assert len(built) == (rep.iterations if mode == "newton" else 1)
    assert factored == built


def test_assembly_and_solve_hold_one_matrix():
    # one band and one set of LU factors survive a solve, and assembly
    # builds them with no copy of the matrix in another form
    p = glue(4, 20.0, nodes=2048)
    sys = _stencils.DiagonalSystem(p.n, p.s, p.f, partials=True)
    rhs = np.ones(int(solver._unknown_index(p.n, p.s.size).max()) + 1)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        lin = solver.BandedLinearization(p, sys)
        assembled, assembly_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        lin.solve(rhs)
        end, solve_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lu = lin._lu.nbytes
    assert end - start <= 2.0 * lu
    assert max(assembly_peak, solve_peak) - start <= 3.5 * lu
    # dgbtrf factors its work array in place, so the factors are the only
    # matrix-sized allocation of the first solve
    assert solve_peak - assembled <= 1.5 * lu


def test_newton_step_frees_the_previous_matrix(monkeypatch):
    # each linearization is dead before the next one is built
    refs, alive = [], []
    init = solver.BandedLinearization.__init__

    def recording_init(self, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(solver.BandedLinearization, "__init__", recording_init)
    _, rep = newton_solve(glue(3, 10.0, nodes=256))
    assert rep.converged and len(refs) >= 2
    assert alive == [0] * len(refs)


def test_trivial_direction_in_discrete_kernel():
    # cutoff trace-free trivial variation: evolution rows vanish to
    # discretization order away from the cutoff transitions
    n = 5
    p = glue(n, ell_for_radius(n, 20.0), nodes=1024)
    lin = BandedLinearization(p)
    u = np.array([0.0, 0.5, -0.5, 0.0])
    vec = trivial_direction(p, u, lin)
    out = lin.matvec(vec)
    k = n - 1
    rows = np.array([[out[lin.index[comp, node]]
                      for node in range(1, p.s.size - 1)]
                     for comp in range(k)])
    # on the rho = 1 plateau the direction is an exact discrete symmetry;
    # erode by the stencil width so no row sees the transitions
    from dehnfill.gluing import rho_cutoff
    s_b = float(np.interp(p.cap_radius, p.r, p.s))
    rho = rho_cutoff(p.s, s_b)
    flat = rho == 1.0
    plateau = np.array([flat[max(0, k - 3):k + 4].all()
                        for k in range(1, p.s.size - 1)])
    assert plateau.any()
    assert np.abs(rows[:, plateau]).max() < 1e-10
    assert np.abs(rows).max() > 1e-3      # the cutoff transitions do act


def test_newton_bh_start_is_near_solution():
    # the residual-evaluation noise floor scales like eps/spacing^2, so the
    # 1e-10 target needs the moderate grid
    p = black_hole_profile(4, 20.0, 512)
    cfg = SolverConfig(residual_tolerance=1e-10, max_iterations=4)
    prof, rep = newton_solve(p, cfg)
    assert rep.converged
    assert rep.iterations <= 1
    assert rep.residual_history[-1] < 1e-10


def test_newton_solves_glued_n3():
    g0 = glue(3, 10.0, nodes=512)
    prof, rep = newton_solve(g0, SolverConfig(residual_tolerance=1e-8))
    assert rep.converged and not rep.diverged
    assert rep.iterations <= 8
    v = verify_einstein(prof)
    assert v["passes"]
    assert v["max_e1_normalized"] < 1e-8
    assert v["max_curvature_deviation"] < 1e-6
    # Dirichlet data reproduced exactly, cap stays closed
    assert np.array_equal(prof.f[:, -1], g0.f[:, -1])
    assert prof.f[0, 0] == 0.0
    # E2 drift bounded by 10x the certification tolerance
    assert rep.e2_drift < 10 * 1e-6
    # the accumulated perturbation norms are reported and settle
    assert len(rep.star_history) == len(rep.residual_history)
    assert rep.double_star_history[-1] <= rep.star_history[-1] + 1e-12


def test_newton_quadratic_order_n4():
    g0 = glue(4, ell_for_radius(4, 8.0), nodes=512)
    prof, rep = newton_solve(g0, SolverConfig(residual_tolerance=1e-10))
    assert rep.converged
    assert rep.order_estimate() >= 1.8


def test_frozen_jacobian_contracts():
    g0 = glue(4, ell_for_radius(4, 8.0), nodes=512)
    cfg = SolverConfig(mode="frozen_jacobian", residual_tolerance=1e-9,
                       max_iterations=25)
    prof, rep = newton_solve(g0, cfg)
    assert rep.converged
    h = rep.residual_history
    rates = [h[i + 1] / h[i] for i in range(1, len(h) - 1) if h[i] > 1e-8]
    assert rates and max(rates) <= 0.5


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cone_defect_scales_like_inverse_power_of_radius(n):
    # the glued end closes with cone angle 2 pi (1 + O(R^(1-n))): the
    # Newton-solved defect falls with slope -(n-1) in log-log
    radii = np.array([6.0, 8.0, 12.0, 16.0, 24.0])
    defects = []
    for R in radii:
        _, rep = newton_solve(glue(n, ell_for_radius(n, R), nodes=1024))
        assert rep.converged
        defects.append(abs(rep.cone_angle_ratio - 1.0))
    slope = np.polyfit(np.log(radii), np.log(defects), 1)[0]
    assert abs(slope + (n - 1)) <= 0.1


def test_newton_respects_iteration_budget():
    g0 = glue(3, 10.0, nodes=256)
    cfg = SolverConfig(max_iterations=1, residual_tolerance=1e-14)
    prof, rep = newton_solve(g0, cfg)
    assert not rep.converged
    assert rep.message == "maximum iterations reached"
    assert len(rep.residual_history) == 2


def test_solution_grid_converges():
    # halving the spacing moves the solution by O(dlt^2)
    sols = {}
    for nodes in (513, 1025, 2049):     # 2^k + 1 so the grids nest
        g0 = glue(3, 10.0, nodes=nodes)
        prof, rep = newton_solve(g0, SolverConfig(residual_tolerance=1e-8))
        assert rep.converged
        sols[nodes] = prof
    f0 = sols[513].f
    f1 = sols[1025].f[:, ::2]
    f2 = sols[2049].f[:, ::4]
    d1 = np.abs(f1 - f0).max()
    d2 = np.abs(f2 - f1).max()
    order = np.log2(d1 / d2)
    assert order > 1.8


def test_kernel_spectrum_stability():
    sig = {}
    for nodes in (256, 512):
        p = black_hole_profile(4, 15.0, nodes)
        sig[nodes] = kernel_spectrum(p)[0]
    assert sig[256] > 0
    assert abs(sig[512] / sig[256] - 1.0) < 0.2
    p = black_hole_profile(4, 15.0, 256)
    three = kernel_spectrum(p, count=3)
    assert three[0] <= three[1] <= three[2]
    assert three[0] == pytest.approx(sig[256], rel=1e-4)


def _spectrum_case(case):
    """(profile, weight function or None) of one spectral-probe check."""
    if case == "cap":
        return black_hole_profile(4, 15.0, 256), None
    if case == "glued":
        return glue(3, 10.0, nodes=256), None
    p = glue(4, 20.0, nodes=128)
    return p, WeightFunction(4, p.cap_radius)


@pytest.mark.parametrize("case", ["cap", "glued", "conjugated"])
def test_kernel_spectrum_matches_dense_svd(case):
    p, wf = _spectrum_case(case)
    lin = BandedLinearization(p)
    dense = dense_matrix(lin)
    if wf is not None:       # D_r A D_c^{-1} with D_r = D_c = 1/W
        w = solver._unknown_weights(lin, p, wf)
        dense = dense * w[None, :] / w[:, None]
    exact = np.linalg.svd(dense, compute_uv=False)[::-1]
    conj = wf is not None
    three = kernel_spectrum(p, count=3, weight_fn=wf, conjugate=conj)
    np.testing.assert_allclose(three, exact[:3], rtol=1e-10)
    # one column is a plain power iteration: at "cap" the two smallest
    # values (3.438, 3.458) nearly coincide, so 400 steps leave it ~1e-6 off
    one = kernel_spectrum(p, weight_fn=wf, conjugate=conj)
    assert one.shape == (1,)
    assert one[0] == pytest.approx(exact[0], rel=1e-5)


def test_kernel_spectrum_stops_when_converged(monkeypatch):
    calls = []
    solve = solver.BandedLinearization.solve

    def counted(self, rhs):
        calls.append(1)
        return solve(self, rhs)

    monkeypatch.setattr(solver.BandedLinearization, "solve", counted)
    kernel_spectrum(black_hole_profile(4, 15.0, 256), count=3)
    assert 0 < len(calls) < 50


def test_weighted_conjugation_direction_of_effect():
    # the raw quotient in the cutoff trivial direction degrades as the end
    # lengthens; the weight-conjugated smallest singular value stays put
    n = 4
    plain, conj = [], []
    for R in (8.0, 16.0, 32.0):
        p = glue(n, ell_for_radius(n, R), nodes=768)
        wf = WeightFunction(n, R)
        lin = BandedLinearization(p)
        u = np.array([0.0, 0.7, -0.7])
        vec = trivial_direction(p, u, lin)
        plain.append(rayleigh_quotient(p, vec, lin=lin))
        conj.append(kernel_spectrum(p, weight_fn=wf, conjugate=True)[0])
    assert plain[0] > plain[1] > plain[2]
    assert max(conj) / min(conj) < 2.0


def test_verify_flags_unconverged_glued_profile():
    g0 = glue(3, 10.0, nodes=512)
    v = verify_einstein(g0)
    assert not v["passes"]
    lo, hi = g0.source.collar_r_range()
    assert lo <= v["residual_argmax_r"] <= hi


def test_verify_names_the_worst_component():
    # the component is named as the residual CSV names its columns
    p = glue(4, 14.0, nodes=512)
    v = verify_einstein(p)
    e1 = np.abs(einstein_residual(p).e1)
    names = [f"E1_{i}{i}" for i in range(2, p.n + 1)]
    assert v["residual_argmax_component"] == names[int(np.argmax(e1.max(axis=1)))]
    assert v["residual_argmax_r"] == p.r[1:-1][int(np.argmax(e1.max(axis=0)))]
    # on the block path: an off-diagonal bump in M_34 of an exact cusp
    # moves E1_34 at first order and the diagonal entries only at second
    c = cusp_profile(4, 0.4, 2.4, 400, rate=1.05)
    M = c.torus_block()
    bump = 0.05 * np.exp(-((c.s - c.s.mean()) / 0.2) ** 2) * np.sqrt(M[:, 1, 1] * M[:, 2, 2])
    M[:, 1, 2] += bump
    M[:, 2, 1] += bump
    vb = verify_einstein(BlockMetricProfile(4, c.s, M, c.theta_period, r=c.r))
    assert vb["residual_argmax_component"] == "E1_34"


def test_verify_model_metrics():
    v = verify_einstein(black_hole_profile(4, 20.0, 2048))
    assert v["passes"] and v["max_e1_normalized"] < 1e-6
    vc = verify_einstein(cusp_profile(4, 0.2, 3.0, 500))
    assert vc["passes"] and vc["max_e1_normalized"] < 1e-9
