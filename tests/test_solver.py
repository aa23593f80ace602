import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solve_banded

from dehnfill import _stencils, solver
from dehnfill._lapack import _flapack, check_info, dgbtrf, dgbtrs
from dehnfill.geometry import (RadialGrid, black_hole_profile, cusp_profile,
                               theta_period, v_profile)
from dehnfill.gluing import GluedEnd, WeightFunction, double_star_norm, glue
from dehnfill.operators import (InvariantTensor, einstein_residual,
                                linearized_residual)
from dehnfill.solver import (BandedLinearization, SolverConfig,
                             kernel_spectrum, newton_solve, trivial_direction,
                             verify_einstein)


def ell_for_radius(n, R):
    return theta_period(n) * np.sqrt(v_profile(n, R)[0])


def _row_map(lin):
    """rows[i, t], the band row of sample (i, t)'s own equation: node 1's
    E1 rows first, then the parity rows, from node 2 on its unknown's number."""
    rows, n = lin.index.copy(), lin.n
    rows[:, 1], rows[1:, 0] = np.arange(n - 1), np.arange(n - 1, 2 * n - 3)
    return rows


def _row_owner(lin):
    """owner[r], the unknown whose own equation is row r of the band."""
    free = lin.index >= 0
    owner = np.empty(lin.size, dtype=int)
    owner[_row_map(lin)[free]] = lin.index[free]
    return owner


def dense_matrix(lin):
    """The matrix held in the band, A[r, j] = ab[u + r - j, j], with each
    row r put back on the number of the unknown that owns it."""
    A = np.zeros((lin.size, lin.size))
    j = np.arange(lin.size)
    for off in range(-lin.u, lin.l + 1):        # row - col
        c = j[max(0, -off):lin.size - max(0, off)]
        A[c + off, c] = lin.ab[lin.u + off, c]
    out = np.empty_like(A)
    out[_row_owner(lin)] = A
    return out


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
    p = glue(n, ell, nodes=nodes)
    lin = BandedLinearization(p)
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
    for comp in range(1, n - 1):
        row = lin.index[comp, 0]
        assert np.array_equal(dense[row, lin.index[comp, :5]],
                              solver._PARITY_W / p.spacing * p.f[comp, :5])
        dense[row] = 0.0
    assert not dense.any()


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_band_widths_follow_from_the_numbering(n):
    # E1_{n-1} at node t reads f_2 at t-2; E1_2 at node 1, on row 0, reads
    # f_n at node 3; the parity rows, after node 1's, reach node 4
    lin = BandedLinearization(glue(n, 14.0, nodes=256))
    assert (lin.l, lin.u) == (3 * n - 4, 4 * n - 6)
    assert lin.ab[0].any() and lin.ab[-1].any()


def _table_triples(sys):
    """The partials as one pass over the whole tables, as jacobian_triples
    computed them before it went through the per-slot writer."""
    k = sys.n - 1
    wd = sys.wd.transpose(0, 2, 1)
    f_col = _stencils._windows(sys.f).transpose(0, 2, 1)
    vals = np.empty((k, k, 5, sys.d.shape[1]))
    np.multiply((2.0 * sys.d)[:, None, None, :], wd, out=vals)
    vals *= f_col
    own = np.arange(k)
    vals[own, own] = 2.0 * (sys.wq.transpose(0, 2, 1)
                            + wd * (sys.S - sys.d)[:, None, :]) * f_col
    return vals


def _sliced_band(lin, rows=None, u=None):
    """A's band in a C-ordered array of its own, (l, u) = (lin.l, u), the
    equation of sample (i, t) on row rows[i, t], each (i, j, slot) of the
    table of partials copied there by one indexed write.  By default
    _row_map(lin) and lin.u; the unknown numbering and u = 4(n-1) give the
    band with the parity rows first, the order the rows first had."""
    rows = _row_map(lin) if rows is None else rows
    u = lin.u if u is None else u
    n, N, kz, index = lin.n, lin.N, lin.sys.kz, lin.index
    step, vals = n - 1, _table_triples(lin.sys)
    ab = np.zeros((lin.l + u + 1, lin.size))
    for i, j, m in np.ndindex(step, step, 5):
        lo = max(1, 2 - m + (j == 0))
        hi = min(N - 2, N - m) if 1 <= m <= 3 else min(kz, N - m)
        nodes = np.arange(lo, hi + 1)
        cols = index[j, nodes + m - 2]
        ab[u + rows[i, nodes] - cols, cols] = vals[i, j, m, lo - 1:hi]
    w = solver._PARITY_W / lin.sys.delta
    for p in range(5):
        cols = index[1:, p]
        ab[u + rows[1:, 0] - cols, cols] = w[p] * lin.sys.f[1:, p]
    return ab


def _copied_work(lin, fill=0.0, rows=None, u=None):
    """A dgbtrf work array holding a copy of the band of _sliced_band under
    fill rows set to fill."""
    band = _sliced_band(lin, rows, u)
    work = np.full((lin.l + band.shape[0], lin.size), fill, order="F")
    work[lin.l:] = band
    return work


def _copied_factors(lin):
    """LU factors (lu, piv) of A from a copy of the band of _sliced_band."""
    lu, piv, info = dgbtrf(_copied_work(lin), lin.l, lin.u)
    check_info(info, "dgbtrf")
    return lu, piv


@pytest.mark.parametrize("solved", [False, True])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_band_written_in_place_equals_the_sliced_table(n, solved):
    # every entry is the same product of the same doubles, whether written
    # slot by slot into the factor array or copied from a whole table
    p = glue(n, ell_for_radius(n, 8.0), nodes=256)
    if solved:
        p, _ = newton_solve(p)
    lin = BandedLinearization(p)
    assert np.array_equal(lin.sys.jacobian_triples(), _table_triples(lin.sys))
    assert np.array_equal(lin.ab, _sliced_band(lin))
    # R read from the array to be factored, from the band written anew after
    # the factor, and from a copy of the sliced band are one array
    ones = np.ones(lin.size)
    r = lin._r_factor(ones)
    lin.solve(ones)
    lu, piv = _copied_factors(lin)
    assert np.array_equal(lin._lu, lu) and np.array_equal(lin._piv, piv)
    assert np.array_equal(lin._r_factor(ones), r)
    ref = BandedLinearization(p)
    ref._lu = _copied_work(ref)
    assert np.array_equal(ref._r_factor(ones), r)


@pytest.mark.parametrize("solved", [False, True])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_row_order_leaves_the_solve_bit_for_bit(n, solved):
    # partial pivoting picks the same pivots, with the same arithmetic,
    # whatever the rows' first order: the solve through the band with node
    # 1's E1 rows above the parity rows is, bit for bit, dgbtrf and dgbtrs
    # on the band with the parity rows first, whose u is two rows wider
    p = glue(n, ell_for_radius(n, 8.0), nodes=256)
    if solved:
        p, _ = newton_solve(p)
    lin = BandedLinearization(p)
    u = 4 * (n - 1)
    lu, piv, info = dgbtrf(_copied_work(lin, 0.0, lin.index, u), lin.l, u)
    check_info(info, "dgbtrf")
    rng = np.random.default_rng(n)
    for b in (lin.residual_vector(), rng.standard_normal(lin.size),
              rng.standard_normal((lin.size, 3))):
        x, info = dgbtrs(lu, lin.l, u, b, piv)
        check_info(info, "dgbtrs")
        assert np.array_equal(lin.solve(b), x)


@pytest.mark.parametrize("calls", list(itertools.permutations(
    ["solve", "solve_transpose", "matvec", "ab"])), ids=" then ".join)
def test_solves_matvec_and_band_agree_in_any_call_order(calls):
    # before A is factored, ab is a view of the array to be factored; after,
    # it is written anew, and both solves sweep the one factor of A
    p = glue(4, 14.0, nodes=256)
    lin, ref = BandedLinearization(p), BandedLinearization(p)
    b = np.random.default_rng(5).standard_normal(lin.size)
    got = {call: lin.ab.copy() if call == "ab" else getattr(lin, call)(b)
           for call in calls}
    assert np.array_equal(got["ab"], _sliced_band(ref))
    assert np.array_equal(got["matvec"], ref.matvec(b))
    assert np.array_equal(got["solve"], ref.solve(b))
    assert np.array_equal(got["solve_transpose"], ref.solve_transpose(b))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("conjugate", [False, True])
def test_spectrum_on_copied_factors_is_bit_identical(conjugate, seed):
    # the probe on the R factor of the band written in place returns what it
    # returns on the R factor of a band copied from the whole table, under
    # fill rows of NaN that the masked panel reads never take in
    if conjugate:
        p, count = glue(4, 20.0, nodes=2048), 1
        wf = WeightFunction(4, p.cap_radius)
    else:
        p, count, wf = glue(3, 10.0, nodes=2048), 3, None
    got = kernel_spectrum(p, count, wf, conjugate, seed)
    ref = BandedLinearization(p)
    ref._lu = _copied_work(ref, np.nan)
    scale = 1.0 / solver._unknown_weights(p, wf) if conjugate else None
    assert np.array_equal(got, ref.sigma_min(count, scale, seed))


def _dense_r(r):
    """The upper triangular matrix held in 'U' band storage r."""
    kd, size = r.shape[0] - 1, r.shape[1]
    R = np.zeros((size, size))
    j = np.arange(size)
    for off in range(kd + 1):                   # col - row
        R[j[off:] - off, j[off:]] = r[kd - off, off:]
    return R


@settings(max_examples=12, deadline=None)
@given(n=st.integers(3, 7), nodes=st.one_of(st.integers(128, 512), st.integers(8, 24)),
       seed=st.integers(0, 2**32 - 1), scaled=st.booleans(), full=st.booleans())
@example(n=6, nodes=78, seed=0, scaled=True, full=True)    # 384 unknowns: 8 panels
@example(n=3, nodes=8, seed=1, scaled=False, full=True)    # 13: under one panel
def test_r_factor_is_the_banded_qr_of_the_scaled_matrix(n, nodes, seed, scaled, full):
    # R^T R = C^T C for C = diag(d) A diag(d)^{-1}, A's rows in the unknown
    # order: R is the triangular factor of C's QR up to row signs, upper
    # banded with kd = l + 4(n-1), A's upper width in that order.  A full
    # random band, corners of the band storage included, stays inside it:
    # in the unknown order its parity rows reach 5n-7 columns up, and R's
    # rows l + 4n-6 at most
    p = glue(n, 14.0, nodes=nodes) if nodes >= 128 else black_hole_profile(n, 15.0, nodes)
    lin = BandedLinearization(p)
    rng = np.random.default_rng(seed)
    if full:
        lin.ab[:] = rng.standard_normal(lin.ab.shape)
    d = np.exp(rng.uniform(-3.0, 3.0, lin.size)) if scaled else np.ones(lin.size)
    r = lin._r_factor(d)
    kd = lin.l + 4 * (n - 1)        # A's upper width in the unknown order
    assert r.shape == (kd + 1, lin.size)
    # the corner of the band storage above R's first rows holds nothing
    k, j = np.indices(r.shape)
    assert not r[k + j < kd].any()
    C = d[:, None] * dense_matrix(lin) / d
    R = _dense_r(r)
    gram = C.T @ C
    assert np.abs(R.T @ R - gram).max() <= 1e-13 * np.abs(gram).max()


def test_r_factor_reads_only_the_band():
    # the strided panel reads also address memory outside the band: the fill
    # rows and neighbouring columns; masked, a NaN there leaves R unchanged
    lin = BandedLinearization(glue(7, 14.0, nodes=256))
    scale = np.exp(np.random.default_rng(2).uniform(-3.0, 3.0, lin.size))
    r = lin._r_factor(scale)
    lin._lu[:lin.l] = np.nan
    assert np.array_equal(lin._r_factor(scale), r)


@settings(max_examples=10, deadline=None)
@given(**glued_ends)
def test_solves_match_column_solves_and_solve_banded(n, ell, nodes, seed):
    lin = BandedLinearization(glue(n, ell, nodes=nodes))
    B = np.random.default_rng(seed).standard_normal((lin.size, 3))
    # the forward solve is LAPACK's gbsv split into its two halves
    x = lin.solve(B[:, 0])
    b = B[_row_owner(lin), 0]       # in the band's row order
    assert np.array_equal(x, solve_banded((lin.l, lin.u), lin.ab, b))
    for solve in (lin.solve, lin.solve_transpose):
        X = solve(B)
        assert X.shape == B.shape
        cols = np.column_stack([solve(B[:, i]) for i in range(B.shape[1])])
        # the transpose sweep may group a column's dot products differently
        assert np.abs(X - cols).max() <= 1e-13 * np.abs(cols).max()


def test_non_finite_and_singular_bands_raise(monkeypatch):
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
    with pytest.raises(solver.NumericalError, match="Newton matrix"):
        kernel_spectrum(p)
    q = glue(4, 10.0, nodes=128)
    lin = BandedLinearization(q)
    with pytest.raises(ValueError, match="infs or NaNs"):
        lin.solve(np.full(lin.size, np.inf))
    with pytest.raises(solver.NumericalError, match="right-hand side"):
        lin.solve_transpose(np.full(lin.size, np.nan))
    # the band is checked a block of columns at a time, up to its last
    big = BandedLinearization(glue(4, 10.0, nodes=512))
    big.ab[0, -1] = np.inf
    with pytest.raises(solver.NumericalError, match="Newton matrix"):
        big.sigma_min()
    with pytest.raises(solver.NumericalError, match="Newton matrix"):
        big.solve(np.ones(big.size))
    lin.ab[:, 7] = 0.0
    # a zero column of A is a zero on R's diagonal, checked before any step
    sweeps = _count_calls(monkeypatch, solver, "dpbtrs")
    with pytest.raises(LinAlgError):
        lin.sigma_min()
    assert sweeps == []
    with pytest.raises(LinAlgError):
        lin.solve(np.ones(lin.size))
    # dgbtrf overwrote the band it failed on: the band is written anew
    assert np.array_equal(lin.ab, BandedLinearization(q).ab)


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
    # assembly writes the band straight into the array dgbtrf factors, with
    # no table of the partials and no copy of the band, and the first solve
    # factors that array in place: one band-sized array survives both
    p = glue(4, 20.0, nodes=2048)
    sys = _stencils.DiagonalSystem(p.n, p.s, p.f, partials=True)
    rhs = np.ones(int(solver._unknown_index(p.n, p.s.size).max()) + 1)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        lin = solver.BandedLinearization(p, sys)
        work = lin._lu
        assembled, assembly_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        lin.solve(rhs)
        end, solve_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lu = lin._lu.nbytes
    assert lin._lu is work
    assert end - start <= 1.1 * lu
    assert max(assembly_peak, solve_peak) - start <= 1.25 * lu
    assert solve_peak - assembled <= 0.07 * lu


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


@pytest.mark.parametrize("mode", solver.MODES)
def test_each_system_is_built_with_nothing_of_the_spent_step(monkeypatch, mode):
    # when an iterate's system is built, the last step's residual rows, E2,
    # right-hand side and update, and the iterate's own f^2 - f0^2 for the
    # norms, are all dead
    spent, alive = [], []
    solve, residual = BandedLinearization.solve, _stencils.DiagonalSystem.residual
    init, norms = _stencils.DiagonalSystem.__init__, solver._NormPlan.double_star_diagonal

    def recording_solve(self, rhs):
        x = solve(self, rhs)
        spent.extend(weakref.ref(a) for a in (rhs, x))
        return x

    def recording_residual(self):
        out = residual(self)
        spent.extend(weakref.ref(a) for a in out)
        return out

    def recording_norms(self, diag):
        spent.append(weakref.ref(diag))
        return norms(self, diag)

    def checking_init(self, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in spent))
        init(self, *args, **kwargs)

    monkeypatch.setattr(BandedLinearization, "solve", recording_solve)
    monkeypatch.setattr(_stencils.DiagonalSystem, "residual", recording_residual)
    monkeypatch.setattr(solver._NormPlan, "double_star_diagonal", recording_norms)
    monkeypatch.setattr(_stencils.DiagonalSystem, "__init__", checking_init)
    _, rep = newton_solve(glue(3, 10.0, nodes=256), SolverConfig(mode=mode))
    assert rep.converged and len(alive) == rep.iterations + 1 >= 3
    assert len(spent) == 5 * rep.iterations + 3
    assert alive == [0] * len(alive)


def test_newton_solve_factors_one_band(monkeypatch):
    # each Newton step writes its band into the spent step's work array, so
    # every dgbtrf call of a solve factors the same buffer; each factored
    # array is held, or a fresh one could be given a freed one's address
    factored, factor = [], solver.dgbtrf

    def recording_factor(ab, *args, **kwargs):
        factored.append(ab)
        return factor(ab, *args, **kwargs)

    monkeypatch.setattr(solver, "dgbtrf", recording_factor)
    _, rep = newton_solve(glue(3, 10.0, nodes=256))
    assert rep.converged and len(factored) >= 2
    assert len({ab.ctypes.data for ab in factored}) == 1


def _solve_peak_in_bands(monkeypatch, mode):
    """Traced peak of a warm (4, 20, 2048) solve in the given mode, in bands,
    with the unknown numbering built once per solve."""
    newton_solve(glue(3, 10.0, nodes=256))      # numpy's lazy imports
    g0 = glue(4, 20.0, nodes=2048)
    numberings = _count_calls(monkeypatch, solver, "_unknown_index")
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        _, rep = newton_solve(g0, SolverConfig(mode=mode))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.converged and rep.iterations >= 2
    assert numberings == ["_unknown_index"]
    return (peak - start) / BandedLinearization(g0)._lu.nbytes


def test_newton_solve_peak_stays_under_1_95_bands(monkeypatch):
    # a Newton solve holds one band, one pair of slot-major stencil tables
    # and one system at a time, and drops each step's residual, right-hand
    # side and update once read: at (4, 20, 2048) its traced peak is 1.86
    # bands (2.47 MB against a band of 1.33 MB), 5 % under the bound, and
    # 1.99 bands while a spent step's arrays stayed alive
    assert _solve_peak_in_bands(monkeypatch, "newton") <= 1.95


def test_frozen_solve_peak_stays_under_2_bands(monkeypatch):
    # a frozen solve's one linearization drops its stencil system, tables
    # and all, once its factors exist, and each later step builds a system
    # without partials: at (4, 20, 2048) its traced peak is 1.81 bands (2.14
    # while the factored linearization held its system), 10 % under the bound
    built, init = [], solver.BandedLinearization.__init__

    def recording_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(solver.BandedLinearization, "__init__", recording_init)
    assert _solve_peak_in_bands(monkeypatch, "frozen_jacobian") <= 1.99
    factored = [lin for lin in built if lin.N == 2048 and lin._piv is not None]
    assert len(factored) == 1 and factored[0].sys is None


def _free_mask_newton(g0, steps):
    """The profile after `steps` Newton steps taken through the free mask:
    the residual scattered to index[free], the update gathered from
    step[index[free]], as the solver once moved its vectors."""
    p = g0.copy()
    index = solver._unknown_index(p.n, p.s.size)
    free = index >= 0
    for _ in range(steps):
        lin = BandedLinearization(p)
        step = lin.solve(_free_mask_residual(index, lin.sys))
        step = np.exp(np.clip(-step, -solver._STEP_CLIP, solver._STEP_CLIP))
        p.f[free] *= step[index[free]]
    return p


def _free_mask_residual(index, sys):
    out = np.zeros(int(index.max()) + 1)
    out[index[:, 1:-1]] = sys.residual()[0]
    for comp in range(1, index.shape[0]):
        out[index[comp, 0]] = (solver._PARITY_W @ sys.f[comp, :5]) / sys.delta
    return out


@pytest.mark.parametrize("solved", [False, True])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_node_major_views_equal_the_free_mask_paths(n, solved):
    # the Newton update, the stacked residual and _to_unknowns move vectors
    # through the node-major views; the free-mask scatters and gathers they
    # replace give the same bits
    p = glue(n, ell_for_radius(n, 8.0), nodes=256)
    if solved:
        p, _ = newton_solve(p)
    cfg = SolverConfig(max_iterations=3, residual_tolerance=1e-300)
    got, rep = newton_solve(p, cfg)
    assert rep.iterations >= 1
    assert got.f.tobytes() == _free_mask_newton(p, rep.iterations).f.tobytes()
    lin = BandedLinearization(p)
    free = lin.index >= 0
    assert (lin.residual_vector().tobytes()
            == _free_mask_residual(lin.index, lin.sys).tobytes())
    per_sample = np.random.default_rng(n).standard_normal(lin.index.shape)
    ref = np.zeros(lin.size)
    ref[lin.index[free]] = per_sample[free]
    assert solver._to_unknowns(per_sample).tobytes() == ref.tobytes()


def test_linearization_in_a_spent_work_array_matches_a_fresh_one():
    # a band written into an array another profile's factors fill is the
    # band of a fresh array, and solves to the same bits
    p = glue(4, 20.0, nodes=256)
    other = p.copy()
    other.f[:, 1:] *= 1.0 + 0.1 * np.sin(np.arange(1, p.s.size))
    spent = BandedLinearization(other)
    b = np.linspace(-1.0, 1.0, spent.size)
    spent.solve(b)
    work = spent._lu
    fresh = BandedLinearization(p)
    reused = BandedLinearization(p, _work=work)
    assert reused._lu is work
    assert np.array_equal(reused.ab, fresh.ab)
    assert np.array_equal(reused.solve(b), fresh.solve(b))


def _count_calls(monkeypatch, owner, name):
    """Patch owner.name to record its calls; returns the record."""
    calls, fn = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_probe_factors_no_lu_and_newton_builds_no_r(monkeypatch):
    # the spectral probe builds R and makes no dgbtrf call; a Newton solve,
    # in either mode, factors A and never builds R; A is factored once for
    # its solves in both directions, in either order
    lu = _count_calls(monkeypatch, solver, "dgbtrf")
    qr = _count_calls(monkeypatch, solver.BandedLinearization, "_r_factor")
    for mode in ("newton", "frozen_jacobian"):
        newton_solve(glue(3, 10.0, nodes=256), SolverConfig(mode=mode))
    assert lu and not qr
    lu.clear()
    p = glue(4, 20.0, nodes=256)
    kernel_spectrum(p, count=3)
    kernel_spectrum(p, weight_fn=WeightFunction(4, p.cap_radius), conjugate=True)
    assert not lu and len(qr) == 2
    b = np.ones(BandedLinearization(p).size)
    for first, second in (("solve", "solve_transpose"), ("solve_transpose", "solve")):
        lin = BandedLinearization(p)
        getattr(lin, first)(b)
        getattr(lin, second)(b)
    assert len(lu) == 2


def test_transpose_solve_holds_one_factor():
    # the transpose solve sweeps the held factors of A: it adds no
    # matrix-sized array, and A's factors are all a linearization holds
    lin = BandedLinearization(glue(4, 20.0, nodes=2048))
    rhs = np.ones(lin.size)
    lin.solve(rhs)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        lin.solve_transpose(rhs)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert end - start <= 0.1 * rhs.nbytes
    assert peak - start <= 1.1 * rhs.nbytes
    held = {name for name, v in vars(lin).items()
            if isinstance(v, np.ndarray) and v.nbytes > 4 * rhs.nbytes}
    assert held == {"_lu"}


def test_probe_holds_r_and_no_factor():
    # the conjugated probe adds R, the block and its panel buffers, and
    # keeps nothing: it factors no LU and holds no R afterwards
    kernel_spectrum(glue(3, 10.0, nodes=256), count=2)    # numpy's lazy imports
    p = glue(4, 20.0, nodes=2048)
    lin = BandedLinearization(p)
    scale = 1.0 / solver._unknown_weights(p, WeightFunction(4, p.cap_radius))
    r_bytes = (lin.l + 4 * (lin.n - 1) + 1) * lin.size * 8
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        lin.sigma_min(1, scale)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 1.25 * r_bytes
    assert end - start <= 0.01 * r_bytes
    assert lin._piv is None
    held = {name for name, v in vars(lin).items()
            if isinstance(v, np.ndarray) and v.nbytes > 4 * scale.nbytes}
    assert held == {"_lu"}


def test_trivial_direction_in_discrete_kernel():
    # cutoff trace-free trivial variation: evolution rows vanish to
    # discretization order away from the cutoff transitions
    n = 5
    p = glue(n, ell_for_radius(n, 20.0), nodes=1024)
    lin = BandedLinearization(p)
    u = np.array([0.0, 0.5, -0.5, 0.0])
    vec = trivial_direction(p, u)
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
    # Newton-solved defect falls with slope -(n-1) in log-log.  So does the
    # Einstein correction h, in the double-star norm, with a constant that
    # does not depend on R: its ratio to the glued residual stays put
    radii = np.array([6.0, 8.0, 12.0, 16.0, 24.0])
    defects, corrections, ratios = [], [], []
    for R in radii:
        _, rep = newton_solve(glue(n, ell_for_radius(n, R), nodes=1024))
        assert rep.converged
        defects.append(abs(rep.cone_angle_ratio - 1.0))
        corrections.append(rep.double_star_history[-1])
        ratios.append(rep.double_star_history[-1] / rep.residual_history[0])
    for decay in (defects, corrections):
        slope = np.polyfit(np.log(radii), np.log(decay), 1)[0]
        assert abs(slope + (n - 1)) <= 0.1
    assert max(ratios) / min(ratios) < 1.5


def _perturbation_tensor(g0, profile):
    """The accumulated perturbation f^2 - f0^2 as a full invariant tensor:
    its torus diagonal, every other component zero."""
    k = g0.n - 1
    hij = np.zeros((g0.r.size, k, k))
    hij[:, np.arange(k), np.arange(k)] = (profile.f**2 - g0.f**2).T
    return InvariantTensor(RadialGrid(g0.r, g0.n), None, None, hij)


@pytest.mark.parametrize("mode", ["newton", "frozen_jacobian"])
@pytest.mark.parametrize("n, ell, nodes", [
    *(pytest.param(n, ell_for_radius(n, 8.0), 256, id=str(n)) for n in range(3, 8)),
    pytest.param(4, 20.0, 2048, id="4-ell20-2048")])
def test_norm_histories_measure_each_iterate(n, ell, nodes, mode):
    # the solve measures every iterate from its torus diagonal; its histories
    # equal, exactly, a fresh double_star_norm of each replayed iterate's
    # full tensor
    g0 = glue(n, ell, nodes=nodes)
    _, rep = newton_solve(g0, SolverConfig(mode=mode))
    assert len(rep.star_history) == len(rep.double_star_history) == rep.iterations + 1
    wf = WeightFunction(n, g0.cap_radius)
    for m in range(rep.iterations + 1):
        p, _ = newton_solve(g0, SolverConfig(mode=mode, max_iterations=m))
        norms = double_star_norm(_perturbation_tensor(g0, p), wf, order=0)
        assert rep.star_history[m] == norms.star
        assert rep.double_star_history[m] == norms.double_star


@pytest.mark.parametrize("kwargs, field", [
    ({"max_iterations": -1}, "max_iterations"),
    ({"max_iterations": 2.5}, "max_iterations"),
    ({"max_iterations": True}, "max_iterations"),
    ({"residual_tolerance": float("nan")}, "residual_tolerance"),
    ({"residual_tolerance": float("inf")}, "residual_tolerance"),
    ({"residual_tolerance": 0.0}, "residual_tolerance"),
    ({"residual_tolerance": -1e-8}, "residual_tolerance"),
    ({"mode": "frozen"}, "mode"),
])
def test_config_rejects_what_the_solver_cannot_run(kwargs, field):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**kwargs)


def test_config_accepts_numpy_scalars_and_zero_iterations():
    cfg = SolverConfig(max_iterations=np.int64(0), residual_tolerance=np.float32(1e-6))
    _, rep = newton_solve(glue(3, 10.0, nodes=256), cfg)
    assert rep.iterations == 0 and rep.message == "maximum iterations reached"


@pytest.mark.parametrize("count", [-1, 0, 1.0])
def test_spectrum_rejects_a_count_below_one(count):
    p = black_hole_profile(4, 15.0, 128)
    with pytest.raises(ValueError, match="count"):
        kernel_spectrum(p, count=count)
    with pytest.raises(ValueError, match="count"):
        BandedLinearization(p).sigma_min(count)


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
        w = solver._unknown_weights(p, wf)
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
    # each step is one dpbtrs call, both triangular band sweeps on R
    calls = _count_calls(monkeypatch, solver, "dpbtrs")
    kernel_spectrum(black_hole_profile(4, 15.0, 256), count=3)
    assert 0 < len(calls) < 100


def _two_sweep_probe(lin, count, scale, seed):
    """sigma_min as it stepped by two dtbtrs sweeps on R, R^{-T} and then
    R^{-1}; returns (values, steps)."""
    r = lin._r_factor(scale)
    rng = np.random.Generator(np.random.Philox(seed))
    X, _ = np.linalg.qr(rng.standard_normal((lin.size, count)))
    lam = np.zeros(count)
    for step in range(1, solver._PROBE_STEPS + 1):
        Y, info = _flapack.dtbtrs(r, X, trans="T")
        check_info(info, "dtbtrs")
        Y, info = _flapack.dtbtrs(r, Y, overwrite_b=True)
        check_info(info, "dtbtrs")
        if count == 1:
            norm = np.linalg.norm(Y)
            X, lam_new = Y / norm, np.array([norm])
        else:
            X, R = np.linalg.qr(Y)
            lam_new = np.linalg.svd(R, compute_uv=False)
        done = np.all(np.abs(lam_new - lam) <= solver._PROBE_TOL * lam_new)
        lam = lam_new
        if done:
            break
    return 1.0 / np.sqrt(lam), step


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_probe_step_matches_two_sweeps_bit_for_bit(monkeypatch, count,
                                                   conjugate, seed):
    # one dpbtrs call makes the same two dtbsv sweeps as two dtbtrs calls,
    # so every step, and so the values and the step count, agree exactly
    n, ell = (4, 20.0) if conjugate else (3, 10.0)
    p = glue(n, ell, nodes=256)
    lin = BandedLinearization(p)
    wf = WeightFunction(n, p.cap_radius) if conjugate else None
    scale = 1.0 / solver._unknown_weights(p, wf) if conjugate else np.ones(lin.size)
    old, steps = _two_sweep_probe(lin, count, scale, seed)
    calls = _count_calls(monkeypatch, solver, "dpbtrs")
    new = lin.sigma_min(count, scale, seed)
    assert len(calls) == steps
    assert new.tolist() == old.tolist()
    spectrum = kernel_spectrum(p, count, wf, conjugate, seed)
    assert spectrum.tolist() == old.tolist()


@pytest.mark.parametrize("bad", ["zero", "nan", "inf", "short"])
def test_sigma_min_rejects_a_bad_scale(bad):
    # a zero or non-finite entry would make D^{-1} invalid, a short scale
    # would not broadcast: each is named before any work, with no warning
    lin = BandedLinearization(glue(3, 10.0, nodes=256))
    scale = np.ones(lin.size)
    if bad == "short":
        scale = scale[1:]
    else:
        scale[5] = {"zero": 0.0, "nan": np.nan, "inf": np.inf}[bad]
    with pytest.raises(ValueError, match="scale"):
        lin.sigma_min(1, scale)


def test_uncapped_profile_has_no_linearization():
    # the parity rows and the pinned f_2(0) close the system at a cap; a
    # cusp end has none
    with pytest.raises(ValueError, match="capped profile"):
        BandedLinearization(cusp_profile(4, 0.3, 3.0, 128))


def test_conjugation_without_a_weight_function_builds_no_matrix(monkeypatch):
    # the missing weight function is named before any assembly
    built = _count_calls(monkeypatch, BandedLinearization, "__init__")
    with pytest.raises(ValueError, match="weight function"):
        kernel_spectrum(glue(4, 20.0, nodes=256), conjugate=True)
    assert built == []


def test_trivial_direction_rejects_a_trace_and_builds_no_matrix(monkeypatch):
    # a u with a trace is no trivial variation; a trace-free one is laid
    # out in the unknown order from the profile's shape alone
    p = glue(4, 20.0, nodes=256)
    size = BandedLinearization(p).size
    built = _count_calls(monkeypatch, BandedLinearization, "__init__")
    with pytest.raises(ValueError, match="trace free"):
        trivial_direction(p, np.array([0.0, 0.7, -0.6]))
    assert trivial_direction(p, np.array([0.0, 0.7, -0.7])).shape == (size,)
    assert built == []


def _qr_probe(lin, scale, seed):
    """The one-column probe of D A D^{-1}, D = diag(scale), as it stepped
    with QR and SVD, its A^T solves by dgbtrs's transpose sweep on A's
    factors; returns (value, steps)."""
    d = scale[:, None]
    rng = np.random.Generator(np.random.Philox(seed))
    X, _ = np.linalg.qr(rng.standard_normal((lin.size, 1)))
    lam = np.zeros(1)
    for step in range(1, solver._PROBE_STEPS + 1):
        Y = d * lin.solve(lin.solve_transpose(d * X) / d / d)
        X, R = np.linalg.qr(Y)
        lam_new = np.linalg.svd(R, compute_uv=False)
        done = np.all(np.abs(lam_new - lam) <= solver._PROBE_TOL * lam_new)
        lam = lam_new
        if done:
            break
    return 1.0 / np.sqrt(lam[0]), step


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_one_column_probe_matches_the_qr_step(monkeypatch, conjugate, seed):
    # the probe on R, normalizing by the norm, takes the steps of the probe
    # on the LU factors of A that stepped by QR and SVD, to the same value
    p = glue(4, 20.0, nodes=256) if conjugate else glue(3, 10.0, nodes=256)
    lin = BandedLinearization(p)
    scale = np.ones(lin.size)
    if conjugate:
        scale = 1.0 / solver._unknown_weights(p, WeightFunction(4, p.cap_radius))
    old, steps = _qr_probe(lin, scale, seed)
    calls = _count_calls(monkeypatch, solver, "dpbtrs")
    new = lin.sigma_min(1, scale, seed)
    assert new.shape == (1,)
    assert new[0] == pytest.approx(old, rel=1e-10)
    assert len(calls) == steps


def test_correction_ratio_is_bounded_where_the_grid_resolves_it():
    # the paper's constant: the Einstein correction ||h||_** against the
    # glued residual, kept at each R where it moves under 10 % from 768 to
    # 3072 nodes (R = 8..64; at R = 128, ||h||_** sits on the coarse grid's
    # floor and the ratio moves by half); its spread over the kept R is
    # 1.25 at 768 nodes and 1.14 at 3072
    n, grids = 4, (768, 3072)
    kept = []
    for R in (8.0, 16.0, 32.0, 64.0, 128.0):
        ratios = []
        for nodes in grids:
            _, rep = newton_solve(glue(n, ell_for_radius(n, R), nodes=nodes))
            ratios.append(rep.double_star_history[-1] / rep.residual_history[0])
        if abs(ratios[1] / ratios[0] - 1.0) < 0.1:
            kept.append(ratios)
    assert len(kept) >= 3
    for per_grid in zip(*kept):
        assert max(per_grid) / min(per_grid) < 1.5


def test_verify_flags_unconverged_glued_profile():
    g0 = glue(3, 10.0, nodes=512)
    v = verify_einstein(g0)
    assert not v["passes"]
    lo, hi = GluedEnd(3, 10.0).collar_r_range()
    assert lo <= v["residual_argmax_r"] <= hi


def test_verify_names_the_worst_component():
    # the component is named as the residual CSV names its columns
    p = glue(4, 14.0, nodes=512)
    v = verify_einstein(p)
    e1 = np.abs(einstein_residual(p).e1)
    names = [f"E1_{i}{i}" for i in range(2, p.n + 1)]
    assert v["residual_argmax_component"] == names[int(np.argmax(e1.max(axis=1)))]
    assert v["residual_argmax_r"] == p.r[1:-1][int(np.argmax(e1.max(axis=0)))]


def test_verify_model_metrics():
    v = verify_einstein(black_hole_profile(4, 20.0, 2048))
    assert v["passes"] and v["max_e1_normalized"] < 1e-6
    vc = verify_einstein(cusp_profile(4, 0.2, 3.0, 500))
    assert vc["passes"] and vc["max_e1_normalized"] < 1e-9


@pytest.mark.parametrize("solve", ["solve", "solve_transpose"])
@pytest.mark.parametrize("shape", [lambda m: (m - 1,), lambda m: (m + 1,),
                                   lambda m: (m + 1, 2), lambda m: (m, 2, 2)],
                         ids=["short", "long", "matrix", "3-D"])
def test_a_right_hand_side_of_the_wrong_shape_is_rejected(solve, shape):
    lin = BandedLinearization(glue(3, 10.0, nodes=128))
    with pytest.raises(ValueError, match="right-hand side"):
        getattr(lin, solve)(np.ones(shape(lin.size)))
