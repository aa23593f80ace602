"""Equidimensional (Euler) ODE toolkit: indicial roots, the decay
classification of invariant deformations of the cusp, a two-point solver,
and the randomized sup-bound harness for the cap estimate.

Every second-order block of the invariant linearized system on the cusp is
an Euler ODE r^2 f'' + a r f' + b f = phi; the admissible kernel is read off
from which indicial exponents fit inside a prescribed growth window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import check_info, dgtsv
from .geometry import _check_dimension, _check_integer, r_plus
from .gluing import _WEIGHT_EXPONENT, WeightFunction, weight

__all__ = [
    "EulerODE",
    "IndicialRoots",
    "indicial_roots",
    "cusp_block_exponents",
    "cusp_kernel_classification",
    "solve_euler_bvp",
    "ugly_estimate_harness",
]


@dataclass(frozen=True)
class EulerODE:
    """Coefficients of r^2 f'' + a r f' + b f."""

    a: float
    b: float


@dataclass(frozen=True)
class IndicialRoots:
    """Real exponents gamma1 >= gamma2 with r^gamma solving the homogeneous ODE."""

    gamma1: float
    gamma2: float


def indicial_roots(ode: EulerODE):
    """Roots of gamma^2 + (a-1) gamma + b = 0, in descending order.

    Raises for complex roots: the real-root regime is a hypothesis of every
    estimate built on top of this.
    """
    disc = (ode.a - 1.0) ** 2 - 4.0 * ode.b
    if disc < 0:
        raise ValueError(f"complex indicial roots (discriminant {disc:g})")
    root = np.sqrt(disc)
    g1 = 0.5 * (1.0 - ode.a + root)
    g2 = 0.5 * (1.0 - ode.a - root)
    return IndicialRoots(g1, g2)


def cusp_block_exponents(n):
    """Indicial exponent pairs of the invariant cusp blocks.

    Keys: "I" (the r^2 h11 block, shared with the trace equation "IV"),
    "II" (mixed components), "III" (trace-free torus block, exponents of
    h_ij itself).  Asserts that gamma1(I) exceeds the decay weight's exponent
    and gamma2(I) < -n+1, the gap every decay argument uses.
    """
    n = _check_dimension(n)
    r1 = indicial_roots(EulerODE(float(n), -2.0 * (n - 1)))
    r2 = indicial_roots(EulerODE(float(n), -float(n)))
    # h_ij = r^2 phi with r^2 phi'' + n r phi' = 0: exponents 0, 1-n, shifted by 2
    out = {
        "I": (r1.gamma1, r1.gamma2),
        "II": (r2.gamma1, r2.gamma2),
        "III": (2.0, float(3 - n)),
    }
    if not (r1.gamma1 > _WEIGHT_EXPONENT and r1.gamma2 < -n + 1):
        raise AssertionError("indicial gap of block I violated")
    return out


_BLOCK_WEIGHTS = {"I": 0.0, "II": 0.0, "III": -2.0}
# exponent shift from the component function to its unit-frame magnitude:
# block I already solves for r^2 h11 (weight 0), II for h1i (0), III carries
# r^2, so the frame-weighted exponent is gamma - 2.

# the growth window of the decay weight W (gluing.weight), its exponents
# -e and e; it contains 0 and, since cusp_block_exponents asserts
# gamma1(I) > e, no indicial root
_GROWTH_FLOOR, _GROWTH_CEIL = -_WEIGHT_EXPONENT, _WEIGHT_EXPONENT


def cusp_kernel_classification(n, strict=False):
    """Invariant kernel elements compatible with the growth window.

    A mode r^gamma of a block is admissible when its unit-frame magnitude
    r^(gamma + w) fits the bound r^ceil + r^floor on (0, infinity), i.e.
    floor <= gamma + w <= ceil, with floor = -e and ceil = e for the decay
    weight's exponent e.  With strict=True the bound is the two-sided
    min(r^floor, r^ceil), which no power satisfies.

    Returns (description dict, dimension).  The admissible space is exactly
    the trace-free constant torus deformations, of dimension n(n-1)/2 - 1.
    """
    n = _check_dimension(n)
    exps = cusp_block_exponents(n)

    def admissible(gamma, weight):
        e = gamma + weight
        if strict:
            return _GROWTH_CEIL <= e <= _GROWTH_FLOOR   # empty: floor < ceil
        return _GROWTH_FLOOR <= e <= _GROWTH_CEIL

    # per admissible exponent: block I is one scalar (r^2 h11; the trace
    # rides the same equation), block II has n-1 mixed components, block III
    # the trace-free torus matrices of dimension n(n-1)/2 - 1
    multiplicity = {"I": 1, "II": n - 1, "III": (n - 1) * n // 2 - 1}
    modes = {}
    dim = 0
    for block, pair in exps.items():
        ok = [g for g in pair if admissible(g, _BLOCK_WEIGHTS[block])]
        modes[block] = ok
        dim += multiplicity[block] * len(ok)
    modes["description"] = (
        "trace-free constant torus deformations" if dim else "trivial kernel")
    return modes, dim


MIN_NODES = 5       # fewest grid nodes of a two-point solve


def solve_euler_bvp(ode: EulerODE, phi, boundary, r):
    """Two-point Dirichlet solve of r^2 f'' + a r f' + b f = phi.

    Second-order differences on the (possibly nonuniform) increasing grid r;
    boundary = (f(r[0]), f(r[-1])).  phi of shape (N,) gives one solution;
    phi of shape (N, m), with boundary values of shape (m,) or scalars,
    gives m solutions, the columns of the result, from one tridiagonal
    solve of the shared matrix.
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if r.size < MIN_NODES or np.any(np.diff(r) <= 0) or r[0] <= 0:
        raise ValueError(f"need an increasing positive grid with >= {MIN_NODES} nodes")
    if phi.ndim == 2 and phi.shape[1] == 0:
        # SciPy's dgtsv wrapper corrupts the heap on a right-hand side with
        # no columns
        raise ValueError("phi has no columns: nothing to solve")
    N = r.size
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    rm = r[1:-1]
    denom = hm * hp * (hm + hp)
    # stencil weights for f'' and f' on the three points
    w2m, w20, w2p = 2.0 * hp / denom, -2.0 * (hm + hp) / denom, 2.0 * hm / denom
    w1m, w10, w1p = -hp**2 / denom, (hp**2 - hm**2) / denom, hm**2 / denom
    lo = rm**2 * w2m + ode.a * rm * w1m
    di = rm**2 * w20 + ode.a * rm * w10 + ode.b
    up = rm**2 * w2p + ode.a * rm * w1p
    ab = np.zeros((3, N))
    ab[1, 0] = 1.0
    ab[1, -1] = 1.0
    ab[1, 1:-1] = di
    ab[0, 2:] = up
    ab[2, :-2] = lo
    rhs = np.empty(phi.shape, order="F")
    rhs[0], rhs[-1] = boundary
    rhs[1:-1] = phi[1:-1]
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("Euler BVP holds infs or NaNs")
    *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs)
    check_info(info, "dgtsv")
    return x


def _bump(t):
    out = np.zeros_like(t)
    m = (t > 0.0) & (t < 1.0)
    out[m] = np.exp(-1.0 / (t[m] * (1.0 - t[m])))
    return out / np.exp(-4.0)   # normalized to peak 1 at t = 1/2


_R_MAX = np.finfo(float).max ** (1.0 / 3.0)   # the stencil forms r^3 terms


def ugly_estimate_harness(n, R, alpha, trials=50, seed=0, nodes=1024):
    """Empirical constant of the interior bound |h| < C (|h|(R) + alpha + r^(-n+1.1)).

    Each trial draws a forcing with |phi|(r) <= alpha W(r), W the decay
    weight at R (random weights on its two powers plus a smooth bump times
    W), and random boundary data of size <= 1, solves the three scalar cusp
    blocks as two-point problems on [r_+ + 1, R], and records the largest
    ratio |h|(r) / (|h|(R) + alpha + r^(-n+1.1)).  Deterministic for a given
    seed (Philox counter-based streams, one per trial).
    """
    n = _check_dimension(n)
    rp = r_plus(n)
    if not rp + 2.0 < R < _R_MAX:
        raise ValueError(f"R must exceed r_plus + 2 and stay below {_R_MAX:.3g}, got {R!r}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    trials = _check_integer(trials, "trials", 1)
    r_inner = rp + 1.0
    r = np.exp(np.linspace(np.log(r_inner), np.log(R), nodes))
    blocks = [EulerODE(float(n), -2.0 * (n - 1)),
              EulerODE(float(n), -float(n)),
              EulerODE(float(n), 0.0)]
    e = _WEIGHT_EXPONENT
    envelope = weight(WeightFunction(n, R), r)
    denom_tail = r ** (-n + 1.1)
    t = (np.log(r) - np.log(r_inner)) / (np.log(R) - np.log(r_inner))
    bump = _bump(t)
    c = np.empty((3, trials))
    ends = np.empty((2, trials))
    for m, stream in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.Generator(np.random.Philox(stream))
        c[:, m] = rng.uniform(-1.0, 1.0, size=3)
        c[:, m] /= max(1.0, np.abs(c[:2, m]).sum() + abs(c[2, m]))
        ends[:, m] = rng.uniform(-1.0, 1.0, size=2)
    # one column of forcing per trial
    phi = alpha * (c[0] * ((r / R) ** e)[:, None] + c[1] * (r ** (-e))[:, None]
                   + c[2] * bump[:, None] * envelope[:, None])
    H = np.abs(ends[1])
    # interior sup: the endpoints are data, not solution
    tail = H + alpha + denom_tail[1:-1, None]
    worst = 0.0
    for ode in blocks:
        h = solve_euler_bvp(ode, phi, (ends[0], ends[1]), r)
        worst = max(worst, float((np.abs(h[1:-1]) / tail).max()))
    return worst
