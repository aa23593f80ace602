"""The vectorized CSV writer against Python's own "%.17g", value by value."""

from decimal import Decimal

import numpy as np
import pytest

from dehnfill import _csvtext
from dehnfill._csvtext import csv_lines


def _per_value(table):
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())


def _differences(table):
    """The first lines where csv_lines differs from "%.17g" a value (a short
    list, for a readable failure)."""
    got, want = csv_lines(table).split("\n"), _per_value(table).split("\n")
    if len(got) != len(want):
        return [("lines", len(got), len(want))]
    return [(g, w) for g, w in zip(got, want) if g != w][:5]


def _fast_share(x):
    """The share of the values of x that take the vectorized path."""
    a, e, ok = _csvtext._decades(np.ravel(x))
    return (_csvtext._digits(a, e)[1] & ok).mean()


def _half_way_cases():
    """Doubles m 2^-k with exactly 18 significant digits, the last a 5: the
    17-digit rounding is a tie, which "%.17g" breaks to even."""
    m = np.arange(1, 4001, 2, dtype=np.float64)
    x = np.concatenate([m * 2.0 ** -k for k in range(20, 64)])
    ties = [v for v in x.tolist() if len(Decimal(v).as_tuple().digits) == 18]
    assert len(ties) > 1000
    return np.array(ties)


def _near_ties():
    """Doubles x = m 2^-(d+p) with x 10^p = D + 1/2 +- 2^-d, d > 20: within
    2^-20 of a tie but not on one, so their rounding needs the fallback."""
    near = []
    for p in range(24):
        for d in range(21, 2 * p + 10):
            inverse = pow(5 ** p, -1, 2 ** d)
            least = -(-10 ** 16 * 2 ** d // 5 ** p)     # x 10^p >= 10^16
            for offset in (1, -1):
                m = least + ((2 ** (d - 1) + offset) * inverse - least) % 2 ** d
                if m < 2 ** 53 and m * 5 ** p < 10 ** 17 * 2 ** d:
                    near.append(m / 2 ** (d + p))    # exact
    assert len(near) > 100
    return np.array(near)


def _cases(rng):
    bits = rng.integers(0, 2 ** 63, 60000, dtype=np.uint64).view(np.float64)
    finite = bits[np.isfinite(bits)]
    subnormal = rng.integers(1, 2 ** 52, 2000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(30000) * 10.0 ** rng.integers(-30, 30, 30000)
    short = rng.integers(-10 ** 6, 10 ** 6, 20000) / 10.0 ** rng.integers(0, 7, 20000)
    tens = 10.0 ** np.arange(-323, 309)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, np.finfo(float).max,
               2.0 ** -25, 1e16, 1e17, 1e-4, 1e-5, 0.0001, 123456789012345680.0]
    decades = np.concatenate([rng.uniform(1, 10, 5000) * 10.0 ** d
                              for d in (-5, -4, 16, 17)])
    x = np.concatenate([finite, -finite, subnormal, -subnormal, scaled, short, special,
                        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                        _half_way_cases(), _near_ties(), decades])
    return x[:x.size // 7 * 7].reshape(-1, 7)


@pytest.mark.parametrize("seed", [0, 1])
def test_every_value_reads_as_percent_17g_writes_it(seed):
    table = _cases(np.random.default_rng(seed))
    assert table.size >= 10 ** 5
    assert not _differences(table)


def test_few_values_take_the_fallback():
    rng = np.random.default_rng(2)
    scaled = rng.standard_normal(20000) * 10.0 ** rng.integers(-30, 30, 20000)
    assert _fast_share(scaled) > 0.99
    for ties in (_half_way_cases(), _near_ties()):
        assert _fast_share(ties) == 0.0     # every one goes to "%.17g"
        assert not _differences(np.column_stack([ties, -ties]))


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (5, 1), (1, 9), (4097, 1), (3, 4096)])
def test_table_shapes(shape):
    table = np.random.default_rng(3).standard_normal(shape) * 1e3
    assert not _differences(table)


def test_views_and_other_dtypes():
    base = np.random.default_rng(4).standard_normal((300, 6))
    for table in (base.T, base[::3, ::2], base.astype(np.float32), np.arange(12).reshape(4, 3)):
        assert not _differences(table)
