"""The CSV text of a float table, each value written as "%.17g" % value.

Python's "%.17g" runs correctly rounded dtoa on one value at a time, about
0.5 us a value.  Here numpy finds the 17 significant digits of a block of
values at once.  With e = floor(log10 |x|), the scaled value
v = |x| 10^(16-e) lies in [10^16, 10^17), and the integer D nearest to it
holds the digits.  v is formed as a double-double (Dekker, "A
floating-point technique for extending the available precision", 1971):
hi + err = |x| P_hi exactly, by the two-product, and lo = err + |x| P_lo,
where P_hi + P_lo is 10^(16-e) to within 2^-106 relative.

The error bound.  For |x| in [1e-280, 1e280] nothing overflows or
underflows, and v < 2^57.  Three roundings remain: P_hi + P_lo itself,
|x| P_lo, and the sum into lo (|lo| < 32).  Each costs at most 2^-49, so v
is off by less than 2^-47.  A value passes to "%.17g" itself when its v lies
within 2^-20 of a half-way point D + 1/2, or within 128 of either end of
[10^16, 10^17), where the rounding or the decade could differ.  So do 0,
inf, nan and every |x| outside that range.

The layout.  "%.17g" writes e = -4..16 in fixed notation and other decades
in scientific notation, with trailing zeros and a bare point dropped.  Each
value gets a cell of _WIDTH bytes: its separator, its sign, then its text,
a zero byte marking each unused place.  The layout of the text is one of
_CLASSES, set by e alone, so the values are sorted by class and each class
is laid out by slices.  Dropping the zero bytes joins the cells.
"""

import numpy as np

_BLOCK = 4096                   # values laid out at once, in whole rows
_TINY, _HUGE = 1e-280, 1e280
_MARGIN = 2.0 ** -20
_SPLIT = 2.0 ** 27 + 1.0        # Dekker's splitter for 53-bit doubles
_E_MIN, _E_MAX = -300, 300      # past the decades of [1e-280, 1e280]
_WIDTH = 25                     # separator, sign, "d.dddddddddddddddde-ddd"
# classes 0..20 are the fixed decades e = -4..16; then the scientific ones:
# e < -99, -99 <= e < -4, 16 < e < 100, e >= 100
_FIXED, _CLASSES = 21, 25
_CLASS = np.arange(_E_MIN, _E_MAX + 1)          # the class of each decade
_CLASS = np.select([_CLASS < -99, _CLASS < -4, _CLASS <= 16, _CLASS < 100],
                   [21, 22, _CLASS + 4, 23], 24).astype(np.int8)

# 10^(16-e) as a double-double (hi, lo), with hi split by Dekker's splitter:
# the rows hi, head of hi, tail of hi, lo; filled per decade on first use
_POW = np.full((4, _E_MAX - _E_MIN + 1), np.nan)
# the four ASCII digits of 0..9999 as one uint32; then the same with their
# trailing zeros as zero bytes, for the last nonzero group of a value's
# digits and those after it
_CUT = 10000
_GROUP = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy() + np.uint8(ord("0"))
_GROUP = np.concatenate([_GROUP, _GROUP * ~np.logical_and.accumulate(
    _GROUP[:, ::-1] == ord("0"), axis=1)[:, ::-1]]).view(np.uint32).ravel()


def _pow10(e):
    """The row of _POW for decade e."""
    p = 16 - e
    num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
    hi = num / den                              # int / int rounds correctly
    h_num, h_den = hi.as_integer_ratio()
    return (hi, *_split(hi), (num * h_den - h_num * den) / (den * h_den))


def _split(a):
    t = _SPLIT * a
    head = t - (t - a)
    return head, a - head


def _decades(x):
    """|x|, with 1 in place of each value outside [1e-280, 1e280] (0, inf
    and nan among them); its decade e = floor(log10 |x|); and which are in."""
    a = np.abs(x)
    ok = (a >= _TINY) & (a <= _HUGE)
    a = np.where(ok, a, 1.0)
    return a, np.floor(np.log10(a)).astype(np.intp), ok


def _digits(a, e):
    """The 17 digits of each |x| = a of decade e, ASCII with a zero byte for
    each trailing zero, and whether the fast path holds."""
    col = e - _E_MIN
    for i in np.flatnonzero(np.isnan(_POW[0]) & (np.bincount(col, minlength=_POW.shape[1]) > 0)):
        _POW[:, i] = _pow10(int(i) + _E_MIN)
    ph, bh, bl, pl = np.take(_POW, col, axis=1)
    hi = a * ph
    ah, al = _split(a)
    lo = ah * bh                                # the two-product's error, then |x| P_lo
    lo -= hi
    lo += ah * bl
    lo += al * bh
    lo += al * bl
    lo += a * pl
    r = np.rint(lo)
    fast = np.abs(lo - r) < 0.5 - _MARGIN
    fast &= (hi >= 1e16 + 64) & (hi <= 1e17 - 128)   # D = hi + r, |r| < 32
    # D = H 10^8 + L: a float quotient, then one carry (hi is an integer)
    h = np.floor(hi * 1e-8)
    low = hi - h * 1e8
    low += r
    carry = np.floor(low * 1e-8)
    h += carry
    low -= carry * 1e8
    h, low = h.astype(np.uint32), low.astype(np.uint32)    # uint32 // is fast
    # D in five groups of (up to) four digits; where all later groups are
    # zero, a group's own trailing zeros are dropped
    groups = np.empty((a.size, 5), np.uint32)
    q0 = h // 10 ** 8
    h -= q0 * 10 ** 8
    q1, q3 = h // 10 ** 4, low // 10 ** 4
    q2, q4 = h - q1 * 10 ** 4, low - q3 * 10 ** 4
    last = q4 == 0
    groups[:, 0] = q0
    groups[:, 4] = q4 + _CUT
    groups[:, 3] = q3 + np.uint32(_CUT) * last
    last &= q3 == 0
    groups[:, 2] = q2 + np.uint32(_CUT) * last
    last &= q2 == 0
    groups[:, 1] = q1 + np.uint32(_CUT) * last
    return np.take(_GROUP, groups).view(np.uint8)[:, 3:], fast


def _layout(cells, digits, power, c):
    """Lay out the cells of class c from their digits (0 where dropped) and
    their decades."""
    if c >= _FIXED:                             # d.ddde-XX, ..., d.ddde+XXX
        cells[:, 2] = digits[:, 0]
        cells[:, 3] = np.where(digits[:, 1] != 0, ord("."), 0)
        cells[:, 4:20] = digits[:, 1:]
        cells[:, 20:22] = np.frombuffer(b"e-" if c < 23 else b"e+", np.uint8)
        exp = np.take(_GROUP, np.abs(power)).view(np.uint8).reshape(-1, 4)
        wide = c in (21, 24)
        cells[:, 22:24 + wide] = exp[:, 2 - wide:]
        return
    e = c - 4
    if e < 0:                                   # 0.000ddd
        cells[:, 2:3 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)
        cells[:, 3 - e:20 - e] = digits
        return
    cells[:, 2:3 + e] = np.maximum(digits[:, :e + 1], ord("0"))    # ddd.ddd
    if e < 16:
        cells[:, 3 + e] = np.where(digits[:, e + 1] != 0, ord("."), 0)
        cells[:, 4 + e:20] = digits[:, e + 1:]


def _block(t):
    """The cells of the rows of t, joined: each value's text follows its
    separator, a newline before each row's first value, a comma before the
    others."""
    x = t.ravel()
    a, e, ok = _decades(x)
    cls = np.take(_CLASS, e - _E_MIN)
    order = np.argsort(cls, kind="stable")      # each class a run of rows
    a, e = a[order], e[order]
    digits, fast = _digits(a, e)
    cells = np.zeros((x.size, _WIDTH), np.uint8)
    counts = np.bincount(cls, minlength=_CLASSES)
    ends = np.cumsum(counts)
    for c in np.flatnonzero(counts):
        rows = slice(ends[c] - counts[c], ends[c])
        _layout(cells[rows], digits[rows], e[rows], c)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    cells = np.take(cells, inverse, axis=0)
    fast = fast[inverse] & ok
    sep = np.full(t.shape, ord(","), np.uint8)
    sep[:, 0] = ord("\n")
    sep = sep.ravel()
    neg = x < 0
    cells[:, 0] = np.where(neg, sep, 0)         # a positive value's sign place
    cells[:, 1] = np.where(neg, ord("-"), sep)  # stays empty
    for i in np.flatnonzero(~fast):
        s = np.frombuffer(("%.17g" % x[i]).encode("ascii"), np.uint8)
        cells[i, 0] = sep[i]
        cells[i, 1:] = 0
        cells[i, 1:1 + s.size] = s
    return cells[cells != 0].tobytes()


def csv_lines(table, header=""):
    """header, then the rows of a 2-D float table as CSV lines, each ending
    in a newline, each value written exactly as "%.17g" % value writes it.
    The header's bytes and the rows' are joined once and decoded once, as
    UTF-8: a header may hold any text."""
    table = np.asarray(table, dtype=np.float64)
    if not table.shape[0]:
        return header
    step = max(1, _BLOCK // table.shape[1])
    blocks = [_block(table[i:i + step]) for i in range(0, table.shape[0], step)]
    blocks[0] = blocks[0][1:]                   # no newline before the first row
    text = b"".join([header.encode("utf-8"), *blocks, b"\n"])
    del blocks                                  # before the decode's copy
    return text.decode("utf-8")
