"""Decimal text of float64 arrays, as ``'%.17g' % v`` and ``repr(v)`` write it, by numpy.

The sweep writers' number formatting: one exact-digit kernel (the correctly rounded
17-digit significand of each value and its residual), ``repr``'s shortest digits on top
of it, and one layout of the digits into NUL-padded bytes, each value's text alone.  Each
value the kernel cannot place exactly is formatted by Python itself.  See README, "How a
sweep evaluates its columns".
"""

from __future__ import annotations

import functools
import types

import numpy as np

_E = 330  # offset of the tables indexed by a decimal exponent
_GROUP = np.arange(4)[:, None]  # the index of each four-digit group, one per row
_UNITS = np.array([[100.0], [10.0]])


@functools.cache
def _tables() -> types.SimpleNamespace:
    """The formats' tables, built on their first call by copies from bytes (a ufunc's first
    call costs more): per four-digit group t = 100 i + j, its digits as a 64-bit word, each
    followed by a slot for the point (``words``), and per group index its last nonzero
    digit's place among the 16, 0 for none (``places``); per group index and count shown,
    the mask of the digits kept (``keep``); the point after digit p - 1 and the sign
    (``marks``); per exponent and leading digit, the head word (``head``).  Per exponent e,
    filled on its first use (``used``): the tail words of %g and of repr (``tails``) and
    10^(16 - e) as a double-double with the halves of its high part (``p10``)."""
    tens = np.frombuffer(bytes(48 + t // 10 for t in range(100)), np.uint8)
    ones = np.frombuffer(bytes(48 + t % 10 for t in range(100)), np.uint8)
    words = np.zeros((100, 100, 8), np.uint8)
    words[:, :, 0], words[:, :, 2] = tens[:, None], ones[:, None]
    words[:, :, 4], words[:, :, 6] = tens, ones
    last2 = [(t > 0) + (t % 10 > 0) for t in range(100)]  # of 100 i + j: j's, or i's if j = 0
    places = np.empty((4, 100, 100), np.uint8)
    places[:, :, 0] = np.frombuffer(
        bytes(4 * g + v if v else 0 for g in range(4) for v in last2), np.uint8
    ).reshape(4, 100)
    places[:, :, 1:] = np.frombuffer(
        bytes(4 * g + 2 + v for g in range(4) for v in last2[1:]), np.uint8
    ).reshape(4, 1, 99)
    masks = [b"\xff\0" * c + b"\0\0" * (4 - c) for c in range(5)]
    keep = b"".join(masks[min(max(s - g - 1, 0), 4)] for g in range(0, 16, 4) for s in range(18))
    marks = np.zeros((17, 2, 48), np.uint8)
    marks[:, 1, 0] = 45
    marks[np.arange(1, 17), :, np.arange(7, 39, 2)] = 46
    head = np.zeros((2 * _E, 10, 8), np.uint8)
    head[:, :, 6] = np.frombuffer(b"0123456789", np.uint8)
    small = b"".join(z.ljust(5, b"\0") for z in (b"0.000", b"0.00", b"0.0", b"0."))  # e -4..-1
    head[_E - 4:_E, :, 1:6] = np.frombuffer(small, np.uint8).reshape(4, 1, 5)
    return types.SimpleNamespace(
        words=words.view("<u8").ravel(), places=places.reshape(4, -1),
        keep=np.frombuffer(keep, "<u8"), marks=marks.view("<u8").reshape(34, 6).T.copy(),
        head=head.view("<u8").ravel(), tails=np.zeros((2, 2 * _E), "<u8"),
        p10=np.zeros((4, 2 * _E)), used=set(),
    )


def _first_use(low: int, high: int) -> None:
    # Fills the per-exponent tables of the exponents low..high not used before.
    tables = _tables()
    new = [e for e in range(low, high + 1) if e not in tables.used]
    if new:
        powers = np.array([_power_of_ten(16 - e) for e in new])
        tables.p10[:, [_E + 16 - e for e in new]] = powers.T
        exps = b"".join(b"e%+04d\0\0\0" % e for e in new)  # "e+005" loses a "0" below
        exps = np.frombuffer(exps.replace(b"+0", b"+\0").replace(b"-0", b"-\0"), "<u8").tolist()
        tables.tails[:, [_E + e for e in new]] = [
            [0 if -4 <= e < top else x for e, x in zip(new, exps)] for top in (17, 16)
        ]  # no tail in fixed notation
        tables.used.update(new)


def _power_of_ten(k: int) -> tuple:
    # 10^k = hi + lo, both correctly rounded, and hi's Veltkamp halves.
    if k >= 0:
        hi = float(10**k)
        lo = float(10**k - int(hi))
    else:
        den = 10**-k
        hi = 1 / den
        m, b = hi.as_integer_ratio()
        lo = (b - m * den) / (den * b)
    c = 134217729.0 * hi
    return hi, c - (c - hi), hi - (c - (c - hi)), lo


def _significand(x: np.ndarray) -> tuple:
    """The exact-digit kernel of both formats: for each value, |x| 10^(16 - e) = n + r with
    e = floor(log10 |x|), n the correctly rounded 17-digit significand (int64) and |r| < 1/2,
    and the mask of the values it leaves to Python (n = e = r = 0 at zero); see README."""
    p10 = _tables().p10
    a = np.abs(x)
    zero = a == 0
    escape = ~((a > 1e-280) & (a < 1e280) | zero)
    a[escape | zero] = 1.0
    c = 134217729.0 * a  # Veltkamp's split: a = ah + al, each on 26 bits
    ah = c - (c - a)
    al = a - ah
    e = np.floor(np.log10(a)).astype(np.intp)
    _first_use(int(e.min()), int(e.max()) + 1)  # + 1: repr's rounding can carry to e + 1
    k = _E + 16 - e
    hi, hh, hl, lo = (row.take(k) for row in p10)
    p = a * hi
    q = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    rq = np.rint(q)
    r = q - rq
    n = p.astype(np.int64) + rq.astype(np.int64)
    # log10 rounded across 10^D, N rounds up to 10^17, or q is at or near a tie:
    escape |= ((p - 1e16) + q < 0) | (n >= 10**17) | (abs(r) > 0.5 - 1e-9)
    n[zero] = 0  # e is 0 there already, as r is
    return n, e, r, escape


def _shortest(x: np.ndarray, n: np.ndarray, e: np.ndarray, r: np.ndarray, escape: np.ndarray):
    """``repr``'s digits of each value, as a 17-digit significand and its exponent: the
    multiple of 100 nearest X = n + r if it lies strictly within h of X, else that of 10 if it
    does, else n; h is half the spacing of doubles at x in units of 10^(e - 16).  Adds to
    ``escape`` the powers of two and the comparisons within 1e-9 of their thresholds; see
    README."""
    mantissa, exponent = np.frexp(x)
    h = np.ldexp(_tables().p10[0].take(_E + 16 - e), exponent - 54)
    escape |= abs(mantissa) == 0.5  # a power of two: the double below is nearer than above
    t = n - n // 100 * 100  # numpy's // is faster than its %
    v = t + r  # X less the multiple of 100 at or below n
    near = np.rint(v / _UNITS) * _UNITS  # the multiples of 100 and of 10 nearest X, less it
    dist = abs(v - near)
    close = abs(dist - h) < 1e-9
    escape |= close[0] | close[1] | (abs(dist[1] - 5) < 1e-9)  # or X halfway between two
    inside = dist < h  # within 100 within 10: n moves to the first multiple inside
    n = n + (inside[1] * (near[1] - t) + inside[0] * (near[0] - near[1])).astype(np.int64)
    carry = n == 10**17  # 9.99...e(e) rounded up to 1e(e + 1)
    return n - carry * (9 * 10**16), e + carry


def _layout(x, n, e, escape, short: bool) -> np.ndarray:
    """Each value's digits n at exponent e, trailing zeros dropped, as 48 NUL-padded bytes
    in column i of a (6, len(x)) array of 64-bit words, as ``'%.17g' % v`` writes them or,
    when ``short``, as ``repr(v)`` does: fixed notation for exponents -4 to 16, or to 15
    with a digit after the point.  The format itself at the escapes."""
    tables = _tables()
    fixed = (e >= -4) & (e < 17 - short)
    groups = np.empty((4, len(n)), np.int64)  # n's last 16 digits by four
    pairs = groups[1::2]
    pairs[0] = n // 10**8
    pairs[1] = n - pairs[0] * 10**8
    lead = pairs[0] // 10**8
    pairs[0] -= lead * 10**8
    groups[::2] = pairs // 10**4
    pairs -= groups[::2] * 10**4
    last = tables.places.take(groups + 10**4 * _GROUP).max(axis=0)
    shown = np.maximum(1 + last, (e + (1 + short)) * fixed)  # with every integer digit
    point = e * fixed  # the point follows digit `point`, if a digit follows it
    point = (point + 1) * ((point >= 0) & (point < shown - 1))
    at = e + _E
    out = tables.marks.take(2 * point + np.signbit(x), axis=1)
    out[0] |= tables.head.take(at * 10 + lead)
    out[1:5] |= tables.words.take(groups) & tables.keep.take(shown + 18 * _GROUP)
    out[5] = tables.tails[int(short)].take(at)
    todo = np.flatnonzero(escape)
    if len(todo):
        fmt = repr if short else "%.17g".__mod__
        texts = "".join(fmt(v).ljust(48, "\0") for v in x[todo].tolist()).encode()
        out[:, todo] = np.frombuffer(texts, "<u8").reshape(-1, 6).T
    return out


def g17(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of each value of the float64 array ``x``, laid out by ``_layout``."""
    n, e, _, escape = _significand(x)
    return _layout(x, n, e, escape, False)


def shortest(x: np.ndarray) -> np.ndarray:
    """``repr(v)`` of each value of the float64 array ``x``, laid out by ``_layout``."""
    n, e, r, escape = _significand(x)
    n, e = _shortest(x, n, e, r, escape)
    return _layout(x, n, e, escape, True)
