"""Shortest round-trip text of float64 arrays, byte for byte `repr(float(x))`.

`chars(x)` returns a uint8 matrix with one row of ASCII per value and each
row's length. The digits come from Schubfach (R. Giulietti, "The Schubfach
way to render doubles", 2020), which finds the shortest decimal that rounds
back to the double, the nearest one (ties to even digits) among those, by
64- and 128-bit integer products with a table of powers of ten. numpy has
no 128-bit integers, so each 64 x 64-bit product is formed from 32-bit
halves. The layout is that of `repr`: for the value written 0.d0 d1 ...
times 10^p, scientific notation when p < -3 or p > 16, with a signed
exponent of at least two digits; otherwise fixed notation with a `.` and at
least one fractional digit. Each value's digits and exponent go into a row
of source bytes, from which a table indexed by the value's layout (sign,
significant digits, p or the exponent's sign and width) gathers its text.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 24  # the longest repr of a float64, as '-2.2250738585072014e-308'
_DIGITS = 17  # the most significant digits a float64 needs
_K_MIN, _K_MAX = -292, 326  # the powers of ten Schubfach reads, 10^-k
_M32 = np.uint64(0xFFFFFFFF)
_POW10 = 10 ** np.arange(_DIGITS + 1, dtype=np.uint64)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False  # the cached tables are shared
    return arrays


@functools.cache
def _table() -> tuple[np.ndarray, np.ndarray]:
    """g(e) = floor(10^e 2^(127 - floor(e log2 10))) + 1 for e in
    [_K_MIN, _K_MAX], a 128-bit integer in [2^127, 2^128), as its high and
    low 64-bit words."""
    g = []
    for e in range(_K_MIN, _K_MAX + 1):
        if e >= 0:
            p = 10 ** e
            shift = 127 - (p.bit_length() - 1)
            g.append((p << shift if shift >= 0 else p >> -shift) + 1)
        else:
            p = 10 ** -e  # floor(e log2 10) = -bit_length(10^-e)
            g.append((1 << (127 + p.bit_length())) // p + 1)
    return _frozen(np.array([x >> 64 for x in g], dtype=np.uint64),
                   np.array([x & (2 ** 64 - 1) for x in g], dtype=np.uint64))


def _product(a, b1, b0):
    """(hi, lo) 64-bit words of the product of the uint64 arrays a and
    b = b1 2^32 + b0, with b1 and b0 below 2^32."""
    a1, a0 = a >> 32, a & _M32
    low = a0 * b0
    cross1 = a0 * b1
    cross2 = a1 * b0
    mid = (low >> 32) + (cross1 & _M32) + (cross2 & _M32)
    hi = a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + (mid >> 32)
    return hi, (mid << 32) | (low & _M32)


def _shifted(g_hi, g_lo, s):
    """The words (top, hi, lo) of the 128-bit g_hi 2^64 + g_lo times 2^s,
    0 < s < 64."""
    return g_hi >> (64 - s), (g_hi << s) | (g_lo >> (64 - s)), g_lo << s


def _decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, k): the digits of the shortest round-trip decimal of the finite,
    non-zero float64 values with `bits`, as the integer s, and the power of
    ten k, the value being s 10^k.

    Schubfach scales the value 4c 2^(q-2) and its rounding boundaries
    (4c +- 2) 2^(q-2) (4c - 1 below a power of two, whose lower neighbour
    is half as far) by 10^-k, to vb, vbl and vbr, four times the scaled
    numbers: each is the 192-bit product of the table's g(-k) with the
    shifted significand, divided by 2^128 and rounded to odd. The three
    products differ by g shifted, so vb's is formed in full and the
    boundaries' by one 192-bit addition or subtraction each.
    """
    frac = bits & np.uint64((1 << 52) - 1)
    biased = (bits >> 52).astype(np.int64) & 0x7FF
    normal = biased != 0
    c = np.where(normal, frac | np.uint64(1 << 52), frac)
    q = np.where(normal, biased - 1075, -1074)
    closer = (frac == 0) & (biased > 1)
    k = (q * 1262611 - np.where(closer, 524031, 0)) >> 22
    h = (q + ((-k * 1741647) >> 19) + 1).astype(np.uint64)
    g_hi, g_lo = (t.take(-k - _K_MIN) for t in _table())
    # vb from w2 2^128 + w1 2^64 + w0 = g 4c 2^h
    cp = c << (h + np.uint64(2))
    cp1, cp0 = cp >> 32, cp & _M32
    carry, w0 = _product(g_lo, cp1, cp0)
    w2, w1 = _product(g_hi, cp1, cp0)
    w1 += carry
    w2 += w1 < carry
    vb = w2 | (w1 > 1)
    # vbr from g (4c + 2) 2^h, that plus g 2^(h+1)
    top, hi, lo = _shifted(g_hi, g_lo, h + np.uint64(1))
    carry = w0 + lo < lo
    upper_hi = w1 + hi
    upper = w2 + top + (upper_hi < hi)
    upper_hi += carry
    upper += upper_hi < carry
    upper |= upper_hi > 1
    # vbl from g (4c - 2 + closer) 2^h, that minus g 2^(h+1-closer)
    top, hi, lo = _shifted(g_hi, g_lo, h + np.uint64(1) - closer)
    borrow = w0 < lo
    lower_hi = w1 - hi
    lower = w2 - top - (w1 < hi)
    lower -= lower_hi < borrow
    lower_hi -= borrow
    lower |= lower_hi > 1
    # a boundary is a candidate only when the significand is even
    odd = c & np.uint64(1)
    lower += odd
    upper -= odd
    s = vb >> np.uint64(2)
    # one digit fewer when exactly one of its two candidates is in range
    shorter = 10 * (s // np.uint64(10))
    low_in = lower <= shorter << np.uint64(2)
    high_in = (shorter + np.uint64(10)) << np.uint64(2) <= upper
    use_shorter = (s >= np.uint64(10)) & (low_in != high_in)
    shorter += np.where(high_in, np.uint64(10), np.uint64(0))
    # else s or s + 1: the one in range, or the nearer, ties to even
    low_in = lower <= s << np.uint64(2)
    high_in = (s + np.uint64(1)) << np.uint64(2) <= upper
    mid = (s << np.uint64(2)) + np.uint64(2)
    up = np.where(low_in != high_in, high_in,
                  (vb > mid) | ((vb == mid) & (s & np.uint64(1)).astype(bool)))
    return np.where(use_shorter, shorter, s + up), k


@functools.cache
def _quads() -> np.ndarray:
    """The ASCII of 0000 .. 9999, four bytes each, as one uint32 word each."""
    i = np.arange(10000)
    ascii = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
    return _frozen((ascii.astype(np.uint8) + ord("0")).view(np.uint32).ravel())[0]


# A value's source row, 7 words of 4 bytes: '000' and its 17 digits, digit m
# (0 most significant) at byte 3 + m; the 4 digits of |exponent|; '.e-+'.
_SOURCE = np.frombuffer(b".e-+", dtype=np.uint32)
_ZERO, _EXPONENT, _DOT, _E, _MINUS, _PLUS = 0, 21, 24, 25, 26, 27
_FIXED = range(-3, 17)  # decimal point positions p written in fixed notation
_GATHER = 1024  # rows gathered at once: an 8 x WIDTH-byte index per row


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """(source bytes, length) of the text of each layout key, see chars."""
    index, length = [], []
    for cls in range(len(_FIXED) + 4):
        for nd in range(1, _DIGITS + 1):
            digits = [3 + m for m in range(nd)]
            if cls < len(_FIXED):
                p = _FIXED[cls]
                if p <= 0:
                    body = [_ZERO, _DOT] + [_ZERO] * -p + digits
                else:  # digits past the significant ones hold '0'
                    body = list(range(3, 3 + p)) + [_DOT] + (digits[p:] or [3 + p])
            else:
                negative, wide = divmod(cls - len(_FIXED), 2)
                body = digits[:1] + ([_DOT] + digits[1:] if nd > 1 else [])
                body += [_E, _MINUS if negative else _PLUS]
                body += list(range(_EXPONENT + 1 - wide, _EXPONENT + 3))
            for text in (body, [_MINUS] + body):
                length.append(len(text))
                index.append(text + [_ZERO] * (WIDTH - len(text)))
    return _frozen(np.array(index, dtype=np.uint8), np.array(length))


def chars(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(text, length): row i of the uint8 matrix `text`, of WIDTH columns,
    holds repr(float(x[i])) in its first length[i] bytes, for finite x."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    neg = (bits >> 63).astype(np.intp)
    bits = bits & np.uint64((1 << 63) - 1)
    zero = bits == 0  # Schubfach has no answer for 0
    s, k = _decimal(bits)
    s[zero] = 0
    count = np.searchsorted(_POW10, s, side="right")  # digits in s
    point = k + count  # the value is 0.d0 d1 d2 ... times 10^point
    point[zero] = 1
    exponent = np.abs(point - 1)
    # 17 digits, with trailing zeros; below 10^17 < 2^63, so signed
    s = (s * _POW10[_DIGITS - count]).view(np.int64)
    quads = _quads()
    source = np.empty((len(s), 7), dtype=np.uint32)
    for word, scale in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4, 1)):
        head = s // scale
        source[:, word] = quads.take(head)
        s -= head * scale
    source[:, 5] = quads.take(exponent)
    source[:, 6] = _SOURCE
    source = source.view(np.uint8)
    # digits up to the last that is not 0
    significant = _DIGITS - np.argmax(source[:, _DIGITS + 2:2:-1] != ord("0"), axis=1)
    significant[zero] = 1
    fixed = (point >= _FIXED[0]) & (point <= _FIXED[-1])
    cls = np.where(fixed, point - _FIXED[0],
                   len(_FIXED) + 2 * (point < 1) + (exponent >= 100))
    key = (cls * _DIGITS + significant - 1) * 2 + neg
    index, length = _layouts()
    layout = index.take(key, axis=0)
    text = np.empty_like(layout)
    # gathered _GATHER rows at a time, which bounds the intp index array
    for start in range(0, len(text), _GATHER):
        rows = np.arange(start, min(start + _GATHER, len(text)))[:, None]
        np.take(source, layout[start:start + _GATHER] + rows * source.shape[1],
                out=text[start:start + _GATHER])
    return text, length.take(key)
