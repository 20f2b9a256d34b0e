"""`"%.17g" % v` of a whole float64 array at once, in numpy integer arithmetic.

`g17_matrix(values)` returns one NUL-padded row of ASCII bytes per value;
removing the NULs from a row leaves exactly the bytes of `"%.17g" % v`.
The padding sits where `%g` drops a character (stripped trailing zeros, a
point with no digits after it, an absent sign or exponent), so the parts of
a row keep fixed columns, and a caller can lay rows side by side and remove
the NULs of the whole text at once.

Values with 1e-11 < |v| < 1e17 are converted exactly in integer
arithmetic: |v| = M 2^E with a 53-bit integer M, and the 17 significant
digits are D = round-half-even(M 5^q 2^(E+q)) with q = 16 - k for the
decimal exponent k of |v|.  5^27 < 2^63, so q in [0, 27] keeps every factor
in a uint64 and the product in two uint64 limbs.  Every other value (zero,
subnormals, tiny or huge magnitudes, inf and nan) is formatted by Python,
one value at a time.  Only numpy operations of numpy 1.24 are used.
"""

from __future__ import annotations

import numpy as np

K_MIN, K_MAX = -11, 16  # decimal exponents of the exact range; q = 16 - k lies in [0, 27]
# a row: the sign and "0.000" of fixed notation below 1; 18 digit columns,
# the 17 significant digits with a zero put in at the point's column; and
# "e-XX" of exponent notation.  "%.17g" never takes more.
WIDTH = 6 + 18 + 4

_U64 = np.uint64
_POW5 = np.array([5 ** q for q in range(17 - K_MIN)], dtype=_U64)
_POW10 = np.array([10 ** j for j in range(19)], dtype=_U64)
_MASK32 = _U64(0xFFFFFFFF)
_P16, _P17 = _U64(10 ** 16), _U64(10 ** 17)


def _tables():
    """Lookup tables of the exact conversion, built once.

    Per decimal exponent X in [K_MIN, K_MAX] (index X - K_MIN): the
    digits before the point (X + 1 in fixed notation from 1, none below 1,
    one in exponent notation); the point's column among the 18 digit
    columns (17, past the digits, below 1, where "0." leads instead); the
    "e-XX" of exponent notation as a uint32; and per sign and exponent the
    head, the sign and the "0.000" before the first digit.  The ASCII digits
    of 00..99 as uint16s and of 0000..9999 as uint32s, and the count of
    trailing zeros of 0000..9999.  Per count j of digits kept, the 18-byte
    mask of 0xFF over the first j."""
    x = np.arange(K_MIN, K_MAX + 1)
    fixed = x >= -4  # and x < 17
    whole = np.where(fixed, np.maximum(x + 1, 0), 1)
    point = np.where(x < 0, np.where(fixed, 17, 1), x + 1)
    exp = np.array([b"" if f else b"e%+03d" % v for v, f in zip(x.tolist(), fixed)], dtype="S4")
    head = np.array([sign + (b"0." + b"0" * (-v - 1) if -4 <= v < 0 else b"")
                     for sign in (b"", b"-") for v in x.tolist()], dtype="S6")
    n = np.arange(10000)
    ascii4 = (n[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    trailing4 = np.cumprod(ascii4[:, ::-1] == ord("0"), axis=1).sum(axis=1)
    keep = np.array([b"\xff" * j for j in range(19)], dtype="S18")
    return (whole, point, exp.view(np.uint32), head.view("V6"),
            ascii4[:100, 2:].copy().view(np.uint16).ravel(), ascii4.view(np.uint32).ravel(),
            trailing4, keep.view("V18"))


_WHOLE, _POINT, _EXP, _HEAD, _DIGITS2, _DIGITS4, _TRAILING4, _KEEP = _tables()


def _scaled(M: np.ndarray, E: np.ndarray, k: np.ndarray):
    """(floor(x), round-half-even carry) of x = M 2^E 10^(16 - k).

    The product M 5^q is formed in two uint64 limbs from 32-bit partial
    products and shifted right by r = -(E + q) bits, r <= 63 over the
    exact range.  Above 2^53, where E + q >= 0, M is lifted left instead,
    leaving r = 1 over an even product."""
    q = 16 - k
    s = E + q
    lift = np.maximum(s + 1, 0)
    r = (lift - s).astype(_U64)
    M = M << lift.astype(_U64)
    p = _POW5[q]
    ml, mh = M & _MASK32, M >> _U64(32)
    pl, ph = p & _MASK32, p >> _U64(32)
    ll = ml * pl
    mid = ml * ph + mh * pl  # < 2^63 + 2^59
    lo = ll + (mid << _U64(32))
    hi = mh * ph + (mid >> _U64(32)) + (lo < ll)
    floor = (lo >> r) | (hi << (_U64(64) - r))
    half = _U64(1) << (r - _U64(1))
    rest = lo & ((half << _U64(1)) - _U64(1))
    # above half rounds up, and so does half itself when floor is odd
    return floor, rest + (floor & _U64(1)) > half


def _decades(a: np.ndarray) -> np.ndarray:
    """floor(log10(a)) in [K_MIN, K_MAX]: the decimal exponent of each a, or
    one off where a lies within a few ulps of a power of ten."""
    return np.clip(np.floor(np.log10(a)), K_MIN, K_MAX).astype(np.int64)


def _exact_digits(a: np.ndarray):
    """(17 significant digits as an integer, decimal exponent) of 1e-11 < a < 1e17.

    The exponent is estimated by _decades and corrected from the truncated
    scaled value, so an estimate one too high cannot round 9.99..95 up into
    the range of the wrong exponent.  No double of the range lies close
    enough below a power of ten for its digits to round up to 10^17."""
    m, e = np.frexp(a)
    M = (m * 2.0 ** 53).astype(_U64)
    E = e.astype(np.int64) - 53
    k = _decades(a)
    D, up = _scaled(M, E, k)
    miss = np.flatnonzero((D < _P16) | (D >= _P17))
    k[miss] += np.where(D[miss] >= _P17, 1, -1)
    D[miss], up[miss] = _scaled(M[miss], E[miss], k[miss])
    return D + up, k


def _layout(D: np.ndarray, X: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """(count, WIDTH) NUL-padded rows of %g with 17 digits D and exponent X."""
    count = D.size
    ix = X - K_MIN
    point = _POINT[ix]
    # D with a zero digit put in after its first `point` digits, 18 digits:
    # two, then four groups of four
    split = _POW10[17 - point]
    lead = D // split
    D = (lead * (split * _U64(10)) + (D - lead * split)).view(np.int64)
    upper = D // 10 ** 8
    top = upper // 10 ** 8
    groups = []
    for eight in (upper - top * 10 ** 8, D - upper * 10 ** 8):
        four = eight // 10 ** 4
        groups += [four, eight - four * 10 ** 4]
    trailing = np.zeros(count, dtype=np.int64)  # zero digits at the end of the 18
    zero = np.ones(count, dtype=bool)
    for g in [*groups[::-1], top]:
        trailing += zero * _TRAILING4[g]
        zero &= g == 0
    ndig = 18 - trailing
    rows = np.empty((count, WIDTH), dtype=np.uint8)
    rows[:, :6] = np.take(_HEAD, ix + negative * _EXP.size).view(np.uint8).reshape(count, 6)
    rows.view(np.uint16)[:, 3] = _DIGITS2[top]
    words = rows.view(np.uint32)
    for i, g in enumerate(groups):
        words[:, 2 + i] = _DIGITS4[g]
    words[:, 6] = _EXP[ix]
    # zeros at the end of the fraction become NUL, and so does the point
    # when no digit follows it
    keep = np.take(_KEEP, np.maximum(ndig, _WHOLE[ix]))
    rows[:, 6:24] &= keep.view(np.uint8).reshape(count, 18)
    rows[np.arange(count), 6 + point] = np.where(ndig > point, ord("."), 0)
    return rows


def records(matrix: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous 2-D uint8 array as one 1-D array of void
    items, which numpy gathers and scatters whole."""
    return matrix.view(f"V{matrix.shape[1]}").ravel()


def text_matrix(strings: list[str], width: int = 0) -> np.ndarray:
    """(len(strings), max(width, longest)) uint8 of ASCII strings, NUL-padded on the right."""
    width = max([width, *map(len, strings)])
    return np.array(strings, dtype=f"S{width}").view(np.uint8).reshape(len(strings), width)


def g17_matrix(values: np.ndarray) -> np.ndarray:
    """(len(values), WIDTH) NUL-padded uint8 rows, one per value of a 1-D
    float64 array, whose non-NUL bytes are those of "%.17g" % v."""
    values = np.asarray(values, dtype=np.float64)
    a = np.abs(values)
    fast = (a > 1e-11) & (a < 1e17)  # the double 1e-11 lies below 10^-11
    rows = _layout(*_exact_digits(np.where(fast, a, 1.0)), values < 0)
    slow = np.flatnonzero(~fast)
    records(rows)[slow] = records(text_matrix(["%.17g" % v for v in values[slow].tolist()],
                                              WIDTH))
    return rows
