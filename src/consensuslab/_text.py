"""Float text for the CSV and JSON writers, vectorized with numpy.

`dynamics.append_csv` and `cli._json_text` import this module when they
first format, so only a process that writes such text loads it.

`format_g17` prints a table exactly as Python's "%.17g" prints each cell,
but with array arithmetic instead of one correctly rounded bignum `dtoa`
call per cell.  A cell x with 1e-4 <= |x| < 1e17 prints in fixed notation,
so its text is fixed by the 17-digit integer N = round(|x| 10^(16-E)), with
E = floor(log10 |x|), and the decimal point position E + 1.  Dekker's error-
free TwoProduct gives |x| 10^(16-E) = hi + lo exactly (10^(16-E) is an exact
double for 16 - E <= 20); hi >= 1e16 > 2^53 is an even integer, so
hi + rint(lo) is the half-even rounding that `dtoa` does.  N is split into a
lead digit and four 4-digit groups, looked up as ASCII words.  A cell's
7-word record holds them twice, digit j at byte 3 + j and 7 + j, under masks
chosen by (sign, point position P = E + 1, digits kept) that add the sign or
"-0.000" prefix and the "." at byte 6 + P; the last word is the separator.
Records are word-major, so each lookup and mask runs over a contiguous row
of cells; one transpose puts them in cell order, and dropping the NULs
leaves the text.  Every other cell (zeros, subnormals, |x| < 1e-4 or
|x| >= 1e17, inf and NaN) gets the record "%.17g", and one `%` call over
the table's text has Python print them all.

`format_repr` prints floats as Python's shortest round-trip `repr` does
(Steele & White; Gay's `dtoa` mode 0), on the same TwoProduct and tables.
Its digits are those of the first correctly rounded 15-, 16- or 17-digit
decimal that reads back as x: a rounding interval of a double holds at most
one 15-digit decimal, and the 17-digit one always reads back.  Whether a
decimal reads back is decided exactly, in int64 (see `_shortest`).  Only
1e-4 <= |x| < 1e16, which repr prints in fixed notation, takes this path,
an integral value with ".0"; every other cell falls back to "%r".
"""
import functools

import numpy as np


_RECORD_WORDS = 7  # 4-byte words of a fast-path record (see the module docstring)


@functools.cache
def _tables():
    """The tables of `format_g17` and `format_repr` by name, built on first use.

    ``groups[g]`` is the ASCII of "%04d" % g as a "<u4" word and
    ``trailing[g]`` its count of trailing zeros (4 for 0).  ``layouts`` has a
    column per (sign, P, digits kept): the record's fixed bytes, then 0xFF
    over the digits of each copy; ``repr_layouts`` adds repr's ".0" after an
    integral value.  ``powers`` holds 10^k for k = 0..20 with their Veltkamp
    halves, ``fives`` 5^k.
    """
    g = np.arange(10_000, dtype=np.int16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.int16)
    groups = (ord("0") + g // place % 10).astype(np.uint8).view("<u4").ravel()
    trailing = np.count_nonzero(g % (10 * place) == 0, axis=1)

    j, byte = np.arange(17), np.arange(24)
    point, kept = np.arange(-3, 18)[:, None, None], np.arange(1, 18)[:, None]
    prefixes = b"".join(
        (sign + (b"0." + b"0" * -p if p <= 0 else b"\0" * 4)).rjust(7, b"\0")
        for sign in (b"", b"-") for p in range(-3, 18))
    rec = np.zeros((2, 2, 21, 17, 28 + 20 + 20), np.uint8)  # g17/repr, sign, P, kept
    rec[..., :7] = np.frombuffer(prefixes, np.uint8).reshape(2, 21, 1, 7)
    rec[..., 31:48] = 0xFF * (j < point)
    rec[..., 51:68] = 0xFF * ((np.maximum(point, 0) <= j) & (j < kept))
    dot = (byte == 6 + point) & (1 <= point)
    np.copyto(rec[0, ..., :24], ord("."), where=dot & (point < kept))
    np.copyto(rec[1, ..., :24], ord("."), where=dot)
    np.copyto(rec[1, ..., :24], ord("0"), where=(byte == 7 + point) & (point >= kept))
    layouts, repr_layouts = np.ascontiguousarray(
        rec.reshape(2, 714, -1).view("<u4").transpose(0, 2, 1))

    powers = 10.0 ** np.arange(21)
    split = powers * 134217729.0
    powers_hi = split - (split - powers)
    return {"groups": groups, "trailing": trailing, "layouts": layouts,
            "repr_layouts": repr_layouts,
            "powers": (powers, powers_hi, powers - powers_hi),
            "fives": 5 ** np.arange(21)}


def _scaled(ax, j, powers):
    """hi, lo with hi + lo = ax * 10^j exactly (Dekker's TwoProduct)."""
    p, p_hi, p_lo = (table.take(j) for table in powers)
    hi = ax * p
    split = ax * 134217729.0
    a_hi = split - (split - ax)
    a_lo = ax - a_hi
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi, lo


def _exact_17(ax, powers):
    """(E, H, lo) with H + lo = ax * 10^(16 - E) exactly in [1e16, 1e17), for
    1e-4 <= ax < 1e17: E = floor(log10 ax), H an even int64 and |lo| <= 8."""
    # floor(log10) can be one off next to a power of ten: test the exact
    # product against [1e16, 1e17) and move E where it is outside
    e = np.minimum(np.floor(np.log10(ax)), 16).astype(np.int64)
    hi, lo = _scaled(ax, 16 - e, powers)
    shift = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
    shift -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    if shift.any():
        e += shift
        hi, lo = _scaled(ax, 16 - e, powers)
    # hi >= 1e16 > 2^53 is an even integer
    return e, hi.astype(np.int64), lo


def _records(x, n, e, layouts):
    """The records of cells x whose text has the digits of the 17-digit
    integer n and the point after digit E + 1, one row of x per word."""
    tables = _tables()
    parts = np.empty((5, n.size), np.int64)  # the lead digit, 4-digit groups
    for k in (4, 3, 2, 1):
        q = n // 10_000
        parts[k], n = n - q * 10_000, q
    parts[0] = n
    g1, g2, g3, g4 = parts[1:]
    trailing = tables["trailing"]
    zeros = trailing.take(g4) + (g4 == 0) * (trailing.take(g3) + (g3 == 0) * (
        trailing.take(g2) + (g2 == 0) * trailing.take(g1)))
    rec = layouts.take(((x < 0) * 21 + e + 4) * 17 + (16 - zeros), axis=1)
    masks = rec[_RECORD_WORDS:].reshape(2, 5, -1)
    masks &= tables["groups"].take(parts)
    rec[:5] |= masks[0]
    rec[1:6] |= masks[1]
    return rec[:_RECORD_WORDS]


def _g17_records(x):
    """The records of cells x with 1e-4 <= |x| < 1e17."""
    tables = _tables()
    e, hi, lo = _exact_17(np.abs(x), tables["powers"])
    # half-even, as hi is even; no carry to 10^17: a double below 10^(E+1)
    # is further from it than half a unit in the 17th digit
    return _records(x, hi + np.rint(lo).astype(np.int64), e, tables["layouts"])


def _shortest(x, e, hi, lo, fives):
    """repr's digits of cells x with 1e-4 <= |x| < 1e16, as a 17-digit int64
    N (a 15- or 16-digit decimal padded with zeros), or 10^17.

    They are those of the first correctly rounded 15-, 16- or 17-digit
    decimal that reads back as x; the 17-digit one always does.  A decimal
    reads back as x iff it lies within half an ulp of x, a bound counting
    as inside iff x's significand is even, and the lower half-gap of a
    power of two is half as wide.  With x = M 2^a and P = x 10^j = hi + lo
    (j = 16 - E), the test runs in int64, in units of 2^(a+j-2): there lo
    and the half-gaps 2 * 5^j and 5^j are integers, and as 2^(a+j) lies in
    [1e-14, 4.5], lo stays below 2^53 and a candidate's distance from P
    below 2^56.  In the fast window no 15- or 16-digit candidate was seen
    on a bound, and every power of two reads the same with either lower
    half-gap (the tests check all of them); the test is exact regardless.
    """
    bits = x.view(np.int64)
    j = 16 - e
    shift = 1077 - ((bits >> 52) & 0x7FF) - j  # 2 - a - j, 0..49
    lo_units = np.ldexp(lo, shift).astype(np.int64)
    even = ~bits & 1
    upper = 2 * fives.take(j)
    # inside iff -(lower half-gap) - even < gap < upper half-gap + even
    below = np.where(bits & ((1 << 52) - 1) == 0, upper // 2, upper) + even
    upper += even
    # P = whole + frac with 0 <= frac < 1, both exact: lo is a multiple of
    # 2^(a+j) >= 2^-47 below 8 in magnitude
    floor = np.floor(lo)
    whole = hi + floor.astype(np.int64)
    # the nearest decimals of 16 and 15 digits, ties to even
    units = np.array([[10], [100]])
    q, r = np.divmod(whole, units)
    n = (q + (r + ((lo > floor) | (q & 1)) > units // 2)) * units
    gap = ((n - hi) << shift) - lo_units
    fits = (-below < gap) & (gap < upper)
    best = np.where(fits[0], n[0], hi + np.rint(lo).astype(np.int64))
    return np.where(fits[1], n[1], best)


def _repr_records(x):
    """The records of cells x with 1e-4 <= |x| < 1e16."""
    tables = _tables()
    e, hi, lo = _exact_17(np.abs(x), tables["powers"])
    n = _shortest(x, e, hi, lo, tables["fives"])
    carry = n == 10 ** 17  # rounding to 15 or 16 digits reached 10^(E+1)
    return _records(x, np.where(carry, 10 ** 16, n), e + carry,
                    tables["repr_layouts"])


def _format(x, fast, records, fallback, sep):
    """The text of cells x, each followed by its word of `sep`, which is
    repeated over x; a cell outside `fast` gets the record `fallback`, a %
    format that Python's % operator fills in."""
    all_fast = fast.all()
    if all_fast:
        rec = records(x)
    else:
        rec = np.repeat(np.frombuffer(fallback.ljust(4 * _RECORD_WORDS, b"\0"),
                                      "<u4")[:, None], x.size, axis=1)
        if fast.any():
            rec[:, fast] = records(x[fast])
    rec[-1].reshape(-1, sep.size)[:] = sep
    text = rec.T.tobytes().translate(None, b"\0").decode("ascii")
    # Python formats every fallback cell in one call
    return text if all_fast else text % tuple(x[~fast].tolist())


def format_g17(table):
    """The cells of a 2-D table as "%.17g" prints them, "," between cells and
    "\\n" after each row, as one string (see the module docstring)."""
    table = np.asarray(table, dtype=np.float64)
    x = table.ravel()
    ax = np.abs(x)
    sep = np.frombuffer(b",\0\0\0" * (table.shape[1] - 1) + b"\n\0\0\0", "<u4")
    return _format(x, (ax >= 1e-4) & (ax < 1e17), _g17_records, b"%.17g", sep)


def format_repr(values, sep):
    """`sep`.join(map(repr, values)) for the floats of a 1-D array, as one
    string (see the module docstring)."""
    x = np.asarray(values, dtype=np.float64)
    ax = np.abs(x)
    text = _format(x, (ax >= 1e-4) & (ax < 1e16), _repr_records, b"%r",
                   np.frombuffer(b"\n\0\0\0", "<u4"))
    # repr prints no newline, so each "\n" is a separator
    return text[:-1].replace("\n", sep)
