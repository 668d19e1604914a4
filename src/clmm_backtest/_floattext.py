"""Numeric CSV text in bulk, both ways: columns to the text ``repr`` writes,
and clean decimal cells to the float64 ``float`` reads.

Writing.  A float64 is written as its shortest round-trip decimal: the
fewest significant digits that read back to the same float, the one closest
to it when several qualify, and the even last digit on a tie, as ``repr``
picks them.  ``shortest_digits`` finds them on whole numpy columns with
Dragonbox (J. Jeon, "Dragonbox: A New Floating-Point Binary-to-Decimal
Conversion Algorithm", 2020), nearest-even path with kappa = 2: one
64 x 128-bit product per value with a power of ten from a 619-row table, in
32-bit limbs of ``uint64`` words (``_wide.mul64``), and a parity product for
the one value in a hundred whose last digit a remainder cannot settle.

Every float cell has one layout: sign, integer digits, the point, fraction
digits, then an exponent suffix, as wide as the chunk of rows needs.  Cells
that ``repr`` writes positionally (1e-4 <= |x| < 1e16) mask the suffix out;
their integer part is trunc(|x|), exact there because an integer below 2**53
is itself a float, and from 2**53 to 1e16 every float is an even integer
and the odd ends of its interval are no shorter.  Other cells take ``repr``'s
``d.ddde+XX`` form; nan, inf and +-0 are fixed texts.  Signed-integer
columns take the same digit path; other dtypes are refused.  Digits go in four
at a time through a lookup table, masks turn unused slots into NULs, and
dropping the NULs from the chunk's bytes leaves the CSV text.

Reading.  ``parse_columns`` counts a price file's rows, then reads its body
in blocks of 64 KiB, each cut after its last newline, finds the separators
by byte comparison and checks that every row is clean (see ``prices``).  Each cell's digits
are read as little-endian ``uint64`` words from a stride-1 view of the
block and combined eight at a time within the word (SWAR).  A price with
significand w < 10**19 and f fraction digits becomes the float64 nearest
w 10**-f by Eisel-Lemire (D. Lemire, "Number Parsing at a Gigabyte per
Second", Software: Practice and Experience, 2021): one 64 x 128-bit product
with a truncated power of five, from a 20-row table built at import from
Python ints.  For significands below 2**64 the product is always precise
enough, so no fallback is needed (N. Mushtak and D. Lemire, "Fast Number
Parsing Without Fallback", Software: Practice and Experience, 2023).

Nothing here depends on numpy's promotion rules for Python scalars (NEP 50):
``uint64`` words only ever meet ``uint64`` scalars and arrays, and signed
lengths and exponents reach them only as indices, so the arithmetic is the
same on numpy 1.24 and 2.x.
"""

from __future__ import annotations

import numpy as np

from ._wide import mul64

_U = np.uint64
_LOW32, _32 = _U(0xFFFFFFFF), _U(32)
_LOW63, _63, _64 = _U((1 << 63) - 1), _U(63), _U(64)
_FRACTION, _HIDDEN, _U52 = _U((1 << 52) - 1), _U(1 << 52), _U(52)
_TEN, _FIFTY, _HUNDRED, _THOUSAND, _TEN4 = _U(10), _U(50), _U(100), _U(1000), _U(10_000)
_U0, _U1, _U2, _TEN15, _TEN16 = _U(0), _U(1), _U(2), _U(10 ** 15), _U(10 ** 16)

_POW10 = np.array([10 ** i for i in range(20)], dtype=_U)
# "0000" .. "9999": four ASCII digits per uint32 word
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                    axis=-1).view(np.uint32).ravel()

# Dragonbox's powers of ten, phi_k = ceil(10**k 2**(127 - floor(log2 10**k)))
# for k = -292..326, as high and low words
_K_MIN = -292
_PHI = np.zeros((2, 619), dtype=_U)


def _fill_phi(ks):
    for k in ks:
        if k >= 0:
            shift = 128 - (10 ** k).bit_length()
            phi = 10 ** k << shift if shift >= 0 else -(-10 ** k >> -shift)
        else:
            phi = -(-(1 << (127 + (10 ** -k).bit_length())) // 10 ** -k)
        _PHI[:, k - _K_MIN] = phi >> 64, phi & 0xFFFFFFFFFFFFFFFF


# Per biased exponent b: the float is fc 2**e, e = b - 1075 (subnormals as
# b = 1); its digits are found in units of 10**-k, -k = floor(log10 2**e) - 2,
# with beta = e + floor(log2 10**k), 6..9.  The rows of phi that floats
# 2**-14 <= |x| < 2**54, which can print positionally, need (k = 0..22 with
# the shorter interval's) are built at import, the rest on first use (0.9 ms).
_EXP = np.maximum(np.arange(2048), 1) - 1075
_MINUS_K = ((_EXP * 315_653) >> 20) - 2
_BETA = (_EXP + ((_MINUS_K * -1_741_647) >> 19)).astype(_U)
_fill_phi(range(0, 23))
_PHI_BY_EXP = _PHI[:, -_MINUS_K - _K_MIN]


def _strip_zeros(d, exponent, length):
    """Move the trailing zeros of ``d`` to ``exponent``, in place."""
    at, q = np.arange(len(d)), d
    while at.size:
        t = q // _TEN
        keep = t * _TEN == q
        at, q = at[keep], t[keep]
        d[at] = q
        exponent[at] += 1
        length[at] -= 1


def _shorter(b):
    """(digits, exponent, length) of the powers of two 2**52 2**(b - 1075) by
    Dragonbox's shorter-interval case: their interval below is half as wide."""
    e = b - 1075
    minus_k = (e * 631_305 - 261_663) >> 21
    hi = _PHI[0, -minus_k - _K_MIN]
    shift = (11 - e - ((minus_k * -1_741_647) >> 19)).astype(_U)    # 11 - beta
    # the interval's ends in units of 10**-k; both are in it (2**52 is even),
    # and the lower one is an integer only for e = 2, 3
    xi = ((hi - (hi >> _U(54))) >> shift) + ((e < 2) | (e > 3))
    s = ((hi + (hi >> _U(53))) >> shift) // _TEN
    big = s * _TEN >= xi
    # else the float rounded to an integer, down to even on the one tie
    y = ((hi >> (shift - _U1)) + _U1) >> _U1
    y = np.where((e == -77) & ((y & _U1) == _U1), y - _U1, y + (y < xi))
    d, exponent = np.where(big, s, y), minus_k + big
    length = _digit_count(d)
    _strip_zeros(d, exponent, length)
    return d, exponent, length


def shortest_digits(x):
    """Shortest round-trip decimal of each finite nonzero float64 in ``x``:
    ``uint64`` digits without trailing zeros, and ``int64`` decimal exponents
    and digit counts, with |x| = digits 10**exponent."""
    ab = np.ascontiguousarray(x, dtype=np.float64).view(_U) & _LOW63
    b = (ab >> _U52).astype(np.intp)
    b_lo, b_hi = b.min(), b.max()
    if (b_lo < 1023 - 14 or b_hi > 1023 + 53) and not _PHI[0, 0]:
        _fill_phi(range(_K_MIN, 327))
        _PHI_BY_EXP[...] = _PHI[:, -_MINUS_K - _K_MIN]
    fraction = ab & _FRACTION
    two_fc = (fraction | _HIDDEN) << _U1
    if b_lo == 0:           # subnormals: no hidden bit
        sub = np.flatnonzero(b == 0)
        two_fc[sub] = fraction[sub] << _U1
    hi, lo, beta = _PHI_BY_EXP[0][b], _PHI_BY_EXP[1][b], _BETA[b]
    # z: the interval's upper end (fc + 1/2) 2**e 10**k, truncated, from the
    # top of a 192-bit product; low: the word below it
    x = (two_fc | _U1) << beta
    z, low = mul64(x, hi)
    carry = mul64(x, lo)[0]
    low += carry
    z += low < carry
    delta = hi >> (_63 - beta)          # the interval's width, 100..999
    s = z // _THOUSAND
    r = z - s * _THOUSAND
    # s 10**(3 - k) is in the interval if r < delta; the upper end itself is
    # not for an odd fc, and the lower end (r = delta) needs a parity product
    at = np.flatnonzero(r == _U0)
    at = at[(low[at] == _U0) & ((two_fc[at] & _U2) != _U0)]
    s[at] -= _U1
    r[at] = _THOUSAND
    big = r < delta
    lower = np.flatnonzero(r == delta)
    # else one digit more, the one nearest the float, which a parity product
    # settles when the remainder lands on a multiple of 100
    dist = r - (delta >> _U1) + _FIFTY
    q = dist // _HUNDRED
    d = s * _TEN + q
    tie = np.flatnonzero(dist == q * _HUNDRED)
    tie = tie[~big[tie]]
    if lower.size or tie.size:      # one parity product for both
        at = np.concatenate((lower, tie))
        two_f = two_fc[at]
        two_f[:len(lower)] -= _U1
        h, l = mul64(two_f, lo[at])
        h += two_f * hi[at]
        # the last integer bit of two_f phi_k 2**(beta - 128); a zero fraction
        parity = ((h >> (_64 - beta[at])) & _U1) == _U1
        exact = ((h << beta[at]) | (l >> (_64 - beta[at]))) == _U0
        k = len(lower)
        big[lower] = parity[:k] | (exact[:k] & ((two_fc[lower] & _U2) == _U0))
        y = d[tie]
        d[tie] = y - ((parity[k:] != (((dist[tie] ^ _FIFTY) & _U1) == _U1))
                      | (exact[k:] & ((y & _U1) == _U1)))
    d = np.where(big, s, d)
    exponent = _MINUS_K[b] + 2 + big
    # s has 15 or 16 digits, the longer candidate 16 or 17
    length = np.add(d >= _TEN15, d >= _TEN16, dtype=np.int64) + 15
    _strip_zeros(d, exponent, length)
    if b_lo == 0:
        length[sub] = _digit_count(d[sub])
    at = np.flatnonzero(fraction == _U0)
    if at.size:
        d[at], exponent[at], length[at] = _shorter(b[at])
    return d, exponent, length


def _digit_count(v):
    return np.maximum(np.searchsorted(_POW10, v, side="right"), 1)


# _KEEP[r, n]: the bytes of uint32 word r, counted back from the end of a
# digit field, that lie among its last n digits
_KEEP = np.array([[sum(0xFF << 8 * i for i in range(4) if 4 * r + 4 - i <= n)
                   for n in range(21)] for r in range(6)], dtype=np.uint32)
# the point, first in a fraction field; the sign, second in an integer field
_POINT = np.array([0] + [ord(".")] * 20, dtype=np.uint32)
_SIGN = np.array([0, ord("-") << 8], dtype=np.uint32)
# inf, nan and 0.0 as the last word of a fraction field
_FIXED_TEXTS = np.frombuffer(b"\0inf\0nan\x000.0", dtype=np.uint32)
_ONE, _MAX_FINITE = np.float64(1.0).view(_U), _U(0x7FEFFFFFFFFFFFFF)


def _put_digits(v, counts, words):
    """Write ``uint64`` values as decimal text right-aligned across the
    word rows of ``words``, keeping each value's last ``counts`` digits."""
    n = len(words)
    whole = int(np.min(counts)) // 4    # the last words all values keep whole
    for r in range(n - 1, -1, -1):
        q = v // _TEN4 if r else _U0
        np.take(_DIGITS4, v - q * _TEN4, out=words[r], mode="clip")
        v = q
        if n - 1 - r >= whole:
            words[r] &= _KEEP[n - 1 - r][counts]


# A chunk's cells go into a (words, rows) table, one row per uint32 word, so
# that every write is contiguous.  A float cell is an integer field (the
# separator, the sign, the digits right-aligned), a fraction field (the point,
# the digits right-aligned) and two exponent words if the chunk needs them.

def _float_cells(x):
    """(words, fill) for a float column: its cells' width in words, and a
    function that writes them into a (words, rows) table after ``sep``."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    ab = x.view(_U) & _LOW63
    fixed = np.flatnonzero(ab - _U1 >= _MAX_FINITE)      # +-0, +-inf, nan
    ab[fixed] = _ONE
    d, exponent, length = shortest_digits(ab.view(np.float64))
    point = exponent + length           # digits before the point
    wide = np.flatnonzero((point < -3) | (point > 16))   # exponent form
    ab[wide] = _ONE                     # keeps the cast below in range
    ints = ab.view(np.float64).astype(_U)
    shift = -exponent                   # digits after the point
    fracs = d - ints * _POW10.take(shift, mode="clip")
    fracs[shift < 0] = _U0              # integers with trailing zeros
    icount, fcount = np.maximum(point, 1), np.maximum(shift, 1)
    suffix = np.zeros((2 if wide.size else 0, len(x)), dtype=np.uint32)
    if wide.size:                       # d.ddd: one digit, the rest after the point
        dw, fw = d[wide], length[wide] - 1
        lead = dw // _POW10[fw]
        ints[wide], fracs[wide] = lead, dw - lead * _POW10[fw]
        icount[wide], fcount[wide] = 1, fw
        e10 = point[wide] - 1
        mag = np.abs(e10)
        suffix[0, wide] = (e10 < 0) * (ord("-") - ord("+") << 8) + (ord("e") | ord("+") << 8)
        suffix[1, wide] = np.take(_DIGITS4, mag) & _KEEP[0][2 + (mag >= 100)]
    ni, nf = (int(icount.max()) + 5) // 4, (int(fcount.max()) + 4) // 4
    negative = x.view(_U) >> _63

    def fill(words, sep):
        _put_digits(ints, icount, words[:ni])
        words[0] |= np.take(_SIGN, negative) | np.uint32(sep)
        _put_digits(fracs, fcount, words[ni:ni + nf])
        words[ni] |= np.take(_POINT, fcount)
        words[ni + nf:] = suffix
        if fixed.size:
            v = x[fixed]
            nan = np.isnan(v)
            words[:, fixed] = 0
            words[0, fixed] = _SIGN[(np.signbit(v) & ~nan).view(np.uint8)] | np.uint32(sep)
            words[ni + nf - 1, fixed] = _FIXED_TEXTS[nan + 2 * (v == 0)]

    return ni + nf + len(suffix), fill


def _int_cells(v):
    """``_float_cells`` for a signed-integer column."""
    u = v.astype(np.int64).view(_U)
    negative = u >> _63
    magnitude = (u ^ (_U0 - negative)) + negative   # |int64 min| = 2**63
    shortest, longest = (len(str(m)) for m in (magnitude.min(), magnitude.max()))
    counts = longest if shortest == longest else _digit_count(magnitude)

    def fill(words, sep):
        _put_digits(magnitude, counts, words)
        words[0] |= np.take(_SIGN, negative) | np.uint32(sep)

    return (longest + 5) // 4, fill


def csv_text(columns, rows):
    """The CSV rows of equal-length numpy columns as bytes, ``rows`` rows at
    a time: cells as ``repr`` writes them, comma-separated, each row after a
    newline, then one newline after the last row.  Columns are signed
    integers or floats of at most 8 bytes; any other dtype is a TypeError.
    The chunks share one table: fresh ones, once past what malloc serves
    from its heap, are page-faulted in anew every chunk."""
    for c in columns:
        if not (c.dtype.kind == "i" or c.dtype.kind == "f" and c.dtype.itemsize <= 8):
            raise TypeError(f"cannot write a {c.dtype} column as CSV text")
    buf = np.empty(0, dtype=np.uint32)
    for s in range(0, len(columns[0]), rows):
        cells = [_float_cells(c) if c.dtype.kind == "f" else _int_cells(c)
                 for c in (c[s:s + rows] for c in columns)]
        n = min(rows, len(columns[0]) - s)
        width = sum(w for w, _ in cells)
        if buf.size < n * width:
            buf = np.empty(n * width, dtype=np.uint32)
        table = buf[:n * width].reshape(width, n)
        at = 0
        for w, fill in cells:
            fill(table[at:at + w], ord(",") if at else ord("\n"))
            at += w
        yield table.T.tobytes().translate(None, b"\0")
    yield b"\n"


# Reading.  A clean cell's digits are read as little-endian uint64 words
# that end at the cell's end, so its last digit is the top byte of word 0.
# Digits are ASCII 0x30-0x39, checked beforehand, so a mask of 0x0F on the
# kept bytes leaves their values and zeroes the bytes before the cell;
# masking, unlike subtracting "0", never borrows from a neighbouring byte.
_NL, _CR, _COMMA, _DOT = (np.uint8(ord(c)) for c in "\n\r,.")
_ZERO, _NINE = np.uint8(ord("0")), np.uint8(9)
# [j, n]: 0x0F on the bytes of word j, counted back from a cell's end, that
# hold digits of an n-digit cell
_DIGIT_MASKS = np.array([[(0x0F0F0F0F0F0F0F0F << 8 * (8 - min(max(n - 8 * j, 0), 8)))
                          & 0xFFFFFFFFFFFFFFFF for n in range(20)] for j in range(3)], _U)
_WORD_ENDS = np.array([8, 16, 24], dtype=np.intp)   # word j starts 8 (j + 1) bytes back
_SWAR_STEPS = ((_U(8), _TEN, _U(0x00FF00FF00FF00FF)), (_U(16), _U(100), _U(0x0000FFFF0000FFFF)),
               (_32, _TEN4, _LOW32))
_TEN8 = _U(10 ** 8)
# a block's working arrays take about ten times its bytes: at 64 KiB a load
# peaks near the size of the columns it fills
_BLOCK_BYTES = 1 << 16
# "0" digits in front of every block, so that the three words ending at any
# cell lie inside it; the longest clean row before its "\n": an 18-digit
# timestamp, a comma, 19 digits with a point, and "\r"
_PAD, _ROW_MAX = 24, 40
_PAD_BYTES = b"0" * _PAD


def _five_table():
    """Eisel-Lemire's 128-bit truncated 5**-f for f = 0..19 fraction digits,
    top bit at 127 (fast_float's ``2**b // 5**f + 1``, and 2**127 for f = 0),
    as high and low words, with the exponent field of the product of each
    and a significand with its top bit set, less the one the rounded
    significand's hidden bit adds."""
    rows = []
    for f in range(20):
        p = 5 ** f
        c = 1 << 127 if f == 0 else (1 << (p.bit_length() + 127)) // p + 1
        # fast_float's power(-f) = floor(-f log2(10)) + 63, biased by 1023
        rows.append((c >> 64, c & 0xFFFFFFFFFFFFFFFF, ((-217_706 * f) >> 16) + 63 + 1022))
    hi, lo, exp = zip(*rows)
    return np.array(hi, _U), np.array(lo, _U), np.array(exp, _U)


_FIVE_HI, _FIVE_LO, _FIVE_EXP = _five_table()
_LOW9, _U3, _U9, _U1086 = _U(0x1FF), _U(3), _U(9), _U(1086)


def _digit_values(words, end, length):
    """``uint64`` values of the digit strings of 0-19 digits that end at
    byte ``end`` of the stride-1 word view ``words``."""
    k = (int(length.max()) + 7) // 8
    if k == 0:
        return np.zeros(len(end), dtype=_U)
    w = words[end - _WORD_ENDS[:k, None]]       # (k, rows): word j ends 8 j bytes back
    w &= np.take(_DIGIT_MASKS[:k], length, axis=1)
    # SWAR: digit pairs in 16-bit lanes, then fours in 32-bit lanes, then eight
    for shift, scale, lanes in _SWAR_STEPS:
        low = w >> shift
        w *= scale
        w += low
        w &= lanes
    v = w[k - 1]
    for j in range(k - 2, -1, -1):
        v = v * _TEN8 + w[j]
    return v


def decimal_to_float(w, f):
    """The float64 nearest w 10**-f, ties to even, for ``uint64`` w < 10**19
    and 0 <= f <= 19 (Eisel-Lemire; exact without a fallback in this range)."""
    # normalise w: its leading zeros from the exponent of w as a float64,
    # one short when the conversion carries w up to a power of two
    lz = _U1086 - (w.astype(np.float64).view(_U) >> _U52)
    x = w << lz
    short = _U1 - (x >> _63)
    x <<= short
    lz += short
    hi, lo = mul64(x, _FIVE_HI[f])
    fix = np.flatnonzero((hi & _LOW9) == _LOW9)
    if fix.size:    # the 9 bits below the result may carry from the low word
        carry = mul64(x[fix], _FIVE_LO[f[fix]])[0]
        low = lo[fix] + carry
        hi[fix] += (low < carry).astype(_U)
        lo[fix] = low
    upper = hi >> _63
    shift = upper + _U9
    m = hi >> shift             # 54 or 55 bits: the result and a rounding bit
    # a product with nothing below the rounding bit is a decimal tie (only
    # possible for f <= 4): round it to even instead of up
    tie = np.flatnonzero(lo <= _U1)
    if tie.size:
        tie = tie[(f[tie] <= 4) & ((m[tie] & _U3) == _U1) & (m[tie] << shift[tie] == hi[tie])]
        m[tie] ^= _U1
    # the rounded significand's hidden bit adds one to the exponent field,
    # and two when rounding carries it to 2**53
    bits = ((_FIVE_EXP[f] + upper - lz) << _U52) + ((m + _U1) >> _U1)
    bits[w == _U0] = _U0
    return bits.view(np.float64)


def _parse_block(block, price_col, ts_col):
    """(prices, timestamps) of one block of clean rows after ``_PAD`` digits,
    or None if any row is not clean."""
    u = np.frombuffer(block, dtype=np.uint8)
    at = np.flatnonzero(u - _ZERO > _NINE)      # every byte that is no digit
    sep = u[at]
    is_nl = sep == _NL
    nl, cr = at[is_nl], at[sep == _CR]
    is_dot = sep == _DOT
    commas, dots = at[sep == _COMMA], at[is_dot]
    if (not len(nl) or nl[-1] != len(u) - 1
            or len(nl) + len(cr) + len(commas) + len(dots) != len(at)
            or len(commas) != (len(nl) if ts_col is not None else 0)
            or (u[cr + 1] != _NL).any()):
        return None
    start = np.concatenate(([_PAD], nl[:-1] + 1))
    end = nl - (u[nl - 1] == _CR)
    if ts_col is None:
        price_start, price_end = start, end
    elif price_col == 0:
        price_start, price_end, ts_start, ts_end = start, commas, commas + 1, end
    else:
        ts_start, ts_end, price_start, price_end = start, commas, commas + 1, end
    point = price_end.copy()
    if len(dots):
        row = np.cumsum(is_nl)[is_dot]         # newlines before each point
        if ((row[1:] <= row[:-1]).any() or (dots < price_start[row]).any()
                or (dots >= price_end[row]).any()):
            return None
        point[row] = dots
    int_len = point - price_start
    frac_len = price_end - point - (point < price_end)
    digits = int_len + frac_len
    if not ((digits >= 1) & (digits <= 19)).all():
        return None
    if ts_col is not None:
        ts_len = ts_end - ts_start
        if not ((ts_len >= 1) & (ts_len <= 18)).all():
            return None
    words = np.ndarray((len(u) - 7,), dtype="<u8", buffer=block, strides=(1,))
    w = _digit_values(words, point, int_len) * _POW10[frac_len] \
        + _digit_values(words, price_end, frac_len)
    prices = decimal_to_float(w, frac_len)
    if ts_col is None:
        return prices, None
    return prices, _digit_values(words, ts_end, ts_len).view(np.int64)


def _count_rows(raw):
    """Rows in the rest of binary file ``raw``, its position left as it was:
    the newlines, and one more if the last row has none."""
    start, rows, last = raw.tell(), 0, b"\n"
    buf = bytearray(_BLOCK_BYTES)
    while n := raw.readinto(buf):
        rows += buf.count(b"\n", 0, n)
        last = buf[n - 1:n]
    raw.seek(start)
    return rows + (last != b"\n")


def _blocks(raw):
    """The rest of binary file ``raw`` in blocks of rows read about
    ``_BLOCK_BYTES`` at a time, each after ``_PAD`` digits and cut after its
    last newline; the last row gets a newline if it has none.  A row too long
    to be clean ends the blocks with an empty one.  Every block is a view of
    one buffer, overwritten by the next."""
    buf = bytearray(_PAD_BYTES + bytes(_ROW_MAX + _BLOCK_BYTES + 1))
    view = memoryview(buf)
    held = _PAD     # the padding, then the start of a row the last block cut off
    while n := raw.readinto(view[held:held + _BLOCK_BYTES]):
        end = held + n
        cut = buf.rfind(b"\n", _PAD, end) + 1
        if cut:
            yield view[:cut]
        tail = buf[cut or _PAD:end]
        if len(tail) > _ROW_MAX:
            yield b""
            return
        buf[_PAD:_PAD + len(tail)] = tail
        held = _PAD + len(tail)
    if held > _PAD:
        buf[held] = ord("\n")
        yield view[:held + 1]


def parse_columns(raw, price_col, ts_col):
    """(prices, timestamps) from the rows of binary file ``raw`` from its
    position on, if every row is clean; else None.

    A clean row ends in LF or CR LF (the last may end in neither) and
    holds the price cell, or with ``ts_col`` set the price and timestamp
    cells in column order joined by one comma.  A timestamp cell is 1-18
    ASCII digits; a price cell is 1-19 ASCII digits with at most one point
    anywhere among them.  No rows at all is not clean either.  The rows are
    counted first, so that the columns are filled in place.
    """
    rows = _count_rows(raw)
    if not rows:
        return None
    prices = np.empty(rows)
    stamps = np.empty(rows, dtype=np.int64) if ts_col is not None else None
    at = 0
    for block in _blocks(raw):
        parsed = _parse_block(block, price_col, ts_col)
        if parsed is None or at + len(parsed[0]) > rows:
            return None
        n = len(parsed[0])
        prices[at:at + n] = parsed[0]
        if stamps is not None:
            stamps[at:at + n] = parsed[1]
        at += n
    return (prices, stamps) if at == rows else None
