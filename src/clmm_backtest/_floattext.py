"""Numeric CSV text in bulk, both ways: columns to the text ``repr`` writes,
and clean decimal cells to the float64 ``float`` reads.

Writing.  A float64 is written as its shortest round-trip decimal: the
fewest significant digits that read back to the same float, the one closest
to it when several qualify, and the even last digit on a tie.  Python's
``repr`` picks those digits, and so do Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020) and Ryu (U. Adams, PLDI 2018), which
need nothing but fixed-width integer arithmetic.  ``shortest_digits`` runs
Schubfach on whole numpy columns: its three 126 x 64-bit products are done
in 32-bit limbs of ``uint64`` words (``_wide.mul64``), the trailing zeros
are stripped in a masked loop, and the digits become text four at a time
through a lookup table.

Only cells in ``repr``'s positional layout take that path: finite normal
floats whose digits give 1e-4 <= |x| < 1e16, written as ``123.45``,
``0.0001`` or ``1000.0``.  The power-of-ten table covers just the binary
exponents of that range and is built at import from Python ints.  Every
other float cell (nan, inf, +-0, subnormals, and magnitudes ``repr`` writes
in exponent form) goes through ``repr`` itself.  Integer columns take the
same digit path whatever their values; any other dtype goes through
``repr`` cell by cell.

Each cell is laid out in a fixed-width row of bytes with NUL padding, the
rows of all columns are put side by side, and dropping the NULs leaves the
CSV text.

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
lengths reach them only as indices, so the arithmetic is the same on numpy
1.24 and 2.x.
"""

from __future__ import annotations

import numpy as np

from ._wide import mul64

_U = np.uint64
_LOW32, _32 = _U(0xFFFFFFFF), _U(32)
_LOW63, _63 = _U((1 << 63) - 1), _U(63)
_FRACTION, _HIDDEN = _U((1 << 52) - 1), _U(1 << 52)
_TEN, _TEN4, _TEN16 = _U(10), _U(10_000), _U(10 ** 16)
_U0, _U1, _U2 = _U(0), _U(1), _U(2)

# binary exponents whose floats can print positionally: 2**-14 < 1e-4 and
# 1e16 < 2**54; which of them do is decided from the digits
_E_LO, _E_HI = -14, 53
_BIAS_LO, _E_SPAN = _U(1023 + _E_LO), _U(_E_HI - _E_LO)

_POW10 = np.array([10 ** i for i in range(20)], dtype=_U)
# "0000" .. "9999": four ASCII digits per uint32 word
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                    axis=-1).view(np.uint32).ravel()


def _power_table():
    """Schubfach's per-exponent constants, one row per (binary exponent,
    irregular spacing): g = floor(10**-k 2**(125 - floor(log2 10**-k))) + 1
    split into 63-bit halves, the shift h, and the decimal exponent k."""
    rows = []
    for e2 in range(_E_LO, _E_HI + 1):
        q = e2 - 52                 # the float is c 2**q, 2**52 <= c < 2**53
        for irregular in (0, 1):    # c = 2**52: the gap below is half as wide
            # floor(log10(2**q)), or floor(log10(3/4 2**q)) when irregular
            k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
            p = 10 ** abs(k)
            if k <= 0:
                log2 = p.bit_length() - 1
                g = (p << (125 - log2)) + 1
            else:
                log2 = -p.bit_length()
                g = (1 << (125 - log2)) // p + 1
            rows.append((g >> 63, g & ((1 << 63) - 1), q + log2 + 2, k))
    g1, g0, h, k = zip(*rows)
    return np.array(g1, _U), np.array(g0, _U), np.array(h, _U), np.array(k, np.int64)


_G1, _G0, _H, _K = _power_table()


def _scaled(g1, g0, cp):
    """Schubfach's rop: floor(g cp / 2**127), its last bit set when inexact."""
    x1 = mul64(g0, cp)[0]
    y1, y0 = mul64(g1, cp)
    z = (y0 >> _U1) + x1
    return (y1 + (z >> _63)) | (((z & _LOW63) + _LOW63) >> _63)


def positional_range(x):
    """Mask of the float64 values ``shortest_digits`` accepts: finite,
    nonzero and normal, with a binary exponent that can print positionally."""
    return ((x.view(_U) >> _U(52)) & _U(0x7FF)) - _BIAS_LO <= _E_SPAN


def shortest_digits(x):
    """Shortest round-trip decimal of each float64 in ``x``.

    ``x`` must lie in ``positional_range``.  Returns (digits, exponent,
    length): ``uint64`` digits without trailing zeros, ``int64`` decimal
    exponents and digit counts, with |x| = digits 10**exponent.
    """
    bits = x.view(_U)
    fraction = bits & _FRACTION
    irregular = (fraction == _U0).astype(_U)
    row = ((((bits >> _U(52)) & _U(0x7FF)) - _BIAS_LO) * _U2 + irregular).astype(np.intp)
    c = fraction | _HIDDEN
    g1, g0, h, k = _G1[row], _G0[row], _H[row], _K[row]
    cb = c << _U2
    vb = _scaled(g1, g0, cb << h)
    vbl = _scaled(g1, g0, (cb - _U2 + irregular) << h)
    vbr = _scaled(g1, g0, (cb + _U2) << h)
    odd = c & _U1                   # an odd c's interval leaves out its ends

    s = vb >> _U2                   # 16 or 17 digits
    up10 = s // _TEN * _TEN
    # one digit fewer: u' = up10 or w' = up10 + 10, if exactly one rounds back
    u_in = vbl + odd <= up10 << _U2
    w_in = ((up10 + _TEN) << _U2) + odd <= vbr
    shorter = u_in != w_in
    d = np.where(u_in, up10, up10 + _TEN)
    # else s or s + 1: the one that rounds back, or the closer, or the even
    u_in = vbl + odd <= s << _U2
    w_in = ((s + _U1) << _U2) + odd <= vbr
    mid = (s << _U2) + _U2
    take_s = np.where(u_in != w_in, u_in,
                      (vb < mid) | ((vb == mid) & ((s & _U1) == _U0)))
    d = np.where(shorter, d, np.where(take_s, s, s + _U1))

    length = (d >= _TEN16).astype(np.int64) + 16
    exponent = k.copy()
    z = np.flatnonzero(d % _TEN == _U0)
    while z.size:
        d[z] //= _TEN
        exponent[z] += 1
        length[z] -= 1
        z = z[d[z] % _TEN == _U0]
    return d, exponent, length


def _keep_tables(width, digits_at, digits):
    """Byte masks keeping a cell's fixed bytes and its last n digit slots,
    as one ``uint64`` table per 8-byte word, indexed by n."""
    keep = np.full((digits + 1, width), 255, dtype=np.uint8)
    kept = np.arange(digits) >= digits - np.arange(digits + 1)[:, None]
    keep[:, digits_at:digits_at + digits] *= kept
    words = keep.view(_U)
    return [np.ascontiguousarray(words[:, j]) for j in range(width // 8)]


# A float cell is 48 bytes: separator at 0, sign at 7, integer digits at
# 8-23, the point at 24, fraction digits at 28-47.  An int cell is 24 bytes:
# separator at 0, sign at 3, digits at 4-23.  Both are whole uint32 and
# uint64 words, so digits go in four at a time and masks eight at a time.
_FLOAT_W, _INT_W = 48, 24
_KEEP_INT_PART = _keep_tables(16, 0, 16)
_KEEP_FRACTION = _keep_tables(24, 4, 20)
_KEEP_INT = _keep_tables(_INT_W, 4, 20)


def _put_digits(v, words):
    """Write ``uint64`` values as zero-padded decimal text across the uint32
    columns of ``words``, right-aligned."""
    for j in range(words.shape[1] - 1, 0, -1):
        q = v // _TEN4
        words[:, j] = _DIGITS4[(v - q * _TEN4).astype(np.intp)]
        v = q
    words[:, 0] = _DIGITS4[v.astype(np.intp)]


def _mask(words, tables, counts):
    """Keep the bytes that ``_keep_tables`` keeps for each row's count."""
    for j, table in enumerate(tables):
        words[:, j] &= table[counts]


def _positional(cells, negative, d, exponent, length):
    """Fill 48-byte float cells from digits whose point falls in -3..16."""
    point = exponent + length          # digits before the point
    shift = length - point             # digits after it
    up = _POW10[np.clip(shift, 0, 19)]
    int_part = d // up
    frac_part = d - int_part * up
    int_part *= _POW10[np.clip(-shift, 0, 19)]
    w32, w64 = cells.view(np.uint32), cells.view(_U)
    _put_digits(int_part, w32[:, 2:6])
    _put_digits(frac_part, w32[:, 7:12])
    _mask(w64[:, 1:3], _KEEP_INT_PART, np.maximum(point, 1))
    cells[:, 24] = ord(".")
    _mask(w64[:, 3:6], _KEEP_FRACTION, np.maximum(shift, 1))
    cells[:, 7] = negative * _U(ord("-"))


def _repr_cells(values, width=None):
    """Cells holding ``repr`` of each value from byte 1; by default as wide
    as the longest text needs, in whole words."""
    text = np.array([repr(v).encode() for v in values], dtype=bytes)
    if width is None:
        width = -(-(1 + text.itemsize) // 8) * 8
    cells = np.zeros((len(text), width), dtype=np.uint8)
    cells[:, 1:1 + text.itemsize] = text.view(np.uint8).reshape(len(text), text.itemsize)
    return cells


def _float_cells(cells, x):
    x = np.ascontiguousarray(x, dtype=np.float64)
    rows = np.flatnonzero(positional_range(x))
    d, exponent, length = shortest_digits(x[rows])
    point = exponent + length
    ok = (point >= -3) & (point <= 16)
    if len(rows) == len(x) and ok.all():
        _positional(cells, x.view(_U) >> _63, d, exponent, length)
        return
    rows, d, exponent, length = rows[ok], d[ok], exponent[ok], length[ok]
    fast = np.zeros((len(rows), _FLOAT_W), dtype=np.uint8)
    _positional(fast, x.view(_U)[rows] >> _63, d, exponent, length)
    cells[rows] = fast
    slow = np.ones(len(x), dtype=bool)
    slow[rows] = False
    slow = np.flatnonzero(slow)
    cells[slow] = _repr_cells(x[slow].tolist(), _FLOAT_W)


def _int_cells(cells, v):
    if v.dtype == _U:
        magnitude, negative = v, _U0
    else:
        u = v.astype(np.int64).view(_U)
        negative = u >> _63
        magnitude = np.where(negative == _U1, ~u + _U1, u)   # |int64 min| = 2**63
    _put_digits(magnitude, cells.view(np.uint32)[:, 1:])
    digits = np.maximum(np.searchsorted(_POW10, magnitude, side="right"), 1)
    _mask(cells.view(_U), _KEEP_INT, digits)
    cells[:, 3] = negative * _U(ord("-"))


def csv_text(columns, rows):
    """CSV rows for equal-length numpy columns, ``rows`` rows at a time:
    cells as ``repr`` writes them, comma-separated, each row ending in a
    newline.  The chunks share one byte table and mask: fresh ones, once past
    what malloc serves from its heap, are page-faulted in anew every chunk."""
    buf = keep = np.empty(0, dtype=np.uint8)
    for s in range(0, len(columns[0]), rows):
        layout = []
        for column in (c[s:s + rows] for c in columns):
            if column.dtype.kind == "f" and column.dtype.itemsize <= 8:
                layout.append((_FLOAT_W, _float_cells, column))
            elif column.dtype.kind in "iu":
                layout.append((_INT_W, _int_cells, column))
            else:
                cells = _repr_cells(column.tolist())
                layout.append((cells.shape[1], np.copyto, cells))
        width = sum(w for w, _, _ in layout) + 8
        size = len(layout[0][2]) * width
        if buf.size < size:
            buf, keep = np.empty(size, dtype=np.uint8), np.empty(size, dtype=bool)
        table = buf[:size].reshape(-1, width)
        table.fill(0)
        at = 0
        for width, fill, column in layout:
            fill(table[:, at:at + width], column)
            if at:
                table[:, at] = ord(",")
            at += width
        table[:, at] = ord("\n")
        yield buf[:size][np.not_equal(buf[:size], 0, out=keep[:size])].tobytes().decode()


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
_LOW9, _U3, _U9, _U52, _U1086 = _U(0x1FF), _U(3), _U(9), _U(52), _U(1086)


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
