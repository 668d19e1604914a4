"""CSV text of numeric columns in bulk, byte for byte what ``repr`` writes.

A float64 is written as its shortest round-trip decimal: the fewest
significant digits that read back to the same float, the one closest to it
when several qualify, and the even last digit on a tie.  Python's ``repr``
picks those digits, and so do Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020) and Ryu (U. Adams, PLDI 2018), which need nothing but
fixed-width integer arithmetic.  ``shortest_digits`` runs Schubfach on whole
numpy columns: its three 126 x 64-bit products are done in 32-bit limbs of
``uint64`` words (``mul64``), the trailing zeros are stripped in a masked
loop, and the digits become text four at a time through a lookup table.

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
CSV text.  Nothing here depends on numpy's promotion rules for Python
scalars (NEP 50): ``uint64`` words only ever meet ``uint64`` scalars and
arrays, so the arithmetic is the same on numpy 1.24 and 2.x.
"""

from __future__ import annotations

import numpy as np

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


def mul64(a, b):
    """Full 128-bit products of two ``uint64`` arrays as (high, low) words.

    The high word is summed from 32-bit limbs, so no partial product
    overflows; the low word is the wrapped product.
    """
    a0, a1 = a & _LOW32, a >> _32
    b0, b1 = b & _LOW32, b >> _32
    lo_lo, hi_lo, lo_hi = a0 * b0, a1 * b0, a0 * b1
    mid = (lo_lo >> _32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    return a1 * b1 + (hi_lo >> _32) + (lo_hi >> _32) + (mid >> _32), a * b


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


def csv_rows(columns) -> str:
    """CSV rows for equal-length numpy columns: cells as ``repr`` writes
    them, comma-separated, each row ending in a newline."""
    layout = []
    for column in columns:
        if column.dtype.kind == "f" and column.dtype.itemsize <= 8:
            layout.append((_FLOAT_W, _float_cells, column))
        elif column.dtype.kind in "iu":
            layout.append((_INT_W, _int_cells, column))
        else:
            cells = _repr_cells(column.tolist())
            layout.append((cells.shape[1], np.copyto, cells))
    table = np.zeros((len(columns[0]), sum(w for w, _, _ in layout) + 8),
                     dtype=np.uint8)
    at = 0
    for width, fill, column in layout:
        fill(table[:, at:at + width], column)
        if at:
            table[:, at] = ord(",")
        at += width
    table[:, at] = ord("\n")
    return table[table != 0].tobytes().decode()
