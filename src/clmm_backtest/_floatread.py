"""Clean decimal price cells to the float64 ``float`` reads, in bulk.

``parse_columns`` reads a price file's body once, in blocks of 64 KiB, each
cut after its last newline, and checks that every row is clean (see
``prices``).  Byte comparisons find the newlines, the points and, for two
columns, the commas; one count of the bytes that are no digit proves that
there is nothing else but CRs before newlines.  Each point finds its row by
a search of the newlines and must lie in that row's price cell, at most one
to a row.  Each cell's digits are read as little-endian ``uint64`` words
from a stride-1 view of the block and combined eight at a time within the
word (SWAR).  A price with significand w < 10**19 and f fraction digits
becomes the float64 nearest w 10**-f by Eisel-Lemire (D. Lemire, "Number
Parsing at a Gigabyte per Second", Software: Practice and Experience, 2021):
one 64 x 128-bit product (``_wide.mul64``) with a truncated power of five,
from a 20-row table built at import from Python ints.  For significands
below 2**64 the product is always precise enough, so no fallback is needed
(N. Mushtak and D. Lemire, "Fast Number Parsing Without Fallback", Software:
Practice and Experience, 2023).

The writer, ``_floattext``, is a separate module, so that a command which
reads a price file and writes only short tables never loads it.  Nothing
here depends on numpy's promotion rules for Python scalars (NEP 50):
``uint64`` words only ever meet ``uint64`` scalars and arrays, and signed
lengths reach them only as indices, so the arithmetic is the same on numpy
1.24 and 2.x.
"""

from __future__ import annotations

import numpy as np

from ._wide import POW10, mul64

_U = np.uint64
_U0, _U1, _U52, _63 = _U(0), _U(1), _U(52), _U(63)

# A clean cell's digits are read as little-endian uint64 words that end at
# the cell's end, so its last digit is the top byte of word 0.  Digits are
# ASCII 0x30-0x39, checked beforehand, so a mask of 0x0F on the kept bytes
# leaves their values and zeroes the bytes before the cell; masking, unlike
# subtracting "0", never borrows from a neighbouring byte.
_NL, _CR, _COMMA, _DOT = (np.uint8(ord(c)) for c in "\n\r,.")
_ZERO, _NINE = np.uint8(ord("0")), np.uint8(9)
# [j, n]: 0x0F on the bytes of word j, counted back from a cell's end, that
# hold digits of an n-digit cell
_DIGIT_MASKS = np.array([[(0x0F0F0F0F0F0F0F0F << 8 * (8 - min(max(n - 8 * j, 0), 8)))
                          & 0xFFFFFFFFFFFFFFFF for n in range(20)] for j in range(3)], _U)
_WORD_ENDS = np.array([8, 16, 24], dtype=np.intp)   # word j starts 8 (j + 1) bytes back
# SWAR steps (shift, s 2**shift + 1, lanes kept) for lane scales s = 10, 100, 10**4
_SWAR_STEPS = ((_U(8), _U(10 << 8 | 1), _U(0x00FF00FF00FF00FF)),
               (_U(16), _U(100 << 16 | 1), _U(0x0000FFFF0000FFFF)),
               (_U(32), _U(10_000 << 32 | 1), _U(0xFFFFFFFF)))
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
    # SWAR: digit pairs in 16-bit lanes, then fours in 32-bit lanes, then
    # eight; one product adds each lane times s to the lane above it and the
    # shift moves the sums down (fast_float's eight-digit parse)
    for shift, scale, lanes in _SWAR_STEPS:
        w *= scale
        w >>= shift
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
    nl, dots = np.flatnonzero(u == _NL), np.flatnonzero(u == _DOT)
    commas = np.flatnonzero(u == _COMMA) if ts_col is not None else ()
    if (not len(nl) or nl[-1] != len(u) - 1
            or (ts_col is not None and len(commas) != len(nl))):
        return None
    is_cr = u[nl - 1] == _CR
    end = nl - is_cr
    # every byte is a digit but the separators found, and CRs before a newline
    if np.count_nonzero(u - _ZERO > _NINE) \
            != len(nl) + len(dots) + len(commas) + np.count_nonzero(is_cr):
        return None
    start = np.concatenate(([_PAD], nl[:-1] + 1))
    if ts_col is None:
        price_start, price_end = start, end
    elif price_col == 0:
        price_start, price_end, ts_start, ts_end = start, commas, commas + 1, end
    else:
        ts_start, ts_end, price_start, price_end = start, commas, commas + 1, end
    point = price_end.copy()
    row = nl.searchsorted(dots)                 # newlines before each point
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
    w = _digit_values(words, point, int_len) * POW10[frac_len] \
        + _digit_values(words, price_end, frac_len)
    prices = decimal_to_float(w, frac_len)
    if ts_col is None:
        return prices, None
    return prices, _digit_values(words, ts_end, ts_len).view(np.int64)


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
    anywhere among them.  No rows at all is not clean either.  The body is
    read once, each block's columns appended to the file's as bytes: kept
    block arrays, freed once joined, would stay resident in the heap.
    """
    prices, stamps = bytearray(), bytearray()
    for block in _blocks(raw):
        if (columns := _parse_block(block, price_col, ts_col)) is None:
            return None
        prices += columns[0].data
        if ts_col is not None:
            stamps += columns[1].data
    if not prices:
        return None
    return np.frombuffer(prices), (np.frombuffer(stamps, np.int64) if ts_col is not None else None)
