"""The bulk CSV formatter (``_floattext``) against the ``repr`` row writer,
and the bulk CSV parser (``_floatread``) against ``float`` and the row
parser.

The bulk formatter must write exactly the bytes of ``oracle.write_csv``,
which calls ``repr`` on every cell.  Columns are tiled from a few drawn
values, so that they can straddle the writer's chunk seams while cases
stay shrinkable, and cells that ``repr`` writes itself sit on both sides
of every seam.  Short tables go to ``csv_text`` directly, as
``prices.write_csv`` writes them with ``repr``; ``write_csv`` must match
the oracle on both sides of the row count where it switches.  Reading,
every clean file must parse in bulk to exactly the row parser's columns,
with rows tiled across the parser's block seams in the same way, and each
decimal must become the float ``float`` makes of it, decimal ties
included.  The bulk parser reads a body once.
"""

import io
import math
import struct
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from clmm_backtest import _floatread, _floattext, prices
from clmm_backtest.cli import _ChunkedColumn
from clmm_backtest.prices import load_prices, write_csv

CHUNK = prices._WRITE_CHUNK_ROWS
REPR_ROWS = prices._REPR_ROWS
INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


def nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


bit_patterns = st.integers(0, 2**64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
decimals = st.builds(round, st.floats(-1e17, 1e17), st.integers(-3, 17))
# k / 2**j with j <= 12 is exact, and its shortest digits end on a decimal tie
ties = st.builds(lambda k, j: k / 2**j, st.integers(-10**12, 10**12), st.integers(1, 12))
powers = st.one_of(st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)),
                   st.integers(-323, 308).map(lambda e: float(f"1e{e}")))
# repr turns to exponent form below 1e-4 and from 1e16 on
switches = st.sampled_from([1e-4, -1e-4, 1e16, -1e16, 9999999999999998.0, 2.0**53])
near = st.builds(nudged, st.one_of(powers, switches), st.integers(-3, 3))
near_2_53 = st.integers(-64, 64).map(lambda k: float(2**53 + k) * 2.0)
FLOATS = st.one_of(bit_patterns, decimals, ties, near, near_2_53)
INTS = st.one_of(st.integers(INT64_MIN, INT64_MIN + 64),
                 st.integers(INT64_MAX - 64, INT64_MAX),
                 st.integers(2**53 - 64, 2**53 + 64), st.integers(-10**6, 0),
                 st.integers(INT64_MIN, INT64_MAX))
# cells repr writes itself: nan, inf, signed zeros, subnormals, exponent form
FALLBACK = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1e-310,
                            9.999999999999999e-05, 1e16, -1.5e300])


@st.composite
def tables(draw):
    rows = draw(st.sampled_from([1, 2, 77, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]))
    floats = np.resize(np.array(draw(st.lists(FLOATS, min_size=1, max_size=30))), rows)
    ints = np.resize(np.array(draw(st.lists(INTS, min_size=1, max_size=30)),
                              dtype=np.int64), rows)
    for seam in range(CHUNK, rows, CHUNK):
        floats[seam - 1] = draw(FALLBACK)
        floats[seam] = draw(FALLBACK)
    return ints, floats, floats[::-1].copy()


def bulk_csv(path, header, columns):
    """What ``write_csv`` writes through the bulk formatter, at any length."""
    path.write_bytes(header.encode() + b"".join(_floattext.csv_text(list(columns), CHUNK)))


@settings(max_examples=150)
@given(tables())
def test_write_csv_matches_the_repr_writer(tmp_path_factory, columns):
    out = tmp_path_factory.mktemp("csv")
    bulk_csv(out / "bulk.csv", "t,a,b", columns)
    oracle.write_csv(out / "repr.csv", "t,a,b", columns)
    assert (out / "bulk.csv").read_bytes() == (out / "repr.csv").read_bytes()


def every_exponent():
    """Both signs of every biased exponent with fractions 0, 1, 2**52 - 1
    and three drawn ones: zeros, subnormals, powers of two, the largest
    floats, infinities and nans, and each exponent's row of phi."""
    fractions = np.array([0, 1, 2**52 - 1, *np.random.default_rng(14).integers(2, 2**52 - 1, 3)],
                         dtype=np.uint64)
    bits = ((np.arange(2048, dtype=np.uint64) << np.uint64(52))[:, None] | fractions).ravel()
    return np.concatenate([bits, bits | np.uint64(1 << 63)]).view(np.float64)


# the fixed texts and the values either side of repr's switch to exponent form
FIXED = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-4, -1e-4, 9.999999999999999e-05,
                  1e16, -1e16, 9999999999999998.0, 2.0**53])


def test_every_exponent_matches_the_repr_writer(tmp_path):
    # FIXED twice over ends the first and second chunks and starts the next
    x, parts, taken = every_exponent(), [], 0
    for k in (1, 2):
        upto = k * CHUNK - (2 * k - 1) * len(FIXED)
        parts += [x[taken:upto], FIXED, FIXED]
        taken = upto
    x = np.concatenate(parts + [x[taken:]])
    assert (x[CHUNK - len(FIXED):CHUNK + len(FIXED)].tobytes()
            == x[2 * CHUNK - len(FIXED):2 * CHUNK + len(FIXED)].tobytes()
            == np.tile(FIXED, 2).tobytes())
    ints = np.arange(len(x), dtype=np.int64) * 7919 - 10**6
    columns = (ints, x, x[::-1].copy())
    write_csv(tmp_path / "bulk.csv", "t,a,b", columns)
    oracle.write_csv(tmp_path / "repr.csv", "t,a,b", columns)
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "repr.csv").read_bytes()


@pytest.mark.parametrize("k,end", [(28, -1), (27, 0), (0, -1), (-1, 0)])
def test_chunks_at_the_ends_of_the_zero_low_words_match_the_repr_writer(tmp_path, k, end):
    # phi_k's low word is 0 for k = 0..27, and a chunk whose floats all lie
    # there skips the product with it: chunks of the one biased exponent of
    # k = 28, 27, 0 or -1 next to either end of that run
    b = np.uint64(np.flatnonzero(-_floattext._MINUS_K == k)[end])
    assert (_floattext._B_LO0 <= b <= _floattext._B_HI0) == (0 <= k <= 27)
    fractions = np.random.default_rng(40 + k).integers(0, 2**52, 2 * CHUNK, dtype=np.uint64)
    x = ((b << np.uint64(52)) | fractions).view(np.float64)
    x[1::2] *= -1.0
    columns = (x, x[::-1].copy())
    write_csv(tmp_path / "bulk.csv", "a,b", columns)
    oracle.write_csv(tmp_path / "repr.csv", "a,b", columns)
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "repr.csv").read_bytes()


def test_digit_core_keeps_to_integer_dtypes(tmp_path, monkeypatch):
    # 17-digit values and ints past 2**53: a float64 step would lose digits;
    # subnormals, powers of two and exponent-form values take the same path
    x = np.array([0.1, 1234.5678901234567, 2.0**53 + 2.0, 1e-4, 9999999999999998.0,
                  -3.0, 0.00012345678901234567, 5e-324, -1e-310, 2.0**-1022, 2.0**-1074 * 3,
                  1e23, -1.5e300, 1.7976931348623157e308, 9.999999999999999e-05, 2.0**1023])
    digits, exponent, length = _floattext.shortest_digits(x)
    assert (digits.dtype, exponent.dtype, length.dtype) == (np.uint64, np.int64, np.int64)
    for v, d, e, n in zip(x.tolist(), digits.tolist(), exponent.tolist(), length.tolist()):
        assert Decimal(d).scaleb(e) == abs(Decimal(repr(v)))
        assert len(str(d)) == n
    seen = []
    put = _floattext._put_digits
    monkeypatch.setattr(_floattext, "_put_digits",
                        lambda v, counts, words: seen.append(v.dtype) or put(v, counts, words))
    ints = np.resize(np.array([INT64_MIN, INT64_MAX, 2**53 + 1, -7, 0], dtype=np.int64), len(x))
    bulk_csv(tmp_path / "w.csv", "t,x", (ints, x))
    assert set(seen) == {np.dtype(np.uint64)}
    oracle.write_csv(tmp_path / "r.csv", "t,x", (ints, x))
    assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()


def test_write_peak_is_one_chunk_not_the_file(tmp_path):
    # the writer holds one chunk's table and text at a time, so ten times
    # the rows must not raise its peak
    def peak(rows):
        rng = np.random.default_rng(rows)
        columns = (1_672_531_200 + 60 * np.arange(rows, dtype=np.int64),
                   2000.0 + rng.normal(0.0, 0.4, rows).cumsum(),
                   rng.uniform(9e5, 1.1e6, rows), rng.uniform(1e5, 2e5, rows))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "w.csv", "t,price,lp_value,bh_value", columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1_000)   # builds what the bulk writer builds once
    assert peak(200_000) <= peak(20_000) + 0.25 * 2**20


# dtypes no caller writes: bools, unsigned integers, objects, strings, complex
# numbers and long doubles
REFUSED = (np.array([True, False]), np.array([2**64 - 1, 0], dtype=np.uint64),
           np.array([2**64, 5], dtype=object), np.array(["a", "é"]),
           np.array([1 + 2j, 0]), np.array([0.5, 2.0], dtype=np.longdouble))


def test_other_dtypes_match_the_repr_writer(tmp_path):
    # narrower ints and floats take the bulk path after widening
    columns = (np.array([-7, 0, 2**31 - 1], dtype=np.int32),
               np.array([0.1, -2.5, 1e-30], dtype=np.float32))
    bulk_csv(tmp_path / "w.csv", "a,b", columns)
    oracle.write_csv(tmp_path / "r.csv", "a,b", columns)
    assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
    for bad in REFUSED:
        with pytest.raises(TypeError, match=str(bad.dtype)):
            write_csv(tmp_path / "bad.csv", "a,b", (np.arange(2), bad))
    assert not (tmp_path / "bad.csv").exists()


def test_refused_column_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "keep.csv"
    path.write_bytes(b"t,x\n1,2.5\n")
    with pytest.raises(TypeError, match="bool"):
        write_csv(path, "a,b", (np.arange(3), np.array([True, False, True])))
    assert path.read_bytes() == b"t,x\n1,2.5\n"


@pytest.mark.parametrize("rows", [REPR_ROWS - 1, REPR_ROWS, REPR_ROWS + 1])
def test_write_csv_matches_the_repr_writer_at_the_row_constant(tmp_path, monkeypatch, rows):
    # shorter tables are written with repr, the rest in bulk: both ways give
    # the oracle's bytes for the fixed texts, the extremes and narrow dtypes
    floats = np.resize([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16,
                        9.999999999999999e-05, 0.1, -2000.5], rows)
    columns = (np.resize(np.array([INT64_MIN, INT64_MAX, 0, -7], dtype=np.int64), rows),
               floats, np.resize(np.array([-2**31, 2**31 - 1, 5], dtype=np.int32), rows),
               np.resize(np.array([0.1, -2.5, 1e-30, np.nan, -np.inf], dtype=np.float32), rows))
    chunked = _ChunkedColumn(np.float64, rows, lambda s: -floats[s])
    header = "i64,f64,i32,f32,made"
    calls, csv_text = [], _floattext.csv_text
    monkeypatch.setattr(_floattext, "csv_text", lambda *a: calls.append(a) or csv_text(*a))
    write_csv(tmp_path / "w.csv", header, (*columns, chunked))
    assert len(calls) == (rows >= REPR_ROWS)
    oracle.write_csv(tmp_path / "r.csv", header, (*columns, -floats))
    assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
    # a refused column is refused before the file is touched, either way
    path = tmp_path / "keep.csv"
    path.write_bytes(b"t,x\n1,2.5\n")
    with pytest.raises(TypeError, match="uint64"):
        write_csv(path, header + ",u", (*columns, chunked, np.arange(rows, dtype=np.uint64)))
    assert path.read_bytes() == b"t,x\n1,2.5\n"


def test_an_empty_table_is_its_header_line(tmp_path):
    columns = (np.empty(0, dtype=np.int64), np.empty(0))
    write_csv(tmp_path / "w.csv", "t,x", columns)
    bulk_csv(tmp_path / "b.csv", "t,x", columns)
    assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "b.csv").read_bytes() == b"t,x\n"


def tie(e, m, nudge):
    """(w, f) with w 10**-f the midpoint of the float (2**52 + m) 2**(e - 52)
    and the next one up, then ``nudge`` units of its last digit away."""
    mid, f = Fraction(2 * (2**52 + m) + 1) * Fraction(2) ** (e - 53), 0
    while mid.denominator != 1:
        mid, f = mid * 10, f + 1
    return int(mid) + nudge, f


# decimal ties, integers from 2**53 and up to four fraction digits below
# it, and decimals a few units of the last digit either side of them
decimal_ties = st.builds(tie, st.integers(49, 63), st.integers(0, 2**52 - 1),
                         st.integers(-3, 3)).filter(lambda wf: wf[0] < 10**19)
decimal_pairs = st.tuples(st.integers(1, 10**19 - 1), st.integers(0, 19))
# significands just below a power of two, which float64 rounds up to it
below_powers = st.tuples(st.builds(lambda k, d: 2**k - d, st.integers(54, 63),
                                   st.integers(1, 2**10)), st.integers(0, 19))
repr_pairs = st.floats(1e-3, 1e16, exclude_max=True).map(repr).filter(
    lambda c: "e" not in c and len(c) <= 20).map(
    lambda c: (int(c.replace(".", "")), len(c) - 1 - c.index(".")))


@settings(max_examples=300)
@given(st.lists(st.one_of(decimal_pairs, below_powers, decimal_ties, repr_pairs),
                min_size=1, max_size=40))
def test_decimal_to_float_rounds_as_float_does(pairs):
    w, f = zip(*pairs)
    got = _floatread.decimal_to_float(np.array(w, dtype=np.uint64), np.array(f, dtype=np.intp))
    assert got.tolist() == [float(f"{a}e-{b}") for a, b in pairs]


def cell(w, f, width):
    """w 10**-f as ``width`` digits (zero-padded) with a point before the
    last f; with f = 0 the point trails on odd widths."""
    digits = str(w).zfill(width)
    if f == 0:
        return digits + "." if width % 2 else digits
    return digits[:width - f] + "." + digits[width - f:]


# 1-19 digits, leading zeros kept, 0-19 of them after the point, not all
# zero (the row parser rejects a zero price)
padded = st.integers(1, 19).flatmap(
    lambda n: st.tuples(st.integers(1, 10**n - 1), st.integers(0, n), st.just(n)))
clean_prices = st.one_of(
    padded.map(lambda c: cell(*c)),
    st.one_of(decimal_ties, repr_pairs).map(lambda wf: cell(*wf, max(len(str(wf[0])), wf[1])))
    .filter(lambda c: len(c.replace(".", "")) <= 19))
clean_stamps = st.integers(1, 18).flatmap(
    lambda n: st.integers(0, 10**n - 1).map(lambda v: str(v).zfill(n)))


@st.composite
def clean_price_files(draw):
    """Files of clean rows in every layout: rows tiled from drawn cells, a
    few of them or enough to pass one or two block seams."""
    layout = draw(st.sampled_from(["ts,price", "price,ts", "price", "1col", "2col"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    prices = draw(st.lists(clean_prices, min_size=1, max_size=30))
    stamps = draw(st.lists(clean_stamps, min_size=1, max_size=30))
    pairs = list(zip(stamps * len(prices), prices * len(stamps)))
    tile = {"ts,price": [f"{t},{p}" for t, p in pairs], "2col": [f"{t},{p}" for t, p in pairs],
            "price,ts": [f"{p},{t}" for t, p in pairs]}.get(layout, prices)
    seams = draw(st.sampled_from([0, 1, 2]))
    if seams:   # rows until the body passes the seam by a few bytes either way
        target = seams * _floatread._BLOCK_BYTES + draw(st.integers(-60, 60))
        n = body = 0
        while body < target:
            body += len(tile[n % len(tile)]) + len(end)
            n += 1
    else:
        n = draw(st.integers(1, 70))
    header = [] if layout in ("1col", "2col") else [layout]
    text = end.join(header + [tile[i % len(tile)] for i in range(n)])
    return text + draw(st.sampled_from([end, ""]))


def parse_both_ways(path):
    """The bulk parser's and the row parser's columns of one file."""
    with open(path, newline="") as fh:
        layout = prices._read_layout(fh, path)
        bulk = prices._parse_bulk(fh, layout)
        fh.seek(layout.start)
        return bulk, prices._parse_rows(fh, layout)


@settings(max_examples=60)
@given(clean_price_files())
@example("price\r\n2000.5\r\n.25\r\n7.\r\n")     # a point in every row
@example("ts,price\n1,2000.5\n2,3\n3,.25\n4,7")  # and in some rows only
def test_clean_files_parse_in_bulk_as_the_row_parser_reads_them(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("ingest") / "prices.csv"
    path.write_bytes(text.encode())
    bulk, rows = parse_both_ways(path)
    assert bulk is not None
    assert bulk[0].tobytes() == rows[0].tobytes()
    if rows[1] is None:
        assert bulk[1] is None
    else:
        assert bulk[1].dtype == np.int64
        assert bulk[1].tobytes() == rows[1].tobytes()


class CountingBytes(io.BytesIO):
    """An in-memory binary file that counts the bytes it hands out."""

    handed = 0

    def readinto(self, buffer):
        n = super().readinto(buffer)
        self.handed += n
        return n

    def read(self, size=-1):
        data = super().read(size)
        self.handed += len(data)
        return data


def test_bulk_path_reads_the_body_once():
    rng = np.random.default_rng(18)
    stamps = 1_672_531_200 + 60 * np.arange(12_000)
    walk = 2000.0 + rng.normal(0.0, 0.4, len(stamps)).cumsum()
    text = "".join(f"{t},{p!r}\n" for t, p in zip(stamps.tolist(), walk.tolist()))
    assert len(text) > 3 * _floatread._BLOCK_BYTES
    raw = CountingBytes(text.encode())
    bulk = _floatread.parse_columns(raw, 1, 0)
    assert raw.handed == len(text)
    rows = prices._parse_rows(io.StringIO(text), prices._Layout(2, 1, 0, 0))
    assert bulk[0].tobytes() == rows[0].tobytes()
    assert bulk[1].tobytes() == rows[1].tobytes()


def test_parse_core_keeps_to_integer_dtypes(tmp_path, monkeypatch):
    # 18-digit timestamps and 19-digit significands: a float64 or signed step
    # would lose digits or change sign
    stamps = [2**53 + 1, 10**17 - 3, 10**18 - 2, 10**18 - 1]
    cells = ["9999999999999999999", "9007199254740993", "4503599627370496.5",
             "9.223372036854775809"]
    path = tmp_path / "p.csv"
    path.write_text("ts,price\n" + "".join(f"{t},{c}\n" for t, c in zip(stamps, cells)))
    seen = []
    to_float = _floatread.decimal_to_float
    monkeypatch.setattr(_floatread, "decimal_to_float",
                        lambda w, f: seen.append((w.dtype, w.tolist())) or to_float(w, f))
    series = load_prices(path)
    assert seen == [(np.dtype(np.uint64), [int(c.replace(".", "")) for c in cells])]
    assert series.prices.tolist() == [float(c) for c in cells]
    assert series.timestamps.dtype == np.int64
    assert series.timestamps.tolist() == stamps
