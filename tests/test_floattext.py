"""The bulk CSV formatter against the ``repr`` row writer.

``prices.write_csv`` must write exactly the bytes of ``oracle.write_csv``,
which calls ``repr`` on every cell.  Columns are tiled from a few drawn
values, so that they can straddle the writer's chunk seams while cases
stay shrinkable, and cells that ``repr`` writes itself sit on both sides
of every seam.
"""

import math
import struct
from decimal import Decimal

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from clmm_backtest import _floattext, prices
from clmm_backtest.prices import write_csv

CHUNK = prices._WRITE_CHUNK_ROWS
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


@settings(max_examples=150)
@given(tables())
def test_write_csv_matches_the_repr_writer(tmp_path_factory, columns):
    out = tmp_path_factory.mktemp("csv")
    write_csv(out / "bulk.csv", "t,a,b", columns)
    oracle.write_csv(out / "repr.csv", "t,a,b", columns)
    assert (out / "bulk.csv").read_bytes() == (out / "repr.csv").read_bytes()


def test_digit_core_keeps_to_integer_dtypes(tmp_path, monkeypatch):
    # 17-digit values and ints past 2**53: a float64 step would lose digits
    x = np.array([0.1, 1234.5678901234567, 2.0**53 + 2.0, 1e-4, 9999999999999998.0,
                  -3.0, 0.00012345678901234567])
    digits, exponent, length = _floattext.shortest_digits(x)
    assert (digits.dtype, exponent.dtype, length.dtype) == (np.uint64, np.int64, np.int64)
    for v, d, e, n in zip(x.tolist(), digits.tolist(), exponent.tolist(), length.tolist()):
        assert Decimal(d).scaleb(e) == abs(Decimal(repr(v)))
        assert len(str(d)) == n
    seen = []
    put = _floattext._put_digits
    monkeypatch.setattr(_floattext, "_put_digits",
                        lambda v, words: seen.append(v.dtype) or put(v, words))
    ints = np.array([INT64_MIN, INT64_MAX, 2**53 + 1, -7] + [0] * 3, dtype=np.int64)
    write_csv(tmp_path / "w.csv", "t,x", (ints, x))
    assert set(seen) == {np.dtype(np.uint64)}
    oracle.write_csv(tmp_path / "r.csv", "t,x", (ints, x))
    assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()


def test_other_dtypes_match_the_repr_writer(tmp_path):
    # narrower ints and floats take the bulk path after widening; bools,
    # Python ints past int64 and strings keep repr's text
    columns = (np.array([True, False, True]), np.array([-7, 0, 2**31 - 1], dtype=np.int32),
               np.array([0.1, -2.5, 1e-30], dtype=np.float32),
               np.array([2**64, -2**70, 5], dtype=object), np.array(["a", "é", ""]),
               np.array([2**64 - 1, 0, 10**19], dtype=np.uint64))
    write_csv(tmp_path / "w.csv", "a,b,c,d,e,f", columns)
    oracle.write_csv(tmp_path / "r.csv", "a,b,c,d,e,f", columns)
    assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
