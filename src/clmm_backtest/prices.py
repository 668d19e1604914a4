"""Price series loading and writing.

CSV is the only ingest format.  Accepted layouts:

  * header ``ts,price`` (or ``timestamp,price``, any column order)
  * header ``price`` alone
  * headerless two columns: timestamp, price
  * headerless single column of prices

Timestamps are integer unix seconds and must be strictly ascending;
prices must be positive and finite.  ``PriceSeries`` is the one validator
of these series rules, whatever made the series: a loaded file, or an
array or an object with ``prices`` and ``timestamps`` given to
``run_backtest`` or the calibration functions.  Its messages name the offending data row
(1-based, header excluded, blank rows not counted) and the value's 0-based
index, as in ``row 8: price 0.0 at index 7 is not a positive finite
number``.

Loading decides the layout from the first non-blank row, then reads the
rest of the file as bytes with ``_floattext``'s bulk parser if every row is
clean:

  * each row ends in LF or CR LF (the last row may end in neither);
  * a two-column row has exactly one ``,``;
  * a timestamp cell is 1-18 ASCII digits;
  * a price cell is ASCII digits with at most one ``.``, 1-19 digits in all
    (``5.`` and ``.5`` included).

Any other row (signs, exponents, spaces, quotes, blank rows, a lone CR,
longer cells, non-ASCII bytes, empty cells) sends the whole file through
the row-by-row ``csv`` parser instead, which accepts those quirks and names
the first bad row, with ``PriceSeries``' text for a bad price.  Either way
the file is parsed once: a clean file that breaks a series rule gets
``PriceSeries``' message straight away.

``write_csv`` emits ints as digits and floats as shortest round-trip text,
so a load/write/load cycle reproduces the series bit for bit.  Its bytes
are those of ``repr`` on every cell, made in bulk by ``_floattext``
(Dragonbox digits, one cell layout for every float); it writes signed-integer
and float columns only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError

_TS_NAMES = ("ts", "timestamp", "time")
_INT64 = np.iinfo(np.int64)
# rows formatted per write: bounds the text held in memory at once, and
# keeps the formatter's working arrays in cache
_WRITE_CHUNK_ROWS = 1 << 13


@dataclass(frozen=True)
class PriceSeries:
    """A positive price series with optional unix-second timestamps.

    The series is checked once, when made, and holds read-only views of its
    arrays, so code given a ``PriceSeries`` does not check it again.
    """

    prices: np.ndarray
    timestamps: Optional[np.ndarray] = None

    def __post_init__(self):
        p = np.ascontiguousarray(self.prices, dtype=np.float64)
        if p.ndim != 1:
            raise DataError("price series must be one-dimensional")
        if len(p) < 2:
            raise DataError(f"price series needs at least 2 rows, got {len(p)}")
        # reductions scan the series without a full-length mask; NaN fails both
        if not (p.min() > 0.0 and p.max() < np.inf):
            i = int(np.argmax(~np.isfinite(p) | (p <= 0.0)))
            raise _not_positive(i + 1, p[i])
        object.__setattr__(self, "prices", _read_only(p))
        if self.timestamps is not None:
            object.__setattr__(self, "timestamps",
                               _read_only(check_timestamps(self.timestamps, p)))

    def __len__(self) -> int:
        return len(self.prices)


def check_timestamps(timestamps, prices: np.ndarray) -> np.ndarray:
    """Timestamps as int64, after checking there is one per price and that
    they strictly ascend."""
    ts = np.ascontiguousarray(timestamps, dtype=np.int64)
    if ts.shape != prices.shape:
        raise DataError(f"{len(ts)} timestamps for {len(prices)} prices")
    stalled = ts[1:] <= ts[:-1]
    if stalled.any():
        i = int(np.argmax(stalled))
        raise DataError(f"row {i + 2}: timestamp {ts[i + 1]} at index {i + 1} does not "
                        f"ascend past {ts[i]}")
    return ts


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view; the array given stays writeable."""
    a = a.view()
    a.flags.writeable = False
    return a


def _not_positive(row: int, price) -> DataError:
    return DataError(f"row {row}: price {float(price)} at index {row - 1} is not a "
                     f"positive finite number")


def _parse_price(text: str, row: int) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DataError(f"row {row}: cannot parse price {text!r}") from None
    if not (np.isfinite(v) and v > 0.0):
        raise _not_positive(row, v)
    return v


def _parse_ts(text: str, row: int) -> int:
    try:
        v = int(text)
    except ValueError:
        raise DataError(f"row {row}: cannot parse timestamp {text!r} as an "
                        f"integer") from None
    if not _INT64.min <= v <= _INT64.max:
        raise DataError(f"row {row}: timestamp {text} out of range for int64 "
                        f"unix seconds")
    return v


@dataclass(frozen=True)
class _Layout:
    """Column layout of a price file, decided from its first non-blank row."""

    width: int              # cells per row
    price_col: int
    ts_col: Optional[int]
    start: int              # file position of the first data row


def _csv_rows(fh):
    """Non-blank CSV rows; reads by ``readline`` so ``fh.tell()`` stays usable."""
    return (r for r in csv.reader(iter(fh.readline, ""))
            if r and any(c.strip() for c in r))


def _read_layout(fh, path) -> _Layout:
    """Decide header and column layout; leaves ``fh`` at the first data row."""
    first = next(_csv_rows(fh), None)
    if first is None:
        raise DataError(f"price file {path} is empty")
    first = [c.strip() for c in first]
    try:
        [float(c) for c in first]
    except ValueError:
        pass
    else:
        width = len(first)
        if width not in (1, 2):
            raise DataError(f"headerless file must have 1 or 2 columns, got {width}")
        fh.seek(0)
        return _Layout(width, width - 1, 0 if width == 2 else None, 0)

    names = [c.lower() for c in first]
    if "price" not in names:
        raise DataError(f"header {first} has no 'price' column")
    price_col = names.index("price")
    ts_col = next((names.index(c) for c in _TS_NAMES if c in names), None)
    unknown = [first[i] for i in range(len(names)) if i not in (price_col, ts_col)]
    if unknown:
        raise DataError(f"unrecognised column(s) {unknown} in header {first}")
    return _Layout(len(names), price_col, ts_col, fh.tell())


def _parse_bulk(fh, layout: _Layout):
    """(prices, timestamps) of a clean body read as bytes, or None.

    The grammar of clean rows is in the module docstring; any other row
    makes the whole file go through ``_parse_rows``.
    """
    # imported on the first load, so that runs which read no CSV do not load
    # the parser and its tables
    from ._floattext import parse_columns
    if layout.start >> 64:
        return None     # a text position that holds decoder state, not a byte offset
    fh.buffer.seek(layout.start)
    return parse_columns(fh.buffer, layout.price_col, layout.ts_col)


def _parse_rows(fh, layout: _Layout):
    """(prices, timestamps) parsed cell by cell, naming the first bad row."""
    data = list(_csv_rows(fh))
    prices = np.empty(len(data))
    ts = np.empty(len(data), dtype=np.int64) if layout.ts_col is not None else None
    for i, cells in enumerate(data):
        row = i + 1  # 1-based, header excluded
        if len(cells) != layout.width:
            raise DataError(f"row {row}: expected {layout.width} columns, "
                            f"got {len(cells)}")
        prices[i] = _parse_price(cells[layout.price_col].strip(), row)
        if ts is not None:
            ts[i] = _parse_ts(cells[layout.ts_col].strip(), row)
    return prices, ts


def load_prices(path) -> PriceSeries:
    """Load a price series from a CSV file (see the module docstring)."""
    try:
        with open(path, newline="") as fh:
            layout = _read_layout(fh, path)
            parsed = _parse_bulk(fh, layout)
            if parsed is None:
                fh.seek(layout.start)
                parsed = _parse_rows(fh, layout)
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read price file {path}: {err}") from None
    return PriceSeries(*parsed)


def write_csv(path, header: str, columns) -> None:
    """Write equal-length columns as CSV rows under a header line.

    Cells are the ``repr`` of each value as a Python scalar: integers as
    digits, floats as shortest round-trip text, so reading a written float
    back reproduces it bit for bit.  Columns are signed integers or floats
    of at most 8 bytes, formatted in bulk with numpy integer arithmetic; any
    other dtype is a TypeError.  Rows are formatted in chunks of 8,192, never
    as one string for the whole file, and written as bytes in binary mode,
    UTF-8 for the header.
    """
    # imported on the first write, so that runs which write no CSV do not
    # load the formatter and its tables
    from ._floattext import csv_text
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.writelines(csv_text([np.asarray(c) for c in columns], _WRITE_CHUNK_ROWS))
