"""Price series loading and writing.

CSV is the only ingest format.  Accepted layouts:

  * header ``ts,price`` (or ``timestamp,price``, any column order)
  * header ``price`` alone
  * headerless two columns: timestamp, price
  * headerless single column of prices

Timestamps are integer unix seconds and must be strictly ascending;
prices must be positive and finite.  Error messages name the offending
data row (1-based, header excluded).  ``write_prices`` emits shortest
round-trip float text, so a load/write/load cycle reproduces the series
bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError

_TS_NAMES = ("ts", "timestamp", "time")


@dataclass(frozen=True)
class PriceSeries:
    """A positive price series with optional unix-second timestamps."""

    prices: np.ndarray
    timestamps: Optional[np.ndarray] = None
    source: str = ""

    def __post_init__(self):
        p = np.ascontiguousarray(self.prices, dtype=np.float64)
        if p.ndim != 1:
            raise DataError("price series must be one-dimensional")
        if len(p) < 2:
            raise DataError(f"price series needs at least 2 rows, got {len(p)}")
        bad = ~np.isfinite(p) | (p <= 0.0)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"row {i + 1}: price {p[i]} is not a positive finite number")
        object.__setattr__(self, "prices", p)
        if self.timestamps is not None:
            ts = check_timestamp_count(self.timestamps, p)
            steps = np.diff(ts)
            if (steps <= 0).any():
                i = int(np.argmax(steps <= 0))
                raise DataError(f"row {i + 2}: timestamp {ts[i + 1]} does not ascend "
                                f"past {ts[i]}")
            object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return len(self.prices)


def check_timestamp_count(timestamps, prices: np.ndarray) -> np.ndarray:
    """Timestamps as int64, after checking there is one per price."""
    ts = np.ascontiguousarray(timestamps, dtype=np.int64)
    if ts.shape != prices.shape:
        raise DataError(f"{len(ts)} timestamps for {len(prices)} prices")
    return ts


def _parse_price(text: str, row: int) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DataError(f"row {row}: cannot parse price {text!r}") from None
    if not (np.isfinite(v) and v > 0.0):
        raise DataError(f"row {row}: price {text} is not a positive finite number")
    return v


def _parse_ts(text: str, row: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"row {row}: cannot parse timestamp {text!r} as an "
                        f"integer") from None


def load_prices(path) -> PriceSeries:
    """Load a price series from a CSV file (see the module docstring)."""
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    except OSError as err:
        raise DataError(f"cannot read price file {path}: {err}") from None
    if not rows:
        raise DataError(f"price file {path} is empty")

    first = [c.strip() for c in rows[0]]
    ts_col: Optional[int] = None
    price_col: int
    try:
        [float(c) for c in first]
        has_header = False
    except ValueError:
        has_header = True

    if has_header:
        names = [c.strip().lower() for c in first]
        if "price" not in names:
            raise DataError(f"header {first} has no 'price' column")
        price_col = names.index("price")
        for cand in _TS_NAMES:
            if cand in names:
                ts_col = names.index(cand)
                break
        known = {price_col, ts_col} - {None}
        unknown = [first[i] for i in range(len(names)) if i not in known]
        if unknown:
            raise DataError(f"unrecognised column(s) {unknown} in header {first}")
        data = rows[1:]
    else:
        width = len(first)
        if width == 1:
            price_col = 0
        elif width == 2:
            ts_col, price_col = 0, 1
        else:
            raise DataError(f"headerless file must have 1 or 2 columns, got {width}")
        data = rows

    prices = np.empty(len(data))
    ts = np.empty(len(data), dtype=np.int64) if ts_col is not None else None
    for i, cells in enumerate(data):
        row = i + 1  # 1-based, header excluded
        if len(cells) != len(first):
            raise DataError(f"row {row}: expected {len(first)} columns, got {len(cells)}")
        prices[i] = _parse_price(cells[price_col].strip(), row)
        if ts is not None:
            ts[i] = _parse_ts(cells[ts_col].strip(), row)
    return PriceSeries(prices, ts, source=str(path))


def write_prices(series: PriceSeries, path) -> None:
    """Write a series back to CSV in a bit-exact round-trippable form."""
    with open(path, "w", newline="") as fh:
        if series.timestamps is not None:
            fh.write("ts,price\n")
            for t, p in zip(series.timestamps, series.prices):
                fh.write(f"{int(t)},{float(p)!r}\n")
        else:
            fh.write("price\n")
            for p in series.prices:
                fh.write(f"{float(p)!r}\n")
