"""Price-axis partitioning and reset-driven epoch segmentation.

A partition slices [lower, upper] into n equal-width buckets numbered 1..n
and owns the edge table (``edges`` and their square ``roots``) that lookup,
allocation and the reserve kernel read.  Buckets are half-open [left, right):
a price on an interior edge belongs to the higher bucket, the upper bound to
bucket n.  The widths are equal, so lookup computes the bucket from the price.

An epoch plan splits a price series into maximal runs during which the
price stays within ``tau`` buckets of the run's benchmark bucket.  The
first index that breaks the band closes the old run and opens the new one,
so consecutive epochs share exactly that boundary index.  A band can only
break where the bucket changes, so segmentation works on the series'
bucket change points: range min/max tables give each change point's first
break within a horizon, and the epoch chain follows them.  The plan keeps
the series' bucket column for the replay to read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError


def check_integer(value, low: int, key: str) -> None:
    """ConfigError under ``key`` unless value is an int or numpy integer of at
    least low (0 or 1); a bool is not an integer here."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
        kind = "non-negative" if low == 0 else "positive"
        raise ConfigError(f"{key} must be a {kind} integer, got {value}", key=key)


def check_positive(value, key: str) -> None:
    """ConfigError under ``key`` unless value is a positive finite number."""
    if not (isfinite(value) and value > 0.0):
        raise ConfigError(f"{key} must be positive and finite, got {value}", key=key)


# prices per chunk of the bucket lookup, which bounds its temporaries
_LOOKUP_ROWS = 1 << 14


@dataclass(frozen=True)
class BucketPartition:
    """Equal-width partition of [lower, upper] into n buckets."""

    lower: float
    upper: float
    n: int
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    roots: np.ndarray = field(init=False, repr=False, compare=False)
    _highs: np.ndarray = field(init=False, repr=False, compare=False)
    _scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isfinite(self.upper):
            raise ConfigError(f"upper bound must be finite, got {self.upper}", key="upper")
        if not (isfinite(self.lower) and 0.0 < self.lower < self.upper):
            raise ConfigError(f"need 0 < lower < upper, got [{self.lower}, {self.upper}]",
                              key="lower")
        check_integer(self.n, 1, "buckets")
        # edge k is lower + k * (upper - lower) / n, in that operation order
        edges = self.lower + np.arange(self.n + 1) * (self.upper - self.lower) / self.n
        edges[0], edges[-1] = self.lower, self.upper
        roots = np.sqrt(edges)
        # sqrt is monotone, so ascending roots imply ascending edges
        if not (roots[1:] > roots[:-1]).all():
            raise ConfigError(f"buckets too narrow, edges or their square roots collide: "
                              f"[{self.lower}, {self.upper}] in {self.n} buckets",
                              key="lower")
        highs = np.append(edges[1:-1], np.inf)
        edges.flags.writeable = roots.flags.writeable = highs.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "_highs", highs)
        scale = self.n / float(self.upper - self.lower)
        object.__setattr__(self, "_scale", scale if isfinite(scale) else 0.0)

    @property
    def width(self) -> float:
        return (self.upper - self.lower) / self.n

    def edge(self, k: int) -> float:
        """k-th bucket edge, k in 0..n; edge(0) and edge(n) are exact bounds."""
        if not 0 <= k <= self.n:
            raise ValueError(f"edge index must be in 0..{self.n}, got {k}")
        return float(self.edges[k])

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def bucket_of(self, p: float) -> int:
        """1-based bucket of price p, ValueError outside [lower, upper]."""
        return int(self.bucket_column([p])[0]) + 1

    def bucket_indices(self, prices: np.ndarray) -> np.ndarray:
        """Vectorised bucket_of over a price array."""
        return self.bucket_column(prices).astype(np.int64) + 1

    def bucket_column(self, prices) -> np.ndarray:
        """0-based buckets of a 1-d price array, read-only, in int16 if n fits
        it, else int32; ValueError names a price outside [lower, upper].

        The guess floor((p - lower) n / (upper - lower)), clamped to n - 1,
        is off by one where the edges' rounding moves them past p: such a
        row moves one bucket down or up.  A row still outside its edges is
        searched for: on a partition a few ulps wide the scale can be
        subnormal, or overflow and guess 0.
        """
        p = np.asarray(prices, dtype=np.float64)
        # reductions scan without a full-length mask; NaN fails both
        if p.size and not (self.lower <= p.min() and p.max() <= self.upper):
            i = int(np.argmax(~np.isfinite(p) | (p < self.lower) | (p > self.upper)))
            raise ValueError(f"price {p[i]} at index {i} outside partition "
                             f"[{self.lower}, {self.upper}]")
        out = np.empty(len(p), dtype=np.int16 if self.n < 1 << 15 else np.int32)
        lows, highs, scale = self.edges[:-1], self._highs, self._scale
        for c0 in range(0, len(p), _LOOKUP_ROWS):
            c = p[c0:c0 + _LOOKUP_ROWS]
            k = np.minimum((c - self.lower) * scale, self.n - 1).astype(np.intp)
            below, above = c < lows.take(k), c >= highs.take(k)
            moved = np.flatnonzero(below | above)
            if moved.size:
                km, cm = k[moved] + above[moved] - below[moved], c[moved]
                bad = (cm < lows[km]) | (cm >= highs[km])
                km[bad] = np.searchsorted(self.edges[1:-1], cm[bad], side="right")
                k[moved] = km
            out[c0:c0 + _LOOKUP_ROWS] = k
        out.flags.writeable = False
        return out


class Epoch(NamedTuple):
    """One deployment window: series indices start..end inclusive."""

    start: int
    end: int
    benchmark: int


@dataclass(frozen=True, eq=False)
class EpochPlan:
    """Epoch segmentation of a price series.

    ``epochs`` is a read-only int64 table with one (start, end, benchmark)
    row per epoch; it may be given as any sequence of such rows, ``Epoch``s
    included.  Iterating or indexing a plan gives ``Epoch``s.  ``buckets`` is
    the series' ``bucket_column`` if ``segment_epochs`` made the plan.
    """

    epochs: np.ndarray
    series_length: int
    tau: int
    buckets: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        t = np.array(self.epochs, dtype=np.int64)
        if not t.size:
            raise ValueError("epoch plan must contain at least one epoch")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError(f"epochs must be (start, end, benchmark) rows, "
                             f"got shape {t.shape}")
        if t[0, 0] != 0 or t[-1, 1] != self.series_length - 1:
            raise ValueError("epochs must cover the series end to end")
        gap = np.flatnonzero(t[1:, 0] != t[:-1, 1])
        if gap.size:
            k = gap[0]
            raise ValueError(f"consecutive epochs must share a boundary index, "
                             f"got end={t[k, 1]} then start={t[k + 1, 0]}")
        if (np.abs(np.diff(t[:, 2])) <= self.tau).any():
            raise ValueError("consecutive benchmark buckets must differ by more "
                             f"than tau={self.tau}")
        t.flags.writeable = False
        object.__setattr__(self, "epochs", t)

    def __len__(self) -> int:
        return len(self.epochs)

    def __getitem__(self, k: int) -> Epoch:
        return Epoch._make(self.epochs[k].tolist())

    def __iter__(self):
        return map(Epoch._make, self.epochs.tolist())


# the range tables look for a band break within the next _HORIZON change
# points, in _LEVELS doubling steps, _CHUNK change points at a time; a break
# further on goes to the galloping scan
_LEVELS = 7
_HORIZON = (1 << _LEVELS) - 1
_CHUNK = 1 << 14
# values in the first window of the galloping scan; each miss doubles it
_FIRST_WINDOW = 64


def _band_reach(v: np.ndarray, tau: int, n: int) -> np.ndarray:
    """For each j, how many of v[j + 1], v[j + 2], ... stay within tau of
    v[j] before the first that does not, capped at _HORIZON (uint8).

    v holds 0-based buckets, below n; past its end every value counts as out
    of band.  min and max of v over windows of 2**l values, for l below
    _LEVELS, are built one chunk of j at a time, and each j's run is found
    by descending them from the longest window to the shortest.
    """
    k = len(v)
    reach = np.empty(k, dtype=np.uint8)
    # past the end every value is -tau - 1, out of every band
    ext = np.concatenate([v, np.full(_HORIZON, -tau - 1, dtype=v.dtype)])
    for c0 in range(0, k, _CHUNK):
        c1 = min(k, c0 + _CHUNK)
        # level l holds the min and max of ext[i : i + 2**l] from i = c0 + 1
        lows, highs = [ext[c0 + 1:c1 + _HORIZON]], [ext[c0 + 1:c1 + _HORIZON]]
        for level in range(1, _LEVELS):
            h = 1 << (level - 1)
            lows.append(np.minimum(lows[-1][:-h], lows[-1][h:]))
            highs.append(np.maximum(highs[-1][:-h], highs[-1][h:]))
        # no value exceeds n - 1, so clipping s + tau to it keeps v's type
        s = v[c0:c1]
        lo, hi = s - tau, np.minimum(s, n - 1 - tau) + tau
        # at - (its start) is the in-band run so far, grown by 2**l windows
        at = np.arange(c1 - c0)
        for level in reversed(range(_LEVELS)):
            inside = (lows[level][at] >= lo) & (highs[level][at] <= hi)
            at += inside << level
        reach[c0:c1] = at - np.arange(c1 - c0)
    return reach


def segment_epochs(partition: BucketPartition, prices: np.ndarray, tau: int) -> EpochPlan:
    """Segment a price series into reset epochs.

    The first epoch's benchmark is the bucket of the first price.  Scanning
    forward, the first index whose bucket differs from the benchmark by more
    than tau closes the running epoch at that index and opens a new one
    there, with that price's bucket as the new benchmark.  The boundary
    index therefore belongs to both epochs: it is the last point of the old
    and the first point of the new.

    Args:
        partition: bucket layout; every price must fall inside it.
        prices: price series, length >= 1.
        tau: reset half-width in buckets, non-negative integer.

    Returns:
        EpochPlan covering the whole series, carrying its bucket column.
    """
    check_integer(tau, 0, "tau")
    p = np.asarray(prices, dtype=np.float64)
    m = len(p)
    if m == 0:
        raise ValueError("price series is empty")
    buckets = partition.bucket_column(p)
    if tau >= partition.n - 1:
        # every bucket lies within tau of every other, so nothing resets
        return EpochPlan([(0, m - 1, int(buckets[0]) + 1)], m, int(tau), buckets)

    # a band breaks only where the bucket changes: row 0 and the change points
    rows = np.concatenate([[0], np.flatnonzero(buckets[1:] != buckets[:-1]) + 1])
    v = buckets[rows]
    reach = _band_reach(v, int(tau), partition.n)

    # the epoch chain: the next epoch starts at the first value out of band
    firsts, j, k = [0], 0, len(v)
    while True:
        r = int(reach[j])
        if r < _HORIZON:
            nxt = j + r + 1
        else:  # galloping scan: windows that double in length
            s, nxt, window = v[j], j + r + 1, _FIRST_WINDOW
            while nxt < k:
                hits = np.flatnonzero(np.abs(v[nxt:nxt + window] - s) > tau)
                if hits.size:
                    nxt += int(hits[0])
                    break
                nxt, window = nxt + window, 2 * window
        if nxt >= k:
            break
        firsts.append(nxt)
        j = nxt

    firsts = np.array(firsts)
    table = np.empty((len(firsts), 3), dtype=np.int64)
    table[:, 0] = rows[firsts]
    table[:-1, 1] = table[1:, 0]
    table[-1, 1] = m - 1
    np.add(v[firsts], 1, out=table[:, 2], dtype=np.int64)
    return EpochPlan(table, m, int(tau), buckets)
