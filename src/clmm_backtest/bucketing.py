"""Price-axis partitioning and reset-driven epoch segmentation.

A partition slices [lower, upper] into n equal-width buckets numbered 1..n.
Buckets are half-open [left, right): a price sitting exactly on an interior
edge belongs to the higher bucket; the partition's upper bound belongs to
bucket n.

An epoch plan splits a price series into maximal runs during which the
price stays within ``tau`` buckets of the run's benchmark bucket.  The
first index that breaks the band closes the old run and opens the new one,
so consecutive epochs share exactly that boundary index.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import NamedTuple

import numpy as np

from .core_math import PriceRange


@dataclass(frozen=True)
class BucketPartition:
    """Equal-width partition of [lower, upper] into n buckets."""

    lower: float
    upper: float
    n: int

    def __post_init__(self):
        if not (isfinite(self.lower) and isfinite(self.upper)):
            raise ValueError(f"partition bounds must be finite, got [{self.lower}, {self.upper}]")
        if not 0.0 < self.lower < self.upper:
            raise ValueError(f"need 0 < lower < upper, got [{self.lower}, {self.upper}]")
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"bucket count must be a positive integer, got {self.n}")

    @property
    def width(self) -> float:
        return (self.upper - self.lower) / self.n

    def edge(self, k: int) -> float:
        """k-th bucket edge, k in 0..n; edge(0) and edge(n) are exact bounds."""
        if not 0 <= k <= self.n:
            raise ValueError(f"edge index must be in 0..{self.n}, got {k}")
        if k == 0:
            return self.lower
        if k == self.n:
            return self.upper
        return self.lower + k * (self.upper - self.lower) / self.n

    def edges(self) -> np.ndarray:
        return np.array([self.edge(k) for k in range(self.n + 1)])

    def midpoints(self) -> np.ndarray:
        e = self.edges()
        return 0.5 * (e[:-1] + e[1:])

    def bucket_range(self, i: int) -> PriceRange:
        """Price range of bucket i (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"bucket index must be in 1..{self.n}, got {i}")
        return PriceRange(self.edge(i - 1), self.edge(i))

    def bucket_of(self, p: float) -> int:
        """1-based bucket index containing price p.

        Raises ValueError for prices outside [lower, upper].
        """
        if not (isfinite(p) and self.lower <= p <= self.upper):
            raise ValueError(f"price {p} outside partition [{self.lower}, {self.upper}]")
        idx = int((p - self.lower) * self.n / (self.upper - self.lower)) + 1
        return min(idx, self.n)

    def _check_inside(self, p: np.ndarray) -> None:
        """Raise ValueError naming the first price outside [lower, upper]."""
        # reductions scan without a full-length mask; NaN fails both
        if p.size and not (self.lower <= p.min() and p.max() <= self.upper):
            i = int(np.argmax(~np.isfinite(p) | (p < self.lower) | (p > self.upper)))
            raise ValueError(f"price {p[i]} at index {i} outside partition "
                             f"[{self.lower}, {self.upper}]")

    def bucket_indices(self, prices: np.ndarray) -> np.ndarray:
        """Vectorised bucket_of over a price array."""
        p = np.asarray(prices, dtype=np.float64)
        self._check_inside(p)
        # same operation order as bucket_of, in one scratch array
        scaled = np.subtract(p, self.lower)
        scaled *= self.n
        scaled /= self.upper - self.lower
        np.floor(scaled, out=scaled)
        idx = scaled.astype(np.int64)
        idx += 1
        return np.minimum(idx, self.n, out=idx)


class Epoch(NamedTuple):
    """One deployment window: series indices start..end inclusive."""

    start: int
    end: int
    benchmark: int


@dataclass(frozen=True)
class EpochPlan:
    """Epoch segmentation of a price series."""

    epochs: tuple[Epoch, ...]
    series_length: int
    tau: int

    def __post_init__(self):
        eps = self.epochs
        if not eps:
            raise ValueError("epoch plan must contain at least one epoch")
        if eps[0].start != 0 or eps[-1].end != self.series_length - 1:
            raise ValueError("epochs must cover the series end to end")
        for prev, cur in zip(eps, eps[1:]):
            if cur.start != prev.end:
                raise ValueError(f"consecutive epochs must share a boundary index, "
                                 f"got end={prev.end} then start={cur.start}")
            if abs(cur.benchmark - prev.benchmark) <= self.tau:
                raise ValueError("consecutive benchmark buckets must differ by more "
                                 f"than tau={self.tau}")

    def __len__(self) -> int:
        return len(self.epochs)

    def __iter__(self):
        return iter(self.epochs)


# rows in the first window of the galloping reset scan; each miss doubles it
_FIRST_WINDOW = 64


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
        EpochPlan covering the whole series.
    """
    if not isinstance(tau, (int, np.integer)) or tau < 0:
        raise ValueError(f"tau must be a non-negative integer, got {tau}")
    p = np.asarray(prices, dtype=np.float64)
    m = len(p)
    if m == 0:
        raise ValueError("price series is empty")
    if tau >= partition.n - 1:
        # every bucket lies within tau of every other, so nothing resets
        partition._check_inside(p)
        return EpochPlan((Epoch(0, m - 1, partition.bucket_of(float(p[0]))),),
                         m, int(tau))

    # galloping scan: test windows that double in length for the first
    # band break, so an epoch of length L costs O(log L) numpy calls
    buckets = partition.bucket_indices(p)
    epochs, start, s = [], 0, int(buckets[0])
    i, window = 1, _FIRST_WINDOW
    while i < m:
        hits = np.flatnonzero(np.abs(buckets[i:i + window] - s) > tau)
        if hits.size:
            i += int(hits[0])
            epochs.append(Epoch(start, i, s))
            start, s = i, int(buckets[i])
            i, window = i + 1, _FIRST_WINDOW
        else:
            i, window = i + window, 2 * window
    epochs.append(Epoch(start, m - 1, s))
    return EpochPlan(tuple(epochs), m, int(tau))
