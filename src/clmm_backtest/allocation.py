"""Capital allocation across buckets for deployment epochs.

Weights describe how the deployable capital is divided between buckets;
they are non-negative and sum to one.  Deployment turns each bucket's
capital share into range liquidity anchored at the epoch's first price:
buckets entirely above the anchor are funded with token A, buckets
entirely below with token B, and the bucket containing the anchor gets a
two-sided split.  An anchor sitting exactly on a bucket edge follows the
same edge-ownership rule as bucket lookup.

Both steps work on many epochs at once: ``band_weights`` gives the band
strategies' weights over fixed-width windows of buckets, one row per
epoch, and ``deploy`` turns a table of shares into liquidity row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .bucketing import BucketPartition, check_integer, check_positive
from .errors import ConfigError

# weights are renormalised on construction; this only guards against
# callers handing in something that was never a distribution
_WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ProfileParams:
    """Bell-curve liquidity profile in standardised bucket coordinates.

    Bucket midpoints are mapped linearly from [lower, upper] onto
    [-bound, +bound]; mu and variance are expressed on that axis.  Each
    value is checked when the profile is made, under its config key.
    """

    mu: float
    variance: float
    bound: float = 3.0

    def __post_init__(self):
        if not isfinite(self.mu):
            raise ConfigError(f"mu must be finite, got {self.mu}", key="mu")
        check_positive(self.variance, "variance")
        check_positive(self.bound, "bound")


@dataclass(frozen=True)
class AllocationWeights:
    """Per-bucket capital weights, non-negative, summing to one; a vector
    that is not is a ConfigError under the ``weights`` key."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or len(w) == 0:
            raise ConfigError("weights must be a non-empty 1-d vector", key="weights")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ConfigError("weights must be finite and non-negative", key="weights")
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ConfigError(f"weights must sum to 1, got {total}", key="weights")
        object.__setattr__(self, "weights", w / total)

    def active_buckets(self) -> np.ndarray:
        """1-based indices of buckets carrying positive weight."""
        return np.flatnonzero(self.weights > 0.0) + 1


def band_width(partition: BucketPartition, tau: int) -> int:
    """Buckets in a band strategy's window: the widest band, 2 tau + 1,
    or the whole partition."""
    return min(partition.n, 2 * int(tau) + 1)


def band_weights(partition: BucketPartition, benchmarks, tau: int, seed=None,
                 first_epoch: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Band weights for many benchmark buckets at once.

    Row r puts weight on the buckets within tau of benchmarks[r], the band
    clipped at the partition edges, so a benchmark near an edge spreads
    the same capital over fewer buckets.  Rows are windows of
    W = min(n, 2 tau + 1) buckets: row r covers the 0-based buckets
    offsets[r] .. offsets[r] + W - 1, and cells outside the band are zero.

    With ``seed`` None every band bucket gets 1 / (band width).  Otherwise
    row r is epoch e = first_epoch + r's draw: one uniform variate per band
    bucket, the first (band width) of
    ``np.random.default_rng([seed, e]).random(W)``, normalised to sum to
    one; the same seed and epoch always reproduce the same row.

    Returns:
        (offsets, weights): int64 offsets, shape (rows,), and the weight
        table, shape (rows, W).
    """
    s = np.asarray(benchmarks, dtype=np.int64)
    n = partition.n
    if s.size and not (1 <= s.min() and s.max() <= n):
        bad = s[(s < 1) | (s > n)][0]
        raise ValueError(f"benchmark bucket must be in 1..{n}, got {bad}")
    check_integer(tau, 0, "tau")
    width = band_width(partition, tau)
    offsets = np.clip(s - 1 - tau, 0, n - width)
    # band columns [a, b) inside each window
    a = np.maximum(s - 1 - tau, 0) - offsets
    b = np.minimum(s + tau, n) - offsets
    cols = np.arange(width)
    band = (cols >= a[:, None]) & (cols < b[:, None])
    if seed is None:
        return offsets, band / (b - a)[:, None]
    check_integer(seed, 0, "seed")
    # imported on the first random draw, so that other runs do not load
    # the generator and the formatter tables it shares
    from ._pcg import epoch_draws
    # row r's band takes the first b - a draws of its stream
    draws = epoch_draws(seed, first_epoch + np.arange(len(s)), width)
    w = np.take_along_axis(draws, np.maximum(cols - a[:, None], 0), axis=1)
    w[~band] = 0.0
    total = w.sum(axis=1, keepdims=True)
    empty = total[:, 0] <= 0.0  # astronomically unlikely all-zero draw
    w[empty], total[empty] = band[empty], (b - a)[empty, None]
    w /= total
    # AllocationWeights renormalises every weight vector; so do these rows
    w /= w.sum(axis=1, keepdims=True)
    return offsets, w


def normal_profile_weights(partition: BucketPartition,
                           params: ProfileParams) -> AllocationWeights:
    """Bell-curve weights over the whole partition.

    Each bucket midpoint is mapped onto [-bound, +bound] and weighted by
    the unnormalised normal density exp(-(u - mu)^2 / (2 * variance));
    weights are then normalised over all n buckets.  Large variance
    flattens the profile towards uniform.
    """
    mids = 0.5 * (partition.edges[:-1] + partition.edges[1:])
    u = -params.bound + 2.0 * params.bound * (mids - partition.lower) \
        / (partition.upper - partition.lower)
    z = -((u - params.mu) ** 2) / (2.0 * params.variance)
    w = np.exp(z - z.max())  # shift so the peak never underflows
    return AllocationWeights(w / w.sum())


def custom_weights(partition: BucketPartition, weights) -> AllocationWeights:
    """Wrap a user-supplied weight vector after checking its length."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (partition.n,):
        raise ConfigError(f"expected {partition.n} weights, got shape {w.shape}",
                          key="weights")
    return AllocationWeights(w)


def deploy(share: np.ndarray, anchor_price: np.ndarray, sa: np.ndarray,
           sb: np.ndarray) -> np.ndarray:
    """Liquidity for capital shares, one row per deployment.

    ``share`` (rows, W) is the token-B capital per bucket, ``anchor_price``
    (rows,) each row's anchor, and ``sa``, ``sb`` (rows, W) the buckets'
    lower and upper roots, ascending along each row.  This is the test
    oracle's scalar ``split_capital`` (``tests/oracle.py``) per cell, in
    its operation order, with sides read from roots: buckets whose lower
    root is at least the anchor's hold token A, those below token B, and a
    bucket with the anchor strictly inside gets the two-sided split.
    """
    a = anchor_price[:, None]
    sp = np.sqrt(a)
    width = sb - sa
    liq = np.where(sa >= sp, share / a * sa * sb / width, share / width)
    r, c = ((sa < sp) & (sp < sb)).nonzero()
    sp, a, sa, sb = sp[r, 0], a[r, 0], sa[r, c], sb[r, c]
    x_l = sp * sb / (sb - sp)
    y_l = 1.0 / (sp - sa)
    liq[r, c] = share[r, c] * x_l * y_l / (x_l + a * y_l)
    return liq
