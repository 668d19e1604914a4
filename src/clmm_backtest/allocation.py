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

# weights are renormalised when made; this only guards against callers
# handing in something that was never a distribution
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

    Benchmarks (buckets 1..n of a plan) and tau are taken as given.

    Returns:
        (offsets, weights): int64 offsets, shape (rows,), and the weight
        table, shape (rows, W).
    """
    s = np.asarray(benchmarks, dtype=np.int64)
    n = partition.n
    width = band_width(partition, tau)
    offsets = np.clip(s - 1 - tau, 0, n - width)
    # band columns [a, b) inside each window
    a = np.maximum(s - 1 - tau, 0) - offsets
    b = np.minimum(s + tau, n) - offsets
    cols = np.arange(width)
    band = (cols >= a[:, None]) & (cols < b[:, None])
    if seed is None:
        return offsets, band / (b - a)[:, None]
    # checked here as well as in the config: _pcg._words never ends on a negative seed
    check_integer(seed, 0, "seed")
    # imported on the first random draw, so that other runs do not load
    # the generator
    from ._pcg import epoch_draws
    # row r's band takes the first b - a draws of its stream
    draws = epoch_draws(seed, first_epoch + np.arange(len(s)), width)
    w = np.take_along_axis(draws, np.maximum(cols - a[:, None], 0), axis=1)
    w[~band] = 0.0
    total = w.sum(axis=1, keepdims=True)
    empty = total[:, 0] <= 0.0  # astronomically unlikely all-zero draw
    w[empty], total[empty] = band[empty], (b - a)[empty, None]
    w /= total
    # every weight vector is renormalised, and so are these rows
    w /= w.sum(axis=1, keepdims=True)
    return offsets, w


def renormalised(w: np.ndarray) -> np.ndarray:
    """Weight rows (the last axis) over their sums, in float64: the form every
    weight vector a run deploys takes.  ConfigError under ``weights`` unless
    every row is finite, non-negative and sums to one."""
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ConfigError("weights must be finite and non-negative", key="weights")
    total = w.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0) > _WEIGHT_SUM_TOL
    if off.any():
        raise ConfigError(f"weights must sum to 1, got {float(total[off][0])}", key="weights")
    return w / total


def normal_profile_table(partition: BucketPartition, mu: float, variances,
                         bound: float) -> np.ndarray:
    """Bell-curve weights over the whole partition, one row per variance.

    Each bucket midpoint is mapped onto [-bound, +bound] and weighted by
    the unnormalised normal density exp(-(u - mu)^2 / (2 * variance));
    each row is then normalised over all n buckets.  Large variance
    flattens the profile towards uniform.  mu, bound and each variance are
    values ``ProfileParams`` admits; callers check them there.
    """
    mids = 0.5 * (partition.edges[:-1] + partition.edges[1:])
    u = -bound + 2.0 * bound * (mids - partition.lower) / (partition.upper - partition.lower)
    z = -((u - mu) ** 2) / (2.0 * np.asarray(variances, dtype=np.float64)[:, None])
    w = np.exp(z - z.max(axis=1, keepdims=True))  # shift so the peak never underflows
    return w / w.sum(axis=1, keepdims=True)


def normal_profile_weights(partition: BucketPartition, params: ProfileParams) -> np.ndarray:
    """``normal_profile_table``'s weights at one profile, renormalised."""
    return renormalised(normal_profile_table(partition, params.mu, [params.variance],
                                             params.bound)[0])


def custom_weights(partition: BucketPartition, weights) -> np.ndarray:
    """A user-supplied weight vector, renormalised, after checking its length."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (partition.n,):
        raise ConfigError(f"expected {partition.n} weights, got shape {w.shape}",
                          key="weights")
    return renormalised(w)


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
