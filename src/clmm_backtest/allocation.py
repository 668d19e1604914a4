"""Capital allocation across buckets for one deployment epoch.

Weights describe how the deployable capital is divided between buckets;
they are non-negative and sum to one.  Deployment turns each bucket's
capital share into range liquidity anchored at the epoch's first price:
buckets entirely above the anchor are funded with token A, buckets
entirely below with token B, and the bucket containing the anchor gets a
two-sided split.  An anchor sitting exactly on a bucket edge follows the
same edge-ownership rule as bucket lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .bucketing import BucketPartition, check_tau

# weights are renormalised on construction; this only guards against
# callers handing in something that was never a distribution
_WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ProfileParams:
    """Bell-curve liquidity profile in standardised bucket coordinates.

    Bucket midpoints are mapped linearly from [lower, upper] onto
    [-bound, +bound]; mu and variance are expressed on that axis.
    """

    mu: float
    variance: float
    bound: float = 3.0

    def __post_init__(self):
        if not (isfinite(self.mu) and isfinite(self.variance) and isfinite(self.bound)):
            raise ValueError("profile parameters must be finite")
        if self.variance <= 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")
        if self.bound <= 0.0:
            raise ValueError(f"bound must be positive, got {self.bound}")


@dataclass(frozen=True)
class AllocationWeights:
    """Per-bucket capital weights, non-negative, summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or len(w) == 0:
            raise ValueError("weights must be a non-empty 1-d vector")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("weights must be finite and non-negative")
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {total}")
        object.__setattr__(self, "weights", w / total)

    @property
    def n(self) -> int:
        return len(self.weights)

    def active_buckets(self) -> np.ndarray:
        """1-based indices of buckets carrying positive weight."""
        return np.flatnonzero(self.weights > 0.0) + 1


def _band(partition: BucketPartition, s: int, tau: int) -> tuple[int, int]:
    if not 1 <= s <= partition.n:
        raise ValueError(f"benchmark bucket must be in 1..{partition.n}, got {s}")
    check_tau(tau)
    return max(1, s - tau), min(partition.n, s + tau)


def uniform_band_weights(partition: BucketPartition, s: int, tau: int) -> AllocationWeights:
    """Equal weights on the buckets within tau of the benchmark bucket s.

    The band [s - tau, s + tau] is clipped at the partition edges, so a
    benchmark near an edge spreads the same capital over fewer buckets.
    """
    lo, hi = _band(partition, s, tau)
    w = np.zeros(partition.n)
    w[lo - 1:hi] = 1.0 / (hi - lo + 1)
    return AllocationWeights(w)


def random_band_weights(partition: BucketPartition, s: int, tau: int,
                        seed) -> AllocationWeights:
    """Seeded random weights on the band around the benchmark bucket.

    Draws one uniform variate per band bucket and normalises.  The same
    seed always reproduces the same weights.
    """
    lo, hi = _band(partition, s, tau)
    rng = np.random.default_rng(seed)
    draw = rng.random(hi - lo + 1)
    total = draw.sum()
    if total <= 0.0:  # astronomically unlikely all-zero draw
        draw = np.ones_like(draw)
        total = draw.sum()
    w = np.zeros(partition.n)
    w[lo - 1:hi] = draw / total
    return AllocationWeights(w)


def normal_profile_weights(partition: BucketPartition,
                           params: ProfileParams) -> AllocationWeights:
    """Bell-curve weights over the whole partition.

    Each bucket midpoint is mapped onto [-bound, +bound] and weighted by
    the unnormalised normal density exp(-(u - mu)^2 / (2 * variance));
    weights are then normalised over all n buckets.  Large variance
    flattens the profile towards uniform.
    """
    mids = partition.midpoints()
    u = -params.bound + 2.0 * params.bound * (mids - partition.lower) \
        / (partition.upper - partition.lower)
    z = -((u - params.mu) ** 2) / (2.0 * params.variance)
    w = np.exp(z - z.max())  # shift so the peak never underflows
    return AllocationWeights(w / w.sum())


def custom_weights(partition: BucketPartition, weights) -> AllocationWeights:
    """Wrap a user-supplied weight vector after checking its length."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (partition.n,):
        raise ValueError(f"expected {partition.n} weights, got shape {w.shape}")
    return AllocationWeights(w)


@dataclass(frozen=True)
class EpochAllocation:
    """Deployed liquidity for one epoch: liquidity[i-1] backs bucket i."""

    liquidity: np.ndarray
    deployed_capital: float
    anchor_price: float

    def active_buckets(self) -> np.ndarray:
        """1-based indices of buckets holding positive liquidity."""
        return np.flatnonzero(self.liquidity > 0.0) + 1


def allocate_epoch(weights: AllocationWeights, capital: float, anchor_price: float,
                   partition: BucketPartition) -> EpochAllocation:
    """Deploy a capital budget across buckets at the epoch's anchor price.

    Each bucket with positive weight receives weight * capital and is
    converted into liquidity on that bucket's range.  Valuing every
    deployed position at the anchor price recovers the budget exactly.

    Args:
        weights: per-bucket capital weights over the partition.
        capital: deployable capital in token B, positive.
        anchor_price: first price of the epoch.
        partition: bucket layout the weights refer to.

    Returns:
        EpochAllocation with the per-bucket liquidity vector.
    """
    if weights.n != partition.n:
        raise ValueError(f"weights cover {weights.n} buckets, partition has {partition.n}")
    if not (isfinite(capital) and capital > 0.0):
        raise ValueError(f"capital must be positive and finite, got {capital}")
    if not (isfinite(anchor_price) and anchor_price > 0.0):
        raise ValueError(f"anchor price must be positive and finite, got {anchor_price}")

    # core_math.split_capital over the weights' span, in its operation order
    # and sides read from roots: buckets from k up hold token A, those below
    # token B, except bucket k - 1 when the anchor lies strictly inside it
    active = weights.active_buckets()
    lo, hi = int(active[0]) - 1, int(active[-1])
    share = weights.weights[lo:hi] * capital
    sa, sb = partition.roots[lo:hi], partition.roots[lo + 1:hi + 1]
    sp = sqrt(anchor_price)
    k = int(sa.searchsorted(sp))
    liq = share / (sb - sa)
    liq[k:] = share[k:] / anchor_price * sa[k:] * sb[k:] / (sb[k:] - sa[k:])
    if k and sp < sb[k - 1]:
        x_l = sp * sb[k - 1] / (sb[k - 1] - sp)
        y_l = 1.0 / (sp - sa[k - 1])
        liq[k - 1] = share[k - 1] * x_l * y_l / (x_l + anchor_price * y_l)
    liquidity = np.zeros(partition.n)
    liquidity[lo:hi] = liq
    return EpochAllocation(liquidity, capital, anchor_price)
