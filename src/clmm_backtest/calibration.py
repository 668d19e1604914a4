"""Fit a bell-curve liquidity profile to an observed fee total.

The whole pool is modelled as one bell-curve allocation deployed once, at
the first price p0, over the full series (tau = n >= n - 1: no resets),
with capital C equal to the pool's locked value.  The fee is linear in
each bucket's capital share: weight w_i buys liquidity C w_i l_i, l_i
being ``deploy`` at unit share.  Liquidity l takes in l times each rise
of its clipped root c = clip(sqrt(p), sa, sb) in token B and of 1/c in
token A, so with U_b,i the upward travel of c through bucket i and U_a,i
the travel of 1/c through it on down-moves, the volume (token A at the
last price p_end) is C (w . v), v_i = l_i (U_b,i + p_end U_a,i), capped
like ``run_backtest``'s ledger, and the fee is the fee rate times that.
One O(m + n) pass gives v: ``np.bincount`` adds each step's overlap
[a, b] with its lower end bucket (b - a, or (b - a) / (a b) for 1/c, exact
to a few ulps of the step).  Only the steps that leave their bucket, about
1% of a minute walk's over 100 buckets, add a second overlap with the
upper end bucket, and a difference array counts the buckets they cross
whole.

Fixing the profile centre mu, the fee is evaluated on an ascending
variance grid and the smallest variance whose fee crosses the target is
refined by bisection, which reads v from the curve's ``bucket_volume``.
Gas never enters the objective.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import isfinite

import numpy as np

from .allocation import ProfileParams, deploy, normal_profile_table, renormalised
from .bucketing import check_positive
from .engine import _BLOCK_ROWS, BacktestConfig, checked_prices
from .errors import CalibrationUnreachableError, ConfigError, DataError

_REL_TOL = 1e-3
_MAX_BISECTIONS = 60


@dataclass(frozen=True, eq=False)
class FeeCurve:
    """Modelled fee total as a function of profile variance, mu fixed, as
    ``fee_curve`` makes it: the pool, the float64 grid and fees, and the
    read-only travel vector v the bisection reads.  Curves compare and hash
    by identity, as their array fields have no single truth value."""

    pool_config: BacktestConfig
    mu: float
    bound: float
    variance_grid: np.ndarray
    fees: np.ndarray
    bucket_volume: np.ndarray


@dataclass(frozen=True)
class CalibrationResult:
    """Variance fit for a fixed profile centre."""

    mu: float
    variance: float
    bound: float
    model_fee: float
    target_fee: float
    relative_error: float
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return asdict(self)


# float64 overflow, on a series spanning hundreds of decades, is let
# through without a warning and caught in the fees
@np.errstate(over="ignore", invalid="ignore")
def _bucket_volume(pool_config: BacktestConfig, prices) -> np.ndarray:
    """v: per bucket, the volume unit capital on it alone trades."""
    part = pool_config.partition
    p, _, clamped = checked_prices(pool_config, prices)
    n, r = part.n, part.roots
    travel = np.zeros(2 * n)                            # U_b, then U_a
    crossed = np.zeros(2 * (n + 1), dtype=np.int64)     # up, then down
    buckets = part.bucket_column(clamped)
    for t0 in range(0, len(p) - 1, _BLOCK_ROWS):  # bounds the temporaries
        s = np.sqrt(clamped[t0:t0 + _BLOCK_ROWS + 1])
        k = buckets[t0:t0 + _BLOCK_ROWS + 1].astype(np.intp)
        down = s[1:] < s[:-1]
        lo, hi = np.minimum(s[:-1], s[1:]), np.maximum(s[:-1], s[1:])
        k_lo = np.minimum(k[:-1], k[1:])
        # overlaps [lo, mid] in k_lo and [top, hi] in k_hi; a step that stays
        # in its bucket has mid = hi, and its empty [hi, hi] would add +0.0
        at = np.flatnonzero(k[1:] != k[:-1])
        k_hi, hi_at, down_at = np.maximum(k[at], k[at + 1]), hi[at], down[at]
        mid = hi.copy()
        mid[at] = np.minimum(hi_at, r[k_lo[at] + 1])
        top = np.maximum(r[k_hi], mid[at])
        for k_end, a, b, dn in ((k_lo, lo, mid, down), (k_hi, top, hi_at, down_at)):
            d = b - a
            d = np.where(dn, d / (a * b), d)            # 1/a - 1/b on down-moves
            travel += np.bincount(k_end + n * dn, d, minlength=2 * n)
        # buckets k_lo + 1 .. k_hi - 1 are crossed whole
        side = (n + 1) * down_at
        crossed += np.bincount(k_lo[at] + 1 + side, minlength=2 * (n + 1))
        crossed -= np.bincount(k_hi + side, minlength=2 * (n + 1))
    sa, sb = r[:-1], r[1:]
    u = travel.reshape(2, n) + np.cumsum(crossed.reshape(2, n + 1)[:, :n], axis=1) \
        * [sb - sa, (sb - sa) / (sa * sb)]
    return deploy(np.ones((1, n)), p[:1], sa[None], sb[None])[0] * (u[0] + p[-1] * u[1])


def check_grid(mu: float, bound: float, variance_grid) -> np.ndarray:
    """The variance grid as a float64 vector, after checking it and the
    profile: ConfigError under ``grid`` unless it is a non-empty 1-d vector,
    strictly ascending to a finite end, and ``ProfileParams``' own error for
    mu, bound or a least variance that is not positive and finite."""
    grid = np.asarray(variance_grid, dtype=np.float64)
    if grid.ndim != 1 or len(grid) == 0:
        raise ConfigError("variance grid must be a non-empty 1-d vector", key="grid")
    ProfileParams(mu, grid[0], bound)
    # NaN fails the comparison, so a NaN anywhere is not ascending
    if not (np.all(grid[1:] > grid[:-1]) and isfinite(grid[-1])):
        raise ConfigError("variance grid must ascend strictly to a finite end",
                          key="grid")
    return grid


@np.errstate(over="ignore", invalid="ignore")
def _fees(pool_config: BacktestConfig, v, mu: float, bound: float, variances) -> np.ndarray:
    """Fee totals at one mu, one per variance; DataError if one overflows."""
    part = pool_config.partition
    grid = np.asarray(variances, dtype=np.float64).tolist()
    # the (grid x n) weight table, each row as normal_profile_weights holds it
    w = renormalised(normal_profile_table(part, mu, grid, bound))
    # one pairwise sum per row, the same for any number of rows
    volume = pool_config.capital * (w * v).sum(axis=1)
    if pool_config.volume_cap is not None:
        np.minimum(volume, pool_config.volume_cap, out=volume)
    fee = pool_config.fee_rate * volume
    bad = ~np.isfinite(fee)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"float64 overflow: the fee at variance {grid[i]} is {fee[i]}")
    return fee


def whole_pool_fee(pool_config: BacktestConfig, prices, mu: float, variance: float,
                   bound: float = ProfileParams.bound) -> float:
    """Converted fee total of one single-deployment bell-curve backtest."""
    return float(fee_curve(pool_config, prices, mu, bound, [variance]).fees[0])


def fee_curve(pool_config: BacktestConfig, prices, mu: float, bound: float,
              variance_grid) -> FeeCurve:
    """Evaluate the modelled fee total over an ascending variance grid.

    Args:
        pool_config: pool-level settings; its capital is treated as the
            pool's locked value and its strategy/tau fields are ignored.
        prices: price series (or PriceSeries) to replay.
        mu: fixed profile centre in standardised coordinates.
        bound: half-width of the standardised coordinate axis.
        variance_grid: positive variances to evaluate, strictly ascending
            (see check_grid).

    Returns:
        FeeCurve over the grid with its bucket_volume; evaluation is
        deterministic, so equal inputs always reproduce the identical curve.
    """
    grid = check_grid(mu, bound, variance_grid)
    v = _bucket_volume(pool_config, prices)
    v.flags.writeable = False
    return FeeCurve(pool_config, mu, bound, grid, _fees(pool_config, v, mu, bound, grid), v)


def calibrate_variance(curve: FeeCurve, target_fee: float) -> CalibrationResult:
    """Find the smallest variance whose modelled fee matches the target.

    Scans the fee curve in ascending variance order: the first grid point
    already within 1e-3 relative of the target wins outright; otherwise
    the first sign change brackets a crossing that bisection refines until
    the relative error drops below 1e-3 or 60 iterations are spent.  The
    bisection reads the curve's pool and bucket_volume, so the prices are
    not read again.

    Args:
        curve: a fee_curve of at least two points; its mu and bound are the
            profile's.
        target_fee: observed fee total to match, positive.

    Returns:
        CalibrationResult for the best variance found.

    Raises:
        CalibrationUnreachableError: the target lies outside everything
            the curve reaches on the grid.
    """
    check_positive(target_fee, "target_fee")
    target_fee = float(target_fee)
    mu, bound, grid, fees = curve.mu, curve.bound, curve.variance_grid, curve.fees
    if len(grid) < 2:
        raise ValueError("variance grid needs at least two points")

    def rel(fee):  # in Python floats: numpy warns where the quotient overflows
        return abs(float(fee) - target_fee) / target_fee

    def result(variance, fee, iterations):
        # Python floats and bools, so that to_dict() stays JSON-ready
        err = rel(fee)
        return CalibrationResult(mu, float(variance), bound, float(fee), target_fee,
                                 err, iterations, err < _REL_TOL)

    if rel(fees[0]) < _REL_TOL:
        return result(grid[0], fees[0], 0)
    for k in range(1, len(grid)):
        # not a product of two differences, which overflows past fees of 1e154
        if fees[k - 1] < target_fee < fees[k] or fees[k - 1] > target_fee > fees[k]:
            break  # the first crossing: bisect it
        if rel(fees[k]) < _REL_TOL:
            return result(grid[k], fees[k], 0)
    else:
        raise CalibrationUnreachableError(
            f"target fee {target_fee} unreachable on variance grid "
            f"[{grid[0]}, {grid[-1]}]: curve spans [{fees.min()}, {fees.max()}]",
            fee_min=float(fees.min()), fee_max=float(fees.max()))

    lo, hi, lo_above = grid[k - 1], grid[k], fees[k - 1] > target_fee
    best_v, best_fee = (lo, fees[k - 1]) \
        if abs(fees[k - 1] - target_fee) <= abs(fees[k] - target_fee) else (hi, fees[k])
    for iterations in range(1, _MAX_BISECTIONS + 1):
        mid = 0.5 * (lo + hi)
        fee_mid = _fees(curve.pool_config, curve.bucket_volume, mu, bound, [mid])[0]
        if abs(fee_mid - target_fee) < abs(best_fee - target_fee):
            best_v, best_fee = mid, fee_mid
        if rel(fee_mid) < _REL_TOL:
            break
        if (fee_mid > target_fee) == lo_above:  # fee_mid is not the target
            lo = mid
        else:
            hi = mid
    return result(best_v, best_fee, iterations)
