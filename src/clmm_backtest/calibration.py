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
One O(m + n) pass gives v: ``np.bincount`` adds each step's overlaps
[a, b] with its end buckets (b - a, or (b - a) / (a b) for 1/c, exact to
a few ulps of the step), and a difference array counts the buckets
crossed whole.

Fixing the profile centre mu, the fee is evaluated on an ascending
variance grid and the smallest variance whose fee crosses the target is
refined by bisection.  Gas never enters the objective.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import isfinite
from typing import Optional

import numpy as np

from .allocation import ProfileParams, deploy, normal_profile_weights
from .engine import _BLOCK_ROWS, BacktestConfig, checked_prices
from .errors import CalibrationUnreachableError, DataError

_REL_TOL = 1e-3
_MAX_BISECTIONS = 60


@dataclass(frozen=True)
class FeeCurve:
    """Modelled fee total as a function of profile variance, mu fixed."""

    mu: float
    bound: float
    variance_grid: np.ndarray
    fees: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.variance_grid, dtype=np.float64)
        f = np.asarray(self.fees, dtype=np.float64)
        if g.ndim != 1 or len(g) == 0 or g.shape != f.shape:
            raise ValueError("variance grid and fees must be matching 1-d vectors")
        if np.any(g <= 0.0) or np.any(np.diff(g) <= 0.0):
            raise ValueError("variance grid must be positive and strictly ascending")
        if not np.all(np.isfinite(f)) or np.any(f < 0.0):
            raise ValueError("fee curve values must be finite and non-negative")


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


def _bucket_volume(pool_config: BacktestConfig, prices) -> np.ndarray:
    """v: per bucket, the volume unit capital on it alone trades."""
    part = pool_config.partition
    p, _, clamped = checked_prices(pool_config, prices)
    n, r = part.n, part.roots
    travel = np.zeros(2 * n)                            # U_b, then U_a
    crossed = np.zeros(2 * (n + 1), dtype=np.int64)     # up, then down
    for t0 in range(0, len(p) - 1, _BLOCK_ROWS):  # bounds the temporaries
        block = clamped[t0:t0 + _BLOCK_ROWS + 1]
        s, k = np.sqrt(block), part.bucket_column(block).astype(np.intp)
        down = s[1:] < s[:-1]
        lo, hi = np.minimum(s[:-1], s[1:]), np.maximum(s[:-1], s[1:])
        k_lo, k_hi = np.minimum(k[:-1], k[1:]), np.maximum(k[:-1], k[1:])
        # overlaps [lo, mid] in k_lo and [top, hi] in k_hi, empty if k_hi == k_lo
        mid = np.minimum(hi, r[k_lo + 1])
        top = np.maximum(r[k_hi], mid)
        for k_end, a, b in ((k_lo, lo, mid), (k_hi, top, hi)):
            d = b - a
            d = np.where(down, d / (a * b), d)          # 1/a - 1/b on down-moves
            travel += np.bincount(k_end + n * down, d, minlength=2 * n)
        # buckets k_lo + 1 .. k_hi - 1 are crossed whole
        side = (n + 1) * down
        crossed += np.bincount(k_lo + 1 + side, minlength=2 * (n + 1))
        crossed -= np.bincount(np.maximum(k_hi, k_lo + 1) + side, minlength=2 * (n + 1))
    sa, sb = r[:-1], r[1:]
    u = travel.reshape(2, n) + np.cumsum(crossed.reshape(2, n + 1)[:, :n], axis=1) \
        * [sb - sa, (sb - sa) / (sa * sb)]
    return deploy(np.ones((1, n)), p[:1], sa[None], sb[None])[0] * (u[0] + p[-1] * u[1])


class _WholePool:
    """Whole-pool fee totals; one travel pass, on first use, serves them all."""

    def __init__(self, pool_config: BacktestConfig, prices):
        self.config, self.prices, self.bucket_volume = pool_config, prices, None

    # float64 overflow, on a series spanning hundreds of decades, is let
    # through without a warning and caught in the fees
    @np.errstate(over="ignore", invalid="ignore")
    def fees(self, mu: float, bound: float, variances) -> np.ndarray:
        """Fee totals at one mu, one per variance; DataError if one overflows."""
        cfg, part = self.config, self.config.partition
        grid = np.asarray(variances, dtype=np.float64).tolist()
        w = np.reshape([normal_profile_weights(part, ProfileParams(mu, v, bound)).weights
                        for v in grid], (-1, part.n))  # the (grid x n) weight table
        if self.bucket_volume is None:
            self.bucket_volume = _bucket_volume(cfg, self.prices)
        # one pairwise sum per row, the same for any number of rows
        volume = cfg.capital * (w * self.bucket_volume).sum(axis=1)
        if cfg.volume_cap is not None:
            np.minimum(volume, cfg.volume_cap, out=volume)
        fee = cfg.fee_rate * volume
        bad = ~np.isfinite(fee)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"float64 overflow: the fee at variance {grid[i]} is {fee[i]}")
        return fee


def whole_pool_fee(pool_config: BacktestConfig, prices, mu: float, variance: float,
                   bound: float = ProfileParams.bound) -> float:
    """Converted fee total of one single-deployment bell-curve backtest."""
    return float(_WholePool(pool_config, prices).fees(mu, bound, [variance])[0])


def fee_curve(pool_config: BacktestConfig, prices, mu: float, bound: float,
              variance_grid) -> FeeCurve:
    """Evaluate the modelled fee total over an ascending variance grid.

    Args:
        pool_config: pool-level settings; its capital is treated as the
            pool's locked value and its strategy/tau fields are ignored.
        prices: price series (or PriceSeries) to replay.
        mu: fixed profile centre in standardised coordinates.
        bound: half-width of the standardised coordinate axis.
        variance_grid: positive, strictly ascending variances to evaluate.

    Returns:
        FeeCurve over the grid; evaluation is deterministic, so equal
        inputs always reproduce the identical curve.
    """
    grid = np.asarray(variance_grid, dtype=np.float64)
    pool = _WholePool(pool_config, prices)
    curve = FeeCurve(mu, bound, grid, pool.fees(mu, bound, grid))
    # calibrate_variance given this curve and the same inputs searches over
    # the same pool, so the travel pass is not made again
    object.__setattr__(curve, "_pool", pool)
    return curve


def calibrate_variance(pool_config: BacktestConfig, prices, mu: float, bound: float,
                       target_fee: float, variance_grid,
                       curve: Optional[FeeCurve] = None) -> CalibrationResult:
    """Find the smallest variance whose modelled fee matches the target.

    Scans the fee curve in ascending variance order: the first grid point
    already within 1e-3 relative of the target wins outright; otherwise
    the first sign change brackets a crossing that bisection refines until
    the relative error drops below 1e-3 or 60 iterations are spent.

    Args:
        pool_config: pool-level settings (see fee_curve).
        prices: price series to replay.
        mu: fixed profile centre.
        bound: standardised axis half-width.
        target_fee: observed fee total to match, positive.
        variance_grid: search grid, at least two ascending positive points.
        curve: optionally a precomputed FeeCurve for this exact grid; one
            that ``fee_curve`` made from these same config and price
            objects also lends its travel pass to the bisection.

    Returns:
        CalibrationResult for the best variance found.

    Raises:
        CalibrationUnreachableError: the target lies outside everything
            the curve reaches on the grid.
    """
    pool = getattr(curve, "_pool", None)
    if pool is None or pool.config is not pool_config or pool.prices is not prices:
        pool = _WholePool(pool_config, prices)
    return _calibrate(pool, mu, bound, target_fee, variance_grid, curve)


def _calibrate(pool: _WholePool, mu, bound, target_fee, variance_grid,
               curve) -> CalibrationResult:
    if not (isfinite(target_fee) and target_fee > 0.0):
        raise ValueError(f"target fee must be positive, got {target_fee}")
    target_fee = float(target_fee)
    if curve is None:
        grid = np.asarray(variance_grid, dtype=np.float64)
        curve = FeeCurve(mu, bound, grid, pool.fees(mu, bound, grid))
    grid, fees = curve.variance_grid, curve.fees
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
        fee_mid = pool.fees(mu, bound, [mid])[0]
        if abs(fee_mid - target_fee) < abs(best_fee - target_fee):
            best_v, best_fee = mid, fee_mid
        if rel(fee_mid) < _REL_TOL:
            break
        if (fee_mid > target_fee) == lo_above:  # fee_mid is not the target
            lo = mid
        else:
            hi = mid
    return result(best_v, best_fee, iterations)
