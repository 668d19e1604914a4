"""Backtest engine: replay a price series against bucketed liquidity.

Design notes
------------
For liquidity l on a bucket with sqrt bounds [sa, sb] and price sqrt s,
the clipped root c = clip(s, sa, sb) gives the reserves in all three
regimes at once (c saturates at the bounds):

    x = l * (1/c - 1/sb)        y = l * (c - sa)

Trader inflows per timestep are the positive reserve differences between
consecutive states, summed over buckets; only price moves trade,
deployments and withdrawals do not.  Every clipped root moves with the
price, so all buckets' differences share a sign and the bucket sum of
their positive parts is the positive part of the change in the aggregate
reserves.

The kernel therefore never forms a (timestep x bucket) array.  Per epoch
it tabulates the active buckets with cumulative full depths; per row it
finds the bucket holding the price with ``searchsorted`` (O(log n), not
O(n)): buckets below it hold their full token-B depth, buckets above their
full token-A depth.  Epochs are walked in fixed 2**13-row blocks that
overlap by one row and take their own square roots, so the working set
stays inside a 2 MB L2 cache at any series length.

Two precision rules keep the aggregates as exact as the per-bucket sums.
Steps are differenced from reserves anchored at the epoch's first price: a
bucket crossed since then counts its full depth, the first price's bucket
only the part crossed, and the bucket holding the price counts from the
edge it was entered by, so no term exceeds the change it measures and a
deep book the walk never reaches cancels nowhere.  The trajectory is
valued from sums of positive terms only.  Sums run in fixed order (numpy
pairwise within a block, blocks in time order), so results are
reproducible run to run.

Trading is assumed frictionless inside the replay: the series is taken as
the contract price, and repositioning swaps settle at that price with no
slippage.  Gas is the only repositioning cost and is reported separately,
never subtracted from the capital trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Optional

import numpy as np

from .allocation import (AllocationWeights, EpochAllocation, ProfileParams,
                         allocate_epoch, custom_weights, normal_profile_weights,
                         random_band_weights, uniform_band_weights)
from .bucketing import BucketPartition, EpochPlan, segment_epochs
from .core_math import ReservePair
from .errors import ConfigError, DataError
from .prices import check_timestamp_count

# rows per kernel block; 2**13 rows keep a block's temporaries inside L2
_BLOCK_ROWS = 1 << 13

# relative tolerance under which a bucket's liquidity counts as unchanged
# across an epoch transition (no burn + re-mint for a no-op)
_LIQ_EQUAL_RTOL = 1e-12

REINVEST_MODES = ("reinvest", "exclude", "fix-at-level")
STRATEGY_MODES = ("uniform", "random", "custom", "normal")
PRICE_MODES = ("strict", "clamp")


@dataclass(frozen=True)
class GasParams:
    """Gas cost model for deployment transactions.

    Each minted bucket position costs ``mint_gas`` gas units, each burned
    one ``burn_gas``.  Costs are settled in the gas token and converted to
    token B: when token A is the gas token the contract price at the event
    timestep applies, otherwise ``gas_token_price`` must give a constant
    token-B price for the gas token.
    """

    mint_gas: int = 430_000
    burn_gas: int = 215_000
    gas_price_gwei: float = 100.0
    token_a_is_gas_token: bool = True
    gas_token_price: Optional[float] = None

    def __post_init__(self):
        if self.mint_gas <= 0 or self.burn_gas <= 0:
            raise ConfigError("gas unit costs must be positive", key="mint_gas")
        if not (isfinite(self.gas_price_gwei) and self.gas_price_gwei > 0.0):
            raise ConfigError(f"gas price must be positive, got {self.gas_price_gwei}",
                              key="gas_price_gwei")
        if not self.token_a_is_gas_token:
            gp = self.gas_token_price
            if gp is None or not (isfinite(gp) and gp > 0.0):
                raise ConfigError("gas_token_price required when token A is not "
                                  "the gas token", key="gas_token_price")


@dataclass(frozen=True)
class StrategyConfig:
    """Which weight rule rebuilds the allocation at each epoch start."""

    mode: str
    weights: Optional[np.ndarray] = None   # custom mode
    seed: Optional[int] = None             # random mode
    profile: Optional[ProfileParams] = None  # normal mode

    def validate(self, partition: BucketPartition) -> None:
        if self.mode not in STRATEGY_MODES:
            raise ConfigError(f"unknown strategy {self.mode!r}, expected one of "
                              f"{STRATEGY_MODES}", key="strategy")
        if self.mode == "custom":
            if self.weights is None:
                raise ConfigError("custom strategy needs a weights vector", key="weights")
            if len(np.asarray(self.weights)) != partition.n:
                raise ConfigError(f"weights length {len(np.asarray(self.weights))} "
                                  f"does not match {partition.n} buckets", key="weights")
        if self.mode == "random" and self.seed is None:
            raise ConfigError("random strategy needs a seed", key="seed")
        if self.mode == "normal" and self.profile is None:
            raise ConfigError("normal strategy needs profile parameters", key="mu")


@dataclass(frozen=True)
class BacktestConfig:
    """Everything run_backtest needs besides the price series."""

    partition: BucketPartition
    tau: int
    strategy: StrategyConfig
    capital: float
    fee_rate: float
    gas: GasParams = field(default_factory=GasParams)
    reinvest_mode: str = "exclude"
    volume_cap: Optional[float] = None
    price_mode: str = "strict"

    def validate(self) -> None:
        if not isinstance(self.tau, (int, np.integer)) or self.tau < 0:
            raise ConfigError(f"tau must be a non-negative integer, got {self.tau}",
                              key="tau")
        if not (isfinite(self.capital) and self.capital > 0.0):
            raise ConfigError(f"capital must be positive, got {self.capital}",
                              key="capital")
        if not (isfinite(self.fee_rate) and 0.0 < self.fee_rate < 1.0):
            raise ConfigError(f"fee rate must lie in (0, 1), got {self.fee_rate}",
                              key="fee_rate")
        if self.reinvest_mode not in REINVEST_MODES:
            raise ConfigError(f"unknown reinvest mode {self.reinvest_mode!r}, expected "
                              f"one of {REINVEST_MODES}", key="reinvest")
        if self.volume_cap is not None and not (isfinite(self.volume_cap)
                                                and self.volume_cap > 0.0):
            raise ConfigError(f"volume cap must be positive, got {self.volume_cap}",
                              key="volume_cap")
        if self.price_mode not in PRICE_MODES:
            raise ConfigError(f"unknown price mode {self.price_mode!r}, expected one "
                              f"of {PRICE_MODES}", key="price_mode")
        self.strategy.validate(self.partition)


@dataclass(frozen=True)
class FeeLedger:
    """Per-epoch trader inflows and the LP fees they generate.

    Fees are the fee rate times the inflows by construction.  The
    converted figures restate token-A amounts in token B at each epoch's
    final price.
    """

    fee_rate: float
    inflow_a: np.ndarray   # token-A inflow volume per epoch
    inflow_b: np.ndarray   # token-B inflow volume per epoch
    end_price: np.ndarray  # final contract price per epoch

    @property
    def fee_a(self) -> np.ndarray:
        return self.fee_rate * self.inflow_a

    @property
    def fee_b(self) -> np.ndarray:
        return self.fee_rate * self.inflow_b

    @property
    def fee_converted(self) -> np.ndarray:
        return self.fee_b + self.fee_a * self.end_price

    @property
    def volume_converted(self) -> np.ndarray:
        return self.inflow_b + self.inflow_a * self.end_price

    @property
    def total_fee_b(self) -> float:
        return float(self.fee_converted.sum())

    @property
    def total_volume_b(self) -> float:
        return float(self.volume_converted.sum())

    def scaled(self, factor: float) -> "FeeLedger":
        """Ledger with all inflows (hence fees) scaled by a factor."""
        return FeeLedger(self.fee_rate, self.inflow_a * factor,
                         self.inflow_b * factor, self.end_price)


@dataclass(frozen=True)
class GasBreakdown:
    """Gas spend in token B, split by event class."""

    initial_mint_b: float
    transition_b: float
    final_burn_b: float
    mint_events: int
    burn_events: int

    @property
    def total_b(self) -> float:
        return self.initial_mint_b + self.transition_b + self.final_burn_b


def _bucket_tables(partition: BucketPartition):
    """Per-run bucket constants the kernel slices from.

    Returns ``roots`` (4, n): each bucket's upper root, lower root, and
    their inverses in the same order; and ``depth`` (4, n): full token-B
    depth and negated full token-A depth per unit liquidity, then both
    with the opposite sign.
    """
    se = np.sqrt(partition.edges())
    sa, sb = se[:-1], se[1:]
    inv_a, inv_b = 1.0 / sa, 1.0 / sb
    wy, wx = sb - sa, inv_a - inv_b
    return np.stack([sb, sa, inv_b, inv_a]), np.stack([wy, -wx, -wy, wx])


def gas_cost(plan: EpochPlan, allocations: list, params: GasParams,
             prices: np.ndarray) -> GasBreakdown:
    """Gas spend of a deployment schedule, in token B.

    Events: one mint per active bucket at the first deployment, and at
    each epoch transition one burn per bucket leaving (and one mint per
    bucket entering) the active set, valued at the boundary timestep's
    gas-token price.  A bucket whose liquidity is unchanged across the
    transition (to relative tolerance 1e-12) is left untouched.  The final
    epoch's positions are burned at the last timestep.
    """
    if len(allocations) != len(plan):
        raise ValueError(f"{len(allocations)} allocations for {len(plan)} epochs")
    p = np.asarray(prices, dtype=np.float64)

    def token_price(t: int) -> float:
        if params.token_a_is_gas_token:
            return float(p[t])
        return float(params.gas_token_price)

    eth_per_gas = params.gas_price_gwei * 1e-9
    mints = burns = 0
    initial_b = transition_b = final_b = 0.0

    first = allocations[0].liquidity > 0.0
    n0 = int(first.sum())
    mints += n0
    initial_b = n0 * params.mint_gas * eth_per_gas * token_price(plan.epochs[0].start)

    for e in range(1, len(plan)):
        old = allocations[e - 1].liquidity
        new = allocations[e].liquidity
        unchanged = (old > 0.0) & (new > 0.0) \
            & (np.abs(old - new) <= _LIQ_EQUAL_RTOL * np.maximum(old, new))
        burn_here = int(((old > 0.0) & ~unchanged).sum())
        mint_here = int(((new > 0.0) & ~unchanged).sum())
        burns += burn_here
        mints += mint_here
        price = token_price(plan.epochs[e].start)
        transition_b += (burn_here * params.burn_gas
                         + mint_here * params.mint_gas) * eth_per_gas * price

    last = allocations[-1].liquidity > 0.0
    nl = int(last.sum())
    burns += nl
    final_b = nl * params.burn_gas * eth_per_gas * token_price(plan.epochs[-1].end)

    return GasBreakdown(initial_b, transition_b, final_b, mints, burns)


def buy_and_hold(prices: np.ndarray, initial_split: ReservePair) -> np.ndarray:
    """Token-B value of holding a fixed (x, y) bag along the price series."""
    value = np.multiply(initial_split.x, np.asarray(prices, dtype=np.float64))
    value += initial_split.y  # in place: one full-length array, not two
    return value


def _epoch_weights(config: BacktestConfig, s: int, epoch_index: int) -> AllocationWeights:
    strat = config.strategy
    if strat.mode == "uniform":
        return uniform_band_weights(config.partition, s, config.tau)
    if strat.mode == "random":
        # distinct, reproducible stream per epoch
        return random_band_weights(config.partition, s, config.tau,
                                   seed=[strat.seed, epoch_index])
    if strat.mode == "custom":
        return custom_weights(config.partition, strat.weights)
    return normal_profile_weights(config.partition, strat.profile)


def _stream_epoch(liquidity, tables, prices, ep, trajectory, steps):
    """Accumulate one epoch's inflows and trajectory from aggregate reserves.

    Writes the position value into trajectory[start..end] and, unless
    steps is None, the per-step inflows into steps (token B in row 0,
    token A in row 1; step t -> t+1 at column t).  ``tables`` come from
    ``_bucket_tables``.  Returns (active bucket count, inflow_a, inflow_b,
    end value).
    """
    start, end = ep.start, ep.end
    active = (liquidity > 0.0).nonzero()[0]
    if active.size == 0:
        trajectory[start:end + 1] = 0.0
        return 0, 0.0, 0.0, 0.0

    # one column per bucket from the first to the last active one; empty
    # ones between hold nothing, and since neighbours share edges a price
    # clipped to the whole span lies inside the bucket holding it.  Rows:
    #   0-2  liquidity, lower root, inverse upper root
    #   3-4  root and inverse root the bucket's anchored reserves count from
    #   5-6  token B held by the buckets below, token A by those above
    #   7-8  anchored token B and token A of the buckets in between
    roots, depth = tables
    span = slice(active[0], active[-1] + 1)
    upper = roots[0, span]
    tab = np.zeros((9, len(upper)))
    tab[0] = liquidity[span]
    tab[1:3] = roots[1:3, span]
    depths = depth[:, span] * tab[0]
    depths[0, :-1].cumsum(out=tab[5, 1:])
    depths[3, :0:-1].cumsum(out=tab[6, -2::-1])
    lower = tab[1, 1:]
    low, high = float(tab[1, 0]), float(upper[-1])

    inflow_b = inflow_a = 0.0
    t0 = start
    while True:
        t1 = min(end, t0 + _BLOCK_ROWS - 1)
        p = prices[t0:t1 + 1]
        root = np.empty((2, len(p)))
        np.sqrt(p, out=root[0])
        k = lower.searchsorted(root[0], side="right")
        np.minimum(np.maximum(root[0], low, out=root[0]), high, out=root[0])
        np.divide(1.0, root[0], out=root[1])
        if t0 == start:
            # anchor at the first price, clipped root c0 in bucket k0: a
            # bucket below counts from its upper edge, one above from its
            # lower edge, so no anchored term exceeds the distance the
            # price travelled from c0
            k0 = int(k[0])
            l0, a0 = tab[:2, k0].tolist()
            b0, c0 = float(upper[k0]), float(root[0, 0])
            tab[3:5, :k0] = roots[::2, span][:, :k0]
            tab[3:5, k0 + 1:] = roots[1::2, span][:, k0 + 1:]
            tab[3:5, k0] = c0, 1.0 / c0
            depths[:, k0] = (l0 * (b0 - c0), l0 * (1.0 / b0 - 1.0 / c0),
                             l0 * (a0 - c0), l0 * (1.0 / a0 - 1.0 / c0))
            depths[:2, k0:-1].cumsum(axis=1, out=tab[7:, k0 + 1:])
            depths[2:, 1:k0 + 1][:, ::-1].cumsum(axis=1, out=tab[7:, :k0][:, ::-1])

        rows = tab.take(k, axis=1)
        # (y, x) of the bucket holding the price, then the same anchored
        own = root - rows[1:5].reshape(2, 2, -1)
        own *= rows[0]
        held = rows[5:].reshape(2, 2, -1)
        held += own
        value = trajectory[t0:t1 + 1]
        np.multiply(p, rows[6], out=value)
        value += rows[5]

        step = np.subtract(rows[7:, 1:], rows[7:, :-1])
        np.maximum(step, 0.0, out=step)
        if steps is not None:
            steps[:, t0:t1] = step
        block_b, block_a = step.sum(axis=1).tolist()
        inflow_b += block_b
        inflow_a += block_a
        if t1 == end:
            return active.size, inflow_a, inflow_b, float(value[-1])
        t0 = t1


def _monthly_attribution(timestamps, prices, step_a, step_b, fee_rate):
    """Calendar-month fee rows; token-A fees convert at each month's last price.

    Months with no accrual still appear when the series covers them.  The
    sum over months can differ slightly from the ledger total because the
    ledger converts at epoch-final prices instead.
    """
    months = np.asarray(timestamps, dtype=np.int64).astype("datetime64[s]") \
        .astype("datetime64[M]")
    step_month = months[1:]
    labels, starts = np.unique(step_month, return_index=True)
    rows = []
    for j, label in enumerate(labels):
        i0 = int(starts[j])
        i1 = int(starts[j + 1]) if j + 1 < len(labels) else len(step_month)
        fa = fee_rate * float(step_a[i0:i1].sum())
        fb = fee_rate * float(step_b[i0:i1].sum())
        p_end = float(prices[i1])
        rows.append({"month": str(label), "fee_a": fa, "fee_b": fb,
                     "fee_converted_b": fb + fa * p_end})
    return rows


@dataclass(frozen=True)
class BacktestReport:
    """Everything a backtest run produces."""

    config: BacktestConfig
    plan: EpochPlan
    ledger: FeeLedger
    gas: GasBreakdown
    lp_trajectory: np.ndarray
    bh_trajectory: np.ndarray
    initial_split: ReservePair
    profit_rate: float
    bh_profit_rate: float
    volume_cap_scale: float
    epoch_capital: np.ndarray = None   # deployable capital per epoch
    epoch_active: np.ndarray = None    # active bucket count per epoch
    monthly_fees: Optional[list] = None

    def to_dict(self) -> dict:
        """JSON-ready summary; trajectories are exported separately as CSV."""
        epoch_rows = []
        for e, ep in enumerate(self.plan):
            epoch_rows.append({
                "epoch": e + 1,
                "start": ep.start,
                "end": ep.end,
                "benchmark_bucket": ep.benchmark,
                "inflow_a": float(self.ledger.inflow_a[e]),
                "inflow_b": float(self.ledger.inflow_b[e]),
                "fee_a": float(self.ledger.fee_a[e]),
                "fee_b": float(self.ledger.fee_b[e]),
                "end_price": float(self.ledger.end_price[e]),
                "fee_converted_b": float(self.ledger.fee_converted[e]),
                "volume_converted_b": float(self.ledger.volume_converted[e]),
            })
        out = {
            "initial_capital": float(self.config.capital),
            "final_value": float(self.lp_trajectory[-1]),
            "fees_total_b": self.ledger.total_fee_b,
            "volume_total_b": self.ledger.total_volume_b,
            "fee_rate": self.ledger.fee_rate,
            "gas_cost_b": self.gas.total_b,
            "gas_breakdown": {
                "initial_mint_b": self.gas.initial_mint_b,
                "transition_b": self.gas.transition_b,
                "final_burn_b": self.gas.final_burn_b,
                "mint_events": self.gas.mint_events,
                "burn_events": self.gas.burn_events,
            },
            "epochs": len(self.plan),
            "profit_rate": self.profit_rate,
            "bh_profit_rate": self.bh_profit_rate,
            "volume_cap_scale": self.volume_cap_scale,
            "reinvest_mode": self.config.reinvest_mode,
            "epoch_fees": epoch_rows,
        }
        if self.monthly_fees is not None:
            out["monthly_fees"] = self.monthly_fees
        return out


def run_backtest(config: BacktestConfig, prices, timestamps=None) -> BacktestReport:
    """Replay a price series against the configured liquidity strategy.

    The series is segmented into reset epochs; each epoch's capital is
    deployed at its first price, accrues fee inflows from positive reserve
    differences, and is liquidated into the next epoch's budget at the
    shared boundary index.  The capital trajectory marks the currently
    deployed positions to market at every timestep, so under fee
    reinvestment each boundary shows the converted-fee top-up; gas never
    enters the trajectory.

    Args:
        config: validated run configuration.
        prices: 1-d positive price series, or any object with ``prices``
            and ``timestamps`` attributes.
        timestamps: optional unix-second timestamps, one per price
            (enables monthly fee attribution; DataError otherwise);
            ignored when ``prices`` carries its own.

    Returns:
        BacktestReport with ledger, gas, trajectories and summary rates.
    """
    config.validate()
    if hasattr(prices, "prices"):
        timestamps = getattr(prices, "timestamps", None)
        prices = prices.prices
    p = np.ascontiguousarray(prices, dtype=np.float64)
    if p.ndim != 1 or len(p) < 2:
        raise DataError("price series must be one-dimensional with at least 2 points")
    if timestamps is not None:
        check_timestamp_count(timestamps, p)
    # reductions scan the series without a full-length mask; NaN fails both
    lo, hi = p.min(), p.max()
    if not (lo > 0.0 and hi < np.inf):
        i = int(np.argmax(~np.isfinite(p) | (p <= 0.0)))
        raise DataError(f"price {p[i]} at index {i} is not a positive finite number")

    part = config.partition
    if config.price_mode == "strict":
        if lo < part.lower or hi > part.upper:
            i = int(np.argmax((p < part.lower) | (p > part.upper)))
            raise DataError(f"price {p[i]} at index {i} outside partition "
                            f"[{part.lower}, {part.upper}] (clamp mode would proceed)")
        bucket_prices = p
    else:
        bucket_prices = np.clip(p, part.lower, part.upper)

    plan = segment_epochs(part, bucket_prices, config.tau)
    m = len(p)
    tables = _bucket_tables(part)

    trajectory = np.empty(m)
    # per-step inflows only feed the monthly rows
    steps = np.zeros((2, m - 1)) if timestamps is not None else None
    allocations = []
    inflow_a, inflow_b, end_prices = [], [], []
    epoch_capital = np.empty(len(plan))
    epoch_active = np.empty(len(plan), dtype=np.int64)

    capital = config.capital
    for e, ep in enumerate(plan):
        weights = _epoch_weights(config, ep.benchmark, e)
        alloc = allocate_epoch(weights, capital, float(p[ep.start]), part)
        allocations.append(alloc)
        epoch_capital[e] = capital
        # later epochs overwrite the shared boundary index, so the
        # trajectory shows the post-rebalance value there
        epoch_active[e], ia, ib, v_end = _stream_epoch(
            alloc.liquidity, tables, p, ep, trajectory, steps)
        end_price = float(p[ep.end])
        inflow_a.append(ia)
        inflow_b.append(ib)
        end_prices.append(end_price)

        if config.reinvest_mode == "reinvest":
            capital = v_end + config.fee_rate * (ib + ia * end_price)
        elif config.reinvest_mode == "exclude":
            capital = v_end
        else:
            capital = config.capital

    ledger = FeeLedger(config.fee_rate, np.array(inflow_a), np.array(inflow_b),
                       np.array(end_prices))

    scale = 1.0
    if config.volume_cap is not None:
        total = ledger.total_volume_b
        if total > config.volume_cap:
            scale = config.volume_cap / total
            ledger = ledger.scaled(scale)

    gas = gas_cost(plan, allocations, config.gas, p)

    # benchmark bag: aggregate reserves of the first deployment
    sb, sa, inv_b, _ = tables[0]
    c0 = np.clip(np.sqrt(p[0]), sa, sb)
    liq0 = allocations[0].liquidity
    split0 = ReservePair(float((liq0 * (1.0 / c0 - inv_b)).sum()),
                         float((liq0 * (c0 - sa)).sum()))
    bh = buy_and_hold(p, split0)

    monthly = None
    if timestamps is not None:
        monthly = _monthly_attribution(timestamps, p, steps[1] * scale,
                                       steps[0] * scale, config.fee_rate)

    return BacktestReport(
        config=config,
        plan=plan,
        ledger=ledger,
        gas=gas,
        lp_trajectory=trajectory,
        bh_trajectory=bh,
        initial_split=split0,
        profit_rate=float((trajectory[-1] - trajectory[0]) / trajectory[0]),
        bh_profit_rate=float((bh[-1] - bh[0]) / bh[0]),
        volume_cap_scale=scale,
        epoch_capital=epoch_capital,
        epoch_active=epoch_active,
        monthly_fees=monthly,
    )
