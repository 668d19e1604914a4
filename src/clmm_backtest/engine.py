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

Every epoch is replayed at once, at unit capital.  ``deploy`` is
homogeneous of degree 1 in capital, so an epoch's liquidity, inflows,
trajectory and end value are its capital times their values at capital 1,
and the capital chain is a cumulative product of per-epoch growth factors:
the unit end value v under ``exclude``, v plus the unit fee under
``reinvest``, and 1 under ``fix-at-level``.

Each epoch deploys on a window of W buckets: the band around its
benchmark, shifted inside the partition, for ``uniform`` and ``random``,
and the span of positive weights for ``custom`` and ``normal``.  Epochs
are handled in groups of at most ``_GROUP_CELLS // W``, so no table has
epochs x buckets cells.  Per group, unit liquidity is one
(epochs x W) array, and the kernel tabulates it with cumulative full
depths, one table column per window bucket.  One pass over the group's
rows, in fixed 2**13-row blocks that overlap by one row, reads each row's
bucket from the column segmentation computed from the price (O(1) a row)
and gathers its column of the owning epoch's table: buckets below it hold
their full token-B depth, buckets above their full token-A depth.
A boundary row, shared by two epochs, is owned by the later one; it is
evaluated once more under the earlier epoch's table for that epoch's last
step and end value.  Within a block of one epoch the per-epoch lookups
are scalars.  Steps are summed once per segment, an epoch cut at each
calendar month's first step when there are timestamps: epoch inflows and
monthly rows are sums of segments.  Then the group's capitals scale its
segment sums, and its trajectory in place, the only series-length array
the replay allocates.  Gas compares each epoch's window liquidity with
the next epoch's over their overlap.

Two precision rules keep the aggregates as exact as the per-bucket sums.
Steps are differenced from reserves anchored at the epoch's first price: a
bucket crossed since then counts its full depth, the first price's bucket
only the part crossed, and the bucket holding the price counts from the
edge it was entered by, so no term exceeds the change it measures and a
deep book the walk never reaches cancels nowhere.  The trajectory is
valued from sums of positive terms only.  Sums run in fixed order (numpy
pairwise per epoch within a block, blocks in time order), so results are
reproducible run to run.

Trading is assumed frictionless inside the replay: the series is taken as
the contract price, and repositioning swaps settle at that price with no
slippage.  Gas is the only repositioning cost and is reported separately,
never subtracted from the capital trajectory.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from math import isfinite, isinf
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .allocation import (AllocationWeights, ProfileParams, band_weights, band_width,
                         custom_weights, deploy, normal_profile_weights)
from .bucketing import (BucketPartition, EpochPlan, check_integer, check_positive,
                        segment_epochs)
from .errors import ConfigError, DataError
from .prices import PriceSeries

# rows per kernel block; 2**13 rows keep a block's temporaries inside L2
_BLOCK_ROWS = 1 << 13

# window cells (epochs x window buckets) per epoch group
_GROUP_CELLS = 1 << 15

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
    one ``burn_gas``, paid in the gas token.  ``gas_token_price`` is its
    constant token-B price; left as None, token A is the gas token and the
    contract price at the event timestep converts the cost to token B.
    """

    mint_gas: int = 430_000
    burn_gas: int = 215_000
    gas_price_gwei: float = 100.0
    gas_token_price: Optional[float] = None

    def __post_init__(self):
        check_integer(self.mint_gas, 1, "mint_gas")
        check_integer(self.burn_gas, 1, "burn_gas")
        check_positive(self.gas_price_gwei, "gas_price_gwei")
        if self.gas_token_price is not None:
            check_positive(self.gas_token_price, "gas_token_price")


@dataclass(frozen=True)
class StrategyConfig:
    """Which weight rule rebuilds the allocation at each epoch start.

    Custom weights are held as a tuple of floats, so the checked vector
    cannot change after the config is made, and configs compare and hash
    by value.
    """

    mode: str
    weights: Optional[tuple] = None        # custom mode
    seed: Optional[int] = None             # random mode
    profile: Optional[ProfileParams] = None  # normal mode

    def __post_init__(self):
        if self.mode not in STRATEGY_MODES:
            raise ConfigError(f"unknown strategy {self.mode!r}, expected one of "
                              f"{STRATEGY_MODES}", key="strategy")
        if self.weights is not None:
            w = np.array(self.weights, dtype=np.float64)
            AllocationWeights(w)  # a 1-d vector, finite, non-negative, summing to 1
            object.__setattr__(self, "weights", tuple(w.tolist()))
        elif self.mode == "custom":
            raise ConfigError("custom strategy needs a weights vector", key="weights")
        if self.seed is not None:
            check_integer(self.seed, 0, "seed")
        elif self.mode == "random":
            raise ConfigError("random strategy needs a seed", key="seed")
        if self.mode == "normal" and self.profile is None:
            raise ConfigError("normal strategy needs profile parameters", key="mu")


@dataclass(frozen=True)
class BacktestConfig:
    """Everything run_backtest needs besides the price series.

    Every value is checked when the config is made, ``dataclasses.replace``
    included, and custom weights against the partition; a ConfigError names
    the config key at fault.

    ``volume_cap`` caps the reported token-B volume: when the replayed
    total exceeds it, the ledger's inflows and fees are scaled down to
    meet it.  It scales the reported ledger only; the capital chain,
    including the fees ``reinvest`` compounds, and the trajectory use the
    uncapped fees.
    """

    partition: BucketPartition
    tau: int
    strategy: StrategyConfig
    capital: float
    fee_rate: float
    gas: GasParams = field(default_factory=GasParams)
    reinvest_mode: str = "exclude"
    volume_cap: Optional[float] = None
    price_mode: str = "strict"

    def __post_init__(self):
        check_integer(self.tau, 0, "tau")
        check_positive(self.capital, "capital")
        if not (isfinite(self.fee_rate) and 0.0 < self.fee_rate < 1.0):
            raise ConfigError(f"fee rate must lie in (0, 1), got {self.fee_rate}",
                              key="fee_rate")
        if self.reinvest_mode not in REINVEST_MODES:
            raise ConfigError(f"unknown reinvest mode {self.reinvest_mode!r}, expected "
                              f"one of {REINVEST_MODES}", key="reinvest")
        if self.volume_cap is not None:
            check_positive(self.volume_cap, "volume_cap")
        if self.price_mode not in PRICE_MODES:
            raise ConfigError(f"unknown price mode {self.price_mode!r}, expected one "
                              f"of {PRICE_MODES}", key="price_mode")
        if self.strategy.weights is not None:  # one weight per bucket
            custom_weights(self.partition, self.strategy.weights)


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
    """Per-run bucket constants the kernel gathers from.

    Returns ``roots`` (4, n): each bucket's upper root, lower root, and
    their inverses in the same order; and ``depth`` (4, n): full token-B
    depth and negated full token-A depth per unit liquidity, then both
    with the opposite sign.
    """
    sa, sb = partition.roots[:-1], partition.roots[1:]
    inv_a, inv_b = 1.0 / sa, 1.0 / sb
    wy, wx = sb - sa, inv_a - inv_b
    return np.stack([sb, sa, inv_b, inv_a]), np.stack([wy, -wx, -wy, wx])


def _unchanged(liquidity: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Buckets left untouched at each transition between consecutive rows.

    Row e of ``liquidity`` covers buckets offsets[e] onwards.  A bucket
    counts when it is positive on both sides and unchanged to relative
    tolerance 1e-12, so only the windows' overlap is compared.
    """
    width = liquidity.shape[1]
    # column in the next row of the same bucket
    cols = np.arange(width) - np.diff(offsets)[:, None]
    inside = (cols >= 0) & (cols < width)
    old = liquidity[:-1]
    new = np.take_along_axis(liquidity[1:], np.clip(cols, 0, width - 1), axis=1)
    same = inside & (np.abs(old - new) <= _LIQ_EQUAL_RTOL * np.maximum(old, new)) \
        & (old > 0.0)
    return np.count_nonzero(same, axis=1)


def _gas_breakdown(active, unchanged, starts, last, params: GasParams,
                   prices: np.ndarray) -> GasBreakdown:
    """Gas spend of a deployment schedule, in token B.

    Events: one mint per active bucket at the first deployment, and at
    each epoch transition one burn per bucket leaving (and one mint per
    bucket entering) the active set, valued at the boundary timestep's
    gas-token price; ``unchanged`` buckets (``_unchanged``) are left
    untouched.  The final epoch's positions are burned at the last
    timestep.  Takes per-epoch ``active`` counts and per-transition
    ``unchanged`` counts; ``starts`` are the epochs' first rows, ``last``
    the final row.
    """
    if params.gas_token_price is None:
        token_price = prices[np.append(starts, last)]
    else:
        token_price = np.full(len(starts) + 1, float(params.gas_token_price))
    eth_per_gas = params.gas_price_gwei * 1e-9
    burn = active[:-1] - unchanged
    mint = active[1:] - unchanged
    spend = (burn * params.burn_gas + mint * params.mint_gas) * eth_per_gas \
        * token_price[1:-1]
    # summed in time order, one transition after the other
    transition_b = float(np.cumsum(spend)[-1]) if len(spend) else 0.0
    first, final = int(active[0]), int(active[-1])
    return GasBreakdown(first * params.mint_gas * eth_per_gas * float(token_price[0]),
                        transition_b,
                        final * params.burn_gas * eth_per_gas * float(token_price[-1]),
                        first + int(mint.sum()), int(burn.sum()) + final)


class ReservePair(NamedTuple):
    """Token reserves of a position: x in token A, y in token B."""

    x: float
    y: float


def buy_and_hold(prices: np.ndarray, initial_split: ReservePair) -> np.ndarray:
    """Token-B value x * p + y of holding a fixed (x, y) bag at each price.

    Each value is the product rounded, then the sum rounded, so a slice of
    the prices gives the same bytes as the slice of the whole result, and a
    float64 scalar computed the same way gives the same value.
    """
    value = np.multiply(initial_split.x, np.asarray(prices, dtype=np.float64))
    value += initial_split.y  # in place: one array, not two
    return value


def _strategy_windows(config: BacktestConfig, benchmarks: np.ndarray):
    """Window width W, and a function giving epochs [g0, g1)'s window
    offsets and capital weights, shape (g1 - g0, W)."""
    strat, part = config.strategy, config.partition
    if strat.mode in ("uniform", "random"):
        seed = strat.seed if strat.mode == "random" else None

        def weights(g0, g1):  # a random stream per epoch
            return band_weights(part, benchmarks[g0:g1], config.tau, seed, g0)
        return band_width(part, config.tau), weights

    fixed = custom_weights(part, strat.weights) if strat.mode == "custom" \
        else normal_profile_weights(part, strat.profile)
    active = fixed.active_buckets()
    lo, hi = int(active[0]) - 1, int(active[-1])

    def weights(g0, g1):
        return (np.full(g1 - g0, lo, dtype=np.int64),
                np.repeat(fixed.weights[None, lo:hi], g1 - g0, axis=0))
    return hi - lo, weights


def _window_columns(table, offsets, width):
    """Columns offsets[e] .. offsets[e] + width - 1 of a per-bucket table
    for each epoch e, shape (rows, epochs, width): whole windows copied
    from a sliding view, not cells gathered one by one."""
    return sliding_window_view(table, width, axis=1)[:, offsets]


def _kernel_table(liquidity, roots, depth, first_root, first_col):
    """Kernel table of a group of epochs, shape (9, epochs * W).

    ``liquidity`` (epochs, W) is each epoch's window, ``roots`` and
    ``depth`` (4, epochs, W) the ``_bucket_tables`` rows gathered for it
    (``depth`` is scaled in place), and ``first_root``/``first_col`` the root of each epoch's first price
    and the window column holding it.  Rows per column:
      0-2  liquidity, lower root, inverse upper root
      3-4  root and inverse root the bucket's anchored reserves count from
      5-6  token B held by the buckets below, token A by those above
      7-8  anchored token B and token A of the buckets in between
    Empty buckets hold nothing, and since neighbours share edges a price
    clipped to the window lies inside the bucket holding it; a price above
    the window reads the top bucket at its upper edge, where the bucket
    holds its full token-B depth and no token A.
    """
    n_epochs, width = liquidity.shape
    depth *= liquidity
    tab = np.zeros((9, n_epochs, width))
    tab[0] = liquidity
    tab[1:3] = roots[1:3]
    np.cumsum(depth[0, :, :-1], axis=1, out=tab[5, :, 1:])
    np.cumsum(depth[3, :, :0:-1], axis=1, out=tab[6, :, :-1][:, ::-1])

    # anchor at the first price, clipped root c0 in column k0: a bucket
    # below counts from its upper edge, one above from its lower edge, so
    # no anchored term exceeds the distance the price travelled from c0
    e, k0 = np.arange(n_epochs), first_col
    cols = np.arange(width)
    below = cols < k0[:, None]
    tab[3:5] = roots[1::2]
    np.copyto(tab[3:5], roots[0::2], where=below)
    c0 = np.minimum(np.maximum(first_root, roots[1, :, 0]), roots[0, :, -1])
    inv_c0 = 1.0 / c0
    tab[3, e, k0], tab[4, e, k0] = c0, inv_c0
    depth[:, e, k0] = liquidity[e, k0] * (roots[0, e, k0] - c0, roots[2, e, k0] - inv_c0,
                                          roots[1, e, k0] - c0, roots[3, e, k0] - inv_c0)
    # columns above k0 sum the anchored depths from k0 up, those below
    # from k0 down; the zeros masked in ahead of k0 leave each sum exact
    np.copyto(depth[:2], 0.0, where=below)
    np.cumsum(depth[:2, :, :-1], axis=2, out=tab[7:, :, 1:])
    below[e, k0] = True
    np.copyto(depth[2:], 0.0, where=~below)
    tab[7:, :, :-1][..., ::-1] += np.cumsum(depth[2:, :, :0:-1], axis=2)
    return tab.reshape(9, -1)


def _blocks(starts, first, last, overlap):
    """Row blocks of at most ``_BLOCK_ROWS`` over [first, last], in time order.

    Yields (t0, t1, ea, eb, spread): the block's rows t0..t1, the epochs ea
    and eb owning t0 and t1 (epoch e starts at row starts[e]), and a
    function that takes per-epoch values to per-row ones, a scalar when
    one epoch owns the whole block.  Consecutive blocks share a row when
    ``overlap`` is set.
    """
    if overlap:
        t0 = np.arange(first, max(first + 1, last), _BLOCK_ROWS - 1)
    else:
        t0 = np.arange(first, last + 1, _BLOCK_ROWS)
    t1 = np.minimum(t0 + _BLOCK_ROWS - 1, last)
    ea = starts.searchsorted(t0, side="right") - 1
    eb = starts.searchsorted(t1, side="right") - 1
    for t0, t1, ea, eb in zip(t0.tolist(), t1.tolist(), ea.tolist(), eb.tolist()):
        counts = None
        if eb > ea:
            counts = np.diff(starts[ea + 1:eb + 1], prepend=t0, append=t1 + 1)

        def spread(values, ea=ea, eb=eb, counts=counts):
            return values[ea] if counts is None else np.repeat(values[ea:eb + 1], counts)

        yield t0, t1, ea, eb, spread


def _columns(buckets, offset, base, width):
    """Table columns of rows in 0-based ``buckets``, clipped into windows of
    ``width`` buckets that start at bucket ``offset`` and at column ``base``."""
    return np.clip(np.subtract(buckets, offset, dtype=np.intp), 0, width - 1) + base


def _reserves(tab, col, price, low, high, value):
    """Positions' token-B value and anchored reserves at given prices.

    Per row, of the epoch valued there: ``col`` its table column and
    ``low``/``high`` its window's outer roots (scalars when one epoch owns
    every row).  Writes the value into ``value``; returns the anchored
    (token B, token A), shape (2, rows).
    """
    c = np.empty((2, len(price)))
    np.sqrt(price, out=c[0])
    np.minimum(np.maximum(c[0], low, out=c[0]), high, out=c[0])
    np.divide(1.0, c[0], out=c[1])
    rows = tab.take(col, axis=1)
    # (y, x) of the bucket holding the price, then the same anchored
    own = c - rows[1:5].reshape(2, 2, -1)
    own *= rows[0]
    held = rows[5:].reshape(2, 2, -1)
    held += own
    np.multiply(price, rows[6], out=value)
    value += rows[5]
    return rows[7:]


def _replay(tab, width, offsets, starts, cuts, last, prices, buckets, roots, trajectory):
    """Unit inflows per segment and end values of a group of epochs.

    The epochs start at rows ``starts`` and the last ends at row ``last``;
    their windows begin at buckets ``offsets`` and ``tab`` is their
    ``_kernel_table``; ``buckets`` are the rows' 0-based buckets.  Segment j
    holds steps cuts[j] up to the next cut (step t -> t+1 is step t); the
    epoch starts are cuts.  Writes the unit trajectory into
    trajectory[starts[0]..last].  Returns ((token B, token A) inflows,
    shape (2, segments), and end values).
    """
    # each epoch's table columns follow those of the group's earlier ones
    base = np.arange(len(starts)) * width
    low, high = roots[offsets], roots[offsets + width]
    inflow = np.zeros((2, len(cuts)))
    end_value = np.empty(len(starts))
    for t0, t1, ea, eb, spread in _blocks(starts, starts[0], last, overlap=True):
        p = prices[t0:t1 + 1]
        col = _columns(buckets[t0:t1 + 1], spread(offsets), spread(base), width)
        anchored = _reserves(tab, col, p, spread(low), spread(high),
                             trajectory[t0:t1 + 1])
        step = np.subtract(anchored[:, 1:], anchored[:, :-1])
        if eb > ea:
            # a boundary row ends the earlier epoch: its last step and end
            # value come from that epoch's positions
            ended = slice(ea, eb)
            bounds = starts[ea + 1:eb + 1] - t0
            col = _columns(buckets[t0 + bounds], offsets[ended], base[ended], width)
            patch = _reserves(tab, col, p[bounds], low[ended], high[ended],
                              end_value[ended])
            step[:, bounds - 1] = patch - anchored[:, bounds - 1]
        np.maximum(step, 0.0, out=step)
        if t1 > t0:
            # the steps run from the segment holding t0 through those cut
            # before the block's last row
            s0, s1 = cuts.searchsorted((t0 + 1, t1)).tolist()
            inflow[:, s0 - 1:s1] += np.add.reduceat(step, np.append(0, cuts[s0:s1] - t0),
                                                    axis=1)
    end_value[-1] = trajectory[last]
    return inflow, end_value


def _deploy_group(weights, offsets, width, anchors, buckets, tables):
    """Unit-capital liquidity of a group of epochs, shape (epochs, W), and its
    ``_kernel_table``; the epochs start at prices ``anchors`` in ``buckets``."""
    roots, depth = tables
    window_roots = _window_columns(roots, offsets, width)
    unit = deploy(weights, anchors, window_roots[1], window_roots[0])
    return unit, _kernel_table(unit, window_roots, _window_columns(depth, offsets, width),
                               np.sqrt(anchors), _columns(buckets, offsets, 0, width))


def _growth(config: BacktestConfig, unit_end, unit_inflow, end_price) -> np.ndarray:
    """Each epoch's next capital per unit of its own: its end value, plus
    its converted fees under reinvest, or 1 under fix-at-level."""
    if config.reinvest_mode == "reinvest":
        return unit_end + config.fee_rate * (unit_inflow[0] + unit_inflow[1] * end_price)
    if config.reinvest_mode == "exclude":
        return unit_end
    return np.ones(len(unit_end))


def _scale_rows(trajectory, starts, last, capital):
    """Scale a group's unit trajectory rows starts[0]..last in place by the
    capital of the epoch owning each."""
    for t0, t1, _, _, spread in _blocks(starts, starts[0], last - 1, overlap=False):
        trajectory[t0:t1 + 1] *= spread(capital)
    trajectory[last] *= capital[-1]


def _months(timestamps):
    """Calendar months of the steps, step t -> t+1 dated at row t+1: each
    month's label and its first step.  A month appears when a step ends in it."""
    step_ts = timestamps[1:]
    labels, firsts, i0 = [], [], 0
    while i0 < len(step_ts):  # ascending: a month's steps end where the next begins
        month = np.datetime64(int(step_ts[i0]), "s").astype("datetime64[M]")
        labels.append(str(month))
        firsts.append(i0)
        # the last month of int64 time has no next month: its start wraps
        end = (month + 1).astype("datetime64[s]").astype(np.int64)
        i0 = int(step_ts.searchsorted(end)) if end > step_ts[i0] else len(step_ts)
    return labels, np.array(firsts, dtype=np.int64)


def table_rows(columns: dict) -> list:
    """One dict per row of a table of equal-length columns."""
    return [dict(zip(columns, row))
            for row in zip(*(np.asarray(c).tolist() for c in columns.values()))]


@dataclass(frozen=True)
class BacktestReport:
    """Everything a backtest run produces.

    ``prices`` is the replayed series, unclamped: a read-only view, of the
    caller's own array when that was contiguous float64, so writing to that
    array changes the buy-and-hold values not yet read.
    """

    config: BacktestConfig
    plan: EpochPlan
    ledger: FeeLedger
    gas: GasBreakdown
    lp_trajectory: np.ndarray
    prices: np.ndarray
    initial_split: ReservePair
    profit_rate: float
    bh_profit_rate: float
    volume_cap_scale: float
    epoch_capital: np.ndarray = None   # deployable capital per epoch
    epoch_active: np.ndarray = None    # active bucket count per epoch
    monthly_fees: Optional[list] = None

    @cached_property
    def bh_trajectory(self) -> np.ndarray:
        """Buy-and-hold value of the first deployment's bag along the
        series, computed on first read, then kept."""
        return buy_and_hold(self.prices, self.initial_split)

    @property
    def epoch_table(self) -> dict:
        """Per-epoch output columns by name, in output order: the plan's
        (epoch, start, end, benchmark_bucket), then the ledger's."""
        led, epochs = self.ledger, self.plan.epochs
        return {"epoch": np.arange(1, len(epochs) + 1), "start": epochs[:, 0],
                "end": epochs[:, 1], "benchmark_bucket": epochs[:, 2],
                "inflow_a": led.inflow_a, "inflow_b": led.inflow_b,
                "fee_a": led.fee_a, "fee_b": led.fee_b, "end_price": led.end_price,
                "fee_converted_b": led.fee_converted,
                "volume_converted_b": led.volume_converted}

    def to_dict(self) -> dict:
        """JSON-ready summary; trajectories are exported separately as CSV."""
        out = {
            "initial_capital": float(self.config.capital),
            "final_value": float(self.lp_trajectory[-1]),
            "fees_total_b": self.ledger.total_fee_b,
            "volume_total_b": self.ledger.total_volume_b,
            "fee_rate": self.ledger.fee_rate,
            "gas_cost_b": self.gas.total_b,
            "gas_breakdown": asdict(self.gas),
            "epochs": len(self.plan),
            "profit_rate": self.profit_rate,
            "bh_profit_rate": self.bh_profit_rate,
            "volume_cap_scale": self.volume_cap_scale,
            "reinvest_mode": self.config.reinvest_mode,
            "epoch_fees": table_rows(self.epoch_table),
        }
        if self.monthly_fees is not None:
            out["monthly_fees"] = self.monthly_fees
        return out


def checked_prices(config: BacktestConfig, prices, timestamps=None):
    """(prices, timestamps or None, prices clamped to the partition) of a
    ``PriceSeries`` as given, or of an array and timestamps, or an object
    with ``prices`` and ``timestamps``, made into one; DataError names the
    first bad value."""
    if not isinstance(prices, PriceSeries):
        if hasattr(prices, "prices"):
            prices, timestamps = prices.prices, getattr(prices, "timestamps", None)
        prices = PriceSeries(prices, timestamps)
    p, part = prices.prices, config.partition
    if config.price_mode == "strict" and (p.min() < part.lower or p.max() > part.upper):
        i = int(np.argmax((p < part.lower) | (p > part.upper)))
        raise DataError(f"row {i + 1}: price {p[i]} at index {i} outside partition "
                        f"[{part.lower}, {part.upper}] (clamp mode would proceed)")
    clamped = p if config.price_mode == "strict" else np.clip(p, part.lower, part.upper)
    return p, prices.timestamps, clamped


# float64 overflow, on a series spanning hundreds of decades, and a profit
# rate over a start value that underflowed to 0 are let through without a
# warning and caught where the run reduces its results
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
        config: run configuration, checked when it was made.
        prices: 1-d positive price series, or any object with ``prices``
            and ``timestamps`` attributes.
        timestamps: optional ascending unix-second timestamps, one per
            price (enables monthly fee attribution; DataError otherwise);
            ignored when ``prices`` carries its own.

    Returns:
        BacktestReport with ledger, gas, trajectories and summary rates.

    Raises:
        DataError: a price is bad, or a result overflows float64.
    """
    p, timestamps, bucket_prices = checked_prices(config, prices, timestamps)
    part = config.partition
    plan = segment_epochs(part, bucket_prices, config.tau)
    # only segmentation reads the clamped copy; the report's plan drops the buckets
    del bucket_prices
    buckets, plan = plan.buckets, replace(plan, buckets=None)
    starts, ends = plan.epochs[:, 0], plan.epochs[:, 1]
    n_epochs, m = len(plan), len(p)
    tables = _bucket_tables(part)
    width, weights = _strategy_windows(config, plan.epochs[:, 2])
    group = max(1, _GROUP_CELLS // width)
    # a segment is an epoch, cut at each month's first step when there are
    # timestamps: epoch e's segments are first[e] .. first[e + 1] - 1
    cuts = starts
    if timestamps is not None:
        months, month_first = _months(timestamps)
        cuts = np.sort(np.concatenate((starts, month_first)))
        cuts = cuts[np.diff(cuts, prepend=-1) != 0]  # np.union1d imports numpy.ma
    first = np.append(cuts.searchsorted(starts), len(cuts))

    trajectory = np.empty(m)
    segments = np.empty((2, len(cuts)))  # token B, token A
    epoch_capital = np.empty(n_epochs)
    epoch_active = np.empty(n_epochs, dtype=np.int64)
    unchanged = np.empty(n_epochs - 1, dtype=np.int64)
    capital = config.capital
    prev_liq, prev_off = np.empty((0, width)), np.empty(0, dtype=np.int64)

    for g0 in range(0, n_epochs, group):
        g = slice(g0, min(n_epochs, g0 + group))
        s = slice(first[g.start], first[g.stop])
        last = ends[g.stop - 1]
        offsets, w = weights(g.start, g.stop)
        unit, tab = _deploy_group(w, offsets, width, p[starts[g]], buckets[starts[g]],
                                  tables)
        unit_seg, unit_end = _replay(tab, width, offsets, starts[g], cuts[s], last, p,
                                     buckets, part.roots, trajectory)
        unit_inflow = np.add.reduceat(unit_seg, first[g] - s.start, axis=1)

        # an epoch's capital is the one before times that one's growth
        chain = np.multiply.accumulate(np.append(
            capital, _growth(config, unit_end, unit_inflow, p[ends[g]])))
        cap, capital = chain[:-1], chain[-1]
        epoch_capital[g] = cap
        segments[:, s] = unit_seg * np.repeat(cap, np.diff(first[g.start:g.stop + 1]))
        _scale_rows(trajectory, starts[g], last, cap)

        # gas compares consecutive windows, across the group seam too
        liq = unit * cap[:, None]
        epoch_active[g] = np.count_nonzero(liq > 0.0, axis=1)
        unchanged[g0 - len(prev_off):g.stop - 1] = _unchanged(
            np.concatenate([prev_liq, liq]), np.concatenate([prev_off, offsets]))
        prev_liq, prev_off = liq[-1:], offsets[-1:]
        if g0 == 0:
            first_liq, first_off = liq[0], int(offsets[0])
    del buckets

    inflow = np.add.reduceat(segments, first[:-1], axis=1)
    ledger = FeeLedger(config.fee_rate, inflow[1], inflow[0], p[ends])

    scale = 1.0
    if config.volume_cap is not None and ledger.total_volume_b > config.volume_cap:
        scale = config.volume_cap / ledger.total_volume_b
        ledger = FeeLedger(config.fee_rate, ledger.inflow_a * scale, ledger.inflow_b * scale,
                           ledger.end_price)

    gas = _gas_breakdown(epoch_active, unchanged, starts, ends[-1], config.gas, p)

    # benchmark bag: aggregate reserves of the first deployment
    sb, sa, inv_b, _ = tables[0][:, first_off:first_off + width]
    c0 = np.clip(np.sqrt(p[0]), sa, sb)
    split0 = ReservePair(float((first_liq * (1.0 / c0 - inv_b)).sum()),
                         float((first_liq * (c0 - sa)).sum()))
    # the bag's value at the points the checks read, as float64 scalars in
    # buy_and_hold's operations; x >= 0 and rounding is monotone, so the
    # value at the largest price is the largest value
    bh_first, bh_last, bh_max = (split0.x * v + split0.y for v in (p[0], p[-1], p.max()))
    profit_rate = float((trajectory[-1] - trajectory[0]) / trajectory[0])
    bh_profit_rate = float((bh_last - bh_first) / bh_first)
    # a non-finite value anywhere in the capital chain, the ledger or a
    # trajectory carries through to its last value, total or largest value;
    # a position that underflows to nothing makes its profit rate NaN
    results = [("final capital", capital), ("total volume", ledger.total_volume_b),
               ("gas cost", gas.total_b), ("largest value", trajectory.max()),
               ("largest buy-and-hold value", bh_max), ("profit rate", profit_rate),
               ("buy-and-hold profit rate", bh_profit_rate)]
    monthly = None
    if timestamps is not None:
        # token-A fees convert at each month's last price, so the months'
        # sum can differ slightly from the ledger's, converted per epoch
        sums = np.add.reduceat(segments, cuts.searchsorted(month_first), axis=1)
        fee_b, fee_a = config.fee_rate * (sums * scale)
        converted = fee_b + fee_a * p[np.append(month_first[1:], m - 1)]
        results.append(("largest monthly fee", converted.max()))
        monthly = [{"month": label, "fee_a": fa, "fee_b": fb, "fee_converted_b": fc}
                   for label, fa, fb, fc in zip(months, fee_a.tolist(), fee_b.tolist(),
                                                converted.tolist())]
    for name, value in results:
        if not isfinite(value):
            kind = "overflow" if isinf(value) else "overflow or underflow"
            raise DataError(f"float64 {kind}: {name} is {value}")

    return BacktestReport(
        config=config,
        plan=plan,
        ledger=ledger,
        gas=gas,
        lp_trajectory=trajectory,
        prices=p,
        initial_split=split0,
        profit_rate=profit_rate,
        bh_profit_rate=bh_profit_rate,
        volume_cap_scale=scale,
        epoch_capital=epoch_capital,
        epoch_active=epoch_active,
        monthly_fees=monthly,
    )
