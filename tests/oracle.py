"""Brute-force references the engine is checked against.

The scalar position math of one concentrated-liquidity range (the range
reserves of the Uniswap v3 core whitepaper, Adams et al., 2021) is the
hand-derived reference for ``allocation.deploy`` and the reserve kernel:
``split_capital`` per bucket is what ``deploy`` computes per cell.

The engine computes fees and the capital trajectory from aggregate
reserves.  This module keeps the transparent reference for that: every
bucket's reserves at every timestep, materialised, with per-bucket
positive reserve differences summed afterwards.  It allocates
O(series length x buckets) memory, so it is for tests only.  For short
series the same rule also runs in exact rational arithmetic.  It also keeps
the gas count that compares whole liquidity vectors at every transition,
and drives the engine's window-restricted count on hand-made schedules,
so that the two can be checked against each other, and the CSV row writer
that calls ``repr`` on every cell, which the bulk formatter must match byte
for byte.  Two conveniences no run needs live here for the tests that use
them: a price series written back to CSV, and a variance fit repeated over
several profile centres.  The random band strategy's weights are drawn here the way numpy
documents them, one ``default_rng([seed, epoch])`` generator per row, which
the vectorised stream must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from clmm_backtest import prices as price_io
from clmm_backtest.allocation import band_weights, deploy
from clmm_backtest.bucketing import BucketPartition, EpochPlan
from clmm_backtest import calibration
from clmm_backtest.calibration import CalibrationResult, FeeCurve, calibrate_variance
from clmm_backtest import engine
from clmm_backtest.errors import CalibrationUnreachableError
from clmm_backtest.engine import (_LIQ_EQUAL_RTOL, FeeLedger, GasBreakdown, GasParams,
                                  ReservePair)


class CapitalSplit(NamedTuple):
    """Result of splitting a capital budget into a range position."""

    x: float
    y: float
    liquidity: float

    @property
    def reserves(self) -> ReservePair:
        return ReservePair(self.x, self.y)


@dataclass(frozen=True)
class PriceRange:
    """Price interval [p_a, p_b] with 0 < p_a < p_b < inf.

    Exposes the square-root bounds and the full-range reserve depths per
    unit of liquidity, which is what every other formula here consumes.
    """

    p_a: float
    p_b: float

    def __post_init__(self):
        if not (math.isfinite(self.p_a) and math.isfinite(self.p_b)):
            raise ValueError(f"price bounds must be finite, got [{self.p_a}, {self.p_b}]")
        if not 0.0 < self.p_a < self.p_b:
            raise ValueError(f"need 0 < p_a < p_b, got [{self.p_a}, {self.p_b}]")
        if math.sqrt(self.p_a) >= math.sqrt(self.p_b):
            # guards against bounds so close their square roots collapse
            raise ValueError(f"degenerate range, sqrt bounds collide: [{self.p_a}, {self.p_b}]")

    @property
    def sqrt_a(self) -> float:
        return math.sqrt(self.p_a)

    @property
    def sqrt_b(self) -> float:
        return math.sqrt(self.p_b)

    @property
    def delta_x(self) -> float:
        """Token-A depth per unit liquidity across the whole range."""
        return 1.0 / self.sqrt_a - 1.0 / self.sqrt_b

    @property
    def delta_y(self) -> float:
        """Token-B depth per unit liquidity across the whole range."""
        return self.sqrt_b - self.sqrt_a

    def contains(self, p: float) -> bool:
        """True when p lies strictly inside the range."""
        return self.p_a < p < self.p_b


def _check_price(p: float) -> None:
    if not (math.isfinite(p) and p > 0.0):
        raise ValueError(f"price must be positive and finite, got {p}")


def liquidity_from_x(x: float, rng: PriceRange) -> float:
    """Liquidity of a position funded entirely with x units of token A."""
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"token A amount must be non-negative, got {x}")
    return x * rng.sqrt_a * rng.sqrt_b / (rng.sqrt_b - rng.sqrt_a)


def liquidity_from_y(y: float, rng: PriceRange) -> float:
    """Liquidity of a position funded entirely with y units of token B."""
    if not (math.isfinite(y) and y >= 0.0):
        raise ValueError(f"token B amount must be non-negative, got {y}")
    return y / (rng.sqrt_b - rng.sqrt_a)


def split_capital(w: float, p: float, rng: PriceRange) -> CapitalSplit:
    """Split a token-B capital budget into a position on one range.

    With the contract price strictly inside the range, the budget is split
    so both tokens back the same liquidity; the split solves

        x * sqrt(p) * sqrt(p_b) / (sqrt(p_b) - sqrt(p))
            = y / (sqrt(p) - sqrt(p_a)),       y + x * p = w.

    At or beyond a bound the position degenerates to a single token:
    all token A bought at p when p <= p_a, all token B when p >= p_b.
    Sides are told apart by square roots: a price inside the range whose
    root equals a bound's counts as sitting on that bound.

    Args:
        w: capital budget in token B, must be positive.
        p: current contract price.
        rng: target price range.

    Returns:
        CapitalSplit with reserves (x, y) and the backed liquidity.
    """
    if not (math.isfinite(w) and w > 0.0):
        raise ValueError(f"capital must be positive and finite, got {w}")
    _check_price(p)

    sp = math.sqrt(p)
    if sp <= rng.sqrt_a:
        x = w / p
        return CapitalSplit(x, 0.0, liquidity_from_x(x, rng))
    if sp >= rng.sqrt_b:
        return CapitalSplit(0.0, w, liquidity_from_y(w, rng))

    x_l = sp * rng.sqrt_b / (rng.sqrt_b - sp)
    y_l = 1.0 / (sp - rng.sqrt_a)
    denom = x_l + p * y_l
    x = w * y_l / denom
    y = w * x_l / denom
    # both x * x_l and y * y_l reduce to the same expression, use it directly
    liquidity = w * x_l * y_l / denom
    return CapitalSplit(x, y, liquidity)


def liquidity_state(l: float, rng: PriceRange, p: float) -> ReservePair:
    """Reserves held by liquidity l on a range at contract price p.

    Below the range the position is all token A, above it all token B,
    and strictly inside both reserves are live:

        p <= p_a:        (l * (1/sqrt(p_a) - 1/sqrt(p_b)), 0)
        p_a < p < p_b:   (l * (1/sqrt(p) - 1/sqrt(p_b)), l * (sqrt(p) - sqrt(p_a)))
        p >= p_b:        (0, l * (sqrt(p_b) - sqrt(p_a)))
    """
    if not (math.isfinite(l) and l >= 0.0):
        raise ValueError(f"liquidity must be non-negative, got {l}")
    _check_price(p)

    if p <= rng.p_a:
        return ReservePair(l * rng.delta_x, 0.0)
    if p >= rng.p_b:
        return ReservePair(0.0, l * rng.delta_y)
    sp = math.sqrt(p)
    return ReservePair(l * (1.0 / sp - 1.0 / rng.sqrt_b), l * (sp - rng.sqrt_a))


def position_value(l: float, rng: PriceRange, p: float, valuation_price: float) -> float:
    """Token-B value of a range position, reserves priced at valuation_price."""
    _check_price(valuation_price)
    x, y = liquidity_state(l, rng, p)
    return y + x * valuation_price


def invariant_residual(reserves: ReservePair, l: float, rng: PriceRange) -> float:
    """Relative residual of the reserve curve identity for a range position.

    Zero (up to roundoff) whenever (x, y, l) describe a consistent position:
    (x + l/sqrt(p_b)) * (y + l*sqrt(p_a)) = l**2.
    """
    if l <= 0.0:
        raise ValueError(f"liquidity must be positive, got {l}")
    lhs = (reserves.x + l / rng.sqrt_b) * (reserves.y + l * rng.sqrt_a)
    return (lhs - l * l) / (l * l)


def bucket_range(partition: BucketPartition, i: int) -> PriceRange:
    """Price range of bucket i (1-based): its two edges from the table."""
    return PriceRange(float(partition.edges[i - 1]), float(partition.edges[i]))


def band_row(partition: BucketPartition, benchmark: int, tau: int, seed=None,
             epoch: int = 0) -> np.ndarray:
    """One epoch's band weights over the whole partition, zero outside its
    window: ``band_weights``' row without a seed, the per-row generator
    reference ``random_band_weights``' row with one."""
    if seed is None:
        offsets, w = band_weights(partition, [benchmark], tau)
    else:
        offsets, w = random_band_weights(partition, [benchmark], tau, seed, epoch)
    row = np.zeros(partition.n)
    row[offsets[0]:offsets[0] + w.shape[1]] = w[0]
    return row


def deploy_row(partition: BucketPartition, weights, capital: float,
               anchor: float) -> np.ndarray:
    """One epoch's liquidity over the whole partition: ``deploy`` of the
    shares weights * capital at the anchor price, as one row."""
    share = np.asarray(weights, dtype=np.float64)[None] * capital
    return deploy(share, np.array([float(anchor)]), partition.roots[None, :-1],
                  partition.roots[None, 1:])[0]


@dataclass(frozen=True)
class PoolStateTensor:
    """Materialised per-epoch reserve states.

    ``states[e]`` has shape (epoch length, buckets, 2) with token-A
    reserves in channel 0 and token-B in channel 1.  Row t of epoch e is
    the state at series index ``plan.epochs[e, 0] + t``.
    """

    plan: EpochPlan
    states: tuple

    def epoch_states(self, e: int) -> np.ndarray:
        return self.states[e]

    def state_at(self, e: int, t: int, bucket: int) -> ReservePair:
        """Reserves of one bucket (1-based) at row t of epoch e."""
        x, y = self.states[e][t, bucket - 1]
        return ReservePair(float(x), float(y))


def _states_rows(liquidity, sqrt_a, sqrt_b, sqrt_prices):
    """Reserves of every bucket at every sqrt price row.

    For liquidity l on sqrt bounds [sa, sb] the clipped root
    c = clip(s, sa, sb) gives all three regimes at once:
    x = l * (1/c - 1/sb), y = l * (c - sa).
    """
    c = np.clip(sqrt_prices[:, None], sqrt_a[None, :], sqrt_b[None, :])
    x = liquidity * (1.0 / c - 1.0 / sqrt_b)
    y = liquidity * (c - sqrt_a)
    return x, y


def build_state_tensor(partition: BucketPartition, plan: EpochPlan,
                       liquidity: list, prices: np.ndarray) -> PoolStateTensor:
    """Materialise the reserve states of every epoch, timestep and bucket.

    Args:
        partition: bucket layout.
        plan: epoch segmentation of the series.
        liquidity: one per-bucket liquidity vector per epoch in the plan.
        prices: full price series the plan was built for.

    Returns:
        PoolStateTensor with one (length, buckets, 2) array per epoch.
    """
    if len(liquidity) != len(plan):
        raise ValueError(f"{len(liquidity)} liquidity vectors for {len(plan)} epochs")
    p = np.asarray(prices, dtype=np.float64)
    se = np.sqrt(partition.edges)
    sa, sb = se[:-1], se[1:]
    out = []
    for ep, liq in zip(plan, liquidity):
        sp = np.sqrt(p[ep.start:ep.end + 1])
        x, y = _states_rows(liq, sa, sb, sp)
        out.append(np.stack([x, y], axis=-1))
    return PoolStateTensor(plan, tuple(out))


def compute_fees(tensor: PoolStateTensor, fee_rate: float,
                 prices: np.ndarray) -> FeeLedger:
    """Fee ledger from a materialised state tensor.

    Per epoch, trader inflows are the positive reserve differences between
    consecutive rows, summed over timesteps and buckets.  The boundary
    index shared by two epochs closes the old epoch's accrual; the next
    epoch's first difference starts from that index under the new
    liquidity, so no price step is ever charged twice.
    """
    if not 0.0 < fee_rate < 1.0:
        raise ValueError(f"fee rate must lie in (0, 1), got {fee_rate}")
    p = np.asarray(prices, dtype=np.float64)
    inflow_a, inflow_b, end_price = [], [], []
    for e, ep in enumerate(tensor.plan):
        st = tensor.states[e]
        if st.shape[0] >= 2:
            d = np.diff(st, axis=0)
            np.clip(d, 0.0, None, out=d)
            inflow_a.append(float(d[..., 0].sum()))
            inflow_b.append(float(d[..., 1].sum()))
        else:
            inflow_a.append(0.0)
            inflow_b.append(0.0)
        end_price.append(float(p[ep.end]))
    return FeeLedger(fee_rate, np.array(inflow_a), np.array(inflow_b),
                     np.array(end_price))


def exact_volume(partition: BucketPartition, liquidity: np.ndarray,
                 prices: np.ndarray) -> Fraction:
    """Converted volume of one deployment over the whole series, exactly.

    The per-bucket rule of ``compute_fees``: token B on each rise of a
    bucket's clipped root c, token A on each rise of 1/c, token A at the
    last price.  It is evaluated in rational arithmetic on the float roots
    of the edges and the prices, so it adds no rounding of its own.
    """
    s = [Fraction(x) for x in np.sqrt(np.asarray(prices, dtype=np.float64)).tolist()]
    p_end = Fraction(float(prices[-1]))
    total = Fraction(0)
    for liq, sa, sb in zip(liquidity.tolist(), partition.roots[:-1].tolist(),
                           partition.roots[1:].tolist()):
        if liq == 0.0:
            continue
        c = [min(max(x, Fraction(sa)), Fraction(sb)) for x in s]
        for c0, c1 in zip(c, c[1:]):
            if c1 != c0:
                total += Fraction(liq) * (c1 - c0 if c1 > c0 else p_end * (1 / c1 - 1 / c0))
    return total


def gas_cost(plan: EpochPlan, liquidity: list, params: GasParams,
             prices: np.ndarray) -> GasBreakdown:
    """Gas spend of a deployment schedule, in token B, from whole-vector
    comparisons.

    Events: one mint per active bucket at the first deployment, and at
    each epoch transition one burn per bucket leaving (and one mint per
    bucket entering) the active set, valued at the boundary timestep's
    gas-token price.  A bucket whose liquidity is unchanged across the
    transition (to relative tolerance 1e-12) is left untouched.  The final
    epoch's positions are burned at the last timestep.  Every transition
    compares the two liquidity vectors over all buckets.
    """
    if len(liquidity) != len(plan):
        raise ValueError(f"{len(liquidity)} liquidity vectors for {len(plan)} epochs")
    p = np.asarray(prices, dtype=np.float64)

    def token_price(t: int) -> float:
        if params.gas_token_price is None:
            return float(p[t])
        return float(params.gas_token_price)

    eth_per_gas = params.gas_price_gwei * 1e-9
    mints = burns = 0
    initial_b = transition_b = final_b = 0.0

    first = liquidity[0] > 0.0
    n0 = int(first.sum())
    mints += n0
    initial_b = n0 * params.mint_gas * eth_per_gas * token_price(plan.epochs[0, 0])

    for e in range(1, len(plan)):
        old = liquidity[e - 1]
        new = liquidity[e]
        unchanged = (old > 0.0) & (new > 0.0) \
            & (np.abs(old - new) <= _LIQ_EQUAL_RTOL * np.maximum(old, new))
        burn_here = int(((old > 0.0) & ~unchanged).sum())
        mint_here = int(((new > 0.0) & ~unchanged).sum())
        burns += burn_here
        mints += mint_here
        price = token_price(plan.epochs[e, 0])
        transition_b += (burn_here * params.burn_gas
                         + mint_here * params.mint_gas) * eth_per_gas * price

    last = liquidity[-1] > 0.0
    nl = int(last.sum())
    burns += nl
    final_b = nl * params.burn_gas * eth_per_gas * token_price(plan.epochs[-1, 1])

    return GasBreakdown(initial_b, transition_b, final_b, mints, burns)


def engine_gas_cost(plan: EpochPlan, liquidity: list, params: GasParams,
                    prices: np.ndarray, width: int = None,
                    offsets=None) -> GasBreakdown:
    """The engine's gas count on a schedule of whole liquidity vectors.

    ``run_backtest`` counts gas over each epoch's window of buckets; this
    cuts each liquidity vector to the window of ``width`` buckets starting
    at ``offsets[e]`` (by default the whole partition for every epoch) and
    hands the windows to the same ``engine._unchanged`` and
    ``engine._gas_breakdown``.  Each window must hold its vector's
    positive buckets.
    """
    if len(liquidity) != len(plan):
        raise ValueError(f"{len(liquidity)} liquidity vectors for {len(plan)} epochs")
    n = len(liquidity[0])
    width = n if width is None else width
    offsets = np.zeros(len(plan), dtype=np.int64) if offsets is None \
        else np.asarray(offsets, dtype=np.int64)
    windows = np.stack([liq[o:o + width] for liq, o in zip(liquidity, offsets)])
    for liq, w in zip(liquidity, windows):
        assert np.count_nonzero(w > 0.0) == np.count_nonzero(liq > 0.0)
    return engine._gas_breakdown(np.count_nonzero(windows > 0.0, axis=1),
                                 engine._unchanged(windows, offsets),
                                 plan.epochs[:, 0], plan.epochs[-1, 1], params,
                                 np.asarray(prices, dtype=np.float64))


def write_csv(path, header: str, columns) -> None:
    """The CSV writer as it was before the bulk formatter: ``repr`` of each
    cell as a Python scalar, rows joined in chunks of 2**16."""
    cols = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for s in range(0, len(cols[0]), 1 << 16):
            cells = (map(repr, c[s:s + (1 << 16)].tolist()) for c in cols)
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def random_band_weights(partition: BucketPartition, benchmarks, tau: int, seed,
                        first_epoch: int = 0):
    """(offsets, weights) of the random band strategy, one row at a time:
    row r's band, the buckets within tau of benchmarks[r] clipped at the
    partition edges, draws ``default_rng([seed, first_epoch + r]).random``
    of its width into a window of min(n, 2 tau + 1) buckets, and rows are
    normalised as ``allocation.band_weights`` does."""
    n = partition.n
    width = min(n, 2 * tau + 1)
    offsets = np.empty(len(benchmarks), dtype=np.int64)
    w = np.zeros((len(benchmarks), width))
    band = np.zeros(w.shape, dtype=bool)
    for r, s in enumerate(benchmarks):
        lo, hi = max(s - 1 - tau, 0), min(s + tau, n)  # 0-based band [lo, hi)
        offsets[r] = off = min(lo, n - width)
        rng = np.random.default_rng([seed, first_epoch + r])
        w[r, lo - off:hi - off] = rng.random(hi - lo)
        band[r, lo - off:hi - off] = True
    total = w.sum(axis=1, keepdims=True)
    empty = total[:, 0] <= 0.0
    w[empty], total[empty] = band[empty], band[empty].sum(axis=1, keepdims=True)
    w /= total
    w /= w.sum(axis=1, keepdims=True)
    return offsets, w


def write_prices(series: price_io.PriceSeries, path) -> None:
    """Write a series back to CSV with the bulk writer, in a bit-exact
    round-trippable form."""
    if series.timestamps is not None:
        price_io.write_csv(path, "ts,price", (series.timestamps, series.prices))
    else:
        price_io.write_csv(path, "price", (series.prices,))


def calibrate_over_mu(pool_config, prices, mu_values, bound: float, target_fee: float,
                      variance_grid) -> CalibrationResult:
    """Coarse outer search: calibrate the variance at each mu, keep the best.

    mu values where the target is unreachable are skipped; if every mu is
    unreachable the last such error is re-raised.  One travel pass over the
    series serves every mu.
    """
    grid = np.asarray(variance_grid, dtype=np.float64)
    v = None
    best = None
    last_err = None
    for mu in map(float, mu_values):
        if v is None:
            v = calibration._bucket_volume(pool_config, prices)
        curve = FeeCurve(pool_config, mu, bound, grid,
                         calibration._fees(pool_config, v, mu, bound, grid), v)
        try:
            res = calibrate_variance(curve, target_fee)
        except CalibrationUnreachableError as err:
            last_err = err
            continue
        if best is None or res.relative_error < best.relative_error:
            best = res
    if best is None:
        raise last_err if last_err is not None else \
            CalibrationUnreachableError("no mu values supplied")
    return best
