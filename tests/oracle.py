"""Brute-force references the engine is checked against.

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
for byte.  The random band strategy's weights are drawn here the way numpy
documents them, one ``default_rng([seed, epoch])`` generator per row, which
the vectorised stream must match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from clmm_backtest.bucketing import BucketPartition, EpochPlan
from clmm_backtest.core_math import ReservePair
from clmm_backtest import engine
from clmm_backtest.engine import _LIQ_EQUAL_RTOL, FeeLedger, GasBreakdown, GasParams


@dataclass(frozen=True)
class PoolStateTensor:
    """Materialised per-epoch reserve states.

    ``states[e]`` has shape (epoch length, buckets, 2) with token-A
    reserves in channel 0 and token-B in channel 1.  Row t of epoch e is
    the state at series index ``plan[e].start + t``.
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
                       allocations: list, prices: np.ndarray) -> PoolStateTensor:
    """Materialise the reserve states of every epoch, timestep and bucket.

    Args:
        partition: bucket layout.
        plan: epoch segmentation of the series.
        allocations: one EpochAllocation per epoch in the plan.
        prices: full price series the plan was built for.

    Returns:
        PoolStateTensor with one (length, buckets, 2) array per epoch.
    """
    if len(allocations) != len(plan):
        raise ValueError(f"{len(allocations)} allocations for {len(plan)} epochs")
    p = np.asarray(prices, dtype=np.float64)
    se = np.sqrt(partition.edges)
    sa, sb = se[:-1], se[1:]
    out = []
    for ep, alloc in zip(plan, allocations):
        sp = np.sqrt(p[ep.start:ep.end + 1])
        x, y = _states_rows(alloc.liquidity, sa, sb, sp)
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


def gas_cost(plan: EpochPlan, allocations: list, params: GasParams,
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
    if len(allocations) != len(plan):
        raise ValueError(f"{len(allocations)} allocations for {len(plan)} epochs")
    p = np.asarray(prices, dtype=np.float64)

    def token_price(t: int) -> float:
        if params.gas_token_price is None:
            return float(p[t])
        return float(params.gas_token_price)

    eth_per_gas = params.gas_price_gwei * 1e-9
    mints = burns = 0
    initial_b = transition_b = final_b = 0.0

    first = allocations[0].liquidity > 0.0
    n0 = int(first.sum())
    mints += n0
    initial_b = n0 * params.mint_gas * eth_per_gas * token_price(plan[0].start)

    for e in range(1, len(plan)):
        old = allocations[e - 1].liquidity
        new = allocations[e].liquidity
        unchanged = (old > 0.0) & (new > 0.0) \
            & (np.abs(old - new) <= _LIQ_EQUAL_RTOL * np.maximum(old, new))
        burn_here = int(((old > 0.0) & ~unchanged).sum())
        mint_here = int(((new > 0.0) & ~unchanged).sum())
        burns += burn_here
        mints += mint_here
        price = token_price(plan[e].start)
        transition_b += (burn_here * params.burn_gas
                         + mint_here * params.mint_gas) * eth_per_gas * price

    last = allocations[-1].liquidity > 0.0
    nl = int(last.sum())
    burns += nl
    final_b = nl * params.burn_gas * eth_per_gas * token_price(plan[-1].end)

    return GasBreakdown(initial_b, transition_b, final_b, mints, burns)


def engine_gas_cost(plan: EpochPlan, allocations: list, params: GasParams,
                    prices: np.ndarray, width: int = None,
                    offsets=None) -> GasBreakdown:
    """The engine's gas count on a schedule of whole liquidity vectors.

    ``run_backtest`` counts gas over each epoch's window of buckets; this
    cuts each allocation to the window of ``width`` buckets starting at
    ``offsets[e]`` (by default the whole partition for every epoch) and
    hands the windows to the same ``engine._unchanged`` and
    ``engine._gas_breakdown``.  Each window must hold its allocation's
    positive buckets.
    """
    if len(allocations) != len(plan):
        raise ValueError(f"{len(allocations)} allocations for {len(plan)} epochs")
    n = len(allocations[0].liquidity)
    width = n if width is None else width
    offsets = np.zeros(len(plan), dtype=np.int64) if offsets is None \
        else np.asarray(offsets, dtype=np.int64)
    windows = np.stack([a.liquidity[o:o + width] for a, o in zip(allocations, offsets)])
    for a, w in zip(allocations, windows):
        assert np.count_nonzero(w > 0.0) == np.count_nonzero(a.liquidity > 0.0)
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
