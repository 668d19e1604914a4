"""Brute-force reserve oracle: the full (timestep x bucket) state tensor.

The engine computes fees and the capital trajectory from aggregate
reserves.  This module keeps the transparent reference it is checked
against: every bucket's reserves at every timestep, materialised, with
per-bucket positive reserve differences summed afterwards.  It allocates
O(series length x buckets) memory, so it is for tests only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from clmm_backtest.bucketing import BucketPartition, EpochPlan
from clmm_backtest.core_math import ReservePair
from clmm_backtest.engine import FeeLedger


@dataclass(frozen=True)
class PoolStateTensor:
    """Materialised per-epoch reserve states.

    ``states[e]`` has shape (epoch length, buckets, 2) with token-A
    reserves in channel 0 and token-B in channel 1.  Row t of epoch e is
    the state at series index ``plan.epochs[e].start + t``.
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
    se = np.sqrt(partition.edges())
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
