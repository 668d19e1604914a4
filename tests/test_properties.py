"""Property tests: the aggregate reserve kernel and the galloping reset scan.

The kernel is checked against the brute-force oracle (every bucket's
reserves at every timestep, ``oracle.py``), and the galloping epoch scan
against a per-row re-scan.  Bulk data comes from numpy generators seeded
by hypothesis, so that series can be long while cases stay shrinkable in
their shape parameters.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from clmm_backtest.allocation import allocate_epoch, custom_weights
from clmm_backtest.bucketing import BucketPartition, segment_epochs
from clmm_backtest.engine import BacktestConfig, StrategyConfig, run_backtest
from oracle import build_state_tensor, compute_fees

REL = 1e-12
BLOCK = 1 << 13  # the kernel's block length
# lengths around the kernel's one-row block overlaps, and past two blocks
LENGTHS = st.one_of(st.integers(2, 400),
                    st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1,
                                     2 * BLOCK, 2 * BLOCK + 1, 2 * BLOCK + 777]))


def partitions():
    # non-round bounds, from one wide bucket to many narrow ones
    return st.builds(lambda lower, ratio, n: BucketPartition(lower, lower * ratio, n),
                     st.floats(0.37, 4321.0), st.floats(1.03, 60.0),
                     st.integers(1, 40))


def liquidity_weights(rng, n, kinds):
    """Weights with zero gaps, 1e-59 tails and a body."""
    w = rng.uniform(0.01, 1.0, n)
    kind = np.array(kinds[:n] + ["body"] * (n - len(kinds)))
    w[kind == "zero"] = 0.0
    w[kind == "tail"] *= 1e-59
    if not w.any():
        w[rng.integers(n)] = 1.0
    return w / w.sum()


def walk(rng, part, m, move, jump_p, flat_p, clamp):
    """Reflected log walk with multi-bucket jumps, flat runs and exact edges.

    ``move`` is the typical step in bucket widths, so tiny moves stay
    well conditioned against the widths whose reserves they difference.
    """
    lo, hi = part.lower, part.upper
    if clamp:
        lo, hi = lo * 0.8, hi * 1.25
    bucket_step = np.log(part.upper / part.lower) / part.n
    steps = rng.normal(0.0, move * bucket_step, m)
    jumps = rng.random(m) < jump_p
    steps[jumps] = rng.normal(0.0, 0.5 * np.log(hi / lo), int(jumps.sum()))
    run = int(rng.integers(1, 500))
    steps[np.repeat(rng.random(m // run + 1) < flat_p, run)[:m]] = 0.0
    x = np.log(rng.uniform(lo, hi)) + np.cumsum(steps)
    span = np.log(hi / lo)
    x = np.log(lo) + span - np.abs(np.mod(x - np.log(lo), 2.0 * span) - span)
    p = np.clip(np.exp(x), lo, hi)
    on_edge = rng.random(m) < 0.01
    p[on_edge] = part.edges()[rng.integers(0, part.n + 1, int(on_edge.sum()))]
    return p


@st.composite
def scenarios(draw):
    part = draw(partitions())
    kinds = draw(st.lists(st.sampled_from(["zero", "tail", "body"]),
                          max_size=part.n))
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(LENGTHS)
    clamp = draw(st.booleans())
    rng = np.random.default_rng(seed)
    weights = liquidity_weights(rng, part.n, kinds)
    prices = walk(rng, part, m, move=draw(st.sampled_from([1e-3, 0.05, 1.0])),
                  jump_p=draw(st.sampled_from([0.0, 1e-3, 0.05])),
                  flat_p=draw(st.sampled_from([0.0, 0.5, 0.95])), clamp=clamp)
    # tau = n runs the whole series as one epoch, crossing block seams
    config = BacktestConfig(
        part, draw(st.one_of(st.integers(0, 3), st.just(part.n))),
        StrategyConfig("custom", weights=weights), 1e6, 0.003,
        reinvest_mode=draw(st.sampled_from(["reinvest", "exclude", "fix-at-level"])),
        price_mode="clamp" if clamp else "strict")
    timestamps = 1_600_000_000 + np.cumsum(rng.integers(1, 4 * 86_400, m))
    return config, prices, timestamps


def oracle_run(config, report, prices):
    """Oracle states for the epochs and budgets the engine ran."""
    part = config.partition
    allocs = [allocate_epoch(custom_weights(part, config.strategy.weights),
                             float(report.epoch_capital[e]), float(prices[ep.start]),
                             part)
              for e, ep in enumerate(report.plan)]
    return allocs, build_state_tensor(part, report.plan, allocs, prices)


@settings(max_examples=60)
@given(scenarios())
def test_kernel_matches_brute_force_oracle(case):
    config, prices, timestamps = case
    report = run_backtest(config, prices, timestamps)
    allocs, tensor = oracle_run(config, report, prices)
    ledger = compute_fees(tensor, config.fee_rate, prices)

    # per-epoch inflows, relative to the epoch's converted volume
    volume = ledger.volume_converted
    assert np.all(np.abs(report.ledger.inflow_b - ledger.inflow_b) <= REL * volume)
    assert np.all(np.abs(report.ledger.inflow_a - ledger.inflow_a) * ledger.end_price
                  <= REL * volume)
    assert report.epoch_active.tolist() == [len(a.active_buckets()) for a in allocs]

    # trajectory: later epochs own the shared boundary row
    expect = np.empty(len(prices))
    for ep, states in zip(report.plan, tensor.states):
        expect[ep.start:ep.end + 1] = states[:, :, 1].sum(axis=1) \
            + prices[ep.start:ep.end + 1] * states[:, :, 0].sum(axis=1)
    assert np.all(np.abs(report.lp_trajectory - expect) <= REL * expect)

    # monthly rows, relative to the run's fee total
    steps = np.zeros((len(prices) - 1, 2))
    for ep, states in zip(report.plan, tensor.states):
        steps[ep.start:ep.end] = np.clip(np.diff(states, axis=0), 0.0, None).sum(axis=1)
    month = timestamps.astype("datetime64[s]").astype("datetime64[M]")[1:]
    rows = report.monthly_fees
    assert [r["month"] for r in rows] == [str(x) for x in np.unique(month)]
    total = ledger.total_fee_b
    for row in rows:
        in_month = month == np.datetime64(row["month"])
        fee_a, fee_b = config.fee_rate * steps[in_month].sum(axis=0)
        assert abs(row["fee_a"] - fee_a) * prices[1:][in_month][-1] <= REL * total
        assert abs(row["fee_b"] - fee_b) <= REL * total


def rescan(part, prices, tau):
    s = part.bucket_of(float(prices[0]))
    start, out = 0, []
    for i in range(1, len(prices)):
        b = part.bucket_of(float(prices[i]))
        if abs(b - s) > tau:
            out.append((start, i, s))
            start, s = i, b
    out.append((start, len(prices) - 1, s))
    return out


@settings(max_examples=60)
@given(part=partitions(), seed=st.integers(0, 2**32 - 1),
       m=st.integers(1, 6000), move=st.sampled_from([1e-3, 0.02, 0.3]),
       tau=st.one_of(st.integers(0, 4), st.integers(39, 60)))
def test_galloping_scan_matches_rescan(part, seed, m, move, tau):
    # small moves make epochs thousands of rows long, so one epoch spans
    # many window doublings; tau >= n leaves the whole series one epoch
    prices = walk(np.random.default_rng(seed), part, m, move, jump_p=1e-3,
                  flat_p=0.5, clamp=False)
    plan = segment_epochs(part, prices, tau)
    assert [(e.start, e.end, e.benchmark) for e in plan] == rescan(part, prices, tau)
