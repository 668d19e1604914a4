"""Property tests: the batched replay, the galloping reset scan, bucket
edge ownership, the vectorised allocation, the window-restricted gas
count and the calibration's dot product.

The replay is checked against the brute-force oracle (every bucket's
reserves at every timestep, ``oracle.py``), epoch by epoch and along the
capital chain, and against itself run to run; the galloping epoch scan
against a per-row re-scan, ``deploy`` against a per-bucket
``split_capital`` loop, the engine's gas count over moving windows
against the oracle's whole-vector count, and the calibration's whole-pool
fee against the oracle, its exact rational form and the replay; the
``backtest`` command on extreme inputs ends in finite artifacts or in one
error line.  Bulk data comes from numpy generators seeded by hypothesis, so
that series can be long while cases stay shrinkable in their shape
parameters.
"""

import contextlib
import dataclasses
import io
import json
import math
import re
import shutil
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import oracle
from clmm_backtest._pcg import epoch_draws
from clmm_backtest.allocation import (ProfileParams, band_weights, custom_weights, deploy,
                                      normal_profile_weights)
from clmm_backtest.bucketing import BucketPartition, Epoch, EpochPlan, segment_epochs
from clmm_backtest.calibration import fee_curve, whole_pool_fee
from clmm_backtest.config import parse_config
from clmm_backtest import calibration, cli, engine
from clmm_backtest import prices as prices_module
from clmm_backtest.engine import (REINVEST_MODES, BacktestConfig, GasParams, StrategyConfig,
                                  run_backtest)
from clmm_backtest.errors import ConfigError, DataError
from clmm_backtest.prices import PriceSeries, load_prices
from oracle import build_state_tensor, compute_fees

REL = 1e-12
EPS = np.finfo(float).eps
BLOCK = 1 << 13  # the kernel's block length
# what a non-finite float looks like in a CSV cell or in Python's JSON
NON_FINITE = re.compile(r"\b(nan|inf|NaN|Infinity)\b")
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
    p[on_edge] = part.edges[rng.integers(0, part.n + 1, int(on_edge.sum()))]
    return p


@st.composite
def scenarios(draw, modes=("custom", "uniform", "random")):
    part = draw(partitions())
    kinds = draw(st.lists(st.sampled_from(["zero", "tail", "body"]),
                          max_size=part.n))
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(LENGTHS)
    clamp = draw(st.booleans())
    rng = np.random.default_rng(seed)
    # custom weights carry zero gaps and 1e-59 tails; the band strategies'
    # windows move with every epoch and are clipped at the partition edges
    mode = draw(st.sampled_from(modes))
    strategy = StrategyConfig(mode, weights=liquidity_weights(rng, part.n, kinds)) \
        if mode == "custom" else StrategyConfig(mode, seed=seed if mode == "random" else None)
    prices = walk(rng, part, m, move=draw(st.sampled_from([1e-3, 0.05, 1.0])),
                  jump_p=draw(st.sampled_from([0.0, 1e-3, 0.05])),
                  flat_p=draw(st.sampled_from([0.0, 0.5, 0.95])), clamp=clamp)
    # tau = n runs the whole series as one epoch, crossing block seams
    config = BacktestConfig(
        part, draw(st.one_of(st.integers(0, 3), st.just(part.n))), strategy, 1e6, 0.003,
        reinvest_mode=draw(st.sampled_from(["reinvest", "exclude", "fix-at-level"])),
        price_mode="clamp" if clamp else "strict")
    timestamps = 1_600_000_000 + np.cumsum(rng.integers(1, 4 * 86_400, m))
    return config, prices, timestamps


def epoch_weights(config, e, benchmark):
    """The allocation weights of epoch e over the whole partition, one
    strategy at a time; random rows come from the per-row generators."""
    strat, part = config.strategy, config.partition
    if strat.mode == "custom":
        return custom_weights(part, strat.weights).weights
    return oracle.band_row(part, benchmark, config.tau, strat.seed, e)


def oracle_run(config, report, prices):
    """Oracle states for the epochs and budgets the engine ran."""
    part = config.partition
    liqs = [oracle.deploy_row(part, epoch_weights(config, e, ep.benchmark),
                              report.epoch_capital[e], prices[ep.start])
            for e, ep in enumerate(report.plan)]
    return liqs, build_state_tensor(part, report.plan, liqs, prices)


def next_capital(config, end_value, fee):
    """The sequential per-epoch rule for the next epoch's capital."""
    if config.reinvest_mode == "reinvest":
        return end_value + fee
    if config.reinvest_mode == "exclude":
        return end_value
    return config.capital


def step_slack(part, plan, liquidity, prices):
    """Per step, 4 ulps of the full (token A, token B) depths of the buckets
    holding the price at either end of it if it moves, under the liquidity
    of the epoch that owns it.

    A step inside one bucket differences that bucket's roots or inverse
    roots, counted from an edge or the first price, so both the kernel and
    the oracle round it to a few ulps of the bucket's full depth, however
    small the step.  A short band epoch whose whole volume is such a step
    (anchored next to an edge, say) has no better-conditioned answer.
    Buckets the price is not in add nothing.
    """
    sa, sb = part.roots[:-1], part.roots[1:]
    slack = np.zeros((len(prices) - 1, 2))
    for ep, liq in zip(plan, liquidity):
        span = prices[ep.start:ep.end + 1]
        c = np.clip(np.sqrt(span), part.roots[0], part.roots[-1])
        k = part.roots[1:-1].searchsorted(c, side="right")
        depth = liq[k] * np.stack([1.0 / sa[k] - 1.0 / sb[k], sb[k] - sa[k]])
        moved = np.diff(span) != 0.0
        slack[ep.start:ep.end] = 4 * EPS * ((depth[:, :-1] + depth[:, 1:]) * moved).T
    return slack


def reciprocal_slack(part, liquidity, prices):
    """4 ulps of l / sa for every bucket whose clipped root c moves in a step.

    The oracle and the replay round each 1/c, and each inverse edge root,
    to an ulp of itself before differencing them, and rounded alike they
    cancel between the two.  Against a side that never forms 1/c, such as
    the calibration's dot product, that rounding is all there is, and in a
    narrow bucket it is far more than a few ulps of the bucket's depth.
    """
    c = np.clip(np.sqrt(prices)[:, None], part.roots[:-1], part.roots[1:])
    moved = np.diff(c, axis=0) != 0.0
    return 4 * EPS * (moved * (liquidity / part.roots[:-1])).sum()


def check_against_oracle(config, prices, timestamps):
    """Ledger, gas, trajectory and monthly rows of a run against the oracle.

    Per-epoch inflows, and each month's fees, must match to 1e-12 of the
    epoch's or the month's converted volume, plus the ``step_slack`` of its
    steps.
    """
    report = run_backtest(config, prices, timestamps)
    liqs, tensor = oracle_run(config, report, prices)
    ledger = compute_fees(tensor, config.fee_rate, prices)

    # per-epoch inflows, relative to the epoch's converted volume
    volume = ledger.volume_converted
    slack = step_slack(config.partition, report.plan, liqs, prices)
    noise = np.array([slack[ep.start:ep.end].sum(axis=0) for ep in report.plan])
    assert np.all(np.abs(report.ledger.inflow_b - ledger.inflow_b)
                  <= REL * volume + noise[:, 1])
    assert np.all(np.abs(report.ledger.inflow_a - ledger.inflow_a) * ledger.end_price
                  <= REL * volume + noise[:, 0] * ledger.end_price)
    assert report.epoch_active.tolist() == [np.count_nonzero(liq) for liq in liqs]
    # counts identical and totals bitwise equal: same sums in the same order
    assert report.gas == oracle.gas_cost(report.plan, liqs, config.gas, prices)

    # trajectory: later epochs own the shared boundary row
    expect = np.empty(len(prices))
    for ep, states in zip(report.plan, tensor.states):
        expect[ep.start:ep.end + 1] = states[:, :, 1].sum(axis=1) \
            + prices[ep.start:ep.end + 1] * states[:, :, 0].sum(axis=1)
    assert np.all(np.abs(report.lp_trajectory - expect) <= REL * expect)

    # monthly rows, relative to the month's own converted volume (token A
    # at the month's last price) and to the reserves its steps difference.
    # The kernel takes each step as the difference of two reserves anchored
    # at its epoch's first price, each rounded to a few ulps of itself, and
    # those reserves grow with the price's distance from the anchor.  A month
    # that is a thin slice of a long epoch can trade far less than that: on
    # one 8,191-step epoch over 540 months, a month's fees missed the oracle
    # by up to 6e-12 of its own volume while the epoch's kept to 1e-12.
    steps, reach = np.zeros((2, len(prices) - 1, 2))
    for ep, states in zip(report.plan, tensor.states):
        steps[ep.start:ep.end] = np.clip(np.diff(states, axis=0), 0.0, None).sum(axis=1)
        anchored = np.abs(states - states[0]).sum(axis=1)
        reach[ep.start:ep.end] = anchored[:-1] + anchored[1:]
    month = timestamps.astype("datetime64[s]").astype("datetime64[M]")[1:]
    rows = report.monthly_fees
    assert [r["month"] for r in rows] == [str(x) for x in np.unique(month)]
    f, total = config.fee_rate, ledger.total_fee_b
    for row in rows:
        in_month = month == np.datetime64(row["month"])
        (inflow_a, inflow_b), (reach_a, reach_b), (noise_a, noise_b) = (
            steps[in_month].sum(axis=0), reach[in_month].sum(axis=0),
            slack[in_month].sum(axis=0))
        last = prices[1:][in_month][-1]
        # within the run's fee total too, the bound this one tightened
        assert abs(row["fee_a"] - f * inflow_a) * last <= REL * total
        assert abs(row["fee_b"] - f * inflow_b) <= REL * total
        bound = REL * f * (inflow_b + inflow_a * last + reach_b + reach_a * last)
        assert abs(row["fee_a"] - f * inflow_a) * last <= bound + f * noise_a * last
        assert abs(row["fee_b"] - f * inflow_b) <= bound + f * noise_b
        assert abs(row["fee_converted_b"] - f * (inflow_b + inflow_a * last)) \
            <= bound + f * (noise_b + noise_a * last)


@settings(max_examples=60)
@given(scenarios(modes=["custom"]))
def test_kernel_matches_brute_force_oracle(case):
    # custom weights carry zero gaps and 1e-59 tails on a fixed span; a
    # short epoch whose only step moves inside one bucket is rounded to a
    # few ulps of that bucket's depth by both sides, hence the slack
    check_against_oracle(*case)


@settings(max_examples=60)
@given(scenarios(modes=["uniform", "random"]))
def test_band_replay_matches_brute_force_oracle(case):
    # band windows move with every epoch and are clipped at the partition
    # edges; gas compares consecutive windows over their overlap
    check_against_oracle(*case)


@settings(max_examples=60)
@given(scenarios())
def test_capital_chain_follows_the_sequential_rule(case):
    # each epoch's capital is the rule applied to the oracle's end value
    # and fees of the epoch before, run with the capital the engine gave it
    config, prices, _ = case
    report = run_backtest(config, prices)
    _, tensor = oracle_run(config, report, prices)
    ledger = compute_fees(tensor, config.fee_rate, prices)
    capital = report.epoch_capital
    assert capital[0] == config.capital
    for e, ep in enumerate(list(report.plan)[:-1]):
        x, y = tensor.states[e][-1].sum(axis=0)
        expect = next_capital(config, y + prices[ep.end] * x, ledger.fee_converted[e])
        assert abs(capital[e + 1] - expect) <= REL * expect


@settings(max_examples=30)
@given(scenarios())
def test_repeat_runs_are_byte_identical(case):
    config, prices, timestamps = case
    a, b = (run_backtest(config, prices, timestamps) for _ in range(2))
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    assert a.lp_trajectory.tobytes() == b.lp_trajectory.tobytes()
    assert a.bh_trajectory.tobytes() == b.bh_trajectory.tobytes()
    assert a.monthly_fees == b.monthly_fees


def month_stamps(m, firsts):
    """Minute timestamps of m rows whose months' first steps are ``firsts``
    (step t -> t+1 is dated at row t+1): row f + 1 opens a month at its
    first second, one month after the last."""
    opens = np.append(0, np.asarray(firsts) + 1)
    month = opens.searchsorted(np.arange(m), side="right") - 1
    begins = (np.datetime64("2021-01") + np.arange(len(opens))).astype("datetime64[s]")
    return begins.astype(np.int64)[month] + 60 * (np.arange(m) - opens[month])


def segment_case(m, mode="fix-at-level", seed=5):
    """A band run of many epochs over a 40-bucket partition; by default
    every epoch starts at the same capital, so each month's fees stay
    comparable to the run's total."""
    part = BucketPartition(1000.0, 4000.0, 40)
    prices = walk(np.random.default_rng(seed), part, m, move=0.3, jump_p=0.0, flat_p=0.0,
                  clamp=False)
    return BacktestConfig(part, 1, StrategyConfig("uniform"), 1e6, 0.003,
                          reinvest_mode=mode), prices


def check_months(config, prices, firsts):
    """The oracle check of a run whose months begin at steps ``firsts``."""
    timestamps = month_stamps(len(prices), firsts)
    months = timestamps[1:].astype("datetime64[s]").astype("datetime64[M]")
    assert np.flatnonzero(months[1:] != months[:-1]).tolist() == [f - 1 for f in firsts]
    check_against_oracle(config, prices, timestamps)
    return run_backtest(config, prices, timestamps)


@pytest.mark.parametrize("first", [BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1])
def test_month_starting_at_a_block_seam(first):
    # blocks start at rows 0, 8191, 16382, ...: the month's first step is
    # the first block's last one, the second block's first one, or inside
    # the second block
    config, prices = segment_case(12_000)
    assert len(check_months(config, prices, [first]).monthly_fees) == 2


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_month_starting_at_an_epoch_boundary(shift):
    # the month opens with the earlier epoch's last (patched) step, the
    # boundary row's step, or the one after it
    config, prices = segment_case(3000)
    starts = run_backtest(config, prices).plan.epochs[:, 0]
    assert len(starts) > 20
    boundary = int(starts[len(starts) // 2])
    check_months(config, prices, [boundary + shift])


def test_one_step_month():
    config, prices = segment_case(3000)
    assert prices[1501] != prices[1500]
    row = check_months(config, prices, [1500, 1501]).monthly_fees[1]
    assert max(row["fee_a"], row["fee_b"]) > 0.0


def test_final_epoch_starting_on_the_last_row():
    # the last price breaks the band: the final epoch has no steps, and the
    # last month holds only the step into it
    config, prices = segment_case(3000)
    part = config.partition
    prices[-1] = part.lower if prices[-2] > part.edges[part.n // 2] else part.upper
    report = check_months(config, prices, [1000, len(prices) - 2])
    assert report.plan.epochs[-1, 0] == len(prices) - 1
    assert report.ledger.inflow_b[-1] == report.ledger.inflow_a[-1] == 0.0


@pytest.mark.parametrize("mode", ["reinvest", "fix-at-level"])
@pytest.mark.parametrize("cells", [3, 4, 100])
def test_months_across_epoch_groups(cells, mode, monkeypatch):
    # the 3-bucket windows in groups of one epoch, one, or 33: a group's
    # segments run from its first epoch's start to the next group's
    config, prices = segment_case(3000, mode)
    prices[-1] = config.partition.upper if prices[-2] < 2500.0 else config.partition.lower
    monkeypatch.setattr(engine, "_GROUP_CELLS", cells)
    report = check_months(config, prices, list(range(100, 2999, 211)))
    assert report.plan.epochs[-1, 0] == len(prices) - 1


def test_timestamps_leave_the_exclude_chain_bitwise_unchanged():
    # under exclude, inflows never reach the capital chain: cutting
    # segments at month starts moves neither capitals nor trajectory
    config, prices = segment_case(20_000, mode="exclude")
    firsts = list(range(50, 19_999, 977))
    plain = run_backtest(config, prices)
    stamped = run_backtest(config, prices, month_stamps(len(prices), firsts))
    assert len(stamped.monthly_fees) == len(firsts) + 1
    assert stamped.lp_trajectory.tobytes() == plain.lp_trajectory.tobytes()
    assert stamped.epoch_capital.tobytes() == plain.epoch_capital.tobytes()


def root_edge_walk(part, m, seed):
    """A walk over the interior edges whose rows sit at an edge: the float
    below it whose root rounds onto the edge's root (so the root puts it a
    bucket higher than the price does), the float above it whose root does
    (both put it in the same bucket), or a price near it."""
    e, r = part.edges, part.roots
    below, above = np.nextafter(e, -np.inf), np.nextafter(e, np.inf)
    rng = np.random.default_rng(seed)
    j = np.clip(part.n // 2 + np.cumsum(rng.integers(-2, 3, m)), 1, part.n - 1)
    kind = rng.integers(0, 3, m)
    near = e[j] + rng.uniform(-0.3, 0.3, m) * ((part.upper - part.lower) / part.n)
    prices = np.where(kind == 0, below[j], np.where(kind == 1, above[j], near))
    # where no float next to the edge has its root, take the edge itself
    rounded = np.sqrt(prices) == r[j]
    return np.where((kind < 2) & ~rounded, e[j], prices)


@pytest.mark.parametrize("mode,tau", [("uniform", 2), ("random", 3), ("custom", 1)])
def test_prices_whose_root_rounds_onto_an_edge_root(mode, tau, monkeypatch):
    # the kernel reads each row's bucket from its price; looking the root up
    # among the edge roots, as the kernel once did, puts the rows below an
    # edge whose root rounds onto its root one bucket higher, where the
    # neighbouring bucket holds the same reserves
    part = BucketPartition(1000.0, 4000.0, 100)
    prices = root_edge_walk(part, 4000, 11)
    k = part.bucket_column(prices)
    root = np.sqrt(prices)
    assert np.count_nonzero(root == part.roots[k + 1]) > 300
    assert np.count_nonzero((root == part.roots[k]) & (prices > part.edges[k])) > 300
    timestamps = 1_600_000_000 + np.cumsum(np.random.default_rng(3).integers(1, 3 * 86_400,
                                                                              len(prices)))
    strategy = StrategyConfig(mode, seed=5 if mode == "random" else None,
                              weights=np.full(part.n, 1.0 / part.n) if mode == "custom" else None)
    config = BacktestConfig(part, tau, strategy, 1e6, 0.003, reinvest_mode="reinvest")
    check_against_oracle(config, prices, timestamps)

    report = run_backtest(config, prices, timestamps)
    starts = report.plan.epochs[:, 0]
    assert np.count_nonzero(root[starts] == part.roots[k[starts] + 1]) > 10

    def by_roots(partition, series, tau):
        plan = segment_epochs(partition, series, tau)
        found = partition.roots[1:-1].searchsorted(np.sqrt(series), side="right")
        return dataclasses.replace(plan, buckets=found.astype(plan.buckets.dtype))
    monkeypatch.setattr(engine, "segment_epochs", by_roots)
    old = run_backtest(config, prices, timestamps)

    def drift(new, ref):
        return float(np.max(np.abs(new - ref) / np.abs(ref)))
    monthly = [np.array([[r["fee_a"], r["fee_b"], r["fee_converted_b"]] for r in rep.monthly_fees])
               for rep in (report, old)]
    # measured: 0, the two agree to the last bit
    assert drift(report.lp_trajectory, old.lp_trajectory) <= REL
    assert drift(report.ledger.fee_converted, old.ledger.fee_converted) <= REL
    assert drift(*monthly) <= REL


@pytest.mark.parametrize("mode", ["reinvest", "exclude", "fix-at-level"])
def test_long_capital_chain_matches_the_sequential_oracle(mode):
    # thousands of epochs, each budget built from the oracle's own last one:
    # the batched chain drifts from the per-epoch replay by under 1e-12
    part = BucketPartition(1000.0, 4000.0, 300)
    prices = walk(np.random.default_rng(7), part, 40_000, move=0.7, jump_p=0.0,
                  flat_p=0.0, clamp=False)
    config = BacktestConfig(part, 1, StrategyConfig("random", seed=11), 1e6, 0.003,
                            reinvest_mode=mode)
    report = run_backtest(config, prices)
    assert len(report.plan) > 2000
    capital, chain = config.capital, []
    for e, ep in enumerate(report.plan):
        chain.append(capital)
        liq = oracle.deploy_row(part, epoch_weights(config, e, ep.benchmark), capital,
                                prices[ep.start])
        span = prices[ep.start:ep.end + 1]
        plan = EpochPlan((Epoch(0, len(span) - 1, ep.benchmark),), len(span), 0)
        tensor = build_state_tensor(part, plan, [liq], span)
        x, y = tensor.states[0][-1].sum(axis=0)
        fee = compute_fees(tensor, config.fee_rate, span).fee_converted[0]
        capital = next_capital(config, y + span[-1] * x, fee)
    drift = np.abs(report.epoch_capital - chain) / np.array(chain)
    assert drift.max() <= REL


@st.composite
def whole_pools(draw):
    """A whole-pool calibration case: a float partition, a walk with
    multi-bucket jumps, flat runs and exact edge prices, left inside the
    partition or not, strict or clamp, a profile whose tails may underflow
    to zero weight, and a volume cap factor (None, or below or above 1)."""
    # the oracle holds every bucket at every row: many buckets, short walks
    m = draw(LENGTHS)
    part = draw(float_partitions() if m <= 1500 else partitions())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prices = walk(rng, part, m, move=draw(st.sampled_from([1e-3, 0.05, 1.0])),
                  jump_p=draw(st.sampled_from([0.0, 1e-3, 0.05])),
                  flat_p=draw(st.sampled_from([0.0, 0.5, 0.95])),
                  clamp=draw(st.booleans()))
    bound = draw(st.floats(0.5, 6.0))
    profile = ProfileParams(draw(st.floats(-1.5, 1.5)) * bound,
                            10.0 ** draw(st.floats(-4.0, 1.5)), bound)
    config = BacktestConfig(part, 0, StrategyConfig("uniform"), draw(st.floats(1.0, 1e9)),
                            0.003, price_mode=draw(st.sampled_from(["strict", "clamp"])))
    return config, prices, profile, draw(st.sampled_from([None, 0.5, 2.0]))


@settings(max_examples=100)
@given(whole_pools())
def test_dot_product_fee_matches_the_oracle_and_the_replay(case):
    config, prices, profile, cap = case
    part = config.partition
    mu, variance, bound = profile.mu, profile.variance, profile.bound
    replay = dataclasses.replace(config, tau=part.n,
                                 strategy=StrategyConfig("normal", profile=profile))
    outside = (prices < part.lower) | (prices > part.upper)
    if config.price_mode == "strict" and outside.any():
        with pytest.raises(DataError) as expect:
            run_backtest(replay, prices)
        with pytest.raises(DataError) as got:
            whole_pool_fee(config, prices, mu, variance, bound)
        assert str(got.value) == str(expect.value)
        return

    # the oracle: every bucket's reserves at every row of one deployment
    liq = oracle.deploy_row(part, normal_profile_weights(part, profile).weights,
                            config.capital, prices[0])
    plan = EpochPlan((Epoch(0, len(prices) - 1, 1),), len(prices), part.n)
    ledger = compute_fees(build_state_tensor(part, plan, [liq], prices),
                          config.fee_rate, prices)
    volume = ledger.total_volume_b
    scale = 1.0
    if cap is not None and volume > 0.0:
        config = dataclasses.replace(config, volume_cap=cap * volume)
        replay = dataclasses.replace(replay, volume_cap=cap * volume)
        scale = min(1.0, cap)
    fee = whole_pool_fee(config, prices, mu, variance, bound)
    f = config.fee_rate
    # the oracle and the replay round a step inside one bucket to a few
    # ulps of that bucket's depth and of 1/c, the dot product to a few ulps
    # of the step itself: against them the oracle property's bound, with
    # 1/c's rounding for token A, and against the exact volume of a short
    # walk no slack at all
    slack_b = step_slack(part, plan, [liq], prices)[:, 1].sum()
    slack_a = reciprocal_slack(part, liq, prices)
    tol = f * scale * (REL * volume + slack_b + slack_a * prices[-1])
    assert abs(fee - ledger.total_fee_b * scale) <= tol
    if len(prices) <= 64:
        exact = oracle.exact_volume(part, liq, prices)
        if config.volume_cap is not None:
            exact = min(exact, Fraction(config.volume_cap))
        assert abs(fee - f * float(exact)) <= REL * f * volume * scale
    # the replay
    assert abs(fee - run_backtest(replay, prices).ledger.total_fee_b) <= tol
    if config.price_mode == "clamp":
        # prices outside count at the partition's edge; only the anchor and
        # the last price (token A's conversion) are taken as they are
        inner = prices.copy()
        inner[1:-1] = np.clip(prices[1:-1], part.lower, part.upper)
        assert whole_pool_fee(config, inner, mu, variance, bound) == fee


def test_bucket_volume_is_exact_on_narrow_buckets():
    # [2, 2.0078125] in 140 buckets, where the replay's fee is 8e-12 off the
    # exact one: each bucket's v, and the whole-pool fee, stay within one
    # ulp of the rational volume on the same floats (measured: 0.79 and
    # 0.62 ulps), with prices on edges whose roots the lookup must place.
    # Only steps that leave their bucket take the second overlap and the
    # crossed-whole count; a walk whose every step stays in bucket 70 is
    # as close (0.59 and 0.51), and jumps of up to 114 buckets down and 93
    # up, which sum more terms per bucket, within two (1.04 and 0.36)
    part = BucketPartition(2.0, 2.0078125, 140)
    rng = np.random.default_rng(3)
    width = (part.upper - part.lower) / part.n
    walk = 2.00390625 + np.cumsum(rng.normal(0.0, 0.05 * width, 60))
    walk[::7] = part.edges[60 + rng.integers(0, 20, 9)]
    still = part.edges[70] + rng.uniform(0.0, 0.9 * width, 60)
    still[::7] = part.edges[70]
    jumps = part.edges[rng.integers(0, 140, 60)] + rng.uniform(0.0, 0.5 * width, 60)
    config = BacktestConfig(part, 0, StrategyConfig("uniform"), 1e6, 0.003)
    for prices, reach, ulps in ((walk, 5, 1), (still, 0, 1), (jumps, 50, 2)):
        step = np.diff(part.bucket_column(prices).astype(int))
        assert step.min() <= -reach and step.max() >= reach     # buckets down and up
        assert reach or not step.any()
        v = calibration._bucket_volume(config, prices)
        unit = deploy(np.ones((1, part.n)), prices[:1], part.roots[None, :-1],
                      part.roots[None, 1:])[0]
        for i in range(part.n):
            exact = oracle.exact_volume(part, np.where(np.arange(part.n) == i, unit, 0.0),
                                        prices)
            assert abs(Fraction(float(v[i])) - exact) <= ulps * EPS * exact
        assert (np.count_nonzero(v) > 10) == (reach > 0)
        profile = ProfileParams(0.0, 0.01)
        liq = oracle.deploy_row(part, normal_profile_weights(part, profile).weights,
                                config.capital, prices[0])
        exact = Fraction(config.fee_rate) * oracle.exact_volume(part, liq, prices)
        fee = whole_pool_fee(config, prices, profile.mu, profile.variance)
        assert abs(Fraction(fee) - exact) <= ulps * EPS * exact


@settings(max_examples=60)
@given(whole_pools(), st.lists(st.floats(1.0001, 4.0), min_size=1, max_size=8))
def test_fee_curve_points_equal_single_fees(case, steps):
    # one weight table times v gives each point bitwise as one row would
    config, prices, profile, _ = case
    config = dataclasses.replace(config, price_mode="clamp")
    grid = profile.variance * np.cumprod(steps)
    curve = fee_curve(config, prices, profile.mu, profile.bound, grid)
    single = [whole_pool_fee(config, prices, profile.mu, v, profile.bound)
              for v in grid.tolist()]
    assert curve.fees.tobytes() == np.array(single).tobytes()


def rescan(part, prices, tau):
    buckets = [k + 1 for k in part.bucket_column(prices).tolist()]
    s = buckets[0]
    start, out = 0, []
    for i in range(1, len(prices)):
        b = buckets[i]
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


@st.composite
def bucket_paths(draw):
    """Prices that keep to the band of a centre bucket for runs of up to
    1,500 rows, changing bucket at nearly every row when tau >= 2, so that
    epochs span hundreds of change points (the range tables look 127 ahead)
    and then jump.  Large partitions lie on both sides of 32,767 buckets,
    where the bucket type turns from int16 to int32, and a band's upper end
    can pass that limit; tau runs from 0 to n - 2, the widest band that can
    break; runs can be flat, and series can be one row long."""
    n = draw(st.one_of(st.integers(1, 60), st.integers(16_384, 40_000)))
    lower = draw(st.floats(0.37, 4321.0))
    part = BucketPartition(lower, lower * draw(st.floats(1.5, 60.0)), n)
    tau = draw(st.one_of(st.integers(2, 6), st.integers(0, 1), st.just(max(n - 2, 0)),
                         st.integers(0, n)))
    m = draw(st.integers(1, 4000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = tau // 2  # any two buckets within spread of a centre are within tau
    buckets = []
    while sum(map(len, buckets)) < m:
        # some centres sit by bucket 32,767, the int16 limit
        centre = int(rng.integers(1, n + 1)) if rng.random() < 0.7 \
            else min(n, int(rng.integers(32_760, 32_776)))
        length = int(rng.integers(1, 1500))
        run = centre if rng.random() < 0.2 else \
            centre + rng.integers(-spread, spread + 1, length)
        buckets.append(np.clip(np.broadcast_to(run, length), 1, n))
    b = np.concatenate(buckets)[:m] - 1
    # a point inside the bucket, or its lower edge
    e = part.edges
    u = np.where(rng.random(m) < 0.1, 0.0, rng.random(m))
    prices = np.minimum(e[b] + u * (e[b + 1] - e[b]), part.upper)
    return part, prices, tau


@settings(max_examples=150)
@given(bucket_paths())
def test_segmentation_matches_rescan_past_the_horizon(case):
    part, prices, tau = case
    plan = segment_epochs(part, prices, tau)
    assert [(e.start, e.end, e.benchmark) for e in plan] == rescan(part, prices, tau)


def seeds():
    """Seeds of one entropy word (0 included), of several, and of more
    than SeedSequence's 4-word pool holds (2**96 and up), as Python ints
    or as numpy integers where they fit."""
    ints = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**96 - 1),
                     st.integers(2**96, 2**300))
    return st.one_of(ints, st.builds(np.uint32, st.integers(0, 2**32 - 1)),
                     st.builds(np.int64, st.integers(0, 2**63 - 1)),
                     st.builds(np.uint64, st.integers(0, 2**64 - 1)))


@settings(max_examples=200)
@given(seed=seeds(), first=st.integers(0, 2**20), rows=st.integers(0, 30),
       k=st.integers(0, 40))
def test_epoch_draws_match_default_rng(seed, first, rows, k):
    # numpy's compatibility policy (NEP 19) fixes the bit streams but not
    # Generator.random, so this pins the documented stream itself
    epochs = first + np.arange(rows)
    want = np.array([np.random.default_rng([seed, e]).random(k) for e in epochs.tolist()])
    assert epoch_draws(seed, epochs, k).tobytes() == want.reshape(rows, k).tobytes()


@settings(max_examples=200)
@given(n=st.integers(1, 40), tau=st.integers(0, 45), seed=seeds(),
       first=st.integers(0, 2**20), data=st.data())
def test_random_band_rows_match_per_row_generators(n, tau, seed, first, data):
    # benchmarks at and near both partition edges clip their bands
    part = BucketPartition(1.0, 2.0, n)
    edge = st.sampled_from(sorted({b for b in (1, 2, n - 1, n) if 1 <= b <= n}))
    benchmarks = data.draw(st.lists(st.one_of(edge, st.integers(1, n)), max_size=25))
    offsets, w = band_weights(part, benchmarks, tau, seed, first)
    want_offsets, want = oracle.random_band_weights(part, benchmarks, tau, seed, first)
    assert offsets.tolist() == want_offsets.tolist()
    assert w.tobytes() == want.tobytes()


def float_partitions():
    # arbitrary float bounds and up to a few hundred buckets, so edges land
    # on every rounding of lower + k * (upper - lower) / n
    return st.builds(lambda lower, ratio, n: BucketPartition(lower, lower * ratio, n),
                     st.floats(1e-3, 1e6), st.floats(1.001, 100.0), st.integers(1, 400))


@settings(max_examples=300)
@given(part=float_partitions(), seed=st.integers(0, 2**32 - 1))
def test_interior_edges_belong_to_the_higher_bucket(part, seed):
    lo, hi, n = part.lower, part.upper, part.n
    # the edge table is the documented formula, bitwise, with exact bounds
    assert part.edges.tolist() == [lo, *(lo + k * (hi - lo) / n for k in range(1, n)), hi]
    k = np.arange(1, n)
    interior = part.edges[1:-1]
    below = np.nextafter(interior, -np.inf)
    assert part.bucket_column(interior).tolist() == k.tolist()
    assert part.bucket_column(below).tolist() == (k - 1).tolist()
    prices = np.concatenate([interior, below, [lo, hi],
                             np.random.default_rng(seed).uniform(lo, hi, 50)])
    assert part.bucket_column(prices).tolist() \
        == [int(part.bucket_column([p])[0]) for p in prices.tolist()]


@st.composite
def lookup_partitions(draw):
    """Float partitions, partitions only a few ulps wide (down to where the
    lookup's scale overflows), and [2, 2.0078125] in 140 buckets."""
    kind = draw(st.sampled_from(["float", "narrow", "narrow", "found"]))
    if kind == "float":
        return draw(float_partitions())
    if kind == "found":
        return BucketPartition(2.0, 2.0078125, 140)
    lower = draw(st.one_of(st.floats(1e-300, 1e300),
                           st.floats(2.0 ** -1022, 2.0 ** -1018)))
    n = draw(st.integers(1, 8))
    upper = lower + draw(st.integers(1, 6 * n)) * float(np.spacing(lower))
    try:
        return BucketPartition(lower, upper, n)
    except ValueError:  # edges or roots collide
        reject()


@settings(max_examples=300)
@given(part=lookup_partitions(), seed=st.integers(0, 2**32 - 1))
def test_bucket_column_is_the_right_sided_search(part, seed):
    # every edge, the floats either side of it, both bounds and random
    # prices land where the binary search over the interior edges puts them
    e = part.edges
    prices = np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
                             np.random.default_rng(seed).uniform(part.lower, part.upper, 50)])
    prices = np.clip(prices, part.lower, part.upper)
    want = e[1:-1].searchsorted(prices, side="right")
    column = part.bucket_column(prices)
    assert column.dtype == (np.int16 if part.n <= 32_767 else np.int32)
    assert column.tolist() == want.tolist()
    assert [int(part.bucket_column([p])[0]) for p in prices.tolist()] == want.tolist()


@st.composite
def epoch_allocations(draw):
    """Band weights with zero gaps and 1e-59 tails, and an anchor on an
    edge, inside a bucket, an ulp off an edge, or beyond the partition."""
    part = draw(float_partitions())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = draw(st.integers(0, part.n - 1))
    last = draw(st.integers(first, part.n - 1))
    kinds = draw(st.lists(st.sampled_from(["zero", "tail", "body"]),
                          max_size=last - first + 1))
    w = np.zeros(part.n)
    w[first:last + 1] = liquidity_weights(rng, last - first + 1, kinds)
    j = draw(st.integers(0, part.n))
    where = draw(st.sampled_from(["edge", "inside", "ulp", "outside"]))
    e = part.edges
    if where == "edge":
        anchor = float(e[j])
    elif where == "inside":
        j = min(j, part.n - 1)
        anchor = float(e[j] + draw(st.floats(0.0, 1.0)) * (e[j + 1] - e[j]))
    elif where == "ulp":
        anchor = float(np.nextafter(e[j], draw(st.sampled_from([-np.inf, np.inf]))))
    else:
        anchor = draw(st.sampled_from([part.lower, part.upper])) \
            * draw(st.floats(0.1, 10.0))
    capital = draw(st.floats(1e-3, 1e12))
    return part, custom_weights(part, w), capital, anchor


@settings(max_examples=300)
@given(epoch_allocations())
def test_allocation_matches_per_bucket_split(case):
    part, weights, capital, anchor = case
    liq = oracle.deploy_row(part, weights.weights, capital, anchor)
    loop = np.zeros(part.n)
    for i in weights.active_buckets():
        share = weights.weights[i - 1] * capital
        loop[i - 1] = oracle.split_capital(share, anchor,
                                           oracle.bucket_range(part, int(i))).liquidity
    assert liq.tobytes() == loop.tobytes()

    # valued at the anchor, the positions hold the deployed capital; a
    # bucket's token-A depth 1/sa - 1/sb cancels to within eps * sb/(sb - sa)
    # of itself, so narrow buckets widen the bound past 1e-12
    active = weights.active_buckets()
    value = math.fsum(oracle.position_value(float(liq[i - 1]),
                                            oracle.bucket_range(part, int(i)), anchor, anchor)
                      for i in active)
    sa, sb = part.roots[:-1][active - 1], part.roots[1:][active - 1]
    cancel = float((sb / (sb - sa)).max())
    assert abs(value - capital) <= (REL + 4 * np.finfo(float).eps * cancel) * capital


@st.composite
def schedules(draw):
    """A plan with random liquidity per epoch: bands with zero gaps, 1e-59
    tails, empty epochs, and buckets kept equal, within or just past the
    1e-12 tolerance across a transition; and a window width with one
    window offset per epoch."""
    n = draw(st.integers(1, 60))
    epochs = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    liquidity = []
    for e in range(epochs):
        liq = np.zeros(n)
        kind = rng.choice(["band", "empty", "keep"]) if e else "band"
        if kind != "empty":
            lo = int(rng.integers(0, n))
            hi = int(rng.integers(lo + 1, n + 1))
            liq[lo:hi] = rng.uniform(0.1, 1e3, hi - lo)
            liq[lo:hi][rng.random(hi - lo) < 0.3] = 0.0
            liq[lo:hi][rng.random(hi - lo) < 0.1] *= 1e-59
        if kind == "keep":
            prev = liquidity[-1]
            keep = (prev > 0.0) & (rng.random(n) < 0.7)
            nudge = rng.choice([0.0, 5e-13, 2e-12, -5e-13], n)
            liq[keep] = prev[keep] * (1.0 + nudge[keep])
        liquidity.append(liq)
    m = epochs + 1 + int(rng.integers(0, 200))
    bounds = np.sort(rng.choice(np.arange(1, m - 1), epochs - 1, replace=False)) \
        if epochs > 1 else np.array([], dtype=np.int64)
    starts = [0, *bounds.tolist()]
    ends = [*bounds.tolist(), m - 1]
    # benchmarks alternate 1, 2, 1, ... so tau = 0 separates every pair
    plan = EpochPlan(tuple(Epoch(s, t, 1 + e % 2)
                           for e, (s, t) in enumerate(zip(starts, ends))), m, 0)
    prices = rng.uniform(500.0, 5000.0, m)
    # windows of one width, each holding its epoch's positive buckets and
    # placed anywhere that allows, as run_backtest's move from epoch to epoch
    spans = [np.flatnonzero(liq > 0.0) for liq in liquidity]
    width = draw(st.integers(max([s[-1] - s[0] + 1 for s in spans if len(s)] or [1]), n))
    offsets = [int(rng.integers(max(0, s[-1] + 1 - width), min(s[0], n - width) + 1))
               if len(s) else int(rng.integers(0, n - width + 1)) for s in spans]
    return plan, liquidity, prices, width, offsets


@settings(max_examples=100)
@given(schedules(), st.booleans())
def test_gas_cost_matches_whole_vector_count(schedule, token_a_is_gas):
    plan, liquidity, prices, width, offsets = schedule
    params = GasParams(gas_token_price=None if token_a_is_gas else 1234.5)
    # counts identical and totals bitwise equal: same sums in the same order
    expect = oracle.gas_cost(plan, liquidity, params, prices)
    assert oracle.engine_gas_cost(plan, liquidity, params, prices) == expect
    assert oracle.engine_gas_cost(plan, liquidity, params, prices, width, offsets) == expect


TS_CELLS = ["+5", "5.0", "1_000", "-1", '"12"', "1e3", "#x", "", " ",
            "99999999999999999999", "-9223372036854775808", "9223372036854775807"]
PRICE_CELLS = ["+5", "5.0", "1_000", "nan", "inf", "-inf", "1e400", "-1", "0",
               '"2000.5"', "#x", "", " ", "5e-324", "1e-05", "1e+16", " 7 "]
BLANK_ROWS = ["", "  ", "\t", ",", " , "]


@st.composite
def price_files(draw):
    """(CSV text, clean) in every accepted layout, mostly numbers, with a
    drawn share of quirk cells, blank rows and ragged rows.  ``clean`` marks
    the files with no quirk at all and a "\n" or "\r\n" line end, whose every
    row the bulk parser reads."""
    ts_name = draw(st.sampled_from(["ts", "timestamp", "time", "TS", " Time "]))
    layout = draw(st.sampled_from(["ts,price", "price,ts", "price", "1col", "2col"]))
    has_ts = layout in ("ts,price", "price,ts", "2col")
    price_first = layout == "price,ts"
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    quirk = draw(st.sampled_from([0.0, 0.0, 0.005, 0.02, 0.1, 0.3]))
    lines = []
    if layout in ("ts,price", "price,ts", "price"):
        lines.append(",".join([ts_name, "Price"][::-1 if price_first else 1])
                     if has_ts else " price ")
    # without quirks: unsigned timestamps, and prices repr writes positionally
    t = int(rng.integers(0 if quirk == 0.0 else -10**6, 10**6))
    sigma = 2.0 if quirk == 0.0 else 3.0
    rows = int(rng.integers(0, 60))
    for _ in range(rows):
        t += int(rng.integers(-1, 4)) if rng.random() < quirk else int(rng.integers(1, 90))
        price = repr(float(rng.lognormal(7.0, sigma)))
        if rng.random() < quirk:
            price = PRICE_CELLS[rng.integers(len(PRICE_CELLS))]
        cells = [price]
        if has_ts:
            ts = str(t) if rng.random() >= quirk else TS_CELLS[rng.integers(len(TS_CELLS))]
            cells = [price, ts] if price_first else [ts, price]
        if rng.random() < quirk:
            cells = cells + [cells[-1]] if rng.random() < 0.5 else cells[:-1]
        lines.append(",".join(cells))
        if rng.random() < quirk:
            lines.append(BLANK_ROWS[rng.integers(len(BLANK_ROWS))])
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return text, quirk == 0.0 and end != "\r" and rows > 0


def load_by_rows(path):
    """The row-by-row parser alone, as ``load_prices`` falls back to it."""
    with open(path, newline="") as fh:
        layout = prices_module._read_layout(fh, path)
        return PriceSeries(*prices_module._parse_rows(fh, layout))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "prices.csv"


@settings(max_examples=400)
@given(price_files())
def test_bulk_ingest_agrees_with_row_parser(csv_path, file):
    text, clean = file
    csv_path.write_bytes(text.encode())
    if clean:   # every row is the bulk parser's
        with open(csv_path, newline="") as fh:
            layout = prices_module._read_layout(fh, csv_path)
            assert prices_module._parse_bulk(fh, layout) is not None
    try:
        expect = load_by_rows(csv_path)
    except DataError as err:
        with pytest.raises(DataError) as got:
            load_prices(csv_path)
        assert str(got.value) == str(err)
        return
    got = load_prices(csv_path)
    assert got.prices.tobytes() == expect.prices.tobytes()
    if expect.timestamps is None:
        assert got.timestamps is None
    else:
        assert got.timestamps.dtype == np.int64
        assert got.timestamps.tobytes() == expect.timestamps.tobytes()


@st.composite
def extreme_runs(draw):
    """Config and price file texts for ``backtest`` over float64's whole
    range: partitions and prices from 1e-300 to 1e300, capitals from 1e300
    down to subnormals and 0."""
    decades = st.floats(-300.0, 300.0)
    a, b = sorted(draw(st.tuples(decades, decades)))
    lower, upper = 10.0 ** a, 10.0 ** b
    strategy = draw(st.sampled_from(["uniform", "random\nseed = 3",
                                     "normal\nmu = 0.5\nvariance = 0.3"]))
    config = (f"lower = {lower!r}\nupper = {upper!r}\n"
              f"buckets = {draw(st.integers(1, 40))}\ntau = {draw(st.integers(0, 100))}\n"
              f"strategy = {strategy}\n"
              f"capital = {10.0 ** draw(st.floats(-324.0, 300.0))!r}\n"
              f"fee_rate = 0.003\n"
              f"reinvest = {draw(st.sampled_from(REINVEST_MODES))}\n"
              f"price_mode = {draw(st.sampled_from(['strict', 'clamp']))}\n")
    # prices spread over the partition in log space, its bounds, or anywhere
    inside = st.floats(0.0, 1.0).map(lambda f: min(max(10.0 ** (a + f * (b - a)), lower),
                                                   upper))
    prices = draw(st.lists(st.one_of(inside, st.sampled_from([lower, upper]),
                                     decades.map(lambda d: 10.0 ** d)),
                           min_size=2, max_size=8))
    if draw(st.booleans()):   # monthly rows
        ts = np.cumsum(draw(st.lists(st.integers(1, 10**8), min_size=len(prices),
                                     max_size=len(prices))))
        rows = "ts,price\n" + "".join(f"{t},{p!r}\n" for t, p in zip(ts.tolist(), prices))
    else:
        rows = "price\n" + "".join(f"{p!r}\n" for p in prices)
    return config, rows


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("extreme")


@st.composite
def extreme_calibrations(draw):
    """An extreme run's config and price texts, and ``calibrate`` flags: mu
    in [-3, 3], one of a few grids and a target fee.  In most draws whose
    fee curve can be made the target lies between its least and largest
    fee, so that the command succeeds; otherwise it is from 1e-320 to
    1e300.  Values follow their flags as separate arguments."""
    config, rows = draw(extreme_runs())
    grid = draw(st.sampled_from(["0.05:2.0:40", "0.05:2.0:6", "0.5:0.6:2", "1e-6:1e6:9"]))
    mu = draw(st.floats(-3.0, 3.0))
    target = 10.0 ** draw(st.floats(-320.0, 300.0))
    if draw(st.integers(0, 3)) < 3:
        prices = [float(row.rsplit(",", 1)[-1]) for row in rows.splitlines()[1:]]
        lo, hi, steps = grid.split(":")
        try:
            fees = fee_curve(parse_config(config), PriceSeries(prices), mu, ProfileParams.bound,
                             np.linspace(float(lo), float(hi), int(steps))).fees
        except (ConfigError, DataError):
            pass
        else:
            target = float(fees.min() + draw(st.floats(0.0, 1.0, exclude_min=True))
                           * (fees.max() - fees.min()))
    return config, rows, ["--mu", repr(mu), "--target-fee", repr(target), f"--grid={grid}"]


def assert_finite_or_one_error_line(cli_dir, command, config, rows, flags=()):
    """Every run exits 0 with finite artifacts, or 2, 3 or 4 with one line
    on stderr; none exits 1, raises or warns."""
    cfg, prices, out = cli_dir / "run.cfg", cli_dir / "p.csv", cli_dir / "out"
    cfg.write_text(config)
    prices.write_text(rows)
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli.main([command, "--config", str(cfg), "--prices", str(prices),
                         "--out-dir", str(out), *flags])
    assert caught == []
    if code == 0:
        assert stderr.getvalue() == ""
        for path in out.iterdir():
            assert NON_FINITE.search(path.read_text()) is None, path.name
    else:
        assert code in (2, 3, 4)
        assert stderr.getvalue().startswith("error: ")
        assert stderr.getvalue().count("\n") == 1


@settings(max_examples=150)
@given(run=extreme_runs())
def test_backtest_output_is_finite_or_one_error_line(cli_dir, run):
    assert_finite_or_one_error_line(cli_dir, "backtest", *run)


@settings(max_examples=400)
@given(run=extreme_calibrations())
def test_calibrate_output_is_finite_or_one_error_line(cli_dir, run):
    assert_finite_or_one_error_line(cli_dir, "calibrate", *run)
