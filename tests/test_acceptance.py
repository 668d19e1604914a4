"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Each test re-derives its expected values from an independent oracle
(hand algebra, brute-force re-scan, closed forms, constant-product
arithmetic) instead of importing helpers from the other test modules,
and enforces its own runtime budget.  Run with ``pytest -v`` to get one
pass/fail line per criterion; ``-s`` additionally shows the measured
numbers.
"""

import json
import math
import time

import numpy as np
import pytest

from clmm_backtest.allocation import deploy
from clmm_backtest.bucketing import BucketPartition, segment_epochs
from clmm_backtest.calibration import calibrate_variance, whole_pool_fee
from clmm_backtest.cli import main
from clmm_backtest.engine import (BacktestConfig, ReservePair, StrategyConfig,
                                  buy_and_hold, run_backtest)
from oracle import PriceRange, build_state_tensor, compute_fees, liquidity_state


def report(criterion, detail):
    print(f"criterion {criterion}: PASS - {detail}", flush=True)


def test_criterion_01_core_math_oracles():
    t0 = time.perf_counter()

    def deployed(share, anchor, lower, upper):
        """Liquidity ``deploy`` backs a token-B share with on one range."""
        roots = BucketPartition(lower, upper, 1).roots
        return float(deploy(np.array([[share]]), np.array([anchor]),
                            roots[None, :1], roots[None, 1:])[0, 0])

    def run(capital, p0):
        """One-bucket [1, 4] backtest anchored at p0."""
        cfg = BacktestConfig(BucketPartition(1.0, 4.0, 1), 0,
                             StrategyConfig("uniform"), capital, 0.003)
        return run_backtest(cfg, np.array([p0, p0]))

    # token A alone (anchor at p_a: a share buys share / p_a of it), then
    # token B alone (anchor at p_b)
    assert deployed(1.0, 1.0, 1, 4) == pytest.approx(2.0, rel=1e-9)
    assert deployed(2.0, 1.0, 1, 4) == pytest.approx(4.0, rel=1e-9)
    assert deployed(3.0, 4.0, 1, 4) == pytest.approx(3.0, rel=1e-9)
    assert deployed(5.0, 9.0, 4, 9) == pytest.approx(5.0, rel=1e-9)

    split = run(1.0, 2.25).initial_split
    assert split.x == pytest.approx(2 / 10.5, rel=1e-9)
    assert split.y == pytest.approx(6 / 10.5, rel=1e-9)
    assert deployed(1.0, 2.25, 1, 4) == pytest.approx(12 / 10.5, rel=1e-9)

    # liquidity 2 in each regime holds the reserves its capital splits into
    for capital, p0, state in ((1.0, 1.0, (1.0, 0.0)),
                               # 2*(1/1.5 - 1/2) = 1/3
                               (1.75, 2.25, (1 / 3, 1.0)),
                               (2.0, 4.0, (0.0, 2.0))):
        assert deployed(capital, p0, 1, 4) == pytest.approx(2.0, rel=1e-9)
        assert run(capital, p0).initial_split == pytest.approx(state, rel=1e-9, abs=1e-9)
    assert run(1.75, 2.25).lp_trajectory[-1] == pytest.approx(1 + (1 / 3) * 2.25, rel=1e-9)

    rng = np.random.default_rng(101)
    draws = []
    for _ in range(10_000):
        p_a = 10.0 ** rng.uniform(-4, 4)
        p_b = p_a * (1.0 + 10.0 ** rng.uniform(-3, 3))
        w = 10.0 ** rng.uniform(-2, 7)
        p = p_a * 10.0 ** (rng.uniform(-0.3, 0.3) * math.log10(p_b / p_a))
        draws.append((p_a, p_b, w, p))
    p_a, p_b, w, p = np.array(draws).T
    sa, sb = np.sqrt(p_a)[:, None], np.sqrt(p_b)[:, None]
    l = deploy(w[:, None], p, sa, sb)[:, 0]
    # the reserves at the anchor from the clipped root, then the curve
    # identity, evaluated with independent arithmetic
    c = np.clip(np.sqrt(p), sa[:, 0], sb[:, 0])
    x, y = l * (1.0 / c - 1.0 / sb[:, 0]), l * (c - sa[:, 0])
    live = l > 0.0
    res = (x + l / np.sqrt(p_b)) * (y + l * np.sqrt(p_a)) - l * l
    worst = float((np.abs(res[live]) / (l[live] * l[live])).max())
    assert worst < 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, f"hand examples at 1e-9; worst curve residual {worst:.2e} "
              f"over 10000 draws; {elapsed:.2f}s")


def test_criterion_02_branch_seam_continuity():
    t0 = time.perf_counter()
    rng_range = PriceRange(1.0, 4.0)
    l = 2.0
    worst_final = 0.0
    for seam in (rng_range.p_a, rng_range.p_b):
        prev_gap = None
        for k in range(3, 10):
            eps = seam * 10.0 ** (-k)
            lo = liquidity_state(l, rng_range, seam - eps)
            hi = liquidity_state(l, rng_range, seam + eps)
            gap = max(abs(lo.x - hi.x), abs(lo.y - hi.y))
            if prev_gap is not None:
                # first-order seam: shrinking epsilon tenfold must at
                # least halve the gap
                assert gap <= prev_gap * 0.5 + 1e-12 * l
            prev_gap = gap
        worst_final = max(worst_final, prev_gap)
    assert worst_final < 1e-6 * l

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"seam gaps vanish; final gap {worst_final:.2e} < 1e-6*L; "
              f"{elapsed:.2f}s")


def test_criterion_03_segmentation_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(1000):
        lower = 10.0 ** rng.uniform(-2, 3)
        upper = lower * (1.0 + 10.0 ** rng.uniform(-1, 2))
        part = BucketPartition(lower, upper, int(rng.integers(1, 51)))
        prices = rng.uniform(lower, upper, int(rng.integers(2, 1001)))
        tau = int(rng.integers(0, 6))

        plan = segment_epochs(part, prices, tau)

        # independent straightforward re-scan of each row's 1-based bucket
        buckets = [k + 1 for k in part.bucket_column(prices).tolist()]
        s = buckets[0]
        start, expect = 0, []
        for i in range(1, len(prices)):
            b = buckets[i]
            if abs(b - s) > tau:
                expect.append((start, i, s))
                start, s = i, b
        expect.append((start, len(prices) - 1, s))

        assert [(e.start, e.end, e.benchmark) for e in plan] == expect

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"1000 random series match the re-scan exactly; {elapsed:.2f}s")


def test_criterion_04_fee_closed_forms():
    t0 = time.perf_counter()
    part = BucketPartition(1.0, 4.0, 1)
    l, rate = 5.5, 0.003
    def ledger_for(prices):
        plan = segment_epochs(part, prices, tau=1)
        tensor = build_state_tensor(part, plan, [np.array([l])], prices)
        return compute_fees(tensor, rate, prices)

    rising_closed = rate * l * (math.sqrt(3.9) - math.sqrt(1.1))
    coarse = ledger_for(np.linspace(1.1, 3.9, 51))
    fine = ledger_for(np.linspace(1.1, 3.9, 501))
    assert coarse.fee_b[0] == pytest.approx(rising_closed, rel=1e-9)
    assert fine.fee_b[0] == pytest.approx(rising_closed, rel=1e-9)
    assert abs(fine.fee_b[0] - coarse.fee_b[0]) / coarse.fee_b[0] < 1e-9
    assert coarse.inflow_a[0] == 0.0

    falling_closed = rate * l * (1 / math.sqrt(1.1) - 1 / math.sqrt(3.9))
    coarse = ledger_for(np.linspace(3.9, 1.1, 51))
    fine = ledger_for(np.linspace(3.9, 1.1, 501))
    assert coarse.fee_a[0] == pytest.approx(falling_closed, rel=1e-9)
    assert fine.fee_a[0] == pytest.approx(falling_closed, rel=1e-9)
    assert abs(fine.fee_a[0] - coarse.fee_a[0]) / coarse.fee_a[0] < 1e-9
    assert coarse.inflow_b[0] == 0.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(4, f"monotone legs match closed forms to 1e-9 and are "
              f"refinement-invariant; {elapsed:.2f}s")


def test_criterion_05_gas_arithmetic():
    t0 = time.perf_counter()
    part = BucketPartition(1000.0, 3000.0, 7)
    prices = np.full(3, 2300.0)
    # one epoch whose band covers all 7 buckets: 7 mints, then 7 burns
    config = BacktestConfig(part, 6, StrategyConfig("uniform"), 1e6, 0.003)
    gas = run_backtest(config, prices).gas
    assert gas.mint_events == gas.burn_events == 7

    oracle = 7 * 430_000 * 100e-9 * 2300.0 + 7 * 215_000 * 100e-9 * 2300.0
    assert oracle == pytest.approx(1038.45, rel=1e-12)
    assert gas.total_b == pytest.approx(oracle, rel=1e-12)
    assert abs(gas.total_b - 1040.0) / 1040.0 < 0.01

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(5, f"7-range deploy+burn costs {gas.total_b:.2f}, within 1% of "
              f"1040; {elapsed:.2f}s")


def test_criterion_06_impermanent_loss_reference():
    t0 = time.perf_counter()

    bh = buy_and_hold(np.array([2000.0, 2500.0]), ReservePair(2.0, 4000.0))
    assert bh[1] == 9000.0

    # constant-product oracle: k = 2*4000, pool value at p is 2*sqrt(k*p)
    pool_oracle = 2.0 * math.sqrt(2.0 * 4000.0 * 2500.0)
    il_oracle = 9000.0 - pool_oracle
    assert pool_oracle == pytest.approx(8944.27, abs=0.005)
    assert il_oracle == pytest.approx(55.73, abs=0.005)

    part = BucketPartition(1e-14, 1e15, 1)
    cfg = BacktestConfig(part, 0, StrategyConfig("uniform"), 8000.0, 0.003)
    rep = run_backtest(cfg, np.array([2000.0, 2500.0]))
    pool_value = rep.lp_trajectory[-1]
    assert pool_value == pytest.approx(pool_oracle, rel=1e-6)
    il = bh[1] - pool_value
    assert il == pytest.approx(il_oracle, abs=1e-6 * pool_oracle)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(6, f"B&H 9000 exact; pool value {pool_value:.6f} vs oracle "
              f"{pool_oracle:.6f}; IL {il:.4f}; {elapsed:.2f}s")


def test_criterion_07_directional_reproductions():
    t0 = time.perf_counter()

    # (a) mean-reverting path: a narrow range out-earns the whole-range book
    rng = np.random.default_rng(11)
    t = np.arange(10_000)
    mean_rev = 2000.0 + 120.0 * np.sin(2 * np.pi * t / 500) \
        + rng.normal(0.0, 15.0, t.size)
    mean_rev = np.clip(mean_rev, 1750.0, 2250.0)

    narrow = BacktestConfig(BucketPartition(1700.0, 2300.0, 1), 0,
                            StrategyConfig("uniform"), 1e6, 0.003)
    whole = BacktestConfig(BucketPartition(1e-14, 1e15, 1), 0,
                           StrategyConfig("uniform"), 1e6, 0.003)
    narrow_fees = run_backtest(narrow, mean_rev).ledger.total_fee_b
    whole_fees = run_backtest(whole, mean_rev).ledger.total_fee_b
    assert narrow_fees > whole_fees

    # (b) trending path with retracements: excluded-fee capital declines
    rng = np.random.default_rng(12)
    t = np.arange(12_000)
    trend = np.linspace(2000.0, 3000.0, t.size) \
        + 40.0 * np.sin(2 * np.pi * t / 300) + rng.normal(0.0, 6.0, t.size)
    trend = np.clip(trend, 1905.0, 3095.0)

    cfg = BacktestConfig(BucketPartition(1900.0, 3100.0, 600), 5,
                         StrategyConfig("uniform"), 1e6, 0.003,
                         reinvest_mode="exclude")
    rep = run_backtest(cfg, trend)
    assert len(rep.plan) > 100
    assert rep.lp_trajectory[-1] < rep.lp_trajectory[0]

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(7, f"narrow fees {narrow_fees:.0f} > whole-range {whole_fees:.0f}; "
              f"trend run ends at {rep.lp_trajectory[-1]:.0f} from 1000000 "
              f"over {len(rep.plan)} epochs; {elapsed:.2f}s")


def test_criterion_08_calibration_self_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    t = np.arange(1500)
    prices = np.clip(2333.0 + 120.0 * np.sin(2 * np.pi * t / 400)
                     + rng.normal(0.0, 10.0, t.size), 1000.0, 3000.0)
    cfg = BacktestConfig(BucketPartition(1000.0, 3000.0, 40), 1,
                         StrategyConfig("uniform"), 1e6, 0.003)

    cases = [(0.9, 0.4)]
    cases += [(float(rng.uniform(-2.5, 2.5)), float(rng.uniform(0.05, 2.0)))
              for _ in range(20)]

    worst = 0.0
    for mu_true, var_true in cases:
        target = whole_pool_fee(cfg, prices, mu_true, var_true, bound=3.0)
        grid = np.unique(np.append(np.linspace(0.05, 2.0, 25), var_true))
        res = calibrate_variance(cfg, prices, mu_true, 3.0, target, grid)
        assert res.converged, (mu_true, var_true)
        assert res.relative_error < 1e-3
        worst = max(worst, res.relative_error)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(8, f"named case plus 20 draws recover the fee; worst relative "
              f"error {worst:.2e}; {elapsed:.2f}s")


def test_criterion_09_bitwise_determinism(tmp_path):
    config_text = (
        "lower = 1000\nupper = 4000\nbuckets = 30\ntau = 2\n"
        "strategy = uniform\ncapital = 1e6\nfee_rate = 0.003\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    rng = np.random.default_rng(109)
    walk = np.clip(2000.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 500))),
                   1100.0, 3900.0)
    prices = tmp_path / "p.csv"
    prices.write_text("price\n" + "\n".join(repr(float(v)) for v in walk) + "\n")

    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["backtest", "--config", str(cfg), "--prices", str(prices),
                     "--out-dir", str(out)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    ca, cb = tmp_path / "ca", tmp_path / "cb"
    for out in (ca, cb):
        main(["calibrate", "--config", str(cfg), "--prices", str(prices),
              "--target-fee", "1e18", "--mu", "0.0", "--grid", "0.1:1.0:6",
              "--out-dir", str(out)])
    assert (ca / "fee_curve.csv").read_bytes() == (cb / "fee_curve.csv").read_bytes()

    report(9, "report.json and fee_curve.csv are bitwise reproducible")


def test_criterion_10_performance_sanity():
    repeats = 5
    rng = np.random.default_rng(110)
    n_big = 525_600
    walk = np.clip(2000.0 * np.exp(np.cumsum(rng.normal(0.0, 0.002, n_big))),
                   1050.0, 3950.0)
    part = BucketPartition(1000.0, 4000.0, 100)

    def run(prices, reps=1):
        # single deployment over all buckets: pure fee-computation load
        cfg = BacktestConfig(part, part.n, StrategyConfig("uniform"), 1e6, 0.003)
        t0 = time.perf_counter()
        for _ in range(reps):
            rep = run_backtest(cfg, prices)
        return time.perf_counter() - t0, rep

    t_first, rep = run(walk)
    assert t_first < 60.0
    assert rep.ledger.total_fee_b > 0.0

    # each timed region repeats its run so that it lasts tens of
    # milliseconds (a one-off quarter-size run takes a few, the size of this
    # host's jitter), and each ratio compares a small and a big region timed
    # back to back, so a slow spell of the host slows both sides of it; the
    # median of the pairs' ratios ignores one pair split by such a spell
    small = walk[: n_big // 4]
    t_big, ratios = [], []
    for _ in range(5):
        t_small = run(small, repeats)[0]
        t_big.append(run(walk, repeats)[0])
        ratios.append(t_big[-1] / t_small)
    ratio = float(np.median(ratios))
    assert ratio < 4.8, f"4x size took {ratio:.2f}x the time"
    assert ratio > 1.0

    report(10, f"525600x100 run in {min(t_big) / repeats:.3f}s; 4x size sweep ratio "
               f"{ratio:.2f} (linear within 20% allows up to 4.8)")
