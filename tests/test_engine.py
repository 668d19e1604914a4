"""State tensor, fee accrual, gas model, and the full replay loop."""

import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from clmm_backtest import engine
from clmm_backtest import prices as prices_module
from clmm_backtest.allocation import ProfileParams, custom_weights
from clmm_backtest.bucketing import BucketPartition, segment_epochs
from clmm_backtest.calibration import fee_curve, whole_pool_fee
from clmm_backtest.engine import (BacktestConfig, GasParams, ReservePair, StrategyConfig,
                                  buy_and_hold, run_backtest)
from clmm_backtest.errors import ConfigError, DataError
from clmm_backtest.prices import PriceSeries
from oracle import (band_row, bucket_range, build_state_tensor, compute_fees, deploy_row,
                    engine_gas_cost, liquidity_state, split_capital)

B14 = BucketPartition(1.0, 4.0, 1)


def single_bucket_l2_tensor(prices):
    prices = np.asarray(prices, dtype=np.float64)
    plan = segment_epochs(B14, np.clip(prices, 1.0, 4.0), tau=1)
    return build_state_tensor(B14, plan, [np.array([2.0])], prices)


def uniform_config(part, tau, capital=1e6, fee_rate=0.003, **kw):
    return BacktestConfig(part, tau, StrategyConfig("uniform"), capital,
                          fee_rate, **kw)


def walk_prices(seed, n, start=2000.0, vol=0.01, lo=1100.0, hi=3900.0):
    rng = np.random.default_rng(seed)
    p = start * np.exp(np.cumsum(rng.normal(0.0, vol, n)))
    return np.clip(p, lo, hi)


class TestStateTensor:

    def test_single_bucket_reference_states(self):
        tensor = single_bucket_l2_tensor([0.25, 2.25, 9.0])
        assert tensor.state_at(0, 0, 1) == pytest.approx((1.0, 0.0), abs=1e-12)
        # 2*(1/1.5 - 1/2) = 1/3
        assert tensor.state_at(0, 1, 1) == pytest.approx((1 / 3, 1.0), rel=1e-12)
        assert tensor.state_at(0, 2, 1) == pytest.approx((0.0, 2.0), abs=1e-12)

    def test_cells_match_scalar_state(self):
        part = BucketPartition(1.0, 11.0, 10)
        rng = np.random.default_rng(31)
        prices = rng.uniform(1.0, 11.0, 60)
        plan = segment_epochs(part, prices, tau=3)
        liqs = [deploy_row(part, band_row(part, ep.benchmark, 3), 1e5, prices[ep.start])
                for ep in plan]
        tensor = build_state_tensor(part, plan, liqs, prices)
        for e, ep in enumerate(plan):
            for t in range(0, ep.end - ep.start + 1, 7):
                for i in range(1, 11):
                    expect = liquidity_state(liqs[e][i - 1], bucket_range(part, i),
                                             float(prices[ep.start + t]))
                    got = tensor.state_at(e, t, i)
                    assert got.x == pytest.approx(expect.x, rel=1e-12, abs=1e-15)
                    assert got.y == pytest.approx(expect.y, rel=1e-12, abs=1e-15)

    def test_zero_liquidity_bucket_is_zero_column(self):
        part = BucketPartition(1.0, 11.0, 10)
        prices = np.array([2.0, 5.0, 9.0])
        plan = segment_epochs(part, prices, tau=9)
        liq = np.zeros(10)
        liq[4] = 3.0
        tensor = build_state_tensor(part, plan, [liq], prices)
        st = tensor.epoch_states(0)
        assert np.all(st[:, [0, 1, 2, 3, 5, 6, 7, 8, 9], :] == 0.0)
        assert np.all(st[:, 4, :] >= 0.0)

    def test_constant_price_gives_identical_rows(self):
        tensor = single_bucket_l2_tensor([2.5, 2.5, 2.5, 2.5])
        st = tensor.epoch_states(0)
        assert np.all(st == st[0])

    def test_rejects_mismatched_allocations(self):
        prices = np.array([2.0, 2.5])
        plan = segment_epochs(B14, prices, tau=1)
        with pytest.raises(ValueError):
            build_state_tensor(B14, plan, [], prices)


class TestComputeFees:

    def test_one_leg_rise_charges_token_b(self):
        tensor = single_bucket_l2_tensor([1.0, 4.0])
        ledger = compute_fees(tensor, 0.003, np.array([1.0, 4.0]))
        assert ledger.inflow_b[0] == pytest.approx(2.0, rel=1e-12)
        assert ledger.inflow_a[0] == 0.0
        assert ledger.total_fee_b == pytest.approx(0.006, rel=1e-12)

    def test_round_trip_adds_token_a_leg(self):
        prices = np.array([1.0, 4.0, 1.0])
        tensor = single_bucket_l2_tensor(prices)
        ledger = compute_fees(tensor, 0.003, prices)
        assert ledger.inflow_a[0] == pytest.approx(1.0, rel=1e-12)
        assert ledger.fee_a[0] == pytest.approx(0.003, rel=1e-12)
        # token-A fee converts at the epoch-final price of 1
        assert ledger.total_fee_b == pytest.approx(0.009, rel=1e-12)

    def test_constant_price_charges_nothing(self):
        prices = np.full(5, 2.2)
        ledger = compute_fees(single_bucket_l2_tensor(prices), 0.003, prices)
        assert ledger.total_fee_b == 0.0
        assert ledger.total_volume_b == 0.0

    def test_falling_path_charges_token_a_only(self):
        prices = np.array([4.0, 2.25, 1.0])
        ledger = compute_fees(single_bucket_l2_tensor(prices), 0.003, prices)
        assert ledger.inflow_b[0] == 0.0
        assert ledger.inflow_a[0] == pytest.approx(1.0, rel=1e-12)

    def test_conversion_uses_final_price(self):
        prices = np.array([1.0, 4.0, 2.25])
        ledger = compute_fees(single_bucket_l2_tensor(prices), 0.003, prices)
        expect = 0.003 * 2.0 + 0.003 * (1 / 3) * 2.25
        assert ledger.total_fee_b == pytest.approx(expect, rel=1e-12)

    def test_monotone_rise_has_closed_form_and_path_invariance(self):
        l, rate = 7.3, 0.005
        coarse = np.array([1.2, 3.7])
        fine = np.linspace(1.2, 3.7, 501)
        for prices in (coarse, fine):
            plan = segment_epochs(B14, np.clip(prices, 1, 4), tau=1)
            tensor = build_state_tensor(B14, plan, [np.array([l])], prices)
            ledger = compute_fees(tensor, rate, prices)
            closed = rate * l * (math.sqrt(3.7) - math.sqrt(1.2))
            assert ledger.fee_b[0] == pytest.approx(closed, rel=1e-9)
            assert ledger.inflow_a[0] == 0.0

    def test_monotone_fall_has_closed_form_and_path_invariance(self):
        l, rate = 7.3, 0.005
        for prices in (np.array([3.7, 1.2]), np.linspace(3.7, 1.2, 501)):
            plan = segment_epochs(B14, np.clip(prices, 1, 4), tau=1)
            tensor = build_state_tensor(B14, plan, [np.array([l])], prices)
            ledger = compute_fees(tensor, rate, prices)
            closed = rate * l * (1 / math.sqrt(1.2) - 1 / math.sqrt(3.7))
            assert ledger.fee_a[0] == pytest.approx(closed, rel=1e-9)
            assert ledger.inflow_b[0] == 0.0

    def test_rejects_fee_rate_outside_unit_interval(self):
        tensor = single_bucket_l2_tensor([1.0, 4.0])
        for rate in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                compute_fees(tensor, rate, np.array([1.0, 4.0]))


class SevenBuckets:
    """Constant price 2300, all 7 buckets active, one epoch."""

    part = BucketPartition(1000.0, 3000.0, 7)
    prices = np.full(4, 2300.0)

    def plan_and_alloc(self):
        plan = segment_epochs(self.part, self.prices, tau=6)
        liq = deploy_row(self.part, band_row(self.part, int(plan.epochs[0, 2]), 6), 1e6, 2300.0)
        assert np.count_nonzero(liq) == 7
        return plan, [liq]


class TestGasCost(SevenBuckets):

    def test_seven_range_deploy_and_burn(self):
        plan, allocs = self.plan_and_alloc()
        gas = engine_gas_cost(plan, allocs, GasParams(), self.prices)
        # 7 * 430000 * 100e-9 * 2300 + 7 * 215000 * 100e-9 * 2300
        assert gas.total_b == pytest.approx(1038.45, rel=1e-12)
        assert abs(gas.total_b - 1040.0) / 1040.0 < 0.01
        assert gas.mint_events == 7
        assert gas.burn_events == 7
        assert gas.transition_b == 0.0

    def test_constant_gas_token_price_matches_contract_price_here(self):
        plan, allocs = self.plan_and_alloc()
        params = GasParams(gas_token_price=2300.0)
        gas = engine_gas_cost(plan, allocs, params, self.prices)
        assert gas.total_b == pytest.approx(1038.45, rel=1e-12)

    def test_disjoint_transition_counts_burns_and_mints(self):
        part = BucketPartition(1.0, 11.0, 10)
        prices = np.array([2.5, 8.5, 8.6])
        plan = segment_epochs(part, prices, tau=2)
        assert len(plan) == 2
        w1 = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0]) / 3
        w2 = np.array([0, 0, 0, 0, 0, 0, 0, 1, 1, 0]) / 2
        allocs = [deploy_row(part, custom_weights(part, w1).weights, 1e4, 2.5),
                  deploy_row(part, custom_weights(part, w2).weights, 1e4, 8.5)]
        gas = engine_gas_cost(plan, allocs, GasParams(), prices)
        expect = (3 * 215_000 + 2 * 430_000) * 100e-9 * 8.5
        assert gas.transition_b == pytest.approx(expect, rel=1e-12)
        assert gas.mint_events == 3 + 2
        assert gas.burn_events == 3 + 2

    def test_unchanged_bucket_skips_the_transition(self):
        part = BucketPartition(1.0, 11.0, 10)
        prices = np.array([2.5, 8.5, 8.6])
        plan = segment_epochs(part, prices, tau=2)
        liq = np.zeros(10)
        liq[4] = 5.0
        allocs = [liq, liq.copy()]
        gas = engine_gas_cost(plan, allocs, GasParams(), prices)
        assert gas.transition_b == 0.0
        assert gas.mint_events == 1
        assert gas.burn_events == 1

    def test_changed_liquidity_in_same_bucket_burns_and_mints(self):
        part = BucketPartition(1.0, 11.0, 10)
        prices = np.array([2.5, 8.5, 8.6])
        plan = segment_epochs(part, prices, tau=2)
        liq1, liq2 = np.zeros(10), np.zeros(10)
        liq1[4] = 5.0
        liq2[4] = 6.0
        allocs = [liq1, liq2]
        gas = engine_gas_cost(plan, allocs, GasParams(), prices)
        expect = (215_000 + 430_000) * 100e-9 * 8.5
        assert gas.transition_b == pytest.approx(expect, rel=1e-12)

    def test_no_liquidity_costs_nothing(self):
        prices = np.array([2.5, 2.6])
        plan = segment_epochs(B14, prices, tau=1)
        gas = engine_gas_cost(plan, [np.zeros(1)], GasParams(), prices)
        assert gas.total_b == 0.0
        assert gas.mint_events == 0
        assert gas.burn_events == 0

    def test_rejects_nonpositive_params(self):
        with pytest.raises(ConfigError):
            GasParams(mint_gas=0)
        with pytest.raises(ConfigError):
            GasParams(gas_price_gwei=-1.0)
        with pytest.raises(ConfigError):
            GasParams(gas_token_price=0.0)

    @pytest.mark.parametrize("key", ["mint_gas", "burn_gas"])
    @pytest.mark.parametrize("value", [float("nan"), True, 2.5, 0, -1, "1"])
    def test_gas_units_must_be_positive_integers(self, key, value):
        # a NaN unit cost would put NaN gas into report.json
        with pytest.raises(ConfigError) as err:
            GasParams(**{key: value})
        assert err.value.key == key
        GasParams(**{key: np.int64(7)})  # numpy integers are integers


class TestBuyAndHold:

    def test_linear_in_price(self):
        traj = buy_and_hold(np.array([2000.0, 2500.0]), ReservePair(2.0, 4000.0))
        assert traj[0] == 8000.0
        assert traj[1] == 9000.0

    def test_round_trip_returns_to_start(self):
        traj = buy_and_hold(np.array([2000.0, 3100.0, 2000.0]),
                            ReservePair(2.0, 4000.0))
        assert traj[2] == traj[0]


class TestRunBacktest:

    def config_and_walk(self, **kw):
        part = BucketPartition(1000.0, 4000.0, 30)
        cfg = uniform_config(part, 2, **kw)
        return cfg, walk_prices(seed=40, n=900)

    def test_trajectory_starts_at_capital(self):
        cfg, prices = self.config_and_walk()
        report = run_backtest(cfg, prices)
        assert report.lp_trajectory[0] == pytest.approx(1e6, rel=1e-12)
        assert len(report.lp_trajectory) == len(prices)

    def test_excluding_fees_keeps_trajectory_continuous_at_resets(self):
        cfg, prices = self.config_and_walk()
        report = run_backtest(cfg, prices)
        assert len(report.plan) > 3
        sa = np.sqrt(cfg.partition.edges)[:-1]
        sb = np.sqrt(cfg.partition.edges)[1:]
        for e, ep in enumerate(list(report.plan)[:-1]):
            # value of the outgoing epoch's book at the shared boundary
            liq = deploy_row(cfg.partition, band_row(cfg.partition, ep.benchmark, cfg.tau),
                             report.epoch_capital[e], prices[ep.start])
            c = np.clip(math.sqrt(prices[ep.end]), sa, sb)
            x = (liq * (1.0 / c - 1.0 / sb)).sum()
            y = (liq * (c - sa)).sum()
            old_value = y + x * prices[ep.end]
            assert report.lp_trajectory[ep.end] == pytest.approx(old_value, rel=1e-9)

    def test_reinvest_jump_at_first_reset_equals_converted_fee(self):
        cfg_ex, prices = self.config_and_walk(reinvest_mode="exclude")
        cfg_re, _ = self.config_and_walk(reinvest_mode="reinvest")
        rep_ex = run_backtest(cfg_ex, prices)
        rep_re = run_backtest(cfg_re, prices)
        b1 = rep_ex.plan.epochs[0, 1]
        jump = rep_re.lp_trajectory[b1] - rep_ex.lp_trajectory[b1]
        assert jump == pytest.approx(rep_ex.ledger.fee_converted[0], rel=1e-9)

    def test_fix_at_level_redeploys_the_same_budget(self):
        cfg, prices = self.config_and_walk(reinvest_mode="fix-at-level")
        report = run_backtest(cfg, prices)
        assert np.all(report.epoch_capital == 1e6)

    def test_reinvest_compounds_capital_by_epoch_fees(self):
        cfg, prices = self.config_and_walk(reinvest_mode="reinvest")
        report = run_backtest(cfg, prices)
        cfg_ex, _ = self.config_and_walk(reinvest_mode="exclude")
        rep_ex = run_backtest(cfg_ex, prices)
        # first epoch is shared, so the second budgets differ by its fee
        diff = report.epoch_capital[1] - rep_ex.epoch_capital[1]
        assert diff == pytest.approx(rep_ex.ledger.fee_converted[0], rel=1e-9)

    def test_streamed_fees_match_state_tensor(self):
        cfg, prices = self.config_and_walk()
        report = run_backtest(cfg, prices)
        liqs = [deploy_row(cfg.partition, band_row(cfg.partition, ep.benchmark, cfg.tau),
                           report.epoch_capital[e], prices[ep.start])
                for e, ep in enumerate(report.plan)]
        tensor = build_state_tensor(cfg.partition, report.plan, liqs, prices)
        ledger = compute_fees(tensor, cfg.fee_rate, prices)
        assert report.ledger.inflow_a == pytest.approx(ledger.inflow_a, rel=1e-12)
        assert report.ledger.inflow_b == pytest.approx(ledger.inflow_b, rel=1e-12)

    def test_volume_cap_scales_ledger_but_not_trajectory(self):
        cfg, prices = self.config_and_walk()
        base = run_backtest(cfg, prices)
        cap = base.ledger.total_volume_b / 2
        capped_cfg, _ = self.config_and_walk(volume_cap=cap)
        capped = run_backtest(capped_cfg, prices)
        assert capped.volume_cap_scale == pytest.approx(0.5, rel=1e-12)
        assert capped.ledger.total_volume_b == pytest.approx(cap, rel=1e-12)
        assert capped.ledger.total_fee_b == pytest.approx(
            base.ledger.total_fee_b / 2, rel=1e-12)
        assert np.array_equal(capped.lp_trajectory, base.lp_trajectory)
        # fees stay tied to (scaled) inflows
        assert capped.ledger.fee_b == pytest.approx(
            cfg.fee_rate * capped.ledger.inflow_b, rel=1e-15)

    def test_volume_cap_leaves_reinvested_fees_uncapped(self):
        cfg, prices = self.config_and_walk(reinvest_mode="reinvest")
        base = run_backtest(cfg, prices)
        assert len(base.plan) > 3
        capped_cfg, _ = self.config_and_walk(reinvest_mode="reinvest",
                                             volume_cap=base.ledger.total_volume_b / 2)
        capped = run_backtest(capped_cfg, prices)
        assert capped.volume_cap_scale == pytest.approx(0.5, rel=1e-12)
        # the cap scales the reported ledger only; reinvest compounds the
        # uncapped fees
        assert capped.epoch_capital.tobytes() == base.epoch_capital.tobytes()
        assert capped.lp_trajectory.tobytes() == base.lp_trajectory.tobytes()
        assert capped.ledger.total_fee_b == pytest.approx(
            base.ledger.total_fee_b / 2, rel=1e-12)

    def test_volume_cap_above_total_changes_nothing(self):
        cfg, prices = self.config_and_walk()
        base = run_backtest(cfg, prices)
        roomy, _ = self.config_and_walk(volume_cap=base.ledger.total_volume_b * 10)
        capped = run_backtest(roomy, prices)
        assert capped.volume_cap_scale == 1.0
        assert capped.ledger.total_fee_b == base.ledger.total_fee_b

    @pytest.mark.parametrize("mode", ["reinvest", "exclude", "fix-at-level"])
    @pytest.mark.parametrize("strategy", [
        StrategyConfig("random", seed=4),
        StrategyConfig("normal", profile=ProfileParams(0.1, 0.4)),
    ])
    @pytest.mark.parametrize("cells", [2, 601])
    def test_epoch_groups_leave_results_unchanged(self, monkeypatch, strategy, mode, cells):
        # a run split into many epoch groups (one epoch each, or 2 of 300
        # buckets and 200 of 3) matches the same run in one group:
        # capitals, gas and the rows across group seams
        part = BucketPartition(1000.0, 4000.0, 300)
        cfg = BacktestConfig(part, 1, strategy, 1e6, 0.003, reinvest_mode=mode)
        prices = walk_prices(seed=8, n=6000, vol=0.003)
        stamps = 1_600_000_000 + 3600 * np.arange(len(prices))
        whole = run_backtest(cfg, prices, stamps)
        assert len(whole.plan) > 100
        monkeypatch.setattr(engine, "_GROUP_CELLS", cells)
        split = run_backtest(cfg, prices, stamps)
        assert split.gas == whole.gas
        assert split.epoch_active.tolist() == whole.epoch_active.tolist()
        for got, want in [(split.epoch_capital, whole.epoch_capital),
                          (split.lp_trajectory, whole.lp_trajectory),
                          (split.ledger.inflow_a, whole.ledger.inflow_a),
                          (split.ledger.inflow_b, whole.ledger.inflow_b),
                          ([r["fee_converted_b"] for r in split.monthly_fees],
                           [r["fee_converted_b"] for r in whole.monthly_fees])]:
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_whole_range_round_trip(self):
        part = BucketPartition(1e-14, 1e15, 1)
        cfg = uniform_config(part, 0, capital=8000.0)
        prices = np.array([2000.0, 2500.0, 2000.0])
        report = run_backtest(cfg, prices)
        assert len(report.plan) == 1
        assert report.initial_split.x == pytest.approx(2.0, rel=1e-6)
        assert report.initial_split.y == pytest.approx(4000.0, rel=1e-6)
        assert report.lp_trajectory[-1] == pytest.approx(8000.0, rel=1e-9)
        assert report.ledger.total_fee_b > 0.0
        assert report.bh_profit_rate == 0.0

    def test_strict_mode_names_offending_index(self):
        cfg, prices = self.config_and_walk()
        prices = prices.copy()
        prices[7] = 4500.0
        with pytest.raises(DataError, match="index 7"):
            run_backtest(cfg, prices)

    def test_clamp_mode_runs_out_of_range_series(self):
        cfg, prices = self.config_and_walk(price_mode="clamp")
        prices = prices.copy()
        prices[7] = 4500.0
        report = run_backtest(cfg, prices)
        # valuation still uses the raw price
        assert report.bh_trajectory[7] == report.initial_split.y \
            + report.initial_split.x * 4500.0

    def test_nonpositive_price_rejected_in_any_mode(self):
        cfg, prices = self.config_and_walk(price_mode="clamp")
        prices = prices.copy()
        prices[3] = -2000.0
        with pytest.raises(DataError, match="index 3"):
            run_backtest(cfg, prices)

    def test_monthly_attribution_sums_to_ledger_inflows(self):
        cfg, prices = self.config_and_walk()
        ts = 1610668800 + 3600 * np.arange(len(prices))  # hourly from 2021-01-15
        report = run_backtest(cfg, prices, timestamps=ts)
        months = [row["month"] for row in report.monthly_fees]
        assert months == sorted(months)
        assert months[0] == "2021-01"
        fee_a_total = sum(row["fee_a"] for row in report.monthly_fees)
        fee_b_total = sum(row["fee_b"] for row in report.monthly_fees)
        assert fee_a_total == pytest.approx(report.ledger.fee_a.sum(), rel=1e-12)
        assert fee_b_total == pytest.approx(report.ledger.fee_b.sum(), rel=1e-12)

    def test_timestamp_count_must_match_prices(self):
        cfg, prices = self.config_and_walk()
        ts = 1610668800 + 3600 * np.arange(len(prices) - 1)
        with pytest.raises(DataError, match=f"^{len(ts)} timestamps for "
                                            f"{len(prices)} prices$"):
            run_backtest(cfg, prices, timestamps=ts)

    def test_monthly_rows_reach_the_ends_of_int64_time(self):
        cfg, prices = self.config_and_walk()
        ts = np.arange(len(prices), dtype=np.int64)
        ts[0], ts[-1] = np.iinfo(np.int64).min + 1, np.iinfo(np.int64).max
        report = run_backtest(cfg, prices, timestamps=ts)
        assert [row["month"] for row in report.monthly_fees] == ["1970-01", "292277026596-12"]
        assert sum(row["fee_b"] for row in report.monthly_fees) \
            == pytest.approx(report.ledger.fee_b.sum(), rel=1e-9)

    def test_timestamps_must_ascend(self):
        # reversed, a series' months would be sliced as if contiguous
        cfg, prices = self.config_and_walk()
        ts = 1610668800 + 3600 * np.arange(len(prices))
        with pytest.raises(DataError, match=f"^row 2: timestamp {ts[-2]} at index 1 does "
                                            f"not ascend past {ts[-1]}$"):
            run_backtest(cfg, prices, timestamps=ts[::-1])
        ts[5] = ts[4]
        with pytest.raises(DataError, match="^row 6: "):
            run_backtest(cfg, prices, timestamps=ts)

    @staticmethod
    def traced_peak(cfg, prices, timestamps=None):
        """Peak bytes numpy and Python allocate during one run, after a warm-up."""
        run_backtest(cfg, prices, timestamps)
        tracemalloc.start()
        try:
            run_backtest(cfg, prices, timestamps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_monthly_rows_allocate_no_per_step_array(self):
        # monthly rows are sums of epoch-by-month segments: no (2, m - 1)
        # array of per-step inflows, 3.2 MB on this walk, is ever built
        cfg = uniform_config(BucketPartition(1000.0, 4000.0, 100), 2)
        prices = walk_prices(seed=12, n=200_000, vol=0.001)
        stamps = 1_672_531_200 + 60 * np.arange(len(prices))
        assert self.traced_peak(cfg, prices, stamps) <= self.traced_peak(cfg, prices) + 2**19

    def test_clamp_mode_frees_the_clamped_copy(self):
        # only segmentation reads the clamped series (1.6 MB on this walk)
        cfg = uniform_config(BucketPartition(1000.0, 4000.0, 100), 2)
        prices = walk_prices(seed=12, n=200_000, vol=0.001)
        clamp = uniform_config(cfg.partition, 2, price_mode="clamp")
        assert self.traced_peak(clamp, prices) <= self.traced_peak(cfg, prices) + 2**19

    def test_buy_and_hold_is_computed_on_first_read(self):
        # the run allocates no buy-and-hold series: the report makes it from
        # its prices when first read, with the bytes buy_and_hold gives
        cfg = uniform_config(BucketPartition(1000.0, 4000.0, 30), 2)
        prices = walk_prices(seed=43, n=20_000)
        report = run_backtest(cfg, prices)
        assert "bh_trajectory" not in vars(report)
        bh = report.bh_trajectory
        assert bh.tobytes() == buy_and_hold(prices, report.initial_split).tobytes()
        assert report.bh_trajectory is bh
        assert report.bh_profit_rate == float((bh[-1] - bh[0]) / bh[0])

    def test_no_timestamps_no_monthly_rows(self):
        cfg, prices = self.config_and_walk()
        assert run_backtest(cfg, prices).monthly_fees is None

    def test_random_strategy_is_reproducible_and_seed_sensitive(self):
        part = BucketPartition(1000.0, 4000.0, 30)
        prices = walk_prices(seed=41, n=600)
        mk = lambda seed: BacktestConfig(part, 2, StrategyConfig("random", seed=seed),
                                         1e6, 0.003)
        a = run_backtest(mk(7), prices)
        b = run_backtest(mk(7), prices)
        c = run_backtest(mk(8), prices)
        assert np.array_equal(a.lp_trajectory, b.lp_trajectory)
        assert a.ledger.total_fee_b == b.ledger.total_fee_b
        assert a.ledger.total_fee_b != c.ledger.total_fee_b

    @pytest.mark.parametrize("seed", [True, False, -1, 2.5, "7"])
    def test_random_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError) as exc:
            BacktestConfig(BucketPartition(1000.0, 4000.0, 30), 2,
                           StrategyConfig("random", seed=seed), 1e6, 0.003)
        assert exc.value.key == "seed"

    @pytest.mark.parametrize("tau", [True, False, -1, 2.0])
    def test_tau_must_be_a_non_negative_integer(self, tau):
        with pytest.raises(ConfigError) as exc:
            uniform_config(BucketPartition(1000.0, 4000.0, 30), tau)
        assert exc.value.key == "tau"

    def test_replace_checks_the_config_again(self):
        cfg = uniform_config(BucketPartition(1000.0, 4000.0, 30), 2)
        with pytest.raises(ConfigError) as exc:
            replace(cfg, capital=-1.0)
        assert exc.value.key == "capital"
        with pytest.raises(ConfigError) as exc:
            replace(cfg, strategy=replace(cfg.strategy, mode="random"))
        assert exc.value.key == "seed"

    def test_custom_weights_cannot_change_after_their_check(self):
        given = np.full(30, 1 / 30)
        strategy = StrategyConfig("custom", weights=given)
        given[0] = -1.0  # the config holds its own copy
        assert strategy.weights[0] == 1 / 30
        with pytest.raises(TypeError):
            strategy.weights[0] = -1.0

    def test_configs_with_custom_weights_compare_and_hash_by_value(self):
        part = BucketPartition(1000.0, 4000.0, 30)
        a, b = (BacktestConfig(part, 2, StrategyConfig("custom", weights=w), 1e6, 0.003)
                for w in (np.full(30, 1 / 30), [1 / 30] * 30))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, a.strategy, b.strategy}) == 2
        other = StrategyConfig("custom", weights=[1.0] + [0.0] * 29)
        assert a != BacktestConfig(part, 2, other, 1e6, 0.003)

    def test_numpy_integer_seeds_draw_their_int_stream(self):
        part = BucketPartition(1000.0, 4000.0, 30)
        prices = walk_prices(seed=41, n=600)
        runs = [run_backtest(BacktestConfig(part, 2, StrategyConfig("random", seed=s),
                                            1e6, 0.003), prices)
                for s in (2**64 - 1, np.uint64(2**64 - 1))]
        assert runs[0].lp_trajectory.tobytes() == runs[1].lp_trajectory.tobytes()

    def test_custom_weights_strategy_runs(self):
        part = BucketPartition(1000.0, 4000.0, 5)
        w = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        cfg = BacktestConfig(part, 4, StrategyConfig("custom", weights=w),
                             1e6, 0.003)
        prices = walk_prices(seed=42, n=300)
        report = run_backtest(cfg, prices)
        assert len(report.plan) == 1
        assert report.epoch_active[0] == 5

    def test_two_epoch_hand_trace_never_double_charges(self):
        part = BucketPartition(1.0, 3.0, 2)
        cfg = uniform_config(part, 0, capital=100.0)
        prices = np.array([1.2, 2.5, 2.6])
        report = run_backtest(cfg, prices)
        assert [(e.start, e.end, e.benchmark) for e in report.plan] \
            == [(0, 1, 1), (1, 2, 2)]

        r1, r2 = bucket_range(part, 1), bucket_range(part, 2)
        l1 = split_capital(100.0, 1.2, r1).liquidity
        inflow_b1 = l1 * (math.sqrt(2.0) - math.sqrt(1.2))
        v_end = l1 * (math.sqrt(2.0) - 1.0)  # saturated, all token B
        l2 = split_capital(v_end, 2.5, r2).liquidity
        inflow_b2 = l2 * (math.sqrt(2.6) - math.sqrt(2.5))

        assert report.ledger.inflow_b == pytest.approx([inflow_b1, inflow_b2],
                                                       rel=1e-12)
        assert np.all(report.ledger.inflow_a == 0.0)
        assert report.ledger.total_fee_b == pytest.approx(
            0.003 * (inflow_b1 + inflow_b2 * 1.0), rel=1e-12)
        assert report.ledger.end_price.tolist() == [2.5, 2.6]

    def test_report_dict_has_stable_shape(self):
        cfg, prices = self.config_and_walk()
        ts = 1610668800 + 3600 * np.arange(len(prices))
        d = run_backtest(cfg, prices, timestamps=ts).to_dict()
        assert set(d) == {
            "initial_capital", "final_value", "fees_total_b", "volume_total_b",
            "fee_rate", "gas_cost_b", "gas_breakdown", "epochs", "profit_rate",
            "bh_profit_rate", "volume_cap_scale", "reinvest_mode", "epoch_fees",
            "monthly_fees",
        }
        assert d["epochs"] == len(d["epoch_fees"])
        row = d["epoch_fees"][0]
        assert row["epoch"] == 1
        assert row["fee_b"] == pytest.approx(0.003 * row["inflow_b"], rel=1e-12)

    def test_series_shorter_than_two_rejected(self):
        cfg, _ = self.config_and_walk()
        with pytest.raises(DataError):
            run_backtest(cfg, np.array([2000.0]))


class TestOneSeriesValidator:
    """``PriceSeries`` checks every series, whichever entry point took it."""

    CONFIG = uniform_config(BucketPartition(1000.0, 4000.0, 30), 2)

    @staticmethod
    def message(call):
        with pytest.raises(DataError) as err:
            call()
        return str(err.value)

    @pytest.mark.parametrize("prices,timestamps,expect", [
        ([2000.0, np.nan, 2100.0], None,
         "row 2: price nan at index 1 is not a positive finite number"),
        ([2000.0, 2100.0, 0.0], None,
         "row 3: price 0.0 at index 2 is not a positive finite number"),
        ([2000.0, -5.0, 2100.0], None,
         "row 2: price -5.0 at index 1 is not a positive finite number"),
        ([2000.0], None, "price series needs at least 2 rows, got 1"),
        ([[2000.0, 2100.0], [2050.0, 2000.0]], None, "price series must be one-dimensional"),
        ([2000.0, 2100.0, 2050.0], [1, 2], "2 timestamps for 3 prices"),
        ([2000.0, 2100.0, 2050.0], [1, 3, 3],
         "row 3: timestamp 3 at index 2 does not ascend past 3"),
    ], ids=["nan", "zero", "negative", "one_row", "two_dimensional", "too_few_timestamps",
            "not_ascending"])
    def test_each_rule_has_one_message_at_every_entry_point(self, prices, timestamps,
                                                            expect):
        cfg = self.CONFIG
        prices = np.array(prices)
        ts = None if timestamps is None else np.array(timestamps)
        series = SimpleNamespace(prices=prices, timestamps=ts)
        assert self.message(lambda: PriceSeries(prices, ts)) == expect
        assert self.message(lambda: run_backtest(cfg, prices, ts)) == expect
        assert self.message(lambda: run_backtest(cfg, series)) == expect
        assert self.message(lambda: whole_pool_fee(cfg, series, 0.0, 0.5)) == expect

    def test_a_checked_series_is_not_checked_again(self, monkeypatch):
        prices = walk_prices(seed=40, n=900)
        series = PriceSeries(prices, 1610668800 + 3600 * np.arange(len(prices)))
        calls, check = [], prices_module.check_timestamps
        spy = lambda *args: calls.append(args) or check(*args)
        monkeypatch.setattr(prices_module, "check_timestamps", spy)
        monkeypatch.setattr(engine, "check_timestamps", spy, raising=False)
        run_backtest(self.CONFIG, series)
        fee_curve(self.CONFIG, series, 0.0, 3.0, [0.5, 1.0])
        assert calls == []
        # an array and its timestamps are checked, once
        run_backtest(self.CONFIG, series.prices, series.timestamps)
        assert len(calls) == 1

    def test_a_series_cannot_be_changed_after_its_check(self):
        prices, ts = walk_prices(seed=40, n=20), np.arange(20)
        series = PriceSeries(prices, ts)
        for column in (series.prices, series.timestamps):
            with pytest.raises(ValueError):
                column[0] = -1
        prices[0], ts[0] = 2000.0, -1  # the caller's arrays stay writeable
