"""Variance fitting of the bell-curve whole-pool profile."""

import dataclasses

import numpy as np
import pytest

from clmm_backtest import calibration
from clmm_backtest.allocation import ProfileParams
from clmm_backtest.bucketing import BucketPartition
from clmm_backtest.calibration import (CalibrationResult, FeeCurve, calibrate_variance,
                                       fee_curve, whole_pool_fee)
from clmm_backtest.engine import BacktestConfig, StrategyConfig, run_backtest
from clmm_backtest.errors import CalibrationUnreachableError
from oracle import calibrate_over_mu


def pool_config(partition, capital=1e6):
    return BacktestConfig(partition, 1, StrategyConfig("uniform"), capital, 0.003)


def oscillating_prices(seed=5, n=4000):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    p = 2333.0 + 120.0 * np.sin(2 * np.pi * t / 400) + rng.normal(0.0, 10.0, n)
    return np.clip(p, 1000.0, 3000.0)


PART40 = BucketPartition(1000.0, 3000.0, 40)


class TestFeeCurve:

    def test_curve_is_bitwise_deterministic(self):
        prices = oscillating_prices(n=800)
        grid = np.linspace(0.1, 2.0, 5)
        a = fee_curve(pool_config(PART40), prices, 0.0, 3.0, grid)
        b = fee_curve(pool_config(PART40), prices, 0.0, 3.0, grid)
        assert np.array_equal(a.fees, b.fees)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            FeeCurve(0.0, 3.0, np.array([2.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            FeeCurve(0.0, 3.0, np.array([-1.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            FeeCurve(0.0, 3.0, np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            FeeCurve(0.0, 3.0, np.array([1.0, 2.0]), np.array([1.0, -2.0]))


class TestWholePoolFee:

    def test_equals_a_single_epoch_bell_curve_run(self):
        prices = oscillating_prices(n=1200)
        cfg = pool_config(PART40)
        fee = whole_pool_fee(cfg, prices, mu=0.3, variance=0.8)

        manual = dataclasses.replace(
            cfg,
            strategy=StrategyConfig("normal",
                                    profile=ProfileParams(0.3, 0.8, 3.0)),
            tau=PART40.n)
        report = run_backtest(manual, prices)
        assert len(report.plan) == 1
        # the dot product reaches the same fee by another route: its drift
        # against the replay is pinned at 1e-12 relative
        total = report.ledger.total_fee_b
        assert abs(fee - total) <= 1e-12 * total

    def test_single_epoch_even_when_pool_config_tau_is_tight(self):
        # the pool config's own tau would reset dozens of times here
        prices = oscillating_prices(n=1500)
        tight = pool_config(PART40)
        base = run_backtest(tight, prices)
        assert len(base.plan) > 10
        fee = whole_pool_fee(tight, prices, mu=0.0, variance=0.5)
        assert fee > 0.0

    def test_doubling_capital_doubles_the_fee(self):
        prices = oscillating_prices(n=900)
        small = pool_config(PART40, capital=1e6)
        large = pool_config(PART40, capital=2e6)
        f1 = whole_pool_fee(small, prices, 0.0, 0.7)
        f2 = whole_pool_fee(large, prices, 0.0, 0.7)
        assert f2 == pytest.approx(2.0 * f1, rel=1e-12)


class TestCalibrateVariance:

    def test_recovers_a_self_generated_target(self):
        prices = oscillating_prices(n=1500)
        cfg = pool_config(PART40)
        target = whole_pool_fee(cfg, prices, mu=0.0, variance=0.4)
        grid = np.linspace(0.05, 2.0, 40)
        res = calibrate_variance(cfg, prices, 0.0, 3.0, target, grid)
        assert res.converged
        assert res.relative_error < 1e-3
        assert res.model_fee == pytest.approx(target, rel=1e-3)
        assert res.variance == pytest.approx(0.4, abs=0.05)

    def test_takes_first_crossing_below_the_curve_peak(self):
        prices = oscillating_prices()
        cfg = pool_config(PART40)
        grid = np.linspace(0.05, 5.0, 28)
        curve = fee_curve(cfg, prices, 0.0, 3.0, grid)
        peak = int(np.argmax(curve.fees))
        assert 0 < peak < len(grid) - 1  # a genuine hump
        target = 0.5 * (curve.fees[-1] + curve.fees[peak])
        # the curve crosses this level on both sides of the peak; the
        # ascending scan must return the smaller variance
        res = calibrate_variance(cfg, prices, 0.0, 3.0, target, grid, curve=curve)
        assert res.converged
        assert res.variance < grid[peak]

    def test_grid_hit_without_a_prior_crossing_needs_no_refinement(self):
        grid = np.array([0.5, 1.0, 2.0])
        curve = FeeCurve(0.0, 3.0, grid, np.array([10.0, 20.0, 30.0]))
        # target sits just above the middle fee, so no bracket crosses it
        # before the hit and the curve is never re-evaluated
        res = calibrate_variance(pool_config(PART40), None, 0.0, 3.0, 20.0004,
                                 grid, curve=curve)
        assert res.variance == 1.0
        assert res.iterations == 0
        assert res.converged

    def test_exact_touch_counts_as_a_hit(self):
        grid = np.array([0.5, 1.0, 2.0])
        curve = FeeCurve(0.0, 3.0, grid, np.array([10.0, 20.0, 30.0]))
        res = calibrate_variance(pool_config(PART40), None, 0.0, 3.0, 20.0,
                                 grid, curve=curve)
        assert res.variance == 1.0
        assert res.relative_error == 0.0

    def test_unreachable_target_reports_curve_span(self):
        prices = oscillating_prices(n=900)
        cfg = pool_config(PART40)
        grid = np.linspace(0.1, 1.0, 6)
        curve = fee_curve(cfg, prices, 0.0, 3.0, grid)
        target = 10.0 * curve.fees.max()
        with pytest.raises(CalibrationUnreachableError) as exc:
            calibrate_variance(cfg, prices, 0.0, 3.0, target, grid, curve=curve)
        assert exc.value.fee_min == pytest.approx(curve.fees.min())
        assert exc.value.fee_max == pytest.approx(curve.fees.max())
        assert "unreachable" in str(exc.value)
        assert str(curve.fees.max()) in str(exc.value)

    def test_rejects_nonpositive_target_and_short_grid(self):
        cfg = pool_config(PART40)
        with pytest.raises(ValueError):
            calibrate_variance(cfg, None, 0.0, 3.0, -5.0, np.array([0.1, 0.2]))
        grid = np.array([0.5])
        curve = FeeCurve(0.0, 3.0, grid, np.array([10.0]))
        with pytest.raises(ValueError):
            calibrate_variance(cfg, None, 0.0, 3.0, 99.0, grid, curve=curve)

    def test_fees_past_1e154_bisect_as_at_any_scale(self):
        # the fee is linear in the capital; the scan and the bisection
        # compare signs, so a product of two differences cannot overflow
        prices = 2000.0 + 300.0 * np.sin(np.arange(50) / 5.0)
        grid = np.linspace(0.05, 2.0, 5)
        results = []
        for capital in (1e6, 1e300):
            cfg = pool_config(BucketPartition(1000.0, 4000.0, 10), capital)
            curve = fee_curve(cfg, prices, 0.5, 3.0, grid)
            target = float(0.5 * (curve.fees[1] + curve.fees[2]))
            results.append(calibrate_variance(cfg, prices, 0.5, 3.0, target, grid,
                                              curve=curve))
        assert results[1].model_fee > 1e296
        assert results[1].iterations == results[0].iterations > 0
        assert results[1].variance == results[0].variance
        assert results[1].converged

    def test_tiny_target_is_unreachable_without_a_warning(self):
        # every fee's relative error over the target overflows float64
        prices = oscillating_prices(n=800)
        with pytest.raises(CalibrationUnreachableError):
            calibrate_variance(pool_config(PART40), prices, 0.0, 3.0, np.float64(1e-320),
                               np.linspace(0.1, 2.0, 5))

    def test_result_dict_round_trips_fields(self):
        res = CalibrationResult(0.1, 0.5, 3.0, 99.0, 100.0, 0.01, 4, False)
        d = res.to_dict()
        assert d["variance"] == 0.5
        assert d["converged"] is False
        assert set(d) == {"mu", "variance", "bound", "model_fee", "target_fee",
                          "relative_error", "iterations", "converged"}


class TestCalibrateOverMu:

    def test_keeps_the_best_mu(self):
        prices = oscillating_prices(n=1200)
        cfg = pool_config(PART40)
        target = whole_pool_fee(cfg, prices, mu=0.6, variance=0.5)
        grid = np.linspace(0.05, 2.0, 24)
        res = calibrate_over_mu(cfg, prices, [-0.5, 0.0, 0.6], 3.0, target, grid)
        assert res.converged
        assert res.relative_error < 1e-3

    def test_one_travel_pass_serves_every_mu(self, monkeypatch):
        prices = oscillating_prices(n=1200)
        cfg = pool_config(PART40)
        target = whole_pool_fee(cfg, prices, mu=0.6, variance=0.5)
        passes = []
        travel = calibration._bucket_volume
        monkeypatch.setattr(calibration, "_bucket_volume",
                            lambda *args: passes.append(args) or travel(*args))
        res = calibrate_over_mu(cfg, prices, [-0.5, 0.0, 0.6], 3.0, target,
                                np.linspace(0.05, 2.0, 24))
        assert res.iterations > 0
        assert len(passes) == 1

    def test_all_unreachable_reraises(self):
        grid = np.array([0.5, 1.0])
        prices = oscillating_prices(n=600)
        cfg = pool_config(PART40)
        curve = fee_curve(cfg, prices, 0.0, 3.0, grid)
        hopeless = 1e3 * curve.fees.max()
        with pytest.raises(CalibrationUnreachableError):
            calibrate_over_mu(cfg, prices, [0.0, 0.5], 3.0, hopeless, grid)

    def test_empty_mu_list_raises(self):
        with pytest.raises(CalibrationUnreachableError):
            calibrate_over_mu(pool_config(PART40), None, [], 3.0, 100.0,
                              np.array([0.1, 0.2]))
