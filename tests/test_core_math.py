"""The oracle's single-range position math: hand examples, identities,
domain errors."""

import math

import numpy as np
import pytest

from clmm_backtest.engine import ReservePair
from oracle import (PriceRange, invariant_residual, liquidity_from_x, liquidity_from_y,
                    liquidity_state, position_value, split_capital)

R14 = PriceRange(1.0, 4.0)


def random_cases(seed, count):
    """Random (w, p, range) draws spanning all three price regimes."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        p_a = 10.0 ** rng.uniform(-4, 4)
        p_b = p_a * (1.0 + 10.0 ** rng.uniform(-3, 3))
        w = 10.0 ** rng.uniform(-2, 7)
        regime = rng.integers(3)
        if regime == 0:
            p = p_a * rng.uniform(0.2, 1.0)       # at or below the range
        elif regime == 1:
            p = p_a + (p_b - p_a) * rng.uniform(1e-6, 1.0 - 1e-6)
        else:
            p = p_b * rng.uniform(1.0, 5.0)       # at or above the range
        cases.append((w, p, PriceRange(p_a, p_b)))
    return cases


class TestPriceRange:

    def test_roots_and_depths(self):
        assert R14.sqrt_a == 1.0
        assert R14.sqrt_b == 2.0
        assert R14.delta_x == pytest.approx(0.5, rel=1e-12)
        assert R14.delta_y == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("p_a,p_b", [
        (0.0, 4.0), (-1.0, 4.0), (4.0, 4.0), (4.0, 1.0),
        (float("nan"), 4.0), (1.0, float("inf")),
    ])
    def test_rejects_bad_bounds(self, p_a, p_b):
        with pytest.raises(ValueError):
            PriceRange(p_a, p_b)

    def test_contains_is_strict(self):
        assert R14.contains(2.0)
        assert not R14.contains(1.0)
        assert not R14.contains(4.0)


class TestLiquidityFromSingleToken:

    def test_from_x_examples(self):
        assert liquidity_from_x(1.0, R14) == pytest.approx(2.0, rel=1e-9)
        assert liquidity_from_x(2.0, R14) == pytest.approx(4.0, rel=1e-9)

    def test_from_y_examples(self):
        assert liquidity_from_y(3.0, R14) == pytest.approx(3.0, rel=1e-9)
        assert liquidity_from_y(5.0, PriceRange(4.0, 9.0)) == pytest.approx(5.0, rel=1e-9)

    def test_from_x_closes_curve_at_lower_bound(self):
        # an all-token-A position priced at p_a must sit on the reserve curve
        rng = np.random.default_rng(21)
        for _ in range(300):
            p_a = 10.0 ** rng.uniform(-4, 4)
            r = PriceRange(p_a, p_a * (1.0 + 10.0 ** rng.uniform(-3, 3)))
            x = 10.0 ** rng.uniform(-3, 5)
            l = liquidity_from_x(x, r)
            assert abs(invariant_residual(ReservePair(x, 0.0), l, r)) <= 1e-12

    def test_from_y_closes_curve_at_upper_bound(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            p_a = 10.0 ** rng.uniform(-4, 4)
            r = PriceRange(p_a, p_a * (1.0 + 10.0 ** rng.uniform(-3, 3)))
            y = 10.0 ** rng.uniform(-3, 5)
            l = liquidity_from_y(y, r)
            assert abs(invariant_residual(ReservePair(0.0, y), l, r)) <= 1e-12

    def test_zero_reserves_back_zero_liquidity(self):
        assert liquidity_from_x(0.0, R14) == 0.0
        assert liquidity_from_y(0.0, R14) == 0.0

    @pytest.mark.parametrize("amount", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_amounts(self, amount):
        with pytest.raises(ValueError):
            liquidity_from_x(amount, R14)
        with pytest.raises(ValueError):
            liquidity_from_y(amount, R14)


class TestSplitCapital:

    def test_reference_split(self):
        s = split_capital(1.0, 2.25, R14)
        assert s.x == pytest.approx(2.0 / 10.5, rel=1e-9)
        assert s.y == pytest.approx(6.0 / 10.5, rel=1e-9)
        assert s.liquidity == pytest.approx(8.0 / 7.0, rel=1e-9)

    def test_budget_identity_exact(self):
        for w, p, r in random_cases(31, 500):
            s = split_capital(w, p, r)
            assert abs(s.y + s.x * p - w) <= 1e-12 * w

    def test_liquidity_equals_both_contribution_sides(self):
        # the two sides of the equal-contribution condition must agree
        for w, p, r in random_cases(32, 500):
            if not r.contains(p):
                continue
            s = split_capital(w, p, r)
            sp = math.sqrt(p)
            left = s.x * sp * r.sqrt_b / (r.sqrt_b - sp)
            right = s.y / (sp - r.sqrt_a)
            assert left == pytest.approx(s.liquidity, rel=1e-9)
            assert right == pytest.approx(s.liquidity, rel=1e-9)

    def test_routes_all_token_a_at_lower_bound(self):
        s = split_capital(100.0, R14.p_a, R14)
        assert s.y == 0.0
        assert s.x == pytest.approx(100.0 / R14.p_a, rel=1e-12)
        assert s.liquidity == pytest.approx(liquidity_from_x(s.x, R14), rel=1e-12)

    def test_routes_all_token_b_at_upper_bound(self):
        s = split_capital(100.0, R14.p_b, R14)
        assert s.x == 0.0
        assert s.y == 100.0
        assert s.liquidity == pytest.approx(liquidity_from_y(100.0, R14), rel=1e-12)

    def test_routes_single_token_beyond_bounds(self):
        below = split_capital(10.0, 0.5, R14)
        assert below.y == 0.0 and below.x == pytest.approx(20.0, rel=1e-12)
        above = split_capital(10.0, 8.0, R14)
        assert above.x == 0.0 and above.y == 10.0

    def test_price_whose_root_equals_a_bound_root_sits_on_that_bound(self):
        r = PriceRange(2.0, 3.0)
        p_lo, p_hi = math.nextafter(2.0, 3.0), math.nextafter(3.0, 2.0)
        assert r.contains(p_lo) and math.sqrt(p_lo) == r.sqrt_a
        assert r.contains(p_hi) and math.sqrt(p_hi) == r.sqrt_b
        lo, hi = split_capital(10.0, p_lo, r), split_capital(10.0, p_hi, r)
        assert lo == (10.0 / p_lo, 0.0, liquidity_from_x(10.0 / p_lo, r))
        assert hi == (0.0, 10.0, liquidity_from_y(10.0, r))
        assert position_value(lo.liquidity, r, p_lo, p_lo) == pytest.approx(10.0, rel=1e-12)
        assert position_value(hi.liquidity, r, p_hi, p_hi) == pytest.approx(10.0, rel=1e-12)

    def test_reserves_satisfy_curve_identity(self):
        for w, p, r in random_cases(33, 2000):
            s = split_capital(w, p, r)
            assert abs(invariant_residual(s.reserves, s.liquidity, r)) <= 1e-9

    def test_value_at_anchor_recovers_budget(self):
        for w, p, r in random_cases(34, 500):
            s = split_capital(w, p, r)
            v = position_value(s.liquidity, r, p, p)
            assert v == pytest.approx(w, rel=1e-9)

    @pytest.mark.parametrize("w,p", [
        (0.0, 2.0), (-1.0, 2.0), (float("nan"), 2.0),
        (1.0, 0.0), (1.0, -2.0), (1.0, float("inf")),
    ])
    def test_rejects_bad_inputs(self, w, p):
        with pytest.raises(ValueError):
            split_capital(w, p, R14)


class TestLiquidityState:

    def test_below_range(self):
        assert liquidity_state(2.0, R14, 0.25) == pytest.approx((1.0, 0.0), rel=1e-9)

    def test_in_range(self):
        # 2*(1/1.5 - 1/2) = 1/3 and 2*(1.5 - 1) = 1
        x, y = liquidity_state(2.0, R14, 2.25)
        assert x == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert y == pytest.approx(1.0, rel=1e-9)

    def test_above_range(self):
        assert liquidity_state(2.0, R14, 9.0) == pytest.approx((0.0, 2.0), rel=1e-9)

    def test_bounds_take_outer_branches(self):
        l = 3.0
        assert liquidity_state(l, R14, R14.p_a) == (l * R14.delta_x, 0.0)
        assert liquidity_state(l, R14, R14.p_b) == (0.0, l * R14.delta_y)

    def test_in_range_state_sits_on_curve(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            p_a = 10.0 ** rng.uniform(-4, 4)
            r = PriceRange(p_a, p_a * (1.0 + 10.0 ** rng.uniform(-3, 3)))
            l = 10.0 ** rng.uniform(-2, 6)
            p = p_a + (r.p_b - p_a) * rng.uniform(1e-6, 1.0 - 1e-6)
            st = liquidity_state(l, r, p)
            assert abs(invariant_residual(st, l, r)) <= 1e-9

    @pytest.mark.parametrize("r,l", [
        (PriceRange(1.0, 4.0), 2.0),
        (PriceRange(0.5, 8.0), 1.0),
        (PriceRange(100.0, 400.0), 5.0),
    ])
    def test_seam_gap_vanishes(self, r, l):
        # the two-sided gap across each bound shrinks linearly with epsilon;
        # at the finest epsilon it is far below 1e-6 per unit liquidity
        for bound in (r.p_a, r.p_b):
            gaps = []
            for eps_exp in range(3, 10):
                eps = bound * 10.0 ** (-eps_exp)
                lo = liquidity_state(l, r, bound - eps)
                hi = liquidity_state(l, r, bound + eps)
                gaps.append(max(abs(lo.x - hi.x), abs(lo.y - hi.y)))
            for a, b in zip(gaps, gaps[1:]):
                assert b <= a * 0.5 + 1e-12 * l
            assert gaps[-1] < 1e-6 * l

    def test_zero_liquidity_holds_nothing(self):
        assert liquidity_state(0.0, R14, 2.0) == (0.0, 0.0)

    @pytest.mark.parametrize("l,p", [(-1.0, 2.0), (1.0, 0.0), (1.0, -3.0),
                                     (float("nan"), 2.0)])
    def test_rejects_bad_inputs(self, l, p):
        with pytest.raises(ValueError):
            liquidity_state(l, R14, p)


class TestPositionValue:

    def test_in_range_value(self):
        # reserves (1/3, 1) at p = 2.25: 1 + (1/3)*2.25 = 1.75
        assert position_value(2.0, R14, 2.25, 2.25) == pytest.approx(1.75, rel=1e-9)

    def test_above_range_value(self):
        assert position_value(2.0, R14, 9.0, 9.0) == pytest.approx(2.0, rel=1e-9)

    def test_below_range_value(self):
        # all token A: x = 1, worth x * valuation price
        assert position_value(2.0, R14, 0.25, 0.25) == pytest.approx(0.25, rel=1e-9)

    def test_linear_in_valuation_price(self):
        x, y = liquidity_state(2.0, R14, 2.25)
        for vp in (0.5, 1.0, 3.0, 10.0):
            assert position_value(2.0, R14, 2.25, vp) == pytest.approx(y + x * vp, rel=1e-12)

    def test_rejects_bad_valuation_price(self):
        with pytest.raises(ValueError):
            position_value(2.0, R14, 2.25, 0.0)
