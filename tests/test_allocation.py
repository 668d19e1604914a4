"""Weight construction and capital deployment across buckets."""

import math

import numpy as np
import pytest

from clmm_backtest.allocation import (AllocationWeights, ProfileParams, band_weights,
                                      custom_weights, normal_profile_weights)
from clmm_backtest.bucketing import BucketPartition
from oracle import band_row, bucket_range, deploy_row, position_value, split_capital

PART10 = BucketPartition(1.0, 11.0, 10)


def active(offsets, w):
    """1-based buckets carrying weight in the first row of a window table."""
    return (offsets[0] + np.flatnonzero(w[0]) + 1).tolist()


class TestUniformBand:

    def test_interior_band(self):
        offsets, w = band_weights(PART10, [5], 2)
        assert active(offsets, w) == [3, 4, 5, 6, 7]
        assert w[0] == pytest.approx(np.full(5, 0.2), rel=1e-12)

    def test_band_clipped_at_lower_bound(self):
        offsets, w = band_weights(PART10, [1], 2)
        assert active(offsets, w) == [1, 2, 3]
        assert w[0, :3] == pytest.approx(np.full(3, 1 / 3), rel=1e-12)

    def test_band_clipped_at_upper_bound(self):
        offsets, w = band_weights(PART10, [10], 2)
        assert active(offsets, w) == [8, 9, 10]

    def test_tau_zero_is_single_bucket(self):
        offsets, w = band_weights(PART10, [4], 0)
        assert active(offsets, w) == [4]
        assert w[0, 0] == 1.0

    def test_rejects_benchmark_outside_partition(self):
        with pytest.raises(ValueError):
            band_weights(PART10, [0], 1)
        with pytest.raises(ValueError):
            band_weights(PART10, [11], 1)


class TestRandomBand:

    def test_same_seed_same_weights(self):
        a = band_weights(PART10, [5], 2, seed=42)[1]
        b = band_weights(PART10, [5], 2, seed=42)[1]
        assert np.array_equal(a, b)

    def test_different_seed_different_weights(self):
        a = band_weights(PART10, [5], 2, seed=42)[1]
        b = band_weights(PART10, [5], 2, seed=43)[1]
        assert not np.array_equal(a, b)

    def test_support_is_the_band(self):
        offsets, w = band_weights(PART10, [5], 2, seed=0)
        assert active(offsets, w) == [3, 4, 5, 6, 7]
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_composite_seed_accepted(self):
        a = band_weights(PART10, [5], 2, seed=7, first_epoch=0)[1]
        b = band_weights(PART10, [5], 2, seed=7, first_epoch=1)[1]
        assert not np.array_equal(a, b)

    def test_row_is_the_epoch_stream(self):
        # the documented stream: default_rng([seed, epoch]), normalised
        draws = np.random.default_rng([7, 12]).random(5)
        w = band_weights(PART10, [5], 2, seed=7, first_epoch=12)[1]
        assert w[0] == pytest.approx(draws / draws.sum(), rel=1e-15)

    @pytest.mark.parametrize("seed", [True, False, -1, 2.0, "7", [7, 0]])
    def test_rejects_seeds_that_are_not_non_negative_integers(self, seed):
        with pytest.raises(ValueError):
            band_weights(PART10, [5], 2, seed)


class TestNormalProfile:

    def test_normalised_over_all_buckets(self):
        w = normal_profile_weights(PART10, ProfileParams(mu=0.5, variance=0.8))
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w.weights > 0)

    def test_peak_sits_at_mapped_mean(self):
        part = BucketPartition(1.0, 11.0, 101)
        params = ProfileParams(mu=0.9, variance=0.4, bound=3.0)
        w = normal_profile_weights(part, params)
        peak = int(np.argmax(w.weights))
        # midpoint u-coordinates run linearly from -3 to 3; find the closest
        mids = 0.5 * (part.edges[:-1] + part.edges[1:])
        mids_u = (mids - 6.0) * 6.0 / 10.0
        assert peak == int(np.argmin(np.abs(mids_u - 0.9)))

    def test_symmetric_for_centred_mean(self):
        part = BucketPartition(2.0, 4.0, 9)
        w = normal_profile_weights(part, ProfileParams(mu=0.0, variance=0.7))
        assert w.weights == pytest.approx(w.weights[::-1], rel=1e-12)

    def test_unimodal(self):
        w = normal_profile_weights(PART10, ProfileParams(mu=-1.2, variance=0.3))
        peak = int(np.argmax(w.weights))
        assert np.all(np.diff(w.weights[: peak + 1]) >= 0)
        assert np.all(np.diff(w.weights[peak:]) <= 0)

    def test_huge_variance_flattens_to_uniform(self):
        for n in (7, 10, 33):
            part = BucketPartition(1.0, 11.0, n)
            w = normal_profile_weights(part, ProfileParams(mu=0.0, variance=1e6))
            assert np.max(np.abs(w.weights - 1 / n)) < 1e-3 / n

    def test_tiny_variance_concentrates(self):
        part = BucketPartition(1.0, 11.0, 11)
        w = normal_profile_weights(part, ProfileParams(mu=0.0, variance=1e-4))
        assert np.max(w.weights) > 0.999
        assert int(np.argmax(w.weights)) == 5

    @pytest.mark.parametrize("mu,var,bound", [
        (0.0, 0.0, 3.0), (0.0, -1.0, 3.0), (float("nan"), 1.0, 3.0),
        (0.0, 1.0, 0.0), (0.0, float("inf"), 3.0),
    ])
    def test_rejects_bad_params(self, mu, var, bound):
        with pytest.raises(ValueError):
            ProfileParams(mu=mu, variance=var, bound=bound)


class TestCustomWeights:

    def test_accepts_unit_sum_vector(self):
        w = custom_weights(PART10, np.array([0, 0.25, 0.75, 0, 0, 0, 0, 0, 0, 0]))
        assert w.weights[1] == pytest.approx(0.25, rel=1e-12)
        assert w.weights[2] == pytest.approx(0.75, rel=1e-12)
        assert w.active_buckets().tolist() == [2, 3]

    def test_float_noise_in_sum_is_renormalised(self):
        raw = np.full(10, 0.1)
        raw[0] += 3e-10
        w = custom_weights(PART10, raw)
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_unnormalised_vector(self):
        with pytest.raises(ValueError, match="sum to 1"):
            custom_weights(PART10, np.array([0, 1, 3, 0, 0, 0, 0, 0, 0, 0], float))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="10"):
            custom_weights(PART10, np.full(4, 0.25))

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            AllocationWeights(np.array([0.5, -0.5, 1.0]))
        with pytest.raises(ValueError):
            AllocationWeights(np.array([0.5, float("nan"), 0.5]))
        with pytest.raises(ValueError):
            AllocationWeights(np.zeros(5))


class TestAllocateEpoch:
    """One epoch's capital deployed across buckets: ``deploy`` on one row,
    valued with the oracle's scalar range math."""

    def anchors(self, part):
        return [part.lower + 1e-9, 2.4, 5.0, 7.3, part.upper - 1e-9,
                float(part.edges[3]), float(part.edges[7])]

    def test_capital_fully_deployed_at_anchor(self):
        rng = np.random.default_rng(21)
        for anchor in self.anchors(PART10):
            raw = rng.random(10) + 0.01
            weights = custom_weights(PART10, raw / raw.sum())
            liq = deploy_row(PART10, weights.weights, 1e6, anchor)
            total = sum(
                position_value(liq[i - 1], bucket_range(PART10, i), anchor, anchor)
                for i in weights.active_buckets()
            )
            assert total == pytest.approx(1e6, rel=1e-9)

    def test_single_bucket_matches_direct_split(self):
        liq = deploy_row(PART10, band_row(PART10, 4, 0), 5000.0, 4.4)
        direct = split_capital(5000.0, 4.4, bucket_range(PART10, 4))
        assert liq[3] == pytest.approx(direct.liquidity, rel=1e-12)
        assert np.count_nonzero(liq) == 1

    def test_zero_weight_means_zero_liquidity(self):
        raw = np.array([0, 0, 1, 1, 0, 0, 2, 0, 0, 0], float)
        w = custom_weights(PART10, raw / raw.sum())
        liq = deploy_row(PART10, w.weights, 1e4, 5.5)
        assert set((np.flatnonzero(liq) + 1).tolist()) == {3, 4, 7}
        assert liq[0] == 0.0

    def test_value_splits_proportionally_to_weights(self):
        raw = np.array([1, 0, 2, 0, 3, 0, 0, 0, 0, 4], float)
        weights = custom_weights(PART10, raw / raw.sum())
        liq = deploy_row(PART10, weights.weights, 2e5, 6.1)
        for i in weights.active_buckets():
            v = position_value(liq[i - 1], bucket_range(PART10, i), 6.1, 6.1)
            assert v == pytest.approx(2e5 * weights.weights[i - 1], rel=1e-9)

    def test_buckets_above_anchor_hold_token_a_only(self):
        w = band_row(PART10, 8, 1)
        liq = deploy_row(PART10, w, 1e4, 2.0)
        for i in np.flatnonzero(liq) + 1:
            rng = bucket_range(PART10, i)
            l = liq[i - 1]
            assert l * rng.delta_x > 0
            # value held entirely in token A: worth w_i * W at the anchor
            assert l * rng.delta_x * 2.0 == pytest.approx(1e4 * w[i - 1], rel=1e-9)

    def test_buckets_below_anchor_hold_token_b_only(self):
        w = band_row(PART10, 2, 1)
        liq = deploy_row(PART10, w, 1e4, 9.0)
        for i in np.flatnonzero(liq) + 1:
            assert liq[i - 1] * bucket_range(PART10, i).delta_y == pytest.approx(
                1e4 * w[i - 1], rel=1e-9)
