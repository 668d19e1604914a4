"""Partition layout, edge ownership, and reset epoch segmentation."""

import numpy as np
import pytest

from clmm_backtest.bucketing import (BucketPartition, Epoch, EpochPlan,
                                     segment_epochs)
from oracle import bucket_range

P1_11 = BucketPartition(1.0, 11.0, 10)


def segment_by_rescan(partition, prices, tau):
    """Independent re-scan: walk the series with scalar bucket lookups."""
    s = partition.bucket_of(float(prices[0]))
    start = 0
    out = []
    for i in range(1, len(prices)):
        b = partition.bucket_of(float(prices[i]))
        if abs(b - s) > tau:
            out.append((start, i, s))
            start, s = i, b
    out.append((start, len(prices) - 1, s))
    return out


def random_partition(rng):
    lower = 10.0 ** rng.uniform(-2, 3)
    upper = lower * (1.0 + 10.0 ** rng.uniform(-1, 2))
    return BucketPartition(lower, upper, int(rng.integers(1, 51)))


class TestBucketPartition:

    def test_reference_layout(self):
        assert P1_11.width == pytest.approx(1.0, rel=1e-12)
        assert P1_11.edge(2) == pytest.approx(3.0, rel=1e-12)
        assert P1_11.edge(3) == pytest.approx(4.0, rel=1e-12)

    def test_interior_edge_belongs_to_higher_bucket(self):
        assert P1_11.bucket_of(4.0) == 4
        assert P1_11.bucket_of(3.0) == 3
        assert P1_11.bucket_of(3.5) == 3

    def test_bounds_ownership(self):
        assert P1_11.bucket_of(1.0) == 1
        assert P1_11.bucket_of(11.0) == 10

    def test_single_bucket_near_infinite_range(self):
        wide = BucketPartition(1e-14, 1e15, 1)
        assert wide.bucket_of(2000.0) == 1
        assert wide.edge(0) == 1e-14
        assert wide.edge(1) == 1e15

    @pytest.mark.parametrize("lower,upper,n", [
        (1.0, 11.0, 0), (1.0, 11.0, -3), (1.0, 11.0, 2.5), (1.0, 11.0, True),
        (11.0, 1.0, 10), (4.0, 4.0, 10), (0.0, 4.0, 10), (-1.0, 4.0, 10),
        (float("nan"), 4.0, 10), (1.0, float("inf"), 10),
    ])
    def test_rejects_bad_layouts(self, lower, upper, n):
        with pytest.raises(ValueError):
            BucketPartition(lower, upper, n)

    def test_outer_edges_are_exact_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            part = random_partition(rng)
            assert part.edge(0) == part.lower
            assert part.edge(part.n) == part.upper

    def test_adjacent_buckets_share_the_edge_float(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            part = random_partition(rng)
            for i in range(1, part.n):
                # every bucket is a valid range for the scalar oracle
                assert bucket_range(part, i).p_b == bucket_range(part, i + 1).p_a

    def test_bucket_of_lands_between_its_edges(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            part = random_partition(rng)
            for p in rng.uniform(part.lower, part.upper, 40):
                b = part.bucket_of(float(p))
                assert part.edge(b - 1) <= p
                assert p < part.edge(b) or b == part.n

    def test_vectorised_lookup_matches_scalar(self):
        rng = np.random.default_rng(10)
        part = random_partition(rng)
        prices = rng.uniform(part.lower, part.upper, 500)
        vec = part.bucket_indices(prices)
        assert all(int(v) == part.bucket_of(float(p)) for v, p in zip(vec, prices))

    def test_out_of_partition_price_raises(self):
        with pytest.raises(ValueError):
            P1_11.bucket_of(0.5)
        with pytest.raises(ValueError):
            P1_11.bucket_of(11.5)
        with pytest.raises(ValueError, match="index 2"):
            P1_11.bucket_indices(np.array([2.0, 3.0, 12.0]))

    def test_midpoints_centre_each_bucket(self):
        mids = P1_11.midpoints()
        assert mids == pytest.approx(np.arange(1.5, 11.5), rel=1e-12)


def guess(part, p):
    """The lookup's first guess, floor((p - lower) n / (upper - lower))."""
    return min(int((p - part.lower) * (part.n / (part.upper - part.lower))), part.n - 1)


@pytest.fixture
def searches(monkeypatch):
    """The prices the lookup leaves to a binary search."""
    found, search = [], np.searchsorted
    monkeypatch.setattr(np, "searchsorted",
                        lambda a, v, **kw: found.extend(np.ravel(v).tolist()) or search(a, v, **kw))
    return found


class TestBucketColumn:
    """The arithmetic lookup: a guess from the price, one edge comparison
    each way, and a search for rows the comparisons cannot place."""

    def test_guess_one_bucket_too_high_moves_down(self, searches):
        part = BucketPartition(7.9, 21.2, 7)
        p = float(np.nextafter(part.edges[3], -np.inf))  # 13.6, edge 3 rounds up
        assert guess(part, p) == 3
        assert part.bucket_column([p]).tolist() == [2]
        assert part.bucket_of(p) == 3
        assert searches == []

    def test_guess_one_bucket_too_low_moves_up(self, searches):
        part = BucketPartition(0.1, 0.7, 3)
        p = float(part.edges[1])  # 0.3, edge 1 rounds down
        assert guess(part, p) == 0
        assert part.bucket_column([p]).tolist() == [1]
        assert part.bucket_of(p) == 2
        assert searches == []

    def test_rows_beyond_one_bucket_are_searched(self, searches):
        # a partition 16 ulps wide at 2**-1020: n / (upper - lower)
        # overflows, so every guess is bucket 0, and only the search places
        # prices two or more buckets up
        lower = 2.0 ** -1020
        part = BucketPartition(lower, lower + 16 * 2.0 ** -1072, 4)
        prices = lower + np.arange(17) * 2.0 ** -1072
        assert part.n / (part.upper - part.lower) == float("inf")
        want = part.edges[1:-1].searchsorted(prices, side="right")
        assert part.bucket_column(prices).tolist() == want.tolist()
        assert searches == prices[want >= 2].tolist()
        assert [part.bucket_of(p) for p in prices.tolist()] == (want + 1).tolist()

    @pytest.mark.parametrize("n,dtype", [(32_767, np.int16), (32_768, np.int32)])
    def test_int16_holds_up_to_32767_buckets(self, n, dtype):
        part = BucketPartition(1.0, 9.0, n)
        prices = np.array([1.0, part.edges[n - 1], 9.0])
        column = part.bucket_column(prices)
        assert column.dtype == dtype
        assert column.tolist() == [0, n - 1, n - 1]
        # the 1-based buckets are formed in int64, so bucket n never wraps
        assert part.bucket_indices(prices).tolist() == [1, n, n]
        plan = segment_epochs(part, np.array([1.0, 9.0]), 0)
        assert list(plan) == [Epoch(0, 1, 1), Epoch(1, 1, n)]

    def test_column_is_read_only(self):
        column = P1_11.bucket_column(np.array([2.0, 11.0]))
        assert not column.flags.writeable
        assert P1_11.bucket_column(np.empty(0)).tolist() == []


class TestSegmentEpochs:

    def test_reference_trace(self):
        part = BucketPartition(0.5, 10.5, 10)
        prices = np.array([2.5, 3.2, 4.7, 4.1, 6.3])
        assert list(part.bucket_indices(prices)) == [3, 3, 5, 4, 6]
        # after the reset at index 2 the benchmark is 5; |6 - 5| = 1 <= tau,
        # so the tail stays in the second epoch
        plan = segment_epochs(part, prices, tau=1)
        assert list(plan) == [Epoch(0, 2, 3), Epoch(2, 4, 5)]

    def test_single_epoch_when_band_never_breaks(self):
        part = BucketPartition(0.5, 10.5, 10)
        prices = np.array([2.5, 3.2, 4.7, 4.1, 6.3])
        plan = segment_epochs(part, prices, tau=9)
        assert list(plan) == [Epoch(0, 4, 3)]
        # the shortcut for tau >= n - 1 fills the bucket column too
        assert plan.buckets.tolist() == [2, 2, 4, 3, 5]

    def test_plan_carries_the_bucket_column(self):
        part = BucketPartition(0.5, 10.5, 10)
        prices = np.array([2.5, 3.2, 4.7, 4.1, 6.3])
        plan = segment_epochs(part, prices, tau=1)
        assert plan.buckets.tolist() == (part.bucket_indices(prices) - 1).tolist()
        assert not plan.buckets.flags.writeable
        # not shown, and absent from plans built from rows
        assert "buckets" not in repr(plan)
        assert EpochPlan(plan.epochs, 5, 1).buckets is None

    def test_tau_zero_resets_on_every_bucket_change(self):
        part = BucketPartition(0.0625, 8.0625, 8)
        prices = np.array([0.5, 1.5, 1.6, 2.5, 0.5])
        plan = segment_epochs(part, prices, tau=0)
        assert [e.benchmark for e in plan] == [1, 2, 3, 1]
        assert [(e.start, e.end) for e in plan] == [(0, 1), (1, 3), (3, 4), (4, 4)]

    def test_epochs_tile_with_shared_boundaries(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            part = random_partition(rng)
            prices = rng.uniform(part.lower, part.upper, int(rng.integers(2, 400)))
            tau = int(rng.integers(0, 6))
            plan = segment_epochs(part, prices, tau)
            eps = list(plan)
            assert eps[0].start == 0
            assert eps[-1].end == len(prices) - 1
            for a, b in zip(eps, eps[1:]):
                assert b.start == a.end

    def test_band_respected_inside_and_broken_at_trigger(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            part = random_partition(rng)
            prices = rng.uniform(part.lower, part.upper, int(rng.integers(2, 400)))
            tau = int(rng.integers(0, 6))
            plan = segment_epochs(part, prices, tau)
            buckets = part.bucket_indices(prices)
            eps = list(plan)
            for k, ep in enumerate(eps):
                assert buckets[ep.start] == ep.benchmark or k > 0
                last_inside = ep.end - 1 if k < len(eps) - 1 else ep.end
                for i in range(ep.start, last_inside + 1):
                    assert abs(int(buckets[i]) - ep.benchmark) <= tau
                if k < len(eps) - 1:
                    assert abs(int(buckets[ep.end]) - ep.benchmark) > tau
                    assert eps[k + 1].benchmark == int(buckets[ep.end])

    def test_matches_independent_rescan(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            part = random_partition(rng)
            prices = rng.uniform(part.lower, part.upper, int(rng.integers(2, 500)))
            tau = int(rng.integers(0, 8))
            plan = segment_epochs(part, prices, tau)
            assert [(e.start, e.end, e.benchmark) for e in plan] \
                == segment_by_rescan(part, prices, tau)

    def test_out_of_partition_price_rejected(self):
        with pytest.raises(ValueError):
            segment_epochs(P1_11, np.array([2.0, 12.0]), tau=1)

    @pytest.mark.parametrize("tau", [-1, 0.5, 1.5, True, False])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError):
            segment_epochs(P1_11, np.array([2.0, 3.0]), tau)

    def test_numpy_integers_accepted(self):
        part = BucketPartition(1.0, 11.0, np.int64(10))
        prices = np.array([2.5, 4.5, 2.5])
        assert list(segment_epochs(part, prices, np.uint8(1))) \
            == [Epoch(0, 1, 2), Epoch(1, 2, 4), Epoch(2, 2, 2)]

    @pytest.mark.parametrize("n,tau", [(40_000, 3), (40_000, 0), (20_000, 19_998),
                                       (60, 4), (60, 58)])
    def test_long_bands_and_wide_partitions_match_rescan(self, n, tau):
        # runs that change bucket at nearly every row but keep within tau
        # of their first bucket span far more change points than the range
        # tables look ahead (127); then the price jumps to a new run, some
        # of them across bucket 32,767, the int16 limit
        rng = np.random.default_rng(n + tau)
        part = BucketPartition(1.0, 9.0, n)
        spread = tau // 2
        centres = np.minimum([32_767, 5, 32_768, n, 32_766, n // 2], n)
        runs = [np.clip(c + rng.integers(-spread, spread + 1, length), 1, n)
                for c, length in zip(centres, [700, 1, 300, 129, 2000, 5])]
        b = np.concatenate(runs) - 1
        prices = part.edges[b] + rng.random(len(b)) * part.width * 0.99
        plan = segment_epochs(part, prices, tau)
        assert [(e.start, e.end, e.benchmark) for e in plan] \
            == segment_by_rescan(part, prices, tau)

    @pytest.mark.parametrize("changes", [1, 126, 127, 128, 129, 254, 255, 256, 1000])
    def test_breaks_around_the_horizon(self, changes):
        # alternating buckets 3 and 4 keep within tau = 1 of bucket 3 for
        # ``changes`` change points, then bucket 9 breaks the band
        prices = np.append(np.where(np.arange(changes + 1) % 2, 4.5, 3.5), 9.5)
        plan = segment_epochs(P1_11, prices, 1)
        assert list(plan) == [Epoch(0, changes + 1, 3), Epoch(changes + 1, changes + 1, 9)]


class TestEpochPlanInvariants:

    def test_table_rows_and_epochs(self):
        part = BucketPartition(0.5, 10.5, 10)
        plan = segment_epochs(part, np.array([2.5, 3.2, 4.7, 4.1, 6.3]), tau=1)
        assert plan.epochs.dtype == np.int64
        assert plan.epochs.tolist() == [[0, 2, 3], [2, 4, 5]]
        assert not plan.epochs.flags.writeable
        assert plan[1] == Epoch(2, 4, 5) and plan[-1] == Epoch(2, 4, 5)
        assert all(type(x) is int for ep in plan for x in ep)
        assert len(plan) == 2

    def test_accepts_a_table(self):
        table = np.array([[0, 2, 3], [2, 4, 6]])
        plan = EpochPlan(table, series_length=5, tau=1)
        table[0, 0] = 9  # the plan keeps its own copy
        assert list(plan) == [Epoch(0, 2, 3), Epoch(2, 4, 6)]

    @pytest.mark.parametrize("epochs", [(), np.empty((0, 3)), [(0, 4)]])
    def test_rejects_empty_or_misshapen(self, epochs):
        with pytest.raises(ValueError):
            EpochPlan(epochs, series_length=5, tau=1)

    def test_rejects_gap_between_epochs(self):
        with pytest.raises(ValueError, match="share a boundary"):
            EpochPlan((Epoch(0, 2, 3), Epoch(3, 4, 6)), series_length=5, tau=1)

    def test_rejects_benchmarks_within_band(self):
        with pytest.raises(ValueError, match="more than tau"):
            EpochPlan((Epoch(0, 2, 3), Epoch(2, 4, 4)), series_length=5, tau=1)

    def test_rejects_incomplete_coverage(self):
        with pytest.raises(ValueError, match="cover the series"):
            EpochPlan((Epoch(0, 3, 3),), series_length=5, tau=1)
