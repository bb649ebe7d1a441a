"""The percentile rule and the reconciliation arithmetic."""

import statistics

import pytest

import stats
from harness import Sample
from layers import batch_sizes, match_access


class TestPercentileRule:
    @pytest.mark.parametrize("n, q, expected", [
        (100, 90.0, True),    # exactly ten beyond p90
        (99, 90.0, False),
        (1000, 99.0, True),
        (999, 99.0, False),
        (20, 50.0, True),
        (19, 50.0, False),
        (47, 90.0, False),    # a 20 s plan_sparse run
        (10000, 99.9, True),
        (9999, 99.9, False),
    ])
    def test_supported_needs_ten_beyond(self, n, q, expected):
        assert stats.supported(n, q) is expected

    def test_tail_count(self):
        assert stats.tail_count(2000, 99.0) == 20.0
        assert stats.tail_count(47, 90.0) == 4.7


class TestPercentile:
    def test_interpolates_between_ranks(self):
        values = [float(v) for v in range(101)]
        assert stats.percentile(values, 90.0) == 90.0
        assert stats.percentile([1.0, 2.0], 50.0) == 1.5
        assert stats.percentile([4.0, 1.0, 3.0, 2.0], 100.0) == 4.0
        assert stats.percentile([4.0, 1.0, 3.0, 2.0], 0.0) == 1.0

    def test_single_sample(self):
        assert stats.percentile([7.0], 99.0) == 7.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50.0)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 101.0)

    def test_median_and_mean(self):
        assert stats.median([3.0, 1.0, 2.0]) == 2.0
        assert stats.mean([1.0, 2.0, 6.0]) == 3.0


class TestReconciliation:
    LAYER_TIMES = {"tsp": 0.40, "candidates": 0.02, "serialize": 0.005}

    def test_unattributed_closes_the_wall(self):
        wall = 0.43
        rest = stats.unattributed(self.LAYER_TIMES, wall)
        assert rest == pytest.approx(0.005)
        assert sum(self.LAYER_TIMES.values()) + rest == pytest.approx(wall)

    def test_shares_plus_unattributed_is_one(self):
        wall = 0.5
        shares = stats.shares(self.LAYER_TIMES, wall)
        assert shares["tsp"] == pytest.approx(0.8)
        rest = stats.unattributed(self.LAYER_TIMES, wall) / wall
        assert sum(shares.values()) + rest == pytest.approx(1.0)

    def test_shares_of_nothing_are_zero(self):
        assert stats.shares({"tsp": 0.0}, 0.0) == {"tsp": 0.0}

    def test_client_latency_split_sums_back(self):
        parts = stats.split_latency(client_s=0.050, server_s=0.046,
                                    queue_s=0.001, compute_s=0.040)
        assert parts["http"] == pytest.approx(0.004)
        assert parts["handler"] == pytest.approx(0.005)
        assert sum(parts.values()) == pytest.approx(0.050)

    def test_summarize_uses_exclusive_quartiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        summary = stats.summarize(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert (summary["q1"], summary["q3"]) == (q1, q3)
        assert summary["spread"] == pytest.approx((q3 - q1) / 5.5)
        with pytest.raises(ValueError):
            stats.summarize([1.0])


def _sample(digest):
    return Sample(0.0, 0.0, 0.01, 200, "hit", None, digest, b"")


class TestAccessJoin:
    def test_match_is_fifo_per_digest(self):
        records = [{"digest": "a", "n": 1}, {"digest": "b", "n": 2},
                   {"digest": "a", "n": 3}]
        matched = match_access(
            [_sample("a"), _sample("a"), _sample("b"), _sample("c")],
            records)
        assert [m and m["n"] for m in matched] == [1, 3, 2, None]

    def test_joined_requests_form_one_batch(self):
        records = [
            {"digest": "a", "queue_wait_s": 0.1, "compute_s": 0.2},
            {"digest": "a", "queue_wait_s": 0.1, "compute_s": 0.2},
            {"digest": "a", "queue_wait_s": 0.3, "compute_s": 0.2},
            {"digest": "b", "queue_wait_s": 0.1, "compute_s": 0.2},
        ]
        assert sorted(batch_sizes(records)) == [1, 1, 2]
