"""Statistics helpers: percentiles, formatting, KS distance."""

import math

import pytest
from hypothesis import given, strategies as st

from meowsim.stats import (
    compute_stats,
    ns_to_us_str,
    percentile_nearest_rank,
)

from conftest import ks_critical_value, ks_statistic_uniform, us_str_to_ns


class TestPercentile:
    def test_nearest_rank_examples(self):
        data = list(range(1, 11))  # 1..10
        assert percentile_nearest_rank(data, 0.50) == 5
        assert percentile_nearest_rank(data, 0.99) == 10
        assert percentile_nearest_rank(data, 0.10) == 1
        assert percentile_nearest_rank(data, 1.00) == 10

    def test_single_value(self):
        assert percentile_nearest_rank([7], 0.5) == 7
        assert percentile_nearest_rank([7], 0.99) == 7

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile_nearest_rank([], 0.5)
        with pytest.raises(ValueError):
            percentile_nearest_rank([1], 0.0)
        with pytest.raises(ValueError):
            percentile_nearest_rank([1], 1.5)

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=200))
    def test_percentile_is_a_data_point(self, values):
        values = sorted(values)
        for q in (0.01, 0.5, 0.99, 1.0):
            assert percentile_nearest_rank(values, q) in values


class TestComputeStats:
    def test_known_batch(self):
        s = compute_stats([90_000, 100_000, 110_000, 120_000])
        assert s.count == 4
        assert s.min_ns == 90_000
        assert s.max_ns == 120_000
        assert s.jitter_ns == 30_000
        assert s.mean_ns == 105_000.0
        # population stddev of {90,100,110,120}k
        assert s.stddev_ns == pytest.approx(math.sqrt(125_000_000))
        assert s.p50_ns == 100_000
        assert s.p99_ns == 120_000

    def test_histogram_bins_are_microseconds(self):
        s = compute_stats([90_100, 90_900, 91_000, 121_900])
        assert s.histogram == ((90, 2), (91, 1), (121, 1))

    def test_single_value_has_zero_jitter(self):
        s = compute_stats([83_700])
        assert s.jitter_ns == 0
        assert s.stddev_ns == 0.0
        assert s.p50_ns == s.p99_ns == 83_700

    def test_order_independent(self):
        a = compute_stats([3, 1, 2])
        b = compute_stats([1, 2, 3])
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_stats([])

    def test_to_dict_roundtrips_histogram(self):
        s = compute_stats([1_000, 1_500, 2_000])
        d = s.to_dict()
        assert d["histogram_us"] == [[1, 2], [2, 1]]
        assert d["count"] == 3


class TestMicrosecondFormatting:
    def test_reference_values(self):
        assert ns_to_us_str(120_800) == "120.8"
        assert ns_to_us_str(90_000) == "90.0"
        assert ns_to_us_str(83_700) == "83.7"
        assert ns_to_us_str(0) == "0.0"

    def test_round_half_up_off_grid(self):
        assert ns_to_us_str(90_049) == "90.0"
        assert ns_to_us_str(90_050) == "90.1"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ns_to_us_str(-1)

    def test_inverse_on_grid(self):
        for ns in (0, 100, 90_000, 121_900, 186_900, 412_000):
            assert us_str_to_ns(ns_to_us_str(ns)) == ns

    @given(st.integers(0, 10**7).map(lambda k: k * 100))
    def test_roundtrip_exact_on_100ns_grid(self, ns):
        assert us_str_to_ns(ns_to_us_str(ns)) == ns

    def test_us_str_needs_one_decimal(self):
        with pytest.raises(ValueError):
            us_str_to_ns("90")
        with pytest.raises(ValueError):
            us_str_to_ns("90.00")


class TestKolmogorovSmirnov:
    def test_perfect_grid_is_close(self):
        n = 1_000
        values = [int((i + 0.5) * 32_000 / n) for i in range(n)]
        assert ks_statistic_uniform(values, 0, 32_000) < 0.002

    def test_degenerate_sample_is_far(self):
        assert ks_statistic_uniform([0] * 100, 0, 32_000) == 1.0

    def test_half_range_sample(self):
        # all mass in the lower half: distance 0.5
        n = 2_000
        values = [int(i * 16_000 / n) for i in range(n)]
        d = ks_statistic_uniform(values, 0, 32_000)
        assert d == pytest.approx(0.5, abs=0.01)

    def test_critical_value_at_one_percent(self):
        # sqrt(-ln(0.005)/2)/sqrt(1000)
        assert ks_critical_value(1_000) == pytest.approx(0.051473, abs=1e-5)
        assert ks_critical_value(100, alpha=0.05) == pytest.approx(0.13581, abs=1e-4)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ks_statistic_uniform([], 0, 10)
        with pytest.raises(ValueError):
            ks_statistic_uniform([1], 10, 10)
