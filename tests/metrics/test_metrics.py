"""Unit tests for metric collection, analysis and reporting."""

import pytest

from repro.metrics.analysis import makespan, throughput_jobs_per_minute
from repro.metrics.collector import MetricsRegistry, TimeSeries
from repro.metrics.reporting import ascii_table, banner, format_percent, format_series
from repro.workloads.jobs import JobStats


def job(sub, start, end, failed=False):
    s = JobStats("j", submitted_at=sub, started_at=start, finished_at=end)
    s.failed = failed
    return s


class TestTimeSeries:
    def test_record_and_len(self):
        ts = TimeSeries("x")
        ts.record(0, 1.0)
        ts.record(1, 2.0)
        assert len(ts) == 2
        assert ts.mean() == 1.5
        assert ts.max() == 2.0
        assert ts.last() == 2.0

    def test_time_must_not_go_backwards(self):
        ts = TimeSeries()
        ts.record(5, 1.0)
        with pytest.raises(ValueError):
            ts.record(4, 1.0)

    def test_window_mean(self):
        ts = TimeSeries()
        for t in range(10):
            ts.record(t, float(t))
        assert ts.window_mean(0, 5) == pytest.approx(2.0)
        assert ts.window_mean(100, 200) == 0.0

    def test_window_mean_t1_exclusive(self):
        # [t0, t1): the sample at t1 belongs to the next window, so
        # adjacent windows partition the series with no double counting.
        ts = TimeSeries()
        for t in range(10):
            ts.record(t, float(t))
        assert ts.window_mean(0, 3) == pytest.approx(1.0)  # samples 0,1,2
        assert ts.window_mean(3, 6) == pytest.approx(4.0)  # samples 3,4,5
        assert ts.window_mean(9, 9.5) == pytest.approx(9.0)  # t0 inclusive

    def test_window_mean_rejects_inverted_window(self):
        ts = TimeSeries()
        ts.record(0, 1.0)
        with pytest.raises(ValueError):
            ts.window_mean(5.0, 2.0)

    def test_resample_buckets(self):
        ts = TimeSeries()
        for t in range(10):
            ts.record(t * 0.5, float(t))
        coarse = ts.resample(1.0)
        assert len(coarse) < len(ts)
        with pytest.raises(ValueError):
            ts.resample(0)

    def test_resample_final_partial_bucket_kept(self):
        # 0..10 s at step 4: buckets [0,4), [4,8) and the partial [8,10]
        # must all appear, the last averaged like any full one.
        ts = TimeSeries()
        for t in range(11):
            ts.record(float(t), float(t))
        coarse = ts.resample(4.0)
        assert coarse.times == [0.0, 4.0, 8.0]
        assert coarse.values == pytest.approx([1.5, 5.5, 9.0])

    def test_resample_sample_on_final_edge_opens_new_bucket(self):
        # end - start an exact multiple of step: the sample sitting on the
        # final edge opens its own bucket instead of merging backwards.
        ts = TimeSeries()
        for t in range(9):  # 0..8, step 4 → edges at 0, 4, 8
            ts.record(float(t), float(t))
        coarse = ts.resample(4.0)
        assert coarse.times == [0.0, 4.0, 8.0]
        assert coarse.values == pytest.approx([1.5, 5.5, 8.0])

    def test_resample_float_edges_stable(self):
        # 0.1 is not exactly representable; 3 * 0.1 / 0.3 floors to 0 with
        # naive float bucketing. Every edge-adjacent sample must still land
        # in the bucket it opens, and no sample may be dropped.
        ts = TimeSeries()
        n = 30
        for i in range(n):
            ts.record(i * 0.1, 1.0)
        coarse = ts.resample(0.3)
        assert len(coarse) == 10
        assert coarse.times == pytest.approx([i * 0.3 for i in range(10)])
        # All samples accounted for: every bucket holds exactly 3 samples
        # of value 1.0, so each mean is exactly 1.0.
        assert coarse.values == pytest.approx([1.0] * 10)

    def test_resample_empty(self):
        assert len(TimeSeries().resample(1.0)) == 0

    def test_empty_series(self):
        ts = TimeSeries()
        assert ts.mean() == 0.0
        assert ts.last() is None


class TestRegistry:
    def test_counters(self):
        reg = MetricsRegistry()
        reg.incr("jobs")
        reg.incr("jobs", 2)
        assert reg.counter("jobs") == 3
        assert reg.counter("ghost") == 0

    def test_series_creation(self):
        reg = MetricsRegistry()
        reg.record("util", 0.0, 0.5)
        assert reg.timeseries("util").values == [0.5]


class TestAnalysis:
    def test_makespan(self):
        stats = [job(0, 1, 10), job(5, 6, 30)]
        assert makespan(stats) == 30.0

    def test_makespan_ignores_failed_and_unfinished(self):
        stats = [job(0, 1, 10), job(0, 1, 99, failed=True), JobStats("pending")]
        assert makespan(stats) == 10.0

    def test_throughput(self):
        stats = [job(0, 1, 30), job(0, 1, 60)]
        assert throughput_jobs_per_minute(stats) == pytest.approx(2.0)

    def test_throughput_empty(self):
        assert throughput_jobs_per_minute([]) == 0.0


class TestReporting:
    def test_ascii_table_contains_cells(self):
        table = ascii_table(["a", "bb"], [[1, 2.345], ["x", None]])
        assert "| a" in table
        assert "2.35" in table  # default precision 2
        assert "-" in table  # None rendering

    def test_bool_rendering(self):
        table = ascii_table(["f"], [[True], [False]])
        assert "yes" in table and "no" in table

    def test_title(self):
        assert ascii_table(["x"], [[1]], title="T1").startswith("T1")

    def test_format_series_downsamples(self):
        ts = TimeSeries("util")
        for t in range(100):
            ts.record(t, 0.5)
        text = format_series(ts, max_points=10)
        assert text.count("t=") == 10

    def test_format_series_empty(self):
        assert "(empty)" in format_series(TimeSeries("x"))

    def test_format_percent(self):
        assert format_percent(0.123) == "12.3%"

    def test_banner_width(self):
        assert len(banner("hi", width=40)) == 40
