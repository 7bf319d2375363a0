"""Prometheus text exposition over the metric families."""

from repro.metrics.collector import MetricsRegistry
from repro.obs.promfmt import escape_label_value, metric, prometheus_text


def test_counters_exposed_as_counter_families():
    reg = MetricsRegistry()
    reg.incr('repro_token_grants_total{device="g0"}', 3)
    reg.incr('repro_token_grants_total{device="g1"}', 1)
    reg.incr("repro_sched_retries_total", 2)
    text = prometheus_text(reg)
    lines = text.splitlines()
    assert "# TYPE repro_sched_retries_total counter" in lines
    assert "repro_sched_retries_total 2" in lines
    # One TYPE header per family, shared by both labelled children.
    assert lines.count("# TYPE repro_token_grants_total counter") == 1
    assert 'repro_token_grants_total{device="g0"} 3' in lines
    assert 'repro_token_grants_total{device="g1"} 1' in lines


def test_series_exposed_as_gauges_with_last_sample():
    reg = MetricsRegistry()
    reg.record('repro_workqueue_depth{queue="kube-scheduler"}', 1.0, 4)
    reg.record('repro_workqueue_depth{queue="kube-scheduler"}', 2.0, 7)
    text = prometheus_text(reg)
    assert "# TYPE repro_workqueue_depth gauge" in text
    assert 'repro_workqueue_depth{queue="kube-scheduler"} 7' in text


def test_empty_series_reads_zero():
    reg = MetricsRegistry()
    reg.timeseries("repro_etcd_revision_rate")
    assert "repro_etcd_revision_rate 0" in prometheus_text(reg)


def test_float_values_keep_precision():
    reg = MetricsRegistry()
    reg.record('repro_gpu_quota_occupancy{device="g0"}', 1.0, 0.375)
    assert 'repro_gpu_quota_occupancy{device="g0"} 0.375' in prometheus_text(reg)


def test_output_ends_with_newline():
    assert prometheus_text(MetricsRegistry()).endswith("\n")


class TestLabelEscaping:
    def test_backslash_quote_newline_escaped_per_spec(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_metric_builds_escaped_registry_keys(self):
        assert metric("fam") == "fam"
        assert metric("fam", a="x", b='say "hi"') == 'fam{a="x",b="say \\"hi\\""}'

    def test_escaped_values_round_trip_through_exposition(self):
        reg = MetricsRegistry()
        reg.incr(metric("repro_test_total", path='C:\\tmp\n"x"'))
        text = prometheus_text(reg)
        assert 'repro_test_total{path="C:\\\\tmp\\n\\"x\\""} 1' in text


class TestHistogramExposition:
    def test_histogram_family_with_buckets_sum_count(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_latency_seconds", boundaries=(0.1, 1.0, 10.0))
        hist.observe(0.0, 0.05)
        hist.observe(1.0, 0.5)
        hist.observe(2.0, 42.0)
        lines = prometheus_text(reg).splitlines()
        assert "# TYPE repro_latency_seconds histogram" in lines
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_latency_seconds_bucket{le="1.0"} 2' in lines
        assert 'repro_latency_seconds_bucket{le="10.0"} 2' in lines
        assert 'repro_latency_seconds_bucket{le="+Inf"} 3' in lines
        assert "repro_latency_seconds_sum 42.55" in lines
        assert "repro_latency_seconds_count 3" in lines

    def test_labeled_histogram_merges_le_into_label_body(self):
        reg = MetricsRegistry()
        name = metric("repro_reconcile_duration_seconds", controller="devmgr")
        reg.observe(name, 1.0, 0.2, boundaries=(0.5, 5.0))
        lines = prometheus_text(reg).splitlines()
        assert lines.count("# TYPE repro_reconcile_duration_seconds histogram") == 1
        assert (
            'repro_reconcile_duration_seconds_bucket{controller="devmgr",le="0.5"} 1'
            in lines
        )
        assert (
            'repro_reconcile_duration_seconds_bucket{controller="devmgr",le="+Inf"} 1'
            in lines
        )
        assert 'repro_reconcile_duration_seconds_count{controller="devmgr"} 1' in lines
