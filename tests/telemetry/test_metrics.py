"""Unit tests for the metrics registry and its exporters."""

import json

import pytest

from repro.core.profile import RuntimeProfile
from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import LATENCY_BUCKETS


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("queries_total")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_sets_and_increments(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("relation_rows", relation="path")
        gauge.set(10)
        gauge.inc(-3)
        assert gauge.value == 7

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        export = histogram.export()
        assert export["count"] == 4
        assert export["sum"] == pytest.approx(55.55)
        assert export["buckets"] == {"0.1": 1, "1.0": 2, "10.0": 3}

    def test_default_latency_buckets_cover_sub_ms_to_tens_of_seconds(self):
        assert LATENCY_BUCKETS[0] <= 0.001
        assert LATENCY_BUCKETS[-1] >= 10.0

    def test_same_name_same_labels_is_the_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", relation="path")
        b = registry.counter("hits", relation="path")
        c = registry.counter("hits", relation="edge")
        assert a is b and a is not c

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")


class TestProfileFolding:
    def test_absorb_profile_maps_every_counter_family(self):
        profile = RuntimeProfile()
        profile.record_iteration(0, 1, 10, None, 0.0)
        profile.record_iteration(0, 2, 5, None, 0.0)
        profile.sources.vectorized = 4
        profile.sources.interpreted = 2
        profile.block_joins["batches"] = 6
        profile.block_joins["candidates"] = 9
        profile.result_sizes["path"] = 15
        profile.record_cache_probes(3, 1)
        profile.pool_degradations = 1
        registry = MetricsRegistry()
        registry.absorb_profile(profile)
        snapshot = registry.snapshot()
        assert snapshot["engine_iterations_total"] == 2
        assert snapshot["rows_derived_total"] == 15
        assert snapshot["subqueries_total{source=vectorized}"] == 4
        assert snapshot["subqueries_total{source=interpreted}"] == 2
        assert snapshot["vectorized_batches_total{kind=batches}"] == 6
        assert snapshot["vectorized_head_rows_total{kind=candidates}"] == 9
        assert snapshot["relation_rows{relation=path}"] == 15
        assert snapshot["snapshot_cache_total{result=hit}"] == 3
        assert snapshot["snapshot_cache_total{result=miss}"] == 1
        assert snapshot["pool_degradations_total"] == 1

    def test_absorb_adds_counters_but_sets_gauges(self):
        registry = MetricsRegistry()
        for rows in (10, 4):
            profile = RuntimeProfile()
            profile.record_iteration(0, 1, rows, None, 0.0)
            profile.result_sizes["path"] = rows
            registry.absorb_profile(profile)
        snapshot = registry.snapshot()
        assert snapshot["rows_derived_total"] == 14  # added
        assert snapshot["relation_rows{relation=path}"] == 4  # last wins


class TestExporters:
    def filled(self):
        registry = MetricsRegistry()
        registry.counter("queries_total").inc(2)
        registry.counter("result_cache_total", result="hit").inc()
        registry.gauge("symbol_table_size").set(30)
        registry.histogram("query_seconds", buckets=(0.1, 1.0)).observe(0.05)
        return registry

    def test_snapshot_keys_are_stable_and_label_sorted(self):
        registry = MetricsRegistry()
        registry.counter("c", b="2", a="1").inc()
        assert list(registry.snapshot()) == ["c{a=1,b=2}"]

    def test_to_json_is_valid_and_matches_snapshot(self):
        registry = self.filled()
        assert json.loads(registry.to_json()) == json.loads(
            json.dumps(registry.snapshot(), default=str)
        )

    def test_prometheus_text_format(self):
        text = self.filled().to_prometheus()
        lines = text.splitlines()
        assert "# TYPE repro_queries_total counter" in lines
        assert "repro_queries_total 2" in lines
        assert 'repro_result_cache_total{result="hit"} 1' in lines
        assert "# TYPE repro_symbol_table_size gauge" in lines
        assert "repro_symbol_table_size 30" in lines
        assert 'repro_query_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_query_seconds_bucket{le="+Inf"} 1' in lines
        assert "repro_query_seconds_count 1" in lines
        # One TYPE line per family, even with several labelled children.
        assert text.count("# TYPE repro_result_cache_total") == 1


class TestHistogramQuantiles:
    def test_quantiles_interpolate_within_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(10.0, 20.0, 30.0))
        for value in range(1, 21):   # uniform 1..20
            histogram.observe(float(value))
        # p50: target rank 10 of 20 lands exactly at the 10.0 bound.
        assert histogram.quantile(0.5) == pytest.approx(10.0)
        # p95: rank 19 sits in the (10, 20] bucket, 9/10 of the way through.
        assert histogram.quantile(0.95) == pytest.approx(19.0)
        assert histogram.quantile(1.0) == pytest.approx(20.0)

    def test_quantile_beyond_last_bound_clamps(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0,))
        histogram.observe(100.0)
        assert histogram.quantile(0.99) == pytest.approx(1.0)

    def test_empty_histogram_quantile_is_zero(self):
        registry = MetricsRegistry()
        assert registry.histogram("h", buckets=(1.0,)).quantile(0.95) == 0.0

    def test_quantile_validates_range(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)

    def test_export_includes_quantiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 10.0))
        histogram.observe(0.5)
        export = histogram.export()
        assert set(export) >= {"count", "sum", "p50", "p95", "p99"}

    def test_prometheus_emits_summary_quantile_lines(self):
        registry = MetricsRegistry()
        registry.histogram("query_seconds", buckets=(0.1, 1.0)).observe(0.05)
        lines = registry.to_prometheus().splitlines()
        assert any(
            line.startswith('repro_query_seconds{quantile="0.5"}')
            for line in lines
        )
        assert any('quantile="0.95"' in line for line in lines)
        assert any('quantile="0.99"' in line for line in lines)


class TestRegistryRows:
    def test_rows_cover_every_series_with_kind(self):
        registry = MetricsRegistry()
        registry.counter("queries_total").inc(3)
        registry.gauge("symbol_table_size").set(7)
        registry.histogram("query_seconds", buckets=(1.0,)).observe(0.5)
        rows = registry.rows()
        as_map = {(name, labels, kind): value
                  for name, labels, kind, value in rows}
        assert as_map[("queries_total", "", "counter")] == 3.0
        assert as_map[("symbol_table_size", "", "gauge")] == 7.0
        assert as_map[("query_seconds", "", "histogram_count")] == 1.0
        assert ("query_seconds", "", "histogram_p95") in as_map

    def test_rows_render_labels_like_snapshot_keys(self):
        registry = MetricsRegistry()
        registry.counter("c", b="2", a="1").inc()
        ((name, labels, kind, value),) = registry.rows()
        assert (name, labels, kind, value) == ("c", "a=1,b=2", "counter", 1.0)
