"""Tests for repro.obs: metrics registry, tracer, and the farm
instrumentation acceptance check (span aggregates == FarmResult).

Uses the same frozen PlatformCosts as tests/test_farm.py so no ISS
characterization runs.
"""

import io
import json

import pytest

from repro.costs import PlatformCosts
from repro.farm import (FarmSimulator, PreferentialScheduler,
                        TrafficProfile, build_farm, generate_requests,
                        summarize)
from repro.obs import (Counter, DEFAULT_LATENCY_MS_EDGES, Gauge,
                       Histogram, MetricsRegistry, NULL_TRACER, Tracer,
                       configure_tracing, get_tracer, metrics_summary,
                       render_metrics, reset_tracing, tracing_enabled,
                       write_events_jsonl)

BASE_COSTS = PlatformCosts(
    name="base", rsa_public_cycles=631103.0,
    rsa_private_cycles=61433705.5, cipher_cycles_per_byte=703.5,
    hash_cycles_per_byte=50.84375, ecdh_cycles=4451571.0)
OPT_COSTS = PlatformCosts(
    name="optimized", rsa_public_cycles=124890.5,
    rsa_private_cycles=2139136.0, cipher_cycles_per_byte=21.375,
    hash_cycles_per_byte=50.84375, ecdh_cycles=2903293.8)


def _seeded_run(tracer=None, metrics=None, n_requests=120, seed=7):
    requests = generate_requests(TrafficProfile(arrival_rate=80.0),
                                 n_requests, seed=seed)
    sim = FarmSimulator(build_farm(4, BASE_COSTS, OPT_COSTS, 0.5),
                        PreferentialScheduler(), tracer=tracer,
                        metrics=metrics)
    return sim.run(requests)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge()
        g.set(4.0)
        g.add(-1.5)
        assert g.value == 2.5


class TestHistogram:
    def test_bucketing_against_fixed_edges(self):
        h = Histogram(edges=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 50.0, 5000.0):
            h.observe(v)
        # <=1, (1,10], (10,100], overflow
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.min == 0.5 and h.max == 5000.0
        assert h.mean == pytest.approx(sum((0.5, 1.0, 5.0, 50.0, 5000.0))
                                       / 5)

    def test_quantile_returns_bucket_edge(self):
        h = Histogram(edges=(1.0, 10.0, 100.0))
        for v in (0.5, 2.0, 3.0, 20.0):
            h.observe(v)
        assert h.quantile(0.5) == 10.0     # 2nd obs lives in (1,10]
        assert h.quantile(1.0) == 100.0

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            Histogram(edges=(10.0, 1.0))


class TestHistogramQuantileEdges:
    def test_empty_histogram_quantile_is_zero(self):
        h = Histogram(edges=(1.0, 10.0))
        assert h.quantile(0.5) == 0.0
        assert h.quantile(1.0) == 0.0

    def test_q_zero_and_out_of_range_raise(self):
        h = Histogram(edges=(1.0, 10.0))
        h.observe(5.0)
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                h.quantile(bad)

    def test_value_exactly_on_edge_lands_in_that_bucket(self):
        # Edges are inclusive upper bounds: observing exactly 10.0 must
        # fill the (1, 10] bucket, so its quantile reports edge 10.0,
        # not the next bucket's 100.0.
        h = Histogram(edges=(1.0, 10.0, 100.0))
        h.observe(10.0)
        assert h.bucket_counts == [0, 1, 0, 0]
        assert h.quantile(0.5) == 10.0
        assert h.quantile(1.0) == 10.0

    def test_single_observation_every_quantile_is_its_bucket(self):
        h = Histogram(edges=(1.0, 10.0, 100.0))
        h.observe(3.0)
        for q in (0.01, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 10.0

    def test_overflow_bucket_reports_observed_max(self):
        h = Histogram(edges=(1.0, 10.0))
        h.observe(12345.0)
        assert h.quantile(1.0) == 12345.0

    def test_q_one_is_max_bucket_even_with_many_observations(self):
        h = Histogram(edges=(1.0, 10.0, 100.0))
        for v in (0.5, 0.6, 0.7, 50.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 100.0


class TestPrometheusExport:
    def test_counter_and_gauge_samples_with_labels(self):
        reg = MetricsRegistry()
        reg.counter("farm.cache.hits", scheduler="rr", core=3).inc(5)
        reg.gauge("farm.core.utilization", core=0).set(0.75)
        out = render_metrics(reg, format="prometheus")
        assert "# TYPE farm_cache_hits counter" in out
        assert 'farm_cache_hits{core="3",scheduler="rr"} 5' in out
        assert "# TYPE farm_core_utilization gauge" in out
        assert 'farm_core_utilization{core="0"} 0.75' in out

    def test_histogram_expands_to_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_ms", edges=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 5000.0):
            h.observe(v)
        out = render_metrics(reg, format="prometheus")
        assert "# TYPE lat_ms histogram" in out
        assert 'lat_ms_bucket{le="1"} 1' in out
        assert 'lat_ms_bucket{le="10"} 2' in out       # cumulative
        assert 'lat_ms_bucket{le="100"} 3' in out
        assert 'lat_ms_bucket{le="+Inf"} 4' in out
        assert "lat_ms_sum 5055.5" in out
        assert "lat_ms_count 4" in out

    def test_type_line_emitted_once_per_metric_name(self):
        reg = MetricsRegistry()
        reg.counter("hits", core=0).inc()
        reg.counter("hits", core=1).inc()
        out = render_metrics(reg, format="prometheus")
        assert out.count("# TYPE hits counter") == 1

    def test_names_and_label_values_are_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("farm.requests-completed", kind='a"b').inc()
        out = render_metrics(reg, format="prometheus")
        assert 'farm_requests_completed{kind="a\\"b"} 1' in out

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="unknown metrics format"):
            render_metrics(MetricsRegistry(), format="xml")


class TestMetricsRegistry:
    def test_same_name_and_labels_is_one_instrument(self):
        reg = MetricsRegistry()
        reg.counter("hits", core=1).inc()
        reg.counter("hits", core=1).inc()
        reg.counter("hits", core=2).inc()
        assert reg.counter("hits", core=1).value == 2
        assert reg.counter("hits", core=2).value == 1
        assert len(reg) == 2

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.counter("x", a=1, b=2).inc()
        assert reg.counter("x", b=2, a=1).value == 1

    def test_histogram_edge_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("lat", edges=(1.0, 2.0))
        with pytest.raises(ValueError, match="different edges"):
            reg.histogram("lat", edges=(1.0, 3.0))

    def test_as_dict_renders_sorted_label_keys(self):
        reg = MetricsRegistry()
        reg.counter("farm.hits", scheduler="rr", core=3).inc(5)
        reg.gauge("util").set(0.5)
        payload = reg.as_dict()
        assert payload["farm.hits{core=3,scheduler=rr}"] == \
            {"type": "counter", "value": 5.0}
        assert payload["util"]["type"] == "gauge"
        assert list(payload) == sorted(payload)

    def test_summary_and_render_cover_every_instrument(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.histogram("b", edges=DEFAULT_LATENCY_MS_EDGES).observe(3.0)
        assert set(metrics_summary(reg)) == {"a", "b"}
        rendered = render_metrics(reg)
        assert "a" in rendered and "histogram count=1" in rendered


class TestTracer:
    def test_span_nesting_assigns_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", depth=1) as inner:
                tracer.event("tick")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert tracer.events[0].span_id == inner.span_id
        # children finish (and are appended) before their parents
        assert tracer.spans.index(inner) < tracer.spans.index(outer)
        assert inner.start > outer.start and inner.end < outer.end

    def test_span_marks_error_attr_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.spans[0].attrs["error"] is True

    def test_record_uses_caller_timestamps(self):
        tracer = Tracer()
        span = tracer.record("farm.request", start=100.0, end=350.0,
                             core=2)
        assert span.duration == 250.0
        assert tracer.find_spans("farm.request") == [span]

    def test_global_configure_and_reset(self):
        assert not tracing_enabled()
        try:
            tracer = configure_tracing()
            assert tracing_enabled() and get_tracer() is tracer
        finally:
            reset_tracing()
        assert get_tracer() is NULL_TRACER


class TestNullTracerIsFree:
    """The disabled path must not allocate per event."""

    def test_span_returns_the_one_shared_context(self):
        assert NULL_TRACER.span("x") is NULL_TRACER.span("y", a=1)

    def test_record_and_event_return_none(self):
        assert NULL_TRACER.record("s", start=0.0, end=1.0) is None
        assert NULL_TRACER.event("e", time=0.0) is None

    def test_simulator_defaults_to_the_null_singleton(self):
        sim = FarmSimulator(build_farm(2, BASE_COSTS, OPT_COSTS),
                            PreferentialScheduler())
        assert sim.tracer is NULL_TRACER

    def test_null_span_context_is_inert(self):
        with NULL_TRACER.span("x") as span:
            assert span is None


class TestSeededFarmTracing:
    def test_trace_is_deterministic_across_runs(self):
        logs = []
        for _ in range(2):
            tracer = Tracer()
            _seeded_run(tracer=tracer)
            buf = io.StringIO()
            write_events_jsonl(tracer, buf)
            logs.append(buf.getvalue())
        assert logs[0] == logs[1]

    def test_spans_agree_with_farm_result(self):
        """Acceptance check: aggregating the per-request spans
        reproduces the FarmResult/summarize metrics exactly."""
        tracer = Tracer()
        metrics = MetricsRegistry()
        result = _seeded_run(tracer=tracer, metrics=metrics)
        report = summarize(result)
        spans = tracer.find_spans("farm.request")

        assert len(spans) == len(result.completions) == report.completed
        # Latency: span (end - start) is exactly completion latency.
        span_latency = sorted(s.duration for s in spans)
        completion_latency = sorted(c.latency_cycles
                                    for c in result.completions)
        assert span_latency == pytest.approx(completion_latency)
        # Throughput: completions over the trace's makespan.
        makespan = max(s.end for s in spans)
        assert makespan == result.makespan_cycles
        sessions_per_s = len(spans) / (makespan / result.clock_hz)
        assert sessions_per_s == pytest.approx(report.sessions_per_s)
        # Utilization: per-core busy cycles summed from span services.
        for core in result.cores:
            busy = sum(s.attrs["service_cycles"] for s in spans
                       if s.attrs["core"] == core.index)
            assert busy == pytest.approx(core.busy_cycles)
            assert busy / makespan == pytest.approx(
                report.core_utilization[core.index])
        # Cache hits seen by spans match the cores' own counters.
        span_hits = sum(1 for s in spans if s.attrs["cache_hit"])
        assert span_hits == sum(c.cache_for("ssl").hits
                                for c in result.cores)

    def test_metrics_registry_agrees_with_farm_result(self):
        metrics = MetricsRegistry()
        result = _seeded_run(metrics=metrics)
        sched = result.scheduler_name
        assert metrics.counter("farm.requests.completed",
                               scheduler=sched).value == \
            len(result.completions)
        hist = metrics.histogram("farm.request.latency_ms",
                                 scheduler=sched)
        assert hist.count == len(result.completions)
        mean_ms = (sum(c.latency_cycles for c in result.completions)
                   / len(result.completions) / result.clock_hz * 1e3)
        assert hist.mean == pytest.approx(mean_ms)

    def test_queue_depth_events_are_emitted(self):
        tracer = Tracer()
        _seeded_run(tracer=tracer, n_requests=40)
        depths = [e for e in tracer.events
                  if e.name == "farm.core.queue_depth"]
        assert depths
        assert all(e.attrs["depth"] >= 0 for e in depths)

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        _seeded_run(tracer=tracer, n_requests=40)
        path = tmp_path / "trace.jsonl"
        written = write_events_jsonl(tracer, str(path))
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) == written == len(tracer.records())
        kinds = {r["kind"] for r in records}
        assert kinds == {"span", "event"}
