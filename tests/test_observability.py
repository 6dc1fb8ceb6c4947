"""Observability subsystem tests: registry/tracer units, merge
properties (hypothesis), estimator-vs-measured agreement, and the
``repro serve`` artifact schemas."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.motion_probe import MotionClass
from repro.analysis.texture import TextureClass
from repro.cli import main as cli_main
from repro.codec.config import FrameType
from repro.observability import (
    DEFAULT_TIME_BUCKETS,
    NULL_SPAN,
    MetricsRegistry,
    SpanTracer,
    format_metrics,
    get_registry,
    get_tracer,
    scoped,
)
from repro.observability.metrics import HistogramValue
from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.video.generator import (
    BioMedicalVideoGenerator,
    ContentClass,
    GeneratorConfig,
    MotionPreset,
)
from repro.workload.estimator import WorkloadEstimator
from repro.workload.keys import WorkloadKey


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_accumulates_per_label(self):
        reg = MetricsRegistry()
        reg.inc("requests_total", result="hit")
        reg.inc("requests_total", 2.0, result="hit")
        reg.inc("requests_total", result="miss")
        assert reg.value("requests_total", result="hit") == 3.0
        assert reg.value("requests_total", result="miss") == 1.0
        assert reg.value("requests_total", result="other") is None

    def test_counters_only_go_up(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.inc("requests_total", -1.0)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("margin_seconds", 0.5, slot=0)
        reg.set_gauge("margin_seconds", -0.25, slot=0)
        assert reg.value("margin_seconds", slot=0) == -0.25

    def test_histogram_bucket_placement(self):
        reg = MetricsRegistry()
        for v in (0.5, 1.0, 1.5, 5.0):
            reg.observe("dur", v, buckets=(1.0, 2.0))
        hist = reg.value("dur")
        assert isinstance(hist, HistogramValue)
        # <=1.0 -> first bucket (inclusive upper bound), 1.5 -> second,
        # 5.0 -> implicit +Inf overflow.
        assert hist.bucket_counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(8.0)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.inc("x_total")
        with pytest.raises(ValueError):
            reg.set_gauge("x_total", 1.0)

    def test_snapshot_roundtrip(self):
        reg = MetricsRegistry()
        reg.inc("c_total", 3, mode="proposed", help="a counter")
        reg.set_gauge("g", 1.25)
        reg.observe("h_seconds", 0.02)
        data = json.loads(reg.to_json())
        assert data["version"] == 1
        rebuilt = MetricsRegistry.from_dict(data)
        assert rebuilt.to_dict() == reg.to_dict()

    def test_snapshot_deterministic_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("one"), a.inc("two", shard="x"), a.inc("two", shard="a")
        b.inc("two", shard="a"), b.inc("two", shard="x"), b.inc("one")
        assert a.to_json() == b.to_json()

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.inc("req_total", 2, path="a b", help="requests")
        reg.observe("lat_seconds", 0.5, buckets=(1.0, 2.0))
        text = reg.to_prometheus_text()
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{path="a b"} 2' in text
        # Cumulative buckets end at +Inf == _count.
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="2"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_sum 0.5" in text
        assert "lat_seconds_count 1" in text

    def test_format_metrics_pretty_printer(self):
        reg = MetricsRegistry()
        reg.inc("c_total", 4, mode="khan", help="encoded")
        reg.observe("h_seconds", 0.25)
        out = format_metrics(reg.to_dict())
        assert "c_total" in out and "encoded" in out
        assert "{mode=khan}" in out
        assert "count=1" in out


class TestMerge:
    def test_counters_add_gauges_overwrite(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c_total", 2)
        b.inc("c_total", 3)
        a.set_gauge("g", 1.0)
        b.set_gauge("g", 7.0)
        a.merge(b)
        assert a.value("c_total") == 5.0
        assert a.value("g") == 7.0

    def test_histograms_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 0.5, buckets=(1.0, 2.0))
        b.observe("h", 1.5, buckets=(1.0, 2.0))
        a.merge(b.to_dict())  # dict form, as pool workers report
        hist = a.value("h")
        assert hist.count == 2
        assert hist.bucket_counts == [1, 1, 0]

    def test_kind_conflict_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("x")
        b.set_gauge("x", 1.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_bucket_mismatch_raises(self):
        a = HistogramValue(buckets=(1.0, 2.0))
        b = HistogramValue(buckets=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge(b)


# ----------------------------------------------------------------------
# Merge algebra (hypothesis property tests)
# ----------------------------------------------------------------------
_values = st.lists(
    st.floats(min_value=0.0, max_value=20.0,
              allow_nan=False, allow_infinity=False),
    max_size=30,
)


def _hist_of(values):
    hist = HistogramValue(DEFAULT_TIME_BUCKETS)
    for v in values:
        hist.observe(v)
    return hist


class TestMergeProperties:
    @given(_values, _values)
    @settings(max_examples=50, deadline=None)
    def test_histogram_merge_commutative(self, xs, ys):
        ab, ba = _hist_of(xs), _hist_of(ys)
        ab.merge(_hist_of(ys))
        ba.merge(_hist_of(xs))
        assert ab.bucket_counts == ba.bucket_counts
        assert ab.count == ba.count
        assert ab.sum == ba.sum  # float addition is commutative

    @given(_values, _values, _values)
    @settings(max_examples=50, deadline=None)
    def test_histogram_merge_associative(self, xs, ys, zs):
        left = _hist_of(xs)
        left.merge(_hist_of(ys))
        left.merge(_hist_of(zs))
        inner = _hist_of(ys)
        inner.merge(_hist_of(zs))
        right = _hist_of(xs)
        right.merge(inner)
        assert left.bucket_counts == right.bucket_counts
        assert left.count == right.count
        assert left.sum == pytest.approx(right.sum)

    @given(_values, _values)
    @settings(max_examples=50, deadline=None)
    def test_histogram_merge_preserves_count_and_sum(self, xs, ys):
        merged = _hist_of(xs)
        merged.merge(_hist_of(ys))
        assert merged.count == len(xs) + len(ys)
        assert sum(merged.bucket_counts) == merged.count
        assert merged.sum == pytest.approx(math.fsum(xs + ys))

    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                              st.integers(0, 100)), max_size=20),
           st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                              st.integers(0, 100)), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_registry_counter_merge_commutative(self, xs, ys):
        def reg_of(items):
            reg = MetricsRegistry()
            for label, v in items:
                reg.inc("work_total", v, shard=label)
            return reg

        ab = reg_of(xs)
        ab.merge(reg_of(ys))
        ba = reg_of(ys)
        ba.merge(reg_of(xs))
        # Integer-valued counters: merge order cannot matter.
        assert ab.to_dict() == ba.to_dict()


# ----------------------------------------------------------------------
# Span tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_tracer_is_noop(self):
        tracer = SpanTracer(enabled=False)
        span = tracer.span("x", a=1)
        assert span is NULL_SPAN  # shared singleton, no allocation
        with span:
            pass
        tracer.event("e")
        tracer.record_span("r", 0.5)
        assert len(tracer) == 0

    def test_nesting_depth_parent_and_order(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("outer", frame=1):
            with tracer.span("inner"):
                tracer.event("tick", n=2)
        records = tracer.records()
        # Spans append on exit: children complete before parents.
        assert [r.name for r in records] == ["tick", "inner", "outer"]
        by_name = {r.name: r for r in records}
        assert by_name["outer"].seq == 0 and by_name["outer"].depth == 0
        assert by_name["inner"].parent == by_name["outer"].seq
        assert by_name["inner"].depth == 1
        assert by_name["tick"].parent == by_name["inner"].seq
        assert by_name["tick"].kind == "event"
        assert by_name["tick"].attrs == {"n": 2}
        # Entry order is recoverable by seq.
        assert sorted(r.seq for r in records) == [0, 1, 2]

    def test_record_span_attaches_to_context(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("parent"):
            tracer.record_span("worker", 0.125, tile=3)
        worker = next(r for r in tracer.records() if r.name == "worker")
        assert worker.kind == "span"
        assert worker.duration_s == 0.125
        assert worker.parent == 0 and worker.depth == 1

    def test_ring_buffer_evicts_oldest(self):
        tracer = SpanTracer(capacity=4, enabled=True)
        for i in range(10):
            tracer.event("e", i=i)
        records = tracer.records()
        assert len(records) == 4
        assert [r.attrs["i"] for r in records] == [6, 7, 8, 9]

    def test_to_jsonl(self, tmp_path):
        tracer = SpanTracer(enabled=True)
        with tracer.span("a"):
            tracer.event("b")
        path = tmp_path / "trace.jsonl"
        assert tracer.to_jsonl(str(path)) == 2
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert {l["name"] for l in lines} == {"a", "b"}
        for line in lines:
            assert {"seq", "kind", "name", "start_s", "duration_s",
                    "depth", "parent", "attrs"} <= set(line)

    def test_scoped_swaps_globals(self):
        outer_reg, outer_tracer = get_registry(), get_tracer()
        with scoped() as (reg, tracer):
            assert get_registry() is reg and reg is not outer_reg
            assert get_tracer() is tracer and tracer is not outer_tracer
        assert get_registry() is outer_reg
        assert get_tracer() is outer_tracer


# ----------------------------------------------------------------------
# Estimator vs tracer-measured tile times
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def instrumented_run():
    """One traced transcoding run with a shared estimator."""
    video = BioMedicalVideoGenerator(GeneratorConfig(
        width=96, height=80, num_frames=8, seed=5,
        content_class=ContentClass.BRAIN, motion=MotionPreset.PAN_RIGHT,
        motion_magnitude=2.0,
    )).generate()
    estimator = WorkloadEstimator()
    with scoped() as (registry, tracer):
        tracer.enable()
        StreamTranscoder(
            PipelineConfig(fps=24.0), estimator=estimator
        ).run(video)
        records = tracer.records()
        snapshot = registry.to_dict()
    return estimator, records, snapshot


class TestEstimatorVsMeasured:
    def test_lut_estimates_match_recorded_tile_times(self, instrumented_run):
        estimator, records, _ = instrumented_run
        events = [r for r in records if r.name == "tile.record"]
        assert events, "pipeline emitted no tile.record events"
        groups = {}
        for rec in events:
            a = rec.attrs
            key = WorkloadKey(
                texture=TextureClass[a["texture"]],
                motion=MotionClass[a["motion"]],
                qp=a["qp"],
                search_window=a["window"],
                frame_type=FrameType(a["type"]),
                area_bucket=a["area_bucket"],
                content_class=None,
            )
            groups.setdefault(key, []).append(a["cpu_time_fmax"])
        for key, measured in groups.items():
            predicted = estimator.estimate(key, area=2 ** key.area_bucket)
            mean = sum(measured) / len(measured)
            # The LUT keeps an exact running mean per key; the simulated
            # times are deterministic, so prediction tracks measurement
            # tightly (tolerance covers only float accumulation order).
            assert predicted == pytest.approx(mean, rel=1e-6), (
                f"LUT prediction {predicted} != measured mean {mean} "
                f"for {key}"
            )

    def test_lookup_counters(self, instrumented_run):
        estimator, records, _ = instrumented_run
        with scoped() as (registry, _tracer):
            keys = {
                WorkloadKey(
                    texture=TextureClass[r.attrs["texture"]],
                    motion=MotionClass[r.attrs["motion"]],
                    qp=r.attrs["qp"],
                    search_window=r.attrs["window"],
                    frame_type=FrameType(r.attrs["type"]),
                    area_bucket=r.attrs["area_bucket"],
                )
                for r in records if r.name == "tile.record"
            }
            for key in keys:
                estimator.estimate(key, area=2 ** key.area_bucket)
            assert registry.value(
                "repro_lut_lookups_total", result="hit"
            ) == len(keys)
            assert registry.value(
                "repro_lut_lookups_total", result="miss"
            ) is None

    def test_update_counter_matches_tiles(self, instrumented_run):
        _, records, snapshot = instrumented_run
        tiles = sum(1 for r in records if r.name == "tile.record")
        updates = next(
            m for m in snapshot["metrics"]
            if m["name"] == "repro_lut_updates_total"
        )
        assert updates["samples"][0]["value"] == tiles


# ----------------------------------------------------------------------
# `repro serve` artifact schemas
# ----------------------------------------------------------------------
REQUIRED_SPAN_NAMES = {
    "stage.tiling", "stage.analysis", "stage.encode", "stage.motion",
    "stage.entropy", "pipeline.frame", "tile.record",
    "allocator.allocate", "allocator.decision", "server.serve",
}


class TestServeArtifacts:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("serve")
        metrics_path = out / "metrics.json"
        trace_path = out / "trace.jsonl"
        with scoped():
            rc = cli_main([
                "serve", "--videos", "1", "--frames", "6", "--users", "4",
                "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
            ])
        assert rc == 0
        metrics = json.loads(metrics_path.read_text())
        trace = [json.loads(l) for l in trace_path.read_text().splitlines()]
        return metrics, trace

    def test_metrics_schema(self, artifacts):
        metrics, _ = artifacts
        assert metrics["version"] == 1
        assert metrics["metrics"], "empty metrics snapshot"
        for fam in metrics["metrics"]:
            assert fam["kind"] in ("counter", "gauge", "histogram")
            assert fam["name"].startswith("repro_")
            assert fam["samples"]
            for sample in fam["samples"]:
                assert isinstance(sample["labels"], dict)
                if fam["kind"] == "histogram":
                    hist = sample["value"]
                    assert sum(hist["bucket_counts"]) == hist["count"]
                else:
                    assert isinstance(sample["value"], (int, float))

    def test_metrics_cover_serving_stack(self, artifacts):
        metrics, _ = artifacts
        names = {fam["name"] for fam in metrics["metrics"]}
        assert {
            "repro_frames_encoded_total",
            "repro_tiles_encoded_total",
            "repro_tile_cpu_seconds",
            "repro_lut_updates_total",
            "repro_allocator_runs_total",
            "repro_allocator_users_admitted_total",
            "repro_dvfs_core_level_total",
            "repro_server_users_served",
            "repro_slot_deadline_margin_seconds",
        } <= names

    def test_trace_schema_and_stage_coverage(self, artifacts):
        _, trace = artifacts
        assert trace, "empty trace"
        for line in trace:
            assert {"seq", "kind", "name", "start_s", "duration_s",
                    "depth", "parent", "attrs"} <= set(line)
            assert line["kind"] in ("span", "event")
            assert line["duration_s"] >= 0.0
        names = {line["name"] for line in trace}
        assert REQUIRED_SPAN_NAMES <= names, (
            f"missing spans: {REQUIRED_SPAN_NAMES - names}"
        )

    def test_allocator_decision_covers_slots(self, artifacts):
        metrics, trace = artifacts
        decision = next(l for l in trace if l["name"] == "allocator.decision")
        assert decision["attrs"]["admitted"] == sorted(
            decision["attrs"]["admitted"]
        )
        dvfs = next(m for m in metrics["metrics"]
                    if m["name"] == "repro_dvfs_core_level_total")
        # Every active core slot picked a DVFS level.
        assert sum(s["value"] for s in dvfs["samples"]) >= 1
        for sample in dvfs["samples"]:
            assert int(sample["labels"]["freq_mhz"]) > 0

    def test_metrics_cli_pretty_printer(self, artifacts, tmp_path, capsys):
        metrics, _ = artifacts
        path = tmp_path / "m.json"
        path.write_text(json.dumps(metrics))
        assert cli_main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro_frames_encoded_total" in out
        assert cli_main(["metrics", str(path), "--prom"]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_frames_encoded_total counter" in prom
        assert "repro_tile_cpu_seconds_bucket" in prom


# ----------------------------------------------------------------------
# Benchmark tracer: its hooks name entry points in src/
# ----------------------------------------------------------------------
class TestBenchmarkTracerInstalls:
    def test_tracer_hooks_resolve(self):
        # perfbench/tracing.py wraps public entry points by name; a
        # rename in src/ must fail here, not only in the traced
        # benchmark run.  A subprocess keeps the monkeypatching out of
        # this test session.
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from tracing import Recorder, install; install(Recorder())")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(root / "perfbench")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
