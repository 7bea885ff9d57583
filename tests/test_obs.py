"""Tests for the repro.obs observability layer.

Covers the recorder hierarchy (null / metrics / trace), span-tree
nesting across threads, the Chrome trace-event export schema, the
process-global current-recorder plumbing, the deprecation shims of the
old DeviceRuntime API, and the registry's id/name lookup equivalence.
"""

import json
import threading

import pytest

from repro.kernels import get_kernel, is_registered, kernel_ids, list_kernels
from repro.obs import (
    MetricsRecorder,
    MetricsRegistry,
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    chrome_trace,
    get_recorder,
    render_text_snapshot,
    set_recorder,
    use_recorder,
    write_chrome_trace,
)


class TestNullRecorder:
    def test_everything_is_a_noop(self):
        recorder = NullRecorder()
        assert recorder.enabled is False
        with recorder.span("engine.x", k=1):
            recorder.count("c")
            recorder.gauge("g", 1.0)
            recorder.observe("h", 2.0)
            recorder.instant("i")
            recorder.record_span("s", 0.0, 1.0)
        assert recorder.events() == []
        assert recorder.snapshot() == {
            "counters": {}, "histograms": {}, "gauges": {},
        }

    def test_span_handle_is_reusable(self):
        recorder = NullRecorder()
        first = recorder.span("a")
        second = recorder.span("b")
        assert first is second  # the shared no-op context manager


class TestMetricsRecorder:
    def test_counts_and_observations_reach_the_registry(self):
        registry = MetricsRegistry()
        recorder = MetricsRecorder(registry)
        recorder.count("reqs", 3)
        recorder.observe("lat", 5.0)
        recorder.gauge("util", 0.5)
        snap = recorder.snapshot()
        assert snap["counters"]["reqs"] == 3
        assert snap["histograms"]["lat"]["count"] == 1
        assert snap["gauges"]["util"] == 0.5

    def test_spans_are_dropped(self):
        recorder = MetricsRecorder()
        assert recorder.enabled is False
        with recorder.span("service.x"):
            pass
        assert recorder.events() == []


class TestTraceRecorderSpans:
    def test_span_tree_nesting(self):
        recorder = TraceRecorder()
        with recorder.span("service.request"):
            with recorder.span("host.run"):
                with recorder.span("engine.align"):
                    pass
            with recorder.span("host.schedule"):
                pass
        spans = {e.name: e for e in recorder.events() if e.kind == "span"}
        # Innermost spans record first (they exit first).
        assert spans["engine.align"].depth == 2
        assert spans["host.run"].depth == 1
        assert spans["service.request"].depth == 0
        assert spans["service.request"].parent_id is None
        assert spans["host.run"].parent_id == spans["service.request"].span_id
        assert spans["engine.align"].parent_id == spans["host.run"].span_id
        assert spans["host.schedule"].parent_id == \
            spans["service.request"].span_id

    def test_span_timing_is_monotonic_relative(self):
        recorder = TraceRecorder()
        with recorder.span("a"):
            with recorder.span("b"):
                pass
        outer = next(e for e in recorder.events() if e.name == "a")
        inner = next(e for e in recorder.events() if e.name == "b")
        assert outer.ts_s >= 0.0 and inner.ts_s >= outer.ts_s
        assert outer.dur_s >= inner.dur_s >= 0.0

    def test_threads_build_independent_trees(self):
        recorder = TraceRecorder()

        def worker(label):
            with recorder.span(f"outer.{label}"):
                with recorder.span(f"inner.{label}"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = recorder.events()
        assert len(events) == 16
        for k in range(8):
            outer = next(e for e in events if e.name == f"outer.{k}")
            inner = next(e for e in events if e.name == f"inner.{k}")
            assert inner.parent_id == outer.span_id
            assert inner.tid == outer.tid
            assert outer.parent_id is None

    def test_concurrent_counting_is_consistent(self):
        recorder = TraceRecorder()

        def worker():
            for _ in range(200):
                recorder.count("hits")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert recorder.snapshot()["counters"]["hits"] == 800
        samples = [e for e in recorder.events() if e.kind == "counter"]
        assert len(samples) == 800

    def test_buffer_is_bounded(self):
        recorder = TraceRecorder(max_events=5)
        for k in range(9):
            recorder.instant(f"marker.{k}")
        assert len(recorder.events()) == 5
        assert recorder.dropped_events == 4
        recorder.clear()
        assert recorder.events() == []
        assert recorder.dropped_events == 0

    def test_record_span_for_async_intervals(self):
        import time

        recorder = TraceRecorder()
        start = time.monotonic()
        end = start + 0.25
        recorder.record_span("service.request", start, end, request_id="r1")
        event = recorder.events()[0]
        assert event.kind == "span"
        assert event.args["request_id"] == "r1"
        assert event.dur_s == pytest.approx(0.25)

    def test_category_is_the_dotted_prefix(self):
        recorder = TraceRecorder()
        with recorder.span("engine.align"):
            pass
        recorder.instant("plain")
        events = recorder.events()
        assert events[0].category == "engine"  # span records on exit
        assert events[1].category == "plain"


class TestCurrentRecorder:
    def test_default_is_the_null_recorder(self):
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_scopes_and_restores(self):
        recorder = TraceRecorder()
        with use_recorder(recorder) as installed:
            assert installed is recorder
            assert get_recorder() is recorder
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_restores_on_error(self):
        recorder = TraceRecorder()
        with pytest.raises(RuntimeError):
            with use_recorder(recorder):
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER

    def test_set_recorder_returns_previous(self):
        recorder = TraceRecorder()
        previous = set_recorder(recorder)
        try:
            assert previous is NULL_RECORDER
            assert get_recorder() is recorder
        finally:
            set_recorder(previous)


class TestChromeTraceExport:
    def _traced_recorder(self):
        recorder = TraceRecorder()
        with recorder.span("service.batch", size=2):
            with recorder.span("engine.align", kernel="nw"):
                recorder.count("engine.cells", 100)
        recorder.instant("service.flush", trigger="size")
        return recorder

    def test_schema(self):
        trace = chrome_trace(self._traced_recorder())
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"X", "i", "C", "M"} <= phases
        for event in events:
            assert isinstance(event["name"], str)
            assert event["pid"] == 0
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0
                assert event["cat"] in ("service", "engine")
            if event["ph"] == "M":
                assert event["name"] == "thread_name"
                assert "name" in event["args"]

    def test_span_parentage_survives_export(self):
        trace = chrome_trace(self._traced_recorder())
        spans = {
            e["name"]: e for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert spans["engine.align"]["args"]["parent_id"] == \
            spans["service.batch"]["args"]["span_id"]

    def test_counter_events_carry_cumulative_values(self):
        trace = chrome_trace(self._traced_recorder())
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert counters[0]["args"] == {"engine.cells": 100}

    def test_json_serializable_and_writable(self, tmp_path):
        recorder = self._traced_recorder()
        path = tmp_path / "trace.json"
        written = write_chrome_trace(recorder, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(written))

    def test_empty_recorder_yields_valid_trace(self):
        trace = chrome_trace(NullRecorder())
        assert trace["traceEvents"] == []


class TestTextSnapshot:
    def test_renders_every_instrument_kind(self):
        recorder = MetricsRecorder()
        recorder.count("reqs", 7)
        recorder.gauge("util", 0.25)
        recorder.observe("lat", 3.0)
        text = render_text_snapshot(recorder.snapshot())
        assert "counter reqs 7" in text
        assert "gauge util 0.25" in text
        assert "histogram lat count 1" in text
        assert "histogram lat p50 3" in text


class TestInstrumentedStack:
    """The real request path emits spans from every layer."""

    def test_engine_and_host_spans(self):
        from repro.host import DeviceRuntime
        from repro.synth import LaunchConfig

        recorder = TraceRecorder()
        # the per-pair path (systolic here) is the one with a parallel span
        runtime = DeviceRuntime(get_kernel(1), LaunchConfig(
            n_pe=8, n_b=2, n_k=1, max_query_len=64, max_ref_len=64,
        ), backend="systolic")
        with use_recorder(recorder):
            outcome = runtime.run([((0, 1, 2, 3), (0, 1, 2, 3))])
        assert not outcome.errors
        categories = {
            e.category for e in recorder.events() if e.kind == "span"
        }
        assert {"host", "engine", "parallel"} <= categories
        names = {e.name for e in recorder.events() if e.kind == "span"}
        assert {"host.run", "host.execute", "host.schedule",
                "engine.align", "engine.chunk"} <= names
        counters = recorder.snapshot()["counters"]
        assert counters["engine.alignments"] == 1
        assert counters["engine.cells"] > 0
        assert counters["host.pairs"] == 1

    def test_disabled_recorder_changes_nothing(self):
        from repro.host import DeviceRuntime
        from repro.synth import LaunchConfig

        runtime = DeviceRuntime(get_kernel(1), LaunchConfig(
            n_pe=8, n_b=2, n_k=1, max_query_len=64, max_ref_len=64,
        ))
        pair = ((0, 1, 2, 3), (0, 1, 2, 3))
        plain = runtime.run([pair]).results[0]
        with use_recorder(TraceRecorder()):
            traced = runtime.run([pair]).results[0]
        assert plain == traced


class TestNoWallClockTimestamps:
    def test_no_time_time_in_src(self):
        """Elapsed-time measurement must use the monotonic clock."""
        import pathlib

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        offenders = [
            path for path in src.rglob("*.py")
            if "time.time(" in path.read_text(encoding="utf-8")
        ]
        assert offenders == []


class TestRegistryLookup:
    def test_id_name_and_numeric_string_equivalence(self):
        for kid in kernel_ids():
            spec = get_kernel(kid)
            assert get_kernel(spec.name) is spec
            assert get_kernel(str(kid)) is spec
            assert get_kernel(spec) is spec

    def test_unknown_lookups_raise_keyerror(self):
        with pytest.raises(KeyError):
            get_kernel(999)
        with pytest.raises(KeyError):
            get_kernel("no_such_kernel")
        with pytest.raises(KeyError):
            get_kernel("999")

    def test_is_registered(self):
        import dataclasses

        spec = get_kernel(1)
        assert is_registered(spec)
        assert not is_registered(dataclasses.replace(spec, name="copy"))

    def test_list_kernels_metadata(self):
        infos = list_kernels()
        assert [info["id"] for info in infos] == kernel_ids()
        for info in infos:
            spec = get_kernel(info["id"])
            assert info["name"] == spec.name
            assert info["traceback"] == spec.has_traceback
            assert info["alphabet"] == spec.alphabet.name
            json.dumps(info)  # metadata must be JSON-safe
