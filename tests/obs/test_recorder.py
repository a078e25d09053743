"""Tests for the span tracer, the null recorder and the exporters."""

import json
import os
import pickle
import threading

from repro import obs
from repro.obs import NullRecorder, Recorder


class TestNullRecorder:
    def test_is_the_default(self):
        assert obs.get_recorder() is obs.NULL_RECORDER
        assert not obs.enabled()

    def test_all_operations_are_noops(self):
        null = NullRecorder()
        with null.span("anything", key="value"):
            null.count("c")
            null.gauge("g", 1.0)

    def test_span_is_one_shared_instance(self):
        null = NullRecorder()
        assert null.span("a") is null.span("b")

    def test_module_level_helpers_hit_the_null_recorder(self):
        with obs.span("x"):
            obs.count("c")
            obs.gauge("g", 2.0)


class TestSpans:
    def test_span_records_event(self):
        rec = Recorder()
        with obs.use(rec):
            with obs.span("work", item=3):
                pass
        events = rec.events()
        assert len(events) == 1
        assert events[0].name == "work"
        assert events[0].path == "work"
        assert events[0].dur_ns >= 0
        assert events[0].args == (("item", 3),)

    def test_nested_spans_build_paths(self):
        rec = Recorder()
        with obs.use(rec):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        paths = [e.path for e in rec.events()]
        assert paths == ["outer/inner", "outer"]

    def test_sibling_spans_share_parent_path(self):
        rec = Recorder()
        with obs.use(rec):
            with obs.span("outer"):
                with obs.span("a"):
                    pass
                with obs.span("b"):
                    pass
        assert [e.path for e in rec.events()] == ["outer/a", "outer/b", "outer"]

    def test_span_paths_are_per_thread(self):
        rec = Recorder()

        def worker():
            with rec.span("thread-span"):
                pass

        with obs.use(rec):
            with rec.span("main-span"):
                t = threading.Thread(target=worker)
                t.start()
                t.join()
        by_name = {e.name: e for e in rec.events()}
        # The other thread's span must not inherit this thread's stack.
        assert by_name["thread-span"].path == "thread-span"

    def test_aggregate_spans_sorted_by_total(self):
        rec = Recorder()
        with obs.use(rec):
            for _ in range(3):
                with obs.span("hot"):
                    for _ in range(50):
                        pass
            with obs.span("cold"):
                pass
        agg = rec.aggregate_spans()
        assert agg["hot"][0] == 3
        assert agg["cold"][0] == 1
        totals = [total for _, total in agg.values()]
        assert totals == sorted(totals, reverse=True)

    def test_use_restores_previous_recorder(self):
        rec = Recorder()
        before = obs.get_recorder()
        with obs.use(rec):
            assert obs.get_recorder() is rec
        assert obs.get_recorder() is before


class TestSnapshots:
    def test_snapshot_is_picklable(self):
        rec = Recorder()
        with rec.span("w", n=1):
            rec.count("c", 2)
            rec.gauge("g", 0.5)
        snapshot = rec.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_merge_snapshot_sums_counters_and_appends_events(self):
        worker = Recorder()
        with worker.span("task"):
            worker.count("items", 5)
        parent = Recorder()
        parent.count("items", 1)
        parent.merge_snapshot(worker.snapshot())
        parent.merge_snapshot(worker.snapshot())
        assert parent.metrics.counter("items") == 11
        assert len(parent.events()) == 2

    def test_merge_snapshot_folds_histograms(self):
        worker = Recorder()
        worker.histogram("lat", 2.0)
        worker.histogram("lat", 8.0)
        parent = Recorder()
        parent.histogram("lat", 4.0)
        parent.merge_snapshot(worker.snapshot())
        stats = parent.metrics.histogram_stats("lat")
        assert stats["count"] == 3
        assert stats["min"] == 2.0
        assert stats["max"] == 8.0

    def test_merge_snapshot_appends_run_events(self):
        worker = Recorder()
        worker.event("fault.injected", kind="eio")
        parent = Recorder()
        parent.event("run.start", points=4)
        parent.merge_snapshot(worker.snapshot())
        names = [e["event"] for e in parent.run_events()]
        assert names == ["run.start", "fault.injected"]

    def test_attached_event_log_sees_local_and_merged_events(self, tmp_path):
        from repro.obs.events import EventLog, load_events

        log = EventLog(tmp_path / "events.jsonl", run_id="abc123")
        parent = Recorder()
        parent.attach_event_log(log)
        parent.event("run.start", points=1)
        worker = Recorder()
        worker.event("task.retry", count=1)
        parent.merge_snapshot(worker.snapshot())
        parent.event("run.finish", points=1)
        events, corrupt = load_events(tmp_path / "events.jsonl")
        assert corrupt == 0
        assert [e["event"] for e in events] == [
            "run.start",
            "task.retry",
            "run.finish",
        ]
        assert {e["run"] for e in events} == {"abc123"}


class TestMetricsRecorder:
    def test_keeps_metrics_and_drops_spans_and_events(self):
        rec = obs.MetricsRecorder()
        with obs.use(rec):
            with obs.stage("s"):
                obs.count("c", 2)
        assert rec.metrics.counter("c") == 2
        assert rec.metrics.histogram_stats("stage.s_ms")["count"] == 1
        assert rec.events() == [] and rec.run_events() == []

    def test_merge_snapshot_keeps_only_metrics(self):
        worker = Recorder()
        with worker.span("task"):
            worker.count("items", 5)
            worker.histogram("lat", 2.0)
            worker.event("task.retry", count=1)
        parent = obs.MetricsRecorder()
        parent.merge_snapshot(worker.snapshot())
        assert parent.metrics.counter("items") == 5
        assert parent.metrics.histogram_stats("lat")["count"] == 1
        assert parent.events() == [] and parent.run_events() == []


class TestChromeTrace:
    def _trace(self):
        rec = Recorder()
        with rec.span("outer", layer="conv1"):
            with rec.span("inner"):
                pass
        return rec, rec.chrome_trace()

    def test_top_level_shape(self):
        _, trace = self._trace()
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        assert trace["displayTimeUnit"] == "ms"

    def test_complete_events_schema(self):
        rec, trace = self._trace()
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == len(rec.events())
        for event in complete:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert isinstance(event["ts"], float)
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0

    def test_timestamps_rebased_to_earliest_span(self):
        _, trace = self._trace()
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert min(e["ts"] for e in complete) == 0.0

    def test_process_metadata_present(self):
        _, trace = self._trace()
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert any(
            e["name"] == "process_name"
            and e["pid"] == os.getpid()
            and e["args"]["name"] == "repro"
            for e in meta
        )

    def test_worker_pids_get_their_own_process_track(self):
        import dataclasses

        rec = Recorder()
        with rec.span("parent"):
            pass
        worker = Recorder()
        with worker.span("remote"):
            pass
        # Simulate a worker snapshot captured in another process.
        snapshot = worker.snapshot()
        snapshot["events"] = [
            dataclasses.replace(e, pid=99999) for e in snapshot["events"]
        ]
        rec.merge_snapshot(snapshot)
        trace = rec.chrome_trace()
        names = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names[99999] == "repro worker 99999"
        assert names[os.getpid()] == "repro"

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        rec, _ = self._trace()
        target = rec.write_chrome_trace(tmp_path / "trace.json")
        payload = json.loads(target.read_text())
        assert "traceEvents" in payload

    def test_write_metrics(self, tmp_path):
        rec = Recorder()
        rec.count("a", 3)
        target = rec.write_metrics(tmp_path / "metrics.json")
        assert json.loads(target.read_text()) == {
            "counters": {"a": 3},
            "gauges": {},
            "histograms": {},
        }
