"""Span tracing, the null recorder, and Chrome trace-event export.

The tracer is hierarchical: spans opened while another span is active on
the same thread record the enclosing path (``dse.explore/mapper.search_layer``),
so a sweep's profile aggregates by call path and a Chrome trace opens in
Perfetto (https://ui.perfetto.dev) with nested slices per process/thread.

Three recorder types share one duck-typed interface:

* :class:`Recorder` -- the live tracer: monotonic ``perf_counter_ns``
  timestamps, a lock-guarded event list (thread-safe), a
  :class:`~repro.obs.metrics.MetricsRegistry`, picklable snapshots so
  worker processes can ship their spans and counters back to the parent,
  and exporters (Chrome trace JSON, metrics JSON/flat text).
* :class:`MetricsRecorder` -- a :class:`Recorder` that keeps the metrics
  and discards spans and run events: the CLI's default ledger.
* :class:`NullRecorder` -- the always-installed default: every method is a
  no-op and ``span()`` returns one shared, stateless context manager, so
  instrumentation left in the code costs one attribute lookup and call
  when observability is off (pinned by ``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.events import make_event
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class SpanEvent:
    """One finished span.

    Attributes:
        name: Span name (dotted, e.g. ``mapper.search_layer``).
        path: Slash-joined enclosing-span names, ending in ``name``.
        start_ns: Monotonic start timestamp (``perf_counter_ns``).
        dur_ns: Duration in nanoseconds.
        pid: Process the span ran in (workers keep their own pid).
        tid: Thread the span ran in.
        args: Extra key-value context, shown in the trace viewer.
    """

    name: str
    path: str
    start_ns: int
    dur_ns: int
    pid: int
    tid: int
    args: tuple[tuple[str, Any], ...] = ()


class _NullSpan:
    """The shared no-op span; also the no-op recorder's context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    Keeping one module-level instance installed by default means call
    sites never branch -- they always talk to *a* recorder -- and the
    disabled cost is a single dynamic dispatch per instrumentation point.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, **args: Any) -> _NullSpan:
        """A no-op context manager (one shared instance)."""
        return _NULL_SPAN

    def count(self, name: str, value: float = 1) -> None:
        """Discard a counter increment."""

    def gauge(self, name: str, value: float) -> None:
        """Discard a gauge write."""

    def histogram(self, name: str, value: float) -> None:
        """Discard a histogram observation."""

    def event(self, name: str, **fields: Any) -> None:
        """Discard a run event."""


class _Span:
    """A live span: context manager recording into its :class:`Recorder`."""

    __slots__ = ("_recorder", "_name", "_args", "_path", "_start_ns")

    def __init__(self, recorder: "Recorder", name: str, args: dict[str, Any]) -> None:
        self._recorder = recorder
        self._name = name
        self._args = args
        self._path = name
        self._start_ns = 0

    def __enter__(self) -> "_Span":
        stack = self._recorder._stack()
        if stack:
            self._path = f"{stack[-1]}/{self._name}"
        stack.append(self._path)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> bool:
        end_ns = time.perf_counter_ns()
        stack = self._recorder._stack()
        if stack and stack[-1] == self._path:
            stack.pop()
        self._recorder._record(
            SpanEvent(
                name=self._name,
                path=self._path,
                start_ns=self._start_ns,
                dur_ns=end_ns - self._start_ns,
                pid=os.getpid(),
                tid=threading.get_ident(),
                args=tuple(sorted(self._args.items())),
            )
        )
        return False


@dataclass
class Recorder:
    """The live observability recorder: spans + metrics + exporters."""

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    enabled = True

    def __post_init__(self) -> None:
        self._events: list[SpanEvent] = []
        self._run_events: list[dict[str, Any]] = []
        self._event_log: Any = None
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._t0_ns = time.perf_counter_ns()

    # --- span tracing ---------------------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def _record(self, event: SpanEvent) -> None:
        with self._lock:
            self._events.append(event)

    def span(self, name: str, **args: Any) -> _Span:
        """Open a span; use as ``with recorder.span("dse.explore"): ...``."""
        return _Span(self, name, args)

    def events(self) -> list[SpanEvent]:
        """Every finished span, in completion order."""
        with self._lock:
            return list(self._events)

    def aggregate_spans(self) -> dict[str, tuple[int, int]]:
        """Per-path ``(call count, total ns)``, total-time-sorted descending."""
        totals: dict[str, tuple[int, int]] = {}
        for event in self.events():
            count, total = totals.get(event.path, (0, 0))
            totals[event.path] = (count + 1, total + event.dur_ns)
        return dict(
            sorted(totals.items(), key=lambda item: item[1][1], reverse=True)
        )

    # --- metrics --------------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name``."""
        self.metrics.count(name, value)

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name``."""
        self.metrics.gauge(name, value)

    def histogram(self, name: str, value: float) -> None:
        """Record one observation in the histogram ``name``."""
        self.metrics.histogram(name, value)

    # --- run events -----------------------------------------------------------

    def attach_event_log(self, event_log: Any) -> None:
        """Stream this recorder's run events to ``event_log``.

        Events already buffered (and worker events merged later) flow
        through :meth:`event`/:meth:`merge_snapshot`; attaching is meant
        to happen before the run starts, on the parent recorder only --
        worker recorders ship their events home via :meth:`snapshot`.
        """
        self._event_log = event_log

    @property
    def event_log(self) -> Any:
        """The attached event log, or ``None``."""
        return self._event_log

    def event(self, name: str, **fields: Any) -> None:
        """Record one run lifecycle event (and stream it, when attached)."""
        record = make_event(name, fields)
        with self._lock:
            self._run_events.append(record)
        if self._event_log is not None:
            self._event_log.append(record)

    def run_events(self) -> list[dict[str, Any]]:
        """Every run event recorded so far, in arrival order."""
        with self._lock:
            return list(self._run_events)

    # --- worker capture -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A picklable capture of everything recorded so far.

        Worker processes return this from
        :func:`repro.core.parallel.run_tasks` tasks; the parent folds it
        back in with :meth:`merge_snapshot`.
        """
        return {
            "counters": self.metrics.counters(),
            "gauges": self.metrics.gauges(),
            "histograms": self.metrics.histograms(),
            "events": self.events(),
            "run_events": self.run_events(),
        }

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Fold a worker snapshot in: counters and histograms sum, gauges
        keep their max (high-water, order-independent), span events append
        (keeping the worker's pid/tid), and run events append -- streaming
        to the attached event log, so worker-side lifecycle events (e.g.
        ``fault.injected``) land in the same JSONL as the parent's."""
        self.metrics.merge(
            snapshot.get("counters"),
            snapshot.get("gauges"),
            snapshot.get("histograms"),
        )
        events = snapshot.get("events") or []
        run_events = snapshot.get("run_events") or []
        with self._lock:
            self._events.extend(events)
            self._run_events.extend(run_events)
        if self._event_log is not None:
            for record in run_events:
                self._event_log.append(record)

    # --- export ---------------------------------------------------------------

    def chrome_trace(self) -> dict[str, Any]:
        """The Chrome trace-event payload (loads in Perfetto / about:tracing).

        Complete-duration (``"ph": "X"``) events with microsecond
        timestamps rebased to the earliest span, plus process/thread
        metadata events naming each track.
        """
        events = self.events()
        origin_ns = min((e.start_ns for e in events), default=self._t0_ns)
        trace_events: list[dict[str, Any]] = []
        tracks: set[tuple[int, int]] = set()
        for event in events:
            tracks.add((event.pid, event.tid))
            trace_events.append(
                {
                    "name": event.name,
                    "cat": event.path,
                    "ph": "X",
                    "ts": (event.start_ns - origin_ns) / 1e3,
                    "dur": event.dur_ns / 1e3,
                    "pid": event.pid,
                    "tid": event.tid,
                    "args": dict(event.args),
                }
            )
        parent_pid = os.getpid()
        for pid in sorted({pid for pid, _ in tracks}):
            role = "repro" if pid == parent_pid else f"repro worker {pid}"
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": role},
                }
            )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Write the Chrome trace JSON; returns the path written."""
        target = Path(path)
        target.write_text(json.dumps(self.chrome_trace(), sort_keys=True))
        return target

    def write_metrics(self, path: str | Path) -> Path:
        """Write the metrics JSON; returns the path written."""
        target = Path(path)
        target.write_text(self.metrics.to_json() + "\n")
        return target


class MetricsRecorder(Recorder):
    """A live recorder that keeps metrics only.

    Counters, gauges and histograms land in :attr:`metrics` exactly as on
    a :class:`Recorder`; spans and run events are discarded at the call
    site (and dropped from merged worker snapshots), so a long sweep's
    memory stays flat.  The CLI runs every command under one of these
    unless a trace, an event log or ``repro profile`` needs the spans.
    """

    def span(self, name: str, **args: Any) -> _NullSpan:
        """A no-op context manager (one shared instance)."""
        return _NULL_SPAN

    def event(self, name: str, **fields: Any) -> None:
        """Discard a run event."""

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Fold a worker snapshot's metrics in; drop its spans and events."""
        self.metrics.merge(
            snapshot.get("counters"),
            snapshot.get("gauges"),
            snapshot.get("histograms"),
        )


__all__ = ["MetricsRecorder", "NullRecorder", "Recorder", "SpanEvent"]
