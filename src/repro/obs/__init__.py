"""Zero-dependency observability: spans, counters, Chrome-trace export.

One module-level *current recorder* serves the whole process.  It defaults
to the :class:`NullRecorder`, so instrumentation scattered through the
mapper, the DSE sweeps, the simulator and the audit layer costs one no-op
method call per site until something installs a live recorder: the CLI
runs every command under a :class:`MetricsRecorder` (or a full
:class:`Recorder` when ``--trace-out``, ``--events-out`` or ``repro
profile`` needs spans and events), and tests install one via :func:`use`.
The live recorder's metrics are the run's one counter ledger:
:class:`repro.core.parallel.SweepStats` is a read-only view over them.

Typical instrumentation site::

    from repro import obs

    with obs.span("dse.explore", points=len(tasks)):
        ...
    obs.count("dse.points.evaluated", evaluated)

Typical harness::

    recorder = obs.Recorder()
    with obs.use(recorder):
        run_the_sweep()
    recorder.write_chrome_trace("trace.json")   # open in Perfetto
    recorder.write_metrics("metrics.json")

Span/metric naming, the worker-capture protocol and the Perfetto workflow
are documented in ``docs/observability.md``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import MetricsRecorder, NullRecorder, Recorder, SpanEvent

#: The permanently-installed disabled recorder (shared, stateless).
NULL_RECORDER = NullRecorder()

_current: Union[Recorder, NullRecorder] = NULL_RECORDER


def get_recorder() -> Union[Recorder, NullRecorder]:
    """The process-wide current recorder (the null recorder by default)."""
    return _current


def set_recorder(
    recorder: Union[Recorder, NullRecorder],
) -> Union[Recorder, NullRecorder]:
    """Install ``recorder`` as current; returns the previous one."""
    global _current
    previous = _current
    _current = recorder
    return previous


@contextmanager
def use(recorder: Union[Recorder, NullRecorder]) -> Iterator[Union[Recorder, NullRecorder]]:
    """Scope ``recorder`` as current, restoring the previous on exit."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


def enabled() -> bool:
    """Whether a live recorder is installed."""
    return _current.enabled


def span(name: str, **args: Any):
    """Open a span on the current recorder (no-op when disabled)."""
    return _current.span(name, **args)


def count(name: str, value: float = 1) -> None:
    """Bump a counter on the current recorder (no-op when disabled)."""
    _current.count(name, value)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the current recorder (no-op when disabled)."""
    _current.gauge(name, value)


def histogram(name: str, value: float) -> None:
    """Record a histogram observation on the current recorder (no-op when
    disabled)."""
    _current.histogram(name, value)


def event(name: str, **fields: Any) -> None:
    """Record a run lifecycle event on the current recorder (no-op when
    disabled)."""
    _current.event(name, **fields)


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Time one named run stage into the ``stage.<name>_ms`` histogram.

    The stage also opens a ``stage.<name>`` span bracketed by
    ``phase.start``/``phase.finish`` events.  The events carry the phase
    name only -- no duration -- so a run's event *set* stays identical
    across ``--jobs N``.
    """
    with span(f"stage.{name}"):
        event("phase.start", phase=name)
        start = time.perf_counter()
        try:
            yield
        finally:
            histogram(f"stage.{name}_ms", (time.perf_counter() - start) * 1e3)
            event("phase.finish", phase=name)


__all__ = [
    "MetricsRecorder",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "SpanEvent",
    "count",
    "enabled",
    "event",
    "gauge",
    "get_recorder",
    "histogram",
    "set_recorder",
    "span",
    "stage",
    "use",
]
