"""The structured run event log: schema-versioned JSONL telemetry.

Every instrumented sweep can stream its lifecycle -- ``run.start``,
``phase.start``/``phase.finish``, ``point.batch``, ``checkpoint.flush``,
``task.retry``, ``fault.injected``, ``degraded.enter``, ``run.finish`` --
to an append-only JSONL file, one JSON object per line:

``{"v": 1, "run": "<run id>", "seq": 17, "pid": 4242, "t": 1723.4,``
``"event": "point.batch", "done": 32, "total": 126}``

* ``v`` is :data:`EVENT_SCHEMA_VERSION`; loaders reject nothing else, so a
  future bump can change fields without breaking old readers.
* ``run`` is this invocation's :func:`new_run_id` -- it never reaches
  stdout, so the byte-identity contracts survive telemetry being on.
* ``seq`` is a **monotonic per-process** sequence number
  (:func:`next_sequence`); ``(pid, seq)`` uniquely orders events within
  one process even when worker snapshots merge in arbitrary order.
* ``t`` is a wall-clock timestamp (``time.time()``).

Appends go through :func:`repro.durable.append_lines` on the ``events``
sink: a crash tears at most the final line (which :func:`load_events`
tolerates), and a full or failing disk degrades the sink after one warning
-- the sweep's answers are never affected.  The event *set* of a
``--jobs N`` run equals the serial run's (ignoring ``pid``/``seq``/``t``
and the run id): every lifecycle emission point is either parent-side and
scheduling-independent, or merged from worker snapshots like counters.
"""

from __future__ import annotations

import itertools
import json
import os
import time
import uuid
from pathlib import Path
from typing import Any

from repro import durable

#: On-disk schema version stamped into every event line as ``"v"``.
EVENT_SCHEMA_VERSION = 1

#: Default event-log file name inside a run directory.
EVENTS_FILENAME = "events.jsonl"

#: Fields every schema-v1 event line must carry.
REQUIRED_FIELDS = ("v", "run", "seq", "pid", "t", "event")

# The per-process monotonic sequence counter shared by every recorder.
_sequence = itertools.count()


def new_run_id() -> str:
    """A fresh 12-hex-digit run identifier (never printed to stdout)."""
    return uuid.uuid4().hex[:12]


def next_sequence() -> int:
    """The next per-process monotonic event sequence number."""
    return next(_sequence)


def make_event(name: str, fields: dict[str, Any]) -> dict[str, Any]:
    """One schema-v1 event record (without the run id, stamped at append).

    Args:
        name: Dotted event name (``run.start``, ``checkpoint.flush``...).
        fields: Extra JSON-safe payload fields; must not collide with the
            envelope keys (``v``/``run``/``seq``/``pid``/``t``/``event``).
    """
    record: dict[str, Any] = {
        "v": EVENT_SCHEMA_VERSION,
        "seq": next_sequence(),
        "pid": os.getpid(),
        "t": time.time(),
        "event": name,
    }
    for key, value in fields.items():
        if key in record or key == "run":
            raise ValueError(f"event field {key!r} collides with the envelope")
        record[key] = value
    return record


class EventLog:
    """A durable JSONL sink for one run's lifecycle events.

    Attached to the parent's :class:`repro.obs.Recorder`; every event the
    recorder sees (emitted locally or merged from a worker snapshot) is
    stamped with this log's ``run`` id and appended via
    :func:`repro.durable.append_lines` on the ``events`` sink.  Resource
    failures (ENOSPC/EIO) degrade the sink once --
    ``degraded.events`` counter, one warning -- and the run continues
    with an incomplete log and unchanged answers.

    Attributes:
        path: The JSONL file events append to.
        run_id: This run's identifier, stamped into every line.
    """

    def __init__(self, path: str | Path, run_id: str | None = None) -> None:
        self.path = Path(path)
        self.run_id = run_id or new_run_id()
        self._appending = False

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one event record (one line, run-id stamped).

        Re-entrant appends are dropped (kept in recorder memory only):
        fault injection on the ``events`` sink emits a ``fault.injected``
        event *from inside* this append's write, and letting that recurse
        back into the log would loop forever.
        """
        if not durable.sink_enabled("events") or self._appending:
            return
        stamped = dict(record)
        stamped["run"] = self.run_id
        self._appending = True
        try:
            durable.append_lines(
                self.path, [json.dumps(stamped, sort_keys=True)], sink="events"
            )
        finally:
            self._appending = False


def resolve_events_path(target: str | Path) -> Path:
    """The event-log file behind ``target`` (a file or a run directory).

    A ``.jsonl`` path names the log file itself; anything else is a run
    directory (existing or not) holding :data:`EVENTS_FILENAME`, so other
    run artifacts can sit next to the log.
    """
    path = Path(target)
    if path.suffix == ".jsonl" and not path.is_dir():
        return path
    return path / EVENTS_FILENAME


def load_events(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Load an event log, tolerating (and counting) undecodable lines.

    Returns ``(events, corrupt_lines)``.  A torn tail -- the one line a
    crash mid-append can leave -- or any other garbage line is skipped and
    counted, never fatal; a missing file is an empty log.  Lines whose
    schema version is not :data:`EVENT_SCHEMA_VERSION` are counted as
    corrupt rather than misread.
    """
    path = resolve_events_path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        return [], 0
    records, corrupt = durable.parse_lines(text)
    events = [r for r in records if r.get("v") == EVENT_SCHEMA_VERSION]
    return events, corrupt + len(records) - len(events)


def schema_errors(events: list[dict[str, Any]]) -> list[str]:
    """Schema violations in a loaded event list (empty = valid).

    Checks the v1 envelope of every event (required fields, types), that
    all events share one run id, and that the lifecycle brackets are sane:
    at most one ``run.start``/``run.finish``, with ``run.start`` holding
    the lowest parent-process sequence number.
    """
    errors: list[str] = []
    runs = {str(e.get("run")) for e in events}
    if len(runs) > 1:
        errors.append(f"multiple run ids in one log: {sorted(runs)}")
    for index, event in enumerate(events):
        for field in REQUIRED_FIELDS:
            if field not in event:
                errors.append(f"event {index}: missing field {field!r}")
        if not isinstance(event.get("event"), str) or not event.get("event"):
            errors.append(f"event {index}: 'event' must be a non-empty string")
        if not isinstance(event.get("seq"), int):
            errors.append(f"event {index}: 'seq' must be an integer")
        if not isinstance(event.get("pid"), int):
            errors.append(f"event {index}: 'pid' must be an integer")
        if not isinstance(event.get("t"), (int, float)):
            errors.append(f"event {index}: 't' must be a number")
    starts = [e for e in events if e.get("event") == "run.start"]
    finishes = [e for e in events if e.get("event") == "run.finish"]
    if len(starts) > 1:
        errors.append(f"{len(starts)} run.start events (expected at most 1)")
    if len(finishes) > 1:
        errors.append(f"{len(finishes)} run.finish events (expected at most 1)")
    if starts:
        start = starts[0]
        parent = [
            e
            for e in events
            if e.get("pid") == start.get("pid")
            and isinstance(e.get("seq"), int)
        ]
        if any(e["seq"] < start["seq"] for e in parent):
            errors.append("run.start is not the first parent-process event")
    return errors


def canonical_event(event: dict[str, Any]) -> tuple:
    """A hashable jobs-invariant projection of one event.

    Drops the envelope fields that legitimately differ between runs and
    worker counts (``run``, ``seq``, ``pid``, ``t``) and keeps everything
    else, sorted -- the shape the ``--jobs N``-equals-serial set
    comparison uses.
    """
    return tuple(
        sorted(
            (key, value)
            for key, value in event.items()
            if key not in ("run", "seq", "pid", "t")
        )
    )


__all__ = [
    "EVENTS_FILENAME",
    "EVENT_SCHEMA_VERSION",
    "EventLog",
    "REQUIRED_FIELDS",
    "canonical_event",
    "load_events",
    "make_event",
    "new_run_id",
    "next_sequence",
    "resolve_events_path",
    "schema_errors",
]
