"""Crash-safe filesystem primitives and graceful write degradation.

Every persistent sink in the tree (the mapping cache, sweep checkpoints
and guided studies, bench records, result writers) funnels its bytes
through the two helpers here:

* :func:`atomic_write` -- write a temp file, ``fsync`` it, rename it over
  the target, then ``fsync`` the parent directory.  A ``kill -9`` at any
  instant leaves either the complete old file or the complete new file,
  never a torn one, and the rename is durable once the call returns.
* :func:`durable_append` -- one ``write`` on an ``O_APPEND`` descriptor
  followed by ``fsync`` (and a parent-directory ``fsync`` when the call
  created the file).  A crash can tear at most the final record, and the
  next append starts a fresh line after it.

Records persist one way: JSONL.  The mapping cache, the sweep checkpoint
and the event log write through :func:`append_lines`, and every JSONL
loader reads through :func:`parse_lines`, which skips blank lines and
counts torn or foreign ones instead of failing.  A file a loader cannot
trust at all is renamed out of the way by :func:`set_aside`.

Both helpers consult the deterministic fault injector
(:mod:`repro.testing.faults`) before touching the disk, so ``REPRO_FAULTS``
specs like ``enospc:0.5@seed=3`` exercise the failure paths in CI.

**Degraded mode.**  Persistent sinks are *accelerators and insurance*, not
inputs: losing the cache or the checkpoint costs wall clock on the next
run, never correctness of this one.  So when a write fails with a
resource-exhaustion error (``ENOSPC``/``EDQUOT``/``EIO``), callers route
it through :func:`record_sink_failure`: the sink is disabled for the rest
of the process with **one** logged warning, the failure lands in the
``resource.<errno-name>`` and ``degraded.<sink>`` observability counters,
and the sweep keeps going -- completing with results identical to a clean
run.  ``fsync``-hostile environments can drop the syncs (not the
atomicity) with ``REPRO_DURABLE_FSYNC=0``.
"""

from __future__ import annotations

import errno as _errno
import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import Any, Sequence

from repro import obs

logger = logging.getLogger("repro.durable")

#: Environment switch: ``0/false/off/no`` skips fsync (atomicity is kept).
DURABLE_FSYNC_ENV = "REPRO_DURABLE_FSYNC"

#: ``errno`` values classified as resource exhaustion (degrade, don't die).
RESOURCE_ERRNOS = frozenset(
    code
    for code in (
        _errno.ENOSPC,
        _errno.EDQUOT,
        _errno.EIO,
        getattr(_errno, "ENOMEM", None),
    )
    if code is not None
)

# Per-sink monotonic write counters consulted by the I/O fault injector
# (process-local, so injected faults are deterministic per run).
_io_indices: dict[str, int] = {}

# Sinks disabled by a resource failure, mapped to the reason string.
_degraded: dict[str, str] = {}


def fsync_enabled() -> bool:
    """Whether the fsync discipline is active (default: yes)."""
    raw = os.environ.get(DURABLE_FSYNC_ENV, "").strip().lower()
    if not raw:
        return True
    return raw not in ("0", "false", "off", "no")


def is_resource_error(exc: BaseException) -> bool:
    """Whether ``exc`` is an OSError signalling resource exhaustion."""
    return isinstance(exc, OSError) and exc.errno in RESOURCE_ERRNOS


def _errno_name(exc: BaseException) -> str:
    """A stable lowercase name for the errno (``enospc``, ``eio``, ...).

    Exceptions without an errno are counted under ``resource.unknown``.
    """
    code = getattr(exc, "errno", None)
    return _errno.errorcode.get(code or 0, "unknown").lower()


def _fault_io(sink: str) -> None:
    """Consult the active fault plan before one write on ``sink``.

    Mirrors :func:`repro.core.parallel._fault_plan`: the harness module is
    only imported when ``REPRO_FAULTS`` is set or a test already installed
    a plan, so production runs never pay the import.
    """
    module = sys.modules.get("repro.testing.faults")
    if module is None:
        if not os.environ.get("REPRO_FAULTS", "").strip():
            return
        from repro.testing import faults as module
    plan = module.active_plan()
    if plan is None:
        return
    index = _io_indices.get(sink, 0)
    _io_indices[sink] = index + 1
    plan.before_io(sink, index)


def _fsync_path(path: Path) -> None:
    """``fsync`` one existing path (file or directory), best-effort-loud.

    Raises the underlying ``OSError`` on resource exhaustion so callers
    can degrade; swallows ``EINVAL`` for filesystems that reject directory
    fsync (some network mounts).
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError as exc:  # pragma: no cover - fs-specific
        if is_resource_error(exc):
            raise
    finally:
        os.close(fd)


def atomic_write(path: str | Path, text: str, sink: str = "file") -> Path:
    """Durably replace ``path`` with ``text`` (write + fsync + rename).

    The write lands in ``<name>.tmp.<pid>`` first, is fsynced, renamed
    over the target, and the parent directory is fsynced -- so a crash at
    any instant leaves either the old complete file or the new complete
    file, and the new file survives power loss once this returns.

    Args:
        path: Target file.
        text: Full new content.
        sink: Logical sink name for fault injection and degradation
            accounting (``"cache"``, ``"checkpoint"``, ``"bench"``...).

    Raises:
        OSError: On any write failure, including injected ``enospc``/
            ``eio`` faults; resource errnos are the caller's cue to
            degrade the sink via :func:`record_sink_failure`.
    """
    path = Path(path)
    _fault_io(sink)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    sync = fsync_enabled()
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
            handle.flush()
            if sync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:  # don't leave a torn temp file behind a failed write
            tmp.unlink()
        except OSError:
            pass
        raise
    if sync:
        _fsync_path(path.parent)
    return path


def durable_append(path: str | Path, text: str, sink: str = "file") -> Path:
    """Durably append ``text`` to ``path`` in one ``write`` call.

    The payload goes out as a single ``write`` on an ``O_APPEND``
    descriptor and is fsynced before the call returns; when the call
    creates the file, the parent directory is fsynced too.  A crash can
    tear at most the final line.  When the file does not end in a newline
    (a torn tail), the payload starts with one, so it is never glued to
    the fragment.  Two appenders racing past the same torn tail can leave
    a blank line, which :func:`parse_lines` skips.

    Raises:
        OSError: On any write failure (see :func:`atomic_write`).
    """
    path = Path(path)
    _fault_io(sink)
    created = not path.exists()
    sync = fsync_enabled()
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        data = text.encode("utf-8")
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        written = os.write(fd, data)
        if written != len(data):  # pragma: no cover - short write on ENOSPC
            raise OSError(_errno.ENOSPC, f"short write on {path}")
        if sync:
            os.fsync(fd)
    finally:
        os.close(fd)
    if created and sync:
        _fsync_path(path.parent)
    return path


def append_lines(path: str | Path, lines: Sequence[str], sink: str) -> bool:
    """Durably append serialized records to ``path``, one per line.

    Creates the parent directory, then sends every line out in one
    fsync'd :func:`durable_append`.  A resource failure degrades ``sink``
    (:func:`record_sink_failure`) and returns ``False``; callers check
    :func:`sink_enabled` before writing again.

    Args:
        path: The JSONL file.
        lines: Serialized records without their trailing newlines.
        sink: Logical sink name for fault injection and degradation.

    Raises:
        OSError: On a write failure that is not resource exhaustion.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        durable_append(path, "".join(line + "\n" for line in lines), sink=sink)
    except OSError as exc:
        if not is_resource_error(exc):
            raise
        record_sink_failure(sink, exc)
        return False
    return True


def parse_lines(text: str) -> tuple[list[dict[str, Any]], int]:
    """The JSON-object lines of ``text``, plus a count of unreadable lines.

    Blank lines are skipped.  A torn line, garbage, or a JSON value that
    is not an object is counted and skipped, never fatal; each loader
    then applies its own schema check to the objects.
    """
    records: list[dict[str, Any]] = []
    bad = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            bad += 1
            continue
        if isinstance(record, dict):
            records.append(record)
        else:
            bad += 1
    return records, bad


def set_aside(path: Path, counter: str, reason: str) -> Path:
    """Rename an unusable state file to ``<name>.corrupt-<ms>``.

    The file is kept for inspection, never deleted; the move is counted
    under ``counter`` and logged once.  Each caller decides what a failed
    rename means.

    Raises:
        OSError: When the rename fails (``FileNotFoundError`` when the
            file is already gone).
    """
    target = path.with_name(f"{path.name}.corrupt-{int(time.time() * 1000)}")
    path.replace(target)
    obs.count(counter)
    logger.warning("set aside unusable %s (%s) -> %s", path, reason, target.name)
    return target


# --- graceful degradation ----------------------------------------------------------


def sink_enabled(sink: str) -> bool:
    """Whether ``sink`` is still accepting writes (not degraded)."""
    return sink not in _degraded


def degraded_sinks() -> dict[str, str]:
    """The currently degraded sinks, mapped to their disable reasons."""
    return dict(_degraded)


def record_sink_failure(sink: str, exc: BaseException) -> None:
    """Disable ``sink`` after a resource-exhaustion write failure.

    Counts the event (``resource.<errno-name>`` and ``degraded.<sink>``)
    and logs exactly one warning per sink per process; subsequent writes
    to the sink are expected to check :func:`sink_enabled` and skip
    silently, so a full disk costs one log line, not one per point.
    """
    obs.count(f"resource.{_errno_name(exc)}")
    if sink in _degraded:
        return
    _degraded[sink] = str(exc)
    obs.count(f"degraded.{sink}")
    # Emitted *after* the sink is marked degraded: when the failing sink
    # is the event log itself, EventLog.append sees it disabled and the
    # event stays in recorder memory only -- no recursion, no re-failure.
    obs.event("degraded.enter", sink=sink, error=_errno_name(exc))
    logger.warning(
        "%s sink disabled after write failure (%s); results are "
        "unaffected, but this run's %s output will be incomplete",
        sink,
        exc,
        sink,
    )


def reset_degraded() -> None:
    """Re-enable every sink and reset fault-injection indices (tests)."""
    _degraded.clear()
    _io_indices.clear()


__all__ = [
    "DURABLE_FSYNC_ENV",
    "RESOURCE_ERRNOS",
    "append_lines",
    "atomic_write",
    "degraded_sinks",
    "durable_append",
    "fsync_enabled",
    "is_resource_error",
    "parse_lines",
    "record_sink_failure",
    "reset_degraded",
    "set_aside",
    "sink_enabled",
]
