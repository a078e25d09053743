"""Versioned JSONL checkpoints for the DSE sweep (crash/interrupt safety).

A Figure-15-scale :func:`repro.core.dse.explore` sweep evaluates thousands
of design points; one OOM-killed worker or one Ctrl-C used to throw the
whole run away.  This module persists evaluated design points as they
arrive, so an interrupted sweep restarted with ``--resume`` skips every
point it already evaluated (invalid points are cheaply validated again)
and produces byte-identical output to an uninterrupted run.

Format -- one JSON object per line, append-only:

* a **header** line ``{"kind": "header", "version": 1, "sweep": <digest>}``;
* **point** lines ``{"kind": "point", "key": <task key>, "record": {...}}``.

The file is keyed by a SHA-256 **sweep digest** over everything that
determines a point's result (model layer shapes, MAC budget, the space,
the area budget, search profile, technology point and memory stride), the
same discipline the mapping cache applies to hardware digests: a changed
sweep parameter lands in a different file and never poisons a resume.
Appends are buffered and flushed as one ``write`` on an ``O_APPEND``
descriptor (:func:`repro.durable.append_lines`), so concurrent or killed
writers can at worst leave one torn *tail* line -- the next flush starts a
fresh line after it, and the loader tolerates (and counts) undecodable
lines instead of discarding the checkpoint.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Any

from repro import durable, obs

logger = logging.getLogger("repro.checkpoint")

#: On-disk schema version; bump to invalidate existing checkpoints.
CHECKPOINT_FORMAT_VERSION = 1

#: Environment variable naming the default checkpoint directory.
CHECKPOINT_DIR_ENV = "REPRO_CHECKPOINT_DIR"

#: Default directory name for sweep checkpoints (under the working dir).
DEFAULT_CHECKPOINT_DIRNAME = ".repro_checkpoints"


def sweep_digest(
    models: dict[str, list],
    required_macs: int,
    space: Any,
    max_chiplet_mm2: float | None,
    profile: Any,
    tech: Any,
    memory_stride: int,
    strategy: str = "exhaustive",
    seed: int | None = None,
    trials: int | None = None,
    topology: str = "ring",
) -> str:
    """A stable hex digest of everything a sweep's results depend on.

    The search strategy, sampler seed and trial budget are always part of
    the canonical payload (``exhaustive``/``None``/``None`` for the
    default sweep), so a guided study can never be silently resumed by an
    exhaustive run -- or by a guided run with a different seed or budget.
    """
    from repro.core.mapper import _shape_key

    canonical = json.dumps(
        {
            "models": {
                name: [list(_shape_key(layer)) for layer in layers]
                for name, layers in sorted(models.items())
            },
            "required_macs": required_macs,
            "space": list(dataclasses.astuple(space)),
            "max_chiplet_mm2": max_chiplet_mm2,
            "profile": getattr(profile, "value", str(profile)),
            "tech": dataclasses.asdict(tech),
            "memory_stride": memory_stride,
            "strategy": strategy,
            "seed": seed,
            "trials": trials,
            "topology": topology,
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def task_key(task: tuple) -> str:
    """The canonical string key of one (computation, memory) sweep task."""
    n_p, n_c, lane, vec, memory = task
    return (
        f"{n_p}-{n_c}-{lane}-{vec}"
        f"|a1:{memory.a_l1_bytes}|w1:{memory.w_l1_bytes}"
        f"|o1:{memory.o_l1_bytes}|a2:{memory.a_l2_bytes}"
    )


class SweepCheckpoint:
    """Append-only JSONL store of evaluated design points.

    Attributes:
        path: The checkpoint file (``sweep-<digest16>.jsonl``).
        flush_every: Buffered point records per append (1 = every point).
        corrupt_lines: Undecodable lines tolerated during the last load.
    """

    def __init__(
        self,
        directory: str | Path,
        digest: str,
        flush_every: int = 16,
    ) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.directory = Path(directory)
        self.digest = digest
        self.path = self.directory / f"sweep-{digest[:16]}.jsonl"
        self.flush_every = flush_every
        self.corrupt_lines = 0
        self._buffer: list[str] = []
        self._header_written = False

    @staticmethod
    def resolve_dir(directory: str | Path | None) -> Path:
        """The effective checkpoint directory (argument, env, default)."""
        if directory is not None:
            return Path(directory)
        raw = os.environ.get(CHECKPOINT_DIR_ENV, "").strip()
        return Path(raw) if raw else Path(DEFAULT_CHECKPOINT_DIRNAME)

    # --- reading ---------------------------------------------------------------

    def load(self) -> dict[str, dict[str, Any]]:
        """Completed point records keyed by task key (last write wins).

        Tolerates a torn tail (or any undecodable line), counting it in
        :attr:`corrupt_lines` and the ``checkpoint.corrupt_lines`` obs
        counter.  A checkpoint of a different format version is set aside
        (renamed) and treated as empty.
        """
        self.corrupt_lines = 0
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return {}
        except OSError as exc:
            # No checkpoint is a clean cold start; an unreadable device is
            # not -- count it so persistent EIO degrades the sink.
            if durable.is_resource_error(exc):
                durable.record_sink_failure("checkpoint", exc)
            return {}
        records: dict[str, dict[str, Any]] = {}
        version_ok = False
        lines, self.corrupt_lines = durable.parse_lines(text)
        for payload in lines:
            kind = payload.get("kind")
            if kind == "header":
                if payload.get("version") != CHECKPOINT_FORMAT_VERSION:
                    self._set_aside(
                        f"format version {payload.get('version')!r}"
                    )
                    return {}
                version_ok = True
            elif kind == "point":
                try:
                    records[str(payload["key"])] = dict(payload["record"])
                except (KeyError, TypeError, ValueError):
                    self.corrupt_lines += 1
            elif "kind" not in payload:
                self.corrupt_lines += 1
        if self.corrupt_lines:
            obs.count("checkpoint.corrupt_lines", self.corrupt_lines)
            logger.warning(
                "checkpoint %s: tolerated %d undecodable line(s)",
                self.path,
                self.corrupt_lines,
            )
        if not version_ok and records:
            # Point lines without any header: treat as foreign/corrupt.
            self._set_aside("missing header")
            return {}
        self._header_written = version_ok
        return records

    def _set_aside(self, reason: str) -> None:
        """Set aside an unusable checkpoint; a failed rename is not fatal."""
        try:
            durable.set_aside(self.path, "checkpoint.set_aside", reason)
        except OSError as exc:
            if durable.is_resource_error(exc):
                durable.record_sink_failure("checkpoint", exc)

    # --- writing ---------------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh checkpoint (truncate + header, atomic + fsync'd).

        A full or failing disk degrades the checkpoint sink exactly like
        :meth:`flush` -- the sweep proceeds without resumability rather
        than dying before the first point.
        """
        self._buffer.clear()
        self._write_header()

    def _write_header(self) -> None:
        """Replace the file with a lone header line (keeps the buffer)."""
        if not durable.sink_enabled("checkpoint"):
            return
        header = json.dumps(
            {
                "kind": "header",
                "version": CHECKPOINT_FORMAT_VERSION,
                "sweep": self.digest,
            },
            sort_keys=True,
        )
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            durable.atomic_write(self.path, header + "\n", sink="checkpoint")
        except OSError as exc:
            if durable.is_resource_error(exc):
                durable.record_sink_failure("checkpoint", exc)
                return
            raise
        self._header_written = True

    def record(self, key: str, record: dict[str, Any]) -> None:
        """Buffer one completed point; auto-flush at ``flush_every``."""
        self._buffer.append(
            json.dumps(
                {"kind": "point", "key": key, "record": record},
                sort_keys=True,
            )
        )
        if len(self._buffer) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Append every buffered record in one atomic-enough write.

        The payload goes out as a single ``write`` on an ``O_APPEND``
        descriptor and is fsync'd (:func:`repro.durable.append_lines`);
        a crash mid-write can tear at most the final line, which
        :meth:`load` tolerates and the next flush starts a fresh line
        after, so a flush that returned cannot be lost to a power cut.

        A full or failing disk (ENOSPC/EIO/...) degrades the checkpoint
        sink -- one warning, the ``degraded.checkpoint`` counter -- and
        the sweep continues without resumability; results are unaffected.
        """
        if not self._buffer:
            return
        if not durable.sink_enabled("checkpoint"):
            self._buffer.clear()
            return
        if not self._header_written:
            if self.path.exists():
                self._header_written = True
            else:
                self._write_header()
        points = len(self._buffer)
        written = durable.append_lines(self.path, self._buffer, sink="checkpoint")
        self._buffer.clear()
        if written:
            obs.count("checkpoint.flushes")
            obs.count("checkpoint.points_flushed", points)
            obs.event("checkpoint.flush", points=points)

    def close(self) -> None:
        """Flush what is buffered (every append reopens the file)."""
        self.flush()


__all__ = [
    "CHECKPOINT_DIR_ENV",
    "CHECKPOINT_FORMAT_VERSION",
    "DEFAULT_CHECKPOINT_DIRNAME",
    "SweepCheckpoint",
    "sweep_digest",
    "task_key",
]
