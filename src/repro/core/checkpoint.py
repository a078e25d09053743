"""Versioned JSONL checkpoints for the DSE sweep (crash/interrupt safety).

A Figure-15-scale :func:`repro.core.dse.explore` sweep evaluates thousands
of design points; one OOM-killed worker or one Ctrl-C used to throw the
whole run away.  This module persists evaluated design points as they
arrive, so an interrupted sweep restarted with ``--resume`` skips every
point it already evaluated (invalid points are cheaply validated again)
and produces byte-identical output to an uninterrupted run.  A guided
search persists through the same store, opened at its ``--study`` path.

Format -- one JSON object per line, append-only:

* a **header** line ``{"kind": "header", "version": 1, "sweep": <digest>}``,
  plus the readable parameters a guided study pins (``strategy``,
  ``seed``, ``trials``);
* **point** lines ``{"kind": "point", "key": <task key>, "record": {...}}``.

The file is keyed by a SHA-256 **sweep digest** over everything that
determines a point's result (model layer shapes, MAC budget, the space,
the area budget, search profile, technology point and memory stride), the
same discipline the mapping cache applies to hardware digests: a changed
sweep parameter lands in a different file and never poisons a resume, and
a header naming another sweep is refused (:class:`StudyConfigError`).
Appends are buffered and flushed as one ``write`` on an ``O_APPEND``
descriptor (:func:`repro.durable.append_lines`), so concurrent or killed
writers can at worst leave one torn *tail* line -- the next flush starts a
fresh line after it, and the loader tolerates (and counts) undecodable
lines instead of discarding the checkpoint.  A file with no readable
header at all is set aside (:func:`repro.durable.set_aside`).
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
from repro.core.parallel import _fault_plan
from repro.errors import ConfigError

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


class StudyConfigError(ConfigError, ValueError):
    """The store's header names another sweep (digest or parameters).

    Still a ``ValueError`` (the historical contract) and a
    :class:`repro.errors.ConfigError` (code ``config``, exit 3).
    """


class SweepCheckpoint:
    """Append-only JSONL store of evaluated design points.

    An exhaustive sweep keeps ``sweep-<digest16>.jsonl`` under its
    checkpoint directory; a guided search names its ``--study`` file
    (``name``) and pins its readable parameters (``meta``) in the header
    next to the digest.  Open the store with :meth:`load` (resume) or
    :meth:`reset` (start fresh) before recording into it.

    Attributes:
        path: The store file.
        flush_every: Buffered point records per append (1 = every point).
        corrupt_lines: Undecodable lines tolerated during the last load.
    """

    def __init__(
        self,
        directory: str | Path,
        digest: str,
        flush_every: int = 16,
        *,
        name: str | None = None,
        meta: dict[str, Any] | None = None,
    ) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.directory = Path(directory)
        self.digest = digest
        self.path = self.directory / (name or f"sweep-{digest[:16]}.jsonl")
        self.meta = dict(meta or {})
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
        counter.  A non-empty file with no readable header line (garbage,
        a store of another format, or one of a different format version)
        is set aside (renamed) and treated as empty; the next flush then
        starts the file with a header.

        Raises:
            StudyConfigError: When the header names another sweep: another
                digest, or other ``meta`` parameters.
        """
        self.corrupt_lines = 0
        self._header_written = False
        plan = _fault_plan()
        if plan is not None:
            plan.corrupt_study_file(self.path)
        try:
            text = self.path.read_bytes().decode("utf-8", errors="replace")
        except FileNotFoundError:
            return {}
        except OSError as exc:
            # No checkpoint is a clean cold start; an unreadable device is
            # not -- count it so persistent EIO degrades the sink.
            if durable.is_resource_error(exc):
                durable.record_sink_failure("checkpoint", exc)
            return {}
        records: dict[str, dict[str, Any]] = {}
        header: dict[str, Any] | None = None
        lines, self.corrupt_lines = durable.parse_lines(text)
        for payload in lines:
            kind = payload.get("kind")
            if kind == "header":
                header = header or payload
            elif kind == "point":
                try:
                    records[str(payload["key"])] = dict(payload["record"])
                except (KeyError, TypeError, ValueError):
                    self.corrupt_lines += 1
            elif "kind" not in payload:
                self.corrupt_lines += 1
        if header is None:
            if text.strip():
                self._set_aside("missing header")
            return {}
        if header.get("version") != CHECKPOINT_FORMAT_VERSION:
            self._set_aside(f"format version {header.get('version')!r}")
            return {}
        self._check_header(header)
        if self.corrupt_lines:
            obs.count("checkpoint.corrupt_lines", self.corrupt_lines)
            logger.warning(
                "checkpoint %s: tolerated %d undecodable line(s)",
                self.path,
                self.corrupt_lines,
            )
        self._header_written = True
        return records

    def _header(self) -> dict[str, Any]:
        return {
            "kind": "header",
            "version": CHECKPOINT_FORMAT_VERSION,
            "sweep": self.digest,
            **self.meta,
        }

    def _check_header(self, header: dict[str, Any]) -> None:
        """Refuse a header that names another sweep, naming each field."""
        clashes = [
            f"{'digest' if key == 'sweep' else key}: store has "
            f"{header.get(key)!r}, run wants {value!r}"
            for key, value in self._header().items()
            if header.get(key) != value
        ]
        if clashes:
            raise StudyConfigError(
                f"{self.path} holds another sweep ({'; '.join(clashes)}); "
                "use a fresh --study/--checkpoint-dir path or re-run with "
                "the stored parameters"
            )

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
        header = json.dumps(self._header(), sort_keys=True)
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

        The header goes first whenever neither :meth:`load` nor
        :meth:`reset` saw one: a missing, empty or set-aside file.

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
    "StudyConfigError",
    "SweepCheckpoint",
    "sweep_digest",
    "task_key",
]
