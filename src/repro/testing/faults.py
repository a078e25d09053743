"""Deterministic fault injection for the sweep execution path.

The resilience layer of :mod:`repro.core.parallel` promises to survive
crashing tasks, hung workers, killed worker processes and corrupted cache
records.  Those failure modes are hard to produce on demand, so this module
injects them *reproducibly*: every fault fires at task indices derived from
a seed (or at explicitly listed indices), never from wall-clock state, so a
faulted run is exactly repeatable and a retried attempt can be told apart
from a first attempt.

Faults are described by a tiny DSL, normally supplied through the
``REPRO_FAULTS`` environment variable (which worker processes inherit)::

    REPRO_FAULTS="crash:0.1@seed=7"              # ~10% of tasks crash once
    REPRO_FAULTS="hang:@indices=3&sleep=30"      # task 3 sleeps 30 s
    REPRO_FAULTS="kill:@indices=0,exc:@indices=5"

Grammar (specs joined by ``,``; params joined by ``&``)::

    spec   := kind [":" rate] ["@" param ("&" param)*]
    param  := "seed=" int | "attempts=" int | "indices=" int (";" int)*
            | "sleep=" float | "sink=" name

Kinds:

``crash``
    Raise :class:`InjectedCrashError` -- a *transient* (crash-only) fault
    the executor retries with backoff.
``exc``
    Raise :class:`InjectedTaskError` -- a *deterministic* exception the
    executor must not retry (it records a
    :class:`~repro.core.parallel.TaskFailure` instead).
``hang``
    Sleep ``sleep`` seconds (default 30) before running the task -- long
    enough to trip any configured per-task timeout.
``kill``
    ``os._exit(86)`` inside a pool worker (the executor sees a
    ``BrokenProcessPool``); downgraded to :class:`InjectedCrashError` when
    running in-process, where exiting would kill the host.
``interrupt``
    Raise :class:`KeyboardInterrupt` -- drives the SIGINT/checkpoint-flush
    path deterministically, without real signal timing.
``corrupt-cache``
    Corrupt the next mapping-cache flush
    (:meth:`FaultPlan.corrupt_text`, consulted by
    :meth:`repro.core.cache.MappingCache.save`).
``enospc`` / ``eio``
    Raise ``OSError(ENOSPC)`` / ``OSError(EIO)`` at a persistent-sink
    write boundary (:meth:`FaultPlan.before_io`, consulted by
    :mod:`repro.durable` before every :func:`~repro.durable.atomic_write`
    and :func:`~repro.durable.durable_append`).  Indices count writes per
    sink, so ``enospc:0.5@seed=3`` deterministically fails ~half of a
    sink's flushes; ``sink=cache`` restricts the fault to one sink
    (``cache``, ``checkpoint``, ``events``, ``bench``...).
``slow-disk``
    Sleep ``sleep`` seconds before a sink write -- models a saturated or
    dying disk without failing the write (pair it with ``sleep=``).
``corrupt-study``
    Garble the JSONL store file just before it is loaded
    (:meth:`FaultPlan.corrupt_study_file`, consulted by
    :meth:`repro.core.checkpoint.SweepCheckpoint.load`, the store behind a
    guided ``--study``), driving the set-aside-and-restart and torn-tail
    recovery paths deterministically.

``attempts=N`` fires the fault only on attempts ``< N`` (default 1, so a
retried task succeeds -- the retry-then-recover path); ``attempts=0`` fires
on every attempt (the permanent-failure path).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Iterable

from repro import obs
from repro.core.parallel import TransientTaskError, in_worker

#: Environment variable supplying the fault plan (inherited by workers).
FAULTS_ENV = "REPRO_FAULTS"

#: Fault kinds that act at task boundaries (see :meth:`FaultPlan.before_task`).
TASK_KINDS = ("crash", "exc", "hang", "kill", "interrupt")

#: Fault kinds that act at sink-write boundaries (see :meth:`FaultPlan.before_io`).
IO_KINDS = ("enospc", "eio", "slow-disk")

#: Every recognised fault kind.
KNOWN_KINDS = TASK_KINDS + IO_KINDS + ("corrupt-cache", "corrupt-study")


class InjectedCrashError(TransientTaskError):
    """An injected crash-only fault: the executor should retry the task."""


class InjectedTaskError(RuntimeError):
    """An injected deterministic failure: the executor must not retry."""


def _chance(seed: int, index: int) -> float:
    """A stable pseudo-random draw in [0, 1) for (seed, task index)."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault directive.

    Attributes:
        kind: Fault kind (see the module docstring).
        rate: Firing probability per task index (ignored with ``indices``).
        seed: Seed of the per-index draw, so runs are repeatable.
        attempts: Fire only on attempts ``< attempts``; ``0`` means every
            attempt.
        indices: Explicit task indices (overrides ``rate``).
        sleep_s: Sleep duration of the ``hang`` and ``slow-disk`` kinds.
        sink: I/O kinds only -- restrict the fault to writes of one named
            sink (``None`` hits every sink).
    """

    kind: str
    rate: float = 1.0
    seed: int = 0
    attempts: int = 1
    indices: tuple[int, ...] | None = None
    sleep_s: float = 30.0
    sink: str | None = None

    def fires(self, index: int, attempt: int = 0) -> bool:
        """Whether this fault fires for (task ``index``, ``attempt``)."""
        if self.attempts and attempt >= self.attempts:
            return False
        if self.indices is not None:
            return index in self.indices
        if self.rate >= 1.0:
            return True
        return _chance(self.seed, index) < self.rate


def parse_fault_specs(text: str) -> tuple[FaultSpec, ...]:
    """Parse the ``REPRO_FAULTS`` DSL into fault specs.

    Raises:
        ValueError: On an unknown kind or a malformed rate/param.
    """
    specs: list[FaultSpec] = []
    for raw in text.split(","):
        raw = raw.strip()
        if not raw:
            continue
        body, _, params = raw.partition("@")
        kind, _, rate_text = body.partition(":")
        kind = kind.strip()
        if kind not in KNOWN_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; known kinds: "
                f"{', '.join(KNOWN_KINDS)}"
            )
        fields: dict = {"kind": kind}
        rate_text = rate_text.strip()
        if rate_text:
            try:
                fields["rate"] = float(rate_text)
            except ValueError as exc:
                raise ValueError(
                    f"bad rate {rate_text!r} in fault spec {raw!r}"
                ) from exc
        for param in filter(None, params.split("&")):
            key, sep, value = param.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep:
                raise ValueError(f"bad param {param!r} in fault spec {raw!r}")
            try:
                if key == "seed":
                    fields["seed"] = int(value)
                elif key == "attempts":
                    fields["attempts"] = int(value)
                elif key == "sleep":
                    fields["sleep_s"] = float(value)
                elif key == "sink":
                    if not value:
                        raise ValueError("empty sink name")
                    fields["sink"] = value
                elif key == "indices":
                    fields["indices"] = tuple(
                        int(v) for v in value.split(";") if v
                    )
                else:
                    raise ValueError(f"unknown fault param {key!r}")
            except ValueError:
                raise ValueError(
                    f"bad value {value!r} for param {key!r} in fault "
                    f"spec {raw!r}"
                ) from None
        specs.append(FaultSpec(**fields))
    return tuple(specs)


class FaultPlan:
    """A set of fault specs consulted by the execution layer.

    The executor calls :meth:`before_task` immediately before running each
    task (both in pool workers and on the serial path), and
    :meth:`repro.core.cache.MappingCache.save` calls :meth:`corrupt_text`
    before each disk flush.
    """

    def __init__(self, specs: Iterable[FaultSpec]) -> None:
        self.specs = tuple(specs)

    def before_task(self, index: int, attempt: int = 0) -> None:
        """Inject any task-boundary fault scheduled for (index, attempt)."""
        for spec in self.specs:
            if spec.kind not in TASK_KINDS or not spec.fires(index, attempt):
                continue
            obs.count(f"faults.injected.{spec.kind}")
            obs.event("fault.injected", kind=spec.kind, site="task")
            if spec.kind == "crash":
                raise InjectedCrashError(
                    f"injected crash at task {index} (attempt {attempt})"
                )
            if spec.kind == "exc":
                raise InjectedTaskError(
                    f"injected deterministic failure at task {index}"
                )
            if spec.kind == "hang":
                time.sleep(spec.sleep_s)
            elif spec.kind == "interrupt":
                raise KeyboardInterrupt(f"injected interrupt at task {index}")
            elif spec.kind == "kill":
                if in_worker():
                    os._exit(86)
                # In-process there is no worker to kill; the nearest
                # honest behaviour is a retryable crash.
                raise InjectedCrashError(
                    f"injected kill (inline) at task {index}"
                )

    def before_io(self, sink: str, index: int) -> None:
        """Inject any I/O fault scheduled for write ``index`` of ``sink``.

        Called by :mod:`repro.durable` immediately before each
        atomic-write/durable-append on the named sink; ``index`` counts
        that sink's writes from 0, so rate draws are deterministic per
        (seed, sink write index).
        """
        import errno

        for spec in self.specs:
            if spec.kind not in IO_KINDS:
                continue
            if spec.sink is not None and spec.sink != sink:
                continue
            if not spec.fires(index):
                continue
            obs.count(f"faults.injected.{spec.kind}")
            obs.event("fault.injected", kind=spec.kind, site="io")
            if spec.kind == "enospc":
                raise OSError(
                    errno.ENOSPC,
                    f"injected ENOSPC at {sink} write {index}",
                )
            if spec.kind == "eio":
                raise OSError(
                    errno.EIO, f"injected EIO at {sink} write {index}"
                )
            if spec.kind == "slow-disk":
                time.sleep(spec.sleep_s)

    def corrupt_study_file(self, path, index: int = 0) -> bool:
        """Garble the store file at ``path`` when a ``corrupt-study`` fires.

        Consulted by :meth:`repro.core.checkpoint.SweepCheckpoint.load`
        before it reads the file.  An existing file is truncated mid-byte
        (the signature of a torn writer: a torn tail line, or a header
        too short to read); a missing one is filled with a garbage line
        that has no header.  Returns whether corruption was injected.
        """
        from pathlib import Path

        for spec in self.specs:
            if spec.kind != "corrupt-study" or not spec.fires(index):
                continue
            obs.count("faults.injected.corrupt-study")
            obs.event("fault.injected", kind="corrupt-study", site="study")
            target = Path(path)
            if target.exists():
                data = target.read_bytes()
                target.write_bytes(data[: max(1, len(data) // 2)] + b"\xff")
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(b"this is not a sweep store\n")
            return True
        return False

    def corrupt_text(self, text: str, index: int) -> str | None:
        """The corrupted replacement for flush ``index``, or ``None``.

        Truncates the payload mid-record, the signature a crashed or
        misbehaving writer leaves behind.
        """
        for spec in self.specs:
            if spec.kind == "corrupt-cache" and spec.fires(index):
                obs.count("faults.injected.corrupt-cache")
                obs.event("fault.injected", kind="corrupt-cache", site="cache")
                return text[: max(1, len(text) // 2)] + '{"truncated":'
        return None


_installed: FaultPlan | None = None
_env_cache: tuple[str, FaultPlan] | None = None


def install_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-wide (tests); returns the previous plan.

    An installed plan overrides ``REPRO_FAULTS`` but does **not** cross
    process boundaries -- pool-worker faults need the environment variable.
    """
    global _installed
    previous = _installed
    _installed = plan
    return previous


def active_plan() -> FaultPlan | None:
    """The current fault plan: installed first, then ``REPRO_FAULTS``."""
    if _installed is not None:
        return _installed
    raw = os.environ.get(FAULTS_ENV, "").strip()
    if not raw:
        return None
    global _env_cache
    if _env_cache is None or _env_cache[0] != raw:
        _env_cache = (raw, FaultPlan(parse_fault_specs(raw)))
    return _env_cache[1]


__all__ = [
    "FAULTS_ENV",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrashError",
    "InjectedTaskError",
    "IO_KINDS",
    "KNOWN_KINDS",
    "TASK_KINDS",
    "active_plan",
    "install_plan",
    "parse_fault_specs",
]
