"""Fault-tolerant parallel execution for the sweep-scale search paths.

The DSE sweeps are embarrassingly parallel across design points: the sweep
driver (:func:`repro.core.search.run_search`) hands each worker a share of
the points, and each point maps its models serially in that worker, as a
single map always runs in one process.  This module provides the fan-out
primitive the driver uses:

* :func:`resolve_jobs` -- worker-count policy (explicit argument, then the
  ``REPRO_JOBS`` environment variable, then serial); a malformed
  ``REPRO_JOBS`` is a :class:`~repro.errors.ConfigError`.
* :func:`run_tasks` -- order-preserving map over a
  :class:`~concurrent.futures.ProcessPoolExecutor`, with a **serial
  fallback at ``jobs=1``** that runs in-process so results stay
  bit-identical and debuggable (breakpoints, exact tracebacks, no pickling).
  Shared read-only state travels once per worker through an initializer
  rather than once per task.
* :class:`TaskPolicy` / :class:`TaskFailure` -- the resilience contract.
  Tasks are submitted chunk by chunk as individual futures; a per-task
  exception becomes a structured :class:`TaskFailure` instead of aborting
  the sweep (``on_error="skip"``), crash-only faults (worker death,
  timeouts, :class:`TransientTaskError`) are retried with exponential
  backoff while deterministic exceptions are not, a broken pool is rebuilt
  once and the run degrades to the serial in-process path if it breaks
  again.
* :class:`SweepStats` -- a read-only view of one run's counters in the
  :mod:`repro.obs` ledger (stage timings, cache counters,
  failure/retry/pool-restart accounting, points/sec) surfaced by the CLI
  and :func:`repro.analysis.reporting.format_search_stats`.

Workers receive their shared context via :func:`worker_context`; worker
functions must be module-level (picklable) callables of one task argument.

When a live :mod:`repro.obs` recorder is installed in the parent, every
worker process runs its tasks under a private recorder of the same kind
and ships the captured spans and counters back alongside each outcome
(successes *and* failures); the parent merges them before it hands the
outcome on, so a ``--jobs N`` sweep reports identically-shaped metrics to
the serial run (counters are order-independent sums).

Fault injection (:mod:`repro.testing.faults`) hooks both execution paths:
when ``REPRO_FAULTS`` is set (or a plan is installed in-process), every
task consults the plan right before running -- the mechanism the
resilience tests use to prove each recovery path.  The hook costs one
environment lookup per task when no plan is active.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro import obs
from repro.errors import ConfigError, ReproError
from repro.obs.metrics import MetricsRegistry

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Extra seconds granted beyond ``timeout_s * len(chunk)`` before a chunk
#: is declared hung (covers submission/pickling latency).
TIMEOUT_GRACE_S = 0.5

#: Poll interval of the completion loop (seconds).
_POLL_S = 0.05

# Per-process shared state for worker tasks (set by the pool initializer in
# child processes, and by run_tasks itself on the serial path).
_WORKER_CONTEXT: Any = None

# The task callable of the current pool (set by the pool initializer in
# child processes; lets the chunk runner stay module-level).
_WORKER_FN: Callable[[Any], Any] | None = None

# The recorder type tasks in this process run under (per-task obs
# capture), or None when the parent records nothing.
_WORKER_RECORDER: type | None = None

# True inside pool worker processes (lets the fault injector distinguish
# "kill this worker" from "kill the host process").
_IN_WORKER = False


class TransientTaskError(ReproError, RuntimeError):
    """A crash-like task fault that merits a bounded retry.

    Raise (or subclass) this from a worker function for failures that are
    expected to vanish on a re-run -- lost connections, injected crashes.
    Every other exception type is treated as deterministic and is never
    retried.

    Still a ``RuntimeError`` (the historical contract) and a
    :class:`repro.errors.ReproError` with its own ``transient`` code; it
    is normally consumed by the retry machinery and never reaches the
    exit-code mapping.
    """

    code = "transient"


class TaskError(RuntimeError):
    """Raised under ``on_error="abort"`` when the original exception could
    not cross the process boundary; carries its repr and traceback text."""


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve the effective worker count.

    Args:
        jobs: Explicit request; ``None`` defers to ``REPRO_JOBS`` (with a
            serial default), ``0`` means "all cores".

    Raises:
        ConfigError: When ``REPRO_JOBS`` supplies the count and is not a
            non-negative integer.
        ValueError: On a negative ``jobs`` argument.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigError(f"{JOBS_ENV} must be an integer, got {raw!r}") from None
        if jobs < 0:
            raise ConfigError(f"{JOBS_ENV} must be >= 0, got {jobs}")
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def is_picklable(obj: Any) -> bool:
    """Whether ``obj`` can cross a process boundary.

    Callers use this to fall back to the serial path when the shared context
    cannot be pickled.
    """
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def worker_context() -> Any:
    """The shared context of the current task (see :func:`run_tasks`)."""
    return _WORKER_CONTEXT


def in_worker() -> bool:
    """True when called from inside a pool worker process."""
    return _IN_WORKER


@dataclass(frozen=True)
class TaskPolicy:
    """The resilience contract of one :func:`run_tasks` call.

    Attributes:
        timeout_s: Per-task wall-clock budget.  A chunk overdue past
            ``timeout_s * len(chunk) + grace`` has its workers killed and
            its tasks retried (a timeout counts as a crash-only fault).
            ``None`` disables the watchdog.  Not enforceable on the serial
            in-process path.
        max_attempts: Total tries per task for crash-only faults (worker
            death, timeout, :class:`TransientTaskError`).  Deterministic
            exceptions always fail on the first attempt.
        backoff_s: Base of the exponential retry backoff: attempt ``n``
            waits ``backoff_s * 2**(n-1)`` seconds before re-running.
        on_error: ``"abort"`` re-raises the first task failure (the
            pre-resilience semantics); ``"skip"`` records a
            :class:`TaskFailure` in the task's result slot and carries on.
        max_pool_restarts: Unexpected pool breaks tolerated before the run
            degrades to the serial in-process path (timeout kills are
            deliberate and do not count).
    """

    timeout_s: float | None = None
    max_attempts: int = 3
    backoff_s: float = 0.05
    on_error: str = "abort"
    max_pool_restarts: int = 1

    def __post_init__(self) -> None:
        if self.on_error not in ("abort", "skip"):
            raise ValueError(
                f"on_error must be 'abort' or 'skip', got {self.on_error!r}"
            )
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")

    def retry_delay_s(self, attempt: int) -> float:
        """Backoff before executing ``attempt`` (0-based; 0 has none)."""
        if attempt <= 0:
            return 0.0
        return self.backoff_s * 2 ** (attempt - 1)


#: The default policy: abort on first failure, retry crashes twice.
DEFAULT_POLICY = TaskPolicy()


@dataclass(frozen=True)
class TaskFailure:
    """The structured record of one task that exhausted its attempts.

    Under ``on_error="skip"`` these appear *in place of* results in the
    list :func:`run_tasks` returns (and are counted as
    ``parallel.failures``).

    Attributes:
        index: Position of the task in the submitted sequence.
        error: ``repr`` of the final exception.
        error_type: Class name of the final exception.
        traceback: Formatted traceback text of the final attempt (empty
            when the worker died without one, e.g. a kill or timeout).
        attempts: Attempts consumed before giving up.
        kind: ``"exception"`` (deterministic), ``"crash"`` (transient /
            worker death) or ``"timeout"``.
        label: Human-readable task label, filled in by callers that know
            what the task was (e.g. a design-point id).
    """

    index: int
    error: str
    error_type: str
    traceback: str = ""
    attempts: int = 1
    kind: str = "exception"
    label: str = ""


def _fault_plan():
    """The active fault-injection plan, without importing the harness.

    Zero-cost in production: the harness module is only imported when
    ``REPRO_FAULTS`` is set or a test already imported it to install a
    plan.
    """
    module = sys.modules.get("repro.testing.faults")
    if module is None:
        if not os.environ.get("REPRO_FAULTS", "").strip():
            return None
        from repro.testing import faults as module
    return module.active_plan()


def _call_task(fn: Callable[[Any], Any], index: int, task: Any, attempt: int) -> Any:
    """Run one task, consulting the fault injector first."""
    plan = _fault_plan()
    if plan is not None:
        plan.before_task(index, attempt)
    return fn(task)


def _init_worker(
    context: Any,
    worker: Callable[[Any], Any] | None = None,
    recorder_type: type | None = None,
) -> None:
    global _WORKER_CONTEXT, _WORKER_FN, _WORKER_RECORDER, _IN_WORKER
    _WORKER_CONTEXT = context
    _WORKER_FN = worker
    _WORKER_RECORDER = recorder_type
    _IN_WORKER = True


def _encode_exception(exc: BaseException) -> dict[str, Any]:
    """A picklable description of a worker-side task exception."""
    return {
        "exc": exc if is_picklable(exc) else None,
        "repr": repr(exc),
        "type": type(exc).__name__,
        "traceback": traceback_module.format_exc(),
        "transient": isinstance(exc, TransientTaskError),
    }


def _run_chunk(payload: tuple[int, float, tuple[tuple[int, Any], ...]]) -> list[tuple]:
    """Pool target: run one chunk of (index, task) pairs.

    Per-task exceptions are isolated into ``("err", ...)`` outcome records
    rather than propagating through the future -- only worker death (and
    the resulting ``BrokenProcessPool``) aborts a chunk.  Retried chunks
    carry their backoff delay here so the parent never sleeps.
    """
    attempt, delay_s, items = payload
    if delay_s > 0:
        time.sleep(delay_s)
    assert _WORKER_FN is not None
    outcomes: list[tuple] = []
    for index, task in items:
        recorder = _WORKER_RECORDER() if _WORKER_RECORDER else None
        try:
            if recorder is not None:
                with obs.use(recorder):
                    result = _call_task(_WORKER_FN, index, task, attempt)
            else:
                result = _call_task(_WORKER_FN, index, task, attempt)
        except Exception as exc:
            outcomes.append(
                (
                    "err",
                    index,
                    _encode_exception(exc),
                    recorder.snapshot() if recorder else None,
                )
            )
        else:
            outcomes.append(
                ("ok", index, result, recorder.snapshot() if recorder else None)
            )
    return outcomes


@dataclass
class _Chunk:
    """One in-flight unit of work: a slice of tasks plus its attempt."""

    items: tuple[tuple[int, Any], ...]
    attempt: int = 0
    deadline: float | None = None


class _Run:
    """Bookkeeping shared by the pool and serial execution paths."""

    def __init__(
        self,
        tasks: Sequence[Any],
        policy: TaskPolicy,
        on_result: Callable[[int, Any], None] | None,
    ) -> None:
        self.tasks = tasks
        self.policy = policy
        self.on_result = on_result
        self.slots: list[Any] = [_UNSET] * len(tasks)

    def record_result(self, index: int, result: Any) -> None:
        self.slots[index] = result
        if self.on_result is not None:
            self.on_result(index, result)

    def record_retry(self, count: int = 1) -> None:
        obs.count("parallel.retries", count)
        obs.event("task.retry", count=count)

    def record_failure(
        self, index: int, encoded: dict[str, Any], attempts: int, kind: str
    ) -> None:
        """Finalize one task as failed (skip) or abort the run."""
        if self.policy.on_error == "abort":
            original = encoded.get("exc")
            if original is not None:
                raise original
            raise TaskError(
                f"task {index} failed ({encoded['repr']}) after "
                f"{attempts} attempt(s)\n{encoded['traceback']}"
            )
        failure = TaskFailure(
            index=index,
            error=encoded["repr"],
            error_type=encoded["type"],
            traceback=encoded["traceback"],
            attempts=attempts,
            kind=kind,
        )
        obs.count("parallel.failures")
        self.record_result(index, failure)


class _UnsetType:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unset>"


_UNSET = _UnsetType()


def run_tasks(
    worker: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: int | None = None,
    context: Any = None,
    policy: TaskPolicy | None = None,
    on_result: Callable[[int, Any], None] | None = None,
) -> list[Any]:
    """Apply ``worker`` to every task, preserving task order.

    At an effective worker count of 1 (or a single task) this is an
    in-process loop -- bit-identical results, ordinary tracebacks.  Above
    that, tasks fan out chunk by chunk over a process pool; ``context`` is
    shipped once per worker and read back with :func:`worker_context`.

    Failure semantics are governed by ``policy`` (see :class:`TaskPolicy`):
    with the default policy the first task exception re-raises exactly as
    the pre-resilience implementation did, while ``on_error="skip"``
    returns a :class:`TaskFailure` in the failed task's slot.  Worker
    death and per-task timeouts are survived by rebuilding the pool
    (counted as ``parallel.pool_restarts``) and, if it keeps breaking, by
    degrading to the serial in-process path.

    Args:
        worker: Module-level callable of one task.
        tasks: Task payloads (each must be picklable when ``jobs > 1``).
        jobs: Worker count (``None`` -> ``REPRO_JOBS`` -> serial).
        context: Shared read-only state for the workers.
        policy: Timeout/retry/on-error contract (defaults to
            :data:`DEFAULT_POLICY`).
        on_result: Callback invoked in the parent as each task settles,
            with ``(task index, result-or-TaskFailure)``; completion order
            is arbitrary above ``jobs=1``.  Lets callers checkpoint
            incrementally.
    """
    policy = policy or DEFAULT_POLICY
    jobs = resolve_jobs(jobs)
    tasks = list(tasks)
    run = _Run(tasks, policy, on_result)
    if jobs == 1 or len(tasks) <= 1:
        _run_serial(run, worker, list(enumerate(tasks)), context)
        return run.slots
    _run_pool(run, worker, context, jobs)
    return run.slots


def _run_serial(
    run: _Run,
    worker: Callable[[Any], Any],
    items: Sequence[tuple[int, Any]],
    context: Any,
    start_attempts: dict[int, int] | None = None,
) -> None:
    """The in-process path: per-task retry loop, no timeout watchdog."""
    global _WORKER_CONTEXT
    previous = _WORKER_CONTEXT
    _WORKER_CONTEXT = context
    try:
        for index, task in items:
            attempt = (start_attempts or {}).get(index, 0)
            while True:
                if attempt > 0:
                    time.sleep(run.policy.retry_delay_s(attempt))
                try:
                    result = _call_task(worker, index, task, attempt)
                except Exception as exc:
                    transient = isinstance(exc, TransientTaskError)
                    if transient and attempt + 1 < run.policy.max_attempts:
                        run.record_retry()
                        attempt += 1
                        continue
                    if run.policy.on_error == "abort":
                        raise
                    run.record_failure(
                        index,
                        _encode_exception(exc),
                        attempts=attempt + 1,
                        kind="crash" if transient else "exception",
                    )
                    break
                else:
                    run.record_result(index, result)
                    break
    finally:
        _WORKER_CONTEXT = previous


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's worker processes and discard the executor."""
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _run_pool(
    run: _Run,
    worker: Callable[[Any], Any],
    context: Any,
    jobs: int,
) -> None:
    """The future-per-chunk submission loop with recovery.

    State machine: submit pending chunks, wait for completions, and on
    each hazard (task error, overdue chunk, broken pool) either retry the
    affected tasks as single-task chunks with backoff or finalize them as
    failures.  After ``policy.max_pool_restarts`` unexpected pool breaks
    the remaining work drains through the serial in-process path.
    """
    policy = run.policy
    tasks = run.tasks
    recorder = obs.get_recorder()
    capture = recorder.enabled
    recorder_type = type(recorder) if capture else None
    chunksize = 1 if policy.timeout_s is not None else max(
        1, len(tasks) // (jobs * 4)
    )
    pending: deque[_Chunk] = deque(
        _Chunk(items=tuple(pairs))
        for pairs in chunked(list(enumerate(tasks)), chunksize)
    )
    in_flight: dict[Any, _Chunk] = {}
    pool: ProcessPoolExecutor | None = None
    breaks = 0
    serial_rest = False

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)),
            initializer=_init_worker,
            initargs=(context, worker, recorder_type),
        )

    def requeue_for_retry(chunk: _Chunk, kind: str, reason: str) -> None:
        """Retry a crashed/overdue chunk's tasks, or fail them out."""
        next_attempt = chunk.attempt + 1
        if next_attempt < policy.max_attempts:
            run.record_retry(len(chunk.items))
            for pair in chunk.items:
                pending.append(_Chunk(items=(pair,), attempt=next_attempt))
            return
        for index, _task in chunk.items:
            run.record_failure(
                index,
                {"exc": None, "repr": reason, "type": kind, "traceback": ""},
                attempts=next_attempt,
                kind=kind,
            )

    def reschedule_in_flight(culprits: list[_Chunk], kind: str, reason: str) -> None:
        """After a pool loss: bump culprits' attempts, requeue the rest."""
        culprit_ids = {id(chunk) for chunk in culprits}
        for chunk in culprits:
            requeue_for_retry(chunk, kind, reason)
        for chunk in in_flight.values():
            if id(chunk) not in culprit_ids:
                pending.appendleft(chunk)
        in_flight.clear()

    try:
        while pending or in_flight:
            if serial_rest:
                remaining = [
                    (index, task)
                    for chunk in pending
                    for index, task in chunk.items
                ]
                attempts = {
                    index: chunk.attempt
                    for chunk in pending
                    for index, _ in chunk.items
                }
                pending.clear()
                _run_serial(run, worker, remaining, context, attempts)
                continue
            if pool is None:
                pool = make_pool()
            submit_broken = False
            while pending:
                chunk = pending.popleft()
                delay = policy.retry_delay_s(chunk.attempt)
                try:
                    future = pool.submit(
                        _run_chunk, (chunk.attempt, delay, chunk.items)
                    )
                except (BrokenProcessPool, RuntimeError):
                    # The pool died between completions; put the chunk back
                    # and run the break recovery below.
                    pending.appendleft(chunk)
                    submit_broken = True
                    break
                if policy.timeout_s is not None:
                    chunk.deadline = (
                        time.monotonic()
                        + delay
                        + policy.timeout_s * len(chunk.items)
                        + TIMEOUT_GRACE_S
                    )
                in_flight[future] = chunk

            done, _ = wait(
                list(in_flight), timeout=_POLL_S, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()
            overdue = [
                chunk
                for future, chunk in in_flight.items()
                if future not in done
                and chunk.deadline is not None
                and now > chunk.deadline
            ]
            broken: list[_Chunk] = []
            for future in done:
                chunk = in_flight.pop(future)
                try:
                    outcomes = future.result()
                except BrokenProcessPool:
                    broken.append(chunk)
                    continue
                except Exception:
                    # A chunk-level error outside task execution (e.g. a
                    # cancelled future during shutdown): crash-like.
                    broken.append(chunk)
                    continue
                for status, index, payload, snapshot in outcomes:
                    if capture and snapshot is not None:
                        recorder.merge_snapshot(snapshot)
                    if status == "ok":
                        run.record_result(index, payload)
                        continue
                    if (
                        payload["transient"]
                        and chunk.attempt + 1 < policy.max_attempts
                    ):
                        run.record_retry()
                        pending.append(
                            _Chunk(
                                items=((index, tasks[index]),),
                                attempt=chunk.attempt + 1,
                            )
                        )
                    else:
                        run.record_failure(
                            index,
                            payload,
                            attempts=chunk.attempt + 1,
                            kind="crash" if payload["transient"] else "exception",
                        )
            if broken or submit_broken:
                breaks += 1
                obs.count("parallel.pool_restarts")
                _kill_pool(pool)
                pool = None
                reschedule_in_flight(broken, "crash", "worker process died")
                if breaks > policy.max_pool_restarts:
                    obs.count("parallel.serial_fallbacks")
                    serial_rest = True
                continue
            if overdue:
                obs.count("parallel.timeouts", len(overdue))
                obs.count("parallel.pool_restarts")
                _kill_pool(pool)
                pool = None
                reschedule_in_flight(
                    overdue,
                    "timeout",
                    f"task exceeded the {policy.timeout_s} s timeout",
                )
    except BaseException:
        if pool is not None:
            _kill_pool(pool)
        raise
    else:
        if pool is not None:
            pool.shutdown(wait=True)


def _counter(name: str, doc: str) -> property:
    """A :class:`SweepStats` property reading one ledger counter."""
    return property(lambda self: int(self.metrics.counter(name)), doc=doc)


@dataclass(frozen=True)
class SweepStats:
    """A read-only view of one run's counters in the :mod:`repro.obs` ledger.

    Every event of a run is counted once, on the live recorder; this view
    reads the summary :func:`repro.analysis.reporting.format_search_stats`
    prints from that recorder's :class:`~repro.obs.MetricsRegistry`::

        recorder = obs.MetricsRecorder()
        with obs.use(recorder):
            explore(...)
        stats = SweepStats(recorder.metrics, jobs=resolve_jobs(jobs))

    Points are the ``dse.points.*`` counters of a sweep; a map run (no
    ``dse.points.total``) counts every searched layer
    (``mapper.layers.searched``) as one evaluated point.  Stage times are
    the ``stage.<name>_ms`` histograms of :func:`repro.obs.stage`.
    """

    metrics: MetricsRegistry
    jobs: int = 1

    points_failed = _counter("parallel.failures", "Tasks that exhausted every attempt.")
    points_resumed = _counter("dse.points.resumed", "Points a checkpoint or study answered.")
    points_pruned = _counter("dse.points.pruned", "Points the dominance bound discarded.")
    points_deduped = _counter("dse.points.deduped", "Duplicate sampler proposals dropped.")
    retries = _counter("parallel.retries", "Attempts re-dispatched after crash-only faults.")
    pool_restarts = _counter("parallel.pool_restarts", "Pools rebuilt after a break or kill.")
    cache_hits = _counter("cache.hits", "Mapping-cache hits (resumed points' stored ones too).")
    cache_misses = _counter("cache.misses", "Mapping-cache misses (fresh searches).")

    @property
    def _sweep(self) -> bool:
        return bool(self.metrics.counter("dse.points.total"))

    @property
    def points_total(self) -> int:
        """Design points (or layers) handed to the run."""
        name = "dse.points.total" if self._sweep else "mapper.layers.searched"
        return int(self.metrics.counter(name))

    @property
    def points_evaluated(self) -> int:
        """Points that completed a full evaluation."""
        name = "dse.points.evaluated" if self._sweep else "mapper.layers.searched"
        return int(self.metrics.counter(name))

    @property
    def stage_s(self) -> dict[str, float]:
        """Wall-clock seconds per stage name."""
        return {
            name[len("stage.") : -len("_ms")]: state["sum"] / 1e3
            for name, state in self.metrics.histograms().items()
            if name.startswith("stage.") and name.endswith("_ms")
        }

    @property
    def wall_s(self) -> float:
        """Total wall-clock seconds across the recorded stages."""
        return sum(self.stage_s.values())

    @property
    def points_per_sec(self) -> float:
        """Evaluated-point throughput over the whole run."""
        wall = self.wall_s
        return self.points_evaluated / wall if wall > 0 else 0.0


def chunked(items: Sequence[Any], size: int) -> Iterator[list[Any]]:
    """Split ``items`` into consecutive chunks of at most ``size``."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    for start in range(0, len(items), size):
        yield list(items[start : start + size])


__all__ = [
    "DEFAULT_POLICY",
    "JOBS_ENV",
    "SweepStats",
    "TaskError",
    "TaskFailure",
    "TaskPolicy",
    "TransientTaskError",
    "chunked",
    "in_worker",
    "is_picklable",
    "resolve_jobs",
    "run_tasks",
    "worker_context",
]
