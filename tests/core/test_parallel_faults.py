"""Every recovery path of the resilient executor, driven by injected faults.

Each test proves one leg of the :class:`repro.core.parallel.TaskPolicy`
contract: exception isolation under ``on_error="skip"``, abort-by-default,
transient-fault retry with backoff, per-task timeout kills, broken-pool
rebuild, and the final degrade to the serial in-process path.  Faults come
from :mod:`repro.testing.faults`, so every failure fires at a reproducible
task index.
"""

import pytest

from repro import obs
from repro.core import parallel
from repro.core.parallel import (
    SweepStats,
    TaskFailure,
    TaskPolicy,
    run_tasks,
)
from repro.testing.faults import (
    FAULTS_ENV,
    FaultPlan,
    InjectedCrashError,
    InjectedTaskError,
    install_plan,
    parse_fault_specs,
)


def _triple(x):
    return x * 3


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    previous = install_plan(None)
    yield
    install_plan(previous)


@pytest.fixture
def fast_backoff(monkeypatch):
    """Retries wait 1 ms, doubling, instead of :data:`RETRY_BACKOFF_S`."""
    monkeypatch.setattr(parallel, "RETRY_BACKOFF_S", 0.001)


def plan(text: str) -> FaultPlan:
    return FaultPlan(parse_fault_specs(text))


def run_counted(*args, **kwargs):
    """``run_tasks`` under a metrics-only recorder, plus its stats view."""
    recorder = obs.MetricsRecorder()
    with obs.use(recorder):
        results = run_tasks(*args, **kwargs)
    return results, SweepStats(recorder.metrics)


def failure_summary(results):
    return [
        (f.index, f.error_type, f.kind, f.attempts)
        for f in results
        if isinstance(f, TaskFailure)
    ]


class TestPolicyValidation:
    def test_rejects_bad_on_error(self):
        with pytest.raises(ValueError):
            TaskPolicy(on_error="retry")

    def test_rejects_bad_attempts_and_timeout(self):
        with pytest.raises(ValueError):
            TaskPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            TaskPolicy(timeout_s=0)

    def test_backoff_is_exponential(self):
        policy = TaskPolicy()
        assert policy.retry_delay_s(0) == 0.0
        assert policy.retry_delay_s(1) == parallel.RETRY_BACKOFF_S
        assert policy.retry_delay_s(2) == 2 * parallel.RETRY_BACKOFF_S
        assert policy.retry_delay_s(3) == 4 * parallel.RETRY_BACKOFF_S


@pytest.mark.usefixtures("fast_backoff")
class TestSerialRecovery:
    def test_abort_reraises_the_original_exception(self):
        install_plan(plan("exc:@indices=2"))
        with pytest.raises(InjectedTaskError):
            run_tasks(_triple, [1, 2, 3, 4], jobs=1)

    def test_skip_isolates_the_failure(self):
        install_plan(plan("exc:@indices=2"))
        results, stats = run_counted(
            _triple,
            [1, 2, 3, 4],
            jobs=1,
            policy=TaskPolicy(on_error="skip"),
        )
        assert results[:2] == [3, 6] and results[3] == 12
        assert failure_summary(results) == [
            (2, "InjectedTaskError", "exception", 1)
        ]
        assert stats.points_failed == 1
        assert results[2].traceback

    def test_transient_fault_retries_then_succeeds(self):
        install_plan(plan("crash:@indices=1"))  # attempts=1: first try only
        results, stats = run_counted(
            _triple,
            [5, 6, 7],
            jobs=1,
        )
        assert results == [15, 18, 21]
        assert stats.retries == 1
        assert stats.points_failed == 0

    def test_deterministic_exception_is_never_retried(self):
        install_plan(plan("exc:@indices=1&attempts=0"))
        results, stats = run_counted(
            _triple,
            [5, 6],
            jobs=1,
            policy=TaskPolicy(on_error="skip"),
        )
        assert failure_summary(results) == [
            (1, "InjectedTaskError", "exception", 1)
        ]
        assert stats.retries == 0

    def test_permanent_crash_exhausts_attempts(self):
        install_plan(plan("crash:@indices=1&attempts=0"))
        results, stats = run_counted(
            _triple,
            [5, 6],
            jobs=1,
            policy=TaskPolicy(on_error="skip", max_attempts=2),
        )
        assert failure_summary(results) == [
            (1, "InjectedCrashError", "crash", 2)
        ]
        assert stats.retries == 1

    def test_abort_on_exhausted_crash_reraises(self):
        install_plan(plan("crash:@indices=0&attempts=0"))
        with pytest.raises(InjectedCrashError):
            run_tasks(
                _triple,
                [1, 2],
                jobs=1,
                policy=TaskPolicy(max_attempts=2),
            )

    def test_on_result_sees_failures_too(self):
        install_plan(plan("exc:@indices=0"))
        seen = []
        run_tasks(
            _triple,
            [1, 2],
            jobs=1,
            policy=TaskPolicy(on_error="skip"),
            on_result=lambda index, result: seen.append((index, result)),
        )
        assert seen[0][0] == 0 and isinstance(seen[0][1], TaskFailure)
        assert seen[1] == (1, 6)


@pytest.mark.usefixtures("fast_backoff")
class TestPoolRecovery:
    def test_skip_isolates_worker_exceptions(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "exc:@indices=3&attempts=0")
        results, stats = run_counted(
            _triple,
            list(range(8)),
            jobs=2,
            policy=TaskPolicy(on_error="skip"),
        )
        assert failure_summary(results) == [
            (3, "InjectedTaskError", "exception", 1)
        ]
        assert [r for r in results if not isinstance(r, TaskFailure)] == [
            3 * i for i in range(8) if i != 3
        ]
        assert stats.points_failed == 1

    def test_failure_accounting_matches_serial(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "exc:0.3@seed=11&attempts=0")
        policy = TaskPolicy(on_error="skip")
        serial, serial_stats = run_counted(
            _triple, list(range(16)), jobs=1, policy=policy
        )
        parallel, parallel_stats = run_counted(
            _triple, list(range(16)), jobs=4, policy=policy
        )
        assert failure_summary(serial) == failure_summary(parallel)
        assert failure_summary(serial)  # the rate actually fired
        assert serial_stats.points_failed == parallel_stats.points_failed
        ok = lambda results: [
            r for r in results if not isinstance(r, TaskFailure)
        ]
        assert ok(serial) == ok(parallel)

    def test_crash_retries_then_succeeds(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash:0.3@seed=7")
        results, stats = run_counted(
            _triple,
            list(range(12)),
            jobs=3,
        )
        assert results == [3 * i for i in range(12)]
        assert stats.retries > 0
        assert stats.points_failed == 0

    def test_worker_kill_rebuilds_the_pool(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill:@indices=2")
        results, stats = run_counted(
            _triple,
            list(range(6)),
            jobs=2,
        )
        assert results == [3 * i for i in range(6)]
        assert stats.pool_restarts >= 1
        assert stats.retries >= 1

    def test_repeated_breaks_degrade_to_serial(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill:@indices=0&attempts=0")
        results, stats = run_counted(
            _triple,
            list(range(6)),
            jobs=2,
            policy=TaskPolicy(on_error="skip"),
        )
        # The pool breaks MAX_POOL_RESTARTS + 1 times, then the killer task
        # ends as a crash failure (the serial path downgrades the kill);
        # every other task still completes.
        assert failure_summary(results) == [(0, "InjectedCrashError", "crash", 3)]
        assert results[1:] == [3 * i for i in range(1, 6)]
        assert stats.pool_restarts == parallel.MAX_POOL_RESTARTS + 1

    def test_timeout_kills_and_retries(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "hang:@indices=1&sleep=30")
        results, stats = run_counted(
            _triple,
            list(range(4)),
            jobs=2,
            policy=TaskPolicy(timeout_s=0.4),
        )
        # attempts=1 (the default): the retry does not hang, so the task
        # recovers after the watchdog kills its first attempt.
        assert results == [0, 3, 6, 9]
        assert stats.pool_restarts >= 1
        assert stats.retries >= 1

    def test_timeout_exhausts_to_failure(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "hang:@indices=1&sleep=30&attempts=0")
        results, stats = run_counted(
            _triple,
            list(range(3)),
            jobs=2,
            policy=TaskPolicy(
                timeout_s=0.3, max_attempts=1, on_error="skip"
            ),
        )
        assert failure_summary(results) == [(1, "timeout", "timeout", 1)]
        assert results[0] == 0 and results[2] == 6
