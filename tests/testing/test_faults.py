"""The deterministic fault-injection harness: DSL, firing, and plumbing.

Every fault decision must be a pure function of (spec, task index, attempt)
-- no wall-clock state -- so a faulted run replays exactly and CI can assert
faulted output against a clean run byte for byte.
"""

import pytest

from repro.testing.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
    InjectedTaskError,
    active_plan,
    install_plan,
    parse_fault_specs,
)


@pytest.fixture(autouse=True)
def _no_installed_plan():
    previous = install_plan(None)
    yield
    install_plan(previous)


class TestParse:
    def test_kind_only(self):
        (spec,) = parse_fault_specs("crash")
        assert spec.kind == "crash"
        assert spec.rate == 1.0
        assert spec.attempts == 1

    def test_rate_and_params(self):
        (spec,) = parse_fault_specs("crash:0.25@seed=7&attempts=2")
        assert spec.rate == 0.25
        assert spec.seed == 7
        assert spec.attempts == 2

    def test_indices_and_sleep(self):
        (spec,) = parse_fault_specs("hang:@indices=3;5&sleep=0.2")
        assert spec.indices == (3, 5)
        assert spec.sleep_s == 0.2

    def test_multiple_specs(self):
        specs = parse_fault_specs("kill:@indices=0, exc:@indices=5")
        assert [s.kind for s in specs] == ["kill", "exc"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault_specs("explode")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="bad rate"):
            parse_fault_specs("crash:often")

    def test_bad_param_rejected(self):
        with pytest.raises(ValueError):
            parse_fault_specs("crash@seed=x")
        with pytest.raises(ValueError):
            parse_fault_specs("crash@volume=11")


class TestFires:
    def test_rate_draw_is_deterministic(self):
        spec = FaultSpec(kind="crash", rate=0.3, seed=7)
        first = [spec.fires(i) for i in range(200)]
        second = [spec.fires(i) for i in range(200)]
        assert first == second
        assert 20 <= sum(first) <= 100  # ~30% of 200, loosely

    def test_seed_changes_the_draw(self):
        a = FaultSpec(kind="crash", rate=0.3, seed=1)
        b = FaultSpec(kind="crash", rate=0.3, seed=2)
        assert [a.fires(i) for i in range(200)] != [
            b.fires(i) for i in range(200)
        ]

    def test_attempts_gate(self):
        spec = FaultSpec(kind="crash", indices=(4,), attempts=1)
        assert spec.fires(4, attempt=0)
        assert not spec.fires(4, attempt=1)
        always = FaultSpec(kind="crash", indices=(4,), attempts=0)
        assert always.fires(4, attempt=3)

    def test_indices_override_rate(self):
        spec = FaultSpec(kind="exc", rate=0.0, indices=(2,))
        assert spec.fires(2)
        assert not spec.fires(3)


class TestPlan:
    def test_crash_is_transient(self):
        plan = FaultPlan(parse_fault_specs("crash:@indices=1"))
        plan.before_task(0)  # index 0 untouched
        with pytest.raises(InjectedCrashError):
            plan.before_task(1)

    def test_exc_is_deterministic(self):
        plan = FaultPlan(parse_fault_specs("exc:@indices=0"))
        with pytest.raises(InjectedTaskError):
            plan.before_task(0)
        assert not issubclass(InjectedTaskError, InjectedCrashError)

    def test_interrupt_raises_keyboard_interrupt(self):
        plan = FaultPlan(parse_fault_specs("interrupt:@indices=0"))
        with pytest.raises(KeyboardInterrupt):
            plan.before_task(0)

    def test_kill_inline_downgrades_to_crash(self):
        # Outside a pool worker os._exit would kill the test process.
        plan = FaultPlan(parse_fault_specs("kill:@indices=0"))
        with pytest.raises(InjectedCrashError):
            plan.before_task(0)

    def test_corrupt_text_truncates(self):
        plan = FaultPlan(parse_fault_specs("corrupt-cache:@indices=0"))
        text = '{"version": 1, "entries": {"k": 1}}'
        corrupted = plan.corrupt_text(text, 0)
        assert corrupted is not None and corrupted != text
        assert plan.corrupt_text(text, 1) is None

    def test_hang_sleeps(self):
        import time

        plan = FaultPlan(parse_fault_specs("hang:@indices=0&sleep=0.05"))
        start = time.monotonic()
        plan.before_task(0)
        assert time.monotonic() - start >= 0.05


class TestIoKinds:
    """The sink-write fault kinds: enospc, eio, slow-disk, corrupt-study."""

    def test_parse_sink_param(self):
        (spec,) = parse_fault_specs("enospc:0.5@seed=3&sink=cache")
        assert spec.kind == "enospc"
        assert spec.rate == 0.5
        assert spec.sink == "cache"

    def test_parse_empty_sink_rejected(self):
        with pytest.raises(ValueError):
            parse_fault_specs("eio@sink=")

    def test_before_io_enospc_and_eio(self):
        import errno

        plan = FaultPlan(parse_fault_specs("enospc:@indices=0, eio:@indices=1"))
        with pytest.raises(OSError) as exc:
            plan.before_io("cache", 0)
        assert exc.value.errno == errno.ENOSPC
        with pytest.raises(OSError) as exc:
            plan.before_io("cache", 1)
        assert exc.value.errno == errno.EIO
        plan.before_io("cache", 2)  # no fault scheduled

    def test_before_io_sink_filter(self):
        plan = FaultPlan(parse_fault_specs("enospc@sink=cache"))
        plan.before_io("checkpoint", 0)  # other sinks untouched
        with pytest.raises(OSError):
            plan.before_io("cache", 0)

    def test_slow_disk_sleeps_without_failing(self):
        import time

        plan = FaultPlan(parse_fault_specs("slow-disk:@indices=0&sleep=0.05"))
        start = time.monotonic()
        plan.before_io("bench", 0)
        assert time.monotonic() - start >= 0.05

    def test_task_kinds_ignore_io_hook_and_vice_versa(self):
        plan = FaultPlan(parse_fault_specs("crash:@indices=0, enospc:@indices=0"))
        # before_io never raises the task fault; before_task never the I/O one.
        with pytest.raises(OSError):
            plan.before_io("cache", 0)
        with pytest.raises(InjectedCrashError):
            plan.before_task(0)

    def test_corrupt_study_truncates_existing_file(self, tmp_path):
        plan = FaultPlan(parse_fault_specs("corrupt-study"))
        target = tmp_path / "study.jsonl"
        target.write_bytes(b"A" * 100)
        assert plan.corrupt_study_file(target)
        blob = target.read_bytes()
        assert len(blob) < 100
        assert blob.endswith(b"\xff")

    def test_corrupt_study_writes_garbage_for_missing_file(self, tmp_path):
        plan = FaultPlan(parse_fault_specs("corrupt-study"))
        target = tmp_path / "fresh" / "study.jsonl"
        assert plan.corrupt_study_file(target)
        assert target.exists()
        # No header line: the store's loader sets the file aside.
        assert b'"header"' not in target.read_bytes()

    def test_corrupt_study_respects_indices(self, tmp_path):
        plan = FaultPlan(parse_fault_specs("corrupt-study:@indices=1"))
        target = tmp_path / "study.jsonl"
        assert not plan.corrupt_study_file(target, index=0)
        assert not target.exists()


class TestActivePlan:
    def test_none_without_env_or_install(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert active_plan() is None

    def test_env_supplies_plan(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash:0.5@seed=3")
        plan = active_plan()
        assert plan is not None
        assert plan.specs[0].rate == 0.5
        # Cached by raw string; a changed value re-parses.
        monkeypatch.setenv(FAULTS_ENV, "crash:0.25@seed=3")
        assert active_plan().specs[0].rate == 0.25

    def test_installed_overrides_env(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash")
        mine = FaultPlan(())
        install_plan(mine)
        assert active_plan() is mine
