"""Crash-safe write helpers, fault injection at sink boundaries, degradation.

``atomic_write``/``durable_append`` are the only way bytes reach a
persistent sink, so these tests pin their rename/append semantics, the
JSONL appender and parser every store shares, the set-aside rule, the
deterministic I/O fault hook, and the degrade-once contract that keeps a
full disk from killing (or spamming) a sweep.
"""

import errno
import logging

import pytest

from repro import durable, obs
from repro.testing.faults import FaultPlan, FaultSpec, install_plan


@pytest.fixture(autouse=True)
def _clean_state():
    previous = install_plan(None)
    durable.reset_degraded()
    yield
    install_plan(previous)
    durable.reset_degraded()


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.json"
        durable.atomic_write(target, "one")
        assert target.read_text() == "one"
        durable.atomic_write(target, "two")
        assert target.read_text() == "two"
        # No temp debris left behind.
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_write_leaves_old_content(self, tmp_path):
        target = tmp_path / "out.json"
        install_plan(FaultPlan([FaultSpec(kind="enospc", sink="t", indices=(1,))]))
        durable.atomic_write(target, "old", sink="t")  # write 0: clean
        with pytest.raises(OSError) as exc:
            durable.atomic_write(target, "new", sink="t")
        assert exc.value.errno == errno.ENOSPC
        assert target.read_text() == "old"
        assert list(tmp_path.iterdir()) == [target]

    def test_fsync_opt_out_keeps_atomicity(self, tmp_path, monkeypatch):
        monkeypatch.setenv(durable.DURABLE_FSYNC_ENV, "0")
        assert not durable.fsync_enabled()
        target = tmp_path / "out.json"
        durable.atomic_write(target, "content")
        assert target.read_text() == "content"


class TestDurableAppend:
    def test_appends(self, tmp_path):
        target = tmp_path / "log.jsonl"
        durable.durable_append(target, "a\n")
        durable.durable_append(target, "b\n")
        assert target.read_text() == "a\nb\n"

    def test_injected_eio(self, tmp_path):
        install_plan(FaultPlan([FaultSpec(kind="eio")]))
        with pytest.raises(OSError) as exc:
            durable.durable_append(tmp_path / "log", "x\n", sink="s")
        assert exc.value.errno == errno.EIO
        assert not (tmp_path / "log").exists()

    def test_starts_a_new_line_after_a_torn_tail(self, tmp_path):
        target = tmp_path / "log.jsonl"
        target.write_text('a\n{"torn')
        durable.durable_append(target, "b\n")
        durable.durable_append(target, "c\n")
        assert target.read_text() == 'a\n{"torn\nb\nc\n'


class TestJsonLines:
    def test_append_lines_creates_the_directory(self, tmp_path):
        target = tmp_path / "deep" / "er" / "log.jsonl"
        assert durable.append_lines(target, ['{"a": 1}', '{"b": 2}'], sink="s")
        assert target.read_text() == '{"a": 1}\n{"b": 2}\n'

    def test_append_lines_degrades_on_a_resource_error(self, tmp_path):
        install_plan(FaultPlan([FaultSpec(kind="enospc", sink="s")]))
        recorder = obs.Recorder()
        with obs.use(recorder):
            assert not durable.append_lines(tmp_path / "log", ["{}"], sink="s")
        assert not durable.sink_enabled("s")
        assert recorder.metrics.counters()["degraded.s"] == 1

    def test_append_lines_raises_other_errors(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(OSError):
            durable.append_lines(blocker / "log", ["{}"], sink="s")
        assert durable.sink_enabled("s")

    def test_parse_lines_skips_blanks_and_counts_the_rest(self):
        text = '{"a": 1}\n\n  \n[1, 2]\n"text"\n{"b": 2}\n{"torn'
        assert durable.parse_lines(text) == ([{"a": 1}, {"b": 2}], 3)
        assert durable.parse_lines("") == ([], 0)


class TestSetAside:
    def test_renames_counts_and_warns(self, tmp_path, caplog):
        target = tmp_path / "state.json"
        target.write_text("garbage")
        recorder = obs.Recorder()
        with obs.use(recorder), caplog.at_level(logging.WARNING, "repro.durable"):
            moved = durable.set_aside(target, "state.corrupt_files", "garbled")
        assert not target.exists()
        assert moved.name.startswith("state.json.corrupt-")
        assert moved.read_text() == "garbage"
        assert recorder.metrics.counters()["state.corrupt_files"] == 1
        assert len([r for r in caplog.records if "garbled" in r.message]) == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            durable.set_aside(tmp_path / "gone", "state.corrupt_files", "x")


class TestFaultDeterminism:
    def test_per_sink_indices_are_independent(self, tmp_path):
        """``indices=0`` hits the first write of EACH sink, not globally."""
        install_plan(FaultPlan([FaultSpec(kind="enospc", indices=(0,))]))
        with pytest.raises(OSError):
            durable.atomic_write(tmp_path / "a", "x", sink="alpha")
        # alpha's write 1 succeeds; beta's write 0 fails.
        durable.atomic_write(tmp_path / "a", "x", sink="alpha")
        with pytest.raises(OSError):
            durable.atomic_write(tmp_path / "b", "x", sink="beta")

    def test_sink_filter(self, tmp_path):
        install_plan(FaultPlan([FaultSpec(kind="enospc", sink="cache")]))
        durable.atomic_write(tmp_path / "ok", "x", sink="checkpoint")
        with pytest.raises(OSError):
            durable.atomic_write(tmp_path / "no", "x", sink="cache")

    def test_rate_draw_is_deterministic(self, tmp_path):
        spec = FaultSpec(kind="enospc", rate=0.5, seed=3)
        fires = [spec.fires(i) for i in range(64)]
        assert fires == [spec.fires(i) for i in range(64)]
        assert 10 <= sum(fires) <= 54  # ~50% of 64, loosely

    def test_slow_disk_does_not_fail_the_write(self, tmp_path):
        install_plan(
            FaultPlan([FaultSpec(kind="slow-disk", sleep_s=0.01, indices=(0,))])
        )
        target = durable.atomic_write(tmp_path / "out", "x", sink="s")
        assert target.read_text() == "x"


class TestDegradedMode:
    def test_first_failure_disables_sink_with_one_warning(self, caplog):
        recorder = obs.Recorder()
        exc = OSError(errno.ENOSPC, "disk full")
        with obs.use(recorder), caplog.at_level(logging.WARNING, "repro.durable"):
            assert durable.sink_enabled("cache")
            durable.record_sink_failure("cache", exc)
            durable.record_sink_failure("cache", exc)
            durable.record_sink_failure("cache", exc)
        assert not durable.sink_enabled("cache")
        assert durable.sink_enabled("checkpoint")
        assert "cache" in durable.degraded_sinks()
        counters = recorder.metrics.counters()
        assert counters["degraded.cache"] == 1  # degrade counted once
        assert counters["resource.enospc"] == 3  # every failure counted
        warnings = [r for r in caplog.records if "disabled" in r.message]
        assert len(warnings) == 1

    def test_is_resource_error(self):
        assert durable.is_resource_error(OSError(errno.ENOSPC, "full"))
        assert durable.is_resource_error(OSError(errno.EIO, "bad"))
        assert durable.is_resource_error(OSError(errno.EDQUOT, "quota"))
        assert not durable.is_resource_error(OSError(errno.ENOENT, "missing"))
        assert not durable.is_resource_error(ValueError("nope"))

    def test_non_osexc_counts_as_unknown(self):
        recorder = obs.Recorder()
        with obs.use(recorder):
            durable.record_sink_failure("checkpoint", RuntimeError("full"))
        counters = recorder.metrics.counters()
        assert counters["resource.unknown"] == 1
        assert counters["degraded.checkpoint"] == 1

    def test_reset_degraded(self):
        durable.record_sink_failure("cache", OSError(errno.EIO, "x"))
        assert not durable.sink_enabled("cache")
        durable.reset_degraded()
        assert durable.sink_enabled("cache")
        assert durable.degraded_sinks() == {}
