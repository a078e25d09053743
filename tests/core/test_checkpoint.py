"""Sweep checkpoints: digest keying, torn-tail tolerance, and resume.

The headline guarantee: an interrupted sweep resumed from its checkpoint
returns exactly the points an uninterrupted run returns, and never trusts a
checkpoint whose sweep parameters (or format version) differ.
"""

import json

import pytest

from repro import obs
from repro.arch.technology import DEFAULT_TECHNOLOGY
from repro.core.checkpoint import (
    CHECKPOINT_DIR_ENV,
    CHECKPOINT_FORMAT_VERSION,
    SweepCheckpoint,
    sweep_digest,
    task_key,
)
from repro.core.dse import DesignSpace, explore
from repro.core.parallel import SweepStats, TaskPolicy
from repro.core.space import SearchProfile
from repro.testing.faults import FaultPlan, install_plan, parse_fault_specs
from repro.workloads.layer import ConvLayer
from repro.workloads.models import alexnet

SMALL_SPACE = DesignSpace(
    vector_sizes=(4,),
    lanes=(4,),
    cores=(2, 4),
    chiplets=(1, 2),
    o_l1_per_lane_bytes=(96,),
    a_l1_kb=(2, 4),
    w_l1_kb=(8,),
    a_l2_kb=(32,),
)


def small_models():
    return {"alexnet": alexnet(resolution=224)[:4]}


def digest_of(models, **overrides):
    kwargs = dict(
        required_macs=32,
        space=SMALL_SPACE,
        max_chiplet_mm2=None,
        profile=SearchProfile.MINIMAL,
        tech=DEFAULT_TECHNOLOGY,
        memory_stride=1,
    )
    kwargs.update(overrides)
    return sweep_digest(models, **kwargs)


def counted_explore(*args, **kwargs):
    """``explore`` under a metrics-only recorder, plus its stats view."""
    recorder = obs.MetricsRecorder()
    with obs.use(recorder):
        points = explore(*args, **kwargs)
    return points, SweepStats(recorder.metrics)


def point_fingerprint(points):
    return [
        (
            p.label,
            p.valid,
            p.errors,
            p.chiplet_area_mm2,
            sorted(p.energy_pj.items()),
            sorted(p.cycles.items()),
        )
        for p in points
    ]


class TestSweepDigest:
    def test_stable(self):
        models = small_models()
        assert digest_of(models) == digest_of(small_models())

    def test_parameters_change_the_digest(self):
        models = small_models()
        base = digest_of(models)
        assert digest_of(models, required_macs=64) != base
        assert digest_of(models, memory_stride=2) != base
        assert digest_of(models, profile=SearchProfile.FAST) != base
        assert digest_of(models, max_chiplet_mm2=2.0) != base

    def test_task_key_includes_memory(self):
        space = SMALL_SPACE
        tasks = []
        for config in space.computation_configs(32):
            for memory in space.memory_configs(config[2]):
                tasks.append((*config, memory))
        keys = [task_key(t) for t in tasks]
        assert len(set(keys)) == len(keys)


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path, "d" * 64, flush_every=2)
        ckpt.reset()
        ckpt.record("a", {"x": 1})
        ckpt.record("b", {"x": 2})  # auto-flush at 2
        ckpt.record("c", {"x": 3})
        ckpt.flush()
        loaded = SweepCheckpoint(tmp_path, "d" * 64).load()
        assert loaded == {"a": {"x": 1}, "b": {"x": 2}, "c": {"x": 3}}

    def test_missing_file_is_empty(self, tmp_path):
        assert SweepCheckpoint(tmp_path, "e" * 64).load() == {}

    def test_torn_tail_tolerated(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path, "f" * 64)
        ckpt.reset()
        ckpt.record("a", {"x": 1})
        ckpt.flush()
        with open(ckpt.path, "a") as handle:
            handle.write('{"kind": "point", "key": "b", "rec')  # torn write
        fresh = SweepCheckpoint(tmp_path, "f" * 64)
        assert fresh.load() == {"a": {"x": 1}}
        assert fresh.corrupt_lines == 1

    def test_flushes_after_a_torn_tail_all_load(self, tmp_path):
        """A flush that returned is never glued to a crash's fragment."""
        ckpt = SweepCheckpoint(tmp_path, "f" * 64, flush_every=1)
        ckpt.reset()
        ckpt.record("p0", {"x": 0})
        with open(ckpt.path, "a") as handle:
            handle.write('{"kind": "point", "key": "p1", "rec')  # torn write
        resumed = SweepCheckpoint(tmp_path, "f" * 64, flush_every=1)
        resumed.load()
        resumed.record("p2", {"x": 2})
        resumed.record("p3", {"x": 3})
        fresh = SweepCheckpoint(tmp_path, "f" * 64)
        assert sorted(fresh.load()) == ["p0", "p2", "p3"]
        assert fresh.corrupt_lines == 1

    def test_first_flush_into_a_missing_file_keeps_its_points(self, tmp_path):
        """A resume that finds no file writes the header, then the points."""
        ckpt = SweepCheckpoint(tmp_path, "9" * 64, flush_every=2)
        assert ckpt.load() == {}
        ckpt.record("a", {"x": 1})
        ckpt.record("b", {"x": 2})  # auto-flush: header first
        loaded = SweepCheckpoint(tmp_path, "9" * 64).load()
        assert loaded == {"a": {"x": 1}, "b": {"x": 2}}

    def test_version_mismatch_set_aside(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path, "a" * 64)
        ckpt.reset()
        ckpt.record("a", {"x": 1})
        ckpt.flush()
        lines = ckpt.path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = CHECKPOINT_FORMAT_VERSION + 1
        ckpt.path.write_text(
            "\n".join([json.dumps(header)] + lines[1:]) + "\n"
        )
        fresh = SweepCheckpoint(tmp_path, "a" * 64)
        assert fresh.load() == {}
        assert not fresh.path.exists()
        assert list(tmp_path.glob("*.corrupt-*"))

    def test_headerless_file_set_aside(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path, "b" * 64)
        tmp_path.mkdir(exist_ok=True)
        ckpt.path.write_text('{"kind": "point", "key": "a", "record": {}}\n')
        assert ckpt.load() == {}
        assert list(tmp_path.glob("*.corrupt-*"))

    def test_flush_every_validated(self, tmp_path):
        with pytest.raises(ValueError):
            SweepCheckpoint(tmp_path, "c" * 64, flush_every=0)

    def test_resolve_dir(self, tmp_path, monkeypatch):
        assert SweepCheckpoint.resolve_dir(tmp_path / "x") == tmp_path / "x"
        monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path / "env"))
        assert SweepCheckpoint.resolve_dir(None) == tmp_path / "env"
        monkeypatch.delenv(CHECKPOINT_DIR_ENV)
        assert str(SweepCheckpoint.resolve_dir(None)) == ".repro_checkpoints"


class TestExploreResume:
    def kwargs(self):
        return dict(
            required_macs=32,
            space=SMALL_SPACE,
            profile=SearchProfile.MINIMAL,
        )

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="resume"):
            explore(small_models(), resume=True, **self.kwargs())

    def test_full_resume_skips_every_point(self, tmp_path):
        models = small_models()
        first = explore(models, checkpoint_dir=tmp_path, **self.kwargs())
        second, stats = counted_explore(
            models,
            checkpoint_dir=tmp_path,
            resume=True,
            **self.kwargs(),
        )
        assert point_fingerprint(first) == point_fingerprint(second)
        assert stats.points_resumed == len(first)
        # Resumed runs re-report the stored cache counters, so the stats
        # shape matches an uninterrupted run.
        assert stats.cache_misses > 0

    def test_resumed_run_reports_the_clean_runs_cache_counters(self, tmp_path):
        models = small_models()
        _, clean = counted_explore(
            models, checkpoint_dir=tmp_path, **self.kwargs()
        )
        _, resumed = counted_explore(
            models, checkpoint_dir=tmp_path, resume=True, **self.kwargs()
        )
        assert resumed.points_resumed == clean.points_evaluated > 0
        assert resumed.cache_hits == clean.cache_hits
        assert resumed.cache_misses == clean.cache_misses > 0

    def test_interrupt_flushes_then_resume_is_identical(self, tmp_path):
        models = small_models()
        clean = explore(models, **self.kwargs())
        install_plan(FaultPlan(parse_fault_specs("interrupt:@indices=1")))
        try:
            with pytest.raises(KeyboardInterrupt):
                explore(
                    models,
                    checkpoint_dir=tmp_path,
                    checkpoint_every=1,
                    **self.kwargs(),
                )
        finally:
            install_plan(None)
        stored = SweepCheckpoint(
            SweepCheckpoint.resolve_dir(tmp_path),
            digest_of(models),
        ).load()
        assert len(stored) == 1  # point 0 completed before the interrupt
        resumed, stats = counted_explore(
            models,
            checkpoint_dir=tmp_path,
            resume=True,
            **self.kwargs(),
        )
        assert point_fingerprint(resumed) == point_fingerprint(clean)
        assert stats.points_resumed == 1

    def test_capped_sweep_stores_and_resumes_evaluated_points_only(
        self, tmp_path
    ):
        models = small_models()
        # At 64 MACs the 0.7 mm^2 cap invalidates two of the four points.
        kwargs = dict(self.kwargs(), required_macs=64, max_chiplet_mm2=0.7)

        def payload(points):
            return json.dumps(
                [
                    [p.label, p.hw.memory.a_l1_bytes] + list(entry)
                    for p, entry in zip(points, point_fingerprint(points))
                ]
            ).encode()

        first = explore(models, checkpoint_dir=tmp_path, **kwargs)
        evaluated = [p for p in first if p.valid]
        assert 0 < len(evaluated) < len(first)
        stored = SweepCheckpoint(
            SweepCheckpoint.resolve_dir(tmp_path),
            digest_of(models, required_macs=64, max_chiplet_mm2=0.7),
        ).load()
        assert sorted(stored) == sorted(
            task_key((*p.hw.config_tuple(), p.hw.memory)) for p in evaluated
        )
        resumed, stats = counted_explore(
            models, checkpoint_dir=tmp_path, resume=True, **kwargs
        )
        assert payload(resumed) == payload(first)
        assert payload(first) == payload(explore(models, **kwargs))
        assert stats.points_resumed == len(evaluated)

    def test_emptied_checkpoint_resumes_every_point(self, tmp_path):
        # A resume into an empty file must start it with a header, or the
        # next resume sets the headerless file aside and re-runs it all.
        models = {"tiny": [ConvLayer("c1", h=14, w=14, ci=16, co=32, kh=3, kw=3)]}
        kwargs = dict(
            required_macs=16,
            space=DesignSpace(
                vector_sizes=(2, 4), lanes=(2, 4), cores=(1, 2), chiplets=(1, 2),
                o_l1_per_lane_bytes=(48,), a_l1_kb=(1, 2), w_l1_kb=(2, 4),
                a_l2_kb=(32, 64),
            ),
            profile=SearchProfile.MINIMAL,
            checkpoint_dir=tmp_path,
        )
        first = explore(models, **kwargs)
        assert len(first) == 48 and all(p.valid for p in first)
        (path,) = tmp_path.glob("sweep-*.jsonl")
        path.write_text("")
        _, refilled = counted_explore(models, resume=True, **kwargs)
        assert refilled.points_resumed == 0
        resumed, stats = counted_explore(models, resume=True, **kwargs)
        assert stats.points_resumed == 48
        assert point_fingerprint(resumed) == point_fingerprint(first)
        assert not list(tmp_path.glob("*.corrupt-*"))

    def test_changed_sweep_never_reuses_the_checkpoint(self, tmp_path):
        models = small_models()
        explore(models, checkpoint_dir=tmp_path, **self.kwargs())
        _, stats = counted_explore(
            models,
            checkpoint_dir=tmp_path,
            resume=True,
            max_chiplet_mm2=2.0,
            **self.kwargs(),
        )
        assert stats.points_resumed == 0

    def test_failed_points_are_not_checkpointed(self, tmp_path):
        models = small_models()
        install_plan(
            FaultPlan(parse_fault_specs("exc:@indices=1&attempts=0"))
        )
        try:
            points, stats = counted_explore(
                models,
                checkpoint_dir=tmp_path,
                policy=TaskPolicy(on_error="skip"),
                **self.kwargs(),
            )
        finally:
            install_plan(None)
        assert stats.points_failed == 1
        assert not points[1].valid
        assert "evaluation failed" in points[1].errors[0]
        assert points[1].failure.label  # labelled with the task key
        stored = SweepCheckpoint(
            SweepCheckpoint.resolve_dir(tmp_path), digest_of(models)
        ).load()
        assert len(stored) == len(points) - 1
        # The failed point is re-evaluated (and recovers) on resume.
        resumed = explore(
            models, checkpoint_dir=tmp_path, resume=True, **self.kwargs()
        )
        assert all(p.valid for p in resumed)


class TestCheckpointDegradedMode:
    """A failing disk disables the checkpoint sink; the sweep continues."""

    def test_enospc_on_flush_degrades_once(self, tmp_path, caplog):
        import logging

        from repro import durable, obs

        durable.reset_degraded()
        install_plan(FaultPlan(parse_fault_specs("enospc@sink=checkpoint")))
        recorder = obs.Recorder()
        try:
            with obs.use(recorder), caplog.at_level(
                logging.WARNING, "repro.durable"
            ):
                ckpt = SweepCheckpoint(tmp_path, "a" * 64, flush_every=1)
                ckpt.record("k1", {"x": 1})  # auto-flush hits injected ENOSPC
                ckpt.record("k2", {"x": 2})  # degraded: silent no-op
        finally:
            install_plan(None)
        assert not durable.sink_enabled("checkpoint")
        counters = recorder.metrics.counters()
        assert counters["degraded.checkpoint"] == 1
        # Both the header write and the buffered append hit the fault.
        assert counters["resource.enospc"] == 2
        assert len([r for r in caplog.records if "disabled" in r.message]) == 1
        durable.reset_degraded()

    def test_degraded_flush_does_not_grow_buffer(self, tmp_path):
        from repro import durable

        durable.reset_degraded()
        durable.record_sink_failure("checkpoint", OSError(28, "full"))
        try:
            ckpt = SweepCheckpoint(tmp_path, "b" * 64, flush_every=1)
            for n in range(100):
                ckpt.record(f"k{n}", {"x": n})
            assert ckpt._buffer == []  # cleared, not accumulating forever
            assert not ckpt.path.exists()
        finally:
            durable.reset_degraded()

    def test_explore_completes_with_checkpoint_sink_down(self, tmp_path):
        from repro import durable

        kwargs = dict(
            models={"alexnet": alexnet()[:2]},
            required_macs=32,
            space=SMALL_SPACE,
            profile=SearchProfile.MINIMAL,
            jobs=1,
        )
        clean = explore(**kwargs)
        durable.reset_degraded()
        install_plan(FaultPlan(parse_fault_specs("enospc@sink=checkpoint")))
        try:
            faulted = explore(checkpoint_dir=tmp_path, **kwargs)
        finally:
            install_plan(None)
            durable.reset_degraded()
        assert [p.label for p in faulted] == [p.label for p in clean]
        assert [p.energy_pj for p in faulted] == [p.energy_pj for p in clean]
