"""Unit tests for the guided ask/tell search engine (core/search.py)."""

import pytest

from repro import obs
from repro.arch.config import build_hardware
from repro.core.checkpoint import sweep_digest, task_key
from repro.core.dse import DesignSpace, best_point, explore
from repro.core.parallel import SweepStats, TaskPolicy
from repro.core.search import (
    ExhaustiveStrategy,
    GuidedStrategy,
    Lattice,
    Study,
    StudyConfigError,
    edp_lower_bound,
)
from repro.core.space import SearchProfile
from repro.testing.faults import FaultPlan, install_plan, parse_fault_specs
from repro.workloads.layer import ConvLayer

# A lattice small enough that guided-with-enough-trials covers it fully:
# 6 computation configs x 16 legal memory combos = 96 points.
TINY_SPACE = DesignSpace(
    vector_sizes=(2, 4),
    lanes=(2, 4),
    cores=(1, 2),
    chiplets=(1, 2),
    o_l1_per_lane_bytes=(48,),
    a_l1_kb=(1, 2),
    w_l1_kb=(2, 4),
    a_l2_kb=(32, 64),
)
TINY_MACS = 16
TINY_MODELS = {
    "tiny": [
        ConvLayer("c1", h=14, w=14, ci=16, co=32, kh=3, kw=3, padding=1),
        ConvLayer("c2", h=7, w=7, ci=32, co=32, kh=1, kw=1),
    ]
}


def _tiny_guided(trials, seed=0, **kwargs):
    return explore(
        TINY_MODELS,
        TINY_MACS,
        space=TINY_SPACE,
        profile=SearchProfile.MINIMAL,
        strategy="guided",
        trials=trials,
        seed=seed,
        jobs=1,
        **kwargs,
    )


def _counted(run, *args, **kwargs):
    """``run(*args, **kwargs)`` under a metrics-only recorder, plus its
    stats view."""
    recorder = obs.MetricsRecorder()
    with obs.use(recorder):
        points = run(*args, **kwargs)
    return points, SweepStats(recorder.metrics)


def _key(point):
    """The task key of a returned design point."""
    return task_key((*point.hw.config_tuple(), point.hw.memory))


def _fingerprint(points):
    return [
        (
            p.label,
            p.valid,
            tuple(p.errors),
            tuple(sorted(p.energy_pj.items())),
            tuple(sorted(p.cycles.items())),
        )
        for p in points
    ]


class TestLattice:
    def test_size_counts_legal_points_only(self):
        lattice = Lattice(TINY_SPACE, TINY_MACS)
        assert lattice.size() == len(lattice.scan())

    def test_repair_bumps_a2_to_legal(self):
        space = DesignSpace(
            vector_sizes=(2,), lanes=(2,), cores=(2,), chiplets=(2,),
            o_l1_per_lane_bytes=(48,), a_l1_kb=(64,), w_l1_kb=(2,),
            a_l2_kb=(32, 128),
        )
        lattice = Lattice(space, 16)
        assert lattice.repair((0, 0, 0, 0, 0)) == (0, 0, 0, 0, 1)
        assert lattice.repair((0, 0, 0, 0, 1)) == (0, 0, 0, 0, 1)

    def test_repair_returns_none_when_no_legal_a2(self):
        space = DesignSpace(
            vector_sizes=(2,), lanes=(2,), cores=(2,), chiplets=(2,),
            o_l1_per_lane_bytes=(48,), a_l1_kb=(256,), w_l1_kb=(2,),
            a_l2_kb=(32, 128),
        )
        lattice = Lattice(space, 16)
        assert lattice.repair((0, 0, 0, 0, 0)) is None

    def test_unfactorable_mac_budget_raises(self):
        with pytest.raises(ValueError, match="factorization"):
            Lattice(TINY_SPACE, 7)

    def test_neighbours_are_legal_and_exclude_self(self):
        lattice = Lattice(TINY_SPACE, TINY_MACS)
        index = lattice.scan()[3]
        neighbours = lattice.neighbours(index)
        assert neighbours
        assert index not in neighbours
        legal = set(lattice.scan())
        assert set(neighbours) <= legal
        assert len(neighbours) == len(set(neighbours))

    def test_candidate_memory_matches_index(self):
        lattice = Lattice(TINY_SPACE, TINY_MACS)
        cand = lattice.candidate((0, 0, 1, 1, 1))
        assert cand.memory.a_l1_bytes == 2 * 1024
        assert cand.memory.w_l1_bytes == 4 * 1024
        assert cand.memory.a_l2_bytes == 64 * 1024
        lane = cand.comp[2]
        assert cand.memory.o_l1_bytes == 48 * lane


class TestStrategies:
    def test_exhaustive_strategy_covers_lattice_once(self):
        strategy = ExhaustiveStrategy(TINY_SPACE, TINY_MACS)
        seen = []
        while not strategy.finished():
            batch = strategy.ask(7)
            seen.extend(cand.index for cand in batch)
        assert seen == strategy.lattice.scan()

    @pytest.mark.parametrize(
        "space, macs",
        [
            (TINY_SPACE, TINY_MACS),
            (DesignSpace(), 4096),
            # Several O-L1 options and A-L1 sizes above some A-L2 sizes,
            # so the hierarchy filter drops combinations mid-sequence.
            (
                DesignSpace(
                    vector_sizes=(4, 8),
                    lanes=(2, 8),
                    cores=(2, 4),
                    chiplets=(1, 4),
                    o_l1_per_lane_bytes=(48, 96, 144),
                    a_l1_kb=(16, 64, 128),
                    w_l1_kb=(4, 36),
                    a_l2_kb=(32, 64, 256),
                ),
                256,
            ),
        ],
    )
    @pytest.mark.parametrize("stride", [1, 2, 3, 7, 97])
    def test_exhaustive_strategy_follows_sweep_order(self, space, macs, stride):
        # The computation configs crossed with every stride-th legal memory
        # combination, in DesignSpace order: the Figure 15 sweep order.
        expected = [
            task_key((*comp, memory))
            for comp in space.computation_configs(macs)
            for index, memory in enumerate(space.memory_configs(comp[2]))
            if index % stride == 0
        ]
        assert expected
        strategy = ExhaustiveStrategy(space, macs, stride)
        assert [cand.key for cand in strategy.ask()] == expected
        assert strategy.finished()

    def test_exhaustive_strategy_unfactorable_budget_proposes_nothing(self):
        strategy = ExhaustiveStrategy(TINY_SPACE, 7, 3)
        assert strategy.finished()
        assert strategy.ask() == []
        assert explore(TINY_MODELS, 7, space=TINY_SPACE, memory_stride=3) == []

    def test_exhaustive_strategy_rejects_bad_stride(self):
        with pytest.raises(ValueError, match="memory_stride"):
            ExhaustiveStrategy(TINY_SPACE, TINY_MACS, 0)

    def test_guided_never_reproposes(self):
        strategy = GuidedStrategy(TINY_SPACE, TINY_MACS, trials=1000, seed=3)
        seen = set()
        for _ in range(40):
            for cand in strategy.ask(8):
                assert cand.index not in seen
                seen.add(cand.index)

    def test_guided_exhausts_small_lattice(self):
        strategy = GuidedStrategy(TINY_SPACE, TINY_MACS, trials=10_000, seed=0)
        total = 0
        while True:
            batch = strategy.ask(16)
            if not batch:
                break
            total += len(batch)
        assert total == strategy.lattice.size()
        assert strategy.finished()

    def test_guided_rejects_empty_budget(self):
        with pytest.raises(ValueError, match="trials"):
            GuidedStrategy(TINY_SPACE, TINY_MACS, trials=0)


class TestLowerBoundAdmissible:
    def test_bound_never_exceeds_actual_edp(self):
        # Evaluate the full tiny sweep and check admissibility pointwise --
        # the property the pruning rule's safety rests on.
        points = explore(
            TINY_MODELS,
            TINY_MACS,
            space=TINY_SPACE,
            profile=SearchProfile.MINIMAL,
            jobs=1,
        )
        checked = 0
        for point in points:
            if not (point.valid and point.energy_pj):
                continue
            bound = edp_lower_bound(point.hw, TINY_MODELS["tiny"])
            assert bound <= point.edp("tiny") * (1 + 1e-12), point.label
            checked += 1
        assert checked > 10


class TestGuidedExplore:
    def test_full_budget_matches_exhaustive_optimum(self):
        # With trials >= lattice size the guided run covers every point, so
        # its best must equal the exhaustive oracle's best exactly.
        exhaustive = explore(
            TINY_MODELS,
            TINY_MACS,
            space=TINY_SPACE,
            profile=SearchProfile.MINIMAL,
            jobs=1,
        )
        oracle = best_point(exhaustive, "tiny")
        guided = _tiny_guided(trials=Lattice(TINY_SPACE, TINY_MACS).size())
        found = best_point(guided, "tiny")
        assert found is not None
        assert found.label == oracle.label
        assert found.edp("tiny") == oracle.edp("tiny")

    def test_seeded_runs_identical(self):
        a = _fingerprint(_tiny_guided(trials=30, seed=11))
        b = _fingerprint(_tiny_guided(trials=30, seed=11))
        assert a == b

    def test_different_seeds_diverge(self):
        a = _fingerprint(_tiny_guided(trials=30, seed=1))
        b = _fingerprint(_tiny_guided(trials=30, seed=2))
        assert a != b

    def test_budget_respected(self):
        points, stats = _counted(_tiny_guided, trials=9)
        evaluated = sum(1 for p in points if p.valid and p.energy_pj)
        assert evaluated <= 9
        assert stats.points_evaluated == evaluated

    def test_pruned_points_are_labelled(self):
        # An unconstrained run over the tiny lattice prunes at least one
        # oversized-memory candidate once an incumbent exists.
        points, stats = _counted(_tiny_guided, trials=96)
        pruned = [
            p
            for p in points
            if not p.valid and any(e.startswith("pruned:") for e in p.errors)
        ]
        assert len(pruned) == stats.points_pruned
        for point in pruned:
            assert edp_lower_bound(point.hw, TINY_MODELS["tiny"]) > 0

    def test_pruning_never_discards_the_optimum(self):
        # The winning label of a pruned run must match the full sweep's.
        exhaustive = explore(
            TINY_MODELS,
            TINY_MACS,
            space=TINY_SPACE,
            profile=SearchProfile.MINIMAL,
            jobs=1,
        )
        oracle = best_point(exhaustive, "tiny")
        guided = _tiny_guided(trials=96)
        found = best_point(guided, "tiny")
        assert found.label == oracle.label
        assert found.edp("tiny") == oracle.edp("tiny")


class TestStudyResume:
    def test_resume_skips_completed_trials(self, tmp_path):
        study = tmp_path / "study.sqlite"
        first = _tiny_guided(trials=20, study=study)
        second, stats = _counted(_tiny_guided, trials=20, study=study)
        assert stats.points_resumed > 0
        # Every evaluated answer came from the study, none re-ran.
        assert stats.points_evaluated == stats.points_resumed
        assert _fingerprint(first) == _fingerprint(second)

    def test_partial_study_resumes_then_continues(self, tmp_path):
        study = tmp_path / "study.sqlite"
        _tiny_guided(trials=10, study=study)
        bigger = _tiny_guided(trials=25, study=None)
        # A larger budget is a different search: same path must be refused.
        with pytest.raises(StudyConfigError):
            _tiny_guided(trials=25, study=study)
        assert bigger  # the fresh run itself is unaffected

    def test_mismatched_seed_refused(self, tmp_path):
        study = tmp_path / "study.sqlite"
        _tiny_guided(trials=10, seed=0, study=study)
        with pytest.raises(StudyConfigError, match="seed"):
            _tiny_guided(trials=10, seed=1, study=study)

    def test_study_meta_pins_digest(self, tmp_path):
        path = tmp_path / "study.sqlite"
        Study(path, "digest-a", meta={"strategy": "guided"}).close()
        with pytest.raises(StudyConfigError, match="digest"):
            Study(path, "digest-b", meta={"strategy": "guided"})


class TestStudyCorruption:
    """A damaged --study file is quarantined, never a raw DatabaseError."""

    def test_garbage_file_is_quarantined(self, tmp_path):
        from repro import obs

        path = tmp_path / "study.sqlite"
        path.write_bytes(b"this is not a sqlite database\n")
        recorder = obs.Recorder()
        with obs.use(recorder):
            store = Study(path, "digest-a", meta={"strategy": "guided"})
        try:
            assert store.quarantined is not None
            assert store.quarantined.name.startswith("study.sqlite.corrupt-")
            assert store.quarantined.exists()
            # The fresh replacement works normally.
            store.record("k1", {"label": "p1"})
            store.flush()
            assert store.load() == {"k1": {"label": "p1"}}
        finally:
            store.close()
        assert recorder.metrics.counters()["study.corrupt_files"] == 1

    def test_truncated_file_is_quarantined(self, tmp_path):
        path = tmp_path / "study.sqlite"
        first = Study(path, "digest-a", meta={"strategy": "guided"})
        first.record("k1", {"label": "p1"})
        first.flush()
        first.close()
        # Chop the committed database in half: quick_check must fail.
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        store = Study(path, "digest-a", meta={"strategy": "guided"})
        try:
            assert store.quarantined is not None
            assert store.load() == {}  # fresh study, old trials set aside
        finally:
            store.close()

    def test_corrupt_study_fault_kind(self, tmp_path):
        from repro.testing.faults import FaultPlan, FaultSpec, install_plan

        path = tmp_path / "study.sqlite"
        previous = install_plan(FaultPlan([FaultSpec(kind="corrupt-study")]))
        try:
            store = Study(path, "digest-a", meta={"strategy": "guided"})
        finally:
            install_plan(previous)
        try:
            # The injected garbage file was quarantined on open.
            assert store.quarantined is not None
            store.record("k1", {"label": "p1"})
            store.flush()
            assert store.load() == {"k1": {"label": "p1"}}
        finally:
            store.close()

    def test_guided_explore_survives_corrupt_study(self, tmp_path):
        study = tmp_path / "study.sqlite"
        baseline = _tiny_guided(trials=10, study=None)
        study.write_bytes(b"\xff" * 64)
        points = _tiny_guided(trials=10, study=study)
        assert _fingerprint(points) == _fingerprint(baseline)
        assert list(tmp_path.glob("study.sqlite.corrupt-*"))


class TestFailureLabels:
    """Skipped failures name their point on both strategies."""

    @pytest.mark.parametrize(
        "options", [{}, {"strategy": "guided", "trials": 20}]
    )
    def test_failures_carry_task_key_and_point_index(self, options):
        # The fault hits task 1 of every run_tasks call: once in the
        # exhaustive round, once per guided round that evaluates >= 2.
        install_plan(FaultPlan(parse_fault_specs("exc:@indices=1&attempts=0")))
        try:
            points, stats = _counted(
                explore,
                TINY_MODELS,
                TINY_MACS,
                space=TINY_SPACE,
                profile=SearchProfile.MINIMAL,
                jobs=1,
                policy=TaskPolicy(on_error="skip"),
                **options,
            )
        finally:
            install_plan(None)
        failures = [point.failure for point in points if point.failure]
        assert stats.points_failed == len(failures) >= 1
        if options:
            assert len(failures) > 1
        indices = [failure.index for failure in failures]
        assert len(set(indices)) == len(indices)
        for failure in failures:
            point = points[failure.index]
            assert failure.label == _key(point)
            assert not point.valid
            assert point.errors[0].startswith("evaluation failed")


class TestExploreDispatch:
    def test_guided_requires_trials(self):
        with pytest.raises(ValueError, match="trials"):
            explore(TINY_MODELS, TINY_MACS, space=TINY_SPACE, strategy="guided")

    def test_guided_rejects_checkpointing(self, tmp_path):
        with pytest.raises(ValueError, match="study"):
            explore(
                TINY_MODELS,
                TINY_MACS,
                space=TINY_SPACE,
                strategy="guided",
                trials=5,
                checkpoint_dir=tmp_path,
            )

    def test_guided_rejects_memory_stride(self):
        with pytest.raises(ValueError, match="memory_stride"):
            explore(
                TINY_MODELS,
                TINY_MACS,
                space=TINY_SPACE,
                strategy="guided",
                trials=5,
                memory_stride=8,
            )

    def test_exhaustive_rejects_guided_knobs(self):
        with pytest.raises(ValueError, match="guided"):
            explore(TINY_MODELS, TINY_MACS, space=TINY_SPACE, trials=5)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            explore(TINY_MODELS, TINY_MACS, space=TINY_SPACE, strategy="tpe")

    def test_option_errors_are_usage_errors(self):
        from repro.errors import EXIT_USAGE, UsageError

        with pytest.raises(UsageError, match="--trials") as excinfo:
            explore(TINY_MODELS, TINY_MACS, space=TINY_SPACE, strategy="guided")
        assert excinfo.value.exit_code == EXIT_USAGE


class TestDigestIncludesSearchParams:
    def test_strategy_seed_trials_change_digest(self):
        base = sweep_digest(
            TINY_MODELS, TINY_MACS, TINY_SPACE, None,
            SearchProfile.MINIMAL, build_hardware(1, 1, 2, 8).tech, 1,
        )
        variants = [
            sweep_digest(
                TINY_MODELS, TINY_MACS, TINY_SPACE, None,
                SearchProfile.MINIMAL, build_hardware(1, 1, 2, 8).tech, 1,
                strategy="guided", seed=0, trials=100,
            ),
            sweep_digest(
                TINY_MODELS, TINY_MACS, TINY_SPACE, None,
                SearchProfile.MINIMAL, build_hardware(1, 1, 2, 8).tech, 1,
                strategy="guided", seed=1, trials=100,
            ),
            sweep_digest(
                TINY_MODELS, TINY_MACS, TINY_SPACE, None,
                SearchProfile.MINIMAL, build_hardware(1, 1, 2, 8).tech, 1,
                strategy="guided", seed=0, trials=200,
            ),
        ]
        digests = [base] + variants
        assert len(set(digests)) == len(digests)

    def test_default_digest_is_stable(self):
        tech = build_hardware(1, 1, 2, 8).tech
        a = sweep_digest(
            TINY_MODELS, TINY_MACS, TINY_SPACE, None,
            SearchProfile.MINIMAL, tech, 1,
        )
        b = sweep_digest(
            TINY_MODELS, TINY_MACS, TINY_SPACE, None,
            SearchProfile.MINIMAL, tech, 1,
            strategy="exhaustive", seed=None, trials=None,
        )
        assert a == b
