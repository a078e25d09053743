"""Tests for the pre-design DSE flow (Table II, Figures 14-15)."""

import pytest

from repro import obs
from repro.core.checkpoint import task_key
from repro.core.dse import (
    DesignSpace,
    best_point,
    explore,
    granularity_study,
    pareto_front,
)
from repro.core.parallel import TaskPolicy
from repro.core.space import SearchProfile
from repro.testing.faults import FaultPlan, install_plan, parse_fault_specs
from repro.workloads.layer import ConvLayer


def tiny_model():
    # One small layer keeps DSE tests fast while exercising the full path.
    return {
        "tiny": [
            ConvLayer("c1", h=28, w=28, ci=32, co=64, kh=3, kw=3, stride=1, padding=1),
            ConvLayer("c2", h=14, w=14, ci=64, co=128, kh=1, kw=1),
        ]
    }


#: A reduced space so sweeps stay fast.
SMALL_SPACE = DesignSpace(
    vector_sizes=(4, 8),
    lanes=(4, 8),
    cores=(2, 4),
    chiplets=(2, 4),
    o_l1_per_lane_bytes=(96,),
    a_l1_kb=(1, 4),
    w_l1_kb=(4, 18),
    a_l2_kb=(32, 64),
)


class TestDesignSpace:
    def test_table_ii_published_options(self):
        space = DesignSpace()
        assert space.vector_sizes == (2, 4, 8, 16)
        assert space.lanes == (2, 4, 8, 16)
        assert space.cores == (1, 2, 4, 8, 16)
        assert space.chiplets == (1, 2, 4, 8)

    def test_2048_mac_factorizations(self):
        # The printed Table II options give 32 computation allocations for
        # 2048 MACs, of which exactly 3 are single-chiplet -- matching the
        # paper's "only three options" remark (its "63" headline is not
        # reproducible from any power-of-two option grid; see EXPERIMENTS.md).
        configs = DesignSpace().computation_configs(2048)
        assert len(configs) == 32
        assert sum(1 for c in configs if c[0] == 1) == 3

    def test_all_configs_hit_budget(self):
        for n_p, n_c, lane, vec in DesignSpace().computation_configs(4096):
            assert n_p * n_c * lane * vec == 4096

    def test_memory_configs_prune_inversion(self):
        # The paper's explicit pruning rule: skip A-L2 < A-L1.
        for memory in DesignSpace().memory_configs(lanes=8):
            assert memory.a_l2_bytes >= memory.a_l1_bytes

    def test_o_l1_scales_per_lane(self):
        sizes = {m.o_l1_bytes for m in DesignSpace().memory_configs(lanes=16)}
        assert sizes == {48 * 16, 96 * 16, 144 * 16}

    def test_sweep_size_counts_pairs(self):
        space = SMALL_SPACE
        total = space.sweep_size()
        per_lane = sum(
            1
            for _ in space.memory_configs(lanes=4)
        )
        assert total == len(space.computation_configs()) * per_lane


class TestGranularityStudy:
    def test_points_cover_all_factorizations(self):
        points = granularity_study(
            tiny_model(), total_macs=256, space=SMALL_SPACE, profile=SearchProfile.MINIMAL
        )
        expected = len(SMALL_SPACE.computation_configs(256))
        assert len(points) == expected
        assert expected > 0

    def test_valid_points_evaluated(self):
        points = granularity_study(
            tiny_model(), total_macs=256, space=SMALL_SPACE, profile=SearchProfile.MINIMAL
        )
        for point in points:
            if point.valid:
                assert point.energy_pj["tiny"] > 0
                assert point.cycles["tiny"] > 0

    def test_edp_and_runtime(self):
        points = granularity_study(
            tiny_model(), total_macs=256, space=SMALL_SPACE, profile=SearchProfile.MINIMAL
        )
        point = next(p for p in points if p.valid)
        assert point.edp("tiny") == pytest.approx(
            point.energy_pj["tiny"] * 1e-12 * point.runtime_s("tiny")
        )

    def test_points_counters_and_stage_recorded(self):
        recorder = obs.Recorder()
        with obs.use(recorder):
            points = granularity_study(
                tiny_model(), total_macs=256, space=SMALL_SPACE,
                profile=SearchProfile.MINIMAL,
            )
        counters = recorder.metrics.counters()
        evaluated = sum(p.valid for p in points)
        assert counters["dse.points.total"] == len(points)
        assert counters["dse.points.evaluated"] == evaluated
        assert counters["dse.points.invalid"] == len(points) - evaluated
        assert "stage.granularity_ms" in recorder.metrics.histograms()
        events = recorder.run_events()
        names = [event["event"] for event in events]
        assert names[0] == "run.start" and names[-1] == "run.finish"
        assert "point.batch" in names
        assert {events[0]["op"], events[-1]["op"]} == {"granularity"}

    def test_failures_are_labelled_with_task_keys(self):
        install_plan(FaultPlan(parse_fault_specs("exc:@indices=1&attempts=0")))
        try:
            points = granularity_study(
                tiny_model(), total_macs=256, space=SMALL_SPACE,
                profile=SearchProfile.MINIMAL, jobs=1,
                policy=TaskPolicy(on_error="skip"),
            )
        finally:
            install_plan(None)
        failures = [point.failure for point in points if point.failure]
        assert len(failures) == 1
        point = points[failures[0].index]
        assert failures[0].label == task_key((*point.hw.config_tuple(), point.hw.memory))
        assert not point.valid
        assert point.errors[0].startswith("evaluation failed")

    def test_empty_models_rejected(self):
        with pytest.raises(ValueError, match="models"):
            granularity_study({}, total_macs=256, space=SMALL_SPACE)


class TestBestPoint:
    def _points(self):
        return granularity_study(
            tiny_model(), total_macs=256, space=SMALL_SPACE, profile=SearchProfile.MINIMAL
        )

    def test_best_edp_is_minimum(self):
        points = self._points()
        best = best_point(points, "tiny", objective="edp")
        assert best is not None
        for p in points:
            if p.valid:
                assert best.edp("tiny") <= p.edp("tiny") + 1e-20

    def test_area_constraint_respected(self):
        points = self._points()
        cap = min(p.chiplet_area_mm2 for p in points if p.valid) + 0.01
        best = best_point(points, "tiny", max_chiplet_mm2=cap)
        assert best is not None
        assert best.chiplet_area_mm2 <= cap

    def test_impossible_constraint_returns_none(self):
        assert best_point(self._points(), "tiny", max_chiplet_mm2=1e-6) is None

    def test_unknown_objective_raises(self):
        with pytest.raises(ValueError):
            best_point(self._points(), "tiny", objective="power")


class TestExplore:
    def test_explore_marks_validity(self):
        points = explore(
            tiny_model(),
            required_macs=256,
            space=SMALL_SPACE,
            profile=SearchProfile.MINIMAL,
            memory_stride=4,
        )
        assert points
        assert any(p.valid for p in points)

    def test_area_constraint_marks_points_invalid(self):
        unconstrained = explore(
            tiny_model(),
            required_macs=256,
            space=SMALL_SPACE,
            profile=SearchProfile.MINIMAL,
            memory_stride=4,
        )
        constrained = explore(
            tiny_model(),
            required_macs=256,
            space=SMALL_SPACE,
            profile=SearchProfile.MINIMAL,
            memory_stride=4,
            max_chiplet_mm2=min(p.chiplet_area_mm2 for p in unconstrained) + 0.05,
        )
        assert sum(p.valid for p in constrained) < sum(p.valid for p in unconstrained)

    def test_invalid_stride_raises(self):
        with pytest.raises(ValueError):
            explore(tiny_model(), required_macs=256, memory_stride=0)


class TestParetoFront:
    def test_front_members_undominated(self):
        points = explore(
            tiny_model(),
            required_macs=256,
            space=SMALL_SPACE,
            profile=SearchProfile.MINIMAL,
            memory_stride=2,
        )
        front = pareto_front(points, "tiny")
        assert front
        evaluated = [p for p in points if p.valid and p.energy_pj]
        for member in front:
            assert not any(
                other.chiplet_area_mm2 < member.chiplet_area_mm2
                and other.edp("tiny") < member.edp("tiny")
                for other in evaluated
            )

    def test_front_sorted_by_area(self):
        points = explore(
            tiny_model(),
            required_macs=256,
            space=SMALL_SPACE,
            profile=SearchProfile.MINIMAL,
            memory_stride=2,
        )
        front = pareto_front(points, "tiny")
        areas = [p.chiplet_area_mm2 for p in front]
        assert areas == sorted(areas)
