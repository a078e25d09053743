"""The parallel executor layer: jobs policy, fan-out, and determinism.

The acceptance bar for the parallel sweeps is bit-identical results at
every worker count -- ``jobs=N`` must return exactly what the serial
``jobs=1`` path returns, for ``explore()`` and the Figure 14 granularity
study.  A map has no fan-out: ``REPRO_JOBS`` starts no pool under it.
"""

import pytest

from repro import obs
from repro.arch.config import case_study_hardware
from repro.core import parallel
from repro.core.baton import NNBaton
from repro.core.cache import MappingCache
from repro.core.dse import DesignSpace, explore, granularity_study
from repro.core.mapper import Mapper, map_model
from repro.core.parallel import (
    JOBS_ENV,
    SweepStats,
    chunked,
    is_picklable,
    resolve_jobs,
    run_tasks,
)
from repro.core.space import SearchProfile
from repro.errors import ConfigError
from repro.workloads.models import alexnet

#: A deliberately tiny Table II subspace so sweeps stay test-fast.
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


def point_fingerprint(points):
    """Everything observable about a sweep result, for equality checks."""
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


def _double(x):
    return 2 * x


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_env_supplies_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_jobs(-1)
        assert not isinstance(excinfo.value, ConfigError)  # a caller bug, not a knob

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ConfigError, match=JOBS_ENV):
            resolve_jobs(None)

    def test_negative_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "-1")
        with pytest.raises(ConfigError, match=JOBS_ENV):
            resolve_jobs(None)


class TestRunTasks:
    def test_serial_preserves_order(self):
        assert run_tasks(_double, [3, 1, 2], jobs=1) == [6, 2, 4]

    def test_parallel_preserves_order(self):
        items = list(range(20))
        assert run_tasks(_double, items, jobs=2) == [2 * i for i in items]

    def test_empty_tasks(self):
        assert run_tasks(_double, [], jobs=4) == []

    def test_is_picklable(self):
        assert is_picklable((1, "a"))
        assert not is_picklable(lambda x: x)

    def test_chunked(self):
        assert list(chunked([1, 2, 3, 4, 5], 2)) == [[1, 2], [3, 4], [5]]
        with pytest.raises(ValueError):
            list(chunked([1], 0))


class TestSweepStats:
    def test_stage_timer_accumulates(self):
        recorder = obs.MetricsRecorder()
        with obs.use(recorder):
            with obs.stage("a"):
                pass
            with obs.stage("a"):
                pass
        stats = SweepStats(recorder.metrics)
        assert stats.stage_s["a"] >= 0.0
        assert stats.wall_s == sum(stats.stage_s.values())
        assert recorder.metrics.histogram_stats("stage.a_ms")["count"] == 2

    def test_points_per_sec_zero_without_time(self):
        assert SweepStats(obs.MetricsRecorder().metrics).points_per_sec == 0.0


class TestMapsRunInOneProcess:
    """``REPRO_JOBS`` sets sweep workers only: no map starts a pool."""

    @staticmethod
    def _maps():
        hw = case_study_hardware()
        layers = alexnet(resolution=224)
        profile = SearchProfile.MINIMAL
        mapper = Mapper(hw=hw, profile=profile, cache=MappingCache())
        return {
            "post_design": NNBaton(profile=profile).post_design(layers, hw).layers,
            "map_model": map_model(layers, hw, profile=profile),
            "search_model": mapper.search_model(layers),
        }

    @staticmethod
    def _answers(results):
        return [
            (r.layer.name, r.mapping, r.candidates_evaluated, r.candidates_invalid)
            + (r.best.energy_pj,)
            for r in results
        ]

    def test_repro_jobs_starts_no_pool_and_changes_no_answer(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv(JOBS_ENV, raising=False)
        unset = self._maps()
        pools = []

        class SpyPool(parallel.ProcessPoolExecutor):
            def __init__(self, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(**kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", SpyPool)
        monkeypatch.setenv(JOBS_ENV, "2")
        set_to_two = self._maps()
        assert pools == []
        for entry, results in unset.items():
            assert self._answers(set_to_two[entry]) == self._answers(results), entry


class TestSearchDeterminism:
    """jobs=1 and jobs=N produce bit-identical rankings and costs."""

    def test_explore_parallel_matches_serial(self):
        models = small_models()
        kwargs = dict(
            required_macs=32,
            space=SMALL_SPACE,
            profile=SearchProfile.MINIMAL,
        )
        serial = explore(models, jobs=1, **kwargs)
        parallel = explore(models, jobs=2, **kwargs)
        assert point_fingerprint(serial) == point_fingerprint(parallel)
        # The ranking (best point per objective) is therefore identical too.

    def test_granularity_parallel_matches_serial(self):
        models = small_models()
        serial = granularity_study(
            models, total_macs=64, space=SMALL_SPACE,
            profile=SearchProfile.MINIMAL, jobs=1,
        )
        parallel = granularity_study(
            models, total_macs=64, space=SMALL_SPACE,
            profile=SearchProfile.MINIMAL, jobs=2,
        )
        assert point_fingerprint(serial) == point_fingerprint(parallel)

    def test_explore_fills_stats(self):
        recorder = obs.MetricsRecorder()
        with obs.use(recorder):
            explore(
                small_models(),
                required_macs=32,
                space=SMALL_SPACE,
                profile=SearchProfile.MINIMAL,
                jobs=1,
            )
        stats = SweepStats(recorder.metrics)
        assert stats.points_total == 2
        assert stats.points_evaluated >= 1
        assert "explore" in stats.stage_s
        assert stats.cache_misses > 0
