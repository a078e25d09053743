"""Tests for the post-design mapping search."""

import pytest

from repro import durable
from repro.arch.config import case_study_hardware
from repro.core.cache import CACHE_FORMAT_VERSION, MappingCache
from repro.core.cost import evaluate_mapping
from repro.core.mapper import Mapper, edp_objective, energy_objective, map_model
from repro.core.serialize import mapping_to_dict
from repro.core.space import MappingSpace, SearchProfile
from repro.workloads.layer import ConvLayer


def common_layer(name="c"):
    return ConvLayer(name, h=56, w=56, ci=64, co=256, kh=3, kw=3, stride=1, padding=1)


@pytest.fixture
def mapper():
    return Mapper(hw=case_study_hardware(), profile=SearchProfile.FAST)


class TestSearchLayer:
    def test_best_is_minimum_over_candidates(self, mapper):
        layer = common_layer()
        result = mapper.search_layer(layer)
        hw = case_study_hardware()
        space = MappingSpace(hw, SearchProfile.FAST)
        for mapping in space.unique_candidates(layer):
            try:
                report = evaluate_mapping(layer, hw, mapping)
            except Exception:
                continue
            assert result.best.energy_pj <= report.energy_pj + 1e-6

    def test_statistics_reported(self, mapper):
        result = mapper.search_layer(common_layer())
        assert result.candidates_evaluated > 0
        assert result.candidates_invalid >= 0

    def test_shape_cache_shares_search(self, mapper):
        first = mapper.search_layer(common_layer("conv_a"))
        second = mapper.search_layer(common_layer("conv_b"))
        assert second.best is first.best           # same evaluation reused
        assert second.layer.name == "conv_b"       # identity preserved

    def test_objective_changes_winner_criterion(self):
        hw = case_study_hardware()
        layer = common_layer()
        by_energy = Mapper(hw=hw, profile=SearchProfile.FAST).search_layer(layer)
        by_edp = Mapper(
            hw=hw, profile=SearchProfile.FAST, objective=edp_objective
        ).search_layer(layer)
        assert by_edp.best.edp(hw) <= by_energy.best.edp(hw) + 1e-20

    def test_energy_objective_is_default(self, mapper):
        assert mapper.objective is energy_objective


class TestSearchModel:
    def test_maps_every_layer(self, mapper):
        layers = [common_layer(f"l{i}") for i in range(3)]
        results = mapper.search_model(layers)
        assert [r.layer.name for r in results] == ["l0", "l1", "l2"]

    def test_empty_model_rejected(self, mapper):
        with pytest.raises(ValueError):
            mapper.search_model([])

    @pytest.mark.parametrize("jobs", [2, 0])
    def test_worker_count_refused(self, mapper, jobs):
        with pytest.raises(ValueError, match="one process"):
            mapper.search_model([common_layer()], jobs=jobs)

    def test_jobs_one_is_the_default_search(self):
        layers = [common_layer("a"), common_layer("b")]

        def answers(**kwargs):
            mapper = Mapper(
                hw=case_study_hardware(), profile=SearchProfile.MINIMAL, cache=MappingCache()
            )
            return [
                (r.layer.name, r.mapping, r.candidates_evaluated, r.candidates_invalid)
                + (r.best.energy_pj,)
                for r in mapper.search_model(layers, **kwargs)
            ]

        assert answers(jobs=1) == answers()

    def test_map_model_wrapper(self):
        results = map_model(
            [common_layer()], case_study_hardware(), profile=SearchProfile.MINIMAL
        )
        assert len(results) == 1

    def test_exhaustive_at_least_as_good_as_minimal(self):
        hw = case_study_hardware()
        layer = common_layer()
        exhaustive = Mapper(hw=hw, profile=SearchProfile.EXHAUSTIVE).search_layer(layer)
        minimal = Mapper(hw=hw, profile=SearchProfile.MINIMAL).search_layer(layer)
        assert exhaustive.best.energy_pj <= minimal.best.energy_pj + 1e-6


class TestDiskRecords:
    """A fresh search's disk record is built only when the cache keeps it."""

    @staticmethod
    def layers():
        return [
            common_layer("a"),
            ConvLayer("b", h=28, w=28, ci=128, co=128, kh=1, kw=1),
        ]

    def test_memory_only_search_never_serializes(self, monkeypatch):
        def refuse(mapping):
            raise AssertionError("a memory-only search serialized its winner")

        monkeypatch.setattr("repro.core.mapper.mapping_to_dict", refuse)
        mapper = Mapper(
            hw=case_study_hardware(),
            profile=SearchProfile.MINIMAL,
            cache=MappingCache(),
        )
        assert len(mapper.search_model(self.layers())) == 2

    def test_disk_cache_appends_each_search_record(self, tmp_path):
        mapper = Mapper(
            hw=case_study_hardware(),
            profile=SearchProfile.MINIMAL,
            cache=MappingCache(tmp_path),
        )
        results = mapper.search_model(self.layers())
        (path,) = tmp_path.glob("mappings-*.json")
        lines, torn = durable.parse_lines(path.read_text())
        assert torn == 0
        assert lines == [
            {
                "version": CACHE_FORMAT_VERSION,
                "entries": {
                    mapper._key(r.layer): {
                        "mapping": mapping_to_dict(r.mapping),
                        "evaluated": r.candidates_evaluated,
                        "invalid": r.candidates_invalid,
                    }
                    for r in results
                },
            }
        ]
