"""The candidate table against the scalar enumeration it replaces.

:meth:`MappingSpace.unique_candidates` builds each layer's unique
candidates as int64 columns; :meth:`MappingSpace.scalar_unique_candidates`
(``candidates()`` plus first-occurrence ``candidate_row`` dedup) is its
oracle.  These tests hold the two equal on every registered model, pin the
first-occurrence dedup helper on rows too wide for a packed key, and check
that a table gives back the declared mapping, never the clamped row.
"""

import numpy as np
import pytest

from repro import obs
from repro.arch.config import build_hardware, case_study_hardware, simba_like_hardware
from repro.core import batch
from repro.core.cost import evaluate_mapping
from repro.core.mapper import Mapper, _shape_key
from repro.core.mapping import Mapping
from repro.core.partition import PlanarGrid
from repro.core.primitives import LoopOrder, SpatialPrimitive, TemporalPrimitive
from repro.core.space import (
    CANDIDATE_COLUMNS,
    CandidateTable,
    MappingSpace,
    SearchProfile,
    candidate_row,
    first_occurrence_indices,
)
from repro.workloads.layer import ConvLayer, ceil_div
from repro.workloads.registry import get_model, list_models


def unique_shapes(model):
    shapes = {}
    for layer in get_model(model):
        shapes.setdefault(_shape_key(layer), layer)
    return list(shapes.values())


def assert_matches_oracle(space, layer):
    table = space.unique_candidates(layer)
    oracle, dropped = space.scalar_unique_candidates(layer)
    assert list(table) == oracle, layer.name
    assert table.deduped == dropped, layer.name
    rows = np.array([candidate_row(layer, m) for m in oracle], dtype=np.int64)
    assert np.array_equal(table.rows, rows.reshape(-1, len(CANDIDATE_COLUMNS)).T)


class TestRegisteredModels:
    @pytest.mark.parametrize("machine", [case_study_hardware, simba_like_hardware])
    @pytest.mark.parametrize("profile", [SearchProfile.FAST, SearchProfile.MINIMAL])
    def test_every_model_matches_scalar_dedup(self, machine, profile):
        space = MappingSpace(machine(), profile)
        for model in list_models():
            for layer in unique_shapes(model):
                assert_matches_oracle(space, layer)

    def test_resnet50_exhaustive_matches_scalar_dedup(self):
        space = MappingSpace(case_study_hardware(), SearchProfile.EXHAUSTIVE)
        for layer in unique_shapes("resnet50"):
            assert_matches_oracle(space, layer)


class TestPairTiles:
    @pytest.mark.parametrize("profile", list(SearchProfile))
    def test_build_tiles_equal_core_tiles(self, profile):
        """The table build computes a layer's tiles once per distinct core
        share; every spatial pair gets what core_tiles gives it."""
        for machine in (case_study_hardware, simba_like_hardware):
            space = MappingSpace(machine(), profile)
            for model in list_models():
                for layer in unique_shapes(model):
                    pairs = space.pair_tiles(layer)
                    assert [(p, c) for p, c, _ in pairs] == [
                        (p, c)
                        for p in space.package_spatials(layer)
                        for c in space.chiplet_spatials(layer, p)
                    ]
                    for package, chiplet, tiles in pairs:
                        share_ho = ceil_div(ceil_div(layer.ho, package.grid.rows), chiplet.grid.rows)
                        share_wo = ceil_div(ceil_div(layer.wo, package.grid.cols), chiplet.grid.cols)
                        assert tiles == space.core_tiles(layer, share_ho, share_wo), layer.name


def python_first_occurrences(rows):
    seen, first = set(), []
    for index, row in enumerate(rows):
        if row not in seen:
            seen.add(row)
            first.append(index)
    return first


class TestFirstOccurrenceIndices:
    @pytest.mark.parametrize("magnitude", [2**5, 2**40])
    def test_matches_python_dedup(self, magnitude):
        """Narrow rows take the packed key, 3 x 40-bit rows the sort path."""
        rng = np.random.default_rng(7)
        pool = rng.integers(0, magnitude, size=(40, 3), dtype=np.int64)
        rows = pool[rng.integers(0, len(pool), size=500)]
        columns = [rows[:, j].copy() for j in range(3)]
        got = first_occurrence_indices(*columns)
        assert got.tolist() == python_first_occurrences(list(map(tuple, rows.tolist())))

    def test_wider_than_63_bits(self):
        big = 2**62
        columns = [
            np.array([big, 0, big, big, 0], dtype=np.int64),
            np.array([1, big, 1, 2, big], dtype=np.int64),
        ]
        assert first_occurrence_indices(*columns).tolist() == [0, 1, 3]

    @pytest.mark.parametrize("magnitude", [2**3, 2**62])
    def test_broadcast_fields_index_the_raveled_shape(self, magnitude):
        a = np.array([[1], [magnitude], [1]], dtype=np.int64)  # (3, 1)
        b = np.array([[0, 2, 0, 2]], dtype=np.int64)  # (1, 4)
        rows = [(x, y) for x in a[:, 0].tolist() for y in b[0].tolist()]
        got = first_occurrence_indices(a, b)
        assert got.tolist() == python_first_occurrences(rows) == [0, 1, 4, 5]


def clamped_pair():
    """A mapping whose declared core tile overhangs its share of the package
    tile (8 rows over a 2x1 core grid leave 4; it declares 6), and a twin
    that declares the clamped 4: one candidate row, two mappings."""
    layer = ConvLayer("clamp", h=8, w=8, ci=8, co=8, kh=1, kw=1, stride=1, padding=0)
    hw = build_hardware(1, 2, 8, 8)

    def mapping(core_h):
        return Mapping(
            package_spatial=SpatialPrimitive.channel(1),
            package_temporal=TemporalPrimitive(LoopOrder.CHANNEL_PRIORITY, 8, 8, 8),
            chiplet_spatial=SpatialPrimitive.plane(PlanarGrid(2, 1)),
            chiplet_temporal=TemporalPrimitive(LoopOrder.CHANNEL_PRIORITY, core_h, 8, 8),
        )

    return layer, hw, mapping(6), mapping(4)


class TestDeclaredTiles:
    def test_clamped_winner_keeps_its_declared_core_tile(self):
        layer, hw, declared, clamped = clamped_pair()
        assert candidate_row(layer, declared) == candidate_row(layer, clamped)
        assert dict(zip(CANDIDATE_COLUMNS, candidate_row(layer, declared)))["core_ho"] == 4

        table = CandidateTable.from_mappings(layer, [declared])
        outcome = batch.search_batch(layer, hw, table)
        assert outcome is not None and outcome.winners == (0,)
        winner = table[0]
        assert winner == declared
        assert winner.chiplet_temporal.tile_h == 6
        result = batch.evaluate_batch(layer, hw, table)
        assert float(result.energy_pj[0]) == evaluate_mapping(layer, hw, winner).energy_pj

    def test_overhanging_package_tile_is_refused(self):
        layer, _, declared, _ = clamped_pair()
        overhang = Mapping(
            package_spatial=declared.package_spatial,
            package_temporal=TemporalPrimitive(LoopOrder.CHANNEL_PRIORITY, 9, 8, 8),
            chiplet_spatial=declared.chiplet_spatial,
            chiplet_temporal=declared.chiplet_temporal,
        )
        with pytest.raises(ValueError, match="overhangs"):
            CandidateTable.from_mappings(layer, [overhang])


class TestSequence:
    def test_indexing_and_iteration_agree(self):
        space = MappingSpace(case_study_hardware(), SearchProfile.FAST)
        layer = unique_shapes("alexnet")[1]
        table = space.unique_candidates(layer)
        mappings = list(table)
        assert len(table) == len(mappings) > 8
        assert [table[i] for i in range(len(table))] == mappings
        assert table[-1] == mappings[-1]
        with pytest.raises(IndexError):
            table[len(table)]

    def test_from_mappings_round_trips(self):
        space = MappingSpace(case_study_hardware(), SearchProfile.FAST)
        layer = unique_shapes("alexnet")[1]
        mappings, _ = space.scalar_unique_candidates(layer)
        table = CandidateTable.from_mappings(layer, mappings)
        assert list(table) == mappings
        assert np.array_equal(table.rows, space.unique_candidates(layer).rows)


class TestMapperOverflow:
    def test_overflow_fallback_counts_dedup_once(self, monkeypatch):
        """An overflowing table falls back to the scalar oracle without
        counting the layer's dedup a second time."""
        layer = ConvLayer("huge", h=2**22, w=2**22, ci=2**20, co=8, kh=1, kw=1)
        hw = build_hardware(1, 4, 8, 8)
        table = MappingSpace(hw, SearchProfile.FAST).unique_candidates(layer)
        assert batch.search_batch(layer, hw, table) is None

        runs = {}
        for kernel in ("1", "0"):
            monkeypatch.setenv(batch.BATCH_KERNEL_ENV, kernel)
            recorder = obs.MetricsRecorder()
            with obs.use(recorder):
                result = Mapper(hw=hw, profile=SearchProfile.FAST).search_layer(layer)
            runs[kernel] = (result.mapping, result.best.energy_pj, recorder.metrics.counters())
        assert runs["1"] == runs["0"]
        counters = runs["1"][2]
        assert counters["space.candidates.deduped"] > 0
        assert "mapper.batch.searches" not in counters
