"""The batch cost-model kernel: switch, tie-break, guard, mapper wiring.

The bit-level batch-vs-scalar agreement itself lives in the hypothesis
differential suite (``tests/properties/test_batch_kernel.py``); this module
pins the deterministic contracts around it -- the ``REPRO_BATCH_KERNEL``
switch, the first-in-enumeration tie-break, the int64 exactness guard's
scalar fallback, the mapper producing identical results on both paths, and
the working set of the largest table the registered models meet, which one
kernel pass scores whole.
"""

import tracemalloc

import pytest

from repro.arch.config import build_hardware, case_study_hardware
from repro.core import batch
from repro.core.cost import InvalidMappingError, evaluate_mapping
from repro.core.mapper import Mapper, edp_objective
from repro.core.mapping import Mapping
from repro.core.primitives import (
    LoopOrder,
    RotationKind,
    SpatialPrimitive,
    TemporalPrimitive,
)
from repro.core.space import CandidateTable, MappingSpace, SearchProfile
from repro.workloads.layer import ConvLayer
from repro.workloads.models import vgg16

def small_layer(name="conv"):
    return ConvLayer(name, h=28, w=28, ci=32, co=64, kh=3, kw=3, stride=1, padding=1)


class TestKernelSwitch:
    @pytest.mark.parametrize("raw", ["", "1", "on", "yes", "true"])
    def test_enabled_by_default_and_on_values(self, monkeypatch, raw):
        if raw:
            monkeypatch.setenv(batch.BATCH_KERNEL_ENV, raw)
        else:
            monkeypatch.delenv(batch.BATCH_KERNEL_ENV, raising=False)
        assert batch.batch_kernel_enabled()

    @pytest.mark.parametrize("raw", ["0", "false", "FALSE", "off", "no", " Off "])
    def test_opt_out_values(self, monkeypatch, raw):
        monkeypatch.setenv(batch.BATCH_KERNEL_ENV, raw)
        assert not batch.batch_kernel_enabled()


def tied_pair():
    """Two non-congruent candidates that tie exactly on every objective.

    On a single-chiplet package the rotating transfer has no hops to pay
    (``sharing_hops = 0``) and broadcast reaches ``n_chiplets = 1`` copies,
    so an activation-rotated mapping and its unrotated twin produce
    bit-identical traffic -- yet they are distinct candidates (their
    ``candidate_row`` values differ in the rotation columns).
    """
    layer = ConvLayer("tie", h=8, w=8, ci=8, co=8, kh=1, kw=1, stride=1, padding=0)
    hw = build_hardware(1, 1, 8, 8)
    base = Mapping(
        package_spatial=SpatialPrimitive.channel(1),
        package_temporal=TemporalPrimitive(LoopOrder.CHANNEL_PRIORITY, 8, 8, 8),
        chiplet_spatial=SpatialPrimitive.channel(1),
        chiplet_temporal=TemporalPrimitive(LoopOrder.CHANNEL_PRIORITY, 8, 8, 8),
    )
    rotated = base.with_rotation(RotationKind.ACTIVATIONS)
    return layer, hw, [rotated, base]


class TestTieBreak:
    def test_batch_matches_scalar_first_minimum(self):
        """Exact ties resolve to the first enumerated candidate on both paths."""
        layer, hw, candidates = tied_pair()
        reports = [evaluate_mapping(layer, hw, m) for m in candidates]
        assert reports[0].energy_pj == reports[1].energy_pj  # genuinely tied
        assert reports[0].cycles == reports[1].cycles

        for ordering in (candidates, list(reversed(candidates))):
            best, best_score, winner = None, float("inf"), None
            for index, mapping in enumerate(ordering):
                report = evaluate_mapping(layer, hw, mapping)
                score = report.energy_pj
                if score < best_score:
                    best_score, best, winner = score, report, index
            assert winner == 0  # strict-< keeps the first of an exact tie

            table = CandidateTable.from_mappings(layer, ordering)
            result = batch.evaluate_batch(layer, hw, table)
            assert result.energy_pj[0] == result.energy_pj[1]
            pack = CandidateTable.pack([table, table])
            for objective in batch.BATCH_OBJECTIVES:
                # np.argmin on one table, segment_minima on a pack.
                outcome = batch.search_batch(layer, hw, table, objective)
                assert outcome.winners == (winner,)
                packed = batch.search_batch([layer, layer], hw, pack, objective)
                assert packed.winners == (winner, len(table) + winner)

    def test_search_batch_reports_first_winner(self):
        layer, hw, candidates = tied_pair()
        outcome = batch.search_batch(
            layer, hw, CandidateTable.from_mappings(layer, candidates)
        )
        assert outcome is not None
        assert outcome.winners == (0,)
        assert outcome.evaluated == 2 and outcome.invalid == 0


class TestOverflowGuard:
    def test_oversized_layer_aborts_to_scalar(self):
        layer = ConvLayer(
            "huge",
            h=2**22,
            w=2**22,
            ci=2**20,
            co=8,
            kh=1,
            kw=1,
            stride=1,
            padding=0,
        )
        hw = build_hardware(1, 1, 8, 8)
        mapping = Mapping(
            package_spatial=SpatialPrimitive.channel(1),
            package_temporal=TemporalPrimitive(
                LoopOrder.CHANNEL_PRIORITY, 2**22, 2**22, 8
            ),
            chiplet_spatial=SpatialPrimitive.channel(1),
            chiplet_temporal=TemporalPrimitive(
                LoopOrder.CHANNEL_PRIORITY, 2**22, 2**22, 8
            ),
        )
        table = CandidateTable.from_mappings(layer, [mapping])
        with pytest.raises(batch.BatchOverflowError):
            batch.evaluate_batch(layer, hw, table)
        assert batch.search_batch(layer, hw, table) is None


class TestSearchBatchGuards:
    def test_empty_candidates_fall_back(self):
        layer, hw, _ = tied_pair()
        empty = CandidateTable.from_mappings(layer, [])
        assert batch.search_batch(layer, hw, empty) is None

    def test_scores_reject_unknown_column(self):
        layer, hw, candidates = tied_pair()
        result = batch.evaluate_batch(
            layer, hw, CandidateTable.from_mappings(layer, candidates)
        )
        with pytest.raises(ValueError):
            result.scores("latency")


class TestMapperIntegration:
    @pytest.mark.parametrize("objective", [None, edp_objective])
    def test_both_paths_agree_end_to_end(self, monkeypatch, objective):
        hw = case_study_hardware()
        layer = small_layer()
        kwargs = {} if objective is None else {"objective": objective}

        monkeypatch.setenv(batch.BATCH_KERNEL_ENV, "0")
        scalar = Mapper(hw=hw, profile=SearchProfile.FAST, **kwargs).search_layer(layer)
        monkeypatch.setenv(batch.BATCH_KERNEL_ENV, "1")
        batched = Mapper(hw=hw, profile=SearchProfile.FAST, **kwargs).search_layer(layer)

        assert repr(batched.best) == repr(scalar.best)
        assert batched.candidates_evaluated == scalar.candidates_evaluated
        assert batched.candidates_invalid == scalar.candidates_invalid

    def test_custom_objective_is_refused(self):
        """A lookalike would share the real objective's cache key."""
        hw = case_study_hardware()

        def energy_objective(report, hw):  # name-collides on purpose
            return report.energy_pj

        with pytest.raises(ValueError, match="energy_objective or edp_objective"):
            Mapper(hw=hw, profile=SearchProfile.MINIMAL, objective=energy_objective)

    def test_partial_objective_is_refused(self):
        """Every ``functools.partial`` is named ``partial``: one cache key."""
        import functools

        def by(report, hw, field):
            return getattr(report, field)

        with pytest.raises(ValueError):
            Mapper(
                hw=case_study_hardware(),
                profile=SearchProfile.FAST,
                objective=functools.partial(by, field="energy_pj"),
            )

    def test_impossible_layer_still_raises(self, monkeypatch):
        monkeypatch.setenv(batch.BATCH_KERNEL_ENV, "1")
        hw = case_study_hardware()
        # A 1024-wide kernel row cannot fit the 800 B A-L1 at any tiling, so
        # every candidate is invalid on both paths.
        layer = ConvLayer(
            "impossible", h=1, w=1024, ci=8, co=8, kh=1, kw=1024, stride=1, padding=0
        )
        mapper = Mapper(hw=hw, profile=SearchProfile.MINIMAL)
        with pytest.raises(InvalidMappingError):
            mapper.search_layer(layer)


#: Rows the largest candidate table may have: VGG-16@512 ``conv1`` on an
#: 8-16-2-16 machine under EXHAUSTIVE, the largest table of the 186 unique
#: shapes of the registered models at 224 and 512 on the 320 Table II
#: computation configs, has 55,856.
MAX_TABLE_ROWS = 64 * 1024

#: Traced peak bytes one ``search_batch`` pass over that table may take:
#: 512 B a row at :data:`MAX_TABLE_ROWS` (it takes about 436 B a row, 23.2
#: MiB).
MAX_PASS_BYTES = 512 * MAX_TABLE_ROWS


class TestWorkingSet:
    def test_largest_table_scores_in_one_pass_within_its_bound(self):
        """The kernel scores every table in one pass, so the largest table
        bounds its working set; a mapping space that grows past these
        bounds fails here before it runs a machine out of memory."""
        layer = next(layer for layer in vgg16(512) if layer.name == "conv1")
        hw = build_hardware(8, 16, 2, 16)
        table = MappingSpace(hw, SearchProfile.EXHAUSTIVE).unique_candidates(layer)
        assert len(table) <= MAX_TABLE_ROWS
        tracemalloc.start()
        try:
            outcome = batch.search_batch(layer, hw, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert outcome is not None and outcome.winners[0] is not None
        assert outcome.evaluated + outcome.invalid == len(table)
        assert peak < MAX_PASS_BYTES
