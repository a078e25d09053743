"""The batch cost-model kernel: switch, tie-break, guard, mapper wiring.

The bit-level batch-vs-scalar agreement itself lives in the hypothesis
differential suite (``tests/properties/test_batch_kernel.py``); this module
pins the deterministic contracts around it -- the ``REPRO_BATCH_KERNEL``
switch, the first-in-enumeration tie-break, the int64 exactness guard's
scalar fallback, and the mapper producing identical results on both paths.
"""

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
from repro.core.space import CandidateTable, SearchProfile
from repro.workloads.layer import ConvLayer

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

            result = batch.evaluate_batch(
                layer, hw, CandidateTable.from_mappings(layer, ordering)
            )
            assert result.energy_pj[0] == result.energy_pj[1]
            assert result.best_index("energy") == winner
            assert result.best_index("edp") == winner

    def test_search_batch_reports_first_winner(self):
        layer, hw, candidates = tied_pair()
        outcome = batch.search_batch(
            layer, hw, CandidateTable.from_mappings(layer, candidates)
        )
        assert outcome is not None
        assert outcome.best_index == 0
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


class TestChunkedBatch:
    """REPRO_BATCH_MAX_BYTES bounds batch size without changing winners."""

    def _candidates(self):
        hw = case_study_hardware()
        layer = small_layer()
        mapper = Mapper(hw=hw, profile=SearchProfile.FAST)
        return layer, hw, mapper._space.unique_candidates(layer)

    def test_budget_parses_to_chunk_size(self, monkeypatch):
        monkeypatch.delenv(batch.BATCH_MAX_BYTES_ENV, raising=False)
        assert batch.batch_chunk_candidates() is None
        monkeypatch.setenv(batch.BATCH_MAX_BYTES_ENV, "4096")
        assert batch.batch_chunk_candidates() == 4
        monkeypatch.setenv(batch.BATCH_MAX_BYTES_ENV, "1")  # floors at one
        assert batch.batch_chunk_candidates() == 1

    def test_bad_budget_is_config_error(self, monkeypatch):
        from repro.errors import ConfigError

        monkeypatch.setenv(batch.BATCH_MAX_BYTES_ENV, "plenty")
        with pytest.raises(ConfigError, match=batch.BATCH_MAX_BYTES_ENV):
            batch.batch_chunk_candidates()
        monkeypatch.setenv(batch.BATCH_MAX_BYTES_ENV, "-1")
        with pytest.raises(ConfigError, match=">= 0"):
            batch.batch_chunk_candidates()

    def test_chunked_outcome_is_identical(self, monkeypatch):
        layer, hw, candidates = self._candidates()
        assert len(candidates) >= 8
        monkeypatch.delenv(batch.BATCH_MAX_BYTES_ENV, raising=False)
        whole = batch.search_batch(layer, hw, candidates)
        # A budget forcing >= 4 chunks must pick the same winner, counts
        # and report.
        budget = max(1, len(candidates) // 4) * 1024
        monkeypatch.setenv(batch.BATCH_MAX_BYTES_ENV, str(budget))
        chunked = batch.search_batch(layer, hw, candidates)
        assert chunked == whole
        assert repr(chunked.reports) == repr(whole.reports)
        assert whole.chunks == 1
        assert chunked.chunks >= 4

    def test_single_candidate_chunks(self, monkeypatch):
        layer, hw, candidates = tied_pair()
        candidates = CandidateTable.from_mappings(layer, candidates)
        monkeypatch.delenv(batch.BATCH_MAX_BYTES_ENV, raising=False)
        whole = batch.search_batch(layer, hw, candidates)
        monkeypatch.setenv(batch.BATCH_MAX_BYTES_ENV, "1")
        assert batch.search_batch(layer, hw, candidates) == whole

    def test_cross_chunk_tie_keeps_first(self, monkeypatch):
        """A chunk boundary between exact ties must not flip the winner."""
        layer, hw, candidates = tied_pair()
        monkeypatch.setenv(batch.BATCH_MAX_BYTES_ENV, "1024")  # 1 per chunk
        outcome = batch.search_batch(
            layer, hw, CandidateTable.from_mappings(layer, candidates)
        )
        assert outcome is not None and outcome.best_index == 0

    def test_overflow_mid_chunk_falls_back(self, monkeypatch):
        layer = ConvLayer(
            "huge", h=2**22, w=2**22, ci=2**20, co=8, kh=1, kw=1
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
        monkeypatch.setenv(batch.BATCH_MAX_BYTES_ENV, "1024")
        table = CandidateTable.from_mappings(layer, [mapping, mapping])
        assert batch.search_batch(layer, hw, table) is None

    def test_mapper_end_to_end_parity(self, monkeypatch):
        hw = case_study_hardware()
        layer = small_layer()
        monkeypatch.delenv(batch.BATCH_MAX_BYTES_ENV, raising=False)
        whole = Mapper(hw=hw, profile=SearchProfile.FAST).search_layer(layer)
        monkeypatch.setenv(batch.BATCH_MAX_BYTES_ENV, "8192")
        chunked = Mapper(hw=hw, profile=SearchProfile.FAST).search_layer(layer)
        assert chunked.mapping == whole.mapping
        assert chunked.best.energy_pj == whole.best.energy_pj
        assert chunked.best.cycles == whole.best.cycles
        assert chunked.candidates_evaluated == whole.candidates_evaluated
        assert chunked.candidates_invalid == whole.candidates_invalid
