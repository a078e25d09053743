"""Tests for the experiment drivers (fast variants of each figure)."""

import pytest

from repro.analysis.experiments import (
    FIG11_COMBOS,
    best_by_combo,
    fig7_data,
    fig8_data,
    fig10_data,
    fig12_data,
    table1_rows,
    table2_data,
)
from repro.arch.config import case_study_hardware, simba_like_hardware
from repro.core.cost import InvalidMappingError, evaluate_mapping
from repro.core.loopnest import LoopNest
from repro.core.space import MappingSpace, SearchProfile
from repro.workloads.extraction import LayerKind, representative_layers


class TestTable1:
    def test_six_rows(self):
        assert len(table1_rows()) == 6


class TestFig7:
    def test_both_layers_and_patterns(self):
        points = fig7_data(tile_elements=(16, 64))
        layers = {p.layer for p in points}
        patterns = {p.pattern for p in points}
        assert layers == {"conv1", "conv2"}
        assert patterns == {"1:1", "1:4"}

    def test_redundancy_falls_with_tile_size(self):
        points = fig7_data(tile_elements=(4, 64, 1024))
        conv1_sq = [
            p.redundancy
            for p in points
            if p.layer == "conv1" and p.pattern == "1:1"
        ]
        assert conv1_sq == sorted(conv1_sq, reverse=True)

    def test_square_beats_one_to_four(self):
        for elements in (16, 64, 256):
            points = {
                p.pattern: p.redundancy
                for p in fig7_data(tile_elements=(elements,))
                if p.layer == "conv1"
            }
            assert points["1:1"] < points["1:4"]

    def test_seven_by_seven_worse_than_three_by_three(self):
        points = fig7_data(tile_elements=(64,))
        conv1 = next(p for p in points if p.layer == "conv1" and p.pattern == "1:1")
        conv2 = next(p for p in points if p.layer == "conv2" and p.pattern == "1:1")
        assert conv1.redundancy > conv2.redundancy

    def test_fine_tiles_reach_paper_scale(self):
        points = fig7_data(tile_elements=(4,))
        worst = max(p.redundancy for p in points if p.layer == "conv1")
        assert worst > 3.0  # the paper reports up to 650%

    def test_non_square_elements_rejected(self):
        with pytest.raises(ValueError):
            fig7_data(tile_elements=(8,))


class TestFig8:
    def test_square_vs_rectangle_degrees(self):
        points = {p.pattern: p for p in fig8_data()}
        assert points["square"].max_conflict_degree == 4
        assert points["rectangle"].max_conflict_degree == 2

    def test_conflict_elements_positive(self):
        for point in fig8_data():
            assert point.conflict_elements > 0


class TestFig10:
    def test_fits_are_linear(self):
        data = fig10_data()
        assert data.area_fit.r_squared > 0.99
        assert data.energy_fit.r_squared > 0.99

    def test_energy_fit_matches_table_i_anchors(self):
        data = fig10_data()
        assert data.energy_fit(1.0) == pytest.approx(0.30, rel=0.1)
        assert data.energy_fit(32.0) == pytest.approx(0.81, rel=0.1)


class TestFig11:
    def test_combo_constant_covers_six(self):
        assert len(FIG11_COMBOS) == 6

    def test_best_by_combo_on_common_layer(self):
        layer = representative_layers()[LayerKind.COMMON]
        results = best_by_combo(layer, case_study_hardware(), SearchProfile.FAST)
        assert set(results) <= set(FIG11_COMBOS)
        assert len(results) >= 3
        for report in results.values():
            assert report.energy_pj > 0

    def test_small_channel_layer_drops_cc(self):
        # VGG conv1 (64 output channels): the (C, C) combination leaves cores
        # under-filled and is removed, as in the paper's Figure 11(a).
        layer = representative_layers()[LayerKind.ACTIVATION_INTENSIVE]
        results = best_by_combo(layer, case_study_hardware(), SearchProfile.FAST)
        assert ("C", "C") not in results

    @pytest.mark.parametrize(
        "machine,profile",
        [
            (case_study_hardware, SearchProfile.EXHAUSTIVE),  # the figure's setting
            (simba_like_hardware, SearchProfile.FAST),
            (simba_like_hardware, SearchProfile.MINIMAL),
        ],
    )
    def test_segmented_winners_equal_the_scalar_loop(self, machine, profile):
        """best_by_combo scores the table once with the combos as segments
        and reads each winner's report off the kernel's columns; the
        per-candidate scalar loop it replaced is the oracle, down to the
        result's key order and each report's repr."""
        hw = machine()
        for layer in representative_layers().values():
            oracle = scalar_best_by_combo(layer, hw, profile)
            results = best_by_combo(layer, hw, profile)
            assert list(results) == list(oracle), layer.name
            for combo, report in oracle.items():
                assert repr(results[combo]) == repr(report), (layer.name, combo)


def scalar_best_by_combo(layer, hw, profile):
    """The scalar Fig. 11 loop: evaluate every unique candidate."""
    best = {}
    for mapping in MappingSpace(hw=hw, profile=profile).unique_candidates(layer):
        combo = mapping.spatial_combo
        if LoopNest(layer=layer, hw=hw, mapping=mapping).share_co < min(hw.lanes, layer.co):
            continue
        try:
            report = evaluate_mapping(layer, hw, mapping)
        except InvalidMappingError:
            continue
        if combo not in best or report.energy_pj < best[combo].energy_pj:
            best[combo] = report
    return best


class TestFig12:
    def test_savings_positive_everywhere(self):
        points = fig12_data(profile=SearchProfile.FAST)
        assert len(points) == 5
        for point in points:
            assert point.saving > 0, point.kind
            assert point.movement_saving >= point.saving


class TestTable2:
    def test_counts(self):
        data = table2_data()
        assert data.granularity_configs_2048 == 32
        assert data.granularity_configs_4096 == 20
        assert data.sweep_size_4096 > 5000
