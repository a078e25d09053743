"""Tests for mapping-space enumeration."""

import pytest

from repro import obs
from repro.arch.config import build_hardware, case_study_hardware
from repro.core.loopnest import LoopNest
from repro.core.mapper import _shape_key
from repro.core.primitives import PartitionDim, RotationKind
from repro.core.space import MappingSpace, SearchProfile
from repro.workloads.layer import ConvLayer
from repro.workloads.registry import get_model


def common_layer():
    return ConvLayer("c", h=56, w=56, ci=64, co=256, kh=3, kw=3, stride=1, padding=1)


def thin_layer():
    return ConvLayer("thin", h=224, w=224, ci=3, co=2, kh=3, kw=3, padding=1)


class TestEnumeration:
    def test_candidates_nonempty_all_profiles(self):
        hw = case_study_hardware()
        for profile in SearchProfile:
            space = MappingSpace(hw, profile)
            assert space.unique_candidates(common_layer())

    def test_profile_sizes_ordered(self):
        hw = case_study_hardware()
        sizes = {
            profile: len(MappingSpace(hw, profile).unique_candidates(common_layer()))
            for profile in SearchProfile
        }
        assert (
            sizes[SearchProfile.MINIMAL]
            < sizes[SearchProfile.FAST]
            < sizes[SearchProfile.EXHAUSTIVE]
        )

    def test_candidates_are_unique(self):
        space = MappingSpace(case_study_hardware(), SearchProfile.FAST)
        candidates = space.unique_candidates(common_layer())
        assert len(candidates) == len(set(candidates))

    def test_partition_ways_match_hardware(self):
        hw = case_study_hardware()
        space = MappingSpace(hw, SearchProfile.EXHAUSTIVE)
        for mapping in space.unique_candidates(common_layer()):
            assert mapping.package_spatial.ways == hw.n_chiplets
            assert mapping.chiplet_spatial.ways == hw.n_cores

    def test_exhaustive_covers_all_six_spatial_combos(self):
        # Two package x three chiplet partition dimensions (Section IV-A).
        space = MappingSpace(case_study_hardware(), SearchProfile.EXHAUSTIVE)
        combos = {m.spatial_combo for m in space.unique_candidates(common_layer())}
        assert combos == {
            ("C", "C"), ("C", "P"), ("C", "H"),
            ("P", "C"), ("P", "P"), ("P", "H"),
        }

    def test_exhaustive_covers_all_four_temporal_pairs(self):
        space = MappingSpace(case_study_hardware(), SearchProfile.EXHAUSTIVE)
        pairs = {m.temporal_combo for m in space.unique_candidates(common_layer())}
        assert len(pairs) == 4

    def test_core_tiles_respect_o_l1(self):
        hw = case_study_hardware()
        space = MappingSpace(hw, SearchProfile.EXHAUSTIVE)
        for mapping in space.unique_candidates(common_layer()):
            nest = LoopNest(common_layer(), hw, mapping)
            assert nest.o_l1_required_bytes() <= hw.memory.o_l1_bytes

    def test_thin_layer_skips_channel_package_split(self):
        # A 2-output-channel layer cannot C-split across 4 chiplets.
        space = MappingSpace(case_study_hardware(), SearchProfile.EXHAUSTIVE)
        for mapping in space.unique_candidates(thin_layer()):
            assert mapping.package_spatial.dim is not PartitionDim.CHANNEL

    def test_pointwise_fc_layer_enumerable(self):
        fc = ConvLayer("fc", h=1, w=1, ci=4096, co=1000, kh=1, kw=1)
        space = MappingSpace(case_study_hardware(), SearchProfile.EXHAUSTIVE)
        candidates = space.unique_candidates(fc)
        assert candidates
        for mapping in candidates:
            # A 1x1 plane leaves only the channel dimension to split.
            assert mapping.package_spatial.dim is PartitionDim.CHANNEL

    def test_single_chiplet_no_rotation(self):
        hw = build_hardware(1, 8, 16, 16)
        space = MappingSpace(hw, SearchProfile.EXHAUSTIVE)
        for mapping in space.unique_candidates(common_layer()):
            assert mapping.rotation is RotationKind.NONE

    def test_fast_always_rotates_shared_data(self):
        space = MappingSpace(case_study_hardware(), SearchProfile.FAST)
        for mapping in space.unique_candidates(common_layer()):
            if mapping.package_spatial.dim is PartitionDim.CHANNEL:
                assert mapping.rotation is RotationKind.ACTIVATIONS
            else:
                assert mapping.rotation is RotationKind.WEIGHTS

    def test_exhaustive_includes_rotation_off(self):
        space = MappingSpace(case_study_hardware(), SearchProfile.EXHAUSTIVE)
        rotations = {m.rotation for m in space.unique_candidates(common_layer())}
        assert RotationKind.NONE in rotations

    def test_single_core_chiplet(self):
        hw = build_hardware(4, 1, 16, 16)
        space = MappingSpace(hw, SearchProfile.FAST)
        candidates = space.unique_candidates(common_layer())
        assert candidates
        for mapping in candidates:
            assert mapping.chiplet_spatial.ways == 1


class TestDedupCounts:
    """Unique and discarded candidates over a model's unique layer shapes.

    A dedup key that merged or split congruence classes moves these counts
    even when every winner holds.
    """

    @pytest.mark.parametrize(
        "model, profile, unique, deduped",
        [
            ("resnet50", SearchProfile.EXHAUSTIVE, 292_032, 98_240),
            ("resnet50", SearchProfile.FAST, 7_120, 7_504),
            ("mobilenetv2", SearchProfile.FAST, 10_296, 11_400),
        ],
    )
    def test_case_study_counts(self, model, profile, unique, deduped):
        shapes = {}
        for layer in get_model(model):
            shapes.setdefault(_shape_key(layer), layer)
        space = MappingSpace(case_study_hardware(), profile)
        recorder = obs.MetricsRecorder()
        with obs.use(recorder):
            total = sum(len(space.unique_candidates(layer)) for layer in shapes.values())
        assert total == unique
        assert recorder.metrics.counter("space.candidates.deduped") == deduped
