"""Packs and shared candidate sets against one-layer searches.

A sweep scores a point's layers in *packs* (several layers' candidate
tables concatenated, one kernel call, one winner per segment) and shares
each layer's table between machines that give it one
:meth:`~repro.core.space.MappingSpace.candidate_set_key`.  Both are only
sound if they change nothing:

* machines with equal keys for a layer build equal tables for it -- rows,
  declared tiles, spatial pairs and dedup count -- however their A-L1,
  vector size, W-L1, A-L2, O-L2, topology and energy parameters differ,
  so this fails as soon as the enumeration reads a field the key leaves
  out (A-L1 and the vector size may enter only through the Cc0 tile);
* so do layers of one output cube with equal keys, however their input
  channels, kernel, stride, padding and groups differ (the first three
  may enter only through the Cc0 tile), and the memoized Cc0 tile is the
  doubling search on the layer itself;
* a pack gives every segment the winner, ``evaluated`` and ``invalid`` of
  its layer's own call, with exact ties and an overflowing segment
  included;
* a pack's C3P columns computed on one machine and scored on another
  that shares its tables, package and technology give every
  ``BatchResult`` field, and every winner report, that the other
  machine's own evaluation gives.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import KB, MemoryConfig, build_hardware
from repro.arch.technology import DEFAULT_TECHNOLOGY
from repro.arch.topology import Topology
from repro.core import batch
from repro.core.mapping import Mapping
from repro.core.primitives import LoopOrder, RotationKind, SpatialPrimitive, TemporalPrimitive
from repro.core.space import CandidateTable, MappingSpace, SearchProfile
from repro.workloads.layer import ConvLayer, matmul

MAX_EXAMPLES = 25


@st.composite
def conv_layers(draw, grouped=None):
    """A random conv layer; ``grouped`` forces dense (False) or grouped (True)."""
    if grouped is None:
        grouped = draw(st.booleans())
    groups = draw(st.sampled_from([2, 4, 16])) if grouped else 1
    kernel = draw(st.sampled_from([1, 3, 5]))
    return ConvLayer(
        name="prop",
        h=draw(st.sampled_from([7, 14, 28, 56])),
        w=draw(st.sampled_from([7, 14, 28])),
        ci=groups * draw(st.sampled_from([1, 2, 4, 16])),
        co=groups * draw(st.sampled_from([1, 2, 8, 16])),
        kh=kernel,
        kw=kernel,
        stride=draw(st.sampled_from([1, 2])),
        padding=kernel // 2,
        groups=groups,
    )


@st.composite
def gemm_layers(draw):
    """A random (possibly batched) GEMM layer."""
    return matmul(
        "prop_mm",
        m=draw(st.sampled_from([1, 8, 32, 128])),
        k=draw(st.sampled_from([16, 64, 256])),
        n=draw(st.sampled_from([16, 64, 256])),
        batch=draw(st.sampled_from([1, 1, 4])),
    )


COMPUTE = st.tuples(
    st.sampled_from([1, 2, 4]),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([4, 8]),
    st.sampled_from([4, 8]),
)


#: A-L1 sizes the twin machines draw from; across them the Cc0 tile of
#: most layers moves, but not at every step.
A_L1_SIZES = [400, 1 * KB, 2 * KB, 8 * KB, 32 * KB]


@st.composite
def twin_machines(draw, layer, profile):
    """Two machines that give ``layer`` one candidate-set key under
    ``profile``, with A-L1, the vector size and everything the key leaves
    out drawn apart."""
    chiplets, cores, lanes, vector = draw(COMPUTE)
    o_l1 = draw(st.sampled_from([48, 96, 144])) * lanes

    def machine(a_l1, vector_size):
        memory = MemoryConfig(
            a_l1_bytes=a_l1,
            w_l1_bytes=draw(st.sampled_from([2, 18, 144])) * KB,
            o_l1_bytes=o_l1,
            a_l2_bytes=draw(st.sampled_from([32, 128, 256])) * KB,
            o_l2_bytes=draw(st.sampled_from([0, 16 * KB])),
        )
        tech = replace(
            DEFAULT_TECHNOLOGY,
            frequency_mhz=draw(st.sampled_from([250.0, 500.0])),
            mac_energy_pj=draw(st.sampled_from([0.024, 0.1])),
            dram_energy_pj_per_bit=draw(st.sampled_from([8.75, 20.0])),
            d2d_energy_pj_per_bit=draw(st.sampled_from([1.17, 3.0])),
            l2_anchor_pj_per_bit=draw(st.sampled_from([0.81, 1.5])),
            sram_area_mm2_per_kb=draw(st.sampled_from([4.0e-3, 8.0e-3])),
        )
        return build_hardware(
            chiplets, cores, lanes, vector_size, memory=memory, tech=tech,
            topology=draw(st.sampled_from(list(Topology))),
        )

    def key(a_l1, vector_size):
        hw = build_hardware(
            chiplets, cores, lanes, vector_size,
            memory=MemoryConfig(a_l1_bytes=a_l1, w_l1_bytes=0, o_l1_bytes=o_l1, a_l2_bytes=0),
        )
        return MappingSpace(hw, profile).candidate_set_key(layer)

    first = (draw(st.sampled_from(A_L1_SIZES)), vector)
    second = draw(st.sampled_from([
        (a_l1, vector_size)
        for a_l1 in A_L1_SIZES
        for vector_size in (4, 8)
        if key(a_l1, vector_size) == key(*first)
    ]))
    return machine(*first), machine(*second)


def assert_same_table(a: CandidateTable, b: CandidateTable) -> None:
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.core, b.core)
    assert np.array_equal(a.pair, b.pair)
    assert a.pairs == b.pairs
    assert a.deduped == b.deduped


class TestCandidateSetKey:
    @given(
        st.one_of(conv_layers(), gemm_layers()),
        st.sampled_from(list(SearchProfile)),
        st.data(),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_equal_keys_build_equal_tables(self, layer, profile, data):
        machines = data.draw(twin_machines(layer, profile))
        first, second = (MappingSpace(hw, profile) for hw in machines)
        assert first.candidate_set_key(layer) == second.candidate_set_key(layer)
        assert_same_table(
            first.unique_candidates(layer, count=False),
            second.unique_candidates(layer, count=False),
        )

    def test_key_names_the_enumeration_inputs(self):
        """The key moves with every input the build reads, and with A-L1,
        the vector size and the data width only where they move the Cc0
        tile."""
        layer = ConvLayer("c", h=56, w=56, ci=64, co=64, kh=3, kw=3, padding=1)
        base = build_hardware(2, 4, 8, 8)  # 800 B A-L1: Cc0 tile 8, the pixel cap
        small = replace(base.memory, a_l1_bytes=400)  # Cc0 tile 4 at P = 8

        def key(hw, profile=SearchProfile.FAST):
            return MappingSpace(hw, profile).candidate_set_key(layer)

        for other in (
            build_hardware(4, 4, 8, 8, memory=base.memory),
            build_hardware(2, 2, 8, 8, memory=base.memory),
            build_hardware(2, 4, 16, 8, memory=base.memory),
            build_hardware(2, 4, 8, 8, memory=replace(base.memory, o_l1_bytes=768)),
            build_hardware(2, 4, 8, 8, memory=small),
            build_hardware(2, 4, 8, 8, tech=replace(DEFAULT_TECHNOLOGY, psum_bits=32)),
            build_hardware(2, 4, 8, 8, tech=replace(DEFAULT_TECHNOLOGY, data_bits=16)),
        ):
            assert key(other) != key(base), other
        assert key(base, SearchProfile.MINIMAL) != key(base)
        assert key(build_hardware(2, 4, 8, 4, memory=small)) != key(
            build_hardware(2, 4, 8, 8, memory=small)
        )
        for same in (
            build_hardware(2, 4, 8, 4, memory=base.memory),
            build_hardware(2, 4, 8, 8, memory=replace(base.memory, a_l1_bytes=2 * KB)),
            build_hardware(2, 4, 8, 8, memory=replace(
                base.memory, w_l1_bytes=144 * KB, a_l2_bytes=256 * KB, o_l2_bytes=16 * KB
            )),
            build_hardware(2, 4, 8, 8, topology=Topology.MESH),
        ):
            assert key(same) == key(base), same
            assert_same_table(
                MappingSpace(same, SearchProfile.FAST).unique_candidates(layer, count=False),
                MappingSpace(base, SearchProfile.FAST).unique_candidates(layer, count=False),
            )


@st.composite
def cube_layers(draw, ho, wo, co):
    """A conv layer with output cube ``ho`` x ``wo`` x ``co`` and drawn
    input channels, kernel, stride, padding and groups."""
    groups = draw(st.sampled_from([1, 1, 2, 16]))
    kernel = draw(st.sampled_from([1, 3, 5, 7]))
    stride = draw(st.sampled_from([1, 2, 4]))
    padding = draw(st.sampled_from([0, kernel // 2]))

    def extent(out):
        # The smallest input giving ``out`` positions, plus rows the stride drops.
        return (out - 1) * stride + kernel - 2 * padding + draw(st.integers(0, stride - 1))

    return ConvLayer(
        name="cube",
        h=extent(ho),
        w=extent(wo),
        ci=groups * draw(st.sampled_from([1, 3, 8, 64])),
        co=co,
        kh=kernel,
        kw=kernel,
        stride=stride,
        padding=padding,
        groups=groups,
    )


@st.composite
def cube_machines(draw, chiplets, cores, lanes):
    """A machine of one computation config whose A-L1, vector size, data
    width and pixel budget are drawn."""
    memory = MemoryConfig(
        a_l1_bytes=draw(st.sampled_from(A_L1_SIZES)),
        w_l1_bytes=18 * KB,
        o_l1_bytes=draw(st.sampled_from([96, 144])) * lanes,
        a_l2_bytes=128 * KB,
    )
    tech = replace(DEFAULT_TECHNOLOGY, data_bits=draw(st.sampled_from([8, 16])))
    return build_hardware(
        chiplets, cores, lanes, draw(st.sampled_from([4, 8])), memory=memory, tech=tech
    )


def doubling_cc0_tile(space: MappingSpace, layer: ConvLayer, max_pixels: int) -> int | None:
    """The Cc0 tile's doubling search, read straight off the layer."""
    chunk = min(space.hw.vector_size, layer.ci)
    bytes_per = space.hw.tech.data_bits / 8.0
    budget = space.hw.memory.a_l1_bytes

    def cc0(side: int) -> float:
        return layer.input_rows_for(side) * layer.input_cols_for(side) * chunk * bytes_per

    if cc0(1) > budget:
        return None
    side = 1
    while side * 2 * side * 2 <= max_pixels and cc0(side * 2) <= budget:
        side *= 2
    return side


class TestOutputCubeKey:
    @given(
        st.sampled_from([1, 7, 14, 28]),
        st.sampled_from([1, 7, 14]),
        st.sampled_from([16, 32, 64]),
        st.sampled_from(list(SearchProfile)),
        st.data(),
    )
    @settings(max_examples=2 * MAX_EXAMPLES, deadline=None)
    def test_equal_keys_build_equal_tables_across_layers(self, ho, wo, co, profile, data):
        """Two layers of one output cube, each on its own machine of one
        computation config: whenever their keys are equal, so are their
        tables."""
        compute = data.draw(COMPUTE)[:3]
        layers = [data.draw(cube_layers(ho, wo, co)) for _ in range(2)]
        spaces = [MappingSpace(data.draw(cube_machines(*compute)), profile) for _ in range(2)]
        if spaces[0].candidate_set_key(layers[0]) == spaces[1].candidate_set_key(layers[1]):
            assert_same_table(*(
                space.unique_candidates(layer, count=False)
                for space, layer in zip(spaces, layers)
            ))

    @given(
        st.one_of(conv_layers(), gemm_layers(), cube_layers(7, 7, 16)),
        COMPUTE.flatmap(lambda compute: cube_machines(*compute[:3])),
        st.sampled_from(list(SearchProfile)),
    )
    @settings(max_examples=8 * MAX_EXAMPLES, deadline=None)
    def test_memoized_cc0_tile_is_the_doubling_search(self, layer, hw, profile):
        space = MappingSpace(hw, profile)
        for max_pixels in (1, 4, 16, 64, space._max_pixels()):
            assert space._cc0_square_tile(layer, max_pixels) == doubling_cc0_tile(
                space, layer, max_pixels
            )


def separate_and_packed(layers, hw, profile):
    """Each layer's own outcome, the pack's outcome, the tables and the pack."""
    space = MappingSpace(hw, profile)
    tables = [space.unique_candidates(layer, count=False) for layer in layers]
    pack = CandidateTable.pack(tables)
    own = [batch.search_batch(layer, hw, table) for layer, table in zip(layers, tables)]
    return own, batch.search_batch(layers, hw, pack), tables, pack


def assert_pack_matches(own, packed, tables, pack):
    assert packed is not None
    offsets = np.cumsum([0] + [len(table) for table in tables[:-1]]).tolist()
    for segment, (outcome, table, offset) in enumerate(zip(own, tables, offsets)):
        assert outcome is not None
        assert packed.segment_evaluated[segment] == outcome.evaluated
        assert packed.segment_invalid[segment] == outcome.invalid
        (winner,) = outcome.winners
        if winner is None:
            assert packed.winners[segment] is None
        else:
            assert packed.winners[segment] == offset + winner
            assert pack[packed.winners[segment]] == table[winner]


@st.composite
def pack_case(draw):
    """2-6 dense (conv or GEMM) or grouped layers on one machine."""
    if draw(st.booleans()):
        layer = st.one_of(conv_layers(grouped=False), gemm_layers())
    else:
        layer = conv_layers(grouped=True)
    layers = draw(st.lists(layer, min_size=2, max_size=6))
    hw = build_hardware(*draw(COMPUTE), topology=draw(st.sampled_from(list(Topology))))
    return layers, hw, draw(st.sampled_from([SearchProfile.MINIMAL, SearchProfile.FAST]))


class TestPacks:
    @given(pack_case())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_pack_equals_separate_calls(self, case):
        own, packed, tables, pack = separate_and_packed(*case)
        assert_pack_matches(own, packed, tables, pack)

    def test_mixed_dense_and_grouped_pack_is_refused(self):
        hw = build_hardware(2, 2, 8, 8)
        dense = ConvLayer("dense", h=14, w=14, ci=16, co=16, kh=3, kw=3, padding=1)
        depthwise = ConvLayer("dw", h=14, w=14, ci=16, co=16, kh=3, kw=3, padding=1, groups=16)
        space = MappingSpace(hw, SearchProfile.MINIMAL)
        pack = CandidateTable.pack([space.unique_candidates(dense), space.unique_candidates(depthwise)])
        with pytest.raises(ValueError, match="dense or grouped"):
            batch.search_batch([dense, depthwise], hw, pack)

    def test_exact_ties_keep_each_segments_first_row(self):
        """Segments whose two rows tie exactly pick their first row."""
        hw = build_hardware(1, 1, 8, 8)
        layers = [
            ConvLayer(f"tie{side}", h=side, w=side, ci=8, co=8, kh=1, kw=1)
            for side in (8, 4, 8)
        ]
        tables = []
        for layer in layers:
            side = layer.ho
            base = Mapping(
                package_spatial=SpatialPrimitive.channel(1),
                package_temporal=TemporalPrimitive(LoopOrder.CHANNEL_PRIORITY, side, side, 8),
                chiplet_spatial=SpatialPrimitive.channel(1),
                chiplet_temporal=TemporalPrimitive(LoopOrder.CHANNEL_PRIORITY, side, side, 8),
            )
            tied = [base.with_rotation(RotationKind.ACTIVATIONS), base]
            tables.append(CandidateTable.from_mappings(layer, tied))
        packed = batch.search_batch(layers, hw, CandidateTable.pack(tables))
        assert packed.winners == (0, 2, 4)
        assert packed.segment_evaluated == (2, 2, 2)

    def test_overflowing_segment_refuses_the_pack_only(self):
        """The int64 guard refuses a pack with one overflowing segment; the
        other segments alone still score, and the mapper's packed search
        gives every layer what its own search gives."""
        from repro import obs
        from repro.core.mapper import Mapper

        hw = build_hardware(1, 4, 8, 8)
        huge = ConvLayer("huge", h=2**22, w=2**22, ci=2**20, co=8, kh=1, kw=1)
        small = ConvLayer("small", h=14, w=14, ci=8, co=16, kh=3, kw=3, padding=1)
        space = MappingSpace(hw, SearchProfile.FAST)
        tables = [space.unique_candidates(layer) for layer in (small, huge)]
        assert batch.search_batch(huge, hw, tables[1]) is None
        assert batch.search_batch(small, hw, tables[0]) is not None
        assert batch.search_batch([small, huge], hw, CandidateTable.pack(tables)) is None

        runs = []
        for layers in ([small, huge], [small], [huge]):
            recorder = obs.MetricsRecorder()
            with obs.use(recorder):
                results = Mapper(hw=hw, profile=SearchProfile.FAST).search_model(layers)
            runs.append((results, recorder.metrics.counters()))
        (both, both_counts), (alone_small, small_counts), (alone_huge, huge_counts) = runs
        assert [r.mapping for r in both] == [alone_small[0].mapping, alone_huge[0].mapping]
        assert [r.best.energy_pj for r in both] == [
            alone_small[0].best.energy_pj, alone_huge[0].best.energy_pj
        ]
        for name in ("mapper.candidates.evaluated", "mapper.candidates.invalid",
                     "space.candidates.deduped", "mapper.batch.searches"):
            assert both_counts.get(name, 0) == small_counts.get(name, 0) + huge_counts.get(name, 0)


#: A-L1 sizes the sharing machines draw from: below the Cc0 of a 1x1 tile
#: (no Cc0 tile, so equal keys) they still differ in the rows whose input
#: row fits, so the scoring half's A-L1 legality test matters.
SHARED_A_L1_SIZES = [32, 48, 64, 96, 128, 192, 256, *A_L1_SIZES]


@st.composite
def shared_pack_case(draw):
    """A pack or one layer's table, and two machines that share its tables.

    Both machines have one package and one technology.  Their memories
    differ wherever the tables allow: A-L1 within every layer's Cc0 tile,
    O-L1 within one pixel budget, W-L1, A-L2 and O-L2 freely.
    """
    kind = draw(st.sampled_from(["dense", "grouped", "single"]))
    if kind == "grouped":
        layer = conv_layers(grouped=True)
    else:
        layer = st.one_of(conv_layers(grouped=False), gemm_layers())
    single = kind == "single"
    layers = draw(st.lists(layer, min_size=1 if single else 2, max_size=1 if single else 5))
    profile = draw(st.sampled_from([SearchProfile.MINIMAL, SearchProfile.FAST]))
    chiplets, cores, lanes, vector = draw(COMPUTE)
    pixels = draw(st.sampled_from([16, 32, 48]))
    tech = replace(
        DEFAULT_TECHNOLOGY,
        frequency_mhz=draw(st.sampled_from([250.0, 500.0])),
        l2_anchor_pj_per_bit=draw(st.sampled_from([0.81, 1.5])),
    )
    topology = draw(st.sampled_from(list(Topology)))

    def machine(a_l1):
        psum_bytes = tech.psum_bits // 8
        memory = MemoryConfig(
            a_l1_bytes=a_l1,
            w_l1_bytes=draw(st.sampled_from([1, 2, 18, 144])) * KB,
            # Any size below the next pixel keeps the pixel budget.
            o_l1_bytes=pixels * psum_bytes * lanes + draw(st.integers(0, psum_bytes * lanes - 1)),
            a_l2_bytes=draw(st.sampled_from([1, 8, 32, 256])) * KB,
            o_l2_bytes=draw(st.sampled_from([0, 16 * KB])),
        )
        return build_hardware(
            chiplets, cores, lanes, vector, memory=memory, tech=tech, topology=topology
        )

    def keys(hw):
        space = MappingSpace(hw, profile)
        return [space.candidate_set_key(layer) for layer in layers]

    a_l1 = draw(st.sampled_from(SHARED_A_L1_SIZES))
    first = machine(a_l1)
    others = [
        size for size in SHARED_A_L1_SIZES
        if size != a_l1 and keys(machine(size)) == keys(first)
    ]
    second = machine(draw(st.sampled_from(others or [a_l1])))
    assert keys(second) == keys(first)
    space = MappingSpace(first, profile)
    tables = [space.unique_candidates(layer, count=False) for layer in layers]
    if single:
        return layers[0], first, second, tables[0]
    return layers, first, second, CandidateTable.pack(tables)


def assert_same_value(name, held, fresh):
    if isinstance(fresh, np.ndarray):
        assert isinstance(held, np.ndarray), name
        assert held.dtype == fresh.dtype, name
        assert np.array_equal(held, fresh), name
    else:
        assert type(held) is type(fresh), name
        assert held == fresh, name


class TestHeldColumns:
    @given(shared_pack_case())
    @settings(max_examples=2 * MAX_EXAMPLES, deadline=None)
    def test_columns_from_one_machine_score_like_the_other(self, case):
        layers, first, second, table = case
        columns = batch.c3p_columns(layers, first, table)
        held = batch.score_columns(columns, second, table)
        fresh = batch.evaluate_batch(layers, second, table)
        for f in fields(batch.BatchResult):
            if f.name != "candidates":
                assert_same_value(f.name, getattr(held, f.name), getattr(fresh, f.name))
        for objective in sorted(batch.BATCH_OBJECTIVES):
            scored = batch.search_batch(layers, second, table, objective, columns=columns)
            alone = batch.search_batch(layers, second, table, objective)
            assert scored.columns is columns
            assert scored == alone
            assert [repr(r) for r in scored.reports] == [repr(r) for r in alone.reports]
