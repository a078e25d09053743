"""Property-based tests for the C3P methodology's invariants."""

from dataclasses import fields, replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arch.config import KB, MemoryConfig, build_hardware
from repro.core.c3p import (
    analyze_activation_l1,
    analyze_activation_l2,
    analyze_weight_buffer,
)
from repro.core.loopnest import LoopNest
from repro.core.mapping import Mapping
from repro.core.partition import PlanarGrid
from repro.core.primitives import LoopOrder, SpatialPrimitive, TemporalPrimitive
from repro.core.traffic import compute_traffic
from repro.workloads.layer import ConvLayer


@st.composite
def nests(draw):
    """A random valid (layer, hardware, mapping) loop nest."""
    layer = ConvLayer(
        name="prop",
        h=draw(st.sampled_from([14, 28, 56])),
        w=draw(st.sampled_from([14, 28, 56])),
        ci=draw(st.sampled_from([8, 32, 64])),
        co=draw(st.sampled_from([32, 64, 256])),
        kh=draw(st.sampled_from([1, 3, 5])),
        kw=draw(st.sampled_from([1, 3])),
        stride=1,
        padding=1,
    )
    n_chiplets = draw(st.sampled_from([1, 2, 4]))
    n_cores = draw(st.sampled_from([1, 2, 4]))
    hw = build_hardware(
        n_chiplets,
        n_cores,
        8,
        8,
        memory=MemoryConfig(
            a_l1_bytes=2 * KB, w_l1_bytes=8 * KB, o_l1_bytes=1536, a_l2_bytes=64 * KB
        ),
    )
    pkg = (
        SpatialPrimitive.channel(n_chiplets)
        if draw(st.booleans()) or layer.co < n_chiplets
        else SpatialPrimitive.plane(PlanarGrid(1, n_chiplets))
    )
    if pkg.dim.value == "C" and layer.co < n_chiplets:
        pkg = SpatialPrimitive.plane(PlanarGrid(1, n_chiplets))
    chip = (
        SpatialPrimitive.channel(n_cores)
        if draw(st.booleans())
        else SpatialPrimitive.plane(PlanarGrid(1, n_cores))
    )
    orders = [LoopOrder.CHANNEL_PRIORITY, LoopOrder.PLANE_PRIORITY]
    mapping = Mapping(
        package_spatial=pkg,
        package_temporal=TemporalPrimitive(
            draw(st.sampled_from(orders)),
            draw(st.sampled_from([8, 16, 56])),
            draw(st.sampled_from([8, 16, 56])),
            draw(st.sampled_from([16, 64, 256])),
        ),
        chiplet_spatial=chip,
        chiplet_temporal=TemporalPrimitive(
            draw(st.sampled_from(orders)),
            draw(st.sampled_from([2, 4, 8])),
            draw(st.sampled_from([2, 4, 8])),
            8,
        ),
    )
    return LoopNest(layer, hw, mapping)


BUFFER_SIZES = st.sampled_from([0, 256, 1024, 8 * KB, 64 * KB, 10**7])


class TestC3PInvariants:
    @given(nests(), BUFFER_SIZES)
    @settings(max_examples=120)
    def test_reload_factor_at_least_one(self, nest, buf):
        for analyze in (
            analyze_weight_buffer,
            analyze_activation_l1,
            analyze_activation_l2,
        ):
            analysis = analyze(nest, buf)
            assert analysis.reload_factor >= 1.0
            assert analysis.fill_bits >= analysis.a0_bits - 1e-6

    @given(nests())
    @settings(max_examples=80)
    def test_reload_factor_monotone_in_buffer(self, nest):
        sizes = [0, 512, 4 * KB, 32 * KB, 1024 * KB, 10**8]
        for analyze in (
            analyze_weight_buffer,
            analyze_activation_l1,
            analyze_activation_l2,
        ):
            factors = [analyze(nest, s).reload_factor for s in sizes]
            assert factors == sorted(factors, reverse=True)

    @given(nests())
    @settings(max_examples=80)
    def test_infinite_buffer_no_penalty(self, nest):
        for analyze in (
            analyze_weight_buffer,
            analyze_activation_l1,
            analyze_activation_l2,
        ):
            assert analyze(nest, 10**12).reload_factor == 1.0

    @given(nests(), BUFFER_SIZES)
    @settings(max_examples=80)
    def test_penalty_free_capacity_is_sufficient(self, nest, buf):
        for analyze in (
            analyze_weight_buffer,
            analyze_activation_l1,
            analyze_activation_l2,
        ):
            threshold = analyze(nest, buf).min_penalty_free_capacity()
            assert analyze(nest, threshold).reload_factor == 1.0

    @given(nests())
    @settings(max_examples=80)
    def test_weight_a0_counts_distinct_weights(self, nest):
        analysis = analyze_weight_buffer(nest, 10**12)
        # A0 never exceeds ceil-padded distinct weights and never undercounts
        # the core's true share.
        block_bits = nest.layer.weights_for(nest.core_co) * 8
        assert analysis.a0_bits == block_bits * nest.c1 * nest.c2


#: Growing sizes of the three buffers whose thresholds Eq. 2 tests.
GROWTH = {
    "w_l1_bytes": [2 * KB, 8 * KB, 18 * KB, 72 * KB, 256 * KB, 10**8],
    "a_l1_bytes": [2 * KB, 4 * KB, 16 * KB, 128 * KB, 10**8],
    "a_l2_bytes": [2 * KB, 32 * KB, 128 * KB, 256 * KB, 10**8],
}


class TestBufferGrowth:
    """Eq. 2: a buffer's size only decides which critical capacities it
    satisfies, so for a fixed legal mapping growing W-L1, A-L1 or A-L2 can
    only remove reload penalties.  This is why a sweep may share one
    candidate table between machines that differ only in W-L1 and A-L2."""

    @given(nests(), st.sampled_from(sorted(GROWTH)))
    @settings(max_examples=80, deadline=None)
    def test_reloads_and_traffic_never_grow(self, nest, buffer):
        assume(nest.is_valid())
        previous = None
        for size in GROWTH[buffer]:
            if size < getattr(nest.hw.memory, buffer):
                continue
            hw = replace(nest.hw, memory=replace(nest.hw.memory, **{buffer: size}))
            grown = LoopNest(nest.layer, hw, nest.mapping)
            assert grown.is_valid()
            traffic, inputs = compute_traffic(grown)
            reloads = [inputs.weight.reload_factor, inputs.a_l1.reload_factor,
                       inputs.a_l2.reload_factor]
            bits = [getattr(traffic, f.name) for f in fields(traffic)]
            if previous is not None:
                assert all(r <= p for r, p in zip(reloads, previous[0])), (buffer, size)
                assert all(b <= p for b, p in zip(bits, previous[1])), (buffer, size)
            previous = (reloads, bits)
