"""Differential validation of the batch kernel against the scalar oracle.

The scalar pipeline (``c3p`` -> ``traffic`` -> ``cost``) is the golden
reference; the struct-of-arrays kernel (:mod:`repro.core.batch`) promises
*bit-level* agreement with it (see the module docstring's contract).  These
tests draw random (layer, hardware) pairs -- dense, strided, 1x1, grouped
and depthwise layers alike -- enumerate the real candidate space, and
compare every intermediate the kernel exposes against the scalar value with
exact ``==``, never ``approx``:

* the validity mask against ``InvalidMappingError``,
* the three C3P walk outputs (A_0, reload factor, fill bits),
* every traffic field, every energy component, cycles, O-L2 sizing, EDP,
* and :func:`~repro.core.batch.search_batch`'s winner index and counts
  against the scalar strict-``<`` first-minimum scan.

The kernel's input rows (:func:`repro.core.space.candidate_row`) are checked
against :class:`~repro.core.loopnest.LoopNest`, the scalar derivation of the
same clamped extents, on every raw candidate; and the candidate table the
kernel reads (:meth:`~repro.core.space.MappingSpace.unique_candidates`) is
checked against the scalar enumeration and dedup, mapping for mapping and
row for row, on every profile and package topology.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.arch.config import build_hardware
from repro.arch.topology import Topology
from repro.core import batch
from repro.core.c3p import (
    analyze_activation_l1,
    analyze_activation_l2,
    analyze_weight_buffer,
)
from repro.core.cost import InvalidMappingError, evaluate_mapping
from repro.core.loopnest import LoopNest
from repro.core.space import (
    CANDIDATE_COLUMNS,
    MappingSpace,
    SearchProfile,
    candidate_row,
)
from repro.core.traffic import weight_group_size
from repro.workloads.layer import ConvLayer, ceil_div, matmul
from repro.workloads.transformer import AttentionLayer

MAX_EXAMPLES = 25


@st.composite
def layer_and_hw(draw):
    """A random layer (possibly grouped/depthwise) on a random machine."""
    groups = draw(st.sampled_from([1, 1, 1, 2, 4, 16]))
    ci = groups * draw(st.sampled_from([1, 2, 4]))
    co = groups * draw(st.sampled_from([1, 2, 8]))
    kernel = draw(st.sampled_from([1, 3, 5]))
    layer = ConvLayer(
        name="prop",
        h=draw(st.sampled_from([7, 14, 28, 56])),
        w=draw(st.sampled_from([7, 14, 28])),
        ci=ci,
        co=co,
        kh=kernel,
        kw=kernel,
        stride=draw(st.sampled_from([1, 2])),
        padding=kernel // 2,
        groups=groups,
    )
    hw = build_hardware(
        draw(st.sampled_from([1, 2, 4])),
        draw(st.sampled_from([1, 2, 4])),
        draw(st.sampled_from([4, 8])),
        draw(st.sampled_from([4, 8])),
    )
    profile = draw(st.sampled_from([SearchProfile.MINIMAL, SearchProfile.FAST]))
    return layer, hw, profile


@st.composite
def transformer_layer_and_hw(draw):
    """A random GEMM (dense, multi-head, or attention sublayer) on a
    random machine with a random package topology."""
    kind = draw(st.sampled_from(["dense", "multi_head", "gemv", "attention"]))
    if kind == "attention":
        attn = AttentionLayer(
            name="prop_attn",
            seq=draw(st.sampled_from([1, 8, 32])),
            d_model=draw(st.sampled_from([32, 64, 128])),
            heads=draw(st.sampled_from([2, 4])),
            kv_seq=draw(st.sampled_from([None, 16, 64])),
        )
        layer = draw(st.sampled_from(list(attn.sublayers())))
    elif kind == "multi_head":
        heads = draw(st.sampled_from([2, 4]))
        layer = matmul(
            "prop_mh",
            m=draw(st.sampled_from([8, 32, 64])),
            k=heads * draw(st.sampled_from([8, 16])),
            n=heads * draw(st.sampled_from([8, 32])),
            heads=heads,
        )
    elif kind == "gemv":
        layer = matmul(
            "prop_gemv",
            m=1,
            k=draw(st.sampled_from([64, 256, 1024])),
            n=draw(st.sampled_from([32, 256])),
        )
    else:
        layer = matmul(
            "prop_mm",
            m=draw(st.sampled_from([8, 32, 128])),
            k=draw(st.sampled_from([16, 64, 256])),
            n=draw(st.sampled_from([16, 64])),
            batch=draw(st.sampled_from([1, 1, 4])),
        )
    hw = build_hardware(
        draw(st.sampled_from([1, 2, 4])),
        draw(st.sampled_from([1, 2, 4])),
        draw(st.sampled_from([4, 8])),
        draw(st.sampled_from([4, 8])),
        topology=draw(
            st.sampled_from([Topology.RING, Topology.MESH, Topology.SWITCH])
        ),
    )
    profile = draw(st.sampled_from([SearchProfile.MINIMAL, SearchProfile.FAST]))
    return layer, hw, profile


@st.composite
def table_case(draw):
    """A random conv or GEMM layer under any profile and package topology."""
    layer, hw, _ = draw(st.one_of(layer_and_hw(), transformer_layer_and_hw()))
    hw = build_hardware(
        hw.n_chiplets,
        hw.n_cores,
        hw.lanes,
        hw.vector_size,
        topology=draw(st.sampled_from(list(Topology))),
    )
    return layer, hw, draw(st.sampled_from(list(SearchProfile)))


class TestCandidateTable:
    @given(table_case())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_table_matches_scalar_enumeration(self, case):
        """The table is the scalar first-occurrence dedup, built as columns."""
        layer, hw, profile = case
        space = MappingSpace(hw, profile)
        table_counts = obs.MetricsRecorder()
        with obs.use(table_counts):
            table = space.unique_candidates(layer)
        oracle, dropped = space.scalar_unique_candidates(layer)
        assert list(table) == oracle
        assert table.rows.T.tolist() == [list(candidate_row(layer, m)) for m in oracle]
        assert table.deduped == dropped
        counters = table_counts.metrics.counters()
        assert counters.get("space.candidates.deduped", 0) == dropped


class TestCandidateRow:
    @given(st.one_of(layer_and_hw(), transformer_layer_and_hw()))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_row_extents_match_loop_nest(self, case):
        """Every raw candidate's row clamps its extents as LoopNest does."""
        layer, hw, profile = case
        for mapping in MappingSpace(hw, profile).candidates(layer):
            row = dict(zip(CANDIDATE_COLUMNS, candidate_row(layer, mapping)))
            nest = LoopNest(layer, hw, mapping)
            for name in ("tile_ho", "tile_wo", "tile_co", "core_ho", "core_wo"):
                assert row[name] == getattr(nest, name), name
            core_co = min(hw.lanes, ceil_div(row["tile_co"], row["chp_co_ways"]))
            assert core_co == nest.core_co


class TestBatchScalarDifferential:
    @given(layer_and_hw())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_every_candidate_bit_identical(self, case):
        self._assert_bit_identical(*case)

    @given(transformer_layer_and_hw())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_transformer_candidates_bit_identical(self, case):
        # GEMM layers (including grouped multi-head einsums and GEMVs) on
        # every topology keep the same exact-equality contract.
        self._assert_bit_identical(*case)

    def _assert_bit_identical(self, layer, hw, profile):
        table = MappingSpace(hw, profile).unique_candidates(layer)
        if not table:
            return
        result = batch.evaluate_batch(layer, hw, table)
        assert len(result) == len(table)

        for i, mapping in enumerate(table):
            try:
                report = evaluate_mapping(layer, hw, mapping)
            except InvalidMappingError:
                assert not bool(result.valid[i]), (
                    f"scalar rejects candidate {i} ({mapping.describe()}) "
                    "but the batch kernel marks it valid"
                )
                continue
            assert bool(result.valid[i]), (
                f"scalar accepts candidate {i} ({mapping.describe()}) "
                "but the batch kernel masks it invalid"
            )

            # C3P walk outputs against the per-candidate analyses.
            nest = LoopNest(layer, hw, mapping)
            weight = analyze_weight_buffer(
                nest, hw.memory.w_l1_bytes * weight_group_size(mapping)
            )
            assert float(result.weight_a0_bits[i]) == weight.a0_bits
            assert float(result.weight_reload[i]) == weight.reload_factor
            assert float(result.weight_fill_bits[i]) == weight.fill_bits
            a_l1 = analyze_activation_l1(nest, hw.memory.a_l1_bytes)
            assert float(result.a_l1_a0_bits[i]) == a_l1.a0_bits
            assert float(result.a_l1_reload[i]) == a_l1.reload_factor
            assert float(result.a_l1_fill_bits[i]) == a_l1.fill_bits
            a_l2 = analyze_activation_l2(nest, hw.memory.a_l2_bytes)
            assert float(result.a_l2_a0_bits[i]) == a_l2.a0_bits
            assert float(result.a_l2_reload[i]) == a_l2.reload_factor
            assert float(result.a_l2_fill_bits[i]) == a_l2.fill_bits

            # Traffic assembly, field by field.
            t = report.traffic
            assert float(result.dram_input_bits[i]) == t.dram_input_bits
            assert float(result.dram_weight_bits[i]) == t.dram_weight_bits
            assert result.dram_output_bits == t.dram_output_bits
            assert float(result.d2d_bit_hops[i]) == t.d2d_bit_hops
            assert float(result.a_l2_write_bits[i]) == t.a_l2_write_bits
            assert float(result.a_l2_read_bits[i]) == t.a_l2_read_bits
            assert float(result.a_l1_write_bits[i]) == t.a_l1_write_bits
            assert result.a_l1_read_bits == t.a_l1_read_bits
            assert float(result.w_l1_write_bits[i]) == t.w_l1_write_bits
            assert float(result.w_l1_read_bits[i]) == t.w_l1_read_bits
            assert result.rf_rmw_bits == t.rf_rmw_bits
            assert result.rf_drain_bits == t.rf_drain_bits

            # Energy components, cycles, O-L2 sizing, EDP.
            e = report.energy
            assert float(result.dram_pj[i]) == e.dram_pj
            assert float(result.d2d_pj[i]) == e.d2d_pj
            assert float(result.a_l2_pj[i]) == e.a_l2_pj
            assert float(result.o_l2_pj[i]) == e.o_l2_pj
            assert float(result.a_l1_pj[i]) == e.a_l1_pj
            assert float(result.w_l1_pj[i]) == e.w_l1_pj
            assert result.rf_pj == e.rf_pj
            assert result.mac_pj == e.mac_pj
            assert float(result.energy_pj[i]) == report.energy_pj
            assert int(result.o_l2_bytes[i]) == report.o_l2_bytes
            assert int(result.cycles[i]) == report.cycles
            assert float(result.edp[i]) == report.edp(hw)

    @given(st.one_of(layer_and_hw(), transformer_layer_and_hw()))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_winner_matches_scalar_strict_less_scan(self, case):
        """The winner and counts the mapper takes from the kernel
        (:func:`~repro.core.batch.search_batch`) are the scalar scan's."""
        layer, hw, profile = case
        table = MappingSpace(hw, profile).unique_candidates(layer)
        if not table:
            return
        candidates = list(table)
        for objective, score_of in (
            ("energy_objective", lambda r: r.energy_pj),
            ("edp_objective", lambda r: r.edp(hw)),
        ):
            winner, best_score = None, math.inf
            evaluated = invalid = 0
            for index, mapping in enumerate(candidates):
                try:
                    report = evaluate_mapping(layer, hw, mapping)
                except InvalidMappingError:
                    invalid += 1
                    continue
                evaluated += 1
                score = score_of(report)
                if score < best_score:
                    best_score, winner = score, index
            outcome = batch.search_batch(layer, hw, table, objective)
            assert outcome is not None
            assert outcome.winners == (winner,)
            assert outcome.evaluated == evaluated
            assert outcome.invalid == invalid
