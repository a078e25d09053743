"""Winner reports read off the batch kernel's columns, against the scalar oracle.

:func:`repro.core.batch.search_batch` returns each segment's winner with
its full :class:`~repro.core.cost.CostReport`, built from the columns the
kernel already computed (:meth:`~repro.core.batch.BatchResult.report`)
instead of a second scalar pass.  That report must be the one
:func:`~repro.core.cost.evaluate_mapping` gives for the winning mapping,
down to its ``repr``: ``123 == 123.0``, so ``==`` alone would let an int
field turn float, and a numpy scalar reprs as ``np.float64(...)``.  The
draws cover dense, grouped and GEMM layers on ring, mesh and switch
packages, under the three profiles and both objectives, and the reports
come from one layer's table, a pack and a chunked table.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import build_hardware
from repro.arch.topology import Topology
from repro.core import batch
from repro.core.cost import evaluate_mapping
from repro.core.space import CandidateTable, MappingSpace, SearchProfile
from repro.workloads.layer import ConvLayer, matmul

MAX_EXAMPLES = 25


@st.composite
def layers_of(draw, kind):
    """A ``"dense"``, ``"grouped"`` or ``"gemm"`` layer."""
    if kind == "gemm":
        return matmul(
            "prop_mm",
            m=draw(st.sampled_from([1, 8, 32, 128])),
            k=draw(st.sampled_from([16, 64, 256])),
            n=draw(st.sampled_from([16, 64, 256])),
            batch=draw(st.sampled_from([1, 1, 4])),
        )
    groups = 1 if kind == "dense" else draw(st.sampled_from([2, 4, 16]))
    kernel = draw(st.sampled_from([1, 3, 5]))
    return ConvLayer(
        name=f"prop_{kind}",
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
def search_case(draw):
    """2-3 layers of one kind on one machine, a profile and an objective."""
    kind = draw(st.sampled_from(["dense", "grouped", "gemm"]))
    layers = draw(st.lists(layers_of(kind), min_size=2, max_size=3))
    hw = build_hardware(
        draw(st.sampled_from([1, 2, 4])),
        draw(st.sampled_from([1, 2, 4])),
        draw(st.sampled_from([4, 8])),
        draw(st.sampled_from([4, 8])),
        topology=draw(st.sampled_from([Topology.RING, Topology.MESH, Topology.SWITCH])),
    )
    profile = draw(st.sampled_from(list(SearchProfile)))
    objective = draw(st.sampled_from(sorted(batch.BATCH_OBJECTIVES)))
    tables = [MappingSpace(hw, profile).unique_candidates(layer, count=False) for layer in layers]
    return layers, hw, tables, objective


def number_types(report):
    """Each number of ``report`` by name, with its exact type."""
    parts = (report.energy, report.traffic)
    return [(f.name, type(getattr(part, f.name))) for part in parts for f in fields(part)] + [
        (name, type(getattr(report, name))) for name in ("cycles", "utilization", "o_l2_bytes")
    ]


def assert_reports_match(layers, hw, table, outcome):
    """Each segment's report is ``evaluate_mapping``'s for its winner."""
    assert outcome is not None
    for layer, winner, report in zip(layers, outcome.winners, outcome.reports):
        if winner is None:
            assert report is None
            continue
        oracle = evaluate_mapping(layer, hw, table[winner])
        assert repr(report) == repr(oracle)
        assert number_types(report) == number_types(oracle)


class TestWinnerReports:
    @given(search_case())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_single_table_reports_equal_the_scalar_oracle(self, case):
        layers, hw, tables, objective = case
        for layer, table in zip(layers, tables):
            outcome = batch.search_batch(layer, hw, table, objective=objective)
            assert_reports_match([layer], hw, table, outcome)

    @given(search_case())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_pack_reports_equal_the_scalar_oracle(self, case):
        layers, hw, tables, objective = case
        pack = CandidateTable.pack(tables)
        assert_reports_match(
            layers, hw, pack, batch.search_batch(layers, hw, pack, objective=objective)
        )

    @given(search_case(), st.sampled_from([3000, 20000]))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_chunked_reports_equal_the_scalar_oracle(self, case, max_bytes):
        """Each report comes from the chunk holding the final winner."""
        layers, hw, tables, objective = case
        pack = CandidateTable.pack(tables)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(batch.BATCH_MAX_BYTES_ENV, str(max_bytes))
            for layer, table in zip(layers, tables):
                outcome = batch.search_batch(layer, hw, table, objective=objective)
                assert_reports_match([layer], hw, table, outcome)
            packed = batch.search_batch(layers, hw, pack, objective=objective)
            assert_reports_match(layers, hw, pack, packed)
