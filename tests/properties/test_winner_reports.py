"""Winner records copied out of the batch kernel's columns, against the scalar oracle.

:func:`repro.core.batch.search_batch` returns each segment's winner as a
:class:`~repro.core.batch.Winner` record: the values the kernel already
computed, copied out of its columns (:func:`~repro.core.batch.gather_winners`),
from which the full :class:`~repro.core.cost.CostReport` is built on first
read instead of by a second scalar pass.  That report must be the one
:func:`~repro.core.cost.evaluate_mapping` gives for the winning mapping,
down to its ``repr``: ``123 == 123.0``, so ``==`` alone would let an int
field turn float, and a numpy scalar reprs as ``np.float64(...)``.  The
draws cover dense, grouped and GEMM layers on ring, mesh and switch
packages, under the three profiles and both objectives, and the reports
come from one layer's table and a pack, read from the kernel's outcome and
from :meth:`~repro.core.mapper.Mapper.search_model`.

A sweep point sums each model's energy and cycles from the records
without building a report; the totals must equal the per-field
compensated sums of the oracle's reports bit for bit.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import build_hardware, case_study_hardware
from repro.arch.topology import Topology
from repro.core import batch, search
from repro.core.cache import CACHE_DIR_ENV, MappingCache
from repro.core.cost import EnergyBreakdown, evaluate_mapping, model_cost
from repro.core.mapper import Mapper, _shape_key, edp_objective, energy_objective
from repro.core.space import CandidateTable, MappingSpace, SearchProfile
from repro.workloads.layer import ConvLayer, matmul
from repro.workloads.models import alexnet, mobilenetv2, resnet50

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


@st.composite
def mapper_case(draw):
    """2-4 layers of one kind, one of them possibly a renamed twin of
    another, on one machine, with a profile and an objective."""
    kind = draw(st.sampled_from(["dense", "grouped", "gemm"]))
    layers = draw(st.lists(layers_of(kind), min_size=2, max_size=3))
    layers = [
        ConvLayer(f"{layer.name}_{i}", layer.h, layer.w, layer.ci, layer.co, layer.kh,
                  layer.kw, layer.stride, layer.padding, layer.groups)
        for i, layer in enumerate(layers)
    ]
    if draw(st.booleans()):
        twin = layers[0]
        layers.append(ConvLayer("twin", twin.h, twin.w, twin.ci, twin.co, twin.kh,
                                twin.kw, twin.stride, twin.padding, twin.groups))
    hw = build_hardware(
        draw(st.sampled_from([1, 2, 4])),
        draw(st.sampled_from([1, 2, 4])),
        draw(st.sampled_from([4, 8])),
        draw(st.sampled_from([4, 8])),
        topology=draw(st.sampled_from([Topology.RING, Topology.MESH, Topology.SWITCH])),
    )
    profile = draw(st.sampled_from(list(SearchProfile)))
    objective = draw(st.sampled_from([energy_objective, edp_objective]))
    return layers, hw, profile, objective


def walk(value):
    """``value`` and, inside tuples and lists, everything it holds."""
    yield value
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from walk(item)


class TestMapperResults:
    @given(mapper_case())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_best_equals_the_scalar_oracle(self, case):
        """``best`` is the oracle's report of the winning mapping on the
        searched layer: from one table or a pack."""
        layers, hw, profile, objective = case
        mapper = Mapper(hw=hw, profile=profile, objective=objective, cache=MappingCache())
        results = mapper.search_model(layers)
        for layer, result in zip(layers, results):
            assert result.layer is layer
            report = result.best
            assert _shape_key(report.layer) == _shape_key(layer)
            oracle = evaluate_mapping(report.layer, hw, result.mapping)
            assert repr(report) == repr(oracle)
            assert number_types(report) == number_types(oracle)

    def test_relabelled_results_share_the_searched_report(self):
        searched, relabelled = (
            ConvLayer(name, h=28, w=28, ci=64, co=64, kh=3, kw=3, padding=1)
            for name in ("searched", "relabelled")
        )
        mapper = Mapper(hw=case_study_hardware(), profile=SearchProfile.FAST, cache=MappingCache())
        first, second = mapper.search_model([searched, relabelled])
        assert isinstance(first.winner, batch.Winner)
        assert second.winner is first.winner
        assert second.layer is relabelled
        assert second.best is first.best
        assert second.best.layer is searched

    def test_sweeps_and_mappings_build_no_report(self, monkeypatch):
        def refuse(record):
            raise AssertionError("a winner report was built")

        monkeypatch.setattr(batch.Winner, "report", refuse)
        hw = build_hardware(2, 8, 16, 16)
        layers = alexnet()
        energy, cycles, _ = search._evaluate_point(hw, {"alexnet": layers}, SearchProfile.FAST)
        assert energy["alexnet"] > 0 and cycles["alexnet"] > 0
        results = Mapper(hw=hw, profile=SearchProfile.FAST, cache=MappingCache()).search_model(layers)
        assert all(isinstance(r.winner, batch.Winner) for r in results)
        assert [r.mapping for r in results]


class TestWinnerRecords:
    @given(search_case())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_records_hold_python_values_only(self, case):
        """No column, table or numpy scalar outlives the kernel call in a
        winner record."""
        layers, hw, tables, objective = case
        pack = CandidateTable.pack(tables)
        outcome = batch.search_batch(layers, hw, pack, objective=objective)
        for layer, record in zip(layers, outcome.records):
            if record is None:
                continue
            assert record.layer is layer
            for name in batch.Winner.__slots__:
                for value in walk(getattr(record, name)):
                    assert not isinstance(value, (np.ndarray, np.generic, CandidateTable)), name
            assert [type(value) for value in record.energy] == [float] * 8
            assert type(record.cycles) is int and type(record.o_l2_bytes) is int
            assert {type(value) for value in record.row + record.core} == {int}


def oracle_totals(hw, results):
    """Each field's :func:`math.fsum` and the cycle sum over the oracle's
    reports of ``results``' winning mappings."""
    reports = [evaluate_mapping(r.best.layer, hw, r.mapping) for r in results]
    energy = EnergyBreakdown(*(
        math.fsum(getattr(report.energy, name) for report in reports)
        for name in (f.name for f in fields(EnergyBreakdown))
    ))
    return energy, sum(report.cycles for report in reports)


class TestSweepTotals:
    @pytest.mark.parametrize("source", ["kernel", "scalar", "disk"])
    def test_point_totals_equal_the_oracle_sums(self, source, tmp_path, monkeypatch):
        """A sweep point's per-model totals, from winner records (or from
        the reports the scalar scan and the disk tier hand over), equal the
        per-field compensated sums of the oracle's reports bit for bit."""
        hw = build_hardware(2, 8, 16, 16)
        models = {"resnet50": resnet50(), "mobilenetv2": mobilenetv2()}
        profile = SearchProfile.MINIMAL
        if source == "scalar":
            monkeypatch.setenv(batch.BATCH_KERNEL_ENV, "0")
        if source == "disk":
            monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
            search._evaluate_point(hw, models, profile)  # fills the disk tier
        energy, cycles, (hits, misses) = search._evaluate_point(hw, models, profile)
        assert (misses == 0) is (source == "disk")
        for name, layers in models.items():
            results = Mapper(hw=hw, profile=profile, cache=MappingCache()).search_model(layers)
            expected, expected_cycles = oracle_totals(hw, results)
            breakdown, total_cycles, _ = model_cost([r.winner for r in results], hw)
            assert list(breakdown) == list(expected)
            assert energy[name] == expected.total_pj
            assert cycles[name] == total_cycles == expected_cycles
            assert type(cycles[name]) is int
