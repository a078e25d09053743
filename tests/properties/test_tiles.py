"""Tile-major candidate tables, and per-tile scoring against per-row scoring.

NN-Baton's temporal primitive pairs a tile with a channel- or
plane-priority order, and the rotating primitive only picks which shared
datatype rides the ring, so C3P's loop counts and working sets read the
tile alone; an order only decides which working set is critical at its
level (Section IV-B, Eq. 1-2).  The table builder and the kernel lean on
that split:

* every table the builder makes is tile-major: ``variants`` is the number
  of order pairs times the package's rotation count, each run of
  ``variants`` rows holds one distinct tile (the twelve
  :data:`~repro.core.space.TILE_COLUMNS`, the declared core tile and the
  spatial pair) and lists every order pair and rotation in
  :meth:`~repro.core.space.MappingSpace.candidates` order -- for every
  registered model's unique shapes on two machines under the three
  profiles, and for drawn dense, grouped and GEMM layers;
* scoring a table per tile equals scoring the same rows one by one
  (``variants`` = 1): every :class:`~repro.core.batch.C3PColumns` and
  :class:`~repro.core.batch.BatchResult` field in value and dtype, the
  winners, the ``evaluated``/``invalid`` counts and the reports by
  ``repr`` -- on one layer's table and a pack, on ring, mesh and switch,
  under both objectives.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import build_hardware, case_study_hardware, simba_like_hardware
from repro.arch.topology import Topology
from repro.core import batch
from repro.core.mapper import _shape_key
from repro.core.primitives import LoopOrder, RotationKind
from repro.core.space import (
    CANDIDATE_COLUMNS,
    TILE_COLUMNS,
    VARIANT_COLUMNS,
    CandidateTable,
    MappingSpace,
    SearchProfile,
)
from repro.workloads.layer import ConvLayer, matmul
from repro.workloads.registry import get_model, list_models

MAX_EXAMPLES = 25

TILE_ROWS = [CANDIDATE_COLUMNS.index(name) for name in TILE_COLUMNS]
VARIANT_ROWS = [CANDIDATE_COLUMNS.index(name) for name in VARIANT_COLUMNS]


@st.composite
def layers_of(draw, kind):
    """A ``"dense"``, ``"grouped"`` or ``"gemm"`` layer."""
    if kind == "gemm":
        return matmul(
            "tile_mm",
            m=draw(st.sampled_from([1, 8, 32, 128])),
            k=draw(st.sampled_from([16, 64, 256])),
            n=draw(st.sampled_from([16, 64, 256])),
            batch=draw(st.sampled_from([1, 1, 4])),
        )
    groups = 1 if kind == "dense" else draw(st.sampled_from([2, 4, 16]))
    kernel = draw(st.sampled_from([1, 3, 5]))
    return ConvLayer(
        name=f"tile_{kind}",
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
def machines(draw):
    return build_hardware(
        draw(st.sampled_from([1, 2, 4])),
        draw(st.sampled_from([1, 2, 4])),
        draw(st.sampled_from([4, 8])),
        draw(st.sampled_from([4, 8])),
        topology=draw(st.sampled_from([Topology.RING, Topology.MESH, Topology.SWITCH])),
    )


def variant_codes(space: MappingSpace, package) -> list[tuple[int, int, int, int]]:
    """The :data:`VARIANT_COLUMNS` of one tile's rows on ``package``, in
    :meth:`MappingSpace.candidates` order (order pair, then rotation)."""
    return [
        (
            pkg is LoopOrder.CHANNEL_PRIORITY, chp is LoopOrder.CHANNEL_PRIORITY,
            rotation is RotationKind.ACTIVATIONS, rotation is RotationKind.WEIGHTS,
        )
        for pkg, chp in space.orders()
        for rotation in space.rotations(package)
    ]


def assert_tile_major(space: MappingSpace, table: CandidateTable) -> None:
    variants = table.variants
    counts = {len(space.rotations(package)) for package, _ in table.pairs}
    assert len(counts) == 1
    assert variants == len(space.orders()) * counts.pop()
    assert len(table) % variants == 0
    n_tiles = len(table) // variants
    shape = (n_tiles, variants)
    tiles = table.rows[TILE_ROWS].reshape(len(TILE_COLUMNS), *shape)
    core = table.core.reshape(3, *shape)
    pair = table.pair.reshape(shape)
    assert (tiles == tiles[:, :, :1]).all()
    assert (core == core[:, :, :1]).all()
    assert (pair == pair[:, :1]).all()
    # One run per tile: no two runs share the tile columns.
    assert len(np.unique(tiles[:, :, 0], axis=1).T) == n_tiles
    codes = np.array(
        [variant_codes(space, package) for package, _ in table.pairs], dtype=np.int64
    )
    expected = codes[pair[:, 0]]  # (tile, variant, column)
    assert np.array_equal(
        table.rows[VARIANT_ROWS].reshape(len(VARIANT_COLUMNS), *shape), expected.transpose(2, 0, 1)
    )


def unique_shapes(model):
    shapes = {}
    for layer in get_model(model):
        shapes.setdefault(_shape_key(layer), layer)
    return list(shapes.values())


class TestTileMajorTables:
    @pytest.mark.parametrize("machine", [case_study_hardware, simba_like_hardware])
    @pytest.mark.parametrize("profile", list(SearchProfile))
    def test_every_registered_table_is_tile_major(self, machine, profile):
        space = MappingSpace(machine(), profile)
        for model in list_models():
            for layer in unique_shapes(model):
                assert_tile_major(space, space.unique_candidates(layer, count=False))

    @given(
        st.sampled_from(["dense", "grouped", "gemm"]).flatmap(layers_of),
        machines(),
        st.sampled_from(list(SearchProfile)),
    )
    @settings(max_examples=4 * MAX_EXAMPLES, deadline=None)
    def test_drawn_tables_are_tile_major(self, layer, hw, profile):
        space = MappingSpace(hw, profile)
        assert_tile_major(space, space.unique_candidates(layer, count=False))


def row_by_row(table: CandidateTable) -> CandidateTable:
    """``table``'s rows, scored one by one (``variants`` = 1)."""
    return CandidateTable(
        table.rows, table.core, table.pair, table.pairs, table.segment, table.deduped
    )


def assert_same_value(name, tiled, rows):
    """Equal values of one type, arrays of one dtype, recursing into tuples
    and dicts."""
    assert type(tiled) is type(rows), name
    if isinstance(rows, np.ndarray):
        assert tiled.dtype == rows.dtype, name
        assert np.array_equal(tiled, rows), name
    elif isinstance(rows, tuple):
        assert len(tiled) == len(rows), name
        for index, (a, b) in enumerate(zip(tiled, rows)):
            assert_same_value(f"{name}[{index}]", a, b)
    elif isinstance(rows, dict):
        assert tiled.keys() == rows.keys(), name
        for key in rows:
            assert_same_value(f"{name}[{key}]", tiled[key], rows[key])
    else:
        assert tiled == rows, name


def assert_same_fields(cls, tiled, rows, skip=()):
    for f in fields(cls):
        if f.name not in skip:
            assert_same_value(f.name, getattr(tiled, f.name), getattr(rows, f.name))


def assert_same_scores(layers, hw, table):
    """``table`` scored per tile and row by row: equal columns, results,
    outcomes and reports."""
    flat = row_by_row(table)
    tiled_columns = batch.c3p_columns(layers, hw, table)
    row_columns = batch.c3p_columns(layers, hw, flat)
    assert_same_fields(batch.C3PColumns, tiled_columns, row_columns)
    assert_same_fields(
        batch.BatchResult,
        batch.score_columns(tiled_columns, hw, table),
        batch.score_columns(row_columns, hw, flat),
        skip=("candidates",),
    )
    for objective in sorted(batch.BATCH_OBJECTIVES):
        tiled = batch.search_batch(layers, hw, table, objective)
        rows = batch.search_batch(layers, hw, flat, objective)
        assert tiled is not None and rows is not None
        assert tiled == rows
        assert (tiled.evaluated, tiled.invalid) == (rows.evaluated, rows.invalid)
        assert [repr(r) for r in tiled.reports] == [repr(r) for r in rows.reports]


@st.composite
def scoring_case(draw):
    """1-4 layers of one kind on one machine, with each layer's table."""
    kind = draw(st.sampled_from(["dense", "grouped", "gemm"]))
    layers = draw(st.lists(layers_of(kind), min_size=1, max_size=4))
    hw = draw(machines())
    space = MappingSpace(hw, draw(st.sampled_from(list(SearchProfile))))
    return layers, hw, [space.unique_candidates(layer, count=False) for layer in layers]


class TestPerTileScoring:
    @given(scoring_case())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_one_table_scores_per_tile_as_per_row(self, case):
        layers, hw, tables = case
        for layer, table in zip(layers, tables):
            assert_same_scores(layer, hw, table)

    @given(scoring_case())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_pack_scores_per_tile_as_per_row(self, case):
        layers, hw, tables = case
        pack = CandidateTable.pack(tables)
        assert pack.variants == math.gcd(*(table.variants for table in tables))
        assert_same_scores(layers, hw, pack)
