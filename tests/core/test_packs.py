"""The mapper's packed search and the sweep's shared candidate tables.

``Mapper.search_model`` groups a model's uncached shapes by candidate-set
key, builds each group's table once, scores the tables in packs and counts
each layer's search when its lookup uses it; sweeps hand their mappers one
:class:`~repro.core.mapper.SharedTables`, which also holds the C3P columns
of the packs it serves again.  These tests hold both to what
layer-by-layer searches on fresh tables give: the same winners, the same
counters, and the same ``InvalidMappingError`` after the same counts.
"""

import weakref
from dataclasses import replace

import pytest

from repro import obs
from repro.arch.config import KB, build_hardware, case_study_hardware
from repro.arch.technology import DEFAULT_TECHNOLOGY
from repro.arch.topology import Topology
from repro.core import batch
from repro.core.cost import InvalidMappingError
from repro.core.mapper import PACK_ROWS, Mapper, SharedTables, _shape_key
from repro.core.space import MappingSpace, SearchProfile
from repro.workloads.layer import ConvLayer
from repro.workloads.registry import get_model

#: Counters a search_model run and its layer-by-layer twin must share.
SEARCH_COUNTERS = (
    "mapper.candidates.evaluated",
    "mapper.candidates.invalid",
    "mapper.searches.fresh",
    "mapper.batch.searches",
    "mapper.batch.candidates",
    "mapper.batch.chunks",
    "space.candidates.deduped",
    "cache.hits",
    "cache.misses",
    "cache.puts",
)


def run(fn):
    """``fn()``'s value (or the error it raised) and the metrics it recorded."""
    recorder = obs.MetricsRecorder()
    with obs.use(recorder):
        try:
            value = fn()
        except InvalidMappingError as exc:
            value = exc
    return value, recorder.metrics


def counters(metrics):
    values = metrics.counters()
    return {name: values.get(name, 0) for name in SEARCH_COUNTERS}


def layer_by_layer(hw, profile, layers, tables=None):
    mapper = Mapper(hw=hw, profile=profile, tables=tables)
    return [mapper.search_layer(layer) for layer in layers]


def summary(results):
    return [
        (r.layer.name, r.mapping, r.best.energy_pj, r.best.cycles,
         r.candidates_evaluated, r.candidates_invalid)
        for r in results
    ]


class TestPackedSearch:
    @pytest.mark.parametrize(
        "model,profile",
        [("mobilenetv2", SearchProfile.FAST), ("resnet50", SearchProfile.MINIMAL),
         ("bertbase", SearchProfile.MINIMAL)],
    )
    def test_search_model_equals_layer_by_layer(self, model, profile):
        """Dense and depthwise packs, big tables scored alone: the packed
        search gives every layer its own search's answer and counts."""
        layers = get_model(model)
        hw = case_study_hardware()
        packed, packed_metrics = run(
            lambda: Mapper(hw=hw, profile=profile).search_model(layers)
        )
        single, single_metrics = run(lambda: layer_by_layer(hw, profile, layers))
        assert summary(packed) == summary(single)
        assert counters(packed_metrics) == counters(single_metrics)
        histogram = packed_metrics.histogram_stats("mapper.search_ms")
        assert histogram["count"] == counters(packed_metrics)["mapper.searches.fresh"]

    def test_packs_take_fewer_kernel_calls(self, monkeypatch):
        calls = []
        original = batch.search_batch

        def counting(*args, **kwargs):
            calls.append(len(args[2]))
            return original(*args, **kwargs)

        monkeypatch.setattr(batch, "search_batch", counting)
        layers = get_model("resnet50")
        Mapper(hw=case_study_hardware(), profile=SearchProfile.MINIMAL).search_model(layers)
        shapes = len({(l.h, l.w, l.ci, l.co, l.kh, l.kw, l.stride, l.padding) for l in layers})
        assert len(calls) < shapes / 4
        assert max(calls) <= PACK_ROWS

    def test_map_builds_one_table_per_key(self, monkeypatch):
        """A map builds each candidate-set key's table once, for every
        shape of its output cube and Cc0 tile, and answers and counts as
        layer-by-layer searches do."""
        builds = []
        original = MappingSpace.unique_candidates

        def counting(space, layer, count=True):
            builds.append(space.candidate_set_key(layer))
            return original(space, layer, count)

        monkeypatch.setattr(MappingSpace, "unique_candidates", counting)
        layers = get_model("resnet50")
        hw = case_study_hardware()
        packed, packed_metrics = run(
            lambda: Mapper(hw=hw, profile=SearchProfile.FAST).search_model(layers)
        )
        space = MappingSpace(hw, SearchProfile.FAST)
        keys = list(dict.fromkeys(space.candidate_set_key(layer) for layer in layers))
        shapes = {_shape_key(layer) for layer in layers}
        assert (len(keys), len(shapes)) == (10, 21)
        assert builds == keys
        builds.clear()
        single, single_metrics = run(lambda: layer_by_layer(hw, SearchProfile.FAST, layers))
        assert len(builds) == len(shapes)
        assert summary(packed) == summary(single)
        assert [repr(r.best) for r in packed] == [repr(r.best) for r in single]
        assert counters(packed_metrics) == counters(single_metrics)

    def test_map_holds_one_big_table_at_a_time(self, monkeypatch):
        """Each table of PACK_ROWS rows or more is released before the next
        table is built, so a map never holds two of them at once.  A table
        is watched through its row array, which nothing else keeps."""
        big = []
        alive = []
        original = MappingSpace.unique_candidates

        def tracking(space, layer, count=True):
            alive.append(sum(ref() is not None for ref in big))
            table = original(space, layer, count)
            if len(table) >= PACK_ROWS:
                big.append(weakref.ref(table.rows))
            return table

        monkeypatch.setattr(MappingSpace, "unique_candidates", tracking)
        Mapper(hw=case_study_hardware(), profile=SearchProfile.EXHAUSTIVE).search_model(
            get_model("resnet50")
        )
        assert len(big) > 1
        assert alive == [0] * len(alive)
        assert all(ref() is None for ref in big)

    def test_invalid_layer_raises_after_the_same_counts(self):
        """A layer with no legal mapping raises after counting what a
        layer-by-layer search counts before it raises -- nothing of the
        layers looked up after it, although their tables were scored."""
        self.check_invalid_layer_counts()

    def test_invalid_layer_raises_after_the_same_counts_in_chunks(self, monkeypatch):
        """The same with every table scored in chunks of 8 rows: the chunks
        of the layers after the failing one are not counted either."""
        monkeypatch.setenv(batch.BATCH_MAX_BYTES_ENV, "8192")
        counts = self.check_invalid_layer_counts()
        assert counts["mapper.batch.chunks"] > 0

    @staticmethod
    def check_invalid_layer_counts():
        # A 1024-wide kernel row cannot fit the 800 B A-L1 at any tiling.
        hw = build_hardware(2, 4, 8, 8)
        impossible = ConvLayer(
            "impossible", h=1, w=1024, ci=8, co=8, kh=1, kw=1024, stride=1, padding=0
        )
        fine = [ConvLayer(f"ok{i}", h=14, w=14, ci=8 * i, co=16, kh=3, kw=3, padding=1)
                for i in (1, 2, 3)]
        layers = [fine[0], impossible, fine[1], fine[2]]
        packed, packed_metrics = run(
            lambda: Mapper(hw=hw, profile=SearchProfile.FAST).search_model(layers)
        )

        def until_failure():
            mapper = Mapper(hw=hw, profile=SearchProfile.FAST)
            for layer in layers:
                mapper.search_layer(layer)

        single, single_metrics = run(until_failure)
        assert isinstance(packed, InvalidMappingError)
        assert str(packed) == str(single)
        assert counters(packed_metrics) == counters(single_metrics)
        assert counters(packed_metrics)["mapper.searches.fresh"] == 2
        assert counters(packed_metrics)["space.candidates.deduped"] > 0
        return counters(packed_metrics)


def sweep_machines():
    """Three machines: the last differs from the first two in A-L1 only."""
    base = build_hardware(2, 4, 8, 8)
    variant = replace(base.memory, w_l1_bytes=base.memory.w_l1_bytes * 4, a_l2_bytes=256 * KB)
    other = replace(base.memory, a_l1_bytes=base.memory.a_l1_bytes * 2)
    return [base, build_hardware(2, 4, 8, 8, memory=variant), build_hardware(2, 4, 8, 8, memory=other)]


def cc0_tile(space, layer):
    return space._cc0_square_tile(layer, space._max_pixels())


def lookup(tables, space, layer):
    """``layer``'s table from ``tables`` under its key on ``space``."""
    return tables.table(space, layer, space.candidate_set_key(layer))


class TestSharedTables:
    def test_sweep_shares_tables_and_counts_like_fresh_ones(self, monkeypatch):
        """A W-L1 and A-L2 change rebuilds no table; an A-L1 change rebuilds
        exactly the layers whose Cc0 tile it moves; layers of one output
        cube and Cc0 tile share one build.  Results and counters equal
        fresh mappers'."""
        builds = []
        original = MappingSpace.unique_candidates

        def counting(space, layer, count=True):
            builds.append((space.hw.memory.a_l1_bytes, layer.name))
            return original(space, layer, count)

        monkeypatch.setattr(MappingSpace, "unique_candidates", counting)
        layers = get_model("alexnet")
        machines = sweep_machines()
        tables = SharedTables()
        shared, shared_metrics = run(lambda: [
            Mapper(hw=hw, profile=SearchProfile.MINIMAL, tables=tables).search_model(layers)
            for hw in machines
        ])
        first, _, last = (MappingSpace(hw, SearchProfile.MINIMAL) for hw in machines)
        moved = [layer.name for layer in layers if cc0_tile(first, layer) != cc0_tile(last, layer)]
        assert moved == ["conv1", "conv2"]
        # conv3 and conv4 (13 x 13 x 384), and fc6 and fc7 (1 x 1 x 4096),
        # share an output cube and a Cc0 tile.
        built = ["conv1", "conv2", "conv3", "conv5", "fc6", "fc8"]
        assert builds == [(machines[0].memory.a_l1_bytes, name) for name in built] + [
            (machines[2].memory.a_l1_bytes, name) for name in moved
        ]
        builds.clear()
        fresh, fresh_metrics = run(lambda: [
            Mapper(hw=hw, profile=SearchProfile.MINIMAL).search_model(layers)
            for hw in machines
        ])
        assert builds == [(hw.memory.a_l1_bytes, name) for hw in machines for name in built]
        assert [summary(r) for r in shared] == [summary(r) for r in fresh]
        assert counters(shared_metrics) == counters(fresh_metrics)

    def test_holds_only_the_last_key_and_small_tables(self):
        """Each output cube holds the small table of its last key; another
        cube's key change leaves it alone."""
        layer = ConvLayer("c", h=56, w=56, ci=64, co=256, kh=3, kw=3, padding=1)
        other = ConvLayer("d", h=28, w=28, ci=64, co=64, kh=1, kw=1)
        hw = case_study_hardware()
        tables = SharedTables()
        small = MappingSpace(hw, SearchProfile.MINIMAL)
        big = MappingSpace(hw, SearchProfile.EXHAUSTIVE)
        first = lookup(tables, small, layer)
        kept = lookup(tables, small, other)
        assert len(first) < PACK_ROWS
        assert lookup(tables, small, layer) is first
        table = lookup(tables, big, layer)
        assert len(table) >= PACK_ROWS
        assert lookup(tables, big, layer) is not table  # too big to hold
        assert lookup(tables, small, layer) is not first  # the key changed
        assert lookup(tables, small, other) is kept


class TestHeldColumns:
    """SharedTables holds a pack's C3P columns once its tables were served
    again, and hands them only to layers of the same shapes on machines
    with the same package and technology."""

    layer = ConvLayer("c", h=28, w=28, ci=64, co=64, kh=3, kw=3, padding=1)
    shapes = (_shape_key(layer),)

    def served_twice(self, tables, hw):
        space = MappingSpace(hw, SearchProfile.MINIMAL)
        table = lookup(tables, space, self.layer)
        assert lookup(tables, space, self.layer) is table
        return table

    def test_no_columns_for_a_table_served_once(self):
        hw = build_hardware(2, 4, 8, 8)
        tables = SharedTables()
        table = lookup(tables, MappingSpace(hw, SearchProfile.MINIMAL), self.layer)
        tables.hold((table,), self.shapes, hw, table, batch.c3p_columns(self.layer, hw, table))
        assert tables.columns((table,), self.shapes, hw) is None

    def test_columns_dropped_when_a_member_table_is_replaced(self):
        hw = build_hardware(2, 4, 8, 8)
        tables = SharedTables()
        table = self.served_twice(tables, hw)
        other = self.served_twice(tables, hw.with_memory(replace(hw.memory, a_l1_bytes=400)))
        assert other is not table  # the smaller A-L1 moves the layer's Cc0 tile
        columns = batch.c3p_columns(self.layer, hw, other)
        tables.hold((other,), self.shapes, hw, other, columns)
        assert tables.columns((other,), self.shapes, hw) == (other, columns)
        replaced = lookup(tables, MappingSpace(hw, SearchProfile.MINIMAL), self.layer)
        assert replaced is not other
        assert tables.columns((other,), self.shapes, hw) is None

    def test_columns_stay_with_their_package_and_technology(self):
        hw = build_hardware(2, 4, 8, 8)
        tables = SharedTables()
        table = self.served_twice(tables, hw)
        columns = batch.c3p_columns(self.layer, hw, table)
        tables.hold((table,), self.shapes, hw, table, columns)
        memory = replace(hw.memory, w_l1_bytes=144 * KB, a_l2_bytes=256 * KB, o_l2_bytes=16 * KB)
        assert tables.columns((table,), self.shapes, hw.with_memory(memory)) == (table, columns)
        for other in (
            build_hardware(2, 4, 8, 4, memory=hw.memory),  # vector size
            build_hardware(2, 4, 8, 8, memory=hw.memory, topology=Topology.SWITCH),
            build_hardware(2, 4, 8, 8, memory=hw.memory,
                           tech=replace(DEFAULT_TECHNOLOGY, frequency_mhz=250.0)),
        ):
            space = MappingSpace(other, SearchProfile.MINIMAL)
            assert lookup(tables, space, self.layer) is table  # one table ...
            assert tables.columns((table,), self.shapes, other) is None  # ... other columns

    def test_columns_stay_with_their_layer_shapes(self, monkeypatch):
        """Two layers of one output cube and Cc0 tile, on machines of one
        package and technology: they share a table, and each gets its own
        columns, as fresh mappers' answers require."""
        held = []
        original = batch.search_batch

        def recording(*args, columns=None, **kwargs):
            held.append(columns is not None)
            return original(*args, columns=columns, **kwargs)

        monkeypatch.setattr(batch, "search_batch", recording)
        narrow = replace(self.layer, name="narrow", ci=32)
        hw = build_hardware(2, 4, 8, 8)
        machines = [hw, hw.with_memory(replace(hw.memory, w_l1_bytes=144 * KB))]
        space = MappingSpace(hw, SearchProfile.MINIMAL)
        assert space.candidate_set_key(narrow) == space.candidate_set_key(self.layer)
        tables = SharedTables()
        shared = [
            Mapper(hw=machine, profile=SearchProfile.MINIMAL, tables=tables).search_layer(layer)
            for machine in machines
            for layer in (self.layer, narrow)
        ]
        # The narrow layer's first search holds its columns; the wide
        # layer's second search must not be served them.
        assert held == [False, False, False, True]
        held.clear()
        fresh = [
            Mapper(hw=machine, profile=SearchProfile.MINIMAL).search_layer(layer)
            for machine in machines
            for layer in (self.layer, narrow)
        ]
        assert held == [False] * 4
        assert summary(shared) == summary(fresh)
        assert [repr(r.best) for r in shared] == [repr(r.best) for r in fresh]

    def test_sweep_scores_held_columns_like_fresh_searches(self, monkeypatch):
        """Machines that share tables but alternate package and technology:
        each (package, technology) holds columns from its first visit whose
        tables were served again, and scores them from its next visit on;
        every answer and counter equals a fresh mapper's."""
        held = []
        original = batch.search_batch

        def recording(*args, columns=None, **kwargs):
            held.append(columns is not None)
            return original(*args, columns=columns, **kwargs)

        monkeypatch.setattr(batch, "search_batch", recording)
        base = build_hardware(2, 4, 8, 8)
        mesh = build_hardware(2, 4, 8, 8, topology=Topology.MESH)
        slow = build_hardware(2, 4, 8, 8, tech=replace(DEFAULT_TECHNOLOGY, frequency_mhz=250.0))
        machines = [
            hw.with_memory(replace(hw.memory, w_l1_bytes=w_l1 * KB))
            for w_l1 in (2, 18, 144)
            for hw in (base, mesh, slow)
        ]
        layers = get_model("alexnet")
        tables = SharedTables()
        shared, shared_metrics = run(lambda: [
            Mapper(hw=hw, profile=SearchProfile.MINIMAL, tables=tables).search_model(layers)
            for hw in machines
        ])
        # AlexNet's eight layers make one pack, over six tables (conv3/conv4
        # and fc6/fc7 each share one).  base builds the tables; mesh and
        # slow hold columns at their first visit, base at its second; the
        # five visits after that only score.
        assert held == [False] * 4 + [True] * 5
        fresh, fresh_metrics = run(lambda: [
            Mapper(hw=hw, profile=SearchProfile.MINIMAL).search_model(layers)
            for hw in machines
        ])
        assert [summary(r) for r in shared] == [summary(r) for r in fresh]
        assert [[r.best for r in results] for results in shared] == [
            [r.best for r in results] for results in fresh
        ]
        assert counters(shared_metrics) == counters(fresh_metrics)
