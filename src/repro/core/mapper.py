"""The post-design flow: per-layer exhaustive mapping search (Section IV-D).

Given a fixed hardware configuration, the mapper enumerates the mapping space
(:mod:`repro.core.space`), evaluates every legal candidate with the C3P cost
engine and reports the energy-optimal strategy layer by layer -- "NN-Baton
provides a distinct mapping strategy layer-wise to minimize the overall
energy cost" (Section VI-A1).

Layers with identical shape share a mapping, so models with repeated blocks
(ResNet-50's bottlenecks) search each unique shape once.  The sharing is
backed by :class:`repro.core.cache.MappingCache`, which callers can inject
to reuse results across ``Mapper`` instances and (with a disk store) across
runs.

A map runs in one process; only a sweep fans out, over its design points
(:mod:`repro.core.parallel`).  A model's uncached shapes are grouped by
candidate-set key, so the shapes that share an output cube and a Cc0 tile
share one table build, and scored in *packs*: consecutive small candidate
tables concatenated up to :data:`PACK_ROWS` rows and scored by one
batch-kernel call, which returns each winner's values as a
:class:`~repro.core.batch.Winner` record.  A result builds its layer's full
report only when something reads :attr:`LayerMappingResult.best`; a sweep
sums each model's energy and cycles from the records.  A sweep can also
hand its mappers one :class:`SharedTables`, so the machines that give a
layer one candidate set build its table once, and the machines that serve
a pack again only score its held C3P columns against their buffer sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from repro import obs
from repro.arch.config import HardwareConfig
from repro.core import batch
from repro.core.cache import MappingCache, cache_key, rebuild_record, shape_text
from repro.core.cost import CostReport, InvalidMappingError, evaluate_mapping
from repro.core.mapping import Mapping
from repro.core.serialize import hardware_digest, mapping_to_dict
from repro.core.space import CandidateTable, MappingSpace, SearchProfile
from repro.workloads.layer import ConvLayer

#: Layers whose cache-key shape text :func:`_shape_text` keeps; a Fig. 15
#: sweep round meets about a hundred.
_KEY_MEMO_SIZE = 1024

#: Rows a pack of small candidate tables grows to before the kernel scores
#: it.  On MINIMAL tables of a 2-8-16-16 machine a kernel call, the copy of
#: its winner records included, costs about 0.24 ms at 36 rows (one
#: layer), 0.46 ms at 512 (17 layers) and 0.83 ms at 1,488 (44 layers),
#: with about 600 B of traced peak memory per row; scoring held C3P
#: columns instead takes 0.08, 0.14 and 0.27 ms.  Packing about 15 MINIMAL
#: tables per call removes most of the per-call cost, while larger packs
#: gain little time and raise peak memory.  A table of this many rows or
#: more is scored alone, as soon as it is built.
PACK_ROWS = 512

#: Objective functions the mapper can minimize.
Objective = Callable[[CostReport, HardwareConfig], float]


def energy_objective(report: CostReport, hw: HardwareConfig) -> float:
    """Minimize total layer energy (the paper's default)."""
    return report.energy_pj


def edp_objective(report: CostReport, hw: HardwareConfig) -> float:
    """Minimize the layer's energy-delay product."""
    return report.edp(hw)


@dataclass(slots=True)
class LayerMappingResult:
    """The optimal mapping of one layer plus search statistics.

    ``winner`` is the batch kernel's :class:`~repro.core.batch.Winner`
    record, or a finished :class:`CostReport` from the scalar oracle or
    the disk tier.  Either holds the winner's ``energy`` components and
    ``cycles``, all a model total reads
    (:func:`~repro.core.cost.model_cost`).  :attr:`best` builds a record's
    report on first read, for the layer the search ran on, and every
    result relabelled from that search shares it.
    """

    layer: ConvLayer
    winner: batch.Winner | CostReport
    candidates_evaluated: int
    candidates_invalid: int

    @property
    def best(self) -> CostReport:
        """The winner's full report."""
        winner = self.winner
        return winner.report() if isinstance(winner, batch.Winner) else winner

    @property
    def mapping(self) -> Mapping:
        """The winning mapping (read without building the report)."""
        return self.winner.mapping


def _shape_key(layer: ConvLayer) -> tuple:
    """Layers with equal geometry share an optimal mapping."""
    return (
        layer.h,
        layer.w,
        layer.ci,
        layer.co,
        layer.kh,
        layer.kw,
        layer.stride,
        layer.padding,
        layer.groups,
    )


@lru_cache(maxsize=_KEY_MEMO_SIZE)
def _shape_text(layer: ConvLayer) -> str:
    """The shape half of ``layer``'s cache keys, formatted once per layer."""
    return shape_text(_shape_key(layer))


@dataclass(slots=True)
class _Search:
    """One layer's fresh search, counted when :meth:`Mapper._lookup` uses it.

    Attributes:
        winner: The kernel's winner record or the scalar scan's report,
            or ``None`` when no candidate is legal.
        evaluated: Legal candidates.
        invalid: Illegal candidates.
        rows: Table rows the batch kernel scored (``None`` on the scalar path).
        deduped: Congruent candidates the layer's table dropped (0 when the
            scalar enumeration counted its own dedup).
        chunks: Kernel passes of the call that scored the layer (a pack
            never exceeds one chunk; 0 on the scalar path).
        ms: The layer's search time: its table build plus its row share of
            the kernel call (or the whole scalar scan).
    """

    winner: batch.Winner | CostReport | None
    evaluated: int
    invalid: int
    rows: int | None
    deduped: int
    chunks: int
    ms: float


class SharedTables:
    """Candidate tables shared by the machines of a sweep, one per output
    cube, and the C3P columns of the packs it serves again.

    A layer's table depends only on what
    :meth:`~repro.core.space.MappingSpace.candidate_set_key` names for it:
    its output extents HO x WO x CO and, through its Cc0 tile, its input
    channels, kernel and stride, A-L1, the vector size and the data width;
    W-L1 and A-L2 do not enter it at all.  Each output cube holds the table
    of the key it was last built for: a lookup under another key rebuilds
    it and replaces it.  An exhaustive sweep scans A-L1 in ascending order
    within each (computation config, O-L1) group, and the Cc0 tile never
    shrinks as A-L1 grows, so a table is rebuilt only when two layers of
    one cube want different Cc0 tiles.  No table of :data:`PACK_ROWS` rows
    or more is held, so a sweep of large tables builds and drops them as a
    map does.

    A pack's :class:`~repro.core.batch.C3PColumns` read only its tables,
    their layers' shapes, the package and the technology, so the machines
    that serve one pack share them: the first kernel call that scores a
    pack all of whose tables were served again computes them and holds
    them with the concatenated pack (:meth:`hold`), and the later calls
    only score them against their buffer sizes (:meth:`columns`).  One
    table serves layers of different input channels, kernels, strides,
    paddings and groups, which the columns read, so the layers' shapes are
    part of the columns' key.  Guided searches rarely meet one pack twice,
    so they hold almost nothing.  Replacing a table drops the columns of
    every pack that holds it.
    """

    def __init__(self) -> None:
        self._tables: dict[tuple, tuple[tuple, CandidateTable]] = {}
        self._served: set[CandidateTable] = set()  # held tables served again
        self._columns: dict[tuple, tuple[CandidateTable, batch.C3PColumns]] = {}

    def table(self, space: MappingSpace, layer: ConvLayer, key: tuple) -> CandidateTable:
        """``layer``'s table on ``space``, whose ``candidate_set_key(layer)``
        is ``key``: built unless the layer's output cube holds it under the
        same key."""
        cube = (layer.ho, layer.wo, layer.co)
        held = self._tables.get(cube)
        if held is not None:
            if held[0] == key:
                self._served.add(held[1])
                return held[1]
            self._drop(cube)
        table = space.unique_candidates(layer, count=False)
        if len(table) < PACK_ROWS:
            self._tables[cube] = (key, table)
        return table

    def _drop(self, cube: tuple) -> None:
        """Forget ``cube``'s table and the columns of every pack holding it."""
        _, table = self._tables.pop(cube)
        if table in self._served:  # no held pack has a table served once
            self._served.remove(table)
            self._columns = {
                key: held
                for key, held in self._columns.items()
                if all(member is not table for member in key[0])
            }

    def columns(
        self,
        tables: tuple[CandidateTable, ...],
        shapes: tuple[tuple, ...],
        hw: HardwareConfig,
    ) -> tuple[CandidateTable, batch.C3PColumns] | None:
        """The held pack of ``tables`` and its columns on layers of
        ``shapes`` (each one's ``_shape_key``) and on ``hw``'s package and
        technology, if any."""
        return self._columns.get((tables, shapes, hw.package, hw.tech))

    def hold(
        self,
        tables: tuple[CandidateTable, ...],
        shapes: tuple[tuple, ...],
        hw: HardwareConfig,
        pack: CandidateTable,
        columns: batch.C3PColumns | None,
    ) -> None:
        """Hold ``pack`` (``tables`` concatenated, or the one table) and its
        ``columns`` if every one of ``tables`` was served again (``None``,
        from a chunked call, holds nothing)."""
        if columns is not None and all(table in self._served for table in tables):
            self._columns[tables, shapes, hw.package, hw.tech] = (pack, columns)


@dataclass
class Mapper:
    """Exhaustive per-layer mapping search on one hardware instance.

    Attributes:
        hw: The fixed hardware configuration.
        profile: Mapping-space pruning profile.
        objective: :func:`energy_objective` (the default) or
            :func:`edp_objective`.  Results are cached and batch-scored
            under the function's name, so no other callable is accepted.
        cache: Mapping cache; injected instances are shared across mappers,
            the default honours ``REPRO_CACHE_DIR`` for an on-disk store.
        tables: Candidate tables shared with other mappers of a sweep
            (``None``: build each table and drop it once scored).
    """

    hw: HardwareConfig
    profile: SearchProfile = SearchProfile.EXHAUSTIVE
    objective: Objective = field(default=energy_objective)
    cache: MappingCache | None = None
    tables: SharedTables | None = None

    def __post_init__(self) -> None:
        # Identity, not name: a lookalike callable would share the real
        # objective's cache key and be served its winners.
        if self.objective not in (energy_objective, edp_objective):
            raise ValueError(
                "objective must be energy_objective or edp_objective, "
                f"got {self.objective!r}"
            )
        self._space = MappingSpace(hw=self.hw, profile=self.profile)
        if self.cache is None:
            self.cache = MappingCache.from_env()
        self._hw_digest = hardware_digest(self.hw)
        self._objective_name = self.objective.__name__

    def _key(self, layer: ConvLayer) -> str:
        """The cache key of one layer on this (hw, profile, objective)."""
        return cache_key(
            _shape_text(layer),
            self._hw_digest,
            self.profile.value,
            self._objective_name,
        )

    def _relabel(self, cached: LayerMappingResult, layer: ConvLayer) -> LayerMappingResult:
        """A cached result presented under the asking layer's name."""
        if cached.layer.name == layer.name:
            return cached
        return LayerMappingResult(
            layer=layer,
            winner=cached.winner,
            candidates_evaluated=cached.candidates_evaluated,
            candidates_invalid=cached.candidates_invalid,
        )

    def _rebuild(self, record: dict, layer: ConvLayer) -> LayerMappingResult | None:
        """Turn a disk record back into a result (one cost-model call).

        A record missing any required key is a cache miss, not a zero: a
        legacy record without ``evaluated``/``invalid`` would otherwise
        resurface with fabricated search statistics and under-report
        ``mapper.candidates.evaluated`` forever after a format change.
        """
        if not all(key in record for key in ("mapping", "evaluated", "invalid")):
            return None
        best = rebuild_record(record, layer, self.hw)
        if best is None:
            return None
        return LayerMappingResult(
            layer=layer,
            winner=best,
            candidates_evaluated=int(record["evaluated"]),
            candidates_invalid=int(record["invalid"]),
        )

    def search_layer(self, layer: ConvLayer) -> LayerMappingResult:
        """Find the optimal mapping of one layer.

        Raises:
            InvalidMappingError: If no candidate is legal (a structurally
                impossible layer/hardware pair).
        """
        return self._lookup(layer, self._key(layer), {})

    def _lookup(
        self, layer: ConvLayer, key: str, searched: dict[str, _Search]
    ) -> LayerMappingResult:
        """Look ``layer`` up under ``key``; on a miss, take its search from
        ``searched`` (by cache key) or search afresh, and count it.

        A miss searches afresh when nothing searched it ahead: under
        :meth:`search_layer`, with the kernel off, or for a disk record
        that ``cache.contains`` reported but that no longer rebuilds.
        """
        cached = self.cache.get(key, rebuild=lambda rec: self._rebuild(rec, layer))
        if cached is not None:
            return self._relabel(cached, layer)

        found = searched.get(key)
        if found is None:
            found = self._search([layer])[0]
        obs.count("mapper.candidates.evaluated", found.evaluated)
        obs.count("mapper.candidates.invalid", found.invalid)
        obs.count("mapper.searches.fresh")
        obs.histogram("mapper.search_ms", found.ms)
        if found.rows is not None:
            obs.count("mapper.batch.searches")
            obs.count("mapper.batch.candidates", found.rows)
        if found.chunks > 1:
            obs.count("mapper.batch.chunks", found.chunks)
        if found.deduped:
            obs.count("space.candidates.deduped", found.deduped)
        if found.winner is None:
            raise InvalidMappingError(
                f"no legal mapping for layer {layer.name!r} on {self.hw.label()}"
            )
        result = LayerMappingResult(
            layer=layer,
            winner=found.winner,
            candidates_evaluated=found.evaluated,
            candidates_invalid=found.invalid,
        )
        self.cache.put(
            key,
            result,
            record=lambda: {
                "mapping": mapping_to_dict(result.mapping),
                "evaluated": result.candidates_evaluated,
                "invalid": result.candidates_invalid,
            },
        )
        return result

    def _search(self, layers: list[ConvLayer]) -> list[_Search]:
        """Fresh searches of distinct layer shapes, in order (cache-oblivious).

        The struct-of-arrays batch kernel (:mod:`repro.core.batch`) scores
        the layers' candidate tables when it can guarantee bit-identity
        with the scalar loop (``REPRO_BATCH_KERNEL`` not opted out, values
        in the int64-exact range).  The layers are grouped by
        :meth:`~repro.core.space.MappingSpace.candidate_set_key`, in order
        of first occurrence, and each group's table is built (or taken from
        :attr:`tables`) once, its build time charged to the group's first
        layer: shapes of one output cube that differ in input channels,
        kernel, stride, padding or groups share it when their Cc0 tiles
        agree.  Tables below :data:`PACK_ROWS` rows (or the
        ``REPRO_BATCH_MAX_BYTES`` chunk, if smaller) are packed in group
        order, dense and grouped layers apart, and each pack is scored by
        one kernel call; a larger table is scored alone for each of its
        layers and released before the next group's table is built, so a
        map holds one at a time.  Each segment's winner is its own, so the
        grouping cannot change an answer.  The kernel call returns each
        winner's :class:`~repro.core.batch.Winner` record, copied out of
        its columns; its report waits for a reader.  Otherwise the scalar
        strict-``<`` scan of :meth:`_scalar_search` is the path -- it
        stays the golden oracle either way (see
        ``tests/properties/test_batch_kernel.py`` and
        ``tests/properties/test_winner_reports.py``).

        The searches are counted when :meth:`_lookup` uses them (only the
        scalar enumeration's dedup, with the kernel off, is counted here),
        so a model whose layer has no legal mapping counts what a
        layer-by-layer search would have before it raises.
        """
        if not layers:
            return []
        found: dict[int, _Search] = {}
        with obs.span("mapper.search_fresh", layers=len(layers)):
            if not batch.batch_kernel_enabled():
                return [self._scalar_search(layer, None, 0.0) for layer in layers]
            budget = min(PACK_ROWS, batch.batch_chunk_candidates() or PACK_ROWS)
            groups: dict[tuple, list[int]] = {}
            for index, layer in enumerate(layers):
                groups.setdefault(self._space.candidate_set_key(layer), []).append(index)
            packs: dict[bool, list] = {False: [], True: []}  # dense, grouped
            rows = dict.fromkeys(packs, 0)
            for key, indices in groups.items():
                start = time.perf_counter()
                first = layers[indices[0]]
                if self.tables is not None:
                    table = self.tables.table(self._space, first, key)
                else:
                    table = self._space.unique_candidates(first, count=False)
                table_ms = (time.perf_counter() - start) * 1e3
                for index in indices:
                    layer = layers[index]
                    member = (index, layer, table, table_ms)
                    table_ms = 0.0  # the group's first layer paid for the build
                    if len(table) >= budget:
                        self._score([member], found)
                        continue
                    kind = layer.groups > 1
                    if rows[kind] + len(table) > budget:
                        self._score(packs[kind], found)
                        packs[kind].clear()
                        rows[kind] = 0
                    packs[kind].append(member)
                    rows[kind] += len(table)
                del table, member  # a big table must not outlive its group
            for pack in packs.values():
                if pack:
                    self._score(pack, found)
        return [found[index] for index in range(len(layers))]

    def _score(self, members: list, found: dict[int, _Search]) -> None:
        """Score ``(index, layer, table, table_ms)`` members in one kernel
        call and file each layer's search in ``found`` under its index.

        With :attr:`tables`, the call scores the pack's held C3P columns
        against the held concatenated pack, or hands
        :meth:`SharedTables.hold` the pack and the columns it computed.  A
        pack the int64 guard refuses is re-scored one member at a time, and
        a member it still refuses takes the scalar oracle.
        """
        start = time.perf_counter()
        _, layers, tables, _ = zip(*members)
        shapes = held = None
        if self.tables is not None:
            shapes = tuple(map(_shape_key, layers))
            held = self.tables.columns(tables, shapes, self.hw)
        if held is not None:
            table, columns = held
        else:
            table = tables[0] if len(members) == 1 else CandidateTable.pack(tables)
            columns = None
        outcome = batch.search_batch(
            layers[0] if len(members) == 1 else layers,
            self.hw,
            table,
            objective=self._objective_name,
            columns=columns,
        )
        if outcome is None and len(members) > 1:
            for member in members:
                self._score([member], found)
            return
        if outcome is not None and held is None and shapes is not None:
            self.tables.hold(tables, shapes, self.hw, table, outcome.columns)
        kernel_ms = (time.perf_counter() - start) * 1e3
        for segment, (index, layer, own, table_ms) in enumerate(members):
            if outcome is None:
                found[index] = self._scalar_search(layer, own, table_ms + kernel_ms)
                continue
            found[index] = _Search(
                winner=outcome.records[segment],
                evaluated=outcome.segment_evaluated[segment],
                invalid=outcome.segment_invalid[segment],
                rows=len(own),
                deduped=own.deduped,
                chunks=outcome.chunks,
                ms=table_ms + kernel_ms * len(own) / len(table),
            )

    def _scalar_search(
        self, layer: ConvLayer, table: CandidateTable | None, spent_ms: float
    ) -> _Search:
        """The scalar strict-``<`` scan over the scalar enumeration and dedup.

        ``table`` is the layer's table the kernel refused (its build
        measured the dedup, which the enumeration then leaves uncounted),
        or ``None`` with the kernel off.  ``spent_ms`` is the time already
        spent on the layer.
        """
        start = time.perf_counter()
        best: CostReport | None = None
        best_score = float("inf")
        evaluated = invalid = 0
        candidates = self._space.scalar_unique_candidates(layer, count=table is None)
        for mapping in candidates:
            try:
                report = evaluate_mapping(layer, self.hw, mapping)
            except InvalidMappingError:
                invalid += 1
                continue
            evaluated += 1
            score = self.objective(report, self.hw)
            if score < best_score:
                best_score = score
                best = report
        return _Search(
            winner=best,
            evaluated=evaluated,
            invalid=invalid,
            rows=None,
            deduped=0 if table is None else table.deduped,
            chunks=0,
            ms=spent_ms + (time.perf_counter() - start) * 1e3,
        )

    def _pending(self, layers: list[ConvLayer], keys: list[str]) -> dict[str, ConvLayer]:
        """The first layer of each uncached key, in lookup order (no counting)."""
        first: dict[str, ConvLayer] = {}
        for layer, key in zip(layers, keys):
            first.setdefault(key, layer)
        return {key: layer for key, layer in first.items() if not self.cache.contains(key)}

    def search_model(
        self, layers: list[ConvLayer], jobs: int | None = None
    ) -> list[LayerMappingResult]:
        """Optimal mapping for every layer of a model, in this process.

        The uncached unique shapes are found first and searched in packs
        (:meth:`_search`) before the lookups, which take each miss's search
        and count it; with the kernel off, each miss runs the scalar oracle
        as it is looked up.

        Args:
            layers: The model's layers (non-empty).
            jobs: ``None`` or ``1``.  A map has no worker fan-out; the
                keyword stays only because the repository benchmark
                (``perfbench/``) still passes ``jobs=1``, and any other value
                is refused rather than run serially without a word.

        Raises:
            ValueError: On empty ``layers`` or another ``jobs`` value.
        """
        if not layers:
            raise ValueError("layers must be non-empty")
        if jobs not in (None, 1):
            raise ValueError(f"a map runs in one process: jobs must be None or 1, got {jobs!r}")
        keys = [self._key(layer) for layer in layers]
        with obs.span("mapper.search_model", layers=len(layers)):
            pending = self._pending(layers, keys)
            if batch.batch_kernel_enabled():
                searched = dict(zip(pending, self._search(list(pending.values()))))
            else:
                searched = {}  # each miss runs the scalar oracle as it is looked up
            results = [
                self._lookup(layer, key, searched) for layer, key in zip(layers, keys)
            ]
        obs.count("mapper.layers.searched", len(layers))
        self.cache.save()
        return results


def map_model(
    layers: list[ConvLayer],
    hw: HardwareConfig,
    profile: SearchProfile = SearchProfile.EXHAUSTIVE,
    objective: Objective = energy_objective,
) -> list[LayerMappingResult]:
    """Convenience wrapper: search every layer of ``layers`` on ``hw``."""
    mapper = Mapper(hw=hw, profile=profile, objective=objective)
    return mapper.search_model(layers)
