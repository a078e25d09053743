"""Mapping-space enumeration for the exhaustive search (Section V-C).

"The mapping analysis engine adopts exhaustive search to evaluate hundreds of
cases, including partition patterns with different height-width ratios and
loop transformation of various spatial-temporal combinations."

Two profiles bound the enumeration:

* ``EXHAUSTIVE`` -- the full candidate set for the per-layer case studies
  (Figures 11-13): every spatial combination, every temporal priority pair,
  several planar patterns and tile multipliers, rotation on and off.
* ``FAST`` -- a pruned set for the pre-design sweeps (Figures 14-15), where
  thousands of hardware points each need a mapping search: rotation is
  always preferred when data is shared (one DRAM access plus ``N_P - 1``
  ring hops is strictly cheaper than ``N_P`` DRAM accesses under Table I),
  and only the strongest tile shapes survive.

:meth:`MappingSpace.candidates` yields the raw candidates one
:class:`~repro.core.mapping.Mapping` at a time (the scalar oracle);
:meth:`MappingSpace.unique_candidates` builds the same space, deduplicated,
as the int64 columns of a :class:`CandidateTable` in one numpy pass.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator

import numpy as np

from repro.arch.config import HardwareConfig
from repro.core.mapping import Mapping
from repro.core.partition import factor_grids
from repro.core.primitives import (
    LoopOrder,
    PartitionDim,
    RotationKind,
    SpatialPrimitive,
    TemporalPrimitive,
)
from repro.workloads.layer import ConvLayer, ceil_div


class SearchProfile(Enum):
    """How aggressively the mapping space is pruned.

    ``EXHAUSTIVE`` keeps every spatial combination and temporal pair (the
    per-layer case studies).  ``FAST`` keeps one partition per dimension kind
    and a few tile shapes (the Figure 14 granularity study).  ``MINIMAL``
    keeps a heuristic core so the ~10^4-point Figure 15 sweep stays
    laptop-scale on one core.
    """

    EXHAUSTIVE = "exhaustive"
    FAST = "fast"
    MINIMAL = "minimal"


def _divisors(n: int) -> list[int]:
    """All divisors of ``n``, ascending."""
    result = [d for d in range(1, n + 1) if n % d == 0]
    return result


def _dedupe(items: list) -> list:
    """Order-preserving deduplication."""
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


#: Names of the integers :func:`candidate_row` returns, in row order.
CANDIDATE_COLUMNS = (
    "pkg_co_ways", "pkg_rows", "pkg_cols", "pkg_is_channel",
    "tile_ho", "tile_wo", "tile_co", "pkg_order_channel",
    "chp_co_ways", "chp_rows", "chp_cols",
    "core_ho", "core_wo", "chp_order_channel",
    "rot_activations", "rot_weights",
)

#: The columns that tell a tile's variants apart: the loop-order flags and
#: the rotation codes.
VARIANT_COLUMNS = ("pkg_order_channel", "chp_order_channel", "rot_activations", "rot_weights")

#: The columns that fix a loop-nest tile: the spatial primitives and the
#: clamped tile extents, every column but :data:`VARIANT_COLUMNS`.
TILE_COLUMNS = tuple(name for name in CANDIDATE_COLUMNS if name not in VARIANT_COLUMNS)


def candidate_row(layer: ConvLayer, mapping: Mapping) -> tuple[int, ...]:
    """The cost-determining signature of ``mapping`` on ``layer``.

    One integer per :data:`CANDIDATE_COLUMNS` name: the spatial primitives,
    loop orders and rotation, and the tile extents clamped exactly as
    :class:`~repro.core.loopnest.LoopNest` clamps them (chiplet tile to the
    macro partition, core tile to the core's share).  The cost model reads
    nothing else, so two candidates are *congruent* (identical traffic,
    energy and cycles) exactly when their rows are equal.  The batch kernel
    evaluates these rows as its columns.
    """
    pkg, pt = mapping.package_spatial, mapping.package_temporal
    chp, ct = mapping.chiplet_spatial, mapping.chiplet_temporal
    pkg_grid, chp_grid = pkg.grid, chp.grid
    tile_ho = min(pt.tile_h, -(-layer.ho // pkg_grid.rows))
    tile_wo = min(pt.tile_w, -(-layer.wo // pkg_grid.cols))
    rotation = mapping.rotation
    return (
        pkg.co_ways, pkg_grid.rows, pkg_grid.cols, pkg.dim is PartitionDim.CHANNEL,
        tile_ho, tile_wo, min(pt.tile_co, -(-layer.co // pkg.co_ways)),
        pt.order is LoopOrder.CHANNEL_PRIORITY,
        chp.co_ways, chp_grid.rows, chp_grid.cols,
        min(ct.tile_h, -(-tile_ho // chp_grid.rows)),
        min(ct.tile_w, -(-tile_wo // chp_grid.cols)),
        ct.order is LoopOrder.CHANNEL_PRIORITY,
        rotation is RotationKind.ACTIVATIONS, rotation is RotationKind.WEIGHTS,
    )


def first_occurrence_indices(*fields: np.ndarray) -> np.ndarray:
    """Flat indices of the first occurrence of each distinct row, ascending.

    The fields are non-negative int64 arrays that broadcast to one shape; a
    row is one position of that shape read across the fields, and indices
    count positions in C order.  When the fields' bit widths sum to at most
    63 the rows pack into one int64 key for ``np.unique``; wider rows take a
    stable lexicographic sort and an adjacent-row compare instead.
    """
    shape = np.broadcast_shapes(*(field.shape for field in fields))
    widths = [int(field.max()).bit_length() for field in fields]
    if sum(widths) <= 63:
        key = np.int64(0)
        shift = sum(widths)
        for field, width in zip(fields, widths):
            shift -= width
            key = key | (field << shift)
        _, first = np.unique(np.broadcast_to(key, shape).ravel(), return_index=True)
    else:
        columns = [np.broadcast_to(field, shape).ravel() for field in fields]
        order = np.lexsort(columns[::-1])  # stable: equal rows stay in index order
        starts = np.zeros(order.size, dtype=bool)
        starts[:1] = True
        for column in columns:
            ranked = column[order]
            starts[1:] |= ranked[1:] != ranked[:-1]
        first = order[starts]
    first.sort()
    return first


#: Loop orders by their ``*_order_channel`` code.
_ORDERS = (LoopOrder.PLANE_PRIORITY, LoopOrder.CHANNEL_PRIORITY)

#: Rotations by their ``(rot_activations, rot_weights)`` codes.
_ROTATIONS = {
    (0, 0): RotationKind.NONE,
    (1, 0): RotationKind.ACTIVATIONS,
    (0, 1): RotationKind.WEIGHTS,
}


class CandidateTable(Sequence):
    """One layer's candidate mappings as int64 columns.

    The batch kernel reads the columns; a :class:`Mapping` is built only for
    a row someone indexes, so the table is also a ``Sequence[Mapping]``
    (``len``, indexing by row, iteration) for every other caller.

    A *pack* (:meth:`pack`) concatenates several layers' tables so that one
    kernel call scores them all; its ``segment`` column numbers each row's
    layer.

    The rows are tile-major: each run of ``variants`` consecutive rows
    shares its :data:`TILE_COLUMNS`, declared core tile, pair and segment,
    and differs only in :data:`VARIANT_COLUMNS`, so the kernel computes
    whatever reads the tile alone once per run.  A built table's runs are
    its tiles, each with every order pair and rotation; a hand-built table
    has runs of one row, and a pack the largest run length all its tables
    share.

    Attributes:
        rows: ``(16, n)`` -- one array row per :data:`CANDIDATE_COLUMNS`
            name, each candidate's :func:`candidate_row`.
        core: ``(3, n)`` -- the declared chiplet-level tile ``(tile_h,
            tile_w, tile_co)``, which the row's ``core_ho``/``core_wo``
            clamp; the mapping reports the declared one.
        pair: ``(n,)`` -- each candidate's index into ``pairs``.
        pairs: The ``(package, chiplet)`` spatial primitives.
        segment: ``(n,)`` -- each row's segment (its layer's position in
            the pack), ascending; ``None`` for one layer's table.
        deduped: Congruent raw candidates the build dropped (0 for a
            table it did not build).
        variants: The run length of the tile-major layout; it divides
            the row count.
    """

    __slots__ = ("rows", "core", "pair", "pairs", "segment", "deduped", "variants")

    def __init__(
        self,
        rows: np.ndarray,
        core: np.ndarray,
        pair: np.ndarray,
        pairs: tuple[tuple[SpatialPrimitive, SpatialPrimitive], ...],
        segment: np.ndarray | None = None,
        deduped: int = 0,
        variants: int = 1,
    ) -> None:
        self.rows = rows
        self.core = core
        self.pair = pair
        self.pairs = pairs
        self.segment = segment
        self.deduped = deduped
        self.variants = variants

    @classmethod
    def pack(cls, tables: Sequence["CandidateTable"]) -> "CandidateTable":
        """One table of ``tables``' rows in order; segment ``s`` is ``tables[s]``."""
        offsets = np.cumsum([0] + [len(table.pairs) for table in tables[:-1]])
        return cls(
            np.concatenate([table.rows for table in tables], axis=1),
            np.concatenate([table.core for table in tables], axis=1),
            np.concatenate([table.pair + offset for table, offset in zip(tables, offsets)]),
            tuple(pair for table in tables for pair in table.pairs),
            np.repeat(np.arange(len(tables)), [len(table) for table in tables]),
            variants=math.gcd(*(table.variants for table in tables)),
        )

    @classmethod
    def from_mappings(
        cls, layer: ConvLayer, mappings: Sequence[Mapping]
    ) -> "CandidateTable":
        """Encode hand-built ``mappings`` with :func:`candidate_row`.

        Raises:
            ValueError: If a mapping's package tile overhangs its macro
                partition: the row clamps it, so the table could not give
                the mapping back.
        """
        pairs: dict[tuple[SpatialPrimitive, SpatialPrimitive], int] = {}
        pair = [
            pairs.setdefault((m.package_spatial, m.chiplet_spatial), len(pairs))
            for m in mappings
        ]
        rows = np.array([candidate_row(layer, m) for m in mappings], dtype=np.int64)
        core = np.array(
            [(t.tile_h, t.tile_w, t.tile_co) for t in (m.chiplet_temporal for m in mappings)],
            dtype=np.int64,
        )
        table = cls(
            rows.reshape(-1, len(CANDIDATE_COLUMNS)).T,
            core.reshape(-1, 3).T,
            np.array(pair, dtype=np.int64),
            tuple(pairs),
        )
        if list(table) != list(mappings):
            raise ValueError("a package tile overhangs its macro partition")
        return table

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """The :data:`CANDIDATE_COLUMNS` by name (views of ``rows``)."""
        return dict(zip(CANDIDATE_COLUMNS, self.rows))

    def __len__(self) -> int:
        return len(self.pair)

    def __getitem__(self, index: int) -> Mapping:
        row = self.rows[:, index].tolist()
        return row_mapping(self.pairs[self.pair[index]], row, self.core[:, index].tolist())

    def __iter__(self) -> Iterator[Mapping]:
        for pair, row, core in zip(
            self.pair.tolist(), self.rows.T.tolist(), self.core.T.tolist()
        ):
            yield row_mapping(self.pairs[pair], row, core)


def row_mapping(
    pair: tuple[SpatialPrimitive, SpatialPrimitive], row: Sequence[int], core: Sequence[int]
) -> Mapping:
    """The mapping a table row, its declared core tile and its ``(package,
    chiplet)`` pair describe."""
    package, chiplet = pair
    (
        _, _, _, _, tile_ho, tile_wo, tile_co, pkg_order_channel,
        _, _, _, _, _, chp_order_channel, rot_activations, rot_weights,
    ) = row
    return Mapping(
        package_spatial=package,
        package_temporal=TemporalPrimitive(
            _ORDERS[pkg_order_channel], tile_ho, tile_wo, tile_co
        ),
        chiplet_spatial=chiplet,
        chiplet_temporal=TemporalPrimitive(_ORDERS[chp_order_channel], *core),
        rotation=_ROTATIONS[rot_activations, rot_weights],
    )


#: Distinct inputs each enumeration memo keeps; a Fig. 15 sweep round meets
#: a few hundred.
_MEMO_SIZE = 1024


@lru_cache(maxsize=_MEMO_SIZE)
def _chiplet_options(
    n: int, profile: SearchProfile, macro_co: int, macro_ho: int, macro_wo: int
) -> tuple[SpatialPrimitive, ...]:
    """Chiplet-level C / P / H partitions of a macro partition over ``n`` cores.

    A pure function of its ints, shared by every caller (hence a tuple).
    Every grid it tests has at most ``n`` rows, columns and channel ways,
    so :meth:`MappingSpace.chiplet_spatials` clamps the macro extents to
    ``n`` first: more layers then meet one entry.
    """
    if n == 1:
        return (SpatialPrimitive.channel(1),)
    options: list[SpatialPrimitive] = []
    if macro_co >= n:
        options.append(SpatialPrimitive.channel(n))
    plane_grids = [
        g
        for g in factor_grids(n)
        if g.ways > 1 and g.rows <= macro_ho and g.cols <= macro_wo
    ]
    if profile is not SearchProfile.EXHAUSTIVE and len(plane_grids) > 1:
        plane_grids = [min(plane_grids, key=lambda g: g.aspect_ratio())]
    options.extend(SpatialPrimitive.plane(g) for g in plane_grids)
    for co_ways in _divisors(n):
        if co_ways in (1, n) or macro_co < co_ways:
            continue
        sub_grids = [
            g
            for g in factor_grids(n // co_ways)
            if g.rows <= macro_ho and g.cols <= macro_wo
        ]
        if not sub_grids:
            continue
        if profile is not SearchProfile.EXHAUSTIVE:
            sub_grids = [min(sub_grids, key=lambda g: g.aspect_ratio())]
        options.extend(SpatialPrimitive.hybrid(co_ways, g) for g in sub_grids)
    if profile is not SearchProfile.EXHAUSTIVE:
        # Keep at most one partition per dimension kind.
        kept: dict[PartitionDim, SpatialPrimitive] = {}
        for opt in options:
            kept.setdefault(opt.dim, opt)
        options = list(kept.values())
    if not options:
        # Thin macro partition: occupy as many cores as it has channels.
        options.append(SpatialPrimitive.channel(min(n, max(macro_co, 1))))
    return tuple(options)


@lru_cache(maxsize=_MEMO_SIZE)
def _core_tiles(
    share_ho: int,
    share_wo: int,
    max_pixels: int,
    cc0_tile: int | None,
    profile: SearchProfile,
) -> tuple[tuple[int, int], ...]:
    """:meth:`MappingSpace.core_tiles` given the layer's pixel budget and
    Cc0 tile: a pure function of its ints, shared by every caller."""
    tiles: list[tuple[int, int]] = []
    side = 1
    while side * side <= max_pixels:
        tiles.append((min(side, share_ho), min(side, share_wo)))
        if side * 2 * side <= max_pixels:
            tiles.append((min(side, share_ho), min(2 * side, share_wo)))
            tiles.append((min(2 * side, share_ho), min(side, share_wo)))
        side *= 2
    # Full-width row stripe (friendly to sliding-window input reuse).
    row_w = min(share_wo, max_pixels)
    tiles.append((1, row_w))
    # The largest tile covering the share, if it fits.
    if share_ho * share_wo <= max_pixels:
        tiles.append((share_ho, share_wo))
    # The largest square tile whose Cc0 (one P-channel input window) fits
    # the A-L1 -- the C3P-guided choice that dodges the kernel-sweep
    # reload penalty on large-kernel layers.
    if cc0_tile is not None:
        tiles.append((min(cc0_tile, share_ho), min(cc0_tile, share_wo)))
    tiles = _dedupe([(h, w) for h, w in tiles if 1 <= h and 1 <= w])
    cc0_kept = (
        [(min(cc0_tile, share_ho), min(cc0_tile, share_wo))]
        if cc0_tile is not None
        else []
    )
    if profile is not SearchProfile.EXHAUSTIVE and len(tiles) > 3:
        # The largest square, the largest overall, the row stripe, and
        # the Cc0-fitting tile.
        largest_square = max(
            (t for t in tiles if t[0] == t[1]),
            key=lambda t: t[0] * t[1],
            default=tiles[0],
        )
        largest = max(tiles, key=lambda t: t[0] * t[1])
        stripe = (1, row_w)
        tiles = _dedupe([largest_square, largest, stripe] + cc0_kept)
    if profile is SearchProfile.MINIMAL and len(tiles) > 2:
        largest_square = max(
            (t for t in tiles if t[0] == t[1]),
            key=lambda t: t[0] * t[1],
            default=tiles[0],
        )
        largest = max(tiles, key=lambda t: t[0] * t[1])
        tiles = _dedupe([largest_square, largest] + cc0_kept)
    return tuple(tiles)


@lru_cache(maxsize=_MEMO_SIZE)
def _cc0_tile(
    kh: int,
    kw: int,
    row_step: int,
    col_step: int,
    chunk: int,
    data_bits: int,
    a_l1_bytes: int,
    max_pixels: int,
) -> int | None:
    """:meth:`MappingSpace._cc0_square_tile` given the layer's kernel, its
    row and column steps (``min(stride, k)``) and its channel chunk: a pure
    function of its ints, shared by every caller.

    A side's Cc0 is its input rows times its input columns times the chunk
    times the bytes per element, in that order, as the scalar window sizes
    multiply it.
    """
    bytes_per = data_bits / 8.0

    def cc0(side: int) -> float:
        return ((side - 1) * row_step + kh) * ((side - 1) * col_step + kw) * chunk * bytes_per

    if cc0(1) > a_l1_bytes:
        return None
    side = 1
    while side * 2 * side * 2 <= max_pixels and cc0(side * 2) <= a_l1_bytes:
        side *= 2
    return side


@dataclass(frozen=True)
class MappingSpace:
    """Candidate mappings for one hardware instance.

    Attributes:
        hw: Target hardware.
        profile: Enumeration aggressiveness.
    """

    hw: HardwareConfig
    profile: SearchProfile = SearchProfile.EXHAUSTIVE

    def candidate_set_key(self, layer: ConvLayer) -> tuple:
        """Every input :meth:`unique_candidates` reads for ``layer``: equal
        keys, equal tables, for any two layers on any two machines.

        The layer's output extents HO, WO and CO (its package and chiplet
        partitions and macro extents), the chiplet, core and lane counts,
        the O-L1 pixel budget (:meth:`_max_pixels`), the layer's Cc0 tile
        (:meth:`_cc0_square_tile`) and the profile, which fixes the
        multipliers, orders and rotations.  The dataflow splits the output
        cube, so the layer's input channels, kernel and stride enter the
        build only through the Cc0 tile (its padding and groups not at
        all), and so do A-L1, the vector size and the data width: layers
        and machines that give one output cube one Cc0 tile share its
        table.  W-L1 and A-L2 are
        left out altogether: they only move the C3P critical-capacity
        thresholds (Section IV-B, Eq. 1-2), which the kernel tests per
        machine.
        """
        hw = self.hw
        max_pixels = self._max_pixels()
        return (
            layer.ho, layer.wo, layer.co,
            hw.n_chiplets, hw.n_cores, hw.lanes, max_pixels,
            self._cc0_square_tile(layer, max_pixels), self.profile,
        )

    # --- spatial candidates ------------------------------------------------------

    def package_spatials(self, layer: ConvLayer) -> list[SpatialPrimitive]:
        """Package-level C-type / P-type partitions feeding N_P chiplets."""
        n = self.hw.n_chiplets
        if n == 1:
            return [SpatialPrimitive.channel(1)]
        options: list[SpatialPrimitive] = []
        if layer.co >= n:
            options.append(SpatialPrimitive.channel(n))
        grids = [
            g
            for g in factor_grids(n)
            if g.ways > 1 and g.rows <= layer.ho and g.cols <= layer.wo
        ]
        if self.profile is not SearchProfile.EXHAUSTIVE and len(grids) > 2:
            # Keep the rectangle (low DRAM-conflict degree, Figure 8) and the
            # most square grid.
            grids = _dedupe(
                [
                    min(grids, key=lambda g: g.aspect_ratio()),
                    max(grids, key=lambda g: g.aspect_ratio()),
                ]
            )
        options.extend(SpatialPrimitive.plane(g) for g in grids)
        if not options:
            # Thin layer: occupy as many chiplets as it has channels; the
            # rest idle (utilization pays for them).
            options.append(SpatialPrimitive.channel(min(n, layer.co)))
        return options

    def chiplet_spatials(
        self, layer: ConvLayer, package: SpatialPrimitive
    ) -> list[SpatialPrimitive]:
        """Chiplet-level C / P / H partitions feeding N_C cores."""
        n = self.hw.n_cores
        return list(
            _chiplet_options(
                n,
                self.profile,
                min(ceil_div(layer.co, package.co_ways), n),
                min(ceil_div(layer.ho, package.grid.rows), n),
                min(ceil_div(layer.wo, package.grid.cols), n),
            )
        )

    # --- tile candidates ------------------------------------------------------------

    def core_tiles(self, layer: ConvLayer, share_ho: int, share_wo: int) -> list[tuple[int, int]]:
        """Core-workload planar tiles respecting the O-L1 psum capacity."""
        max_pixels = self._max_pixels()
        return list(
            _core_tiles(
                share_ho, share_wo, max_pixels,
                self._cc0_square_tile(layer, max_pixels), self.profile,
            )
        )

    def pair_tiles(
        self, layer: ConvLayer
    ) -> list[tuple[SpatialPrimitive, SpatialPrimitive, list[tuple[int, int]]]]:
        """Each (package, chiplet) pair in :meth:`candidates` order, with the
        :meth:`core_tiles` of its core share.

        The O-L1 pixel budget and the Cc0 tile are computed once per layer;
        the partition and tile lists come from the memoized
        :func:`_chiplet_options` and :func:`_core_tiles`.
        """
        max_pixels = self._max_pixels()
        cc0_tile = self._cc0_square_tile(layer, max_pixels)
        out = []
        for package in self.package_spatials(layer):
            macro_ho = ceil_div(layer.ho, package.grid.rows)
            macro_wo = ceil_div(layer.wo, package.grid.cols)
            for chiplet in self.chiplet_spatials(layer, package):
                tiles = _core_tiles(
                    ceil_div(macro_ho, chiplet.grid.rows),
                    ceil_div(macro_wo, chiplet.grid.cols),
                    max_pixels, cc0_tile, self.profile,
                )
                out.append((package, chiplet, list(tiles)))
        return out

    def _max_pixels(self) -> int:
        """Output pixels one core's O-L1 holds as psums across its lanes."""
        psum_bytes = self.hw.tech.psum_bits / 8.0
        return max(int(self.hw.memory.o_l1_bytes / (psum_bytes * self.hw.lanes)), 1)

    def _cc0_square_tile(self, layer: ConvLayer, max_pixels: int) -> int | None:
        """Side of the largest square tile whose Cc0 fits the A-L1.

        Cc0 is one P-channel chunk of the tile's input window (the paper's
        supplemental critical capacity).  Returns ``None`` only when even a
        1x1 tile overflows.  The side also stays within ``max_pixels``, so
        the tile may repeat one :meth:`core_tiles` already lists; its dedup
        drops the copy.  The search itself is the memoized :func:`_cc0_tile`.
        """
        hw = self.hw
        return _cc0_tile(
            layer.kh, layer.kw, min(layer.stride, layer.kh), min(layer.stride, layer.kw),
            min(hw.vector_size, layer.ci), hw.tech.data_bits, hw.memory.a_l1_bytes,
            max_pixels,
        )

    def tile_multipliers(self) -> list[int]:
        """Chiplet-workload tile multipliers over the core grid footprint."""
        if self.profile is SearchProfile.MINIMAL:
            return [2]
        return [1, 4]

    def channel_multipliers(self) -> list[int]:
        """Chiplet-workload channel multipliers over ``co_ways * L``."""
        if self.profile is SearchProfile.MINIMAL:
            return [2]
        return [1, 4]

    def orders(self) -> list[tuple[LoopOrder, LoopOrder]]:
        """(package, chiplet) temporal priority pairs.

        All four combinations, except in MINIMAL where only the two matched
        pairs survive (mixed priorities rarely win; see the ablation bench).
        """
        priorities = (LoopOrder.CHANNEL_PRIORITY, LoopOrder.PLANE_PRIORITY)
        if self.profile is SearchProfile.MINIMAL:
            return [(p, p) for p in priorities]
        return [(pkg, chip) for pkg in priorities for chip in priorities]

    def rotations(self, package: SpatialPrimitive) -> list[RotationKind]:
        """Rotating-transfer choices for a package partition."""
        if package.ways == 1:
            return [RotationKind.NONE]
        if package.dim is PartitionDim.CHANNEL:
            shared = RotationKind.ACTIVATIONS
        else:
            shared = RotationKind.WEIGHTS
        if self.profile is SearchProfile.EXHAUSTIVE:
            return [shared, RotationKind.NONE]
        return [shared]

    # --- enumeration ------------------------------------------------------------

    def candidates(self, layer: ConvLayer) -> Iterator[Mapping]:
        """Yield every candidate mapping for ``layer`` (unvalidated)."""
        hw = self.hw
        for package in self.package_spatials(layer):
            macro_ho = ceil_div(layer.ho, package.grid.rows)
            macro_wo = ceil_div(layer.wo, package.grid.cols)
            macro_co = ceil_div(layer.co, package.co_ways)
            for chiplet in self.chiplet_spatials(layer, package):
                share_cap_ho = ceil_div(macro_ho, chiplet.grid.rows)
                share_cap_wo = ceil_div(macro_wo, chiplet.grid.cols)
                for core_ho, core_wo in self.core_tiles(layer, share_cap_ho, share_cap_wo):
                    for mult_h in self.tile_multipliers():
                        tile_ho = min(core_ho * chiplet.grid.rows * mult_h, macro_ho)
                        for mult_w in self.tile_multipliers():
                            tile_wo = min(core_wo * chiplet.grid.cols * mult_w, macro_wo)
                            for mult_c in self.channel_multipliers():
                                tile_co = min(
                                    chiplet.co_ways * hw.lanes * mult_c, macro_co
                                )
                                for pkg_order, chip_order in self.orders():
                                    for rotation in self.rotations(package):
                                        yield Mapping(
                                            package_spatial=package,
                                            package_temporal=TemporalPrimitive(
                                                pkg_order, tile_ho, tile_wo, tile_co
                                            ),
                                            chiplet_spatial=chiplet,
                                            chiplet_temporal=TemporalPrimitive(
                                                chip_order,
                                                core_ho,
                                                core_wo,
                                                min(hw.lanes, tile_co),
                                            ),
                                            rotation=rotation,
                                        )

    def unique_candidates(self, layer: ConvLayer, count: bool = True) -> CandidateTable:
        """Candidates deduplicated up to cost-model congruence, as columns.

        The same mappings, in the same order, as
        :meth:`scalar_unique_candidates`, built in one numpy pass: Python
        loops only over the (package, chiplet) pairs and their core tiles
        (:meth:`pair_tiles`), and numpy broadcasts the tile multipliers
        and channel multipliers into loop-nest tiles in :meth:`candidates`'
        nesting order.  Dedup keeps the *first* candidate of each
        :func:`candidate_row`, so the mapper's strict-``<`` minimum selects
        the same winner it always did.  Every tile takes every order pair,
        and pairs of one spatial signature have one package and so one
        rotation list, so two candidates are congruent exactly when their
        tiles are and their order pair and rotation match: dedup keeps the
        first occurrence of each tile, and the table lists each kept tile's
        order x rotation variants after it (``variants`` rows per tile;
        see :class:`CandidateTable`).  The number of discarded congruent
        candidates is the table's ``deduped``, and is exported as the
        ``space.candidates.deduped`` obs counter unless ``count`` is false
        (the mapper counts it when it uses the table's winner).
        """
        from repro import obs

        pairs: list[tuple[SpatialPrimitive, SpatialPrimitive]] = []
        signatures: dict[tuple, int] = {}
        # One entry per (pair, core tile): spatial signature, pair index, the
        # seven spatial row columns, declared core tile, macro partition
        # extents, then the activation and weight rotation codes.
        entries: list[tuple] = []
        n_rot = 0
        for package, chiplet, tiles in self.pair_tiles(layer):
            rotations = self.rotations(package)
            n_rot = n_rot or len(rotations)
            assert len(rotations) == n_rot, "every package of a layer has one rotation count"
            rotation_codes = [r is RotationKind.ACTIVATIONS for r in rotations] + [
                r is RotationKind.WEIGHTS for r in rotations
            ]
            macro = (
                ceil_div(layer.ho, package.grid.rows),
                ceil_div(layer.wo, package.grid.cols),
                ceil_div(layer.co, package.co_ways),
            )
            spatial = (
                package.co_ways, package.grid.rows, package.grid.cols,
                package.dim is PartitionDim.CHANNEL,
                chiplet.co_ways, chiplet.grid.rows, chiplet.grid.cols,
            )
            # Rows of pairs with equal spatial columns compare equal, so the
            # dedup key carries the spatial signature, not the pair.
            head = (signatures.setdefault(spatial, len(signatures)), len(pairs), *spatial)
            pairs.append((package, chiplet))
            entries.extend((*head, h, w, *macro, *rotation_codes) for h, w in tiles)

        e = np.array(entries, dtype=np.int64).T
        signature, _, _, _, _, _, chp_co_ways, chp_rows, chp_cols = e[:9, :, None]
        core_h, core_w, macro_ho, macro_wo, macro_co = e[9:14, :, None]
        rot_activations, rot_weights = e[14 : 14 + n_rot].T, e[14 + n_rot :].T
        tile_mults = np.array(self.tile_multipliers(), dtype=np.int64)
        channel_mults = np.array(self.channel_multipliers(), dtype=np.int64)
        orders = np.array(
            [(p is LoopOrder.CHANNEL_PRIORITY, c is LoopOrder.CHANNEL_PRIORITY)
             for p, c in self.orders()],
            dtype=np.int64,
        ).T
        # (K, T) and (K, C) extents, as candidates() declares them; the
        # package tile never overhangs the macro partition, so only the
        # core tile needs candidate_row's clamp.
        tile_ho = np.minimum(core_h * chp_rows * tile_mults, macro_ho)
        tile_wo = np.minimum(core_w * chp_cols * tile_mults, macro_wo)
        tile_co = np.minimum(chp_co_ways * self.hw.lanes * channel_mults, macro_co)
        core_ho = np.minimum(core_h, -(-tile_ho // chp_rows))
        core_wo = np.minimum(core_w, -(-tile_wo // chp_cols))

        # Tile axes: (pair, core tile) x mult_h x mult_w x mult_c.
        k, t, c = len(entries), len(tile_mults), len(channel_mults)
        first = first_occurrence_indices(
            signature.reshape(k, 1, 1, 1),
            tile_ho.reshape(k, t, 1, 1), core_ho.reshape(k, t, 1, 1),
            tile_wo.reshape(k, 1, t, 1), core_wo.reshape(k, 1, t, 1),
            tile_co.reshape(k, 1, 1, c),
        )
        ik, ih, iw, ic = np.unravel_index(first, (k, t, t, c))

        # Axes: kept tile x order x rotation, flattened tile-major.
        n, o = len(first), orders.shape[1]
        variants = o * n_rot
        rows = np.empty((len(CANDIDATE_COLUMNS), n, o, n_rot), dtype=np.int64)
        rows[0:4] = e[2:6, ik, None, None]
        rows[4] = tile_ho[ik, ih, None, None]
        rows[5] = tile_wo[ik, iw, None, None]
        rows[6] = tile_co[ik, ic, None, None]
        rows[7] = orders[0, :, None]
        rows[8:11] = e[6:9, ik, None, None]
        rows[11] = core_ho[ik, ih, None, None]
        rows[12] = core_wo[ik, iw, None, None]
        rows[13] = orders[1, :, None]
        rows[14] = rot_activations[ik, None, :]
        rows[15] = rot_weights[ik, None, :]
        core = np.empty((3, n, variants), dtype=np.int64)
        core[0:2] = e[9:11, ik, None]
        core[2] = np.minimum(tile_co[ik, ic], self.hw.lanes)[:, None]

        dropped = (k * t * t * c - n) * variants
        if dropped and count:
            obs.count("space.candidates.deduped", dropped)
        return CandidateTable(
            rows.reshape(len(CANDIDATE_COLUMNS), -1), core.reshape(3, -1),
            np.repeat(e[1, ik], variants), tuple(pairs),
            deduped=dropped, variants=variants,
        )

    def scalar_unique_candidates(self, layer: ConvLayer) -> tuple[list[Mapping], int]:
        """:meth:`candidates` kept at each :func:`candidate_row`'s first
        occurrence, and the number of congruent candidates dropped.

        The scalar oracle of :meth:`unique_candidates`: the same mappings in
        the same order, one :class:`Mapping` per raw candidate, and the
        table's ``deduped``.  Nothing is counted here: the mapper counts the
        dropped candidates when it uses the layer's winner.
        """
        first: dict[tuple[int, ...], Mapping] = {}
        raw = 0
        for raw, mapping in enumerate(self.candidates(layer), 1):
            first.setdefault(candidate_row(layer, mapping), mapping)
        return list(first.values()), raw - len(first)
