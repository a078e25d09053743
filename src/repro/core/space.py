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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

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


@dataclass(frozen=True)
class MappingSpace:
    """Candidate mappings for one hardware instance.

    Attributes:
        hw: Target hardware.
        profile: Enumeration aggressiveness.
    """

    hw: HardwareConfig
    profile: SearchProfile = SearchProfile.EXHAUSTIVE

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
        macro_co = ceil_div(layer.co, package.co_ways)
        macro_ho = ceil_div(layer.ho, package.grid.rows)
        macro_wo = ceil_div(layer.wo, package.grid.cols)
        if n == 1:
            return [SpatialPrimitive.channel(1)]
        options: list[SpatialPrimitive] = []
        if macro_co >= n:
            options.append(SpatialPrimitive.channel(n))
        plane_grids = [
            g
            for g in factor_grids(n)
            if g.ways > 1 and g.rows <= macro_ho and g.cols <= macro_wo
        ]
        if self.profile is not SearchProfile.EXHAUSTIVE and len(plane_grids) > 1:
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
            if self.profile is not SearchProfile.EXHAUSTIVE:
                sub_grids = [min(sub_grids, key=lambda g: g.aspect_ratio())]
            options.extend(SpatialPrimitive.hybrid(co_ways, g) for g in sub_grids)
        if self.profile is not SearchProfile.EXHAUSTIVE:
            # Keep at most one partition per dimension kind.
            kept: dict[PartitionDim, SpatialPrimitive] = {}
            for opt in options:
                kept.setdefault(opt.dim, opt)
            options = list(kept.values())
        if not options:
            # Thin macro partition: occupy as many cores as it has channels.
            options.append(SpatialPrimitive.channel(min(n, max(macro_co, 1))))
        return options

    # --- tile candidates ------------------------------------------------------------

    def core_tiles(self, layer: ConvLayer, share_ho: int, share_wo: int) -> list[tuple[int, int]]:
        """Core-workload planar tiles respecting the O-L1 psum capacity."""
        psum_bytes = self.hw.tech.psum_bits / 8.0
        max_pixels = max(int(self.hw.memory.o_l1_bytes / (psum_bytes * self.hw.lanes)), 1)
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
        cc0_tile = self._cc0_square_tile(layer, max_pixels)
        if cc0_tile is not None:
            tiles.append((min(cc0_tile, share_ho), min(cc0_tile, share_wo)))
        tiles = _dedupe([(h, w) for h, w in tiles if 1 <= h and 1 <= w])
        cc0_kept = (
            [(min(cc0_tile, share_ho), min(cc0_tile, share_wo))]
            if cc0_tile is not None
            else []
        )
        if self.profile is not SearchProfile.EXHAUSTIVE and len(tiles) > 3:
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
        if self.profile is SearchProfile.MINIMAL and len(tiles) > 2:
            largest_square = max(
                (t for t in tiles if t[0] == t[1]),
                key=lambda t: t[0] * t[1],
                default=tiles[0],
            )
            largest = max(tiles, key=lambda t: t[0] * t[1])
            tiles = _dedupe([largest_square, largest] + cc0_kept)
        return tiles

    def _cc0_square_tile(self, layer: ConvLayer, max_pixels: int) -> int | None:
        """Side of the largest square tile whose Cc0 fits the A-L1.

        Cc0 is one P-channel chunk of the tile's input window (the paper's
        supplemental critical capacity).  Returns ``None`` only when even a
        1x1 tile overflows.  The side also stays within ``max_pixels``, so
        the tile may repeat one :meth:`core_tiles` already lists; its dedup
        drops the copy.
        """
        chunk = min(self.hw.vector_size, layer.ci)
        bytes_per = self.hw.tech.data_bits / 8.0
        budget = self.hw.memory.a_l1_bytes

        def cc0(side: int) -> float:
            return (
                layer.input_rows_for(side) * layer.input_cols_for(side) * chunk * bytes_per
            )

        if cc0(1) > budget:
            return None
        side = 1
        while side * 2 * side * 2 <= max_pixels and cc0(side * 2) <= budget:
            side *= 2
        return side

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

    def unique_candidates(self, layer: ConvLayer) -> list[Mapping]:
        """Candidates deduplicated up to cost-model congruence.

        Keeps the *first* representative of each :func:`candidate_row`
        (order-preserving, like :func:`_dedupe`), so the mapper's
        strict-``<`` minimum selects the same winning mapping object it
        always did.  The number of discarded congruent candidates is
        exported as the ``space.candidates.deduped`` obs counter.
        """
        from repro import obs

        first: dict[tuple[int, ...], Mapping] = {}
        raw = 0
        for raw, mapping in enumerate(self.candidates(layer), 1):
            first.setdefault(candidate_row(layer, mapping), mapping)
        dropped = raw - len(first)
        if dropped:
            obs.count("space.candidates.deduped", dropped)
        return list(first.values())
