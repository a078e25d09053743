"""Per-core temporal loop-nest construction from a mapping.

Applying the two spatial primitives leaves each core a sequence of
``HO_C x WO_C x L`` core workloads.  Their iteration order, inner to outer:

1. the core block itself (the PE array sweeps KH, KW and ceil(CI/P) input
   chunks internally with the WS dataflow),
2. the chiplet-temporal loops C1 / W1 / H1 over the core's share of one
   chiplet workload,
3. the package-temporal loops C2 / W2 / H2 over the chiplet's macro
   partition.

Channel-priority places the C loop innermost within its level;
plane-priority places W then H innermost.  This nest is exactly what the C3P
methodology walks (Figure 6).

All derived extents are computed once at construction (the mapper evaluates
tens of thousands of nests per layer, so this is the hot path).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import HardwareConfig
from repro.core.mapping import Mapping
from repro.core.primitives import LoopOrder, PartitionDim
from repro.workloads.layer import ConvLayer, ceil_div


@dataclass(frozen=True)
class Loop:
    """One temporal loop.

    Attributes:
        kind: ``"C"``, ``"W"`` or ``"H"`` -- the dimension it advances.
        level: 1 for chiplet-temporal, 2 for package-temporal.
        count: Loop trip count (LC in the paper's Equation 2).
    """

    kind: str
    level: int
    count: int

    def __post_init__(self) -> None:
        if self.kind not in ("C", "W", "H"):
            raise ValueError(f"loop kind must be C, W or H, got {self.kind!r}")
        if self.level not in (1, 2):
            raise ValueError(f"loop level must be 1 or 2, got {self.level}")
        if self.count < 1:
            raise ValueError(f"loop count must be >= 1, got {self.count}")

    @property
    def is_channel(self) -> bool:
        """Whether this loop advances the output-channel dimension."""
        return self.kind == "C"

    def describe(self) -> str:
        """Short label like ``C1:4``."""
        return f"{self.kind}{self.level}:{self.count}"


def mac_utilization(layer: ConvLayer, hw: HardwareConfig, cycles: int) -> float:
    """MAC-array utilization of ``layer`` run in ``cycles``: ideal cycles
    over modeled cycles (shared by :meth:`LoopNest.utilization` and the
    reports built from the batch kernel's winner records)."""
    ideal = layer.macs / hw.total_macs
    return min(ideal / cycles, 1.0)


def _level_loops(order: LoopOrder, c: int, w: int, h: int, level: int) -> list[Loop]:
    """Loops of one temporal level, inner to outer, per the loop priority."""
    if order is LoopOrder.CHANNEL_PRIORITY:
        names = [("C", c), ("W", w), ("H", h)]
    else:
        names = [("W", w), ("H", h), ("C", c)]
    return [Loop(kind, level, count) for kind, count in names]


class LoopNest:
    """The fully derived loop structure of one (layer, hardware, mapping).

    All tile extents use ceil-splitting of the first (largest) partition, the
    same convention the runtime model uses, so loop-count products always
    cover the full workload (utilization absorbs the remainder slack).

    Attributes (all computed at construction):
        macro_ho / macro_wo / macro_co: One chiplet's macro partition.
        tile_ho / tile_wo / tile_co: One chiplet workload (HO_t, WO_t, CO_t).
        share_ho / share_wo / share_co: One core's share of a chiplet workload.
        core_ho / core_wo / core_co: One core workload (HO_C, WO_C, <= L).
        c1 / w1 / h1: Chiplet-temporal loop counts.
        c2 / w2 / h2: Package-temporal loop counts.
    """

    __slots__ = (
        "layer",
        "hw",
        "mapping",
        "macro_ho",
        "macro_wo",
        "macro_co",
        "tile_ho",
        "tile_wo",
        "tile_co",
        "share_ho",
        "share_wo",
        "share_co",
        "core_ho",
        "core_wo",
        "core_co",
        "c1",
        "w1",
        "h1",
        "c2",
        "w2",
        "h2",
        "_loops",
    )

    def __init__(self, layer: ConvLayer, hw: HardwareConfig, mapping: Mapping) -> None:
        self.layer = layer
        self.hw = hw
        self.mapping = mapping

        pkg = mapping.package_spatial
        chp = mapping.chiplet_spatial
        self.macro_ho = ceil_div(layer.ho, pkg.grid.rows)
        self.macro_wo = ceil_div(layer.wo, pkg.grid.cols)
        self.macro_co = ceil_div(layer.co, pkg.co_ways)

        self.tile_ho = min(mapping.package_temporal.tile_h, self.macro_ho)
        self.tile_wo = min(mapping.package_temporal.tile_w, self.macro_wo)
        self.tile_co = min(mapping.package_temporal.tile_co, self.macro_co)

        self.share_ho = ceil_div(self.tile_ho, chp.grid.rows)
        self.share_wo = ceil_div(self.tile_wo, chp.grid.cols)
        self.share_co = ceil_div(self.tile_co, chp.co_ways)

        self.core_ho = min(mapping.chiplet_temporal.tile_h, self.share_ho)
        self.core_wo = min(mapping.chiplet_temporal.tile_w, self.share_wo)
        self.core_co = min(hw.lanes, self.share_co)

        self.c1 = ceil_div(self.share_co, self.core_co)
        self.w1 = ceil_div(self.share_wo, self.core_wo)
        self.h1 = ceil_div(self.share_ho, self.core_ho)
        self.c2 = ceil_div(self.macro_co, self.tile_co)
        self.w2 = ceil_div(self.macro_wo, self.tile_wo)
        self.h2 = ceil_div(self.macro_ho, self.tile_ho)

        self._loops = tuple(
            _level_loops(
                mapping.chiplet_temporal.order, self.c1, self.w1, self.h1, level=1
            )
            + _level_loops(
                mapping.package_temporal.order, self.c2, self.w2, self.h2, level=2
            )
        )

    @property
    def active_chiplets(self) -> int:
        """Chiplets the package partition actually feeds (rest stay idle).

        Thin layers (e.g. a 10-class FC head) may occupy fewer units than
        the hardware provides; the idle units simply cost utilization.
        """
        return min(self.mapping.package_spatial.ways, self.hw.n_chiplets)

    @property
    def active_cores(self) -> int:
        """Cores per chiplet the chiplet partition actually feeds."""
        return min(self.mapping.chiplet_spatial.ways, self.hw.n_cores)

    def loops(self) -> tuple[Loop, ...]:
        """The per-core temporal nest, inner to outer (excluding the block)."""
        return self._loops

    def core_blocks_per_core(self) -> int:
        """Core workloads executed by one core over the whole layer."""
        return self.c1 * self.w1 * self.h1 * self.c2 * self.w2 * self.h2

    def chiplet_workloads(self) -> int:
        """Package-temporal iterations (chiplet workloads per chiplet)."""
        return self.c2 * self.w2 * self.h2

    def block_cycles(self) -> int:
        """PE-array cycles of one core block.

        The array computes one output-pixel row of L psum updates per cycle,
        sweeping KH * KW kernel positions and ceil(CI / P) input chunks.  For
        grouped convolutions only the channels feeding the block's output
        slice are swept (a depthwise block reads core_co channels), which is
        also where their poor vector utilization shows up.
        """
        channels = self.layer.input_channels_for(self.core_co)
        ci_chunks = ceil_div(max(channels, 1), self.hw.vector_size)
        return self.core_ho * self.core_wo * self.layer.kh * self.layer.kw * ci_chunks

    def total_cycles(self) -> int:
        """Analytical runtime in cycles (critical core, no bandwidth stalls)."""
        return self.core_blocks_per_core() * self.block_cycles()

    def utilization(self) -> float:
        """MAC-array utilization: ideal cycles over modeled cycles."""
        return mac_utilization(self.layer, self.hw, self.total_cycles())

    def describe(self) -> str:
        """Loop-nest summary, inner to outer."""
        chain = " -> ".join(loop.describe() for loop in self._loops)
        return f"block[{self.core_ho}x{self.core_wo}x{self.core_co}] -> {chain}"

    # --- validity ------------------------------------------------------------

    def o_l1_required_bytes(self) -> int:
        """O-L1 bytes needed for the core workload's partial sums."""
        psums = self.core_ho * self.core_wo * self.core_co
        return ceil_div(psums * self.hw.tech.psum_bits, 8)

    def validity_errors(self) -> list[str]:
        """Mapping-level validity violations (empty means legal)."""
        errors: list[str] = []
        mapping = self.mapping
        hw = self.hw
        layer = self.layer
        if mapping.package_spatial.ways > hw.n_chiplets:
            errors.append(
                f"package partition feeds {mapping.package_spatial.ways} units, "
                f"hardware has {hw.n_chiplets} chiplets"
            )
        if mapping.chiplet_spatial.ways > hw.n_cores:
            errors.append(
                f"chiplet partition feeds {mapping.chiplet_spatial.ways} units, "
                f"hardware has {hw.n_cores} cores"
            )
        required = self.o_l1_required_bytes()
        if required > hw.memory.o_l1_bytes:
            errors.append(
                f"core workload needs {required} B of O-L1 partial sums, "
                f"only {hw.memory.o_l1_bytes} B available"
            )
        # A-L1 must at least hold one P-channel input row of the core tile
        # (the minimal streaming granule of the WS dataflow).
        min_a_l1 = (
            layer.input_cols_for(self.core_wo)
            * min(hw.vector_size, layer.ci)
            * hw.tech.data_bits
            // 8
        )
        if min_a_l1 > hw.memory.a_l1_bytes:
            errors.append(
                f"A-L1 ({hw.memory.a_l1_bytes} B) below the minimal "
                f"streaming granule ({min_a_l1} B)"
            )
        if mapping.package_spatial.dim is PartitionDim.CHANNEL:
            if mapping.package_spatial.co_ways > layer.co:
                errors.append("package C-type partition exceeds the layer's channels")
        if mapping.chiplet_spatial.co_ways > self.macro_co:
            errors.append("chiplet channel split exceeds the macro partition's channels")
        if mapping.package_spatial.grid.rows > layer.ho or (
            mapping.package_spatial.grid.cols > layer.wo
        ):
            errors.append("package planar grid exceeds the output plane")
        if mapping.chiplet_spatial.grid.rows > self.tile_ho or (
            mapping.chiplet_spatial.grid.cols > self.tile_wo
        ):
            errors.append("chiplet planar grid exceeds the chiplet workload plane")
        return errors

    def is_valid(self) -> bool:
        """Whether the mapping is legal on this hardware for this layer."""
        return not self.validity_errors()
