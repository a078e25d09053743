"""Experiment drivers: one function per paper table / figure.

Each driver returns plain data structures (dicts / dataclasses) that the
``benchmarks/`` harness prints as the paper's rows and series, and that the
EXPERIMENTS.md generator records.  Workload and hardware choices follow the
paper's Section V-VI setup; see DESIGN.md's experiment index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.arch.config import HardwareConfig, case_study_hardware
from repro.arch.memory import LinearFit, MemoryLibrary
from repro.arch.technology import TABLE_I, OperationEnergy
from repro.core import batch
from repro.core.cost import CostReport
from repro.core.dse import (
    DesignPoint,
    DesignSpace,
    best_point,
    explore,
    granularity_study,
)
from repro.core.mapper import Mapper
from repro.core.partition import (
    PlanarGrid,
    conflict_elements,
    halo_redundancy_ratio,
    max_conflict_degree,
)
from repro.core.space import CandidateTable, MappingSpace, SearchProfile
from repro.simba import SimbaReport, evaluate_simba, evaluate_simba_model
from repro.workloads.extraction import LayerKind, representative_layers
from repro.workloads.layer import ConvLayer
from repro.workloads.models import alexnet, darknet19, resnet50, vgg16


# --- Table I -----------------------------------------------------------------


def table1_rows() -> tuple[OperationEnergy, ...]:
    """The operation-energy table, exactly as modeled."""
    return TABLE_I


# --- Figure 7: partition-pattern redundancy --------------------------------------


@dataclass(frozen=True)
class Fig7Point:
    """Redundant-access measurement for one (layer, tile size, pattern)."""

    layer: str
    tile_elements: int
    pattern: str
    grid: PlanarGrid
    redundancy: float


def _pattern_tiles(elements: int) -> dict[str, tuple[int, int]]:
    """The paper's 1:1 (square) and 1:4 tile shapes for an element count."""
    side = int(math.isqrt(elements))
    if side * side != elements:
        raise ValueError(f"tile elements must be a perfect square, got {elements}")
    shapes = {"1:1": (side, side)}
    if side % 2 == 0:
        shapes["1:4"] = (side // 2, side * 2)
    return shapes


def fig7_layers(resolution: int = 512) -> list[ConvLayer]:
    """The two Figure 7 layers: ResNet-50 conv1 (7x7 s2) and a VGG-16 3x3."""
    res_conv1 = next(l for l in resnet50(resolution) if l.name == "conv1")
    vgg_3x3 = next(l for l in vgg16(resolution) if l.name == "conv2")
    return [res_conv1, vgg_3x3]


def fig7_data(
    resolution: int = 512,
    tile_elements: tuple[int, ...] = (4, 16, 64, 256, 1024),
) -> list[Fig7Point]:
    """Redundant memory access vs output-tile size for both patterns.

    Tiles are swept from fine (2x2 outputs, where the 7x7-stride-2 layer
    pays the paper's up-to-650% halo overhead) to coarse; the plane is
    covered by a grid of ceil(plane / tile) tiles of each shape.
    """
    points = []
    for layer in fig7_layers(resolution):
        for elements in tile_elements:
            for pattern, (tile_h, tile_w) in _pattern_tiles(elements).items():
                grid = PlanarGrid(
                    max(-(-layer.ho // tile_h), 1), max(-(-layer.wo // tile_w), 1)
                )
                points.append(
                    Fig7Point(
                        layer=layer.name,
                        tile_elements=elements,
                        pattern=pattern,
                        grid=grid,
                        redundancy=halo_redundancy_ratio(layer, grid),
                    )
                )
    return points


# --- Figure 8: halo / DRAM conflict ------------------------------------------------


@dataclass(frozen=True)
class Fig8Point:
    """Conflict measurement of one package-level partition pattern."""

    pattern: str
    grid: PlanarGrid
    max_conflict_degree: int
    conflict_elements: int


def fig8_data(resolution: int = 512) -> list[Fig8Point]:
    """Square vs rectangle 4-way package split conflicts (Figure 8)."""
    layer = fig7_layers(resolution)[0]  # the large-kernel conv1
    out = []
    for pattern, grid in (("square", PlanarGrid(2, 2)), ("rectangle", PlanarGrid(1, 4))):
        out.append(
            Fig8Point(
                pattern=pattern,
                grid=grid,
                max_conflict_degree=max_conflict_degree(layer, grid),
                conflict_elements=conflict_elements(layer, grid),
            )
        )
    return out


# --- Figure 10: memory linear model -------------------------------------------------


@dataclass(frozen=True)
class Fig10Data:
    """The synthetic macro library and its regression fits."""

    library: MemoryLibrary
    area_fit: LinearFit
    energy_fit: LinearFit


def fig10_data() -> Fig10Data:
    """Linear memory size -> area/energy fits (Figure 10)."""
    library = MemoryLibrary()
    return Fig10Data(
        library=library,
        area_fit=library.fit_area(),
        energy_fit=library.fit_energy(),
    )


# --- Figure 11: spatial partition comparison -------------------------------------------

#: The figure's x-axis order of (package, chiplet) spatial combinations.
FIG11_COMBOS: tuple[tuple[str, str], ...] = (
    ("C", "C"),
    ("C", "P"),
    ("C", "H"),
    ("P", "C"),
    ("P", "P"),
    ("P", "H"),
)


def best_by_combo(
    layer: ConvLayer,
    hw: HardwareConfig,
    profile: SearchProfile = SearchProfile.EXHAUSTIVE,
) -> dict[tuple[str, str], CostReport]:
    """Energy-optimal mapping per (package, chiplet) spatial combination.

    Combinations whose channel splits leave cores under-filled (the paper
    removes (C, C) for small-output-channel layers "due to the mismatch with
    their small output channels") or that have no legal candidate are
    omitted from the result.  Combinations appear in the order of their
    first legal candidate.

    The layer's candidate table is scored once by the batch kernel, with
    the combinations as segments, and each combination's winner report is
    built from its values in the kernel's columns
    (:func:`~repro.core.batch.gather_winners`).  The channel-split filter
    reads tile columns only and the sort by combination is stable, so
    every kept tile stays whole and the C3P half runs once per tile.

    Raises:
        BatchOverflowError: When the kernel cannot score the table exactly.
    """
    table = MappingSpace(hw=hw, profile=profile).unique_candidates(layer)
    combos: dict[tuple[str, str], int] = {}
    pair_combo = np.array(
        [combos.setdefault((p.dim.value, c.dim.value), len(combos)) for p, c in table.pairs],
        dtype=np.int64,
    )
    cols = table.columns
    share_co = -(-cols["tile_co"] // cols["chp_co_ways"])
    # A channel-split mismatch leaves cores unable to fill their lanes.
    kept = np.flatnonzero(share_co >= min(hw.lanes, layer.co))
    order = kept[np.argsort(pair_combo[table.pair[kept]], kind="stable")]
    if not len(order):
        return {}
    by_combo = CandidateTable(
        table.rows[:, order], table.core[:, order], table.pair[order], table.pairs,
        pair_combo[table.pair[order]], variants=table.variants,
    )
    result = batch.evaluate_batch([layer] * len(combos), hw, by_combo)
    valid = result.valid
    combo_ids, winners = batch.segment_minima(
        np.where(valid, result.energy_pj, np.inf), by_combo.segment
    )
    winner = dict(zip(combo_ids.tolist(), winners.tolist()))
    # Each combination's first legal row sets its place in the result.
    legal, first = np.unique(by_combo.segment[valid], return_index=True)
    place = dict(zip(legal.tolist(), order[valid][first].tolist()))
    names = list(combos)
    ranked = sorted(place, key=place.get)
    records = batch.gather_winners(
        result, np.array([winner[combo] for combo in ranked]), [layer] * len(ranked), hw
    )
    return {names[combo]: record.report() for combo, record in zip(ranked, records)}


def fig11_data(
    resolution: int = 224,
    hw: HardwareConfig | None = None,
    profile: SearchProfile = SearchProfile.EXHAUSTIVE,
) -> dict[LayerKind, dict[tuple[str, str], CostReport]]:
    """Energy breakdown of every spatial combination per layer type."""
    hw = hw or case_study_hardware()
    return {
        kind: best_by_combo(layer, hw, profile)
        for kind, layer in representative_layers(resolution).items()
    }


# --- Figure 12: Simba vs NN-Baton per layer --------------------------------------------


@dataclass(frozen=True)
class Fig12Point:
    """One layer's baseline-vs-NN-Baton comparison."""

    kind: LayerKind
    layer: ConvLayer
    simba: SimbaReport
    baton: CostReport
    hw: HardwareConfig

    @property
    def saving(self) -> float:
        """Fraction of baseline total energy NN-Baton saves."""
        return 1.0 - self.baton.energy_pj / self.simba.energy_pj

    @property
    def movement_saving(self) -> float:
        """Savings on the data-movement energy (the paper's accounting)."""
        baseline = self.simba.movement_pj(self.hw)
        if baseline <= 0:
            return 0.0
        return 1.0 - self.baton.movement_pj(self.hw) / baseline


def fig12_data(
    resolution: int = 224,
    hw: HardwareConfig | None = None,
    profile: SearchProfile = SearchProfile.EXHAUSTIVE,
) -> list[Fig12Point]:
    """Normalized per-layer energy: Simba baseline vs NN-Baton (Figure 12)."""
    hw = hw or case_study_hardware()
    mapper = Mapper(hw=hw, profile=profile)
    points = []
    for kind, layer in representative_layers(resolution).items():
        simba = evaluate_simba(layer, hw)
        baton = mapper.search_layer(layer).best
        points.append(
            Fig12Point(kind=kind, layer=layer, simba=simba, baton=baton, hw=hw)
        )
    return points


# --- Figure 13: Simba vs NN-Baton per model -------------------------------------------


@dataclass(frozen=True)
class Fig13Point:
    """One (model, resolution) baseline-vs-NN-Baton comparison."""

    model: str
    resolution: int
    simba_energy_pj: float
    baton_energy_pj: float
    simba_movement_pj: float
    baton_movement_pj: float

    @property
    def saving(self) -> float:
        """Fraction of baseline total energy NN-Baton saves."""
        return 1.0 - self.baton_energy_pj / self.simba_energy_pj

    @property
    def movement_saving(self) -> float:
        """Savings on the data-movement energy (the paper's accounting)."""
        if self.simba_movement_pj <= 0:
            return 0.0
        return 1.0 - self.baton_movement_pj / self.simba_movement_pj


#: The three Figure 13 models (FC layers folded into pointwise layers).
FIG13_MODELS = {
    "vgg16": vgg16,
    "resnet50": resnet50,
    "darknet19": darknet19,
}


def fig13_data(
    hw: HardwareConfig | None = None,
    resolutions: tuple[int, ...] = (224, 512),
    profile: SearchProfile = SearchProfile.FAST,
) -> list[Fig13Point]:
    """Model-level energy comparison (Figure 13).

    Default profile is FAST (the exhaustive space changes totals by a few
    percent at ~10x the runtime; pass EXHAUSTIVE for the full search).
    """
    hw = hw or case_study_hardware()
    points = []
    for name, builder in FIG13_MODELS.items():
        for resolution in resolutions:
            layers = builder(resolution=resolution, include_fc=True)
            simba_energy, _, simba_reports = evaluate_simba_model(layers, hw)
            mapper = Mapper(hw=hw, profile=profile)
            results = mapper.search_model(layers)
            baton_energy = sum(r.best.energy_pj for r in results)
            points.append(
                Fig13Point(
                    model=name,
                    resolution=resolution,
                    simba_energy_pj=simba_energy.total_pj,
                    baton_energy_pj=baton_energy,
                    simba_movement_pj=sum(
                        r.movement_pj(hw) for r in simba_reports
                    ),
                    baton_movement_pj=sum(
                        r.best.movement_pj(hw) for r in results
                    ),
                )
            )
    return points


# --- Figure 14: chiplet granularity ---------------------------------------------------


@dataclass(frozen=True)
class Fig14Data:
    """Granularity study output for a set of models."""

    points: tuple[DesignPoint, ...]
    total_macs: int
    area_constraint_mm2: float

    def by_chiplets(self, n: int) -> list[DesignPoint]:
        """Evaluated points with ``n`` chiplets."""
        return [p for p in self.points if p.valid and p.hw.n_chiplets == n]

    def best(
        self, model: str, n_chiplets: int | None = None, constrained: bool = False
    ) -> DesignPoint | None:
        """Best-energy point, optionally per chiplet count / under the cap."""
        pool = [
            p
            for p in self.points
            if p.valid
            and model in p.energy_pj
            and (n_chiplets is None or p.hw.n_chiplets == n_chiplets)
        ]
        return best_point(
            pool,
            model,
            objective="energy",
            max_chiplet_mm2=self.area_constraint_mm2 if constrained else None,
        )

    def edp_winner(self, model: str) -> DesignPoint | None:
        """The lowest-EDP point under the area constraint (the red box)."""
        return best_point(
            self.points,
            model,
            objective="edp",
            max_chiplet_mm2=self.area_constraint_mm2,
        )


#: The four Figure 14 models at classification resolution.
FIG14_MODELS = {
    "alexnet": alexnet,
    "vgg16": vgg16,
    "resnet50": resnet50,
    "darknet19": darknet19,
}


def fig14_data(
    total_macs: int = 2048,
    area_constraint_mm2: float = 2.0,
    resolution: int = 224,
    profile: SearchProfile = SearchProfile.FAST,
    models: dict | None = None,
    jobs: int | None = None,
) -> Fig14Data:
    """The chiplet-granularity study (Figure 14)."""
    builders = models or FIG14_MODELS
    layer_sets = {
        name: builder(resolution=resolution, include_fc=True)
        for name, builder in builders.items()
    }
    points = granularity_study(
        layer_sets, total_macs=total_macs, profile=profile, jobs=jobs
    )
    return Fig14Data(
        points=tuple(points),
        total_macs=total_macs,
        area_constraint_mm2=area_constraint_mm2,
    )


# --- Figure 15: full design-space exploration ---------------------------------------


@dataclass(frozen=True)
class Fig15Data:
    """Full-DSE output for the three benchmarks."""

    points: tuple[DesignPoint, ...]
    required_macs: int
    area_constraint_mm2: float
    swept: int

    @property
    def valid_points(self) -> list[DesignPoint]:
        """Evaluated, structurally valid points."""
        return [p for p in self.points if p.valid and p.energy_pj]

    def optimum(self, model: str) -> DesignPoint | None:
        """Lowest-EDP point under the area constraint for ``model``."""
        return best_point(
            self.points,
            model,
            objective="edp",
            max_chiplet_mm2=self.area_constraint_mm2,
        )


def fig15_models() -> dict[str, list[ConvLayer]]:
    """The three Figure 15 benchmarks.

    Section VI-B2 contrasts "benchmarks with 512x512 input resolution" with
    "the 224x224 benchmark (DarkNet of 224x224 input)", so the trio is
    VGG-16@512, ResNet-50@512 and DarkNet-19@224.
    """
    return {
        "vgg16@512": vgg16(resolution=512, include_fc=True),
        "resnet50@512": resnet50(resolution=512, include_fc=True),
        "darknet19@224": darknet19(resolution=224, include_fc=True),
    }


def fig15_data(
    required_macs: int = 4096,
    area_constraint_mm2: float = 3.0,
    memory_stride: int = 1,
    profile: SearchProfile = SearchProfile.MINIMAL,
    models: dict[str, list[ConvLayer]] | None = None,
    space: DesignSpace | None = None,
    jobs: int | None = None,
) -> Fig15Data:
    """The full design-space exploration (Figure 15).

    ``memory_stride`` subsamples the Table II memory sweep for quick runs;
    the structural sweep size is reported either way.  ``jobs`` fans the
    sweep out over worker processes (``None`` defers to ``REPRO_JOBS``).
    """
    benchmark_models = models or fig15_models()
    space = space or DesignSpace()
    points = explore(
        benchmark_models,
        required_macs=required_macs,
        space=space,
        max_chiplet_mm2=area_constraint_mm2,
        profile=profile,
        memory_stride=memory_stride,
        jobs=jobs,
    )
    return Fig15Data(
        points=tuple(points),
        required_macs=required_macs,
        area_constraint_mm2=area_constraint_mm2,
        swept=space.sweep_size(required_macs),
    )


# --- Table II -----------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Data:
    """The exploration space and its headline counts."""

    space: DesignSpace
    granularity_configs_2048: int
    granularity_configs_4096: int
    sweep_size_4096: int


def table2_data() -> Table2Data:
    """The Table II design space with the paper's headline counts.

    The paper reports "up to 63 possibilities" of computation allocation for
    2048 MACs and "over 100,000" swept points for the Figure 15 study.
    """
    space = DesignSpace()
    return Table2Data(
        space=space,
        granularity_configs_2048=len(space.computation_configs(2048)),
        granularity_configs_4096=len(space.computation_configs(4096)),
        sweep_size_4096=space.sweep_size(4096),
    )
