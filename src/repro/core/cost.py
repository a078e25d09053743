"""The C3P evaluation engine: energy, runtime, area, EDP for one mapping.

This is the module the paper's Figure 9 calls the "cost analysis" block: it
converts the traffic assembly into pico-joules with the Table I / Figure 10
energy laws, and the loop nest into cycles with the utilization model
("runtime is decided by the total number of MAC units and the utilization").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.arch.area import AreaModel
from repro.arch.config import HardwareConfig
from repro.arch.energy import EnergyModel
from repro.core.loopnest import LoopNest
from repro.core.mapping import Mapping
from repro.core.traffic import TrafficReport, compute_traffic
from repro.workloads.layer import ConvLayer, ceil_div


class InvalidMappingError(ValueError):
    """The mapping is illegal for the given layer and hardware."""


@dataclass(frozen=True)
class EnergyBreakdown:
    """Layer energy by component, in pico-joules.

    The categories match the stacked bars of Figures 11-12: DRAM, die-to-die,
    A-L2, O-L2, A-L1, W-L1, O-L1 (register file) and MAC.
    """

    dram_pj: float
    d2d_pj: float
    a_l2_pj: float
    o_l2_pj: float
    a_l1_pj: float
    w_l1_pj: float
    rf_pj: float
    mac_pj: float

    @property
    def total_pj(self) -> float:
        """Total layer energy."""
        return (
            self.dram_pj
            + self.d2d_pj
            + self.a_l2_pj
            + self.o_l2_pj
            + self.a_l1_pj
            + self.w_l1_pj
            + self.rf_pj
            + self.mac_pj
        )

    def __iter__(self) -> Iterator[float]:
        """The components in field order: a row :meth:`fsum` sums."""
        return iter((
            self.dram_pj, self.d2d_pj, self.a_l2_pj, self.o_l2_pj,
            self.a_l1_pj, self.w_l1_pj, self.rf_pj, self.mac_pj,
        ))

    def as_dict(self) -> dict[str, float]:
        """Ordered component -> pJ mapping for reports."""
        return {
            "dram": self.dram_pj,
            "d2d": self.d2d_pj,
            "a_l2": self.a_l2_pj,
            "o_l2": self.o_l2_pj,
            "a_l1": self.a_l1_pj,
            "w_l1": self.w_l1_pj,
            "rf": self.rf_pj,
            "mac": self.mac_pj,
        }

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            dram_pj=self.dram_pj + other.dram_pj,
            d2d_pj=self.d2d_pj + other.d2d_pj,
            a_l2_pj=self.a_l2_pj + other.a_l2_pj,
            o_l2_pj=self.o_l2_pj + other.o_l2_pj,
            a_l1_pj=self.a_l1_pj + other.a_l1_pj,
            w_l1_pj=self.w_l1_pj + other.w_l1_pj,
            rf_pj=self.rf_pj + other.rf_pj,
            mac_pj=self.mac_pj + other.mac_pj,
        )

    @staticmethod
    def zero() -> "EnergyBreakdown":
        """An all-zero breakdown (sum identity)."""
        return EnergyBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def fsum(rows: Iterable[Iterable[float]]) -> "EnergyBreakdown":
        """Order-independent component-wise total via :func:`math.fsum`.

        Each row is an :class:`EnergyBreakdown` or its eight components in
        field order (a batch-kernel winner record's ``energy``).  Repeated
        ``__add__`` is a naive left fold, so the total depends on the
        summand order (float addition is not associative).  Compensated
        summation returns the correctly rounded component sums, making
        model- and sweep-level totals permutation invariant -- the same fix
        the Figure 10 :class:`~repro.arch.memory.LinearFit` needed, and why
        a total summed from winner records equals one summed from their
        reports bit for bit.
        """
        columns = list(zip(*rows))
        if not columns:
            return EnergyBreakdown.zero()
        return EnergyBreakdown(*map(math.fsum, columns))


@dataclass(frozen=True)
class CostReport:
    """Full evaluation of one (layer, hardware, mapping) triple."""

    layer: ConvLayer
    mapping: Mapping
    energy: EnergyBreakdown
    traffic: TrafficReport
    cycles: int
    utilization: float
    o_l2_bytes: int

    @property
    def energy_pj(self) -> float:
        """Total energy in pico-joules."""
        return self.energy.total_pj

    def movement_pj(self, hw: HardwareConfig) -> float:
        """Data-movement energy: total minus the dataflow-invariant terms."""
        return max(
            self.energy_pj - intrinsic_compute_energy_pj(self.layer, hw), 0.0
        )

    def runtime_s(self, hw: HardwareConfig) -> float:
        """Runtime in seconds at the technology's clock."""
        return self.cycles * hw.tech.cycle_time_ns() * 1e-9

    def edp(self, hw: HardwareConfig) -> float:
        """Energy-delay product in joule-seconds."""
        return self.energy_pj * 1e-12 * self.runtime_s(hw)


def intrinsic_compute_energy_pj(layer: ConvLayer, hw: HardwareConfig) -> float:
    """The dataflow-invariant compute-side energy of one layer.

    MAC operations, per-cycle O-L1 partial-sum read-modify-writes and
    per-cycle A-L1 operand reads are identical for every mapping and for the
    Simba baseline (same PE array, same WS core).  The paper's comparison
    "primarily count[s] the memory write/read operations coupled with the
    die-to-die communication", so benchmarks report savings both on totals
    and on the data-movement remainder (total minus this term).
    """
    model = EnergyModel(hw)
    tech = hw.tech
    mac = model.mac_energy_pj(layer.macs)
    rf = layer.macs / hw.vector_size * tech.psum_bits * model.rf_rmw_pj_per_bit
    a_l1_read = layer.macs / hw.lanes * tech.data_bits * model.a_l1_pj_per_bit
    return mac + rf + a_l1_read


def o_l2_required_bytes(nest: LoopNest) -> int:
    """O-L2 size matching one chiplet workload's final elements (Section V-C)."""
    elements = nest.tile_ho * nest.tile_wo * nest.tile_co
    return ceil_div(elements * nest.hw.tech.data_bits, 8)


def energy_from_traffic(
    hw: HardwareConfig,
    layer: ConvLayer,
    traffic: TrafficReport,
    o_l2_bytes: int,
) -> EnergyBreakdown:
    """Convert a traffic report into the per-component energy breakdown."""
    model = EnergyModel(hw)
    o_l2_pj_bit = model.o_l2_pj_per_bit(o_l2_bytes)
    return EnergyBreakdown(
        dram_pj=model.dram_energy_pj(traffic.dram_bits),
        d2d_pj=model.d2d_energy_pj(traffic.d2d_bit_hops),
        a_l2_pj=(traffic.a_l2_write_bits + traffic.a_l2_read_bits)
        * model.a_l2_pj_per_bit,
        o_l2_pj=(traffic.o_l2_write_bits + traffic.o_l2_read_bits) * o_l2_pj_bit,
        a_l1_pj=(traffic.a_l1_write_bits + traffic.a_l1_read_bits)
        * model.a_l1_pj_per_bit,
        w_l1_pj=(traffic.w_l1_write_bits + traffic.w_l1_read_bits)
        * model.w_l1_pj_per_bit,
        rf_pj=(traffic.rf_rmw_bits + traffic.rf_drain_bits) * model.rf_rmw_pj_per_bit,
        mac_pj=model.mac_energy_pj(layer.macs),
    )


def evaluate_mapping(
    layer: ConvLayer, hw: HardwareConfig, mapping: Mapping
) -> CostReport:
    """Evaluate one mapping end to end.

    Raises:
        InvalidMappingError: When the mapping is illegal for this layer and
            hardware (the mapper filters these before calling).
    """
    nest = LoopNest(layer=layer, hw=hw, mapping=mapping)
    errors = nest.validity_errors()
    if errors:
        raise InvalidMappingError("; ".join(errors))
    traffic, _ = compute_traffic(nest)
    o_l2_bytes = o_l2_required_bytes(nest)
    energy = energy_from_traffic(hw, layer, traffic, o_l2_bytes)
    return CostReport(
        layer=layer,
        mapping=mapping,
        energy=energy,
        traffic=traffic,
        cycles=nest.total_cycles(),
        utilization=nest.utilization(),
        o_l2_bytes=o_l2_bytes,
    )


def model_cost(
    reports: list[CostReport], hw: HardwareConfig
) -> tuple[EnergyBreakdown, int, float]:
    """Aggregate per-layer reports into model totals.

    Reads each report's ``energy`` row and ``cycles`` only, so a search's
    batch-kernel winner records (:class:`repro.core.batch.Winner`) total
    to the same bits without building their reports.

    Returns:
        ``(energy_breakdown, total_cycles, edp_joule_seconds)``.
    """
    if not reports:
        raise ValueError("reports must be non-empty")
    energy = EnergyBreakdown.fsum(report.energy for report in reports)
    cycles = sum(report.cycles for report in reports)
    runtime_s = cycles * hw.tech.cycle_time_ns() * 1e-9
    edp = energy.total_pj * 1e-12 * runtime_s
    return energy, cycles, edp


def chiplet_area_mm2(hw: HardwareConfig, o_l2_bytes: int = 0) -> float:
    """Chiplet area with the workload-resolved O-L2 size."""
    return AreaModel(hw, o_l2_default_bytes=o_l2_bytes).chiplet_area_mm2()
