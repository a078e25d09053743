"""Three-level hardware description: core, chiplet, package.

This is the paper's "universal and concise hardware model" (Section III):

* **Core** -- ``L`` lanes of ``P``-wide vector MACs with weight-stationary
  dataflow; A-L1 and W-L1 double-buffered SRAMs; O-L1 register file holding
  24-bit partial sums with single-cycle read-modify-write.
* **Chiplet** -- ``N_C`` cores, a shared A-L2 activation buffer, an O-L2
  output buffer, a central multicast bus, and a GRS die-to-die PHY.
* **Package** -- ``N_P`` chiplets on a directional ring, attached to ``N_P``
  DRAMs through a crossbar.

Presets reproduce the configurations the paper evaluates (the Section VI-A
case study and the Simba-comparable setup).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.arch.memory import RegisterFileModel, SramModel
from repro.arch.technology import DEFAULT_TECHNOLOGY, TechnologyParams
from repro.arch.topology import Topology

KB = 1024


@dataclass(frozen=True)
class MemoryConfig:
    """Buffer capacities of one core plus the chiplet-shared levels.

    Attributes:
        a_l1_bytes: Per-core activation L1 SRAM (double-buffered pair counted
            as one logical capacity, as in the paper's Table II ranges).
        w_l1_bytes: Per-core weight L1 SRAM.
        o_l1_bytes: Per-core output register file (holds 24-bit partial sums).
        a_l2_bytes: Chiplet-shared activation L2 SRAM.
        o_l2_bytes: Chiplet-shared output buffer; the paper sizes it to the
            final elements of a single chiplet workload, so ``0`` means
            "auto-size to the workload" and is resolved by the cost model.
    """

    a_l1_bytes: int
    w_l1_bytes: int
    o_l1_bytes: int
    a_l2_bytes: int
    o_l2_bytes: int = 0

    def __post_init__(self) -> None:
        for name in ("a_l1_bytes", "w_l1_bytes", "o_l1_bytes", "a_l2_bytes", "o_l2_bytes"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class CoreConfig:
    """One accelerator core: an ``L x P`` vector-MAC array.

    Attributes:
        lanes: ``L`` -- output channels computed in parallel.
        vector_size: ``P`` -- input channels reduced per lane per cycle.
    """

    lanes: int
    vector_size: int

    def __post_init__(self) -> None:
        # ``not >= 1`` also refuses NaN, which compares false both ways.
        if not self.lanes >= 1:
            raise ValueError(f"lanes must be >= 1, got {self.lanes}")
        if not self.vector_size >= 1:
            raise ValueError(f"vector_size must be >= 1, got {self.vector_size}")

    @property
    def macs(self) -> int:
        """MAC units in the core (L * P)."""
        return self.lanes * self.vector_size


@dataclass(frozen=True)
class ChipletConfig:
    """One chiplet: ``N_C`` identical cores plus shared buffers."""

    cores: int
    core: CoreConfig

    def __post_init__(self) -> None:
        if not self.cores >= 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")

    @property
    def macs(self) -> int:
        """MAC units in the chiplet."""
        return self.cores * self.core.macs


@dataclass(frozen=True)
class PackageConfig:
    """The package: ``N_P`` chiplets with N_P DRAMs behind a crossbar.

    The interconnect defaults to the paper's directional ring (1-to-8
    chiplets); the mesh extension covers tens of chiplets (DESIGN.md).
    """

    chiplets: int
    chiplet: ChipletConfig
    topology: Topology = Topology.RING

    def __post_init__(self) -> None:
        if not self.chiplets >= 1:
            raise ValueError(f"chiplets must be >= 1, got {self.chiplets}")

    @property
    def macs(self) -> int:
        """MAC units in the whole package."""
        return self.chiplets * self.chiplet.macs


@dataclass(frozen=True)
class HardwareConfig:
    """A complete multichip accelerator instance.

    Combines the structural hierarchy, the buffer capacities, and the
    technology point.  This object is what the mapper and the DSE evaluate.
    """

    package: PackageConfig
    memory: MemoryConfig
    tech: TechnologyParams = DEFAULT_TECHNOLOGY
    name: str = ""

    # --- structural shorthand -------------------------------------------------

    @property
    def n_chiplets(self) -> int:
        """N_P: chiplets on the package."""
        return self.package.chiplets

    @property
    def n_cores(self) -> int:
        """N_C: cores per chiplet."""
        return self.package.chiplet.cores

    @property
    def lanes(self) -> int:
        """L: lanes per core."""
        return self.package.chiplet.core.lanes

    @property
    def vector_size(self) -> int:
        """P: vector-MAC width."""
        return self.package.chiplet.core.vector_size

    @property
    def topology(self) -> Topology:
        """The package interconnect topology."""
        return self.package.topology

    @property
    def total_macs(self) -> int:
        """Total MAC units in the package."""
        return self.package.macs

    def config_tuple(self) -> tuple[int, int, int, int]:
        """The paper's ``(chiplet, core, lane, vector-size)`` x-axis tuple."""
        return (self.n_chiplets, self.n_cores, self.lanes, self.vector_size)

    def label(self) -> str:
        """Human label, e.g. ``4-4-16-8`` as printed on the Figure 14 axis."""
        return "-".join(str(v) for v in self.config_tuple())

    # --- memory macros ----------------------------------------------------------

    def a_l1(self) -> SramModel:
        """Per-core activation L1 macro."""
        return SramModel(self.memory.a_l1_bytes, self.tech)

    def w_l1(self) -> SramModel:
        """Per-core weight L1 macro."""
        return SramModel(self.memory.w_l1_bytes, self.tech)

    def o_l1(self) -> RegisterFileModel:
        """Per-core partial-sum register file."""
        return RegisterFileModel(self.memory.o_l1_bytes, self.tech)

    def a_l2(self) -> SramModel:
        """Chiplet-shared activation L2 macro."""
        return SramModel(self.memory.a_l2_bytes, self.tech)

    def o_l2(self, size_bytes: int | None = None) -> SramModel:
        """Chiplet output buffer, auto-sized when the config says 0.

        Args:
            size_bytes: Workload-resolved size when ``memory.o_l2_bytes == 0``.
        """
        resolved = self.memory.o_l2_bytes or (size_bytes or 0)
        return SramModel(resolved, self.tech)

    def o_l1_psum_capacity(self) -> int:
        """How many partial sums (psum_bits wide) fit in one O-L1."""
        psum_bytes = self.tech.psum_bits / 8.0
        return int(self.memory.o_l1_bytes / psum_bytes)

    def with_memory(self, memory: MemoryConfig) -> "HardwareConfig":
        """Return a copy with a different memory allocation."""
        return replace(self, memory=memory)


# --- presets ---------------------------------------------------------------------


def case_study_hardware(tech: TechnologyParams = DEFAULT_TECHNOLOGY) -> HardwareConfig:
    """The Section VI-A case-study machine.

    "4 chiplets, 8 cores, 8 lanes of 8-size vector MAC, 1.5KB O-L1, 800B A-L1,
    18KB W-L1 and 64KB A-L2."
    """
    core = CoreConfig(lanes=8, vector_size=8)
    chiplet = ChipletConfig(cores=8, core=core)
    package = PackageConfig(chiplets=4, chiplet=chiplet)
    memory = MemoryConfig(
        a_l1_bytes=800,
        w_l1_bytes=18 * KB,
        o_l1_bytes=1536,
        a_l2_bytes=64 * KB,
    )
    return HardwareConfig(package=package, memory=memory, tech=tech, name="case-study-4x8x8x8")


def simba_like_hardware(tech: TechnologyParams = DEFAULT_TECHNOLOGY) -> HardwareConfig:
    """A 4-chiplet Simba prototype with the same resources as the case study.

    The paper's comparison configures Simba "with the same memory and
    computation resources" as the NN-Baton model, so the baseline shares this
    structure and differs only in dataflow (see :mod:`repro.simba`).
    """
    hw = case_study_hardware(tech)
    return replace(hw, name="simba-like-4chiplet")


def proportional_memory(
    package: PackageConfig,
    tech: TechnologyParams = DEFAULT_TECHNOLOGY,
) -> MemoryConfig:
    """Buffer sizes proportional to the computation resources.

    Used by the Figure 14 granularity study: "We assemble the memory hierarchy
    with buffer sizes proportional to the computation resources."  Each buffer
    scales with the MAC count of the level it serves, anchored to the
    case-study machine (a 64-MAC core carries 18 KB W-L1, 800 B A-L1 and
    1.5 KB O-L1; a 512-MAC chiplet carries 64 KB A-L2), so a chiplet's memory
    footprint tracks its compute footprint -- the proportionality that makes
    single-chiplet 2048-MAC designs violate the 2 mm^2 budget.
    """
    core = package.chiplet.core
    core_scale = core.macs / 64
    chiplet_scale = package.chiplet.macs / 512
    a_l1 = max(128, int(800 * core_scale))
    w_l1 = max(2 * KB, int(18 * KB * core_scale))
    o_l1 = max(48, int(1536 * core_scale))
    a_l2 = max(8 * KB, int(64 * KB * chiplet_scale))
    return MemoryConfig(
        a_l1_bytes=a_l1,
        w_l1_bytes=w_l1,
        o_l1_bytes=o_l1,
        a_l2_bytes=a_l2,
    )


def build_hardware(
    chiplets: int,
    cores: int,
    lanes: int,
    vector_size: int,
    memory: MemoryConfig | None = None,
    tech: TechnologyParams = DEFAULT_TECHNOLOGY,
    name: str = "",
    topology: Topology = Topology.RING,
) -> HardwareConfig:
    """Convenience constructor from the four computation dimensions.

    When ``memory`` is omitted, buffers are assembled proportionally to the
    computation resources (the Figure 14 policy).
    """
    package = PackageConfig(
        chiplets=chiplets,
        chiplet=ChipletConfig(cores=cores, core=CoreConfig(lanes=lanes, vector_size=vector_size)),
        topology=topology,
    )
    mem = memory if memory is not None else proportional_memory(package, tech)
    label = name or f"{chiplets}-{cores}-{lanes}-{vector_size}"
    return HardwareConfig(package=package, memory=mem, tech=tech, name=label)
