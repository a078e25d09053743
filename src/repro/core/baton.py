"""The NN-Baton facade: pre-design and post-design flows (Figure 9).

``NNBaton`` ties the mapping analysis engine, the C3P evaluation engine and
the hardware DSE together behind the two entry points the paper describes:

* :meth:`NNBaton.post_design` -- "a detailed mapping strategy for deploying
  the model on hardware with spatial and temporal primitives" for a fixed
  configuration.
* :meth:`NNBaton.pre_design` -- "decide the chiplet granularity and choose an
  appropriate hardware resource scheme" under MAC-count and area budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.arch.config import HardwareConfig
from repro.arch.technology import DEFAULT_TECHNOLOGY, TechnologyParams
from repro.arch.topology import Topology
from repro.core.cost import EnergyBreakdown, model_cost
from repro.core.dse import DesignPoint, DesignSpace, best_point, explore
from repro.core.mapper import LayerMappingResult, Mapper
from repro.core.parallel import TaskPolicy
from repro.core.space import SearchProfile
from repro.workloads.layer import ConvLayer


@dataclass(frozen=True)
class PostDesignResult:
    """Output of the post-design flow for one model."""

    hw: HardwareConfig
    layers: tuple[LayerMappingResult, ...]
    energy: EnergyBreakdown
    cycles: int
    edp_js: float

    @property
    def energy_pj(self) -> float:
        """Total model energy in pico-joules."""
        return self.energy.total_pj

    def runtime_s(self) -> float:
        """Model runtime in seconds."""
        return self.cycles * self.hw.tech.cycle_time_ns() * 1e-9

    def mapping_table(self) -> list[str]:
        """Per-layer mapping strategy lines (the compiler-facing report)."""
        return [
            f"{result.layer.name}: {result.mapping.describe()}"
            for result in self.layers
        ]


@dataclass(frozen=True)
class PreDesignResult:
    """Output of the pre-design flow."""

    points: tuple[DesignPoint, ...]
    recommended: DesignPoint | None
    model: str
    required_macs: int
    max_chiplet_mm2: float | None

    @property
    def valid_points(self) -> list[DesignPoint]:
        """Structurally valid, evaluated design points."""
        return [p for p in self.points if p.valid and p.energy_pj]

    @property
    def swept(self) -> int:
        """Total points swept (including pruned ones)."""
        return len(self.points)


@dataclass
class NNBaton:
    """The automatic tool: workload orchestration + granularity exploration.

    Attributes:
        tech: Technology point for all evaluations.
        profile: Mapping-search pruning profile.
    """

    tech: TechnologyParams = DEFAULT_TECHNOLOGY
    profile: SearchProfile = SearchProfile.EXHAUSTIVE

    def post_design(
        self,
        layers: list[ConvLayer],
        hw: HardwareConfig,
        jobs: int | None = None,
    ) -> PostDesignResult:
        """Map every layer of a model onto a fixed hardware configuration.

        Args:
            layers: The model's layers.
            hw: The machine to map onto.
            jobs: Worker processes for the layer search (``None`` defers to
                ``REPRO_JOBS``, then serial).
        """
        mapper = Mapper(hw=hw, profile=self.profile)
        results = mapper.search_model(layers, jobs=jobs)
        energy, cycles, edp = model_cost([r.best for r in results], hw)
        return PostDesignResult(
            hw=hw,
            layers=tuple(results),
            energy=energy,
            cycles=cycles,
            edp_js=edp,
        )

    def pre_design(
        self,
        models: dict[str, list[ConvLayer]],
        required_macs: int,
        max_chiplet_mm2: float | None = None,
        topology: Topology = Topology.RING,
        space: DesignSpace | None = None,
        objective: str = "edp",
        primary_model: str | None = None,
        memory_stride: int = 1,
        profile: SearchProfile | None = None,
        max_runtime_s: float | None = None,
        jobs: int | None = None,
        policy: TaskPolicy | None = None,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False,
        checkpoint_every: int = 16,
        strategy: str = "exhaustive",
        trials: int | None = None,
        study: str | Path | None = None,
        seed: int = 0,
        progress: Any | None = None,
    ) -> PreDesignResult:
        """Explore the design space and recommend a configuration.

        Args:
            models: Benchmarks driving the exploration.
            required_macs: Exact MAC budget.
            max_chiplet_mm2: Per-chiplet area constraint.
            topology: Package interconnect fabric every swept machine is
                built with (directional ring by default).
            space: Exploration space (Table II by default).
            objective: Recommendation objective (EDP by default, Figure 14).
            primary_model: Model the recommendation optimizes (defaults to
                the first entry of ``models``).
            memory_stride: Memory-sweep subsampling knob.
            profile: Mapping-search profile for the sweep (defaults to FAST;
                large sweeps typically use MINIMAL).
            max_runtime_s: Performance budget on the primary model.
            jobs: Worker processes fanning sweep points out (``None`` defers
                to ``REPRO_JOBS``, then serial); results are bit-identical
                at every worker count.
            policy: Timeout/retry/on-error contract for the sweep fan-out.
            checkpoint_dir: Stream completed points to a sweep checkpoint
                under this directory (see :func:`repro.core.dse.explore`).
            resume: Skip points already answered by the checkpoint.
            checkpoint_every: Completed points buffered per checkpoint flush.
            strategy: ``"exhaustive"`` (default) or ``"guided"`` -- the
                ask/tell optimizer of :mod:`repro.core.search`.
            trials: Guided only -- the full-evaluation budget.
            study: Guided only -- sqlite study path for persistence/resume.
            seed: Guided only -- sampler seed.
            progress: Optional :class:`repro.obs.progress.ProgressMeter`
                updated as the sweep completes points (stderr only).
        """
        points = explore(
            models,
            required_macs=required_macs,
            space=space,
            max_chiplet_mm2=max_chiplet_mm2,
            topology=topology,
            profile=profile or SearchProfile.FAST,
            tech=self.tech,
            memory_stride=memory_stride,
            jobs=jobs,
            policy=policy,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            checkpoint_every=checkpoint_every,
            strategy=strategy,
            trials=trials,
            study=study,
            seed=seed,
            primary_model=primary_model,
            progress=progress,
        )
        model = primary_model or next(iter(models))
        recommended = best_point(
            points,
            model,
            objective=objective,
            max_chiplet_mm2=max_chiplet_mm2,
            max_runtime_s=max_runtime_s,
        )
        return PreDesignResult(
            points=tuple(points),
            recommended=recommended,
            model=model,
            required_macs=required_macs,
            max_chiplet_mm2=max_chiplet_mm2,
        )
