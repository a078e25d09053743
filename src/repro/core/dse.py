"""The pre-design flow: chiplet granularity and resource-allocation DSE.

Implements the two Section VI-B studies:

* :func:`granularity_study` (Figure 14) -- with a required total MAC count,
  enumerate every (chiplets, cores, lanes, vector-size) factorization,
  assemble buffers proportional to the computation resources, and report the
  optimal implementation per chiplet count with and without a per-chiplet
  area constraint, plus the EDP winner.
* :func:`explore` (Figure 15) -- sweep the full Table II space (computation
  dimensions x memory footprints), prune invalid points ("such as the A-L1
  size smaller than A-L2 or the total MAC units less than the required
  quantities"), and evaluate energy/runtime of every valid design with the
  optimal per-layer mapping.

Table II reproduction note: the published O-L1 range (48-144 B) is read as a
per-lane register budget (the case-study machine's 1.5 KB O-L1 across 8
lanes is 192 B/lane, the same order); DESIGN.md section 5 records this
interpretation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.arch.config import MemoryConfig, build_hardware
from repro.arch.technology import DEFAULT_TECHNOLOGY, TechnologyParams
from repro.arch.topology import Topology
# run_search validates every point; the name stays bound here because
# perfbench/tracing.py wraps validation_errors in this module's namespace.
from repro.arch.validate import validation_errors  # noqa: F401
from repro.core.checkpoint import SweepCheckpoint, sweep_digest
from repro.core.mapper import Mapper
from repro.core.parallel import TaskPolicy
from repro.core.search import (
    STRATEGY_NAMES,
    Candidate,
    DesignPoint,
    ExhaustiveStrategy,
    GuidedStrategy,
    run_search,
    sweep_candidates,
)
from repro.core.space import SearchProfile
from repro.errors import UsageError
from repro.workloads.layer import ConvLayer

KB = 1024


class SweepOptionError(UsageError, ValueError):
    """A strategy/option combination :func:`explore` cannot run.

    Still a ``ValueError`` (the historical contract) and a
    :class:`repro.errors.UsageError` (code ``usage``, exit 2).  Messages
    name both the argument and its command-line flag.
    """


@dataclass(frozen=True)
class DesignSpace:
    """The Table II exploration space.

    Computation resources are the published option lists; memory footprints
    are sampled within the published ranges (powers of two plus the
    case-study anchors).
    """

    vector_sizes: tuple[int, ...] = (2, 4, 8, 16)
    lanes: tuple[int, ...] = (2, 4, 8, 16)
    cores: tuple[int, ...] = (1, 2, 4, 8, 16)
    chiplets: tuple[int, ...] = (1, 2, 4, 8)
    o_l1_per_lane_bytes: tuple[int, ...] = (48, 96, 144)
    a_l1_kb: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
    w_l1_kb: tuple[float, ...] = (2, 4, 8, 18, 36, 72, 144, 256)
    a_l2_kb: tuple[float, ...] = (32, 64, 128, 256)

    def computation_configs(
        self, total_macs: int | None = None
    ) -> list[tuple[int, int, int, int]]:
        """All (chiplets, cores, lanes, vector) tuples, optionally filtered
        to an exact total MAC budget.

        For 2048 MACs this yields the paper's "up to 63 possibilities".
        """
        configs = []
        for n_p, n_c, lane, vec in itertools.product(
            self.chiplets, self.cores, self.lanes, self.vector_sizes
        ):
            if total_macs is None or n_p * n_c * lane * vec == total_macs:
                configs.append((n_p, n_c, lane, vec))
        return configs

    def memory_configs(self, lanes: int) -> Iterator[MemoryConfig]:
        """Every memory combination for a core with ``lanes`` lanes.

        Skips hierarchy inversions (A-L2 smaller than A-L1) up front, the
        paper's explicit pruning example.
        """
        for o_l1_pl, a_l1, w_l1, a_l2 in itertools.product(
            self.o_l1_per_lane_bytes, self.a_l1_kb, self.w_l1_kb, self.a_l2_kb
        ):
            if a_l2 < a_l1:
                continue
            yield MemoryConfig(
                a_l1_bytes=int(a_l1 * KB),
                w_l1_bytes=int(w_l1 * KB),
                o_l1_bytes=o_l1_pl * lanes,
                a_l2_bytes=int(a_l2 * KB),
            )

    def sweep_size(self, total_macs: int | None = None) -> int:
        """Number of (computation, memory) points before validity pruning."""
        mem_per_lane = (
            len(self.o_l1_per_lane_bytes) * len(self.w_l1_kb)
        ) * sum(1 for a1 in self.a_l1_kb for a2 in self.a_l2_kb if a2 >= a1)
        return len(self.computation_configs(total_macs)) * mem_per_lane


def granularity_study(
    models: dict[str, list[ConvLayer]],
    total_macs: int = 2048,
    space: DesignSpace | None = None,
    profile: SearchProfile = SearchProfile.FAST,
    tech: TechnologyParams = DEFAULT_TECHNOLOGY,
    jobs: int | None = None,
    policy: TaskPolicy | None = None,
) -> list[DesignPoint]:
    """The Figure 14 study: every factorization of ``total_macs``.

    Buffers are assembled proportionally to the computation resources; every
    point is evaluated on every model with the optimal mapping strategy.
    The factorizations run through :func:`repro.core.search.run_search` as
    one exhaustive round in the ``granularity`` :func:`repro.obs.stage`, so
    they are validated, evaluated and counted like :func:`explore`'s
    points: invalid points (structural rule violations) come back
    unevaluated so callers can report the pruning, and a point whose
    evaluation failed keeps its
    :attr:`~repro.core.search.DesignPoint.failure`, labelled with its task
    key.

    Args:
        models: Benchmarks to evaluate (name -> layers).
        total_macs: Exact MAC budget of every factorization.
        space: Exploration space (defaults to Table II).
        profile: Mapping-search profile per point.
        tech: Technology point.
        jobs: Worker processes fanning factorizations out (``None`` defers
            to ``REPRO_JOBS``, then serial); results are bit-identical at
            every worker count.
        policy: Timeout/retry/on-error contract for the fan-out (defaults
            to abort-on-first-failure).

    Raises:
        ValueError: When ``models`` is empty.
    """
    if not models:
        raise ValueError("models must be non-empty")
    space = space or DesignSpace()
    candidates = [
        Candidate(comp=config, memory=build_hardware(*config, tech=tech).memory)
        for config in space.computation_configs(total_macs)
    ]
    return run_search(
        ExhaustiveStrategy(candidates, stage="granularity"),
        models,
        total_macs,
        None,
        Topology.RING,
        profile,
        tech,
        next(iter(models)),
        jobs=jobs,
        policy=policy,
    )


def best_point(
    points: Iterable[DesignPoint],
    model: str,
    objective: str = "edp",
    max_chiplet_mm2: float | None = None,
    max_runtime_s: float | None = None,
) -> DesignPoint | None:
    """The optimal evaluated point for ``model`` under optional budgets.

    Args:
        points: Candidate design points.
        model: Model name key into each point's results.
        objective: ``"edp"``, ``"energy"`` or ``"runtime"``.
        max_chiplet_mm2: Per-chiplet area constraint, if any.
        max_runtime_s: Performance budget -- points slower than this on
            ``model`` are excluded ("given area and performance budgets",
            Section IV-D).
    """
    scorers = {
        "edp": lambda p: p.edp(model),
        "energy": lambda p: p.energy_pj[model],
        "runtime": lambda p: p.runtime_s(model),
    }
    if objective not in scorers:
        raise ValueError(f"unknown objective {objective!r}")
    eligible = [
        p
        for p in points
        if p.valid
        and model in p.energy_pj
        and (max_chiplet_mm2 is None or p.meets_area(max_chiplet_mm2))
        and (max_runtime_s is None or p.runtime_s(model) <= max_runtime_s)
    ]
    if not eligible:
        return None
    return min(eligible, key=scorers[objective])


def _check_options(
    strategy: str,
    trials: int | None,
    study: str | Path | None,
    memory_stride: int,
    checkpoint_dir: str | Path | None,
    resume: bool,
) -> None:
    """Raise :class:`SweepOptionError` for a combination explore() refuses."""
    if strategy not in STRATEGY_NAMES:
        raise SweepOptionError(
            f"unknown strategy {strategy!r} (--strategy); expected "
            "'exhaustive' or 'guided'"
        )
    if strategy == "guided":
        if trials is None:
            raise SweepOptionError(
                "strategy='guided' requires a trials budget (--trials)"
            )
        if memory_stride != 1:
            raise SweepOptionError(
                "guided search samples the full memory lattice; "
                "memory_stride (--stride) must stay 1"
            )
        if checkpoint_dir is not None or resume:
            raise SweepOptionError(
                "guided search persists through its study file (--study) "
                "and always resumes from it; drop checkpoint_dir/resume "
                "(--checkpoint, --checkpoint-dir, --resume)"
            )
    elif trials is not None or study is not None:
        raise SweepOptionError(
            "trials/study (--trials/--study) only apply to "
            "strategy='guided' (--strategy guided)"
        )
    elif memory_stride < 1:
        raise SweepOptionError(
            f"memory_stride (--stride) must be >= 1, got {memory_stride}"
        )
    elif resume and checkpoint_dir is None:
        raise SweepOptionError(
            "resume=True (--resume) requires a checkpoint_dir (--checkpoint-dir)"
        )


def explore(
    models: dict[str, list[ConvLayer]],
    required_macs: int,
    space: DesignSpace | None = None,
    max_chiplet_mm2: float | None = None,
    topology: Topology = Topology.RING,
    profile: SearchProfile = SearchProfile.FAST,
    tech: TechnologyParams = DEFAULT_TECHNOLOGY,
    memory_stride: int = 1,
    jobs: int | None = None,
    policy: TaskPolicy | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    checkpoint_every: int = 16,
    strategy: str = "exhaustive",
    trials: int | None = None,
    study: str | Path | None = None,
    seed: int = 0,
    primary_model: str | None = None,
    progress: Any | None = None,
) -> list[DesignPoint]:
    """The Figure 15 design-space exploration.

    Sweeps the (computation, memory) combinations of ``space`` whose total
    MAC count equals ``required_macs``, prunes invalid points cheaply, and
    evaluates the survivors with the optimal per-layer mapping.  Both
    strategies run the one ask/tell loop of
    :func:`repro.core.search.run_search`:

    * ``"exhaustive"`` (default) proposes every point (every
      ``memory_stride``-th memory combination) in sweep order;
      ``checkpoint_dir`` makes it resumable.
    * ``"guided"`` samples the full lattice and pays for only ``trials``
      full evaluations; dominance-pruned proposals come back ``valid=False``
      with a labelled error, and ``study`` (a JSONL store file) makes it
      resumable: a re-run answers every trial the file holds.

    Args:
        models: Benchmarks to evaluate (name -> layers).
        required_macs: Exact MAC budget (4096 in the paper's Figure 15).
        space: Exploration space (defaults to Table II).
        max_chiplet_mm2: Points over this area are kept but marked invalid,
            mirroring the paper's constrained/unconstrained split.
        topology: Package interconnect every swept machine uses (the
            paper's directional ring by default; mesh/switch let the sweep
            answer "does the winning granularity survive a fabric change").
        profile: Mapping-search profile for each valid point.
        tech: Technology point.
        memory_stride: Exhaustive only -- evaluate every
            ``memory_stride``-th memory combo, a documented subsampling
            knob for quick runs.
        jobs: Worker processes fanning evaluations out (``None`` defers to
            ``REPRO_JOBS``, then serial).  Returned points are bit-identical
            at every worker count.
        policy: Timeout/retry/on-error contract for the fan-out (defaults
            to abort-on-first-failure, the pre-resilience semantics).
        checkpoint_dir: Exhaustive only -- evaluated points stream to a
            :class:`~repro.core.checkpoint.SweepCheckpoint` under this
            directory, keyed by the sweep digest; the checkpoint is also
            flushed when the sweep is interrupted (``KeyboardInterrupt``).
        resume: Answer every point the checkpoint holds instead of
            re-evaluating it (the same ``checkpoint_dir`` must be supplied);
            the checkpoint holds evaluated points only, so the rest are
            validated again.  Resumed outputs are byte-identical to an
            uninterrupted run.
        checkpoint_every: Evaluated points buffered per checkpoint flush.
        strategy: ``"exhaustive"`` (default) or ``"guided"``.
        trials: Guided only -- the full-evaluation budget (required).
        study: Guided only -- optional store file for resume: the sweep
            checkpoint at this path, its header pinning the digest,
            strategy, seed and trials.
        seed: Guided only -- sampler seed (same seed, same trajectory).
        primary_model: The model whose EDP the search minimizes (defaults
            to the first ``models`` entry); only guided search prunes by it.
        progress: Optional :class:`repro.obs.progress.ProgressMeter`
            updated as points settle (stderr only; never stdout).

    Raises:
        SweepOptionError: For an option the chosen strategy does not take.
        ValueError: When ``models`` is empty.
        KeyError: When ``primary_model`` is not one of ``models``.
    """
    _check_options(strategy, trials, study, memory_stride, checkpoint_dir, resume)
    if not models:
        raise ValueError("models must be non-empty")
    primary = primary_model or next(iter(models))
    if primary not in models:
        raise KeyError(f"primary model {primary!r} not in models")
    space = space or DesignSpace()
    digest = partial(
        sweep_digest,
        models,
        required_macs,
        space,
        max_chiplet_mm2,
        profile,
        tech,
        topology=topology.value,
    )
    store: SweepCheckpoint | None = None
    if strategy == "guided":
        engine = GuidedStrategy(space, required_macs, trials=trials, seed=seed)
        if study is not None:
            study = Path(study)
            store = SweepCheckpoint(
                study.parent,
                digest(1, strategy=engine.name, seed=seed, trials=trials),
                flush_every=checkpoint_every,
                name=study.name,
                meta={"strategy": engine.name, "seed": seed, "trials": trials},
            )
    else:
        engine = ExhaustiveStrategy(
            sweep_candidates(space, required_macs, memory_stride)
        )
        if checkpoint_dir is not None:
            store = SweepCheckpoint(
                SweepCheckpoint.resolve_dir(checkpoint_dir),
                digest(memory_stride),
                flush_every=checkpoint_every,
            )
            if not resume:
                store.reset()
    return run_search(
        engine,
        models,
        required_macs,
        max_chiplet_mm2,
        topology,
        profile,
        tech,
        primary,
        store=store,
        jobs=jobs,
        policy=policy,
        progress=progress,
    )


def refine_with_simulator(
    points: Sequence[DesignPoint],
    models: dict[str, list[ConvLayer]],
    primary_model: str,
    top_k: int = 5,
    profile: SearchProfile = SearchProfile.FAST,
) -> list[DesignPoint]:
    """Re-rank the EDP finalists with discrete-event-simulated runtimes.

    The analytical cycle count ignores DRAM/ring bandwidth; for the ``top_k``
    EDP-best valid points, this re-runs the mapping search, simulates every
    layer's pipeline (:func:`repro.sim.simulate_runtime`) and replaces the
    cycle totals, then returns the finalists re-sorted by simulated EDP.
    Simulated cycles are never below the analytical ones, so refinement can
    only demote bandwidth-starved designs.

    Args:
        points: Evaluated design points (e.g. from :func:`explore`).
        models: The same benchmarks the points were evaluated on.
        primary_model: Model whose EDP picks and orders the finalists.
        top_k: Finalist count.
        profile: Mapping-search profile for the re-run.
    """
    from repro.sim.runtime import simulate_runtime

    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    finalists = sorted(
        (p for p in points if p.valid and primary_model in p.energy_pj),
        key=lambda p: p.edp(primary_model),
    )[:top_k]
    refined: list[DesignPoint] = []
    for point in finalists:
        mapper = Mapper(hw=point.hw, profile=profile)
        cycles: dict[str, int] = {}
        for name, layers in models.items():
            total = 0.0
            for result in mapper.search_model(layers):
                sim = simulate_runtime(result.layer, point.hw, result.mapping)
                total += sim.cycles
            cycles[name] = int(total)
        refined.append(
            DesignPoint(
                hw=point.hw,
                chiplet_area_mm2=point.chiplet_area_mm2,
                valid=point.valid,
                errors=point.errors,
                energy_pj=dict(point.energy_pj),
                cycles=cycles,
            )
        )
    return sorted(refined, key=lambda p: p.edp(primary_model))


def pareto_front(
    points: Sequence[DesignPoint], model: str
) -> list[DesignPoint]:
    """Area/EDP Pareto-optimal subset for one model (lower is better)."""
    evaluated = [p for p in points if p.valid and model in p.energy_pj]
    front: list[DesignPoint] = []
    for candidate in evaluated:
        dominated = any(
            other.chiplet_area_mm2 <= candidate.chiplet_area_mm2
            and other.edp(model) <= candidate.edp(model)
            and (
                other.chiplet_area_mm2 < candidate.chiplet_area_mm2
                or other.edp(model) < candidate.edp(model)
            )
            for other in evaluated
        )
        if not dominated:
            front.append(candidate)
    return sorted(front, key=lambda p: p.chiplet_area_mm2)
