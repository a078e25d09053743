"""Design-space search: one ask/tell loop over the Table II lattice.

:func:`repro.core.dse.explore` sweeps the Figure 15 space through
:func:`run_search`, the one loop every search strategy shares (Section
IV-D): propose design points, drop the ones that break a structural rule,
map every layer of every model onto the rest and score them.  What varies
is the :class:`SearchStrategy` that proposes:

* :class:`ExhaustiveStrategy` -- a fixed list of (computation, memory)
  points, in order, in one round: the Figure 15 sweep
  (:func:`sweep_candidates`), the oracle the guided mode is tested
  against, and Figure 14's factorizations at proportional memory.
* :class:`GuidedStrategy` -- a seeded TPE/SA-style sampler: each lattice
  dimension is drawn from an elite-weighted categorical distribution with
  an annealed uniform-exploration floor, and every batch first proposes the
  unvisited lattice neighbours of the incumbent (simulated-annealing-style
  local polish that makes the exact optimum reachable, not just its basin).
  It pays for only ``trials`` full evaluations, which makes spaces far
  beyond the paper's ~10^4 points tractable.

The loop settles each proposal as **pruned** (:func:`edp_lower_bound`, an
admissible roofline bound on a design's EDP, already exceeds the
incumbent's *actual* EDP, so the point cannot win), **invalid**
(structural rules), **resumed** (answered by a store) or **evaluated**
(fanned out through :func:`repro.core.parallel.run_tasks`, then recorded).
The one store -- the JSONL :class:`~repro.core.checkpoint.SweepCheckpoint`,
opened at the ``--study`` path for a guided search -- therefore holds
evaluated points only.

Determinism: given the same seed, space and models, a run proposes and
evaluates the identical point sequence at every ``--jobs`` count -- the
batch composition depends only on the seeded RNG and the told results, and
:func:`repro.core.parallel.run_tasks` preserves task order.  The pruned /
deduped / evaluated accounting is therefore byte-stable too, which is what
the CI counter gate checks.
"""

from __future__ import annotations

import math
import random
import time
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from repro import obs
from repro.arch.area import AreaModel
from repro.arch.config import HardwareConfig, MemoryConfig, build_hardware
from repro.arch.energy import EnergyModel
from repro.arch.technology import TechnologyParams
from repro.arch.topology import Topology
from repro.arch.validate import validation_errors
from repro.core.checkpoint import StudyConfigError, SweepCheckpoint, task_key
from repro.core.cost import (
    InvalidMappingError,
    intrinsic_compute_energy_pj,
    model_cost,
)
from repro.core.mapper import Mapper, SharedTables
from repro.core.parallel import (
    TaskFailure,
    TaskPolicy,
    is_picklable,
    resolve_jobs,
    run_tasks,
    worker_context,
)
from repro.core.space import SearchProfile
from repro.workloads.layer import ConvLayer

KB = 1024

#: Consecutive sampler collisions before falling back to a canonical scan.
_MAX_SAMPLER_MISSES = 64

#: Strategy names :func:`repro.core.dse.explore` and the CLI accept.
STRATEGY_NAMES = ("exhaustive", "guided")

#: Settled points per ``point.batch`` event of a whole-space round.
#: Emitted parent-side per fixed batch of settled points (never per worker
#: chunk), so the event set of a ``--jobs N`` sweep equals the serial run's.
POINT_BATCH_EVERY = 16

#: A guided search's store: the sweep checkpoint, opened at the ``--study``
#: path.  The name stays importable (``perfbench/tracing.py`` wraps the
#: store's methods under it).
Study = SweepCheckpoint


# --- the admissible EDP lower bound -----------------------------------------------


def edp_lower_bound(hw: HardwareConfig, layers: Sequence[ConvLayer]) -> float:
    """An admissible (never-overestimating) EDP bound for ``layers`` on ``hw``.

    Energy floor -- terms every mapping must pay, whatever the loop nest:

    * the dataflow-invariant compute-side energy
      (:func:`repro.core.cost.intrinsic_compute_energy_pj`: MACs, per-cycle
      O-L1 read-modify-writes, per-cycle A-L1 operand reads);
    * compulsory DRAM traffic -- every weight and output element crosses
      the DRAM boundary at least once (rotation shares data between
      chiplets but still loads each shared bit from DRAM once), and so
      does every *touched* input element: the union input window
      ``input_rows_for(ho) x input_cols_for(wo) x ci``, which is smaller
      than ``input_elements`` when stride exceeds the kernel (disjoint
      windows skip rows) and is capped at ``input_elements`` when padding
      inflates the window span;
    * one compulsory pass of each operand working set through its buffer
      level (reload factors and halos only ever add traffic), priced with
      the size-dependent Figure 10 energies of *this* configuration: every
      weight is written into W-L1 and read into the PE array at least once;
      every touched input is written into A-L2, read out of it, and written
      into A-L1 at least once; every output element transits O-L2 exactly
      once in each direction (priced at the auto-sized buffer's floor
      energy) and drains from the O-L1 register file once at psum width.

    Time floor -- the cost model has no bandwidth stalls, so
    ``cycles >= macs / total_macs`` exactly (utilization <= 1).

    The bound is cheap (no mapping search) yet configuration-sensitive:
    buffer sizes move the per-bit energies, so oversized memories price
    themselves out before the incumbent is ever re-threatened.
    """
    model = EnergyModel(hw)
    data_bits = hw.tech.data_bits
    psum_bits = hw.tech.psum_bits
    o_l2_floor_pj_per_bit = model.o_l2_pj_per_bit(0)
    energy_pj = 0.0
    macs = 0
    for layer in layers:
        touched_inputs = min(
            layer.input_elements,
            layer.input_rows_for(layer.ho)
            * layer.input_cols_for(layer.wo)
            * layer.ci,
        )
        weight_bits = layer.weight_elements * data_bits
        touched_bits = touched_inputs * data_bits
        output_bits = layer.output_elements * data_bits
        energy_pj += intrinsic_compute_energy_pj(layer, hw)
        energy_pj += model.dram_pj_per_bit * (
            touched_bits + weight_bits + output_bits
        )
        energy_pj += model.w_l1_pj_per_bit * 2 * weight_bits
        energy_pj += model.a_l2_pj_per_bit * 2 * touched_bits
        energy_pj += model.a_l1_pj_per_bit * touched_bits
        energy_pj += o_l2_floor_pj_per_bit * 2 * output_bits
        energy_pj += model.rf_rmw_pj_per_bit * layer.output_elements * psum_bits
        macs += layer.macs
    runtime_s = macs / hw.total_macs * hw.tech.cycle_time_ns() * 1e-9
    return energy_pj * 1e-12 * runtime_s


# --- design points and their evaluation --------------------------------------------


@dataclass
class DesignPoint:
    """One evaluated hardware design.

    Attributes:
        hw: The hardware instance.
        chiplet_area_mm2: Area of one chiplet.
        valid: Whether the point passed structural validation and was
            evaluated (pruned, invalid and failed points are not).
        errors: Why the point is not valid (validation messages, the
            pruning bound, a mapping or task failure).
        energy_pj: Per-model total energy (model name -> pJ).
        cycles: Per-model total cycles.
        failure: The :class:`~repro.core.parallel.TaskFailure` of an
            evaluation that exhausted its retries, restated with the
            point's index in the returned list and its label.
    """

    hw: HardwareConfig
    chiplet_area_mm2: float
    valid: bool
    errors: tuple[str, ...] = ()
    energy_pj: dict[str, float] = field(default_factory=dict)
    cycles: dict[str, int] = field(default_factory=dict)
    failure: TaskFailure | None = None

    @property
    def label(self) -> str:
        """The (chiplet, core, lane, vector) tuple label."""
        return self.hw.label()

    def runtime_s(self, model: str) -> float:
        """Model runtime in seconds."""
        return self.cycles[model] * self.hw.tech.cycle_time_ns() * 1e-9

    def edp(self, model: str) -> float:
        """Model energy-delay product in joule-seconds."""
        return self.energy_pj[model] * 1e-12 * self.runtime_s(model)

    def meets_area(self, max_chiplet_mm2: float) -> bool:
        """Whether the chiplet fits the area budget."""
        return self.chiplet_area_mm2 <= max_chiplet_mm2


def _evaluate_point(
    hw: HardwareConfig,
    models: dict[str, list[ConvLayer]],
    profile: SearchProfile,
    tables: SharedTables | None = None,
) -> tuple[dict[str, float], dict[str, int], tuple[int, int]]:
    """Optimal-mapping energy and cycles of every model on ``hw``.

    Returns the per-model energy and cycle dicts plus the mapping-cache
    (hits, misses) counters of the point's search.  The layer search runs
    in this process, as every map does: the sweep fans out across design
    points.  ``tables`` shares candidate tables with the sweep's other points.
    Each model's totals are summed from its layers' winner records
    (:attr:`~repro.core.mapper.LayerMappingResult.winner`), so a point
    builds no per-layer report.
    """
    energy: dict[str, float] = {}
    cycles: dict[str, int] = {}
    mapper = Mapper(hw=hw, profile=profile, tables=tables)
    for name, layers in models.items():
        results = mapper.search_model(layers)
        breakdown, total_cycles, _ = model_cost([r.winner for r in results], hw)
        energy[name] = breakdown.total_pj
        cycles[name] = total_cycles
    return energy, cycles, (mapper.cache.hits, mapper.cache.misses)


def _evaluate_task(hw: HardwareConfig) -> dict[str, Any]:
    """Worker: map every model onto one structurally valid design point.

    Context: ``(models, profile, tables)``, ``tables`` being the run's
    :class:`~repro.core.mapper.SharedTables` (each pool worker gets its own
    copy).  Returns the point's evaluation record, the JSON-safe dict a
    store persists and :func:`_apply_record` reads back.  A point no
    mapping fits comes back ``valid=False`` with the mapper's message: that
    is an answer, not a task failure.
    """
    models, profile, tables = worker_context()
    start = time.perf_counter()
    try:
        energy, cycles, (hits, misses) = _evaluate_point(hw, models, profile, tables)
        valid, errors = True, []
    except InvalidMappingError as exc:
        energy, cycles, hits, misses = {}, {}, 0, 0
        valid, errors = False, [str(exc)]
    obs.histogram("dse.point_eval_ms", (time.perf_counter() - start) * 1e3)
    return {
        "valid": valid,
        "errors": errors,
        "energy_pj": energy,
        "cycles": cycles,
        "hits": hits,
        "misses": misses,
    }


def _apply_record(
    point: DesignPoint, record: dict[str, Any]
) -> tuple[int, int] | None:
    """Fill ``point`` from an evaluation record; return its (hits, misses).

    Returns ``None`` and leaves ``point`` untouched on a malformed record,
    so a damaged store entry is re-evaluated rather than trusted.
    """
    try:
        answer = (
            bool(record["valid"]),
            tuple(str(e) for e in record["errors"]),
            {str(k): float(v) for k, v in record["energy_pj"].items()},
            {str(k): int(v) for k, v in record["cycles"].items()},
        )
        cache = (int(record["hits"]), int(record["misses"]))
    except (KeyError, TypeError, ValueError, AttributeError):
        return None
    point.valid, point.errors, point.energy_pj, point.cycles = answer
    return cache


def _finish_point(point: DesignPoint, outcome: Any, index: int, label: str) -> None:
    """Fill ``point`` from one :func:`_evaluate_task` outcome.

    ``outcome`` is the worker's record, or the
    :class:`~repro.core.parallel.TaskFailure` of a task that exhausted its
    retries: the point stays invalid, labelled with the failure, which it
    keeps restated as the point at ``index`` named ``label``.
    """
    if isinstance(outcome, TaskFailure):
        point.errors = (
            f"evaluation failed ({outcome.error_type}) after "
            f"{outcome.attempts} attempt(s): {outcome.error}",
        )
        point.failure = replace(outcome, index=index, label=label)
        return
    _apply_record(point, outcome)


# --- candidates and trials ---------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    """One proposed design point: a computation config plus a memory config.

    Attributes:
        comp: ``(chiplets, cores, lanes, vector)``.
        memory: The resolved :class:`~repro.arch.config.MemoryConfig`.
        index: The lattice index ``(comp, o_l1, a_l1, w_l1, a_l2)`` the
            strategy proposed (kept so strategies can reason in index
            space); ``None`` off the lattice (Figure 14's proportional
            memory).
    """

    comp: tuple[int, int, int, int]
    memory: MemoryConfig
    index: tuple[int, int, int, int, int] | None = None

    @property
    def key(self) -> str:
        """The canonical task key (shared with the sweep checkpoint)."""
        return task_key((*self.comp, self.memory))


@dataclass(frozen=True)
class Trial:
    """One told result: a candidate plus what happened to it.

    ``status`` is one of ``"evaluated"`` (fresh full evaluation),
    ``"resumed"`` (answered by the store), ``"pruned"`` (dominance bound
    beat the incumbent), ``"invalid"`` (failed structural validation) or
    ``"failed"`` (task exhausted its retries).  ``edp`` is the
    primary-model EDP of a valid evaluated/resumed trial, else ``None``.
    """

    candidate: Candidate
    status: str
    point: DesignPoint | None
    edp: float | None = None

    @property
    def charged(self) -> bool:
        """Whether this trial consumes the full-evaluation budget."""
        return self.status in ("evaluated", "resumed", "failed")


# --- the lattice -------------------------------------------------------------------


class Lattice:
    """Index-space view of a :class:`~repro.core.dse.DesignSpace`.

    Five dimensions: the computation-config list (filtered to the MAC
    budget) and the four memory option lists.  The ``a_l2 >= a_l1``
    hierarchy rule is enforced by :meth:`repair`, mirroring the filter
    :meth:`~repro.core.dse.DesignSpace.memory_configs` applies.
    """

    def __init__(self, space: Any, required_macs: int) -> None:
        self.space = space
        self.comp: list[tuple[int, int, int, int]] = space.computation_configs(
            required_macs
        )
        if not self.comp:
            raise ValueError(
                f"no (chiplets, cores, lanes, vector) factorization of "
                f"{required_macs} MACs in the design space"
            )
        self.o1 = list(space.o_l1_per_lane_bytes)
        self.a1 = list(space.a_l1_kb)
        self.w1 = list(space.w_l1_kb)
        self.a2 = list(space.a_l2_kb)
        self.dims = (
            len(self.comp), len(self.o1), len(self.a1), len(self.w1), len(self.a2)
        )

    def size(self) -> int:
        """Legal lattice points (after the ``a_l2 >= a_l1`` filter)."""
        legal_pairs = sum(
            1 for a1 in self.a1 for a2 in self.a2 if a2 >= a1
        )
        return len(self.comp) * len(self.o1) * len(self.w1) * legal_pairs

    def repair(
        self, index: tuple[int, int, int, int, int]
    ) -> tuple[int, int, int, int, int] | None:
        """Bump ``a_l2`` up to the smallest legal option, or ``None``."""
        ci, oi, ai, wi, a2i = index
        if self.a2[a2i] >= self.a1[ai]:
            return index
        for j in range(a2i + 1, len(self.a2)):
            if self.a2[j] >= self.a1[ai]:
                return (ci, oi, ai, wi, j)
        return None

    def candidate(self, index: tuple[int, int, int, int, int]) -> Candidate:
        """Materialize the hardware-facing candidate of one lattice index."""
        ci, oi, ai, wi, a2i = index
        comp = self.comp[ci]
        _n_p, _n_c, lane, _vec = comp
        memory = MemoryConfig(
            a_l1_bytes=int(self.a1[ai] * KB),
            w_l1_bytes=int(self.w1[wi] * KB),
            o_l1_bytes=self.o1[oi] * lane,
            a_l2_bytes=int(self.a2[a2i] * KB),
        )
        return Candidate(comp=comp, memory=memory, index=index)

    def neighbours(
        self, index: tuple[int, int, int, int, int]
    ) -> list[tuple[int, int, int, int, int]]:
        """The polish neighbourhood of ``index``, deterministic order.

        One +/-1 step per dimension (repaired), then every alternative
        computation config at the incumbent's memory footprint -- the best
        memory sizing transfers across factorizations far more often than
        the reverse, so the cross-sweep is cheap insurance that the exact
        optimum, not just its granularity class, is reached.
        """
        out: list[tuple[int, int, int, int, int]] = []
        seen = set()
        for dim in range(5):
            for step in (-1, 1):
                probe = list(index)
                probe[dim] += step
                if not 0 <= probe[dim] < self.dims[dim]:
                    continue
                fixed = self.repair(tuple(probe))
                if fixed is not None and fixed != index and fixed not in seen:
                    seen.add(fixed)
                    out.append(fixed)
        for ci in range(self.dims[0]):
            probe = (ci,) + index[1:]
            if probe != index and probe not in seen:
                seen.add(probe)
                out.append(probe)
        return out

    def scan(self) -> "list[tuple[int, int, int, int, int]]":
        """Every legal index in canonical (sweep-like) order."""
        out = []
        for ci in range(self.dims[0]):
            for oi in range(self.dims[1]):
                for ai in range(self.dims[2]):
                    for wi in range(self.dims[3]):
                        for a2i in range(self.dims[4]):
                            if self.a2[a2i] >= self.a1[ai]:
                                out.append((ci, oi, ai, wi, a2i))
        return out


# --- the strategy interface --------------------------------------------------------


class SearchStrategy(ABC):
    """The ask/tell contract :func:`run_search` speaks.

    A strategy owns *what to try next*; the loop owns evaluation,
    pruning, persistence and accounting.  Implementations must be
    deterministic functions of their constructor arguments and the told
    trial sequence -- no wall-clock, no global RNG.

    The base class keeps what the loop reads: :attr:`budget` (proposals
    an exhaustive strategy makes, or the trials a budgeted one may pay
    for), :attr:`spent` (told trials that consumed the budget),
    :attr:`deduped` (proposals a strategy dropped as duplicates), and the
    incumbent -- the best told candidate and its primary-model EDP,
    against which the loop prunes.
    """

    name: str = "strategy"
    #: Proposals per ask/tell round.  ``None`` proposes the whole space in
    #: one round: nothing is told before every point has settled, so such a
    #: strategy is never pruned, and the loop reports its progress per
    #: settled point instead of once at the round's end.
    batch_size: int | None = None
    #: Telemetry labels: the ``op`` of the ``run.start``/``run.finish``
    #: events, the stage timer, and the ``run.start`` field naming
    #: :attr:`budget`.
    op = "explore"
    stage = "explore"
    budget_field = "points"

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.spent = 0
        self.deduped = 0
        self.incumbent: Candidate | None = None
        self.incumbent_edp = math.inf

    @abstractmethod
    def ask(self, n: int | None = None) -> list[Candidate]:
        """Propose up to ``n`` never-before-proposed candidates.

        ``None`` asks for the strategy's next round.
        """

    def tell(self, trials: Sequence[Trial]) -> None:
        """Record a round of outcomes (in proposal order)."""
        for trial in trials:
            if trial.charged:
                self.spent += 1
            if trial.edp is not None and trial.edp < self.incumbent_edp:
                self.incumbent_edp = trial.edp
                self.incumbent = trial.candidate

    @abstractmethod
    def finished(self) -> bool:
        """Whether the search is out of budget or out of space."""


def sweep_candidates(
    space: Any, required_macs: int, memory_stride: int = 1
) -> list[Candidate]:
    """The Figure 15 sweep: every point of the space, in sweep order.

    Every computation config of the MAC budget crossed with every
    ``memory_stride``-th legal memory combination -- the order of
    :meth:`~repro.core.dse.DesignSpace.computation_configs` x
    :meth:`~repro.core.dse.DesignSpace.memory_configs`.  A MAC budget no
    computation config factorizes yields nothing.
    """
    if memory_stride < 1:
        raise ValueError(f"memory_stride must be >= 1, got {memory_stride}")
    if not space.computation_configs(required_macs):
        return []
    lattice = Lattice(space, required_macs)
    memory = [index[1:] for index in lattice.scan() if index[0] == 0]
    return [
        lattice.candidate((ci, *mem))
        for ci in range(lattice.dims[0])
        for mem in memory[::memory_stride]
    ]


class ExhaustiveStrategy(SearchStrategy):
    """Every candidate of a fixed list, in order, all in one round.

    :func:`repro.core.dse.explore` proposes the Figure 15 sweep
    (:func:`sweep_candidates`); :func:`repro.core.dse.granularity_study`
    proposes Figure 14's factorizations, under its own ``stage`` (the
    ``op`` of its run events and its stage timer).
    """

    name = "exhaustive"

    def __init__(
        self, candidates: Sequence[Candidate], stage: str = "explore"
    ) -> None:
        super().__init__(budget=len(candidates))
        self._queue = list(candidates)
        self._cursor = 0
        self.op = self.stage = stage

    def ask(self, n: int | None = None) -> list[Candidate]:
        stop = len(self._queue) if n is None else self._cursor + n
        batch = self._queue[self._cursor : stop]
        self._cursor += len(batch)
        return batch

    def finished(self) -> bool:
        return self._cursor >= len(self._queue)


class GuidedStrategy(SearchStrategy):
    """Seeded TPE/SA-style sampler with incumbent polish.

    Sampling: each lattice dimension is drawn independently.  With an
    annealed exploration probability the draw is uniform; otherwise it is
    categorical with weights ``1 + (occurrences among the elite trials)``
    -- the Laplace-smoothed "good region" estimate TPE keeps, over the
    top ``elite_fraction`` of evaluated trials by primary-model EDP.  The
    exploration probability decays linearly from 1 to ``explore_floor``
    as the budget is spent (the SA-style cooling schedule).

    Polish: every ``ask`` first proposes the unvisited lattice neighbours
    of the incumbent, so the loop hill-climbs to an exact local optimum
    while the sampler keeps seeding new basins.

    Dedup: a sampler draw that lands on an already-proposed index is a
    *collision*; collisions are counted (:attr:`deduped`) and re-drawn,
    so no design point is ever evaluated twice within a study.

    Rounds hold :attr:`batch_size` proposals (fewer once the budget is
    nearly spent), fixed independent of ``--jobs`` so the trajectory is
    identical at every worker count.
    """

    name = "guided"
    batch_size = 8
    elite_fraction = 0.2
    explore_floor = 0.15
    op = "guided_explore"
    stage = "guided"
    budget_field = "trials"

    def __init__(
        self, space: Any, required_macs: int, trials: int, seed: int = 0
    ) -> None:
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        super().__init__(budget=trials)
        self.lattice = Lattice(space, required_macs)
        self.seed = seed
        self.rng = random.Random(seed)
        self._proposed: set[tuple[int, int, int, int, int]] = set()
        self._results: list[tuple[float, tuple[int, int, int, int, int]]] = []
        self._exhausted = False

    # -- the ask/tell contract --

    def ask(self, n: int | None = None) -> list[Candidate]:
        if n is None:
            n = min(self.batch_size, max(self.budget - self.spent, 1))
        out: list[tuple[int, int, int, int, int]] = []
        if self.incumbent is not None:
            for index in self.lattice.neighbours(self.incumbent.index):
                if len(out) >= n:
                    break
                if index not in self._proposed:
                    self._proposed.add(index)
                    out.append(index)
        misses = 0
        while len(out) < n and misses < _MAX_SAMPLER_MISSES:
            index = self._sample()
            if index is None or index in self._proposed:
                if index is not None:
                    self.deduped += 1
                misses += 1
                continue
            self._proposed.add(index)
            out.append(index)
            misses = 0
        if len(out) < n and misses >= _MAX_SAMPLER_MISSES:
            # The sampler keeps colliding: the space is nearly covered.
            # Fall back to the canonical scan for whatever remains.
            for index in self.lattice.scan():
                if len(out) >= n:
                    break
                if index not in self._proposed:
                    self._proposed.add(index)
                    out.append(index)
        if not out:
            self._exhausted = True
        return [self.lattice.candidate(index) for index in out]

    def tell(self, trials: Sequence[Trial]) -> None:
        super().tell(trials)
        self._results.extend(
            (trial.edp, trial.candidate.index)
            for trial in trials
            if trial.edp is not None
        )

    def finished(self) -> bool:
        return self._exhausted or self.spent >= self.budget

    # -- sampling internals --

    def _sample(self) -> tuple[int, int, int, int, int] | None:
        explore_p = max(
            self.explore_floor, 1.0 - self.spent / max(self.budget, 1)
        )
        weights = self._elite_weights()
        index = []
        for dim, size in enumerate(self.lattice.dims):
            if self.rng.random() < explore_p or not weights:
                index.append(self.rng.randrange(size))
            else:
                index.append(self._weighted_draw(weights[dim], size))
        return self.lattice.repair(tuple(index))

    def _elite_weights(self) -> list[dict[int, int]] | None:
        """Per-dimension option counts among the elite trials."""
        if not self._results:
            return None
        ordered = sorted(self._results)
        take = max(3, int(len(ordered) * self.elite_fraction))
        elite = ordered[:take]
        weights: list[dict[int, int]] = [dict() for _ in range(5)]
        for _edp, index in elite:
            for dim, opt in enumerate(index):
                weights[dim][opt] = weights[dim].get(opt, 0) + 1
        return weights

    def _weighted_draw(self, counts: dict[int, int], size: int) -> int:
        total = size + sum(counts.values())  # Laplace: 1 + count per option
        ticket = self.rng.random() * total
        acc = 0.0
        for opt in range(size):
            acc += 1 + counts.get(opt, 0)
            if ticket < acc:
                return opt
        return size - 1


# --- the loop ----------------------------------------------------------------------


def run_search(
    strategy: SearchStrategy,
    models: dict[str, list[ConvLayer]],
    required_macs: int,
    max_chiplet_mm2: float | None,
    topology: Topology,
    profile: SearchProfile,
    tech: TechnologyParams,
    primary: str,
    store: SweepCheckpoint | None = None,
    jobs: int | None = None,
    policy: TaskPolicy | None = None,
    progress: Any | None = None,
) -> list[DesignPoint]:
    """Run ``strategy``'s ask/tell loop; return one point per proposal.

    Each round asks the strategy for proposals and settles every one, in
    this order, as ``pruned`` (its :func:`edp_lower_bound` on ``primary``
    exceeds the strategy's incumbent), ``invalid`` (structural rules),
    ``resumed`` (``store`` holds its evaluation) or ``evaluated`` (mapped
    through :func:`run_tasks`, then recorded in ``store``; ``failed`` when
    the task exhausted its retries).  The round is then told back in
    proposal order.  Pruned and invalid points come back ``valid=False``
    with a labelled error; a failed point keeps its
    :attr:`DesignPoint.failure`, labelled with its task key.  The loop
    runs in the strategy's :func:`repro.obs.stage` and counts each point
    once in ``dse.points.*``; a resumed point re-reports its stored
    ``cache.hits``/``cache.misses``, so a resumed run counts what the
    clean run counted.

    Args:
        strategy: What to propose (see :class:`SearchStrategy`).
        models: Benchmarks to evaluate (name -> layers).
        required_macs: Exact MAC budget (a structural rule).
        max_chiplet_mm2: Per-chiplet area budget (a structural rule).
        topology: Package interconnect every proposed machine is built with.
        profile: Mapping-search profile per evaluated point.
        tech: Technology point.
        primary: The model whose EDP the incumbent and the bound use.
        store: Optional :class:`~repro.core.checkpoint.SweepCheckpoint`:
            loaded once, handed each evaluation record, flushed after every
            round that more rounds follow, and closed when the loop ends
            (also on ``KeyboardInterrupt``).
        jobs: Worker processes per round's evaluations.
        policy: Timeout/retry/on-error contract for the fan-outs.
        progress: Optional :class:`repro.obs.progress.ProgressMeter`
            (stderr only; never stdout).  A whole-space round updates it
            once per settled point that the store did not answer, in
            proposal order (with the recorder's running mapping-cache hit
            rate, when one is live); a bounded round updates it once, when
            told, with the running ``pruned``/``deduped`` counts.
    """
    jobs = resolve_jobs(jobs)
    context = (models, profile, SharedTables())
    if jobs > 1 and not is_picklable(context):
        jobs = 1
    stream = strategy.batch_size is None
    ledger = getattr(obs.get_recorder(), "metrics", None)
    stored: dict[str, dict[str, Any]] = {}
    points: list[DesignPoint] = []
    tally: Counter = Counter()
    # The current round, shared with the callbacks below.  A trial waiting
    # for its evaluation is "pending" (never told) until its task returns.
    trials: list[Trial] = []
    pending: list[int] = []
    cursor = reported = unanswered = 0

    def told_edp(point: DesignPoint) -> float | None:
        return point.edp(primary) if point.valid else None

    def settle(cand: Candidate) -> Trial:
        hw = build_hardware(
            *cand.comp, memory=cand.memory, tech=tech, topology=topology
        )
        point = DesignPoint(
            hw=hw, chiplet_area_mm2=AreaModel(hw).chiplet_area_mm2(), valid=False
        )
        incumbent = strategy.incumbent_edp
        if incumbent < math.inf:
            bound = edp_lower_bound(hw, models[primary])
            if bound > incumbent:
                point.errors = (
                    f"pruned: EDP lower bound {bound:.4e} Js "
                    f"exceeds incumbent {incumbent:.4e} Js",
                )
                return Trial(cand, "pruned", point)
        point.errors = tuple(
            validation_errors(
                hw,
                required_macs=required_macs,
                max_chiplet_area_mm2=max_chiplet_mm2,
            )
        )
        if point.errors:
            return Trial(cand, "invalid", point)
        record = stored.get(cand.key)
        cache = _apply_record(point, record) if record is not None else None
        if cache is None:
            return Trial(cand, "pending", point)
        for name, value in zip(("cache.hits", "cache.misses"), cache):
            if value:
                obs.count(name, value)
        return Trial(cand, "resumed", point, told_edp(point))

    def report_settled() -> None:
        # Walk the settled prefix of a whole-space round, so reports keep
        # proposal order and at jobs=1 each one follows its own point.
        nonlocal cursor, reported
        while cursor < len(trials) and trials[cursor].status != "pending":
            if trials[cursor].status != "resumed":
                reported += 1
                if reported % POINT_BATCH_EVERY == 0 or reported == unanswered:
                    obs.event("point.batch", done=reported, total=unanswered)
                if progress is not None:
                    progress.update(reported, **cache_rate())
            cursor += 1

    def cache_rate() -> dict[str, float]:
        if ledger is None:
            return {}
        hits = ledger.counter("cache.hits")
        lookups = hits + ledger.counter("cache.misses")
        return {"cache": hits / lookups} if lookups else {}

    def on_result(local: int, outcome: Any) -> None:
        pos = pending[local]
        trial = trials[pos]
        _finish_point(trial.point, outcome, len(points) + pos, trial.candidate.key)
        failed = isinstance(outcome, TaskFailure)
        trials[pos] = replace(
            trial,
            status="failed" if failed else "evaluated",
            edp=told_edp(trial.point),
        )
        if stream:
            report_settled()
        if store is not None and not failed:
            store.record(trial.candidate.key, outcome)

    obs.event(
        "run.start", op=strategy.op, **{strategy.budget_field: strategy.budget}
    )
    try:
        if store is not None:
            stored = store.load()
        with obs.stage(strategy.stage):
            while not strategy.finished():
                proposals = strategy.ask()
                if not proposals:
                    break
                trials = [settle(cand) for cand in proposals]
                pending = [
                    pos
                    for pos, trial in enumerate(trials)
                    if trial.status == "pending"
                ]
                if stream:
                    cursor = reported = 0
                    unanswered = sum(t.status != "resumed" for t in trials)
                    if progress is not None and getattr(
                        progress, "total", None
                    ) is None:
                        progress.total = unanswered
                    report_settled()
                run_tasks(
                    _evaluate_task,
                    [trials[pos].point.hw for pos in pending],
                    jobs=jobs,
                    context=context,
                    policy=policy,
                    on_result=on_result,
                )
                strategy.tell(trials)
                points.extend(trial.point for trial in trials)
                tally.update(trial.status for trial in trials)
                if store is not None and not strategy.finished():
                    store.flush()
                if not stream:
                    obs.event(
                        "point.batch", done=len(points), total=strategy.budget
                    )
                    if progress is not None:
                        progress.update(
                            len(points),
                            pruned=tally["pruned"],
                            deduped=strategy.deduped,
                        )
    finally:
        if store is not None:
            # After the stage timer: closing flushes recovery I/O, not
            # search time, and an interrupted run's log ends on that flush.
            store.close()

    evaluated = sum(1 for point in points if point.valid)
    obs.count("dse.points.total", len(points))
    obs.count("dse.points.evaluated", evaluated)
    obs.count("dse.points.invalid", len(points) - evaluated - tally["pruned"])
    for name, value in (
        ("pruned", tally["pruned"]),
        ("deduped", strategy.deduped),
        ("resumed", tally["resumed"]),
    ):
        if value:
            obs.count(f"dse.points.{name}", value)
    obs.event("run.finish", op=strategy.op, points=len(points), evaluated=evaluated)
    return points


__all__ = [
    "Candidate",
    "DesignPoint",
    "ExhaustiveStrategy",
    "GuidedStrategy",
    "Lattice",
    "STRATEGY_NAMES",
    "SearchStrategy",
    "Study",
    "StudyConfigError",
    "Trial",
    "edp_lower_bound",
    "run_search",
    "sweep_candidates",
]
