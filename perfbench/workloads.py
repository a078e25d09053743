"""The four benchmark workloads, each driving repro's public API serially.

Every workload splits into ``prepare`` (benchmark side: read the reference,
derive this seed's inputs; excluded from ``setup_s``), ``setup`` (program
side: models, machines, cache fill; counted in ``setup_s``) and ``round``
(one fixed unit of timed work, a pure function of seed and round index, so
a traced pass can replay exactly the rounds an untraced pass ran).

An *op* is the unit ``fail_rate`` counts: a full-model map, or a design
point returned by a sweep.  A *call* is one public-API call: a map, or an
``explore`` sweep (the time to a recommendation).
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.core.dse import best_point

import reference as ref

REQUIRED_MACS = 4096
AREA_CAP_MM2 = 3.0

#: The Figure 15 trio; the first model is the one the sweep recommends for.
FIG15_MODELS = ("vgg16@512", "resnet50@512", "darknet19@224")
#: Evaluated (valid) points every sweep-fig15 subset holds, so that the
#: number of searches per sweep is the same at every seed.
FIG15_VALID_POINTS = 120

GUIDED_MODELS = ("alexnet",)
#: 1% of the 13,920-point Table II lattice at 4096 MACs.
GUIDED_TRIALS = 139

MAP_MACHINES = {
    "case-study": repro.case_study_hardware,
    "simba-like": repro.simba_like_hardware,
}
#: The models map-warm maps: the eight registered when the benchmark was
#: added, fixed here so that registering a model does not change the work.
MAP_WARM_MODELS = (
    "alexnet", "bertbase", "darknet19", "llmdecode",
    "mobilenetv2", "resnet50", "vgg16", "vitb16",
)


@dataclass
class RoundResult:
    """What one round measured and checked."""

    call_ms: list[float] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


class PointClock:
    """``explore(progress=...)`` sink that timestamps every update.

    The exhaustive sweep updates once per completed point (in sweep order
    at ``jobs=1``); the guided sweep once per ask/tell round.
    """

    def __init__(self) -> None:
        self.total = None
        self.start = 0.0
        self.stamps: list[float] = []
        self.done: list[int] = []
        self.stats: dict = {}

    def update(self, done: int, **stats) -> None:
        self.stamps.append(time.perf_counter())
        self.done.append(done)
        self.stats = stats

    def valid_point_ms(self, points: list) -> list[float]:
        """Latency of each valid point, from consecutive update stamps.

        An update that completes several points (a guided round) shares
        its interval equally among the valid points it completed.
        """
        samples: list[float] = []
        prev_time, prev_done = self.start, 0
        for stamp, done in zip(self.stamps, self.done):
            valid = sum(1 for p in points[prev_done:done] if p.valid)
            if valid:
                samples.extend([(stamp - prev_time) * 1e3 / valid] * valid)
            prev_time, prev_done = stamp, done
        return samples


def _failure(label: str) -> str:
    return f"{label}: raised\n{traceback.format_exc()}"


class Workload:
    """One named workload at one seed."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        self.reference = ref.load(self.name)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int, tracer=None) -> RoundResult:
        raise NotImplementedError

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.workdir))

    @staticmethod
    def scope(tracer, op: int):
        return tracer.call(op) if tracer is not None else nullcontext()


class _MapWorkload(Workload):
    profile = repro.SearchProfile.FAST

    def map_once(self, result, tracer, op, hw, layers, order, directory, expected, label):
        """Map ``order`` on ``hw`` with a fresh Mapper and cache; check it.

        ``expected`` is the reference answer, or ``None`` when the
        reference has none (the map still runs and counts as failed).
        """
        result.attempted += 1
        try:
            with self.scope(tracer, op):
                start = time.perf_counter()
                mapper = repro.Mapper(
                    hw=hw, profile=self.profile, cache=repro.MappingCache(directory)
                )
                results = mapper.search_model(order, jobs=1)
                elapsed = (time.perf_counter() - start) * 1e3
        except Exception:
            result.failures.append(_failure(label))
            return
        result.call_ms.append(elapsed)
        result.op_ms.append(elapsed)
        if expected is None:
            result.failures.append(f"{label}: no reference answer")
            return
        try:
            problems = ref.map_mismatches(ref.map_answer(layers, results, hw), expected)
        except Exception:
            problems = [_failure("answer check")]
        if problems:
            result.failures.append(f"{label}: " + "; ".join(problems[:3]))


class MapCold(_MapWorkload):
    """Fresh EXHAUSTIVE map of ResNet-50@224 into an empty on-disk cache."""

    name = "map-cold"
    profile = repro.SearchProfile.EXHAUSTIVE

    def setup(self) -> None:
        self.layers = repro.get_model("resnet50")
        self.hw = repro.case_study_hardware()

    def round(self, index: int, tracer=None) -> RoundResult:
        result = RoundResult()
        order = list(self.layers)
        self.rng(index).shuffle(order)
        directory = self.fresh_dir()
        try:
            self.map_once(
                result, tracer, index, self.hw, self.layers, order, directory,
                self.reference.get("answer"), "resnet50",
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return result


class MapWarm(_MapWorkload):
    """FAST maps of every registered model on two machines, from disk cache."""

    name = "map-warm"

    def setup(self) -> None:
        self.models = {name: repro.get_model(name) for name in MAP_WARM_MODELS}
        self.machines = {name: build() for name, build in MAP_MACHINES.items()}
        self.pairs = [(m, n) for m in self.machines for n in self.models]
        self.cache_dir = self.fresh_dir()
        for machine, model in self.pairs:
            mapper = repro.Mapper(
                hw=self.machines[machine],
                profile=self.profile,
                cache=repro.MappingCache(self.cache_dir),
            )
            mapper.search_model(self.models[model], jobs=1)

    def round(self, index: int, tracer=None) -> RoundResult:
        result = RoundResult()
        order = list(self.pairs)
        self.rng(index).shuffle(order)
        for k, (machine, model) in enumerate(order):
            layers = self.models[model]
            self.map_once(
                result, tracer, index * len(order) + k, self.machines[machine],
                layers, layers, self.cache_dir,
                self.reference["answers"].get(f"{machine}/{model}"), f"{machine}/{model}",
            )
        return result


def fig15_space(seed: int, table: ref.PointTable) -> tuple[dict, list[str]]:
    """The seed's Table II memory subset and its lattice keys.

    One O-L1 option, three A-L1, three W-L1 and two A-L2 options are drawn
    until the subset holds exactly :data:`FIG15_VALID_POINTS` valid points
    (validity read from the reference, not from the program under test).
    """
    rng = random.Random(f"sweep-fig15:{seed}")
    opts = table.options
    sizes = {"o_l1_per_lane_bytes": 1, "a_l1_kb": 3, "w_l1_kb": 3, "a_l2_kb": 2}
    for _ in range(10_000):  # about one draw in 170 qualifies
        chosen = {dim: sorted(rng.sample(opts[dim], k)) for dim, k in sizes.items()}
        keys = ref.lattice_keys(table.comps, chosen)
        if sum(table.valid(key) for key in keys) == FIG15_VALID_POINTS:
            return chosen, keys
    raise ValueError(f"no memory subset with {FIG15_VALID_POINTS} valid points")


def recommendation(points: list, model: str) -> dict | None:
    """The sweep's EDP recommendation under the area cap, as stored."""
    best = best_point(points, model, "edp", max_chiplet_mm2=AREA_CAP_MM2)
    if best is None:
        return None
    return {"label": best.label, "key": ref.point_key(best.hw), **ref.point_answer(best)}


class _SweepWorkload(Workload):
    model_names: tuple[str, ...] = ()

    def prepare(self) -> None:
        super().prepare()
        self.table = ref.PointTable(self.reference["table"])
        self.recorded = self.reference["seeds"].get(str(self.seed))

    def setup(self) -> None:
        self.models = {name: repro.get_model(name) for name in self.model_names}

    def explore(self, directory: Path, clock: PointClock) -> list:
        raise NotImplementedError

    def round(self, index: int, tracer=None) -> RoundResult:
        result = RoundResult()
        clock = PointClock()
        directory = self.fresh_dir()
        try:
            with self.scope(tracer, index):
                clock.start = time.perf_counter()
                points = self.explore(directory, clock)
                elapsed = (time.perf_counter() - clock.start) * 1e3
        except Exception:
            result.attempted += 1
            result.failures.append(_failure("explore"))
            return result
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        result.call_ms.append(elapsed)
        result.op_ms.extend(clock.valid_point_ms(points))
        result.attempted += len(points)
        try:
            result.failures.extend(self.check(points, clock))
        except Exception:
            result.failures.append(_failure("answer check"))
        return result

    def check(self, points: list, clock: PointClock) -> list[str]:
        raise NotImplementedError


class SweepFig15(_SweepWorkload):
    """Exhaustive MINIMAL sweep of the Fig. 15 trio over a seeded subset."""

    name = "sweep-fig15"
    model_names = FIG15_MODELS

    def prepare(self) -> None:
        super().prepare()
        self.options, self.keys = fig15_space(self.seed, self.table)

    def setup(self) -> None:
        super().setup()
        self.space = repro.DesignSpace(**{k: tuple(v) for k, v in self.options.items()})

    def explore(self, directory: Path, clock: PointClock) -> list:
        return repro.explore(
            self.models,
            REQUIRED_MACS,
            space=self.space,
            max_chiplet_mm2=AREA_CAP_MM2,
            profile=repro.SearchProfile.MINIMAL,
            jobs=1,
            checkpoint_dir=directory,
            progress=clock,
        )

    def check(self, points: list, clock: PointClock) -> list[str]:
        problems = []
        keys = [ref.point_key(p.hw) for p in points]
        if keys != self.keys:
            problems.append(f"swept {len(keys)} points, expected the seed's {len(self.keys)}")
        if len(clock.stamps) != len(points):
            problems.append(f"{len(clock.stamps)} progress updates for {len(points)} points")
        problems.extend(m for m in map(self.table.mismatch, points) if m)
        if self.recorded is not None:
            if self.options != self.recorded["space"]:
                problems.append("seed picked a different subset than recorded")
            got = recommendation(points, FIG15_MODELS[0])
            if got != self.recorded["recommended"]:
                problems.append(f"recommended {got} != {self.recorded['recommended']}")
        return problems


class SweepGuided(_SweepWorkload):
    """Guided (ask/tell) FAST search on AlexNet; the seed is the sampler's."""

    name = "sweep-guided"
    model_names = GUIDED_MODELS

    def explore(self, directory: Path, clock: PointClock) -> list:
        return repro.explore(
            self.models,
            REQUIRED_MACS,
            max_chiplet_mm2=AREA_CAP_MM2,
            profile=repro.SearchProfile.FAST,
            strategy="guided",
            trials=GUIDED_TRIALS,
            seed=self.seed,
            study=directory / "study.sqlite",
            jobs=1,
            progress=clock,
        )

    def check(self, points: list, clock: PointClock) -> list[str]:
        problems = []
        for point in points:
            if ref.point_status(point) == "pruned":
                continue
            mismatch = self.table.mismatch(point)
            if mismatch:
                problems.append(mismatch)
        evaluated = sum(1 for p in points if p.valid)
        if evaluated != GUIDED_TRIALS:
            problems.append(f"{evaluated} points evaluated, budget is {GUIDED_TRIALS}")
        got = recommendation(points, GUIDED_MODELS[0])
        if self.recorded is not None:
            trajectory = [[ref.point_key(p.hw), ref.point_status(p)] for p in points]
            if trajectory != self.recorded["trajectory"]:
                problems.append("trajectory differs from the recorded one")
            for key in ("pruned", "deduped"):
                if clock.stats.get(key) != self.recorded[key]:
                    problems.append(f"{key} {clock.stats.get(key)} != {self.recorded[key]}")
            if got != self.recorded["recommended"]:
                problems.append(f"recommended {got} != {self.recorded['recommended']}")
        if self.seed == 0 and got != self.reference["oracle_optimum"]:
            problems.append(f"seed 0 recommended {got}, not the exhaustive optimum")
        return problems


WORKLOADS = {cls.name: cls for cls in (MapCold, MapWarm, SweepFig15, SweepGuided)}
