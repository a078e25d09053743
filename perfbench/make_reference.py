"""Record the reference answers the benchmark checks every op against.

Usage (from the repository root)::

    python3 perfbench/make_reference.py map-cold map-warm sweep-fig15 sweep-guided

Writes ``perfbench/reference/<workload>.json``.  The map answers and the
full outputs of the recorded seeds are computed twice: on the default
(batch-kernel) path and on the scalar oracle path
(``REPRO_BATCH_KERNEL=0``); the two must agree exactly or recording stops
with an error.  The sweep references also hold one digest per point of the
whole Table II lattice at 4096 MACs, so any seed's subset or trajectory
can be checked.  The lattice is computed on the batch path only; the
recorded seeds' points, checked against it, are its oracle cross-check.
Recording the lattices takes about 10 (sweep-fig15) and 15 (sweep-guided)
minutes on one core.

Only run this to re-record references for a commit whose answers are
known to be right: the benchmark trusts these files.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

import bootstrap

bootstrap.pin_environment()
bootstrap.use_checkout_source()

import repro  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

#: Seeds whose full outputs are recorded: the default and a held-out seed.
RECORDED_SEEDS = (0, 7)

ORACLE_ENV = "REPRO_BATCH_KERNEL"


def on_both_paths(compute):
    """``compute()`` on the batch path, then on the scalar oracle path."""
    fast = compute()
    os.environ[ORACLE_ENV] = "0"
    try:
        oracle = compute()
    finally:
        del os.environ[ORACLE_ENV]
    if fast != oracle:
        raise SystemExit(f"batch and scalar-oracle answers differ:\n{fast}\n{oracle}")
    return fast


def map_reference(machine, model, profile, workdir):
    hw = wl.MAP_MACHINES[machine]()
    layers = repro.get_model(model)

    def compute():
        directory = tempfile.mkdtemp(dir=workdir)
        try:
            mapper = repro.Mapper(hw=hw, profile=profile, cache=repro.MappingCache(directory))
            return ref.map_answer(layers, mapper.search_model(layers, jobs=1), hw)
        finally:
            shutil.rmtree(directory)

    return on_both_paths(compute)


def lattice_table(models: dict, profile) -> tuple[dict, list]:
    """One digest per Table II lattice point (batch path only: 13,920 points)."""
    space = repro.DesignSpace()
    points = repro.explore(
        models, wl.REQUIRED_MACS, space=space, max_chiplet_mm2=wl.AREA_CAP_MM2,
        profile=profile, jobs=1,
    )
    comps = [list(c) for c in space.computation_configs(wl.REQUIRED_MACS)]
    options = {
        dim: list(getattr(space, dim))
        for dim in ("o_l1_per_lane_bytes", "a_l1_kb", "w_l1_kb", "a_l2_kb")
    }
    answers = {
        ref.point_key(p.hw): ref.digest(ref.point_answer(p)) if p.valid else ""
        for p in points
    }
    keys = ref.lattice_keys(comps, options)
    if sorted(answers) != sorted(keys):
        raise SystemExit("explore's lattice differs from the benchmark's lattice")
    table = {
        "models": list(models), "profile": profile.value,
        "required_macs": wl.REQUIRED_MACS, "max_chiplet_mm2": wl.AREA_CAP_MM2,
        "comps": comps, "options": options, "points": [answers[k] for k in keys],
    }
    return table, points


def sweep_reference(name: str, workdir) -> None:
    cls = wl.WORKLOADS[name]
    profile = repro.SearchProfile.MINIMAL if name == "sweep-fig15" else repro.SearchProfile.FAST
    payload: dict = {"seeds": {}}
    models = {n: repro.get_model(n) for n in cls.model_names}
    payload["table"], points = lattice_table(models, profile)
    if name == "sweep-guided":
        payload["oracle_optimum"] = wl.recommendation(points, cls.model_names[0])
    ref.save(name, payload)  # the workloads read the table from here

    for seed in RECORDED_SEEDS:
        workload = cls(seed, workdir)
        workload.prepare()
        workload.setup()

        def compute():
            clock = wl.PointClock()
            directory = workload.fresh_dir()
            try:
                points = workload.explore(directory, clock)
            finally:
                shutil.rmtree(directory)
            record = {
                "points": [[ref.point_key(p.hw), ref.point_status(p)] for p in points],
                "answers": [ref.digest(ref.point_answer(p)) for p in points if p.valid],
                "recommended": wl.recommendation(points, cls.model_names[0]),
            }
            record.update({k: clock.stats[k] for k in ("pruned", "deduped") if k in clock.stats})
            problems = workload.check(points, clock)
            if problems:
                raise SystemExit(f"{name} seed {seed} fails its own checks: {problems[:5]}")
            return record

        record = on_both_paths(compute)
        entry = {"recommended": record["recommended"]}
        if name == "sweep-fig15":
            entry["space"] = workload.options
            entry["points"] = len(record["points"])
            entry["valid"] = len(record["answers"])
        else:
            entry["trajectory"] = record["points"]
            entry["pruned"] = record["pruned"]
            entry["deduped"] = record["deduped"]
        payload["seeds"][str(seed)] = entry
        ref.save(name, payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(wl.WORKLOADS))
    args = parser.parse_args(argv)
    bootstrap.WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=bootstrap.WORK_DIR, prefix="reference-")
    try:
        for name in args.workloads:
            if name == "map-cold":
                answer = map_reference("case-study", "resnet50", repro.SearchProfile.EXHAUSTIVE, workdir)
                ref.save(name, {"answer": answer})
            elif name == "map-warm":
                answers = {
                    f"{machine}/{model}": map_reference(machine, model, repro.SearchProfile.FAST, workdir)
                    for machine in wl.MAP_MACHINES
                    for model in wl.MAP_WARM_MODELS
                }
                ref.save(name, {"answers": answers})
            else:
                sweep_reference(name, workdir)
            print(f"recorded {name}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
