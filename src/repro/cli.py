"""Command-line interface for the NN-Baton tool.

Subcommands mirror the paper's two flows plus inspection helpers::

    python -m repro models                         # registered workloads
    python -m repro table1                         # the energy table
    python -m repro map resnet50 --hw 4-8-8-8      # post-design flow
    python -m repro compare vgg16 --resolution 512 # vs the Simba baseline
    python -m repro explore --macs 2048 --area 2.0 # pre-design flow
    python -m repro profile mobilenetv2            # spans + counters

``explore`` is also reachable as ``dse``.  ``map``, ``explore``/``dse``,
``audit`` and ``profile`` accept ``--trace-out`` (Chrome trace-event JSON,
opens in Perfetto) and ``--metrics-out`` (counters/gauges JSON).  Every
command runs under a live :mod:`repro.obs` recorder, whose counters are
the one ledger the printed run summary reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

from repro import obs
from repro.obs.progress import progress_enabled
from repro.errors import (
    EXIT_INTERRUPT,
    EXIT_USAGE,
    ReproError,
    error_code_for,
    exit_code_for,
)
from repro.analysis.reporting import (
    format_failures,
    format_profile,
    format_search_stats,
    format_table,
)
from repro.arch.config import build_hardware, case_study_hardware
from repro.arch.technology import TABLE_I
from repro.arch.topology import Topology
from repro.core.baton import NNBaton
from repro.core.cache import MappingCache
from repro.core.checkpoint import CHECKPOINT_DIR_ENV, SweepCheckpoint
from repro.core.parallel import SweepStats, TaskPolicy, resolve_jobs
from repro.core.serialize import compiler_report
from repro.core.space import SearchProfile
from repro.simba import evaluate_simba_model
from repro.workloads.registry import get_model, list_models


def _parse_hw(spec: str):
    """Parse a ``chiplets-cores-lanes-vector`` tuple into hardware."""
    if spec == "case-study":
        return case_study_hardware()
    parts = spec.split("-")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"hardware spec must be N_P-N_C-L-P (e.g. 4-8-8-8), got {spec!r}"
        )
    try:
        chiplets, cores, lanes, vector = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return build_hardware(chiplets, cores, lanes, vector)


def _parse_jobs(spec: str) -> int:
    try:
        jobs = int(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {spec!r}") from exc
    if jobs < 0:
        raise argparse.ArgumentTypeError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _add_topology_flag(cmd: argparse.ArgumentParser) -> None:
    """Register ``--topology`` (package interconnect) on a subcommand."""
    cmd.add_argument(
        "--topology", choices=[t.value for t in Topology], default=None,
        help="package interconnect for the machine (default: the ring, or "
        "whatever an --hw-file specifies)",
    )


def cmd_models(args: argparse.Namespace) -> int:
    """List registered models with their headline statistics."""
    from repro.workloads.stats import ModelStats

    rows = []
    for name in list_models():
        layers = get_model(name, args.resolution)
        stats = ModelStats.of(name, layers)
        rows.append(
            [
                name,
                stats.layers,
                f"{stats.total_macs / 1e9:.2f}",
                f"{stats.total_weights / 1e6:.1f}",
                sum(1 for l in layers if l.groups > 1),
                f"{stats.mean_arithmetic_intensity:.1f}",
            ]
        )
    print(
        format_table(
            ["Model", "Layers", "GMACs", "MParams", "Grouped", "AI MAC/B"],
            rows,
            title=f"Registered workloads @ {args.resolution}x{args.resolution}",
        )
    )
    if args.detail:
        for name in list_models():
            print()
            layers = get_model(name, args.resolution)
            print(ModelStats.of(name, layers).describe())
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    """Print the Table I operation energies."""
    print(
        format_table(
            ["Operation", "pJ/bit", "Relative"],
            [
                [r.name, f"{r.energy_pj_per_bit:.3f}", f"{r.relative_cost:.2f}x"]
                for r in TABLE_I
            ],
            title="Table I -- 16 nm operation energies",
        )
    )
    return 0


def _fail(message: str) -> "NoReturn":
    """Print a one-line error and exit with the usage-error code (2)."""
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _get_model(name: str, resolution: int):
    """Resolve a registry model name, exiting cleanly when unknown."""
    try:
        return get_model(name, resolution)
    except KeyError:
        _fail(
            f"unknown model {name!r}; registered models: "
            f"{', '.join(list_models())} (use --model-file for a JSON file)"
        )


def _resolve_model(args: argparse.Namespace):
    """Resolve the workload: --model-file wins over the registry name.

    A registry name that is not registered exits with code 2 and a one-line
    error; only ``--model-file`` arguments are treated as files.
    """
    if getattr(args, "model_file", None):
        from repro.workloads.io import load_model_file

        path = Path(args.model_file)
        if not path.is_file():
            _fail(f"model file not found: {args.model_file}")
        return load_model_file(args.model_file), path.stem
    return _get_model(args.model, args.resolution), args.model


def _resolve_hw(args: argparse.Namespace):
    """Pick the hardware: --hw-file wins over the --hw tuple.

    ``--topology`` (when the command exposes it) rebuilds the package
    around the requested interconnect; it applies to ``--hw`` tuples and
    the case-study machine, while an explicit ``--hw-file`` carries its
    own topology field and is left untouched.
    """
    if getattr(args, "hw_file", None):
        from repro.arch.io import load_hardware

        return load_hardware(args.hw_file)
    hw = args.hw
    topology = getattr(args, "topology", None)
    if topology is not None:
        from dataclasses import replace

        hw = replace(
            hw, package=replace(hw.package, topology=Topology(topology))
        )
    return hw


def cmd_map(args: argparse.Namespace) -> int:
    """Run the post-design flow for one model on one hardware instance."""
    from repro.core.mapper import Mapper, edp_objective, energy_objective
    from repro.core.cost import model_cost
    from repro.core.baton import PostDesignResult

    hw = _resolve_hw(args)
    layers, model_name = _resolve_model(args)
    objective = edp_objective if args.objective == "edp" else energy_objective
    cache = (
        MappingCache(args.cache_dir) if args.cache_dir else MappingCache.from_env()
    )
    mapper = Mapper(
        hw=hw,
        profile=SearchProfile(args.profile),
        objective=objective,
        cache=cache,
    )
    with obs.stage("search_model"):
        results = mapper.search_model(layers)
    energy, cycles, edp = model_cost([r.best for r in results], hw)
    result = PostDesignResult(
        hw=hw, layers=tuple(results), energy=energy, cycles=cycles, edp_js=edp
    )

    rows = [
        [
            r.layer.name,
            r.mapping.describe(),
            f"{r.best.energy_pj / 1e9:.3f}",
            f"{r.best.utilization:.0%}",
        ]
        for r in result.layers
    ]
    print(
        format_table(
            ["Layer", "Mapping", "mJ", "Util"],
            rows,
            title=f"Post-design flow: {model_name}@{args.resolution} on {hw.label()}",
        )
    )
    print(
        f"\nTotal: {result.energy_pj / 1e9:.2f} mJ, "
        f"{result.cycles:,} cycles ({result.runtime_s() * 1e3:.2f} ms), "
        f"EDP {result.edp_js:.3e} Js"
    )
    print(format_search_stats(_run_stats(jobs=1)))  # a map runs in one process
    print(f"Mapping cache: {cache.describe()}")

    if args.json:
        reports = [
            compiler_report(r.layer, hw, r.mapping) for r in result.layers
        ]
        with open(args.json, "w") as handle:
            json.dump(
                {
                    "hardware": hw.label(),
                    "model": model_name,
                    "resolution": args.resolution,
                    "total_energy_pj": result.energy_pj,
                    "total_cycles": result.cycles,
                    "layers": reports,
                },
                handle,
                indent=2,
            )
        print(f"Wrote compiler report to {args.json}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Compare NN-Baton against the Simba baseline on one model."""
    hw = _resolve_hw(args)
    layers = _get_model(args.model, args.resolution)
    baton = NNBaton(profile=SearchProfile(args.profile))
    result = baton.post_design(layers, hw)
    simba_energy, simba_cycles, _ = evaluate_simba_model(layers, hw)
    saving = 1 - result.energy_pj / simba_energy.total_pj
    print(
        format_table(
            ["", "Energy mJ", "Cycles"],
            [
                ["Simba baseline", f"{simba_energy.total_pj / 1e9:.2f}", f"{simba_cycles:,}"],
                ["NN-Baton", f"{result.energy_pj / 1e9:.2f}", f"{result.cycles:,}"],
            ],
            title=f"{args.model}@{args.resolution} on {hw.label()}",
        )
    )
    print(f"\nEnergy saving: {saving:.1%} (paper: 22.5%~44% across models)")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    """Run the pre-design flow under MAC and area budgets."""
    models = {
        name: _get_model(name, args.resolution)
        for name in args.models.split(",")
    }
    baton = NNBaton()
    policy = None
    if (
        args.on_error != "abort"
        or args.timeout is not None
        or args.max_attempts != 3
    ):
        policy = TaskPolicy(
            timeout_s=args.timeout,
            max_attempts=args.max_attempts,
            on_error=args.on_error,
        )
    # explore() refuses bad strategy/option combinations with a usage error
    # (exit 2) naming the flags.
    guided = args.strategy == "guided"
    stride = args.stride if args.stride is not None else (1 if guided else 8)
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None and (
        args.checkpoint
        or args.resume
        or os.environ.get(CHECKPOINT_DIR_ENV, "").strip()
    ):
        checkpoint_dir = SweepCheckpoint.resolve_dir(None)
    meter = None
    if progress_enabled(getattr(args, "progress", None)):
        from repro.obs.progress import ProgressMeter

        meter = ProgressMeter(
            total=args.trials if guided else None,
            label="guided" if guided else "explore",
        )
    try:
        result = baton.pre_design(
            models,
            required_macs=args.macs,
            max_chiplet_mm2=args.area,
            topology=Topology(args.topology) if args.topology else Topology.RING,
            memory_stride=stride,
            profile=SearchProfile(args.profile),
            jobs=args.jobs,
            policy=policy,
            checkpoint_dir=checkpoint_dir,
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
            strategy=args.strategy,
            trials=args.trials,
            study=args.study,
            seed=args.seed,
            progress=meter,
        )
    except KeyboardInterrupt:
        # explore() has already flushed the sweep checkpoint (or the guided
        # study) on its way out; report where the run can pick up and exit
        # like SIGINT.
        print()
        print("Interrupted.", file=sys.stderr)
        if checkpoint_dir is not None:
            print(
                f"Partial results checkpointed under {checkpoint_dir}; "
                "re-run with --resume to continue.",
                file=sys.stderr,
            )
        if guided and args.study is not None:
            print(
                f"Completed trials persisted to {args.study}; re-run the "
                "same command to resume.",
                file=sys.stderr,
            )
        return 130
    finally:
        if meter is not None:
            meter.finish()
    print(
        f"Swept {result.swept} design points; "
        f"{len(result.valid_points)} valid evaluated."
    )
    stats = _run_stats(args.jobs)
    print(format_search_stats(stats))
    failures = [point.failure for point in result.points if point.failure]
    if failures:
        print(format_failures(failures))
    if args.json:
        def _point_entry(point):
            return {
                "config": point.label,
                "chiplets": point.hw.n_chiplets,
                "chiplet_area_mm2": point.chiplet_area_mm2,
                "memory": {
                    "a_l1_bytes": point.hw.memory.a_l1_bytes,
                    "w_l1_bytes": point.hw.memory.w_l1_bytes,
                    "o_l1_bytes": point.hw.memory.o_l1_bytes,
                    "a_l2_bytes": point.hw.memory.a_l2_bytes,
                },
                "energy_pj": {m: point.energy_pj[m] for m in sorted(models)},
                "cycles": {m: point.cycles[m] for m in sorted(models)},
            }

        payload = {
            "macs": args.macs,
            "max_chiplet_mm2": args.area,
            "memory_stride": stride,
            "models": sorted(models),
            "resolution": args.resolution,
            "strategy": args.strategy,
            "seed": args.seed if guided else None,
            "trials": args.trials,
            # Run-provenance counters stay out of exhaustive payloads:
            # interrupted-and-resumed sweeps must stay byte-identical to
            # clean ones (the fault-injection contract).  A guided payload
            # is defined by its trajectory, so there they are semantics.
            "search": (
                {
                    "evaluated": stats.points_evaluated,
                    "pruned": stats.points_pruned,
                    "deduped": stats.points_deduped,
                    "resumed": stats.points_resumed,
                    "proposed": stats.points_total,
                }
                if guided
                else None
            ),
            "swept": result.swept,
            "recommended": (
                result.recommended.label if result.recommended else None
            ),
            "recommended_point": (
                _point_entry(result.recommended)
                if result.recommended
                else None
            ),
            "valid_points": [
                _point_entry(point) for point in result.valid_points
            ],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"Wrote sweep results to {args.json}")
    if result.recommended is None:
        print("No design satisfies the budgets.")
        return 1
    best = result.recommended
    mem = best.hw.memory
    print(
        f"Recommended: {best.label} "
        f"(chiplet {best.chiplet_area_mm2:.2f} mm^2; "
        f"A-L1 {mem.a_l1_bytes} B, W-L1 {mem.w_l1_bytes} B, "
        f"A-L2 {mem.a_l2_bytes} B)"
    )
    for model in models:
        print(
            f"  {model}: {best.energy_pj[model] / 1e9:.2f} mJ, "
            f"{best.runtime_s(model) * 1e3:.2f} ms, EDP {best.edp(model):.3e} Js"
        )
    if args.csv:
        import csv as csv_module

        with open(args.csv, "w", newline="") as handle:
            writer = csv_module.writer(handle)
            writer.writerow(
                ["config", "chiplets", "area_mm2"]
                + [f"energy_pj[{m}]" for m in models]
                + [f"edp_js[{m}]" for m in models]
            )
            for point in result.valid_points:
                writer.writerow(
                    [point.label, point.hw.n_chiplets, f"{point.chiplet_area_mm2:.4f}"]
                    + [f"{point.energy_pj[m]:.1f}" for m in models]
                    + [f"{point.edp(m):.6g}" for m in models]
                )
        print(f"Wrote {len(result.valid_points)} valid points to {args.csv}")
    return 0


def _run_stats(jobs: int | None) -> SweepStats:
    """The run summary: a view of the live recorder's counters."""
    return SweepStats(obs.get_recorder().metrics, jobs=resolve_jobs(jobs))


def cmd_audit(args: argparse.Namespace) -> int:
    """Cross-validate the cost model against the simulator; emit the report."""
    from repro.audit import DEFAULT_ENVELOPE, run_audit

    hw = _resolve_hw(args)
    names = args.models.split(",") if args.models else list_models()
    models = {name: _get_model(name, args.resolution) for name in names}
    report = run_audit(
        models,
        hw,
        profile=SearchProfile(args.profile),
        sample=args.sample,
        envelope=args.envelope if args.envelope is not None else DEFAULT_ENVELOPE,
        max_layers=args.max_layers,
    )
    print(report.summary())
    if args.json:
        target = report.write_json(args.json)
        print(f"Wrote audit report to {target}")
    return 0 if report.ok else 1


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one model's post-design flow (always under a live recorder)."""
    from repro.core.cost import model_cost
    from repro.core.mapper import Mapper

    hw = _resolve_hw(args)
    layers, model_name = _resolve_model(args)
    recorder = obs.get_recorder()
    cache = (
        MappingCache(args.cache_dir) if args.cache_dir else MappingCache()
    )
    mapper = Mapper(hw=hw, profile=SearchProfile(args.profile), cache=cache)
    results = mapper.search_model(layers)
    energy, cycles, _ = model_cost([r.best for r in results], hw)
    if args.simulate:
        from repro.sim.runtime import simulate_runtime

        for r in results:
            simulate_runtime(r.layer, hw, r.mapping)
    print(
        f"Profiled {model_name}@{args.resolution} on {hw.label()}: "
        f"{energy.total_pj / 1e9:.2f} mJ, {int(cycles):,} cycles"
    )
    print()
    print(format_profile(recorder, top=args.top, sort=args.sort))
    if args.json:
        payload = {
            "model": model_name,
            "resolution": args.resolution,
            "hardware": hw.label(),
            "energy_pj": energy.total_pj,
            "cycles": int(cycles),
            "spans": {
                path: {"calls": count, "total_ns": total_ns}
                for path, (count, total_ns) in recorder.aggregate_spans().items()
            },
            "counters": recorder.metrics.counters(),
            "gauges": recorder.metrics.gauges(),
            "histograms": recorder.metrics.as_dict()["histograms"],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"Wrote profile JSON to {args.json}")
    return 0


def _format_event_line(event: dict, t0: float) -> str:
    """One human timeline line: offset, event name, payload fields."""
    t = event.get("t")
    offset = f"+{t - t0:9.3f}s" if isinstance(t, (int, float)) else " " * 11
    fields = " ".join(
        f"{key}={event[key]}"
        for key in sorted(event)
        if key not in ("v", "run", "seq", "pid", "t", "event")
    )
    name = str(event.get("event", "?"))
    return f"{offset}  {name:<18} {fields}".rstrip()


def cmd_tail(args: argparse.Namespace) -> int:
    """Render a run's event log as a human timeline (optionally following)."""
    import time as time_mod

    from repro.obs.events import load_events, resolve_events_path

    path = resolve_events_path(args.target)
    if not path.exists() and not args.follow:
        _fail(f"no event log at {path}")
    events, corrupt = load_events(path)
    if events:
        run_id = events[0].get("run", "?")
        print(f"run {run_id} -- {len(events)} event(s) from {path}")
    else:
        print(f"empty event log at {path}")
    if corrupt:
        print(
            f"warning: tolerated {corrupt} undecodable line(s) "
            "(torn tail or foreign schema)",
            file=sys.stderr,
        )
    t0 = next(
        (e["t"] for e in events if isinstance(e.get("t"), (int, float))), 0.0
    )
    for event in events:
        print(_format_event_line(event, t0))
    if not args.follow:
        return 0
    # Follow mode: poll for complete new lines (a torn tail stays pending
    # until its newline arrives), like `tail -f`.  Ctrl-C exits cleanly.
    import json as json_mod

    offset = path.stat().st_size if path.exists() else 0
    pending = ""
    try:
        while True:
            time_mod.sleep(args.poll_interval)
            if not path.exists():
                continue
            size = path.stat().st_size
            if size <= offset:
                continue
            with open(path, "r") as handle:
                handle.seek(offset)
                pending += handle.read()
            offset = size
            while "\n" in pending:
                line, pending = pending.split("\n", 1)
                try:
                    event = json_mod.loads(line)
                except ValueError:
                    continue
                if isinstance(event, dict):
                    if not events:
                        t0 = event.get("t", 0.0)
                    events.append(event)
                    print(_format_event_line(event, t0), flush=True)
    except KeyboardInterrupt:
        print(file=sys.stderr)
        return 0


def _repo_root() -> Path:
    """The checkout root (the directory holding ``src`` and ``benchmarks``)."""
    import repro

    return Path(repro.__file__).resolve().parents[2]


def _run_bench(args: argparse.Namespace) -> int:
    """``repro bench``: run the benchmark suite once, emit a structured record."""
    import shutil
    import subprocess
    import tempfile

    from repro.obs import bench as bench_mod
    from repro.obs.goldens import fidelity_block

    root = _repo_root()
    bench_dir = Path(args.benchmarks_dir) if args.benchmarks_dir else root / "benchmarks"
    if not bench_dir.is_dir():
        _fail(f"benchmark directory not found: {bench_dir}")

    env = dict(os.environ)
    src_dir = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = str(src_dir) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_BENCH_PROFILE"] = args.profile
    env["REPRO_FIG15_STRIDE"] = str(args.stride)
    if args.jobs is not None:
        env["REPRO_JOBS"] = str(args.jobs)

    staging = Path(tempfile.mkdtemp(prefix="repro-bench-"))
    env[bench_mod.RECORD_DIR_ENV] = str(staging)
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        str(bench_dir),
        "-q",
        "--benchmark-disable",
        "-p",
        "no:cacheprovider",
    ]
    if args.select:
        cmd += ["-k", args.select]
    try:
        print("bench run ...", flush=True)
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
        tail = proc.stdout.strip().splitlines()
        if tail:
            print(f"  {tail[-1]}")
        if proc.returncode != 0:
            print(proc.stdout, file=sys.stderr)
            print(proc.stderr, file=sys.stderr)
            print(
                f"repro: error: benchmark run exited {proc.returncode}",
                file=sys.stderr,
            )
            return 1
        fragments = bench_mod.load_fragments(staging)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    if not fragments:
        print(
            "repro: error: benchmark run produced no structured "
            "records (is the record_bench fixture wired up?)",
            file=sys.stderr,
        )
        return 1

    fidelity = fidelity_block()
    record = bench_mod.assemble_record(
        fragments,
        config={
            "profile": args.profile,
            "stride": args.stride,
            "jobs": args.jobs,
            "select": args.select,
        },
        fidelity=fidelity,
    )
    out = Path(args.out) if args.out else root / (
        f"BENCH_{bench_mod.git_sha(short=True)}.json"
    )
    bench_mod.write_record(record, out)
    print(f"Wrote bench record ({len(record['benches'])} benches) to {out}")
    if not fidelity["ok"]:
        drifted = [
            name
            for name, entry in fidelity["goldens"].items()
            if entry["deviation"] != 0
        ]
        print(
            f"repro: error: {len(drifted)} paper golden(s) drifted: "
            + ", ".join(drifted),
            file=sys.stderr,
        )
        return 1
    print("Fidelity: every paper golden reproduced exactly.")
    return 0


def _compare_bench(args: argparse.Namespace) -> int:
    """``repro bench compare``: gate a new record against an old one."""
    from repro.obs import bench as bench_mod

    try:
        old = bench_mod.load_record(args.old)
        new = bench_mod.load_record(args.new)
    except (OSError, ValueError) as exc:
        _fail(str(exc))
    try:
        report = bench_mod.compare_records(
            old, new, gate_counters=args.gate_counter
        )
    except ValueError as exc:
        _fail(str(exc))
    print(report.summary())
    return 0 if report.ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    """Dispatch the ``repro bench`` action (default: run the suite)."""
    if args.bench_action == "compare":
        return _compare_bench(args)
    return _run_bench(args)


def _add_obs_flags(cmd: argparse.ArgumentParser) -> None:
    """The observability export flags shared by the flow subcommands."""
    cmd.add_argument(
        "--trace-out",
        help="write a Chrome trace-event JSON of this run "
        "(open in https://ui.perfetto.dev)",
    )
    cmd.add_argument(
        "--metrics-out",
        help="write the run's counters, gauges and histograms as JSON",
    )
    cmd.add_argument(
        "--metrics-prom",
        help="write the run's metrics in Prometheus text exposition format",
    )
    cmd.add_argument(
        "--events-out",
        help="stream the run's lifecycle event log (schema-versioned "
        "JSONL) to this file or directory; read it with `repro tail`",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NN-Baton: DNN workload orchestration and chiplet granularity exploration",
        # No prefix abbreviation: `--model nope` must not silently resolve
        # to --model-file and then fail as a file read.
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    models = sub.add_parser(
        "models", help="list registered workloads", allow_abbrev=False
    )
    models.add_argument("--resolution", type=int, default=224)
    models.add_argument(
        "--detail", action="store_true", help="print per-model category histograms"
    )
    models.set_defaults(func=cmd_models)

    table1 = sub.add_parser(
        "table1", help="print the Table I energies", allow_abbrev=False
    )
    table1.set_defaults(func=cmd_table1)

    map_cmd = sub.add_parser(
        "map", help="post-design flow: map a model", allow_abbrev=False
    )
    map_cmd.add_argument("model", nargs="?", default="resnet50")
    map_cmd.add_argument("--hw", type=_parse_hw, default="case-study")
    map_cmd.add_argument("--hw-file", help="load the machine from a JSON file")
    _add_topology_flag(map_cmd)
    map_cmd.add_argument(
        "--model-file", help="load the workload from a JSON layer list"
    )
    map_cmd.add_argument("--resolution", type=int, default=224)
    map_cmd.add_argument(
        "--profile", choices=[p.value for p in SearchProfile], default="fast"
    )
    map_cmd.add_argument(
        "--objective", choices=["energy", "edp"], default="energy",
        help="per-layer search objective",
    )
    map_cmd.add_argument("--json", help="write the compiler report to this path")
    map_cmd.add_argument(
        "--cache-dir",
        help="persist the mapping cache under this directory "
        "(default: $REPRO_CACHE_DIR, else memory-only)",
    )
    _add_obs_flags(map_cmd)
    map_cmd.set_defaults(func=cmd_map)

    compare = sub.add_parser(
        "compare", help="compare against the Simba baseline", allow_abbrev=False
    )
    compare.add_argument("model")
    compare.add_argument("--hw", type=_parse_hw, default="case-study")
    compare.add_argument("--hw-file", help="load the machine from a JSON file")
    _add_topology_flag(compare)
    compare.add_argument("--resolution", type=int, default=224)
    compare.add_argument(
        "--profile", choices=[p.value for p in SearchProfile], default="fast"
    )
    compare.set_defaults(func=cmd_compare)

    explore = sub.add_parser(
        "explore",
        aliases=["dse"],
        help="pre-design flow: explore the design space (alias: dse)",
        allow_abbrev=False,
    )
    explore.add_argument("--macs", type=int, required=True)
    explore.add_argument("--area", type=float, default=None)
    explore.add_argument("--models", default="resnet50")
    explore.add_argument("--resolution", type=int, default=224)
    explore.add_argument(
        "--stride", type=int, default=None,
        help="evaluate every Nth memory combination (exhaustive only; "
        "default: 8)",
    )
    explore.add_argument(
        "--strategy", choices=["exhaustive", "guided"], default="exhaustive",
        help="exhaustive: sweep every point (default, the paper's oracle); "
        "guided: seeded ask/tell optimizer with dominance pruning",
    )
    explore.add_argument(
        "--trials", type=int, default=None,
        help="guided only: full-evaluation budget (required with "
        "--strategy guided)",
    )
    explore.add_argument(
        "--study", default=None,
        help="guided only: JSONL store file persisting completed trials; "
        "re-running the same command resumes from it",
    )
    explore.add_argument(
        "--seed", type=int, default=0,
        help="guided only: sampler seed; the same seed replays the same "
        "trial sequence at every --jobs count (default: 0)",
    )
    explore.add_argument(
        "--profile", choices=[p.value for p in SearchProfile], default="minimal"
    )
    _add_topology_flag(explore)
    explore.add_argument("--csv", help="export valid design points to this CSV")
    explore.add_argument(
        "--json",
        help="export the sweep result (valid points + recommendation) to "
        "this JSON file, byte-identical at every --jobs count",
    )
    explore.add_argument(
        "--jobs", type=_parse_jobs, default=None,
        help="worker processes fanning sweep points out "
        "(default: $REPRO_JOBS, then serial; 0 = all cores)",
    )
    explore.add_argument(
        "--on-error", choices=["abort", "skip"], default="abort",
        help="abort: first task failure stops the sweep (default); "
        "skip: record the failure and keep sweeping",
    )
    explore.add_argument(
        "--timeout", type=float, default=None,
        help="per-task wall-clock budget in seconds (parallel runs only); "
        "overdue workers are killed and the task retried",
    )
    explore.add_argument(
        "--max-attempts", type=int, default=3,
        help="total tries per task for crash-only faults (default: 3)",
    )
    explore.add_argument(
        "--checkpoint", action="store_true",
        help="stream completed points to a sweep checkpoint under "
        "$REPRO_CHECKPOINT_DIR (or .repro_checkpoints)",
    )
    explore.add_argument(
        "--checkpoint-dir", default=None,
        help="stream completed points to a sweep checkpoint under this "
        "directory (implies --checkpoint)",
    )
    explore.add_argument(
        "--checkpoint-every", type=int, default=16,
        help="completed points buffered per checkpoint flush (default: 16)",
    )
    explore.add_argument(
        "--resume", action="store_true",
        help="skip points already answered by the sweep checkpoint "
        "(implies --checkpoint)",
    )
    explore.add_argument(
        "--progress",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="live stderr progress meter (done/total, rate, ETA); "
        "renders only on a TTY and never touches stdout "
        "(--no-progress forces it off)",
    )
    _add_obs_flags(explore)
    explore.set_defaults(func=cmd_explore)

    audit = sub.add_parser(
        "audit",
        help="cross-validate the cost model against the simulator",
        allow_abbrev=False,
    )
    audit.add_argument(
        "--models", default=None,
        help="comma-separated registry names (default: every registered model)",
    )
    audit.add_argument("--hw", type=_parse_hw, default="case-study")
    audit.add_argument("--hw-file", help="load the machine from a JSON file")
    _add_topology_flag(audit)
    audit.add_argument("--resolution", type=int, default=224)
    audit.add_argument(
        "--profile", choices=[p.value for p in SearchProfile], default="minimal"
    )
    audit.add_argument(
        "--sample", type=int, default=3,
        help="mappings sampled per layer (plus their no-rotation variants)",
    )
    audit.add_argument(
        "--envelope", type=float, default=None,
        help="allowed fractional excess of simulated over estimated cycles "
        "for uncontended pairs (default: 0.05)",
    )
    audit.add_argument(
        "--max-layers", type=int, default=None,
        help="audit at most this many evenly spaced layers per model",
    )
    audit.add_argument("--json", help="write the audit report to this path")
    _add_obs_flags(audit)
    audit.set_defaults(func=cmd_audit)

    profile_cmd = sub.add_parser(
        "profile",
        help="profile a model's mapping flow: spans, counters, Chrome trace",
        allow_abbrev=False,
    )
    profile_cmd.add_argument("model", nargs="?", default="resnet50")
    profile_cmd.add_argument("--hw", type=_parse_hw, default="case-study")
    profile_cmd.add_argument("--hw-file", help="load the machine from a JSON file")
    _add_topology_flag(profile_cmd)
    profile_cmd.add_argument(
        "--model-file", help="load the workload from a JSON layer list"
    )
    profile_cmd.add_argument("--resolution", type=int, default=224)
    profile_cmd.add_argument(
        "--profile", choices=[p.value for p in SearchProfile], default="fast"
    )
    profile_cmd.add_argument(
        "--simulate", action="store_true",
        help="also run the tile-pipeline simulator on every layer's "
        "winning mapping",
    )
    profile_cmd.add_argument(
        "--top", type=int, default=15,
        help="span paths shown in the profile table",
    )
    profile_cmd.add_argument(
        "--sort", choices=["time", "count", "name"], default="time",
        help="span table order: cumulative time descending (default), "
        "call count descending, or span path",
    )
    profile_cmd.add_argument(
        "--cache-dir",
        help="persist the mapping cache under this directory (default: a "
        "fresh in-memory cache, so the profile shows real search cost)",
    )
    profile_cmd.add_argument(
        "--json",
        help="write the span/counter profile as machine-readable JSON "
        "(the shape bench records embed)",
    )
    _add_obs_flags(profile_cmd)
    profile_cmd.set_defaults(func=cmd_profile)

    tail = sub.add_parser(
        "tail",
        help="render a run's event log (--events-out JSONL) as a timeline",
        allow_abbrev=False,
    )
    tail.add_argument(
        "target",
        help="an events.jsonl file, or a run directory containing one",
    )
    tail.add_argument(
        "--follow", "-f", action="store_true",
        help="keep polling for new events until interrupted (like tail -f)",
    )
    tail.add_argument(
        "--poll-interval", type=float, default=0.5,
        help="seconds between polls with --follow (default: 0.5)",
    )
    tail.set_defaults(func=cmd_tail)

    bench = sub.add_parser(
        "bench",
        help="run the paper benchmarks once and record/compare their "
        "fidelity and counters",
        allow_abbrev=False,
    )
    bench.add_argument(
        "--profile", choices=[p.value for p in SearchProfile], default="fast",
        help="mapping-search profile for the benches (REPRO_BENCH_PROFILE)",
    )
    bench.add_argument(
        "--stride", type=int, default=4,
        help="Figure 15 memory-sweep stride (REPRO_FIG15_STRIDE, default 4)",
    )
    bench.add_argument(
        "--jobs", type=_parse_jobs, default=None,
        help="worker processes for the sweep benches (REPRO_JOBS)",
    )
    bench.add_argument(
        "-k", dest="select", default=None, metavar="EXPR",
        help="pytest -k expression selecting a bench subset",
    )
    bench.add_argument(
        "--out", default=None,
        help="record path (default: BENCH_<gitsha>.json at the repo root)",
    )
    bench.add_argument(
        "--benchmarks-dir", default=None,
        help="benchmark suite location (default: <repo>/benchmarks)",
    )
    bench_sub = bench.add_subparsers(dest="bench_action")

    bench_compare = bench_sub.add_parser(
        "compare",
        help="compare two bench records; non-zero exit on fidelity or "
        "gated-counter drift",
        allow_abbrev=False,
    )
    bench_compare.add_argument("old", help="baseline BENCH_*.json")
    bench_compare.add_argument("new", help="candidate BENCH_*.json")
    bench_compare.add_argument(
        "--gate-counter", action="append", default=[], metavar="NAME",
        help="obs counter that must be exactly equal between the records "
        "in every bench (repeatable); any drift fails the compare. "
        "Histogram names are rejected -- timing distributions are never "
        "exactly equal",
    )
    bench.set_defaults(func=cmd_bench)

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected subcommand under a live recorder; write its exports.

    Every command records its metrics -- the counters the run summary
    reads.  Spans and run events cost memory per call, so only a run that
    exports them (``--trace-out``, ``--events-out``) or profiles them
    (``repro profile``) gets the full :class:`repro.obs.Recorder`; the
    rest run under a :class:`repro.obs.MetricsRecorder`.  The exports are
    written after the command returns -- even a failing run keeps its trace.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    metrics_prom = getattr(args, "metrics_prom", None)
    events_out = getattr(args, "events_out", None)
    if trace_out or events_out or args.func is cmd_profile:
        recorder = obs.Recorder()
    else:
        recorder = obs.MetricsRecorder()
    if events_out:
        from repro.obs.events import EventLog, resolve_events_path

        recorder.attach_event_log(EventLog(resolve_events_path(events_out)))
    try:
        with obs.use(recorder):
            code = args.func(args)
    finally:
        if trace_out:
            target = recorder.write_chrome_trace(trace_out)
            print(
                f"Wrote Chrome trace to {target} "
                "(open in https://ui.perfetto.dev)"
            )
        if metrics_out:
            target = recorder.write_metrics(metrics_out)
            print(f"Wrote metrics to {target}")
        if metrics_prom:
            from repro.obs.export import write_prometheus

            target = write_prometheus(recorder.metrics, metrics_prom)
            print(f"Wrote Prometheus metrics to {target}")
        if events_out and recorder.event_log is not None:
            print(f"Wrote event log to {recorder.event_log.path}")
    return code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: parse, dispatch, and map errors to exit codes.

    Every taxonomy error (:class:`repro.errors.ReproError`) escaping a
    subcommand is printed as one ``repro: error [<code>]: <message>`` line
    and mapped to its exit code in exactly one place: usage 2, config 3,
    data 4, exhausted resources 6.  ``KeyboardInterrupt``
    exits 130 (SIGINT convention).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except KeyboardInterrupt:
        print()
        print("Interrupted.", file=sys.stderr)
        return EXIT_INTERRUPT
    except BrokenPipeError:
        # `repro tail run | head` closes stdout early; die quietly with
        # the SIGPIPE convention instead of a traceback.  Redirecting
        # stdout to devnull stops the interpreter's exit-time flush from
        # raising the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + 13
    except ReproError as exc:
        print(
            f"repro: error [{error_code_for(exc)}]: {exc}", file=sys.stderr
        )
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
