"""Run one benchmark workload and print its metrics; see perfbench/NOTES.md.

Usage (from the repository root)::

    python3 perfbench/run.py --workload map-cold --seed 0 --seconds 15 --trace 0

``--trace 0`` times rounds of the workload for ``--seconds`` and reports
the end-to-end metrics.  ``--trace 1`` times rounds for half of
``--seconds``, replays the same rounds with every layer boundary wrapped,
and reports the per-layer metrics.  Every op's answer is checked against
``perfbench/reference/``.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import bootstrap  # noqa: E402

#: End-to-end metrics and their units (tracing off).  Call and op times
#: are means over the run: its ops fall in fast or contended stretches of
#: a shared host, and the median of per-op times jumps as the contended
#: share crosses one half while the mean moves in proportion.  Percentiles
#: are printed, not gated.
END_TO_END = {
    "setup_s": "s",
    "call_ms.mean": "ms",
    "op_ms.mean": "ms",
    "peak_rss_mb": "MiB",
}

#: Set-ups per run (this process plus fresh child processes); the median
#: is reported.
SETUP_SAMPLES = 3

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def percentile(values: list[float], pct: int) -> float | None:
    """Nearest-rank ``pct``-th percentile, or ``None`` when fewer than
    :data:`TAIL_SAMPLES` samples lie beyond it."""
    if len(values) * (100 - pct) // 100 < TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    return ordered[math.ceil(len(ordered) * pct / 100) - 1]


def percentile_notes(name: str, values: list[float]) -> list[str]:
    """Report lines for the median and tail percentiles, with the sample count."""
    lines = []
    for pct in (50, 90, 99):
        value = percentile(values, pct)
        lines.append(
            f"{name}.p{pct} = {value!r} ms ({len(values)} samples)" if value is not None
            else f"{name}.p{pct} not reported: {len(values)} samples, needs "
            f"{TAIL_SAMPLES * 100 // (100 - pct)}"
        )
    return lines


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(workload, seconds: float) -> tuple[list, float]:
    """Rounds 0, 1, ... until ``seconds`` have passed (at least one).

    Also returns the peak resident memory when the first round ended: set-up
    plus one round is the same work on every run, while the number of rounds
    after it follows the host's speed.
    """
    start = time.perf_counter()
    results = [workload.round(0)]
    first_round_peak_mb = peak_rss_mb()
    while time.perf_counter() - start < seconds:
        results.append(workload.round(len(results)))
    return results, first_round_peak_mb


def failed_ops(rounds: list) -> int:
    """Ops that raised or answered wrong (failure reports, capped per round)."""
    return sum(min(len(r.failures), max(r.attempted, 1)) for r in rounds)


def check_fidelity(notes: list[str]) -> bool:
    """The paper goldens must all sit at deviation 0."""
    from repro.obs.goldens import fidelity_block

    block = fidelity_block()
    notes.append(
        f"fidelity: {len(block['goldens'])} paper goldens, "
        f"max deviation {block['max_abs_deviation']!r}, ok={block['ok']}"
    )
    return bool(block["ok"])


def probe_setup(args) -> float:
    """Set-up time of the workload in a fresh child process."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=150, cwd=bootstrap.ROOT
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def end_to_end(args, workload, setup_s: float, notes: list[str]):
    rounds, first_round_peak_mb = run_rounds(workload, args.seconds)
    ok = check_fidelity(notes)
    setups = [setup_s]
    try:
        setups += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        notes.append(str(exc))
        ok = False
    calls = [ms for r in rounds for ms in r.call_ms]
    ops = [ms for r in rounds for ms in r.op_ms]
    metrics = {
        "setup_s": statistics.median(setups),
        "call_ms.mean": statistics.fmean(calls) if calls else 0.0,
        "op_ms.mean": statistics.fmean(ops) if ops else 0.0,
        "peak_rss_mb": first_round_peak_mb,
    }
    notes.append(f"rounds {len(rounds)}; set-up samples {setups}")
    notes.append(f"peak resident memory at the end of the run: {peak_rss_mb()!r} MiB")
    notes.append(f"call_ms: {len(calls)} samples; op_ms: {len(ops)} samples")
    notes.extend(percentile_notes("op_ms", ops))
    if not (calls and ops):
        ok = False
    return rounds, metrics, END_TO_END, ok


def traced(args, workload, tracer, notes: list[str]):
    import tracing

    untraced, _ = run_rounds(workload, args.seconds / 2)
    restore = tracing.install(tracer)
    rounds = []
    try:
        for index in range(len(untraced)):
            tracer.round = index
            rounds.append(workload.round(index, tracer))
    finally:
        tracer.round = None
        restore()
    ok = check_fidelity(notes)
    counts = [tracer.counts[i] for i in range(len(rounds))]
    if any(c != counts[0] for c in counts):
        notes.append(f"per-layer counts differ between rounds: {counts}")
        ok = False
    untraced_ms = sum(ms for r in untraced for ms in r.call_ms)
    metrics = tracing.layer_metrics(tracer, len(rounds), untraced_ms)
    path = bootstrap.WORK_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(path)
    notes.append(f"rounds {len(rounds)} untraced + {len(rounds)} traced; "
                 f"{len(tracer.spans)} spans written to {path.relative_to(bootstrap.ROOT)}")
    notes.append(f"counts per round: {dict(sorted(counts[0].items()))}")
    return untraced + rounds, metrics, tracing.PER_LAYER_UNITS, ok


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["map-cold", "map-warm", "sweep-fig15", "sweep-guided"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up time (internal)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so work directories and set-up probes
    # are cleaned up when the run is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    environment = bootstrap.pin_environment()
    try:
        bootstrap.use_checkout_source()
    except bootstrap.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    bootstrap.WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=bootstrap.WORK_DIR, prefix=f"{args.workload}-"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        prepare_start = time.perf_counter()
        workload.prepare()
        prepare_s = time.perf_counter() - prepare_start
        restore = tracing.install(tracer) if tracer else None
        try:
            workload.setup()
        finally:
            if restore:
                restore()
        setup_s = time.perf_counter() - _PROCESS_START - prepare_s
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        notes = [
            f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}",
            f"environment: cleared {environment['cleared']}, set {environment['set']}, "
            f"fresh cache/checkpoint/study directories under "
            f"{workdir.relative_to(bootstrap.ROOT)}",
        ]
        if tracer:
            rounds, metrics, units, ok = traced(args, workload, tracer, notes)
        else:
            rounds, metrics, units, ok = end_to_end(args, workload, setup_s, notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = failed_ops(rounds)
    notes.append(f"fail_rate = {failed}/{attempted} = {failed / max(attempted, 1)!r}")
    for report in [f for r in rounds for f in r.failures][:5]:
        notes.append(f"FAILED {report}")
    for name, value in metrics.items():
        notes.append(f"{name} = {value!r} {units[name]}")
    print("\n".join(notes))
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
