"""Structured benchmark records and cross-run regression detection.

Every paper benchmark under ``benchmarks/`` regenerates one of NN-Baton's
tables or figures and, until this module, reported only free-text ``.txt``
artifacts -- nothing could tell whether a commit made a bench slower or
pushed a reproduced number away from the paper.  This module defines the
**bench record** the ``repro bench`` CLI emits per run and the noise-aware
comparison that gates on it:

* :class:`BenchCapture` -- the per-test sink behind the ``record_bench``
  fixture (``benchmarks/conftest.py``).  It writes the legacy ``.txt``
  artifact byte-identically, collects scalar *values* the bench extracts
  (fit slopes, option counts, energy totals), times the test body, and --
  when :data:`RECORD_DIR_ENV` points somewhere -- snapshots the run's
  :class:`~repro.obs.MetricsRegistry` counters and appends one JSON
  fragment line for the CLI to assemble.
* :func:`assemble_record` -- folds the fragments of one warmup-discarded
  repeat series into a ``BENCH_<gitsha>.json`` payload: per-bench wall
  time (median + MAD over the repeats), values, counters, an environment
  fingerprint (git SHA, Python, CPU count, ``REPRO_*`` knobs) and the
  :func:`repro.obs.goldens.fidelity_block` of paper-golden deviations.
* :func:`append_history` / :func:`load_history` -- an append-only
  ``benchmarks/results/history.jsonl`` with the same torn-tail tolerance
  as :mod:`repro.core.checkpoint`: single ``O_APPEND`` writes, and loads
  that count-and-skip undecodable lines instead of discarding the file.
* :func:`compare_records` -- flags a perf regression only when the median
  shift clears **both** ``k x MAD`` and a relative floor (so a noisy
  1-CPU CI runner does not false-positive), and fails *any* fidelity
  drift: a golden deviating from the paper, or changing between the two
  records.

Schema (``"schema": "repro.bench/1"``) is documented in
``docs/observability.md`` and enforced by :func:`validate_record`.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro import durable, obs

#: Environment variable the ``repro bench`` CLI sets so the
#: ``record_bench`` fixture knows where to append its JSON fragments.
RECORD_DIR_ENV = "REPRO_BENCH_RECORD_DIR"

#: The schema marker every bench record carries.
BENCH_SCHEMA = "repro.bench/1"

#: Fragment file each benchmark run appends to (one line per test).
FRAGMENTS_NAME = "records.jsonl"

#: Default noise gate: median shift must exceed ``k x MAD``.
DEFAULT_K = 3.0

#: Default relative floor: and exceed this fraction of the old median.
DEFAULT_REL_FLOOR = 0.10

#: Absolute floor: shifts under this many seconds are never regressions
#: (sub-10 ms benches on shared runners are pure scheduling noise).
DEFAULT_MIN_DELTA_S = 0.010

#: Top-level keys every record must carry (see ``docs/observability.md``).
_REQUIRED_KEYS = (
    "schema",
    "created_utc",
    "git_sha",
    "environment",
    "config",
    "benches",
    "fidelity",
)


# --- robust statistics -------------------------------------------------------------


def median(samples: Iterable[float]) -> float:
    """The median of ``samples`` (mean of the middle two for even n)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("median() of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(samples: Iterable[float]) -> float:
    """Median absolute deviation -- the robust spread ``compare`` scales."""
    ordered = list(samples)
    center = median(ordered)
    return median(abs(x - center) for x in ordered)


# --- environment fingerprint -------------------------------------------------------


def git_sha(short: bool = False) -> str:
    """The repo HEAD SHA (``"unknown"`` outside a git checkout)."""
    cmd = ["git", "rev-parse", "--short" if short else "--verify", "HEAD"]
    try:
        out = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def environment_fingerprint() -> dict[str, Any]:
    """Everything about the host that perf numbers depend on."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "repro_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_") and key != RECORD_DIR_ENV
        },
    }


# --- the per-test capture sink -----------------------------------------------------


class BenchCapture:
    """The sink behind the ``record_bench`` fixture.

    Use as a context manager around one benchmark test.  Calling the
    instance mirrors the legacy ``record`` fixture exactly (``.txt``
    artifact + stdout echo, byte-identical), :meth:`json` mirrors
    ``record_json``, and :meth:`values` attaches scalar reproduced
    numbers to the structured record.  When ``record_dir`` is set the
    test body runs under a live :class:`~repro.obs.Recorder` (so its
    counters are captured) and one JSON fragment line is appended to
    ``<record_dir>/records.jsonl`` on exit.
    """

    def __init__(
        self,
        node_id: str,
        results_dir: str | Path,
        record_dir: str | Path | None = None,
    ) -> None:
        self.node_id = node_id
        self.bench_id = node_id.rsplit("/", 1)[-1]
        self.results_dir = Path(results_dir)
        self.record_dir = Path(record_dir) if record_dir else None
        self.artifacts: list[str] = []
        self._values: dict[str, float] = {}
        self._wall_s: float | None = None
        self._start: float | None = None
        self._recorder: obs.Recorder | None = None
        self._previous: Any = None

    # -- the record/record_json-compatible surface --

    def __call__(
        self, name: str, text: str, values: dict[str, float] | None = None
    ) -> None:
        """Record a reproduced table/figure: ``.txt`` + echo, plus values."""
        self.results_dir.mkdir(exist_ok=True)
        durable.atomic_write(
            self.results_dir / f"{name}.txt", text + "\n", sink="bench"
        )
        print(f"\n{text}\n")
        self.artifacts.append(f"{name}.txt")
        if values:
            self.values(**values)

    def json(self, name: str, payload: Any) -> Path:
        """Persist a JSON artifact under results/ (mirrors ``record_json``)."""
        self.results_dir.mkdir(exist_ok=True)
        target = self.results_dir / f"{name}.json"
        durable.atomic_write(
            target, json.dumps(payload, indent=2) + "\n", sink="bench"
        )
        self.artifacts.append(f"{name}.json")
        return target

    def values(self, **scalars: float) -> None:
        """Attach named scalar reproduced values to the structured record."""
        for key, value in scalars.items():
            self._values[key] = float(value)

    # -- lifecycle --

    def __enter__(self) -> "BenchCapture":
        if self.record_dir is not None:
            self._recorder = obs.Recorder()
            self._previous = obs.set_recorder(self._recorder)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._wall_s = time.perf_counter() - (self._start or 0.0)
        if self._recorder is not None:
            obs.set_recorder(self._previous)
        if self.record_dir is not None:
            self._append_fragment()
        return False

    @property
    def wall_s(self) -> float | None:
        """The timed test-body duration (set on context exit)."""
        return self._wall_s

    def fragment(self) -> dict[str, Any]:
        """The JSON fragment describing this one test execution."""
        payload: dict[str, Any] = {
            "bench": self.bench_id,
            "node": self.node_id,
            "wall_s": self._wall_s,
            "values": dict(sorted(self._values.items())),
            "artifacts": list(self.artifacts),
        }
        if self._recorder is not None:
            payload["counters"] = self._recorder.metrics.counters()
            payload["gauges"] = self._recorder.metrics.gauges()
            payload["histograms"] = self._recorder.metrics.histograms()
        return payload

    def _append_fragment(self) -> None:
        assert self.record_dir is not None
        self.record_dir.mkdir(parents=True, exist_ok=True)
        line = json.dumps(self.fragment(), sort_keys=True) + "\n"
        durable.durable_append(
            self.record_dir / FRAGMENTS_NAME, line, sink="bench"
        )


def load_fragments(record_dir: str | Path) -> dict[str, dict[str, Any]]:
    """One run's fragments keyed by bench id (last write wins)."""
    path = Path(record_dir) / FRAGMENTS_NAME
    try:
        text = path.read_text()
    except OSError:
        return {}
    lines, _ = durable.parse_lines(text)
    return {str(line["bench"]): line for line in lines if "bench" in line}


# --- record assembly ---------------------------------------------------------------


def assemble_record(
    runs: list[dict[str, dict[str, Any]]],
    config: dict[str, Any],
    fidelity: dict[str, Any],
) -> dict[str, Any]:
    """Fold the fragment maps of N repeat runs into one bench record.

    ``runs`` holds one :func:`load_fragments` map per *kept* repeat (the
    warmup run is discarded before this point).  Values, counters and
    artifacts come from the last repeat; wall-time statistics aggregate
    every repeat that saw the bench.
    """
    if not runs:
        raise ValueError("assemble_record() needs at least one repeat run")
    names = sorted({name for run in runs for name in run})
    benches: dict[str, Any] = {}
    for name in names:
        samples = [
            float(run[name]["wall_s"])
            for run in runs
            if name in run and run[name].get("wall_s") is not None
        ]
        last = next(run[name] for run in reversed(runs) if name in run)
        entry: dict[str, Any] = {
            "node": last.get("node", name),
            "wall_s": {
                "samples": samples,
                "median": median(samples) if samples else None,
                "mad": mad(samples) if samples else None,
                "repeats": len(samples),
            },
            "values": last.get("values", {}),
            "artifacts": last.get("artifacts", []),
        }
        if "counters" in last:
            entry["counters"] = last["counters"]
        if "gauges" in last:
            entry["gauges"] = last["gauges"]
        if "histograms" in last:
            entry["histograms"] = last["histograms"]
        benches[name] = entry
    return {
        "schema": BENCH_SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "environment": environment_fingerprint(),
        "config": config,
        "benches": benches,
        "fidelity": fidelity,
    }


def validate_record(payload: Any) -> list[str]:
    """Schema check; returns a list of problems (empty when valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"record must be a JSON object, got {type(payload).__name__}"]
    for key in _REQUIRED_KEYS:
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    if payload.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {BENCH_SCHEMA!r}"
        )
    benches = payload.get("benches")
    if not isinstance(benches, dict):
        problems.append("'benches' must be an object")
    else:
        for name, entry in benches.items():
            if not isinstance(entry, dict) or "wall_s" not in entry:
                problems.append(f"bench {name!r} missing 'wall_s'")
                continue
            wall = entry["wall_s"]
            if not isinstance(wall, dict) or "median" not in wall or "mad" not in wall:
                problems.append(f"bench {name!r} 'wall_s' needs median and mad")
    fidelity = payload.get("fidelity")
    if not isinstance(fidelity, dict) or "goldens" not in fidelity:
        problems.append("'fidelity' must be an object with a 'goldens' map")
    return problems


def write_record(record: dict[str, Any], path: str | Path) -> Path:
    """Validate and write one bench record as pretty JSON."""
    problems = validate_record(record)
    if problems:
        raise ValueError("invalid bench record: " + "; ".join(problems))
    target = Path(path)
    durable.atomic_write(
        target, json.dumps(record, indent=2, sort_keys=True) + "\n", sink="bench"
    )
    return target


def load_record(path: str | Path) -> dict[str, Any]:
    """Load and validate one bench record."""
    payload = json.loads(Path(path).read_text())
    problems = validate_record(payload)
    if problems:
        raise ValueError(f"invalid bench record {path}: " + "; ".join(problems))
    return payload


# --- the append-only history -------------------------------------------------------


def default_history_path(results_dir: str | Path) -> Path:
    return Path(results_dir) / "history.jsonl"


def append_history(record: dict[str, Any], path: str | Path) -> Path:
    """Append one record as a single JSONL line (one ``O_APPEND`` write).

    Mirrors :meth:`repro.core.checkpoint.SweepCheckpoint.flush`: the
    whole line goes out in one fsync'd ``write`` on an append-mode
    descriptor (:func:`repro.durable.durable_append`), so a killed writer
    can at worst tear the final line -- which :func:`load_history`
    tolerates -- and an append that returned survives ``kill -9``.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True) + "\n"
    durable.durable_append(target, line, sink="history")
    obs.count("bench.history_appends")
    return target


def load_history(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Every decodable record in the history, oldest first.

    Returns ``(records, corrupt_lines)``; undecodable lines (a torn tail
    from a killed writer, stray garbage) are counted and skipped, never
    fatal -- the same discipline as the sweep checkpoint loader.
    """
    try:
        text = Path(path).read_text()
    except OSError:
        return [], 0
    lines, corrupt = durable.parse_lines(text)
    records = [line for line in lines if line.get("schema") == BENCH_SCHEMA]
    corrupt += len(lines) - len(records)
    if corrupt:
        obs.count("bench.history_corrupt_lines", corrupt)
    return records, corrupt


# --- cross-run comparison ----------------------------------------------------------


@dataclass(frozen=True)
class PerfDelta:
    """One bench's wall-time movement between two records."""

    bench: str
    old_median: float | None
    new_median: float | None
    noise_s: float
    status: str  # "ok" | "regression" | "improved" | "added" | "removed"

    @property
    def delta_s(self) -> float | None:
        if self.old_median is None or self.new_median is None:
            return None
        return self.new_median - self.old_median

    @property
    def rel(self) -> float | None:
        if self.old_median in (None, 0) or self.new_median is None:
            return None
        return self.new_median / self.old_median - 1.0


@dataclass(frozen=True)
class FidelityIssue:
    """One golden that drifted (vs the paper, or between the two runs)."""

    golden: str
    reason: str
    expected: float
    old_actual: float | None
    new_actual: float


@dataclass(frozen=True)
class CounterIssue:
    """One gated obs counter that is not byte-identical across the runs."""

    bench: str
    counter: str
    old_value: float | None
    new_value: float | None

    def describe(self) -> str:
        def fmt(value: float | None) -> str:
            return "missing" if value is None else f"{value:g}"

        return (
            f"{self.bench}/{self.counter}: "
            f"{fmt(self.old_value)} -> {fmt(self.new_value)}"
        )


@dataclass
class CompareReport:
    """The outcome of ``repro bench compare <old> <new>``."""

    perf: list[PerfDelta] = field(default_factory=list)
    fidelity: list[FidelityIssue] = field(default_factory=list)
    counters: list[CounterIssue] = field(default_factory=list)
    k: float = DEFAULT_K
    rel_floor: float = DEFAULT_REL_FLOOR

    @property
    def regressions(self) -> list[PerfDelta]:
        return [d for d in self.perf if d.status == "regression"]

    @property
    def perf_ok(self) -> bool:
        return not self.regressions

    @property
    def fidelity_ok(self) -> bool:
        return not self.fidelity

    @property
    def counters_ok(self) -> bool:
        return not self.counters

    def summary(self) -> str:
        """A terminal-friendly rendering of the comparison."""
        lines = [
            f"Bench compare: k={self.k:g} x MAD noise gate, "
            f"relative floor {self.rel_floor:.0%}"
        ]
        for delta in self.perf:
            if delta.status == "added":
                lines.append(f"  [new]     {delta.bench}")
                continue
            if delta.status == "removed":
                lines.append(f"  [gone]    {delta.bench}")
                continue
            tag = {"ok": "ok", "improved": "faster", "regression": "REGRESSION"}[
                delta.status
            ]
            lines.append(
                f"  [{tag:<10s}] {delta.bench}: "
                f"{delta.old_median * 1e3:.1f} -> {delta.new_median * 1e3:.1f} ms "
                f"({delta.rel:+.1%}, noise {delta.noise_s * 1e3:.1f} ms)"
            )
        if self.fidelity:
            lines.append("Fidelity drift:")
            for issue in self.fidelity:
                lines.append(
                    f"  DRIFT {issue.golden}: {issue.reason} "
                    f"(expected {issue.expected:g}, got {issue.new_actual:g})"
                )
        else:
            lines.append("Fidelity: every golden matches the paper exactly.")
        if self.counters:
            lines.append("Counter drift (gated counters must match exactly):")
            for issue in self.counters:
                lines.append(f"  DRIFT {issue.describe()}")
        lines.append(
            f"Perf: {len(self.regressions)} regression(s) across "
            f"{len(self.perf)} bench(es)."
        )
        return "\n".join(lines)


def compare_records(
    old: dict[str, Any],
    new: dict[str, Any],
    k: float = DEFAULT_K,
    rel_floor: float = DEFAULT_REL_FLOOR,
    min_delta_s: float = DEFAULT_MIN_DELTA_S,
    fidelity_tol: float = 0.0,
    gate_counters: Sequence[str] = (),
) -> CompareReport:
    """Noise-aware comparison of two bench records.

    A bench regresses only when its median wall-time shift clears *all*
    of: ``k x max(old MAD, new MAD)``, ``rel_floor`` of the old median,
    and ``min_delta_s`` absolute.  Fidelity is strict: any golden in
    ``new`` deviating from the paper beyond ``fidelity_tol``, or whose
    recomputed actual changed since ``old``, is an issue.

    Counter gating is stricter still: every counter named in
    ``gate_counters`` must be *exactly* equal between the runs in every
    bench where either run recorded it (missing on one side is drift) --
    the contract that guided-search prune/dedup accounting is a pure
    function of the workload, not of ``--jobs`` or host timing.
    """
    report = CompareReport(k=k, rel_floor=rel_floor)
    old_benches = old.get("benches", {})
    new_benches = new.get("benches", {})
    for name in sorted(set(old_benches) | set(new_benches)):
        old_wall = old_benches.get(name, {}).get("wall_s", {})
        new_wall = new_benches.get(name, {}).get("wall_s", {})
        old_med = old_wall.get("median")
        new_med = new_wall.get("median")
        if old_med is None and new_med is None:
            continue
        if old_med is None:
            report.perf.append(PerfDelta(name, None, new_med, 0.0, "added"))
            continue
        if new_med is None:
            report.perf.append(PerfDelta(name, old_med, None, 0.0, "removed"))
            continue
        noise = k * max(old_wall.get("mad") or 0.0, new_wall.get("mad") or 0.0)
        delta = new_med - old_med
        status = "ok"
        if (
            delta > noise
            and delta > min_delta_s
            and old_med > 0
            and delta / old_med > rel_floor
        ):
            status = "regression"
        elif (
            -delta > noise
            and -delta > min_delta_s
            and old_med > 0
            and -delta / old_med > rel_floor
        ):
            status = "improved"
        report.perf.append(PerfDelta(name, old_med, new_med, noise, status))

    old_goldens = old.get("fidelity", {}).get("goldens", {})
    new_goldens = new.get("fidelity", {}).get("goldens", {})
    for name in sorted(new_goldens):
        entry = new_goldens[name]
        expected = float(entry.get("expected", 0.0))
        actual = float(entry.get("actual", 0.0))
        deviation = float(entry.get("deviation", 0.0))
        old_entry = old_goldens.get(name)
        old_actual = float(old_entry["actual"]) if old_entry else None
        if abs(deviation) > fidelity_tol:
            report.fidelity.append(
                FidelityIssue(
                    golden=name,
                    reason=f"deviates {deviation:+.3e} from the paper value",
                    expected=expected,
                    old_actual=old_actual,
                    new_actual=actual,
                )
            )
        elif old_actual is not None and _rel_diff(old_actual, actual) > fidelity_tol:
            report.fidelity.append(
                FidelityIssue(
                    golden=name,
                    reason=f"recomputed value changed ({old_actual:g} -> {actual:g})",
                    expected=expected,
                    old_actual=old_actual,
                    new_actual=actual,
                )
            )

    if gate_counters:
        for name in sorted(set(old_benches) | set(new_benches)):
            old_bench = old_benches.get(name, {})
            new_bench = new_benches.get(name, {})
            old_counters = old_bench.get("counters", {})
            new_counters = new_bench.get("counters", {})
            for counter in gate_counters:
                if (
                    counter in old_bench.get("histograms", {})
                    or counter in new_bench.get("histograms", {})
                ):
                    # Histograms carry timing distributions -- their sums
                    # vary run to run by construction, so "exactly equal"
                    # gating would always fail.  Refuse loudly instead of
                    # silently reporting the name as missing.
                    raise ValueError(
                        f"--gate-counter {counter!r} names a histogram in "
                        f"bench {name!r}; histograms are not gateable "
                        "(gate a counter, or compare histogram counts "
                        "in the record directly)"
                    )
                old_value = old_counters.get(counter)
                new_value = new_counters.get(counter)
                if old_value is None and new_value is None:
                    continue
                if old_value != new_value:
                    report.counters.append(
                        CounterIssue(name, counter, old_value, new_value)
                    )
    return report


def _rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


__all__ = [
    "BENCH_SCHEMA",
    "BenchCapture",
    "CompareReport",
    "CounterIssue",
    "DEFAULT_K",
    "DEFAULT_MIN_DELTA_S",
    "DEFAULT_REL_FLOOR",
    "FidelityIssue",
    "PerfDelta",
    "RECORD_DIR_ENV",
    "append_history",
    "assemble_record",
    "compare_records",
    "default_history_path",
    "environment_fingerprint",
    "git_sha",
    "load_fragments",
    "load_history",
    "load_record",
    "mad",
    "median",
    "validate_record",
    "write_record",
]
