"""Structured benchmark records and the cross-run fidelity and counter gates.

Every paper benchmark under ``benchmarks/`` regenerates one of NN-Baton's
tables or figures as a free-text ``.txt`` artifact.  This module defines
the **bench record** the ``repro bench`` CLI emits per run and the exact
comparison that gates on it:

* :class:`BenchCapture` -- the per-test sink behind the ``record_bench``
  fixture (``benchmarks/conftest.py``).  It writes the ``.txt`` artifact,
  collects scalar *values* the bench extracts (fit slopes, option counts,
  energy totals), and -- when :data:`RECORD_DIR_ENV` points somewhere --
  snapshots the run's :class:`~repro.obs.MetricsRegistry` counters and
  appends one JSON fragment line for the CLI to assemble.
* :func:`assemble_record` -- folds one run's fragments into a
  ``BENCH_<gitsha>.json`` payload: per-bench values and counters, an
  environment fingerprint (git SHA, Python, CPU count, ``REPRO_*`` knobs)
  and the :func:`repro.obs.goldens.fidelity_block` of paper-golden
  deviations.
* :func:`compare_records` -- fails *any* fidelity drift (a golden
  deviating from the paper, changing between the two records, or missing
  from the new one) and any difference in a gated counter.

Speed is not tracked here: the repository benchmark (``perfbench/``,
declared in ``BENCHMARK.json``) owns wall-time measurement.

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
from typing import Any, Sequence

from repro import durable, obs

#: Environment variable the ``repro bench`` CLI sets so the
#: ``record_bench`` fixture knows where to append its JSON fragments.
RECORD_DIR_ENV = "REPRO_BENCH_RECORD_DIR"

#: The schema marker every bench record carries.
BENCH_SCHEMA = "repro.bench/1"

#: Fragment file each benchmark run appends to (one line per test).
FRAGMENTS_NAME = "records.jsonl"

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
    """The host and ``REPRO_*`` knobs a record was produced under."""
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
    instance writes a ``.txt`` artifact and echoes it, :meth:`json` writes
    a JSON artifact, and :meth:`values` attaches scalar reproduced numbers
    to the structured record.  When ``record_dir`` is set the test body
    runs under a live :class:`~repro.obs.Recorder` (so its counters are
    captured) and one JSON fragment line is appended to
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
        self._recorder: obs.Recorder | None = None
        self._previous: Any = None

    # -- the artifact surface --

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
        """Persist a JSON artifact under results/."""
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
        return self

    def __exit__(self, *exc_info) -> bool:
        if self._recorder is not None:
            obs.set_recorder(self._previous)
        if self.record_dir is not None:
            self._append_fragment()
        return False

    def fragment(self) -> dict[str, Any]:
        """The JSON fragment describing this one test execution."""
        payload: dict[str, Any] = {
            "bench": self.bench_id,
            "node": self.node_id,
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
    fragments: dict[str, dict[str, Any]],
    config: dict[str, Any],
    fidelity: dict[str, Any],
) -> dict[str, Any]:
    """Fold one run's :func:`load_fragments` map into a bench record.

    Each bench's entry is its fragment without the ``bench`` key: node id,
    values, artifacts and, under a live recorder, the metric snapshots.
    """
    if not fragments:
        raise ValueError("assemble_record() needs at least one bench fragment")
    benches = {
        name: {key: value for key, value in fragment.items() if key != "bench"}
        for name, fragment in sorted(fragments.items())
    }
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
            if not isinstance(entry, dict):
                problems.append(f"bench {name!r} must be an object")
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


# --- cross-run comparison ----------------------------------------------------------


@dataclass(frozen=True)
class FidelityIssue:
    """One golden that drifted (vs the paper, between the runs, or dropped)."""

    golden: str
    reason: str


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

    fidelity: list[FidelityIssue] = field(default_factory=list)
    counters: list[CounterIssue] = field(default_factory=list)
    gated: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.fidelity and not self.counters

    def summary(self) -> str:
        """A terminal-friendly rendering of the comparison."""
        lines = []
        if self.fidelity:
            lines.append("Fidelity drift:")
            for issue in self.fidelity:
                lines.append(f"  DRIFT {issue.golden}: {issue.reason}")
        else:
            lines.append("Fidelity: every golden matches the paper exactly.")
        if self.counters:
            lines.append("Counter drift (gated counters must match exactly):")
            for issue in self.counters:
                lines.append(f"  DRIFT {issue.describe()}")
        elif self.gated:
            lines.append(f"Counters: {', '.join(self.gated)} equal in every bench.")
        return "\n".join(lines)


def compare_records(
    old: dict[str, Any],
    new: dict[str, Any],
    gate_counters: Sequence[str] = (),
) -> CompareReport:
    """Exact comparison of two bench records.

    Fidelity is strict: a golden of ``new`` deviating from the paper at
    all, a golden whose recomputed value changed since ``old``, and a
    golden ``old`` holds that ``new`` lacks are each an issue.

    Every counter named in ``gate_counters`` must be *exactly* equal
    between the runs in every bench where either run recorded it
    (missing on one side is drift) -- the contract that guided-search
    prune/dedup accounting is a pure function of the workload, not of
    ``--jobs`` or host timing.
    """
    report = CompareReport(gated=tuple(gate_counters))
    old_goldens = old.get("fidelity", {}).get("goldens", {})
    new_goldens = new.get("fidelity", {}).get("goldens", {})
    for name in sorted(set(old_goldens) | set(new_goldens)):
        entry = new_goldens.get(name)
        if entry is None:
            report.fidelity.append(
                FidelityIssue(name, "missing from the new record")
            )
            continue
        actual = float(entry.get("actual", 0.0))
        deviation = float(entry.get("deviation", 0.0))
        old_entry = old_goldens.get(name)
        if deviation != 0:
            reason = (
                f"deviates {deviation:+.3e} from the paper value "
                f"(expected {float(entry.get('expected', 0.0)):g}, "
                f"got {actual:g})"
            )
        elif old_entry is not None and float(old_entry["actual"]) != actual:
            reason = (
                f"recomputed value changed "
                f"({float(old_entry['actual']):g} -> {actual:g})"
            )
        else:
            continue
        report.fidelity.append(FidelityIssue(name, reason))

    if gate_counters:
        old_benches = old.get("benches", {})
        new_benches = new.get("benches", {})
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


__all__ = [
    "BENCH_SCHEMA",
    "BenchCapture",
    "CompareReport",
    "CounterIssue",
    "FidelityIssue",
    "RECORD_DIR_ENV",
    "assemble_record",
    "compare_records",
    "environment_fingerprint",
    "git_sha",
    "load_fragments",
    "load_record",
    "validate_record",
    "write_record",
]
