"""Worker-count invariance: same results, same metrics at any ``--jobs``.

The DSE sweep promises bit-identical design points at every worker count,
and the observability layer promises identically-shaped metrics: counters
are order-independent sums shipped home from each worker, so a ``--jobs 4``
run must report exactly the totals of the serial run.  Both promises are
checked end to end through the real CLI (the ``dse`` alias of ``explore``),
comparing the exported JSON byte for byte.  The post-design flow (``map``)
has no worker count: a map always runs in one process.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.events import canonical_event, load_events, schema_errors

SWEEP_ARGS = [
    "dse",
    "--macs", "512",
    "--models", "alexnet",
    "--stride", "997",
    "--profile", "minimal",
]


def run_sweep(
    tmp_path: Path, jobs: int, tag: str
) -> tuple[bytes, dict, list[dict]]:
    result_path = tmp_path / f"result-{tag}.json"
    metrics_path = tmp_path / f"metrics-{tag}.json"
    events_path = tmp_path / f"events-{tag}.jsonl"
    code = main(
        SWEEP_ARGS
        + [
            "--jobs", str(jobs),
            "--json", str(result_path),
            "--metrics-out", str(metrics_path),
            "--events-out", str(events_path),
        ]
    )
    assert code == 0
    events, corrupt = load_events(events_path)
    assert corrupt == 0
    return (
        result_path.read_bytes(),
        json.loads(metrics_path.read_text()),
        events,
    )


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("determinism")
    return {
        "serial": run_sweep(tmp_path, jobs=1, tag="serial"),
        "parallel": run_sweep(tmp_path, jobs=4, tag="parallel"),
    }


class TestResultDeterminism:
    def test_result_json_byte_identical(self, sweeps):
        assert sweeps["serial"][0] == sweeps["parallel"][0]

    def test_result_is_non_trivial(self, sweeps):
        payload = json.loads(sweeps["serial"][0])
        assert payload["swept"] > 0
        assert payload["valid_points"]
        assert payload["recommended"]


class TestMetricsInvariance:
    def test_counters_identical(self, sweeps):
        serial_metrics = sweeps["serial"][1]
        parallel_metrics = sweeps["parallel"][1]
        assert serial_metrics["counters"] == parallel_metrics["counters"]

    def test_metrics_cover_the_instrumented_subsystems(self, sweeps):
        counters = sweeps["serial"][1]["counters"]
        assert counters["dse.points.total"] > 0
        assert counters["mapper.searches.fresh"] > 0
        assert counters["cache.misses"] > 0

    def test_histogram_aggregates_jobs_invariant(self, sweeps):
        # Timing *values* differ run to run, but the observation counts
        # are a pure function of the workload: one sample per evaluated
        # point / fresh search at any worker count.
        serial = sweeps["serial"][1]["histograms"]
        parallel = sweeps["parallel"][1]["histograms"]
        assert set(serial) == set(parallel)
        assert "dse.point_eval_ms" in serial
        for name in serial:
            assert serial[name]["count"] == parallel[name]["count"], name

    def test_histogram_counts_match_the_counters(self, sweeps):
        metrics = sweeps["serial"][1]
        assert (
            metrics["histograms"]["dse.point_eval_ms"]["count"]
            == metrics["counters"]["dse.points.evaluated"]
        )


class TestEventLogInvariance:
    def test_event_logs_schema_valid(self, sweeps):
        for tag in ("serial", "parallel"):
            events = sweeps[tag][2]
            assert events, f"{tag} run produced no events"
            assert schema_errors(events) == []

    def test_event_sets_jobs_invariant(self, sweeps):
        serial = sorted(canonical_event(e) for e in sweeps["serial"][2])
        parallel = sorted(canonical_event(e) for e in sweeps["parallel"][2])
        assert serial == parallel

    def test_lifecycle_brackets_present(self, sweeps):
        names = [e["event"] for e in sweeps["serial"][2]]
        assert names[0] == "run.start" and names[-1] == "run.finish"
        assert "phase.start" in names and "point.batch" in names
