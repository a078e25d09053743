"""Tests for the bench record schema and the compare gates.

Everything runs on synthetic records -- no benchmark is executed -- so
the fidelity strictness and the counter gate are checked directly.  The
committed baseline record is checked against the live golden registry.
"""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.obs import bench as bench_mod
from repro.obs.bench import (
    BENCH_SCHEMA,
    BenchCapture,
    assemble_record,
    compare_records,
    environment_fingerprint,
    load_fragments,
    load_record,
    validate_record,
    write_record,
)
from repro.obs.goldens import fidelity_block

#: The record ``make bench-record`` and CI compare each run against.
BASELINE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "results"
    / "bench_baseline.json"
)


def make_record(benches=(), goldens=None):
    """A minimal valid bench record from golden (expected, actual) pairs."""
    bench_entries = {
        name: {
            "node": f"bench_{name}.py::test_{name}",
            "values": {},
            "artifacts": [f"{name}.txt"],
        }
        for name in benches
    }
    golden_entries = {}
    for name, (expected, actual) in (goldens or {}).items():
        deviation = (
            (actual - expected) / expected if expected else actual - expected
        )
        golden_entries[name] = {
            "expected": expected,
            "actual": actual,
            "deviation": deviation,
            "source": "test",
        }
    return {
        "schema": BENCH_SCHEMA,
        "created_utc": "2026-01-01T00:00:00Z",
        "git_sha": "a" * 40,
        "environment": {"python": "3.11.7", "cpu_count": 1, "repro_env": {}},
        "config": {"profile": "minimal"},
        "benches": bench_entries,
        "fidelity": {
            "goldens": golden_entries,
            "max_abs_deviation": max(
                (abs(g["deviation"]) for g in golden_entries.values()),
                default=0.0,
            ),
            "ok": all(g["deviation"] == 0 for g in golden_entries.values()),
        },
    }


class TestBenchCapture:
    def test_txt_artifact_matches_legacy_record_byte_for_byte(self, tmp_path):
        legacy = tmp_path / "legacy"
        new = tmp_path / "new"
        legacy.mkdir()
        new.mkdir()
        text = "Table X -- something\n  row 1\n  row 2"
        # The format the committed results/*.txt artifacts were written in.
        (legacy / "t.txt").write_text(text + "\n")
        with BenchCapture("bench_t.py::test_t", new) as capture:
            capture("t", text)
        assert (new / "t.txt").read_bytes() == (legacy / "t.txt").read_bytes()

    def test_fragment_appended_with_values_and_counters(self, tmp_path):
        record_dir = tmp_path / "frags"
        with BenchCapture(
            "benchmarks/bench_x.py::test_x", tmp_path, record_dir
        ) as capture:
            obs.count("unit.test.work", 7)
            capture("x", "table")
            capture.values(answer=42)
        fragments = load_fragments(record_dir)
        frag = fragments["bench_x.py::test_x"]
        assert "wall_s" not in frag
        assert frag["values"] == {"answer": 42.0}
        assert frag["artifacts"] == ["x.txt"]
        assert frag["counters"]["unit.test.work"] == 7

    def test_restores_previous_recorder(self, tmp_path):
        before = obs.get_recorder()
        with BenchCapture("n::t", tmp_path, tmp_path / "frags"):
            assert obs.get_recorder() is not before
        assert obs.get_recorder() is before

    def test_no_record_dir_means_no_fragment_and_null_recorder(self, tmp_path):
        before = obs.get_recorder()
        with BenchCapture("n::t", tmp_path) as capture:
            assert obs.get_recorder() is before
            capture("y", "text")
        assert not (tmp_path / bench_mod.FRAGMENTS_NAME).exists()

    def test_json_mirrors_record_json(self, tmp_path):
        with BenchCapture("n::t", tmp_path) as capture:
            target = capture.json("report", {"a": 1})
        assert json.loads(target.read_text()) == {"a": 1}

    def test_load_fragments_skips_garbage_lines(self, tmp_path):
        record_dir = tmp_path / "frags"
        record_dir.mkdir()
        good = json.dumps({"bench": "b", "values": {}})
        (record_dir / bench_mod.FRAGMENTS_NAME).write_text(
            good + "\n{torn gar\n"
        )
        assert list(load_fragments(record_dir)) == ["b"]


class TestAssembleAndValidate:
    def test_values_and_counters_from_the_run(self):
        fragments = {
            "b": {
                "bench": "b",
                "node": "bench_b.py::test_b",
                "values": {"answer": 3.0},
                "artifacts": ["b.txt"],
                "counters": {"c": 1},
            }
        }
        record = assemble_record(
            fragments, config={"profile": "fast"}, fidelity={"goldens": {}}
        )
        entry = record["benches"]["b"]
        assert entry == {
            "node": "bench_b.py::test_b",
            "values": {"answer": 3.0},
            "artifacts": ["b.txt"],
            "counters": {"c": 1},
        }
        assert validate_record(record) == []

    def test_empty_runs_raise(self):
        with pytest.raises(ValueError):
            assemble_record({}, config={}, fidelity={})

    def test_validate_flags_missing_keys(self):
        problems = validate_record({"schema": "wrong"})
        assert any("fidelity" in p for p in problems)
        assert any("expected" in p for p in problems)

    def test_write_and_load_roundtrip(self, tmp_path):
        record = make_record(benches=["b"], goldens={"g": (2.0, 2.0)})
        path = write_record(record, tmp_path / "BENCH_test.json")
        assert load_record(path) == record

    def test_write_rejects_invalid(self, tmp_path):
        with pytest.raises(ValueError):
            write_record({"schema": BENCH_SCHEMA}, tmp_path / "bad.json")


class TestCompare:
    def test_clean_rerun_passes(self):
        old = make_record(benches=["b"], goldens={"g": (2.0, 2.0)})
        new = make_record(benches=["b"], goldens={"g": (2.0, 2.0)})
        report = compare_records(old, new)
        assert report.ok
        assert "every golden matches the paper" in report.summary()

    def test_fidelity_drift_of_one_golden_fails(self):
        old = make_record(goldens={"g1": (2.0, 2.0), "g2": (8.75, 8.75)})
        new = make_record(goldens={"g1": (2.0, 2.0), "g2": (8.75, 8.76)})
        report = compare_records(old, new)
        assert not report.ok
        assert [issue.golden for issue in report.fidelity] == ["g2"]
        assert "paper" in report.fidelity[0].reason

    def test_actual_change_between_runs_fails_even_when_on_paper(self):
        # expected==actual in the new run (deviation 0) but the recomputed
        # value moved since the old record -- still an issue.
        old = make_record(goldens={"g": (2.0, 2.5)})
        new = make_record(goldens={"g": (2.0, 2.0)})
        report = compare_records(old, new)
        assert [issue.golden for issue in report.fidelity] == ["g"]
        assert "changed" in report.fidelity[0].reason

    def test_golden_missing_from_the_new_record_fails(self):
        # Deleting a golden from the registry must not pass the gate.
        old = make_record(goldens={"g1": (2.0, 2.0), "g2": (8.75, 8.75)})
        new = make_record(goldens={"g1": (2.0, 2.0)})
        report = compare_records(old, new)
        assert not report.ok
        assert [issue.golden for issue in report.fidelity] == ["g2"]
        assert "missing" in report.fidelity[0].reason

    def test_golden_added_in_the_new_record_passes(self):
        old = make_record(goldens={"g1": (2.0, 2.0)})
        new = make_record(goldens={"g1": (2.0, 2.0), "g2": (8.75, 8.75)})
        assert compare_records(old, new).ok

    def test_summary_names_each_drifted_golden(self):
        old = make_record(goldens={"g": (2.0, 2.0), "h": (1.0, 1.0)})
        new = make_record(goldens={"g": (2.0, 3.0)})
        text = compare_records(old, new).summary()
        assert "DRIFT g" in text
        assert "DRIFT h" in text


class TestCounterGate:
    @staticmethod
    def record_with_counters(counters, name="b"):
        record = make_record(benches=[name])
        record["benches"][name]["counters"] = counters
        return record

    def test_matching_gated_counters_pass(self):
        old = self.record_with_counters({"dse.points.pruned": 7, "other": 1})
        new = self.record_with_counters({"dse.points.pruned": 7, "other": 99})
        report = compare_records(old, new, gate_counters=["dse.points.pruned"])
        assert report.ok
        assert report.counters == []

    def test_gated_counter_drift_fails_exactly(self):
        old = self.record_with_counters({"dse.points.pruned": 7})
        new = self.record_with_counters({"dse.points.pruned": 8})
        report = compare_records(old, new, gate_counters=["dse.points.pruned"])
        assert not report.ok
        issue = report.counters[0]
        assert issue.counter == "dse.points.pruned"
        assert (issue.old_value, issue.new_value) == (7, 8)
        assert "dse.points.pruned" in report.summary()

    def test_counter_missing_on_one_side_is_drift(self):
        old = self.record_with_counters({"dse.points.pruned": 7})
        new = self.record_with_counters({})
        report = compare_records(old, new, gate_counters=["dse.points.pruned"])
        assert not report.ok

    def test_counter_absent_from_both_sides_is_ignored(self):
        old = self.record_with_counters({})
        new = self.record_with_counters({})
        report = compare_records(old, new, gate_counters=["dse.points.pruned"])
        assert report.ok

    def test_ungated_counters_never_gate(self):
        old = self.record_with_counters({"dse.points.pruned": 7})
        new = self.record_with_counters({"dse.points.pruned": 999})
        assert compare_records(old, new).ok

    def test_gating_a_histogram_name_is_a_clear_error(self):
        # A histogram's sum is timing-shaped and never exactly equal
        # between runs, so gating one would always fail (or worse,
        # silently pass as absent-from-both); the compare refuses loudly.
        old = self.record_with_counters({})
        new = self.record_with_counters({})
        new["benches"]["b"]["histograms"] = {
            "dse.point_eval_ms": {
                "count": 3, "sum": 1.5, "min": 0.1, "max": 1.0,
                "buckets": {"0": 3},
            }
        }
        with pytest.raises(ValueError, match="not gateable"):
            compare_records(
                old, new, gate_counters=["dse.point_eval_ms"]
            )

    def test_histogram_on_the_old_side_also_rejected(self):
        old = self.record_with_counters({})
        old["benches"]["b"]["histograms"] = {"h": {"count": 1}}
        new = self.record_with_counters({})
        with pytest.raises(ValueError, match="histogram"):
            compare_records(old, new, gate_counters=["h"])


class TestEnvironmentFingerprint:
    def test_captures_repro_knobs_but_not_the_record_dir(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "minimal")
        monkeypatch.setenv(bench_mod.RECORD_DIR_ENV, "/tmp/x")
        env = environment_fingerprint()
        assert env["repro_env"]["REPRO_BENCH_PROFILE"] == "minimal"
        assert bench_mod.RECORD_DIR_ENV not in env["repro_env"]
        assert env["cpu_count"] >= 1


class TestBaseline:
    """The committed baseline is a valid record of today's goldens."""

    def test_baseline_validates_and_carries_no_wall_time(self):
        record = load_record(BASELINE)
        assert validate_record(record) == []
        assert "repeats" not in record["config"]
        assert "warmup" not in record["config"]
        assert all("wall_s" not in entry for entry in record["benches"].values())

    def test_baseline_goldens_equal_the_registry(self):
        committed = load_record(BASELINE)["fidelity"]
        live = fidelity_block()
        assert list(committed["goldens"]) == sorted(live["goldens"])
        for name, entry in live["goldens"].items():
            assert committed["goldens"][name] == entry, name
        assert committed["ok"] and committed["max_abs_deviation"] == 0.0
