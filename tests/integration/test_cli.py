"""Tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m repro`` in a subprocess with src on PYTHONPATH."""
    repo_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=repo_root,
    )


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_hw_spec_parsing(self):
        args = build_parser().parse_args(["map", "alexnet", "--hw", "2-4-8-8"])
        assert args.hw.config_tuple() == (2, 4, 8, 8)

    def test_case_study_default(self):
        args = build_parser().parse_args(["map", "alexnet"])
        assert args.hw.config_tuple() == (4, 8, 8, 8)

    def test_bad_hw_spec_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["map", "alexnet", "--hw", "4x8"])


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "vgg16" in out and "mobilenetv2" in out and "GMACs" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "8.750" in out and "DRAM" in out

    def test_map_minimal_profile(self, capsys):
        assert main(["map", "alexnet", "--profile", "minimal"]) == 0
        out = capsys.readouterr().out
        assert "conv1" in out and "Total:" in out and "EDP" in out

    def test_map_json_export(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "map",
                    "alexnet",
                    "--profile",
                    "minimal",
                    "--json",
                    str(out_path),
                ]
            )
            == 0
        )
        data = json.loads(out_path.read_text())
        assert data["model"] == "alexnet"
        assert len(data["layers"]) == 8
        assert data["layers"][0]["mapping"]["rotation"] in (
            "none",
            "activations",
            "weights",
        )

    def test_map_cache_lines_match_the_counters(self, tmp_path, monkeypatch, capsys):
        # The run summary's line and the cache's own describe() line both
        # report the exported cache.hits/cache.misses: ResNet-50's 54 layers
        # hold 21 unique shapes.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        metrics_path = tmp_path / "metrics.json"
        argv = ["map", "resnet50", "--profile", "minimal", "--metrics-out", str(metrics_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        counters = json.loads(metrics_path.read_text())["counters"]
        exported = (counters["cache.hits"], counters["cache.misses"])
        assert exported == (33, 21)
        lines = [
            line for line in out.splitlines() if line.strip().lower().startswith("mapping cache:")
        ]
        assert len(lines) == 2
        for line in lines:
            counts = re.search(r"(\d+) hits .*/ (\d+) misses", line)
            assert (int(counts[1]), int(counts[2])) == exported, line
        search_line = next(line for line in out.splitlines() if line.startswith("Search:"))
        assert search_line.endswith("1 job)")

    @pytest.mark.parametrize("command", ["map", "profile"])
    def test_map_flows_refuse_jobs(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "alexnet", "--profile", "minimal", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_compare(self, capsys):
        assert main(["compare", "alexnet", "--profile", "minimal"]) == 0
        out = capsys.readouterr().out
        assert "Simba baseline" in out and "Energy saving" in out

    def test_explore(self, capsys):
        assert (
            main(
                [
                    "explore",
                    "--macs",
                    "512",
                    "--models",
                    "alexnet",
                    "--stride",
                    "24",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Recommended:" in out

    def test_explore_guided_json_payload(self, tmp_path, capsys):
        out_path = tmp_path / "guided.json"
        assert (
            main(
                [
                    "explore",
                    "--macs",
                    "512",
                    "--models",
                    "alexnet",
                    "--profile",
                    "minimal",
                    "--strategy",
                    "guided",
                    "--trials",
                    "6",
                    "--seed",
                    "3",
                    "--study",
                    str(tmp_path / "study.jsonl"),
                    "--json",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Recommended:" in out
        data = json.loads(out_path.read_text())
        assert data["strategy"] == "guided"
        assert data["seed"] == 3
        assert data["trials"] == 6
        search = data["search"]
        assert set(search) >= {"evaluated", "pruned", "deduped", "resumed"}
        assert search["evaluated"] <= 6
        assert (tmp_path / "study.jsonl").exists()

    def test_explore_guided_requires_trials(self, capsys):
        code = main(
            [
                "explore",
                "--macs",
                "512",
                "--models",
                "alexnet",
                "--strategy",
                "guided",
            ]
        )
        assert code == 2
        assert "--trials" in capsys.readouterr().err

    def test_unknown_model_exits_2_in_process(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["map", "nope", "--profile", "minimal"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown model 'nope'" in err

    def test_audit_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "audit.json"
        assert (
            main(
                [
                    "audit",
                    "--models",
                    "alexnet",
                    "--hw",
                    "2-4-8-8",
                    "--max-layers",
                    "1",
                    "--sample",
                    "1",
                    "--json",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Consistency audit" in out and "alexnet" in out
        data = json.loads(out_path.read_text())
        assert data["ok"] is True
        assert data["violations"] == 0
        assert "alexnet" in data["models"]

    def test_audit_unknown_model_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--models", "nope"])
        assert exc.value.code == 2
        assert "unknown model 'nope'" in capsys.readouterr().err

    def test_explore_impossible_budget(self, capsys):
        assert (
            main(
                [
                    "explore",
                    "--macs",
                    "512",
                    "--models",
                    "alexnet",
                    "--area",
                    "0.001",
                    "--stride",
                    "24",
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "No design satisfies" in out


class TestUnknownModelSubprocess:
    """The three fixed failure modes, end to end through ``python -m repro``."""

    def test_unknown_model_exit_code_and_message(self):
        from repro.workloads.registry import list_models

        proc = _run_cli("map", "nope")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        # One line, naming every registered model.
        assert proc.stderr.strip().count("\n") == 0
        for name in list_models():
            assert name in proc.stderr

    def test_model_flag_not_abbreviated_to_model_file(self):
        proc = _run_cli("map", "--model", "nope")
        assert proc.returncode == 2
        assert "FileNotFoundError" not in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_model_file_clean_error(self):
        proc = _run_cli("map", "--model-file", "/no/such/model.json")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "model file not found" in proc.stderr

    def test_compare_unknown_model(self):
        proc = _run_cli("compare", "nope")
        assert proc.returncode == 2
        assert "unknown model" in proc.stderr

    def test_explore_unknown_model(self):
        proc = _run_cli("explore", "--macs", "512", "--models", "nope")
        assert proc.returncode == 2
        assert "unknown model" in proc.stderr


class TestObservabilityFlags:
    """The --trace-out / --metrics-out exports and the profile subcommand."""

    def _assert_valid_chrome_trace(self, path):
        trace = json.loads(path.read_text())
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        complete = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert complete, "trace has no complete-duration events"
        for event in complete:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert event["ts"] >= 0 and event["dur"] >= 0
        meta = [e for e in trace["traceEvents"] if e.get("ph") == "M"]
        assert any(e["name"] == "process_name" for e in meta)
        return trace

    def test_profile_emits_valid_chrome_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert (
            main(
                [
                    "profile",
                    "mobilenet_v2",
                    "--profile",
                    "minimal",
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Profiled mobilenet_v2" in out
        assert "Span path" in out and "mapper.search_model" in out
        assert "mapper.candidates.evaluated" in out
        trace = self._assert_valid_chrome_trace(trace_path)
        names = {e["name"] for e in trace["traceEvents"]}
        assert "mapper.search_fresh" in names

    def test_profile_simulate_adds_sim_spans(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert (
            main(
                [
                    "profile",
                    "alexnet",
                    "--profile",
                    "minimal",
                    "--simulate",
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sim.runs" in out
        trace = self._assert_valid_chrome_trace(trace_path)
        assert "sim.run" in {e["name"] for e in trace["traceEvents"]}

    def test_map_metrics_out(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        assert (
            main(
                [
                    "map",
                    "alexnet",
                    "--profile",
                    "minimal",
                    "--metrics-out",
                    str(metrics_path),
                ]
            )
            == 0
        )
        metrics = json.loads(metrics_path.read_text())
        assert set(metrics) == {"counters", "gauges", "histograms"}
        assert metrics["counters"]["mapper.layers.searched"] == 8
        assert metrics["counters"]["mapper.searches.fresh"] > 0
        assert metrics["histograms"]["mapper.search_ms"]["count"] > 0

    def test_audit_trace_out(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        assert (
            main(
                [
                    "audit",
                    "--models",
                    "alexnet",
                    "--hw",
                    "2-4-8-8",
                    "--max-layers",
                    "1",
                    "--sample",
                    "1",
                    "--trace-out",
                    str(trace_path),
                    "--metrics-out",
                    str(metrics_path),
                ]
            )
            == 0
        )
        trace = self._assert_valid_chrome_trace(trace_path)
        assert "audit.model" in {e["name"] for e in trace["traceEvents"]}
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["audit.models"] == 1
        assert metrics["counters"]["audit.pairs"] > 0

    def test_dse_alias_parses_like_explore(self):
        parser = build_parser()
        args = parser.parse_args(["dse", "--macs", "512"])
        assert args.func.__name__ == "cmd_explore"

    def test_no_flags_means_null_recorder(self, capsys):
        # Without observability flags the run stays on the null recorder.
        from repro import obs

        assert main(["map", "alexnet", "--profile", "minimal"]) == 0
        assert obs.get_recorder() is obs.NULL_RECORDER
        capsys.readouterr()


class TestRunTelemetryCLI:
    """--events-out / --metrics-prom / --progress / tail / profile --sort."""

    SWEEP = [
        "explore",
        "--macs", "512",
        "--models", "alexnet",
        "--stride", "997",
        "--profile", "minimal",
    ]

    def test_events_out_and_metrics_prom(self, tmp_path, capsys):
        from repro.obs.events import load_events, schema_errors

        run_dir = tmp_path / "run1"
        prom_path = tmp_path / "metrics.prom"
        code = main(
            self.SWEEP
            + ["--events-out", str(run_dir), "--metrics-prom", str(prom_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Wrote Prometheus metrics" in out
        assert "Wrote event log" in out
        events, corrupt = load_events(run_dir)
        assert corrupt == 0 and schema_errors(events) == []
        names = [e["event"] for e in events]
        assert names[0] == "run.start" and names[-1] == "run.finish"
        prom = prom_path.read_text()
        assert "# TYPE repro_dse_points_evaluated counter" in prom
        assert 'repro_dse_point_eval_ms_bucket{le="+Inf"} 50' in prom

    def test_progress_into_a_pipe_leaves_stdout_identical(
        self, tmp_path, capsys
    ):
        # capsys streams are not TTYs, so --progress auto-disables; the
        # result payload must be byte-identical either way and no meter
        # bytes may reach stdout or stderr.
        with_progress = tmp_path / "with.json"
        without = tmp_path / "without.json"
        assert (
            main(self.SWEEP + ["--progress", "--json", str(with_progress)])
            == 0
        )
        captured = capsys.readouterr()
        assert "\r" not in captured.out and "\r" not in captured.err
        assert (
            main(self.SWEEP + ["--no-progress", "--json", str(without)]) == 0
        )
        capsys.readouterr()
        assert with_progress.read_bytes() == without.read_bytes()

    def test_tail_renders_the_timeline(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        assert main(self.SWEEP + ["--events-out", str(events_path)]) == 0
        capsys.readouterr()
        assert main(["tail", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert "event(s) from" in out.splitlines()[0]
        assert "run.start" in out and "op=explore" in out
        assert "point.batch" in out and "done=16" in out

    def test_tail_missing_file_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tail", str(tmp_path / "nope")])
        assert excinfo.value.code == 2
        assert "no event log" in capsys.readouterr().err

    def test_tail_warns_about_torn_tail(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        assert main(self.SWEEP + ["--events-out", str(events_path)]) == 0
        capsys.readouterr()
        with open(events_path, "a") as handle:
            handle.write('{"v": 1, "torn')
        assert main(["tail", str(events_path)]) == 0
        assert "tolerated 1 undecodable" in capsys.readouterr().err

    def test_profile_sort_orders(self, capsys):
        for sort in ("time", "count", "name"):
            assert (
                main(
                    [
                        "profile",
                        "alexnet",
                        "--profile", "minimal",
                        "--sort", sort,
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert "Histograms (log2 buckets)" in out
            assert "mapper.search_ms" in out
        # --sort name lists span paths alphabetically.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "alexnet", "--sort", "pid"])


class TestBenchCLI:
    """The ``repro bench`` family: run and compare."""

    def _record(self, **kwargs):
        from tests.obs.test_bench import make_record

        return make_record(**kwargs)

    def _write(self, tmp_path, name, record):
        path = tmp_path / name
        path.write_text(json.dumps(record) + "\n")
        return path

    def test_bench_end_to_end(self, tmp_path):
        # The acceptance path: run one light bench once, get a valid
        # record with zero fidelity deviation, and a clean self-compare.
        out = tmp_path / "BENCH_test.json"
        proc = _run_cli(
            "bench",
            "-k",
            "fig10",
            "--profile",
            "minimal",
            "--out",
            str(out),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "every paper golden reproduced exactly" in proc.stdout

        from repro.obs.bench import load_record

        record = load_record(out)
        fig10 = record["benches"][
            "bench_fig10_memory_model.py::test_fig10_linear_fits"
        ]
        assert "wall_s" not in fig10
        assert fig10["values"]["area_fit_r2"] == pytest.approx(0.99997, abs=1e-4)
        assert record["fidelity"]["ok"]
        assert record["fidelity"]["max_abs_deviation"] == 0.0
        assert record["config"] == {
            "profile": "minimal",
            "stride": 4,
            "jobs": None,
            "select": "fig10",
        }

        # A record compared against itself is clean: exit 0.
        assert main(["bench", "compare", str(out), str(out)]) == 0

    def test_bench_leaves_committed_results_alone(self, tmp_path):
        # repro bench writes its artifacts into its staging directory; the
        # committed benchmarks/results/ is neither rewritten nor touched.
        results = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

        def snapshot():
            return {
                path.name: (path.read_bytes(), path.stat().st_mtime_ns)
                for path in sorted(results.iterdir())
            }

        before = snapshot()
        proc = _run_cli(
            "bench", "-k", "fig10", "--profile", "minimal",
            "--out", str(tmp_path / "BENCH_test.json"),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert snapshot() == before

    def test_compare_fidelity_drift_fails_even_advisory(self, tmp_path, capsys):
        # Fidelity always gates: compare has no mode that forgives drift.
        old = self._write(
            tmp_path, "old.json", self._record(goldens={"g": (8.75, 8.75)})
        )
        new = self._write(
            tmp_path, "new.json", self._record(goldens={"g": (8.75, 9.00)})
        )
        assert main(["bench", "compare", str(old), str(new)]) == 1
        assert "DRIFT g" in capsys.readouterr().out

    def test_compare_fails_on_a_changed_or_missing_golden(self, tmp_path, capsys):
        old = self._write(
            tmp_path,
            "old.json",
            self._record(goldens={"g": (2.0, 2.5), "h": (1.0, 1.0)}),
        )
        changed = self._write(
            tmp_path,
            "changed.json",
            self._record(goldens={"g": (2.0, 2.0), "h": (1.0, 1.0)}),
        )
        missing = self._write(
            tmp_path, "missing.json", self._record(goldens={"g": (2.0, 2.5)})
        )
        assert main(["bench", "compare", str(old), str(changed)]) == 1
        assert "DRIFT g: recomputed value changed" in capsys.readouterr().out
        assert main(["bench", "compare", str(old), str(missing)]) == 1
        assert "DRIFT h: missing" in capsys.readouterr().out

    def test_compare_gate_counter(self, tmp_path, capsys):
        def with_pruned(value):
            record = self._record(benches=["guided"])
            record["benches"]["guided"]["counters"] = {"dse.points.pruned": value}
            return record

        seven = self._write(tmp_path, "seven.json", with_pruned(7))
        again = self._write(tmp_path, "again.json", with_pruned(7))
        eight = self._write(tmp_path, "eight.json", with_pruned(8))
        gate = ["--gate-counter", "dse.points.pruned"]
        assert main(["bench", "compare", str(seven), str(again), *gate]) == 0
        assert "dse.points.pruned equal in every bench" in capsys.readouterr().out
        assert main(["bench", "compare", str(seven), str(eight), *gate]) == 1
        assert "guided/dse.points.pruned: 7 -> 8" in capsys.readouterr().out
        # Ungated, the same counter difference does not fail the compare.
        assert main(["bench", "compare", str(seven), str(eight)]) == 0
        capsys.readouterr()

    def test_compare_rejects_invalid_record(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit):
            main(["bench", "compare", str(bad), str(bad)])

    def test_profile_json_export(self, tmp_path, capsys):
        target = tmp_path / "profile.json"
        assert (
            main(
                [
                    "profile",
                    "alexnet",
                    "--profile",
                    "minimal",
                    "--json",
                    str(target),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(target.read_text())
        assert payload["model"] == "alexnet"
        assert payload["counters"]["mapper.candidates.evaluated"] > 0
        span = payload["spans"]["mapper.search_model"]
        assert span["calls"] == 1 and span["total_ns"] > 0


class TestTaxonomyExitCodes:
    """The taxonomy -> exit-code mapping, through the single main() handler."""

    @pytest.mark.parametrize("value", ["garbage", "-1"])
    def test_config_error_bad_repro_jobs_exits_3(self, value, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", value)
        argv = ["explore", "--macs", "32", "--models", "alexnet", "--profile", "minimal"]
        assert main(argv + ["--stride", "997"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("repro: error [config]: REPRO_JOBS")
        assert "Traceback" not in err

    def test_data_error_model_file_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("{not json")
        code = main(["map", "--model-file", str(bad), "--profile", "minimal"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("repro: error [data]:")
        assert "invalid JSON" in err

    def test_data_error_hw_file_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "machine.json"
        bad.write_text(json.dumps({"chiplets": 2}))  # missing every other field
        code = main(
            ["map", "alexnet", "--hw-file", str(bad), "--profile", "minimal"]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "repro: error [data]:" in err
        assert "missing hardware field" in err

    def test_config_error_mismatched_study_exits_3(self, tmp_path, capsys):
        study = tmp_path / "study.jsonl"
        argv = [
            "explore",
            "--macs", "32",
            "--models", "alexnet",
            "--strategy", "guided",
            "--trials", "4",
            "--study", str(study),
            "--profile", "minimal",
            "--jobs", "1",
        ]
        assert main(argv + ["--seed", "0"]) == 0
        capsys.readouterr()
        code = main(argv + ["--seed", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "repro: error [config]:" in err
        assert "seed" in err

    def test_data_error_subprocess_no_traceback(self, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text("[[1,2,3]]")
        proc = _run_cli("map", "--model-file", str(bad))
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("repro: error [data]:")
