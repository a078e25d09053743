# Convenience targets for the NN-Baton reproduction.

.PHONY: install test audit bench bench-full bench-smoke bench-record batch-parity ci faults faults-io obs-telemetry guided lint coverage profile examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

test-fast:
	pytest tests/ -x -q -m "not slow"

# Cheap static-analysis gate (mirrors the CI lint job).  Prefers ruff,
# falls back to pyflakes, and degrades to a syntax check when neither is
# installed so the target never blocks on optional tooling.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples scripts; \
	elif python -c "import pyflakes" >/dev/null 2>&1; then \
		python -m pyflakes src/repro tests benchmarks examples scripts; \
	else \
		echo "ruff/pyflakes not installed; syntax check only"; \
		python -m compileall -q src tests benchmarks examples scripts; \
	fi

# Cost-model <-> simulator consistency audit: every registered model,
# evenly spaced layer sample, JSON report archived with the benchmark
# artifacts.  Non-zero exit on any invariant violation or out-of-envelope
# uncontended divergence.
audit:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro audit \
		--max-layers 4 --json benchmarks/results/audit.json

# Mirrors .github/workflows/ci.yml so CI and local runs stay in lockstep:
# lint, the tier-1 suite, the benchmark self-test (its traced pass fails
# when a wrapped boundary moved), the consistency audit, then the fast
# benchmark smoke subset.
ci: lint
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -x -q
	python3 perfbench/selftest.py
	$(MAKE) audit
	$(MAKE) bench-smoke

# Fault-injection gate (mirrors the CI fault-injection job): every
# recovery path of the resilient executor, checkpoint/resume, and cache
# quarantine under the deterministic REPRO_FAULTS harness, then the
# end-to-end check that a faulted parallel sweep stays byte-identical to
# a clean serial run, then two maps appending to one --cache-dir at once,
# each of which must re-run from disk with no fresh search.  See
# docs/robustness.md.
faults:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q \
		tests/testing/test_faults.py tests/core/test_parallel_faults.py \
		tests/core/test_checkpoint.py tests/core/test_cache.py \
		tests/integration/test_resilience.py
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
		--macs 512 --models alexnet --stride 997 --profile minimal \
		--jobs 1 --json "$$tmp/clean.json" >/dev/null && \
	REPRO_FAULTS='crash:0.1@seed=7' \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
		--macs 512 --models alexnet --stride 997 --profile minimal \
		--jobs 4 --on-error skip --json "$$tmp/faulted.json" >/dev/null && \
	cmp "$$tmp/clean.json" "$$tmp/faulted.json" && \
	echo "faulted sweep byte-identical to clean serial run" && \
	{ PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro map resnet50 \
		--profile minimal --cache-dir "$$tmp/cache" >/dev/null & a=$$!; \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro map vgg16 \
		--profile minimal --cache-dir "$$tmp/cache" >/dev/null & b=$$!; \
	wait $$a; ra=$$?; wait $$b && test $$ra -eq 0; } && \
	for model in resnet50 vgg16; do \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro map $$model \
			--profile minimal --cache-dir "$$tmp/cache" \
			--metrics-out "$$tmp/$$model.json" >/dev/null && \
		python -c 'import json, sys; \
c = json.load(open(sys.argv[1]))["counters"]; \
assert not c.get("cache.misses") and c.get("cache.disk_hits", 0) > 0, c; \
print(sys.argv[2], "re-run from the shared cache:", c["cache.disk_hits"], \
	"disk hits, no misses")' "$$tmp/$$model.json" $$model || exit 1; \
	done

# I/O fault-injection gate (mirrors the CI io-faults step): the
# durability/taxonomy/fuzz suites, then three end-to-end legs.  Leg 1: a
# sweep with half of all sink writes failing ENOSPC must produce
# byte-identical JSON to a clean run while reporting nonzero degraded.*
# counters (full disk costs the checkpoint, never the answer).  Leg 2: a
# guided search pointed at a corrupted --study file must set it aside
# as *.corrupt-* and finish.  Leg 3: a guided store cut mid-line (what
# kill -9 during an append leaves) must resume every complete trial and
# give the clean run's payload.  See docs/robustness.md.
faults-io:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q \
		tests/core/test_durable.py tests/core/test_errors.py \
		tests/testing/test_faults.py tests/properties/test_input_fuzz.py
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
		--macs 512 --models alexnet --stride 997 --profile minimal \
		--jobs 1 --json "$$tmp/clean.json" >/dev/null && \
	REPRO_FAULTS='enospc:0.5@seed=3' \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
		--macs 512 --models alexnet --stride 997 --profile minimal \
		--jobs 1 --checkpoint-dir "$$tmp/ckpt" \
		--json "$$tmp/faulted.json" \
		--metrics-out "$$tmp/metrics.json" >/dev/null 2>&1 && \
	cmp "$$tmp/clean.json" "$$tmp/faulted.json" && \
	python -c 'import json, sys; \
counters = json.load(open(sys.argv[1]))["counters"]; \
degraded = {k: v for k, v in counters.items() if k.startswith("degraded.")}; \
assert degraded, f"no degraded.* counters in {sorted(counters)}"; \
print("degraded sinks:", ", ".join(sorted(degraded)))' "$$tmp/metrics.json" && \
	echo "enospc-faulted sweep byte-identical to clean run" && \
	printf 'not a sweep store' > "$$tmp/study.jsonl" && \
	REPRO_FAULTS='corrupt-study' \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
		--macs 512 --models alexnet --profile minimal \
		--strategy guided --trials 8 --seed 0 \
		--study "$$tmp/study.jsonl" --jobs 1 \
		--json "$$tmp/guided.json" >/dev/null 2>&1 && \
	ls "$$tmp"/study.jsonl.corrupt-* >/dev/null && \
	echo "corrupt study set aside; guided search completed" && \
	for run in clean cut; do \
		if [ $$run = cut ]; then truncate -s -40 "$$tmp/cut.jsonl"; fi; \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
			--macs 512 --models alexnet --profile minimal \
			--strategy guided --trials 8 --seed 0 \
			--study "$$tmp/cut.jsonl" --jobs 1 \
			--json "$$tmp/guided-$$run.json" >/dev/null 2>&1 || exit 1; \
	done && \
	python -c 'import json, sys; \
clean, cut = (json.load(open(path)) for path in sys.argv[1:]); \
clean["search"].pop("resumed"); resumed = cut["search"].pop("resumed"); \
assert clean == cut, "cut store changed the guided payload"; \
assert 0 < resumed < cut["search"]["proposed"], resumed; \
print(f"store cut mid-line: {resumed} trials resumed, payload identical")' \
		"$$tmp/guided-clean.json" "$$tmp/guided-cut.json"

# Run-telemetry gate (mirrors the CI obs-telemetry job): the event-log/
# progress/export suites, then two end-to-end legs.  Leg 1: a sweep with
# --progress piped (auto-off; no TTY) must leave the result payload
# byte-identical to a --no-progress run.  Leg 2: a --jobs 4 sweep's event
# set and histogram counts must equal the serial run's.  See
# docs/observability.md.
obs-telemetry:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q \
		tests/obs/test_events.py tests/obs/test_progress.py \
		tests/obs/test_export.py tests/obs/test_worker_capture.py
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
		--macs 512 --models alexnet --stride 997 --profile minimal \
		--progress --json "$$tmp/with.json" \
		--events-out "$$tmp/run-j1" --metrics-out "$$tmp/m-j1.json" \
		>/dev/null && \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
		--macs 512 --models alexnet --stride 997 --profile minimal \
		--no-progress --json "$$tmp/without.json" >/dev/null && \
	cmp "$$tmp/with.json" "$$tmp/without.json" && \
	echo "piped --progress leaves the payload byte-identical" && \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
		--macs 512 --models alexnet --stride 997 --profile minimal \
		--jobs 4 --json "$$tmp/j4.json" \
		--events-out "$$tmp/run-j4" --metrics-out "$$tmp/m-j4.json" \
		>/dev/null && \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -c 'import json, sys; \
from repro.obs.events import canonical_event, load_events, schema_errors; \
j1, c1 = load_events(sys.argv[1]); j4, c4 = load_events(sys.argv[2]); \
assert j1 and not c1 and not schema_errors(j1), "bad serial log"; \
assert j4 and not c4 and not schema_errors(j4), "bad parallel log"; \
assert sorted(map(canonical_event, j1)) == sorted(map(canonical_event, j4)); \
h1 = json.load(open(sys.argv[3]))["histograms"]; \
h4 = json.load(open(sys.argv[4]))["histograms"]; \
assert {k: v["count"] for k, v in h1.items()} == \
	{k: v["count"] for k, v in h4.items()}; \
print(f"jobs-4 telemetry equals serial: {len(j1)} events, {len(h1)} histograms")' \
		"$$tmp/run-j1" "$$tmp/run-j4" "$$tmp/m-j1.json" "$$tmp/m-j4.json"

# Guided-vs-exhaustive differential gate (mirrors the CI guided-dse job):
# sweep the full Fig. 15 space as the oracle, run the seeded guided search
# on a 1% trial budget, and require the exact same recommended point.
# The oracle leg is the expensive one (about 1.5 minutes on one core; the
# study and unit suites above cover the fast paths).  See
# docs/guided-search.md.
guided:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q \
		tests/core/test_search.py tests/properties/test_search.py
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
		--macs 4096 --area 3.0 --models alexnet --profile fast \
		--stride 1 --jobs 4 --json "$$tmp/exhaustive.json" >/dev/null && \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
		--macs 4096 --area 3.0 --models alexnet --profile fast \
		--strategy guided --trials 139 --seed 0 \
		--study "$$tmp/guided-study.jsonl" --jobs 4 \
		--json "$$tmp/guided.json" >/dev/null && \
	python scripts/check_guided_gate.py "$$tmp/exhaustive.json" \
		"$$tmp/guided.json" --max-eval-frac 0.01

# Batch-vs-scalar parity gate (mirrors the CI guided-dse parity step):
# the unit/property suites first (the candidate table against the scalar
# enumeration, packs against one-layer calls, the reports built from the
# kernel's winner records against evaluate_mapping by repr, and tile-major tables scored
# per tile against the same rows scored one by one, included), then runs
# with the numpy path on and off.  With REPRO_BATCH_KERNEL=1 the mapper builds each
# layer's candidate table as columns, scores a model's small tables in
# packs (one kernel call per pack, which copies each winner's values out
# of the kernel's columns into a record) and shares each layer's table between the
# sweep points that give it one candidate-set key; with 0 it enumerates
# one Mapping per candidate, dedups them and scores them one by one with
# evaluate_mapping.  So every leg checks the table builder, the packs and
# the kernel: the full Fig. 15 pre-design sweep (at --jobs 4, the workers
# taking design points), the serial MINIMAL Fig. 15 trio at stride 16 (tables
# shared across W-L1, A-L2 and A-L1 changes, MINIMAL packs, and the
# winner records' values through the sweep's energy and cycle totals), an
# EXHAUSTIVE ResNet-50 map, a FAST MobileNetV2 map (dense and depthwise
# packs) and an AlexNet audit (each layer mapped alone, by
# Mapper.search_layer) must give byte-identical JSON (winner, energy,
# cycles, EDP), and so must a transformer sweep, so GEMM-shaped candidate
# spaces are held to the identical contract.  The EXHAUSTIVE ResNet-50 map
# also runs twice
# into one --cache-dir, cold and then with every shape rebuilt from disk,
# where both payloads must match the cache-less map: the disk records are
# written from mappings read off the kernel's winner records, whose
# reports are built only on demand.  The map legs compare the winners'
# reports only through the model totals, because `repro map --json`
# rebuilds its per-layer records from the winning mapping; the property
# suite covers the per-layer fields.  See docs/modeling.md section 11.
batch-parity:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q \
		tests/core/test_batch.py tests/core/test_candidate_table.py \
		tests/core/test_packs.py tests/properties/test_batch_kernel.py \
		tests/properties/test_packs.py tests/properties/test_winner_reports.py \
		tests/properties/test_tiles.py
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	REPRO_BATCH_KERNEL=1 \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
		--macs 4096 --area 3.0 --models alexnet --profile fast \
		--stride 1 --jobs 4 --json "$$tmp/batch.json" >/dev/null && \
	REPRO_BATCH_KERNEL=0 \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
		--macs 4096 --area 3.0 --models alexnet --profile fast \
		--stride 1 --jobs 4 --json "$$tmp/scalar.json" >/dev/null && \
	cmp "$$tmp/batch.json" "$$tmp/scalar.json" && \
	echo "batch kernel byte-identical to the scalar oracle (full Fig. 15 space)" && \
	REPRO_BATCH_KERNEL=1 \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro map resnet50 \
		--profile exhaustive --json "$$tmp/map-batch.json" >/dev/null && \
	REPRO_BATCH_KERNEL=0 \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro map resnet50 \
		--profile exhaustive --json "$$tmp/map-scalar.json" >/dev/null && \
	cmp "$$tmp/map-batch.json" "$$tmp/map-scalar.json" && \
	echo "candidate tables, one per output cube and Cc0 tile (21 shapes, 10 tables), + batch kernel byte-identical to the scalar oracle (EXHAUSTIVE ResNet-50 map)" && \
	REPRO_BATCH_KERNEL=1 \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro map resnet50 \
		--profile exhaustive --cache-dir "$$tmp/cache" --json "$$tmp/map-cold.json" >/dev/null && \
	REPRO_BATCH_KERNEL=1 \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro map resnet50 \
		--profile exhaustive --cache-dir "$$tmp/cache" --json "$$tmp/map-warm.json" >"$$tmp/map-warm.out" && \
	grep -q "(21 from disk) / 0 misses" "$$tmp/map-warm.out" && \
	cmp "$$tmp/map-cold.json" "$$tmp/map-batch.json" && \
	cmp "$$tmp/map-warm.json" "$$tmp/map-batch.json" && \
	echo "disk-cache records written from the winner records, then all 21 shapes rebuilt from disk, byte-identical to the cache-less map (EXHAUSTIVE ResNet-50)" && \
	REPRO_BATCH_KERNEL=1 \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
		--macs 4096 --area 3.0 --models vgg16@512,resnet50@512,darknet19@224 \
		--profile minimal --stride 16 --jobs 1 --json "$$tmp/trio-batch.json" >/dev/null && \
	REPRO_BATCH_KERNEL=0 \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
		--macs 4096 --area 3.0 --models vgg16@512,resnet50@512,darknet19@224 \
		--profile minimal --stride 16 --jobs 1 --json "$$tmp/trio-scalar.json" >/dev/null && \
	cmp "$$tmp/trio-batch.json" "$$tmp/trio-scalar.json" && \
	echo "packs, tables shared across points and models, and totals summed from winner records byte-identical to the scalar oracle (serial MINIMAL Fig. 15 trio)" && \
	REPRO_BATCH_KERNEL=1 \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro map mobilenetv2 \
		--profile fast --json "$$tmp/mbv2-batch.json" >/dev/null && \
	REPRO_BATCH_KERNEL=0 \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro map mobilenetv2 \
		--profile fast --json "$$tmp/mbv2-scalar.json" >/dev/null && \
	cmp "$$tmp/mbv2-batch.json" "$$tmp/mbv2-scalar.json" && \
	echo "dense and depthwise packs byte-identical to the scalar oracle (FAST MobileNetV2 map)" && \
	REPRO_BATCH_KERNEL=1 \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro audit \
		--models alexnet --max-layers 2 --json "$$tmp/audit-batch.json" >/dev/null && \
	REPRO_BATCH_KERNEL=0 \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro audit \
		--models alexnet --max-layers 2 --json "$$tmp/audit-scalar.json" >/dev/null && \
	cmp "$$tmp/audit-batch.json" "$$tmp/audit-scalar.json" && \
	echo "one-layer searches byte-identical to the scalar oracle (AlexNet audit)" && \
	REPRO_BATCH_KERNEL=1 \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
		--macs 512 --models bert_base --profile minimal \
		--stride 997 --jobs 4 --json "$$tmp/bert-batch.json" >/dev/null && \
	REPRO_BATCH_KERNEL=0 \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro dse \
		--macs 512 --models bert_base --profile minimal \
		--stride 997 --jobs 4 --json "$$tmp/bert-scalar.json" >/dev/null && \
	cmp "$$tmp/bert-batch.json" "$$tmp/bert-scalar.json" && \
	echo "batch kernel byte-identical on the transformer sweep (bert_base)"

# Every bench, including the four that do not use the pytest-benchmark
# fixture (batch kernel, obs overhead and both transformer benches), which
# --benchmark-only would skip.
bench:
	pytest benchmarks/

# The fast benchmark subset CI runs on every push to catch perf-path
# regressions without paying for the full sweep, plus the observability
# overhead guard (disabled-mode hook cost must stay < 2% of a sweep).
bench-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest \
		benchmarks/bench_fig10_memory_model.py --benchmark-only -q
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest \
		benchmarks/bench_obs_overhead.py -q

# Structured bench records (mirrors the CI bench-record job): run the
# suite once under `repro bench` (minimal profile) and gate the record
# against the checked-in baseline -- every paper golden at deviation 0,
# unchanged and present -- then run the seeded guided bench at --jobs 1
# and --jobs 4 and require identical point counters.  Speed is measured
# by the repository benchmark (perfbench/, BENCHMARK.json), not here.
# See docs/observability.md.
bench-record:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro bench \
		--profile minimal --out BENCH_ci.json
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro bench \
		compare benchmarks/results/bench_baseline.json BENCH_ci.json
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro bench \
		--profile minimal -k guided_dse --jobs 1 --out GUIDED_j1.json
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro bench \
		--profile minimal -k guided_dse --jobs 4 --out GUIDED_j4.json
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro bench \
		compare GUIDED_j1.json GUIDED_j4.json \
		--gate-counter dse.points.pruned \
		--gate-counter dse.points.deduped \
		--gate-counter dse.points.evaluated \
		--gate-counter dse.points.total

# The tier-1 suite under the CI coverage gate.  Needs pytest-cov
# (``pip install -e .[cov]``); degrades to a plain run when it's absent so
# the target works on minimal installs.
coverage:
	@if python -c "import pytest_cov" >/dev/null 2>&1; then \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -x -q \
			--cov=repro --cov-report=term --cov-fail-under=75; \
	else \
		echo "pytest-cov not installed (pip install -e .[cov]); plain run"; \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -x -q; \
	fi

# Span/counter profile of one model's mapping search (docs/observability.md).
profile:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro profile \
		mobilenet_v2 --trace-out benchmarks/results/profile-trace.json \
		--metrics-out benchmarks/results/profile-metrics.json

# The paper-fidelity run: exhaustive mapping search and the full Figure 15
# memory sweep (about 2 minutes on one core, 1 of them in Figure 15).
bench-full:
	REPRO_BENCH_PROFILE=exhaustive REPRO_FIG15_STRIDE=1 \
		pytest benchmarks/

examples:
	python examples/quickstart.py
	python examples/simulate_and_trace.py
	python examples/map_model_vs_simba.py alexnet 224
	python examples/design_space_sweep.py alexnet 512 48

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
