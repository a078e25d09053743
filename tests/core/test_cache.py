"""The mapping cache: keying, counters, and the on-disk store.

The headline guarantee: a second ``search_model`` over a repeated-shape
model performs **zero fresh evaluations** -- every lookup is answered from
the cache, in memory within a run and from the JSONL store across runs.

Robustness guarantees: concurrent saves against one directory never lose
entries (every save appends, none rewrites), a torn line is skipped and
counted while the rest of the file loads, and files with a line of another
format version (or no readable line) are set aside instead of silently
shadowing the store.
"""

import json
import multiprocessing
import os

from repro import obs
from repro.arch.config import build_hardware, case_study_hardware, simba_like_hardware
from repro.core.cache import (
    CACHE_FORMAT_VERSION,
    MappingCache,
    cache_key,
    hardware_digest,
)
from repro.core.mapper import Mapper, _shape_key, edp_objective
from repro.core.space import SearchProfile
from repro.workloads.models import alexnet, resnet50


def small_layers():
    return alexnet(resolution=224)[:4]


class TestHardwareDigest:
    def test_stable(self):
        assert hardware_digest(case_study_hardware()) == hardware_digest(
            case_study_hardware()
        )

    def test_differs_across_machines(self):
        assert hardware_digest(case_study_hardware()) != hardware_digest(
            build_hardware(2, 4, 8, 8)
        )

    def test_name_only_twins_share_digest(self):
        # simba_like is the case-study machine under another name; both
        # evaluate every mapping identically, so they share cache entries.
        assert hardware_digest(case_study_hardware()) == hardware_digest(
            simba_like_hardware()
        )

    def test_name_does_not_matter(self):
        from dataclasses import replace

        hw = case_study_hardware()
        assert hardware_digest(hw) == hardware_digest(replace(hw, name="other"))

    def test_memory_matters(self):
        hw = case_study_hardware()
        resized = hw.with_memory(
            type(hw.memory)(
                a_l1_bytes=hw.memory.a_l1_bytes * 2,
                w_l1_bytes=hw.memory.w_l1_bytes,
                o_l1_bytes=hw.memory.o_l1_bytes,
                a_l2_bytes=hw.memory.a_l2_bytes,
            )
        )
        assert hardware_digest(hw) != hardware_digest(resized)

    def test_digests_are_pinned(self):
        """Disk-cache file names derive from these digests: a change to how
        a machine is serialized would orphan every stored mapping."""
        assert hardware_digest(case_study_hardware()) == (
            "1504ddd0ad500008c6c4919dc8b78f2c7afa10d6015480e46c97286231526394"
        )
        assert hardware_digest(build_hardware(2, 8, 16, 16)) == (  # a Fig. 15 point
            "db41e1ff8c84aec3ae5bd390d84f8b5acba229298435a6f4c7c89ad49363a939"
        )


class TestCacheKey:
    def test_components_separated(self):
        layer = small_layers()[0]
        key = cache_key(_shape_key(layer), "abc123", "fast", "energy_objective")
        assert "abc123" in key and "fast" in key and "energy_objective" in key

    def test_mapper_key_is_pinned(self):
        """The mapper's memoized shape text keeps the key byte for byte."""
        layer = small_layers()[0]
        mapper = Mapper(hw=case_study_hardware(), profile=SearchProfile.FAST)
        expected = (
            "224x224x3x96x11x11x4x2x1"
            "|1504ddd0ad500008c6c4919dc8b78f2c7afa10d6015480e46c97286231526394"
            "|fast|energy_objective"
        )
        assert mapper._key(layer) == expected
        assert mapper._key(layer) == expected  # served from the memo
        assert cache_key(
            _shape_key(layer), mapper._hw_digest, "fast", "energy_objective"
        ) == expected

    def test_profile_and_objective_distinguish(self):
        layer = small_layers()[0]
        shape = _shape_key(layer)
        assert cache_key(shape, "d", "fast", "energy_objective") != cache_key(
            shape, "d", "minimal", "energy_objective"
        )
        assert cache_key(shape, "d", "fast", "energy_objective") != cache_key(
            shape, "d", "fast", "edp_objective"
        )


class TestInMemoryCache:
    def test_second_model_search_is_all_hits(self):
        """The satellite acceptance: zero fresh evaluations on re-search."""
        cache = MappingCache()
        hw = case_study_hardware()
        layers = small_layers()
        Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=cache).search_model(layers)
        misses_after_first = cache.misses
        assert misses_after_first > 0

        Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=cache).search_model(layers)
        assert cache.misses == misses_after_first
        assert cache.hits >= len(layers)

    def test_repeated_shapes_hit_within_one_search(self):
        cache = MappingCache()
        hw = case_study_hardware()
        layers = resnet50(resolution=224)
        unique_shapes = len({_shape_key(l) for l in layers})
        Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=cache).search_model(layers)
        assert cache.misses == unique_shapes
        assert cache.hits == len(layers) - unique_shapes

    def test_objectives_do_not_collide(self):
        cache = MappingCache()
        hw = case_study_hardware()
        layer = small_layers()[0]
        Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=cache).search_layer(layer)
        misses = cache.misses
        Mapper(
            hw=hw,
            profile=SearchProfile.MINIMAL,
            objective=edp_objective,
            cache=cache,
        ).search_layer(layer)
        assert cache.misses == misses + 1

    def test_hit_rate_and_describe(self):
        cache = MappingCache()
        assert cache.hit_rate == 0.0
        cache.put("a|b|c|d", object())
        cache.get("a|b|c|d")
        cache.get("missing|b|c|d")
        assert cache.hits == 1 and cache.misses == 1
        assert "50%" in cache.describe()


class TestDiskCache:
    def test_round_trip_identical_results(self, tmp_path):
        hw = case_study_hardware()
        layers = small_layers()
        first_cache = MappingCache(tmp_path / "store")
        first = Mapper(
            hw=hw, profile=SearchProfile.MINIMAL, cache=first_cache
        ).search_model(layers)

        second_cache = MappingCache(tmp_path / "store")
        second = Mapper(
            hw=hw, profile=SearchProfile.MINIMAL, cache=second_cache
        ).search_model(layers)

        assert second_cache.misses == 0
        assert second_cache.disk_hits > 0
        assert [r.best.energy_pj for r in first] == [
            r.best.energy_pj for r in second
        ]
        assert [r.mapping for r in first] == [r.mapping for r in second]
        assert [r.candidates_evaluated for r in first] == [
            r.candidates_evaluated for r in second
        ]

    def test_store_is_versioned_json(self, tmp_path):
        hw = case_study_hardware()
        cache = MappingCache(tmp_path)
        Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=cache).search_model(
            small_layers()
        )
        files = list(tmp_path.glob("mappings-*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["version"] == CACHE_FORMAT_VERSION
        assert payload["entries"]

    def test_version_mismatch_ignored(self, tmp_path):
        hw = case_study_hardware()
        cache = MappingCache(tmp_path)
        Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=cache).search_model(
            small_layers()
        )
        path = next(tmp_path.glob("mappings-*.json"))
        payload = json.loads(path.read_text())
        payload["version"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))

        stale = MappingCache(tmp_path)
        Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=stale).search_model(
            small_layers()
        )
        assert stale.disk_hits == 0
        assert stale.misses > 0

    def test_corrupt_store_ignored(self, tmp_path):
        hw = case_study_hardware()
        cache = MappingCache(tmp_path)
        Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=cache).search_model(
            small_layers()
        )
        path = next(tmp_path.glob("mappings-*.json"))
        path.write_text("{not json")
        broken = MappingCache(tmp_path)
        results = Mapper(
            hw=hw, profile=SearchProfile.MINIMAL, cache=broken
        ).search_model(small_layers())
        assert len(results) == len(small_layers())
        assert broken.disk_hits == 0

    def test_save_merges_other_writers(self, tmp_path):
        hw = case_study_hardware()
        a = MappingCache(tmp_path)
        b = MappingCache(tmp_path)
        layers = small_layers()
        Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=a).search_layer(layers[0])
        Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=b).search_layer(layers[1])
        a.save()
        b.save()
        merged = MappingCache(tmp_path)
        m = Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=merged)
        m.search_layer(layers[0])
        m.search_layer(layers[1])
        assert merged.disk_hits == 2

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert MappingCache.from_env().directory == tmp_path
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert MappingCache.from_env().directory is None

    def test_memory_only_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = MappingCache()
        hw = case_study_hardware()
        Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=cache).search_model(
            small_layers()
        )
        cache.save()
        assert not list(tmp_path.iterdir())


class TestLegacyRecords:
    def test_record_missing_stats_is_a_miss_not_a_zero(self, tmp_path):
        """Regression: a pre-stats disk record must not resurface with
        ``evaluated=0``.

        ``Mapper._rebuild`` used to default missing ``evaluated``/``invalid``
        to 0, so after a cache-format change every legacy record silently
        under-reported ``mapper.candidates.evaluated`` forever.  A record
        missing required keys is now a cache miss: the layer is re-searched
        and the store is repaired with real statistics.
        """
        hw = case_study_hardware()
        layer = small_layers()[0]
        cache = MappingCache(tmp_path)
        fresh = Mapper(
            hw=hw, profile=SearchProfile.MINIMAL, cache=cache
        ).search_layer(layer)
        cache.save()
        assert fresh.candidates_evaluated > 0

        # Rewrite the store as a hand-written legacy record: the winning
        # mapping survives, the search statistics do not.
        path = next(tmp_path.glob("mappings-*.json"))
        payload = json.loads(path.read_text())
        for record in payload["entries"].values():
            del record["evaluated"]
            del record["invalid"]
        path.write_text(json.dumps(payload))

        legacy = MappingCache(tmp_path)
        result = Mapper(
            hw=hw, profile=SearchProfile.MINIMAL, cache=legacy
        ).search_layer(layer)
        assert legacy.misses == 1 and legacy.disk_hits == 0  # re-searched
        assert result.candidates_evaluated == fresh.candidates_evaluated
        assert result.candidates_invalid == fresh.candidates_invalid
        assert result.mapping == fresh.mapping

        # The re-searched record, appended after the legacy one, wins every
        # later load: the store stays repaired and stops growing.
        legacy.save()
        repaired = MappingCache(tmp_path)
        again = Mapper(
            hw=hw, profile=SearchProfile.MINIMAL, cache=repaired
        ).search_layer(layer)
        repaired.save()
        assert repaired.disk_hits == 1 and repaired.misses == 0
        assert again.candidates_evaluated == fresh.candidates_evaluated
        assert len(path.read_text().splitlines()) == 2


DIGEST = "0123456789abcdef" * 4


def _fake_key(writer: int, index: int) -> str:
    return f"shape{writer}x{index}|{DIGEST}|minimal|energy_objective"


def _concurrent_writer(directory, writer, count, barrier):
    """One contending process: save one new entry per iteration."""
    barrier.wait()
    for index in range(count):
        cache = MappingCache(directory)
        key = _fake_key(writer, index)
        cache.put(key, object(), record=lambda: {"mapping": {"i": index}})
        cache.save()


def _run_writers(directory, writers, count, timeout):
    """Race ``writers`` processes of ``count`` saves each into one digest."""
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(writers)
    workers = [
        ctx.Process(
            target=_concurrent_writer,
            args=(directory, writer, count, barrier),
        )
        for writer in range(writers)
    ]
    for proc in workers:
        proc.start()
    for proc in workers:
        proc.join(timeout=timeout)
        assert not proc.is_alive()
        assert proc.exitcode == 0
    fresh = MappingCache(directory)
    return [
        _fake_key(writer, index)
        for writer in range(writers)
        for index in range(count)
        if not fresh.contains(_fake_key(writer, index))
    ]


class TestConcurrentSave:
    def test_two_processes_never_lose_entries(self, tmp_path):
        """The lost-update regression: read-merge-write races must be gone.

        A saver that read the file, merged its own entry and replaced the
        file could silently drop a faster writer's entry.  Saves now only
        append, so every entry of both writers must load.
        """
        assert _run_writers(tmp_path, writers=2, count=50, timeout=60) == []

    def test_more_writers_than_cpus_never_lose_entries(self, tmp_path):
        """Six oversubscribed writers, thirty saves each, one digest file."""
        assert _run_writers(tmp_path, writers=6, count=30, timeout=120) == []


def _entry_line(index):
    return json.dumps(
        {
            "entries": {_fake_key(0, index): {"mapping": {"i": index}}},
            "version": CACHE_FORMAT_VERSION,
        },
        sort_keys=True,
    )


class TestAppendOnlyStore:
    """Each save appends one line; the loader merges the lines."""

    def _path(self, directory):
        return directory / f"mappings-{DIGEST[:16]}.json"

    def test_each_save_appends_only_its_new_entries(self, tmp_path):
        cache = MappingCache(tmp_path)
        cache.put(_fake_key(0, 0), object(), record=lambda: {"mapping": {"i": 0}})
        cache.save()
        cache.put(_fake_key(0, 1), object(), record=lambda: {"mapping": {"i": 1}})
        cache.save()
        cache.save()  # nothing new: no line
        lines = self._path(tmp_path).read_text().splitlines()
        assert lines == [_entry_line(0), _entry_line(1)]

    def test_appends_after_a_torn_tail_all_load(self, tmp_path):
        """A crash's fragment must not swallow the next save's line."""
        path = self._path(tmp_path)
        path.write_text(_entry_line(0) + "\n" + _entry_line(1)[:40])
        for index in (2, 3):
            cache = MappingCache(tmp_path)
            cache.put(_fake_key(0, index), object(), record=lambda: {"mapping": {"i": index}})
            cache.save()
        recorder = obs.Recorder()
        with obs.use(recorder):
            fresh = MappingCache(tmp_path)
            loaded = [i for i in range(4) if fresh.contains(_fake_key(0, i))]
        assert loaded == [0, 2, 3]
        assert recorder.metrics.counters()["cache.corrupt_lines"] == 1
        assert fresh.corrupt_files == 0

    def test_torn_line_among_good_ones_is_skipped_and_counted(self, tmp_path):
        path = self._path(tmp_path)
        path.write_text(
            "\n".join([_entry_line(0), '{"entries": {"x', "", _entry_line(1)]) + "\n"
        )
        recorder = obs.Recorder()
        with obs.use(recorder):
            cache = MappingCache(tmp_path)
            assert cache.contains(_fake_key(0, 0))
            assert cache.contains(_fake_key(0, 1))
        counters = recorder.metrics.counters()
        assert counters["cache.corrupt_lines"] == 1  # the blank line is not
        assert "cache.corrupt_files" not in counters
        assert path.exists()

    def test_line_of_another_version_sets_the_file_aside(self, tmp_path):
        path = self._path(tmp_path)
        foreign = json.dumps(
            {"entries": {_fake_key(0, 1): {"m": 1}}, "version": CACHE_FORMAT_VERSION + 1}
        )
        path.write_text(_entry_line(0) + "\n" + foreign + "\n")
        cache = MappingCache(tmp_path)
        assert not cache.contains(_fake_key(0, 0))  # never misread
        assert not cache.contains(_fake_key(0, 1))
        assert cache.corrupt_files == 1
        assert not path.exists()
        assert len(list(tmp_path.glob("mappings-*.json.corrupt-*"))) == 1

    def test_single_object_file_is_read_and_extended(self, tmp_path):
        """A file holding one JSON object and no newline keeps hitting."""
        path = self._path(tmp_path)
        path.write_text(_entry_line(0))
        cache = MappingCache(tmp_path)
        assert cache.contains(_fake_key(0, 0))
        cache.put(_fake_key(0, 1), object(), record=lambda: {"mapping": {"i": 1}})
        cache.save()
        assert path.read_text().splitlines() == [_entry_line(0), _entry_line(1)]
        fresh = MappingCache(tmp_path)
        assert fresh.contains(_fake_key(0, 0)) and fresh.contains(_fake_key(0, 1))
        assert fresh.corrupt_files == 0


class TestQuarantineAndSweep:
    def test_corrupt_file_quarantined(self, tmp_path):
        hw = case_study_hardware()
        cache = MappingCache(tmp_path)
        Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=cache).search_model(
            small_layers()
        )
        path = next(tmp_path.glob("mappings-*.json"))
        path.write_text("{not json")
        broken = MappingCache(tmp_path)
        Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=broken).search_model(
            small_layers()
        )
        assert broken.corrupt_files == 1
        quarantined = list(tmp_path.glob("mappings-*.json.corrupt-*"))
        assert len(quarantined) == 1
        assert quarantined[0].read_text() == "{not json"
        # The fresh save re-created the store cleanly alongside the
        # quarantined original.
        assert json.loads(path.read_text())["entries"]
        reread = MappingCache(tmp_path)
        Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=reread).search_model(
            small_layers()
        )
        assert reread.disk_hits > 0 and reread.corrupt_files == 0

    def test_version_mismatch_quarantined(self, tmp_path):
        hw = case_study_hardware()
        cache = MappingCache(tmp_path)
        Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=cache).search_model(
            small_layers()
        )
        path = next(tmp_path.glob("mappings-*.json"))
        payload = json.loads(path.read_text())
        payload["version"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        stale = MappingCache(tmp_path)
        Mapper(hw=hw, profile=SearchProfile.MINIMAL, cache=stale).search_model(
            small_layers()
        )
        assert stale.corrupt_files == 1
        assert list(tmp_path.glob("mappings-*.json.corrupt-*"))

    def test_injected_corruption_recovers_next_run(self, tmp_path):
        """corrupt-cache fault -> torn file on disk -> quarantined, not fatal."""
        from repro.testing.faults import (
            FaultPlan,
            install_plan,
            parse_fault_specs,
        )

        hw = case_study_hardware()
        install_plan(FaultPlan(parse_fault_specs("corrupt-cache:@indices=0")))
        try:
            cache = MappingCache(tmp_path)
            Mapper(
                hw=hw, profile=SearchProfile.MINIMAL, cache=cache
            ).search_model(small_layers())
        finally:
            install_plan(None)
        path = next(tmp_path.glob("mappings-*.json"))
        try:
            json.loads(path.read_text())
            corrupted = False
        except ValueError:
            corrupted = True
        assert corrupted
        fresh = MappingCache(tmp_path)
        results = Mapper(
            hw=hw, profile=SearchProfile.MINIMAL, cache=fresh
        ).search_model(small_layers())
        assert len(results) == len(small_layers())
        assert fresh.corrupt_files == 1


def _put_digest(directory, digest, index=0, pad=0):
    """Save one entry under ``digest``; pad the record to inflate file size."""
    cache = MappingCache(directory)
    record = {"mapping": {"i": index}, "pad": "x" * pad}
    cache.put(f"s{index}|{digest}|minimal|o", object(), record=lambda: record)
    cache.save()


class TestCacheGovernance:
    """REPRO_CACHE_MAX_BYTES: LRU-by-mtime eviction of digest files."""

    def test_unset_budget_never_evicts(self, tmp_path, monkeypatch):
        from repro.core.cache import CACHE_MAX_BYTES_ENV

        monkeypatch.delenv(CACHE_MAX_BYTES_ENV, raising=False)
        for n in range(3):
            _put_digest(tmp_path, f"{n:x}" * 64, index=n, pad=4096)
        assert len(list(tmp_path.glob("mappings-*.json"))) == 3

    def test_oldest_files_evicted_first(self, tmp_path, monkeypatch):
        from repro import obs
        from repro.core.cache import CACHE_MAX_BYTES_ENV

        digests = [f"{n:x}" * 64 for n in range(1, 4)]
        for n, digest in enumerate(digests):
            _put_digest(tmp_path, digest, index=n, pad=4096)
        # Make mtime order unambiguous: file 0 oldest, file 2 newest.
        for age, digest in enumerate(reversed(digests)):
            path = tmp_path / f"mappings-{digest[:16]}.json"
            os.utime(path, (1_000_000 + 100 * age, 1_000_000 + 100 * age))
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "10000")
        recorder = obs.Recorder()
        with obs.use(recorder):
            _put_digest(tmp_path, digests[2], index=9, pad=4096)
        survivors = {p.name for p in tmp_path.glob("mappings-*.json")}
        # The two least-recently-touched files (digests[2] was just written,
        # so digests[1] then digests[0] by our synthetic mtimes) shrink the
        # store under budget; the newest write always survives.
        assert f"mappings-{digests[2][:16]}.json" in survivors
        assert len(survivors) < 3
        assert recorder.metrics.counters()["cache.evictions"] >= 1

    def test_load_refreshes_recency(self, tmp_path):
        digest = "ab" * 32
        _put_digest(tmp_path, digest, pad=128)
        path = tmp_path / f"mappings-{digest[:16]}.json"
        os.utime(path, (1_000_000, 1_000_000))
        before = path.stat().st_mtime
        cache = MappingCache(tmp_path)
        assert cache.contains(f"s0|{digest}|minimal|o")
        assert path.stat().st_mtime > before

    def test_bad_budget_value_is_config_error(self, tmp_path, monkeypatch):
        import pytest

        from repro.core.cache import CACHE_MAX_BYTES_ENV
        from repro.errors import ConfigError

        _put_digest(tmp_path, "cd" * 32)
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "lots")
        cache = MappingCache(tmp_path)
        cache.put("s1|" + "cd" * 32 + "|minimal|o", object(), record=lambda: {"m": 1})
        with pytest.raises(ConfigError, match=CACHE_MAX_BYTES_ENV):
            cache.save()
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "-5")
        cache.put("s2|" + "cd" * 32 + "|minimal|o", object(), record=lambda: {"m": 2})
        with pytest.raises(ConfigError, match=">= 0"):
            cache.save()


class TestCacheDegradedMode:
    """A full disk disables the cache sink; the sweep itself continues."""

    def test_enospc_degrades_and_search_completes(self, tmp_path):
        from repro import durable, obs
        from repro.testing.faults import (
            FaultPlan,
            install_plan,
            parse_fault_specs,
        )

        hw = case_study_hardware()
        install_plan(FaultPlan(parse_fault_specs("enospc@sink=cache")))
        durable.reset_degraded()
        recorder = obs.Recorder()
        try:
            with obs.use(recorder):
                cache = MappingCache(tmp_path)
                results = Mapper(
                    hw=hw, profile=SearchProfile.MINIMAL, cache=cache
                ).search_model(small_layers())
        finally:
            install_plan(None)
        assert len(results) == len(small_layers())  # sweep unharmed
        assert not durable.sink_enabled("cache")
        counters = recorder.metrics.counters()
        assert counters["degraded.cache"] == 1
        assert counters["resource.enospc"] >= 1
        assert not list(tmp_path.glob("mappings-*.json"))
        # Later saves are silent no-ops, not repeated failures.
        cache.put("s|" + "ef" * 32 + "|minimal|o", object(), record=lambda: {"m": 1})
        cache.save()
        durable.reset_degraded()
