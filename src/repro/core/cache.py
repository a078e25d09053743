"""Persistent mapping cache for the sweep-scale search paths.

The DSE sweeps (:mod:`repro.core.dse`) evaluate thousands of hardware points
and every model layer on each of them, yet the search space is heavily
redundant: models repeat layer shapes (ResNet-50's bottlenecks), and sweeps
repeat hardware points across runs.  This module memoizes
:meth:`repro.core.mapper.Mapper.search_layer` results behind a key that
captures everything the search depends on:

``(layer shape, hardware digest, search profile, objective)``

Two tiers back the cache:

* an **in-memory** dict -- always on, shared across ``Mapper`` instances
  when callers inject one cache object;
* an optional **on-disk JSONL store** under ``.repro_cache/`` (or the
  directory named by ``REPRO_CACHE_DIR``) holding the *winning mapping* of
  each entry, serialized with :mod:`repro.core.serialize`.  On a disk hit
  the single stored mapping is re-evaluated (one cost-model call instead of
  a full search), so results are bit-identical to a fresh search.

Hit/miss counters feed the instrumentation surfaced by the CLI and
:func:`repro.analysis.reporting.format_search_stats`.

Robustness: each digest file is append-only, like the sweep checkpoint.
:meth:`MappingCache.save` appends one ``{"entries": {...}, "version": 1}``
line holding the entries put since the last save, and the loader merges
every line.  No writer rewrites a file, so concurrent sweeps flushing the
same machine cannot lose each other's entries.  A torn line is skipped
(``cache.corrupt_lines``); a file with a line of another format version,
or with no readable line, is set aside (renamed ``<file>.corrupt-<ms>``)
rather than silently shadowing the store.
"""

from __future__ import annotations

import json
import logging
import os
import time
from pathlib import Path
from typing import Any, Callable

from repro import durable, obs
from repro.arch.config import HardwareConfig
from repro.core.serialize import hardware_digest, mapping_from_dict
from repro.errors import ConfigError

logger = logging.getLogger("repro.cache")

#: Environment variable naming the on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable capping the on-disk store size (bytes, LRU evicted).
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: Default directory name for the on-disk store (under the working dir).
DEFAULT_CACHE_DIRNAME = ".repro_cache"

#: On-disk schema version; bump to invalidate every stored entry.
CACHE_FORMAT_VERSION = 1


# Monotonic flush counter consulted by the corrupt-cache fault injector
# (process-local, so injected corruption is deterministic per run).
_flush_index = 0


def _max_cache_bytes() -> int | None:
    """The ``REPRO_CACHE_MAX_BYTES`` budget, or ``None`` when uncapped.

    Raises:
        ConfigError: When the variable is set to anything but a
            non-negative integer.
    """
    raw = os.environ.get(CACHE_MAX_BYTES_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{CACHE_MAX_BYTES_ENV} must be a byte count, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigError(
            f"{CACHE_MAX_BYTES_ENV} must be >= 0, got {value}"
        )
    return value


def shape_text(shape_key: tuple) -> str:
    """The shape half of a :func:`cache_key`."""
    return "x".join(str(v) for v in shape_key)


def cache_key(
    shape_key: tuple | str,
    hw_digest: str,
    profile: str,
    objective: str,
) -> str:
    """The canonical string key of one search result.

    Args:
        shape_key: ``Mapper._shape_key``-style layer geometry tuple, or its
            :func:`shape_text`.
        hw_digest: :func:`repro.core.serialize.hardware_digest` of the machine.
        profile: Search-profile value (``"exhaustive"`` / ``"fast"`` / ...).
        objective: Objective function name (``"energy_objective"`` / ...).
    """
    shape = shape_key if isinstance(shape_key, str) else shape_text(shape_key)
    return f"{shape}|{hw_digest}|{profile}|{objective}"


class MappingCache:
    """Two-tier (memory + optional disk) store of per-layer search results.

    The in-memory tier holds opaque result objects
    (:class:`repro.core.mapper.LayerMappingResult`); the disk tier holds
    JSON records of the winning mapping plus the search statistics, grouped
    into one append-only file per hardware digest so unrelated machines
    never contend.

    Attributes:
        directory: Disk-store directory, or ``None`` for memory-only.
        hits: Lookups answered from either tier.
        misses: Lookups that required a fresh search.
        disk_hits: Subset of ``hits`` answered by re-evaluating a stored
            mapping from disk.
        corrupt_files: Disk files set aside for corruption or a format
            version mismatch during this process's loads.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.corrupt_files = 0
        self._mem: dict[str, Any] = {}
        self._disk: dict[str, dict[str, Any]] = {}
        self._loaded_digests: set[str] = set()
        # Records put since the last save, by digest: the next line to append.
        self._unsaved: dict[str, dict[str, Any]] = {}

    @classmethod
    def from_env(cls) -> "MappingCache":
        """A cache honouring ``REPRO_CACHE_DIR`` (memory-only when unset)."""
        directory = os.environ.get(CACHE_DIR_ENV, "").strip()
        return cls(directory or None)

    # --- lookups ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._mem)

    def contains(self, key: str) -> bool:
        """Whether ``key`` is answerable without a fresh search (no counting)."""
        if key in self._mem:
            return True
        self._ensure_loaded(self._digest_of(key))
        return key in self._disk

    def get(
        self,
        key: str,
        rebuild: Callable[[dict[str, Any]], Any] | None = None,
    ) -> Any | None:
        """Fetch the result stored under ``key``, counting hit or miss.

        Args:
            key: A :func:`cache_key` string.
            rebuild: Turns a disk record (``{"mapping": ..., "evaluated": n,
                "invalid": n}``) back into a result object; disk lookups are
                skipped when omitted.  A rebuild that returns ``None`` (the
                record no longer evaluates) falls through to a miss.
        """
        cached = self._mem.get(key)
        if cached is not None:
            self.hits += 1
            obs.count("cache.hits")
            return cached
        if rebuild is not None and self.directory is not None:
            self._ensure_loaded(self._digest_of(key))
            record = self._disk.get(key)
            if record is not None:
                result = rebuild(record)
                if result is not None:
                    self._mem[key] = result
                    self.hits += 1
                    self.disk_hits += 1
                    obs.count("cache.hits")
                    obs.count("cache.disk_hits")
                    return result
        self.misses += 1
        obs.count("cache.misses")
        return None

    def put(
        self,
        key: str,
        result: Any,
        record: Callable[[], dict[str, Any]] | None = None,
    ) -> None:
        """Store a fresh search result, and its disk record when enabled.

        ``record`` builds the disk record; it is called only when the
        cache has a disk tier, so a memory-only sweep never serializes.
        """
        self._mem[key] = result
        obs.count("cache.puts")
        if self.directory is not None and record is not None:
            self._unsaved.setdefault(self._digest_of(key), {})[key] = record()

    # --- disk tier -------------------------------------------------------------

    @staticmethod
    def _digest_of(key: str) -> str:
        return key.split("|", 2)[1]

    def _path_for(self, digest: str) -> Path:
        assert self.directory is not None
        return self.directory / f"mappings-{digest[:16]}.json"

    def _ensure_loaded(self, digest: str) -> None:
        """Lazily read and merge the lines of one hardware digest's file.

        The last line holding a key wins, as in ``SweepCheckpoint.load``:
        a layer re-searched because its record no longer rebuilds appends
        the record that replaces it.  Concurrent writers of one key append
        identical records (the search is deterministic).  A torn line is
        skipped and counted (``cache.corrupt_lines``).  A file holding a
        line of another format version, or no readable line at all, is set
        aside (renamed ``<file>.corrupt-<ms>``) so it cannot shadow the
        store; the load then proceeds as a clean miss.
        """
        if self.directory is None or digest in self._loaded_digests:
            return
        self._loaded_digests.add(digest)
        path = self._path_for(digest)
        load_start = time.perf_counter()
        try:
            text = path.read_text()
        except FileNotFoundError:
            return
        except OSError as exc:
            # A missing file is a clean miss; a failing device is not --
            # count it so persistent EIO degrades the sink instead of
            # masquerading as an empty cache forever.
            if durable.is_resource_error(exc):
                durable.record_sink_failure("cache", exc)
            return
        lines, torn = durable.parse_lines(text)
        batches = []
        for line in lines:
            if line.get("version") != CACHE_FORMAT_VERSION:
                self._set_aside(path, f"format version {line.get('version')!r}")
                return
            entries = line.get("entries")
            if isinstance(entries, dict):
                batches.append(entries)
            else:
                torn += 1
        if not batches:
            self._set_aside(path, "no readable line")
            return
        if torn:
            obs.count("cache.corrupt_lines", torn)
            logger.warning("cache file %s: skipped %d torn line(s)", path, torn)
        for entries in batches:
            self._disk.update(entries)
        obs.histogram(
            "cache.load_ms", (time.perf_counter() - load_start) * 1e3
        )
        try:
            os.utime(path)  # refresh LRU recency: this file just got used
        except OSError:
            pass

    def _set_aside(self, path: Path, reason: str) -> None:
        """Set aside an unusable cache file; a failed rename is not fatal."""
        try:
            durable.set_aside(path, "cache.corrupt_files", reason)
        except OSError as exc:
            if durable.is_resource_error(exc):
                durable.record_sink_failure("cache", exc)
            return
        self.corrupt_files += 1

    @staticmethod
    def _maybe_corrupt(text: str) -> str:
        """The fault-injection hook: corrupt this flush when a plan says so."""
        global _flush_index
        plan = durable.fault_plan()
        if plan is None:
            return text
        index = _flush_index
        _flush_index += 1
        corrupted = plan.corrupt_text(text, index)
        return text if corrupted is None else corrupted

    def save(self) -> None:
        """Append the entries put since the last save, one line per digest.

        Each line goes out in one fsync'd ``O_APPEND`` write
        (:func:`repro.durable.append_lines`).  No file is ever rewritten,
        so concurrent sweeps extend, never truncate, the store, and a
        ``kill -9`` can tear at most the line being written, which the
        loader skips.

        A flush that hits a full or failing disk (ENOSPC/EIO/...) degrades
        the cache sink -- one warning, the ``degraded.cache`` counter --
        and the sweep continues without persistence; the cache is an
        accelerator, never an input.  When ``REPRO_CACHE_MAX_BYTES`` is
        set, least-recently-used digest files are evicted after the flush
        until the store fits the budget.
        """
        if self.directory is None or not self._unsaved:
            return
        if not durable.sink_enabled("cache"):
            return
        obs.count("cache.saves")
        obs.count("cache.digests_flushed", len(self._unsaved))
        save_start = time.perf_counter()
        for digest in sorted(self._unsaved):
            line = self._maybe_corrupt(
                json.dumps(
                    {"version": CACHE_FORMAT_VERSION, "entries": self._unsaved[digest]},
                    sort_keys=True,
                )
            )
            if not durable.append_lines(self._path_for(digest), [line], sink="cache"):
                return
        obs.histogram(
            "cache.save_ms", (time.perf_counter() - save_start) * 1e3
        )
        self._unsaved.clear()
        self._evict_lru()

    def _evict_lru(self) -> None:
        """Evict least-recently-used digest files past ``REPRO_CACHE_MAX_BYTES``.

        Recency is file mtime: loads touch the file (:meth:`_ensure_loaded`)
        and writes refresh it naturally, so eviction order tracks actual
        use.  Eviction is size-based and best-effort -- a file that cannot
        be unlinked is skipped, never fatal.
        """
        budget = _max_cache_bytes()
        if budget is None or self.directory is None:
            return
        files = []
        for path in self.directory.glob("mappings-*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            files.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _mtime, size, _path in files)
        if total <= budget:
            return
        for _mtime, size, path in sorted(files):
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            obs.count("cache.evictions")
            logger.warning(
                "evicted cache file %s (%d B) to fit %s=%d B",
                path.name,
                size,
                CACHE_MAX_BYTES_ENV,
                budget,
            )

    # --- instrumentation -------------------------------------------------------

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        """One-line counter summary for reports."""
        tier = str(self.directory) if self.directory else "memory"
        return (
            f"{self.hits} hits ({self.disk_hits} from disk) / "
            f"{self.misses} misses ({self.hit_rate:.0%} hit rate, {tier})"
        )


def rebuild_record(
    record: dict[str, Any],
    layer,
    hw: HardwareConfig,
):
    """Re-evaluate a disk record's winning mapping on (``layer``, ``hw``).

    Returns the :class:`~repro.core.cost.CostReport` of the stored mapping,
    or ``None`` when the mapping no longer evaluates (a schema drift or a
    corrupted record) -- callers then fall back to a fresh search.
    """
    from repro.core.cost import InvalidMappingError, evaluate_mapping

    try:
        mapping = mapping_from_dict(record["mapping"])
        return evaluate_mapping(layer, hw, mapping)
    except (InvalidMappingError, KeyError, TypeError, ValueError):
        return None


__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_FORMAT_VERSION",
    "CACHE_MAX_BYTES_ENV",
    "DEFAULT_CACHE_DIRNAME",
    "MappingCache",
    "cache_key",
    "hardware_digest",
    "rebuild_record",
    "shape_text",
]
