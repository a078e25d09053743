"""Structured error taxonomy: one hierarchy, stable codes, stable exits.

Everything user-visible that can go wrong falls into one of five buckets,
each carried by a :class:`ReproError` subclass with a stable machine
``code`` string and a stable process exit code:

=====================  ==================  =========
class                  code                exit code
=====================  ==================  =========
UsageError             usage               2
ConfigError            config              3
DataError              data                4
StateCorruptionError   state-corruption    5
ResourceExhaustedError resource-exhausted  6
=====================  ==================  =========

``KeyboardInterrupt`` maps to the conventional 130 (128 + SIGINT), and any
other escape is the generic failure exit 1.

The pre-existing scattered exceptions keep their historical ``isinstance``
contracts by multiple inheritance -- e.g.
:class:`repro.arch.validate.ConfigValidationError` is still a
``ValueError`` *and* now a :class:`ConfigError`, and
:class:`repro.core.batch.BatchOverflowError` is still an ``OverflowError``
*and* a :class:`ResourceExhaustedError`.  Catching ``ReproError`` at the
top of a service loop (or the CLI) is therefore sufficient to classify
every structured failure, without touching the call sites that catch the
old types.

This module is import-cycle-free by construction: it imports nothing from
the rest of the package, so any layer (arch, core, obs, testing, cli) can
depend on it.
"""

from __future__ import annotations

#: Exit code of a command-line usage error (argparse's convention).
EXIT_USAGE = 2

#: Exit code of an invalid configuration (env knob, study meta, hardware).
EXIT_CONFIG = 3

#: Exit code of undecodable or inconsistent input data (workload/hw files).
EXIT_DATA = 4

#: Exit code of corrupt on-disk state (cache, checkpoint, study).
EXIT_STATE_CORRUPTION = 5

#: Exit code of an exhausted resource budget (disk, memory, overflow guard).
EXIT_RESOURCES = 6

#: Exit code of an interrupt (128 + SIGINT), the shell convention.
EXIT_INTERRUPT = 130

#: Exit code of any unclassified failure.
EXIT_FAILURE = 1


class ReproError(Exception):
    """Base of the structured error taxonomy.

    Attributes:
        code: Stable machine-readable category string (``"usage"``,
            ``"config"``, ...), safe to key alerting or tests on.
        exit_code: The process exit code the CLI maps this category to.
    """

    code: str = "error"
    exit_code: int = EXIT_FAILURE


class UsageError(ReproError):
    """The command line itself is wrong (bad flag combination, bad value)."""

    code = "usage"
    exit_code = EXIT_USAGE


class ConfigError(ReproError):
    """A configuration is invalid (hardware config, env knob, study meta)."""

    code = "config"
    exit_code = EXIT_CONFIG


class DataError(ReproError):
    """Input data is undecodable or inconsistent (workload/hardware files)."""

    code = "data"
    exit_code = EXIT_DATA


class StateCorruptionError(ReproError):
    """Persistent state (cache, checkpoint, study) is corrupt on disk."""

    code = "state-corruption"
    exit_code = EXIT_STATE_CORRUPTION


class ResourceExhaustedError(ReproError):
    """A resource budget ran out (disk space, memory budget, int64 range)."""

    code = "resource-exhausted"
    exit_code = EXIT_RESOURCES


def exit_code_for(exc: BaseException) -> int:
    """The stable exit code of ``exc`` under the taxonomy.

    ``ReproError`` subclasses carry their own code; ``KeyboardInterrupt``
    maps to 130; anything else is the generic failure exit 1.
    """
    if isinstance(exc, ReproError):
        return exc.exit_code
    if isinstance(exc, KeyboardInterrupt):
        return EXIT_INTERRUPT
    return EXIT_FAILURE


def error_code_for(exc: BaseException) -> str:
    """The stable category string of ``exc`` (``"error"`` if unclassified)."""
    if isinstance(exc, ReproError):
        return exc.code
    if isinstance(exc, KeyboardInterrupt):
        return "interrupt"
    return ReproError.code


__all__ = [
    "EXIT_CONFIG",
    "EXIT_DATA",
    "EXIT_FAILURE",
    "EXIT_INTERRUPT",
    "EXIT_RESOURCES",
    "EXIT_STATE_CORRUPTION",
    "EXIT_USAGE",
    "ConfigError",
    "DataError",
    "ReproError",
    "ResourceExhaustedError",
    "StateCorruptionError",
    "UsageError",
    "error_code_for",
    "exit_code_for",
]
