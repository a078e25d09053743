"""The structured error taxonomy: stable codes, stable exits, old contracts.

The taxonomy's whole value is stability: the ``code`` strings and exit
codes are an interface scripts and CI key on, and the retrofitted legacy
exceptions must keep every ``isinstance`` contract they had before joining
the hierarchy.
"""

import pytest

from repro.errors import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_FAILURE,
    EXIT_INTERRUPT,
    EXIT_RESOURCES,
    EXIT_USAGE,
    ConfigError,
    DataError,
    ReproError,
    ResourceExhaustedError,
    UsageError,
    error_code_for,
    exit_code_for,
)


class TestTaxonomy:
    def test_codes_and_exits_are_pinned(self):
        table = {
            UsageError: ("usage", EXIT_USAGE, 2),
            ConfigError: ("config", EXIT_CONFIG, 3),
            DataError: ("data", EXIT_DATA, 4),
            ResourceExhaustedError: ("resource-exhausted", EXIT_RESOURCES, 6),
        }
        for cls, (code, exit_const, exit_value) in table.items():
            assert cls.code == code
            assert cls.exit_code == exit_const == exit_value
            assert issubclass(cls, ReproError)

    def test_exit_code_for_taxonomy(self):
        assert exit_code_for(DataError("x")) == EXIT_DATA
        assert exit_code_for(KeyboardInterrupt()) == EXIT_INTERRUPT
        assert exit_code_for(RuntimeError("x")) == EXIT_FAILURE

    def test_error_code_for(self):
        assert error_code_for(ConfigError("x")) == "config"
        assert error_code_for(KeyboardInterrupt()) == "interrupt"
        assert error_code_for(RuntimeError("x")) == "error"


class TestRetrofits:
    """Each legacy exception keeps its historical type AND joins the taxonomy."""

    def test_config_validation_error(self):
        from repro.arch.validate import ConfigValidationError

        exc = ConfigValidationError("bad")
        assert isinstance(exc, ValueError)  # historical contract
        assert isinstance(exc, ConfigError)
        assert exit_code_for(exc) == EXIT_CONFIG

    def test_study_config_error(self):
        from repro.core.search import StudyConfigError

        exc = StudyConfigError("bad")
        assert isinstance(exc, ValueError)
        assert isinstance(exc, ConfigError)
        assert exit_code_for(exc) == EXIT_CONFIG

    def test_batch_overflow_error(self):
        from repro.core.batch import BatchOverflowError

        exc = BatchOverflowError("big")
        assert isinstance(exc, OverflowError)
        assert isinstance(exc, ResourceExhaustedError)
        assert exit_code_for(exc) == EXIT_RESOURCES

    def test_resource_invariant_error(self):
        from repro.sim.resources import ResourceInvariantError

        exc = ResourceInvariantError("corrupt")
        assert isinstance(exc, RuntimeError)
        assert isinstance(exc, DataError)
        assert exit_code_for(exc) == EXIT_DATA

    def test_transient_task_error(self):
        from repro.core.parallel import TransientTaskError

        exc = TransientTaskError("crash")
        assert isinstance(exc, RuntimeError)
        assert isinstance(exc, ReproError)
        assert exc.code == "transient"

    def test_workload_and_hardware_spec_errors(self):
        from repro.arch.io import HardwareSpecError
        from repro.workloads.io import WorkloadSpecError

        for cls in (WorkloadSpecError, HardwareSpecError):
            exc = cls("bad")
            assert isinstance(exc, ValueError)
            assert isinstance(exc, DataError)
            assert exit_code_for(exc) == EXIT_DATA

    def test_catching_repro_error_is_sufficient(self):
        """One except clause classifies every structured failure."""
        from repro.arch.validate import ConfigValidationError
        from repro.core.batch import BatchOverflowError
        from repro.workloads.io import WorkloadSpecError

        for exc in (
            ConfigValidationError("a"),
            BatchOverflowError("b"),
            WorkloadSpecError("c"),
        ):
            with pytest.raises(ReproError):
                raise exc
