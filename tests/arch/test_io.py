"""Tests for hardware configuration serialization."""

import dataclasses
import json

import pytest

from repro.arch.config import build_hardware, case_study_hardware
from repro.arch.io import (
    hardware_from_dict,
    hardware_to_dict,
    load_hardware,
    save_hardware,
)
from repro.arch.topology import Topology


class TestRoundTrip:
    def test_case_study_round_trip(self):
        hw = case_study_hardware()
        restored = hardware_from_dict(hardware_to_dict(hw))
        assert restored == hw

    def test_mesh_topology_round_trip(self):
        hw = build_hardware(16, 2, 8, 8, topology=Topology.MESH)
        restored = hardware_from_dict(hardware_to_dict(hw))
        assert restored.topology is Topology.MESH
        assert restored == hw

    def test_tech_overrides_round_trip(self):
        hw = case_study_hardware()
        custom = dataclasses.replace(
            hw, tech=dataclasses.replace(hw.tech, frequency_mhz=1000.0)
        )
        data = hardware_to_dict(custom)
        assert data["tech_overrides"] == {"frequency_mhz": 1000.0}
        restored = hardware_from_dict(data)
        assert restored.tech.frequency_mhz == 1000.0
        assert restored.tech.mac_energy_pj == 0.024  # defaults preserved

    def test_default_tech_stores_no_overrides(self):
        data = hardware_to_dict(case_study_hardware())
        assert data["tech_overrides"] == {}

    def test_file_round_trip(self, tmp_path):
        hw = case_study_hardware()
        path = tmp_path / "machine.json"
        save_hardware(hw, path)
        assert load_hardware(path) == hw
        # And the file is plain, readable JSON.
        data = json.loads(path.read_text())
        assert data["chiplets"] == 4

    def test_unknown_tech_override_rejected(self):
        data = hardware_to_dict(case_study_hardware())
        data["tech_overrides"] = {"flux_capacitor_pj": 1.21}
        with pytest.raises(ValueError, match="flux_capacitor_pj"):
            hardware_from_dict(data)

    def test_missing_field_raises(self):
        from repro.arch.io import HardwareSpecError

        data = hardware_to_dict(case_study_hardware())
        del data["memory"]
        with pytest.raises(HardwareSpecError, match="memory"):
            hardware_from_dict(data)

    @pytest.mark.parametrize("field", ["chiplets", "cores", "lanes", "vector_size"])
    def test_nan_structure_count_raises(self, field):
        """NaN compares false against any bound, so a plain ``< 1`` check
        would let it through."""
        from repro.arch.io import HardwareSpecError

        data = hardware_to_dict(case_study_hardware())
        data[field] = float("nan")
        with pytest.raises(HardwareSpecError, match=field):
            hardware_from_dict(data)

    def test_topology_defaults_to_ring(self):
        data = hardware_to_dict(case_study_hardware())
        del data["topology"]
        assert hardware_from_dict(data).topology is Topology.RING


class TestCliIntegration:
    def test_map_with_hw_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "machine.json"
        save_hardware(build_hardware(2, 4, 8, 8), path)
        assert (
            main(
                [
                    "map",
                    "alexnet",
                    "--hw-file",
                    str(path),
                    "--profile",
                    "minimal",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2-4-8-8" in out

    def test_explore_csv_export(self, tmp_path, capsys):
        from repro.cli import main

        csv_path = tmp_path / "points.csv"
        assert (
            main(
                [
                    "explore",
                    "--macs",
                    "512",
                    "--models",
                    "alexnet",
                    "--stride",
                    "48",
                    "--csv",
                    str(csv_path),
                ]
            )
            == 0
        )
        content = csv_path.read_text()
        assert "energy_pj[alexnet]" in content
        assert len(content.splitlines()) > 1
