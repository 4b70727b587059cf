"""Result tables and configuration parsing."""

import numpy as np
import pytest

from nvspinmech.cli import COMMANDS
from nvspinmech.config import SCHEMA, ConfigError, RunConfig, load_config
from nvspinmech.table import ResultTable

TWO_PI = 2.0 * np.pi


class TestResultTable:
    def make(self):
        t = ResultTable(columns=["b", "chi"], units=["tesla", "1"],
                        meta={"tool": "x 0.1", "note": "demo"})
        t.add_row(0.1, 7.972373000797744e-05)
        t.add_row(0.15000000000000002, -2.833e-05)
        t.add_row(np.float64(0.2), np.float64(1.0) / 3.0)
        return t

    def test_emit_parse_round_trip(self):
        t = self.make()
        text = t.emit()
        back = ResultTable.parse(text)
        assert back == t or (back.columns == t.columns and back.units == t.units
                             and back.meta == t.meta
                             and np.allclose(back.rows, t.rows, rtol=0, atol=0))
        # byte-level stability under re-emission
        assert back.emit() == text

    def test_floats_round_trip_losslessly(self):
        t = self.make()
        back = ResultTable.parse(t.emit())
        for r_in, r_out in zip(t.rows, back.rows):
            for a, b in zip(r_in, r_out):
                assert float(a) == float(b)

    def test_units_row_required(self):
        with pytest.raises(ValueError, match="units"):
            ResultTable(columns=["a", "b"], units=["1"])

    def test_rectangular_rows_enforced(self):
        t = ResultTable(columns=["a", "b"], units=["1", "1"])
        with pytest.raises(ValueError):
            t.add_row(1.0)

    def test_bool_and_string_cells(self):
        t = ResultTable(columns=["ok", "tag"], units=["bool", "name"])
        t.add_row(True, "up")
        t.add_row(False, "down")
        back = ResultTable.parse(t.emit())
        assert back.rows == [[True, "up"], [False, "down"]]

    def test_header_only_table(self):
        t = ResultTable(columns=["a"], units=["1"], meta={"k": "v"})
        back = ResultTable.parse(t.emit())
        assert back.rows == []
        assert back.columns == ["a"]


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = load_config(text="")
        p = cfg.spin_params()
        assert p.zero_field_splitting == pytest.approx(TWO_PI * 2.87e9)
        assert p.gamma2_star == pytest.approx(TWO_PI * 5e6)
        assert cfg.trap().theta0 == pytest.approx(np.deg2rad(3.0), rel=1e-6)

    def test_frequencies_converted_to_angular(self):
        cfg = load_config(text="[spin]\ndephasing_rate_hz = 1e6\n")
        assert cfg.spin_params().gamma2_star == pytest.approx(TWO_PI * 1e6)

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="bogus_key"):
            load_config(text="[spin]\nbogus_key = 1\n")

    def test_unknown_section_named_in_error(self):
        with pytest.raises(ConfigError, match="mystery"):
            load_config(text="[mystery]\nx = 1\n")

    def test_bad_value_reports_section_and_key(self):
        with pytest.raises(ConfigError, match=r"\[spin\] pump_rate_per_s"):
            load_config(text="[spin]\npump_rate_per_s = fast\n")

    def test_overrides_applied(self):
        cfg = load_config(text="", overrides=["spin.pump_rate_per_s=2e5",
                                              "sweep.steps=7"])
        assert cfg.spin_params().pump_rate == 2e5
        assert cfg.sweep_values().size == 7

    def test_bad_override_target(self):
        with pytest.raises(ConfigError, match="unknown override"):
            load_config(text="", overrides=["spin.nope=1"])
        with pytest.raises(ConfigError, match="section.key"):
            load_config(text="", overrides=["juststring"])

    def test_cross_field_validation(self):
        with pytest.raises(ConfigError):
            load_config(text="[spin]\ndephasing_rate_hz = -5\n")

    def test_sweep_direction_and_values(self):
        cfg = load_config(text="[sweep]\nstart=0\nstop=1\nsteps=3\ndirection=down\n")
        assert list(cfg.sweep_values()) == [1.0, 0.5, 0.0]
        cfg2 = load_config(text="[sweep]\nvalues = 0.1, 0.3, 0.2\n")
        assert list(cfg2.sweep_values()) == [0.1, 0.3, 0.2]

    def test_classes_selection(self):
        assert load_config(text="[run]\nclasses = all\n").classes() == (0, 1, 2, 3)
        assert load_config(text="[run]\nclasses = tracked\n").classes() == (0,)
        assert load_config(text="[run]\nclasses = 0,2\n").classes() == (0, 2)
        with pytest.raises(ConfigError):
            load_config(text="[run]\nclasses = 5\n")

    def test_hash_stable_and_sensitive(self):
        a = load_config(text="")
        b = load_config(text="[spin]\npump_rate_per_s = 1e6\n")  # default value
        c = load_config(text="[spin]\npump_rate_per_s = 2e6\n")
        assert a.sha256 == b.sha256
        assert a.sha256 != c.sha256

    def test_microwave_drive_built(self):
        cfg = load_config(text="[mdmr]\nrabi_rate_hz = 1e6\n"
                               "frequency_start_hz = 2e9\n"
                               "frequency_stop_hz = 3e9\nfrequency_steps = 5\n")
        d = cfg.microwave_drive()
        assert d.rabi_rate == pytest.approx(TWO_PI * 1e6)
        assert len(d.frequencies) == 5

    def test_every_key_is_read_by_a_command(self, monkeypatch):
        # a key that no command reads selects nothing; the builders that
        # load_config runs to validate do not count, only the commands
        overrides = {
            "susceptibility": ["sweep.steps=2"],
            "equilibrium": ["sweep.steps=1"],
            "rotation": ["sweep.steps=1"],
            "mdmr": ["mdmr.frequency_steps=2", "mdmr.hysteresis=true",
                     "run.classes=tracked"],
            "landscape": ["landscape.theta_steps=2", "landscape.phi_steps=1"],
            "libration": ["sweep.steps=1", "libration.variable=pump_rate"],
            "invert": [],
            "critical-field": ["sweep.steps=2", "trap.trap_frequency_hz=0"],
        }
        assert set(overrides) == set(COMMANDS)
        read = set()
        original = RunConfig.get

        def recording(self, section, key):
            read.add((section, key))
            return original(self, section, key)

        for command, items in overrides.items():
            cfg = load_config(overrides=items)
            with monkeypatch.context() as m:
                m.setattr(RunConfig, "get", recording)
                COMMANDS[command](cfg)
        assert read == {(s, k) for s, keys in SCHEMA.items() for k in keys}
