"""End-to-end command-line runs: exit codes, determinism, table contracts."""

import ast
import contextlib
import io
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvspinmech import (CrystalOrientation, equilibrium_branch, librational_frequency,
                        mdmr_scan, susceptibility_numeric)
from nvspinmech import cli, mechanics, spincore
from nvspinmech.cli import build_parser, main
from nvspinmech.config import load_config
from nvspinmech.mechanics import axial_field
from nvspinmech.table import ResultTable

DEG = np.pi / 180.0

FAST_SUSC = ["--set", "sweep.start=0.0", "--set", "sweep.stop=0.2",
             "--set", "sweep.steps=5"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_timestamp(text):
    return re.sub(r"# generated: [^\n]*\n", "", text)


class TestExitCodes:
    def test_success(self, capsys):
        code, out, err = run_cli(capsys, "susceptibility", *FAST_SUSC)
        assert code == 0
        assert "chi_perp_numeric" in out

    def test_config_error_is_one(self, capsys):
        code, out, err = run_cli(capsys, "susceptibility", "--set", "spin.nope=1")
        assert code == 1
        assert "nope" in err

    def test_removed_workers_key_is_a_config_error(self, capsys, tmp_path):
        # the process pool is gone: a config that still sets run.workers is
        # rejected by name, from an override and from an INI file alike
        ini = tmp_path / "workers.ini"
        ini.write_text("[run]\nworkers = 2\n")
        for source in (["--set", "run.workers=2"], ["--config", str(ini)]):
            code, out, err = run_cli(capsys, "susceptibility", *FAST_SUSC, *source)
            assert code == 1, source
            assert out == "" and "workers" in err, source

    def test_removed_averages_key_is_a_config_error(self, capsys, tmp_path):
        # mdmr.averages was an output label with no averaging model behind it
        ini = tmp_path / "averages.ini"
        ini.write_text("[mdmr]\naverages = 2\n")
        for source in (["--set", "mdmr.averages=2"], ["--config", str(ini)]):
            code, out, err = run_cli(capsys, "mdmr", *source)
            assert code == 1, source
            assert out == "" and "averages" in err, source

    def test_removed_tracked_class_key_is_a_config_error(self, capsys, tmp_path):
        # class 0 is the one tracked axis: the key that chose another is gone,
        # and so is its [crystal] section, which the error names with its keys
        ini = tmp_path / "tracked.ini"
        ini.write_text("[crystal]\ntracked_class = 1\n")
        for source in (["--set", "crystal.tracked_class=1"], ["--config", str(ini)]):
            code, out, err = run_cli(capsys, "libration", "--set", "run.classes=tracked",
                                     "--set", "sweep.steps=1", *source)
            assert code == 1, source
            assert out == "" and "tracked_class" in err, source

    @pytest.mark.parametrize("section, key, value", [
        ("crystal", "rotation_axis", "0,0,1"), ("crystal", "rotation_angle_rad", "0.5"),
        ("field", "tilt_rad", "0.1"), ("field", "azimuth_rad", "0.5"),
        ("mdmr", "power_broadening", "true"), ("mdmr", "extra_broadening_hz", "1e6")])
    def test_removed_option_key_is_a_config_error(self, capsys, tmp_path, section, key,
                                                  value):
        # the crystal rotation is a gauge, no command reads a field tilt or
        # azimuth, and the MDMR linewidth is the dephasing rate
        ini = tmp_path / "removed.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        for source in (["--set", f"{section}.{key}={value}"], ["--config", str(ini)]):
            code, out, err = run_cli(capsys, "equilibrium", "--set", "sweep.steps=1", *source)
            assert code == 1, source
            assert out == "" and err.startswith("nvspinmech: config error"), source
            assert key in err, source

    def test_missing_config_file_is_one(self, capsys):
        code, out, err = run_cli(capsys, "susceptibility",
                                 "--config", "/no/such/file.ini")
        assert code == 1

    @pytest.mark.parametrize("trap_hz", ["0", "500"], ids=["free", "trapped"])
    def test_numerical_failure_is_two(self, capsys, trap_hz):
        # a zero-pumping ensemble has no susceptibility sign change, and
        # with a trap its tilt stays at the trap angle to rounding: either
        # critical-field search exhausts its range
        code, out, err = run_cli(capsys, "critical-field",
                                 "--set", "spin.pump_rate_per_s=0",
                                 "--set", f"trap.trap_frequency_hz={trap_hz}",
                                 "--set", "sweep.start=0.09",
                                 "--set", "sweep.stop=0.12",
                                 "--set", "sweep.steps=4")
        assert code == 2
        assert "numerical failure" in err

    def test_unbound_mdmr_baseline_is_two(self, capsys):
        # a trap angle beyond [-pi/2, pi] leaves the microwave-off torque
        # with no stable root, so the scan has no baseline
        code, out, err = run_cli(capsys, "mdmr",
                                 "--set", "trap.trap_angle_rad=4",
                                 "--set", "field.magnitude_tesla=0.13",
                                 "--set", "mdmr.frequency_steps=3")
        assert code == 2
        assert "numerical failure" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("override", [
        "invert.nu_minus_hz=nan", "invert.nu_plus_hz=inf",
        "invert.nu_minus_hz=-2e9", "invert.linewidth_hz=-5e6",
        "invert.linewidth_hz=nan", "invert.b_max_tesla=-0.1",
        "invert.b_max_tesla=inf", "invert.theta_max_rad=0"])
    def test_bad_invert_input_is_a_config_error(self, capsys, override):
        code, out, err = run_cli(capsys, "invert", "--set", override)
        assert code == 1
        assert "config error" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command, overrides", [
        ("mdmr", ["mdmr.rabi_rate_hz=nan"]),
        ("mdmr", ["mdmr.direction=sideways"]),
        ("mdmr", ["mdmr.rabi_rate_hz=-5"]),
        ("equilibrium", ["sweep.direction=sideways", "sweep.steps=2"]),
        ("mdmr", ["mdmr.frequency_steps=3", "mdmr.frequency_stop_hz=2e9"]),
        ("mdmr", ["mdmr.frequency_steps=1", "mdmr.frequency_start_hz=nan"]),
        ("equilibrium", ["sweep.values=inf"]),
        ("susceptibility", ["sweep.values=nan"]),
        ("rotation", ["sweep.start=inf"]),
        ("landscape", ["field.magnitude_tesla=nan"]),
        ("landscape", ["landscape.theta_min_rad=nan"]),
        ("libration", ["libration.variable=pump_rate", "sweep.values=-1"])])
    def test_bad_drive_or_sweep_setting_is_a_config_error(self, capsys, command, overrides):
        # rejected when the config loads or the command builds its cases,
        # before any solve runs
        argv = [arg for item in overrides for arg in ("--set", item)]
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 1
        assert err.startswith("nvspinmech: config error") and err.count("\n") == 1, err
        assert out == ""

    @pytest.mark.parametrize("command, overrides", [
        ("equilibrium", ["run.classes=0,0", "sweep.steps=2"]),
        ("mdmr", ["run.classes=1,2,1", "mdmr.frequency_steps=2"]),
        ("critical-field", ["sweep.values=0.1,0.1"]),
        ("critical-field", ["sweep.values=-0.2,0.2"]),
        ("critical-field", ["sweep.values=-0.2,0.2", "trap.trap_frequency_hz=0"])])
    def test_repeated_class_or_bad_field_range_is_a_config_error(self, capsys, command,
                                                                 overrides):
        argv = [arg for item in overrides for arg in ("--set", item)]
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 1
        assert err.startswith("nvspinmech: config error") and err.count("\n") == 1, err
        assert out == ""

    def test_unknown_command_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("exponent", [100, 120, 160, 200, 250, 300])
    @pytest.mark.parametrize("huge", ["minus", "plus", "both"])
    def test_overflowing_pair_is_a_numerical_failure(self, capsys, exponent, huge):
        # lines that overflow the closed form or the polish are a pair that
        # nothing in range reproduces: exit 2, with no warning on the way
        nu = f"1e{exponent}"
        overrides = {"minus": [f"invert.nu_minus_hz={nu}"],
                     "plus": [f"invert.nu_plus_hz={nu}"],
                     "both": [f"invert.nu_minus_hz={nu}", f"invert.nu_plus_hz=2e{exponent}"]}
        argv = [arg for item in overrides[huge] for arg in ("--set", item)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "invert", *argv)
        assert code == 2
        assert err.startswith("nvspinmech: numerical failure: no (theta, B) in range "
                              "reproduces the pair") and err.count("\n") == 1, err
        assert out == ""

    def test_one_parser_serves_every_call(self, capsys):
        # overrides of one call do not leak into the next through the
        # parser's --set default, and a bad argument still exits 1
        runs = [["invert.nu_minus_hz=2.2254e9", "invert.nu_plus_hz=3.5146e9"],
                ["invert.linewidth_hz=1e7"], []]
        shas = []
        for overrides in runs:
            code, out, _ = run_cli(capsys, "invert", *_sets(*overrides))
            assert code == 0
            shas.append(ResultTable.parse(out).meta["config_sha256"])
        assert shas == [load_config(overrides=overrides).sha256 for overrides in runs]
        assert len(set(shas)) == 3
        with pytest.raises(SystemExit) as exc:
            main(["invert", "--no-such-flag"])
        assert exc.value.code == 1
        assert run_cli(capsys, "invert")[0] == 0


class TestDeterminism:
    def test_byte_identical_modulo_timestamp(self, capsys):
        _, out1, _ = run_cli(capsys, "susceptibility", *FAST_SUSC)
        _, out2, _ = run_cli(capsys, "susceptibility", *FAST_SUSC)
        assert strip_timestamp(out1) == strip_timestamp(out2)


class TestTables:
    def test_output_file_written(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "susceptibility", *FAST_SUSC,
                               "--out", str(out_path))
        assert code == 0
        assert out == ""
        table = ResultTable.parse(out_path.read_text())
        assert table.columns[0] == "b"
        assert table.units[0] == "tesla"
        assert len(table.rows) == 5

    def test_round_trip_losslessly(self, capsys):
        _, out, _ = run_cli(capsys, "susceptibility", *FAST_SUSC)
        table = ResultTable.parse(out)
        assert ResultTable.parse(table.emit()) == table

    def test_empty_sweep_header_only(self, capsys):
        for cmd, extra in [
            ("susceptibility", ["--set", "sweep.steps=0"]),
            ("equilibrium", ["--set", "sweep.steps=0"]),
            ("rotation", ["--set", "sweep.steps=0"]),
            ("libration", ["--set", "sweep.steps=0"]),
            ("libration", ["--set", "sweep.steps=0", "--set", "libration.variable=pump_rate"]),
            ("mdmr", ["--set", "mdmr.frequency_steps=0"]),
            ("landscape", ["--set", "landscape.theta_steps=0"]),
            ("critical-field", ["--set", "sweep.steps=0"]),
        ]:
            code, out, _ = run_cli(capsys, cmd, *extra)
            assert code == 0, cmd
            table = ResultTable.parse(out)
            assert table.rows == [], cmd
            assert len(table.units) == len(table.columns), cmd

    @pytest.mark.parametrize("command, extra", [
        ("susceptibility", ["sweep.start=0.13"]),
        ("libration", ["sweep.start=0.13"]),
        ("libration", ["libration.variable=pump_rate", "sweep.start=2e5"])],
        ids=["susceptibility", "libration-field", "libration-pump"])
    def test_one_step_sweep_is_the_per_row_result(self, capsys, command, extra):
        # the batched commands give the one row the per-row functions give
        overrides = ["sweep.steps=1", "run.classes=tracked", *extra]
        code, out, err = run_cli(capsys, command, *_sets(*overrides))
        assert code == 0, err
        (row,) = ResultTable.parse(out).rows
        cfg = load_config(overrides=overrides)
        if command == "susceptibility":
            assert row[2] == susceptibility_numeric(cfg.spin_params(), 0.13).chi_perp
            return
        params, b = cfg.spin_params(), cfg.get("field", "magnitude_tesla")
        if "libration.variable=pump_rate" in extra:
            params = params.with_(pump_rate=2e5)
        else:
            b = 0.13
        res = librational_frequency(params, CrystalOrientation.identity(), cfg.trap(),
                                    axial_field(CrystalOrientation.identity(), b), classes=(0,))
        assert row[1:] == [res.omega_numeric, res.omega_analytic, res.theta_star, res.stable]

    def test_metadata_block_present(self, capsys):
        _, out, _ = run_cli(capsys, "susceptibility", *FAST_SUSC)
        table = ResultTable.parse(out)
        assert "config_sha256" in table.meta
        assert table.meta["command"] == "susceptibility"


class TestCommands:
    def test_every_command_runs_on_defaults_in_budget(self, capsys, tmp_path):
        import time

        from nvspinmech.cli import COMMANDS

        for cmd in COMMANDS:
            start = time.perf_counter()
            code, _, err = run_cli(capsys, cmd, "--out",
                                   str(tmp_path / f"{cmd}.csv"))
            elapsed = time.perf_counter() - start
            assert code == 0, f"{cmd}: {err}"
            assert elapsed < 60.0, f"{cmd} took {elapsed:.1f} s"

    def test_landscape_decreasing_theta_bounds(self, capsys):
        args = ["landscape",
                "--set", "landscape.theta_steps=4",
                "--set", "landscape.phi_steps=2"]
        code, down, _ = run_cli(capsys, *args,
                                "--set", "landscape.theta_min_rad=0.6",
                                "--set", "landscape.theta_max_rad=0.0")
        assert code == 0
        _, up, _ = run_cli(capsys, *args,
                           "--set", "landscape.theta_min_rad=0.0",
                           "--set", "landscape.theta_max_rad=0.6")
        td, tu = ResultTable.parse(down), ResultTable.parse(up)
        assert len(td.rows) == 8
        it, iu = td.columns.index("theta"), td.columns.index("energy")
        for j in range(2):
            # rows keep the configured order: the increasing table reversed
            block_d = td.rows[4 * j:4 * j + 4]
            block_u = tu.rows[4 * j:4 * j + 4][::-1]
            assert [r[it] for r in block_d] == pytest.approx([0.6, 0.4, 0.2, 0.0])
            assert block_d[-1][iu] == 0.0
            assert [r[iu] for r in block_d] == pytest.approx(
                [r[iu] for r in block_u], rel=1e-9)

    def test_susceptibility_sign_change_near_crossing(self, capsys):
        code, out, _ = run_cli(capsys, "susceptibility",
                               "--set", "sweep.start=0.08",
                               "--set", "sweep.stop=0.12",
                               "--set", "sweep.steps=9")
        table = ResultTable.parse(out)
        i = table.columns.index("chi_perp_analytic")
        chi = [row[i] for row in table.rows]
        assert min(chi) < 0.0 < max(chi)

    def test_susceptibility_zero_pumping_vanishes(self, capsys):
        code, out, _ = run_cli(capsys, "susceptibility", *FAST_SUSC,
                               "--set", "spin.pump_rate_per_s=0")
        table = ResultTable.parse(out)
        for name in ("chi_perp_numeric", "chi_perp_analytic", "chi_d",
                     "chi_perp_vanvleck"):
            i = table.columns.index(name)
            assert all(abs(row[i]) < 1e-12 for row in table.rows), name

    def test_equilibrium_command(self, capsys):
        code, out, _ = run_cli(capsys, "equilibrium",
                               "--set", "sweep.start=0.11",
                               "--set", "sweep.stop=0.13",
                               "--set", "sweep.steps=3")
        assert code == 0
        table = ResultTable.parse(out)
        i = table.columns.index("theta")
        assert all(0.0 <= row[i] < 0.1 for row in table.rows)

    def test_rotation_command_control_line(self, capsys):
        code, out, _ = run_cli(capsys, "rotation",
                               "--set", "sweep.start=0.0",
                               "--set", "sweep.stop=0.1",
                               "--set", "sweep.steps=3",
                               "--set", "field.magnitude_tesla=0.13")
        table = ResultTable.parse(out)
        ic = table.columns.index("theta_control")
        controls = [row[ic] for row in table.rows]
        theta0 = np.deg2rad(3.0)
        assert controls == pytest.approx([theta0, theta0 + 0.05, theta0 + 0.1])

    def test_mdmr_command_single_direction(self, capsys):
        code, out, _ = run_cli(capsys, "mdmr",
                               "--set", "field.magnitude_tesla=0.023",
                               "--set", "mdmr.frequency_start_hz=2.2e9",
                               "--set", "mdmr.frequency_stop_hz=2.25e9",
                               "--set", "mdmr.frequency_steps=5",
                               "--set", "run.classes=tracked")
        assert code == 0
        table = ResultTable.parse(out)
        assert "baseline_theta_rad" in table.meta
        assert {row[table.columns.index("direction")] for row in table.rows} == {"up"}

    def test_mdmr_class_lines_are_plain_floats(self, capsys):
        code, out, _ = run_cli(capsys, "mdmr",
                               "--set", "field.magnitude_tesla=0.023",
                               "--set", "mdmr.frequency_steps=2")
        assert code == 0
        lines = {k: v for k, v in ResultTable.parse(out).meta.items()
                 if k.endswith("_lines_hz")}
        assert len(lines) == 4
        for value in lines.values():
            nu_minus, nu_plus = (float(field) for field in value.split())
            assert 0.0 < nu_minus < nu_plus

    def test_mdmr_hysteresis_emits_both_directions(self, capsys):
        code, out, _ = run_cli(capsys, "mdmr",
                               "--set", "field.magnitude_tesla=0.023",
                               "--set", "mdmr.frequency_start_hz=2.2e9",
                               "--set", "mdmr.frequency_stop_hz=2.25e9",
                               "--set", "mdmr.frequency_steps=4",
                               "--set", "mdmr.hysteresis=true",
                               "--set", "run.classes=tracked")
        table = ResultTable.parse(out)
        dirs = {row[table.columns.index("direction")] for row in table.rows}
        assert dirs == {"up", "down"}
        assert len(table.rows) == 8

    def test_landscape_command(self, capsys):
        code, out, _ = run_cli(capsys, "landscape",
                               "--set", "landscape.theta_min_rad=-0.5",
                               "--set", "landscape.theta_max_rad=0.5",
                               "--set", "landscape.theta_steps=5",
                               "--set", "landscape.phi_steps=2",
                               "--set", "landscape.phi_max_rad=3.14",
                               "--set", "field.magnitude_tesla=0.11")
        assert code == 0
        table = ResultTable.parse(out)
        assert len(table.rows) == 10
        iu = table.columns.index("energy")
        assert all(np.isfinite(row[iu]) for row in table.rows)

    def test_libration_field_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "libration",
                               "--set", "sweep.start=0.15",
                               "--set", "sweep.stop=0.2",
                               "--set", "sweep.steps=2",
                               "--set", "run.classes=tracked",
                               "--set", "trap.trap_frequency_hz=0",
                               "--set", "spin.n_spins_per_class=1e9")
        assert code == 0
        table = ResultTable.parse(out)
        io = table.columns.index("omega_analytic")
        assert all(row[io] > 0 for row in table.rows)

    def test_libration_transverse_equilibrium_found_at_ceiling(self, capsys):
        # tracked class, no trap, below ~0.03 T: the stable tilt is pi/2,
        # a tilt of the anchored search grid, where the total torque is
        # rounding noise
        code, out, _ = run_cli(capsys, "libration",
                               "--set", "run.classes=tracked",
                               "--set", "trap.trap_frequency_hz=0",
                               "--set", "spin.n_spins_per_class=1e9")
        assert code == 0
        table = ResultTable.parse(out)
        col = {name: table.columns.index(name) for name in ("b", "theta_star", "stable")}
        low = [row for row in table.rows if row[col["b"]] <= 0.0301]
        assert len(low) == 6
        for row in low:
            assert row[col["theta_star"]] == 0.5 * np.pi
            assert row[col["stable"]] is True

    def test_libration_pump_sweep_rises(self, capsys):
        code, out, _ = run_cli(capsys, "libration",
                               "--set", "libration.variable=pump_rate",
                               "--set", "sweep.start=1e5",
                               "--set", "sweep.stop=1e6",
                               "--set", "sweep.steps=3",
                               "--set", "run.classes=tracked",
                               "--set", "trap.trap_frequency_hz=0",
                               "--set", "field.magnitude_tesla=0.15",
                               "--set", "spin.n_spins_per_class=1e9")
        table = ResultTable.parse(out)
        io = table.columns.index("omega_numeric")
        freqs = [row[io] for row in table.rows]
        assert freqs[0] < freqs[-1]

    def test_invert_command(self, capsys):
        code, out, _ = run_cli(capsys, "invert",
                               "--set", "invert.nu_minus_hz=2.2254e9",
                               "--set", "invert.nu_plus_hz=3.5146e9")
        assert code == 0
        table = ResultTable.parse(out)
        ib = table.columns.index("b")
        assert table.rows[0][ib] == pytest.approx(0.023, abs=1e-4)

    def test_critical_field_command(self, capsys):
        code, out, _ = run_cli(capsys, "critical-field",
                               "--set", "trap.trap_frequency_hz=0",
                               "--set", "sweep.start=0.09",
                               "--set", "sweep.stop=0.12",
                               "--set", "sweep.steps=2")
        table = ResultTable.parse(out)
        assert table.rows[0][0] == pytest.approx(0.1024, abs=1e-3)

    def test_landscape_at_the_crossing_converges(self, capsys, monkeypatch):
        # at B = D/gamma the torque changes sign within 1e-4 rad of theta = 0;
        # the [0, 1] cell of the 3-step grid needs 11 subdivisions, one
        # fewer than the cap, and fails with 10
        monkeypatch.setattr(mechanics, "_QUAD_DEPTH", 11)
        crossing = 2.87e9 / 28.024e9
        for steps in ("3", "5"):
            code, out, err = run_cli(capsys, "landscape",
                                     "--set", f"field.magnitude_tesla={crossing!r}",
                                     "--set", f"landscape.theta_steps={steps}")
            assert code == 0, err
            table = ResultTable.parse(out)
            assert len(table.rows) == 9 * int(steps)
            iu = table.columns.index("energy")
            assert all(np.isfinite(row[iu]) for row in table.rows)
        monkeypatch.setattr(mechanics, "_QUAD_DEPTH", 10)
        code, _, err = run_cli(capsys, "landscape",
                               "--set", f"field.magnitude_tesla={crossing!r}",
                               "--set", "landscape.theta_steps=3")
        assert code != 0 and "theta=[0.0000, 0.0010], phi=0.0000" in err


class TestCliField:
    """The CLI crystal is unrotated and its field lies along the tracked
    axis: each row is bitwise the library's result on that field."""

    crystal = CrystalOrientation.identity()

    def table(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        return ResultTable.parse(out)

    def test_equilibrium_rows(self, capsys):
        fields = (0.11, 0.13)
        table = self.table(capsys, "equilibrium", "--set", "sweep.values=0.11,0.13")
        cfg = load_config(overrides=["sweep.values=0.11,0.13"])
        results = equilibrium_branch(cfg.spin_params(), self.crystal,
                                     [(cfg.trap(), axial_field(self.crystal, b))
                                      for b in fields])
        assert [row[1] for row in table.rows] == [res.theta for res in results]
        assert [row[3] for row in table.rows] == [res.torque_residual for res in results]

    def test_mdmr_rows(self, capsys):
        overrides = ["field.magnitude_tesla=0.023", "mdmr.frequency_start_hz=2.2e9",
                     "mdmr.frequency_stop_hz=2.25e9", "mdmr.frequency_steps=3",
                     "run.classes=tracked"]
        table = self.table(capsys, "mdmr", *(a for o in overrides for a in ("--set", o)))
        cfg = load_config(overrides=overrides)
        spectrum = mdmr_scan(cfg.spin_params(), self.crystal, cfg.trap(),
                             axial_field(self.crystal, 0.023), cfg.microwave_drive(),
                             classes=(0,))
        assert float(table.meta["baseline_theta_rad"]) == spectrum.baseline_theta
        assert [row[1] for row in table.rows] == list(spectrum.theta)
        assert [row[2] for row in table.rows] == list(spectrum.delta_theta)

    def test_libration_rows(self, capsys):
        overrides = ["sweep.values=0.15,0.2", "run.classes=tracked",
                     "trap.trap_frequency_hz=0", "spin.n_spins_per_class=1e9"]
        table = self.table(capsys, "libration", *(a for o in overrides for a in ("--set", o)))
        cfg = load_config(overrides=overrides)
        for row, b in zip(table.rows, (0.15, 0.2), strict=True):
            res = librational_frequency(cfg.spin_params(), self.crystal, cfg.trap(),
                                        axial_field(self.crystal, b), classes=(0,))
            assert row[1:4] == [res.omega_numeric, res.omega_analytic, res.theta_star]


class TestCliModule:
    def test_imports_public_names_only(self):
        # the CLI is a client of the package's public API: no private
        # ``_name`` from any package module (dunders such as __version__
        # are not private)
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        private = [f"{node.module or '.'}.{alias.name}" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.level > 0 or (node.module or "").startswith("nvspinmech"))
                   for alias in node.names
                   if alias.name.startswith("_") and not alias.name.endswith("__")]
        assert private == []

    def test_parser_is_built_once_through_the_module_attribute(self, capsys, monkeypatch):
        builds = []

        def counted():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert run_cli(capsys, "susceptibility", *FAST_SUSC)[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1


def _sets(*overrides):
    return [arg for item in overrides for arg in ("--set", item)]


LIBRATION_FIELD = _sets("run.classes=tracked", "trap.trap_frequency_hz=0",
                        "spin.n_spins_per_class=1e9")
LIBRATION_PUMP = LIBRATION_FIELD + _sets("libration.variable=pump_rate", "sweep.start=1e3",
                                         "sweep.stop=1e6")
MDMR_23MT = _sets("field.magnitude_tesla=0.023", "mdmr.frequency_start_hz=2.0e9",
                  "mdmr.frequency_stop_hz=3.8e9", "mdmr.frequency_steps=181",
                  "mdmr.rabi_rate_hz=5e5", "run.classes=tracked")
MDMR_180MT = _sets("field.magnitude_tesla=0.18", "mdmr.frequency_start_hz=2.1e9",
                   "mdmr.frequency_stop_hz=2.25e9", "mdmr.frequency_steps=61",
                   "run.classes=tracked")
HYSTERESIS = _sets("mdmr.hysteresis=true", "mdmr.rabi_rate_hz=6e6")
# the README reproduction recipes, the hysteresis row on both MDMR recipes
README_RECIPES = {
    "susceptibility": ["susceptibility", *_sets("sweep.start=0", "sweep.stop=0.2",
                                                "sweep.steps=120")],
    "equilibrium": ["equilibrium", *_sets("sweep.start=0.005", "sweep.stop=0.2",
                                          "sweep.steps=40")],
    "rotation": ["rotation", *_sets("field.magnitude_tesla=0.13", "sweep.start=0",
                                    "sweep.stop=0.245", "sweep.steps=8",
                                    "spin.n_spins_per_class=1e9", "trap.trap_frequency_hz=300")],
    "mdmr_23mT": ["mdmr", *MDMR_23MT],
    "mdmr_180mT": ["mdmr", *MDMR_180MT],
    "hysteresis_23mT": ["mdmr", *MDMR_23MT, *HYSTERESIS],
    "hysteresis_180mT": ["mdmr", *MDMR_180MT, *HYSTERESIS],
    "landscape": ["landscape", *_sets("field.magnitude_tesla=0.11")],
    "libration": ["libration", *LIBRATION_FIELD],
    "libration_pump": ["libration", *LIBRATION_PUMP],
    "invert": ["invert", *_sets("invert.nu_minus_hz=2.2254e9", "invert.nu_plus_hz=3.5146e9",
                                "invert.linewidth_hz=10e6")],
    "critical_field_free": ["critical-field", *_sets("trap.trap_frequency_hz=0")],
    "critical_field": ["critical-field"],
}


class TestBatchedSweeps:
    """The susceptibility and libration sweeps solve their independent rows
    together; every row is bitwise the per-row function's."""

    def test_susceptibility_rows_are_susceptibility_numeric(self, capsys):
        code, out, err = run_cli(capsys, *README_RECIPES["susceptibility"])
        assert code == 0, err
        table = ResultTable.parse(out)
        params = load_config(overrides=["sweep.steps=120"]).spin_params()
        assert len(table.rows) == 120
        for row in table.rows:
            assert row[2] == susceptibility_numeric(params, row[0]).chi_perp, row[0]

    @pytest.mark.parametrize("recipe", ["libration", "libration_pump"])
    def test_libration_sweep_is_one_derivative_batch(self, capsys, monkeypatch, recipe):
        # the slopes at all bound roots of the sweep come from one batch
        calls = []
        original = mechanics.steady_state_moments

        def counting(params, b_nv, rows=None, directions=None):
            if directions is not None:
                calls.append(len(b_nv))
            return original(params, b_nv, rows, directions)

        monkeypatch.setattr(mechanics, "steady_state_moments", counting)
        code, out, err = run_cli(capsys, *README_RECIPES[recipe])
        assert code == 0, err
        assert calls == [40]

    def test_no_solve_exceeds_the_batch_cap(self, capsys, monkeypatch):
        # a larger batch (the shared full-range libration scan has 6 * 343
        # tilts) is split into slices of at most _MAX_BATCH systems; the
        # driven MDMR solves go through the same solve
        sizes = []
        original = spincore._steady_vectors

        def recording(gen, *rest):
            sizes.append(len(gen))
            return original(gen, *rest)

        monkeypatch.setattr(spincore, "_steady_vectors", recording)
        for name, argv in README_RECIPES.items():
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, f"{name}: {err}"
        assert max(sizes) == spincore._MAX_BATCH


# B = D/gamma_e of the default config, where Delta_- = 0 exactly
CROSSING = 0.10241221809877248


def _with_edges(edges, lo, hi):
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi))


FIELDS = _with_edges([0.0, CROSSING, 0.2], 0.0, 0.3)
PUMPS = _with_edges([0.0, 1e9], 0.0, 1e9)
RABI_RATES = _with_edges([0.0, 1e12], 0.0, 1e12)
DRIVE_FREQUENCIES = _with_edges([0.0, 2.87e9], 0.0, 6e9)
# the columns documented to carry NaN or inf: the van Vleck chi at the
# exact crossing (SingularDetuningError), theta* and omega_numeric of a
# libration row with no bound or no stable equilibrium, and omega_analytic
# (inf) where Delta_- = 0 (LibrationResult); theta and torque_residual of an
# unbound equilibrium (EquilibriumResult) and theta of an unbound rotation
# step (RotationPoint).  Landscape energies, critical fields, MDMR tilts (an
# unconverged point keeps the previous tilt) and inversions are finite.
NON_FINITE_COLUMNS = {"susceptibility": {"chi_perp_vanvleck"},
                      "libration": {"theta_star", "omega_numeric", "omega_analytic"},
                      "equilibrium": {"theta", "torque_residual"},
                      "rotation": {"theta"},
                      "landscape": set(),
                      "critical-field": set(),
                      "mdmr": set(),
                      "invert": set()}


def run_edge_case(command, overrides) -> ResultTable | None:
    """The table of one CLI run, or None when it exits 1 (config) or 2
    (numerical) with its one-line diagnostic; no exception may escape main,
    and non-finite cells stay in the command's documented columns."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *_sets(*overrides)])
    except Exception as exc:  # noqa: BLE001 - the contract is that nothing escapes
        pytest.fail(f"{type(exc).__name__} escaped main for {overrides}: {exc}")
    assert code in (0, 1, 2), overrides
    if code != 0:
        assert err.getvalue().startswith("nvspinmech: "), err.getvalue()
        return None
    table = ResultTable.parse(out.getvalue())
    for row in table.rows:
        bad = {col for col, v in zip(table.columns, row)
               if isinstance(v, float) and not np.isfinite(v)}
        assert bad <= NON_FINITE_COLUMNS[command], (overrides, row)
    return table


@pytest.mark.parametrize("command, variable", [
    ("susceptibility", None), ("libration", "field"), ("libration", "pump_rate"),
    ("equilibrium", None), ("rotation", None), ("landscape", None), ("critical-field", None)],
    ids=["susceptibility", "libration-field", "libration-pump", "equilibrium", "rotation",
         "landscape", "critical-field"])
@settings(max_examples=9, deadline=None, derandomize=True)
@given(b=FIELDS, ends=st.tuples(FIELDS, FIELDS), pumps=st.tuples(PUMPS, PUMPS),
       dephasing=_with_edges([1e-3], 1e-3, 1e7), trap_hz=_with_edges([0.0], 0.0, 1e3),
       steps=st.integers(0, 3))
def test_cli_edges_answer_or_fail_cleanly(command, variable, b, ends, pumps, dephasing,
                                          trap_hz, steps):
    # every override answers, or exits 1 (config) or 2 (numerical) without
    # a traceback, and non-finite cells stay in the documented columns; the
    # landscape grid is steps x steps, and a critical field is one row
    sweep = sorted(pumps if variable == "pump_rate" else ends)
    overrides = [f"field.magnitude_tesla={b!r}", f"spin.pump_rate_per_s={pumps[0]!r}",
                 f"spin.dephasing_rate_hz={dephasing!r}",
                 f"trap.trap_frequency_hz={trap_hz!r}", f"sweep.start={sweep[0]!r}",
                 f"sweep.stop={sweep[1]!r}", f"sweep.steps={steps}",
                 f"landscape.theta_steps={steps}", f"landscape.phi_steps={steps}"]
    if variable is not None:
        overrides.append(f"libration.variable={variable}")
    table = run_edge_case(command, overrides)
    if table is not None:
        rows = {"landscape": steps * steps, "critical-field": min(steps, 1)}.get(command, steps)
        assert len(table.rows) == rows


@pytest.mark.parametrize("hysteresis", [False, True], ids=["scan", "hysteresis"])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(b=FIELDS, rabi_hz=RABI_RATES, ends=st.tuples(DRIVE_FREQUENCIES, DRIVE_FREQUENCIES),
       direction=st.sampled_from(["up", "down"]), steps=st.integers(0, 3), pump=PUMPS,
       trap_hz=_with_edges([0.0], 0.0, 1e3), classes=st.sampled_from(["tracked", "all"]))
def test_mdmr_cli_edges_answer_or_fail_cleanly(hysteresis, b, rabi_hz, ends, direction, steps,
                                               pump, trap_hz, classes):
    # a scan has one row per frequency, a hysteresis pair two
    start, stop = sorted(ends)
    overrides = [f"field.magnitude_tesla={b!r}", f"mdmr.rabi_rate_hz={rabi_hz!r}",
                 f"mdmr.frequency_start_hz={start!r}", f"mdmr.frequency_stop_hz={stop!r}",
                 f"mdmr.frequency_steps={steps}", f"mdmr.direction={direction}",
                 f"mdmr.hysteresis={hysteresis}", f"spin.pump_rate_per_s={pump!r}",
                 f"trap.trap_frequency_hz={trap_hz!r}", f"run.classes={classes}"]
    table = run_edge_case("mdmr", overrides)
    if table is not None:
        assert len(table.rows) == (2 if hysteresis else 1) * steps


LINE_FREQUENCIES = _with_edges([0.0, 2.87e9], 0.0, 1e10)
# the README pair, the aligned pair at the crossing B = D/gamma_e, or any two
LINE_PAIRS = st.one_of(st.sampled_from([(2.2254e9, 3.5146e9), (0.0, 5.74e9)]),
                       st.tuples(LINE_FREQUENCIES, LINE_FREQUENCIES))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(nus=LINE_PAIRS, width=_with_edges([1e7, 0.0, 1e9], 0.0, 1e9),
       theta_max=_with_edges([0.5 * np.pi, 0.0, np.pi], 0.0, 4.0),
       b_max=_with_edges([0.3, 0.0], 0.0, 1.0))
def test_invert_cli_edges_answer_or_fail_cleanly(nus, width, theta_max, b_max):
    # an inversion is one row
    overrides = [f"invert.nu_minus_hz={nus[0]!r}", f"invert.nu_plus_hz={nus[1]!r}",
                 f"invert.linewidth_hz={width!r}", f"invert.theta_max_rad={theta_max!r}",
                 f"invert.b_max_tesla={b_max!r}"]
    table = run_edge_case("invert", overrides)
    if table is not None:
        assert len(table.rows) == 1
