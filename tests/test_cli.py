"""End-to-end command-line runs: exit codes, determinism, table contracts."""

import re

import numpy as np
import pytest

from nvspinmech.cli import main
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

    def test_missing_config_file_is_one(self, capsys):
        code, out, err = run_cli(capsys, "susceptibility",
                                 "--config", "/no/such/file.ini")
        assert code == 1

    def test_numerical_failure_is_two(self, capsys):
        # zero-pumping ensemble has no susceptibility sign change: the
        # critical-field search exhausts its range
        code, out, err = run_cli(capsys, "critical-field",
                                 "--set", "spin.pump_rate_per_s=0",
                                 "--set", "trap.trap_frequency_hz=0",
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

    def test_unknown_command_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 1


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
            ("mdmr", ["--set", "mdmr.frequency_steps=0"]),
            ("landscape", ["--set", "landscape.theta_steps=0"]),
            ("critical-field", ["--set", "sweep.steps=0"]),
        ]:
            code, out, _ = run_cli(capsys, cmd, *extra)
            assert code == 0, cmd
            table = ResultTable.parse(out)
            assert table.rows == [], cmd
            assert len(table.units) == len(table.columns), cmd

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
