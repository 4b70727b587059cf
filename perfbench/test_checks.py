"""The benchmark's output checks reject known-wrong answers.

    python3 -m pytest -q perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import checks as ck

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import nvspinmech as nv  # noqa: E402

ORIENTATION = nv.CrystalOrientation.identity()


def _axial(b):
    return nv.FieldVector.from_array(b * ORIENTATION.axis_lab(0), frame="lab")


class TestLibration:
    # acceptance criterion 4a: B = 0.2 T, N = 1e9, I = 1e-22 kg m^2, pump 1e9/s
    B, N, PUMP = 0.2, 1e9, 1e9

    def row(self, omega_analytic):
        return [(self.B, np.nan, omega_analytic, np.nan, False)]

    def test_closed_form_is_1388_hz(self):
        f = ck.libration_closed_form(self.B, self.N, self.PUMP) / ck.TWO_PI
        assert f == pytest.approx(1388.5, abs=0.1)

    def test_program_passes(self):
        res = nv.librational_frequency(nv.SpinParams(n_spins_per_class=self.N, pump_rate=self.PUMP),
                                       ORIENTATION, nv.TrapModel(trap_frequency=0.0),
                                       _axial(self.B), classes=(0,))
        assert ck.check_libration(self.row(res.omega_analytic), self.N, "field",
                                  pump=self.PUMP) == []

    def test_factor_two_stiffness_rejected(self):
        wrong = ck.TWO_PI * 1963.6  # stiffness doubled by |<+-1|Sx|0>|^2 = 1
        assert ck.check_libration(self.row(wrong), self.N, "field", pump=self.PUMP)

    def test_doubled_numeric_stiffness_rejected(self):
        k = ck.libration_stiffness(0.15, self.N, ck.PUMP)
        right = np.sqrt(k / ck.INERTIA)
        ana = ck.libration_closed_form(0.15, self.N, ck.PUMP)
        assert ck.check_libration([(0.15, right, ana, 0.0, True)], self.N, "field") == []
        wrong = np.sqrt(2.0 * k / ck.INERTIA)
        assert ck.check_libration([(0.15, wrong, ana, 0.0, True)], self.N, "field")


class TestJumpSide:
    def spectra(self, jump_above_center):
        # up sweep with a fold jump 12 MHz from the line centre, down sweep smooth
        center = 2.0e9
        freqs = center + np.linspace(-30e6, 30e6, 13)
        x = (freqs - center) if jump_above_center else (center - freqs)
        dth = np.where(x < 12e6, 1e-3 * np.exp(x / 20e6), 0.0)
        down_f = freqs[::-1]
        return [(freqs, dth),
                (down_f, 5e-4 * np.exp(-((down_f - center) / 20e6) ** 2))], center

    def test_right_side_passes(self):
        spectra, center = self.spectra(jump_above_center=True)
        assert ck.check_jump_side(spectra, center, "high") == []

    def test_swapped_side_rejected(self):
        spectra, center = self.spectra(jump_above_center=False)
        assert ck.check_jump_side(spectra, center, "high")
        spectra, center = self.spectra(jump_above_center=True)
        assert ck.check_jump_side(spectra, center, "low")


class TestReadout:
    def test_exact_inversion_passes(self):
        theta, b = 20.0 * ck.DEG, 0.05
        est = nv.invert_angle_field(nv.SpinParams(),
                                    nv.TransitionPair(*ck.sorted_lines(theta, b)))
        assert ck.check_recovered(est.theta, est.b, theta, b) == []

    def test_field_off_by_0p2_mT_rejected(self):
        theta, b = 20.0 * ck.DEG, 0.05
        assert ck.check_recovered(theta, b + 2e-4, theta, b)
        assert ck.check_recovered(theta, b - 2e-4, theta, b)

    def test_twin_pair_must_be_reproduced(self):
        target = (2.0e9, 3.0e9)
        assert ck.check_pair_reproduced((2.0e9 + 0.5, 3.0e9), target) == []
        assert ck.check_pair_reproduced((2.0e9 + 5.0, 3.0e9), target)


class TestSusceptibility:
    BS = np.linspace(0.0, 0.2, 120)

    def test_program_passes(self):
        p = nv.SpinParams()
        rows = [(b, nv.susceptibility_numeric(p, b).chi_perp) for b in self.BS]
        assert ck.check_susceptibility(rows) == []

    def test_pumping_factor_dropped_rejected(self):
        rows = [(b, ck.chi_perp(b) / ck.pumping_factor()) for b in self.BS]
        assert ck.check_susceptibility(rows)

    def test_closed_form_crossing(self):
        assert ck.free_critical_field() == pytest.approx(0.1024124, abs=1e-7)
        assert ck.check_critical_fields(0.1024124 + 2e-6, 0.11)
        assert ck.check_critical_fields(ck.free_critical_field(), 0.1)


class TestProperties:
    def test_landscape_asymmetry_rejected(self):
        thetas = np.linspace(-1.0, 1.0, 5)
        phis = np.linspace(0.0, ck.TWO_PI, 3)
        rows = [(t, p, 1e-20 * t * t) for p in phis for t in thetas]
        assert ck.check_landscape(rows) == []
        rows[-1] = (rows[-1][0], rows[-1][1], 1.0001e-20)
        assert ck.check_landscape(rows)

    def test_rotation_control_must_be_exact(self):
        tb = np.linspace(0.0, 0.245, 8)
        theta = np.full(8, 0.01)
        control = [ck.TRAP_ANGLE + t for t in tb]
        assert ck.check_rotation(tb, theta, control) == []
        control[3] += 1e-15
        assert ck.check_rotation(tb, theta, control)

    def test_zero_drive_must_be_exact(self):
        assert ck.check_exact_zero([0.0, 0.0]) == []
        assert ck.check_exact_zero([0.0, 1e-18])
