"""Microwave-driven steady states, resonance scans and hysteresis."""

import numpy as np
import pytest

from nvspinmech import (NV_AXES, MicrowaveDrive, SpinParams, TiltGeometry, TrapModel,
                        hysteresis_pair, mdmr_scan, tilt_geometry,
                        microwave_superoperator, mw_steady_state,
                        sharp_edge_side, spin_expectation, steady_state,
                        transition_table, zero_connected_lines)
from nvspinmech.constants import HBAR
from nvspinmech.crystal import transverse_reference
from nvspinmech.mdmr import _driven_moments, _driven_total_torque
from nvspinmech.mechanics import _class_fields

from conftest import axial_field, coherence_basis, kron_jump_sum, to_crystal

TWO_PI = 2.0 * np.pi
DEG = np.pi / 180.0
MHZ = 1e6


def drive_at(freqs, rabi_hz, direction="up"):
    return MicrowaveDrive(rabi_rate=TWO_PI * rabi_hz, frequencies=tuple(freqs),
                          direction=direction)


def scan_window(params, orientation, trap, b_mag, line, span_hz, n, classes=(0,)):
    """Sweep frequencies centered on one |0>-connected line at equilibrium."""
    from nvspinmech import equilibrium_angle, tilt_geometry, NV_AXES

    b = axial_field(orientation, b_mag)
    eq = equilibrium_angle(params, orientation, trap, b, classes=classes)
    geom = tilt_geometry(orientation, b)
    bc = geom.b_crystal(eq.theta)
    axis = NV_AXES[0]
    bz = float(bc @ axis)
    perp = float(np.linalg.norm(bc - bz * axis))
    lines = zero_connected_lines(params, (perp, 0.0, bz))
    center = lines[0] if line == "lower" else lines[1]
    return np.linspace(center - span_hz / 2, center + span_hz / 2, n), center


def relative_error(a, ref):
    return np.linalg.norm(a - ref) / np.linalg.norm(ref)


def in_coherence_basis(sup):
    """T sup T^+: a row-major vec superoperator in the real coordinates."""
    t = coherence_basis()
    return t @ sup @ t.conj().T


class TestDriveValidation:
    def test_sweep_monotonicity_enforced(self):
        with pytest.raises(ValueError, match="increasing"):
            MicrowaveDrive(rabi_rate=1.0, frequencies=(2e9, 1e9), direction="up")
        with pytest.raises(ValueError, match="decreasing"):
            MicrowaveDrive(rabi_rate=1.0, frequencies=(1e9, 2e9), direction="down")

    def test_reversed_flips_direction(self):
        d = MicrowaveDrive(rabi_rate=1.0, frequencies=(1e9, 2e9), direction="up")
        r = d.reversed()
        assert r.direction == "down"
        assert r.frequencies == (2e9, 1e9)

    def test_negative_rabi_rejected(self):
        with pytest.raises(ValueError):
            MicrowaveDrive(rabi_rate=-1.0, frequencies=(1e9,))


class TestMwSteadyState:
    def test_zero_drive_identical_to_plain_steady_state(self, params):
        b_nv = (0.001, 0.0, 0.05)
        off = MicrowaveDrive(rabi_rate=0.0, frequencies=(2.2e9,))
        rho_mw = mw_steady_state(params, b_nv, off)
        rho = steady_state(params, b_nv)
        assert np.array_equal(rho_mw, rho)

    def test_strong_resonant_drive_equalizes_pair(self, params):
        # saturation of the |0> -> |-1| transition pools the two populations
        b0 = 0.03
        b_nv = (0.0, 0.0, b0)
        nu_minus = (params.zero_field_splitting
                    - params.gyromagnetic_ratio * b0) / TWO_PI
        rho0 = steady_state(params, b_nv)
        strong = drive_at([nu_minus], rabi_hz=30e6)
        rho = mw_steady_state(params, b_nv, strong)
        pooled = 0.5 * (rho0[1, 1] + rho0[2, 2]).real
        assert rho[1, 1].real == pytest.approx(pooled, rel=0.05)
        assert rho[2, 2].real == pytest.approx(pooled, rel=0.05)

    def test_weak_drive_response_quadratic_in_rabi(self, params):
        # longitudinal moment change scales with drive power over a decade
        b0 = 0.03
        b_nv = (0.0, 0.0, b0)
        nu_minus = (params.zero_field_splitting
                    - params.gyromagnetic_ratio * b0) / TWO_PI
        sz0 = spin_expectation(steady_state(params, b_nv))[2]
        rabis = np.array([3e3, 1e4, 3e4])
        deltas = []
        for rabi in rabis:
            rho = mw_steady_state(params, b_nv, drive_at([nu_minus], rabi))
            deltas.append(abs(spin_expectation(rho)[2] - sz0))
        slope = np.polyfit(np.log(rabis), np.log(deltas), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_forbidden_double_quantum_untouched(self, params):
        # axial field: the |+1> <-> |-1| transition has no Sx matrix element
        b_nv = (0.0, 0.0, 0.03)
        rows = transition_table(params, b_nv)
        weights = {(i, j): w for _, w, i, j in rows}
        assert weights[(0, 2)] == pytest.approx(1.0, abs=1e-12)  # 0 <-> -1
        assert weights[(1, 2)] == pytest.approx(0.0, abs=1e-12)  # +1 <-> -1


class TestMicrowaveSuperoperator:
    def test_matches_kron_jump_sum_at_random_fields(self, params):
        rng = np.random.default_rng(11)
        fields = rng.normal(scale=0.08, size=(40, 3))
        for freq, rabi in ((2.2e9, 3e6), (3.1e9, 20e6), (0.5e9, 1e6)):
            drive = drive_at([freq], rabi)
            stack = microwave_superoperator(params, fields, freq, drive)
            assert stack.shape == (40, 9, 9)
            for b, sup in zip(fields, stack):
                ref = in_coherence_basis(kron_jump_sum(params, b, freq, drive))
                assert relative_error(sup, ref) < 1e-13
                assert relative_error(microwave_superoperator(params, b, freq, drive),
                                      ref) < 1e-13

    def test_matches_kron_jump_sum_on_axis(self, params):
        # the forbidden double-quantum line has weight 0 and is skipped by
        # the reference; at B = D/gamma_e the |0> and |-1> levels coincide
        crossing = params.zero_field_splitting / params.gyromagnetic_ratio
        for bz in (0.03, 0.15, crossing):
            b_nv = (0.0, 0.0, bz)
            for freq in (0.5e9, 2.2e9, 4.0e9):
                drive = drive_at([freq], 5e6)
                ref = in_coherence_basis(kron_jump_sum(params, b_nv, freq, drive))
                sup = microwave_superoperator(params, b_nv, freq, drive)
                assert relative_error(sup, ref) < 1e-13

    def test_zero_drive_is_none(self, params):
        off = MicrowaveDrive(rabi_rate=0.0, frequencies=(2.2e9,))
        assert microwave_superoperator(params, (0.01, 0.0, 0.05), 2.2e9, off) is None
        assert microwave_superoperator(params, np.zeros((3, 3)), 2.2e9, off) is None

    def test_class_batch_matches_per_class_steady_states(self, params):
        # the class-batched moments with a per-point drive stack equal one
        # driven steady state per class in a frame built point by point,
        # including the theta = 0 gimbal of the tracked class
        geom = TiltGeometry(b_mag=0.12, phi=0.3)
        thetas = np.array([0.0, 0.05, 0.4, 1.2])
        classes = (0, 1, 2, 3)
        drive = drive_at([2.1e9], 8e6)
        fields = _class_fields(geom.b_crystal(thetas), classes)
        moments = to_crystal(_driven_moments(params, fields, 2.1e9, drive), classes)
        for ic, c in enumerate(classes):
            axis = NV_AXES[c]
            for it, theta in enumerate(thetas):
                b = geom.b_crystal(theta)
                bz = float(b @ axis)
                pnorm = float(np.linalg.norm(b - bz * axis))
                xhat = (b - bz * axis) / pnorm if pnorm > 1e-12 else transverse_reference(axis)
                if pnorm <= 1e-12:
                    # |axis|^2 = 1 + 2e-16 leaves a 5e-17 T projection at the
                    # gimbal, whose response is 8e-12 of the moment: solve the
                    # axial field there, as the fallback direction presumes
                    pnorm = 0.0
                rho = mw_steady_state(params, (pnorm, 0.0, bz), drive)
                m = -HBAR * params.gyromagnetic_ratio * spin_expectation(rho)
                ref = m[0] * xhat + m[1] * np.cross(axis, xhat) + m[2] * axis
                assert np.linalg.norm(moments[ic, it] - ref) <= 1e-12 * np.linalg.norm(ref)


class TestScan:
    def test_zero_drive_yields_exact_zero(self, params, orientation, trap):
        freqs = np.linspace(2.0e9, 2.5e9, 7)
        drive = drive_at(freqs, rabi_hz=0.0)
        spec = mdmr_scan(params, orientation, trap,
                         axial_field(orientation, 0.023), drive)
        assert np.all(spec.delta_theta == 0.0)
        assert spec.baseline_theta > 0.0
        assert all(p.converged for p in spec.points)

    def test_aligned_class_line_positions_at_23_mT(self, params, orientation, trap):
        # both lines visible with opposite-sign tilt response
        b0 = 0.023
        expected_minus = (params.zero_field_splitting
                          - params.gyromagnetic_ratio * b0) / TWO_PI
        expected_plus = (params.zero_field_splitting
                         + params.gyromagnetic_ratio * b0) / TWO_PI
        assert expected_minus == pytest.approx(2.2254e9, rel=1e-4)
        assert expected_plus == pytest.approx(3.5146e9, rel=1e-4)
        freqs = np.linspace(2.0e9, 3.8e9, 181)
        spec = mdmr_scan(params, orientation, trap, axial_field(orientation, b0),
                         drive_at(freqs, rabi_hz=0.5e6), classes=(0,))
        dth = spec.delta_theta
        i_minus = np.argmin(np.abs(freqs - expected_minus))
        i_plus = np.argmin(np.abs(freqs - expected_plus))
        # peak response within a linewidth of each line, opposite signs
        assert abs(dth[i_minus]) > 10 * np.median(np.abs(dth))
        assert abs(dth[i_plus]) > 10 * np.median(np.abs(dth))
        assert np.sign(dth[i_minus]) == -np.sign(dth[i_plus])
        # recorded line table agrees with the closed-form axial positions to
        # better than the linewidth (the small baseline tilt shifts them)
        linewidth = params.gamma2_star / TWO_PI
        assert spec.class_lines_hz[0][0] == pytest.approx(expected_minus, abs=linewidth)
        assert spec.class_lines_hz[0][1] == pytest.approx(expected_plus, abs=linewidth)
        # every record carries the per-class pair at its own tilt
        assert all(len(p.class_lines_hz) == 1 for p in spec.points)
        assert spec.points[0].class_lines_hz[0][0] == pytest.approx(
            expected_minus, abs=linewidth)

    def test_diamagnetic_regime_line_at_180_mT(self, params, orientation, trap):
        b0 = 0.18
        expected = (params.gyromagnetic_ratio * b0
                    - params.zero_field_splitting) / TWO_PI
        freqs = np.linspace(expected - 60e6, expected + 60e6, 41)
        spec = mdmr_scan(params, orientation, trap, axial_field(orientation, b0),
                         drive_at(freqs, rabi_hz=1e6), classes=(0,))
        peak = freqs[np.argmax(np.abs(spec.delta_theta))]
        assert peak == pytest.approx(expected, abs=10e6)
        assert expected == pytest.approx(2.17e9, rel=0.01)

    def test_off_axis_classes_respond(self, params, orientation, trap):
        # the three 109-degree classes produce resonances at the positions
        # computed from their own tilted-field eigenproblem; their lines sit
        # far from the aligned class's and differ among themselves because
        # the baseline tilt breaks their equivalence
        b0 = 0.18
        b = axial_field(orientation, b0)
        spec = mdmr_scan(params, orientation, trap, b,
                         drive_at(np.linspace(2.0e9, 2.4e9, 5), 1e6))
        lines_109 = spec.class_lines_hz[1]
        assert lines_109[0] > 5e9  # strongly mixed, far above the aligned line
        window = np.linspace(lines_109[0] - 40e6, lines_109[0] + 40e6, 31)
        spec2 = mdmr_scan(params, orientation, trap, b, drive_at(window, 2e6))
        dth = spec2.delta_theta
        background = 0.5 * (abs(dth[0]) + abs(dth[-1]))
        peak_idx = int(np.argmax(np.abs(dth - np.median(dth))))
        assert abs(dth[peak_idx]) > 3 * background
        assert abs(window[peak_idx] - lines_109[0]) < 8e6

    def test_empty_sweep_rejected(self, params, orientation, trap):
        with pytest.raises(ValueError, match="empty"):
            mdmr_scan(params, orientation, trap, axial_field(orientation, 0.02),
                      MicrowaveDrive(rabi_rate=1.0, frequencies=()))

    def test_no_stable_baseline_raises(self, params, orientation):
        # a trap angle beyond [-pi/2, pi] leaves the undriven torque with no
        # stable root in the searched range
        far = TrapModel(trap_frequency=TWO_PI * 500.0, theta0=4.0)
        with pytest.raises(RuntimeError, match="no stable microwave-off equilibrium"):
            mdmr_scan(params, orientation, far, axial_field(orientation, 0.13),
                      drive_at([2.0e9], 1e6))


class TestHysteresis:
    def test_linear_regime_directions_coincide(self, params, orientation):
        trap = TrapModel(trap_frequency=TWO_PI * 300.0, theta0=3.0 * DEG)
        freqs, center = scan_window(params, orientation, trap, 0.13,
                                    "lower", 120 * MHZ, 41)
        up, down = hysteresis_pair(params, orientation, trap,
                                   axial_field(orientation, 0.13),
                                   drive_at(freqs, rabi_hz=0.2e6), classes=(0,))
        gap = np.max(np.abs(up.delta_theta - down.delta_theta[::-1]))
        assert gap < 1e-5 * DEG

    def test_nonlinear_regime_directions_differ(self, params, orientation):
        trap = TrapModel(trap_frequency=TWO_PI * 300.0, theta0=8.0 * DEG)
        freqs, center = scan_window(params, orientation, trap, 0.14,
                                    "upper", 300 * MHZ, 61)
        up, down = hysteresis_pair(params, orientation, trap,
                                   axial_field(orientation, 0.14),
                                   drive_at(freqs, rabi_hz=8e6), classes=(0,))
        gap = np.max(np.abs(up.delta_theta - down.delta_theta[::-1]))
        assert gap > 1.0 * DEG

    def test_edge_sides_after_crossing(self, params, orientation):
        # |0> -> |-1|-like line jumps on the high-frequency side, the
        # |0> -> |+1>-like line on the low-frequency side
        trap_m = TrapModel(trap_frequency=TWO_PI * 300.0, theta0=3.0 * DEG)
        freqs, center = scan_window(params, orientation, trap_m, 0.12,
                                    "lower", 150 * MHZ, 61)
        up, down = hysteresis_pair(params, orientation, trap_m,
                                   axial_field(orientation, 0.12),
                                   drive_at(freqs, 6e6), classes=(0,))
        assert sharp_edge_side(up, down, center) == "high"

        trap_p = TrapModel(trap_frequency=TWO_PI * 300.0, theta0=8.0 * DEG)
        freqs, center = scan_window(params, orientation, trap_p, 0.14,
                                    "upper", 300 * MHZ, 61)
        up, down = hysteresis_pair(params, orientation, trap_p,
                                   axial_field(orientation, 0.14),
                                   drive_at(freqs, 8e6), classes=(0,))
        assert sharp_edge_side(up, down, center) == "low"

    def test_edge_sides_before_crossing(self, orientation):
        # both lines jump on the low-frequency side well below the crossing
        p = SpinParams(gamma2_star=TWO_PI * 1e6)
        trap = TrapModel(trap_frequency=TWO_PI * 120.0, theta0=10.0 * DEG)
        for line, rabi in (("lower", 2e6), ("upper", 2e6)):
            freqs, center = scan_window(p, orientation, trap, 0.023,
                                        line, 60 * MHZ, 61)
            up, down = hysteresis_pair(p, orientation, trap,
                                       axial_field(orientation, 0.023),
                                       drive_at(freqs, rabi), classes=(0,))
            assert sharp_edge_side(up, down, center) == "low"

    def test_down_sweep_follows_existing_stable_branch(self, orientation):
        # upper line below the crossing, swept downward: near the low end
        # the stable branch near 0.62 rad coexists with one near 0.43 rad
        # (and an unstable root between them); the scan stays on it
        p = SpinParams(gamma2_star=TWO_PI * 1e6)
        trap = TrapModel(trap_frequency=TWO_PI * 120.0, theta0=10.0 * DEG)
        field = axial_field(orientation, 0.023)
        freqs, _ = scan_window(p, orientation, trap, 0.023, "upper", 60 * MHZ, 13)
        spec = mdmr_scan(p, orientation, trap, field,
                         drive_at(freqs[::-1], 2e6, direction="down"), classes=(0,))
        geom = tilt_geometry(orientation, field)
        previous = spec.baseline_theta
        for point in spec.points:
            lower, upper = _driven_total_torque(
                p, geom, trap, spec.drive, point.frequency_hz,
                [point.theta - 1e-4, point.theta + 1e-4], (0,))
            assert lower > 0.0 > upper, point
            assert abs(point.theta - previous) < 0.08, point
            previous = point.theta
        assert spec.points[-1].theta > 0.6
