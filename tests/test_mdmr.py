"""Microwave-driven steady states, resonance scans and hysteresis."""

import numpy as np
import pytest

from nvspinmech import (NV_AXES, MicrowaveDrive, SpinParams, TiltGeometry, TrapModel,
                        equilibrium_angle, hysteresis_pair, mdmr_scan, tilt_geometry,
                        microwave_superoperator, sharp_edge_side, spin_expectation,
                        steady_state, steady_state_batch, zero_connected_lines)
from nvspinmech.constants import HBAR
from nvspinmech.crystal import transverse_reference
from nvspinmech import mdmr
from nvspinmech.mdmr import _driven_class_moments, _driven_total_torque, _tilt_half
from nvspinmech.mechanics import _axial_field, _class_fields, _dot3

from conftest import coherence_basis, kron_jump_sum, to_crystal

TWO_PI = 2.0 * np.pi
DEG = np.pi / 180.0
MHZ = 1e6


def drive_at(freqs, rabi_hz, direction="up"):
    return MicrowaveDrive(rabi_rate=TWO_PI * rabi_hz, frequencies=tuple(freqs),
                          direction=direction)


def scan_window(params, orientation, trap, b_mag, line, span_hz, n, classes=(0,)):
    """Sweep frequencies centered on one |0>-connected line at equilibrium."""
    from nvspinmech import equilibrium_angle, tilt_geometry, NV_AXES

    b = _axial_field(orientation, b_mag)
    eq = equilibrium_angle(params, orientation, trap, b, classes=classes)
    geom = tilt_geometry(orientation, b)
    bc = geom.field_and_derivative(eq.theta)[0, 0]
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
    def test_strong_resonant_drive_equalizes_pair(self, params):
        # saturation of the |0> -> |-1| transition pools the two populations
        b0 = 0.03
        b_nv = (0.0, 0.0, b0)
        nu_minus = (params.zero_field_splitting
                    - params.gyromagnetic_ratio * b0) / TWO_PI
        rho0 = steady_state(params, b_nv)
        strong = drive_at([nu_minus], rabi_hz=30e6)
        rho = steady_state(params, b_nv,
                           microwave_superoperator(params, b_nv, nu_minus, strong))
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
            weak = drive_at([nu_minus], rabi)
            rho = steady_state(params, b_nv,
                               microwave_superoperator(params, b_nv, nu_minus, weak))
            deltas.append(abs(spin_expectation(rho)[2] - sz0))
        slope = np.polyfit(np.log(rabis), np.log(deltas), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)


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
        tilt = _tilt_half(params, geom, thetas, classes)
        moments = to_crystal(_driven_class_moments(params, tilt, drive.rabi_rate, 2.1e9),
                             classes)
        for ic, c in enumerate(classes):
            axis = NV_AXES[c]
            for it, theta in enumerate(thetas):
                b = geom.field_and_derivative(theta)[0, 0]
                bz = float(b @ axis)
                pnorm = float(np.linalg.norm(b - bz * axis))
                xhat = (b - bz * axis) / pnorm if pnorm > 1e-12 else transverse_reference(axis)
                if pnorm <= 1e-12:
                    # |axis|^2 = 1 + 2e-16 leaves a 5e-17 T projection at the
                    # gimbal, whose response is 8e-12 of the moment: solve the
                    # axial field there, as the fallback direction presumes
                    pnorm = 0.0
                b_nv = (pnorm, 0.0, bz)
                rho = steady_state(params, b_nv,
                                   microwave_superoperator(params, b_nv, 2.1e9, drive))
                m = -HBAR * params.gyromagnetic_ratio * spin_expectation(rho)
                ref = m[0] * xhat + m[1] * np.cross(axis, xhat) + m[2] * axis
                assert np.linalg.norm(moments[ic, it] - ref) <= 1e-12 * np.linalg.norm(ref)


class TestScan:
    def test_zero_drive_yields_exact_zero(self, params, orientation, trap):
        freqs = np.linspace(2.0e9, 2.5e9, 7)
        drive = drive_at(freqs, rabi_hz=0.0)
        spec = mdmr_scan(params, orientation, trap,
                         _axial_field(orientation, 0.023), drive)
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
        spec = mdmr_scan(params, orientation, trap, _axial_field(orientation, b0),
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

    def test_diamagnetic_regime_line_at_180_mT(self, params, orientation, trap):
        b0 = 0.18
        expected = (params.gyromagnetic_ratio * b0
                    - params.zero_field_splitting) / TWO_PI
        freqs = np.linspace(expected - 60e6, expected + 60e6, 41)
        spec = mdmr_scan(params, orientation, trap, _axial_field(orientation, b0),
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
        b = _axial_field(orientation, b0)
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
            mdmr_scan(params, orientation, trap, _axial_field(orientation, 0.02),
                      MicrowaveDrive(rabi_rate=1.0, frequencies=()))

    def test_no_stable_baseline_raises(self, params, orientation):
        # a trap angle beyond [-pi/2, pi] leaves the undriven torque with no
        # stable root in the searched range
        far = TrapModel(trap_frequency=TWO_PI * 500.0, theta0=4.0)
        with pytest.raises(RuntimeError, match="no stable microwave-off equilibrium"):
            mdmr_scan(params, orientation, far, _axial_field(orientation, 0.13),
                      drive_at([2.0e9], 1e6))


class TestHysteresis:
    def test_linear_regime_directions_coincide(self, params, orientation):
        trap = TrapModel(trap_frequency=TWO_PI * 300.0, theta0=3.0 * DEG)
        freqs, center = scan_window(params, orientation, trap, 0.13,
                                    "lower", 120 * MHZ, 41)
        up, down = hysteresis_pair(params, orientation, trap,
                                   _axial_field(orientation, 0.13),
                                   drive_at(freqs, rabi_hz=0.2e6), classes=(0,))
        gap = np.max(np.abs(up.delta_theta - down.delta_theta[::-1]))
        assert gap < 1e-5 * DEG

    def test_nonlinear_regime_directions_differ(self, params, orientation):
        trap = TrapModel(trap_frequency=TWO_PI * 300.0, theta0=8.0 * DEG)
        freqs, center = scan_window(params, orientation, trap, 0.14,
                                    "upper", 300 * MHZ, 61)
        up, down = hysteresis_pair(params, orientation, trap,
                                   _axial_field(orientation, 0.14),
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
                                   _axial_field(orientation, 0.12),
                                   drive_at(freqs, 6e6), classes=(0,))
        assert sharp_edge_side(up, down, center) == "high"

        trap_p = TrapModel(trap_frequency=TWO_PI * 300.0, theta0=8.0 * DEG)
        freqs, center = scan_window(params, orientation, trap_p, 0.14,
                                    "upper", 300 * MHZ, 61)
        up, down = hysteresis_pair(params, orientation, trap_p,
                                   _axial_field(orientation, 0.14),
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
                                       _axial_field(orientation, 0.023),
                                       drive_at(freqs, rabi), classes=(0,))
            assert sharp_edge_side(up, down, center) == "low"

    def test_down_sweep_follows_existing_stable_branch(self, orientation):
        # upper line below the crossing, swept downward: near the low end
        # the stable branch near 0.62 rad coexists with one near 0.43 rad
        # (and an unstable root between them); the scan stays on it
        p = SpinParams(gamma2_star=TWO_PI * 1e6)
        trap = TrapModel(trap_frequency=TWO_PI * 120.0, theta0=10.0 * DEG)
        field = _axial_field(orientation, 0.023)
        freqs, _ = scan_window(p, orientation, trap, 0.023, "upper", 60 * MHZ, 13)
        spec = mdmr_scan(p, orientation, trap, field,
                         drive_at(freqs[::-1], 2e6, direction="down"), classes=(0,))
        geom = tilt_geometry(orientation, field)
        previous = spec.baseline_theta
        for point in spec.points:
            thetas = np.array([point.theta - 1e-4, point.theta + 1e-4])
            lower, upper = _driven_total_torque(p, _tilt_half(p, geom, thetas, (0,)), trap,
                                                spec.drive.rabi_rate, point.frequency_hz,
                                                thetas)
            assert lower > 0.0 > upper, point
            assert abs(point.theta - previous) < 0.08, point
            previous = point.theta
        assert spec.points[-1].theta > 0.6


def count_torque_batches(monkeypatch):
    """Record (rabi rate, frequency, tilts) of every driven-torque batch;
    within one pair the other inputs are fixed."""
    keys = []
    original = mdmr._driven_total_torque

    def counting(params, tilt, trap, rabi_rate, frequency_hz, thetas):
        keys.append((rabi_rate, frequency_hz, thetas.tobytes()))
        return original(params, tilt, trap, rabi_rate, frequency_hz, thetas)

    monkeypatch.setattr(mdmr, "_driven_total_torque", counting)
    return keys


def assert_same_spectrum(spec, ref):
    assert spec.drive == ref.drive
    assert repr((spec.baseline_theta, spec.points)) == repr((ref.baseline_theta, ref.points))
    assert np.array_equal(spec.class_lines_hz, ref.class_lines_hz)


class TestPairMemo:
    """A hysteresis pair solves each driven-torque batch once, and its
    spectra are bitwise those of two independent scans."""

    def fold_pair(self, params, orientation):
        # acceptance criterion 7 below the crossing, upper line, 13 points
        p = SpinParams(gamma2_star=TWO_PI * 1e6)
        trap = TrapModel(trap_frequency=TWO_PI * 120.0, theta0=10.0 * DEG)
        freqs, _ = scan_window(p, orientation, trap, 0.023, "upper", 60 * MHZ, 13)
        return p, trap, _axial_field(orientation, 0.023), drive_at(freqs, 2e6), (0,)

    def linear_pair(self, params, orientation):
        trap = TrapModel(trap_frequency=TWO_PI * 300.0, theta0=3.0 * DEG)
        freqs, _ = scan_window(params, orientation, trap, 0.13, "lower", 120 * MHZ, 7)
        return params, trap, _axial_field(orientation, 0.13), drive_at(freqs, 0.2e6), (0,)

    def four_class_pair(self, params, orientation):
        # the README 180 mT recipe with all four classes, shortened
        trap = TrapModel(trap_frequency=TWO_PI * 500.0, theta0=3.0 * DEG)
        return (params, trap, _axial_field(orientation, 0.18),
                drive_at(np.linspace(2.1e9, 2.25e9, 9), 6e6), (0, 1, 2, 3))

    def test_no_batch_is_solved_twice(self, params, orientation, monkeypatch):
        keys = count_torque_batches(monkeypatch)
        for case in (self.fold_pair, self.linear_pair, self.four_class_pair):
            p, trap, field, drive, classes = case(params, orientation)
            keys.clear()
            up, down = hysteresis_pair(p, orientation, trap, field, drive, classes)
            assert len(set(keys)) == len(keys), case.__name__
            # the points alone requested more batches than the pair solved
            requested = sum(point.iterations for s in (up, down) for point in s.points)
            assert len(keys) < requested, case.__name__

    def test_linear_down_sweep_solves_nothing_new(self, params, orientation, monkeypatch):
        keys = count_torque_batches(monkeypatch)
        p, trap, field, drive, classes = self.linear_pair(params, orientation)
        mdmr_scan(p, orientation, trap, field, drive, classes)
        up_keys = list(keys)
        keys.clear()
        _, down = hysteresis_pair(p, orientation, trap, field, drive, classes)
        assert keys == up_keys
        assert all(point.iterations > 0 for point in down.points)

    def test_each_tilt_batch_builds_its_half_once(self, params, orientation, monkeypatch):
        # the frequency-independent half is held per tilt batch: a window
        # that a later frequency scans again reuses it
        built = []
        original = mdmr._tilt_half

        def counting(params, geom, thetas, classes):
            built.append(thetas.tobytes())
            return original(params, geom, thetas, classes)

        monkeypatch.setattr(mdmr, "_tilt_half", counting)
        keys = count_torque_batches(monkeypatch)
        for case in (self.fold_pair, self.linear_pair, self.four_class_pair):
            p, trap, field, drive, classes = case(params, orientation)
            built.clear()
            keys.clear()
            hysteresis_pair(p, orientation, trap, field, drive, classes)
            assert len(set(built)) == len(built), case.__name__
            assert set(built) == {tilts for _, _, tilts in keys}, case.__name__
            assert len(built) < len(keys), case.__name__

    def test_no_one_tilt_half_is_held(self, params, orientation):
        # a one-tilt Brent step never recurs, so only the scan windows keep
        # their tilt halves; the torque memo still holds every batch
        for case in (self.fold_pair, self.linear_pair, self.four_class_pair):
            p, trap, field, drive, classes = case(params, orientation)
            memo = {}
            for sweep in (drive, drive.reversed()):
                mdmr_scan(p, orientation, trap, field, sweep, classes, memo=memo)
            (_, tilts, torques), = memo.values()
            sizes = lambda keys: [len(np.frombuffer(k)) for k in keys]
            assert tilts and min(sizes(tilts)) > 1, case.__name__
            assert min(sizes(key for key, _, _ in torques)) == 1, case.__name__

    @pytest.mark.parametrize("case", ["fold_pair", "four_class_pair"])
    def test_pair_matches_independent_scans(self, params, orientation, case):
        p, trap, field, drive, classes = getattr(self, case)(params, orientation)
        up, down = hysteresis_pair(p, orientation, trap, field, drive, classes)
        assert_same_spectrum(up, mdmr_scan(p, orientation, trap, field, drive, classes))
        assert_same_spectrum(down, mdmr_scan(p, orientation, trap, field, drive.reversed(),
                                             classes))
        if case == "fold_pair":  # bistable: the two directions part at the jump
            assert np.max(np.abs(up.delta_theta - down.delta_theta[::-1])) > 1.0 * DEG


def public_driven_torque(params, geom, trap, drive, frequency_hz, thetas, classes):
    """The driven total torque composed of the public solves: each class
    point at its in-plane field (|b_perp|, 0, b_z), with the drive of
    microwave_superoperator along S_x, one steady_state_batch, and the
    moment rotated back by the azimuth of b_perp."""
    b, db = geom.field_and_derivative(thetas)
    fields = _class_fields(b, classes)
    bx, by, bz = np.moveaxis(fields, -1, 0)
    inplane = np.stack([np.hypot(bx, by), np.zeros_like(bz), bz], axis=-1).reshape(-1, 3)
    rhos = steady_state_batch(params, inplane,
                              microwave_superoperator(params, inplane, frequency_hz, drive))
    m = -HBAR * params.gyromagnetic_ratio * spin_expectation(rhos).reshape(fields.shape)
    mx, my, mz = np.moveaxis(m, -1, 0)
    alpha = np.arctan2(by, bx)
    cos, sin = np.cos(alpha), np.sin(alpha)
    moments = np.stack([cos * mx - sin * my, sin * mx + cos * my, mz], axis=-1)
    spin = params.n_spins_per_class * sum(
        _dot3(moments, _class_fields(db, classes)))
    return spin - trap.stiffness * (thetas - trap.theta0)


class TestTiltHalf:
    """A driven-torque batch is a tilt half and a frequency half: a held
    tilt half serves every frequency, bitwise a fresh one and the public
    composition."""

    @pytest.mark.parametrize("classes", [(0,), (0, 1, 2, 3)])
    @pytest.mark.parametrize("k", [1, 17])
    def test_held_half_is_the_fresh_half_and_the_public_path(self, params, trap, k, classes):
        geom = TiltGeometry(b_mag=0.12, phi=0.3)
        thetas = np.linspace(0.0, 0.8, k)  # theta = 0 is the gimbal of class 0
        drive = drive_at([2.0e9, 2.1e9, 2.2e9], 8e6)
        held = _tilt_half(params, geom, thetas, classes)
        for freq in drive.frequencies:  # the held half serves every frequency
            tau = _driven_total_torque(params, held, trap, drive.rabi_rate, freq, thetas)
            fresh = _tilt_half(params, geom, thetas, classes)
            assert np.array_equal(
                tau, _driven_total_torque(params, fresh, trap, drive.rabi_rate, freq, thetas))
            assert np.array_equal(
                tau, public_driven_torque(params, geom, trap, drive, freq, thetas, classes))


class TestBaseline:
    """The microwave-off baseline is the equilibrium_angle solve."""

    @pytest.mark.parametrize("classes", [(0,), (0, 1, 2, 3)])
    def test_baseline_is_equilibrium_angle(self, params, orientation, trap, classes):
        field = _axial_field(orientation, 0.18)
        spec = mdmr_scan(params, orientation, trap, field,
                         drive_at(np.linspace(2.1e9, 2.25e9, 3), 6e6), classes)
        eq = equilibrium_angle(params, orientation, trap, field, classes=classes)
        assert spec.baseline_theta == eq.theta

    def test_zero_drive_solves_nothing_past_baseline(self, params, orientation, trap,
                                                      monkeypatch):
        keys = count_torque_batches(monkeypatch)
        spec = mdmr_scan(params, orientation, trap, _axial_field(orientation, 0.023),
                         drive_at(np.linspace(2.0e9, 2.5e9, 7), rabi_hz=0.0))
        assert keys == []
        assert all(p.delta_theta == 0.0 and p.iterations == 0 and p.converged
                   for p in spec.points)
        assert all(p.theta == spec.baseline_theta for p in spec.points)

    def test_pair_solves_baseline_once(self, params, orientation, trap, monkeypatch):
        calls = []
        original = mdmr.equilibrium_angle

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(mdmr, "equilibrium_angle", counting)
        up, down = hysteresis_pair(params, orientation, trap, _axial_field(orientation, 0.18),
                                   drive_at(np.linspace(2.1e9, 2.25e9, 3), 6e6), classes=(0,))
        assert len(calls) == 1
        assert up.baseline_theta == down.baseline_theta
