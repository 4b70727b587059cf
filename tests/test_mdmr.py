"""Microwave-driven steady states, resonance scans and hysteresis."""

import ast
from pathlib import Path

import numpy as np
import pytest

from nvspinmech import (NV_AXES, MicrowaveDrive, SpinParams, TiltGeometry, TrapModel,
                        equilibrium_angle, hysteresis_pair, mdmr_scan, tilt_geometry,
                        microwave_superoperator, sharp_edge_side, spin_expectation,
                        steady_state, steady_state_batch, zero_connected_lines)
from nvspinmech.constants import HBAR
from nvspinmech.spincore import (SX, _coordinates, _drive_generator, _eigenbasis,
                                 _hamiltonian_batch, _structure)
from nvspinmech.crystal import transverse_reference
from nvspinmech import mdmr, mechanics, roots, spincore
from nvspinmech.mechanics import (ALL_CLASSES, axial_field, _class_fields, _dot3,
                                  _torque_scale)
from scipy.optimize import brentq

from conftest import coherence_basis, inplane_frame, kron_jump_sum

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
    bc = geom.field_and_derivative(eq.theta)[0, 0]
    axis = NV_AXES[0]
    bz = float(bc @ axis)
    perp = float(np.linalg.norm(bc - bz * axis))
    lines = zero_connected_lines(params, (perp, 0.0, bz))
    center = lines[0] if line == "lower" else lines[1]
    return np.linspace(center - span_hz / 2, center + span_hz / 2, n), center


def driven_torque(params, geom, trap, rabi_rate, freqs, thetas, classes):
    """The total torque an MDMR scan roots: the driven torque of the kernel
    ``mechanics._tilt_torques``, each tilt at its drive frequency ``freqs``
    (Hz; one, or one per tilt), minus the trap torque."""
    spin, _ = mechanics._tilt_torques(params, geom, thetas, classes, None, False,
                                      (rabi_rate, freqs))
    return spin - trap.stiffness * (np.asarray(thetas, dtype=float) - trap.theta0)


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
        # the class-batched driven torque with a per-point drive stack equals
        # that of one driven steady state per class in a frame built point
        # by point, including the theta = 0 gimbal of the tracked class
        geom = TiltGeometry(b_mag=0.12, phi=0.3)
        thetas = np.array([0.0, 0.05, 0.4, 1.2])
        classes = (0, 1, 2, 3)
        drive = drive_at([2.1e9], 8e6)
        free = TrapModel(trap_frequency=0.0)
        taus = driven_torque(params, geom, free, drive.rabi_rate, 2.1e9, thetas, classes)
        for theta, tau in zip(thetas, taus):
            b, db = geom.field_and_derivative(theta)[:, 0]
            terms, scale = [], 0.0
            for c in classes:
                axis = NV_AXES[c]
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
                terms.append(params.n_spins_per_class * float(ref @ db))
                scale += params.n_spins_per_class * np.linalg.norm(ref) * np.linalg.norm(db)
            assert abs(tau - sum(terms)) <= 1e-12 * scale, theta


def _drive_build_fields(params):
    """NV-frame fields of three kinds: the random ones of
    test_matches_kron_jump_sum_at_random_fields, the in-plane class fields
    at the theta = 0 gimbal of the tracked class, and the on-axis level
    crossing B = D/gamma_e."""
    random = np.random.default_rng(11).normal(scale=0.08, size=(40, 3))
    b = _class_fields(TiltGeometry(b_mag=0.12, phi=0.3).field_and_derivative([0.0]),
                      (0, 1, 2, 3))[0][:, 0]
    gimbal = np.stack([np.hypot(b[:, 0], b[:, 1]), np.zeros(4), b[:, 2]], axis=1)
    crossing = [[0.0, 0.0, params.zero_field_splitting / params.gyromagnetic_ratio]]
    return {"random": random, "gimbal": gimbal, "crossing": np.array(crossing)}


def _per_point_error(value, ref):
    """max |value - ref| / max |ref| of each point, the worst point."""
    axes = tuple(range(1, ref.ndim))
    return float(np.max(np.abs(value - ref).max(axis=axes) / np.abs(ref).max(axis=axes)))


class TestDriveBuild:
    """The drive generator is built from the eigenvector components; each
    part equals the definition it replaced, written out here, to 1e-15 of
    its largest entry at every point."""

    @pytest.mark.parametrize("kind", ["random", "gimbal", "crossing"])
    def test_parts_match_their_definitions(self, params, kind):
        b = _drive_build_fields(params)[kind]
        _, vecs = np.linalg.eigh(HBAR * _hamiltonian_batch(params, b))
        vecs_h = np.conj(np.swapaxes(vecs, 1, 2))
        gaps, weight, proj = _eigenbasis(params, b)
        # w_ab = 2|<a|Sx|b>|^2 off the diagonal
        weight_ref = 2.0 * np.abs(vecs_h @ SX @ vecs) ** 2 * (1.0 - np.eye(3))
        assert _per_point_error(weight, weight_ref) <= 1e-15
        # column a of P: the coordinates of |v_a><v_a|
        proj_ref = _coordinates(np.einsum("kpa,kqa->kapq", vecs, np.conj(vecs)))  # (k, a, 9)
        assert _per_point_error(np.swapaxes(proj, 1, 2), proj_ref) <= 1e-15
        # G = V diag(s) V^+ has the coordinates P s
        s = np.random.default_rng(3).uniform(0.0, 1e6, size=(len(b), 3))
        assert _per_point_error((proj @ s[:, :, None])[:, :, 0],
                                _coordinates((vecs * s[:, None, :]) @ vecs_h)) <= 1e-15
        # and the generator of these parts is the one of the definitions
        for freq, rabi in ((2.2e9, 3e6), (3.1e9, 20e6), (0.5e9, 1e6)):
            rabi_rate = TWO_PI * rabi
            delta = TWO_PI * freq - gaps
            rates = (0.5 * rabi_rate**2 * weight_ref * params.gamma2_star
                     / (delta**2 + params.gamma2_star**2))
            g = _coordinates((vecs * rates.sum(axis=1)[:, None, :]) @ vecs_h)
            ref = (np.swapaxes(proj_ref, 1, 2) @ rates @ proj_ref
                   - 0.5 * np.einsum("kj,jab->kab", g, _structure()[1]))
            gen = _drive_generator(params, b, rabi_rate, freq)
            assert _per_point_error(gen, ref) <= 1e-15, freq


_BARE_ZERO = np.array([0.0, 1.0, 0.0])  # |m_s = 0> in the (+1, 0, -1) basis


def lines_by_own_eigh(params, b_nv):
    """The route :func:`zero_connected_lines` replaced, written out: its own
    eigh of hbar * H at one field and the argmax of the |0> overlap."""
    h = HBAR * _hamiltonian_batch(params, np.asarray(b_nv, dtype=float)[None])[0]
    vals, vecs = np.linalg.eigh(h)
    k0 = int(np.argmax(np.abs(_BARE_ZERO @ vecs) ** 2))
    freqs = sorted(abs(vals[k] - vals[k0]) / HBAR / (2.0 * np.pi) for k in range(3) if k != k0)
    return float(freqs[0]), float(freqs[1])


def line_fields(params):
    """1264 NV-frame fields: random ones, ones from 1e-5 to 3 T, those of
    the drive build, the class fields of the theta = 0 gimbal as mdmr_scan
    reads them, the on-axis crossings of either sign and zero field."""
    rng = np.random.default_rng(17)
    crossing = params.zero_field_splitting / params.gyromagnetic_ratio
    gimbal = [_class_fields(TiltGeometry(b_mag=b, phi=0.0).field_and_derivative([0.0]),
                            ALL_CLASSES)[0][:, 0] for b in (0.023, 0.1024, crossing, 0.18)]
    return np.concatenate([
        rng.normal(scale=0.08, size=(1000, 3)),
        rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-5.0, 0.5, size=(200, 1)),
        *_drive_build_fields(params).values(), *gimbal,
        [[0.0, 0.0, crossing], [0.0, 0.0, -crossing], [0.0, 0.0, 0.0]]])


class TestZeroConnectedLines:
    """The |0>-connected lines are read from the drive's eigenbasis (level
    gaps and row 1 of the projector block), bitwise the route of their own
    eigh, one field at a time or a stack at once."""

    def test_bitwise_the_own_eigh_route(self, params):
        for b in line_fields(params):
            assert zero_connected_lines(params, b) == lines_by_own_eigh(params, b), b

    def test_stack_is_bitwise_the_per_field_calls(self, params):
        fields = line_fields(params)
        assert len(fields) == 1264
        lines = zero_connected_lines(params, fields)
        assert lines.shape == (1264, 2)
        assert lines.tobytes() == np.array([zero_connected_lines(params, b)
                                            for b in fields]).tobytes()

    def test_one_call_per_scan(self, params, orientation, trap, monkeypatch):
        # the class lines of a scan are one stacked call at the baseline
        # tilt, each row the bits of its class field alone
        calls = []
        original = mdmr.zero_connected_lines
        monkeypatch.setattr(mdmr, "zero_connected_lines",
                            lambda p, b: calls.append(np.shape(b)) or original(p, b))
        field = axial_field(orientation, 0.18)
        spec = mdmr_scan(params, orientation, trap, field, drive_at([2.1e9, 2.2e9], 6e6))
        assert calls == [(4, 3)]
        b = tilt_geometry(orientation, field).field_and_derivative(spec.baseline_theta)[0]
        alone = [zero_connected_lines(params, f) for f in _class_fields(b, ALL_CLASSES)[:, 0]]
        assert spec.class_lines_hz.tobytes() == np.array(alone).tobytes()

    def test_crossing_and_zero_field(self, params):
        d_hz = params.zero_field_splitting / TWO_PI
        crossing = params.zero_field_splitting / params.gyromagnetic_ratio
        assert zero_connected_lines(params, (0.0, 0.0, 0.0)) == pytest.approx((d_hz, d_hz),
                                                                              rel=1e-15)
        lower, upper = zero_connected_lines(params, (0.0, 0.0, crossing))
        assert lower == pytest.approx(0.0, abs=1e-6 * d_hz)
        assert upper == pytest.approx(2.0 * d_hz, rel=1e-12)


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

    @pytest.mark.parametrize("classes", [(), (0, 0), (-1,), (5,)])
    def test_invalid_classes_rejected(self, params, orientation, trap, classes):
        with pytest.raises(ValueError, match="classes"):
            mdmr_scan(params, orientation, trap, axial_field(orientation, 0.02),
                      drive_at([2.0e9], 1e6), classes)

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
            thetas = np.array([point.theta - 1e-4, point.theta + 1e-4])
            lower, upper = driven_torque(p, geom, trap, spec.drive.rabi_rate,
                                         point.frequency_hz, thetas, (0,))
            assert lower > 0.0 > upper, point
            assert abs(point.theta - previous) < 0.08, point
            previous = point.theta
        assert spec.points[-1].theta > 0.6


def count_torque_points(monkeypatch):
    """Record (rabi rate, frequency, tilt) of every tilt of every
    driven-torque batch; within one pair the other inputs are fixed."""
    keys = []
    original = mdmr._tilt_torques

    def counting(params, geom, thetas, classes, rows, slope, drive):
        rabi_rate, freqs = drive
        thetas = np.atleast_1d(thetas)
        keys.extend((rabi_rate, float(f), float(t))
                    for f, t in zip(np.broadcast_to(freqs, thetas.shape), thetas))
        return original(params, geom, thetas, classes, rows, slope, drive)

    monkeypatch.setattr(mdmr, "_tilt_torques", counting)
    return keys


def assert_same_spectrum(spec, ref):
    assert spec.drive == ref.drive
    assert repr((spec.baseline_theta, spec.points)) == repr((ref.baseline_theta, ref.points))
    assert np.array_equal(spec.class_lines_hz, ref.class_lines_hz)


def serial_points(params, orientation, trap, field, drive, classes):
    """The scan as a point-by-point loop: each point one row of
    ``roots._stable_roots`` warm-started from the last bound tilt, and
    with the drive off the baseline after 0 evaluations."""
    geom = tilt_geometry(orientation, field)
    baseline = equilibrium_angle(params, orientation, trap, field, classes=classes).theta
    scale = _torque_scale(params, geom.b_mag)
    points, theta = [], baseline
    for freq in drive.frequencies:
        def torque(rows, thetas):
            return driven_torque(params, geom, trap, drive.rabi_rate, freq, thetas, classes)

        root, evals = ((baseline, 0) if drive.rabi_rate == 0.0
                       else roots._stable_roots(brentq, torque, [theta], [scale])[0])
        theta = theta if root is None else root
        points.append(mdmr.MdmrPoint(frequency_hz=float(freq), theta=theta,
                                     delta_theta=theta - baseline, converged=root is not None,
                                     iterations=evals))
    return tuple(points)


class TestPairMemo:
    """A scan is solved in waves, bitwise the point-by-point loop; a
    hysteresis pair evaluates each (frequency, tilt) once, and its spectra
    are bitwise those of two independent scans."""

    def fold_pair(self, params, orientation):
        # acceptance criterion 7 below the crossing, upper line, 13 points
        p = SpinParams(gamma2_star=TWO_PI * 1e6)
        trap = TrapModel(trap_frequency=TWO_PI * 120.0, theta0=10.0 * DEG)
        freqs, _ = scan_window(p, orientation, trap, 0.023, "upper", 60 * MHZ, 13)
        return p, trap, axial_field(orientation, 0.023), drive_at(freqs, 2e6), (0,)

    def linear_pair(self, params, orientation):
        trap = TrapModel(trap_frequency=TWO_PI * 300.0, theta0=3.0 * DEG)
        freqs, _ = scan_window(params, orientation, trap, 0.13, "lower", 120 * MHZ, 7)
        return params, trap, axial_field(orientation, 0.13), drive_at(freqs, 0.2e6), (0,)

    def four_class_pair(self, params, orientation):
        # the README 180 mT recipe with all four classes, shortened
        trap = TrapModel(trap_frequency=TWO_PI * 500.0, theta0=3.0 * DEG)
        return (params, trap, axial_field(orientation, 0.18),
                drive_at(np.linspace(2.1e9, 2.25e9, 9), 6e6), (0, 1, 2, 3))

    def zero_drive_pair(self, params, orientation):
        trap = TrapModel(trap_frequency=TWO_PI * 500.0, theta0=3.0 * DEG)
        return (params, trap, axial_field(orientation, 0.023),
                drive_at(np.linspace(2.0e9, 2.5e9, 7), 0.0), (0,))

    @pytest.mark.parametrize("case", ["fold_pair", "linear_pair", "four_class_pair",
                                      "zero_drive_pair"])
    def test_scan_is_the_serial_loop(self, params, orientation, case):
        p, trap, field, drive, classes = getattr(self, case)(params, orientation)
        for sweep in (drive, drive.reversed()):
            spec = mdmr_scan(p, orientation, trap, field, sweep, classes)
            assert repr(spec.points) == repr(serial_points(p, orientation, trap, field, sweep,
                                                           classes))

    def test_no_batch_is_solved_twice(self, params, orientation, monkeypatch):
        # no (frequency, tilt) of a pair is evaluated twice, in any batch
        keys = count_torque_points(monkeypatch)
        for case in (self.fold_pair, self.linear_pair, self.four_class_pair):
            p, trap, field, drive, classes = case(params, orientation)
            keys.clear()
            hysteresis_pair(p, orientation, trap, field, drive, classes)
            assert keys and len(set(keys)) == len(keys), case.__name__

    def test_linear_down_sweep_solves_nothing_new(self, params, orientation, monkeypatch):
        keys = count_torque_points(monkeypatch)
        p, trap, field, drive, classes = self.linear_pair(params, orientation)
        mdmr_scan(p, orientation, trap, field, drive, classes)
        up_keys = list(keys)
        keys.clear()
        _, down = hysteresis_pair(p, orientation, trap, field, drive, classes)
        assert keys == up_keys
        assert all(point.iterations > 0 for point in down.points)

    def test_no_driven_solve_exceeds_the_slice(self, params, orientation, monkeypatch):
        # a wave asks for hundreds of class points at once (459 here: at
        # phi = 0 classes 2 and 3 share a solve, so 3 per tilt); the driven
        # solves share the undriven ones' cap of _MAX_BATCH systems
        sizes, solves, driving = [], [], []
        original_torque, original_solve = mdmr._tilt_torques, spincore._steady_vectors

        def torque(params, geom, thetas, classes, *rest):
            sizes.append((len(classes) - 1) * len(np.atleast_1d(thetas)))  # 4 classes, 3 solves
            driving.append(True)
            try:
                return original_torque(params, geom, thetas, classes, *rest)
            finally:
                driving.pop()

        def solve(gen, *args):
            if driving:  # not the microwave-off baseline's solves
                solves.append(len(gen))
            return original_solve(gen, *args)

        monkeypatch.setattr(mdmr, "_tilt_torques", torque)
        monkeypatch.setattr(spincore, "_steady_vectors", solve)
        p, trap, field, drive, classes = self.four_class_pair(params, orientation)
        hysteresis_pair(p, orientation, trap, field, drive, classes)
        assert max(sizes) > spincore._MAX_BATCH
        assert max(solves) <= spincore._MAX_BATCH
        assert sum(solves) == sum(sizes)

    @pytest.mark.parametrize("case", ["fold_pair", "four_class_pair"])
    def test_pair_matches_independent_scans(self, params, orientation, case):
        p, trap, field, drive, classes = getattr(self, case)(params, orientation)
        up, down = hysteresis_pair(p, orientation, trap, field, drive, classes)
        assert_same_spectrum(up, mdmr_scan(p, orientation, trap, field, drive, classes))
        assert_same_spectrum(down, mdmr_scan(p, orientation, trap, field, drive.reversed(),
                                             classes))
        if case == "fold_pair":  # bistable: the two directions part at the jump
            assert np.max(np.abs(up.delta_theta - down.delta_theta[::-1])) > 1.0 * DEG


def mirror_shared(moments, geom, classes):
    """Class 3 given class 2's moment, as the kernel gives it at phi = 0."""
    if geom.phi == 0.0 and 2 in classes and 3 in classes:
        moments[classes.index(3)] = moments[classes.index(2)]
    return moments


def public_driven_torque(params, geom, trap, drive, frequency_hz, thetas, classes):
    """The driven total torque composed of the public solves: each class
    point at its in-plane field (|b_perp|, 0, b_z), with the drive of
    microwave_superoperator along S_x, one steady_state_batch, <S> from
    spin_expectation, and db/dtheta turned into the same frame."""
    b, db = geom.field_and_derivative(thetas)
    fields, dfields = inplane_frame(_class_fields(b, classes), _class_fields(db, classes))
    inplane = fields.reshape(-1, 3)
    rhos = steady_state_batch(params, inplane,
                              microwave_superoperator(params, inplane, frequency_hz, drive))
    m = -HBAR * params.gyromagnetic_ratio * spin_expectation(rhos).reshape(fields.shape)
    spin = params.n_spins_per_class * sum(_dot3(mirror_shared(m, geom, classes), dfields))
    return spin - trap.stiffness * (thetas - trap.theta0)


class TestDrivenTorque:
    """A driven-torque batch may mix frequencies: each tilt gets the bits
    it has alone at its frequency.  The public composition reads <S>
    through the density matrix, which rounds each component by at most
    3 eps (|r_a| + |r_b|) <= 3 sqrt(2) eps of a full spin, so the torques
    agree to 1e-14 of _torque_scale (measured 4.4e-17)."""

    @pytest.mark.parametrize("classes", [(0,), (0, 1, 2, 3)])
    @pytest.mark.parametrize("k", [1, 17])
    def test_mixed_batch_is_each_tilt_alone_and_the_public_path(self, params, trap, k,
                                                                classes):
        geom = TiltGeometry(b_mag=0.12, phi=0.3)
        thetas = np.linspace(0.0, 0.8, k)  # theta = 0 is the gimbal of class 0
        drive = drive_at([2.0e9, 2.1e9, 2.2e9], 8e6)
        freqs = np.resize(drive.frequencies, k)  # the sweep's frequencies in turn
        mixed = driven_torque(params, geom, trap, drive.rabi_rate, freqs, thetas, classes)
        for freq, theta, tau in zip(freqs, thetas, mixed):
            alone = driven_torque(params, geom, trap, drive.rabi_rate, freq, [theta], classes)
            assert alone.tobytes() == tau.tobytes()
        scale = _torque_scale(params, geom.b_mag)
        for freq in drive.frequencies:
            at = freqs == freq
            public = public_driven_torque(params, geom, trap, drive, freq, thetas[at], classes)
            assert np.all(np.abs(mixed[at] - public) <= 1e-14 * scale)


def sliced_driven_torque(params, geom, trap, rabi_rate, freqs, thetas, classes):
    """The reference driven total torque: slices of 64 // n tilts (64 class
    points), each the undriven generators plus the drive generators at the
    in-plane fields, one _steady_vectors, then class 2's moment for class 3
    at phi = 0 and the torque along db/dtheta turned into the same frame."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    b, db = geom.field_and_derivative(thetas)
    fields, dfields = inplane_frame(_class_fields(b, classes), _class_fields(db, classes))
    n, k = fields.shape[:2]
    freqs = np.broadcast_to(np.asarray(freqs, dtype=float), (n, k))
    moments = np.empty_like(fields)
    step = 64 // n
    for s in (slice(i, i + step) for i in range(0, k, step)):
        inplane = fields[:, s].reshape(-1, 3)
        gen = (spincore._generators(*spincore._generator_parts(params), inplane)
               + _drive_generator(params, inplane, rabi_rate, freqs[:, s].reshape(-1)))
        r, _ = spincore._steady_vectors(gen)
        moments[:, s] = (-HBAR * params.gyromagnetic_ratio
                         * spincore._moments(r)).reshape(fields[:, s].shape)
    spin = params.n_spins_per_class * sum(_dot3(mirror_shared(moments, geom, classes), dfields))
    return spin - trap.stiffness * (thetas - trap.theta0)


class TestSharedSolve:
    """The driven torque, solved through spincore's one solve and its
    _MAX_BATCH slices, is bitwise the torque solved in 64-point slices."""

    @pytest.fixture
    def geom(self, orientation):
        return tilt_geometry(orientation, axial_field(orientation, 0.18))

    def assert_is_the_sliced_torque(self, params, geom, trap, freqs, thetas, classes):
        rabi = TWO_PI * 6e6
        shared = driven_torque(params, geom, trap, rabi, freqs, thetas, classes)
        reference = sliced_driven_torque(params, geom, trap, rabi, freqs, thetas, classes)
        assert shared.tobytes() == reference.tobytes()

    def test_wave_beyond_the_cap(self, params, geom, trap):
        thetas = np.linspace(-0.4, 0.6, 153)
        assert 3 * len(thetas) > spincore._MAX_BATCH  # sliced by the shared cap
        self.assert_is_the_sliced_torque(params, geom, trap, np.linspace(2.1e9, 2.25e9, 153),
                                         thetas, ALL_CLASSES)

    @pytest.mark.parametrize("classes", [(0,), (2,), ALL_CLASSES])
    def test_single_tilts(self, params, geom, trap, classes):
        for theta, freq in zip([-0.3, 0.02, 0.7], [2.1e9, 2.2e9, 2.25e9]):
            self.assert_is_the_sliced_torque(params, geom, trap, freq, [theta], classes)

    def test_gimbal(self, params, geom, trap):
        # at theta = 0 class 0's field is along its axis: b_perp = 0, (c, s) = (1, 0)
        fields = _class_fields(geom.field_and_derivative(np.zeros(1))[0], ALL_CLASSES)
        assert not fields[0, 0, :2].any()
        self.assert_is_the_sliced_torque(params, geom, trap, 2.2e9, [0.0], ALL_CLASSES)


class TestBaseline:
    """The microwave-off baseline is the equilibrium_angle solve."""

    @pytest.mark.parametrize("classes", [(0,), (0, 1, 2, 3)])
    def test_baseline_is_equilibrium_angle(self, params, orientation, trap, classes):
        field = axial_field(orientation, 0.18)
        spec = mdmr_scan(params, orientation, trap, field,
                         drive_at(np.linspace(2.1e9, 2.25e9, 3), 6e6), classes)
        eq = equilibrium_angle(params, orientation, trap, field, classes=classes)
        assert spec.baseline_theta == eq.theta

    def test_zero_drive_solves_nothing_past_baseline(self, params, orientation, trap,
                                                      monkeypatch):
        keys = count_torque_points(monkeypatch)
        spec = mdmr_scan(params, orientation, trap, axial_field(orientation, 0.023),
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
        up, down = hysteresis_pair(params, orientation, trap, axial_field(orientation, 0.18),
                                   drive_at(np.linspace(2.1e9, 2.25e9, 3), 6e6), classes=(0,))
        assert len(calls) == 1
        assert up.baseline_theta == down.baseline_theta


class TestMdmrModule:
    def test_no_frame_arithmetic(self):
        # the torque kernel of mechanics owns the in-plane frame and the
        # torque sum: mdmr imports neither _dot3 nor does any rotation
        tree = ast.parse(Path(mdmr.__file__).read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "_dot3" not in imported
        assert not {"hypot", "arctan2", "cos", "sin"} & (names | imported)
