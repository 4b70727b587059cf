"""Torques, energy landscapes, equilibrium orientation and libration."""

import numpy as np
import pytest
from scipy.optimize import brentq

from nvspinmech import (SpinParams, TrapModel,
                        equilibrium_angle, critical_field, field_rotation_sweep,
                        landscape_curl_check, librational_frequency,
                        linear_torque_coefficient, magnetic_energy_landscape,
                        spin_torque, tilt_geometry, tilt_torque, tilt_torque_batch,
                        RangeExhaustedError)
from nvspinmech import mdmr, mechanics
from nvspinmech.constants import KB
from nvspinmech.mechanics import TiltGeometry, _integrate_torque, _stable_bracket

from conftest import axial_field

TWO_PI = 2.0 * np.pi
DEG = np.pi / 180.0


class TestSpinTorque:
    def test_aligned_axial_field_gives_zero(self, params, orientation):
        b = axial_field(orientation, 0.12)
        tau = spin_torque(params, orientation, b, classes=(0,))
        assert np.allclose(tau, 0.0, atol=1e-24)

    def test_linear_regime_matches_susceptibility(self, params, orientation):
        # dispersive point, small tilt: tau = (V/mu0) chi_perp B^2 theta
        b0, theta = 0.12, 0.5 * DEG
        geom = tilt_geometry(orientation, axial_field(orientation, b0))
        tau = tilt_torque(params, geom, theta, classes=(0,))
        expected = linear_torque_coefficient(params, b0) * theta
        assert tau == pytest.approx(expected, rel=1e-2)

    def test_restoring_past_crossing(self, params, orientation):
        # pumped ensemble past the level crossing: d(tau)/d(theta) < 0 at 0
        geom = tilt_geometry(orientation, axial_field(orientation, 0.13))
        h = 1e-4
        taus = tilt_torque_batch(params, geom, [-h, h], classes=(0,))
        assert (taus[1] - taus[0]) / (2 * h) < 0.0

    def test_anti_restoring_before_crossing(self, params, orientation):
        geom = tilt_geometry(orientation, axial_field(orientation, 0.05))
        h = 1e-4
        taus = tilt_torque_batch(params, geom, [-h, h], classes=(0,))
        assert (taus[1] - taus[0]) / (2 * h) > 0.0

    def test_four_class_torque_vector_cancels_when_aligned(self, params, orientation):
        # C3 symmetry about the aligned axis: transverse components cancel
        tau = spin_torque(params, orientation, axial_field(orientation, 0.13))
        scale = params.n_spins_per_class * 2e-23 * 0.13
        assert np.linalg.norm(tau) < 1e-9 * scale


class TestEnergyLandscape:
    def test_minimum_at_alignment_past_crossing(self, params, orientation):
        p = params.with_(n_spins_per_class=2.5e8)
        thetas = np.linspace(-1.0, 1.0, 11)
        phis = np.linspace(0.0, TWO_PI, 4)
        scape = magnetic_energy_landscape(p, orientation,
                                          axial_field(orientation, 0.11),
                                          thetas, phis)
        i0 = np.argmin(np.abs(thetas))
        assert np.all(scape.energy >= scape.energy[i0, :].max() - 1e-25)

    def test_depth_far_exceeds_thermal_energy(self, params, orientation):
        # 1e9 spins total at 0.11 T
        p = params.with_(n_spins_per_class=2.5e8)
        thetas = np.linspace(0.0, 1.0, 9)
        scape = magnetic_energy_landscape(p, orientation,
                                          axial_field(orientation, 0.11),
                                          thetas, np.array([0.0]))
        assert scape.depth > 100.0 * KB * 300.0

    def test_three_fold_azimuthal_period(self, params, orientation):
        thetas = np.linspace(0.0, 0.9, 7)
        phis = np.array([0.4, 0.4 + TWO_PI / 3.0])
        scape = magnetic_energy_landscape(params, orientation,
                                          axial_field(orientation, 0.11),
                                          thetas, phis)
        scale = np.max(np.abs(scape.energy))
        assert np.max(np.abs(scape.energy[:, 0] - scape.energy[:, 1])) < 1e-9 * scale

    def test_single_class_azimuth_independent(self, params, orientation):
        thetas = np.linspace(0.0, 0.9, 6)
        phis = np.array([0.3, 1.7, 4.0])
        scape = magnetic_energy_landscape(params, orientation,
                                          axial_field(orientation, 0.11),
                                          thetas, phis, classes=(0,))
        scale = np.max(np.abs(scape.energy))
        spread = scape.energy.max(axis=1) - scape.energy.min(axis=1)
        assert np.max(spread) < 1e-9 * scale

    def test_asymmetric_in_tilt_at_zero_azimuth(self, params, orientation):
        # the three off-axis classes break the +-theta symmetry at phi = 0
        thetas = np.array([-0.6, -0.3, 0.3, 0.6])
        scape = magnetic_energy_landscape(params, orientation,
                                          axial_field(orientation, 0.11),
                                          thetas, np.array([0.0]))
        u = scape.energy[:, 0]
        assert abs(u[1] - u[2]) > 0.05 * abs(u[2])
        assert abs(u[0] - u[3]) > 0.05 * abs(u[3])

    def test_torque_equals_negative_energy_gradient(self, params, orientation):
        # central differences of the integrated energy against the torque,
        # 100 random samples
        rng = np.random.default_rng(17)
        geoms = {}
        for _ in range(100):
            b0 = float(rng.uniform(0.02, 0.18))
            theta = float(rng.uniform(0.05, 1.3))
            phi = float(rng.uniform(0.0, TWO_PI))
            geom = tilt_geometry(orientation, axial_field(orientation, b0))
            geom = type(geom)(b_mag=geom.b_mag, phi=phi)
            tau = tilt_torque(params, geom, theta)

            def du_dtheta(h):
                up = _integrate_torque(params, geom, theta, theta + h)
                dn = _integrate_torque(params, geom, theta - h, theta)
                return -(up + dn) / (2.0 * h)

            d1, d2 = du_dtheta(1e-3), du_dtheta(5e-4)
            grad = (4.0 * d2 - d1) / 3.0
            scale = max(abs(tau), 1e-9 * abs(linear_torque_coefficient(params, b0)))
            assert abs(-grad - tau) <= 1e-6 * scale + 1e-30

    def test_grid_validation(self, params, orientation):
        b = axial_field(orientation, 0.1)
        with pytest.raises(ValueError, match="increasing"):
            magnetic_energy_landscape(params, orientation, b,
                                      np.array([0.2, 0.1]), np.array([0.0]))

    def test_curl_diagnostic_is_small(self, params, orientation):
        rel_curl = landscape_curl_check(params, orientation,
                                        axial_field(orientation, 0.11),
                                        n_samples=4, seed=3)
        assert rel_curl < 0.05

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_curl_diagnostic_needs_a_sample(self, params, orientation, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            landscape_curl_check(params, orientation, axial_field(orientation, 0.11),
                                 n_samples=n_samples)

    def test_quadrature_failure_names_worst_cell(self, params, orientation):
        # an exhausted subdivision budget reports the offending interval
        from nvspinmech import QuadratureError

        geom = tilt_geometry(orientation, axial_field(orientation, 0.103))
        with pytest.raises(QuadratureError, match="worst cell") as exc:
            _integrate_torque(params, geom, 0.0, 1.2, rtol=1e-14, atol=1e-40,
                              max_depth=0)
        lo, hi, phi = exc.value.cell
        assert 0.0 <= lo < hi <= 1.2


class TestTiltGeometry:
    @pytest.mark.parametrize("n", [1, 17, 40, 1000])
    def test_tilt_arrays_match_single_tilts_bitwise(self, n):
        geom = TiltGeometry(b_mag=0.13, phi=0.7)
        thetas = np.random.default_rng(n).uniform(-0.5 * np.pi, np.pi, n)
        for method in (geom.b_crystal, geom.db_dtheta):
            batch = method(thetas)
            assert batch.shape == (n, 3)
            assert np.array_equal(batch, np.array([method(float(t)) for t in thetas]))
            assert method(float(thetas[0])).shape == (3,)

    @pytest.mark.parametrize("n", [2, 9, 17, 40, 81])
    def test_tilt_torque_batches_match_single_tilts_bitwise(self, params, n):
        # field projections, moments and the class sum are term-by-term
        # sums, so no rounding depends on how many tilts share a call
        geom = TiltGeometry(b_mag=0.13, phi=0.7)
        thetas = np.random.default_rng(n).uniform(-0.5 * np.pi, np.pi, n)
        thetas[0] = 0.0
        batch = tilt_torque_batch(params, geom, thetas)
        assert np.array_equal(batch, [tilt_torque(params, geom, t) for t in thetas])


def _cubic(thetas):
    # stable roots at 0.25 and 0.85, unstable root at 0.55 between them
    return -(thetas - 0.25) * (thetas - 0.55) * (thetas - 0.85)


class TestStableBracket:
    grid = np.linspace(0.0, 1.0, 11)

    def test_stable_root_nearest_guess_wins_over_nearer_unstable(self):
        vals = _cubic(self.grid)
        a, b, fa, fb = _stable_bracket(self.grid, vals, 0.6, scale=1.0)
        assert (a, b) == (self.grid[8], self.grid[9])
        assert (fa, fb) == (vals[8], vals[9])
        a, b, _, _ = _stable_bracket(self.grid, vals, 0.5, scale=1.0)
        assert (a, b) == (self.grid[2], self.grid[3])

    def test_no_stable_bracket_gives_none(self):
        assert _stable_bracket(self.grid, self.grid - 0.55, 0.5, scale=1.0) is None
        assert _stable_bracket(self.grid, 1.0 + self.grid, 0.5, scale=1.0) is None

    @pytest.mark.parametrize("noise", [2e-32, -2e-32, 0.0])
    def test_rounding_level_end_value_is_the_root(self, noise):
        vals = np.array([3.0, 2.0, 1.0, noise])
        grid = self.grid[:4]
        assert _stable_bracket(grid, vals, 0.0, scale=1.0) == (grid[2], grid[3], 1.0, 0.0)

    def test_rounding_level_start_value_is_not_positive(self):
        assert _stable_bracket(self.grid[:2], np.array([1e-30, -1.0]), 0.0, scale=1.0) is None

    @staticmethod
    def _flipping_torque(b_end, scale):
        """Torque with a stable root 1e-9 rad below ``b_end`` whose
        single-tilt value at ``b_end`` has the wrong sign, as a last-ulp
        difference of a marginal value would."""
        def torque(thetas):
            thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
            vals = scale * (b_end - 1e-9 - thetas)
            if thetas.size == 1 and thetas[0] == b_end:
                return -vals
            return vals
        return torque

    def test_equilibrium_polish_keeps_scanned_end_values(self, params, orientation,
                                                         monkeypatch):
        field = axial_field(orientation, 0.1)
        scale = mechanics._torque_scale(params, 0.1)
        b_end = 31 * mechanics._STEP
        torque = self._flipping_torque(b_end, scale)
        monkeypatch.setattr(mechanics, "tilt_torque_batch",
                            lambda params, geom, thetas, classes: torque(thetas))
        res = equilibrium_angle(params, orientation, TrapModel(trap_frequency=0.0), field)
        assert res.bound
        assert abs(res.theta - (b_end - 1e-9)) < 1e-9

    def test_mdmr_polish_keeps_scanned_end_values(self, params, orientation, monkeypatch):
        scale = mechanics._torque_scale(params, 0.1)
        b_end = 31 * mechanics._STEP
        torque = self._flipping_torque(b_end, scale)
        monkeypatch.setattr(mdmr, "_driven_total_torque",
                            lambda *args: torque(args[5]))
        drive = mdmr.MicrowaveDrive(rabi_rate=0.0, frequencies=(1e9,))
        spec = mdmr.mdmr_scan(params, orientation, TrapModel(trap_frequency=0.0),
                              axial_field(orientation, 0.1), drive)
        assert abs(spec.baseline_theta - (b_end - 1e-9)) < 1e-10
        assert spec.points[0].converged
        assert abs(spec.points[0].theta - (b_end - 1e-9)) < 1e-10


class TestStableRoot:
    def test_polish_keeps_scanned_end_values(self):
        # a stable root 1e-9 rad below the grid tilt 31 * _STEP whose
        # single-tilt value there has the wrong sign, as a last-ulp
        # difference of a marginal value would
        b_end = 31 * mechanics._STEP

        def torque(thetas):
            thetas = np.asarray(thetas, dtype=float)
            vals = b_end - 1e-9 - thetas
            return -vals if thetas.size == 1 and thetas[0] == b_end else vals

        root, _ = mechanics._stable_root(brentq, torque, 0.3, scale=1.0)
        assert abs(root - (b_end - 1e-9)) < 1e-10

    def test_polish_stops_at_rounding_level_torque(self):
        # within 1e-6 rad of the root the torque is -1e-13 * scale: the
        # secant step lands there, and that first zero is the root (Brent
        # would otherwise converge on the plateau's edge)
        def torque(thetas):
            thetas = np.asarray(thetas, dtype=float)
            return np.where(np.abs(thetas - 0.3) < 1e-6, -1e-13, 0.3 - thetas)

        root, evals = mechanics._stable_root(brentq, torque, 0.3, scale=1.0)
        assert abs(root - 0.3) < 1e-12
        assert evals == 2  # the scan and one polish step

    def test_grid_holds_range_ends_bitwise(self):
        step, k_lo, k_hi = mechanics._STEP, mechanics._K_LO, mechanics._K_HI
        assert (k_lo * step, k_hi * step) == (-0.5 * np.pi, np.pi)
        assert (157 * step, 0 * step) == (0.5 * np.pi, 0.0)

    def test_guess_outside_range_scans_clipped_windows(self):
        # the scan centre is clipped into the grid, so every window holds
        # tilts and the last one is the whole of [-pi/2, pi]
        sizes = []

        def torque(thetas):
            sizes.append(len(thetas))
            return np.ones(len(thetas))

        assert mechanics._stable_root(brentq, torque, 4.0, scale=1.0) == (None, 4)
        assert sizes == [9, 33, 129, 472]


class TestEquilibrium:
    def test_weak_field_stays_at_trap_angle(self, params, orientation, trap):
        res = equilibrium_angle(params, orientation, trap,
                                axial_field(orientation, 0.02))
        assert res.bound
        assert abs(res.theta - trap.theta0) < 1.0 * DEG
        assert res.stability > 0.0

    def test_zero_trap_past_crossing_aligns_exactly(self, params, orientation):
        free = TrapModel(trap_frequency=0.0)
        res = equilibrium_angle(params, orientation, free,
                                axial_field(orientation, 0.13))
        assert res.bound
        assert abs(res.theta) < 1e-6

    def test_residual_is_small(self, params, orientation, trap):
        res = equilibrium_angle(params, orientation, trap,
                                axial_field(orientation, 0.12))
        geom = tilt_geometry(orientation, axial_field(orientation, 0.12))
        taus = tilt_torque_batch(params, geom, np.linspace(0, 0.3, 8))
        assert res.torque_residual < 1e-3 * np.max(np.abs(taus))

    def test_warm_start_follows_branch(self, params, orientation, trap):
        warm = None
        thetas = []
        for b in np.linspace(0.08, 0.13, 6):
            res = equilibrium_angle(params, orientation, trap,
                                    axial_field(orientation, b), warm_start=warm)
            warm = res.theta
            thetas.append(res.theta)
        assert all(np.isfinite(thetas))

    def test_unbound_reported_not_raised(self, params, orientation):
        # a trap angle beyond the searched range [-pi/2, pi]: the trap torque
        # outweighs the spin torque everywhere in it, so no root is stable
        far = TrapModel(trap_frequency=TWO_PI * 500.0, theta0=4.0)
        res = equilibrium_angle(params, orientation, far, axial_field(orientation, 0.13))
        assert not res.bound
        assert np.isnan(res.theta)

    def test_trap_angle_past_right_angle_is_bound(self, params, orientation):
        # the search reaches past pi/2: a trap at 2 rad holds the axis there
        trap = TrapModel(trap_frequency=TWO_PI * 500.0, theta0=2.0)
        res = equilibrium_angle(params, orientation, trap, axial_field(orientation, 0.13))
        assert res.bound
        assert res.stability > 0.0
        assert res.theta == pytest.approx(1.9695, abs=1e-4)


class TestCriticalField:
    def test_zero_trap_matches_crossing_field(self, params, orientation):
        free = TrapModel(trap_frequency=0.0)
        bc = critical_field(params, orientation, free)
        assert bc == pytest.approx(0.1024, abs=1e-3)

    def test_trap_shifts_transition_upward(self, params, orientation):
        trap = TrapModel(trap_frequency=TWO_PI * 500.0, theta0=3.0 * DEG)
        bc = critical_field(params, orientation, trap, b_range=(0.09, 0.16))
        assert bc > 0.1024

    def test_linewidth_does_not_move_crossing(self, params, orientation):
        free = TrapModel(trap_frequency=0.0)
        bc1 = critical_field(params, orientation, free)
        bc2 = critical_field(params.with_(gamma2_star=2 * params.gamma2_star),
                             orientation, free)
        assert abs(bc1 - bc2) < 1e-3

    def test_range_exhausted(self, params, orientation):
        free = TrapModel(trap_frequency=0.0)
        with pytest.raises(RangeExhaustedError):
            critical_field(params, orientation, free, b_range=(0.15, 0.2))


class TestRotationSweep:
    def test_zero_spin_control_tracks_trap(self, params, orientation, trap):
        dead = params.with_(n_spins_per_class=0.0)
        pts = field_rotation_sweep(dead, orientation, trap, 0.13,
                                   np.linspace(0.0, 14 * DEG, 4))
        for p in pts:
            assert p.theta == pytest.approx(p.theta_control, abs=1e-6)

    def test_locking_in_diamagnetic_regime(self, orientation):
        # strong ensemble, soft trap: tilt stays within a few degrees while
        # the field rotates by 14 degrees
        p = SpinParams(n_spins_per_class=1e9)
        trap = TrapModel(trap_frequency=TWO_PI * 300.0, theta0=3.0 * DEG)
        pts = field_rotation_sweep(p, orientation, trap, 0.13,
                                   np.linspace(0.0, 14 * DEG, 8))
        drift = pts[-1].theta - pts[0].theta
        assert abs(drift) < 5.0 * DEG
        assert pts[-1].theta_control - pts[0].theta_control == pytest.approx(14 * DEG)

    def test_stronger_pumping_locks_tighter(self, orientation):
        trap = TrapModel(trap_frequency=TWO_PI * 300.0, theta0=3.0 * DEG)
        thetas = {}
        for pump in (1e5, 1e6):
            p = SpinParams(n_spins_per_class=1e9, pump_rate=pump)
            pts = field_rotation_sweep(p, orientation, trap, 0.13,
                                       np.array([0.0, 14 * DEG]))
            thetas[pump] = pts[-1].theta
        assert thetas[1e6] < thetas[1e5]


class TestLibration:
    def test_analytic_formula_value(self, params, orientation):
        # closed form at B = 0.2 T, N = 1e9, I = 1e-22, strong pumping
        p = params.with_(n_spins_per_class=1e9, pump_rate=1e8)
        trap = TrapModel(trap_frequency=0.0)
        res = librational_frequency(p, orientation, trap,
                                    axial_field(orientation, 0.2), classes=(0,))
        delta = abs(p.zero_field_splitting - p.gyromagnetic_ratio * 0.2)
        expected = np.sqrt(1.054571817e-34 * 1e9 * p.pumping_factor
                           / (1e-22 * delta)) * p.gyromagnetic_ratio * 0.2
        assert res.omega_analytic == pytest.approx(expected, rel=1e-12)

    def test_closed_form_is_delta_minus_limit_of_full_stiffness(self, params, orientation):
        # acceptance 4a's parameters: the landscape curvature equals the
        # two-transition stiffness -linear_torque_coefficient, and the
        # closed form exceeds it by sqrt(Delta_+/(Delta_+ - |Delta_-|))
        p = params.with_(n_spins_per_class=1e9, pump_rate=1e9)
        trap = TrapModel(moment_of_inertia=1e-22, trap_frequency=0.0)
        res = librational_frequency(p, orientation, trap,
                                    axial_field(orientation, 0.2), classes=(0,))
        full = np.sqrt(abs(linear_torque_coefficient(p, 0.2)) / 1e-22)
        assert res.omega_numeric == pytest.approx(full, rel=1e-4)
        d_m = p.zero_field_splitting - p.gyromagnetic_ratio * 0.2
        d_p = p.zero_field_splitting + p.gyromagnetic_ratio * 0.2
        assert d_m < 0.0
        assert res.omega_analytic / res.omega_numeric == pytest.approx(
            np.sqrt(d_p / (d_p - abs(d_m))), rel=1e-3)

    def test_analytic_scales_linearly_with_field_at_fixed_detuning(self, params, orientation):
        # read off the closed form: omega proportional to gamma_e*B at fixed Delta
        p = params.with_(n_spins_per_class=1e9)
        trap = TrapModel(trap_frequency=0.0)
        r1 = librational_frequency(p, orientation, trap,
                                   axial_field(orientation, 0.2), classes=(0,))
        d1 = abs(p.zero_field_splitting - p.gyromagnetic_ratio * 0.2)
        b2 = 0.4
        d2 = abs(p.zero_field_splitting - p.gyromagnetic_ratio * b2)
        r2 = librational_frequency(p, orientation, trap,
                                   axial_field(orientation, b2), classes=(0,))
        assert r2.omega_analytic / r1.omega_analytic == pytest.approx(
            (b2 / 0.2) * np.sqrt(d1 / d2), rel=1e-9)

    def test_numeric_matches_analytic_in_dispersive_regime(self, params, orientation):
        # single class, zero trap, B = 0.15 T: the closed form neglects the
        # far-detuned |0>->|+1| branch, worth ~10 percent here
        p = params.with_(n_spins_per_class=1e9)
        trap = TrapModel(trap_frequency=0.0)
        res = librational_frequency(p, orientation, trap,
                                    axial_field(orientation, 0.15), classes=(0,))
        assert res.stable
        assert res.omega_numeric == pytest.approx(res.omega_analytic, rel=0.2)

    def test_unstable_orientation_flagged(self, params, orientation):
        # the aligned configuration of a pumped ensemble is anti-confining
        # before the crossing: negative curvature, no frequency
        p = params.with_(n_spins_per_class=1e9)
        weak = TrapModel(trap_frequency=TWO_PI * 50.0, theta0=0.0)
        res = librational_frequency(p, orientation, weak,
                                    axial_field(orientation, 0.09),
                                    classes=(0,), at_theta=0.0)
        assert not res.stable
        assert res.stiffness < 0.0
        assert np.isnan(res.omega_numeric)

    def test_monotone_locking_past_transition(self, params, orientation):
        # theta*(B) does not increase above the transition for this trap
        trap = TrapModel(trap_frequency=TWO_PI * 500.0, theta0=5.0 * DEG)
        warm = None
        thetas = []
        for b in np.arange(0.115, 0.2001, 0.017):
            res = equilibrium_angle(params, orientation, trap,
                                    axial_field(orientation, b), warm_start=warm)
            warm = res.theta
            thetas.append(res.theta)
        assert np.all(np.diff(thetas) <= 2e-5)
