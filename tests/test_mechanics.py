"""Torques, energy landscapes, equilibrium orientation and libration."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from nvspinmech import (CrystalOrientation, FieldVector, SpinParams, TrapModel,
                        equilibrium_angle, equilibrium_branch,
                        critical_field, field_rotation_sweep,
                        landscape_curl_check, librational_frequency,
                        magnetic_energy_landscape, tilt_geometry, tilt_torque_and_slope,
                        tilt_torque_batch,
                        RangeExhaustedError, susceptibility_analytic)
from nvspinmech import mdmr, mechanics, roots
from nvspinmech.config import load_config
from nvspinmech.constants import HBAR, KB
from nvspinmech.mechanics import (ALL_CLASSES, _CLASS_FRAMES, TiltGeometry, axial_field, _dot3,
                                  _integrate_torque, _per_tilt)
from nvspinmech.spincore import (spin_expectation, steady_state_derivative_batch,
                                 steady_state_moments)
from nvspinmech.roots import _stable_bracket

from conftest import inplane_frame, linear_torque_coefficient, turned_back

TWO_PI = 2.0 * np.pi
DEG = np.pi / 180.0


class TestSpinTorque:
    def test_aligned_axial_field_gives_zero(self, params, orientation):
        geom = tilt_geometry(orientation, axial_field(orientation, 0.12))
        tau = tilt_torque_batch(params, geom, [0.0], classes=(0,))
        assert np.allclose(tau, 0.0, atol=1e-24)

    def test_linear_regime_matches_susceptibility(self, params, orientation):
        # dispersive point, small tilt: tau = (V/mu0) chi_perp B^2 theta
        b0, theta = 0.12, 0.5 * DEG
        geom = tilt_geometry(orientation, axial_field(orientation, b0))
        tau = tilt_torque_batch(params, geom, [theta], classes=(0,))[0]
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
        # C3 symmetry about the aligned axis: transverse components cancel;
        # at theta = 0 the tilt torques at azimuths 0 and pi/2 are the two
        # transverse components of the torque vector
        tau = [tilt_torque_batch(params, TiltGeometry(b_mag=0.13, phi=phi), [0.0])[0]
               for phi in (0.0, 0.5 * np.pi)]
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
        # one class-0 line serves every azimuth, so the columns are equal
        thetas = np.linspace(0.0, 0.9, 6)
        phis = np.array([0.3, 1.7, 4.0])
        scape = magnetic_energy_landscape(params, orientation,
                                          axial_field(orientation, 0.11),
                                          thetas, phis, classes=(0,))
        assert np.array_equal(scape.energy, np.repeat(scape.energy[:, :1], phis.size, axis=1))
        assert np.max(np.abs(scape.energy)) > 0.0

    @pytest.mark.parametrize("b_mag", [0.023, "crossing", 0.11, 0.18])
    def test_class0_torque_independent_of_azimuth(self, params, b_mag):
        # the tracked axis is the pole of (theta, phi) and the undriven model
        # is symmetric about it: what the landscape's one class-0 line needs
        if b_mag == "crossing":
            b_mag = params.zero_field_splitting / params.gyromagnetic_ratio
        thetas = np.linspace(-1.2, 1.2, 49)
        ref = tilt_torque_batch(params, TiltGeometry(b_mag=b_mag, phi=0.0), thetas, (0,))
        scale = mechanics._torque_scale(params, b_mag)
        for phi in np.random.default_rng(5).uniform(0.0, TWO_PI, 8):
            tau = tilt_torque_batch(params, TiltGeometry(b_mag=b_mag, phi=phi), thetas, (0,))
            assert np.max(np.abs(tau - ref)) <= 1e-13 * scale

    @pytest.mark.parametrize("classes", [ALL_CLASSES, (0,), (1, 2), (0, 3)])
    @pytest.mark.parametrize("b_mag", [0.11, "crossing"])
    def test_matches_per_azimuth_integration(self, params, orientation, b_mag, classes):
        # oracle: every column integrated along its own azimuth over all
        # requested classes at once, on the sorted anchors from theta = 0
        if b_mag == "crossing":
            b_mag = params.zero_field_splitting / params.gyromagnetic_ratio
        thetas = np.array([-0.9, -0.25, 0.0, 0.4, 1.0])
        phis = np.linspace(0.0, TWO_PI, 4)
        anchors = np.sort(np.concatenate([[0.0], thetas]))
        i0 = int(np.searchsorted(anchors, 0.0))
        oracle = np.zeros((thetas.size, phis.size))
        for j, phi in enumerate(phis):
            geom = TiltGeometry(b_mag=b_mag, phi=float(phi))
            u = np.zeros(anchors.size)
            for i in range(i0 + 1, anchors.size):
                u[i] = u[i - 1] - _integrate_torque(params, geom, anchors[i - 1], anchors[i],
                                                    classes)
            for i in range(i0 - 1, -1, -1):
                u[i] = u[i + 1] + _integrate_torque(params, geom, anchors[i], anchors[i + 1],
                                                    classes)
            oracle[:, j] = u[np.searchsorted(anchors, thetas)]
        scape = magnetic_energy_landscape(params, orientation, axial_field(orientation, b_mag),
                                          thetas, phis, classes)
        assert np.max(np.abs(scape.energy - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_one_axis_line_per_landscape(self, params, orientation, monkeypatch):
        # the default 21 x 9 grid at 0.11 T: 36 class-0 panels on the axis
        # line, 20 panels of classes 1-3 on each of the 9 azimuths
        calls = []
        original = mechanics.tilt_torque_batch

        def counting(params, geom, thetas, classes=ALL_CLASSES, rows=None):
            calls.append(tuple(classes))
            return original(params, geom, thetas, classes, rows)

        monkeypatch.setattr(mechanics, "tilt_torque_batch", counting)
        magnetic_energy_landscape(params, orientation, axial_field(orientation, 0.11),
                                  np.linspace(-1.0, 1.0, 21), np.linspace(0.0, TWO_PI, 9))
        assert len(calls) == 216
        assert calls.count((0,)) == 36 and calls.count((1, 2, 3)) == 180

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
            tau = tilt_torque_batch(params, geom, [theta])[0]

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

    @pytest.mark.parametrize("thetas", [[0.0], [0.0, 0.3]])
    @pytest.mark.parametrize("classes", [(), (0, 0), (-1,), (5,), (0, 4)])
    def test_invalid_classes_rejected(self, params, orientation, classes, thetas):
        # before the classes are split into the axis line and the rest, and
        # also when no interval is integrated
        with pytest.raises(ValueError, match="classes"):
            magnetic_energy_landscape(params, orientation, axial_field(orientation, 0.1),
                                      thetas, [0.0, 1.0], classes)

    def test_curl_diagnostic_is_small(self, params, orientation):
        rel_curl = landscape_curl_check(params, orientation,
                                        axial_field(orientation, 0.11),
                                        n_samples=4, seed=3)
        assert rel_curl < 0.05

    @pytest.mark.parametrize("n_spins, b_mag", [(0.0, 0.11), (2.5e8, 0.0)])
    def test_curl_diagnostic_without_torque_is_zero(self, orientation, n_spins, b_mag):
        # no spins or no field: the torque field vanishes, and so does its curl
        params = SpinParams(n_spins_per_class=n_spins)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert landscape_curl_check(params, orientation,
                                        axial_field(orientation, b_mag), n_samples=4) == 0.0

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_curl_diagnostic_needs_a_sample(self, params, orientation, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            landscape_curl_check(params, orientation, axial_field(orientation, 0.11),
                                 n_samples=n_samples)

    def test_quadrature_failure_names_worst_cell(self, params, orientation, monkeypatch):
        # an exhausted subdivision budget reports the offending interval
        from nvspinmech import QuadratureError

        monkeypatch.setattr(mechanics, "_QUAD_RTOL", 1e-14)
        monkeypatch.setattr(mechanics, "_QUAD_ATOL", 1e-40)
        monkeypatch.setattr(mechanics, "_QUAD_DEPTH", 0)
        geom = tilt_geometry(orientation, axial_field(orientation, 0.103))
        with pytest.raises(QuadratureError, match="worst cell") as exc:
            _integrate_torque(params, geom, 0.0, 1.2)
        lo, hi, phi = exc.value.cell
        assert 0.0 <= lo < hi <= 1.2


class TestTiltGeometry:
    @pytest.mark.parametrize("n", [1, 17, 40, 1000])
    def test_tilt_arrays_match_single_tilts_bitwise(self, n):
        geom = TiltGeometry(b_mag=0.13, phi=0.7)
        thetas = np.random.default_rng(n).uniform(-0.5 * np.pi, np.pi, n)
        batch = geom.field_and_derivative(thetas)
        assert batch.shape == (2, n, 3)
        singles = [geom.field_and_derivative(float(t)) for t in thetas]
        assert singles[0].shape == (2, 1, 3)
        assert np.array_equal(batch, np.concatenate(singles, axis=1))

    @pytest.mark.parametrize("n", [2, 9, 17, 40, 81])
    def test_tilt_torque_batches_match_single_tilts_bitwise(self, params, n):
        # field projections, moments and the class sum are term-by-term
        # sums, so no rounding depends on how many tilts share a call; at
        # phi = 0 class 3 shares class 2's solve, decided per tilt, so a
        # batch of rows at phi = 0 and phi != 0 gives each tilt its own bits
        thetas = np.random.default_rng(n).uniform(-0.5 * np.pi, np.pi, n)
        thetas[0] = 0.0
        for phi in (0.7, 0.0):
            geom = TiltGeometry(b_mag=0.13, phi=phi)
            batch = tilt_torque_batch(params, geom, thetas)
            assert np.array_equal(batch, [tilt_torque_batch(params, geom, [t])[0]
                                          for t in thetas])
        rows = [params, params.with_(pump_rate=1e3), params]
        geoms = [TiltGeometry(b_mag=0.13, phi=0.0), TiltGeometry(b_mag=0.05, phi=0.0),
                 TiltGeometry(b_mag=0.13, phi=0.7)]
        tilt_rows = np.arange(n) % 3
        batch = tilt_torque_batch(rows, geoms, thetas, rows=tilt_rows)
        assert np.array_equal(batch, [tilt_torque_batch(rows, geoms, [t], rows=[r])[0]
                                      for t, r in zip(thetas, tilt_rows)])
        assert np.array_equal(batch, [tilt_torque_batch(rows[r], geoms[r], [t])[0]
                                      for t, r in zip(thetas, tilt_rows)])


def composed_torque_and_slope(params, geom, thetas, classes, rows=None):
    """The torque and slope composed of separate steps, as the one-pass
    kernel must reproduce them bit for bit: b and db/dtheta from the
    geometry's field_and_derivative, one class projection each, the in-plane
    points written out (``inplane_frame``), <S> and its derivative from
    steady_state_moments at every class point, and, at phi = 0, class 2's
    moment for class 3 (its derivative stays its own)."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    geom, n = _per_tilt(params, geom, rows)
    project = lambda v: _dot3(v[None, :, None, :], _CLASS_FRAMES[list(classes), None])
    fields, dfields = inplane_frame(*map(project, geom.field_and_derivative(thetas)))
    point_rows = None if rows is None else np.broadcast_to(rows, fields.shape[:-1]).ravel()
    scale = -HBAR * (params if rows is None else params[0]).gyromagnetic_ratio
    m, _ = steady_state_moments(params, fields.reshape(-1, 3), point_rows)
    moments = scale * m.reshape(fields.shape)
    _, dm = steady_state_moments(params, fields.reshape(-1, 3), point_rows,
                                 dfields.reshape(-1, 1, 3))
    dmoments = scale * dm.reshape(fields.shape)
    if 2 in classes and 3 in classes:
        mirror = np.broadcast_to(np.ravel(geom.phi) == 0.0, thetas.shape)
        moments[classes.index(3), mirror] = moments[classes.index(2), mirror]
    return (n * sum(_dot3(moments, dfields)),
            n * sum(_dot3(dmoments, dfields) - _dot3(moments, fields)))


def class_frame_moments(params, geom, thetas):
    """The four classes' moments (4, k, 3) and their derivatives along
    db/dtheta (4, k, 3), each solved at its field in its fixed class frame
    (steady_state_derivative_batch, <S> from spin_expectation), with the
    class-frame fields and db/dtheta."""
    project = lambda v: _dot3(v[None, :, None, :], _CLASS_FRAMES[:, None])
    fields, dfields = map(project, geom.field_and_derivative(thetas))
    scale = -HBAR * params.gyromagnetic_ratio
    rhos, drhos = steady_state_derivative_batch(params, fields.reshape(-1, 3),
                                                dfields.reshape(-1, 1, 3))
    return (scale * spin_expectation(rhos).reshape(fields.shape),
            scale * spin_expectation(drhos).reshape(fields.shape), fields, dfields)


def kernel_cases():
    """(name, params, geometry, tilts, classes, rows): B = 0, tilts of +0
    and -0, one, two and several classes, 1 to 29 tilts, and parameter
    rows of three fields and pump rates."""
    rng = np.random.default_rng(8)
    tilts = lambda k: np.concatenate([[0.0, -0.0], rng.uniform(-0.5 * np.pi, np.pi, k - 2)])
    base = SpinParams()
    rows = [base.with_(pump_rate=pump) for pump in (0.0, 1e3, 1e6)]
    fields = [TiltGeometry(b_mag=b, phi=0.0) for b in (0.0, 0.05, 0.10241221809877248)]
    return [("zero_field", base, TiltGeometry(b_mag=0.0, phi=0.0), [0.0], (0, 1, 2, 3), None),
            ("aligned", base, TiltGeometry(b_mag=0.12, phi=0.0), [-0.0], (0,), None),
            ("pair", base, TiltGeometry(b_mag=0.13, phi=0.7), tilts(2), (1, 3), None),
            ("eighteen", base, TiltGeometry(b_mag=0.18, phi=2.1), tilts(18), (0, 1, 2, 3),
             None),
            ("unpumped", base.with_(pump_rate=0.0), TiltGeometry(b_mag=0.023, phi=0.0),
             tilts(29), (0, 1, 2, 3), None),
            ("rows", rows, fields, tilts(29), (0, 1, 2, 3), rng.integers(0, 3, 29)),
            ("one_row", rows, fields, [0.4], (0,), np.array([2]))]


class TestOnePassKernel:
    """tilt_torque_batch and tilt_torque_and_slope are one pass (one sin/cos,
    one class projection, one moment batch) and bitwise the composition of
    the separate steps, sign of zero included (``tobytes``)."""

    @pytest.mark.parametrize("name, params, geom, thetas, classes, rows", kernel_cases(),
                             ids=[case[0] for case in kernel_cases()])
    def test_kernel_is_the_composed_route(self, name, params, geom, thetas, classes, rows):
        tau, slope = composed_torque_and_slope(params, geom, thetas, classes, rows)
        assert tilt_torque_batch(params, geom, thetas, classes, rows).tobytes() == tau.tobytes()
        got_tau, got_slope = tilt_torque_and_slope(params, geom, thetas, classes, rows)
        assert (got_tau.tobytes(), got_slope.tobytes()) == (tau.tobytes(), slope.tobytes())

    def test_one_moment_batch_per_call(self, params, monkeypatch):
        # 4 class points per tilt, 3 for a torque at phi = 0, where class 3
        # takes class 2's moment; a slope batch solves every class point
        calls = []
        original = mechanics.steady_state_moments

        def counting(params, b_nv, rows=None, directions=None):
            calls.append((len(b_nv), directions is not None))
            return original(params, b_nv, rows, directions)

        monkeypatch.setattr(mechanics, "steady_state_moments", counting)
        geom = TiltGeometry(b_mag=0.13, phi=0.7)
        tilt_torque_batch(params, geom, [0.1, 0.2, 0.3])
        tilt_torque_and_slope(params, geom, [0.1], classes=(0, 2))
        assert calls == [(12, False), (2, True)]
        calls.clear()
        mirror = TiltGeometry(b_mag=0.13, phi=0.0)
        tilt_torque_batch(params, mirror, [0.1, 0.2, 0.3])
        tilt_torque_batch(params, mirror, [0.1], classes=(3, 2))
        tilt_torque_batch(params, mirror, [0.1], classes=(0, 3))
        tilt_torque_and_slope(params, mirror, [0.1, 0.2])
        assert calls == [(9, False), (1, False), (2, False), (8, True)]

    @pytest.mark.parametrize("b_mag", [0.023, 0.1024, 0.18])
    def test_class_frame_composition_is_a_reference(self, params, b_mag):
        # each class solved in its fixed class frame, the route the kernel
        # replaced: the in-plane moments turned back agree to 1e-12 of a
        # fully polarized spin's moment (measured 2.2e-14 to 5.6e-14); the
        # torques to 1e-13 of _torque_scale (measured <= 4.9e-15) and the
        # slopes to 1e-11 of their largest (measured <= 2.1e-13)
        thetas = np.concatenate([[0.0], np.linspace(-0.5 * np.pi, np.pi, 61)])
        scale = HBAR * params.gyromagnetic_ratio
        for phi in (0.0, 0.7, 2.1):
            geom = TiltGeometry(b_mag=b_mag, phi=phi)
            moments, dmoments, fields, dfields = class_frame_moments(params, geom, thetas)
            inplane, _ = inplane_frame(fields, dfields)
            m, _ = steady_state_moments(params, inplane.reshape(-1, 3))
            turned = turned_back(-scale * m.reshape(fields.shape), fields)
            assert np.max(np.abs(turned - moments)) <= 1e-12 * scale
            n = params.n_spins_per_class
            tau, slope = tilt_torque_and_slope(params, geom, thetas)
            ref_tau = n * sum(_dot3(moments, dfields))
            ref_slope = n * sum(_dot3(dmoments, dfields) - _dot3(moments, fields))
            scale_tau = mechanics._torque_scale(params, b_mag)
            assert np.max(np.abs(tau - ref_tau)) <= 1e-13 * scale_tau
            assert np.max(np.abs(slope - ref_slope)) <= 1e-11 * np.max(np.abs(ref_slope))

    @pytest.mark.parametrize("b_mag", [0.023, 0.1024, 0.18])
    def test_mirror_classes_share_the_moment_not_the_torque(self, params, b_mag):
        # at phi = 0 class 3 takes class 2's in-plane moment: the four-class
        # torque is the sum of the single-class ones (each class solved at
        # its own in-plane field) to 1e-15 of _torque_scale (measured <=
        # 2e-17), while the torques of classes 2 and 3 differ by 2e-7 to
        # 5.7e-6 of it, so a kernel that shared the torque would fail
        geom = TiltGeometry(b_mag=b_mag, phi=0.0)
        thetas = np.linspace(-0.5 * np.pi, np.pi, 61)
        scale = mechanics._torque_scale(params, b_mag)
        single = [tilt_torque_batch(params, geom, thetas, classes=(c,)) for c in ALL_CLASSES]
        four = tilt_torque_batch(params, geom, thetas)
        assert np.max(np.abs(four - sum(single))) <= 1e-15 * scale
        assert np.max(np.abs(single[2] - single[3])) > 1e-8 * scale


def _cubic(thetas):
    # stable roots at 0.25 and 0.85, unstable root at 0.55 between them
    return -(thetas - 0.25) * (thetas - 0.55) * (thetas - 0.85)


def _bracket(thetas, values, guess, scale):
    """The stacked bracket search on a stack of one row."""
    return _stable_bracket(np.asarray(thetas)[None], np.asarray(values)[None], [guess],
                           [scale])[0]


def _one_row_bracket(thetas, values, guess, scale):
    """The bracket search of one row as written before rows were stacked:
    the oracle of the stacked search."""
    vals = np.where(np.abs(values) <= 1e-12 * scale, 0.0, values)
    hits = np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))
    if hits.size == 0:
        return None
    a, b, fa, fb = thetas[hits], thetas[hits + 1], vals[hits], vals[hits + 1]
    i = int(np.argmin(np.abs(a + fa * (b - a) / (fa - fb) - guess)))
    return float(a[i]), float(b[i]), float(fa[i]), float(fb[i])


@st.composite
def _bracket_stacks(draw):
    """(thetas, values, guesses, scales, window lengths) of 1 to 6 rows,
    each NaN-padded past its window.  Torques are exact zeros, torques at
    and just past the rounding level 1e-12 * scale, +-1 and +-2 times the
    scale, or arbitrary.  A tie row plants two sign changes (+c, -c) and
    puts its guess halfway between their secant roots: on the 0.25 rad
    grid every step of that arithmetic is exact, so the two tie."""
    rows, width = draw(st.integers(1, 6)), draw(st.integers(2, 16))
    step = draw(st.sampled_from([0.25, roots._STEP]))
    thetas, values, guesses, scales, lengths = [], [], [], [], []
    for _ in range(rows):
        scale = draw(st.sampled_from([1.0, 2.5e-14, 3e-9]))
        tiny, past = 1e-12 * scale, np.nextafter(1e-12 * scale, 1.0)
        levels = [scale, 2.0 * scale, -scale, -2.0 * scale, 0.0, -0.0, tiny, -tiny, past,
                  -past, 0.5 * tiny]
        n = draw(st.integers(2, width))
        row = [draw(st.one_of(st.sampled_from(levels), st.floats(-2.0 * scale, 2.0 * scale)))
               for _ in range(n)]
        theta = (draw(st.integers(-8, 8)) + np.arange(width)) * step
        guess = draw(st.integers(-24, 48)) * step / 2
        if n >= 4 and draw(st.booleans()):  # a tie row
            i = draw(st.integers(0, n - 4))
            j = draw(st.integers(i + 2, n - 2))
            c = draw(st.sampled_from([scale, 2.0 * scale]))
            row[i:i + 2], row[j:j + 2] = [c, -c], [c, -c]
            guess = 0.5 * (theta[i] + theta[j]) + 0.5 * step
        thetas.append(theta)
        values.append(row + [np.nan] * (width - n))
        guesses.append(guess)
        scales.append(scale)
        lengths.append(n)
    return np.array(thetas), np.array(values), guesses, scales, lengths


def _as_bits(bracket):
    return None if bracket is None else np.array(bracket).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_bracket_stacks())
def test_stacked_bracket_is_each_row_alone(stack):
    # every row of a stack gets the bits of the one-row search on its
    # window, ties, exact zeros, NaN padding and rows without a hit
    # included, and the stacked search warns about nothing
    thetas, values, guesses, scales, lengths = stack
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _stable_bracket(thetas, values, guesses, scales)
    assert len(got) == len(guesses)
    for row, (th, v, guess, scale, n) in enumerate(zip(thetas, values, guesses, scales, lengths)):
        want = _one_row_bracket(th[:n], v[:n], guess, scale)
        assert _as_bits(got[row]) == _as_bits(want), row


class TestStableBracket:
    grid = np.linspace(0.0, 1.0, 11)

    def test_stable_root_nearest_guess_wins_over_nearer_unstable(self):
        vals = _cubic(self.grid)
        a, b, fa, fb = _bracket(self.grid, vals, 0.6, scale=1.0)
        assert (a, b) == (self.grid[8], self.grid[9])
        assert (fa, fb) == (vals[8], vals[9])
        a, b, _, _ = _bracket(self.grid, vals, 0.5, scale=1.0)
        assert (a, b) == (self.grid[2], self.grid[3])

    def test_no_stable_bracket_gives_none(self):
        assert _bracket(self.grid, self.grid - 0.55, 0.5, scale=1.0) is None
        assert _bracket(self.grid, 1.0 + self.grid, 0.5, scale=1.0) is None

    @pytest.mark.parametrize("noise", [2e-32, -2e-32, 0.0])
    def test_rounding_level_end_value_is_the_root(self, noise):
        vals = np.array([3.0, 2.0, 1.0, noise])
        grid = self.grid[:4]
        assert _bracket(grid, vals, 0.0, scale=1.0) == (grid[2], grid[3], 1.0, 0.0)

    def test_rounding_level_start_value_is_not_positive(self):
        assert _bracket(self.grid[:2], np.array([1e-30, -1.0]), 0.0, scale=1.0) is None

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
        b_end = 31 * roots._STEP
        torque = self._flipping_torque(b_end, scale)
        monkeypatch.setattr(mechanics, "tilt_torque_batch",
                            lambda params, geom, thetas, classes: torque(thetas))
        res = equilibrium_angle(params, orientation, TrapModel(trap_frequency=0.0), field)
        assert res.bound
        assert abs(res.theta - (b_end - 1e-9)) < 1e-9

    def test_mdmr_polish_keeps_scanned_end_values(self, params, orientation, monkeypatch):
        scale = mechanics._torque_scale(params, 0.1)
        b_end = 31 * roots._STEP
        torque = self._flipping_torque(b_end, scale)
        # the baseline is an equilibrium (no trap), the point a driven root
        monkeypatch.setattr(mechanics, "tilt_torque_batch",
                            lambda params, geom, thetas, classes: torque(thetas))
        monkeypatch.setattr(mdmr, "_tilt_torques", lambda params, geom, thetas, *rest:
                            (torque(thetas), None))
        drive = mdmr.MicrowaveDrive(rabi_rate=2.0 * np.pi * 1e6, frequencies=(1e9,))
        spec = mdmr.mdmr_scan(params, orientation, TrapModel(trap_frequency=0.0),
                              axial_field(orientation, 0.1), drive)
        assert abs(spec.baseline_theta - (b_end - 1e-9)) < 1e-10
        assert spec.points[0].converged
        assert abs(spec.points[0].theta - (b_end - 1e-9)) < 1e-10


def _flipped_end_torque(thetas):
    # a stable root 1e-9 rad below the grid tilt 31 * _STEP whose
    # single-tilt value there has the wrong sign, as a last-ulp
    # difference of a marginal value would
    b_end = 31 * roots._STEP
    thetas = np.asarray(thetas, dtype=float)
    vals = b_end - 1e-9 - thetas
    return -vals if thetas.size == 1 and thetas[0] == b_end else vals


def _plateau_torque(thetas):
    # within 1e-6 rad of the root 0.3 the torque is -1e-13 * scale
    thetas = np.asarray(thetas, dtype=float)
    return np.where(np.abs(thetas - 0.3) < 1e-6, -1e-13, 0.3 - thetas)


def _one_row(torque, guess, scale):
    """(root, evaluations) of ``roots._stable_roots`` for one row whose
    ``torque`` maps an array of tilts to their torques."""
    return roots._stable_roots(brentq, lambda rows, thetas: torque(thetas), [guess], [scale])[0]


class TestStableRoot:
    def test_polish_keeps_scanned_end_values(self):
        root, _ = _one_row(_flipped_end_torque, 0.3, scale=1.0)
        assert abs(root - (31 * roots._STEP - 1e-9)) < 1e-10

    def test_polish_stops_at_rounding_level_torque(self):
        # the secant step lands on the plateau, and that first zero is the
        # root (Brent would otherwise converge on the plateau's edge)
        root, evals = _one_row(_plateau_torque, 0.3, scale=1.0)
        assert abs(root - 0.3) < 1e-12
        assert evals == 2  # the scan and one polish step

    def test_grid_holds_range_ends_bitwise(self):
        step, k_lo, k_hi = roots._STEP, roots._K_LO, roots._K_HI
        assert (k_lo * step, k_hi * step) == (-0.5 * np.pi, np.pi)
        assert (157 * step, 0 * step) == (0.5 * np.pi, 0.0)

    def test_guess_outside_range_scans_clipped_windows(self):
        # the scan centre is clipped into the grid, so every window holds
        # tilts and the last one is the whole of [-pi/2, pi]; each round
        # evaluates only the tilts its window adds
        scanned = []

        def torque(thetas):
            scanned.append(np.asarray(thetas))
            return np.ones(len(thetas))

        assert _one_row(torque, 4.0, scale=1.0) == (None, 4)
        assert np.cumsum([len(t) for t in scanned]).tolist() == [9, 33, 129, 472]
        step, k_lo, k_hi = roots._STEP, roots._K_LO, roots._K_HI
        assert np.array_equal(np.sort(np.concatenate(scanned)),
                              np.arange(k_lo, k_hi + 1) * step)


def _whole_window_root(brent, torque, guess, scale):
    """The stable-root search with every window evaluated whole: the
    reference that the widening scan reproduces."""
    evals = 0

    def f(thetas):
        nonlocal evals
        evals += 1
        tau = torque(thetas)
        return np.where(np.abs(tau) <= 1e-12 * scale, 0.0, tau)

    center = min(max(round(guess / roots._STEP), roots._K_LO), roots._K_HI)
    for half in (8, 32, 128, 512):
        thetas = np.arange(max(center - half, roots._K_LO),
                           min(center + half, roots._K_HI) + 1) * roots._STEP
        if (bracket := _bracket(thetas, f(thetas), guess, scale)) is not None:
            break
    else:
        return None, evals
    a, b, fa, fb = bracket
    return float(brent(lambda th: fa if th == a else fb if th == b else float(f([th])[0]),
                       a, b, xtol=roots._XTOL)), evals


def _bits(result):
    """A result dataclass as bytes: equal bits, NaN included."""
    return np.array(dataclasses.astuple(result), dtype=float).tobytes()


# the README libration recipes (tracked class, no trap, N = 1e9): the field
# sweep from 0 T (no torque: unbound) and the pump-rate sweep at 0.13 T
_FREE = TrapModel(trap_frequency=0.0, theta0=0.05236)
_RECIPE_PARAMS = SpinParams(n_spins_per_class=1e9)
_FIELD_ROWS = [(_RECIPE_PARAMS, b) for b in np.linspace(0.0, 0.2, 41)]
_PUMP_ROWS = [(_RECIPE_PARAMS.with_(pump_rate=pump), 0.13) for pump in np.linspace(1e3, 1e6, 40)]


class TestBatchedRows:
    @pytest.mark.parametrize("cases", [_FIELD_ROWS, _PUMP_ROWS], ids=["field", "pump_rate"])
    def test_equilibria_rows_are_equilibrium_angle(self, orientation, cases):
        rows = [(p, tilt_geometry(orientation, axial_field(orientation, b))) for p, b in cases]
        batched = mechanics._equilibria(rows, [_FREE] * len(rows), [_FREE.theta0] * len(rows),
                                        (0,))
        for (p, b), res in zip(cases, batched, strict=True):
            alone = equilibrium_angle(p, orientation, _FREE, axial_field(orientation, b),
                                      classes=(0,))
            assert _bits(res) == _bits(alone), b
        if cases is _FIELD_ROWS:
            # 0 T is unbound after the full-range scan; up to 0.03 T the
            # root pi/2 lies only in the fourth, 472-tilt window
            assert not batched[0].bound and batched[0].iterations == 4
            assert [res.theta for res in batched[1:7]] == [0.5 * np.pi] * 6

    @pytest.mark.parametrize("cases", [_FIELD_ROWS, _PUMP_ROWS], ids=["field", "pump_rate"])
    def test_libration_sweep_rows_are_librational_frequency(self, orientation, cases):
        sweep = mechanics.libration_sweep(
            orientation, _FREE, [(p, axial_field(orientation, b)) for p, b in cases], (0,))
        for (p, b), res in zip(cases, sweep, strict=True):
            alone = librational_frequency(p, orientation, _FREE, axial_field(orientation, b),
                                          classes=(0,))
            assert _bits(res) == _bits(alone), b

    @pytest.mark.parametrize("b_mag, guess", [(0.01, 0.05236), (0.13, 0.05236), (0.13, -1.5),
                                              (0.0, 0.3)])
    def test_widening_scan_evaluates_each_tilt_once(self, params, b_mag, guess):
        # the same root and count as a scan that evaluates whole windows,
        # and no scanned tilt is evaluated twice
        geom = TiltGeometry(b_mag=b_mag, phi=0.0)
        scale = mechanics._torque_scale(params, b_mag)
        scanned = []

        def torque(thetas):
            thetas = np.asarray(thetas, dtype=float)
            scanned.append(thetas)
            return tilt_torque_batch(params, geom, thetas)

        found = _one_row(torque, guess, scale)
        scan = np.concatenate([t for t in scanned if t.size > 1])
        assert np.unique(scan).size == scan.size
        assert found == _whole_window_root(brentq, torque, guess, scale)

    def test_rows_widen_independently(self):
        # rows that bracket in different rounds share the rounds they scan
        batches = []

        def torque(rows, thetas):
            batches.append(np.bincount(rows, minlength=3).tolist())
            return np.array([0.3, 1.0, 2.0])[rows] - thetas

        found = roots._stable_roots(brentq, torque, [0.3, 0.3, 0.3], [1.0] * 3)
        # bracketed in rounds 1, 3 and 4, then one secant step each
        assert [evals for _, evals in found] == [2, 4, 5]
        assert batches[:4] == [[17, 17, 17], [0, 48, 48], [0, 192, 192], [0, 0, 215]]
        for row, (root, _) in zip((0.3, 1.0, 2.0), found):
            assert abs(root - row) < 1e-10


def _recipe_row_torque(orientation, cases, batches):
    """The total torque of the libration recipe rows, tilts tagged by row,
    recording the size of each batch."""
    rows = [(p, tilt_geometry(orientation, axial_field(orientation, b))) for p, b in cases]
    params, geoms = [p for p, _ in rows], [g for _, g in rows]

    def torque(idx, thetas):
        batches.append(len(thetas))
        return tilt_torque_batch(params, geoms, thetas, (0,),
                                 np.broadcast_to(idx, np.shape(thetas)))

    return torque, [mechanics._torque_scale(p, g.b_mag) for p, g in rows]


_ONE_ROW_CASES = [(lambda rows, thetas: _flipped_end_torque(thetas), 0.3),
                  (lambda rows, thetas: _plateau_torque(thetas), 0.3),
                  (lambda rows, thetas: np.ones(len(thetas)), 4.0)]


class TestLockstepPolish:
    @pytest.mark.parametrize("torque, guess", _ONE_ROW_CASES,
                             ids=["flipped_end", "plateau", "no_root"])
    def test_a_row_alone_is_the_row_beside_another(self, torque, guess):
        # the same (root, evaluations) alone, beside another row, and again
        # from the torque memory its first solve filled
        memory = [{}]
        alone = roots._stable_roots(brentq, torque, [guess], [1.0], memory)
        assert roots._stable_roots(brentq, torque, [guess], [1.0], memory) == alone
        assert roots._stable_roots(brentq, torque, [guess, 0.0], [1.0, 1.0])[:1] == alone

    @pytest.mark.parametrize("b_mag, guess", [(0.01, 0.05236), (0.13, 0.05236), (0.13, -1.5),
                                              (0.0, 0.3)])
    def test_a_row_alone_is_the_row_beside_another_on_real_torques(self, params, b_mag,
                                                                     guess):
        geom = TiltGeometry(b_mag=b_mag, phi=0.0)
        scale = mechanics._torque_scale(params, b_mag)
        torque = lambda rows, thetas: tilt_torque_batch(params, geom, thetas)
        memory = [{}]
        alone = roots._stable_roots(brentq, torque, [guess], [scale], memory)
        assert roots._stable_roots(brentq, torque, [guess], [scale], memory) == alone
        assert roots._stable_roots(brentq, torque, [guess, 0.3], [scale, scale])[:1] == alone

    @pytest.mark.parametrize("cases", [_FIELD_ROWS, _PUMP_ROWS], ids=["field", "pump_rate"])
    def test_lockstep_rows_are_rows_alone(self, orientation, cases):
        # every row's (root, evaluations) is that of the row solved alone,
        # and the polish takes one batch per Brent step of the slowest row
        batches = []
        torque, scales = _recipe_row_torque(orientation, cases, batches)
        guesses = [_FREE.theta0] * len(cases)
        together = roots._stable_roots(brentq, torque, guesses, scales)
        assert len(batches) <= len(roots._HALVES) + max(evals for _, evals in together)
        for i, found in enumerate(together):
            one = lambda rows, thetas, i=i: torque(i, thetas)
            assert roots._stable_roots(brentq, one, [guesses[i]], [scales[i]]) == [found]

    def test_replays_stop_at_the_first_unknown_tilt(self):
        # two rows need two Brent steps each: both stop at their first
        # step, which one batch solves, then at their second
        batches = []

        def torque(rows, thetas):
            batches.append(np.broadcast_to(rows, np.shape(thetas)).tolist())
            return np.cbrt(np.array([0.31, 0.77])[rows] - thetas)

        found = roots._stable_roots(brentq, torque, [0.3, 0.8], [1.0, 1.0])
        steps = [evals - 1 for _, evals in found]
        assert min(steps) >= 2
        polish = batches[1:]
        assert polish[0] == [0, 1]
        assert len(polish) == max(steps)
        for row, (root, _) in zip((0.31, 0.77), found):
            assert abs(root - row) < 1e-9


class TestEquilibrium:
    @pytest.mark.parametrize("classes", [(), (0, 0), (-1,), (5,), (0, 4)])
    def test_invalid_classes_rejected(self, params, orientation, trap, classes):
        # empty, repeated or out of 0..3: before any torque is summed
        with pytest.raises(ValueError, match="classes"):
            equilibrium_angle(params, orientation, trap, axial_field(orientation, 0.1),
                              classes=classes)

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
        assert np.isnan(res.slope)

    def test_slope_is_the_exact_total_slope_at_the_root(self, params, orientation, trap):
        b = axial_field(orientation, 0.12)
        res = equilibrium_angle(params, orientation, trap, b)
        _, slope = mechanics.tilt_torque_and_slope(params, tilt_geometry(orientation, b),
                                                   [res.theta])
        assert res.slope == slope[0] - trap.stiffness
        assert res.stability == -np.sign(res.slope)

    def test_trap_angle_past_right_angle_is_bound(self, params, orientation):
        # the search reaches past pi/2: a trap at 2 rad holds the axis there
        trap = TrapModel(trap_frequency=TWO_PI * 500.0, theta0=2.0)
        res = equilibrium_angle(params, orientation, trap, axial_field(orientation, 0.13))
        assert res.bound
        assert res.stability > 0.0
        assert res.theta == pytest.approx(1.9695, abs=1e-4)


def _serial_branch(params, orientation, cases, classes=ALL_CLASSES, guess=None):
    """The branch oracle: equilibrium_angle of each case in order, warm-started
    from the last bound root (``guess`` until there is one)."""
    results = []
    for trap, b_lab in cases:
        res = equilibrium_angle(params, orientation, trap, b_lab, warm_start=guess,
                                classes=classes)
        guess = res.theta if res.bound else guess
        results.append(res)
    return results


def _recording_solves(monkeypatch):
    """Record (scale, guess, (root, evaluations)) of every row that
    roots._stable_roots solves; the waves call it through the module."""
    solves, original = [], roots._stable_roots

    def recording(brent, torque, guesses, scales, memory=None):
        found = original(brent, torque, guesses, scales, memory)
        solves.append(list(zip(scales, guesses, found)))
        return found

    monkeypatch.setattr(roots, "_stable_roots", recording)
    return solves


class TestEquilibriumBranch:
    def test_matches_warm_started_loop_bitwise(self, params, orientation, trap,
                                               monkeypatch):
        # the middle case is unbound (trap angle beyond the searched range):
        # the case after it starts from the last bound root
        far = TrapModel(trap_frequency=TWO_PI * 500.0, theta0=4.0)
        cases = [(t, axial_field(orientation, b))
                 for t, b in ((trap, 0.08), (trap, 0.1), (far, 0.11), (trap, 0.12))]
        expected = _serial_branch(params, orientation, cases)
        assert [r.bound for r in expected] == [True, True, False, True]
        solves = _recording_solves(monkeypatch)
        got = equilibrium_branch(params, orientation, cases)
        np.testing.assert_array_equal([dataclasses.astuple(r) for r in got],
                                      [dataclasses.astuple(r) for r in expected])
        # the last solve of each row, the accepted one, started from the
        # serial warm start (the fields, hence the scales, tell rows apart)
        warm = [trap.theta0, expected[0].theta, expected[1].theta, expected[1].theta]
        for (_, b_lab), start, res in zip(cases, warm, expected, strict=True):
            scale = mechanics._torque_scale(params, b_lab.magnitude)
            last = [solve for wave in solves for solve in wave if solve[0] == scale][-1]
            assert last[1] == start
            assert last[2] == ((res.theta, res.iterations - 1) if res.bound
                               else (None, res.iterations))

    def test_unchanged_warm_starts_are_not_resolved(self, monkeypatch):
        # rows 0 and 3 have no root; each bound row has one root whatever
        # its guess.  Wave 1 solves every row from its first guess; row 1
        # still starts there (nothing bound before it), so wave 2 re-solves
        # rows 2-4 only, and their roots leave every warm start as it was
        solves = _recording_solves(monkeypatch)
        targets = np.array([np.inf, 0.2, 0.5, np.inf, 0.9])
        scales = [1.0, 2.0, 3.0, 4.0, 5.0]

        def torque(rows, thetas):
            return np.where(np.isinf(targets[rows]), 1.0,
                            np.array(scales)[rows] * (targets[rows] - thetas))

        found = roots._branch_roots(brentq, torque, [0.3, 0.35, 0.4, 0.45, 1.0], scales)
        assert [[(s, g) for s, g, _ in wave] for wave in solves] == [
            list(zip(scales, [0.3, 0.35, 0.4, 0.45, 1.0])),
            [(3.0, found[1][0]), (4.0, found[2][0]), (5.0, found[2][0])]]
        assert [root is None for root, _ in found] == [True, False, False, True, False]

    def test_fold_warm_start_picks_the_branch(self, params, orientation):
        # a weak trap: below ~0.1 T the tilt has two stable roots, one on
        # each side of the field, which merge into one near 0 above it.  Up
        # the sweep follows the branch its start picks; back down it leaves
        # the merged root on the branch nearest 0, so at 0.05 T the sweep
        # ends on the other side from where it began
        weak = TrapModel(trap_frequency=TWO_PI * 100.0, theta0=3.0 * DEG)
        up = np.linspace(0.05, 0.13, 9)
        cases = [(weak, axial_field(orientation, b)) for b in [*up, *up[::-1][1:]]]
        for guess, first in ((None, 0.2254), (-0.2, -0.2096)):
            got = equilibrium_branch(params, orientation, cases, guess=guess)
            assert [_bits(r) for r in got] == [
                _bits(r) for r in _serial_branch(params, orientation, cases, guess=guess)]
            assert got[0].theta == pytest.approx(first, abs=1e-4)
            assert got[-1].theta == pytest.approx(-0.2096, abs=1e-4)
            assert abs(got[8].theta) < 1e-3

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(rows=st.lists(st.tuples(st.floats(0.0, 0.2), st.sampled_from([0.0, 100.0, 500.0]),
                                   st.sampled_from([0.05236, -0.3, 1.2, 4.0])), max_size=6),
           guess=st.none() | st.floats(-1.5, 3.0),
           classes=st.sampled_from([(0,), ALL_CLASSES]))
    def test_branch_is_the_serial_loop(self, rows, guess, classes):
        # random field sweeps with per-row trap angles and stiffnesses
        # (a trap at 4 rad leaves its row unbound), empty and one-case
        # sweeps included: every result is the serial loop's, bitwise
        params, orientation = SpinParams(), CrystalOrientation.identity()
        cases = [(TrapModel(trap_frequency=TWO_PI * hz, theta0=theta0),
                  axial_field(orientation, b)) for b, hz, theta0 in rows]
        got = equilibrium_branch(params, orientation, cases, classes, guess)
        expected = _serial_branch(params, orientation, cases, classes, guess)
        assert [_bits(r) for r in got] == [_bits(r) for r in expected]

    def test_guess_seeds_the_first_case(self, params, orientation, trap):
        b_lab = axial_field(orientation, 0.1)
        res = equilibrium_angle(params, orientation, trap, b_lab, warm_start=0.2)
        assert equilibrium_branch(params, orientation, [(trap, b_lab)], guess=0.2) == [res]


class TestCriticalField:
    def test_refinement_solves_only_new_fields(self, params, orientation, trap,
                                               monkeypatch):
        # 24 coarse fields, then 5 rounds of 3 interior fields each; the
        # reused end tilts leave the value bitwise that of re-solving them
        fields = []

        def recording(params, orientation, cases, *args, **kwargs):
            cases = list(cases)
            fields.extend(b_lab.magnitude for _, b_lab in cases)
            return equilibrium_branch(params, orientation, cases, *args, **kwargs)

        monkeypatch.setattr(mechanics, "equilibrium_branch", recording)
        assert critical_field(params, orientation, trap) == 0.11257494055706521
        assert len(fields) == 24 + 5 * 3
        assert len(set(fields)) == len(fields)

    def test_zero_trap_matches_crossing_field(self, params, orientation):
        free = TrapModel(trap_frequency=0.0)
        bc = critical_field(params, orientation, free)
        assert bc == pytest.approx(0.1024, abs=1e-3)

    @pytest.mark.parametrize("g2_mhz", [1.0, 5.0, 30.0])
    def test_zero_trap_is_the_chi_perp_zero(self, params, orientation, g2_mhz):
        # the closed form against a tight root of the closed-form chi_perp
        p = params.with_(gamma2_star=TWO_PI * g2_mhz * 1e6)
        root = brentq(lambda b: susceptibility_analytic(p, b).chi_perp, 0.09, 0.2,
                      xtol=1e-16)
        bc = critical_field(p, orientation, TrapModel(trap_frequency=0.0))
        assert bc == pytest.approx(root, rel=1e-13)

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
        # chi_perp vanishes at every field without pumping or spins
        for dead in (params.with_(pump_rate=0.0), params.with_(density=0.0)):
            with pytest.raises(RangeExhaustedError):
                critical_field(dead, orientation, free)

    @pytest.mark.parametrize("b_range", [(0.2, 0.09), (-0.2, 0.2), (0.1, 0.1),
                                         (0.09, np.inf), (np.nan, 0.2)])
    @pytest.mark.parametrize("trap_hz", [0.0, 500.0])
    def test_bad_b_range_rejected(self, params, orientation, b_range, trap_hz):
        trap = TrapModel(trap_frequency=TWO_PI * trap_hz, theta0=3.0 * DEG)
        with pytest.raises(ValueError, match="b_range"):
            critical_field(params, orientation, trap, b_range=b_range)

    @pytest.mark.parametrize("classes", [(7, 7), (), (0, 0), (-1,), (5,)])
    @pytest.mark.parametrize("trap_hz", [0.0, 500.0])
    def test_invalid_classes_rejected(self, params, orientation, classes, trap_hz):
        # the free closed form reads no class, and rejects them all the same
        trap = TrapModel(trap_frequency=TWO_PI * trap_hz, theta0=3.0 * DEG)
        with pytest.raises(ValueError, match="classes"):
            critical_field(params, orientation, trap, classes=classes)


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

    def test_analytic_is_inf_where_delta_minus_vanishes(self, orientation):
        # B = D/gamma_e of the default config exactly, where Delta_- = 0: the
        # |Delta_-|-only closed form diverges, and the numeric route answers
        p = load_config().spin_params()
        b = 0.10241221809877248
        assert p.zero_field_splitting - p.gyromagnetic_ratio * b == 0.0
        res = librational_frequency(p, orientation, TrapModel(), FieldVector(0.0, 0.0, b),
                                    classes=(0,))
        assert res.omega_analytic == np.inf
        assert res.stable and np.isfinite(res.omega_numeric)

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
        # before the crossing: at theta = 0 the total torque slope is
        # positive, so the stable tilt the libration solves lies off axis
        p = params.with_(n_spins_per_class=1e9)
        weak = TrapModel(trap_frequency=TWO_PI * 50.0, theta0=0.0)
        b = axial_field(orientation, 0.09)
        _, slope = tilt_torque_and_slope(p, tilt_geometry(orientation, b), [0.0],
                                         classes=(0,))
        assert slope[0] - weak.stiffness > 0.0
        res = librational_frequency(p, orientation, weak, b, classes=(0,))
        assert res.stable and abs(res.theta_star) > DEG

    def test_one_derivative_solve_per_row(self, params, orientation, trap, monkeypatch):
        # the slope equilibrium_angle took at theta* is the stiffness, bitwise
        # that of a separate slope at the same tilt
        calls = []
        original = mechanics.steady_state_moments

        def counting(params, b_nv, rows=None, directions=None):
            if directions is not None:
                calls.append(b_nv)
            return original(params, b_nv, rows, directions)

        monkeypatch.setattr(mechanics, "steady_state_moments", counting)
        b = axial_field(orientation, 0.15)
        solved = librational_frequency(params, orientation, trap, b)
        assert len(calls) == 1
        assert solved.stable
        _, slope = mechanics.tilt_torque_and_slope(params, tilt_geometry(orientation, b),
                                                   [solved.theta_star])
        assert len(calls) == 2
        assert solved.stiffness == -float(slope[0]) + trap.stiffness

        far = TrapModel(trap_frequency=TWO_PI * 500.0, theta0=4.0)
        unbound = librational_frequency(params, orientation, far, axial_field(orientation, 0.13))
        assert len(calls) == 2
        assert not unbound.stable
        assert np.isnan(unbound.theta_star) and np.isnan(unbound.stiffness)

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
