"""The exact tilt slope and torque curl against finite differences.

``richardson_stiffness`` is the Richardson-extrapolated landscape
curvature that the exact stiffness replaced in ``librational_frequency``,
and ``stencil_curl`` the central-difference curl that the exact curl
replaced in ``landscape_curl_check``; both are kept here as references.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvspinmech import (CrystalOrientation, SpinParams, TiltGeometry, TrapModel,
                        landscape_curl_check, librational_frequency,
                        steady_state_batch, steady_state_derivative_batch, steady_state_moments,
                        tilt_torque_and_slope, tilt_torque_batch)
from nvspinmech.constants import HBAR
from nvspinmech.mechanics import (axial_field, _class_fields, _dot3,
                                  _integrate_torque)

from conftest import spin_params

TWO_PI = 2.0 * np.pi
ORIENTATION = CrystalOrientation.identity()


def richardson_stiffness(params, geom, theta, step, classes):
    """-d(tau)/d(theta) from U(theta +- h) - U(theta) by torque integrals,
    Richardson-extrapolated over the steps h and h/2."""

    def curvature(h):
        up = -_integrate_torque(params, geom, theta, theta + h, classes)
        dn = _integrate_torque(params, geom, theta - h, theta, classes)
        return (up + dn) / h**2

    return (4.0 * curvature(0.5 * step) - curvature(step)) / 3.0


def richardson_slope(params, geom, thetas, h, classes):
    """Fourth-order central differences of tilt_torque_batch."""
    t = [tilt_torque_batch(params, geom, thetas + k * h, classes) for k in (-2, -1, 1, 2)]
    return (t[0] - 8.0 * t[1] + 8.0 * t[2] - t[3]) / (12.0 * h)


def stencil_curl(params, b_mag, theta, phi, h, classes=(0, 1, 2, 3)):
    """|d(tau_theta)/dphi - d(tau_phi)/dtheta| by central differences over
    the local torque scale, as landscape_curl_check normalizes it."""
    points = [(theta, phi + h), (theta, phi - h), (theta + h, phi), (theta - h, phi),
              (theta, phi)]
    geoms = [(TiltGeometry(b_mag=b_mag, phi=ph), th) for th, ph in points]
    b, db_th = np.concatenate([g.field_and_derivative(th) for g, th in geoms], axis=1)
    fields = _class_fields(b, classes)  # each class in its fixed class frame
    m, _ = steady_state_moments(params, fields.reshape(-1, 3))
    moments = -HBAR * params.gyromagnetic_ratio * m.reshape(fields.shape)

    def torque_along(db):  # N * sum_c m_c . db_c
        return params.n_spins_per_class * sum(_dot3(moments, _class_fields(db, classes)))

    tau_th = torque_along(db_th)
    tau_ph = torque_along(np.array([b_mag * np.sin(th) * np.cross(g.z0, g.e_phi)
                                    for g, th in geoms]))
    curl = (tau_th[0] - tau_th[1]) / (2 * h) - (tau_ph[2] - tau_ph[3]) / (2 * h)
    scale = max(abs(tau_th[4]), abs(tau_ph[4]),
                1e-9 * params.n_spins_per_class * HBAR * params.gyromagnetic_ratio * b_mag)
    return abs(curl) / scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spin_params, st.floats(0.02, 0.2), st.floats(0.0, TWO_PI),
       st.lists(st.floats(-0.3, 1.6), min_size=1, max_size=5),
       st.sampled_from([(0,), (0, 1, 2, 3)]))
def test_slope_matches_richardson_differences(params, b_mag, phi, thetas, classes):
    geom = TiltGeometry(b_mag=b_mag, phi=phi)
    thetas = np.array(thetas)
    torque, slope = tilt_torque_and_slope(params, geom, thetas, classes)
    assert np.array_equal(torque, tilt_torque_batch(params, geom, thetas, classes))
    # h = 1e-3 does not resolve the torque near theta = 0 at slow pumping
    # (0.4 percent at P = 1e4/s, 0.125 T); the differences converge on the
    # exact slope at O(h^4) down to h = 1e-5, where rounding stays ~1e-10
    reference = richardson_slope(params, geom, thetas, 1e-5, classes)
    assert np.max(np.abs(slope - reference)) <= 1e-6 * np.max(np.abs(slope))


def test_state_derivative_matches_central_difference():
    params = SpinParams()
    rng = np.random.default_rng(5)
    b = rng.normal(scale=0.08, size=(6, 3))
    d = rng.normal(size=(6, 2, 3))
    rhos, drhos = steady_state_derivative_batch(params, b, d)
    assert np.array_equal(rhos, steady_state_batch(params, b))
    h = 1e-7
    for n in range(2):
        fd = (steady_state_batch(params, b + h * d[:, n])
              - steady_state_batch(params, b - h * d[:, n])) / (2 * h)
        assert np.max(np.abs(drhos[:, n] - fd)) <= 1e-6 * np.max(np.abs(fd))
        # zero trace to the solve's rounding, as the states' own trace
        assert np.max(np.abs(np.trace(drhos[:, n], axis1=1, axis2=2))) <= 1e-11 * np.max(
            np.abs(drhos[:, n]))
    assert np.array_equal(drhos, np.conj(np.swapaxes(drhos, -1, -2)))


class TestStiffnessAgainstRichardsonCurvature:
    @pytest.mark.parametrize("classes", [(0,), (0, 1, 2, 3)])
    def test_criterion_4a_parameters(self, classes):
        params = SpinParams(n_spins_per_class=1e9, pump_rate=1e9)
        trap = TrapModel(moment_of_inertia=1e-22, trap_frequency=0.0)
        res = librational_frequency(params, ORIENTATION, trap, axial_field(ORIENTATION, 0.2),
                                    classes=classes)
        geom = TiltGeometry(b_mag=0.2, phi=0.0)
        ref = richardson_stiffness(params, geom, res.theta_star, 2e-3, classes)
        assert res.stiffness == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("variable", ["field", "pump_rate"])
    def test_libration_recipe_points(self, variable):
        # the README libration recipes: one tracked class, 1e9 spins, no
        # trap, over the default field sweep or pump rates 1e3..1e6 at 0.13 T
        free = TrapModel(moment_of_inertia=1e-22, trap_frequency=0.0)
        checked = 0
        sweep = np.linspace(0.005, 0.2, 40) if variable == "field" else np.linspace(1e3, 1e6, 40)
        for v in sweep:
            b, pump = (v, 1e6) if variable == "field" else (0.13, v)
            params = SpinParams(n_spins_per_class=1e9, pump_rate=pump)
            res = librational_frequency(params, ORIENTATION, free, axial_field(ORIENTATION, b),
                                        classes=(0,))
            if res.theta_star != 0.0:
                continue
            checked += 1
            geom = TiltGeometry(b_mag=b, phi=0.0)
            err = {h: abs(richardson_stiffness(params, geom, 0.0, h, (0,)) / res.stiffness
                          - 1.0) for h in (2e-3, 1e-3, 5e-4)}
            # fourth order: halving the step divides the error by ~16
            assert 12.0 < err[1e-3] / err[5e-4] < 20.0, (v, err)
            # away from the crossing and slow pumping, the removed step's
            # omega_numeric (half the stiffness error) agreed to 1e-5
            if b >= 0.12 and pump >= 4e5:
                assert 0.5 * err[2e-3] <= 1e-5, (v, err)
        assert checked >= 20


@pytest.mark.parametrize("b_mag,seed", [(0.05, 2), (0.08, 1), (0.13, 4)])
def test_stencil_curl_converges_to_exact_at_second_order(b_mag, seed):
    params = SpinParams()
    exact = landscape_curl_check(params, ORIENTATION, axial_field(ORIENTATION, b_mag),
                                 n_samples=1, seed=seed)
    rng = np.random.default_rng(seed)
    theta, phi = float(rng.uniform(0.1, 1.2)), float(rng.uniform(0.0, TWO_PI))
    e1, e2 = (abs(stencil_curl(params, b_mag, theta, phi, h) - exact) for h in (1e-3, 5e-4))
    assert 3.5 < e1 / e2 < 4.5
