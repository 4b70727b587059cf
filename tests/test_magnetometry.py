"""Forward transition model and (theta, B) inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares, minimize_scalar

from nvspinmech import (NoSolutionError, SpinParams, TransitionPair,
                        invert_angle_field, magnetometry, transition_frequencies)
from nvspinmech.magnetometry import _flat_valley_width, _jacobian, _line_pairs

TWO_PI = 2.0 * np.pi
DEG = np.pi / 180.0

_SX = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / np.sqrt(2.0)
_SZ = np.diag([1.0, 0.0, -1.0])
_SZ2 = np.diag([1.0, 0.0, 1.0])


def _hamiltonian(params, theta, b):
    """NV ground-state Hamiltonian (rad/s) in the (|+1>, |0>, |-1>) basis."""
    gb = params.gyromagnetic_ratio * np.asarray(b, dtype=float)
    return (params.zero_field_splitting * _SZ2
            + (gb * np.sin(theta))[..., None, None] * _SX
            + (gb * np.cos(theta))[..., None, None] * _SZ)


def continued_pair(params, theta, b, n_steps):
    """Reference labels: greedy eigenvector-overlap continuation in field
    magnitude from B = 0 in ``n_steps`` steps, as (nu_minus, nu_plus) Hz."""
    vals, vecs = np.linalg.eigh(
        _hamiltonian(params, theta, np.linspace(0.0, b, n_steps + 1)[1:]))
    prev = np.eye(3)
    for k in range(n_steps):
        overlap = np.abs(prev.T @ vecs[k]) ** 2
        order = np.full(3, -1, dtype=int)
        taken = np.zeros(3, dtype=bool)
        for _ in range(3):
            i, j = np.unravel_index(np.argmax(np.where(taken, -1.0, overlap)), (3, 3))
            overlap[i, :] = -1.0
            order[i] = j
            taken[j] = True
        prev = vecs[k][:, order]
    e_p, e_0, e_m = vals[-1][order]
    return abs(e_m - e_0) / TWO_PI, abs(e_p - e_0) / TWO_PI


def zero_character_pair(params, theta, b):
    """Lines of the most |0>-like eigenstate, labelled by |-1>/|+1> weight."""
    vals, vecs = np.linalg.eigh(_hamiltonian(params, theta, b))
    weight = vecs**2
    k0 = int(np.argmax(weight[1]))
    k_minus, k_plus = sorted((k for k in range(3) if k != k0),
                             key=lambda k: -weight[2, k])
    return (abs(vals[k_minus] - vals[k0]) / TWO_PI,
            abs(vals[k_plus] - vals[k0]) / TWO_PI)


class TestForwardModel:
    def test_zero_field_degeneracy(self, params):
        tp = transition_frequencies(params, 0.0, 0.0)
        d_hz = params.zero_field_splitting / TWO_PI
        assert tp.nu_minus == pytest.approx(d_hz, rel=1e-12)
        assert tp.nu_plus == pytest.approx(d_hz, rel=1e-12)
        assert d_hz == pytest.approx(2.87e9, rel=1e-9)

    def test_axial_field_closed_form(self, params):
        # aligned: nu_-+ = (D -+ gamma_e B)/2pi
        b = 0.023
        tp = transition_frequencies(params, 0.0, b)
        zee = params.gyromagnetic_ratio * b / TWO_PI
        d_hz = params.zero_field_splitting / TWO_PI
        assert tp.nu_minus == pytest.approx(d_hz - zee, rel=1e-10)
        assert tp.nu_plus == pytest.approx(d_hz + zee, rel=1e-10)
        assert tp.nu_minus == pytest.approx(2.226e9, rel=3e-4)
        assert tp.nu_plus == pytest.approx(3.514e9, rel=3e-4)

    def test_past_crossing_label_tracks_pair(self, params):
        # at 180 mT the |0> <-> |-1|-labeled line reads gamma_e B - D
        tp = transition_frequencies(params, 0.0, 0.18)
        expected = (params.gyromagnetic_ratio * 0.18
                    - params.zero_field_splitting) / TWO_PI
        assert tp.nu_minus == pytest.approx(expected, rel=1e-9)
        assert tp.nu_minus == pytest.approx(2.17e9, rel=5e-3)

    def test_continuity_across_crossing(self, params):
        # adiabatic labels keep both lines continuous through the crossing
        for theta in (0.0, 0.08, 0.3):
            bs = np.linspace(0.08, 0.13, 101)
            nus = np.array([[transition_frequencies(params, theta, b).nu_minus,
                             transition_frequencies(params, theta, b).nu_plus]
                            for b in bs])
            step = np.max(np.abs(np.diff(nus, axis=0)), axis=0)
            # smooth slopes stay within a few Zeeman units per grid step; a
            # label swap would jump by the line separation (~GHz)
            bound = 2.5 * params.gyromagnetic_ratio * (bs[1] - bs[0]) / TWO_PI
            assert np.all(step < bound)

    def test_axial_monotonicity_up_to_crossing(self, params):
        bs = np.linspace(0.0, 0.1, 41)
        nus = np.array([[transition_frequencies(params, 0.0, b).nu_minus,
                         transition_frequencies(params, 0.0, b).nu_plus]
                        for b in bs])
        assert np.all(np.diff(nus[:, 0]) < 0.0)
        assert np.all(np.diff(nus[:, 1]) > 0.0)

    @pytest.mark.parametrize("theta_deg, b", [(1.0, 0.18), (1.0, 0.15), (0.3, 0.2)])
    def test_near_aligned_past_crossing_is_converged_continuation(
            self, params, theta_deg, b):
        # a 4000-step continuation is converged; energy rank is its limit
        tp = transition_frequencies(params, theta_deg * DEG, b)
        ref = continued_pair(params, theta_deg * DEG, b, n_steps=4000)
        assert tp.nu_minus == pytest.approx(ref[0], abs=1.0)
        assert tp.nu_plus == pytest.approx(ref[1], abs=1.0)

    def test_matches_short_continuation_below_crossing(self, params):
        # on the round-trip grid a 24-step continuation already agrees
        for theta in np.linspace(1.0, 89.0, 20) * DEG:
            for b in np.linspace(0.01, 0.12, 20):
                tp = transition_frequencies(params, theta, b)
                ref = continued_pair(params, theta, b, n_steps=24)
                assert abs(tp.nu_minus - ref[0]) < 1e-4
                assert abs(tp.nu_plus - ref[1]) < 1e-4

    def test_transverse_lines_stay_ordered(self, params):
        # at theta = pi/2 every level carries equal |-1> and |+1>
        # weight, so overlap labels follow rounding noise; rank does not
        for b in np.linspace(0.0, 0.3, 62)[1:]:
            tp = transition_frequencies(params, 0.5 * np.pi, b)
            assert tp.nu_minus < tp.nu_plus

    def test_input_validation(self, params):
        with pytest.raises(ValueError):
            transition_frequencies(params, -0.1, 0.05)
        with pytest.raises(ValueError):
            transition_frequencies(params, 0.1, -0.05)
        with pytest.raises(ValueError):
            TransitionPair(nu_minus=-1.0, nu_plus=2e9)


def grid_search_reference(params, pair, theta_range=(0.0, 0.5 * np.pi),
                          b_range=(0.0, 0.3)):
    """Reference: the deleted estimator.  Local minima of the cost on a
    31 x 31 grid, each with tilt-offset companions, start bounded least
    squares (nudged off the theta edges) until one reproduces the pair; the
    best fit then goes through the program's uncertainty block.  Returns
    (theta, B, theta_err)."""
    target = np.array([pair.nu_minus, pair.nu_plus])
    widths = np.array([pair.linewidth_minus or 0.0, pair.linewidth_plus or 0.0])
    thetas, bs = np.linspace(*theta_range, 31), np.linspace(*b_range, 31)
    cost = ((_line_pairs(params, thetas[:, None], bs) - target) ** 2).sum(axis=-1)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(cost, 1, constant_values=np.inf), (3, 3)).reshape(31, 31, 9)
    rows, cols = np.nonzero(cost <= np.delete(windows, 4, axis=-1).min(axis=-1))
    dt = thetas[1] - thetas[0]
    starts = []
    for k in np.argsort(cost[rows, cols], kind="stable")[:5]:
        i, j = rows[k], cols[k]
        starts += [(thetas[i], bs[j]), (thetas[i] + dt, bs[j])]
        if i > 0:
            starts.append((thetas[i] - dt, bs[j]))
    lower, upper = np.array([theta_range, b_range]).T
    eps = 2e-3 * (theta_range[1] - theta_range[0])
    best, best_rms = None, np.inf
    for x0 in starts:
        x0 = np.clip(x0, lower + [eps, 0.0], upper - [eps, 0.0])
        sol = least_squares(lambda x: _line_pairs(params, x[0], x[1]) - target, x0,
                            bounds=(lower, upper), xtol=1e-14, ftol=1e-14,
                            gtol=1e-14, x_scale=[1e-2, 1e-3])
        rms = float(np.sqrt(np.mean(sol.fun**2)))
        if rms < best_rms:
            best, best_rms = sol, rms
        if rms < 1e-6:
            break
    if best_rms > max(1e3, float(widths.max()) / 100.0):
        raise NoSolutionError(f"rms residual {best_rms:.3e} Hz")
    theta, b = best.x
    sigma = widths / 2.0
    jinv = np.linalg.inv(_jacobian(params, theta, b))
    theta_err = float(np.sqrt(max((jinv @ np.diag(sigma**2) @ jinv.T)[0, 0], 0.0)))
    theta_flat = _flat_valley_width(params, b, float(sigma.max()))
    if theta < theta_flat:
        theta_err = max(theta_err, theta_flat)
    return theta, b, min(theta_err, 0.5 * np.pi)


class TestInversion:
    def test_round_trip_on_grid(self, params):
        # forward then invert over a 20x20 grid recovers both parameters
        thetas = np.linspace(1.0, 89.0, 20) * DEG
        bs = np.linspace(0.01, 0.12, 20)
        worst_theta, worst_b = 0.0, 0.0
        for theta in thetas:
            for b in bs:
                tp = transition_frequencies(params, theta, b)
                est = invert_angle_field(params, tp)
                worst_theta = max(worst_theta, abs(est.theta - theta))
                worst_b = max(worst_b, abs(est.b - b))
        assert worst_theta < 0.1 * DEG
        assert worst_b < 1e-4

    def test_twin_configurations_share_line_pairs_past_crossing(self, params):
        # the documented high-field ambiguity: the lines of the pumped,
        # |0>-like state of a near-aligned field past the crossing are
        # reproduced by a tilted mid-field configuration
        tp = TransitionPair(*zero_character_pair(params, 1.0 * DEG, 0.18))
        est = invert_angle_field(params, tp, b_range=(0.0, 0.16))
        twin = transition_frequencies(params, est.theta, est.b)
        assert est.b < 0.16 and est.theta > 10 * DEG
        assert twin.nu_minus == pytest.approx(tp.nu_minus, abs=1.0)
        assert twin.nu_plus == pytest.approx(tp.nu_plus, abs=1.0)

    def test_known_pair_at_23_mT(self, params):
        est = invert_angle_field(params, TransitionPair(2.2254e9, 3.5146e9))
        assert est.b == pytest.approx(0.023, abs=1e-4)
        assert abs(est.theta) < 0.5 * DEG

    def test_residual_within_tolerance(self, params):
        tp = transition_frequencies(params, 12 * DEG, 0.17)
        est = invert_angle_field(params, tp)
        fwd = transition_frequencies(params, est.theta, est.b)
        assert abs(fwd.nu_minus - tp.nu_minus) < 1e3
        assert abs(fwd.nu_plus - tp.nu_plus) < 1e3

    def test_linewidth_propagates_to_angle_error(self, params):
        tp = transition_frequencies(params, 5 * DEG, 0.15)
        pair = TransitionPair(tp.nu_minus, tp.nu_plus,
                              linewidth_minus=10e6, linewidth_plus=10e6)
        est = invert_angle_field(params, pair)
        # degree-scale angle uncertainty for 10 MHz-wide lines
        assert 0.03 * DEG < est.theta_err < 5.0 * DEG
        assert 0.0 < est.b_err < 1e-3

    def test_aligned_case_inflates_angle_error(self, params):
        # at alignment the angle error spans the flat valley where neither
        # line moves by more than the measurement noise
        tp = transition_frequencies(params, 0.0, 0.08)
        pair = TransitionPair(tp.nu_minus, tp.nu_plus,
                              linewidth_minus=10e6, linewidth_plus=10e6)
        est = invert_angle_field(params, pair)
        tilted = transition_frequencies(params, 10 * DEG, 0.08)
        est_tilted = invert_angle_field(
            params, TransitionPair(tilted.nu_minus, tilted.nu_plus,
                                   linewidth_minus=10e6, linewidth_plus=10e6))
        assert est.theta_err > 3.0 * est_tilted.theta_err

    def test_unreachable_pair_raises(self, params):
        with pytest.raises(NoSolutionError):
            invert_angle_field(params, TransitionPair(1.0e9, 9.0e9))

    def test_matches_grid_search_reference_on_noisy_pairs(self, params):
        # the closed form and one polish land where the deleted multi-start
        # search did, and fail on the same pairs
        rng = np.random.default_rng(7)
        errors = {1e5: [0, 0], 3e6: [0, 0]}
        for sigma in errors:
            for _ in range(150):
                nu = (_line_pairs(params, rng.uniform(0.0, 0.5 * np.pi),
                                  rng.uniform(0.005, 0.3)) + rng.normal(0.0, sigma, 2))
                pair = TransitionPair(*nu, linewidth_minus=10e6, linewidth_plus=10e6)
                try:
                    ref = grid_search_reference(params, pair)
                except NoSolutionError:
                    errors[sigma][0] += 1
                    ref = None
                try:
                    est = invert_angle_field(params, pair)
                except NoSolutionError:
                    errors[sigma][1] += 1
                    assert ref is None
                    continue
                assert ref is not None
                assert est.theta == pytest.approx(ref[0], abs=1e-9 * DEG)
                assert est.b == pytest.approx(ref[1], abs=1e-14)
                assert est.theta_err == pytest.approx(ref[2], rel=1e-8)
        assert errors[1e5] == [0, 0]
        assert errors[3e6][0] == errors[3e6][1] > 0

    @pytest.mark.parametrize("theta", [0.0, 1e-4, 0.01 * DEG, 0.5 * DEG, 45 * DEG,
                                       89.99 * DEG, 90 * DEG])
    def test_edge_case_round_trip(self, params, theta):
        # aligned, transverse, at a few mT and on both sides of the crossing
        # (D / gamma_e = 102.41 mT)
        for b in np.array([1, 5, 50, 100, 102.3, 102.5, 150, 250, 300]) * 1e-3:
            tp = transition_frequencies(params, theta, b)
            est = invert_angle_field(params, tp)
            fwd = transition_frequencies(params, est.theta, est.b)
            assert abs(est.theta - theta) < 1e-7
            assert abs(est.b - b) < 1e-14
            assert abs(fwd.nu_minus - tp.nu_minus) < 1e-4
            assert abs(fwd.nu_plus - tp.nu_plus) < 1e-4

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(0.0, 0.5 * np.pi), st.floats(0.005, 0.3))
    def test_model_pairs_are_reproduced(self, theta, b):
        params = SpinParams()
        tp = transition_frequencies(params, theta, b)
        est = invert_angle_field(params, tp)
        fwd = transition_frequencies(params, est.theta, est.b)
        assert abs(fwd.nu_minus - tp.nu_minus) <= 1e-3
        assert abs(fwd.nu_plus - tp.nu_plus) <= 1e-3

    def test_one_least_squares_call_per_inversion(self, params, monkeypatch):
        results = []
        polish = magnetometry.least_squares

        def counting(*args, **kwargs):
            results.append(polish(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(magnetometry, "least_squares", counting)
        for theta, b in [(0.0, 0.023), (12 * DEG, 0.17), (89 * DEG, 0.3)]:
            invert_angle_field(params, transition_frequencies(params, theta, b))
        with pytest.raises(NoSolutionError):
            invert_angle_field(params, TransitionPair(1.0e9, 9.0e9))
        assert len(results) == 4
        assert all(type(r.nfev) is int and r.nfev >= 1 for r in results)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(0.0, 0.5 * np.pi), st.floats(0.005, 0.3),
           st.floats(-3e6, 3e6), st.floats(-3e6, 3e6),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_polish_stays_in_box_and_never_raises_cost(self, theta, b, noise_minus,
                                                       noise_plus, u_theta, u_b):
        # noisy targets, starts anywhere in a box that may exclude the truth
        params = SpinParams()
        target = _line_pairs(params, theta, b) + [noise_minus, noise_plus]
        lower, upper = np.array([0.0, 0.0]), np.array([0.5 * np.pi, 0.2])
        x0 = lower + np.array([u_theta, u_b]) * (upper - lower)
        sol = magnetometry.least_squares(params, target, x0, lower, upper)
        start = _line_pairs(params, *x0) - target
        assert np.all((lower <= sol.x) & (sol.x <= upper))
        assert sol.fun @ sol.fun <= start @ start
        assert np.array_equal(sol.fun, _line_pairs(params, *sol.x) - target)
        assert type(sol.nfev) is int and 1 <= sol.nfev <= magnetometry._POLISH_EVALS

    @pytest.mark.parametrize("theta, b, theta_max", [
        (60 * DEG, 0.05, 30 * DEG), (80 * DEG, 0.2, 20 * DEG),
        (45 * DEG, 0.12, 10 * DEG), (20 * DEG, 0.01, 5 * DEG)])
    def test_polish_holds_bound_and_fits_the_field_alone(self, params, theta, b,
                                                         theta_max):
        # the true tilt lies beyond the angle range: the bounded best fit
        # holds theta at its bound and is the best field along that edge
        target = _line_pairs(params, theta, b)
        lower, upper = np.array([0.0, 0.0]), np.array([theta_max, 0.3])
        sol = magnetometry.least_squares(params, target, [theta_max, b], lower, upper)
        edge = minimize_scalar(
            lambda bb: float(np.sum((_line_pairs(params, theta_max, bb) - target) ** 2)),
            bounds=(0.0, 0.3), method="bounded", options={"xatol": 1e-13})
        assert sol.x[0] == theta_max
        assert sol.x[1] == pytest.approx(edge.x, abs=1e-7)

    @pytest.mark.parametrize("nu_minus, nu_plus, width", [
        (np.nan, 3e9, None), (2e9, np.inf, None), (0.0, 3e9, None),
        (2e9, 3e9, -5e6), (2e9, 3e9, np.nan), (2e9, 3e9, np.inf)])
    def test_pair_rejects_bad_input(self, nu_minus, nu_plus, width):
        with pytest.raises(ValueError):
            TransitionPair(nu_minus, nu_plus, linewidth_minus=width)
        with pytest.raises(ValueError):
            TransitionPair(nu_plus, nu_minus, linewidth_plus=width)

    @pytest.mark.parametrize("theta_range, b_range", [
        ((0.0, 1.0), (0.0, -0.1)), ((0.0, 1.0), (0.0, np.inf)),
        ((0.0, 1.0), (0.2, 0.1)), ((0.0, 1.0), (np.nan, 0.3)),
        ((-0.1, 1.0), (0.0, 0.3)), ((0.0, 0.0), (0.0, 0.3))])
    def test_invert_rejects_bad_ranges(self, params, theta_range, b_range):
        name = "b_range" if theta_range == (0.0, 1.0) else "theta_range"
        with pytest.raises(ValueError, match=name):
            invert_angle_field(params, TransitionPair(2.2254e9, 3.5146e9),
                               theta_range=theta_range, b_range=b_range)
