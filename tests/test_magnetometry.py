"""Forward transition model and (theta, B) inversion."""

import numpy as np
import pytest

from nvspinmech import (NoSolutionError, TransitionPair, invert_angle_field,
                        transition_frequencies)
from nvspinmech.magnetometry import _candidate_starts

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


def local_minima_loop(cost):
    """Reference: (i, j) of every point not above its neighbours, ordered by
    cost, ties in row-major order."""
    n_t, n_b = cost.shape
    minima = []
    for i in range(n_t):
        for j in range(n_b):
            neighbors = [cost[ii, jj]
                         for ii in (i - 1, i, i + 1) if 0 <= ii < n_t
                         for jj in (j - 1, j, j + 1) if 0 <= jj < n_b
                         if (ii, jj) != (i, j)]
            if cost[i, j] <= min(neighbors):
                minima.append((cost[i, j], i, j))
    minima.sort(key=lambda m: m[0])
    return [(i, j) for _, i, j in minima]


class TestInversion:
    def test_candidate_starts_match_loop_reference(self):
        rng = np.random.default_rng(3)
        thetas, bs = np.linspace(0.0, 1.5, 31), np.linspace(0.0, 0.3, 31)
        # integer costs make plateaus and ties between separate minima
        for cost in (rng.random((31, 31)), rng.integers(0, 4, (31, 31)) * 1.0):
            dt = thetas[1] - thetas[0]
            expected = []
            for i, j in local_minima_loop(cost)[:5]:
                expected += [(thetas[i], bs[j]), (thetas[i] + dt, bs[j])]
                if i > 0:
                    expected.append((thetas[i] - dt, bs[j]))
            starts = _candidate_starts(thetas, bs, cost)
            assert np.array_equal(np.array(starts), np.array(expected))

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
