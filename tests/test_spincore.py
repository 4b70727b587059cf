"""Spin Hamiltonian, steady states and the three susceptibility routes.

The closed-form first-order solution (populations and probe-induced
coherences) is evaluated independently here and used as the oracle for the
full Liouvillian solver; the numeric susceptibility is in turn checked
against the closed-form tensor on a field grid.
"""

import numpy as np
import pytest

from nvspinmech import (FieldVector, SingularDetuningError, SpinParams, SteadyStateError,
                        build_hamiltonian, check_density_matrix, detunings,
                        eigen_energies_vs_field, magnetization, magnetic_moment,
                        minimum_gap, spin_expectation, steady_state,
                        steady_state_batch, susceptibility_analytic,
                        susceptibility_numeric, susceptibility_van_vleck)
from nvspinmech.constants import HBAR, MU0
from nvspinmech.spincore import _dissipator_matrix

TWO_PI = 2.0 * np.pi


def first_order_populations(p: SpinParams):
    """Unperturbed steady-state populations (rho_11, rho_00, rho_-1-1)."""
    denom = 3.0 * p.gamma1 + p.pump_rate
    side = p.gamma1 / denom
    return side, (p.pump_rate + p.gamma1) / denom, side


def first_order_coherence_0m1(p: SpinParams, b0: float, db_x: float) -> complex:
    """Probe-induced |0><-1| coherence of the first-order solution."""
    d_m, _ = detunings(p, b0)
    g2 = p.gamma2_star
    factor = p.pumping_factor
    lorentz = (-d_m + 1j * g2) / (d_m**2 + g2**2)
    return factor * lorentz * p.gyromagnetic_ratio / np.sqrt(2.0) * db_x


class TestHamiltonian:
    def test_zero_field_splitting_degeneracy(self, params):
        h = build_hamiltonian(params, (0.0, 0.0, 0.0))
        evals = np.sort(np.linalg.eigvalsh(h))
        d = HBAR * params.zero_field_splitting
        assert abs(evals[0]) < 1e-40
        assert np.allclose(evals[1:], [d, d], rtol=1e-12)

    def test_level_crossing_near_102_mT(self, params):
        h = build_hamiltonian(params, (0.0, 0.0, 0.1024))
        evals = np.sort(np.linalg.eigvalsh(h))
        # |0> and |-1| nearly degenerate at the crossing field
        assert abs(evals[1] - evals[0]) < HBAR * TWO_PI * 1e6

    def test_transition_at_180_mT(self, params):
        b = 0.18
        h = build_hamiltonian(params, (0.0, 0.0, b))
        evals = np.sort(np.linalg.eigvalsh(h))
        nu = (evals[1] - evals[0]) / HBAR / TWO_PI
        expected = params.gyromagnetic_ratio * b / TWO_PI \
            - params.zero_field_splitting / TWO_PI
        assert nu == pytest.approx(expected, rel=1e-12)
        assert nu == pytest.approx(2.17e9, rel=5e-3)

    def test_hermitian_for_random_fields(self, params):
        rng = np.random.default_rng(7)
        for _ in range(20):
            b = rng.normal(scale=0.1, size=3)
            h = build_hamiltonian(params, b)
            assert np.allclose(h, h.conj().T, atol=1e-40)

    def test_rejects_non_finite_field(self, params):
        with pytest.raises(ValueError):
            build_hamiltonian(params, (np.nan, 0.0, 0.0))
        with pytest.raises(ValueError):
            build_hamiltonian(params, (0.0, np.inf, 0.0))

    def test_field_vector_frame_enforced(self, params):
        with pytest.raises(ValueError, match="frame"):
            build_hamiltonian(params, FieldVector(0.0, 0.0, 0.1, frame="lab"))


class TestSteadyState:
    def test_pumped_populations_match_first_order(self):
        for pump in (1e4, 1e5, 1e6):
            p = SpinParams(pump_rate=pump)
            rho = steady_state(p, (0.0, 0.0, 0.05))
            pops = np.diag(rho).real
            assert np.allclose(pops, first_order_populations(p), rtol=1e-12)

    def test_unpumped_state_is_maximally_mixed(self):
        p = SpinParams(pump_rate=0.0)
        rho = steady_state(p, (0.0, 0.0, 0.03))
        assert np.allclose(rho, np.eye(3) / 3.0, atol=1e-12)

    def test_probe_coherence_matches_closed_form(self):
        # resonance condition Delta_-1 = Gamma2*, tiny probe keeps the
        # second-order correction below the comparison tolerance
        p = SpinParams()
        b0 = (p.zero_field_splitting - p.gamma2_star) / p.gyromagnetic_ratio
        db = 1e-9
        rho = steady_state(p, (db, 0.0, b0))
        expected = first_order_coherence_0m1(p, b0, db)
        assert abs(rho[1, 2] - expected) / abs(expected) < 1e-8

    def test_batch_agrees_with_single(self, params):
        rng = np.random.default_rng(3)
        fields = rng.normal(scale=0.08, size=(12, 3))
        batch = steady_state_batch(params, fields)
        for b, rho in zip(fields, batch):
            assert np.allclose(rho, steady_state(params, b), atol=1e-13)

    def test_batch_rejects_malformed_fields(self, params):
        with pytest.raises(ValueError):
            steady_state_batch(params, np.array([[0.0, 0.1]]))
        with pytest.raises(ValueError):
            steady_state_batch(params, np.array([[np.nan, 0.0, 0.1]]))

    def test_invariants_over_random_draws(self):
        # trace, Hermiticity, positivity over 1000 random (params, B) draws
        rng = np.random.default_rng(42)
        n_param_sets, fields_per_set = 100, 10
        for _ in range(n_param_sets):
            p = SpinParams(
                gamma2_star=TWO_PI * rng.uniform(1e6, 2e7),
                gamma1=rng.uniform(5e2, 1e4),
                pump_rate=rng.uniform(1e4, 1e6),
            )
            fields = rng.normal(scale=0.1, size=(fields_per_set, 3))
            rhos = steady_state_batch(p, fields)
            for rho in rhos:
                check_density_matrix(rho)


    def test_singular_generator_raises_typed_error(self, params):
        # cancelling the incoherent terms at B = 0 leaves a commutator whose
        # null space (every state diagonal in the zero-field eigenbasis) the
        # trace row cannot lift
        cancel = -_dissipator_matrix(params.gamma1, params.gamma2_star, params.pump_rate)
        with pytest.raises(SteadyStateError) as single:
            steady_state(params, (0.0, 0.0, 0.0), extra_superoperator=cancel)
        with pytest.raises(SteadyStateError) as batch:
            steady_state_batch(params, np.array([[0.0, 0.0, 0.1], [0.0, 0.0, 0.0]]),
                               extra_superoperator=cancel)
        for info in (single, batch):
            assert info.value.condition > 1e12
            assert "condition estimate" in str(info.value)


class TestMagnetization:
    def test_mixed_state_has_no_moment(self, params):
        m = magnetization(params, np.eye(3, dtype=complex) / 3.0)
        assert np.allclose(m, 0.0, atol=1e-30)

    def test_stretched_state_moment(self, params):
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        m = magnetization(params, rho)
        expected = -params.density * HBAR * params.gyromagnetic_ratio
        assert m[2] == pytest.approx(expected, rel=1e-12)
        assert np.allclose(m[:2], 0.0, atol=1e-30)

    def test_probe_response_matches_closed_form_slope(self):
        # finite difference of the magnetization against the closed-form
        # transverse response at Delta_-1 = 2*Gamma2*
        p = SpinParams()
        b0 = (p.zero_field_splitting - 2.0 * p.gamma2_star) / p.gyromagnetic_ratio
        db = 3e-8
        mp = magnetization(p, steady_state(p, (db, 0.0, b0)))
        mm = magnetization(p, steady_state(p, (-db, 0.0, b0)))
        slope = (mp[0] - mm[0]) / (2.0 * db)
        chi = susceptibility_analytic(p, b0)
        assert slope * MU0 == pytest.approx(chi.chi_perp, rel=1e-6)

    def test_moment_is_per_center(self, params):
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        m = magnetic_moment(params, rho)
        assert m[2] == pytest.approx(-HBAR * params.gyromagnetic_ratio, rel=1e-12)


class TestSusceptibility:
    def test_numeric_matches_analytic_on_grid(self, params):
        for b0 in np.linspace(0.0, 0.2, 50):
            num = susceptibility_numeric(params, b0)
            ana = susceptibility_analytic(params, b0)
            assert num.chi_perp == pytest.approx(ana.chi_perp, rel=1e-6, abs=1e-11)
            assert num.chi_d == pytest.approx(ana.chi_d, rel=1e-6, abs=1e-11)

    def test_longitudinal_response_vanishes(self, params):
        for b0 in (0.0, 0.05, 0.102, 0.15):
            num = susceptibility_numeric(params, b0)
            assert abs(num.chi_par) < 1e-12
            assert susceptibility_analytic(params, b0).chi_par == 0.0

    def test_far_detuned_limit_vanishes(self, params):
        # both detunings grow with field; response decays away from the crossing
        chi_1t = susceptibility_analytic(params, 1.0).chi_perp
        chi_02 = susceptibility_analytic(params, 0.2).chi_perp
        assert abs(chi_1t) < 0.2 * abs(chi_02)

    def test_low_field_magnitude(self, params):
        # 1 ppm, full pumping: transverse response approx 2*d*hbar*mu0*g^2/D
        chi = susceptibility_analytic(params, 0.0).chi_perp
        approx = (2.0 * params.density * HBAR * MU0
                  * params.gyromagnetic_ratio**2 / params.zero_field_splitting)
        # approximate identity: exact form carries a (gamma2*/D)^2 correction
        assert chi == pytest.approx(approx * params.pumping_factor, rel=1e-5)
        assert 0.5e-4 < chi < 2e-4

    def test_single_sign_change_near_crossing(self, params):
        grid = np.linspace(0.09, 0.12, 1501)
        values = np.array([susceptibility_analytic(params, b).chi_perp for b in grid])
        flips = np.sum(np.diff(np.sign(values)) != 0)
        assert flips == 1

    def test_reactive_component_structure(self, params):
        # difference of Lorentzians: zero at zero field, positive for any
        # nonzero axial bias (the narrower |0>->|-1| line always dominates),
        # no sign change across the crossing
        assert susceptibility_analytic(params, 0.0).chi_d == 0.0
        for b0 in (0.02, 0.09, 0.1024, 0.11, 0.2):
            assert susceptibility_analytic(params, b0).chi_d > 0.0

    def test_finite_difference_is_second_order(self, params):
        # halving the probe shrinks the plain central-difference error ~4x
        b0 = 0.101
        ana = susceptibility_analytic(params, b0).chi_perp

        def plain_central(h):
            mp = magnetization(params, steady_state(params, (h, 0.0, b0)))
            mm = magnetization(params, steady_state(params, (-h, 0.0, b0)))
            return MU0 * (mp[0] - mm[0]) / (2.0 * h)

        err1 = abs(plain_central(4e-6) - ana)
        err2 = abs(plain_central(2e-6) - ana)
        assert 3.0 < err1 / err2 < 5.0

    def test_step_validation(self, params):
        with pytest.raises(ValueError):
            susceptibility_numeric(params, 0.1, step=0.0)
        with pytest.raises(ValueError):
            susceptibility_numeric(params, 0.1, step=np.nan)

    def test_tensor_matrix_form(self, params):
        t = susceptibility_analytic(params, 0.05)
        m = t.matrix
        assert m[0, 0] == m[1, 1] == t.chi_perp
        assert m[1, 0] == -m[0, 1] == t.chi_d
        assert m[2, 2] == t.chi_par == 0.0


class TestVanVleck:
    def test_polarized_zero_field_value(self, params):
        chi = susceptibility_van_vleck(params, (0.0, 1.0, 0.0), 0.0)
        expected = (2.0 * params.density * HBAR * MU0
                    * params.gyromagnetic_ratio**2 / params.zero_field_splitting)
        assert chi == pytest.approx(expected, rel=1e-12)

    def test_equal_populations_give_zero(self, params):
        assert susceptibility_van_vleck(params, (1/3, 1/3, 1/3), 0.07) == 0.0

    def test_singular_detuning_rejected(self, params):
        b_cross = params.zero_field_splitting / params.gyromagnetic_ratio
        with pytest.raises(SingularDetuningError):
            susceptibility_van_vleck(params, (0.0, 1.0, 0.0), b_cross)

    def test_populations_must_sum_to_one(self, params):
        with pytest.raises(ValueError):
            susceptibility_van_vleck(params, (0.3, 0.3, 0.3), 0.05)

    def test_matches_analytic_in_narrow_line_limit(self):
        # agreement improves as the linewidth shrinks at fixed detuning
        b0 = 0.095  # Delta_-1 ~ 2*pi*0.2 GHz
        errs = []
        for g2_hz in (5e6, 5e5, 5e4):
            p = SpinParams(gamma2_star=TWO_PI * g2_hz)
            pops = np.diag(steady_state(p, (0.0, 0.0, b0))).real
            chi_vv = susceptibility_van_vleck(p, (pops[2], pops[1], pops[0]), b0)
            chi_an = susceptibility_analytic(p, b0).chi_perp
            errs.append(abs(chi_vv - chi_an) / abs(chi_an))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6


class TestEigenTracking:
    def test_aligned_sweep_has_exact_crossing(self, params):
        bs = np.linspace(0.09, 0.115, 121)
        levels = eigen_energies_vs_field(params, 0.0, bs)
        gap = minimum_gap(levels)
        # grid granularity limits the observed minimum in the crossing case
        assert gap < HBAR * TWO_PI * 8e6

    def test_tilted_sweep_has_avoided_crossing(self, params):
        bs = np.linspace(0.09, 0.135, 121)
        levels = eigen_energies_vs_field(params, 0.2, bs)
        assert minimum_gap(levels) > HBAR * TWO_PI * 3e8

    def test_gap_grows_with_tilt(self, params):
        bs = np.linspace(0.09, 0.135, 81)
        gaps = [minimum_gap(eigen_energies_vs_field(params, th, bs))
                for th in (0.01, 0.05, 0.1, 0.2)]
        assert np.all(np.diff(gaps) > 0.0)

    def test_labels_follow_through_crossing(self, params):
        # the |-1|-labeled branch keeps falling through the crossing instead
        # of being re-sorted by energy
        bs = np.linspace(0.05, 0.15, 201)
        levels = eigen_energies_vs_field(params, 0.0, bs)
        e_m1 = np.array([ls.energies[2] for ls in levels])
        assert np.all(np.diff(e_m1) < 0.0)

    def test_population_inversion_past_crossing(self, params):
        # strong pumping keeps the |0>-labeled state dominant; past the
        # crossing it is the higher-energy state of the (|0>, |-1|) pair
        levels = eigen_energies_vs_field(params, 0.0, [0.13])[0]
        assert np.argmax(levels.populations) == 1
        assert levels.energies[1] > levels.energies[2]
        assert levels.populations[1] > 0.9


class TestSpinExpectation:
    def test_zero_for_mixed_state(self):
        assert np.allclose(spin_expectation(np.eye(3, dtype=complex) / 3), 0.0)

    def test_sz_eigenstates(self):
        rho = np.zeros((3, 3), dtype=complex)
        rho[2, 2] = 1.0
        assert spin_expectation(rho)[2] == pytest.approx(-1.0)
