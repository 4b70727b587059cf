"""Spin Hamiltonian, steady states and the three susceptibility routes.

The closed-form first-order solution (populations and probe-induced
coherences) is evaluated independently here and used as the oracle for the
full Liouvillian solver; the numeric susceptibility, the exact derivative
of the solved steady state, is in turn checked against the closed-form
tensor over random parameters and against the Richardson-extrapolated
field probe it replaced (``richardson_probe``, kept here as a reference).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvspinmech import (FieldVector, MicrowaveDrive, SingularDetuningError, SpinParams,
                        SteadyStateError, check_density_matrix, detunings, magnetization,
                        microwave_superoperator, spin_expectation, steady_state,
                        steady_state_batch, steady_state_derivative_batch,
                        steady_state_moments, susceptibility_analytic,
                        susceptibility_numeric, susceptibility_van_vleck,
                        zero_connected_lines)
from nvspinmech import spincore
from nvspinmech.constants import HBAR, MU0
from nvspinmech.spincore import (_density_matrices, _dissipator_matrix, _hamiltonian_batch,
                                 _moments)

TWO_PI = 2.0 * np.pi


def probe_step(p: SpinParams) -> float:
    """Probe field step (tesla) of the finite-difference susceptibility that
    the exact derivative replaced: small enough to stay linear near the
    crossing and below the saturation of slowly pumped populations."""
    base = max(1.0e-6, 1.0e-3 * p.gamma2_star / p.gyromagnetic_ratio)
    saturation = np.sqrt(1.0e-3 * p.gamma2_star * (3.0 * p.gamma1 + p.pump_rate))
    return float(max(min(base, saturation / p.gyromagnetic_ratio), 1.0e-9))


def richardson_probe(p: SpinParams, b0: float, h: float):
    """(chi_perp, chi_d) from central differences of the magnetization under
    an x probe, Richardson-extrapolated over the steps h and h/2."""

    def central(hh):
        mp = magnetization(p, steady_state(p, (hh, 0.0, b0)))
        mm = magnetization(p, steady_state(p, (-hh, 0.0, b0)))
        return MU0 * (mp[:2] - mm[:2]) / (2.0 * hh)

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


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


def hamiltonians(params, *fields):
    """Hamiltonians (J) of ``_hamiltonian_batch`` at a stack of NV-frame fields."""
    return HBAR * _hamiltonian_batch(params, np.array(fields, dtype=float))


class TestHamiltonian:
    def test_zero_field_splitting_degeneracy(self, params):
        evals = np.sort(np.linalg.eigvalsh(hamiltonians(params, (0.0, 0.0, 0.0))[0]))
        d = HBAR * params.zero_field_splitting
        assert abs(evals[0]) < 1e-40
        assert np.allclose(evals[1:], [d, d], rtol=1e-12)

    def test_level_crossing_near_102_mT(self, params):
        evals = np.sort(np.linalg.eigvalsh(hamiltonians(params, (0.0, 0.0, 0.1024))[0]))
        # |0> and |-1| nearly degenerate at the crossing field
        assert abs(evals[1] - evals[0]) < HBAR * TWO_PI * 1e6

    def test_transition_at_180_mT(self, params):
        b = 0.18
        evals = np.sort(np.linalg.eigvalsh(hamiltonians(params, (0.0, 0.0, b))[0]))
        nu = (evals[1] - evals[0]) / HBAR / TWO_PI
        expected = params.gyromagnetic_ratio * b / TWO_PI \
            - params.zero_field_splitting / TWO_PI
        assert nu == pytest.approx(expected, rel=1e-12)
        assert nu == pytest.approx(2.17e9, rel=5e-3)

    def test_hermitian_for_random_fields(self, params):
        rng = np.random.default_rng(7)
        for h in hamiltonians(params, *rng.normal(scale=0.1, size=(20, 3))):
            assert np.allclose(h, h.conj().T, atol=1e-40)

    def test_rejects_non_finite_field(self):
        # the check every field passes before a Hamiltonian is built
        with pytest.raises(ValueError):
            spincore._field_stack((np.nan, 0.0, 0.0), one=True)
        with pytest.raises(ValueError):
            spincore._field_stack((0.0, np.inf, 0.0), one=True)


BAD_FIELDS = {"nan": (np.nan, 0.0, 0.0), "inf": (0.0, np.inf, 0.0),
              "two components": (0.0, 0.1), "four components": (0.0, 0.0, 0.1, 0.0)}


class TestFieldCheck:
    """One check for every NV-frame field: a finite 3-array, or a finite
    (k, 3) stack where a function takes one."""

    DRIVE = MicrowaveDrive(rabi_rate=TWO_PI * 1e6, frequencies=(2.8e9,))

    @pytest.mark.parametrize("bad", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
    def test_one_field_rejected(self, params, bad):
        with pytest.raises(ValueError, match="finite"):
            steady_state(params, bad)
        with pytest.raises(ValueError, match="finite"):
            zero_connected_lines(params, bad)
        with pytest.raises(ValueError, match="finite"):
            microwave_superoperator(params, bad, 2.8e9, self.DRIVE)

    @pytest.mark.parametrize("bad", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
    def test_stack_rejected(self, params, bad):
        stack = np.stack([np.full(len(bad), 0.05), bad])
        with pytest.raises(ValueError, match="finite"):
            steady_state(params, stack)  # takes one field
        for solve in (steady_state_batch, zero_connected_lines):
            with pytest.raises(ValueError, match="finite"):
                solve(params, stack)
        with pytest.raises(ValueError, match="finite"):
            microwave_superoperator(params, stack, 2.8e9, self.DRIVE)

    def test_field_vector_is_a_lab_vector(self):
        assert FieldVector(0.0, 0.0, 0.1, frame="lab").frame == "lab"
        for frame in ("nv", "crystal"):
            with pytest.raises(ValueError, match="lab"):
                FieldVector(0.0, 0.0, 0.1, frame=frame)
            with pytest.raises(ValueError, match="lab"):
                FieldVector.from_array((0.0, 0.0, 0.1), frame=frame)


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
        for k in (2, 12, 24, 50, 1000):
            fields = rng.normal(scale=0.08, size=(k, 3))
            batch = steady_state_batch(params, fields)
            for b, rho in zip(fields, batch):
                assert np.array_equal(rho, steady_state(params, b))

    def test_parameter_rows_give_each_field_its_own_bits(self):
        # one A0 per field: a field of a mixed batch (300 fields, so split
        # into slices) gives the bits of a batch of its own parameters
        rows = [SpinParams(pump_rate=pump) for pump in (0.0, 1e3, 1e6)]
        rng = np.random.default_rng(5)
        fields = rng.normal(scale=0.08, size=(300, 3))
        dirs = rng.normal(size=(300, 1, 3))
        idx = rng.integers(0, 3, size=300)
        mixed = steady_state_batch(rows, fields, rows=idx)
        _, dmixed = steady_state_derivative_batch(rows, fields, dirs, rows=idx)
        for i, p in enumerate(rows):
            own = idx == i
            assert np.array_equal(mixed[own], steady_state_batch(p, fields[own]))
            assert np.array_equal(dmixed[own],
                                  steady_state_derivative_batch(p, fields[own], dirs[own])[1])
        other = rows[0].with_(gyromagnetic_ratio=0.5 * rows[0].gyromagnetic_ratio)
        with pytest.raises(ValueError, match="gyromagnetic"):
            steady_state_batch([rows[0], other], fields[:2], rows=[0, 1])

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
        # cancelling the real incoherent generator at B = 0 leaves a
        # commutator whose null space (every state diagonal in the zero-field
        # eigenbasis) the trace row cannot lift
        cancel = -_dissipator_matrix(params.gamma1, params.gamma2_star, params.pump_rate)
        with pytest.raises(SteadyStateError) as single:
            steady_state(params, (0.0, 0.0, 0.0), extra_superoperator=cancel)
        with pytest.raises(SteadyStateError) as batch:
            steady_state_batch(params, np.array([[0.0, 0.0, 0.1], [0.0, 0.0, 0.0]]),
                               extra_superoperator=cancel)
        for info in (single, batch):
            assert info.value.condition > 1e12
            assert "condition estimate" in str(info.value)


class TestDensityMatrixCheck:
    MIXED = np.eye(3, dtype=complex) / 3.0

    def test_one_state_checks_in_order(self):
        check_density_matrix(self.MIXED)
        skew = self.MIXED.copy()
        skew[0, 1] = 1e-6
        with pytest.raises(ValueError, match=r"^not Hermitian: max asymmetry 1\.000e-06$"):
            check_density_matrix(skew)
        with pytest.raises(ValueError, match=r"^trace np.float64\(2\.0\) differs from 1$"):
            check_density_matrix(2.0 * self.MIXED)
        with pytest.raises(ValueError, match=r"^negative population -1\.000e-02$"):
            check_density_matrix(np.diag([0.51, 0.5, -0.01]).astype(complex))
        with pytest.raises(ValueError, match="3x3"):
            check_density_matrix(np.eye(2))

    def test_stack_names_its_first_failing_state(self):
        stack = np.repeat(self.MIXED[None], 5, axis=0)
        check_density_matrix(stack)
        stack[3] = np.diag([0.51, 0.5, -0.01])
        stack[4] = 2.0 * self.MIXED
        with pytest.raises(ValueError, match=r"^state 3: negative population -1\.000e-02$"):
            check_density_matrix(stack)
        with pytest.raises(ValueError, match=r"^state \(1, 0\): negative population"):
            check_density_matrix(stack[1:].reshape(2, 2, 3, 3))

    def test_sweep_checks_every_state_in_one_call(self, params, monkeypatch):
        calls = []
        check = spincore.check_density_matrix
        monkeypatch.setattr(spincore, "check_density_matrix",
                            lambda rho, **kw: calls.append(np.shape(rho)) or check(rho, **kw))
        spincore.susceptibility_numeric_batch(params, np.linspace(0.01, 0.2, 7))
        assert calls == [(7, 3, 3)]


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

    def test_richardson_probe_converges_on_exact_derivative(self):
        # the replaced probe agrees to criterion 1's 1e-6 on its grid, and
        # halving h = 1e-6 divides its error by ~16 at and near the crossing
        for pump in (1e4, 1e5, 1e6):
            p = SpinParams(pump_rate=pump)
            h = probe_step(p)
            for b0 in np.linspace(0.0, 0.2, 50):
                exact = susceptibility_numeric(p, b0)
                probe = richardson_probe(p, b0, h)
                for e, r in ((exact.chi_perp, probe[0]), (exact.chi_d, probe[1])):
                    assert abs(r - e) <= 1e-6 * max(abs(e), 1e-5), (pump, b0)
        p = SpinParams()
        for b0 in (0.101, 0.1024):
            exact = susceptibility_numeric(p, b0).chi_perp
            err1, err2 = (abs(richardson_probe(p, b0, h)[0] - exact) for h in (1e-6, 5e-7))
            assert 14.0 < err1 / err2 < 18.0, b0

    def test_tensor_matrix_form(self, params):
        # the closed form's tensor, rotationally invariant about the NV
        # axis (mu0*M = tensor @ B), is the solved state's response to a
        # field along x, y and z
        b0 = 0.05
        t = susceptibility_analytic(params, b0)
        tensor = np.array([[t.chi_perp, -t.chi_d, 0.0],
                           [t.chi_d, t.chi_perp, 0.0],
                           [0.0, 0.0, t.chi_par]])
        _, drho = steady_state_derivative_batch(params, np.array([[0.0, 0.0, b0]]),
                                                np.eye(3)[None])
        dm = -MU0 * params.density * HBAR * params.gyromagnetic_ratio * spin_expectation(drho[0])
        assert np.allclose(dm.T, tensor, rtol=0.0, atol=1e-6 * abs(tensor[0, 0]))


# pump 1e3-1e9/s, gamma2*/2pi 0.1-10 MHz, gamma1 10-1e4/s; B within 0.3 T
# of zero, with B = 0 and the exact crossings at +-D/gamma_e drawn as such
CROSSING = SpinParams().zero_field_splitting / SpinParams().gyromagnetic_ratio


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(1e3, 1e9), st.floats(1e5, 1e7), st.floats(10.0, 1e4),
       st.one_of(st.sampled_from([0.0, CROSSING, -CROSSING]), st.floats(-0.3, 0.3)))
def test_exact_susceptibility_matches_closed_form(pump, g2_hz, gamma1, b0):
    p = SpinParams(pump_rate=pump, gamma2_star=TWO_PI * g2_hz, gamma1=gamma1)
    num, ana = susceptibility_numeric(p, b0), susceptibility_analytic(p, b0)
    scale = max(abs(ana.chi_perp), abs(ana.chi_d))
    assert abs(num.chi_perp - ana.chi_perp) <= 1e-11 * scale
    assert abs(num.chi_d - ana.chi_d) <= 1e-11 * scale
    assert num.chi_par == 0.0


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


def crossing_gap(params, theta, b_values):
    """Smallest gap (J) between the two lowest levels, ranked by energy,
    along a field-magnitude sweep at a fixed tilt from the NV axis; for
    theta > 0 the levels never cross, so rank is the level identity."""
    sin, cos = np.sin(theta), np.cos(theta)
    return min(np.diff(np.linalg.eigvalsh(hamiltonians(params, (b * sin, 0.0, b * cos))[0]))[0]
               for b in b_values)


class TestEigenTracking:
    def test_aligned_sweep_has_exact_crossing(self, params):
        bs = np.linspace(0.09, 0.115, 121)
        # grid granularity limits the observed minimum in the crossing case
        assert crossing_gap(params, 0.0, bs) < HBAR * TWO_PI * 8e6

    def test_tilted_sweep_has_avoided_crossing(self, params):
        bs = np.linspace(0.09, 0.135, 121)
        assert crossing_gap(params, 0.2, bs) > HBAR * TWO_PI * 3e8

    def test_gap_grows_with_tilt(self, params):
        bs = np.linspace(0.09, 0.135, 81)
        gaps = [crossing_gap(params, th, bs) for th in (0.01, 0.05, 0.1, 0.2)]
        assert np.all(np.diff(gaps) > 0.0)

    def test_population_inversion_past_crossing(self, params):
        # strong pumping keeps |0> dominant; past the crossing
        # (Delta_-1 = D - gamma_e*B < 0) it is the upper level of the
        # (|0>, |-1>) pair
        pops = np.diag(steady_state(params, (0.0, 0.0, 0.13))).real
        assert np.argmax(pops) == 1
        assert detunings(params, 0.13)[0] < 0.0
        assert pops[1] > 0.9


class TestSpinExpectation:
    def test_zero_for_mixed_state(self):
        assert np.allclose(spin_expectation(np.eye(3, dtype=complex) / 3), 0.0)

    def test_sz_eigenstates(self):
        rho = np.zeros((3, 3), dtype=complex)
        rho[2, 2] = 1.0
        assert spin_expectation(rho)[2] == pytest.approx(-1.0)


# B = D/gamma_e of the default parameters, where Delta_- = 0 exactly
CROSSING = 0.10241221809877248


def moment_cases():
    """(name, params, fields (k, 3), rows): B = 0, axial fields (theta = 0)
    up to and through the exact crossing, zero pump, 1, 18 and 300 fields
    (the last split into slices), and rows of three pump rates."""
    rng = np.random.default_rng(11)
    axial = np.zeros((18, 3))
    axial[:, 2] = np.linspace(0.0, 0.2, 18)
    axial[7, 2] = CROSSING
    mixed = rng.normal(scale=0.08, size=(300, 3))
    mixed[:20] = 0.0
    mixed[20:60, :2] = 0.0
    mixed[60:65] = [0.0, 0.0, CROSSING]
    rows = [SpinParams(pump_rate=pump) for pump in (0.0, 1e3, 1e6)]
    return [("zero_field", SpinParams(), np.zeros((1, 3)), None),
            ("crossing", SpinParams(), np.array([[0.0, 0.0, CROSSING]]), None),
            ("axial", SpinParams(), axial, None),
            ("zero_pump", SpinParams(pump_rate=0.0), axial, None),
            ("one", SpinParams(), rng.normal(scale=0.08, size=(1, 3)), None),
            ("eighteen", SpinParams(), rng.normal(scale=0.08, size=(18, 3)), None),
            ("sliced", SpinParams(), mixed, None),
            ("rows", rows, mixed, rng.integers(0, 3, size=300))]


def assert_within_moment_rounding(moments, states, r):
    """<S> (..., 3) read in closed form from coherence vectors r (..., 9)
    against spin_expectation of their states.  The route through the density
    matrix takes sqrt(1/2) r_a + sqrt(1/2) r_b (two rounded products and a
    rounded sum), doubles it exactly and rounds sqrt(1/2) times it, and
    sqrt(1/2)^2 * 2 is 1 to eps: at most 2.5 eps (|r_a| + |r_b|) from the
    exact value, and the closed form r_a + r_b at most 0.5 eps, so the two
    differ by at most 3 eps (|r_a| + |r_b|); z = r_0 - r_2 is the same in
    both.  For a state, |r| <= 1: 3 sqrt(2) eps = 9.4e-16 of a full spin."""
    reference = spin_expectation(states)
    bound = 3.0 * np.finfo(float).eps * (np.abs(r[..., [3, 6, 0]]) + np.abs(r[..., [5, 8, 2]]))
    assert np.all(np.abs(moments - reference) <= bound)
    assert np.array_equal(moments[..., 2], reference[..., 2])


class TestSteadyStateMoments:
    """<S> read straight from the coherence vector in closed form is the old
    route through the density matrix to its rounding, and the derivatives
    from the same solve keep the moments' bits."""

    @pytest.mark.parametrize("name, params, fields, rows", moment_cases(),
                             ids=[case[0] for case in moment_cases()])
    def test_moments_are_spin_expectation_of_the_states(self, name, params, fields, rows):
        dirs = np.random.default_rng(len(fields)).normal(size=(len(fields), 2, 3))
        dirs[:, 0] = [1.0, 0.0, 0.0]  # an exact direction: derivatives of exactly 0
        moments, none = steady_state_moments(params, fields, rows)
        assert none is None
        r, dr = spincore._solve(params, fields, None, rows, dirs)
        assert_within_moment_rounding(moments, steady_state_batch(params, fields, rows=rows), r)
        same, dmoments = steady_state_moments(params, fields, rows, dirs)
        assert same.tobytes() == moments.tobytes()
        _, drhos = steady_state_derivative_batch(params, fields, dirs, rows)
        assert dmoments.shape == (len(fields), 2, 3)
        assert_within_moment_rounding(dmoments, drhos, dr)

    def test_moments_of_coherence_vectors_with_signed_zeros(self):
        rng = np.random.default_rng(2)
        r = rng.normal(size=(500, 9))
        r[rng.random(r.shape) < 0.3] = 0.0
        r[rng.random(r.shape) < 0.3] = -0.0
        assert_within_moment_rounding(_moments(r), _density_matrices(r), r)

    def test_singular_generator_raises_typed_error(self, params, monkeypatch):
        # the generator of test_singular_generator_raises_typed_error, with
        # the incoherent part cancelled inside A0: the same solve fails
        a0, a_field = spincore._generator_parts(params)
        cancel = -_dissipator_matrix(params.gamma1, params.gamma2_star, params.pump_rate)
        monkeypatch.setattr(spincore, "_generator_parts", lambda p: (a0 + cancel, a_field))
        for directions in (None, np.ones((2, 1, 3))):
            with pytest.raises(SteadyStateError) as info:
                steady_state_moments(params, np.array([[0.0, 0.0, 0.1], [0.0, 0.0, 0.0]]),
                                     directions=directions)
            assert info.value.condition > 1e12
