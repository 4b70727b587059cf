"""The real coherence-vector steady state against the complex Liouvillian.

``reference_steady_state`` is the complex path the real generator
replaced, kept here as the oracle: the row-major superoperator
-i(h x I - I x h^T) plus the dissipator applied to each basis matrix, the
trace in the first row at flat indices 0, 4, 8, one complex solve and a
Hermitized result.  The drive enters it as the kron-built jump sum.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nvspinmech import (NV_AXES, MicrowaveDrive, TiltGeometry, microwave_superoperator,
                        spin_expectation, steady_state_batch, steady_state_moments)
from nvspinmech.constants import HBAR
from nvspinmech.crystal import transverse_reference
from nvspinmech.mechanics import _class_fields

from conftest import hamiltonian, kron_jump_sum, spin_params, to_crystal

TWO_PI = 2.0 * np.pi


def reference_dissipator(gamma1, gamma2_star, pump_rate):
    """Row-major 9x9 superoperator of the incoherent terms."""

    def apply(rho):
        out = np.zeros((3, 3), dtype=complex)
        for a in range(3):
            for b in range(3):
                if a != b:
                    out[a, b] -= gamma2_star * rho[a, b]
        out[1, 1] += pump_rate * (rho[0, 0] + rho[2, 2])
        out[0, 0] -= pump_rate * rho[0, 0]
        out[2, 2] -= pump_rate * rho[2, 2]
        out[0, 0] += gamma1 * (rho[1, 1] - rho[0, 0])
        out[2, 2] += gamma1 * (rho[1, 1] - rho[2, 2])
        out[1, 1] += gamma1 * (rho[0, 0] - rho[1, 1])
        out[1, 1] += gamma1 * (rho[2, 2] - rho[1, 1])
        return out

    mat = np.zeros((9, 9), dtype=complex)
    for k in range(9):
        basis = np.zeros(9, dtype=complex)
        basis[k] = 1.0
        mat[:, k] = apply(basis.reshape(3, 3)).reshape(9)
    return mat


def reference_steady_state(params, b_nv, extra=None):
    h = hamiltonian(params, b_nv) / HBAR
    i3 = np.eye(3)
    gen = -1j * (np.kron(h, i3) - np.kron(i3, h.T))
    gen += reference_dissipator(params.gamma1, params.gamma2_star, params.pump_rate)
    if extra is not None:
        gen += extra
    a = gen.copy()
    a[0, :] = 0.0
    a[0, [0, 4, 8]] = 1.0
    rhs = np.zeros(9, dtype=complex)
    rhs[0] = 1.0
    rho = np.linalg.solve(a, rhs).reshape(3, 3)
    return 0.5 * (rho + rho.conj().T)


def transverse_frame_moment(params, b_crystal, axis):
    """Crystal-frame moment of one class solved in the frame whose x axis
    follows the transverse field (the transverse reference when axial)."""
    bz = float(b_crystal @ axis)
    perp = b_crystal - bz * axis
    pnorm = float(np.linalg.norm(perp))
    if pnorm <= 1e-14 * np.linalg.norm(b_crystal):  # rounding of |axis|^2 = 1
        xhat, pnorm = transverse_reference(axis), 0.0
    else:
        xhat = perp / pnorm
    m = (-HBAR * params.gyromagnetic_ratio
         * spin_expectation(steady_state_batch(params, np.array([[pnorm, 0.0, bz]]))[0]))
    return m[0] * xhat + m[1] * np.cross(axis, xhat) + m[2] * axis


directions = st.tuples(*3 * [st.floats(-1.0, 1.0)]).filter(
    lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: np.array(v) / np.linalg.norm(v))
fields = st.builds(lambda u, b: b * u, directions, st.floats(0.0, 0.3))
drives = st.builds(lambda f, rabi: (f, MicrowaveDrive(rabi_rate=TWO_PI * rabi, frequencies=(f,))),
                   st.floats(0.5e9, 4.5e9), st.floats(1e5, 2e7))


def assert_matches_reference(rhos, refs):
    for rho, ref in zip(rhos, refs):
        assert np.max(np.abs(rho - ref)) <= 1e-12
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho) - 1.0) <= 1e-14


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spin_params, st.lists(fields, min_size=1, max_size=6))
def test_undriven_states_match_complex_reference(params, b):
    b = np.array(b)
    assert_matches_reference(steady_state_batch(params, b),
                             [reference_steady_state(params, f) for f in b])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spin_params, st.lists(fields, min_size=1, max_size=6), drives)
def test_driven_states_match_complex_reference(params, b, drive):
    b = np.array(b)
    freq, drive = drive
    extra = microwave_superoperator(params, b, freq, drive)
    assert_matches_reference(
        steady_state_batch(params, b, extra),
        [reference_steady_state(params, f, kron_jump_sum(params, f, freq, drive)) for f in b])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spin_params, st.floats(0.0, 0.3), st.floats(0.0, TWO_PI),
       st.lists(st.floats(0.0, np.pi), min_size=1, max_size=4))
def test_crystal_frame_moments_match_transverse_field_frame(params, b_mag, phi, tilts):
    geom = TiltGeometry(b_mag=b_mag, phi=phi)
    thetas = np.array([0.0, 0.5 * np.pi, *tilts])
    b = geom.field_and_derivative(thetas)[0]
    fields = _class_fields(b)  # each class's field in its fixed class frame
    m, _ = steady_state_moments(params, fields.reshape(-1, 3))
    moments = to_crystal(-HBAR * params.gyromagnetic_ratio * m.reshape(fields.shape))
    # relative to the moment of a fully polarized spin: the solves round at
    # ~1e-13 of it, so a nearly unpolarized class (|m| ~ 1e-3 of it at the
    # slowest rates) agrees to only ~1e-10 of its own size
    full = HBAR * params.gyromagnetic_ratio
    for c, axis in enumerate(NV_AXES):
        for k, field in enumerate(b):
            ref = transverse_frame_moment(params, field, axis)
            assert np.linalg.norm(moments[c, k] - ref) <= 1e-12 * full
