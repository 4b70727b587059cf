import numpy as np
import pytest
from hypothesis import strategies as st

from nvspinmech import SX, CrystalOrientation, SpinParams, TrapModel, susceptibility_analytic
from nvspinmech.constants import HBAR, MU0
from nvspinmech.mechanics import _CLASS_FRAMES
from nvspinmech.spincore import _hamiltonian_batch

TWO_PI = 2.0 * np.pi
DEG = np.pi / 180.0


# acceptance criterion 8's parameter ranges
spin_params = st.builds(
    lambda g2, g1, pump: SpinParams(gamma2_star=TWO_PI * g2, gamma1=g1, pump_rate=pump),
    st.floats(1e6, 2e7), st.floats(5e2, 1e4), st.floats(1e4, 1e6))


@pytest.fixture
def params():
    """Default ensemble: 1 ppm per class, strong pumping."""
    return SpinParams()


@pytest.fixture
def orientation():
    return CrystalOrientation.identity()


@pytest.fixture
def trap():
    return TrapModel(trap_frequency=TWO_PI * 500.0, theta0=3.0 * DEG)


def linear_torque_coefficient(params, b0):
    """Small-angle torque slope (V/mu0)*chi_perp*B0^2 per tracked class
    (N m/rad) from the closed-form susceptibility, with V = N/density."""
    chi = susceptibility_analytic(params, b0).chi_perp
    return params.n_spins_per_class / params.density / MU0 * chi * b0**2


def coherence_basis():
    """Unitary T taking a row-major vec(rho) to the real coherence vector:
    the populations, then sqrt(2)*Re and sqrt(2)*Im of rho_01, rho_02, rho_12."""
    t = np.zeros((9, 9), dtype=complex)
    for a in range(3):
        t[a, 4 * a] = 1.0
    for n, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
        t[3 + n, 3 * a + b] = t[3 + n, 3 * b + a] = np.sqrt(0.5)
        t[6 + n, 3 * a + b] = -1j * np.sqrt(0.5)
        t[6 + n, 3 * b + a] = 1j * np.sqrt(0.5)
    return t


def hamiltonian(params, b_nv):
    """Spin Hamiltonian (J) at one NV-frame field, from ``_hamiltonian_batch``."""
    return HBAR * _hamiltonian_batch(params, np.asarray(b_nv, dtype=float)[None])[0]


def kron_jump_sum(params, b_nv, frequency_hz, drive):
    """Reference drive generator: one Lindblad jump superoperator per
    direction of every allowed transition, each built with np.kron, acting
    on the row-major vec(rho)."""
    if drive.rabi_rate == 0.0:
        return None
    i3 = np.eye(3)
    g_eff = params.gamma2_star
    vals, vecs = np.linalg.eigh(hamiltonian(params, b_nv))
    total = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(i + 1, 3):
            weight = 2.0 * abs(vecs[:, i].conj() @ SX @ vecs[:, j]) ** 2
            if weight == 0.0:
                continue
            delta = TWO_PI * frequency_hz - (vals[j] - vals[i]) / HBAR
            rate = 0.5 * drive.rabi_rate**2 * weight * g_eff / (delta**2 + g_eff**2)
            for op in (np.outer(vecs[:, i], vecs[:, j].conj()),
                       np.outer(vecs[:, j], vecs[:, i].conj())):
                ldl = op.conj().T @ op
                total += rate * (np.kron(op, op.conj())
                                 - 0.5 * (np.kron(ldl, i3) + np.kron(i3, ldl.T)))
    return total


def to_crystal(moments, classes=(0, 1, 2, 3)):
    """Crystal-frame vectors of class-frame ones, both (n_classes, k, 3)."""
    return np.einsum("cki,cij->ckj", moments, _CLASS_FRAMES[list(classes)])



def _azimuth(fields):
    """|b_perp| and (c, s) = (bx, by) / |b_perp| of class-frame fields
    (..., 3), or (1, 0) where b_perp = 0 (the theta = 0 gimbal, where
    bx = by = 0)."""
    perp = np.hypot(fields[..., 0], fields[..., 1])
    axial = perp == 0.0
    return perp, fields[..., 0] / (perp + axial) + axial, fields[..., 1] / (perp + axial)


def inplane_frame(fields, directions):
    """The in-plane class points of class-frame fields (..., 3) and
    directions (..., 3), written out: b' = (|b_perp|, 0, b_par) and d' =
    (c dx + s dy, c dy - s dx, dz)."""
    perp, c, s = _azimuth(fields)
    dx, dy, dz = np.moveaxis(directions, -1, 0)
    return (np.stack([perp, np.zeros_like(perp), fields[..., 2]], axis=-1),
            np.stack([c * dx + s * dy, c * dy - s * dx, dz], axis=-1))


def turned_back(moments, fields):
    """In-plane moments (..., 3) turned back into the class frame of the
    class-frame fields (..., 3) they were solved at."""
    _, c, s = _azimuth(fields)
    mx, my, mz = np.moveaxis(moments, -1, 0)
    return np.stack([c * mx - s * my, s * mx + c * my, mz], axis=-1)
