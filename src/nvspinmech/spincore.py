"""Ground-state spin physics of a single NV orientation class.

The m_s = (+1, 0, -1) triplet is modeled with the Hamiltonian

    H = hbar*D*Sz^2 + hbar*gamma_e*(B . S)

in the NV frame (z along the N-V axis), together with a master equation
containing optical pumping into |0> at rate ``pump_rate``, longitudinal
relaxation coupling each |+-1> population to |0> at rate ``gamma1``, and
dephasing of every coherence at rate ``gamma2_star``.  Population transfer
and coherence decay are kept exactly in this rate structure; the pumping
and relaxation channels do not add to the coherence decay, which stays
``gamma2_star`` alone.  This is not a Lindblad form: once ``pump_rate``
approaches or exceeds ``gamma2_star`` the steady state of a class with a
large transverse field is no longer positive (lowest eigenvalue of rho
-0.19 at pump 1e8/s and -0.77 at 1e9/s for a class at 109.47 degrees to
a 0.2 T field).  A pumping channel that also damps the |+-1> coherences
at pump/2 restores positivity but shifts the closed-form susceptibility
oracles below.

The steady state is obtained from a trace-constrained linear solve of the
9x9 Liouvillian.  Linear-response susceptibilities of the steady-state
magnetization are available through three independent routes: a
finite-difference probe of the full solver, closed-form expressions of the
first-order solution, and second-order (Van Vleck style) perturbation
theory from level populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import HBAR, MU0
from .params import FieldVector, SpinParams

# Spin-1 operators in the basis (|+1>, |0>, |-1>).
SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)
SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2.0)
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)

_SZ2 = SZ @ SZ
_I3 = np.eye(3, dtype=complex)

# Indices of (|+1>, |0>, |-1>) in the matrix representation.
_P1, _Z0, _M1 = 0, 1, 2


class SteadyStateError(RuntimeError):
    """Raised when the trace-constrained Liouvillian solve fails.

    Carries a condition-number estimate of the solved system for diagnosis.
    """

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition


class SingularDetuningError(ValueError):
    """Perturbative susceptibility evaluated at a level crossing."""


def _field_array(b, frame: str = "nv") -> np.ndarray:
    if isinstance(b, FieldVector):
        return b.require_frame(frame).as_array()
    arr = np.asarray(b, dtype=float)
    if arr.shape != (3,) or not np.all(np.isfinite(arr)):
        raise ValueError("field must be 3 finite components")
    return arr


def build_hamiltonian(params: SpinParams, b_nv) -> np.ndarray:
    """Spin Hamiltonian (J) for a field given in the NV frame.

    Args:
        params: spin constants; only the splitting and gyromagnetic ratio
            are used.
        b_nv: field components (tesla) in the NV frame, as a FieldVector
            tagged "nv" or a plain 3-array.

    Returns:
        3x3 Hermitian matrix in the (|+1>, |0>, |-1>) basis.
    """
    return HBAR * _hamiltonian_batch(params, _field_array(b_nv, "nv")[None])[0]


@lru_cache(maxsize=64)
def _dissipator_matrix(gamma1: float, gamma2_star: float, pump_rate: float) -> np.ndarray:
    """9x9 superoperator of the field-independent incoherent terms.

    Row-major vectorization: rho.reshape(9).
    """

    def apply(rho):
        out = np.zeros((3, 3), dtype=complex)
        # dephasing: every coherence decays at gamma2_star
        for a in range(3):
            for b in range(3):
                if a != b:
                    out[a, b] -= gamma2_star * rho[a, b]
        # optical pumping |+-1> -> |0>
        out[_Z0, _Z0] += pump_rate * (rho[_P1, _P1] + rho[_M1, _M1])
        out[_P1, _P1] -= pump_rate * rho[_P1, _P1]
        out[_M1, _M1] -= pump_rate * rho[_M1, _M1]
        # longitudinal relaxation between each |+-1> and |0>
        out[_P1, _P1] += gamma1 * (rho[_Z0, _Z0] - rho[_P1, _P1])
        out[_M1, _M1] += gamma1 * (rho[_Z0, _Z0] - rho[_M1, _M1])
        out[_Z0, _Z0] += gamma1 * (rho[_P1, _P1] - rho[_Z0, _Z0])
        out[_Z0, _Z0] += gamma1 * (rho[_M1, _M1] - rho[_Z0, _Z0])
        return out

    mat = np.zeros((9, 9), dtype=complex)
    basis = np.zeros((3, 3), dtype=complex)
    for k in range(9):
        basis.flat[:] = 0.0
        basis.flat[k] = 1.0
        mat[:, k] = apply(basis).reshape(9)
    return mat


def _hamiltonian_batch(params: SpinParams, b: np.ndarray) -> np.ndarray:
    """Hamiltonians over hbar (rad/s) for a (k, 3) stack of NV-frame fields."""
    return (params.zero_field_splitting * _SZ2
            + params.gyromagnetic_ratio * (b[:, 0, None, None] * SX
                                           + b[:, 1, None, None] * SY
                                           + b[:, 2, None, None] * SZ))


def _left_right(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, 9, 9) superoperators of rho -> m rho and rho -> rho m, i.e.
    m x I and I x m^T in row-major vectorization, for a (k, 3, 3) stack."""
    k = m.shape[0]
    left = np.einsum("kac,bd->kabcd", m, _I3).reshape(k, 9, 9)
    right = np.einsum("ac,kdb->kabcd", _I3, m).reshape(k, 9, 9)
    return left, right


def _generator_batch(params: SpinParams, h: np.ndarray,
                     extra: np.ndarray | None) -> np.ndarray:
    """(k, 9, 9) generators of d(rho)/dt for a stack of Hamiltonians over
    hbar (rad/s), shape (k, 3, 3)."""
    left, right = _left_right(h)
    gen = -1j * (left - right)
    gen += _dissipator_matrix(params.gamma1, params.gamma2_star, params.pump_rate)
    if extra is not None:
        gen = gen + extra
    return gen


def liouvillian(params: SpinParams, hamiltonian: np.ndarray,
                extra: np.ndarray | None = None) -> np.ndarray:
    """9x9 generator of d(rho)/dt for the given Hamiltonian (J).

    ``extra`` adds a superoperator (e.g. microwave-induced transfer channels).
    """
    return _generator_batch(params, hamiltonian[None] / HBAR, extra)[0]


def steady_state(params: SpinParams, b_nv,
                 extra_superoperator: np.ndarray | None = None) -> np.ndarray:
    """Driven-damped steady state density matrix for a field in the NV frame.

    The batch-of-one case of :func:`steady_state_batch`, bitwise equal to
    the same field solved inside any batch.

    Raises:
        SteadyStateError: if the linear solve fails or leaves a large
            residual (near-singular generator).
    """
    b = _field_array(b_nv, "nv")[None]
    return steady_state_batch(params, b, extra_superoperator)[0]


def steady_state_batch(params: SpinParams, b_nv_batch: np.ndarray,
                       extra_superoperator: np.ndarray | None = None) -> np.ndarray:
    """Steady states for a batch of NV-frame fields, shape (k, 3) -> (k, 3, 3).

    Solves 0 = -(i/hbar)[H, rho] + L(rho) with the trace replacing one row
    of each linear system; the Liouvillians are assembled and solved with
    batched linear algebra.  The results are Hermitized and have unit
    trace by construction.  ``extra_superoperator`` may be one 9x9 matrix
    applied to every batch entry or a (k, 9, 9) stack.

    Raises:
        SteadyStateError: if a linear solve fails or leaves a large
            residual (near-singular generator).
    """
    b = np.asarray(b_nv_batch, dtype=float)
    if b.ndim != 2 or b.shape[1] != 3 or not np.all(np.isfinite(b)):
        raise ValueError("field batch must be a finite (k, 3) array")
    k = b.shape[0]
    gen = _generator_batch(params, _hamiltonian_batch(params, b), extra_superoperator)
    a = gen.copy()
    # trace row: elements (0,0), (1,1), (2,2) of rho at flat indices 0, 4, 8
    a[:, 0, :] = 0.0
    a[:, 0, 0] = a[:, 0, 4] = a[:, 0, 8] = 1.0
    rhs = np.zeros((k, 9), dtype=complex)
    rhs[:, 0] = 1.0
    try:
        vec = np.linalg.solve(a, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        conds = np.linalg.cond(a)
        raise SteadyStateError(f"batched Liouvillian solve failed: {exc}",
                               condition=float(np.max(conds))) from exc
    residual = np.linalg.norm(np.einsum("kij,kj->ki", gen, vec), axis=1)
    scale = np.linalg.norm(gen, axis=(1, 2))
    bad = residual > 1e-8 * np.maximum(scale, 1.0)
    if np.any(bad):
        idx = int(np.argmax(residual / np.maximum(scale, 1.0)))
        raise SteadyStateError("steady-state residual too large in batch",
                               condition=float(np.linalg.cond(a[idx])))
    rho = vec.reshape(k, 3, 3)
    return 0.5 * (rho + np.conj(np.swapaxes(rho, 1, 2)))


def check_density_matrix(rho: np.ndarray, herm_tol: float = 1e-12,
                         trace_tol: float = 1e-10, eig_floor: float = -1e-10) -> None:
    """Validate Hermiticity, unit trace and positivity of a 3x3 state."""
    if rho.shape != (3, 3):
        raise ValueError("density matrix must be 3x3")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > herm_tol:
        raise ValueError(f"not Hermitian: max asymmetry {herm:.3e}")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace {tr!r} differs from 1")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < eig_floor:
        raise ValueError(f"negative population {eigs.min():.3e}")


def spin_expectation(rho: np.ndarray) -> np.ndarray:
    """<S> = (tr(rho Sx), tr(rho Sy), tr(rho Sz)), real parts."""
    return np.array([
        np.trace(rho @ SX).real,
        np.trace(rho @ SY).real,
        np.trace(rho @ SZ).real,
    ])


def magnetization(params: SpinParams, rho: np.ndarray) -> np.ndarray:
    """Volume magnetization M = -density*hbar*gamma_e*<S> (A/m), NV frame."""
    check_density_matrix(rho, herm_tol=1e-9, trace_tol=1e-8, eig_floor=-1e-8)
    return -params.density * HBAR * params.gyromagnetic_ratio * spin_expectation(rho)


def magnetic_moment(params: SpinParams, rho: np.ndarray) -> np.ndarray:
    """Moment of one NV center, m = -hbar*gamma_e*<S> (J/T), NV frame."""
    return -HBAR * params.gyromagnetic_ratio * spin_expectation(rho)


@dataclass(frozen=True)
class SusceptibilityTensor:
    """Volume susceptibility components around an axial bias field.

    chi_perp is the in-phase transverse response, chi_d the reactive
    off-diagonal component, chi_par the longitudinal response (zero for an
    axial bias by symmetry).
    """

    chi_perp: float
    chi_d: float
    chi_par: float

    @property
    def matrix(self) -> np.ndarray:
        """Rotationally invariant tensor about the NV axis."""
        return np.array([
            [self.chi_perp, -self.chi_d, 0.0],
            [self.chi_d, self.chi_perp, 0.0],
            [0.0, 0.0, self.chi_par],
        ])


def detunings(params: SpinParams, b0: float) -> tuple[float, float]:
    """Angular detunings (Delta_-1, Delta_+1) = D -/+ gamma_e*B0 of the
    |0> -> |-1| and |0> -> |+1> transitions for an axial field."""
    zee = params.gyromagnetic_ratio * b0
    return params.zero_field_splitting - zee, params.zero_field_splitting + zee


def susceptibility_analytic(params: SpinParams, b0: float) -> SusceptibilityTensor:
    """Closed-form linear-response susceptibility for an axial bias field.

    First-order solution of the master equation: Lorentzian responses of
    the two |0> -> |+-1> coherences weighted by the pumping factor.
    """
    d_m, d_p = detunings(params, b0)
    g2 = params.gamma2_star
    pref = params.density * HBAR * params.gyromagnetic_ratio**2 * MU0 * params.pumping_factor
    chi_perp = pref * (d_m / (d_m**2 + g2**2) + d_p / (d_p**2 + g2**2))
    chi_d = pref * (g2 / (d_m**2 + g2**2) - g2 / (d_p**2 + g2**2))
    return SusceptibilityTensor(chi_perp=chi_perp, chi_d=chi_d, chi_par=0.0)


def finite_difference_step(params: SpinParams) -> float:
    """Probe field step for numeric susceptibilities (tesla).

    Large enough to dominate roundoff, small enough to stay inside the
    linear regime near the level crossing where the response is steepest.
    Saturation of the populations sets in once the probe Rabi coupling
    approaches sqrt(gamma2* x pumping-relaxation), so the step also
    shrinks with weak pumping.
    """
    base = max(1.0e-6, 1.0e-3 * params.gamma2_star / params.gyromagnetic_ratio)
    gamma_pop = 3.0 * params.gamma1 + params.pump_rate
    saturation = (np.sqrt(1.0e-3 * params.gamma2_star * gamma_pop)
                  / params.gyromagnetic_ratio)
    return float(max(min(base, saturation), 1.0e-9))


def susceptibility_numeric(params: SpinParams, b0: float,
                           step: float | None = None) -> SusceptibilityTensor:
    """Susceptibility from finite differences of the steady-state magnetization.

    Central differences with Richardson extrapolation (steps h and h/2) of
    the transverse magnetization under a probe along x and of the
    longitudinal magnetization under a probe along z, around the axial
    bias ``b0``.

    Raises:
        ValueError: if the requested step underflows or is not finite.
    """
    h = finite_difference_step(params) if step is None else float(step)
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"finite-difference step {h!r} must be finite and > 0")
    if b0 != 0.0 and h < 1e-12 * abs(b0):
        raise ValueError("finite-difference step underflows against the bias field")

    def transverse(hh):
        mp = magnetization(params, steady_state(params, (hh, 0.0, b0)))
        mm = magnetization(params, steady_state(params, (-hh, 0.0, b0)))
        return (mp[0] - mm[0]) / (2.0 * hh), (mp[1] - mm[1]) / (2.0 * hh)

    def longitudinal(hh):
        mp = magnetization(params, steady_state(params, (0.0, 0.0, b0 + hh)))
        mm = magnetization(params, steady_state(params, (0.0, 0.0, b0 - hh)))
        return (mp[2] - mm[2]) / (2.0 * hh)

    x1, y1 = transverse(h)
    x2, y2 = transverse(0.5 * h)
    z1 = longitudinal(h)
    z2 = longitudinal(0.5 * h)
    # Richardson: eliminate the O(h^2) truncation term
    chi_perp = MU0 * (4.0 * x2 - x1) / 3.0
    chi_d = MU0 * (4.0 * y2 - y1) / 3.0
    chi_par = MU0 * (4.0 * z2 - z1) / 3.0
    return SusceptibilityTensor(chi_perp=chi_perp, chi_d=chi_d, chi_par=chi_par)


def susceptibility_van_vleck(params: SpinParams, populations, b0: float) -> float:
    """Second-order perturbative susceptibility from level populations.

    chi = d*hbar*mu0 * sum_i gamma_e^2/Delta_i * (p_0 - p_i) over i = -1, +1.

    Args:
        populations: (p_-1, p_0, p_+1), must sum to 1.

    Raises:
        SingularDetuningError: at a level crossing (Delta_i = 0), where the
            perturbative expansion is invalid.
    """
    p_m, p_0, p_p = populations
    total = p_m + p_0 + p_p
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"populations must sum to 1, got {total!r}")
    d_m, d_p = detunings(params, b0)
    if d_m == 0.0 or d_p == 0.0:
        raise SingularDetuningError("zero detuning: perturbation theory invalid at the crossing")
    g2 = params.gyromagnetic_ratio**2
    return params.density * HBAR * MU0 * g2 * ((p_0 - p_m) / d_m + (p_0 - p_p) / d_p)


@dataclass(frozen=True)
class SpinLevelSet:
    """Adiabatically labeled eigensystem at one field point.

    ``energies``, ``states`` and ``populations`` are indexed by the
    zero-field label order (|+1>, |0>, |-1>), tracked through crossings by
    eigenvector continuity rather than by sorting energies.
    """

    b: float
    energies: np.ndarray  # J, label order (+1, 0, -1)
    states: np.ndarray  # columns are eigenvectors in label order
    populations: np.ndarray  # steady-state populations of each labeled state


def eigen_energies_vs_field(params: SpinParams, theta: float,
                            b_values) -> list[SpinLevelSet]:
    """Adiabatically tracked spin levels along a field-magnitude sweep.

    Args:
        theta: fixed angle between the NV axis and the field (rad).
        b_values: field magnitudes (tesla), in sweep order.

    The labels attached at the first point (continuation from B=0) follow
    maximal-overlap continuation from point to point, so crossed levels
    keep their identity through the ground-state level crossing.
    """
    b_values = np.asarray(b_values, dtype=float)
    st, ct = np.sin(theta), np.cos(theta)
    # continuation reference: exact B=0 labels
    prev_states = np.eye(3, dtype=complex)
    out = []
    for b in b_values:
        h = build_hamiltonian(params, (b * st, 0.0, b * ct))
        vals, vecs = np.linalg.eigh(h)
        # assign each label to the eigenvector overlapping its predecessor most
        overlap = np.abs(prev_states.conj().T @ vecs) ** 2
        order = np.full(3, -1, dtype=int)
        taken = np.zeros(3, dtype=bool)
        for _ in range(3):
            i, j = np.unravel_index(np.argmax(np.where(taken, -1.0, overlap)), (3, 3))
            overlap[i, :] = -1.0
            order[i] = j
            taken[j] = True
        energies = vals[order]
        states = vecs[:, order]
        rho = steady_state(params, (b * st, 0.0, b * ct))
        pops = np.array([np.real(states[:, k].conj() @ rho @ states[:, k]) for k in range(3)])
        out.append(SpinLevelSet(b=float(b), energies=energies, states=states,
                                populations=pops))
        prev_states = states
    return out


def minimum_gap(levels: list[SpinLevelSet], i: int = 1, j: int = 2) -> float:
    """Smallest |E_i - E_j| (J) along a tracked sweep; defaults to the
    (|0>, |-1>) pair."""
    return min(abs(ls.energies[i] - ls.energies[j]) for ls in levels)
