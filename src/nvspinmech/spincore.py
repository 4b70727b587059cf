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

Fields are plain NV-frame arrays, one field as 3 components or a (k, 3)
stack, each checked for shape and finiteness by one private check that
``mdmr`` shares; a ``params.FieldVector`` is a lab-frame field and is not
taken here.  The microwave drive of ``mdmr`` is built here too
(:func:`_drive_generator`), next to the generators it is added to.

The state is its real coherence vector (Hioe & Eberly 1981), whose
generator A0 + sum_i b_i A_i is affine in the NV-frame field; the steady
state is a trace-constrained real linear solve, and
:func:`steady_state_moments` reads <S> straight from the solved vectors
in closed form.  Linear-response
susceptibilities of the steady-state magnetization are available through
three independent routes: the exact derivative of the solved steady state,
closed-form expressions of the first-order solution, and second-order
(Van Vleck style) perturbation theory from level populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import HBAR, MU0
from .params import SpinParams

# Spin-1 operators in the basis (|+1>, |0>, |-1>).
SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)
SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2.0)
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)

_SZ2 = SZ @ SZ
_SQRT_HALF = np.sqrt(0.5)
_SQRT2 = np.sqrt(2.0)
_OFF_DIAGONAL = 1.0 - np.eye(3)


# Unitary T taking the row-major vec(h) of a Hermitian 3x3 matrix to its real
# coherence vector r = T vec(h): the populations h_aa, then sqrt(2)*Re h_ab and
# sqrt(2)*Im h_ab of the coherences (a, b) = (0, 1), (0, 2), (1, 2), at the
# vec indices (1, 3), (2, 6), (5, 7) of (h_ab, h_ba).
_T = np.zeros((9, 9), dtype=complex)
_T[[0, 1, 2], [0, 4, 8]] = 1.0
_T[[3, 4, 5, 3, 4, 5], [1, 2, 5, 3, 6, 7]] = _SQRT_HALF
_T[[6, 7, 8, 6, 7, 8], [1, 2, 5, 3, 6, 7]] = _SQRT_HALF * np.repeat([-1j, 1j], 3)
# vec(rho) = T^+ r from real products, one per entry (one nonzero per column):
# the same bits in any batch, and rho_ba exactly the conjugate of rho_ab
_TO_REAL, _TO_IMAG = _T.real.copy(), -_T.imag
# first row of each system: r_0 + r_1 + r_2 = tr(rho) = 1; the others 0
_TRACE_ROW = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
_TRACE_RHS = np.eye(9)[:, :1]
# check_density_matrix bounds: a solved state's rounding passes, a non-positive one fails
_STATE_TOLERANCES = dict(herm_tol=1e-9, trace_tol=1e-8, eig_floor=-1e-8)


class SteadyStateError(RuntimeError):
    """Raised when the trace-constrained steady-state solve fails.

    Carries a condition-number estimate of the solved system for diagnosis.
    """

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition


class SingularDetuningError(ValueError):
    """Perturbative susceptibility evaluated at a level crossing."""


def _field_stack(b, one: bool = False) -> np.ndarray:
    """NV-frame fields as a float (k, 3) array, one field (3,) as (1, 3) with
    ``one``; ValueError unless the shape fits and every component is finite."""
    b = np.asarray(b, dtype=float)[None] if one else np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[1] != 3 or not np.isfinite(b).all():
        raise ValueError("field must be 3 finite components, or a finite (k, 3) stack")
    return b


def _coordinates(h: np.ndarray) -> np.ndarray:
    """Real coherence vectors (..., 9) of Hermitian matrices (..., 3, 3)."""
    return (h.reshape(h.shape[:-2] + (9,)) @ _T.T).real


def _density_matrices(r: np.ndarray) -> np.ndarray:
    """Hermitian matrices (k, 3, 3), equal to their conjugate transpose
    bitwise, of real coherence vectors (k, 9)."""
    rho = np.empty((r.shape[0], 9), dtype=complex)
    rho.real = r @ _TO_REAL
    rho.imag = r @ _TO_IMAG
    return rho.reshape(-1, 3, 3)


def _moments(r: np.ndarray) -> np.ndarray:
    """<S> (..., 3) of real coherence vectors (..., 9) in closed form,
    (r_3 + r_5, -(r_6 + r_8), r_0 - r_2), elementwise."""
    out = np.empty(r.shape[:-1] + (3,))
    out[..., 0] = r[..., 3] + r[..., 5]
    out[..., 1] = -(r[..., 6] + r[..., 8])
    out[..., 2] = r[..., 0] - r[..., 2]
    return out


@lru_cache(maxsize=1)
def _structure() -> tuple[np.ndarray, np.ndarray]:
    """Real (9, 9, 9) stacks of the superoperators rho -> -i[B_j, rho] and
    rho -> {B_j, rho} of the basis matrices B_j, in coordinates."""
    basis = _density_matrices(np.eye(9))
    prod = basis[:, None] @ basis[None]  # B_j B_l at [j, l]
    swapped = np.swapaxes(prod, 0, 1)
    # column l of superoperator j: the coordinates at [j, l], transposed
    return tuple(np.swapaxes(_coordinates(m), 1, 2)
                 for m in (-1j * (prod - swapped), prod + swapped))


def _dissipator_matrix(gamma1: float, gamma2_star: float, pump_rate: float) -> np.ndarray:
    """9x9 generator, in coordinates, of the field-independent incoherent
    terms: population transfer, and decay of every coherence at gamma2_star."""
    out = np.diag(np.full(9, -gamma2_star))
    leave = pump_rate + gamma1  # out of |+-1>: pumped or relaxed into |0>
    out[:3, :3] = [[-leave, gamma1, 0.0],
                   [leave, -2.0 * gamma1, leave],
                   [0.0, gamma1, -leave]]
    return out


@lru_cache(maxsize=64)
def _generator_parts(params: SpinParams) -> tuple[np.ndarray, np.ndarray]:
    """A0 (9, 9) and A (3, 9, 9) of the generator A0 + sum_i b_i A[i] of
    d(r)/dt at an NV-frame field b, in coordinates."""
    comm, _ = _structure()
    a0 = (params.zero_field_splitting * np.tensordot(_coordinates(_SZ2), comm, 1)
          + _dissipator_matrix(params.gamma1, params.gamma2_star, params.pump_rate))
    spin = _coordinates(np.stack([SX, SY, SZ]))
    return a0, params.gyromagnetic_ratio * np.tensordot(spin, comm, 1)


def _hamiltonian_batch(params: SpinParams, b: np.ndarray) -> np.ndarray:
    """Hamiltonians over hbar (rad/s) for a (k, 3) stack of NV-frame fields."""
    return (params.zero_field_splitting * _SZ2
            + params.gyromagnetic_ratio * (b[:, 0, None, None] * SX
                                           + b[:, 1, None, None] * SY
                                           + b[:, 2, None, None] * SZ))


def _eigenbasis(params: SpinParams, b: np.ndarray) -> tuple:
    """Level gaps (rad/s) and drive weights w_ab, both (k, 3, 3), and P (k, 9,
    3) of ``mdmr.microwave_superoperator`` at NV-frame fields (k, 3), the one
    diagonalization of H (``mdmr.zero_connected_lines`` reads it too), from
    the eigenvector components: as sqrt(2) S_x v = (v_0, v_+ + v_-, v_0),
    w_ab = |x_ab + conj(x_ba)|^2 for x_ab = conj(v_+a + v_-a) v_0b, and
    column a of P is |v_pa|^2, then sqrt(2) Re and sqrt(2) Im of
    v_pa conj(v_qa)."""
    vals, vecs = np.linalg.eigh(HBAR * _hamiltonian_batch(params, b))
    gaps = np.abs(vals[:, None, :] - vals[:, :, None]) / HBAR
    x = np.conj(vecs[:, 0] + vecs[:, 2])[:, :, None] * vecs[:, 1, None, :]
    m = x + np.conj(np.swapaxes(x, 1, 2))
    weight = (m.real**2 + m.imag**2) * _OFF_DIAGONAL
    c = np.conj(vecs)
    pairs = np.concatenate([vecs[:, :1] * c[:, 1:], vecs[:, 1:2] * c[:, 2:]], axis=1)
    return gaps, weight, np.concatenate([(vecs * c).real, _SQRT2 * pairs.real,
                                         _SQRT2 * pairs.imag], axis=1)


def _drive_generator(params: SpinParams, b: np.ndarray, rabi_rate: float,
                     frequency_hz) -> np.ndarray:
    """The drive generators (k, 9, 9) at NV-frame fields (k, 3), the drive
    along S_x of that frame, from their :func:`_eigenbasis`: Lorentzian
    rates W_ab and the jump sum, at ``frequency_hz``, one or one per field;
    G = V diag(s) V^+ has coordinates P s."""
    gaps, weight, proj = _eigenbasis(params, b)
    delta = 2.0 * np.pi * np.asarray(frequency_hz, dtype=float)[..., None, None] - gaps
    rates = 0.5 * rabi_rate**2 * weight * params.gamma2_star / (delta**2 + params.gamma2_star**2)
    gain = proj @ rates @ np.swapaxes(proj, 1, 2)
    g = (proj @ rates.sum(axis=1)[:, :, None])[:, :, 0]
    return gain - 0.5 * np.einsum("kj,jab->kab", g, _structure()[1])


def steady_state(params: SpinParams, b_nv,
                 extra_superoperator: np.ndarray | None = None) -> np.ndarray:
    """Driven-damped steady state density matrix for a field in the NV frame.

    The batch-of-one case of :func:`steady_state_batch`, bitwise equal to
    the same field solved inside any batch.

    Raises:
        SteadyStateError: if the linear solve fails or leaves a large
            residual (near-singular generator).
    """
    return steady_state_batch(params, _field_stack(b_nv, one=True), extra_superoperator)[0]


# fields solved per linear solve: a larger batch is split, which keeps the
# working arrays small and, since a field's bits do not depend on its
# batch, changes no result
_MAX_BATCH = 256


def _generators(a0, a_field, b) -> np.ndarray:
    """Generators A0 + sum_i b_i A_i (k, 9, 9) at NV-frame fields (k, 3);
    ``a0`` is one (9, 9) matrix or one per field."""
    return (a0 + b[:, 0, None, None] * a_field[0] + b[:, 1, None, None] * a_field[1]
            + b[:, 2, None, None] * a_field[2])


def _steady_vectors(gen, a_field=None, directions=None):
    """(r, dr): the unit-trace coherence vectors (k, 9) of an assembled
    generator stack (k, 9, 9), one batched solve with a residual check, and
    with ``directions`` (k, n, 3) their derivatives (k, n, 9) along the
    field (else None)."""
    a = gen.copy()
    a[:, 0] = _TRACE_ROW
    try:
        r = np.linalg.solve(a, _TRACE_RHS)[..., 0]
    except np.linalg.LinAlgError as exc:
        conds = np.linalg.cond(a)
        raise SteadyStateError(f"batched steady-state solve failed: {exc}",
                               condition=float(np.max(conds))) from exc
    # the trace row holds to the solve's rounding only (5e-13 at the slowest rates)
    r /= (r[:, 0] + r[:, 1] + r[:, 2])[:, None]
    # |A r| > 1e-8 * max(|A|, 1), squared
    residual = np.einsum("kij,kj->ki", gen, r)
    ratio = (np.einsum("ki,ki->k", residual, residual)
             / np.maximum(np.einsum("kij,kij->k", gen, gen), 1.0))
    if not (ratio <= 1e-16).all():  # also catches NaN
        idx = int(np.argmax(ratio))
        raise SteadyStateError("steady-state residual too large in batch",
                               condition=float(np.linalg.cond(a[idx])))
    if directions is None:
        return r, None
    # -(sum_i d_i A_i) r, (k, 9, n), with 0 in the trace row
    rhs = -np.einsum("kni,iab,kb->kan", directions, a_field, r)
    rhs[:, 0] = 0.0
    return r, np.swapaxes(np.linalg.solve(a, rhs), 1, 2)


def _solve(params, b_nv_batch, extra=None, rows=None, directions=None):
    """(r, dr) of :func:`_steady_vectors` at NV-frame fields (k, 3), the one
    solve of the package: for each slice s of at most _MAX_BATCH fields in
    turn, the generators plus ``extra(s)`` if given are assembled and
    solved, and the slices' results concatenated.  With ``rows`` (the index of each
    field's parameters), ``params`` is a sequence of SpinParams that share
    the gyromagnetic ratio, and each field has the A0 of its own."""
    b = _field_stack(b_nv_batch)
    if rows is None:
        a0, a_field = _generator_parts(params)
    else:  # the A0 of each row, picked per slice
        if len({p.gyromagnetic_ratio for p in params}) > 1:
            raise ValueError("parameter rows must share the gyromagnetic ratio")
        parts = [_generator_parts(p) for p in params]
        a0, a_field = np.array([a for a, _ in parts]), parts[0][1]

    def solve(s):
        gen = _generators(a0 if rows is None else a0[rows[s]], a_field, b[s])
        if extra is not None:
            gen += extra(s)
        return _steady_vectors(gen, a_field, None if directions is None else directions[s])

    if len(b) <= _MAX_BATCH:
        return solve(slice(None))
    solved = [solve(slice(i, i + _MAX_BATCH)) for i in range(0, len(b), _MAX_BATCH)]
    r = np.concatenate([r for r, _ in solved])
    return r, None if solved[0][1] is None else np.concatenate([dr for _, dr in solved])


def steady_state_batch(params: SpinParams, b_nv_batch: np.ndarray,
                       extra_superoperator: np.ndarray | None = None,
                       rows=None) -> np.ndarray:
    """Steady states for a batch of NV-frame fields, shape (k, 3) -> (k, 3, 3).

    Solves 0 = A(b) r for the real coherence vector r of rho, with
    A(b) = A0 + sum_i b_i A_i and the trace r_0 + r_1 + r_2 = 1 replacing
    the first row: one real batched solve, elementwise otherwise, so a
    field gives the same bits in any batch.  The results are Hermitian and
    scaled to unit trace.  ``extra_superoperator`` is a real 9x9 generator
    in these coordinates (``mdmr.microwave_superoperator``) or a stack,
    added to each slice as the ``extra(s)`` of :func:`_solve`.  With
    ``rows``, ``params`` holds one SpinParams per row and ``rows[j]`` is
    the row of field j.

    Raises:
        SteadyStateError: if a linear solve fails or leaves a large
            residual (near-singular generator).
    """
    x = extra_superoperator
    extra = None if x is None else (lambda s: x[s]) if np.ndim(x) == 3 else (lambda s: x)
    return _density_matrices(_solve(params, b_nv_batch, extra, rows)[0])


def steady_state_derivative_batch(params: SpinParams, b_nv_batch: np.ndarray,
                                  directions: np.ndarray,
                                  rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Steady states (k, 3, 3) at NV-frame fields (k, 3), bitwise those of
    :func:`steady_state_batch`, and their derivatives (k, n, 3, 3) along
    NV-frame field directions (k, n, 3).  Differentiating A(b) r = 0 with
    the trace row fixed, the solved system times r' is -(sum_i d_i A_i) r
    with 0 in the trace row: one more solve with the same matrix
    (Schweitzer 1968; Golub & Meyer 1986), and r' has zero trace.
    ``rows`` is that of :func:`steady_state_batch`.
    """
    directions = np.asarray(directions, dtype=float)
    r, dr = _solve(params, b_nv_batch, None, rows, directions)
    return (_density_matrices(r),
            _density_matrices(dr.reshape(-1, 9)).reshape(len(r), directions.shape[1], 3, 3))


def steady_state_moments(params: SpinParams, b_nv_batch: np.ndarray, rows=None,
                         directions: np.ndarray | None = None):
    """(<S>, d<S>): <S> (k, 3) of the steady states at NV-frame fields
    (k, 3) and, with ``directions`` (k, n, 3), its derivatives (k, n, 3)
    (else None), read in closed form from the coherence vectors of the
    solve of :func:`steady_state_batch` and its derivative; within
    3 eps (|r_a| + |r_b|) of ``spin_expectation`` of those states.
    ``rows`` is that of :func:`steady_state_batch`.

    Raises:
        SteadyStateError: as :func:`steady_state_batch`.
    """
    r, dr = _solve(params, b_nv_batch, None, rows, directions)
    return _moments(r), None if dr is None else _moments(dr)


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
    """<S> = (tr(rho Sx), tr(rho Sy), tr(rho Sz)), real parts, of a 3x3 state
    or a (..., 3, 3) stack; written out term by term, so a state gives the
    same bits alone as inside any stack."""
    rho = np.asarray(rho)
    up, down = rho[..., 0, 1] + rho[..., 1, 2], rho[..., 1, 0] + rho[..., 2, 1]
    out = np.empty(rho.shape[:-2] + (3,))
    out[..., 0] = _SQRT_HALF * (up + down).real
    out[..., 1] = _SQRT_HALF * (down - up).imag
    out[..., 2] = rho[..., 0, 0].real - rho[..., 2, 2].real
    return out


def magnetization(params: SpinParams, rho: np.ndarray) -> np.ndarray:
    """Volume magnetization M = -density*hbar*gamma_e*<S> (A/m), NV frame."""
    check_density_matrix(rho, **_STATE_TOLERANCES)
    return -params.density * HBAR * params.gyromagnetic_ratio * spin_expectation(rho)


@dataclass(frozen=True)
class SusceptibilityTensor:
    """Volume susceptibility components around an axial bias field.

    chi_perp is the in-phase transverse response, chi_d the reactive
    off-diagonal component, chi_par the longitudinal response (zero for an
    axial bias by symmetry).  The tensor is rotationally invariant about
    the NV axis: mu0 (M_x, M_y) = (chi_perp B_x - chi_d B_y, chi_d B_x +
    chi_perp B_y).
    """

    chi_perp: float
    chi_d: float
    chi_par: float


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


def susceptibility_numeric(params: SpinParams, b0: float) -> SusceptibilityTensor:
    """Susceptibility from the exact derivative of the solved steady state.

    The one-field case of :func:`susceptibility_numeric_batch`:
    chi_perp = mu0 dM_x/dB_x, chi_d = mu0 dM_y/dB_x and chi_par =
    mu0 dM_z/dB_z at the axial bias ``b0``.
    """
    return susceptibility_numeric_batch(params, [b0])[0][0]


def susceptibility_numeric_batch(params: SpinParams, b0s) -> tuple[list, np.ndarray]:
    """(tensors, states): :func:`susceptibility_numeric` at each axial bias
    of ``b0s`` and the bias states (k, 3, 3), from one
    :func:`steady_state_derivative_batch` along x and z, so each field
    gives the same bits as alone.  Every state passes the positivity check
    of :func:`magnetization`."""
    fields = np.zeros((len(b0s), 3))
    fields[:, 2] = b0s
    rhos, drhos = steady_state_derivative_batch(
        params, fields, np.broadcast_to([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], (len(b0s), 2, 3)))
    for rho in rhos:
        check_density_matrix(rho, **_STATE_TOLERANCES)
    dms = -MU0 * params.density * HBAR * params.gyromagnetic_ratio * spin_expectation(drhos)
    return [SusceptibilityTensor(chi_perp=float(dm[0, 0]), chi_d=float(dm[0, 1]),
                                 chi_par=float(dm[1, 2])) for dm in dms], rhos


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

