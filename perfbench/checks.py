"""Output checks of the benchmark, computed apart from the program.

Every reference here is plain numpy/scipy written for the benchmark: the
closed-form Lorentzian susceptibility, the libration closed form and
stiffness, and 3x3 eigen-solves of the NV ground-state Hamiltonian.  The
checks compare program outputs with these references or test properties
the method must have (exact zeros, symmetries, orderings).  Nothing is
compared with a stored copy of earlier program output.

Each ``check_*`` function returns a list of failure messages; an empty
list means the output passed.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

TWO_PI = 2.0 * np.pi
DEG = np.pi / 180.0
HBAR = 1.054571817e-34  # J s, CODATA 2018 to the quoted ten digits
MU0 = 4.0e-7 * np.pi  # T m / A

# Model defaults of the README configuration block.
D = TWO_PI * 2.87e9  # zero-field splitting, rad/s
GAMMA_E = TWO_PI * 28.024e9  # rad/(s T)
GAMMA1 = 2.0e3  # 1/s
GAMMA2 = TWO_PI * 5.0e6  # rad/s
PUMP = 1.0e6  # 1/s
DENSITY = 1.76e23  # 1/m^3
N_SPINS = 2.5e8
INERTIA = 1.0e-22  # kg m^2
TRAP_ANGLE = 0.05235987755982988  # rad

# cube-diagonal NV axes; class 0 is the tracked one
NV_AXES = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                    [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / np.sqrt(3.0)

# spin-1 operators, basis (|+1>, |0>, |-1>); By = 0 keeps H real
_SX = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / np.sqrt(2.0)
_SZ = np.diag([1.0, 0.0, -1.0])


# --- closed forms -------------------------------------------------------

def pumping_factor(pump: float = PUMP, gamma1: float = GAMMA1) -> float:
    return pump / (3.0 * gamma1 + pump)


def detunings(b: float) -> tuple[float, float]:
    """(Delta_-, Delta_+) = D -/+ gamma_e*B, rad/s."""
    return D - GAMMA_E * b, D + GAMMA_E * b


def chi_perp(b: float, pump: float = PUMP, gamma2: float = GAMMA2,
             density: float = DENSITY) -> float:
    """Transverse susceptibility: two Lorentzian responses of the |0>->|+-1>
    coherences weighted by the pumping factor."""
    d_m, d_p = detunings(b)
    pref = density * HBAR * GAMMA_E**2 * MU0 * pumping_factor(pump)
    return pref * (d_m / (d_m**2 + gamma2**2) + d_p / (d_p**2 + gamma2**2))


def free_critical_field() -> float:
    """Zero of chi_perp(B) between 0.09 T and 0.2 T (tesla)."""
    return float(brentq(chi_perp, 0.09, 0.2, xtol=1e-12))


def libration_closed_form(b: float, n_spins: float, pump: float) -> float:
    """gamma_e*B*sqrt(hbar*N*P/(I*|Delta_-|)), rad/s."""
    d_m, _ = detunings(b)
    return GAMMA_E * b * np.sqrt(HBAR * n_spins * pumping_factor(pump)
                                 / (INERTIA * abs(d_m)))


def libration_stiffness(b: float, n_spins: float, pump: float) -> float:
    """Single-class small-angle stiffness at theta* = 0, N m/rad."""
    d_m, d_p = detunings(b)
    return -(HBAR * n_spins * pumping_factor(pump) * (GAMMA_E * b) ** 2
             * (d_m / (d_m**2 + GAMMA2**2) + d_p / (d_p**2 + GAMMA2**2)))


# --- eigen-solves -------------------------------------------------------

def _levels(b_perp: float, b_par: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (Hz) and eigenvectors for a field in the NV frame."""
    h = D * (_SZ @ _SZ) + GAMMA_E * (b_perp * _SX + b_par * _SZ)
    vals, vecs = np.linalg.eigh(h)
    return vals / TWO_PI, vecs


def sorted_lines(theta: float, b: float) -> tuple[float, float]:
    """Line pair from energy-sorted levels: valid below the level crossing,
    where the |0>-like level is the lowest."""
    vals, _ = _levels(b * np.sin(theta), b * np.cos(theta))
    return float(vals[1] - vals[0]), float(vals[2] - vals[0])


def zero_state_lines(b_perp: float, b_par: float) -> dict:
    """Lines from the most |0>-like eigenstate: 'lower'/'upper' sorted by
    frequency, 'minus'/'plus' labelled by the |-1>/|+1> character."""
    vals, vecs = _levels(b_perp, b_par)
    weight = vecs**2
    k0 = int(np.argmax(weight[1]))
    others = [k for k in range(3) if k != k0]
    freq = {k: abs(vals[k] - vals[k0]) for k in others}
    k_minus = max(others, key=lambda k: weight[2, k])
    k_plus = others[0] if k_minus == others[1] else others[1]
    lower, upper = sorted(freq.values())
    return {"lower": float(lower), "upper": float(upper),
            "minus": float(freq[k_minus]), "plus": float(freq[k_plus])}


def class_field(theta: float, b: float, cls: int) -> tuple[float, float]:
    """(transverse, axial) field of class ``cls`` when the tracked axis is
    tilted by theta from a field of magnitude b at azimuth 0 (the transverse
    projection of the class-1 axis)."""
    z0 = NV_AXES[0]
    e0 = NV_AXES[1] - (NV_AXES[1] @ z0) * z0
    e0 /= np.linalg.norm(e0)
    field = b * (np.sin(theta) * e0 + np.cos(theta) * z0)
    par = float(field @ NV_AXES[cls])
    return float(np.linalg.norm(field - par * NV_AXES[cls])), par


# --- checks: MDMR -------------------------------------------------------

def jump_side(spectra, center_hz: float) -> str:
    """Side of the line centre holding the largest tilt step of either
    sweep; ``spectra`` is a sequence of (frequencies, delta_theta)."""
    best_step, best_freq = -1.0, None
    for freqs, dth in spectra:
        steps = np.abs(np.diff(np.asarray(dth, dtype=float)))
        i = int(np.argmax(steps))
        if steps[i] > best_step:
            best_step, best_freq = float(steps[i]), 0.5 * (freqs[i] + freqs[i + 1])
    return "high" if best_freq > center_hz else "low"


def check_jump_side(spectra, center_hz: float, expected: str) -> list:
    side = jump_side(spectra, center_hz)
    return [] if side == expected else [f"jump on the {side} side, expected {expected}"]


def check_directions_agree(dth_up, dth_down, tol: float = 1e-5 * DEG) -> list:
    gap = float(np.max(np.abs(np.asarray(dth_up) - np.asarray(dth_down)[::-1])))
    return [] if gap < tol else [f"up/down sweeps differ by {gap / DEG:.3e} deg"]


def check_peak_at_line(freqs, dth, line_hz: float, width_hz: float) -> list:
    peak = float(freqs[int(np.argmax(np.abs(dth)))])
    if abs(peak - line_hz) <= width_hz:
        return []
    return [f"largest response at {peak:.6e} Hz, line at {line_hz:.6e} Hz"]


def check_class_lines(class_lines_hz, classes, theta: float, b: float,
                      tol_hz: float = 1e3) -> list:
    out = []
    for row, cls in zip(class_lines_hz, classes):
        ref = zero_state_lines(*class_field(theta, b, cls))
        err = max(abs(row[0] - ref["lower"]), abs(row[1] - ref["upper"]))
        if not err <= tol_hz:
            out.append(f"class {cls} lines off by {err:.3e} Hz")
    return out


def check_exact_zero(dth) -> list:
    dth = np.asarray(dth, dtype=float)
    return [] if np.all(dth == 0.0) else [f"zero drive moved the tilt by up to {np.max(np.abs(dth)):.3e}"]


# --- checks: orientation recipes ----------------------------------------

def check_susceptibility(rows) -> list:
    """rows: (b, chi_perp_numeric); 1e-6 relative with a 1e-5 floor on |chi|."""
    worst = 0.0
    for b, chi_num in rows:
        ref = chi_perp(b)
        worst = max(worst, abs(chi_num - ref) / max(abs(ref), 1e-5))
    return [] if worst < 1e-6 else [f"chi_perp off the closed form by {worst:.3e} relative"]


def check_critical_fields(b_free: float, b_trapped: float) -> list:
    out = []
    ref = free_critical_field()
    if not abs(b_free - ref) < 1e-6:
        out.append(f"free critical field {b_free!r} T, closed form {ref!r} T")
    if not b_trapped > b_free:
        out.append(f"trapped critical field {b_trapped!r} T not above free {b_free!r} T")
    return out


def check_equilibrium_regions(bs, thetas) -> list:
    """Flat below 45 mT, decreasing over 70-105 mT, locked under 3 degrees
    from 115 mT on."""
    bs, thetas = np.asarray(bs), np.asarray(thetas)
    out = []
    if not np.max(np.abs(thetas[bs <= 0.045] - TRAP_ANGLE)) < 1.0 * DEG:
        out.append("tilt not flat below 45 mT")
    middle = (bs >= 0.07) & (bs <= 0.105)
    if not np.all(np.diff(thetas[middle]) < 2e-4):
        out.append("tilt not decreasing over 70-105 mT")
    if not np.max(thetas[bs >= 0.115]) <= 3.0 * DEG:
        out.append("tilt not locked under 3 deg past 115 mT")
    return out


def check_rotation(theta_b, theta, theta_control, theta0: float = TRAP_ANGLE) -> list:
    out = []
    drift = abs(theta[-1] - theta[0])
    if not drift < 5.0 * DEG:
        out.append(f"locked axis drifted {drift / DEG:.3f} deg")
    if any(c != theta0 + tb for tb, c in zip(theta_b, theta_control)):
        out.append("theta_control differs from theta0 + theta_B")
    return out


def check_landscape(rows) -> list:
    """rows: (theta, phi, energy) on a grid including theta = 0 and the
    azimuths 0 and 2*pi."""
    rows = np.asarray(rows, dtype=float)
    thetas, phis = np.unique(rows[:, 0]), np.unique(rows[:, 1])
    energy = np.full((thetas.size, phis.size), np.nan)
    for th, ph, u in rows:
        energy[np.searchsorted(thetas, th), np.searchsorted(phis, ph)] = u
    out = []
    i0 = int(np.searchsorted(thetas, 0.0))
    if thetas[i0] != 0.0 or np.any(energy[i0] != 0.0):
        out.append("U(0, phi) is not exactly 0")
    if not (phis[0] == 0.0 and np.isclose(phis[-1], TWO_PI, rtol=0, atol=1e-12)):
        out.append("azimuth grid does not span 0 to 2 pi")
    else:
        scale = np.maximum(np.abs(energy[:, 0]), np.finfo(float).tiny)
        worst = float(np.max(np.abs(energy[:, -1] - energy[:, 0]) / scale))
        if not worst <= 1e-9:
            out.append(f"U(theta, 0) and U(theta, 2 pi) differ by {worst:.3e} relative")
    if np.any(np.argmin(energy, axis=0) != i0):
        out.append("energy minimum not at theta = 0 for every phi")
    return out


def check_libration(rows, n_spins: float, variable: str, field_b: float | None = None,
                    pump: float = PUMP) -> list:
    """rows: (x, omega_numeric, omega_analytic, theta_star, stable) where x
    is the field (variable='field') or the pump rate (variable='pump_rate',
    at field ``field_b``).  The bound flags below 35 mT are not read."""
    out = []
    for x, om_num, om_ana, theta_star, _stable in rows:
        b, p = (x, pump) if variable == "field" else (field_b, x)
        ref = libration_closed_form(b, n_spins, p)
        if not abs(om_ana - ref) <= 1e-12 * ref:
            out.append(f"omega_analytic at {x!r}: {om_ana!r}, closed form {ref!r}")
        numeric_applies = theta_star == 0.0 and (
            b >= 0.115 if variable == "field" else (b >= 0.115 and p >= 2e5))
        if numeric_applies:
            ref_num = np.sqrt(libration_stiffness(b, n_spins, p) / INERTIA)
            if not abs(om_num - ref_num) <= 1e-4 * ref_num:
                out.append(f"omega_numeric at {x!r}: {om_num!r}, sqrt(K/I) {ref_num!r}")
    return out


# --- checks: magnetometry -----------------------------------------------

def check_recovered(theta: float, b: float, theta_true: float, b_true: float,
                    tol_theta: float = 0.1 * DEG, tol_b: float = 1e-4) -> list:
    out = []
    if not abs(theta - theta_true) <= tol_theta:
        out.append(f"theta {theta / DEG:.6f} deg, target {theta_true / DEG:.6f} deg")
    if not abs(b - b_true) <= tol_b:
        out.append(f"B {b * 1e3:.6f} mT, target {b_true * 1e3:.6f} mT")
    return out


def check_errors_finite(theta_err: float, b_err: float) -> list:
    ok = np.isfinite(theta_err) and np.isfinite(b_err) and theta_err > 0.0 and b_err > 0.0
    return [] if ok else [f"uncertainties not finite and positive: {theta_err!r}, {b_err!r}"]


def check_aligned_error_inflated(theta_err_aligned: float, theta_err_tilted: float) -> list:
    if theta_err_aligned > 3.0 * theta_err_tilted:
        return []
    return [f"aligned theta_err {theta_err_aligned!r} not above 3x tilted {theta_err_tilted!r}"]


def check_pair_reproduced(pair, target, tol_hz: float = 1.0) -> list:
    err = max(abs(pair[0] - target[0]), abs(pair[1] - target[1]))
    return [] if err <= tol_hz else [f"returned point misses the pair by {err:.3e} Hz"]
