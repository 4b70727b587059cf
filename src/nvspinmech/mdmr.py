"""Mechanically detected magnetic resonance: microwave sweeps moving the
equilibrium orientation, including the bistable nonlinear regime.

The microwave drive is modeled as an incoherent population-transfer rate
between instantaneous spin eigenstates,

    W_ij(nu) = (Omega_R^2 / 2) * w_ij * G / (delta_ij^2 + G^2),

with delta_ij the angular detuning of the drive from the i<->j transition,
G the response linewidth (dephasing rate, optionally power-broadened), and
w_ij = 2|<i|Sx|j>|^2 the normalized drive matrix element (1 on the nominal
single-quantum lines for an axial field, 0 on the forbidden double-quantum
line).  Every transition of every orientation class receives its
Lorentzian tail simultaneously.  Coherences with the drive play no
mechanical role at these frequencies, so a rate treatment suffices.

A scan point is converged by damped fixed-point iteration between the
spin steady state at the current tilt and the mechanical equilibrium
under the resulting (frozen-moment) torque; warm-starting along the sweep
yields direction-dependent jumps (hysteresis) in the nonlinear regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .constants import HBAR
from .crystal import CrystalOrientation
from .mechanics import (ALL_CLASSES, TiltGeometry, _class_frames, _class_moments_batch,
                        equilibrium_angle, tilt_geometry)
from .params import FieldVector, MicrowaveDrive, SpinParams, TrapModel
from .spincore import (SX, _field_array, _hamiltonian_batch, _left_right, build_hamiltonian,
                       steady_state)

_BARE_ZERO = np.array([0.0, 1.0, 0.0])  # |m_s = 0> in the (+1, 0, -1) basis
_OFF_DIAGONAL = 1.0 - np.eye(3)


def _eigensystem(params: SpinParams, b_nv) -> tuple[np.ndarray, np.ndarray]:
    h = build_hamiltonian(params, b_nv)
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs


def transition_table(params: SpinParams, b_nv) -> list[tuple[float, float, int, int]]:
    """All transitions of one class: (frequency_hz, weight, i, j) with i < j.

    Weights are 2|<i|Sx|j>|^2; eigenstates are indexed by ascending energy.
    """
    vals, vecs = _eigensystem(params, b_nv)
    out = []
    for i in range(3):
        for j in range(i + 1, 3):
            freq = (vals[j] - vals[i]) / HBAR / (2.0 * np.pi)
            weight = 2.0 * abs(vecs[:, i].conj() @ SX @ vecs[:, j]) ** 2
            out.append((float(freq), float(weight), i, j))
    return out


def zero_connected_lines(params: SpinParams, b_nv) -> tuple[float, float]:
    """The two transition frequencies (Hz) from the most |0>-like eigenstate,
    ordered (lower, upper)."""
    vals, vecs = _eigensystem(params, b_nv)
    k0 = int(np.argmax(np.abs(_BARE_ZERO @ vecs) ** 2))
    freqs = sorted(abs(vals[k] - vals[k0]) / HBAR / (2.0 * np.pi)
                   for k in range(3) if k != k0)
    return float(freqs[0]), float(freqs[1])


def _response_linewidth(params: SpinParams, drive: MicrowaveDrive) -> float:
    base = params.gamma2_star + drive.extra_broadening
    if drive.power_broadening:
        gamma_pop = 3.0 * params.gamma1 + params.pump_rate
        return float(np.sqrt(base**2 + drive.rabi_rate**2 * base / gamma_pop))
    return float(base)


def microwave_superoperator(params: SpinParams, b_nv, frequency_hz: float,
                            drive: MicrowaveDrive) -> np.ndarray | None:
    """Population-transfer generator for a drive at ``frequency_hz``.

    ``b_nv`` is one NV-frame field, giving a 9x9 matrix, or a (k, 3) stack,
    giving a (k, 9, 9) stack.  Returns None when the drive is off (zero
    rate), so callers can skip it.

    With the eigenvectors v_a of H as the columns of V and W_ab the rate
    from b to a (symmetric, zero diagonal), the jumps |a><b| sum to the
    Pauli master equation in the instantaneous eigenbasis,

        U W U^+ - (G x I + I x G^T) / 2,   G = V diag(sum_a W_ab) V^+,

    where column a of U is v_a x v_a* (row-major vectorization).
    """
    if drive.rabi_rate == 0.0:
        return None
    stack = np.ndim(b_nv) == 2
    b = np.asarray(b_nv, dtype=float) if stack else _field_array(b_nv)[None]
    vals, vecs = np.linalg.eigh(HBAR * _hamiltonian_batch(params, b))
    g_eff = _response_linewidth(params, drive)
    vecs_h = np.conj(np.swapaxes(vecs, 1, 2))
    delta = 2.0 * np.pi * frequency_hz - np.abs(vals[:, None, :] - vals[:, :, None]) / HBAR
    weight = 2.0 * np.abs(vecs_h @ SX @ vecs) ** 2 * _OFF_DIAGONAL
    rates = 0.5 * drive.rabi_rate**2 * weight * g_eff / (delta**2 + g_eff**2)
    u = np.einsum("kpa,kqa->kpqa", vecs, np.conj(vecs)).reshape(-1, 9, 3)
    gain = u @ rates @ np.conj(np.swapaxes(u, 1, 2))
    left, right = _left_right((vecs * rates.sum(axis=1)[:, None, :]) @ vecs_h)
    total = gain - 0.5 * (left + right)
    return total if stack else total[0]


def mw_steady_state(params: SpinParams, b_nv, drive: MicrowaveDrive,
                    frequency_hz: float | None = None) -> np.ndarray:
    """Steady state of one class under optical pumping plus microwave drive."""
    freq = drive.frequencies[0] if frequency_hz is None else frequency_hz
    extra = microwave_superoperator(params, b_nv, freq, drive)
    return steady_state(params, b_nv, extra_superoperator=extra)


@dataclass(frozen=True)
class MdmrPoint:
    frequency_hz: float
    theta: float
    delta_theta: float
    converged: bool
    iterations: int
    class_lines_hz: tuple = ()  # per-class |0>-connected pair at this tilt


@dataclass(frozen=True)
class MdmrSpectrum:
    """Result of one frequency sweep.

    ``baseline_theta`` is the microwave-off equilibrium tilt; every record
    stores the self-consistent tilt and its displacement from baseline.
    ``class_lines_hz`` holds the two |0>-connected transition frequencies
    of each orientation class evaluated at the baseline tilt.
    """

    drive: MicrowaveDrive
    baseline_theta: float
    points: tuple
    class_lines_hz: np.ndarray  # shape (n_classes, 2)

    @property
    def frequencies_hz(self) -> np.ndarray:
        return np.array([p.frequency_hz for p in self.points])

    @property
    def delta_theta(self) -> np.ndarray:
        return np.array([p.delta_theta for p in self.points])

    @property
    def theta(self) -> np.ndarray:
        return np.array([p.theta for p in self.points])


def _frozen_moment_root(geom: TiltGeometry, trap: TrapModel, moments: np.ndarray,
                        n_per_class: float, theta_guess: float) -> float | None:
    """Tilt where the torque of frozen moments balances the trap.

    With fixed moment vectors the spin torque is A*cos(theta) - C*sin(theta);
    the sign-change root nearest the guess is returned, None if the total
    torque never changes sign in the search window.
    """
    m_tot = n_per_class * moments.sum(axis=0)
    a_coef = geom.b_mag * float(m_tot @ geom.e_phi)
    c_coef = geom.b_mag * float(m_tot @ geom.z0)

    def g(th):
        return a_coef * np.cos(th) - c_coef * np.sin(th) - trap.stiffness * (th - trap.theta0)

    for lo, hi, n in ((theta_guess - 0.35, theta_guess + 0.35, 141),
                      (-0.5 * np.pi, np.pi, 189)):
        grid = np.linspace(lo, hi, n)
        vals = g(grid)
        hits = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
        roots = [float(grid[i]) if vals[i] == 0.0
                 else float(brentq(g, grid[i], grid[i + 1], xtol=1e-10)) for i in hits]
        if roots:
            return min(roots, key=lambda r: abs(r - theta_guess))
    return None


def _fixed_point_tilt(params: SpinParams, geom: TiltGeometry, trap: TrapModel,
                      drive: MicrowaveDrive, frequency_hz: float, theta_init: float,
                      classes, damping: float = 0.5, max_iter: int = 200,
                      tol: float = 1e-7) -> tuple[float, bool, int]:
    """Damped alternation: spin state at current tilt, then mechanical root.

    The damping starts at the configured value and halves whenever a block
    of iterations fails to contract; this settles onto any locally stable
    branch, while genuine fold jumps (where no stable branch exists nearby)
    exhaust the budget and are flagged.
    """
    theta = theta_init
    d = damping
    last_err = np.inf
    for it in range(1, max_iter + 1):
        frames = _class_frames(geom, [theta], classes)
        extra = microwave_superoperator(params, frames[0].reshape(-1, 3), frequency_hz, drive)
        moments = _class_moments_batch(params, frames, extra)[:, 0]
        root = _frozen_moment_root(geom, trap, moments, params.n_spins_per_class, theta)
        if root is None:
            return theta, False, it
        err = abs(root - theta)
        if err < tol:
            return theta, True, it
        if it % 25 == 0:
            if err >= 0.5 * last_err:
                d = max(0.5 * d, 1.0 / 64.0)
            last_err = err
        theta = theta + d * (root - theta)
    return theta, False, max_iter


def mdmr_scan(params: SpinParams, orientation: CrystalOrientation, trap: TrapModel,
              b_lab: FieldVector, drive: MicrowaveDrive,
              classes=ALL_CLASSES, damping: float = 0.5, max_iter: int = 200,
              tol: float = 1e-7) -> MdmrSpectrum:
    """Sweep the drive over its frequencies and record tilt displacements.

    Each point is warm-started from the previous one, which reproduces the
    direction dependence of the response near bistable jumps.  Points that
    do not reach a fixed point within ``max_iter`` are recorded with their
    last iterate and flagged; the scan continues.
    """
    if len(drive.frequencies) == 0:
        raise ValueError("drive sweep is empty")
    geom = tilt_geometry(orientation, b_lab)
    eq = equilibrium_angle(params, orientation, trap, b_lab, classes=classes)
    if not eq.bound:
        raise RuntimeError("no stable microwave-off equilibrium: cannot scan")
    off_drive = MicrowaveDrive(rabi_rate=0.0, frequencies=(0.0,))
    baseline, base_ok, _ = _fixed_point_tilt(
        params, geom, trap, off_drive, 0.0, eq.theta, classes, damping, max_iter, tol)
    if not base_ok:
        raise RuntimeError("microwave-off baseline did not converge")

    def lines_at(tilt):
        fields, _ = _class_frames(geom, [tilt], classes)
        return [zero_connected_lines(params, f) for f in fields[:, 0]]

    points = []
    theta = baseline
    for freq in drive.frequencies:
        theta, ok, iters = _fixed_point_tilt(
            params, geom, trap, drive, freq, theta, classes, damping, max_iter, tol)
        points.append(MdmrPoint(frequency_hz=float(freq), theta=theta,
                                delta_theta=theta - baseline, converged=ok,
                                iterations=iters,
                                class_lines_hz=tuple(lines_at(theta))))
    return MdmrSpectrum(drive=drive, baseline_theta=baseline, points=tuple(points),
                        class_lines_hz=np.array(lines_at(baseline)))


def hysteresis_pair(params: SpinParams, orientation: CrystalOrientation,
                    trap: TrapModel, b_lab: FieldVector, drive: MicrowaveDrive,
                    classes=ALL_CLASSES, **scan_kwargs) -> tuple[MdmrSpectrum, MdmrSpectrum]:
    """The same sweep traversed in both directions: (up scan, down scan)."""
    up_drive = drive if drive.direction == "up" else drive.reversed()
    down_drive = up_drive.reversed()
    up = mdmr_scan(params, orientation, trap, b_lab, up_drive, classes, **scan_kwargs)
    down = mdmr_scan(params, orientation, trap, b_lab, down_drive, classes, **scan_kwargs)
    return up, down


def sharp_edge_side(up: MdmrSpectrum, down: MdmrSpectrum, line_center_hz: float) -> str:
    """Which side of a line carries the discontinuous jump: "high" or "low".

    Looks for the single largest step of the tilt response across both
    sweep directions and compares its frequency with the weak-drive line
    center.
    """
    best_freq, best_jump = None, -1.0
    for spectrum in (up, down):
        freqs = spectrum.frequencies_hz
        dth = spectrum.delta_theta
        if freqs.size < 2:
            continue
        steps = np.abs(np.diff(dth))
        i = int(np.argmax(steps))
        if steps[i] > best_jump:
            best_jump = float(steps[i])
            best_freq = 0.5 * (freqs[i] + freqs[i + 1])
    if best_freq is None:
        raise ValueError("scans too short to locate a jump")
    return "high" if best_freq > line_center_hz else "low"
