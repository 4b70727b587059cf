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

A scan point is the stable root of F(theta; nu) = tau_spin(theta; nu) -
k*(theta - theta0) nearest the previous tilt, found by the anchored scan
and Brent polish that ``equilibrium_angle`` also uses
(``mechanics._stable_root``); following the branch along the sweep yields
direction-dependent jumps (hysteresis) at folds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .constants import HBAR
from .crystal import CrystalOrientation
from .mechanics import (ALL_CLASSES, RangeExhaustedError, TiltGeometry, _class_fields,
                        _nv_moments, _spin_torque_along, _stable_root, _torque_scale,
                        tilt_geometry)
from .params import FieldVector, MicrowaveDrive, SpinParams, TrapModel
from .spincore import (SX, _coordinates, _field_array, _hamiltonian_batch, _structure,
                       build_hamiltonian, steady_state)

_BARE_ZERO = np.array([0.0, 1.0, 0.0])  # |m_s = 0> in the (+1, 0, -1) basis
_OFF_DIAGONAL = 1.0 - np.eye(3)


def transition_table(params: SpinParams, b_nv) -> list[tuple[float, float, int, int]]:
    """All transitions of one class: (frequency_hz, weight, i, j) with i < j.

    Weights are 2|<i|Sx|j>|^2; eigenstates are indexed by ascending energy.
    """
    vals, vecs = np.linalg.eigh(build_hamiltonian(params, b_nv))
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
    vals, vecs = np.linalg.eigh(build_hamiltonian(params, b_nv))
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

    ``b_nv`` is one NV-frame field, giving a real 9x9 matrix in the
    coherence-vector coordinates of ``spincore``, or a (k, 3) stack, giving
    a (k, 9, 9) stack; the drive is along S_x of that frame.  Returns None
    when the drive is off (zero rate), so callers can skip it.

    With the eigenvectors v_a of H as the columns of V and W_ab the rate
    from b to a (symmetric, zero diagonal), the jumps |a><b| sum to the
    Pauli master equation in the instantaneous eigenbasis,

        P W P^T - {G, .} / 2,   G = V diag(sum_a W_ab) V^+,

    where column a of P holds the coordinates of |v_a><v_a|.
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
    proj = _coordinates(np.einsum("kpa,kqa->kapq", vecs, np.conj(vecs)))  # (k, 3, 9)
    gain = np.swapaxes(proj, 1, 2) @ rates @ proj
    g = _coordinates((vecs * rates.sum(axis=1)[:, None, :]) @ vecs_h)
    total = gain - 0.5 * np.einsum("kj,jab->kab", g, _structure()[1])
    return total if stack else total[0]


def mw_steady_state(params: SpinParams, b_nv, drive: MicrowaveDrive,
                    frequency_hz: float | None = None) -> np.ndarray:
    """Steady state of one class under optical pumping plus microwave drive."""
    freq = drive.frequencies[0] if frequency_hz is None else frequency_hz
    extra = microwave_superoperator(params, b_nv, freq, drive)
    return steady_state(params, b_nv, extra_superoperator=extra)


@dataclass(frozen=True)
class MdmrPoint:
    """One scan point.  ``converged`` is False only when the total torque
    has no stable root in [-pi/2, pi]; ``iterations`` counts the torque
    evaluations of the point (a batched bracket scan counts as one)."""

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


def _driven_moments(params: SpinParams, fields: np.ndarray, frequency_hz: float,
                    drive: MicrowaveDrive) -> np.ndarray:
    """Class-frame moments (n_classes, k, 3) under the drive at class-frame
    fields of that shape, one steady-state batch.  The drive acts along S_x
    of each class's transverse-field frame: a point is solved at (|b_perp|,
    0, b_z) and its moment rotated back by the azimuth alpha of b_perp (0
    for an axial field: the transverse reference)."""
    bx, by, bz = np.moveaxis(fields, -1, 0)
    inplane = np.stack([np.hypot(bx, by), np.zeros_like(bz), bz], axis=-1)
    extra = microwave_superoperator(params, inplane.reshape(-1, 3), frequency_hz, drive)
    mx, my, mz = np.moveaxis(_nv_moments(params, inplane, extra), -1, 0)
    alpha = np.arctan2(by, bx)
    cos, sin = np.cos(alpha), np.sin(alpha)
    return np.stack([cos * mx - sin * my, sin * mx + cos * my, mz], axis=-1)


def _driven_total_torque(params: SpinParams, geom: TiltGeometry, trap: TrapModel,
                         drive: MicrowaveDrive, frequency_hz: float, thetas,
                         classes) -> np.ndarray:
    """Spin torque under the drive plus trap torque, one steady-state batch."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    fields = _class_fields(geom.b_crystal(thetas), classes)
    moments = _driven_moments(params, fields, frequency_hz, drive)
    spin = _spin_torque_along(params, moments, geom.db_dtheta(thetas), classes)
    return spin - trap.stiffness * (thetas - trap.theta0)


def mdmr_scan(params: SpinParams, orientation: CrystalOrientation, trap: TrapModel,
              b_lab: FieldVector, drive: MicrowaveDrive,
              classes=ALL_CLASSES) -> MdmrSpectrum:
    """Sweep the drive over its frequencies and record tilt displacements.

    Each point is the stable root of the drive-included total torque
    nearest the previous point's tilt, which reproduces the direction
    dependence of the response near bistable jumps.  A point with no
    stable root anywhere in [-pi/2, pi] keeps the previous tilt and is
    flagged unconverged; the scan continues.

    Raises:
        RangeExhaustedError: the microwave-off torque has no stable root in
            [-pi/2, pi], so there is no baseline to scan from.
    """
    if len(drive.frequencies) == 0:
        raise ValueError("drive sweep is empty")
    geom = tilt_geometry(orientation, b_lab)
    scale = _torque_scale(params, geom.b_mag)

    def stable_tilt(drv, freq, guess):
        return _stable_root(brentq, lambda th: _driven_total_torque(
            params, geom, trap, drv, freq, th, classes), guess, scale)

    off_drive = MicrowaveDrive(rabi_rate=0.0, frequencies=(0.0,))
    baseline, _ = stable_tilt(off_drive, 0.0, trap.theta0)
    if baseline is None:
        raise RangeExhaustedError("no stable microwave-off equilibrium: cannot scan")

    def lines_at(tilt):
        fields = _class_fields(geom.b_crystal([tilt]), classes)
        return [zero_connected_lines(params, f) for f in fields[:, 0]]

    points = []
    theta = baseline
    for freq in drive.frequencies:
        root, evals = stable_tilt(drive, freq, theta)
        ok = root is not None
        theta = root if ok else theta
        points.append(MdmrPoint(frequency_hz=float(freq), theta=theta,
                                delta_theta=theta - baseline, converged=ok, iterations=evals,
                                class_lines_hz=tuple(lines_at(theta))))
    return MdmrSpectrum(drive=drive, baseline_theta=baseline, points=tuple(points),
                        class_lines_hz=np.array(lines_at(baseline)))


def hysteresis_pair(params: SpinParams, orientation: CrystalOrientation,
                    trap: TrapModel, b_lab: FieldVector, drive: MicrowaveDrive,
                    classes=ALL_CLASSES) -> tuple[MdmrSpectrum, MdmrSpectrum]:
    """The same sweep traversed in both directions: (up scan, down scan)."""
    up_drive = drive if drive.direction == "up" else drive.reversed()
    down_drive = up_drive.reversed()
    up = mdmr_scan(params, orientation, trap, b_lab, up_drive, classes)
    down = mdmr_scan(params, orientation, trap, b_lab, down_drive, classes)
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
