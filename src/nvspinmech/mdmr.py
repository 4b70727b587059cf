"""Mechanically detected magnetic resonance: microwave sweeps moving the
equilibrium orientation, including the bistable nonlinear regime.

The microwave drive is modeled as an incoherent population-transfer rate
between instantaneous spin eigenstates,

    W_ij(nu) = (Omega_R^2 / 2) * w_ij * G / (delta_ij^2 + G^2),

with delta_ij the angular detuning of the drive from the i<->j transition,
G the response linewidth (the dephasing rate ``gamma2_star``), and
w_ij = 2|<i|Sx|j>|^2 the normalized drive matrix element (1 on the nominal
single-quantum lines for an axial field, 0 on the forbidden double-quantum
line).  Every transition of every orientation class receives its
Lorentzian tail simultaneously.  Coherences with the drive play no
mechanical role at these frequencies, so a rate treatment suffices.  The
drive is built from eigenvector components with no complex matrix product
(``spincore._eigenbasis``): coherence vectors are linear (Hioe & Eberly
1981), so sum_i s_i |v_i><v_i| has sum_i s_i times the projectors'
coordinates.  The drive is along S_x of the in-plane frame (|b_perp|, 0,
b_par) in which ``mechanics`` solves every class point.

The scan starts from the microwave-off equilibrium that
``mechanics.equilibrium_angle`` solves; the MDMR signal is each point's
displacement from it.  A scan point is the stable root of F(theta; nu) =
tau_spin(theta; nu) - k*(theta - theta0) nearest the previous tilt, so a
scan is a chain of warm starts, solved like the equilibrium sweeps by
``roots._branch_roots``: the rows are the frequencies, each tilt is
evaluated at its row's frequency, and the tilts a wave asks for at all
frequencies are one driven call of the torque kernel
``mechanics._tilt_torques``, less the trap torque.  Following the branch
along the sweep yields direction-dependent jumps (hysteresis) at folds.
With the drive off F does not depend on nu, so a zero-drive scan solves
nothing past its baseline.  A hysteresis pair shares its torques
(:func:`hysteresis_pair`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .crystal import CrystalOrientation
from .mechanics import (ALL_CLASSES, RangeExhaustedError, _class_fields, _tilt_torques,
                        _torque_scale, equilibrium_angle, tilt_geometry)
from .params import FieldVector, MicrowaveDrive, SpinParams, TrapModel
from .roots import _branch_roots
from .spincore import _drive_generator, _eigenbasis, _field_stack


def zero_connected_lines(params: SpinParams, b_nv):
    """The two transition frequencies (Hz) from the most |0>-like eigenstate,
    (lower, upper), of one NV-frame field, or a (k, 2) array of a (k, 3)
    stack, bitwise per field: the level gaps of ``spincore._eigenbasis`` from
    the eigenvector with the largest weight |<0|v_a>|^2, row 1 of its
    projector block.  ValueError for a non-finite or mis-shaped field."""
    stack = np.ndim(b_nv) == 2
    gaps, _, proj = _eigenbasis(params, _field_stack(b_nv, one=not stack))
    k0 = np.argmax(proj[:, 1, :3], axis=1)
    # the gap of the |0>-like state to itself is exactly 0, the smallest
    lines = np.sort(gaps[np.arange(len(gaps)), k0], axis=1)[:, 1:] / (2.0 * np.pi)
    return lines if stack else (float(lines[0, 0]), float(lines[0, 1]))


def microwave_superoperator(params: SpinParams, b_nv, frequency_hz: float,
                            drive: MicrowaveDrive) -> np.ndarray | None:
    """Population-transfer generator for a drive at ``frequency_hz``.

    ``b_nv`` is one NV-frame field, giving a real 9x9 matrix in the
    coherence-vector coordinates of ``spincore``, or a (k, 3) stack, giving
    a (k, 9, 9) stack; the drive is along S_x of that frame, and a
    non-finite or mis-shaped field is a ValueError.  Returns None when the
    drive is off (zero rate), so callers can skip it.

    With the eigenvectors v_a of H as the columns of V and W_ab the rate
    from b to a (symmetric, zero diagonal), the jumps |a><b| sum to the
    Pauli master equation in the instantaneous eigenbasis,

        P W P^T - {G, .} / 2,   G = V diag(sum_a W_ab) V^+,

    where column a of P holds the coordinates of |v_a><v_a|.
    """
    if drive.rabi_rate == 0.0:
        return None
    stack = np.ndim(b_nv) == 2
    total = _drive_generator(params, _field_stack(b_nv, one=not stack), drive.rabi_rate,
                             frequency_hz)
    return total if stack else total[0]


@dataclass(frozen=True)
class MdmrPoint:
    """One scan point.  ``converged`` is False only when the total torque
    has no stable root in [-pi/2, pi]; ``iterations`` counts the torque
    evaluations the point requested (a batched bracket scan counts as one),
    tilts already solved included, so it depends neither on the sweep
    order nor on the waves that solved the scan.  The
    class lines are recorded once per scan, at the baseline tilt
    (:attr:`MdmrSpectrum.class_lines_hz`)."""

    frequency_hz: float
    theta: float
    delta_theta: float
    converged: bool
    iterations: int


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


def mdmr_scan(params: SpinParams, orientation: CrystalOrientation, trap: TrapModel,
              b_lab: FieldVector, drive: MicrowaveDrive,
              classes=ALL_CLASSES, *, memo: dict | None = None) -> MdmrSpectrum:
    """Sweep the drive over its frequencies and record tilt displacements.

    The baseline is the microwave-off equilibrium of
    :func:`equilibrium_angle`.  Each point is the stable root of the
    drive-included total torque nearest the previous point's tilt, which
    reproduces the direction dependence of the response near bistable
    jumps; the points are solved together in waves, bitwise the
    point-by-point loop (``roots._branch_roots``).  A point with no stable
    root anywhere in [-pi/2, pi] keeps the previous tilt and is flagged
    unconverged; the scan continues.  With the drive off the torque does
    not depend on the frequency, so every point is the baseline, converged
    after 0 evaluations.  The |0>-connected lines of each class are solved
    once, at the baseline tilt.

    ``memo`` holds, under (parameters, geometry, trap, classes), the
    baseline and, under each (Rabi rate, frequency), the torque memory of
    that point's row (tilt -> total torque of every tilt solved there), so
    every input the torque reads is in a key.  One dict may be shared
    between scans (:func:`hysteresis_pair`); it changes no point.

    Raises:
        RangeExhaustedError: the microwave-off torque has no stable root in
            [-pi/2, pi], so there is no baseline to scan from.
    """
    if len(drive.frequencies) == 0:
        raise ValueError("drive sweep is empty")
    geom = tilt_geometry(orientation, b_lab)
    classes = tuple(classes)
    memo = {} if memo is None else memo

    if (entry := memo.get(key := (params, geom, trap, classes))) is None:
        entry = memo[key] = (equilibrium_angle(params, orientation, trap, b_lab,
                                               classes=classes), {})
    eq, solved = entry
    if not eq.bound:
        raise RangeExhaustedError("no stable microwave-off equilibrium: cannot scan")
    baseline = eq.theta
    freqs = np.array(drive.frequencies, dtype=float)
    n = len(freqs)
    if drive.rabi_rate == 0.0:  # the torque does not depend on freq: every root is the baseline
        found = [(baseline, 0)] * n
    else:
        def total(rows, thetas):  # spin plus trap torque, each tilt at its row's frequency
            return (_tilt_torques(params, geom, thetas, classes, None, False,
                                  (drive.rabi_rate, freqs[rows]))[0]
                    - trap.stiffness * (np.asarray(thetas, dtype=float) - trap.theta0))

        found = _branch_roots(
            brentq, total, [baseline] * n, [_torque_scale(params, geom.b_mag)] * n,
            [solved.setdefault((drive.rabi_rate, f), {}) for f in freqs.tolist()])

    points = []
    theta = baseline
    for freq, (root, evals) in zip(freqs.tolist(), found):
        ok = root is not None
        theta = root if ok else theta
        points.append(MdmrPoint(frequency_hz=freq, theta=theta,
                                delta_theta=theta - baseline, converged=ok, iterations=evals))
    fields = _class_fields(geom.field_and_derivative(baseline)[0], classes)[:, 0]
    return MdmrSpectrum(drive=drive, baseline_theta=baseline, points=tuple(points),
                        class_lines_hz=zero_connected_lines(params, fields))


def hysteresis_pair(params: SpinParams, orientation: CrystalOrientation,
                    trap: TrapModel, b_lab: FieldVector, drive: MicrowaveDrive,
                    classes=ALL_CLASSES) -> tuple[MdmrSpectrum, MdmrSpectrum]:
    """The same sweep traversed in both directions: (up scan, down scan).

    Both scans share one memo (:func:`mdmr_scan`), so the microwave-off
    baseline is solved once, and the down sweep evaluates only the
    (frequency, tilt) pairs the up sweep did not: off a fold it scans the
    same tilts and takes the same Brent steps.  Each spectrum is bitwise
    that of an independent scan, iteration counts included.
    """
    up_drive = drive if drive.direction == "up" else drive.reversed()
    down_drive = up_drive.reversed()
    memo = {}
    up = mdmr_scan(params, orientation, trap, b_lab, up_drive, classes, memo=memo)
    down = mdmr_scan(params, orientation, trap, b_lab, down_drive, classes, memo=memo)
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
