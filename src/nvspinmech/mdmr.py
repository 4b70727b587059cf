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
mechanical role at these frequencies, so a rate treatment suffices.

The scan starts from the microwave-off equilibrium that
``mechanics.equilibrium_angle`` solves; the MDMR signal is each point's
displacement from it.  A scan point is the stable root of F(theta; nu) =
tau_spin(theta; nu) - k*(theta - theta0) nearest the previous tilt, found
by the same anchored scan and Brent polish (``roots._stable_root``);
following the branch along the sweep yields direction-dependent jumps
(hysteresis) at folds.  With the drive off F does not depend on nu, so a
zero-drive scan solves nothing past its baseline.

A driven-torque batch has two halves.  The tilt half depends only on the
tilts: the class-frame fields, the eigenbasis of H with its level gaps,
drive weights and projectors, and the undriven generator.  The frequency
half adds the Lorentzian rates and the drive generator, solves the steady
state and rotates the moments back.  The scan is anchored to fixed tilts,
so consecutive frequencies scan the same windows, and off a fold the two
sweeps of a hysteresis pair scan the same tilts at each frequency and take
the same Brent steps.  A pair therefore shares one memo between its
sweeps: the baseline, the tilt half of each scan window (a batch of more
than one tilt; a one-tilt Brent step never recurs, so its half is not
held), and the driven-torque batches keyed by every input the torque
reads.  Each is built once, and a hit returns what the same call
computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .constants import HBAR
from .crystal import CrystalOrientation
from .mechanics import (ALL_CLASSES, RangeExhaustedError, TiltGeometry, _class_fields, _dot3,
                        _torque_scale, equilibrium_angle, tilt_geometry)
from .params import FieldVector, MicrowaveDrive, SpinParams, TrapModel
from .roots import _stable_root
from .spincore import (SX, _coordinates, _field_array, _generator_parts, _generators,
                       _hamiltonian_batch, _in_slices, _moments, _steady_vectors, _structure,
                       build_hamiltonian)

_BARE_ZERO = np.array([0.0, 1.0, 0.0])  # |m_s = 0> in the (+1, 0, -1) basis
_OFF_DIAGONAL = 1.0 - np.eye(3)


def zero_connected_lines(params: SpinParams, b_nv) -> tuple[float, float]:
    """The two transition frequencies (Hz) from the most |0>-like eigenstate,
    ordered (lower, upper)."""
    vals, vecs = np.linalg.eigh(build_hamiltonian(params, b_nv))
    k0 = int(np.argmax(np.abs(_BARE_ZERO @ vecs) ** 2))
    freqs = sorted(abs(vals[k] - vals[k0]) / HBAR / (2.0 * np.pi)
                   for k in range(3) if k != k0)
    return float(freqs[0]), float(freqs[1])


def _eigenbasis(params: SpinParams, b: np.ndarray) -> tuple:
    """The frequency-independent part of the drive at NV-frame fields
    (k, 3): level gaps (rad/s) and drive weights w_ab, both (k, 3, 3), the
    projector coordinates (k, 3, 9), V and V^+ of :func:`microwave_superoperator`."""
    vals, vecs = np.linalg.eigh(HBAR * _hamiltonian_batch(params, b))
    vecs_h = np.conj(np.swapaxes(vecs, 1, 2))
    gaps = np.abs(vals[:, None, :] - vals[:, :, None]) / HBAR
    weight = 2.0 * np.abs(vecs_h @ SX @ vecs) ** 2 * _OFF_DIAGONAL
    proj = _coordinates(np.einsum("kpa,kqa->kapq", vecs, np.conj(vecs)))  # (k, 3, 9)
    return gaps, weight, proj, vecs, vecs_h


def _drive_generator(basis: tuple, g_eff: float, rabi_rate: float,
                     frequency_hz: float) -> np.ndarray:
    """The drive generators (k, 9, 9) at ``frequency_hz`` over an
    :func:`_eigenbasis`: Lorentzian rates W_ab and the jump sum."""
    gaps, weight, proj, vecs, vecs_h = basis
    delta = 2.0 * np.pi * frequency_hz - gaps
    rates = 0.5 * rabi_rate**2 * weight * g_eff / (delta**2 + g_eff**2)
    gain = np.swapaxes(proj, 1, 2) @ rates @ proj
    g = _coordinates((vecs * rates.sum(axis=1)[:, None, :]) @ vecs_h)
    return gain - 0.5 * np.einsum("kj,jab->kab", g, _structure()[1])


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
    total = _drive_generator(_eigenbasis(params, b), params.gamma2_star, drive.rabi_rate,
                             frequency_hz)
    return total if stack else total[0]


@dataclass(frozen=True)
class MdmrPoint:
    """One scan point.  ``converged`` is False only when the total torque
    has no stable root in [-pi/2, pi]; ``iterations`` counts the torque
    evaluations the point requested (a batched bracket scan counts as one),
    memo hits included, so it does not depend on the sweep order.  The
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


class _TiltHalf(NamedTuple):
    """The frequency-independent half of a driven-torque batch at k tilts.
    Each class-frame point is solved at its in-plane field (|b_perp|, 0,
    b_z), where the drive acts along S_x, and its moment is rotated back by
    the azimuth alpha of b_perp (0 for an axial field: the transverse
    reference)."""

    dfields: np.ndarray  # class-frame db/dtheta (n_classes, k, 3)
    cos: np.ndarray  # cos(alpha) and sin(alpha) (n_classes, k)
    sin: np.ndarray
    basis: tuple  # the _eigenbasis of the in-plane fields
    generators: np.ndarray  # undriven A0 + sum_i b_i A_i (n_classes * k, 9, 9)


def _tilt_half(params: SpinParams, geom: TiltGeometry, thetas: np.ndarray,
               classes) -> _TiltHalf:
    """The :class:`_TiltHalf` at ``thetas``; the class-frame field and its
    theta-derivative come from one :func:`_class_fields` call."""
    k = len(thetas)
    fields, dfields = _class_fields(geom.field_and_derivative(thetas), classes)
    bx, by, bz = fields[..., 0], fields[..., 1], fields[..., 2]
    inplane = np.zeros((len(classes), k, 3))
    inplane[..., 0], inplane[..., 2] = np.hypot(bx, by), bz
    inplane = inplane.reshape(-1, 3)
    alpha = np.arctan2(by, bx)
    return _TiltHalf(dfields, np.cos(alpha), np.sin(alpha), _eigenbasis(params, inplane),
                     _generators(*_generator_parts(params), inplane))


def _driven_class_moments(params: SpinParams, tilt: _TiltHalf, rabi_rate: float,
                          frequency_hz: float) -> np.ndarray:
    """Class-frame moments (n_classes, k, 3) under the drive: the Lorentzian
    rates and drive generators on the tilt half's eigenbasis, one
    steady-state solve of the driven generators, and the rotation by
    alpha."""
    gen = tilt.generators + _drive_generator(tilt.basis, params.gamma2_star, rabi_rate,
                                             frequency_hz)
    r, _ = _in_slices(len(gen), lambda s: _steady_vectors(gen[s]))
    m = (-HBAR * params.gyromagnetic_ratio * _moments(r)).reshape(tilt.dfields.shape)
    mx, my = m[..., 0], m[..., 1]
    out = m.copy()
    out[..., 0], out[..., 1] = tilt.cos * mx - tilt.sin * my, tilt.sin * mx + tilt.cos * my
    return out


def _driven_total_torque(params: SpinParams, tilt: _TiltHalf, trap: TrapModel,
                         rabi_rate: float, frequency_hz: float, thetas) -> np.ndarray:
    """Spin torque under the drive plus trap torque at the tilt half's
    tilts ``thetas``: the frequency half of a driven-torque batch."""
    moments = _driven_class_moments(params, tilt, rabi_rate, frequency_hz)
    spin = params.n_spins_per_class * sum(_dot3(moments, tilt.dfields))
    return spin - trap.stiffness * (thetas - trap.theta0)


def mdmr_scan(params: SpinParams, orientation: CrystalOrientation, trap: TrapModel,
              b_lab: FieldVector, drive: MicrowaveDrive,
              classes=ALL_CLASSES, *, memo: dict | None = None) -> MdmrSpectrum:
    """Sweep the drive over its frequencies and record tilt displacements.

    The baseline is the microwave-off equilibrium of
    :func:`equilibrium_angle`.  Each point is the stable root of the
    drive-included total torque nearest the previous point's tilt, which
    reproduces the direction dependence of the response near bistable
    jumps.  A point with no stable root anywhere in [-pi/2, pi] keeps the
    previous tilt and is flagged unconverged; the scan continues.  With the
    drive off the torque does not depend on the frequency, so every point
    is the baseline, converged after 0 evaluations.  The |0>-connected
    lines of each class are solved once, at the baseline tilt.

    ``memo`` holds, under (parameters, geometry, trap, classes), the
    baseline, the tilt half of every driven-torque batch of more than one
    tilt (the scan windows) under the tilts' bytes, and every driven-torque
    batch under the tilts' bytes, rabi rate and frequency: every input the
    torque reads.  Each is looked up first and stored after a miss, so one
    dict may be shared between scans (:func:`hysteresis_pair`); without
    one the scan makes its own, and a window that a later frequency scans
    again reuses its tilt half.  The half of a one-tilt Brent step is not
    held: that step never recurs at another frequency, and the torque
    batch it gave serves the other sweep of a pair.

    Raises:
        RangeExhaustedError: the microwave-off torque has no stable root in
            [-pi/2, pi], so there is no baseline to scan from.
    """
    if len(drive.frequencies) == 0:
        raise ValueError("drive sweep is empty")
    geom = tilt_geometry(orientation, b_lab)
    scale = _torque_scale(params, geom.b_mag)
    classes = tuple(classes)
    memo = {} if memo is None else memo

    if (entry := memo.get(off_key := (params, geom, trap, classes))) is None:
        entry = memo[off_key] = (equilibrium_angle(params, orientation, trap, b_lab,
                                                   classes=classes), {}, {})
    eq, tilts, torques = entry
    if not eq.bound:
        raise RangeExhaustedError("no stable microwave-off equilibrium: cannot scan")
    baseline = eq.theta

    def driven_torque(freq):
        def torque(thetas):
            thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
            if (tau := torques.get(key := (thetas.tobytes(), drive.rabi_rate, freq))) is None:
                if (tilt := tilts.get(key[0])) is None:
                    tilt = _tilt_half(params, geom, thetas, classes)
                    if len(thetas) > 1:
                        tilts[key[0]] = tilt
                tau = torques[key] = _driven_total_torque(params, tilt, trap, drive.rabi_rate,
                                                          freq, thetas)
                tau.flags.writeable = False  # every hit hands out this array
            return tau
        return torque

    points = []
    theta = baseline
    for freq in drive.frequencies:
        # with the drive off the torque does not depend on freq: every root is the baseline
        root, evals = ((baseline, 0) if drive.rabi_rate == 0.0
                       else _stable_root(brentq, driven_torque(freq), theta, scale))
        ok = root is not None
        theta = root if ok else theta
        points.append(MdmrPoint(frequency_hz=float(freq), theta=theta,
                                delta_theta=theta - baseline, converged=ok, iterations=evals))
    fields = _class_fields(geom.field_and_derivative(baseline)[0], classes)[:, 0]
    return MdmrSpectrum(drive=drive, baseline_theta=baseline, points=tuple(points),
                        class_lines_hz=np.array([zero_connected_lines(params, f)
                                                 for f in fields]))


def hysteresis_pair(params: SpinParams, orientation: CrystalOrientation,
                    trap: TrapModel, b_lab: FieldVector, drive: MicrowaveDrive,
                    classes=ALL_CLASSES) -> tuple[MdmrSpectrum, MdmrSpectrum]:
    """The same sweep traversed in both directions: (up scan, down scan).

    Both scans share one memo (:func:`mdmr_scan`), so the microwave-off
    baseline is solved once, the tilt half of each scan window is built once
    for both sweeps, and the down sweep solves only the torque batches the
    up sweep did not: off a fold it scans the same tilts and takes the same
    Brent steps.  Each spectrum is bitwise that of an independent scan,
    iteration counts included.
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
