"""Spin torques, angular energy landscapes, equilibrium orientation and libration.

The orientation degree of freedom is the tilt angle theta of the tracked
(class 0) NV axis away from the applied field, along the great circle
selected by the azimuth phi (measured in the crystal frame around it).
All four orientation classes contribute: each class's steady-state moment
m_c' is solved at its in-plane field (|b_perp|, 0, b_par), the field turned
about the class axis, and the torque conjugate to theta is

    tau_theta = sum_c N_c * m_c' . d_c',

with d_c' = db_c/dtheta turned into the same frame; one kernel
(:func:`_tilt_torques`) gives undriven and driven torques.  In the linear
regime this reduces to the classical (V/mu0) * chi_perp * B^2 * theta form
of the induced-moment torque.  A torque batch is one pass: one sin/cos, one
class projection and one moment solve for all of it.

The magnetic potential U(theta, phi) is defined as -integral of tau_theta
along constant-phi paths from theta = 0 (the steady-state torque field
need not be conservative; a curl diagnostic is provided).  The tracked axis
is the pole of (theta, phi) and the model is symmetric about each axis, so
class 0's torque, and its part of U, does not depend on phi.  A harmonic trap
torque -k*(theta - theta0) represents the electrostatic angular
confinement, and the librational frequency follows from the total angular
stiffness at equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy.optimize import brentq

from .constants import HBAR
from .crystal import NV_AXES, CrystalOrientation, _check_classes, transverse_reference
from .params import FieldVector, SpinParams, TrapModel
from .roots import _XTOL, _branch_roots, _stable_roots
from .spincore import _drive_generator, _moments, _solve, detunings, steady_state_moments

ALL_CLASSES = (0, 1, 2, 3)

# Gauss-Legendre rules for the adaptive torque quadrature: both node sets
# of a panel go into one batch, 6 nodes then 12.  A panel converges when
# its two estimates agree to _QUAD_RTOL relative, or absolutely to
# _QUAD_ATOL of the torque scale per radian (at least 1e-3 rad); it splits
# at most _QUAD_DEPTH times (at the level crossing the torque changes sign
# within 1e-4 rad of theta = 0, and the panel there takes 11 splits).
_GL_LO = np.polynomial.legendre.leggauss(6)
_GL_HI = np.polynomial.legendre.leggauss(12)
_GL_NODES = np.concatenate([_GL_LO[0], _GL_HI[0]])
_QUAD_RTOL = 1e-8
_QUAD_ATOL = 1e-12
_QUAD_DEPTH = 12

# Rows x, y, z of each class's NV frame, fixed in the crystal: z the axis,
# y = z x transverse_reference(z), x = y x z (orthogonal to z in floating
# point: an axial field has transverse components of exactly 0).  The
# class projection reads them, and _inplane then turns each class point
# about its axis into the frame of its own field.
_Y = np.cross(NV_AXES, [transverse_reference(axis) for axis in NV_AXES])
_CLASS_FRAMES = np.stack([np.cross(_Y, NV_AXES), _Y, NV_AXES], axis=1)
_Z0_PAIR = np.stack([NV_AXES[0], -NV_AXES[0]])[:, None]


class QuadratureError(RuntimeError):
    """Adaptive torque quadrature failed to converge.

    Attributes:
        cell: (theta_lo, theta_hi, phi) of the worst interval, with the phi of
            the failing line: 0.0 for a landscape's class-0 line, which serves every phi.
    """

    def __init__(self, message: str, cell: tuple):
        super().__init__(f"{message}; worst cell theta=[{cell[0]:.4f}, {cell[1]:.4f}], "
                         f"phi={cell[2]:.4f}")
        self.cell = cell


class RangeExhaustedError(RuntimeError):
    """No transition/root found inside the searched range."""


@dataclass(frozen=True)
class TiltGeometry:
    """Crystal-frame description of the field great circle.

    The field direction is b(theta) = sin(theta)*e_phi + cos(theta)*z0
    where z0 is the tracked (class 0) NV axis and e_phi = cos(phi)*x0 +
    sin(phi)*y0 the azimuthal direction in the x and y rows of its NV
    frame; all class axes are constants of the crystal frame.
    """

    b_mag: float
    phi: float

    z0 = NV_AXES[0]

    @cached_property
    def e_phi(self) -> np.ndarray:
        x, y = _CLASS_FRAMES[0, :2]
        return np.cos(self.phi) * x + np.sin(self.phi) * y

    def field_and_derivative(self, thetas) -> np.ndarray:
        """b and db/dtheta (2, k, 3) at k tilts, from one sin/cos."""
        th = np.atleast_1d(np.asarray(thetas, dtype=float))[:, None]
        trig = np.empty((2,) + th.shape)
        np.sin(th, out=trig[0])
        np.cos(th, out=trig[1])
        # (sin, cos) e_phi + (cos, sin) (z0, -z0)
        return self.b_mag * (trig * self.e_phi + trig[::-1] * _Z0_PAIR)


def tilt_geometry(orientation: CrystalOrientation, b_lab: FieldVector) -> TiltGeometry:
    """Geometry of the tilt coordinate for a lab-frame field: |B| and the
    azimuth phi of the field around the tracked axis, in [0, 2 pi) from
    the x row of the axis's NV frame toward its y row (those of
    :attr:`TiltGeometry.e_phi`).  phi = 0 at zero field, on the axis of
    either sign, and where the tilt rounds to 0 (gimbal degenerate)."""
    b = b_lab.as_array()
    b_mag, phi = b_lab.magnitude, 0.0
    if b_mag > 0.0:
        x, y, z = _CLASS_FRAMES[0]
        bc = orientation.to_crystal(b) / b_mag
        ct = float(np.clip(bc @ z, -1.0, 1.0))
        perp = bc - ct * z
        if np.linalg.norm(perp) >= 1e-15 and np.arccos(ct) != 0.0:
            phi = float(np.mod(float(np.arctan2(perp @ y, perp @ x)) % (2.0 * np.pi),
                               2.0 * np.pi))
    return TiltGeometry(b_mag=b_mag, phi=phi)


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, term by term: unlike a reduction or a
    matrix product, it rounds the same way for any batch size."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


@lru_cache(maxsize=None)
def _frames(classes: tuple) -> np.ndarray:
    """The NV frames (n_classes, 1, 3, 3) of ``classes``, ready to broadcast;
    ValueError unless ``classes`` names distinct classes of 0..3."""
    return _CLASS_FRAMES[list(_check_classes(classes)), None]


def _class_fields(v_crystal: np.ndarray, classes=ALL_CLASSES) -> np.ndarray:
    """Class-frame components (..., n_classes, k, 3) of a (..., k, 3) stack
    of crystal-frame vectors: the NV-frame fields of a field stack."""
    return _dot3(v_crystal[..., None, :, None, :], _frames(tuple(classes)))


def _per_tilt(params, geom, rows) -> tuple[TiltGeometry, float | np.ndarray]:
    """(geometry, spin count) of the tilts: ``geom`` and N without
    ``rows``; with them, a geometry of (k, 1) columns (b_mag, phi) and k
    spin counts, each of its tilt's row."""
    if rows is None:
        return geom, params.n_spins_per_class
    column = lambda values: np.array(values)[rows]
    return (TiltGeometry(b_mag=column([g.b_mag for g in geom])[:, None],
                         phi=column([g.phi for g in geom])[:, None]),
            column([p.n_spins_per_class for p in params]))


def _inplane(vectors: np.ndarray, classes) -> np.ndarray:
    """The class points (1 + m, n_classes, k, 3) of a (1 + m, k, 3) stack of
    crystal-frame vectors, a field b then m directions d, turned about each
    class axis until b is in plane: b' = (|b_perp|, 0, b_par) and d' =
    (c dx + s dy, c dy - s dx, dz), (c, s) = (bx, by) / |b_perp| or (1, 0)
    at the theta = 0 gimbal, where bx = by = 0.  The undriven model is
    symmetric about each axis and the drive acts along S_x of this frame,
    so m . d = m' . d' for the moments m' at b'."""
    out = _class_fields(vectors, classes)
    b, d = out[0], out[1:]
    bx, by, dx, dy = b[..., 0], b[..., 1], d[..., 0], d[..., 1]
    perp = np.hypot(bx, by)
    axial = perp == 0.0
    c, s = bx / (perp + axial) + axial, by / (perp + axial)
    d[..., 0], d[..., 1] = c * dx + s * dy, c * dy - s * dx
    b[..., 0], b[..., 1] = perp, 0.0
    return out


def _tilt_torques(params, geom, thetas, classes, rows, slope: bool, drive=None):
    """Torques at ``thetas`` and, if ``slope``, their exact slopes (else
    None): b and db/dtheta from one sin/cos, the class points from one
    :func:`_inplane`, and one moment solve; with ``drive``, (Rabi rate,
    frequency in Hz, one or one per tilt), that of ``spincore._solve`` with
    the drive generators (torques only, no rows).  At phi = 0 the field lies
    in the mirror plane of classes 2 and 3 (equal in-plane fields to
    1.5e-16), so class 3 takes class 2's moment with its own d': a torque
    batch solves 3 class points of such a tilt, a slope batch all 4.  Each
    tilt decides, so a tilt gives the same bits in any batch."""
    geom, n = _per_tilt(params, geom, rows)
    fields, dfields = _inplane(geom.field_and_derivative(thetas), classes)
    shape = fields.shape
    mirror = np.ravel(geom.phi) == np.zeros(shape[1]) if {2, 3} <= set(classes) else None
    solve = np.ones(shape[:2], dtype=bool)  # the class points solved
    if mirror is not None and not slope:
        solve[classes.index(3)] = ~mirror
    solve = solve.ravel()
    points = fields.reshape(-1, 3)[solve]
    per_point = lambda values: np.broadcast_to(values, shape[:2]).ravel()[solve]
    if drive is None:
        m, dm = steady_state_moments(params, points, None if rows is None else per_point(rows),
                                     dfields.reshape(-1, 1, 3) if slope else None)
    else:
        rabi_rate, freqs = drive[0], per_point(drive[1])
        r, _ = _solve(params, points,
                      lambda s: _drive_generator(params, points[s], rabi_rate, freqs[s]))
        m, dm = _moments(r), None
    scale = -HBAR * (params if rows is None else params[0]).gyromagnetic_ratio
    moments = np.empty(shape)
    moments.reshape(-1, 3)[solve] = scale * m
    if mirror is not None:
        moments[classes.index(3), mirror] = moments[classes.index(2), mirror]
    tau = n * sum(_dot3(moments, dfields))
    return tau, (n * sum(_dot3(scale * dm.reshape(shape), dfields) - _dot3(moments, fields))
                 if slope else None)


def tilt_torque_batch(params: SpinParams, geom: TiltGeometry, thetas,
                      classes=ALL_CLASSES, rows=None) -> np.ndarray:
    """Torque conjugate to the tilt angle (N m) at each requested theta; a
    tilt gives the same bits alone as inside any batch.  With ``rows`` the
    tilts belong to independent rows: ``params`` and ``geom`` are lists
    with one entry per row and ``rows[j]`` is the row of tilt j, so the
    tilts of many fields and pump rates are solved in one batch."""
    return _tilt_torques(params, geom, thetas, classes, rows, False)[0]


def tilt_torque_and_slope(params: SpinParams, geom: TiltGeometry, thetas,
                          classes=ALL_CLASSES, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Torques (N m), bitwise those of :func:`tilt_torque_batch`, and their
    exact slopes (N m/rad) at each requested theta: in the in-plane frame of
    each class point (:func:`_inplane`), with Dm_c' the derivative of its
    moment along d_c' (:func:`steady_state_moments`) and d2b/dtheta2 = -b,
    tau' = N * sum_c (Dm_c' . d_c' - m_c' . b_c').  ``rows`` is that of
    :func:`tilt_torque_batch`.
    """
    return _tilt_torques(params, geom, thetas, classes, rows, True)


def _integrate_torque(params: SpinParams, geom: TiltGeometry, a: float, b: float,
                      classes=ALL_CLASSES) -> float:
    """Adaptive Gauss-Legendre integral of tau_theta over [a, b]."""
    if a == b:
        return 0.0
    atol = _QUAD_ATOL * _torque_scale(params, geom.b_mag) * max(abs(b - a), 1e-3)

    def panel(lo, hi, depth):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = tilt_torque_batch(params, geom, mid + half * _GL_NODES, classes)
        coarse = half * float(_GL_LO[1] @ t[:6])
        fine = half * float(_GL_HI[1] @ t[6:])
        if abs(fine - coarse) <= max(atol, _QUAD_RTOL * abs(fine)):
            return fine
        if depth <= 0:
            raise QuadratureError("torque quadrature did not converge",
                                  cell=(lo, hi, geom.phi))
        return panel(lo, mid, depth - 1) + panel(mid, hi, depth - 1)

    return panel(a, b, _QUAD_DEPTH)


@dataclass(frozen=True)
class EnergyLandscape:
    """Magnetic potential on a (theta, phi) grid.

    ``energy[i, j]`` is U(theta[i], phi[j]) in joules, with U(0, phi) = 0,
    obtained by integrating -tau_theta from theta = 0 at constant phi.
    """

    theta: np.ndarray
    phi: np.ndarray
    energy: np.ndarray
    b_mag: float
    params: SpinParams

    def __post_init__(self):
        if not np.all(np.isfinite(self.energy)):
            raise ValueError("landscape energies must be finite")

    @property
    def depth(self) -> float:
        """Peak-to-valley energy span over the grid (J)."""
        return float(self.energy.max() - self.energy.min())


def magnetic_energy_landscape(params: SpinParams, orientation: CrystalOrientation,
                              b_lab: FieldVector, theta_grid, phi_grid,
                              classes=ALL_CLASSES) -> EnergyLandscape:
    """Angular magnetic energy summed over the NV classes: U(theta, phi) =
    U_0(theta) + U_rest(theta, phi), class 0's part integrated once along
    phi = 0 (it does not depend on phi), the other classes' per azimuth.

    Args:
        theta_grid: strictly increasing tilt angles (rad); may include
            negative values, integration always starts from theta = 0.
        phi_grid: strictly increasing azimuths (rad).
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    phi_grid = np.asarray(phi_grid, dtype=float)
    for name, g in (("theta_grid", theta_grid), ("phi_grid", phi_grid)):
        if g.ndim != 1 or g.size == 0 or not np.all(np.isfinite(g)):
            raise ValueError(f"{name} must be a finite 1-d grid")
        if g.size > 1 and not np.all(np.diff(g) > 0):
            raise ValueError(f"{name} must be strictly increasing")
    b_mag = b_lab.magnitude
    # anchor the cumulative integral at theta = 0; integrate over the
    # sorted anchor path so intervals stay short
    sorted_anchors = np.sort(np.concatenate([[0.0], theta_grid]))
    i0 = int(np.searchsorted(sorted_anchors, 0.0))

    def line(phi, line_classes) -> np.ndarray:  # U at theta_grid along one azimuth
        geom = TiltGeometry(b_mag=b_mag, phi=float(phi))
        u_at = {sorted_anchors[i0]: 0.0}
        for a, c in zip(sorted_anchors[i0:-1], sorted_anchors[i0 + 1:]):
            u_at[c] = u_at[a] - _integrate_torque(params, geom, a, c, line_classes)
        for a, c in zip(sorted_anchors[:i0][::-1], sorted_anchors[1:i0 + 1][::-1]):
            u_at[a] = u_at[c] + _integrate_torque(params, geom, a, c, line_classes)
        return np.array([u_at[t] for t in theta_grid])

    _frames(tuple(classes))  # ValueError for bad classes, before any split
    rest = tuple(c for c in classes if c != 0)  # one line per azimuth
    energy = (np.stack([line(phi, rest) for phi in phi_grid], axis=1) if rest
              else np.zeros((theta_grid.size, phi_grid.size)))
    if 0 in classes:  # the axis line serves every azimuth
        energy += line(0.0, (0,))[:, None]
    return EnergyLandscape(theta=theta_grid, phi=phi_grid, energy=energy,
                           b_mag=b_mag, params=params)


def landscape_curl_check(params: SpinParams, orientation: CrystalOrientation,
                         b_lab: FieldVector, n_samples: int = 8, seed: int = 1,
                         classes=ALL_CLASSES) -> float:
    """Path-dependence diagnostic of the torque field.

    Returns the largest relative curl |d(tau_theta)/dphi - d(tau_phi)/dtheta|
    over random (theta, phi) samples, normalized by the local torque scale.
    The steady-state torque field is dissipative, so this need not vanish;
    small values justify treating U as a potential.  The curl is exact: the
    mixed second derivative of the field cancels, leaving
    N * sum_c (dm_c/dphi . db_c/dtheta - dm_c/dtheta . db_c/dphi), taken
    in the in-plane frames of the torques (:func:`_inplane`).

    Raises:
        ValueError: if ``n_samples`` is below 1.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples!r}")
    rng = np.random.default_rng(seed)
    b_mag = b_lab.magnitude
    samples = [(rng.uniform(0.1, 1.2), rng.uniform(0.0, 2.0 * np.pi))
               for _ in range(n_samples)]
    geoms = [(TiltGeometry(b_mag=b_mag, phi=float(ph)), float(th)) for th, ph in samples]
    b, db_th = np.concatenate([g.field_and_derivative(th) for g, th in geoms], axis=1)
    db_ph = np.array([b_mag * np.sin(th) * np.cross(g.z0, g.e_phi) for g, th in geoms])
    fields, d_th, d_ph = _inplane(np.stack([b, db_th, db_ph]), classes)
    dirs = np.stack([d_th, d_ph], axis=2)
    m, dm = steady_state_moments(params, fields.reshape(-1, 3), None, dirs.reshape(-1, 2, 3))
    scale = -HBAR * params.gyromagnetic_ratio
    m, dm = scale * m.reshape(fields.shape), scale * dm.reshape(dirs.shape)
    n = params.n_spins_per_class
    curl = n * sum(_dot3(dm[:, :, 1], d_th) - _dot3(dm[:, :, 0], d_ph))
    tau = [np.abs(n * sum(_dot3(m, d))) for d in (d_th, d_ph)]
    floor = 1e-9 * n * HBAR * params.gyromagnetic_ratio * b_mag
    return float(np.max(np.abs(curl) / np.maximum(np.maximum(*tau), floor)))


@dataclass(frozen=True)
class EquilibriumResult:
    """Stable root of the total (spin + trap) tilt torque.

    ``bound`` is False when no stable root exists in [-pi/2, pi]; the other
    fields are then NaN/0, and ``iterations`` counts the scan windows.
    ``slope`` is the exact d(total torque)/dtheta at the root
    (:func:`tilt_torque_and_slope` minus the trap stiffness), so the total
    angular stiffness there is -slope.
    """

    theta: float
    stability: float  # sign of -d(total torque)/dtheta at the root
    torque_residual: float
    iterations: int
    slope: float = np.nan  # N m/rad
    bound: bool = True


def _torque_scale(params: SpinParams, b_mag: float) -> float:
    """Largest spin torque of four fully polarized classes (N m)."""
    return 4.0 * params.n_spins_per_class * HBAR * params.gyromagnetic_ratio * b_mag


def _equilibria(rows, traps, guesses, classes=ALL_CLASSES,
                follow: bool = False) -> list[EquilibriumResult]:
    """Equilibria of rows [(params, geometry)], one trap each: roots by
    :func:`_stable_roots` in shared scan and polish batches (with
    ``follow``, of a sweep by :func:`_branch_roots`), the slopes at all
    bound roots in one derivative batch.  A row gives the same result alone
    as among others, since a tilt gives the same bits in any batch."""
    params, geoms = [p for p, _ in rows], [g for _, g in rows]
    stiffness = np.array([trap.stiffness for trap in traps])
    theta0 = np.array([trap.theta0 for trap in traps])

    def batch(kernel, idx, th):  # one tilt, or tilts of one row, need no per-tilt lookups
        if len(rows) == 1 or len(idx) == 1:
            return kernel(*rows[idx[0]], th, classes)
        return kernel(params, geoms, th, classes, np.asarray(idx))

    def total(idx, th):  # spin plus trap torque
        return (batch(tilt_torque_batch, idx, th)
                - stiffness[idx] * (np.asarray(th, dtype=float) - theta0[idx]))

    found = (_branch_roots if follow else _stable_roots)(
        brentq, total, guesses, [_torque_scale(p, g.b_mag) for p, g in rows])
    results = [EquilibriumResult(theta=np.nan, stability=0.0, torque_residual=np.nan,
                                 iterations=evals, bound=False) for _, evals in found]
    if not (bound := [i for i, (root, _) in enumerate(found) if root is not None]):
        return results
    taus, slopes = batch(tilt_torque_and_slope, bound, [found[i][0] for i in bound])
    for i, tau, slope in zip(bound, taus, slopes):
        (root, evals), trap = found[i], traps[i]
        total_slope = float(slope - trap.stiffness)
        results[i] = EquilibriumResult(
            theta=root, stability=float(-np.sign(total_slope)),
            torque_residual=abs(float(tau - trap.stiffness * (root - trap.theta0))),
            iterations=evals + 1, slope=total_slope, bound=True)
    return results


def equilibrium_angle(params: SpinParams, orientation: CrystalOrientation,
                      trap: TrapModel, b_lab: FieldVector,
                      warm_start: float | None = None,
                      classes=ALL_CLASSES) -> EquilibriumResult:
    """Stable equilibrium tilt of the tracked NV axis.

    The stable root of the total torque in [-pi/2, pi] nearest
    ``warm_start`` (the previous solution, which selects the branch in
    bistable regions) or, without one, nearest the trap angle, found by
    :func:`_stable_roots`; the one-row case of :func:`_equilibria`.
    ``iterations`` counts batched torque evaluations (scan windows, Brent
    steps and the slope at the root).
    """
    return _equilibria([(params, tilt_geometry(orientation, b_lab))], [trap],
                       [trap.theta0 if warm_start is None else warm_start], classes)[0]


def equilibrium_branch(params: SpinParams, orientation: CrystalOrientation, cases,
                       classes=ALL_CLASSES, guess: float | None = None) -> list[EquilibriumResult]:
    """Equilibria along a sweep: :func:`equilibrium_angle` of each
    ``(trap, b_lab)`` case warm-started from the last bound root before it
    (``guess``, else its trap angle, until there is one), which follows the
    stable branch.  The cases are solved together in waves, bitwise the
    case-by-case loop (:func:`_branch_roots`)."""
    cases = list(cases)
    return _equilibria([(params, tilt_geometry(orientation, b_lab)) for _, b_lab in cases],
                       [trap for trap, _ in cases],
                       [trap.theta0 if guess is None else guess for trap, _ in cases],
                       classes, follow=True)


# trapped critical field: a coarse sweep, then rounds of 5-point refinement
_COARSE_FIELDS = 24
_REFINE_ROUNDS = 5


def critical_field(params: SpinParams, orientation: CrystalOrientation,
                   trap: TrapModel, b_range: tuple = (0.09, 0.2),
                   classes=ALL_CLASSES) -> float:
    """Field of the paramagnet-to-diamagnet orientation transition (tesla).

    With zero trap stiffness this is the zero crossing of the closed-form
    transverse susceptibility (``susceptibility_analytic``):
    chi_perp = 0 reduces to (Delta_- + Delta_+)(Delta_- Delta_+ + g2^2) = 0,
    so gamma_e*B = sqrt(D^2 + g2^2) with g2 the |0>-|+-1> coherence width
    ``gamma2_star``.  With a trap, :func:`equilibrium_branch` follows the
    equilibrium tilt upward in field over _COARSE_FIELDS points, and
    _REFINE_ROUNDS rounds narrow the steepest drop of theta*(B): each
    splits the steepest interval into 4 and follows the branch from its
    lower end through the 3 new fields only (each sweep solved in waves),
    reusing the end tilts (24 + 5 * 3 equilibria).  A drop no larger than
    the root tolerance _XTOL is rounding, not a drop.  Returns the midpoint
    of the last steepest interval, (hi - lo) / 23 / 4**5 wide: that is the
    resolution, about 4.7e-6 T for the default (0.09, 0.2) T.

    Raises:
        ValueError: ``b_range`` is not finite with 0 <= lo < hi, or bad ``classes``.
        RangeExhaustedError: no crossing/drop inside ``b_range``.
    """
    b_lo, b_hi = b_range
    if not (np.isfinite(b_lo) and np.isfinite(b_hi) and 0.0 <= b_lo < b_hi):
        raise ValueError(f"b_range must be finite with 0 <= lo < hi, got {(b_lo, b_hi)!r}")
    _frames(tuple(classes))  # ValueError for bad classes, which the closed form never reads
    if trap.stiffness == 0.0:
        b_cross = float(np.hypot(params.zero_field_splitting, params.gamma2_star)
                        / params.gyromagnetic_ratio)
        # an unpumped or empty ensemble has chi_perp == 0 at every field
        if params.pumping_factor * params.density == 0.0 or not b_lo < b_cross < b_hi:
            raise RangeExhaustedError(
                f"chi_perp does not change sign in [{b_lo}, {b_hi}] T")
        return b_cross

    def branch(fields, guess=None):  # an unbound tilt is NaN
        return [res.theta for res in equilibrium_branch(
            params, orientation, [(trap, axial_field(orientation, b)) for b in fields],
            classes, guess)]

    points = np.linspace(b_lo, b_hi, _COARSE_FIELDS)
    thetas = np.array(branch(points))
    if np.all(np.isnan(thetas)):
        raise RangeExhaustedError("no bound equilibrium in the field range")
    for _ in range(_REFINE_ROUNDS):
        drops = -np.diff(thetas)
        if not np.any(drops > _XTOL):
            raise RangeExhaustedError("equilibrium angle never drops in the field range")
        i = int(np.nanargmax(drops))
        # linspace keeps both ends bitwise, so their solved tilts carry over
        points = np.linspace(points[i], points[i + 1], 5)
        thetas = np.array([thetas[i], *branch(points[1:4], thetas[i]), thetas[i + 1]])
    drops = -np.diff(thetas)
    i = int(np.nanargmax(drops))
    return float(0.5 * (points[i] + points[i + 1]))


def axial_field(orientation: CrystalOrientation, b_mag: float) -> FieldVector:
    """Lab field of magnitude b_mag along the tracked (class 0) axis."""
    return FieldVector.from_array(b_mag * orientation.axis_lab(0), frame="lab")


@dataclass(frozen=True)
class RotationPoint:
    """One step of a field-direction sweep."""

    theta_b: float  # field rotation angle, rad
    theta: float  # equilibrium tilt of the tracked axis from the field, rad
    theta_control: float  # trap-only reference: theta0 + theta_b
    bound: bool


def field_rotation_sweep(params: SpinParams, orientation: CrystalOrientation,
                         trap: TrapModel, b_mag: float, theta_b_values,
                         classes=ALL_CLASSES) -> list[RotationPoint]:
    """Equilibrium tilt as the field direction is rotated by theta_b.

    The trap reference stays fixed in the lab, so rotating the field by
    theta_b moves the trap-preferred tilt to theta0 + theta_b; a spin-free
    particle would follow it exactly (the emitted control line).  The
    steps are one :func:`equilibrium_branch`, with the trap moved per step.
    """
    theta_bs = np.asarray(theta_b_values, dtype=float)
    b_lab = axial_field(orientation, b_mag)
    results = equilibrium_branch(
        params, orientation,
        [(replace(trap, theta0=trap.theta0 + theta_b), b_lab) for theta_b in theta_bs], classes)
    return [RotationPoint(theta_b=float(theta_b), theta=res.theta,
                          theta_control=trap.theta0 + float(theta_b), bound=res.bound)
            for theta_b, res in zip(theta_bs, results)]


@dataclass(frozen=True)
class LibrationResult:
    """Librational frequency about the equilibrium tilt.

    ``omega_numeric`` comes from the exact magnetic stiffness -d(tau)/d(theta)
    at theta* plus the trap stiffness; ``omega_analytic`` is the dispersive
    single-class closed form sqrt(hbar*N*P/(I*|Delta_-|))*gamma_e*B, inf where
    Delta_- = 0.  ``stable`` is False when the total stiffness is not
    positive, as when no equilibrium is bound (then omega_numeric is NaN).
    """

    omega_numeric: float
    omega_analytic: float
    theta_star: float
    stiffness: float
    stable: bool


def librational_frequency(params: SpinParams, orientation: CrystalOrientation,
                          trap: TrapModel, b_lab: FieldVector,
                          classes=ALL_CLASSES) -> LibrationResult:
    """Numeric and closed-form librational frequencies (rad/s): the
    one-row case of :func:`libration_sweep`.

    The numeric route solves the equilibrium tilt theta* from the trap
    angle, as :func:`equilibrium_angle` does, and reuses the exact torque
    slope it took at the root: the magnetic stiffness U'' = -d(tau)/d(theta)
    (U is -integral of tau at constant phi, so this holds whatever the
    curl) plus the trap stiffness, converted to a frequency.  With no bound
    equilibrium theta* and the stiffness are NaN and the result is unstable
    rather than an exception.  The closed form assumes the
    dispersive, aligned, single-class regime and uses the tracked-class
    spin count.

    ``omega_analytic`` is the |Delta_-|-only limit of the second-order
    energy shift of the pumped |0> state, with |<+-1|S_x|0>|^2 = 1/2.  The
    complete single-class small-angle stiffness keeps both transitions,

        K = hbar*N*P*(gamma_e*B)^2 * (1/|Delta_-| - 1/Delta_+)
          = -(V/mu0) * chi_perp * B^2

    with V = N/density and the closed-form chi_perp (past the crossing,
    Delta_- < 0), which the magnetic stiffness of
    ``omega_numeric`` reproduces for ``classes=(0,)``.  The closed form
    therefore overestimates the frequency by sqrt(Delta_+/(Delta_+ -
    |Delta_-|)): x1.215 at 0.2 T (1388.5 Hz vs 1142.7 Hz for N = 1e9,
    I = 1e-22 kg m^2, full pumping) and x1.110 at 0.15 T, the measured
    numeric/analytic ratio of 0.90 there.
    """
    return libration_sweep(orientation, trap, [(params, b_lab)], classes)[0]


def libration_sweep(orientation: CrystalOrientation, trap: TrapModel, cases,
                    classes=ALL_CLASSES) -> list[LibrationResult]:
    """:func:`librational_frequency` of each independent ``(params,
    b_lab)`` case, solved together by :func:`_equilibria` from the trap
    angle: the scan rounds and Brent steps of all rows share batches and
    the slopes at all bound roots are one derivative batch.  Each row is
    bitwise its own :func:`librational_frequency`.  The rows share the
    gyromagnetic ratio (a pump-rate sweep differs only in the
    field-independent generator)."""
    rows = [(params, tilt_geometry(orientation, b_lab)) for params, b_lab in cases]
    results = []
    for (params, geom), eq in zip(rows, _equilibria(rows, [trap] * len(rows),
                                                    [trap.theta0] * len(rows), classes)):
        d_m, _ = detunings(params, geom.b_mag)
        delta = abs(d_m)
        omega_analytic = (np.sqrt(HBAR * params.n_spins_per_class * params.pumping_factor
                                  / (trap.moment_of_inertia * delta))
                          * params.gyromagnetic_ratio * geom.b_mag) if delta > 0 else np.inf
        # theta* and the stiffness are NaN when no stable equilibrium is bound
        k_total = -eq.slope
        stable = bool(k_total > 0.0)
        results.append(LibrationResult(
            omega_numeric=float(np.sqrt(k_total / trap.moment_of_inertia)) if stable else np.nan,
            omega_analytic=float(omega_analytic), theta_star=eq.theta, stiffness=k_total,
            stable=stable))
    return results
