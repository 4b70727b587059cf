"""Spin torques, angular energy landscapes, equilibrium orientation and libration.

The orientation degree of freedom is the tilt angle theta of the tracked
NV class away from the applied field, along the great circle selected by
the azimuth phi (measured in the crystal frame around the tracked axis).
All four orientation classes contribute: for each class the driven-damped
steady state is evaluated with the field expressed in that class's local
frame, and the torque conjugate to theta is

    tau_theta = sum_c N_c * tr(rho_c * (-dH_c/dtheta)),

with the field-direction derivative taken analytically.  In the linear
regime this reduces to the classical (V/mu0) * chi_perp * B^2 * theta form
of the induced-moment torque.

The magnetic potential U(theta, phi) is defined as -integral of tau_theta
along constant-phi paths from theta = 0 (the steady-state torque field
need not be conservative; a curl diagnostic is provided).  A harmonic trap
torque -k*(theta - theta0) represents the electrostatic angular
confinement, and the librational frequency follows from the total angular
stiffness at equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from .constants import HBAR, MU0
from .crystal import (NV_AXES, AngularState, CrystalOrientation, angular_state,
                      transverse_reference)
from .params import FieldVector, SpinParams, TrapModel
from .spincore import (detunings, spin_expectation, steady_state_batch,
                       steady_state_derivative_batch, susceptibility_analytic)

ALL_CLASSES = (0, 1, 2, 3)

# Gauss-Legendre nodes for the adaptive torque quadrature.
_GL_LO = np.polynomial.legendre.leggauss(6)
_GL_HI = np.polynomial.legendre.leggauss(12)

# Rows x, y, z of each class's NV frame, fixed in the crystal: z the axis,
# y = z x transverse_reference(z), x = y x z (orthogonal to z in floating
# point: an axial field has transverse components of exactly 0).  The
# undriven model is symmetric under rotation about each axis (diagonal
# dissipator, one dephasing rate), so no frame needs to follow the field.
_Y = np.cross(NV_AXES, [transverse_reference(axis) for axis in NV_AXES])
_CLASS_FRAMES = np.stack([np.cross(_Y, NV_AXES), _Y, NV_AXES], axis=1)


class QuadratureError(RuntimeError):
    """Adaptive torque quadrature failed to converge.

    Attributes:
        cell: (theta_lo, theta_hi, phi) of the worst interval.
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
    where z0 is the tracked NV axis and e_phi the azimuthal transverse
    direction; all class axes are constants of the crystal frame.
    """

    b_mag: float
    phi: float
    tracked_class: int = 0

    @property
    def z0(self) -> np.ndarray:
        return NV_AXES[self.tracked_class]

    @cached_property
    def e_phi(self) -> np.ndarray:
        x, y = _CLASS_FRAMES[self.tracked_class, :2]
        return np.cos(self.phi) * x + np.sin(self.phi) * y

    def b_crystal(self, theta) -> np.ndarray:
        """Field (3,) at one tilt, or (k, 3) at an array of k tilts."""
        th = np.asarray(theta, dtype=float)[..., None]
        return self.b_mag * (np.sin(th) * self.e_phi + np.cos(th) * self.z0)

    def db_dtheta(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)[..., None]
        return self.b_mag * (np.cos(th) * self.e_phi - np.sin(th) * self.z0)


def tilt_geometry(orientation: CrystalOrientation, b_lab: FieldVector,
                  tracked_class: int = 0,
                  state: AngularState | None = None) -> TiltGeometry:
    """Geometry of the tilt coordinate for a lab-frame field.

    When ``state`` is given its azimuth overrides the one derived from the
    field direction (useful at the gimbal-degenerate aligned point).
    """
    if state is None:
        state = angular_state(orientation, b_lab, tracked_class)
    return TiltGeometry(b_mag=b_lab.magnitude, phi=state.phi,
                        tracked_class=tracked_class)


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, term by term: unlike a reduction or a
    matrix product, it rounds the same way for any batch size."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _class_fields(v_crystal: np.ndarray, classes=ALL_CLASSES) -> np.ndarray:
    """Class-frame components (n_classes, k, 3) of a (k, 3) stack of
    crystal-frame vectors: the NV-frame fields of a field stack."""
    return _dot3(v_crystal[None, :, None, :], _CLASS_FRAMES[list(classes), None])


def _nv_moments(params: SpinParams, fields: np.ndarray,
                extra_superoperator=None) -> np.ndarray:
    """NV-frame moments (..., 3) at NV-frame fields (..., 3), one batch;
    ``extra_superoperator`` is one 9x9 matrix or a stack in field order."""
    rhos = steady_state_batch(params, fields.reshape(-1, 3), extra_superoperator)
    return -HBAR * params.gyromagnetic_ratio * spin_expectation(rhos).reshape(fields.shape)


def _nv_moment_derivatives(params: SpinParams, fields: np.ndarray,
                           directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """NV-frame moments (..., 3) at NV-frame fields (..., 3), bitwise those
    of :func:`_nv_moments`, and their derivatives (..., n, 3) along
    NV-frame field directions (..., n, 3), one batch."""
    rhos, drhos = steady_state_derivative_batch(
        params, fields.reshape(-1, 3), directions.reshape((-1,) + directions.shape[-2:]))
    scale = -HBAR * params.gyromagnetic_ratio
    return (scale * spin_expectation(rhos).reshape(fields.shape),
            scale * spin_expectation(drhos).reshape(directions.shape))


def _spin_torque_along(params: SpinParams, moments: np.ndarray, db_crystal: np.ndarray,
                       classes=ALL_CLASSES) -> np.ndarray:
    """N * sum_c m_c . db (N m), shape (k,), of class-frame moments (n_classes,
    k, 3) along crystal-frame field derivatives (k, 3), classes row by row."""
    return params.n_spins_per_class * sum(_dot3(moments, _class_fields(db_crystal, classes)))


def tilt_torque_batch(params: SpinParams, geom: TiltGeometry, thetas,
                      classes=ALL_CLASSES) -> np.ndarray:
    """Torque conjugate to the tilt angle (N m) at each requested theta; a
    tilt gives the same bits alone as inside any batch."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    moments = _nv_moments(params, _class_fields(geom.b_crystal(thetas), classes))
    return _spin_torque_along(params, moments, geom.db_dtheta(thetas), classes)


def tilt_torque_and_slope(params: SpinParams, geom: TiltGeometry, thetas,
                          classes=ALL_CLASSES) -> tuple[np.ndarray, np.ndarray]:
    """Torques (N m), bitwise those of :func:`tilt_torque_batch`, and their
    exact slopes (N m/rad) at each requested theta: with m_c' the moment's
    derivative along db_c/dtheta (:func:`steady_state_derivative_batch`)
    and d2b/dtheta2 = -b, tau' = N * sum_c (m_c' . db_c/dtheta - m_c . b_c).
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    fields = _class_fields(geom.b_crystal(thetas), classes)
    dfields = _class_fields(geom.db_dtheta(thetas), classes)
    moments, dmoments = _nv_moment_derivatives(params, fields, dfields[..., None, :])
    n = params.n_spins_per_class  # the torque summed as in _spin_torque_along
    return (n * sum(_dot3(moments, dfields)),
            n * sum(_dot3(dmoments[..., 0, :], dfields) - _dot3(moments, fields)))


def tilt_torque(params: SpinParams, geom: TiltGeometry, theta: float,
                classes=ALL_CLASSES) -> float:
    """Scalar version of :func:`tilt_torque_batch`."""
    return float(tilt_torque_batch(params, geom, [theta], classes)[0])


def spin_torque(params: SpinParams, orientation: CrystalOrientation,
                b_lab: FieldVector, state: AngularState | None = None,
                classes=ALL_CLASSES) -> np.ndarray:
    """Total spin torque vector on the particle (N m), lab frame.

    Sums N_c * m_c x B over the orientation classes with each class in its
    driven-damped steady state; equals V*M x B in the linear regime.  When
    ``state`` is given, the field direction relative to the crystal is
    taken from its (theta, phi) and only the magnitude from ``b_lab``.
    """
    state = angular_state(orientation, b_lab) if state is None else state
    b = tilt_geometry(orientation, b_lab, state=state).b_crystal(state.theta)
    m_nv = _nv_moments(params, _class_fields(b[None], classes))[:, 0]
    moments = np.einsum("ci,cij->cj", m_nv, _CLASS_FRAMES[list(classes)])
    torque_crystal = params.n_spins_per_class * np.cross(moments, b).sum(axis=0)
    return orientation.to_lab(torque_crystal)


def _integrate_torque(params: SpinParams, geom: TiltGeometry, a: float, b: float,
                      classes=ALL_CLASSES, rtol: float = 1e-8,
                      atol: float | None = None, max_depth: int = 9) -> float:
    """Adaptive Gauss-Legendre integral of tau_theta over [a, b]."""
    if a == b:
        return 0.0
    if atol is None:
        atol = 1e-12 * _torque_scale(params, geom.b_mag) * max(abs(b - a), 1e-3)

    def panel(lo, hi, depth):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x6, w6 = _GL_LO
        x12, w12 = _GL_HI
        t6 = tilt_torque_batch(params, geom, mid + half * x6, classes)
        t12 = tilt_torque_batch(params, geom, mid + half * x12, classes)
        coarse = half * float(w6 @ t6)
        fine = half * float(w12 @ t12)
        if abs(fine - coarse) <= max(atol, rtol * abs(fine)):
            return fine
        if depth <= 0:
            raise QuadratureError("torque quadrature did not converge",
                                  cell=(lo, hi, geom.phi))
        return panel(lo, mid, depth - 1) + panel(mid, hi, depth - 1)

    return panel(a, b, max_depth)


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
                              classes=ALL_CLASSES, tracked_class: int = 0,
                              rtol: float = 1e-8) -> EnergyLandscape:
    """Angular magnetic energy summed over the NV classes.

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
    energy = np.zeros((theta_grid.size, phi_grid.size))
    for j, phi in enumerate(phi_grid):
        geom = TiltGeometry(b_mag=b_mag, phi=float(phi), tracked_class=tracked_class)
        # anchor the cumulative integral at theta = 0; integrate over the
        # sorted anchor path so intervals stay short
        sorted_anchors = np.sort(np.concatenate([[0.0], theta_grid]))
        i0 = int(np.searchsorted(sorted_anchors, 0.0))
        u_at = {sorted_anchors[i0]: 0.0}
        for idx in range(i0 + 1, sorted_anchors.size):
            a, c = sorted_anchors[idx - 1], sorted_anchors[idx]
            u_at[c] = u_at[a] - _integrate_torque(params, geom, a, c, classes, rtol)
        for idx in range(i0 - 1, -1, -1):
            a, c = sorted_anchors[idx], sorted_anchors[idx + 1]
            u_at[a] = u_at[c] + _integrate_torque(params, geom, a, c, classes, rtol)
        energy[:, j] = [u_at[t] for t in theta_grid]
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
    N * sum_c (dm_c/dphi . db_c/dtheta - dm_c/dtheta . db_c/dphi).

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
    db_th = np.array([g.db_dtheta(th) for g, th in geoms])
    db_ph = np.array([b_mag * np.sin(th) * np.cross(g.z0, g.e_phi) for g, th in geoms])
    fields = _class_fields(np.array([g.b_crystal(th) for g, th in geoms]), classes)
    dfields = np.stack([_class_fields(db_th, classes), _class_fields(db_ph, classes)], axis=2)
    moments, dmoments = _nv_moment_derivatives(params, fields, dfields)
    n = params.n_spins_per_class
    curl = n * sum(_dot3(dmoments[:, :, 1], dfields[:, :, 0])
                   - _dot3(dmoments[:, :, 0], dfields[:, :, 1]))
    tau = [np.abs(_spin_torque_along(params, moments, db, classes)) for db in (db_th, db_ph)]
    floor = 1e-9 * n * HBAR * params.gyromagnetic_ratio * b_mag
    return float(np.max(np.abs(curl) / np.maximum(np.maximum(*tau), floor)))


@dataclass(frozen=True)
class EquilibriumResult:
    """Stable root of the total (spin + trap) tilt torque.

    ``bound`` is False when no stable root exists in [-pi/2, pi]; the other
    fields are then NaN/0, and ``iterations`` counts the scan windows.
    """

    theta: float
    stability: float  # sign of -d(total torque)/dtheta at the root
    torque_residual: float
    iterations: int
    bound: bool = True


def total_tilt_torque(params: SpinParams, geom: TiltGeometry, trap: TrapModel,
                      theta, classes=ALL_CLASSES):
    """Spin torque plus harmonic trap torque at one tilt angle or an array of them."""
    th = np.asarray(theta, dtype=float)
    total = tilt_torque_batch(params, geom, th, classes) - trap.stiffness * (th - trap.theta0)
    return total if th.ndim else float(total[0])


def _torque_scale(params: SpinParams, b_mag: float) -> float:
    """Largest spin torque of four fully polarized classes (N m)."""
    return 4.0 * params.n_spins_per_class * HBAR * params.gyromagnetic_ratio * b_mag


def _exact_zero(values, scale: float) -> np.ndarray:
    """Torques with rounding-level values (|tau| <= 1e-12 * scale, e.g.
    +-1e-32 at pi/2 with no trap) set to an exact zero."""
    return np.where(np.abs(values) <= 1e-12 * scale, 0.0, values)


def _stable_bracket(thetas: np.ndarray, values: np.ndarray, guess: float,
                    scale: float) -> tuple | None:
    """(a, b, tau(a), tau(b)) of the scanned total torque: the sign change
    from + to <= 0 whose secant root is nearest ``guess``, or None.  A torque
    at rounding level is an exact zero (:func:`_exact_zero`), so tau(b) == 0
    means b is the root itself."""
    vals = _exact_zero(values, scale)
    hits = np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))
    if hits.size == 0:
        return None
    a, b, fa, fb = thetas[hits], thetas[hits + 1], vals[hits], vals[hits + 1]
    i = int(np.argmin(np.abs(a + fa * (b - a) / (fa - fb) - guess)))
    return float(a[i]), float(b[i]), float(fa[i]), float(fb[i])


# stable-root scan: tilts k * _STEP for k in [_K_LO, _K_HI], which puts
# -pi/2, 0, pi/2 and pi on the grid bitwise
_STEP = np.pi / 314
_K_LO, _K_HI = -157, 314


def _stable_root(brent, torque, guess: float, scale: float) -> tuple[float | None, int]:
    """(root, torque evaluations): the stable root of the total torque in
    [-pi/2, pi] nearest ``guess``, or None when there is none.

    ``torque`` maps an array of tilts to their total torques in one batch.
    The scan takes 17 tilts k * _STEP around the guess and widens 4x until
    :func:`_stable_bracket` hits; the grid is anchored, so solving again
    from a root scans the same tilts and returns that root bitwise.  The
    caller's ``brentq`` (traced per module) polishes the bracket with its
    ends pinned to the scanned values (a single-tilt torque may differ from
    the batched one in the last bit) and stops at a rounding-level torque.
    """
    evals = 0

    def f(thetas):
        nonlocal evals
        evals += 1
        return _exact_zero(torque(thetas), scale)

    center = min(max(round(guess / _STEP), _K_LO), _K_HI)
    for half in (8, 32, 128, 512):  # 512 steps span the range from any centre in it
        thetas = np.arange(max(center - half, _K_LO), min(center + half, _K_HI) + 1) * _STEP
        if (bracket := _stable_bracket(thetas, f(thetas), guess, scale)) is not None:
            break
    else:
        return None, evals
    a, b, fa, fb = bracket  # brentq returns b at once when fb == 0
    root = brent(lambda th: fa if th == a else fb if th == b else float(f([th])[0]),
                 a, b, xtol=1e-10)
    return float(root), evals


def equilibrium_angle(params: SpinParams, orientation: CrystalOrientation,
                      trap: TrapModel, b_lab: FieldVector,
                      warm_start: float | None = None,
                      classes=ALL_CLASSES) -> EquilibriumResult:
    """Stable equilibrium tilt of the tracked NV axis.

    The stable root of the total torque in [-pi/2, pi] nearest
    ``warm_start`` (the previous solution, which selects the branch in
    bistable regions) or, without one, nearest the trap angle, found by
    :func:`_stable_root`.  ``iterations`` counts batched torque evaluations
    (scan windows, Brent steps and the slope at the root).
    """
    geom = tilt_geometry(orientation, b_lab)
    root, evals = _stable_root(
        brentq, lambda th: total_tilt_torque(params, geom, trap, th, classes),
        trap.theta0 if warm_start is None else warm_start, _torque_scale(params, geom.b_mag))
    if root is None:
        return EquilibriumResult(theta=np.nan, stability=0.0, torque_residual=np.nan,
                                 iterations=evals, bound=False)
    tau, slope = tilt_torque_and_slope(params, geom, [root], classes)
    residual = tau[0] - trap.stiffness * (root - trap.theta0)
    return EquilibriumResult(theta=root, stability=float(-np.sign(slope[0] - trap.stiffness)),
                             torque_residual=abs(float(residual)), iterations=evals + 1,
                             bound=True)


# trapped critical field: a coarse sweep, then rounds of 5-point refinement
_COARSE_FIELDS = 24
_REFINE_ROUNDS = 5


def critical_field(params: SpinParams, orientation: CrystalOrientation,
                   trap: TrapModel, b_range: tuple = (0.09, 0.2),
                   classes=ALL_CLASSES) -> float:
    """Field of the paramagnet-to-diamagnet orientation transition (tesla).

    With zero trap stiffness this is the zero crossing of the closed-form
    transverse susceptibility.  With a trap, the equilibrium tilt is swept
    upward in field (warm-started) over _COARSE_FIELDS points and the
    steepest drop of theta*(B) is located by _REFINE_ROUNDS rounds of
    interval refinement.

    Raises:
        RangeExhaustedError: no crossing/drop inside ``b_range``.
    """
    b_lo, b_hi = b_range
    if trap.stiffness == 0.0:
        f_lo = susceptibility_analytic(params, b_lo).chi_perp
        f_hi = susceptibility_analytic(params, b_hi).chi_perp
        if not f_lo * f_hi < 0.0:  # also rejects the unpumped chi == 0 case
            raise RangeExhaustedError(
                f"chi_perp does not change sign in [{b_lo}, {b_hi}] T")
        return float(brentq(
            lambda b: susceptibility_analytic(params, b).chi_perp, b_lo, b_hi,
            xtol=1e-9))

    def sweep(points):
        thetas = []
        warm = None
        for b in points:
            res = equilibrium_angle(params, orientation, trap,
                                    _axial_field(orientation, b),
                                    warm_start=warm, classes=classes)
            if res.bound:
                warm = res.theta
            thetas.append(res.theta if res.bound else np.nan)
        return np.asarray(thetas)

    points = np.linspace(b_lo, b_hi, _COARSE_FIELDS)
    thetas = sweep(points)
    if np.all(np.isnan(thetas)):
        raise RangeExhaustedError("no bound equilibrium in the field range")
    for _ in range(_REFINE_ROUNDS):
        drops = -np.diff(thetas)
        if not np.any(drops > 0.0):
            raise RangeExhaustedError("equilibrium angle never drops in the field range")
        i = int(np.nanargmax(drops))
        points = np.linspace(points[i], points[i + 1], 5)
        thetas = sweep(points)
    drops = -np.diff(thetas)
    i = int(np.nanargmax(drops))
    return float(0.5 * (points[i] + points[i + 1]))


def _axial_field(orientation: CrystalOrientation, b_mag: float) -> FieldVector:
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
    particle would follow it exactly (the emitted control line).
    """
    out = []
    warm = None
    for theta_b in np.asarray(theta_b_values, dtype=float):
        eff_trap = TrapModel(moment_of_inertia=trap.moment_of_inertia,
                             trap_frequency=trap.trap_frequency,
                             theta0=trap.theta0 + theta_b)
        res = equilibrium_angle(params, orientation, eff_trap,
                                _axial_field(orientation, b_mag),
                                warm_start=warm, classes=classes)
        if res.bound:
            warm = res.theta
        out.append(RotationPoint(theta_b=float(theta_b),
                                 theta=res.theta,
                                 theta_control=trap.theta0 + float(theta_b),
                                 bound=res.bound))
    return out


@dataclass(frozen=True)
class LibrationResult:
    """Librational frequency about the equilibrium tilt.

    ``omega_numeric`` comes from the exact magnetic stiffness -d(tau)/d(theta)
    at theta* plus the trap stiffness; ``omega_analytic`` evaluates the
    dispersive single-class closed form sqrt(hbar*N*P/(I*Delta))*gamma_e*B.
    ``stable`` is False when the total stiffness is negative (then
    omega_numeric is NaN).
    """

    omega_numeric: float
    omega_analytic: float
    theta_star: float
    stiffness: float
    stable: bool


def librational_frequency(params: SpinParams, orientation: CrystalOrientation,
                          trap: TrapModel, b_lab: FieldVector,
                          classes=ALL_CLASSES,
                          at_theta: float | None = None) -> LibrationResult:
    """Numeric and closed-form librational frequencies (rad/s).

    The numeric route finds the equilibrium tilt (or uses ``at_theta`` when
    given), takes the magnetic stiffness U'' = -d(tau)/d(theta) there from
    the exact torque slope of :func:`tilt_torque_and_slope` (U is -integral
    of tau at constant phi, so this holds whatever the curl), adds the trap
    stiffness and converts to a frequency.  Negative total stiffness
    (anti-confined orientation, e.g. the aligned configuration of a pumped
    ensemble before the level crossing) yields an unstable result rather
    than an exception.  The closed form assumes the dispersive, aligned,
    single-class regime and uses the tracked-class spin count.

    ``omega_analytic`` is the |Delta_-|-only limit of the second-order
    energy shift of the pumped |0> state, with |<+-1|S_x|0>|^2 = 1/2.  The
    complete single-class small-angle stiffness keeps both transitions,

        K = hbar*N*P*(gamma_e*B)^2 * (1/|Delta_-| - 1/Delta_+)
          = -linear_torque_coefficient(params, B)

    (past the crossing, Delta_- < 0), which the magnetic stiffness of
    ``omega_numeric`` reproduces for ``classes=(0,)``.  The closed form
    therefore overestimates the frequency by sqrt(Delta_+/(Delta_+ -
    |Delta_-|)): x1.215 at 0.2 T (1388.5 Hz vs 1142.7 Hz for N = 1e9,
    I = 1e-22 kg m^2, full pumping) and x1.110 at 0.15 T, the measured
    numeric/analytic ratio of 0.90 there.
    """
    b_mag = b_lab.magnitude
    d_m, _ = detunings(params, b_mag)
    delta = abs(d_m)
    omega_analytic = (np.sqrt(HBAR * params.n_spins_per_class * params.pumping_factor
                              / (trap.moment_of_inertia * delta))
                      * params.gyromagnetic_ratio * b_mag) if delta > 0 else np.inf

    # theta* is NaN when no stable equilibrium is bound
    theta_star = (equilibrium_angle(params, orientation, trap, b_lab, classes=classes).theta
                  if at_theta is None else float(at_theta))
    k_total = np.nan
    if np.isfinite(theta_star):
        _, slope = tilt_torque_and_slope(params, tilt_geometry(orientation, b_lab),
                                         [theta_star], classes)
        k_total = -float(slope[0]) + trap.stiffness
    stable = bool(k_total > 0.0)
    return LibrationResult(
        omega_numeric=float(np.sqrt(k_total / trap.moment_of_inertia)) if stable else np.nan,
        omega_analytic=float(omega_analytic),
        theta_star=theta_star, stiffness=k_total, stable=stable)


def linear_torque_coefficient(params: SpinParams, b0: float) -> float:
    """Small-angle torque slope (V/mu0)*chi_perp*B0^2 per tracked class (N m/rad).

    Uses the closed-form susceptibility; the volume follows from the class
    spin count and density, V = N/d.
    """
    chi = susceptibility_analytic(params, b0).chi_perp
    volume = params.n_spins_per_class / params.density
    return volume / MU0 * chi * b0**2
