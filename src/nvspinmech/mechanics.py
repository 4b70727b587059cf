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
from .crystal import NV_AXES, CrystalOrientation, AngularState, transverse_reference
from .params import FieldVector, SpinParams, TrapModel
from .spincore import (SX, SY, SZ, detunings, steady_state_batch,
                       susceptibility_analytic)

ALL_CLASSES = (0, 1, 2, 3)

# Gauss-Legendre nodes for the adaptive torque quadrature.
_GL_LO = np.polynomial.legendre.leggauss(6)
_GL_HI = np.polynomial.legendre.leggauss(12)


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
    """No transition/root found inside the searched field range."""


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
        xref = transverse_reference(self.z0)
        yref = np.cross(self.z0, xref)
        return np.cos(self.phi) * xref + np.sin(self.phi) * yref

    def b_crystal(self, theta: float) -> np.ndarray:
        return self.b_mag * (np.sin(theta) * self.e_phi + np.cos(theta) * self.z0)

    def db_dtheta(self, theta: float) -> np.ndarray:
        return self.b_mag * (np.cos(theta) * self.e_phi - np.sin(theta) * self.z0)


def tilt_geometry(orientation: CrystalOrientation, b_lab: FieldVector,
                  tracked_class: int = 0,
                  state: AngularState | None = None) -> TiltGeometry:
    """Geometry of the tilt coordinate for a lab-frame field.

    When ``state`` is given its azimuth overrides the one derived from the
    field direction (useful at the gimbal-degenerate aligned point).
    """
    from .crystal import angular_state

    if state is None:
        state = angular_state(orientation, b_lab, tracked_class)
    return TiltGeometry(b_mag=b_lab.magnitude, phi=state.phi,
                        tracked_class=tracked_class)


def _class_frames(geom: TiltGeometry, thetas,
                  classes=ALL_CLASSES) -> tuple[np.ndarray, np.ndarray]:
    """NV-frame fields (n_classes, n_thetas, 3) and crystal-frame x, y, z
    axes (n_classes, n_thetas, 3, 3) of each class frame: z along the class
    axis, x along the transverse field or ``transverse_reference`` if none.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    b = np.array([geom.b_crystal(t) for t in thetas])  # (k, 3)
    fields = np.zeros((len(classes), thetas.size, 3))
    axes = np.empty((len(classes), thetas.size, 3, 3))
    for ic, c in enumerate(classes):
        axis = NV_AXES[c]
        bz = b @ axis
        perp = b - bz[:, None] * axis
        pnorm = np.sqrt(np.add.reduce(perp * perp, axis=1))
        small = pnorm < 1e-15 * max(1.0, geom.b_mag)
        xhat = perp / np.where(small, 1.0, pnorm)[:, None]
        if np.any(small):
            xhat[small] = transverse_reference(axis)
        fields[ic, :, 0] = pnorm
        fields[ic, :, 2] = bz
        axes[ic, :, 0] = xhat
        # axis x xhat, written out: np.cross costs more than the rest here
        axes[ic, :, 1] = (axis[[1, 2, 0]] * xhat[:, [2, 0, 1]]
                          - axis[[2, 0, 1]] * xhat[:, [1, 2, 0]])
        axes[ic, :, 2] = axis
    return fields, axes


def _class_moments_batch(params: SpinParams, frames: tuple,
                         extra_superoperator=None) -> np.ndarray:
    """Crystal-frame magnetic moments, shape (n_classes, n_thetas, 3), of the
    :func:`_class_frames` ``frames``, all solved in one steady-state batch.

    ``extra_superoperator`` is one 9x9 matrix for every point, or a stack
    of n_classes * n_thetas in the class-major order of the frames.
    """
    fields, axes = frames
    n_cls, k = fields.shape[:2]
    rhos = steady_state_batch(params, fields.reshape(-1, 3), extra_superoperator)
    scale = -HBAR * params.gyromagnetic_ratio
    mx, my, mz = (scale * np.einsum("kij,ji->k", rhos, s).real.reshape(n_cls, k, 1)
                  for s in (SX, SY, SZ))
    return mx * axes[:, :, 0] + my * axes[:, :, 1] + mz * axes[:, :, 2]


def tilt_torque_batch(params: SpinParams, geom: TiltGeometry, thetas,
                      classes=ALL_CLASSES, extra_superoperator=None) -> np.ndarray:
    """Torque conjugate to the tilt angle (N m) at each requested theta."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    moments = _class_moments_batch(params, _class_frames(geom, thetas, classes),
                                   extra_superoperator)
    dbdth = np.array([geom.db_dtheta(t) for t in thetas])  # (k, 3)
    per_class = np.einsum("ckx,kx->k", moments, dbdth)
    return params.n_spins_per_class * per_class


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
    geom = tilt_geometry(orientation, b_lab, state=state)
    if state is None:
        from .crystal import angular_state

        state = angular_state(orientation, b_lab)
    moments = _class_moments_batch(params, _class_frames(geom, [state.theta], classes))[:, 0]
    b = geom.b_crystal(state.theta)
    torque_crystal = params.n_spins_per_class * np.cross(moments, b).sum(axis=0)
    return orientation.to_lab(torque_crystal)


def _integrate_torque(params: SpinParams, geom: TiltGeometry, a: float, b: float,
                      classes=ALL_CLASSES, rtol: float = 1e-8,
                      atol: float | None = None, max_depth: int = 9) -> float:
    """Adaptive Gauss-Legendre integral of tau_theta over [a, b]."""
    if a == b:
        return 0.0
    if atol is None:
        scale = 4.0 * params.n_spins_per_class * HBAR * params.gyromagnetic_ratio * geom.b_mag
        atol = 1e-12 * scale * max(abs(b - a), 1e-3)

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
        # anchor the cumulative integral at theta = 0
        anchors = np.concatenate([[0.0], theta_grid])
        u = 0.0
        u_at = {}
        # integrate over sorted anchor path so intervals stay short
        order = np.argsort(anchors)
        sorted_anchors = anchors[order]
        i0 = int(np.searchsorted(sorted_anchors, 0.0))
        u_at[sorted_anchors[i0]] = 0.0
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
    small values justify treating U as a potential.
    """
    rng = np.random.default_rng(seed)
    b_mag = b_lab.magnitude
    h = 1e-3
    worst = 0.0
    for _ in range(n_samples):
        theta = float(rng.uniform(0.1, 1.2))
        phi = float(rng.uniform(0.0, 2.0 * np.pi))

        def tau_theta(th, ph):
            geom = TiltGeometry(b_mag=b_mag, phi=ph)
            return tilt_torque(params, geom, th, classes)

        def tau_phi(th, ph):
            # torque conjugate to phi: m . dB/dphi
            geom = TiltGeometry(b_mag=b_mag, phi=ph)
            moments = _class_moments_batch(params, _class_frames(geom, [th], classes))[:, 0]
            xref = transverse_reference(geom.z0)
            yref = np.cross(geom.z0, xref)
            dbdphi = b_mag * np.sin(th) * (-np.sin(ph) * xref + np.cos(ph) * yref)
            return params.n_spins_per_class * float((moments @ dbdphi).sum())

        dtau_th_dphi = (tau_theta(theta, phi + h) - tau_theta(theta, phi - h)) / (2 * h)
        dtau_ph_dth = (tau_phi(theta + h, phi) - tau_phi(theta - h, phi)) / (2 * h)
        scale = max(abs(tau_theta(theta, phi)), abs(tau_phi(theta, phi)),
                    1e-9 * params.n_spins_per_class * HBAR * params.gyromagnetic_ratio * b_mag)
        worst = max(worst, abs(dtau_th_dphi - dtau_ph_dth) / scale)
    return worst


@dataclass(frozen=True)
class EquilibriumResult:
    """Root of the total (spin + trap) tilt torque.

    ``bound`` is False when no stable root exists in the searched range;
    the other fields are then NaN/0.
    """

    theta: float
    stability: float  # sign of -d(total torque)/dtheta at the root
    torque_residual: float
    iterations: int
    bound: bool = True


def total_tilt_torque(params: SpinParams, geom: TiltGeometry, trap: TrapModel,
                      theta: float, classes=ALL_CLASSES) -> float:
    """Spin torque plus harmonic trap torque at one tilt angle."""
    return (tilt_torque(params, geom, theta, classes)
            - trap.stiffness * (theta - trap.theta0))


def equilibrium_angle(params: SpinParams, orientation: CrystalOrientation,
                      trap: TrapModel, b_lab: FieldVector,
                      warm_start: float | None = None,
                      classes=ALL_CLASSES, theta_max: float = 0.5 * np.pi,
                      xtol: float = 1e-9) -> EquilibriumResult:
    """Stable equilibrium tilt of the tracked NV axis.

    Damped root search on the total torque over [0, theta_max] (extended
    slightly below zero so an exactly aligned equilibrium is bracketable).
    With ``warm_start`` the root nearest the previous solution is followed,
    which selects the branch in bistable regions.
    """
    geom = tilt_geometry(orientation, b_lab)
    evals = 0

    def f(th):
        nonlocal evals
        evals += 1
        return total_tilt_torque(params, geom, trap, th, classes)

    lo = -0.02
    brackets = []
    if warm_start is not None:
        # local bracket expansion around the previous point
        for half_width in (0.01, 0.03, 0.09, 0.27):
            a = max(lo, warm_start - half_width)
            b = min(theta_max, warm_start + half_width)
            fa, fb = f(a), f(b)
            if fa > 0.0 > fb:
                brackets = [(a, b, fa, fb)]
                break
    if not brackets:
        # bracket detection goes through f itself so the endpoint values
        # brentq sees are bitwise identical to the scanned ones (a batched
        # evaluation can differ in the last ulp and break a marginal sign)
        grid = np.linspace(lo, theta_max, 40)
        vals = np.array([f(th) for th in grid])
        # a torque at rounding level is an exact zero: at theta_max = pi/2
        # with no trap it is +-1e-32 noise whose sign decides nothing
        scale = 4.0 * params.n_spins_per_class * HBAR * params.gyromagnetic_ratio * geom.b_mag
        vals[np.abs(vals) <= 1e-12 * scale] = 0.0
        for i in range(grid.size - 1):
            if vals[i] > 0.0 >= vals[i + 1]:
                brackets.append((grid[i], grid[i + 1], vals[i], vals[i + 1]))
    if not brackets:
        return EquilibriumResult(theta=np.nan, stability=0.0, torque_residual=np.nan,
                                 iterations=evals, bound=False)
    # a zero at a grid point is the root itself
    roots = [b if fb == 0.0 else brentq(f, a, b, xtol=xtol) for a, b, _, fb in brackets]
    if warm_start is not None:
        root = min(roots, key=lambda r: abs(r - warm_start))
    else:
        root = min(roots, key=lambda r: abs(r - trap.theta0))
    root = 0.0 if abs(root) < xtol else float(root)
    h = max(1e-5, 10 * xtol)
    slope = (f(root + h) - f(root - h)) / (2 * h)
    residual = abs(f(root))
    return EquilibriumResult(theta=root, stability=float(-np.sign(slope)),
                             torque_residual=residual, iterations=evals, bound=True)


def critical_field(params: SpinParams, orientation: CrystalOrientation,
                   trap: TrapModel, b_range: tuple = (0.09, 0.2),
                   classes=ALL_CLASSES, n_coarse: int = 24,
                   refine_rounds: int = 5) -> float:
    """Field of the paramagnet-to-diamagnet orientation transition (tesla).

    With zero trap stiffness this is the zero crossing of the closed-form
    transverse susceptibility.  With a trap, the equilibrium tilt is swept
    upward in field (warm-started) and the steepest drop of theta*(B) is
    located by interval refinement.

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

    points = np.linspace(b_lo, b_hi, n_coarse)
    thetas = sweep(points)
    if np.all(np.isnan(thetas)):
        raise RangeExhaustedError("no bound equilibrium in the field range")
    for _ in range(refine_rounds):
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

    ``omega_numeric`` comes from the curvature of the magnetic landscape
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
                          classes=ALL_CLASSES, step: float = 2e-3,
                          at_theta: float | None = None) -> LibrationResult:
    """Numeric and closed-form librational frequencies (rad/s).

    The numeric route finds the equilibrium tilt (or uses ``at_theta`` when
    given), takes the second derivative of the magnetic energy by
    Richardson-extrapolated central differences of the torque integral,
    adds the trap stiffness and converts to a frequency.  Negative total
    curvature (anti-confined orientation, e.g. the aligned configuration
    of a pumped ensemble before the level crossing) yields an unstable
    result rather than an exception.  The closed form assumes the
    dispersive, aligned, single-class regime and uses the tracked-class
    spin count.

    ``omega_analytic`` is the |Delta_-|-only limit of the second-order
    energy shift of the pumped |0> state, with |<+-1|S_x|0>|^2 = 1/2.  The
    complete single-class small-angle stiffness keeps both transitions,

        K = hbar*N*P*(gamma_e*B)^2 * (1/|Delta_-| - 1/Delta_+)
          = -linear_torque_coefficient(params, B)

    (past the crossing, Delta_- < 0), which the landscape curvature of
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

    if at_theta is None:
        eq = equilibrium_angle(params, orientation, trap, b_lab, classes=classes)
        if not eq.bound:
            return LibrationResult(omega_numeric=np.nan,
                                   omega_analytic=float(omega_analytic),
                                   theta_star=np.nan, stiffness=np.nan, stable=False)
        theta_star = eq.theta
    else:
        theta_star = float(at_theta)
    geom = tilt_geometry(orientation, b_lab)

    def curvature(h):
        # U(th*+h) + U(th*-h) - 2 U(th*) via local torque integrals
        up = -_integrate_torque(params, geom, theta_star, theta_star + h, classes)
        dn = _integrate_torque(params, geom, theta_star - h, theta_star, classes)
        return (up + dn) / h**2

    k1 = curvature(step)
    k2 = curvature(0.5 * step)
    k_mag = (4.0 * k2 - k1) / 3.0
    k_total = k_mag + trap.stiffness
    if k_total <= 0.0:
        return LibrationResult(omega_numeric=np.nan, omega_analytic=float(omega_analytic),
                               theta_star=theta_star, stiffness=float(k_total), stable=False)
    return LibrationResult(
        omega_numeric=float(np.sqrt(k_total / trap.moment_of_inertia)),
        omega_analytic=float(omega_analytic),
        theta_star=theta_star, stiffness=float(k_total), stable=True)


def linear_torque_coefficient(params: SpinParams, b0: float) -> float:
    """Small-angle torque slope (V/mu0)*chi_perp*B0^2 per tracked class (N m/rad).

    Uses the closed-form susceptibility; the volume follows from the class
    spin count and density, V = N/d.
    """
    chi = susceptibility_analytic(params, b0).chi_perp
    volume = params.n_spins_per_class / params.density
    return volume / MU0 * chi * b0**2
