"""Forward and inverse NV magnetometry from a transition-line pair.

Diagonalizing the ground-state Hamiltonian for a field of magnitude B at
angle theta from the NV axis gives three levels E_low < E_mid < E_top;
the forward model returns (nu_minus, nu_plus) = (E_mid - E_low,
E_top - E_low) / 2pi.  For theta > 0 the levels never cross in B, so these
energy-rank labels are the converged adiabatic continuation from B = 0.
Below the level crossing the lowest level is |0>-like and the pair is the
|0> <-> |-1>, |0> <-> |+1> doublet.  Past the crossing at small theta the
lowest level is |-1>-like: nu_minus is still the |0> <-> |-1> line, but
nu_plus is the |-1> <-> |+1> line, which the pumped |0>-like state does not
show (:func:`nvspinmech.mdmr.zero_connected_lines` gives that state's
pair).  At theta = 0 the model is the theta -> 0+ limit, so past the
crossing nu_plus = 2 gamma_e B / 2pi.

The inverse problem maps a measured frequency pair back to (theta, B) via
a coarse grid search followed by least-squares refinement from the best
few basins; measurement linewidths are propagated to parameter
uncertainties through the local Jacobian.  Sensitivity to theta vanishes
quadratically at theta = 0, which shows up as an inflated angle
uncertainty rather than a failure.  A model pair fixes all three levels
(they sum to 2D), and the spectrum fixes B^2 and B^2 sin^2 theta, so the
forward model is one-to-one on theta in [0, pi/2] at every field: model
pairs on a 12 x 12 grid over 0.5-89.5 deg and 0.13-0.295 T invert to
themselves over 0-0.3 T.  A measured pair that is not a model pair, such
as the |0>-like state's lines past the crossing, can still be matched
exactly by another configuration (those of 1 deg, 0.18 T by 24.35 deg,
0.1333 T); the estimator returns the basin whose coarse cost is lowest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .params import SpinParams


@dataclass(frozen=True)
class TransitionPair:
    """Measured or computed resonance pair (Hz).

    The labels are energy rank: ``nu_minus`` is E_mid - E_low and
    ``nu_plus`` is E_top - E_low.  Below the level crossing these are the
    |0> <-> |-1>-like and |0> <-> |+1>-like lines.  Past it at small tilt,
    ``nu_plus`` is the |-1> <-> |+1>-like line, not a line of the pumped
    |0>-like state; :func:`nvspinmech.mdmr.zero_connected_lines` gives that
    state's pair.  Optional linewidths (FWHM, Hz) feed the uncertainty
    propagation of the inversion.
    """

    nu_minus: float
    nu_plus: float
    linewidth_minus: float | None = None
    linewidth_plus: float | None = None

    def __post_init__(self):
        if self.nu_minus <= 0.0 or self.nu_plus <= 0.0:
            raise ValueError("transition frequencies must be positive")


class NoSolutionError(RuntimeError):
    """Inversion residual exceeds tolerance everywhere in the search range."""


# real copies of the spin operators: with By = 0 the Hamiltonian is real
# symmetric, which keeps the batched diagonalization cheap
_SX = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / np.sqrt(2.0)
_SZ = np.diag([1.0, 0.0, -1.0])
_SZ2 = np.diag([1.0, 0.0, 1.0])


def _line_pairs(params: SpinParams, theta, b) -> np.ndarray:
    """(nu_minus, nu_plus) in Hz from the energy-ranked levels, shape (..., 2).

    ``theta`` and ``b`` broadcast against each other; all points go through
    one stacked diagonalization.  Energy rank is the adiabatic continuation
    from B = 0 because for theta > 0 the real symmetric Hamiltonian has no
    level crossings in B (von Neumann & Wigner 1929).
    """
    theta, b = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                   np.asarray(b, dtype=float))
    gb = params.gyromagnetic_ratio * b
    h = (params.zero_field_splitting * _SZ2
         + (gb * np.sin(theta))[..., None, None] * _SX
         + (gb * np.cos(theta))[..., None, None] * _SZ)
    levels = np.linalg.eigvalsh(h)
    return (levels[..., 1:] - levels[..., :1]) / (2.0 * np.pi)


def transition_frequencies(params: SpinParams, theta: float, b: float) -> TransitionPair:
    """Forward model: the energy-ranked line pair (see :class:`TransitionPair`)
    for a tilted field; the one-point view of the batched kernel.

    Args:
        theta: angle between the NV axis and the field, rad, in [0, pi/2].
        b: field magnitude, tesla, >= 0.
    """
    if not 0.0 <= theta <= 0.5 * np.pi:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta!r}")
    if b < 0.0 or not np.isfinite(b):
        raise ValueError(f"field magnitude must be finite and >= 0, got {b!r}")
    nu_minus, nu_plus = _line_pairs(params, theta, b)
    return TransitionPair(nu_minus=float(nu_minus), nu_plus=float(nu_plus))


@dataclass(frozen=True)
class AngleFieldEstimate:
    """Inversion result with propagated uncertainties."""

    theta: float
    b: float
    residual: float  # rms frequency mismatch, Hz
    theta_err: float
    b_err: float


def invert_angle_field(params: SpinParams, pair: TransitionPair,
                       theta_range: tuple = (0.0, 0.5 * np.pi),
                       b_range: tuple = (0.0, 0.3),
                       grid_shape: tuple = (31, 31),
                       residual_tol: float | None = None) -> AngleFieldEstimate:
    """Recover (theta, B) from a measured line pair.

    Coarse grid search over the requested ranges picks the basin; bounded
    least squares on the frequency residuals refines it.  Linewidths, when
    present, propagate through the inverse Jacobian into (theta_err,
    b_err); near theta = 0 the angle error inflates instead of failing.

    Raises:
        NoSolutionError: the refined residual exceeds ``residual_tol``
            (default max(1 kHz, linewidth/100)).
    """
    target = np.array([pair.nu_minus, pair.nu_plus])
    widths = np.array([pair.linewidth_minus or 0.0, pair.linewidth_plus or 0.0])
    if residual_tol is None:
        residual_tol = max(1e3, float(widths.max()) / 100.0)

    def residuals(x):
        return _line_pairs(params, x[0], x[1]) - target

    thetas = np.linspace(theta_range[0], theta_range[1], grid_shape[0])
    bs = np.linspace(b_range[0], b_range[1], grid_shape[1])
    grid_nu = _line_pairs(params, thetas[:, None], bs)
    cost = (grid_nu[..., 0] - target[0]) ** 2 + (grid_nu[..., 1] - target[1]) ** 2
    starts = _candidate_starts(thetas, bs, cost)

    lower = [theta_range[0], b_range[0]]
    upper = [theta_range[1], b_range[1]]
    # the frequency gradient in theta vanishes at theta = 0, so a start
    # pinned to that edge would never move; nudge starts slightly inside
    eps = 2e-3 * (theta_range[1] - theta_range[0])
    best_sol, best_rms = None, np.inf
    for x0 in starts:
        x0 = np.clip(x0, [lower[0] + eps, lower[1]], [upper[0] - eps, upper[1]])
        sol = least_squares(residuals, x0, bounds=(lower, upper),
                            xtol=1e-14, ftol=1e-14, gtol=1e-14,
                            x_scale=[1e-2, 1e-3])
        rms = float(np.sqrt(np.mean(sol.fun**2)))
        if rms < best_rms:
            best_sol, best_rms = sol, rms
        if rms < 1e-6:
            break
    theta_hat, b_hat = float(best_sol.x[0]), float(best_sol.x[1])
    rms = best_rms
    if rms > residual_tol:
        raise NoSolutionError(
            f"no (theta, B) in range reproduces the pair: rms residual {rms:.3e} Hz")

    # uncertainty propagation through the local Jacobian
    jac = _jacobian(params, theta_hat, b_hat)
    sigma_nu = np.where(widths > 0.0, widths / 2.0, 0.0)
    if np.any(sigma_nu > 0.0):
        try:
            jinv = np.linalg.inv(jac)
        except np.linalg.LinAlgError:
            jinv = np.linalg.pinv(jac)
        cov = jinv @ np.diag(sigma_nu**2) @ jinv.T
        theta_err = float(np.sqrt(max(cov[0, 0], 0.0)))
        b_err = float(np.sqrt(max(cov[1, 1], 0.0)))
        # quadratic insensitivity toward theta = 0: when the estimate sits
        # inside the flat valley where the lines move by less than the
        # measurement noise, the angle error spans that valley
        theta_flat = _flat_valley_width(params, b_hat, float(np.max(sigma_nu)))
        if theta_hat < theta_flat:
            theta_err = max(theta_err, theta_flat)
        theta_err = min(theta_err, 0.5 * np.pi)
    else:
        theta_err = 0.0
        b_err = 0.0
    return AngleFieldEstimate(theta=theta_hat, b=b_hat, residual=rms,
                              theta_err=theta_err, b_err=b_err)


def _candidate_starts(thetas, bs, cost, max_starts: int = 5):
    """Refinement starts: local minima of the coarse cost surface plus
    tilt-offset companions (the frequency gradient in theta vanishes
    quadratically toward theta = 0, which can strand a start)."""
    n_t, n_b = cost.shape
    # every point against its (up to 8) neighbours; +inf pads the edges
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(cost, 1, constant_values=np.inf), (3, 3)).reshape(n_t, n_b, 9)
    rows, cols = np.nonzero(cost <= np.delete(windows, 4, axis=-1).min(axis=-1))
    best = np.argsort(cost[rows, cols], kind="stable")[:max_starts]
    dt = thetas[1] - thetas[0] if thetas.size > 1 else 0.05
    starts = []
    for i, j in zip(rows[best], cols[best]):
        starts.append(np.array([thetas[i], bs[j]]))
        starts.append(np.array([thetas[i] + dt, bs[j]]))
        if i > 0:
            starts.append(np.array([thetas[i] - dt, bs[j]]))
    return starts


def _flat_valley_width(params: SpinParams, b: float, sigma: float) -> float:
    """Tilt below which both lines shift by less than sigma (rad)."""
    if sigma <= 0.0 or b <= 0.0:
        return 0.0
    probe = 0.02
    n0, n1 = _line_pairs(params, [0.0, probe], b)
    curv = 2.0 * float(np.max(np.abs(n1 - n0))) / probe**2
    if curv <= 0.0:
        return 0.5 * np.pi
    return min(float(np.sqrt(2.0 * sigma / curv)), 0.5 * np.pi)


def _jacobian(params: SpinParams, theta: float, b: float) -> np.ndarray:
    """d(nu_minus, nu_plus)/d(theta, B) by central differences."""
    h_th, h_b = 1e-4, 1e-6
    th_lo, th_hi = max(0.0, theta - h_th), min(0.5 * np.pi, theta + h_th)
    b_lo, b_hi = max(0.0, b - h_b), b + h_b
    nu = _line_pairs(params, [th_hi, th_lo, theta, theta], [b, b, b_hi, b_lo])
    col_th = (nu[0] - nu[1]) / (th_hi - th_lo)
    col_b = (nu[2] - nu[3]) / (b_hi - b_lo)
    return np.column_stack([col_th, col_b])
