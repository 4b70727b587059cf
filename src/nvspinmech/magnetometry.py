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

The inverse problem is closed form: a model pair fixes all three levels
(they sum to 2D), and for H = D Sz^2 + b.S their symmetric functions are
e2 = D^2 - b^2 and e3 = -D b_perp^2 (the E = 0 form of NV vector
magnetometry, Balasubramanian et al., Nature 455, 648 (2008)), so the
forward model is one-to-one on theta in [0, pi/2] at every field.

The polish (:func:`least_squares`, in the package) starts from that point
clipped into the search ranges and stops there, with no Jacobian, when the
point already solves the pair: its residuals are at the forward model's
rounding (|f|_2 <= 16 eps max|nu|) and the closed form's rounding error is
within 1e-12 rad in theta and 1e-13 relative in B.  That error is a
rounding of about eps m, with m = max(D, |E_k|) the scale of H, carried to
first order through the closed form's three cancellations: the levels from
the lines (E_low = (2D - 2pi(nu_- + nu_+))/3 and the sums after it,
relative error m/|E_k|, large near theta = 0 where the |0>-like level
nears 0), b^2 = D^2 - e2 (relative error m^2/b^2, large at low field), and
theta = arcsin sqrt(s), s = sin^2 theta, which moves by (ds/s)
tan(theta)/2 and so grows as s -> 1.  With kappa = sum_k m/|E_k| + m^2/b^2
the relative error of s is about eps kappa, so theta is off by eps kappa
tan(theta)/2 and B by eps m^2/(2 b^2) relative; the bounds are four times
these, for the several roundings of each step (against a 50-digit
evaluation on 1422 pairs, the closed form stayed within 0.34 of the angle
bound and 0.77 of the field bound).  The residual test catches what the
closed form does not solve (a pair off the model's image, which noise can
make, or a start clipped into a restricted range); the error bound catches
pairs that a residual at rounding does not pin (near alignment or a
transverse field).  Anywhere else one bounded Gauss-Newton polish absorbs
rounding and gives the bounded best fit when noise or a restricted range
leaves no exact solution.

Linewidths propagate to parameter uncertainties through the local
Jacobian; the angle uncertainty inflates toward theta = 0, where the lines
lose their angular sensitivity quadratically.  A pair that is not a model
pair, such as the |0>-like state's lines past the crossing, maps by
construction to its unique energy-rank twin (those of 1 deg, 0.18 T to
24.35 deg, 0.1333 T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        for nu in (self.nu_minus, self.nu_plus):
            if not (np.isfinite(nu) and nu > 0.0):
                raise ValueError(
                    f"transition frequencies must be finite and positive, got {nu!r}")
        for width in (self.linewidth_minus, self.linewidth_plus):
            if width is not None and not (np.isfinite(width) and width >= 0.0):
                raise ValueError(
                    f"linewidths must be None or finite and >= 0, got {width!r}")


class NoSolutionError(RuntimeError):
    """No (theta, B) in the search range reproduces the pair within tolerance."""


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

    Raises:
        ValueError: ``theta`` or ``b`` is out of range, or the field sits on
            the level crossing, where the lower two levels are degenerate
            and ``nu_minus`` is exactly 0 (an aligned field of D/gamma_e).
    """
    if not 0.0 <= theta <= 0.5 * np.pi:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta!r}")
    if b < 0.0 or not np.isfinite(b):
        raise ValueError(f"field magnitude must be finite and >= 0, got {b!r}")
    nu_minus, nu_plus = _line_pairs(params, theta, b)
    if nu_minus == 0.0:
        raise ValueError(f"no line pair at the level crossing (theta={theta!r}, b={b!r} T): "
                         "the lower two levels are degenerate, so nu_minus is 0")
    return TransitionPair(nu_minus=float(nu_minus), nu_plus=float(nu_plus))


def _closed_form_terms(params: SpinParams, nu_minus: float, nu_plus: float):
    """(sin^2 theta, b^2, theta bound, B bound) of a line pair, or None where
    the expansion overflows.

    prod_k (x - E_k) = x^3 - 2D x^2 + (D^2 - b^2) x + D b_perp^2 for
    H = D Sz^2 + b.S, with b = gamma B, expanded in Python floats in the
    order of ``np.poly`` (its bits, without its array overhead).  The
    bounds are the closed form's rounding error, in rad and relative to B,
    by the first-order propagation of the module docstring; they are inf
    where theta = arcsin sqrt(sin^2) is not pinned (sin^2 clipped to 0 or
    1, or on its edges).
    """
    d, nu_minus, nu_plus = float(params.zero_field_splitting), float(nu_minus), float(nu_plus)
    e_low = (2.0 * d - 2.0 * math.pi * (nu_minus + nu_plus)) / 3.0
    e_mid, e_top = e_low + 2.0 * math.pi * nu_minus, e_low + 2.0 * math.pi * nu_plus
    low_mid = e_low * e_mid
    e2, d_bperp_sq = low_mid + (-e_low + -e_mid) * -e_top, low_mid * -e_top
    if not (math.isfinite(e2) and math.isfinite(d_bperp_sq)):
        return None
    b_sq = max(d * d - e2, 0.0)
    d_b_sq = d * b_sq
    # max(0.0, -0.0) is 0.0, as in np.clip
    sin_sq = min(max(0.0, d_bperp_sq / d_b_sq), 1.0) if d_b_sq > 0.0 else 0.0
    if not 0.0 < sin_sq < 1.0:
        return sin_sq, b_sq, math.inf, math.inf
    # 0 < sin_sq: every level is nonzero and b_sq > 0
    scale = max(d, abs(e_low), abs(e_mid), abs(e_top))
    b_cond = scale * scale / b_sq
    kappa = scale * (1.0 / abs(e_low) + 1.0 / abs(e_mid) + 1.0 / abs(e_top)) + b_cond
    return (sin_sq, b_sq, 2.0 * _EPS * kappa * math.sqrt(sin_sq / (1.0 - sin_sq)),
            2.0 * _EPS * b_cond)


def _closed_form(params: SpinParams, nu_minus: float, nu_plus: float) -> list:
    """The model point [theta, B] of a line pair, where the polish starts
    (:func:`_closed_form_terms`).  A float overflows to inf silently; an
    expansion that does raises NoSolutionError."""
    terms = _closed_form_terms(params, nu_minus, nu_plus)
    if terms is None:
        raise NoSolutionError("no (theta, B) in range reproduces the pair: "
                              "its closed form overflows in floating point")
    sin_sq, b_sq = terms[:2]
    # np.arcsin, not math.asin: the two differ in the last bit
    return [float(np.arcsin(math.sqrt(sin_sq))),
            math.sqrt(b_sq) / params.gyromagnetic_ratio]


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
                       b_range: tuple = (0.0, 0.3)) -> AngleFieldEstimate:
    """Recover (theta, B) from a measured line pair.

    The closed-form point of the module docstring, clipped into the ranges,
    starts one bounded Gauss-Newton polish of the frequency residuals
    (:func:`least_squares`): it stops at that start where the closed form
    already solves the pair, and otherwise takes projected steps with a
    forward-difference Jacobian, each accepted only when it lowers the cost.
    Linewidths, when present, propagate through the inverse Jacobian into
    (theta_err, b_err); near theta = 0 the angle error inflates instead of
    failing.  Without them both errors are 0 and no Jacobian is built.

    Raises:
        ValueError: a range is not finite with 0 <= lo < hi.
        NoSolutionError: the polished rms residual exceeds max(1 kHz,
            linewidth/100), or the closed form overflows (lines beyond
            about 1e102 Hz).
    """
    for name, (lo, hi) in (("theta_range", theta_range), ("b_range", b_range)):
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo < hi):
            raise ValueError(f"{name} must be finite with 0 <= lo < hi, got {(lo, hi)!r}")
    lower, upper = np.array([theta_range, b_range], dtype=float).T
    w_minus, w_plus = pair.linewidth_minus or 0.0, pair.linewidth_plus or 0.0
    w_max = max(w_minus, w_plus)
    tol = max(1e3, w_max / 100.0)

    sol = least_squares(params, np.array([pair.nu_minus, pair.nu_plus]),
                        _closed_form(params, pair.nu_minus, pair.nu_plus), lower, upper)
    theta_hat, b_hat = sol.x.tolist()
    f_minus, f_plus = sol.fun.tolist()
    rms = math.sqrt((f_minus * f_minus + f_plus * f_plus) / 2.0)
    if rms > tol:
        raise NoSolutionError(
            f"no (theta, B) in range reproduces the pair: rms residual {rms:.3e} Hz")
    if w_max == 0.0:
        return AngleFieldEstimate(theta=theta_hat, b=b_hat, residual=rms,
                                  theta_err=0.0, b_err=0.0)

    # uncertainty propagation through the local Jacobian
    jac = _jacobian(params, theta_hat, b_hat)
    sigma_nu = np.array([w_minus, w_plus]) / 2.0
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
    theta_flat = _flat_valley_width(params, b_hat, w_max / 2.0)
    if theta_hat < theta_flat:
        theta_err = max(theta_err, theta_flat)
    theta_err = min(theta_err, 0.5 * np.pi)
    return AngleFieldEstimate(theta=theta_hat, b=b_hat, residual=rms,
                              theta_err=theta_err, b_err=b_err)


# polish stops: a step within _POLISH_TOL of max(|x|, _X_SCALE), a cost that
# falls by at most _POLISH_TOL of itself, a step that does not lower the
# cost, or _POLISH_EVALS evaluations
_X_SCALE = np.array([1e-2, 1e-3])  # rad, tesla
_POLISH_TOL = 1e-14
_POLISH_EVALS = 50
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = float(np.sqrt(_EPS))
# stop at the start (module docstring).  eigvalsh gives each level to about
# 3 eps |H|, and |H| <= 2pi nu_+ because E_low <= <0|H|0> = 0 <= E_top; so
# each line of a pair at its own point is off by about 6 eps max|nu|, both
# by about 8.5 eps max|nu| in the 2-norm, and _STOP_RESIDUAL allows twice
# that.  The closed-form bounds must then lie within _STOP_THETA (rad) and
# _STOP_B (relative).
_STOP_RESIDUAL = 16.0 * _EPS
_STOP_THETA = 1e-12
_STOP_B = 1e-13


@dataclass(frozen=True)
class PolishResult:
    """Bounded least-squares polish: the point, its residuals (Hz) and the
    number of points at which the residuals were evaluated (the start,
    then one per trial step)."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int


def least_squares(params: SpinParams, target, x0, lower, upper) -> PolishResult:
    """Bounded Gauss-Newton polish of the two frequency residuals.

    Minimizes |nu(theta, B) - target|^2 over the box [lower, upper] from
    ``x0`` clipped into the box.  It stops at that start (``nfev`` = 1,
    no Jacobian) when its residuals are at the forward model's rounding and
    the closed form of ``target`` is well conditioned (module docstring).
    Otherwise each evaluation is one 3-point :func:`_line_pairs` batch that
    gives the residuals and their forward-difference Jacobian.  A
    Gauss-Newton step that pushes a parameter through its bound holds it at
    the bound and solves for the other alone; a step is accepted only when
    it strictly lowers the cost.
    """
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    fun = _line_pairs(params, x[0], x[1]) - target
    if _solved_at_start(params, target, fun):
        return PolishResult(x=x, fun=fun, nfev=1)
    fun, jac = _residuals_and_jacobian(params, target, x, upper)
    cost, nfev = float(fun @ fun), 1
    while nfev < _POLISH_EVALS:
        step = _box_step(x, fun, jac, lower, upper)
        if np.all(np.abs(step) <= _POLISH_TOL * np.maximum(np.abs(x), _X_SCALE)):
            break
        trial = np.clip(x + step, lower, upper)
        trial_fun, trial_jac = _residuals_and_jacobian(params, target, trial, upper)
        nfev += 1
        trial_cost = float(trial_fun @ trial_fun)
        if not trial_cost < cost:
            break
        stalled = cost - trial_cost <= _POLISH_TOL * cost
        x, fun, jac, cost = trial, trial_fun, trial_jac, trial_cost
        if stalled:
            break
    return PolishResult(x=x, fun=fun, nfev=nfev)


def _solved_at_start(params: SpinParams, target, fun) -> bool:
    """Whether the start, with residuals ``fun``, solves ``target``: they are
    at the forward model's rounding, and the closed form of ``target`` pins
    its point to within the stop bounds."""
    nu_minus, nu_plus = (float(nu) for nu in target)
    f_minus, f_plus = fun.tolist()
    limit = _STOP_RESIDUAL * max(abs(nu_minus), abs(nu_plus))
    if not f_minus * f_minus + f_plus * f_plus <= limit * limit:
        return False
    terms = _closed_form_terms(params, nu_minus, nu_plus)
    return terms is not None and terms[2] <= _STOP_THETA and terms[3] <= _STOP_B


def _residuals_and_jacobian(params: SpinParams, target, x, upper):
    """Residuals at x and their forward-difference Jacobian, one batch.

    The step is sqrt(eps) * max(1, |x|), taken inward at an upper bound.
    """
    h = _SQRT_EPS * np.maximum(1.0, np.abs(x))
    h = np.where(x + h > upper, -h, h)
    nu = _line_pairs(params, [x[0], x[0] + h[0], x[0]], [x[1], x[1], x[1] + h[1]])
    return nu[0] - target, (nu[1:] - nu[0]).T / h


def _box_step(x, fun, jac, lower, upper) -> np.ndarray:
    """Gauss-Newton step on the box: a parameter the full step pushes
    through its bound is held there, and the other is solved alone."""
    step = np.linalg.lstsq(jac, -fun, rcond=None)[0]
    out = (x + step < lower) | (x + step > upper)
    if out.sum() == 1:
        step[out] = np.clip(x + step, lower, upper)[out] - x[out]
        col = jac[:, ~out][:, 0]
        norm = float(col @ col)
        step[~out] = -col @ (fun + jac[:, out] @ step[out]) / norm if norm > 0.0 else 0.0
    return step


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
