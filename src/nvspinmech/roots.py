"""The stable-root search shared by equilibria and MDMR points.

A stable root of a total tilt torque is a sign change from + to <= 0 as
the tilt grows.  :func:`_stable_roots` finds, for each of many independent
rows at once, the one nearest a guess on an anchored grid of tilts in
[-pi/2, pi], and polishes it with the caller's Brent routine.  The torque
is a callable, so the same search serves the undriven torque of
``mechanics`` and the drive-included torque of ``mdmr``.
"""

from __future__ import annotations

import numpy as np


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
# -pi/2, 0, pi/2 and pi on the grid bitwise; the polish stops within _XTOL
_STEP = np.pi / 314
_K_LO, _K_HI = -157, 314
_GRID = np.arange(_K_LO, _K_HI + 1) * _STEP
_XTOL = 1e-10  # rad
_HALVES = (8, 32, 128, 512)  # scan half-widths in steps; 512 spans the grid from any tilt


def _stable_roots(brent, torque, guesses, scales) -> list[tuple[float | None, int]]:
    """[(root, torque evaluations)] of independent rows: the stable root of
    each row's total torque in [-pi/2, pi] nearest its guess, or None when
    there is none.

    ``torque(rows, thetas)`` maps tilts, and the row of each, to their
    total torques in one batch.  Each row scans 17 tilts k * _STEP around
    its guess and widens 4x until :func:`_stable_bracket` hits.  A wider
    window has the same centre and holds the one before, so a round
    evaluates only the tilts it adds, for every row still without a
    bracket in one batch, and counts one evaluation per row.  The grid is
    anchored, so solving again from a root scans the same tilts and
    returns that root bitwise.  The caller's ``brentq`` (traced per module)
    polishes each bracket with its ends pinned to the scanned values (a
    single-tilt torque may differ from the batched one in the last bit)
    and stops at a rounding-level torque.
    """
    n = len(guesses)
    centers = [min(max(round(g / _STEP), _K_LO), _K_HI) - _K_LO for g in guesses]
    windows = [(c, c) for c in centers]  # grid slice [lo, hi) scanned so far, empty at first
    values = np.empty((n, _GRID.size))  # the scanned torques by row and grid index
    evals, brackets, todo = [0] * n, [None] * n, list(range(n))
    for half in _HALVES:
        if not todo:
            break
        grown, pieces = [], []  # each row's old and new window, and the tilts it adds
        for i in todo:
            (lo, hi), c = windows[i], centers[i]
            new_lo, new_hi = windows[i] = max(c - half, 0), min(c + half + 1, _GRID.size)
            grown.append((i, new_lo, lo, hi, new_hi))
            pieces += (_GRID[new_lo:lo], _GRID[hi:new_hi])
        tau = torque(np.array(todo).repeat([lo - a + b - hi for _, a, lo, hi, b in grown]),
                     np.concatenate(pieces))
        start = 0  # raw torques are stored: _stable_bracket zeroes rounding-level ones
        for i, new_lo, lo, hi, new_hi in grown:
            left, right = lo - new_lo, new_hi - hi
            values[i, new_lo:lo] = tau[start:start + left]
            values[i, hi:new_hi] = tau[start + left:start + left + right]
            start += left + right
            evals[i] += 1
            brackets[i] = _stable_bracket(_GRID[new_lo:new_hi], values[i, new_lo:new_hi],
                                          guesses[i], scales[i])
        todo = [i for i in todo if brackets[i] is None]

    def polish(i, a, b, fa, fb):  # brentq returns b at once when fb == 0
        def f(th):
            if th == a or th == b:
                return fa if th == a else fb
            evals[i] += 1
            return float(_exact_zero(torque([i], [th]), scales[i])[0])
        return float(brent(f, a, b, xtol=_XTOL))

    return [(None if bracket is None else polish(i, *bracket), evals[i])
            for i, bracket in enumerate(brackets)]


def _stable_root(brent, torque, guess: float, scale: float) -> tuple[float | None, int]:
    """The one-row case of :func:`_stable_roots`; ``torque`` maps an array
    of tilts to their total torques in one batch."""
    return _stable_roots(brent, lambda rows, thetas: torque(thetas), [guess], [scale])[0]
