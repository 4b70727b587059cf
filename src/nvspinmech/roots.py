"""The stable-root search shared by equilibria and MDMR points.

A stable root of a total tilt torque is a sign change from + to <= 0 as
the tilt grows.  :func:`_stable_roots` finds, for each of many independent
rows at once, the one nearest a guess on an anchored grid of tilts in
[-pi/2, pi], and polishes it with the caller's Brent routine.  The torque
is a callable, so the same search serves the undriven torque of
``mechanics`` and the drive-included torque of ``mdmr``.

A torque gives the same bits for a tilt alone as inside any batch, so
rows share batches without changing a bit: the scan rounds of all rows,
each with one bracket search for every row still scanning
(:func:`_stable_bracket`), and the polish, where each row's Brent run is
replayed on the torques it knows until it asks for one it lacks
(:func:`_polish`).  The same holds for a chain of rows, each warm-started
from the root before it (the equilibrium sweeps of ``mechanics``, the
frequencies of an MDMR scan): :func:`_branch_roots` solves all of them in
waves to the fixed point of their warm starts, which is the serial chain
bitwise (the fixed-point idea of waveform relaxation, Lelarasmee, Ruehli &
Sangiovanni-Vincentelli 1982, and of parareal, Lions, Maday & Turinici 2001).
"""

from __future__ import annotations

import numpy as np


def _stable_bracket(thetas: np.ndarray, values: np.ndarray, guesses, scales) -> list:
    """[(a, b, tau(a), tau(b)) or None] of scanned total torques, a row each
    of ``thetas`` and ``values`` (rows, w >= 2; NaN values pad a window): the
    sign change from + to <= 0 whose secant root is nearest the row's guess,
    the first on ties.  |tau| <= 1e-12 * scale (e.g. 1e-32 at pi/2, no trap)
    is rounding, an exact 0: tau(b) == 0 means b is the root itself.  Every
    step is elementwise or per row: a row gets the same bits in any stack."""
    tol = 1e-12 * np.asarray(scales, dtype=float)[:, None]
    vals = np.where(np.abs(values) <= tol, 0.0, values)
    a, fa, fb = thetas[:, :-1], vals[:, :-1], vals[:, 1:]
    hit = (fa > 0.0) & (fb <= 0.0)
    # the secant step of each sign change, and inf where there is none
    step = np.divide(fa * (thetas[:, 1:] - a), fa - fb, out=np.full(hit.shape, np.inf), where=hit)
    best = np.argmin(np.abs(a + step - np.asarray(guesses, dtype=float)[:, None]), axis=1)
    at = best + np.arange(0, vals.size, vals.shape[1])  # flat index of each row's a
    ends = zip(thetas.ravel()[at].tolist(), thetas.ravel()[at + 1].tolist(),
               vals.ravel()[at].tolist(), vals.ravel()[at + 1].tolist())
    return [bracket if found else None for found, bracket in zip(hit.any(axis=1).tolist(), ends)]


# stable-root scan: tilts k * _STEP for k in [_K_LO, _K_HI], which puts
# -pi/2, 0, pi/2 and pi on the grid bitwise; the polish stops within _XTOL
_STEP = np.pi / 314
_K_LO, _K_HI = -157, 314
_GRID = np.arange(_K_LO, _K_HI + 1) * _STEP
_TILTS = _GRID.tolist()  # the grid as floats, the keys of a torque memory
_XTOL = 1e-10  # rad
_HALVES = (8, 32, 128, 512)  # scan half-widths in steps; 512 spans the grid from any tilt


def _scan_rows(torque, guesses, scales, known) -> tuple[list, list[int]]:
    """([bracket or None], [scan rounds]) of independent rows.  Each row
    scans 17 tilts k * _STEP around its guess and widens 4x until
    :func:`_stable_bracket` hits.  A wider window has the same centre and
    holds the one before, so a round adds tilts only, and evaluates those
    of every row still without a bracket that the row's torque memory
    ``known`` (tilt -> raw total torque) lacks in one batch, then searches
    their windows in one stack.  A round counts one evaluation per row."""
    n = len(guesses)
    centers = [min(max(round(g / _STEP), _K_LO), _K_HI) - _K_LO for g in guesses]  # on the grid
    windows = [(c, c) for c in centers]  # grid slice [lo, hi) scanned so far, empty at first
    rounds, brackets, todo = [0] * n, [None] * n, list(range(n))
    for half in _HALVES:
        if not todo:
            break
        tags, tilts = [], []
        for i in todo:
            (lo, hi), c = windows[i], centers[i]
            new_lo, new_hi = windows[i] = max(c - half, 0), min(c + half + 1, _GRID.size)
            new = [t for t in _TILTS[new_lo:lo] + _TILTS[hi:new_hi] if t not in known[i]]
            tags += [i] * len(new)
            tilts += new
            rounds[i] += 1
        if tilts:  # raw torques are stored: _stable_bracket zeroes rounding-level ones
            for i, t, tau in zip(tags, tilts, torque(np.array(tags), np.array(tilts)).tolist()):
                known[i][t] = tau
        spans = [windows[i] for i in todo]
        width = max(hi - lo for lo, hi in spans)  # narrower windows are padded with NaN
        values = np.array([[known[i][t] for t in _TILTS[lo:hi]] + [np.nan] * (width - hi + lo)
                           for i, (lo, hi) in zip(todo, spans)])
        thetas = np.take(_GRID, np.array(spans)[:, :1] + np.arange(width), mode="clip")
        for i, got in zip(todo, _stable_bracket(thetas, values, [guesses[i] for i in todo],
                                                [scales[i] for i in todo])):
            brackets[i] = got
        todo = [i for i in todo if brackets[i] is None]
    return brackets, rounds


class _Unknown(Exception):
    """A polish replay asked for a tilt (the argument) that its row's torque
    memory lacks."""


def _replay(brent, bracket: tuple, scale: float, known: dict, evaluate=None) -> tuple[float, int]:
    """(root, evaluations) of ``brent`` on a bracket (a, b, tau(a), tau(b))
    with its ends pinned to these scanned values and every other tilt's
    torque read from ``known`` (raw, zeroed at rounding level as by
    :func:`_stable_bracket`).  A tilt not there is evaluated and stored by
    ``evaluate``, or without it stops the run (:class:`_Unknown`).  Every
    call at a tilt other than an end counts, known or not."""
    a, b, fa, fb = bracket
    calls = 0

    def f(th):  # brentq returns b at once when fb == 0
        nonlocal calls
        if th == a or th == b:
            return fa if th == a else fb
        calls += 1
        if (tau := known.get(th)) is None:
            if evaluate is None:
                raise _Unknown(th)
            tau = known[th] = evaluate(th)
        return 0.0 if abs(tau) <= 1e-12 * scale else tau

    try:
        return float(brent(f, a, b, xtol=_XTOL)), calls
    finally:  # brentq keeps f in a reference cycle: drop the memory and torque it holds
        known = evaluate = None


def _polish(brent, torque, brackets, scales, known) -> list[tuple[float | None, int]]:
    """[(root or None, evaluations)] of the bracketed rows, polished in
    lockstep.  Each round replays every unfinished row's Brent run from its
    bracket on the torques it knows (:func:`_replay`); the first tilt a row
    lacks stops it, and the stopped tilts of all rows are evaluated in one
    batch.  Brent is deterministic, so a replay retraces the run before it
    and asks for one new tilt, and the completed run is the serial one
    bitwise.  A lone unfinished row evaluates its tilts inline."""
    found = [(None, 0)] * len(brackets)
    live = [i for i, bracket in enumerate(brackets) if bracket is not None]
    while live:
        stopped = []
        for i in live:
            # a lone row has no batch to share, and replaying it once per
            # Brent step costs O(k^2) calls
            evaluate = (lambda th: float(torque([i], [th])[0])) if len(live) == 1 else None
            try:
                found[i] = _replay(brent, brackets[i], scales[i], known[i], evaluate)
            except _Unknown as stop:
                stopped.append((i, stop.args[0]))
        if stopped:
            rows, thetas = zip(*stopped)
            for i, th, tau in zip(rows, thetas, torque(np.array(rows), np.array(thetas)).tolist()):
                known[i][th] = tau
        live = [i for i, _ in stopped]
    return found


def _stable_roots(brent, torque, guesses, scales,
                  memory=None) -> list[tuple[float | None, int]]:
    """[(root, torque evaluations)] of independent rows: the stable root of
    each row's total torque in [-pi/2, pi] nearest its guess, or None when
    there is none.

    ``torque(rows, thetas)`` maps tilts to their total torques in one
    batch; ``rows`` holds the row of each tilt, or one row for all of
    them.  The scan (:func:`_scan_rows`) counts one evaluation per
    widening round.  The grid is anchored, so solving again from a root
    scans the same tilts and returns that root bitwise.  The caller's
    ``brentq`` (traced per module) polishes each bracket with its ends
    pinned to the scanned values, stops at a rounding-level torque and
    counts one evaluation per call (:func:`_polish`).  ``memory``, one
    dict per row that the caller may keep across calls, holds the raw
    total torque of every tilt solved (tilt -> torque), so no tilt of a
    row is evaluated twice; it changes no root and no count.
    """
    memory = [{} for _ in guesses] if memory is None else memory
    brackets, rounds = _scan_rows(torque, guesses, scales, memory)
    return [(root, n + calls) for n, (root, calls)
            in zip(rounds, _polish(brent, torque, brackets, scales, memory))]


def _branch_roots(brent, torque, firsts, scales,
                  memory=None) -> list[tuple[float | None, int]]:
    """:func:`_stable_roots` of a chain of rows, each solved from its warm
    start: the last bound root before it, or ``firsts[i]`` until there is
    one.  The serial loop solves one row after another; here the first
    wave solves every row from its ``firsts`` entry, and each later wave
    re-solves together only the rows whose warm start is no longer the
    guess they were solved from.  A row's (root, evaluations) is a function
    of its guess alone, so when no warm start changes the waves have
    reached the serial loop's answer bitwise.  Rows keep one torque memory
    across the waves, ``memory`` if the caller passes one (as to
    :func:`_stable_roots`), so a tilt of a row is evaluated once per
    chain."""
    n = len(firsts)
    memory = [{} for _ in range(n)] if memory is None else memory
    found, starts = [(None, 0)] * n, [None] * n
    while True:
        warm, last = [], None
        for first, (root, _) in zip(firsts, found):
            warm.append(first if last is None else last)
            last = last if root is None else root
        if not (redo := [i for i in range(n) if starts[i] != warm[i]]):
            return found
        tags = np.array(redo)
        solved = _stable_roots(brent, lambda rows, thetas: torque(tags[rows], thetas),
                               [warm[i] for i in redo], [scales[i] for i in redo],
                               [memory[i] for i in redo])
        for i, got in zip(redo, solved):
            found[i], starts[i] = got, warm[i]
