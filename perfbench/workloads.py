"""The benchmark's three workloads: fixed work lists of operations.

An operation is one hysteresis pair or scan, one CLI command, or one
inversion.  ``WORKLOADS[name](seed)`` makes the parameters, configurations
and inputs; the pass runner times ``Op.run`` and afterwards applies
``Op.check`` to the outputs of the whole pass.  Only the package's public
API and its CLI are called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks as ck
import nvspinmech as nv

TWO_PI, DEG = ck.TWO_PI, ck.DEG
ORIENTATION = nv.CrystalOrientation.identity()


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    # check(output, outputs of the whole pass by op name) -> failure messages
    check: Callable[[object, dict], list]
    # text that must repeat exactly from pass to pass
    digest: Callable[[object], str]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _axial(b: float):
    return nv.FieldVector.from_array(b * ORIENTATION.axis_lab(0), frame="lab")


# --- mdmr_hysteresis ----------------------------------------------------

# (name, gamma2*/2pi Hz, trap Hz, trap angle deg, B tesla, line, half span Hz,
#  points, Rabi Hz, expected jump side); the first four are the
# acceptance-criterion-7 pairs, the last the linear-regime pair
_PAIRS = (
    ("after_lower", 5e6, 300.0, 3.0, 0.12, "lower", 75e6, 13, 6e6, "high"),
    ("after_upper", 5e6, 300.0, 8.0, 0.14, "upper", 150e6, 13, 8e6, "low"),
    ("before_lower", 1e6, 120.0, 10.0, 0.023, "lower", 30e6, 13, 2e6, "low"),
    ("before_upper", 1e6, 120.0, 10.0, 0.023, "upper", 30e6, 13, 2e6, "low"),
    ("linear", 5e6, 300.0, 3.0, 0.13, "lower", 60e6, 7, 0.2e6, None),
)


def _spectrum_digest(out) -> str:
    spectra = out[1:] if isinstance(out, tuple) else (out,)
    text = "".join(repr((s.baseline_theta, s.points)) for s in spectra)
    return _sha(text)


def _pair_op(name, gamma2_hz, trap_hz, trap_deg, b, line, half, points, rabi, side) -> Op:
    params = nv.SpinParams(gamma2_star=TWO_PI * gamma2_hz)
    trap = nv.TrapModel(trap_frequency=TWO_PI * trap_hz, theta0=trap_deg * DEG)
    field_lab = _axial(b)

    def run():
        # window centred on the line at the microwave-off equilibrium tilt
        eq = nv.equilibrium_angle(params, ORIENTATION, trap, field_lab, classes=(0,))
        center = ck.zero_state_lines(b * np.sin(eq.theta), b * np.cos(eq.theta))[line]
        drive = nv.MicrowaveDrive(rabi_rate=TWO_PI * rabi, frequencies=tuple(
            np.linspace(center - half, center + half, points)))
        up, down = nv.hysteresis_pair(params, ORIENTATION, trap, field_lab, drive,
                                      classes=(0,))
        return center, up, down

    def check(out, _outs):
        center, up, down = out
        spectra = [(s.frequencies_hz, s.delta_theta) for s in (up, down)]
        if side is not None:
            return ck.check_jump_side(spectra, center, side)
        theta = up.baseline_theta
        minus = ck.zero_state_lines(b * np.sin(theta), b * np.cos(theta))["minus"]
        return (ck.check_directions_agree(up.delta_theta, down.delta_theta)
                + ck.check_peak_at_line(*spectra[0], minus, gamma2_hz))

    return Op(name, run, check, _spectrum_digest)


def _four_class_op() -> Op:
    """README 180 mT hysteresis recipe with all four classes, shortened."""
    params, trap, b = nv.SpinParams(), nv.TrapModel(theta0=ck.TRAP_ANGLE), 0.18
    classes = (0, 1, 2, 3)
    drive = nv.MicrowaveDrive(rabi_rate=TWO_PI * 6e6,
                              frequencies=tuple(np.linspace(2.1e9, 2.25e9, 9)))

    def run():
        return nv.hysteresis_pair(params, ORIENTATION, trap, _axial(b), drive,
                                  classes=classes)

    def check(out, _outs):
        fails = []
        for spec in out:
            fails += ck.check_class_lines(spec.class_lines_hz, classes,
                                          spec.baseline_theta, b)
        return fails

    return Op("four_class_180mT", run, check, _spectrum_digest)


def _zero_drive_op() -> Op:
    params, trap = nv.SpinParams(), nv.TrapModel(theta0=ck.TRAP_ANGLE)
    drive = nv.MicrowaveDrive(rabi_rate=0.0,
                              frequencies=tuple(np.linspace(2.0e9, 2.5e9, 7)))

    def run():
        return nv.mdmr_scan(params, ORIENTATION, trap, _axial(0.023), drive)

    return Op("zero_drive_scan", run,
              lambda out, _outs: ck.check_exact_zero(out.delta_theta),
              _spectrum_digest)


def _mdmr_hysteresis(seed: int) -> list:
    # fixed cases: each check needs its regime, so the seed draws nothing
    return [_pair_op(*case) for case in _PAIRS] + [_four_class_op(), _zero_drive_op()]


# --- orientation_recipes ------------------------------------------------

def _sets(*pairs) -> list:
    return [tok for kv in pairs for tok in ("--set", kv)]


_RECIPES = (
    ("susceptibility", ["susceptibility", *_sets("sweep.start=0", "sweep.stop=0.2",
                                                 "sweep.steps=120")]),
    ("equilibrium", ["equilibrium", *_sets("sweep.start=0.005", "sweep.stop=0.2",
                                           "sweep.steps=40")]),
    ("rotation", ["rotation", *_sets(
        "field.magnitude_tesla=0.13", "sweep.start=0", "sweep.stop=0.245", "sweep.steps=8",
        "spin.n_spins_per_class=1e9", "trap.trap_frequency_hz=300")]),
    ("landscape", ["landscape", *_sets("field.magnitude_tesla=0.11")]),
    ("libration", ["libration", *_sets(
        "run.classes=tracked", "trap.trap_frequency_hz=0", "spin.n_spins_per_class=1e9")]),
    ("libration_pump", ["libration", *_sets(
        "run.classes=tracked", "trap.trap_frequency_hz=0", "spin.n_spins_per_class=1e9",
        "libration.variable=pump_rate", "sweep.start=1e3", "sweep.stop=1e6")]),
    ("critical_field_free", ["critical-field", *_sets("trap.trap_frequency_hz=0")]),
    ("critical_field_trapped", ["critical-field"]),
)


def _column(table, name) -> list:
    i = table.columns.index(name)
    return [row[i] for row in table.rows]


def _recipe_check(name: str, table, outs: dict) -> list:
    col = lambda n: _column(table, n)
    if name == "susceptibility":
        return ck.check_susceptibility(zip(col("b"), col("chi_perp_numeric")))
    if name == "equilibrium":
        return ck.check_equilibrium_regions(col("b"), col("theta"))
    if name == "rotation":
        return ck.check_rotation(col("theta_b"), col("theta"), col("theta_control"))
    if name == "landscape":
        return ck.check_landscape(table.rows)
    if name == "libration":
        return ck.check_libration(table.rows, 1e9, "field")
    if name == "libration_pump":
        return ck.check_libration(table.rows, 1e9, "pump_rate", field_b=0.13)
    if name == "critical_field_trapped":
        free = outs.get("critical_field_free")
        if free is None or free[0] != 0:
            return ["free critical field missing"]
        return ck.check_critical_fields(nv.ResultTable.parse(free[1]).rows[0][0],
                                        table.rows[0][0])
    return []


def _recipe_op(name: str, argv: list) -> Op:
    from nvspinmech import cli

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(out, outs):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        return _recipe_check(name, nv.ResultTable.parse(text), outs)

    def digest(out):
        code, text = out
        # the timestamp line is the only one allowed to change
        body = [ln for ln in text.splitlines() if not ln.startswith("# generated:")]
        return _sha(f"{code}\n" + "\n".join(body))

    return Op(name, run, check, digest)


def _orientation_recipes(seed: int) -> list:
    # the README recipes are fixed inputs; the seed draws nothing
    return [_recipe_op(name, argv) for name, argv in _RECIPES]


# --- magnetometry_readout -----------------------------------------------

N_DRAWS = 100  # seed-drawn line pairs per pass
LINEWIDTH_HZ = 10e6


def _draws(seed: int) -> list:
    """Stratified draws: one (theta, B) in each cell of a 10 x 10 grid over
    theta in [1, 89] deg and B in [0.01, 0.095] T, in shuffled order."""
    rng = np.random.default_rng(seed)
    side = int(np.sqrt(N_DRAWS))
    cells = np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)
    u = (cells + rng.random(cells.shape)) / side
    theta = (1.0 + 88.0 * u[:, 0]) * DEG
    b = 0.01 + 0.085 * u[:, 1]
    order = rng.permutation(len(cells))
    return [(float(theta[k]), float(b[k])) for k in order]


def _estimate_digest(out) -> str:
    est = out[-1] if isinstance(out, tuple) else out
    return repr((est.theta, est.b, est.residual, est.theta_err, est.b_err))


def _inversion_op(name, params, pair, check_fn, **kwargs) -> Op:
    def run():
        return nv.invert_angle_field(params, pair, **kwargs)

    return Op(name, run, check_fn, _estimate_digest)


def _magnetometry_readout(seed: int) -> list:
    params = nv.SpinParams()
    ops = []
    for k, (theta, b) in enumerate(_draws(seed)):
        pair = nv.TransitionPair(*ck.sorted_lines(theta, b))
        ops.append(_inversion_op(
            f"draw_{k:03d}", params, pair,
            lambda est, _o, t=theta, bb=b: ck.check_recovered(est.theta, est.b, t, bb)))

    # linewidth cases: tilted and aligned fields at 0.08 T (below the crossing)
    for name, theta in (("linewidth_tilted_80mT", 10.0 * DEG),
                        ("linewidth_aligned_80mT", 0.0)):
        pair = nv.TransitionPair(*ck.sorted_lines(theta, 0.08),
                                 linewidth_minus=LINEWIDTH_HZ, linewidth_plus=LINEWIDTH_HZ)

        def check(est, outs, t=theta):
            fails = ck.check_errors_finite(est.theta_err, est.b_err)
            fails += ck.check_recovered(est.theta, est.b, t, 0.08)
            if t == 0.0:
                tilted = outs.get("linewidth_tilted_80mT")
                fails += (["tilted case missing"] if tilted is None else
                          ck.check_aligned_error_inflated(est.theta_err, tilted.theta_err))
            return fails

        ops.append(_inversion_op(name, params, pair, check))

    # 5 deg at 0.15 T, past the crossing: a forward-then-inverse round trip
    def round_trip():
        tp = nv.transition_frequencies(params, 5.0 * DEG, 0.15)
        pair = nv.TransitionPair(tp.nu_minus, tp.nu_plus,
                                 linewidth_minus=LINEWIDTH_HZ, linewidth_plus=LINEWIDTH_HZ)
        return tp, nv.invert_angle_field(params, pair)

    def check_round_trip(out, _outs):
        _tp, est = out
        return (ck.check_errors_finite(est.theta_err, est.b_err)
                + ck.check_recovered(est.theta, est.b, 5.0 * DEG, 0.15))

    ops.append(Op("linewidth_tilted_150mT", round_trip, check_round_trip, _estimate_digest))

    # 1 deg at 0.18 T searched only up to 0.16 T: the estimator must return a
    # twin that reproduces the pair.  Past the crossing the line labels follow
    # the program's continuation, so the pair is re-computed with its own
    # forward model at the returned point.
    lines = ck.zero_state_lines(0.18 * np.sin(1.0 * DEG), 0.18 * np.cos(1.0 * DEG))
    twin_target = (lines["minus"], lines["plus"])

    def check_twin(est, _outs):
        tp = nv.transition_frequencies(params, est.theta, est.b)
        fails = ck.check_pair_reproduced((tp.nu_minus, tp.nu_plus), twin_target)
        if not 0.0 <= est.b <= 0.16:
            fails.append(f"twin field {est.b!r} T outside the searched range")
        return fails

    ops.append(_inversion_op("twin_180mT", params, nv.TransitionPair(*twin_target),
                             check_twin, b_range=(0.0, 0.16)))
    return ops


WORKLOADS = {
    "mdmr_hysteresis": _mdmr_hysteresis,
    "orientation_recipes": _orientation_recipes,
    "magnetometry_readout": _magnetometry_readout,
}
