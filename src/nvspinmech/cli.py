"""Command-line reproduction harness.

    nvspinmech <command> --config <path> [--out <path>] [--set section.key=value ...]

Commands map one-to-one onto the library sweeps: ``susceptibility``
(transverse response vs field), ``equilibrium`` (tilt vs field magnitude),
``rotation`` (tilt vs field direction), ``mdmr`` (microwave scans,
optionally hysteresis pairs), ``landscape`` (angular magnetic energy),
``libration`` (frequencies vs field or pump rate) and ``invert``
(magnetometry).  Tables go to --out or stdout as commented CSV; all
diagnostics go to stderr.  Exit codes: 0 success, 1 configuration error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .crystal import transverse_reference, NV_AXES
from .magnetometry import NoSolutionError, TransitionPair, invert_angle_field
from .mdmr import hysteresis_pair, mdmr_scan
from .mechanics import (QuadratureError, RangeExhaustedError, critical_field,
                        equilibrium_angle, field_rotation_sweep,
                        librational_frequency, magnetic_energy_landscape)
from .params import FieldVector
from .spincore import (SingularDetuningError, SteadyStateError,
                       steady_state_batch, susceptibility_analytic,
                       susceptibility_numeric, susceptibility_van_vleck)
from .table import ResultTable

_NUMERICAL_ERRORS = (SteadyStateError, QuadratureError, RangeExhaustedError,
                     NoSolutionError, SingularDetuningError,
                     np.linalg.LinAlgError, FloatingPointError)


def _field_lab(cfg: RunConfig, magnitude: float | None = None) -> FieldVector:
    """Lab field at the configured tilt/azimuth from the tracked axis."""
    orientation = cfg.orientation()
    tracked = cfg.get("crystal", "tracked_class")
    mag = cfg.get("field", "magnitude_tesla") if magnitude is None else magnitude
    tilt = cfg.get("field", "tilt_rad")
    azim = cfg.get("field", "azimuth_rad")
    z = orientation.axis_lab(tracked)
    x = orientation.to_lab(transverse_reference(NV_AXES[tracked]))
    y = np.cross(z, x)
    direction = (np.sin(tilt) * (np.cos(azim) * x + np.sin(azim) * y)
                 + np.cos(tilt) * z)
    return FieldVector.from_array(mag * direction, frame="lab")


def _base_meta(cfg: RunConfig, command: str) -> dict:
    return {
        "tool": f"nvspinmech {__version__}",
        "command": command,
        "config_sha256": cfg.sha256,
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def cmd_susceptibility(cfg: RunConfig) -> ResultTable:
    params = cfg.spin_params()
    table = ResultTable(
        columns=["b", "gamma_e_b", "chi_perp_numeric", "chi_perp_analytic",
                 "chi_d", "chi_perp_vanvleck"],
        units=["tesla", "hz", "1", "1", "1", "1"],
        meta=_base_meta(cfg, "susceptibility"))
    values = cfg.sweep_values()
    rhos = steady_state_batch(params, np.outer(values, [0.0, 0.0, 1.0]))
    for b, rho in zip(values, rhos):
        chi_n = susceptibility_numeric(params, b)
        chi_a = susceptibility_analytic(params, b)
        pops = (rho[2, 2].real, rho[1, 1].real, rho[0, 0].real)
        try:
            chi_vv = susceptibility_van_vleck(params, pops, b)
        except SingularDetuningError:
            chi_vv = float("nan")
        gamma_b_hz = params.gyromagnetic_ratio * b / (2.0 * np.pi)
        table.add_row(float(b), gamma_b_hz, chi_n.chi_perp, chi_a.chi_perp,
                      chi_a.chi_d, chi_vv)
    return table


def cmd_equilibrium(cfg: RunConfig) -> ResultTable:
    params = cfg.spin_params()
    orientation = cfg.orientation()
    trap = cfg.trap()
    classes = cfg.classes()
    table = ResultTable(
        columns=["b", "theta", "stability", "torque_residual", "bound"],
        units=["tesla", "rad", "1", "newton_meter", "bool"],
        meta=_base_meta(cfg, "equilibrium"))
    warm = None
    for b in cfg.sweep_values():
        res = equilibrium_angle(params, orientation, trap,
                                _field_lab(cfg, magnitude=float(b)),
                                warm_start=warm, classes=classes)
        if res.bound:
            warm = res.theta
        table.add_row(float(b), res.theta, res.stability, res.torque_residual,
                      res.bound)
    return table


def cmd_rotation(cfg: RunConfig) -> ResultTable:
    params = cfg.spin_params()
    table = ResultTable(
        columns=["theta_b", "theta", "theta_control", "bound"],
        units=["rad", "rad", "rad", "bool"],
        meta=_base_meta(cfg, "rotation"))
    points = field_rotation_sweep(
        params, cfg.orientation(), cfg.trap(),
        cfg.get("field", "magnitude_tesla"), cfg.sweep_values(),
        classes=cfg.classes())
    for p in points:
        table.add_row(p.theta_b, p.theta, p.theta_control, p.bound)
    return table


def cmd_mdmr(cfg: RunConfig) -> ResultTable:
    params = cfg.spin_params()
    orientation = cfg.orientation()
    trap = cfg.trap()
    drive = cfg.microwave_drive()
    classes = cfg.classes()
    b_lab = _field_lab(cfg)
    table = ResultTable(
        columns=["frequency", "theta", "delta_theta", "converged", "direction"],
        units=["hz", "rad", "rad", "bool", "updown"],
        meta=_base_meta(cfg, "mdmr"))
    if len(drive.frequencies) == 0:
        return table
    if cfg.get("mdmr", "hysteresis"):
        up, down = hysteresis_pair(params, orientation, trap, b_lab, drive,
                                   classes=classes)
        spectra = [(up, "up"), (down, "down")]
    else:
        spectra = [(mdmr_scan(params, orientation, trap, b_lab, drive,
                              classes=classes), drive.direction)]
    table.meta["baseline_theta_rad"] = repr(spectra[0][0].baseline_theta)
    for ic, lines in enumerate(spectra[0][0].class_lines_hz):
        table.meta[f"class{classes[ic]}_lines_hz"] = " ".join(repr(float(nu)) for nu in lines)
    for spectrum, direction in spectra:
        for p in spectrum.points:
            table.add_row(p.frequency_hz, p.theta, p.delta_theta, p.converged,
                          direction)
    return table


def cmd_landscape(cfg: RunConfig) -> ResultTable:
    params = cfg.spin_params()
    g = lambda k: cfg.get("landscape", k)
    theta_steps, phi_steps = g("theta_steps"), g("phi_steps")
    table = ResultTable(
        columns=["theta", "phi", "energy"],
        units=["rad", "rad", "joule"],
        meta=_base_meta(cfg, "landscape"))
    if theta_steps <= 0 or phi_steps <= 0:
        return table
    thetas = np.linspace(g("theta_min_rad"), g("theta_max_rad"), theta_steps)
    phis = np.linspace(g("phi_min_rad"), g("phi_max_rad"), phi_steps)
    # the library takes increasing grids; the config allows any bounds
    (theta_grid, rows), (phi_grid, cols) = (np.unique(v, return_inverse=True)
                                            for v in (thetas, phis))
    landscape = magnetic_energy_landscape(
        params, cfg.orientation(), FieldVector(0.0, 0.0, cfg.get("field", "magnitude_tesla")),
        theta_grid, phi_grid, classes=cfg.classes(),
        tracked_class=cfg.get("crystal", "tracked_class"))
    for phi, j in zip(phis, cols):
        for theta, i in zip(thetas, rows):
            table.add_row(float(theta), float(phi), float(landscape.energy[i, j]))
    return table


def cmd_libration(cfg: RunConfig) -> ResultTable:
    params = cfg.spin_params()
    orientation = cfg.orientation()
    trap = cfg.trap()
    classes = cfg.classes()
    variable = cfg.get("libration", "variable")
    if variable not in ("field", "pump_rate"):
        raise ConfigError(f"libration.variable must be 'field' or 'pump_rate', "
                          f"got {variable!r}")
    table = ResultTable(
        columns=[("b" if variable == "field" else "pump_rate"),
                 "omega_numeric", "omega_analytic", "theta_star", "stable"],
        units=[("tesla" if variable == "field" else "per_s"),
               "rad_per_s", "rad_per_s", "rad", "bool"],
        meta=_base_meta(cfg, "libration"))
    for v in cfg.sweep_values():
        p, b_lab = ((params, _field_lab(cfg, magnitude=float(v))) if variable == "field"
                    else (params.with_(pump_rate=float(v)), _field_lab(cfg)))
        res = librational_frequency(p, orientation, trap, b_lab, classes=classes)
        table.add_row(float(v), res.omega_numeric, res.omega_analytic,
                      res.theta_star, res.stable)
    return table


def cmd_invert(cfg: RunConfig) -> ResultTable:
    params = cfg.spin_params()
    g = lambda k: cfg.get("invert", k)
    width = g("linewidth_hz") or None
    table = ResultTable(
        columns=["nu_minus", "nu_plus", "theta", "b", "theta_err", "b_err",
                 "residual"],
        units=["hz", "hz", "rad", "tesla", "rad", "tesla", "hz"],
        meta=_base_meta(cfg, "invert"))
    try:
        pair = TransitionPair(nu_minus=g("nu_minus_hz"), nu_plus=g("nu_plus_hz"),
                              linewidth_minus=width, linewidth_plus=width)
        est = invert_angle_field(params, pair,
                                 theta_range=(0.0, g("theta_max_rad")),
                                 b_range=(0.0, g("b_max_tesla")))
    except ValueError as exc:
        raise ConfigError(f"invert: {exc}") from exc
    table.add_row(pair.nu_minus, pair.nu_plus, est.theta, est.b,
                  est.theta_err, est.b_err, est.residual)
    return table


def cmd_critical_field(cfg: RunConfig) -> ResultTable:
    params = cfg.spin_params()
    values = cfg.sweep_values()
    table = ResultTable(
        columns=["b_critical"], units=["tesla"],
        meta=_base_meta(cfg, "critical-field"))
    if values.size == 0:
        return table
    b_range = ((float(values.min()), float(values.max()))
               if values.size >= 2 else (0.09, 0.2))
    bc = critical_field(params, cfg.orientation(), cfg.trap(), b_range=b_range,
                        classes=cfg.classes())
    table.add_row(bc)
    return table


COMMANDS = {
    "susceptibility": cmd_susceptibility,
    "equilibrium": cmd_equilibrium,
    "rotation": cmd_rotation,
    "mdmr": cmd_mdmr,
    "landscape": cmd_landscape,
    "libration": cmd_libration,
    "invert": cmd_invert,
    "critical-field": cmd_critical_field,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argument problems are validation errors under the exit-code contract
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nvspinmech",
                     description="NV spin-magnetism and angle-locking sweeps")
    parser.add_argument("--version", action="version",
                        version=f"nvspinmech {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config path")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="override a config key")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(path=args.config, overrides=args.overrides)
    except (ConfigError, OSError) as exc:
        print(f"nvspinmech: config error: {exc}", file=sys.stderr)
        return 1
    try:
        table = COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"nvspinmech: config error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"nvspinmech: numerical failure: {exc}", file=sys.stderr)
        return 2
    text = table.emit()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
