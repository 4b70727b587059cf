"""Run configuration: INI-style file with per-module sections.

Every physical key carries its unit in the name; frequencies are ordinary
frequencies in Hz and are converted to angular rates at this boundary, so
no 2*pi ambiguity survives into the model layer.  Unknown sections or keys
are rejected by name.  ``--set section.key=value`` overrides individual
entries.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field

import numpy as np

from .crystal import _check_classes
from .params import MicrowaveDrive, SpinParams, TrapModel

TWO_PI = 2.0 * np.pi


class ConfigError(ValueError):
    """Configuration file or override is invalid."""


# section -> key -> (type tag, default) ; types: f float, i int, b bool,
# s string, list comma-separated floats
SCHEMA = {
    "spin": {
        "zero_field_splitting_hz": ("f", 2.87e9),
        "gyromagnetic_ratio_hz_per_tesla": ("f", 28.024e9),
        "longitudinal_rate_per_s": ("f", 2.0e3),
        "dephasing_rate_hz": ("f", 5.0e6),
        "pump_rate_per_s": ("f", 1.0e6),
        "density_per_m3": ("f", 1.76e23),
        "n_spins_per_class": ("f", 2.5e8),
    },
    "trap": {
        "moment_of_inertia_kg_m2": ("f", 1.0e-22),
        "trap_frequency_hz": ("f", 500.0),
        "trap_angle_rad": ("f", 0.05235987755982988),  # 3 degrees
    },
    "field": {
        "magnitude_tesla": ("f", 0.13),
    },
    "sweep": {
        "start": ("f", 0.005),
        "stop": ("f", 0.2),
        "steps": ("i", 40),
        "direction": ("s", "up"),
        "values": ("list", ()),
    },
    "mdmr": {
        "rabi_rate_hz": ("f", 1.0e6),
        "frequency_start_hz": ("f", 2.0e9),
        "frequency_stop_hz": ("f", 4.0e9),
        "frequency_steps": ("i", 101),
        "direction": ("s", "up"),
        "hysteresis": ("b", False),
    },
    "landscape": {
        "theta_min_rad": ("f", -1.0),
        "theta_max_rad": ("f", 1.0),
        "theta_steps": ("i", 21),
        "phi_min_rad": ("f", 0.0),
        "phi_max_rad": ("f", 6.283185307179586),
        "phi_steps": ("i", 9),
    },
    "libration": {
        "variable": ("s", "field"),  # "field" or "pump_rate"
    },
    "invert": {
        "nu_minus_hz": ("f", 2.226e9),
        "nu_plus_hz": ("f", 3.514e9),
        "linewidth_hz": ("f", 0.0),
        "theta_max_rad": ("f", 1.5707963267948966),
        "b_max_tesla": ("f", 0.3),
    },
    "run": {
        "classes": ("s", "all"),  # "all", "tracked" (class 0), or e.g. "0,1"
    },
}


@dataclass
class RunConfig:
    """Validated configuration; raw values keyed as (section, key)."""

    values: dict = field(default_factory=dict)

    @property
    def sha256(self) -> str:
        canonical = "\n".join(
            f"{s}.{k}={self.values[(s, k)]!r}" for s, k in sorted(self.values))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def get(self, section: str, key: str):
        return self.values[(section, key)]

    # --- model object builders -------------------------------------------

    def spin_params(self) -> SpinParams:
        g = lambda k: self.get("spin", k)
        return SpinParams(
            zero_field_splitting=TWO_PI * g("zero_field_splitting_hz"),
            gyromagnetic_ratio=TWO_PI * g("gyromagnetic_ratio_hz_per_tesla"),
            gamma1=g("longitudinal_rate_per_s"),
            gamma2_star=TWO_PI * g("dephasing_rate_hz"),
            pump_rate=g("pump_rate_per_s"),
            density=g("density_per_m3"),
            n_spins_per_class=g("n_spins_per_class"),
        )

    def trap(self) -> TrapModel:
        return TrapModel(
            moment_of_inertia=self.get("trap", "moment_of_inertia_kg_m2"),
            trap_frequency=TWO_PI * self.get("trap", "trap_frequency_hz"),
            theta0=self.get("trap", "trap_angle_rad"),
        )

    def sweep_values(self) -> np.ndarray:
        expl = self.get("sweep", "values")
        if len(expl) > 0:
            vals = np.asarray(expl, dtype=float)
        else:
            steps = self.get("sweep", "steps")
            if steps <= 0:
                return np.array([])
            vals = np.linspace(self.get("sweep", "start"),
                               self.get("sweep", "stop"), steps)
        if self.get("sweep", "direction") == "down":
            vals = vals[::-1]
        return vals

    def microwave_drive(self) -> MicrowaveDrive:
        g = lambda k: self.get("mdmr", k)
        steps = g("frequency_steps")
        freqs = np.linspace(g("frequency_start_hz"), g("frequency_stop_hz"),
                            steps) if steps > 0 else np.array([])
        if g("direction") == "down":
            freqs = freqs[::-1]
        return MicrowaveDrive(
            rabi_rate=TWO_PI * g("rabi_rate_hz"),
            frequencies=tuple(freqs.tolist()),
            direction=g("direction"),
        )

    def classes(self) -> tuple:
        spec = self.get("run", "classes")
        if spec == "all":
            return (0, 1, 2, 3)
        if spec == "tracked":
            return (0,)
        try:
            classes = tuple(int(tok) for tok in spec.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"run.classes: cannot parse {spec!r}") from exc
        try:
            return _check_classes(classes)
        except ValueError as exc:
            raise ConfigError(f"run.classes: {exc}") from exc


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _parse_value(section: str, key: str, raw: str):
    kind, _ = SCHEMA[section][key]
    raw = raw.strip()
    try:
        if kind == "f":
            return _finite(raw)
        if kind == "i":
            return int(raw)
        if kind == "b":
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "list":
            if not raw:
                return ()
            return tuple(_finite(tok) for tok in raw.split(","))
        return raw
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def load_config(text: str | None = None, path: str | None = None,
                overrides: list | None = None) -> RunConfig:
    """Parse, validate and apply overrides; unknown keys are named in errors."""
    if text is None and path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    text = text or ""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    values = {(s, k): default for s, keys in SCHEMA.items()
              for k, (_, default) in keys.items()}
    for section in parser.sections():
        if section not in SCHEMA:
            keys = ", ".join(parser.options(section))
            raise ConfigError(f"unknown section [{section}]"
                              + (f" (keys {keys})" if keys else ""))
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[(section, key)] = _parse_value(section, key, raw)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        section, key = dotted.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown override target {dotted!r}")
        values[(section, key)] = _parse_value(section, key, raw)
    direction = values[("sweep", "direction")]
    if direction not in ("up", "down"):
        raise ConfigError(f"sweep.direction must be 'up' or 'down', got {direction!r}")
    cfg = RunConfig(values=values)
    # construction of the model objects doubles as cross-field validation
    try:
        cfg.spin_params()
        cfg.trap()
        cfg.microwave_drive()
        cfg.classes()
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg
