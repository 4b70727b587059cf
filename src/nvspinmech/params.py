"""Parameter containers: spin ensemble, magnetic field, trap and microwave drive."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import constants as c


@dataclass(frozen=True)
class SpinParams:
    """Physical constants and rates of one NV orientation class.

    Attributes:
        zero_field_splitting: crystal-field splitting between m_s=0 and
            m_s=+-1, angular frequency (rad/s).
        gyromagnetic_ratio: electron gyromagnetic ratio, rad/(s T),
            positive convention.
        gamma1: longitudinal relaxation rate coupling each m_s=+-1
            population to m_s=0, 1/s.
        gamma2_star: dephasing rate of every coherence, rad/s.
        pump_rate: optical pumping rate from m_s=+-1 into m_s=0, 1/s.
            May be zero (dark ensemble).  The channel moves populations
            only and does not damp coherences, so steady states with a
            strong transverse field turn non-positive once pump_rate
            approaches or exceeds gamma2_star (see ``spincore``).
        density: NV number density of this orientation class, 1/m^3.
        n_spins_per_class: spin count per orientation class, used for
            torque and energy totals.
    """

    zero_field_splitting: float = c.ZERO_FIELD_SPLITTING
    gyromagnetic_ratio: float = c.GYROMAGNETIC_RATIO
    gamma1: float = 2.0e3
    gamma2_star: float = 2.0 * np.pi * 5.0e6
    pump_rate: float = 1.0e6
    density: float = c.PPM_DENSITY
    n_spins_per_class: float = 2.5e8

    def __post_init__(self):
        for name in ("zero_field_splitting", "gyromagnetic_ratio", "gamma1",
                     "gamma2_star"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        for name in ("pump_rate", "density", "n_spins_per_class"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")

    @property
    def pumping_factor(self) -> float:
        """Polarization factor pump/(3*gamma1 + pump), in [0, 1)."""
        return self.pump_rate / (3.0 * self.gamma1 + self.pump_rate)

    def with_(self, **changes) -> "SpinParams":
        """Copy with selected fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class FieldVector:
    """Magnetic field vector in the lab frame.

    ``frame`` must be "lab": NV-frame fields are plain arrays, which is
    what ``spincore`` and ``mdmr`` take.
    """

    bx: float
    by: float
    bz: float
    frame: str = "lab"

    def __post_init__(self):
        if self.frame != "lab":
            raise ValueError(f"a FieldVector is a lab-frame field, got frame {self.frame!r}")
        if not np.all(np.isfinite([self.bx, self.by, self.bz])):
            raise ValueError("field components must be finite")

    @classmethod
    def from_array(cls, b, frame: str = "lab") -> "FieldVector":
        b = np.asarray(b, dtype=float)
        return cls(float(b[0]), float(b[1]), float(b[2]), frame)

    def as_array(self) -> np.ndarray:
        return np.array([self.bx, self.by, self.bz])

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.as_array()))


@dataclass(frozen=True)
class TrapModel:
    """Harmonic angular confinement of the levitated particle.

    The trap exerts the restoring torque -stiffness*(theta - theta0) on the
    tilt angle theta of the tracked NV axis away from the field.
    """

    moment_of_inertia: float = 1.0e-22  # kg m^2
    trap_frequency: float = 2.0 * np.pi * 500.0  # rad/s
    theta0: float = 0.0  # rad

    def __post_init__(self):
        if not np.isfinite(self.moment_of_inertia) or self.moment_of_inertia <= 0.0:
            raise ValueError("moment_of_inertia must be finite and > 0")
        if not np.isfinite(self.trap_frequency) or self.trap_frequency < 0.0:
            raise ValueError("trap_frequency must be finite and >= 0")
        if not np.isfinite(self.theta0):
            raise ValueError("theta0 must be finite")

    @property
    def stiffness(self) -> float:
        """Angular stiffness I*omega^2 (N m / rad)."""
        return self.moment_of_inertia * self.trap_frequency**2


@dataclass(frozen=True)
class MicrowaveDrive:
    """Microwave sweep specification for mechanically detected resonance scans.

    Attributes:
        rabi_rate: drive strength Omega_R, rad/s; sets the incoherent
            population transfer rate Omega_R^2/2 * L(detuning).
        frequencies: sweep frequencies in Hz, strictly monotone in the
            direction given by ``direction``.
        direction: "up" (increasing) or "down" (decreasing).

    The response Lorentzian's width is the dephasing rate
    ``SpinParams.gamma2_star``.
    """

    rabi_rate: float
    frequencies: tuple = field(default=())
    direction: str = "up"

    def __post_init__(self):
        if not np.isfinite(self.rabi_rate) or self.rabi_rate < 0.0:
            raise ValueError("rabi_rate must be finite and >= 0")
        if self.direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {self.direction!r}")
        freqs = np.asarray(self.frequencies, dtype=float)
        if not np.all(np.isfinite(freqs)):
            raise ValueError("sweep frequencies must be finite")
        object.__setattr__(self, "frequencies", tuple(freqs.tolist()))
        if freqs.size >= 2:
            diffs = np.diff(freqs)
            if self.direction == "up" and not np.all(diffs > 0):
                raise ValueError("up sweep must be strictly increasing")
            if self.direction == "down" and not np.all(diffs < 0):
                raise ValueError("down sweep must be strictly decreasing")

    def reversed(self) -> "MicrowaveDrive":
        """Same sweep traversed in the opposite direction."""
        return replace(self, frequencies=tuple(reversed(self.frequencies)),
                       direction="down" if self.direction == "up" else "up")
