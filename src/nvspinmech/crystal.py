"""Geometry of the four [111] NV orientation classes and frame transforms.

The crystal frame carries the four N-V axes along the cube diagonals
(1,1,1), (1,-1,-1), (-1,1,-1), (-1,-1,1) normalized; any two of them make
the tetrahedral angle arccos(-1/3) ~ 109.47 degrees.  A CrystalOrientation
is the proper rotation mapping crystal coordinates into the lab.

Class 0 is the tracked axis: :func:`angular_state` gives the tilt theta
of the field from it and the azimuth phi around it, measured from the
fixed crystal-frame reference :func:`transverse_reference`.  The torques
of ``mechanics`` use one NV frame per class fixed in the crystal (z the
axis, x along that reference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import FieldVector

NV_AXES = np.array([
    [1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
]) / np.sqrt(3.0)

TETRAHEDRAL_ANGLE = float(np.arccos(-1.0 / 3.0))

_ORTHO_TOL = 1e-12


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"rotation axis must be a unit vector, |axis| = {n!r}")
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


@dataclass(frozen=True)
class CrystalOrientation:
    """Proper rotation taking crystal-frame vectors into the lab frame."""

    rotation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        if r.shape != (3, 3):
            raise ValueError("rotation must be a 3x3 matrix")
        if np.max(np.abs(r @ r.T - np.eye(3))) > _ORTHO_TOL:
            raise ValueError("rotation is not orthogonal")
        if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation must be proper (det +1)")
        object.__setattr__(self, "rotation", r)

    @classmethod
    def identity(cls) -> "CrystalOrientation":
        return cls(np.eye(3))

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "CrystalOrientation":
        return cls(rotation_about(axis, angle))

    def axis_lab(self, class_index: int) -> np.ndarray:
        """Unit vector of one NV class in the lab frame."""
        return self.rotation @ NV_AXES[_check_class(class_index)]

    def to_crystal(self, v_lab) -> np.ndarray:
        return self.rotation.T @ np.asarray(v_lab, dtype=float)

    def to_lab(self, v_crystal) -> np.ndarray:
        return self.rotation @ np.asarray(v_crystal, dtype=float)


def _check_class(class_index: int) -> int:
    if class_index not in (0, 1, 2, 3):
        raise ValueError(f"class index must be 0..3, got {class_index!r}")
    return class_index


def transverse_reference(axis_crystal) -> np.ndarray:
    """Fixed crystal-frame unit vector perpendicular to an NV axis.

    Used when the field is along the axis and its transverse projection is
    degenerate, and to anchor the azimuth phi = 0 direction.
    """
    axis = np.asarray(axis_crystal, dtype=float)
    # project the neighbor cube diagonal; for class 0 this gives (2,-1,-1)/sqrt(6)
    seed = NV_AXES[1] if abs(axis @ NV_AXES[1]) < 0.99 else NV_AXES[2]
    ref = seed - (seed @ axis) * axis
    return ref / np.linalg.norm(ref)


# the azimuth reference pair of the tracked (class 0) axis
_XREF0 = transverse_reference(NV_AXES[0])
_YREF0 = np.cross(NV_AXES[0], _XREF0)


@dataclass(frozen=True)
class AngularState:
    """Orientation of the tracked NV axis relative to the field.

    theta: tilt of the tracked axis away from the field direction, rad.
    phi: azimuth of the field around the tracked axis, measured from the
        crystal-frame transverse reference; phi = 0 at the gimbal-degenerate
        point theta = 0.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.theta, self.phi])):
            raise ValueError("angles must be finite")
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")
        phi = float(np.mod(self.phi, 2.0 * np.pi))
        object.__setattr__(self, "phi", 0.0 if self.theta == 0.0 else phi)


def angular_state(orientation: CrystalOrientation, b_lab: FieldVector) -> AngularState:
    """Angles (theta, phi) of the field relative to the tracked (class 0) axis."""
    b = b_lab.require_frame("lab").as_array()
    bmag = np.linalg.norm(b)
    if bmag == 0.0:
        return AngularState(theta=0.0, phi=0.0)
    bc = orientation.to_crystal(b) / bmag
    axis = NV_AXES[0]
    ct = float(np.clip(bc @ axis, -1.0, 1.0))
    theta = float(np.arccos(ct))
    perp = bc - ct * axis
    if np.linalg.norm(perp) < 1e-15:
        phi = 0.0
    else:
        phi = float(np.arctan2(perp @ _YREF0, perp @ _XREF0)) % (2.0 * np.pi)
    return AngularState(theta=theta, phi=phi)
