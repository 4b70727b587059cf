"""Geometry of the four [111] NV orientation classes and frame transforms.

The crystal frame carries the four N-V axes along the cube diagonals
(1,1,1), (1,-1,-1), (-1,1,-1), (-1,-1,1) normalized; any two of them make
the tetrahedral angle arccos(-1/3) ~ 109.47 degrees.  A CrystalOrientation
is the proper rotation mapping crystal coordinates into the lab.

Per NV class, the local frame puts z along that class's axis and x along
the projection of the applied field onto the transverse plane (so small
transverse probes lie along local x); when the field is axial, a fixed
crystal-frame reference replaces the degenerate projection.
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

    @property
    def axes_lab(self) -> np.ndarray:
        """All four NV axes as rows, lab frame."""
        return (self.rotation @ NV_AXES.T).T

    def to_crystal(self, v_lab) -> np.ndarray:
        return self.rotation.T @ np.asarray(v_lab, dtype=float)

    def to_lab(self, v_crystal) -> np.ndarray:
        return self.rotation @ np.asarray(v_crystal, dtype=float)


def _check_class(class_index: int) -> int:
    if class_index not in (0, 1, 2, 3):
        raise ValueError(f"class index must be 0..3, got {class_index!r}")
    return class_index


def rotate_about_axis(orientation: CrystalOrientation, dtheta: float,
                      axis) -> CrystalOrientation:
    """Rigid rotation of the whole crystal about a lab-frame unit axis.

    All four NV classes move together; composition of rotations composes
    the orientation.
    """
    return CrystalOrientation(rotation_about(axis, dtheta) @ orientation.rotation)


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


def nv_frame_matrix(orientation: CrystalOrientation, class_index: int,
                    b_lab) -> np.ndarray:
    """Rows (x, y, z) of the NV local frame expressed in lab coordinates.

    z is the class axis; x is the normalized transverse projection of the
    field (or the fixed reference for an axial field); y completes the
    right-handed triad.
    """
    z = orientation.axis_lab(class_index)
    b = np.asarray(b_lab, dtype=float)
    perp = b - (b @ z) * z
    n = np.linalg.norm(perp)
    if n > 1e-15 * max(1.0, np.linalg.norm(b)):
        x = perp / n
    else:
        x = orientation.to_lab(transverse_reference(NV_AXES[_check_class(class_index)]))
    y = np.cross(z, x)
    return np.vstack([x, y, z])


def field_in_nv_frame(orientation: CrystalOrientation, class_index: int,
                      b_lab: FieldVector) -> FieldVector:
    """Express a lab-frame field in one class's NV frame."""
    b = b_lab.require_frame("lab").as_array()
    frame = nv_frame_matrix(orientation, class_index, b)
    return FieldVector.from_array(frame @ b, frame="nv")


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


def angular_state(orientation: CrystalOrientation, b_lab: FieldVector,
                  tracked_class: int = 0) -> AngularState:
    """Angles (theta, phi) of the field relative to the tracked NV class."""
    b = b_lab.require_frame("lab").as_array()
    bmag = np.linalg.norm(b)
    if bmag == 0.0:
        return AngularState(theta=0.0, phi=0.0)
    bc = orientation.to_crystal(b) / bmag
    axis = NV_AXES[_check_class(tracked_class)]
    ct = float(np.clip(bc @ axis, -1.0, 1.0))
    theta = float(np.arccos(ct))
    xref = transverse_reference(axis)
    yref = np.cross(axis, xref)
    perp = bc - ct * axis
    if np.linalg.norm(perp) < 1e-15:
        phi = 0.0
    else:
        phi = float(np.arctan2(perp @ yref, perp @ xref)) % (2.0 * np.pi)
    return AngularState(theta=theta, phi=phi)
