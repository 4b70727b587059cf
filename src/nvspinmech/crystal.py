"""Geometry of the four [111] NV orientation classes.

The crystal frame carries the four N-V axes along the cube diagonals
(1,1,1), (1,-1,-1), (-1,1,-1), (-1,-1,1) normalized; any two of them make
the tetrahedral angle arccos(-1/3) ~ 109.47 degrees.  A CrystalOrientation
is the proper rotation mapping crystal coordinates into the lab.

Class 0 is the tracked axis.  ``mechanics`` projects fields onto one NV
frame per class fixed in the crystal (z the axis, x and y built from
:func:`transverse_reference`) before turning them into the in-plane
frame of each field, and measures the azimuth phi in the class-0 rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NV_AXES = np.array([
    [1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
]) / np.sqrt(3.0)

TETRAHEDRAL_ANGLE = float(np.arccos(-1.0 / 3.0))

_ORTHO_TOL = 1e-12


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

    def axis_lab(self, class_index: int) -> np.ndarray:
        """Unit vector of one NV class in the lab frame."""
        return self.rotation @ NV_AXES[_check_classes((class_index,))[0]]

    def to_crystal(self, v_lab) -> np.ndarray:
        return self.rotation.T @ np.asarray(v_lab, dtype=float)


def _check_classes(classes) -> tuple:
    """``classes`` as a tuple; ValueError, naming it, unless it names
    distinct orientation classes of 0..3, at least one."""
    classes = tuple(classes)
    if not classes or len(set(classes)) < len(classes) or not set(classes) <= {0, 1, 2, 3}:
        raise ValueError(f"classes must be distinct, each a class index of 0..3, got {classes!r}")
    return classes


def transverse_reference(axis_crystal) -> np.ndarray:
    """Fixed crystal-frame unit vector perpendicular to an NV axis.

    The NV frames of ``mechanics`` are built from it: y = axis x reference,
    x = y x axis.
    """
    axis = np.asarray(axis_crystal, dtype=float)
    # project the neighbor cube diagonal; for class 0 this gives (2,-1,-1)/sqrt(6)
    seed = NV_AXES[1] if abs(axis @ NV_AXES[1]) < 0.99 else NV_AXES[2]
    ref = seed - (seed @ axis) * axis
    return ref / np.linalg.norm(ref)

