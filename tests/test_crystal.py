"""Geometry of the four orientation classes and frame transforms."""

import numpy as np
import pytest

from nvspinmech import (NV_AXES, TETRAHEDRAL_ANGLE, AngularState,
                        CrystalOrientation, FieldVector, angular_state, tilt_geometry)
from nvspinmech.crystal import transverse_reference
from nvspinmech.mechanics import _CLASS_FRAMES, _class_fields

DEG = np.pi / 180.0


class TestAxes:
    def test_unit_norm(self):
        assert np.allclose(np.linalg.norm(NV_AXES, axis=1), 1.0, atol=1e-15)

    def test_pairwise_tetrahedral_angle(self):
        for i in range(4):
            for j in range(i + 1, 4):
                cos = NV_AXES[i] @ NV_AXES[j]
                assert cos == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert TETRAHEDRAL_ANGLE == pytest.approx(109.47 * DEG, abs=1e-3)

    def test_tetrahedral_symmetry_permutes_axes(self):
        # 120 degrees about any axis maps the other three onto each other
        rot = CrystalOrientation.from_axis_angle(NV_AXES[0], 2 * np.pi / 3)
        mapped = (rot.rotation @ NV_AXES.T).T
        for axis in mapped:
            match = np.max(NV_AXES @ axis)
            assert match == pytest.approx(1.0, abs=1e-12)


class TestOrientation:
    def test_rejects_improper_rotation(self):
        with pytest.raises(ValueError, match="proper"):
            CrystalOrientation(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            CrystalOrientation(np.eye(3) + 1e-6)

    def test_full_turn_is_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            turned = CrystalOrientation.from_axis_angle(axis, 2.0 * np.pi)
            assert np.allclose(turned.rotation, np.eye(3), atol=1e-12)

    def test_rotation_composition(self):
        axis = np.array([0.0, 0.0, 1.0])
        a = CrystalOrientation.from_axis_angle(axis, 0.3)
        b = CrystalOrientation.from_axis_angle(axis, 0.5).rotation @ a.rotation
        direct = CrystalOrientation.from_axis_angle(axis, 0.8)
        assert np.allclose(b, direct.rotation, atol=1e-13)

    def test_inverse_round_trip(self):
        axis = np.array([1.0, 0.0, 0.0])
        fwd = CrystalOrientation.from_axis_angle(axis, 0.7)
        back = CrystalOrientation.from_axis_angle(axis, -0.7).rotation @ fwd.rotation
        assert np.allclose(back, np.eye(3), atol=1e-13)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError, match="unit"):
            CrystalOrientation.from_axis_angle((1.0, 1.0, 0.0), 0.1)


class TestFieldTransforms:
    """The NV frames of the torque model: one per class, fixed in the crystal."""

    def test_aligned_class_sees_axial_field(self):
        bx, by, bz = _class_fields(0.1 * NV_AXES[0][None], (0,))[0, 0]
        assert bz == pytest.approx(0.1, rel=1e-14)
        assert abs(bx) < 1e-16 and abs(by) < 1e-16

    def test_other_class_sees_tetrahedral_projection(self):
        bx, by, bz = _class_fields(0.09 * NV_AXES[0][None], (1,))[0, 0]
        assert bz == pytest.approx(-0.03, rel=1e-12)  # |B| cos(109.47deg)
        assert np.hypot(bx, by) == pytest.approx(0.09 * np.sqrt(1 - 1/9), rel=1e-12)

    def test_round_trip_preserves_vector(self):
        rng = np.random.default_rng(5)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        ori = CrystalOrientation.from_axis_angle(axis, 0.9)
        for frame in _CLASS_FRAMES:
            assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-12)
        for _ in range(10):
            vec = rng.normal(scale=0.2, size=3)
            b_nv = _class_fields(ori.to_crystal(vec)[None])[:, 0]
            assert np.allclose(np.linalg.norm(b_nv, axis=1), np.linalg.norm(vec), rtol=1e-12)

    def test_class_index_validated(self):
        with pytest.raises(ValueError, match="class index"):
            CrystalOrientation.identity().axis_lab(4)


class TestAngularState:
    def test_ranges_enforced(self):
        with pytest.raises(ValueError):
            AngularState(theta=-0.1)
        with pytest.raises(ValueError):
            AngularState(theta=3.5)
        s = AngularState(theta=0.3, phi=7.0)
        assert 0.0 <= s.phi < 2.0 * np.pi

    def test_gimbal_degenerate_azimuth(self):
        s = AngularState(theta=0.0, phi=1.2)
        assert s.phi == 0.0

    def test_derived_from_field(self):
        ori = CrystalOrientation.identity()
        b = FieldVector.from_array(0.1 * NV_AXES[0], frame="lab")
        s = angular_state(ori, b)
        assert s.theta == pytest.approx(0.0, abs=1e-8)
        # tilt toward another class raises theta to the tetrahedral angle
        s1 = angular_state(ori, FieldVector.from_array(0.1 * NV_AXES[1], "lab"))
        assert s1.theta == pytest.approx(TETRAHEDRAL_ANGLE, rel=1e-12)


def per_call_phi(orientation, b_lab) -> float:
    """The azimuth with the reference pair rebuilt on every call."""
    b = b_lab.as_array()
    bmag = np.linalg.norm(b)
    if bmag == 0.0:
        return 0.0
    bc = orientation.to_crystal(b) / bmag
    axis = NV_AXES[0]
    ct = float(np.clip(bc @ axis, -1.0, 1.0))
    xref = transverse_reference(axis)
    yref = np.cross(axis, xref)
    perp = bc - ct * axis
    if np.linalg.norm(perp) < 1e-15:
        return 0.0
    return float(np.arctan2(perp @ yref, perp @ xref)) % (2.0 * np.pi)


class TestConstantTiltFrame:
    """The class-0 reference pair is a module constant: every azimuth is
    bitwise that of the pair rebuilt per call."""

    def test_phi_is_the_per_call_route(self):
        rng = np.random.default_rng(4)
        rotated = CrystalOrientation.from_axis_angle([0.0, 0.6, 0.8], 0.9)
        fields = [np.zeros(3), 0.1 * NV_AXES[0], -0.07 * NV_AXES[0], 0.13 * NV_AXES[2],
                  *rng.normal(scale=0.1, size=(40, 3))]
        for orientation in (CrystalOrientation.identity(), rotated):
            for b in fields:
                b_lab = FieldVector.from_array(b, frame="lab")
                phi = tilt_geometry(orientation, b_lab).phi
                assert np.float64(phi).tobytes() == np.float64(
                    AngularState(theta=angular_state(orientation, b_lab).theta,
                                 phi=per_call_phi(orientation, b_lab)).phi).tobytes(), b
