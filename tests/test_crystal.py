"""Geometry of the four orientation classes and the azimuth of the tilt."""

import re

import numpy as np
import pytest

from nvspinmech import (NV_AXES, TETRAHEDRAL_ANGLE, CrystalOrientation, FieldVector, TiltGeometry,
                        TrapModel, equilibrium_angle, tilt_geometry, tilt_torque_batch)
from nvspinmech.cli import main
from nvspinmech.mechanics import _CLASS_FRAMES, _class_fields, _torque_scale, axial_field

DEG = np.pi / 180.0
EPS = np.finfo(float).eps

# (x, y, z) -> (y, z, x): the 120 degree turn about [111], exact in integers
CYCLIC = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def random_rotation(rng) -> np.ndarray:
    """A proper rotation from the QR decomposition of a normal matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0.0 else -q


def sample_orientations(seed):
    rng = np.random.default_rng(seed)
    return [CrystalOrientation.identity(), CrystalOrientation(CYCLIC),
            CrystalOrientation(random_rotation(rng)), CrystalOrientation(random_rotation(rng))]


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
        # 120 degrees about the class 0 axis fixes it and maps the other
        # three onto each other, 1 -> 3 -> 2 -> 1, exactly
        mapped = CrystalOrientation(CYCLIC).axis_lab
        assert np.array_equal(mapped(0), NV_AXES[0])
        for c, image in ((1, 3), (3, 2), (2, 1)):
            assert np.array_equal(mapped(c), NV_AXES[image])

    @pytest.mark.parametrize("b_mag", [0.02, 0.13, 0.2])
    def test_four_class_torque_has_the_three_fold_symmetry(self, params, b_mag):
        # the turn about the tracked axis permutes the other three classes,
        # so the four-class torque repeats when the azimuth advances 2 pi/3
        thetas = np.array([0.0, 0.3, 1.0, 2.0])
        for phi in (0.0, 0.4, 2.5):
            taus = [tilt_torque_batch(params, TiltGeometry(b_mag=b_mag, phi=p), thetas)
                    for p in (phi, phi + 2.0 * np.pi / 3.0)]
            assert np.max(np.abs(taus[0] - taus[1])) <= 1e-12 * _torque_scale(params, b_mag)


class TestOrientation:
    def test_rejects_improper_rotation(self):
        with pytest.raises(ValueError, match="proper"):
            CrystalOrientation(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            CrystalOrientation(np.eye(3) + 1e-6)

    def test_full_turn_is_identity(self):
        # three 120 degree turns are a proper rotation that moves no class axis
        turned = CrystalOrientation(CYCLIC @ CYCLIC @ CYCLIC)
        assert np.array_equal(turned.rotation, np.eye(3))
        for c in range(4):
            assert np.array_equal(turned.axis_lab(c), NV_AXES[c])

    def test_rotation_composition(self):
        # two 120 degree turns are the 240 degree turn, the inverse of one
        once, twice = CrystalOrientation(CYCLIC), CrystalOrientation(CYCLIC @ CYCLIC)
        for c in range(4):
            assert np.array_equal(twice.axis_lab(c), CYCLIC @ once.axis_lab(c))
        assert np.array_equal(twice.rotation, CYCLIC.T)

    def test_inverse_round_trip(self):
        # to_crystal undoes the rotation that axis_lab applies
        for ori in sample_orientations(7):
            for c in range(4):
                assert np.allclose(ori.to_crystal(ori.axis_lab(c)), NV_AXES[c],
                                   rtol=0.0, atol=4 * EPS)


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
        ori = CrystalOrientation(CYCLIC)
        for frame in _CLASS_FRAMES:
            assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-12)
        for _ in range(10):
            vec = rng.normal(scale=0.2, size=3)
            assert np.array_equal(ori.to_crystal(ori.rotation @ vec), vec)
            b_nv = _class_fields(ori.to_crystal(vec)[None])[:, 0]
            assert np.allclose(np.linalg.norm(b_nv, axis=1), np.linalg.norm(vec), rtol=1e-12)

    def test_class_index_validated(self):
        with pytest.raises(ValueError, match="class index"):
            CrystalOrientation.identity().axis_lab(4)


BAD_CLASS_SETS = [(), (0, 0), (1, 2, 1), (4,), (-1,), (0, 5)]


@pytest.mark.parametrize("classes", BAD_CLASS_SETS, ids=str)
def test_one_class_set_rule(capsys, params, orientation, classes):
    # crystal decides which class sets are valid; the CLI, the library and
    # a single class index all reject by that rule, naming the bad value
    spec = ",".join(map(str, classes))
    assert main(["equilibrium", "--set", f"run.classes={spec}", "--set", "sweep.steps=2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nvspinmech: config error: run.classes") and repr(classes) in err, err
    with pytest.raises(ValueError, match=re.escape(repr(classes))):
        equilibrium_angle(params, orientation, TrapModel(), axial_field(orientation, 0.1),
                          classes=classes)
    for index in set(classes) - {0, 1, 2, 3}:
        with pytest.raises(ValueError, match=re.escape(repr((index,)))):
            orientation.axis_lab(index)


class TestConstantTiltFrame:
    """tilt_geometry is the one place the azimuth of a lab field is decided,
    in the class-0 frame rows that TiltGeometry builds its field from."""

    def test_field_rebuilt_from_the_angles_is_the_crystal_field(self):
        rng = np.random.default_rng(4)
        fields = [0.1 * NV_AXES[0], -0.07 * NV_AXES[0], 0.13 * NV_AXES[2],
                  *rng.normal(scale=0.1, size=(200, 3))]
        for ori in sample_orientations(4):
            for b in fields:
                geom = tilt_geometry(ori, FieldVector.from_array(b, frame="lab"))
                assert 0.0 <= geom.phi < 2.0 * np.pi
                bc = ori.to_crystal(b)
                theta = np.arctan2(np.linalg.norm(np.cross(NV_AXES[0], bc)), NV_AXES[0] @ bc)
                rebuilt = geom.field_and_derivative(theta)[0, 0]
                assert np.max(np.abs(rebuilt - bc)) <= 8 * EPS * np.linalg.norm(b), (ori, b)

    def test_phi_is_zero_where_the_azimuth_is_degenerate(self):
        # zero field, either sign of the axis, a tilt that rounds to 0, the CLI fields
        for ori in sample_orientations(6):
            assert tilt_geometry(ori, FieldVector(0.0, 0.0, 0.0)).phi == 0.0
            for b in (1e-3, 0.1, -0.07, 0.3):
                b_lab = FieldVector.from_array(b * ori.axis_lab(0), frame="lab")
                assert tilt_geometry(ori, b_lab).phi == 0.0, (ori, b)
            # tilted by 1e-9 rad: cos(theta) rounds to 1, so theta to 0
            for row in _CLASS_FRAMES[0, :2]:
                nudged = ori.rotation @ (NV_AXES[0] + 1e-9 * row)
                assert tilt_geometry(ori, FieldVector.from_array(0.1 * nudged)).phi == 0.0
        # the CLI's crystal is unrotated and its field lies along the tracked axis
        cli = CrystalOrientation.identity()
        for b in np.linspace(1e-3, 0.3, 3000):
            assert tilt_geometry(cli, axial_field(cli, float(b))).phi == 0.0, b
