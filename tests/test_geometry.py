"""Pose algebra, quaternion conversions, and projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    compose_absolute,
    invert_relative,
    one_pair_relative_pose,
    per_quat_canonical,
    per_rotation_quat,
    proper_signed_permutations,
    random_pose,
    random_rotation,
    random_unit,
    rot_x,
    rot_z,
    unproject,
)

from mvloc import (
    InvalidRotationError,
    Pose,
    RelativePoseEstimate,
    geodesic_angle,
    quat_to_rotation,
)
from mvloc.simulate import _project
from mvloc.geometry import (
    DegenerateGeometryError,
    canonicalize_quat,
    canonicalize_quats,
    ensure_rotation,
    poses_to_quats,
    ray_pair_midpoints,
    rotations_to_quats,
    rotvec_to_rotation,
    unit,
    unit_rows,
)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])


# -------------------------------------------------------------------- poses


class TestPose:
    def test_center_inverts_translation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pose = random_pose(rng)
            # R c + T = 0 by definition of the center
            np.testing.assert_allclose(
                pose.rotation @ pose.center() + pose.translation,
                np.zeros(3),
                atol=1e-9,
            )

    def test_values_are_immutable(self):
        pose = Pose(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            pose.rotation[0, 0] = 2.0

    def test_equality_and_hash(self):
        a = Pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        b = Pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert a == b
        assert hash(a) == hash(b)

    def test_rejects_reflection(self):
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidRotationError):
            Pose(flip, np.zeros(3))


class TestEnsureRotation:
    def test_repairs_small_drift(self):
        drifted = rot_z(30.0) + 1e-8
        fixed = ensure_rotation(drifted)
        np.testing.assert_allclose(fixed @ fixed.T, np.eye(3), atol=1e-12)

    def test_large_error_rejected_even_when_lenient(self):
        with pytest.raises(InvalidRotationError):
            ensure_rotation(np.eye(3) * 1.5)


# ------------------------------------------------------------ relative pose


class TestComposeAbsolute:
    def test_identity_chaining(self):
        rel = RelativePoseEstimate(np.eye(3), Z)
        pose = compose_absolute(rel, 1.0, Pose(np.eye(3), np.zeros(3)))
        np.testing.assert_allclose(pose.rotation, np.eye(3))
        np.testing.assert_allclose(pose.translation, [0.0, 0.0, 1.0])

    def test_hand_evaluated_chaining(self):
        # R_z(90) * (1,0,0) + 2 * (1,0,0) = (0,1,0) + (2,0,0) = (2,1,0)
        rel = RelativePoseEstimate(rot_z(90.0), X)
        pose = compose_absolute(rel, 2.0, Pose(np.eye(3), np.array([1.0, 0.0, 0.0])))
        np.testing.assert_allclose(pose.rotation, rot_z(90.0), atol=1e-15)
        np.testing.assert_allclose(pose.translation, [2.0, 1.0, 0.0], atol=1e-15)

    def test_invert_then_compose_recovers_anchor(self, rng):
        for _ in range(20):
            anchor = random_pose(rng)
            query = random_pose(rng)
            rel = one_pair_relative_pose(query, anchor)
            scale = np.linalg.norm(
                query.translation - rel.rotation @ anchor.translation
            )
            back = invert_relative(rel)
            back_scale = np.linalg.norm(
                anchor.translation - back.rotation @ query.translation
            )
            recovered = compose_absolute(
                back, back_scale, compose_absolute(rel, scale, anchor)
            )
            np.testing.assert_allclose(recovered.rotation, anchor.rotation, atol=1e-12)
            np.testing.assert_allclose(
                recovered.translation, anchor.translation, atol=1e-12
            )

    def test_nonpositive_scale_rejected(self):
        rel = RelativePoseEstimate(np.eye(3), Z)
        anchor = Pose(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            compose_absolute(rel, 0.0, anchor)
        with pytest.raises(ValueError):
            compose_absolute(rel, -1.0, anchor)

    def test_chaining_matches_direct_point_transform(self):
        # Transporting a point through the composed pose must equal the
        # two-hop route through the anchor frame.
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            anchor = random_pose(rng)
            rel = RelativePoseEstimate(random_rotation(rng), random_unit(rng))
            scale = rng.uniform(0.1, 5.0)
            composed = compose_absolute(rel, scale, anchor)
            point = rng.uniform(-4.0, 4.0, size=3)
            hop = rel.rotation @ (anchor.rotation @ point + anchor.translation)
            hop += scale * rel.direction
            direct = composed.rotation @ point + composed.translation
            worst = max(worst, np.abs(direct - hop).max())
        assert worst < 1e-10


class TestInvertRelative:
    def test_identity_rotation(self):
        inv = invert_relative(RelativePoseEstimate(np.eye(3), Z))
        np.testing.assert_allclose(inv.rotation, np.eye(3))
        np.testing.assert_allclose(inv.direction, -Z)

    def test_hand_evaluated_inverse(self):
        inv = invert_relative(RelativePoseEstimate(rot_x(30.0), Y))
        np.testing.assert_allclose(inv.rotation, rot_x(-30.0), atol=1e-15)
        np.testing.assert_allclose(inv.direction, -rot_x(-30.0) @ Y, atol=1e-15)

    def test_involution(self, rng):
        for _ in range(50):
            rel = RelativePoseEstimate(random_rotation(rng), random_unit(rng))
            twice = invert_relative(invert_relative(rel))
            np.testing.assert_allclose(twice.rotation, rel.rotation, atol=1e-15)
            np.testing.assert_allclose(twice.direction, rel.direction, atol=1e-15)

    def test_direction_is_normalized_on_construction(self):
        rel = RelativePoseEstimate(np.eye(3), np.array([0.0, 0.0, 2.0]))
        np.testing.assert_allclose(np.linalg.norm(rel.direction), 1.0, atol=1e-15)


# --------------------------------------------------------------- projection


class TestProject:
    """``simulate._project``, the stacked projection of the synthesis."""

    @staticmethod
    def identity_camera(point):
        feats, depths = _project(np.array([point], dtype=float), np.eye(3)[None], np.zeros((1, 3)))
        return feats[0, 0], depths[0, 0]

    def test_on_axis_point(self):
        feat, depth = self.identity_camera([0.0, 0.0, 5.0])
        np.testing.assert_allclose(feat, [0.0, 0.0])
        assert depth == 5.0

    def test_direct_division(self):
        feat, depth = self.identity_camera([1.0, 2.0, 2.0])
        np.testing.assert_allclose(feat, [0.5, 1.0])
        assert depth == 2.0

    def test_behind_camera_has_negative_depth(self):
        assert self.identity_camera([0.0, 0.0, -1.0])[1] == -1.0

    def test_unproject_reproduces_point(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pose = random_pose(rng)
            # sample a point in front of the camera at a known depth
            depth = rng.uniform(0.5, 10.0)
            feat = rng.uniform(-0.8, 0.8, size=2)
            point = unproject(pose, feat, depth)
            feats, depths = _project(point[None], pose.rotation[None], pose.translation[None])
            np.testing.assert_allclose(feats[0, 0], feat, atol=1e-9)
            np.testing.assert_allclose(depths[0, 0], depth, atol=1e-9)


# -------------------------------------------------------------- quaternions


class TestQuaternions:
    def test_identity_quaternion(self):
        np.testing.assert_allclose(
            quat_to_rotation(np.array([1.0, 0.0, 0.0, 0.0])), np.eye(3)
        )

    def test_half_angle_about_x(self):
        h = np.cos(np.pi / 4.0)
        q = np.array([h, np.sin(np.pi / 4.0), 0.0, 0.0])
        np.testing.assert_allclose(quat_to_rotation(q), rot_x(90.0), atol=1e-15)

    def test_round_trip_is_tight(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(1000):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            q = canonicalize_quat(q)
            back = rotations_to_quats(quat_to_rotation(q)[None])[0]
            worst = max(worst, np.abs(back - q).max())
        assert worst < 1e-12

    def test_non_unit_quaternion_rejected(self):
        with pytest.raises(ValueError):
            quat_to_rotation(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_canonicalization_is_idempotent(self, rng):
        for _ in range(50):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            once = canonicalize_quat(q)
            np.testing.assert_array_equal(canonicalize_quat(once), once)
            assert once[0] >= 0.0

    def test_canonicalization_tie_break(self):
        # zero scalar part: first nonzero component becomes positive
        q = np.array([0.0, -1.0, 0.0, 0.0])
        np.testing.assert_allclose(canonicalize_quat(q), [0.0, 1.0, 0.0, 0.0])

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_quat(np.zeros(4))


def shepperd_branch(m):
    """Which of Shepperd's four branches converts rotation ``m``."""
    if np.trace(m) > 0:
        return 0
    if m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        return 1
    return 2 if m[1, 1] >= m[2, 2] else 3


@st.composite
def rotation_stacks(draw):
    """(K, 3, 3) rotations: generic ones, ones within 1e-16..1e-2 rad of a
    half turn (Shepperd's branches 1-3), exact half turns and quarter turns
    about the axes, the identity, and some with up to 3e-10 of drift that
    the conversion re-projects."""
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["generic", "near_pi", "axes", "mixed"]))
    rng = np.random.default_rng(seed)
    axes = rng.normal(size=(k, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = {
        "generic": rng.uniform(0.0, np.pi, k),
        "near_pi": np.pi - 10.0 ** rng.uniform(-16, -2, k),
        "axes": np.full(k, np.pi),
        "mixed": rng.choice([0.0, np.pi / 2, np.pi, np.pi - 1e-9, 1e-12], k),
    }[kind]
    if kind == "axes":
        axes = np.eye(3)[rng.integers(0, 3, k)] * rng.choice([-1.0, 1.0], (k, 1))
    rotations = np.array([rotvec_to_rotation(a * w) for a, w in zip(angles, axes)])
    if draw(st.booleans()):
        rotations = rotations + rng.normal(scale=3e-10, size=rotations.shape)
    return rotations


class TestStackedQuaternions:
    """``rotations_to_quats`` against the per-rotation Shepperd of
    ``conftest.per_rotation_quat``, bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rotations=rotation_stacks())
    def test_rows_are_the_per_rotation_conversion(self, rotations):
        stacked = rotations_to_quats(rotations)
        expected = np.array([per_rotation_quat(m) for m in rotations])
        assert stacked.tobytes() == expected.tobytes()
        assert rotations_to_quats(rotations[:1]).tobytes() == expected[:1].tobytes()

    def test_every_branch_is_taken_and_matches(self):
        rng = np.random.default_rng(17)
        signed = proper_signed_permutations()
        near = [rotvec_to_rotation((np.pi - eps) * axis)
                for eps in (1e-15, 1e-9, 1e-4) for axis in np.eye(3)]
        rotations = np.array(signed + near + [random_rotation(rng) for _ in range(50)])
        branches = {shepperd_branch(ensure_rotation(m)) for m in rotations}
        assert branches == {0, 1, 2, 3}
        expected = np.array([per_rotation_quat(m) for m in rotations])
        assert rotations_to_quats(rotations).tobytes() == expected.tobytes()

    def test_invalid_row_raises_as_one_rotation_would(self):
        rotations = np.array([np.eye(3), np.diag([1.0, 1.0, -1.0])])
        with pytest.raises(InvalidRotationError):
            rotations_to_quats(rotations)
        with pytest.raises(InvalidRotationError):
            rotations_to_quats(rotations[1:])

    def test_canonical_rows(self):
        q = np.array([[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 2.0, -1.0], [-0.5, 0.5, 0.5, 0.5],
                      [0.0, 0.0, 0.0, 1.0], [-0.0, 0.0, -0.0, -3.0]])
        assert canonicalize_quats(q).tobytes() == np.array(
            [per_quat_canonical(row) for row in q]
        ).tobytes()

    def test_pose_keeps_the_quaternion_it_was_built_from(self):
        q = np.array([0.5, 0.5, 0.5, 0.5]) + np.array([1e-16, 0.0, 0.0, 0.0])
        pose = Pose.from_quaternion(q, [1.0, 2.0, 3.0])
        assert pose.quaternion().tobytes() == q.tobytes()
        assert pose.rotation.tobytes() == quat_to_rotation(q).tobytes()
        flipped = Pose.from_quaternion(-q, [1.0, 2.0, 3.0])
        assert flipped.quaternion().tobytes() == q.tobytes()
        built = Pose(pose.rotation, pose.translation)
        converted = rotations_to_quats(pose.rotation[None])[0]
        assert built.quaternion().tobytes() == converted.tobytes()
        assert poses_to_quats([built, pose]).tobytes() == np.array([converted, q]).tobytes()


class TestRotvec:
    def test_small_angle(self):
        r = rotvec_to_rotation(np.array([1e-9, 0.0, 0.0]))
        np.testing.assert_allclose(r, np.eye(3), atol=1e-8)

    def test_axis_angle_matches_matrix(self):
        r = rotvec_to_rotation(np.deg2rad(90.0) * Z)
        np.testing.assert_allclose(r, rot_z(90.0), atol=1e-15)


class TestUnitRows:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(*[st.floats(-1e3, 1e3, allow_nan=False)] * 3)
            | st.sampled_from([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.6, -0.8)]),
            min_size=1,
            max_size=30,
        )
    )
    def test_bitwise_equal_to_unit(self, rows):
        v = np.array(rows)
        try:
            expected = np.array([unit(row) for row in v])
        except DegenerateGeometryError:
            with pytest.raises(DegenerateGeometryError):
                unit_rows(v)
            return
        assert unit_rows(v).tobytes() == expected.tobytes()


# ------------------------------------------------------------------ metrics


class TestGeodesicAngle:
    def test_identity_pair(self):
        assert geodesic_angle(np.eye(3), np.eye(3)) == 0.0

    def test_quarter_turn(self):
        np.testing.assert_allclose(geodesic_angle(np.eye(3), rot_z(90.0)), 90.0)

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a = random_rotation(rng)
            b = random_rotation(rng)
            np.testing.assert_allclose(
                geodesic_angle(a, b), geodesic_angle(b, a), atol=1e-10
            )

    def test_range_is_clamped(self, rng):
        for _ in range(50):
            a = random_rotation(rng)
            angle = geodesic_angle(a, a)
            assert 0.0 <= angle <= 180.0


# --------------------------------------------------------------------- rays


def one_ray_pair(origin_a, dir_a, origin_b, dir_b):
    """(midpoint, degenerate) of one ray pair by ``ray_pair_midpoints``."""
    (midpoint,), (degenerate,) = ray_pair_midpoints(
        *(np.reshape(v, (1, 3)).astype(float) for v in (origin_a, dir_a, origin_b, dir_b))
    )
    return midpoint, degenerate


class TestRayPairMidpoint:
    def test_orthogonal_skew_rays(self):
        # Rays x-axis from origin and y-axis from (0,1,1): the common
        # perpendicular runs along z between (0,0,0) and (0,1,1) feet
        # (0,0,0)->(0,0,0) and (0,1,1)->(0,0,1): midpoint (0,0,0.5).
        mid, degenerate = one_ray_pair(np.zeros(3), X, [0.0, 1.0, 1.0], Y)
        np.testing.assert_allclose(mid, [0.0, 0.0, 0.5], atol=1e-12)
        assert not degenerate

    def test_shared_origin_rejected(self):
        assert one_ray_pair(np.zeros(3), X, np.zeros(3), Y)[1]

    def test_parallel_rays_rejected(self):
        assert one_ray_pair(np.zeros(3), X, [0.0, 1.0, 0.0], X)[1]
