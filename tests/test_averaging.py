"""Center/rotation averaging from per-anchor relative-pose observations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    chordal_l2_mean,
    compose_absolute,
    consistent_observations,
    observation_rows,
    observation_stack,
    per_observation_govindu_rotation,
    per_observation_locus_ray,
    per_observation_translation_average,
    per_ray_center_average,
    per_rotation_markley,
    per_rotation_quat,
    proper_signed_permutations,
    random_pose,
    random_rotation,
    random_unit,
    rot_z,
    stable_geodesic_deg,
    with_relative,
)

from mvloc import (
    AmbiguousAverageError,
    DegenerateGeometryError,
    InsufficientDataError,
    ObservationStack,
    Pose,
    RelativePoseEstimate,
    center_average,
    geodesic_angle,
    govindu_rotation_average,
    govindu_translation_average,
    markley_rotation_average,
)
from mvloc.simulate import NoiseSpec, SceneConfig, generate_scene, synthesize_observations
from mvloc.geometry import rotations_to_quats, rotvec_to_rotation

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def markley(rotations):
    """markley_rotation_average of a list of rotation matrices."""
    return markley_rotation_average(rotations_to_quats(np.array(rotations)))


def ray_center(stack):
    return center_average(stack.centers, stack.ray_directions).center


def one_observation(anchor, rel):
    return observation_stack(["a"], [anchor], [rel.rotation], [rel.direction])


# ---------------------------------------------------------------- fixtures


@pytest.fixture
def clean_set(rng):
    return consistent_observations(rng, 6)


# --------------------------------------------------------------- locus rays


class TestLocusRay:
    def test_identity_frames(self):
        obs = one_observation(Pose(np.eye(3), np.zeros(3)), RelativePoseEstimate(np.eye(3), Z))
        np.testing.assert_allclose(obs.centers[0], np.zeros(3))
        # backward direction of (I, z) is -z
        np.testing.assert_allclose(obs.ray_directions[0], -Z)

    def test_ray_leaves_the_anchor_center_along_the_backward_direction(self):
        # anchor at c_k = (0,0,3); (I, -x) reverses to t_kq = x, so the ray
        # leaves that center along x
        anchor = Pose(np.eye(3), np.array([0.0, 0.0, -3.0]))
        obs = one_observation(anchor, RelativePoseEstimate(np.eye(3), -X))
        np.testing.assert_allclose(obs.centers[0], [0.0, 0.0, 3.0], atol=1e-15)
        np.testing.assert_allclose(obs.ray_directions[0], X, atol=1e-15)

    def test_composed_centers_lie_on_ray(self, rng):
        for _ in range(25):
            anchor = random_pose(rng)
            rel = RelativePoseEstimate(random_rotation(rng), random_unit(rng))
            obs = one_observation(anchor, rel)
            origin, direction = obs.centers[0], obs.ray_directions[0]
            for lam in (0.3, 1.0, 4.2):
                center = compose_absolute(rel, lam, anchor).center()
                offset = center - origin
                dist = np.linalg.norm(offset - (offset @ direction) * direction)
                assert dist < 1e-10

    def test_center_pathway_ignores_relative_rotation(self, rng):
        # replacing R_qk while holding the backward direction fixed moves
        # the locus ray by float noise only
        for _ in range(25):
            anchor = random_pose(rng)
            rel = RelativePoseEstimate(random_rotation(rng), random_unit(rng))
            obs = one_observation(anchor, rel)
            t_kq = -rel.rotation.T @ rel.direction
            swapped_rot = random_rotation(rng)
            swapped = with_relative(obs, [swapped_rot], [-swapped_rot @ t_kq])
            np.testing.assert_allclose(swapped.centers, obs.centers, atol=1e-15)
            np.testing.assert_allclose(swapped.ray_directions, obs.ray_directions, atol=1e-12)


# ----------------------------------------------------------- center average


class TestCenterAverage:
    def test_two_intersecting_rays(self):
        sol = center_average(np.array([np.zeros(3), [1.0, 1.0, 0.0]]), np.array([X, -Y]))
        np.testing.assert_allclose(sol.center, [1.0, 0.0, 0.0], atol=1e-12)
        assert sol.residual_rms < 1e-12

    def test_two_skew_rays_hit_perpendicular_midpoint(self):
        # feet of the common perpendicular: (0,0,0) and (0,0,1)
        sol = center_average(np.array([np.zeros(3), [0.0, 1.0, 1.0]]), np.array([X, Y]))
        np.testing.assert_allclose(sol.center, [0.0, 0.0, 0.5], atol=1e-12)

    def test_consistent_rays_recover_point(self, rng):
        target = rng.uniform(-2.0, 2.0, size=3)
        origins, dirs = [], []
        for _ in range(10):
            origin = rng.uniform(-5.0, 5.0, size=3)
            d = target - origin
            origins.append(origin)
            dirs.append(d / np.linalg.norm(d))
        sol = center_average(np.array(origins), np.array(dirs))
        np.testing.assert_allclose(sol.center, target, atol=1e-9)

    def test_single_ray_rejected(self):
        with pytest.raises(InsufficientDataError):
            center_average(np.zeros((1, 3)), X[None])

    def test_parallel_rays_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            center_average(np.array([np.zeros(3), X]), np.array([Z, Z]))

    def test_order_and_duplication_invariance(self, rng):
        target = rng.uniform(-2.0, 2.0, size=3)
        origins, dirs = [], []
        for _ in range(7):
            origin = rng.uniform(-5.0, 5.0, size=3)
            d = target - origin + rng.normal(scale=1e-3, size=3)
            origins.append(origin)
            dirs.append(d / np.linalg.norm(d))
        origins, dirs = np.array(origins), np.array(dirs)
        base = center_average(origins, dirs).center
        shuffled = center_average(origins[::-1], dirs[::-1]).center
        doubled = center_average(np.vstack([origins, origins]), np.vstack([dirs, dirs])).center
        np.testing.assert_allclose(shuffled, base, atol=1e-12)
        np.testing.assert_allclose(doubled, base, atol=1e-12)

    def test_solution_is_a_local_minimum(self, rng):
        def objective(point, origins, dirs):
            total = 0.0
            for origin, direction in zip(origins, dirs):
                off = point - origin
                total += off @ off - (off @ direction) ** 2
            return total

        for _ in range(10):
            target = rng.uniform(-2.0, 2.0, size=3)
            origins, dirs = [], []
            for _ in range(6):
                origin = rng.uniform(-5.0, 5.0, size=3)
                d = target - origin + rng.normal(scale=5e-2, size=3)
                origins.append(origin)
                dirs.append(d / np.linalg.norm(d))
            rays = np.array(origins), np.array(dirs)
            sol = center_average(*rays)
            at_sol = objective(sol.center, *rays)
            for axis in range(3):
                for sign in (-1.0, 1.0):
                    shifted = sol.center.copy()
                    shifted[axis] += sign * 1e-4
                    assert objective(shifted, *rays) >= at_sol


# ----------------------------------------------------- translation averaging


class TestGovinduTranslation:
    def test_zero_noise_recovery(self, clean_set):
        obs, query = clean_set
        t = govindu_translation_average(obs)
        np.testing.assert_allclose(t, query.translation, atol=1e-8)

    def test_matches_dense_normal_equations(self, rng):
        # independent unweighted oracle for the stacked cross-product system
        obs, query = consistent_observations(rng, 2)
        rows = []
        rhs = []
        for _, translation, rel_rotation, rel_direction in observation_rows(obs):
            r_kq = rel_rotation.T
            t_kq = -rel_rotation.T @ rel_direction
            cross = np.array(
                [
                    [0.0, -t_kq[2], t_kq[1]],
                    [t_kq[2], 0.0, -t_kq[0]],
                    [-t_kq[1], t_kq[0], 0.0],
                ]
            )
            rows.append(cross @ r_kq)
            rhs.append(cross @ translation)
        oracle, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
        t = govindu_translation_average(obs)
        np.testing.assert_allclose(t, oracle, atol=1e-8)
        np.testing.assert_allclose(t, query.translation, atol=1e-8)

    def test_agrees_with_center_average_at_zero_noise(self, clean_set):
        obs, query = clean_set
        t = govindu_translation_average(obs)
        np.testing.assert_allclose(t, -query.rotation @ ray_center(obs), atol=1e-8)

    def test_requires_two_observations(self, clean_set):
        obs, _ = clean_set
        with pytest.raises(InsufficientDataError):
            govindu_translation_average(obs.take([0]))


# ------------------------------------------------- generated observation sets

SEEDS = st.integers(0, 2**31 - 2)
LAYOUTS = st.sampled_from(["ring", "line"])
SIGMAS_DEG = st.one_of(st.just(0.0), st.floats(0.0, 10.0))


def generated_observations(seed, k, layout, sig_rot, sig_dir):
    scene = generate_scene(SceneConfig(n_anchors=k, layout=layout), seed=seed)
    noise = NoiseSpec(sigma_rot_deg=sig_rot, sigma_dir_deg=sig_dir)
    return synthesize_observations(scene, noise, np.random.default_rng(seed))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=SEEDS, k=st.integers(2, 150), layout=LAYOUTS, sig_rot=SIGMAS_DEG, sig_dir=SIGMAS_DEG)
def test_translation_average_matches_per_observation_residuals(seed, k, layout, sig_rot, sig_dir):
    # the stacked system and IRLS residual norms round as the per-observation
    # blocks and norms did
    obs = generated_observations(seed, k, layout, sig_rot, sig_dir)
    np.testing.assert_array_equal(
        govindu_translation_average(obs), per_observation_translation_average(obs)
    )


class TestObservationStack:
    """The stack's rows and the averages that read them give the bits of
    the one-observation code and of sums accumulated in input order."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=SEEDS, k=st.integers(2, 150), layout=LAYOUTS, sig_rot=SIGMAS_DEG, sig_dir=SIGMAS_DEG)
    def test_rows_are_the_per_observation_geometry(self, seed, k, layout, sig_rot, sig_dir):
        stack = generated_observations(seed, k, layout, sig_rot, sig_dir)
        rows = list(observation_rows(stack))
        rays = [per_observation_locus_ray(*row) for row in rows]
        chained = [rel_rotation @ rotation for rotation, _, rel_rotation, _ in rows]
        expected = {
            "centers": np.array([origin for origin, _ in rays]),
            "ray_directions": np.array([direction for _, direction in rays]),
            "chained_rotations": np.array(chained),
            "quats": np.array([per_rotation_quat(r) for r in chained]),
        }
        for name, value in expected.items():
            assert getattr(stack, name).tobytes() == value.tobytes(), name

        def fresh(order):
            arrays = (stack.anchor_rotations, stack.anchor_translations, stack.rel_rotations,
                      stack.rel_directions)
            return ObservationStack([stack.anchor_ids[i] for i in order],
                                    *(rows[order] for rows in arrays))

        # rows taken keep what was built, and build the rest alike
        order = np.random.default_rng(seed).permutation(k)[: max(2, k // 2)]
        taken = stack.take(order)
        assert taken.anchor_ids == fresh(order).anchor_ids == tuple(order.tolist())
        for name, value in expected.items():
            assert getattr(taken, name).tobytes() == value[order].tobytes(), name
            assert getattr(fresh(order), name).tobytes() == value[order].tobytes(), name
        one = np.array([0])
        assert fresh(one).ray_directions.tobytes() == expected["ray_directions"][one].tobytes()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=SEEDS, k=st.integers(2, 150), layout=LAYOUTS, sig_rot=SIGMAS_DEG, sig_dir=SIGMAS_DEG)
    def test_averages_are_the_per_object_loops(self, seed, k, layout, sig_rot, sig_dir):
        stack = generated_observations(seed, k, layout, sig_rot, sig_dir)
        rows = list(observation_rows(stack))
        center, condition, rms = per_ray_center_average(
            [per_observation_locus_ray(*row) for row in rows]
        )
        solution = center_average(stack.centers, stack.ray_directions)
        assert solution.center.tobytes() == center.tobytes()
        assert (solution.condition, solution.residual_rms) == (condition, rms)
        expected = per_rotation_markley([rel_r @ r for r, _, rel_r, _ in rows])
        assert markley_rotation_average(stack.quats).tobytes() == expected.tobytes()
        assert govindu_rotation_average(stack).tobytes() == (
            per_observation_govindu_rotation(stack).tobytes()
        )


class TestDecouplingOnGeneratedSets:
    """Bit-level decoupling over generated observation sets: the center
    reads the relative rotations only through the anchor-frame direction,
    and the rotation never reads the directions."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=SEEDS, k=st.integers(2, 60), layout=LAYOUTS, sig_rot=SIGMAS_DEG, sig_dir=SIGMAS_DEG)
    def test_center_ignores_the_relative_rotations(self, seed, k, layout, sig_rot, sig_dir):
        obs = generated_observations(seed, k, layout, sig_rot, sig_dir)
        baseline = ray_center(obs)
        # signed permutations carry the anchor-frame direction t_kq exactly
        perms = proper_signed_permutations()
        rng = np.random.default_rng(seed)
        backward = [-r.T @ d for r, d in zip(obs.rel_rotations, obs.rel_directions)]
        rotations = [perms[int(rng.integers(len(perms)))] for _ in backward]
        swapped = with_relative(obs, rotations, [-p @ t_kq for p, t_kq in zip(rotations, backward)])
        assert all(
            not np.array_equal(a, b) for a, b in zip(swapped.rel_rotations, obs.rel_rotations)
        )
        np.testing.assert_array_equal(ray_center(swapped), baseline)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=SEEDS, k=st.integers(2, 60), layout=LAYOUTS, sig_rot=SIGMAS_DEG, sig_dir=SIGMAS_DEG)
    def test_rotation_ignores_the_directions(self, seed, k, layout, sig_rot, sig_dir):
        obs = generated_observations(seed, k, layout, sig_rot, sig_dir)
        baseline = markley_rotation_average(obs.quats)
        rng = np.random.default_rng(seed)
        swapped = with_relative(obs, obs.rel_rotations, [random_unit(rng) for _ in range(k)])
        assert all(
            not np.array_equal(a, b) for a, b in zip(swapped.rel_directions, obs.rel_directions)
        )
        np.testing.assert_array_equal(markley_rotation_average(swapped.quats), baseline)


# -------------------------------------------------------- rotation averaging


class TestGovinduRotation:
    def test_single_observation_chains_exactly(self, rng):
        obs, query = consistent_observations(rng, 1)
        r = govindu_rotation_average(obs)
        np.testing.assert_allclose(r, obs.rel_rotations[0] @ obs.anchor_rotations[0], atol=1e-12)

    def test_consistent_set_recovers_query_rotation(self, clean_set):
        obs, query = clean_set
        r = govindu_rotation_average(obs)
        assert geodesic_angle(r, query.rotation) < 1e-9

    def test_close_to_markley_under_small_noise(self, rng):
        obs, query = consistent_observations(rng, 3)
        wobbled = [
            rotvec_to_rotation(np.deg2rad(2.0) * rng.normal(size=3)) @ r for r in obs.rel_rotations
        ]
        noisy = with_relative(obs, wobbled, obs.rel_directions)
        gov = govindu_rotation_average(noisy)
        mark = markley_rotation_average(noisy.quats)
        assert geodesic_angle(gov, mark) < 2.0


class TestMarkley:
    def test_identical_inputs(self, rng):
        r = random_rotation(rng)
        np.testing.assert_allclose(markley([r] * 5), r, atol=1e-12)

    def test_symmetric_pair_averages_to_identity(self):
        avg = markley([rot_z(40.0), rot_z(-40.0)])
        np.testing.assert_allclose(avg, np.eye(3), atol=1e-12)

    def test_eigen_and_projection_formulations_agree(self, rng):
        for _ in range(20):
            base = random_rotation(rng)
            rotations = [
                rotvec_to_rotation(np.deg2rad(5.0) * rng.normal(size=3)) @ base
                for _ in range(8)
            ]
            eig = markley(rotations)
            proj = chordal_l2_mean(rotations)
            assert stable_geodesic_deg(eig, proj) < 1e-8

    def test_beats_random_quaternions(self, rng):
        from mvloc.geometry import quat_to_rotation

        base = random_rotation(rng)
        rotations = [
            rotvec_to_rotation(np.deg2rad(10.0) * rng.normal(size=3)) @ base
            for _ in range(6)
        ]
        avg = markley(rotations)

        def objective(r):
            return sum(np.linalg.norm(r - a, "fro") ** 2 for a in rotations)

        best = objective(avg)
        for _ in range(200):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            assert best <= objective(quat_to_rotation(q)) + 1e-12

    def test_opposed_half_turns_are_ambiguous(self):
        from conftest import rot_x

        with pytest.raises(AmbiguousAverageError):
            markley([np.eye(3), rot_x(180.0)])

    def test_rotation_pathway_never_reads_directions(self, rng):
        obs, _ = consistent_observations(rng, 5)
        swapped = with_relative(obs, obs.rel_rotations, [random_unit(rng) for _ in range(5)])
        a = markley_rotation_average(obs.quats)
        b = markley_rotation_average(swapped.quats)
        np.testing.assert_array_equal(a, b)


# ------------------------------------------------------------------- guards


def test_duplicate_anchor_ids_rejected(rng):
    obs, _ = consistent_observations(rng, 3)
    with pytest.raises(ValueError, match="duplicate anchor_id 'a1'"):
        with_relative(obs, obs.rel_rotations, obs.rel_directions, anchor_ids=["a0", "a1", "a1"])
