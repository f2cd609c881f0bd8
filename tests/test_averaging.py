"""Center/rotation averaging from per-anchor relative-pose observations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    compose_absolute,
    consistent_observations,
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
)

from mvloc import (
    AnchorObservation,
    AmbiguousAverageError,
    DegenerateGeometryError,
    InsufficientDataError,
    Pose,
    Ray,
    RelativePoseEstimate,
    center_average,
    chordal_l2_mean,
    decoupled_pose,
    geodesic_angle,
    govindu_rotation_average,
    govindu_translation_average,
    locus_ray,
    markley_rotation_average,
    ray_from_backward_direction,
    relative_from_poses,
)
from mvloc.simulate import NoiseSpec, SceneConfig, generate_scene, synthesize_observations
from mvloc.averaging import ObservationStack, chained_rotation
from mvloc.geometry import rotvec_to_rotation

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------- fixtures


@pytest.fixture
def clean_set(rng):
    return consistent_observations(rng, 6)


# --------------------------------------------------------------- locus rays


class TestLocusRay:
    def test_identity_frames(self):
        obs = AnchorObservation(
            "a", Pose(np.eye(3), np.zeros(3)), RelativePoseEstimate(np.eye(3), Z)
        )
        ray = locus_ray(obs)
        np.testing.assert_allclose(ray.origin, np.zeros(3))
        # backward direction of (I, z) is -z
        np.testing.assert_allclose(ray.direction, -Z)

    def test_backward_direction_constructor(self):
        # anchor at c_k = (0,0,3); the ray leaves that center along x
        anchor = Pose(np.eye(3), np.array([0.0, 0.0, -3.0]))
        ray = ray_from_backward_direction(anchor, X)
        np.testing.assert_allclose(ray.origin, [0.0, 0.0, 3.0], atol=1e-15)
        np.testing.assert_allclose(ray.direction, X, atol=1e-15)

    def test_composed_centers_lie_on_ray(self, rng):
        for _ in range(25):
            anchor = random_pose(rng)
            rel = RelativePoseEstimate(random_rotation(rng), random_unit(rng))
            obs = AnchorObservation("a", anchor, rel)
            ray = locus_ray(obs)
            for lam in (0.3, 1.0, 4.2):
                center = compose_absolute(rel, lam, anchor).center()
                offset = center - ray.origin
                dist = np.linalg.norm(offset - (offset @ ray.direction) * ray.direction)
                assert dist < 1e-10

    def test_ray_requires_unit_direction(self):
        with pytest.raises(ValueError):
            Ray(np.zeros(3), np.array([0.0, 0.0, 2.0]))

    def test_center_pathway_ignores_relative_rotation(self, rng):
        # replacing R_qk while holding the backward direction fixed moves
        # the locus ray by float noise only
        for _ in range(25):
            anchor = random_pose(rng)
            rel = RelativePoseEstimate(random_rotation(rng), random_unit(rng))
            obs = AnchorObservation("a", anchor, rel)
            t_kq = -rel.rotation.T @ rel.direction
            swapped_rot = random_rotation(rng)
            swapped = AnchorObservation(
                "a", anchor, RelativePoseEstimate(swapped_rot, -swapped_rot @ t_kq)
            )
            ray_a = locus_ray(obs)
            ray_b = locus_ray(swapped)
            np.testing.assert_allclose(ray_b.origin, ray_a.origin, atol=1e-15)
            np.testing.assert_allclose(ray_b.direction, ray_a.direction, atol=1e-12)


# ----------------------------------------------------------- center average


class TestCenterAverage:
    def test_two_intersecting_rays(self):
        rays = [Ray(np.zeros(3), X), Ray(np.array([1.0, 1.0, 0.0]), -Y)]
        sol = center_average(rays)
        np.testing.assert_allclose(sol.center, [1.0, 0.0, 0.0], atol=1e-12)
        assert sol.residual_rms < 1e-12

    def test_two_skew_rays_hit_perpendicular_midpoint(self):
        # feet of the common perpendicular: (0,0,0) and (0,0,1)
        rays = [Ray(np.zeros(3), X), Ray(np.array([0.0, 1.0, 1.0]), Y)]
        sol = center_average(rays)
        np.testing.assert_allclose(sol.center, [0.0, 0.0, 0.5], atol=1e-12)

    def test_consistent_rays_recover_point(self, rng):
        target = rng.uniform(-2.0, 2.0, size=3)
        rays = []
        for _ in range(10):
            origin = rng.uniform(-5.0, 5.0, size=3)
            d = target - origin
            rays.append(Ray(origin, d / np.linalg.norm(d)))
        sol = center_average(rays)
        np.testing.assert_allclose(sol.center, target, atol=1e-9)

    def test_single_ray_rejected(self):
        with pytest.raises(InsufficientDataError):
            center_average([Ray(np.zeros(3), X)])

    def test_parallel_rays_degenerate(self):
        rays = [Ray(np.zeros(3), Z), Ray(np.array([1.0, 0.0, 0.0]), Z)]
        with pytest.raises(DegenerateGeometryError):
            center_average(rays)

    def test_order_and_duplication_invariance(self, rng):
        target = rng.uniform(-2.0, 2.0, size=3)
        rays = []
        for _ in range(7):
            origin = rng.uniform(-5.0, 5.0, size=3)
            d = target - origin + rng.normal(scale=1e-3, size=3)
            rays.append(Ray(origin, d / np.linalg.norm(d)))
        base = center_average(rays).center
        shuffled = center_average(rays[::-1]).center
        doubled = center_average(rays + rays).center
        np.testing.assert_allclose(shuffled, base, atol=1e-12)
        np.testing.assert_allclose(doubled, base, atol=1e-12)

    def test_solution_is_a_local_minimum(self, rng):
        def objective(point, rays):
            total = 0.0
            for ray in rays:
                off = point - ray.origin
                total += off @ off - (off @ ray.direction) ** 2
            return total

        for _ in range(10):
            target = rng.uniform(-2.0, 2.0, size=3)
            rays = []
            for _ in range(6):
                origin = rng.uniform(-5.0, 5.0, size=3)
                d = target - origin + rng.normal(scale=5e-2, size=3)
                rays.append(Ray(origin, d / np.linalg.norm(d)))
            sol = center_average(rays)
            at_sol = objective(sol.center, rays)
            for axis in range(3):
                for sign in (-1.0, 1.0):
                    shifted = sol.center.copy()
                    shifted[axis] += sign * 1e-4
                    assert objective(shifted, rays) >= at_sol


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
        for o in obs:
            r_kq = o.rel.rotation.T
            t_kq = -o.rel.rotation.T @ o.rel.direction
            cross = np.array(
                [
                    [0.0, -t_kq[2], t_kq[1]],
                    [t_kq[2], 0.0, -t_kq[0]],
                    [-t_kq[1], t_kq[0], 0.0],
                ]
            )
            rows.append(cross @ r_kq)
            rhs.append(cross @ o.anchor_pose.translation)
        oracle, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
        t = govindu_translation_average(obs)
        np.testing.assert_allclose(t, oracle, atol=1e-8)
        np.testing.assert_allclose(t, query.translation, atol=1e-8)

    def test_agrees_with_center_average_at_zero_noise(self, clean_set):
        obs, query = clean_set
        t = govindu_translation_average(obs)
        sol = center_average([locus_ray(o) for o in obs])
        np.testing.assert_allclose(t, -query.rotation @ sol.center, atol=1e-8)

    def test_requires_two_observations(self, clean_set):
        obs, _ = clean_set
        with pytest.raises(InsufficientDataError):
            govindu_translation_average(obs[:1])


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
        obs = generated_observations(seed, k, layout, sig_rot, sig_dir)
        stack = ObservationStack.of(obs)
        rays = [per_observation_locus_ray(o) for o in obs]
        chained = [o.rel.rotation @ o.anchor_pose.rotation for o in obs]
        expected = {
            "centers": np.array([ray.origin for ray in rays]),
            "ray_directions": np.array([ray.direction for ray in rays]),
            "chained_rotations": np.array(chained),
            "quats": np.array([per_rotation_quat(r) for r in chained]),
        }
        for name, value in expected.items():
            assert getattr(stack, name).tobytes() == value.tobytes(), name
        # rows taken keep what was built, and build the rest alike
        order = np.random.default_rng(seed).permutation(k)[: max(2, k // 2)]
        taken = stack.take(order)
        fresh = ObservationStack.of([obs[i] for i in order])
        assert taken.anchor_ids == fresh.anchor_ids == tuple(obs[i].anchor_id for i in order)
        for name, value in expected.items():
            assert getattr(taken, name).tobytes() == value[order].tobytes(), name
            assert getattr(fresh, name).tobytes() == value[order].tobytes(), name
        assert locus_ray(obs[0]).direction.tobytes() == rays[0].direction.tobytes()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=SEEDS, k=st.integers(2, 150), layout=LAYOUTS, sig_rot=SIGMAS_DEG, sig_dir=SIGMAS_DEG)
    def test_averages_are_the_per_object_loops(self, seed, k, layout, sig_rot, sig_dir):
        obs = generated_observations(seed, k, layout, sig_rot, sig_dir)
        stack = ObservationStack.of(obs)
        rays = [per_observation_locus_ray(o) for o in obs]
        center, condition, rms = per_ray_center_average(rays)
        for rays in (stack, [locus_ray(o) for o in obs]):
            solution = center_average(rays)
            assert solution.center.tobytes() == center.tobytes()
            assert (solution.condition, solution.residual_rms) == (condition, rms)
        expected = per_rotation_markley([chained_rotation(o) for o in obs])
        assert markley_rotation_average(stack).tobytes() == expected.tobytes()
        assert markley_rotation_average([chained_rotation(o) for o in obs]).tobytes() == (
            expected.tobytes()
        )
        assert govindu_rotation_average(stack).tobytes() == (
            per_observation_govindu_rotation(obs).tobytes()
        )
        assert decoupled_pose(stack) == decoupled_pose(obs)


class TestDecouplingOnGeneratedSets:
    """Bit-level decoupling over generated observation sets: the center
    reads the relative rotations only through the anchor-frame direction,
    and the rotation never reads the directions."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=SEEDS, k=st.integers(2, 60), layout=LAYOUTS, sig_rot=SIGMAS_DEG, sig_dir=SIGMAS_DEG)
    def test_center_ignores_the_relative_rotations(self, seed, k, layout, sig_rot, sig_dir):
        obs = generated_observations(seed, k, layout, sig_rot, sig_dir)
        baseline = center_average([locus_ray(o) for o in obs]).center
        # signed permutations carry the anchor-frame direction t_kq exactly
        perms = proper_signed_permutations()
        rng = np.random.default_rng(seed)
        swapped = []
        for o in obs:
            p = perms[int(rng.integers(len(perms)))]
            t_kq = -o.rel.rotation.T @ o.rel.direction
            swapped.append(
                AnchorObservation(o.anchor_id, o.anchor_pose, RelativePoseEstimate(p, -p @ t_kq))
            )
        assert all(not np.array_equal(s.rel.rotation, o.rel.rotation) for s, o in zip(swapped, obs))
        center = center_average([locus_ray(o) for o in swapped]).center
        np.testing.assert_array_equal(center, baseline)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=SEEDS, k=st.integers(2, 60), layout=LAYOUTS, sig_rot=SIGMAS_DEG, sig_dir=SIGMAS_DEG)
    def test_rotation_ignores_the_directions(self, seed, k, layout, sig_rot, sig_dir):
        obs = generated_observations(seed, k, layout, sig_rot, sig_dir)
        baseline = markley_rotation_average([chained_rotation(o) for o in obs])
        rng = np.random.default_rng(seed)
        swapped = [
            AnchorObservation(
                o.anchor_id, o.anchor_pose, RelativePoseEstimate(o.rel.rotation, random_unit(rng))
            )
            for o in obs
        ]
        assert all(not np.array_equal(s.rel.direction, o.rel.direction) for s, o in zip(swapped, obs))
        rotation = markley_rotation_average([chained_rotation(o) for o in swapped])
        np.testing.assert_array_equal(rotation, baseline)


# -------------------------------------------------------- rotation averaging


class TestGovinduRotation:
    def test_single_observation_chains_exactly(self, rng):
        obs, query = consistent_observations(rng, 1)
        r = govindu_rotation_average(obs)
        np.testing.assert_allclose(r, obs[0].rel.rotation @ obs[0].anchor_pose.rotation, atol=1e-12)

    def test_consistent_set_recovers_query_rotation(self, clean_set):
        obs, query = clean_set
        r = govindu_rotation_average(obs)
        assert geodesic_angle(r, query.rotation) < 1e-9

    def test_close_to_markley_under_small_noise(self, rng):
        obs, query = consistent_observations(rng, 3)
        noisy = []
        for o in obs:
            wobble = rotvec_to_rotation(np.deg2rad(2.0) * rng.normal(size=3))
            noisy.append(
                AnchorObservation(
                    o.anchor_id,
                    o.anchor_pose,
                    RelativePoseEstimate(wobble @ o.rel.rotation, o.rel.direction),
                )
            )
        gov = govindu_rotation_average(noisy)
        mark = markley_rotation_average([chained_rotation(o) for o in noisy])
        assert geodesic_angle(gov, mark) < 2.0


class TestMarkley:
    def test_identical_inputs(self, rng):
        r = random_rotation(rng)
        np.testing.assert_allclose(markley_rotation_average([r] * 5), r, atol=1e-12)

    def test_symmetric_pair_averages_to_identity(self):
        avg = markley_rotation_average([rot_z(40.0), rot_z(-40.0)])
        np.testing.assert_allclose(avg, np.eye(3), atol=1e-12)

    def test_eigen_and_projection_formulations_agree(self, rng):
        for _ in range(20):
            base = random_rotation(rng)
            rotations = [
                rotvec_to_rotation(np.deg2rad(5.0) * rng.normal(size=3)) @ base
                for _ in range(8)
            ]
            eig = markley_rotation_average(rotations)
            proj = chordal_l2_mean(rotations)
            assert stable_geodesic_deg(eig, proj) < 1e-8

    def test_beats_random_quaternions(self, rng):
        from mvloc.geometry import quat_to_rotation

        base = random_rotation(rng)
        rotations = [
            rotvec_to_rotation(np.deg2rad(10.0) * rng.normal(size=3)) @ base
            for _ in range(6)
        ]
        avg = markley_rotation_average(rotations)

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
            markley_rotation_average([np.eye(3), rot_x(180.0)])

    def test_rotation_pathway_never_reads_directions(self, rng):
        obs, _ = consistent_observations(rng, 5)
        swapped = [
            AnchorObservation(
                o.anchor_id,
                o.anchor_pose,
                RelativePoseEstimate(o.rel.rotation, random_unit(rng)),
            )
            for o in obs
        ]
        a = markley_rotation_average([chained_rotation(o) for o in obs])
        b = markley_rotation_average([chained_rotation(o) for o in swapped])
        np.testing.assert_array_equal(a, b)


# ------------------------------------------------------------------- guards


def test_duplicate_anchor_ids_rejected(rng):
    obs, _ = consistent_observations(rng, 3)
    twin = AnchorObservation(obs[1].anchor_id, obs[2].anchor_pose, obs[2].rel)
    for consumer in (ObservationStack.of, decoupled_pose, govindu_rotation_average,
                     govindu_translation_average):
        with pytest.raises(ValueError, match="duplicate anchor_id 'a1'"):
            consumer([obs[0], obs[1], twin])
