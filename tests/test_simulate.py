"""Synthetic scenes, relative-pose noise, and the Monte Carlo studies."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _look_at,
    _pose_at,
    one_pair_relative_pose,
    pair_loop_scene_valid,
    per_anchor_generate_scene,
    per_anchor_observations,
    per_pose_noisy_features,
    project,
    stable_geodesic_deg,
)

from mvloc import (
    ConfigurationError,
    NoiseSpec,
    Pose,
    SceneConfig,
    anchor_ransac,
    generate_scene,
    geodesic_angle,
    run_averaging_ablation,
    run_k_sweep,
    run_noise_study,
)
from mvloc.geometry import ensure_rotation
from mvloc.simulate import (
    _check_skip_fraction,
    _perturb,
    _poses_at,
    _scene_valid,
    _stack,
    noisy_features,
    sign_test_pvalue,
    synthesize_observations,
    write_study_csv,
    write_study_json,
)


# ------------------------------------------------------------ configuration


class TestConfigs:
    def test_scene_config_bounds(self):
        with pytest.raises(ValueError):
            SceneConfig(n_points=7)
        with pytest.raises(ValueError):
            SceneConfig(n_anchors=1)
        with pytest.raises(ValueError):
            SceneConfig(layout="grid")
        with pytest.raises(ValueError):
            SceneConfig(extent=3.0, radius=5.0)

    def test_noise_spec_rejects_negative(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma_rot_deg=-1.0)
        with pytest.raises(ValueError):
            NoiseSpec(sigma_dir_deg=float("nan"))


# ------------------------------------------------------------- scene shapes


class TestGenerateScene:
    def test_ring_centers_sit_on_the_ring(self):
        scene = generate_scene(SceneConfig(n_anchors=12, layout="ring", radius=5.0), seed=3)
        centroid = scene.points.mean(axis=0)
        for pose in scene.anchor_poses:
            axial = np.linalg.norm((pose.center() - centroid)[:2])
            assert abs(axial - 5.0) < 1e-9

    def test_same_seed_is_identical(self):
        a = generate_scene(SceneConfig(n_anchors=6), seed=9)
        b = generate_scene(SceneConfig(n_anchors=6), seed=9)
        np.testing.assert_array_equal(a.points, b.points)
        assert a.query_pose == b.query_pose
        assert all(pa == pb for pa, pb in zip(a.anchor_poses, b.anchor_poses))

    def test_different_seeds_differ(self):
        a = generate_scene(seed=1)
        b = generate_scene(seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_every_point_in_front_of_every_camera(self):
        for seed in range(5):
            scene = generate_scene(SceneConfig(n_anchors=5), seed=seed)
            cameras = list(scene.anchor_poses) + [scene.query_pose]
            for pose in cameras:
                for point in scene.points:
                    project(pose, point)  # raises ValueError on failure

    @pytest.mark.parametrize("first, last", [(0, 1), (3, 149), (0, 149)])
    def test_camera_gap_check_matches_the_pair_loop(self, first, last):
        # a scene is invalid when two cameras are closer than 1e-3 of the
        # radius; gaps within rounding of that bound decide as the loop does
        scene = generate_scene(SceneConfig(n_anchors=149, layout="line"), seed=4)
        cameras = list(scene.anchor_poses) + [scene.query_pose]
        radius = scene.config.radius
        assert _scene_valid(scene.points, *_stack(cameras), radius)
        near = 1e-3 * (1.0 + np.linspace(-1e-13, 1e-13, 21))
        for gap in [0.999e-3, 1.001e-3, *near]:
            pose = cameras[first]
            moved = pose.center() + gap * radius * np.array([0.0, 0.0, 1.0])
            cameras[last] = Pose(pose.rotation, -pose.rotation @ moved)
            valid = _scene_valid(scene.points, *_stack(cameras), radius)
            assert valid is pair_loop_scene_valid(scene.points, cameras, radius)
            if abs(gap - 1e-3) > 1e-6:
                assert valid is (gap > 1e-3)

    def test_minimal_line_scene_supports_pair_hypothesis(self, rng):
        scene = generate_scene(SceneConfig(n_anchors=2, layout="line"), seed=5)
        pose = anchor_ransac(synthesize_observations(scene, NoiseSpec(), rng)).hypothesis_pose
        np.testing.assert_allclose(pose.center(), scene.query_pose.center(), atol=1e-8)
        assert stable_geodesic_deg(pose.rotation, scene.query_pose.rotation) < 1e-6


# ------------------------------------------------------------- perturbation


def identity_poses(k):
    """k relative poses (I, z) as (k, 3, 3) rotations and (k, 3) directions."""
    return np.tile(np.eye(3), (k, 1, 1)), np.tile([0.0, 0.0, 1.0], (k, 1))


class TestPerturbRelativePose:
    """``simulate._perturb``, the noise of the synthesized observations."""

    def test_zero_noise_returns_input_unchanged(self, rng):
        rotations, directions = identity_poses(1)
        out_rotations, out_directions = _perturb(rotations, directions, NoiseSpec(), rng)
        np.testing.assert_array_equal(out_rotations, rotations)
        np.testing.assert_array_equal(out_directions, directions)

    def test_rotation_noise_magnitude(self, rng):
        # isotropic axis-angle with sigma 5 deg has mean angle near
        # sigma * sqrt(8/pi) ~ 7.98 deg
        rotations, directions = identity_poses(10_000)
        perturbed, _ = _perturb(rotations, directions, NoiseSpec(sigma_rot_deg=5.0), rng)
        angles = [geodesic_angle(r, np.eye(3)) for r in perturbed]
        assert 6.5 <= np.mean(angles) <= 9.5

    def test_direction_stays_unit(self, rng):
        spec = NoiseSpec(sigma_rot_deg=3.0, sigma_dir_deg=7.0)
        _, directions = _perturb(*identity_poses(200), spec, rng)
        assert np.abs(np.linalg.norm(directions, axis=1) - 1.0).max() < 1e-12

    def test_draw_count_is_noise_independent(self):
        # the generator must advance identically whatever the sigmas, so
        # study seeds stay comparable across grid cells
        rng_a = np.random.default_rng(40)
        rng_b = np.random.default_rng(40)
        _perturb(*identity_poses(1), NoiseSpec(sigma_rot_deg=5.0), rng_a)
        _perturb(*identity_poses(1), NoiseSpec(sigma_rot_deg=5.0, sigma_dir_deg=5.0), rng_b)
        assert rng_a.integers(2**32) == rng_b.integers(2**32)


# ------------------------------------------------------------- noise study


class TestNoiseStudy:
    def test_zero_noise_is_exact_and_medians_grow(self):
        result = run_noise_study(noise_grid=(0.0, 1.0, 5.0), trials=120, seed=0)
        by_sigma = {}
        for row in result.rows:
            by_sigma.setdefault(row["sigma_rot_deg"], {})[row["method"]] = row
        for method in ("govindu", "decoupled"):
            assert by_sigma[0.0][method]["median_center_err"] < 1e-7
            # non-decreasing in sigma, 5% slack between adjacent cells
            seq = [by_sigma[s][method]["median_center_err"] for s in (0.0, 1.0, 5.0)]
            assert seq[1] >= 0.95 * seq[0]
            assert seq[2] >= 0.95 * seq[1]

    def test_one_row_per_cell_and_method(self):
        result = run_noise_study(noise_grid=(1.0, 2.0), trials=100, seed=1)
        assert len(result.rows) == 4
        keys = {(row["sigma_rot_deg"], row["method"]) for row in result.rows}
        assert keys == {(1.0, "govindu"), (1.0, "decoupled"), (2.0, "govindu"), (2.0, "decoupled")}

    def test_same_seed_reproduces_rows_exactly(self):
        a = run_noise_study(noise_grid=(2.0,), trials=100, seed=7)
        b = run_noise_study(noise_grid=(2.0,), trials=100, seed=7)
        assert a.rows == b.rows


# ---------------------------------------------------------------- ablation


class TestAveragingAblation:
    def test_zero_noise_arms_agree(self):
        result = run_averaging_ablation(noise=0.0, trials=100, seed=0)
        for rec in result.trial_records:
            assert abs(rec["err_translation_avg"] - rec["err_ray_center"]) < 1e-8

    def test_ray_center_wins_under_noise(self):
        result = run_averaging_ablation(noise=5.0, trials=500, seed=0)
        rows = {row["method"]: row for row in result.rows}
        ray = rows["ray_center"]
        trans = rows["translation_avg"]
        assert ray["median_center_err"] < trans["median_center_err"]
        assert ray["wins"] > trans["wins"]
        assert ray["sign_test_p"] < 0.01

    def test_sign_test_is_exact_binomial(self):
        # 8 wins vs 2: two-sided exact p = 2 * sum_{k>=8} C(10,k) / 2^10
        expected = 2.0 * (45 + 10 + 1) / 1024.0
        assert abs(sign_test_pvalue(8, 2) - expected) < 1e-12

    def test_skip_fraction_guard(self):
        with pytest.raises(ConfigurationError):
            _check_skip_fraction(11, 100, "unit test")
        _check_skip_fraction(10, 100, "unit test")


# ------------------------------------------------------------------ k sweep


class TestKSweep:
    def test_full_anchor_set_zero_noise_is_exact(self):
        cfg = SceneConfig(n_anchors=8, layout="line")
        result = run_k_sweep(cfg, k_values=(8,), sigma_feat=0.0, trials=10, seed=0)
        assert len(result.rows) == 1
        assert result.rows[0]["median_center_err"] < 1e-7

    def test_one_row_per_k_in_request_order(self):
        cfg = SceneConfig(n_anchors=8, layout="line")
        result = run_k_sweep(cfg, k_values=(2, 5, 8), sigma_feat=0.0, trials=5, seed=0)
        assert [row["k"] for row in result.rows] == [2, 5, 8]

    def test_rows_do_not_depend_on_the_other_k_values(self):
        # each anchor's RANSAC and each K's consensus draw from their own
        # streams of the trial, so a K's row is the same in any request
        cfg = SceneConfig(n_points=40, n_anchors=8, layout="line")
        alone = run_k_sweep(cfg, k_values=(5,), sigma_feat=1e-3, trials=4, seed=2)
        mixed = run_k_sweep(cfg, k_values=(8, 5, 2), sigma_feat=1e-3, trials=4, seed=2)
        assert mixed.rows[1] == alone.rows[0]

    def test_k_bounds_are_checked(self):
        cfg = SceneConfig(n_anchors=8, layout="line")
        with pytest.raises(ConfigurationError):
            run_k_sweep(cfg, k_values=(1,), trials=5)
        with pytest.raises(ConfigurationError):
            run_k_sweep(cfg, k_values=(9,), trials=5)

    def test_repeated_k_is_rejected(self):
        # a repeated K would write one row per request, each counting the
        # same trials
        cfg = SceneConfig(n_anchors=8, layout="line")
        with pytest.raises(ConfigurationError, match="k_values"):
            run_k_sweep(cfg, k_values=(2, 5, 5), trials=3)


# ------------------------------------------------------------------ writers


class TestStudyWriters:
    def test_csv_and_json_bytes_are_deterministic(self, tmp_path):
        a = run_noise_study(noise_grid=(1.0,), trials=100, seed=3)
        b = run_noise_study(noise_grid=(1.0,), trials=100, seed=3)
        for result, tag in ((a, "a"), (b, "b")):
            write_study_csv(result, tmp_path / f"{tag}.csv")
            write_study_json(result, tmp_path / f"{tag}.json")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_csv_cells_round_trip_floats(self, tmp_path):
        result = run_noise_study(noise_grid=(2.0,), trials=100, seed=4)
        path = tmp_path / "rows.csv"
        write_study_csv(result, path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        parsed = dict(zip(header, lines[1].split(",")))
        row = result.rows[0]
        assert float(parsed["median_center_err"]) == row["median_center_err"]

    def test_json_echoes_config_and_seed(self, tmp_path):
        result = run_noise_study(noise_grid=(1.0,), trials=100, seed=5)
        path = tmp_path / "study.json"
        write_study_json(result, path)
        payload = json.loads(path.read_text())
        assert payload["seed"] == 5
        assert payload["config"]["trials"] == 100
        assert len(payload["rows"]) == len(result.rows)


# ------------------------------------------------------------ observations


def test_synthesized_observations_match_ground_truth(rng):
    scene = generate_scene(SceneConfig(n_anchors=6), seed=11)
    obs = synthesize_observations(scene, NoiseSpec(), rng)
    assert len(obs) == 6
    for rotation, direction, pose in zip(obs.rel_rotations, obs.rel_directions, scene.anchor_poses):
        expected = one_pair_relative_pose(scene.query_pose, pose)
        np.testing.assert_allclose(rotation, expected.rotation, atol=1e-12)
        np.testing.assert_allclose(direction, expected.direction, atol=1e-12)


# ------------------------------------------------------- stacked synthesis
#
# The stacked scene, observation and feature synthesis against the
# one-anchor-at-a-time code in conftest: bit-equal outputs, and the
# generator left in the same state.

SEEDS = st.integers(0, 2**31 - 2)
ANCHORS = st.integers(2, 150)
LAYOUTS = st.sampled_from(["ring", "line"])
SIGMAS_DEG = st.one_of(st.just(0.0), st.floats(0.0, 20.0))


def assert_same_pose(a, b):
    np.testing.assert_array_equal(a.rotation, b.rotation)
    np.testing.assert_array_equal(a.translation, b.translation)


def assert_same_observations(stacked, loop):
    assert stacked.anchor_ids == loop.anchor_ids
    for name in ("anchor_rotations", "anchor_translations", "rel_rotations", "rel_directions"):
        assert getattr(stacked, name).tobytes() == getattr(loop, name).tobytes(), name


class TestStackedSynthesis:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=SEEDS, k=ANCHORS, layout=LAYOUTS)
    def test_scene_matches_the_per_anchor_loop(self, seed, k, layout):
        config = SceneConfig(n_anchors=k, layout=layout)
        stacked = generate_scene(config, seed=seed)
        loop = per_anchor_generate_scene(config, seed)
        np.testing.assert_array_equal(stacked.points, loop.points)
        assert_same_pose(stacked.query_pose, loop.query_pose)
        for a, b in zip(stacked.anchor_poses, loop.anchor_poses, strict=True):
            assert_same_pose(a, b)

    def test_reprojected_look_at_keeps_its_raw_translation(self):
        # a forward vector 9e-10 longer than unit passes through unit()
        # unscaled, so the look-at rows drift past ROTATION_TOL and the
        # rotation is re-projected; the translation is -R c of the rotation
        # as built, as in the per-anchor loop
        center = np.array([1.0, 2.0, 3.0])
        target = center + np.array([0.6, 0.0, 0.8]) * (1.0 + 9e-10)
        rotations, translations = _poses_at(center[None], target[None])
        raw = _look_at(center, target)
        assert not np.array_equal(rotations[0], raw)
        np.testing.assert_array_equal(rotations[0], ensure_rotation(raw))
        np.testing.assert_array_equal(translations[0], -raw @ center)
        assert_same_pose(Pose._from_validated(rotations[0], translations[0]), _pose_at(center, target))

    def test_k_sweep_scene_with_a_reprojected_pose_matches_the_loop(self):
        # anchor 22 of this scene (k sweep seed 14, trial 3) is re-projected
        config = SceneConfig(n_anchors=50, layout="line")
        stacked = generate_scene(config, seed=1326863568)
        loop = per_anchor_generate_scene(config, 1326863568)
        for a, b in zip(stacked.anchor_poses, loop.anchor_poses, strict=True):
            assert_same_pose(a, b)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=SEEDS, k=ANCHORS, layout=LAYOUTS, sig_rot=SIGMAS_DEG, sig_dir=SIGMAS_DEG)
    def test_observations_match_the_per_anchor_loop(self, seed, k, layout, sig_rot, sig_dir):
        scene = generate_scene(SceneConfig(n_anchors=k, layout=layout), seed=seed)
        noise = NoiseSpec(sigma_rot_deg=sig_rot, sigma_dir_deg=sig_dir)
        rng_stacked = np.random.default_rng(seed)
        rng_loop = np.random.default_rng(seed)
        stacked = synthesize_observations(scene, noise, rng_stacked)
        loop = per_anchor_observations(scene, noise, rng_loop)
        assert_same_observations(stacked, loop)
        assert rng_stacked.bit_generator.state == rng_loop.bit_generator.state

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=SEEDS, k=ANCHORS, layout=LAYOUTS, sigma=st.sampled_from([0.0, 1e-4, 1e-3]))
    def test_features_match_one_projection_per_camera(self, seed, k, layout, sigma):
        scene = generate_scene(SceneConfig(n_anchors=k, layout=layout), seed=seed)
        rng_stacked = np.random.default_rng(seed)
        rng_loop = np.random.default_rng(seed)
        q_a, a_a = noisy_features(scene, sigma, rng_stacked)
        q_b, a_b = per_pose_noisy_features(scene, sigma, rng_loop)
        np.testing.assert_array_equal(q_a, q_b)
        np.testing.assert_array_equal(a_a, a_b)
        assert rng_stacked.bit_generator.state == rng_loop.bit_generator.state
