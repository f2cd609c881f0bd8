"""File-driven pipeline and the command-line entry point."""

import csv
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    consistent_observations,
    dict_keypoint_tracks,
    one_vector_skew,
    per_candidate_cheirality_select,
    per_matrix_decompose_essential,
    random_rotation,
    rot_x,
    sequential_essential,
    stable_geodesic_deg,
)

from mvloc import (
    ConfigurationError,
    InsufficientDataError,
    MatchSet,
    MvlocError,
    ParseError,
    PipelineConfig,
    Pose,
    QueryResult,
    RansacConfig,
    SceneConfig,
    generate_scene,
    load_dataset,
    localize_query,
    localize_run,
    score_run,
)
from mvloc import pipeline, relpose
from mvloc.cli import main
from mvloc.dataset import Intrinsics, write_dataset, write_intrinsics
from mvloc.geometry import relative_poses, rotvec_to_rotation
from mvloc.pipeline import estimate_anchors, read_results_csv, solve_pose, write_results_csv
from mvloc.simulate import FOCAL_PX, _stack, export_scene_dataset, noisy_features


def scene_dataset(root, seed=42, sigma_feat=0.0, n_points=40, n_anchors=6,
                  query_id="query"):
    scene = generate_scene(
        SceneConfig(n_points=n_points, n_anchors=n_anchors, layout="line"), seed=seed
    )
    manifest = export_scene_dataset(
        scene, root, sigma_feat=sigma_feat, seed=seed, query_id=query_id
    )
    return scene, manifest


def add_query_copy(root, new_id, source="query"):
    """Give the dataset under ``root`` a second query with the same
    neighbors, intrinsics and match files as ``source``."""
    for path in sorted((root / "matches").glob(f"{source}__*.txt")):
        anchor_part = path.name.split("__", 1)[1]
        (root / "matches" / f"{new_id}__{anchor_part}").write_text(path.read_text())
    for name in ("neighbors.txt", "intrinsics.txt"):
        lines = (root / name).read_text().splitlines()
        copies = [new_id + line[len(source):] for line in lines if line.split()[:1] == [source]]
        (root / name).write_text("\n".join(lines + copies) + "\n")


def fake_result(query_id, truth, d_center=0.0, d_rot_deg=0.0):
    rotation = rot_x(d_rot_deg) @ truth.rotation
    center = truth.center() + np.array([d_center, 0.0, 0.0])
    return QueryResult(
        query_id=query_id,
        stage1_pose=Pose(rotation, -rotation @ center),
        refined_pose=None,
        n_anchors_considered=1,
        n_anchors_estimated=1,
        inlier_anchor_ids=("a",),
        tracks_used=0,
        status="ok",
    )


# ---------------------------------------------------------------- pipeline


class TestLocalizeQuery:
    def test_zero_noise_recovers_ground_truth(self, tmp_path):
        scene, manifest = scene_dataset(tmp_path)
        dataset = load_dataset(manifest)
        result = localize_query(dataset, "query")
        assert result.status == "ok"
        assert result.refined_pose is not None
        pose = result.final_pose
        assert np.linalg.norm(pose.center() - scene.query_pose.center()) < 1e-6
        assert stable_geodesic_deg(pose.rotation, scene.query_pose.rotation) < 1e-5
        assert result.error_m < 1e-6
        assert result.tracks_used > 0

    def test_repeat_runs_are_bit_identical(self, tmp_path):
        _, manifest = scene_dataset(tmp_path, seed=7)
        dataset = load_dataset(manifest)
        a = localize_query(dataset, "query")
        b = localize_query(dataset, "query")
        np.testing.assert_array_equal(a.final_pose.rotation, b.final_pose.rotation)
        np.testing.assert_array_equal(a.final_pose.translation, b.final_pose.translation)
        assert a.inlier_anchor_ids == b.inlier_anchor_ids

    def test_single_neighbor_is_insufficient(self, tmp_path):
        _, manifest = scene_dataset(tmp_path, seed=3)
        dataset = load_dataset(manifest)
        starved = dataclasses.replace(
            dataset, neighbors={"query": dataset.neighbors["query"][:1]}
        )
        with pytest.raises(InsufficientDataError):
            localize_query(starved, "query")

    def test_unknown_query_id(self, tmp_path):
        _, manifest = scene_dataset(tmp_path, seed=3)
        dataset = load_dataset(manifest)
        with pytest.raises(InsufficientDataError):
            localize_query(dataset, "nope")

    def test_refinement_improves_noisy_queries(self, tmp_path):
        # feature noise of 1e-3 per coordinate; latent-point refinement should
        # beat the stage-1 average for nearly every seeded scene
        improved = 0
        total = 100
        for s in range(total):
            root = tmp_path / f"run{s:03d}"
            scene = generate_scene(
                SceneConfig(n_points=60, n_anchors=8, layout="line"), seed=s
            )
            manifest = export_scene_dataset(
                scene, root, sigma_feat=1e-3, seed=s, query_id=f"q{s:03d}"
            )
            dataset = load_dataset(manifest)
            config = PipelineConfig(seed=s)
            result = localize_query(dataset, f"q{s:03d}", config)
            truth = scene.query_pose.center()
            err_stage1 = np.linalg.norm(result.stage1_pose.center() - truth)
            err_final = np.linalg.norm(result.final_pose.center() - truth)
            if err_final <= err_stage1:
                improved += 1
        assert improved >= 0.9 * total


    @pytest.mark.parametrize("epi_threshold_px", [0.8, PipelineConfig().epi_threshold_px])
    def test_batched_ransac_matches_the_per_pair_oracle(self, tmp_path, monkeypatch,
                                                        epi_threshold_px):
        # Each anchor's RANSAC draws from its own pair generator. Under 1 px
        # of noise a 0.8 px gate keeps too few true matches and each pair
        # runs the whole budget; at the default gate the adaptive budget
        # stops early. Either way the query must come out as it does when
        # RANSAC fits and scores one hypothesis at a time.
        _, manifest = scene_dataset(tmp_path, seed=11, sigma_feat=1.25e-3, n_points=120)
        dataset = load_dataset(manifest)
        config = PipelineConfig(epi_threshold_px=epi_threshold_px)
        batched = localize_query(dataset, "query", config)

        iterations = []

        def oracle(matches, config=None, seed=None):
            stats = {}
            try:
                return sequential_essential(matches, config, seed, stats=stats)
            finally:
                iterations.append(stats["iterations"])

        monkeypatch.setattr(pipeline, "estimate_essential", oracle)
        sequential = localize_query(dataset, "query", config)
        assert len(iterations) == 6
        assert (max(iterations) < config.ransac_max_iters) == (epi_threshold_px > 0.8)
        for name in ("stage1_pose", "refined_pose"):
            a, b = getattr(batched, name), getattr(sequential, name)
            assert a.rotation.tobytes() == b.rotation.tobytes()
            assert a.translation.tobytes() == b.translation.tobytes()
        assert batched.inlier_anchor_ids == sequential.inlier_anchor_ids
        assert batched.status == sequential.status == "ok"
        assert batched.tracks_used == sequential.tracks_used


def recorded_estimates(monkeypatch, dataset, config):
    """Per anchor id, the bytes of what ``estimate_anchors`` returned while
    localizing ``"query"``: the stack row's relative pose and the inlier
    rows."""
    estimates = {}
    real = pipeline.estimate_anchors

    def recording(pairs):
        stack, inlier_matches = real(pairs)
        for k, anchor_id in enumerate(stack.anchor_ids):
            inliers = inlier_matches[anchor_id]
            estimates[anchor_id] = (
                stack.rel_rotations[k].tobytes(),
                stack.rel_directions[k].tobytes(),
                inliers.keypoint_ids.tobytes(),
                inliers.query.tobytes(),
                inliers.anchor.tobytes(),
            )
        return stack, inlier_matches

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "estimate_anchors", recording)
        result = localize_query(dataset, "query", config)
    return estimates, result


class TestOrderFree:
    """A query-anchor pair's RANSAC draws from its own generator, so an
    anchor's estimate does not depend on the rest of the neighbor list."""

    CONFIG = PipelineConfig(epi_threshold_px=2.4, ransac_max_iters=400)

    def dataset(self, root):
        _, manifest = scene_dataset(root, seed=5, sigma_feat=1e-3, n_points=60, n_anchors=10)
        return load_dataset(manifest)

    def with_neighbors(self, dataset, neighbors):
        return dataclasses.replace(dataset, neighbors={"query": list(neighbors)})

    def test_estimates_ignore_order_missing_files_and_top_k(self, tmp_path, monkeypatch):
        dataset = self.dataset(tmp_path)
        neighbors = dataset.neighbors["query"]
        reference, _ = recorded_estimates(monkeypatch, dataset, self.CONFIG)
        assert len(reference) == len(neighbors)

        rng = np.random.default_rng(3)
        variants = [
            self.with_neighbors(dataset, [neighbors[i] for i in rng.permutation(len(neighbors))])
            for _ in range(3)
        ]
        variants.append(self.with_neighbors(dataset, neighbors[::-1]))
        cut = dataclasses.replace(self.CONFIG, top_k=6)
        runs = [recorded_estimates(monkeypatch, d, self.CONFIG)[0] for d in variants]
        runs.append(recorded_estimates(monkeypatch, dataset, cut)[0])
        assert len(runs[-1]) == 6
        dataset.match_path("query", neighbors[2][0]).unlink()
        runs.append(recorded_estimates(monkeypatch, dataset, self.CONFIG)[0])
        assert neighbors[2][0] not in runs[-1] and len(runs[-1]) == len(neighbors) - 1
        for estimates in runs:
            for anchor_id, shown in estimates.items():
                assert shown == reference[anchor_id]

    def test_reversed_neighbors_keep_the_result(self, tmp_path):
        dataset = self.dataset(tmp_path)
        forward = localize_query(dataset, "query", self.CONFIG)
        reversed_list = self.with_neighbors(dataset, dataset.neighbors["query"][::-1])
        backward = localize_query(reversed_list, "query", self.CONFIG)
        assert forward.status == backward.status == "ok"
        assert forward.inlier_anchor_ids == backward.inlier_anchor_ids
        assert forward.tracks_used == backward.tracks_used
        for name in ("stage1_pose", "refined_pose"):
            a, b = getattr(forward, name), getattr(backward, name)
            np.testing.assert_allclose(a.rotation, b.rotation, rtol=0, atol=1e-9)
            np.testing.assert_allclose(a.center(), b.center(), rtol=0, atol=1e-9)

    def test_pair_generators_are_distinct_and_seeded(self):
        def pair_draws(seed, query_id, anchor_id):
            rng = pipeline._pair_rng([seed] + pipeline._id_words(query_id), anchor_id)
            return rng.integers(2**63, size=2).tolist()

        draws = {
            key: pair_draws(*key)
            for key in [(0, "q", "a"), (0, "q", "b"), (0, "a", "q"), (1, "q", "a"),
                        (0, "qa", ""), (0, "", "qa")]
        }
        assert len({tuple(v) for v in draws.values()}) == len(draws)
        assert pair_draws(0, "q", "a") == draws[(0, "q", "a")]
        assert pipeline.query_rng(0, "q").integers(2**63, size=2).tolist() not in draws.values()


def kept_fraction(gate_px, focal, seed):
    """Share of a ``line`` scene's true matches, at 1 px of noise per
    coordinate under focal length ``focal``, that a pixel gate keeps: the
    symmetric epipolar distance under the true E against the gate as the
    pipeline converts it for a pair of two such cameras."""
    scene = generate_scene(SceneConfig(n_points=300, n_anchors=10, layout="line"), seed=seed)
    q_feats, a_feats = noisy_features(scene, 1.0 / focal, np.random.default_rng(seed))
    camera = Intrinsics(fx=focal, fy=focal, cx=320.0, cy=240.0)
    threshold = PipelineConfig(epi_threshold_px=gate_px).ransac_config(
        pipeline.pair_focal(camera, camera)
    ).threshold
    query_rows = relpose._homogeneous_rows(q_feats)
    kept = [
        np.sqrt(relpose._squared_epipolar_distance(
            one_vector_skew(direction) @ rotation, query_rows, relpose._homogeneous_rows(a_feats[k])
        )) < threshold
        for k, (rotation, direction) in enumerate(
            zip(*relative_poses(scene.query_pose, *_stack(scene.anchor_poses)))
        )
    ]
    return float(np.mean(kept))


class TestPixelGate:
    """``epi_threshold_px`` is in pixels; each pair converts it to the
    normalized ``RansacConfig.threshold`` through ``pipeline.pair_focal``."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**20), focal=st.sampled_from([400.0, 800.0, 1600.0]))
    def test_default_gate_keeps_true_one_pixel_matches(self, seed, focal):
        assert kept_fraction(PipelineConfig().epi_threshold_px, focal, seed) >= 0.99
        # the old default, 1e-3 in normalized units, is 1e-3 * focal pixels
        assert kept_fraction(1e-3 * focal, focal, seed) < 0.99

    def test_pair_focal_is_the_geometric_mean_of_mean_focals(self):
        square = Intrinsics(fx=800.0, fy=800.0, cx=320.0, cy=240.0)
        assert pipeline.pair_focal(square, square) == 800.0
        oblong = Intrinsics(fx=1600.0, fy=2000.0, cx=320.0, cy=240.0)
        assert pipeline.pair_focal(square, oblong) == pipeline.pair_focal(oblong, square) == 1200.0
        assert PipelineConfig(epi_threshold_px=6.0).ransac_config(1200.0).threshold == 6.0 / 1200.0

    @pytest.mark.parametrize("anchor_focal", [800.0, 3200.0])
    def test_each_pair_gets_its_own_threshold(self, tmp_path, monkeypatch, anchor_focal):
        # query at 800 px, anchors at ``anchor_focal``; one anchor at 400 px
        scene = generate_scene(SceneConfig(n_points=60, n_anchors=6, layout="line"), seed=21)
        q_feats, a_feats = noisy_features(scene, 0.0, np.random.default_rng(0))
        focals = {f"a{k}": anchor_focal for k in range(6)}
        focals["a3"] = 400.0
        cameras = {aid: Intrinsics(fx=f, fy=f, cx=320.0, cy=240.0) for aid, f in focals.items()}
        cameras["query"] = Intrinsics(fx=800.0, fy=800.0, cx=320.0, cy=240.0)
        kp_ids = np.arange(len(scene.points))
        manifest = write_dataset(
            tmp_path,
            anchors={f"a{k}": pose for k, pose in enumerate(scene.anchor_poses)},
            intrinsics=cameras,
            neighbors={"query": [(f"a{k}", 1.0) for k in range(6)]},
            matches={
                ("query", f"a{k}"): (
                    kp_ids, cameras["query"].denormalize(q_feats),
                    cameras[f"a{k}"].denormalize(a_feats[k]),
                )
                for k in range(6)
            },
            ground_truth={"query": scene.query_pose},
        )
        thresholds = {}
        real = pipeline.estimate_anchors

        def recording(pairs):
            pairs = list(pairs)
            thresholds.update((anchor_id, cfg.threshold) for anchor_id, _, _, cfg, _ in pairs)
            return real(pairs)

        monkeypatch.setattr(pipeline, "estimate_anchors", recording)
        result = localize_query(load_dataset(manifest), "query")
        gate = PipelineConfig().epi_threshold_px
        assert thresholds == {
            aid: gate / np.sqrt(800.0 * focal) for aid, focal in focals.items()
        }
        assert result.status == "ok" and result.error_m < 1e-6


class TestWorldFrameEquivariance:
    """Mapping the world through a similarity ``X' = s Q X + t`` and every
    pose through ``R' = R Q^T``, ``T' = s T - R Q^T t`` leaves each camera's
    image of each point unchanged, so localization must give the same
    decisions and errors scaled by s (ROADMAP 6(i))."""

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_similarity_of_the_world_frame(self, tmp_path, seed):
        _, manifest = scene_dataset(tmp_path, seed=seed, sigma_feat=1.25e-3, n_points=60,
                                    n_anchors=10)
        dataset = load_dataset(manifest)
        (base,), _ = localize_run(dataset)
        assert base.status == "ok"
        rng = np.random.default_rng(seed)

        def moved(pose, s, q, t):
            rotation = pose.rotation @ q.T
            return Pose(rotation, s * pose.translation - rotation @ t)

        for s in (1e-3, 1.0, 1e3, 1e5):
            q, t = random_rotation(rng), rng.normal(scale=10.0 * s, size=3)
            mapped = dataclasses.replace(
                dataset,
                anchors={aid: moved(p, s, q, t) for aid, p in dataset.anchors.items()},
                ground_truth={qid: moved(p, s, q, t) for qid, p in dataset.ground_truth.items()},
            )
            (result,), _ = localize_run(mapped)
            assert result.status == base.status
            assert result.tracks_used == base.tracks_used
            assert result.inlier_anchor_ids == base.inlier_anchor_ids
            assert abs(result.error_m / s - base.error_m) <= 1e-6 * base.error_m
            assert abs(result.error_deg - base.error_deg) <= 1e-7


class TestLocalizeRun:
    def test_collects_failures_without_aborting(self, tmp_path):
        _, manifest = scene_dataset(tmp_path, seed=5)
        dataset = load_dataset(manifest)
        crippled = dataclasses.replace(
            dataset,
            neighbors={
                "query": dataset.neighbors["query"],
                "ghost": dataset.neighbors["query"][:1],
            },
        )
        results, failures = localize_run(crippled)
        assert [r.query_id for r in results] == ["query"]
        assert [f.query_id for f in failures] == ["ghost"]
        assert "ghost" in failures[0].reason or "anchor" in failures[0].reason

    @pytest.mark.parametrize(
        "error", [ValueError("bad value"), np.linalg.LinAlgError("SVD did not converge")]
    )
    def test_unexpected_error_fails_only_its_query(self, tmp_path, monkeypatch, error):
        root = tmp_path / "data"
        _, manifest = scene_dataset(root, seed=8)
        add_query_copy(root, "q2")
        real = pipeline.localize_query

        def localize(dataset, query_id, config=None):
            if query_id == "q2":
                raise error
            return real(dataset, query_id, config)

        monkeypatch.setattr(pipeline, "localize_query", localize)
        reason = f"{type(error).__name__}: {error}"
        results, failures = localize_run(load_dataset(manifest))
        assert [r.query_id for r in results] == ["query"]
        assert [(f.query_id, f.reason) for f in failures] == [("q2", reason)]

        out = tmp_path / "out"
        assert main(["localize", "--manifest", str(manifest), "--output-dir", str(out)]) == 0
        with open(out / "queries.csv", newline="") as handle:
            rows = {row["query_id"]: row["status"] for row in csv.DictReader(handle)}
        assert rows == {"query": "ok", "q2": f"failed: {reason}"}

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**20),
        n_anchors=st.integers(2, 10),
        n_points=st.integers(8, 60),
        sigma_feat=st.sampled_from([0.0, 1e-4, 5e-4]),
        n_copies=st.integers(0, 2),
    )
    def test_valid_datasets_raise_only_mvloc_errors(self, seed, n_anchors, n_points,
                                                     sigma_feat, n_copies):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            _, manifest = scene_dataset(root, seed=seed, sigma_feat=sigma_feat,
                                        n_points=n_points, n_anchors=n_anchors)
            for copy in range(n_copies):
                add_query_copy(root, f"q{copy}")
            dataset = load_dataset(manifest)
            results, failures = localize_run(dataset)
            assert len(results) + len(failures) == 1 + n_copies
            for failure in failures:
                with pytest.raises(MvlocError):
                    localize_query(dataset, failure.query_id)

    def test_disagreeing_query_pixels_fail_only_that_query(self, tmp_path):
        root = tmp_path / "data"
        _, manifest = scene_dataset(root, seed=8)
        add_query_copy(root, "q2")
        dataset = load_dataset(manifest)
        first_anchor, second_anchor = (a for a, _ in dataset.neighbors["q2"][:2])
        path = dataset.match_path("q2", second_anchor)
        lines = path.read_text().splitlines()
        fields = lines[3].split()  # the third match, keypoint id 2
        fields[1] = repr(float(fields[1]) + 0.5)
        lines[3] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")

        with pytest.raises(ParseError) as info:
            localize_query(dataset, "q2")
        first = dataset.match_path("q2", first_anchor)
        assert str(info.value) == f"{path}:0: query pixel of keypoint 2 differs from {first}"

        results, failures = localize_run(dataset)
        assert [r.query_id for r in results] == ["query"]
        assert [(f.query_id, f.reason) for f in failures] == [("q2", str(info.value))]


@st.composite
def planted_estimates(draw):
    """The estimate stack of a noisy ``line`` scene's anchors, 1-3 of them
    paired with a wrong anchor pose (a retrieval false positive), with its
    inlier matches and anchor poses, plus a permutation of its rows."""
    seed = draw(st.integers(0, 2**20))
    n_true = draw(st.integers(4, 8))
    n_wrong = draw(st.integers(1, 3))
    sigma = draw(st.sampled_from([1e-4, 5e-4, 1e-3]))
    scene = generate_scene(
        SceneConfig(n_points=30, n_anchors=n_true + n_wrong, layout="line"), seed=seed
    )
    rng = np.random.default_rng(seed)
    q_feats, a_feats = noisy_features(scene, sigma, rng)
    wrong = set(rng.choice(n_true + n_wrong, size=n_wrong, replace=False).tolist())
    config = PipelineConfig()
    pairs = []
    for k, pose in enumerate(scene.anchor_poses):
        if k in wrong:
            axis = rng.normal(size=3)
            angle = np.radians(rng.uniform(30, 90))
            rotation = rotvec_to_rotation(angle * axis / np.linalg.norm(axis)) @ pose.rotation
            pose = Pose(rotation, -rotation @ pose.center())
        matches = MatchSet(q_feats, a_feats[k], keypoint_ids=np.arange(len(q_feats)))
        pairs.append((k, pose, matches, config.ransac_config(FOCAL_PX), rng))
    poses = {k: pose for k, pose, _, _, _ in pairs}
    stack, inlier_matches = estimate_anchors(pairs)
    order = draw(st.permutations(range(len(stack))))
    return stack, inlier_matches, poses, order, wrong, config


class TestEstimateAnchors:
    """``estimate_anchors`` stacks what one pair at a time gives: essential
    RANSAC, the per-matrix decomposition and the per-candidate cheirality
    vote, with failed pairs left out."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**20), k=st.integers(2, 12),
           sigma=st.sampled_from([0.0, 1e-4, 1.25e-3]), starved=st.integers(0, 2))
    def test_rows_are_the_per_pair_estimates(self, seed, k, sigma, starved):
        scene = generate_scene(SceneConfig(n_points=30, n_anchors=k, layout="line"), seed=seed)
        q_feats, a_feats = noisy_features(scene, sigma, np.random.default_rng(seed))
        ransac_cfg = PipelineConfig().ransac_config(FOCAL_PX)
        kp_ids = np.arange(len(q_feats))
        pairs = []
        for j, pose in enumerate(scene.anchor_poses):
            # a few pairs hold pure noise, which RANSAC or cheirality may reject
            feats = a_feats[j] if j >= starved else np.random.default_rng(j).normal(size=(30, 2))
            pairs.append((f"a{j}", pose, MatchSet(q_feats, feats, keypoint_ids=kp_ids), ransac_cfg,
                          np.random.default_rng([seed, j])))
        stack, inlier_matches = estimate_anchors(pairs)

        expected = {}
        for anchor_id, pose, matches, cfg, _ in pairs:
            rng = np.random.default_rng([seed, int(anchor_id[1:])])
            try:
                essential, mask = pipeline.estimate_essential(matches, config=cfg, seed=rng)
                inliers = matches.subset(mask)
                rel = per_candidate_cheirality_select(
                    per_matrix_decompose_essential(essential), inliers
                )
            except MvlocError:
                continue
            expected[anchor_id] = (pose, rel, inliers)
        assert stack.anchor_ids == tuple(expected)
        assert set(inlier_matches) == set(expected)
        for k_row, anchor_id in enumerate(stack.anchor_ids):
            pose, rel, inliers = expected[anchor_id]
            assert stack.anchor_rotations[k_row].tobytes() == pose.rotation.tobytes()
            assert stack.anchor_translations[k_row].tobytes() == pose.translation.tobytes()
            assert stack.rel_rotations[k_row].tobytes() == rel.rotation.tobytes()
            assert stack.rel_directions[k_row].tobytes() == rel.direction.tobytes()
            got = inlier_matches[anchor_id]
            assert got.keypoint_ids.tobytes() == inliers.keypoint_ids.tobytes()

    def test_no_usable_pair_gives_an_empty_stack(self):
        matches = MatchSet(np.zeros((8, 2)), np.zeros((8, 2)))
        stack, inlier_matches = estimate_anchors(
            [("a", Pose(np.eye(3), np.zeros(3)), matches, RansacConfig(), 0)]
        )
        assert len(stack) == 0 and inlier_matches == {}


class TestSolvePose:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(planted_estimates())
    def test_consensus_ignores_observation_order(self, case):
        stack, inlier_matches, anchor_poses, order, wrong, config = case
        solutions = [
            solve_pose(
                stack.take(list(indices)),
                inlier_matches,
                anchor_poses,
                config,
                np.random.default_rng(0),
            )
            for indices in (range(len(stack)), order)
        ]
        (consensus_a, stage1_a, _, _), (consensus_b, stage1_b, _, _) = solutions
        assert consensus_a.inlier_ids == consensus_b.inlier_ids
        assert not consensus_a.inlier_ids & wrong
        np.testing.assert_allclose(stage1_a.center(), stage1_b.center(), rtol=0, atol=1e-9)


    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 8),
        id_range=st.sampled_from([3, 20, 200]),
        rows=st.integers(0, 60),
        without_ids=st.sampled_from([0.0, 0.0, 0.3]),
        empty=st.sampled_from([0.0, 0.0, 0.3]),
    )
    def test_tracks_are_the_row_by_row_tracks(self, seed, k, id_range, rows, without_ids, empty):
        # inlier match sets of consistent observations, each with a random
        # subset of keypoint ids in random order; some have no ids, some no rows
        rng = np.random.default_rng(seed)
        observations, _ = consistent_observations(rng, k)
        inlier_matches = {}
        for anchor_id in observations.anchor_ids:
            n = 0 if rng.random() < empty else int(rng.integers(0, min(rows, id_range) + 1))
            ids = rng.choice(id_range, size=n, replace=False)
            if rng.random() < without_ids:
                ids = None
            inlier_matches[anchor_id] = MatchSet(
                rng.normal(size=(n, 2)), rng.normal(size=(n, 2)), keypoint_ids=ids
            )
        handed = []

        def capture(tracks, *args, **kwargs):
            handed.append(tracks)
            raise InsufficientDataError("captured")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "refine_pose", capture)
            consensus, _, refinement, status = solve_pose(
                observations,
                inlier_matches,
                {aid: Pose(r, t) for aid, r, t in zip(observations.anchor_ids,
                                                      observations.anchor_rotations,
                                                      observations.anchor_translations)},
                PipelineConfig(),
                np.random.default_rng(0),
            )
        assert (refinement, status) == (None, "stage1-only: captured")
        inlier_ids = [aid for aid in observations.anchor_ids if aid in consensus.inlier_ids]

        def shown(tracks):
            return [
                (type(t.track_id), t.track_id, t.query_feature.tobytes(),
                 [(aid, f.tobytes()) for aid, f in t.anchors])
                for t in tracks
            ]

        (tracks,) = handed
        assert shown(tracks) == shown(dict_keypoint_tracks(inlier_ids, inlier_matches))


def test_a_set_repeating_a_keypoint_id_fails_as_the_row_by_row_tracks_do():
    linked = {
        "a": MatchSet(np.zeros((3, 2)), np.ones((3, 2)), keypoint_ids=[5, 2, 5]),
        "b": MatchSet(np.zeros((2, 2)), np.ones((2, 2)), keypoint_ids=[2, 5]),
    }
    with pytest.raises(ValueError) as stacked:
        pipeline._keypoint_tracks(list(linked.items()))
    with pytest.raises(ValueError) as row_by_row:
        dict_keypoint_tracks(list(linked), linked)
    assert str(stacked.value) == str(row_by_row.value) == "track 5 repeats an anchor id"


class TestScoreRun:
    def truth(self):
        return {"q1": Pose(np.eye(3), [0.0, 0.0, 0.0]),
                "q2": Pose(rot_x(30.0), [1.0, 2.0, 3.0])}

    def test_perfect_results(self):
        truth = self.truth()
        results = [fake_result(q, t) for q, t in truth.items()]
        report = score_run(results, truth)
        assert report["median_error_m"] == 0.0
        assert report["median_error_deg"] == 0.0
        assert all(v == 100.0 for v in report["accuracy_pct"].values())

    def test_bucket_membership(self):
        truth = self.truth()
        results = [
            fake_result("q1", truth["q1"], d_center=0.1, d_rot_deg=1.0),
            fake_result("q2", truth["q2"], d_center=1.0, d_rot_deg=6.0),
        ]
        report = score_run(results, truth)
        acc = report["accuracy_pct"]
        assert acc["within_0.25m_2deg"] == 50.0
        assert acc["within_0.5m_5deg"] == 50.0
        assert acc["within_5m_10deg"] == 100.0

    def test_buckets_require_both_thresholds(self):
        truth = {"q1": self.truth()["q1"]}
        results = [fake_result("q1", truth["q1"], d_center=0.3, d_rot_deg=1.0)]
        acc = score_run(results, truth)["accuracy_pct"]
        assert acc["within_0.25m_2deg"] == 0.0
        assert acc["within_0.5m_5deg"] == 100.0

    def test_accuracies_are_nested(self):
        truth = self.truth()
        rng = np.random.default_rng(8)
        results = [
            fake_result(q, t, d_center=float(rng.uniform(0, 2)),
                        d_rot_deg=float(rng.uniform(0, 12)))
            for q, t in truth.items()
        ]
        acc = list(score_run(results, truth)["accuracy_pct"].values())
        assert acc[0] <= acc[1] <= acc[2]

    def test_unlocalized_counts_in_denominator(self):
        truth = {"q1": self.truth()["q1"]}
        results = [fake_result("q1", truth["q1"])]
        report = score_run(results, truth, n_unlocalized=1)
        assert all(v == 50.0 for v in report["accuracy_pct"].values())
        assert report["n_unlocalized"] == 1

    def test_empty_results_rejected(self):
        with pytest.raises(InsufficientDataError):
            score_run([], self.truth())

    def test_missing_ground_truth_rejected(self):
        truth = self.truth()
        results = [fake_result("q9", truth["q1"])]
        with pytest.raises(ConfigurationError):
            score_run(results, truth)


class TestResultsCsv:
    def test_round_trip(self, tmp_path):
        _, manifest = scene_dataset(tmp_path / "data", seed=6)
        dataset = load_dataset(manifest)
        results, failures = localize_run(dataset)
        path = tmp_path / "queries.csv"
        write_results_csv(path, results, failures)
        loaded, n_failed = read_results_csv(path)
        assert n_failed == len(failures)
        assert [r.query_id for r in loaded] == [r.query_id for r in results]
        for got, want in zip(loaded, results):
            np.testing.assert_array_equal(
                got.final_pose.translation, want.final_pose.translation
            )
            assert np.abs(got.final_pose.rotation - want.final_pose.rotation).max() < 5e-15
            assert got.error_m == want.error_m

    def test_failure_rows_counted(self, tmp_path):
        from mvloc.pipeline import FailureRecord

        path = tmp_path / "queries.csv"
        write_results_csv(path, [], [FailureRecord("q1", "no anchors")])
        loaded, n_failed = read_results_csv(path)
        assert loaded == []
        assert n_failed == 1


# --------------------------------------------------------------------- cli


class TestCli:
    def test_localize_writes_outputs(self, tmp_path, capsys):
        _, manifest = scene_dataset(tmp_path / "data")
        out = tmp_path / "out"
        code = main(["localize", "--manifest", str(manifest), "--output-dir", str(out)])
        assert code == 0
        assert (out / "queries.csv").is_file()
        report = json.loads((out / "report.json").read_text())
        assert report["n_localized"] == 1
        assert report["score"]["median_error_m"] < 1e-6
        assert "localized 1/1" in capsys.readouterr().out

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        _, manifest = scene_dataset(tmp_path / "data", seed=9, sigma_feat=1e-3)
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            assert main(["localize", "--manifest", str(manifest),
                         "--output-dir", str(out), "--seed", "5"]) == 0
            outs.append(out)
        for name in ("queries.csv", "report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_config_file_and_unknown_keys(self, tmp_path):
        _, manifest = scene_dataset(tmp_path / "data")
        config = tmp_path / "config.json"
        config.write_text('{"top_k": 5, "epi_threshold_px": 1.6}\n')
        assert main(["localize", "--manifest", str(manifest),
                     "--output-dir", str(tmp_path / "ok"), "--config", str(config)]) == 0
        config.write_text('{"not_a_knob": 1}\n')
        assert main(["localize", "--manifest", str(manifest),
                     "--output-dir", str(tmp_path / "bad"), "--config", str(config)]) == 2

    @pytest.mark.parametrize(
        "raw",
        [
            {"top_k": "5"},
            {"top_k": 0},
            {"top_k": True},
            {"min_matches": 8.5},
            {"epi_threshold_px": -0.8},
            {"theta_ray_deg": None},
            {"tau_reproj": 0},
            {"huber_scale": 0.0},
            {"ransac_confidence": 1.0},
            {"epi_threshold_px": 0},
            {"epi_threshold_px": "6"},
            {"epi_threshold_px": True},
            {"epi_threshold_px": float("inf")},
            {"epi_threshold_px": float("nan")},
        ],
    )
    def test_invalid_config_values_exit_2(self, tmp_path, capsys, raw):
        _, manifest = scene_dataset(tmp_path / "data")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        code = main(["localize", "--manifest", str(manifest),
                     "--output-dir", str(tmp_path / "out"), "--config", str(config)])
        assert code == 2
        assert next(iter(raw)) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("gate, query_focal, anchor_focal, named", [
        (5e-324, 800.0, 800.0, 800.0),  # a threshold of 0 at every pair
        (1e308, 0.5, 0.5, 0.5),  # inf below 1 px
        (5e-324, 0.5, 800.0, 800.0),  # 0 at the pair focal 20, yet positive at 0.5
    ])
    def test_unconvertible_pixel_gate_exits_2_naming_the_focal(
        self, tmp_path, capsys, gate, query_focal, anchor_focal, named
    ):
        root = tmp_path / "data"
        _, manifest = scene_dataset(root)
        focals = {cam_id: anchor_focal for cam_id in load_dataset(manifest).intrinsics}
        focals["query"] = query_focal
        write_intrinsics(root / "intrinsics.txt", {
            cam_id: Intrinsics(fx=f, fy=f, cx=320.0, cy=240.0) for cam_id, f in focals.items()
        })
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epi_threshold_px": gate}))
        code = main(["localize", "--manifest", str(manifest),
                     "--output-dir", str(tmp_path / "out"), "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert "epi_threshold_px" in err and f"focal of {named!r} px" in err
        assert not (tmp_path / "out").exists()

    def test_old_gate_key_exits_2_naming_the_pixel_key(self, tmp_path, capsys):
        _, manifest = scene_dataset(tmp_path / "data")
        config = tmp_path / "config.json"
        config.write_text('{"epi_threshold": 0.001}\n')
        code = main(["localize", "--manifest", str(manifest),
                     "--output-dir", str(tmp_path / "out"), "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert "epi_threshold_px" in err and "pixels" in err
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigurationError, match="epi_threshold_px"):
            PipelineConfig.from_dict({"epi_threshold": 1e-3, "epi_threshold_px": 0.8})

    @pytest.mark.parametrize(
        "raw",
        [
            # cos(359 deg) = cos(1 deg): a 359 degree ray gate acted as 1 degree
            {"theta_ray_deg": 359},
            # cos(720 deg / 2) = 1: a 720 degree rotation gate passed nothing
            {"theta_rot_deg": 720},
            {"theta_ray_deg": 180.5},
            {"theta_rot_deg": 181},
        ],
    )
    def test_consensus_gates_past_180_degrees_exit_2(self, tmp_path, capsys, raw):
        _, manifest = scene_dataset(tmp_path / "data")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        code = main(["localize", "--manifest", str(manifest),
                     "--output-dir", str(tmp_path / "out"), "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert next(iter(raw)) in err and "(0, 180.0]" in err
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigurationError, match=next(iter(raw))):
            PipelineConfig(**raw)

    def test_consensus_gates_accept_180_degrees(self):
        PipelineConfig(theta_ray_deg=180, theta_rot_deg=180.0)

    def test_valid_config_values_accepted(self):
        PipelineConfig(top_k=np.int64(5), epi_threshold_px=1.6, theta_ray_deg=3, tau_reproj=0.5)
        PipelineConfig(min_matches=0)

    def test_corrupt_match_file_fails_only_its_query(self, tmp_path):
        root = tmp_path / "data"
        _, manifest = scene_dataset(root, seed=8)
        add_query_copy(root, "q2")
        bad = root / "matches" / "q2__a003.txt"
        lines = bad.read_text().splitlines()
        bad.write_text("\n".join(lines + [lines[1]]) + "\n")  # repeats a keypoint id
        out = tmp_path / "out"
        assert main(["localize", "--manifest", str(manifest), "--output-dir", str(out)]) == 0
        with open(out / "queries.csv", newline="") as handle:
            rows = {row["query_id"]: row for row in csv.DictReader(handle)}
        assert rows["query"]["status"] == "ok"
        assert rows["q2"]["status"].startswith(f"failed: {bad}:{len(lines) + 1}: ")
        report = json.loads((out / "report.json").read_text())
        assert (report["n_localized"], report["n_failed"]) == (1, 1)

    def test_missing_manifest_is_config_error(self, tmp_path):
        code = main(["localize", "--manifest", str(tmp_path / "none.json"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2

    def test_no_localized_query_exit_code(self, tmp_path):
        root = tmp_path / "data"
        _, manifest = scene_dataset(root, seed=3)
        # keep only the single best neighbor so consensus is impossible
        lines = (root / "neighbors.txt").read_text().strip().splitlines()
        (root / "neighbors.txt").write_text("\n".join(lines[:2]) + "\n")
        code = main(["localize", "--manifest", str(manifest),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3

    def test_simulate_subcommand(self, tmp_path):
        out = tmp_path / "study"
        code = main(["simulate", "ablation", "--output-dir", str(out),
                     "--trials", "50", "--seed", "1"])
        assert code == 0
        assert (out / "averaging_ablation.csv").is_file()
        payload = json.loads((out / "averaging_ablation.json").read_text())
        assert {row["method"] for row in payload["rows"]} == {"translation_avg", "ray_center"}

    @pytest.mark.parametrize(
        "study, raw",
        [
            ("ablation", {"trials": "3"}),
            ("ablation", {"trials": 0}),
            ("noise", {"trials": 2.0}),
            ("ablation", {"sigma_deg": "5"}),
            ("ablation", {"sigma_deg": -1.0}),
            ("ksweep", {"sigma_feat": "0.001"}),
            ("ksweep", {"sigma_feat": True}),
            ("ksweep", {"k_values": [2, "5"]}),
            ("ksweep", {"k_values": []}),
            ("ksweep", {"k_values": 5}),
            ("ksweep", {"k_values": [1, 5]}),
            ("noise", {"sigmas_deg": [1.0, None]}),
            ("noise", {"sigmas_deg": 2.0}),
            ("ksweep", {"k_values": [2, 5, 5]}),
            ("ablation", {"scene": 5}),
            ("ablation", {"scene": {"n_points": "60"}}),
            ("ablation", {"scene": {"radius": "5"}}),
            ("ablation", {"scene": {"n_points": 60.5}}),
            ("ablation", {"scene": {"extent": None}}),
            ("noise", {"scene": []}),
            ("ablation", {"scene": {"n_anchors": 20.0}}),
            ("ablation", {"k_values": [2, 3], "sigmas_deg": [1.0]}),
            ("ablation", {"sigma_feat": 1e-3}),
            ("noise", {"sigma_deg": 5.0, "trials": 1}),
            ("noise", {"k_values": [2, 3]}),
            ("ksweep", {"sigmas_deg": [1.0]}),
            ("ksweep", {"sigma_deg": 5.0}),
        ],
    )
    def test_simulate_rejects_bad_config_values(self, tmp_path, capsys, study, raw):
        config = tmp_path / "study.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "o"
        code = main(["simulate", study, "--output-dir", str(out), "--config", str(config)])
        assert code == 2
        # a bad field of the scene object is named by its own key
        key, value = next(iter(raw.items()))
        if isinstance(value, dict):
            key = next(iter(value))
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_rejects_bad_trials_flag(self, tmp_path, capsys):
        code = main(["simulate", "ablation", "--output-dir", str(tmp_path / "o"),
                     "--trials", "0"])
        assert code == 2
        assert "trials must be" in capsys.readouterr().err

    def test_simulate_accepts_valid_config_values(self, tmp_path):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"k_values": [2, 3], "sigma_feat": 0, "trials": 1}))
        out = tmp_path / "o"
        assert main(["simulate", "ksweep", "--output-dir", str(out),
                     "--config", str(config)]) == 0
        assert (out / "k_sweep.csv").is_file()

    @pytest.mark.parametrize(
        "study, defaults",
        [
            ("noise", {"sigmas_deg": [1.0, 2.0, 5.0, 10.0],
                       "scene": {"n_anchors": 20, "layout": "line"}}),
            ("ksweep", {"k_values": [2, 5, 10, 25, 50], "sigma_feat": 1e-3,
                        "scene": {"n_anchors": 50, "layout": "line"}}),
            ("ablation", {"sigma_deg": 5.0, "scene": {"n_anchors": 20, "layout": "line"}}),
        ],
    )
    def test_simulate_spelled_out_defaults_change_nothing(self, tmp_path, study, defaults):
        written = []
        for name, raw in (("empty", {}), ("spelled", defaults)):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(raw))
            out = tmp_path / name
            assert main(["simulate", study, "--output-dir", str(out), "--config", str(config),
                         "--trials", "1", "--seed", "3"]) == 0
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(written[0]) == 2
        assert written[0] == written[1]

    def test_simulate_rejects_unknown_config(self, tmp_path):
        config = tmp_path / "study.json"
        config.write_text('{"bogus": true}\n')
        code = main(["simulate", "noise", "--output-dir", str(tmp_path / "o"),
                     "--config", str(config)])
        assert code == 2

    def test_score_subcommand_round_trips(self, tmp_path):
        root = tmp_path / "data"
        _, manifest = scene_dataset(root, seed=4)
        out = tmp_path / "out"
        assert main(["localize", "--manifest", str(manifest),
                     "--output-dir", str(out)]) == 0
        report_path = tmp_path / "rescore.json"
        code = main(["score", "--results", str(out / "queries.csv"),
                     "--ground-truth", str(root / "ground_truth.txt"),
                     "--output", str(report_path)])
        assert code == 0
        rescored = json.loads(report_path.read_text())
        original = json.loads((out / "report.json").read_text())["score"]
        assert rescored["n_scored"] == original["n_scored"]
        assert abs(rescored["median_error_m"] - original["median_error_m"]) < 1e-9
