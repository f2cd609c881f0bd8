"""Acceptance suite: the guarantees this library commits to, one test per
criterion. Each test prints a CRITERION line in the terminal summary."""

import functools
import json
import time

import numpy as np

from conftest import (
    chordal_l2_mean,
    consistent_observations,
    e1_direct,
    e1_gradient,
    e1_objective,
    grid_polish_minimum,
    observation_rows,
    observation_stack,
    one_vector_skew,
    per_rotation_quat,
    proper_signed_permutations,
    random_rotation,
    random_unit,
    record,
    reference_relative_poses,
    scrambled,
    stable_geodesic_deg,
    with_relative,
)

from mvloc import (
    CorrespondenceTrack,
    MatchSet,
    RansacConfig,
    SceneConfig,
    anchor_ransac,
    center_average,
    cheirality_select,
    decoupled_pose,
    estimate_essential,
    generate_scene,
    markley_rotation_average,
    quat_to_rotation,
    refine_pose,
    triangulate_track,
)
from mvloc.cli import main as cli_main
from mvloc.geometry import relative_poses, rotations_to_quats
from mvloc.relpose import candidates_of, decompose_essentials
from mvloc.simulate import export_scene_dataset, noisy_features, run_k_sweep, run_noise_study


def criterion(n):
    """Record one PASS/FAIL summary line per criterion, whatever happens."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                record(f"CRITERION {n}: FAIL - {type(exc).__name__}: {exc}")
                raise
            record(f"CRITERION {n}: PASS - {detail}")

        return wrapper

    return deco


def ray_objective(origins, dirs, candidates):
    """Sum of squared ray-to-point distances, evaluated from first principles
    for a batch of candidate centers (P, 3) -> (P,)."""
    u = candidates[:, None, :] - origins[None, :, :]
    along = np.einsum("pkj,kj->pk", u, dirs)
    perp = u - along[:, :, None] * dirs[None, :, :]
    return np.einsum("pkj,pkj->p", perp, perp)


@criterion(1)
def test_criterion_01_center_optimality():
    rng = np.random.default_rng(10)
    start = time.perf_counter()
    worst_recovery = 0.0
    n_sets = 100
    for _ in range(n_sets):
        k = int(rng.integers(2, 31))
        center = rng.uniform(-3.0, 3.0, 3)
        origins = rng.uniform(-3.0, 3.0, (k, 3))
        while np.linalg.norm(np.cross(center - origins[0], center - origins[1])) < 1e-3:
            origins = rng.uniform(-3.0, 3.0, (k, 3))
        exact_dirs = center - origins
        exact_dirs /= np.linalg.norm(exact_dirs, axis=1, keepdims=True)

        # zero-noise bundle must return the generating point
        solution = center_average(origins, exact_dirs)
        worst_recovery = max(worst_recovery, float(np.linalg.norm(solution.center - center)))

        # noisy bundle: the solution must not be beatable by nearby points
        noisy = exact_dirs + rng.normal(0.0, 0.01, (k, 3))
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        noisy_solution = center_average(origins, noisy)
        deltas = rng.normal(size=(200, 3))
        deltas = 1e-3 * deltas / np.linalg.norm(deltas, axis=1, keepdims=True)
        candidates = np.vstack([noisy_solution.center[None, :],
                                noisy_solution.center + deltas])
        values = ray_objective(origins, noisy, candidates)
        assert np.all(values[1:] >= values[0] - 1e-12), "perturbation beat the solution"

    elapsed = time.perf_counter() - start
    assert worst_recovery < 1e-8, f"zero-noise recovery {worst_recovery:.3e} m"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    return (f"100 bundles x 200 perturbations never beat the solution; "
            f"zero-noise recovery <= {worst_recovery:.1e} m; {elapsed:.2f} s")


def ray_center(stack):
    return center_average(stack.centers, stack.ray_directions).center


@criterion(2)
def test_criterion_02_decoupling_invariants():
    rng = np.random.default_rng(20)
    observations, _ = consistent_observations(rng, 12)
    baseline = decoupled_pose(observations)
    baseline_center = ray_center(observations)
    backward = [-r.T @ d for r, d in zip(observations.rel_rotations, observations.rel_directions)]

    # rotation estimate: replacing every translation direction must not move
    # a single bit of the output
    for _ in range(100):
        swapped = with_relative(
            observations, observations.rel_rotations, [random_unit(rng) for _ in backward]
        )
        assert not np.array_equal(swapped.rel_directions, observations.rel_directions)
        np.testing.assert_array_equal(
            decoupled_pose(swapped).rotation, baseline.rotation
        )

    # center estimate: replacing every relative rotation while holding the
    # anchor-frame direction fixed must not move a single bit either. Signed
    # permutation matrices transport that direction exactly, so the fixed
    # input survives the stack's (rotation, direction) storage.
    perms = proper_signed_permutations()
    for _ in range(100):
        rotations = [perms[int(rng.integers(len(perms)))] for _ in backward]
        swapped = with_relative(
            observations, rotations, [-p @ t_kq for p, t_kq in zip(rotations, backward)]
        )
        assert not np.array_equal(swapped.rel_rotations, observations.rel_rotations)
        np.testing.assert_array_equal(ray_center(swapped), baseline_center)

    # generic rotations can only transport the direction up to rounding, so
    # the interface-level invariance is checked at a float tolerance
    for _ in range(20):
        rotations = [random_rotation(rng) for _ in backward]
        swapped = with_relative(
            observations, rotations, [-r @ t_kq for r, t_kq in zip(rotations, backward)]
        )
        np.testing.assert_allclose(ray_center(swapped), baseline_center, atol=1e-9)

    return "rotation and center outputs bit-identical across 100 swaps each"


@criterion(3)
def test_criterion_03_noise_study_ordering():
    start = time.perf_counter()
    result = run_noise_study(seed=0)
    elapsed = time.perf_counter() - start
    meds = {}
    for row in result.rows:
        meds.setdefault(row["sigma_rot_deg"], {})[row["method"]] = row["median_center_err"]
    sigmas = sorted(meds)
    assert sigmas == [1.0, 2.0, 5.0, 10.0]
    for sigma in sigmas:
        assert meds[sigma]["decoupled"] <= meds[sigma]["govindu"], f"sigma {sigma}"
    gap_lo = meds[1.0]["govindu"] - meds[1.0]["decoupled"]
    gap_hi = meds[10.0]["govindu"] - meds[10.0]["decoupled"]
    assert gap_hi > gap_lo
    assert elapsed < 120.0, f"took {elapsed:.0f} s"
    return (f"decoupled <= govindu at all 4 sigmas; gap {gap_lo:.3f} m at 1 deg "
            f"-> {gap_hi:.3f} m at 10 deg; {elapsed:.0f} s")


def chordal_objective(rotation, rotations):
    return float(sum(np.sum((rotation - r) ** 2) for r in rotations))


@criterion(4)
def test_criterion_04_rotation_mean_formulations():
    rng = np.random.default_rng(40)
    worst_gap = 0.0
    for _ in range(1000):
        rotations = [random_rotation(rng) for _ in range(int(rng.integers(3, 11)))]
        eig = markley_rotation_average(rotations_to_quats(np.array(rotations)))
        proj = chordal_l2_mean(rotations)
        worst_gap = max(worst_gap, stable_geodesic_deg(eig, proj))
    assert worst_gap < 1e-8, f"formulations disagree by {worst_gap:.3e} deg"

    beaten = 0
    for _ in range(20):
        rotations = [random_rotation(rng) for _ in range(5)]
        mean = markley_rotation_average(rotations_to_quats(np.array(rotations)))
        best = chordal_objective(mean, rotations)
        for _ in range(1000):
            q = rng.normal(size=4)
            value = chordal_objective(quat_to_rotation(q / np.linalg.norm(q)), rotations)
            if value < best - 1e-12:
                beaten += 1
    assert beaten == 0, f"{beaten} random quaternions beat the mean"
    return (f"eigen vs projection within {worst_gap:.1e} deg on 1000 instances; "
            f"unbeaten by 20 x 1000 random quaternions")


@criterion(5)
def test_criterion_05_triangulation_oracle():
    worst_fixture = 0.0
    for i in range(20):
        rng = np.random.default_rng(200 + i)
        scene = generate_scene(SceneConfig(n_points=8, n_anchors=2, layout="line"),
                               seed=300 + i)
        point = scene.points[0]
        pose_map = {k: p for k, p in enumerate(scene.anchor_poses)}
        views = []
        for k, pose in pose_map.items():
            local = point @ pose.rotation.T + pose.translation
            feat = local[:2] / local[2] + rng.normal(0.0, 1e-3, 2)
            views.append((k, feat))
        q_local = point @ scene.query_pose.rotation.T + scene.query_pose.translation
        track = CorrespondenceTrack(0, q_local[:2] / q_local[2], tuple(views))

        latent = triangulate_track(track, pose_map)
        ref_feat, feats, rels = reference_relative_poses(
            track, pose_map, latent.reference_view
        )
        ref_pose = pose_map[latent.reference_view]
        true_depth = float((point @ ref_pose.rotation.T + ref_pose.translation)[2])
        _, _, oracle_value = grid_polish_minimum(
            ref_feat, feats, rels, g_center=ref_feat, rho_center=true_depth
        )
        worst_fixture = max(worst_fixture, abs(latent.e1_residual - oracle_value))
    assert worst_fixture < 1e-10, f"solver vs grid oracle gap {worst_fixture:.3e}"

    rng = np.random.default_rng(50)
    worst_grad = 0.0
    h = 1e-6
    for i in range(100):
        scene = generate_scene(
            SceneConfig(n_points=8, n_anchors=int(rng.integers(2, 6)), layout="line"),
            seed=500 + i,
        )
        point = scene.points[0]
        pose_map = {k: p for k, p in enumerate(scene.anchor_poses)}
        views = []
        for k, pose in pose_map.items():
            local = point @ pose.rotation.T + pose.translation
            views.append((k, local[:2] / local[2] + rng.normal(0.0, 1e-3, 2)))
        q_local = point @ scene.query_pose.rotation.T + scene.query_pose.translation
        track = CorrespondenceTrack(0, q_local[:2] / q_local[2], tuple(views))
        latent = triangulate_track(track, pose_map)
        gamma = latent.ref_feature + rng.normal(0.0, 5e-4, 2)
        rho = latent.ref_depth * float(1.0 + rng.uniform(-0.02, 0.02))

        grad = e1_gradient(track, pose_map, gamma, rho)
        numeric = np.empty(3)
        for axis in range(3):
            lo = [gamma[0], gamma[1], rho]
            hi = [gamma[0], gamma[1], rho]
            lo[axis] -= h
            hi[axis] += h
            numeric[axis] = (
                e1_objective(track, pose_map, np.array(hi[:2]), hi[2])
                - e1_objective(track, pose_map, np.array(lo[:2]), lo[2])
            ) / (2.0 * h)
        rel_err = np.linalg.norm(grad - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst_grad = max(worst_grad, float(rel_err))
    assert worst_grad < 1e-5, f"gradient relative error {worst_grad:.3e}"
    return (f"solver matches grid oracle within {worst_fixture:.1e} on 20 fixtures; "
            f"gradient vs central differences within {worst_grad:.1e} on 100 configs")


@criterion(6)
def test_criterion_06_refinement_improves():
    trials = 200
    improved = 0
    energy_ok = 0
    ransac = RansacConfig(threshold=8e-3, max_iters=800)
    for t in range(trials):
        scene = generate_scene(
            SceneConfig(n_points=50, n_anchors=8, layout="line"), seed=2000 + t
        )
        rng = np.random.default_rng(np.random.SeedSequence([77, t]))
        q_feats, a_feats = noisy_features(scene, 1e-3, rng)
        kp_ids = np.arange(len(scene.points))

        rels = []
        masks = {}
        for k in range(8):
            matches = MatchSet(q_feats, a_feats[k], keypoint_ids=kp_ids)
            essential, mask = estimate_essential(matches, config=ransac, seed=rng)
            rotations, directions = decompose_essentials(essential[None])
            rels.append(cheirality_select(
                candidates_of(rotations[0], directions[0]), matches.subset(mask)
            ))
            masks[k] = mask
        observations = observation_stack(
            range(8), scene.anchor_poses, [rel.rotation for rel in rels],
            [rel.direction for rel in rels],
        )

        consensus = anchor_ransac(observations, seed=rng)
        inliers = observations.take(
            [k for k, aid in enumerate(observations.anchor_ids) if aid in consensus.inlier_ids]
        )
        stage1 = decoupled_pose(inliers)
        inlier_ids = set(inliers.anchor_ids)

        tracks = []
        for j in range(len(scene.points)):
            views = [(k, a_feats[k][j]) for k in range(8)
                     if k in inlier_ids and masks[k][j]]
            if len(views) >= 2:
                tracks.append(CorrespondenceTrack(int(j), q_feats[j], tuple(views)))
        pose_map = {k: p for k, p in enumerate(scene.anchor_poses)}
        # wide reprojection gate: stage 1 can sit several cm off under this
        # noise, and the criterion wants every trial refined, not pre-filtered
        result = refine_pose(tracks, pose_map, stage1, tau_reproj=0.2)

        truth = scene.query_pose.center()
        err_stage1 = np.linalg.norm(stage1.center() - truth)
        err_refined = np.linalg.norm(result.pose.center() - truth)
        improved += err_refined < err_stage1
        energy_ok += result.e2_final <= result.e2_initial

    assert energy_ok == trials, f"energy increased in {trials - energy_ok} trials"
    assert improved >= 0.9 * trials, f"improved only {improved}/{trials}"
    return f"refined beat stage 1 in {improved}/{trials}; energy never increased"


def positive_depth_votes(candidate, feats_q, feats_a):
    votes = 0
    for gq, ga in zip(feats_q, feats_a):
        dq = np.array([gq[0], gq[1], 1.0])
        da = np.array([ga[0], ga[1], 1.0])
        design = np.column_stack([candidate.rotation @ da, -dq])
        depths, *_ = np.linalg.lstsq(design, -candidate.direction, rcond=None)
        if depths[0] > 0 and depths[1] > 0:
            votes += 1
    return votes


@criterion(7)
def test_criterion_07_cheirality():
    scenes = 200
    for s in range(scenes):
        scene = generate_scene(
            SceneConfig(n_points=30, n_anchors=2, layout="line"), seed=s
        )
        anchor = scene.anchor_poses[0]
        (rel_rotation,), (rel_direction,) = relative_poses(
            scene.query_pose, anchor.rotation[None], anchor.translation[None]
        )
        q_feats, a_feats = noisy_features(scene, 0.0, np.random.default_rng(0))
        rotations, directions = decompose_essentials(
            (one_vector_skew(rel_direction) @ rel_rotation)[None]
        )
        candidates = candidates_of(rotations[0], directions[0])
        assert len(candidates) == 4

        counts = [positive_depth_votes(c, q_feats, a_feats[0]) for c in candidates]
        top = max(counts)
        assert counts.count(top) == 1, f"scene {s}: tied vote {counts}"
        winner = candidates[int(np.argmax(counts))]
        assert np.abs(winner.rotation - rel_rotation).max() < 1e-6
        assert np.abs(winner.direction - rel_direction).max() < 1e-6

        chosen = cheirality_select(candidates, MatchSet(q_feats, a_feats[0]))
        assert np.array_equal(chosen.rotation, winner.rotation)
        assert np.array_equal(chosen.direction, winner.direction)
    return f"unique positive-depth winner matched the true pose on {scenes}/200 scenes"


def brute_force_consensus(observations, theta_ray_deg=5.0, theta_rot_deg=10.0):
    """Exhaustive-pair consensus, reimplemented from the geometry alone."""
    origins, dirs, quats = [], [], []
    for rotation, translation, rel_rotation, rel_direction in observation_rows(observations):
        origins.append(-rotation.T @ translation)
        t_kq = -rel_rotation.T @ rel_direction
        d = rotation.T @ t_kq
        dirs.append(d / np.linalg.norm(d))
        quats.append(per_rotation_quat(rel_rotation @ rotation))
    origins = np.array(origins)
    dirs = np.array(dirs)
    quats = np.array(quats)
    cos_ray = np.cos(np.radians(theta_ray_deg))
    cos_half = np.cos(np.radians(theta_rot_deg) / 2.0)

    def inliers_of(center, hyp_q):
        u = center - origins
        dist = np.linalg.norm(u, axis=1)
        along = np.einsum("ij,ij->i", dirs, u)
        ray_ok = (dist < 1e-12) | (along >= cos_ray * dist)
        rot_ok = np.abs(quats @ hyp_q) >= cos_half
        return ray_ok & rot_ok

    best = (-1, None)
    for i in range(len(origins)):
        for j in range(i + 1, len(origins)):
            w = origins[i] - origins[j]
            b = dirs[i] @ dirs[j]
            denom = 1.0 - b * b
            if denom <= 1e-12 or np.linalg.norm(w) <= 1e-12:
                continue
            d = dirs[i] @ w
            e = dirs[j] @ w
            t1 = (b * e - d) / denom
            t2 = (e - b * d) / denom
            center = 0.5 * (origins[i] + t1 * dirs[i] + origins[j] + t2 * dirs[j])
            qj = quats[j] if quats[i] @ quats[j] >= 0 else -quats[j]
            hyp_q = quats[i] + qj
            hyp_q = hyp_q / np.linalg.norm(hyp_q)
            mask = inliers_of(center, hyp_q)
            if not (mask[i] and mask[j]):
                continue
            if int(mask.sum()) > best[0]:
                best = (int(mask.sum()), mask)
    return best


@criterion(8)
def test_criterion_08_outlier_rejection():
    instances = 100
    for i in range(instances):
        rng = np.random.default_rng(800 + i)
        observations, _ = consistent_observations(rng, 20)
        outlier_idx = set(rng.choice(20, size=5, replace=False).tolist())
        planted = scrambled(observations, rng, outlier_idx.__contains__)
        clean_ids = {aid for k, aid in enumerate(observations.anchor_ids)
                     if k not in outlier_idx}

        consensus = anchor_ransac(planted)
        count, mask = brute_force_consensus(planted)
        brute_ids = {planted.anchor_ids[k] for k in np.flatnonzero(mask)}

        assert consensus.inlier_ids == frozenset(clean_ids), f"instance {i}"
        assert brute_ids == clean_ids, f"instance {i}: brute force disagrees"
        assert count == 15
    return f"exact 15-inlier recovery on {instances}/100 instances, matching brute force"


@criterion(9)
def test_criterion_09_k_sweep_trend():
    start = time.perf_counter()
    result = run_k_sweep(
        SceneConfig(n_anchors=50, layout="line"),
        k_values=(2, 10, 50),
        sigma_feat=1e-3,
        trials=300,
        seed=0,
    )
    elapsed = time.perf_counter() - start
    meds = {row["k"]: row["median_center_err"] for row in result.rows}
    assert meds[50] < meds[10] < meds[2], f"ordering violated: {meds}"
    assert elapsed < 300.0, f"took {elapsed:.0f} s"
    return (f"median err {meds[2]:.2e} (K=2) > {meds[10]:.2e} (K=10) > "
            f"{meds[50]:.2e} (K=50); {elapsed:.0f} s")


@criterion(10)
def test_criterion_10_cli_round_trip(tmp_path):
    scene = generate_scene(
        SceneConfig(n_points=40, n_anchors=6, layout="line"), seed=123
    )
    manifest = export_scene_dataset(scene, tmp_path / "data", sigma_feat=0.0, seed=0)

    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        code = cli_main(["localize", "--manifest", str(manifest),
                         "--output-dir", str(out), "--seed", "7"])
        assert code == 0
        outs.append(out)

    report = json.loads((outs[0] / "report.json").read_text())
    err_m = report["score"]["median_error_m"]
    err_deg = report["score"]["median_error_deg"]
    assert report["n_localized"] == 1
    assert err_m < 1e-6, f"center error {err_m:.3e} m"
    assert err_deg < 1e-5, f"rotation error {err_deg:.3e} deg"
    for name in ("queries.csv", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    return (f"zero-noise CLI run err {err_m:.1e} m / {err_deg:.1e} deg; "
            f"same-seed reruns byte-identical")
