"""Synthetic scenes and Monte Carlo studies.

Scenes place a point cloud at the origin with anchor cameras on a ring or a
line looking inward, plus a held-out query camera. Studies compare the
averaging schemes under controlled relative-pose noise, sweep the anchor
count through the full matching pipeline, and isolate the center-estimation
stage in an ablation. Studies default to the line layout, where the anchors
cluster near the query and view the scene from one side, which is the
geometry the toolkit targets; the ring layout surrounds the scene instead
and is kept for generation and visibility tests. All runs are deterministic in the seed: every trial
derives its generator from ``SeedSequence([seed, ...trial index])``, so the
stream partition is the same whether trials run sequentially or not. The k
sweep also gives each anchor's RANSAC and each K's consensus their own
stream of the trial.
"""

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real

import numpy as np

from .averaging import (
    ObservationStack,
    center_average,
    govindu_rotation_average,
    govindu_translation_average,
    markley_rotation_average,
)
from .consensus import decoupled_pose
from .errors import ConfigurationError, GenerationError, MvlocError
from .geometry import (
    Pose,
    camera_centers,
    ensure_rotations,
    geodesic_angle,
    relative_poses,
    rotvecs_to_rotations,
    row_norms,
    unit_directions,
    unit_rows,
)
from .pipeline import PipelineConfig, estimate_anchors, pose_error, solve_pose
from .relpose import MatchSet

MAX_GENERATION_ATTEMPTS = 100
SKIP_FRACTION_LIMIT = 0.1
# Focal length, in pixels, of the synthetic cameras: the shared intrinsic of
# ``export_scene_dataset`` and the pixel scale of the k sweep's RANSAC gate.
FOCAL_PX = 800.0


@dataclass(frozen=True)
class SceneConfig:
    """Geometry of a synthetic scene."""

    n_points: int = 60
    n_anchors: int = 8
    layout: str = "ring"
    radius: float = 5.0
    extent: float = 1.5

    def __post_init__(self):
        for name, minimum in (("n_points", 8), ("n_anchors", 2)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
                raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
        for name in ("radius", "extent"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.layout not in ("ring", "line"):
            raise ValueError(f"layout must be 'ring' or 'line', got {self.layout!r}")
        if not 0 < self.extent < self.radius / 2:
            raise ValueError("extent must be positive and well inside the camera radius")


@dataclass(frozen=True)
class NoiseSpec:
    """Perturbation magnitudes for synthesized observations."""

    sigma_rot_deg: float = 0.0
    sigma_dir_deg: float = 0.0

    def __post_init__(self):
        for name in ("sigma_rot_deg", "sigma_dir_deg"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class SyntheticScene:
    points: np.ndarray
    anchor_poses: tuple
    query_pose: Pose
    config: SceneConfig
    seed: int


def _look_at(centers, targets):
    """World-to-camera rotations, as built and not yet validated, of
    cameras at the (K, 3) ``centers`` whose optical axes pass through the
    (K, 3) ``targets``."""
    forward = unit_rows(targets - centers)
    x = np.cross([0.0, 0.0, 1.0], forward)
    vertical = row_norms(x) < 1e-9
    if np.any(vertical):
        x[vertical] = np.cross([1.0, 0.0, 0.0], forward[vertical])
    x = unit_rows(x)
    return np.stack([x, np.cross(forward, x), forward], axis=1)


def _poses_at(centers, targets):
    """Stacked look-at poses: (K, 3, 3) rotations and (K, 3) translations.

    The translation is ``-R c`` of the look-at rotation as built, before
    :func:`ensure_rotations` checks it. The rare rotation that the check
    re-projects onto SO(3) keeps that translation, so its camera center is
    not exactly ``c``.
    """
    raw = _look_at(centers, targets)
    translations = -(raw @ centers[:, :, None])[:, :, 0]
    rotations = ensure_rotations(raw)
    if not np.all(np.isfinite(translations)):
        raise ValueError("translation contains non-finite values")
    return rotations, translations


def _project(points, rotations, translations):
    """Features (K, N, 2) and depths (K, N) of (N, 3) world points in K
    cameras, one stacked ``points @ R^T + T``; rows behind a camera hold
    garbage features."""
    cam = points @ np.swapaxes(rotations, 1, 2) + translations[:, None, :]
    depths = cam[:, :, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        feats = cam[:, :, :2] / depths[:, :, None]
    return feats, depths


def _stack(poses):
    """(K, 3, 3) rotations and (K, 3) translations of a sequence of poses."""
    rotations = np.array([p.rotation for p in poses]).reshape(-1, 3, 3)
    translations = np.array([p.translation for p in poses]).reshape(-1, 3)
    return rotations, translations


def _scene_valid(points, rotations, translations, radius):
    """All points safely in front of every camera, no coincident cameras;
    the cameras are given as stacked rotations and translations."""
    centers = camera_centers(rotations, translations)
    i, j = np.triu_indices(len(centers), k=1)
    if np.any(np.linalg.norm(centers[i] - centers[j], axis=1) < 1e-3 * radius):
        return False
    feats, depths = _project(points, rotations, translations)
    return not (
        np.any(depths.min(axis=1) <= 0.2 * radius)
        or np.any(np.abs(feats).max(axis=(1, 2)) >= 10.0)
    )


def generate_scene(config=None, seed=0):
    """Deterministic synthetic scene for the given config and seed.

    Retries internal draws (with a derived sub-seed, so the scene is still a
    pure function of ``seed``) until the visibility constraints hold; raises
    GenerationError if that never happens. All cameras are built in one
    stacked look-at pass; each translation comes from the look-at rotation
    before validation (see :func:`_poses_at`).
    """
    if config is None:
        config = SceneConfig()
    n = config.n_anchors
    for attempt in range(MAX_GENERATION_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        points = rng.uniform(-config.extent, config.extent, (config.n_points, 3))
        centroid = points.mean(axis=0)

        if config.layout == "ring":
            angles = 2 * np.pi * np.arange(n) / n + rng.uniform(-0.3, 0.3, n) * (2 * np.pi / n)
            heights = rng.uniform(-0.15, 0.15, n) * config.radius
            centers = centroid + np.column_stack(
                [
                    config.radius * np.cos(angles),
                    config.radius * np.sin(angles),
                    heights,
                ]
            )
            q_angle = rng.uniform(0.0, 2 * np.pi)
            q_radius = config.radius * rng.uniform(0.75, 0.9)
            q_center = centroid + np.array(
                [
                    q_radius * np.cos(q_angle),
                    q_radius * np.sin(q_angle),
                    rng.uniform(-0.15, 0.15) * config.radius,
                ]
            )
        else:  # line
            span = (np.arange(n) / max(n - 1, 1) - 0.5) * config.radius
            heights = rng.uniform(-0.15, 0.15, n) * config.radius
            centers = centroid + np.column_stack(
                [span, np.full(n, -config.radius), heights]
            )
            q_center = centroid + np.array(
                [
                    rng.uniform(-0.25, 0.25) * config.radius,
                    -config.radius * rng.uniform(0.75, 0.9),
                    rng.uniform(-0.15, 0.15) * config.radius,
                ]
            )

        targets = centroid + rng.normal(0.0, 0.03 * config.extent, (n, 3))
        q_target = centroid + rng.normal(0.0, 0.03 * config.extent, 3)
        rotations, translations = _poses_at(
            np.vstack([centers, q_center]), np.vstack([targets, q_target])
        )

        if _scene_valid(points, rotations, translations, config.radius):
            poses = [Pose._from_validated(r, t) for r, t in zip(rotations, translations)]
            return SyntheticScene(
                points=points,
                anchor_poses=tuple(poses[:n]),
                query_pose=poses[n],
                config=config,
                seed=seed,
            )
    raise GenerationError(
        f"no valid scene in {MAX_GENERATION_ATTEMPTS} attempts for seed {seed}"
    )


def _perturb(rotations, directions, noise, rng):
    """Noisy copies of K relative poses given as (K, 3, 3) rotations and
    (K, 3) unit directions.

    Each rotation is left-multiplied by exp([w]_x) with w ~ N(0, sigma_rot^2 I)
    and each direction rotated the same way at sigma_dir. One (K, 2, 3)
    normal draw holds every pose's w and then v, the order of K
    one-pose draws; both happen regardless of the sigmas so the generator
    stream does not depend on which are zero, and a zero sigma leaves that
    component exactly unchanged. Returns validated stacks.
    """
    scale = np.radians([[noise.sigma_rot_deg], [noise.sigma_dir_deg]])
    draws = rng.normal(0.0, scale, (len(rotations), 2, 3))
    if noise.sigma_rot_deg > 0:
        rotations = rotvecs_to_rotations(draws[:, 0]) @ rotations
    if noise.sigma_dir_deg > 0:
        directions = (rotvecs_to_rotations(draws[:, 1]) @ directions[:, :, None])[:, :, 0]
    return ensure_rotations(rotations), unit_directions(directions)


def synthesize_observations(scene, noise, rng, count=None):
    """ObservationStack of the first ``count`` anchors (default all), ids
    0..K-1, with exact relative poses perturbed per ``noise`` (see
    :func:`_perturb`), all anchors in one stacked pass."""
    rotations, translations = _stack(scene.anchor_poses[:count])
    rel_rotations, rel_directions = _perturb(
        *relative_poses(scene.query_pose, rotations, translations), noise, rng
    )
    return ObservationStack(
        range(len(rotations)), rotations, translations, rel_rotations, rel_directions
    )


def noisy_features(scene, sigma, rng):
    """Observed features of all scene points in the query and every anchor.

    Returns ``(query (N, 2), anchors (K, N, 2))``, exact projections plus
    iid gaussian noise of the given sigma on each coordinate.
    """
    feats, depths = _project(scene.points, *_stack((*scene.anchor_poses, scene.query_pose)))
    if depths[-1].min() <= 0:
        raise GenerationError("scene point behind the query camera")
    if depths[:-1].min() <= 0:
        raise GenerationError("scene point behind an anchor camera")
    q_feats, a_feats = feats[-1], feats[:-1]
    if sigma > 0:
        q_feats = q_feats + rng.normal(0.0, sigma, q_feats.shape)
        a_feats = a_feats + rng.normal(0.0, sigma, a_feats.shape)
    return q_feats, a_feats


@dataclass
class StudyResult:
    """Aggregate table plus per-trial records of one Monte Carlo study."""

    name: str
    seed: int
    config: dict
    rows: list = field(default_factory=list)
    trial_records: list = field(default_factory=list)


def _fmt_cell(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_study_csv(result, path):
    """Aggregate rows as CSV; floats carry full round-trip precision."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if result.rows:
            header = list(result.rows[0].keys())
            writer.writerow(header)
            for row in result.rows:
                writer.writerow([_fmt_cell(row[k]) for k in header])


def write_study_json(result, path):
    """Full study record (config echo, seed, rows, per-trial data) as JSON."""
    payload = {
        "name": result.name,
        "seed": result.seed,
        "config": result.config,
        "rows": result.rows,
        "trial_records": result.trial_records,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _check_skip_fraction(skipped, trials, label):
    if skipped > SKIP_FRACTION_LIMIT * trials:
        raise ConfigurationError(
            f"{label}: {skipped}/{trials} trials degenerate; configuration unusable"
        )


def _as_noise_spec(cell):
    """Grid cells may be NoiseSpec instances or bare sigmas in degrees (a
    bare sigma applies equally to rotation and direction)."""
    if isinstance(cell, NoiseSpec):
        return cell
    return NoiseSpec(sigma_rot_deg=float(cell), sigma_dir_deg=float(cell))


def run_noise_study(scene_config=None, noise_grid=(1.0, 2.0, 5.0, 10.0), trials=500, seed=0):
    """Median pose error of coupled vs decoupled averaging across noise levels.

    Method ``govindu``: quaternion-stack rotation average plus reweighted
    translation average, center read off as -R^T T. Method ``decoupled``:
    chordal rotation mean plus closed-form ray center. Each trial draws a
    fresh scene and perturbs the exact relative poses per the grid cell.
    """
    if scene_config is None:
        scene_config = SceneConfig(n_anchors=20, layout="line")
    grid = [_as_noise_spec(cell) for cell in noise_grid]
    result = StudyResult(
        name="noise_study",
        seed=seed,
        config={
            "scene": asdict(scene_config),
            "noise_grid": [asdict(spec) for spec in grid],
            "trials": trials,
        },
    )
    for gi, noise in enumerate(grid):
        errors = {"govindu": [], "decoupled": []}
        skipped = 0
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([seed, gi, trial]))
            scene = generate_scene(scene_config, seed=int(rng.integers(0, 2**31 - 1)))
            stack = synthesize_observations(scene, noise, rng)
            c_true = scene.query_pose.center()
            r_true = scene.query_pose.rotation
            try:
                r_gov = govindu_rotation_average(stack)
                t_gov = govindu_translation_average(stack)
                pose_dec = decoupled_pose(stack)
            except MvlocError:
                skipped += 1
                continue
            c_gov = -r_gov.T @ t_gov
            errors["govindu"].append(
                (np.linalg.norm(c_gov - c_true), geodesic_angle(r_gov, r_true))
            )
            errors["decoupled"].append(pose_error(pose_dec, scene.query_pose))
        _check_skip_fraction(skipped, trials, f"noise study cell {gi}")
        for method in ("govindu", "decoupled"):
            errs = np.array(errors[method])
            result.rows.append(
                {
                    "sigma_rot_deg": noise.sigma_rot_deg,
                    "sigma_dir_deg": noise.sigma_dir_deg,
                    "method": method,
                    "median_center_err": float(np.median(errs[:, 0])),
                    "median_rot_err_deg": float(np.median(errs[:, 1])),
                    "trials_used": len(errs),
                    "skipped": skipped,
                }
            )
    return result


def sign_test_pvalue(wins_a, wins_b):
    """Exact two-sided binomial sign test p-value (ties excluded upstream)."""
    n = wins_a + wins_b
    if n == 0:
        return 1.0
    k = min(wins_a, wins_b)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2**n
    return min(1.0, 2.0 * tail)


def run_averaging_ablation(scene_config=None, noise=5.0, trials=500, seed=0):
    """Isolate the center-estimation stage.

    Both arms share the chordal rotation mean; they differ only in the
    center: translation averaging (-R^T T_avg) vs the closed-form ray
    center. Per-trial error pairs are recorded with a sign test on which arm
    wins.
    """
    if scene_config is None:
        scene_config = SceneConfig(n_anchors=20, layout="line")
    noise = _as_noise_spec(noise)
    result = StudyResult(
        name="averaging_ablation",
        seed=seed,
        config={
            "scene": asdict(scene_config),
            "noise": asdict(noise),
            "trials": trials,
        },
    )
    errs_translation = []
    errs_ray = []
    skipped = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        scene = generate_scene(scene_config, seed=int(rng.integers(0, 2**31 - 1)))
        stack = synthesize_observations(scene, noise, rng)
        c_true = scene.query_pose.center()
        try:
            rotation = markley_rotation_average(stack.quats)
            t_avg = govindu_translation_average(stack)
            c_ray = center_average(stack.centers, stack.ray_directions).center
        except MvlocError:
            skipped += 1
            continue
        err_t = float(np.linalg.norm(-rotation.T @ t_avg - c_true))
        err_r = float(np.linalg.norm(c_ray - c_true))
        errs_translation.append(err_t)
        errs_ray.append(err_r)
        result.trial_records.append(
            {"trial": trial, "err_translation_avg": err_t, "err_ray_center": err_r}
        )
    _check_skip_fraction(skipped, trials, "averaging ablation")

    et = np.array(errs_translation)
    er = np.array(errs_ray)
    wins_ray = int(np.sum(er < et))
    wins_translation = int(np.sum(et < er))
    pvalue = sign_test_pvalue(wins_ray, wins_translation)
    for method, errs, wins in (
        ("translation_avg", et, wins_translation),
        ("ray_center", er, wins_ray),
    ):
        result.rows.append(
            {
                "sigma_rot_deg": noise.sigma_rot_deg,
                "sigma_dir_deg": noise.sigma_dir_deg,
                "method": method,
                "median_center_err": float(np.median(errs)),
                "wins": wins,
                "sign_test_p": pvalue,
                "trials_used": len(errs),
                "skipped": skipped,
            }
        )
    return result


def export_scene_dataset(scene, root, sigma_feat=0.0, seed=0, query_id="query"):
    """Write a scene as a pipeline dataset (manifest + files) under ``root``.

    Every scene point is matched between the query and every anchor, with
    optional feature noise, through one shared pinhole intrinsic of focal
    length ``FOCAL_PX``. Ground truth for the query is included. Returns the
    manifest path.
    """
    from .dataset import Intrinsics, write_dataset

    intrinsics = Intrinsics(fx=FOCAL_PX, fy=FOCAL_PX, cx=320.0, cy=240.0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(scene.points)]))
    q_feats, a_feats = noisy_features(scene, sigma_feat, rng)

    anchor_ids = [f"a{k:03d}" for k in range(len(scene.anchor_poses))]
    anchors = {aid: pose for aid, pose in zip(anchor_ids, scene.anchor_poses)}
    intr_table = {aid: intrinsics for aid in anchor_ids}
    intr_table[query_id] = intrinsics

    q_center = scene.query_pose.center()
    neighbors = {
        query_id: sorted(
            (
                (aid, 1.0 / (1.0 + float(np.linalg.norm(pose.center() - q_center))))
                for aid, pose in anchors.items()
            ),
            key=lambda item: (-item[1], item[0]),
        )
    }

    kp_ids = np.arange(len(scene.points))
    uv_q = intrinsics.denormalize(q_feats)
    matches = {}
    for k, aid in enumerate(anchor_ids):
        matches[(query_id, aid)] = (kp_ids, uv_q, intrinsics.denormalize(a_feats[k]))

    return write_dataset(
        root,
        anchors=anchors,
        intrinsics=intr_table,
        neighbors=neighbors,
        matches=matches,
        ground_truth={query_id: scene.query_pose},
    )


# Tags of the k sweep's per-anchor and per-K streams. Non-zero, because
# SeedSequence pads short entropy with zeros: [seed, trial, 0, 0] would
# replay the trial's own stream.
_ANCHOR_STREAM = 1
_K_STREAM = 2


def _trial_rng(seed, trial, *stream):
    return np.random.default_rng(np.random.SeedSequence([seed, trial, *stream]))


def run_k_sweep(scene_config=None, k_values=(2, 5, 10, 25, 50), sigma_feat=1e-3, trials=50, seed=0):
    """Localization error of the full pipeline versus anchor count.

    Each trial builds one scene with the maximum anchor count and runs
    ``pipeline.estimate_anchors`` on every anchor's noisy matches, which
    stacks the estimates once; for every requested K,
    ``pipeline.solve_pose`` (the CLI pipeline's per-query core: consensus,
    averaging, tracks, refinement) then takes the rows of an evenly spread
    subset of K anchors. Spreading (rather than taking the first K) keeps
    small-K pairs at a usable baseline instead of adjacent, nearly
    collocated cameras. The default ``PipelineConfig`` applies; its pixel
    gate converts at ``FOCAL_PX``, the focal length ``export_scene_dataset``
    writes, so ``sigma_feat`` = 1 / FOCAL_PX is 1 px of noise.
    """
    if scene_config is None:
        scene_config = SceneConfig(n_anchors=max(k_values), layout="line")
    k_values = [int(k) for k in k_values]
    if min(k_values) < 2:
        raise ConfigurationError("k values must be >= 2")
    if len(set(k_values)) != len(k_values):
        raise ConfigurationError(f"k_values must be distinct, got {k_values}")
    if max(k_values) > scene_config.n_anchors:
        raise ConfigurationError(
            f"k={max(k_values)} exceeds the scene's {scene_config.n_anchors} anchors"
        )
    result = StudyResult(
        name="k_sweep",
        seed=seed,
        config={
            "scene": asdict(scene_config),
            "k_values": k_values,
            "sigma_feat": float(sigma_feat),
            "trials": trials,
        },
    )
    errors = {k: [] for k in k_values}
    skips = {k: 0 for k in k_values}
    config = PipelineConfig()
    ransac_cfg = config.ransac_config(FOCAL_PX)
    kp_ids = np.arange(scene_config.n_points)
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        scene = generate_scene(scene_config, seed=int(rng.integers(0, 2**31 - 1)))
        q_feats, a_feats = noisy_features(scene, sigma_feat, rng)

        stack, inliers = estimate_anchors(
            (k, pose, MatchSet(q_feats, a_feats[k], keypoint_ids=kp_ids), ransac_cfg,
             _trial_rng(seed, trial, _ANCHOR_STREAM, k))
            for k, pose in enumerate(scene.anchor_poses)
        )

        anchor_poses = dict(enumerate(scene.anchor_poses))
        row_of = {k: row for row, k in enumerate(stack.anchor_ids)}
        for k_req in k_values:
            spread = np.round(np.linspace(0, scene_config.n_anchors - 1, k_req)).astype(int)
            usable = [row_of[k] for k in spread.tolist() if k in row_of]
            if len(usable) < 2:
                skips[k_req] += 1
                continue
            try:
                _, stage1, refinement, _ = solve_pose(
                    stack.take(usable), inliers, anchor_poses, config,
                    _trial_rng(seed, trial, _K_STREAM, k_req),
                )
            except MvlocError:
                skips[k_req] += 1
                continue
            final = stage1 if refinement is None else refinement.pose
            errors[k_req].append(pose_error(final, scene.query_pose))

    for k_req in k_values:
        _check_skip_fraction(skips[k_req], trials, f"k sweep K={k_req}")
        errs = np.array(errors[k_req])
        result.rows.append(
            {
                "k": k_req,
                "median_center_err": float(np.median(errs[:, 0])),
                "median_rot_err_deg": float(np.median(errs[:, 1])),
                "trials_used": len(errs),
                "skipped": skips[k_req],
            }
        )
    return result
