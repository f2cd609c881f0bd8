"""End-to-end localization of queries against an anchor database.

Per query: take the top-K retrieved anchors, estimate a scale-free relative
pose to each from the feature matches (essential RANSAC + cheirality), find
the consensus subset of those estimates, average them into the stage-1 pose,
and refine against triangulated feature tracks. Deterministic for a given
dataset and seed: each query-anchor pair's RANSAC and each query's consensus
draw from their own generators, derived from the global seed and the ids, so
an anchor's estimate depends neither on evaluation order nor on the other
anchors of its neighbor list.
"""

import csv
import hashlib
import json
import math
import struct
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .averaging import ObservationStack
from .consensus import anchor_ransac, decoupled_pose
from .dataset import pose_from_values
from .errors import ConfigurationError, InsufficientDataError, MvlocError, ParseError
from .geometry import Pose, geodesic_angle
from .refine import CorrespondenceTrack, refine_pose
from .relpose import (
    RansacConfig,
    candidates_of,
    cheirality_select,
    decompose_essentials,
    estimate_essential,
)

ACCURACY_THRESHOLDS = ((0.25, 2.0), (0.5, 5.0), (5.0, 10.0))

# PipelineConfig fields: integers with their minimum, reals with (0, upper)
# or, where the upper end is closed, (0, upper]. The consensus gates are
# tested as cos(theta_ray) and cos(theta_rot / 2), which wrap around past
# 180 degrees, so 180 (every ray, every rotation) is their largest value.
_INTEGER_MINIMA = {"top_k": 1, "min_matches": 0, "ransac_max_iters": 1, "seed": 0}
_REAL_BOUNDS = {"epi_threshold_px": (math.inf, False), "ransac_confidence": (1.0, False),
                "theta_ray_deg": (180.0, True), "theta_rot_deg": (180.0, True),
                "tau_reproj": (math.inf, False)}


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable parameters of the localization pipeline.

    ``epi_threshold_px`` gates essential RANSAC on the symmetric epipolar
    distance, in pixels; each pair converts it with ``pair_focal``. The
    default keeps about 99.5% of true matches at 1 px of noise per
    coordinate (their 99% quantile is 5.4 px), so the adaptive budget stops
    after a few hypotheses instead of running ``ransac_max_iters``.
    """

    top_k: int = 150
    min_matches: int = 8
    epi_threshold_px: float = 6.0
    ransac_confidence: float = 0.999
    ransac_max_iters: int = 5000
    theta_ray_deg: float = 5.0
    theta_rot_deg: float = 10.0
    tau_reproj: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name, minimum in _INTEGER_MINIMA.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
                raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
        for name, (upper, closed) in _REAL_BOUNDS.items():
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or not (0 < value < upper or closed and value == upper)):
                interval = f"(0, {upper}{']' if closed else ')'}"
                raise ConfigurationError(f"{name} must be a number in {interval}, got {value!r}")

    @classmethod
    def from_dict(cls, raw):
        if "epi_threshold" in raw:
            raise ConfigurationError(
                "config key 'epi_threshold' is replaced by 'epi_threshold_px', the essential-"
                "RANSAC gate in pixels; the old key was in normalized image units, so multiply "
                "it by the focal length (1e-3 at 800 px is 0.8 px)"
            )
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def ransac_config(self, focal_px):
        """RansacConfig of a pair whose normalized image units are
        ``focal_px`` pixels (see ``pair_focal``)."""
        return RansacConfig(
            threshold=self.epi_threshold_px / focal_px,
            confidence=self.ransac_confidence,
            max_iters=self.ransac_max_iters,
            min_inliers=max(self.min_matches, 8),
        )


@dataclass(frozen=True)
class QueryResult:
    query_id: str
    stage1_pose: Pose
    refined_pose: Optional[Pose]
    n_anchors_considered: int
    n_anchors_estimated: int
    inlier_anchor_ids: tuple
    tracks_used: int
    status: str
    error_m: Optional[float] = None
    error_deg: Optional[float] = None

    @property
    def final_pose(self):
        return self.refined_pose if self.refined_pose is not None else self.stage1_pose


@dataclass(frozen=True)
class FailureRecord:
    query_id: str
    reason: str


def pair_focal(query_intrinsics, anchor_intrinsics):
    """Pixels per normalized image unit of one query-anchor pair, which
    turns the pixel gate into ``RansacConfig.threshold``: the geometric mean
    of the two cameras' focal lengths, each (fx + fy) / 2.

    The symmetric epipolar distance sums a distance in each image, so when
    the focals differ no single factor converts it exactly. The geometric
    mean is exact when they agree, symmetric in the two cameras, and a zoom
    by s on either camera scales it by sqrt(s) whatever the other focal.
    """
    focal_q = (query_intrinsics.fx + query_intrinsics.fy) / 2
    focal_a = (anchor_intrinsics.fx + anchor_intrinsics.fy) / 2
    return math.sqrt(focal_q * focal_a)


def _id_words(value):
    """Four uint32 words of the sha256 of ``str(value)``."""
    return list(struct.unpack("=4I", hashlib.sha256(str(value).encode()).digest()[:16]))


def query_rng(seed, query_id):
    """Generator of one query's anchor consensus, derived from the run seed
    and the query id (order-free)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + _id_words(query_id)))


def _pair_rng(query_entropy, anchor_id):
    """Generator of one query-anchor pair's essential RANSAC, derived from
    the run seed and both ids: ``query_entropy`` is ``[seed] +
    _id_words(query_id)``, which a query hashes once for all its pairs.
    Each id is hashed on its own, so two different (query, anchor) pairs
    never share a stream."""
    return np.random.default_rng(np.random.SeedSequence(query_entropy + _id_words(anchor_id)))


def estimate_anchors(pairs):
    """``(ObservationStack, {anchor id: inlier MatchSet})`` of one query.

    ``pairs`` holds ``(anchor_id, anchor_pose, matches, ransac_cfg, rng)``
    per query-anchor pair. Each pair runs essential RANSAC; the accepted
    essential matrices are decomposed in one stacked pass, and each pair's
    cheirality vote on its inliers picks its relative pose. A pair that
    yields no usable estimate (an MvlocError) is left out; the stack keeps
    the order of the others.
    """
    fitted = []
    for anchor_id, anchor_pose, matches, ransac_cfg, rng in pairs:
        try:
            essential, mask = estimate_essential(matches, config=ransac_cfg, seed=rng)
        except MvlocError:
            continue
        fitted.append((anchor_id, anchor_pose, essential, matches.subset(mask)))
    rotations, directions = decompose_essentials(
        np.array([essential for _, _, essential, _ in fitted]).reshape(-1, 3, 3)
    )
    kept, rel_rotations, rel_directions, inlier_matches = [], [], [], {}
    for (anchor_id, anchor_pose, _, inliers), pair_rotations, direction in zip(
        fitted, rotations, directions
    ):
        try:
            rel = cheirality_select(candidates_of(pair_rotations, direction), inliers)
        except MvlocError:
            continue
        kept.append((anchor_id, anchor_pose))
        rel_rotations.append(rel.rotation)
        rel_directions.append(rel.direction)
        inlier_matches[anchor_id] = inliers
    stack = ObservationStack(
        [anchor_id for anchor_id, _ in kept],
        np.array([pose.rotation for _, pose in kept]).reshape(-1, 3, 3),
        np.array([pose.translation for _, pose in kept]).reshape(-1, 3),
        np.array(rel_rotations).reshape(-1, 3, 3),
        np.array(rel_directions).reshape(-1, 3),
    )
    return stack, inlier_matches


def solve_pose(stack, inlier_matches, anchor_poses, config, rng):
    """``(consensus, stage1, refinement, status)`` of one query from the
    ObservationStack of its per-anchor estimates: anchor consensus with
    ``config.theta_*``, decoupled averaging over the consensus rows, tracks
    linking the agreeing anchors' inlier matches (``inlier_matches``: anchor
    id -> MatchSet) by query keypoint id, then refinement. A failed
    refinement gives ``None`` and a ``stage1-only: <reason>`` status; a
    failed consensus or stage 1 raises an MvlocError."""
    consensus = anchor_ransac(
        stack,
        theta_ray_deg=config.theta_ray_deg,
        theta_rot_deg=config.theta_rot_deg,
        seed=rng,
    )
    inlier_stack = stack.take(
        [k for k, aid in enumerate(stack.anchor_ids) if aid in consensus.inlier_ids]
    )
    stage1 = decoupled_pose(inlier_stack)

    tracks = _keypoint_tracks([(aid, inlier_matches[aid]) for aid in inlier_stack.anchor_ids])

    try:
        refinement = refine_pose(tracks, anchor_poses, stage1, tau_reproj=config.tau_reproj)
    except MvlocError as exc:
        return consensus, stage1, None, f"stage1-only: {exc}"
    return consensus, stage1, refinement, "ok"


def _keypoint_tracks(linked):
    """Tracks of the query keypoint ids that two or more of ``linked``,
    (anchor id, MatchSet) pairs, observe: ascending by id, views in the
    order of ``linked``, query feature from the first view. MatchSets
    without keypoint ids are left out.

    Each track is a slice of the id-sorted rows of all linked sets, checked
    once for the whole stack: a keypoint id that one set holds twice raises
    ValueError, naming the first such track."""
    linked = [(aid, m) for aid, m in linked if m.keypoint_ids is not None and len(m)]
    if not linked:
        return []
    ids = np.concatenate([m.keypoint_ids for _, m in linked])
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    owners = np.repeat(np.arange(len(linked)), [len(m) for _, m in linked])[order]
    feats_q = np.concatenate([m.query for _, m in linked])[order]
    feats_a = np.concatenate([m.anchor for _, m in linked])[order]
    # the stable sort keeps each id's views in owner order, so a set that
    # holds an id twice leaves two equal neighbours
    repeats = np.flatnonzero((ids[1:] == ids[:-1]) & (owners[1:] == owners[:-1]))
    if len(repeats):
        raise ValueError(f"track {int(ids[repeats[0]])!r} repeats an anchor id")
    aids = [linked[k][0] for k in owners.tolist()]
    kp_ids, starts, counts = np.unique(ids, return_index=True, return_counts=True)
    return [
        CorrespondenceTrack._from_validated(
            kp_id, feats_q[start], tuple(aids[start:stop]), feats_a[start:stop]
        )
        for kp_id, start, stop in zip(kp_ids.tolist(), starts.tolist(), (starts + counts).tolist())
        if stop - start >= 2
    ]


def _check_query_pixels(dataset, query_id, loaded):
    """ParseError when the query's match files, ``loaded`` as (anchor id,
    MatchSet) in retrieval order, disagree on the query pixel of a keypoint
    id: it names the first file to disagree and the first to give that id."""
    if len(loaded) < 2:
        return
    ids = np.concatenate([m.keypoint_ids for _, m in loaded])
    feats = np.concatenate([m.query for _, m in loaded])
    ends = np.cumsum([len(m) for _, m in loaded])
    _, lead, inverse = np.unique(ids, return_index=True, return_inverse=True)
    bad = np.flatnonzero(np.any(feats != feats[lead[inverse]], axis=1))
    if len(bad):
        row = bad[0]
        first, other = (
            dataset.match_path(query_id, loaded[np.searchsorted(ends, i, side="right")][0])
            for i in (lead[inverse[row]], row)
        )
        raise ParseError(other, 0, f"query pixel of keypoint {ids[row]} differs from {first}")


def localize_query(dataset, query_id, config=None):
    """Localize one query; raises an MvlocError subclass when impossible."""
    if config is None:
        config = PipelineConfig()
    neighbors = dataset.neighbors.get(query_id)
    if not neighbors:
        raise InsufficientDataError(f"query {query_id!r} has no neighbor list")
    candidates = neighbors[: config.top_k]

    loaded = []
    for anchor_id, _score in candidates:
        try:
            loaded.append((anchor_id, dataset.load_matches(query_id, anchor_id)))
        except ConfigurationError:
            continue  # missing match file; retrieval can outrun matching
    _check_query_pixels(dataset, query_id, loaded)

    query_entropy = [int(config.seed)] + _id_words(query_id)
    pairs = []
    for anchor_id, matches in loaded:
        focal = pair_focal(dataset.intrinsics[query_id], dataset.intrinsics[anchor_id])
        ransac_cfg = config.ransac_config(focal)
        if len(matches) < ransac_cfg.min_inliers:
            continue
        pairs.append((anchor_id, dataset.anchors[anchor_id], matches, ransac_cfg,
                      _pair_rng(query_entropy, anchor_id)))
    observations, inlier_matches = estimate_anchors(pairs)

    if len(observations) < 2:
        raise InsufficientDataError(
            f"query {query_id!r}: only {len(observations)} usable anchor estimates"
        )

    consensus, stage1, refinement, status = solve_pose(
        observations, inlier_matches, dataset.anchors, config, query_rng(config.seed, query_id)
    )
    refined = None if refinement is None else refinement.pose
    error_m = error_deg = None
    if dataset.ground_truth and query_id in dataset.ground_truth:
        final = stage1 if refined is None else refined
        error_m, error_deg = pose_error(final, dataset.ground_truth[query_id])

    return QueryResult(
        query_id=query_id,
        stage1_pose=stage1,
        refined_pose=refined,
        n_anchors_considered=len(candidates),
        n_anchors_estimated=len(observations),
        inlier_anchor_ids=tuple(sorted(consensus.inlier_ids, key=str)),
        tracks_used=0 if refinement is None else refinement.points_used,
        status=status,
        error_m=error_m,
        error_deg=error_deg,
    )


def localize_run(dataset, config=None):
    """Localize every query in the dataset's neighbor table.

    Returns (results, failures): an error raised while localizing one query
    becomes its FailureRecord, so one bad query does not end the run. The
    reason of an MvlocError (a malformed or inconsistent match file
    included) is its message; any other exception, such as a ValueError
    or LinAlgError, is recorded as ``<type>: <message>``. Errors in the
    manifest, anchors, intrinsics and neighbors raise in ``load_dataset``;
    an ``epi_threshold_px`` that no pair could convert raises
    ConfigurationError before any query runs.
    """
    if config is None:
        config = PipelineConfig()
    _check_threshold(config, dataset.intrinsics)
    results = []
    failures = []
    for query_id in sorted(dataset.neighbors):
        try:
            results.append(localize_query(dataset, query_id, config))
        except MvlocError as exc:
            failures.append(FailureRecord(query_id=query_id, reason=str(exc)))
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
            failures.append(FailureRecord(query_id=query_id, reason=reason))
    return results, failures


def _check_threshold(config, intrinsics):
    """ConfigurationError unless ``config.epi_threshold_px`` converts to a
    finite, positive RANSAC threshold at every pair focal. Every
    ``pair_focal`` lies between the smallest and the largest (fx + fy) / 2
    of ``intrinsics``, and the threshold falls as the focal grows, so those
    two focals bound it."""
    focals = [(intr.fx + intr.fy) / 2 for intr in intrinsics.values()]
    for focal in (min(focals, default=1.0), max(focals, default=1.0)):
        threshold = config.epi_threshold_px / focal
        if not 0 < threshold < math.inf:
            raise ConfigurationError(
                f"epi_threshold_px {config.epi_threshold_px!r} at a focal of {focal!r} px gives "
                f"the RANSAC threshold {threshold!r}, which must be finite and positive"
            )


def pose_error(pose, truth):
    """(center distance, rotation angle in degrees) of a pose from the truth."""
    return (
        float(np.linalg.norm(pose.center() - truth.center())),
        float(geodesic_angle(pose.rotation, truth.rotation)),
    )


def score_run(results, ground_truth, n_unlocalized=0):
    """Accuracy report of a localization run against ground truth.

    Accuracy percentages count unlocalized queries in the denominator;
    medians are over the localized ones. Raises InsufficientDataError when
    there is nothing to score and ConfigurationError when a result has no
    ground-truth pose.
    """
    results = list(results)
    if not results:
        raise InsufficientDataError("no localized queries to score")
    for res in results:
        if res.query_id not in ground_truth:
            raise ConfigurationError(f"no ground truth for query {res.query_id!r}")
    errors_m, errors_deg = np.array(
        [pose_error(res.final_pose, ground_truth[res.query_id]) for res in results]
    ).T
    total = len(results) + n_unlocalized
    accuracy = {}
    for thr_m, thr_deg in ACCURACY_THRESHOLDS:
        hits = int(np.sum((errors_m <= thr_m) & (errors_deg <= thr_deg)))
        key = f"within_{format(thr_m, 'g')}m_{format(thr_deg, 'g')}deg"
        accuracy[key] = 100.0 * hits / total
    return {
        "n_scored": len(results),
        "n_unlocalized": n_unlocalized,
        "median_error_m": float(np.median(errors_m)),
        "median_error_deg": float(np.median(errors_deg)),
        "accuracy_pct": accuracy,
    }


_POSE_COLS = ("qw", "qx", "qy", "qz", "tx", "ty", "tz")


def _pose_fields(pose):
    if pose is None:
        return [""] * 7
    q = pose.quaternion()
    return [format(v, ".17g") for v in (*q, *pose.translation)]


def write_results_csv(path, results, failures=()):
    """Per-query results (and failures) as CSV, deterministic bytes."""
    header = (
        ["query_id", "status", "n_anchors_considered", "n_anchors_estimated"]
        + ["n_inlier_anchors", "tracks_used"]
        + [f"s1_{c}" for c in _POSE_COLS]
        + [f"ref_{c}" for c in _POSE_COLS]
        + ["error_m", "error_deg"]
    )
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for res in sorted(results, key=lambda r: r.query_id):
            writer.writerow(
                [
                    res.query_id,
                    res.status,
                    res.n_anchors_considered,
                    res.n_anchors_estimated,
                    len(res.inlier_anchor_ids),
                    res.tracks_used,
                ]
                + _pose_fields(res.stage1_pose)
                + _pose_fields(res.refined_pose)
                + [
                    "" if res.error_m is None else format(res.error_m, ".17g"),
                    "" if res.error_deg is None else format(res.error_deg, ".17g"),
                ]
            )
        for failure in sorted(failures, key=lambda f: f.query_id):
            row = [failure.query_id, f"failed: {failure.reason}"]
            writer.writerow(row + [""] * (len(header) - 2))


def read_results_csv(path):
    """Read back a results CSV into (results, n_failed).

    Reconstructs poses only; counters not needed for scoring are restored
    best-effort.
    """
    results = []
    n_failed = 0
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "query_id" not in reader.fieldnames:
            raise ParseError(path, 1, "not a results CSV")
        for row in reader:
            status = row["status"]
            if status.startswith("failed"):
                n_failed += 1
                continue
            stage1 = _pose_from_row(row, "s1_", path)
            if stage1 is None:
                raise ParseError(path, 0, f"missing stage-1 pose for {row['query_id']!r}")
            refined = _pose_from_row(row, "ref_", path)
            results.append(
                QueryResult(
                    query_id=row["query_id"],
                    stage1_pose=stage1,
                    refined_pose=refined,
                    n_anchors_considered=int(row["n_anchors_considered"] or 0),
                    n_anchors_estimated=int(row["n_anchors_estimated"] or 0),
                    inlier_anchor_ids=(),
                    tracks_used=int(row["tracks_used"] or 0),
                    status=status,
                    error_m=float(row["error_m"]) if row.get("error_m") else None,
                    error_deg=float(row["error_deg"]) if row.get("error_deg") else None,
                )
            )
    return results, n_failed


def _pose_from_row(row, prefix, path):
    values = [row.get(prefix + c, "") for c in _POSE_COLS]
    if all(v == "" for v in values):
        return None
    try:
        values = [float(v) for v in values]
    except ValueError:
        raise ParseError(path, 0, f"bad pose fields {prefix}*") from None
    return pose_from_values(path, 0, values)


def write_report_json(path, report):
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
