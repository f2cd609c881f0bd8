"""Anchor-level consensus: which relative-pose estimates agree with each
other, and the decoupled query pose from the agreeing set.

A pair of observations fully determines a query pose hypothesis (two center
rays meet at a point; two chained rotations average). RANSAC over pairs
scores every observation against each hypothesis with separate ray-angle and
rotation-angle thresholds, keeps the largest consistent set, and the final
pose is re-estimated from that set with the decoupled averaging operations.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .averaging import (
    center_average,
    chained_rotation,
    check_unique_ids,
    locus_ray,
    markley_rotation_average,
)
from .errors import InsufficientDataError, NoConsensusError
from .geometry import Pose, ray_pair_midpoint, rotation_to_quat

# Exhaustive pair enumeration is used up to this many observations; beyond
# it, hypotheses are sampled. C(150, 2) = 11175 keeps exhaustive mode cheap
# at the default neighborhood size.
EXHAUSTIVE_LIMIT = 150
DEFAULT_MAX_HYPOTHESES = 11175


@dataclass(frozen=True)
class AnchorConsensus:
    """Winning hypothesis of the pairwise RANSAC over anchor observations."""

    inlier_ids: frozenset
    hypothesis_pose: Pose
    inlier_count: int
    pair_ids: tuple


def pair_hypothesis(obs_a, obs_b):
    """Query pose determined by two anchor observations.

    Center: midpoint of the two center-locus rays (DegenerateGeometryError
    when the rays are parallel or the anchors coincide). Rotation: chordal
    mean of the two chained rotations.
    """
    ray_a = locus_ray(obs_a)
    ray_b = locus_ray(obs_b)
    center = ray_pair_midpoint(ray_a.origin, ray_a.direction, ray_b.origin, ray_b.direction)
    rotation = markley_rotation_average(
        [chained_rotation(obs_a), chained_rotation(obs_b)]
    )
    return Pose(rotation, -rotation @ center)


def _observation_arrays(observations):
    origins = np.empty((len(observations), 3))
    dirs = np.empty((len(observations), 3))
    quats = np.empty((len(observations), 4))
    for k, obs in enumerate(observations):
        ray = locus_ray(obs)
        origins[k] = ray.origin
        dirs[k] = ray.direction
        quats[k] = rotation_to_quat(chained_rotation(obs))
    return origins, dirs, quats


def hypothesis_inliers(pose, observations, theta_ray_deg=5.0, theta_rot_deg=10.0):
    """Boolean mask of observations consistent with a query pose hypothesis.

    An observation passes when (a) its center-locus ray points at the
    hypothesis center within ``theta_ray_deg`` (a center exactly on the ray
    origin passes trivially) and (b) its chained rotation is within
    ``theta_rot_deg`` geodesic of the hypothesis rotation.
    """
    origins, dirs, quats = _observation_arrays(observations)
    return _inlier_mask(pose, origins, dirs, quats, theta_ray_deg, theta_rot_deg)


def _inlier_mask(pose, origins, dirs, quats, theta_ray_deg, theta_rot_deg):
    center = pose.center()
    hyp_q = rotation_to_quat(pose.rotation)
    u = center - origins
    dist = np.linalg.norm(u, axis=1)
    along = np.einsum("ij,ij->i", dirs, u)
    ray_ok = (dist < 1e-12) | (along >= np.cos(np.radians(theta_ray_deg)) * dist)
    rot_ok = np.abs(quats @ hyp_q) >= np.cos(np.radians(theta_rot_deg) / 2.0)
    return ray_ok & rot_ok


def _candidate_pairs(n, mode, seed, max_hypotheses):
    iu, ju = np.triu_indices(n, k=1)
    all_pairs = np.column_stack([iu, ju]).astype(np.int64)
    if mode == "exhaustive" or (mode == "auto" and n <= EXHAUSTIVE_LIMIT):
        return all_pairs
    if mode not in ("auto", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(all_pairs) <= max_hypotheses:
        return all_pairs
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    chosen = rng.choice(len(all_pairs), size=max_hypotheses, replace=False)
    chosen.sort()  # pairs in lexicographic order, as in exhaustive mode
    return all_pairs[chosen]


def anchor_ransac(
    observations,
    theta_ray_deg=5.0,
    theta_rot_deg=10.0,
    mode="auto",
    seed=None,
    max_hypotheses=DEFAULT_MAX_HYPOTHESES,
):
    """Largest set of mutually consistent anchor observations.

    Enumerates pair hypotheses (exhaustively up to EXHAUSTIVE_LIMIT
    observations in ``auto`` mode, sampled beyond), scores each against all
    observations, and returns the best hypothesis with its inlier set. Ties
    on inlier count resolve to the pair whose anchor ids sort first, as
    strings by length and then by character (``a2`` before ``a10``), so in
    exhaustive mode the result does not depend on the order of
    ``observations``. Raises
    NoConsensusError when no pair yields a valid hypothesis with both of its
    own members consistent.
    """
    observations = list(observations)
    if len(observations) < 2:
        raise InsufficientDataError(
            f"consensus needs >= 2 observations, got {len(observations)}"
        )
    check_unique_ids(observations)

    origins, dirs, quats = _observation_arrays(observations)
    pairs = _candidate_pairs(len(observations), mode, seed, max_hypotheses)
    counts = _kernels.consensus_scores(
        origins,
        dirs,
        quats,
        pairs,
        np.cos(np.radians(theta_ray_deg)),
        np.cos(np.radians(theta_rot_deg) / 2.0),
    )
    top = np.flatnonzero(counts == counts.max())
    if counts[top[0]] < 2:
        raise NoConsensusError("no pair hypothesis is consistent with its own members")
    ids = [str(o.anchor_id) for o in observations]
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=lambda k: (len(ids[k]), ids[k]))] = np.arange(len(ids))
    ranked = np.sort(rank[pairs[top]], axis=1)
    best = int(top[np.lexsort((ranked[:, 1], ranked[:, 0]))[0]])

    i, j = map(int, pairs[best])
    pose = pair_hypothesis(observations[i], observations[j])
    mask = _inlier_mask(pose, origins, dirs, quats, theta_ray_deg, theta_rot_deg)
    ids = frozenset(observations[k].anchor_id for k in np.flatnonzero(mask))
    return AnchorConsensus(
        inlier_ids=ids,
        hypothesis_pose=pose,
        inlier_count=int(mask.sum()),
        pair_ids=(observations[i].anchor_id, observations[j].anchor_id),
    )


def decoupled_pose(observations):
    """Query pose by decoupled averaging of an observation set.

    Rotation: chordal mean of the chained rotations (never touches the
    translation directions). Center: closed-form least-squares point nearest
    the center-locus rays (never touches the relative rotations beyond the
    fixed direction reversal). Translation is reassembled as ``-R c``.
    """
    observations = list(observations)
    if len(observations) < 2:
        raise InsufficientDataError(
            f"decoupled pose needs >= 2 observations, got {len(observations)}"
        )
    check_unique_ids(observations)
    rotation = markley_rotation_average([chained_rotation(o) for o in observations])
    solution = center_average([locus_ray(o) for o in observations])
    return Pose(rotation, -rotation @ solution.center)
