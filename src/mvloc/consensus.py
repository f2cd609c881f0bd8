"""Anchor-level consensus: which relative-pose estimates agree with each
other, and the decoupled query pose from the agreeing set.

A pair of observations determines a query pose hypothesis: the midpoint of
their two center-locus rays and the normalized sum of their chained-rotation
quaternions (``_kernels.pair_hypotheses``). RANSAC over pairs scores each
hypothesis by how many observations pass one inlier test, with separate
ray-angle and rotation-angle thresholds (``_kernels.inlier_tests``), and
keeps the winner's own inlier set. The final pose is re-estimated from that
set with the decoupled averaging operations.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .averaging import center_average, markley_rotation_average
from .errors import InsufficientDataError, NoConsensusError
from .geometry import Pose, quat_to_rotation

# Every pair hypothesis is scored when there are at most this many pairs;
# beyond, this many are sampled. C(150, 2) = 11175 scores every pair at the
# default neighborhood size of 150 anchors.
MAX_HYPOTHESES = 11175


@dataclass(frozen=True)
class AnchorConsensus:
    """Winning hypothesis of the pairwise RANSAC over anchor observations."""

    inlier_ids: frozenset
    hypothesis_pose: Pose
    inlier_count: int
    pair_ids: tuple


def _hypothesis_pose(center, quat):
    rotation = quat_to_rotation(quat)
    return Pose(rotation, -rotation @ center)


def _candidate_pairs(n, seed):
    """Every pair (i < j) of n observations when there are at most
    MAX_HYPOTHESES, else MAX_HYPOTHESES of them drawn with ``seed``; either
    way in lexicographic order."""
    iu, ju = np.triu_indices(n, k=1)
    pairs = np.column_stack([iu, ju]).astype(np.int64)
    if len(pairs) <= MAX_HYPOTHESES:
        return pairs
    chosen = np.random.default_rng(seed).choice(len(pairs), size=MAX_HYPOTHESES, replace=False)
    chosen.sort()
    return pairs[chosen]


def anchor_ransac(stack, theta_ray_deg=5.0, theta_rot_deg=10.0, seed=0):
    """Largest set of mutually consistent anchor observations of an
    ObservationStack.

    The observations are first put in anchor-id order: ids as strings, by
    length and then by character (``a2`` before ``a10``). Pairs, their
    orientation, the sample drawn with ``seed`` (only when there are more
    than MAX_HYPOTHESES pairs) and ties all follow that order, so the result
    does not depend on the order of the stack's rows. ``seed`` is a
    Generator or a seed; the default 0 makes repeated calls draw the same
    sample. The pair hypotheses are scored against all observations by
    ``_kernels.consensus_scores``, which stops at the first unanimous pair;
    the first pair with the highest score wins, and the winner's own row of
    inlier tests is the inlier set, so ``inlier_count`` is its score.
    Raises NoConsensusError when no pair yields a valid hypothesis with both
    of its own members consistent.
    """
    if len(stack) < 2:
        raise InsufficientDataError(f"consensus needs >= 2 observations, got {len(stack)}")
    keys = [(len(str(aid)), str(aid)) for aid in stack.anchor_ids]
    order = sorted(range(len(stack)), key=keys.__getitem__)
    ids = [stack.anchor_ids[k] for k in order]
    # built on the whole stack, which keeps them for the rows taken later
    arrays = (stack.centers, stack.ray_directions, stack.quats)
    origins, dirs, quats = (rows[order] for rows in arrays)
    pairs = _candidate_pairs(len(ids), seed)
    cos_ray = np.cos(np.radians(theta_ray_deg))
    cos_half_rot = np.cos(np.radians(theta_rot_deg) / 2.0)
    counts = _kernels.consensus_scores(origins, dirs, quats, pairs, cos_ray, cos_half_rot)
    best = int(np.argmax(counts))
    if counts[best] < 2:
        raise NoConsensusError("no pair hypothesis is consistent with its own members")

    _, center, quat = _kernels.pair_hypotheses(origins, dirs, quats, pairs[best:best + 1])
    inliers = _kernels.inlier_tests(center, quat, origins, dirs, quats, cos_ray, cos_half_rot)[0]
    i, j = pairs[best]
    return AnchorConsensus(
        inlier_ids=frozenset(ids[k] for k in np.flatnonzero(inliers)),
        hypothesis_pose=_hypothesis_pose(center[0], quat[0]),
        inlier_count=int(inliers.sum()),
        pair_ids=(ids[i], ids[j]),
    )


def decoupled_pose(stack):
    """Query pose by decoupled averaging of an ObservationStack.

    Rotation: chordal mean of the chained rotations (never touches the
    translation directions). Center: closed-form least-squares point nearest
    the center-locus rays (never touches the relative rotations beyond the
    fixed direction reversal). Translation is reassembled as ``-R c``.
    """
    if len(stack) < 2:
        raise InsufficientDataError(f"decoupled pose needs >= 2 observations, got {len(stack)}")
    rotation = markley_rotation_average(stack.quats)
    solution = center_average(stack.centers, stack.ray_directions)
    return Pose(rotation, -rotation @ solution.center)
