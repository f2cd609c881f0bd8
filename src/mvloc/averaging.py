"""Averaging of per-anchor pose evidence into a single query pose.

The key structural fact: an anchor pose plus a scale-free relative pose
constrains the query camera center to a ray (origin at the anchor center,
direction independent of the relative rotation). Center estimation therefore
decouples from rotation estimation. This module provides the ray conversion,
the closed-form least-squares center from a bundle of rays, and three
rotation/translation averaging schemes used for comparison:

* ``center_average``      -- closed-form nearest point to K rays,
* ``govindu_translation_average`` -- iteratively reweighted linear system in
  the metric translation (couples in the relative rotations),
* ``govindu_rotation_average``    -- stacked quaternion least squares,
* ``markley_rotation_average``    -- dominant eigenvector of the quaternion
  outer-product accumulator.
"""

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from .errors import AmbiguousAverageError, DegenerateGeometryError, InsufficientDataError
from .geometry import (
    Pose,
    RelativePoseEstimate,
    canonicalize_quat,
    nearest_rotation,
    quat_left_matrix,
    quat_to_rotation,
    rotation_to_quat,
    row_norms,
    skew_rows,
    unit,
)

# A center normal matrix above this condition number does not localize the
# query in all directions.
CENTER_CONDITION_LIMIT = 1e8

# Reweighting budget of govindu_translation_average, and the solution step
# below which it has converged.
TRANSLATION_MAX_ITERS = 50
TRANSLATION_STEP_TOL = 1e-9

# Dominant-eigenvalue gap below which the rotation average is ambiguous.
AMBIGUITY_EIG_TOL = 1e-9


@dataclass(frozen=True)
class AnchorObservation:
    """One anchor's evidence about the query: its own pose plus the
    scale-free relative pose from anchor to query."""

    anchor_id: Hashable
    anchor_pose: Pose
    rel: RelativePoseEstimate


@dataclass(frozen=True)
class Ray:
    """Half-line origin + unit direction in world coordinates."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=np.float64))
        object.__setattr__(self, "direction", np.asarray(self.direction, dtype=np.float64))
        n = np.linalg.norm(self.direction)
        if not np.isclose(n, 1.0, atol=1e-9):
            raise ValueError(f"ray direction must be unit, norm {n:.12f}")


@dataclass(frozen=True)
class CenterSolution:
    """Least-squares camera center with solution diagnostics."""

    center: np.ndarray
    condition: float
    residual_rms: float


def check_unique_ids(observations):
    """Raise ValueError when two observations share an anchor_id."""
    seen = set()
    for obs in observations:
        if obs.anchor_id in seen:
            raise ValueError(f"duplicate anchor_id {obs.anchor_id!r} in observation set")
        seen.add(obs.anchor_id)


def locus_ray(obs):
    """Ray of possible query centers implied by one anchor observation.

    The query center lies on ``c_k + lam * R_k.T @ t_kq`` for lam >= 0, where
    t_kq is the reversed relative direction. Only the anchor pose and the
    direction enter; the relative rotation appears solely through that fixed
    reversal.
    """
    t_kq = -obs.rel.rotation.T @ obs.rel.direction
    return ray_from_backward_direction(obs.anchor_pose, t_kq)


def ray_from_backward_direction(anchor_pose, t_kq):
    """Center ray from an anchor pose and a precomputed anchor-frame
    direction t_kq (the anchor-to-query translation direction).

    Splitting this out of :func:`locus_ray` keeps the center pathway free of
    any dependence on the relative rotation: given the same t_kq input, the
    ray is bit-identical no matter what rotation produced it.
    """
    return Ray(anchor_pose.center(), unit(anchor_pose.rotation.T @ np.asarray(t_kq, dtype=np.float64)))


def chained_rotation(obs):
    """Per-anchor absolute rotation estimate R_qk @ R_k."""
    return obs.rel.rotation @ obs.anchor_pose.rotation


def center_average(rays):
    """Closed-form least-squares point nearest to a bundle of rays.

    Minimizes ``sum_k || (I - d_k d_k^T)(c - o_k) ||^2`` by solving the 3x3
    normal system ``A c = b`` with ``A = sum (I - d_k d_k^T)``. Raises
    DegenerateGeometryError when A's condition number exceeds
    CENTER_CONDITION_LIMIT (near-parallel ray bundle).
    """
    rays = list(rays)
    if len(rays) < 2:
        raise InsufficientDataError(f"center average needs >= 2 rays, got {len(rays)}")
    a = np.zeros((3, 3))
    b = np.zeros(3)
    projectors = []
    for ray in rays:
        p = np.eye(3) - np.outer(ray.direction, ray.direction)
        projectors.append(p)
        a += p
        b += p @ ray.origin
    eigvals = np.linalg.eigvalsh(a)
    if eigvals[0] <= 0:
        condition = np.inf
    else:
        condition = eigvals[-1] / eigvals[0]
    if condition > CENTER_CONDITION_LIMIT:
        raise DegenerateGeometryError(
            f"ray bundle does not localize a point (condition {condition:.3e})"
        )
    center = np.linalg.solve(a, b)
    sq = 0.0
    for ray, p in zip(rays, projectors):
        r = p @ (center - ray.origin)
        sq += r @ r
    residual_rms = float(np.sqrt(sq / len(rays)))
    return CenterSolution(center=center, condition=float(condition), residual_rms=residual_rms)


def scene_scale(centers):
    """Median distance of camera centers from their centroid (>= fallback 1)."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or len(centers) == 0:
        raise ValueError("centers must be a non-empty (K, 3) array")
    spread = np.median(np.linalg.norm(centers - centers.mean(axis=0), axis=1))
    return float(spread) if spread > 1e-12 else 1.0


def govindu_translation_average(observations):
    """Metric query translation from stacked cross-product constraints.

    Each observation contributes ``[t_kq]_x (T_k - R_kq T_q) = 0``; the
    stacked 3K x 3 system is solved for T_q by least squares, then
    iteratively reweighted by the inverse estimated per-anchor scale
    ``1 / max(lam_k, floor)``, with ``floor`` 1e-6 of the anchors'
    :func:`scene_scale`, until the solution moves less than
    TRANSLATION_STEP_TOL or TRANSLATION_MAX_ITERS reweightings are done.

    Unlike the ray formulation this couples in the relative rotations, which
    is exactly the coupling the decoupled center estimate avoids.
    """
    observations = list(observations)
    if len(observations) < 2:
        raise InsufficientDataError(
            f"translation average needs >= 2 observations, got {len(observations)}"
        )
    check_unique_ids(observations)
    floor = 1e-6 * scene_scale([o.anchor_pose.center() for o in observations])

    rel_rotations = np.array([o.rel.rotation for o in observations])
    r_kq = np.swapaxes(rel_rotations, 1, 2)
    t_kq = -(r_kq @ np.array([o.rel.direction for o in observations])[:, :, None])
    cross = skew_rows(t_kq[:, :, 0])
    t_anchor = np.array([o.anchor_pose.translation for o in observations])

    a = (cross @ r_kq).reshape(-1, 3)
    b = (cross @ t_anchor[:, :, None]).ravel()
    solution, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < 3:
        raise DegenerateGeometryError(f"translation system rank {rank} < 3")

    for _ in range(TRANSLATION_MAX_ITERS):
        # R_kq @ x is x @ R_qk: the BLAS product of one anchor at a time,
        # which R_kq stacked as a C-ordered array would not round alike
        lams = row_norms(t_anchor - solution @ rel_rotations)
        weights = 1.0 / np.maximum(lams, floor)
        scale = np.repeat(weights, 3)[:, None]
        new_solution, _, rank, _ = np.linalg.lstsq(scale * a, scale.ravel() * b, rcond=None)
        if rank < 3:
            raise DegenerateGeometryError("translation system lost rank while reweighting")
        step = np.linalg.norm(new_solution - solution)
        solution = new_solution
        if step < TRANSLATION_STEP_TOL:
            break
    return solution


def govindu_rotation_average(observations):
    """Query rotation from stacked quaternion constraints.

    Each observation gives ``L(q_kq) q_q = q_k`` with q_kq the quaternion of
    R_qk^T. Right-hand sides are sign-aligned (the double cover makes each
    equation's sign arbitrary), the 4K x 4 stack is solved by least squares
    and the result normalized to unit length.
    """
    observations = list(observations)
    if not observations:
        raise InsufficientDataError("rotation average needs >= 1 observation")
    check_unique_ids(observations)

    blocks = []
    rhs = []
    reference = None
    for obs in observations:
        q_kq = rotation_to_quat(obs.rel.rotation.T)
        q_k = rotation_to_quat(obs.anchor_pose.rotation)
        left = quat_left_matrix(q_kq)
        candidate = left.T @ q_k  # the exact solution of this block alone
        if reference is None:
            reference = candidate
        elif candidate @ reference < 0:
            q_k = -q_k
        blocks.append(left)
        rhs.append(q_k)

    a = np.vstack(blocks)
    b = np.concatenate(rhs)
    q, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise AmbiguousAverageError("quaternion constraints cancel; average undefined")
    return quat_to_rotation(canonicalize_quat(q / n))


def markley_rotation_average(rotations):
    """Chordal-L2 mean rotation via the quaternion outer-product accumulator.

    Accumulates ``M = sum q_k q_k^T`` (sign-free by construction) and returns
    the rotation of the dominant eigenvector. Raises AmbiguousAverageError
    when the top two eigenvalues tie within AMBIGUITY_EIG_TOL, i.e. the
    minimizer is not unique.
    """
    rotations = list(rotations)
    if not rotations:
        raise InsufficientDataError("rotation average needs >= 1 rotation")
    m = np.zeros((4, 4))
    for rot in rotations:
        q = rotation_to_quat(rot)
        m += np.outer(q, q)
    eigvals, eigvecs = np.linalg.eigh(m)
    if eigvals[-1] - eigvals[-2] <= AMBIGUITY_EIG_TOL:
        raise AmbiguousAverageError(
            f"dominant eigenvalue is not simple (gap {eigvals[-1] - eigvals[-2]:.3e})"
        )
    q = canonicalize_quat(eigvecs[:, -1])
    return quat_to_rotation(q)


def chordal_l2_mean(rotations):
    """Chordal-L2 mean rotation via orthogonal projection of the summed
    matrices onto SO(3).

    Same minimization problem as :func:`markley_rotation_average`, solved in
    matrix space; the two must agree and tests hold them to that.
    """
    rotations = list(rotations)
    if not rotations:
        raise InsufficientDataError("rotation average needs >= 1 rotation")
    total = np.zeros((3, 3))
    for rot in rotations:
        total += np.asarray(rot, dtype=np.float64)
    return nearest_rotation(total)
