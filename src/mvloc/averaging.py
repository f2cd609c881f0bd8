"""Averaging of per-anchor pose evidence into a single query pose.

The key structural fact: an anchor pose plus a scale-free relative pose
constrains the query camera center to a ray (origin at the anchor center,
direction independent of the relative rotation). Center estimation therefore
decouples from rotation estimation. This module provides the observation
stack, which holds those rays and the chained rotations of all anchors at
once, the closed-form least-squares center from a bundle of rays, and three
rotation/translation averaging schemes used for comparison:

* ``center_average``      -- closed-form nearest point to K rays,
* ``govindu_translation_average`` -- iteratively reweighted linear system in
  the metric translation (couples in the relative rotations),
* ``govindu_rotation_average``    -- stacked quaternion least squares,
* ``markley_rotation_average``    -- dominant eigenvector of the quaternion
  outer-product accumulator.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AmbiguousAverageError, DegenerateGeometryError, InsufficientDataError
from .geometry import (
    camera_centers,
    canonicalize_quat,
    quat_left_matrices,
    quat_to_rotation,
    rotations_to_quats,
    row_norms,
    skew_rows,
    unit_rows,
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
class CenterSolution:
    """Least-squares camera center with solution diagnostics."""

    center: np.ndarray
    condition: float
    residual_rms: float


class ObservationStack:
    """K anchor observations of one query as arrays, row k holding one
    observation.

    The inputs are the anchor ids, which must be distinct (ValueError
    otherwise), the anchor rotations (K, 3, 3) and translations (K, 3), and
    the relative rotations (K, 3, 3) and unit directions (K, 3), already
    validated. What the consensus and the stage-1 averages read is built
    from them for all rows at once, on first use: the anchor centers (the
    locus-ray origins), the locus-ray directions, the chained rotations and
    their quaternions. Every product is a stacked (3, 3) or (3, 1) one, the
    BLAS call of the same product on one row, so a row is the same in any
    stack, and :meth:`take` keeps the rows already built.

    The query center lies on the locus ray ``c_k + lam R_k^T t_kq``, lam >=
    0, where t_kq is the reversed relative direction. Only the anchor pose
    and the direction enter; the relative rotation appears solely through
    that fixed reversal, so a ray is bit-identical under any rotation that
    gives the same t_kq.
    """

    def __init__(self, anchor_ids, anchor_rotations, anchor_translations, rel_rotations,
                 rel_directions):
        self.anchor_ids = tuple(anchor_ids)
        seen = set()
        for anchor_id in self.anchor_ids:
            if anchor_id in seen:
                raise ValueError(f"duplicate anchor_id {anchor_id!r} in observation set")
            seen.add(anchor_id)
        self.anchor_rotations = anchor_rotations
        self.anchor_translations = anchor_translations
        self.rel_rotations = rel_rotations
        self.rel_directions = rel_directions

    def __len__(self):
        return len(self.anchor_ids)

    def take(self, rows):
        """The stack of the given distinct rows, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        taken = object.__new__(type(self))
        for name, value in vars(self).items():
            setattr(taken, name, value[rows] if isinstance(value, np.ndarray) else value)
        taken.anchor_ids = tuple(self.anchor_ids[k] for k in rows.tolist())
        return taken

    @cached_property
    def centers(self):
        """Anchor centers -R_k^T T_k, the locus-ray origins."""
        return camera_centers(self.anchor_rotations, self.anchor_translations)

    @cached_property
    def ray_directions(self):
        """Unit locus-ray directions R_k^T t_kq, with t_kq = -R_qk^T t_qk."""
        t_kq = -(np.swapaxes(self.rel_rotations, 1, 2) @ self.rel_directions[:, :, None])
        return unit_rows((np.swapaxes(self.anchor_rotations, 1, 2) @ t_kq)[:, :, 0])

    @cached_property
    def chained_rotations(self):
        """Per-anchor absolute rotation estimates R_qk R_k."""
        return self.rel_rotations @ self.anchor_rotations

    @cached_property
    def quats(self):
        """Canonical quaternions of the chained rotations."""
        return rotations_to_quats(self.chained_rotations)


def _ordered_sum(terms):
    """Sum of ``terms`` along axis 0 in index order from 0.0, bit for bit
    what a loop of ``+=`` gives; numpy's own sum may pair terms up."""
    return np.add.accumulate(terms, axis=0)[-1] + 0.0


def center_average(origins, dirs):
    """Closed-form least-squares point nearest to a bundle of rays, given as
    (K, 3) origins and unit directions (an ObservationStack's ``centers``
    and ``ray_directions``).

    Minimizes ``sum_k || (I - d_k d_k^T)(c - o_k) ||^2`` by solving the 3x3
    normal system ``A c = b`` with ``A = sum (I - d_k d_k^T)``, summed in ray
    order. Raises DegenerateGeometryError when A's condition number exceeds
    CENTER_CONDITION_LIMIT (near-parallel ray bundle).
    """
    if len(origins) < 2:
        raise InsufficientDataError(f"center average needs >= 2 rays, got {len(origins)}")
    projectors = np.eye(3) - dirs[:, :, None] * dirs[:, None, :]
    a = _ordered_sum(projectors)
    b = _ordered_sum((projectors @ origins[:, :, None])[:, :, 0])
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
    r = (projectors @ (center - origins)[:, :, None])[:, :, 0]
    sq = _ordered_sum((r[:, None, :] @ r[:, :, None])[:, 0, 0])
    residual_rms = float(np.sqrt(sq / len(origins)))
    return CenterSolution(center=center, condition=float(condition), residual_rms=residual_rms)


def scene_scale(centers):
    """Median distance of camera centers from their centroid (>= fallback 1)."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or len(centers) == 0:
        raise ValueError("centers must be a non-empty (K, 3) array")
    spread = np.median(np.linalg.norm(centers - centers.mean(axis=0), axis=1))
    return float(spread) if spread > 1e-12 else 1.0


def govindu_translation_average(stack):
    """Metric query translation from stacked cross-product constraints, of
    an ObservationStack.

    Each observation contributes ``[t_kq]_x (T_k - R_kq T_q) = 0``; the
    stacked 3K x 3 system is solved for T_q by least squares, then
    iteratively reweighted by the inverse estimated per-anchor scale
    ``1 / max(lam_k, floor)``, with ``floor`` 1e-6 of the anchors'
    :func:`scene_scale`, until the solution moves less than
    TRANSLATION_STEP_TOL or TRANSLATION_MAX_ITERS reweightings are done.

    Unlike the ray formulation this couples in the relative rotations, which
    is exactly the coupling the decoupled center estimate avoids.
    """
    if len(stack) < 2:
        raise InsufficientDataError(
            f"translation average needs >= 2 observations, got {len(stack)}"
        )
    floor = 1e-6 * scene_scale(stack.centers)

    rel_rotations = stack.rel_rotations
    r_kq = np.swapaxes(rel_rotations, 1, 2)
    t_kq = -(r_kq @ stack.rel_directions[:, :, None])
    cross = skew_rows(t_kq[:, :, 0])
    t_anchor = stack.anchor_translations

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


def govindu_rotation_average(stack):
    """Query rotation from stacked quaternion constraints, of an
    ObservationStack.

    Each observation gives ``L(q_kq) q_q = q_k`` with q_kq the quaternion of
    R_qk^T. Right-hand sides are sign-aligned (the double cover makes each
    equation's sign arbitrary), the 4K x 4 stack is solved by least squares
    and the result normalized to unit length.
    """
    if not len(stack):
        raise InsufficientDataError("rotation average needs >= 1 observation")

    q_k = rotations_to_quats(stack.anchor_rotations)
    left = quat_left_matrices(rotations_to_quats(np.swapaxes(stack.rel_rotations, 1, 2)))
    # the exact solution of each block alone, L(q_kq)^T q_k; a right-hand
    # side flips when its block's solution points away from the first one's
    candidates = np.swapaxes(left, 1, 2) @ q_k[:, :, None]
    dots = (np.swapaxes(candidates, 1, 2) @ candidates[0])[:, 0, 0]
    a = left.reshape(-1, 4)
    b = np.where((dots < 0)[:, None], -q_k, q_k).ravel()
    q, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise AmbiguousAverageError("quaternion constraints cancel; average undefined")
    return quat_to_rotation(canonicalize_quat(q / n))


def markley_rotation_average(quats):
    """Chordal-L2 mean rotation via the quaternion outer-product accumulator,
    of the rotations whose unit quaternions are the rows of (K, 4)
    ``quats`` (an ObservationStack's ``quats``, of its chained rotations).

    Accumulates ``M = sum q_k q_k^T`` in order (sign-free by construction)
    and returns the rotation of the dominant eigenvector. Raises
    AmbiguousAverageError when the top two eigenvalues tie within
    AMBIGUITY_EIG_TOL, i.e. the minimizer is not unique.
    """
    if not len(quats):
        raise InsufficientDataError("rotation average needs >= 1 rotation")
    m = _ordered_sum(quats[:, :, None] * quats[:, None, :])
    eigvals, eigvecs = np.linalg.eigh(m)
    if eigvals[-1] - eigvals[-2] <= AMBIGUITY_EIG_TOL:
        raise AmbiguousAverageError(
            f"dominant eigenvalue is not simple (gap {eigvals[-1] - eigvals[-2]:.3e})"
        )
    q = canonicalize_quat(eigvecs[:, -1])
    return quat_to_rotation(q)
