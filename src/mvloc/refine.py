"""Latent-point pose refinement.

Stage one triangulates each multi-anchor feature track into a latent scene
point, parameterized by a reference-view feature and depth and optimized
against the anchor observations only (the query plays no part, so the query
pose cannot bias the structure). Stage two refines the query pose by
minimizing its reprojection error onto the fixed latent points.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Hashable

import numpy as np

from . import _kernels
from .errors import (
    BehindCameraError,
    DegenerateGeometryError,
    InitializationError,
    InsufficientDataError,
)
from .geometry import (
    DEPTH_EPS,
    Pose,
    camera_centers,
    project,
    rotvec_to_rotation,
    skew_rows,
    unit_rows,
)
from .relpose import midpoint_of_views


class CorrespondenceTrack:
    """One query feature matched into two or more anchor views.

    ``anchors`` is a sequence of (anchor_id, feature) pairs; ids must be
    distinct and at least two are required. The views are kept as the tuple
    ``anchor_ids`` and the (V, 2) float array ``features``, row v the
    feature in view v; ``anchors`` gives the pairs back.
    """

    __slots__ = ("track_id", "query_feature", "anchor_ids", "features")

    def __init__(self, track_id, query_feature, anchors):
        qf = np.asarray(query_feature, dtype=np.float64)
        if qf.shape != (2,):
            raise ValueError("query_feature must be (2,)")
        if len(anchors) < 2:
            raise ValueError(f"track {track_id!r} needs >= 2 anchor views")
        ids = tuple(aid for aid, _ in anchors)
        if len(set(ids)) != len(ids):
            raise ValueError(f"track {track_id!r} repeats an anchor id")
        try:
            feats = np.asarray([f for _, f in anchors], dtype=np.float64)
        except ValueError:  # ragged features
            feats = None
        if feats is None or feats.shape != (len(ids), 2):
            raise ValueError("anchor features must be (2,)")
        self._fill(track_id, qf, ids, feats)

    @classmethod
    def _from_validated(cls, track_id, query_feature, anchor_ids, features):
        """A track from a (2,) float query feature, a tuple of V >= 2
        distinct anchor ids and a (V, 2) float array, taken as they are
        with no second check or copy."""
        track = object.__new__(cls)
        track._fill(track_id, query_feature, anchor_ids, features)
        return track

    def _fill(self, track_id, query_feature, anchor_ids, features):
        for name, value in zip(self.__slots__, (track_id, query_feature, anchor_ids, features)):
            object.__setattr__(self, name, value)

    @property
    def anchors(self):
        """The views as (anchor_id, feature) pairs."""
        return tuple(zip(self.anchor_ids, self.features))

    def __setattr__(self, name, value):
        raise AttributeError("CorrespondenceTrack is immutable")

    def __repr__(self):
        return f"CorrespondenceTrack(track_id={self.track_id!r}, views={len(self.anchor_ids)})"


@dataclass(frozen=True)
class LatentPoint:
    """Triangulated track: world point plus its reference-view parameters."""

    track_id: Hashable
    world_point: np.ndarray
    reference_view: Hashable
    ref_feature: np.ndarray
    ref_depth: float
    e1_residual: float


# Levenberg-Marquardt settings of ``_minimize``, the one loop both
# refinement stages run. STEP_TOL is an absolute bound on an accepted step's
# norm, in parameter units.
MAX_ITERS = 100
DAMPING_INIT = 1e-4
DAMPING_FACTOR = 10.0
STEP_TOL = 1e-12

# Relative cost change at which the LM has converged: an accepted step that
# lowers the cost by no more, or a rejected step in front of every camera
# that moves it by no more, changes nothing at this precision.
COST_RTOL = 1e-12


@dataclass(frozen=True)
class RefinementResult:
    pose: Pose
    e2_initial: float
    e2_final: float
    iterations: int
    points_used: int


def _select_reference(centers, point):
    """Index of the reference view: first member of the widest-angle pair
    of viewing directions at the initial point.

    The Gram matrix is built elementwise as ``(dx_i dx_j + dy_i dy_j) +
    dz_i dz_j``, a fixed sum order that does not depend on how a BLAS
    rounds. Each product commutes and each sum keeps its order, so the
    matrix is exactly symmetric: with the diagonal masked to inf, the first
    row-major minimum is the first minimal pair (i, j), i < j, since a cell
    below the diagonal comes after its mirror.
    """
    dx, dy, dz = unit_rows(point - centers).T
    gram = np.multiply.outer(dx, dx)
    gram += np.multiply.outer(dy, dy)
    gram += np.multiply.outer(dz, dz)
    np.fill_diagonal(gram, np.inf)
    return int(np.argmin(gram)) // len(dx)


class _AnchorStack(Mapping):
    """Anchor id -> Pose over the given ids found in ``anchor_poses``, with
    their rotations, translations and centers stacked once, so that each
    track indexes rows instead of stacking Pose objects again."""

    def __init__(self, anchor_poses, ids):
        self._poses = {aid: anchor_poses[aid] for aid in dict.fromkeys(ids) if aid in anchor_poses}
        self.rows = {aid: k for k, aid in enumerate(self._poses)}
        self.rotations = np.array([p.rotation for p in self._poses.values()]).reshape(-1, 3, 3)
        self.translations = np.array([p.translation for p in self._poses.values()]).reshape(-1, 3)
        self.centers = camera_centers(self.rotations, self.translations)

    def rows_of(self, track):
        """Row of each view of ``track``; KeyError for an anchor not here."""
        try:
            return list(itemgetter(*track.anchor_ids)(self.rows))
        except KeyError as exc:
            raise KeyError(
                f"track {track.track_id!r} references unknown anchor {exc.args[0]!r}"
            ) from None

    def __getitem__(self, aid):
        return self._poses[aid]

    def __iter__(self):
        return iter(self._poses)

    def __len__(self):
        return len(self._poses)


def _track_arrays(track, anchor_poses, init):
    """Resolve poses, pick the reference view, and build the relative-pose
    arrays the energy kernels consume. ``anchor_poses`` is a query's
    ``_AnchorStack`` or any id -> Pose mapping, of which only the track's
    own anchors are stacked."""
    if not isinstance(anchor_poses, _AnchorStack):
        anchor_poses = _AnchorStack(anchor_poses, track.anchor_ids)
    rows = anchor_poses.rows_of(track)

    rot_all = anchor_poses.rotations[rows]
    trans_all = anchor_poses.translations[rows]
    centers = anchor_poses.centers[rows]
    if init is None:
        init = midpoint_of_views(centers[:2], rot_all[:2], track.features[:2])
    else:
        init = np.asarray(init, dtype=np.float64)

    ref = _select_reference(centers, init)
    ref_pose = anchor_poses[track.anchor_ids[ref]]
    others = np.delete(np.arange(len(rows)), ref)
    obs = track.features[others]
    # (R_k R_1^T, T_k - R_k1 T_1) for the non-reference views
    rots = rot_all[others] @ ref_pose.rotation.T
    trans = trans_all[others] - rots @ ref_pose.translation

    cam = ref_pose.rotation @ init + ref_pose.translation
    if cam[2] <= DEPTH_EPS:
        raise InitializationError(
            f"track {track.track_id!r}: initial point is behind the reference view"
        )
    return ref, ref_pose, track.features[ref], obs, rots, trans, cam


def _minimize(params, first, evaluate, retract):
    """Levenberg-Marquardt from ``params``, where ``first`` = (r, jac) is
    ``evaluate(params)``.

    ``evaluate(params)`` returns the residuals and their Jacobian in the
    step's coordinates, or None where a point falls behind a camera;
    ``retract(params, step)`` applies a step. The loop stops after an
    accepted step that lowers the cost by at most ``COST_RTOL`` of it, after
    a rejected step in front of every camera that moves the cost by at most
    that much, after an accepted step shorter than ``STEP_TOL``, when the
    damping passes 1e16, or after ``MAX_ITERS`` iterations. Returns
    ``(params, cost, iterations)``; the cost never exceeds the first one.
    """
    r, jac = first
    cost = initial_cost = r @ r
    damping = DAMPING_INIT
    eye = np.eye(jac.shape[1])
    iterations = 0
    for iterations in range(1, MAX_ITERS + 1):
        try:
            step = np.linalg.solve(jac.T @ jac + damping * eye, -(jac.T @ r))
        except np.linalg.LinAlgError:
            damping *= DAMPING_FACTOR
            continue
        cand = retract(params, step)
        new = evaluate(cand)
        cost_new = None if new is None else new[0] @ new[0]
        if new is None or not cost_new < cost:
            if new is not None and abs(cost_new - cost) <= COST_RTOL * cost:
                break
            damping *= DAMPING_FACTOR
            if damping > 1e16:
                break
            continue
        converged = cost - cost_new <= COST_RTOL * cost
        params, (r, jac), cost = cand, new, cost_new
        damping /= DAMPING_FACTOR
        if converged or np.linalg.norm(step) < STEP_TOL:
            break
    if cost > initial_cost:
        raise RuntimeError("energy increased during refinement; LM acceptance is broken")
    return params, cost, iterations


def triangulate_track(track, anchor_poses, init=None):
    """Triangulate one track against its anchor observations.

    Minimizes the anchor reprojection energy over the reference-view feature
    and log-depth with ``_minimize``. ``init`` is an optional world-point
    initializer; by default the first two anchor views are triangulated
    pairwise. Raises InitializationError when the starting point is behind
    a camera and DegenerateGeometryError from a degenerate initializer.
    """
    ref, ref_pose, ref_feat, obs, rots, trans, cam0 = _track_arrays(track, anchor_poses, init)

    def evaluate(params):
        rho = np.exp(params[2])
        # through the module, so that a wrapped kernel sees every call
        r, jac, min_depth = _kernels.e1_residual_jac(
            ref_feat, obs, rots, trans, params[0], params[1], rho
        )
        if min_depth <= DEPTH_EPS:
            return None
        jac[:, 2] *= rho  # chain rule for the log-depth parameterization
        return r, jac

    params = np.array([cam0[0] / cam0[2], cam0[1] / cam0[2], np.log(cam0[2])])
    first = evaluate(params)
    if first is None:
        raise InitializationError(
            f"track {track.track_id!r}: initial point is behind an anchor view"
        )
    (x, y, log_rho), cost, _ = _minimize(params, first, evaluate, np.add)

    rho = np.exp(log_rho)
    cam = rho * np.array([x, y, 1.0])
    world = ref_pose.rotation.T @ (cam - ref_pose.translation)
    return LatentPoint(
        track_id=track.track_id,
        world_point=world,
        reference_view=track.anchor_ids[ref],
        ref_feature=np.array([x, y]),
        ref_depth=float(rho),
        e1_residual=float(cost),
    )


def _e1_residuals(track, anchor_poses, gamma1, rho1, init):
    """Residuals and Jacobian of the anchor energy at (gamma1, rho1), with
    the reference view chosen as in :func:`triangulate_track`."""
    if rho1 <= 0 or not np.isfinite(rho1):
        raise ValueError(f"rho1 must be positive, got {rho1}")
    _, _, ref_feat, obs, rots, trans, _ = _track_arrays(track, anchor_poses, init)
    gamma1 = np.asarray(gamma1, dtype=np.float64)
    r, jac, min_depth = _kernels.e1_residual_jac(
        ref_feat, obs, rots, trans, gamma1[0], gamma1[1], rho1
    )
    if min_depth <= DEPTH_EPS:
        raise BehindCameraError(f"candidate depth {min_depth:.3e} <= {DEPTH_EPS}")
    return r, jac


def e1_objective(track, anchor_poses, gamma1, rho1, init=None):
    """Anchor reprojection energy at given reference-view parameters.

    The reference view is chosen exactly as in :func:`triangulate_track`
    (pass the same ``init`` to reproduce a solve's configuration; default is
    the pairwise triangulation of the first two views). Raises
    BehindCameraError when any candidate depth is non-positive.
    """
    r, _ = _e1_residuals(track, anchor_poses, gamma1, rho1, init)
    return float(r @ r)


def e1_gradient(track, anchor_poses, gamma1, rho1, init=None):
    """Gradient of the energy w.r.t. (x, y, rho); same conventions as
    :func:`e1_objective`."""
    r, jac = _e1_residuals(track, anchor_poses, gamma1, rho1, init)
    return 2.0 * (jac.T @ r)


def _query_residuals(rotation, translation, points, feats):
    cam = points @ rotation.T + translation
    w = cam[:, 2]
    if np.any(w <= DEPTH_EPS):
        return None, None, None
    pi = cam[:, :2] / w[:, None]
    r = (feats - pi).ravel()
    return r, cam, w


def _query_jacobian(rotation, points, cam, w):
    n = len(points)
    inv_w = 1.0 / w
    ux_w2 = cam[:, 0] * inv_w**2
    uy_w2 = cam[:, 1] * inv_w**2
    # d(residual)/d(u) rows are -[1/w, 0, -ux/w^2] and -[0, 1/w, -uy/w^2];
    # u varies as du = R [X]_x for the rotation increment and I for the
    # translation increment (right-multiplicative update R <- R exp([w]_x)).
    a = np.zeros((n, 2, 3))
    a[:, 0, 0] = a[:, 1, 1] = inv_w
    a[:, 0, 2] = -ux_w2
    a[:, 1, 2] = -uy_w2
    jac = np.empty((n, 2, 6))
    jac[:, :, :3] = a @ rotation @ skew_rows(points)
    jac[:, :, 3:] = -a
    return jac.reshape(2 * n, 6)


def refine_pose(tracks, anchor_poses, init_pose, tau_reproj=0.01):
    """Refine a query pose against triangulated latent points.

    Tracks failing triangulation, projecting behind the initial query pose,
    or with initial query reprojection error above ``tau_reproj`` are
    excluded; at least 3 usable points are required. The pose is then
    optimized with ``_minimize`` over a right-multiplicative axis-angle and
    translation increment, with the converged stop of triangulation. The
    final energy never exceeds the initial one.
    """
    tracks = list(tracks)
    # one pose stack per query, over the anchors the tracks reference
    stack = _AnchorStack(anchor_poses, chain.from_iterable(track.anchor_ids for track in tracks))

    points = []
    feats = []
    for track in tracks:
        try:
            latent = triangulate_track(track, stack)
        except (DegenerateGeometryError, InitializationError, KeyError):
            continue
        try:
            predicted = project(init_pose, latent.world_point)
        except BehindCameraError:
            continue
        if np.linalg.norm(track.query_feature - predicted) > tau_reproj:
            continue
        points.append(latent.world_point)
        feats.append(track.query_feature)

    if len(points) < 3:
        raise InsufficientDataError(
            f"only {len(points)} of {len(tracks)} tracks usable; need >= 3"
        )
    points = np.array(points)
    feats = np.array(feats)

    def evaluate(pose):
        r, cam, w = _query_residuals(pose[0], pose[1], points, feats)
        return None if r is None else (r, _query_jacobian(pose[0], points, cam, w))

    def retract(pose, step):
        return pose[0] @ rotvec_to_rotation(step[:3]), pose[1] + step[3:]

    start = (init_pose.rotation, init_pose.translation)
    first = evaluate(start)
    if first is None:
        raise InitializationError("initial pose puts a gated point behind the camera")
    e2_initial = first[0] @ first[0]
    (rotation, translation), cost, iterations = _minimize(start, first, evaluate, retract)
    return RefinementResult(
        pose=Pose(rotation, translation),
        e2_initial=float(e2_initial),
        e2_final=float(cost),
        iterations=iterations,
        points_used=len(points),
    )
