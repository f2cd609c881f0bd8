"""Latent-point pose refinement.

Stage one triangulates each multi-anchor feature track into a latent scene
point, parameterized by a reference-view feature and depth and optimized
against the anchor observations only (the query plays no part, so the query
pose cannot bias the structure). Stage two refines the query pose by
minimizing its reprojection error onto the fixed latent points.

``refine_pose`` builds the geometry every triangulation starts from once
per query, in one pass over all its views (``_AnchorStack``): each track's
two-view start, its reference view, its start in that view's frame and its
non-reference observations. Each ``triangulate_track`` call reads its
track's rows, forms their poses relative to the reference view and runs its
own Levenberg-Marquardt solve; a call given a plain pose mapping or an
explicit start builds the same stack for its one track. The stage-one
reprojection gate then tests all latent points at once.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Hashable

import numpy as np

from . import _kernels
from .errors import (
    DegenerateGeometryError,
    InitializationError,
    InsufficientDataError,
)
from .geometry import (
    DEPTH_EPS,
    NORM_EPS,
    Pose,
    camera_centers,
    rotvec_to_rotation,
    row_norms,
    skew_rows,
    unit_rows,
)
from .relpose import view_pair_midpoints


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


# _reference_views compares the viewing directions of tracks of one view
# count in blocks of at most this many Gram cells (227 tracks of 6 views, or
# one track of 150), which bounds its temporaries.
GRAM_BLOCK_CELLS = 8192


@dataclass(frozen=True)
class RefinementResult:
    pose: Pose
    e2_initial: float
    e2_final: float
    iterations: int
    points_used: int


def _reference_views(dirs, starts):
    """Reference view of each track: the first member of the widest-angle
    pair of its viewing directions at its start point, which are the rows
    ``starts[k]:starts[k + 1]`` of ``dirs`` for track k.

    The pair is the first row-major minimum, off the diagonal, of the
    track's Gram matrix summed elementwise as ``(dx_i dx_j + dy_i dy_j) +
    dz_i dz_j``, a fixed order that does not depend on how a BLAS rounds.
    That matrix is exactly symmetric, so its first minimal pair (i, j) has
    i < j. Each track is first screened by a BLAS Gram above the diagonal:
    every cell that can be the elementwise minimum lies within
    :func:`_screen_margin` of the screened minimum, so a track with one
    such cell takes it, and a track with more is recomputed elementwise.
    The result is the elementwise one in every case. Tracks of one view
    count are compared together in blocks of at most GRAM_BLOCK_CELLS cells
    (or one track), and a track's result is the same in any block.
    """
    counts = np.diff(starts)
    refs = np.empty(len(counts), dtype=np.intp)
    margin = _screen_margin(dirs)
    order = np.argsort(counts, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
        v = counts[group[0]]
        step = max(1, GRAM_BLOCK_CELLS // (v * v))
        index = np.arange(v)
        # inf on and below the diagonal, 0 above it
        lower = np.where(index[:, None] >= index, np.inf, 0.0).reshape(-1)
        for lo in range(0, len(group), step):
            block = group[lo:lo + step]
            d = dirs.take(starts[block, None] + index, axis=0)  # (tracks, v, 3)
            # a contiguous right factor keeps the product on BLAS
            cells = (d @ np.ascontiguousarray(d.swapaxes(1, 2))).reshape(len(block), -1)
            cells += lower
            best = cells.argmin(axis=1)
            refs[block] = best // v
            near = cells <= (cells[np.arange(len(block)), best] + margin)[:, None]
            # one near cell per track is its minimum; a nan margin marks none
            if np.count_nonzero(near) != len(block):
                recheck = np.count_nonzero(near, axis=1) != 1
                refs[block[recheck]] = _elementwise_references(d[recheck])
    return refs


def _screen_margin(dirs):
    """Bound on how far above the screened minimum of a Gram matrix of
    ``dirs`` rows the screened cell of its elementwise minimum can be: nan
    or inf, which rechecks every track, when a coordinate is not finite.

    Any order of summing the three products of a cell, with or without a
    fused multiply-add, is within gamma_3 sum_k |d_ik d_jk| <= gamma_3 S of
    the exact dot product (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1), with gamma_3 = 3u / (1 - 3u) ~ 3u, u = eps / 2
    the unit roundoff, S = 3 c^2 and c the largest coordinate magnitude. A
    screened and an elementwise cell so differ by at most 2 gamma_3 S, and
    the elementwise minimum's screened cell is at most 4 gamma_3 S above the
    screened minimum; adding the margin to that minimum rounds off at most
    another u S. The margin 16 u S covers those 13 u S with room for its
    own rounding.
    """
    c = np.max(np.abs(dirs), initial=0.0)
    return 8.0 * np.finfo(np.float64).eps * (3.0 * c * c)


def _elementwise_references(d):
    """Reference views of a (tracks, v, 3) stack of viewing directions from
    their elementwise Gram matrices (see :func:`_reference_views`)."""
    v = d.shape[1]
    dx, dy, dz = np.moveaxis(d, 2, 0)
    gram = dx[:, :, None] * dx[:, None, :]
    gram += dy[:, :, None] * dy[:, None, :]
    gram += dz[:, :, None] * dz[:, None, :]
    cells = gram.reshape(len(d), -1)
    cells[:, ::v + 1] = np.inf  # the diagonal
    return cells.argmin(axis=1) // v


class _AnchorStack(Mapping):
    """Anchor id -> Pose over the anchors that ``tracks`` name and
    ``anchor_poses`` holds, with their rotations, translations and centers
    stacked once, and the triangulation geometry of every track built from
    them in one pass over all the query's views:

    * the start point: the two-view midpoint of the track's first two views,
      or its row of the (T, 3) ``inits``;
    * the reference view, by :func:`_reference_views`, and the start in the
      reference frame;
    * the non-reference views' pose rows and observations, and the
      reference feature.

    :meth:`geometry` then forms one track's poses relative to its reference
    view, (R_k R_ref^T, T_k - R_k,ref T_ref), from that track's rows alone.
    The products of the one pass are stacked (3, 3) or (3, 1) ones, the BLAS
    call of the same product on one track, so a track's geometry is
    bit-for-bit the same in any stack. A track that cannot be triangulated
    keeps the error :meth:`geometry` raises for it: KeyError for an unknown
    anchor, DegenerateGeometryError for a degenerate start and
    InitializationError for a start behind its reference view.
    """

    def __init__(self, anchor_poses, tracks, inits=None):
        tracks = list(tracks)
        ids = dict.fromkeys(chain.from_iterable(track.anchor_ids for track in tracks))
        self._poses = {aid: anchor_poses[aid] for aid in ids if aid in anchor_poses}
        row_of = {aid: k for k, aid in enumerate(self._poses)}
        self.rotations = np.array([p.rotation for p in self._poses.values()]).reshape(-1, 3, 3)
        self.translations = np.array([p.translation for p in self._poses.values()]).reshape(-1, 3)
        self.centers = camera_centers(self.rotations, self.translations)
        self._errors = {}
        known, rows = [], []
        for k, track in enumerate(tracks):
            try:
                rows.append(itemgetter(*track.anchor_ids)(row_of))
            except KeyError as exc:
                self._fail(track, KeyError,
                           f"track {track.track_id!r} references unknown anchor {exc.args[0]!r}")
            else:
                known.append(k)
        self._tracks = [tracks[k] for k in known]
        self._index = {track: j for j, track in enumerate(self._tracks)}
        if known:
            inits = None if inits is None else np.asarray(inits, dtype=np.float64)[known]
            # the rows of a track with a degenerate start may not be finite
            with np.errstate(divide="ignore", invalid="ignore"):
                self._start_geometry(rows, inits)

    def _fail(self, track, error, message):
        self._errors.setdefault(track, (error, message))

    def _start_geometry(self, rows, inits):
        """Start points, reference views, starts in the reference frame and
        non-reference views of every track, from its pose rows ``rows``."""
        tracks = self._tracks
        starts = np.cumsum([0] + [len(r) for r in rows])
        view_rows = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=starts[-1])
        if inits is None:
            pair = np.stack([starts[:-1], starts[:-1] + 1])
            inits, degenerate = view_pair_midpoints(
                self.centers[view_rows[pair]],
                self.rotations[view_rows[pair]],
                np.array([track.features[:2] for track in tracks]).swapaxes(0, 1),
            )
            for j in np.flatnonzero(degenerate):
                self._fail(tracks[j], DegenerateGeometryError,
                           f"track {tracks[j].track_id!r}: degenerate two-view start")
        owner = np.repeat(np.arange(len(tracks)), np.diff(starts))
        rays = inits[owner]
        rays -= self.centers[view_rows]
        try:
            dirs = unit_rows(rays)
        except DegenerateGeometryError:  # a start on a view's center
            on_center = row_norms(rays) < NORM_EPS
            for j in np.flatnonzero(np.logical_or.reduceat(on_center, starts[:-1])):
                self._fail(tracks[j], DegenerateGeometryError,
                           f"track {tracks[j].track_id!r}: start point on a view's center")
            rays[on_center] = 1.0
            dirs = unit_rows(rays)
        self._ref = _reference_views(dirs, starts)
        ref_views = starts[:-1] + self._ref
        ref_rows = view_rows[ref_views]
        cams = (self.rotations[ref_rows] @ inits[:, :, None])[:, :, 0]
        self._cams = cams + self.translations[ref_rows]
        for j in np.flatnonzero(self._cams[:, 2] <= DEPTH_EPS):
            self._fail(tracks[j], InitializationError,
                       f"track {tracks[j].track_id!r}: initial point is behind the reference view")
        others = np.ones(len(view_rows), dtype=bool)
        others[ref_views] = False
        features = np.concatenate([track.features for track in tracks])
        self._ref_features = features[ref_views]
        self._obs = features[others]
        self._other_rows = view_rows[others]
        # track j's non-reference views are rows _obs_starts[j]:_obs_starts[j + 1]
        self._obs_starts = (starts - np.arange(len(tracks) + 1)).tolist()

    def holds(self, track):
        """Whether the stack was built for ``track``."""
        return track in self._index or track in self._errors

    def geometry(self, track):
        """``(ref, ref_pose, ref_feature, obs, rots, trans, start)`` of a
        track the stack holds: the reference view's index and pose, its
        feature, the (M, 2) non-reference observations with their (M, 3, 3)
        and (M, 3) poses relative to the reference view, and the start in
        the reference frame. Raises the track's error instead, if it has
        one."""
        if track in self._errors:
            error, message = self._errors[track]
            raise error(message)
        j = self._index[track]
        ref = int(self._ref[j])
        ref_pose = self._poses[track.anchor_ids[ref]]
        rows = slice(self._obs_starts[j], self._obs_starts[j + 1])
        others = self._other_rows[rows]
        rots = self.rotations[others] @ ref_pose.rotation.T
        trans = self.translations[others] - rots @ ref_pose.translation
        return ref, ref_pose, self._ref_features[j], self._obs[rows], rots, trans, self._cams[j]

    def __getitem__(self, aid):
        return self._poses[aid]

    def __iter__(self):
        return iter(self._poses)

    def __len__(self):
        return len(self._poses)


def _track_geometry(track, anchor_poses, init):
    """:meth:`_AnchorStack.geometry` of ``track`` from the query stack
    ``anchor_poses`` built for it, else from a stack built for this one
    track (from any id -> Pose mapping, and with ``init`` as its start when
    one is given)."""
    if init is not None or not (
        isinstance(anchor_poses, _AnchorStack) and anchor_poses.holds(track)
    ):
        anchor_poses = _AnchorStack(anchor_poses, [track], None if init is None else [init])
    return anchor_poses.geometry(track)


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
    diagonal = slice(None, None, jac.shape[1] + 1)  # of the flattened J^T J
    iterations = 0
    for iterations in range(1, MAX_ITERS + 1):
        normal = jac.T @ jac
        normal.reshape(-1)[diagonal] += damping
        try:
            step = np.linalg.solve(normal, -(jac.T @ r))
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
        if converged or math.sqrt(step @ step) < STEP_TOL:
            break
    if cost > initial_cost:
        raise RuntimeError("energy increased during refinement; LM acceptance is broken")
    return params, cost, iterations


def triangulate_track(track, anchor_poses, init=None):
    """Triangulate one track against its anchor observations.

    Minimizes the anchor reprojection energy over the reference-view feature
    and log-depth with ``_minimize``. ``init`` is an optional world-point
    initializer; by default the first two anchor views are triangulated
    pairwise. The start, reference view and relative poses come from the
    track's rows of ``anchor_poses`` when that is the query stack
    ``refine_pose`` built for it, else of a stack built for this one track. Raises KeyError
    for an anchor not in ``anchor_poses``, InitializationError when the
    starting point is behind a camera and DegenerateGeometryError from a
    degenerate initializer.
    """
    ref, ref_pose, ref_feat, obs, rots, trans, cam0 = _track_geometry(track, anchor_poses, init)

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
    excluded; at least 3 usable points are required. Every track is
    triangulated from one stack of the query's track geometry, and the gate
    projects all latent points at once, each by its own (3, 1) column
    product ``R X + T``.
    The pose is then optimized with ``_minimize`` over a right-multiplicative
    axis-angle and translation increment, with the converged stop of
    triangulation. The final energy never exceeds the initial one.
    """
    tracks = list(tracks)
    # one pose and track-geometry stack per query
    stack = _AnchorStack(anchor_poses, tracks)

    points = []
    feats = []
    for track in tracks:
        try:
            latent = triangulate_track(track, stack)
        except (DegenerateGeometryError, InitializationError, KeyError):
            continue
        points.append(latent.world_point)
        feats.append(track.query_feature)
    points = np.array(points).reshape(-1, 3)
    feats = np.array(feats).reshape(-1, 2)

    # the gate, on one (3, 1) column product per point
    cam = (init_pose.rotation @ points[:, :, None])[:, :, 0] + init_pose.translation
    with np.errstate(divide="ignore", invalid="ignore"):
        error = row_norms(feats - cam[:, :2] / cam[:, 2:])
    usable = ~(cam[:, 2] <= DEPTH_EPS) & ~(error > tau_reproj)
    points = points[usable]
    feats = feats[usable]
    if len(points) < 3:
        raise InsufficientDataError(
            f"only {len(points)} of {len(tracks)} tracks usable; need >= 3"
        )

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
