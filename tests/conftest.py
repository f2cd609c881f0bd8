"""Shared helpers for the mvloc test suite.

Rotation constructors and random pose factories used across modules live
here so expected values in tests are built from one set of primitives.
"""

import itertools

import numpy as np
import pytest

from mvloc import ObservationStack, Pose
from mvloc.geometry import (
    DEPTH_EPS,
    ensure_rotations,
    nearest_rotation,
    quat_to_rotation,
    relative_poses,
    unit_directions,
)

# Lines recorded by the acceptance tests; printed as a summary section so
# each criterion shows one visible pass/fail line in the terminal output.
ACCEPTANCE_LINES = []


def record(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# ---------------------------------------------------------------- rotations


def rot_x(deg):
    a = np.deg2rad(deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(deg):
    a = np.deg2rad(deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(deg):
    a = np.deg2rad(deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_rotation(rng):
    q = rng.normal(size=4)
    q = q / np.linalg.norm(q)
    return quat_to_rotation(q)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_pose(rng, spread=3.0):
    r = random_rotation(rng)
    center = rng.uniform(-spread, spread, size=3)
    return Pose(r, -r @ center)


# ------------------------------------------------------- observation stacks


def observation_stack(anchor_ids, anchor_poses, rel_rotations, rel_directions):
    """ObservationStack of anchor poses and relative poses, every relative
    pose checked as a RelativePoseEstimate checks one."""
    return ObservationStack(
        anchor_ids,
        np.array([pose.rotation for pose in anchor_poses]).reshape(-1, 3, 3),
        np.array([pose.translation for pose in anchor_poses]).reshape(-1, 3),
        ensure_rotations(np.array(rel_rotations, dtype=np.float64).reshape(-1, 3, 3)),
        unit_directions(np.array(rel_directions, dtype=np.float64).reshape(-1, 3)),
    )


def with_relative(stack, rel_rotations, rel_directions, anchor_ids=None):
    """``stack`` with its relative poses, and its ids when given, replaced;
    the new relative poses are checked as :func:`observation_stack` does."""
    return ObservationStack(
        stack.anchor_ids if anchor_ids is None else anchor_ids,
        stack.anchor_rotations,
        stack.anchor_translations,
        ensure_rotations(np.array(rel_rotations, dtype=np.float64).reshape(-1, 3, 3)),
        unit_directions(np.array(rel_directions, dtype=np.float64).reshape(-1, 3)),
    )


def scrambled(stack, rng, pick):
    """``stack`` with the relative pose of every row k for which ``pick(k)``
    holds replaced by unrelated garbage, rows visited in order."""
    rotations, directions = stack.rel_rotations.copy(), stack.rel_directions.copy()
    for k in range(len(stack)):
        if pick(k):
            rotations[k], directions[k] = random_rotation(rng), random_unit(rng)
    return with_relative(stack, rotations, directions)


def consistent_observations(rng, k, spread=3.0):
    """ObservationStack of k noiseless observations, ids a0, a1, ..., of
    one random query pose, and that pose."""
    query = random_pose(rng, spread)
    anchors = []
    for _ in range(k):
        anchor = random_pose(rng, spread)
        # guard against an anchor landing on the query center
        while np.linalg.norm(anchor.center() - query.center()) < 0.5:
            anchor = random_pose(rng, spread)
        anchors.append(anchor)
    rotations = np.array([anchor.rotation for anchor in anchors])
    translations = np.array([anchor.translation for anchor in anchors])
    stack = ObservationStack(
        [f"a{i}" for i in range(k)], rotations, translations,
        *relative_poses(query, rotations, translations),
    )
    return stack, query


def proper_signed_permutations():
    """The 24 rotations whose matrices are signed permutations: they move a
    vector without rounding."""
    mats = []
    for perm in itertools.permutations(range(3)):
        base = np.zeros((3, 3))
        base[np.arange(3), perm] = 1.0
        for signs in itertools.product((1.0, -1.0), repeat=3):
            mat = base * np.array(signs)[:, None]
            if np.linalg.det(mat) > 0.5:
                mats.append(mat)
    return mats


def stable_geodesic_deg(a, b):
    """Angle between two rotations, accurate near zero.

    The arccos-of-trace form loses half the significant digits close to
    identity (trace rounding of order eps turns into sqrt(eps) angle), so
    sub-1e-6-degree comparisons go through the quaternion instead.
    """
    q = per_rotation_quat(a.T @ b)
    return np.rad2deg(2.0 * np.arctan2(np.linalg.norm(q[1:]), abs(q[0])))


# ------------------------------------------------- per-rotation Shepperd
#
# Reference for ``geometry.rotations_to_quats``: one rotation at a time,
# branching on the largest of the trace and the diagonal. The stacked
# conversion must return the same bits for every row.


def per_quat_canonical(q):
    """The sign of q whose first nonzero component is positive."""
    for comp in q:
        if comp != 0:
            return q.copy() if comp > 0 else -q
    raise ValueError("zero quaternion has no canonical form")


def per_rotation_quat(mat):
    from mvloc.geometry import ensure_rotation

    m = ensure_rotation(mat)
    t = np.trace(m)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] >= m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    return per_quat_canonical(q / np.linalg.norm(q))


# ------------------------------------------------- triangulation oracle


def reference_relative_poses(track, anchor_poses, ref_id):
    """Observed features and poses of the non-reference views expressed
    relative to the reference view: x_k = R_k1 x_1 + T_k1."""
    ref_pose = anchor_poses[ref_id]
    feats, rels = [], []
    ref_feat = None
    for aid, feat in track.anchors:
        if aid == ref_id:
            ref_feat = np.asarray(feat, dtype=float)
            continue
        pose = anchor_poses[aid]
        r = pose.rotation @ ref_pose.rotation.T
        t = pose.translation - r @ ref_pose.translation
        feats.append(np.asarray(feat, dtype=float))
        rels.append((r, t))
    return ref_feat, feats, rels


def e1_direct(ref_feat, feats, rels, g1x, g1y, rho):
    """Reprojection-sum form of the two-term triangulation energy,
    vectorized over parameter grids (g1x, g1y, rho broadcast together)."""
    total = (g1x - ref_feat[0]) ** 2 + (g1y - ref_feat[1]) ** 2
    for (r, t), feat in zip(rels, feats):
        px = rho * (r[0, 0] * g1x + r[0, 1] * g1y + r[0, 2]) + t[0]
        py = rho * (r[1, 0] * g1x + r[1, 1] * g1y + r[1, 2]) + t[1]
        pz = rho * (r[2, 0] * g1x + r[2, 1] * g1y + r[2, 2]) + t[2]
        total = total + (px / pz - feat[0]) ** 2 + (py / pz - feat[1]) ** 2
    return total


def grid_polish_minimum(ref_feat, feats, rels, g_center, rho_center,
                        g_halfwidth=5e-3, rho_relwidth=0.05):
    """Exhaustive grid search over the stated parameter windows, refined
    by repeatedly shrinking the grid around the running argmin until the
    cell size is far below the requested resolution."""
    cx, cy = float(g_center[0]), float(g_center[1])
    cr = float(rho_center)
    hx = hy = g_halfwidth
    hr = rho_relwidth * cr
    n = 21
    best = None
    for _ in range(45):
        gx = np.linspace(cx - hx, cx + hx, n)
        gy = np.linspace(cy - hy, cy + hy, n)
        gr = np.maximum(np.linspace(cr - hr, cr + hr, n), 1e-12)
        mx, my, mr = np.meshgrid(gx, gy, gr, indexing="ij")
        vals = e1_direct(ref_feat, feats, rels, mx, my, mr)
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        cx, cy, cr = mx[idx], my[idx], mr[idx]
        best = vals[idx]
        hx *= 0.5
        hy *= 0.5
        hr *= 0.5
    return np.array([cx, cy]), cr, float(best)


def _e1_residuals(track, anchor_poses, gamma1, rho1, init):
    """Residuals and Jacobian of the anchor energy at (gamma1, rho1), with
    the reference view chosen as in ``refine.triangulate_track``. Raises
    ValueError when any candidate depth is <= DEPTH_EPS."""
    from mvloc import _kernels
    from mvloc.refine import _track_geometry

    if rho1 <= 0 or not np.isfinite(rho1):
        raise ValueError(f"rho1 must be positive, got {rho1}")
    _, _, ref_feat, obs, rots, trans, _ = _track_geometry(track, anchor_poses, init)
    gamma1 = np.asarray(gamma1, dtype=np.float64)
    r, jac, min_depth = _kernels.e1_residual_jac(
        ref_feat, obs, rots, trans, gamma1[0], gamma1[1], rho1
    )
    if min_depth <= DEPTH_EPS:
        raise ValueError(f"candidate depth {min_depth:.3e} <= {DEPTH_EPS}")
    return r, jac


def e1_objective(track, anchor_poses, gamma1, rho1, init=None):
    """Anchor reprojection energy of a track at given reference-view
    parameters (pass the ``init`` of a solve to reproduce its reference
    view; default is the pairwise triangulation of the first two views)."""
    r, _ = _e1_residuals(track, anchor_poses, gamma1, rho1, init)
    return float(r @ r)


def e1_gradient(track, anchor_poses, gamma1, rho1, init=None):
    """Gradient of :func:`e1_objective` w.r.t. (x, y, rho)."""
    r, jac = _e1_residuals(track, anchor_poses, gamma1, rho1, init)
    return 2.0 * (jac.T @ r)


# ------------------------------------------------ per-track geometry oracle
#
# Reference for the per-query track geometry of ``refine._AnchorStack``:
# each track's start, reference view and relative poses built on its own
# arrays, one track at a time, then triangulated and gated one by one. The
# query's stack must give every track the same bytes or the same error.


def one_pair_midpoint(centers, rotations, feats):
    """Midpoint of the common perpendicular of two viewing rays, with one
    vector dot at a time."""
    from mvloc.errors import DegenerateGeometryError
    from mvloc.geometry import PARALLEL_RAY_EPS, unit

    o1, o2 = centers
    d1, d2 = (unit(r.T @ np.array([f[0], f[1], 1.0])) for r, f in zip(rotations, feats))
    if np.linalg.norm(o1 - o2) < 1e-12:
        raise DegenerateGeometryError("rays share an origin")
    b = d1 @ d2
    denom = 1.0 - b * b
    if denom <= PARALLEL_RAY_EPS**2:
        raise DegenerateGeometryError("rays are parallel")
    w = o1 - o2
    d = d1 @ w
    e = d2 @ w
    t1 = (b * e - d) / denom
    t2 = (e - b * d) / denom
    return 0.5 * ((o1 + t1 * d1) + (o2 + t2 * d2))


def per_track_reference(centers, point):
    """Reference view of one track: the first member of the first minimal
    row-major pair of its elementwise-summed Gram matrix."""
    from mvloc.geometry import unit_rows

    dx, dy, dz = unit_rows(point - centers).T
    gram = np.multiply.outer(dx, dx)
    gram += np.multiply.outer(dy, dy)
    gram += np.multiply.outer(dz, dz)
    np.fill_diagonal(gram, np.inf)
    return int(np.argmin(gram)) // len(dx)


def per_track_arrays(track, anchor_poses, init=None):
    """One track's ``(ref, ref_pose, ref_feature, obs, rots, trans, start)``
    as ``refine._AnchorStack.geometry`` gives them, from the track's own
    poses."""
    from mvloc.errors import InitializationError
    from mvloc.geometry import DEPTH_EPS, camera_centers

    try:
        poses = [anchor_poses[aid] for aid in track.anchor_ids]
    except KeyError as exc:
        raise KeyError(
            f"track {track.track_id!r} references unknown anchor {exc.args[0]!r}"
        ) from None
    rot_all = np.array([pose.rotation for pose in poses])
    trans_all = np.array([pose.translation for pose in poses])
    centers = camera_centers(rot_all, trans_all)
    if init is None:
        init = one_pair_midpoint(centers[:2], rot_all[:2], track.features[:2])
    else:
        init = np.asarray(init, dtype=np.float64)

    ref = per_track_reference(centers, init)
    ref_pose = poses[ref]
    others = np.delete(np.arange(len(poses)), ref)
    rots = rot_all[others] @ ref_pose.rotation.T
    trans = trans_all[others] - rots @ ref_pose.translation
    cam = ref_pose.rotation @ init + ref_pose.translation
    if cam[2] <= DEPTH_EPS:
        raise InitializationError(
            f"track {track.track_id!r}: initial point is behind the reference view"
        )
    return ref, ref_pose, track.features[ref], track.features[others], rots, trans, cam


def per_track_triangulate(track, anchor_poses, init=None):
    """``refine.triangulate_track`` on :func:`per_track_arrays`."""
    from mvloc import _kernels
    from mvloc.errors import InitializationError
    from mvloc.geometry import DEPTH_EPS
    from mvloc.refine import LatentPoint, _minimize

    ref, ref_pose, ref_feat, obs, rots, trans, cam0 = per_track_arrays(track, anchor_poses, init)

    def evaluate(params):
        rho = np.exp(params[2])
        r, jac, min_depth = _kernels.e1_residual_jac(
            ref_feat, obs, rots, trans, params[0], params[1], rho
        )
        if min_depth <= DEPTH_EPS:
            return None
        jac[:, 2] *= rho
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
    return LatentPoint(
        track_id=track.track_id,
        world_point=ref_pose.rotation.T @ (cam - ref_pose.translation),
        reference_view=track.anchor_ids[ref],
        ref_feature=np.array([x, y]),
        ref_depth=float(rho),
        e1_residual=float(cost),
    )


def per_track_gated_points(tracks, anchor_poses, init_pose, tau_reproj):
    """Latent points and query features of the tracks that triangulate with
    :func:`per_track_triangulate`, project in front of ``init_pose`` and
    reproject within ``tau_reproj``, gated one point at a time."""
    from mvloc.errors import DegenerateGeometryError, InitializationError

    points, feats = [], []
    for track in tracks:
        try:
            latent = per_track_triangulate(track, anchor_poses)
        except (DegenerateGeometryError, InitializationError, KeyError):
            continue
        try:
            predicted = project(init_pose, latent.world_point)
        except ValueError:
            continue
        if np.linalg.norm(track.query_feature - predicted) > tau_reproj:
            continue
        points.append(latent.world_point)
        feats.append(track.query_feature)
    if len(points) < 3:
        from mvloc.errors import InsufficientDataError

        raise InsufficientDataError(f"only {len(points)} of {len(tracks)} tracks usable")
    return np.array(points), np.array(feats)


def per_track_refine_pose(tracks, anchor_poses, init_pose, tau_reproj=0.01):
    """``refine.refine_pose`` on :func:`per_track_gated_points`."""
    from mvloc.errors import InitializationError
    from mvloc.geometry import Pose, rotvec_to_rotation
    from mvloc.refine import RefinementResult, _minimize, _query_jacobian, _query_residuals

    points, feats = per_track_gated_points(list(tracks), anchor_poses, init_pose, tau_reproj)

    def evaluate(pose):
        r, cam, w = _query_residuals(pose[0], pose[1], points, feats)
        return None if r is None else (r, _query_jacobian(pose[0], points, cam, w))

    def retract(pose, step):
        return pose[0] @ rotvec_to_rotation(step[:3]), pose[1] + step[3:]

    start = (init_pose.rotation, init_pose.translation)
    first = evaluate(start)
    if first is None:
        raise InitializationError("initial pose puts a gated point behind the camera")
    (rotation, translation), cost, iterations = _minimize(start, first, evaluate, retract)
    return RefinementResult(
        pose=Pose(rotation, translation),
        e2_initial=float(first[0] @ first[0]),
        e2_final=float(cost),
        iterations=iterations,
        points_used=len(points),
    )


# ------------------------------------------------- query Jacobian oracle
#
# Reference for ``refine._query_jacobian``: one (2, 6) block per point. The
# stacked products must give the same bytes.


def loop_query_jacobian(rotation, points, cam, w):
    n = len(points)
    jac = np.empty((2 * n, 6))
    inv_w = 1.0 / w
    ux_w2 = cam[:, 0] * inv_w**2
    uy_w2 = cam[:, 1] * inv_w**2
    for k in range(n):
        a = np.array(
            [
                [inv_w[k], 0.0, -ux_w2[k]],
                [0.0, inv_w[k], -uy_w2[k]],
            ]
        )
        jac[2 * k : 2 * k + 2, :3] = a @ rotation @ one_vector_skew(points[k])
        jac[2 * k : 2 * k + 2, 3:] = -a
    return jac


# ------------------------------------------ triangulation LM without early stop
#
# Reference for ``refine.triangulate_track``: the same Levenberg-Marquardt
# with only the step-length and damping exits, so it keeps iterating after
# the cost has converged. The converged-stop loop must end at the same point
# up to rounding, never at a lower cost.


def lm_triangulate_without_convergence_stop(track, anchor_poses, init=None):
    from mvloc import _kernels
    from mvloc.errors import InitializationError
    from mvloc.geometry import DEPTH_EPS
    from mvloc.refine import (
        DAMPING_FACTOR,
        DAMPING_INIT,
        MAX_ITERS,
        STEP_TOL,
        LatentPoint,
    )

    ref, ref_pose, ref_feat, obs, rots, trans, cam0 = per_track_arrays(track, anchor_poses, init)

    x, y = cam0[0] / cam0[2], cam0[1] / cam0[2]
    log_rho = np.log(cam0[2])

    r, jac, min_depth = _kernels.e1_residual_jac(ref_feat, obs, rots, trans, x, y, np.exp(log_rho))
    if min_depth <= DEPTH_EPS:
        raise InitializationError(
            f"track {track.track_id!r}: initial point is behind an anchor view"
        )
    cost = r @ r
    damping = DAMPING_INIT

    for _ in range(MAX_ITERS):
        rho = np.exp(log_rho)
        jac_p = jac.copy()
        jac_p[:, 2] *= rho  # chain rule for the log-depth parameterization
        jtj = jac_p.T @ jac_p
        jtr = jac_p.T @ r
        try:
            step = np.linalg.solve(jtj + damping * np.eye(3), -jtr)
        except np.linalg.LinAlgError:
            damping *= DAMPING_FACTOR
            continue
        cand = (x + step[0], y + step[1], log_rho + step[2])
        r_new, jac_new, min_depth = _kernels.e1_residual_jac(
            ref_feat, obs, rots, trans, cand[0], cand[1], np.exp(cand[2])
        )
        cost_new = r_new @ r_new
        if min_depth <= DEPTH_EPS or not cost_new < cost:
            damping *= DAMPING_FACTOR
            if damping > 1e16:
                break
            continue
        x, y, log_rho = cand
        r, jac, cost = r_new, jac_new, cost_new
        damping /= DAMPING_FACTOR
        if np.linalg.norm(step) < STEP_TOL:
            break

    rho = np.exp(log_rho)
    cam = rho * np.array([x, y, 1.0])
    world = ref_pose.rotation.T @ (cam - ref_pose.translation)
    return LatentPoint(
        track_id=track.track_id,
        world_point=world,
        reference_view=track.anchors[ref][0],
        ref_feature=np.array([x, y]),
        ref_depth=float(rho),
        e1_residual=float(cost),
    )


# --------------------------------------------- query LM without early stop
#
# Reference for ``refine.refine_pose``: the same track gates and the same
# Levenberg-Marquardt over (R exp([w]_x), T + dt), with only the step-length
# and damping exits. The converged-stop loop must end on one of its iterates.


def lm_query_without_convergence_stop(tracks, anchor_poses, init_pose, tau_reproj=0.01):
    from mvloc.errors import InitializationError
    from mvloc.geometry import Pose, rotvec_to_rotation
    from mvloc.refine import (
        DAMPING_FACTOR,
        DAMPING_INIT,
        MAX_ITERS,
        STEP_TOL,
        RefinementResult,
        _query_jacobian,
        _query_residuals,
    )

    points, feats = per_track_gated_points(tracks, anchor_poses, init_pose, tau_reproj)

    rotation = init_pose.rotation.copy()
    translation = init_pose.translation.copy()
    r, cam, w = _query_residuals(rotation, translation, points, feats)
    if r is None:
        raise InitializationError("initial pose puts a gated point behind the camera")
    cost = r @ r
    e2_initial = cost
    damping = DAMPING_INIT
    iterations = 0

    for _ in range(MAX_ITERS):
        iterations += 1
        jac = _query_jacobian(rotation, points, cam, w)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        try:
            step = np.linalg.solve(jtj + damping * np.eye(6), -jtr)
        except np.linalg.LinAlgError:
            damping *= DAMPING_FACTOR
            continue
        rot_new = rotation @ rotvec_to_rotation(step[:3])
        trans_new = translation + step[3:]
        r_new, cam_new, w_new = _query_residuals(rot_new, trans_new, points, feats)
        if r_new is None or not (r_new @ r_new) < cost:
            damping *= DAMPING_FACTOR
            if damping > 1e16:
                break
            continue
        rotation, translation = rot_new, trans_new
        r, cam, w = r_new, cam_new, w_new
        cost = r @ r
        damping /= DAMPING_FACTOR
        if np.linalg.norm(step) < STEP_TOL:
            break

    if cost > e2_initial:
        raise RuntimeError("energy increased during refinement; LM acceptance is broken")
    return RefinementResult(
        pose=Pose(rotation, translation),
        e2_initial=float(e2_initial),
        e2_final=float(cost),
        iterations=iterations,
        points_used=len(points),
    )


# ------------------------------------------------- scene validity pair loop
#
# Reference for ``simulate._scene_valid``: the camera-gap test as a loop
# over center pairs, each distance a norm of its own.


def pair_loop_scene_valid(points, poses, radius):
    centers = np.array([p.center() for p in poses])
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if np.linalg.norm(centers[i] - centers[j]) < 1e-3 * radius:
                return False
    for pose in poses:
        feats, depths = one_pose_features(pose, points)
        if depths.min() <= 0.2 * radius or np.abs(feats).max() >= 10.0:
            return False
    return True


# ------------------------------------------------- per-anchor synthesis
#
# References for the stacked synthesis in ``mvloc.simulate`` and the stacked
# residuals of ``averaging.govindu_translation_average``: the same arithmetic
# one anchor, pose or observation at a time, through the one-object
# constructors that validate each pose. The stacked code must reproduce
# them bit for bit and leave a generator where they leave it.


def one_vector_skew(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def one_vector_rotvec_to_rotation(w):
    """Rodrigues for one axis-angle vector."""
    w = np.asarray(w, dtype=np.float64)
    angle = np.linalg.norm(w)
    if angle < 1e-12:
        return np.eye(3)
    axis = w / angle
    k = one_vector_skew(axis)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def one_pair_relative_pose(query, anchor):
    from mvloc import RelativePoseEstimate

    rotation = query.rotation @ anchor.rotation.T
    t = query.translation - rotation @ anchor.translation
    return RelativePoseEstimate(rotation, t)


def _look_at(center, target):
    from mvloc.geometry import unit

    forward = unit(np.asarray(target, dtype=np.float64) - center)
    x = np.cross([0.0, 0.0, 1.0], forward)
    if np.linalg.norm(x) < 1e-9:
        x = np.cross([1.0, 0.0, 0.0], forward)
    x = unit(x)
    return np.array([x, np.cross(forward, x), forward])


def _pose_at(center, target):
    # the translation comes from the look-at rotation before Pose validates it
    rotation = _look_at(center, target)
    return Pose(rotation, -rotation @ center)


def per_anchor_generate_scene(config, seed):
    """``simulate.generate_scene`` with one ``_pose_at`` per camera."""
    from mvloc.errors import GenerationError
    from mvloc.simulate import MAX_GENERATION_ATTEMPTS, SyntheticScene

    n = config.n_anchors
    for attempt in range(MAX_GENERATION_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        points = rng.uniform(-config.extent, config.extent, (config.n_points, 3))
        centroid = points.mean(axis=0)
        if config.layout == "ring":
            angles = 2 * np.pi * np.arange(n) / n + rng.uniform(-0.3, 0.3, n) * (2 * np.pi / n)
            heights = rng.uniform(-0.15, 0.15, n) * config.radius
            centers = centroid + np.column_stack(
                [config.radius * np.cos(angles), config.radius * np.sin(angles), heights]
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
        else:
            span = (np.arange(n) / max(n - 1, 1) - 0.5) * config.radius
            heights = rng.uniform(-0.15, 0.15, n) * config.radius
            centers = centroid + np.column_stack([span, np.full(n, -config.radius), heights])
            q_center = centroid + np.array(
                [
                    rng.uniform(-0.25, 0.25) * config.radius,
                    -config.radius * rng.uniform(0.75, 0.9),
                    rng.uniform(-0.15, 0.15) * config.radius,
                ]
            )
        targets = centroid + rng.normal(0.0, 0.03 * config.extent, (n, 3))
        anchor_poses = tuple(_pose_at(c, t) for c, t in zip(centers, targets))
        query_pose = _pose_at(q_center, centroid + rng.normal(0.0, 0.03 * config.extent, 3))
        if pair_loop_scene_valid(points, list(anchor_poses) + [query_pose], config.radius):
            return SyntheticScene(points, anchor_poses, query_pose, config, seed)
    raise GenerationError(f"no valid scene in {MAX_GENERATION_ATTEMPTS} attempts for seed {seed}")


def one_pose_perturb(rel, noise, rng):
    """One row of ``simulate._perturb``, with two 3-vector draws."""
    from mvloc import RelativePoseEstimate

    w = rng.normal(0.0, np.radians(noise.sigma_rot_deg), 3)
    v = rng.normal(0.0, np.radians(noise.sigma_dir_deg), 3)
    rotation = rel.rotation
    direction = rel.direction
    if noise.sigma_rot_deg > 0:
        rotation = one_vector_rotvec_to_rotation(w) @ rotation
    if noise.sigma_dir_deg > 0:
        direction = one_vector_rotvec_to_rotation(v) @ direction
    return RelativePoseEstimate(rotation, direction)


def per_anchor_observations(scene, noise, rng):
    """``simulate.synthesize_observations`` one anchor at a time."""
    rels = [
        one_pose_perturb(one_pair_relative_pose(scene.query_pose, pose), noise, rng)
        for pose in scene.anchor_poses
    ]
    return observation_stack(
        range(len(rels)), scene.anchor_poses,
        [rel.rotation for rel in rels], [rel.direction for rel in rels],
    )


def one_pose_features(pose, points):
    """((N, 2) features, (N,) depths) of (N, 3) world points in one camera;
    rows behind it hold garbage features."""
    cam = np.asarray(points, dtype=np.float64) @ pose.rotation.T + pose.translation
    depths = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        return cam[:, :2] / depths[:, None], depths


def per_pose_noisy_features(scene, sigma, rng):
    """``simulate.noisy_features`` with one projection per camera."""
    q_feats, q_depths = one_pose_features(scene.query_pose, scene.points)
    assert q_depths.min() > 0
    a_feats = np.empty((len(scene.anchor_poses), len(scene.points), 2))
    for k, pose in enumerate(scene.anchor_poses):
        feats, depths = one_pose_features(pose, scene.points)
        assert depths.min() > 0
        a_feats[k] = feats
    if sigma > 0:
        q_feats = q_feats + rng.normal(0.0, sigma, q_feats.shape)
        a_feats = a_feats + rng.normal(0.0, sigma, a_feats.shape)
    return q_feats, a_feats


def observation_rows(stack):
    """(anchor rotation, anchor translation, relative rotation, relative
    direction) of each row of an ObservationStack, one row at a time."""
    return zip(stack.anchor_rotations, stack.anchor_translations, stack.rel_rotations,
               stack.rel_directions)


def per_observation_translation_average(stack):
    """``averaging.govindu_translation_average`` with one block and one
    residual norm per observation."""
    from mvloc.averaging import (
        TRANSLATION_MAX_ITERS,
        TRANSLATION_STEP_TOL,
        scene_scale,
    )

    floor = 1e-6 * scene_scale([-r.T @ t for r, t, _, _ in observation_rows(stack)])
    blocks, rhs, rots_kq, t_anchor = [], [], [], []
    for _, translation, rel_rotation, rel_direction in observation_rows(stack):
        r_kq = rel_rotation.T
        t_kq = -r_kq @ rel_direction
        cross = one_vector_skew(t_kq)
        blocks.append(cross @ r_kq)
        rhs.append(cross @ translation)
        rots_kq.append(r_kq)
        t_anchor.append(translation)
    a = np.vstack(blocks)
    b = np.concatenate(rhs)
    solution, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    assert rank == 3
    for _ in range(TRANSLATION_MAX_ITERS):
        lams = np.array([np.linalg.norm(tk - rk @ solution) for rk, tk in zip(rots_kq, t_anchor)])
        weights = 1.0 / np.maximum(lams, floor)
        scale = np.repeat(weights, 3)[:, None]
        new_solution, _, rank, _ = np.linalg.lstsq(scale * a, scale.ravel() * b, rcond=None)
        assert rank == 3
        step = np.linalg.norm(new_solution - solution)
        solution = new_solution
        if step < TRANSLATION_STEP_TOL:
            break
    return solution


# ------------------------------------------------- per-observation averages
#
# References for ``averaging.ObservationStack`` and the averages that read
# it: one observation, ray or rotation at a time, sums accumulated with
# ``+=`` in input order. The stacked code must return the same bits.


def per_observation_locus_ray(rotation, translation, rel_rotation, rel_direction):
    """(origin, unit direction) of one observation's locus ray."""
    from mvloc.geometry import unit

    t_kq = -rel_rotation.T @ rel_direction
    return -rotation.T @ translation, unit(rotation.T @ t_kq)


def per_ray_center_average(rays):
    """(center, condition, residual_rms) of the normal system of (origin,
    direction) rays, summed ray by ray."""
    a = np.zeros((3, 3))
    b = np.zeros(3)
    projectors = []
    for origin, direction in rays:
        p = np.eye(3) - np.outer(direction, direction)
        projectors.append(p)
        a += p
        b += p @ origin
    eigvals = np.linalg.eigvalsh(a)
    condition = np.inf if eigvals[0] <= 0 else eigvals[-1] / eigvals[0]
    center = np.linalg.solve(a, b)
    sq = 0.0
    for (origin, _), p in zip(rays, projectors):
        r = p @ (center - origin)
        sq += r @ r
    return center, float(condition), float(np.sqrt(sq / len(rays)))


def per_rotation_markley(rotations):
    m = np.zeros((4, 4))
    for rot in rotations:
        q = per_rotation_quat(rot)
        m += np.outer(q, q)
    _, eigvecs = np.linalg.eigh(m)
    return quat_to_rotation(per_quat_canonical(eigvecs[:, -1]))


def chordal_l2_mean(rotations):
    """Chordal-L2 mean rotation via orthogonal projection of the summed
    matrices onto SO(3): the problem ``averaging.markley_rotation_average``
    solves in quaternion space, solved in matrix space."""
    total = np.zeros((3, 3))
    for rot in rotations:
        total += np.asarray(rot, dtype=np.float64)
    return nearest_rotation(total)


def per_observation_govindu_rotation(stack):
    blocks, rhs, reference = [], [], None
    for rotation, _, rel_rotation, _ in observation_rows(stack):
        w, x, y, z = per_rotation_quat(rel_rotation.T)
        left = np.array([[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]])
        q_k = per_rotation_quat(rotation)
        candidate = left.T @ q_k
        if reference is None:
            reference = candidate
        elif candidate @ reference < 0:
            q_k = -q_k
        blocks.append(left)
        rhs.append(q_k)
    q, _, _, _ = np.linalg.lstsq(np.vstack(blocks), np.concatenate(rhs), rcond=None)
    return quat_to_rotation(per_quat_canonical(q / np.linalg.norm(q)))


# ------------------------------------------------- test-only pose helpers


def compose_absolute(rel, scale, anchor):
    """Chain a relative pose onto an absolute anchor pose.

    Given the anchor pose (R_k, T_k) and the relative pose (R_qk, t_qk) with
    metric scale ``scale``, returns the query pose
    ``(R_qk @ R_k, R_qk @ T_k + scale * t_qk)``.
    """
    if not np.isfinite(scale) or scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    rotation = rel.rotation @ anchor.rotation
    translation = rel.rotation @ anchor.translation + scale * rel.direction
    return Pose(rotation, translation)


def invert_relative(rel):
    """Reverse a relative pose: (R_qk, t_qk) -> (R_kq, t_kq).

    R_kq = R_qk.T and the reversed direction is -R_qk.T @ t_qk (unit norm is
    preserved exactly up to rounding).
    """
    from mvloc import RelativePoseEstimate

    rotation = rel.rotation.T
    direction = -rel.rotation.T @ rel.direction
    return RelativePoseEstimate(rotation, direction)


def project(pose, point):
    """Pinhole projection of a world point into normalized image coordinates.

    Raises ValueError when the camera-frame depth is <= DEPTH_EPS.
    """
    cam = pose.rotation @ np.asarray(point, dtype=np.float64) + pose.translation
    if cam[2] <= DEPTH_EPS:
        raise ValueError(f"point depth {cam[2]:.3e} <= {DEPTH_EPS}")
    return cam[:2] / cam[2]


def unproject(pose, feature, depth):
    """Inverse of project at a known camera-frame depth.

    Returns the world point whose projection is ``feature`` and whose depth
    is ``depth``.
    """
    if depth <= 0:
        raise ValueError(f"depth must be positive, got {depth}")
    feature = np.asarray(feature, dtype=np.float64)
    cam = depth * np.array([feature[0], feature[1], 1.0])
    return pose.rotation.T @ (cam - pose.translation)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ------------------------------------------------ sequential essential RANSAC
#
# Reference for ``relpose.estimate_essential``: the same RANSAC, one
# hypothesis at a time (one 8-point fit by per-sample QR, one distance pass
# each), over samples drawn chunk by chunk with the same schedule and
# sampler. The chunked loop must reproduce it byte for byte.


def _sequential_hartley(points):
    from mvloc import DegenerateGeometryError

    centroid = points.mean(axis=0)
    spread = np.linalg.norm(points - centroid, axis=1).mean()
    if spread < 1e-12:
        raise DegenerateGeometryError("coincident points; normalization undefined")
    s = np.sqrt(2.0) / spread
    return np.array(
        [
            [s, 0.0, -s * centroid[0]],
            [0.0, s, -s * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )


def sequential_eight_point(query, anchor):
    """Normalized 8-point fit of one correspondence set: the null vector
    from a complete QR of the transposed design for 8 rows, from a full SVD
    from 9 rows on."""
    from mvloc import DegenerateGeometryError

    query = np.asarray(query, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    n = len(query)
    t_a = _sequential_hartley(query)
    t_b = _sequential_hartley(anchor)
    qa = query * t_a[0, 0] + t_a[:2, 2]
    qb = anchor * t_b[0, 0] + t_b[:2, 2]
    ax, ay = qa[:, 0], qa[:, 1]
    bx, by = qb[:, 0], qb[:, 1]
    design = np.column_stack(
        [ax * bx, ax * by, ax, ay * bx, ay * by, ay, bx, by, np.ones(n)]
    )
    if n == 8:
        q, r = np.linalg.qr(design.T, mode="complete")
        diag = np.abs(np.diag(r))
        degenerate = diag.min() < 1e-10 * max(diag.max(), 1e-300)
        null = q[:, -1]
    else:
        _, svals, vt = np.linalg.svd(design)
        degenerate = svals[7] < 1e-10 * max(svals[0], 1e-300)
        null = vt[-1]
    if degenerate:
        raise DegenerateGeometryError("correspondences do not determine E")
    e = t_a.T @ null.reshape(3, 3) @ t_b
    u, _, vt2 = np.linalg.svd(e)
    return u @ np.diag([1.0, 1.0, 0.0]) @ vt2


def sequential_squared_distance(e, query, anchor):
    """Squared symmetric epipolar distance of every match under one E: the
    algebraic error squared over each epipolar line's squared normal."""
    a_rows = np.vstack([query.T, np.ones(len(query))])
    b_rows = np.vstack([anchor.T, np.ones(len(anchor))])
    line_q = e @ b_rows
    line_a = e.T @ a_rows
    algebraic = (query[:, 0] * line_q[0] + query[:, 1] * line_q[1]) + line_q[2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return algebraic * algebraic * (
            1.0 / (line_q[0] * line_q[0] + line_q[1] * line_q[1])
            + 1.0 / (line_a[0] * line_a[0] + line_a[1] * line_a[1])
        )


def sequential_samples(rng, size, n):
    """One chunk of minimal samples: the 8 smallest of n uniforms per row."""
    return np.argpartition(rng.random((size, n)), 7, axis=1)[:, :8]


def sequential_essential(matches, config=None, seed=0, stats=None):
    """Same signature, results and errors as ``relpose.estimate_essential``;
    ``stats``, when given, receives the hypothesis count (``iterations``)
    and how many samples were degenerate (``degenerate``)."""
    from mvloc import (
        DegenerateGeometryError,
        InsufficientDataError,
        NoConsensusError,
        RansacConfig,
    )
    from mvloc.relpose import CHUNK_ROWS

    config = RansacConfig() if config is None else config
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = len(matches)
    if n < 8:
        raise InsufficientDataError(f"need >= 8 matches, got {n}")
    query, anchor = matches.query, matches.anchor
    threshold_sq = config.threshold * config.threshold

    def inliers(e):
        return sequential_squared_distance(e, query, anchor) < threshold_sq

    def grow(e, mask):
        while int(mask.sum()) >= 8:
            try:
                refit = sequential_eight_point(query[mask], anchor[mask])
            except DegenerateGeometryError:
                break
            refit_mask = inliers(refit)
            if int(refit_mask.sum()) < int(mask.sum()):
                break
            grew = int(refit_mask.sum()) > int(mask.sum())
            e, mask = refit, refit_mask
            if not grew:
                break
        return e, mask

    def hypotheses():
        # the chunk schedule: sizes double from 8 up to CHUNK_ROWS // n, and
        # a chunk holds no more than the budget (``needed``) left when it
        # is drawn
        drawn = 0
        while True:
            size = min(max(1, CHUNK_ROWS // n), max(8, drawn), needed - drawn)
            yield from sequential_samples(rng, size, n)
            drawn += size

    best_count, best_e, best_mask = 0, None, None
    needed = config.max_iters
    degenerate = 0
    i = 0
    samples = hypotheses()
    try:
        while i < needed:
            i += 1
            sample = next(samples)
            try:
                e = sequential_eight_point(query[sample], anchor[sample])
            except DegenerateGeometryError:
                degenerate += 1
                continue
            mask = inliers(e)
            if int(mask.sum()) > best_count:
                e, mask = grow(e, mask)
                count = int(mask.sum())
                if count > best_count:
                    best_count, best_e, best_mask = count, e, mask
                    ratio = min(count / n, 1.0 - 1e-12)
                    log_miss = np.log1p(-(ratio**8))
                    needed = min(needed, int(np.ceil(np.log1p(-config.confidence) / log_miss)))
    finally:
        if stats is not None:
            stats.update(iterations=i, degenerate=degenerate)
    if best_e is None or best_count < config.min_inliers:
        raise NoConsensusError(
            f"no essential hypothesis with >= {config.min_inliers} inliers in {i} iterations"
        )
    return best_e, best_mask


# ------------------------------------------------- one-shot consensus scoring
#
# Reference for ``_kernels.consensus_scores``: every (P, K) inlier test
# in one pass over (P, K, 3) temporaries. The blocked kernel must give the
# same counts.


def one_shot_hypotheses(origins, dirs, quats, pairs):
    """(valid, centers, hyp_q) of every pair hypothesis."""
    i_idx = pairs[:, 0]
    j_idx = pairs[:, 1]
    o1, o2 = origins[i_idx], origins[j_idx]
    d1, d2 = dirs[i_idx], dirs[j_idx]

    b = np.einsum("ij,ij->i", d1, d2)
    denom = 1.0 - b * b
    w_vec = o1 - o2
    baseline = np.linalg.norm(w_vec, axis=1)
    valid = (denom > 1e-12) & (baseline > 1e-12)

    safe = np.where(denom > 1e-12, denom, 1.0)
    d = np.einsum("ij,ij->i", d1, w_vec)
    e = np.einsum("ij,ij->i", d2, w_vec)
    t1 = (b * e - d) / safe
    t2 = (e - b * d) / safe
    centers = 0.5 * (o1 + t1[:, None] * d1 + o2 + t2[:, None] * d2)

    q1, q2 = quats[i_idx], quats[j_idx]
    sign = np.where(np.einsum("ij,ij->i", q1, q2) < 0.0, -1.0, 1.0)
    hyp_q = q1 + sign[:, None] * q2
    hyp_q /= np.linalg.norm(hyp_q, axis=1, keepdims=True)
    return valid, centers, hyp_q


def one_shot_ray_terms(origins, dirs, centers):
    """(P, K) distances from each observation's origin to each center, and
    their components along the observation's ray."""
    u = centers[:, None, :] - origins[None, :, :]
    return np.linalg.norm(u, axis=2), np.einsum("kj,pkj->pk", dirs, u)


def one_shot_quaternion_dots(hyp_q, quats):
    """(P, K) dot products of hypothesis and observation quaternions, each
    summed left to right over the four components."""
    h, q = hyp_q[:, None, :], quats[None, :, :]
    return ((h[..., 0] * q[..., 0] + h[..., 1] * q[..., 1]) + h[..., 2] * q[..., 2]) + h[
        ..., 3
    ] * q[..., 3]


def one_shot_inlier_tests(origins, dirs, quats, pairs, cos_ray, cos_half_rot):
    """(valid, ok): each pair hypothesis's validity and its (P, K) inlier
    tests against every observation."""
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    quats = np.asarray(quats, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64)
    valid, centers, hyp_q = one_shot_hypotheses(origins, dirs, quats, pairs)
    dist, along = one_shot_ray_terms(origins, dirs, centers)
    ray_ok = (dist < 1e-12) | (along >= cos_ray * dist)
    rot_ok = np.abs(one_shot_quaternion_dots(hyp_q, quats)) >= cos_half_rot
    return valid, ray_ok & rot_ok


def one_shot_consensus_scores(origins, dirs, quats, pairs, cos_ray, cos_half_rot):
    pairs = np.asarray(pairs, dtype=np.int64)
    valid, ok = one_shot_inlier_tests(origins, dirs, quats, pairs, cos_ray, cos_half_rot)
    counts = ok.sum(axis=1).astype(np.int64)
    n = len(pairs)
    self_ok = ok[np.arange(n), pairs[:, 0]] & ok[np.arange(n), pairs[:, 1]]
    counts[~(valid & self_ok)] = -1
    return counts


# ------------------------------------------------- per-matrix decomposition
#
# Reference for ``relpose.decompose_essentials``: one essential matrix at a
# time, each factor validated with ``ensure_rotation``/``unit``. Every row
# of the stacked decomposition must give the same bits.


def per_matrix_decompose_essential(e):
    from mvloc.geometry import RelativePoseEstimate, ensure_rotation, unit

    e = np.asarray(e, dtype=np.float64)
    u, svals, vt = np.linalg.svd(e)
    scale = svals[0]
    if scale <= 0:
        raise ValueError("zero essential matrix")
    if svals[2] > 1e-6 * scale or (svals[0] - svals[1]) > 1e-6 * scale:
        raise ValueError(f"not an essential matrix: singular values {svals}")
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    r1 = ensure_rotation(u @ w @ vt)
    r2 = ensure_rotation(u @ w.T @ vt)
    t = unit(u[:, 2]).copy()
    return [
        RelativePoseEstimate._from_validated(r, d)
        for r, d in ((r1, t), (r1, -t), (r2, t), (r2, -t))
    ]


# ------------------------------------------------- per-candidate cheirality
#
# Reference for ``relpose.cheirality_select``: every candidate rebuilds the
# homogeneous features, the anchor rays and the query-feature norms itself.
# Sharing them across the four candidates must not change a vote.


def per_candidate_depth_signs(candidate, matches):
    from mvloc.geometry import PARALLEL_RAY_EPS

    r, t = candidate.rotation, candidate.direction
    ah = np.column_stack([matches.query, np.ones(len(matches))])
    bh = np.column_stack([matches.anchor, np.ones(len(matches))])
    d1 = bh / np.linalg.norm(bh, axis=1, keepdims=True)
    d2 = ah @ r / np.linalg.norm(ah, axis=1, keepdims=True)
    o2 = -r.T @ t

    b = np.einsum("ij,ij->i", d1, d2)
    denom = 1.0 - b * b
    valid = denom > PARALLEL_RAY_EPS**2
    w_vec = -o2
    d = d1 @ w_vec
    ee = d2 @ w_vec
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (b * ee - d) / denom
        t2 = (ee - b * d) / denom
    p1 = t1[:, None] * d1
    p2 = o2 + t2[:, None] * d2
    x = 0.5 * (p1 + p2)
    z_anchor = x[:, 2]
    z_query = x @ r.T[:, 2] + t[2]
    front = valid & (z_anchor > 0) & (z_query > 0)
    return int(front.sum())


def per_candidate_cheirality_select(candidates, matches):
    from mvloc import AmbiguousCheiralityError, InsufficientDataError, NoValidPoseError

    if len(matches) == 0:
        raise InsufficientDataError("cheirality vote needs at least one match")
    votes = [per_candidate_depth_signs(c, matches) for c in candidates]
    order = np.argsort(votes)
    best = order[-1]
    if votes[best] == 0:
        raise NoValidPoseError("no candidate places any match in front of both cameras")
    if len(votes) > 1 and votes[order[-2]] == votes[best]:
        raise AmbiguousCheiralityError(
            f"cheirality vote tied at {votes[best]} of {len(matches)}"
        )
    return candidates[best]


# ----------------------------------------------------- line-by-line matches
#
# Reference for ``dataset.parse_matches``: read line by line, one ``float``
# and one finiteness check per token; a keypoint id is a run of the ASCII
# digits 0-9 below 2**63. The column path must return the same
# arrays, and every malformed file must raise the same ParseError.


def line_by_line_parse_matches(path):
    from mvloc import ConfigurationError, ParseError

    try:
        with open(path) as handle:
            raw = handle.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    ids, uv_q, uv_a, seen = [], [], [], set()
    for line_no, line in enumerate(raw, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 5:
            raise ParseError(path, line_no, f"expected 5 fields, got {len(tokens)}")
        if not all("0" <= c <= "9" for c in tokens[0]):
            raise ParseError(
                path, line_no,
                f"keypoint id must be a non-negative integer in ASCII digits: {tokens[0]!r}",
            )
        kp_id = int(tokens[0])
        if kp_id >= 2**63:
            raise ParseError(path, line_no, "keypoint id must be < 2**63 (int64)")
        if kp_id in seen:
            raise ParseError(path, line_no, f"duplicate keypoint id {kp_id}")
        seen.add(kp_id)
        values = []
        for token in tokens[1:]:
            try:
                value = float(token)
            except ValueError:
                raise ParseError(path, line_no, f"not a number: {token!r}") from None
            if not np.isfinite(value):
                raise ParseError(path, line_no, f"non-finite value: {token!r}")
            values.append(value)
        ids.append(kp_id)
        uv_q.append(values[:2])
        uv_a.append(values[2:])
    if not ids:
        raise ParseError(path, 0, "no matches found")
    return np.array(ids, dtype=np.int64), np.array(uv_q), np.array(uv_a)


# ---------------------------------------------------------- track assembly
#
# Reference for the tracks ``pipeline.solve_pose`` hands to refinement: one
# dict entry per query keypoint id, filled row by row.


def dict_keypoint_tracks(inlier_ids, inlier_matches):
    from mvloc.refine import CorrespondenceTrack

    track_views = {}
    track_query_feats = {}
    for anchor_id in inlier_ids:
        matches = inlier_matches[anchor_id]
        if matches.keypoint_ids is None:
            continue
        for row, kp_id in enumerate(matches.keypoint_ids):
            kp_id = int(kp_id)
            track_views.setdefault(kp_id, []).append((anchor_id, matches.anchor[row]))
            track_query_feats.setdefault(kp_id, matches.query[row])
    return [
        CorrespondenceTrack(kp_id, track_query_feats[kp_id], tuple(views))
        for kp_id, views in sorted(track_views.items())
        if len(views) >= 2
    ]


# ------------------------------------------------- earlier kernel formulations
#
# References for the per-item inner loops of triangulation, essential RANSAC
# and reference selection, kept as they were written before those loops
# were restacked: the one-column-at-a-time Jacobian, the two-call Hartley
# normalization with its ``mean``/``norm`` and ``np.stack`` design, and the
# elementwise Gram over column copies. The loops must give the same bytes.


def per_column_e1_residual_jac(ref_feat, obs, rots, trans, x, y, rho):
    """``_kernels.e1_residual_jac`` filled one Jacobian column at a time."""
    obs = np.asarray(obs, dtype=np.float64)
    rots = np.asarray(rots, dtype=np.float64)
    trans = np.asarray(trans, dtype=np.float64)
    m = len(obs)

    g = np.array([x, y, 1.0])
    rg = rots @ g
    u = rho * rg + trans
    w = u[:, 2]
    min_depth = float(w.min()) if m else np.inf

    r = np.empty(2 + 2 * m)
    jac = np.zeros((2 + 2 * m, 3))
    r[0] = ref_feat[0] - x
    r[1] = ref_feat[1] - y
    jac[0, 0] = -1.0
    jac[1, 1] = -1.0
    if m == 0:
        return r, jac, min_depth

    inv_w = 1.0 / w
    ux_w2 = u[:, 0] * inv_w * inv_w
    uy_w2 = u[:, 1] * inv_w * inv_w
    r[2::2] = obs[:, 0] - u[:, 0] * inv_w
    r[3::2] = obs[:, 1] - u[:, 1] * inv_w
    for col, du in enumerate((rho * rots[:, :, 0], rho * rots[:, :, 1], rg)):
        jac[2::2, col] = -(du[:, 0] * inv_w - ux_w2 * du[:, 2])
        jac[3::2, col] = -(du[:, 1] * inv_w - uy_w2 * du[:, 2])
    return r, jac, min_depth


def mean_norm_hartley(points):
    """``relpose._hartley_normalization`` through ``mean`` and
    ``np.linalg.norm``, on one side's stack."""
    centroid = points.mean(axis=-2)
    spread = np.linalg.norm(points - centroid[..., None, :], axis=-1).mean(axis=-1)
    coincident = spread < 1e-12
    s = np.sqrt(2.0) / np.where(coincident, 1.0, spread)
    t = np.zeros(points.shape[:-2] + (3, 3))
    t[..., 0, 0] = s
    t[..., 1, 1] = s
    t[..., :2, 2] = -s[..., None] * centroid
    t[..., 2, 2] = 1.0
    return t, coincident


def two_call_eight_point_stack(query, anchor):
    """``relpose._eight_point_stack`` with one normalization call per side
    and the design built by ``np.stack``."""
    t_a, coincident_a = mean_norm_hartley(query)
    t_b, coincident_b = mean_norm_hartley(anchor)
    qa = query * t_a[..., None, 0, 0, None] + t_a[..., None, :2, 2]
    qb = anchor * t_b[..., None, 0, 0, None] + t_b[..., None, :2, 2]
    ax, ay = qa[..., 0], qa[..., 1]
    bx, by = qb[..., 0], qb[..., 1]
    design = np.stack(
        [ax * bx, ax * by, ax, ay * bx, ay * by, ay, bx, by, np.ones(ax.shape)], axis=-1
    )
    if design.shape[-2] == 8:
        q, r = np.linalg.qr(np.swapaxes(design, -1, -2), mode="complete")
        diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
        underdetermined = diag.min(axis=-1) < 1e-10 * np.maximum(diag.max(axis=-1), 1e-300)
        null = q[..., -1]
    else:
        _, svals, vt = np.linalg.svd(design, full_matrices=False)
        underdetermined = svals[..., 7] < 1e-10 * np.maximum(svals[..., 0], 1e-300)
        null = vt[..., -1, :]
    e_norm = null.reshape(null.shape[:-1] + (3, 3))
    e = np.swapaxes(t_a, -1, -2) @ e_norm @ t_b
    u, _, vt2 = np.linalg.svd(e)
    status = np.where(coincident_a | coincident_b, 1, np.where(underdetermined, 2, 0))
    return u @ np.diag([1.0, 1.0, 0.0]) @ vt2, status


def elementwise_reference_views(dirs, starts):
    """``refine._reference_views`` with every track's Gram summed
    elementwise, over column copies of ``dirs``, in the same blocks."""
    from mvloc.refine import GRAM_BLOCK_CELLS

    counts = np.diff(starts)
    refs = np.empty(len(counts), dtype=np.intp)
    columns = np.ascontiguousarray(dirs.T)
    order = np.argsort(counts, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
        v = counts[group[0]]
        step = max(1, GRAM_BLOCK_CELLS // (v * v))
        for lo in range(0, len(group), step):
            block = group[lo:lo + step]
            dx, dy, dz = columns[:, starts[block, None] + np.arange(v)]
            gram = dx[:, :, None] * dx[:, None, :]
            gram += dy[:, :, None] * dy[:, None, :]
            gram += dz[:, :, None] * dz[:, None, :]
            cells = gram.reshape(len(block), -1)
            cells[:, ::v + 1] = np.inf
            refs[block] = cells.argmin(axis=1) // v
    return refs
