"""Shared helpers for the mvloc test suite.

Rotation constructors and random pose factories used across modules live
here so expected values in tests are built from one set of primitives.
"""

import numpy as np
import pytest

from mvloc import Pose
from mvloc.geometry import quat_to_rotation, rotation_to_quat

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


def consistent_observations(rng, k, spread=3.0):
    """k noiseless AnchorObservations of one random query pose."""
    from mvloc import AnchorObservation, relative_from_poses

    query = random_pose(rng, spread)
    obs = []
    for i in range(k):
        anchor = random_pose(rng, spread)
        # guard against an anchor landing on the query center
        while np.linalg.norm(anchor.center() - query.center()) < 0.5:
            anchor = random_pose(rng, spread)
        obs.append(AnchorObservation(f"a{i}", anchor, relative_from_poses(query, anchor)))
    return obs, query


def stable_geodesic_deg(a, b):
    """Angle between two rotations, accurate near zero.

    The arccos-of-trace form loses half the significant digits close to
    identity (trace rounding of order eps turns into sqrt(eps) angle), so
    sub-1e-6-degree comparisons go through the quaternion instead.
    """
    q = rotation_to_quat(a.T @ b)
    return np.rad2deg(2.0 * np.arctan2(np.linalg.norm(q[1:]), abs(q[0])))


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


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ------------------------------------------------ sequential essential RANSAC
#
# Reference for ``relpose.estimate_essential``: the same RANSAC, one
# hypothesis at a time (one draw, one 8-point fit, one distance pass each).
# The chunked loop must reproduce it byte for byte, including what it leaves
# in the generator.


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
    _, svals, vt = np.linalg.svd(design)
    if svals[7] < 1e-10 * max(svals[0], 1e-300):
        raise DegenerateGeometryError("correspondences do not determine E")
    e = t_a.T @ vt[-1].reshape(3, 3) @ t_b
    u, _, vt2 = np.linalg.svd(e)
    return u @ np.diag([1.0, 1.0, 0.0]) @ vt2


def sequential_epipolar_distance(e, query, anchor):
    ah = np.column_stack([query, np.ones(len(query))])
    bh = np.column_stack([anchor, np.ones(len(anchor))])
    line_q = bh @ e.T
    line_a = ah @ e
    algebraic = np.einsum("ij,ij->i", ah, line_q)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_q = algebraic / np.hypot(line_q[:, 0], line_q[:, 1])
        d_a = algebraic / np.hypot(line_a[:, 0], line_a[:, 1])
        dist = np.hypot(d_q, d_a)
    return np.where(np.isfinite(dist), dist, np.inf)


def sequential_essential(matches, config=None, seed=None, stats=None):
    """Same signature, results and errors as ``relpose.estimate_essential``;
    ``stats``, when given, receives the hypothesis count (``iterations``)
    and how many samples were degenerate (``degenerate``)."""
    from mvloc import (
        DegenerateGeometryError,
        InsufficientDataError,
        NoConsensusError,
        RansacConfig,
    )

    config = RansacConfig() if config is None else config
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = len(matches)
    if n < 8:
        raise InsufficientDataError(f"need >= 8 matches, got {n}")
    query, anchor = matches.query, matches.anchor

    def grow(e, mask):
        while int(mask.sum()) >= 8:
            refit = sequential_eight_point(query[mask], anchor[mask])
            refit_mask = sequential_epipolar_distance(refit, query, anchor) < config.threshold
            if int(refit_mask.sum()) < int(mask.sum()):
                break
            grew = int(refit_mask.sum()) > int(mask.sum())
            e, mask = refit, refit_mask
            if not grew:
                break
        return e, mask

    best_count, best_e, best_mask = 0, None, None
    needed = config.max_iters
    degenerate = 0
    i = 0
    try:
        while i < needed:
            i += 1
            sample = rng.choice(n, size=8, replace=False)
            try:
                e = sequential_eight_point(query[sample], anchor[sample])
            except DegenerateGeometryError:
                degenerate += 1
                continue
            mask = sequential_epipolar_distance(e, query, anchor) < config.threshold
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
