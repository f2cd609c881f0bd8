"""The hot numpy kernels: triangulation residuals and consensus scoring.

``refine`` and ``consensus`` call these through the module
(``_kernels.e1_residual_jac``), so a wrapper set on the module attribute sees
every call. The kernels work on whole arrays: ``consensus_scores`` runs its
(P, K) inlier tests in blocks of hypotheses, one coordinate at a time, in the
same floating-point operations as a one-shot (P, K, 3) pass, and stops after
the first block that holds a unanimous pair.
"""

import numpy as np

from .geometry import PARALLEL_RAY_EPS

# Name of the implementation, stamped into every perfbench record.
BACKEND = "pure"

# consensus_scores runs its (P, K) inlier tests in blocks of about this many
# hypothesis x observation cells (54 hypotheses at K = 150), which bounds
# its temporaries and so its peak memory.
BLOCK_CELLS = 8192

# The reference block of the triangulation Jacobian: r = ref_feat - (x, y).
_REFERENCE_JAC = np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


def e1_residual_jac(ref_feat, obs, rots, trans, x, y, rho):
    """Residuals and Jacobian of the anchor reprojection energy.

    Parameters are the latent reference-view feature (x, y) and reference
    depth rho. ``obs`` (M, 2) holds the observed features of the non-reference
    views, ``rots``/``trans`` (M, 3, 3)/(M, 3) their poses relative to the
    reference view, all float64 arrays (they are used as given).

    Returns ``(r, jac, min_depth)`` with r of length 2 + 2M (reference block
    first), jac (2 + 2M, 3) with columns (d/dx, d/dy, d/drho), and the
    smallest candidate depth among the non-reference views (callers reject
    parameter values whose min_depth is not safely positive). View k's two
    Jacobian rows are ``-(du_k / w_k - (u_k / w_k^2) du_k,z)`` for the
    point's camera coordinates u_k = rho R_k g + T_k and their derivatives
    du_k = (rho R_k[:, 0], rho R_k[:, 1], R_k g), filled for all views and
    columns in one stacked pass.
    """
    m = len(obs)
    rg = rots @ np.array([x, y, 1.0])  # (M, 3)
    u = rho * rg + trans
    w = u[:, 2]
    min_depth = float(w.min()) if m else np.inf

    r = np.empty(2 + 2 * m)
    jac = np.empty((2 + 2 * m, 3))
    r[0] = ref_feat[0] - x
    r[1] = ref_feat[1] - y
    jac[:2] = _REFERENCE_JAC
    if m == 0:
        return r, jac, min_depth

    inv_w = (1.0 / w)[:, None]
    u_w = u[:, :2] * inv_w  # (M, 2) projections
    np.subtract(obs, u_w, out=r[2:].reshape(m, 2))
    u_w2 = (u_w * inv_w)[:, :, None]
    du = np.empty((m, 3, 3))  # du[k, :, col]: the derivative of u_k along col
    np.multiply(rho, rots[:, :, :2], out=du[:, :, :2])
    du[:, :, 2] = rg
    rows = jac[2:].reshape(m, 2, 3)  # view k's rows 2 + 2k and 3 + 2k
    np.multiply(du[:, :2], inv_w[:, :, None], out=rows)
    rows -= u_w2 * du[:, 2:]
    np.negative(rows, out=rows)
    return r, jac, min_depth


def pair_hypotheses(origins, dirs, quats, pairs):
    """Query pose hypotheses of observation pairs.

    Pair (i, j) puts the query center at the midpoint of the common
    perpendicular of rays i and j, and the query rotation at the normalized
    sum of their quaternions (q_j's sign flipped to agree with q_i). Returns
    ``(valid, centers, hyp_q)``; ``valid`` is False where the rays are
    parallel within PARALLEL_RAY_EPS radians or share an origin.
    """
    i_idx = pairs[:, 0]
    j_idx = pairs[:, 1]
    o1, o2 = origins[i_idx], origins[j_idx]
    d1, d2 = dirs[i_idx], dirs[j_idx]

    b = np.einsum("ij,ij->i", d1, d2)
    denom = 1.0 - b * b
    w_vec = o1 - o2
    baseline = np.linalg.norm(w_vec, axis=1)
    valid = (denom > PARALLEL_RAY_EPS**2) & (baseline > 1e-12)

    safe = np.where(denom > PARALLEL_RAY_EPS**2, denom, 1.0)
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


def inlier_tests(centers, hyp_q, origins, dirs, quats, cos_ray, cos_half_rot):
    """(P, K) inlier tests of P hypotheses against K observations.

    An observation passes when its ray points at the hypothesis center
    within the ray threshold (a center on the ray origin passes) and its
    quaternion is within the rotation threshold of the hypothesis. Each cell
    is computed on its own, one coordinate at a time, so a hypothesis tests
    the same in any block and no (P, K, 3) temporary is built. Every sum has
    a fixed order, so no result depends on how BLAS tiles a product.
    """
    ox, oy, oz = origins.T
    dx, dy, dz = dirs.T
    qw, qx, qy, qz = quats.T
    ux = centers[:, 0:1] - ox
    uy = centers[:, 1:2] - oy
    uz = centers[:, 2:3] - oz
    dist = np.sqrt(ux * ux + uy * uy + uz * uz)
    # summed in the order numpy's einsum uses for a length-3 dot product
    along = (dx * ux + dz * uz) + dy * uy
    ray_ok = (dist < 1e-12) | (along >= cos_ray * dist)
    qdot = ((hyp_q[:, 0:1] * qw + hyp_q[:, 1:2] * qx) + hyp_q[:, 2:3] * qy) + hyp_q[:, 3:4] * qz
    return ray_ok & (np.abs(qdot) >= cos_half_rot)


def consensus_scores(origins, dirs, quats, pairs, cos_ray, cos_half_rot):
    """Inlier counts of pair hypotheses against all K observations, in pair
    order, up to the first block that holds a unanimous pair.

    Pairs are taken in blocks of about BLOCK_CELLS cells: each block's
    hypotheses come from ``pair_hypotheses``, built for that block alone,
    and are tested against every observation by ``inlier_tests``.
    Hypotheses that are not valid, or whose own members fail the inlier
    test, score -1. Scoring stops after the first block that
    holds a valid hypothesis counting all K observations: no count can
    exceed K, and the first of equal counts wins, so no later pair can take
    the lead. The result is the prefix of the every-pair counts that ends
    with that block (all of them when no pair is unanimous), and its first
    argmax is the every-pair first argmax.
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    quats = np.asarray(quats, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64)
    # column-major copies, so inlier_tests reads each coordinate contiguously
    columns = [np.asfortranarray(a) for a in (origins, dirs, quats)]
    n, k = len(pairs), len(origins)
    counts = np.empty(n, dtype=np.int64)
    rows = max(1, BLOCK_CELLS // max(k, 1))
    for start in range(0, n, rows):
        block = slice(start, min(start + rows, n))
        valid, centers, hyp_q = pair_hypotheses(origins, dirs, quats, pairs[block])
        ok = inlier_tests(centers, hyp_q, *columns, cos_ray, cos_half_rot)
        scored = ok.sum(axis=1)
        local = np.arange(len(ok))
        good = valid & ok[local, pairs[block, 0]] & ok[local, pairs[block, 1]]
        counts[block] = np.where(good, scored, -1)
        if np.any(good & (scored == k)):
            return counts[:block.stop]
    return counts
