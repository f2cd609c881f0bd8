"""Two-view relative pose from normalized feature matches.

Epipolar convention: for a correspondence with query feature ``a`` and
anchor feature ``b`` (homogeneous normalized coordinates) the essential
matrix of the relative pose (R_qk, t_qk) is ``E = [t_qk]_x @ R_qk`` and
satisfies ``a^T E b = 0``.
"""

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import (
    AmbiguousCheiralityError,
    DegenerateGeometryError,
    InsufficientDataError,
    NoConsensusError,
    NoValidPoseError,
)
from .geometry import (
    PARALLEL_RAY_EPS,
    RelativePoseEstimate,
    ensure_rotations,
    ray_pair_midpoints,
    unit_rows,
)

MIN_MATCHES = 8


@dataclass(frozen=True)
class MatchSet:
    """Parallel arrays of normalized feature correspondences.

    ``query[i]`` and ``anchor[i]`` are the two projections of the same scene
    point. ``keypoint_ids`` optionally carries the query keypoint identity of
    each row (used downstream to link matches across anchors into tracks).
    """

    query: np.ndarray
    anchor: np.ndarray
    keypoint_ids: np.ndarray = None

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.query, dtype=np.float64))
        a = np.atleast_2d(np.asarray(self.anchor, dtype=np.float64))
        if q.shape != a.shape or q.ndim != 2 or q.shape[1] != 2:
            raise ValueError(f"query/anchor must both be (N, 2), got {q.shape} and {a.shape}")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(a))):
            raise ValueError("match coordinates must be finite")
        object.__setattr__(self, "query", q)
        object.__setattr__(self, "anchor", a)
        if self.keypoint_ids is not None:
            ids = np.asarray(self.keypoint_ids, dtype=np.int64)
            if ids.shape != (len(q),):
                raise ValueError("keypoint_ids must be (N,)")
            object.__setattr__(self, "keypoint_ids", ids)

    def __len__(self):
        return len(self.query)

    def subset(self, mask):
        """The rows a boolean ``mask`` selects, taken from the checked
        arrays without a second check."""
        subset = object.__new__(MatchSet)
        object.__setattr__(subset, "query", self.query[mask])
        object.__setattr__(subset, "anchor", self.anchor[mask])
        ids = None if self.keypoint_ids is None else self.keypoint_ids[mask]
        object.__setattr__(subset, "keypoint_ids", ids)
        return subset


@dataclass(frozen=True)
class RansacConfig:
    """Essential-matrix RANSAC parameters.

    ``threshold`` is the symmetric epipolar distance gate in normalized
    image units, finite and positive; ``max_iters`` is an integer >= 1 and
    ``min_inliers`` an integer >= MIN_MATCHES, the size of a refit.
    """

    threshold: float = 1e-3
    confidence: float = 0.999
    max_iters: int = 5000
    min_inliers: int = 8

    def __post_init__(self):
        if not 0 < self.confidence < 1:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence!r}")
        if not 0 < self.threshold < math.inf:
            raise ValueError(f"threshold must be finite and positive, got {self.threshold!r}")
        for name, minimum in (("max_iters", 1), ("min_inliers", MIN_MATCHES)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
                raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


# Hypotheses are fitted and scored in chunks of at most this many
# hypothesis x match rows (68 hypotheses at 120 matches), which bounds the
# temporaries of the stacked distance pass and so the peak memory.
CHUNK_ROWS = 8192

# diag(1, 1, 0): the singular values an essential matrix is projected onto.
_ESSENTIAL_SINGULAR_VALUES = np.diag([1.0, 1.0, 0.0])

_DEGENERATE = (
    None,
    "coincident points; normalization undefined",
    "correspondences do not determine E",
)


def _hartley_normalization(points):
    """Similarity transforms taking each (m, 2) point set of a stack to
    centroid 0 and mean radius sqrt(2).

    Returns the (..., 3, 3) transforms and a mask of coincident sets, whose
    transform is a placeholder (normalization is undefined there). The
    centroid and the spread are the reductions of ``mean`` and
    ``np.linalg.norm``, taken without their per-call overhead.
    """
    m = points.shape[-2]
    centroid = np.add.reduce(points, axis=-2)
    centroid /= m
    offsets = points - centroid[..., None, :]
    offsets *= offsets
    spread = np.add.reduce(np.sqrt(np.add.reduce(offsets, axis=-1)), axis=-1)
    spread /= m
    coincident = spread < 1e-12
    s = np.sqrt(2.0) / np.where(coincident, 1.0, spread)
    t = np.zeros(points.shape[:-2] + (3, 3))
    t[..., 0, 0] = s
    t[..., 1, 1] = s
    t[..., :2, 2] = -s[..., None] * centroid
    t[..., 2, 2] = 1.0
    return t, coincident


def _eight_point_stack(query, anchor):
    """Normalized 8-point over a stack of (m, 2) correspondence sets.

    Returns the (..., 3, 3) essential matrices and a status per set: 0 for a
    fit, else an index into ``_DEGENERATE`` (that set's matrix is
    meaningless). Both sides are normalized in one pass over the stacked
    (2, ..., m, 2) sets. Every set goes through the same per-matrix LAPACK
    calls, so a set's result does not depend on the stack around it.
    """
    points = np.stack([query, anchor])
    t, coincident = _hartley_normalization(points)
    points *= t[..., None, 0, 0, None]
    points += t[..., None, :2, 2]
    t_a, t_b = t
    qa, qb = points
    ax, ay = qa[..., 0], qa[..., 1]
    bx, by = qb[..., 0], qb[..., 1]

    # the design rows (ax bx, ax by, ax, ay bx, ay by, ay, bx, by, 1)
    design = np.empty(ax.shape + (9,))
    np.multiply(ax, bx, out=design[..., 0])
    np.multiply(ax, by, out=design[..., 1])
    design[..., 2] = ax
    np.multiply(ay, bx, out=design[..., 3])
    np.multiply(ay, by, out=design[..., 4])
    design[..., 5] = ay
    design[..., 6] = bx
    design[..., 7] = by
    design[..., 8] = 1.0
    # A degenerate sample (repeated points, points on a conic through both
    # epipoles, ...) leaves the (m, 9) design a nullspace of dimension > 1.
    if design.shape[-2] == MIN_MATCHES:
        # The null vector of an (8, 9) design is the last column of the
        # complete Q of its (9, 8) transpose; a vanishing diagonal entry of
        # R flags rank < 8.
        q, r = np.linalg.qr(np.swapaxes(design, -1, -2), mode="complete")
        diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
        underdetermined = diag.min(axis=-1) < 1e-10 * np.maximum(diag.max(axis=-1), 1e-300)
        null = q[..., -1]
    else:
        # From 9 rows on, the thin SVD gives the full V and skips the (m, m) U.
        _, svals, vt = np.linalg.svd(design, full_matrices=False)
        underdetermined = svals[..., 7] < 1e-10 * np.maximum(svals[..., 0], 1e-300)
        null = vt[..., -1, :]
    e_norm = null.reshape(null.shape[:-1] + (3, 3))
    e = np.swapaxes(t_a, -1, -2) @ e_norm @ t_b
    u, _, vt2 = np.linalg.svd(e)
    status = np.where(coincident[0] | coincident[1], 1, np.where(underdetermined, 2, 0))
    return u @ _ESSENTIAL_SINGULAR_VALUES @ vt2, status


def eight_point(query, anchor):
    """Essential matrix from >= 8 correspondences (normalized 8-point).

    Applies Hartley conditioning to both sides, solves the homogeneous
    design (by QR for 8 rows, by SVD from 9) and enforces singular values
    (1, 1, 0). Raises DegenerateGeometryError when the design has more than
    a one-dimensional nullspace (the correspondences do not constrain E).
    """
    query = np.asarray(query, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    n = len(query)
    if n < MIN_MATCHES:
        raise InsufficientDataError(f"need >= {MIN_MATCHES} matches, got {n}")
    e, status = _eight_point_stack(query[None], anchor[None])
    if status[0]:
        raise DegenerateGeometryError(_DEGENERATE[status[0]])
    return e[0]


def _homogeneous_rows(points):
    """(3, n) homogeneous coordinates of (n, 2) points, one coordinate per row."""
    return np.vstack([points.T, np.ones(len(points))])


def _squared_epipolar_distance(e, a_rows, b_rows):
    """Squared symmetric epipolar distance ``alg^2 (1/|l_q|^2 + 1/|l_a|^2)``
    of homogeneous matches ``a_rows``/``b_rows`` (3, n) under one (3, 3)
    ``e``, giving (n,), or a (B, 3, 3) stack, giving (B, n). The epipolar
    lines are built one coefficient per row, so every term below is a
    contiguous row. A match on a vanishing epipolar line gives nan or inf."""
    line_q = e @ b_rows  # epipolar lines of b in the query image
    line_a = np.swapaxes(e, -1, -2) @ a_rows  # epipolar lines of a in the anchor image
    q0, q1, q2 = line_q[..., 0, :], line_q[..., 1, :], line_q[..., 2, :]
    a0, a1 = line_a[..., 0, :], line_a[..., 1, :]
    algebraic = (a_rows[0] * q0 + a_rows[1] * q1) + q2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return algebraic * algebraic * (1.0 / (q0 * q0 + q1 * q1) + 1.0 / (a0 * a0 + a1 * a1))


def minimal_samples(rng, size, n):
    """(size, 8) row indices into n matches, each row a uniform 8-subset:
    the 8 smallest of n uniforms, from one (size, n) draw."""
    return np.argpartition(rng.random((size, n)), MIN_MATCHES - 1, axis=1)[:, :MIN_MATCHES]


def estimate_essential(matches, config=None, seed=0):
    """RANSAC essential-matrix estimate.

    Returns ``(E, inlier_mask)`` where the mask marks matches whose symmetric
    epipolar distance to the winning E is below the threshold. Every
    hypothesis that beats the running best is re-estimated on its inliers
    until the set stops growing, and the iteration budget adapts to the
    grown inlier ratio under the configured confidence. Raises
    NoConsensusError when no hypothesis reaches ``config.min_inliers``.

    Hypotheses are drawn (one ``minimal_samples`` call), fitted and scored
    in chunks that double from 8 up to ``CHUNK_ROWS // n``, then walked in
    order until the budget is spent. ``seed`` is a Generator or a seed
    (default 0, so a call without one is reproducible); a generator should
    serve one pair only, since a whole chunk is drawn even when the walk
    stops inside it.
    """
    if config is None:
        config = RansacConfig()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = len(matches)
    if n < MIN_MATCHES:
        raise InsufficientDataError(f"need >= {MIN_MATCHES} matches, got {n}")

    query, anchor = matches.query, matches.anchor
    a_rows, b_rows = _homogeneous_rows(query), _homogeneous_rows(anchor)
    threshold_sq = config.threshold * config.threshold

    def grow(e, mask, count):
        # Re-estimate on the inlier set until the count stops growing.
        # Minimal samples are noise-sensitive (narrow fields of view slide
        # along the rotation-translation ambiguity), so the refit usually
        # widens the set; a refit that loses inliers, or whose inliers do not
        # determine E, is discarded.
        while count >= MIN_MATCHES:
            try:
                refit = eight_point(query[mask], anchor[mask])
            except DegenerateGeometryError:
                break
            refit_mask = _squared_epipolar_distance(refit, a_rows, b_rows) < threshold_sq
            refit_count = int(refit_mask.sum())
            if refit_count < count:
                break
            grew = refit_count > count
            e, mask, count = refit, refit_mask, refit_count
            if not grew:
                break
        return e, mask, count

    best_count = 0
    best_e = None
    best_mask = None
    needed = config.max_iters
    cap = max(1, CHUNK_ROWS // n)
    i = 0
    while i < needed:
        size = min(cap, max(8, i), needed - i)
        samples = minimal_samples(rng, size, n)
        es, status = _eight_point_stack(query[samples], anchor[samples])
        fitted = status == 0
        masks = np.zeros((size, n), dtype=bool)
        masks[fitted] = _squared_epipolar_distance(es[fitted], a_rows, b_rows) < threshold_sq
        counts = masks.sum(axis=1).tolist()  # 0 for a degenerate sample
        for j in range(size):
            i += 1
            if counts[j] > best_count:
                e, mask, count = grow(es[j], masks[j], counts[j])
                if count > best_count:
                    best_count, best_e, best_mask = count, e, mask
                    ratio = min(count / n, 1.0 - 1e-12)
                    log_miss = np.log1p(-(ratio**MIN_MATCHES))  # log P(sample has an outlier)
                    needed = min(needed, int(np.ceil(np.log1p(-config.confidence) / log_miss)))
            if i >= needed:
                break

    if best_e is None or best_count < config.min_inliers:
        raise NoConsensusError(
            f"no essential hypothesis with >= {config.min_inliers} inliers in {i} iterations"
        )
    return best_e, best_mask


# The factor W of the decomposition E = U diag(1, 1, 0) V^T: the two
# rotation candidates are U W V^T and U W^T V^T.
_W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def decompose_essentials(es):
    """The two rotations and the translation direction of each of a
    (K, 3, 3) stack of essential matrices.

    Returns (K, 2, 3, 3) rotations (R1, R2) from determinant-corrected SVD
    factors, checked by :func:`ensure_rotations`, and (K, 3) unit
    directions t; the four candidates of row k are (R1, +t), (R1, -t),
    (R2, +t) and (R2, -t). Every matrix goes through the per-matrix LAPACK
    and BLAS calls of a one-matrix stack, so a row decomposes the same in
    any stack. Raises ValueError, naming the first offending row's singular
    values, when a matrix is zero or not essential.
    """
    es = np.asarray(es, dtype=np.float64)
    u, svals, vt = np.linalg.svd(es)
    scale = svals[:, 0]
    bad = (scale <= 0) | (svals[:, 2] > 1e-6 * scale) | (svals[:, 0] - svals[:, 1] > 1e-6 * scale)
    if np.any(bad):
        k = int(np.argmax(bad))
        if scale[k] <= 0:
            raise ValueError("zero essential matrix")
        raise ValueError(f"not an essential matrix: singular values {svals[k]}")
    u = np.where((np.linalg.det(u) < 0)[:, None, None], -u, u)
    vt = np.where((np.linalg.det(vt) < 0)[:, None, None], -vt, vt)
    rotations = np.stack([ensure_rotations(u @ _W @ vt), ensure_rotations(u @ _W.T @ vt)], axis=1)
    return rotations, unit_rows(np.ascontiguousarray(u[:, :, 2]))


def candidates_of(rotations, direction):
    """The four RelativePoseEstimates of one row of
    :func:`decompose_essentials`, sharing its arrays."""
    # -t is unit(-t) to the bit: the norm and the division are sign-free
    return [
        RelativePoseEstimate._from_validated(r, d)
        for r in rotations
        for d in (direction, -direction)
    ]


def _front_counts(rotations, directions, ah, ah_norm, d1):
    """Number of matches in front of both cameras under each of c
    candidates, given as (c, 3, 3) rotations and (c, 3) directions.

    ``ah`` holds the homogeneous query features, ``ah_norm`` their norms and
    ``d1`` the unit anchor-frame rays. Triangulates every match by the
    ray-midpoint construction in the anchor frame, all candidates in one
    stacked (c, n) pass; near-parallel rays are excluded from the vote.
    Each element goes through the arithmetic of a one-candidate pass: a
    product with a 3-vector is a stacked (3, 1) column matmul, the same BLAS
    call as one matrix-vector product (a (3, c) matrix would not be).
    """
    d2 = ah @ rotations / ah_norm  # (c, n, 3) query rays rotated back
    o2 = -np.swapaxes(rotations, 1, 2) @ directions[:, :, None]  # query centers, anchor frame
    w_vec = -o2  # o1 - o2 with o1 = 0, as (c, 3, 1) columns

    b = np.einsum("ij,cij->ci", d1, d2)
    denom = 1.0 - b * b
    valid = denom > PARALLEL_RAY_EPS**2
    d = (d1 @ w_vec)[:, :, 0]
    ee = (d2 @ w_vec)[:, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (b * ee - d) / denom
        t2 = (ee - b * d) / denom
    p1 = t1[:, :, None] * d1
    p2 = np.swapaxes(o2, 1, 2) + t2[:, :, None] * d2
    x = 0.5 * (p1 + p2)
    z_anchor = x[:, :, 2]
    z_query = (x @ rotations[:, 2, :, None])[:, :, 0] + directions[:, 2:]
    front = valid & (z_anchor > 0) & (z_query > 0)
    return front.sum(axis=1)


def cheirality_select(candidates, matches):
    """Pick the decomposition candidate placing the most matches in front of
    both cameras.

    All candidates are voted in one stacked pass over the matches. Raises
    NoValidPoseError when no candidate has a positive vote and
    AmbiguousCheiralityError when the top two candidates tie.
    """
    if len(matches) == 0:
        raise InsufficientDataError("cheirality vote needs at least one match")
    ah = np.column_stack([matches.query, np.ones(len(matches))])
    bh = np.column_stack([matches.anchor, np.ones(len(matches))])
    d1 = bh / np.linalg.norm(bh, axis=1, keepdims=True)  # anchor-frame rays from origin
    ah_norm = np.linalg.norm(ah, axis=1, keepdims=True)
    rotations = np.array([c.rotation for c in candidates]).reshape(-1, 3, 3)
    directions = np.array([c.direction for c in candidates]).reshape(-1, 3)
    votes = _front_counts(rotations, directions, ah, ah_norm, d1).tolist()
    order = np.argsort(votes)
    best = order[-1]
    if votes[best] == 0:
        raise NoValidPoseError("no candidate places any match in front of both cameras")
    if len(votes) > 1 and votes[order[-2]] == votes[best]:
        raise AmbiguousCheiralityError(
            f"cheirality vote tied at {votes[best]} of {len(matches)}"
        )
    return candidates[best]


def view_pair_midpoints(centers, rotations, feats):
    """Two-view midpoint starts of N view pairs, given as (2, N, 3) camera
    centers, (2, N, 3, 3) rotations and (2, N, 2) features with view a in
    row 0 and view b in row 1. Returns the (N, 3) midpoints of the viewing
    rays and the (N,) mask of degenerate pairs, as
    :func:`~mvloc.geometry.ray_pair_midpoints`."""
    rays = np.concatenate([feats, np.ones(feats.shape[:2] + (1,))], axis=2)
    # a ray direction R^T (x, y, 1) is never shorter than 1, so unit_rows
    # does not raise on it
    dirs = unit_rows((np.swapaxes(rotations, 2, 3) @ rays[..., None]).reshape(-1, 3))
    dir_a, dir_b = dirs.reshape(2, -1, 3)
    return ray_pair_midpoints(centers[0], dir_a, centers[1], dir_b)
