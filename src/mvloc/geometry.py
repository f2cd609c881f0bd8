"""Core pose and projection geometry.

Conventions used throughout the package:

* A pose (R, T) maps world coordinates to camera coordinates,
  ``x_cam = R @ x_world + T``; the camera center in world coordinates is
  ``c = -R.T @ T``.
* Quaternions are scalar-first ``(q0, q1, q2, q3)`` and unit norm; the
  canonical representative of the double cover has ``q0 >= 0`` (ties broken
  by the first nonzero component being positive).
* A relative pose from camera k to camera q is the rotation ``R_qk`` and the
  unit translation direction ``t_qk`` with ``x_q = R_qk @ x_k + lam * t_qk``
  for some unknown positive scale ``lam``.
* Features are normalized image coordinates (x, y), i.e. pixel coordinates
  with the intrinsic matrix already removed.
"""

import numpy as np

from .errors import DegenerateGeometryError, InvalidRotationError

# Depth below this is treated as "behind the camera" for projection.
DEPTH_EPS = 1e-8

# Orthonormality / determinant tolerance for accepting a rotation matrix.
ROTATION_TOL = 1e-9

# Vectors shorter than this have no direction.
NORM_EPS = 1e-15

# Rays meeting at less than this angle (radians) do not localize a point.
PARALLEL_RAY_EPS = 1e-6


def _as_float_array(value, shape, name):
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def skew_rows(v):
    """Cross-product matrices [v_k]_x of the rows of an (N, 3) array, as an
    (N, 3, 3) stack."""
    x, y, z = np.asarray(v, dtype=np.float64).T
    k = np.zeros((len(x), 3, 3))
    k[:, 0, 1], k[:, 0, 2] = -z, y
    k[:, 1, 0], k[:, 1, 2] = z, -x
    k[:, 2, 0], k[:, 2, 1] = -y, x
    return k


def unit(v):
    """Return v / ||v||, raising on (near-)zero input."""
    v = np.asarray(v, dtype=np.float64)
    n = np.linalg.norm(v)
    if n < NORM_EPS:
        raise DegenerateGeometryError("cannot normalize a zero-length vector")
    # dividing by a norm of 1.0 +/- 1ulp churns the low bits of an already
    # unit vector, so inputs that are unit to rounding pass through untouched
    if abs(n - 1.0) <= 1e-9:
        return v
    return v / n


def row_dots(a, b):
    """Dot product of each row of (N, d) arrays ``a`` and ``b``, bit-for-bit
    the ``a[k] @ b[k]`` of one row pair."""
    # a stacked (1, d) @ (d, 1) product is the same BLAS dot that a product
    # of two vectors takes; a reduction along axis 1 is not
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_norms(v):
    """Euclidean norm of each row of an (N, d) array, bit-for-bit the
    ``np.linalg.norm`` of that row (the square root of the same dot)."""
    return np.sqrt(row_dots(v, v))


def unit_rows(v):
    """Row-wise :func:`unit` of an (N, 3) array, bit-for-bit equal to it."""
    v = np.asarray(v, dtype=np.float64)
    n = row_norms(v)
    if np.any(n < NORM_EPS):
        raise DegenerateGeometryError("cannot normalize a zero-length vector")
    return np.where(np.abs(n - 1.0)[:, None] <= 1e-9, v, v / n[:, None])


def nearest_rotation(mat):
    """Project a 3x3 matrix onto SO(3) (Frobenius-nearest rotation)."""
    mat = np.asarray(mat, dtype=np.float64)
    u, _, vt = np.linalg.svd(mat)
    r = u @ vt
    if np.linalg.det(r) < 0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return r


def ensure_rotation(mat):
    """Validate a rotation matrix, re-orthonormalizing small drift.

    A matrix within ROTATION_TOL of ``R.T @ R = I`` and ``det R = +1`` is
    returned as is; drift up to 1e-6 with a positive determinant is
    projected onto SO(3), and anything else raises InvalidRotationError.
    """
    mat = _as_float_array(mat, (3, 3), "rotation")
    err = np.abs(mat.T @ mat - np.eye(3)).max()
    det = np.linalg.det(mat)
    if err <= ROTATION_TOL and abs(det - 1.0) <= ROTATION_TOL:
        return mat
    if det < 0 or err > 1e-6:
        raise InvalidRotationError(
            f"not a rotation matrix (orthonormality error {err:.3e}, det {det:.6f})"
        )
    return nearest_rotation(mat)


def ensure_rotations(mats):
    """Row-wise :func:`ensure_rotation` of a (K, 3, 3) stack.

    Each row comes back as ensure_rotation returns it, and the first row it
    rejects raises as it would. Rows within half of ROTATION_TOL are accepted
    in one stacked pass, where the few ulps by which stacked and one-matrix
    arithmetic may differ cannot change the verdict; the rest (drifted,
    non-finite or invalid rows) go through ensure_rotation one at a time.
    The input is returned when every row passes, a copy otherwise.
    """
    mats = np.asarray(mats, dtype=np.float64)
    if mats.ndim != 3 or mats.shape[1:] != (3, 3):
        raise ValueError(f"rotations must have shape (K, 3, 3), got {mats.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        err = np.abs(np.swapaxes(mats, 1, 2) @ mats - np.eye(3)).max(axis=(1, 2))
        det = np.linalg.det(mats)
    ok = (err <= 0.5 * ROTATION_TOL) & (np.abs(det - 1.0) <= 0.5 * ROTATION_TOL)
    rest = np.flatnonzero(~ok)
    if len(rest):
        mats = mats.copy()
        for k in rest:
            mats[k] = ensure_rotation(mats[k])
    return mats


class Pose:
    """World-to-camera rigid transform: x_cam = rotation @ x_world + translation.

    Arrays are copied and frozen on construction; small rotation drift is
    re-orthonormalized (see :func:`ensure_rotation`).
    """

    __slots__ = ("rotation", "translation", "_quat")

    def __init__(self, rotation, translation):
        rotation = ensure_rotation(rotation)
        translation = _as_float_array(translation, (3,), "translation").copy()
        rotation = rotation.copy()
        rotation.flags.writeable = False
        translation.flags.writeable = False
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)
        object.__setattr__(self, "_quat", None)

    @classmethod
    def _from_validated(cls, rotation, translation):
        """A pose from a rotation that ``ensure_rotation`` returned and a
        finite (3,) translation, frozen in place with no second check or
        copy (the caller hands over both arrays)."""
        rotation.flags.writeable = False
        translation.flags.writeable = False
        pose = object.__new__(cls)
        object.__setattr__(pose, "rotation", rotation)
        object.__setattr__(pose, "translation", translation)
        object.__setattr__(pose, "_quat", None)
        return pose

    @classmethod
    def from_quaternion(cls, quat, translation):
        """The pose of a unit scalar-first quaternion and a translation.

        The pose keeps the quaternion, canonicalized, as its
        :meth:`quaternion`: converting the rotation back would move its low
        bits, so a pose read from a file would not write the digits it was
        read from.
        """
        pose = cls(quat_to_rotation(quat), translation)
        quat = canonicalize_quat(quat)
        quat.flags.writeable = False
        object.__setattr__(pose, "_quat", quat)
        return pose

    def quaternion(self):
        """Canonical scalar-first quaternion of the rotation: the one-pose
        case of :func:`poses_to_quats`."""
        return poses_to_quats([self])[0]

    def __setattr__(self, name, value):
        raise AttributeError("Pose is immutable")

    def center(self):
        """Camera center in world coordinates, -R.T @ T."""
        return -self.rotation.T @ self.translation

    def __repr__(self):
        return f"Pose(center={np.array2string(self.center(), precision=4)})"

    def __eq__(self, other):
        if not isinstance(other, Pose):
            return NotImplemented
        return np.array_equal(self.rotation, other.rotation) and np.array_equal(
            self.translation, other.translation
        )

    def __hash__(self):
        return hash((self.rotation.tobytes(), self.translation.tobytes()))


class RelativePoseEstimate:
    """Scale-free relative pose: rotation R_qk and unit direction t_qk.

    The metric translation is ``lam * direction`` for an unknown positive
    scale, so only the direction is stored (normalized on construction).
    """

    __slots__ = ("rotation", "direction")

    def __init__(self, rotation, direction):
        rotation = ensure_rotation(rotation).copy()
        direction = _as_float_array(direction, (3,), "direction")
        direction = unit(direction).copy()
        rotation.flags.writeable = False
        direction.flags.writeable = False
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "direction", direction)

    @classmethod
    def _from_validated(cls, rotation, direction):
        """An estimate from a rotation that ``ensure_rotation`` returned and a
        direction that ``unit`` returned, frozen in place with no second
        check or copy (the caller hands over both arrays)."""
        rotation.flags.writeable = False
        direction.flags.writeable = False
        estimate = object.__new__(cls)
        object.__setattr__(estimate, "rotation", rotation)
        object.__setattr__(estimate, "direction", direction)
        return estimate

    def __setattr__(self, name, value):
        raise AttributeError("RelativePoseEstimate is immutable")

    def __repr__(self):
        return (
            f"RelativePoseEstimate(direction={np.array2string(self.direction, precision=4)})"
        )


def camera_centers(rotations, translations):
    """Centers -R^T T of poses stacked as (K, 3, 3) rotations and (K, 3)
    translations, each bit-for-bit its ``Pose.center``: a stacked (3, 1)
    column product is the BLAS call of one matrix-vector product."""
    return -(np.swapaxes(rotations, 1, 2) @ translations[:, :, None])[:, :, 0]


def quat_to_rotation(q):
    """Rotation matrix of a scalar-first unit quaternion."""
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q)
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"quaternion norm {n:.12f} is not 1")
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def canonicalize_quat(q):
    """Pick the double-cover representative with q0 >= 0.

    Ties (q0 == 0) are broken so the first nonzero component is positive,
    making the representation a function of the rotation alone.
    """
    q = np.asarray(q, dtype=np.float64)
    for comp in q:
        if comp > 0:
            return q.copy()
        if comp < 0:
            return -q
    raise ValueError("zero quaternion has no canonical form")


def canonicalize_quats(q):
    """Row-wise :func:`canonicalize_quat` of a (K, 4) array: each row keeps
    its sign when its first nonzero component is positive and is negated
    otherwise."""
    q = np.asarray(q, dtype=np.float64)
    nonzero = q != 0
    if not np.all(nonzero.any(axis=1)):
        raise ValueError("zero quaternion has no canonical form")
    lead = q[np.arange(len(q)), nonzero.argmax(axis=1)]
    return np.where((lead < 0)[:, None], -q, q)


def rotations_to_quats(mats):
    """Scalar-first unit quaternions (K, 4) of a (K, 3, 3) stack of
    rotations, canonicalized.

    Each row is checked by :func:`ensure_rotations` and converted by
    Shepperd's branching on the largest of the trace and the diagonal, so
    the result is stable for rotations near pi. Every row takes the
    arithmetic of its branch elementwise, and its norm is the one BLAS dot
    of :func:`row_norms`, so a row converts the same in any stack.
    """
    m = ensure_rotations(mats)
    m00, m01, m02 = m[:, 0, 0], m[:, 0, 1], m[:, 0, 2]
    m10, m11, m12 = m[:, 1, 0], m[:, 1, 1], m[:, 1, 2]
    m20, m21, m22 = m[:, 2, 0], m[:, 2, 1], m[:, 2, 2]
    trace = m00 + m11 + m22
    branch = np.where(
        trace > 0, 0, np.where((m00 >= m11) & (m00 >= m22), 1, np.where(m11 >= m22, 2, 3))
    )
    a, b, c = m21 - m12, m02 - m20, m10 - m01
    d, e, f = m01 + m10, m02 + m20, m12 + m21
    # row i of branch i: (s / 2)^2 in column i, the numerators of the others
    table = np.array(
        [
            [trace + 1.0, a, b, c],
            [a, 1.0 + m00 - m11 - m22, d, e],
            [b, d, 1.0 + m11 - m00 - m22, f],
            [c, e, f, 1.0 + m22 - m00 - m11],
        ]
    )
    rows = np.arange(len(m))
    picked = table[branch, :, rows]
    s = np.sqrt(picked[rows, branch]) * 2.0
    q = picked / s[:, None]
    q[rows, branch] = 0.25 * s
    return canonicalize_quats(q / row_norms(q)[:, None])


def poses_to_quats(poses):
    """(K, 4) canonical scalar-first quaternions of a sequence of poses:
    the quaternion a pose was built from by :meth:`Pose.from_quaternion`,
    else that of its rotation, converted for all such poses in one
    :func:`rotations_to_quats` pass."""
    poses = list(poses)
    quats = np.empty((len(poses), 4))
    convert = [k for k, pose in enumerate(poses) if pose._quat is None]
    quats[convert] = rotations_to_quats(
        np.array([poses[k].rotation for k in convert]).reshape(-1, 3, 3)
    )
    for k, pose in enumerate(poses):
        if pose._quat is not None:
            quats[k] = pose._quat
    return quats


def quat_left_matrices(p):
    """(K, 4, 4) matrices L(p_k) with L(p) @ q == p * q (Hamilton product)
    of the rows of a (K, 4) array.

    Orthogonal for unit p, which is what makes stacked quaternion systems
    solvable by plain least squares.
    """
    w, x, y, z = np.asarray(p, dtype=np.float64).T
    return np.stack(
        [
            np.stack([w, -x, -y, -z], axis=1),
            np.stack([x, w, -z, y], axis=1),
            np.stack([y, z, w, -x], axis=1),
            np.stack([z, -y, x, w], axis=1),
        ],
        axis=1,
    )


def rotvecs_to_rotations(w):
    """Matrix exponentials of [w_k]_x (Rodrigues) for (K, 3) axis-angle
    rows, as a (K, 3, 3) stack; rows shorter than 1e-12 give the identity."""
    w = np.asarray(w, dtype=np.float64)
    angle = row_norms(w)
    moving = ~(angle < 1e-12)  # a NaN row stays NaN, as in the one-vector form
    axis = np.zeros_like(w)
    axis[moving] = w[moving] / angle[moving, None]
    k = skew_rows(axis)
    sin = np.sin(angle)[:, None, None]
    cos = (1.0 - np.cos(angle))[:, None, None]
    rotations = np.eye(3) + sin * k + cos * (k @ k)
    rotations[~moving] = np.eye(3)
    return rotations


def rotvec_to_rotation(w):
    """Matrix exponential of [w]_x (Rodrigues); w is an axis-angle vector."""
    return rotvecs_to_rotations(np.reshape(w, (1, 3)))[0]


def geodesic_angle(rot_a, rot_b):
    """Geodesic distance between two rotations, in degrees."""
    r = np.asarray(rot_a) @ np.asarray(rot_b).T
    c = (np.trace(r) - 1.0) / 2.0
    return np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))


def unit_directions(v):
    """Row-wise unit directions of an (N, 3) array, with the checks of
    :class:`RelativePoseEstimate`: non-finite rows raise ValueError and
    zero-length rows DegenerateGeometryError."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("direction contains non-finite values")
    return unit_rows(v)


def relative_poses(query, rotations, translations):
    """Exact relative poses from K anchors to a query pose.

    The anchors are given as (K, 3, 3) rotations and (K, 3) translations.
    Returns the (K, 3, 3) rotations ``R_qk = R_q R_k^T``, checked by
    :func:`ensure_rotations`, and the (K, 3) unit directions of
    ``T_q - R_qk T_k``, each taken from the rotation before that check.
    Raises DegenerateGeometryError when a query and an anchor center
    coincide.
    """
    rel_rotations = query.rotation @ np.swapaxes(rotations, 1, 2)
    directions = query.translation - (rel_rotations @ translations[:, :, None])[:, :, 0]
    return ensure_rotations(rel_rotations), unit_directions(directions)


def ray_pair_midpoints(origins_a, dirs_a, origins_b, dirs_b):
    """Midpoints of the common perpendiculars of N ray pairs.

    Rays are rows of (N, 3) origins and unit directions. Returns the (N, 3)
    midpoints and the (N,) mask of the degenerate pairs, whose midpoints are
    not defined: rays parallel within PARALLEL_RAY_EPS radians or sharing an
    origin. Every dot is a :func:`row_dots` one, so a pair's midpoint is
    bit-for-bit the same in any stack.
    """
    w = origins_a - origins_b
    b = row_dots(dirs_a, dirs_b)
    denom = 1.0 - b * b  # sin^2 of the angle between the rays
    degenerate = (row_norms(w) < 1e-12) | (denom <= PARALLEL_RAY_EPS**2)
    d = row_dots(dirs_a, w)
    e = row_dots(dirs_b, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (b * e - d) / denom
        t2 = (e - b * d) / denom
    p1 = origins_a + t1[:, None] * dirs_a
    p2 = origins_b + t2[:, None] * dirs_b
    return 0.5 * (p1 + p2), degenerate
