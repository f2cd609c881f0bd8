"""File formats for the localization pipeline.

All files are whitespace-separated text; blank lines and ``#`` comments are
ignored. Identifiers are non-empty tokens that hold no character
``str.split`` splits on and do not start with ``#``; the writers refuse any
other id, and keypoint ids outside [0, 2**63), so every file they write
reads back as written.

* anchors / ground truth: ``id qw qx qy qz tx ty tz`` (world-to-camera pose,
  scalar-first unit quaternion)
* intrinsics: ``id fx fy cx cy``
* neighbors: ``query_id anchor_id score``
* matches (one file per query-anchor pair, ``<query>__<anchor>.txt`` in the
  match directory): ``kp_id u_q v_q u_a v_a`` in pixel coordinates

The manifest is a JSON object with keys ``anchors``, ``intrinsics``,
``neighbors``, ``matches_dir`` and optional ``ground_truth``; relative paths
resolve against the manifest's directory. Writers emit floats with 17
significant digits, so a save/load round trip is bit-exact.
"""

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParseError
from .geometry import Pose, poses_to_quats
from .relpose import MatchSet

# Sanity bound on normalized coordinates; larger values mean broken
# intrinsics rather than a plausible field of view.
FEATURE_BOUND = 10.0

FLOAT_FMT = ".17g"


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    def normalize(self, pixels):
        pixels = np.asarray(pixels, dtype=np.float64)
        return (pixels - [self.cx, self.cy]) / [self.fx, self.fy]

    def denormalize(self, feats):
        feats = np.asarray(feats, dtype=np.float64)
        return feats * [self.fx, self.fy] + [self.cx, self.cy]


@dataclass(frozen=True)
class DatasetManifest:
    anchors: Path
    intrinsics: Path
    neighbors: Path
    matches_dir: Path
    ground_truth: Path = None


@dataclass(frozen=True)
class Dataset:
    anchors: dict
    intrinsics: dict
    neighbors: dict
    matches_dir: Path
    ground_truth: dict = None

    def match_path(self, query_id, anchor_id):
        return self.matches_dir / f"{query_id}__{anchor_id}.txt"

    def load_matches(self, query_id, anchor_id):
        """Normalized MatchSet (with keypoint ids) for a query-anchor pair."""
        if anchor_id not in self.anchors:
            raise ConfigurationError(f"unknown anchor id {anchor_id!r}")
        if query_id not in self.intrinsics:
            raise ConfigurationError(f"no intrinsics for query {query_id!r}")
        if anchor_id not in self.intrinsics:
            raise ConfigurationError(f"no intrinsics for anchor {anchor_id!r}")
        path = self.match_path(query_id, anchor_id)
        kp_ids, uv_q, uv_a = parse_matches(path)
        feats_q = self.intrinsics[query_id].normalize(uv_q)
        feats_a = self.intrinsics[anchor_id].normalize(uv_a)
        for label, feats in (("query", feats_q), ("anchor", feats_a)):
            if len(feats) and np.abs(feats).max() >= FEATURE_BOUND:
                raise ParseError(
                    path, 0, f"normalized {label} feature exceeds |{FEATURE_BOUND}|"
                )
        return MatchSet(feats_q, feats_a, keypoint_ids=kp_ids)


def _read_lines(path):
    try:
        with open(path) as handle:
            return handle.read().split("\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc


def _data_lines(lines):
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield line_no, stripped


def _parse_floats(path, line_no, tokens):
    values = []
    for token in tokens:
        try:
            value = float(token)
        except ValueError:
            raise ParseError(path, line_no, f"not a number: {token!r}") from None
        if not np.isfinite(value):
            raise ParseError(path, line_no, f"non-finite value: {token!r}")
        values.append(value)
    return values


def pose_from_values(path, line_no, values):
    """Pose from ``[qw, qx, qy, qz, tx, ty, tz]``; ParseError unless the
    quaternion has unit norm to within 1e-3."""
    q = np.array(values[:4])
    norm = np.linalg.norm(q)
    if abs(norm - 1.0) > 1e-3:
        raise ParseError(path, line_no, f"quaternion norm {norm:.6f} is not 1")
    # dividing by a norm of 1.0 +/- 1ulp still churns the low bits,
    # so only renormalize when the file is meaningfully off unit
    if abs(norm - 1.0) > 1e-9:
        q = q / norm
    return Pose.from_quaternion(q, values[4:])


def parse_poses(path):
    """Parse an anchors / ground-truth file into {id: Pose}."""
    poses = {}
    for line_no, line in _data_lines(_read_lines(path)):
        tokens = line.split()
        if len(tokens) != 8:
            raise ParseError(path, line_no, f"expected 8 fields, got {len(tokens)}")
        cam_id = tokens[0]
        if cam_id in poses:
            raise ParseError(path, line_no, f"duplicate id {cam_id!r}")
        poses[cam_id] = pose_from_values(path, line_no, _parse_floats(path, line_no, tokens[1:]))
    if not poses:
        raise ParseError(path, 0, "no poses found")
    return poses


def parse_intrinsics(path):
    """Parse an intrinsics file into {id: Intrinsics}."""
    table = {}
    for line_no, line in _data_lines(_read_lines(path)):
        tokens = line.split()
        if len(tokens) != 5:
            raise ParseError(path, line_no, f"expected 5 fields, got {len(tokens)}")
        cam_id = tokens[0]
        if cam_id in table:
            raise ParseError(path, line_no, f"duplicate id {cam_id!r}")
        fx, fy, cx, cy = _parse_floats(path, line_no, tokens[1:])
        try:
            table[cam_id] = Intrinsics(fx, fy, cx, cy)
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
    if not table:
        raise ParseError(path, 0, "no intrinsics found")
    return table


def parse_neighbors(path, known_anchors=None):
    """Parse a neighbors file into {query_id: [(anchor_id, score), ...]},
    each list sorted by score descending (ties by anchor id)."""
    table = {}
    for line_no, line in _data_lines(_read_lines(path)):
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(path, line_no, f"expected 3 fields, got {len(tokens)}")
        query_id, anchor_id = tokens[0], tokens[1]
        (score,) = _parse_floats(path, line_no, tokens[2:])
        if known_anchors is not None and anchor_id not in known_anchors:
            raise ParseError(path, line_no, f"unknown anchor id {anchor_id!r}")
        table.setdefault(query_id, []).append((anchor_id, score))
    if not table:
        raise ParseError(path, 0, "no neighbor entries found")
    for query_id, entries in table.items():
        entries.sort(key=lambda item: (-item[1], item[0]))
        seen = set()
        for anchor_id, _ in entries:
            if anchor_id in seen:
                raise ParseError(path, 0, f"duplicate pair {query_id!r}/{anchor_id!r}")
            seen.add(anchor_id)
    return table


def parse_matches(path):
    """Parse a match file into (kp_ids (N,), uv_query (N, 2), uv_anchor (N, 2))."""
    lines = _read_lines(path)
    parsed = _well_formed_matches(lines)
    if parsed is None:
        _raise_first_bad_line(path, lines)
    return parsed


def _is_keypoint_id(token):
    """The keypoint-id grammar: ASCII digits only, so no sign, no ``_``
    separator and no other script's digits (the value must also be below
    2**63). True for a run of such tokens joined together."""
    return token.isascii() and token.isdigit()


def _well_formed_matches(lines):
    """``parse_matches`` of a file whose data lines all hold five fields: a
    unique keypoint id of the grammar (ASCII digits, below 2**63) and four
    finite values, converted column by column. None for any other file,
    which ``_raise_first_bad_line`` then rejects with its line number."""
    rows = [tokens for tokens in map(str.split, lines) if tokens and tokens[0][0] != "#"]
    if not rows or any(len(tokens) != 5 for tokens in rows):
        return None
    ids = [tokens[0] for tokens in rows]
    if not _is_keypoint_id("".join(ids)):
        return None
    ids = list(map(int, ids))
    if max(ids) >= 2**63:
        return None
    kp_ids = np.array(ids, dtype=np.int64)
    if len(np.unique(kp_ids)) != len(kp_ids):
        return None
    try:
        values = np.array(list(map(float, [v for tokens in rows for v in tokens[1:]])))
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    values = values.reshape(-1, 4)
    return kp_ids, values[:, :2].copy(), values[:, 2:].copy()


def _raise_first_bad_line(path, lines):
    """Raise the ParseError of the first data line that breaks the match
    format, with its line number, or the empty file's when there is none:
    the files ``_well_formed_matches`` does not read."""
    seen = set()
    for line_no, line in _data_lines(lines):
        tokens = line.split()
        if len(tokens) != 5:
            raise ParseError(path, line_no, f"expected 5 fields, got {len(tokens)}")
        if not _is_keypoint_id(tokens[0]):
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
        _parse_floats(path, line_no, tokens[1:])
    raise ParseError(path, 0, "no matches found")


def load_manifest(path):
    """Parse a manifest JSON file, resolving paths against its directory."""
    path = Path(path)
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError(path, 0, "manifest must be a JSON object")
    required = ("anchors", "intrinsics", "neighbors", "matches_dir")
    for key in required:
        if key not in raw:
            raise ParseError(path, 0, f"manifest missing key {key!r}")
    unknown = set(raw) - set(required) - {"ground_truth"}
    if unknown:
        raise ParseError(path, 0, f"unknown manifest keys: {sorted(unknown)}")
    base = path.parent

    def resolve(key):
        value = raw.get(key)
        if value is None:
            return None
        if not isinstance(value, str):
            raise ParseError(path, 0, f"manifest key {key!r} must be a string path")
        return base / value

    return DatasetManifest(
        anchors=resolve("anchors"),
        intrinsics=resolve("intrinsics"),
        neighbors=resolve("neighbors"),
        matches_dir=resolve("matches_dir"),
        ground_truth=resolve("ground_truth"),
    )


def load_dataset(manifest_path):
    """Load and cross-validate a dataset from its manifest."""
    manifest = load_manifest(manifest_path)
    anchors = parse_poses(manifest.anchors)
    intrinsics = parse_intrinsics(manifest.intrinsics)
    neighbors = parse_neighbors(manifest.neighbors, known_anchors=set(anchors))
    if not manifest.matches_dir.is_dir():
        raise ConfigurationError(f"matches_dir {manifest.matches_dir} is not a directory")
    ground_truth = None
    if manifest.ground_truth is not None:
        ground_truth = parse_poses(manifest.ground_truth)

    for anchor_id in anchors:
        if anchor_id not in intrinsics:
            raise ConfigurationError(f"no intrinsics for anchor {anchor_id!r}")
    for query_id in neighbors:
        if query_id not in intrinsics:
            raise ConfigurationError(f"no intrinsics for query {query_id!r}")
    return Dataset(
        anchors=anchors,
        intrinsics=intrinsics,
        neighbors=neighbors,
        matches_dir=manifest.matches_dir,
        ground_truth=ground_truth,
    )


def _fmt(value):
    return format(float(value), FLOAT_FMT)


def _written_id(cam_id):
    """``str(cam_id)`` as the parsers read it back; ValueError naming the id
    when they would not: an empty id, an id starting with ``#`` (read as a
    comment) or one holding a character ``str.split`` splits on."""
    token = str(cam_id)
    if token.split() != [token] or token.startswith("#"):
        raise ValueError(
            f"id {token!r} cannot be read back: ids must be non-empty, must not "
            "start with '#' and must hold no whitespace"
        )
    return token


def write_poses(path, poses):
    """Write {id: Pose} in the anchors format (sorted by id)."""
    ids = sorted(poses)
    tokens = [_written_id(cam_id) for cam_id in ids]
    with open(path, "w") as handle:
        handle.write("# id qw qx qy qz tx ty tz\n")
        for token, cam_id, q in zip(tokens, ids, poses_to_quats([poses[i] for i in ids])):
            t = poses[cam_id].translation
            handle.write(" ".join([token] + [_fmt(v) for v in (*q, *t)]) + "\n")


def write_intrinsics(path, table):
    ids = sorted(table)
    tokens = [_written_id(cam_id) for cam_id in ids]
    with open(path, "w") as handle:
        handle.write("# id fx fy cx cy\n")
        for token, cam_id in zip(tokens, ids):
            k = table[cam_id]
            handle.write(" ".join([token] + [_fmt(v) for v in (k.fx, k.fy, k.cx, k.cy)]) + "\n")


def write_neighbors(path, table):
    """Write {query_id: [(anchor_id, score), ...]} in the neighbors format;
    ValueError, before the file is opened, for a table ``parse_neighbors``
    would not read back: an unreadable id, a non-finite score, a repeated
    anchor of one query, a query with no anchor or no query at all."""
    if not table:
        raise ValueError("a neighbors table needs at least one query")
    rows, seen = [], set()
    for query_id in sorted(table):
        if len(table[query_id]) == 0:
            raise ValueError(f"query {query_id!r} has no neighbors")
        for anchor_id, score in table[query_id]:
            pair = _written_id(query_id), _written_id(anchor_id)
            if pair in seen:
                raise ValueError(f"duplicate pair {pair[0]!r}/{pair[1]!r}")
            seen.add(pair)
            score = float(score)
            if not np.isfinite(score):
                raise ValueError(f"pair {pair[0]!r}/{pair[1]!r} has non-finite score {score}")
            rows.append((*pair, score))
    with open(path, "w") as handle:
        handle.write("# query_id anchor_id score\n")
        for query_id, anchor_id, score in rows:
            handle.write(f"{query_id} {anchor_id} {_fmt(score)}\n")


def write_matches(path, kp_ids, uv_query, uv_anchor):
    """Write N matches, an id and a query and anchor pixel each, in the
    match format; ValueError, before the file is opened, for matches
    ``parse_matches`` would not read back: none at all, an id outside
    [0, 2**63) or repeated, coordinates that are not (N, 2) or not finite."""
    kp_ids = [int(kp_id) for kp_id in kp_ids]
    if not kp_ids:
        raise ValueError("a match file needs at least one match")
    for kp_id in kp_ids:
        if not 0 <= kp_id < 2**63:
            raise ValueError(f"keypoint id {kp_id} is outside [0, 2**63)")
    if len(set(kp_ids)) != len(kp_ids):
        raise ValueError("duplicate keypoint id")
    uv = [np.asarray(a, dtype=np.float64) for a in (uv_query, uv_anchor)]
    for name, a in zip(("uv_query", "uv_anchor"), uv):
        if a.shape != (len(kp_ids), 2):
            raise ValueError(f"{name} is {a.shape}, not ({len(kp_ids)}, 2): one row per id")
        if not np.isfinite(a).all():
            raise ValueError(f"{name} holds a non-finite coordinate")
    with open(path, "w") as handle:
        handle.write("# kp_id u_q v_q u_a v_a\n")
        for kp_id, (uq, vq), (ua, va) in zip(kp_ids, *uv):
            handle.write(f"{kp_id} {_fmt(uq)} {_fmt(vq)} {_fmt(ua)} {_fmt(va)}\n")


def write_dataset(root, anchors, intrinsics, neighbors, matches, ground_truth=None):
    """Write a complete dataset under ``root`` and return the manifest path.

    ``matches`` maps (query_id, anchor_id) to (kp_ids, uv_query, uv_anchor)
    in pixel coordinates.
    """
    root = Path(root)
    os.makedirs(root / "matches", exist_ok=True)
    write_poses(root / "anchors.txt", anchors)
    write_intrinsics(root / "intrinsics.txt", intrinsics)
    write_neighbors(root / "neighbors.txt", neighbors)
    for (query_id, anchor_id), (kp_ids, uv_q, uv_a) in matches.items():
        write_matches(root / "matches" / f"{query_id}__{anchor_id}.txt", kp_ids, uv_q, uv_a)
    manifest = {
        "anchors": "anchors.txt",
        "intrinsics": "intrinsics.txt",
        "neighbors": "neighbors.txt",
        "matches_dir": "matches",
    }
    if ground_truth is not None:
        write_poses(root / "ground_truth.txt", ground_truth)
        manifest["ground_truth"] = "ground_truth.txt"
    manifest_path = root / "manifest.json"
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest_path
