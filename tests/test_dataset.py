"""Text formats: parse/write round trips and error reporting."""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line_by_line_parse_matches, random_pose, rot_x

from mvloc import (
    ConfigurationError,
    Dataset,
    Intrinsics,
    ParseError,
    Pose,
    load_dataset,
    load_manifest,
    quat_to_rotation,
    write_dataset,
)
from mvloc import dataset
from mvloc.dataset import (
    parse_intrinsics,
    parse_matches,
    parse_neighbors,
    parse_poses,
    write_intrinsics,
    write_matches,
    write_neighbors,
    write_poses,
)
from mvloc.geometry import rotvec_to_rotation


def dyadic_poses():
    # quaternions and translations exactly representable in binary, so the
    # quat -> matrix -> quat round trip cannot move a single bit
    perm = quat_to_rotation(np.array([0.5, 0.5, 0.5, 0.5]))
    return {
        "cam_a": Pose(np.eye(3), [1.25, -0.5, 3.0]),
        "cam_b": Pose(perm, [0.0, 2.75, -1.125]),
    }


# ------------------------------------------------------------------- poses


class TestPoses:
    def test_dyadic_round_trip_is_byte_exact(self, tmp_path):
        first = tmp_path / "first.txt"
        second = tmp_path / "second.txt"
        write_poses(first, dyadic_poses())
        write_poses(second, parse_poses(first))
        assert first.read_bytes() == second.read_bytes()

    def test_generic_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        poses = {f"c{i}": random_pose(rng) for i in range(20)}
        path = tmp_path / "poses.txt"
        write_poses(path, poses)
        loaded = parse_poses(path)
        for cam_id, pose in poses.items():
            got = loaded[cam_id]
            np.testing.assert_array_equal(got.translation, pose.translation)
            assert np.abs(got.rotation - pose.rotation).max() < 5e-15

    def test_field_count_and_duplicates(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1 0 0 0 0 0\n")
        with pytest.raises(ParseError, match="expected 8 fields"):
            parse_poses(path)
        path.write_text("a 1 0 0 0 0 0 0\na 1 0 0 0 1 0 0\n")
        with pytest.raises(ParseError, match="duplicate id"):
            parse_poses(path)

    def test_quaternion_norm_gate(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1.01 0 0 0 0 0 0\n")
        with pytest.raises(ParseError, match="norm"):
            parse_poses(path)

    def test_mildly_off_unit_quaternion_is_renormalized(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("a 1.0001 0 0 0 0 0 0\n")
        pose = parse_poses(path)["a"]
        np.testing.assert_allclose(pose.rotation, np.eye(3), atol=1e-12)

    def test_bad_tokens(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1 0 0 zero 0 0 0\n")
        with pytest.raises(ParseError, match="not a number"):
            parse_poses(path)
        path.write_text("a 1 0 0 0 nan 0 0\n")
        with pytest.raises(ParseError, match="non-finite"):
            parse_poses(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# just a comment\n\n")
        with pytest.raises(ParseError, match="no poses"):
            parse_poses(path)

    def test_error_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# header\na 1 0 0 0 0 0\n")
        with pytest.raises(ParseError) as exc_info:
            parse_poses(path)
        assert exc_info.value.path == str(path)
        assert exc_info.value.line_no == 2


# -------------------------------------------------------------- intrinsics


class TestIntrinsics:
    def test_principal_point_maps_to_origin(self):
        k = Intrinsics(100.0, 200.0, 320.0, 240.0)
        np.testing.assert_array_equal(k.normalize([[320.0, 240.0]]), [[0.0, 0.0]])

    def test_denormalize_inverts_dyadic(self):
        k = Intrinsics(128.0, 64.0, 320.0, 256.0)
        pixels = np.array([[10.5, -3.25], [641.0, 0.0]])
        np.testing.assert_array_equal(k.denormalize(k.normalize(pixels)), pixels)

    def test_validation(self):
        with pytest.raises(ValueError):
            Intrinsics(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Intrinsics(1.0, 1.0, float("inf"), 0.0)

    def test_file_round_trip(self, tmp_path):
        table = {"q": Intrinsics(500.0, 500.0, 320.0, 240.0)}
        path = tmp_path / "k.txt"
        write_intrinsics(path, table)
        assert parse_intrinsics(path) == table

    def test_bad_focal_reported_with_line(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("q -5 500 320 240\n")
        with pytest.raises(ParseError, match="positive"):
            parse_intrinsics(path)


# --------------------------------------------------------------- neighbors


class TestNeighbors:
    def test_sorted_by_score_then_id(self, tmp_path):
        path = tmp_path / "n.txt"
        path.write_text("q a2 0.5\nq a1 0.9\nq a3 0.9\n")
        table = parse_neighbors(path)
        assert table["q"] == [("a1", 0.9), ("a3", 0.9), ("a2", 0.5)]

    def test_unknown_anchor_rejected(self, tmp_path):
        path = tmp_path / "n.txt"
        path.write_text("q a1 0.5\n")
        with pytest.raises(ParseError, match="unknown anchor"):
            parse_neighbors(path, known_anchors={"a2"})

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "n.txt"
        path.write_text("q a1 0.5\nq a1 0.6\n")
        with pytest.raises(ParseError, match="duplicate pair"):
            parse_neighbors(path)

    def test_round_trip(self, tmp_path):
        table = {"q1": [("a1", 0.75), ("a2", 0.5)], "q2": [("a1", 1.0)]}
        path = tmp_path / "n.txt"
        write_neighbors(path, table)
        assert parse_neighbors(path) == table

    @pytest.mark.parametrize(
        "table, message",
        [
            ({"q": [("a1", float("inf"))]}, "non-finite score"),
            ({"q": [("a1", 0.5), ("a2", float("nan"))]}, "non-finite score"),
            ({"q": [("a1", 0.5), ("a1", 0.25)]}, "duplicate pair"),
            ({"q1": [("a1", 0.5)], "q2": []}, "query 'q2' has no neighbors"),
            ({}, "at least one query"),
        ],
        ids=["inf score", "nan score", "repeated anchor", "query without anchors", "no query"],
    )
    def test_writer_refuses_a_table_it_cannot_read_back(self, tmp_path, table, message):
        path = tmp_path / "n.txt"
        with pytest.raises(ValueError, match=message):
            write_neighbors(path, table)
        assert not path.exists()


# ----------------------------------------------------------------- matches


class TestMatches:
    def test_round_trip(self, tmp_path):
        kp_ids = np.array([3, 1, 7])
        uv_q = np.array([[1.5, 2.0], [3.25, 4.0], [5.0, 6.5]])
        uv_a = uv_q + 0.25
        path = tmp_path / "m.txt"
        write_matches(path, kp_ids, uv_q, uv_a)
        got_ids, got_q, got_a = parse_matches(path)
        np.testing.assert_array_equal(got_ids, kp_ids)
        np.testing.assert_array_equal(got_q, uv_q)
        np.testing.assert_array_equal(got_a, uv_a)

    def test_keypoint_id_validation(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1.5 0 0 0 0\n")
        with pytest.raises(ParseError, match="integer"):
            parse_matches(path)
        path.write_text("-1 0 0 0 0\n")
        with pytest.raises(ParseError, match="non-negative integer in ASCII digits"):
            parse_matches(path)
        path.write_text("4 0 0 0 0\n4 1 1 1 1\n")
        with pytest.raises(ParseError, match="duplicate keypoint"):
            parse_matches(path)

    @pytest.mark.parametrize(
        "kp_ids, uv_q, uv_a, message",
        [
            ([0, 1, 2], [[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]],
             r"uv_query is \(2, 2\)"),
            ([0, 1], [[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0, 0.0], [3.0, 4.0, 0.0]], "uv_anchor"),
            ([0, 1], [[1.0, float("nan")], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]], "non-finite"),
            ([0, 1], [[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [float("-inf"), 4.0]], "non-finite"),
            ([5, 5], [[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]], "duplicate keypoint"),
            ([], np.empty((0, 2)), np.empty((0, 2)), "at least one match"),
        ],
        ids=["more ids than rows", "three columns", "nan", "inf", "repeated id", "no match"],
    )
    def test_writer_refuses_matches_it_cannot_read_back(self, tmp_path, kp_ids, uv_q, uv_a,
                                                        message):
        path = tmp_path / "m.txt"
        with pytest.raises(ValueError, match=message):
            write_matches(path, kp_ids, uv_q, uv_a)
        assert not path.exists()


# ---------------------------------------------------------------- manifest


# Tokens that are not plain ASCII-digit ids or finite decimal values; the
# line-by-line parser accepts some of them (int("+1"), float("1_0")) and
# rejects the rest.
BAD_ID = "keypoint id must be a non-negative integer in ASCII digits:"
ODD_IDS = ["+1", "1_0", "007", "-3", "-0", "1.5", "x1", "\u0663", "9" * 20, "4" * 19]
ODD_VALUES = ["nan", "1e400", "-inf", "1_0.5", "+2", "abc", "0x1p3", "1e-320", "-0.0", "\u0663"]


@st.composite
def match_files(draw):
    """Text of a match file: data lines (well formed when ``clean``, else
    with odd ids and values, repeated ids and 4 or 6 fields), comments,
    blank and indented lines, LF or CRLF endings."""
    clean = draw(st.booleans())
    n = draw(st.integers(0, 25))
    if clean:
        ids = draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n, unique=True))
    else:
        ids = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    lines = []
    for kp_id in ids:
        for _ in range(draw(st.integers(0, 1))):
            lines.append(draw(st.sampled_from(["# kp_id u_q v_q u_a v_a", "  # note", "", " \t"])))
        fields = [str(kp_id)]
        if not clean and draw(st.integers(0, 5)) == 0:
            fields[0] = draw(st.sampled_from(ODD_IDS))
        for _ in range(4 if clean else draw(st.sampled_from([4, 4, 4, 4, 3, 5]))):
            value = draw(st.one_of(finite.map(repr), finite.map(lambda v: format(v, ".17g")),
                                   st.integers(-2000, 2000).map(str)))
            if not clean and draw(st.integers(0, 7)) == 0:
                value = draw(st.sampled_from(ODD_VALUES))
            fields.append(value)
        indent = draw(st.sampled_from(["", "", "  ", "\t"]))
        lines.append(indent + draw(st.sampled_from([" ", " ", "\t", "  "])).join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


def parse_outcome(parse, path):
    """The arrays' dtypes, shapes and bytes, or the error a caller sees."""
    try:
        return [(a.dtype.str, a.shape, a.tobytes()) for a in parse(path)]
    except ParseError as exc:
        return ParseError, exc.path, exc.line_no, str(exc)
    except ValueError as exc:
        return type(exc), str(exc)


class TestMatchParsing:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=match_files())
    def test_parse_matches_reads_as_the_line_by_line_parser(self, text):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "q__a.txt"
            path.write_text(text, encoding="utf-8", newline="")
            assert parse_outcome(parse_matches, path) == parse_outcome(
                line_by_line_parse_matches, path
            )

    @pytest.mark.parametrize(
        "line, line_no, message",
        [
            ("+1 1 2 3 4", 3, f"{BAD_ID} '+1'"),
            ("1_0 1 2 3 4", 3, f"{BAD_ID} '1_0'"),
            ("007 1 2 3 4", None, None),
            ("1 nan 2 3 4", 3, "non-finite value: 'nan'"),
            ("1 1e400 2 3 4", 3, "non-finite value: '1e400'"),
            ("-1 1 2 3 4", 3, f"{BAD_ID} '-1'"),
            (f"{2**63} 1 2 3 4", 3, "keypoint id must be < 2**63 (int64)"),
            (f"{2**63 - 1} 1 2 3 4", None, None),
            ("2 1 2 3 4", 3, "duplicate keypoint id 2"),
            ("1.0 1 2 3 4", 3, f"{BAD_ID} '1.0'"),
            ("1 1 2 3", 3, "expected 5 fields, got 4"),
            ("1 1 2 3 4 5", 3, "expected 5 fields, got 6"),
            ("\u0665 1 2 3 4", 3, f"{BAD_ID} '\u0665'"),
            ("0000000000000000007 1 2 3 4", None, None),
        ],
    )
    def test_odd_lines_read_as_the_line_parser(self, tmp_path, line, line_no, message):
        path = tmp_path / "q__a.txt"
        path.write_text(f"# header\n2 0.5 0.25 1 1\n  {line}\n\n")
        expected = parse_outcome(line_by_line_parse_matches, path)
        assert parse_outcome(parse_matches, path) == expected
        if line_no is None:
            assert len(expected) == 3  # accepted
        else:
            assert expected == (ParseError, str(path), line_no, f"{path}:{line_no}: {message}")

    @pytest.mark.parametrize("token", [str(2**63 - 1), "4" * 19, "0" * 30 + "7", "0"])
    def test_every_id_of_the_grammar_takes_the_column_path(self, tmp_path, token):
        path = tmp_path / "q__a.txt"
        path.write_text(f"# header\n2 0.5 0.25 1 1\n{token} 1 2 3 4\n")
        columns = dataset._well_formed_matches(dataset._read_lines(path))
        assert columns is not None
        assert columns[0].tolist() == [2, int(token)]

    def test_written_files_take_the_column_path(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "q__a.txt"
        write_matches(path, rng.permutation(500)[:120], rng.normal(size=(120, 2)) * 400,
                      rng.normal(size=(120, 2)) * 400)
        columns = dataset._well_formed_matches(dataset._read_lines(path))
        assert columns is not None
        assert [(a.dtype.str, a.shape, a.tobytes()) for a in columns] == parse_outcome(
            line_by_line_parse_matches, path
        )


class TestManifest:
    def write_minimal(self, root, extra=""):
        (root / "matches").mkdir()
        write_poses(root / "anchors.txt", {"a1": Pose(np.eye(3), [0, 0, 0])})
        write_intrinsics(
            root / "intrinsics.txt",
            {"a1": Intrinsics(1.0, 1.0, 0.0, 0.0), "q": Intrinsics(1.0, 1.0, 0.0, 0.0)},
        )
        write_neighbors(root / "neighbors.txt", {"q": [("a1", 1.0)]})
        manifest = root / "manifest.json"
        manifest.write_text(
            '{"anchors": "anchors.txt", "intrinsics": "intrinsics.txt",'
            ' "neighbors": "neighbors.txt", "matches_dir": "matches"%s}\n' % extra
        )
        return manifest

    def test_relative_paths_resolve_against_manifest_dir(self, tmp_path):
        manifest = self.write_minimal(tmp_path)
        loaded = load_manifest(manifest)
        assert loaded.anchors == tmp_path / "anchors.txt"
        assert loaded.ground_truth is None

    def test_unknown_keys_rejected(self, tmp_path):
        manifest = self.write_minimal(tmp_path, extra=', "extra": "x"')
        with pytest.raises(ParseError, match="unknown manifest keys"):
            load_manifest(manifest)

    def test_missing_key_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"anchors": "anchors.txt"}\n')
        with pytest.raises(ParseError, match="missing key"):
            load_manifest(manifest)

    def test_invalid_json_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{not json\n")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_manifest(manifest)

    def test_load_dataset_cross_checks_intrinsics(self, tmp_path):
        manifest = self.write_minimal(tmp_path)
        # drop the query intrinsics line
        write_intrinsics(tmp_path / "intrinsics.txt", {"a1": Intrinsics(1.0, 1.0, 0.0, 0.0)})
        with pytest.raises(ConfigurationError, match="no intrinsics for query"):
            load_dataset(manifest)


# ------------------------------------------- round trips of generated inputs

# Camera ids: tokens of printable ASCII that ``str.split`` keeps whole and
# that do not start a comment.
CAMERA_IDS = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=8
).filter(lambda token: not token.startswith("#"))
FINITE = st.floats(allow_nan=False, allow_infinity=False)

# Characters str.split splits on: blanks, line and record separators, and
# Unicode spaces.
SPLIT_CHARS = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u3000"
# Ids the parsers cannot read back: empty, a comment, or split in two.
UNREADABLE_IDS = st.one_of(
    st.just(""),
    CAMERA_IDS.map("#".__add__),
    st.tuples(CAMERA_IDS, st.sampled_from(SPLIT_CHARS), st.text(max_size=3)).map("".join),
)
# Ids a writer is handed: plain ones, any text, and unreadable ones.
WRITTEN_IDS = st.one_of(CAMERA_IDS, st.text(max_size=6), UNREADABLE_IDS)


def unreadable(token):
    return token == "" or token.startswith("#") or any(c.isspace() for c in token)


def refused(write, ids):
    """Run ``write``. When any of ``ids`` is unreadable, expect a ValueError
    naming one of them and return True; otherwise expect it to write and
    return False."""
    bad = [token for token in ids if unreadable(token)]
    if not bad:
        write()
        return False
    with pytest.raises(ValueError) as info:
        write()
    assert any(repr(token) in str(info.value) for token in bad)
    return True


@st.composite
def generated_poses(draw):
    """{id: Pose} of random rotations (half turns and near half turns
    included) and translations over several orders of magnitude."""
    ids = draw(st.lists(WRITTEN_IDS, min_size=1, max_size=6, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    poses = {}
    for cam_id in ids:
        axis = rng.normal(size=3)
        angle = draw(st.sampled_from([rng.uniform(0, np.pi), np.pi, np.pi - 1e-9, 0.0]))
        rotation = rotvec_to_rotation(angle * axis / np.linalg.norm(axis))
        poses[cam_id] = Pose(rotation, rng.normal(size=3) * 10.0 ** rng.integers(-3, 4))
    return poses


class TestGeneratedRoundTrips:
    """Every writer/parser pair returns exactly what was written, and the
    writers refuse the ids that would not read back."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches(self, data):
        n = data.draw(st.integers(1, 30))
        ids = st.integers(0, 2**63 - 1)
        if data.draw(st.booleans()):  # some may fall outside [0, 2**63)
            ids = st.one_of(ids, st.integers(-(2**64), 2**64))
        kp_ids = data.draw(st.lists(ids, min_size=n, max_size=n, unique=True))
        uv = np.array(data.draw(st.lists(FINITE, min_size=4 * n, max_size=4 * n))).reshape(n, 4)
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "q__a.txt"
            if not all(0 <= kp_id < 2**63 for kp_id in kp_ids):
                with pytest.raises(ValueError, match="keypoint id"):
                    write_matches(path, kp_ids, uv[:, :2], uv[:, 2:])
                return
            kp_ids = np.array(kp_ids, dtype=np.int64)
            write_matches(path, kp_ids, uv[:, :2], uv[:, 2:])
            got = parse_matches(path)
        assert [(a.dtype.str, a.tobytes()) for a in got] == [
            (a.dtype.str, a.tobytes()) for a in (kp_ids, uv[:, :2].copy(), uv[:, 2:].copy())
        ]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(table=st.dictionaries(
        WRITTEN_IDS,
        st.tuples(st.floats(min_value=1e-300, allow_infinity=False), st.floats(
            min_value=1e-300, allow_infinity=False), FINITE, FINITE),
        min_size=1, max_size=6,
    ))
    def test_intrinsics(self, table):
        written = {cam_id: Intrinsics(*values) for cam_id, values in table.items()}
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "intrinsics.txt"
            if refused(lambda: write_intrinsics(path, written), written):
                return
            parsed = parse_intrinsics(path)

        def shown(table):
            return {cam_id: np.array(dataclasses.astuple(k)).tobytes()
                    for cam_id, k in table.items()}

        assert shown(parsed) == shown(written)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(raw=st.dictionaries(
        WRITTEN_IDS, st.dictionaries(WRITTEN_IDS, FINITE, min_size=1, max_size=6),
        min_size=1, max_size=4,
    ))
    def test_neighbors(self, raw):
        # the order parse_neighbors keeps: score descending, ties by id
        written = {
            query_id: sorted(scores.items(), key=lambda item: (-item[1], item[0]))
            for query_id, scores in raw.items()
        }
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "neighbors.txt"
            ids = [token for query_id, row in written.items() for token in (query_id, *dict(row))]
            if refused(lambda: write_neighbors(path, written), ids):
                return
            parsed = parse_neighbors(path)
        def shown(table):
            return {q: [(a, np.float64(v).tobytes()) for a, v in e] for q, e in table.items()}

        assert shown(parsed) == shown(written)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(poses=generated_poses())
    def test_poses_write_parse_write_is_byte_identical(self, poses):
        with tempfile.TemporaryDirectory() as root:
            first, second = Path(root) / "a.txt", Path(root) / "b.txt"
            if refused(lambda: write_poses(first, poses), poses):
                return
            parsed = parse_poses(first)
            write_poses(second, parsed)
            assert second.read_bytes() == first.read_bytes()
        for cam_id, pose in poses.items():
            assert parsed[cam_id].translation.tobytes() == pose.translation.tobytes()


# ------------------------------------------------------------ full dataset


class TestWriteDataset:
    def build(self, root):
        anchors = dyadic_poses()
        intrinsics = {
            "cam_a": Intrinsics(512.0, 512.0, 320.0, 240.0),
            "cam_b": Intrinsics(512.0, 512.0, 320.0, 240.0),
            "q": Intrinsics(512.0, 512.0, 320.0, 240.0),
        }
        neighbors = {"q": [("cam_a", 1.0), ("cam_b", 0.5)]}
        matches = {
            ("q", "cam_a"): (
                np.array([0, 1]),
                np.array([[320.0, 240.0], [336.0, 208.0]]),
                np.array([[352.0, 224.0], [328.0, 248.0]]),
            )
        }
        return write_dataset(root, anchors, intrinsics, neighbors, matches,
                             ground_truth={"q": Pose(np.eye(3), [0.5, 0.0, -2.0])})

    def test_round_trip_is_byte_exact(self, tmp_path):
        manifest = self.build(tmp_path / "one")
        dataset = load_dataset(manifest)
        second = write_dataset(
            tmp_path / "two",
            dataset.anchors,
            dataset.intrinsics,
            dataset.neighbors,
            {
                ("q", "cam_a"): parse_matches(dataset.match_path("q", "cam_a")),
            },
            ground_truth=dataset.ground_truth,
        )
        for name in ("anchors.txt", "intrinsics.txt", "neighbors.txt",
                     "ground_truth.txt", "manifest.json", "matches/q__cam_a.txt"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes(), name
        assert second.name == "manifest.json"

    def test_load_matches_normalizes(self, tmp_path):
        manifest = self.build(tmp_path / "d")
        dataset = load_dataset(manifest)
        matches = dataset.load_matches("q", "cam_a")
        np.testing.assert_array_equal(matches.query[0], [0.0, 0.0])
        np.testing.assert_array_equal(matches.keypoint_ids, [0, 1])

    def test_missing_match_file(self, tmp_path):
        manifest = self.build(tmp_path / "d")
        dataset = load_dataset(manifest)
        with pytest.raises(ConfigurationError, match="q__cam_b"):
            dataset.load_matches("q", "cam_b")

    def test_unreasonable_pixels_rejected(self, tmp_path):
        manifest = self.build(tmp_path / "d")
        dataset = load_dataset(manifest)
        path = dataset.match_path("q", "cam_b")
        write_matches(path, [0], [[999999.0, 0.0]], [[0.0, 0.0]])
        with pytest.raises(ParseError, match="exceeds"):
            dataset.load_matches("q", "cam_b")

    def test_unknown_ids_rejected(self, tmp_path):
        manifest = self.build(tmp_path / "d")
        dataset = load_dataset(manifest)
        with pytest.raises(ConfigurationError, match="unknown anchor"):
            dataset.load_matches("q", "cam_z")
