"""Essential-matrix estimation, decomposition, cheirality, triangulation."""

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    mean_norm_hartley,
    one_vector_skew,
    per_candidate_cheirality_select,
    per_matrix_decompose_essential,
    per_candidate_depth_signs,
    project,
    random_rotation,
    random_unit,
    sequential_eight_point,
    sequential_essential,
    sequential_samples,
    sequential_squared_distance,
    two_call_eight_point_stack,
)

from mvloc import (
    AmbiguousCheiralityError,
    DegenerateGeometryError,
    InsufficientDataError,
    MatchSet,
    MvlocError,
    NoConsensusError,
    NoValidPoseError,
    Pose,
    RansacConfig,
    RelativePoseEstimate,
    SceneConfig,
    cheirality_select,
    estimate_essential,
    generate_scene,
    geodesic_angle,
)
from mvloc import relpose
from mvloc.geometry import relative_poses, rotvec_to_rotation
from mvloc.relpose import (
    CHUNK_ROWS,
    MIN_MATCHES,
    candidates_of,
    decompose_essentials,
    eight_point,
    view_pair_midpoints,
)

X = np.array([1.0, 0.0, 0.0])


# ---------------------------------------------------------------- fixtures


def two_view_matches(seed, n_points=100):
    """Exact correspondences between the query and the first anchor."""
    scene = generate_scene(SceneConfig(n_points=n_points, n_anchors=2), seed=seed)
    anchor = scene.anchor_poses[0]
    (rotation,), (direction,) = relative_poses(
        scene.query_pose, anchor.rotation[None], anchor.translation[None]
    )
    rel = RelativePoseEstimate(rotation, direction)
    q_feats = np.array([project(scene.query_pose, p) for p in scene.points])
    a_feats = np.array([project(anchor, p) for p in scene.points])
    return MatchSet(q_feats, a_feats, keypoint_ids=np.arange(n_points)), rel


def normalized(e):
    return e / np.linalg.norm(e)


def essential_of(rel):
    """E = [t]_x R of a relative pose."""
    return one_vector_skew(rel.direction) @ rel.rotation


def decomposed(e):
    """The four candidates of one essential matrix, by
    ``decompose_essentials`` and ``candidates_of``."""
    rotations, directions = decompose_essentials(np.asarray(e, dtype=np.float64)[None])
    return candidates_of(rotations[0], directions[0])


def essential_gap(e_est, e_true):
    a, b = normalized(e_est), normalized(e_true)
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b))


# ----------------------------------------------------------------- matches


class TestMatchSet:
    def test_shape_is_validated(self):
        with pytest.raises(ValueError):
            MatchSet(np.zeros((4, 3)), np.zeros((4, 2)))

    def test_non_finite_rejected(self):
        q = np.zeros((4, 2))
        q[0, 0] = np.nan
        with pytest.raises(ValueError):
            MatchSet(q, np.zeros((4, 2)))

    def test_subset_keeps_keypoint_ids(self):
        m = MatchSet(np.zeros((4, 2)), np.zeros((4, 2)), keypoint_ids=np.arange(4))
        sub = m.subset(np.array([True, False, True, False]))
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.keypoint_ids, [0, 2])


class TestRansacConfig:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            RansacConfig(threshold=0.0)

    def test_confidence_range(self):
        with pytest.raises(ValueError):
            RansacConfig(confidence=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            # nan ran every iteration and then found no consensus; inf made
            # every match an inlier
            ("threshold", float("nan")),
            ("threshold", float("inf")),
            # a float budget broke the sampler, a budget below 1 ran nothing
            ("max_iters", 2.5),
            ("max_iters", 0),
            ("max_iters", -3),
            ("max_iters", True),
            # fewer inliers than a refit needs
            ("min_inliers", 0),
            ("min_inliers", MIN_MATCHES - 1),
            ("min_inliers", 8.0),
        ],
    )
    def test_rejects_what_it_cannot_run(self, field, value):
        with pytest.raises(ValueError, match=field):
            RansacConfig(**{field: value})

    def test_accepts_integral_bounds(self):
        # exact matches: the one hypothesis a budget of 1 allows holds them all
        config = RansacConfig(max_iters=np.int64(1), min_inliers=np.int64(MIN_MATCHES))
        _, mask = estimate_essential(planted_matches(3, 40), config, seed=0)
        assert mask.all()


# -------------------------------------------------------------- estimation


class TestEstimateEssential:
    def test_exact_matches_recover_essential(self):
        matches, rel = two_view_matches(seed=1)
        e_true = essential_of(rel)
        e, mask = estimate_essential(matches, seed=0)
        assert essential_gap(e, e_true) < 1e-6
        assert mask.sum() == len(matches)

    def test_planted_outliers_are_rejected(self):
        matches, rel = two_view_matches(seed=2, n_points=80)
        rng = np.random.default_rng(42)
        junk = rng.uniform(-0.8, 0.8, size=(20, 2))
        q = np.vstack([matches.query, junk])
        a = np.vstack([matches.anchor, rng.uniform(-0.8, 0.8, size=(20, 2))])
        mixed = MatchSet(q, a)
        _, mask = estimate_essential(mixed, seed=3)
        assert mask[:80].sum() >= 78

    def test_identical_pairs_fail(self):
        q = np.tile([0.1, 0.2], (20, 1))
        a = np.tile([0.3, -0.1], (20, 1))
        with pytest.raises((NoConsensusError, DegenerateGeometryError)):
            estimate_essential(MatchSet(q, a), seed=0)

    def test_too_few_matches(self):
        m = MatchSet(np.zeros((5, 2)), np.zeros((5, 2)))
        with pytest.raises(InsufficientDataError):
            estimate_essential(m, seed=0)

    def test_seeded_determinism(self):
        matches, _ = two_view_matches(seed=4)
        e1, m1 = estimate_essential(matches, seed=11)
        e2, m2 = estimate_essential(matches, seed=11)
        np.testing.assert_array_equal(e1, e2)
        np.testing.assert_array_equal(m1, m2)

    def test_default_seed_is_reproducible(self):
        # 1 px noise at f = 800 and 20 outliers, so the sample draws decide E
        matches, _ = two_view_matches(seed=7)
        rng = np.random.default_rng(8)
        q = matches.query + rng.normal(scale=1.0 / 800.0, size=matches.query.shape)
        a = matches.anchor + rng.normal(scale=1.0 / 800.0, size=matches.anchor.shape)
        q[:20], a[:20] = rng.uniform(-0.8, 0.8, (2, 20, 2))
        runs = [estimate_essential(MatchSet(q, a)) for _ in range(5)]
        for e, mask in runs[1:]:
            assert e.tobytes() == runs[0][0].tobytes()
            assert mask.tobytes() == runs[0][1].tobytes()

    def test_epipolar_identity_on_clean_matches(self):
        matches, rel = two_view_matches(seed=5)
        e = normalized(essential_of(rel))
        hom_q = np.column_stack([matches.query, np.ones(len(matches))])
        hom_a = np.column_stack([matches.anchor, np.ones(len(matches))])
        residual = np.einsum("ij,jk,ik->i", hom_q, e, hom_a)
        assert np.abs(residual).max() < 1e-10

    def test_symmetric_distance_is_zero_on_clean_matches(self):
        matches, rel = two_view_matches(seed=6)
        e = essential_of(rel)
        squared = relpose._squared_epipolar_distance(
            e, relpose._homogeneous_rows(matches.query), relpose._homogeneous_rows(matches.anchor)
        )
        assert np.sqrt(squared).max() < 1e-10


# ------------------------------------------------- batched hypothesis loop


def planted_matches(seed, n, outlier_frac=0.0, sigma=0.0, duplicate_frac=0.0):
    """n matches of a random two-view scene with gaussian noise on both
    sides, a share of anchor features replaced by uniform junk and a share
    of rows overwritten by copies of row 0 (samples holding two copies are
    degenerate)."""
    rng = np.random.default_rng(seed)
    points = np.column_stack([rng.uniform(-2.0, 2.0, (n, 2)), rng.uniform(4.0, 8.0, n)])
    rot = rotvec_to_rotation(rng.normal(scale=0.15, size=3))
    in_anchor = points @ rot.T + random_unit(rng) * rng.uniform(0.3, 1.0)
    query = points[:, :2] / points[:, 2:] + rng.normal(scale=sigma, size=(n, 2))
    anchor = in_anchor[:, :2] / in_anchor[:, 2:] + rng.normal(scale=sigma, size=(n, 2))
    junk = rng.random(n) < outlier_frac
    anchor[junk] = rng.uniform(-0.6, 0.6, size=(int(junk.sum()), 2))
    copies = rng.random(n) < duplicate_frac
    query[copies], anchor[copies] = query[0], anchor[0]
    return MatchSet(query, anchor)


def essential_run(estimate, matches, config, seed):
    """What a caller sees of one RANSAC run: E's bytes and the mask, or the
    error (a NoConsensusError message holds the iteration count)."""
    try:
        e, mask = estimate(matches, config, np.random.default_rng(seed))
        return e.shape, e.tobytes(), mask.dtype, mask.tobytes()
    except MvlocError as exc:
        return type(exc), str(exc)


@contextlib.contextmanager
def hypothesis_chunks():
    """Record the size of every stacked chunk of hypotheses that
    estimate_essential fits (its refits through eight_point excluded)."""
    sizes = []
    refitting = []
    fit_stack, refit = relpose._eight_point_stack, relpose.eight_point

    def recording_stack(query, anchor):
        if not refitting:
            sizes.append(len(query))
        return fit_stack(query, anchor)

    def recording_refit(query, anchor):
        refitting.append(True)
        try:
            return refit(query, anchor)
        finally:
            refitting.pop()

    relpose._eight_point_stack, relpose.eight_point = recording_stack, recording_refit
    try:
        yield sizes
    finally:
        relpose._eight_point_stack, relpose.eight_point = fit_stack, refit


def assert_matches_sequential(matches, config, seed):
    """The batched loop shows its caller what the sequential oracle does;
    returns the oracle's stats and the batched loop's chunk sizes."""
    stats = {}
    expected = essential_run(
        lambda m, c, rng: sequential_essential(m, c, rng, stats=stats), matches, config, seed
    )
    with hypothesis_chunks() as sizes:
        actual = essential_run(estimate_essential, matches, config, seed)
    assert actual == expected
    assert max(sizes) * len(matches) <= max(CHUNK_ROWS, len(matches))
    assert sum(sizes) >= stats["iterations"]
    return stats, sizes


class TestBatchedHypotheses:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 68),
        rows=st.sampled_from([MIN_MATCHES, MIN_MATCHES, 9, 23, 120]),
        sets=st.sampled_from(["planted", "uniform", "coincident", "duplicate rows"]),
    )
    def test_stack_matches_the_two_call_normalization(self, seed, size, rows, sets):
        # one normalization of both stacked sides and an in-place design give
        # the bytes of a normalization call per side and an np.stack design
        rng = np.random.default_rng(seed)
        if sets == "uniform":
            query, anchor = rng.uniform(-1.0, 1.0, (2, size, rows, 2)) * 10.0 ** rng.integers(-4, 3)
        else:
            matches = planted_matches(seed, max(rows, 40), 0.2, 1e-3)
            picks = np.argsort(rng.random((size, len(matches))), axis=1)[:, :rows]
            query, anchor = matches.query[picks], matches.anchor[picks]
        chosen = rng.random(size) < 0.5
        if sets == "coincident":
            side = query if rng.random() < 0.5 else anchor
            side[chosen] = side[chosen, :1]
        elif sets == "duplicate rows":
            query[chosen, 1], anchor[chosen, 1] = query[chosen, 0], anchor[chosen, 0]
        e, status = relpose._eight_point_stack(query, anchor)
        expected_e, expected_status = two_call_eight_point_stack(query, anchor)
        assert e.tobytes() == expected_e.tobytes()
        assert status.tolist() == expected_status.tolist()
        if sets == "coincident":
            assert (status[chosen] == 1).all()

        transforms, coincident = relpose._hartley_normalization(np.stack([query, anchor]))
        for side, t, flags in zip((query, anchor), transforms, coincident):
            expected_t, expected_flags = mean_norm_hartley(side)
            assert t.tobytes() == expected_t.tobytes()
            assert flags.tolist() == expected_flags.tolist()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(MIN_MATCHES, 120),
        batch=st.integers(1, 70),
        duplicate_frac=st.sampled_from([0.0, 0.0, 0.5]),
    )
    def test_single_and_stacked_fits_match_the_sequential_functions(
        self, seed, n, batch, duplicate_frac
    ):
        matches = planted_matches(seed, n, 0.3, 1e-3, duplicate_frac)
        q, a = matches.query, matches.anchor
        try:
            expected = sequential_eight_point(q, a).tobytes()
        except DegenerateGeometryError as exc:
            expected = str(exc)
        try:
            actual = eight_point(q, a).tobytes()
        except DegenerateGeometryError as exc:
            actual = str(exc)
        assert actual == expected
        a_rows, b_rows = relpose._homogeneous_rows(q), relpose._homogeneous_rows(a)
        if not isinstance(expected, str):
            e = sequential_eight_point(q, a)
            squared = sequential_squared_distance(e, q, a)
            assert relpose._squared_epipolar_distance(e, a_rows, b_rows).tobytes() == squared.tobytes()

        samples = relpose.minimal_samples(np.random.default_rng(seed), batch, n)
        assert samples.tobytes() == sequential_samples(np.random.default_rng(seed), batch, n).tobytes()
        stack, status = relpose._eight_point_stack(q[samples], a[samples])
        fitted = status == 0
        distances = iter(relpose._squared_epipolar_distance(stack[fitted], a_rows, b_rows))
        for sample, e, code in zip(samples, stack, status):
            try:
                single = sequential_eight_point(q[sample], a[sample])
            except DegenerateGeometryError as exc:
                assert relpose._DEGENERATE[code] == str(exc)
                continue
            assert code == 0
            assert e.tobytes() == single.tobytes()
            assert next(distances).tobytes() == sequential_squared_distance(single, q, a).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(MIN_MATCHES, 2000),
        outlier_frac=st.floats(0.0, 0.6),
        sigma=st.sampled_from([0.0, 1e-5, 1e-4, 1e-3]),
        gate=st.floats(0.5, 8.0),
        duplicate_frac=st.sampled_from([0.0, 0.0, 0.0, 0.3]),
        max_iters=st.integers(1, 400),
        min_inliers=st.integers(MIN_MATCHES, 60),
    )
    def test_batched_loop_matches_the_sequential_loop(
        self, seed, n, outlier_frac, sigma, gate, duplicate_frac, max_iters, min_inliers
    ):
        matches = planted_matches(seed, n, outlier_frac, sigma, duplicate_frac)
        config = RansacConfig(
            threshold=max(sigma, 1e-6) * gate, max_iters=max_iters, min_inliers=min_inliers
        )
        assert_matches_sequential(matches, config, seed)

    def test_stop_inside_the_first_chunk(self):
        stats, sizes = assert_matches_sequential(
            planted_matches(1, 120), RansacConfig(), seed=5
        )
        assert stats["iterations"] < sizes[0] and len(sizes) == 1

    def test_stop_inside_a_later_chunk(self):
        # where the walk stops depends on the stream; some of these seeds
        # stop inside their third or a later chunk
        matches = planted_matches(3, 120, outlier_frac=0.3, sigma=1e-4)
        inside = []
        for seed in range(10):
            stats, sizes = assert_matches_sequential(matches, RansacConfig(threshold=5e-4), seed)
            inside.append(len(sizes) >= 3 and sum(sizes[:-1]) < stats["iterations"] < sum(sizes))
        assert any(inside)

    def test_degenerate_samples_inside_a_chunk(self):
        matches = planted_matches(5, 60, outlier_frac=0.2, sigma=1e-4, duplicate_frac=0.4)
        stats, sizes = assert_matches_sequential(matches, RansacConfig(threshold=5e-4), seed=0)
        assert 0 < stats["degenerate"] < stats["iterations"]
        assert len(sizes) > 1

    def test_degenerate_refit_is_discarded_as_the_sequential_loop_does(self, monkeypatch):
        # a hypothesis whose inliers are mostly copies of one row refits on a
        # degenerate design; that refit is discarded and the hypothesis keeps
        # its pre-refit E and mask
        matches = planted_matches(3, 60, outlier_frac=0.2, sigma=1e-4, duplicate_frac=0.4)
        config = RansacConfig(threshold=5e-4)
        degenerate = []
        refit = relpose.eight_point

        def recording_refit(query, anchor):
            try:
                return refit(query, anchor)
            except DegenerateGeometryError:
                degenerate.append(len(query))
                raise

        monkeypatch.setattr(relpose, "eight_point", recording_refit)
        e, mask = estimate_essential(matches, config, seed=0)
        monkeypatch.undo()
        assert degenerate, "no grow refit was degenerate"
        expected_e, expected_mask = sequential_essential(matches, config, seed=0)
        assert e.tobytes() == expected_e.tobytes()
        assert mask.tobytes() == expected_mask.tobytes()
        assert_matches_sequential(matches, config, seed=0)

    def test_every_sample_degenerate(self):
        matches = planted_matches(4, 40, duplicate_frac=1.0)
        stats, _ = assert_matches_sequential(matches, RansacConfig(max_iters=100), seed=1)
        assert stats["degenerate"] == stats["iterations"] == 100

    def test_min_inliers_failure(self):
        matches = planted_matches(5, 80, outlier_frac=0.9, sigma=1e-4)
        config = RansacConfig(threshold=5e-4, max_iters=300, min_inliers=40)
        with pytest.raises(NoConsensusError, match="in 300 iterations"):
            estimate_essential(matches, config, seed=2)
        assert_matches_sequential(matches, config, seed=2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.one_of(st.integers(MIN_MATCHES, 12), st.integers(MIN_MATCHES, 2000)),
        duplicate_frac=st.sampled_from([0.0, 0.0, 0.9, 1.0]),
    )
    def test_thin_refit_svd_matches_the_full_svd(self, seed, m, duplicate_frac):
        # designs of 9 or more rows take the thin SVD; the oracle's full SVD
        # must give the same E bytes or the same degeneracy error
        matches = planted_matches(seed, m, 0.3, 1e-3, duplicate_frac)
        q, a = matches.query, matches.anchor
        outcomes = []
        for fit in (sequential_eight_point, eight_point):
            try:
                outcomes.append(fit(q, a).tobytes())
            except DegenerateGeometryError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        duplicates=st.integers(0, 3),
    )
    def test_qr_null_vector_matches_the_svd(self, seed, scale, duplicates):
        # the last column of the complete Q of an (9, 8) transposed design
        # spans the null space the SVD finds, and a sample with repeated
        # rows is flagged exactly when the SVD's 8th singular value vanishes
        rng = np.random.default_rng(seed)
        designs = rng.normal(scale=scale, size=(16, 8, 9))
        for _ in range(duplicates):
            b, i, j = rng.integers(16), *rng.choice(8, 2, replace=False)
            designs[b, j] = designs[b, i]
        q, r = np.linalg.qr(np.swapaxes(designs, -1, -2), mode="complete")
        diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
        qr_flags = diag.min(axis=-1) < 1e-10 * diag.max(axis=-1)
        _, svals, vt = np.linalg.svd(designs)
        svd_flags = svals[:, 7] < 1e-10 * svals[:, 0]
        assert qr_flags.tolist() == svd_flags.tolist()
        repeated = [len({row.tobytes() for row in d}) < 8 for d in designs]
        assert svd_flags.tolist() == repeated
        for null, v, flagged in zip(q[..., -1], vt[:, -1], qr_flags):
            if not flagged:
                sign = np.sign(null @ v)
                np.testing.assert_allclose(null, sign * v, rtol=0, atol=1e-12)

    def test_duplicate_row_samples_are_flagged_as_the_svd_flags_them(self):
        # the same normalized designs, rank-tested by the full SVD
        matches = planted_matches(5, 40, sigma=1e-4, duplicate_frac=0.4)
        samples = relpose.minimal_samples(np.random.default_rng(0), 400, len(matches))
        _, status = relpose._eight_point_stack(matches.query[samples], matches.anchor[samples])
        t_a, _ = relpose._hartley_normalization(matches.query[samples])
        t_b, _ = relpose._hartley_normalization(matches.anchor[samples])
        qa = matches.query[samples] * t_a[:, None, 0, 0, None] + t_a[:, None, :2, 2]
        qb = matches.anchor[samples] * t_b[:, None, 0, 0, None] + t_b[:, None, :2, 2]
        design = np.concatenate(
            [qa[..., :, None] * qb[..., None, :], qa[..., :, None]], axis=-1
        ).reshape(len(samples), 8, 6)
        design = np.concatenate([design, qb, np.ones((len(samples), 8, 1))], axis=-1)
        svals = np.linalg.svd(design, compute_uv=False)
        svd_flags = svals[:, 7] < 1e-10 * svals[:, 0]
        assert 0 < svd_flags.sum() < len(samples)
        assert (status != 0).tolist() == svd_flags.tolist()  # coincident sets included

    def test_minimal_samples_are_uniform_subsets(self):
        # 8 distinct indices per row, and each of the C(10, 8) = 45 subsets
        # of 10 matches is drawn equally often: the chi-square statistic
        # stays under 87.68, its 1 - 1e-4 quantile at 44 degrees of freedom
        rng = np.random.default_rng(123)
        samples = relpose.minimal_samples(rng, 45 * 400, 10)
        assert samples.shape == (45 * 400, MIN_MATCHES)
        ordered = np.sort(samples, axis=1)
        assert np.all(np.diff(ordered, axis=1) > 0)
        assert ordered.min() >= 0 and ordered.max() <= 9
        subsets = {s: k for k, s in enumerate(itertools.combinations(range(10), 8))}
        counts = np.bincount([subsets[tuple(row)] for row in ordered.tolist()], minlength=45)
        assert counts.min() > 0
        assert float(((counts - 400.0) ** 2 / 400.0).sum()) < 87.68

    @pytest.mark.parametrize("n", [500, 2000, 9000])
    def test_chunks_stay_within_the_row_budget(self, n):
        matches = planted_matches(6, n, outlier_frac=0.6, sigma=1e-4)
        _, sizes = assert_matches_sequential(
            matches, RansacConfig(threshold=5e-4, max_iters=40), seed=4
        )
        assert sizes[0] == max(1, min(8, CHUNK_ROWS // n))
        assert max(sizes) == max(1, CHUNK_ROWS // n)


# ------------------------------------------------------------ decomposition


class TestDecomposeEssential:
    def test_constructed_case_contains_truth(self):
        candidates = decomposed(essential_of(RelativePoseEstimate(np.eye(3), X)))
        gaps = [
            geodesic_angle(c.rotation, np.eye(3)) + np.linalg.norm(c.direction - X)
            for c in candidates
        ]
        assert min(gaps) < 1e-9

    def test_rotations_are_proper(self, rng):
        for _ in range(100):
            e = one_vector_skew(random_unit(rng)) @ random_rotation(rng)
            for c in decomposed(e):
                assert abs(np.linalg.det(c.rotation) - 1.0) < 1e-9

    def test_candidates_reproduce_essential(self, rng):
        for _ in range(50):
            e = normalized(one_vector_skew(random_unit(rng)) @ random_rotation(rng))
            for c in decomposed(e):
                rebuilt = essential_of(c)
                assert essential_gap(rebuilt, e) < 1e-8

    def test_four_distinct_candidates(self, rng):
        e = one_vector_skew(random_unit(rng)) @ random_rotation(rng)
        candidates = decomposed(e)
        assert len(candidates) == 4


def essential_stack(seed, k, noise):
    """(k, 3, 3) essential matrices of random relative poses at random
    scales, some re-projected from a noisy fit as RANSAC leaves them."""
    rng = np.random.default_rng(seed)
    es = np.array([one_vector_skew(random_unit(rng)) @ random_rotation(rng) for _ in range(k)])
    es *= rng.uniform(0.1, 10.0, (k, 1, 1))
    if noise:
        u, _, vt = np.linalg.svd(es + rng.normal(scale=noise, size=es.shape))
        es = u @ np.diag([1.0, 1.0, 0.0]) @ vt
    return es


class TestStackedDecomposition:
    """``decompose_essentials`` against the per-matrix decomposition of
    ``conftest.per_matrix_decompose_essential``, bit for bit."""

    @staticmethod
    def shown(candidates):
        return [(c.rotation.tobytes(), c.direction.tobytes()) for c in candidates]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 60),
           noise=st.sampled_from([0.0, 1e-6, 1e-3]))
    def test_rows_are_the_per_matrix_decomposition(self, seed, k, noise):
        es = essential_stack(seed, k, noise)
        rotations, directions = decompose_essentials(es)
        for e, pair_rotations, direction in zip(es, rotations, directions):
            expected = self.shown(per_matrix_decompose_essential(e))
            assert self.shown(candidates_of(pair_rotations, direction)) == expected

    @pytest.mark.parametrize("bad, message", [
        (np.zeros((3, 3)), "zero essential matrix"),
        (np.eye(3), "not an essential matrix"),
    ])
    def test_first_bad_row_raises_as_one_matrix_would(self, bad, message):
        es = essential_stack(3, 4, 0.0)
        es[2] = bad
        with pytest.raises(ValueError, match=message) as stacked:
            decompose_essentials(es)
        with pytest.raises(ValueError) as single:
            per_matrix_decompose_essential(bad)
        assert str(stacked.value) == str(single.value)


# ---------------------------------------------------------------- cheirality


class TestCheiralitySelect:
    def test_scene_vote_matches_ground_truth(self):
        matches, rel = two_view_matches(seed=7)
        candidates = decomposed(essential_of(rel))
        chosen = cheirality_select(candidates, matches)
        assert geodesic_angle(chosen.rotation, rel.rotation) < 1e-6
        np.testing.assert_allclose(chosen.direction, rel.direction, atol=1e-6)

    def test_round_trip_through_estimation(self):
        matches, rel = two_view_matches(seed=8)
        e, mask = estimate_essential(matches, seed=0)
        chosen = cheirality_select(decomposed(e), matches.subset(mask))
        assert geodesic_angle(chosen.rotation, rel.rotation) < 1e-6
        np.testing.assert_allclose(chosen.direction, rel.direction, atol=1e-6)

    def test_epipole_only_match_is_unresolvable(self):
        # a point on the baseline projects to the epipole in both views, so
        # every candidate triangulation is parallel and no vote can be cast
        rel = RelativePoseEstimate(np.eye(3), X)
        candidates = decomposed(essential_of(rel))
        epipole = np.array([[1.0, 0.0]])
        match = MatchSet(epipole, epipole)
        with pytest.raises(
            (NoValidPoseError, AmbiguousCheiralityError, DegenerateGeometryError)
        ):
            cheirality_select(candidates, match)

    def test_small_mismatch_fraction_still_wins(self):
        matches, rel = two_view_matches(seed=9, n_points=200)
        q = matches.query.copy()
        a = matches.anchor.copy()
        # corrupt 1% of the matches (2 of 200) with swapped partners
        a[[0, 1]] = a[[1, 0]]
        noisy = MatchSet(q, a)
        candidates = decomposed(essential_of(rel))
        chosen = cheirality_select(candidates, noisy)
        assert geodesic_angle(chosen.rotation, rel.rotation) < 1e-6

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        rival=st.sampled_from([None, 1, 2, 3]),
        rival_gap=st.sampled_from([0, 0, 1, -1]),
        junk_frac=st.sampled_from([0.0, 0.0, 0.3, 1.0]),
        parallel_frac=st.sampled_from([0.0, 0.0, 0.5, 1.0]),
        parallel_tilt=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
        baseline=st.sampled_from([1e-3, 0.5, 2.0]),
    )
    def test_shared_rays_vote_as_per_candidate_rays(
        self, seed, n, rival, rival_gap, junk_frac, parallel_frac, parallel_tilt, baseline
    ):
        # n points in front of both cameras under candidate 0 and, with a
        # rival, n + rival_gap under another candidate of the same E (gap 0
        # ties the vote); parallel rows see a point at infinity, tilted by
        # parallel_tilt; junk rows replace anchor features
        rng = np.random.default_rng(seed)
        rel = RelativePoseEstimate(
            rotvec_to_rotation(rng.normal(scale=0.2, size=3)), random_unit(rng)
        )
        candidates = decomposed(essential_of(rel))

        def in_front(candidate, m):
            points = rng.uniform(-10.0, 10.0, (50 * m + 400, 3))
            in_anchor = (points - baseline * candidate.direction) @ candidate.rotation
            keep = (points[:, 2] > 0.5) & (in_anchor[:, 2] > 0.5)
            return points[keep][:m], in_anchor[keep][:m]

        sets = [in_front(candidates[0], n)]
        if rival is not None:
            sets.append(in_front(candidates[rival], max(n + rival_gap, 0)))
        points = np.concatenate([p for p, _ in sets])
        in_anchor = np.concatenate([a for _, a in sets])
        query = points[:, :2] / points[:, 2:]
        far = rng.random(len(points)) < parallel_frac
        in_anchor[far] = np.column_stack([query[far], np.ones(int(far.sum()))]) @ rel.rotation
        in_anchor[far, :2] += rng.normal(scale=parallel_tilt, size=(int(far.sum()), 2))
        anchor = in_anchor[:, :2] / in_anchor[:, 2:]
        junk = rng.random(len(points)) < junk_frac
        anchor[junk] = rng.uniform(-0.6, 0.6, size=(int(junk.sum()), 2))
        matches = MatchSet(query, anchor)

        def outcome(select):
            try:
                chosen = select(candidates, matches)
                return [c is chosen for c in candidates]
            except MvlocError as exc:
                return type(exc), str(exc)

        with np.errstate(invalid="ignore"):
            assert outcome(cheirality_select) == outcome(per_candidate_cheirality_select)

    @pytest.mark.parametrize(
        "counts",
        [(3, 3, 0, 0), (0, 4, 0, 4), (2, 0, 2, 0), (5, 0, 3, 3), (2, 2, 2, 2), (0, 1, 1, 0)],
    )
    @pytest.mark.parametrize("order", ["as decomposed", "reversed", "two"])
    def test_tied_votes_decide_as_per_candidate_votes(self, counts, order):
        # counts[c] matches in front of both cameras under candidate c only:
        # ties at the top, ties below a clear winner, and four-way ties
        rng = np.random.default_rng(sum(counts))
        rel = RelativePoseEstimate(
            rotvec_to_rotation(rng.normal(scale=0.2, size=3)), random_unit(rng)
        )
        candidates = decomposed(essential_of(rel))
        points, in_anchor = [], []
        for candidate, m in zip(candidates, counts):
            drawn = rng.uniform(-10.0, 10.0, (50 * m + 400, 3))
            seen = (drawn - candidate.direction) @ candidate.rotation
            keep = (drawn[:, 2] > 0.5) & (seen[:, 2] > 0.5)
            points.append(drawn[keep][:m])
            in_anchor.append(seen[keep][:m])
        points, in_anchor = np.concatenate(points), np.concatenate(in_anchor)
        matches = MatchSet(points[:, :2] / points[:, 2:], in_anchor[:, :2] / in_anchor[:, 2:])
        assert [per_candidate_depth_signs(c, matches) for c in candidates] == list(counts)
        chosen = {
            "as decomposed": candidates,
            "reversed": candidates[::-1],
            "two": [candidates[1], candidates[3]],
        }[order]

        def outcome(select):
            try:
                return chosen.index(select(chosen, matches))
            except MvlocError as exc:
                return type(exc), str(exc)

        assert outcome(cheirality_select) == outcome(per_candidate_cheirality_select)

    def test_empty_matches_rejected(self):
        candidates = decomposed(essential_of(RelativePoseEstimate(np.eye(3), X)))
        with pytest.raises(InsufficientDataError):
            cheirality_select(candidates, MatchSet(np.zeros((0, 2)), np.zeros((0, 2))))


# ------------------------------------------------------------- triangulation


def one_view_pair_midpoint(pose_a, pose_b, feat_a, feat_b):
    """Two-view midpoint of one view pair by ``view_pair_midpoints``;
    DegenerateGeometryError where that pair is degenerate."""
    (midpoint,), (degenerate,) = view_pair_midpoints(
        np.array([[pose_a.center()], [pose_b.center()]]),
        np.array([[pose_a.rotation], [pose_b.rotation]]),
        np.array([[feat_a], [feat_b]], dtype=np.float64),
    )
    if degenerate:
        raise DegenerateGeometryError("rays are parallel or share an origin")
    return midpoint


class TestMidpointTriangulate:
    def test_symmetric_exact_case(self):
        # centers (+-1, 0, 0), both looking down +z; point at (0,0,4)
        pose_a = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        pose_b = Pose(np.eye(3), np.array([-1.0, 0.0, 0.0]))
        fa = project(pose_a, [0.0, 0.0, 4.0])
        fb = project(pose_b, [0.0, 0.0, 4.0])
        point = one_view_pair_midpoint(pose_a, pose_b, fa, fb)
        np.testing.assert_allclose(point, [0.0, 0.0, 4.0], atol=1e-10)

    def test_perturbed_feature_lands_on_analytic_midpoint(self):
        pose_a = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        pose_b = Pose(np.eye(3), np.array([-1.0, 0.0, 0.0]))
        fa = project(pose_a, [0.0, 0.0, 4.0]) + np.array([1e-3, 0.0])
        fb = project(pose_b, [0.0, 0.0, 4.0])
        point = one_view_pair_midpoint(pose_a, pose_b, fa, fb)

        # closed-form closest points of the two viewing rays
        oa, ob = pose_a.center(), pose_b.center()
        da = np.array([fa[0], fa[1], 1.0])
        da /= np.linalg.norm(da)
        db = np.array([fb[0], fb[1], 1.0])
        db /= np.linalg.norm(db)
        w = oa - ob
        a_dd = da @ db
        s = (a_dd * (db @ w) - (da @ w)) / (1.0 - a_dd**2)
        t = ((db @ w) - a_dd * (da @ w)) / (1.0 - a_dd**2)
        expected = 0.5 * ((oa + s * da) + (ob + t * db))
        np.testing.assert_allclose(point, expected, atol=1e-10)
        assert np.linalg.norm(point - np.array([0.0, 0.0, 4.0])) > 1e-4

    def test_identical_centers_degenerate(self):
        pose = Pose(np.eye(3), np.zeros(3))
        with pytest.raises(DegenerateGeometryError):
            one_view_pair_midpoint(pose, pose, np.zeros(2), np.zeros(2))
