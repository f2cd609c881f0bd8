"""Pairwise anchor RANSAC and the decoupled pose assembly."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    consistent_observations,
    observation_stack,
    one_shot_consensus_scores,
    one_shot_hypotheses,
    one_shot_inlier_tests,
    one_shot_quaternion_dots,
    one_shot_ray_terms,
    random_pose,
    random_rotation,
    random_unit,
    scrambled,
    stable_geodesic_deg,
    with_relative,
)

from mvloc import (
    AnchorConsensus,
    InsufficientDataError,
    NoConsensusError,
    ObservationStack,
    Pose,
    anchor_ransac,
    decoupled_pose,
    geodesic_angle,
)
from mvloc import _kernels, consensus
from mvloc.geometry import quat_to_rotation, relative_poses, rotvec_to_rotation

X = np.array([1.0, 0.0, 0.0])


def half_angle_threshold_deg(target):
    """The largest theta (degrees) with cos(radians(theta) / 2) >= target,
    computed as anchor_ransac computes its rotation threshold."""
    lo, hi = 0.0, 360.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if np.cos(np.radians(mid) / 2.0) >= target:
            lo = mid
        else:
            hi = mid


def joined(*stacks):
    """One stack of the rows of ``stacks``, in order."""
    arrays = ("anchor_rotations", "anchor_translations", "rel_rotations", "rel_directions")
    return ObservationStack(
        [aid for stack in stacks for aid in stack.anchor_ids],
        *(np.concatenate([getattr(stack, name) for stack in stacks]) for name in arrays),
    )


def pair_pose(stack):
    """The query pose hypothesis of the first two rows of a stack, as
    anchor_ransac forms it for a pair, or None when their rays are parallel
    or share an origin."""
    (valid,), centers, quats = _kernels.pair_hypotheses(
        stack.centers, stack.ray_directions, stack.quats, np.array([[0, 1]])
    )
    return consensus._hypothesis_pose(centers[0], quats[0]) if valid else None


# ------------------------------------------------------------ pair hypothesis


class TestPairHypothesis:
    def test_zero_noise_pair_recovers_pose(self, rng):
        for _ in range(10):
            obs, query = consistent_observations(rng, 2)
            pose = pair_pose(obs)
            np.testing.assert_allclose(pose.center(), query.center(), atol=1e-8)
            assert stable_geodesic_deg(pose.rotation, query.rotation) < 1e-6

    def test_intersecting_rays_hit_intersection(self, rng):
        obs, query = consistent_observations(rng, 2)
        pose = pair_pose(obs)
        np.testing.assert_allclose(pose.center(), query.center(), atol=1e-9)

    def test_rotation_noise_stays_bounded(self, rng):
        # two inputs each 2 degrees off cannot average further than 2 degrees
        for _ in range(20):
            obs, query = consistent_observations(rng, 2)
            wobbled = [
                rotvec_to_rotation(np.deg2rad(2.0) * random_unit(rng)) @ r
                for r in obs.rel_rotations
            ]
            pose = pair_pose(with_relative(obs, wobbled, obs.rel_directions))
            assert geodesic_angle(pose.rotation, query.rotation) <= 2.0 + 1e-9

    def test_parallel_rays_rejected(self):
        # backward direction +x from both anchors
        anchors = [Pose(np.eye(3), np.zeros(3)), Pose(np.eye(3), np.array([0.0, -1.0, 0.0]))]
        stack = observation_stack(["a", "b"], anchors, [np.eye(3)] * 2, [-X] * 2)
        assert pair_pose(stack) is None


# ------------------------------------------------------------- anchor RANSAC


class TestAnchorRansac:
    def test_clean_set_is_fully_inlying(self, rng):
        obs, query = consistent_observations(rng, 20)
        consensus = anchor_ransac(obs)
        assert consensus.inlier_count == 20
        assert consensus.inlier_ids == frozenset(obs.anchor_ids)

    def test_planted_outliers_are_excluded(self, rng):
        obs, query = consistent_observations(rng, 20)
        bad_ids = {"a3", "a7", "a11", "a15", "a19"}
        mixed = scrambled(obs, rng, lambda k: obs.anchor_ids[k] in bad_ids)
        consensus = anchor_ransac(mixed, seed=0)
        assert consensus.inlier_ids == frozenset(obs.anchor_ids) - bad_ids

    def test_minimal_pair(self, rng):
        obs, _ = consistent_observations(rng, 2)
        consensus = anchor_ransac(obs)
        assert consensus.inlier_count == 2
        expected = pair_pose(obs)
        np.testing.assert_allclose(
            consensus.hypothesis_pose.center(), expected.center(), atol=1e-12
        )
        assert consensus.pair_ids == obs.anchor_ids

    def test_single_observation_rejected(self, rng):
        obs, _ = consistent_observations(rng, 1)
        with pytest.raises(InsufficientDataError):
            anchor_ransac(obs)

    def test_irreconcilable_pair_has_no_consensus(self, rng):
        obs, _ = consistent_observations(rng, 2)
        # pull the two rotation estimates 120 degrees apart so neither
        # passes the 10 degree gate against their own average
        twist = rotvec_to_rotation(np.deg2rad(120.0) * X)
        twisted = with_relative(
            obs, [obs.rel_rotations[0], twist @ obs.rel_rotations[1]], obs.rel_directions
        )
        with pytest.raises(NoConsensusError):
            anchor_ransac(twisted)

    def test_exhaustive_mode_is_deterministic(self, rng):
        obs, _ = consistent_observations(rng, 12)
        mixed = scrambled(obs, rng, lambda k: k in (2, 5))
        a = anchor_ransac(mixed)
        b = anchor_ransac(mixed)
        assert a.inlier_ids == b.inlier_ids
        assert a.pair_ids == b.pair_ids

    def test_tied_groups_resolve_by_anchor_id_in_any_order(self, rng):
        # two groups of three anchors, each consistent with its own query
        # pose: every pair within a group scores 3, and the group holding
        # the smallest anchor id wins whatever the order of the observations
        first, _ = consistent_observations(rng, 3)
        second, _ = consistent_observations(rng, 3)
        second = with_relative(
            second, second.rel_rotations, second.rel_directions, anchor_ids=["b0", "b1", "b2"]
        )
        both = joined(first, second)
        for order in (both, joined(second, first), both.take(np.arange(6)[::-1])):
            winner = anchor_ransac(order)
            assert winner.inlier_ids == {"a0", "a1", "a2"}
            assert set(winner.pair_ids) == {"a0", "a1"}

    def test_sampled_mode_is_seeded(self, rng, monkeypatch):
        # 66 pairs of 12 observations, 30 of them sampled
        monkeypatch.setattr(consensus, "MAX_HYPOTHESES", 30)
        obs, _ = consistent_observations(rng, 12)
        a = anchor_ransac(obs, seed=5)
        b = anchor_ransac(obs, seed=5)
        assert a.inlier_ids == b.inlier_ids
        np.testing.assert_array_equal(
            a.hypothesis_pose.rotation, b.hypothesis_pose.rotation
        )

    def test_consistent_addition_never_shrinks_consensus(self, rng):
        obs, query = consistent_observations(rng, 8)
        base = anchor_ransac(obs).inlier_count
        extra_anchor = random_pose(rng)
        extra = observation_stack(["extra"], [extra_anchor], *relative_poses(
            query, extra_anchor.rotation[None], extra_anchor.translation[None]
        ))
        grown = anchor_ransac(joined(obs, extra)).inlier_count
        assert grown >= base

    def test_winning_inliers_revalidate(self, rng):
        # the inlier set is exactly the observations whose ray points at the
        # winning hypothesis's center within 5 degrees and whose chained
        # rotation is within 10 degrees of its rotation
        obs, _ = consistent_observations(rng, 15)
        mixed = scrambled(obs, rng, lambda k: k in (1, 6, 9))
        consensus = anchor_ransac(mixed, seed=2)
        pose = consensus.hypothesis_pose
        passing = set()
        for aid, origin, direction, chained in zip(
            mixed.anchor_ids, mixed.centers, mixed.ray_directions, mixed.chained_rotations
        ):
            to_center = pose.center() - origin
            cos_angle = direction @ to_center / np.linalg.norm(to_center)
            ray_deg = np.degrees(np.arccos(np.clip(cos_angle, -1.0, 1.0)))
            if ray_deg <= 5.0 and geodesic_angle(chained, pose.rotation) <= 10.0:
                passing.add(aid)
        assert consensus.inlier_ids == passing
        assert consensus.inlier_count == len(passing) == 12

    def test_winner_is_its_own_scored_row_at_boundary_thresholds(self):
        # rotation thresholds on (and one ulp above) single cells' |q . q'|
        # put those cells at the edge of the inlier test: the winner's inlier
        # set must still be its own scored row, not a second test's
        cos_ray = np.cos(np.radians(5.0))
        pairs = np.column_stack(np.triu_indices(6, 1))
        calls = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            obs, _ = consistent_observations(rng, 6)
            origins, dirs, quats = obs.centers, obs.ray_directions, obs.quats
            _, _, hyp_q = one_shot_hypotheses(origins, dirs, quats, pairs)
            dots = np.abs(one_shot_quaternion_dots(hyp_q, quats))
            for value in rng.choice(dots.ravel(), size=15, replace=False):
                for target in (value, np.nextafter(value, 2.0)):
                    theta_rot = half_angle_threshold_deg(target)
                    cos_half_rot = np.cos(np.radians(theta_rot) / 2.0)
                    counts = one_shot_consensus_scores(
                        origins, dirs, quats, pairs, cos_ray, cos_half_rot
                    )
                    if counts.max() < 2:
                        with pytest.raises(NoConsensusError):
                            anchor_ransac(obs, theta_rot_deg=theta_rot)
                        continue
                    winner = anchor_ransac(obs, theta_rot_deg=theta_rot)
                    calls += 1
                    best = int(np.argmax(counts))
                    _, ok = one_shot_inlier_tests(
                        origins, dirs, quats, pairs[best:best + 1], cos_ray, cos_half_rot
                    )
                    assert winner.inlier_count == counts.max()
                    assert set(winner.pair_ids) <= winner.inlier_ids
                    assert winner.inlier_ids == {obs.anchor_ids[k] for k in np.flatnonzero(ok[0])}
        assert calls > 300

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(151, 260),
        outliers=st.sampled_from([0.0, 0.2, 0.4]),
    )
    def test_reversed_observations_give_the_same_consensus(self, seed, k, outliers):
        # above 150 observations the pairs are sampled; the sample, like the
        # pairs' orientation and ties, follows anchor ids, not list order
        rng = np.random.default_rng(seed)
        obs, _ = consistent_observations(rng, k)
        obs = scrambled(obs, rng, lambda _: rng.random() < outliers)
        forward = anchor_ransac(obs, seed=3)
        backward = anchor_ransac(obs.take(np.arange(k)[::-1]), seed=3)
        assert forward.inlier_ids == backward.inlier_ids
        assert forward.pair_ids == backward.pair_ids
        for a, b in ((forward.hypothesis_pose.rotation, backward.hypothesis_pose.rotation),
                     (forward.hypothesis_pose.translation, backward.hypothesis_pose.translation)):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.one_of(st.integers(2, 40), st.integers(151, 260)),
        dissent=st.sampled_from(["none", "one", "fifth"]),
    )
    def test_consensus_is_the_first_argmax_of_every_pair_score(self, seed, k, dissent):
        # unanimous sets stop scoring after the first block, a dissenting
        # anchor can keep any pair from being unanimous; from 151 anchors
        # the pairs are sampled (2000 of them, which keeps the one-shot
        # oracle's (P, K, 3) temporaries small)
        rng = np.random.default_rng(seed)
        obs, _ = consistent_observations(rng, k)
        if dissent == "one":
            i = int(rng.integers(k))
            obs = scrambled(obs, rng, lambda m: m == i)
        elif dissent == "fifth":
            obs = scrambled(obs, rng, lambda _: rng.random() < 0.2)
        ids = obs.anchor_ids
        ordered = obs.take(sorted(range(k), key=lambda m: (len(ids[m]), ids[m])))
        origins, dirs, quats = ordered.centers, ordered.ray_directions, ordered.quats
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(consensus, "MAX_HYPOTHESES", 2000)
            pairs = consensus._candidate_pairs(k, 5)
            cos_ray, cos_rot = np.cos(np.radians(5.0)), np.cos(np.radians(10.0) / 2.0)
            scores = one_shot_consensus_scores(origins, dirs, quats, pairs, cos_ray, cos_rot)
            obs = obs.take(rng.permutation(k))
            if scores.max() < 2:
                with pytest.raises(NoConsensusError):
                    anchor_ransac(obs, seed=5)
                return
            winner = anchor_ransac(obs, seed=5)
        best = int(np.argmax(scores))
        _, centers, hyp_q = one_shot_hypotheses(origins, dirs, quats, pairs[best:best + 1])
        _, ok = one_shot_inlier_tests(
            origins, dirs, quats, pairs[best:best + 1], cos_ray, cos_rot
        )
        rotation = quat_to_rotation(hyp_q[0])
        i, j = pairs[best]
        assert winner == AnchorConsensus(
            inlier_ids=frozenset(ordered.anchor_ids[m] for m in np.flatnonzero(ok[0])),
            hypothesis_pose=Pose(rotation, -rotation @ centers[0]),
            inlier_count=int(scores[best]),
            pair_ids=(ordered.anchor_ids[i], ordered.anchor_ids[j]),
        )

    def test_default_seed_repeats_a_sampled_consensus(self):
        # 200 anchors: 19900 pairs, of which MAX_HYPOTHESES are sampled
        rng = np.random.default_rng(12)
        obs, _ = consistent_observations(rng, 200)
        obs = scrambled(obs, rng, lambda _: rng.random() < 0.3)
        runs = [anchor_ransac(obs) for _ in range(5)]
        assert len({run.pair_ids for run in runs}) == 1
        assert all(run == runs[0] for run in runs)


# -------------------------------------------------------------- decoupled


class TestDecoupledPose:
    def test_zero_noise_recovery(self, rng):
        obs, query = consistent_observations(rng, 8)
        pose = decoupled_pose(obs)
        np.testing.assert_allclose(pose.center(), query.center(), atol=1e-8)
        assert stable_geodesic_deg(pose.rotation, query.rotation) < 1e-6

    def test_rotation_ignores_translation_directions(self, rng):
        obs, _ = consistent_observations(rng, 8)
        swapped = with_relative(obs, obs.rel_rotations, [random_unit(rng) for _ in range(8)])
        a = decoupled_pose(obs)
        b = decoupled_pose(swapped)
        np.testing.assert_array_equal(a.rotation, b.rotation)

    def test_center_ignores_relative_rotations(self, rng):
        obs, _ = consistent_observations(rng, 8)
        rotations, directions = [], []
        for rel_rotation, rel_direction in zip(obs.rel_rotations, obs.rel_directions):
            t_kq = -rel_rotation.T @ rel_direction
            rotations.append(random_rotation(rng))
            directions.append(-rotations[-1] @ t_kq)
        replaced = with_relative(obs, rotations, directions)
        a = decoupled_pose(obs)
        b = decoupled_pose(replaced)
        np.testing.assert_allclose(b.center(), a.center(), atol=1e-9)


# ----------------------------------------------------------- blocked scoring


def pair_scene(rng, k, spread):
    """Observation arrays of k anchors whose center rays all pass near one
    query center and whose chained rotations sit near one quaternion (the
    sign of each drawn at random), with ``spread`` noise on both."""
    center = rng.normal(size=3)
    origins = center + rng.normal(scale=3.0, size=(k, 3))
    dirs = center - origins + rng.normal(scale=spread, size=(k, 3))
    quats = rng.normal(size=4) + rng.normal(scale=spread, size=(k, 4))
    quats *= np.where(rng.random(k) < 0.5, -1.0, 1.0)[:, None]
    return center, origins, dirs, quats


def assert_scored_prefix(actual, expected, pairs, k):
    """``actual`` is the prefix of the one-shot ``expected`` that ends with
    the block holding the first unanimous valid pair (a count of k), or all
    of ``expected`` when no pair is unanimous."""
    rows = max(1, _kernels.BLOCK_CELLS // k)
    unanimous = np.flatnonzero(expected == k)
    stop = len(pairs) if len(unanimous) == 0 else min(len(pairs), (unanimous[0] // rows + 1) * rows)
    assert actual.dtype == expected.dtype
    assert len(actual) == stop
    assert actual.tobytes() == expected[:len(actual)].tobytes()


class TestBlockedScores:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.one_of(st.integers(2, 12), st.integers(2, 260)),
        spread=st.sampled_from([0.0, 1e-3, 0.05, 0.2]),
        layout=st.sampled_from(["all", "exact", "one-over", "random"]),
        blocks=st.integers(1, 4),
        parallel=st.integers(0, 3),
        coincident=st.integers(0, 3),
        center_on_origin=st.booleans(),
        theta_ray=st.floats(0.5, 20.0),
        theta_rot=st.floats(0.5, 30.0),
    )
    def test_blocks_count_as_the_one_shot_scores(
        self, seed, k, spread, layout, blocks, parallel, coincident, center_on_origin,
        theta_ray, theta_rot,
    ):
        rng = np.random.default_rng(seed)
        center, origins, dirs, quats = pair_scene(rng, k, spread)
        for _ in range(parallel):  # parallel and anti-parallel rays
            i, j = rng.integers(k, size=2)
            dirs[j] = dirs[i] * rng.choice([-1.0, 2.0])
        for _ in range(coincident):
            i, j = rng.integers(k, size=2)
            origins[j] = origins[i]
        if center_on_origin:  # an anchor at the query center: dist < 1e-12
            origins[rng.integers(k)] = center
            dirs[:] = center - origins
            dirs[np.all(dirs == 0.0, axis=1)] = X
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        quats /= np.linalg.norm(quats, axis=1, keepdims=True)

        iu, ju = np.triu_indices(k, 1)
        all_pairs = np.column_stack([iu, ju])
        rows = max(2, _kernels.BLOCK_CELLS // k)
        size = {
            "all": len(all_pairs),
            "exact": blocks * rows,
            "one-over": blocks * rows + 1,
            "random": int(rng.integers(1, 4 * rows)),
        }[layout]
        pairs = all_pairs if layout == "all" else all_pairs[rng.integers(len(all_pairs), size=size)]
        thresholds = np.cos(np.radians(theta_ray)), np.cos(np.radians(theta_rot) / 2.0)

        expected = one_shot_consensus_scores(origins, dirs, quats, pairs, *thresholds)
        actual = _kernels.consensus_scores(origins, dirs, quats, pairs, *thresholds)
        assert_scored_prefix(actual, expected, pairs, k)

    @pytest.mark.parametrize("extra", [1, 2, 53])
    def test_rotation_test_rounds_as_the_one_shot_product(self, extra):
        # thresholds at (and one ulp above) the one-shot |q . q'| of cells in
        # the last block flip a count on any change of rounding there, a
        # one-row last block included
        k = 150
        _, origins, dirs, quats = pair_scene(np.random.default_rng(extra), k, 0.05)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        quats /= np.linalg.norm(quats, axis=1, keepdims=True)
        iu, ju = np.triu_indices(k, 1)
        pairs = np.column_stack([iu, ju])[: 3 * (_kernels.BLOCK_CELLS // k) + extra]
        _, _, hyp_q = one_shot_hypotheses(origins, dirs, quats, pairs)
        dots = np.abs(one_shot_quaternion_dots(hyp_q, quats))
        for value in dots[-1, :40]:
            for threshold in (value, np.nextafter(value, 2.0)):
                expected = one_shot_consensus_scores(origins, dirs, quats, pairs, -1.0, threshold)
                actual = _kernels.consensus_scores(origins, dirs, quats, pairs, -1.0, threshold)
                assert_scored_prefix(actual, expected, pairs, k)

    def test_ray_test_rounds_as_the_one_shot_terms(self):
        # for a cell, the largest cos_ray that still passes it in the
        # one-shot form (and the next float up) flips a count on any change
        # of rounding in that cell's distance or along-ray component
        k = 150
        _, origins, dirs, quats = pair_scene(np.random.default_rng(9), k, 0.05)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        quats /= np.linalg.norm(quats, axis=1, keepdims=True)
        iu, ju = np.triu_indices(k, 1)
        pairs = np.column_stack([iu, ju])[: 2 * (_kernels.BLOCK_CELLS // k) + 7]
        _, centers, _ = one_shot_hypotheses(origins, dirs, quats, pairs)
        dist, along = one_shot_ray_terms(origins, dirs, centers)
        cells = np.random.default_rng(10).integers((len(pairs), k), size=(60, 2))
        for p, q in cells:
            boundary = along[p, q] / dist[p, q]
            while not along[p, q] >= boundary * dist[p, q]:
                boundary = np.nextafter(boundary, -2.0)
            while along[p, q] >= np.nextafter(boundary, 2.0) * dist[p, q]:
                boundary = np.nextafter(boundary, 2.0)
            for cos_ray in (boundary, np.nextafter(boundary, 2.0)):
                expected = one_shot_consensus_scores(origins, dirs, quats, pairs, cos_ray, -1.0)
                actual = _kernels.consensus_scores(origins, dirs, quats, pairs, cos_ray, -1.0)
                assert_scored_prefix(actual, expected, pairs, k)

    @pytest.mark.parametrize("k", [193, 204, 260])
    def test_sampled_consensus_counts_as_the_one_shot_scores(self, k, monkeypatch):
        # above 150 observations anchor_ransac samples its pairs; every
        # sampled pair counts as in the one-shot pass, also at thresholds
        # on (and one ulp above) the dots of cells in blocks' last rows
        rng = np.random.default_rng(k)
        obs, _ = consistent_observations(rng, k)
        obs = scrambled(obs, rng, lambda _: rng.random() < 0.2)
        monkeypatch.setattr(consensus, "MAX_HYPOTHESES", 2000)
        origins, dirs, quats = obs.centers, obs.ray_directions, obs.quats  # ids a0 < a1 < ...
        pairs = consensus._candidate_pairs(k, 7)
        assert len(pairs) == 2000
        cos_ray, cos_rot = np.cos(np.radians(5.0)), np.cos(np.radians(10.0) / 2.0)
        expected = one_shot_consensus_scores(origins, dirs, quats, pairs, cos_ray, cos_rot)
        actual = _kernels.consensus_scores(origins, dirs, quats, pairs, cos_ray, cos_rot)
        assert actual.tobytes() == expected.tobytes()
        winner = anchor_ransac(obs, seed=7)
        i, j = pairs[int(np.argmax(expected))]
        assert winner.pair_ids == (obs.anchor_ids[i], obs.anchor_ids[j])

        _, _, hyp_q = one_shot_hypotheses(origins, dirs, quats, pairs)
        dots = np.abs(one_shot_quaternion_dots(hyp_q, quats))
        rows = _kernels.BLOCK_CELLS // k
        for row in range(rows - 1, len(pairs), 8 * rows):
            for value in (dots[row, 0], dots[row, k - 1]):
                for threshold in (value, np.nextafter(value, 2.0)):
                    expected = one_shot_consensus_scores(origins, dirs, quats, pairs, -1.0, threshold)
                    actual = _kernels.consensus_scores(origins, dirs, quats, pairs, -1.0, threshold)
                    assert actual.tobytes() == expected.tobytes()

    def test_degenerate_pairs_score_negative(self):
        rng = np.random.default_rng(3)
        origins = rng.normal(0, 2.0, (4, 3))
        dirs = np.stack([random_unit(rng) for _ in range(4)])
        quats = rng.normal(size=(4, 4))
        quats /= np.linalg.norm(quats, axis=1, keepdims=True)
        origins[1] = origins[0]  # zero baseline
        dirs[3] = dirs[2]  # parallel rays
        pairs = np.array([[0, 1], [2, 3]], dtype=np.int64)
        cos_5 = np.cos(np.radians(5.0))
        scores = _kernels.consensus_scores(origins, dirs, quats, pairs, cos_5, cos_5)
        assert scores.tolist() == [-1, -1]

    def test_only_a_valid_unanimous_pair_stops_scoring(self, monkeypatch):
        # anchors 0 and 1 sit on the query center: their pair has no
        # baseline, so it is not valid, yet its hypothesis (that center)
        # passes every observation; pair (0, 2) is valid and unanimous
        monkeypatch.setattr(_kernels, "BLOCK_CELLS", 5)  # one pair per block
        rng = np.random.default_rng(6)
        center = rng.normal(size=3)
        origins = np.vstack([center, center, center + rng.normal(scale=3.0, size=(3, 3))])
        dirs = np.vstack([random_unit(rng), random_unit(rng), center - origins[2:]])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        quat = rng.normal(size=4)
        quats = np.tile(quat / np.linalg.norm(quat), (5, 1))
        pairs = np.column_stack(np.triu_indices(5, 1))
        cos_5 = np.cos(np.radians(5.0))
        scores = _kernels.consensus_scores(origins, dirs, quats, pairs, cos_5, cos_5)
        assert scores.tolist() == [-1, 5]

    def test_peak_allocation_stays_small_at_150_anchors(self):
        # the one-shot form allocated (11175, 150, 3) temporaries, over 100 MB
        _, origins, dirs, quats = pair_scene(np.random.default_rng(4), 150, 0.05)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        quats /= np.linalg.norm(quats, axis=1, keepdims=True)
        iu, ju = np.triu_indices(150, 1)
        pairs = np.column_stack([iu, ju])
        tracemalloc.start()
        try:
            _kernels.consensus_scores(origins, dirs, quats, pairs, 0.99, 0.99)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
