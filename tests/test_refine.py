"""Latent-point triangulation and query pose refinement."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    e1_gradient,
    e1_objective,
    elementwise_reference_views,
    loop_query_jacobian,
    e1_direct,
    grid_polish_minimum,
    lm_query_without_convergence_stop,
    lm_triangulate_without_convergence_stop,
    one_pair_midpoint,
    per_track_arrays,
    per_track_refine_pose,
    per_column_e1_residual_jac,
    per_track_triangulate,
    project,
    random_rotation,
    random_unit,
    reference_relative_poses,
    stable_geodesic_deg,
    unproject,
)

from mvloc import (
    CorrespondenceTrack,
    DegenerateGeometryError,
    InsufficientDataError,
    Pose,
    SceneConfig,
    generate_scene,
    refine_pose,
    triangulate_track,
)
from mvloc import _kernels, refine
from mvloc.errors import InitializationError, MvlocError
from mvloc.geometry import DEPTH_EPS, rotvec_to_rotation, unit, unit_rows
from mvloc.refine import _query_jacobian, _query_residuals, _reference_views


# ---------------------------------------------------------------- fixtures


def scene_tracks(seed, n_points=20, n_anchors=5, sigma=0.0, rng=None, layout="ring"):
    """Exact or noisy tracks over all anchors of a generated scene."""
    scene = generate_scene(
        SceneConfig(n_points=max(n_points, 8), n_anchors=n_anchors, layout=layout),
        seed=seed,
    )
    poses = {f"a{k}": p for k, p in enumerate(scene.anchor_poses)}
    tracks = []
    for j, point in enumerate(scene.points[:n_points]):
        q_feat = project(scene.query_pose, point)
        obs = []
        for k, pose in enumerate(scene.anchor_poses):
            feat = project(pose, point)
            if sigma > 0.0:
                feat = feat + rng.normal(scale=sigma, size=2)
                q_feat_j = q_feat + rng.normal(scale=sigma, size=2)
            else:
                q_feat_j = q_feat
            obs.append((f"a{k}", feat))
        tracks.append(CorrespondenceTrack(j, q_feat_j, tuple(obs)))
    return scene, poses, tracks


def kernel_inputs(seed, m):
    """Random arguments of the triangulation kernel: a reference feature,
    m non-reference views and a parameter point (x, y, rho)."""
    rng = np.random.default_rng(seed)
    ref_feat = rng.normal(0, 0.3, 2)
    obs = rng.normal(0, 0.3, (m, 2))
    rots = np.array([random_rotation(rng) for _ in range(m)]).reshape(m, 3, 3)
    trans = rng.normal(0, 1.0, (m, 3))
    x, y = rng.normal(0, 0.3, 2)
    rho = float(rng.uniform(1.0, 5.0))
    return ref_feat, obs, rots, trans, x, y, rho


def perturbed_pose(pose, d_center_m, d_rot_deg, rng):
    wobble = rotvec_to_rotation(np.deg2rad(d_rot_deg) * random_unit(rng))
    rotation = wobble @ pose.rotation
    center = pose.center() + d_center_m * random_unit(rng)
    return Pose(rotation, -rotation @ center)


# ------------------------------------------------------------- track checks


class TestCorrespondenceTrack:
    def test_needs_two_anchor_views(self):
        with pytest.raises(ValueError):
            CorrespondenceTrack(0, np.zeros(2), (("a0", np.zeros(2)),))

    def test_anchor_ids_must_be_distinct(self):
        with pytest.raises(ValueError):
            CorrespondenceTrack(
                0, np.zeros(2), (("a0", np.zeros(2)), ("a0", np.ones(2)))
            )

    @pytest.mark.parametrize(
        "features",
        [(np.zeros(3), np.zeros(3)), (np.zeros(2), np.zeros(3)), (np.zeros(2), [[0.0, 1.0]])],
    )
    def test_anchor_features_must_be_pairs(self, features):
        with pytest.raises(ValueError, match="anchor features must be"):
            CorrespondenceTrack(0, np.zeros(2), tuple(zip(("a0", "a1"), features)))

    def test_views_are_id_and_float_row_pairs(self):
        feats = [np.array([0.25, -0.5]), [1, 2], (3.5, 4.0)]
        track = CorrespondenceTrack(7, [0.0, 1.0], tuple(zip(("a", "b", "c"), feats)))
        assert [aid for aid, _ in track.anchors] == ["a", "b", "c"]
        for (_, row), feat in zip(track.anchors, feats):
            assert row.dtype == np.float64 and row.shape == (2,)
            assert row.tobytes() == np.asarray(feat, dtype=np.float64).tobytes()


# ------------------------------------------------------------ triangulation


class TestTriangulateTrack:
    def test_exact_five_view_recovery(self):
        scene, poses, tracks = scene_tracks(seed=1, n_points=10, n_anchors=5)
        for j, track in enumerate(tracks):
            lp = triangulate_track(track, poses)
            np.testing.assert_allclose(lp.world_point, scene.points[j], atol=1e-8)
            assert lp.e1_residual < 1e-16
            assert lp.ref_depth > 0.0

    def test_latent_point_reprojects_through_reference(self):
        _, poses, tracks = scene_tracks(seed=2, n_points=5, n_anchors=4)
        lp = triangulate_track(tracks[0], poses)
        ref_pose = poses[lp.reference_view]
        rebuilt = unproject(ref_pose, lp.ref_feature, lp.ref_depth)
        np.testing.assert_allclose(rebuilt, lp.world_point, atol=1e-9)

    def test_zero_baseline_fails(self):
        pose = Pose(np.eye(3), np.zeros(3))
        point = np.array([0.1, -0.2, 3.0])
        feat = project(pose, point)
        track = CorrespondenceTrack(0, feat, (("a0", feat), ("a1", feat)))
        with pytest.raises(DegenerateGeometryError):
            triangulate_track(track, {"a0": pose, "a1": pose})

    def test_init_behind_reference_camera_fails(self):
        _, poses, tracks = scene_tracks(seed=3, n_points=5, n_anchors=3)
        centers = np.array([p.center() for p in poses.values()])
        lookdir = -np.mean(centers, axis=0)
        behind = np.mean(centers, axis=0) - 50.0 * lookdir / np.linalg.norm(lookdir)
        with pytest.raises(InitializationError):
            triangulate_track(tracks[0], poses, init=behind)

    def test_reference_choice_does_not_move_the_point(self):
        # permuting the anchor list can flip which view is the reference;
        # on noiseless tracks the optimum must not care
        for seed in range(5):
            _, poses, tracks = scene_tracks(seed=seed, n_points=6, n_anchors=4)
            for track in tracks:
                fwd = triangulate_track(track, poses)
                rev = triangulate_track(
                    CorrespondenceTrack(
                        track.track_id, track.query_feature, track.anchors[::-1]
                    ),
                    poses,
                )
                np.testing.assert_allclose(rev.world_point, fwd.world_point, atol=1e-6)

    def test_repeat_runs_are_bit_identical(self):
        _, poses, tracks = scene_tracks(seed=4, n_points=5, n_anchors=5)
        a = triangulate_track(tracks[2], poses)
        b = triangulate_track(tracks[2], poses)
        np.testing.assert_array_equal(a.world_point, b.world_point)
        assert a.e1_residual == b.e1_residual


class TestConvergenceStop:
    """The LM stops once the cost has converged, at the point the loop
    without that stop (conftest) reaches, up to rounding."""

    @pytest.mark.parametrize("views", [2, 3, 6, 20, 150])
    def test_matches_the_loop_without_early_stop(self, views, monkeypatch):
        kernel = _kernels.e1_residual_jac
        calls = []

        def counted(*args):
            calls.append(None)
            return kernel(*args)

        monkeypatch.setattr(_kernels, "e1_residual_jac", counted)
        stopped_calls = n_tracks = 0
        for layout in ("ring", "line"):
            for k, sigma in enumerate((0.0, 1e-4, 1.25e-3)):
                seed = 1000 + 10 * views + 2 * k + (layout == "line")
                _, poses, tracks = scene_tracks(
                    seed, n_points=10, n_anchors=views, sigma=sigma,
                    rng=np.random.default_rng(seed), layout=layout,
                )
                for track in tracks:
                    try:
                        expected = lm_triangulate_without_convergence_stop(track, poses)
                    except MvlocError as exc:
                        with pytest.raises(MvlocError) as info:
                            triangulate_track(track, poses)
                        assert type(info.value) is type(exc)
                        continue
                    before = len(calls)
                    got = triangulate_track(track, poses)
                    stopped_calls += len(calls) - before
                    n_tracks += 1
                    assert got.reference_view == expected.reference_view
                    # the stop ends on an iterate of the longer loop, whose
                    # accepted steps only ever lower the cost
                    assert got.e1_residual >= expected.e1_residual
                    assert got.e1_residual - expected.e1_residual <= (
                        1e-11 * expected.e1_residual + 1e-24
                    )
                    assert np.linalg.norm(got.world_point - expected.world_point) <= (
                        1e-8 * np.linalg.norm(expected.world_point)
                    )
        assert n_tracks > 0
        # the loop without the stop makes about 10 kernel calls per track
        assert stopped_calls / n_tracks <= 6.0


def widest_pair_oracle(poses, point, dot=np.dot):
    """First member of the first minimal (i, j) pair, i < j in row-major
    order, of viewing-direction dot products at ``point``: the brute-force
    pair loop. Each dot is a BLAS dot unless ``dot`` says otherwise."""
    dirs = [unit(point - pose.center()) for pose in poses]
    best, best_i = np.inf, 0
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            value = dot(dirs[i], dirs[j])
            if value < best:
                best, best_i = value, i
    return best_i


def select_reference(centers, point):
    """The stack's reference view of one track with views at ``centers``
    and start ``point``."""
    return int(_reference_views(unit_rows(point - centers), np.array([0, len(centers)]))[0])


def assert_same_references(dirs, starts):
    expected = elementwise_reference_views(dirs, starts)
    assert _reference_views(dirs, starts).tolist() == expected.tolist()


def ordered_dot(a, b):
    """The 3-term dot summed as (a0 b0 + a1 b1) + a2 b2."""
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


coords = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
vec3 = st.tuples(coords, coords, coords).map(np.array)


@st.composite
def viewing_setups(draw, point_on_line=False):
    """2-150 anchor poses, some repeated (exact direction ties), and a point.

    The distinct centers are either spread over a box or all on one line (a
    line layout). With ``point_on_line`` the point lies on that line too, so
    every viewing direction is the line's, up to rounding. Coordinates come
    from a drawn seed: 150 poses drawn float by float would not fit in one
    Hypothesis example.
    """
    n_distinct = draw(st.integers(1, 150))
    layout = "line, point on it" if point_on_line else draw(st.sampled_from(["box", "line"]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    origin, direction = gen.uniform(-10.0, 10.0, (2, 3))
    if layout == "box":
        centers = gen.uniform(-10.0, 10.0, (n_distinct, 3))
    else:
        centers = origin + gen.uniform(-3.0, 3.0, (n_distinct, 1)) * direction
    distinct = []
    for center in centers:
        rotation = rotvec_to_rotation(gen.uniform(-3.0, 3.0, 3))
        distinct.append(Pose(rotation, -rotation @ center))
    picks = gen.integers(0, n_distinct, draw(st.integers(2, 150)))
    if layout == "line, point on it":
        point = origin + draw(st.floats(-5.0, 5.0)) * direction
    else:
        point = draw(vec3)
    return [distinct[k] for k in picks], point


class TestReferenceSelection:
    @staticmethod
    def assert_matches_pair_loop(setup, dot=np.dot):
        poses, point = setup
        centers = np.array([pose.center() for pose in poses])
        try:
            expected = widest_pair_oracle(poses, point, dot)
        except DegenerateGeometryError:
            with pytest.raises(DegenerateGeometryError):
                select_reference(centers, point)
            return
        assert select_reference(centers, point) == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(viewing_setups())
    def test_matches_pair_loop_oracle(self, setup):
        self.assert_matches_pair_loop(setup)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(viewing_setups(point_on_line=True))
    def test_rounding_ties_follow_the_fixed_sum_order(self, setup):
        # a point on the line of the centers: the dots tie up to rounding, so
        # the choice is the elementwise sum's, whatever a BLAS dot would say
        self.assert_matches_pair_loop(setup, dot=ordered_dot)

    @pytest.mark.parametrize(
        "looks, expected",
        [
            # minimal pairs (0, 3) and (1, 2): row-major order puts (0, 3) first
            (["+x", "+y", "-y", "-x"], 0),
            # minimal pairs (1, 3) and (2, 3) from a repeated view
            (["+z", "+x", "+x", "-x"], 1),
            (["+z", "+x", "-x", "+x", "-x"], 1),
            # palindromes: every minimal pair is mirrored about both
            # diagonals, so minimal cells come in exactly tied quadruples
            (["+x", "-x", "-x", "+x"], 0),
            (["+z", "+x", "-x", "+x", "+z"], 1),
            (["+y", "+z", "+x", "-x", "+x", "+z", "+y"], 2),
        ],
    )
    def test_exact_ties_pick_first_minimal_pair(self, looks, expected):
        axes = {"x": 0, "y": 1, "z": 2}
        poses = []
        for look in looks:
            d = np.zeros(3)
            d[axes[look[1]]] = 1.0 if look[0] == "+" else -1.0
            poses.append(Pose(np.eye(3), d))  # views the origin along d
        centers = np.array([pose.center() for pose in poses])
        assert widest_pair_oracle(poses, np.zeros(3)) == expected
        assert select_reference(centers, np.zeros(3)) == expected

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_tracks=st.integers(1, 300),
        views=st.sampled_from([(2, 6), (6, 6), (2, 40), (150, 150)]),
        layout=st.sampled_from(["spread", "line", "repeated", "repeated within ulps"]),
    )
    def test_screened_references_match_the_elementwise_oracle(
        self, seed, n_tracks, views, layout
    ):
        # whole stacks of tracks, near ties included: the BLAS screen and its
        # elementwise recheck pick the elementwise Gram's references
        rng = np.random.default_rng(seed)
        counts = rng.integers(views[0], views[1] + 1, n_tracks if views[1] < 150 else 3)
        starts = np.concatenate([[0], np.cumsum(counts)])
        if layout == "spread":
            dirs = unit_rows(rng.normal(size=(starts[-1], 3)))
        elif layout == "line":
            # every direction on one line, up to the rounding of unit_rows
            axis = rng.normal(size=3)
            signs = rng.choice([-1.0, 1.0], (starts[-1], 1))
            dirs = unit_rows(signs * rng.uniform(0.5, 2.0, (starts[-1], 1)) * axis)
        else:
            palette = unit_rows(rng.normal(size=(3, 3)))
            dirs = palette[rng.integers(0, 3, starts[-1])]
            if layout == "repeated within ulps":
                dirs = dirs + dirs * rng.integers(-4, 5, dirs.shape) * np.finfo(float).eps
        assert_same_references(dirs, starts)

    def test_only_near_ties_are_rechecked(self, monkeypatch):
        rechecked = []
        recheck = refine._elementwise_references

        def counted(d):
            rechecked.append(len(d))
            return recheck(d)

        monkeypatch.setattr(refine, "_elementwise_references", counted)
        rng = np.random.default_rng(4)
        starts = np.arange(0, 6 * 200 + 1, 6)
        spread = unit_rows(rng.normal(size=(starts[-1], 3)))
        assert_same_references(spread, starts)
        assert sum(rechecked) == 0
        # two tracks whose two widest pairs tie exactly
        looks = np.array([[1.0, 0, 0], [0, 1, 0], [0, -1, 0], [-1, 0, 0], [0, 0, 1], [0, 0, 1]])
        tied = np.concatenate([looks, looks, spread[12:]])
        assert_same_references(tied, starts)
        assert sum(rechecked) == 2

    def test_point_on_anchor_center_is_degenerate(self):
        scene, poses, tracks = scene_tracks(seed=21, n_points=6, n_anchors=4)
        bad = tracks[0]
        (aid_a, feat_a), (aid_b, feat_b) = bad.anchors[0], bad.anchors[1]
        pair = poses[aid_a], poses[aid_b]
        init = one_pair_midpoint(
            np.array([pose.center() for pose in pair]), [pose.rotation for pose in pair],
            [feat_a, feat_b],
        )
        # identity rotation makes the center -I.T @ -init equal init exactly
        poses = dict(poses, on_point=Pose(np.eye(3), -init))
        bad = CorrespondenceTrack(
            bad.track_id, bad.query_feature, bad.anchors + (("on_point", np.zeros(2)),)
        )
        centers = np.array([poses[aid].center() for aid, _ in bad.anchors])
        with pytest.raises(DegenerateGeometryError):
            select_reference(centers, init)
        with pytest.raises(DegenerateGeometryError):
            triangulate_track(bad, poses)
        res = refine_pose([bad] + tracks[1:], poses, scene.query_pose)
        assert res.points_used == len(tracks) - 1

    def test_widest_pair_reference_on_150_anchor_line(self):
        rng = np.random.default_rng(8)
        _, poses, tracks = scene_tracks(
            seed=9, n_points=4, n_anchors=150, sigma=1e-4, rng=rng, layout="line"
        )
        for track in tracks:
            views = [poses[aid] for aid, _ in track.anchors]
            (_, feat_a), (_, feat_b) = track.anchors[0], track.anchors[1]
            init = one_pair_midpoint(
                np.array([views[0].center(), views[1].center()]),
                [views[0].rotation, views[1].rotation], [feat_a, feat_b],
            )
            expected = track.anchors[widest_pair_oracle(views, init)][0]
            assert triangulate_track(track, poses).reference_view == expected


class TestGridOracle:
    def test_two_view_noisy_optimum_matches_grid_search(self):
        # two views, both features shifted by exactly (1e-3, 0)
        shift = np.array([1e-3, 0.0])
        for seed in (11, 12, 13):
            scene, poses, tracks = scene_tracks(seed=seed, n_points=3, n_anchors=2)
            point = scene.points[0]
            track = CorrespondenceTrack(
                0,
                tracks[0].query_feature,
                tuple((aid, feat + shift) for aid, feat in tracks[0].anchors),
            )
            lp = triangulate_track(track, poses)
            ref_feat, feats, rels = reference_relative_poses(track, poses, lp.reference_view)
            ref_pose = poses[lp.reference_view]
            true_depth = (point @ ref_pose.rotation.T + ref_pose.translation)[2]
            true_feat = project(ref_pose, point)
            _, _, oracle_val = grid_polish_minimum(ref_feat, feats, rels, true_feat, true_depth)
            package_val = float(
                e1_direct(ref_feat, feats, rels, lp.ref_feature[0], lp.ref_feature[1], lp.ref_depth)
            )
            assert abs(package_val - oracle_val) < 1e-10


# ------------------------------------------------------------------ energy


class TestE1Objective:
    def test_exact_parameters_give_zero(self):
        scene, poses, tracks = scene_tracks(seed=5, n_points=4, n_anchors=4)
        track = tracks[0]
        lp = triangulate_track(track, poses)
        ref_pose = poses[lp.reference_view]
        true_feat = project(ref_pose, scene.points[0])
        true_depth = (scene.points[0] @ ref_pose.rotation.T + ref_pose.translation)[2]
        assert e1_objective(track, poses, true_feat, true_depth) < 1e-20

    def test_matches_direct_reprojection_sum(self, rng):
        for seed in range(6, 12):
            _, poses, tracks = scene_tracks(seed=seed, n_points=4, n_anchors=4)
            track = tracks[1]
            lp = triangulate_track(track, poses)
            gamma = lp.ref_feature + rng.normal(scale=2e-3, size=2)
            rho = lp.ref_depth * (1.0 + rng.normal(scale=0.02))
            ref_feat, feats, rels = reference_relative_poses(track, poses, lp.reference_view)
            direct = float(e1_direct(ref_feat, feats, rels, gamma[0], gamma[1], rho))
            packaged = e1_objective(track, poses, gamma, rho)
            assert abs(packaged - direct) < 1e-10

    @pytest.mark.parametrize("seed, m", [(0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (5, 0)])
    def test_closed_form_value_equals_residual_norm(self, seed, m):
        # with no non-reference view only the reference block is left
        args = kernel_inputs(seed, m)
        r, jac, min_depth = _kernels.e1_residual_jac(*args)
        assert r.shape == (2 + 2 * m,)
        assert jac.shape == (2 + 2 * m, 3)
        assert (min_depth == np.inf) == (m == 0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.sampled_from([0, 1, 5, 20, 150]),
        depths=st.sampled_from(["positive", "near DEPTH_EPS", "negative or zero"]),
    )
    def test_kernel_matches_the_per_column_oracle(self, seed, m, depths):
        # the one stacked Jacobian pass gives the per-column loop's bytes,
        # also where a view's depth nears the gate or crosses zero
        ref_feat, obs, rots, trans, x, y, rho = kernel_inputs(seed, m)
        if depths != "positive":
            rng = np.random.default_rng(seed)
            views = rng.random(m) < 0.5
            if depths == "near DEPTH_EPS":
                target = DEPTH_EPS * (1.0 + rng.uniform(-1e-7, 1e-7, m))
            else:
                target = rng.choice([0.0, -0.0, -DEPTH_EPS, -3.0], m)
            rg_z = (rots @ np.array([x, y, 1.0]))[:, 2]
            trans[views, 2] = (target - rho * rg_z)[views]
        args = (ref_feat, obs, rots, trans, x, y, rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            r, jac, min_depth = _kernels.e1_residual_jac(*args)
            expected_r, expected_jac, expected_depth = per_column_e1_residual_jac(*args)
        assert r.tobytes() == expected_r.tobytes()
        assert jac.tobytes() == expected_jac.tobytes()
        assert np.float64(min_depth).tobytes() == np.float64(expected_depth).tobytes()

    def test_gradient_matches_central_differences(self, rng):
        h = 1e-6
        checked = 0
        for seed in range(100):
            _, poses, tracks = scene_tracks(
                seed=200 + seed, n_points=3, n_anchors=int(rng.integers(2, 6))
            )
            track = tracks[0]
            lp = triangulate_track(track, poses)
            gamma = lp.ref_feature + rng.normal(scale=3e-3, size=2)
            rho = lp.ref_depth * (1.0 + rng.normal(scale=0.03))
            grad = e1_gradient(track, poses, gamma, rho)
            fd = np.empty(3)
            for axis in range(2):
                hi, lo = gamma.copy(), gamma.copy()
                hi[axis] += h
                lo[axis] -= h
                fd[axis] = (
                    e1_objective(track, poses, hi, rho)
                    - e1_objective(track, poses, lo, rho)
                ) / (2.0 * h)
            fd[2] = (
                e1_objective(track, poses, gamma, rho + h)
                - e1_objective(track, poses, gamma, rho - h)
            ) / (2.0 * h)
            scale = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(grad - fd) / scale < 1e-5
            checked += 1
        assert checked == 100

    def test_point_behind_any_view_rejected(self):
        _, poses, tracks = scene_tracks(seed=14, n_points=3, n_anchors=3)
        track = tracks[0]
        lp = triangulate_track(track, poses)
        with pytest.raises(ValueError, match="candidate depth"):
            e1_objective(track, poses, lp.ref_feature, 1e6)


# -------------------------------------------------------------- refinement


def looking_at(pose, point):
    """The pose at ``pose``'s center turned to look at ``point``, rolled by
    its own x axis (the pose itself when the point is on its center)."""
    center = pose.center()
    if np.linalg.norm(point - center) < 1e-9:
        return pose
    z = unit(point - center)
    x = pose.rotation[0] - (pose.rotation[0] @ z) * z
    if np.linalg.norm(x) < 1e-6:
        x = pose.rotation[1] - (pose.rotation[1] @ z) * z
    x = unit(x)
    rotation = np.vstack([x, np.cross(z, x), z])
    return Pose(rotation, -rotation @ center)


def view_tracks(poses, point, rng):
    """Tracks of the points around ``point`` seen in views ``v0``, ``v1``,
    ... (one id per pose, repeated poses included, each turned to look at
    ``point``), some over all views and some over a drawn subset; features
    are the camera-frame ratios, so a point behind a view still has one."""
    poses = [looking_at(pose, point) for pose in poses]
    anchor_poses = {f"v{i}": pose for i, pose in enumerate(poses)}
    tracks = []
    for t in range(4):
        target = point + rng.normal(scale=0.5, size=3) * (t > 0)
        views = np.arange(len(poses))
        if t % 2:
            views = np.sort(rng.choice(len(poses), size=int(rng.integers(2, len(poses) + 1)),
                                       replace=False))
        anchors = []
        for k in views:
            cam = (target @ poses[k].rotation.T + poses[k].translation)
            anchors.append((f"v{k}", cam[:2] / cam[2]))
        tracks.append(CorrespondenceTrack(t, rng.normal(size=2), tuple(anchors)))
    return anchor_poses, tracks


def ratio_track(track_id, poses, views, target, query_pose):
    """The track of ``target`` in the given views of ``poses`` (id -> Pose),
    with camera-frame ratios as features, so a point behind a view still
    has one."""
    anchors = []
    for aid in views:
        cam = (target @ poses[aid].rotation.T + poses[aid].translation)
        anchors.append((aid, cam[:2] / cam[2]))
    cam = (target @ query_pose.rotation.T + query_pose.translation)
    return CorrespondenceTrack(track_id, cam[:2] / cam[2], tuple(anchors))


@st.composite
def track_sets(draw):
    """A query's tracks over 2-150 views (``viewing_setups``, each view
    turned to look at the point), a query pose that sees them, and the
    point. The tracks have ragged view counts. They include tracks whose
    start lies within 1e-7 to 1e-3 of the point, which with centers on a
    line puts the start nearly on it, so the viewing directions tie up to
    rounding. Others cannot triangulate: one names an unknown anchor; one
    starts from two views with a shared origin and one from parallel rays
    through the point; one starts behind its views."""
    poses, point = draw(viewing_setups(point_on_line=draw(st.booleans())))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    views = [looking_at(pose, point) for pose in poses]
    anchor_poses = {f"v{i}": pose for i, pose in enumerate(views)}
    query_pose = looking_at(poses[-1], point + rng.normal(size=3))
    ids = list(anchor_poses)
    tracks = []
    for t in range(draw(st.integers(1, 8))):
        target = point + rng.normal(scale=draw(st.sampled_from([0.5, 1e-3, 1e-5, 1e-7])), size=3)
        subset = ids
        if draw(st.booleans()):
            picks = rng.choice(len(ids), size=int(rng.integers(2, len(ids) + 1)), replace=False)
            subset = [ids[k] for k in picks]
        tracks.append(ratio_track(t, anchor_poses, subset, target, query_pose))
    # the same pose under a second id, and v0 moved along its ray to the point
    anchor_poses["twin"] = views[0]
    along = views[0].center() + 0.5 * (point - views[0].center())
    anchor_poses["along"] = Pose(views[0].rotation, -views[0].rotation @ along)
    mirror = 2.0 * views[0].center() - point
    odd = [
        ("ghost", ["v0", "nowhere"] + ids[1:], point),
        ("shared origin", ["v0", "twin"] + ids[1:], point),
        ("parallel", ["v0", "along"], point),
        ("behind", ["v0"] + ids[1:] if len(ids) > 1 else ["v0", "along"], mirror),
    ]
    for track_id, subset, target in draw(
        st.lists(st.sampled_from(odd), max_size=4, unique_by=lambda item: item[0])
    ):
        anchors = dict(anchor_poses, nowhere=views[0])  # features for the ghost's view
        tracks.append(ratio_track(track_id, anchors, subset, target, query_pose))
    order = draw(st.permutations(range(len(tracks))))
    return anchor_poses, [tracks[k] for k in order], query_pose, point


def triangulation_outcome(track, anchor_poses, triangulate=triangulate_track, **kwargs):
    """A LatentPoint's fields as bytes, or the class of the error raised."""
    try:
        latent = triangulate(track, anchor_poses, **kwargs)
    except (MvlocError, KeyError) as exc:
        return type(exc)
    return (
        latent.track_id, latent.world_point.tobytes(), latent.reference_view,
        latent.ref_feature.tobytes(), latent.ref_depth, latent.e1_residual,
    )


def refinement_outcome(refine, tracks, anchor_poses, init_pose):
    """A RefinementResult's fields as bytes, or the class of the error
    raised."""
    try:
        result = refine(tracks, anchor_poses, init_pose)
    except MvlocError as exc:
        return type(exc)
    return (
        result.pose.rotation.tobytes(), result.pose.translation.tobytes(), result.e2_initial,
        result.e2_final, result.iterations, result.points_used,
    )


class TestQueryPoseStack:
    """refine_pose stacks its anchors' poses and its tracks' geometry once
    per query; every track triangulates as it does against a plain dict and
    as the per-track arrays of ``conftest.per_track_arrays`` do."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(viewing_setups(), st.integers(0, 2**32 - 1))
    def test_stacked_tracks_triangulate_as_plain_dict_tracks(self, setup, seed):
        poses, point = setup
        anchor_poses, tracks = view_tracks(poses, point, np.random.default_rng(seed))
        # a pose no track names, which the query's stack leaves out
        anchor_poses["unused"] = Pose(np.eye(3), np.ones(3))
        expected = [triangulation_outcome(track, anchor_poses) for track in tracks]
        original = refine.triangulate_track
        seen = []

        def recording(track, stack, **kwargs):
            assert "unused" not in stack
            seen.append(triangulation_outcome(track, stack))
            return original(track, stack, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(refine, "triangulate_track", recording)
            with contextlib.suppress(MvlocError):  # too few usable tracks
                refine_pose(tracks, anchor_poses, Pose(np.eye(3), np.zeros(3)))
        assert seen == expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(track_sets())
    def test_query_stack_triangulates_as_the_per_track_arrays(self, track_set):
        anchor_poses, tracks, query_pose, point = track_set
        stack = refine._AnchorStack(anchor_poses, tracks)
        for track in tracks:
            assert triangulation_outcome(track, stack) == triangulation_outcome(
                track, anchor_poses, per_track_triangulate
            )
            # an explicit start goes through a stack built for the one track
            assert triangulation_outcome(track, anchor_poses, init=point) == (
                triangulation_outcome(track, anchor_poses, per_track_triangulate, init=point)
            )
        assert refinement_outcome(refine_pose, tracks, anchor_poses, query_pose) == (
            refinement_outcome(per_track_refine_pose, tracks, anchor_poses, query_pose)
        )

    def test_a_stack_of_thousands_of_views_holds_each_tracks_own_geometry(self):
        # 40 tracks of 120-150 views each, 5,000+ views in one query stack,
        # asked for in shuffled order
        rng = np.random.default_rng(19)
        point = np.zeros(3)
        anchor_poses = {}
        for k in range(150):
            center = unit(rng.normal(size=3)) * rng.uniform(6.0, 10.0)
            rotation = rotvec_to_rotation(rng.uniform(-3.0, 3.0, 3))
            anchor_poses[f"v{k}"] = looking_at(Pose(rotation, -rotation @ center), point)
        query_pose = looking_at(Pose(np.eye(3), np.array([0.0, 0.0, 12.0])), point)
        ids = list(anchor_poses)
        tracks = []
        for t in range(40):
            views = rng.choice(len(ids), size=int(rng.integers(120, 151)), replace=False)
            target = point + rng.normal(scale=0.5, size=3)
            tracks.append(ratio_track(t, anchor_poses, [ids[k] for k in views], target,
                                      query_pose))
        assert sum(len(track.anchor_ids) for track in tracks) > 5000
        stack = refine._AnchorStack(anchor_poses, tracks)

        def shown(geometry):
            ref, ref_pose, *arrays = geometry
            return ref, ref_pose.rotation.tobytes(), ref_pose.translation.tobytes(), [
                (a.shape, a.tobytes()) for a in arrays
            ]

        for k in rng.permutation(len(tracks)):
            track = tracks[k]
            assert shown(stack.geometry(track)) == shown(per_track_arrays(track, anchor_poses))
            outcome = triangulation_outcome(track, stack)
            assert outcome == triangulation_outcome(track, anchor_poses, per_track_triangulate)
            assert outcome[0] == k  # a LatentPoint, not an error class

    def test_refine_pose_hands_each_track_the_query_stack(self, monkeypatch):
        scene, poses, tracks = scene_tracks(seed=23, n_points=8, n_anchors=6)
        original = refine.triangulate_track
        stacks = []

        def recording(track, anchor_poses, **kwargs):
            stacks.append(anchor_poses)
            return original(track, anchor_poses, **kwargs)

        monkeypatch.setattr(refine, "triangulate_track", recording)
        refine_pose(tracks, poses, scene.query_pose)
        assert len(stacks) == len(tracks)
        assert all(stack is stacks[0] for stack in stacks)
        assert isinstance(stacks[0], refine._AnchorStack)
        assert dict(stacks[0]) == poses

    def test_unknown_anchor_skips_only_its_track(self):
        scene, poses, tracks = scene_tracks(seed=24, n_points=10, n_anchors=5)
        ghost = CorrespondenceTrack(
            "ghost", tracks[0].query_feature, tracks[0].anchors + (("a99", np.zeros(2)),)
        )
        with pytest.raises(KeyError, match="a99"):
            triangulate_track(ghost, poses)
        res = refine_pose(tracks[:5] + [ghost] + tracks[5:], poses, scene.query_pose)
        assert res.points_used == len(tracks)
        assert res.pose == refine_pose(tracks, poses, scene.query_pose).pose


class TestRefinePose:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150))
    def test_query_jacobian_matches_the_per_point_loop(self, seed, n):
        rng = np.random.default_rng(seed)
        pose = Pose(rotvec_to_rotation(rng.normal(size=3)), rng.normal(size=3))
        cam = np.column_stack([rng.normal(size=(n, 2)), rng.uniform(0.5, 20.0, n)])
        points = (cam - pose.translation) @ pose.rotation
        feats = cam[:, :2] / cam[:, 2:] + rng.normal(scale=1e-3, size=(n, 2))
        _, cam, w = _query_residuals(pose.rotation, pose.translation, points, feats)
        expected = loop_query_jacobian(pose.rotation, points, cam, w)
        assert _query_jacobian(pose.rotation, points, cam, w).tobytes() == expected.tobytes()

    def test_ground_truth_is_a_fixed_point(self):
        scene, poses, tracks = scene_tracks(seed=15, n_points=12, n_anchors=5)
        res = refine_pose(tracks, poses, scene.query_pose)
        np.testing.assert_allclose(
            res.pose.rotation, scene.query_pose.rotation, atol=1e-10
        )
        np.testing.assert_allclose(
            res.pose.translation, scene.query_pose.translation, atol=1e-10
        )
        assert res.e2_final < 1e-18
        assert res.e2_final <= res.e2_initial

    def test_converges_from_perturbed_start(self):
        rng = np.random.default_rng(77)
        # wide gate so the perturbed start keeps its tracks
        for seed in range(5):
            scene, poses, tracks = scene_tracks(seed=30 + seed, n_points=15, n_anchors=5)
            start = perturbed_pose(scene.query_pose, 0.05, 2.0, rng)
            res = refine_pose(tracks, poses, start, tau_reproj=0.2)
            err_m = np.linalg.norm(res.pose.center() - scene.query_pose.center())
            err_deg = stable_geodesic_deg(res.pose.rotation, scene.query_pose.rotation)
            assert err_m < 1e-6
            assert err_deg < 1e-5

    def test_noise_trials_improve_pose(self):
        improved = 0
        e2_ok = 0
        trials = 200
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([99, trial]))
            scene, poses, tracks = scene_tracks(
                seed=1000 + trial, n_points=50, n_anchors=8, sigma=1e-3, rng=rng
            )
            start = perturbed_pose(scene.query_pose, 0.05, 2.0, rng)
            res = refine_pose(tracks, poses, start, tau_reproj=0.2)
            before = np.linalg.norm(start.center() - scene.query_pose.center())
            after = np.linalg.norm(res.pose.center() - scene.query_pose.center())
            improved += after < before
            e2_ok += res.e2_final <= res.e2_initial
        assert e2_ok == trials
        assert improved >= 0.95 * trials

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        layout=st.sampled_from(["line", "ring"]),
        n_anchors=st.integers(3, 40),
        sigma_px=st.floats(0.0, 1.0),
    )
    def test_converged_stop_ends_on_an_iterate_of_the_full_loop(
        self, seed, layout, n_anchors, sigma_px
    ):
        # the stop cuts the loop short (conftest) on one of its iterates,
        # whose accepted steps only ever lower the cost. A cost r @ r is
        # evaluated to about eps * |r|: below that, as at low noise, the
        # longer loop's last steps are rounding and the relative bound is
        # joined by one on that scale.
        rng = np.random.default_rng(seed)
        scene, poses, tracks = scene_tracks(
            seed, n_points=30, n_anchors=n_anchors, sigma=sigma_px / 800.0, rng=rng,
            layout=layout,
        )
        start = perturbed_pose(scene.query_pose, 0.05, 2.0, rng)
        expected = lm_query_without_convergence_stop(tracks, poses, start, tau_reproj=0.2)
        got = refine_pose(tracks, poses, start, tau_reproj=0.2)
        assert got.points_used == expected.points_used
        assert got.e2_initial == expected.e2_initial
        rounding = 8 * np.finfo(float).eps * np.sqrt(expected.e2_final)
        assert expected.e2_final <= got.e2_final
        assert got.e2_final <= (1.0 + 1e-12) * expected.e2_final + rounding
        assert got.iterations <= expected.iterations
        np.testing.assert_allclose(got.pose.rotation, expected.pose.rotation, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            got.pose.translation, expected.pose.translation, rtol=0, atol=1e-9
        )

    def test_too_few_tracks_rejected(self):
        _, poses, tracks = scene_tracks(seed=16, n_points=2, n_anchors=4)
        scene, _, _ = scene_tracks(seed=16, n_points=2, n_anchors=4)
        with pytest.raises(InsufficientDataError):
            refine_pose(tracks, poses, scene.query_pose)

    def test_gate_excludes_far_tracks(self):
        # an init far enough that every reprojection misses the 0.01 gate
        scene, poses, tracks = scene_tracks(seed=17, n_points=10, n_anchors=4)
        rng = np.random.default_rng(5)
        start = perturbed_pose(scene.query_pose, 1.5, 25.0, rng)
        with pytest.raises(InsufficientDataError):
            refine_pose(tracks, poses, start)

    def test_points_used_reported(self):
        scene, poses, tracks = scene_tracks(seed=18, n_points=9, n_anchors=4)
        res = refine_pose(tracks, poses, scene.query_pose)
        assert res.points_used == 9
        assert res.iterations >= 0
