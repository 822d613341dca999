import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotmatch.geometry import (EstimationFailure, Homography, MetricsReport,
                               auc, corner_error, dlt, mma,
                               projective_distance, ransac_homography)


def random_homography(rng, scale=1.0):
    """Well-conditioned random homography: similarity + mild perspective."""
    ang = rng.uniform(-0.5, 0.5)
    s = rng.uniform(0.8, 1.25)
    tx, ty = rng.uniform(-20, 20, size=2)
    p = rng.uniform(-1e-4, 1e-4, size=2) * scale
    return Homography(np.array([
        [s * np.cos(ang), -s * np.sin(ang), tx],
        [s * np.sin(ang), s * np.cos(ang), ty],
        [p[0], p[1], 1.0],
    ]))


class TestHomographyType:
    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            Homography(np.zeros((3, 3)))

    def test_small_identity_accepted(self):
        # the identity map, written at a small scale: det 1e-18
        h = Homography(np.eye(3) * 1e-6)
        assert np.allclose(h.apply([3.0, 4.0]), [3.0, 4.0])

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_verdict_independent_of_scale(self, scale):
        h = random_homography(np.random.default_rng(3), scale=100.0)
        assert projective_distance(Homography(h.matrix * scale), h) < 1e-12
        with pytest.raises(ValueError, match="singular"):
            Homography(np.array([[1.0, 2, 3], [2, 4, 6], [0, 0, 1]]) * scale)

    def test_tiny_identity_applies(self):
        # q_z = 1e-13 is a finite point at the matrix's scale
        assert np.allclose(Homography(np.eye(3) * 1e-13).apply([3, 4]), [3.0, 4.0], rtol=1e-15)

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e6])
    def test_point_at_infinity_rejected_at_any_scale(self, scale):
        # the last row sends (1, 0) to q_z = 0
        h = Homography(np.array([[1.0, 0, 0], [0, 1, 0], [-1, 0, 1]]) * scale)
        with pytest.raises(ValueError, match="infinity"):
            h.apply([1.0, 0.0])
        assert np.allclose(h.apply([[0.5, 0.0], [2.0, 1.0]]), [[1.0, 0.0], [-2.0, -1.0]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        m = np.eye(3)
        m[0, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Homography(m)

    def test_apply_finite(self):
        h = Homography(np.diag([2.0, 2.0, 1.0]))
        assert np.allclose(h.apply([3.0, 4.0]), [6.0, 8.0])

    def test_projective_equivalence(self):
        h = random_homography(np.random.default_rng(0))
        assert projective_distance(h, Homography(h.matrix * -3.7)) < 1e-12


class TestDLT:
    def test_unit_square_identity(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        h = dlt(pts, pts)
        assert projective_distance(h, Homography(np.eye(3))) < 1e-10

    def test_pure_scaling(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 10, size=(4, 2))
        h = dlt(pts, 2.0 * pts)
        assert projective_distance(h, Homography(np.diag([2.0, 2.0, 1.0]))) < 1e-9

    def test_exact_recovery_20_points(self):
        rng = np.random.default_rng(2)
        h_true = random_homography(rng)
        pts = rng.uniform(0, 200, size=(20, 2))
        h = dlt(pts, h_true.apply(pts))
        assert projective_distance(h, h_true) < 1e-8

    def test_too_few_points(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError, match="at least 4"):
            dlt(pts, pts)

    def test_collinear_degenerate(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(ValueError, match="degenerate"):
            dlt(pts, pts)


class TestRansac:
    def test_all_inliers(self):
        rng = np.random.default_rng(3)
        h_true = random_homography(rng)
        pts = rng.uniform(0, 160, size=(40, 2))
        h, mask = ransac_homography(pts, h_true.apply(pts), seed=7)
        assert mask.all()
        h_all = dlt(pts, h_true.apply(pts))
        assert projective_distance(h, h_all) < 1e-8

    def test_controlled_outlier_experiment(self):
        # 70 noisy inliers + 30 uniform outliers on a 160x120 frame
        rng = np.random.default_rng(4)
        h_true = random_homography(rng, scale=0.5)
        pa_in = rng.uniform(0, [160, 120], size=(70, 2))
        pb_in = h_true.apply(pa_in) + rng.normal(0, 0.5, size=(70, 2))
        pa_out = rng.uniform(0, [160, 120], size=(30, 2))
        pb_out = rng.uniform(0, [160, 120], size=(30, 2))
        pa = np.concatenate([pa_in, pa_out])
        pb = np.concatenate([pb_in, pb_out])
        h, mask = ransac_homography(pa, pb, thresh_px=3.0, seed=11)
        assert mask[:70].sum() >= 0.95 * 70
        assert corner_error(h_true, h, 160, 120) < 1.5

    def test_three_matches_error(self):
        with pytest.raises(ValueError, match="at least 4"):
            ransac_homography(np.zeros((3, 2)), np.zeros((3, 2)))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        h_true = random_homography(rng)
        pa = rng.uniform(0, 160, size=(50, 2))
        pb = h_true.apply(pa) + rng.normal(0, 1.0, size=(50, 2))
        pb[::5] += rng.uniform(20, 50, size=(10, 2))
        h1, m1 = ransac_homography(pa, pb, seed=3)
        h2, m2 = ransac_homography(pa, pb, seed=3)
        assert np.array_equal(h1.matrix, h2.matrix)
        assert np.array_equal(m1, m2)

    def test_no_consensus_failure(self):
        # every minimal sample is degenerate (collinear points), so no model
        # can be fit at all
        t = np.linspace(0, 1, 12)
        pa = np.stack([t * 100, t * 100], axis=1)
        pb = np.stack([t * 80, t * 120], axis=1)
        with pytest.raises(EstimationFailure):
            ransac_homography(pa, pb, thresh_px=3.0, max_iter=50, seed=1)


class TestCornerError:
    def test_identical_maps(self):
        h = random_homography(np.random.default_rng(7))
        assert corner_error(h, h, 640, 480) == 0.0

    def test_three_four_five(self):
        h_gt = Homography(np.eye(3))
        h_est = Homography(np.array([[1.0, 0, 3], [0, 1, 4], [0, 0, 1]]))
        assert corner_error(h_gt, h_est, 64, 48) == pytest.approx(5.0)

    def test_perturbation_matches_direct_oracle(self):
        rng = np.random.default_rng(8)
        h_gt = random_homography(rng)
        w, h = 160, 120
        corners = np.array([[0.0, 0.0], [w, 0.0], [0.0, h], [w, h]])
        perturbed = corners + rng.normal(0, 1.0, size=(4, 2))
        delta = dlt(corners, perturbed)
        h_est = delta.compose(h_gt)
        direct = np.sqrt(((h_gt.apply(corners) - h_est.apply(corners)) ** 2).sum(axis=1)).mean()
        assert corner_error(h_gt, h_est, w, h) == pytest.approx(direct)

    def test_failure_scores_infinite(self):
        assert corner_error(Homography(np.eye(3)), None, 64, 64) == float("inf")


class _P:
    def __init__(self, a, b):
        self.point_a = a
        self.point_b = b


class TestMMA:
    def test_hand_example(self):
        h = Homography(np.eye(3))
        matches = [_P((0.0, 0.0), (1.0, 0.0)),
                   _P((0.0, 0.0), (4.0, 0.0)),
                   _P((0.0, 0.0), (12.0, 0.0))]
        frac = mma(matches, h)
        assert frac[3.0] == pytest.approx(1 / 3)
        assert frac[5.0] == pytest.approx(2 / 3)
        assert frac[10.0] == pytest.approx(2 / 3)

    def test_empty_matches(self):
        frac = mma([], Homography(np.eye(3)))
        assert frac == {3.0: 0.0, 5.0: 0.0, 10.0: 0.0}

    def test_perfect_oracle(self):
        rng = np.random.default_rng(9)
        h = random_homography(rng)
        pa = rng.uniform(0, 100, size=(25, 2))
        matches = [_P(tuple(a), tuple(b)) for a, b in zip(pa, h.apply(pa))]
        assert all(v == 1.0 for v in mma(matches, h).values())

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(10)
        h = Homography(np.eye(3))
        matches = [_P((0.0, 0.0), tuple(rng.uniform(0, 8, size=2))) for _ in range(30)]
        frac = mma(matches, h)
        assert frac[3.0] <= frac[5.0] <= frac[10.0]


class TestAUC:
    def test_zero_error(self):
        assert auc([0.0], 3.0) == 100.0

    def test_single_pair_closed_form(self):
        assert auc([5.0], 10.0) == pytest.approx(50.0)

    def test_two_pairs(self):
        assert auc([0.0, 10.0], 10.0) == pytest.approx(50.0)

    def test_infinite_errors_contribute_zero(self):
        assert auc([float("inf"), 0.0], 5.0) == pytest.approx(50.0)

    @given(st.lists(st.floats(0, 50), min_size=1, max_size=20), st.integers(0, 19))
    @settings(max_examples=50, deadline=None)
    def test_monotone_nonincreasing_in_errors(self, errors, bump_idx):
        t = 10.0
        base = auc(errors, t)
        worse = list(errors)
        worse[bump_idx % len(worse)] += 5.0
        assert auc(worse, t) <= base + 1e-9

    def test_all_zeros_is_100(self):
        for t in (3.0, 5.0, 10.0):
            assert auc([0.0] * 7, t) == 100.0


class TestMetricsReport:
    def test_aggregates_reproducible(self):
        r = MetricsReport()
        r.add_pair("a/2", "illumination", 2.0, {3.0: 0.5, 5.0: 0.75, 10.0: 1.0})
        r.add_pair("b/2", "viewpoint", 7.0, {3.0: 0.0, 5.0: 0.25, 10.0: 0.5})
        assert r.auc_at(10.0, "all") == pytest.approx((80.0 + 30.0) / 2)
        assert r.auc_at(10.0, "illumination") == pytest.approx(80.0)
        assert r.mma_at(5.0, "all") == pytest.approx(50.0)
        rows = r.rows("synthetic", "c4star")
        assert ("synthetic", "c4star", "all", "auc", 10.0, r.auc_at(10.0)) in rows
