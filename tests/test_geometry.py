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
        h, mask, _ = ransac_homography(pts, h_true.apply(pts), seed=7)
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
        h, mask, _ = ransac_homography(pa, pb, thresh_px=3.0, seed=11)
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
        h1, m1, _ = ransac_homography(pa, pb, seed=3)
        h2, m2, _ = ransac_homography(pa, pb, seed=3)
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


# ---------------------------------------------------------------------------
# RANSAC against a one-hypothesis-at-a-time oracle
#
# `_oracle_dlt` and `_oracle_ransac` are the per-hypothesis implementation
# that the chunked RANSAC replaced, with `Homography`'s checks and `apply`
# written out, plus the iteration count in the result, and the stop once
# every ordered sample has been drawn. The chunked version must give the
# same bytes, mask, iteration count and errors.


def _oracle_normalization(points):
    c = points.mean(axis=0)
    rms = np.sqrt(((points - c) ** 2).sum(axis=1).mean())
    s = np.sqrt(2.0) / max(rms, 1e-12)
    return np.array([[s, 0, -s * c[0]], [0, s, -s * c[1]], [0, 0, 1]])


def _oracle_dlt(pa, pb):
    n = len(pa)
    ta = _oracle_normalization(pa)
    tb = _oracle_normalization(pb)
    qa = (np.concatenate([pa, np.ones((n, 1))], axis=1) @ ta.T)[:, :2]
    qb = (np.concatenate([pb, np.ones((n, 1))], axis=1) @ tb.T)[:, :2]
    a = np.zeros((2 * n, 9))
    x, y = qa[:, 0], qa[:, 1]
    u, v = qb[:, 0], qb[:, 1]
    a[0::2, 0] = -x
    a[0::2, 1] = -y
    a[0::2, 2] = -1
    a[0::2, 6] = x * u
    a[0::2, 7] = y * u
    a[0::2, 8] = u
    a[1::2, 3] = -x
    a[1::2, 4] = -y
    a[1::2, 5] = -1
    a[1::2, 6] = x * v
    a[1::2, 7] = y * v
    a[1::2, 8] = v
    _, s, vt = np.linalg.svd(a)
    if n == 4 and s[-2] < 1e-9 * max(s[0], 1e-12):
        raise ValueError("degenerate correspondence configuration for dlt")
    h_norm = vt[-1].reshape(3, 3)
    h = np.linalg.inv(tb) @ h_norm @ ta
    if abs(np.linalg.det(h)) < 1e-12:
        raise ValueError("degenerate correspondence configuration for dlt")
    m = h / h[2, 2] if abs(h[2, 2]) > 1e-12 else h
    if not np.isfinite(m).all():
        raise ValueError("Homography matrix has non-finite entries")
    if abs(np.linalg.det(m)) <= 1e-15 * np.linalg.norm(m) ** 3:
        raise ValueError("Homography matrix is singular")
    return m


def _oracle_errors(m, pa, pb):
    q = np.concatenate([pa, np.ones((len(pa), 1))], axis=1) @ m.T
    if np.any(np.abs(q[:, 2]) <= 1e-12 * np.linalg.norm(q, axis=1)):
        raise ValueError("point maps to infinity under homography")
    return np.sqrt(((q[:, :2] / q[:, 2:3] - pb) ** 2).sum(axis=1))


def _oracle_ransac(pa, pb, thresh_px=3.0, confidence=0.995, max_iter=2000, seed=0):
    n = len(pa)
    if n < 4:
        raise ValueError(f"ransac needs at least 4 matches, got {n}")
    rng = np.random.default_rng(seed)
    best_count = 0
    best_mask = None
    needed = max_iter
    every, seen = n * (n - 1) * (n - 2) * (n - 3), set()
    i = 0
    while i < min(needed, max_iter) and len(seen) < every:
        i += 1
        sample = rng.choice(n, size=4, replace=False)
        seen.add(tuple(sample))
        try:
            cand = _oracle_dlt(pa[sample], pb[sample])
        except ValueError:
            continue
        try:
            err = _oracle_errors(cand, pa, pb)
        except ValueError:
            continue
        mask = err < thresh_px
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            ratio = count / n
            if ratio >= 1.0:
                break
            denom = np.log(max(1.0 - ratio ** 4, 1e-12))
            needed = int(np.ceil(np.log(max(1.0 - confidence, 1e-12)) / denom))
    if best_mask is None or best_count < 4:
        raise EstimationFailure(f"no homography with >= 4 inliers in {i} iterations", i)
    refit = _oracle_dlt(pa[best_mask], pb[best_mask])
    final_mask = _oracle_errors(refit, pa, pb) < thresh_px
    if final_mask.sum() < 4:
        final_mask = best_mask
    return refit, final_mask, i


def _outcome(fit, pa, pb, **kw):
    """What a RANSAC call produced, in comparable form."""
    try:
        with np.errstate(all="ignore"):
            m, mask, iterations = fit(pa, pb, **kw)
    except (ValueError, EstimationFailure) as e:
        return type(e).__name__, str(e), getattr(e, "iterations", None)
    return "ok", np.asarray(m).tobytes(), mask.tobytes(), iterations


def _assert_same_as_oracle(pa, pb, **kw):
    got = _outcome(lambda a, b, **k: ransac_homography(a, b, **k), pa, pb, **kw)
    want = _outcome(_oracle_ransac, pa, pb, **kw)
    assert got == want
    return got


def _scene(rng, n, outlier_share, noise=0.5):
    """n matches on a 96x96 frame under a mild random homography, a share of
    them replaced by uniform outliers."""
    h = random_homography(rng, scale=10.0)
    pa = rng.uniform(0, 96, size=(n, 2))
    pb = h.apply(pa) + rng.normal(0, noise, size=(n, 2))
    out = rng.random(n) < outlier_share
    pb[out] = rng.uniform(0, 96, size=(int(out.sum()), 2))
    return pa, pb


# the chunks are 8, 16, 32, ... hypotheses; these iteration counts end one
CHUNK_ENDS = {8 * (2 ** m - 1) for m in range(1, 12)}


class TestRansacMatchesOracle:
    @pytest.mark.parametrize("outlier_share", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9])
    def test_random_inputs(self, outlier_share):
        rng = np.random.default_rng(int(outlier_share * 100))
        for seed in range(6):
            n = int(rng.integers(4, 120))
            _assert_same_as_oracle(*_scene(rng, n, outlier_share), seed=seed)

    def test_every_size_from_4_to_200(self):
        rng = np.random.default_rng(20)
        for n in range(4, 201):
            _assert_same_as_oracle(*_scene(rng, n, 0.4), seed=n, max_iter=150)

    def test_all_outliers(self):
        rng = np.random.default_rng(21)
        pa = rng.uniform(0, 96, size=(60, 2))
        pb = rng.uniform(0, 96, size=(60, 2))
        out = _assert_same_as_oracle(pa, pb, thresh_px=0.5, seed=2)
        # each sample fits its own 4 points, which never stops the search
        assert out[0] == "ok" and out[-1] == 2000

    def test_duplicate_points(self):
        rng = np.random.default_rng(22)
        for seed in range(8):
            pa, pb = _scene(rng, 40, 0.3)
            dup = rng.integers(0, 40, size=25)
            pa[dup], pb[dup] = pa[0], pb[0]
            _assert_same_as_oracle(pa, pb, seed=seed)
        # every match the same point: every sample is degenerate
        out = _assert_same_as_oracle(np.ones((9, 2)), np.ones((9, 2)) * 3, seed=1, max_iter=77)
        assert out == ("EstimationFailure", "no homography with >= 4 inliers in 77 iterations", 77)

    def test_collinear_samples(self):
        rng = np.random.default_rng(23)
        for seed in range(8):
            pa, pb = _scene(rng, 50, 0.2)
            line = rng.random(50) < 0.6
            t = rng.uniform(0, 96, size=int(line.sum()))
            pa[line] = np.stack([t, 0.5 * t + 10], axis=1)
            pb[line] = np.stack([t + 2, 0.5 * t + 13], axis=1)
            _assert_same_as_oracle(pa, pb, seed=seed)

    def test_sample_sending_a_point_to_infinity(self):
        # the true map sends the line x = 100 to infinity; the match at
        # x = 100 is an outlier, and every all-inlier sample's fit sends it
        # to infinity, so those best hypotheses are skipped
        rng = np.random.default_rng(24)
        h = Homography(np.array([[1.0, 0, 0], [0, 1, 0], [-0.01, 0, 1]]))
        pa = rng.uniform(0, 90, size=(30, 2))
        pb = h.apply(pa)
        pa = np.concatenate([pa, [[100.0, 40.0]]])
        pb = np.concatenate([pb, [[50.0, 50.0]]])
        with pytest.raises(ValueError, match="infinity"):
            _oracle_errors(_oracle_dlt(pa[:4], pb[:4]), pa, pb)
        for seed in range(4):
            _assert_same_as_oracle(pa, pb, seed=seed, max_iter=300)

    @pytest.mark.parametrize("max_iter", [1, 5, 13, 37, 101, 999])
    def test_max_iter_not_a_chunk_multiple(self, max_iter):
        rng = np.random.default_rng(25)
        pa, pb = _scene(rng, 50, 0.95)
        out = _assert_same_as_oracle(pa, pb, seed=3, max_iter=max_iter)
        assert out[-1] == max_iter

    def test_adaptive_stop_inside_a_chunk(self):
        rng = np.random.default_rng(26)
        stops = set()
        for seed in range(20):
            out = _assert_same_as_oracle(*_scene(rng, 80, 0.5), seed=seed)
            stops.add(out[-1])
        assert stops - CHUNK_ENDS - {2000}

    def test_stop_when_every_match_is_an_inlier(self):
        rng = np.random.default_rng(27)
        h = random_homography(rng)
        pa = rng.uniform(0, 96, size=(25, 2))
        out = _assert_same_as_oracle(pa, h.apply(pa), seed=4)
        assert out[0] == "ok" and out[-1] == 1
        assert np.frombuffer(out[2], dtype=bool).all()

    @pytest.mark.parametrize("n", [4, 5])
    def test_stop_once_every_sample_is_drawn(self, n):
        # collinear matches: every sample is degenerate, and after all
        # n(n-1)(n-2)(n-3) orderings have been drawn no draw is new
        t = np.linspace(0, 1, n)
        pa = np.stack([t * 100, t * 100], axis=1)
        out = _assert_same_as_oracle(pa, pa * 0.5, seed=5)
        assert out[0] == "EstimationFailure"
        assert n * (n - 1) * (n - 2) * (n - 3) <= out[-1] < 2000
        assert out[1] == f"no homography with >= 4 inliers in {out[-1]} iterations"

    def test_failure_carries_iterations(self):
        t = np.linspace(0, 1, 12)
        pa = np.stack([t * 100, t * 100], axis=1)
        with pytest.raises(EstimationFailure) as exc:
            ransac_homography(pa, pa * 0.5, max_iter=50, seed=1)
        assert exc.value.iterations == 50


class TestStackedDLT:
    def _sets(self, rng, k, n):
        pa = rng.uniform(0, 200, size=(k, n, 2))
        pb = pa @ rng.normal(1, 0.1, size=(2, 2)) + rng.normal(0, 2, size=(k, n, 2))
        return pa, pb

    @pytest.mark.parametrize("k", [1, 3, 64])
    def test_rows_equal_per_set_calls(self, k):
        rng = np.random.default_rng(30 + k)
        for n in (4, 5, 9, 17, 64, 200):
            pa, pb = self._sets(rng, k, n)
            stacked = dlt(pa, pb)
            assert stacked.shape == (k, 3, 3) and stacked.dtype == np.float64
            for j in range(k):
                assert stacked[j].tobytes() == dlt(pa[j], pb[j]).matrix.tobytes()
                assert stacked[j].tobytes() == _oracle_dlt(pa[j], pb[j]).tobytes()

    def test_nan_rows_where_a_set_is_rejected(self):
        rng = np.random.default_rng(40)
        pa, pb = self._sets(rng, 6, 4)
        pa[1, 1], pb[1, 1] = pa[1, 0], pb[1, 0]              # a repeated match: rank test
        pa[3] = rng.uniform(0, 1e7, size=(4, 2))             # det < 1e-12
        pb[3] = rng.uniform(0, 1e-3, size=(4, 2))
        pa[4] = rng.uniform(0, 1e-6, size=(4, 2))            # Homography: singular
        t = rng.uniform(0, 50, size=4)
        pb[4] = np.stack([t, 2 * t + 1], axis=1)
        rejected = {1: "degenerate", 3: "degenerate", 4: "singular"}
        stacked = dlt(pa, pb)
        for j in range(6):
            if j in rejected:
                for fit in (_oracle_dlt, dlt):
                    with pytest.raises(ValueError, match=rejected[j]):
                        fit(pa[j], pb[j])
                assert np.isnan(stacked[j]).all()
            else:
                assert stacked[j].tobytes() == _oracle_dlt(pa[j], pb[j]).tobytes()

    def test_single_set_equals_oracle(self):
        rng = np.random.default_rng(41)
        for n in range(4, 60):
            pa, pb = self._sets(rng, 1, n)
            assert dlt(pa[0], pb[0]).matrix.tobytes() == _oracle_dlt(pa[0], pb[0]).tobytes()


class TestPointChecks:
    def test_ransac_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="matching"):
            ransac_homography(np.zeros((30, 2)), np.zeros((30, 3)))

    def test_ransac_rejects_nan(self):
        rng = np.random.default_rng(50)
        pa, pb = _scene(rng, 30, 0.0)
        pb[7, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ransac_homography(pa, pb)

    def test_ransac_rejects_inf(self):
        rng = np.random.default_rng(51)
        pa, pb = _scene(rng, 30, 0.0)
        pa[3, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            ransac_homography(pa, pb)

    def test_dlt_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="matching"):
            dlt(np.zeros((6, 2)), np.zeros((6, 3)))
        with pytest.raises(ValueError, match="matching"):
            dlt(np.zeros((2, 6, 2)), np.zeros((3, 6, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_dlt_rejects_non_finite(self, bad):
        pts = np.arange(16.0).reshape(8, 2) ** 1.5
        moved = pts.copy()
        moved[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            dlt(pts, moved)
        with pytest.raises(ValueError, match="finite"):
            dlt(np.stack([pts, moved]), np.stack([pts, pts]))
