import threading
import time
import tracemalloc

import numpy as np
import pytest

from rotmatch import matcher as M
from rotmatch import tensor as T

from rotmatch.backbone import FINE_STRIDE, Backbone
from rotmatch.config import Config
from rotmatch.matcher import (FINE_WINDOW, CoarseMatcher, CoarseMatchSet,
                              FineMatcher, MatcherConfig, add_positional_encoding,
                              coarse_nll, mutual_matches,
                              positional_encoding, write_match_file)
from rotmatch.model import MatcherModel
from rotmatch.steerable import calibrate_norm_stats
from rotmatch.tensor import GradientTape, Tensor, backward


def dual_softmax(scores):
    """Float64 dense dual-softmax confidence of a score array: the product of
    its row-wise and column-wise softmaxes."""
    s = np.asarray(scores, np.float64)
    rows = np.exp(s - s.max(axis=1, keepdims=True))
    cols = np.exp(s - s.max(axis=0, keepdims=True))
    return rows / rows.sum(axis=1, keepdims=True) * (cols / cols.sum(axis=0, keepdims=True))


def dense_mutual(a, b, theta):
    """Float64 dense reference of `mutual_matches`: the whole dual-softmax
    confidence of a @ bᵀ, its row and column argmaxes (first index wins),
    and the mutual pairs above theta as (idx_a, idx_b, confidence)."""
    conf = dual_softmax(np.asarray(a, np.float64) @ np.asarray(b, np.float64).T)
    row_best, col_best = conf.argmax(axis=1), conf.argmax(axis=0)
    rows = np.arange(conf.shape[0])
    ia = np.nonzero((col_best[row_best] == rows) & (conf[rows, row_best] > theta))[0]
    return ia, row_best[ia], conf[ia, row_best[ia]]


def unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def linear_attention_reference(q, k, v):
    """Numpy forward pass of linear attention on [b, h, t, d] arrays, with
    φ = elu + 1: (φq @ (φkᵀ v)) / (φq · Σ_s φk), φkᵀ as a strided view."""
    def phi(x):
        return np.where(x > 0, x + 1, np.exp(np.minimum(x, 0)))

    qf, kf = phi(q), phi(k)
    kv = np.matmul(np.swapaxes(kf, -1, -2), v)
    z = kf.sum(axis=2)[..., None]
    return np.matmul(qf, kv) / np.matmul(qf, z)


class TestLinearAttention:
    def _qkv(self, t, s, d, seed):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(2, 4, n, d)).astype(np.float32) for n in (t, s, s)]

    @pytest.mark.parametrize("t,s", [(144, 144), (1200, 1200), (4800, 4800), (36, 49)])
    def test_matches_reference(self, t, s):
        # head width 16 (the default d_model 64 over 4 heads): bit for bit;
        # at width 8, BLAS rounds a contiguous φkᵀ and a strided view apart,
        # by float32 rounding of the sums before v's signs cancel in them
        for d, seed in ((16, 0), (8, 1)):
            q, k, v = self._qkv(t, s, d, seed)
            got = M.linear_attention(Tensor(q), Tensor(k), Tensor(v)).data
            want = linear_attention_reference(q, k, v)
            assert got.shape == (2, 4, t, d) and got.dtype == np.float32
            if d == 16:
                assert np.array_equal(got, want)
            else:
                scale = linear_attention_reference(q, k, np.abs(v))
                assert (np.abs(got - want) <= 1e-6 * scale).all()

    def test_no_token_by_token_array(self):
        q, k, v = (Tensor(x) for x in self._qkv(4800, 4800, 16, 2))
        tracemalloc.start()
        try:
            M.linear_attention(q, k, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * q.data.nbytes   # a 4800 x 4800 score array is 30x q


class TestPositionalEncoding:
    def test_deterministic(self):
        a = add_positional_encoding(Tensor(np.zeros((8, 4, 4), dtype=np.float32)))
        b = add_positional_encoding(Tensor(np.zeros((8, 4, 4), dtype=np.float32)))
        assert np.array_equal(a.data, b.data)

    def test_origin_values(self):
        pe = positional_encoding(8, 4, 4)
        d4 = 2
        assert np.allclose(pe[0:d4, 0, 0], 0.0)       # sin(x) at x=0
        assert np.allclose(pe[d4:2 * d4, 0, 0], 1.0)  # cos(x) at x=0
        assert np.allclose(pe[2 * d4:3 * d4, 0, 0], 0.0)
        assert np.allclose(pe[3 * d4:, 0, 0], 1.0)

    def test_not_rotation_invariant(self):
        pe = positional_encoding(32, 8, 8)
        rotated = np.rot90(pe, 1, axes=(1, 2))
        assert np.abs(pe - rotated).max() > 0.1

    def test_d_not_divisible_by_4(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            positional_encoding(6, 4, 4)

    @staticmethod
    def mgrid_encoding(d, hc, wc):
        """Reference: every channel group evaluated on the full 2-D grid."""
        d4 = d // 4
        freqs = 1.0 / (10000.0 ** (np.arange(d4) / d4))
        ys, xs = np.mgrid[0:hc, 0:wc].astype(np.float64)
        return np.concatenate([
            np.sin(freqs[:, None, None] * xs[None]),
            np.cos(freqs[:, None, None] * xs[None]),
            np.sin(freqs[:, None, None] * ys[None]),
            np.cos(freqs[:, None, None] * ys[None]),
        ], axis=0).astype(np.float32)

    @pytest.mark.parametrize("shape", [(32, 12, 12), (32, 8, 8), (64, 30, 40), (64, 60, 80)])
    def test_equals_the_grid_formula_bit_for_bit(self, shape):
        pe = positional_encoding(*shape)
        assert pe.dtype == np.float32
        assert pe.tobytes() == self.mgrid_encoding(*shape).tobytes()

    def test_float64_map_gets_the_float32_encoding(self):
        coarse = np.random.default_rng(0).standard_normal((32, 8, 12))
        out = add_positional_encoding(Tensor(coarse, dtype=np.float64))
        ref = coarse + self.mgrid_encoding(32, 8, 12).astype(np.float64)
        assert out.data.dtype == np.float64
        assert out.data.tobytes() == ref.tobytes()


class TestDualSoftmax:
    def test_hand_arithmetic(self):
        s = np.array([[2.0, 0.0], [0.0, 2.0]])
        p = dual_softmax(s)
        assert np.allclose(np.diag(p), 0.7760, atol=5e-4)
        assert np.allclose(p[0, 1], 0.0141, atol=5e-4)
        ia, ib, conf = mutual_matches(s, np.eye(2), 0.2)
        assert list(zip(ia, ib)) == [(0, 0), (1, 1)]
        assert np.allclose(conf, 0.7760, atol=5e-4)

    def test_theta_one_empty(self):
        rng = np.random.default_rng(0)
        ia, _, _ = mutual_matches(rng.normal(size=(6, 6)), np.eye(6), 1.0)
        assert len(ia) == 0

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(1)
        p = dual_softmax(rng.normal(size=(5, 7)) * 3)
        assert (p > 0).all() and (p < 1).all()

    def test_row_softmax_sums_to_one(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=(5, 7))
        from rotmatch import tensor as T
        rows = T.softmax(Tensor(s), axis=-1).data
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-6)

    def test_row_shift_invariance_of_row_softmax(self):
        # shift invariance of softmax: the row-softmax factor ignores a
        # constant added to a whole row before it is applied
        from rotmatch import tensor as T
        rng = np.random.default_rng(3)
        s = rng.normal(size=(4, 5))
        shifted = s.copy()
        shifted[2] += 7.5
        rows = T.softmax(Tensor(s), axis=-1).data
        rows_shifted = T.softmax(Tensor(shifted), axis=-1).data
        assert np.allclose(rows, rows_shifted, atol=1e-6)
        # a global constant shift leaves the full dual-softmax unchanged
        assert np.allclose(dual_softmax(s), dual_softmax(s + 3.25), atol=1e-6)


class TestMutualMatches:
    def test_symmetric_transpose(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=(6, 6)) * 2
        ia, ib, ca = mutual_matches(s, np.eye(6), 0.01)
        jb, ja, cb = mutual_matches(s.T, np.eye(6), 0.01)
        assert set(zip(ia, ib)) == set(zip(ja, jb))
        assert np.allclose(np.sort(ca), np.sort(cb))

    def test_count_bounded_by_cells(self):
        rng = np.random.default_rng(5)
        ia, ib, _ = mutual_matches(rng.normal(size=(9, 5)), np.eye(5), 0.0)
        assert len(ia) <= 5
        assert len(np.unique(ia)) == len(ia)
        assert len(np.unique(ib)) == len(ib)

    @pytest.mark.parametrize("rows", [53, 7, 1])
    def test_blocked_equals_dense_reference(self, rows, monkeypatch):
        # 53 rows fit one block; 7 rows per block leave a last block of 4
        rng = np.random.default_rng(14)
        t, s, d = 53, 41, 8
        b = rng.normal(size=(s, d))
        a = 4.0 * np.concatenate([b[rng.permutation(s)[:30]] + 0.4 * rng.normal(size=(30, d)),
                                  rng.normal(size=(t - 30, d))])
        monkeypatch.setattr(M, "SCORE_BLOCK_BYTES", rows * s * 8)
        for theta in (0.0, 0.2, 0.5):
            ref_a, ref_b, ref_c = dense_mutual(a, b, theta)
            ia, ib, c = mutual_matches(a, b, theta)
            assert np.array_equal(ia, ref_a) and np.array_equal(ib, ref_b)
            assert np.allclose(c, ref_c, rtol=0, atol=1e-12)
        assert len(mutual_matches(a, b, 0.2)[0]) >= 10

    @pytest.mark.parametrize("rows", [53, 7, 1])
    def test_one_pass_over_score_blocks(self, rows, monkeypatch):
        # every row of the scores is computed exactly once, in whichever lane
        rng = np.random.default_rng(17)
        t, s, d = 53, 41, 8
        a, b = rng.normal(size=(t, d)), rng.normal(size=(s, d))
        made = []
        block_scores = M._block_scores

        def counted(x, bt, sl):
            block = block_scores(x, bt, sl)
            made.extend(range(sl.start, sl.start + block.shape[0]))
            return block

        monkeypatch.setattr(M, "_block_scores", counted)
        monkeypatch.setattr(M, "SCORE_BLOCK_BYTES", rows * s * 8)
        mutual_matches(a, b, 0.0)
        assert sorted(made) == list(range(t))

    @staticmethod
    def laned(theta, dtype, rows, blocks, lanes, monkeypatch):
        """Assert that mutual_matches gives the same bytes in 1 and 2 lanes, at
        `rows` rows per block of 211. A last coordinate, 5.6 in a and -5.6 in
        b, shifts every score by -31.36 and leaves the confidence as it is;
        it brings the column sums near 1, where their log keeps their last
        bits, so that in float64 another order of summing them changes the
        output."""
        rng = np.random.default_rng(19)
        t, s, d = 211, 97, 8
        b = unit(rng.normal(size=(s, d)))
        a = 6.0 * unit(b[rng.integers(0, s, t)] + 0.3 * rng.normal(size=(t, d)))
        a = np.hstack([a, np.full((t, 1), 5.6)]).astype(dtype)
        b = np.hstack([6.0 * b, np.full((s, 1), -5.6)]).astype(dtype)
        monkeypatch.setattr(M, "SCORE_BLOCK_BYTES", rows * s * np.dtype(dtype).itemsize)
        out = []
        for cpus in (1, 2):
            monkeypatch.setattr(T, "LANES", cpus)
            out.append(mutual_matches(a, b, theta))
        assert [len(threads) for _, threads in lanes] == [1, 2]
        assert lanes[0][0] == lanes[1][0] == blocks
        assert len(out[0][0]) >= 20
        for got, want in zip(*out):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("theta", [0.01, 0.2])
    def test_lanes_bit_identical(self, theta, dtype, lanes, monkeypatch):
        # 5 rows per block: 43 blocks, the last of 1 row
        self.laned(theta, dtype, 5, 43, lanes, monkeypatch)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_three_blocks_in_two_lanes(self, dtype, lanes, monkeypatch):
        # 71 rows per block: one block per call, so 3 blocks get two lanes
        self.laned(0.2, dtype, 71, 3, lanes, monkeypatch)

    @pytest.mark.parametrize("rows", [12, 5, 1])
    def test_ties_first_index_wins(self, rows, monkeypatch):
        # rows 0 and 5 of a are equal, and so are rows 2 and 7 of b, so each
        # tie sits in a row and in a column of the confidence
        rng = np.random.default_rng(18)
        t, s, d = 12, 10, 6
        b = rng.normal(size=(s, d))
        b[7] = b[2]
        a = 3.0 * b[rng.permutation(s)[:t % s].tolist() + list(range(s))]
        a[5] = a[0] = 3.0 * b[2]
        monkeypatch.setattr(M, "SCORE_BLOCK_BYTES", rows * s * 8)
        ref_a, ref_b, ref_c = dense_mutual(a, b, 0.0)
        ia, ib, c = mutual_matches(a, b, 0.0)
        assert np.array_equal(ia, ref_a) and np.array_equal(ib, ref_b)
        assert np.allclose(c, ref_c, rtol=0, atol=1e-12)
        assert 0 in ia and 5 not in ia and ib[list(ia).index(0)] == 2 and 7 not in ib

    @pytest.mark.parametrize("rows", [40, 7, 1])
    def test_candidates_equal_dense_reference(self, rows, monkeypatch):
        # rows 6-8 lie near three nearly equal columns 0-2, so each has three
        # row-softmax entries above 0.1, the candidate cut at theta 0.2;
        # column 10 is near eight rows, so row 17, a hair nearer b[10] than
        # b[11], has its confidence argmax at column 11, not its score argmax
        rng = np.random.default_rng(23)
        t, s, d = 40, 36, 16
        b = unit(rng.normal(size=(s, d)))
        b[1:3] = unit(b[0] + 1e-3 * rng.normal(size=(2, d)))
        a = unit(rng.normal(size=(t, d)))
        a[:6] = unit(b[12 + rng.permutation(s - 12)[:6]] + 0.2 * rng.normal(size=(6, d)))
        a[6:9] = unit(b[0] + 0.1 * rng.normal(size=(3, d)))
        a[9:17] = unit(b[10] + 0.1 * rng.normal(size=(8, d)))
        a[17] = unit(b[10] + b[11] + 0.05 * (b[10] - b[11]))
        a *= 8.0
        scores = a @ b.T
        row_soft = T.softmax(Tensor(scores), axis=-1).data
        assert ((row_soft[6:9] > 0.1).sum(axis=1) == 3).all()
        assert scores[17].argmax() == 10 and dual_softmax(scores)[17].argmax() == 11
        monkeypatch.setattr(M, "SCORE_BLOCK_BYTES", rows * s * 8)
        for theta in (0.0, 0.01, 0.2, 0.5, 1.0):
            ref_a, ref_b, ref_c = dense_mutual(a, b, theta)
            ia, ib, c = mutual_matches(a, b, theta)
            assert np.array_equal(ia, ref_a) and np.array_equal(ib, ref_b)
            assert np.allclose(c, ref_c, rtol=0, atol=1e-12)
            assert (theta == 1.0) == (len(ia) == 0)
        ia, ib, _ = mutual_matches(a, b, 0.01)
        assert (17, 11) in zip(ia.tolist(), ib.tolist())

    def test_float32_at_matcher_scale(self):
        # unit b, a = unit / TEMPERATURE, as `select` calls it, against a
        # float64 dense reference
        rng = np.random.default_rng(19)
        t, s, d = 400, 360, 32
        b = unit(rng.normal(size=(s, d)))
        a = unit(np.concatenate([b[rng.permutation(s)[:250]] + 0.1 * rng.normal(size=(250, d)),
                                 rng.normal(size=(t - 250, d))])) / M.TEMPERATURE
        a32, b32 = a.astype(np.float32), b.astype(np.float32)
        ref_a, ref_b, ref_c = dense_mutual(a32, b32, 0.2)
        ia, ib, c = mutual_matches(a32, b32, 0.2)
        assert c.dtype == np.float32 and len(ia) >= 200
        assert np.array_equal(ia, ref_a) and np.array_equal(ib, ref_b)
        assert np.allclose(c, ref_c, rtol=1e-5, atol=0)

    def test_score_range_exact_or_rejected(self):
        # float32 rows of norm 50 against unit rows: scores span [-50, 50],
        # within the float32 exp sums of 300 tokens; norm 100 is not
        rng = np.random.default_rng(20)
        t, s, d = 300, 280, 16
        b = unit(rng.normal(size=(s, d))).astype(np.float32)
        a = unit(rng.normal(size=(t, d))).astype(np.float32)
        ref_a, ref_b, ref_c = dense_mutual(50.0 * a.astype(np.float64), b, 0.0)
        ia, ib, c = mutual_matches(50.0 * a, b, 0.0)
        assert np.isfinite(c).all() and len(ia) >= 100
        assert np.array_equal(ia, ref_a) and np.array_equal(ib, ref_b)
        assert np.allclose(c, ref_c, rtol=1e-5, atol=1e-30)
        with pytest.raises(ValueError, match=r"300 tokens need at most 83\.02"):
            mutual_matches(100.0 * a, b, 0.0)
        # NaN features (a diverged training step) match nothing
        nan = np.full((t, d), np.nan, np.float32)
        assert all(len(x) == 0 for x in mutual_matches(nan, b, 0.0))

    @pytest.mark.parametrize("t, s", [(0, 5), (5, 0)])
    def test_empty_side_matches_nothing(self, t, s):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(t, 4)).astype(np.float32)
        b = rng.normal(size=(s, 4)).astype(np.float32)
        ia, ib, c = mutual_matches(a, b, 0.0)
        assert ia.shape == ib.shape == c.shape == (0,)
        assert ia.dtype == ib.dtype == np.intp and c.dtype == np.float32

    def test_large_match_holds_no_full_matrix(self):
        # 4800 x 4800 tokens (480x640 images); one t x s float32 matrix is 92 MB
        rng = np.random.default_rng(15)
        matcher = CoarseMatcher(coarse_dim=32, cfg=MatcherConfig(), rng=rng)
        fa = Tensor(rng.normal(size=(32, 60, 80)).astype(np.float32))
        fb = Tensor(rng.normal(size=(32, 60, 80)).astype(np.float32))
        tracemalloc.start()
        try:
            matcher.match(fa, fb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4800 * 4800 * 4 / 4

    def test_large_near_duplicates_hold_no_full_matrix(self):
        # 4800 x 4800 tokens at the matcher's scale, each row a near copy of
        # the same column: almost every row matches, and the candidates kept
        # between the sweep and the selection stay small
        rng = np.random.default_rng(24)
        b = unit(rng.normal(size=(4800, 64))).astype(np.float32)
        a = (unit(b + 0.02 * rng.normal(size=b.shape)) / M.TEMPERATURE).astype(np.float32)
        tracemalloc.start()
        try:
            ia, ib, c = mutual_matches(a, b, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4800 * 4800 * 4 / 4
        assert len(ia) >= 4700 and np.array_equal(ia, ib) and (c > 0.2).all()



def dense_nll(fa, fb, rows, cols):
    """Float64 dense reference of `coarse_nll` on [t, d] and [s, d] arrays:
    the two log-softmaxes of s = fa @ fbᵀ / TEMPERATURE read at the pairs,
    and the loss's gradients with respect to fa and fb."""
    s = np.asarray(fa, np.float64) @ np.asarray(fb, np.float64).T / M.TEMPERATURE
    ls, pairs = [], np.zeros_like(s)
    for axis in (1, 0):
        shifted = s - s.max(axis=axis, keepdims=True)
        ls.append(shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True)))
    np.add.at(pairs, (rows, cols), 1.0)
    n = len(rows)
    # d/ds of -(1/n) Σ (ls_row + ls_col): the pair counts less each softmax
    # weighted by its row's or column's pair count
    g = -(2 * pairs - pairs.sum(axis=1, keepdims=True) * np.exp(ls[0])
          - pairs.sum(axis=0, keepdims=True) * np.exp(ls[1])) / n
    loss = -(ls[0] + ls[1])[rows, cols].sum() / n
    return loss, g @ fb / M.TEMPERATURE, g.T @ fa / M.TEMPERATURE


class TestCoarseNll:
    @staticmethod
    def _pairs(t, s, n, seed):
        """Unit features and n pairs, with repeated rows and columns."""
        rng = np.random.default_rng(seed)
        fa, fb = unit(rng.normal(size=(t, 16))), unit(rng.normal(size=(s, 16)))
        rows = np.concatenate([rng.integers(0, t, n - 3), [0, 0, t - 1]])
        cols = np.concatenate([rng.integers(0, s, n - 3), [1, 1, 1]])
        return fa, fb, rows, cols

    @staticmethod
    def _grads(fa, fb, rows, cols, dtype):
        ta, tb = (Tensor(x, requires_grad=True, dtype=dtype) for x in (fa, fb))
        with GradientTape() as tape:
            tape.watch(ta, tb)
            loss, _ = coarse_nll(ta, tb, rows, cols, 0.2)
            grads = backward(loss, tape)
        return loss, grads[ta], grads[tb]

    @pytest.mark.parametrize("t, s, rows", [(37, 53, 53), (53, 37, 7), (40, 40, 1)])
    def test_equals_dense_reference(self, t, s, rows, monkeypatch):
        # one block of 37 rows; 7-row blocks, the last of 4; one row per block
        monkeypatch.setattr(M, "SCORE_BLOCK_BYTES", rows * s * 8)
        fa, fb, pr, pc = self._pairs(t, s, 30, seed=t + s)
        loss, ga, gb = self._grads(fa, fb, pr, pc, np.float64)
        ref, ref_a, ref_b = dense_nll(fa, fb, pr, pc)
        assert loss.shape == () and loss.dtype == np.float64
        assert abs(loss.item() - ref) <= 1e-12 * abs(ref)
        for got, want in ((ga, ref_a), (gb, ref_b)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_float32_near_float64_reference(self):
        fa, fb, rows, cols = self._pairs(90, 70, 60, seed=3)
        fa, fb = fa.astype(np.float32), fb.astype(np.float32)
        loss, ga, gb = self._grads(fa, fb, rows, cols, np.float32)
        ref, ref_a, ref_b = dense_nll(fa, fb, rows, cols)
        assert loss.dtype == ga.dtype == gb.dtype == np.float32
        assert abs(loss.item() - ref) <= 1e-6 * abs(ref)
        for got, want in ((ga, ref_a), (gb, ref_b)):
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    def test_large_pair_holds_no_full_matrix(self):
        # 4800 x 4800 tokens at the matcher's scale, forward and backward
        fa, fb, rows, cols = self._pairs(4800, 4800, 3800, seed=4)
        fa, fb = fa.astype(np.float32), fb.astype(np.float32)
        tracemalloc.start()
        try:
            loss, ga, gb = self._grads(fa, fb, rows, cols, np.float32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4800 * 4800 * 4 / 4
        assert np.isfinite(loss.item()) and np.isfinite(ga).all() and np.isfinite(gb).all()


class TestCoarseMatcher:
    @pytest.mark.parametrize("theta", [0.0, -0.1, 1.5])
    def test_theta_c_outside_unit_interval_rejected(self, theta):
        # theta_c = 0 would make every one of the t x s scores a candidate
        with pytest.raises(ValueError, match=r"theta_c must lie in \(0, 1\]"):
            CoarseMatcher(coarse_dim=8, cfg=MatcherConfig(theta_c=theta))

    def test_identity_assignment_attention_bypassed(self):
        rng = np.random.default_rng(6)
        cfg = MatcherConfig(theta_c=0.05)
        matcher = CoarseMatcher(coarse_dim=16, cfg=cfg, rng=rng)
        matcher.transform = lambda fa, fb: (fa, fb)
        feat = Tensor(rng.normal(size=(16, 4, 4)).astype(np.float32))
        mset = matcher.match(feat, feat)
        # brute-force check: the Gram matrix of distinct unit vectors has its
        # argmax on the diagonal
        assert len(mset) == 16
        assert np.array_equal(mset.idx_a, mset.idx_b)

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-4)])
    def test_confidence_equals_dense_reference(self, dtype, rtol):
        rng = np.random.default_rng(25)
        matcher = CoarseMatcher(coarse_dim=8, cfg=MatcherConfig(d_model=16, n_blocks=2),
                                rng=rng, dtype=dtype)
        fa, fb = (Tensor(rng.normal(size=(8, h, w)), dtype=dtype) for h, w in ((5, 6), (4, 7)))
        conf, grids = matcher.confidence(fa, fb)
        ea, eb = matcher.embed(fa, fb)
        ref = dual_softmax(ea.data.astype(np.float64) @ eb.data.T / M.TEMPERATURE)
        assert grids == ((5, 6), (4, 7)) and conf.dtype == dtype and conf.shape == (30, 28)
        assert np.allclose(conf.data, ref, rtol=rtol, atol=0)

    def test_confidence_builds_one_full_matrix(self):
        # 4800 tokens a side: the scores become the confidence in place
        rng = np.random.default_rng(16)
        matcher = CoarseMatcher(coarse_dim=32, cfg=MatcherConfig(), rng=rng)
        fa, fb = (Tensor(rng.normal(size=(32, 60, 80)).astype(np.float32)) for _ in range(2))
        tracemalloc.start()
        try:
            conf, _ = matcher.confidence(fa, fb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert conf.shape == (4800, 4800) and conf.dtype == np.float32
        assert peak < 1.25 * 4800 * 4800 * 4
        assert np.isfinite(conf.data).all() and conf.data.min() >= 0 and conf.data.max() <= 1
        for axis in (0, 1):
            sums = conf.data.sum(axis=axis, dtype=np.float64)
            assert (sums > 0).all() and (sums <= 1 + 1e-4).all()

    def test_feature_width_mismatch(self):
        cfg = MatcherConfig()
        matcher = CoarseMatcher(coarse_dim=8, cfg=cfg)
        a = Tensor(np.zeros((8, 4, 4), dtype=np.float32))
        b = Tensor(np.zeros((6, 4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="widths differ"):
            matcher.confidence(a, b)

    def test_swap_transposes_matches_bypassed(self):
        rng = np.random.default_rng(7)
        cfg = MatcherConfig(theta_c=0.01)
        matcher = CoarseMatcher(coarse_dim=12, cfg=cfg, rng=rng)
        matcher.transform = lambda fa, fb: (fa, fb)
        fa = Tensor(rng.normal(size=(12, 3, 4)).astype(np.float32))
        fb = Tensor(rng.normal(size=(12, 3, 4)).astype(np.float32))
        ab = matcher.match(fa, fb)
        ba = matcher.match(fb, fa)
        assert set(zip(ab.idx_a, ab.idx_b)) == set(zip(ba.idx_b, ba.idx_a))
        assert np.allclose(np.sort(ab.confidence), np.sort(ba.confidence), atol=1e-6)

    def test_attention_path_runs_and_respects_threshold(self):
        rng = np.random.default_rng(8)
        cfg = MatcherConfig(theta_c=1.0, d_model=16, n_blocks=2, n_heads=2)
        matcher = CoarseMatcher(coarse_dim=8, cfg=cfg, rng=rng)
        fa = Tensor(rng.normal(size=(8, 4, 4)).astype(np.float32))
        fb = Tensor(rng.normal(size=(8, 4, 4)).astype(np.float32))
        assert len(matcher.match(fa, fb)) == 0


class TestFineMatcher:
    def _setup(self, rng, n=3, hw=16):
        cfg = MatcherConfig()
        fm = FineMatcher(fine_dim=8, cfg=cfg, rng=rng)
        fa = Tensor(rng.normal(size=(8, hw, hw)).astype(np.float32))
        fb = Tensor(rng.normal(size=(8, hw, hw)).astype(np.float32))
        return cfg, fm, fa, fb

    def test_concentrated_heatmap_zero_offset(self):
        # identical windows + a dominant self-similar center produce a peaked
        # heatmap; with matching maps the offset expectation stays centered
        rng = np.random.default_rng(9)
        cfg, fm, fa, _ = self._setup(rng)
        centers = np.array([[8, 8]])
        dx, dy, heat = fm.offsets(fa, fa, centers, centers)
        peak = heat.data.argmax()
        exp_x = (heat.data[0] * (np.arange(25) % 5 - 2)).sum()
        assert np.isclose(float(dx.data[0]), exp_x, atol=1e-6)

    def test_uniform_heatmap_zero_offset(self):
        # symmetry of the expectation: constant feature maps give a uniform
        # heatmap whose expected offset is exactly zero
        rng = np.random.default_rng(10)
        cfg = MatcherConfig()
        fm = FineMatcher(fine_dim=8, cfg=cfg, rng=rng)
        fa = Tensor(np.ones((8, 16, 16), dtype=np.float32))
        centers = np.array([[8, 8]])
        dx, dy, heat = fm.offsets(fa, fa, centers, centers)
        assert np.allclose(heat.data, 1.0 / 25.0, atol=1e-6)
        assert abs(float(dx.data[0])) < 1e-6 and abs(float(dy.data[0])) < 1e-6

    def test_offset_bound(self):
        rng = np.random.default_rng(11)
        cfg, fm, fa, fb = self._setup(rng)
        centers = np.array([[5, 5], [8, 9], [10, 4]])
        dx, dy, _ = fm.offsets(fa, fb, centers, centers)
        bound = (FINE_WINDOW / 2) * 1.0
        assert (np.abs(dx.data) <= bound).all() and (np.abs(dy.data) <= bound).all()

    def test_out_of_bounds_windows_dropped(self):
        rng = np.random.default_rng(12)
        cfg = MatcherConfig()
        fm = FineMatcher(fine_dim=8, cfg=cfg, rng=rng)
        fa = Tensor(rng.normal(size=(8, 16, 16)).astype(np.float32))
        # coarse grid 4x4 on a 32px image; corner cells produce windows at
        # fine centers 2 and 14, the right/bottom edges push past the map
        mset = CoarseMatchSet(idx_a=np.array([0, 15]), idx_b=np.array([0, 15]),
                              confidence=np.array([0.9, 0.8]),
                              grid_a=(4, 4), grid_b=(4, 4))
        matches, dropped = fm.refine(fa, fa, mset)
        assert dropped == 1 and len(matches) == 1

    def test_refined_point_within_window_bound(self):
        rng = np.random.default_rng(13)
        cfg = MatcherConfig()
        fm = FineMatcher(fine_dim=8, cfg=cfg, rng=rng)
        fa = Tensor(rng.normal(size=(8, 16, 16)).astype(np.float32))
        fb = Tensor(rng.normal(size=(8, 16, 16)).astype(np.float32))
        mset = CoarseMatchSet(idx_a=np.array([5, 6, 9]), idx_b=np.array([5, 10, 6]),
                              confidence=np.array([0.9, 0.5, 0.4]),
                              grid_a=(4, 4), grid_b=(4, 4))
        matches, _ = fm.refine(fa, fb, mset)
        bound = (FINE_WINDOW / 2) * FINE_STRIDE
        for m, ib in zip(matches, [5, 10, 6]):
            rb, cb = divmod(ib, 4)
            wx = (cb * 4 + 2 + 0.5) * 2
            wy = (rb * 4 + 2 + 0.5) * 2
            assert abs(m.point_b[0] - wx) <= bound
            assert abs(m.point_b[1] - wy) <= bound

    def test_refine_peak_memory_at_480x640(self):
        # one 480x640 pair: [16, 240, 320] fine maps under a 60x80 coarse grid;
        # 1000 cells each matched to itself peaked at 33.4-33.6 MB, 4800 at 160.6 MB
        cfg = Config.default()
        fm = FineMatcher(cfg.backbone.fine_dim, cfg.matcher, rng=np.random.default_rng(0))
        rng = np.random.default_rng(14)
        fa, fb = (Tensor(rng.normal(size=(16, 240, 320)).astype(np.float32)) for _ in "ab")
        idx = np.sort(rng.choice(60 * 80, 1000, replace=False))
        mset = CoarseMatchSet(idx_a=idx, idx_b=idx, confidence=np.ones(1000),
                              grid_a=(60, 80), grid_b=(60, 80))
        tracemalloc.start()
        try:
            matches, dropped = fm.refine(fa, fb, mset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(matches) + dropped == 1000 and 0 < dropped < 60
        assert peak < 40e6


@pytest.fixture(scope="module")
def pair_model():
    """Criterion 8's model config, its norms calibrated on a 240x320 pair,
    which is past `tensor.LANE_PIXELS`: each image's backbone and each side
    of a coarse block run in `tensor.fork_join` lanes."""
    cfg = Config.default()
    cfg.backbone.variant = "c4star"
    cfg.backbone.base_width = 24
    cfg.matcher.d_model = 32
    cfg.matcher.n_blocks = 2
    model = MatcherModel(cfg, rng=np.random.default_rng(0))
    pair = np.random.default_rng(1).random((2, 3, 240, 320)).astype(np.float32)
    assert 240 * 320 >= T.LANE_PIXELS
    calibrate_norm_stats(model.backbone, Tensor(pair))
    return model.eval(), pair


class TestPairLanes:
    @staticmethod
    def match(model, pair):
        """match_pair's bytes (the tokens it matches, then its matches), the
        input and the (coarse, u2, f1) arrays of its backbone passes, and
        the threads that ran those passes and the attention blocks."""
        tokens, passes, threads = [], [], {"backbone": set(), "block": set()}
        select, backbone, block = M.mutual_matches, Backbone.__call__, M.AttentionBlock.__call__

        def run_backbone(self, x):
            threads["backbone"].add(threading.get_ident())
            out = backbone(self, x)
            passes.append((x.data, [v.data for v in out]))
            return out

        def run_block(self, x, source):
            threads["block"].add(threading.get_ident())
            return block(self, x, source)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(M, "mutual_matches", lambda a, b, theta: (
                tokens.append(a.tobytes() + b.tobytes()) or select(a, b, theta)))
            mp.setattr(Backbone, "__call__", run_backbone)
            mp.setattr(M.AttentionBlock, "__call__", run_block)
            mset, matches, dropped = model.match_pair(*pair)
        out = b"".join(tokens + [mset.idx_a.tobytes(), mset.idx_b.tobytes(),
                                 mset.confidence.tobytes(), repr((matches, dropped)).encode()])
        return out, passes, threads

    def test_two_lanes_give_one_lane_bytes(self, pair_model, lanes, monkeypatch):
        model, pair = pair_model
        runs = {}
        for n in (1, 2):
            monkeypatch.setattr(T, "LANES", n)
            runs[n] = self.match(model, pair)
        assert runs[1][0] == runs[2][0]
        for n, (_, passes, threads) in runs.items():
            assert [x.shape[0] for x, _ in passes] == [1, 1]
            assert [len(t) for t in threads.values()] == [n, n]

    def test_image_features_match_the_batch(self, pair_model):
        # a conv gives each image of a batch the bytes it gives it alone
        model, pair = pair_model
        batch = model.backbone(Tensor(pair))
        _, passes, _ = self.match(model, pair)
        for x, maps in passes:
            i = [np.array_equal(x[0], img) for img in pair].index(True)
            for got, want in zip(maps, batch):
                assert got[0].tobytes() == want.data[i].tobytes()

    def test_embed_under_a_tape_runs_here(self, pair_model, monkeypatch):
        model, pair = pair_model
        coarse, _ = model.features(Tensor(pair))
        rng = np.random.default_rng(2)
        ra, rb = (Tensor(rng.normal(size=(1200, 32)).astype(np.float32)) for _ in range(2))
        params = model.coarse.parameters()

        def grads(n):
            monkeypatch.setattr(T, "LANES", n)
            with GradientTape() as tape:
                tape.watch(*params)
                fa, fb = model.coarse.embed(Tensor(coarse.data[0]), Tensor(coarse.data[1]))
                g = backward(T.sum_(fa * ra) + T.sum_(fb * rb), tape)
            return [g[p].tobytes() for p in params]

        monkeypatch.setattr(T, "_POOL", None)
        laned = grads(2)
        assert T._POOL is None
        assert laned == grads(1)

    def test_error_in_one_image_reaches_the_caller_after_the_other(self, pair_model, lanes,
                                                                   monkeypatch):
        model, pair = pair_model
        monkeypatch.setattr(T, "LANES", 2)
        backbone, done = Backbone.__call__, []

        def faulty(self, x):
            if np.array_equal(x.data[0], pair[1]):
                raise ValueError("image B")
            out = backbone(self, x)
            time.sleep(0.05)
            done.append(threading.get_ident())
            return out

        monkeypatch.setattr(Backbone, "__call__", faulty)
        with pytest.raises(ValueError, match="image B"):
            model.match_pair(*pair)
        assert len(done) == 1
        assert [len(threads) for n, threads in lanes if n == 2][:1] == [2]


class TestMatchFile:
    def test_round_trip(self, tmp_path):
        from rotmatch.matcher import FineMatch
        matches = [FineMatch((1.25, 2.5), (3.125, 4.0), 0.875),
                   FineMatch((0.0, 1.0), (2.0, 3.0), 0.5)]
        path = tmp_path / "matches.txt"
        write_match_file(path, matches)
        lines = path.read_text().splitlines()
        back = [[float(v) for v in line.split()] for line in lines]
        assert len(back) == 2
        assert back[0][:2] == [1.25, 2.5]
        assert back[0][4] == 0.875
        assert lines[0] == "1.250000 2.500000 3.125000 4.000000 0.875000"
