"""Coarse-to-fine matcher: positional encoding, alternating self/cross
linear attention, dual-softmax mutual-max coarse matching in row blocks, and
subpixel refinement of fine feature windows under softmax attention.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import COARSE_STRIDE, FINE_STRIDE
from .nn import Linear, Module
from .tensor import Tensor

TEMPERATURE = 0.1     # similarity softmax temperature
FINE_WINDOW = 5       # odd window size on the fine grid
# most bytes of one block of coarse scores that `mutual_matches` holds; its
# exp, sum and candidate passes run faster on a block that fits a 2 MiB L2
SCORE_BLOCK_BYTES = 2 << 20


@dataclass
class MatcherConfig:
    theta_c: float = 0.2          # matching confidence threshold, in (0, 1]
    d_model: int = 64             # feature width after projection
    n_blocks: int = 4             # alternating self/cross blocks (2+2)
    n_heads: int = 4

    def validate(self):
        if not 0.0 < self.theta_c <= 1.0:   # at 0, all t x s scores are match candidates
            raise ValueError(f"theta_c must lie in (0, 1], got {self.theta_c}")
        if self.d_model < 4 or self.d_model % 4:
            raise ValueError(f"d_model must be a positive multiple of 4 (the positional "
                             f"encoding has four channel groups), got {self.d_model}")
        if self.n_heads < 1 or self.d_model % self.n_heads:
            raise ValueError(f"d_model ({self.d_model}) must be divisible by "
                             f"n_heads ({self.n_heads})")
        return self


@dataclass
class CoarseMatchSet:
    idx_a: np.ndarray         # flat coarse-grid indices in image A
    idx_b: np.ndarray         # flat coarse-grid indices in image B
    confidence: np.ndarray
    grid_a: tuple             # (hc, wc)
    grid_b: tuple

    def __len__(self):
        return len(self.idx_a)


@dataclass
class FineMatch:
    point_a: tuple            # (x, y) pixels: coarse cell center in A
    point_b: tuple            # (x, y) pixels: subpixel position in B
    confidence: float


def positional_encoding(d, hc, wc):
    """Fixed 2-D sinusoidal encoding [d, hc, wc], channels in four groups:
    sin(x), cos(x), sin(y), cos(y) at geometrically spaced frequencies. Each
    group varies along one axis only, so it is computed on that axis."""
    if d % 4:
        raise ValueError(f"positional encoding needs d divisible by 4, got {d}")
    d4 = d // 4
    freqs = 1.0 / (10000.0 ** (np.arange(d4) / d4))
    fx, fy = freqs[:, None] * np.arange(wc), freqs[:, None] * np.arange(hc)
    pe = np.empty((d, hc, wc), np.float32)
    pe[:d4], pe[d4:2 * d4] = np.sin(fx)[:, None], np.cos(fx)[:, None]
    pe[2 * d4:3 * d4], pe[3 * d4:] = np.sin(fy)[:, :, None], np.cos(fy)[:, :, None]
    return pe


def add_positional_encoding(coarse):
    """Add the fixed sinusoidal encoding to a [d, hc, wc] coarse feature map."""
    d, hc, wc = coarse.shape
    pe = Tensor(positional_encoding(d, hc, wc).astype(coarse.dtype))
    return coarse + pe


def _block_scores(a, bt, rows):
    """Rows `rows` of the scores a @ bt; the caller may overwrite them."""
    return a[rows] @ bt


def _row_blocks(t, s, itemsize):
    """Slices of rows of a t x s score array, each at most SCORE_BLOCK_BYTES."""
    n = max(1, SCORE_BLOCK_BYTES // (s * itemsize))
    return [slice(i, min(i + n, t)) for i in range(0, t, n)]


def _sweep(a, b, theta_c):
    """One pass over blocks of rows of the scores s = a @ bᵀ of [t, d] and
    [s, d] arrays of one dtype, with no t x s array. Each block is exped
    unshifted (so |s| has a bound) and summed over its rows and columns,
    giving the float64 logsumexps r and c; its entries whose row softmax
    exceeds theta_c / 2 become candidates (none at theta_c = 2). Each block
    is one `tensor.fork_join` call, which returns its sums and candidates in
    block order, and c is summed in that order, so no bit depends on the
    lanes. Returns (r, c, ia, ib), with the candidates in row order."""
    dt = a.dtype
    t, s = a.shape[0], b.shape[0]
    # |s_ij| <= |a_i| |b_j|, and every sum of max(t, s) exps must stay normal;
    # NaN features pass, and match nothing (a diverged training step)
    reach = np.linalg.norm(a, axis=1).max() * np.linalg.norm(b, axis=1).max()
    bound = min(-np.log(np.finfo(dt).tiny), np.log(np.finfo(dt).max / max(t, s)))
    if reach > bound:
        raise ValueError(f"coarse scores reach up to {reach:.4g} in magnitude; "
                         f"{dt} exp sums over {max(t, s)} tokens need at most {bound:.4g}")
    bt = np.ascontiguousarray(b.T)

    def sweep(rows):   # one block: its row sums, column sums and candidates
        e = _block_scores(a, bt, rows)
        np.exp(e, out=e)
        sums = e.sum(axis=1)
        # flat indices: 2-D np.nonzero is ~10x slower on these blocks
        cand = rows.start * s + np.flatnonzero(e > (theta_c / 2) * sums[:, None])
        return sums, np.ones(e.shape[0], dt) @ e, cand

    rs, cols, flat = zip(*T.fork_join([lambda rows=rows: sweep(rows)
                                       for rows in _row_blocks(t, s, bt.itemsize)]))
    r = np.log(np.concatenate(rs, dtype=np.float64))
    c = np.log(sum(cols, np.zeros(s)))   # in block order, whichever lane made each
    return (r, c) + np.divmod(np.concatenate(flat), s)


def mutual_matches(a, b, theta_c):
    """Mutual row/column argmax pairs of the dual-softmax confidence of the
    scores s = a @ bᵀ ([t, d] and [s, d] arrays), with confidence above the
    threshold, as (idx_a, idx_b, confidence) in row order.

    One `_sweep` gives the logsumexps r and c and the candidates, the
    entries whose row softmax exceeds theta_c / 2. The log-confidence
    L = 2s - r - c is then computed in float64 for the candidates only, and
    a candidate is kept if it is the first maximum of L among the candidates
    of its row and of its column, with exp(L) > theta_c.

    This is exact. The confidence is the row softmax times a column softmax
    of at most 1, so a kept pair has row softmax > theta_c, and so has every
    entry that ties or beats it in its row or column, its L being as large.
    The factor 2 absorbs float32 rounding in the filter. A row's softmax
    sums to 1, so it has fewer than 2 / theta_c candidates (at most 9 at
    0.2); at theta_c = 0 all t * s scores are candidates.
    """
    dt = np.result_type(a, b, np.float32)
    a, b = np.asarray(a, dt), np.asarray(b, dt)
    if not a.shape[0] or not b.shape[0]:
        return np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0, dt)
    r, c, ia, ib = _sweep(a, b, theta_c)
    L = 2 * np.einsum("ij,ij->i", a[ia], b[ib], dtype=np.float64) - r[ia] - c[ib]
    conf = np.exp(L)
    keep = conf > theta_c
    for own, other in ((ia, ib), (ib, ia)):   # drop all but each row's, then column's, best
        order = np.lexsort((other, -L, own))
        keep[order[np.diff(own[order], prepend=-1) == 0]] = False
    return ia[keep], ib[keep], conf[keep].astype(dt)


def coarse_nll(fa, fb, rows, cols):
    """-(1/n) Σ (2 s_ij - r_i - c_j) over the n pairs (rows, cols): the mean
    negative log dual-softmax confidence, s = fa @ fbᵀ / TEMPERATURE on
    [t, d] and [s, d] Tensors. Its forward pass is one `_sweep`. Its backward
    pass recomputes each block of s and adds its GEMMs into the gradients:
    dL/ds_kl = (a_k e^(s_kl - r_k) + b_l e^(s_kl - c_l) - 2·[kl is a pair]) / n,
    with a_k the pairs in row k and b_l those in column l."""
    a, b, n = fa.data * (1.0 / TEMPERATURE), fb.data, len(rows)
    r, c, _, _ = _sweep(a, b, 2.0)
    s_p = np.einsum("ij,ij->i", a[rows], b[cols], dtype=np.float64)
    out = Tensor(np.asarray(((r[rows] - s_p) + (c[cols] - s_p)).sum() / n, a.dtype))

    def bwd(g):
        bt, da, db = np.ascontiguousarray(b.T), np.empty_like(a), np.zeros_like(b)
        ra, ca = r.astype(a.dtype)[:, None], c.astype(a.dtype)
        per_row = np.bincount(rows, minlength=len(a)).astype(a.dtype)[:, None]
        per_col = np.bincount(cols, minlength=len(b)).astype(a.dtype)
        for blk in _row_blocks(len(a), len(b), bt.itemsize):
            e = _block_scores(a, bt, blk)
            e = np.exp(e - ra[blk]) * per_row[blk] + np.exp(e - ca) * per_col
            da[blk] = e @ b
            db += e.T @ a[blk]
        np.add.at(da, rows, -2 * b[cols])
        np.add.at(db, cols, -2 * a[rows])
        return da * (g / (n * TEMPERATURE)), db * (g / n)

    return T._record(out, (fa, fb), bwd)


def l2_normalize(x, eps=1e-8):
    n2 = T.sum_(x * x, axis=-1, keepdims=True)
    return x * ((n2 + eps) ** -0.5)


def softmax_attention(q, k, v):
    """Scaled dot-product attention softmax(q @ kᵀ / sqrt(head width)) @ v on
    [b, heads, tokens, head width] Tensors, from tape ops. It builds the
    whole [b, heads, t, s] score array: fine windows have 25 tokens."""
    scores = (q @ T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(q.shape[-1]))
    return T.softmax(scores, axis=-1) @ v


def linear_attention(q, k, v):
    """Linear attention (Katharopoulos et al., 2020) on [b, heads, tokens,
    head width] Tensors, from tape ops: with φ = elu + 1,
    (φq @ (φkᵀ @ v)) / (φq @ Σ_s φk). No t x s array exists in either pass."""
    qf, kf = T.elu1(q), T.elu1(k)
    kv = T.transpose(kf, (0, 1, 3, 2)) @ v
    z = T.transpose(T.sum_(kf, axis=2, keepdims=True), (0, 1, 3, 2))
    return (qf @ kv) / (qf @ z)


class MultiHeadAttention(Module):
    """Multi-head attention through `attend(q, k, v)`, an op on
    [b, heads, tokens, head width] Tensors: `linear_attention` over the
    coarse tokens, or `softmax_attention` in the fine windows."""

    def __init__(self, d_model, n_heads, rng, attend, dtype=np.float32):
        super().__init__()
        if d_model % n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self._attend = attend
        self.wq = Linear(d_model, d_model, rng=rng, dtype=dtype)
        # no key bias: under softmax attention it shifts every score in a row
        # by the same amount, which softmax cancels exactly
        self.wk = Linear(d_model, d_model, bias=False, rng=rng, dtype=dtype)
        self.wv = Linear(d_model, d_model, rng=rng, dtype=dtype)
        self.wo = Linear(d_model, d_model, rng=rng, dtype=dtype)

    def __call__(self, x, source):
        b, t, d = x.shape
        s = source.shape[1]

        def split(v, n):
            return T.transpose(T.reshape(v, (b, n, self.n_heads, self.d_head)),
                               (0, 2, 1, 3))

        q = split(self.wq(x), t)
        k = split(self.wk(source), s)
        v = split(self.wv(source), s)
        out = self._attend(q, k, v)
        return self.wo(T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, t, d)))


class AttentionBlock(Module):
    """Multi-head attention through `attend` + feed-forward, each with
    residual and layer norm."""

    def __init__(self, d_model, n_heads, rng, attend, dtype=np.float32):
        super().__init__()
        self.mha = MultiHeadAttention(d_model, n_heads, rng, attend, dtype)
        self.ln1_gain = Tensor(np.ones(d_model), requires_grad=True, dtype=dtype)
        self.ln1_bias = Tensor(np.zeros(d_model), requires_grad=True, dtype=dtype)
        self.ff1 = Linear(d_model, 2 * d_model, rng=rng, dtype=dtype)
        self.ff2 = Linear(2 * d_model, d_model, rng=rng, dtype=dtype)
        self.ln2_gain = Tensor(np.ones(d_model), requires_grad=True, dtype=dtype)
        self.ln2_bias = Tensor(np.zeros(d_model), requires_grad=True, dtype=dtype)

    def __call__(self, x, source):
        x = T.layer_norm(x + self.mha(x, source), self.ln1_gain, self.ln1_bias)
        x = T.layer_norm(x + self.ff2(T.relu(self.ff1(x))), self.ln2_gain, self.ln2_bias)
        return x


class CoarseMatcher(Module):
    """Stage 2-3: projection, alternating self/cross linear attention,
    dual-softmax matching with mutual-max selection."""

    def __init__(self, coarse_dim, cfg, rng=None, dtype=np.float32):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        rng = rng or np.random.default_rng(0)
        self.proj = Linear(coarse_dim, cfg.d_model, rng=rng, dtype=dtype)
        self.blocks = [AttentionBlock(cfg.d_model, cfg.n_heads, rng, linear_attention, dtype)
                       for _ in range(cfg.n_blocks)]

    def transform(self, fa, fb):
        """Project and run the attention stack on [b, t, d] sequences.
        Cross blocks update both sides in parallel with shared weights. From
        `tensor.LANE_PIXELS` pixels per image on, a block's two sides run in
        `tensor.fork_join` lanes, joined after it."""
        fa = self.proj(fa)
        fb = self.proj(fb)
        laned = min(fa.shape[1], fb.shape[1]) * COARSE_STRIDE ** 2 >= T.LANE_PIXELS
        for i, blk in enumerate(self.blocks):   # self blocks at even i, cross at odd
            src_a, src_b = (fa, fb) if i % 2 == 0 else (fb, fa)
            sides = [lambda: blk(fa, src_a), lambda: blk(fb, src_b)]
            fa, fb = T.fork_join(sides) if laned else [side() for side in sides]
        return fa, fb

    def embed(self, feat_a, feat_b):
        """Unit-length token features [hc_a*wc_a, d] and [hc_b*wc_b, d] of one
        pair of [d, hc, wc] coarse maps: positional encoding, attention stack,
        l2 normalization. Differentiable."""
        if feat_a.shape[0] != feat_b.shape[0]:
            raise ValueError("coarse feature widths differ between images")
        fa, fb = self.transform(_tokens(add_positional_encoding(feat_a)),
                                _tokens(add_positional_encoding(feat_b)))
        return l2_normalize(fa[0]), l2_normalize(fb[0])

    def confidence(self, feat_a, feat_b):
        """Full coarse pipeline for one pair of [d, hc, wc] maps -> (P, grids),
        with the whole t x s confidence matrix P = exp(2s - r - c), built in
        place in one array from the logsumexps of `_sweep`."""
        grids = (feat_a.shape[1:], feat_b.shape[1:])
        fa, fb = self.embed(feat_a, feat_b)
        a = fa.data * (1.0 / TEMPERATURE)
        r, c, _, _ = _sweep(a, fb.data, 2.0)
        p = (2 * a) @ fb.data.T   # 2s exactly
        p -= r[:, None]
        p -= c
        return Tensor(np.exp(p, out=p)), grids

    def match(self, feat_a, feat_b):
        fa, fb = self.embed(feat_a, feat_b)
        return self.select(fa.data, fb.data, feat_a.shape[1:], feat_b.shape[1:])

    def select(self, fa, fb, grid_a, grid_b):
        """Mutual-max matches above theta_c of the confidence of two `embed`
        outputs (arrays), without the t x s matrix."""
        idx_a, idx_b, c = mutual_matches(fa * (1.0 / TEMPERATURE), fb, self.cfg.theta_c)
        return CoarseMatchSet(idx_a=idx_a, idx_b=idx_b, confidence=c,
                              grid_a=grid_a, grid_b=grid_b)


def _tokens(x):
    """The [1, h*w, d] token sequence of a [d, h, w] map."""
    return T.transpose(T.reshape(x, (1, x.shape[0], x.shape[1] * x.shape[2])), (0, 2, 1))


class FineMatcher(Module):
    """Stage 4: window cropping, one self+cross attention block, center-vector
    correlation, heatmap expectation."""

    def __init__(self, fine_dim, cfg, rng=None, dtype=np.float32):
        super().__init__()
        cfg.validate()
        self.fine_dim = fine_dim
        rng = rng or np.random.default_rng(0)
        heads = min(cfg.n_heads, fine_dim)
        self.self_block = AttentionBlock(fine_dim, heads, rng, softmax_attention, dtype)
        self.cross_block = AttentionBlock(fine_dim, heads, rng, softmax_attention, dtype)

    def windows(self, match_set, fine_shape_a, fine_shape_b):
        """The fine windows of a CoarseMatchSet that lie inside both fine maps
        (no padding).

        Returns (keep, centers_a, centers_b, points_a): a boolean mask over
        the matches; for the kept ones, the (row, col) window centres on each
        fine grid, and the A-cell centres in pixels as (n, 2) (x, y).
        """
        per = COARSE_STRIDE // FINE_STRIDE
        r = FINE_WINDOW // 2

        def cells(idx, grid, fine_shape):
            rows, cols = np.divmod(idx, grid[1])
            centers = np.stack([rows * per + per // 2, cols * per + per // 2], axis=1)
            inside = ((centers[:, 0] >= r) & (centers[:, 0] < fine_shape[0] - r)
                      & (centers[:, 1] >= r) & (centers[:, 1] < fine_shape[1] - r))
            return rows, cols, centers, inside

        rows, cols, centers_a, inside_a = cells(match_set.idx_a, match_set.grid_a,
                                                fine_shape_a)
        _, _, centers_b, inside_b = cells(match_set.idx_b, match_set.grid_b, fine_shape_b)
        keep = inside_a & inside_b
        points_a = np.stack([(cols[keep] + 0.5) * COARSE_STRIDE,
                             (rows[keep] + 0.5) * COARSE_STRIDE], axis=1)
        return keep, centers_a[keep], centers_b[keep], points_a

    def offsets(self, fine_a, fine_b, centers_a, centers_b):
        """Differentiable subpixel offsets (fine cells) for in-bounds windows.

        Returns (dx, dy, heat) Tensors over the given centers; callers must
        have filtered out-of-bounds windows already.
        """
        w = FINE_WINDOW
        wa = T.crop_windows(fine_a, centers_a, w)   # [n, C, w, w]
        wb = T.crop_windows(fine_b, centers_b, w)
        n = wa.shape[0]
        ta = T.transpose(T.reshape(wa, (n, self.fine_dim, w * w)), (0, 2, 1))
        tb = T.transpose(T.reshape(wb, (n, self.fine_dim, w * w)), (0, 2, 1))
        ta, tb = self.self_block(ta, ta), self.self_block(tb, tb)
        ta, tb = self.cross_block(ta, tb), self.cross_block(tb, ta)
        center = (w * w - 1) // 2
        ca = ta[:, center:center + 1, :]            # [n, 1, d]
        scores = (ca @ T.transpose(tb, (0, 2, 1))) * (1.0 / np.sqrt(self.fine_dim))
        heat = T.softmax(T.reshape(scores, (n, w * w)), axis=-1)
        r = w // 2
        grid = np.arange(w * w)
        col_off = Tensor((grid % w - r).astype(fine_a.dtype).reshape(w * w, 1))
        row_off = Tensor((grid // w - r).astype(fine_a.dtype).reshape(w * w, 1))
        dx = T.reshape(heat @ col_off, (n,))
        dy = T.reshape(heat @ row_off, (n,))
        return dx, dy, heat

    def refine(self, fine_a, fine_b, match_set):
        """Subpixel matches for a CoarseMatchSet; drops windows that leave the
        fine maps (see `windows`) and reports how many were dropped."""
        keep, centers_a, centers_b, points_a = self.windows(
            match_set, fine_a.shape[1:], fine_b.shape[1:])
        dropped = int((~keep).sum())
        if not keep.any():
            return [], dropped
        dx, dy, _ = self.offsets(fine_a, fine_b, centers_a, centers_b)
        out = []
        for pa, (row, col), x, y, conf in zip(points_a.tolist(), centers_b, dx.data,
                                              dy.data, match_set.confidence[keep]):
            point_b = ((col + 0.5 + float(x)) * FINE_STRIDE,
                       (row + 0.5 + float(y)) * FINE_STRIDE)
            out.append(FineMatch(point_a=tuple(pa), point_b=point_b,
                                 confidence=float(conf)))
        return out, dropped


def write_match_file(path, matches):
    """One line per match: `xA yA xB yB confidence`, 6 decimal places."""
    with open(path, "w", encoding="utf-8") as f:
        for m in matches:
            f.write(f"{m.point_a[0]:.6f} {m.point_a[1]:.6f} "
                    f"{m.point_b[0]:.6f} {m.point_b[1]:.6f} {m.confidence:.6f}\n")

