"""Homography estimation (normalized DLT + RANSAC) and evaluation metrics:
corner error, corner-error AUC, and mean matching accuracy.

Points are (x, y) in the pixel-center convention used throughout: pixel
(row r, col c) has coordinates (c + 0.5, r + 0.5), the image spans
[0, w] x [0, h], and image corners are (0,0), (w,0), (0,h), (w,h).
"""

from dataclasses import dataclass, field

import numpy as np


class EstimationFailure(Exception):
    """RANSAC could not find a homography with enough inliers; `iterations`
    is the number of hypotheses it drew."""

    def __init__(self, message, iterations):
        super().__init__(message)
        self.iterations = iterations


def _singular(m):
    """[...] flags for [..., 3, 3] matrices: |det m| against the matrix's own
    scale, since |det m| is at most ‖m‖³ / 3^1.5."""
    norm = np.linalg.norm(m, axis=(-2, -1))
    return np.abs(np.linalg.det(m)) <= 1e-15 * (norm * norm * norm)


def _project(matrices, points):
    """Map [n, 2] points by [..., 3, 3] matrices. Returns the [..., n, 2]
    images and a [...] flag for any denominator that vanishes against its
    point's scale, |q_z| <= 1e-12·‖q‖ for the homogeneous image q."""
    ph = np.concatenate([points, np.ones((len(points), 1))], axis=1)
    q = ph @ np.swapaxes(matrices, -1, -2)
    at_infinity = (np.abs(q[..., 2]) <= 1e-12 * np.linalg.norm(q, axis=-1)).any(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return q[..., :2] / q[..., 2:3], at_infinity


@dataclass(frozen=True)
class Homography:
    """3x3 projective map with scale-normalized comparison semantics."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError("Homography requires a 3x3 matrix")
        if not np.isfinite(m).all():
            raise ValueError("Homography matrix has non-finite entries")
        if _singular(m):
            raise ValueError("Homography matrix is singular")
        object.__setattr__(self, "matrix", m)

    def __array__(self, dtype=None):
        return self.matrix.astype(dtype) if dtype else self.matrix

    def apply(self, points):
        """Map (n, 2) points; raises when a point maps to infinity."""
        p = np.asarray(points, dtype=np.float64)
        single = p.ndim == 1
        out, at_infinity = _project(self.matrix, np.atleast_2d(p))
        if at_infinity:
            raise ValueError("point maps to infinity under homography")
        return out[0] if single else out

    def inverse(self):
        return Homography(np.linalg.inv(self.matrix))

    def compose(self, other):
        """self after other: (self @ other)(p) = self(other(p))."""
        return Homography(self.matrix @ other.matrix)

    def normalized(self):
        """Scale to unit Frobenius norm, sign fixed so the largest-magnitude
        entry is positive."""
        m = self.matrix / np.linalg.norm(self.matrix)
        flat = np.abs(m).argmax()
        if m.flat[flat] < 0:
            m = -m
        return m


def projective_distance(h1, h2):
    a = h1.normalized() if isinstance(h1, Homography) else Homography(h1).normalized()
    b = h2.normalized() if isinstance(h2, Homography) else Homography(h2).normalized()
    return float(np.linalg.norm(a - b))


def _point_pairs(points_a, points_b, name, ndims):
    """Both point arrays as float64, checked to be finite and of one shape
    [..., n, 2] with `ndims` dimensions."""
    pa = np.asarray(points_a, dtype=np.float64)
    pb = np.asarray(points_b, dtype=np.float64)
    if pa.shape != pb.shape or pa.ndim not in ndims or pa.shape[-1] != 2:
        shapes = "(n, 2)" if ndims == (2,) else "(n, 2) or (k, n, 2)"
        raise ValueError(f"{name} expects matching {shapes} point arrays, "
                         f"got {pa.shape} and {pb.shape}")
    if not (np.isfinite(pa).all() and np.isfinite(pb).all()):
        raise ValueError(f"{name} expects finite points")
    return pa, pb


def _hartley_normalization(points):
    """Similarity transforms sending each [..., n, 2] set's centroid to 0 and
    RMS radius to sqrt(2), as [..., 3, 3] matrices."""
    c = points.mean(axis=-2)
    rms = np.sqrt(((points - c[..., None, :]) ** 2).sum(axis=-1).mean(axis=-1))
    s = np.sqrt(2.0) / np.maximum(rms, 1e-12)
    t = np.zeros(points.shape[:-2] + (3, 3))
    t[..., 0, 0] = t[..., 1, 1] = s
    t[..., :2, 2] = -s[..., None] * c
    t[..., 2, 2] = 1
    return t


def dlt(points_a, points_b):
    """Hartley-normalized direct linear transform, for one point set or a
    stack of them.

    Args:
        points_a, points_b: (n, 2) corresponding points, n >= 4, or
            (k, n, 2) for k sets solved at once.

    Returns:
        For (n, 2): the Homography mapping points_a to points_b
        (least-squares for n > 4); raises ValueError for a degenerate set.
        For (k, n, 2): a float64 (k, 3, 3) array whose row j is bitwise
        `dlt(points_a[j], points_b[j]).matrix`, or NaN where that call
        would raise.
    """
    pa, pb = _point_pairs(points_a, points_b, "dlt", (2, 3))
    n = pa.shape[-2]
    if n < 4:
        raise ValueError(f"dlt needs at least 4 correspondences, got {n}")
    # both sides at once: [2, ..., n, 2] points, [2, ..., 3, 3] transforms
    p = np.stack([pa, pb])
    t = _hartley_normalization(p)
    q = np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1) @ np.swapaxes(t, -1, -2)
    qa, qb = q[0, ..., :2], q[1, ..., :2]
    # rows 2i and 2i + 1 of the [..., 2n, 9] system hold correspondence i
    a = np.zeros(pa.shape[:-2] + (n, 2, 9))
    a[..., 0, 0:2] = a[..., 1, 3:5] = -qa
    a[..., 0, 2] = a[..., 1, 5] = -1
    a[..., 6:8] = qa[..., None, :] * qb[..., :, None]
    a[..., 8] = qb
    a = a.reshape(pa.shape[:-2] + (2 * n, 9))
    # coordinates near the float64 limit overflow; one non-finite set must
    # not fail the SVD of the whole stack
    finite = np.isfinite(a).all(axis=(-2, -1))
    # a 4-point system is wide and needs the full V for its null vector;
    # a taller one gets the same s and V without the 2n x 2n U
    _, s, vt = np.linalg.svd(np.where(finite[..., None, None], a, 0.0), full_matrices=n == 4)
    h_norm = vt[..., -1, :].reshape(pa.shape[:-2] + (3, 3))
    h = np.linalg.inv(t[1]) @ h_norm @ t[0]
    # a rank deficiency beyond the expected one signals a degenerate set
    degenerate = (~finite | (n == 4) & (s[..., -2] < 1e-9 * np.maximum(s[..., 0], 1e-12))
                  | (np.abs(np.linalg.det(h)) < 1e-12))
    # scaled so h[2, 2] = 1 where that entry is not too small (x / 1.0 is x)
    h22 = h[..., 2:, 2:]
    h = h / np.where(np.abs(h22) > 1e-12, h22, 1.0)
    if pa.ndim == 2:
        if degenerate:
            raise ValueError("degenerate correspondence configuration for dlt")
        return Homography(h)
    bad = degenerate | ~np.isfinite(h).all(axis=(-2, -1))
    bad[~bad] = _singular(h[~bad])
    h[bad] = np.nan
    return h


def reprojection_errors(h, points_a, points_b):
    """Forward reprojection error |H(a) - b| per correspondence."""
    mapped = h.apply(points_a)
    return np.sqrt(((mapped - np.asarray(points_b)) ** 2).sum(axis=1))


def ransac_homography(points_a, points_b, thresh_px=3.0, confidence=0.995,
                      max_iter=2000, seed=0):
    """Robust homography fit: repeated 4-point minimal DLT with adaptive
    iteration count, final re-fit on the best inlier set.

    The samples are drawn one `rng.choice` at a time and solved in chunks
    (8, then twice as many each time) by one stacked `dlt` call; the chunk
    is then walked in draw order, so hypotheses drawn past the stopping
    point are never read. The search also stops once every one of the
    n(n-1)(n-2)(n-3) ordered samples has been drawn: later draws repeat a
    solved sample, which cannot beat the best count, so only the iteration
    count is smaller for it (24 at most with 4 matches, not `max_iter`).

    Returns (Homography, inlier_mask, iterations). Raises ValueError for
    point arrays that are not matching, finite (n, 2) arrays with n >= 4,
    and EstimationFailure when no model reaches 4 inliers. Deterministic
    given the seed.
    """
    pa, pb = _point_pairs(points_a, points_b, "ransac", (2,))
    n = len(pa)
    if n < 4:
        raise ValueError(f"ransac needs at least 4 matches, got {n}")
    rng = np.random.default_rng(seed)
    best_count = 0
    best_mask = None
    stop = max_iter
    every = n * (n - 1) * (n - 2) * (n - 3)   # distinct ordered samples
    seen = set()
    chunk = 8
    i = 0
    while i < stop:
        draws = [rng.choice(n, size=4, replace=False).tobytes()
                 for _ in range(min(chunk, stop - i))]
        chunk *= 2
        # a sample drawn again (often, when n is small) is solved once
        slots = {d: u for u, d in enumerate(dict.fromkeys(draws))}
        samples = np.frombuffer(b"".join(slots), dtype=np.int64).reshape(-1, 4)
        mapped, at_infinity = _project(dlt(pa[samples], pb[samples]), pa)
        # NaN rows (degenerate samples) count no inliers
        masks = np.sqrt(((mapped - pb) ** 2).sum(axis=-1)) < thresh_px
        counts = masks.sum(axis=1).tolist()
        for d in draws:
            u = slots[d]
            i += 1
            seen.add(d)
            if counts[u] > best_count and not at_infinity[u]:
                best_count = counts[u]
                best_mask = masks[u]
                ratio = best_count / n
                if ratio >= 1.0:
                    stop = i
                else:
                    denom = np.log(max(1.0 - ratio ** 4, 1e-12))
                    needed = int(np.ceil(np.log(max(1.0 - confidence, 1e-12)) / denom))
                    stop = min(needed, max_iter)
            if len(seen) == every:
                stop = i
            if i >= stop:
                break
    if best_mask is None or best_count < 4:
        raise EstimationFailure(f"no homography with >= 4 inliers in {i} iterations", i)
    refit = dlt(pa[best_mask], pb[best_mask])
    final_mask = reprojection_errors(refit, pa, pb) < thresh_px
    if final_mask.sum() < 4:
        final_mask = best_mask
    return refit, final_mask, i


def corner_error(h_gt, h_est, w, h):
    """Mean distance between the four image corners warped by the ground
    truth versus the estimated homography. `h_est=None` (estimation failure)
    scores +inf."""
    if h_est is None:
        return float("inf")
    corners = np.array([[0.0, 0.0], [w, 0.0], [0.0, h], [w, h]])
    try:
        a = h_gt.apply(corners)
        b = h_est.apply(corners)
    except ValueError:
        return float("inf")
    return float(np.sqrt(((a - b) ** 2).sum(axis=1)).mean())


def mma(matches, h_gt, thresholds=(3.0, 5.0, 10.0)):
    """Fraction of matches within each reprojection-error threshold.

    A pair with zero matches scores 0 at every threshold.
    """
    if len(matches) == 0:
        return {float(t): 0.0 for t in thresholds}
    pa = np.array([m.point_a for m in matches], dtype=np.float64)
    pb = np.array([m.point_b for m in matches], dtype=np.float64)
    err = reprojection_errors(h_gt, pa, pb)
    return {float(t): float((err <= t).mean()) for t in thresholds}


def auc(errors, threshold):
    """Normalized area under the corner-error accuracy curve up to the
    threshold, in percent; closed form from the exact step function:
    each pair with error e contributes max(0, T - e) / (T * n) * 100."""
    if threshold <= 0:
        raise ValueError("auc threshold must be positive")
    errs = np.asarray(list(errors), dtype=np.float64)
    if errs.size == 0:
        return 0.0
    contrib = np.clip(threshold - errs, 0.0, threshold) / threshold
    return float(contrib.mean() * 100.0)


@dataclass
class PairStats:
    """What the pipeline did on one pair; kept on the report, not in its CSV."""
    coarse_matches: int = 0
    fine_windows: int = 0        # windows the fine stage computed
    fine_dropped: int = 0        # windows that left a fine map
    ransac_iterations: int = 0
    failure: str = None          # too_few_matches | estimation_failure | value_error


@dataclass
class MetricsReport:
    """Per-pair corner errors and MMA fractions with split tags, plus the
    aggregates the tables report."""

    pair_ids: list = field(default_factory=list)
    splits: list = field(default_factory=list)
    corner_errors: list = field(default_factory=list)
    mma_fractions: list = field(default_factory=list)   # dict threshold -> fraction
    pair_stats: list = field(default_factory=list)      # PairStats or None per pair
    n_failures: int = 0
    thresholds: tuple = (3.0, 5.0, 10.0)

    def add_pair(self, pair_id, split, corner_err, mma_frac, failed=False, stats=None):
        self.pair_ids.append(pair_id)
        self.splits.append(split)
        self.corner_errors.append(float(corner_err))
        self.mma_fractions.append({float(k): float(v) for k, v in mma_frac.items()})
        self.pair_stats.append(stats)
        if failed:
            self.n_failures += 1

    def _select(self, split):
        if split == "all":
            return list(range(len(self.pair_ids)))
        return [i for i, s in enumerate(self.splits) if s == split]

    def split_names(self):
        return ["all"] + sorted(set(self.splits))

    def auc_at(self, threshold, split="all"):
        idx = self._select(split)
        return auc([self.corner_errors[i] for i in idx], threshold) if idx else 0.0

    def mma_at(self, threshold, split="all"):
        idx = self._select(split)
        if not idx:
            return 0.0
        return float(np.mean([self.mma_fractions[i][float(threshold)] for i in idx]) * 100.0)

    def rows(self, dataset, variant):
        """CSV rows: dataset,variant,split,metric,threshold,value."""
        out = []
        for split in self.split_names():
            for t in self.thresholds:
                out.append((dataset, variant, split, "auc", t, self.auc_at(t, split)))
            for t in self.thresholds:
                out.append((dataset, variant, split, "mma", t, self.mma_at(t, split)))
        return out
