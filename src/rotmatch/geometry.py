"""Homography estimation (normalized DLT + RANSAC) and evaluation metrics:
corner error, corner-error AUC, and mean matching accuracy.

Points are (x, y) in the pixel-center convention used throughout: pixel
(row r, col c) has coordinates (c + 0.5, r + 0.5), the image spans
[0, w] x [0, h], and image corners are (0,0), (w,0), (0,h), (w,h).
"""

from dataclasses import dataclass, field

import numpy as np


class EstimationFailure(Exception):
    """RANSAC could not find a homography with enough inliers."""


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
        # against the matrix's own scale: |det m| is at most ‖m‖³ / 3^1.5
        if abs(np.linalg.det(m)) <= 1e-15 * np.linalg.norm(m) ** 3:
            raise ValueError("Homography matrix is singular")
        object.__setattr__(self, "matrix", m)

    def __array__(self, dtype=None):
        return self.matrix.astype(dtype) if dtype else self.matrix

    def apply(self, points):
        """Map (n, 2) points; raises when a denominator vanishes against its
        point's scale, |q_z| <= 1e-12·‖q‖ for the homogeneous image q."""
        p = np.asarray(points, dtype=np.float64)
        single = p.ndim == 1
        p = np.atleast_2d(p)
        ph = np.concatenate([p, np.ones((len(p), 1))], axis=1)
        q = ph @ self.matrix.T
        if np.any(np.abs(q[:, 2]) <= 1e-12 * np.linalg.norm(q, axis=1)):
            raise ValueError("point maps to infinity under homography")
        out = q[:, :2] / q[:, 2:3]
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


def _hartley_normalization(points):
    """Similarity transform sending the centroid to 0 and RMS radius to sqrt(2)."""
    c = points.mean(axis=0)
    rms = np.sqrt(((points - c) ** 2).sum(axis=1).mean())
    s = np.sqrt(2.0) / max(rms, 1e-12)
    t = np.array([[s, 0, -s * c[0]], [0, s, -s * c[1]], [0, 0, 1]])
    return t


def dlt(points_a, points_b):
    """Hartley-normalized direct linear transform.

    Args:
        points_a, points_b: (n, 2) corresponding points, n >= 4.

    Returns:
        Homography mapping points_a to points_b (least-squares for n > 4).
    """
    pa = np.asarray(points_a, dtype=np.float64)
    pb = np.asarray(points_b, dtype=np.float64)
    if pa.shape != pb.shape or pa.ndim != 2 or pa.shape[1] != 2:
        raise ValueError("dlt expects matching (n, 2) point arrays")
    n = len(pa)
    if n < 4:
        raise ValueError(f"dlt needs at least 4 correspondences, got {n}")
    ta = _hartley_normalization(pa)
    tb = _hartley_normalization(pb)
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
    # a rank deficiency beyond the expected one signals a degenerate set
    if n == 4 and s[-2] < 1e-9 * max(s[0], 1e-12):
        raise ValueError("degenerate correspondence configuration for dlt")
    h_norm = vt[-1].reshape(3, 3)
    h = np.linalg.inv(tb) @ h_norm @ ta
    if abs(np.linalg.det(h)) < 1e-12:
        raise ValueError("degenerate correspondence configuration for dlt")
    return Homography(h / h[2, 2] if abs(h[2, 2]) > 1e-12 else h)


def reprojection_errors(h, points_a, points_b):
    """Forward reprojection error |H(a) - b| per correspondence."""
    mapped = h.apply(points_a)
    return np.sqrt(((mapped - np.asarray(points_b)) ** 2).sum(axis=1))


def ransac_homography(points_a, points_b, thresh_px=3.0, confidence=0.995,
                      max_iter=2000, seed=0):
    """Robust homography fit: repeated 4-point minimal DLT with adaptive
    iteration count, final re-fit on the best inlier set.

    Returns (Homography, inlier_mask). Raises EstimationFailure when no
    model reaches 4 inliers. Deterministic given the seed.
    """
    pa = np.asarray(points_a, dtype=np.float64)
    pb = np.asarray(points_b, dtype=np.float64)
    n = len(pa)
    if n < 4:
        raise ValueError(f"ransac needs at least 4 matches, got {n}")
    rng = np.random.default_rng(seed)
    best_count = 0
    best_mask = None
    needed = max_iter
    i = 0
    while i < min(needed, max_iter):
        i += 1
        sample = rng.choice(n, size=4, replace=False)
        try:
            cand = dlt(pa[sample], pb[sample])
        except ValueError:
            continue
        try:
            err = reprojection_errors(cand, pa, pb)
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
        raise EstimationFailure(f"no homography with >= 4 inliers in {i} iterations")
    refit = dlt(pa[best_mask], pb[best_mask])
    final_mask = reprojection_errors(refit, pa, pb) < thresh_px
    if final_mask.sum() < 4:
        final_mask = best_mask
    return refit, final_mask


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
class MetricsReport:
    """Per-pair corner errors and MMA fractions with split tags, plus the
    aggregates the tables report."""

    pair_ids: list = field(default_factory=list)
    splits: list = field(default_factory=list)
    corner_errors: list = field(default_factory=list)
    mma_fractions: list = field(default_factory=list)   # dict threshold -> fraction
    n_failures: int = 0
    thresholds: tuple = (3.0, 5.0, 10.0)

    def add_pair(self, pair_id, split, corner_err, mma_frac, failed=False):
        self.pair_ids.append(pair_id)
        self.splits.append(split)
        self.corner_errors.append(float(corner_err))
        self.mma_fractions.append({float(k): float(v) for k, v in mma_frac.items()})
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
