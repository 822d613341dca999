"""The benchmark harness: synthetic homography scenes, the rotated (r-a)
and corner-warped (h-s) modifications, ground-truth verification, and the
evaluation metrics.

Run:  python3 demos/05_synthetic_benchmark.py
"""
import numpy as np

from rotmatch.datasets import (gt_coarse_assignment, make_rotated,
                               make_synthetic_sequence, make_warped,
                               warp_consistency_psnr)
from rotmatch.geometry import Homography, auc, corner_error, mma

# --- a synthetic scene: one reference image, five homography views -------------
seq = make_synthetic_sequence("demo", 64, 64, seed=42, jitter=False)
print("scene with", len(seq.images_b), "views; image", seq.image_a.shape)
for k, a, b, hom in seq.pairs():
    print(f"  view {k + 2}: photometric consistency "
          f"{warp_consistency_psnr(a, b, hom):.1f} dB")

# --- benchmark modifications ----------------------------------------------------
rot = make_rotated(seq, 45.0, seed=3)
print("\nrotated-by-45 copy; per-image directions:",
      rot.provenance[-1]["per_image"])
print("  GT still consistent:",
      f"{warp_consistency_psnr(rot.image_a, rot.images_b[0], rot.homographies[0], valid_mask=rot.valid_masks[0]):.1f} dB")

warped = make_warped(seq, 0.3, seed=4)
offs = np.array(warped.provenance[-1]["per_image"][0])
print("corner-warped copy (s=0.3); first view's corner offsets (x, y):")
print(np.round(offs, 1))
print("  GT still consistent:",
      f"{warp_consistency_psnr(warped.image_a, warped.images_b[0], warped.homographies[0], valid_mask=warped.valid_masks[0]):.1f} dB")

# --- coarse ground truth ---------------------------------------------------------
assign = gt_coarse_assignment(seq.homographies[0], 64, 64)
print(f"\ncoarse assignment: {np.sum(assign >= 0)}/{assign.size} cells visible")

# --- metrics in isolation ---------------------------------------------------------
h_gt = Homography(np.eye(3))
h_est = Homography(np.array([[1.0, 0, 3], [0, 1, 4], [0, 0, 1]]))
print("\ncorner error of a (3,4) translation:",
      corner_error(h_gt, h_est, 64, 48), "px (a 3-4-5 triangle)")
print("AUC@10 of corner errors {0, 5, 10}:", auc([0.0, 5.0, 10.0], 10.0), "%")


class M:
    def __init__(self, a, b):
        self.point_a, self.point_b = a, b


matches = [M((0, 0), (1, 0)), M((0, 0), (4, 0)), M((0, 0), (12, 0))]
print("MMA of reprojection errors {1, 4, 12}:",
      {t: round(v, 3) for t, v in mma(matches, h_gt).items()})
