"""Backbone variants and rotation-invariant features: the equivariant
backbones keep their coarse/fine features invariant under quarter turns of
the input, the plain baseline does not.

Run:  python3 demos/04_backbone_invariance.py
"""
import numpy as np

from rotmatch.backbone import Backbone, BackboneConfig, extract
from rotmatch.nn import param_count

rng = np.random.default_rng(7)
ys, xs = np.mgrid[0:64, 0:64] / 63.0
img = np.stack([np.sin(9 * xs + 3 * c) * np.cos(7 * ys - c) for c in range(3)])
img = ((img - img.min()) / (img.max() - img.min())).astype(np.float32)

print(f"{'variant':10s} {'params':>9s} {'coarse dev':>12s} {'fine dev':>12s}")
for variant in ("plain", "c4star", "c4", "c8star"):
    model = Backbone(BackboneConfig(variant=variant),
                     rng=np.random.default_rng(0))
    pair = extract(model, img)
    pair_rot = extract(model, np.ascontiguousarray(np.rot90(img, 1, axes=(1, 2))))

    def interior_dev(a, b):
        ref = np.rot90(b, 1, axes=(1, 2))
        a, ref = a[:, 1:-1, 1:-1], ref[:, 1:-1, 1:-1]
        return np.abs(a - ref).max() / max(np.abs(ref).max(), 1e-9)

    dev_c = interior_dev(pair_rot.coarse.data, pair.coarse.data)
    dev_f = interior_dev(pair_rot.fine.data, pair.fine.data)
    print(f"{variant:10s} {param_count(model):9d} {dev_c:12.2e} {dev_f:12.2e}")

print("\nThe starred variants keep the plain channel budget, so their")
print("parameter count drops by roughly the group order; c4 doubles the")
print("intermediate features to spend a comparable parameter budget.")
