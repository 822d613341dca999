"""Full matching model: backbone + coarse matcher + fine refiner, with
single-file checkpoint save/load (the config text sits in the manifest).
"""

import numpy as np

from . import tensor as T
from .backbone import Backbone, check_image
from .checkpoint import checkpoint_config, load_checkpoint, save_checkpoint
from .config import load_config
from .matcher import CoarseMatcher, FineMatcher
from .nn import Module
from .tensor import Tensor


class MatcherModel(Module):
    def __init__(self, config, rng=None, dtype=np.float32):
        super().__init__()
        config.validate()
        self.config = config
        rng = rng or np.random.default_rng(config.train.seed)
        self.backbone = Backbone(config.backbone, rng=rng, dtype=dtype)
        self.coarse = CoarseMatcher(config.backbone.coarse_dim, config.matcher,
                                    rng=rng, dtype=dtype)
        self.fine = FineMatcher(config.backbone.fine_dim, config.matcher,
                                rng=rng, dtype=dtype)

    def features(self, images):
        """Backbone features for a [b, 3, h, w] batch -> (coarse, fine)."""
        return self.backbone.features(images)

    def match_pair(self, img_a, img_b):
        """Match [3, h, w] images of one size, values in [0, 1], in eval mode:
        image A against image B, or against each image of a list of B views.

        One backbone trunk pass (`Backbone.__call__`) over [A, B1..Bn] gives
        the coarse features, and A's tokens are matched against each view's.
        The fine branch (`Backbone.fine_features`) then runs on the whole maps
        of A and of each view whose pair keeps a fine window, and not at all
        if no pair keeps one; `refine` runs for every pair and reports its
        dropped windows. Below `tensor.LANE_PIXELS` pixels the images go
        through one batched pass; from there each image gets its own trunk
        and fine-branch passes, in its own `tensor.fork_join` lane. Every conv
        gives an image the bits it gives it alone (`tensor.conv2d`), so a
        pair's result depends neither on the other views nor on the lanes.

        Returns (CoarseMatchSet, list[FineMatch], n_dropped_windows) for one
        image B, and a list of them, one per view in order, for a list.
        """
        listed = isinstance(img_b, (list, tuple))
        views = list(img_b) if listed else [img_b]
        if not views:
            raise ValueError("match_pair needs at least one B view, got an empty list")
        names = [f"B{i}" for i in range(1, len(views) + 1)] if listed else ["B"]
        img_a = check_image(img_a, "image A")
        views = [check_image(v, f"image {name}") for v, name in zip(views, names)]
        for v, name in zip(views, names):
            if v.shape != img_a.shape:
                raise ValueError(f"images differ in size: A is {img_a.shape[1]}x{img_a.shape[2]}, "
                                 f"{name} is {v.shape[1]}x{v.shape[2]}; match_pair needs "
                                 f"one size")
        with self.mode(False):
            imgs = np.stack([img_a] + views).astype(np.float32, copy=False)
            # the images of each backbone pass: all in one batch, or one lane each
            if imgs[0, 0].size < T.LANE_PIXELS:
                passes = [list(range(len(imgs)))]
            else:
                passes = [[i] for i in range(len(imgs))]
            trunks = T.fork_join([lambda g=g: self.backbone(Tensor(imgs[g])) for g in passes])
            coarse, u2, f1 = ([m for t in trunks for m in t[k].data] for k in range(3))
            msets = [self.coarse.match(Tensor(coarse[0]), Tensor(c)) for c in coarse[1:]]
            fine_hw = f1[0].shape[1:]
            kept = [i for i, mset in enumerate(msets, 1)
                    if self.fine.windows(mset, fine_hw, fine_hw)[0].any()]
            # refine reads only the size of the maps of a pair that keeps no window
            fine = [np.empty((0,) + fine_hw, np.float32)] * len(imgs)
            if kept:   # the fine branch on A and the views that keep a window
                need = {0, *kept}
                groups = [g for g in ([i for i in g if i in need] for g in passes) if g]
                outs = T.fork_join([lambda g=g: self.backbone.fine_features(
                    Tensor(np.stack([u2[i] for i in g])), Tensor(np.stack([f1[i] for i in g])))
                    for g in groups])
                for g, out in zip(groups, outs):
                    for i, f in zip(g, out.data):
                        fine[i] = f
            results = [(mset,) + self.fine.refine(Tensor(fine[0]), Tensor(fine[i]), mset)
                       for i, mset in enumerate(msets, 1)]
        return results if listed else results[0]


def save_model(path, model):
    """Write the model's state, with its config text in the manifest."""
    save_checkpoint(path, model.state_dict(), model.config.to_text())


def load_model(path, dtype=np.float32):
    """Rebuild a model from a checkpoint written by `save_model`."""
    text = checkpoint_config(path)
    if text is None:
        raise ValueError(f"{path}: checkpoint has no config in its manifest")
    model = MatcherModel(load_config(overrides=text.splitlines()), dtype=dtype)
    model.load_state_dict(load_checkpoint(path))
    return model
