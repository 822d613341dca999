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
        """Match two [3, h, w] images of one size, values in [0, 1], in eval
        mode.

        Each image's backbone trunk (`Backbone.__call__`) gives its coarse
        features, which are matched. The fine branch
        (`Backbone.fine_features`) then runs on the whole maps only if the
        fine stage keeps a window, and not at all if it keeps none; `refine`
        runs in both cases and reports the dropped windows. Below
        `tensor.LANE_PIXELS` pixels both images go through one batched pass;
        from there each image gets its own trunk and fine-branch passes, in
        its own `tensor.fork_join` lane.

        Returns (CoarseMatchSet, list[FineMatch], n_dropped_windows).
        """
        img_a, img_b = check_image(img_a, "image A"), check_image(img_b, "image B")
        if img_a.shape != img_b.shape:
            raise ValueError(f"images differ in size: A is {img_a.shape[1]}x{img_a.shape[2]}, "
                             f"B is {img_b.shape[1]}x{img_b.shape[2]}; match_pair needs "
                             f"one size")
        with self.mode(False):
            imgs = np.stack([img_a, img_b]).astype(np.float32, copy=False)
            if imgs[0, 0].size < T.LANE_PIXELS:
                inputs = [Tensor(imgs)]
            else:
                inputs = [Tensor(x[None]) for x in imgs]
            trunks = T.fork_join([lambda x=x: self.backbone(x) for x in inputs])
            coarse = [c for t in trunks for c in t[0].data]
            mset = self.coarse.match(Tensor(coarse[0]), Tensor(coarse[1]))
            fine_hw = trunks[0][2].shape[2:]
            if self.fine.windows(mset, fine_hw, fine_hw)[0].any():
                fine = [f for out in T.fork_join([lambda t=t: self.backbone.fine_features(*t[1:])
                                                  for t in trunks]) for f in out.data]
            else:   # refine reads only the maps' size: give it maps with no channel
                fine = [np.empty((0,) + fine_hw, np.float32)] * 2
            matches, dropped = self.fine.refine(Tensor(fine[0]), Tensor(fine[1]), mset)
        return mset, matches, dropped


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
