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
        return self.backbone(images)

    def match_pair(self, img_a, img_b):
        """Match two [3, h, w] images of one size, values in [0, 1], in eval
        mode.

        From `tensor.LANE_PIXELS` pixels on, each image gets its own backbone
        pass (not one batched pass), in its own `tensor.fork_join` lane.

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
                coarse, fine = (v.data for v in self.backbone(Tensor(imgs)))
            else:
                coarse, fine = zip(*((c.data[0], f.data[0]) for c, f in T.fork_join(
                    [lambda x=x: self.backbone(Tensor(x[None])) for x in imgs])))
            mset = self.coarse.match(Tensor(coarse[0]), Tensor(coarse[1]))
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
