"""Feature-pyramid backbone with trivial-representation coarse (1/8) and
fine (1/2) outputs, in four variants: plain, c4star, c4, c8star.

All variants share one implementation: `plain` is the degenerate C_1 case,
where every steerable layer reduces to a standard convolution. The starred
variants keep the plain channel budget (fields = channels / N); `c4`
allocates one regular field per two plain channels, doubling intermediate
features.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .groups import CyclicGroup, FieldType
from .nn import Module
from .steerable import EquivConv, InnerBatchNorm
from .tensor import Tensor

VARIANTS = {
    # variant: (group order, plain channels per regular field)
    "plain": (1, 1),
    "c4star": (4, 4),
    "c4": (4, 2),
    "c8star": (8, 8),
}


@dataclass
class BackboneConfig:
    variant: str = "c4star"
    base_width: int = 16      # stage-1 channels in plain units
    coarse_dim: int = 32
    fine_dim: int = 16

    def stage_widths(self):
        w = self.base_width
        return (w, (3 * w) // 2, 2 * w)

    def validate(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown backbone variant {self.variant!r}; "
                             f"expected one of {sorted(VARIANTS)}")
        n, per_field = VARIANTS[self.variant]
        for width in self.stage_widths():
            if width % per_field:
                raise ValueError(f"stage width {width} not divisible by {per_field} "
                                 f"(variant {self.variant})")
        return self


@dataclass
class FeaturePair:
    coarse: Tensor   # [coarse_dim, h/8, w/8]
    fine: Tensor     # [fine_dim, h/2, w/2]


class ResBlock(Module):
    """Two 3x3 convolutions with norm and nonlinearity plus a skip; strided
    blocks project the skip with a strided 1x1 convolution."""

    def __init__(self, in_type, out_type, stride, rng, dtype=np.float32):
        super().__init__()
        self.conv1 = EquivConv(in_type, out_type, 3, stride=stride, bias=False,
                               rng=rng, dtype=dtype)
        self.bn1 = InnerBatchNorm(out_type, dtype=dtype)
        self.conv2 = EquivConv(out_type, out_type, 3, bias=False, rng=rng, dtype=dtype)
        self.bn2 = InnerBatchNorm(out_type, dtype=dtype)
        if stride != 1 or in_type != out_type:
            self.proj = EquivConv(in_type, out_type, 1, stride=stride, bias=False,
                                  rng=rng, dtype=dtype)
            self.proj_bn = InnerBatchNorm(out_type, dtype=dtype)
        else:
            self.proj = None
            self.proj_bn = None

    def __call__(self, x):
        y = self.conv2(T.relu(self.conv1(x, self.bn1)), self.bn2)
        skip = self.proj(x, self.proj_bn) if self.proj is not None else x
        return T.relu(y + skip)


# Pixels per coarse and per fine feature cell: the stem and two strided
# blocks halve the resolution three times, the fine head sits after the stem.
COARSE_STRIDE = 8
FINE_STRIDE = 2


class Backbone(Module):
    """Stem (1/2) -> residual blocks at strides 1, 2, 2 (1/8) -> readout;
    then nearest-neighbour upsampling merged with lateral skips back to 1/2
    with a second readout for the fine features."""

    def __init__(self, config, rng=None, dtype=np.float32):
        super().__init__()
        config.validate()
        self.config = config
        rng = rng or np.random.default_rng(0)
        n, per_field = VARIANTS[config.variant]
        grp = CyclicGroup(n)
        w1, w2, w3 = config.stage_widths()
        r1 = FieldType.regular(grp, w1 // per_field)
        r2 = FieldType.regular(grp, w2 // per_field)
        r3 = FieldType.regular(grp, w3 // per_field)
        t_in = FieldType.trivial(grp, 3)

        self.stem = EquivConv(t_in, r1, 3, stride=2, bias=False, rng=rng, dtype=dtype)
        self.stem_bn = InnerBatchNorm(r1, dtype=dtype)
        self.block1 = ResBlock(r1, r1, 1, rng, dtype)
        self.block2 = ResBlock(r1, r2, 2, rng, dtype)
        self.block3 = ResBlock(r2, r3, 2, rng, dtype)
        self.coarse_head = EquivConv(r3, FieldType.trivial(grp, config.coarse_dim),
                                     1, rng=rng, dtype=dtype)
        self.lateral2 = EquivConv(r2, r3, 1, rng=rng, dtype=dtype)
        self.smooth2 = EquivConv(r3, r3, 3, bias=False, rng=rng, dtype=dtype)
        self.smooth2_bn = InnerBatchNorm(r3, dtype=dtype)
        self.lateral1 = EquivConv(r1, r3, 1, rng=rng, dtype=dtype)
        self.smooth1 = EquivConv(r3, r3, 3, bias=False, rng=rng, dtype=dtype)
        self.smooth1_bn = InnerBatchNorm(r3, dtype=dtype)
        self.fine_head = EquivConv(r3, FieldType.trivial(grp, config.fine_dim),
                                   1, rng=rng, dtype=dtype)

    def __call__(self, x):
        """x: [b, 3, h, w] with h, w divisible by 8 -> (coarse, fine) batches."""
        b, c, h, w = x.shape
        if h % COARSE_STRIDE or w % COARSE_STRIDE:
            raise ValueError(f"backbone requires spatial dims divisible by 8, got {h}x{w}")
        x1 = T.relu(self.stem(x, self.stem_bn))   # 1/2
        f1 = self.block1(x1)                      # 1/2
        f2 = self.block2(f1)                      # 1/4
        f3 = self.block3(f2)                      # 1/8
        coarse = self.coarse_head(f3)
        u2 = T.upsample_nearest2x(f3) + self.lateral2(f2)
        u2 = T.relu(self.smooth2(u2, self.smooth2_bn))          # 1/4
        u1 = T.upsample_nearest2x(u2) + self.lateral1(f1)
        u1 = T.relu(self.smooth1(u1, self.smooth1_bn))          # 1/2
        fine = self.fine_head(u1)
        return coarse, fine


def check_image(image, name="image"):
    """Validate one [3, h, w] image: h and w positive and divisible by 8,
    finite values in [0, 1]. Returns it as an ndarray."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"{name} must have shape [3, h, w], got {list(img.shape)}")
    h, w = img.shape[1:]
    if h < COARSE_STRIDE or w < COARSE_STRIDE or h % COARSE_STRIDE or w % COARSE_STRIDE:
        raise ValueError(f"{name} height and width must be positive and divisible by "
                         f"{COARSE_STRIDE}, got {h}x{w}")
    if not np.isfinite(img).all():
        raise ValueError(f"{name} has non-finite values")
    lo, hi = img.min(), img.max()
    if lo < 0 or hi > 1:
        raise ValueError(f"{name} values must lie in [0, 1], got [{lo:g}, {hi:g}]")
    return img


def extract(model, image):
    """Run the backbone on a single [3, h, w] image in eval mode."""
    img = check_image(image.data if isinstance(image, Tensor) else image)
    with model.mode(False):
        coarse, fine = model(Tensor(img[None].astype(model.stem.base.dtype)))
    return FeaturePair(coarse=Tensor(coarse.data[0]), fine=Tensor(fine.data[0]))
