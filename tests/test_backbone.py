import os
import subprocess
import sys

import numpy as np
import pytest

import rotmatch
from rotmatch.backbone import Backbone, BackboneConfig, extract
from rotmatch.nn import param_count
from rotmatch.tensor import Tensor


def textured_image(rng, h, w):
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    img = np.zeros((3, h, w))
    for c in range(3):
        for _ in range(6):
            fx, fy = rng.uniform(0.02, 0.12, size=2)
            ph = rng.uniform(0, 2 * np.pi)
            img[c] += np.sin(2 * np.pi * (fx * xs + fy * ys) + ph)
    img -= img.min()
    img /= img.max()
    return img.astype(np.float32)


def smooth_disc_image(rng, h, fmax=0.02):
    """Low-frequency texture tapered to zero on a disc, so a rotated copy has
    the same support and fill does not pollute receptive fields."""
    ys, xs = np.mgrid[0:h, 0:h].astype(np.float64)
    img = np.zeros((3, h, h))
    for c in range(3):
        for _ in range(8):
            fx, fy = rng.uniform(0.004, fmax, size=2)
            ph = rng.uniform(0, 2 * np.pi)
            img[c] += np.sin(2 * np.pi * (fx * xs + fy * ys) + ph)
    img -= img.min()
    img /= img.max()
    r = np.sqrt((ys - h / 2 + 0.5) ** 2 + (xs - h / 2 + 0.5) ** 2)
    taper = np.clip((0.46 * h - r) / (0.10 * h), 0.0, 1.0)
    return (img * taper[None]).astype(np.float32)


def interior_rel_dev(a, b, crop=1):
    a = a[..., crop:-crop, crop:-crop]
    b = b[..., crop:-crop, crop:-crop]
    return np.abs(a - b).max() / max(np.abs(a).max(), 1e-6)


class TestShapes:
    @pytest.mark.parametrize("variant", ["plain", "c4star", "c4", "c8star"])
    def test_shape_contract(self, variant):
        cfg = BackboneConfig(variant=variant)
        model = Backbone(cfg, rng=np.random.default_rng(0))
        pair = extract(model, np.zeros((3, 64, 64), dtype=np.float32))
        assert pair.coarse.shape == (cfg.coarse_dim, 8, 8)
        assert pair.fine.shape == (cfg.fine_dim, 32, 32)

    def test_divisibility_error(self):
        model = Backbone(BackboneConfig(variant="plain"))
        with pytest.raises(ValueError, match="divisible by 8"):
            extract(model, np.zeros((3, 60, 64), dtype=np.float32))

    def test_invalid_variant(self):
        with pytest.raises(ValueError, match="unknown backbone variant"):
            BackboneConfig(variant="c16").validate()


def _tiny_matcher():
    from rotmatch.config import Config
    from rotmatch.model import MatcherModel
    cfg = Config.default()
    cfg.backbone.base_width = 8
    cfg.backbone.coarse_dim = 16
    cfg.backbone.fine_dim = 8
    cfg.matcher.d_model = 16
    cfg.matcher.n_blocks = 2
    return MatcherModel(cfg, rng=np.random.default_rng(0))


GRAY = np.full((3, 32, 32), 0.5, dtype=np.float32)


class TestImageValidation:
    BAD_IMAGES = [
        (np.full((32, 32, 3), 0.5, np.float32),
         r"must have shape \[3, h, w\], got \[32, 32, 3\]"),
        (np.full((3, 28, 32), 0.5, np.float32),
         "height and width must be positive and divisible by 8, got 28x32"),
        (np.zeros((3, 0, 0), np.float32),
         "height and width must be positive and divisible by 8, got 0x0"),
        (np.full((3, 32, 32), np.nan, np.float32), "has non-finite values"),
        (np.full((3, 32, 32), 128.0, np.float32),
         r"values must lie in \[0, 1\], got \[128, 128\]"),
    ]
    IDS = ["channels_last", "not_divisible_by_8", "empty", "all_nan", "range_0_255"]

    @pytest.mark.parametrize("image,message", BAD_IMAGES, ids=IDS)
    def test_match_pair_rejects(self, image, message):
        with pytest.raises(ValueError, match="image B " + message):
            _tiny_matcher().match_pair(GRAY, image)

    @pytest.mark.parametrize("image,message", BAD_IMAGES, ids=IDS)
    def test_extract_rejects(self, image, message):
        model = Backbone(BackboneConfig(variant="plain", base_width=8))
        with pytest.raises(ValueError, match="image " + message):
            extract(model, image)

    def test_match_pair_rejects_different_sizes(self):
        with pytest.raises(ValueError, match="images differ in size: A is 32x32, B is 32x40"):
            _tiny_matcher().match_pair(GRAY, np.full((3, 32, 40), 0.5, np.float32))


class TestMemory:
    def test_features_480x640_peak(self):
        # one 480x640 pair through the default backbone; an im2col matrix of
        # the 32-channel 240x320 layers alone would be 177 MB
        import tracemalloc
        from rotmatch.config import Config
        from rotmatch.model import MatcherModel
        model = MatcherModel(Config.default(), rng=np.random.default_rng(0))
        model.eval()
        imgs = Tensor(np.random.default_rng(1).random((2, 3, 480, 640)).astype(np.float32))
        tracemalloc.start()
        try:
            coarse, fine = model.features(imgs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coarse.shape == (2, 32, 60, 80) and fine.shape == (2, 16, 240, 320)
        assert peak < 180e6


class TestParameterAccounting:
    def test_plain_hand_count_tiny_config(self):
        # base_width 8 -> stages (8, 12, 16); coarse 8, fine 4
        cfg = BackboneConfig(variant="plain", base_width=8, coarse_dim=8, fine_dim=4)
        model = Backbone(cfg)
        w1, w2, w3 = 8, 12, 16
        expected = 0
        expected += w1 * 3 * 9 + 2 * w1                      # stem conv + bn
        expected += 2 * (w1 * w1 * 9) + 2 * 2 * w1           # block1
        expected += w1 * w2 * 9 + w2 * w2 * 9 + 2 * 2 * w2   # block2 convs + bns
        expected += w1 * w2 + 2 * w2                         # block2 proj + bn
        expected += w2 * w3 * 9 + w3 * w3 * 9 + 2 * 2 * w3   # block3
        expected += w2 * w3 + 2 * w3
        expected += w3 * 8 + 8                               # coarse head (1x1 + bias)
        expected += w2 * w3 + w3                             # lateral2 + per-field bias
        expected += w3 * w3 * 9 + 2 * w3                     # smooth2 + bn
        expected += w1 * w3 + w3                             # lateral1 + bias
        expected += w3 * w3 * 9 + 2 * w3                     # smooth1 + bn
        expected += w3 * 4 + 4                               # fine head
        assert param_count(model) == expected

    def test_c4star_vs_plain_ratio(self):
        plain = Backbone(BackboneConfig(variant="plain"))
        c4s = Backbone(BackboneConfig(variant="c4star"))
        ratio = param_count(plain) / param_count(c4s)
        assert ratio >= 3.6

    def test_c4_doubles_c4star_intermediate_channels(self):
        c4s = Backbone(BackboneConfig(variant="c4star"))
        c4 = Backbone(BackboneConfig(variant="c4"))
        for name in ("block1", "block2", "block3"):
            a = getattr(c4, name).conv1.out_type.channel_count
            b = getattr(c4s, name).conv1.out_type.channel_count
            assert a == 2 * b


class TestInvariance:
    def _rot_dev(self, variant, seed=0, h=64, base_width=16):
        cfg = BackboneConfig(variant=variant, base_width=base_width)
        model = Backbone(cfg, rng=np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        img = textured_image(rng, h, h)
        pair = extract(model, img)
        pair_rot = extract(model, np.ascontiguousarray(np.rot90(img, 1, axes=(1, 2))))
        dev_c = interior_rel_dev(pair_rot.coarse.data,
                                 np.rot90(pair.coarse.data, 1, axes=(1, 2)))
        dev_f = interior_rel_dev(pair_rot.fine.data,
                                 np.rot90(pair.fine.data, 1, axes=(1, 2)))
        return dev_c, dev_f

    def test_c4star_invariant_under_90deg(self):
        dev_c, dev_f = self._rot_dev("c4star")
        assert dev_c <= 1e-3 and dev_f <= 1e-3

    def test_c4_invariant_under_90deg(self):
        dev_c, dev_f = self._rot_dev("c4")
        assert dev_c <= 1e-3 and dev_f <= 1e-3

    def test_plain_fails_as_negative_control(self):
        dev_c, _ = self._rot_dev("plain")
        assert dev_c > 0.05

    def test_c8star_90deg(self):
        dev_c, dev_f = self._rot_dev("c8star")
        assert dev_c <= 1e-3 and dev_f <= 1e-3

    def test_c8star_45deg_tolerance(self):
        # Full-depth 45-degree invariance is limited by interpolation: relu
        # kinks re-introduce high frequencies that neither the resampled
        # kernels nor the reference map rotation track, and the error
        # compounds with depth. The 0.1 tolerance therefore applies to the
        # first equivariant stage; at full depth c8star must beat the
        # non-equivariant baseline by a wide margin (negative control).
        from rotmatch.groups import CyclicGroup, rotate_image
        from rotmatch.steerable import calibrate_norm_stats
        from rotmatch.tensor import Tensor
        g = CyclicGroup(8).element(1)
        img = smooth_disc_image(np.random.default_rng(4), 128)
        rimg = rotate_image(img, g, mode="bilinear").data

        cfg = BackboneConfig(variant="c8star")
        model = Backbone(cfg, rng=np.random.default_rng(3))
        calibrate_norm_stats(model, Tensor(img[None]))
        model.eval()
        stem = model.stem(Tensor(img[None])).data[0]
        stem_rot = model.stem(Tensor(rimg[None])).data[0]
        from rotmatch.groups import act_on_field
        ft = model.stem.out_type
        ref = act_on_field(g, stem, ft, mode="bilinear").data
        m = stem.shape[-1] // 4
        a = stem_rot[:, m:-m, m:-m]
        b = ref[:, m:-m, m:-m]
        dev_c8 = np.sqrt(((a - b) ** 2).mean()) / np.sqrt((b ** 2).mean())
        assert dev_c8 <= 0.1

        # negative control at full depth: plain deviates several times more
        def full_depth_dev(variant, seed):
            mdl = Backbone(BackboneConfig(variant=variant),
                           rng=np.random.default_rng(seed))
            calibrate_norm_stats(mdl, Tensor(img[None]))
            p0 = extract(mdl, img)
            p1 = extract(mdl, rimg)
            rc = rotate_image(p0.coarse.data, g, mode="bilinear").data
            mm = rc.shape[-1] // 4
            aa = p1.coarse.data[:, mm:-mm, mm:-mm]
            bb = rc[:, mm:-mm, mm:-mm]
            return np.sqrt(((aa - bb) ** 2).mean()) / np.sqrt((bb ** 2).mean())

        assert full_depth_dev("c8star", 3) < 0.5 * full_depth_dev("plain", 3)

    def test_doubled_width_keeps_invariance(self):
        dev_c, dev_f = self._rot_dev("c4star", base_width=32)
        assert dev_c <= 1e-3 and dev_f <= 1e-3


# Eval-mode forward passes of an acceptance-config c4star model (criterion 8's
# widths), norms calibrated on each pair first; one sha256 per pair size, one
# of the coarse attention stack (1200 tokens, head width 8) and one of the
# coarse mutual match on the larger pair.
_FORWARD_HASHES = """
import hashlib
import numpy as np
from rotmatch import matcher as M
from rotmatch.config import Config
from rotmatch.model import MatcherModel
from rotmatch.steerable import calibrate_norm_stats
from rotmatch.tensor import Tensor

cfg = Config.default()
cfg.backbone.variant = "c4star"
cfg.backbone.base_width = 24
cfg.matcher.d_model = 32
cfg.matcher.n_blocks = 2
model = MatcherModel(cfg, rng=np.random.default_rng(0))
rng = np.random.default_rng(1)
for h, w in ((96, 96), (240, 320)):
    pair = Tensor(rng.random((2, 3, h, w)).astype(np.float32))
    calibrate_norm_stats(model.backbone, pair)
    coarse, fine = model.eval().features(pair)
    print(h, w, hashlib.sha256(coarse.data.tobytes() + fine.data.tobytes()).hexdigest())
fa, fb = model.coarse.embed(Tensor(coarse.data[0]), Tensor(coarse.data[1]))
print(hashlib.sha256(fa.data.tobytes() + fb.data.tobytes()).hexdigest())
# mutual_matches of the 240x320 pair's coarse tokens, scaled to length 8, in
# blocks of 13 score rows: 93 blocks, one `fork_join` call each
M.SCORE_BLOCK_BYTES = 1 << 16
a, b = (8 * v / np.linalg.norm(v, axis=0) for v in coarse.data.reshape(2, coarse.shape[1], -1))
print(hashlib.sha256(b"".join(v.tobytes() for v in M.mutual_matches(a.T, b.T, 0.05))).hexdigest())
"""


def test_inference_independent_of_blas_threads():
    # OpenBLAS splits a GEMM's output between threads, never its sums; the
    # conv and score GEMM shapes must keep inference bit-identical across
    # thread counts; the 240x320 pair's coarse block sides and its score
    # sweep run in `fork_join` lanes wherever a core is left for a second lane
    src = os.path.dirname(os.path.dirname(os.path.abspath(rotmatch.__file__)))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _FORWARD_HASHES], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.split())
    assert len(out[0]) == 8 and out[0] == out[1]


# match_pair on a 240x320 pair: on 2 CPUs each image's backbone pass, each
# side of a coarse block and the score sweep run in `fork_join` lanes; the
# convs inside a backbone pass run on its lane
_LANED_MATCH_HASH = r"""
import hashlib, os, threading
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
import numpy as np
from rotmatch import matcher as M, tensor as T
from rotmatch.backbone import Backbone
from rotmatch.config import Config
from rotmatch.model import MatcherModel
from rotmatch.steerable import calibrate_norm_stats
from rotmatch.tensor import Tensor

cfg = Config.default()
cfg.backbone.variant = "c4star"
cfg.backbone.base_width = 24
cfg.matcher.d_model = 32
cfg.matcher.n_blocks = 2
model = MatcherModel(cfg, rng=np.random.default_rng(0))
pair = np.random.default_rng(1).random((2, 3, 240, 320)).astype(np.float32)
calibrate_norm_stats(model.backbone, Tensor(pair))
model.eval()
tokens, threads = [], set()
select, backbone = M.mutual_matches, Backbone.__call__
M.mutual_matches = lambda a, b, theta: tokens.append(a.tobytes() + b.tobytes()) or select(a, b, theta)
Backbone.__call__ = lambda self, x: threads.add(threading.get_ident()) or backbone(self, x)
mset, matches, dropped = model.match_pair(pair[0], pair[1])
out = b"".join(tokens + [mset.idx_a.tobytes(), mset.idx_b.tobytes(), mset.confidence.tobytes(),
                         repr((matches, dropped)).encode()])
print(T.LANES, T._POOL is not None, len(threads), hashlib.sha256(out).hexdigest())
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
def test_lanes_on_every_cpu_whatever_blas_threads():
    # the package sets OpenBLAS to one thread at import, so on 2 CPUs there
    # are 2 lanes, a pool and one lane per image with the variable unset, 1 or 2
    src = os.path.dirname(os.path.dirname(os.path.abspath(rotmatch.__file__)))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = []
    for threads in (None, "1", "2"):
        env = dict(base, PYTHONPATH=src)
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", _LANED_MATCH_HASH], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.split())
    assert [o[:3] for o in out] == [["2", "True", "2"]] * 3
    assert len({o[3] for o in out}) == 1
