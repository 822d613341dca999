"""Dataset I/O, canonical resizing, rotated/warped benchmark modification
generators, a synthetic homography-scene generator for desk-scale training,
and ground-truth coarse assignments.

Directory layout: `<root>/<scene>/{1..6}.ppm`, `<root>/<scene>/H_1_{2..6}`
(9 ASCII floats, row-major), `<root>/manifest.json`.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .backbone import COARSE_STRIDE
from .geometry import Homography, dlt
from .groups import rotation_about_center
from .imageio import read_rgb, write_ppm
from .tensor import bilinear_sample, bilinear_warp, map_pixel_centers


@dataclass
class Sequence:
    name: str
    image_a: np.ndarray                   # [3, h, w] float32 in [0, 1]
    images_b: list                        # 5 arrays
    homographies: list                    # 5 Homography, A -> B
    split: str = "synthetic"              # illumination | viewpoint | synthetic
    provenance: list = field(default_factory=list)
    valid_masks: list = None              # per-B bool [h, w] or None (fully valid)

    def __post_init__(self):
        if len(self.images_b) != 5 or len(self.homographies) != 5:
            raise ValueError("a sequence holds exactly 5 B-images and homographies")
        if self.valid_masks is None:
            self.valid_masks = [None] * 5

    def pairs(self):
        for k in range(5):
            yield k, self.image_a, self.images_b[k], self.homographies[k]


def splitmix64(seed, index):
    """Pinned per-item seed derivation."""
    z = (seed + index * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 31
    return z


# ---------------------------------------------------------------------------
# loading and saving


def load_homography_file(path):
    """The Homography in a file of 9 numbers, row-major."""
    with open(path, "r", encoding="utf-8") as f:
        tokens = f.read().split()
    if len(tokens) != 9:
        raise ValueError(f"{path}: expected 9 values, got {len(tokens)}")
    try:   # a token that is no number, or a non-finite or singular matrix
        return Homography(np.array([float(v) for v in tokens]).reshape(3, 3))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def load_sequence(seq_dir, split="synthetic"):
    """Load `1..6.ppm` (or `.pgm`) plus `H_1_{2..6}` from a directory."""
    images = []
    for i in range(1, 7):
        for ext in (".ppm", ".pgm"):
            path = os.path.join(seq_dir, f"{i}{ext}")
            if os.path.exists(path):
                images.append(read_rgb(path))
                break
        else:
            raise FileNotFoundError(f"missing image {i}.ppm (or .pgm) in {seq_dir}")
    homs = []
    for k in range(2, 7):
        path = os.path.join(seq_dir, f"H_1_{k}")
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing homography file H_1_{k} in {seq_dir}")
        homs.append(load_homography_file(path))
    return Sequence(name=os.path.basename(os.path.normpath(seq_dir)),
                    image_a=images[0], images_b=images[1:], homographies=homs,
                    split=split)


def save_sequence(root, seq):
    seq_dir = os.path.join(root, seq.name)
    os.makedirs(seq_dir, exist_ok=True)
    write_ppm(os.path.join(seq_dir, "1.ppm"), seq.image_a)
    for k, img in enumerate(seq.images_b, start=2):
        write_ppm(os.path.join(seq_dir, f"{k}.ppm"), img)
    for k, h in enumerate(seq.homographies, start=2):
        with open(os.path.join(seq_dir, f"H_1_{k}"), "w", encoding="utf-8") as f:
            f.write(" ".join(repr(float(v)) for v in h.matrix.ravel()) + "\n")
    return seq_dir


# ---------------------------------------------------------------------------
# canonical resizing


def _scaling(w_from, h_from, w_to, h_to):
    return Homography(np.diag([w_to / w_from, h_to / h_from, 1.0]))


def resize_image(img, long_side, short_side):
    """Bilinear-resize a [c, h, w] image, landscape to long x short and
    portrait to short x long; returns it and the scaling S that sends its
    pixel coordinates to the new image's."""
    h, w = img.shape[1:]
    h_to, w_to = (short_side, long_side) if w >= h else (long_side, short_side)
    s = _scaling(w, h, w_to, h_to)
    return bilinear_warp(img, s.inverse().matrix, h_to, w_to).data, s


def resize_canonical(seq, long_side=640, short_side=480):
    """`resize_image` every image and conjugate the homographies:
    H' = S_B @ H @ S_A^-1."""
    new_a, sa = resize_image(seq.image_a, long_side, short_side)
    new_bs, new_hs, new_masks = [], [], []
    for img, hom, mask in zip(seq.images_b, seq.homographies, seq.valid_masks):
        new_b, sb = resize_image(img, long_side, short_side)
        new_bs.append(new_b)
        new_hs.append(sb.compose(hom).compose(sa.inverse()))
        if mask is not None:
            mask = bilinear_warp(mask[None].astype(np.float32),
                                 sb.inverse().matrix, *new_b.shape[1:]).data[0] > 0.5
        new_masks.append(mask)
    return Sequence(name=seq.name, image_a=new_a, images_b=new_bs,
                    homographies=new_hs, split=seq.split,
                    provenance=seq.provenance + [{"kind": "resize_canonical",
                                                  "long": long_side, "short": short_side}],
                    valid_masks=new_masks)


# ---------------------------------------------------------------------------
# benchmark modifications


def make_rotated(seq, a_degrees, seed):
    """Rotate each B-image by `a_degrees` clockwise or anticlockwise (chosen
    per image from the seeded generator) about its center on a same-size
    canvas with zero fill; H' = R @ H."""
    if not 0.0 < a_degrees <= 90.0:
        raise ValueError("rotation angle must lie in (0, 90]")
    rng = np.random.default_rng(splitmix64(seed, 0))
    signs = [int(s) for s in rng.integers(0, 2, size=5) * 2 - 1]
    new_bs, new_hs, new_masks = [], [], []
    for img, hom, mask, sign in zip(seq.images_b, seq.homographies,
                                    seq.valid_masks, signs):
        h, w = img.shape[1:]
        angle = sign * a_degrees
        rot = Homography(rotation_about_center(angle, h, w))
        if a_degrees == 90.0 and h == w:
            q = 1 if sign > 0 else 3
            new_img = np.ascontiguousarray(np.rot90(img, q, axes=(1, 2)))
            new_mask = None if mask is None else np.ascontiguousarray(np.rot90(mask, q))
        else:
            new_img = bilinear_warp(img, rot.inverse().matrix, h, w, fill=0.0).data
            base = np.ones((h, w), dtype=np.float32) if mask is None else mask.astype(np.float32)
            new_mask = bilinear_warp(base[None], rot.inverse().matrix, h, w,
                                     fill=0.0).data[0] > 0.999
        new_bs.append(new_img)
        new_hs.append(rot.compose(hom))
        new_masks.append(new_mask)
    spec = {"kind": "rotate", "amount": a_degrees, "seed": seed, "per_image": signs}
    return Sequence(name=seq.name, image_a=seq.image_a, images_b=new_bs,
                    homographies=new_hs, split=seq.split, provenance=seq.provenance + [spec],
                    valid_masks=new_masks)


def sample_corner_offsets(h, w, s, rng):
    """Outward corner offsets: the upper-left corner moves within
    [-s*h, 0] x [-s*w, 0] in (vertical, horizontal) order, and analogously
    for the other corners."""
    dy = rng.uniform(0.0, s * h, size=4)
    dx = rng.uniform(0.0, s * w, size=4)
    # corners ordered (0,0), (w,0), (0,h), (w,h)
    sy = np.array([-1.0, -1.0, 1.0, 1.0])
    sx = np.array([-1.0, 1.0, -1.0, 1.0])
    return np.stack([sx * dx, sy * dy], axis=1)   # (x, y) offsets


def corner_warp_homography(h, w, offsets):
    """Homography W sending the image corners to their offset positions."""
    corners = np.array([[0.0, 0.0], [w, 0.0], [0.0, h], [w, h]])
    return dlt(corners, corners + np.asarray(offsets, dtype=np.float64))


def make_warped(seq, s, seed, max_retries=8):
    """Corner-warp each B-image outward by offsets of at most (s*h, s*w):
    B' is the skewed zoom-in B'(q) = B(W^-1 q), and H' = W @ H."""
    if s <= 0:
        raise ValueError("warp scale must be positive")
    new_bs, new_hs, new_masks, offs_rec = [], [], [], []
    for k, (img, hom, mask) in enumerate(zip(seq.images_b, seq.homographies,
                                             seq.valid_masks)):
        h, w = img.shape[1:]
        rng = np.random.default_rng(splitmix64(seed, k))
        warp = None
        for _ in range(max_retries):
            offsets = sample_corner_offsets(h, w, s, rng)
            try:
                warp = corner_warp_homography(h, w, offsets)
                break
            except ValueError:
                continue
        if warp is None:
            raise ValueError("could not sample a non-degenerate corner warp")
        new_bs.append(bilinear_warp(img, warp.inverse().matrix, h, w, fill=0.0).data)
        base = np.ones((h, w), dtype=np.float32) if mask is None else mask.astype(np.float32)
        new_masks.append(bilinear_warp(base[None], warp.inverse().matrix, h, w,
                                       fill=0.0).data[0] > 0.999)
        new_hs.append(warp.compose(hom))
        offs_rec.append(offsets.tolist())
    spec = {"kind": "corner_warp", "amount": s, "seed": seed, "per_image": offs_rec}
    return Sequence(name=seq.name, image_a=seq.image_a, images_b=new_bs,
                    homographies=new_hs, split=seq.split, provenance=seq.provenance + [spec],
                    valid_masks=new_masks)


def apply_modification(seq, mod, seed):
    """Parse a modification spec string: none | r{angle} | h{scale}."""
    if mod in (None, "", "none"):
        return seq
    if mod.startswith("r"):
        return make_rotated(seq, float(mod[1:]), seed)
    if mod.startswith("h"):
        return make_warped(seq, float(mod[1:]), seed)
    raise ValueError(f"unknown modification {mod!r}; expected none, r<angle>, h<scale>")


# ---------------------------------------------------------------------------
# synthetic scenes


@dataclass
class SynthParams:
    n_sinusoids: int = 24
    n_blobs: int = 12
    freq_range: tuple = (0.01, 0.07)      # cycles per pixel
    blob_sigma_range: tuple = (3.0, 8.0)
    rotation_max_deg: float = 15.0
    scale_range: tuple = (0.9, 1.1)
    translation_frac: float = 0.10
    corner_jitter_frac: float = 0.03
    brightness_jitter: float = 0.1
    contrast_range: tuple = (0.8, 1.2)


class _Texture:
    """Analytic texture: sinusoids plus Gaussian blobs, evaluable at arbitrary
    coordinates so warped views carry no resampling error."""

    def __init__(self, rng, h, w, params):
        p = params
        self.n = p.n_sinusoids
        self.freq = rng.uniform(*p.freq_range, size=(p.n_sinusoids, 2))
        self.theta = rng.uniform(0, 2 * np.pi, size=p.n_sinusoids)
        self.phase = rng.uniform(0, 2 * np.pi, size=p.n_sinusoids)
        self.blob_pos = np.stack([rng.uniform(0, w, size=p.n_blobs),
                                  rng.uniform(0, h, size=p.n_blobs)], axis=1)
        self.blob_sigma = rng.uniform(*p.blob_sigma_range, size=p.n_blobs)
        self.blob_amp = rng.uniform(-1.5, 1.5, size=p.n_blobs)
        self.gains = rng.uniform(0.6, 1.0, size=3)
        # normalization constants fixed from the reference frame
        ref = self._raw(*map_pixel_centers(np.eye(3), h, w))
        self.lo = ref.min()
        self.hi = ref.max()

    def _raw(self, xs, ys):
        out = np.zeros_like(xs)
        for i in range(self.n):
            fx = self.freq[i, 0] * np.cos(self.theta[i])
            fy = self.freq[i, 1] * np.sin(self.theta[i])
            out += np.sin(2 * np.pi * (fx * xs + fy * ys) + self.phase[i])
        for p, sig, amp in zip(self.blob_pos, self.blob_sigma, self.blob_amp):
            d2 = (xs - p[0]) ** 2 + (ys - p[1]) ** 2
            out += amp * np.exp(-d2 / (2 * sig * sig))
        return out

    def sample(self, xs, ys):
        v = (self._raw(xs, ys) - self.lo) / max(self.hi - self.lo, 1e-9)
        return np.clip(v, 0.0, 1.0)

    def render(self, hom, h, w):
        """[3, h, w] view through a homography (identity for the A-image)."""
        inv = np.eye(3) if hom is None else hom.inverse().matrix
        base = self.sample(*map_pixel_centers(inv, h, w))
        return np.stack([np.clip(base * g, 0, 1) for g in self.gains]).astype(np.float32)


def random_scene_homography(rng, h, w, params):
    """Similarity (rotation/scale/translation) plus mild perspective via
    corner jitter, built as an exact 4-corner DLT."""
    p = params
    ang = np.deg2rad(rng.uniform(-p.rotation_max_deg, p.rotation_max_deg))
    sc = rng.uniform(*p.scale_range)
    tx = rng.uniform(-p.translation_frac, p.translation_frac) * w
    ty = rng.uniform(-p.translation_frac, p.translation_frac) * h
    c, s = np.cos(ang), np.sin(ang)
    cx, cy = w / 2.0, h / 2.0
    sim = np.array([[sc * c, sc * s, cx + tx - sc * (c * cx + s * cy)],
                    [-sc * s, sc * c, cy + ty - sc * (-s * cx + c * cy)],
                    [0, 0, 1.0]])
    corners = np.array([[0.0, 0.0], [w, 0.0], [0.0, h], [w, h]])
    sim_h = Homography(sim)
    jitter = rng.uniform(-p.corner_jitter_frac, p.corner_jitter_frac, size=(4, 2))
    jitter = jitter * np.array([w, h])
    return dlt(corners, sim_h.apply(corners) + jitter)


def photometric_jitter(img, rng, params):
    b = rng.uniform(-params.brightness_jitter, params.brightness_jitter)
    c = rng.uniform(*params.contrast_range)
    return np.clip(c * (img - 0.5) + 0.5 + b, 0.0, 1.0).astype(np.float32)


def make_synthetic_sequence(name, h, w, seed, params=None, jitter=True):
    """One scene: analytic texture A plus 5 homography views (pre-jitter
    photometric consistency is exact up to bilinear sampling)."""
    params = params or SynthParams()
    rng = np.random.default_rng(seed)
    tex = _Texture(rng, h, w, params)
    image_a = tex.render(None, h, w)
    images_b, homs = [], []
    for _ in range(5):
        hom = random_scene_homography(rng, h, w, params)
        view = tex.render(hom, h, w)
        if jitter:
            view = photometric_jitter(view, rng, params)
        images_b.append(view)
        homs.append(hom)
    return Sequence(name=name, image_a=image_a, images_b=images_b,
                    homographies=homs, split="synthetic",
                    provenance=[{"kind": "synthetic", "seed": seed,
                                 "jitter": bool(jitter)}])


@dataclass
class DatasetManifest:
    root: str
    seed: int
    h: int
    w: int
    scenes: list                     # dicts: name, split, seed, jitter

    def sequence_names(self):
        return [s["name"] for s in self.scenes]

    def load(self, name, mod=None):
        """Scene `name`, with the modification `mod` (see `apply_modification`)
        applied under the scene's own seed, so every reader of a modified
        scene sees the same images."""
        idx = self.sequence_names().index(name)
        seq = load_sequence(os.path.join(self.root, name), split=self.scenes[idx]["split"])
        return apply_modification(seq, mod, splitmix64(self.seed, 9000 + idx))

    def sequences(self):
        return [self.load(n) for n in self.sequence_names()]

    def save(self):
        """Write `<root>/manifest.json`, which `load_manifest` reads back."""
        with open(os.path.join(self.root, "manifest.json"), "w", encoding="utf-8") as f:
            json.dump({"seed": self.seed, "h": self.h, "w": self.w, "scenes": self.scenes},
                      f, indent=1, sort_keys=True)


def synth_dataset(root, n_scenes, h, w, seed, params=None, jitter=True,
                  split="synthetic"):
    """Generate a dataset directory with manifest; deterministic per seed."""
    if n_scenes < 1:
        raise ValueError(f"a dataset needs at least one scene, got {n_scenes}")
    if h <= 0 or w <= 0 or h % 8 or w % 8:
        raise ValueError(f"scene dims must be positive and divisible by 8, got {h}x{w}")
    os.makedirs(root, exist_ok=True)
    scenes = []
    for i in range(n_scenes):
        scene_seed = splitmix64(seed, i)
        seq = make_synthetic_sequence(f"scene_{i:04d}", h, w, scene_seed,
                                      params=params, jitter=jitter)
        seq.split = split
        save_sequence(root, seq)
        scenes.append({"name": seq.name, "split": split, "seed": int(scene_seed),
                       "jitter": bool(jitter),
                       "homographies": [[float(v) for v in hm.matrix.ravel()]
                                        for hm in seq.homographies]})
    manifest = DatasetManifest(root=root, seed=seed, h=h, w=w, scenes=scenes)
    manifest.save()
    return manifest


def load_manifest(root):
    """The DatasetManifest in `<root>/manifest.json`: integers `seed`, `h`
    and `w`, and a list of `scenes`."""
    path = os.path.join(root, "manifest.json")
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    for key, kind in (("seed", int), ("h", int), ("w", int), ("scenes", list)):
        if key not in data:
            raise ValueError(f"{path}: manifest has no {key!r}")
        if type(data[key]) is not kind:
            raise ValueError(f"{path}: manifest {key!r} is {data[key]!r}, not {kind.__name__}")
    return DatasetManifest(root=root, seed=data["seed"], h=data["h"], w=data["w"],
                           scenes=data["scenes"])


# ---------------------------------------------------------------------------
# ground-truth assignments and photometric checks


def gt_coarse_assignment(hom, h, w):
    """Flat index of the coarse B-cell (COARSE_STRIDE pixels a side) holding each
    A-cell center warped by H, or -1 outside image B. Shape [h*w / COARSE_STRIDE^2]."""
    cell = COARSE_STRIDE
    if h % cell or w % cell:
        raise ValueError(f"dims must be divisible by the coarse stride {cell}")
    hc, wc = h // cell, w // cell
    ys, xs = np.mgrid[0:hc, 0:wc].astype(np.float64)
    centers = np.stack([(xs.ravel() + 0.5) * cell, (ys.ravel() + 0.5) * cell], axis=1)
    mapped = hom.apply(centers)
    bx = np.floor(mapped[:, 0] / cell).astype(np.int64)
    by = np.floor(mapped[:, 1] / cell).astype(np.int64)
    inside = ((mapped[:, 0] >= 0) & (mapped[:, 0] < w)
              & (mapped[:, 1] >= 0) & (mapped[:, 1] < h))
    out = np.where(inside, by * wc + bx, -1)
    return out


def psnr(a, b, mask=None):
    diff = (np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)) ** 2
    if mask is not None:
        diff = diff[..., mask] if diff.ndim == 3 else diff[mask]
    mse = diff.mean()
    if mse <= 0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / mse))


def warp_consistency_psnr(image_a, image_b, hom, valid_mask=None, margin=3.0):
    """PSNR between image B and image A warped by the A->B homography, over
    the mutually visible interior (A-samples at least `margin` px inside)."""
    h, w = image_b.shape[1:]
    sx, sy = map_pixel_centers(hom.inverse().matrix, h, w)
    ha, wa = image_a.shape[1:]
    mask = (sx >= margin) & (sx <= wa - margin) & (sy >= margin) & (sy <= ha - margin)
    if valid_mask is not None:
        mask &= valid_mask
    # stay away from B's own borders as well
    border = int(np.ceil(margin))
    mask[:border] = mask[-border:] = False
    mask[:, :border] = mask[:, -border:] = False
    if mask.sum() < 64:
        raise ValueError("too little mutually visible area for a photometric check")
    warped = bilinear_sample(image_a, sx, sy, fill=0.0)
    return psnr(warped, image_b, mask)
