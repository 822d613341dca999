"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The directional
reproduction (criterion 8) trains two small models and dominates the
runtime; everything else completes in a few minutes.
"""

import hashlib
import os
import time

import numpy as np
import pytest

from rotmatch.backbone import Backbone, BackboneConfig, extract
from rotmatch.config import Config
from rotmatch.datasets import (SynthParams, make_rotated,
                               make_synthetic_sequence, make_warped,
                               sample_corner_offsets, synth_dataset,
                               warp_consistency_psnr)
from rotmatch.evaluate import evaluate, report_csv
from rotmatch.geometry import (Homography, auc, corner_error, dlt, mma,
                               projective_distance, ransac_homography)
from rotmatch.groups import CyclicGroup, FieldType, act_on_field
from rotmatch.model import MatcherModel
from rotmatch.nn import param_count
from rotmatch.steerable import EquivConv, InnerBatchNorm, calibrate_norm_stats
from rotmatch.tensor import Tensor, finite_diff_check
from rotmatch.train import batch_loss, train

C1 = CyclicGroup(1)
C4 = CyclicGroup(4)
C8 = CyclicGroup(8)


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print("\n" + line)
    assert ok, line


def batch_act(elem, x, ft, mode="exact"):
    out = [act_on_field(elem, x.data[i], ft, mode=mode).data for i in range(x.shape[0])]
    return Tensor(np.stack(out))


def smooth_disc_image(rng, h, fmax=0.02, channels=3):
    ys, xs = np.mgrid[0:h, 0:h].astype(np.float64)
    img = np.zeros((channels, h, h))
    for c in range(channels):
        for _ in range(8):
            fx, fy = rng.uniform(0.004, fmax, size=2)
            ph = rng.uniform(0, 2 * np.pi)
            img[c] += np.sin(2 * np.pi * (fx * xs + fy * ys) + ph)
    img -= img.min()
    img /= img.max()
    r = np.sqrt((ys - h / 2 + 0.5) ** 2 + (xs - h / 2 + 0.5) ** 2)
    taper = np.clip((0.46 * h - r) / (0.10 * h), 0.0, 1.0)
    return (img * taper[None]).astype(np.float32)


# ---------------------------------------------------------------------------
# criterion 8 protocol (shared with criteria 2 and 9): identical budgets and
# identical settings for plain and c4star; <= 2000 steps each on 64x64
# synthetic scenes. The training set mixes a narrow and a wide in-plane
# rotation range: like the natural rotation diversity of full-scale training
# data, the sparse wide-angle tail is enough for the equivariant model (its
# quarter-turn fold multiplies the coverage) but not for the plain baseline.

TRAIN_STEPS = 2000
TRAIN_SEED = 1234
TEST_SEED = 9876
ROTATION_RANGES = (15.0, 60.0)
SCENES_PER_RANGE = 24
BASE_WIDTH = 24
D_MODEL = 32
N_BLOCKS = 2


def build_mixed_training_set(root, seed=TRAIN_SEED):
    """Union of synthetic 64x64 batches, one per rotation range."""
    import json
    import shutil

    os.makedirs(root, exist_ok=True)
    scenes = []
    for gi, gamma in enumerate(ROTATION_RANGES):
        sub = f"{root}_part{gi}"
        m = synth_dataset(sub, SCENES_PER_RANGE, 64, 64, seed=seed + 1000 * gi,
                          params=SynthParams(rotation_max_deg=gamma))
        for name in m.sequence_names():
            new_name = f"g{int(gamma)}_{name}"
            shutil.move(os.path.join(sub, name), os.path.join(root, new_name))
            entry = dict(next(s for s in m.scenes if s["name"] == name))
            entry["name"] = new_name
            scenes.append(entry)
        shutil.rmtree(sub)
    # interleave the ranges so the held-out validation tail stays mixed
    scenes.sort(key=lambda s: s["name"].split("_", 1)[1] + s["name"])
    with open(os.path.join(root, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump({"seed": seed, "h": 64, "w": 64, "scenes": scenes},
                  f, indent=1, sort_keys=True)


def experiment_config(variant):
    cfg = Config.default()
    cfg.backbone.variant = variant
    cfg.backbone.base_width = BASE_WIDTH
    cfg.matcher.d_model = D_MODEL
    cfg.matcher.n_blocks = N_BLOCKS
    cfg.train.steps = TRAIN_STEPS
    cfg.train.val_interval = 500
    cfg.train.seed = 0
    return cfg


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """Train plain and c4star under identical budgets; generate the test split."""
    root = tmp_path_factory.mktemp("acceptance")
    train_dir = str(root / "train")
    test_dir = str(root / "test")
    build_mixed_training_set(train_dir)
    synth_dataset(test_dir, 8, 96, 96, seed=TEST_SEED)
    models = {}
    minutes = {}
    for variant in ("plain", "c4star"):
        cfg = experiment_config(variant)
        t0 = time.time()
        _, model = train(cfg, train_dir, str(root / f"run_{variant}"))
        minutes[variant] = (time.time() - t0) / 60
        models[variant] = (cfg, model)
    return {"root": root, "test_dir": test_dir, "models": models,
            "minutes": minutes}


class TestCriterion1:
    def test_exact_c4_layer_equivariance(self):
        t0 = time.time()
        rng = np.random.default_rng(0)
        worst = {}
        for kind in ("lift", "group", "readout", "norm"):
            dev = 0.0
            for _ in range(100):
                h = int(rng.integers(3, 8)) * 2
                g = C4.element(int(rng.integers(0, 4)))
                if kind == "lift":
                    in_t, out_t = FieldType.trivial(C4, 2), FieldType.regular(C4, 2)
                    layer = EquivConv(in_t, out_t, 3, rng=rng)
                elif kind == "group":
                    in_t = out_t = FieldType.regular(C4, 2)
                    layer = EquivConv(in_t, out_t, 3, rng=rng)
                elif kind == "readout":
                    in_t, out_t = FieldType.regular(C4, 2), FieldType.trivial(C4, 3)
                    layer = EquivConv(in_t, out_t, 1, rng=rng)
                else:
                    in_t = out_t = FieldType.regular(C4, 2)
                    layer = InnerBatchNorm(in_t)
                    layer.scale.data[:] = rng.normal(1.0, 0.3, size=2).astype(np.float32)
                    layer.shift.data[:] = rng.normal(size=2).astype(np.float32)
                x = Tensor(rng.normal(size=(1, in_t.channel_count, h, h)).astype(np.float32))
                lhs = batch_act(g, layer(x), out_t)
                rhs = layer(batch_act(g, x, in_t))
                dev = max(dev, float(np.abs(lhs.data - rhs.data).max()))
            worst[kind] = dev
        elapsed = time.time() - t0
        ok = all(v <= 1e-5 for v in worst.values()) and elapsed < 60
        report(1, ok, f"exact C4 equivariance, 100 trials/kind: "
                      f"{ {k: f'{v:.1e}' for k, v in worst.items()} }, "
                      f"{elapsed:.0f}s (limit 1e-5, 60s)")


class TestCriterion2:
    def _dev(self, model, img):
        pair = extract(model, img)
        rot = extract(model, np.ascontiguousarray(np.rot90(img, 1, axes=(1, 2))))
        devs = []
        for a, b in ((rot.coarse.data, pair.coarse.data),
                     (rot.fine.data, pair.fine.data)):
            ref = np.rot90(b, 1, axes=(1, 2))
            aa, bb = a[:, 1:-1, 1:-1], ref[:, 1:-1, 1:-1]
            devs.append(float(np.abs(aa - bb).max() / max(np.abs(bb).max(), 1e-9)))
        return devs

    def test_backbone_invariance(self, experiment):
        t0 = time.time()
        rng = np.random.default_rng(1)
        img = smooth_disc_image(rng, 64, fmax=0.06)
        fresh = Backbone(BackboneConfig(variant="c4star"),
                         rng=np.random.default_rng(2))
        calibrate_norm_stats(fresh, Tensor(img[None]))
        dev_fresh = self._dev(fresh, img)
        trained = experiment["models"]["c4star"][1].backbone
        dev_trained = self._dev(trained, img)
        plain = Backbone(BackboneConfig(variant="plain"),
                         rng=np.random.default_rng(2))
        calibrate_norm_stats(plain, Tensor(img[None]))
        dev_plain = self._dev(plain, img)
        elapsed = time.time() - t0
        ok = (max(dev_fresh) <= 1e-3 and max(dev_trained) <= 1e-3
              and dev_plain[0] > 0.05 and elapsed < 60)
        report(2, ok, f"C4* 90deg invariance fresh {max(dev_fresh):.1e} / "
                      f"trained {max(dev_trained):.1e} (limit 1e-3); "
                      f"plain negative control {dev_plain[0]:.2f} (> 0.05); "
                      f"{elapsed:.0f}s")


class TestCriterion3:
    def test_c8_tolerance_suite(self):
        t0 = time.time()
        rng = np.random.default_rng(3)
        # 90-degree layer deviations (grid-exact path)
        worst90 = 0.0
        for kind in ("lift", "group"):
            if kind == "lift":
                in_t, out_t = FieldType.trivial(C8, 2), FieldType.regular(C8, 2)
            else:
                in_t = out_t = FieldType.regular(C8, 2)
            layer = EquivConv(in_t, out_t, 3, rng=rng)
            x = Tensor(rng.normal(size=(1, in_t.channel_count, 12, 12)).astype(np.float32))
            g = C8.element(2)
            lhs = batch_act(g, layer(x), out_t)
            rhs = layer(batch_act(g, x, in_t))
            scale = max(float(np.abs(lhs.data).max()), 1e-9)
            worst90 = max(worst90, float(np.abs(lhs.data - rhs.data).max()) / scale)
        # 45-degree layer deviations on smooth inputs, interior region
        worst45 = 0.0
        for kind in ("lift", "group"):
            if kind == "lift":
                in_t, out_t = FieldType.trivial(C8, 2), FieldType.regular(C8, 2)
            else:
                in_t = out_t = FieldType.regular(C8, 2)
            layer = EquivConv(in_t, out_t, 3, rng=rng)
            h = 48
            base = smooth_disc_image(rng, h, fmax=0.04)
            reps = int(np.ceil(in_t.channel_count / 3))
            x = np.concatenate([base] * reps)[:in_t.channel_count]
            g = C8.element(1)
            lhs = act_on_field(g, layer(Tensor(x[None])).data[0], out_t, mode="bilinear")
            rhs = layer(Tensor(act_on_field(g, x, in_t, mode="bilinear").data[None])).data[0]
            m = h // 4
            a = lhs.data[:, m:-m, m:-m]
            b = rhs[:, m:-m, m:-m]
            worst45 = max(worst45, float(np.sqrt(((a - b) ** 2).mean())
                                         / np.sqrt((a ** 2).mean())))
        # backbone-level 90 degrees
        img = smooth_disc_image(np.random.default_rng(4), 64, fmax=0.06)
        model = Backbone(BackboneConfig(variant="c8star"),
                         rng=np.random.default_rng(5))
        calibrate_norm_stats(model, Tensor(img[None]))
        pair = extract(model, img)
        rot = extract(model, np.ascontiguousarray(np.rot90(img, 1, axes=(1, 2))))
        ref = np.rot90(pair.coarse.data, 1, axes=(1, 2))
        bdev = float(np.abs(rot.coarse.data[:, 1:-1, 1:-1] - ref[:, 1:-1, 1:-1]).max()
                     / np.abs(ref[:, 1:-1, 1:-1]).max())
        elapsed = time.time() - t0
        ok = worst90 <= 1e-3 and bdev <= 1e-3 and worst45 <= 0.1 and elapsed < 60
        report(3, ok, f"C8 layers 90deg {worst90:.1e} / backbone 90deg {bdev:.1e} "
                      f"(limit 1e-3); 45deg layers {worst45:.3f} (limit 0.1); "
                      f"{elapsed:.0f}s")


class TestCriterion4:
    def test_parameter_law(self):
        details = []
        ok = True
        for n, grp in ((4, C4), (8, C8)):
            g = EquivConv(FieldType.regular(grp, 2), FieldType.regular(grp, 3),
                          3, bias=False)
            s = EquivConv(FieldType.regular(C1, 2 * n), FieldType.regular(C1, 3 * n),
                          3, bias=False)
            exact = param_count(s) == n * param_count(g)
            ok &= exact
            details.append(f"N={n}: {param_count(s)}/{param_count(g)} "
                           f"{'==' if exact else '!='} {n}")
        plain = Backbone(BackboneConfig(variant="plain"))
        c4s = Backbone(BackboneConfig(variant="c4star"))
        ratio = param_count(plain) / param_count(c4s)
        ok &= ratio >= 3.6
        report(4, ok, f"group/standard parameter law {details}; full backbone "
                      f"plain/c4star = {param_count(plain)}/{param_count(c4s)} "
                      f"= {ratio:.2f} (>= 3.6)")


class TestCriterion5:
    def test_gradient_correctness(self):
        t0 = time.time()
        # every differentiable op, exhaustively, in 64-bit
        from test_tensor import _fd_cases
        worst_ops = 0.0
        for name, (params, f) in _fd_cases().items():
            worst_ops = max(worst_ops, finite_diff_check(f, params, eps=1e-5))
        # composed tiny backbone+matcher loss on a 32x32 pair, sampled coords.
        # a short warm-up activates the fine branch (mutual matches must hit
        # ground-truth cells before fine parameters enter the loss at all)
        from rotmatch.tensor import GradientTape, backward
        from rotmatch.train import Adam

        cfg = Config.default()
        cfg.backbone.base_width = 8
        cfg.backbone.coarse_dim = 8
        cfg.backbone.fine_dim = 8
        cfg.matcher.d_model = 8
        cfg.matcher.n_blocks = 2
        cfg.matcher.n_heads = 2
        model = MatcherModel(cfg, rng=np.random.default_rng(6), dtype=np.float64)
        seq = make_synthetic_sequence("g", 32, 32, seed=77, jitter=False)
        batch = [(seq.image_a.astype(np.float64), seq.images_b[0].astype(np.float64),
                  seq.homographies[0])]
        params = model.parameters()
        opt = Adam(params, lr=2e-3)
        fine_active = 0
        for _ in range(60):
            with GradientTape() as tape:
                tape.watch(*params)
                total, _, fine_l, stats = batch_loss(model, batch)
                grads = backward(total, tape)
            opt.step(grads)
            fine_active = stats["fine_terms"]

        def loss_fn(_):
            total, _, _, _ = batch_loss(model, batch)
            return total

        with GradientTape() as tape:
            tape.watch(*params)
            grads = backward(loss_fn(params), tape)
        all_reached = len(tape.untracked) == 0
        err = finite_diff_check(loss_fn, params, eps=1e-6,
                                sample=8, rng=np.random.default_rng(8))
        elapsed = time.time() - t0
        ok = worst_ops < 1e-4 and err < 1e-4 and all_reached and elapsed < 300
        report(5, ok, f"per-op finite differences {worst_ops:.1e}; composed "
                      f"backbone+matcher loss {err:.1e} (limit 1e-4; fine terms "
                      f"active: {fine_active}, all {len(params)} params reached: "
                      f"{all_reached}); {elapsed:.0f}s (limit 300s)")


class TestCriterion6:
    def test_geometry_oracles(self):
        rng = np.random.default_rng(9)
        # DLT exact recovery
        ang, s = 0.3, 1.1
        h_true = Homography(np.array([[s * np.cos(ang), -s * np.sin(ang), 12.0],
                                      [s * np.sin(ang), s * np.cos(ang), -5.0],
                                      [1e-4, -5e-5, 1.0]]))
        pts = rng.uniform(0, 200, size=(20, 2))
        d = projective_distance(dlt(pts, h_true.apply(pts)), h_true)
        # RANSAC controlled experiment: 70 noisy inliers + 30 outliers
        pa_in = rng.uniform(0, [160, 120], size=(70, 2))
        pb_in = h_true.apply(pa_in) * 0.0
        h_r = Homography(np.array([[1.02, 0.05, 4.0], [-0.03, 0.98, -6.0],
                                   [1e-5, -2e-5, 1.0]]))
        pb_in = h_r.apply(pa_in) + rng.normal(0, 0.5, size=(70, 2))
        pa = np.concatenate([pa_in, rng.uniform(0, [160, 120], size=(30, 2))])
        pb = np.concatenate([pb_in, rng.uniform(0, [160, 120], size=(30, 2))])
        h_est, mask = ransac_homography(pa, pb, thresh_px=3.0, seed=13)
        inlier_recall = mask[:70].mean()
        cerr = corner_error(h_r, h_est, 160, 120)
        # closed-form AUC and MMA hand examples

        class _M:
            def __init__(self, a, b):
                self.point_a, self.point_b = a, b

        ms = [_M((0, 0), (1, 0)), _M((0, 0), (4, 0)), _M((0, 0), (12, 0))]
        frac = mma(ms, Homography(np.eye(3)))
        mma_ok = (frac[3.0] == pytest.approx(1 / 3) and frac[5.0] == pytest.approx(2 / 3)
                  and frac[10.0] == pytest.approx(2 / 3))
        auc_ok = (auc([0.0], 3.0) == 100.0 and auc([5.0], 10.0) == pytest.approx(50.0)
                  and auc([0.0, 10.0], 10.0) == pytest.approx(50.0))
        ok = d < 1e-8 and inlier_recall >= 0.95 and cerr < 1.5 and mma_ok and auc_ok
        report(6, ok, f"DLT recovery {d:.1e} (<1e-8); RANSAC inlier recall "
                      f"{inlier_recall:.2f} (>=0.95), corner error {cerr:.2f}px "
                      f"(<1.5); AUC/MMA hand examples exact: {auc_ok and mma_ok}")


class TestCriterion7:
    def test_dataset_generator_consistency(self, tmp_path):
        # photometric ground-truth checks, pre-jitter
        worst = float("inf")
        for seed in (41, 42):
            seq = make_synthetic_sequence("s", 64, 64, seed=seed, jitter=False)
            for k, a, b, hom in seq.pairs():
                worst = min(worst, warp_consistency_psnr(a, b, hom))
            rot = make_rotated(seq, 45.0, seed=7)
            for k, a, b, hom in rot.pairs():
                worst = min(worst, warp_consistency_psnr(a, b, hom,
                                                         valid_mask=rot.valid_masks[k]))
            warped = make_warped(seq, 0.3, seed=8)
            for k, a, b, hom in warped.pairs():
                worst = min(worst, warp_consistency_psnr(a, b, hom,
                                                         valid_mask=warped.valid_masks[k]))
        # corner offsets respect the (s*h, s*w) bound exactly, outward
        rng = np.random.default_rng(10)
        bound_ok = True
        for _ in range(200):
            offs = sample_corner_offsets(480, 640, 0.3, rng)
            bound_ok &= bool((np.abs(offs[:, 1]) <= 0.3 * 480).all())
            bound_ok &= bool((np.abs(offs[:, 0]) <= 0.3 * 640).all())
            bound_ok &= bool((offs[0] <= 0).all() and (offs[3] >= 0).all())
        # bit determinism per seed
        d1 = str(tmp_path / "d1")
        d2 = str(tmp_path / "d2")
        synth_dataset(d1, 2, 32, 32, seed=5)
        synth_dataset(d2, 2, 32, 32, seed=5)

        def digest(root):
            h = hashlib.sha256()
            for dirpath, dirnames, files in sorted(os.walk(root)):
                dirnames.sort()
                for name in sorted(files):
                    h.update(open(os.path.join(dirpath, name), "rb").read())
            return h.hexdigest()

        deterministic = digest(d1) == digest(d2)
        ok = worst > 30.0 and bound_ok and deterministic
        report(7, ok, f"photometric GT checks min {worst:.1f} dB (> 30); "
                      f"corner-offset bounds exact: {bound_ok}; "
                      f"bit-deterministic: {deterministic}")


class TestCriterion8:
    def test_directional_reproduction(self, experiment):
        test_dir = experiment["test_dir"]
        scores = {}
        for variant in ("plain", "c4star"):
            cfg, model = experiment["models"][variant]
            scores[variant] = {}
            for mod in ("none", "r45", "r20", "r90"):
                run = evaluate(model, test_dir, mod, cfg)
                scores[variant][mod] = run.report.mma_at(10.0, "all")
        unmod_diff = abs(scores["c4star"]["none"] - scores["plain"]["none"])
        gap45 = scores["c4star"]["r45"] - scores["plain"]["r45"]
        gap20 = scores["c4star"]["r20"] - scores["plain"]["r20"]
        gap90 = scores["c4star"]["r90"] - scores["plain"]["r90"]
        minutes = experiment["minutes"]
        ok = (unmod_diff <= 5.0 and gap45 >= 20.0 and gap20 >= 0.0
              and max(minutes.values()) < 30.0)
        report(8, ok,
               f"MMA@10px plain/c4star: none {scores['plain']['none']:.1f}/"
               f"{scores['c4star']['none']:.1f} (diff {unmod_diff:.1f} <= 5); "
               f"r45 {scores['plain']['r45']:.1f}/{scores['c4star']['r45']:.1f} "
               f"(gap {gap45:.1f} >= 20); "
               f"r20 {scores['plain']['r20']:.1f}/{scores['c4star']['r20']:.1f} "
               f"(gap {gap20:.1f} >= 0); supporting r90 gap {gap90:.1f}; train "
               f"{minutes['plain']:.1f}/{minutes['c4star']:.1f} min (< 30)")


class TestCriterion9:
    def test_end_to_end_determinism(self, experiment):
        cfg, model = experiment["models"]["c4star"]
        test_dir = experiment["test_dir"]
        runs = [evaluate(model, test_dir, "r20", cfg) for _ in range(2)]
        b1 = report_csv(runs[0], "c4star")
        b2 = report_csv(runs[1], "c4star")
        ok = b1 == b2
        report(9, ok, f"repeated evaluate runs byte-identical CSV: {ok} "
                      f"({len(b1)} bytes)")
