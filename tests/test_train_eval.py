import os
import subprocess
import sys

import numpy as np
import pytest

from rotmatch import tensor as T
from rotmatch.backbone import FINE_STRIDE, Backbone
from rotmatch.config import Config
from rotmatch.datasets import (Sequence, _Texture, SynthParams, synth_dataset)
from rotmatch.evaluate import (EvalRun, equivariance_check, evaluate, evaluate_pairs,
                               match_images, match_overlay, parse_csv,
                               render_table, report_csv)
from rotmatch.geometry import Homography
from rotmatch.matcher import CoarseMatchSet, FineMatch, FineMatcher
from rotmatch.model import MatcherModel
from rotmatch.tensor import GradientTape, backward
from rotmatch.train import batch_loss, sample_batch, train


# 16 training steps in the criterion-8 config (c4star, base width 24,
# d_model 32, 2 blocks, 64x64, batch 2): the losses' count and hash
_TRAIN_LOSS_HASH = r"""
import hashlib, sys
import numpy as np
from rotmatch.config import Config
from rotmatch.datasets import synth_dataset
from rotmatch.train import train

cfg = Config.default()
cfg.backbone.variant = "c4star"
cfg.backbone.base_width = 24
cfg.matcher.d_model = 32
cfg.matcher.n_blocks = 2
cfg.train.steps = cfg.train.val_interval = 16
synth_dataset(sys.argv[1] + "/data", 4, 64, 64, seed=0)
result, _ = train(cfg, sys.argv[1] + "/data", sys.argv[1] + "/run")
print(len(result.losses), hashlib.sha256(np.array(result.losses).tobytes()).hexdigest())
"""


def tiny_config(variant="c4star", steps=30):
    cfg = Config.default()
    cfg.backbone.variant = variant
    cfg.train.steps = steps
    cfg.train.val_interval = max(steps // 2, 1)
    return cfg


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Smoke-trained tiny c4star model on 8 synthetic 64x64 scenes."""
    root = tmp_path_factory.mktemp("smoke")
    data = str(root / "data")
    synth_dataset(data, 8, 64, 64, seed=100)
    cfg = tiny_config(steps=200)
    result, model = train(cfg, data, str(root / "run"))
    return cfg, result, model, data


class TestTraining:
    def test_smoke_loss_halves(self, trained):
        _, result, _, _ = trained
        first = np.mean(result.losses[:20])
        last = np.mean(result.losses[-20:])
        assert last <= 0.5 * first

    def test_checkpoints_written(self, trained):
        _, result, _, _ = trained
        assert os.path.exists(result.best_checkpoint)
        assert os.path.exists(os.path.join(result.out_dir, "model_final.rmckpt"))
        assert os.path.exists(os.path.join(result.out_dir, "train_log.jsonl"))

    def test_deterministic_loss_curve(self, tmp_path):
        data = str(tmp_path / "d")
        synth_dataset(data, 4, 32, 32, seed=7)
        cfg = tiny_config(steps=12)
        cfg.backbone.base_width = 8
        cfg.backbone.coarse_dim = 16
        cfg.backbone.fine_dim = 8
        cfg.matcher.d_model = 16
        r1, _ = train(cfg, data, str(tmp_path / "r1"))
        r2, _ = train(cfg, data, str(tmp_path / "r2"))
        assert r1.losses == r2.losses

    def test_skipped_batches_still_validate(self, tmp_path):
        # B views 1000 px off A share no ground-truth cell with it, so every
        # batch is skipped; the step that lands on val_interval still
        # validates, and every step counts as run
        from rotmatch.datasets import DatasetManifest, save_sequence
        data = str(tmp_path / "far")
        os.makedirs(data)
        h = w = 32
        shift = Homography(np.array([[1.0, 0, 1000.0], [0, 1, 0], [0, 0, 1]]))
        scenes = []
        for i in range(2):
            tex = _Texture(np.random.default_rng(i), h, w, SynthParams())
            seq = Sequence(name=f"scene_{i:04d}", image_a=tex.render(None, h, w),
                           images_b=[tex.render(shift, h, w)] * 5, homographies=[shift] * 5)
            save_sequence(data, seq)
            scenes.append({"name": seq.name, "split": "synthetic", "seed": i, "jitter": False})
        DatasetManifest(data, 0, h, w, scenes).save()
        cfg = tiny_config(steps=3)
        cfg.train.val_interval = 3
        cfg.backbone.base_width = 8
        cfg.backbone.coarse_dim = 16
        cfg.backbone.fine_dim = 8
        cfg.matcher.d_model = 16
        result, _ = train(cfg, data, str(tmp_path / "run"))
        assert result.skipped_batches == 3 and result.losses == []
        assert result.steps_run == 3
        assert [step for step, _ in result.val_history] == [3]

    def test_losses_independent_of_blas_threads(self, tmp_path):
        # the package sets OpenBLAS to one thread at import, so the conv
        # kernel gradients, and with them the losses, do not depend on the
        # environment's thread count
        src = os.path.dirname(os.path.dirname(os.path.abspath(T.__file__)))
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        out = []
        for threads in (None, "1", "2"):
            env = dict(base, PYTHONPATH=src)
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run([sys.executable, "-c", _TRAIN_LOSS_HASH,
                                   str(tmp_path / f"t{threads}")],
                                  env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout.split())
        assert out[0][0] == "16" and out[0] == out[1] == out[2], out

    def test_log_carries_step_observability(self, tmp_path, monkeypatch):
        import json
        import rotmatch.train as rtrain
        data = str(tmp_path / "d")
        synth_dataset(data, 4, 32, 32, seed=9)
        cfg = tiny_config(steps=3)
        cfg.backbone.base_width = 8
        cfg.backbone.coarse_dim = 16
        cfg.backbone.fine_dim = 8
        cfg.matcher.d_model = 16
        replays = []

        def recording_backward(loss, tape):
            grads = backward(loss, tape)
            replays.append((grads, list(tape.untracked)))
            return grads

        monkeypatch.setattr(rtrain, "backward", recording_backward)
        result, model = train(cfg, data, str(tmp_path / "r"), log_every=1)
        names = {id(p): n for n, p in model.named_parameters()}
        with open(os.path.join(result.out_dir, "train_log.jsonl"), encoding="utf-8") as f:
            entries = [e for e in map(json.loads, f) if "loss" in e]
        assert [e["step"] for e in entries] == [1, 2, 3] and len(replays) == 3
        for e, (grads, untracked) in zip(entries, replays):
            assert {"step_s", "backward_s", "grad_norm", "untracked"} <= set(e)
            assert 0 < e["backward_s"] < e["step_s"]
            direct = np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in grads.values()))
            assert e["grad_norm"] == pytest.approx(direct, rel=1e-12)
            assert e["untracked"] == [names[id(p)] for p in untracked]
        # the logged fields leave the loss curve as it is
        quiet, _ = train(cfg, data, str(tmp_path / "q"), log_every=1000)
        assert quiet.losses == result.losses

    def test_lambda_zero_gives_zero_fine_gradients(self, tmp_path):
        data = str(tmp_path / "d")
        synth_dataset(data, 3, 32, 32, seed=8)
        cfg = tiny_config(steps=1)
        cfg.backbone.base_width = 8
        cfg.backbone.coarse_dim = 16
        cfg.backbone.fine_dim = 8
        cfg.matcher.d_model = 16
        model = MatcherModel(cfg, rng=np.random.default_rng(0))
        from rotmatch.datasets import load_manifest
        seqs = load_manifest(data).sequences()
        batch = sample_batch(np.random.default_rng(0), seqs, 2)
        fine_params = model.fine.parameters()
        with GradientTape() as tape:
            tape.watch(*model.parameters())
            # the coarse loss is the total loss at a fine-loss weight of zero
            _, coarse_loss, _, _ = batch_loss(model, batch)
            grads = backward(coarse_loss, tape)
        for p in fine_params:
            assert np.allclose(grads[p], 0.0)

    def test_divergence_aborts(self, tmp_path):
        data = str(tmp_path / "d")
        synth_dataset(data, 3, 32, 32, seed=9)
        cfg = tiny_config(steps=5)
        cfg.backbone.base_width = 8
        cfg.backbone.coarse_dim = 16
        cfg.backbone.fine_dim = 8
        cfg.matcher.d_model = 16
        cfg.train.lr = 1e12   # guaranteed blow-up
        with pytest.raises(FloatingPointError, match="non-finite"):
            train(cfg, data, str(tmp_path / "r"))


class _OracleModel:
    """Injects ground-truth correspondences for the queued homographies."""

    def __init__(self, config, homs_in_order, cell=8):
        self.config = config
        self.queue = list(homs_in_order)
        self.cell = cell

    def match_pair(self, img_a, views):
        out = []
        for _ in views:
            hom = self.queue.pop(0)
            h, w = img_a.shape[1:]
            hc, wc = h // self.cell, w // self.cell
            matches = []
            for r in range(hc):
                for c in range(wc):
                    pa = ((c + 0.5) * self.cell, (r + 0.5) * self.cell)
                    pb = hom.apply(np.array(pa))
                    if 0 <= pb[0] < w and 0 <= pb[1] < h:
                        matches.append(FineMatch(point_a=pa,
                                                 point_b=(float(pb[0]), float(pb[1])),
                                                 confidence=1.0))
            out.append((_coarse_set(len(matches)), matches, 0))
        return out


def _coarse_set(n):
    """A CoarseMatchSet of n matches, for stand-ins of `match_pair`."""
    idx = np.arange(n)
    return CoarseMatchSet(idx_a=idx, idx_b=idx, confidence=np.ones(n),
                          grid_a=(8, 8), grid_b=(8, 8))


def test_one_coarse_sweep_per_training_pair(trained, monkeypatch):
    # the loss's sweep also gives the pair's mutual matches: one `_sweep`
    # per pair, at theta_c, and the match set `mutual_matches` gives
    import rotmatch.matcher as M
    from rotmatch.datasets import load_manifest
    from rotmatch.tensor import Tensor
    from rotmatch.train import pair_loss_terms
    cfg, _, model, data = trained
    seq = load_manifest(data).sequences()[0]
    imgs = np.stack([seq.image_a, seq.images_b[0]]).astype(np.float32)
    with model.mode(False):
        coarse, fine = model.features(Tensor(imgs))
        fa, fb = model.coarse.embed(coarse[0], coarse[1])
        want = M.mutual_matches(fa.data * (1.0 / M.TEMPERATURE), fb.data, cfg.matcher.theta_c)
        sweeps, msets = [], []
        sweep, windows = M._sweep, FineMatcher.windows
        monkeypatch.setattr(M, "_sweep", lambda a, b, theta: sweeps.append(theta)
                            or sweep(a, b, theta))
        monkeypatch.setattr(FineMatcher, "windows", lambda self, mset, *shapes: (
            msets.append(mset) or windows(self, mset, *shapes)))
        nll, _, stats = pair_loss_terms(model, coarse[0], coarse[1], fine[0], fine[1],
                                        seq.homographies[0], 64, 64)
    assert sweeps == [cfg.matcher.theta_c] and len(msets) == 1
    assert len(want[0]) > 0 and np.isfinite(nll.data)
    for got, ref in zip((msets[0].idx_a, msets[0].idx_b, msets[0].confidence), want):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


class TestEvaluate:
    def test_perfect_oracle_scores_100(self, tmp_path):
        data = str(tmp_path / "d")
        manifest = synth_dataset(data, 3, 64, 64, seed=11)
        seqs = manifest.sequences()
        homs = [hom for seq in seqs for _, _, _, hom in seq.pairs()]
        cfg = Config.default()
        oracle = _OracleModel(cfg, homs)
        report = evaluate_pairs(oracle, seqs, cfg)
        assert report.auc_at(3.0, "all") == pytest.approx(100.0, abs=1e-6)
        assert report.mma_at(3.0, "all") == pytest.approx(100.0, abs=1e-6)

    def test_csv_bytes_deterministic(self, trained):
        cfg, result, model, data = trained
        run1 = evaluate(model, data, "none", cfg)
        run2 = evaluate(model, data, "none", cfg)
        assert report_csv(run1, "c4star") == report_csv(run2, "c4star")

    def test_modification_applied_deterministically(self, trained):
        cfg, _, model, data = trained
        run1 = evaluate(model, data, "r45", cfg)
        run2 = evaluate(model, data, "r45", cfg)
        assert report_csv(run1, "c4star") == report_csv(run2, "c4star")

    def test_render_table_layout(self, trained):
        cfg, _, model, data = trained
        run = evaluate(model, data, "none", cfg)
        rows = parse_csv(report_csv(run, "c4star"))
        table = render_table(rows)
        assert "Corner error AUC (%)" in table and "MMA (%)" in table
        assert "@3px" in table and "@10px" in table
        assert "c4star" in table

    def test_training_mode_left_alone(self, tmp_path):
        data = str(tmp_path / "d")
        seqs = synth_dataset(data, 1, 32, 32, seed=13).sequences()
        cfg = tiny_config()
        model = MatcherModel(cfg, rng=np.random.default_rng(0))
        evaluate_pairs(model, seqs, cfg)
        assert all(m.training for m in model.modules())

    def test_eval_mode_set_once_and_restored(self, tmp_path, monkeypatch):
        # from a model in training, eval and mixed mode: every pair runs in
        # eval mode, and every module's mode and every parameter and buffer
        # byte are as before `evaluate_pairs`, also when a pair raises
        seqs = synth_dataset(str(tmp_path / "d"), 1, 32, 32, seed=13).sequences()
        cfg = tiny_config()
        for start in ("train", "eval", "mixed"):
            model = MatcherModel(cfg, rng=np.random.default_rng(0))
            if start != "train":
                model.eval()
            if start == "mixed":
                model.backbone.train()
            flags = [m.training for m in model.modules()]
            state = {k: v.tobytes() for k, v in model.state_dict().items()}

            def unchanged():
                return ([m.training for m in model.modules()] == flags
                        and {k: v.tobytes() for k, v in model.state_dict().items()} == state)

            evaluate_pairs(model, seqs, cfg)
            assert unchanged(), start
            seen = []

            def fail(*args):
                seen.append([m.training for m in model.modules()])
                raise RuntimeError("match failed")

            monkeypatch.setattr(model.fine, "refine", fail)
            with pytest.raises(RuntimeError, match="match failed"):
                evaluate_pairs(model, seqs, cfg)
            assert seen == [[False] * len(flags)], start
            assert unchanged(), start

    def test_failures_scored_not_fatal(self, tmp_path):
        # a model emitting no matches must yield inf corner error and MMA 0
        data = str(tmp_path / "d")
        manifest = synth_dataset(data, 1, 32, 32, seed=12)
        seqs = manifest.sequences()
        cfg = Config.default()

        class _NoMatches:
            config = cfg

            def match_pair(self, a, views):
                return [(_coarse_set(0), [], 0) for _ in views]

        report = evaluate_pairs(_NoMatches(), seqs, cfg)
        assert report.n_failures == 5
        assert all(e == float("inf") for e in report.corner_errors)
        assert report.mma_at(10.0, "all") == 0.0
        assert report.auc_at(10.0, "all") == 0.0
        assert [s.failure for s in report.pair_stats] == ["too_few_matches"] * 5

    def test_pair_stats_name_each_failure(self, tmp_path, monkeypatch):
        # perfect matches; RANSAC is made to fail on the second and third pairs
        import rotmatch.evaluate as E
        from rotmatch.geometry import EstimationFailure
        seqs = synth_dataset(str(tmp_path / "d"), 1, 64, 64, seed=11).sequences()
        homs = [hom for seq in seqs for _, _, _, hom in seq.pairs()]
        cfg = Config.default()
        ransac, calls = E.ransac_homography, []

        def flaky(pa, pb, **kw):
            calls.append(len(pa))
            if len(calls) == 2:
                raise EstimationFailure("no homography", 17)
            if len(calls) == 3:
                raise ValueError("bad points")
            return ransac(pa, pb, **kw)

        monkeypatch.setattr(E, "ransac_homography", flaky)
        report = evaluate_pairs(_OracleModel(cfg, homs), seqs, cfg)
        stats = report.pair_stats
        assert [s.failure for s in stats] == [None, "estimation_failure", "value_error",
                                              None, None]
        assert report.n_failures == 2
        assert [s.coarse_matches for s in stats] == [s.fine_windows for s in stats] == calls
        assert stats[0].ransac_iterations >= 1 and stats[1].ransac_iterations == 17
        assert stats[2].ransac_iterations == 0
        assert all(s.fine_dropped == 0 for s in stats)

    def test_pair_stats_of_a_trained_model(self, trained):
        # the counts `match_pair` returns, and RANSAC's, per pair
        cfg, _, model, data = trained
        from rotmatch.datasets import load_manifest
        manifest = load_manifest(data)
        seqs = [manifest.load(name, "none") for name in manifest.sequence_names()]
        report = evaluate_pairs(model, seqs, cfg)
        stats = report.pair_stats
        assert len(stats) == len(report.pair_ids) == 40
        for s in stats:
            assert s.fine_windows + s.fine_dropped == s.coarse_matches
            assert (s.failure == "too_few_matches") == (s.fine_windows < 4)
            assert (s.ransac_iterations > 0) == (s.fine_windows >= 4)
        assert sum(s.failure is not None for s in stats) == report.n_failures
        assert sum(s.fine_windows for s in stats) > 0


    @pytest.mark.parametrize("size", [96, 160])   # one batched pass, then one lane per image
    def test_sequence_calls_give_per_pair_results(self, trained, size, tmp_path, monkeypatch):
        # one match_pair call per sequence scores each pair as its own call
        # does: the same report rows, pair stats and RANSAC seeds
        cfg, _, model, _ = trained
        seqs = synth_dataset(str(tmp_path / "d"), 2, size, size, seed=21).sequences()
        batches, backbone = [], Backbone.__call__
        monkeypatch.setattr(Backbone, "__call__",
                            lambda self, x: batches.append(x.shape[0]) or backbone(self, x))

        class _PerPair:
            config = cfg

            def match_pair(self, img_a, views):
                return [model.match_pair(img_a, img_b) for img_b in views]

        report = evaluate_pairs(model, seqs, cfg)
        calls = len(batches)
        want = evaluate_pairs(_PerPair(), seqs, cfg)
        assert batches[:calls] == ([6, 6] if size * size < T.LANE_PIXELS else [1] * 12)
        assert report.pair_ids == want.pair_ids and len(report.pair_ids) == 10
        assert repr(report.pair_stats) == repr(want.pair_stats)
        assert list(report.rows("d", "c4star")) == list(want.rows("d", "c4star"))
        csv = [report_csv(EvalRun("c", "d", "none", r, 0.0, "h"), "c4star") for r in (report, want)]
        assert csv[0] == csv[1]
        assert sum(s.fine_windows for s in report.pair_stats) > 0
        assert sum(s.ransac_iterations > 0 for s in report.pair_stats) > 0


class TestMatchImages:
    def test_self_match_sanity(self, trained, tmp_path):
        cfg, _, model, data = trained
        from rotmatch.datasets import load_manifest
        seq = load_manifest(data).sequences()[0]
        img = seq.image_a
        prefix = str(tmp_path / "self")
        matches = match_images(model, img, img, h_gt=Homography(np.eye(3)),
                               out_prefix=prefix)
        n_cells = (64 // 8) ** 2
        assert len(matches) >= 0.5 * n_cells
        errs = [np.hypot(m.point_a[0] - m.point_b[0], m.point_a[1] - m.point_b[1])
                for m in matches]
        assert np.median(errs) < 2.0
        assert os.path.exists(prefix + ".matches.txt")
        assert os.path.exists(prefix + ".ppm")

    def test_overlay_colors(self):
        img = np.zeros((3, 16, 16), dtype=np.float32)
        good = FineMatch((2.0, 2.0), (2.0, 2.0), 1.0)
        bad = FineMatch((2.0, 10.0), (14.0, 10.0), 1.0)
        canvas = match_overlay(img, img, [good, bad], h_gt=Homography(np.eye(3)))
        # green somewhere on the good line, red on the bad line
        assert (canvas[1] > 0.8).any() and (canvas[0] > 0.8).any()
        gray = match_overlay(img, img, [good], h_gt=None)
        ys, xs = np.nonzero(gray.sum(axis=0) > 0)
        assert np.allclose(gray[:, ys, xs], 0.6)


class TestLanes:
    def test_eval_96_and_train_64_start_no_pool(self, tmp_path, lanes, monkeypatch):
        # the perfbench eval-96 and train-64 shapes (criterion 8's model,
        # batch 2) are below LANE_PIXELS: even with two lanes to hand, every
        # `fork_join` call (the score sweep's, of one block) runs here
        monkeypatch.setattr(T, "LANES", 2)
        monkeypatch.setattr(T, "_POOL", None)
        cfg = tiny_config(steps=1)
        cfg.backbone.base_width = 24
        cfg.matcher.d_model = 32
        cfg.matcher.n_blocks = 2
        cfg.train.batch_size = 2
        synth_dataset(str(tmp_path / "train"), 2, 64, 64, seed=21)
        _, model = train(cfg, str(tmp_path / "train"), str(tmp_path / "run"))
        synth_dataset(str(tmp_path / "test"), 1, 96, 96, seed=22)
        evaluate(model, str(tmp_path / "test"), "r45", cfg)
        assert lanes and T._POOL is None, sorted({n for n, _ in lanes})
        assert {len(threads) for _, threads in lanes} == {1}


class TestEquivarianceCheck:
    def test_c4star_passes(self):
        passed, lines = equivariance_check("c4star", trials=10)
        assert passed, "\n".join(lines)
        assert any("PASS" in l for l in lines)

    def test_plain_negative_control_fails(self):
        passed, lines = equivariance_check("plain", trials=5)
        assert not passed
        assert any("FAIL" in l and "negative control" in l for l in lines)

    def test_given_model_measured_as_loaded(self):
        model = MatcherModel(tiny_config(), rng=np.random.default_rng(2))
        model.backbone.stem_bn.running_var[:] = 3.0
        before = {k: v.copy() for k, v in model.state_dict().items()}
        equivariance_check("c4star", backbone=model.backbone, trials=2)
        after = model.state_dict()
        assert list(after) == list(before)
        assert all(np.array_equal(after[k], before[k]) for k in before)
        assert model.training

    @pytest.mark.parametrize("variant", ["c4star", "c4", "c8star"])
    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_rejected(self, variant, trials):
        with pytest.raises(ValueError, match=f"{variant} needs at least one trial, got {trials}"):
            equivariance_check(variant, trials=trials)

    def test_plain_runs_no_trials(self):
        # plain has no layer suite: only the backbone negative control runs
        assert equivariance_check("plain", trials=0) == equivariance_check("plain", trials=5)

    def test_c8star_reports_45deg(self):
        passed, lines = equivariance_check("c8star", trials=10)
        assert passed, "\n".join(lines)
        assert any("45deg" in l for l in lines)


class TestFineTranslationBenchmark:
    def test_trained_toy_model_subpixel(self, tmp_path):
        # pure-translation scenes; after a short training run, the fine stage
        # must localize a 3.5 px translation to better than 1 px median error
        import json
        from rotmatch.datasets import save_sequence

        rng = np.random.default_rng(31)
        data = str(tmp_path / "trans")
        os.makedirs(data, exist_ok=True)
        h = w = 48
        scenes = []
        for i in range(6):
            tex = _Texture(np.random.default_rng(1000 + i), h, w, SynthParams())
            image_a = tex.render(None, h, w)
            homs, imgs = [], []
            for _ in range(5):
                # keep targets within the fine window's representable range
                t = rng.uniform(-4.0, 4.0, size=2)
                hom = Homography(np.array([[1.0, 0, t[0]], [0, 1, t[1]], [0, 0, 1]]))
                homs.append(hom)
                imgs.append(tex.render(hom, h, w))
            seq = Sequence(name=f"scene_{i:04d}", image_a=image_a, images_b=imgs,
                           homographies=homs)
            save_sequence(data, seq)
            scenes.append({"name": seq.name, "split": "synthetic", "seed": i,
                           "jitter": False})
        with open(os.path.join(data, "manifest.json"), "w") as f:
            json.dump({"seed": 0, "h": h, "w": w, "scenes": scenes}, f)

        cfg = tiny_config(steps=1000)
        cfg.backbone.base_width = 8
        cfg.backbone.coarse_dim = 16
        cfg.backbone.fine_dim = 8
        cfg.matcher.d_model = 16
        cfg.matcher.n_blocks = 2
        _, model = train(cfg, data, str(tmp_path / "run"))

        tex = _Texture(np.random.default_rng(5555), h, w, SynthParams())
        img_a = tex.render(None, h, w)
        hom = Homography(np.array([[1.0, 0, 3.5], [0, 1, 0], [0, 0, 1]]))
        img_b = tex.render(hom, h, w)
        _, matches, _ = model.match_pair(img_a, img_b)
        assert len(matches) >= 8
        errs = [np.hypot(m.point_b[0] - (m.point_a[0] + 3.5),
                         m.point_b[1] - m.point_a[1]) for m in matches]
        # error measured at the fine stage's native 1/2 resolution
        fine_scale_median = float(np.median(errs)) / FINE_STRIDE
        assert fine_scale_median < 1.0

