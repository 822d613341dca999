import os
import re

import numpy as np
import pytest

from rotmatch.checkpoint import checkpoint_config
from rotmatch.cli import main
from rotmatch.imageio import read_ppm


class TestGenerate:
    def test_generate_with_modifications(self, tmp_path, capsys):
        out = str(tmp_path / "data")
        rc = main(["generate", "--out", out, "--scenes", "2", "--size", "32x32",
                   "--seed", "3", "--rotate-a", "45", "--warp-s", "0.3"])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "manifest.json"))
        assert os.path.exists(os.path.join(out, "scene_0000", "1.ppm"))
        assert os.path.exists(os.path.join(out + "-r45", "scene_0000", "2.ppm"))
        assert os.path.exists(os.path.join(out + "-h0.3", "manifest.json"))

    def test_generated_copy_matches_evaluated_sequences(self, tmp_path):
        from rotmatch.datasets import load_manifest
        out = str(tmp_path / "data")
        main(["generate", "--out", out, "--scenes", "2", "--size", "32x32",
              "--seed", "5", "--rotate-a", "45"])
        base = load_manifest(out)
        written = load_manifest(out + "-r45").sequences()
        # `evaluate(model, out, "r45", ...)` scores exactly these sequences
        evaluated = [base.load(name, "r45") for name in base.sequence_names()]
        assert [s.name for s in written] == [s.name for s in evaluated]
        for w, e in zip(written, evaluated):
            for hw, he in zip(w.homographies, e.homographies):
                assert np.array_equal(hw.matrix, he.matrix)
            for iw, ie in zip([w.image_a] + w.images_b, [e.image_a] + e.images_b):
                assert np.abs(iw - ie).max() <= 0.5 / 255 + 1e-6

    def test_copy_tag_keeps_every_digit(self, tmp_path):
        # `:g` would write r45.1235 and rotate by 45.1235 degrees
        from rotmatch.datasets import load_manifest
        out = str(tmp_path / "data")
        main(["generate", "--out", out, "--scenes", "1", "--size", "32x32",
              "--seed", "5", "--rotate-a", "45.1234567", "--warp-s", "0.15"])
        assert sorted(os.listdir(tmp_path)) == ["data", "data-h0.15", "data-r45.1234567"]
        written = load_manifest(out + "-r45.1234567")
        assert [e["modification"] for e in written.scenes] == ["r45.1234567"]
        evaluated = load_manifest(out).load(written.scenes[0]["name"], "r45.1234567")
        seq = written.sequences()[0]
        for hw, he in zip(seq.homographies, evaluated.homographies):
            assert np.array_equal(hw.matrix, he.matrix)

    @pytest.mark.parametrize("scenes", ["0", "-2"])
    def test_no_scenes_exit_nonzero(self, tmp_path, scenes):
        out = str(tmp_path / "data")
        with pytest.raises(SystemExit, match=f"generate: .* at least one scene, got {scenes}"):
            main(["generate", "--out", out, "--scenes", scenes, "--size", "32x32"])
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag, value, tag, message", [
        ("--warp-s", "nan", "hnan", "the warp scale must be finite and positive"),
        ("--warp-s", "inf", "hinf", "the warp scale must be finite and positive"),
        ("--rotate-a", "nan", "rnan", r"the rotation angle must lie in \(0, 90\]"),
        ("--rotate-a", "0", "r0", r"the rotation angle must lie in \(0, 90\]"),
    ])
    def test_bad_copy_fails_before_writing(self, tmp_path, flag, value, tag, message):
        out = str(tmp_path / "data")
        with pytest.raises(SystemExit, match=f"generate: modification '{tag}': {message}"):
            main(["generate", "--out", out, "--scenes", "1", "--size", "32x32", flag, value])
        assert os.listdir(tmp_path) == []

    def test_generate_deterministic(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        main(["generate", "--out", a, "--scenes", "1", "--size", "32x32", "--seed", "9"])
        main(["generate", "--out", b, "--scenes", "1", "--size", "32x32", "--seed", "9"])
        pa = os.path.join(a, "scene_0000", "1.ppm")
        pb = os.path.join(b, "scene_0000", "1.ppm")
        assert open(pa, "rb").read() == open(pb, "rb").read()


@pytest.mark.parametrize("command", [
    ["generate", "--out", "unused"],
    ["match", "--checkpoint", "c", "--image-a", "a", "--image-b", "b", "--out-prefix", "p"],
])
@pytest.mark.parametrize("size", ["64", "0x0", "-8x8", "axb", "8x0", "8x8x8", "none"])
def test_size_needs_two_positive_integers(command, size, capsys):
    with pytest.raises(SystemExit) as err:
        main(command + [f"--size={size}"])
    assert err.value.code == 2
    assert (f"argument --size: expected two positive integers as AxB, got {size!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("mod, message", [
    ("r0", r"the rotation angle must lie in \(0, 90\]"), ("rabc", "'abc' is not a number"),
    ("hnan", "the warp scale must be finite and positive"), ("x9", "unknown modification"),
])
def test_evaluate_bad_mod_exits_before_work(tmp_path, mod, message, capsys):
    # the checkpoint and the dataset do not exist: the spec is checked first
    report = str(tmp_path / "rep")
    with pytest.raises(SystemExit) as err:
        main(["evaluate", "--checkpoint", str(tmp_path / "none.rmckpt"),
              "--dataset", str(tmp_path / "none"), "--mod", mod, "--report", report])
    assert err.value.code == 2
    assert re.search(f"argument --mod: .*{message}", capsys.readouterr().err)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("override", ["matcher.validate=[1]", "backbone.stage_widths=[1,2]",
                                      "backbone.__doc__=x", "matcher.temperature=0.1"])
def test_train_unknown_key_exits_before_work(tmp_path, override):
    out = str(tmp_path / "run")
    with pytest.raises(SystemExit, match=f"train: unknown config key '{override.split('=')[0]}'"):
        main(["train", "--data", str(tmp_path / "none"), "--out", out, "--set", override])
    assert os.listdir(tmp_path) == []


class TestPrintConfig:
    def test_print_config(self, capsys):
        rc = main(["--print-config"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "backbone.variant" in out
        assert "matcher.theta_c = 0.2" in out
        assert "train.lr = 0.001" in out


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    run = str(root / "run")
    main(["generate", "--out", data, "--scenes", "4", "--size", "32x32",
          "--seed", "11"])
    rc = main(["train", "--data", data, "--out", run,
               "--set", "train.steps=8", "--set", "train.val_interval=4",
               "--set", "backbone.base_width=8", "--set", "backbone.coarse_dim=16",
               "--set", "backbone.fine_dim=8", "--set", "matcher.d_model=16",
               "--set", "matcher.n_blocks=2"])
    assert rc == 0
    return root, data, os.path.join(run, "model_final.rmckpt")


class TestTrainEvaluateMatch:
    def test_train_wrote_artifacts(self, small_run):
        root, data, ckpt = small_run
        assert os.path.exists(ckpt)
        assert not os.path.exists(ckpt + ".config")
        text = checkpoint_config(ckpt)
        assert "train.steps = 8" in text and "matcher.d_model = 16" in text

    def test_evaluate_writes_reports(self, small_run):
        root, data, ckpt = small_run
        report = str(root / "rep")
        rc = main(["evaluate", "--checkpoint", ckpt, "--dataset", data,
                   "--mod", "none", "--report", report])
        assert rc == 0
        csv_text = open(report + ".csv").read()
        assert csv_text.startswith("dataset,variant,split,metric,threshold,value")
        assert ",auc,10," in csv_text
        assert os.path.exists(report + ".txt")

    def test_evaluate_deterministic_bytes(self, small_run):
        root, data, ckpt = small_run
        r1 = str(root / "rep1")
        r2 = str(root / "rep2")
        main(["evaluate", "--checkpoint", ckpt, "--dataset", data,
              "--mod", "r20", "--report", r1])
        main(["evaluate", "--checkpoint", ckpt, "--dataset", data,
              "--mod", "r20", "--report", r2])
        assert open(r1 + ".csv", "rb").read() == open(r2 + ".csv", "rb").read()

    def test_match_command(self, small_run):
        root, data, ckpt = small_run
        img_a = os.path.join(data, "scene_0000", "1.ppm")
        img_b = os.path.join(data, "scene_0000", "2.ppm")
        gt = os.path.join(data, "scene_0000", "H_1_2")
        prefix = str(root / "pair")
        rc = main(["match", "--checkpoint", ckpt, "--image-a", img_a,
                   "--image-b", img_b, "--gt-h", gt, "--out-prefix", prefix])
        assert rc == 0
        assert os.path.exists(prefix + ".matches.txt")
        assert os.path.exists(prefix + ".ppm")

    def test_match_command_resized(self, small_run):
        root, data, ckpt = small_run
        img = os.path.join(data, "scene_0000", "{}.ppm")
        prefix = str(root / "resized")
        rc = main(["match", "--checkpoint", ckpt, "--image-a", img.format(1),
                   "--image-b", img.format(2), "--out-prefix", prefix, "--size", "40x32"])
        assert rc == 0
        assert read_ppm(prefix + ".ppm").shape == (3, 32, 80)   # A and B side by side

    def test_report_merge(self, small_run, capsys):
        root, data, ckpt = small_run
        rep = str(root / "rep3")
        main(["evaluate", "--checkpoint", ckpt, "--dataset", data,
              "--mod", "none", "--report", rep])
        capsys.readouterr()
        rc = main(["report", rep + ".csv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Corner error AUC (%)" in out and "MMA (%)" in out


class TestEquivcheckCommand:
    def test_c4star_exit_zero(self, tmp_path, capsys):
        rc = main(["equivcheck", "--variant", "c4star", "--trials", "5",
                   "--report", str(tmp_path / "eq.txt")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert os.path.exists(tmp_path / "eq.txt")

    def test_plain_exit_nonzero(self, capsys):
        rc = main(["equivcheck", "--variant", "plain", "--trials", "3"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_no_trials_exit_nonzero(self, trials, capsys):
        with pytest.raises(SystemExit, match=f"equivcheck: .* at least one trial, got {trials}"):
            main(["equivcheck", "--variant", "c4star", "--trials", trials])
        assert "PASS" not in capsys.readouterr().out

    def test_plain_without_trials_runs_negative_control(self, capsys):
        rc = main(["equivcheck", "--variant", "plain", "--trials", "0"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out and "negative control" in out

    def test_variant_must_match_checkpoint(self, tmp_path):
        from rotmatch.config import Config
        from rotmatch.model import MatcherModel, save_model
        cfg = Config.default()
        cfg.backbone.base_width = 8
        path = str(tmp_path / "c4star.rmckpt")
        save_model(path, MatcherModel(cfg))
        with pytest.raises(SystemExit, match="--variant plain .* backbone.variant c4star"):
            main(["equivcheck", "--variant", "plain", "--checkpoint", path, "--trials", "2"])
