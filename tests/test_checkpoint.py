import json
import struct

import numpy as np
import pytest

from rotmatch.checkpoint import MAGIC, checkpoint_config, load_checkpoint, save_checkpoint
from rotmatch.config import Config, load_config
from rotmatch.model import MatcherModel, load_model, save_model


_NO_PARAMS = "manifest is not a JSON object with a 'params' list"


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        state = {
            "a.weight": rng.normal(size=(3, 4)).astype(np.float32),
            "b.bias": rng.normal(size=(7,)).astype(np.float64),
            "scalar": np.float32(2.5).reshape(()),
        }
        path = tmp_path / "m.rmckpt"
        save_checkpoint(path, state)
        back = load_checkpoint(path)
        assert list(back.keys()) == list(state.keys())
        for k in state:
            assert np.array_equal(back[k], np.asarray(state[k]))
            assert back[k].dtype == np.asarray(state[k]).dtype

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "m.rmckpt"
        save_checkpoint(path, {"x": np.zeros(2, dtype=np.float32)})
        assert path.read_bytes()[:8] == MAGIC == b"RMCKPT02"

    def test_softmax_coarse_checkpoint_rejected(self, tmp_path):
        # RMCKPT01 files hold the same keys and shapes, trained for softmax
        # coarse attention
        path = str(tmp_path / "old.rmckpt")
        save_model(path, MatcherModel(Config.default()))
        with open(path, "r+b") as f:
            f.write(b"RMCKPT01")
        for read in (load_checkpoint, checkpoint_config, load_model):
            with pytest.raises(ValueError, match="before linear coarse attention; retrain"):
                read(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rmckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_little_endian_payload(self, tmp_path):
        path = tmp_path / "m.rmckpt"
        save_checkpoint(path, {"x": np.array([1.0], dtype=np.float32)})
        data = path.read_bytes()
        assert data[-4:] == np.array([1.0], dtype="<f4").tobytes()

    def test_config_text_round_trip(self, tmp_path):
        path = tmp_path / "m.rmckpt"
        save_checkpoint(path, {"x": np.zeros(2, dtype=np.float32)}, "train.steps = 3\n")
        assert checkpoint_config(path) == "train.steps = 3\n"
        assert list(load_checkpoint(path)) == ["x"]
        save_checkpoint(path, {"x": np.zeros(2, dtype=np.float32)})
        assert checkpoint_config(path) is None

    def test_manifest_length_beyond_file_rejected(self, tmp_path):
        path = tmp_path / "m.rmckpt"
        save_checkpoint(path, {"x": np.zeros(2, dtype=np.float32)})
        data = path.read_bytes()
        path.write_bytes(data[:8] + struct.pack("<Q", 1 << 40) + data[16:])
        with pytest.raises(ValueError, match="manifest length"):
            load_checkpoint(path)
        with pytest.raises(ValueError, match="manifest length"):
            checkpoint_config(path)

    @pytest.mark.parametrize("manifest,message", [
        ([{"name": "x", "shape": [2], "width": 4}], _NO_PARAMS),
        ({"config": "train.steps = 3\n"}, _NO_PARAMS),
        ({"params": [{"name": "x", "shape": [2], "width": 2}]},
         "manifest entry 'x': width 2 is not 4 or 8"),
        ({"params": [{"name": "x", "shape": [-2], "width": 4}]},
         "manifest entry 'x': shape [-2] is not a list of non-negative integers"),
        ({"params": [], "config": 5}, "manifest config 5 is not a string"),
    ])
    def test_malformed_manifest_rejected(self, tmp_path, manifest, message):
        path = tmp_path / "m.rmckpt"
        text = json.dumps(manifest).encode("utf-8")
        path.write_bytes(MAGIC + struct.pack("<Q", len(text)) + text + bytes(8))
        for read in (load_checkpoint, checkpoint_config):
            with pytest.raises(ValueError) as err:
                read(path)
            assert str(err.value) == f"{path}: {message}"


class TestModelCheckpoint:
    def test_save_load_identical_behaviour(self, tmp_path):
        cfg = Config.default()
        cfg.backbone.base_width = 8
        cfg.backbone.coarse_dim = 16
        cfg.backbone.fine_dim = 8
        cfg.matcher.d_model = 16
        cfg.matcher.n_blocks = 2
        model = MatcherModel(cfg, rng=np.random.default_rng(3))
        rng = np.random.default_rng(4)
        img_a = rng.random((3, 32, 32)).astype(np.float32)
        img_b = rng.random((3, 32, 32)).astype(np.float32)
        mset1, _, _ = model.match_pair(img_a, img_b)
        path = str(tmp_path / "model.rmckpt")
        save_model(path, model)
        back = load_model(path)
        mset2, _, _ = back.match_pair(img_a, img_b)
        assert np.array_equal(mset1.idx_a, mset2.idx_a)
        assert np.array_equal(mset1.confidence, mset2.confidence)

    def test_shape_mismatch_rejected(self, tmp_path):
        cfg = Config.default()
        cfg.backbone.base_width = 8
        cfg.backbone.coarse_dim = 16
        cfg.backbone.fine_dim = 8
        model = MatcherModel(cfg)
        path = str(tmp_path / "model.rmckpt")
        save_model(path, model)
        cfg2 = load_config(overrides=checkpoint_config(path).splitlines())
        cfg2.backbone.base_width = 16
        other = MatcherModel(cfg2)
        from rotmatch.checkpoint import load_checkpoint as lc
        with pytest.raises(ValueError, match="shape mismatch"):
            other.load_state_dict(lc(path))

    def test_single_file_carries_config(self, tmp_path):
        cfg = Config.default()
        cfg.backbone.base_width = 8
        cfg.backbone.coarse_dim = 16
        cfg.backbone.fine_dim = 8
        path = str(tmp_path / "model.rmckpt")
        save_model(path, MatcherModel(cfg))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.rmckpt"]
        assert load_model(path).config.to_text() == cfg.to_text()

    def test_checkpoint_without_config_rejected(self, tmp_path):
        path = str(tmp_path / "model.rmckpt")
        save_checkpoint(path, MatcherModel(Config.default()).state_dict())
        with pytest.raises(ValueError, match="no config"):
            load_model(path)


CONFIG_KEYS = ["backbone.variant", "backbone.base_width", "backbone.coarse_dim",
               "backbone.fine_dim", "matcher.theta_c", "matcher.d_model",
               "matcher.n_blocks", "matcher.n_heads", "train.lr", "train.batch_size",
               "train.steps", "train.val_interval", "train.seed", "eval.thresholds"]


class TestConfig:
    def test_key_list_pinned(self):
        # a key is kept only when something sets it to a non-default value;
        # a new key needs a deliberate change here
        text = Config.default().to_text()
        assert [line.split(" = ")[0] for line in text.splitlines()] == CONFIG_KEYS

    def test_defaults_printable_and_reparseable(self, tmp_path):
        text = Config.default().to_text()
        assert "backbone.variant" in text and "matcher.theta_c" in text
        path = tmp_path / "c.cfg"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.to_text() == text

    def test_overrides(self):
        cfg = load_config(None, overrides=["backbone.variant=plain",
                                           "train.steps=7",
                                           "matcher.theta_c=0.4"])
        assert cfg.backbone.variant == "plain"
        assert cfg.train.steps == 7
        assert cfg.matcher.theta_c == 0.4

    def test_unknown_key_rejected(self):
        # matcher.temperature is a removed key: a config that names it fails
        for override in ("backbone.nope=1", "matcher.temperature=0.1"):
            with pytest.raises(ValueError, match="unknown config key"):
                load_config(None, overrides=[override])

    @pytest.mark.parametrize("override", ["backbone.stage_widths=[1,2]", "matcher.validate=[1]",
                                          'backbone.__doc__="x"', "train.__init__=1"])
    def test_non_field_attribute_rejected(self, override):
        # methods, properties and dunders are attributes of a section, not keys
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(None, overrides=[override])

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            load_config(None, overrides=["train.steps=0"])

    def test_int_fields_reject_non_integral_values(self):
        assert load_config(None, overrides=["train.steps=3.0"]).train.steps == 3
        for text in ("2.7", "true", "abc", "[2]", "NaN", "Infinity"):
            with pytest.raises(ValueError, match="must be an integer"):
                load_config(None, overrides=[f"train.steps={text}"])

    def test_other_field_types_checked(self):
        for override in ("train.lr=abc", "train.lr=false", "train.lr=NaN",
                         "backbone.variant=5", "eval.thresholds=3",
                         'eval.thresholds=["a"]'):
            with pytest.raises(ValueError, match="must be"):
                load_config(None, overrides=[override])
        cfg = load_config(None, overrides=["train.lr=1", "eval.thresholds=[2, 4.5]"])
        assert cfg.train.lr == 1.0 and isinstance(cfg.train.lr, float)
        assert cfg.eval.thresholds == (2, 4.5)

    @pytest.mark.parametrize("overrides,message", [
        (["matcher.d_model=30"], "multiple of 4"),
        (["matcher.d_model=0"], "multiple of 4"),
        (["matcher.n_heads=3"], "divisible by n_heads"),
        (["matcher.n_heads=0"], "divisible by n_heads"),
        (["backbone.fine_dim=6"], "fine attention"),
        (["train.batch_size=0"], "batch_size"),
        (["train.val_interval=0"], "val_interval"),
        (["train.seed=-1"], "seed"),
        (["eval.thresholds=[]"], "thresholds"),
        (["eval.thresholds=[NaN]"], "thresholds"),
        (["eval.thresholds=[0, 5]"], "thresholds"),
    ])
    def test_cross_field_constraints(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            load_config(None, overrides=overrides)

    def test_cross_field_constraints_accept_consistent_values(self):
        cfg = load_config(None, overrides=["matcher.d_model=48", "matcher.n_heads=3",
                                           "backbone.fine_dim=2", "train.batch_size=1"])
        assert cfg.matcher.d_model == 48 and cfg.backbone.fine_dim == 2

    def test_hash_stable(self):
        assert Config.default().hash() == Config.default().hash()
        other = load_config(None, overrides=["train.steps=9"])
        assert other.hash() != Config.default().hash()
