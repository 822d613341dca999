import numpy as np
import pytest

from rotmatch.backbone import Backbone
from rotmatch.config import Config
from rotmatch.model import MatcherModel
from rotmatch.nn import Linear, Module
from rotmatch import tensor as T
from rotmatch.tensor import Tensor


class Leaf(Module):
    def __init__(self, tag):
        super().__init__()
        self.w = Tensor(np.full(2, tag), requires_grad=True)
        self.stat = np.full(3, tag, dtype=np.float32)


class Tree(Module):
    """Buffers, tensors, modules and lists interleaved in attribute order."""

    def __init__(self):
        super().__init__()
        self.count = np.zeros(1, dtype=np.float32)
        self.first = Leaf(1.0)
        self.gain = Tensor(np.ones(2), requires_grad=True)
        self.layers = [Leaf(2.0), "not a module", Leaf(3.0)]
        self.frozen = Tensor(np.ones(2))                 # no gradient: not a parameter
        self.proj = Linear(2, 2, bias=False)
        self._hidden = Leaf(9.0)                         # private: not walked


class TestModuleWalker:
    def test_parameter_order_follows_attributes_depth_first(self):
        names = [n for n, _ in Tree().named_parameters()]
        assert names == ["first.w", "gain", "layers.0.w", "layers.2.w", "proj.weight"]

    def test_buffer_order_and_owners(self):
        tree = Tree()
        assert [n for n, _ in tree.named_buffers()] == [
            "count", "first.stat", "layers.0.stat", "layers.2.stat"]
        state = tree.state_dict()
        state["layers.2.stat"] = np.full(3, 7.0)
        state["count"] = np.array([5.0])
        tree.load_state_dict(state)
        assert np.array_equal(tree.layers[2].stat, np.full(3, 7.0))
        assert tree.layers[2].stat.dtype == np.float32
        assert np.array_equal(tree.layers[0].stat, np.full(3, 2.0))
        assert tree.count[0] == 5.0

    def test_missing_entries_reported(self):
        tree = Tree()
        state = tree.state_dict()
        del state["layers.0.w"], state["first.stat"]
        with pytest.raises(ValueError, match="missing") as err:
            tree.load_state_dict(state)
        assert "'layers.0.w'" in str(err.value) and "'first.stat'" in str(err.value)

    @pytest.mark.parametrize("fault", ["shape", "missing", "unknown"])
    def test_rejected_load_leaves_model_unchanged(self, fault):
        tree = Tree()
        before = {k: v.copy() for k, v in tree.state_dict().items()}
        state = {k: v + 1.0 for k, v in before.items()}
        if fault == "shape":
            state["proj.weight"] = np.zeros((3, 2))      # the last entry walked
        elif fault == "missing":
            del state["proj.weight"]
        else:
            state["extra.w"] = np.zeros(2)
        message = {"shape": "shape mismatch", "missing": "missing", "unknown": "lacks"}
        with pytest.raises(ValueError, match=message[fault]):
            tree.load_state_dict(state)
        after = tree.state_dict()
        assert list(after) == list(before)
        for k, v in before.items():
            assert np.array_equal(after[k], v), k

    def test_train_reaches_every_module(self):
        tree = Tree()
        tree.eval()
        assert not any(m.training for m in tree.modules())
        assert len(tree.modules()) == 5      # tree, first, two list items, proj
        assert tree._hidden.training          # private attributes are not walked
        tree.train()
        assert all(m.training for m in tree.modules())

    def test_mode_switches_and_restores(self):
        # from a tree in training, eval and mixed mode: every flag and every
        # state byte are as before the block, also when the block raises
        for start in ("train", "eval", "mixed"):
            tree = Tree()
            if start != "train":
                tree.eval()
            if start == "mixed":
                tree.layers[2].train()
            flags = [m.training for m in tree.modules()]
            state = {k: v.tobytes() for k, v in tree.state_dict().items()}

            def unchanged():
                return ([m.training for m in tree.modules()] == flags
                        and {k: v.tobytes() for k, v in tree.state_dict().items()} == state)

            for training in (False, True):
                with tree.mode(training) as same:
                    assert same is tree
                    assert all(m.training == training for m in tree.modules())
                    with tree.mode(training):
                        pass
                    assert all(m.training == training for m in tree.modules())
                assert unchanged(), start
                with pytest.raises(RuntimeError, match="inside"):
                    with tree.mode(training):
                        raise RuntimeError("inside")
                assert unchanged(), start

    def test_mode_covers_a_mixed_tree(self):
        tree = Tree()
        tree.eval()
        tree.layers[2].train()
        with tree.mode(False):
            assert not any(m.training for m in tree.modules())
        assert [m.training for m in tree.modules()] == [False, False, False, True, False]
        with tree.mode(True):
            assert all(m.training for m in tree.modules())
        assert [m.training for m in tree.modules()] == [False, False, False, True, False]

    def test_match_pair_leaves_a_training_child_unchanged(self):
        # at 240x320 each image's backbone runs on its own lane; a backbone
        # in training mode would norm by batch statistics and write its
        # running buffers from both lanes
        model = MatcherModel(Config.default())
        model.eval()
        model.backbone.train()
        before = {k: v.tobytes() for k, v in model.state_dict().items()}
        img = np.random.default_rng(0).random((2, 3, 240, 320))
        assert 240 * 320 >= T.LANE_PIXELS
        model.match_pair(img[0], img[1])
        assert {k: v.tobytes() for k, v in model.state_dict().items()} == before
        assert model.backbone.training and not model.coarse.training

    @pytest.mark.parametrize("wrap", [list, tuple])
    def test_mode_sees_children_swapped_in(self, wrap):
        spare = wrap([Leaf(4.0), Leaf(5.0)])   # made before `eval`, in training mode
        tree = Tree()
        tree.eval()
        with tree.mode(False):
            pass
        tree.layers = spare
        with tree.mode(False):
            assert not any(m.training for m in tree.modules())
        assert [m.training for m in spare] == [True, True]

    def test_match_pair_sees_a_backbone_swapped_in(self):
        cfg = Config.default()
        spare = Backbone(cfg.backbone)   # made before `eval`, in training mode
        model = MatcherModel(cfg)
        model.eval()
        model.backbone = spare
        before = {k: v.tobytes() for k, v in model.state_dict().items()}
        img = np.random.default_rng(0).random((2, 3, 64, 64))
        model.match_pair(img[0], img[1])
        assert {k: v.tobytes() for k, v in model.state_dict().items()} == before
        assert spare.training

    def test_matcher_state_dict_order(self):
        keys = list(MatcherModel(Config.default()).state_dict())
        i = keys.index("coarse.blocks.0.mha.wo.bias")
        assert keys[i + 1:i + 4] == ["coarse.blocks.0.ln1_gain", "coarse.blocks.0.ln1_bias",
                                     "coarse.blocks.0.ff1.weight"]
        assert keys[0] == "backbone.stem.base"
        assert keys[-1] == "backbone.smooth1_bn.running_var"
