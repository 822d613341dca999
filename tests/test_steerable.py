import numpy as np
import pytest

from rotmatch import tensor as T
from rotmatch.groups import CyclicGroup, FieldType, act_on_field, rotate_image
from rotmatch.nn import param_count
from rotmatch.steerable import EquivConv, InnerBatchNorm, _expansion_taps
from rotmatch.tensor import Tensor, finite_diff_check

C1 = CyclicGroup(1)
C4 = CyclicGroup(4)
C8 = CyclicGroup(8)


def batch_act(elem, x, ft, mode="exact"):
    """Apply the group action to every item of a [b, c, h, w] batch."""
    out = [act_on_field(elem, x.data[i], ft, mode=mode).data for i in range(x.shape[0])]
    return Tensor(np.stack(out))


def smooth_noise(rng, shape, passes=6):
    """Gaussian-ish smooth random field via repeated box blurring."""
    x = rng.normal(size=shape)
    k = np.ones(5) / 5.0
    for _ in range(passes):
        x = np.apply_along_axis(lambda r: np.convolve(r, k, mode="same"), -1, x)
        x = np.apply_along_axis(lambda r: np.convolve(r, k, mode="same"), -2, x)
    return x.astype(np.float32)


class TestLiftConv:
    def test_n1_equals_standard_conv(self):
        rng = np.random.default_rng(0)
        layer = EquivConv(FieldType.trivial(C1, 3), FieldType.regular(C1, 5),
                          kernel_size=3, bias=False, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        got = layer(x).data
        ref = T.conv2d(x, layer.filter_bank(), padding=1).data
        assert np.array_equal(got, ref)
        assert layer.filter_bank().shape == (5, 3, 3, 3)

    def test_constant_input_equal_channels_within_field(self):
        rng = np.random.default_rng(1)
        layer = EquivConv(FieldType.trivial(C4, 2), FieldType.regular(C4, 3),
                          kernel_size=3, bias=False, rng=rng)
        x = Tensor(np.ones((1, 2, 8, 8), dtype=np.float32) * 0.7)
        y = layer(x).data[0, :, 4, 4].reshape(3, 4)
        assert np.allclose(y, y[:, :1], atol=1e-5)

    def test_c4_equivariance_exact(self):
        rng = np.random.default_rng(2)
        in_t = FieldType.trivial(C4, 3)
        out_t = FieldType.regular(C4, 4)
        layer = EquivConv(in_t, out_t, kernel_size=3, rng=rng)
        x = Tensor(rng.normal(size=(1, 3, 10, 10)).astype(np.float32))
        g = C4.element(1)
        lhs = batch_act(g, layer(x), out_t)
        rhs = layer(batch_act(g, x, in_t))
        assert np.abs(lhs.data - rhs.data).max() < 1e-5


class TestGroupConv:
    def test_n1_equals_standard_conv(self):
        rng = np.random.default_rng(3)
        layer = EquivConv(FieldType.regular(C1, 4), FieldType.regular(C1, 6),
                          kernel_size=3, bias=False, rng=rng)
        x = Tensor(rng.normal(size=(1, 4, 6, 6)).astype(np.float32))
        assert np.array_equal(layer(x).data,
                              T.conv2d(x, layer.filter_bank(), padding=1).data)

    def test_1x1_is_circular_group_correlation(self):
        # with 1x1 kernels the layer reduces to a circular correlation over
        # the group axis; verify against a brute-force loop over elements
        rng = np.random.default_rng(4)
        n, f_in, f_out = 4, 2, 3
        layer = EquivConv(FieldType.regular(C4, f_in), FieldType.regular(C4, f_out),
                          kernel_size=1, bias=False, rng=rng)
        x = rng.normal(size=(1, f_in * n, 5, 5)).astype(np.float32)
        got = layer(Tensor(x)).data
        base = layer.base.data[..., 0, 0]  # [f_out, f_in, n]
        ref = np.zeros((1, f_out * n, 5, 5), dtype=np.float64)
        for fo in range(f_out):
            for g in range(n):
                acc = np.zeros((5, 5))
                for fi in range(f_in):
                    for h in range(n):
                        acc += base[fo, fi, (h - g) % n] * x[0, fi * n + h]
                ref[0, fo * n + g] = acc
        assert np.abs(got - ref).max() < 1e-5

    def test_parameter_count_formula(self):
        layer = EquivConv(FieldType.regular(C4, 2), FieldType.regular(C4, 2),
                          kernel_size=3, bias=False)
        assert param_count(layer) == 2 * 2 * 4 * 9 == 144
        std = EquivConv(FieldType.regular(C1, 8), FieldType.regular(C1, 8),
                        kernel_size=3, bias=False)
        assert param_count(std) == 576

    def test_parameter_ratio_law(self):
        for n, grp in ((4, C4), (8, C8)):
            g = EquivConv(FieldType.regular(grp, 2), FieldType.regular(grp, 3),
                          kernel_size=3, bias=False)
            s = EquivConv(FieldType.regular(C1, 2 * n), FieldType.regular(C1, 3 * n),
                          kernel_size=3, bias=False)
            assert param_count(s) == n * param_count(g)

    def test_c4_equivariance_exact(self):
        rng = np.random.default_rng(5)
        ft_in = FieldType.regular(C4, 2)
        ft_out = FieldType.regular(C4, 3)
        layer = EquivConv(ft_in, ft_out, kernel_size=3, rng=rng)
        x = Tensor(rng.normal(size=(1, 8, 8, 8)).astype(np.float32))
        for k in range(4):
            g = C4.element(k)
            lhs = batch_act(g, layer(x), ft_out)
            rhs = layer(batch_act(g, x, ft_in))
            assert np.abs(lhs.data - rhs.data).max() < 1e-5

    def test_strided_c4_equivariance(self):
        rng = np.random.default_rng(6)
        ft_in = FieldType.regular(C4, 2)
        ft_out = FieldType.regular(C4, 2)
        layer = EquivConv(ft_in, ft_out, kernel_size=3, stride=2, rng=rng)
        x = np.zeros((1, 8, 12, 12), dtype=np.float32)
        x[:, :, 2:10, 2:10] = rng.normal(size=(1, 8, 8, 8))  # interior content
        g = C4.element(1)
        lhs = batch_act(g, layer(Tensor(x)), ft_out).data[:, :, 1:-1, 1:-1]
        rhs = layer(batch_act(g, Tensor(x), ft_in)).data[:, :, 1:-1, 1:-1]
        denom = max(np.abs(lhs).max(), 1e-3)
        assert np.abs(lhs - rhs).max() / denom < 1e-4

    def test_group_mismatch_rejected(self):
        with pytest.raises(ValueError, match="group"):
            EquivConv(FieldType.regular(C4, 2), FieldType.regular(C8, 2))

    def test_strided_odd_size_rejected(self):
        layer = EquivConv(FieldType.regular(C4, 2), FieldType.regular(C4, 2), 3, stride=2)
        with pytest.raises(ValueError, match="even height and width, got 7x8"):
            layer(Tensor(np.zeros((1, 8, 7, 8), dtype=np.float32)))


def conv_then_pool(layer, x):
    """The stride-2 map as a k x k stride-1 convolution of the unpooled bank,
    plus bias, then 2x2 average pooling."""
    idx, w, shape = _expansion_taps(layer.in_type, layer.out_type, layer.k, layer._masked)
    y = T.conv2d(x, T.sparse_taps(layer.base, idx, w, shape), padding=layer.padding).data
    y = y + layer.bias.data[layer.out_type.field_of_channel()][None, :, None, None]
    b, c, h, w = y.shape
    return y.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


class TestStridedFoldedBank:
    @pytest.mark.parametrize("group", [C4, C8])
    @pytest.mark.parametrize("k", [3, 1])
    @pytest.mark.parametrize("kind", ["lift", "group"])
    def test_equals_conv_then_pool(self, kind, k, group):
        rng = np.random.default_rng(30 + k)
        ft_in = FieldType.trivial(group, 3) if kind == "lift" else FieldType.regular(group, 2)
        ft_out = FieldType.regular(group, 3)
        layer = EquivConv(ft_in, ft_out, kernel_size=k, stride=2, rng=rng)
        assert layer.kind == kind
        layer.bias.data[:] = rng.normal(size=layer.bias.shape)
        x = Tensor(rng.normal(size=(2, ft_in.channel_count, 10, 12)).astype(np.float32))
        assert layer.filter_bank().shape == (ft_out.channel_count, ft_in.channel_count,
                                             k + 1, k + 1)
        got = layer(x).data
        ref = conv_then_pool(layer, x)
        assert got.shape == ref.shape == (2, ft_out.channel_count, 5, 6)
        assert np.abs(got - ref).max() < 1e-5

    def test_readout_stride_2_rejected(self):
        with pytest.raises(ValueError, match="at stride 1"):
            EquivConv(FieldType.regular(C4, 2), FieldType.trivial(C4, 2), 1, stride=2)


class TestReadout:
    def test_mean_weights_give_group_mean(self):
        layer = EquivConv(FieldType.regular(C4, 1), FieldType.trivial(C4, 1),
                          kernel_size=1, bias=False)
        layer.base.data[:] = 0.25
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 4, 3, 3)).astype(np.float32)
        out = layer(Tensor(x)).data[0, 0]
        assert np.allclose(out, x[0].mean(axis=0), atol=1e-6)

    def test_permutation_invariance_bit_exact(self):
        # values exactly representable in float32 keep the group sums exact
        rng = np.random.default_rng(8)
        layer = EquivConv(FieldType.regular(C4, 3), FieldType.trivial(C4, 5),
                          kernel_size=1, rng=rng)
        x = (rng.integers(-64, 64, size=(1, 12, 4, 4)) / 64.0).astype(np.float32)
        base = layer(Tensor(x)).data
        for shift in range(1, 4):
            xs = x.reshape(1, 3, 4, 4, 4)
            xs = np.roll(xs, shift, axis=2).reshape(1, 12, 4, 4)
            got = layer(Tensor(xs)).data
            assert np.array_equal(got, base)

    def test_non_1x1_rejected(self):
        with pytest.raises(ValueError, match="1x1"):
            EquivConv(FieldType.regular(C4, 2), FieldType.trivial(C4, 2), kernel_size=3)

    def test_composed_pipeline_equivariance(self):
        rng = np.random.default_rng(9)
        in_t = FieldType.trivial(C4, 2)
        mid = FieldType.regular(C4, 3)
        out_t = FieldType.trivial(C4, 4)
        lift = EquivConv(in_t, mid, kernel_size=3, rng=rng)
        grp = EquivConv(mid, mid, kernel_size=3, rng=rng)
        ro = EquivConv(mid, out_t, kernel_size=1, rng=rng)

        def net(x):
            return ro(T.relu(grp(T.relu(lift(x)))))

        x = Tensor(rng.normal(size=(1, 2, 12, 12)).astype(np.float32))
        g = C4.element(1)
        lhs = net(batch_act(g, x, in_t)).data[:, :, 1:-1, 1:-1]
        rot = rotate_image(net(x).data[0], g, mode="exact").data[None]
        rhs = rot[:, :, 1:-1, 1:-1]
        denom = np.maximum(np.abs(rhs), np.abs(rhs).max() * 1e-2)
        assert (np.abs(lhs - rhs) / denom).max() < 1e-4


class TestInnerBatchNorm:
    def test_constant_field_training_gives_bias(self):
        ft = FieldType.regular(C4, 2)
        bn = InnerBatchNorm(ft)
        bn.shift.data[:] = np.array([0.3, -0.7], dtype=np.float32)
        x = Tensor(np.full((2, 8, 6, 6), 1.5, dtype=np.float32))
        out = bn(x).data
        assert np.allclose(out[:, :4], 0.3, atol=1e-2)
        assert np.allclose(out[:, 4:], -0.7, atol=1e-2)

    def test_n1_matches_standard_batch_norm(self):
        rng = np.random.default_rng(10)
        ft = FieldType.regular(C1, 3)
        bn = InnerBatchNorm(ft)
        bn.scale.data[:] = rng.normal(size=3).astype(np.float32)
        bn.shift.data[:] = rng.normal(size=3).astype(np.float32)
        x = rng.normal(size=(4, 3, 5, 5)).astype(np.float32)
        got = bn(Tensor(x)).data
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        ref = (x - mu) / np.sqrt(var + 1e-5)
        ref = ref * bn.scale.data[None, :, None, None] + bn.shift.data[None, :, None, None]
        assert np.abs(got - ref).max() < 1e-6

    def test_group_permutation_commutes(self):
        rng = np.random.default_rng(11)
        ft = FieldType.regular(C4, 2)
        bn = InnerBatchNorm(ft)
        bn.scale.data[:] = np.array([1.3, 0.8], dtype=np.float32)
        x = rng.normal(size=(2, 8, 4, 4)).astype(np.float32)
        perm = np.r_[np.roll(np.arange(4), 1), 4 + np.roll(np.arange(4), 1)]
        got = bn(Tensor(x[:, perm])).data
        ref = bn(Tensor(x)).data[:, perm]
        assert np.allclose(got, ref, atol=1e-6)

    def test_eval_uses_running_stats(self):
        ft = FieldType.regular(C4, 1)
        bn = InnerBatchNorm(ft)
        rng = np.random.default_rng(12)
        for _ in range(10):
            bn(Tensor(rng.normal(2.0, 3.0, size=(4, 4, 6, 6)).astype(np.float32)))
        bn.eval()
        x = Tensor(rng.normal(2.0, 3.0, size=(4, 4, 6, 6)).astype(np.float32))
        out = bn(x).data
        # roughly whitened by the accumulated statistics
        assert abs(out.mean()) < 0.5 and 0.5 < out.std() < 2.0

    def test_c4_equivariance_training_mode(self):
        rng = np.random.default_rng(13)
        ft = FieldType.regular(C4, 2)
        bn = InnerBatchNorm(ft)
        bn.scale.data[:] = rng.normal(1.0, 0.2, size=2).astype(np.float32)
        bn.shift.data[:] = rng.normal(size=2).astype(np.float32)
        x = Tensor(rng.normal(size=(2, 8, 6, 6)).astype(np.float32))
        g = C4.element(1)
        lhs = batch_act(g, bn(x), ft)
        bn2 = InnerBatchNorm(ft)
        bn2.scale.data[:] = bn.scale.data
        bn2.shift.data[:] = bn.shift.data
        rhs = bn2(batch_act(g, x, ft))
        assert np.abs(lhs.data - rhs.data).max() < 1e-5


class TestRandomizedEquivariance:
    """100 randomized stride-1 trials per layer kind, 32-bit, tol 1e-5."""

    @pytest.mark.parametrize("kind", ["lift", "group", "readout", "norm"])
    def test_c4_exact(self, kind):
        rng = np.random.default_rng(100)
        worst = 0.0
        for trial in range(100):
            h = int(rng.integers(3, 8)) * 2
            g = C4.element(int(rng.integers(0, 4)))
            if kind == "lift":
                in_t, out_t = FieldType.trivial(C4, 2), FieldType.regular(C4, 2)
                layer = EquivConv(in_t, out_t, kernel_size=3, rng=rng)
            elif kind == "group":
                in_t, out_t = FieldType.regular(C4, 2), FieldType.regular(C4, 2)
                layer = EquivConv(in_t, out_t, kernel_size=3, rng=rng)
            elif kind == "readout":
                in_t, out_t = FieldType.regular(C4, 2), FieldType.trivial(C4, 3)
                layer = EquivConv(in_t, out_t, kernel_size=1, rng=rng)
            else:
                in_t = out_t = FieldType.regular(C4, 2)
                layer = InnerBatchNorm(in_t)
                layer.scale.data[:] = rng.normal(1.0, 0.3, size=2).astype(np.float32)
                layer.shift.data[:] = rng.normal(size=2).astype(np.float32)
            x = Tensor(rng.normal(size=(1, in_t.channel_count, h, h)).astype(np.float32))
            lhs = batch_act(g, layer(x), out_t)
            rhs = layer(batch_act(g, x, in_t))
            worst = max(worst, float(np.abs(lhs.data - rhs.data).max()))
        assert worst <= 1e-5

    @pytest.mark.parametrize("kind", ["lift", "group"])
    def test_c8_tolerances(self, kind):
        rng = np.random.default_rng(200)
        if kind == "lift":
            in_t, out_t = FieldType.trivial(C8, 2), FieldType.regular(C8, 2)
        else:
            in_t, out_t = FieldType.regular(C8, 2), FieldType.regular(C8, 2)
        layer = EquivConv(in_t, out_t, kernel_size=3, rng=rng)
        h = 24
        x = Tensor(smooth_noise(rng, (1, in_t.channel_count, h, h)))
        # 90 degrees: grid-exact, tight tolerance
        g90 = C8.element(2)
        lhs = batch_act(g90, layer(x), out_t, mode="exact")
        rhs = layer(batch_act(g90, x, in_t, mode="exact"))
        scale = np.abs(lhs.data).max()
        assert np.abs(lhs.data - rhs.data).max() / scale < 1e-3
        # 45 degrees: interpolated, interior region, loose tolerance
        g45 = C8.element(1)
        lhs = batch_act(g45, layer(x), out_t, mode="bilinear")
        rhs = layer(batch_act(g45, x, in_t, mode="bilinear"))
        m = h // 4
        a = lhs.data[:, :, m:-m, m:-m]
        b = rhs.data[:, :, m:-m, m:-m]
        assert np.abs(a - b).max() / np.abs(a).max() <= 0.1


class TestGradients:
    def test_equivconv_gradcheck(self):
        rng = np.random.default_rng(14)
        layer = EquivConv(FieldType.regular(C4, 1), FieldType.regular(C4, 1),
                          kernel_size=3, rng=rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(1, 4, 5, 5)), dtype=np.float64)

        def f(params):
            return T.sum_(layer(x) ** 2.0)

        err = finite_diff_check(f, [layer.base, layer.bias], eps=1e-5)
        assert err < 1e-4

    def test_inner_batch_norm_gradcheck(self):
        rng = np.random.default_rng(15)
        ft = FieldType.regular(C4, 1)
        bn = InnerBatchNorm(ft, dtype=np.float64)
        x = Tensor(rng.normal(size=(2, 4, 4, 4)), requires_grad=True, dtype=np.float64)
        # asymmetric weighting keeps the loss sensitive to every input
        wfield = Tensor(rng.normal(size=(2, 4, 4, 4)), dtype=np.float64)

        def f(params):
            return T.sum_(bn(params[0]) * wfield)

        assert finite_diff_check(f, [x], eps=1e-5) < 1e-4
        assert finite_diff_check(lambda p: T.sum_(bn(x) * wfield),
                                 [bn.scale, bn.shift], eps=1e-5) < 1e-4


def _eval_norm(ft, rng, dtype=np.float32):
    """An eval-mode InnerBatchNorm with non-trivial statistics, scale and shift."""
    bn = InnerBatchNorm(ft, dtype=dtype)
    bn.scale.data[:] = rng.normal(1.0, 0.5, size=ft.fields)
    bn.shift.data[:] = rng.normal(size=ft.fields)
    bn.running_mean[:] = rng.normal(size=ft.fields)
    bn.running_var[:] = rng.uniform(0.2, 3.0, size=ft.fields)
    return bn.eval()


def _folding_layer(kind, group, stride, bias, rng, dtype=np.float32):
    if kind == "lift":
        in_t, out_t, k = FieldType.trivial(group, 3), FieldType.regular(group, 3), 3
    elif kind == "group":
        in_t, out_t, k = FieldType.regular(group, 2), FieldType.regular(group, 3), 3
    else:
        in_t, out_t, k = FieldType.regular(group, 2), FieldType.trivial(group, 5), 1
    layer = EquivConv(in_t, out_t, k, stride=stride, bias=bias, rng=rng, dtype=dtype)
    if bias:
        layer.bias.data[:] = rng.normal(size=layer.bias.shape)
    return layer.eval()


class TestEvalFolding:
    """In eval mode `conv(x, norm)` folds the norm into the bank and bias."""

    CASES = [(kind, stride) for kind in ("lift", "group") for stride in (1, 2)] + [("readout", 1)]

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("group", [C4, C8])
    @pytest.mark.parametrize("kind, stride", CASES)
    def test_equals_norm_after_conv(self, kind, stride, group, bias):
        rng = np.random.default_rng(40 + stride)
        layer = _folding_layer(kind, group, stride, bias, rng)
        bn = _eval_norm(layer.out_type, rng)
        x = Tensor(rng.normal(size=(2, layer.in_type.channel_count, 10, 12)).astype(np.float32))
        got = layer(x, bn).data
        ref = bn(layer(x)).data
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()

    def test_training_mode_uses_batch_statistics(self):
        rng = np.random.default_rng(43)
        layer = _folding_layer("group", C4, 1, False, rng).train()
        bn = _eval_norm(layer.out_type, rng).train()
        x = Tensor(rng.normal(size=(2, 8, 6, 6)).astype(np.float32))
        ref = InnerBatchNorm(layer.out_type)
        ref.scale.data[:], ref.shift.data[:] = bn.scale.data, bn.shift.data
        assert np.array_equal(layer(x, bn).data, ref(layer(x)).data)

    def test_mismatched_norm_rejected(self):
        layer = EquivConv(FieldType.regular(C4, 2), FieldType.regular(C4, 3), 3)
        with pytest.raises(ValueError, match="cannot follow a conv"):
            layer(Tensor(np.zeros((1, 8, 6, 6), np.float32)),
                  InnerBatchNorm(FieldType.regular(C4, 2)).eval())

    @pytest.mark.parametrize("kind, stride", [("group", 2), ("readout", 1)])
    def test_folded_gradcheck(self, kind, stride):
        rng = np.random.default_rng(44)
        layer = _folding_layer(kind, C4, stride, True, rng, dtype=np.float64)
        bn = _eval_norm(layer.out_type, rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(1, layer.in_type.channel_count, 6, 6)), dtype=np.float64)
        w = Tensor(rng.normal(size=layer(x, bn).shape), dtype=np.float64)
        params = [layer.base, layer.bias, bn.scale, bn.shift]
        assert finite_diff_check(lambda p: T.sum_(layer(x, bn) * w), params, eps=1e-5) < 1e-4

    def test_match_pair_writes_nothing_into_the_model(self):
        from rotmatch.config import Config
        from rotmatch.model import MatcherModel
        from rotmatch.steerable import calibrate_norm_stats
        cfg = Config.default()
        cfg.backbone.base_width = 8
        cfg.backbone.coarse_dim = 16
        cfg.backbone.fine_dim = 8
        cfg.matcher.d_model = 16
        model = MatcherModel(cfg, rng=np.random.default_rng(0))
        rng = np.random.default_rng(45)
        calibrate_norm_stats(model.backbone, Tensor(rng.random((2, 3, 32, 32)).astype(np.float32)))
        before = {k: v.tobytes() for k, v in model.state_dict().items()}
        model.match_pair(rng.random((3, 32, 32)), rng.random((3, 32, 32)))
        assert {k: v.tobytes() for k, v in model.state_dict().items()} == before
        assert model.training
