import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import rotmatch
from rotmatch import matcher as M
from rotmatch import tensor as T
from rotmatch.matcher import softmax_attention
from rotmatch.tensor import GradientTape, Tensor, backward, finite_diff_check


def conv2d_loop(x, k, stride, padding):
    """Nested-loop cross-correlation oracle."""
    b, ci, h, w = x.shape
    co, _, kk, _ = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kk) // stride + 1
    wo = (w + 2 * padding - kk) // stride + 1
    out = np.zeros((b, co, ho, wo))
    for bi in range(b):
        for o in range(co):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(ci):
                        for u in range(kk):
                            for v in range(kk):
                                acc += xp[bi, c, i * stride + u, j * stride + v] * k[o, c, u, v]
                    out[bi, o, i, j] = acc
    return out


def conv2d_loop_grads(x, k, stride, padding, g):
    """Per-tap oracle of conv2d's input and kernel gradients for the output
    gradient g."""
    b, ci, h, w = x.shape
    _, _, kk, _ = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    ho, wo = g.shape[2:]
    for u in range(kk):
        for v in range(kk):
            rows = slice(u, u + stride * (ho - 1) + 1, stride)
            cols = slice(v, v + stride * (wo - 1) + 1, stride)
            gk[:, :, u, v] = np.einsum("boij,bcij->oc", g, xp[:, :, rows, cols])
            gxp[:, :, rows, cols] += np.einsum("boij,oc->bcij", g, k[:, :, u, v])
    return gxp[:, :, padding:padding + h, padding:padding + w], gk


class TestConv2d:
    def test_scalar_scaling(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3))
        k = Tensor(np.array([2.0]).reshape(1, 1, 1, 1))
        y = T.conv2d(x, k)
        assert np.allclose(y.data.ravel(), [2.0, 4.0, 6.0])

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 6, 7)))
        k = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            k[c, c, 1, 1] = 1.0
        y = T.conv2d(x, Tensor(k), stride=1, padding=1)
        assert np.array_equal(y.data, x.data)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(1, 2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        y = T.conv2d(Tensor(x, dtype=np.float64), Tensor(k, dtype=np.float64),
                     stride=2, padding=1)
        ref = conv2d_loop(x, k, stride=2, padding=1)
        assert y.data.shape == ref.shape
        rel = np.abs(y.data - ref) / np.maximum(np.abs(ref), 1e-9)
        assert rel.max() < 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)
        y = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)
        k = Tensor(rng.normal(size=(4, 2, 3, 3)).astype(np.float32))
        a, b = 1.7, -0.6
        lhs = T.conv2d(Tensor(a * x + b * y), k, padding=1).data
        rhs = a * T.conv2d(Tensor(x), k, padding=1).data + b * T.conv2d(Tensor(y), k, padding=1).data
        rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-3)
        assert rel.max() < 1e-5

    def test_translation_equivariance_exact(self):
        rng = np.random.default_rng(2)
        x = np.zeros((1, 1, 10, 10), dtype=np.float32)
        x[0, 0, 2:8, 2:8] = rng.normal(size=(6, 6))  # content away from borders
        k = Tensor(rng.normal(size=(2, 1, 3, 3)).astype(np.float32))
        xs = np.roll(x, 1, axis=3)
        y = T.conv2d(Tensor(x), k, padding=1).data
        ys = T.conv2d(Tensor(xs), k, padding=1).data
        assert np.array_equal(ys[:, :, :, 1:-1], np.roll(y, 1, axis=3)[:, :, :, 1:-1])

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            T.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_float32_input_float64_kernel_computes_in_float64(self):
        # training feeds float32 images to the float64 models of gradient checks
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 6, 7)).astype(np.float32)
        k = rng.normal(size=(3, 2, 4, 4))
        y = T.conv2d(Tensor(x), Tensor(k, dtype=np.float64), stride=2, padding=1)
        assert y.dtype == np.float64
        ref = conv2d_loop(x.astype(np.float64), k, stride=2, padding=1)
        assert np.abs(y.data - ref).max() < 1e-12

    # odd and even h and w, so the polyphase parts of a strided input differ
    # in size; even kernels are the pooled banks of stride-2 equivariant layers
    @pytest.mark.parametrize("hw", [(7, 8), (8, 9)])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_kernel_stride_padding_against_loop_oracle(self, k, stride, padding, hw):
        rng = np.random.default_rng(100 * k + 10 * stride + padding)
        x = rng.normal(size=(2, 3, *hw))
        kern = rng.normal(size=(4, 3, k, k))
        y = T.conv2d(Tensor(x, dtype=np.float64), Tensor(kern, dtype=np.float64),
                     stride=stride, padding=padding)
        ref = conv2d_loop(x, kern, stride=stride, padding=padding)
        assert y.data.shape == ref.shape
        rel = np.abs(y.data - ref) / np.maximum(np.abs(ref), 1e-9)
        assert rel.max() < 1e-6

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_runs_and_bias_against_loop_oracle(self, k, stride, bias, monkeypatch):
        # c_out = 32 >= k*k*c_in, so both passes work in runs of
        # 4096 / (2 * 32 * 8) = 8 output positions, and in every case here
        # several runs with a short last one; 1x1 kernels get no padding, so
        # the last run reads the image, not zero rows
        pad = min(k // 2, 1)
        monkeypatch.setattr(T, "CONV_BLOCK_BYTES", 4096)
        rng = np.random.default_rng(10 * k + stride)
        x = rng.normal(size=(2, 2, 9, 11))
        kern = rng.normal(size=(32, 2, k, k))
        bvec = rng.normal(size=32) if bias else None
        xt = Tensor(x, requires_grad=True, dtype=np.float64)
        kt = Tensor(kern, requires_grad=True, dtype=np.float64)
        params = [xt, kt]
        if bias:
            params.append(Tensor(bvec, requires_grad=True, dtype=np.float64))
        with GradientTape() as tape:
            tape.watch(*params)
            y = T.conv2d(xt, kt, stride=stride, padding=pad, bias=params[2] if bias else None)
            g = rng.normal(size=y.shape)
            grads = backward(T.sum_(y * Tensor(g, dtype=np.float64)), tape)
        ref = conv2d_loop(x, kern, stride=stride, padding=pad)
        ref_gx, ref_gk = conv2d_loop_grads(x, kern, stride, pad, g)
        if bias:
            ref = ref + bvec[None, :, None, None]
        checks = [(y.data, ref), (grads[xt], ref_gx), (grads[kt], ref_gk)]
        if bias:
            checks.append((grads[params[2]], g.sum(axis=(0, 2, 3))))
        for got, want in checks:
            assert got.shape == want.shape
            assert (np.abs(got - want) / np.maximum(np.abs(want), 1e-9)).max() < 1e-6

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_one_tap_runs_against_loop_oracle(self, stride, padding, monkeypatch):
        # a 1x1 kernel has one tap, whose GEMM reads the input in place;
        # c_in = 12 > c_out = 5 sets runs of 4096 / (2 * 12 * 8) = 21
        # output positions, so every case here spans several runs
        monkeypatch.setattr(T, "CONV_BLOCK_BYTES", 4096)
        rng = np.random.default_rng(30 + 2 * stride + padding)
        x = rng.normal(size=(2, 12, 9, 11))
        kern = rng.normal(size=(5, 12, 1, 1))
        bvec = rng.normal(size=5)
        y = T.conv2d(Tensor(x, dtype=np.float64), Tensor(kern, dtype=np.float64),
                     stride=stride, padding=padding, bias=Tensor(bvec, dtype=np.float64))
        ref = conv2d_loop(x, kern, stride=stride, padding=padding) + bvec[None, :, None, None]
        assert y.dtype == np.float64 and y.shape == ref.shape
        assert (np.abs(y.data - ref) / np.maximum(np.abs(ref), 1e-9)).max() < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_lanes_bit_identical(self, k, stride, bias, dtype, lanes, monkeypatch):
        # from LANE_PIXELS on, each image's backbone pass runs on its own
        # `fork_join` lane, so two convs run at once: each gives the bytes
        # it gives alone. Runs of 4096 bytes make each conv 9 to 72 GEMMs
        monkeypatch.setattr(T, "CONV_BLOCK_BYTES", 4096)
        rng = np.random.default_rng(50 + 10 * k + 2 * stride + bias)
        images = rng.normal(size=(2, 1, 2, 32, 34))
        kern = Tensor(rng.normal(size=(32, 2, k, k)), dtype=dtype)
        bvec = Tensor(rng.normal(size=32), dtype=dtype) if bias else None

        def conv(x):
            return [T.conv2d(Tensor(x, dtype=dtype), kern, stride=stride, padding=min(k // 2, 1),
                             bias=bvec).data for _ in range(4)]

        serial = [conv(x) for x in images]
        monkeypatch.setattr(T, "LANES", 2)
        laned = T.fork_join([lambda x=x: conv(x) for x in images])
        assert [len(threads) for _, threads in lanes] == [2]
        for got, want in zip(laned, serial):
            for y in got:
                assert y.dtype == want[0].dtype == dtype
                assert y.tobytes() == want[0].tobytes()

    def test_bias_shape_checked(self):
        with pytest.raises(ValueError, match=r"bias must have shape \(3,\)"):
            T.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 2, 1, 1))),
                     bias=Tensor(np.zeros(2)))


_FORK_JOIN_INSIDE_A_LANE = """
import threading
from rotmatch import tensor as T

T.LANES = 2
barrier = threading.Barrier(2, timeout=30)
threads = set()

def outer(item):
    barrier.wait()   # both lanes hold a call
    threads.add(threading.get_ident())
    return T.fork_join([lambda v=v: v * v for v in range(16 * item, 16 * item + 16)])

got = sum(T.fork_join([lambda: outer(0), lambda: outer(1)]), [])
print(len(threads), sum(got) if got == [v * v for v in range(32)] else "wrong")
"""


class TestForkJoin:
    @pytest.mark.parametrize("where", ["caller", "worker"])
    def test_error_reaches_caller_after_every_lane_ends(self, where, monkeypatch):
        monkeypatch.setattr(T, "LANES", 2)
        caller, running, lock = threading.get_ident(), [], threading.Lock()
        barrier, started = threading.Barrier(2, timeout=30), set()

        def call(i):
            me = threading.get_ident()
            with lock:
                running.append(i)
            try:
                if me not in started:
                    started.add(me)
                    barrier.wait()   # both lanes are running
                if (me == caller) == (where == "caller"):
                    raise ValueError(f"call {i}")
                time.sleep(0.001)
            finally:
                with lock:
                    running.remove(i)

        with pytest.raises(ValueError, match="call"):
            T.fork_join([lambda i=i: call(i) for i in range(40)])
        assert running == [] and len(started) == 2

    def test_one_call_or_a_tape_runs_here(self, monkeypatch):
        monkeypatch.setattr(T, "LANES", 2)
        monkeypatch.setattr(T, "_POOL", None)
        threads = []

        def call(v):
            threads.append(threading.get_ident())
            return v

        assert T.fork_join([lambda: call(7)]) == [7]
        with GradientTape():
            assert T.fork_join([lambda v=v: call(v) for v in range(4)]) == [0, 1, 2, 3]
        assert set(threads) == {threading.get_ident()} and T._POOL is None

    def test_call_inside_a_lane_returns(self):
        # one pool worker, running the outer call's second lane: each inner
        # call queues a job behind it, which that thread alone could start.
        # A child process, as a hang would also block the pool's exit join
        src = os.path.dirname(os.path.dirname(os.path.abspath(T.__file__)))
        proc = subprocess.run([sys.executable, "-c", _FORK_JOIN_INSIDE_A_LANE],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", str(sum(v * v for v in range(32)))]

    def test_concurrent_callers_get_serial_bytes(self, monkeypatch):
        # three callers share one pool worker; jobs that did not start are
        # cancelled, so no caller waits on another's lanes. 400 tokens a
        # side, 20x20 coarse cells, reach LANE_PIXELS: embed runs its block
        # sides in lanes
        monkeypatch.setattr(M, "SCORE_BLOCK_BYTES", 4 * 97 * 4)
        rng = np.random.default_rng(60)
        cfg = M.MatcherConfig(d_model=16, n_blocks=2, n_heads=2)
        coarse = M.CoarseMatcher(8, cfg, rng=np.random.default_rng(61))
        fa, fb = (Tensor(rng.normal(size=(8, 20, 20)).astype(np.float32)) for _ in range(2))
        assert 20 * 20 * M.COARSE_STRIDE ** 2 >= T.LANE_PIXELS
        b = rng.normal(size=(97, 16))
        a = np.concatenate([b, b, b]) + rng.normal(size=(291, 16))
        a, b = ((4 * v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)
                for v in (a, b))

        def work():
            y = b"".join(v.data.tobytes() for v in coarse.embed(fa, fb))
            return y + b"".join(v.tobytes() for v in M.mutual_matches(a, b, 0.05))

        monkeypatch.setattr(T, "LANES", 1)
        want = work()
        monkeypatch.setattr(T, "LANES", 2)
        got, errors = [], []

        def caller():
            try:
                for _ in range(5):
                    got.append(work())
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=caller, daemon=True) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert got == [want] * 15


class TestElu1:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_where(self, dtype):
        x = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, -800.0, 1e-30, -1e-30],
                     dtype=dtype)
        rng = np.random.default_rng(0)
        x = np.concatenate([x, (3 * rng.normal(size=1000)).astype(dtype)])
        g = rng.normal(size=x.shape).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        with GradientTape() as tape:
            tape.watch(xt)
            out = T.elu1(xt)
            grads = backward(T.sum_(out * Tensor(g)), tape)
        want = np.where(x > 0, x + 1, np.exp(np.minimum(x, 0)))
        assert out.dtype == want.dtype == dtype
        assert out.data.tobytes() == want.tobytes()
        assert grads[xt].tobytes() == (g * np.where(x > 0, 1, want)).tobytes()


class TestRelu:
    def test_bit_identical_to_where(self):
        x = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.5, -2.5, 1e-45, -1e-45],
                     dtype=np.float32)
        x = np.concatenate([x, np.random.default_rng(0).normal(size=1000).astype(np.float32)])
        got = T.relu(Tensor(x)).data
        want = np.where(x > 0, x, 0)
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_gradient_masks_non_positive_inputs(self):
        x = Tensor(np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 2.0, -3.0]),
                   requires_grad=True, dtype=np.float64)
        with GradientTape() as tape:
            tape.watch(x)
            grads = backward(T.sum_(T.relu(x) * Tensor(np.arange(1.0, 8.0))), tape)
        assert np.array_equal(grads[x], [0, 0, 0, 4, 0, 6, 0])


class TestMapPixelCenters:
    def test_identity_returns_exact_grid(self):
        xs, ys = T.map_pixel_centers(np.eye(3), 5, 7)
        assert xs.shape == ys.shape == (5, 7) and xs.dtype == np.float64
        assert np.array_equal(xs, np.tile(np.arange(7) + 0.5, (5, 1)))
        assert np.array_equal(ys, np.tile(np.arange(5)[:, None] + 0.5, (1, 7)))

    def test_projective_map_agrees_with_homography(self):
        from rotmatch.geometry import Homography
        hom = Homography(np.array([[1.1, -0.2, 4.0], [0.15, 0.9, -3.0],
                                   [2e-3, -1.5e-3, 1.2]]))
        xs, ys = T.map_pixel_centers(hom.matrix, 9, 13)
        gy, gx = np.mgrid[0:9, 0:13] + 0.5
        ref = hom.apply(np.stack([gx.ravel(), gy.ravel()], axis=1))
        assert np.allclose(xs.ravel(), ref[:, 0], rtol=1e-13, atol=1e-12)
        assert np.allclose(ys.ravel(), ref[:, 1], rtol=1e-13, atol=1e-12)


class TestBilinearWarp:
    def test_identity(self):
        rng = np.random.default_rng(3)
        img = rng.random((3, 5, 7)).astype(np.float32)
        out = T.bilinear_warp(img, np.eye(3), 5, 7)
        assert np.allclose(out.data, img, atol=1e-6)

    def test_integer_translation(self):
        img = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        # target->source: source_x = x - 2 shifts content 2 columns right
        m = np.array([[1, 0, -2], [0, 1, 0], [0, 0, 1]], dtype=np.float64)
        out = T.bilinear_warp(img, m, 4, 4, fill=0.0).data
        assert np.allclose(out[:, :, :2], 0.0)
        assert np.allclose(out[:, :, 2:], img[:, :, :2], atol=1e-6)

    def test_rot90_matches_grid_permutation(self):
        rng = np.random.default_rng(4)
        img = rng.random((2, 6, 6)).astype(np.float64)
        # exact CCW quarter turn about the center of a square image,
        # expressed as the target->source map
        h = 6.0
        fwd = np.array([[0, 1, 0], [-1, 0, h], [0, 0, 1]], dtype=np.float64)
        out = T.bilinear_warp(img, np.linalg.inv(fwd), 6, 6).data
        ref = np.rot90(img, 1, axes=(1, 2))
        assert np.abs(out - ref).max() < 1e-6

    def test_composition(self):
        # smooth positive image; warp by H1 then H2 ~= warp by H1 @ H2 (target->source)
        ys, xs = np.mgrid[0:32, 0:32] / 31.0
        img = (2.0 + np.sin(2.5 * xs + 1.0) * np.cos(2.0 * ys))[None].astype(np.float64)
        h1 = np.array([[0.95, 0.05, 1.0], [-0.04, 1.02, 0.5], [0, 0, 1]])
        h2 = np.array([[1.03, -0.02, -0.8], [0.03, 0.97, 0.7], [0, 0, 1]])
        once = T.bilinear_warp(img, h1 @ h2, 32, 32, fill=np.nan).data
        twice = T.bilinear_warp(T.bilinear_warp(img, h2, 32, 32, fill=np.nan),
                                h1, 32, 32, fill=np.nan).data
        inner = (slice(None), slice(4, 28), slice(4, 28))
        a, b = once[inner], twice[inner]
        ok = np.isfinite(a) & np.isfinite(b)
        rel = np.abs(a[ok] - b[ok]) / np.abs(a[ok])
        assert rel.max() < 0.02

    def test_singular_map(self):
        with pytest.raises(ValueError, match="singular"):
            T.bilinear_warp(np.zeros((1, 4, 4)), np.zeros((3, 3)), 4, 4)

    def test_small_identity_accepted(self):
        # det 1e-15, yet the identity map: the verdict is taken at the map's scale
        img = np.random.default_rng(6).random((3, 5, 7)).astype(np.float32)
        assert np.array_equal(T.bilinear_warp(img, np.eye(3) * 1e-5, 5, 7).data,
                              T.bilinear_warp(img, np.eye(3), 5, 7).data)

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_rank_2_map_rejected_at_any_scale(self, scale):
        m = np.array([[1.0, 2, 3], [2, 4, 6], [0, 0, 1]]) * scale
        with pytest.raises(ValueError, match="singular"):
            T.bilinear_warp(np.zeros((1, 4, 4)), m, 4, 4)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (9,), (1, 3, 3)])
    def test_map_not_3x3_rejected(self, shape):
        with pytest.raises(ValueError, match="3x3"):
            T.bilinear_warp(np.zeros((1, 4, 4)), np.ones(shape), 4, 4)

    def test_homography_accepted(self):
        from rotmatch.geometry import Homography
        img = np.random.default_rng(5).random((1, 4, 4))
        m = np.array([[1, 0, -1], [0, 1, 0], [0, 0, 1]], dtype=np.float64)
        assert np.array_equal(T.bilinear_warp(img, Homography(m), 4, 4).data,
                              T.bilinear_warp(img, m, 4, 4).data)


class TestBackward:
    def test_sum_grad(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with GradientTape() as tape:
            tape.watch(x)
            loss = T.sum_(x)
            grads = backward(loss, tape)
        assert np.array_equal(grads[x], [1.0, 1.0, 1.0])

    def test_sum_of_squares_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradientTape() as tape:
            tape.watch(x)
            loss = T.sum_(x * x)
            grads = backward(loss, tape)
        assert np.allclose(grads[x], [2.0, 4.0])

    def test_replay_returns_equal_separate_arrays(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradientTape() as tape:
            tape.watch(x)
            loss = T.sum_(x * x)
        g1 = backward(loss, tape)[x]
        g2 = backward(loss, tape)[x]
        assert np.array_equal(g1, [2.0, 4.0]) and np.array_equal(g2, g1)
        g1 += 10.0
        assert np.array_equal(g2, [2.0, 4.0])

    def test_leaves_sharing_one_contribution_get_separate_arrays(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        with GradientTape() as tape:
            tape.watch(a, b)
            grads = backward(T.sum_(a + b), tape)   # add passes one array to both
        assert list(grads) == [a, b]
        grads[a] += 1.0
        assert np.array_equal(grads[b], [1.0, 1.0])

    def test_tensor_from_another_tape_is_a_leaf(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradientTape() as first:
            first.watch(x)
            y = x * x
        w = Tensor([3.0, 5.0], requires_grad=True)
        with GradientTape() as second:
            second.watch(w)
            grads = backward(T.sum_(y * w), second)
        assert list(grads) == [y, w]
        assert np.array_equal(grads[y], [3.0, 5.0])
        assert np.array_equal(grads[w], [1.0, 4.0])
        assert x not in grads and second.untracked == []

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradientTape() as tape:
            tape.watch(x)
            y = x * x
        with pytest.raises(ValueError, match="scalar"):
            backward(y, tape)

    def test_untracked_parameter_flagged(self):
        x = Tensor([1.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        with GradientTape() as tape:
            tape.watch(x, unused)
            loss = T.sum_(x * x)
            grads = backward(loss, tape)
        assert np.array_equal(grads[unused], [0.0])
        assert unused in tape.untracked

    def test_conv2d_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True, dtype=np.float64)
        k = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True, dtype=np.float64)

        def f(params):
            xp, kp = params
            return T.sum_(T.conv2d(xp, kp, stride=2, padding=1) ** 2.0)

        assert finite_diff_check(f, [x, k], eps=1e-5) < 1e-4


# every differentiable op gets a finite-difference check in 64-bit
def _fd_cases():
    rng = np.random.default_rng(11)

    def r(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)

    gain = r(6)
    bias = r(6)
    centers = np.array([[2, 2], [3, 4]])
    return {
        "add": ([r(3, 4), r(3, 4)], lambda p: T.sum_((p[0] + p[1]) ** 2.0)),
        "add_broadcast": ([r(3, 4), r(4)], lambda p: T.sum_((p[0] + p[1]) ** 2.0)),
        "sub": ([r(3, 4), r(3, 4)], lambda p: T.sum_((p[0] - p[1]) ** 2.0)),
        "mul": ([r(3, 4), r(3, 4)], lambda p: T.sum_(p[0] * p[1] * p[0])),
        "div": ([r(3, 4), Tensor(rng.random((3, 4)) + 1.5, requires_grad=True, dtype=np.float64)],
                lambda p: T.sum_((p[0] / p[1]) ** 2.0)),
        "neg": ([r(3, 4), r(3, 4)], lambda p: T.sum_(-p[0] * p[1])),
        "relu": ([Tensor(rng.normal(size=(4, 4)) + 0.3, requires_grad=True, dtype=np.float64)],
                 lambda p: T.sum_(T.relu(p[0]) ** 2.0)),
        "matmul": ([r(3, 4), r(4, 5)], lambda p: T.sum_((p[0] @ p[1]) ** 2.0)),
        "matmul_batched": ([r(2, 3, 4), r(2, 4, 3)],
                           lambda p: T.sum_((p[0] @ p[1]) ** 2.0)),
        "softmax": ([r(3, 5)], lambda p: T.sum_(T.softmax(p[0], axis=-1) ** 2.0)),
        "layer_norm": ([r(4, 6), gain, bias],
                       lambda p: T.sum_(T.layer_norm(p[0], p[1], p[2]) ** 2.0)),
        "sum_axis": ([r(3, 4, 2)], lambda p: T.sum_(T.sum_(p[0], axis=1) ** 2.0)),
        "mean": ([r(3, 4)], lambda p: T.sum_(T.mean(p[0], axis=0) ** 2.0)),
        "reshape": ([r(3, 4)], lambda p: T.sum_(T.reshape(p[0], (2, 6)) ** 2.0)),
        "transpose": ([r(2, 3, 4)], lambda p: T.sum_(T.transpose(p[0], (2, 0, 1)) ** 2.0)),
        "concat": ([r(2, 3), r(2, 3)], lambda p: T.sum_(T.concat(p, axis=1) ** 2.0)),
        "index_slice": ([r(4, 6)], lambda p: T.sum_(p[0][1:3, ::2] ** 2.0)),
        "index_fancy": ([r(5, 3)], lambda p: T.sum_(p[0][np.array([0, 2, 2])] ** 2.0)),
        "index_pairs": ([r(4, 5)], lambda p: T.sum_(
            T.index(p[0], (np.array([0, 1, 1]), np.array([2, 3, 3]))) ** 2.0)),
        "sparse_taps": ([r(6)], lambda p: T.sum_(T.sparse_taps(
            p[0], np.array([[0, 1, 2], [3, 4, 5]]), np.array([[0.5, 1.0, 0.25], [0.5, 0.0, 0.75]]),
            (3,)) ** 2.0)),
        "conv2d_s1": ([r(1, 2, 6, 6), r(3, 2, 3, 3)],
                      lambda p: T.sum_(T.conv2d(p[0], p[1], padding=1) ** 2.0)),
        "conv2d_s2": ([r(2, 2, 6, 6), r(2, 2, 3, 3)],
                      lambda p: T.sum_(T.conv2d(p[0], p[1], stride=2, padding=1) ** 2.0)),
        "conv2d_k1": ([r(2, 3, 7, 9), r(2, 3, 1, 1)],
                      lambda p: T.sum_(T.conv2d(p[0], p[1]) ** 2.0)),
        "conv2d_bias": ([r(2, 2, 6, 6), r(3, 2, 3, 3), r(3)],
                        lambda p: T.sum_(T.conv2d(p[0], p[1], stride=2, padding=1,
                                                  bias=p[2]) ** 2.0)),
        "conv2d_k4_s2": ([r(2, 2, 7, 9), r(3, 2, 4, 4)],
                         lambda p: T.sum_(T.conv2d(p[0], p[1], stride=2, padding=1) ** 2.0)),
        "upsample_nearest2x": ([r(1, 2, 3, 3)],
                               lambda p: T.sum_(T.upsample_nearest2x(p[0]) ** 2.0)),
        "crop_windows": ([r(2, 8, 8)],
                         lambda p: T.sum_(T.crop_windows(p[0], centers, 3) ** 2.0)),
        "elu1": ([r(3, 4)], lambda p: T.sum_(T.elu1(p[0]) ** 2.0)),
        # the coarse stage's elu1 / transpose / sum / matmul / div chain
        "linear_attention": ([r(2, 2, 5, 3), r(2, 2, 4, 3), r(2, 2, 4, 2)],
                             lambda p: T.sum_(M.linear_attention(p[0], p[1], p[2]) ** 2.0)),
        # the coarse loss, with repeated rows and columns among its pairs
        "coarse_nll": ([Tensor(0.3 * rng.normal(size=shape), requires_grad=True, dtype=np.float64)
                        for shape in ((5, 3), (4, 3))],
                       lambda p: M.coarse_nll(p[0], p[1], np.array([0, 2, 2, 4]),
                                              np.array([1, 1, 3, 1]))),
        # the fine windows' matmul / scale / softmax / matmul chain
        "softmax_attention": ([r(2, 2, 5, 3), r(2, 2, 4, 3), r(2, 2, 4, 3)],
                              lambda p: T.sum_(softmax_attention(p[0], p[1], p[2]) ** 2.0)),
    }


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4, 48, 16, 16), (1, 32, 120, 160), (3, 5, 7, 9)])
def test_upsample_backward_equals_strided_sum_bitwise(shape, dtype):
    # training (64x64, batch 2), inference (480x640) and an odd size; the
    # reference is the reduction the backward pass used to run
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=shape), requires_grad=True, dtype=dtype)
    with GradientTape() as tape:
        tape.watch(x)
        y = T.upsample_nearest2x(x)
        g = rng.normal(size=y.shape).astype(dtype)
        grads = backward(T.sum_(y * Tensor(g, dtype=dtype)), tape)
    b, c, h, w = shape
    ref = g.reshape(b, c, h, 2, w, 2).sum(axis=(3, 5))
    assert grads[x].dtype == dtype
    assert grads[x].tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", sorted(_fd_cases().keys()))
def test_op_gradients(name):
    params, f = _fd_cases()[name]
    assert finite_diff_check(f, params, eps=1e-5) < 1e-4


def test_every_recording_op_has_a_case():
    # an op is a function of a rotmatch module that calls `tensor._record`;
    # it records a backward function whose __qualname__ starts with the op's
    # name, e.g. "conv2d.<locals>.bwd"
    modules = [importlib.import_module(f"rotmatch.{m.name}")
               for m in pkgutil.iter_modules(rotmatch.__path__)]
    recording = {(mod.__name__, name) for mod in modules for name, fn in vars(mod).items()
                 if inspect.isfunction(fn) and fn.__module__ == mod.__name__
                 and "_record" in fn.__code__.co_names}
    assert {("rotmatch.tensor", "conv2d"), ("rotmatch.matcher", "coarse_nll")} <= recording
    reached = set()
    for params, f in _fd_cases().values():
        with GradientTape() as tape:
            f(params)
        reached |= {(bwd.__module__, bwd.__qualname__.split(".")[0])
                    for _, _, bwd in tape._nodes}
    assert recording - reached == set()


class TestFiniteDiffCheck:
    def test_linear_function(self):
        w = Tensor(np.array([1.5, -2.0, 0.5]), requires_grad=True, dtype=np.float64)
        err = finite_diff_check(lambda p: T.sum_(p[0] * 3.0), [w], eps=1e-5)
        assert err < 1e-8

    def test_quadratic_function(self):
        w = Tensor(np.array([1.0, 2.0, -1.0]), requires_grad=True, dtype=np.float64)
        err = finite_diff_check(lambda p: T.sum_(p[0] * p[0]), [w], eps=1e-5)
        assert err < 1e-7

    def test_two_layer_conv_relu_net(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 1, 8, 8)) + 0.5, dtype=np.float64)
        k1 = Tensor(rng.normal(size=(3, 1, 3, 3)), requires_grad=True, dtype=np.float64)
        k2 = Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True, dtype=np.float64)

        def f(params):
            h = T.relu(T.conv2d(x, params[0], padding=1))
            return T.sum_(T.conv2d(h, params[1], padding=1) ** 2.0)

        assert finite_diff_check(f, [k1, k2], eps=1e-6) < 1e-4

    def test_nonfinite_reported(self):
        w = Tensor(np.array([0.0]), requires_grad=True, dtype=np.float64)
        with pytest.raises(ValueError, match="non-finite"):
            finite_diff_check(lambda p: T.sum_(p[0] ** -1.0), [w], eps=1e-3)


class TestTensorBasics:
    def test_default_dtype_float32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32

    def test_shape_matches_buffer(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.size == 24 and t.shape == (2, 3, 4)

    def test_nested_tape_rejected(self):
        with GradientTape():
            with pytest.raises(RuntimeError, match="nested"):
                with GradientTape():
                    pass

    def test_tape_is_per_thread(self):
        import threading
        x = Tensor([1.0, 2.0], requires_grad=True)
        worker_nodes = []

        def work():
            T.sum_(x * x)           # no tape is active in this thread
            with GradientTape() as own:
                own.watch(x)
                T.sum_(x * 3.0)
            worker_nodes.append(len(own._nodes))

        with GradientTape() as tape:
            tape.watch(x)
            T.sum_(x)
            thread = threading.Thread(target=work)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert len(tape._nodes) == 1
        assert worker_nodes == [2]


class TestSoftmaxInto:
    @staticmethod
    def _reference(x, axis):
        out = np.exp(x - x.max(axis=axis, keepdims=True))
        return out / out.sum(axis=axis, keepdims=True)

    @pytest.mark.parametrize("shape", [(39, 4, 25, 25), (400, 4, 25, 25), (2, 4, 25, 25),
                                       (3000, 8), (700, 32), (700, 33), (25,)])
    def test_bit_identical_to_plain_max(self, shape):
        # short rows take their max column by column; a max is exact in any
        # order, so every axis, layout and non-finite value gives numpy's.
        # softmax reads the Tensor's contiguous copy of a view
        rng = np.random.default_rng(21)
        x = rng.normal(size=shape).astype(np.float32) * 5
        x.flat[::97] = np.inf
        x.flat[::101] = -np.inf
        x.flat[::131] = np.nan
        for view in (x, x[::2], x.T):
            for axis in range(-view.ndim, view.ndim):
                assert np.array_equal(T._max_keepdims(view, axis),
                                      view.max(axis=axis, keepdims=True), equal_nan=True)
                with np.errstate(invalid="ignore"):
                    tensor = Tensor(view)
                    got = T.softmax(tensor, axis).data
                    want = self._reference(tensor.data, axis)
                assert np.array_equal(got, want, equal_nan=True)

    def test_short_rows_hold_no_full_size_temporary(self):
        # 40000 rows of 25: the max needs no array larger than its result
        import tracemalloc
        x = np.random.default_rng(22).normal(size=(400, 4, 25, 25)).astype(np.float32)
        tracemalloc.start()
        try:
            T._max_keepdims(x, -1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes / 25
