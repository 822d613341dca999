"""Minimal dense tensor engine with tape-based reverse-mode differentiation.

Tensors wrap contiguous numpy arrays (float32 by default, float64 selectable
for gradient checks). Differentiable operations record themselves on the
active GradientTape; `backward` replays the record in reverse to compute
parameter gradients.
"""

import contextvars
import os
import threading

import numpy as np

DEFAULT_DTYPE = np.float32


def _one_blas_thread():
    """Set numpy's bundled OpenBLAS to run each call in one thread, whatever
    OPENBLAS_NUM_THREADS says, so that `fork_join` lanes are the only
    parallelism and results do not depend on the environment. This holds for
    the whole process, a host program that imports rotmatch included. Without
    a bundled OpenBLAS that exports a setter nothing is set; LANES is the CPU
    count either way."""
    import ctypes
    import glob

    for path in glob.glob(os.path.join(np.__path__[0], os.pardir, "numpy.libs", "*openblas*")):
        for sym in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                    "openblas_set_num_threads"):
            fn = getattr(ctypes.CDLL(path), sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                fn(1)
                return


_one_blas_thread()
LANES = len(os.sched_getaffinity(0))   # lanes that `fork_join` may run: every usable CPU
_POOL, _POOL_LOCK = None, threading.Lock()   # LANES - 1 worker threads, made on first use

# the tape that records ops run in this thread or context, if any
_ACTIVE_TAPE = contextvars.ContextVar("rotmatch_active_tape", default=None)


class GradientTape:
    """Ordered record of executed differentiable operations.

    Used as a context manager. Operations executed inside the context whose
    inputs require gradients append a node to the tape. The active tape is
    per thread (a context variable): ops run in other threads record
    nothing on it. `backward` replays the record in reverse; each replay
    returns fresh gradients.
    """

    def __init__(self):
        self._nodes = []  # (out, parents, backward_fn) in execution order
        self._watched = []
        self.untracked = []  # watched params that received no gradient
        self._token = None

    def __enter__(self):
        if _ACTIVE_TAPE.get() is not None:
            raise RuntimeError("nested GradientTape contexts are not supported")
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPE.reset(self._token)
        return False

    def watch(self, *tensors):
        for t in tensors:
            if not t.requires_grad:
                raise ValueError("watched tensors must have requires_grad=True")
            if t not in self._watched:
                self._watched.append(t)


class Tensor:
    """Dense n-dimensional array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        # note: ascontiguousarray would silently promote 0-d arrays to 1-d
        self.data = arr if arr.ndim == 0 else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()

    def astype(self, dtype):
        return Tensor(self.data.astype(dtype), requires_grad=self.requires_grad,
                      dtype=dtype)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # operator sugar; everything routes through the module-level ops
    def __add__(self, other):
        return add(self, _wrap(other, self.dtype))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other, self.dtype))

    def __rsub__(self, other):
        return sub(_wrap(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self.dtype))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _wrap(other, self.dtype))

    def __rtruediv__(self, other):
        return div(_wrap(other, self.dtype), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return pow_scalar(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return index(self, idx)


def _wrap(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _record(out, parents, backward_fn):
    """Append a node to the active tape if any parent is being tracked."""
    tape = _ACTIVE_TAPE.get()
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape._nodes.append((out, parents, backward_fn))
    return out


def fork_join(calls):
    """The results of the independent zero-argument `calls`, in order, run in
    min(LANES, len(calls)) lanes: this thread and pool threads, all drawing
    from one iterator over the calls (`next` on it is atomic under the GIL).
    With BLAS set to one thread at import, lanes are the only parallelism.
    All run here while a tape records on this thread (lanes record nothing on
    it). Calls not yet started are cancelled, not waited for, so neither a
    busy pool nor a call inside another `fork_join`'s lane waits; started ones
    are waited for before an exception propagates."""
    global _POOL
    lanes = min(LANES, len(calls))
    if lanes < 2 or _ACTIVE_TAPE.get() is not None:
        return [call() for call in calls]
    from concurrent.futures import ThreadPoolExecutor, wait   # loaded only if lanes run
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(LANES - 1, thread_name_prefix="rotmatch-lane")
    out, queue = [None] * len(calls), iter(range(len(calls)))

    def lane():
        for i in queue:
            out[i] = calls[i]()

    jobs = [_POOL.submit(lane) for _ in range(lanes - 1)]
    try:
        lane()
    finally:
        # `wait` counts a cancelled job done only once a pool thread dequeues it
        wait([job for job in jobs if not job.cancel()])
    for job in jobs:
        if not job.cancelled():
            job.result()   # raises what the lane raised
    return out


def _unbroadcast(grad, shape):
    """Sum out dimensions of `grad` that were broadcast up from `shape`."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b):
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                           _unbroadcast(g, b.data.shape)))


def sub(a, b):
    out = Tensor(a.data - b.data)
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                           _unbroadcast(-g, b.data.shape)))


def mul(a, b):
    out = Tensor(a.data * b.data)

    def bwd(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _record(out, (a, b), bwd)


def div(a, b):
    out = Tensor(a.data / b.data)

    def bwd(g):
        return (_unbroadcast(g / b.data, a.data.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _record(out, (a, b), bwd)


def neg(a):
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def pow_scalar(a, p):
    p = float(p)
    out = Tensor(a.data ** p)
    return _record(out, (a,), lambda g: (g * p * a.data ** (p - 1.0),))


def relu(a):
    """Pointwise max(x, 0), bit for bit np.where(x > 0, x, 0): NaN and -0.0
    give +0."""
    out = Tensor(np.fmax(a.data, 0))
    return _record(out, (a,), lambda g: (g * (a.data > 0),))


def elu1(a):
    """Pointwise elu(x) + 1: x + 1 for x > 0, else exp(x), which is positive. Bit
    for bit np.where(x > 0, x + 1, exp(x)) without its costly mask, NaNs too."""
    out = Tensor(np.fmax(a.data, 0) + np.exp(np.minimum(a.data, 0)))
    return _record(out, (a,), lambda g: (g * np.minimum(out.data, 1),))


# ---------------------------------------------------------------------------
# reductions and shape ops


def sum_(a, axis=None, keepdims=False):
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).astype(a.dtype, copy=False),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.data.shape).astype(a.dtype, copy=False),)

    return _record(out, (a,), bwd)


def mean(a, axis=None, keepdims=False):
    n = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
    return mul(sum_(a, axis=axis, keepdims=keepdims), _wrap(1.0 / float(n), a.dtype))


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def transpose(a, axes):
    inv = np.argsort(axes)
    out = Tensor(np.ascontiguousarray(a.data.transpose(axes)))
    return _record(out, (a,), lambda g: (g.transpose(inv),))


def concat(tensors, axis=0):
    datas = [t.data for t in tensors]
    out = Tensor(np.concatenate(datas, axis=axis))
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _record(out, tuple(tensors), bwd)


def index(a, idx):
    """Slice / integer-array indexing. Backward scatters into zeros."""
    out = Tensor(a.data[idx].copy())
    advanced = _has_advanced(idx)

    def bwd(g):
        ga = np.zeros_like(a.data)
        if advanced:
            np.add.at(ga, idx, g)
        else:
            ga[idx] += g
        return (ga,)

    return _record(out, (a,), bwd)


def _has_advanced(idx):
    items = idx if isinstance(idx, tuple) else (idx,)
    return any(isinstance(i, (list, np.ndarray)) for i in items)


def sparse_taps(a, tap_idx, tap_w, out_shape):
    """Fixed sparse linear map: out.flat[m] = sum_t tap_w[t,m] * a.flat[tap_idx[t,m]].

    tap_idx/tap_w have shape [n_taps, prod(out_shape)]. Entries with weight 0
    may point anywhere. Used to expand steerable base weights into filter
    banks; a row of the fitted kernel-rotation operator can be dense, so
    n_taps can reach the kernel's k*k entries.
    """
    flat = a.data.ravel()
    acc = np.zeros(tap_idx.shape[1], dtype=a.dtype)
    for t in range(tap_idx.shape[0]):
        acc += tap_w[t].astype(a.dtype) * flat[tap_idx[t]]
    out = Tensor(acc.reshape(out_shape))

    def bwd(g):
        gf = g.ravel()
        ga = np.zeros(a.data.size, dtype=a.dtype)
        for t in range(tap_idx.shape[0]):
            np.add.at(ga, tap_idx[t], tap_w[t].astype(a.dtype) * gf)
        return (ga.reshape(a.data.shape),)

    return _record(out, (a,), bwd)


# ---------------------------------------------------------------------------
# matmul / softmax / normalization


def matmul(a, b):
    out = Tensor(np.matmul(a.data, b.data))

    def bwd(g):
        bt = np.swapaxes(b.data, -1, -2)
        at = np.swapaxes(a.data, -1, -2)
        ga = np.matmul(g, bt)
        gb = np.matmul(at, g)
        return (_unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape))

    return _record(out, (a, b), bwd)


# numpy's max over a short last axis pays a per-row cost many times its
# per-element one: with at least 24 n rows of n <= SHORT_ROW, one np.maximum
# per column, over runs of MAX_RUN_ROWS rows that stay in cache, is cheaper
SHORT_ROW, MAX_RUN_ROWS = 32, 8192


def _max_keepdims(x, axis):
    """x.max(axis=axis, keepdims=True), bit for bit (a max is exact in any
    order), with no temporary larger than the result."""
    n = x.shape[axis]
    if axis % x.ndim != x.ndim - 1 or not 0 < n <= SHORT_ROW or x.size < 24 * n * n:
        return x.max(axis=axis, keepdims=True)
    m = np.empty(x.shape[:-1] + (1,), x.dtype)
    run = max(1, MAX_RUN_ROWS * x.shape[0] * n // x.size)   # leading indices per run
    for i in range(0, x.shape[0], run):
        xs, ms = x[i:i + run], m[i:i + run]
        ms[...] = xs[..., :1]
        for k in range(1, n):
            np.maximum(ms, xs[..., k:k + 1], out=ms)
    return m


def softmax(a, axis=-1):
    s = np.subtract(a.data, _max_keepdims(a.data, axis))
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)
    out = Tensor(s)

    def bwd(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return ((g - dot) * s,)

    return _record(out, (a,), bwd)


def layer_norm(a, gain, bias, eps=1e-5):
    """Normalize over the last axis, then scale and shift."""
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)
    n = x.shape[-1]

    def bwd(g):
        gxhat = g * gain.data
        # d/dx of (x - mu) * inv with mu, var functions of x
        t1 = gxhat
        t2 = gxhat.mean(axis=-1, keepdims=True)
        t3 = (gxhat * xhat).mean(axis=-1, keepdims=True) * xhat
        ga = inv * (t1 - t2 - t3)
        ggain = _unbroadcast(g * xhat, gain.data.shape)
        gbias = _unbroadcast(g, bias.data.shape)
        return (ga, ggain, gbias)

    return _record(out, (a, gain, bias), bwd)


# ---------------------------------------------------------------------------
# convolution / resampling

# Bytes of one run of `conv2d`: the forward pass stacks a run's k*k shifted
# input slices, the backward pass computes its per-tap products, while the
# run is in cache.
CONV_BLOCK_BYTES = 1 << 20
# Pixels per image from which a pair's two backbone passes (batch 1 each) and
# block sides run in `fork_join` lanes. Median match_pair ms, lanes vs batch, on
# 2 vCPUs: 96² 26-30 vs 17-22, 128² 37-43 vs 27-44, 160² 36-46 vs 50-66.
LANE_PIXELS = 160 * 160


def conv2d(x, kernel, stride=1, padding=0, bias=None):
    """2-D cross-correlation (no kernel flip), zero padding.

    Args:
        x: Tensor [batch, c_in, h, w].
        kernel: Tensor [c_out, c_in, k, k], any k >= 1.
        stride: positive int.
        padding: non-negative int, zeros on all four sides.
        bias: optional Tensor [c_out], added to every output position.

    Returns:
        Tensor [batch, c_out, h', w'] with h' = (h + 2*padding - k)//stride + 1.

    Flat-shift form, with no full im2col matrix: the input is zero-padded
    once and split into its stride x stride polyphase parts
    xp[:, :, a::s, c::s], each flattened to [b, c_in, H*W]. Part (a, c) is
    convolved at stride 1 with the taps kernel[:, :, a::s, c::s]; kernel tap
    (u, v) reads the contiguous slice at offset (u//s)*W + v//s, and the
    W - w' junk columns per output row are dropped. The forward pass works
    through the output positions in runs: it copies a run's k*k tap slices
    into one [b, k*k*c_in, run] buffer of at most CONV_BLOCK_BYTES, makes one
    [c_out, k*k*c_in] GEMM of it and adds the bias there; a 1x1 kernel has
    one tap, whose GEMM reads the slice without a copy. The backward pass
    runs the same slices per tap: one g @ sliceᵀ GEMM per tap for the kernel
    gradient and kernelᵀ @ g added at the tap's offset for the input
    gradient, in runs of CONV_BLOCK_BYTES of per-tap products.
    """
    b, ci, h, w = x.data.shape
    co, cik, k, kw = kernel.data.shape
    if ci != cik:
        raise ValueError(f"conv2d channel mismatch: input has {ci}, kernel expects {cik}")
    if k != kw:
        raise ValueError("conv2d requires square kernels")
    if stride < 1 or padding < 0:
        raise ValueError("conv2d requires stride >= 1 and padding >= 0")
    if h + 2 * padding < k or w + 2 * padding < k:
        raise ValueError("conv2d input smaller than kernel after padding")
    if bias is not None and bias.shape != (co,):
        raise ValueError(f"conv2d bias must have shape ({co},), got {bias.shape}")

    s, p = stride, padding
    dtype = np.result_type(x.data, kernel.data)   # a float32 image meets float64 kernels
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    # the padded image rounded up to whole s x s cells, so every part is hs x ws
    hs, ws = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
    if p or s > 1:
        xp = np.zeros((b, ci, hs * s, ws * s), dtype=dtype)
        xp[:, :, p:p + h, p:p + w] = x.data
    else:
        xp = x.data.astype(dtype, copy=False)
    m = min(s, k)   # parts a >= k hold no taps
    parts = np.ascontiguousarray(
        xp.reshape(b, ci, hs, s, ws, s)[:, :, :, :m, :, :m].transpose(3, 5, 0, 1, 2, 4)
    ).reshape(m, m, b, ci, hs * ws)
    n = (ho - 1) * ws + wo     # output positions from the first to the last kept one
    taps = [(u, v, u % s, v % s, (u // s) * ws + v // s) for v in range(k) for u in range(k)]
    kt = np.ascontiguousarray(kernel.data.transpose(2, 3, 0, 1))    # [k, k, co, ci]
    kstack = np.concatenate([kt[u, v] for u, v, *_ in taps], axis=1)   # [co, k*k*ci]

    def runs(width):
        run = max(1, CONV_BLOCK_BYTES // (b * width * dtype.itemsize))
        return [(r0, min(r0 + run, n)) for r0 in range(0, n, run)]

    acc = np.empty((b, co, ho * ws), dtype=dtype)
    fwd_runs = runs(max(co, k * k * ci))
    stack = np.empty((b, k * k * ci, fwd_runs[0][1]), dtype=dtype) if k > 1 else None
    for r0, r1 in fwd_runs:
        if k == 1:   # one tap: the GEMM reads its slice of `parts` in place
            st = parts[0, 0, :, :, r0:r1]
        else:
            st = stack[:, :, :r1 - r0]
            for i, (u, v, a, c, off) in enumerate(taps):
                st[:, i * ci:(i + 1) * ci] = parts[a, c, :, :, off + r0:off + r1]
        np.matmul(kstack, st, out=acc[:, :, r0:r1])
        if bias is not None:
            acc[:, :, r0:r1] += bias.data[:, None]
    # free the run buffer before the output copy, which may then reuse its
    # memory: batch-2 convs at 32x32 and 64x64 that kept it took twice as long
    del stack, st
    out = Tensor(acc.reshape(b, co, ho, ws)[:, :, :, :wo])

    def bwd(g):
        gp = np.zeros((b, co, ho, ws), dtype=dtype)   # zero junk columns
        gp[:, :, :, :wo] = g
        gf = gp.reshape(b, co, ho * ws)
        gk = np.zeros_like(kt)
        gparts = np.zeros_like(parts) if x.requires_grad else None
        bwd_runs = runs(max(co, ci))
        gtmp = np.empty((b, ci, bwd_runs[0][1]), dtype=dtype)
        for r0, r1 in bwd_runs:
            gr, t = gf[:, :, r0:r1], gtmp[:, :, :r1 - r0]
            for u, v, a, c, off in taps:
                src = parts[a, c, :, :, off + r0:off + r1]
                gk[u, v] += np.matmul(gr, src.transpose(0, 2, 1)).sum(axis=0)
                if gparts is not None:
                    np.matmul(kt[u, v].T, gr, out=t)
                    gparts[a, c, :, :, off + r0:off + r1] += t
        # free the run temporaries first, as in the forward pass: the input
        # gradient's two full-size arrays may then reuse their memory
        del gp, gf, gtmp, gr, t, src
        gx = None
        if gparts is not None:
            gxp = np.zeros((b, ci, hs, s, ws, s), dtype=x.dtype)
            gxp[:, :, :, :m, :, :m] = gparts.reshape(m, m, b, ci, hs, ws).transpose(2, 3, 4, 0, 5, 1)
            gx = np.ascontiguousarray(gxp.reshape(b, ci, hs * s, ws * s)[:, :, p:p + h, p:p + w])
        gb = () if bias is None else (g.sum(axis=(0, 2, 3)),)
        return (gx, np.ascontiguousarray(gk.transpose(2, 3, 0, 1))) + gb

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _record(out, parents, bwd)


def upsample_nearest2x(x):
    """Nearest-neighbour 2x spatial upsampling."""
    y = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)
    out = Tensor(y)
    b, c, h, w = x.data.shape

    def bwd(g):
        # the four taps added pairwise, bitwise equal to .sum(axis=(3, 5))
        # and several times faster than that strided reduction
        v = g.reshape(b, c, h, 2, w, 2)
        return ((v[:, :, :, 0, :, 0] + v[:, :, :, 0, :, 1])
                + (v[:, :, :, 1, :, 0] + v[:, :, :, 1, :, 1]),)

    return _record(out, (x,), bwd)


def crop_windows(fmap, centers, w):
    """Crop w x w windows around integer centers from a [C, H, W] map.

    centers: int array [n, 2] of (row, col). Windows must lie fully inside
    the map; callers are responsible for dropping out-of-bounds requests.
    Returns Tensor [n, C, w, w].
    """
    centers = np.asarray(centers, dtype=np.int64)
    c, hh, ww = fmap.data.shape
    r = w // 2
    if centers.size and ((centers[:, 0] < r).any() or (centers[:, 0] >= hh - r).any()
                         or (centers[:, 1] < r).any() or (centers[:, 1] >= ww - r).any()):
        raise ValueError("crop_windows: window exceeds map bounds")
    off = np.arange(-r, r + 1)
    rows = centers[:, 0, None, None] + off[None, :, None]  # [n, w, 1]
    cols = centers[:, 1, None, None] + off[None, None, :]  # [n, 1, w]
    out_data = fmap.data[:, rows, cols]          # [C, n, w, w]
    out = Tensor(np.ascontiguousarray(out_data.transpose(1, 0, 2, 3)))

    def bwd(g):
        gf = np.zeros_like(fmap.data)
        np.add.at(gf, (slice(None), rows, cols), g.transpose(1, 0, 2, 3))
        return (gf,)

    return _record(out, (fmap,), bwd)


# ---------------------------------------------------------------------------
# bilinear warping (not differentiable; resampling backend for the harness)


def map_pixel_centers(m, h, w):
    """Send the pixel centres of an h x w grid through a 3x3 map.

    Pixel (r, c) sits at (x, y) = (c + 0.5, r + 0.5). Returns the mapped
    (xs, ys), each float64 [h, w], after the projective divide; the
    identity map returns the grid itself, exactly.
    """
    m = np.asarray(m, dtype=np.float64)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    xs += 0.5
    ys += 0.5
    den = m[2, 0] * xs + m[2, 1] * ys + m[2, 2]
    return ((m[0, 0] * xs + m[0, 1] * ys + m[0, 2]) / den,
            (m[1, 0] * xs + m[1, 1] * ys + m[1, 2]) / den)


def bilinear_sample(img, xs, ys, fill=0.0):
    """Sample [c, h, w] image data at continuous coords (pixel-center convention).

    Pixel (r, c) has coordinates (x=c+0.5, y=r+0.5). Samples outside the
    image rectangle return `fill`. Returns [c, ...] matching xs shape.
    """
    img = np.asarray(img)
    c, h, w = img.shape
    xf = np.asarray(xs, dtype=np.float64) - 0.5
    yf = np.asarray(ys, dtype=np.float64) - 0.5
    x0 = np.floor(xf).astype(np.int64)
    y0 = np.floor(yf).astype(np.int64)
    tx = xf - x0
    ty = yf - y0
    valid = (xf >= -0.5) & (xf <= w - 0.5) & (yf >= -0.5) & (yf <= h - 0.5)

    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)
    # weights of out-of-range taps are zeroed so clipped indices are inert
    wx1 = np.where((x0 + 1 > w - 1) & (tx > 0), 0.0, tx)
    wx0 = np.where(x0 < 0, 0.0, 1.0 - tx)
    wy1 = np.where((y0 + 1 > h - 1) & (ty > 0), 0.0, ty)
    wy0 = np.where(y0 < 0, 0.0, 1.0 - ty)
    # renormalize edge samples so a pure border sample keeps full weight
    norm = (wx0 + wx1) * (wy0 + wy1)
    norm = np.where(norm > 0, norm, 1.0)

    v = (img[:, y0c, x0c] * (wy0 * wx0)
         + img[:, y0c, x1c] * (wy0 * wx1)
         + img[:, y1c, x0c] * (wy1 * wx0)
         + img[:, y1c, x1c] * (wy1 * wx1)) / norm
    return np.where(valid, v, fill)


def bilinear_warp(image, hmap, out_h, out_w, fill=0.0):
    """Warp an image through a homography, bilinear resampling.

    Args:
        image: Tensor or array [c, h, w].
        hmap: 3x3 target->source map; output pixel centers are sent through
            it into source coordinates and sampled there.
        out_h, out_w: output dimensions.
        fill: value for samples outside the source rectangle.

    Returns:
        Tensor [c, out_h, out_w]. Not differentiable.
    """
    img = image.data if isinstance(image, Tensor) else np.asarray(image)
    m = np.asarray(hmap, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError(f"bilinear_warp: map must be 3x3, got shape {m.shape}")
    if abs(np.linalg.det(m)) <= 1e-15 * np.linalg.norm(m) ** 3:   # as in `Homography`
        raise ValueError("bilinear_warp: singular map")
    v = bilinear_sample(img, *map_pixel_centers(m, out_h, out_w), fill=fill)
    return Tensor(v.astype(img.dtype if img.dtype in (np.float32, np.float64) else DEFAULT_DTYPE))


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def backward(loss, tape):
    """Gradients of a scalar loss with respect to the leaves of the tape.

    Replays the tape's operation record in reverse, summing each tensor's
    gradient contributions in replay order. Leaves are the tensors that
    require grad and that no node on this tape produced (the loss too, if
    none did); parameters and tensors computed under another tape alike.
    Watched parameters that the loss does not reach get zero gradients and
    are listed in `tape.untracked`.

    Returns a dict mapping leaf Tensor -> a new gradient ndarray, in the
    order the leaves were first reached, then the untracked parameters.
    Each replay of one tape returns the same values in new arrays.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    grads = {loss: np.ones_like(loss.data)}
    for out, parents, bwd in reversed(tape._nodes):
        g = grads.pop(out, None)   # a node's output is never a leaf
        if g is None:
            continue
        for p, pg in zip(parents, bwd(g)):
            if pg is not None and p.requires_grad:
                grads[p] = grads[p] + pg if p in grads else pg
    # only leaves are left; a contribution may be shared with another entry
    result = {t: g.copy() for t, g in grads.items() if t.requires_grad}
    tape.untracked = [t for t in tape._watched if t not in result]
    for t in tape.untracked:
        result[t] = np.zeros_like(t.data)
    return result


def finite_diff_check(fn, params, eps=1e-5, sample=None, rng=None):
    """Max relative error between analytic and central-difference gradients.

    Args:
        fn: callable(params) -> scalar Tensor; must be deterministic.
        params: list of Tensors (float64 recommended) with requires_grad=True.
        eps: central difference step.
        sample: optionally check only this many randomly chosen coordinates
            per parameter (seeded by rng); default checks every coordinate.
        rng: numpy Generator used when sampling coordinates.

    Returns:
        Maximum over checked coordinates of |analytic - numeric| /
        max(|analytic|, |numeric|, 1e-12).
    """
    params = list(params)
    with GradientTape() as tape:
        tape.watch(*params)
        loss = fn(params)
        if not np.isfinite(loss.data).all():
            raise ValueError("finite_diff_check: non-finite base function value")
        grads = backward(loss, tape)

    def f_scalar():
        val = fn(params).item()
        if not np.isfinite(val):
            raise ValueError("finite_diff_check: non-finite function value at perturbed point")
        return val

    worst = 0.0
    for p in params:
        analytic = grads[p].ravel()
        flat = p.data.ravel()
        n = flat.size
        if sample is not None and sample < n:
            gen = rng if rng is not None else np.random.default_rng(0)
            coords = gen.choice(n, size=sample, replace=False)
        else:
            coords = range(n)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            fp = f_scalar()
            flat[i] = orig - eps
            fm = f_scalar()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            denom = max(abs(analytic[i]), abs(numeric), 1e-12)
            err = abs(analytic[i] - numeric) / denom
            if err > worst:
                worst = err
    return worst
