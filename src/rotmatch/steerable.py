"""Equivariant layers between feature fields of a cyclic group.

Three convolution kinds cover the backbone's needs:
  * lift: trivial input fields -> regular output fields. Each output field's
    N channels convolve with the N rotated copies of one base kernel.
  * group: regular -> regular. The filter bank is generated from base
    weights [F_out, F_in, N, k, k]; the block for output element g rotates
    kernels spatially by g and cyclically shifts the input-group axis by g.
  * readout: regular -> trivial via a 1x1 convolution whose equivariance
    constraint forces one shared coefficient per (output channel, input
    field) pair; implemented as a group-sum followed by a 1x1 projection.

Lift and group layers share one expansion table: a lift is the group case
whose input fields have width 1, so there is no input-group axis to shift.

Filter expansion is a fixed sparse linear map of the base weights (a row
of the fitted kernel-rotation operator can be dense, so an expanded
coefficient can draw on all k*k base taps), so it is cheap and
differentiable.

Downsampling layers (stride 2) compute a stride-1 convolution followed by
2x2 average pooling: on even grids the stride-2 sampling lattice has no
rot90-symmetric phase, while block pooling commutes with quarter rotations
exactly, which keeps strided layers equivariant instead of merely close.
The pool is folded into the filter bank rather than run after it: the
expansion table of a stride-2 layer yields the (k+1) x (k+1) bank of the
k x k convolution followed by the 2x2 box, and that bank is convolved at
stride 2 with the same padding. It is the same linear map, computed
without the three quarters of outputs the pool would drop.

In eval mode `conv(x, norm)` folds the norm, a per-field affine map a·x + c,
into the conv: the bank's output channels are scaled by a and c joins the
bias, so the bank stays equivariant and the map is one conv2d pass. Training
mode runs the conv, then the batch-statistics norm.
"""

import numpy as np

from . import tensor as T
from .groups import _kernel_rotation_taps
from .nn import Module
from .tensor import Tensor

__all__ = ["EquivConv", "InnerBatchNorm", "calibrate_norm_stats"]


def _expansion_taps(in_type, out_type, k, masked):
    """Tap tables mapping flat base weights to the expanded filter bank of a
    regular output type.

    The base reads as [f_out, f_in, m, k, k] with m = in_type.width; the block
    for output element g rotates kernels spatially by g and cyclically shifts
    the m-axis by g. A lift (trivial input, m = 1) is the case with no shift.
    Returns (idx, w, bank_shape) where bank_shape is
    [out_channels, in_channels, k, k].
    """
    n = out_type.group.order
    rot = [_kernel_rotation_taps(k, 360.0 * g / n, masked=masked) for g in range(n)]
    n_taps = max(r[0].shape[0] for r in rot)
    kk = k * k
    # pad every element's tap table to a common depth (weight-0 taps are inert)
    ridx = np.zeros((n, n_taps, kk), dtype=np.int64)
    rw = np.zeros((n, n_taps, kk))
    for g, (i_g, w_g) in enumerate(rot):
        ridx[g, :i_g.shape[0]] = i_g
        rw[g, :w_g.shape[0]] = w_g

    f_in, m = in_type.fields, in_type.width
    co, ci = out_type.channel_count, in_type.channel_count
    shape = (co, ci, k, k)
    out_pos = np.arange(co * ci * kk)
    rem, tap = np.divmod(out_pos, kk)
    rem, ih = np.divmod(rem, m)      # input channel = (fi, ih)
    rem, fi = np.divmod(rem, f_in)
    fo, g = np.divmod(rem, n)
    src_h = (ih - g) % m
    idx = ((fo * f_in + fi) * m + src_h)[None] * kk + ridx[g, :, tap].T
    w = rw[g, :, tap].T
    return idx, w, shape


def _pooled_taps(idx, w, shape):
    """Tap tables of the [co, ci, k+1, k+1] bank that, convolved at stride 2,
    equals the [co, ci, k, k] bank of (idx, w) followed by 2x2 average
    pooling: entry (u, v) is a quarter of the sum of the k x k entries
    (u - du, v - dv), du, dv in {0, 1}, that exist."""
    co, ci, k, _ = shape
    src = np.arange(co * ci * k * k).reshape(co, ci, k, k)
    idxs, ws = [], []
    for du in (0, 1):
        for dv in (0, 1):
            pos = np.full((co, ci, k + 1, k + 1), -1)   # -1: no k x k entry, weight 0
            pos[:, :, du:du + k, dv:dv + k] = src
            pos = pos.ravel()
            idxs.append(idx[:, pos])
            ws.append(np.where(pos >= 0, 0.25 * w[:, pos], 0.0))
    return np.concatenate(idxs), np.concatenate(ws), (co, ci, k + 1, k + 1)


_KINDS = {("trivial", "regular"): "lift", ("regular", "regular"): "group",
          ("regular", "trivial"): "readout"}


class EquivConv(Module):
    """Equivariant convolution between feature fields (lift/group/readout).

    Stride 2 (lift and group layers) convolves the (k+1) x (k+1) bank of the
    k x k convolution followed by 2x2 average pooling at stride 2 (see
    module docstring). Biases are shared per output field: one per regular
    field (its N channels), one per channel of a trivial output, since a
    trivial field is one channel.
    """

    def __init__(self, in_type, out_type, kernel_size=3, stride=1, bias=True,
                 rng=None, dtype=np.float32):
        super().__init__()
        if in_type.group != out_type.group:
            raise ValueError("input and output field types must share a group")
        self.in_type = in_type
        self.out_type = out_type
        self.k = kernel_size
        self.stride = stride
        self.padding = kernel_size // 2
        if stride not in (1, 2):
            raise ValueError("EquivConv supports stride 1 or 2")
        rng = rng or np.random.default_rng(0)
        # kernels of groups with non-grid rotations (C8) are circularly
        # masked so the rotated-filter family closes under the group
        self._masked = in_type.group.order > 4

        self.kind = _KINDS.get((in_type.kind, out_type.kind))
        if self.kind is None:
            raise ValueError(f"unsupported field type combination: "
                             f"{in_type.kind} -> {out_type.kind}")
        if self.kind == "readout" and (kernel_size != 1 or stride != 1):
            raise ValueError("readout layers are restricted to 1x1 kernels at stride 1")
        fan_in = in_type.channel_count * kernel_size ** 2
        # the readout's group-sum multiplies activations by ~n
        gain = 1.0 if self.kind == "readout" else 2.0
        group_axis = (in_type.width,) if self.kind == "group" else ()
        base = rng.normal(0.0, np.sqrt(gain / fan_in),
                          size=(out_type.fields, in_type.fields, *group_axis,
                                kernel_size, kernel_size))

        self.base = Tensor(base, requires_grad=True, dtype=dtype)
        self._taps = None
        if self.kind != "readout":
            self._taps = _expansion_taps(in_type, out_type, kernel_size, self._masked)
            if stride == 2:
                self._taps = _pooled_taps(*self._taps)
        self.bias = Tensor(np.zeros(out_type.fields), requires_grad=True,
                           dtype=dtype) if bias else None

    def filter_bank(self):
        """Expanded filters [out_channels, in_channels, k, k] (differentiable);
        k + 1 at stride 2, with the 2x2 pool folded in.

        A readout has no expansion: it returns its base, [out_fields,
        in_fields, 1, 1], which convolves the group-summed input fields."""
        if self.kind == "readout":
            return self.base
        idx, w, shape = self._taps
        return T.sparse_taps(self.base, idx, w, shape)

    def __call__(self, x, norm=None):
        """Convolve x, then apply `norm` (an InnerBatchNorm of the output
        type) if given, folded into the bank and bias in eval mode."""
        if x.shape[1] != self.in_type.channel_count:
            raise ValueError(f"{self.kind} conv expects {self.in_type.channel_count} "
                             f"channels, got {x.shape[1]}")
        if self.stride == 2 and (x.shape[2] % 2 or x.shape[3] % 2):
            raise ValueError(f"stride-2 {self.kind} conv requires even height and width, "
                             f"got {x.shape[2]}x{x.shape[3]}")
        if norm is not None and norm.ft != self.out_type:
            raise ValueError(f"norm of {norm.ft} cannot follow a conv to {self.out_type}")
        if self.kind == "readout":
            b, _, h, w = x.shape
            ft = self.in_type
            x = T.sum_(T.reshape(x, (b, ft.fields, ft.width, h, w)), axis=2)
            bank = self.base
        else:
            bank = self.filter_bank()
        bias = None if self.bias is None else T.index(self.bias, self.out_type.field_of_channel())
        if norm is not None and not norm.training:
            a, c = norm.affine()
            bank = bank * T.reshape(a, (-1, 1, 1, 1))
            bias = c if bias is None else bias * a + c
            norm = None
        y = T.conv2d(x, bank, stride=self.stride, padding=self.padding, bias=bias)
        return y if norm is None else norm(y)


class InnerBatchNorm(Module):
    """Batch normalization pooling statistics over each field's channels.

    One (scale, bias, running mean, running var) tuple per field: per
    regular field (its N group channels) and per trivial channel, so
    group-channel permutations of the input permute the output identically.

    In eval mode it is the affine map of `affine()`: two full-map passes on
    its own, none when the EquivConv before it folds it in (`conv(x, norm)`).
    """

    def __init__(self, ft, eps=1e-5, momentum=0.1, dtype=np.float32):
        super().__init__()
        self.ft = ft
        self.eps = eps
        self.momentum = momentum
        # [fields, channels] average applied to per-channel statistics; a mean
        # straight over each field's channels rounds differently and moves losses
        self._avg = Tensor(np.repeat(np.eye(ft.fields), ft.width, axis=1) / ft.width,
                           dtype=dtype)
        self.scale = Tensor(np.ones(ft.fields), requires_grad=True, dtype=dtype)
        self.shift = Tensor(np.zeros(ft.fields), requires_grad=True, dtype=dtype)
        self.running_mean = np.zeros(ft.fields, dtype=dtype)
        self.running_var = np.ones(ft.fields, dtype=dtype)

    def _per_channel(self, field_values):
        return T.reshape(T.index(field_values, self.ft.field_of_channel()),
                         (1, self.ft.channel_count, 1, 1))

    def affine(self):
        """Per-channel (a, c), each [channels], with eval-mode norm(x) = a·x + c:
        a = scale / sqrt(running_var + eps), c = shift - running_mean·a, per
        field. Built from tape ops, so gradients reach scale and shift."""
        inv = Tensor(1.0 / np.sqrt(self.running_var + self.eps))
        a = self.scale * inv
        c = self.shift - Tensor(self.running_mean) * a
        idx = self.ft.field_of_channel()
        return T.index(a, idx), T.index(c, idx)

    def __call__(self, x):
        if x.shape[1] != self.ft.channel_count:
            raise ValueError(f"InnerBatchNorm expects {self.ft.channel_count} channels, "
                             f"got {x.shape[1]}")
        if self.training:
            c = self.ft.channel_count
            ch_mean = T.reshape(T.mean(x, axis=(0, 2, 3)), (c, 1))
            ch_sq = T.reshape(T.mean(x * x, axis=(0, 2, 3)), (c, 1))
            mu = T.reshape(self._avg @ ch_mean, (self.ft.fields,))
            var = T.reshape(self._avg @ ch_sq, (self.ft.fields,)) - mu * mu
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mu.data).astype(self.running_mean.dtype)
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var.data).astype(self.running_var.dtype)
            inv = (var + self.eps) ** -0.5
            xhat = (x - self._per_channel(mu)) * self._per_channel(inv)
        else:
            a, c = self.affine()
            shape = (1, self.ft.channel_count, 1, 1)
            return x * T.reshape(a, shape) + T.reshape(c, shape)
        return xhat * self._per_channel(self.scale) + self._per_channel(self.shift)


def calibrate_norm_stats(model, x):
    """Set running statistics of every norm layer from one forward pass,
    `model.features(x)` (a Backbone's or a MatcherModel's: the whole
    backbone, fine branch included).

    Fresh-initialized running stats (mean 0, var 1) rarely match actual
    activation statistics, so eval-mode features of an untrained model can
    collapse through depth. A single full-momentum pass fixes the scales.
    """
    norms = [m for m in model.modules() if isinstance(m, InnerBatchNorm)]
    saved = [m.momentum for m in norms]
    for m in norms:
        m.momentum = 1.0
    try:
        with model.mode(True):
            model.features(x)
    finally:
        for m, mom in zip(norms, saved):
            m.momentum = mom
    return model

