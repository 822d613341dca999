"""Cyclic rotation groups, their representations, and actions on images,
feature fields, and convolution kernels.

Conventions pinned here and relied on everywhere else:
  * angles are counter-clockwise in the visual sense (rot90 of an image
    array), element k of C_N rotating by 360*k/N degrees;
  * the regular representation acts as the cyclic shift sending channel j
    to channel (j + k) mod N;
  * pixel (row r, col c) has continuous coordinates (x, y) = (c+0.5, r+0.5).
"""

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, bilinear_sample, bilinear_warp, map_pixel_centers

SUPPORTED_ORDERS = (1, 4, 8)


@dataclass(frozen=True)
class CyclicGroup:
    """The group C_N of planar rotations by multiples of 360/N degrees."""

    order: int

    def __post_init__(self):
        if self.order not in SUPPORTED_ORDERS:
            raise ValueError(f"unsupported cyclic group order {self.order}; "
                             f"supported: {SUPPORTED_ORDERS}")

    def element(self, k):
        return GroupElement(self, k % self.order)

    def elements(self):
        return [self.element(k) for k in range(self.order)]

    @property
    def identity(self):
        return self.element(0)

    def __repr__(self):
        return f"C{self.order}"


@dataclass(frozen=True)
class GroupElement:
    group: CyclicGroup
    k: int

    @property
    def angle_degrees(self):
        return 360.0 * self.k / self.group.order

    def inverse(self):
        return self.group.element(-self.k)

    def __mul__(self, other):
        if other.group != self.group:
            raise ValueError("cannot compose elements of different groups")
        return self.group.element(self.k + other.k)


def regular_permutation(n, k):
    """Permutation array p with p[j] = source channel of output channel j.

    The regular representation of C_n sends channel j to channel (j+k) mod n,
    so applying it to a vector v gives v_new = v[p], p[j] = (j - k) mod n.
    """
    if not 0 <= k < n:
        raise ValueError(f"element index {k} out of range for C_{n}")
    return (np.arange(n) - k) % n


@dataclass(frozen=True)
class FieldType:
    """Channel layout of a feature field: `fields` fields of one kind.

    A trivial field is one channel (width 1); a regular field is N channels
    (width N), one per group element. Channel f * width + j is element j of
    field f, so a [c, h, w] field views as [fields, width, h, w].
    """

    group: CyclicGroup
    kind: str
    fields: int

    def __post_init__(self):
        if self.kind not in ("trivial", "regular"):
            raise ValueError(f"unknown representation kind {self.kind!r}")
        if self.fields < 1:
            raise ValueError("FieldType must have at least one field")

    @classmethod
    def trivial(cls, group, fields):
        return cls(group, "trivial", fields)

    @classmethod
    def regular(cls, group, fields):
        return cls(group, "regular", fields)

    @property
    def width(self):
        return 1 if self.kind == "trivial" else self.group.order

    @property
    def channel_count(self):
        return self.fields * self.width

    def field_of_channel(self):
        """Index array mapping each channel to its field, for broadcasting
        per-field values (biases, norm statistics) to channels."""
        return np.repeat(np.arange(self.fields), self.width)


def rotation_about_center(angle_degrees, h, w):
    """Forward homography of a visual-CCW rotation about the image center."""
    th = np.deg2rad(angle_degrees)
    c, s = np.cos(th), np.sin(th)
    cx, cy = w / 2.0, h / 2.0
    t_fwd = np.array([[1, 0, cx], [0, 1, cy], [0, 0, 1]], dtype=np.float64)
    rot = np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]], dtype=np.float64)
    t_back = np.array([[1, 0, -cx], [0, 1, -cy], [0, 0, 1]], dtype=np.float64)
    return t_fwd @ rot @ t_back


def rotate_image(img, elem, mode="auto", fill=0.0):
    """Rotate a [c, h, w] field counter-clockwise by a group element's angle.

    Exact mode is a pure index permutation (angle must be a multiple of 90
    degrees; 90/270 swap the output dims). Bilinear mode keeps the canvas
    size, rotating about the image center with `fill` outside the support.
    """
    data = img.data if isinstance(img, Tensor) else np.asarray(img)
    if data.ndim != 3:
        raise ValueError("rotate_image expects a [c, h, w] field")
    angle = elem.angle_degrees % 360.0
    h, w = data.shape[1], data.shape[2]
    if mode == "auto":
        mode = "exact" if angle % 90.0 == 0.0 and (h == w or angle % 180.0 == 0.0) \
            else "bilinear"
    if mode == "exact":
        if angle % 90.0 != 0.0:
            raise ValueError(f"exact rotation requires a multiple of 90 degrees, got {angle}")
        q = int(angle // 90) % 4
        return Tensor(np.ascontiguousarray(np.rot90(data, q, axes=(1, 2))),
                      dtype=data.dtype)
    if mode != "bilinear":
        raise ValueError(f"unknown rotation mode {mode!r}")
    return bilinear_warp(data, np.linalg.inv(rotation_about_center(angle, h, w)), h, w, fill)


def act_on_field(elem, field, ft, mode="auto", fill=0.0):
    """Act on a feature field: rotate spatially, then cyclically shift each
    field's `width` channels by the element (a no-op for trivial fields)."""
    data = field.data if isinstance(field, Tensor) else np.asarray(field)
    if data.shape[0] != ft.channel_count:
        raise ValueError(f"field has {data.shape[0]} channels, type expects {ft.channel_count}")
    rotated = rotate_image(data, elem, mode=mode, fill=fill).data
    by_field = rotated.reshape(ft.fields, ft.width, *rotated.shape[1:])
    return Tensor(np.roll(by_field, elem.k, axis=1).reshape(rotated.shape), dtype=data.dtype)


def _permutation_matrix_90(k, q):
    m = np.zeros((k * k, k * k))
    # out = rot90(in, q) means out.flat[i] = in.flat[rot90(index_grid, q).flat[i]]
    src = np.rot90(np.arange(k * k).reshape(k, k), q).ravel()
    m[np.arange(k * k), src] = 1.0
    return m


def _shift2d(x, dy, dx):
    out = np.zeros_like(x)
    h, w = x.shape[-2:]
    ys0, ys1 = max(0, dy), min(h, h + dy)
    xs0, xs1 = max(0, dx), min(w, w + dx)
    out[..., ys0:ys1, xs0:xs1] = x[..., ys0 - dy:ys1 - dy, xs0 - dx:xs1 - dx]
    return out


def _fit_residual_rotation(k, angle_degrees):
    """Operator-matched map for a non-grid kernel rotation, fit by least squares.

    Plain bilinear resampling of a tiny kernel grid loses mass at the support
    corners and distorts low kernel moments, which dominates the orbit's
    equivariance error regardless of input smoothness. Instead, solve for the
    linear map M such that convolving with M @ kernel best reproduces the
    rotated-image convolution on smooth probe fields:

        conv(rot(x), psi) ~= rot(conv(x, M psi))   for smooth x,

    sampled over deterministic Gaussian-smoothed noise probes. The center
    row of M is pinned to the identity, keeping the kernel center an exact
    fixed point of rotation. Probes and solver are deterministic, so the
    map is reproducible bit-for-bit.
    """
    c = (k - 1) // 2
    rng = np.random.default_rng(0x5EEDED)
    h, margin, n_probes, sigma = 28, 2 * k, 12, 2.5
    t = np.arange(int(sigma * 4) | 1) - (int(sigma * 4) | 1) // 2
    gk = np.exp(-t * t / (2 * sigma * sigma))
    gk /= gk.sum()

    def smooth_probe():
        x = rng.normal(size=(1, h, h))
        x = np.apply_along_axis(lambda r: np.convolve(r, gk, mode="same"), -1, x)
        x = np.apply_along_axis(lambda r: np.convolve(r, gk, mode="same"), -2, x)
        return x / x.std()

    # the identity conv(R x, psi) = R(conv(x, M psi)) defines M as the
    # kernel-space action of rotating by -angle on the image side
    sx, sy = map_pixel_centers(np.linalg.inv(rotation_about_center(-angle_degrees, h, h)),
                               h, h)

    probes = [smooth_probe() for _ in range(n_probes)]
    sl = slice(margin, h - margin)
    n_obs = n_probes * (h - 2 * margin) ** 2
    a = np.zeros((n_obs, k * k))
    b = np.zeros((n_obs, k * k))
    for j in range(k * k):
        dy, dx = divmod(j, k)
        dy -= c
        dx -= c
        cols_a, cols_b = [], []
        for x in probes:
            rx = bilinear_sample(x, sx, sy, fill=0.0)
            cols_a.append(_shift2d(rx, dy, dx)[0, sl, sl].ravel())
            cols_b.append(bilinear_sample(_shift2d(x, dy, dx), sx, sy, fill=0.0)[0, sl, sl].ravel())
        a[:, j] = np.concatenate(cols_a)
        b[:, j] = np.concatenate(cols_b)

    center = (k * k - 1) // 2
    others = [i for i in range(k * k) if i != center]
    m = np.zeros((k * k, k * k))
    m[center, center] = 1.0
    for j in range(k * k):
        rhs = a[:, j] - (b[:, center] if j == center else 0.0)
        sol, *_ = np.linalg.lstsq(b[:, others], rhs, rcond=None)
        m[others, j] = sol
    return m


_ROTATION_MATRIX_CACHE = {}


def _rotation_matrix(k, angle_degrees, masked):
    """Dense linear map M with rot(kernel).flat = M @ kernel.flat.

    Multiples of 90 degrees are exact permutation matrices. Other angles
    decompose as quarter turns times an operator-matched residual rotation
    (see `_fit_residual_rotation`). For masked groups, output rows outside
    the circular mask of radius (k-1)/2 + 0.5 are zeroed.
    """
    angle = angle_degrees % 360.0
    key = (k, angle, masked)
    if key in _ROTATION_MATRIX_CACHE:
        return _ROTATION_MATRIX_CACHE[key]
    if angle % 90.0 == 0.0:
        m = _permutation_matrix_90(k, int(angle // 90) % 4)
    else:
        q, residual = divmod(angle, 90.0)
        m = _permutation_matrix_90(k, int(q) % 4) @ _fit_residual_rotation(k, residual)
        if masked:
            c = (k - 1) / 2.0
            rows, cols = np.divmod(np.arange(k * k), k)
            x = cols - c
            y = rows - c
            radius = c + 0.5
            m = m.copy()
            m[(x * x + y * y) > radius * radius, :] = 0.0
    _ROTATION_MATRIX_CACHE[key] = m
    return m


def _kernel_rotation_taps(k, angle_degrees, masked):
    """Sparse tap form of `_rotation_matrix`: (idx, w) with shape [T, k*k],
    where rot(kernel).flat[i] = sum_t w[t, i] * kernel.flat[idx[t, i]]."""
    m = _rotation_matrix(k, angle_degrees, masked)
    nnz = (m != 0).sum(axis=1)
    t_max = max(1, int(nnz.max()))
    idx = np.zeros((t_max, k * k), dtype=np.int64)
    w = np.zeros((t_max, k * k))
    for i in range(k * k):
        src = np.nonzero(m[i])[0]
        idx[:len(src), i] = src
        w[:len(src), i] = m[i, src]
    return idx, w


def rotate_kernel(kernel, elem):
    """Rotate the spatial support of a [..., k, k] kernel by a group element.

    Multiples of 90 degrees are exact grid permutations; other angles apply
    the fitted linear operator of `_rotation_matrix` (quarter turns times an
    operator-matched residual rotation), in its tap form from
    `_kernel_rotation_taps`, with a circular mask of radius (k-1)/2 + 0.5
    zeroing the corners.
    """
    data = kernel.data if isinstance(kernel, Tensor) else np.asarray(kernel)
    k = data.shape[-1]
    if data.shape[-2] != k:
        raise ValueError("rotate_kernel requires square spatial support")
    if k % 2 == 0:
        raise ValueError("rotate_kernel requires odd kernel size")
    angle = elem.angle_degrees % 360.0
    if angle % 90.0 == 0.0:
        q = int(angle // 90) % 4
        return Tensor(np.ascontiguousarray(np.rot90(data, q, axes=(-2, -1))),
                      dtype=data.dtype)
    idx, w = _kernel_rotation_taps(k, angle, masked=True)
    flat = data.reshape(-1, k * k)
    out = np.zeros_like(flat)
    for t in range(idx.shape[0]):
        out += (w[t] * flat[:, idx[t]]).astype(flat.dtype)
    return Tensor(out.reshape(data.shape), dtype=data.dtype)
