"""Tour of the tensor engine: convolution semantics and reverse-mode
gradients checked against finite differences.

Run:  python3 demos/01_tensor_autodiff.py
"""
import numpy as np

from rotmatch import tensor as T
from rotmatch.tensor import GradientTape, Tensor, backward, finite_diff_check

rng = np.random.default_rng(0)

# --- cross-correlation convention ------------------------------------------
# conv2d slides the kernel without flipping it; an identity kernel (center 1)
# reproduces the input exactly.
x = Tensor(rng.normal(size=(1, 1, 5, 5)).astype(np.float32))
ident = np.zeros((1, 1, 3, 3), dtype=np.float32)
ident[0, 0, 1, 1] = 1.0
y = T.conv2d(x, Tensor(ident), stride=1, padding=1)
print("identity kernel reproduces input:", np.array_equal(y.data, x.data))

# strided convolution halves the grid: (5 + 2*1 - 3)//2 + 1 = 3
y2 = T.conv2d(x, Tensor(rng.normal(size=(4, 1, 3, 3)).astype(np.float32)),
              stride=2, padding=1)
print("stride-2 output shape:", y2.shape)

# --- taped gradients ---------------------------------------------------------
# operations executed inside a GradientTape record themselves; backward
# replays the record in reverse and returns the parameter gradients.
w = Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True, dtype=np.float64)
xin = Tensor(rng.normal(size=(1, 1, 6, 6)), dtype=np.float64)

with GradientTape() as tape:
    tape.watch(w)
    loss = T.sum_(T.relu(T.conv2d(xin, w, padding=1)) ** 2.0)
    grads = backward(loss, tape)
print("loss:", float(loss.data), " grad shape:", grads[w].shape)

# each replay returns the same gradient, in a new array
g2 = backward(loss, tape)[w]
print("replay gives the same gradient:", np.array_equal(g2, grads[w]), g2 is not grads[w])

# --- the verification harness ------------------------------------------------
# central differences with eps=1e-5 agree with the analytic gradient to 1e-4
# in 64-bit for every differentiable op; here: a two-layer conv net.
k1 = Tensor(rng.normal(size=(3, 1, 3, 3)), requires_grad=True, dtype=np.float64)
k2 = Tensor(rng.normal(size=(1, 3, 3, 3)), requires_grad=True, dtype=np.float64)


def f(params):
    h = T.relu(T.conv2d(xin, params[0], padding=1))
    return T.sum_(T.conv2d(h, params[1], padding=1) ** 2.0)


err = finite_diff_check(f, [k1, k2], eps=1e-5)
print(f"two-layer conv+relu net: max relative gradient error {err:.2e}")
