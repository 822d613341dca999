"""Equivariant layers: lifting, group convolution, readout, and the
parameter-sharing law.

Run:  python3 demos/03_steerable_layers.py
"""
import numpy as np

from rotmatch.groups import CyclicGroup, FieldType, act_on_field
from rotmatch.nn import param_count
from rotmatch.steerable import EquivConv, InnerBatchNorm
from rotmatch.tensor import Tensor

C4 = CyclicGroup(4)
rng = np.random.default_rng(0)

# --- a lifting convolution -----------------------------------------------------
# trivial (image) input -> regular fields: each output field consists of the
# responses to the four rotated copies of one base kernel.
in_t = FieldType.trivial(C4, 3)
mid = FieldType.regular(C4, 4)
lift = EquivConv(in_t, mid, kernel_size=3, rng=rng)
x = Tensor(rng.normal(size=(1, 3, 12, 12)).astype(np.float32))

g = C4.element(1)


def batch_act(elem, t, ft):
    return Tensor(act_on_field(elem, t.data[0], ft, mode="exact").data[None])


lhs = batch_act(g, lift(x), mid)
rhs = lift(batch_act(g, x, in_t))
print(f"lift equivariance, max abs deviation: {np.abs(lhs.data - rhs.data).max():.2e}")

# --- group convolution and weight sharing --------------------------------------
grp_layer = EquivConv(mid, mid, kernel_size=3, bias=False, rng=rng)
std_layer = EquivConv(FieldType.regular(CyclicGroup(1), 16),
                      FieldType.regular(CyclicGroup(1), 16),
                      kernel_size=3, bias=False, rng=rng)
print(f"group conv parameters: {param_count(grp_layer)}  "
      f"standard conv (same 16->16 channels): {param_count(std_layer)}  "
      f"ratio: {param_count(std_layer) / param_count(grp_layer):.0f}x")

lhs = batch_act(g, grp_layer(lift(x)), mid)
rhs = grp_layer(lift(batch_act(g, x, in_t)))
print(f"lift+group equivariance, max abs deviation: "
      f"{np.abs(lhs.data - rhs.data).max():.2e}")

# --- readout to invariant features ----------------------------------------------
out_t = FieldType.trivial(C4, 8)
ro = EquivConv(mid, out_t, kernel_size=1, rng=rng)
feats = ro(grp_layer(lift(x)))
feats_rot = ro(grp_layer(lift(batch_act(g, x, in_t))))
# readout outputs are invariant: only positions rotate, values match
ref = act_on_field(g, feats.data[0], out_t, mode="exact").data
print(f"readout invariance (interior), max abs deviation: "
      f"{np.abs(feats_rot.data[0][:, 1:-1, 1:-1] - ref[:, 1:-1, 1:-1]).max():.2e}")

# --- inner batch norm: statistics pooled over each field's group axis -----------
bn = InnerBatchNorm(mid)
y = bn(lift(x))
print("norm output shape:", y.shape,
      " fields (one statistic each):", bn.ft.fields)
