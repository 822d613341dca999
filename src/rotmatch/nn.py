"""Small module system: parameter registration, train/eval mode, state dicts."""

from contextlib import contextmanager

import numpy as np

from .tensor import Tensor, add, matmul


class Module:
    """Base class for layers and models.

    Parameters are public Tensor attributes with requires_grad=True;
    buffers, the persistent non-learnable state (running statistics), are
    public ndarray attributes. Attribute insertion order fixes their names'
    order, so checkpoints are deterministic.
    """

    def __init__(self):
        self._training = True

    @property
    def training(self):
        return self._training

    def train(self, flag=True):
        for m in self.modules():
            m._training = flag
        return self

    def eval(self):
        return self.train(False)

    @contextmanager
    def mode(self, training):
        """Training (True) or eval mode for the whole tree within the block;
        on exit each module gets back its own mode from before, also when
        the block raises."""
        before = [(m, m._training) for m in self.modules()]
        for m, _ in before:
            m._training = training
        try:
            yield self
        finally:
            for m, flag in before:
                m._training = flag

    def _walk(self, prefix=""):
        """Depth-first walk of the module tree in attribute order.

        Yields (dotted name, owner, value): this module itself (named by
        `prefix` without its trailing dot), then for each public attribute
        in insertion order a buffer (an ndarray), a parameter (a Tensor with
        requires_grad) or the walk of a child module. Modules in a list or
        tuple are named by their index.
        """
        yield prefix[:-1], self, self
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            if isinstance(value, np.ndarray):
                yield prefix + name, self, value
            elif isinstance(value, Tensor):
                if value.requires_grad:
                    yield prefix + name, self, value
            elif isinstance(value, Module):
                yield from value._walk(f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for i, v in enumerate(value):
                    if isinstance(v, Module):
                        yield from v._walk(f"{prefix}{name}.{i}.")

    def modules(self):
        """This module and every module below it, depth first."""
        return [v for _, _, v in self._walk() if isinstance(v, Module)]

    def named_parameters(self):
        return ((name, v) for name, _, v in self._walk() if isinstance(v, Tensor))

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self):
        return ((name, v) for name, _, v in self._walk() if isinstance(v, np.ndarray))

    def state_dict(self):
        state = {name: p.data for name, p in self.named_parameters()}
        for name, arr in self.named_buffers():
            state[name] = arr
        return state

    def load_state_dict(self, state):
        """Copy every parameter and buffer from `state`. All entries are
        checked for presence and shape, and `state` for entries the model
        lacks, before any is written, so a rejected state leaves the model
        unchanged."""
        entries = [(name, owner, value) for name, owner, value in self._walk()
                   if not isinstance(value, Module)]
        missing = []
        for name, _, value in entries:
            if name not in state:
                missing.append(name)
                continue
            if np.shape(state[name]) != value.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"checkpoint {np.shape(state[name])} vs model {value.shape}")
        if missing:
            raise ValueError(f"checkpoint missing entries: {missing}")
        names = {name for name, _, _ in entries}
        unknown = [name for name in state if name not in names]
        if unknown:
            raise ValueError(f"checkpoint has entries the model lacks: {unknown}")
        for name, owner, value in entries:
            if isinstance(value, Tensor):
                value.data = np.asarray(state[name], dtype=value.dtype).copy()
            else:
                setattr(owner, name.rpartition(".")[2],
                        np.asarray(state[name]).astype(value.dtype).copy())


def param_count(module):
    """Number of free scalars (weights and norm scales/biases; running stats excluded)."""
    if isinstance(module, Tensor):
        return module.size
    return sum(p.size for p in module.parameters())


class Linear(Module):
    """Affine map on the last axis: y = x @ weight + bias."""

    def __init__(self, d_in, d_out, bias=True, rng=None, dtype=np.float32):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(1.0 / d_in)
        self.weight = Tensor(rng.uniform(-scale, scale, size=(d_in, d_out)),
                             requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True, dtype=dtype) if bias else None

    def __call__(self, x):
        y = matmul(x, self.weight)
        if self.bias is not None:
            y = add(y, self.bias)
        return y
