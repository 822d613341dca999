"""Small module system: parameter registration, train/eval mode, state dicts."""

from contextlib import contextmanager

import numpy as np

from .tensor import Tensor, add, matmul


class Module:
    """Base class for layers and models.

    Parameters are Tensor attributes with requires_grad=True; persistent
    non-learnable state (running statistics) goes in `self._buffers`.
    Attribute insertion order fixes parameter naming, so checkpoints are
    deterministic.
    """

    _epoch = 0   # bumped by each new module, child assignment and `train` call, anywhere

    def __init__(self):
        self._buffers = {}
        self._training = True
        self._seen = (None, None)   # (epoch, the tree's mode then, None if mixed)
        Module._epoch += 1

    def __setattr__(self, name, value):
        # a child swapped in may be in another mode than its tree: `mode` walks again
        if isinstance(value, Module) or (isinstance(value, (list, tuple))
                                         and any(isinstance(v, Module) for v in value)):
            Module._epoch += 1
        object.__setattr__(self, name, value)

    def register_buffer(self, name, array):
        self._buffers[name] = np.asarray(array)

    @property
    def training(self):
        return self._training

    def train(self, flag=True):
        for m in self.modules():
            m._training = flag
        Module._epoch += 1
        self._seen = (Module._epoch, flag)
        return self

    def eval(self):
        return self.train(False)

    @contextmanager
    def mode(self, training):
        """Training (True) or eval mode for the whole tree within the block,
        each module's mode before restored on exit. The tree is walked only
        when a mode may have changed since the last walk."""
        if self._seen[0] != Module._epoch:
            flags = {m._training for m in self.modules()}
            self._seen = (Module._epoch, flags.pop() if len(flags) == 1 else None)
        before = self._seen[1]
        if before == training:
            yield self
            return
        mixed = [(m, m._training) for m in self.modules()] if before is None else []
        self.train(training)
        try:
            yield self
        finally:
            if mixed:
                for m, flag in mixed:
                    m._training = flag
                Module._epoch += 1
            else:
                self.train(before)

    def _walk(self, prefix=""):
        """Depth-first walk of the module tree in attribute order.

        Yields (dotted name, owner, value): this module itself (named by
        `prefix` without its trailing dot), its buffers (ndarrays), then for
        each public attribute in insertion order a parameter (a Tensor with
        requires_grad) or the walk of a child module. Modules in a list or
        tuple are named by their index.
        """
        yield prefix[:-1], self, self
        for key, arr in self._buffers.items():
            yield prefix + key, self, arr
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            if isinstance(value, Tensor):
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
                key = name.rpartition(".")[2]
                owner._buffers[key] = np.asarray(state[name]).astype(value.dtype).copy()


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
