"""Outside-in tracing for the benchmark's traced run.

The program has no spans of its own yet, so this module wraps the public
functions and methods of each rotmatch layer from outside and records one
span per call: name, start, end and parent. A module-level function is
patched under every name that binds it in a loaded rotmatch module (for
example `rotmatch.evaluate.ransac_homography`, which `evaluate` imported by
name), so each call site sees the wrapper, unless the probe is listed in
`HOME_ONLY`; methods are patched on their class. `Tracer.uninstall`
restores every original object.

Spans stay in memory; `Tracer.summary` turns them into self time (span
duration minus the part covered by its child spans), call counts and the
counters that the probes record from arguments and results.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

WRAPPED = "__perfbench_probe__"


# ---------------------------------------------------------------------------
# counters, computed from the shapes of arguments and results


def _conv2d(counts, args, result):
    kernel = args[1]
    counts["tensor.conv2d_gflop"] += 2.0 * result.data.size * kernel.data[0].size / 1e9


def _softmax(counts, args, result):
    counts["tensor.softmax_mb"] += args[0].data.nbytes / 1e6


def _backbone(counts, args, result):
    b, _, h, w = args[1].shape
    counts["backbone.pixels"] += b * h * w


def _attention(counts, args, result):
    mha, x, source = args[0], args[1], args[2]
    b, t, _ = x.shape
    counts["matcher.attention_score_mb"] += (
        b * mha.n_heads * t * source.shape[1] * x.data.itemsize / 1e6)


def _coarse(counts, args, result):
    feat_a, feat_b = args[1], args[2]
    counts["matcher.coarse_tokens"] += (feat_a.shape[1] * feat_a.shape[2]
                                        + feat_b.shape[1] * feat_b.shape[2])
    counts["matcher.coarse_matches"] += len(result)


def _refine(counts, args, result):
    matches, dropped = result
    counts["matcher.fine_matches"] += len(matches)
    counts["matcher.fine_dropped"] += dropped


def _offsets(counts, args, result):
    counts["matcher.fine_windows"] += len(args[3])


def _ransac(counts, args, result):
    counts["geometry.ransac_estimates"] += 1
    counts["geometry.ransac_matches"] += len(args[0])
    counts["geometry.ransac_inliers"] += int(result[1].sum())


# (span name, module, attribute, counter or None). Two probes may share a
# span name: their self times then add up to the layer's busy time.
PROBES = (
    ("tensor.conv2d", "rotmatch.tensor", "conv2d", _conv2d),
    ("tensor.softmax", "rotmatch.tensor", "softmax", _softmax),
    ("tensor.matmul", "rotmatch.tensor", "matmul", None),
    ("tensor.layer_norm", "rotmatch.tensor", "layer_norm", None),
    ("tensor.sparse_taps", "rotmatch.tensor", "sparse_taps", None),
    ("tensor.crop_windows", "rotmatch.tensor", "crop_windows", None),
    ("tensor.bilinear_warp", "rotmatch.tensor", "bilinear_warp", None),
    ("tensor.backward", "rotmatch.tensor", "backward", None),
    ("steerable.conv", "rotmatch.steerable", "EquivConv.__call__", None),
    ("steerable.filter_bank", "rotmatch.steerable", "EquivConv.filter_bank", None),
    ("steerable.norm", "rotmatch.steerable", "InnerBatchNorm.__call__", None),
    ("backbone.forward", "rotmatch.backbone", "Backbone.__call__", _backbone),
    ("matcher.transform", "rotmatch.matcher", "CoarseMatcher.transform", None),
    ("matcher.attention", "rotmatch.matcher", "MultiHeadAttention.__call__", _attention),
    ("matcher.coarse", "rotmatch.matcher", "CoarseMatcher.match", _coarse),
    ("matcher.fine", "rotmatch.matcher", "FineMatcher.refine", _refine),
    ("matcher.fine", "rotmatch.matcher", "FineMatcher.offsets", _offsets),
    ("geometry.ransac", "rotmatch.geometry", "ransac_homography", _ransac),
    ("geometry.dlt", "rotmatch.geometry", "dlt", None),
    ("datasets.generate", "rotmatch.datasets", "synth_dataset", None),
    ("datasets.generate", "rotmatch.datasets", "make_synthetic_sequence", None),
    ("datasets.load", "rotmatch.datasets", "load_manifest", None),
    ("datasets.load", "rotmatch.datasets", "load_sequence", None),
    ("datasets.modify", "rotmatch.datasets", "apply_modification", None),
    ("model.build", "rotmatch.model", "MatcherModel.__init__", None),
    ("model.match_pair", "rotmatch.model", "MatcherModel.match_pair", None),
    ("train.checkpoint", "rotmatch.model", "save_model", None),
    ("evaluate.score", "rotmatch.evaluate", "evaluate_pairs", None),
    ("train.loop", "rotmatch.train", "train", None),
    ("train.batch_loss", "rotmatch.train", "batch_loss", None),
    ("train.adam", "rotmatch.train", "Adam.step", None),
)

# Functions patched only in their own module. `datasets` imports `dlt` to
# build its synthetic homographies; only `ransac_homography`'s calls, through
# the geometry module's global, are RANSAC iterations.
HOME_ONLY = frozenset({"geometry.dlt"})

# `train` validates through `evaluate_pairs`; inside a train span that call is
# the training run's validation, not evaluation.
RENAMED_WITHIN = {"evaluate.score": ("train.loop", "train.validate")}


class Tracer:
    """Span recorder plus the patches that feed it.

    A span is [name, start, end, parent index, child seconds]; parents
    precede their children in `spans`.
    """

    def __init__(self, probes=PROBES, clock=time.perf_counter):
        self.probes = probes
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []   # (owner, attribute, original) in install order

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        if name in RENAMED_WITHIN:
            ancestor, renamed = RENAMED_WITHIN[name]
            if any(self.spans[i][0] == ancestor for i in self._stack):
                name = renamed
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, 0.0])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        idx = self._stack.pop()
        span = self.spans[idx]
        span[2] = self.clock()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    @contextmanager
    def span(self, name):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    # -- patches -------------------------------------------------------------

    @property
    def installed(self):
        return bool(self._patches)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for name, module_name, attr, counter in self.probes:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    if meth not in vars(cls):
                        raise AttributeError(f"{module_name}.{attr} is inherited")
                    self._patch(cls, meth, self._wrap(name, vars(cls)[meth], counter))
                else:
                    original = getattr(module, attr)
                    wrapper = self._wrap(name, original, counter)
                    owners = [module] if name in HOME_ONLY else _binding_modules(original)
                    for owner in owners:
                        for key, value in list(vars(owner).items()):
                            if value is original:
                                self._patch(owner, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def suspended(self):
        """Run a block with the original objects back in place, under one
        `trace.suspended` span so its time is not counted as anyone's."""
        was = self.installed
        self.uninstall()
        try:
            with self.span("trace.suspended"):
                yield
        finally:
            if was:
                self.install()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if counter is not None:   # counts describe calls that returned
                counter(tracer.counts, args, result)
            return result

        setattr(probe, WRAPPED, name)
        return probe

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per span name: {"self_s", "calls"}; plus raw counters."""
        layers = self_times(self.spans)
        return layers, dict(self.counts)


def self_times(spans):
    """Aggregate closed spans by name into self time (duration minus the
    child spans) and call count."""
    out = {}
    for name, start, end, parent, child_s in spans:
        if end is None:
            raise ValueError(f"span {name!r} was never closed")
        row = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        row["self_s"] += (end - start) - child_s
        row["calls"] += 1
    return out


def _rotmatch_modules():
    return [(key, m) for key, m in list(sys.modules.items())
            if m is not None and (key == "rotmatch" or key.startswith("rotmatch."))]


def _binding_modules(obj):
    return [m for _, m in _rotmatch_modules() if any(v is obj for v in vars(m).values())]


def installed_probes():
    """Every probe wrapper still reachable from a loaded rotmatch module or
    one of its classes, as "owner.attribute" strings."""
    found = []
    for key, module in _rotmatch_modules():
        for attr, value in vars(module).items():
            if hasattr(value, WRAPPED):
                found.append(f"{key}.{attr}")
            elif isinstance(value, type) and value.__module__ == key:
                found.extend(f"{key}.{attr}.{meth}" for meth, v in vars(value).items()
                             if hasattr(v, WRAPPED))
    return found
