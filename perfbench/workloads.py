"""The benchmark's three workloads.

Each is a single-process closed loop with one client: the next operation
starts only after the previous one returns. A workload makes every input
from the benchmark seed; the program only sees the generated data.

A workload object has `setup(tracer)`, run `setup_repeats` times by the
harness (it reports their median; the rounds use the last), `round()`,
which runs one unit of work and returns a `Round`, and `check()`, which the
harness calls once between set-up and the measured rounds, for checks too
costly to repeat in every round. Rounds are what the traced run compares
with untraced ones to measure tracing overhead, so every round of a
workload does the same work.
"""

import hashlib
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import rotmatch.config as rconfig
import rotmatch.datasets as rdatasets
import rotmatch.evaluate as revaluate
import rotmatch.model as rmodel
import rotmatch.train as rtrain
from rotmatch.tensor import Tensor


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    # (t0, t1, n): n operations took t1 - t0 perf_counter seconds together
    op_spans: list = field(default_factory=list)
    units: int = 0                                     # pairs or training steps
    errors: list = field(default_factory=list)

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)


def _seed(seed, index):
    """Seed of the index-th generated input of a run."""
    return rdatasets.splitmix64(seed, index)


def acceptance_config(steps):
    """The acceptance criterion-8 configuration (c4star, 64x64, batch 2)."""
    cfg = rconfig.Config.default()
    cfg.backbone.variant = "c4star"
    cfg.backbone.base_width = 24
    cfg.matcher.d_model = 32
    cfg.matcher.n_blocks = 2
    cfg.train.batch_size = 2
    cfg.train.steps = steps
    cfg.train.val_interval = steps
    return cfg.validate()


# ---------------------------------------------------------------------------
# match-480x640


@dataclass(frozen=True)
class MatchSpec:
    h: int = 480
    w: int = 640
    setup_repeats: int = 3


class MatchWorkload:
    """`match_pair` on synthetic pairs at the paper's HPatches resolution,
    with a fresh default-config c4star model."""

    name = "match-480x640"

    def __init__(self, seed, workdir, spec=MatchSpec()):
        self.seed = seed
        self.spec = spec
        self.setup_repeats = spec.setup_repeats
        self.digests = []
        self._first_digest = {}   # pair index -> digest of its first match
        self.coarse_matches = []
        self._next = 0

    def setup(self, tracer):
        cfg = rconfig.Config.default()
        cfg.backbone.variant = "c4star"
        self.model = rmodel.MatcherModel(cfg)
        self.model.eval()
        self.scene = rdatasets.make_synthetic_sequence(
            "scene", self.spec.h, self.spec.w, _seed(self.seed, 0))

    def round(self):
        k = self._next % 5
        self._next += 1
        img_a, img_b = self.scene.image_a, self.scene.images_b[k]
        out = Round(attempted=1, units=1)
        t0 = time.perf_counter()
        try:
            mset, matches, dropped = self.model.match_pair(img_a, img_b)
        except Exception as exc:   # a failed operation, counted and reported
            out.fail(f"match_pair raised {exc!r}")
            return out
        out.op_spans.append((t0, time.perf_counter(), 1))
        problem = check_match_set(mset, matches, dropped, self.spec.h, self.spec.w)
        if problem:
            out.fail(problem)
        self.coarse_matches.append(len(mset))
        digest = match_digest(mset, matches)
        self.digests.append(digest)
        if digest != self._first_digest.setdefault(k, digest):
            out.fail(f"match set of pair {k} differs from its first match")
        return out

    def check(self):
        """Check one coarse confidence matrix, before the measured rounds.
        `match_pair` keeps only mutual maxima above a threshold, which the
        fresh model leaves empty (and NaN would too), so its result alone
        does not show whether attention computed sane numbers."""
        out = Round(attempted=1)
        imgs = np.stack([self.scene.image_a, self.scene.images_b[0]]).astype(np.float32)
        coarse, _ = self.model.features(Tensor(imgs))
        conf, _ = self.model.coarse.confidence(Tensor(coarse.data[0]), Tensor(coarse.data[1]))
        problem = check_confidence(conf.data)
        if problem:
            out.fail(problem)
        return out

    def detail(self):
        return {"coarse_matches": self.coarse_matches, "match_digests": self.digests}

    def quality(self):
        return {}


def check_match_set(mset, matches, dropped, h, w):
    """Return a description of the first problem in a `match_pair` result,
    or None when it is well formed."""
    hc, wc = mset.grid_a
    n_a = hc * wc
    n_b = mset.grid_b[0] * mset.grid_b[1]
    if not np.isfinite(mset.confidence).all():
        return "non-finite coarse confidence"
    if len(mset) and ((mset.idx_a < 0).any() or (mset.idx_a >= n_a).any()
                      or (mset.idx_b < 0).any() or (mset.idx_b >= n_b).any()):
        return "coarse match index outside the grid"
    if len(matches) + dropped != len(mset):
        return f"{len(matches)} fine + {dropped} dropped != {len(mset)} coarse matches"
    for m in matches:
        pts = np.array([m.point_a, m.point_b, (m.confidence, 0.0)], dtype=np.float64)
        if not np.isfinite(pts).all():
            return "non-finite fine match"
        if not all(0.0 <= x <= w and 0.0 <= y <= h for x, y in pts[:2]):
            return f"match point outside the {w}x{h} image"
    return None


def check_confidence(conf):
    """Return a description of the first problem in a coarse confidence
    matrix, or None. It is the product of a row-wise and a column-wise
    softmax, so every entry lies in [0, 1] and every row and column sums to
    more than 0 and at most 1."""
    if not np.isfinite(conf).all():
        return "non-finite coarse confidence matrix"
    if conf.min() < 0.0 or conf.max() > 1.0:
        return "coarse confidence outside [0, 1]"
    for axis in (0, 1):
        sums = conf.sum(axis=axis, dtype=np.float64)
        if not ((sums > 0.0) & (sums <= 1.0 + 1e-4)).all():
            return f"coarse confidence sums along axis {axis} outside (0, 1]"
    return None


def match_digest(mset, matches):
    """Short sha256 digest of a match set: coarse indices, confidences and
    fine points."""
    h = hashlib.sha256()
    for arr in (mset.idx_a, mset.idx_b, mset.confidence):
        h.update(np.ascontiguousarray(arr).tobytes())
    pts = np.array([m.point_a + m.point_b for m in matches], dtype=np.float64)
    h.update(pts.tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# eval-96


@dataclass(frozen=True)
class EvalSpec:
    train_scenes: int = 16
    train_size: int = 64
    train_steps: int = 150
    test_scenes: int = 8
    test_size: int = 96
    mods: tuple = ("none", "r45", "h0.15")


class EvalWorkload:
    """`evaluate` with the paper's modifications on the criterion-8 test
    split (96x96), using a model trained briefly in set-up."""

    name = "eval-96"
    setup_repeats = 1   # the set-up is a 150-step training run, steady on its own

    def __init__(self, seed, workdir, spec=EvalSpec()):
        self.seed = seed
        self.workdir = workdir
        self.spec = spec
        self.csv = {}
        self.reports = {}

    def setup(self, tracer):
        spec = self.spec
        train_dir = os.path.join(self.workdir, "eval-train")
        test_dir = os.path.join(self.workdir, "eval-test")
        for d in (train_dir, test_dir):
            shutil.rmtree(d, ignore_errors=True)
        rdatasets.synth_dataset(train_dir, spec.train_scenes, spec.train_size,
                                spec.train_size, seed=_seed(self.seed, 1))
        self.config = acceptance_config(spec.train_steps)
        # the training run is train-64's subject; keep it out of this trace
        with tracer.suspended() if tracer else nullcontext():
            result, self.model = rtrain.train(
                self.config, train_dir, os.path.join(self.workdir, "eval-run"),
                log_every=spec.train_steps)
        self.skipped_batches = result.skipped_batches
        rdatasets.synth_dataset(test_dir, spec.test_scenes, spec.test_size,
                                spec.test_size, seed=_seed(self.seed, 2))
        self.test_dir = test_dir
        self.pairs_per_mod = 5 * spec.test_scenes

    def round(self):
        out = Round()
        for mod in self.spec.mods:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                run = revaluate.evaluate(self.model, self.test_dir, mod, self.config)
            except Exception as exc:   # a failed operation, counted and reported
                out.fail(f"evaluate({mod}) raised {exc!r}")
                continue
            n = len(run.report.pair_ids)
            out.op_spans.append((t0, time.perf_counter(), max(n, 1)))
            out.units += n
            csv = revaluate.report_csv(run, "c4star")
            first = self.csv.setdefault(mod, csv)
            if n != self.pairs_per_mod:
                out.fail(f"evaluate({mod}) scored {n} pairs, expected {self.pairs_per_mod}")
            elif csv != first:
                out.fail(f"evaluate({mod}) CSV differs from the first pass")
            elif not all(np.isfinite(row[-1]) for row in revaluate.parse_csv(csv)):
                out.fail(f"evaluate({mod}) CSV has non-finite values")
            self.reports.setdefault(mod, run.report)
        return out

    def check(self):
        return Round()   # every round checks its own CSVs

    def quality(self):
        reps = [self.reports[m] for m in self.spec.mods if m in self.reports]
        if not reps:
            return {}
        pairs = sum(len(r.pair_ids) for r in reps)
        return {"mma10": float(np.mean([r.mma_at(10.0) for r in reps])),
                "auc10": float(np.mean([r.auc_at(10.0) for r in reps])),
                "est_fail_share": sum(r.n_failures for r in reps) / pairs}

    def detail(self):
        return {"training_skipped_batches": self.skipped_batches,
                "per_mod": {m: {"mma10": r.mma_at(10.0), "auc10": r.auc_at(10.0),
                                "failures": r.n_failures, "pairs": len(r.pair_ids),
                                "csv_sha256": hashlib.sha256(self.csv[m]).hexdigest()[:16]}
                            for m, r in self.reports.items()}}


# ---------------------------------------------------------------------------
# train-64


@dataclass(frozen=True)
class TrainSpec:
    scenes: int = 16
    size: int = 64
    steps: int = 40
    setup_repeats: int = 20   # about 0.3 s each; the median needs many


class TrainWorkload:
    """`train` from a fresh init in the criterion-8 configuration; each round
    is one whole `train` call, and each step is timed between progress
    callbacks."""

    name = "train-64"

    def __init__(self, seed, workdir, spec=TrainSpec()):
        self.seed = seed
        self.workdir = workdir
        self.spec = spec
        self.setup_repeats = spec.setup_repeats
        self.train_seconds = []
        self.skipped_batches = []
        self._losses = None

    def setup(self, tracer):
        self.data_dir = os.path.join(self.workdir, "train-data")
        shutil.rmtree(self.data_dir, ignore_errors=True)
        rdatasets.synth_dataset(self.data_dir, self.spec.scenes, self.spec.size,
                                self.spec.size, seed=_seed(self.seed, 3))
        self.config = acceptance_config(self.spec.steps)

    def round(self):
        out = Round(attempted=1)
        stamps = []

        def progress(entry):
            if "loss" in entry:
                stamps.append(time.perf_counter())

        run_dir = os.path.join(self.workdir, "train-run")
        t0 = time.perf_counter()
        try:
            result, _ = rtrain.train(self.config, self.data_dir, run_dir,
                                     log_every=1, progress=progress)
        except Exception as exc:   # a failed operation, counted and reported
            out.fail(f"train raised {exc!r}")
            return out
        self.train_seconds.append(time.perf_counter() - t0)
        shutil.rmtree(run_dir, ignore_errors=True)
        out.op_spans.extend((a, b, 1) for a, b in zip(stamps, stamps[1:]))
        losses = np.asarray(result.losses)
        out.units = losses.size
        self.skipped_batches.append(result.skipped_batches)
        if losses.size + result.skipped_batches != self.spec.steps:
            out.fail(f"{losses.size} losses + {result.skipped_batches} skipped batches "
                     f"!= {self.spec.steps} steps")
        elif not np.isfinite(losses).all():
            out.fail("non-finite training loss")
        elif self._losses is None:
            self._losses = losses
        elif not np.array_equal(losses, self._losses):
            out.fail("losses differ from the first train call on the same data")
        return out

    def check(self):
        return Round()   # every round checks its own losses

    def quality(self):
        return {}

    def detail(self):
        return {"train_s": self.train_seconds, "skipped_batches": self.skipped_batches,
                "final_loss": float(self._losses[-1]) if self._losses is not None else None}


WORKLOADS = {w.name: w for w in (MatchWorkload, EvalWorkload, TrainWorkload)}

