"""Training: coarse negative log-likelihood on ground-truth cell assignments
under the dual-softmax confidence matrix, plus a fine-offset MSE on matches
whose coarse prediction hits the ground-truth cell.
"""

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .datasets import gt_coarse_assignment, load_manifest
from .backbone import FINE_STRIDE
from .matcher import FINE_WINDOW, CoarseMatchSet, coarse_nll
from .model import MatcherModel, save_model
from .tensor import GradientTape, Tensor, backward

LAMBDA_FINE = 1.0     # weight of the fine loss against the coarse loss
KEEP_TOP = 5          # best validation checkpoints kept on disk


class Adam(object):
    """Adaptive-moment optimizer with in-place parameter updates."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = grads.get(p)
            if g is None:
                continue
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1 ** self.t)
            vhat = self.v[i] / (1 - b2 ** self.t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)


@dataclass
class TrainResult:
    out_dir: str
    steps_run: int
    losses: list = field(default_factory=list)
    val_history: list = field(default_factory=list)
    best_val: float = float("-inf")
    best_checkpoint: str = ""
    skipped_batches: int = 0


def pair_loss_terms(model, coarse_a, coarse_b, fine_a, fine_b, hom, h, w):
    """Loss terms for one training pair, through the matcher's own coarse
    scores, mutual-match selection and fine windows.

    Returns (coarse_nll or None, fine_sq_errors or None, stats dict).
    """
    assign = gt_coarse_assignment(hom, h, w)
    rows = np.nonzero(assign >= 0)[0]
    stats = {"assigned": int(rows.size), "coarse_correct": 0, "fine_terms": 0}
    if rows.size == 0:
        return None, None, stats

    fa, fb = model.coarse.embed(coarse_a, coarse_b)
    nll, (idx_a, idx_b, conf) = coarse_nll(fa, fb, rows, assign[rows],
                                           model.coarse.cfg.theta_c)

    # fine supervision on mutual matches that hit the ground-truth cell
    mset = CoarseMatchSet(idx_a=idx_a, idx_b=idx_b, confidence=conf,
                          grid_a=coarse_a.shape[1:], grid_b=coarse_b.shape[1:])
    hit = assign[mset.idx_a] == mset.idx_b
    stats["coarse_correct"] = int(hit.sum())
    keep, centers_a, centers_b, points_a = model.fine.windows(
        mset, fine_a.shape[1:], fine_b.shape[1:])
    hit = hit[keep]
    if not hit.any():
        return nll, None, stats
    centers_a, centers_b = centers_a[hit], centers_b[hit]
    target = hom.apply(points_a[hit])
    tx = target[:, 0] / FINE_STRIDE - 0.5 - centers_b[:, 1]
    ty = target[:, 1] / FINE_STRIDE - 0.5 - centers_b[:, 0]
    r = FINE_WINDOW // 2
    within = (np.abs(tx) <= r) & (np.abs(ty) <= r)
    if not within.any():
        return nll, None, stats
    dx, dy, _ = model.fine.offsets(fine_a, fine_b, centers_a[within], centers_b[within])
    txt = Tensor(tx[within].astype(dx.dtype))
    tyt = Tensor(ty[within].astype(dy.dtype))
    stats["fine_terms"] = int(within.sum())
    return nll, (dx - txt) ** 2.0 + (dy - tyt) ** 2.0, stats


def batch_loss(model, batch):
    """Total loss for a list of (img_a, img_b, Homography) training pairs.

    Returns (total, coarse_loss, fine_loss or None, stats), or Nones and the
    stats when no pair has a ground-truth assignment.
    """
    imgs = np.stack([im for pair in batch for im in (pair[0], pair[1])])
    coarse, fine = model.features(Tensor(imgs.astype(np.float32)))
    nlls, fine_sqs = [], []
    stats = {"assigned": 0, "coarse_correct": 0, "fine_terms": 0}
    h, w = imgs.shape[2], imgs.shape[3]
    for i, (_, _, hom) in enumerate(batch):
        nll, fine_sq, st = pair_loss_terms(
            model, coarse[2 * i], coarse[2 * i + 1],
            fine[2 * i], fine[2 * i + 1], hom, h, w)
        for k in stats:
            stats[k] += st[k]
        if nll is not None:
            nlls.append(nll)
        if fine_sq is not None:
            fine_sqs.append(fine_sq)
    if not nlls:
        return None, None, None, stats
    coarse_loss = nlls[0]
    for extra in nlls[1:]:
        coarse_loss = coarse_loss + extra
    coarse_loss = coarse_loss * (1.0 / len(nlls))
    fine_loss = None
    total = coarse_loss
    if fine_sqs:
        fine_loss = T.mean(T.concat(fine_sqs, axis=0))
        total = coarse_loss + fine_loss * LAMBDA_FINE
    return total, coarse_loss, fine_loss, stats


def sample_batch(rng, sequences, batch_size):
    batch = []
    for _ in range(batch_size):
        seq = sequences[int(rng.integers(0, len(sequences)))]
        k = int(rng.integers(0, 5))
        batch.append((seq.image_a, seq.images_b[k], seq.homographies[k]))
    return batch


def train(config, dataset_root, out_dir, log_every=25, progress=None):
    """Train on a generated dataset; saves improving checkpoints (top-k kept
    by validation corner-error AUC@10px on a held-out split) plus the final
    model, and a JSONL metrics log: each logged step has its losses, step
    and backward seconds, global gradient L2 norm and the names of the
    parameters the loss did not reach. Deterministic per config seed."""
    from .evaluate import evaluate_pairs   # deferred: avoids a module cycle

    config.validate()
    tcfg = config.train
    os.makedirs(out_dir, exist_ok=True)
    manifest = load_manifest(dataset_root)
    sequences = manifest.sequences()
    if len(sequences) < 2:
        raise ValueError("training needs at least 2 scenes (one is held out)")
    n_val = max(1, len(sequences) // 8)
    train_seqs = sequences[:-n_val]
    val_seqs = sequences[-n_val:]

    rng = np.random.default_rng(tcfg.seed)
    model = MatcherModel(config, rng=np.random.default_rng(tcfg.seed))
    # linear learning-rate scaling from a reference batch of 2
    lr = tcfg.lr * (tcfg.batch_size / 2.0)
    params = model.parameters()
    param_names = {id(p): name for name, p in model.named_parameters()}
    opt = Adam(params, lr=lr)

    result = TrainResult(out_dir=out_dir, steps_run=0)
    kept = []   # (metric, path)
    log_path = os.path.join(out_dir, "train_log.jsonl")
    log_f = open(log_path, "w", encoding="utf-8")
    t0 = time.time()
    try:
        for step in range(1, tcfg.steps + 1):
            t_step = time.perf_counter()
            batch = sample_batch(rng, train_seqs, tcfg.batch_size)
            with GradientTape() as tape:
                tape.watch(*params)
                total, coarse_l, fine_l, stats = batch_loss(model, batch)
                if total is not None:
                    if not np.isfinite(total.data).all():
                        raise FloatingPointError(
                            f"non-finite loss at step {step}: "
                            f"coarse={coarse_l.data if coarse_l is not None else None}")
                    t_backward = time.perf_counter()
                    grads = backward(total, tape)
                    backward_s = time.perf_counter() - t_backward
            result.steps_run = step
            if total is None:   # no ground-truth cell: no update, but validate as planned
                result.skipped_batches += 1
            else:
                opt.step(grads)
                step_s = time.perf_counter() - t_step
                loss_val = float(total.data)
                result.losses.append(loss_val)
                entry = {"step": step, "loss": loss_val,
                         "coarse": float(coarse_l.data),
                         "fine": (float(fine_l.data) if fine_l is not None else None),
                         "assigned": stats["assigned"],
                         "coarse_correct": stats["coarse_correct"]}
                if step % log_every == 0 or step == 1:
                    sq = sum(np.sum(np.square(g, dtype=np.float64)) for g in grads.values())
                    entry.update(step_s=step_s, backward_s=backward_s,
                                 grad_norm=float(np.sqrt(sq)),
                                 untracked=[param_names[id(p)] for p in tape.untracked])
                    log_f.write(json.dumps(entry) + "\n")
                    log_f.flush()
                    if progress:
                        progress(entry)
            del tape   # its record holds the step's activations; validation needs none

            if step % tcfg.val_interval == 0 or step == tcfg.steps:
                report = evaluate_pairs(model, val_seqs, config)
                val = report.auc_at(10.0, "all")
                result.val_history.append((step, val))
                log_f.write(json.dumps({"step": step, "val_auc10": val}) + "\n")
                log_f.flush()
                if progress:
                    progress({"step": step, "val_auc10": val})
                if val > result.best_val:
                    result.best_val = val
                    path = os.path.join(out_dir, f"ckpt_step{step:06d}.rmckpt")
                    save_model(path, model)
                    kept.append((val, path))
                    kept.sort(key=lambda kv: -kv[0])
                    for _, old in kept[KEEP_TOP:]:
                        os.remove(old)
                    kept = kept[:KEEP_TOP]
                    result.best_checkpoint = kept[0][1]
        final_path = os.path.join(out_dir, "model_final.rmckpt")
        save_model(final_path, model)
        if not result.best_checkpoint:
            result.best_checkpoint = final_path
        log_f.write(json.dumps({"wall_clock_s": time.time() - t0,
                                "skipped_batches": result.skipped_batches}) + "\n")
    finally:
        log_f.close()
    return result, model
