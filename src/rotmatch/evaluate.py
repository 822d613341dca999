"""Evaluation pipeline producing the benchmark table layout, match
visualization, and the equivariance-check suites.
"""

import io
import os
import time
from dataclasses import dataclass

import numpy as np

from .datasets import load_manifest, parse_modification, splitmix64
from .geometry import (EstimationFailure, MetricsReport, PairStats, corner_error, mma,
                       ransac_homography)
from .imageio import write_ppm
from .matcher import write_match_file
from .tensor import Tensor

MAX_MATCHES = 1000    # most confident matches kept for scoring and drawing


@dataclass
class EvalRun:
    checkpoint_id: str
    dataset_id: str
    modification: str
    report: MetricsReport
    wall_clock_s: float
    config_hash: str


def top_matches(matches):
    """The MAX_MATCHES most confident matches, most confident first."""
    return sorted(matches, key=lambda m: -m.confidence)[:MAX_MATCHES]


def evaluate_pairs(model, sequences, config):
    """Run the full matching + homography pipeline over sequence pairs.
    The model's `match_pair` runs in eval mode and restores the mode it
    found, so the model is left as it was. Each pair's `PairStats` (match
    and window counts, RANSAC iterations, failure reason) is kept on the
    report."""
    ecfg = config.eval
    report = MetricsReport(thresholds=tuple(float(t) for t in ecfg.thresholds))
    tasks = []
    for seq in sequences:
        for k, img_a, img_b, hom in seq.pairs():
            tasks.append((f"{seq.name}/{k + 2}", seq.split, img_a, img_b, hom))

    for pair_index, (pair_id, split, img_a, img_b, hom) in enumerate(tasks):
        mset, matches, dropped = model.match_pair(img_a, img_b)
        stats = PairStats(coarse_matches=len(mset), fine_windows=len(matches),
                          fine_dropped=dropped)
        matches = top_matches(matches)
        h, w = img_a.shape[1:]
        h_est = None
        if len(matches) < 4:
            stats.failure = "too_few_matches"
        else:
            pa = np.array([m.point_a for m in matches])
            pb = np.array([m.point_b for m in matches])
            try:
                h_est, _, stats.ransac_iterations = ransac_homography(
                    pa, pb, seed=splitmix64(0, pair_index))
            except EstimationFailure as e:
                stats.failure, stats.ransac_iterations = "estimation_failure", e.iterations
            except ValueError:
                stats.failure = "value_error"
        err = corner_error(hom, h_est, w, h)
        failed = stats.failure is not None
        if failed:
            frac = {float(t): 0.0 for t in ecfg.thresholds}
        else:
            frac = mma(matches, hom, thresholds=ecfg.thresholds)
        report.add_pair(pair_id, split, err, frac, failed=failed, stats=stats)
    return report


def evaluate(model, dataset_root, modification, config, checkpoint_id="fresh"):
    """Evaluate a model on a dataset with an optional modification
    (none | r<angle> | h<scale>); returns an EvalRun."""
    t0 = time.time()
    parse_modification(modification)   # a bad spec fails before any work
    manifest = load_manifest(dataset_root)
    sequences = [manifest.load(name, modification) for name in manifest.sequence_names()]
    report = evaluate_pairs(model, sequences, config)
    mod_tag = modification if modification not in (None, "") else "none"
    dataset_id = f"{os.path.basename(os.path.normpath(dataset_root))}-{mod_tag}"
    return EvalRun(checkpoint_id=checkpoint_id, dataset_id=dataset_id,
                   modification=mod_tag, report=report,
                   wall_clock_s=time.time() - t0, config_hash=config.hash())


# ---------------------------------------------------------------------------
# reports


CSV_HEADER = "dataset,variant,split,metric,threshold,value"


def report_csv(run, variant):
    """Deterministic CSV bytes for an EvalRun."""
    lines = [CSV_HEADER]
    for dataset, var, split, metric, t, value in run.report.rows(run.dataset_id, variant):
        lines.append(f"{dataset},{var},{split},{metric},{t:g},{value:.6f}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_csv(data):
    rows = []
    lines = data.decode("utf-8").strip().splitlines()
    if lines and lines[0] == CSV_HEADER:
        lines = lines[1:]
    for line in lines:
        dataset, variant, split, metric, t, value = line.split(",")
        rows.append((dataset, variant, split, metric, float(t), float(value)))
    return rows


def render_table(rows):
    """Aligned text table mirroring the benchmark layout: per dataset, one
    row per variant with All / Illumination / Viewpoint x @3/@5/@10 columns
    for corner-error AUC and MMA."""
    splits = ["all", "illumination", "viewpoint", "synthetic"]
    present_splits = [s for s in splits
                      if any(r[2] == s for r in rows)]
    thresholds = sorted({r[4] for r in rows})
    datasets = sorted({r[0] for r in rows})
    variants = sorted({r[1] for r in rows})
    value = {(d, v, s, m, t): val for d, v, s, m, t, val in rows}

    out = io.StringIO()
    for metric, title in (("auc", "Corner error AUC (%)"), ("mma", "MMA (%)")):
        out.write(title + "\n")
        header = f"{'':24s}"
        for s in present_splits:
            header += f"{s:^{8 * len(thresholds)}s}"
        out.write(header + "\n")
        sub = f"{'':24s}"
        for _ in present_splits:
            for t in thresholds:
                sub += f"{'@' + format(t, 'g') + 'px':>8s}"
        out.write(sub + "\n")
        for d in datasets:
            out.write(d + "\n")
            for v in variants:
                if not any(r[0] == d and r[1] == v for r in rows):
                    continue
                line = f"  {v:22s}"
                for s in present_splits:
                    for t in thresholds:
                        val = value.get((d, v, s, metric, t))
                        line += f"{val:8.1f}" if val is not None else f"{'-':>8s}"
                out.write(line + "\n")
        out.write("\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# match visualization


def _draw_line(canvas, x0, y0, x1, y1, color):
    """Bresenham line on a [3, h, w] float canvas."""
    h, w = canvas.shape[1:]
    x0, y0, x1, y1 = int(round(x0)), int(round(y0)), int(round(x1)), int(round(y1))
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        if 0 <= y0 < h and 0 <= x0 < w:
            canvas[:, y0, x0] = color
        if x0 == x1 and y0 == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


GREEN = np.array([0.1, 0.9, 0.1], dtype=np.float32)
RED = np.array([0.9, 0.1, 0.1], dtype=np.float32)
GRAY = np.array([0.6, 0.6, 0.6], dtype=np.float32)


def match_overlay(img_a, img_b, matches, h_gt=None, threshold_px=10.0):
    """Side-by-side overlay; lines green when the reprojection error is under
    the threshold (given ground truth), red otherwise, gray without GT."""
    ha, wa = img_a.shape[1:]
    hb, wb = img_b.shape[1:]
    canvas = np.zeros((3, max(ha, hb), wa + wb), dtype=np.float32)
    canvas[:, :ha, :wa] = img_a
    canvas[:, :hb, wa:wa + wb] = img_b
    for m in matches:
        if h_gt is None:
            color = GRAY
        else:
            proj = h_gt.apply(np.array(m.point_a))
            err = float(np.hypot(proj[0] - m.point_b[0], proj[1] - m.point_b[1]))
            color = GREEN if err < threshold_px else RED
        _draw_line(canvas, m.point_a[0], m.point_a[1],
                   m.point_b[0] + wa, m.point_b[1], color)
    return canvas


def match_images(model, img_a, img_b, h_gt=None, out_prefix="match"):
    """Match two images; writes `<prefix>.matches.txt` and `<prefix>.ppm`."""
    _, matches, _ = model.match_pair(img_a, img_b)
    matches = top_matches(matches)
    write_match_file(out_prefix + ".matches.txt", matches)
    canvas = match_overlay(img_a, img_b, matches, h_gt=h_gt)
    write_ppm(out_prefix + ".ppm", canvas)
    return matches


# ---------------------------------------------------------------------------
# equivariance checks


def _smooth_disc_image(rng, h, fmax=0.02):
    ys, xs = np.mgrid[0:h, 0:h].astype(np.float64)
    img = np.zeros((3, h, h))
    for c in range(3):
        for _ in range(8):
            fx, fy = rng.uniform(0.004, fmax, size=2)
            ph = rng.uniform(0, 2 * np.pi)
            img[c] += np.sin(2 * np.pi * (fx * xs + fy * ys) + ph)
    img -= img.min()
    img /= img.max()
    r = np.sqrt((ys - h / 2 + 0.5) ** 2 + (xs - h / 2 + 0.5) ** 2)
    taper = np.clip((0.46 * h - r) / (0.10 * h), 0.0, 1.0)
    return (img * taper[None]).astype(np.float32)


def _layer_suite(order, trials, rng):
    """Randomized equivariance trials per layer kind; returns dict of worst
    absolute deviations for grid-exact elements."""
    from .groups import CyclicGroup, FieldType, act_on_field
    from .steerable import EquivConv, InnerBatchNorm

    grp = CyclicGroup(order)
    worst = {}
    for kind in ("lift", "group", "readout", "norm"):
        dev = 0.0
        for _ in range(trials):
            h = int(rng.integers(3, 8)) * 2
            exact_elems = [k for k in range(order) if (360 * k / order) % 90 == 0]
            g = grp.element(int(rng.choice(exact_elems)))
            if kind == "lift":
                in_t, out_t = FieldType.trivial(grp, 2), FieldType.regular(grp, 2)
                layer = EquivConv(in_t, out_t, 3, rng=rng)
            elif kind == "group":
                in_t = out_t = FieldType.regular(grp, 2)
                layer = EquivConv(in_t, out_t, 3, rng=rng)
            elif kind == "readout":
                in_t, out_t = FieldType.regular(grp, 2), FieldType.trivial(grp, 3)
                layer = EquivConv(in_t, out_t, 1, rng=rng)
            else:
                in_t = out_t = FieldType.regular(grp, 2)
                layer = InnerBatchNorm(in_t)
                layer.scale.data[:] = rng.normal(1.0, 0.3, size=2).astype(np.float32)
                layer.shift.data[:] = rng.normal(size=2).astype(np.float32)
            x = Tensor(rng.normal(size=(1, in_t.channel_count, h, h)).astype(np.float32))
            lhs = act_on_field(g, layer(x).data[0], out_t, mode="exact")
            rhs = layer(Tensor(act_on_field(g, x.data[0], in_t, mode="exact").data[None]))
            dev = max(dev, float(np.abs(lhs.data - rhs.data[0]).max()))
        worst[kind] = dev
    return worst


def _c8_45_layer_suite(rng):
    """45-degree layer deviations on smooth inputs (relative, interior)."""
    from .groups import CyclicGroup, FieldType, act_on_field
    from .steerable import EquivConv

    grp = CyclicGroup(8)
    g45 = grp.element(1)
    out = {}
    for kind in ("lift", "group"):
        if kind == "lift":
            in_t, out_t = FieldType.trivial(grp, 2), FieldType.regular(grp, 2)
        else:
            in_t, out_t = FieldType.regular(grp, 2), FieldType.regular(grp, 2)
        layer = EquivConv(in_t, out_t, 3, rng=rng)
        h = 48
        base = _smooth_disc_image(rng, h, fmax=0.04)
        reps = int(np.ceil(in_t.channel_count / 3))
        x = np.concatenate([base] * reps)[:in_t.channel_count]
        lhs = act_on_field(g45, layer(Tensor(x[None])).data[0], out_t, mode="bilinear")
        rhs = layer(Tensor(act_on_field(g45, x, in_t, mode="bilinear").data[None])).data[0]
        m = h // 4
        a = lhs.data[:, m:-m, m:-m]
        b = rhs[:, m:-m, m:-m]
        out[kind] = float(np.sqrt(((a - b) ** 2).mean()) / np.sqrt((a ** 2).mean()))
    return out


def backbone_invariance_deviation(model, angle, h=128, seed=0):
    """Interior relative deviation of coarse/fine features under an input
    rotation (exact path for multiples of 90 degrees). Runs the model in
    eval mode and leaves it unchanged."""
    from .backbone import extract
    from .groups import CyclicGroup, rotate_image

    img = _smooth_disc_image(np.random.default_rng(seed), h)
    if angle % 90 == 0:
        grp = CyclicGroup(4)
        g = grp.element(int(angle // 90) % 4)
        mode = "exact"
    else:
        grp = CyclicGroup(8)
        g = grp.element(int(round(angle / 45.0)) % 8)
        mode = "bilinear"
    p0 = extract(model, img)
    p1 = extract(model, rotate_image(img, g, mode=mode).data)
    devs = {}
    for name, f0, f1 in (("coarse", p0.coarse.data, p1.coarse.data),
                         ("fine", p0.fine.data, p1.fine.data)):
        ref = rotate_image(f0, g, mode=mode).data
        m = max(1, ref.shape[-1] // 8 if mode == "exact" else ref.shape[-1] // 4)
        a = f1[:, m:-m, m:-m]
        b = ref[:, m:-m, m:-m]
        devs[name] = float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-9))
    return devs


def equivariance_check(variant, backbone=None, trials=100, seed=0):
    """Layer-level and backbone-level invariance suites for a variant.

    Returns (passed, lines): per-test deviations against their thresholds.
    Failures are reported, not raised; the plain variant is expected to fail
    the backbone invariance test (negative control). A given backbone is
    measured as it is; without one, a fresh backbone is built and its norm
    statistics calibrated first.
    """
    from .backbone import VARIANTS, Backbone, BackboneConfig
    from .steerable import calibrate_norm_stats

    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    order = VARIANTS[variant][0]
    if order >= 4 and trials < 1:
        raise ValueError(f"equivariance check of {variant} needs at least one trial, "
                         f"got {trials}")
    rng = np.random.default_rng(seed)
    lines = []
    passed = True

    def check(name, value, limit):
        nonlocal passed
        ok = value <= limit
        passed_str = "PASS" if ok else "FAIL"
        lines.append(f"[{passed_str}] {name}: {value:.3e} (limit <= {limit:g})")
        if not ok:
            passed = False

    if order >= 4:
        worst = _layer_suite(order, trials, rng)
        for kind, dev in worst.items():
            check(f"C{order} exact layer equivariance ({kind}, {trials} trials)",
                  dev, 1e-5)
    if order == 8:
        for kind, dev in _c8_45_layer_suite(rng).items():
            check(f"C8 45deg layer equivariance ({kind}, smooth input)", dev, 0.1)

    if backbone is None:
        backbone = Backbone(BackboneConfig(variant=variant), rng=np.random.default_rng(seed))
        img = _smooth_disc_image(np.random.default_rng(seed), 128)
        calibrate_norm_stats(backbone, Tensor(img[None]))
    devs = backbone_invariance_deviation(backbone, 90, seed=seed)
    if order >= 4:
        check("backbone 90deg invariance (coarse)", devs["coarse"], 1e-3)
        check("backbone 90deg invariance (fine)", devs["fine"], 1e-3)
    else:
        # negative control: the non-equivariant baseline is expected to FAIL
        check("backbone 90deg invariance (coarse; negative control)",
              devs["coarse"], 0.05)
    if order == 8:
        devs45 = backbone_invariance_deviation(backbone, 45, seed=seed)
        lines.append(f"[INFO] backbone 45deg deviation (interpolation-limited): "
                     f"coarse {devs45['coarse']:.3f}, fine {devs45['fine']:.3f}")
    return passed, lines
