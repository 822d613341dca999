"""rotmatch benchmark: one workload per run, timed or traced.

    python3 perfbench/run.py --workload match-480x640 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout (it imports `src/rotmatch`). With
`--trace 0` it measures the end-to-end metrics with no wrappers installed;
with `--trace 1` it wraps each layer from outside (see tracing.py) and
reports per-layer self time and counts, plus the tracing overhead against
untraced rounds of the same run. The last line of standard output is the
result as one JSON object; the line before it holds the details, which are
also written, with the environment, to perfbench/results/.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

from pace import REFERENCE_S, SpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {"setup_s": "s", "op_s_p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metrics: self seconds and call counts per span name, plus the
# counters the probes record.
LAYER_SECONDS = ("tensor.conv2d", "tensor.softmax", "tensor.matmul", "tensor.layer_norm",
                 "tensor.sparse_taps", "tensor.crop_windows", "tensor.bilinear_warp",
                 "tensor.backward", "steerable.conv", "steerable.filter_bank",
                 "steerable.norm", "backbone.forward", "matcher.transform",
                 "matcher.attention", "matcher.coarse", "matcher.fine", "geometry.ransac",
                 "geometry.dlt", "datasets.generate", "datasets.load", "datasets.modify",
                 "model.build", "model.match_pair", "evaluate.score", "train.loop",
                 "train.batch_loss", "train.adam", "train.validate", "train.checkpoint")
LAYER_CALLS = ("tensor.conv2d", "tensor.backward", "steerable.conv", "backbone.forward",
               "matcher.attention", "geometry.ransac", "geometry.dlt", "model.match_pair")
LAYER_COUNTS = {"tensor.conv2d_gflop": "GFLOP", "tensor.softmax_mb": "MB",
                "backbone.pixels": "count", "matcher.attention_score_mb": "MB",
                "matcher.coarse_tokens": "count", "matcher.coarse_matches": "count",
                "matcher.fine_windows": "count", "matcher.fine_dropped": "count"}


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = {f"{n}_s": "s" for n in LAYER_SECONDS}
    names.update({f"{n}_calls": "count" for n in LAYER_CALLS})
    names.update(LAYER_COUNTS)
    names.update({"geometry.ransac_failures": "count", "matcher.match_yield": "ratio",
                  "geometry.inlier_share": "ratio",
                  "evaluate.mma10": "%", "evaluate.auc10": "%",
                  "evaluate.est_fail_share": "ratio", "trace.other_s": "s",
                  "trace.spans": "count", "trace.overhead_share": "ratio"})
    return names


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """(percentile, value) for the highest whole percentile with at least ten
    samples above it (nearest rank), or None with too few samples."""
    s = sorted(values)
    n = len(s)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= 10:
            return p, s[rank - 1]
    return None


def layer_metrics(layers, counts, quality, overhead):
    def seconds(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    coarse = counts.get("matcher.coarse_matches", 0.0)
    matched = counts.get("geometry.ransac_matches", 0.0)
    values = {f"{n}_s": seconds(n) for n in LAYER_SECONDS}
    values.update({f"{n}_calls": calls(n) for n in LAYER_CALLS})
    values.update({n: counts.get(n, 0.0) for n in LAYER_COUNTS})
    values.update({
        # counters see only calls that returned; RANSAC failures raise
        "geometry.ransac_failures": calls("geometry.ransac")
                                    - counts.get("geometry.ransac_estimates", 0.0),
        "matcher.match_yield": counts.get("matcher.fine_matches", 0.0) / coarse if coarse else 0.0,
        "geometry.inlier_share": counts.get("geometry.ransac_inliers", 0.0) / matched if matched else 0.0,
        "evaluate.mma10": quality.get("mma10", 0.0),
        "evaluate.auc10": quality.get("auc10", 0.0),
        "evaluate.est_fail_share": quality.get("est_fail_share", 0.0),
        "trace.other_s": seconds("bench.setup") + seconds("bench.round"),
        "trace.spans": sum(row["calls"] for row in layers.values()),
        "trace.overhead_share": overhead,
    })
    units = per_layer_names()
    return {k: {"value": values[k], "unit": units[k]} for k in units}


# ---------------------------------------------------------------------------
# environment


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy older than 1.26 prints its config only
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "commit": git_commit(ROOT)}


def blas_threads():
    """Threads the bundled OpenBLAS will use, asked from the library itself."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit(root):
    """HEAD commit of the checkout, or None outside a git clone."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


# ---------------------------------------------------------------------------
# the run


def run(workload, seconds, trace):
    """Set up, check, measure rounds for `seconds`, and return (result, detail).

    A timed run samples the machine's speed throughout (see pace.py) and
    reports its times scaled to the reference speed; the details keep the
    raw times. A traced run takes no speed samples; it times one untraced
    round before and one after the traced ones, their median against the
    traced median is the tracing overhead, and the round after checks that
    no probe was left installed.
    """
    from tracing import Tracer, installed_probes

    tracer = Tracer() if trace else None
    with nullcontext() if tracer else SpeedSampler() as pace:
        setups = [_setup(workload, tracer) for _ in range(workload.setup_repeats)]
        checked = workload.check()
        untraced = [_timed_round(workload)] if tracer else []
        measured = []
        if tracer:
            tracer.install()
        t_start = time.perf_counter()
        try:
            # closed loop; stop before a round that would likely end past the deadline
            while not measured or (time.perf_counter() - t_start
                                   + statistics.median(t1 - t0 for t0, t1, _ in measured)
                                   <= seconds):
                with tracer.span("bench.round") if tracer else nullcontext():
                    measured.append(_timed_round(workload))
        finally:
            if tracer:
                tracer.uninstall()
        left = installed_probes()
        if tracer:
            untraced.append(_timed_round(workload))

    rounds = [r for *_, r in measured]
    every = rounds + [r for *_, r in untraced] + [checked]
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    errors = [e for r in every for e in r.errors]
    if left:
        attempted += 1
        failed += 1
        errors.append(f"probes left installed: {left}")
    ops = [op for r in rounds for op in r.op_spans]
    round_spans = [(t0, t1, 1) for t0, t1, _ in measured]
    untraced_spans = [(t0, t1, 1) for t0, t1, _ in untraced]
    units = sum(r.units for r in rounds)
    quality = workload.quality()
    detail = {"workload": workload.name, "rounds": len(rounds),
              "setup_s_all": durations(setups), "round_s": durations(round_spans),
              "ops": len(ops), "units": units, "errors": errors[:20], **quality,
              **workload.detail()}

    if tracer:
        layers, counts = tracer.summary()
        untraced_s = durations(untraced_spans)
        overhead = statistics.median(detail["round_s"]) / statistics.median(untraced_s) - 1.0
        metrics = layer_metrics(layers, counts, quality, overhead)
        detail.update(untraced_round_s=untraced_s, layers=layers,
                      counts=counts, spans=[s[:4] for s in tracer.spans])
    else:
        def values(scale):
            op_s = durations(ops, scale)
            return {"setup_s": statistics.median(durations(setups, scale)),
                    "op_s_p50": statistics.median(op_s) if op_s else 0.0,
                    "ops_per_s": statistics.median(
                        r.units / t for r, t in zip(rounds, durations(round_spans, scale)))}, op_s

        raw, _ = values(None)
        scaled, op_s = values(pace.scale)
        scaled["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail.update(raw=raw, speed={"samples": len(pace.seconds),
                                      "sample_s_p50": statistics.median(pace.seconds),
                                      "reference_s": REFERENCE_S})
        op_tail = tail(op_s)
        if op_tail:
            detail["op_s_tail"] = {"percentile": op_tail[0], "value": op_tail[1],
                                   "samples": len(op_s)}
        metrics = {k: {"value": scaled[k], "unit": END_TO_END[k]} for k in END_TO_END}
    result = {"correct": failed == 0 and bool(ops), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, detail


def durations(spans, scale=None):
    """Per-operation durations of (t0, t1, n) spans, (t1 - t0) / n, each
    multiplied by scale(t0, t1) when a scale is given."""
    return [(t1 - t0) / n * (scale(t0, t1) if scale else 1.0) for t0, t1, n in spans]


def _setup(workload, tracer):
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        with tracer.span("bench.setup") if tracer else nullcontext():
            workload.setup(tracer)
        return t0, time.perf_counter(), 1
    finally:
        if tracer:
            tracer.uninstall()


def _timed_round(workload):
    t0 = time.perf_counter()
    r = workload.round()
    return t0, time.perf_counter(), r


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rotmatch", "__init__.py")):
        print(f"no rotmatch sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads. A second OpenBLAS thread gained
    # nothing on any workload on a 2-vCPU machine, and with another process
    # busy it stalled train-64 rounds from 5 s to as much as 30 s.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        result, detail = run(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"env": environment(), "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "result": result, "detail": detail}
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=float)
    summary = {k: v for k, v in detail.items() if k not in ("layers", "counts", "spans")}
    print(json.dumps({"env": record["env"], "detail": summary}, default=float))
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
