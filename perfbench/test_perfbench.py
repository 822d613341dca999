"""Tests of the benchmark's own code: metric names, span self time, probe
installation and removal, and every workload at a tiny size.

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import signal
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pace   # noqa: E402
import run as bench   # noqa: E402
import tracing   # noqa: E402
import workloads   # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = {"match-480x640": workloads.MatchSpec(h=64, w=96, setup_repeats=2),
        "eval-96": workloads.EvalSpec(train_scenes=3, train_steps=3, test_scenes=1,
                                      test_size=64, mods=("none", "h0.15")),
        "train-64": workloads.TrainSpec(scenes=3, size=48, steps=3, setup_repeats=2)}


def test_metric_names_are_valid_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.END_TO_END
    assert layer == bench.per_layer_names()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name in list(e2e) + list(layer) + list(workloads.WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 9.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    tr.open("outer")          # 0
    tr.open("mid")            # 1
    tr.open("leaf")           # 2
    tr.close()                # 4: leaf 2 s
    tr.open("leaf")           # 5
    tr.close()                # 8: leaf 3 s
    tr.close()                # 9: mid 8 s, 3 s of it its own
    tr.close()                # 10: outer 10 s, 2 s of it its own
    layers, _ = tr.summary()
    assert layers["leaf"] == {"self_s": 5.0, "calls": 2}
    assert layers["mid"] == {"self_s": 3.0, "calls": 1}
    assert layers["outer"] == {"self_s": 2.0, "calls": 1}


def test_validation_inside_train_gets_its_own_name():
    tr = tracing.Tracer()
    with tr.span("train.loop"):
        with tr.span("evaluate.score"):
            pass
    with tr.span("evaluate.score"):
        pass
    assert [s[0] for s in tr.spans] == ["train.loop", "train.validate", "evaluate.score"]


def test_probes_cover_names_bound_by_import_and_are_removed():
    import rotmatch.evaluate
    import rotmatch.geometry
    import rotmatch.train
    originals = (rotmatch.evaluate.ransac_homography, rotmatch.train.backward,
                 rotmatch.geometry.dlt, rotmatch.matcher.MultiHeadAttention.__call__)
    tr = tracing.Tracer()
    tr.install()
    try:
        found = set(tracing.installed_probes())
        for name in ("rotmatch.evaluate.ransac_homography", "rotmatch.train.backward",
                     "rotmatch.geometry.dlt", "rotmatch.tensor.matmul", "rotmatch.nn.matmul",
                     "rotmatch.matcher.MultiHeadAttention.__call__"):
            assert name in found
        rng = np.random.default_rng(0)
        pa = rng.uniform(0, 50, size=(12, 2))
        rotmatch.evaluate.ransac_homography(pa, pa + 3.0, seed=0)
    finally:
        tr.uninstall()
    assert tracing.installed_probes() == []
    assert (rotmatch.evaluate.ransac_homography, rotmatch.train.backward,
            rotmatch.geometry.dlt, rotmatch.matcher.MultiHeadAttention.__call__) == originals
    layers, counts = tr.summary()
    # ransac calls dlt through the geometry module's global name
    assert layers["geometry.ransac"]["calls"] == 1
    assert layers["geometry.dlt"]["calls"] >= 2
    assert counts["geometry.ransac_inliers"] == 12


def test_dlt_is_counted_only_inside_geometry():
    import rotmatch.datasets

    tr = tracing.Tracer()
    tr.install()
    try:
        assert "rotmatch.datasets.dlt" not in tracing.installed_probes()
        rotmatch.datasets.make_synthetic_sequence("s", 32, 32, seed=1)
    finally:
        tr.uninstall()
    layers, _ = tr.summary()
    assert layers["datasets.generate"]["calls"] == 1
    assert "geometry.dlt" not in layers


def test_a_raising_call_keeps_its_exception_and_is_not_counted():
    import rotmatch.geometry

    tr = tracing.Tracer()
    tr.install()
    try:
        with pytest.raises(ValueError, match="at least 4 matches"):
            rotmatch.geometry.ransac_homography(np.zeros((2, 2)), np.zeros((2, 2)))
    finally:
        tr.uninstall()
    layers, counts = tr.summary()
    metrics = bench.layer_metrics(layers, counts, {}, 0.0)
    assert layers["geometry.ransac"]["calls"] == 1
    assert metrics["geometry.ransac_failures"]["value"] == 1


def test_failed_install_leaves_nothing_behind():
    bad = tracing.PROBES[:3] + (("x", "rotmatch.tensor", "no_such_op", None),)
    with pytest.raises(AttributeError):
        tracing.Tracer(probes=bad).install()
    assert tracing.installed_probes() == []


def test_speed_scale_uses_the_samples_of_the_interval():
    sampler = pace.SpeedSampler(min_samples=3)
    sampler.times = [float(t) for t in range(10)]
    sampler.seconds = [0.001] * 5 + [0.004] * 5
    ref = pace.REFERENCE_S
    assert sampler.scale(5.0, 9.0) == pytest.approx(ref / 0.004)
    assert sampler.scale(0.0, 3.0) == pytest.approx(ref / 0.001)
    # too few samples inside: the nearest three, also at either end
    assert sampler.scale(4.2, 4.4) == pytest.approx(ref / 0.001)   # samples 3, 4, 5
    assert sampler.scale(5.2, 5.4) == pytest.approx(ref / 0.004)   # samples 4, 5, 6
    assert sampler.scale(-2.0, -1.0) == pytest.approx(ref / 0.001)
    assert sampler.scale(20.0, 30.0) == pytest.approx(ref / 0.004)


def test_speed_sampler_samples_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with pace.SpeedSampler(interval=0.01) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    assert len(sampler.seconds) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.scale(t0, t0 + 0.3) > 0


def test_tail_needs_ten_samples_beyond():
    assert bench.tail(list(range(10))) is None
    p, v = bench.tail(list(range(1, 101)))
    assert (p, v) == (90, 90)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [3, 11])
def test_workload_runs_tiny(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](seed, str(tmp_path), spec=TINY[name])
    result, detail = bench.run(wl, 0.0, trace=False)
    assert result["correct"] and result["failed"] == 0, detail["errors"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # a second round repeats the first: same CSV bytes, same losses
    again = wl.round()
    assert again.failed == 0, again.errors


def test_checks_count_a_changed_result_as_failed(tmp_path):
    wl = workloads.EvalWorkload(3, str(tmp_path), spec=TINY["eval-96"])
    wl.setup(None)
    assert wl.round().failed == 0
    wl.csv["none"] += b"x"
    bad = wl.round()
    assert (bad.attempted, bad.failed) == (2, 1)

    wl = workloads.TrainWorkload(3, str(tmp_path), spec=TINY["train-64"])
    wl.setup(None)
    assert wl.round().failed == 0
    wl._losses = wl._losses + 1.0
    assert wl.round().failed == 1


def test_confidence_check():
    rng = np.random.default_rng(0)
    s = rng.normal(size=(6, 9))
    row = np.exp(s) / np.exp(s).sum(axis=1, keepdims=True)
    col = np.exp(s) / np.exp(s).sum(axis=0, keepdims=True)
    assert workloads.check_confidence(row * col) is None
    nan = row * col
    nan[2, 3] = np.nan
    assert "non-finite" in workloads.check_confidence(nan)
    assert "sums" in workloads.check_confidence(np.zeros((6, 9)))
    assert "sums" in workloads.check_confidence(np.full((4, 2), 0.5))   # columns sum to 2


def test_match_set_check():
    from rotmatch.matcher import CoarseMatchSet, FineMatch

    def mset(n):
        return CoarseMatchSet(idx_a=np.arange(n), idx_b=np.arange(n),
                              confidence=np.full(n, 0.5), grid_a=(8, 12), grid_b=(8, 12))

    inside = FineMatch(point_a=(4.0, 4.0), point_b=(90.0, 60.0), confidence=0.5)
    outside = FineMatch(point_a=(4.0, 4.0), point_b=(97.0, 60.0), confidence=0.5)
    assert workloads.check_match_set(mset(2), [inside], 1, 64, 96) is None
    assert "outside" in workloads.check_match_set(mset(1), [outside], 0, 64, 96)
    assert "dropped" in workloads.check_match_set(mset(2), [inside], 0, 64, 96)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_layers_and_removes_probes(name, tmp_path):
    wl = workloads.WORKLOADS[name](5, str(tmp_path), spec=TINY[name])
    result, detail = bench.run(wl, 0.0, trace=True)
    assert result["correct"], detail["errors"]
    assert tracing.installed_probes() == []
    metrics = result["metrics"]
    assert set(metrics) == set(bench.per_layer_names())
    for busy in ("tensor.conv2d_s", "steerable.conv_s", "backbone.forward_s",
                 "matcher.attention_s", "datasets.generate_s"):
        assert metrics[busy]["value"] > 0, busy
    if name == "train-64":
        assert metrics["tensor.backward_calls"]["value"] > 0
        assert metrics["train.adam_s"]["value"] > 0
    else:
        assert metrics["tensor.backward_calls"]["value"] == 0
    if name == "eval-96":
        assert metrics["datasets.modify_s"]["value"] > 0
        assert metrics["model.match_pair_calls"]["value"] > 0
        assert metrics["train.loop_s"]["value"] == 0   # set-up training is not traced
