"""Self-check of the benchmark harness on a tiny configuration (seconds).

Run from the repository root:  python3 -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import spans
from workloads import WORKLOADS, Identity, Op, write_polyline, write_series

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()
        time.sleep(0.005)

    tracer.wrap("outer", body)()
    selfs = tracer.self_times()
    (_, start, end, _, _), = [s for s in tracer.spans if s[0] == "outer"]
    children = sum(e - s for n, s, e, p, _ in tracer.spans if n == "inner")
    assert selfs["outer"][0] == pytest.approx(end - start - children)
    assert selfs["outer"][0] >= 0.0049   # its own sleep, not the children's
    assert [p for n, _, _, p, _ in tracer.spans if n == "inner"] == [0, 0]


def test_patches_reach_every_binding_and_restore(cli):
    import liouvol
    from liouvol import flow, mapping, meshing
    originals = (mapping.conformal_map_pair, meshing.welding,
                 liouvol.QuadratureGrid.__dict__["disk"])
    patches = spans.Patches(spans.Tracer())
    try:
        assert flow.conformal_map_pair is mapping.conformal_map_pair
        assert flow.conformal_map_pair is not originals[0]
        assert cli.conformal_map_pair is not originals[0]
        assert meshing.welding is not originals[1]
        assert liouvol.welding is meshing.welding
    finally:
        patches.restore()
    assert flow.conformal_map_pair is originals[0]
    assert cli.conformal_map_pair is originals[0]
    assert meshing.welding is originals[1]
    assert liouvol.QuadratureGrid.__dict__["disk"] is originals[2]


def tiny_ops(in_dir):
    coeffs = np.array([0, 1, 0.03 + 0.02j, -0.01j])
    series = write_series(in_dir / "s.json", coeffs)
    poly = write_polyline(in_dir / "p.json", coeffs)
    curves = [("circle", "circle", None, True), ("s", series, None, False),
              ("p", poly, "s", False)]
    return [Op(cmd, path, label, twin=twin, circle=circle)
            for label, path, twin, circle in curves
            for cmd in ("action", "grunsky")]


def test_tiny_action_batch_untraced_and_traced(cli, tmp_path):
    workload = WORKLOADS["action_batch"]
    ops = tiny_ops(tmp_path)
    ops.append(Op("action", str(tmp_path / "missing.json"), "missing"))
    main = cli.main
    tracer = spans.Tracer()
    rec, traced = run.run_passes(cli, workload, ops, tmp_path / "out",
                                 passes=1, tracer=tracer)
    assert cli.main is main
    for r in (rec, traced):
        assert [d.op for d in r.ops] == ops
        assert [d.outcome.error for d in r.ops] == [None] * 6 + ["InputError"]
        assert all(d.outcome.digits > 8 for d in r.ops
                   if d.op.command == "grunsky" and not d.op.circle)
        assert all(d.wall > 0 and d.cpu > 0 for d in r.ops)

    layer = spans.layer_metrics(tracer, len(traced.ops), 1.0)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layer)
    assert all(math.isfinite(m["value"]) for m in layer.values())
    for name in ("action.liouville_calls", "action.grunsky_calls",
                 "mapping.interior_calls", "mapping.exterior_calls",
                 "series.eval_calls", "series.eval_points",
                 "quadrature.grid_builds", "cli.bytes_written"):
        assert layer[name]["value"] > 0, name
    assert layer["volume.truncated_calls"]["value"] == 0

    metrics = run.end_to_end(rec, [1.0, 2.0, 3.0])
    assert metrics["setup_s"]["value"] == 2.0
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(metrics)
    summary = run.summarize([rec, traced], metrics)
    assert summary["correct"] and summary["attempted"] == 14
    assert summary["failed"] == 2
    named = run.named_metrics(workload, rec, ([1.5], [1.0]))
    assert named["setup_s"]["value"] == 1.0
    assert named["action_p50_ms"]["samples"] == 3
    assert named["curves_per_s"]["samples"] == 3


def test_numerical_failures_carry_their_type(cli, tmp_path):
    # verify-identity fails fast, in welding, when the map pair cannot be
    # matched on the boundary; a passing run is checked by the benchmark
    ops = [op for op in Identity().build(1, tmp_path) if op.label == "generic"]
    rec, _ = run.run_passes(cli, WORKLOADS["identity"], ops,
                            tmp_path / "out", passes=1)
    out = rec.ops[0].outcome
    if out.error is not None:
        assert out.error == "CorrespondenceError" and not out.wrong


def test_flow_counters(cli, tmp_path):
    ops = [Op("flow", "cubic", "cubic", extra=("--steps", "1"))]
    tracer = spans.Tracer()
    rec, traced = run.run_passes(cli, WORKLOADS["flow"], ops,
                                 tmp_path / "out", passes=1, tracer=tracer)
    for out in (rec.ops[0].outcome, traced.ops[0].outcome):
        assert out.error == "FlowThresholdNotReached" and not out.wrong
    layer = spans.layer_metrics(tracer, 1, 0.0)
    assert layer["flow.accepted"]["value"] == 1
    assert layer["flow.trials"]["value"] >= 1
    assert 0 < layer["flow.sup_norm_max"]["value"] <= 6
    assert layer["curves.polar_calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "action_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
