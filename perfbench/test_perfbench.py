"""Tests of the benchmark itself: every workload at a tiny size, traced and
untraced, must print a result of the documented shape that names exactly
the metrics BENCHMARK.json lists.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from auglocal import tensor  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    for v in result["metrics"].values():
        assert math.isfinite(v["value"]) and v["value"] >= 0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "tinynet8-local", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_times_backward_closures_and_restores_bindings():
    original = tensor.conv2d
    tracer = tracing.Tracer()
    tracer.install()
    try:
        x = tensor.Tensor(np.ones((1, 2, 4, 4)), requires_grad=True)
        w = tensor.Tensor(np.ones((3, 2, 3, 3)), requires_grad=True)
        with tensor.tape() as tp:
            loss = tensor.tensor_sum(tensor.conv2d(x, w))
        tensor.backward(tp, loss)
    finally:
        tracer.uninstall()
    assert tensor.conv2d is original
    by_name = {sp.name: sp for sp in tracer.spans}
    fwd, bwd, back = (by_name[n] for n in ("tensor.conv2d.fwd", "tensor.conv2d.bwd",
                                           "tensor.backward"))
    assert bwd.parent == back.id
    assert fwd.attrs["macs"] == 3 * 16 * 2 * 9
    assert bwd.attrs["macs"] == 2 * fwd.attrs["macs"]
