"""Benchmark of auglocal training: four workloads, end-to-end figures, and a
traced run that splits them by module.

Run from the repository root:

    python3 perfbench/run.py --workload tinynet8-local --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run is traced
and the metrics are the per-layer ones. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported: the load comes from this
# process alone, and at most two threads compute (the pipelined trainer's).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

END_TO_END = {
    "train_samples_per_s": "samples/s",
    "eval_samples_per_s": "samples/s",
    "peak_mem_mb": "MB",
    "setup_s": "s",
    "run_s": "s",
}


def import_program():
    """Import auglocal from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import auglocal
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import auglocal from {src}: {exc}")
    if Path(auglocal.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: auglocal was imported from {auglocal.__file__}, not {src}")


def run_workload(name: str, seed: int, seconds: float, traced: bool, size: str) -> dict:
    import tracing
    import workloads as W

    w = W.WORKLOADS[name]
    if size == "tiny":
        w = W.tiny(w)
    OUT_DIR.mkdir(exist_ok=True)
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()

    rounds = []
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(W.run_round(w, seed, OUT_DIR, tracer))
        setups = [r.times["setup"] for r in rounds]
        setups += W.extra_setups(w, seed, W.MIN_SETUPS - len(setups), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    s = rounds[-1].setup
    peak_mb = W.measure_peak_mb(w, s)
    errors = W.run_checks(w, seed, rounds)
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    steps = W.train_steps(w)
    if w.steps:
        train_rate = w.batch / statistics.median(t for r in rounds for t in r.step_s)
    else:
        train_rate = statistics.median(w.epochs * w.n_train / r.times["train"] for r in rounds)
    ops_per_round = steps + w.eval_repeats + 2   # steps, eval passes, save + load
    if tracer is None:
        metrics = {
            "train_samples_per_s": train_rate,
            "eval_samples_per_s": w.n_test / statistics.median(t for r in rounds
                                                               for t in r.eval_s),
            "peak_mem_mb": peak_mb,
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(sum(r.times[k] for k in ("setup", "train", "eval", "ckpt"))
                                       for r in rounds),
        }
        units = END_TO_END
    else:
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
        metrics = tracing.layer_metrics(tracer.spans, tracer.main_thread, steps * len(rounds))
        metrics.update(W.static_figures(w, s))
        metrics.update({
            "trainer.checkpoint_mb": rounds[-1].checkpoint_bytes / 1e6,
            "analysis.mem_measured_over_model": peak_mb / metrics["analysis.mem_model_mb"],
            "bench.traced_train_samples_per_s": train_rate,
        })
        units = tracing.PER_LAYER
    return {
        "correct": not errors,
        "attempted": ops_per_round * len(rounds),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    import workloads as W

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print_result(name, result)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            summary["metrics"][f"{name}/{k}"] = v
    print(json.dumps(summary))
    return 0


def print_result(name: str, result: dict) -> None:
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for k, v in result["metrics"].items():
        print(f"  {k:36s} {v['value']:14.6g} {v['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="tinynet8-local, tinynet8-pipelined, resnet32-local, resnet32-bp or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs each workload at a test size; see README")
    args = p.parse_args(argv)

    import_program()
    if args.workload == "all":
        return run_all(args)
    import workloads as W
    if args.workload not in W.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.size)
    print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
