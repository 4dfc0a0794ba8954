"""The benchmark's four training workloads.

A run repeats whole rounds until ``--seconds`` have passed; every round does
the same fixed work, so the figures are medians over identical rounds. A
round is what a user of ``auglocal train`` waits for:

- set-up: data generation, network validation, auxiliary planning and
  learner construction;
- training: a fixed number of epochs (tinynet8) or steps (resnet32);
- evaluation of the primary model on the held-out set, aux heads unused;
- a checkpoint save and load.

After the rounds, and outside every timed figure, a separate pass measures
peak traced allocation during training, and the checks run.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
from auglocal import analysis, auxbuild, data, netspec, pipeline, trainer

CLASSES = 10
SEPARATION = 5.0
TEST_SEED_OFFSET = 10_000
PIPELINE_THREADS = 2
MIN_SETUPS = 15


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    mode: str               # "local" | "bp"
    pipelined: bool
    d: int
    lr: float
    batch: int
    epochs: int             # epochs per round, for the epoch-based trainers
    steps: int              # steps per round when stepping directly; 0 = epoch-based
    n_train: int
    n_test: int
    eval_repeats: int       # evaluation passes per round; more spread the figure over time
    accuracy_margin: float | None   # allowed shortfall against nearest centroid
    check_batch: int        # batch for the conv2d and finite-difference checks


WORKLOADS = {w.name: w for w in (
    Workload("tinynet8-local", "tinynet8", "local", False, d=3, lr=0.5, batch=128,
             epochs=4, steps=0, n_train=1200, n_test=400, eval_repeats=40,
             accuracy_margin=0.1, check_batch=0),
    Workload("tinynet8-pipelined", "tinynet8", "local", True, d=3, lr=0.5, batch=128,
             epochs=4, steps=0, n_train=1200, n_test=400, eval_repeats=40,
             accuracy_margin=0.1, check_batch=0),
    Workload("resnet32-local", "resnet32-cifar", "local", False, d=2, lr=0.05, batch=32,
             epochs=1, steps=1, n_train=32, n_test=32, eval_repeats=1,
             accuracy_margin=None, check_batch=4),
    Workload("resnet32-bp", "resnet32-cifar", "bp", False, d=2, lr=0.05, batch=32,
             epochs=1, steps=1, n_train=32, n_test=32, eval_repeats=1,
             accuracy_margin=None, check_batch=4),
)}


def tiny(w: Workload) -> Workload:
    """The same workload at a size that runs in seconds, for the benchmark's
    own tests. Too little training for the accuracy check, which is off."""
    if w.steps:
        return replace(w, batch=4, steps=1, n_train=4, n_test=8, eval_repeats=1,
                       check_batch=2)
    return replace(w, epochs=1, n_train=256, n_test=40, eval_repeats=1,
                   accuracy_margin=None)


@dataclass
class Setup:
    train: data.Dataset
    test: data.Dataset
    network: netspec.ValidatedNetwork
    plan: auxbuild.AuxPlan | None
    config: trainer.TrainConfig
    learner: trainer.LocalLearner


def _gen(shape, n: int, seed: int) -> data.Dataset:
    ds = data.gen_synthetic(CLASSES, shape, math.ceil(n / CLASSES), seed=seed,
                            separation=SEPARATION)
    return data.Dataset(ds.images[:n], ds.labels[:n])


def setup(w: Workload, seed: int) -> Setup:
    network = netspec.validate(netspec.preset(w.preset))
    shape = network.spec.input_shape
    train_ds = _gen(shape, w.n_train, seed)
    test_ds = _gen(shape, w.n_test, seed + TEST_SEED_OFFSET)
    plan = auxbuild.plan_all(network, d=w.d) if w.mode == "local" else None
    config = trainer.TrainConfig(mode=w.mode, d=w.d, lr=w.lr, epochs=w.epochs,
                                 batch_size=w.batch, seed=seed)
    learner = trainer.LocalLearner(network, config, plan=plan)
    return Setup(train_ds, test_ds, network, plan, config, learner)


def train_steps(w: Workload) -> int:
    """Training batches in one round."""
    return w.steps or w.epochs * math.ceil(w.n_train / w.batch)


def train(w: Workload, s: Setup) -> tuple[trainer.LocalLearner, list[float], list[float]]:
    """One round's training; returns the trained learner, the losses the
    trainer reported and, when the benchmark steps the trainer itself, the
    wall time of each step. Functions are looked up on their modules at
    call time so the traced run sees them wrapped."""
    xs, ys = s.train.images, s.train.labels
    if not w.steps:
        if w.pipelined:
            # The pipelined trainer's history carries no losses.
            learner, _ = pipeline.run_pipelined_training(
                s.network, s.config, (xs, ys), plan=s.plan, threads=PIPELINE_THREADS)
            return learner, [], []
        learner, history = trainer.train(s.network, s.config, (xs, ys), plan=s.plan)
        return learner, [row["loss"] for row in history], []
    losses, step_s = [], []
    for i in range(w.steps):
        xb, yb = xs[i * w.batch:(i + 1) * w.batch], ys[i * w.batch:(i + 1) * w.batch]
        lr = trainer.cosine_lr(w.lr, i, w.steps)
        t0 = time.perf_counter()
        if w.mode == "local":
            out = trainer.local_train_step(s.learner, xb, yb, lr)
            losses.extend(out["local_losses"] + [out["global_loss"]])
        else:
            losses.append(trainer.bp_train_step(s.learner, xb, yb, lr))
        step_s.append(time.perf_counter() - t0)
    return s.learner, losses, step_s


class Phases:
    """Wall time of named phases; with a tracer, each phase is also a
    ``bench.<name>`` span that the wrapped calls inside it nest under."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        ctx = self.tracer.span(f"bench.{name}") if self.tracer else nullcontext()
        with ctx:
            t0 = time.perf_counter()
            yield
            self.times[name] = time.perf_counter() - t0


@dataclass
class Round:
    times: dict[str, float]
    step_s: list[float]         # per training step, when the benchmark steps the trainer
    eval_s: list[float]         # per evaluation pass
    setup: Setup
    learner: trainer.LocalLearner
    restored: trainer.LocalLearner
    losses: list[float]
    accuracy: float
    checkpoint_bytes: int


def run_round(w: Workload, seed: int, out_dir: Path, tracer=None) -> Round:
    ph = Phases(tracer)
    with ph("setup"):
        s = setup(w, seed)
    with ph("train"):
        learner, losses, step_s = train(w, s)
    eval_s = []
    with ph("eval"):
        for _ in range(w.eval_repeats):
            t0 = time.perf_counter()
            acc = trainer.evaluate(learner.model, s.test.images, s.test.labels)
            eval_s.append(time.perf_counter() - t0)
    # The learner the checkpoint is loaded into starts from other weights,
    # so the round trip has to restore every array.
    restored = trainer.LocalLearner(s.network, replace(s.config, seed=seed + 1), plan=s.plan)
    path = out_dir / f"checkpoint-{w.name}-{seed}.bin"
    with ph("ckpt"):
        trainer.save_checkpoint(path, learner)
        trainer.load_checkpoint(path, restored)
    size = path.stat().st_size
    path.unlink()
    return Round(ph.times, step_s, eval_s, s, learner, restored, losses, acc, size)


def extra_setups(w: Workload, seed: int, count: int, tracer=None) -> list[float]:
    times = []
    for _ in range(count):
        ph = Phases(tracer)
        with ph("setup"):
            setup(w, seed)
        times.append(ph.times["setup"])
    return times


def measure_peak_mb(w: Workload, s: Setup) -> float:
    """Highest traced allocation while a learner is built and trained on
    one batch (two for the epoch-based trainers, so batches cross stages).
    The pipelined peak depends on how the worker threads interleave, so
    that pass runs three times and the highest peak counts."""
    peaks = []
    for _ in range(3 if w.pipelined else 1):
        tracemalloc.start()
        try:
            _memory_pass(w, s)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    return max(peaks)


def _memory_pass(w: Workload, s: Setup) -> None:
    if w.steps:
        learner = trainer.LocalLearner(s.network, s.config, plan=s.plan)
        step = trainer.local_train_step if w.mode == "local" else trainer.bp_train_step
        step(learner, s.train.images[:w.batch], s.train.labels[:w.batch], w.lr)
        return
    n = 2 * w.batch
    subset = (s.train.images[:n], s.train.labels[:n])
    cfg = replace(s.config, epochs=1)
    if w.pipelined:
        pipeline.run_pipelined_training(s.network, cfg, subset, plan=s.plan,
                                        threads=PIPELINE_THREADS)
    else:
        trainer.train(s.network, cfg, subset, plan=s.plan)


def run_checks(w: Workload, seed: int, rounds: list[Round]) -> list[str]:
    last = rounds[-1]
    s = last.setup
    errors = checks.check_finite(last.losses, "training losses")
    errors += checks.check_checkpoint(last.learner, last.restored, s.test.images[:16])
    first = checks.learner_arrays(rounds[0].learner)
    for r in rounds[1:]:
        errors += checks.bitwise_diff(first, checks.learner_arrays(r.learner),
                                      "rounds on one seed")
    if w.accuracy_margin is not None:
        ncc = checks.nearest_centroid_accuracy(s.train.images, s.train.labels,
                                               s.test.images, s.test.labels)
        errors += checks.check_accuracy(last.accuracy, ncc, w.accuracy_margin)
    rng = np.random.default_rng(seed)
    if w.steps:
        errors += checks.check_conv2d(s.network, w.check_batch, rng)
        fresh = trainer.LocalLearner(s.network, s.config, plan=s.plan)
        errors += checks.check_finite_differences(
            fresh, s.train.images[:w.check_batch], s.train.labels[:w.check_batch], rng)
    elif w.pipelined:
        n = 2 * w.batch
        errors += checks.check_trainers_agree(
            s.network, replace(s.config, epochs=2), s.plan,
            (s.train.images[:n], s.train.labels[:n]))
    return errors


def static_figures(w: Workload, s: Setup) -> dict[str, float]:
    """Counts the program computes from the network and plan: MACs per
    example, and the analytical peak memory at the workload's mode and
    batch with 8-byte elements."""
    return {
        "netspec.primary_mmac_per_sample": netspec.count_flops(s.network) / 1e6,
        "auxbuild.aux_mmac_per_sample": s.plan.aux_flops() / 1e6 if s.plan else 0.0,
        "analysis.mem_model_mb": analysis.peak_memory(s.network, w.mode, w.batch,
                                                      element_bytes=8, plan=s.plan) / 1e6,
    }
