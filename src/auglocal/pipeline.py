"""Layer-parallel execution: analytical training-time model, discrete-event
pipeline simulator, and a threaded pipelined training runner.

The analytical model assumes every layer has the same forward time t_f and
backward time t_b and every auxiliary head the same depth d. With one
worker per local layer, a layer hands its activation downstream after t_f
and overlaps the rest of its local work (aux forward + backward, d+1
trainable layers in total) with its successors, so N iterations cost
t_f * L + (d + 1) * (t_f + t_b) * N against (L + 1) * (t_f + t_b) * N for
end-to-end backprop.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .auxbuild import AuxPlan
from .errors import ConfigError, WorkerPanicPropagated
from .netspec import ValidatedNetwork
from . import trainer
from .trainer import LocalLearner, TrainConfig

_NANO = 10 ** 9


def predict_times(num_layers: int, d: int, t_f: float, t_b: float,
                  iterations: int) -> dict[str, float]:
    """Closed-form training times for BP and pipelined local training."""
    bp_time = (num_layers + 1) * (t_f + t_b) * iterations
    local_time = t_f * num_layers + (d + 1) * (t_f + t_b) * iterations
    return {"bp_time": bp_time, "auglocal_time": local_time,
            "ratio": local_time / bp_time}


@dataclass
class PipelineConfig:
    num_layers: int                  # L: hidden local layers, each with a worker
    d: int                           # max auxiliary depth
    t_f: float
    t_b: float
    iterations: int
    time_jitter: float = 0.0         # multiplicative uniform jitter half-width
    seed: int = 0

    def __post_init__(self):
        """The one check of simulator settings: a bad value raises
        ConfigError here, whether it came from a flag or code."""
        for name in ("num_layers", "d", "iterations"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("t_f", "t_b"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.time_jitter < 1.0:
            raise ConfigError(f"time_jitter must lie in [0, 1), got {self.time_jitter}")


@dataclass
class SimResult:
    makespan: float
    utilization: list[float]         # busy fraction per worker


def simulate_pipeline(cfg: PipelineConfig) -> SimResult:
    """Event-driven makespan of the layer-parallel schedule.

    Workers are the L hidden local layers plus the output stage (top unit
    + global classifier). A worker starts iteration n once its predecessor
    has emitted iteration n's activation and it is free; it emits after
    its forward (t_f) and stays busy for the full local cost
    (depth + 1) * (t_f + t_b). Timestamps are integer nanoseconds so event
    ordering never depends on float ties.
    """
    L, N = cfg.num_layers, cfg.iterations
    num_workers = L + 1
    rng = np.random.default_rng(cfg.seed)
    jitter = cfg.time_jitter

    def nanos(base: float) -> int:
        if jitter:
            base = base * rng.uniform(1.0 - jitter, 1.0 + jitter)
        return int(round(base * _NANO))

    free = [0] * num_workers
    busy = [0] * num_workers
    for _ in range(N):
        avail = 0                       # when the predecessor emits this iteration
        for w in range(num_workers):
            tf = nanos(cfg.t_f)
            tb_total = nanos((cfg.d + 1) * (cfg.t_f + cfg.t_b)) - tf
            s = max(avail, free[w])
            avail = s + tf
            free[w] = s + tf + tb_total
            busy[w] += tf + tb_total
    makespan = max(free)
    util = [b / makespan if makespan else 0.0 for b in busy]
    return SimResult(makespan=makespan / _NANO, utilization=util)


# ---------------------------------------------------------------------------
# threaded pipelined training
# ---------------------------------------------------------------------------

def _loss(future: Future) -> float:
    """The global loss a batch's last future returns. A worker's exception
    is re-raised as WorkerPanicPropagated; one raised in this thread while
    it waits propagates unchanged."""
    exc = future.exception()
    if exc is not None:
        raise WorkerPanicPropagated(f"worker failed: {exc!r}") from exc
    return future.result()


def run_pipelined_training(network: ValidatedNetwork, config: TrainConfig,
                           train_data: tuple[np.ndarray, np.ndarray],
                           test_data: tuple[np.ndarray, np.ndarray] | None = None,
                           plan: AuxPlan | None = None,
                           threads: int | None = None):
    """Training with stage-parallel workers.

    Each worker is a single-thread executor that owns a contiguous range
    of the learner's training stages and runs ``trainer.layer_step`` over
    it. A mini-batch is submitted as a chain of futures: worker k's item
    waits on worker k-1's, and each executor's FIFO keeps its batches in
    order. After submitting batch j the caller waits for batch
    j - (2w - 2)'s last future (w workers), so the first worker leads the
    last by at most 2w - 1 batches. bp mode has a single stage, so it runs
    as one worker. The epoch loop is ``trainer.run_epochs``, so the history
    matches ``trainer.train``. Parameters, statistics and optimizer state
    are bit-identical to the sequential trainer as well, because every
    stage sees the same inputs in the same order and owns its parameters
    exclusively.

    A worker's exception, ``SystemExit`` included, reaches the caller
    through its batch's last future and is re-raised as
    WorkerPanicPropagated; the remaining items are cancelled.
    """
    learner = LocalLearner(network, config, plan=plan)
    num_stages = len(learner.stages)
    n_threads = max(1, min(threads or num_stages, num_stages))
    # contiguous, near-equal partition of stages over threads
    bounds = np.linspace(1, num_stages + 1, n_threads + 1).astype(int).tolist()
    window = 2 * n_threads - 2

    def work(idx: int, item, lr: float):
        """Worker ``idx``'s stages on one batch. ``item`` is the batch for
        the first worker and the upstream worker's future for the others.
        Returns the range's output and labels, or the loss from the last."""
        h, y = item.result() if idx else item
        for stage in range(bounds[idx], bounds[idx + 1]):
            h, loss = trainer.layer_step(learner, stage, h, y, lr)
        return loss if idx == n_threads - 1 else (h, y)

    def run_epoch(batches, lr):
        workers = [ThreadPoolExecutor(max_workers=1) for _ in range(n_threads)]
        lasts: list[Future] = []
        try:
            for item in batches:
                for idx, worker in enumerate(workers):
                    item = worker.submit(work, idx, item, lr)
                lasts.append(item)
                if len(lasts) > window:
                    _loss(lasts[-1 - window])
            return [_loss(future) for future in lasts]
        finally:
            # upstream first, so no running item waits on a pending one
            for worker in workers:
                worker.shutdown(cancel_futures=True)

    return learner, trainer.run_epochs(learner, train_data, test_data, run_epoch)
