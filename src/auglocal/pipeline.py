"""Layer-parallel execution: analytical training-time model and
discrete-event pipeline simulator, both of an idealised schedule.

The analytical model assumes every layer has the same forward time t_f and
backward time t_b and every auxiliary head the same depth d. With one
worker per local layer, a layer hands its activation downstream after t_f
and overlaps the rest of its local work (aux forward + backward, d+1
trainable layers in total) with its successors, so N iterations cost
t_f * L + (d + 1) * (t_f + t_b) * N against (L + 1) * (t_f + t_b) * N for
end-to-end backprop. Training itself is ``trainer.train``: its workers
pass a stage's output on only after the stage's backward pass and optimizer
step (``trainer.layer_step``), so neither model here predicts its time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from . import trainer


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
                raise ConfigError(f"{name} must be finite and above 0 s, got {value}")
        if not 0.0 <= self.time_jitter < 1.0:
            raise ConfigError(f"time_jitter must lie in [0, 1), got {self.time_jitter}")
        # every simulated time, at most (L + N (d + 1)) (t_f + t_b) (1 + jitter),
        # must be finite; the counts are compared exactly, as an int too
        # large for a float cannot enter a product, and a Python float
        # quotient overflows to inf where a numpy one would warn
        if not (self.num_layers + self.iterations * (self.d + 1)
                <= sys.float_info.max / float((self.t_f + self.t_b) * (1 + self.time_jitter))):
            raise ConfigError("(L + N (d + 1)) (t_f + t_b) overflows the simulator's clock")
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")


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
    (depth + 1) * (t_f + t_b). Timestamps are float seconds: the schedule
    takes only maxima and sums of them, so no ordering decision rests on a
    tie.
    """
    L, N = cfg.num_layers, cfg.iterations
    num_workers = L + 1
    rng = np.random.default_rng(cfg.seed)
    jitter = cfg.time_jitter

    def jittered(base: float) -> float:
        if jitter:
            base = base * rng.uniform(1.0 - jitter, 1.0 + jitter)
        return base

    free = [0.0] * num_workers
    busy = [0.0] * num_workers
    for _ in range(N):
        avail = 0.0                     # when the predecessor emits this iteration
        for w in range(num_workers):
            tf = jittered(cfg.t_f)
            tb_total = jittered((cfg.d + 1) * (cfg.t_f + cfg.t_b)) - tf
            s = max(avail, free[w])
            avail = s + tf
            free[w] = s + tf + tb_total
            busy[w] += tf + tb_total
    makespan = max(free)
    util = [b / makespan if makespan else 0.0 for b in busy]
    return SimResult(makespan=makespan, utilization=util)


def run_pipelined_training(network, config, train_data, test_data=None, plan=None,
                           threads=None):
    """``trainer.train`` on ``threads`` workers, by default one per stage;
    kept under this name for the benchmark harness."""
    return trainer.train(network, config, train_data, test_data, plan,
                         workers=threads or network.num_units)
