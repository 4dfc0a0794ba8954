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
        # times run on an integer-nanosecond grid: from 1e-6 s up, rounding
        # to it moves a time by at most 0.05%, and the longest span a worker
        # is busy must be a finite number of nanoseconds; d + 1 is compared
        # exactly, as an int too large for a float cannot enter a product
        for name in ("t_f", "t_b"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 1e-6):
                raise ConfigError(f"{name} must be finite and at least 1e-6 s, got {value}")
        if not 0.0 <= self.time_jitter < 1.0:
            raise ConfigError(f"time_jitter must lie in [0, 1), got {self.time_jitter}")
        if not self.d + 1 <= sys.float_info.max / ((self.t_f + self.t_b)
                                                   * (1 + self.time_jitter) * _NANO):
            raise ConfigError("(d + 1) * (t_f + t_b) overflows the simulator's nanosecond clock")
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


def run_pipelined_training(network, config, train_data, test_data=None, plan=None,
                           threads=None):
    """``trainer.train`` on ``threads`` workers, by default one per stage;
    kept under this name for the benchmark harness."""
    return trainer.train(network, config, train_data, test_data, plan,
                         workers=threads or network.num_units)
