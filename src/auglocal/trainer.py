"""Training loops: gradient-isolated local training, an end-to-end
backprop baseline, the SGD optimizer, and evaluation.

Training runs in stages (see ``stage_ranges``), each with its own head,
loss and optimizer, and no gradient crosses between stages. Local mode
makes every unit a stage and follows the simultaneous triggering
convention: for each mini-batch, every hidden layer in turn consumes the
detached activation of its predecessor, computes a cross-entropy loss
through its own auxiliary head, and updates only its own unit and head.
The top stage trains jointly with the global classifier; bp mode is one
stage spanning the network. Auxiliary heads are discarded at inference.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import time
import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .auxbuild import AuxPlan, check_head_settings, plan_all
from .errors import CheckpointError, ConfigError, PlanMismatch, WorkerPanicPropagated
from .netspec import ValidatedNetwork, emit_network_text
from .nn import AuxModel, PrimaryModel
from .tensor import Tensor, backward, softmax_cross_entropy, stop_gradient, tape


@dataclass
class TrainConfig:
    mode: str = "local"                 # "bp" | "local", see stage_ranges
    strategy: str = "uniform"
    d: int = 2
    d_min: int = 2
    tau: float = 0.5
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 20
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        """The one check of training settings: every bad value raises
        ConfigError here, whether it came from a file, a flag or code."""
        stage_ranges(1, self.mode)      # rejects an unknown mode
        check_head_settings(self.strategy, self.d, self.d_min, self.tau)
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        for name in ("momentum", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be non-negative and finite, got {value}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(f"epochs and batch_size must be at least 1, "
                              f"got {self.epochs} and {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def stage_ranges(num_units: int, mode: str) -> list[tuple[int, int]]:
    """The training stages of a network of ``num_units`` local units, as
    inclusive 1-based unit ranges ``(first, last)``: one stage per unit in
    local mode, one stage spanning the network in bp mode."""
    if mode == "local":
        return [(u, u) for u in range(1, num_units + 1)]
    if mode == "bp":
        return [(1, num_units)]
    raise ConfigError(f"unknown training mode {mode!r}; expected bp or local")


def cosine_lr(lr0: float, epoch: float, total_epochs: int) -> float:
    """Cosine annealing from lr0 down to 0 over the training run."""
    return lr0 * (1.0 + np.cos(np.pi * epoch / total_epochs)) / 2.0


class SGD:
    """SGD with Nesterov momentum and decoupled-by-name weight decay.

    Decay applies only to conv/dense weights (parameter names ending in
    ".w"), never to norm parameters or biases. Update per parameter:

        v <- mu * v + (g + wd * w)
        w <- w - lr * (g + wd * w + mu * v)
    """

    def __init__(self, params: dict[str, Tensor], momentum: float, weight_decay: float):
        self.params = dict(params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(t.data) for name, t in self.params.items()}

    def step(self, lr: float) -> None:
        mu, wd = self.momentum, self.weight_decay
        for name, t in self.params.items():
            if t.grad is None:
                continue
            g = t.grad
            if wd and name.endswith(".w"):
                g = g + wd * t.data
            v = self.velocity[name]
            v *= mu
            v += g
            t.data -= lr * (g + mu * v)

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()


class LocalLearner:
    """A primary model plus one optimizer per training stage and, when the
    network has hidden stages, one auxiliary head per hidden layer. Holds
    everything a training run mutates."""

    def __init__(self, network: ValidatedNetwork, config: TrainConfig,
                 plan: AuxPlan | None = None):
        self.network = network
        self.config = config
        self.model = PrimaryModel(network, seed=config.seed)
        self.stages = stage_ranges(network.num_units, config.mode)
        self.plan = None
        self.aux = []
        if len(self.stages) > 1:
            if plan is None:
                plan = plan_all(network, d=config.d, d_min=config.d_min,
                                tau=config.tau, strategy=config.strategy)
            if plan.network.spec != network.spec:
                raise PlanMismatch("auxiliary plan was built for a different network")
            if ((plan.strategy, plan.d, plan.d_min, plan.tau)
                    != (config.strategy, config.d, config.d_min, config.tau)):
                raise PlanMismatch("auxiliary plan was built with other head settings")
            self.plan = plan
            self.aux = [AuxModel(spec, seed=config.seed + 1000 + spec.layer)
                        for spec in plan.aux]
        self.layer_optimizers = []
        for first, last in self.stages:
            group = {n: self.model.params[n] for u in range(first, last + 1)
                     for n in self.model.unit_param_names(u)}
            if last < network.num_units:
                group.update(self.aux[last - 1].params.items())
            else:
                group.update((n, self.model.params[n])
                             for n in self.model.classifier_param_names())
            self.layer_optimizers.append(SGD(group, config.momentum, config.weight_decay))


def layer_step(learner: LocalLearner, stage: int, h: np.ndarray, y: np.ndarray,
               lr: float) -> tuple[np.ndarray, float]:
    """Train stage ``stage`` (1-based) on the detached input ``h``.

    The stage runs its units, then its head: a hidden stage trains through
    the auxiliary head of its last unit, the top stage jointly with the
    global classifier. One backward pass and one step of
    ``learner.layer_optimizers[stage - 1]`` follow. Returns the stage's
    output as a plain array, which carries no gradient path, and its loss.
    """
    model = learner.model
    first, last = learner.stages[stage - 1]
    opt = learner.layer_optimizers[stage - 1]
    opt.zero_grad()
    with tape() as tp:
        out = stop_gradient(Tensor(h))
        for unit in range(first, last + 1):
            out = model.forward_unit(unit, out, training=True)
        if last < model.num_units:
            logits = learner.aux[last - 1].forward(out, training=True)
        else:
            logits = model.classifier.forward(out)
        loss = softmax_cross_entropy(logits, y)
    backward(tp, loss)
    opt.step(lr)
    return out.data, loss.item()


def bp_train_step(learner: LocalLearner, x: np.ndarray, y: np.ndarray,
                  lr: float) -> float:
    """One end-to-end update of a bp learner: its single stage spans every
    parameter and trains from the global loss."""
    return layer_step(learner, 1, x, y, lr)[1]


def local_train_step(learner: LocalLearner, x: np.ndarray, y: np.ndarray,
                     lr: float) -> dict:
    """One pass of every training stage, in order, over a mini-batch.

    Returns the hidden stages' local losses and the global loss of the top
    stage + classifier.
    """
    h = x
    losses = []
    for stage in range(1, len(learner.stages) + 1):
        h, loss = layer_step(learner, stage, h, y, lr)
        losses.append(loss)
    return {"local_losses": losses[:-1], "global_loss": losses[-1]}


_EVAL_BATCH_SIZE = 256


def evaluate(model: PrimaryModel, x: np.ndarray, y: np.ndarray) -> float:
    """Top-1 accuracy, eval mode (running norm statistics, no tape)."""
    correct = 0
    for start in range(0, len(x), _EVAL_BATCH_SIZE):
        xb = x[start:start + _EVAL_BATCH_SIZE]
        yb = y[start:start + _EVAL_BATCH_SIZE]
        logits = model.forward_logits(Tensor(xb), training=False)
        correct += int((logits.data.argmax(axis=1) == yb).sum())
    return correct / len(x)


def epoch_batches(xs: np.ndarray, ys: np.ndarray, batch_size: int,
                  rng: np.random.Generator):
    """One epoch's mini-batches of ``(xs, ys)``, in the order of one
    ``rng.permutation`` draw."""
    order = rng.permutation(len(xs))
    for start in range(0, len(xs), batch_size):
        idx = order[start:start + batch_size]
        yield xs[idx], ys[idx]


def _loss(future: Future) -> float:
    """The global loss a batch's last future returns. A worker's exception
    is re-raised as WorkerPanicPropagated; one raised in this thread while
    it waits propagates unchanged."""
    exc = future.exception()
    if exc is not None:
        raise WorkerPanicPropagated(f"worker failed: {exc!r}") from exc
    return future.result()


def _pipelined_epoch(learner: LocalLearner, bounds: list[int], batches,
                     lr: float) -> list[float]:
    """One epoch over stage-parallel workers: worker k is a single-thread
    executor running stages ``bounds[k]`` to ``bounds[k + 1] - 1``, and a
    batch is a chain of futures, worker k's item waiting on worker k-1's.
    After submitting batch j the caller waits for batch j - (2w - 2)'s
    last future, so the first worker leads the last by at most 2w - 1
    batches. A worker's exception, ``SystemExit`` included, cancels the
    epoch and is re-raised as WorkerPanicPropagated. Returns each batch's
    global loss in order."""
    num_workers = len(bounds) - 1
    window = 2 * num_workers - 2

    def work(idx: int, item):
        """Worker ``idx``'s stages on a batch, or on the upstream worker's
        future; returns the output and labels, or the last worker's loss."""
        h, y = item.result() if idx else item
        for stage in range(bounds[idx], bounds[idx + 1]):
            h, loss = layer_step(learner, stage, h, y, lr)
        return loss if idx == num_workers - 1 else (h, y)

    executors = [ThreadPoolExecutor(max_workers=1) for _ in range(num_workers)]
    lasts: list[Future] = []
    try:
        for item in batches:
            for idx, executor in enumerate(executors):
                item = executor.submit(work, idx, item)
            lasts.append(item)
            if len(lasts) > window:
                _loss(lasts[-1 - window])
        return [_loss(future) for future in lasts]
    finally:
        # upstream first, so no running item waits on a pending one
        for executor in executors:
            executor.shutdown(cancel_futures=True)


def train(network: ValidatedNetwork, config: TrainConfig,
          train_data: tuple[np.ndarray, np.ndarray],
          test_data: tuple[np.ndarray, np.ndarray] | None = None,
          plan: AuxPlan | None = None,
          workers: int = 1) -> tuple[LocalLearner, list[dict]]:
    """Full training run; returns the learner and per-epoch metric rows.

    Each epoch draws a fresh shuffle (from ``seed + 7``) and the cosine
    learning rate. The stages split into contiguous ranges over
    ``min(workers, stages)`` workers. One worker runs each batch through
    ``local_train_step`` on the caller's thread; more run
    ``_pipelined_epoch``. Each stage sees the same inputs in the same
    order and owns its parameters, so the result is the same, bit for
    bit, at every worker count.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    learner = LocalLearner(network, config, plan=plan)
    num_stages = len(learner.stages)
    num_workers = min(workers, num_stages)
    bounds = np.linspace(1, num_stages + 1, num_workers + 1).astype(int).tolist()
    xs, ys = train_data
    rng = np.random.default_rng(config.seed + 7)
    history: list[dict] = []
    for epoch in range(config.epochs):
        lr = cosine_lr(config.lr, epoch, config.epochs)
        t0 = time.perf_counter()
        batches = epoch_batches(xs, ys, config.batch_size, rng)
        if num_workers == 1:
            losses = [local_train_step(learner, xb, yb, lr)["global_loss"]
                      for xb, yb in batches]
        else:
            losses = _pipelined_epoch(learner, bounds, batches, lr)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        history.append({"epoch": epoch, "split": "train", "loss": float(np.mean(losses)),
                        "top1": float("nan"), "lr": lr, "wall_ms": wall_ms})
        if test_data is not None:
            acc = evaluate(learner.model, test_data[0], test_data[1])
            history.append({"epoch": epoch, "split": "test", "loss": float("nan"),
                            "top1": acc, "lr": lr, "wall_ms": 0.0})
    return learner, history


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"AGLCKPT1"


def network_hash(network: ValidatedNetwork) -> bytes:
    return hashlib.sha256(emit_network_text(network.spec).encode()).digest()


def _gather_arrays(learner: LocalLearner) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    for name, t in learner.model.params.items():
        arrays[f"primary/{name}"] = t.data
    for i, st in enumerate(learner.model.bn_states()):
        arrays[f"primary-bn/{i}/mean"] = st.running_mean
        arrays[f"primary-bn/{i}/var"] = st.running_var
    for aux in learner.aux:
        for name, t in aux.params.items():
            arrays[f"aux/{name}"] = t.data
        for i, st in enumerate(aux.bn_states()):
            arrays[f"aux-bn/{aux.spec.layer}/{i}/mean"] = st.running_mean
            arrays[f"aux-bn/{aux.spec.layer}/{i}/var"] = st.running_var
    for j, opt in enumerate(learner.layer_optimizers):
        for name, v in opt.velocity.items():
            arrays[f"opt/{j}/{name}"] = v
    return arrays


def save_checkpoint(path, learner: LocalLearner) -> None:
    """Versioned binary container: magic, network hash, named float64 blobs.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``, so a reader never sees a partly written checkpoint.
    """
    path = Path(path)
    arrays = _gather_arrays(learner)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(_MAGIC)
            fh.write(network_hash(learner.network))
            fh.write(struct.pack("<I", len(arrays)))
            for name, arr in arrays.items():
                blob = np.ascontiguousarray(arr, dtype=np.float64)
                enc = name.encode()
                fh.write(struct.pack("<H", len(enc)))
                fh.write(enc)
                fh.write(struct.pack("<B", blob.ndim))
                for dim in blob.shape:
                    fh.write(struct.pack("<I", dim))
                fh.write(blob.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path, learner: LocalLearner) -> None:
    """Restore a checkpoint into a learner built for the same network spec.

    Reading is strict: a short file, an entry the learner does not hold, a
    repeated or missing entry, a shape mismatch or bytes after the last
    entry raise CheckpointError, and the learner is then left untouched.
    """
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    if data[:len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    pos = len(_MAGIC)

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(data):
            raise CheckpointError(f"{path}: truncated after byte {pos}")
        pos += n
        return data[pos - n:pos]

    if take(32) != network_hash(learner.network):
        raise CheckpointError(f"{path}: checkpoint was written for a different network")
    expected = _gather_arrays(learner)
    arrays: dict[str, np.ndarray] = {}
    (count,) = struct.unpack("<I", take(4))
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        name = bytes(take(nlen)).decode(errors="replace")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        if name not in expected or name in arrays:
            raise CheckpointError(f"{path}: unexpected or repeated entry {name!r}")
        if shape != expected[name].shape:
            raise CheckpointError(f"{path}: shape mismatch for {name}")
        arrays[name] = np.frombuffer(take(8 * math.prod(shape)), dtype=np.float64).reshape(shape)
    if pos != len(data):
        raise CheckpointError(f"{path}: {len(data) - pos} trailing bytes after the last entry")
    missing = set(expected) - set(arrays)
    if missing:
        raise CheckpointError(f"{path}: missing entries {sorted(missing)[:3]}...")
    for name, target in expected.items():
        target[...] = arrays[name]
