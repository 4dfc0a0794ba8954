"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of each auglocal module from the
outside: it rebinds every module attribute that refers to a wrapped
function (so aliases such as ``trainer.cross_entropy`` are traced too) and
the wrapped methods on their classes. For each tensor op that records a
node on the active tape, it also wraps that node's backward closure, so the
op's backward time gets a span of its own. Spans are kept in memory and
written out when the run ends; the program itself is not modified.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager

from auglocal import (
    analysis,
    auxbuild,
    cli,
    config,
    data,
    netspec,
    nn,
    pipeline,
    tensor,
    trainer,
)

MODULES = (tensor, netspec, auxbuild, nn, trainer, pipeline, analysis, data, config, cli)

# Per-layer metrics and their units; BENCHMARK.json lists the same.
PER_LAYER = {
    "tensor.conv2d.fwd_ms": "ms",
    "tensor.conv2d.bwd_ms": "ms",
    "tensor.conv2d.gmac_per_s": "GMAC/s",
    "tensor.conv2d.col_mb": "MB",
    "tensor.batchnorm2d.fwd_ms": "ms",
    "tensor.batchnorm2d.bwd_ms": "ms",
    "tensor.other_ops.fwd_ms": "ms",
    "tensor.other_ops.bwd_ms": "ms",
    "tensor.backward.self_ms": "ms",
    "tensor.tape_nodes": "count",
    "tensor.op_cover_share": "ratio",
    "nn.primary_fwd_ms": "ms",
    "nn.aux_fwd_ms": "ms",
    "nn.learner_init_ms": "ms",
    "auxbuild.plan_ms": "ms",
    "auxbuild.aux_mmac_per_sample": "MMAC",
    "netspec.primary_mmac_per_sample": "MMAC",
    "data.gen_ms": "ms",
    "trainer.step_ms_p50": "ms",
    "trainer.sgd_ms": "ms",
    "trainer.checkpoint_save_ms": "ms",
    "trainer.checkpoint_load_ms": "ms",
    "trainer.checkpoint_mb": "MB",
    "pipeline.worker_busy_ms_max": "ms",
    "pipeline.worker_idle_share_max": "ratio",
    "pipeline.balance_bound": "ratio",
    "analysis.mem_model_mb": "MB",
    "analysis.mem_measured_over_model": "ratio",
    "bench.traced_train_samples_per_s": "samples/s",
}

# Tensor ops whose forward and recorded backward closure are timed.
OPS = ("conv2d", "batchnorm2d", "relu", "add", "dense", "flatten",
       "global_avg_pool", "softmax_cross_entropy")
OTHER_OPS = ("relu", "add", "dense", "flatten", "global_avg_pool",
             "softmax_cross_entropy")

# (module, function name) pairs traced as plain calls.
FUNCTIONS = (
    (tensor, "backward"),
    (netspec, "validate"),
    (netspec, "count_flops"),
    (auxbuild, "plan_all"),
    (data, "gen_synthetic"),
    (trainer, "train"),
    (trainer, "local_train_step"),
    (trainer, "bp_train_step"),
    (trainer, "evaluate"),
    (trainer, "save_checkpoint"),
    (trainer, "load_checkpoint"),
    (pipeline, "run_pipelined_training"),
    (analysis, "peak_memory"),
)

# (class, method name, span name) triples.
METHODS = (
    (nn.PrimaryModel, "forward_unit", "nn.PrimaryModel.forward_unit"),
    (nn.PrimaryModel, "forward_logits", "nn.PrimaryModel.forward_logits"),
    (nn.AuxModel, "forward", "nn.AuxModel.forward"),
    (trainer.LocalLearner, "__init__", "trainer.LocalLearner.__init__"),
    (trainer.SGD, "step", "trainer.SGD.step"),
)


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "attrs")

    def __init__(self, id_, parent, name, thread, start, attrs):
        self.id = id_
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        self.attrs = attrs

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "thread": self.thread, "start": self.start, "end": self.end,
                "attrs": self.attrs}


class Tracer:
    """In-memory span recorder; ``install`` wraps the package, ``uninstall``
    restores every binding it replaced."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._threads = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self.main_thread = self._thread()

    def _thread(self) -> int:
        """A number for the calling thread, unique for this tracer. Thread
        idents are reused once a thread ends, and the pipelined trainer
        starts new threads every epoch."""
        number = getattr(self._local, "thread", None)
        if number is None:
            number = self._local.thread = next(self._threads)
            self._local.stack = []
        return number

    def open(self, name: str, attrs: dict | None = None) -> Span:
        thread = self._thread()
        stack = self._local.stack
        sp = Span(next(self._ids), stack[-1] if stack else None, name, thread,
                  time.perf_counter(), attrs)
        stack.append(sp.id)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(sp)

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        sp = self.open(name, attrs)
        try:
            yield sp
        finally:
            self.close(sp)

    # -- wrapping -----------------------------------------------------------

    def _timed(self, name, fn, attrs_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = tracer.open(name, attrs_of(*args, **kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sp)
        return wrapper

    def _timed_op(self, op: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = tracer.open(f"tensor.{op}.fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sp)
            attrs = _conv_attrs(args[0], args[1], out) if op == "conv2d" else None
            sp.attrs = attrs
            tp = tensor.active_tape()
            if tp is not None and tp.nodes and tp.nodes[-1].output is out:
                node = tp.nodes[-1]
                bwd_attrs = None if attrs is None else {
                    "macs": 2 * attrs["macs"], "col_bytes": attrs["col_bytes"]}
                node.backward_fn = tracer._timed(f"tensor.{op}.bwd", node.backward_fn,
                                                 lambda g: bwd_attrs)
            return out
        return wrapper

    def _rebind(self, original, replacement) -> None:
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for op in OPS:
            fn = getattr(tensor, op)
            self._rebind(fn, self._timed_op(op, fn))
        for mod, fname in FUNCTIONS:
            fn = getattr(mod, fname)
            attrs_of = _backward_attrs if fname == "backward" else None
            self._rebind(fn, self._timed(f"{mod.__name__.split('.')[-1]}.{fname}",
                                         fn, attrs_of))
        for cls, meth, name in METHODS:
            fn = cls.__dict__[meth]
            attrs_of = _unit_attrs if meth == "forward_unit" else None
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._timed(name, fn, attrs_of))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(sp.to_json()) + "\n")


def _conv_attrs(x, w, out) -> dict:
    """MACs and im2col column bytes of one conv2d call, from its shapes."""
    n, cin = x.shape[:2]
    cout, _, k, _ = w.shape
    ho, wo = out.shape[2:]
    macs = n * cout * ho * wo * cin * k * k
    return {"macs": macs, "col_bytes": n * cin * k * k * ho * wo * out.data.itemsize}


def _backward_attrs(tp, loss) -> dict:
    return {"nodes": len(tp.nodes)}


def _unit_attrs(model, index, *args, **kwargs) -> dict:
    return {"unit": index}


# ---------------------------------------------------------------------------
# per-layer metrics derived from the spans
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _self_time(sp: Span, children: dict[int, list[Span]]) -> float:
    return sp.dur - sum(c.dur for c in children.get(sp.id, ()))


def layer_metrics(spans: list[Span], main_thread: int, steps: int) -> dict[str, float]:
    """Per-layer figures from one traced run.

    Training-phase figures are totals over the ``bench.train`` spans divided
    by ``steps``, the number of training batches those phases ran. Set-up
    and checkpoint figures are medians over the set-ups and round trips.
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)

    def windows(name):
        return [(sp.start, sp.end) for sp in by_name.get(name, ())]

    def inside(sp, wins):
        return any(a <= sp.start and sp.end <= b for a, b in wins)

    bench_ids = {sp.id for sp in spans if sp.name.startswith("bench.")}
    train_wins = windows("bench.train")
    train_spans = [sp for sp in spans if inside(sp, train_wins)]

    def per_step_ms(names) -> float:
        total = sum(sp.dur for sp in train_spans if sp.name in names)
        return 1000.0 * total / steps

    def per_window_ms(name, window) -> float:
        wins = windows(window)
        return 1000.0 * _median([sum(sp.dur for sp in by_name.get(name, ())
                                     if a <= sp.start and sp.end <= b)
                                 for a, b in wins])

    m: dict[str, float] = {}
    convs = [sp for sp in train_spans if sp.name.startswith("tensor.conv2d.")]
    conv_s = sum(sp.dur for sp in convs)
    m["tensor.conv2d.fwd_ms"] = per_step_ms({"tensor.conv2d.fwd"})
    m["tensor.conv2d.bwd_ms"] = per_step_ms({"tensor.conv2d.bwd"})
    m["tensor.conv2d.gmac_per_s"] = (
        sum(sp.attrs["macs"] for sp in convs) / conv_s / 1e9 if conv_s else 0.0)
    m["tensor.conv2d.col_mb"] = sum(sp.attrs["col_bytes"] for sp in convs) / steps / 1e6
    m["tensor.batchnorm2d.fwd_ms"] = per_step_ms({"tensor.batchnorm2d.fwd"})
    m["tensor.batchnorm2d.bwd_ms"] = per_step_ms({"tensor.batchnorm2d.bwd"})
    m["tensor.other_ops.fwd_ms"] = per_step_ms({f"tensor.{op}.fwd" for op in OTHER_OPS})
    m["tensor.other_ops.bwd_ms"] = per_step_ms({f"tensor.{op}.bwd" for op in OTHER_OPS})
    backwards = [sp for sp in train_spans if sp.name == "tensor.backward"]
    m["tensor.backward.self_ms"] = (
        1000.0 * sum(_self_time(sp, children) for sp in backwards) / steps)
    m["tensor.tape_nodes"] = sum(sp.attrs["nodes"] for sp in backwards) / steps

    m["nn.primary_fwd_ms"] = per_step_ms({"nn.PrimaryModel.forward_unit",
                                          "nn.PrimaryModel.forward_logits"})
    m["nn.aux_fwd_ms"] = per_step_ms({"nn.AuxModel.forward"})
    m["nn.learner_init_ms"] = per_window_ms("trainer.LocalLearner.__init__", "bench.setup")
    m["auxbuild.plan_ms"] = per_window_ms("auxbuild.plan_all", "bench.setup")
    m["data.gen_ms"] = per_window_ms("data.gen_synthetic", "bench.setup")

    step_spans = [sp for sp in train_spans
                  if sp.name in ("trainer.local_train_step", "trainer.bp_train_step")]
    m["trainer.step_ms_p50"] = 1000.0 * _median([sp.dur for sp in step_spans])
    m["trainer.sgd_ms"] = per_step_ms({"trainer.SGD.step"})
    m["trainer.checkpoint_save_ms"] = per_window_ms("trainer.save_checkpoint", "bench.ckpt")
    m["trainer.checkpoint_load_ms"] = per_window_ms("trainer.load_checkpoint", "bench.ckpt")

    busy_max, idle_max, balance, busy_total = [], [], [], 0.0
    for a, b in train_wins:
        busy = _worker_busy([sp for sp in train_spans if a <= sp.start and sp.end <= b],
                            bench_ids, main_thread)
        busy_total += sum(busy.values())
        top = max(busy.values())
        busy_max.append(1000.0 * top)
        idle_max.append(1.0 - min(busy.values()) / (b - a))
        balance.append(sum(busy.values()) / top)
    m["pipeline.worker_busy_ms_max"] = _median(busy_max)
    m["pipeline.worker_idle_share_max"] = _median(idle_max)
    m["pipeline.balance_bound"] = _median(balance)

    op_s = sum(sp.dur for sp in train_spans
               if sp.name.startswith("tensor.") and sp.name.endswith((".fwd", ".bwd")))
    m["tensor.op_cover_share"] = op_s / busy_total if busy_total else 0.0
    return m


def _worker_busy(window_spans: list[Span], bench_ids: set[int], main_thread: int) -> dict:
    """Busy seconds per worker during one training phase.

    Workers are the threads other than the main one that ran traced calls;
    a sequential trainer has none, and then the main thread is the only
    worker. A worker's busy time is the sum of its outermost traced calls.
    Pipeline threads are restarted every epoch, so threads are grouped into
    stages by the first unit they run.
    """
    outer = [sp for sp in window_spans
             if sp.id not in bench_ids and (sp.parent is None or sp.parent in bench_ids)]
    threads = {sp.thread for sp in outer} - {main_thread}
    if not threads:
        return {"main": sum(sp.dur for sp in outer)}
    stage_of: dict[int, int] = {}
    for sp in window_spans:
        if sp.thread in threads and sp.name == "nn.PrimaryModel.forward_unit":
            stage_of[sp.thread] = min(stage_of.get(sp.thread, sp.attrs["unit"]),
                                      sp.attrs["unit"])
    busy: dict = {}
    for sp in outer:
        if sp.thread in threads:
            key = stage_of.get(sp.thread, sp.thread)
            busy[key] = busy.get(key, 0.0) + sp.dur
    return busy
