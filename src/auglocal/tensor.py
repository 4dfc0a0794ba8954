"""Dense tensors with reverse-mode automatic differentiation on a recorded tape.

All numeric work in the package goes through this module. Values are numpy
arrays (float64 unless a dtype is passed explicitly); gradients are
computed by replaying a per-thread tape in reverse recording order. A
``stop_gradient`` boundary is identity in the forward pass and blocks all
gradient flow in the backward pass.

Gradients flow between tape nodes through small per-tensor gradient cells,
not through the tensors themselves. A tape node holds its inputs' and its
output's cells, a weak reference to its output tensor, and a backward
closure that captures exactly the arrays it reads: ``conv2d`` its input,
training-mode ``batchnorm2d`` its input and per-channel statistics, ``relu``
its output, ``add`` nothing. An activation that no backward closure reads,
such as a batchnorm output that only ``relu``'s forward pass reads, or a
residual sum, is freed as soon as the forward pass drops it. A cell keeps
the first gradient it gets, which no other cell holds (``add`` copies its
second input's). ``backward`` consumes the tape, so each captured array and
each intermediate gradient is freed once the pass is below the op that made it.

``conv2d`` lowers to GEMM over im2col columns one chunk of examples at a
time, each chunk within ``CONV_WORKSPACE_BYTES`` unless one example alone
exceeds it; the backward pass rebuilds the columns chunk by chunk from the
kept input. An input that needs no gradient gets none: ``conv2d``'s
backward pass then forms only the weight and bias gradients, as it does for
every local stage's first conv, which reads a detached input.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import (
    EmptyTape,
    LabelOutOfRange,
    NonDeterministicFunction,
    NonScalarLoss,
    ShapeMismatch,
    UnsupportedOperator,
)


class GradCell:
    """The gradient of one tensor. Tape nodes hold the cells of their inputs
    and output, not the tensors, so a gradient can flow through a value the
    forward pass has already dropped."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # kept, not copied (no other cell holds g), but in C order
            # whatever g's layout, so reductions over it sum in one order
            self.grad = np.asarray(g, order="C")
        else:
            self.grad += g


class Tensor:
    """A dense n-dimensional value with a gradient cell.

    Activations use the (N, C, H, W) convention; rank is at most 4.
    """

    __slots__ = ("data", "cell", "requires_grad", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype or np.float64)
        if arr.ndim > 4:
            raise ShapeMismatch(f"rank {arr.ndim} exceeds the supported maximum of 4")
        self.data = arr
        self.cell = GradCell()
        self.requires_grad = requires_grad

    @property
    def grad(self) -> np.ndarray | None:
        return self.cell.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self.cell.grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def detach(self) -> "Tensor":
        """A view of the same data that no gradient can flow through."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.cell.grad = None

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class TapeNode:
    """One recorded op: the gradient cells of its inputs (None where no
    gradient is wanted) and of its output, a weak reference to its output
    tensor, and its backward closure, which maps the output gradient to one
    gradient per input."""

    __slots__ = ("in_cells", "out_cell", "_output", "backward_fn")

    def __init__(self, inputs: Sequence[Tensor], output: Tensor,
                 backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]):
        self.in_cells = tuple(x.cell if x.requires_grad else None for x in inputs)
        self.out_cell = output.cell
        self._output = weakref.ref(output)
        self.backward_fn = backward_fn

    @property
    def output(self) -> Tensor | None:
        """The output tensor, or None once the forward pass has dropped it."""
        return self._output()


class Tape:
    """Ordered record of operations; recording order is topological order."""

    def __init__(self):
        self.nodes: list[TapeNode] = []


_tls = threading.local()


def active_tape() -> Tape | None:
    return getattr(_tls, "tape", None)


@contextmanager
def tape():
    """Activate a fresh tape on this thread for the duration of the block;
    the thread's previous tape, if any, is active again after it."""
    outer = active_tape()
    _tls.tape = t = Tape()
    try:
        yield t
    finally:
        _tls.tape = outer


def _record(inputs: Sequence[Tensor], out_data: np.ndarray, backward_fn) -> Tensor:
    t = active_tape()
    needs = t is not None and any(x.requires_grad for x in inputs)
    out = Tensor(out_data, requires_grad=needs, dtype=out_data.dtype)
    if needs:
        t.nodes.append(TapeNode(inputs, out, backward_fn))
    return out


def backward(tp: Tape, loss: Tensor) -> None:
    """Populate gradients of everything reachable from ``loss`` on ``tp``.

    The pass consumes the tape: it pops each node in reverse recording
    order and clears the node's output gradient once the node's backward
    function has used it, so the arrays a node's closure captured are freed
    as soon as nothing below it needs them. On return the tape is empty, a
    second call raises EmptyTape, and only leaf tensors (parameters and
    plain inputs) hold a ``grad``. Parameters behind a stop_gradient
    boundary are untouched (their grad stays whatever it was, zero if
    freshly cleared).
    """
    if loss.size != 1:
        raise NonScalarLoss(f"loss has {loss.size} elements, expected a scalar")
    if not tp.nodes:
        raise EmptyTape("backward called on a tape with no recorded operations "
                        "or one an earlier backward already consumed")
    loss.cell.accumulate(np.ones_like(loss.data))
    while tp.nodes:
        _backward_node(tp.nodes.pop())


def _backward_node(node: TapeNode) -> None:
    """Send one node's output gradient to its inputs, then drop it. A
    function of its own, so that nothing of the node outlives the call."""
    out = node.out_cell
    g_out, out.grad = out.grad, None
    if g_out is None:
        return
    for cell, g in zip(node.in_cells, node.backward_fn(g_out)):
        if g is not None and cell is not None:
            cell.accumulate(g)


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def stop_gradient(x: Tensor) -> Tensor:
    """Identity forward; an opaque wall backward."""
    return x.detach()


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}")
    # a cell keeps its first gradient and adds into it, so b gets a copy
    return _record((a, b), a.data + b.data, lambda g: (g, g.copy()))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"mul: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _record((a, b), ad * bd, lambda g: (g * bd, g * ad))


def tensor_sum(x: Tensor) -> Tensor:
    data = x.data
    shape = data.shape
    return _record((x,), np.asarray(data.sum(), dtype=data.dtype),
                   lambda g: (np.broadcast_to(g, shape).copy(),))


def relu(x: Tensor) -> Tensor:
    out = np.where(x.data > 0, x.data, 0.0)
    # out > 0 exactly where x > 0, so the mask comes from the kept output;
    # the subgradient at 0 is 0
    return _record((x,), out, lambda g: (g * (out > 0),))


def dense(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map on (N, m) inputs with an (m, n) weight and optional (n,) bias."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"dense: x {x.shape} vs w {w.shape}")
    xd, wd = x.data, w.data
    out = xd @ wd
    if b is not None:
        if b.shape != (w.shape[1],):
            raise ShapeMismatch(f"dense: bias {b.shape} vs out features {w.shape[1]}")
        out = out + b.data

    def bwd(g: np.ndarray):
        grads = g @ wd.T, xd.T @ g
        return grads if b is None else grads + (g.sum(axis=0),)

    return _record((x, w) if b is None else (x, w, b), out, bwd)


# Bytes of im2col columns ``conv2d`` builds at once: it lowers its batch in
# chunks of examples whose columns fit here (a chunk has at least one example).
CONV_WORKSPACE_BYTES = 16 << 20


def conv_batch_chunks(c_in: int, k: int, ho: int, wo: int, n: int,
                      itemsize: int) -> list[tuple[int, int]]:
    """The chunks ``(n0, n1)`` of examples that ``conv2d`` lowers at once
    for ``c_in`` input channels, kernel ``k``, an ``ho`` x ``wo`` output and
    batch ``n``: as few chunks as keep each within CONV_WORKSPACE_BYTES, as
    even in size as the batch allows."""
    fit = max(1, CONV_WORKSPACE_BYTES // (c_in * k * k * ho * wo * itemsize))
    count = -(-n // fit)
    step = -(-n // count)
    return [(n0, min(n0 + step, n)) for n0 in range(0, n, step)]


def _im2col(x: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Columns (C*k*k, Ho*Wo*N) of a conv over an (N, C, H, W) input
    zero-padded by k//2, laid out in (C, k, k, Ho, Wo, N) order."""
    n, c, h, w = x.shape
    pad = k // 2
    xt = x.transpose(1, 2, 3, 0)     # a view: k = 1 reads it without a copy
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype) if pad else xt
    if pad:
        xp[:, pad:pad + h, pad:pad + w] = xt
    cols = np.empty((c, k, k, ho, wo, n), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xp[:, i:i + stride * ho:stride, j:j + stride * wo:stride]
    return cols.reshape(c * k * k, ho * wo * n)


def _col2im(gcols: np.ndarray, gxp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> None:
    """Inverse scatter of ``_im2col``: adds the column gradient into the
    padded (C, Hp, Wp, N) input gradient ``gxp``."""
    c, n = gxp.shape[0], gxp.shape[3]
    gcols = gcols.reshape(c, k, k, ho, wo, n)
    for i in range(k):
        for j in range(k):
            gxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += gcols[:, i, j]


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1) -> Tensor:
    """2-D convolution, kernel 1 or 3, stride 1 or 2, zero padding k//2.

    Stride 1 preserves the spatial size; stride 2 halves it, rounding up:
    an H-row input gives (H - 1) // 2 + 1 output rows.
    Weight layout is (C_out, C_in, k, k). An input that needs no gradient
    gets none: the backward pass then skips the column-gradient GEMM and
    its scatter, as it does for every local stage's first conv, whose input
    is detached.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeMismatch(f"conv2d: x {x.shape}, w {w.shape}")
    n, c, h, wd_ = x.shape
    c_out, c_in, k, k2 = w.shape
    if k != k2 or k not in (1, 3):
        raise UnsupportedOperator(f"conv2d: kernel {k}x{k2} not supported")
    if stride not in (1, 2):
        raise UnsupportedOperator(f"conv2d: stride {stride} not supported")
    if c != c_in:
        raise ShapeMismatch(f"conv2d: input has {c} channels, weight expects {c_in}")
    if b is not None and b.shape != (c_out,):
        raise ShapeMismatch(f"conv2d: bias {b.shape} vs {c_out} output channels")
    pad = k // 2
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd_ + 2 * pad - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatch(f"conv2d: spatial size collapses for input {x.shape}")
    # Each chunk of examples is one whole conv in a (C, H, W, N) layout:
    # every window copy then moves runs of Wo*N contiguous values, and the
    # chunk is one GEMM. The columns, k*k times the input for k = 3, are
    # built one chunk at a time and not kept; the backward pass rebuilds them.
    xd = x.data
    wmat = w.data.reshape(c_out, c_in * k * k)
    chunks = conv_batch_chunks(c, k, ho, wo, n, xd.itemsize)
    # out is allocated after the first product: allocated before it, it made
    # small convs page-fault on every call
    out = None
    for n0, n1 in chunks:
        part = (wmat @ _im2col(xd[n0:n1], k, stride, ho, wo)).reshape(c_out, ho, wo, n1 - n0)
        if out is None:
            out = np.empty((n, c_out, ho, wo), dtype=part.dtype)
        out[n0:n1] = part.transpose(3, 0, 1, 2)
    if b is not None:
        out += b.data[None, :, None, None]

    input_grad = x.requires_grad

    def bwd(g: np.ndarray):
        gw = gx = None
        for n0, n1 in chunks:
            gm = g[n0:n1].transpose(1, 2, 3, 0).reshape(c_out, -1)
            part = gm @ _im2col(xd[n0:n1], k, stride, ho, wo).T
            gw = part if gw is None else gw + part
            if input_grad:      # after the chunk's columns are freed
                gxp = np.zeros((c, h + 2 * pad, wd_ + 2 * pad, n1 - n0), dtype=g.dtype)
                _col2im(wmat.T @ gm, gxp, k, stride, ho, wo)
                if gx is None:
                    gx = np.empty((n, c, h, wd_), dtype=g.dtype)
                gx[n0:n1] = gxp[:, pad:pad + h, pad:pad + wd_].transpose(3, 0, 1, 2)
        grads = gx, gw.reshape(c_out, c_in, k, k)
        return grads if b is None else grads + (g.sum(axis=(0, 2, 3)),)

    inputs = (x, w) if b is None else (x, w, b)
    return _record(inputs, out, bwd)


class BatchNormState:
    """Running statistics for one batchnorm layer; mutated only in training."""

    momentum = 0.1
    eps = 1e-5

    def __init__(self, channels: int):
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
                training: bool) -> Tensor:
    """Per-channel batch normalization over (N, C, H, W).

    Training mode normalizes with batch statistics and updates the running
    buffers; eval mode uses the running buffers as constants. Running
    statistics are treated as constants by the backward pass.
    """
    if x.data.ndim != 4:
        raise ShapeMismatch(f"batchnorm2d: expected rank-4 input, got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeMismatch(f"batchnorm2d: affine params {gamma.shape}/{beta.shape} vs {c} channels")
    eps = state.eps
    xd, gd = x.data, gamma.data
    if training:
        axes = (0, 2, 3)
        m = xd.size // c
        # the sums and divisions np.mean and np.var make, with the input
        # centred once
        mean = xd.sum(axis=axes) / m
        centred = xd - mean[None, :, None, None]
        var = (centred * centred).sum(axis=axes) / m
        state.running_mean += state.momentum * (mean - state.running_mean)
        unbiased = var * m / max(m - 1, 1)
        state.running_var += state.momentum * (unbiased - state.running_var)
        inv_std = 1.0 / np.sqrt(var + eps)
        out = centred       # normalized, scaled and shifted in place
        out *= inv_std[None, :, None, None]
        out *= gd[None, :, None, None]
        out += beta.data[None, :, None, None]

        def bwd(g: np.ndarray):
            # the forward pass's normalized input, recomputed bit for bit
            xhat = xd - mean[None, :, None, None]
            xhat *= inv_std[None, :, None, None]
            g_xhat = g * xhat
            gg = g_xhat.sum(axis=axes)
            del g_xhat
            gb = g.sum(axis=axes)
            # gb / m and gg / m are the bits of g.mean and g_xhat.mean
            xhat *= (gg / m)[None, :, None, None]
            gx = g - (gb / m)[None, :, None, None]
            gx -= xhat
            del xhat
            gx *= (gd * inv_std)[None, :, None, None]
            return gx, gg, gb

        return _record((x, gamma, beta), out, bwd)

    # the running buffers as this forward pass read them: a later
    # training-mode pass updates them in place
    running_mean = state.running_mean.copy()
    inv_std = 1.0 / np.sqrt(state.running_var + eps)
    scale = gd * inv_std
    shift = beta.data - running_mean * scale
    out = xd * scale[None, :, None, None] + shift[None, :, None, None]

    def bwd_eval(g: np.ndarray):
        xhat = (xd - running_mean[None, :, None, None]) * inv_std[None, :, None, None]
        return (g * scale[None, :, None, None],
                (g * xhat).sum(axis=(0, 2, 3)),
                g.sum(axis=(0, 2, 3)))

    return _record((x, gamma, beta), out, bwd_eval)


def flatten(x: Tensor) -> Tensor:
    """Collapse all but the leading axis: (N, ...) -> (N, prod(...))."""
    shape = x.shape
    n = shape[0]
    out = x.data.reshape(n, -1)
    return _record((x,), out, lambda g: (g.reshape(shape),))


def global_avg_pool(x: Tensor) -> Tensor:
    """(N, C, H, W) -> (N, C) spatial mean."""
    if x.data.ndim != 4:
        raise ShapeMismatch(f"global_avg_pool: expected rank-4 input, got {x.shape}")
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3))

    def bwd(g: np.ndarray):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), (n, c, h, w)).copy(),)

    return _record((x,), out, bwd)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of softmaxed logits (N, C) against integer labels."""
    if logits.data.ndim != 2:
        raise ShapeMismatch(f"softmax_cross_entropy: logits {logits.shape}")
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeMismatch(f"softmax_cross_entropy: labels {labels.shape} vs batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise LabelOutOfRange(f"labels must lie in [0, {c})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=1)
    loss = (np.log(s) - z[np.arange(n), labels]).mean()
    probs = e / s[:, None]

    def bwd(g: np.ndarray):
        gl = probs.copy()
        gl[np.arange(n), labels] -= 1.0
        return (gl * (g / n),)

    return _record((logits,), np.asarray(loss, dtype=logits.data.dtype), bwd)


# ---------------------------------------------------------------------------
# parameter sets and gradient checking
# ---------------------------------------------------------------------------

class ParamSet:
    """Named map of trainable tensors. Names are unique within a set, and
    distinct sets never alias tensors (fresh allocation on add)."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()


def finite_diff_check(f: Callable[[ParamSet], Tensor], params: ParamSet,
                      h: float = 1e-5) -> float:
    """Max relative error between analytic gradients of ``f`` and central
    finite differences over every parameter entry.

    ``f`` must be deterministic: two evaluations at identical parameters
    must agree bit for bit.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    v1 = float(f(params).item())
    v2 = float(f(params).item())
    if v1 != v2:
        raise NonDeterministicFunction(f"f evaluated twice gave {v1} and {v2}")

    params.zero_grad()
    with tape() as tp:
        loss = f(params)
    backward(tp, loss)
    analytic = {k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for k, t in params.items()}

    worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        a = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f(params).item())
            flat[i] = orig - h
            fm = float(f(params).item())
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            err = abs(a[i] - fd) / max(1.0, abs(a[i]))
            if err > worst:
                worst = err
    return worst
