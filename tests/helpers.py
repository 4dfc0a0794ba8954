"""Builders and checkers shared by the test modules. No training,
evaluation or planning path of the package reaches any of them."""

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable

import numpy as np

from auglocal import tensor as T
from auglocal.data import gen_synthetic
from auglocal.errors import ShapeMismatch
from auglocal.netspec import (
    ClassifierSpec,
    LocalUnitSpec,
    PrimaryNetworkSpec,
    tinynet8,
    validate,
)
from auglocal.tensor import ParamSet, Tensor
from auglocal.trainer import TrainConfig, evaluate, train


class NonDeterministicFunction(Exception):
    """``finite_diff_check`` got two different values of ``f`` at the same
    parameters."""


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
    with T.tape() as tp:
        loss = f(params)
    T.backward(tp, loss)
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


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, recorded on the active tape: with ``tensor_sum``
    it weights an output by a fixed upstream gradient."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"mul: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return T._record((a, b), ad * bd, lambda g: (g * bd, g * ad))


def serialize_cifar10_record(image01: np.ndarray, label: int) -> bytes:
    """Inverse of the ingest path for one record (byte-exact round trip of
    un-normalized data)."""
    pixels = np.round(image01 * 255.0).astype(np.uint8).reshape(-1)
    return bytes([label]) + pixels.tobytes()


def small_net():
    """A 3-unit conv net small enough for fast step-level tests."""
    units = (
        LocalUnitSpec("conv3x3", 3, 4),
        LocalUnitSpec("conv3x3", 4, 4),
        LocalUnitSpec("conv3x3", 4, 8, stride=2),
    )
    return validate(PrimaryNetworkSpec(units, ClassifierSpec(8, 4), (3, 6, 6), 4,
                                       name="small3"))


def small_data(seed=0, n=16):
    ds = gen_synthetic(4, (3, 6, 6), n // 4, seed=seed, separation=4.0)
    return ds.images, ds.labels


# the variables that set the BLAS thread count of a process, read once
# when it loads numpy
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def map_in_processes(fn, arg_tuples) -> list:
    """``[fn(*args) for args in arg_tuples]``, computed by at most two
    spawned worker processes, each with one BLAS thread and warnings turned
    into errors. ``fn`` must be importable by name. The BLAS setting is
    made in this process's environment only while the workers start, and
    restored afterwards. A worker that dies raises BrokenProcessPool."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(min(2, os.cpu_count() or 1),
                                 mp_context=multiprocessing.get_context("spawn"),
                                 initializer=warnings.simplefilter,
                                 initargs=("error",)) as pool:
            futures = [pool.submit(fn, *args) for args in arg_tuples]
            return [f.result() for f in futures]
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def desk_data(seed: int):
    """The desk study's synthetic train and test sets for one seed."""
    tr = gen_synthetic(10, (3, 8, 8), 120, seed=seed, separation=5.0)
    te = gen_synthetic(10, (3, 8, 8), 100, seed=seed + 10_000, separation=5.0)
    return (tr.images, tr.labels), (te.images, te.labels)


def desk_run(seed: int, mode: str, d: int):
    """One desk-study run: tinynet8 trained for 20 epochs, then evaluated
    once. Returns the test top-1, the primary parameters and the batchnorm
    running statistics, from which ``PrimaryModel`` can be rebuilt."""
    train_data, (x_test, y_test) = desk_data(seed)
    cfg = TrainConfig(mode=mode, d=d, lr=0.2, epochs=20, batch_size=128, seed=seed)
    learner, _ = train(validate(tinynet8()), cfg, train_data)
    model = learner.model
    return (evaluate(model, x_test, y_test),
            {name: t.data for name, t in model.params.items()},
            [(st.running_mean, st.running_var) for st in model.bn_states()])
