"""Correctness checks for the benchmark's workloads.

Every check compares the program against a computation made apart from it
in plain numpy, or against a property the method must have; none compares
against a stored copy of earlier output. Each returns a list of failure
messages, empty when the check passes.
"""

from __future__ import annotations

import numpy as np

from auglocal import pipeline, tensor, trainer
from auglocal.tensor import Tensor


def learner_arrays(learner) -> dict[str, np.ndarray]:
    """Every array a training run mutates, read through public attributes:
    parameters, batchnorm running statistics and optimizer velocities."""
    arrays = {f"primary/{k}": t.data for k, t in learner.model.params.items()}
    for i, st in enumerate(learner.model.bn_states()):
        arrays[f"primary-bn/{i}/mean"] = st.running_mean
        arrays[f"primary-bn/{i}/var"] = st.running_var
    for aux in learner.aux:
        arrays.update({f"aux/{k}": t.data for k, t in aux.params.items()})
        for i, st in enumerate(aux.bn_states()):
            arrays[f"aux{aux.spec.layer}-bn/{i}/mean"] = st.running_mean
            arrays[f"aux{aux.spec.layer}-bn/{i}/var"] = st.running_var
    opts = learner.layer_optimizers or [learner.optimizer]
    for j, opt in enumerate(opts):
        arrays.update({f"opt/{j}/{k}": v for k, v in opt.velocity.items()})
    return arrays


def bitwise_diff(a: dict[str, np.ndarray], b: dict[str, np.ndarray], what: str) -> list[str]:
    if a.keys() != b.keys():
        return [f"{what}: array sets differ ({len(a)} vs {len(b)} entries)"]
    bad = [k for k in a if a[k].shape != b[k].shape or a[k].tobytes() != b[k].tobytes()]
    return [f"{what}: {len(bad)} arrays differ, first {bad[0]}"] if bad else []


def nearest_centroid_accuracy(train_x, train_y, test_x, test_y) -> float:
    """Held-out top-1 of a nearest-class-centroid classifier on raw pixels."""
    xs = train_x.reshape(len(train_x), -1)
    classes = np.unique(train_y)
    centroids = np.stack([xs[train_y == c].mean(axis=0) for c in classes])
    xt = test_x.reshape(len(test_x), -1)
    dist = ((xt[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float((classes[dist.argmin(axis=1)] == test_y).mean())


def check_accuracy(acc: float, ncc: float, margin: float) -> list[str]:
    if acc >= ncc - margin:
        return []
    return [f"held-out top-1 {acc:.4f} is more than {margin} below the "
            f"nearest-centroid baseline {ncc:.4f}"]


def check_checkpoint(trained, restored, x_eval: np.ndarray) -> list[str]:
    """A save/load round trip restores every array bit for bit and gives the
    same eval-mode logits."""
    errors = bitwise_diff(learner_arrays(trained), learner_arrays(restored), "checkpoint")
    a = trained.model.forward_logits(Tensor(x_eval), training=False).data
    b = restored.model.forward_logits(Tensor(x_eval), training=False).data
    if a.tobytes() != b.tobytes():
        errors.append("checkpoint: eval logits differ after the round trip")
    return errors


def check_trainers_agree(network, config, plan, train_data) -> list[str]:
    """The sequential and the threaded pipelined trainer, on the same seed,
    data and config, end with bit-identical parameters, BN statistics and
    optimizer state."""
    seq, _ = trainer.train(network, config, train_data, plan=plan)
    par, _ = pipeline.run_pipelined_training(network, config, train_data, plan=plan,
                                             threads=2)
    return bitwise_diff(learner_arrays(seq), learner_arrays(par), "sequential vs pipelined")


def check_finite(losses, what: str) -> list[str]:
    bad = [v for v in losses if not np.isfinite(v)]
    return [f"{what}: {len(bad)} of {len(losses)} losses are not finite"] if bad else []


def conv_shapes(network) -> list[tuple[int, int, int, int, int]]:
    """(C_in, C_out, k, stride, H) of every distinct convolution the primary
    network runs, read from its unit specs."""
    shapes = set()
    size = network.spec.input_shape[1]
    for unit, out_shape in zip(network.units, network.unit_shapes):
        cin, cout, s = unit.in_channels, unit.out_channels, unit.stride
        if unit.kind in ("conv3x3", "conv1x1"):
            shapes.add((cin, cout, 3 if unit.kind == "conv3x3" else 1, s, size))
        elif unit.kind == "residual-basic-block":
            shapes.add((cin, cout, 3, s, size))
            shapes.add((cout, cout, 3, 1, out_shape[1]))
            if unit.needs_projection:
                shapes.add((cin, cout, 1, s, size))
        size = out_shape[1]
    return sorted(shapes)


def check_conv2d(network, batch: int, rng: np.random.Generator,
                 entries: int = 6) -> list[str]:
    """``tensor.conv2d`` at the network's shapes against a direct window sum
    over zero-padded input, at a few random output positions."""
    errors = []
    for cin, cout, k, stride, size in conv_shapes(network):
        x = rng.standard_normal((batch, cin, size, size))
        w = rng.standard_normal((cout, cin, k, k))
        b = rng.standard_normal(cout)
        out = tensor.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride).data
        pad = k // 2
        ho = (size + 2 * pad - k) // stride + 1
        if out.shape != (batch, cout, ho, ho):
            errors.append(f"conv2d {cin}->{cout} k{k} s{stride} at {size}: "
                          f"shape {out.shape}, expected {(batch, cout, ho, ho)}")
            continue
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        for _ in range(entries):
            n, o, i, j = (int(rng.integers(m)) for m in (batch, cout, ho, ho))
            window = xp[n, :, i * stride:i * stride + k, j * stride:j * stride + k]
            ref = float((window * w[o]).sum() + b[o])
            if abs(out[n, o, i, j] - ref) > 1e-10 * max(1.0, abs(ref)):
                errors.append(f"conv2d {cin}->{cout} k{k} s{stride} at {size}: "
                              f"out[{n},{o},{i},{j}] = {out[n, o, i, j]!r}, direct sum {ref!r}")
    return errors


def check_finite_differences(learner, x: np.ndarray, y: np.ndarray,
                             rng: np.random.Generator, entries: int = 3,
                             h: float = 1e-7) -> list[str]:
    """Analytic gradients of one local unit's loss against central finite
    differences at a few random entries of that unit's first conv weight.

    In local mode the unit is unit 1 and the loss its local loss through
    its auxiliary head. In bp mode the unit is the top one and the loss the
    global loss, computed through the whole network's tape. ``learner``
    must be fresh: the forward passes update its batchnorm running
    statistics. A central difference is only exact while no ReLU between
    the weight and the loss changes sign: the step is kept small for that,
    and bp checks the top unit because from unit 1 the global loss passes
    millions of ReLUs, and a few of them flip even at h = 1e-7.
    """
    model = learner.model
    local = learner.config.mode == "local"
    unit = 1 if local else model.num_units
    name = next(n for n in model.unit_param_names(unit) if n.endswith(".w"))
    param = model.params[name]

    def loss():
        if local:
            h1 = model.forward_unit(1, Tensor(x), training=True)
            logits = learner.aux[0].forward(h1, training=True)
        else:
            logits = model.forward_logits(Tensor(x), training=True)
        return tensor.softmax_cross_entropy(logits, y)

    model.params.zero_grad()
    for aux in learner.aux:
        aux.params.zero_grad()
    with tensor.tape() as tp:
        value = loss()
    tensor.backward(tp, value)
    grad = param.grad.copy()

    errors = []
    flat = param.data.reshape(-1)
    for idx in rng.choice(flat.size, size=entries, replace=False):
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss().item()
        flat[idx] = orig - h
        down = loss().item()
        flat[idx] = orig
        fd = (up - down) / (2 * h)
        analytic = grad.reshape(-1)[idx]
        if abs(analytic - fd) > 1e-6 + 1e-4 * abs(fd):
            errors.append(f"finite differences: {name}[{idx}] analytic {analytic!r} "
                          f"vs central difference {fd!r}")
    if not np.any(grad):
        errors.append(f"finite differences: gradient of {name} is all zero")
    return errors
