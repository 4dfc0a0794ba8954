"""Representation analysis and memory accounting.

Linear centered kernel alignment (CKA) compares two models' hidden
activations exactly, in Gram form: O(n^2 p) time for n examples of p
features, and two n x n matrices of memory. Linear probing measures a
frozen layer's linear separability from each example's C channel means,
as every unit emits (N, C, H, W). The memory model counts the bytes a
training step holds (the activations its backward closures capture, one
chunk of im2col columns, parameters and momentum, and one stage's
parameter gradients) analytically for end-to-end versus local training.
"""

from __future__ import annotations

import numpy as np

from .auxbuild import AuxPlan
from .errors import ConfigError, RowCountMismatch, SpecMismatch
from .netspec import (
    ClassifierSpec,
    ValidatedNetwork,
    classifier_params,
    unit_convs,
    unit_out_shape,
    unit_params,
)
from .nn import Classifier, PrimaryModel
from .tensor import ParamSet, Tensor, backward, conv_batch_chunks, softmax_cross_entropy, tape
from .trainer import _EVAL_BATCH_SIZE, SGD, cosine_lr, epoch_batches, stage_ranges


def _centered_gram(x: np.ndarray) -> np.ndarray:
    """Xc Xc^T, where Xc is ``x`` in float64 with each column centred."""
    xc = np.asarray(x, dtype=np.float64)
    xc = xc - xc.mean(axis=0, keepdims=True)
    return xc @ xc.T


def linear_cka(x: np.ndarray, y: np.ndarray) -> float:
    """Linear CKA between an (n, p) and an (n, q) feature matrix.

    Computed in Gram form, <K, L>_F / (||K||_F ||L||_F) with K = Xc Xc^T and
    L = Yc Yc^T over the column-centred arguments (Kornblith et al. 2019).
    This is exact at any width and costs O(n^2 (p + q)) time and two n x n
    float64 matrices of memory. Invariant to orthogonal right-multiplication
    and nonzero isotropic scaling of either argument; returns 0 for a
    degenerate (all-zero after centring) argument.
    """
    if x.shape[0] != y.shape[0]:
        raise RowCountMismatch(f"{x.shape[0]} rows vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise RowCountMismatch("need at least 2 examples")
    k = _centered_gram(x)
    l = _centered_gram(y)
    nk = np.linalg.norm(k)
    nl = np.linalg.norm(l)
    if nk == 0.0 or nl == 0.0:
        return 0.0
    return float(np.vdot(k, l) / (nk * nl))


def layerwise_cka(model_a: PrimaryModel, model_b: PrimaryModel,
                  probe_x: np.ndarray) -> dict:
    """Per-layer linear CKA between two models of identical architecture,
    plus the average over layers. Both models run one unit at a time, and
    each layer is scored as soon as it is produced, so only the current
    activation of each model is held."""
    if model_a.network.spec != model_b.network.spec:
        raise SpecMismatch("models have different architectures")
    n = probe_x.shape[0]
    ha = hb = Tensor(probe_x)
    scores = []
    for unit_a, unit_b in zip(model_a.units, model_b.units):
        ha = unit_a.forward(ha, training=False)
        hb = unit_b.forward(hb, training=False)
        scores.append(linear_cka(ha.data.reshape(n, -1), hb.data.reshape(n, -1)))
    return {"per_layer": scores, "average": float(np.mean(scores))}


def linear_probe(model: PrimaryModel, layer: int,
                 train_data: tuple[np.ndarray, np.ndarray],
                 test_data: tuple[np.ndarray, np.ndarray],
                 epochs: int = 30, lr: float = 0.1, batch_size: int = 256,
                 seed: int = 0) -> float:
    """Freeze the model, train a fresh GAP+FC classifier on layer
    ``layer``'s activations, and report test accuracy. ``layer`` lies in
    1..``model.num_units``. Only the pooled features of each batch are kept."""
    if not 1 <= layer <= model.num_units:
        raise ConfigError(f"probe layer {layer} lies outside 1..{model.num_units}")

    def features(x):
        pooled = []
        for start in range(0, len(x), _EVAL_BATCH_SIZE):
            h = Tensor(x[start:start + _EVAL_BATCH_SIZE])
            for unit in model.units[:layer]:
                h = unit.forward(h, training=False)
            pooled.append(h.data.mean(axis=(2, 3), keepdims=True))
        return np.concatenate(pooled)

    xs, ys = train_data
    feats = features(xs)
    num_classes = int(max(ys.max(), test_data[1].max())) + 1

    rng = np.random.default_rng(seed)
    params = ParamSet()
    head = Classifier(ClassifierSpec(feats.shape[1], num_classes), params, "probe", rng)
    opt = SGD(dict(params.items()), momentum=0.9, weight_decay=0.0)

    for epoch in range(epochs):
        cur_lr = cosine_lr(lr, epoch, epochs)
        for xb, yb in epoch_batches(feats, ys, batch_size, rng):
            with tape() as tp:
                loss = softmax_cross_entropy(head.forward(Tensor(xb)), yb)
            backward(tp, loss)
            opt.step(cur_lr)

    pred = head.forward(Tensor(features(test_data[0]))).data.argmax(axis=1)
    return float((pred == test_data[1]).mean())


# ---------------------------------------------------------------------------
# memory model
# ---------------------------------------------------------------------------

def _unit_activation_elems(unit, out_shape: tuple[int, int, int]) -> int:
    """Per-example activation elements a unit's backward closures capture
    beyond its input: each norm's input (the conv output before it) and each
    relu's output. A norm output, which only relu's forward pass reads, and a
    residual sum are freed as the forward pass drops them."""
    norms = len(unit_convs(unit)) if unit.has_norm else 0
    relus = 2 if unit.kind == "residual-basic-block" else 1
    return (norms + relus) * int(np.prod(out_shape))


def _unit_workspace_elems(unit, out_shape: tuple[int, int, int], batch: int,
                          element_bytes: int) -> int:
    """Elements of the largest transient workspace of a unit's convs: the
    im2col columns of the input's first, largest chunk of examples, which
    ``tensor.conv2d`` builds and frees in its forward pass. A backward pass
    builds no larger columns: a stride-1 conv's of its output gradient, at
    most as many channels, and any other conv's of its input again."""
    _, h, w = out_shape
    # the first chunk, (0, n1), is the largest
    return max((c.in_channels * c.k * c.k * h * w
                * conv_batch_chunks(c.in_channels, c.k, h, w, batch, element_bytes)[0][1]
                for c in unit_convs(unit)))


def peak_memory(network: ValidatedNetwork, mode: str, batch_size: int,
                element_bytes: int = 8, plan: AuxPlan | None = None) -> int:
    """Analytical peak training memory in bytes.

    Training holds one stage's tape at a time (see ``trainer.stage_ranges``),
    freed as its backward pass runs. The model counts the arrays that tape's
    backward closures capture: the stage's input, each norm's input and
    each relu's output in its units and its head
    (``_unit_activation_elems``), and the head's pooled features and logits.
    To these it adds the largest transient workspace, the im2col columns of
    one chunk of examples of the stage's convs (``_unit_workspace_elems``),
    which ``tensor.CONV_WORKSPACE_BYTES`` bounds unless one example's columns
    alone exceed it. bp mode is a single stage, so it retains every layer for
    the one global backward pass; in local mode each stage is one unit plus
    its auxiliary head. Parameters and momentum of the primary network and
    of every head in use are counted too, and one stage's parameter
    gradients, which its optimizer step frees. Allocator overhead,
    per-channel statistics, a 3x3 conv's padded copy of a chunk's input or
    output gradient, and the activation gradients alive at one time are
    not. ``element_bytes`` defaults to 8, the float64 elements the
    engine computes in.
    """
    spec = network.spec
    shapes = (spec.input_shape,) + network.unit_shapes
    params = peak = 0
    for first, last in stage_ranges(network.num_units, mode):
        units, clf = spec.units[first - 1:last], spec.classifier
        if last < network.num_units:
            if plan is None:
                raise ValueError(f"{mode} mode needs an auxiliary plan")
            head = plan.aux[last - 1]
            units, clf = units + head.units, head.classifier
        own = sum(map(unit_params, units)) + classifier_params(clf)
        params += own
        cur = shapes[first - 1]
        act = int(np.prod(cur)) + clf.in_channels + clf.num_classes
        work = 0
        for u in units:
            cur = unit_out_shape(u, cur)
            act += _unit_activation_elems(u, cur)
            work = max(work, _unit_workspace_elems(u, cur, batch_size, element_bytes))
        peak = max(peak, act * batch_size + work + own)
    # parameters + momentum of every stage, then the largest stage's
    # retained activations, im2col workspace and parameter gradients
    return (2 * params + peak) * element_bytes
