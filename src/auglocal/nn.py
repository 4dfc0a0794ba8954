"""Executable networks built from declarative specs.

Every local unit, a conv layer or a residual block, is a ``ConvUnit`` that
owns its parameters (inside a shared ParamSet, under a unique name prefix)
and its batchnorm running statistics. Initialization is Kaiming-uniform for
conv and classifier weights, scale 1 / shift 0 for norms.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .auxbuild import AuxNetworkSpec
from .netspec import ClassifierSpec, ConvSpec, LocalUnitSpec, ValidatedNetwork, unit_convs
from .tensor import BatchNormState, ParamSet, Tensor


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


class ConvLayer:
    """One convolution of a unit and its batchnorm, or a bias when the unit
    has no norms. Parameters live under ``prefix`` plus the spec's names."""

    def __init__(self, conv: ConvSpec, norm: bool, params: ParamSet, prefix: str, rng):
        cin, cout, k = conv.in_channels, conv.out_channels, conv.k
        self.stride = conv.stride
        self.w = params.add(f"{prefix}.{conv.conv}.w",
                            _kaiming_uniform(rng, (cout, cin, k, k), cin * k * k))
        self.b = None if norm else params.add(f"{prefix}.{conv.conv}.b", np.zeros(cout))
        self.state = None
        if norm:
            self.gamma = params.add(f"{prefix}.{conv.norm}.gamma", np.ones(cout))
            self.beta = params.add(f"{prefix}.{conv.norm}.beta", np.zeros(cout))
            self.state = BatchNormState(cout)

    def forward(self, x: Tensor, training: bool) -> Tensor:
        y = T.conv2d(x, self.w, self.b, stride=self.stride)
        if self.state is not None:
            y = T.batchnorm2d(y, self.gamma, self.beta, self.state, training)
        return y


class ConvUnit:
    """A conv3x3 / conv1x1 unit, conv (+ norm) + relu, or a basic residual
    block: conv3x3-norm-relu-conv3x3-norm plus the shortcut (the input, or
    its 1x1 projection + norm), then relu. ``netspec.unit_convs`` lists the
    convs."""

    def __init__(self, spec: LocalUnitSpec, params: ParamSet, prefix: str, rng):
        self.convs = [ConvLayer(c, spec.has_norm, params, prefix, rng)
                      for c in unit_convs(spec)]

    def forward(self, x: Tensor, training: bool) -> Tensor:
        first, *rest = self.convs
        y = T.relu(first.forward(x, training))
        if not rest:
            return y
        y = rest[0].forward(y, training)
        shortcut = rest[1].forward(x, training) if len(rest) > 1 else x
        return T.relu(T.add(y, shortcut))

    def bn_states(self):
        return [c.state for c in self.convs if c.state is not None]


class Classifier:
    """Global average pool followed by a fully-connected logit layer."""

    def __init__(self, spec: ClassifierSpec, params: ParamSet, prefix: str, rng):
        self.w = params.add(f"{prefix}.w",
                            _kaiming_uniform(rng, (spec.in_channels, spec.num_classes),
                                             spec.in_channels))
        self.b = params.add(f"{prefix}.b", np.zeros(spec.num_classes))

    def forward(self, x: Tensor) -> Tensor:
        return T.dense(T.global_avg_pool(x), self.w, self.b)


class _UnitChain:
    """Units built from specs, then a pool-and-classify top, in a fresh
    ParamSet under ``prefix``, initialized from ``seed``."""

    def __init__(self, units, classifier: ClassifierSpec, prefix: str, seed: int):
        self.params = ParamSet()
        rng = np.random.default_rng(seed)
        self.units = [ConvUnit(u, self.params, f"{prefix}unit{i}", rng)
                      for i, u in enumerate(units, start=1)]
        self.classifier = Classifier(classifier, self.params, f"{prefix}classifier", rng)

    def forward_logits(self, x: Tensor, training: bool = False) -> Tensor:
        for unit in self.units:
            x = unit.forward(x, training)
        return self.classifier.forward(x)

    def bn_states(self) -> list[BatchNormState]:
        return [state for unit in self.units for state in unit.bn_states()]


class PrimaryModel(_UnitChain):
    """The trained artifact: local units 1..L and the global classifier.
    Inference touches only these parameters; auxiliary heads live elsewhere."""

    def __init__(self, network: ValidatedNetwork, seed: int = 0):
        super().__init__(network.units, network.spec.classifier, "", seed)
        self.network = network

    @property
    def num_units(self) -> int:
        return self.network.num_units

    def unit_param_names(self, index: int) -> list[str]:
        prefix = f"unit{index}."
        return [n for n in self.params.names() if n.startswith(prefix)]

    def classifier_param_names(self) -> list[str]:
        return [n for n in self.params.names() if n.startswith("classifier.")]

    def forward_unit(self, index: int, x: Tensor, training: bool) -> Tensor:
        return self.units[index - 1].forward(x, training)

    # defined in the class body so that tracing can wrap it per class
    forward_logits = _UnitChain.forward_logits


class AuxModel(_UnitChain):
    """One hidden layer's auxiliary head, with parameters disjoint from the
    primary network and from every other head."""

    def __init__(self, spec: AuxNetworkSpec, seed: int = 0):
        super().__init__(spec.units, spec.classifier, f"aux{spec.layer}.", seed)
        self.spec = spec

    forward = _UnitChain.forward_logits
