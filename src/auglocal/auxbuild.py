"""Construction of per-layer auxiliary networks.

Each hidden layer gets a small head built from the structures of its own
downstream layers: a depth schedule decides how many trainable layers the
head has, a selection strategy picks which downstream units to copy, and a
dimension-adaptation rule rewrites channel counts and strides so the copied
chain type-checks. Parameters are always freshly initialized; only
structure is reused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DepthExceedsRemaining, InvalidDepthBounds, UnknownStrategy
from .netspec import (
    ClassifierSpec,
    LocalUnitSpec,
    ValidatedNetwork,
    chain_flops,
    count_flops,
    write_document,
)

STRATEGIES = ("uniform", "sequential", "repetitive", "handcrafted-c1x1", "handcrafted-c3x3")

# the widest handcrafted head find_width_multiplier considers, in multiples of
# the hidden layer's channels
_MAX_WIDTH_MULTIPLIER = 64


def _round_half_away(x: float) -> int:
    """Nearest integer, ties away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def check_head_settings(strategy: str = "uniform", d: int = 2, d_min: int = 2,
                        tau: float = 0.0) -> None:
    """Reject a head setting the plan does not define: a strategy outside
    STRATEGIES, depth bounds other than ``d >= d_min >= 2``, or a decay
    rate ``tau`` outside [0, 1], NaN included. The defaults are valid, so a
    caller checks only the settings it names."""
    if strategy not in STRATEGIES:
        raise UnknownStrategy(f"unknown strategy: {strategy!r}")
    if d < d_min or d_min < 2:
        raise InvalidDepthBounds(f"need d >= d_min >= 2, got d={d}, d_min={d_min}")
    if not 0.0 <= tau <= 1.0:
        raise InvalidDepthBounds(f"tau must lie in [0, 1], got {tau}")


def pyramidal_depth(layer: int, num_units: int, d: int, d_min: int, tau: float) -> int:
    """Depth of the auxiliary head for hidden layer ``layer``.

    Starts at the maximum ``d`` for the first hidden layer and decays
    linearly toward ``d_min`` at rate ``tau``, capped by the number of
    layers remaining to the top.
    """
    check_head_settings(d=d, d_min=d_min, tau=tau)
    if num_units < 3:
        raise InvalidDepthBounds(f"need at least 3 local units, got {num_units}")
    if not 1 <= layer <= num_units - 1:
        raise InvalidDepthBounds(f"layer {layer} outside [1, {num_units - 1}]")
    frac = tau * (layer - 1) / (num_units - 2)
    return min(_round_half_away((1.0 - frac) * d + frac * d_min), num_units - layer + 1)


def _check_depth(layer: int, num_units: int, depth: int) -> None:
    if not 2 <= depth <= num_units - layer + 1:
        raise DepthExceedsRemaining(
            f"depth {depth} invalid for layer {layer} of {num_units} units")


def select_uniform(layer: int, num_units: int, depth: int) -> list[int]:
    """Evenly spaced downstream unit indices, always ending at the top unit."""
    _check_depth(layer, num_units, depth)
    return [layer + _round_half_away((num_units - layer) * i / (depth - 1))
            for i in range(1, depth)]


def select_sequential(layer: int, num_units: int, depth: int) -> list[int]:
    """The immediately following units."""
    _check_depth(layer, num_units, depth)
    return list(range(layer + 1, layer + depth))


def select_repetitive(layer: int, depth: int) -> list[int]:
    """The layer's own structure repeated (fresh parameters each copy)."""
    if depth < 2:
        raise DepthExceedsRemaining(f"repetitive selection needs depth >= 2, got {depth}")
    return [layer] * (depth - 1)


@dataclass(frozen=True)
class AuxNetworkSpec:
    """One hidden layer's auxiliary head: adapted units plus a fresh
    pool-and-classify top."""
    layer: int
    depth: int
    strategy: str
    indices: tuple[int, ...]
    units: tuple[LocalUnitSpec, ...]
    classifier: ClassifierSpec
    input_shape: tuple[int, int, int]   # shape of the hidden activation it consumes

    def flops(self) -> int:
        return chain_flops(self.units, self.input_shape, self.classifier)


def _adapt_chain(source_units, in_channels: int) -> list[LocalUnitSpec]:
    """Rewrite input channels so the chain composes; downsample (stride 2)
    exactly when a unit's output channels are at least double its adapted
    input channels."""
    adapted = []
    cur = in_channels
    for src in source_units:
        stride = 2 if src.out_channels >= 2 * cur else 1
        adapted.append(replace(src, in_channels=cur, stride=stride))
        cur = src.out_channels
    return adapted


def _handcrafted_units(in_c: int, strategy: str, depth: int,
                       multiplier: int) -> list[LocalUnitSpec]:
    """A handcrafted head's constant-width conv stack: ``depth - 1`` units
    of ``in_c * multiplier`` channels."""
    kind = "conv1x1" if strategy == "handcrafted-c1x1" else "conv3x3"
    width = in_c * multiplier
    return [LocalUnitSpec(kind, in_c if i == 0 else width, width) for i in range(depth - 1)]


def build_aux(network: ValidatedNetwork, layer: int, strategy: str,
              depth: int) -> AuxNetworkSpec:
    """Build the auxiliary head for one hidden layer. A handcrafted head's
    width is the one :func:`find_width_multiplier` picks to match the FLOPs
    of the uniform head at equal depth."""
    check_head_settings(strategy=strategy)
    num_units = network.num_units
    if not 1 <= layer <= num_units - 1:
        raise DepthExceedsRemaining(f"layer {layer} has no auxiliary head")
    in_c = network.units[layer - 1].out_channels

    if strategy.startswith("handcrafted"):
        _check_depth(layer, num_units, depth)
        indices = []
        units = _handcrafted_units(in_c, strategy, depth,
                                   find_width_multiplier(network, layer, depth, strategy))
    else:
        if strategy == "uniform":
            indices = select_uniform(layer, num_units, depth)
        elif strategy == "sequential":
            indices = select_sequential(layer, num_units, depth)
        else:
            indices = select_repetitive(layer, depth)
        units = _adapt_chain([network.units[i - 1] for i in indices], in_c)

    clf = ClassifierSpec(units[-1].out_channels, network.spec.num_classes)
    return AuxNetworkSpec(layer=layer, depth=depth, strategy=strategy,
                          indices=tuple(indices), units=tuple(units),
                          classifier=clf, input_shape=network.unit_shapes[layer - 1])


def find_width_multiplier(network: ValidatedNetwork, layer: int, depth: int,
                          strategy: str) -> int:
    """The integer channel multiplier in 1.._MAX_WIDTH_MULTIPLIER whose
    handcrafted head comes nearest the FLOPs of the uniform head at equal
    depth; a tie goes to the larger multiplier."""
    target = build_aux(network, layer, "uniform", depth).flops()
    in_shape = network.unit_shapes[layer - 1]
    num_classes = network.spec.num_classes

    def error(m: int) -> int:
        units = _handcrafted_units(in_shape[0], strategy, depth, m)
        clf = ClassifierSpec(units[-1].out_channels, num_classes)
        return abs(chain_flops(units, in_shape, clf) - target)

    return min(range(_MAX_WIDTH_MULTIPLIER, 0, -1), key=error)


@dataclass(frozen=True)
class AuxPlan:
    """Auxiliary heads for every hidden layer of a validated network."""
    network: ValidatedNetwork
    aux: tuple[AuxNetworkSpec, ...]     # one per hidden layer 1..L-1
    d: int
    d_min: int
    tau: float
    strategy: str

    def aux_flops(self) -> int:
        return sum(a.flops() for a in self.aux)

    def total_flops(self) -> int:
        return count_flops(self.network) + self.aux_flops()

    def depths(self) -> list[int]:
        return [a.depth for a in self.aux]


def plan_all(network: ValidatedNetwork, d: int, d_min: int = 2, tau: float = 0.5,
             strategy: str = "uniform") -> AuxPlan:
    """Plan auxiliary heads for all hidden layers; the top unit gets none
    (it trains jointly with the global classifier)."""
    heads = tuple(build_aux(network, layer, strategy,
                            pyramidal_depth(layer, network.num_units, d, d_min, tau))
                  for layer in range(1, network.num_units))
    return AuxPlan(network=network, aux=heads, d=d, d_min=d_min, tau=tau,
                   strategy=strategy)


def emit_plan_text(plan: AuxPlan) -> str:
    """Structured text rendering of a plan, for diffing against expectations."""
    return write_document("plan/1", [
        ("plan", {"network": plan.network.spec.name, "strategy": plan.strategy, "d": plan.d,
                  "d_min": plan.d_min, "tau": plan.tau,
                  "primary_flops": count_flops(plan.network), "aux_flops": plan.aux_flops(),
                  "total_flops": plan.total_flops()}),
        *((f"layer {a.layer}", {
            "depth": a.depth, "indices": ",".join(map(str, a.indices)), "flops": a.flops(),
            **{f"unit{j}": f"{u.kind} {u.in_channels}->{u.out_channels} stride {u.stride}"
               for j, u in enumerate(a.units, start=1)},
            "classifier": f"global-average-pool + fc "
                          f"{a.classifier.in_channels}->{a.classifier.num_classes}",
        }) for a in plan.aux),
    ])
