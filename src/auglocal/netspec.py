"""Declarative network descriptions: validation, parameter and FLOPs counts.

A primary network is an ordered chain of local units (unit 1 is the stem)
followed by a global-average-pool + fully-connected classifier. FLOPs use
the MAC-as-1 convention: convolutions and dense layers count multiplies,
normalization/activation/pooling count zero.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .errors import ChannelChainBreak, ConfigError, SpatialCollapse

UNIT_KINDS = ("conv3x3", "conv1x1", "residual-basic-block", "dense")


@dataclass(frozen=True)
class LocalUnitSpec:
    kind: str
    in_channels: int
    out_channels: int
    stride: int = 1
    has_norm: bool = True

    def __post_init__(self):
        if self.kind not in UNIT_KINDS:
            raise ChannelChainBreak(f"unknown unit kind: {self.kind}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ChannelChainBreak("channel counts must be positive")
        if self.stride not in (1, 2):
            raise ChannelChainBreak(f"stride must be 1 or 2, got {self.stride}")

    @property
    def needs_projection(self) -> bool:
        """Residual shortcut needs a 1x1 projection when shapes change."""
        return self.kind == "residual-basic-block" and (
            self.in_channels != self.out_channels or self.stride == 2)


@dataclass(frozen=True)
class ClassifierSpec:
    in_channels: int
    num_classes: int
    pooling: str = "global-average-pool"


@dataclass(frozen=True)
class PrimaryNetworkSpec:
    """Unit 1 is the stem; ``num_units`` is the layer count excluding the
    classifier."""
    units: tuple[LocalUnitSpec, ...]
    classifier: ClassifierSpec
    input_shape: tuple[int, int, int]   # (C, H, W)
    num_classes: int
    name: str = "custom"

    @property
    def num_units(self) -> int:
        return len(self.units)


@dataclass(frozen=True)
class ValidatedNetwork:
    spec: PrimaryNetworkSpec
    unit_shapes: tuple[tuple[int, int, int], ...]   # output (C, H, W) per unit

    @property
    def num_units(self) -> int:
        return self.spec.num_units

    @property
    def units(self) -> tuple[LocalUnitSpec, ...]:
        return self.spec.units


def _unit_out_shape(unit: LocalUnitSpec, in_shape: tuple[int, int, int]):
    c, h, w = in_shape
    if unit.in_channels != c:
        raise ChannelChainBreak(
            f"unit expects {unit.in_channels} input channels, chain provides {c}")
    if unit.kind == "dense":
        if h != 1 or w != 1:
            raise ChannelChainBreak("dense unit requires a (C, 1, 1) input")
        return (unit.out_channels, 1, 1)
    # zero padding k // 2 for k in {1, 3}: (H + 2p - k) // s + 1 == (H - 1) // s + 1
    ho = (h - 1) // unit.stride + 1
    wo = (w - 1) // unit.stride + 1
    if ho < 1 or wo < 1:
        raise SpatialCollapse(f"spatial size collapses at unit {unit}")
    return (unit.out_channels, ho, wo)


def validate(spec: PrimaryNetworkSpec) -> ValidatedNetwork:
    """Shape-chain every unit symbolically from the input shape."""
    if spec.num_units < 2:
        raise ChannelChainBreak("a primary network needs at least 2 local units")
    shapes = []
    cur = spec.input_shape
    for prev, unit in zip((None,) + spec.units, spec.units):
        # a dense unit emits a rank-2 (N, C) tensor, which only dense units take
        if prev is not None and prev.kind == "dense" and unit.kind != "dense":
            raise ChannelChainBreak(f"a {unit.kind} unit cannot follow a dense unit")
        cur = _unit_out_shape(unit, cur)
        shapes.append(cur)
    if spec.classifier.in_channels != cur[0]:
        raise ChannelChainBreak(
            f"classifier expects {spec.classifier.in_channels} channels, "
            f"last unit emits {cur[0]}")
    if spec.classifier.num_classes != spec.num_classes:
        raise ChannelChainBreak("classifier arity disagrees with num_classes")
    return ValidatedNetwork(spec=spec, unit_shapes=tuple(shapes))


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def unit_flops(unit: LocalUnitSpec, in_shape: tuple[int, int, int]) -> int:
    """MACs of one unit given its input (C, H, W). Norm/ReLU count zero."""
    out_c, ho, wo = _unit_out_shape(unit, in_shape)
    out_positions = ho * wo
    if unit.kind == "dense":
        return unit.in_channels * unit.out_channels
    if unit.kind in ("conv3x3", "conv1x1"):
        k = 3 if unit.kind == "conv3x3" else 1
        return out_positions * k * k * unit.in_channels * unit.out_channels
    # residual basic block: two 3x3 convs plus optional 1x1 projection
    conv1 = out_positions * 9 * unit.in_channels * unit.out_channels
    conv2 = out_positions * 9 * unit.out_channels * unit.out_channels
    proj = out_positions * unit.in_channels * unit.out_channels if unit.needs_projection else 0
    return conv1 + conv2 + proj


def unit_params(unit: LocalUnitSpec) -> int:
    """Trainable scalar count, including norm affine parameters."""
    def conv_p(cin, cout, k, norm):
        p = k * k * cin * cout
        p += 2 * cout if norm else cout   # BN affine, or bias when unnormalized
        return p

    if unit.kind == "dense":
        return unit.in_channels * unit.out_channels + unit.out_channels
    if unit.kind in ("conv3x3", "conv1x1"):
        k = 3 if unit.kind == "conv3x3" else 1
        return conv_p(unit.in_channels, unit.out_channels, k, unit.has_norm)
    p = conv_p(unit.in_channels, unit.out_channels, 3, unit.has_norm)
    p += conv_p(unit.out_channels, unit.out_channels, 3, unit.has_norm)
    if unit.needs_projection:
        p += conv_p(unit.in_channels, unit.out_channels, 1, unit.has_norm)
    return p


def classifier_flops(clf: ClassifierSpec) -> int:
    return clf.in_channels * clf.num_classes


def classifier_params(clf: ClassifierSpec) -> int:
    return clf.in_channels * clf.num_classes + clf.num_classes


def chain_flops(units, input_shape, classifier: ClassifierSpec | None = None) -> int:
    """FLOPs of a unit chain (plus optional classifier) from a given input."""
    total = 0
    cur = input_shape
    for unit in units:
        total += unit_flops(unit, cur)
        cur = _unit_out_shape(unit, cur)
    if classifier is not None:
        total += classifier_flops(classifier)
    return total


def count_flops(net: ValidatedNetwork) -> int:
    return chain_flops(net.spec.units, net.spec.input_shape, net.spec.classifier)


def count_params(net: ValidatedNetwork) -> int:
    return sum(unit_params(u) for u in net.spec.units) + classifier_params(net.spec.classifier)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def resnet_cifar(blocks_per_stage: int, num_classes: int = 10) -> PrimaryNetworkSpec:
    """Stem conv + 3 stages of basic blocks at 16/32/64 channels on 32x32 input."""
    units = [LocalUnitSpec("conv3x3", 3, 16)]
    channels = [(16, 16), (16, 32), (32, 64)]
    for stage, (cin, cout) in enumerate(channels):
        for b in range(blocks_per_stage):
            stride = 2 if stage > 0 and b == 0 else 1
            units.append(LocalUnitSpec("residual-basic-block",
                                       cin if b == 0 else cout, cout, stride))
    return PrimaryNetworkSpec(
        units=tuple(units),
        classifier=ClassifierSpec(64, num_classes),
        input_shape=(3, 32, 32),
        num_classes=num_classes,
        name=f"resnet{6 * blocks_per_stage + 2}-cifar",
    )


def resnet32_cifar() -> PrimaryNetworkSpec:
    return resnet_cifar(5)


def resnet110_cifar() -> PrimaryNetworkSpec:
    return resnet_cifar(18)


def vgg_plain(num_classes: int = 10) -> PrimaryNetworkSpec:
    """A small plain conv stack in the VGG style (conv local units)."""
    cfg = [(3, 64, 1), (64, 64, 1), (64, 128, 2), (128, 128, 1),
           (128, 256, 2), (256, 256, 1), (256, 256, 1)]
    units = tuple(LocalUnitSpec("conv3x3", cin, cout, s) for cin, cout, s in cfg)
    return PrimaryNetworkSpec(units=units, classifier=ClassifierSpec(256, num_classes),
                              input_shape=(3, 32, 32), num_classes=num_classes,
                              name="vgg-plain")


def tinynet8(num_classes: int = 10) -> PrimaryNetworkSpec:
    """8 conv local units at 16/32 channels on 8x8 inputs; desk-scale preset."""
    cfg = [(3, 16, 1), (16, 16, 1), (16, 16, 1), (16, 16, 1),
           (16, 32, 2), (32, 32, 1), (32, 32, 1), (32, 32, 1)]
    units = tuple(LocalUnitSpec("conv3x3", cin, cout, s) for cin, cout, s in cfg)
    return PrimaryNetworkSpec(units=units, classifier=ClassifierSpec(32, num_classes),
                              input_shape=(3, 8, 8), num_classes=num_classes,
                              name="tinynet8")


PRESETS = {
    "resnet32-cifar": resnet32_cifar,
    "resnet110-cifar": resnet110_cifar,
    "vgg-plain": vgg_plain,
    "tinynet8": tinynet8,
}


def preset(name: str) -> PrimaryNetworkSpec:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigError(f"unknown network preset: {name!r}") from None


# ---------------------------------------------------------------------------
# text serialization (lossless round trip)
# ---------------------------------------------------------------------------

def emit_network_text(spec: PrimaryNetworkSpec) -> str:
    out = io.StringIO()
    out.write("format = network/1\n")
    out.write("[network]\n")
    out.write(f"name = {spec.name}\n")
    out.write(f"input_shape = {spec.input_shape[0]},{spec.input_shape[1]},{spec.input_shape[2]}\n")
    out.write(f"num_classes = {spec.num_classes}\n")
    for i, u in enumerate(spec.units, start=1):
        out.write(f"[unit {i}]\n")
        out.write(f"kind = {u.kind}\n")
        out.write(f"in_channels = {u.in_channels}\n")
        out.write(f"out_channels = {u.out_channels}\n")
        out.write(f"stride = {u.stride}\n")
        out.write(f"has_norm = {'true' if u.has_norm else 'false'}\n")
    out.write("[classifier]\n")
    out.write(f"pooling = {spec.classifier.pooling}\n")
    out.write(f"in_channels = {spec.classifier.in_channels}\n")
    out.write(f"num_classes = {spec.classifier.num_classes}\n")
    return out.getvalue()


def _parse_sections(text: str):
    """Parse 'key = value' lines grouped under [section] headers. The
    pre-section header area is section ''."""
    sections: list[tuple[str, dict[str, str]]] = [("", {})]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            sections.append((line[1:-1].strip(), {}))
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in sections[-1][1]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[-1][1][key] = val
    return sections


def _parse_bool(s: str) -> bool:
    if s not in ("true", "false"):
        raise ConfigError(f"expected true/false, got {s!r}")
    return s == "true"


def _field(kv: dict[str, str], key: str, section: str, cast=str):
    if key not in kv:
        raise ConfigError(f"[{section}] is missing {key!r}")
    try:
        return cast(kv[key])
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {kv[key]!r} is not valid") from None


def _known_keys(kv: dict[str, str], section: str, allowed: set[str]) -> dict[str, str]:
    unknown = set(kv) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    return kv


def _parse_shape(s: str) -> tuple[int, ...]:
    shape = tuple(int(v) for v in s.split(","))
    if len(shape) != 3:
        raise ConfigError(f"input_shape must be C,H,W, got {s!r}")
    return shape


def parse_network_text(text: str) -> PrimaryNetworkSpec:
    sections = _parse_sections(text)
    head = sections[0][1]
    if head.get("format") != "network/1":
        raise ConfigError(f"unsupported network format: {head.get('format')!r}")
    net: dict[str, str] = {}
    units: list[LocalUnitSpec] = []
    clf: dict[str, str] | None = None
    for name, kv in sections[1:]:
        if name == "network":
            net = _known_keys(kv, name, {"name", "input_shape", "num_classes"})
        elif name.startswith("unit "):
            try:
                idx = int(name[len("unit "):])
            except ValueError:
                raise ConfigError(f"unit index is not an integer: [{name}]") from None
            if idx != len(units) + 1:
                raise ConfigError(f"unit sections out of order at [unit {idx}]")
            _known_keys(kv, name, {"kind", "in_channels", "out_channels", "stride", "has_norm"})
            try:
                units.append(LocalUnitSpec(
                    kind=_field(kv, "kind", name),
                    in_channels=_field(kv, "in_channels", name, int),
                    out_channels=_field(kv, "out_channels", name, int),
                    stride=_field(kv, "stride", name, int),
                    has_norm=_field(kv, "has_norm", name, _parse_bool),
                ))
            except ChannelChainBreak as exc:
                raise ConfigError(f"[{name}]: {exc}") from None
        elif name == "classifier":
            clf = _known_keys(kv, name, {"pooling", "in_channels", "num_classes"})
        else:
            raise ConfigError(f"unknown section [{name}]")
    if not net or clf is None or not units:
        raise ConfigError("network document is missing required sections")
    pooling = clf.get("pooling", "global-average-pool")
    if pooling != "global-average-pool":
        raise ConfigError(f"unsupported classifier pooling: {pooling!r}")
    return PrimaryNetworkSpec(
        units=tuple(units),
        classifier=ClassifierSpec(_field(clf, "in_channels", "classifier", int),
                                  _field(clf, "num_classes", "classifier", int), pooling),
        input_shape=_field(net, "input_shape", "network", _parse_shape),  # type: ignore[arg-type]
        num_classes=_field(net, "num_classes", "network", int),
        name=net.get("name", "custom"),
    )
