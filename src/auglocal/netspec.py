"""Declarative network descriptions: validation, parameter and FLOPs counts.

A primary network is an ordered chain of local units (unit 1 is the stem)
followed by a global-average-pool + fully-connected classifier. FLOPs use
the MAC-as-1 convention: convolutions and dense layers count multiplies,
normalization/activation/pooling count zero.
"""

from __future__ import annotations

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


def unit_out_shape(unit: LocalUnitSpec, in_shape: tuple[int, int, int]):
    """Output (C, H, W) of ``unit`` on an input of shape ``in_shape``."""
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
        cur = unit_out_shape(unit, cur)
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

@dataclass(frozen=True)
class ConvSpec:
    """One convolution a unit runs. ``conv`` and ``norm`` are the prefixes
    of its weight (and bias) and of its norm parameters within the unit."""
    conv: str
    norm: str
    in_channels: int
    out_channels: int
    k: int
    stride: int


def unit_convs(unit: LocalUnitSpec) -> tuple[ConvSpec, ...]:
    """The convolutions ``unit`` runs, in creation order. Each is followed by
    its norm, or has a bias when the unit has no norms, and each emits the
    unit's output size. A dense unit runs none."""
    cin, cout, s = unit.in_channels, unit.out_channels, unit.stride
    if unit.kind == "dense":
        return ()
    if unit.kind != "residual-basic-block":
        return (ConvSpec("conv", "norm", cin, cout, 3 if unit.kind == "conv3x3" else 1, s),)
    # basic block: conv3x3-norm-relu-conv3x3-norm, plus a 1x1 projection
    # of the shortcut when channels or stride change
    convs = (ConvSpec("conv1", "norm1", cin, cout, 3, s),
             ConvSpec("conv2", "norm2", cout, cout, 3, 1))
    if unit.needs_projection:
        convs += (ConvSpec("proj", "proj_norm", cin, cout, 1, s),)
    return convs


def unit_flops(unit: LocalUnitSpec, in_shape: tuple[int, int, int]) -> int:
    """MACs of one unit given its input (C, H, W). Norm/ReLU count zero."""
    _, ho, wo = unit_out_shape(unit, in_shape)
    if unit.kind == "dense":
        return unit.in_channels * unit.out_channels
    return sum(ho * wo * c.k * c.k * c.in_channels * c.out_channels for c in unit_convs(unit))


def unit_params(unit: LocalUnitSpec) -> int:
    """Trainable scalar count, including norm affine parameters."""
    if unit.kind == "dense":
        return unit.in_channels * unit.out_channels + unit.out_channels
    per_channel = 2 if unit.has_norm else 1     # norm affine, or a bias
    return sum(c.k * c.k * c.in_channels * c.out_channels + per_channel * c.out_channels
               for c in unit_convs(unit))


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
        cur = unit_out_shape(unit, cur)
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
# text documents: the network, experiment and plan formats
# ---------------------------------------------------------------------------

def write_document(fmt: str, sections) -> str:
    """A ``fmt`` document: the format line, then each ``(section name,
    {key: value})`` pair as a ``[name]`` header and ``key = value`` lines.
    Booleans are written ``true``/``false``."""
    lines = [f"format = {fmt}"]
    for name, kv in sections:
        lines.append(f"[{name}]")
        lines += [f"{k} = {('true' if v else 'false') if isinstance(v, bool) else v}"
                  for k, v in kv.items()]
    return "\n".join(lines) + "\n"


def _content_lines(text: str) -> list[tuple[int, str]]:
    """``(line number, stripped line)`` for every line that is neither blank
    nor a ``#`` comment."""
    lines = [(n, raw.strip()) for n, raw in enumerate(text.splitlines(), start=1)]
    return [(n, line) for n, line in lines if line and not line.startswith("#")]


def document_format(text: str) -> str | None:
    """The format a document's first content line names (``format = X``
    gives ``X``), or None when that line is not a format line."""
    lines = _content_lines(text)
    if not lines:
        return None
    key, eq, value = (s.strip() for s in lines[0][1].partition("="))
    return value if key == "format" and eq else None


def read_document(text: str, fmt: str, schema) -> dict[str, dict]:
    """Read a ``fmt`` document into ``{section name: {key: value}}``, in
    document order.

    A section's kind is the first word of its name, so ``[unit 3]`` is a
    ``unit`` section, and ``schema[kind][key]`` casts each value. Blank
    lines and lines starting with ``#`` are skipped. Reading is fail-closed:
    a missing or wrong format line, any other key before the first section,
    an unknown or repeated section or key, and a value its cast rejects all
    raise ConfigError.
    """
    if document_format(text) != fmt:
        raise ConfigError(f"expected 'format = {fmt}' as the first line")
    sections: dict[str, dict] = {}
    kv: dict | None = None
    for lineno, line in _content_lines(text)[1:]:
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            casts = schema.get(name.partition(" ")[0])
            if casts is None or name in sections:
                raise ConfigError(f"line {lineno}: unknown or repeated section [{name}]")
            kv = sections[name] = {}
            continue
        key, eq, val = (s.strip() for s in line.partition("="))
        if not eq:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if kv is None:
            raise ConfigError(f"line {lineno}: {key!r} comes before the first section")
        if key not in casts or key in kv:
            raise ConfigError(f"line {lineno}: unknown or repeated key {key!r} in [{name}]")
        try:
            kv[key] = casts[key](val)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: [{name}] {key} = {val!r} is not valid: "
                              f"{exc}") from None
    return sections


def require(kv: dict, section: str, keys) -> dict:
    """``kv`` itself, after checking that it holds every one of ``keys``."""
    missing = [k for k in keys if k not in kv]
    if missing:
        raise ConfigError(f"[{section}] is missing {', '.join(missing)}")
    return kv


def _parse_bool(s: str) -> bool:
    if s not in ("true", "false"):
        raise ValueError(f"expected true/false, got {s!r}")
    return s == "true"


def _parse_shape(s: str) -> tuple[int, ...]:
    shape = tuple(int(v) for v in s.split(","))
    if len(shape) != 3:
        raise ValueError(f"input_shape must be C,H,W, got {s!r}")
    return shape


_NETWORK_SCHEMA = {
    "network": {"name": str, "input_shape": _parse_shape, "num_classes": int},
    "unit": {"kind": str, "in_channels": int, "out_channels": int, "stride": int,
             "has_norm": _parse_bool},
    "classifier": {"pooling": str, "in_channels": int, "num_classes": int},
}


def emit_network_text(spec: PrimaryNetworkSpec) -> str:
    clf = spec.classifier
    return write_document("network/1", [
        ("network", {"name": spec.name, "input_shape": ",".join(map(str, spec.input_shape)),
                     "num_classes": spec.num_classes}),
        *((f"unit {i}", vars(u)) for i, u in enumerate(spec.units, start=1)),
        ("classifier", {"pooling": clf.pooling, "in_channels": clf.in_channels,
                        "num_classes": clf.num_classes}),
    ])


def parse_network_text(text: str) -> PrimaryNetworkSpec:
    sections = read_document(text, "network/1", _NETWORK_SCHEMA)
    net = require(sections.pop("network", {}), "network", ("input_shape", "num_classes"))
    clf = require(sections.pop("classifier", {}), "classifier", ("in_channels", "num_classes"))
    if not sections:
        raise ConfigError("a network document needs at least one [unit i] section")
    units = []
    for i, (name, kv) in enumerate(sections.items(), start=1):
        if name != f"unit {i}":
            raise ConfigError(f"expected [unit {i}], got [{name}]")
        try:
            units.append(LocalUnitSpec(**require(kv, name, _NETWORK_SCHEMA["unit"])))
        except ChannelChainBreak as exc:
            raise ConfigError(f"[{name}]: {exc}") from None
    pooling = clf.get("pooling", "global-average-pool")
    if pooling != "global-average-pool":
        raise ConfigError(f"unsupported classifier pooling: {pooling!r}")
    return PrimaryNetworkSpec(
        units=tuple(units),
        classifier=ClassifierSpec(clf["in_channels"], clf["num_classes"], pooling),
        input_shape=net["input_shape"],
        num_classes=net["num_classes"],
        name=net.get("name", "custom"),
    )
