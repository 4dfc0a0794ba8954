"""Network specs: validation, FLOPs/parameter accounting, serialization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auglocal.errors import ChannelChainBreak, ConfigError
from auglocal.netspec import (
    ClassifierSpec,
    LocalUnitSpec,
    PrimaryNetworkSpec,
    chain_flops,
    count_flops,
    count_params,
    emit_network_text,
    parse_network_text,
    preset,
    resnet32_cifar,
    resnet110_cifar,
    tinynet8,
    unit_flops,
    validate,
)
from auglocal.nn import PrimaryModel
from auglocal.tensor import Tensor


def test_resnet32_has_16_local_units():
    assert validate(resnet32_cifar()).num_units == 16


def test_resnet110_has_55_local_units():
    assert validate(resnet110_cifar()).num_units == 55


def test_channel_chain_break_detected():
    units = (LocalUnitSpec("conv3x3", 3, 16), LocalUnitSpec("conv3x3", 8, 16))
    spec = PrimaryNetworkSpec(units, ClassifierSpec(16, 10), (3, 8, 8), 10)
    with pytest.raises(ChannelChainBreak):
        validate(spec)


def test_resnet110_forward_flops_near_quarter_gigamac():
    flops = count_flops(validate(resnet110_cifar()))
    assert abs(flops - 0.25e9) <= 0.025e9


def test_conv_param_counts():
    # conv3x3 without norm: 9*cin*cout weights + cout bias
    from auglocal.netspec import unit_params
    assert unit_params(LocalUnitSpec("conv3x3", 4, 8, has_norm=False)) == 9 * 4 * 8 + 8


def test_resnet32_params_match_hand_audit():
    # layer-by-layer summation done independently of unit_params
    def conv(cin, cout, k):
        return k * k * cin * cout + 2 * cout    # weight + BN affine

    total = conv(3, 16, 3)                      # stem
    total += 5 * (conv(16, 16, 3) * 2)          # stage 1
    total += conv(16, 32, 3) + conv(32, 32, 3) + conv(16, 32, 1)   # stage 2 entry
    total += 4 * (conv(32, 32, 3) * 2)
    total += conv(32, 64, 3) + conv(64, 64, 3) + conv(32, 64, 1)   # stage 3 entry
    total += 4 * (conv(64, 64, 3) * 2)
    total += 64 * 10 + 10                       # classifier
    assert count_params(validate(resnet32_cifar())) == total


def test_flops_additivity():
    net = validate(tinynet8())
    units = net.spec.units
    whole = chain_flops(units, net.spec.input_shape)
    first = chain_flops(units[:3], net.spec.input_shape)
    rest = chain_flops(units[3:], net.unit_shapes[2])
    assert whole == first + rest


def test_flops_monotonic_in_units():
    net = validate(tinynet8())
    partial = chain_flops(net.spec.units[:4], net.spec.input_shape)
    longer = chain_flops(net.spec.units[:5], net.spec.input_shape)
    assert longer > partial


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 16), st.integers(1, 16), st.sampled_from(["conv3x3", "conv1x1"]),
       st.sampled_from([1, 2]), st.integers(4, 16))
def test_doubling_channels_quadruples_conv_flops(cin, cout, kind, stride, hw):
    base = unit_flops(LocalUnitSpec(kind, cin, cout, stride), (cin, hw, hw))
    doubled = unit_flops(LocalUnitSpec(kind, 2 * cin, 2 * cout, stride),
                         (2 * cin, hw, hw))
    assert doubled == 4 * base


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["conv3x3", "conv1x1", "residual-basic-block"]),
       st.integers(1, 6), st.integers(1, 6), st.booleans(), st.sampled_from([1, 2]),
       st.booleans(), st.integers(1, 7))
@example("residual-basic-block", 4, 4, False, 1, True, 5)      # identity shortcut
@example("residual-basic-block", 4, 4, False, 2, False, 5)     # projection for stride only
def test_unit_counts_match_what_the_built_unit_runs(kind, cin, cout, same_channels,
                                                    stride, has_norm, hw):
    # unit_params is the size of what ConvUnit creates, and unit_flops the
    # MACs of the conv2d calls its forward pass makes, counted from their
    # weight shapes and output sizes
    from unittest import mock

    from auglocal import tensor
    from auglocal.netspec import unit_params
    from auglocal.nn import ConvUnit
    from auglocal.tensor import ParamSet

    if same_channels:
        cout = cin
    spec = LocalUnitSpec(kind, cin, cout, stride, has_norm)
    params = ParamSet()
    unit = ConvUnit(spec, params, "u", np.random.default_rng(0))
    assert unit_params(spec) == sum(t.data.size for _, t in params.items())

    macs = []
    real_conv2d = tensor.conv2d

    def conv2d(x, w, b=None, stride=1):
        y = real_conv2d(x, w, b, stride=stride)
        macs.append(w.data.size * y.shape[2] * y.shape[3])
        return y

    x = Tensor(np.random.default_rng(1).normal(size=(1, cin, hw, hw)))
    with mock.patch.object(tensor, "conv2d", conv2d):
        unit.forward(x, training=True)
    assert macs and unit_flops(spec, (cin, hw, hw)) == sum(macs)


def test_network_text_round_trip_lossless():
    for name in ("tinynet8", "resnet32-cifar", "vgg-plain"):
        spec = preset(name)
        text = emit_network_text(spec)
        assert parse_network_text(text) == spec
        assert emit_network_text(parse_network_text(text)) == text


def test_network_text_rejects_unknown_keys():
    text = emit_network_text(tinynet8()).replace("stride = 1", "stride = 1\nbogus = 2", 1)
    with pytest.raises(ConfigError):
        parse_network_text(text)


@pytest.mark.parametrize("edit", [
    lambda t: t.replace("kind = conv3x3\n", "", 1),
    lambda t: t.replace("num_classes = 10\n", "", 1),
    lambda t: t.replace("[unit 2]", "[unit two]"),
    lambda t: t.replace("in_channels = 3", "in_channels = three", 1),
    lambda t: t.replace("input_shape = 3,8,8", "input_shape = 3,8"),
    lambda t: t.replace("pooling = global-average-pool", "pooling = max-pool"),
    lambda t: t.replace("num_classes = 10\n", "num_classes = 10\nnum_clases = 3\n", 1),
    lambda t: t + "bogus = 1\n",
    lambda t: t.replace("kind = conv3x3", "kind = conv5x5", 1),
    lambda t: t.replace("kind = conv3x3", "kind = dense", 1),
    lambda t: t.replace("stride = 1", "stride = 3", 1),
    lambda t: t.replace("out_channels = 16", "out_channels = 0", 1),
    lambda t: t + "[classifier]\npooling = global-average-pool\nin_channels = 32\n"
                  "num_classes = 7\n",
    lambda t: t.replace("[unit 1]", "[network]\nname = again\ninput_shape = 3,8,8\n"
                                    "num_classes = 10\n[unit 1]", 1),
    lambda t: t.replace("[network]", "seed = 1\n[network]", 1),
], ids=["missing-unit-key", "missing-network-key", "non-integer-index",
        "non-integer-value", "short-input-shape", "unknown-pooling",
        "unknown-network-key", "unknown-classifier-key", "unknown-unit-kind",
        "dense-unit-kind",
        "bad-stride", "non-positive-channels", "repeated-classifier",
        "repeated-network", "key-before-first-section"])
def test_network_text_errors_are_config_errors(edit):
    text = emit_network_text(tinynet8())
    bad = edit(text)
    assert bad != text
    with pytest.raises(ConfigError):
        parse_network_text(bad)


@st.composite
def random_specs(draw):
    """Chains of every unit kind and stride from odd or even input sizes."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    cur = shape[0]
    units = []
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(["conv3x3", "conv1x1", "residual-basic-block"]))
        out = draw(st.integers(1, 4))
        units.append(LocalUnitSpec(kind, cur, out, draw(st.sampled_from([1, 2])),
                                   draw(st.booleans())))
        cur = out
    return PrimaryNetworkSpec(tuple(units), ClassifierSpec(cur, 3), shape, 3)


@settings(max_examples=60, deadline=None)
@given(random_specs())
@example(PrimaryNetworkSpec((LocalUnitSpec("conv3x3", 2, 3, 2),
                             LocalUnitSpec("residual-basic-block", 3, 4, 2),
                             LocalUnitSpec("conv1x1", 4, 2, 2)), ClassifierSpec(2, 3), (2, 9, 7), 3))
def test_validated_shapes_match_execution(spec):
    # the validated (C, H, W) of every unit is the shape it executes at
    net = validate(spec)
    x = np.random.default_rng(0).normal(size=(2, *spec.input_shape))
    model = PrimaryModel(net, seed=0)
    h = Tensor(x)
    executed = []
    for index in range(1, net.num_units + 1):
        h = model.forward_unit(index, h, training=False)
        executed.append(h.shape[1:])
    assert executed == list(net.unit_shapes)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset("resnet9000")
