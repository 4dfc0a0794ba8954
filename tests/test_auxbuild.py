"""Auxiliary head planning: depth schedule, selection, adaptation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auglocal.auxbuild import (
    build_aux,
    find_width_multiplier,
    plan_all,
    pyramidal_depth,
    select_repetitive,
    select_sequential,
    select_uniform,
)
from auglocal.errors import (
    DepthExceedsRemaining,
    InvalidDepthBounds,
    UnknownStrategy,
)
from auglocal.netspec import (
    PRESETS,
    ClassifierSpec,
    LocalUnitSpec,
    chain_flops,
    preset,
    validate,
)
from auglocal.nn import AuxModel, PrimaryModel


def test_depth_starts_at_maximum():
    assert pyramidal_depth(1, 55, 6, 2, 0.5) == 6


def test_depth_capped_near_the_top():
    assert pyramidal_depth(54, 55, 6, 2, 0.5) == 2


def test_depth_midway_hand_value():
    # (1 - 0.5*27/53)*6 + 0.5*27/53*2 = 4.981..., rounds to 5
    assert pyramidal_depth(28, 55, 6, 2, 0.5) == 5


def test_depth_invalid_bounds():
    with pytest.raises(InvalidDepthBounds):
        pyramidal_depth(1, 10, 2, 3, 0.5)
    with pytest.raises(InvalidDepthBounds):
        pyramidal_depth(1, 10, 4, 1, 0.5)


def test_depth_tau_zero_disables_decay():
    for layer in range(1, 55):
        assert pyramidal_depth(layer, 55, 6, 2, 0.0) == min(6, 55 - layer + 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 80), st.integers(2, 9), st.floats(0.0, 1.0))
def test_depth_non_increasing_in_layer(num_units, d, tau):
    depths = [pyramidal_depth(l, num_units, d, 2, tau) for l in range(1, num_units)]
    assert all(a >= b for a, b in zip(depths, depths[1:]))


def test_uniform_selection_hand_values():
    assert select_uniform(4, 16, 4) == [8, 12, 16]
    assert select_uniform(15, 16, 2) == [16]


def test_uniform_selection_last_unit_on_deep_net(r110):
    assert select_uniform(1, 55, 2) == [55]
    aux = build_aux(r110, 1, "uniform", 2)
    assert aux.units[0].out_channels == 64      # the "64R-AP-10FC" head


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_uniform_selection_increasing_and_ends_at_top(data):
    num_units = data.draw(st.integers(3, 60))
    layer = data.draw(st.integers(1, num_units - 1))
    depth = data.draw(st.integers(2, num_units - layer + 1))
    idx = select_uniform(layer, num_units, depth)
    assert all(a < b for a, b in zip(idx, idx[1:]))
    assert idx[-1] == num_units
    assert all(layer < i <= num_units for i in idx)
    if depth - 1 == num_units - layer:
        assert idx == list(range(layer + 1, num_units + 1))


def test_sequential_selection():
    assert select_sequential(4, 16, 4) == [5, 6, 7]
    assert select_sequential(15, 16, 2) == [16]
    # full-suffix depth: sequential equals uniform
    assert select_sequential(10, 16, 7) == select_uniform(10, 16, 7)


def test_repetitive_selection():
    assert select_repetitive(7, 4) == [7, 7, 7]
    assert select_repetitive(7, 2) == [7]


def test_depth_exceeds_remaining():
    with pytest.raises(DepthExceedsRemaining):
        select_uniform(15, 16, 3)
    with pytest.raises(DepthExceedsRemaining):
        select_sequential(15, 16, 3)


def test_aux_stage1_is_downsampled_wide_block(r110):
    aux = build_aux(r110, 5, "uniform", 2)     # stage-1 layer, 16 channels in
    (unit,) = aux.units
    assert unit.kind == "residual-basic-block"
    assert unit.in_channels == 16 and unit.out_channels == 64
    assert unit.stride == 2 and unit.needs_projection
    assert aux.classifier.num_classes == 10


def test_repetitive_never_downsamples(r110):
    aux = build_aux(r110, 7, "repetitive", 3)
    assert len(aux.units) == 2
    for unit in aux.units:
        assert unit.in_channels == unit.out_channels == 16
        assert unit.stride == 1 and not unit.needs_projection


def test_adaptation_chains_and_downsample_rule(r110):
    plan = plan_all(r110, d=6, tau=0.5)
    for aux in plan.aux:
        cur = r110.units[aux.layer - 1].out_channels
        for unit in aux.units:
            assert unit.in_channels == cur
            assert unit.stride == (2 if unit.out_channels >= 2 * unit.in_channels else 1)
            cur = unit.out_channels


def _handcrafted_flops(network, layer, depth, strategy, m):
    """FLOPs of a handcrafted head of multiplier ``m``, built here as an
    explicit constant-width stack plus its classifier."""
    in_shape = network.unit_shapes[layer - 1]
    in_c, width = in_shape[0], in_shape[0] * m
    kind = "conv1x1" if strategy == "handcrafted-c1x1" else "conv3x3"
    units = [LocalUnitSpec(kind, in_c if i == 0 else width, width) for i in range(depth - 1)]
    return chain_flops(units, in_shape, ClassifierSpec(width, network.spec.num_classes))


def test_handcrafted_multiplier_is_the_brute_force_argmin():
    # every preset, both handcrafted strategies, every hidden layer, depths
    # 2 to min(6, layers remaining): the nearest FLOPs over 1..64, a tie
    # going to the larger multiplier
    cases = 0
    for name in sorted(PRESETS):
        net = validate(preset(name))
        for strategy in ("handcrafted-c1x1", "handcrafted-c3x3"):
            for layer in range(1, net.num_units):
                for depth in range(2, min(6, net.num_units - layer + 1) + 1):
                    target = build_aux(net, layer, "uniform", depth).flops()
                    errs = {m: abs(_handcrafted_flops(net, layer, depth, strategy, m) - target)
                            for m in range(1, 65)}
                    low = min(errs.values())
                    best = max(m for m, e in errs.items() if e == low)
                    assert find_width_multiplier(net, layer, depth, strategy) == best
                    head = build_aux(net, layer, strategy, depth)
                    assert head.units[0].out_channels == best * net.unit_shapes[layer - 1][0]
                    cases += 1
    assert cases == 740


def test_handcrafted_structure_is_constant_width_stack(r110):
    m = find_width_multiplier(r110, 20, 3, "handcrafted-c1x1")
    aux = build_aux(r110, 20, "handcrafted-c1x1", 3)
    assert len(aux.units) == 2
    in_c = r110.units[19].out_channels
    for unit in aux.units:
        assert unit.kind == "conv1x1"
        assert unit.out_channels == m * in_c
        assert unit.stride == 1
    assert aux.units[0].in_channels == in_c
    assert aux.units[1].in_channels == m * in_c
    assert aux.classifier.in_channels == m * in_c


def test_handcrafted_parity_when_granularity_allows(r110):
    # one-unit 1x1 heads can track the uniform target closely
    aux = build_aux(r110, 40, "handcrafted-c1x1", 2)
    target = build_aux(r110, 40, "uniform", 2).flops()
    assert abs(aux.flops() - target) / target <= 0.05


def test_unknown_strategy(tiny):
    with pytest.raises(UnknownStrategy):
        build_aux(tiny, 1, "alchemy", 2)


def test_plan_flops_decrease_with_decay(r110):
    totals = [plan_all(r110, d=6, tau=tau).total_flops() for tau in (1.0, 0.5, 0.0)]
    assert totals[0] < totals[1] < totals[2]


def test_plan_covers_all_hidden_layers(tiny):
    plan = plan_all(tiny, d=3)
    assert [a.layer for a in plan.aux] == list(range(1, tiny.num_units))


def test_aux_parameters_disjoint_from_primary_and_each_other(tiny):
    model = PrimaryModel(tiny, seed=0)
    plan = plan_all(tiny, d=3)
    heads = [AuxModel(spec, seed=i) for i, spec in enumerate(plan.aux)]

    def ids(params):
        return {id(t) for _, t in params.items()}

    for head in heads:
        assert not ids(head.params) & ids(model.params)
    for a in heads:
        for b in heads:
            if a is not b:
                assert not ids(a.params) & ids(b.params)
