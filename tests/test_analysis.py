"""Representation similarity, probing, and the memory model."""

import numpy as np
import pytest

from auglocal import analysis
from auglocal.analysis import (
    MAX_FEATURE_COLUMNS,
    _feature_sketch,
    _flatten_features,
    layerwise_cka,
    linear_cka,
    linear_probe,
    peak_memory,
)
from auglocal.auxbuild import plan_all
from auglocal.data import gen_synthetic
from auglocal.errors import ConfigError, RowCountMismatch, SpecMismatch
from auglocal.netspec import (
    ClassifierSpec,
    LocalUnitSpec,
    PrimaryNetworkSpec,
    resnet32_cifar,
    resnet110_cifar,
    tinynet8,
    validate,
)
from auglocal.nn import PrimaryModel


def small_net():
    units = (
        LocalUnitSpec("conv3x3", 3, 4),
        LocalUnitSpec("conv3x3", 4, 4),
        LocalUnitSpec("conv3x3", 4, 8, stride=2),
    )
    return validate(PrimaryNetworkSpec(units, ClassifierSpec(8, 4), (3, 6, 6), 4,
                                       name="small3"))


def test_cka_identity_is_one():
    x = np.random.default_rng(0).normal(size=(50, 12))
    assert linear_cka(x, x) == pytest.approx(1.0)


def test_cka_orthogonal_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 8))
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    assert linear_cka(x, x @ q) == pytest.approx(1.0, abs=1e-10)


def test_cka_scale_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 6))
    y = rng.normal(size=(30, 9))
    assert linear_cka(3.7 * x, y) == pytest.approx(linear_cka(x, y), abs=1e-12)
    assert linear_cka(x, -0.2 * y) == pytest.approx(linear_cka(x, y), abs=1e-12)


def test_cka_symmetry_and_range():
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.normal(size=(25, 7))
        y = rng.normal(size=(25, 11))
        v = linear_cka(x, y)
        assert 0.0 <= v <= 1.0 + 1e-12
        assert v == pytest.approx(linear_cka(y, x), abs=1e-12)


def test_cka_independent_gaussians_near_zero():
    # for independent features the statistic concentrates near p/n
    rng = np.random.default_rng(4)
    vals = [linear_cka(rng.normal(size=(500, 10)), rng.normal(size=(500, 10)))
            for _ in range(10)]
    assert max(vals) < 0.06


def test_cka_degenerate_and_mismatch():
    x = np.random.default_rng(5).normal(size=(10, 3))
    assert linear_cka(x, np.zeros((10, 3))) == 0.0
    assert linear_cka(x, np.ones((10, 3))) == 0.0    # constant columns center to 0
    with pytest.raises(RowCountMismatch):
        linear_cka(x, np.zeros((11, 3)))
    with pytest.raises(RowCountMismatch):
        linear_cka(x[:1], x[:1])


def test_feature_sketch_preserves_cka_approximately():
    rng = np.random.default_rng(6)
    wide = rng.normal(size=(64, MAX_FEATURE_COLUMNS + 512))
    sk = _flatten_features(wide, _feature_sketch(wide.shape[1]))
    assert sk.shape == (64, MAX_FEATURE_COLUMNS)
    # a sketch of x against x itself stays near 1
    assert linear_cka(sk, sk) == pytest.approx(1.0)
    # and the sketch is drawn from a fixed seed, so identical features
    # sketch identically
    np.testing.assert_array_equal(sk, _flatten_features(wide, _feature_sketch(wide.shape[1])))
    # narrow features are only flattened
    assert _feature_sketch(MAX_FEATURE_COLUMNS) is None


def test_layerwise_cka_draws_one_sketch_per_wide_layer(monkeypatch):
    # resnet32's units 1-11 emit more than MAX_FEATURE_COLUMNS values per
    # example; each gets one projection, shared by both models
    drawn = []

    def counting_sketch(p):
        if p <= MAX_FEATURE_COLUMNS:
            return None
        drawn.append(p)
        return np.eye(p, 8)     # a cheap stand-in for the p x 4096 draw

    monkeypatch.setattr(analysis, "_feature_sketch", counting_sketch)
    net = validate(resnet32_cifar())
    x = gen_synthetic(10, (3, 32, 32), 1, seed=4).images[:3]
    out = layerwise_cka(PrimaryModel(net, seed=0), PrimaryModel(net, seed=1), x)
    assert len(out["per_layer"]) == 16
    assert drawn == [16 * 32 * 32] * 6 + [32 * 16 * 16] * 5


def test_layerwise_cka_same_model_is_one_everywhere():
    net = small_net()
    model = PrimaryModel(net, seed=0)
    x = gen_synthetic(4, (3, 6, 6), 8, seed=7).images
    out = layerwise_cka(model, model, x)
    assert len(out["per_layer"]) == net.num_units
    assert out["average"] == pytest.approx(1.0)
    for v in out["per_layer"]:
        assert v == pytest.approx(1.0)


def test_layerwise_cka_different_seeds_below_one():
    net = small_net()
    a = PrimaryModel(net, seed=0)
    b = PrimaryModel(net, seed=99)
    x = gen_synthetic(4, (3, 6, 6), 16, seed=8).images
    out = layerwise_cka(a, b, x)
    assert out["average"] < 1.0


def test_layerwise_cka_spec_mismatch():
    a = PrimaryModel(small_net(), seed=0)
    b = PrimaryModel(validate(tinynet8()), seed=0)
    x = np.zeros((4, 3, 6, 6))
    with pytest.raises(SpecMismatch):
        layerwise_cka(a, b, x)


def test_linear_probe_separates_trained_from_random_features():
    from auglocal.trainer import TrainConfig, train
    units = (LocalUnitSpec("conv3x3", 3, 8), LocalUnitSpec("conv3x3", 8, 8),
             LocalUnitSpec("conv3x3", 8, 16, stride=2))
    net = validate(PrimaryNetworkSpec(units, ClassifierSpec(16, 4), (3, 6, 6), 4,
                                      name="w3"))
    tr = gen_synthetic(4, (3, 6, 6), 40, seed=9, separation=5.0)
    te = gen_synthetic(4, (3, 6, 6), 15, seed=109, separation=5.0)
    cfg = TrainConfig(mode="bp", epochs=10, lr=0.2, batch_size=32, seed=1)
    learner, _ = train(net, cfg, (tr.images, tr.labels))
    probe_args = ((tr.images, tr.labels), (te.images, te.labels))
    trained = linear_probe(learner.model, 3, *probe_args, epochs=20, lr=0.1)
    random_feats = linear_probe(PrimaryModel(net, seed=0), 3, *probe_args,
                                epochs=20, lr=0.1)
    assert trained > 0.5            # chance is 0.25
    assert trained > random_feats + 0.15


def test_linear_probe_is_deterministic():
    net = small_net()
    model = PrimaryModel(net, seed=0)
    tr = gen_synthetic(4, (3, 6, 6), 10, seed=10, separation=5.0)
    te = gen_synthetic(4, (3, 6, 6), 5, seed=110, separation=5.0)
    args = (model, 2, (tr.images, tr.labels), (te.images, te.labels))
    assert linear_probe(*args, epochs=5, seed=3) == linear_probe(*args, epochs=5,
                                                                 seed=3)


def test_linear_probe_leaves_model_untouched():
    net = small_net()
    model = PrimaryModel(net, seed=0)
    before = {n: t.data.copy() for n, t in model.params.items()}
    tr = gen_synthetic(4, (3, 6, 6), 10, seed=11)
    te = gen_synthetic(4, (3, 6, 6), 5, seed=111)
    linear_probe(model, 1, (tr.images, tr.labels), (te.images, te.labels),
                 epochs=2)
    for n, old in before.items():
        np.testing.assert_array_equal(old, model.params[n].data)


def test_linear_probe_rejects_layers_outside_the_model():
    # layer 0 would probe the raw input, -1 unit L-1 and L+1 the top unit
    model = PrimaryModel(small_net(), seed=0)
    tr = gen_synthetic(4, (3, 6, 6), 5, seed=12)
    for layer in (0, -1, model.num_units + 1):
        with pytest.raises(ConfigError, match="outside 1..3"):
            linear_probe(model, layer, (tr.images, tr.labels), (tr.images, tr.labels),
                         epochs=1)


def test_peak_memory_bp_grows_linearly_in_batch():
    net = validate(tinynet8())
    m1 = peak_memory(net, "bp", 1)
    m2 = peak_memory(net, "bp", 101)
    # static part is batch-independent; activation part scales linearly
    static = (101 * m1 - m2) / 100
    assert peak_memory(net, "bp", 51) == pytest.approx(static + 51 * (m1 - static))


def test_peak_memory_local_much_smaller_on_deep_net():
    net = validate(resnet110_cifar())
    plan = plan_all(net, d=2)
    bp = peak_memory(net, "bp", 1024)
    local = peak_memory(net, "local", 1024, plan=plan)
    assert 1.0 - local / bp >= 0.85


def test_peak_memory_local_requires_plan_and_known_mode():
    net = validate(tinynet8())
    with pytest.raises(ValueError):
        peak_memory(net, "local", 8)
    with pytest.raises(ValueError):
        peak_memory(net, "sideways", 8)


def test_peak_memory_local_counts_aux_parameters():
    net = validate(tinynet8())
    p2 = plan_all(net, d=2)
    p3 = plan_all(net, d=3)
    # deeper heads mean more aux parameters and larger local footprint
    assert peak_memory(net, "local", 1, plan=p3) > peak_memory(net, "local", 1,
                                                              plan=p2)
