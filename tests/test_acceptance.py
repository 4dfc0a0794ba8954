"""Acceptance suite: one test per criterion, each ending in a single
pass/fail line on stdout (run with -s or read the captured output)."""

import inspect
import os
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from auglocal import tensor as T
from auglocal.analysis import layerwise_cka, linear_cka, peak_memory
from auglocal.auxbuild import build_aux, plan_all, pyramidal_depth
from auglocal.data import gen_synthetic
from auglocal.netspec import count_flops, preset, validate
from auglocal.nn import PrimaryModel
from auglocal.pipeline import PipelineConfig, simulate_pipeline
from auglocal.tensor import (
    BatchNormState,
    ParamSet,
    Tensor,
    backward,
    stop_gradient,
    tape,
)
from auglocal.trainer import (
    LocalLearner,
    TrainConfig,
    bp_train_step,
    local_train_step,
    train,
)
from helpers import desk_data, desk_run, finite_diff_check, map_in_processes


def _report(num: int, title: str):
    print(f"criterion {num:02d} [{title}]: PASS")


def test_criterion_01_depth_schedule_matches_independent_evaluation():
    # independent evaluation: literal linear interpolation with explicit
    # half-away-from-zero rounding and remaining-depth cap
    L, d, d_min, tau = 55, 6, 2, 0.5
    expected = []
    for layer in range(1, L):
        t = tau * (layer - 1) / (L - 2)
        raw = (1.0 - t) * d + t * d_min
        rounded = int(np.floor(raw + 0.5))          # raw > 0 always here
        expected.append(min(rounded, L - layer + 1))
    got = [pyramidal_depth(layer, L, d, d_min, tau) for layer in range(1, L)]
    assert got == expected
    assert got[0] == 6 and got[27] == 5 and got[53] == 2
    _report(1, "depth schedule")


def test_criterion_02_aux_structure_single_wide_residual_block(r110):
    for layer in range(1, r110.num_units):
        aux = build_aux(r110, layer, "uniform", 2)
        assert len(aux.units) == 1
        unit = aux.units[0]
        in_c = r110.units[layer - 1].out_channels
        assert unit.kind == "residual-basic-block"
        assert unit.in_channels == in_c and unit.out_channels == 64
        if in_c < 64:
            assert unit.stride == 2 and unit.needs_projection
        else:
            assert unit.stride == 1 and not unit.needs_projection
        assert aux.classifier.pooling == "global-average-pool"
        assert aux.classifier.in_channels == 64
        assert aux.classifier.num_classes == 10
    _report(2, "aux structure 64R-AP-10FC")


def test_criterion_03_flops_within_published_bands(r110):
    primary = count_flops(r110)
    assert abs(primary - 0.25e9) <= 0.025e9
    total_d2 = plan_all(r110, d=2, tau=0.5).total_flops()
    assert abs(total_d2 - 0.63e9) <= 0.063e9
    total_d6_half = plan_all(r110, d=6, tau=0.5).total_flops()
    assert abs(total_d6_half - 1.13e9) <= 0.113e9
    total_d6_full = plan_all(r110, d=6, tau=1.0).total_flops()
    assert abs(total_d6_full - 0.90e9) <= 0.090e9
    _report(3, "FLOPs bands")


def test_criterion_04_pyramid_reduces_aux_flops(r110):
    full = plan_all(r110, d=9, tau=0.0).aux_flops()
    decayed = plan_all(r110, d=9, tau=1.0).aux_flops()
    reduction = 1.0 - decayed / full
    assert 0.35 <= reduction <= 0.55
    _report(4, f"pyramidal reduction {reduction:.1%}")


def test_criterion_05_gradient_isolation_all_pairs(tiny):
    cfg = TrainConfig(mode="local", d=3, epochs=1, lr=0.1, seed=0)
    learner = LocalLearner(tiny, cfg)
    model = learner.model
    ds = gen_synthetic(10, (3, 8, 8), 2, seed=0, separation=5.0)
    x, y = ds.images, ds.labels

    acts = [Tensor(x)]
    h = acts[0]
    for layer in range(1, tiny.num_units + 1):
        h = model.forward_unit(layer, Tensor(h.data.copy()), training=False)
        acts.append(h)

    pairs = 0
    for target in range(1, tiny.num_units):
        for _, t in model.params.items():
            t.zero_grad()
        with tape() as tp:
            out = model.forward_unit(target, stop_gradient(acts[target - 1]),
                                     training=True)
            logits = learner.aux[target - 1].forward(out, training=True)
            loss = T.softmax_cross_entropy(logits, y)
        backward(tp, loss)
        for other in range(1, tiny.num_units + 1):
            if other == target:
                continue
            for name in model.unit_param_names(other):
                grad = model.params[name].grad
                assert grad is None or not np.any(grad), (target, name)
            pairs += 1
        for name in model.classifier_param_names():
            assert model.params[name].grad is None
    assert pairs == (tiny.num_units - 1) * (tiny.num_units - 1)
    _report(5, f"gradient isolation, {pairs} pairs exact zero")


def test_criterion_06_finite_difference_suite():
    worst = 0.0
    instances = 0
    recorded = set()   # ops that put a node on a graph's tape

    def run(f, ps):
        nonlocal worst, instances
        worst = max(worst, finite_diff_check(f, ps))
        instances += 1
        with tape() as tp:
            f(ps)
        # a node's backward closure is defined inside the op that recorded it
        recorded.update(n.backward_fn.__qualname__.split(".")[0] for n in tp.nodes)

    for seed in range(34):
        rng = np.random.default_rng(seed)
        # graph A: dense + relu + add + softmax-cross-entropy
        ps = ParamSet()
        ps.add("w1", rng.normal(size=(4, 6)) * 0.5)
        ps.add("b1", rng.normal(size=(6,)) * 0.1)
        ps.add("w2", rng.normal(size=(6, 3)) * 0.5)
        ps.add("r", rng.normal(size=(5, 3)) * 0.3)
        xa = rng.normal(size=(5, 4))
        ya = rng.integers(0, 3, size=5)
        ps.add("b2", rng.normal(size=(3,)) * 0.1)

        def graph_a(p):
            h = T.relu(T.dense(Tensor(xa), p["w1"], p["b1"]))
            return T.softmax_cross_entropy(T.add(T.dense(h, p["w2"], p["b2"]), p["r"]), ya)

        run(graph_a, ps)

        # graph B: conv2d + batchnorm + relu + global-average-pool + dense
        ps = ParamSet()
        ps.add("wc", rng.normal(size=(3, 2, 3, 3)) * 0.3)
        ps.add("g", np.ones(3) + rng.normal(size=3) * 0.05)
        ps.add("be", rng.normal(size=3) * 0.05)
        ps.add("wf", rng.normal(size=(3, 3)) * 0.5)
        xb = rng.normal(size=(4, 2, 5, 5))
        yb = rng.integers(0, 3, size=4)
        ps.add("bf", rng.normal(size=(3,)) * 0.1)

        def graph_b(p):
            st = BatchNormState(3)
            h = T.relu(T.batchnorm2d(T.conv2d(Tensor(xb), p["wc"]), p["g"],
                                     p["be"], st, training=True))
            return T.softmax_cross_entropy(
                T.dense(T.global_avg_pool(h), p["wf"], p["bf"]), yb)

        run(graph_b, ps)

        # graph C: strided 1x1 conv + flatten + stop-gradient + dense + sum
        # (the stopped branch is a frozen copy of the input path, so its
        # value feeds forward but contributes no gradient)
        ps = ParamSet()
        ps.add("wc", rng.normal(size=(2, 2, 1, 1)) * 0.5)
        ps.add("m", rng.normal(size=(2 * 2 * 2, 3)) * 0.5)
        ps.add("bm", rng.normal(size=(3,)) * 0.1)
        xc = rng.normal(size=(3, 2, 4, 4))
        frozen = rng.normal(size=(3, 2 * 2 * 2)) * 0.5

        def graph_c(p):
            h = T.flatten(T.conv2d(Tensor(xc), p["wc"], stride=2))
            h = T.add(h, stop_gradient(Tensor(frozen)))
            return T.tensor_sum(T.dense(h, p["m"], p["bm"]))

        run(graph_c, ps)

    assert instances >= 100
    assert worst <= 1e-5
    # every tensor function that can record a tape node is exercised above
    recording_ops = {name for name, fn in vars(T).items()
                     if inspect.isfunction(fn) and fn.__module__ == T.__name__
                     and "_record" in fn.__code__.co_names}
    assert recorded == recording_ops, (recorded ^ recording_ops)
    _report(6, f"finite differences, {instances} graphs over {len(recorded)} ops, "
               f"max err {worst:.2e}")


def test_criterion_07_time_model_fidelity():
    rng = np.random.default_rng(123)
    for _ in range(50):
        L = int(rng.integers(3, 60))
        d = int(rng.integers(2, 10))
        N = int(rng.integers(1, 40))
        # times on the simulator's nanosecond grid, so "zero error" is an
        # exact integer comparison rather than a float tolerance
        tf_ns = int(rng.integers(500_000, 3_000_000))
        tb_ns = int(rng.integers(500_000, 3_000_000))
        res = simulate_pipeline(PipelineConfig(num_layers=L, d=d,
                                               t_f=tf_ns / 1e9,
                                               t_b=tb_ns / 1e9,
                                               iterations=N))
        expected_ns = tf_ns * L + (d + 1) * (tf_ns + tb_ns) * N
        assert int(round(res.makespan * 1e9)) == expected_ns

    # asymptotic ratio check at N = 10 L; the pipeline-fill ramp adds a
    # relative offset of exactly 1 / (20 (d + 1)), so sample d >= 5 to stay
    # strictly inside the 1% tolerance (d = 4 sits on the boundary)
    for _ in range(20):
        L = int(rng.integers(8, 60))
        d = int(rng.integers(5, 10))
        N = 10 * L
        res = simulate_pipeline(PipelineConfig(num_layers=L, d=d, t_f=1.0,
                                               t_b=1.0, iterations=N))
        bp = (L + 1) * 2.0 * N
        ratio = res.makespan / bp
        assert abs(ratio - (d + 1) / (L + 1)) / ((d + 1) / (L + 1)) <= 0.01
    _report(7, "time model exact + ratio within 1%")


def test_criterion_08_pipelined_equivalence(tiny):
    ds = gen_synthetic(10, (3, 8, 8), 12, seed=5, separation=5.0)
    cfg = TrainConfig(mode="local", d=3, epochs=2, lr=0.2, batch_size=32, seed=5)
    seq, _ = train(tiny, cfg, (ds.images, ds.labels))
    pipe, _ = train(tiny, cfg, (ds.images, ds.labels), workers=4)
    for name, t in seq.model.params.items():
        np.testing.assert_array_equal(t.data, pipe.model.params[name].data,
                                      err_msg=name)
    for a, b in zip(seq.model.bn_states(), pipe.model.bn_states()):
        np.testing.assert_array_equal(a.running_mean, b.running_mean)
        np.testing.assert_array_equal(a.running_var, b.running_var)
    _report(8, "pipelined training bit-identical, 4 workers")


def _rebuilt_model(net, params, bn_stats) -> PrimaryModel:
    model = PrimaryModel(net)
    for name, t in model.params.items():
        t.data[...] = params[name]
    for st, (mean, var) in zip(model.bn_states(), bn_stats, strict=True):
        st.running_mean[...] = mean
        st.running_var[...] = var
    return model


@pytest.fixture(scope="module")
def desk_runs(tiny):
    """Twelve training runs shared by criteria 9 and 10: three seeds, each
    with a BP baseline and local runs at d = 2, 3, 4. The runs train in
    worker processes; this process compares the returned models by CKA."""
    runs = [(seed, mode, d) for seed in (0, 1, 2)
            for mode, d in (("bp", 2), ("local", 2), ("local", 3), ("local", 4))]
    done = dict(zip(runs, map_in_processes(desk_run, runs)))
    results = {}
    for seed in (0, 1, 2):
        probe = desk_data(seed)[1][0][:256]
        top1, params, bn_stats = done[seed, "bp", 2]
        bp_model = _rebuilt_model(tiny, params, bn_stats)
        out = {"bp": top1}
        for d in (2, 3, 4):
            top1, params, bn_stats = done[seed, "local", d]
            out[f"d{d}"] = top1
            out[f"cka_d{d}"] = layerwise_cka(_rebuilt_model(tiny, params, bn_stats),
                                             bp_model, probe)["average"]
        results[seed] = out
    return results


def test_a_dead_desk_worker_fails_with_broken_process_pool():
    before = dict(os.environ)
    with pytest.raises(BrokenProcessPool):
        map_in_processes(os._exit, [(1,)])
    assert dict(os.environ) == before


def test_criterion_09_desk_scale_learning(desk_runs):
    bp = np.mean([r["bp"] for r in desk_runs.values()])
    d2 = np.mean([r["d2"] for r in desk_runs.values()])
    d3 = np.mean([r["d3"] for r in desk_runs.values()])
    d4 = np.mean([r["d4"] for r in desk_runs.values()])
    for r in desk_runs.values():
        assert r["bp"] >= 0.90
    assert bp - d3 <= 0.025
    assert d4 >= d2 - 0.005
    _report(9, f"bp {bp:.3f}, d2 {d2:.3f}, d3 {d3:.3f}, d4 {d4:.3f}")


def test_criterion_10_representation_trend(desk_runs):
    wins = sum(1 for r in desk_runs.values() if r["cka_d4"] > r["cka_d2"])
    assert wins >= 2
    _report(10, f"CKA(d4) > CKA(d2) in {wins}/3 seeds")


def test_criterion_11_memory_model(r110):
    plan = plan_all(r110, d=2, tau=0.5)
    bp_bytes = peak_memory(r110, "bp", 1024)
    local_bytes = peak_memory(r110, "local", 1024, plan=plan)
    reduction = 1.0 - local_bytes / bp_bytes
    assert reduction >= 0.40
    _report(11, f"peak memory reduction {reduction:.1%}")


@pytest.mark.parametrize("name, batch", [("resnet32-cifar", 8), ("resnet32-cifar", 32),
                                           ("tinynet8", 8), ("tinynet8", 32)])
def test_criterion_11_measured_peak_matches_model(name, batch):
    # one training step, with the learner built under tracemalloc, peaks
    # within 25% of the analytical model in both modes
    net = validate(preset(name))
    plan = plan_all(net, d=2)
    ds = gen_synthetic(10, net.spec.input_shape, batch // 10 + 1, seed=1)
    x, y = ds.images[:batch], ds.labels[:batch]
    measured = {}
    for mode in ("bp", "local"):
        tracemalloc.start()
        try:
            learner = LocalLearner(net, TrainConfig(mode=mode, d=2, batch_size=batch),
                                   plan=plan if mode == "local" else None)
            if mode == "local":
                local_train_step(learner, x, y, 0.05)
            else:
                bp_train_step(learner, x, y, 0.05)
            measured[mode] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        model = peak_memory(net, mode, batch, element_bytes=8, plan=plan)
        assert 0.75 <= measured[mode] / model <= 1.25, (mode, measured[mode], model)
    _report(11, f"{name} batch {batch}: measured peak within 25% of the model; "
                f"measured local/bp {measured['local'] / measured['bp']:.2f} "
                f"(paper: about 0.6)")


def test_criterion_12_cka_properties():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 10))
    assert linear_cka(x, x) == pytest.approx(1.0)
    q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
    assert abs(linear_cka(x, x @ q) - 1.0) <= 1e-9
    assert abs(linear_cka(2.5 * x, x) - 1.0) <= 1e-9
    for seed in range(10):
        r = np.random.default_rng(1000 + seed)
        a = r.normal(size=(300, 12))
        b = r.normal(size=(300, 12))
        assert linear_cka(a, b) < 0.1
    _report(12, "CKA identity, invariances, independence")
