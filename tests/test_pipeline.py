"""Training-time model, pipeline simulator, and the worker counts of
``train`` against a reference epoch loop."""

import numpy as np
import pytest

from auglocal import trainer
from auglocal.errors import ConfigError
from auglocal.pipeline import (
    PipelineConfig,
    predict_times,
    run_pipelined_training,
    simulate_pipeline,
)
from auglocal.trainer import (
    LocalLearner,
    TrainConfig,
    bp_train_step,
    cosine_lr,
    evaluate,
    local_train_step,
    train,
)
from helpers import small_data, small_net


def test_predict_times_closed_forms():
    out = predict_times(55, 2, 1.0, 1.0, 100)
    assert out["bp_time"] == 56 * 2 * 100
    assert out["auglocal_time"] == 55 + 3 * 2 * 100
    assert out["ratio"] == pytest.approx(out["auglocal_time"] / out["bp_time"])


def test_predict_times_ratio_approaches_depth_fraction():
    # for long runs the startup ramp vanishes and the ratio tends to
    # (d + 1) / (L + 1)
    out = predict_times(55, 6, 1.0, 1.0, 10_000_000)
    assert out["ratio"] == pytest.approx(7 / 56, rel=1e-4)


def test_simulator_matches_hand_traced_schedule():
    # L=2 hidden workers + output stage, d=2, t_f=2, t_b=3, one iteration:
    #   worker1 starts 0, emits 2, frees at 15
    #   worker2 starts 2, emits 4, frees at 17
    #   output  starts 4, emits 6, frees at 19
    res = simulate_pipeline(PipelineConfig(num_layers=2, d=2, t_f=2.0, t_b=3.0,
                                           iterations=1))
    assert res.makespan == pytest.approx(19.0)


def test_simulator_exact_for_constant_times():
    for L, d, tf, tb, N in ((8, 2, 1.0, 2.0, 20), (16, 4, 2.0, 3.0, 10),
                            (4, 3, 1.5, 2.5, 7)):
        res = simulate_pipeline(PipelineConfig(num_layers=L, d=d, t_f=tf, t_b=tb,
                                               iterations=N))
        expected = tf * L + (d + 1) * (tf + tb) * N
        assert res.makespan == pytest.approx(expected, rel=1e-12)


def test_simulator_utilization_bounds_and_bottleneck():
    res = simulate_pipeline(PipelineConfig(num_layers=8, d=2, t_f=1.0, t_b=2.0,
                                           iterations=50))
    assert all(0.0 < u <= 1.0 for u in res.utilization)
    # every worker has identical busy time here, and the first worker never
    # waits, so its utilization is the highest
    assert res.utilization[0] == pytest.approx(max(res.utilization))


def test_simulator_jitter_reproducible_and_zero_jitter_deterministic():
    cfg = dict(num_layers=5, d=2, t_f=1.0, t_b=1.0, iterations=20,
               time_jitter=0.2)
    a = simulate_pipeline(PipelineConfig(**cfg, seed=9))
    b = simulate_pipeline(PipelineConfig(**cfg, seed=9))
    c = simulate_pipeline(PipelineConfig(**cfg, seed=10))
    assert a.makespan == b.makespan
    assert a.makespan != c.makespan
    flat = simulate_pipeline(PipelineConfig(num_layers=5, d=2, t_f=1.0, t_b=1.0,
                                            iterations=20))
    assert flat.makespan == pytest.approx(5 + 3 * 2 * 20)


def test_simulator_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PipelineConfig(num_layers=3, d=2, t_f=0.0, t_b=1.0, iterations=1)
    good = dict(num_layers=3, d=2, t_f=1.0, t_b=1.0, iterations=1)
    for bad in ({"num_layers": 0}, {"num_layers": -2}, {"iterations": 0}, {"d": 0},
                {"t_f": float("nan")}, {"t_b": float("inf")}, {"t_b": -1.0},
                {"time_jitter": 1.0}, {"time_jitter": 1.5}, {"time_jitter": -0.1},
                {"time_jitter": float("nan")}, {"seed": -1}, {"t_f": 1e-12},
                {"t_f": 1e300, "t_b": 1e300}, {"d": 10**330}):
        with pytest.raises(ConfigError):
            PipelineConfig(**{**good, **bad})


def reference_train(net, cfg, train_data, test_data):
    """An epoch loop written out from its parts: the ``seed + 7`` shuffle,
    the cosine lr and one ``local_train_step`` or ``bp_train_step`` per
    mini-batch, on the caller's thread."""
    learner = LocalLearner(net, cfg)
    rng = np.random.default_rng(cfg.seed + 7)
    history = []
    for epoch in range(cfg.epochs):
        lr = cosine_lr(cfg.lr, epoch, cfg.epochs)
        losses = []
        for xb, yb in trainer.epoch_batches(*train_data, cfg.batch_size, rng):
            if cfg.mode == "local":
                losses.append(local_train_step(learner, xb, yb, lr)["global_loss"])
            else:
                losses.append(bp_train_step(learner, xb, yb, lr))
        history.append(("train", float(np.mean(losses)), lr))
        history.append(("test", evaluate(learner.model, *test_data), lr))
    return learner, history


@pytest.mark.parametrize("mode,workers", [
    ("local", 1), ("local", 2), ("local", 4), ("bp", 1), ("bp", 2), ("bp", 4),
], ids=["1", "2", "4", "bp-1", "bp-2", "bp-4"])
def test_pipelined_training_bit_identical_to_sequential(mode, workers):
    net = small_net()
    x, y = small_data(seed=20, n=16)
    cfg = TrainConfig(mode=mode, d=2, epochs=2, lr=0.1, batch_size=8, seed=51)

    ref_learner, ref_hist = reference_train(net, cfg, (x, y), (x, y))
    learner, hist = train(net, cfg, (x, y), (x, y), workers=workers)
    expected = trainer._gather_arrays(ref_learner)
    got = trainer._gather_arrays(learner)
    assert list(got) == list(expected)
    for name, arr in expected.items():
        np.testing.assert_array_equal(got[name], arr, err_msg=name)
    assert [(r["split"], r["loss"] if r["split"] == "train" else r["top1"], r["lr"])
            for r in hist] == ref_hist
    assert hist[-1]["split"] == "test"


def test_run_pipelined_training_is_train_with_that_many_workers():
    net = small_net()
    x, y = small_data(seed=26, n=16)
    cfg = TrainConfig(mode="local", d=2, epochs=2, lr=0.1, batch_size=4, seed=63)
    a, hist_a = run_pipelined_training(net, cfg, (x, y), (x, y), threads=2)
    b, hist_b = train(net, cfg, (x, y), (x, y), workers=2)
    expected = trainer._gather_arrays(b)
    for name, arr in trainer._gather_arrays(a).items():
        np.testing.assert_array_equal(arr, expected[name], err_msg=name)

    def rows(hist):
        return [{k: v for k, v in r.items() if k != "wall_ms"} for r in hist]

    np.testing.assert_equal(rows(hist_a), rows(hist_b))
