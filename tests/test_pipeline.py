"""Training-time model, pipeline simulator, threaded pipelined training."""

import sys
import threading
import time

import numpy as np
import pytest

from auglocal import trainer
from auglocal.data import gen_synthetic
from auglocal.errors import ConfigError, WorkerPanicPropagated
from auglocal.netspec import ClassifierSpec, LocalUnitSpec, PrimaryNetworkSpec, validate
from auglocal.pipeline import (
    PipelineConfig,
    predict_times,
    run_pipelined_training,
    simulate_pipeline,
)
from auglocal.trainer import TrainConfig, train


def small_net():
    units = (
        LocalUnitSpec("conv3x3", 3, 4),
        LocalUnitSpec("conv3x3", 4, 4),
        LocalUnitSpec("conv3x3", 4, 8, stride=2),
    )
    return validate(PrimaryNetworkSpec(units, ClassifierSpec(8, 4), (3, 6, 6), 4,
                                       name="small3"))


def small_data(seed=0, n=16):
    ds = gen_synthetic(4, (3, 6, 6), n // 4, seed=seed, separation=4.0)
    return ds.images, ds.labels


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
                {"time_jitter": float("nan")}):
        with pytest.raises(ConfigError):
            PipelineConfig(**{**good, **bad})


def run_bounded(fn, bound=5.0):
    """Call ``fn`` on a daemon thread and return or raise its outcome; fail
    if it is still running after ``bound`` seconds, so a broken cancel path
    fails the test instead of hanging the suite."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:
            outcome["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(bound)
    assert not t.is_alive(), f"still running after {bound}s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.mark.parametrize("mode,threads", [
    ("local", 1), ("local", 2), ("local", 4), ("bp", 1), ("bp", 2), ("bp", 4),
], ids=["1", "2", "4", "bp-1", "bp-2", "bp-4"])
def test_pipelined_training_bit_identical_to_sequential(mode, threads):
    net = small_net()
    x, y = small_data(seed=20, n=16)
    cfg = TrainConfig(mode=mode, d=2, epochs=2, lr=0.1, batch_size=8, seed=51)

    seq_learner, _ = train(net, cfg, (x, y), (x, y))
    pipe_learner, hist = run_pipelined_training(net, cfg, (x, y), (x, y),
                                                threads=threads)
    for name, t in seq_learner.model.params.items():
        np.testing.assert_array_equal(t.data, pipe_learner.model.params[name].data,
                                      err_msg=name)
    for a, b in zip(seq_learner.model.bn_states(), pipe_learner.model.bn_states()):
        np.testing.assert_array_equal(a.running_mean, b.running_mean)
        np.testing.assert_array_equal(a.running_var, b.running_var)
    for sa, sb in zip(seq_learner.aux, pipe_learner.aux):
        for name, t in sa.params.items():
            np.testing.assert_array_equal(t.data, sb.params[name].data)
    for oa, ob in zip(seq_learner.layer_optimizers, pipe_learner.layer_optimizers, strict=True):
        for name, v in oa.velocity.items():
            np.testing.assert_array_equal(v, ob.velocity[name], err_msg=name)
    assert hist[-1]["split"] == "test"


def test_pipelined_history_equals_sequential():
    net = small_net()
    x, y = small_data(seed=21, n=16)
    cfg = TrainConfig(mode="local", d=2, epochs=2, lr=0.1, batch_size=8, seed=53)
    _, seq_hist = train(net, cfg, (x, y), (x, y))
    _, pipe_hist = run_pipelined_training(net, cfg, (x, y), (x, y), threads=3)
    assert [(r["epoch"], r["split"]) for r in pipe_hist] == \
           [(r["epoch"], r["split"]) for r in seq_hist]
    for key in ("loss", "top1", "lr"):
        np.testing.assert_array_equal([r[key] for r in pipe_hist],
                                      [r[key] for r in seq_hist], err_msg=key)
    assert all(r["wall_ms"] > 0 for r in pipe_hist if r["split"] == "train")


def test_pipelined_training_with_many_batches_does_not_stall():
    # more mini-batches than the runner lets into flight at once; the run
    # must still stream through and match sequential training
    net = small_net()
    x, y = small_data(seed=23, n=64)
    cfg = TrainConfig(mode="local", d=2, epochs=1, lr=0.1, batch_size=4, seed=57)
    seq_learner, _ = train(net, cfg, (x, y))
    pipe_learner, _ = run_bounded(lambda: run_pipelined_training(net, cfg, (x, y), threads=4),
                                  bound=60.0)
    for name, t in seq_learner.model.params.items():
        np.testing.assert_array_equal(t.data, pipe_learner.model.params[name].data)


@pytest.mark.parametrize("fault_layer", [1, 2, 3])
def test_worker_fault_at_any_layer_cancels_epoch(monkeypatch, fault_layer):
    # 16 batches through 3 workers: a failing stage leaves the caller and
    # its neighbours waiting unless the epoch is cancelled.
    # SystemExit is not an Exception, and must cancel the epoch all the same.
    net = small_net()
    x, y = small_data(seed=22, n=32)
    cfg = TrainConfig(mode="local", d=2, epochs=1, lr=0.1, batch_size=2, seed=55)
    real_step = trainer.layer_step
    for fault in (RuntimeError("injected fault"), SystemExit(3)):
        def faulty_step(learner, layer, h, yb, lr):
            if layer == fault_layer:
                raise fault
            return real_step(learner, layer, h, yb, lr)

        monkeypatch.setattr(trainer, "layer_step", faulty_step)
        before = threading.active_count()
        t0 = time.monotonic()
        with pytest.raises(WorkerPanicPropagated) as info:
            run_bounded(lambda: run_pipelined_training(net, cfg, (x, y), threads=3))
        assert info.value.__cause__ is fault
        assert time.monotonic() - t0 < 2.5
        assert threading.active_count() == before


@pytest.mark.parametrize("threads", [2, 4])
def test_first_stage_leads_last_by_at_most_two_batches_per_worker(monkeypatch, threads):
    # with the last stage slowed down, the first runs ahead until the
    # runner holds it back; it may lead by at most 2 * workers - 1 batches
    units = tuple(LocalUnitSpec("conv3x3", 3 if i == 0 else 4, 4) for i in range(4))
    net = validate(PrimaryNetworkSpec(units, ClassifierSpec(4, 4), (3, 6, 6), 4,
                                      name="small4"))
    x, y = small_data(seed=24, n=48)
    cfg = TrainConfig(mode="local", d=2, epochs=1, lr=0.1, batch_size=2, seed=59)
    real_step = trainer.layer_step
    lock = threading.Lock()
    done = {1: 0, 4: 0}
    leads = []

    def counting_step(learner, stage, h, yb, lr):
        if stage == 4:
            time.sleep(0.01)
        out = real_step(learner, stage, h, yb, lr)
        with lock:
            if stage in done:
                done[stage] += 1
                leads.append(done[1] - done[4])
        return out

    monkeypatch.setattr(trainer, "layer_step", counting_step)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # more thread switches, more interleavings
    try:
        run_bounded(lambda: run_pipelined_training(net, cfg, (x, y), threads=threads),
                    bound=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert done == {1: 24, 4: 24}
    assert 2 * threads - 2 <= max(leads) <= 2 * threads - 1


def test_main_thread_exception_propagates_unchanged(monkeypatch):
    # an interrupt raised while batches are being fed is the caller's own
    # exception, not a worker's: it must not be wrapped, and no thread
    # may be left running
    net = small_net()
    x, y = small_data(seed=25, n=32)
    cfg = TrainConfig(mode="local", d=2, epochs=1, lr=0.1, batch_size=2, seed=61)
    real_batches = trainer._epoch_batches

    def interrupted_batches(*args):
        for i, batch in enumerate(real_batches(*args)):
            if i == 2:
                raise KeyboardInterrupt
            yield batch

    monkeypatch.setattr(trainer, "_epoch_batches", interrupted_batches)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        run_bounded(lambda: run_pipelined_training(net, cfg, (x, y), threads=3))
    assert threading.active_count() == before
