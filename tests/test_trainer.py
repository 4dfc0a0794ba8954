"""Training: optimizer oracle, schedule, gradient isolation, worker
counts and faults, checkpoints."""

import struct
import sys
import threading
import time

import numpy as np
import pytest

from auglocal import trainer as trainer_mod

from auglocal.auxbuild import plan_all
from auglocal.data import gen_synthetic
from auglocal.errors import CheckpointError, ConfigError, PlanMismatch, WorkerPanicPropagated
from auglocal.netspec import (
    ClassifierSpec,
    LocalUnitSpec,
    PrimaryNetworkSpec,
    preset,
    tinynet8,
    validate,
)
from auglocal.tensor import ParamSet, Tensor
from auglocal.trainer import (
    SGD,
    LocalLearner,
    TrainConfig,
    bp_train_step,
    cosine_lr,
    evaluate,
    load_checkpoint,
    local_train_step,
    save_checkpoint,
    train,
)


@pytest.fixture(scope="module")
def tiny():
    return validate(tinynet8())


def small_net():
    """A 3-unit conv net small enough for fast step-level tests."""
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


def test_sgd_matches_hand_computed_sequence():
    # mu=0.9, wd=0, lr=0.1, w0=1, loss = w^2/2 so g = w
    # v1 = 1, w1 = 1 - 0.1*(1 + 0.9*1) = 0.81
    # v2 = 0.9 + 0.81 = 1.71, w2 = 0.81 - 0.1*(0.81 + 0.9*1.71) = 0.5751
    ps = ParamSet()
    w = ps.add("x.w", np.array([1.0]))
    opt = SGD(dict(ps.items()), momentum=0.9, weight_decay=0.0)
    for expected in (0.81, 0.5751):
        w.grad = w.data.copy()
        opt.step(0.1)
        assert abs(w.data[0] - expected) < 1e-12


def test_sgd_weight_decay_only_on_weights():
    ps = ParamSet()
    w = ps.add("u.w", np.array([2.0]))
    b = ps.add("u.b", np.array([2.0]))
    opt = SGD(dict(ps.items()), momentum=0.0, weight_decay=0.5)
    w.grad = np.zeros(1)
    b.grad = np.zeros(1)
    opt.step(0.1)
    assert abs(w.data[0] - (2.0 - 0.1 * 0.5 * 2.0)) < 1e-12   # decayed
    assert b.data[0] == 2.0                                   # untouched


def test_sgd_skips_parameters_without_gradients():
    ps = ParamSet()
    w = ps.add("x.w", np.array([3.0]))
    opt = SGD(dict(ps.items()), momentum=0.9, weight_decay=1e-4)
    opt.step(0.1)
    assert w.data[0] == 3.0


def test_cosine_schedule_endpoints_and_midpoint():
    assert cosine_lr(0.1, 0, 10) == pytest.approx(0.1)
    assert cosine_lr(0.1, 5, 10) == pytest.approx(0.05)
    assert cosine_lr(0.1, 10, 10) == pytest.approx(0.0, abs=1e-15)
    vals = [cosine_lr(0.1, e, 10) for e in range(11)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_local_step_updates_only_that_layers_parameters():
    net = small_net()
    cfg = TrainConfig(mode="local", d=2, epochs=1, lr=0.1, seed=3)
    learner = LocalLearner(net, cfg)
    x, y = small_data(seed=1, n=8)

    before = {n: t.data.copy() for n, t in learner.model.params.items()}
    # run a single-layer step manually: freeze all optimizers except layer 1
    model = learner.model
    from auglocal.tensor import backward, softmax_cross_entropy, stop_gradient, tape
    opt = learner.layer_optimizers[0]
    opt.zero_grad()
    with tape() as tp:
        h = model.forward_unit(1, stop_gradient(Tensor(x)), training=True)
        logits = learner.aux[0].forward(h, training=True)
        loss = softmax_cross_entropy(logits, y)
    backward(tp, loss)
    opt.step(0.1)

    for name, old in before.items():
        changed = not np.array_equal(old, learner.model.params[name].data)
        assert changed == name.startswith("unit1.")


def test_gradient_isolation_no_grads_cross_stop():
    net = small_net()
    cfg = TrainConfig(mode="local", d=2, epochs=1, lr=0.1, seed=5)
    learner = LocalLearner(net, cfg)
    x, y = small_data(seed=2, n=8)
    local_train_step(learner, x, y, lr=0.1)
    # after the full pass, no unit's parameters ever accumulated a gradient
    # from another layer's loss: each optimizer zeroed before its own layer,
    # so any grad present belongs to exactly one layer's parameter group
    owners = []
    for layer in range(1, net.num_units):
        owners.append(set(learner.model.unit_param_names(layer))
                      | set(n for n, _ in learner.aux[layer - 1].params.items()))
    owners.append(set(learner.model.unit_param_names(net.num_units))
                  | set(learner.model.classifier_param_names()))
    all_names = set().union(*owners)
    assert sum(len(o) for o in owners) == len(all_names)   # disjoint groups


def test_local_losses_reported_per_layer():
    net = small_net()
    cfg = TrainConfig(mode="local", d=2, epochs=1, lr=0.1, seed=7)
    learner = LocalLearner(net, cfg)
    x, y = small_data(seed=3, n=8)
    out = local_train_step(learner, x, y, lr=0.1)
    assert len(out["local_losses"]) == net.num_units - 1
    assert all(np.isfinite(v) for v in out["local_losses"])
    assert np.isfinite(out["global_loss"])


def test_bp_step_decreases_loss_on_fixed_batch():
    net = small_net()
    cfg = TrainConfig(mode="bp", epochs=1, lr=0.1, seed=13)
    learner = LocalLearner(net, cfg)
    x, y = small_data(seed=5, n=16)
    losses = [bp_train_step(learner, x, y, lr=0.05) for _ in range(10)]
    assert losses[-1] < losses[0]


def test_local_training_decreases_loss_on_fixed_batch():
    net = small_net()
    cfg = TrainConfig(mode="local", d=2, epochs=1, lr=0.1, seed=17)
    learner = LocalLearner(net, cfg)
    x, y = small_data(seed=6, n=16)
    first = local_train_step(learner, x, y, lr=0.05)["global_loss"]
    for _ in range(9):
        last = local_train_step(learner, x, y, lr=0.05)["global_loss"]
    assert last < first


def test_train_is_seed_deterministic():
    net = small_net()
    x, y = small_data(seed=7, n=16)
    cfg = TrainConfig(mode="local", d=2, epochs=2, lr=0.1, batch_size=8, seed=19)

    def run():
        learner, hist = train(net, cfg, (x, y), (x, y))
        return ({n: t.data.copy() for n, t in learner.model.params.items()}, hist)

    p1, h1 = run()
    p2, h2 = run()
    for n in p1:
        np.testing.assert_array_equal(p1[n], p2[n])
    assert [r["loss"] for r in h1 if r["split"] == "train"] == \
           [r["loss"] for r in h2 if r["split"] == "train"]


def test_history_schema_and_lr_column():
    net = small_net()
    x, y = small_data(seed=8, n=16)
    cfg = TrainConfig(mode="bp", epochs=3, lr=0.2, batch_size=8, seed=23)
    _, hist = train(net, cfg, (x, y), (x, y))
    assert len(hist) == 6   # train + test row per epoch
    for row in hist:
        assert set(row) == {"epoch", "split", "loss", "top1", "lr", "wall_ms"}
    lrs = [r["lr"] for r in hist if r["split"] == "train"]
    assert lrs == [cosine_lr(0.2, e, 3) for e in range(3)]


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


def assert_same_arrays(a, b):
    """Parameters, norm statistics and optimizer state of two learners are
    bit-identical."""
    expected = trainer_mod._gather_arrays(a)
    got = trainer_mod._gather_arrays(b)
    assert list(got) == list(expected)
    for name, arr in expected.items():
        np.testing.assert_array_equal(got[name], arr, err_msg=name)


def test_pipelined_history_equals_sequential():
    net = small_net()
    x, y = small_data(seed=21, n=16)
    cfg = TrainConfig(mode="local", d=2, epochs=2, lr=0.1, batch_size=8, seed=53)
    _, seq_hist = train(net, cfg, (x, y), (x, y))
    _, pipe_hist = train(net, cfg, (x, y), (x, y), workers=3)
    assert [(r["epoch"], r["split"]) for r in pipe_hist] == \
           [(r["epoch"], r["split"]) for r in seq_hist]
    for key in ("loss", "top1", "lr"):
        np.testing.assert_array_equal([r[key] for r in pipe_hist],
                                      [r[key] for r in seq_hist], err_msg=key)
    assert all(r["wall_ms"] > 0 for r in pipe_hist if r["split"] == "train")


def test_pipelined_training_with_many_batches_does_not_stall():
    # more mini-batches than the workers let into flight at once; the run
    # must still stream through and match one-worker training
    net = small_net()
    x, y = small_data(seed=23, n=64)
    cfg = TrainConfig(mode="local", d=2, epochs=1, lr=0.1, batch_size=4, seed=57)
    seq_learner, _ = train(net, cfg, (x, y))
    pipe_learner, _ = run_bounded(lambda: train(net, cfg, (x, y), workers=4), bound=60.0)
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
    real_step = trainer_mod.layer_step
    for fault in (RuntimeError("injected fault"), SystemExit(3)):
        def faulty_step(learner, layer, h, yb, lr):
            if layer == fault_layer:
                raise fault
            return real_step(learner, layer, h, yb, lr)

        monkeypatch.setattr(trainer_mod, "layer_step", faulty_step)
        before = threading.active_count()
        t0 = time.monotonic()
        with pytest.raises(WorkerPanicPropagated) as info:
            run_bounded(lambda: train(net, cfg, (x, y), workers=3))
        assert info.value.__cause__ is fault
        assert time.monotonic() - t0 < 2.5
        assert threading.active_count() == before


@pytest.mark.parametrize("workers", [2, 4])
def test_first_stage_leads_last_by_at_most_two_batches_per_worker(monkeypatch, workers):
    # with the last stage slowed down, the first runs ahead until train
    # holds it back; it may lead by at most 2 * workers - 1 batches
    units = tuple(LocalUnitSpec("conv3x3", 3 if i == 0 else 4, 4) for i in range(4))
    net = validate(PrimaryNetworkSpec(units, ClassifierSpec(4, 4), (3, 6, 6), 4,
                                      name="small4"))
    x, y = small_data(seed=24, n=48)
    cfg = TrainConfig(mode="local", d=2, epochs=1, lr=0.1, batch_size=2, seed=59)
    real_step = trainer_mod.layer_step
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

    monkeypatch.setattr(trainer_mod, "layer_step", counting_step)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # more thread switches, more interleavings
    try:
        run_bounded(lambda: train(net, cfg, (x, y), workers=workers), bound=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert done == {1: 24, 4: 24}
    assert 2 * workers - 2 <= max(leads) <= 2 * workers - 1


def test_main_thread_exception_propagates_unchanged(monkeypatch):
    # an interrupt raised while batches are being fed is the caller's own
    # exception, not a worker's: it must not be wrapped, and no thread
    # may be left running
    net = small_net()
    x, y = small_data(seed=25, n=32)
    cfg = TrainConfig(mode="local", d=2, epochs=1, lr=0.1, batch_size=2, seed=61)
    real_batches = trainer_mod.epoch_batches

    def interrupted_batches(*args):
        for i, batch in enumerate(real_batches(*args)):
            if i == 2:
                raise KeyboardInterrupt
            yield batch

    monkeypatch.setattr(trainer_mod, "epoch_batches", interrupted_batches)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        run_bounded(lambda: train(net, cfg, (x, y), workers=3))
    assert threading.active_count() == before


def test_one_worker_runs_inline(monkeypatch):
    # one worker trains on the caller's thread and starts none, and a
    # fault there comes out as itself
    net = small_net()
    x, y = small_data(seed=27, n=16)
    cfg = TrainConfig(mode="local", d=2, epochs=2, lr=0.1, batch_size=4, seed=65)
    real_step = trainer_mod.layer_step
    threads = set()

    def recording_step(learner, stage, h, yb, lr):
        threads.add(threading.get_ident())
        return real_step(learner, stage, h, yb, lr)

    monkeypatch.setattr(trainer_mod, "layer_step", recording_step)
    before = threading.active_count()
    train(net, cfg, (x, y), workers=1)
    assert threads == {threading.get_ident()}
    assert threading.active_count() == before

    fault = RuntimeError("injected fault")

    def faulty_step(learner, stage, h, yb, lr):
        raise fault

    monkeypatch.setattr(trainer_mod, "layer_step", faulty_step)
    with pytest.raises(RuntimeError) as info:
        train(net, cfg, (x, y))
    assert info.value is fault


def test_worker_count_is_checked_and_capped_at_the_stage_count():
    net = small_net()
    x, y = small_data(seed=28, n=16)
    cfg = TrainConfig(mode="local", d=2, epochs=1, lr=0.1, batch_size=4, seed=67)
    for bad in (0, -1):
        with pytest.raises(ConfigError):
            train(net, cfg, (x, y), workers=bad)
    many, _ = train(net, cfg, (x, y), workers=99)
    one_per_stage, _ = train(net, cfg, (x, y), workers=net.num_units)
    assert_same_arrays(one_per_stage, many)


def test_evaluate_on_known_labels():
    net = small_net()
    learner = LocalLearner(net, TrainConfig(mode="bp", epochs=1, lr=0.1, seed=29))
    x, y = small_data(seed=9, n=16)
    logits = learner.model.forward_logits(Tensor(x), training=False)
    expected = float((logits.data.argmax(axis=1) == y).mean())
    assert evaluate(learner.model, x, y) == pytest.approx(expected)


def test_plan_mismatch_rejected(tiny):
    net = small_net()
    # a plan for another network, and one with other head settings than the config's
    for plan in (plan_all(tiny, d=2), plan_all(net, d=4)):
        with pytest.raises(PlanMismatch):
            LocalLearner(net, TrainConfig(mode="local", d=2, epochs=1, lr=0.1), plan=plan)


def test_checkpoint_round_trip_bitwise(tmp_path):
    net = small_net()
    cfg = TrainConfig(mode="local", d=2, epochs=1, lr=0.1, batch_size=8, seed=31)
    x, y = small_data(seed=10, n=16)
    learner, _ = train(net, cfg, (x, y))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, learner)

    fresh = LocalLearner(net, cfg)
    load_checkpoint(path, fresh)
    for name, t in learner.model.params.items():
        np.testing.assert_array_equal(t.data, fresh.model.params[name].data)
    for a, b in zip(learner.model.bn_states(), fresh.model.bn_states()):
        np.testing.assert_array_equal(a.running_mean, b.running_mean)
        np.testing.assert_array_equal(a.running_var, b.running_var)
    for oa, ob in zip(learner.layer_optimizers, fresh.layer_optimizers):
        for name in oa.velocity:
            np.testing.assert_array_equal(oa.velocity[name], ob.velocity[name])
    # restored learner evaluates identically
    assert evaluate(learner.model, x, y) == evaluate(fresh.model, x, y)


def test_checkpoint_resume_continues_identically(tmp_path):
    net = small_net()
    x, y = small_data(seed=11, n=16)
    cfg = TrainConfig(mode="bp", epochs=1, lr=0.1, batch_size=8, seed=37)
    learner, _ = train(net, cfg, (x, y))
    save_checkpoint(tmp_path / "c.bin", learner)

    resumed = LocalLearner(net, cfg)
    load_checkpoint(tmp_path / "c.bin", resumed)
    la = bp_train_step(learner, x, y, lr=0.05)
    lb = bp_train_step(resumed, x, y, lr=0.05)
    assert la == lb
    for name, t in learner.model.params.items():
        np.testing.assert_array_equal(t.data, resumed.model.params[name].data)


def _checkpoint_entries(data: bytes) -> tuple[bytes, list[tuple[str, bytes]]]:
    """A checkpoint's header (magic and network hash) and its raw entries."""
    (count,) = struct.unpack_from("<I", data, 40)
    pos, entries = 44, []
    for _ in range(count):
        start = pos
        (nlen,) = struct.unpack_from("<H", data, pos)
        name = data[pos + 2:pos + 2 + nlen].decode()
        pos += 2 + nlen
        (ndim,) = struct.unpack_from("<B", data, pos)
        shape = struct.unpack_from(f"<{ndim}I", data, pos + 1)
        pos += 1 + 4 * ndim + 8 * int(np.prod(shape))
        entries.append((name, data[start:pos]))
    assert pos == len(data)
    return data[:40], entries


def test_checkpoint_load_ignores_entry_order(tmp_path):
    # a checkpoint whose entries come in another order, such as a residual
    # unit's conv1.w, conv2.w, norm1.*, ..., restores every array bit for bit
    net = validate(preset("resnet32-cifar"))
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(2, 3, 32, 32)), np.array([1, 7])
    learner = LocalLearner(net, TrainConfig(mode="bp", seed=5))
    bp_train_step(learner, x, y, lr=0.05)
    path = tmp_path / "c.bin"
    save_checkpoint(path, learner)
    header, entries = _checkpoint_entries(path.read_bytes())
    assert any(".norm1." in name for name, _ in entries)
    for order in (sorted(entries), [entries[i] for i in rng.permutation(len(entries))]):
        path.write_bytes(header + struct.pack("<I", len(order))
                         + b"".join(raw for _, raw in order))
        fresh = LocalLearner(net, TrainConfig(mode="bp", seed=6))
        load_checkpoint(path, fresh)
        expected = trainer_mod._gather_arrays(learner)
        restored = trainer_mod._gather_arrays(fresh)
        assert list(restored) == list(expected)
        for name, arr in expected.items():
            assert arr.tobytes() == restored[name].tobytes(), name


def test_checkpoint_rejects_wrong_magic_and_wrong_network(tmp_path):
    net = small_net()
    cfg = TrainConfig(mode="bp", epochs=1, lr=0.1, seed=41)
    learner = LocalLearner(net, cfg)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(bad, learner)

    other = validate(tinynet8())
    other_learner = LocalLearner(other, TrainConfig(mode="bp", epochs=1, lr=0.1))
    ok = tmp_path / "ok.bin"
    save_checkpoint(ok, other_learner)
    with pytest.raises(CheckpointError):
        load_checkpoint(ok, learner)


def test_checkpoint_load_is_strict(tmp_path):
    net = small_net()
    cfg = TrainConfig(mode="local", d=2, epochs=1, lr=0.1, seed=43)
    ok = tmp_path / "ok.bin"
    save_checkpoint(ok, LocalLearner(net, cfg))
    data = ok.read_bytes()
    extra = (struct.pack("<H", 7) + b"extra/x" + struct.pack("<BI", 1, 1)
             + np.zeros(1).tobytes())
    count = struct.unpack_from("<I", data, 40)[0]
    foreign = data[:40] + struct.pack("<I", count + 1) + data[44:] + extra
    bad_inputs = [data[:n] for n in (*range(len(data) // 4), len(data) - 1)]
    bad_inputs += [data + b"\x00", data + extra, foreign]

    learner = LocalLearner(net, TrainConfig(mode="local", d=2, epochs=1, lr=0.1, seed=44))
    before = {n: t.data.copy() for n, t in learner.model.params.items()}
    bad = tmp_path / "bad.bin"
    for blob in bad_inputs:
        bad.write_bytes(blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(bad, learner)
    for n, t in learner.model.params.items():
        np.testing.assert_array_equal(t.data, before[n])
    load_checkpoint(ok, learner)


def test_checkpoint_save_replaces_atomically(tmp_path, monkeypatch):
    net = small_net()
    path = tmp_path / "c.bin"
    save_checkpoint(path, LocalLearner(net, TrainConfig(mode="bp", lr=0.1, seed=1)))
    first = path.read_bytes()

    def fail(_network):
        raise OSError("disk full")

    monkeypatch.setattr(trainer_mod, "network_hash", fail)
    with pytest.raises(OSError):
        save_checkpoint(path, LocalLearner(net, TrainConfig(mode="bp", lr=0.1, seed=2)))
    assert path.read_bytes() == first
    assert [p.name for p in tmp_path.iterdir()] == ["c.bin"]


def test_forward_equivalence_across_modes():
    # identical primary parameters give identical logits whether the
    # learner was built for bp or local training (heads never touch the
    # primary forward path)
    net = small_net()
    x, _ = small_data(seed=12, n=8)
    a = LocalLearner(net, TrainConfig(mode="bp", epochs=1, lr=0.1, seed=43))
    b = LocalLearner(net, TrainConfig(mode="local", d=2, epochs=1, lr=0.1, seed=43))
    la = a.model.forward_logits(Tensor(x), training=False).data
    lb = b.model.forward_logits(Tensor(x), training=False).data
    np.testing.assert_array_equal(la, lb)


def test_single_loss_leaves_other_units_gradient_free():
    from auglocal.tensor import backward, softmax_cross_entropy, stop_gradient, tape
    net = small_net()
    cfg = TrainConfig(mode="local", d=2, epochs=1, lr=0.1, seed=47)
    learner = LocalLearner(net, cfg)
    x, y = small_data(seed=13, n=8)
    model = learner.model

    h = Tensor(x)
    acts = [h]
    for layer in range(1, net.num_units + 1):
        h = model.forward_unit(layer, Tensor(h.data.copy()), training=False)
        acts.append(h)

    for target in range(1, net.num_units):
        for _, t in model.params.items():
            t.zero_grad()
        with tape() as tp:
            out = model.forward_unit(target, stop_gradient(acts[target - 1]),
                                     training=True)
            logits = learner.aux[target - 1].forward(out, training=True)
            loss = softmax_cross_entropy(logits, y)
        backward(tp, loss)
        for other in range(1, net.num_units + 1):
            if other == target:
                continue
            for name in model.unit_param_names(other):
                assert model.params[name].grad is None, (target, name)


def test_config_rejects_bad_hyperparameters():
    assert issubclass(ConfigError, ValueError)
    bad = [dict(lr=0.0), dict(epochs=0), dict(mode="lcoal"), dict(batch_size=0),
           dict(strategy="foo"), dict(d=1), dict(d_min=5), dict(d_min=1, d=1),
           dict(tau=2.0), dict(tau=-0.1), dict(tau=float("nan")),
           dict(lr=float("nan")), dict(lr=float("inf")), dict(lr=-1.0),
           dict(momentum=float("nan")), dict(momentum=-0.5),
           dict(weight_decay=float("inf")), dict(weight_decay=-1.0)]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)
    TrainConfig(momentum=0.0, weight_decay=0.0, tau=1.0, d=4, d_min=4,
                strategy="handcrafted-c3x3")
