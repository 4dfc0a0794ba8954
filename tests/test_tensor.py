"""Autodiff core: forward semantics, gradients vs oracles, stop-gradient."""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auglocal import tensor as T
from auglocal.errors import (
    EmptyTape,
    LabelOutOfRange,
    NonDeterministicFunction,
    NonScalarLoss,
    ShapeMismatch,
    UnsupportedOperator,
)
from auglocal.tensor import (
    BatchNormState,
    ParamSet,
    Tensor,
    backward,
    finite_diff_check,
    tape,
)


def test_conv_identity_kernel():
    x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 6, 6)))
    w = Tensor(np.ones((1, 1, 1, 1)))
    y = T.conv2d(x, w)
    np.testing.assert_array_equal(y.data, x.data)


def test_conv_stride2_shape():
    y = T.conv2d(Tensor(np.zeros((1, 3, 8, 8))), Tensor(np.zeros((16, 3, 3, 3))),
                 stride=2)
    assert y.shape == (1, 16, 4, 4)


def test_conv_matches_nested_loop_oracle():
    rng = np.random.default_rng(1)
    xd = rng.normal(size=(1, 2, 5, 5))
    wd = rng.normal(size=(4, 2, 3, 3))
    out = T.conv2d(Tensor(xd), Tensor(wd)).data

    xp = np.pad(xd, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ref = np.zeros((1, 4, 5, 5))
    for o in range(4):
        for i in range(5):
            for j in range(5):
                acc = 0.0
                for c in range(2):
                    for a in range(3):
                        for b in range(3):
                            acc += xp[0, c, i + a, j + b] * wd[o, c, a, b]
                ref[0, o, i, j] = acc
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)


def test_conv_chunks_match_whole_batch_lowering(monkeypatch):
    # lowering one example at a time gives the whole-batch output and
    # gradients up to the order of floating-point sums: BLAS may order a
    # narrow chunk's products differently, and the weight gradient adds
    # one partial sum per chunk
    rng = np.random.default_rng(16)
    x = rng.normal(size=(4, 3, 9, 7))

    def run(workspace, w, stride):
        monkeypatch.setattr(T, "CONV_WORKSPACE_BYTES", workspace)
        ps = ParamSet()
        wt, bt = ps.add("w", w), ps.add("b", np.arange(w.shape[0], dtype=float))
        xt = Tensor(x, requires_grad=True)
        with tape() as tp:
            y = T.conv2d(xt, wt, bt, stride=stride)
            up = np.random.default_rng(17).normal(size=y.shape)
            loss = T.tensor_sum(T.mul(y, Tensor(up)))
        backward(tp, loss)
        assert y.data.flags.c_contiguous and xt.grad.flags.c_contiguous
        return y.data, xt.grad, wt.grad, bt.grad

    default = T.CONV_WORKSPACE_BYTES
    for k in (1, 3):
        w = rng.normal(size=(5, 3, k, k))
        for stride in (1, 2):
            ho = (9 + 2 * (k // 2) - k) // stride + 1
            wo = (7 + 2 * (k // 2) - k) // stride + 1
            whole = run(default, w, stride)
            assert T.conv_batch_chunks(3, k, ho, wo, 4, 8) == [(0, 4)]
            chunked = run(1, w, stride)
            assert T.conv_batch_chunks(3, k, ho, wo, 4, 8) == [(0, 1), (1, 2), (2, 3), (3, 4)]
            for a, b in zip(whole, chunked):
                np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12)


def test_conv_input_behind_a_boundary_gets_no_gradient(monkeypatch):
    # a conv whose input needs no gradient neither scatters nor returns one,
    # and its weight and bias gradients are those of a conv whose input does
    rng = np.random.default_rng(18)
    x = rng.normal(size=(3, 2, 7, 6))
    calls = []
    col2im = T._col2im

    def counted_col2im(*args):
        calls.append(args)
        col2im(*args)

    monkeypatch.setattr(T, "_col2im", counted_col2im)

    def run(kind, w, stride):
        ps = ParamSet()
        wt, bt = ps.add("w", w), ps.add("b", np.arange(4.0))
        xt = Tensor(x, requires_grad=kind != "plain")
        with tape() as tp:
            y = T.conv2d(T.stop_gradient(xt) if kind == "detached" else xt, wt, bt,
                         stride=stride)
            up = np.random.default_rng(19).normal(size=y.shape)
            loss = T.tensor_sum(T.mul(y, Tensor(up)))
        calls.clear()
        backward(tp, loss)
        return xt, wt.grad, bt.grad

    for k in (1, 3):
        w = rng.normal(size=(4, 2, k, k))
        for stride in (1, 2):
            ref_x, ref_gw, ref_gb = run("live", w, stride)
            assert calls and ref_x.grad is not None
            for kind in ("plain", "detached"):
                xt, gw, gb = run(kind, w, stride)
                assert not calls, (k, stride, kind)
                assert xt.grad is None
                assert gw.tobytes() == ref_gw.tobytes()
                assert gb.tobytes() == ref_gb.tobytes()


def test_conv_rejects_bad_kernel_and_channels():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    with pytest.raises(UnsupportedOperator):
        T.conv2d(x, Tensor(np.zeros((2, 3, 5, 5))))
    with pytest.raises(ShapeMismatch):
        T.conv2d(x, Tensor(np.zeros((2, 4, 3, 3))))


def test_backward_linear_case():
    rng = np.random.default_rng(2)
    xv = rng.normal(size=(7,)).reshape(1, 7)
    ps = ParamSet()
    w = ps.add("w", rng.normal(size=(1, 7)))
    with tape() as tp:
        loss = T.tensor_sum(T.mul(w, Tensor(xv)))
    backward(tp, loss)
    np.testing.assert_allclose(w.grad, xv, rtol=1e-12)


def test_backward_requires_scalar_loss_and_nonempty_tape():
    ps = ParamSet()
    w = ps.add("w", np.ones(3))
    with tape() as tp:
        y = T.relu(w)
    with pytest.raises(NonScalarLoss):
        backward(tp, y)
    with tape() as tp2:
        pass
    with pytest.raises(EmptyTape):
        backward(tp2, Tensor(np.asarray(0.0)))


def test_stop_gradient_forward_identity():
    x = Tensor(np.random.default_rng(3).normal(size=(2, 3)))
    np.testing.assert_array_equal(T.stop_gradient(x).data, x.data)


def test_stop_gradient_blocks_all_flow():
    ps = ParamSet()
    w = ps.add("w", np.arange(4.0))
    with tape() as tp:
        loss = T.tensor_sum(T.stop_gradient(w))
    with pytest.raises(EmptyTape):
        backward(tp, loss)   # nothing was recorded at all
    assert w.grad is None


def test_stop_gradient_single_sided_flow():
    rng = np.random.default_rng(4)
    wv = rng.normal(size=(5,))
    ps = ParamSet()
    w = ps.add("w", wv)
    with tape() as tp:
        loss = T.tensor_sum(T.mul(w, T.stop_gradient(w)))
    backward(tp, loss)
    # d/dw sum(w * const(w)) = value of w
    np.testing.assert_allclose(w.grad, wv, rtol=1e-12)


def test_finite_diff_quadratic_near_machine_eps():
    ps = ParamSet()
    ps.add("w", np.random.default_rng(5).normal(size=(6,)))

    def f(p):
        return T.tensor_sum(T.mul(p["w"], p["w"]))

    assert finite_diff_check(f, ps) <= 1e-9


def test_finite_diff_dense_relu_composite():
    rng = np.random.default_rng(6)
    ps = ParamSet()
    ps.add("w1", rng.normal(size=(4, 5)) * 0.5)
    ps.add("b1", rng.normal(size=(5,)) * 0.1)
    ps.add("w2", rng.normal(size=(5, 3)) * 0.5)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)

    def f(p):
        h = T.relu(T.dense(Tensor(x), p["w1"], p["b1"]))
        return T.softmax_cross_entropy(T.dense(h, p["w2"]), y)

    assert finite_diff_check(f, ps) <= 1e-6


def test_finite_diff_conv_bn_gap_ce_composite():
    rng = np.random.default_rng(7)
    ps = ParamSet()
    ps.add("wc", rng.normal(size=(3, 2, 3, 3)) * 0.3)
    ps.add("g", np.ones(3))
    ps.add("be", np.zeros(3))
    ps.add("wf", rng.normal(size=(3, 3)) * 0.5)
    x = rng.normal(size=(4, 2, 5, 5))
    y = rng.integers(0, 3, size=4)

    def f(p):
        st = BatchNormState(3)
        h = T.relu(T.batchnorm2d(T.conv2d(Tensor(x), p["wc"]), p["g"], p["be"],
                                 st, training=True))
        return T.softmax_cross_entropy(T.dense(T.global_avg_pool(h), p["wf"]), y)

    assert finite_diff_check(f, ps) <= 1e-5


def test_finite_diff_conv_bn_eval_composite():
    # eval mode normalizes with fixed running statistics, which carry no gradient
    rng = np.random.default_rng(9)
    ps = ParamSet()
    ps.add("wc", rng.normal(size=(3, 2, 3, 3)) * 0.3)
    ps.add("g", rng.uniform(0.5, 1.5, size=3))
    ps.add("be", rng.normal(size=3) * 0.1)
    ps.add("wf", rng.normal(size=(3, 3)) * 0.5)
    x = rng.normal(size=(4, 2, 5, 5))
    y = rng.integers(0, 3, size=4)
    st = BatchNormState(3)
    st.running_mean = rng.normal(size=3)
    st.running_var = rng.uniform(0.5, 2.0, size=3)

    def f(p):
        h = T.relu(T.batchnorm2d(T.conv2d(Tensor(x), p["wc"]), p["g"], p["be"],
                                 st, training=False))
        return T.softmax_cross_entropy(T.dense(T.global_avg_pool(h), p["wf"]), y)

    assert finite_diff_check(f, ps) <= 1e-5


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
def test_finite_diff_through_conv_input_gradient(k, stride):
    # the first conv's weight gradient passes through the second conv's
    # input gradient
    rng = np.random.default_rng(20 + 2 * k + stride)
    ps = ParamSet()
    ps.add("w1", rng.normal(size=(3, 2, k, k)) * 0.5)
    ps.add("w2", rng.normal(size=(3, 3, k, k)) * 0.5)
    ps.add("wf", rng.normal(size=(3, 3)) * 0.5)
    x = rng.normal(size=(3, 2, 5, 5))
    y = rng.integers(0, 3, size=3)

    def f(p):
        h = T.relu(T.conv2d(Tensor(x), p["w1"], stride=stride))
        h = T.conv2d(h, p["w2"], stride=stride)
        return T.softmax_cross_entropy(T.dense(T.global_avg_pool(h), p["wf"]), y)

    assert finite_diff_check(f, ps) <= 1e-5


def test_finite_diff_rejects_nondeterministic_function():
    ps = ParamSet()
    ps.add("w", np.ones(2))
    state = {"n": 0}

    def f(p):
        state["n"] += 1
        return T.tensor_sum(T.mul(p["w"], Tensor(np.full(2, float(state["n"])))))

    with pytest.raises(NonDeterministicFunction):
        finite_diff_check(f, ps)


def _batchnorm_train_by_mean_and_var(xd, gd, bd, state, g):
    """Training-mode batchnorm forward and backward written with np.mean,
    np.var, a normalized input formed twice, and np.mean of the gradients."""
    axes = (0, 2, 3)
    c = xd.shape[1]
    mean = xd.mean(axis=axes)
    var = xd.var(axis=axes)
    m = xd.size // c
    state.running_mean += state.momentum * (mean - state.running_mean)
    unbiased = var * m / max(m - 1, 1)
    state.running_var += state.momentum * (unbiased - state.running_var)
    inv_std = 1.0 / np.sqrt(var + state.eps)

    def normalized():
        return (xd - mean[None, :, None, None]) * inv_std[None, :, None, None]

    out = gd[None, :, None, None] * normalized() + bd[None, :, None, None]
    xhat = normalized()
    g_xhat = g * xhat
    gg = g_xhat.sum(axis=axes)
    gb = g.sum(axis=axes)
    gmean = g.mean(axis=axes)
    gxhat_mean = g_xhat.mean(axis=axes)
    gx = (gd * inv_std)[None, :, None, None] * (
        g - gmean[None, :, None, None] - xhat * gxhat_mean[None, :, None, None])
    return out, (gx, gg, gb)


def test_batchnorm_training_is_bit_exact_to_mean_and_var():
    rng = np.random.default_rng(21)
    for shape in ((4, 3, 5, 5), (32, 16, 16, 16)):
        c = shape[1]
        x = rng.normal(size=shape) * 2.0 + 0.7
        gd = rng.uniform(0.5, 1.5, size=c)
        bd = rng.normal(size=c)
        up = rng.normal(size=shape)
        start_mean, start_var = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)
        states = []
        for _ in range(2):
            st = BatchNormState(c)
            st.running_mean[:], st.running_var[:] = start_mean, start_var
            states.append(st)
        ref_out, ref_grads = _batchnorm_train_by_mean_and_var(x, gd, bd, states[0], up)
        ps = ParamSet()
        g, b = ps.add("g", gd), ps.add("b", bd)
        with tape() as tp:
            y = T.batchnorm2d(Tensor(x, requires_grad=True), g, b, states[1], True)
        grads = tp.nodes[-1].backward_fn(up)
        assert y.data.tobytes() == ref_out.tobytes()
        assert states[1].running_mean.tobytes() == states[0].running_mean.tobytes()
        assert states[1].running_var.tobytes() == states[0].running_var.tobytes()
        for a, ref in zip(grads, ref_grads):
            assert a.tobytes() == ref.tobytes()


def test_batchnorm_eval_uses_running_stats():
    rng = np.random.default_rng(8)
    ps = ParamSet()
    g = ps.add("g", np.ones(2))
    b = ps.add("b", np.zeros(2))
    st = BatchNormState(2)
    st.running_mean = np.array([1.0, -1.0])
    st.running_var = np.array([4.0, 9.0])
    x = rng.normal(size=(3, 2, 2, 2))
    y = T.batchnorm2d(Tensor(x), g, b, st, training=False)
    expected = (x - st.running_mean[None, :, None, None]) / np.sqrt(
        st.running_var[None, :, None, None] + st.eps)
    np.testing.assert_allclose(y.data, expected, rtol=1e-12)


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((4, 10)))
    loss = T.softmax_cross_entropy(logits, np.zeros(4, dtype=int))
    assert abs(loss.item() - np.log(10)) < 1e-12


def test_cross_entropy_confident_logit_near_zero():
    logits = np.zeros((1, 5))
    logits[0, 2] = 100.0
    loss = T.softmax_cross_entropy(Tensor(logits), np.array([2]))
    assert loss.item() < 1e-8


def test_cross_entropy_matches_high_precision_oracle():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(6, 4)) * 3
    y = rng.integers(0, 4, size=6)
    loss = T.softmax_cross_entropy(Tensor(z), y).item()
    # independent evaluation in extended precision
    zl = np.asarray(z, dtype=np.longdouble)
    per = [-(zl[i, y[i]] - np.log(np.exp(zl[i]).sum())) for i in range(6)]
    assert abs(loss - float(np.mean(per))) <= 1e-10


def test_cross_entropy_label_out_of_range():
    with pytest.raises(LabelOutOfRange):
        T.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_forward_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        return T.relu(T.conv2d(x, w, stride=2)).data.tobytes()

    assert run() == run()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_gradcheck_random_dense_graphs(seed):
    from hypothesis import assume

    rng = np.random.default_rng(seed)
    ps = ParamSet()
    w = ps.add("w", rng.normal(size=(3, 4)) * 0.5)
    b = ps.add("b", rng.normal(size=(4,)) * 0.1)
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 4, size=5)
    # central differences straddle the relu kink when a pre-activation is
    # within the probe step of zero; those samples say nothing about the
    # analytic gradient, so exclude them
    assume(np.abs(x @ w.data + b.data).min() > 1e-3)

    def f(p):
        return T.softmax_cross_entropy(T.relu(T.dense(Tensor(x), p["w"], p["b"])), y)

    assert finite_diff_check(f, ps) <= 1e-5


def test_tape_records_in_topological_order_and_backward_visits_once():
    ps = ParamSet()
    w = ps.add("w", np.ones(3))
    with tape() as tp:
        a = T.mul(w, w)
        b = T.relu(a)
        loss = T.tensor_sum(b)
    outputs = [id(n.output) for n in tp.nodes]
    assert outputs == [id(a), id(b), id(loss)]
    backward(tp, loss)
    np.testing.assert_allclose(w.grad, 2 * np.ones(3))


def test_tapes_nest_and_are_per_thread():
    w = ParamSet().add("w", np.ones(3))
    assert T.active_tape() is None
    with tape() as outer:
        with tape() as inner:
            assert T.active_tape() is inner
            T.relu(w)
        assert T.active_tape() is outer
        T.relu(w)
        other = []
        thread = threading.Thread(target=lambda: other.append(T.active_tape()))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive() and other == [None]
    assert T.active_tape() is None
    assert len(inner.nodes) == len(outer.nodes) == 1


def test_backward_consumes_the_tape_and_leaves_grads_on_leaves_only():
    rng = np.random.default_rng(11)
    ps = ParamSet()
    w = ps.add("w", rng.normal(size=(2, 3, 3, 3)))
    g = ps.add("g", np.ones(2))
    b = ps.add("b", np.zeros(2))
    x = Tensor(rng.normal(size=(4, 3, 5, 5)), requires_grad=True)
    with tape() as tp:
        c = T.conv2d(x, w)
        h = T.relu(T.batchnorm2d(c, g, b, BatchNormState(2), training=True))
        loss = T.tensor_sum(h)
    backward(tp, loss)
    assert tp.nodes == []
    assert c.grad is None and h.grad is None and loss.grad is None
    for leaf in (w, g, b, x):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape
    with pytest.raises(EmptyTape):
        backward(tp, loss)


def _retained_bytes(op, *args):
    """Bytes still allocated after ``op(*args)`` returns under a tape, with
    the tape and the output alive, and the output's own byte count."""
    tracemalloc.start()
    try:
        with tape() as tp:
            before = tracemalloc.get_traced_memory()[0]
            out = op(*args)
            retained = tracemalloc.get_traced_memory()[0] - before
        assert len(tp.nodes) == 1
        return retained, out.data.nbytes
    finally:
        tracemalloc.stop()


def test_ops_retain_their_output_and_no_workspace():
    # a node may keep its op's output, but no workspace of activation size:
    # not conv2d's im2col columns (9x its input here), nor batchnorm2d's
    # normalized input, nor a separate relu mask
    rng = np.random.default_rng(12)
    ps = ParamSet()
    x = Tensor(rng.normal(size=(8, 16, 16, 16)), requires_grad=True)
    w = ps.add("w", rng.normal(size=(16, 16, 3, 3)))
    g = ps.add("g", np.ones(16))
    b = ps.add("b", np.zeros(16))
    slack = 16_384
    for op, args in ((T.conv2d, (x, w)),
                     (T.batchnorm2d, (x, g, b, BatchNormState(16), True)),
                     (T.relu, (x,))):
        retained, out_bytes = _retained_bytes(op, *args)
        assert retained <= out_bytes + slack, (op.__name__, retained, out_bytes)


def test_chains_retain_only_the_arrays_backward_reads():
    # with only the chain's output alive, a tape keeps what the backward
    # closures capture: the norm's input and the relu's output for
    # conv-bn-relu; conv1's and conv2's outputs and both relu outputs for a
    # residual block. Norm outputs and the residual sum are freed.
    from auglocal.netspec import LocalUnitSpec
    from auglocal.nn import ConvUnit

    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(8, 16, 16, 16)), requires_grad=True)
    act = x.data.nbytes
    slack = 65_536
    for kind, captured in (("conv3x3", 2), ("residual-basic-block", 4)):
        unit = ConvUnit(LocalUnitSpec(kind, 16, 16), ParamSet(), "u", rng)
        tracemalloc.start()
        try:
            with tape() as tp:
                before = tracemalloc.get_traced_memory()[0]
                out = unit.forward(x, training=True)
                retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.shape == x.shape and tp.nodes
        assert retained <= captured * act + slack, (kind, retained / act)


def test_conv_workspace_is_bounded(monkeypatch):
    # one conv2d forward and backward holds its input, output and gradients,
    # and at most two column chunks of CONV_WORKSPACE_BYTES besides. The
    # first input's whole-batch columns would be 37.7 MB; in the second, the
    # columns of one output row across the batch (4.7 MB) are 72 times a
    # 64 KiB budget, while one example's are 4.6 KB
    rng = np.random.default_rng(14)
    for shape, workspace in (((32, 16, 32, 32), T.CONV_WORKSPACE_BYTES),
                             ((4096, 4, 4, 4), 64 << 10)):
        monkeypatch.setattr(T, "CONV_WORKSPACE_BYTES", workspace)
        ps = ParamSet()
        tracemalloc.start()
        try:
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            w = ps.add("w", rng.normal(size=(shape[1], shape[1], 3, 3)))
            with tape() as tp:
                y = T.conv2d(x, w)
                loss = T.tensor_sum(y)
            backward(tp, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = 9 * x.data.nbytes
        assert columns > 2 * workspace
        # the output's, the input's and the weight's, each held once: a
        # gradient cell keeps the array the backward closure returns
        gradients = y.data.nbytes + x.grad.nbytes + w.grad.nbytes
        bound = x.data.nbytes + y.data.nbytes + gradients + 2 * workspace
        assert peak <= bound + 1_000_000, (shape, peak, bound)


def test_batchnorm_eval_backward_uses_the_statistics_of_its_forward_pass():
    # a training-mode pass on the same state between the eval forward and
    # its backward pass updates the running buffers in place; the eval
    # gradients must still be those of the statistics the forward used
    rng = np.random.default_rng(15)
    x = rng.normal(size=(4, 3, 5, 5)) + 2.0
    upstream = rng.normal(size=x.shape)

    def grads(interleave: bool):
        ps = ParamSet()
        g = ps.add("g", np.ones(3))
        b = ps.add("b", np.zeros(3))
        state = BatchNormState(3)
        state.running_mean[:] = [0.5, -0.5, 1.0]
        with tape() as tp:
            y = T.batchnorm2d(Tensor(x), g, b, state, training=False)
            loss = T.tensor_sum(T.mul(y, Tensor(upstream)))
        if interleave:
            T.batchnorm2d(Tensor(x * 3.0), g, b, state, training=True)
        backward(tp, loss)
        return g.grad, b.grad

    plain, interleaved = grads(False), grads(True)
    for a, c in zip(plain, interleaved):
        assert a.tobytes() == c.tobytes()
