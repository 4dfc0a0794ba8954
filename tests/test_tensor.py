"""Autodiff core: forward semantics, gradients vs oracles, stop-gradient."""

import itertools
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
    NonScalarLoss,
    ShapeMismatch,
    UnsupportedOperator,
)
from auglocal.tensor import (
    BatchNormState,
    ParamSet,
    Tensor,
    backward,
    tape,
)
from helpers import NonDeterministicFunction, finite_diff_check, mul


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
            loss = T.tensor_sum(mul(y, Tensor(up)))
        backward(tp, loss)
        # output and input gradient are held in (C, H, W, N) memory
        assert y.data.transpose(1, 2, 3, 0).flags.c_contiguous
        assert xt.grad.transpose(1, 2, 3, 0).flags.c_contiguous
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


def _chwn(a: np.ndarray) -> np.ndarray:
    """The values of an (N, C, H, W) array, held in (C, H, W, N) memory."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def test_conv_gives_the_same_bytes_for_either_input_layout(monkeypatch):
    # a C-ordered input, as unit 1's images are, and the same values held
    # in (C, H, W, N) memory, as every other activation is, give the same
    # output, input-gradient and weight-gradient bytes, whatever the output
    # gradient's layout; output and input gradient are (C, H, W, N)
    rng = np.random.default_rng(22)
    x = rng.normal(size=(4, 3, 9, 7))

    def run(xd, g_layout, w, stride):
        xt = Tensor(xd, requires_grad=True)
        with tape() as tp:
            y = T.conv2d(xt, Tensor(w, requires_grad=True), stride=stride)
        g = g_layout(np.random.default_rng(23).normal(size=y.shape))
        gx, gw = tp.nodes[0].backward_fn(g)
        for a in (y.data, gx):
            assert a.transpose(1, 2, 3, 0).flags.c_contiguous
        return [a.tobytes() for a in (y.data, gx, gw)]

    for workspace in (T.CONV_WORKSPACE_BYTES, 1):     # whole batch, then chunks
        monkeypatch.setattr(T, "CONV_WORKSPACE_BYTES", workspace)
        for k in (1, 3):
            w = rng.normal(size=(5, 3, k, k))
            for stride in (1, 2):
                ref = run(x, np.asarray, w, stride)
                for x_layout, g_layout in ((np.asarray, _chwn), (_chwn, np.asarray),
                                           (_chwn, _chwn)):
                    assert run(x_layout(x), g_layout, w, stride) == ref, (workspace, k, stride)


def _conv_grads_by_loops(x, w, g, stride):
    """Input and weight gradients of a zero-padded conv, summed one output
    position and one tap at a time."""
    n, c, h, wd = x.shape
    k = w.shape[2]
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for r in range(g.shape[2]):
        for s in range(g.shape[3]):
            for i in range(k):
                for j in range(k):
                    xr, xc = stride * r + i, stride * s + j
                    gw[:, :, i, j] += g[:, :, r, s].T @ xp[:, :, xr, xc]
                    gxp[:, :, xr, xc] += g[:, :, r, s] @ w[:, :, i, j]
    return gxp[:, :, pad:pad + h, pad:pad + wd], gw


def test_conv_gradients_match_nested_loop_oracle(monkeypatch):
    # both backward lowerings, the stride-1 one from the output gradient's
    # columns and the input-column one with its scatter, whole-batch and
    # chunked, for either input layout; a 1x2 input clips every 3x3 window
    rng = np.random.default_rng(24)
    for workspace in (T.CONV_WORKSPACE_BYTES, 1):
        monkeypatch.setattr(T, "CONV_WORKSPACE_BYTES", workspace)
        for (c_in, c_out), hw in itertools.product(((4, 3), (4, 4), (2, 5)), ((6, 5), (1, 2))):
            x = rng.normal(size=(3, c_in, *hw))
            for k in (1, 3):
                w = rng.normal(size=(c_out, c_in, k, k))
                for stride in (1, 2):
                    for layout in (np.asarray, _chwn):
                        xt = Tensor(layout(x), requires_grad=True)
                        with tape() as tp:
                            y = T.conv2d(xt, Tensor(w, requires_grad=True), stride=stride)
                        g = rng.normal(size=y.shape)
                        ref_gx, ref_gw = _conv_grads_by_loops(x, w, g, stride)
                        gx, gw = tp.nodes[0].backward_fn(g.copy())
                        case = (workspace, c_in, c_out, hw, k, stride, layout.__name__)
                        np.testing.assert_allclose(gx, ref_gx, rtol=1e-12, atol=1e-12, err_msg=str(case))
                        np.testing.assert_allclose(gw, ref_gw, rtol=1e-12, atol=1e-12, err_msg=str(case))


def test_conv_input_behind_a_boundary_gets_no_gradient(monkeypatch):
    # a conv whose input needs no gradient does none of the input-gradient
    # work and returns none, and its weight and bias gradients are those of
    # a conv whose input does. That work is the scatter ``_col2im`` for
    # stride-2 convs and 3x3 ones with more output than input channels, and
    # the GEMM ``_gemm_into`` of the output gradient's columns for the other
    # stride-1 convs
    rng = np.random.default_rng(18)
    x = rng.normal(size=(3, 2, 7, 6))
    calls = []

    def counted(name):
        real = getattr(T, name)

        def f(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(T, name, f)

    counted("_col2im")
    counted("_gemm_into")

    def run(kind, w, stride):
        ps = ParamSet()
        wt, bt = ps.add("w", w), ps.add("b", np.arange(float(w.shape[0])))
        xt = Tensor(x, requires_grad=kind != "plain")
        with tape() as tp:
            y = T.conv2d(T.stop_gradient(xt) if kind == "detached" else xt, wt, bt,
                         stride=stride)
            up = np.random.default_rng(19).normal(size=y.shape)
            loss = T.tensor_sum(mul(y, Tensor(up)))
        calls.clear()
        backward(tp, loss)
        return xt, wt.grad, bt.grad

    for c_out in (4, 2):
        for k in (1, 3):
            w = rng.normal(size=(c_out, 2, k, k))
            for stride in (1, 2):
                ref_x, ref_gw, ref_gb = run("live", w, stride)
                from_g = stride == 1 and (k == 1 or c_out <= 2)
                assert calls and set(calls) == {"_gemm_into" if from_g else "_col2im"}
                assert ref_x.grad is not None
                for kind in ("plain", "detached"):
                    xt, gw, gb = run(kind, w, stride)
                    assert not calls, (c_out, k, stride, kind)
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
        loss = T.tensor_sum(mul(w, Tensor(xv)))
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
        loss = T.tensor_sum(mul(w, T.stop_gradient(w)))
    backward(tp, loss)
    # d/dw sum(w * const(w)) = value of w
    np.testing.assert_allclose(w.grad, wv, rtol=1e-12)


def test_finite_diff_quadratic_near_machine_eps():
    ps = ParamSet()
    ps.add("w", np.random.default_rng(5).normal(size=(6,)))

    def f(p):
        return T.tensor_sum(mul(p["w"], p["w"]))

    assert finite_diff_check(f, ps) <= 1e-9


def test_finite_diff_dense_relu_composite():
    rng = np.random.default_rng(6)
    ps = ParamSet()
    ps.add("w1", rng.normal(size=(4, 5)) * 0.5)
    ps.add("b1", rng.normal(size=(5,)) * 0.1)
    ps.add("w2", rng.normal(size=(5, 3)) * 0.5)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    ps.add("b2", rng.normal(size=(3,)) * 0.1)

    def f(p):
        h = T.relu(T.dense(Tensor(x), p["w1"], p["b1"]))
        return T.softmax_cross_entropy(T.dense(h, p["w2"], p["b2"]), y)

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
    ps.add("bf", rng.normal(size=(3,)) * 0.1)

    def f(p):
        st = BatchNormState(3)
        h = T.relu(T.batchnorm2d(T.conv2d(Tensor(x), p["wc"]), p["g"], p["be"],
                                 st, training=True))
        return T.softmax_cross_entropy(
            T.dense(T.global_avg_pool(h), p["wf"], p["bf"]), y)

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
    ps.add("bf", rng.normal(size=(3,)) * 0.1)

    def f(p):
        h = T.relu(T.conv2d(Tensor(x), p["w1"], stride=stride))
        h = T.conv2d(h, p["w2"], stride=stride)
        return T.softmax_cross_entropy(
            T.dense(T.global_avg_pool(h), p["wf"], p["bf"]), y)

    assert finite_diff_check(f, ps) <= 1e-5


def test_finite_diff_rejects_nondeterministic_function():
    ps = ParamSet()
    ps.add("w", np.ones(2))
    state = {"n": 0}

    def f(p):
        state["n"] += 1
        return T.tensor_sum(mul(p["w"], Tensor(np.full(2, float(state["n"])))))

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

    # with an affine map: the bits of x * scale + shift, built in one output
    # array, leaving the input and the running buffers as they were
    g.data[:] = [1.5, -0.25]
    b.data[:] = [0.75, -2.0]
    x = rng.normal(size=(8, 2, 64, 64))
    x[0, 0, 0, :4] = [0.0, -0.0, 5e-324, -np.inf]
    saved = x.copy(), st.running_mean.copy(), st.running_var.copy()
    inv_std = 1.0 / np.sqrt(st.running_var + st.eps)
    scale = g.data * inv_std
    shift = b.data - st.running_mean * scale
    expected = x * scale[None, :, None, None] + shift[None, :, None, None]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = T.batchnorm2d(Tensor(x), g, b, st, training=False)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert y.data.tobytes() == expected.tobytes()
    for kept, now in zip(saved, (x, st.running_mean, st.running_var)):
        assert kept.tobytes() == now.tobytes()
    # one output-sized array, not a product and then a sum
    assert peak < 1.5 * x.nbytes, (peak, x.nbytes)


def test_batchnorm_eval_records_no_node_and_refuses_a_gradient():
    # eval mode is a constant map: without a tape, or with no input that
    # wants a gradient, it records nothing; under a tape it will not drop
    # the gradient of an input that wants one
    x = np.random.default_rng(15).normal(size=(4, 3, 5, 5))
    ps = ParamSet()
    g, b = ps.add("g", np.ones(3)), ps.add("b", np.zeros(3))
    st = BatchNormState(3)
    assert not T.batchnorm2d(Tensor(x), g, b, st, training=False).requires_grad
    with tape() as tp:
        y = T.batchnorm2d(Tensor(x), Tensor(g.data), Tensor(b.data), st, training=False)
        for args in ((Tensor(x), g, Tensor(b.data)), (Tensor(x), Tensor(g.data), b),
                     (Tensor(x, requires_grad=True), Tensor(g.data), Tensor(b.data))):
            with pytest.raises(UnsupportedOperator):
                T.batchnorm2d(*args, st, training=False)
    assert not y.requires_grad and tp.nodes == []


def test_relu_is_max_with_zero_and_passes_nan():
    values = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, -np.nan,
              1.5, -2.5, 3e-310, -3e-310]
    # long enough for vectorised loops and their scalar tails
    x = np.array(values * 37)
    with tape() as tp:
        xt = Tensor(x.copy(), requires_grad=True)
        y = T.relu(xt)
        loss = T.tensor_sum(y)
    nan = np.isnan(x)
    assert y.data[~nan].tobytes() == np.where(x > 0, x, 0.0)[~nan].tobytes()
    assert np.isnan(y.data[nan]).all()
    backward(tp, loss)
    assert xt.grad.tobytes() == (x > 0).astype(float).tobytes()
    zero_or_nan = (x == 0) | nan
    assert (xt.grad[zero_or_nan] == 0.0).all() and not np.signbit(xt.grad).any()


def test_relu_backward_gives_the_product_bytes():
    # the in-place product writes what g * (out > 0) writes, -0.0 for a
    # negative g where out is 0 included, for every pair of x and g values
    values = np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1.5, -2.5])
    xs, gs = np.meshgrid(values, values)
    x, g = np.tile(xs, (1, 5)), np.tile(gs, (1, 5))
    with tape() as tp:
        out = T.relu(Tensor(x, requires_grad=True))
    with np.errstate(invalid="ignore"):     # inf * 0 is NaN on both sides
        expected = (g * (out.data > 0)).tobytes()
        (gx,) = tp.nodes[0].backward_fn(g.copy())
    assert gx.tobytes() == expected


def test_relu_backward_builds_no_gradient_sized_array():
    # the backward closure owns its output gradient and overwrites it: it
    # allocates only the boolean mask, an eighth of the gradient's bytes,
    # and the ufunc's fixed-size cast buffer
    rng = np.random.default_rng(21)
    x, g = rng.normal(size=(2, 8, 16, 32, 32))
    with tape() as tp:
        T.relu(Tensor(x, requires_grad=True))
    bwd = tp.nodes[0].backward_fn
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bwd(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < g.nbytes / 2, (peak, g.nbytes)


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
        a = mul(w, w)
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
