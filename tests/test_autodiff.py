import functools
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import foldreg.autodiff as ad
from foldreg.model import FaimConfig, faim_layers


def sum_all(x: ad.Tensor) -> ad.Tensor:
    """The float64 sum of x as a scalar test loss; its backward hands x a broadcast view of the seed."""
    def backward_fn(g):
        ad._accumulate(x, np.broadcast_to(g, x.data.shape), fresh=False)

    return ad.Tensor(x.data.sum(dtype=np.float64), parents=(x,), backward_fn=backward_fn, op="sum_all")


def brute_conv3d(x, w, b, stride, padding):
    """Direct six-loop cross-correlation with zero padding."""
    cout, cin, k = w.shape[0], w.shape[1], w.shape[2]
    xp = np.pad(x, ((0, 0), (padding,) * 2, (padding,) * 2, (padding,) * 2))
    out_sp = [(n + 2 * padding - k) // stride + 1 for n in x.shape[1:]]
    out = np.zeros((cout, *out_sp))
    for o in range(cout):
        for d in range(out_sp[0]):
            for h in range(out_sp[1]):
                for wi in range(out_sp[2]):
                    acc = 0.0
                    for c in range(cin):
                        patch = xp[c, d * stride:d * stride + k,
                                   h * stride:h * stride + k,
                                   wi * stride:wi * stride + k]
                        acc += float((patch * w[o, c]).sum())
                    out[o, d, h, wi] = acc + b[o]
    return out


def brute_conv3d_transpose(x, w, b, stride, padding):
    """Direct scatter: out[t] += x[r] * w[., ., t - r*stride + padding]."""
    cin, cout, k = w.shape[0], w.shape[1], w.shape[2]
    out_sp = [(n - 1) * stride + k - 2 * padding for n in x.shape[1:]]
    out = np.zeros((cout, *out_sp))
    for a in range(cin):
        for bch in range(cout):
            for r0 in range(x.shape[1]):
                for r1 in range(x.shape[2]):
                    for r2 in range(x.shape[3]):
                        v = x[a, r0, r1, r2]
                        for d0 in range(k):
                            t0 = r0 * stride + d0 - padding
                            if not 0 <= t0 < out_sp[0]:
                                continue
                            for d1 in range(k):
                                t1 = r1 * stride + d1 - padding
                                if not 0 <= t1 < out_sp[1]:
                                    continue
                                for d2 in range(k):
                                    t2 = r2 * stride + d2 - padding
                                    if not 0 <= t2 < out_sp[2]:
                                        continue
                                    out[bch, t0, t1, t2] += v * w[a, bch, d0, d1, d2]
    for bch in range(cout):
        out[bch] += b[bch]
    return out


def oracle_prelu(x, a, g):
    """PReLU as a select on the sign: the output, and the input and slope gradients for upstream g."""
    a = a[:, None, None, None]
    pos = x > 0
    return np.where(pos, x, x * a), g * np.where(pos, 1.0, a), (g * np.where(pos, 0.0, x)).sum(axis=(1, 2, 3))


def _oracle_windows(xp, k, stride):
    win = sliding_window_view(xp, (k, k, k), axis=(1, 2, 3))
    return win[:, ::stride, ::stride, ::stride] if stride > 1 else win


def oracle_conv_raw(x, w, stride, padding):
    """The window kernel's forward pass as a tensordot over the strided window view."""
    win = _oracle_windows(ad._pad_spatial(x, padding), w.shape[2], stride)
    return np.tensordot(w, win, axes=([1, 2, 3, 4], [0, 4, 5, 6]))


def oracle_scatter(g, w, stride, padding, out_sp):
    """The window kernel's input gradient as one channel matmul per tap, added into that tap's strided positions."""
    a, b, k = w.shape[0], w.shape[1], w.shape[2]
    sp = g.shape[1:]
    tiled = k == stride
    shape = (b,) + tuple((n - 1) * stride + k for n in sp)
    y = (np.empty if tiled else np.zeros)(shape, dtype=np.result_type(g, w))
    gf = g.reshape(a, -1)
    span = [(n - 1) * stride + 1 for n in sp]
    for i, j, l in itertools.product(range(k), repeat=3):
        tap = (w[:, :, i, j, l].T @ gf).reshape(b, *sp)
        out = y[:, i:i + span[0]:stride, j:j + span[1]:stride, l:l + span[2]:stride]
        np.add(0.0 if tiled else out, tap, out=out)
    if padding == 0 and shape[1:] == tuple(out_sp):
        return y
    out = np.zeros((b, *out_sp), dtype=y.dtype)
    hi = [min(m, padding + n) for m, n in zip(shape[1:], out_sp)]
    out[(slice(None), *(slice(0, h - padding) for h in hi))] = y[(slice(None), *(slice(padding, h) for h in hi))]
    return out


def oracle_weight_grad(top, bottom, k, stride, padding):
    """The window kernel's weight gradient as a tensordot over the strided window view."""
    win = _oracle_windows(ad._pad_spatial(bottom, padding), k, stride)
    return np.tensordot(top, win, axes=([1, 2, 3], [1, 2, 3]))


class TestConv3d:
    def test_all_ones_kernel_sums_27(self):
        x = ad.Tensor(np.ones((1, 3, 3, 3)))
        w = ad.Tensor(np.ones((1, 1, 3, 3, 3)))
        out = ad.conv3d(x, w, ad.Tensor(np.zeros(1)))
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data.ravel()[0] == 27.0

    def test_bias_added(self):
        x = ad.Tensor(np.ones((1, 3, 3, 3)))
        w = ad.Tensor(np.ones((1, 1, 3, 3, 3)))
        out = ad.conv3d(x, w, ad.Tensor(np.ones(1)))
        assert out.data.ravel()[0] == 28.0

    def test_strided_shape(self):
        x = ad.Tensor(np.zeros((1, 8, 8, 8)))
        w = ad.Tensor(np.zeros((2, 1, 3, 3, 3)))
        out = ad.conv3d(x, w, ad.Tensor(np.zeros(2)), stride=2, padding=1)
        assert out.data.shape == (2, 4, 4, 4)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 4, 6))
        w = rng.standard_normal((3, 2, 3, 3, 3))
        b = rng.standard_normal(3)
        for stride, padding in [(1, 0), (1, 1), (2, 1), (3, 2)]:
            out = ad.conv3d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), stride, padding)
            assert np.allclose(out.data, brute_conv3d(x, w, b, stride, padding), atol=1e-10)

    def test_shape_underflow(self):
        x = ad.Tensor(np.zeros((1, 2, 2, 2)))
        w = ad.Tensor(np.zeros((1, 1, 3, 3, 3)))
        with pytest.raises(ValueError, match="underflow"):
            ad.conv3d(x, w, ad.Tensor(np.zeros(1)))

    def test_channel_mismatch(self):
        x = ad.Tensor(np.zeros((2, 4, 4, 4)))
        w = ad.Tensor(np.zeros((1, 3, 3, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            ad.conv3d(x, w, ad.Tensor(np.zeros(1)))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 4, 4, 4))
        y = rng.standard_normal((2, 4, 4, 4))
        w = ad.Tensor(rng.standard_normal((3, 2, 3, 3, 3)))
        b = ad.Tensor(np.zeros(3))

        def conv(arr):
            return ad.conv3d(ad.Tensor(arr), w, b, 1, 1).data

        lhs = conv(2.0 * x + 0.5 * y)
        rhs = 2.0 * conv(x) + 0.5 * conv(y)
        assert np.allclose(lhs, rhs, atol=1e-5)


class TestConvTranspose:
    def test_single_tap_spreads_kernel(self):
        x = ad.Tensor(np.ones((1, 1, 1, 1)))
        w = ad.Tensor(np.arange(8.0).reshape(1, 1, 2, 2, 2))
        out = ad.conv3d_transpose(x, w, ad.Tensor(np.zeros(1)), stride=2)
        assert out.data.shape == (1, 2, 2, 2)
        assert np.array_equal(out.data[0], w.data[0, 0])

    def test_scales_linearly(self):
        x = ad.Tensor(np.full((1, 1, 1, 1), 3.0))
        w = ad.Tensor(np.arange(8.0).reshape(1, 1, 2, 2, 2))
        out = ad.conv3d_transpose(x, w, ad.Tensor(np.zeros(1)), stride=2)
        assert np.array_equal(out.data[0], 3.0 * w.data[0, 0])

    def test_upsample_shape(self):
        x = ad.Tensor(np.zeros((1, 4, 4, 4)))
        w = ad.Tensor(np.zeros((1, 2, 2, 2, 2)))
        out = ad.conv3d_transpose(x, w, ad.Tensor(np.zeros(2)), stride=2)
        assert out.data.shape == (2, 8, 8, 8)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal(3)
        for x_shape, k, stride, padding in [
            ((2, 3, 4, 3), 2, 1, 0), ((2, 3, 4, 3), 2, 2, 0), ((2, 3, 4, 3), 2, 2, 1),
            ((2, 3, 4, 3), 2, 3, 1), ((2, 3, 4, 3), 3, 1, 1), ((2, 3, 4, 3), 3, 2, 1),
            ((2, 3, 5, 1), 3, 3, 0), ((2, 3, 5, 1), 3, 3, 1), ((2, 3, 5, 1), 2, 3, 0),
        ]:
            x = rng.standard_normal(x_shape)
            w = rng.standard_normal((2, 3, k, k, k))
            out = ad.conv3d_transpose(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), stride, padding)
            assert np.allclose(out.data, brute_conv3d_transpose(x, w, b, stride, padding), atol=1e-10)

    def test_restores_extent_when_divisible(self):
        # (n + 2p - k) divisible by s: conv then transpose restores extents
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.standard_normal((1, 8, 8, 8)))
        w = ad.Tensor(rng.standard_normal((2, 1, 2, 2, 2)))
        mid = ad.conv3d(x, w, ad.Tensor(np.zeros(2)), stride=2, padding=0)
        wt = ad.Tensor(rng.standard_normal((2, 1, 2, 2, 2)))
        back = ad.conv3d_transpose(mid, wt, ad.Tensor(np.zeros(1)), stride=2, padding=0)
        assert back.data.shape == x.data.shape


class TestAdjoint:
    """conv3d_transpose is the adjoint of conv3d: <conv3d(x), v> = <x, conv3d_transpose(v)>, on every kernel."""

    # extents with (n + 2p - k) divisible by s, so the transposed convolution's extents reach the input's
    @pytest.mark.parametrize("k,stride,padding,extent,kernel", [
        (3, 1, 1, (9, 5, 7), "rows"), (5, 1, 2, (9, 5, 7), "fft"), (7, 1, 3, (9, 5, 7), "fft"),
        (3, 1, 0, (9, 5, 7), "window"), (3, 2, 1, (9, 5, 7), "window"), (2, 2, 0, (8, 4, 6), "window"),
        (3, 3, 0, (9, 6, 3), "window"),
    ])
    def test_inner_products_agree(self, k, stride, padding, extent, kernel):
        assert ad.conv_kernel(k, stride, padding) == kernel
        rng = np.random.default_rng(k * 10 + stride)
        x = rng.standard_normal((2, *extent))
        w = ad.Tensor(rng.standard_normal((3, 2, k, k, k)))
        y = ad.conv3d(ad.Tensor(x), w, ad.Tensor(np.zeros(3)), stride, padding).data
        v = rng.standard_normal(y.shape)
        xt = ad.conv3d_transpose(ad.Tensor(v), w, ad.Tensor(np.zeros(2)), stride, padding).data
        assert xt.shape == x.shape
        assert np.vdot(y, v) == pytest.approx(np.vdot(x, xt), rel=1e-12, abs=0)


class TestPrelu:
    def test_negative_slope(self):
        x = ad.Tensor(np.full((1, 1, 1, 1), -2.0))
        out = ad.prelu(x, ad.Tensor(np.array([0.25])))
        assert out.data.ravel()[0] == -0.5

    def test_positive_passthrough(self):
        x = ad.Tensor(np.full((1, 1, 1, 1), 3.0))
        out = ad.prelu(x, ad.Tensor(np.array([0.9])))
        assert out.data.ravel()[0] == 3.0

    def test_zero_slope_is_relu(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 3, 3))
        out = ad.prelu(ad.Tensor(x), ad.Tensor(np.zeros(2)))
        assert np.array_equal(out.data, np.maximum(x, 0.0))

    def test_slope_gradient_is_negative_input(self):
        x_arr = np.full((1, 2, 2, 2), -1.5)
        x = ad.Tensor(x_arr)
        a = ad.Tensor(np.array([0.25]))
        out = ad.prelu(x, a)
        ad.backward(sum_all(out))
        assert a.grad[0] == pytest.approx(x_arr.sum())

    # float32, float64, and float32 inputs with float64 slopes, whose output is float64
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
           dtypes=st.sampled_from([(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)]),
           data=st.data(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_select_oracle(self, shape, dtypes, data, seed):
        slopes = data.draw(st.lists(st.sampled_from([-0.5, 0.0, 0.25, 1.0, 1.5]), min_size=shape[0], max_size=shape[0]))
        a_arr = np.array(slopes, dtype=dtypes[1])
        rng = np.random.default_rng(seed)
        x_arr = rng.standard_normal(shape)
        x_arr[rng.random(shape) < 0.2] = 0.0
        x_arr[rng.random(shape) < 0.1] = -0.0
        x_arr = x_arr.astype(dtypes[0])
        g = rng.standard_normal(shape).astype(np.result_type(x_arr, a_arr))
        x, a = ad.Tensor(x_arr), ad.Tensor(a_arr)
        out = ad.prelu(x, a)
        ad.backward(out, seed=g)
        y_ref, x_grad, a_grad = oracle_prelu(x_arr, a_arr, g)
        assert out.data.dtype == y_ref.dtype == np.result_type(x_arr, a_arr)
        # array_equal takes -0.0 == 0.0: only the sign of an exact zero may differ
        assert np.array_equal(out.data, y_ref)
        assert np.array_equal(x.grad, x_grad.astype(np.float64))
        assert np.array_equal(a.grad, a_grad.astype(np.float64))


class TestAddConcat:
    def test_add_zero(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 3, 3))
        out = ad.add(ad.Tensor(x), ad.Tensor(np.zeros_like(x)))
        assert np.array_equal(out.data, x)

    def test_add_negation(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 3, 3))
        out = ad.add(ad.Tensor(x), ad.Tensor(-x))
        assert np.array_equal(out.data, np.zeros_like(x))

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.add(ad.Tensor(np.zeros((1, 2, 2, 2))), ad.Tensor(np.zeros((1, 3, 2, 2))))

    def test_concat_preserves_blocks(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal((3, 3, 3, 3))
        out = ad.concat_channels([ad.Tensor(a), ad.Tensor(b)])
        assert out.data.shape == (5, 3, 3, 3)
        assert np.array_equal(out.data[:2], a)
        assert np.array_equal(out.data[2:], b)

    def test_concat_single_input_identity(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 3, 3, 3))
        out = ad.concat_channels([ad.Tensor(a)])
        assert np.array_equal(out.data, a)

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ValueError, match="spatial mismatch"):
            ad.concat_channels([ad.Tensor(np.zeros((1, 2, 2, 2))), ad.Tensor(np.zeros((1, 3, 2, 2)))])


class TestBackward:
    def test_non_scalar_root_needs_seed(self):
        x = ad.Tensor(np.zeros((1, 2, 2, 2)))
        y = ad.add(x, x)
        with pytest.raises(ValueError, match="non-scalar"):
            ad.backward(y)

    def test_kernel_gradient_counts_positions(self):
        # all-ones input, loss = sum of outputs: each kernel tap sees every
        # valid window position exactly once
        x = ad.Tensor(np.ones((1, 4, 4, 4)))
        w = ad.Tensor(np.zeros((1, 1, 3, 3, 3)))
        b = ad.Tensor(np.zeros(1))
        out = ad.conv3d(x, w, b)
        ad.backward(sum_all(out))
        assert np.array_equal(w.grad, np.full((1, 1, 3, 3, 3), 8.0))  # 2^3 positions
        assert b.grad[0] == 8.0

    def test_diamond_graph_accumulates(self):
        x = ad.Tensor(np.ones((1, 2, 2, 2)))
        y = ad.add(x, x)
        ad.backward(sum_all(y))
        assert np.array_equal(x.grad, np.full((1, 2, 2, 2), 2.0))

    def test_grad_reset_between_backwards(self):
        x = ad.Tensor(np.ones((1, 2, 2, 2)))
        for _ in range(3):
            y = ad.add(x, x)
            ad.backward(sum_all(y))
            assert np.array_equal(x.grad, np.full((1, 2, 2, 2), 2.0))

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            x = ad.Tensor(rng.standard_normal((2, 4, 4, 4)).astype(np.float32))
            w = ad.Tensor(rng.standard_normal((3, 2, 3, 3, 3)).astype(np.float32))
            b = ad.Tensor(rng.standard_normal(3).astype(np.float32))
            out = ad.conv3d(x, w, b, 1, 1)
            ad.backward(sum_all(out))
            return out.data.copy(), w.grad.copy()

        d1, g1 = run()
        d2, g2 = run()
        assert np.array_equal(d1, d2)
        assert np.array_equal(g1, g2)


class TestGradientsAgainstFd:
    @pytest.mark.parametrize("op,shapes,kwargs", [
        ("conv", ((2, 4, 4, 4), (3, 2, 3, 3, 3), (3,)), dict(stride=1, padding=1)),
        ("conv", ((2, 5, 5, 5), (1, 2, 3, 3, 3), (1,)), dict(stride=2, padding=0)),
        ("convT", ((3, 3, 3, 3), (3, 2, 2, 2, 2), (2,)), dict(stride=2, padding=0)),
        ("convT", ((2, 3, 3, 3), (2, 2, 3, 3, 3), (2,)), dict(stride=1, padding=1)),
        ("conv", ((2, 6, 5, 7), (3, 2, 3, 3, 3), (3,)), dict(stride=2, padding=1)),
        ("convT", ((2, 3, 3, 3), (2, 2, 3, 3, 3), (2,)), dict(stride=2, padding=1)),
        ("conv", ((2, 6, 5, 7), (2, 2, 5, 5, 5), (2,)), dict(stride=1, padding=2)),
        ("conv", ((2, 6, 5, 7), (1, 2, 7, 7, 7), (1,)), dict(stride=1, padding=3)),
    ])
    def test_conv_ops(self, op, shapes, kwargs):
        rng = np.random.default_rng(9)
        fn = ad.conv3d if op == "conv" else ad.conv3d_transpose
        x_arr, w_arr, b_arr = (rng.standard_normal(s) for s in shapes)
        probe_shape = fn(ad.Tensor(x_arr), ad.Tensor(w_arr), ad.Tensor(b_arr), **kwargs).data.shape
        probe = rng.standard_normal(probe_shape)

        def f():
            out = fn(ad.Tensor(x_arr), ad.Tensor(w_arr), ad.Tensor(b_arr), **kwargs)
            return float((out.data * probe).sum())

        x, w, b = ad.Tensor(x_arr), ad.Tensor(w_arr), ad.Tensor(b_arr)
        ad.backward(fn(x, w, b, **kwargs), seed=probe)
        h = 1e-6
        worst = 0.0
        for arr, grad in ((x_arr, x.grad), (w_arr, w.grad), (b_arr, b.grad)):
            flat = arr.reshape(-1)
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + h
                fp = f()
                flat[idx] = keep - h
                fm = f()
                flat[idx] = keep
                fd = (fp - fm) / (2 * h)
                g = grad.reshape(-1)[idx]
                worst = max(worst, abs(g - fd) / max(abs(g), abs(fd), 1e-6))
        assert worst < 1e-4


# the stride-1 conv rows of the default network: (name, cin, cout, k)
STRIDE1_LAYERS = [(name, cin, cout, k) for name, op, _, cin, cout, k, stride, _, _ in faim_layers(FaimConfig())
                  if op == "conv" and stride == 1]


def _rel(a, ref):
    return np.abs(a - ref).max() / np.abs(ref).max()


class TestStride1Kernels:
    """The FFT and shifted-row kernels against the im2col/scatter oracle."""

    def test_kernel_rule_per_faim_layer(self):
        picked = {name: ad.conv_kernel(k, stride, (k - 1) // 2)
                  for name, op, _, _, _, k, stride, _, _ in faim_layers(FaimConfig()) if op == "conv"}
        assert picked == {"branch3": "rows", "branch5": "fft", "branch7": "fft", "merge": "rows",
                          "enc1": "window", "enc2": "window", "res": "rows", "head": "rows"}

    @pytest.mark.parametrize("extent", [(16, 16, 16), (9, 6, 7), (1, 9, 6), (3, 10, 7)])
    @pytest.mark.parametrize("name,cin,cout,k", STRIDE1_LAYERS)
    def test_faim_layer_matches_oracle(self, name, cin, cout, k, extent):
        rng = np.random.default_rng(k * 100 + cin)
        p = (k - 1) // 2
        x_arr = rng.standard_normal((cin, *extent))
        w_arr = rng.standard_normal((cout, cin, k, k, k))
        b_arr = rng.standard_normal(cout)
        g = rng.standard_normal((cout, *extent))
        x, w, b = ad.Tensor(x_arr), ad.Tensor(w_arr), ad.Tensor(b_arr)
        out = ad.conv3d(x, w, b, stride=1, padding=p)
        ad.backward(out, seed=g)
        forward = ad._conv_raw(ad._columns(x_arr, k, 1, p), w_arr) + b_arr[:, None, None, None]
        assert _rel(out.data, forward) <= 1e-12
        assert _rel(x.grad, ad._scatter(g, w_arr, 1, p, extent)) <= 1e-12
        assert _rel(w.grad, ad._weight_grad(g, ad._columns(x_arr, k, 1, p))) <= 1e-12
        out32 = ad.conv3d(ad.Tensor(x_arr.astype(np.float32)), ad.Tensor(w_arr.astype(np.float32)),
                          ad.Tensor(b_arr.astype(np.float32)), stride=1, padding=p)
        assert out32.data.dtype == np.float32
        assert _rel(out32.data, forward) <= 1e-6

    @pytest.mark.parametrize("extent", [(16, 16, 16), (9, 6, 7), (32, 32, 32)])
    @pytest.mark.parametrize("cin,cout,k", [(2, 8, 5), (2, 8, 7), (8, 8, 5)], ids=["branch5", "branch7", "8to8-k5"])
    def test_float32_within_float64(self, cin, cout, k, extent):
        # the float32 FFT (complex64) and shifted-row kernels against the float64 FFT kernel on the
        # same rounded inputs, relative to the largest output; measured at most 3.4e-7 and 4.7e-7
        rng = np.random.default_rng(k * 100 + cin)
        x, w, g = (rng.standard_normal(shape).astype(np.float32)
                   for shape in ((cin, *extent), (cout, cin, k, k, k), (cout, *extent)))
        x64, w64, g64 = (a.astype(np.float64) for a in (x, w, g))
        ref = (ad._plane_conv(x64, w64), ad._plane_conv(g64, ad._flip(w64)), ad._plane_weight_grad(g64, x64, k))
        for conv, corr in ((ad._plane_conv, ad._plane_weight_grad), (ad._rows_conv, ad._rows_weight_grad)):
            got = (conv(x, w), conv(g, ad._flip(w)), corr(g, x, k))
            for a, want in zip(got, ref):
                assert a.dtype == np.float32
                assert _rel(a, want) <= 1e-6

    def test_fft_precision_follows_operands(self, monkeypatch):
        # complex64 spectra only when both operands are float32
        seen = []
        depth_block = ad._depth_block

        def spy(*args):
            block = depth_block(*args)
            seen.append(block.dtype)
            return block

        monkeypatch.setattr(ad, "_depth_block", spy)
        rng = np.random.default_rng(18)
        x, w, g = (rng.standard_normal(shape) for shape in ((2, 6, 5, 7), (3, 2, 5, 5, 5), (3, 6, 5, 7)))
        f32, f64 = np.float32, np.float64
        for dx, dw, spectra in [(f32, f32, np.complex64), (f64, f64, np.complex128),
                                (f32, f64, np.complex128), (f64, f32, np.complex128)]:
            seen.clear()
            ad._plane_conv(x.astype(dx), w.astype(dw))
            ad._plane_weight_grad(g.astype(dw), x.astype(dx), 5)
            assert seen == [np.dtype(spectra)] * 2

    def test_fft_kernel_deterministic(self):
        def run(dtype):
            rng = np.random.default_rng(13)
            x = ad.Tensor(rng.standard_normal((2, 12, 10, 9)).astype(dtype))
            w = ad.Tensor(rng.standard_normal((8, 2, 7, 7, 7)).astype(dtype))
            b = ad.Tensor(np.zeros(8, dtype=dtype))
            out = ad.conv3d(x, w, b, stride=1, padding=3)
            ad.backward(out, seed=rng.standard_normal(out.data.shape))
            return out.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

        for dtype in (np.float32, np.float64):
            assert run(dtype) == run(dtype)

    def test_float32_branch7_peak_memory(self):
        """tracemalloc peak of a float32 branch7 conv at 32^3, forward pass and backward, its input frozen as in FAIM.

        With float64 transforms and complex128 spectra the peak was 12.2 MiB;
        transforming in complex64 takes it to 6.6 MiB, set by the weight
        gradient.
        """
        import tracemalloc

        rng = np.random.default_rng(19)
        x = ad.Tensor(rng.standard_normal((2, 32, 32, 32)).astype(np.float32), requires_grad=False)
        w = ad.Tensor(rng.standard_normal((8, 2, 7, 7, 7)).astype(np.float32))
        b = ad.Tensor(np.zeros(8, dtype=np.float32))
        seed = rng.standard_normal((8, 32, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            ad.backward(ad.conv3d(x, w, b, stride=1, padding=3), seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.grad.shape == w.data.shape
        assert peak < 7_200_000


class TestThinColumnTiles:
    """A thin shifted-row convolution (Cin * k < Cout) runs in column tiles; a wide one in one."""

    # (9, 7, 11) has 1025 output columns: with 256-column tiles the last one takes 257
    @pytest.mark.parametrize("extent", [(40, 36, 33), (32, 32, 32), (9, 7, 11)])
    @pytest.mark.parametrize("cin,cout", [(2, 8), (3, 16)], ids=["branch3", "head-input-grad"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tiles_give_single_tile_result(self, monkeypatch, cin, cout, extent, dtype):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((cin, *extent)).astype(dtype)
        w = rng.standard_normal((cout, cin, 3, 3, 3)).astype(dtype)
        monkeypatch.setattr(ad, "_TILE_BYTES", 1 << 40)
        one = ad._rows_conv(x, w)
        monkeypatch.setattr(ad, "_TILE_BYTES", 1 << 16)  # tiles of 128 to 512 columns
        tiled = ad._rows_conv(x, w)
        if dtype == np.float32 or cout == 8:
            assert tiled.tobytes() == one.tobytes()
        else:
            # OpenBLAS's small-matrix dgemm kernel rounds the last few (remainder) columns
            # of a tile-sized 16-row product differently from the large one: seen at 32^3
            assert _rel(tiled, one) <= 1e-15


ROW_KINDS = {  # op, cin, cout, k, stride, PReLU, skip: as branch3, res (its input is its skip), up1, head
    "prelu": ("conv3d", 2, 8, 3, 1, True, None),
    "conv_skip": ("conv3d", 4, 4, 3, 1, True, "input"),
    "conv_other_skip": ("conv3d", 4, 4, 3, 1, True, "other"),
    "convT_skip": ("conv3d_transpose", 4, 3, 2, 2, True, "other"),
    "linear": ("conv3d", 4, 3, 3, 1, False, None),
    "linear_skip": ("conv3d", 4, 4, 3, 1, False, "input"),  # no PReLU reads g before x's gradient
    "convT_input_skip": ("conv3d_transpose", 4, 4, 3, 1, True, "input"),
}


def _row_case(kind, dtype, tape, fused, wide=None):
    """One layer row, as one node (``fused``) or as the conv + add + prelu chain; its output and leaves.

    ``tape`` is "none" (frozen leaves), "root" (the row is backward's root, so
    its gradient is the read-only seed) or "interior" (an add after it hands it
    a gradient of its own). The leaf named ``wide``, if any, is float64.
    """
    op, cin, cout, k, stride, prelu, skip = ROW_KINDS[kind]
    rng = np.random.default_rng(23)
    ext = (6, 5, 7)
    out_ext = tuple(n * stride for n in ext) if op == "conv3d_transpose" else ext
    shape_w = (cin, cout, k, k, k) if op == "conv3d_transpose" else (cout, cin, k, k, k)
    arrays = {"x0": (cin, *ext), "x1": (cin, *ext), "w": shape_w, "b": (cout,), "s": (cout, *out_ext),
              "c": (cout, *out_ext)}
    leaves = {n: ad.Tensor(rng.standard_normal(shape).astype(np.float64 if n == wide else dtype), name=n,
                           requires_grad=tape != "none") for n, shape in arrays.items()}
    leaves["a"] = ad.Tensor(rng.uniform(0.1, 0.5, cout).astype(np.float64 if wide == "a" else dtype), name="a",
                            requires_grad=tape != "none")
    x = ad.add(leaves["x0"], leaves["x1"])  # an interior input, as in the network
    s = {"input": x, "other": leaves["s"], None: None}[skip]
    a = leaves["a"] if prelu else None
    conv = getattr(ad, op)
    if fused:
        out = conv(x, leaves["w"], leaves["b"], stride=stride, padding=(k - 1) // 2, slopes=a, skip=s)
    else:
        out = conv(x, leaves["w"], leaves["b"], stride=stride, padding=(k - 1) // 2)
        out = ad.add(out, s) if s is not None and op == "conv3d_transpose" else out
        out = ad.prelu(out, a) if a is not None else out
        out = ad.add(out, s) if s is not None and op == "conv3d" else out
    root = ad.add(out, leaves["c"]) if tape == "interior" else out
    if tape != "none":
        ad.backward(root, seed=np.random.default_rng(24).standard_normal(root.shape))
    return out, leaves


class TestLayerRow:
    """A layer-table row as one node gives the bytes of the conv + add + prelu chain, forward and backward."""

    @pytest.mark.parametrize("tape", ["none", "root", "interior"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", sorted(ROW_KINDS))
    def test_same_bytes_as_chain(self, kind, dtype, tape):
        row, row_leaves = _row_case(kind, dtype, tape, fused=True)
        chain, chain_leaves = _row_case(kind, dtype, tape, fused=False)
        assert row.data.dtype == dtype and row.data.flags.c_contiguous
        assert row.data.tobytes() == chain.data.tobytes()
        if tape == "none":
            assert row.parents == () and row.backward_fn is None and not row.requires_grad
        for name, leaf in row_leaves.items():
            want = chain_leaves[name].grad
            assert (leaf.grad is None) == (want is None), name
            assert leaf.grad is None or leaf.grad.tobytes() == want.tobytes(), name

    # one float64 operand promotes the chain from its step on. Forward only: a float64 slope or
    # convT skip rounds the row's gradients apart from the chain's
    @pytest.mark.parametrize("tape", ["none", "root"])
    @pytest.mark.parametrize("wide", ["b", "a", "s"])
    @pytest.mark.parametrize("kind", ["prelu", "conv_other_skip", "convT_skip", "linear"])
    def test_mixed_dtypes_same_forward_bytes_as_chain(self, kind, wide, tape):
        row, _ = _row_case(kind, np.float32, tape, fused=True, wide=wide)
        chain, _ = _row_case(kind, np.float32, tape, fused=False, wide=wide)
        assert row.data.dtype == chain.data.dtype and row.data.flags.c_contiguous
        assert row.data.tobytes() == chain.data.tobytes()

    def test_frozen_input_skip_still_gets_its_gradient(self):
        rng = np.random.default_rng(25)
        x = ad.Tensor(rng.standard_normal((2, 4, 4, 4)), requires_grad=False)
        w, b = ad.Tensor(rng.standard_normal((3, 2, 3, 3, 3))), ad.Tensor(np.zeros(3))
        s, a = ad.Tensor(rng.standard_normal((3, 4, 4, 4))), ad.Tensor(np.full(3, 0.25))
        seed = rng.standard_normal((3, 4, 4, 4))
        ad.backward(ad.conv3d(x, w, b, padding=1, slopes=a, skip=s), seed=seed)
        assert x.grad is None and np.array_equal(s.grad, seed)

    def test_shape_errors(self):
        x = ad.Tensor(np.zeros((2, 4, 4, 4)))
        w, b = ad.Tensor(np.zeros((3, 2, 3, 3, 3))), ad.Tensor(np.zeros(3))
        with pytest.raises(ValueError, match="slopes must have shape"):
            ad.conv3d(x, w, b, padding=1, slopes=ad.Tensor(np.zeros(2)))
        with pytest.raises(ValueError, match="skip shape mismatch"):
            ad.conv3d(x, w, b, padding=1, skip=ad.Tensor(np.zeros((3, 4, 4, 5))))


def _window_layers(extent=16):
    """The FAIM layers that run the window kernel, with the extent of their input in a network fed extent^3."""
    rows = []
    for name, op, _, cin, cout, k, stride, _, _ in faim_layers(FaimConfig()):
        if stride == 2:
            rows.append((name, op, cin, cout, k, extent))
            extent = extent * 2 if op == "convT" else extent // 2
    return rows


class TestWindowKernel:
    """The column-matrix kernel against the tensordot/window-view and per-tap-scatter oracle."""

    def test_window_layers(self):
        assert [row[0] for row in _window_layers()] == ["enc1", "enc2", "up2", "up1"]

    # at 4^3, enc2's upstream gradient and up2's input are one voxel, where numpy's per-tap
    # matmul runs without BLAS; a single GEMM over all taps rounds differently there
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("name,op,cin,cout,k,extent", _window_layers(16) + _window_layers(4))
    def test_faim_layer_bytes(self, name, op, cin, cout, k, extent, dtype):
        rng = np.random.default_rng(cin + 10 * k)
        p = (k - 1) // 2
        x_arr = rng.standard_normal((cin, extent, extent, extent)).astype(dtype)
        w_arr = rng.standard_normal((cin, cout, k, k, k) if op == "convT" else (cout, cin, k, k, k)).astype(dtype)
        b_arr = rng.standard_normal(cout).astype(dtype)
        x, w, b = ad.Tensor(x_arr), ad.Tensor(w_arr), ad.Tensor(b_arr)
        out = (ad.conv3d_transpose if op == "convT" else ad.conv3d)(x, w, b, stride=2, padding=p)
        g = rng.standard_normal(out.data.shape).astype(dtype)
        ad.backward(out, seed=g)
        if op == "convT":  # the adjoint: forward pass and input gradient swap, and the weight gradient's operands
            ref = (oracle_scatter(x_arr, w_arr, 2, p, out.data.shape[1:]), oracle_conv_raw(g, w_arr, 2, p),
                   oracle_weight_grad(x_arr, g, k, 2, p))
        else:
            ref = (oracle_conv_raw(x_arr, w_arr, 2, p), oracle_scatter(g, w_arr, 2, p, x_arr.shape[1:]),
                   oracle_weight_grad(g, x_arr, k, 2, p))
        y_ref = ref[0] + b_arr[:, None, None, None]
        assert out.data.dtype == y_ref.dtype == dtype
        assert out.data.tobytes() == y_ref.tobytes()
        assert x.grad.tobytes() == ref[1].astype(np.float64).tobytes()
        assert w.grad.tobytes() == ref[2].astype(np.float64).tobytes()

    @pytest.mark.parametrize("extent", [(10, 7, 9), (6, 4, 8)])
    @pytest.mark.parametrize("k,stride,padding", list(itertools.product((2, 3), (1, 2, 3), (0, 1))))
    def test_odd_extents(self, k, stride, padding, extent):
        rng = np.random.default_rng(100 * k + 10 * stride + padding)
        x = rng.standard_normal((3, *extent))
        w = rng.standard_normal((4, 3, k, k, k))
        y = ad._conv_raw(ad._columns(x, k, stride, padding), w)
        g = rng.standard_normal(y.shape)
        pairs = [(y, oracle_conv_raw(x, w, stride, padding)),
                 (ad._scatter(g, w, stride, padding, extent), oracle_scatter(g, w, stride, padding, extent)),
                 (ad._weight_grad(g, ad._columns(x, k, stride, padding)), oracle_weight_grad(g, x, k, stride, padding))]
        for got, want in pairs:
            assert got.shape == want.shape
            assert _rel(got, want) <= 1e-12


class TestWindowTiles:
    """The window kernel's forward pass in depth-plane tiles has the bytes of one GEMM on the whole column matrix."""

    # (cin, cout, k, stride, padding, extent): enc1 and enc2 at D != H != W, a thin output, and a
    # k2 s2 and a size-changing k3 s1 kernel; at the smallest budget each runs in several tiles,
    # and in all but the 32^3 one the tile count does not divide the output depth
    CASES = [(16, 32, 3, 2, 1, (20, 36, 28)), (16, 32, 3, 2, 1, (32, 32, 32)), (32, 32, 3, 2, 1, (40, 12, 20)),
             (4, 3, 3, 2, 1, (64, 40, 48)), (8, 16, 2, 2, 0, (40, 20, 28)), (6, 8, 3, 1, 0, (36, 17, 13))]

    @pytest.mark.parametrize("tile_bytes", [1, 1 << 16, 1 << 20])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("cin,cout,k,stride,padding,extent", CASES)
    def test_tiles_give_one_gemm(self, monkeypatch, cin, cout, k, stride, padding, extent, dtype, tile_bytes):
        rng = np.random.default_rng(cin * cout + k)
        x = rng.standard_normal((cin, *extent)).astype(dtype)
        w = rng.standard_normal((cout, cin, k, k, k)).astype(dtype)
        whole = ad._conv_raw(ad._columns(x, k, stride, padding), w)
        monkeypatch.setattr(ad, "_TILE_BYTES", tile_bytes)
        tiles, depth_tiles = [], ad._depth_tiles
        monkeypatch.setattr(ad, "_depth_tiles", lambda *args: tiles.append(depth_tiles(*args)) or tiles[-1])
        tiled = ad._window_conv(x, w, stride, padding)
        assert tile_bytes > 1 or len(tiles[0]) > 1
        assert tiled.dtype == whole.dtype and tiled.flags.c_contiguous
        assert np.array_equal(tiled, whole)

    def test_small_budget_tiles_cover_depth_unevenly(self, monkeypatch):
        monkeypatch.setattr(ad, "_TILE_BYTES", 1)
        # enc1 at 20 x 36 x 28: 252-column planes, 4 per tile to reach 256 columns in multiples of 16
        assert ad._depth_tiles(10, 252, 432, 32, 4) == [(0, 4), (4, 10)]
        # the thin 4 -> 3 case: 2^20 multiply-adds take 3236 columns, 7 planes of 480
        assert ad._depth_tiles(32, 480, 108, 3, 8) == [(0, 7), (7, 14), (14, 21), (21, 32)]
        monkeypatch.setattr(ad, "_TILE_BYTES", 1 << 20)
        assert ad._depth_tiles(16, 256, 432, 32, 4) == [(d, d + 2) for d in range(0, 16, 2)]  # enc1 at 32^3
        assert ad._depth_tiles(4, 64, 864, 32, 4) == [(0, 4)]  # enc2 at 16^3: one tile


class TestConvTransposeColumns:
    """A transposed convolution's input and weight gradients read one column matrix of g."""

    @pytest.mark.parametrize("x_grad,w_grad,built", [(True, True, 1), (False, True, 1), (True, False, 1),
                                                      (False, False, 0)])
    def test_one_column_matrix_per_backward(self, monkeypatch, x_grad, w_grad, built):
        rng = np.random.default_rng(20)
        x = ad.Tensor(rng.standard_normal((4, 5, 4, 6)), requires_grad=x_grad)
        w = ad.Tensor(rng.standard_normal((4, 3, 2, 2, 2)), requires_grad=w_grad)
        out = ad.conv3d_transpose(x, w, ad.Tensor(np.zeros(3)), stride=2)
        calls = []
        columns = ad._columns
        monkeypatch.setattr(ad, "_columns", lambda *args: calls.append(args[1:]) or columns(*args))
        ad.backward(out, seed=rng.standard_normal(out.shape))
        assert calls == [(2, 2, 0)] * built
        g = rng.standard_normal(out.shape)
        if x_grad and w_grad:
            ad.backward(out, seed=g)
            assert _rel(x.grad, oracle_conv_raw(g, w.data, 2, 0)) <= 1e-12
            assert _rel(w.grad, oracle_weight_grad(x.data, g, 2, 2, 0)) <= 1e-12


def _through_each_op(x):
    """A scalar graph in which x feeds every op next to gradient-requiring leaves.

    Returns the root and those leaves.
    """
    rng = np.random.default_rng(10)
    c = x.data.shape[0]
    params = [ad.Tensor(rng.standard_normal(shape)) for shape in
              ((3, c, 3, 3, 3), (3,), (c, 3, 2, 2, 2), (3,), (c,), x.data.shape)]
    conv_w, conv_b, convT_w, convT_b, slopes, other = params
    down = ad.conv3d(x, conv_w, conv_b, stride=2, padding=1)
    up = ad.conv3d_transpose(x, convT_w, convT_b, stride=2)
    cat = ad.concat_channels([x, ad.prelu(x, slopes), ad.add(x, other)])
    root = ad.add(ad.add(sum_all(down), sum_all(up)), sum_all(cat))
    return root, params


class TestRequiresGrad:
    def test_frozen_leaf_gets_no_grad(self):
        x = ad.Tensor(np.random.default_rng(11).standard_normal((2, 4, 4, 4)), requires_grad=False)
        root, params = _through_each_op(x)
        ad.backward(root)
        assert x.grad is None
        assert all(p.grad is not None for p in params)
        frozen_root = sum_all(x)
        assert not frozen_root.requires_grad
        ad.backward(frozen_root)
        assert x.grad is None and frozen_root.grad is None

    def test_param_grads_unchanged_by_frozen_input(self):
        data = np.random.default_rng(12).standard_normal((2, 4, 4, 4))
        grads = []
        for requires_grad in (True, False):
            root, params = _through_each_op(ad.Tensor(data, requires_grad=requires_grad))
            ad.backward(root)
            grads.append([p.grad for p in params])
        for a, b in zip(*grads):
            assert np.array_equal(a, b)

    def test_conv_transpose_keeps_float32(self):
        x = ad.Tensor(np.ones((2, 3, 3, 3), dtype=np.float32))
        w = ad.Tensor(np.ones((2, 4, 3, 3, 3), dtype=np.float32))
        out = ad.conv3d_transpose(x, w, ad.Tensor(np.zeros(4, dtype=np.float32)), stride=2, padding=1)
        assert out.data.dtype == np.float32


def _graph_nodes(root):
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    return nodes


def _faim_step_gradients(dtype, params=None, on_graph=None):
    """Every parameter's gradient after one 8^3 FAIM step, default config, in ``dtype``.

    ``params`` replaces the network built from seed 0; ``on_graph`` sees the
    output node before backward runs.
    """
    from foldreg import model, trainer

    ds = trainer.synth_dataset(seed=0, n=2, dims=(8, 8, 8))
    if params is None:
        params = model.build_faim(model.FaimConfig(), seed=0, dtype=dtype)
    src, tgt = ds.volumes["s00"], ds.volumes["s01"]
    u = model.predict(params, src, tgt)
    _, grad_u = trainer._loss_and_grad(src, tgt, u.data, trainer.TrainConfig())
    if on_graph is not None:
        on_graph(u)
    ad.backward(u, seed=grad_u)
    return {name: t.grad for name, t in params.tensors.items()}


def _record_closure_grads(root):
    """Wrap every closure of root's graph to record, per call: node dtype, gradient dtype,
    whether the gradient is C-contiguous and whether it is the node's ``.grad``."""
    seen = []
    for node in _graph_nodes(root):
        if node.backward_fn is not None:
            def wrapped(g, node=node, fn=node.backward_fn):
                seen.append((node.data.dtype, g.dtype, g.flags.c_contiguous, node.grad is g))
                fn(g)
            node.backward_fn = wrapped
    return seen


def _faim_step_digest(dtype) -> str:
    import hashlib

    digest = hashlib.sha256()
    for name, g in _faim_step_gradients(dtype).items():
        assert g.dtype == np.float64
        digest.update(name.encode())
        digest.update(g.tobytes())
    return digest.hexdigest()


@functools.cache
def _pinned_step_digests() -> dict[str, str]:
    """``_faim_step_digest`` for float32 and float64, computed in a child process under one BLAS thread.

    OpenBLAS splits a float32 GEMM's sums by thread count, so the bytes hold
    for one thread setting; the variables take effect only if set before numpy
    is imported, as in ``bench/run.py``.
    """
    tests = Path(__file__).resolve().parent
    src = str(tests.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    code = (f"import sys; sys.path.insert(0, {str(tests)!r}); import numpy as np, test_autodiff as t; "
            "print(t._faim_step_digest(np.float32), t._faim_step_digest(np.float64))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    d32, d64 = proc.stdout.split()
    return {"float32": d32, "float64": d64}


# sha256 over (name, float64 gradient bytes) of every parameter after one 8^3
# FAIM step, default config, float32 parameters, one BLAS thread; this backward
# runs in float32, and branch5 and branch7 sum in the order of the in-plane FFT
# kernel and transform in complex64 (re-recorded when they stopped promoting to complex128)
FAIM_STEP_GRAD_SHA256 = "a746d9d8d003f99e93118fecbb28751410350898e4234dbbad2d5db98c5ab1f7"
# the same for float64 parameters, whose backward runs in float64 throughout
FAIM64_STEP_GRAD_SHA256 = "b8697e124b612fda4030d50da0f9cb33f8263a6ccd4160dc02ea067b0cbfd7c2"


class TestGradientLifetime:
    def test_interior_grads_dropped_leaves_keep_float64(self):
        x = ad.Tensor(np.random.default_rng(13).standard_normal((2, 4, 4, 4)).astype(np.float32))
        root, params = _through_each_op(x)
        ad.backward(root)
        nodes = _graph_nodes(root)
        interior = [n for n in nodes if n.parents]
        leaves = [n for n in nodes if not n.parents]
        assert len(interior) >= 8 and len(leaves) == len(params) + 1
        assert all(n.grad is None for n in interior)
        for leaf in leaves:
            assert leaf.grad.dtype == np.float64 and leaf.grad.shape == leaf.data.shape
            assert leaf.grad.flags.c_contiguous

    def test_add_of_a_node_with_itself_sums(self):
        # the float32 root takes its seed in float32; the leaf sums it twice in float64
        x = ad.Tensor(np.zeros((2, 3, 3, 3), dtype=np.float32))
        seed = np.random.default_rng(14).standard_normal(x.shape)
        ad.backward(ad.add(x, x), seed=seed)
        seed32 = seed.astype(np.float32).astype(np.float64)
        assert x.grad.dtype == np.float64 and np.array_equal(x.grad, seed32 + seed32)

    def test_float64_add_of_a_node_with_itself_sums(self):
        x = ad.Tensor(np.zeros((2, 3, 3, 3)))
        seed = np.random.default_rng(14).standard_normal(x.shape)
        ad.backward(ad.add(x, x), seed=seed)
        assert np.array_equal(x.grad, seed + seed)

    def test_leaf_read_by_conv_and_add_sums(self):
        rng = np.random.default_rng(15)
        x_arr = rng.standard_normal((2, 5, 5, 5))
        w = ad.Tensor(rng.standard_normal((2, 2, 3, 3, 3)))
        b = ad.Tensor(np.zeros(2))
        seed = rng.standard_normal((2, 5, 5, 5))
        conv_only = ad.Tensor(x_arr)
        ad.backward(ad.conv3d(conv_only, w, b, 1, 1), seed=seed)
        x = ad.Tensor(x_arr)
        ad.backward(ad.add(ad.conv3d(x, w, b, 1, 1), x), seed=seed)
        assert np.array_equal(x.grad, conv_only.grad + seed)

    def test_add_operands_share_no_buffer(self):
        a, b = ad.Tensor(np.zeros((1, 2, 2, 2))), ad.Tensor(np.zeros((1, 2, 2, 2)))
        seed = np.arange(8.0).reshape(1, 2, 2, 2)
        ad.backward(ad.add(a, b), seed=seed)
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, seed) and not np.shares_memory(b.grad, seed)
        a.grad[...] = -1.0
        assert np.array_equal(b.grad, seed) and np.array_equal(seed, np.arange(8.0).reshape(1, 2, 2, 2))

    def test_concat_operands_share_no_buffer(self):
        a, b = ad.Tensor(np.zeros((2, 2, 2, 2))), ad.Tensor(np.zeros((3, 2, 2, 2)))
        seed = np.arange(40.0).reshape(5, 2, 2, 2)
        ad.backward(ad.concat_channels([a, b]), seed=seed)
        assert not np.shares_memory(a.grad, seed) and not np.shares_memory(b.grad, seed)
        a.grad[...] = -1.0
        b.grad[...] = -2.0
        assert np.array_equal(seed, np.arange(40.0).reshape(5, 2, 2, 2))

    def test_sum_all_gradient_is_writable(self):
        x = ad.Tensor(np.zeros((1, 2, 2, 2), dtype=np.float32))
        ad.backward(sum_all(x))
        x.grad[0, 0, 0, 0] = 7.0
        assert x.grad.sum() == 14.0 and x.grad.dtype == np.float64

    def test_leaf_root_adopts_float64_seed(self):
        field = ad.Tensor(np.zeros((3, 2, 2, 2), dtype=np.float32))
        seed = np.ones((3, 2, 2, 2))
        ad.backward(field, seed=seed)
        assert field.grad is seed
        ad.backward(field, seed=seed.astype(np.float32))
        assert field.grad.dtype == np.float64 and np.array_equal(field.grad, seed)

    def test_leaf_that_no_closure_reaches_gets_zeros(self):
        x = ad.Tensor(np.ones((1, 2, 2, 2)))
        cut = ad.Tensor(x.data * 2, parents=(x,), op="detached")  # an op output without a closure
        ad.backward(sum_all(cut))
        assert cut.grad is None
        assert x.grad.dtype == np.float64 and np.array_equal(x.grad, np.zeros((1, 2, 2, 2)))

    def test_add_hands_its_gradient_to_its_last_operand(self):
        rng = np.random.default_rng(17)
        w, b = ad.Tensor(rng.standard_normal((2, 2, 1, 1, 1))), ad.Tensor(np.zeros(2))
        x, y = (ad.conv3d(ad.Tensor(rng.standard_normal((2, 3, 3, 3))), w, b) for _ in range(2))
        s = ad.add(x, y)
        root = ad.conv3d(s, w, b)
        seen = {}
        for node in (s, x, y):
            def wrapped(g, node=node, fn=node.backward_fn):
                seen[id(node)] = g
                fn(g)
            node.backward_fn = wrapped
        ad.backward(root, seed=rng.standard_normal(root.shape))
        assert seen[id(y)] is seen[id(s)] and not np.shares_memory(seen[id(x)], seen[id(s)])
        assert np.array_equal(seen[id(x)], seen[id(y)])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("root_op", ["add", "add_chain", "concat", "prelu", "conv", "row"])
    def test_caller_seed_never_written(self, dtype, root_op):
        rng = np.random.default_rng(18)
        a, b, c = (ad.Tensor(rng.standard_normal((2, 3, 3, 3)).astype(dtype)) for _ in range(3))
        w, slopes = ad.Tensor(rng.standard_normal((2, 2, 3, 3, 3)).astype(dtype)), ad.Tensor(np.ones(2, dtype))
        root = {"add": lambda: ad.add(a, b), "add_chain": lambda: ad.add(c, ad.add(a, ad.add(b, c))),
                "concat": lambda: ad.concat_channels([a, ad.add(b, c)]), "prelu": lambda: ad.prelu(ad.add(a, b), slopes),
                "conv": lambda: ad.conv3d(ad.add(a, b), w, ad.Tensor(np.zeros(2, dtype)), 1, 1),
                "row": lambda: ad.conv3d(ad.add(a, b), w, ad.Tensor(np.zeros(2, dtype)), 1, 1, slopes=slopes,
                                         skip=c)}[root_op]()
        seed = rng.standard_normal(root.shape).astype(dtype)
        kept = seed.copy()
        ad.backward(root, seed=seed)
        for leaf in (a, b, c, w, slopes):
            if leaf.grad is not None:
                assert not np.shares_memory(leaf.grad, seed)
                leaf.grad += 1.0
        assert seed.flags.writeable and seed.tobytes() == kept.tobytes()

    def test_faim_backward_peak_memory(self):
        """tracemalloc peak of the backward pass of one 32^3 float32 FAIM training step, default config, seed 0.

        Measured at 15.05 MB, over the tape that the forward pass holds.
        """
        import tracemalloc

        from foldreg import model, trainer

        ds = trainer.synth_dataset(seed=0, n=2, dims=(32, 32, 32))
        params = model.build_faim(model.FaimConfig(), seed=0)
        src, tgt = ds.volumes["s00"], ds.volumes["s01"]
        u = model.predict(params, src, tgt)
        _, grad_u = trainer._loss_and_grad(src, tgt, u.data, trainer.TrainConfig())
        tracemalloc.start()
        try:
            ad.backward(u, seed=grad_u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15_100_000

    def test_faim_step_gradients_pinned(self):
        assert _pinned_step_digests()["float32"] == FAIM_STEP_GRAD_SHA256

    def test_float64_faim_step_gradients_pinned(self):
        assert _pinned_step_digests()["float64"] == FAIM64_STEP_GRAD_SHA256


class TestGradientDtype:
    def test_interior_grad_takes_node_dtype(self):
        # float32 nodes up to a conv with float64 weights, float64 nodes after it
        rng = np.random.default_rng(16)
        x, y, slopes = (ad.Tensor(rng.standard_normal(shape).astype(np.float32))
                        for shape in ((2, 4, 4, 4), (2, 4, 4, 4), (2,)))
        w, b = ad.Tensor(rng.standard_normal((3, 2, 3, 3, 3))), ad.Tensor(rng.standard_normal(3))
        h = ad.prelu(ad.add(x, y), slopes)
        root = sum_all(ad.concat_channels([h, ad.conv3d(h, w, b, 1, 1)]))
        seen = _record_closure_grads(root)
        ad.backward(root)
        assert [node for node, *_ in seen] == [np.float64] * 3 + [np.float32] * 2
        assert all(node == g and contiguous and held for node, g, contiguous, held in seen)
        assert all(t.grad.dtype == np.float64 for t in (x, y, slopes, w, b))

    def test_float32_faim_backward_runs_in_float32(self):
        recorded = []
        grads = _faim_step_gradients(np.float32, on_graph=lambda u: recorded.append(_record_closure_grads(u)))
        calls = recorded[0]
        assert len(calls) == 11  # one per layer row and the concat
        assert all(node == g == np.dtype(np.float32) and contiguous for node, g, contiguous, _ in calls)
        assert all(g.dtype == np.float64 and g.flags.c_contiguous for g in grads.values())

    def test_interior_root_takes_seed_in_its_dtype(self):
        for dtype in (np.float32, np.float64):
            x = ad.Tensor(np.zeros((1, 2, 2, 2), dtype=dtype))
            root = ad.add(x, ad.Tensor(np.zeros((1, 2, 2, 2), dtype=dtype)))
            seed = np.random.default_rng(17).standard_normal(root.shape)
            seen = _record_closure_grads(root)
            ad.backward(root, seed=seed)
            assert seen == [(np.dtype(dtype), np.dtype(dtype), True, True)]
            assert np.array_equal(x.grad, seed.astype(dtype).astype(np.float64))

    def test_float32_step_within_float64_oracle(self):
        # the float64 network holds the float32 network's weights
        from foldreg import model

        p32 = model.build_faim(model.FaimConfig(), seed=0)
        p64 = model.build_faim(model.FaimConfig(), seed=0, dtype=np.float64)
        for name, t in p64.tensors.items():
            t.data = p32.tensors[name].data.astype(np.float64)
        g32 = _faim_step_gradients(np.float32, params=p32)
        g64 = _faim_step_gradients(np.float64, params=p64)
        assert max(np.linalg.norm(g32[n] - g64[n]) / np.linalg.norm(g64[n]) for n in g64) <= 2e-6
