import numpy as np
import pytest

import foldreg.autodiff as ad


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
        ad.backward(ad.sum_all(out))
        assert a.grad[0] == pytest.approx(x_arr.sum())


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
        ad.backward(ad.sum_all(out))
        assert np.array_equal(w.grad, np.full((1, 1, 3, 3, 3), 8.0))  # 2^3 positions
        assert b.grad[0] == 8.0

    def test_diamond_graph_accumulates(self):
        x = ad.Tensor(np.ones((1, 2, 2, 2)))
        y = ad.add(x, x)
        ad.backward(ad.sum_all(y))
        assert np.array_equal(x.grad, np.full((1, 2, 2, 2), 2.0))

    def test_grad_reset_between_backwards(self):
        x = ad.Tensor(np.ones((1, 2, 2, 2)))
        for _ in range(3):
            y = ad.add(x, x)
            ad.backward(ad.sum_all(y))
            assert np.array_equal(x.grad, np.full((1, 2, 2, 2), 2.0))

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            x = ad.Tensor(rng.standard_normal((2, 4, 4, 4)).astype(np.float32))
            w = ad.Tensor(rng.standard_normal((3, 2, 3, 3, 3)).astype(np.float32))
            b = ad.Tensor(rng.standard_normal(3).astype(np.float32))
            out = ad.conv3d(x, w, b, 1, 1)
            ad.backward(ad.sum_all(out))
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
    root = ad.add(ad.add(ad.sum_all(down), ad.sum_all(up)), ad.sum_all(cat))
    return root, params


class TestRequiresGrad:
    def test_frozen_leaf_gets_no_grad(self):
        x = ad.Tensor(np.random.default_rng(11).standard_normal((2, 4, 4, 4)), requires_grad=False)
        root, params = _through_each_op(x)
        ad.backward(root)
        assert x.grad is None
        assert all(p.grad is not None for p in params)
        frozen_root = ad.sum_all(x)
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
