import hashlib

import numpy as np
import pytest
from scipy import ndimage

from foldreg.loss import (
    EPS,
    GLOBAL,
    LOCAL,
    _band_matrices,
    _box_sum,
    _global_cc_with_grad,
    _local_cc_with_grad,
    global_cc,
    local_cc,
    loss_backward,
    loss_value,
    r1_smoothness,
    total_loss,
)
from foldreg.jacobian import det_map, folding_count, jacobian_adjoint, jacobian_raw, r2_backward, regularizer_grad
from foldreg.volume import INTENSITY, DisplacementField, Volume
from test_jacobian import r2_pin_field


def vol(arr):
    return Volume(np.asarray(arr, dtype=np.float64), INTENSITY)


def rand_vol(rng, dims=(5, 5, 5)):
    return vol(rng.random(dims))


class TestGlobalCC:
    def test_self_correlation(self):
        rng = np.random.default_rng(0)
        a = rand_vol(rng)
        assert global_cc(a, a) == pytest.approx(1.0, abs=1e-4)

    def test_anti_correlation(self):
        rng = np.random.default_rng(1)
        a = rand_vol(rng)
        b = vol(-a.data + 2.0)
        assert global_cc(a, b) == pytest.approx(-1.0, abs=1e-4)

    def test_constant_argument(self):
        rng = np.random.default_rng(2)
        a = rand_vol(rng)
        b = vol(np.full(a.dims, 0.7))
        assert global_cc(a, b) == pytest.approx(0.0, abs=1e-4)

    def test_affine_rescale_invariance(self):
        rng = np.random.default_rng(3)
        a = rand_vol(rng)
        b = rand_vol(rng)
        scaled = vol(3.0 * a.data + 0.25)
        assert abs(global_cc(a, b) - global_cc(scaled, b)) < 1e-3

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            global_cc(vol(np.zeros((2, 2, 2))), vol(np.zeros((3, 3, 3))))


def brute_local_cc(a, b, w):
    """Direct per-window computation; means over the in-bounds voxels."""
    dims = a.shape
    half = w // 2
    total = 0.0
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                sa = sb = saa = sbb = sab = 0.0
                cnt = 0
                for di in range(-half, half + 1):
                    for dj in range(-half, half + 1):
                        for dk in range(-half, half + 1):
                            x, y, z = i + di, j + dj, k + dk
                            if 0 <= x < dims[0] and 0 <= y < dims[1] and 0 <= z < dims[2]:
                                va, vb = a[x, y, z], b[x, y, z]
                                cnt += 1
                                sa += va
                                sb += vb
                                saa += va * va
                                sbb += vb * vb
                                sab += va * vb
                cross = sab - sa * sb / cnt
                var_a = saa - sa * sa / cnt
                var_b = sbb - sb * sb / cnt
                total += cross * cross / (var_a * var_b + EPS)
    return total / a.size


class TestLocalCC:
    def test_self_correlation_near_one(self):
        rng = np.random.default_rng(4)
        a = rand_vol(rng, (7, 7, 7))
        assert local_cc(a, a, 3) == pytest.approx(1.0, abs=1e-2)

    def test_white_noise_matches_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.random((9, 9, 9))
        b = rng.random((9, 9, 9))
        value = local_cc(vol(a), vol(b), 3)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(brute_local_cc(a, b, 3), rel=1e-9)

    def test_constant_volume_is_zero(self):
        a = vol(np.full((5, 5, 5), 0.3))
        rng = np.random.default_rng(6)
        assert local_cc(a, rand_vol(rng), 3) == pytest.approx(0.0, abs=1e-4)

    def test_even_window_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            local_cc(rand_vol(rng), rand_vol(rng), 4)

    def test_default_window_covers_small_volume(self):
        rng = np.random.default_rng(8)
        a = rand_vol(rng)
        assert 0.0 <= local_cc(a, a) <= 1.0


def filter_box_sum(a, w):
    """The zero-padded w^3 window sum as a separable scipy filter: the oracle for _box_sum."""
    return ndimage.uniform_filter(a, w, mode="constant", cval=0.0) * w**3


def box_sum(a, w):
    """_box_sum over the w^3 window, with the band matrices _local_cc_with_grad builds."""
    return _box_sum(a, _band_matrices(a.shape, w, a.dtype))


def in_bounds_counts(n, w):
    """Number of in-bounds voxels in the w-window around each index of an n-long axis."""
    i = np.arange(n)
    return np.minimum(i + w // 2, n - 1) - np.maximum(i - w // 2, 0) + 1


class TestBoxSum:
    @pytest.mark.parametrize("dims", [(12, 10, 9), (3, 7, 5)])
    @pytest.mark.parametrize("w", [1, 3, 5, 9])
    def test_matches_filter_oracle(self, dims, w):
        a = np.random.default_rng(30).standard_normal(dims)
        out, ref = box_sum(a, w), filter_box_sum(a, w)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(out).max()

    @pytest.mark.parametrize("dims,w", [((12, 10, 9), 9), ((3, 7, 5), 5), ((3, 7, 5), 9)])
    def test_ones_give_exact_in_bounds_counts(self, dims, w):
        counts = [in_bounds_counts(n, w) for n in dims]
        expected = counts[0][:, None, None] * counts[1][None, :, None] * counts[2][None, None, :]
        assert np.array_equal(box_sum(np.ones(dims), w), expected)

    @pytest.mark.parametrize("w", [3, 9])
    def test_self_adjoint(self, w):
        rng = np.random.default_rng(31)
        a, b = rng.standard_normal((2, 12, 10, 9))
        assert np.vdot(box_sum(a, w), b) == pytest.approx(np.vdot(a, box_sum(b, w)), rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_fresh_contiguous_array_of_input_dtype(self, dtype):
        a = np.random.default_rng(32).random((9, 10, 12)).astype(dtype).transpose(2, 1, 0)
        out = box_sum(a, 3)
        assert out.dtype == dtype and out.shape == a.shape and out.flags.c_contiguous
        assert not np.shares_memory(out, a)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        assert np.abs(out - filter_box_sum(a, 3)).max() <= tol * np.abs(out).max()


def brute_r1(u):
    D = jacobian_raw(u)
    total = 0.0
    for c in range(3):
        for a in range(3):
            for idx in np.ndindex(u.shape[1:]):
                total += D[(c, a) + idx] ** 2
    return total / u[0].size


class TestR1:
    def test_constant_field_is_zero(self):
        u = DisplacementField(np.full((3, 4, 4, 4), 1.5, dtype=np.float32))
        assert r1_smoothness(u) == 0.0

    def test_unit_ramp(self):
        grid = np.indices((4, 4, 4)).astype(np.float64)
        u = np.zeros((3, 4, 4, 4))
        u[0] = grid[0]
        assert r1_smoothness(DisplacementField(u)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        u_arr = rng.standard_normal((3, 4, 4, 4))
        assert r1_smoothness(DisplacementField(u_arr)) == pytest.approx(brute_r1(u_arr), rel=1e-12)

    def test_zero_iff_constant(self):
        rng = np.random.default_rng(10)
        u_arr = rng.standard_normal((3, 4, 4, 4))
        assert r1_smoothness(DisplacementField(u_arr)) > 0


class TestTotalLoss:
    def test_perfect_alignment_identity_field(self):
        rng = np.random.default_rng(11)
        t = rand_vol(rng)
        u = DisplacementField(np.zeros((3, 5, 5, 5)))
        bd = total_loss(t, t, u, alpha=1.0, beta=1.0, cc_mode=LOCAL, window=3)
        assert bd.total == pytest.approx(0.0, abs=1e-2)
        assert bd.r1 == 0.0
        assert bd.r2 == 0.0

    def test_beta_zero_ignores_r2(self):
        rng = np.random.default_rng(12)
        s, t = rand_vol(rng), rand_vol(rng)
        u = DisplacementField(rng.standard_normal((3, 5, 5, 5)) * 2)
        bd0 = total_loss(s, t, u, alpha=1.0, beta=0.0, cc_mode=GLOBAL)
        assert bd0.total == bd0.image + 1.0 * bd0.r1

    def test_linear_in_beta(self):
        rng = np.random.default_rng(13)
        s, t = rand_vol(rng), rand_vol(rng)
        u = DisplacementField(rng.standard_normal((3, 5, 5, 5)) * 2)
        bd0 = total_loss(s, t, u, alpha=1.0, beta=0.0, cc_mode=GLOBAL)
        bd1 = total_loss(s, t, u, alpha=1.0, beta=1e-3, cc_mode=GLOBAL)
        assert bd1.total - bd0.total == pytest.approx(1e-3 * bd1.r2, rel=1e-9)

    def test_breakdown_identity_exact(self):
        rng = np.random.default_rng(14)
        s, t = rand_vol(rng), rand_vol(rng)
        u = DisplacementField(rng.standard_normal((3, 5, 5, 5)))
        for mode in (GLOBAL, LOCAL):
            bd = total_loss(s, t, u, alpha=0.7, beta=0.3, cc_mode=mode, window=3)
            assert bd.total == bd.image + bd.alpha * bd.r1 + bd.beta * bd.r2

    def test_image_term_ranges(self):
        rng = np.random.default_rng(15)
        s, t = rand_vol(rng), rand_vol(rng)
        u = DisplacementField(np.zeros((3, 5, 5, 5)))
        assert 0.0 <= total_loss(s, t, u, 0, 0, GLOBAL).image <= 2.0
        assert 0.0 <= total_loss(s, t, u, 0, 0, LOCAL, 3).image <= 1.0


class TestLossBackward:
    def test_gradient_at_alignment_is_small(self):
        rng = np.random.default_rng(16)
        t = rand_vol(rng)
        u = DisplacementField(np.zeros((3, 5, 5, 5)))
        grad_s = loss_backward(t, t, cc_mode=GLOBAL)
        assert np.abs(grad_s).max() < 1e-3

    def test_r1_gradient_zero_at_constant(self):
        rng = np.random.default_rng(17)
        u = DisplacementField(np.full((3, 5, 5, 5), 0.7))
        grad_u = regularizer_grad(u.data, alpha=1.0, beta=0.0)
        assert np.allclose(grad_u, 0.0, atol=1e-12)

    @pytest.mark.parametrize("mode,window", [(GLOBAL, 0), (LOCAL, 3)])
    def test_full_gradient_matches_fd(self, mode, window):
        rng = np.random.default_rng(18)
        s_arr = rng.random((5, 5, 5))
        t = rand_vol(rng)
        u_arr = rng.standard_normal((3, 5, 5, 5))
        alpha, beta = 0.5, 0.0  # r2 kink handled in its own suite

        def f(sa, ua):
            return total_loss(vol(sa), t, DisplacementField(ua), alpha, beta, mode, max(window, 3)).total

        grad_s = loss_backward(vol(s_arr), t, mode, max(window, 3))
        grad_u = regularizer_grad(u_arr, alpha, beta)
        h = 1e-6
        worst = 0.0
        idx_rng = np.random.default_rng(19)
        for _ in range(40):
            i, j, k = (int(x) for x in idx_rng.integers(0, 5, size=3))
            pert = s_arr.copy()
            pert[i, j, k] += h
            fp = f(pert, u_arr)
            pert[i, j, k] -= 2 * h
            fm = f(pert, u_arr)
            fd = (fp - fm) / (2 * h)
            a = grad_s[i, j, k]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
        for _ in range(40):
            c = int(idx_rng.integers(0, 3))
            i, j, k = (int(x) for x in idx_rng.integers(0, 5, size=3))
            pert = u_arr.copy()
            pert[c, i, j, k] += h
            fp = f(s_arr, pert)
            pert[c, i, j, k] -= 2 * h
            fm = f(s_arr, pert)
            fd = (fp - fm) / (2 * h)
            a = grad_u[c, i, j, k]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
        assert worst < 1e-4


def sha256_of(*arrays):
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        digest.update(f"{arr.dtype.str}{arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def pinned_inputs():
    """float32 images and a float32 field that folds, as a training step sees them."""
    rng = np.random.default_rng(50)
    dims = (12, 10, 9)
    s = Volume(rng.random(dims).astype(np.float32))
    t = Volume(rng.random(dims).astype(np.float32))
    u = DisplacementField((rng.standard_normal((3, *dims)) * 0.8).astype(np.float32))
    return s, t, u


LOSS_PIN_MODES = {"local9": (LOCAL, 9), "local5": (LOCAL, 5), "global": (GLOBAL, 9)}

# sha256 of the loss breakdown (image, r1, r2, total as float64) and of
# (grad_s, grad_u) from loss_backward and regularizer_grad, alpha 0.5, beta
# 0.2, which loss_backward returned together until the two halves of a
# training step's gradient ran on two threads; the local digests
# that the band-matrix box sums move (all but local9's breakdown) were
# re-recorded with them, within 4e-15 relative of the filter's outputs.
# The three loss_backward digests were re-recorded again when R1 and R2 came
# to share one Jacobian adjoint: grad_s kept its bytes, and grad_u, which
# now scales Du by 2 alpha / N before the adjoint instead of alpha after it,
# moved by 1.4e-16 of its largest entry
LOSS_SHA256 = {
    "local9": (
        "8e65024030eeedade273225ac9fe972d6559963a4aa17db72674adccfc06875c",
        "183d558be5e0b807a8bec6e7b470378e241756ab450d8bc5d658f35019c37e87",
    ),
    "local5": (
        "2df8205ff2be99275987dec12003c54d3542d2e0c9115ce9ced84c39de152abc",
        "7885847d6bcd4b7ac4eb0f4fc3d9b20a613a784aceb8c3f19266a34a19c272ec",
    ),
    "global": (
        "d78ceeaca2f6d40d62fc429f15a7efb6d88b976b4a338b8ceeb0beb5afb7e85c",
        "09e8ed47a6518f31389742a62839edc78f6df28c0770f88719f4efef6b59c8c9",
    ),
}


# sha256 of loss_backward's grad_s alone, recorded before R1 and R2 shared
# one Jacobian adjoint; the regularizers never reach it
GRAD_S_SHA256 = {
    "local9": "c082b923063ca0c424993067891f1552a30d898a059b875087e974af154c8814",
    "local5": "0089cd4c69037283c6e95896d7bc591d0f8242bd4ccf0d3806c6764a0f133332",
    "global": "ac2996362cc329a3da5ef212a3e0b0a929463e1106ee623378cb09956d367400",
}


class TestLossBytesPinned:
    @pytest.mark.parametrize("mode", sorted(LOSS_PIN_MODES))
    def test_total_loss_bytes(self, mode):
        s, t, u = pinned_inputs()
        bd = total_loss(s, t, u, 0.5, 0.2, *LOSS_PIN_MODES[mode])
        assert bd.r2 > 0
        assert sha256_of(np.array([bd.image, bd.r1, bd.r2, bd.total])) == LOSS_SHA256[mode][0]

    @pytest.mark.parametrize("mode", sorted(LOSS_PIN_MODES))
    def test_loss_value_bytes(self, mode):
        s, t, u = pinned_inputs()
        bd, det = loss_value(s, t, u, 0.5, 0.2, *LOSS_PIN_MODES[mode])
        assert sha256_of(np.array([bd.image, bd.r1, bd.r2, bd.total])) == LOSS_SHA256[mode][0]
        assert det.tobytes() == det_map(u).tobytes()

    @pytest.mark.parametrize("mode", sorted(LOSS_PIN_MODES))
    def test_loss_backward_grad_s_bytes(self, mode):
        s, t, u = pinned_inputs()
        grad_s = loss_backward(s, t, *LOSS_PIN_MODES[mode])
        assert sha256_of(grad_s) == GRAD_S_SHA256[mode]

    @pytest.mark.parametrize("mode", sorted(LOSS_PIN_MODES))
    def test_loss_backward_bytes(self, mode):
        s, t, u = pinned_inputs()
        grad_s = loss_backward(s, t, *LOSS_PIN_MODES[mode])
        grad_u = regularizer_grad(u.data, 0.5, 0.2)
        assert sha256_of(grad_s, grad_u) == LOSS_SHA256[mode][1]


class TestLossValue:
    """loss_value is total_loss and det_map from one Du, with no gradient."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", sorted(LOSS_PIN_MODES))
    def test_matches_total_loss_and_det_map(self, dtype, mode):
        s, t, u = pinned_inputs()
        u = DisplacementField(u.data.astype(dtype))
        u_before = u.data.copy()
        bd, det = loss_value(s, t, u, 0.5, 0.2, *LOSS_PIN_MODES[mode])
        assert bd == total_loss(s, t, u, 0.5, 0.2, *LOSS_PIN_MODES[mode])
        assert det.dtype == dtype and det.tobytes() == det_map(u).tobytes()
        assert folding_count(det) > 0 and np.array_equal(u.data, u_before)

    def test_cc_values_match_gradient_paths(self):
        rng = np.random.default_rng(64)
        a, b = rand_vol(rng, (7, 6, 5)), rand_vol(rng, (7, 6, 5))
        assert global_cc(a, b) == _global_cc_with_grad(a.data, b.data)[0]
        for w in (3, 5):
            assert local_cc(a, b, w) == _local_cc_with_grad(a.data, b.data, w)[0]

    def test_unknown_mode_and_dims(self):
        s, t, u = pinned_inputs()
        with pytest.raises(ValueError, match="unknown cc mode"):
            loss_value(s, t, u, 1.0, 0.0, "ncc")
        small = DisplacementField(np.zeros((3, 4, 4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="dims mismatch"):
            loss_value(s, t, small, 1.0, 0.0)
        with pytest.raises(ValueError, match="dims mismatch"):
            loss_backward(s, Volume(small.data[0]))
        with pytest.raises(ValueError, match="unknown cc mode"):
            loss_backward(s, t, "ncc")


class TestLossBackwardRegularizers:
    """regularizer_grad sums the R1 and R2 cotangents on Du and runs one adjoint.

    The R1 half of the oracle is formed here from Du alone. r2_backward runs
    the same du_cotangent as regularizer_grad, so the R2 half checks the alpha
    and beta weighting only; R2's gradient itself is pinned by
    TestR2BackwardBytesPinned and checked by gradcheck's r2_through_det row.
    """

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.0), (0.0, 0.01), (0.01, 0.01)])
    @pytest.mark.parametrize("case", ["none", "some", "all"])
    def test_matches_separate_gradients(self, dtype, alpha, beta, case):
        u = DisplacementField(r2_pin_field(case).data.astype(dtype))
        n_fold, n_vox = folding_count(det_map(u)), u.data[0].size
        assert {"none": n_fold == 0, "some": 0 < n_fold < n_vox, "all": n_fold == n_vox}[case]
        grad_u = regularizer_grad(u.data, alpha, beta)
        r1_grad = jacobian_adjoint(jacobian_raw(u.data).astype(np.float64) * (2.0 / u.data[0].size))
        expected = alpha * r1_grad + beta * r2_backward(u)
        assert grad_u.dtype == np.float64 and grad_u.shape == (3, *u.dims)
        assert np.abs(grad_u - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_peak_memory(self):
        """tracemalloc peak of one 32^3 loss_backward on a float32 training step's inputs.

        The local CC's gradient sets it. While loss_backward also formed the
        R1/R2 gradient, the peak was 7.0 MB with a separate adjoint for R1
        and for R2 and 5.3 MB with one; the CC gradient alone peaked at
        5.27 MB too, and at 3.44 MB once it dropped each array when last read.
        """
        import tracemalloc

        rng = np.random.default_rng(63)
        dims = (32, 32, 32)
        s = Volume(rng.random(dims).astype(np.float32))
        t = Volume(rng.random(dims).astype(np.float32))
        tracemalloc.start()
        try:
            loss_backward(s, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_500_000
