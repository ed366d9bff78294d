import hashlib

import numpy as np
import pytest

from foldreg.jacobian import (
    _cofactors,
    deformation_det,
    det_map,
    folding_count,
    folding_mask,
    jacobian_adjoint,
    jacobian_raw,
    r2_backward,
    r2_penalty,
)
from foldreg.volume import DisplacementField


def affine_field(A, b, dims, dtype=np.float64):
    grid = np.indices(dims).astype(dtype)
    u = np.zeros((3, *dims), dtype=dtype)
    for c in range(3):
        u[c] = b[c]
        for a in range(3):
            u[c] += A[c, a] * grid[a]
    return DisplacementField(u)


def brute_force_jacobian(u):
    """Index-by-index forward differences, backward on the last slice."""
    dims = u.shape[1:]
    out = np.zeros((3, 3, *dims))
    for c in range(3):
        for a in range(3):
            for idx in np.ndindex(dims):
                lo = list(idx)
                hi = list(idx)
                if idx[a] < dims[a] - 1:
                    hi[a] += 1
                else:
                    lo[a] -= 1
                out[(c, a) + idx] = u[(c,) + tuple(hi)] - u[(c,) + tuple(lo)]
    return out


class TestDisplacementJacobian:
    def test_constant_field(self):
        u = DisplacementField(np.full((3, 3, 3, 3), 2.5, dtype=np.float32))
        assert np.allclose(jacobian_raw(u.data), 0.0, atol=0)

    def test_exact_on_linear_fields(self):
        A = np.array([[0.2, -0.1, 0.05], [0.0, 0.3, -0.2], [0.1, 0.1, -0.1]])
        u = affine_field(A, (1.0, -2.0, 0.5), (4, 5, 6))
        D = jacobian_raw(u.data)
        for c in range(3):
            for a in range(3):
                assert np.allclose(D[c, a], A[c, a], atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        u_arr = rng.standard_normal((3, 4, 4, 4))
        D = jacobian_raw(u_arr)
        assert np.allclose(D, brute_force_jacobian(u_arr), atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 3, 2), (5, 6, 7)])
    def test_adjoint_identity(self, dims):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((3, *dims))
        g = rng.standard_normal((3, 3, *dims))
        assert np.vdot(jacobian_raw(u), g) == pytest.approx(np.vdot(u, jacobian_adjoint(g)), rel=1e-12)

    def test_extent_one_rejected(self):
        with pytest.raises(ValueError):
            jacobian_raw(DisplacementField(np.zeros((3, 1, 3, 3), dtype=np.float32)).data)


class TestDetMap:
    def test_zero_field(self):
        u = DisplacementField(np.zeros((3, 3, 3, 3), dtype=np.float32))
        assert np.allclose(det_map(u), 1.0, atol=0)

    def test_diagonal_expansion(self):
        A = np.diag([0.1, 0.0, 0.0])
        u = affine_field(A, (0, 0, 0), (4, 4, 4))
        assert np.allclose(det_map(u), 1.1, atol=1e-12)

    def test_folding_field(self):
        A = np.diag([-2.0, 0.0, 0.0])
        u = affine_field(A, (0, 0, 0), (4, 4, 4))
        assert np.allclose(det_map(u), -1.0, atol=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        u_arr = rng.standard_normal((3, 5, 5, 5))
        d1 = det_map(DisplacementField(u_arr))
        d2 = det_map(DisplacementField(u_arr + np.array([3.0, -1.0, 0.5])[:, None, None, None]))
        assert np.allclose(d1, d2, atol=1e-12)

    def test_affine_exactness(self):
        rng = np.random.default_rng(2)
        A = rng.uniform(-0.4, 0.4, size=(3, 3))
        u = affine_field(A, rng.uniform(-1, 1, size=3), (12, 12, 12))
        expected = np.linalg.det(np.eye(3) + A)
        assert np.abs(det_map(u) - expected).max() < 1e-6


class TestLibraryOracles:
    """deformation_det and _cofactors against numpy.linalg, sharing no code with jacobian.py.

    The bounds are relative to the largest entry. Measured worst cases over 20
    seeded 12x10x9 fields: float64 8.1e-16 (det) and 4.6e-16 (cofactors);
    float32 1.9e-7 and 9.3e-8, against float64 references of the same inputs.
    """

    BOUNDS = {np.float64: 1e-13, np.float32: 1e-6}

    @staticmethod
    def field_jacobian(seed, dtype):
        rng = np.random.default_rng(seed)
        # std 0.6 folds about a third of the voxels
        D = jacobian_raw(rng.normal(0.0, 0.6, (3, 12, 10, 9)).astype(dtype))
        return D, np.moveaxis(D.astype(np.float64), (0, 1), (-2, -1)) + np.eye(3)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_det_matches_numpy_det(self, seed, dtype):
        D, J = self.field_jacobian(seed, dtype)
        expected = np.linalg.det(J)
        assert (expected < 0).any() and (expected > 0).any()
        det = deformation_det(D)
        assert det.dtype == dtype
        assert np.abs(det - expected).max() <= self.BOUNDS[dtype] * np.abs(expected).max()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cofactors_match_adjugate_transpose(self, seed, dtype):
        D, J = self.field_jacobian(seed, dtype)
        # the cofactor matrix is det(J) inv(J)^T
        expected = np.linalg.det(J)[..., None, None] * np.swapaxes(np.linalg.inv(J), -1, -2)
        Jd = D + np.eye(3, dtype=dtype)[:, :, None, None, None]
        C = np.moveaxis(_cofactors(Jd), (0, 1), (-2, -1))
        assert C.dtype == dtype
        assert np.abs(C - expected).max() <= self.BOUNDS[dtype] * np.abs(expected).max()


class TestFoldingCount:
    def test_definition(self):
        d = np.array([1.0, -1.0, 0.5]).reshape(1, 1, 3)
        assert folding_count(d) == 1

    def test_all_positive(self):
        assert folding_count(np.ones((2, 2, 2))) == 0

    def test_zero_not_counted(self):
        d = np.array([0.0, 0.0, -0.1]).reshape(1, 1, 3)
        assert folding_count(d) == 1

    def test_mask_export(self):
        d = np.array([1.0, -1.0, 0.5]).reshape(1, 1, 3)
        m = folding_mask(d)
        assert np.array_equal(m.data.ravel(), np.array([0.0, 1.0, 0.0], dtype=np.float32))


class TestR2Penalty:
    def test_non_negative_dets_unpenalized(self):
        d = np.array([0.0, 0.3, 2.0]).reshape(1, 1, 3)
        assert r2_penalty(d) == 0.0

    def test_direct_evaluation(self):
        d = np.array([1.0, -1.0, 0.5]).reshape(1, 1, 3)
        assert r2_penalty(d) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_constant_negative(self):
        d = np.full((2, 2, 2), -2.0)
        assert r2_penalty(d) == pytest.approx(2.0, abs=0)

    def test_links_to_folding_count(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = rng.standard_normal((3, 3, 3))
            if r2_penalty(d) > 0:
                assert folding_count(d) > 0
            if folding_count(d) > 0:
                assert r2_penalty(d) > 0


class TestR2Backward:
    def test_zero_gradient_when_unfolded(self):
        rng = np.random.default_rng(4)
        u = DisplacementField((rng.standard_normal((3, 4, 4, 4)) * 0.05).astype(np.float32))
        assert folding_count(det_map(u)) == 0
        assert np.allclose(r2_backward(u), 0.0, atol=0)

    def test_folding_field_gradient_channel(self):
        A = np.diag([-2.0, 0.0, 0.0])
        u = affine_field(A, (0, 0, 0), (5, 5, 5))
        g = r2_backward(u)
        assert np.abs(g[0]).max() > 0
        # constant stencil gradients telescope to zero away from the slices
        # {0, n-2, n-1} touched by the boundary fallback; channel c varies
        # only along axis c for this diagonal field
        assert np.allclose(g[1][:, 1:-2, :], 0.0, atol=1e-15)
        assert np.allclose(g[2][:, :, 1:-2], 0.0, atol=1e-15)
        assert np.allclose(g[0][1:-2, :, :], 0.0, atol=1e-15)

    def test_zero_determinant_has_zero_subgradient(self):
        # u_0 = -x_0 zeroes the first row of I + Du: det is exactly 0 at every voxel, and none folds
        u = affine_field(np.diag([-1.0, 0.0, 0.0]), (0, 0, 0), (5, 5, 5))
        assert not det_map(u).any()
        assert not r2_backward(u).any()

    def _fd_field(self, margin=0.05):
        # deterministic folding field with no determinant near the kink at 0
        rng = np.random.default_rng(11)
        for _ in range(64):
            u_arr = rng.uniform(-1.6, 1.6, size=(3, 5, 5, 5))
            det = det_map(DisplacementField(u_arr))
            if (det < 0).any() and (np.abs(det) > margin).all():
                return u_arr
        raise AssertionError("no suitable field found")

    def test_matches_finite_differences(self):
        u_arr = self._fd_field()
        g = r2_backward(DisplacementField(u_arr))
        h = 1e-5
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(80):
            c = int(rng.integers(0, 3))
            i, j, k = (int(x) for x in rng.integers(0, 5, size=3))
            pert = u_arr.copy()
            pert[c, i, j, k] += h
            fp = r2_penalty(det_map(DisplacementField(pert)))
            pert[c, i, j, k] -= 2 * h
            fm = r2_penalty(det_map(DisplacementField(pert)))
            fd = (fp - fm) / (2 * h)
            a = float(g[c, i, j, k])
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
        assert worst < 1e-4

    def test_upstream_scaling(self):
        u_arr = self._fd_field()
        u = DisplacementField(u_arr)
        assert np.allclose(r2_backward(u, upstream=2.5), 2.5 * r2_backward(u), atol=1e-15)


def r2_pin_field(case):
    """float32 fields with no, some and only folding voxels."""
    rng = np.random.default_rng(60)
    dims = (14, 11, 9)
    noise = rng.standard_normal((3, *dims))
    if case == "none":
        u = noise * 0.05
    elif case == "some":
        u = noise * 0.8
    else:  # u = -2x + noise: I + Du is about -I, det about -1 everywhere
        u = -2.0 * np.indices(dims) + noise * 0.05
    return DisplacementField(u.astype(np.float32))


# sha256 of r2_backward's dtype, shape and bytes, recorded at the commit
# before active-set cofactors and passing there
R2_SHA256 = {
    "none": "ff8178ac52ae2f2d37bc3565b974396e5dcc982df2afe9f1f5b2d1dc7697df15",
    "some": "ddc81bfdfbf66ace004eaba6598cc53fe5de46a8c1e649b4546bf17535c4aa5d",
    "all": "231d652edbe72d11e553f5a076993f27168776fe8bf1787a807a9dcd80049ce1",
}


class TestR2BackwardBytesPinned:
    @pytest.mark.parametrize("case", sorted(R2_SHA256))
    def test_output_bytes(self, case):
        u = r2_pin_field(case)
        n_fold, n_vox = folding_count(det_map(u)), u.data[0].size
        assert {"none": n_fold == 0, "some": 0 < n_fold < n_vox, "all": n_fold == n_vox}[case]
        g = r2_backward(u)
        digest = hashlib.sha256(f"{g.dtype.str}{g.shape}".encode())
        digest.update(np.ascontiguousarray(g).tobytes())
        assert digest.hexdigest() == R2_SHA256[case]
