import hashlib

import numpy as np
import pytest

from foldreg.volume import INTENSITY, LABEL, DisplacementField, Volume
from foldreg.warp import (
    identity_grid,
    sample_grid,
    sample_grid_grad,
    trilinear_sample,
    warp_backward,
    warp_image,
    warp_labels,
)


def const_field(dims, vec, dtype=np.float32):
    u = np.zeros((3, *dims), dtype=dtype)
    for c in range(3):
        u[c] = vec[c]
    return DisplacementField(u)


def ramp_volume(dims, axis=0):
    grid = np.indices(dims).astype(np.float32)
    return Volume(grid[axis])


class TestTrilinearSample:
    def test_exact_at_nodes(self):
        rng = np.random.default_rng(0)
        v = Volume(rng.random((4, 5, 6), dtype=np.float32))
        assert trilinear_sample(v, (1, 2, 3)) == pytest.approx(float(v.data[1, 2, 3]), abs=0)

    def test_linear_midpoint(self):
        data = np.zeros((2, 1, 1), dtype=np.float32)
        data[1] = 1.0
        assert trilinear_sample(Volume(data), (0.5, 0, 0)) == pytest.approx(0.5)

    def test_clamp_to_edge(self):
        rng = np.random.default_rng(1)
        v = Volume(rng.random((3, 3, 3), dtype=np.float32))
        assert trilinear_sample(v, (-5.0, 0.0, 0.0)) == pytest.approx(float(v.data[0, 0, 0]), abs=0)
        assert trilinear_sample(v, (9.0, 2.0, 2.0)) == pytest.approx(float(v.data[2, 2, 2]), abs=0)

    def test_piecewise_linear_along_axis(self):
        rng = np.random.default_rng(2)
        v = Volume(rng.random((5, 5, 5), dtype=np.float32))
        # f(p0 + t e_x) affine in t within one cell: midpoint equals chord value
        p = np.array([1.2, 2.3, 3.4])
        f0 = trilinear_sample(v, p)
        f1 = trilinear_sample(v, p + [0.4, 0, 0])
        fm = trilinear_sample(v, p + [0.2, 0, 0])
        assert fm == pytest.approx(0.5 * (f0 + f1), rel=1e-5)


class TestWarpImage:
    def test_zero_field_is_bit_exact(self):
        rng = np.random.default_rng(3)
        v = Volume(rng.random((4, 4, 4), dtype=np.float32))
        out = warp_image(v, const_field(v.dims, (0, 0, 0)))
        assert np.array_equal(out.data, v.data)

    def test_translation_of_ramp(self):
        v = ramp_volume((6, 4, 4))
        out = warp_image(v, const_field(v.dims, (1.0, 0.0, 0.0)))
        # interior voxels see the ramp shifted by one
        assert np.allclose(out.data[:-1], v.data[:-1] + 1.0, atol=1e-6)

    def test_samples_at_grid_plus_u(self):
        rng = np.random.default_rng(4)
        v = Volume(rng.random((3, 3, 3), dtype=np.float32))
        u = DisplacementField(rng.standard_normal((3, 3, 3, 3)).astype(np.float32))
        out = warp_image(v, u)
        assert out.kind == INTENSITY
        assert np.array_equal(out.data, sample_grid(v.data, np.indices(v.dims, dtype=np.float32) + u.data))

    def test_dims_mismatch(self):
        v = Volume(np.zeros((3, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="mismatch"):
            warp_image(v, const_field((4, 4, 4), (0, 0, 0)))


class TestWarpLabels:
    def brute_force(self, lab, u):
        dims = lab.dims
        out = np.zeros(dims, dtype=np.int32)
        for i in range(dims[0]):
            for j in range(dims[1]):
                for k in range(dims[2]):
                    p = np.array([i, j, k], dtype=np.float64) + u.data[:, i, j, k]
                    idx = []
                    for axis, n in enumerate(dims):
                        c = min(max(p[axis], 0.0), n - 1.0)
                        idx.append(min(int(np.floor(c + 0.5)), n - 1))
                    out[i, j, k] = lab.data[idx[0], idx[1], idx[2]]
        return out

    def test_identity(self):
        rng = np.random.default_rng(5)
        lab = Volume(rng.integers(0, 4, size=(4, 4, 4)).astype(np.int32), LABEL)
        out = warp_labels(lab, const_field(lab.dims, (0, 0, 0)))
        assert np.array_equal(out.data, lab.data)

    def test_rounding_below_half_is_identity(self):
        rng = np.random.default_rng(6)
        lab = Volume(rng.integers(0, 4, size=(4, 4, 4)).astype(np.int32), LABEL)
        out = warp_labels(lab, const_field(lab.dims, (0.4, 0.0, 0.0)))
        assert np.array_equal(out.data, lab.data)

    def test_unit_shift_against_oracle(self):
        lab_data = np.zeros((4, 4, 4), dtype=np.int32)
        lab_data[0, 0, 0] = 7
        lab = Volume(lab_data, LABEL)
        u = const_field(lab.dims, (1.0, 0.0, 0.0))
        out = warp_labels(lab, u)
        assert np.array_equal(out.data, self.brute_force(lab, u))
        # the label is visible only where the sample point rounds to (0,0,0)
        assert out.data[0, 0, 0] == 0

    def test_random_fields_against_oracle(self):
        rng = np.random.default_rng(7)
        lab = Volume(rng.integers(0, 5, size=(5, 5, 5)).astype(np.int32), LABEL)
        u = DisplacementField((rng.standard_normal((3, 5, 5, 5)) * 1.5).astype(np.float32))
        out = warp_labels(lab, u)
        assert np.array_equal(out.data, self.brute_force(lab, u))

    def test_output_labels_subset_of_input(self):
        rng = np.random.default_rng(8)
        lab = Volume(rng.integers(0, 6, size=(5, 5, 5)).astype(np.int32), LABEL)
        u = DisplacementField((rng.standard_normal((3, 5, 5, 5)) * 3).astype(np.float32))
        out = warp_labels(lab, u)
        assert set(np.unique(out.data)) <= set(np.unique(lab.data))


class TestWarpBackward:
    def test_constant_source_zero_gradient(self):
        v = Volume(np.full((4, 4, 4), 3.0, dtype=np.float32))
        rng = np.random.default_rng(9)
        u = DisplacementField((rng.standard_normal((3, 4, 4, 4)) * 0.3).astype(np.float32))
        g = warp_backward(v, u, np.ones((4, 4, 4)))
        assert np.allclose(g, 0.0, atol=1e-6)

    def test_ramp_interior_gradient(self):
        v = ramp_volume((6, 6, 6))
        u = const_field(v.dims, (0.25, 0.25, 0.25), dtype=np.float64)
        g = warp_backward(v, u, np.ones((6, 6, 6)))
        interior = (slice(1, 4), slice(1, 4), slice(1, 4))
        assert np.allclose(g[0][interior], 1.0, atol=1e-6)
        assert np.allclose(g[1][interior], 0.0, atol=1e-6)
        assert np.allclose(g[2][interior], 0.0, atol=1e-6)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        v = Volume(rng.random((5, 5, 5)))
        u_arr = rng.uniform(-1.2, 1.2, size=(3, 5, 5, 5))
        # keep sample points off cell faces where the derivative is one-sided
        grid = np.indices((5, 5, 5)).astype(np.float64)
        coords = grid + u_arr
        frac = coords - np.floor(coords)
        u_arr = np.where((frac < 0.05) | (frac > 0.95), u_arr + 0.1, u_arr)
        upstream = rng.standard_normal((5, 5, 5))

        analytic = warp_backward(v, DisplacementField(u_arr), upstream)
        h = 1e-3
        rng_idx = np.random.default_rng(11)
        worst = 0.0
        for _ in range(60):
            c = int(rng_idx.integers(0, 3))
            i, j, k = (int(x) for x in rng_idx.integers(0, 5, size=3))
            pert = u_arr.copy()
            pert[c, i, j, k] += h
            fp = float((warp_image(v, DisplacementField(pert)).data * upstream).sum())
            pert[c, i, j, k] -= 2 * h
            fm = float((warp_image(v, DisplacementField(pert)).data * upstream).sum())
            fd = (fp - fm) / (2 * h)
            a = float(analytic[c, i, j, k])
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
        assert worst < 1e-4


def sha256_of(arr):
    arr = np.asarray(arr)
    digest = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def pin_case(dims, dtype, seed):
    """Source, labels, field and float64 upstream of one pinned warp case.

    The field reaches well outside the volume, and every third x-slice of it
    is rounded to whole voxels so that sample points land on cell faces.
    """
    rng = np.random.default_rng(seed)
    src = rng.random(dims).astype(dtype)
    lab = rng.integers(0, 5, size=dims).astype(np.int32)
    u = (rng.standard_normal((3, *dims)) * 2.5).astype(dtype)
    u[:, ::3] = np.round(u[:, ::3])
    upstream = rng.standard_normal(dims)
    return Volume(src), Volume(lab, LABEL), DisplacementField(u), upstream


PIN_CASES = {
    "f32_32cube": ((32, 32, 32), np.float32, 40),
    "f64_20x16x12": ((20, 16, 12), np.float64, 41),
    "unit_axis_1x5x4": ((1, 5, 4), np.float32, 42),
}

# sha256 of each output's dtype, shape and bytes, recorded at the commit
# before flat-index gathers and passing there
WARP_SHA256 = {
    "f32_32cube": {
        "sample_grid": "f627ae8889bd5a0f72a516fc02420ccc8267c33d0ce1a5322222eb9107274c40",
        "sample_grid_grad": "86f92baa1ee383931830aa22c03f3581b9793c380ae04417e28e674f3fd784d4",
        "warp_labels": "555d50e0d5d5002cb9088a531c98b560e7de5708fbed5f70e5184b1fd10d7f8d",
        "warp_backward": "858af7fa57e547548ed2316968e93fbaeeff45b40e07b9585f198df265d23c4f",
    },
    "f64_20x16x12": {
        "sample_grid": "8f7eb8a4fbe9ef8a693e1ffb8f2a8cd0bf9669b1107782a92ee530ecbed5565c",
        "sample_grid_grad": "a2952b5c03619e050393926c8ad3d7b76eacbaa8a34fe8047e837b4756583144",
        "warp_labels": "3fe55a5871e6097e57870e909d5c932598a56a844edbe4eabb9645f2107ccb3c",
        "warp_backward": "bd5f88c9bb0c53bd1ddce3126885dc69bfad051956c28307ea7a9656a64d5ecf",
    },
    "unit_axis_1x5x4": {
        "sample_grid": "c2f10048d99de8372432c6a9c5f691d4f50a2bab65b0d0e43df144c1535156b6",
        "sample_grid_grad": "24f7672a6ec58ad5cfcacdc0c93add27cf2c21584f13e0254526692a44e05e7f",
        "warp_labels": "46a4a6e413cc2b3559f15b9c9a33d86f28048c3cbd44e0098d58a3ca7e6e956b",
        "warp_backward": "ab30a513a860d20c2a7fa523cf14f095948f1f745b405061fa64d2fb7ce9d901",
    },
}


class TestWarpBytesPinned:
    @pytest.mark.parametrize("case", sorted(PIN_CASES))
    @pytest.mark.parametrize("fn", ["sample_grid", "sample_grid_grad", "warp_labels", "warp_backward"])
    def test_output_bytes(self, case, fn):
        src, lab, u, upstream = pin_case(*PIN_CASES[case])
        coords = identity_grid(src.dims, dtype=u.data.dtype) + u.data
        out = {
            "sample_grid": lambda: sample_grid(src.data, coords),
            "sample_grid_grad": lambda: sample_grid_grad(src.data, coords),
            "warp_labels": lambda: warp_labels(lab, u).data,
            "warp_backward": lambda: warp_backward(src, u, upstream),
        }[fn]()
        assert sha256_of(out) == WARP_SHA256[case][fn]


class TestMemoryOrder:
    """Loaded volumes are Fortran-ordered; they are gathered in place and warp to the bytes of a C-ordered copy."""

    @pytest.fixture
    def loaded(self, tmp_path):
        from foldreg.volume import load_volume, save_volume

        src, lab, u, upstream = pin_case((6, 7, 8), np.float32, 44)
        save_volume(src, tmp_path / "s.frv")
        save_volume(lab, tmp_path / "l.frv")
        return load_volume(tmp_path / "s.frv"), load_volume(tmp_path / "l.frv", LABEL), u, upstream

    def test_same_bytes_as_c_ordered_copy(self, loaded):
        src, lab, u, upstream = loaded
        assert src.data.flags.f_contiguous and not src.data.flags.c_contiguous
        c_src, c_lab = Volume(np.ascontiguousarray(src.data)), Volume(np.ascontiguousarray(lab.data), LABEL)
        coords = identity_grid(src.dims, dtype=u.data.dtype) + u.data
        assert sample_grid(src.data, coords).tobytes() == sample_grid(c_src.data, coords).tobytes()
        assert sample_grid_grad(src.data, coords).tobytes() == sample_grid_grad(c_src.data, coords).tobytes()
        assert warp_backward(src, u, upstream).tobytes() == warp_backward(c_src, u, upstream).tobytes()
        assert warp_labels(lab, u).data.tobytes() == warp_labels(c_lab, u).data.tobytes()

    def test_strided_view_is_copied_first(self, loaded):
        src = loaded[0].data[::2, :, ::-1]
        coords = identity_grid(src.shape) + np.random.default_rng(45).uniform(-2, 2, (3, *src.shape))
        c_src = np.ascontiguousarray(src)
        assert sample_grid(src, coords).tobytes() == sample_grid(c_src, coords).tobytes()
        assert sample_grid_grad(src, coords).tobytes() == sample_grid_grad(c_src, coords).tobytes()

    def test_gather_copies_nothing(self, loaded):
        from foldreg.warp import _flat

        src, lab, _, _ = loaded
        for arr in (src.data, lab.data, np.ascontiguousarray(src.data)):
            assert np.shares_memory(_flat(arr)[0], arr)


def trilinear_oracle(vol, p):
    """Per-point trilinear value: clamp, lower cell at faces, one node on a unit axis."""
    cells = []
    for axis, n in enumerate(vol.shape):
        c = min(max(float(p[axis]), 0.0), n - 1.0)
        if n == 1:
            cells.append(((0, 1.0),))
            continue
        i0 = min(max(int(np.ceil(c)) - 1, 0), n - 2)
        f = c - i0
        cells.append(((i0, 1.0 - f), (i0 + 1, f)))
    return sum(
        float(vol[i, j, k]) * wi * wj * wk
        for i, wi in cells[0] for j, wj in cells[1] for k, wk in cells[2]
    )


class TestUnitAxis:
    def test_sample_grid_matches_oracle(self):
        src, _, u, _ = pin_case((1, 5, 4), np.float64, 43)
        coords = identity_grid(src.dims) + u.data
        out = sample_grid(src.data, coords)
        for idx in np.ndindex(src.dims):
            p = coords[(slice(None), *idx)]
            assert out[idx] == pytest.approx(trilinear_oracle(src.data, p), rel=1e-12, abs=1e-15)


class TestLibraryOracles:
    """sample_grid and sample_grid_grad against scipy.ndimage.map_coordinates(order=1, mode="nearest").

    The library shares no code with warp.py: its clamp-to-edge is the
    "nearest" extension. float32 runs on the float32-rounded volume and points
    against the float64 library result of the unrounded ones. Measured worst
    cases over five seeds on 12x10x9, 500 points from 2 voxels outside the
    volume to 1 beyond it: values 3.3e-16 (float64) and 3.7e-7 (float32)
    absolute, on intensities in [0, 1); derivatives 3.2e-12 and 6.0e-7
    relative to the largest, against central differences at h = 1e-4.
    """

    BOUNDS = {np.float64: (2e-15, 2e-11), np.float32: (2e-6, 3e-6)}  # values, derivatives

    @staticmethod
    def case(seed):
        from scipy import ndimage

        rng = np.random.default_rng(seed)
        vol = rng.random((12, 10, 9))
        pts = rng.uniform(-2.0, np.array(vol.shape)[:, None] + 1.0, size=(3, 500))
        return ndimage, vol, pts

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_values_match_map_coordinates(self, seed, dtype):
        ndimage, vol, pts = self.case(seed)
        expected = ndimage.map_coordinates(vol, pts, order=1, mode="nearest")
        got = sample_grid(vol.astype(dtype), pts.astype(dtype))
        assert got.dtype == dtype
        assert np.abs(got - expected).max() <= self.BOUNDS[dtype][0]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_derivative_matches_central_differences(self, seed, dtype):
        ndimage, vol, pts = self.case(seed)
        # points at least 0.1 from every cell face, where the interpolant is smooth
        frac = pts - np.floor(pts)
        pts = np.where((frac < 0.1) | (frac > 0.9), np.floor(pts) + 0.5, pts)
        h = 1e-4
        expected = np.stack([
            (ndimage.map_coordinates(vol, pts + h * e[:, None], order=1, mode="nearest")
             - ndimage.map_coordinates(vol, pts - h * e[:, None], order=1, mode="nearest")) / (2 * h)
            for e in np.eye(3)
        ])
        assert (expected == 0).any() and (expected != 0).any()  # points outside and inside
        got = sample_grid_grad(vol.astype(dtype), pts.astype(dtype))
        assert got.dtype == dtype
        assert np.abs(got - expected).max() <= self.BOUNDS[dtype][1] * np.abs(expected).max()
