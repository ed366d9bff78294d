import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldreg.volume import (
    _FRV_LAYOUTS,
    INTENSITY,
    LABEL,
    DisplacementField,
    FormatError,
    Volume,
    center_crop,
    load_field,
    load_volume,
    normalize_intensity,
    save_field,
    save_volume,
)


def rand_volume(rng, dims=(3, 4, 5), kind=INTENSITY):
    if kind == LABEL:
        return Volume(rng.integers(0, 5, size=dims).astype(np.int32), LABEL)
    return Volume(rng.random(dims, dtype=np.float32), INTENSITY)


class TestVolumeType:
    def test_dims_and_dtype(self):
        v = Volume(np.zeros((2, 3, 4), dtype=np.float32))
        assert v.dims == (2, 3, 4)
        assert v.data.dtype == np.float32

    def test_label_requires_integers(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2, 2), dtype=np.float32), LABEL)

    def test_label_rejects_negative(self):
        with pytest.raises(ValueError):
            Volume(np.full((2, 2, 2), -1, dtype=np.int32), LABEL)

    # ids that a cast to int32 would wrap: 2^32 + 1 to 1, 2^31 + 5 and 2^31 to
    # negatives, -2^32 + 7 to 7
    @pytest.mark.parametrize("dtype,label_id", [
        (np.int64, 2**31), (np.uint64, 2**31), (np.int64, 2**31 + 5), (np.uint64, 2**31 + 5),
        (np.int64, 2**32 + 1), (np.uint64, 2**32 + 1), (np.int64, -(2**32) + 7),
    ])
    def test_label_rejects_ids_beyond_int32(self, dtype, label_id):
        data = np.zeros((2, 2, 2), dtype=dtype)
        data[1, 0, 1] = label_id
        with pytest.raises(ValueError, match=r"\[0, 2147483647\]"):
            Volume(data, LABEL)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_label_in_range_wide_ids_load_as_int32(self, dtype):
        data = np.array([0, 1, 7, 2**31 - 1, 3, 0, 2**16, 5], dtype=dtype).reshape(2, 2, 2)
        v = Volume(data, LABEL)
        assert v.data.dtype == np.int32
        assert np.array_equal(v.data.astype(np.int64), data.astype(np.int64))

    def test_data_is_readonly(self):
        v = Volume(np.zeros((2, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 1.0

    def test_field_rejects_nan(self):
        bad = np.zeros((3, 2, 2, 2), dtype=np.float32)
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            DisplacementField(bad)

    def test_field_requires_three_channels(self):
        with pytest.raises(ValueError):
            DisplacementField(np.zeros((2, 2, 2, 2), dtype=np.float32))


class TestNormalize:
    def test_direct_division(self):
        v = Volume(np.array([2.0, 4.0], dtype=np.float32).reshape(1, 1, 2))
        out = normalize_intensity(v)
        assert np.array_equal(out.data.ravel(), np.array([0.5, 1.0], dtype=np.float32))

    def test_constant_volume(self):
        v = Volume(np.full((2, 2, 2), 7.0, dtype=np.float32))
        assert np.array_equal(normalize_intensity(v).data, np.ones((2, 2, 2), dtype=np.float32))

    def test_all_zero_errors(self):
        v = Volume(np.zeros((2, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="degenerate"):
            normalize_intensity(v)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        v = Volume(rng.random((3, 3, 3), dtype=np.float32) + 0.01)
        once = normalize_intensity(v)
        twice = normalize_intensity(once)
        assert np.array_equal(once.data, twice.data)
        assert once.data.max() == 1.0


class TestCenterCrop:
    def test_full_scale_crop_offsets(self):
        # 182x218x182 -> 144x180x144 trims 19 voxels from the low side per axis
        data = np.zeros((182, 218, 182), dtype=np.float32)
        data[19, 19, 19] = 1.0
        out = center_crop(Volume(data), (144, 180, 144))
        assert out.dims == (144, 180, 144)
        assert out.data[0, 0, 0] == 1.0

    def test_identity_when_target_is_dims(self):
        rng = np.random.default_rng(0)
        v = rand_volume(rng)
        out = center_crop(v, v.dims)
        assert np.array_equal(out.data, v.data)

    def test_target_exceeding_dims_errors(self):
        v = Volume(np.zeros((182, 218, 182), dtype=np.float32))
        with pytest.raises(ValueError):
            center_crop(v, (200, 1, 1))

    def test_values_preserved(self):
        rng = np.random.default_rng(1)
        v = rand_volume(rng, dims=(5, 6, 7))
        out = center_crop(v, (3, 3, 3))
        ox, oy, oz = (5 - 3) // 2, (6 - 3) // 2, (7 - 3) // 2
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert out.data[i, j, k] == v.data[i + ox, j + oy, k + oz]


class TestFrv:
    def test_single_voxel_file_size(self, tmp_path):
        v = Volume(np.full((1, 1, 1), 0.5, dtype=np.float32))
        path = tmp_path / "one.frv"
        save_volume(v, path)
        assert path.stat().st_size == 28 + 4

    @given(seed=st.integers(0, 2**31 - 1), kind=st.sampled_from([INTENSITY, LABEL]))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_volume(self, tmp_path_factory, seed, kind):
        rng = np.random.default_rng(seed)
        v = rand_volume(rng, dims=(2, 3, 4), kind=kind)
        path = tmp_path_factory.mktemp("frv") / "v.frv"
        save_volume(v, path)
        out = load_volume(path)
        assert out.kind == v.kind
        assert out.data.dtype == v.data.dtype
        assert np.array_equal(out.data, v.data)

    def test_round_trip_field(self, tmp_path):
        rng = np.random.default_rng(3)
        u = DisplacementField(rng.standard_normal((3, 2, 3, 4)).astype(np.float32))
        path = tmp_path / "u.frv"
        save_field(u, path)
        out = load_field(path)
        assert np.array_equal(out.data, u.data)

    def test_x_fastest_payload_order(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        path = tmp_path / "v.frv"
        save_volume(Volume(data), path)
        payload = np.frombuffer(path.read_bytes()[28:], dtype="<f4")
        # linear order steps x first: (0,0,0), (1,0,0), (0,1,0), ...
        expected = data.ravel(order="F")
        assert np.array_equal(payload, expected)

    def test_truncated_payload(self, tmp_path):
        v = Volume(np.zeros((2, 2, 2), dtype=np.float32))
        path = tmp_path / "v.frv"
        save_volume(v, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="payload size mismatch"):
            load_volume(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.frv"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_volume(path)

    def test_field_file_rejected_by_load_volume(self, tmp_path):
        u = DisplacementField(np.zeros((3, 2, 2, 2), dtype=np.float32))
        path = tmp_path / "u.frv"
        save_field(u, path)
        with pytest.raises(FormatError, match="load_field"):
            load_volume(path)

    def test_readonly_destination(self, tmp_path):
        v = Volume(np.zeros((2, 2, 2), dtype=np.float32))
        target = tmp_path / "nodir" / "v.frv"
        with pytest.raises(OSError):
            save_volume(v, target)

    @pytest.mark.parametrize("loader", [load_volume, load_field])
    @pytest.mark.parametrize("blob,message", [
        (b"FRV1" + b"\x00" * 20, "truncated FRV1 header"),
        (b"NOPE" + b"\x00" * 40, "bad magic"),
        (struct.pack("<4sIIIIII", b"FRV1", 2, 2, 0, 2, 3, 0), r"non-positive dims \(2, 0, 2\)"),
        (struct.pack("<4sIIIIII", b"FRV1", 2, 1, 1, 1, 3, 7) + b"\x00" * 12, "unsupported element kind 7"),
    ], ids=["truncated_header", "bad_magic", "non_positive_dims", "element_kind"])
    def test_malformed_header(self, tmp_path, loader, blob, message):
        path = tmp_path / "x.frv"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=message):
            loader(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_file(self, tmp_path, bad):
        path = tmp_path / "u.frv"
        save_field(DisplacementField(np.zeros((3, 2, 2, 2), dtype=np.float32)), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, 28 + 4 * 13, bad)  # channel 1, a voxel inside the payload
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"{path}: displacement field contains NaN or Inf"):
            load_field(path)


def frv_blob(kind_code, channels, elem_code, dims=(2, 3, 4), payload=None) -> bytes:
    """An FRV1 header, then ``payload`` or as many zero bytes as 4-byte elements would take."""
    if payload is None:
        payload = b"\x00" * (4 * channels * int(np.prod(dims)))
    return struct.pack("<4sIIIIII", b"FRV1", kind_code, *dims, channels, elem_code) + payload


class TestFrvLayoutTable:
    """Every row of _FRV_LAYOUTS round-trips; every other header is a FormatError."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(_FRV_LAYOUTS)), dims=st.tuples(*[st.integers(1, 7)] * 3),
           seed=st.integers(0, 2**32 - 1))
    def test_every_kind_round_trips_bit_exactly(self, tmp_path_factory, kind, dims, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path_factory.mktemp("frv") / "x.frv"
        if kind == LABEL:
            v = Volume(rng.integers(0, np.iinfo(np.int32).max, size=dims, endpoint=True).astype(np.int32), LABEL)
            save_volume(v, path)
            out = load_volume(path)
        elif kind == INTENSITY:
            data = rng.normal(0, 1e3, dims).astype(np.float32)
            data[rng.random(dims) < 0.2] = -0.0
            v = Volume(data, INTENSITY)
            save_volume(v, path)
            out = load_volume(path)
        else:
            data = rng.normal(0, 3, (3, *dims)).astype(np.float32)
            data[rng.random(data.shape) < 0.2] = -0.0
            v = DisplacementField(data)
            save_field(v, path)
            out = load_field(path)
        assert out.data.dtype == v.data.dtype and out.data.shape == v.data.shape
        assert out.data.tobytes() == v.data.tobytes()
        assert getattr(out, "kind", None) == getattr(v, "kind", None)
        kind_code, channels, elem_code, _ = _FRV_LAYOUTS[kind]
        assert path.read_bytes()[:28] == frv_blob(kind_code, channels, elem_code, dims, b"")

    @staticmethod
    def assert_rejected(path, layout):
        # the header alone: the layout is checked before the payload size
        path.write_bytes(frv_blob(*layout, payload=b""))
        for loader in (load_volume, load_field):
            with pytest.raises(FormatError, match="unsupported element kind"):
                loader(path)

    def test_small_codes_outside_the_table_rejected(self, tmp_path):
        rows = {row[:3] for row in _FRV_LAYOUTS.values()}
        for layout in itertools.product(range(9), range(6), range(5)):
            if layout not in rows:
                self.assert_rejected(tmp_path / "x.frv", layout)

    @settings(max_examples=60, deadline=None)
    @given(layout=st.tuples(*[st.integers(0, 2**32 - 1)] * 3)
           .filter(lambda row: row not in {r[:3] for r in _FRV_LAYOUTS.values()}))
    def test_any_codes_outside_the_table_rejected(self, tmp_path_factory, layout):
        self.assert_rejected(tmp_path_factory.mktemp("frv") / "x.frv", layout)

    @pytest.mark.parametrize("loader", [load_volume, load_field])
    @pytest.mark.parametrize("layout", [(7, 1, 0), (1, 1, 0)], ids=["kind_7", "float32_labels"])
    def test_layouts_that_used_to_load(self, tmp_path, loader, layout):
        # kind 7 once loaded as intensity, and float32 labels truncated toward zero (0.7 -> 0)
        payload = np.full(24, 0.7, dtype="<f4").tobytes()
        path = tmp_path / "x.frv"
        path.write_bytes(frv_blob(*layout, payload=payload))
        with pytest.raises(FormatError, match="unsupported element kind"):
            loader(path)


def build_nifti(data: np.ndarray, datatype: int, vox_offset: int = 352, sizeof_hdr: int = 348,
                magic: bytes = b"n+1\x00") -> bytes:
    header = bytearray(348)
    struct.pack_into("<i", header, 0, sizeof_hdr)
    dims = data.shape
    struct.pack_into("<8h", header, 40, 3, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    struct.pack_into("<h", header, 70, datatype)
    struct.pack_into("<f", header, 108, float(vox_offset))
    header[344:348] = magic
    payload = data.ravel(order="F").tobytes()
    return bytes(header) + b"\x00" * (vox_offset - 348) + payload


class TestNifti:
    def test_minimal_float32_fixture(self, tmp_path):
        data = np.arange(8, dtype="<f4").reshape(2, 2, 2)
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti(data, datatype=16))
        out = load_volume(path)
        assert out.dims == (2, 2, 2)
        assert np.array_equal(out.data, data.astype(np.float32))

    @pytest.mark.parametrize("datatype,np_dtype", [(2, "<u1"), (4, "<i2"), (8, "<i4"), (64, "<f8")])
    def test_element_kinds(self, tmp_path, datatype, np_dtype):
        data = np.arange(8).astype(np_dtype).reshape(2, 2, 2)
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti(data, datatype=datatype))
        out = load_volume(path)
        assert out.data.dtype == np.float32
        assert np.array_equal(out.data, data.astype(np.float32))

    def test_bad_sizeof_hdr(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype="<f4")
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti(data, datatype=16, sizeof_hdr=347))
        with pytest.raises(FormatError, match="bad magic/header"):
            load_volume(path)

    def test_unsupported_datatype(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype="<f4")
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti(data, datatype=32))  # complex64
        with pytest.raises(FormatError, match="unsupported element kind"):
            load_volume(path)

    def test_truncated_payload(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype="<f4")
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti(data, datatype=16)[:-5])
        with pytest.raises(FormatError, match="payload size mismatch"):
            load_volume(path)

    @pytest.mark.parametrize("offset,fmt,values,message", [
        (0, "<i", (1543569408,), "big-endian NIfTI is unsupported"),
        (344, "<4s", (b"nx1\x00",), r"bad magic/header \(magic="),
        (40, "<h", (0,), r"bad magic/header \(dim\[0\]=0\)"),
        (40, "<h", (8,), r"bad magic/header \(dim\[0\]=8\)"),
        (40, "<5h", (4, 2, 2, 2, 3), "only scalar 3D volumes"),
        (108, "<f", (344.0,), r"bad magic/header \(vox_offset=344"),
        (108, "<f", (np.inf,), r"bad magic/header \(vox_offset=inf\)"),
        (108, "<f", (np.nan,), r"bad magic/header \(vox_offset=nan\)"),
    ], ids=["big_endian", "bad_magic", "ndim_0", "ndim_8", "non_scalar", "vox_offset_low",
            "vox_offset_inf", "vox_offset_nan"])
    def test_malformed_header(self, tmp_path, offset, fmt, values, message):
        blob = bytearray(build_nifti(np.zeros((2, 2, 2), dtype="<f4"), datatype=16))
        struct.pack_into(fmt, blob, offset, *values)
        path = tmp_path / "v.nii"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=message):
            load_volume(path)

    @pytest.mark.parametrize("dim", [(3, 4, 4, 0), (3, 4, 4, -2), (4, 4, 4, 1, 0), (1, 0)])
    def test_non_positive_extent_rejected(self, tmp_path, dim):
        # these once loaded with the extent taken as 1
        blob = bytearray(build_nifti(np.zeros((4, 4, 1), dtype="<f4"), datatype=16))
        struct.pack_into("<8h", blob, 40, *dim, *[1] * (8 - len(dim)))
        path = tmp_path / "v.nii"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-positive extent"):
            load_volume(path)

    @pytest.mark.parametrize("extra_voxels", [0, 32])
    def test_extents_beyond_ndim_ignored(self, tmp_path, extra_voxels):
        # dim[3] = 3 is unused when dim[0] = 2: the volume is 4x4x1, with or without trailing bytes
        data = np.arange(16 + extra_voxels, dtype="<f4")
        blob = bytearray(build_nifti(data.reshape(-1, 1, 1), datatype=16))
        struct.pack_into("<8h", blob, 40, 2, 4, 4, 3, 1, 1, 1, 1)
        path = tmp_path / "v.nii"
        path.write_bytes(bytes(blob))
        out = load_volume(path)
        assert out.dims == (4, 4, 1)
        assert np.array_equal(out.data, data[:16].reshape((4, 4, 1), order="F"))

    def test_two_file_magic_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype="<f4")
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti(data, datatype=16, magic=b"ni1\x00"))
        with pytest.raises(FormatError, match="two-file"):
            load_volume(path)

    def test_label_load(self, tmp_path):
        data = np.arange(8).astype("<i2").reshape(2, 2, 2)
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti(data, datatype=4))
        out = load_volume(path, LABEL)
        assert out.kind == LABEL
        assert out.data.dtype == np.int32
        assert np.array_equal(out.data, data.astype(np.int32))

    @pytest.mark.parametrize("container", ["nifti", "frv"])
    def test_intensity_file_rejected_as_labels(self, tmp_path, container):
        data = np.zeros((2, 2, 2), dtype="<f4")
        path = tmp_path / "v"
        if container == "nifti":
            path.write_bytes(build_nifti(data, datatype=16))
        else:
            save_volume(Volume(data), path)
        with pytest.raises(FormatError):
            load_volume(path, LABEL)

    @pytest.mark.parametrize("container", ["nifti", "frv"])
    def test_negative_labels_rejected(self, tmp_path, container):
        data = np.arange(8, dtype="<i2").reshape(2, 2, 2)
        path = tmp_path / "v"
        if container == "nifti":
            data[0, 0, 0] = -1
            path.write_bytes(build_nifti(data, datatype=4))
        else:
            save_volume(Volume(data, LABEL), path)
            blob = bytearray(path.read_bytes())
            struct.pack_into("<i", blob, 28, -1)  # first voxel, right after the header
            path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-negative"):
            load_volume(path, LABEL)
