"""3D volume containers and file I/O.

Conventions used throughout the package:

* A volume of dims ``(nx, ny, nz)`` is a numpy array indexed ``data[i, j, k]``
  with ``i`` along x. On disk the linear order is x-fastest (Fortran order),
  matching the NIfTI-1 layout.
* Displacements are stored in voxel units. Channel ``c`` of a field is the
  displacement along axis ``c``.
* Native container "FRV1": 28-byte header (magic ``FRV1``, payload kind u32,
  nx/ny/nz u32, channel count u32, element-type code u32), then the
  channel-major little-endian payload. The layout table ``_FRV_LAYOUTS`` holds
  each kind's codes and dtype; one writer and one reader go through it, and a
  header that is no row of it raises ``FormatError``.
* NIfTI-1 support is read-only: single-file uncompressed ``.nii``,
  little-endian, element kinds uint8/int16/int32/float32/float64. Spatial
  metadata beyond the dims is ignored; images are assumed pre-aligned.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INTENSITY = "intensity"
LABEL = "label"
_FIELD = "displacement"

_MAGIC = b"FRV1"
# kind -> (payload kind code, channel count, element-type code, dtype): the
# FRV1 layouts that are written and the only headers that load
_FRV_LAYOUTS = {
    INTENSITY: (0, 1, 0, np.dtype("<f4")),
    LABEL: (1, 1, 1, np.dtype("<i4")),
    _FIELD: (2, 3, 0, np.dtype("<f4")),
}
_FRV_KINDS = {row[:3]: kind for kind, row in _FRV_LAYOUTS.items()}
_HEADER = struct.Struct("<4sIIIIII")  # 28 bytes
_LABEL_MAX = int(np.iinfo(np.int32).max)

_NIFTI_DTYPES = {
    2: np.dtype("<u1"),
    4: np.dtype("<i2"),
    8: np.dtype("<i4"),
    16: np.dtype("<f4"),
    64: np.dtype("<f8"),
}


class FormatError(ValueError):
    """Malformed or unsupported volume/checkpoint file."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class Volume:
    """A single-channel 3D scalar field, either intensities or a label mask.

    Intensity data is float32 (float64 is accepted for verification work);
    label data is int32 with non-negative values (a wider integer array is
    accepted when every id fits). Instances are immutable.
    """

    data: np.ndarray
    kind: str = INTENSITY

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ValueError(f"volume data must be 3D, got shape {arr.shape}")
        if self.kind == LABEL:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError("label volumes require an integer dtype")
            # checked before the cast, which would wrap an id outside int32
            if arr.size and (arr.min() < 0 or arr.max() > _LABEL_MAX):
                raise ValueError(f"label ids must lie in [0, {_LABEL_MAX}], got {arr.min()}..{arr.max()}")
            arr = arr.astype(np.int32, copy=False)
        elif self.kind == INTENSITY:
            if arr.dtype not in (np.float32, np.float64):
                arr = arr.astype(np.float32)
        else:
            raise ValueError(f"unknown volume kind {self.kind!r}")
        object.__setattr__(self, "data", _readonly(arr))

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(int(n) for n in self.data.shape)


@dataclass(frozen=True)
class DisplacementField:
    """Per-voxel displacement u(x) in voxel units, shape (3, nx, ny, nz).

    The deformed sampling position for voxel x is x + u(x). All components
    must be finite.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 4 or arr.shape[0] != 3:
            raise ValueError(f"field data must have shape (3, nx, ny, nz), got {arr.shape}")
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if not np.isfinite(arr).all():
            raise ValueError("displacement field contains NaN or Inf")
        object.__setattr__(self, "data", _readonly(arr))

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(int(n) for n in self.data.shape[1:])


def zero_field(dims, dtype=np.float32) -> DisplacementField:
    return DisplacementField(np.zeros((3, *dims), dtype=dtype))


def normalize_intensity(v: Volume) -> Volume:
    """Divide by the maximum voxel so the output peaks at exactly 1."""
    if v.kind != INTENSITY:
        raise ValueError("normalize_intensity expects an intensity volume")
    peak = v.data.max()
    if peak <= 0:
        raise ValueError("degenerate intensity range: maximum voxel is not positive")
    return Volume(v.data / peak, INTENSITY)


def center_crop(v: Volume, target) -> Volume:
    """Extract the centered subvolume of the given target dims.

    Per axis the low offset is floor((n - t) / 2); odd remainders trim the
    extra voxel from the high side.
    """
    target = tuple(int(t) for t in target)
    if len(target) != 3:
        raise ValueError("crop target must have 3 components")
    dims = v.dims
    if any(t < 1 or t > n for t, n in zip(target, dims)):
        raise ValueError(f"crop target {target} exceeds volume dims {dims}")
    off = [(n - t) // 2 for n, t in zip(dims, target)]
    sl = tuple(slice(o, o + t) for o, t in zip(off, target))
    return Volume(v.data[sl].copy(), v.kind)


# ---------------------------------------------------------------------------
# FRV1 container


def _write_frv(path, kind: str, data: np.ndarray) -> None:
    """Write ``data`` of shape (channels, nx, ny, nz) as the FRV1 layout of ``kind``."""
    kind_code, channels, elem_code, dtype = _FRV_LAYOUTS[kind]
    if data.dtype.name != dtype.name:
        raise TypeError(f"save requires {dtype.name} {kind} data; cast explicitly")
    header = _HEADER.pack(_MAGIC, kind_code, *data.shape[1:], channels, elem_code)
    # channel-major, x-fastest within each channel
    Path(path).write_bytes(header + np.moveaxis(data.astype(dtype, copy=False), 0, -1).tobytes(order="F"))


def save_volume(v: Volume, path) -> None:
    _write_frv(path, v.kind, v.data[None])


def save_field(u: DisplacementField, path) -> None:
    _write_frv(path, _FIELD, u.data)


def _read_frv(buf: bytes, path):
    """(kind, data): the row of _FRV_LAYOUTS an FRV1 file holds, and its payload as (channels, nx, ny, nz)."""
    if buf[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic (not an FRV1 file)")
    if len(buf) < _HEADER.size:
        raise FormatError(f"{path}: truncated FRV1 header")
    _, kind_code, nx, ny, nz, channels, elem_code = _HEADER.unpack_from(buf)
    if min(nx, ny, nz) < 1:
        raise FormatError(f"{path}: non-positive dims {(nx, ny, nz)}")
    kind = _FRV_KINDS.get((kind_code, channels, elem_code))
    if kind is None:
        raise FormatError(f"{path}: unsupported element kind {elem_code} "
                          f"with payload kind {kind_code} and {channels} channel(s)")
    dtype, count = _FRV_LAYOUTS[kind][3], nx * ny * nz * channels
    expected = _HEADER.size + count * dtype.itemsize
    if len(buf) != expected:
        raise FormatError(f"{path}: payload size mismatch (expected {expected} bytes, got {len(buf)})")
    flat = np.frombuffer(buf, dtype=dtype, count=count, offset=_HEADER.size)
    return kind, np.moveaxis(flat.reshape((nx, ny, nz, channels), order="F"), -1, 0)


def _volume(data: np.ndarray, kind: str, path) -> Volume:
    """A loaded payload as a Volume of ``kind``: a copy, in data's memory order."""
    if kind == LABEL and data.size and data.min() < 0:
        raise FormatError(f"{path}: label volumes must be non-negative")
    return Volume(data.astype(np.int32 if kind == LABEL else np.float32), kind)


def load_volume(path, kind: str | None = None) -> Volume:
    """Load a single-channel FRV1 volume or an uncompressed NIfTI-1 file.

    ``kind`` is the kind the caller expects: an FRV1 file of the other kind
    raises ``FormatError``, and NIfTI data is read as that kind (intensity
    when None; labels need an integer element kind).
    """
    buf = Path(path).read_bytes()
    if buf[:4] != _MAGIC:
        return _load_nifti(buf, path, kind or INTENSITY)
    file_kind, data = _read_frv(buf, path)
    if file_kind == _FIELD:
        raise FormatError(f"{path}: holds a displacement field; use load_field")
    if kind not in (None, file_kind):
        raise FormatError(f"{path}: holds a {file_kind} volume, expected {kind}")
    return _volume(data[0], file_kind, path)


def load_field(path) -> DisplacementField:
    file_kind, data = _read_frv(Path(path).read_bytes(), path)
    if file_kind != _FIELD:
        raise FormatError(f"{path}: not a displacement field")
    try:
        return DisplacementField(np.ascontiguousarray(data))
    except ValueError as exc:  # NaN or Inf components
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Minimal NIfTI-1 reader


def _load_nifti(buf: bytes, path, kind: str) -> Volume:
    if len(buf) < 348:
        raise FormatError(f"{path}: bad magic/header (file shorter than a NIfTI-1 header)")
    sizeof_hdr = struct.unpack_from("<i", buf, 0)[0]
    if sizeof_hdr != 348:
        if sizeof_hdr == 1543569408:  # 348 byte-swapped
            raise FormatError(f"{path}: big-endian NIfTI is unsupported")
        raise FormatError(f"{path}: bad magic/header (sizeof_hdr={sizeof_hdr})")
    magic = buf[344:348]
    if magic == b"ni1\x00":
        raise FormatError(f"{path}: two-file NIfTI (.hdr/.img) is unsupported")
    if magic != b"n+1\x00":
        raise FormatError(f"{path}: bad magic/header (magic={magic!r})")
    dim = struct.unpack_from("<8h", buf, 40)
    ndim = dim[0]
    if not 1 <= ndim <= 7:
        raise FormatError(f"{path}: bad magic/header (dim[0]={ndim})")
    extents = [int(d) for d in dim[1:1 + ndim]] + [1, 1]  # those beyond dim[0] are 1
    if min(extents) < 1:
        raise FormatError(f"{path}: non-positive extent (dim={dim[:1 + ndim]})")
    if any(d > 1 for d in extents[3:]):
        raise FormatError(f"{path}: only scalar 3D volumes are supported (dim={dim[:1 + ndim]})")
    shape = extents[:3]
    datatype = struct.unpack_from("<h", buf, 70)[0]
    if datatype not in _NIFTI_DTYPES:
        raise FormatError(f"{path}: unsupported element kind (datatype={datatype})")
    dtype = _NIFTI_DTYPES[datatype]
    vox_offset = struct.unpack_from("<f", buf, 108)[0]
    if not 348 <= vox_offset < np.inf:  # NaN fails both comparisons
        raise FormatError(f"{path}: bad magic/header (vox_offset={vox_offset})")
    vox_offset = int(vox_offset)
    count = shape[0] * shape[1] * shape[2]
    if len(buf) < vox_offset + count * dtype.itemsize:
        raise FormatError(f"{path}: payload size mismatch")
    if kind == LABEL and not np.issubdtype(dtype, np.integer):
        raise FormatError(f"{path}: label load requires an integer element kind")
    flat = np.frombuffer(buf, dtype=dtype, count=count, offset=vox_offset)
    return _volume(flat.reshape(shape, order="F"), kind, path)
