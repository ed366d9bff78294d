"""Spatial deformation: sample the source at x + u(x).

Trilinear interpolation with clamp-to-edge boundary handling. Coordinates are
voxel-lattice positions; out-of-range sample points are clamped componentwise
to [0, n-1] before interpolation, so every point is valid. At cell faces the
derivative takes the lower-cell one-sided value (i0 = ceil(p) - 1, clipped to
[0, n-2]), a fixed subgradient choice at those measure-zero points.

Corners are gathered through one flat index per point, that of its lower
cell corner in the source's own memory order (C or Fortran, as the loaders
return it; any other layout is copied C-ordered first). The other seven
corners are ``take``s at the same index from the source shifted by a constant
offset: a sum of the axis strides, with offset 0 (and frac 0) on an axis of
length 1.
"""

from __future__ import annotations

import numpy as np

from .volume import INTENSITY, LABEL, DisplacementField, Volume


def identity_grid(dims, dtype=np.float64) -> np.ndarray:
    return np.indices(dims, dtype=dtype)


def _flat(vol: np.ndarray):
    """vol's elements in memory order, a view when it is C- or F-contiguous, and each axis's flat-index step."""
    if not (vol.flags.c_contiguous or vol.flags.f_contiguous):
        vol = np.ascontiguousarray(vol)
    return vol.ravel(order="K"), tuple(s // vol.itemsize for s in vol.strides)


def _cells(coords, dims, strides):
    """Clamp coordinates and pick interpolation cells (lower-cell at faces).

    Returns the flat index of each point's lower corner, the flat offset of
    the upper corner along each axis, and the per-axis fracs.
    """
    flat = np.zeros(coords.shape[1:], dtype=np.intp)
    offsets, fracs = [], []
    for axis, (n, stride) in enumerate(zip(dims, strides)):
        if n == 1:
            offsets.append(0)
            fracs.append(np.zeros_like(coords[axis]))
            continue
        c = np.clip(coords[axis], 0.0, float(n - 1))
        i0 = np.ceil(c).astype(np.intp) - 1
        np.clip(i0, 0, n - 2, out=i0)
        fracs.append(c - i0.astype(c.dtype))  # keep the input float width
        i0 *= stride
        flat += i0
        offsets.append(stride)
    return flat, offsets, fracs


def _gather_corners(v: np.ndarray, flat, offsets):
    """The cell corners c000, c100, c010, c110, c001, c101, c011, c111 of every point, from ``_flat``'s v."""
    ox, oy, oz = offsets
    return tuple(
        np.take(v[a * ox + b * oy + c * oz:], flat)
        for c in (0, 1) for b in (0, 1) for a in (0, 1)
    )


def sample_grid(vol: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of a 3D array at coords of shape (3, ...)."""
    v, strides = _flat(vol)
    flat, offsets, (fx, fy, fz) = _cells(coords, vol.shape, strides)
    c000, c100, c010, c110, c001, c101, c011, c111 = _gather_corners(v, flat, offsets)
    gx = 1.0 - fx
    gy = 1.0 - fy
    gz = 1.0 - fz
    # weights are (x * y) * z products; the four x * y factors are shared
    gxgy, fxgy, gxfy, fxfy = gx * gy, fx * gy, gx * fy, fx * fy
    out = c000 * (gxgy * gz)
    out += c100 * (fxgy * gz)
    out += c010 * (gxfy * gz)
    out += c110 * (fxfy * gz)
    out += c001 * (gxgy * fz)
    out += c101 * (fxgy * fz)
    out += c011 * (gxfy * fz)
    out += c111 * (fxfy * fz)
    return out


def sample_grid_grad(vol: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Derivative of the trilinear interpolant w.r.t. each coordinate.

    Shape (3, ...); zero where the raw coordinate fell outside [0, n-1].
    """
    v, strides = _flat(vol)
    flat, offsets, (fx, fy, fz) = _cells(coords, vol.shape, strides)
    c000, c100, c010, c110, c001, c101, c011, c111 = _gather_corners(v, flat, offsets)
    gx = 1.0 - fx
    gy = 1.0 - fy
    gz = 1.0 - fz
    grad = np.empty((3, *flat.shape), dtype=np.promote_types(vol.dtype, fx.dtype))
    dx, dy, dz = grad
    np.multiply(c100 - c000, gy * gz, out=dx)
    dx += (c110 - c010) * (fy * gz)
    dx += (c101 - c001) * (gy * fz)
    dx += (c111 - c011) * (fy * fz)
    np.multiply(c010 - c000, gx * gz, out=dy)
    dy += (c110 - c100) * (fx * gz)
    dy += (c011 - c001) * (gx * fz)
    dy += (c111 - c101) * (fx * fz)
    np.multiply(c001 - c000, gx * gy, out=dz)
    dz += (c101 - c100) * (fx * gy)
    dz += (c011 - c010) * (gx * fy)
    dz += (c111 - c110) * (fx * fy)
    for axis, n in enumerate(vol.shape):
        grad[axis] *= (coords[axis] >= 0.0) & (coords[axis] <= float(n - 1))
    return grad


def trilinear_sample(src: Volume, p) -> float:
    """Sample an intensity volume at a single point (voxel coordinates)."""
    if src.kind != INTENSITY:
        raise ValueError("trilinear_sample expects an intensity volume")
    p = np.asarray(p, dtype=np.float64).reshape(3, 1)
    return float(sample_grid(src.data, p)[0])


def warp_image(src: Volume, u: DisplacementField) -> Volume:
    """Produce the warped image: warped(x) = src(x + u(x))."""
    if src.kind != INTENSITY:
        raise ValueError("warp_image expects an intensity volume")
    if src.dims != u.dims:
        raise ValueError(f"dims mismatch: source {src.dims} vs field {u.dims}")
    coords = identity_grid(src.dims, dtype=u.data.dtype) + u.data
    return Volume(sample_grid(src.data, coords), INTENSITY)


def warp_labels(lab: Volume, u: DisplacementField) -> Volume:
    """Warp a label mask by nearest-neighbor sampling (round half up)."""
    if lab.kind != LABEL:
        raise ValueError("warp_labels expects a label volume")
    if lab.dims != u.dims:
        raise ValueError(f"dims mismatch: labels {lab.dims} vs field {u.dims}")
    coords = identity_grid(lab.dims, dtype=np.float64) + u.data
    v, strides = _flat(lab.data)
    flat = np.zeros(lab.dims, dtype=np.intp)
    for axis, (n, stride) in enumerate(zip(lab.dims, strides)):
        c = np.clip(coords[axis], 0.0, float(n - 1))
        i = np.floor(c + 0.5).astype(np.intp)
        np.clip(i, 0, n - 1, out=i)
        i *= stride
        flat += i
    return Volume(np.take(v, flat), LABEL)


def warp_derivative(src: Volume, u: DisplacementField) -> np.ndarray:
    """d warped(x) / d u(x) at every voxel: sample_grid_grad at x + u(x), shape (3, ...)."""
    if src.dims != u.dims:
        raise ValueError(f"dims mismatch: source {src.dims} vs field {u.dims}")
    coords = identity_grid(src.dims, dtype=u.data.dtype) + u.data
    return sample_grid_grad(src.data, coords)


def warp_backward(src: Volume, u: DisplacementField, upstream: np.ndarray) -> np.ndarray:
    """Gradient of sum(upstream * warped) with respect to u, shape (3, ...)."""
    derivative = warp_derivative(src, u)
    upstream = np.asarray(upstream)
    if upstream.shape != src.dims:
        raise ValueError(f"upstream shape {upstream.shape} does not match dims {src.dims}")
    return derivative * upstream
