"""Discrete Jacobian of the deformation x + u(x) and the anti-folding penalty.

The Jacobian of u uses forward differences, falling back to the backward
difference on the last slice of each axis; this stencil is exact on affine
fields. The deformation Jacobian is I + Du, its determinant is expanded per
voxel with 3x3 cofactors, and the penalty is the voxel mean of
0.5 * (|det| - det) = max(-det, 0), which vanishes exactly on
orientation-preserving voxels.

The penalty's gradient is nonzero only at folding voxels: r2_cotangent
returns its cotangent on Du there alone, and jacobian_adjoint scatters a
cotangent on Du back onto u. loss_backward adds R2's cotangent into R1's
and runs that adjoint once for both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import INTENSITY, DisplacementField, Volume


@dataclass(frozen=True)
class DetMap:
    """Per-voxel determinant of the deformation Jacobian."""

    values: np.ndarray

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(int(n) for n in self.values.shape)


def _check_extents(dims) -> None:
    if any(n < 2 for n in dims):
        raise ValueError(f"jacobian requires extent >= 2 per axis, got dims {dims}")


def jacobian_raw(u: np.ndarray) -> np.ndarray:
    """Du with D[c, a] = forward difference of channel c along axis a."""
    dims = u.shape[1:]
    _check_extents(dims)
    out = np.empty((3, 3) + dims, dtype=u.dtype)
    for a in range(3):
        # views with axis a moved next to the channel axis
        src, dst = np.moveaxis(u, a + 1, 1), np.moveaxis(out[:, a], a + 1, 1)
        np.subtract(src[:, 1:], src[:, :-1], out=dst[:, :-1])
        # backward difference at the high boundary equals the last forward one
        dst[:, -1] = dst[:, -2]
    return out


def jacobian_adjoint(grad: np.ndarray) -> np.ndarray:
    """Adjoint of jacobian_raw: scatter stencil gradients back onto u."""
    out = np.zeros((3,) + grad.shape[2:], dtype=np.result_type(grad.dtype, np.float64))
    for a in range(3):
        g, o = np.moveaxis(grad[:, a], a + 1, 1), np.moveaxis(out, a + 1, 1)
        o[:, 1:] += g[:, :-1]
        o[:, :-1] -= g[:, :-1]
        o[:, -1] += g[:, -1]
        o[:, -2] -= g[:, -1]
    return out


def displacement_jacobian(u: DisplacementField) -> np.ndarray:
    """Per-voxel 3x3 matrix field Du, shape (3, 3, nx, ny, nz)."""
    return jacobian_raw(u.data)


def _det3(J) -> np.ndarray:
    """det per voxel of J, a (3, 3, ...) array or a 3 x 3 nested sequence of arrays."""
    return (
        J[0][0] * (J[1][1] * J[2][2] - J[1][2] * J[2][1])
        - J[0][1] * (J[1][0] * J[2][2] - J[1][2] * J[2][0])
        + J[0][2] * (J[1][0] * J[2][1] - J[1][1] * J[2][0])
    )


def _cofactors(J: np.ndarray) -> np.ndarray:
    """C with C[c, a] = d det(J) / d J[c, a]."""
    C = np.empty_like(J)
    C[0, 0] = J[1, 1] * J[2, 2] - J[1, 2] * J[2, 1]
    C[0, 1] = J[1, 2] * J[2, 0] - J[1, 0] * J[2, 2]
    C[0, 2] = J[1, 0] * J[2, 1] - J[1, 1] * J[2, 0]
    C[1, 0] = J[0, 2] * J[2, 1] - J[0, 1] * J[2, 2]
    C[1, 1] = J[0, 0] * J[2, 2] - J[0, 2] * J[2, 0]
    C[1, 2] = J[0, 1] * J[2, 0] - J[0, 0] * J[2, 1]
    C[2, 0] = J[0, 1] * J[1, 2] - J[0, 2] * J[1, 1]
    C[2, 1] = J[0, 2] * J[1, 0] - J[0, 0] * J[1, 2]
    C[2, 2] = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    return C


def _deformation_jacobian(u_arr: np.ndarray) -> np.ndarray:
    J = jacobian_raw(u_arr)
    for d in range(3):
        J[d, d] += 1.0
    return J


def det_map(u: DisplacementField) -> DetMap:
    """det(I + Du) at every voxel."""
    return DetMap(_det3(_deformation_jacobian(u.data)))


def deformation_det(D: np.ndarray) -> DetMap:
    """det(I + D) of a Du from jacobian_raw, leaving D as it is: det_map's values.

    Only the diagonal entries 1 + D[c, c] are new arrays, in D's dtype.
    """
    return DetMap(_det3([[D[c, a] + 1.0 if a == c else D[c, a] for a in range(3)] for c in range(3)]))


def folding_count(d: DetMap) -> int:
    """Number of voxels with strictly negative determinant."""
    return int(np.count_nonzero(d.values < 0))


def r2_penalty(d: DetMap) -> float:
    """Voxel mean of 0.5 * (|det| - det); zero iff no negative determinants."""
    det = d.values
    return float(np.maximum(-det, 0.0).mean(dtype=np.float64))


def r2_cotangent(u_arr: np.ndarray, upstream: float = 1.0):
    """Cotangent of upstream * r2_penalty on Du, at the folding voxels only.

    Returns (idx, values): the flat indices of the voxels with det < 0 and
    the (3, 3, n_fold) float64 values of upstream * d penalty / d Du there;
    it is zero at every other voxel. Chain: d penalty / d det is -1 / N on
    folding voxels (subgradient 0 at det = 0), and d det / d J is the
    cofactor matrix. J is freed when this returns, so a caller that then
    allocates its own (3, 3, N) array never holds two.
    """
    J = _deformation_jacobian(u_arr)
    det = _det3(J)
    scale = -upstream / det.size
    folding = det < 0.0
    idx = np.flatnonzero(folding)
    active = folding.ravel()[idx] * scale  # (det < 0) * scale on the folding voxels, in its dtype
    return idx, _cofactors(np.take(J.reshape(3, 3, -1), idx, axis=2)) * active


def r2_backward(u: DisplacementField, upstream: float = 1.0) -> np.ndarray:
    """Gradient of r2_penalty(det_map(u)) w.r.t. u, shape (3, nx, ny, nz).

    The cotangent of r2_cotangent, zero off the folding voxels, scattered
    back onto u by the difference stencil's adjoint.
    """
    idx, values = r2_cotangent(u.data, upstream)
    # elsewhere cofactor * 0 would be a signed zero, which the adjoint's +0
    # accumulators absorb, so plain zeros give the same bytes
    grad_J = np.zeros((3, 3, *u.dims), dtype=values.dtype)
    grad_J.reshape(3, 3, -1)[:, :, idx] = values
    return jacobian_adjoint(grad_J)


def det_volume(d: DetMap) -> Volume:
    """Determinant map as an intensity volume for export."""
    return Volume(d.values.astype(np.float32), INTENSITY)


def folding_mask(d: DetMap) -> Volume:
    """Binary mask of folding voxels (1.0 where det < 0)."""
    return Volume((d.values < 0.0).astype(np.float32), INTENSITY)
