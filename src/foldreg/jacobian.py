"""Discrete Jacobian of the deformation x + u(x) and the anti-folding penalty.

The Jacobian of u uses forward differences, falling back to the backward
difference on the last slice of each axis; this stencil is exact on affine
fields. The deformation Jacobian is I + Du, its determinant is expanded per
voxel with 3x3 cofactors, and the penalty is the voxel mean of
0.5 * (|det| - det) = max(-det, 0), which vanishes exactly on
orientation-preserving voxels.

The penalty's gradient is nonzero only at folding voxels: r2_cotangent
returns its cotangent on Du there alone, and jacobian_adjoint scatters a
cotangent on Du back onto u. du_cotangent is the one place the regularizers'
cotangent on Du is formed: it adds R2's folding-voxel cotangent into R1's
2 alpha Du / N. regularizer_grad scatters its result back onto u with one
adjoint; r2_backward is its alpha = 0 case. _cofactor is the one cyclic
cofactor rule, for the determinant and for R2's cotangent alike.
"""

from __future__ import annotations

import numpy as np

from .volume import INTENSITY, DisplacementField, Volume


def _check_extents(dims) -> None:
    if any(n < 2 for n in dims):
        raise ValueError(f"jacobian requires extent >= 2 per axis, got dims {dims}")


# _AXES[a] moves spatial axis a of a (3, nx, ny, nz) array next to the channel axis: np.moveaxis(., a + 1, 1)
_AXES = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))


def jacobian_raw(u: np.ndarray) -> np.ndarray:
    """Du with D[c, a] = forward difference of channel c along axis a."""
    dims = u.shape[1:]
    _check_extents(dims)
    out = np.empty((3, 3) + dims, dtype=u.dtype)
    for a in range(3):
        # views with axis a moved next to the channel axis
        src, dst = u.transpose(_AXES[a]), out[:, a].transpose(_AXES[a])
        np.subtract(src[:, 1:], src[:, :-1], out=dst[:, :-1])
        # backward difference at the high boundary equals the last forward one
        dst[:, -1] = dst[:, -2]
    return out


def jacobian_adjoint(grad: np.ndarray) -> np.ndarray:
    """Adjoint of jacobian_raw: scatter stencil gradients back onto u."""
    out = np.zeros((3,) + grad.shape[2:], dtype=np.result_type(grad.dtype, np.float64))
    for a in range(3):
        g, o = grad[:, a].transpose(_AXES[a]), out.transpose(_AXES[a])
        o[:, 1:] += g[:, :-1]
        o[:, :-1] -= g[:, :-1]
        o[:, -1] += g[:, -1]
        o[:, -2] -= g[:, -1]
    return out


def _cofactor(J, c: int, a: int):
    """d det(J) / d J[c][a]: rows c+1, c+2 by columns a+1, a+2 of J, mod 3, whose cyclic order gives the sign."""
    r1, r2, k1, k2 = (c + 1) % 3, (c + 2) % 3, (a + 1) % 3, (a + 2) % 3
    return J[r1][k1] * J[r2][k2] - J[r1][k2] * J[r2][k1]


def _cofactors(J: np.ndarray) -> np.ndarray:
    """C with C[c, a] = d det(J) / d J[c, a]."""
    C = np.empty_like(J)
    for c, a in np.ndindex(3, 3):
        C[c, a] = _cofactor(J, c, a)
    return C


def deformation_det(D: np.ndarray) -> np.ndarray:
    """det(I + D) per voxel of a Du from jacobian_raw, in D's dtype, leaving D as it is.

    The one place det(I + Du) is formed, by cofactor expansion along the first
    row. Only the diagonal entries 1 + D[c, c] are new arrays.
    """
    J = [[D[c, a] + 1.0 if a == c else D[c, a] for a in range(3)] for c in range(3)]
    # written out, not summed from 0, which would turn a -0.0 det into +0.0
    return J[0][0] * _cofactor(J, 0, 0) + J[0][1] * _cofactor(J, 0, 1) + J[0][2] * _cofactor(J, 0, 2)


def det_map(u: DisplacementField) -> np.ndarray:
    """det(I + Du) at every voxel, shape (nx, ny, nz)."""
    return deformation_det(jacobian_raw(u.data))


def folding_count(det: np.ndarray) -> int:
    """Number of voxels with strictly negative determinant."""
    return int(np.count_nonzero(det < 0))


def r2_penalty(det: np.ndarray) -> float:
    """Voxel mean of 0.5 * (|det| - det); zero iff no negative determinants."""
    return float(np.maximum(-det, 0.0).mean(dtype=np.float64))


def r2_cotangent(u_arr: np.ndarray, upstream: float = 1.0):
    """Cotangent of upstream * r2_penalty on Du, at the folding voxels only.

    Returns (idx, values): the flat indices of the voxels with det < 0 and
    the (3, 3, n_fold) float64 values of upstream * d penalty / d Du there;
    it is zero at every other voxel. Chain: d penalty / d det is -1 / N on
    folding voxels (subgradient 0 at det = 0), and d det / d J is the
    cofactor matrix, of J = I + Du formed at the folding voxels alone. Du is
    freed when this returns, so a caller that then allocates its own
    (3, 3, N) array never holds two.
    """
    D = jacobian_raw(u_arr)
    det = deformation_det(D)
    scale = -upstream / det.size
    folding = det < 0.0
    idx = np.flatnonzero(folding)
    active = folding.ravel()[idx] * scale  # (det < 0) * scale on the folding voxels, in its dtype
    J = np.take(D.reshape(3, 3, -1), idx, axis=2)
    for c in range(3):
        J[c, c] += 1.0
    return idx, _cofactors(J) * active


def du_cotangent(u_arr: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Cotangent on Du of alpha * R1 + beta * R2, float64, shape (3, 3, nx, ny, nz).

    R1 is the voxel mean of |Du|^2 and R2 is r2_penalty. R2's cotangent is
    formed first, at the folding voxels only, and its own Du is freed before
    R1's D = Du is allocated: besides D, only the folding voxels' 3x3
    cotangents are live.
    """
    folds = r2_cotangent(u_arr, beta) if beta != 0.0 else None
    if alpha != 0.0:
        # d (alpha * R1) / d Du = 2 alpha Du / N, formed in D itself
        grad_D = jacobian_raw(u_arr).astype(np.float64, copy=False)
        grad_D *= 2.0 * alpha / u_arr[0].size
    else:
        grad_D = np.zeros((3, 3, *u_arr.shape[1:]))
    if folds is not None:
        idx, values = folds
        grad_D.reshape(3, 3, -1)[:, :, idx] += values
    return grad_D


def regularizer_grad(u_arr: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Gradient of alpha * R1 + beta * R2 w.r.t. u, float64, shape (3, nx, ny, nz).

    Reads u alone: du_cotangent's cotangent on Du, scattered back onto u by
    one jacobian_adjoint.
    """
    return jacobian_adjoint(du_cotangent(u_arr, alpha, beta))


def r2_backward(u: DisplacementField, upstream: float = 1.0) -> np.ndarray:
    """Gradient of upstream * r2_penalty(det_map(u)) w.r.t. u, shape (3, nx, ny, nz)."""
    return regularizer_grad(u.data, 0.0, upstream)


def det_volume(det: np.ndarray) -> Volume:
    """Determinant map as an intensity volume for export."""
    return Volume(det.astype(np.float32), INTENSITY)


def folding_mask(det: np.ndarray) -> Volume:
    """Binary mask of folding voxels (1.0 where det < 0)."""
    return Volume((det < 0.0).astype(np.float32), INTENSITY)
