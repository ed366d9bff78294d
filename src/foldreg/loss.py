"""Training loss: image dissimilarity plus smoothness and anti-folding terms.

total = (1 - CC) + alpha * R1 + beta * R2

The two CC modes are the rows of ``CC_MODES``. "global" is the Pearson
correlation over the whole volume (image term in [0, 2]); "local", the
default, is the mean squared windowed correlation coefficient with zero-padded
window sums (image term in [0, 1]), the variant used by comparable
registration networks.
R1 is the voxel mean of the squared Frobenius norm of Du. All scalar
reductions accumulate in float64. Each window sum is three BLAS products,
one per axis, with a symmetric 0/1 band matrix.

Training takes the breakdown from ``total_loss``, the image term's gradient
from ``loss_backward`` and the regularizers' gradient on u from
``jacobian.regularizer_grad``. Evaluation takes ``loss_value``: the breakdown
with no gradient, from the CC's forward half and one Du, with the determinant
map of that Du.

``total_loss`` and ``loss_value`` fork their field half, R1 and R2 from Du,
which reads u alone, onto the worker of ``_forkjoin`` and run the CC
meanwhile. Each half keeps its serial order of operations, so the bytes do
not depend on which thread ran it.
``loss_backward`` forks nothing: it is the CC gradient alone, and
``trainer._loss_and_grad`` runs the regularizer gradient beside it.
``_local_cc_with_grad`` drops each array once it is last read (at 32^3 its
peak is 3.44 MB, not 5.27 MB), which makes room for the regularizer
gradient's (3, 3, N) float64 cotangent on the worker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jacobian
from ._forkjoin import fork
from .volume import DisplacementField, Volume

EPS = 1e-5

GLOBAL = "global"
LOCAL = "local"
DEFAULT_WINDOW = 9


@dataclass(frozen=True)
class LossBreakdown:
    image: float
    r1: float
    r2: float
    total: float
    alpha: float
    beta: float


def _check_dims(a: Volume, b: Volume) -> None:
    if a.dims != b.dims:
        raise ValueError(f"dims mismatch: {a.dims} vs {b.dims}")


def _global_cc_terms(x: np.ndarray, y: np.ndarray, w: int | None = None):
    """The forward half of the global CC: (cc, zx, zy, sx, sy, denom), x and y taken in float64."""
    x = x.astype(np.float64, copy=False)
    y = y.astype(np.float64, copy=False)
    zx = x - x.mean()
    zy = y - y.mean()
    sx = np.sqrt((zx * zx).mean())
    sy = np.sqrt((zy * zy).mean())
    cov = (zx * zy).mean()
    denom = (sx + EPS) * (sy + EPS)
    return cov / denom, zx, zy, sx, sy, denom


def _global_cc_with_grad(x: np.ndarray, y: np.ndarray, w: int | None = None):
    cc, zx, zy, sx, sy, denom = _global_cc_terms(x, y)
    n = zx.size
    # d cov / dx_i = zy_i / n; d sx / dx_i = zx_i / (n * sx)
    gx = zy / (n * denom)
    if sx > 0.0:
        gx -= zx * (cc / (n * sx * (sx + EPS)))
    gy = zx / (n * denom)
    if sy > 0.0:
        gy -= zy * (cc / (n * sy * (sy + EPS)))
    return float(cc), gx, gy


def _band_matrices(shape, w: int, dtype) -> tuple[np.ndarray, ...]:
    """The symmetric 0/1 band matrices B[i, j] = |i - j| <= w // 2, one per axis."""
    return tuple((np.abs(i[:, None] - i) <= w // 2).astype(dtype) for i in map(np.arange, shape))


def _box_sum(arr: np.ndarray, bands) -> np.ndarray:
    # zero-padded sum over the w^3 neighborhood of every voxel, a fresh array:
    # one product per axis with that axis's band matrix from _band_matrices
    b0, b1, b2 = bands
    # rebinding out frees each product before the next is allocated
    out = (b0 @ arr.reshape(len(b0), -1)).reshape(arr.shape)
    out = np.matmul(b1, out)
    return out @ b2


def _local_cc_terms(x: np.ndarray, y: np.ndarray, w: int):
    """The forward half of the local CC, x and y taken in float64: six box sums, then cc^2 per voxel.

    Returns (cc, bands, count, sx, sy, cross, var_x, var_y, denom, cc2); the
    value cc is the voxel mean of cc2.
    """
    if w < 1 or w % 2 == 0:
        raise ValueError(f"window size must be odd, got {w}")
    x = x.astype(np.float64, copy=False)
    y = y.astype(np.float64, copy=False)
    # sums are zero-padded; means use the true in-bounds count so constant
    # volumes have exactly zero local variance at the boundary too
    bands = _band_matrices(x.shape, w, x.dtype)
    count = _box_sum(np.ones_like(x), bands)
    sx = _box_sum(x, bands)
    sy = _box_sum(y, bands)
    sxx = _box_sum(x * x, bands)
    syy = _box_sum(y * y, bands)
    sxy = _box_sum(x * y, bands)
    # the box sums are fresh arrays, so the arithmetic below overwrites them
    # and its temporaries in place, keeping each operation's operands and order:
    # cross = sxy - sx * sy / count, var_x = sxx - sx * sx / count, likewise var_y
    tmp = sx * sy
    tmp /= count
    cross = sxy
    cross -= tmp
    np.multiply(sx, sx, out=tmp)
    tmp /= count
    var_x = sxx
    var_x -= tmp
    np.multiply(sy, sy, out=tmp)
    tmp /= count
    var_y = syy
    var_y -= tmp
    denom = var_x * var_y
    denom += EPS
    cc2 = cross * cross
    cc2 /= denom
    return cc2.mean(dtype=np.float64), bands, count, sx, sy, cross, var_x, var_y, denom, cc2


def _local_cc_with_grad(x: np.ndarray, y: np.ndarray, w: int):
    x = x.astype(np.float64, copy=False)
    y = y.astype(np.float64, copy=False)
    n = x.size
    value, bands, count, sx, sy, cross, var_x, var_y, denom, cc2 = _local_cc_terms(x, y, w)
    tmp = np.empty_like(count)

    # g_cross = 2 cross / (denom n), g_var_x = -cc2 var_y / (denom n), likewise g_var_y
    denom_n = np.multiply(denom, n, out=denom)
    g_cross = 2.0 * cross
    g_cross /= denom_n
    neg_cc2 = np.negative(cc2, out=cc2)
    g_var_x = neg_cc2 * var_y
    g_var_x /= denom_n
    g_var_y = np.multiply(neg_cc2, var_x, out=var_y)
    g_var_y /= denom_n
    del cc2, neg_cc2, denom, denom_n, var_x
    # the zero-padded box sum is self-adjoint, so gradients flow through it unchanged:
    # g_sx = box(-g_cross * sy / count - 2 g_var_x * sx / count), likewise g_sy
    neg_g_cross = np.negative(g_cross, out=cross)
    a = neg_g_cross * sy
    a /= count
    np.multiply(2.0, g_var_x, out=tmp)
    tmp *= sx
    tmp /= count
    a -= tmp
    g_sx = _box_sum(a, bands)
    np.multiply(neg_g_cross, sx, out=a)
    a /= count
    np.multiply(2.0, g_var_y, out=tmp)
    tmp *= sy
    tmp /= count
    a -= tmp
    del tmp, count, sx, sy, cross, neg_g_cross
    g_sy = _box_sum(a, bands)
    g_sxy = _box_sum(g_cross, bands)
    g_sxx = _box_sum(g_var_x, bands)
    g_syy = _box_sum(g_var_y, bands)
    # gx = g_sx + g_sxy * y + 2 g_sxx * x, likewise gy
    gx = g_sx
    gx += np.multiply(g_sxy, y, out=a)
    g_sxx *= 2.0
    g_sxx *= x
    gx += g_sxx
    gy = g_sy
    gy += np.multiply(g_sxy, x, out=a)
    g_syy *= 2.0
    g_syy *= y
    gy += g_syy
    return float(value), gx, gy


# cc mode -> (its forward half, which returns the CC first; the CC with its gradients (cc, gx, gy)),
# in the order of the CLI's --cc choices. Each takes (x, y, window); the global CC ignores the window.
CC_MODES = {
    LOCAL: (_local_cc_terms, _local_cc_with_grad),
    GLOBAL: (_global_cc_terms, _global_cc_with_grad),
}


def _cc_value(a: Volume, b: Volume, cc_mode: str, window) -> float:
    """The CC alone, from the mode's forward half: no gradient."""
    _check_dims(a, b)
    return float(CC_MODES[cc_mode][0](a.data, b.data, window)[0])


def global_cc(a: Volume, b: Volume) -> float:
    """Pearson correlation over all voxels, epsilon-stabilized."""
    return _cc_value(a, b, GLOBAL, None)


def local_cc(a: Volume, b: Volume, w: int = DEFAULT_WINDOW) -> float:
    """Mean squared local correlation over w^3 windows, in [0, 1]."""
    return _cc_value(a, b, LOCAL, w)


def _du(u_arr: np.ndarray) -> np.ndarray:
    """Du in float64, a fresh array."""
    return jacobian.jacobian_raw(u_arr).astype(np.float64, copy=False)


def _r1(D: np.ndarray) -> float:
    """R1 from Du in float64; squares D in place."""
    return float(np.square(D, out=D).sum(dtype=np.float64) / D[0, 0].size)


def r1_smoothness(u: DisplacementField) -> float:
    """Voxel mean of the squared Frobenius norm of Du."""
    return _r1(_du(u.data))


def _image_term(s_arr: np.ndarray, t_arr: np.ndarray, cc_mode: str, window: int):
    cc, gs, gt = CC_MODES[cc_mode][1](s_arr, t_arr, window)
    return 1.0 - cc, -gs, -gt


def _regularizers(u_arr: np.ndarray) -> tuple[float, float]:
    """total_loss's field half: R1 from one Du, then R2 from det(I + Du) of a second Du.

    Du is differenced twice, not once, because bench/selftest.py pins 4
    jacobian_raw calls per training step.
    """
    r1 = _r1(_du(u_arr))
    return r1, jacobian.r2_penalty(jacobian.deformation_det(jacobian.jacobian_raw(u_arr)))


def _regularizers_and_det(u_arr: np.ndarray):
    """loss_value's field half from one Du: det(I + Du) in u's dtype, then R1 from Du in float64, then R2."""
    D = jacobian.jacobian_raw(u_arr)
    det = jacobian.deformation_det(D)
    r1 = _r1(D.astype(np.float64, copy=False))
    return r1, jacobian.r2_penalty(det), det


def _check_images(s_warped: Volume, target: Volume, cc_mode: str) -> None:
    _check_dims(s_warped, target)
    if cc_mode not in CC_MODES:
        raise ValueError(f"unknown cc mode {cc_mode!r}")


def _check_pair(s_warped: Volume, target: Volume, u: DisplacementField, cc_mode: str) -> None:
    _check_images(s_warped, target, cc_mode)
    if s_warped.dims != u.dims:
        raise ValueError(f"dims mismatch: image {s_warped.dims} vs field {u.dims}")


def total_loss(
    s_warped: Volume,
    target: Volume,
    u: DisplacementField,
    alpha: float,
    beta: float,
    cc_mode: str = LOCAL,
    window: int = DEFAULT_WINDOW,
) -> LossBreakdown:
    _check_pair(s_warped, target, u, cc_mode)
    join = fork(u.data[0].size, _regularizers, u.data)
    image, _, _ = _image_term(s_warped.data, target.data, cc_mode, window)
    r1, r2 = join()
    total = image + alpha * r1 + beta * r2
    return LossBreakdown(image=image, r1=r1, r2=r2, total=total, alpha=alpha, beta=beta)


def loss_value(
    s_warped: Volume,
    target: Volume,
    u: DisplacementField,
    alpha: float,
    beta: float,
    cc_mode: str = LOCAL,
    window: int = DEFAULT_WINDOW,
) -> tuple[LossBreakdown, np.ndarray]:
    """total_loss's breakdown without any gradient, and det_map(u), from one Du.

    The image term runs the CC's forward half alone: six box sums for the
    local CC, no gx or gy for the global one. Du is differenced once; det(I +
    Du) is taken from it in u's dtype, then R1 from its float64 copy (for a
    float64 field, Du itself, squared in place). Every value has the bytes of
    total_loss and det_map.
    """
    _check_pair(s_warped, target, u, cc_mode)
    join = fork(u.data[0].size, _regularizers_and_det, u.data)
    image = 1.0 - _cc_value(s_warped, target, cc_mode, window)
    r1, r2, det = join()
    total = image + alpha * r1 + beta * r2
    return LossBreakdown(image=image, r1=r1, r2=r2, total=total, alpha=alpha, beta=beta), det


def loss_backward(
    s_warped: Volume,
    target: Volume,
    cc_mode: str = LOCAL,
    window: int = DEFAULT_WINDOW,
) -> np.ndarray:
    """Gradient of the image term w.r.t. the warped image, float64, shape (nx, ny, nz).

    R1 and R2 do not depend on the warped image, so their gradient on u is
    ``jacobian.regularizer_grad``; composing this one with the warp
    (``warp_derivative``) is the caller's job.
    """
    _check_images(s_warped, target, cc_mode)
    return _image_term(s_warped.data, target.data, cc_mode, window)[1]
