"""Training loss: image dissimilarity plus smoothness and anti-folding terms.

total = (1 - CC) + alpha * R1 + beta * R2

Two CC modes are provided. "global" is the Pearson correlation over the whole
volume (image term in [0, 2]); "local" is the mean squared windowed
correlation coefficient with zero-padded window sums (image term in [0, 1]),
the variant used by comparable registration networks, and the default.
R1 is the voxel mean of the squared Frobenius norm of Du. All scalar
reductions accumulate in float64. Each window sum is three BLAS products,
one per axis, with a symmetric 0/1 band matrix.

Training takes the breakdown from ``total_loss`` and the gradients from
``loss_backward``, whose R1 and R2 part is ``jacobian.du_cotangent``
scattered back onto u. Evaluation takes ``loss_value``: the breakdown with
no gradient, from the CC's forward half and one Du, with the determinant map
of that Du.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jacobian
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


def _global_cc_terms(x: np.ndarray, y: np.ndarray):
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


def _global_cc(x: np.ndarray, y: np.ndarray) -> float:
    return float(_global_cc_terms(x, y)[0])


def _global_cc_with_grad(x: np.ndarray, y: np.ndarray):
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


def global_cc(a: Volume, b: Volume) -> float:
    """Pearson correlation over all voxels, epsilon-stabilized."""
    _check_dims(a, b)
    return _global_cc(a.data, b.data)


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
    """The forward half of the local CC, x and y in float64: six box sums, then cc^2 per voxel.

    Returns (bands, count, sx, sy, cross, var_x, var_y, denom, cc2); the
    value is the voxel mean of cc2.
    """
    if w < 1 or w % 2 == 0:
        raise ValueError(f"window size must be odd, got {w}")
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
    return bands, count, sx, sy, cross, var_x, var_y, denom, cc2


def _local_cc(x: np.ndarray, y: np.ndarray, w: int) -> float:
    x = x.astype(np.float64, copy=False)
    y = y.astype(np.float64, copy=False)
    return float(_local_cc_terms(x, y, w)[-1].mean(dtype=np.float64))


def _local_cc_with_grad(x: np.ndarray, y: np.ndarray, w: int):
    x = x.astype(np.float64, copy=False)
    y = y.astype(np.float64, copy=False)
    n = x.size
    bands, count, sx, sy, cross, var_x, var_y, denom, cc2 = _local_cc_terms(x, y, w)
    value = float(cc2.mean(dtype=np.float64))
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
    return value, gx, gy


def local_cc(a: Volume, b: Volume, w: int = DEFAULT_WINDOW) -> float:
    """Mean squared local correlation over w^3 windows, in [0, 1]."""
    _check_dims(a, b)
    return _local_cc(a.data, b.data, w)


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
    if cc_mode == GLOBAL:
        cc, gs, gt = _global_cc_with_grad(s_arr, t_arr)
    elif cc_mode == LOCAL:
        cc, gs, gt = _local_cc_with_grad(s_arr, t_arr, window)
    else:
        raise ValueError(f"unknown cc mode {cc_mode!r}")
    return 1.0 - cc, -gs, -gt


def _image_value(s_arr: np.ndarray, t_arr: np.ndarray, cc_mode: str, window: int) -> float:
    """_image_term's value alone: the CC's forward half, no gradient."""
    if cc_mode == GLOBAL:
        cc = _global_cc(s_arr, t_arr)
    elif cc_mode == LOCAL:
        cc = _local_cc(s_arr, t_arr, window)
    else:
        raise ValueError(f"unknown cc mode {cc_mode!r}")
    return 1.0 - cc


def _check_pair(s_warped: Volume, target: Volume, u: DisplacementField) -> None:
    _check_dims(s_warped, target)
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
    _check_pair(s_warped, target, u)
    image, _, _ = _image_term(s_warped.data, target.data, cc_mode, window)
    r1 = _r1(_du(u.data))
    r2 = jacobian.r2_penalty(jacobian.det_map(u))
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
    _check_pair(s_warped, target, u)
    image = _image_value(s_warped.data, target.data, cc_mode, window)
    D = jacobian.jacobian_raw(u.data)
    det = jacobian.deformation_det(D)
    r1 = _r1(D.astype(np.float64, copy=False))
    r2 = jacobian.r2_penalty(det)
    total = image + alpha * r1 + beta * r2
    return LossBreakdown(image=image, r1=r1, r2=r2, total=total, alpha=alpha, beta=beta), det


def loss_backward(
    s_warped: Volume,
    target: Volume,
    u: DisplacementField,
    alpha: float,
    beta: float,
    cc_mode: str = LOCAL,
    window: int = DEFAULT_WINDOW,
):
    """Gradients of the total loss w.r.t. the warped image and the field.

    Returns (grad_s, grad_u). The image term only touches grad_s; composing
    with the warp (warp_backward) is the caller's job. R1 and R2 both act
    through Du: jacobian.du_cotangent forms their summed cotangent on Du, and
    one jacobian_adjoint scatters it back onto u.
    """
    _check_pair(s_warped, target, u)
    _, grad_s, _ = _image_term(s_warped.data, target.data, cc_mode, window)
    return grad_s, jacobian.jacobian_adjoint(jacobian.du_cotangent(u.data, alpha, beta))
