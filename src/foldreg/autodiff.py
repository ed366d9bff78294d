"""Minimal reverse-mode differentiation over channels-first 4D tensors.

Exactly the operations the registration network needs: 3D convolution
(cross-correlation, zero padding), transposed convolution, PReLU, elementwise
add and channel concatenation; a scalar test loss is built outside this
module. Graphs are built define-by-run and traversed once, in reverse
topological order, by ``backward``.

Each tensor carries ``requires_grad``. Leaves default to True; pass False for
inputs whose gradient nothing reads, such as the stacked source/target
volumes. An op's output requires a gradient iff one of its parents does, and
``backward`` visits and runs backward closures only for those nodes, so no
work is spent on the input gradient of a frozen input.

Tape-free rule: an op output that needs no gradient keeps no parents and no
closure. A forward pass on frozen parameters and a frozen input therefore
records no tape, and each activation is freed once its last reader is done.

Gradient lifetime: ``backward`` allocates no buffer up front. A node's first
gradient contribution becomes its ``.grad``, always a C-contiguous array in
the node's gradient dtype (see Dtypes): a fresh closure result of that dtype
is adopted as it is, and so is the gradient that ``add`` hands over to its
last operand that needs one, since the add node drops it next. Any other
first contribution, such as one that aliases another buffer (``add``'s to its
first operand, ``concat_channels``'s slices, a broadcast view), is copied.
``backward`` hands an interior root the caller's seed read-only, so no
operand adopts it and nothing writes it.
Later contributions are added into it. An interior node's gradient is
dropped (set to None) as soon as its own closure has run; leaves keep theirs.

Convolution kernels. ``conv_kernel`` is the one rule that picks how a
convolution runs, fixed in code:

* a stride-1 "same" convolution (2 * padding == k - 1) with k >= 5 runs as
  in-plane FFTs: each depth plane is transformed over (H, W) only
  (``scipy.fft`` on ``next_fast_len`` extents, one worker, so repeated runs
  give the same bytes), and per in-plane frequency one complex GEMM of the
  (Cout, Cin * k) tap-plane spectra with the (Cin * k, D) block of the k depth
  shifts sums the channels and the depth taps; the weight gradient is the
  same GEMM on the conjugate spectrum of the upstream gradient, inverted only
  along the lines read at the k in-plane lags. A kernel is transformed as
  its Cout * Cin * k tap planes, in 2D;
* any other stride-1 same convolution runs as shifted-row GEMMs: one copy of
  the k shifts of the flattened, padded input, then one matmul per (i, j) tap
  pair on a flat-offset view of it, several pairs per matmul when the output
  has few channels (k = 1 is a single matmul with no copy). When one tap's
  output has more rows than the shifted rows (Cin * k < Cout), the output is
  computed in column tiles whose tap outputs, accumulator and row slice fit a
  fixed cache budget, the taps added in the same order;
* a strided or size-changing convolution runs as GEMMs on a column matrix
  (im2col): copies of the padded input's window view, Cin * k^3 rows. A
  layer's forward pass builds and multiplies it in tiles of whole output
  depth planes that fit the same cache budget, with one GEMM's bytes; the
  gradients read the whole matrix.

Each kernel gives three functions: a layer's forward pass, its input gradient
and its weight gradient. The input gradient of a stride-1 same convolution is
the same convolution of the upstream gradient with the flipped,
channel-swapped kernel; that of the window kernel is col2im: one batched
matmul gives every tap's column block, added in tap order into its strided
positions on the padded domain, with no zero-dilated upstream gradient.

A transposed convolution is the adjoint of the convolution with the same
kernel, stride and padding, and one node builder wires both from the same
three functions: the transposed convolution's forward pass is the
convolution's input gradient, its input gradient is the convolution's forward
pass, and its weight gradient is the convolution's with the operands swapped.
Both of its gradients then read the windows of the upstream gradient, and the
window kernel builds that column matrix once for the two.

PReLU is min(x, 0) * a + max(x, 0), with no select on the sign; its backward
pass recomputes the sign from the input it keeps anyway and holds no mask.

A layer-table row (``model.faim_layers``) is one node: ``conv3d`` and
``conv3d_transpose`` take the row's PReLU ``slopes`` and ``skip``, which joins
before the activation of a transposed convolution and after that of a
convolution. The bias, the skip and the PReLU run in place on the fresh
convolution result, or copy a cropped one into the row's output, as
max(z, 0) + min(z, 0) * a, which gives the bytes of ``prelu`` since IEEE
addition commutes. A row whose output needs a gradient
keeps its pre-activation z, and its closure takes the chain's backward steps
in the chain's order, with the same bytes; ``prelu`` and ``add`` remain as the
oracle of that chain.

A row's forward pass runs in two halves along its output channels. The
caller runs every BLAS call of the kernel (for the FFT kernel the kernel
spectrum, the depth block and the per-frequency GEMMs, for all channels)
and allocates the one C-contiguous output. Then the caller takes the first
half of the channels and the worker of ``_forkjoin`` the second: each runs
its channels' inverse FFTs, the crop copy of a padded kernel result, and the
epilogue, through ``_forkjoin.fork``'s rule (at least ``GRAIN`` output voxels,
two usable CPUs), else the caller runs both halves in turn. Each channel's
operations are the same either way, so are the bytes. The backward pass
runs on the caller.

Dtypes: a forward pass returns the common dtype of its operands, so a
float32 network stays float32. Every kernel computes in that precision. The
FFT kernel transforms float32 operands into complex64 spectra and runs
complex64 GEMMs; any other operands, mixed float32 and float64 among them,
transform in float64 with complex128 spectra. A float32 transform's error
scales with the largest output of the layer, not with each output: on the
branch convolutions it stays within 1e-6 of the largest output (measured at
most 3.4e-7, against 4.7e-7 for the float32 shifted-row kernel on the same
convolutions). An interior node's gradient takes the dtype of its data, so a
float32 network also backpropagates in float32, through the same kernels,
and no operand is promoted. A leaf's gradient is float64: the parameters'
gradients, which clipping and the optimizer read, are accumulated in float64
from the working precision contributions. A float64 network runs the same
code in float64 throughout.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft

from ._forkjoin import fork


class Tensor:
    """A graph node: a value plus the closure that propagates its gradient."""

    __slots__ = ("data", "grad", "parents", "backward_fn", "name", "op", "requires_grad")

    def __init__(self, data, name="", parents=(), backward_fn=None, op="leaf", requires_grad=True):
        parents = tuple(parents)
        self.data = np.asarray(data)
        self.grad = None
        self.name = name
        self.op = op
        # the flag is the caller's for a leaf; an op output needs a gradient iff a parent does
        self.requires_grad = any(p.requires_grad for p in parents) if parents else requires_grad
        # an output that needs no gradient keeps no tape, so its inputs are freed after their last reader
        self.parents = parents if self.requires_grad else ()
        self.backward_fn = backward_fn if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, name={self.name!r})"


def _pad_spatial(x: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return x
    xp = np.zeros((x.shape[0], *(n + 2 * p for n in x.shape[1:])), dtype=x.dtype)
    xp[:, p:-p, p:-p, p:-p] = x
    return xp


def _columns(x: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """The C-contiguous im2col array (Cin, k, k, k, *out): [c, i, j, l, r] = pad(x)[c, r * stride + (i, j, l)]."""
    win = sliding_window_view(_pad_spatial(x, padding), (k, k, k), axis=(1, 2, 3))[:, ::stride, ::stride, ::stride]
    return np.ascontiguousarray(win.transpose(0, 4, 5, 6, 1, 2, 3))


def _conv_raw(cols: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cross-correlation with w (Cout, Cin, k, k, k) of the input whose ``_columns`` are ``cols``: one GEMM."""
    return np.tensordot(w, cols, axes=4)


_TILE_BYTES = 1 << 20  # working set of one column tile of a shifted-row or window convolution


def _depth_tiles(od: int, plane: int, rows: int, cout: int, itemsize: int) -> list[tuple[int, int]]:
    """The (d0, d1) output depth-plane ranges of ``_window_conv``'s tiles; the last takes the rest.

    A tile's columns (``rows`` by ``plane`` per depth plane) fit
    ``_TILE_BYTES``. So that OpenBLAS multiplies each tile with the kernels of
    the whole product, and the bytes are one GEMM's, a tile is also at least
    256 columns and 2^20 multiply-adds, and a multiple of 16 columns wide:
    narrower tiles, or ones whose width left a remainder, rounded apart in a
    scan of shapes.
    """
    n = max(_TILE_BYTES // (rows * plane * itemsize), -(-max(256, (1 << 20) // (cout * rows)) // plane))
    step = 16 // math.gcd(plane, 16)
    n = -(-n // step) * step
    starts = range(0, max(od - n, 0) + 1, n)
    return [(d0, od if d0 == starts[-1] else d0 + n) for d0 in starts]


def _window_conv(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """``_conv_raw(_columns(x, k, stride, padding), w)``, its column matrix built and multiplied in ``_depth_tiles``."""
    cout, cin, k = w.shape[:3]
    win = sliding_window_view(_pad_spatial(x, padding), (k, k, k), axis=(1, 2, 3))[:, ::stride, ::stride, ::stride]
    rows = cin * k ** 3
    wm = w.reshape(cout, rows)
    y = np.empty((cout, *win.shape[1:4]), dtype=np.result_type(x, w))
    for d0, d1 in _depth_tiles(win.shape[1], win.shape[2] * win.shape[3], rows, cout, x.itemsize):
        cols = np.ascontiguousarray(win[:, d0:d1].transpose(0, 4, 5, 6, 1, 2, 3))
        np.matmul(wm, cols.reshape(rows, -1), out=y[:, d0:d1].reshape(cout, -1))
    return y


def _scatter(g: np.ndarray, w: np.ndarray, stride: int, padding: int, out_sp) -> np.ndarray:
    """Adjoint of _conv_raw: g (A, ...) with w (A, B, k, k, k) onto the B-channel extents ``out_sp``.

    One batched matmul of the per-tap matrices ``w[:, :, i, j, l].T`` with g
    gives every tap's column block; col2im adds them in tap order into the
    padded-domain positions ``r * stride + (i, j, l)``, read from ``padding``
    on; positions that no tap reached are zero. When k equals the stride the
    taps tile the domain, each position written by exactly one tap, so there
    is no zero fill: each tap is added to 0.0 on its way into place, which
    gives the bytes of a sum into zeros.
    """
    a, b, k = w.shape[0], w.shape[1], w.shape[2]
    sp = g.shape[1:]
    tiled = k == stride
    shape = (b,) + tuple((n - 1) * stride + k for n in sp)
    y = (np.empty if tiled else np.zeros)(shape, dtype=np.result_type(g, w))
    cols = np.matmul(w.transpose(2, 3, 4, 1, 0), g.reshape(a, -1)).reshape(k, k, k, b, *sp)
    span = [(n - 1) * stride + 1 for n in sp]
    for i, j, l in itertools.product(range(k), repeat=3):
        out = y[:, i:i + span[0]:stride, j:j + span[1]:stride, l:l + span[2]:stride]
        np.add(0.0 if tiled else out, cols[i, j, l], out=out)
    if padding == 0 and shape[1:] == tuple(out_sp):
        return y
    out = np.zeros((b, *out_sp), dtype=y.dtype)
    hi = [min(m, padding + n) for m, n in zip(shape[1:], out_sp)]
    out[(slice(None), *(slice(0, h - padding) for h in hi))] = y[(slice(None), *(slice(padding, h) for h in hi))]
    return out


def _weight_grad(top: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """grad[i, j, taps] = sum_t top[i, t] * pad(bottom)[j, t*stride + taps], ``cols`` being bottom's ``_columns``."""
    return (top.reshape(len(top), -1) @ cols.reshape(-1, top[0].size).T).reshape(len(top), *cols.shape[:4])


def conv_kernel(k: int, stride: int, padding: int) -> str:
    """The kernel ``conv3d`` runs: "fft", "rows" or "window" (module docstring)."""
    if stride != 1 or 2 * padding != k - 1:
        return "window"
    return "fft" if k >= 5 else "rows"


def _flip(w: np.ndarray) -> np.ndarray:
    """The kernel whose same convolution is the input gradient of w's: (Cin, Cout) swapped, taps reversed."""
    return w.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1]


def _fft_shape(sp, k: int) -> tuple[int, ...]:
    """In-plane transform extents: n + (k - 1) // 2 per axis is enough that no wrap-around reaches a read value."""
    return tuple(fft.next_fast_len(max(n + (k - 1) // 2, k), real=True) for n in sp)


def _fft_real(a: np.ndarray, b: np.ndarray):
    """The real dtype the FFT kernel transforms in: float32 if the operands' result is, float64 otherwise."""
    return np.float32 if np.result_type(a, b) == np.float32 else np.float64


def _depth_block(x: np.ndarray, k: int, s) -> np.ndarray:
    """The (F, Cin * k, D) block whose row c * k + a holds, per in-plane frequency, channel c's plane d + a - p.

    Each depth plane of x is transformed over (H, W) on the extents s, one
    rfftn into a buffer with p zero planes on each side of the depth axis;
    F = s1 * (s2 // 2 + 1) frequencies. The k depth windows are copied once.
    The spectra take x's precision: complex64 for float32, complex128 for
    float64.
    """
    c, d = x.shape[:2]
    p = (k - 1) // 2
    buf = np.zeros((c, d + 2 * p, s[0], s[1] // 2 + 1), dtype=np.result_type(x, np.complex64))
    buf[:, p:p + d] = fft.rfftn(x, s, axes=(2, 3), workers=1)
    buf = buf.reshape(c, d + 2 * p, -1)
    rows = np.empty((buf.shape[2], c, k, d), dtype=buf.dtype)
    rows[...] = sliding_window_view(buf, k, axis=1).transpose(2, 0, 3, 1)
    return rows.reshape(buf.shape[2], c * k, d)


def _plane_parts(x: np.ndarray, w: np.ndarray):
    """Same cross-correlation of x (Cin, ...) with w (Cout, Cin, k, k, k) as in-plane FFTs, in two phases.

    Per in-plane frequency, one GEMM of the tap planes' spectra (Cout, Cin * k)
    with the depth block (Cin * k, D) sums the channels and depth taps; the
    in-plane part is the linear convolution with the reversed taps, read at
    offset (k - 1) // 2. The GEMMs run here; the inverse transforms run per
    channel range, in ``part(c0, c1)``, which returns the result's channels
    c0 to c1 as a cropped view. Returns (None, part): no whole result exists.
    """
    cout, cin, k = w.shape[:3]
    p, (d, h, wd) = (k - 1) // 2, x.shape[1:]
    s, rt = _fft_shape((h, wd), k), _fft_real(x, w)
    a = fft.rfft(w[:, :, :, ::-1, ::-1].astype(rt, copy=False), s[1], axis=-1, workers=1)
    a = fft.fft(a, s[0], axis=-2, workers=1).reshape(cout, cin * k, -1)
    y = np.ascontiguousarray(a.transpose(2, 0, 1)) @ _depth_block(x.astype(rt, copy=False), k, s)
    y = y.transpose(1, 2, 0).reshape(cout, d, s[0], -1)
    dt = np.result_type(x, w)

    def part(c0, c1):
        out = fft.irfftn(y[c0:c1], s, axes=(2, 3), workers=1)
        return out[:, :, p:p + h, p:p + wd].astype(dt, copy=False)

    return None, part


def _plane_conv(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``_plane_parts`` whole."""
    return _plane_parts(x, w)[1](0, len(w))


def _plane_weight_grad(g: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """grad[o, c, taps] = sum_t g[o, t] * x[c, t + taps - p], as conj(G) @ the depth block per frequency.

    The in-plane circular correlations are read at the lags -p..p, inverting
    only the lines read.
    """
    cout, cin, d = g.shape[0], x.shape[0], g.shape[1]
    s, rt = _fft_shape(x.shape[2:], k), _fft_real(g, x)
    gf = fft.rfftn(g.astype(rt, copy=False), s, axes=(2, 3), workers=1).reshape(cout, d, -1)
    gc = np.empty((gf.shape[2], cout, d), dtype=gf.dtype)
    np.conjugate(gf.transpose(2, 0, 1), out=gc)
    c = gc @ _depth_block(x.astype(rt, copy=False), k, s).transpose(0, 2, 1)
    i1, i2 = ((np.arange(k) - (k - 1) // 2) % n for n in s)
    c = fft.ifft(c.reshape(s[0], -1, cout * cin * k), axis=0, workers=1)[i1]
    c = fft.irfft(c, s[1], axis=1, workers=1)[:, i2]
    return c.reshape(k, k, cout, cin, k).transpose(2, 3, 4, 0, 1)


def _shifted_rows(x: np.ndarray, k: int, dtype):
    """x zero-padded by (k - 1) // 2 and flattened, with its k shifts stacked as rows, in ``dtype``.

    Returns the (Cin * k, P - k + 1) block, row c * k + l holding the flat
    padded channel c from offset l, and the padded extents. The tap (i, j, l)
    of the output at flat position q then reads row c * k + l at column
    q + (i * Hp + j) * Wp. The one copy also promotes.
    """
    xp = _pad_spatial(x, (k - 1) // 2)
    flat = xp.reshape(x.shape[0], -1)
    n = flat.shape[1] - k + 1
    rows = np.empty((x.shape[0], k, n), dtype=dtype)
    rows[...] = sliding_window_view(flat, n, axis=1)
    return rows.reshape(-1, n), xp.shape[1:]


def _row_taps(sp, padded, k: int, cin: int, cout: int):
    """The flat offsets of the k^2 (i, j) taps, the number q of output columns, and the tap groups.

    Output position (d, h, w) sits at flat column (d * Hp + h) * Wp + w; the
    columns with h >= H or w >= W are computed and dropped. The taps of a
    group share one GEMM, as many as keep its (taps * Cout)-row operand no
    taller than the Cin * k shifted rows, so a thin output (the head) reads
    the rows once and a wide one allocates no more than the rows.
    """
    _, hp, wp = padded
    q = ((sp[0] - 1) * hp + sp[1] - 1) * wp + sp[2]
    offs = [(i * hp + j) * wp for i in range(k) for j in range(k)]
    n = min(k * k, max(1, cin * k // cout))
    return offs, q, [range(t, min(t + n, k * k)) for t in range(0, k * k, n)]


def _rows_conv(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Same cross-correlation of x (Cin, ...) with w (Cout, Cin, k, k, k) as GEMMs on shifted rows."""
    cout, cin, k = w.shape[:3]
    dt = np.result_type(x, w)
    sp = x.shape[1:]
    if k == 1:
        return (w.reshape(cout, cin).astype(dt, copy=False) @ x.reshape(cin, -1)).reshape(cout, *sp)
    rows, padded = _shifted_rows(x, k, dt)
    offs, q, groups = _row_taps(sp, padded, k, cin, cout)
    wt = w.transpose(2, 3, 0, 1, 4).reshape(k * k * cout, cin * k).astype(dt, copy=False)  # row (i * k + j) * Cout + o
    y = np.empty((cout, sp[0] * padded[1] * padded[2]), dtype=dt)  # columns from q on are cropped unread
    # a thin input (one tap's output taller than the rows) runs in power-of-two column tiles
    # whose tap output, accumulator and row slice stay in cache, the last taking the rest, so
    # none is narrow (a 1-column product runs as a GEMV): the taps add in the same order and
    # float32 gives one tile's bytes. In float64 OpenBLAS's small-matrix kernel may round the
    # last few columns of a 16- or 32-row tile product apart from the one-tile product
    width = q if cin * k >= cout else max(1, _TILE_BYTES // ((2 * cout + cin * k) * dt.itemsize))
    width = 1 << (width.bit_length() - 1)
    starts = range(0, max(q - width, 0) + 1, width)
    for c0 in starts:
        c1 = q if c0 == starts[-1] else c0 + width
        acc = y[:, c0:c1]
        for taps in groups:
            lo = offs[taps[0]]
            z = wt[taps.start * cout:taps.stop * cout] @ rows[:, lo + c0:offs[taps[-1]] + c1]
            for n, t in enumerate(taps):
                part = z[n * cout:(n + 1) * cout, offs[t] - lo:offs[t] - lo + c1 - c0]
                if t:
                    acc += part
                else:
                    acc[...] = part
    return y.reshape(cout, sp[0], padded[1], padded[2])[:, :, :sp[1], :sp[2]]


def _rows_weight_grad(g: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """grad[o, c, i, j, :] = g laid out on the padded flat grid @ the (i, j) view of x's shifted rows."""
    cout, cin, sp = g.shape[0], x.shape[0], x.shape[1:]
    if k == 1:
        return (g.reshape(cout, -1) @ x.reshape(cin, -1).T).reshape(cout, cin, 1, 1, 1)
    dt = np.result_type(g, x)
    rows, padded = _shifted_rows(x, k, dt)
    offs, q, groups = _row_taps(sp, padded, k, cin, cout)
    gq = np.zeros((cout, sp[0], padded[1], padded[2]), dtype=g.dtype)
    gq[:, :, :sp[1], :sp[2]] = g
    gq = gq.reshape(cout, -1)[:, :q]
    out = np.empty((k * k * cout, cin * k), dtype=dt)
    for taps in groups:
        lo, hi = offs[taps[0]], offs[taps[-1]] + q
        gs = gq
        if len(taps) > 1:  # g once per tap, each copy shifted by the tap's offset
            gs = np.zeros((len(taps) * cout, hi - lo), dtype=dt)
            for n, t in enumerate(taps):
                gs[n * cout:(n + 1) * cout, offs[t] - lo:offs[t] - lo + q] = gq
        out[taps.start * cout:taps.stop * cout] = gs @ rows[:, lo:hi].T
    return out.reshape(k, k, cout, cin, k).transpose(2, 3, 0, 1, 4)


def _kernel(k: int, stride: int, padding: int):
    """(windows, forward, input_grad, weight_grad, layer) of the kernel ``conv_kernel`` names.

    They are called as forward(windows(x), w), input_grad(g, w, in_sp),
    weight_grad(g, windows(x)) and layer(x, w). ``windows`` is what the
    forward pass and the weight gradient read of their windowed operand: the
    window kernel's column matrix, the array itself for the others. ``layer``
    is a node's forward pass, as (y, part): the whole result, or None when the
    FFT kernel defers its inverse transforms, and ``part(c0, c1)``, the
    result's channels c0 to c1. The window kernel's layer runs in
    ``_depth_tiles``.
    """
    name = conv_kernel(k, stride, padding)
    if name == "window":
        return (lambda x: _columns(x, k, stride, padding), _conv_raw,
                lambda g, w, in_sp: _scatter(g, w, stride, padding, in_sp), _weight_grad,
                lambda x, w: _ranges(_window_conv(x, w, stride, padding)))
    if name == "fft":
        conv, corr, layer = _plane_conv, _plane_weight_grad, _plane_parts
    else:
        conv, corr, layer = _rows_conv, _rows_weight_grad, lambda x, w: _ranges(_rows_conv(x, w))
    return (lambda x: x), conv, lambda g, w, in_sp: conv(g, _flip(w)), lambda g, x: corr(g, x, k), layer


def _ranges(y: np.ndarray):
    """A whole kernel result as a layer's (y, part)."""
    return y, lambda c0, c1: y[c0:c1]


def _grad_dtype(t: Tensor):
    """The dtype of ``t.grad``: float64 for a leaf, the dtype of its data for an interior node."""
    return t.data.dtype if t.parents else np.dtype(np.float64)


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = True) -> None:
    """Add one gradient contribution into ``t.grad``; the first one becomes it.

    ``fresh`` says that nothing else will read or write ``g``: the closure
    made it, or hands over its node's own gradient. Then a writeable,
    C-contiguous ``g`` of the node's gradient dtype is adopted as it is. Any
    other first contribution is copied into a new C-contiguous buffer of that
    dtype.
    """
    if t.grad is not None:
        t.grad += g
        return
    dt = _grad_dtype(t)
    if fresh and g.dtype == dt and g.flags.c_contiguous and g.flags.writeable:
        t.grad = g
    else:
        t.grad = np.array(g, dtype=dt, order="C")


def _check_4d(x: Tensor, who: str) -> None:
    if x.data.ndim != 4:
        raise ValueError(f"{who} expects a (C, D, H, W) tensor, got shape {x.data.shape}")


def _owned(y: np.ndarray, dtype) -> bool:
    return y.flags.writeable and y.flags.c_contiguous and y.dtype == dtype


def _into(op, y: np.ndarray, z, own: bool = True) -> np.ndarray:
    """op(y, z), written into y when the caller owns it and it is writeable, C-contiguous and of the result's dtype."""
    return op(y, z, out=y if own and _owned(y, np.result_type(y, z)) else None)


def _epilogue(y: np.ndarray, z: np.ndarray, h: np.ndarray, neg, b, a, skip, transpose: bool) -> None:
    """A channel range of a row's bias, skip and PReLU on its kernel result y, in the chain's op order.

    The pre-activation goes into z, min(z, 0) * a into ``neg`` and the output
    into h: buffers the caller allocated, so that the worker allocates none.
    y may be z, and h is z unless the node keeps z for backward or an operand
    widens the output's dtype. A ufunc computes in its inputs' dtype and then
    casts into ``out``, so each step rounds as in the chain, with its bytes.
    """
    np.add(y, b, out=z)
    if skip is not None and transpose:
        np.add(z, skip, out=z)
    if a is not None:
        np.multiply(np.minimum(z, 0, out=neg), a, out=neg)
        # max(z, 0) + min(z, 0) * a: prelu's bytes, as IEEE addition commutes; one term is 0, so
        # the sum is exact in any dtype
        np.add(np.maximum(z, 0, out=h), neg, out=h)
    if skip is not None and not transpose:
        np.add(z if a is None else h, skip, out=h)


def _conv_node(op: str, x: Tensor, w: Tensor, b: Tensor, stride: int, padding: int, slopes, skip) -> Tensor:
    """A convolution, or for op "conv3d_transpose" its adjoint, with the same kernel, stride and padding.

    With ``slopes`` (PReLU) and ``skip`` it is a whole layer-table row (module docstring).
    """
    _check_4d(x, op)
    transpose = op == "conv3d_transpose"
    cout, cin, k = w.data.shape[0], w.data.shape[1], w.data.shape[2]
    cin, cout = (cout, cin) if transpose else (cin, cout)  # the adjoint's kernel is (Cin, Cout, k, k, k)
    if w.data.shape[2:] != (k, k, k):
        raise ValueError(f"{op} kernel must be cubic, got {w.data.shape}")
    if cin != x.data.shape[0]:
        raise ValueError(f"{op} channel mismatch: kernel expects {cin}, input has {x.data.shape[0]}")
    if b.data.shape != (cout,):
        raise ValueError(f"{op} bias must have shape ({cout},)")
    if slopes is not None and slopes.data.shape != (cout,):
        raise ValueError(f"{op} slopes must have shape ({cout},), got {slopes.data.shape}")
    in_sp = x.data.shape[1:]
    if transpose:
        out_sp = tuple((n - 1) * stride + k - 2 * padding for n in in_sp)
    else:
        out_sp = tuple((n + 2 * padding - k) // stride + 1 for n in in_sp)
    if min(out_sp) < 1:
        raise ValueError(f"{op} shape underflow: input {in_sp}, k={k}, s={stride}, p={padding}")
    if skip is not None and skip.data.shape != (cout, *out_sp):
        raise ValueError(f"{op} skip shape mismatch: {skip.data.shape} vs {(cout, *out_sp)}")
    parents = tuple(t for t in (x, w, b, slopes, skip) if t is not None)
    keep = any(t.requires_grad for t in parents)
    windows, forward, input_grad, weight_grad, layer = _kernel(k, stride, padding)
    # a transposed convolution swaps the forward pass and the input gradient, and the weight
    # gradient's operands; then both of its gradients read the windows of g, built once
    y, part = _ranges(input_grad(x.data, w.data, out_sp)) if transpose else layer(x.data, w.data)
    a = None if slopes is None else slopes.data[:, None, None, None]
    s = None if skip is None else skip.data
    dz = np.result_type(x.data, w.data, b.data, *((s,) if transpose and s is not None else ()))
    dh = np.result_type(dz, *(t for t in (a, s) if t is not None))
    # the pre-activation z is the kernel result itself when that is whole and owned; a cropped
    # one is copied into z by the epilogue. z is kept for backward, so h is apart from it then
    z = y if y is not None and _owned(y, dz) else np.empty((cout, *out_sp), dtype=dz)
    h = z if dh == dz and not (keep and a is not None) else np.empty((cout, *out_sp), dtype=dh)
    neg = None if a is None else np.empty((cout, *out_sp), dtype=np.result_type(dz, a))

    def finish(c0, c1):
        _epilogue(part(c0, c1), z[c0:c1], h[c0:c1], None if neg is None else neg[c0:c1],
                  b.data[c0:c1, None, None, None], None if a is None else a[c0:c1],
                  None if s is None else s[c0:c1], transpose)

    # the worker takes the second half of the channels' inverse transforms and epilogue
    half = (cout + 1) // 2
    join = fork(math.prod(out_sp), finish, half, cout)
    finish(0, half)
    join()

    def backward_fn(g):
        conv_grad = x.requires_grad or w.requires_grad or b.requires_grad
        shared = skip is not None and not transpose and skip.requires_grad
        if shared:
            # skip takes g over, as add did; only x's input gradient could write it, after PReLU has
            # read g, so skip gets a copy only when it is x and no PReLU comes first
            _accumulate(skip, g, fresh=slopes is not None or skip is not x)
        if slopes is not None:
            if slopes.requires_grad:
                _accumulate(slopes, (g * np.minimum(z, 0)).sum(axis=(1, 2, 3)))
            if conv_grad:  # into g, the node's own and dropped after this, unless skip took it over
                g = _into(np.multiply, g, (z <= 0) * a + (z > 0), own=not shared)
        if skip is not None and transpose and skip.requires_grad:
            _accumulate(skip, g, fresh=skip is not x)
        g_win = windows(g) if transpose and (x.requires_grad or w.requires_grad) else None
        if x.requires_grad:
            _accumulate(x, forward(g_win, w.data) if transpose else input_grad(g, w.data, in_sp))
        if w.requires_grad:
            _accumulate(w, weight_grad(x.data, g_win) if transpose else weight_grad(g, windows(x.data)))
        if b.requires_grad:
            _accumulate(b, g.sum(axis=(1, 2, 3)))

    return Tensor(h, parents=parents, backward_fn=backward_fn, op=op)


def conv3d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0, slopes=None, skip=None) -> Tensor:
    return _conv_node("conv3d", x, w, b, stride, padding, slopes, skip)


def conv3d_transpose(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0, slopes=None,
                     skip=None) -> Tensor:
    return _conv_node("conv3d_transpose", x, w, b, stride, padding, slopes, skip)


def prelu(x: Tensor, slopes: Tensor) -> Tensor:
    _check_4d(x, "prelu")
    c = x.data.shape[0]
    if slopes.data.shape != (c,):
        raise ValueError(f"prelu slopes must have shape ({c},), got {slopes.data.shape}")
    a = slopes.data[:, None, None, None]
    y = np.minimum(x.data, 0) * a  # no select on the data-dependent sign (module docstring)
    y += np.maximum(x.data, 0)

    def backward_fn(g):
        if x.requires_grad:
            _accumulate(x, g * ((x.data <= 0) * a + (x.data > 0)))
        if slopes.requires_grad:
            _accumulate(slopes, (g * np.minimum(x.data, 0)).sum(axis=(1, 2, 3)))

    return Tensor(y, parents=(x, slopes), backward_fn=backward_fn, op="prelu")


def add(x: Tensor, y: Tensor) -> Tensor:
    if x.data.shape != y.data.shape:
        raise ValueError(f"add shape mismatch: {x.data.shape} vs {y.data.shape}")

    def backward_fn(g):
        # the node drops g once this returns, so the last operand that needs it takes it over
        needs = [t for t in (x, y) if t.requires_grad]
        for n, t in enumerate(needs):
            _accumulate(t, g, fresh=n == len(needs) - 1)

    return Tensor(x.data + y.data, parents=(x, y), backward_fn=backward_fn, op="add")


def concat_channels(xs) -> Tensor:
    xs = list(xs)
    if not xs:
        raise ValueError("concat_channels needs at least one input")
    for t in xs:
        _check_4d(t, "concat_channels")
    spatial = xs[0].data.shape[1:]
    for t in xs[1:]:
        if t.data.shape[1:] != spatial:
            raise ValueError(
                f"concat_channels spatial mismatch: {t.data.shape[1:]} vs {spatial}"
            )
    y = np.concatenate([t.data for t in xs], axis=0)
    sizes = [t.data.shape[0] for t in xs]

    def backward_fn(g):
        off = 0
        for t, c in zip(xs, sizes):
            if t.requires_grad:
                _accumulate(t, g[off:off + c], fresh=False)
            off += c

    return Tensor(y, parents=tuple(xs), backward_fn=backward_fn, op="concat_channels")


def _topo_order(root: Tensor):
    """Nodes that need a gradient, parents before consumers.

    A node that needs none has no ancestor that does, so the walk stops there.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor, seed=None) -> None:
    """Accumulate gradients of the root into every node of its graph.

    A scalar root seeds with 1; any other root requires an explicit seed of
    matching shape (e.g. an upstream loss gradient). The seed is taken in the
    root's gradient dtype (module docstring): float64 for a leaf, the dtype of
    its data for an interior root. A C-contiguous seed of that dtype is not
    copied: it becomes the root's gradient, so a root that is a leaf ends with
    ``root.grad`` aliasing the caller's float64 seed, and an interior root's
    closure reads it through a read-only view; any other seed is converted
    first. Nodes with ``requires_grad`` False get no gradient and
    propagate nothing; a root that needs none is a no-op.

    Gradients live as the module docstring says. Every visited node starts
    with ``grad`` None, so parameters can be reused across training steps
    without manual zeroing. When backward returns, interior nodes hold None
    and each leaf holds its float64 gradient, zeros for a leaf that no
    closure reached.
    """
    dt = _grad_dtype(root)
    if seed is None:
        if root.data.size != 1:
            raise ValueError("backward on a non-scalar root requires an explicit seed gradient")
        seed = np.ones_like(root.data, dtype=dt)
    else:
        given, seed = seed, np.asarray(seed, dtype=dt, order="C")
        if seed.shape != root.data.shape:
            raise ValueError(f"seed shape {seed.shape} does not match root shape {root.data.shape}")
        if seed is given and root.parents:  # the caller's array: its closure may read it, never adopt it
            seed = seed.view()
            seed.flags.writeable = False
    if not root.requires_grad:
        return
    order = _topo_order(root)
    for node in order:
        node.grad = None
    root.grad = seed
    for node in reversed(order):  # consumers first: a node's gradient is complete at its turn
        if node.parents:
            if node.grad is not None and node.backward_fn is not None:
                node.backward_fn(node.grad)
            node.grad = None
        elif node.grad is None:
            node.grad = np.zeros(node.data.shape, dtype=np.float64)
