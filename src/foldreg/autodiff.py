"""Minimal reverse-mode differentiation over channels-first 4D tensors.

Exactly the operations the registration network needs: 3D convolution
(cross-correlation, zero padding), transposed convolution, PReLU, elementwise
add, channel concatenation, and a scalar sum for building test losses.
Forward values keep the input dtype; gradient buffers always accumulate in
float64. Graphs are built define-by-run and traversed once, in reverse
topological order, by ``backward``.

Each tensor carries ``requires_grad``. Leaves default to True; pass False for
inputs whose gradient nothing reads, such as the stacked source/target
volumes. An op's output requires a gradient iff one of its parents does, and
``backward`` allocates buffers and runs backward closures only for those
nodes, so no work is spent on the input gradient of a frozen input.

The transposed convolution is computed in scatter form, as the adjoint of the
convolution: one channel matmul per kernel tap, added into the strided output
positions of that tap, with no zero-dilated copy of the input. The same
routine gives the input gradient of a strided convolution.
"""

from __future__ import annotations

import itertools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Tensor:
    """A graph node: a value plus the closure that propagates its gradient."""

    __slots__ = ("data", "grad", "parents", "backward_fn", "name", "op", "requires_grad")

    def __init__(self, data, name="", parents=(), backward_fn=None, op="leaf", requires_grad=True):
        self.data = np.asarray(data)
        self.grad = None
        self.parents = tuple(parents)
        self.backward_fn = backward_fn
        self.name = name
        self.op = op
        # the flag is the caller's for a leaf; an op output needs a gradient iff a parent does
        self.requires_grad = any(p.requires_grad for p in self.parents) if self.parents else requires_grad

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, name={self.name!r})"


def _pad_spatial(x: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return x
    return np.pad(x, ((0, 0), (p, p), (p, p), (p, p)))


def _windows(xp: np.ndarray, k: int, stride: int) -> np.ndarray:
    win = sliding_window_view(xp, (k, k, k), axis=(1, 2, 3))
    if stride > 1:
        win = win[:, ::stride, ::stride, ::stride]
    return win


def _conv_raw(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Cross-correlation: x (Cin, ...) with w (Cout, Cin, k, k, k)."""
    k = w.shape[2]
    win = _windows(_pad_spatial(x, padding), k, stride)
    return np.tensordot(w, win, axes=([1, 2, 3, 4], [0, 4, 5, 6]))


def _convT_raw(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Fractionally strided convolution: x (A, ...) with w (A, B, k, k, k).

    The scatter-adjoint of _conv_raw with the same (k, stride, padding): each
    tap (i, j, l) adds one channel matmul ``w[:, :, i, j, l].T @ x`` into the
    output positions ``r * stride + (i, j, l)``, then ``padding`` is cropped
    from each side.
    """
    a, b, k = w.shape[0], w.shape[1], w.shape[2]
    sp = x.shape[1:]
    y = np.zeros((b,) + tuple((n - 1) * stride + k for n in sp), dtype=np.result_type(x, w))
    xf = x.reshape(a, -1)
    span = [(n - 1) * stride + 1 for n in sp]
    for i, j, l in itertools.product(range(k), repeat=3):
        tap = (w[:, :, i, j, l].T @ xf).reshape(b, *sp)
        y[:, i:i + span[0]:stride, j:j + span[1]:stride, l:l + span[2]:stride] += tap
    if padding:
        y = y[:, padding:-padding, padding:-padding, padding:-padding]
    return y


def _weight_grad(top: np.ndarray, bottom: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """grad[i, j, taps] = sum_t top[i, t] * pad(bottom)[j, t*stride + taps]."""
    win = _windows(_pad_spatial(bottom, padding), k, stride)
    return np.tensordot(top, win, axes=([1, 2, 3], [1, 2, 3]))


def _conv_input_grad(g: np.ndarray, w: np.ndarray, stride: int, padding: int, in_sp) -> np.ndarray:
    """Adjoint of _conv_raw onto the exact input shape.

    The floor in the output-extent formula can leave a tail of input
    positions that no window touched; the plain transposed conv cannot
    express that, so scatter onto the padded domain and crop/zero-fill.
    """
    full = _convT_raw(g, w, stride, 0)  # padded-domain adjoint, extent (T-1)*s + k
    out = np.zeros((w.shape[1], *in_sp), dtype=full.dtype)
    src = [slice(None)]
    dst = [slice(None)]
    for axis, n in enumerate(in_sp):
        hi = min(full.shape[1 + axis], padding + n)
        src.append(slice(padding, hi))
        dst.append(slice(0, hi - padding))
    out[tuple(dst)] = full[tuple(src)]
    return out


def _check_4d(x: Tensor, who: str) -> None:
    if x.data.ndim != 4:
        raise ValueError(f"{who} expects a (C, D, H, W) tensor, got shape {x.data.shape}")


def conv3d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    _check_4d(x, "conv3d")
    cout, cin, k = w.data.shape[0], w.data.shape[1], w.data.shape[2]
    if w.data.shape[2:] != (k, k, k):
        raise ValueError(f"conv3d kernel must be cubic, got {w.data.shape}")
    if cin != x.data.shape[0]:
        raise ValueError(f"conv3d channel mismatch: kernel expects {cin}, input has {x.data.shape[0]}")
    if b.data.shape != (cout,):
        raise ValueError(f"conv3d bias must have shape ({cout},)")
    out_sp = tuple((n + 2 * padding - k) // stride + 1 for n in x.data.shape[1:])
    if min(out_sp) < 1 or any((n + 2 * padding) < k for n in x.data.shape[1:]):
        raise ValueError(f"conv3d shape underflow: input {x.data.shape[1:]}, k={k}, s={stride}, p={padding}")
    y = _conv_raw(x.data, w.data, stride, padding) + b.data[:, None, None, None]

    in_sp = x.data.shape[1:]

    def backward_fn(g):
        if x.requires_grad:
            x.grad += _conv_input_grad(g, w.data, stride, padding, in_sp)
        if w.requires_grad:
            w.grad += _weight_grad(g, x.data, k, stride, padding)
        if b.requires_grad:
            b.grad += g.sum(axis=(1, 2, 3))

    return Tensor(y, parents=(x, w, b), backward_fn=backward_fn, op="conv3d")


def conv3d_transpose(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    _check_4d(x, "conv3d_transpose")
    cin, cout, k = w.data.shape[0], w.data.shape[1], w.data.shape[2]
    if w.data.shape[2:] != (k, k, k):
        raise ValueError(f"conv3d_transpose kernel must be cubic, got {w.data.shape}")
    if cin != x.data.shape[0]:
        raise ValueError(
            f"conv3d_transpose channel mismatch: kernel expects {cin}, input has {x.data.shape[0]}"
        )
    if b.data.shape != (cout,):
        raise ValueError(f"conv3d_transpose bias must have shape ({cout},)")
    out_sp = tuple((n - 1) * stride + k - 2 * padding for n in x.data.shape[1:])
    if min(out_sp) < 1:
        raise ValueError(
            f"conv3d_transpose shape underflow: input {x.data.shape[1:]}, k={k}, s={stride}, p={padding}"
        )
    y = _convT_raw(x.data, w.data, stride, padding) + b.data[:, None, None, None]

    def backward_fn(g):
        if x.requires_grad:
            x.grad += _conv_raw(g, w.data, stride, padding)
        if w.requires_grad:
            w.grad += _weight_grad(x.data, g, k, stride, padding)
        if b.requires_grad:
            b.grad += g.sum(axis=(1, 2, 3))

    return Tensor(y, parents=(x, w, b), backward_fn=backward_fn, op="conv3d_transpose")


def prelu(x: Tensor, slopes: Tensor) -> Tensor:
    _check_4d(x, "prelu")
    c = x.data.shape[0]
    if slopes.data.shape != (c,):
        raise ValueError(f"prelu slopes must have shape ({c},), got {slopes.data.shape}")
    a = slopes.data[:, None, None, None]
    pos = x.data > 0
    y = np.where(pos, x.data, x.data * a)

    def backward_fn(g):
        if x.requires_grad:
            x.grad += g * np.where(pos, 1.0, a)
        if slopes.requires_grad:
            slopes.grad += (g * np.where(pos, 0.0, x.data)).sum(axis=(1, 2, 3))

    return Tensor(y, parents=(x, slopes), backward_fn=backward_fn, op="prelu")


def add(x: Tensor, y: Tensor) -> Tensor:
    if x.data.shape != y.data.shape:
        raise ValueError(f"add shape mismatch: {x.data.shape} vs {y.data.shape}")

    def backward_fn(g):
        for t in (x, y):
            if t.requires_grad:
                t.grad += g

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
                t.grad += g[off:off + c]
            off += c

    return Tensor(y, parents=tuple(xs), backward_fn=backward_fn, op="concat_channels")


def sum_all(x: Tensor) -> Tensor:
    y = np.asarray(x.data.sum(dtype=np.float64))

    def backward_fn(g):
        x.grad += g

    return Tensor(y, parents=(x,), backward_fn=backward_fn, op="sum_all")


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
    matching shape (e.g. an upstream loss gradient). Existing .grad buffers on
    the visited nodes are reset first, so parameters can be reused across
    training steps without manual zeroing. Nodes with ``requires_grad`` False
    get no buffer and propagate nothing; a root that needs none is a no-op.
    """
    if seed is None:
        if root.data.size != 1:
            raise ValueError("backward on a non-scalar root requires an explicit seed gradient")
        seed = np.ones_like(root.data, dtype=np.float64)
    else:
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != root.data.shape:
            raise ValueError(f"seed shape {seed.shape} does not match root shape {root.data.shape}")
    if not root.requires_grad:
        return
    order = _topo_order(root)
    for node in order:
        node.grad = np.zeros(node.data.shape, dtype=np.float64)
    root.grad += seed
    for node in reversed(order):
        if node.backward_fn is not None:
            node.backward_fn(node.grad)
