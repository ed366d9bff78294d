"""Adam over named parameter arrays.

Standard update with bias correction and the constants of Kingma & Ba
(arXiv 1412.6980): BETA1, BETA2 and EPS below. Moments are kept in float64
regardless of the parameter dtype so the recurrence is exact in verification
runs, and the computed update is cast back into the parameter array in place.

The state is flat: m and v are one float64 vector each, holding every
parameter's moments end to end, and ``m[name]``, ``v[name]`` are views of
them shaped as that parameter. A step joins the gradients into one float64
vector, checks it for finiteness once, forms the update over all parameters
in one pass, and gives each parameter its slice. Each element takes the
operations of a per-parameter update in the same order, so the bytes are
the same. The joined gradient, and then the update, share one of the step's
two work vectors, which live only during the step, so that no vector of
that length outlives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class DivergenceError(RuntimeError):
    """Raised when gradients or the loss stop being finite."""


@dataclass
class AdamState:
    """Step count and moments; ``spans[name]`` is the parameter's slice of ``flat_m`` and ``flat_v``."""

    lr: float = 1e-4
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    flat_m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    flat_v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    spans: dict[str, slice] = field(default_factory=dict)


def adam_init(params: dict[str, np.ndarray], lr: float = 1e-4) -> AdamState:
    n = sum(p.size for p in params.values())
    state = AdamState(lr=lr, flat_m=np.zeros(n), flat_v=np.zeros(n))
    o = 0
    for name, p in params.items():
        state.spans[name] = s = slice(o, o + p.size)
        state.m[name] = state.flat_m[s].reshape(p.shape)
        state.v[name] = state.flat_v[s].reshape(p.shape)
        o += p.size
    return state


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState) -> AdamState:
    """One Adam update, in place on the parameter arrays; returns the state.

    Every gradient is checked before anything changes: a gradient whose shape
    differs from its parameter's raises ``ValueError``, a non-finite one
    ``DivergenceError``, and either leaves the parameters and state as they were.
    """
    for name, p in params.items():
        if np.shape(grads[name]) != p.shape:
            raise ValueError(f"gradient shape {np.shape(grads[name])} does not match parameter {name!r} {p.shape}")
    parts = [np.ravel(grads[name]) for name in state.spans]
    update, w = np.empty((2, len(state.flat_m)))
    g = update  # one float64 vector in the state's layout; a lone float64 gradient is read in place
    if len(parts) == 1 and parts[0].dtype == np.float64:
        g = parts[0]
    elif parts:
        np.concatenate(parts, out=g)
    if not np.isfinite(g).all():
        bad = next(name for name, s in state.spans.items() if not np.isfinite(g[s]).all())
        raise DivergenceError(f"diverged gradient in {bad!r}")
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    m, v = state.flat_m, state.flat_v
    # lr * (m / bc1) / (sqrt(v / bc2) + EPS) after the moment updates, each pass over every parameter;
    # the update overwrites g, read for the last time by the moments
    np.multiply(1.0 - BETA1, g, out=w)
    m *= BETA1
    m += w
    np.multiply(g, g, out=w)
    w *= 1.0 - BETA2
    v *= BETA2
    v += w
    np.divide(v, bc2, out=w)
    np.sqrt(w, out=w)
    w += EPS
    np.divide(m, bc1, out=update)
    np.multiply(state.lr, update, out=update)
    update /= w
    for name, p in params.items():
        np.subtract(p, update[state.spans[name]].reshape(p.shape), out=p, casting="unsafe")
    return state


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Rescale the gradients so their joint L2 norm is <= max_norm; returns the norm before.

    Each entry of ``grads`` is replaced by a new scaled array; the arrays it
    held (a leaf's ``.grad``, say) are left unscaled.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm > 0.0:
        scale = max_norm / norm
        for name in grads:
            grads[name] = np.asarray(grads[name]) * scale
    return norm
