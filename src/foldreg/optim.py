"""Adam over named parameter arrays.

Standard update with bias correction and the constants of Kingma & Ba
(arXiv 1412.6980): BETA1, BETA2 and EPS below. Moments are kept in float64
regardless of the parameter dtype so the recurrence is exact in verification
runs, and the computed update is cast back into the parameter array in place.
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
    lr: float = 1e-4
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_init(params: dict[str, np.ndarray], lr: float = 1e-4) -> AdamState:
    state = AdamState(lr=lr)
    for name, p in params.items():
        state.m[name] = np.zeros(p.shape, dtype=np.float64)
        state.v[name] = np.zeros(p.shape, dtype=np.float64)
    return state


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState) -> AdamState:
    """One Adam update, in place on the parameter arrays; returns the state.

    Every gradient is checked before anything changes: a gradient whose shape
    differs from its parameter's raises ``ValueError``, a non-finite one
    ``DivergenceError``, and either leaves the parameters and state as they were.
    """
    for name, p in params.items():
        g = grads[name]
        if np.shape(g) != p.shape:
            raise ValueError(f"gradient shape {np.shape(g)} does not match parameter {name!r} {p.shape}")
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"diverged gradient in {name!r}")
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        np.subtract(p, update, out=p, casting="unsafe")
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
