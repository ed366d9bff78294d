"""Central finite-difference verification of every analytic gradient.

All checks run in float64. Single operations are checked coordinate by
coordinate (sampled on large tensors) against (f(x+h) - f(x-h)) / 2h; the
full network is additionally checked with a directional derivative over all
parameters at once, which exercises the complete training gradient through
warp, similarity, and regularization terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import jacobian, loss, model
from .volume import INTENSITY, DisplacementField, Volume
from .warp import warp_backward, warp_image

DEFAULT_TOL = 1e-4
GRAPH_TOL = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def _sample_coords(rng, shape, limit=160):
    total = int(np.prod(shape))
    if total <= limit:
        flat = np.arange(total)
    else:
        flat = rng.choice(total, size=limit, replace=False)
    return [np.unravel_index(int(i), shape) for i in flat]


def _fd_check(f, arrays, grads, rng, h=1e-5, limit=160, coords=None) -> float:
    """Max relative error between analytic grads and central differences.

    ``arrays`` are the leaves to perturb (mutated in place and restored);
    ``grads`` the matching analytic gradients; ``f`` re-evaluates the scalar.
    ``coords`` optionally pins the probed coordinates of the single leaf.
    """
    worst = 0.0
    for arr, g in zip(arrays, grads):
        picked = coords if coords is not None else _sample_coords(rng, arr.shape, limit)
        for idx in picked:
            keep = arr[idx]
            arr[idx] = keep + h
            fp = f()
            arr[idx] = keep - h
            fm = f()
            arr[idx] = keep
            fd = (fp - fm) / (2.0 * h)
            worst = max(worst, _rel_err(float(g[idx]), fd))
    return worst


def _directional_check(f, arrays, grads, rng, h=1e-6) -> float:
    base = [a.copy() for a in arrays]
    dirs = [rng.standard_normal(a.shape) for a in arrays]
    scale = np.sqrt(sum(float((d * d).sum()) for d in dirs))
    dirs = [d / scale for d in dirs]
    for a, b, d in zip(arrays, base, dirs):
        a[...] = b + h * d
    fp = f()
    for a, b, d in zip(arrays, base, dirs):
        a[...] = b - h * d
    fm = f()
    for a, b in zip(arrays, base):
        a[...] = b
    fd = (fp - fm) / (2.0 * h)
    analytic = sum(float((g * d).sum()) for g, d in zip(grads, dirs))
    return _rel_err(analytic, fd)


def _avoid_kinks(values: np.ndarray, dist: float = 0.05) -> np.ndarray:
    """Nudge entries away from integer lattice points (interpolation faces)."""
    frac = values - np.floor(values)
    return np.where((frac < dist) | (frac > 1.0 - dist), values + 2 * dist, values)


# --- individual ops --------------------------------------------------------


def _check_conv(rng, size, transpose: bool) -> CheckResult:
    cin, cout, k, s, p = (2, 3, 3, 1, 1) if not transpose else (3, 2, 2, 2, 0)
    x = ad.Tensor(rng.standard_normal((cin, size, size, size)))
    if transpose:
        w = ad.Tensor(rng.standard_normal((cin, cout, k, k, k)) * 0.5)
    else:
        w = ad.Tensor(rng.standard_normal((cout, cin, k, k, k)) * 0.5)
    b = ad.Tensor(rng.standard_normal(cout))
    op = ad.conv3d_transpose if transpose else ad.conv3d
    out = op(x, w, b, stride=s, padding=p)
    probe = rng.standard_normal(out.data.shape)

    def f():
        return float((op(x, w, b, stride=s, padding=p).data * probe).sum())

    ad.backward(out, seed=probe)
    err = _fd_check(f, [x.data, w.data, b.data], [x.grad, w.grad, b.grad], rng)
    return CheckResult("conv3d_transpose" if transpose else "conv3d", err, DEFAULT_TOL)


def _check_prelu(rng, size) -> CheckResult:
    data = rng.standard_normal((3, size, size, size))
    data = np.where(np.abs(data) < 0.05, data + 0.1, data)  # keep off the kink
    x = ad.Tensor(data)
    a = ad.Tensor(rng.uniform(0.1, 0.5, size=3))
    probe = rng.standard_normal(x.data.shape)

    def f():
        return float((ad.prelu(x, a).data * probe).sum())

    out = ad.prelu(x, a)
    ad.backward(out, seed=probe)
    err = _fd_check(f, [x.data, a.data], [x.grad, a.grad], rng)
    return CheckResult("prelu", err, DEFAULT_TOL)


def _check_add_concat(rng, size) -> CheckResult:
    x = ad.Tensor(rng.standard_normal((2, size, size, size)))
    y = ad.Tensor(rng.standard_normal((2, size, size, size)))
    z = ad.Tensor(rng.standard_normal((3, size, size, size)))
    probe = rng.standard_normal((7, size, size, size))

    def graph():
        return ad.concat_channels([ad.add(x, y), z, x])

    def f():
        return float((graph().data * probe).sum())

    out = graph()
    ad.backward(out, seed=probe)
    err = _fd_check(f, [x.data, y.data, z.data], [x.grad, y.grad, z.grad], rng)
    return CheckResult("add/concat_channels", err, DEFAULT_TOL)


def _check_warp(rng, size) -> CheckResult:
    src = Volume(rng.random((size, size, size)), INTENSITY)
    u_arr = rng.uniform(-1.3, 1.3, size=(3, size, size, size))
    grid = np.indices((size, size, size)).astype(np.float64)
    u_arr = _avoid_kinks(grid + u_arr) - grid
    probe = rng.standard_normal((size, size, size))

    def f():
        return float((warp_image(src, DisplacementField(u_arr)).warped.data * probe).sum())

    g = warp_backward(src, DisplacementField(u_arr), probe)
    err = _fd_check(f, [u_arr], [g], rng, h=1e-3)
    return CheckResult("trilinear_warp", err, DEFAULT_TOL)


def _check_cc(rng, size, mode) -> CheckResult:
    a = rng.random((size, size, size))
    b = rng.random((size, size, size))
    if mode == loss.GLOBAL:
        def f():
            cc, _, _ = loss._global_cc_with_grad(a, b)
            return cc

        _, ga, gb = loss._global_cc_with_grad(a, b)
    else:
        def f():
            v, _, _ = loss._local_cc_with_grad(a, b, 3)
            return v

        _, ga, gb = loss._local_cc_with_grad(a, b, 3)
    err = _fd_check(f, [a, b], [ga, gb], rng)
    return CheckResult(f"{mode}_cc", err, DEFAULT_TOL)


def _check_r1(rng, size) -> CheckResult:
    u = rng.standard_normal((3, size, size, size))

    def f():
        v, _ = loss._r1_with_grad(u)
        return v

    _, g = loss._r1_with_grad(u)
    err = _fd_check(f, [u], [g], rng)
    return CheckResult("r1_smoothness", err, DEFAULT_TOL)


def _r2_safe_coords(u, rng, margin=0.02, limit=120):
    """Coordinates whose perturbation only touches dets away from the kink.

    Perturbing u_c(x) reaches the determinants at x and its axis neighbors
    through the difference stencil; restrict the probe to coordinates whose
    whole neighborhood is clear of det = 0, where max(-det, 0) is smooth.
    """
    det = jacobian.det_map(DisplacementField(u)).values
    ok = np.abs(det) > margin
    clear = ok.copy()
    for a in range(3):
        clear &= np.roll(ok, 1, axis=a) & np.roll(ok, -1, axis=a)
    # keep to the interior: np.roll wraps, and boundary stencils differ anyway
    clear[0, :, :] = clear[-1, :, :] = False
    clear[:, 0, :] = clear[:, -1, :] = False
    clear[:, :, 0] = clear[:, :, -1] = False
    sites = np.argwhere(clear)
    if len(sites) < 4:
        return None
    pick = rng.choice(len(sites), size=min(limit // 3, len(sites)), replace=False)
    return [(c,) + tuple(sites[i]) for i in pick for c in range(3)]


def _check_r2(rng, size) -> CheckResult:
    for _ in range(32):
        u = rng.uniform(-1.6, 1.6, size=(3, size, size, size))
        det = jacobian.det_map(DisplacementField(u)).values
        if not (det < 0).any():
            continue
        coords = _r2_safe_coords(u, rng)
        if coords is not None:
            break
    else:
        raise RuntimeError("could not build a folding field for the r2 check")

    def f():
        return jacobian.r2_penalty(jacobian.det_map(DisplacementField(u)))

    g = jacobian.r2_backward(DisplacementField(u))
    err = _fd_check(f, [u], [g], rng, h=1e-6, coords=coords)
    return CheckResult("r2_through_det", err, DEFAULT_TOL)


def _check_full_graph(rng, size=8) -> CheckResult:
    """End-to-end training gradient through the whole network at 8^3."""
    params = model.build_faim(model.FaimConfig(), seed=7, dtype=np.float64)
    # push predicted coordinates off the integer lattice: the near-identity
    # init parks every sample point on an interpolation face where central
    # differences and the one-sided analytic derivative legitimately differ
    params.tensors["head.w"].data = params.tensors["head.w"].data * 30.0
    params.tensors["head.b"].data = params.tensors["head.b"].data + np.array([0.37, 0.29, 0.43])
    src = Volume(rng.random((size, size, size)), INTENSITY)
    tgt = Volume(rng.random((size, size, size)), INTENSITY)
    x = ad.Tensor(np.stack([src.data, tgt.data]), requires_grad=False)  # as in training
    alpha, beta, window = 1.0, 1e-2, 5

    def f():
        u_arr = model.faim_apply(params, x).data
        u = DisplacementField(u_arr)
        bd = loss.total_loss(
            warp_image(src, u).warped, tgt, u, alpha, beta, loss.LOCAL, window
        )
        return bd.total

    u_node = model.faim_apply(params, x)
    coords = np.indices((size, size, size)) + u_node.data
    inside = (coords > 0) & (coords < size - 1)
    face_dist = np.abs(coords - np.round(coords))[inside]
    if face_dist.size and face_dist.min() < 0.02:
        raise RuntimeError("graph check setup left a sample point near a cell face")
    u = DisplacementField(u_node.data)
    grad_s, grad_u = loss.loss_backward(
        warp_image(src, u).warped, tgt, u, alpha, beta, loss.LOCAL, window
    )
    grad_u += warp_backward(src, u, grad_s)
    ad.backward(u_node, seed=grad_u)
    arrays = [t.data for t in params.tensors.values()]
    grads = [t.grad for t in params.tensors.values()]

    # A finite-difference probe can straddle a PReLU kink, which inflates the
    # error no matter how small the step is but only for that unlucky probe.
    # A wrong gradient stays wrong at every step size and every direction, so
    # take the best attempt over shrinking steps (fresh direction each time,
    # fixed coordinate sample).
    def best_over_steps(measure):
        best = np.inf
        for attempt, h in enumerate((1e-6, 1e-7, 1e-8)):
            best = min(best, measure(h, attempt))
            if best < GRAPH_TOL / 10:
                break
        return best

    dir_seed = int(rng.integers(2**31))
    coord_seed = int(rng.integers(2**31))
    err = best_over_steps(
        lambda h, k: _directional_check(f, arrays, grads, np.random.default_rng(dir_seed + k), h=h)
    )
    err = max(
        err,
        best_over_steps(
            lambda h, k: _fd_check(f, arrays, grads, np.random.default_rng(coord_seed), h=h, limit=4)
        ),
    )
    return CheckResult("faim_graph_end_to_end", err, GRAPH_TOL)


def run_all(seed: int = 0, size: int = 5, tol: float | None = None) -> list[CheckResult]:
    """Run every finite-difference suite; optionally override the per-op tolerance."""
    rng = np.random.default_rng(seed)
    results = [
        _check_conv(rng, size, transpose=False),
        _check_conv(rng, size, transpose=True),
        _check_prelu(rng, size),
        _check_add_concat(rng, size),
        _check_warp(rng, size),
        _check_cc(rng, size, loss.GLOBAL),
        _check_cc(rng, size, loss.LOCAL),
        _check_r1(rng, min(size, 4)),
        _check_r2(rng, size),
        _check_full_graph(rng),
    ]
    if tol is not None:
        results = [CheckResult(r.name, r.max_rel_err, tol) for r in results]
    return results
