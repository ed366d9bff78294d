"""Central finite-difference verification of every analytic gradient.

All checks run in float64, each at a fixed tolerance. Single operations are
checked coordinate by coordinate (sampled on large tensors) against
(f(x+h) - f(x-h)) / 2h; the full network is additionally checked with a
directional derivative over all parameters at once, which exercises the
complete training gradient through warp, similarity, and regularization terms.

Rows share three builders: ``_check_tape`` backprops a random probe through
an autodiff graph (conv, PReLU, add/concat, a whole layer row);
``_check_value_and_grad`` checks a function returning ``(value, *grads)``
(global and local CC, R1); and ``_training_loss`` gives both end-to-end rows
the training loss of a field, with ``trainer._loss_and_grad`` as its
analytic gradient. Each row runs the code a run does: the PReLU and add
rows a layer row whose frozen identity k1 weights pass its input through
exactly, the warp row ``warp_derivative``, and the R1 and R2 rows
``jacobian.regularizer_grad`` at weights (1, 0) and (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from . import jacobian, loss, model, trainer
from .volume import INTENSITY, DisplacementField, Volume
from .warp import warp_derivative, warp_image

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
    flat = np.arange(total) if total <= limit else rng.choice(total, size=limit, replace=False)
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


# --- shared row builders ---------------------------------------------------


def _check_tape(rng, name: str, graph, leaves) -> CheckResult:
    """A tape row: backprop a random probe of graph()'s output, check each leaf's grad."""
    out = graph()
    probe = rng.standard_normal(out.data.shape)
    ad.backward(out, seed=probe)
    err = _fd_check(
        lambda: float((graph().data * probe).sum()), [t.data for t in leaves], [t.grad for t in leaves], rng
    )
    return CheckResult(name, err, DEFAULT_TOL)


def _check_value_and_grad(rng, name: str, fn, arrays) -> CheckResult:
    """A row for fn(*arrays) -> (value, *grads): each grad against differences of value."""
    _, *grads = fn(*arrays)
    err = _fd_check(lambda: fn(*arrays)[0], arrays, grads, rng)
    return CheckResult(name, err, DEFAULT_TOL)


def _training_loss(src, tgt, alpha, beta, window):
    """The training loss of a field u (local CC), and the gradient training runs for it."""
    cfg = trainer.TrainConfig(alpha=alpha, beta=beta, cc_mode=loss.LOCAL, cc_window=window)

    def value(u_arr):
        u = DisplacementField(u_arr)
        return loss.total_loss(warp_image(src, u), tgt, u, alpha, beta, loss.LOCAL, window).total

    return value, lambda u_arr: trainer._loss_and_grad(src, tgt, u_arr, cfg)[1]


# --- individual ops --------------------------------------------------------


def _check_conv(rng, size, name: str, k: int, stride: int = 1, transpose: bool = False) -> CheckResult:
    """A k^3 conv with padding (k - 1) // 2 (size-preserving at stride 1), or a stride-2 transposed conv."""
    cin, cout, s, p = (3, 2, 2, 0) if transpose else (2, 3, stride, (k - 1) // 2)
    x = ad.Tensor(rng.standard_normal((cin, size, size, size)))
    if transpose:
        w = ad.Tensor(rng.standard_normal((cin, cout, k, k, k)) * 0.5)
    else:
        w = ad.Tensor(rng.standard_normal((cout, cin, k, k, k)) * 0.5)
    b = ad.Tensor(rng.standard_normal(cout))
    op = ad.conv3d_transpose if transpose else ad.conv3d
    return _check_tape(rng, name, lambda: op(x, w, b, stride=s, padding=p), [x, w, b])


def _identity(c: int):
    """Frozen k1 weights and bias whose convolution is the identity on c channels, exactly."""
    return ad.Tensor(np.eye(c).reshape(c, c, 1, 1, 1), requires_grad=False), ad.Tensor(np.zeros(c), requires_grad=False)


def _check_prelu(rng, size) -> CheckResult:
    data = rng.standard_normal((3, size, size, size))
    data = np.where(np.abs(data) < 0.05, data + 0.1, data)  # keep off the kink
    x = ad.Tensor(data)
    a = ad.Tensor(rng.uniform(0.1, 0.5, size=3))
    return _check_tape(rng, "prelu", lambda: ad.conv3d(x, *_identity(3), slopes=a), [x, a])


def _check_add_concat(rng, size) -> CheckResult:
    x = ad.Tensor(rng.standard_normal((2, size, size, size)))
    y = ad.Tensor(rng.standard_normal((2, size, size, size)))
    z = ad.Tensor(rng.standard_normal((3, size, size, size)))
    return _check_tape(rng, "add/concat_channels",
                       lambda: ad.concat_channels([ad.conv3d(x, *_identity(2), skip=y), z, x]), [x, y, z])


def _check_row(rng, size, name: str, transpose: bool) -> CheckResult:
    """A layer-table row as one node: conv k3, PReLU, then the skip; or convT k2 s2, the skip, then PReLU.

    Inputs are redrawn until every pre-activation is at least 1e-3 from the
    PReLU kink, further than a probe step can move it; the cube extent is
    at most 5, so that a few draws suffice.
    """
    cin, cout, k, s = (3, 2, 2, 2) if transpose else (2, 3, 3, 1)
    op = ad.conv3d_transpose if transpose else ad.conv3d
    n = min(size, 5)
    for _ in range(32):
        x = ad.Tensor(rng.standard_normal((cin, n, n, n)))
        w = ad.Tensor(rng.standard_normal((cin, cout, k, k, k) if transpose else (cout, cin, k, k, k)) * 0.5)
        b, skip = ad.Tensor(rng.standard_normal(cout)), ad.Tensor(rng.standard_normal((cout,) + (n * s,) * 3))
        pre = op(x, w, b, stride=s, padding=(k - 1) // 2, skip=skip if transpose else None)
        if np.abs(pre.data).min() >= 1e-3:
            break
    else:
        raise RuntimeError(f"{name}: could not draw pre-activations clear of the PReLU kink")
    a = ad.Tensor(rng.uniform(0.1, 0.5, size=cout))
    return _check_tape(rng, name, lambda: op(x, w, b, stride=s, padding=(k - 1) // 2, slopes=a, skip=skip),
                       [x, w, b, a, skip])


def _check_warp(rng, size) -> CheckResult:
    src = Volume(rng.random((size, size, size)), INTENSITY)
    u_arr = rng.uniform(-1.3, 1.3, size=(3, size, size, size))
    grid = np.indices((size, size, size)).astype(np.float64)
    u_arr = _avoid_kinks(grid + u_arr) - grid
    probe = rng.standard_normal((size, size, size))
    g = warp_derivative(src, DisplacementField(u_arr)) * probe
    err = _fd_check(lambda: float((warp_image(src, DisplacementField(u_arr)).data * probe).sum()),
                    [u_arr], [g], rng, h=1e-3)
    return CheckResult("trilinear_warp", err, DEFAULT_TOL)


def _check_cc(rng, size, mode) -> CheckResult:
    a = rng.random((size, size, size))
    b = rng.random((size, size, size))
    return _check_value_and_grad(rng, f"{mode}_cc", partial(loss.CC_MODES[mode][1], w=3), [a, b])


def _check_r1(rng, size) -> CheckResult:
    u = rng.standard_normal((3, size, size, size))

    def fn(u_arr):
        return loss.r1_smoothness(DisplacementField(u_arr)), jacobian.regularizer_grad(u_arr, 1.0, 0.0)

    return _check_value_and_grad(rng, "r1_smoothness", fn, [u])


def _r2_safe_coords(u, rng, margin=0.02, limit=120):
    """Coordinates whose perturbation only touches dets away from the kink.

    Perturbing u_c(x) reaches the determinants at x and its axis neighbors
    through the difference stencil; restrict the probe to coordinates whose
    whole neighborhood is clear of det = 0, where max(-det, 0) is smooth.
    """
    det = jacobian.det_map(DisplacementField(u))
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


def _folding_field(rng, draw):
    """A field from draw() that folds, and probe coordinates for it from _r2_safe_coords."""
    for _ in range(32):
        u = draw()
        if not (jacobian.det_map(DisplacementField(u)) < 0).any():
            continue
        coords = _r2_safe_coords(u, rng)
        if coords is not None:
            return u, coords
    raise RuntimeError("could not build a folding field with probes clear of det = 0")


def _check_r2(rng, size) -> CheckResult:
    u, coords = _folding_field(rng, lambda: rng.uniform(-1.6, 1.6, size=(3, size, size, size)))
    g = jacobian.regularizer_grad(u, 0.0, 1.0)
    err = _fd_check(lambda: jacobian.r2_penalty(jacobian.det_map(DisplacementField(u))), [u], [g], rng,
                    h=1e-6, coords=coords)
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
    x = model.faim_input(params, src, tgt)
    value, grad = _training_loss(src, tgt, alpha=1.0, beta=1e-2, window=5)

    def f():
        return value(model.faim_apply(params, x).data)

    u_node = model.faim_apply(params, x)
    coords = np.indices((size, size, size)) + u_node.data
    inside = (coords > 0) & (coords < size - 1)
    face_dist = np.abs(coords - np.round(coords))[inside]
    if face_dist.size and face_dist.min() < 0.02:
        raise RuntimeError("graph check setup left a sample point near a cell face")
    ad.backward(u_node, seed=grad(u_node.data))
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
    err = max(
        best_over_steps(lambda h, k: _directional_check(f, arrays, grads, np.random.default_rng(dir_seed + k), h=h)),
        best_over_steps(lambda h, k: _fd_check(f, arrays, grads, np.random.default_rng(coord_seed), h=h, limit=4)),
    )
    return CheckResult("faim_graph_end_to_end", err, GRAPH_TOL)


def _check_direct_loss(rng, size) -> CheckResult:
    """The direct model's training gradient: warp, local CC, R1 and R2 at once.

    R1 and R2 reach u through one shared Jacobian adjoint, so this row sees
    a dropped or mis-weighted regularizer cotangent that the per-term rows
    cannot. Alpha and beta differ from 1 and from each other so that a
    misplaced weight shows.
    """
    src = Volume(rng.random((size, size, size)), INTENSITY)
    tgt = Volume(rng.random((size, size, size)), INTENSITY)
    grid = np.indices((size, size, size)).astype(np.float64)
    # sample points off the trilinear cell faces
    u, coords = _folding_field(
        rng, lambda: _avoid_kinks(grid + rng.uniform(-1.6, 1.6, size=(3, size, size, size))) - grid
    )

    value, grad = _training_loss(src, tgt, alpha=0.3, beta=0.7, window=3)
    err = _fd_check(lambda: value(u), [u], [grad(u)], rng, coords=coords)
    return CheckResult("direct_loss_end_to_end", err, DEFAULT_TOL)


def run_all(seed: int = 0, size: int = 5) -> list[CheckResult]:
    """Run every finite-difference suite at its fixed tolerance.

    ``size`` is the cube extent of the random inputs. It must be at least 4:
    below that, the R2 check finds no folding field to differentiate.
    """
    if size < 4:
        raise ValueError(f"gradcheck size must be >= 4, got {size}")
    if seed < 0:
        raise ValueError(f"gradcheck seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return [
        _check_conv(rng, size, "conv3d", k=3),
        _check_conv(rng, size, "conv3d_transpose", k=2, transpose=True),
        _check_prelu(rng, size),
        _check_add_concat(rng, size),
        _check_warp(rng, size),
        _check_cc(rng, size, loss.GLOBAL),
        _check_cc(rng, size, loss.LOCAL),
        _check_r1(rng, min(size, 4)),
        _check_r2(rng, size),
        _check_full_graph(rng),
        _check_conv(rng, size, "conv3d_k5", k=5),  # the FFT kernel; last, so earlier rows draw as before
        _check_conv(rng, size, "conv3d_s2", k=3, stride=2),  # the window kernel of enc1 and enc2
        _check_direct_loss(rng, size),  # after the conv rows, so they draw as before
        _check_row(rng, size, "row_conv_prelu_skip", transpose=False),  # the row nodes; last, as above
        _check_row(rng, size, "row_convT_skip_prelu", transpose=True),
    ]
