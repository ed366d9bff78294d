"""Training loop, ordered-pair protocol, and the synthetic desk-scale dataset.

Training iterates over all ordered (source, target) pairs of distinct
subjects: n subjects give n*(n-1) pairs. One pair per step, and one step
(``_fit``) for both model kinds: the model predicts u, the source is warped,
the total loss and its analytic gradients are evaluated, backpropagated into
the parameters, and Adam updates them. For the ``faim`` kind one parameter
set is trained across shuffled pairs for ``epochs`` epochs; for the
``direct`` kind each pair gets its own zero-initialized field optimized for
``steps`` iterations (classical per-pair registration).

``_loss_and_grad`` runs the step's loss stack in two halves on the caller
and the worker of ``_forkjoin``. The caller warps the source, then forks
the warp's derivative at x + u, which shares the worker with the R1/R2
values of ``total_loss``, while it runs the CC. Once the total is finite,
it forks ``jacobian.regularizer_grad``, the R1/R2 gradient on u, and runs
``loss_backward``, the CC gradient, meanwhile. The image gradient is applied
to the derivative after both joins, in the serial order, so the field
gradient has the same bytes whichever thread computed each part.

A checkpoint holds the trained parameters only: Adam's moments and step
count end with the run. A NaN/Inf loss or gradient aborts the run with
``TrainingDiverged`` and keeps the last good checkpoint: the parameters from
before the update that led to the non-finite value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import jacobian
from . import loss as loss_mod
from . import model as model_mod
from . import optim
from ._forkjoin import fork
from .autodiff import backward
from .jacobian import jacobian_raw
from .settings import Settings, format_key_values
from .volume import (
    INTENSITY,
    LABEL,
    DisplacementField,
    Volume,
    center_crop,
    load_field,
    load_volume,
    normalize_intensity,
    save_field,
    save_volume,
)
# warp_backward is not called here; bench/spans.py patches it by name, so it stays importable
from .warp import warp_backward, warp_derivative, warp_image, warp_labels  # noqa: F401


class TrainingDiverged(RuntimeError):
    checkpoint_path: Path | None = None  # the last good checkpoint, when the run has an out_dir


@dataclass(frozen=True)
class TrainConfig(Settings):
    lr: float = 1e-4
    epochs: int = 10
    alpha: float = 1.0
    beta: float = 0.0
    cc_mode: str = loss_mod.LOCAL
    cc_window: int = loss_mod.DEFAULT_WINDOW
    seed: int = 0
    crop: tuple[int, int, int] | None = None
    clip_norm: float | None = None
    steps: int = 100  # per-pair iterations, direct kind only

    def validate(self) -> None:
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr!r}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(f"clip norm must be positive, got {self.clip_norm!r}")
        if not (0 <= self.alpha < np.inf and 0 <= self.beta < np.inf):
            raise ValueError(f"alpha and beta must be non-negative and finite, got {self.alpha!r}, {self.beta!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if self.epochs < 1 or self.steps < 1:
            raise ValueError("epochs and steps must be >= 1")
        if self.cc_window < 1 or self.cc_window % 2 == 0:
            raise ValueError("cc window must be odd")
        if self.cc_mode not in loss_mod.CC_MODES:
            raise ValueError(f"unknown cc mode {self.cc_mode!r}")
        if self.crop is not None and not (
                len(self.crop) == 3 and all(isinstance(c, int) and c > 0 for c in self.crop)):
            raise ValueError(f"crop must be 3 positive ints, got {self.crop!r}")


def save_config(cfg: TrainConfig, path) -> None:
    Path(path).write_text(format_key_values(cfg.to_meta()))


load_config = TrainConfig.load


def make_pairs(ids) -> list[tuple]:
    """All ordered (source, target) pairs of distinct ids, lexicographic."""
    ids = list(ids)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate ids")
    return list(itertools.permutations(sorted(ids), 2))


# ---------------------------------------------------------------------------
# Synthetic dataset


@dataclass
class Dataset:
    ids: list[str]
    volumes: dict[str, Volume]
    labels: dict[str, Volume] = field(default_factory=dict)
    fields: dict[str, DisplacementField] = field(default_factory=dict)


def _mode_sum(rng, dims, modes, freqs):
    """Sum of random cosine modes; freqs are in cycles per volume extent.

    Half-integer frequencies give non-periodic half-waves, which buy larger
    displacement amplitude per unit of gradient.
    """
    grid = np.indices(dims, sparse=True)  # one broadcast coordinate axis each, no full grids
    phase_axes = [2.0 * np.pi * grid[a] / dims[a] for a in range(3)]
    choices = np.array([0.0] + [s * f for f in freqs for s in (1.0, -1.0)])
    out = np.zeros(dims)
    for _ in range(modes):
        k = rng.choice(choices, size=3)
        while not k.any():
            k = rng.choice(choices, size=3)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.5, 1.0)
        out += amp * np.cos(k[0] * phase_axes[0] + k[1] * phase_axes[1] + k[2] * phase_axes[2] + phase)
    return out


def _smooth_displacement(rng, dims, row_sum_cap=0.45):
    """Random smooth field rescaled so max_x sum_a |dU_c/dx_a| <= row_sum_cap.

    Row sums below 1 make I + Du strictly diagonally dominant with positive
    diagonal at every voxel, so det(I + Du) > 0: the field is fold-free by
    construction. Each channel is a sum of single-axis half/full waves, which
    maximizes displacement amplitude for a given gradient budget.
    """
    grid = np.indices(dims, sparse=True)  # one broadcast coordinate axis each, no full grids
    u = np.zeros((3, *dims))
    for c in range(3):
        for a in range(3):
            freq = rng.choice([0.5, 1.0])
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.uniform(0.5, 1.0)
            u[c] += amp * np.cos(2.0 * np.pi * freq * grid[a] / dims[a] + phase)
    D = jacobian_raw(u)
    # row by row, the additions of np.abs(D).sum(axis=1) without its (3, 3, N) copy of D
    worst = max((np.abs(D[c, 0]) + np.abs(D[c, 1]) + np.abs(D[c, 2])).max() for c in range(3))
    if worst > 0:
        u *= row_sum_cap / worst
    return DisplacementField(u.astype(np.float32))


def synth_dataset(seed: int, n: int, dims, n_labels: int = 3) -> Dataset:
    """Phantom subjects: one smooth blobby base, each subject a fold-free warp.

    Labels partition the base into intensity bands (0 = background) and are
    carried through each subject's ground-truth field with nearest-neighbor
    sampling, so every voxel has exactly one label.
    """
    dims = tuple(int(d) for d in dims)
    if any(d % 4 != 0 for d in dims):
        raise ValueError(f"dims must be divisible by 4, got {dims}")
    if n < 1 or n_labels < 1:
        raise ValueError("need n >= 1 subjects and n_labels >= 1")
    rng = np.random.default_rng(seed)
    # two scales: slow structure carries the labels (bands thick enough to
    # survive nearest-neighbor resampling), fine texture pins the CC windows
    structure = _mode_sum(rng, dims, modes=5, freqs=(0.5, 1.0))
    texture = _mode_sum(rng, dims, modes=10, freqs=(2.0, 3.0, 4.0))
    structure = (structure - structure.min()) / (structure.max() - structure.min())
    texture = (texture - texture.min()) / (texture.max() - texture.min())
    base = 0.6 * structure + 0.4 * texture
    base /= base.max()
    base_vol = Volume(base.astype(np.float32), INTENSITY)
    qs = [0.3 + 0.7 * i / n_labels for i in range(n_labels)]
    thresholds = np.quantile(structure, qs)
    base_lab = Volume(np.digitize(structure, thresholds).astype(np.int32), LABEL)

    ds = Dataset(ids=[], volumes={}, labels={}, fields={})
    for i in range(n):
        sid = f"s{i:02d}"
        u = _smooth_displacement(rng, dims)
        vol = normalize_intensity(warp_image(base_vol, u))
        ds.ids.append(sid)
        ds.volumes[sid] = vol
        ds.labels[sid] = warp_labels(base_lab, u)
        ds.fields[sid] = u
    return ds


def save_dataset(ds: Dataset, out_dir) -> Path:
    """Write FRV1 files plus a manifest of relative paths; returns the manifest."""
    out = Path(out_dir)
    for sub in ("volumes", "labels", "fields"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    lines = []
    for sid in ds.ids:
        rel = f"volumes/{sid}.frv"
        save_volume(ds.volumes[sid], out / rel)
        lines.append(f"volume {sid} {rel}")
        if sid in ds.labels:
            rel = f"labels/{sid}.frv"
            save_volume(ds.labels[sid], out / rel)
            lines.append(f"label {sid} {rel}")
        if sid in ds.fields:
            rel = f"fields/{sid}.frv"
            save_field(ds.fields[sid], out / rel)
            lines.append(f"field {sid} {rel}")
    manifest = out / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def load_dataset(manifest_path) -> Dataset:
    manifest = Path(manifest_path)
    if manifest.is_dir():
        manifest = manifest / "manifest.txt"
    if not manifest.is_file():
        raise FileNotFoundError(f"dataset manifest not found at {manifest}")
    root = manifest.parent
    ds = Dataset(ids=[], volumes={}, labels={}, fields={})
    listed = {}  # (kind, id) -> the line that lists it
    for lineno, line in enumerate(manifest.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{manifest}:{lineno}: expected 'kind id path', got {line!r}")
        entry_kind, sid, rel = parts
        first = listed.setdefault((entry_kind, sid), lineno)
        if first != lineno:
            raise ValueError(f"{manifest}:{lineno}: {entry_kind} {sid!r} is already listed on line {first}")
        path = root / rel
        if entry_kind == "volume":
            ds.volumes[sid] = load_volume(path, INTENSITY)
            ds.ids.append(sid)
        elif entry_kind == "label":
            ds.labels[sid] = load_volume(path, LABEL)
        elif entry_kind == "field":
            ds.fields[sid] = load_field(path)
        else:
            raise ValueError(f"{manifest}:{lineno}: unknown entry kind {entry_kind!r}")
    if not ds.volumes:
        raise ValueError(f"{manifest}: no volumes listed")
    return ds


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainResult:
    meta: dict[str, str]
    arrays: dict[str, np.ndarray]
    log_rows: list[tuple]
    final: loss_mod.LossBreakdown | None
    checkpoint_path: Path | None = None
    log_path: Path | None = None


LOG_HEADER = "step,epoch,source,target,image,r1,r2,total"


def write_loss_log(rows, path) -> None:
    lines = [LOG_HEADER]
    for step, epoch, src, tgt, bd in rows:
        lines.append(f"{step},{epoch},{src},{tgt},{bd.image!r},{bd.r1!r},{bd.r2!r},{bd.total!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def crop_volumes(volumes: dict[str, Volume], crop) -> dict[str, Volume]:
    """Center-crop each volume to ``crop`` (None keeps them); they must then share dims."""
    out = {sid: center_crop(vol, crop) if crop else vol for sid, vol in volumes.items()}
    dims = {v.dims for v in out.values()}
    if len(dims) > 1:
        raise ValueError(f"volumes must share dims, got {sorted(dims)}")
    return out


def _loss_and_grad(src: Volume, tgt: Volume, u_arr: np.ndarray, cfg: TrainConfig):
    if not np.isfinite(u_arr).all():
        return None, None
    u = DisplacementField(u_arr)
    # the first counted call of a step (bench/spans.py) runs here, on the caller, before any fork
    warped = warp_image(src, u)
    derivative = fork(u_arr[0].size, warp_derivative, src, u)
    bd = loss_mod.total_loss(warped, tgt, u, cfg.alpha, cfg.beta, cfg.cc_mode, cfg.cc_window)
    if not np.isfinite(bd.total):
        derivative()  # read, so that an error on the worker is not lost
        return None, None
    field = fork(u_arr[0].size, jacobian.regularizer_grad, u_arr, cfg.alpha, cfg.beta)
    grad_s = loss_mod.loss_backward(warped, tgt, cfg.cc_mode, cfg.cc_window)
    grad_u = field()
    grad_u += derivative() * grad_s
    return bd, grad_u


def _write_run(result: TrainResult, cfg: TrainConfig, out_dir) -> None:
    """Write loss_log.csv, config.txt and checkpoint.fck of a finished or diverged run."""
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result.log_path = out / "loss_log.csv"
    write_loss_log(result.log_rows, result.log_path)
    save_config(cfg, out / "config.txt")
    result.checkpoint_path = out / "checkpoint.fck"
    model_mod.save_checkpoint(result.checkpoint_path, result.meta, result.arrays)


def train(
    cfg: TrainConfig,
    volumes: dict[str, Volume],
    kind: str = "faim",
    out_dir=None,
    faim_config: model_mod.FaimConfig | None = None,
) -> TrainResult:
    """Train a model over all ordered pairs; see the module docstring.

    With ``out_dir`` set, writes checkpoint.fck, loss_log.csv and config.txt
    there, also when the run diverges: the checkpoint then holds the last
    good parameters and the log the completed steps.
    """
    cfg.validate()
    if kind not in ("faim", "direct"):
        raise ValueError(f"unknown model kind {kind!r}")
    if len(volumes) < 2:
        raise ValueError("training needs at least 2 volumes")
    vols = crop_volumes(volumes, cfg.crop)
    pairs = make_pairs(vols)
    dims = vols[pairs[0][0]].dims
    meta = {"kind": kind, "dims": ",".join(str(d) for d in dims), **cfg.to_meta()}
    result = TrainResult(meta=meta, arrays={}, log_rows=[], final=None)
    try:
        if kind == "faim":
            params = model_mod.build_faim(faim_config or model_mod.FaimConfig(), seed=cfg.seed)
            meta.update(params.config.to_meta())
            result.arrays = params.arrays()  # _fit updates, and on divergence restores, these in place
            state = optim.adam_init(result.arrays, lr=cfg.lr)
            rng = np.random.default_rng(cfg.seed)
            schedule = ((epoch, pairs[i]) for epoch in range(cfg.epochs) for i in rng.permutation(len(pairs)))
            _fit(params, state, schedule, vols, cfg, result.log_rows)
        else:
            for src_id, tgt_id in pairs:
                params = model_mod.direct_field_model(dims)
                result.arrays[f"field:{src_id}:{tgt_id}"] = params.tensors["field"].data
                state = optim.adam_init(params.arrays(), lr=cfg.lr)
                schedule = ((it, (src_id, tgt_id)) for it in range(cfg.steps))
                _fit(params, state, schedule, vols, cfg, result.log_rows)
    except TrainingDiverged as exc:
        _write_run(result, cfg, out_dir)
        exc.checkpoint_path = result.checkpoint_path
        raise
    result.final = result.log_rows[-1][-1]
    _write_run(result, cfg, out_dir)
    return result


def _fit(params, state, schedule, vols, cfg, rows) -> None:
    """Train ``params`` in place, one step per (epoch or iteration, pair) of ``schedule``.

    A step predicts the field, takes the loss and its gradient, backprops it
    into the parameters, clips, and updates them with Adam; it appends one log
    row to ``rows``, whose length numbers the steps. A non-finite loss or
    gradient sets the parameters back to the last good ones, those from before
    the update that led to it, and raises ``TrainingDiverged``. Only the
    parameters are snapshotted: ``state`` ends with the run, and no checkpoint
    stores it.
    """
    arrays = params.arrays()
    good = {name: a.copy() for name, a in arrays.items()}

    def diverged(reason):
        for name, a in arrays.items():
            np.copyto(a, good[name])
        return TrainingDiverged(f"{reason} at step {len(rows)} (pair {src_id}->{tgt_id})")

    for epoch, (src_id, tgt_id) in schedule:
        src, tgt = vols[src_id], vols[tgt_id]
        u_node = model_mod.predict(params, src, tgt)
        bd, grad_u = _loss_and_grad(src, tgt, u_node.data, cfg)
        if grad_u is None:
            raise diverged("loss diverged")
        backward(u_node, seed=grad_u)
        del u_node, grad_u  # the step's graph: its activations must not outlive backward
        grads = {name: t.grad for name, t in params.tensors.items()}
        if cfg.clip_norm:
            optim.clip_global_norm(grads, cfg.clip_norm)
        for name, a in arrays.items():
            np.copyto(good[name], a)
        try:
            optim.adam_step(arrays, grads, state)
        except optim.DivergenceError as exc:
            raise diverged(exc) from exc
        rows.append((len(rows), epoch, src_id, tgt_id, bd))
