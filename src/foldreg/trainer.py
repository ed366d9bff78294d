"""Training loop, ordered-pair protocol, and the synthetic desk-scale dataset.

Training iterates over all ordered (source, target) pairs of distinct
subjects: n subjects give n*(n-1) pairs. One pair per step; per step the
model predicts u, the source is warped, the total loss and its analytic
gradients are evaluated, and Adam updates the parameters. For the ``faim``
kind one parameter set is trained across shuffled pairs for ``epochs``
epochs; for the ``direct`` kind each pair gets its own zero-initialized field
optimized for ``steps`` iterations (classical per-pair registration).

A NaN/Inf loss or gradient aborts the run with ``TrainingDiverged`` and keeps
the last good checkpoint: the parameters (and Adam state) from before the
update that led to the non-finite value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import loss as loss_mod
from . import model as model_mod
from . import optim
from .autodiff import Tensor, backward
from .jacobian import jacobian_raw
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
from .warp import warp_backward, warp_image, warp_labels


class TrainingDiverged(RuntimeError):
    def __init__(self, message, checkpoint_path=None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


@dataclass(frozen=True)
class TrainConfig:
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
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.epochs < 1 or self.steps < 1:
            raise ValueError("epochs and steps must be >= 1")
        if self.cc_window < 1 or self.cc_window % 2 == 0:
            raise ValueError("cc window must be odd")
        if self.cc_mode not in (loss_mod.LOCAL, loss_mod.GLOBAL):
            raise ValueError(f"unknown cc mode {self.cc_mode!r}")

    def to_meta(self) -> dict[str, str]:
        return {
            "lr": repr(self.lr),
            "epochs": str(self.epochs),
            "alpha": repr(self.alpha),
            "beta": repr(self.beta),
            "cc_mode": self.cc_mode,
            "cc_window": str(self.cc_window),
            "seed": str(self.seed),
            "crop": ",".join(str(c) for c in self.crop) if self.crop else "none",
            "clip_norm": repr(self.clip_norm) if self.clip_norm else "none",
            "steps": str(self.steps),
        }

    @classmethod
    def from_meta(cls, meta) -> "TrainConfig":
        crop = meta.get("crop", "none")
        clip = meta.get("clip_norm", "none")
        cfg = cls(
            lr=float(meta.get("lr", 1e-4)),
            epochs=int(meta.get("epochs", 10)),
            alpha=float(meta.get("alpha", 1.0)),
            beta=float(meta.get("beta", 0.0)),
            cc_mode=meta.get("cc_mode", loss_mod.LOCAL),
            cc_window=int(meta.get("cc_window", loss_mod.DEFAULT_WINDOW)),
            seed=int(meta.get("seed", 0)),
            crop=None if crop == "none" else tuple(int(c) for c in crop.split(",")),
            clip_norm=None if clip == "none" else float(clip),
            steps=int(meta.get("steps", 100)),
        )
        cfg.validate()
        return cfg


def save_config(cfg: TrainConfig, path) -> None:
    Path(path).write_text("".join(f"{k}={v}\n" for k, v in cfg.to_meta().items()))


def load_config(path) -> TrainConfig:
    meta = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            k, _, v = line.partition("=")
            meta[k.strip()] = v.strip()
    return TrainConfig.from_meta(meta)


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
    grid = np.indices(dims).astype(np.float64)
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
    grid = np.indices(dims).astype(np.float64)
    u = np.zeros((3, *dims))
    for c in range(3):
        for a in range(3):
            freq = rng.choice([0.5, 1.0])
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.uniform(0.5, 1.0)
            u[c] += amp * np.cos(2.0 * np.pi * freq * grid[a] / dims[a] + phase)
    D = jacobian_raw(u)
    worst = np.abs(D).sum(axis=1).max()
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
        vol = normalize_intensity(warp_image(base_vol, u).warped)
        ds.ids.append(sid)
        ds.volumes[sid] = Volume(vol.data.astype(np.float32), INTENSITY)
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
    for lineno, line in enumerate(manifest.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{manifest}:{lineno}: expected 'kind id path', got {line!r}")
        entry_kind, sid, rel = parts
        path = root / rel
        if entry_kind == "volume":
            ds.volumes[sid] = load_volume(path)
            if sid not in ds.ids:
                ds.ids.append(sid)
        elif entry_kind == "label":
            ds.labels[sid] = load_volume(path)
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


def _prepare_volumes(volumes: dict[str, Volume], cfg: TrainConfig) -> dict[str, Volume]:
    if len(volumes) < 2:
        raise ValueError("training needs at least 2 volumes")
    out = {}
    for sid, vol in volumes.items():
        if cfg.crop:
            vol = center_crop(vol, cfg.crop)
        out[sid] = vol
    dims = {v.dims for v in out.values()}
    if len(dims) != 1:
        raise ValueError(f"volumes must share dims after cropping, got {sorted(dims)}")
    return out


def _loss_and_grad(src: Volume, tgt: Volume, u_arr: np.ndarray, cfg: TrainConfig):
    if not np.isfinite(u_arr).all():
        return None, None
    u = DisplacementField(u_arr)
    warped = warp_image(src, u)
    bd = loss_mod.total_loss(warped.warped, tgt, u, cfg.alpha, cfg.beta, cfg.cc_mode, cfg.cc_window)
    if not np.isfinite(bd.total):
        return None, None
    grad_s, grad_u = loss_mod.loss_backward(
        warped.warped, tgt, u, cfg.alpha, cfg.beta, cfg.cc_mode, cfg.cc_window
    )
    grad_u += warp_backward(src, u, grad_s)
    return bd, grad_u


def _dump_checkpoint(out_dir, meta, arrays) -> Path | None:
    if out_dir is None:
        return None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "checkpoint.fck"
    model_mod.save_checkpoint(path, meta, arrays)
    return path


def train(
    cfg: TrainConfig,
    volumes: dict[str, Volume],
    kind: str = "faim",
    out_dir=None,
    faim_config: model_mod.FaimConfig | None = None,
) -> TrainResult:
    """Train a model over all ordered pairs; see the module docstring.

    With ``out_dir`` set, writes checkpoint.fck, loss_log.csv and config.txt
    there. On divergence the last good parameters are written before raising.
    """
    cfg.validate()
    if kind not in ("faim", "direct"):
        raise ValueError(f"unknown model kind {kind!r}")
    vols = _prepare_volumes(volumes, cfg)
    ids = sorted(vols)
    pairs = make_pairs(ids)
    dims = vols[ids[0]].dims

    base_meta = {"kind": kind, "dims": ",".join(str(d) for d in dims)}
    base_meta.update(cfg.to_meta())

    if kind == "faim":
        result = _train_faim(cfg, vols, pairs, base_meta, out_dir, faim_config)
    else:
        result = _train_direct(cfg, vols, pairs, base_meta, out_dir)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        result.log_path = out / "loss_log.csv"
        write_loss_log(result.log_rows, result.log_path)
        save_config(cfg, out / "config.txt")
        result.checkpoint_path = _dump_checkpoint(out_dir, result.meta, result.arrays)
    return result


def _train_faim(cfg, vols, pairs, base_meta, out_dir, faim_config):
    params = model_mod.build_faim(faim_config or model_mod.FaimConfig(), seed=cfg.seed)
    arrays = params.arrays()
    state = optim.adam_init(arrays, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    meta = dict(base_meta)
    meta.update(params.config.to_meta())

    # parameters and Adam state before the latest update: the last ones whose
    # loss and gradient were both finite
    def snapshot():
        return _with_adam({k: v.copy() for k, v in arrays.items()}, state), state.t

    def diverged(message):
        meta["adam_t"] = str(good_t)
        return TrainingDiverged(message, _dump_checkpoint(out_dir, meta, good))

    good, good_t = snapshot()
    rows = []
    final_bd = None
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(pairs))
        for idx in order:
            src_id, tgt_id = pairs[idx]
            src, tgt = vols[src_id], vols[tgt_id]
            x = Tensor(np.stack([src.data, tgt.data]).astype(np.float32, copy=False), requires_grad=False)
            u_node = model_mod.faim_apply(params, x)
            bd, grad_u = _loss_and_grad(src, tgt, u_node.data, cfg)
            if grad_u is None:
                raise diverged(f"loss diverged at step {step} (pair {src_id}->{tgt_id})")
            backward(u_node, seed=grad_u)
            grads = {name: t.grad for name, t in params.tensors.items()}
            if cfg.clip_norm:
                optim.clip_global_norm(grads, cfg.clip_norm)
            good, good_t = snapshot()
            try:
                optim.adam_step(arrays, grads, state)
            except optim.DivergenceError as exc:
                raise diverged(f"{exc} at step {step} (pair {src_id}->{tgt_id})") from exc
            rows.append((step, epoch, src_id, tgt_id, bd))
            final_bd = bd
            step += 1
    meta["adam_t"] = str(state.t)
    return TrainResult(meta=meta, arrays=_with_adam(arrays, state), log_rows=rows, final=final_bd)


def _train_direct(cfg, vols, pairs, base_meta, out_dir):
    dims = vols[sorted(vols)[0]].dims
    meta = dict(base_meta)
    out_arrays: dict[str, np.ndarray] = {}
    rows = []
    final_bd = None
    step = 0
    for src_id, tgt_id in pairs:
        src, tgt = vols[src_id], vols[tgt_id]
        params = model_mod.direct_field_model(dims)
        field_arr = params.tensors["field"].data
        state = optim.adam_init({"field": field_arr}, lr=cfg.lr)

        # the field before the latest update: the last one whose loss and
        # gradient were both finite
        last_good = field_arr.copy()

        def diverged(message):
            out_arrays[f"field:{src_id}:{tgt_id}"] = last_good
            return TrainingDiverged(message, _dump_checkpoint(out_dir, meta, out_arrays))

        for it in range(cfg.steps):
            bd, grad_u = _loss_and_grad(src, tgt, field_arr, cfg)
            if grad_u is None:
                raise diverged(f"loss diverged optimizing pair {src_id}->{tgt_id} at iteration {it}")
            grads = {"field": grad_u}
            if cfg.clip_norm:
                optim.clip_global_norm(grads, cfg.clip_norm)
            np.copyto(last_good, field_arr)
            try:
                optim.adam_step({"field": field_arr}, grads, state)
            except optim.DivergenceError as exc:
                raise diverged(f"{exc} optimizing pair {src_id}->{tgt_id} at iteration {it}") from exc
            rows.append((step, it, src_id, tgt_id, bd))
            final_bd = bd
            step += 1
        out_arrays[f"field:{src_id}:{tgt_id}"] = field_arr.copy()
    return TrainResult(meta=meta, arrays=out_arrays, log_rows=rows, final=final_bd)


def _with_adam(arrays: dict[str, np.ndarray], state: optim.AdamState) -> dict[str, np.ndarray]:
    out = dict(arrays)
    for name in arrays:
        out[f"adam.m:{name}"] = state.m[name].astype(np.float32)
        out[f"adam.v:{name}"] = state.v[name].astype(np.float32)
    return out
