"""Registration accuracy (Dice) and deformation quality (folding count).

For every ordered test pair the model predicts u, and ``evaluate`` computes
each quantity once:
- the source labels are warped with nearest-neighbor sampling, and mean Dice
  over the nonzero labels against the target labels comes from one label
  histogram: every id counted in the warped labels, in the target, and where
  the two agree;
- the source image is warped, and ``loss.loss_value`` gives the loss
  breakdown without any gradient and det(I + Du) from one Du;
- the folding count N is the number of negative determinants in that map.

Per-pair rows aggregate to unweighted means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import loss as loss_mod
# det_map is not called here; bench/spans.py patches it by name, so it stays importable
from .jacobian import det_map, folding_count  # noqa: F401
from .model import faim_forward, params_from_checkpoint
from .trainer import TrainConfig
from .volume import LABEL, DisplacementField, Volume, zero_field
from .warp import warp_image, warp_labels


def dice(x: np.ndarray, y: np.ndarray) -> float:
    """Overlap 2|X∩Y| / (|X|+|Y|) of two boolean masks; 1.0 when both empty."""
    x = np.asarray(x, dtype=bool)
    y = np.asarray(y, dtype=bool)
    if x.shape != y.shape:
        raise ValueError(f"dims mismatch: {x.shape} vs {y.shape}")
    nx = int(x.sum())
    ny = int(y.sum())
    if nx + ny == 0:
        return 1.0
    inter = int(np.count_nonzero(x & y))
    return 2.0 * inter / (nx + ny)


def _label_counts(x: np.ndarray, y: np.ndarray):
    """(ids, |x == id|, |y == id|, |x == id == y|) over the sorted ids present in either array.

    One bincount each, of the ids less the smallest one, so signed ids work;
    ids spread wider than the volume has voxels are first ranked by np.unique.
    """
    x, y = x.ravel(), y.ravel()
    lo = min(int(x.min()), int(y.min()))
    span = max(int(x.max()), int(y.max())) - lo + 1
    if span <= x.size:
        ids = np.arange(lo, lo + span)
        kx, ky = x.astype(np.intp), y.astype(np.intp)
        kx -= lo
        ky -= lo
    else:
        ids, rank = np.unique(np.concatenate([x, y]), return_inverse=True)
        span, kx, ky = len(ids), rank[:x.size], rank[x.size:]
    counts = (np.bincount(k, minlength=span) for k in (kx, ky, kx[x == y]))
    return ids, *counts


def mean_dice(warped: Volume, target: Volume):
    """Unweighted mean Dice over the union of nonzero labels; background excluded.

    Returns (mean, per_label dict). Each label's Dice is ``dice`` of its two
    masks, taken from the counts of one histogram (module docstring).
    """
    if warped.kind != LABEL or target.kind != LABEL:
        raise ValueError("mean_dice expects label volumes")
    if warped.dims != target.dims:
        raise ValueError(f"dims mismatch: {warped.dims} vs {target.dims}")
    ids, nx, ny, inter = _label_counts(warped.data, target.data)
    present = (nx + ny > 0) & (ids != 0)
    per_label = {
        i: 2.0 * n_xy / (n_x + n_y)
        for i, n_x, n_y, n_xy in zip(*(a[present].tolist() for a in (ids, nx, ny, inter)))
    }
    if not per_label:
        raise ValueError("no labels: both volumes contain only background")
    mean = float(np.mean(list(per_label.values()), dtype=np.float64))
    return mean, per_label


@dataclass(frozen=True)
class PairReport:
    source: str
    target: str
    mean_dice: float
    per_label: dict[int, float]
    n_fold: int
    image: float
    r1: float
    r2: float
    total: float


@dataclass(frozen=True)
class EvalResult:
    reports: list[PairReport]
    mean_dice: float
    mean_fold: float
    mean_image: float
    mean_r1: float
    mean_r2: float
    mean_total: float


def identity_predictor(src_id, tgt_id, src: Volume, tgt: Volume) -> DisplacementField:
    return zero_field(src.dims)


def checkpoint_predictor(meta: dict, arrays: dict):
    """Build a predictor closure from loaded checkpoint contents; malformed ones raise ``FormatError``."""
    params = params_from_checkpoint(meta, arrays)
    if params.kind == "faim":
        def predict(src_id, tgt_id, src, tgt):
            return faim_forward(params, src, tgt)

        return predict

    def predict(src_id, tgt_id, src, tgt):
        key = f"field:{src_id}:{tgt_id}"
        if key not in params.tensors:
            raise ValueError(f"checkpoint has no trained field for pair {src_id}->{tgt_id}")
        return DisplacementField(params.tensors[key].data)

    return predict


def evaluate(
    predictor,
    volumes: dict[str, Volume],
    labels: dict[str, Volume],
    pairs,
    alpha: float = TrainConfig.alpha,
    beta: float = TrainConfig.beta,
    cc_mode: str = TrainConfig.cc_mode,
    window: int = TrainConfig.cc_window,
) -> EvalResult:
    """Evaluate a predictor over ordered pairs; see the module docstring."""
    if not pairs:
        raise ValueError("no pairs to evaluate")
    for kind, have in (("volumes", volumes), ("labels", labels)):
        missing = {sid for p in pairs for sid in p if sid not in have}
        if missing:
            raise ValueError(f"no {kind} for subjects: {sorted(missing)}")
    reports = []
    for src_id, tgt_id in pairs:
        src, tgt = volumes[src_id], volumes[tgt_id]
        if src.dims != tgt.dims:
            raise ValueError(f"dims mismatch between {src_id} and {tgt_id}")
        u = predictor(src_id, tgt_id, src, tgt)
        if u.dims != src.dims:
            raise ValueError(
                f"predicted field dims {u.dims} do not match volume dims {src.dims}"
            )
        md, per_label = mean_dice(warp_labels(labels[src_id], u), labels[tgt_id])
        bd, det = loss_mod.loss_value(warp_image(src, u), tgt, u, alpha, beta, cc_mode, window)
        n_fold = folding_count(det)
        reports.append(
            PairReport(
                source=src_id,
                target=tgt_id,
                mean_dice=md,
                per_label=per_label,
                n_fold=n_fold,
                image=bd.image,
                r1=bd.r1,
                r2=bd.r2,
                total=bd.total,
            )
        )

    def agg(attr):
        return float(np.mean([getattr(r, attr) for r in reports], dtype=np.float64))

    return EvalResult(
        reports=reports,
        mean_dice=agg("mean_dice"),
        mean_fold=agg("n_fold"),
        mean_image=agg("image"),
        mean_r1=agg("r1"),
        mean_r2=agg("r2"),
        mean_total=agg("total"),
    )


REPORT_HEADER = "source,target,mean_dice,n_fold,image,r1,r2,total"


def report_csv(result: EvalResult) -> str:
    lines = [REPORT_HEADER]
    for r in result.reports:
        lines.append(
            f"{r.source},{r.target},{r.mean_dice!r},{r.n_fold},{r.image!r},{r.r1!r},{r.r2!r},{r.total!r}"
        )
    lines.append(
        f"mean,mean,{result.mean_dice!r},{result.mean_fold!r},{result.mean_image!r},"
        f"{result.mean_r1!r},{result.mean_r2!r},{result.mean_total!r}"
    )
    return "\n".join(lines) + "\n"


def per_label_csv(result: EvalResult) -> str:
    lines = ["source,target,label,dice"]
    for r in result.reports:
        for label_id in sorted(r.per_label):
            lines.append(f"{r.source},{r.target},{label_id},{r.per_label[label_id]!r}")
    return "\n".join(lines) + "\n"
