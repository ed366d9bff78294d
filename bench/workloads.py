"""The benchmark's workloads: set-up, one timed round, and its checks.

Each workload is a closed loop in one process, batch one, through the public
API. A round is a fixed amount of work that starts from the same state, so
its outputs repeat: the quality values of every round are compared with the
first round's and with the values recorded for the seed in
``reference.json``.

* ``faim_train``: ``trainer.train`` of the FAIM network at 16^3, 12 ordered
  pairs, 2 epochs. The tape backward is most of a step, so ``autodiff`` and
  ``model`` changes show here; loss, warp and jacobian are a few percent.
* ``direct_register``: ``trainer.train`` of the direct model at 32^3, 6 pairs,
  20 steps each. No autodiff; all time is warp, loss, jacobian and Adam, and
  over a tenth of the final voxels fold, so R2's active set is not empty.
* ``faim_eval``: ``metrics.evaluate`` of a FAIM checkpoint on all 30 pairs of
  6 subjects at 32^3: forward-only conv layers plus the forward loss stack.
  Set-up trains the checkpoint on 8^3 center crops, a size whose training
  peak stays below the evaluation's, so ``peak_rss_mb`` shows the forward
  window memory; ``model.load_checkpoint`` reads it back.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from foldreg import metrics, model, trainer
from foldreg.trainer import TrainConfig
from spans import patched


@dataclass(frozen=True)
class Workload:
    name: str
    dims: int
    subjects: int
    train: TrainConfig             # the round's training run, or the set-up's (evaluate)
    model: str = "faim"
    evaluate: bool = False         # rounds evaluate a checkpoint trained in set-up
    ckpt_subjects: int = 0         # subjects whose pairs train that checkpoint
    beats_identity: bool = False   # mean Dice must beat the identity field's

    def spec(self) -> dict:
        """JSON form of everything that determines the outputs for a seed."""
        return {k: v for k, v in asdict(self).items() if k != "name"}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("faim_train", dims=16, subjects=4,
                 train=TrainConfig(lr=1e-4, epochs=2, alpha=1.0, beta=1e-2, cc_window=9)),
        Workload("direct_register", dims=32, subjects=3, model="direct", beats_identity=True,
                 train=TrainConfig(lr=0.1, steps=20, alpha=0.01, beta=0.01, cc_window=9)),
        Workload("faim_eval", dims=32, subjects=6, evaluate=True, ckpt_subjects=4,
                 train=TrainConfig(lr=6e-3, epochs=1, alpha=1.0, beta=1e-2, cc_window=9,
                                   crop=(8, 8, 8))),
    )
}

# Reference values may differ from a run by |a - b| <= abs + rel * |b|: wide
# enough for a change that only reorders float arithmetic, far narrower than
# the gap between a working and a broken loss, warp or conv layer.
TOLERANCE = {"final_loss": (1e-3, 0.0), "mean_dice": (0.0, 5e-3), "mean_fold": (0.02, 2.0)}


@dataclass
class State:
    dataset: trainer.Dataset
    pairs: list
    predictor: object = None


@dataclass(frozen=True)
class Quality:
    final_loss: float  # mean total loss over the workload's pairs
    mean_dice: float
    mean_fold: float   # mean folding count N per pair


def setup(w: Workload, seed: int, workdir) -> State:
    """Synthesize the subjects and, for evaluation, train and load the checkpoint."""
    ds = trainer.synth_dataset(seed, w.subjects, (w.dims,) * 3)
    state = State(ds, trainer.make_pairs(ds.ids))
    if w.evaluate:
        vols = {sid: ds.volumes[sid] for sid in ds.ids[: w.ckpt_subjects]}
        res = trainer.train(replace(w.train, seed=seed), vols, kind=w.model, out_dir=workdir)
        meta, arrays = model.load_checkpoint(res.checkpoint_path)
        state.predictor = metrics.checkpoint_predictor(meta, arrays)
    return state


def _evaluate(w: Workload, state: State, predictor) -> metrics.EvalResult:
    cfg = w.train
    return metrics.evaluate(predictor, state.dataset.volumes, state.dataset.labels, state.pairs,
                            alpha=cfg.alpha, beta=cfg.beta, cc_mode=cfg.cc_mode, window=cfg.cc_window)


def identity_dice(w: Workload, state: State) -> float:
    return _evaluate(w, state, metrics.identity_predictor).mean_dice


def run_round(w: Workload, state: State, seed: int, stepper) -> tuple[Quality, list[str]]:
    """One round of the timed loop; returns its quality and the checks it failed.

    Training rounds end a step at each ``optim.adam_step``; their quality is
    evaluated after the round, outside the timed region. Evaluation rounds
    start a step at each predictor call.
    """
    problems: list[str] = []
    if w.evaluate:
        def predict(*args):
            u = state.predictor(*args)
            if not np.isfinite(u.data).all():
                problems.append(f"non-finite field for pair {args[0]}->{args[1]}")
            return u

        stepper.begin(first_is_step=False)
        try:
            ev = _evaluate(w, state, stepper.before(predict))
        finally:
            stepper.end(keep_last=True)
    else:
        stepper.begin(first_is_step=True)
        try:
            with patched([(trainer.optim, "adam_step", stepper.after)]):
                res = trainer.train(replace(w.train, seed=seed), state.dataset.volumes, kind=w.model)
        finally:
            stepper.end(keep_last=False)
        problems += [f"non-finite loss at step {row[0]}" for row in res.log_rows
                     if not np.isfinite(row[4].total)]
        problems += [f"non-finite parameter {name}" for name, a in res.arrays.items()
                     if not np.isfinite(a).all()]
        ev = _evaluate(w, state, metrics.checkpoint_predictor(res.meta, res.arrays))
    problems += [f"non-finite loss for pair {r.source}->{r.target}" for r in ev.reports
                 if not np.isfinite(r.total)]
    return Quality(ev.mean_total, ev.mean_dice, ev.mean_fold), problems


def check(w: Workload, q: Quality, first: Quality | None, reference: dict | None,
          identity: float | None) -> list[str]:
    """Checks of a round's quality: reference values, repeatability, identity baseline."""
    problems = []
    for name, (rel, abs_) in TOLERANCE.items():
        value = getattr(q, name)
        for label, expected in (("reference", reference and reference[name]),
                                ("first round", first and getattr(first, name))):
            if expected is not None and not abs(value - expected) <= abs_ + rel * abs(expected):
                problems.append(f"{name} {value!r} differs from the {label}'s {expected!r}")
    if w.beats_identity and not q.mean_dice > identity:
        problems.append(f"mean_dice {q.mean_dice!r} does not beat the identity field's {identity!r}")
    return problems
