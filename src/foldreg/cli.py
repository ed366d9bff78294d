"""Command-line interface.

Subcommands: synth, train, register, evaluate, jmap, gradcheck, describe.
Exit codes: 0 success, 1 usage error, 2 runtime error. Results go to stdout,
diagnostics to stderr. Tabular output is CSV; plotting is left to external
tools.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import gradcheck as gradcheck_mod
from . import loss as loss_mod
from . import metrics, model, trainer
from .jacobian import det_map, det_volume, folding_count, folding_mask
from .optim import DivergenceError
from .trainer import TrainConfig, TrainingDiverged
from .volume import FormatError, load_field, load_volume, save_field, save_volume
from .warp import warp_image


class UsageError(argparse.ArgumentTypeError):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 per the CLI contract (argparse defaults to 2)
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_dims(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise UsageError(f"bad dims {text!r}: expected N or NX,NY,NZ")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad dims {text!r}") from exc
    if any(d < 4 or d % 4 != 0 for d in dims):
        raise UsageError(f"dims must be positive and divisible by 4, got {dims}")
    return dims


def _cmd_synth(args) -> int:
    dims = _parse_dims(args.dims)
    if args.n < 1 or args.labels < 1:
        raise UsageError("--n and --labels must be >= 1")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    ds = trainer.synth_dataset(args.seed, args.n, dims, args.labels)
    manifest = trainer.save_dataset(ds, args.out)
    print(manifest)
    return 0


def _cmd_train(args) -> int:
    cfg = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    ds = trainer.load_dataset(args.data)
    result = trainer.train(cfg, ds.volumes, kind=args.model, out_dir=args.out)
    bd = result.final
    print(f"checkpoint={result.checkpoint_path}")
    print(f"loss_log={result.log_path}")
    if bd is not None:
        print(
            f"final: image={bd.image!r} r1={bd.r1!r} r2={bd.r2!r} total={bd.total!r} "
            f"alpha={bd.alpha!r} beta={bd.beta!r}"
        )
    return 0


def _load_run(path):
    """A checkpoint's training settings and its predictor; malformed settings are a FormatError."""
    meta, arrays = model.load_checkpoint(path)
    return TrainConfig.from_checkpoint(meta), metrics.checkpoint_predictor(meta, arrays)


def _cmd_register(args) -> int:
    cfg, predict = _load_run(args.checkpoint)
    source, target = trainer.crop_volumes(
        {"source": load_volume(args.source), "target": load_volume(args.target)}, cfg.crop).values()
    src_id = Path(args.source).stem
    tgt_id = Path(args.target).stem
    u = predict(src_id, tgt_id, source, target)
    warped = warp_image(source, u)
    save_field(u, args.out_field)
    save_volume(warped, args.out_warped)
    print(f"field={args.out_field}")
    print(f"warped={args.out_warped}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg, predict = _load_run(args.checkpoint)
    ds = trainer.load_dataset(args.data)
    if not ds.labels:
        raise ValueError("unlabeled dataset: evaluation needs label volumes")
    result = metrics.evaluate(
        predict,
        trainer.crop_volumes(ds.volumes, cfg.crop),
        trainer.crop_volumes(ds.labels, cfg.crop),
        trainer.make_pairs(ds.ids),
        alpha=cfg.alpha,
        beta=cfg.beta,
        cc_mode=cfg.cc_mode,
        window=cfg.cc_window,
    )
    Path(args.report).write_text(metrics.report_csv(result))
    if args.per_label:
        Path(args.per_label).write_text(metrics.per_label_csv(result))
    print(f"pairs={len(result.reports)} mean_dice={result.mean_dice!r} mean_n_fold={result.mean_fold!r}")
    return 0


def _cmd_jmap(args) -> int:
    u = load_field(args.field)
    d = det_map(u)
    save_volume(det_volume(d), args.out_det)
    save_volume(folding_mask(d), args.out_mask)
    print(f"N={folding_count(d)}")
    return 0


def _cmd_gradcheck(args) -> int:
    try:
        results = gradcheck_mod.run_all(seed=args.seed, size=args.size)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max_rel_err={r.max_rel_err:.3e}  tol={r.tol:.1e}  {status}")
        failed = failed or not r.passed
    if failed:
        print("gradient check failed", file=sys.stderr)
        return 2
    return 0


def _cmd_describe(args) -> int:
    if args.checkpoint:
        meta, arrays = model.load_checkpoint(args.checkpoint)
        params = model.params_from_checkpoint(meta, arrays)
    else:
        try:
            cfg = model.FaimConfig.load(args.config) if args.config else model.FaimConfig()
        except ValueError as exc:
            raise UsageError(f"invalid config: {exc}") from exc
        params = model.build_faim(cfg, seed=0)
    print(model.describe(params))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="foldreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic labeled dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=4, help="number of subjects")
    p.add_argument("--dims", default="16", help="N or NX,NY,NZ, divisible by 4")
    p.add_argument("--labels", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_synth)

    # every TrainConfig field is a flag of the same dest, defaulted from the dataclass
    p = sub.add_parser("train", help="train a registration model")
    p.add_argument("--data", required=True, help="dataset directory or manifest")
    p.add_argument("--model", choices=("faim", "direct"), default="faim")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--steps", type=int, help="per-pair iterations (direct model)")
    p.add_argument("--seed", type=int)
    p.add_argument("--cc", dest="cc_mode", choices=tuple(loss_mod.CC_MODES))
    p.add_argument("--window", dest="cc_window", type=int)
    p.add_argument("--crop", type=_parse_dims, help="center-crop target dims: N or NX,NY,NZ")
    p.add_argument("--clip-norm", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train, **asdict(TrainConfig()))

    p = sub.add_parser("register", help="predict a field and warp a source volume")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out-field", required=True)
    p.add_argument("--out-warped", required=True)
    p.set_defaults(fn=_cmd_register)

    p = sub.add_parser("evaluate", help="Dice and folding report over all ordered pairs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True, help="output CSV path")
    p.add_argument("--per-label", default=None, help="optional per-label CSV path")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("jmap", help="determinant map and folding mask of a field")
    p.add_argument("--field", required=True)
    p.add_argument("--out-det", required=True)
    p.add_argument("--out-mask", required=True)
    p.set_defaults(fn=_cmd_jmap)

    p = sub.add_parser("gradcheck", help="finite-difference verification of all gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=5)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("describe", help="architecture table and parameter count")
    p.add_argument("--config", default=None, help="key=value model config file")
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(fn=_cmd_describe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"foldreg: error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"foldreg: training diverged: {exc}", file=sys.stderr)
        if exc.checkpoint_path:
            print(f"foldreg: last good checkpoint kept at {exc.checkpoint_path}", file=sys.stderr)
        return 2
    except (FormatError, DivergenceError, ValueError, OSError) as exc:
        print(f"foldreg: error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
