"""Time FAIM or direct training steps, or one evaluated pair, at one volume size and report the peak RSS.

    python3 scripts/measure_step.py --dims 64
    python3 scripts/measure_step.py --dims 64 --evaluate
    python3 scripts/measure_step.py --dims 96 --direct
    python3 scripts/measure_step.py --dims 144,180,144 --evaluate

Synthesizes two subjects. By default it trains the default FAIM network for
one epoch (two steps, one per ordered pair; local CC, beta 0.01). With
``--direct`` it instead fits the direct model for three steps per ordered
pair (six steps) with the settings of the ``direct_register`` benchmark
workload: lr 0.1, alpha 0.01, beta 0.01, local CC with a 9^3 window. With
``--evaluate`` it runs ``metrics.evaluate`` on one pair with an
untrained network, loaded through ``metrics.checkpoint_predictor`` as
``foldreg evaluate`` does. It prints the wall time of that call, the peak
resident set size of the process, so run each phase in its own process to get
its own peak, the minor page faults taken during the call, and the number of
CPUs the process may run on: with two or more, the field half of the loss
stack and half of each convolution row's epilogue run on a second thread at
2^14 voxels or more (``foldreg._forkjoin``). BLAS is pinned to one thread before
numpy is imported, as in the benchmark. The package is imported from the
``src`` directory of the checkout that holds this script, so it runs with no
install and no PYTHONPATH. The test suite runs each mode at 8^3, and the FAIM modes also at
8x12x16, and no larger: at 64^3 it takes seconds and hundreds of MiB, at
144x180x144 a minute and several GiB.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _dims(text: str) -> tuple[int, int, int]:
    """``D`` for a cube or ``D,H,W``."""
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}") from exc
    if len(parts) == 1:
        parts *= 3
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}: expected D or D,H,W")
    return tuple(parts)


def _peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=_dims, default=(64, 64, 64),
                    help="D or D,H,W: volume extents (each divisible by 4)")
    phase = ap.add_mutually_exclusive_group()
    phase.add_argument("--evaluate", action="store_true",
                       help="time one evaluated pair of an untrained network instead of training")
    phase.add_argument("--direct", action="store_true",
                       help="time direct-model steps (3 per ordered pair) instead of FAIM training")
    args = ap.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    from foldreg import metrics, model, trainer
    from foldreg._forkjoin import usable_cpus

    ds = trainer.synth_dataset(seed=0, n=2, dims=args.dims)
    cfg = trainer.TrainConfig(epochs=1, beta=0.01)
    size = "x".join(map(str, args.dims))
    if args.evaluate:
        params = model.build_faim(seed=0)
        meta = {"kind": "faim", **params.config.to_meta()}
        predict = metrics.checkpoint_predictor(meta, params.arrays())
        before, faults = _peak_mib(), _minor_faults()
        start = time.perf_counter()
        result = metrics.evaluate(predict, ds.volumes, ds.labels, [tuple(ds.ids)],
                                  alpha=cfg.alpha, beta=cfg.beta, cc_mode=cfg.cc_mode, window=cfg.cc_window)
        summary = f"evaluate 1 pair  mean Dice {result.mean_dice!r}  total {result.mean_total!r}"
    elif args.direct:
        cfg = trainer.TrainConfig(lr=0.1, steps=3, alpha=0.01, beta=0.01)
        before, faults = _peak_mib(), _minor_faults()
        start = time.perf_counter()
        result = trainer.train(cfg, ds.volumes, kind="direct")
        summary = f"direct {len(result.log_rows)} steps  final loss {result.final.total!r}"
    else:
        before, faults = _peak_mib(), _minor_faults()
        start = time.perf_counter()
        result = trainer.train(cfg, ds.volumes, kind="faim")
        summary = f"train {len(result.log_rows)} steps  final loss {result.final.total!r}"
    elapsed = time.perf_counter() - start
    faults = _minor_faults() - faults
    if args.direct:
        summary += f"  {1e3 * elapsed / len(result.log_rows):.0f} ms per step"
    print(f"dims {size}  {summary}  {elapsed:.2f} s  {usable_cpus()} usable CPUs  "
          f"peak RSS {_peak_mib():.0f} MiB (before {before:.0f} MiB)  {faults} minor page faults")


if __name__ == "__main__":
    main()
