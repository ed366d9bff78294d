"""Time FAIM training steps at one volume size and report the peak RSS.

    PYTHONPATH=src python scripts/measure_step.py --dims 64

Synthesizes two subjects, trains the default FAIM network for one epoch
(two steps, one per ordered pair; local CC, beta 0.01) and prints the wall
time of the training call and the peak resident set size of the process.
BLAS is pinned to one thread before numpy is imported, as in the benchmark.
Not part of the test suite: at 64^3 it takes seconds and close to a GiB.
"""

from __future__ import annotations

import argparse
import os
import resource
import time


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, default=64, help="edge length of the cubic volumes (divisible by 4)")
    args = ap.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    from foldreg import trainer

    ds = trainer.synth_dataset(seed=0, n=2, dims=(args.dims,) * 3)
    cfg = trainer.TrainConfig(epochs=1, beta=0.01)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    result = trainer.train(cfg, ds.volumes, kind="faim")
    elapsed = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"dims {args.dims}^3  steps {len(result.log_rows)}  train {elapsed:.2f} s  "
          f"peak RSS {peak:.0f} MiB (before training {before:.0f} MiB)  final loss {result.final.total!r}")


if __name__ == "__main__":
    main()
