"""Record each workload's quality values per seed into ``bench/reference.json``.

    python3 bench/record_reference.py --seeds 0-31

``run.py`` compares every round against these values within
``workloads.TOLERANCE``. Re-record only when a workload's spec changes (the
file stores the spec and ``run.py`` refuses a stale one), never to make a
changed program pass. Refuses to record a seed whose round fails a check.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import asdict

from run import BENCH_DIR, ROOT, pin_blas_threads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import Stepper

    work_root = BENCH_DIR / "out"
    work_root.mkdir(exist_ok=True)
    out = {"workloads": {}}
    for w in workloads.WORKLOADS.values():
        recorded = {}
        for seed in seeds:
            with tempfile.TemporaryDirectory(dir=work_root) as workdir:
                state = workloads.setup(w, seed, workdir)
            quality, problems = workloads.run_round(w, state, seed, Stepper())
            identity = workloads.identity_dice(w, state) if w.beats_identity else None
            problems += workloads.check(w, quality, None, None, identity)
            if problems:
                print(f"{w.name} seed {seed}: " + "; ".join(problems), file=sys.stderr)
                return 1
            recorded[str(seed)] = asdict(quality)
            print(w.name, seed, recorded[str(seed)], flush=True)
        out["workloads"][w.name] = {"spec": w.spec(), "seeds": recorded}
    (BENCH_DIR / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
