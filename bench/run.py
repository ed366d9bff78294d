"""foldreg benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload faim_train --seed 0 --seconds 40 --trace 0

Builds nothing: it imports ``foldreg`` from ``src/`` of the checkout it sits
in, pins BLAS to one thread before numpy is imported, sets the workload up,
then runs rounds of the workload for ``--seconds`` (see ``workloads.py``),
setting it up again after each round for at least ``SETUP_SECONDS_PER_ROUND``;
``setup_s`` is the median of all set-ups. Times are rescaled to a reference
host speed by a fixed yardstick kernel timed next to each step and each
set-up (``yardstick.py``); the wall-clock figures are printed too, under
``wall.``, but are not part of the result. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced
and traced rounds and reports the per-layer metrics, the tracing overhead,
and writes the spans to ``bench/out/``.

Every metric is printed with its unit and sample count; the last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed`` steps, and
the metrics that ``BENCHMARK.json`` declares for the trace mode. A step that
raised, or whose round failed a check, counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from itertools import cycle, repeat
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREADS = 1
SETUP_SECONDS_PER_ROUND = 0.4


def pin_blas_threads() -> None:
    """Must run before numpy is imported; threadpoolctl is not available."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def run_metadata(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "commit": commit,
    }


def measure(w, seed: int, seconds: float, trace: bool, reference: dict | None, layer_names):
    """Set up, run rounds for ``seconds``; returns (metrics, attempted, failed, problems, tracer).

    ``metrics`` maps name -> (value, unit, samples).
    """
    import numpy as np

    import workloads
    from spans import Stepper, Tracer, patched
    from yardstick import Yardstick

    tracer = Tracer() if trace else None
    yardstick = Yardstick()
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    setup_s, setup_wall_s = [], []

    def set_up():
        with tempfile.TemporaryDirectory(dir=out_dir) as workdir, patched(tracer.targets() if trace else ()):
            before = yardstick()
            t0 = perf_counter()
            state = workloads.setup(w, seed, workdir)
            seconds = perf_counter() - t0
            setup_s.append(yardstick.rescale(seconds, before, yardstick()))
            setup_wall_s.append(seconds)
        return state

    state = set_up()
    identity = workloads.identity_dice(w, state) if w.beats_identity else None

    steppers = {False: Stepper(yardstick=yardstick),
                True: Stepper(tracer, "metrics.pair" if w.evaluate else "trainer.step")}
    kinds = cycle((False, True)) if trace else repeat(False)
    min_rounds = 2 if trace else 1
    attempted = failed = rounds = 0
    problems: list[str] = []
    first = None
    start = perf_counter()
    while True:
        traced = next(kinds)
        stepper = steppers[traced]
        before = len(stepper.step_ms)
        try:
            with patched(tracer.targets() if traced else ()):
                quality, round_problems = workloads.run_round(w, state, seed, stepper)
        except Exception:  # a step that raised is a failed step; report, do not crash
            n = len(stepper.step_ms) - before + 1
            attempted += n
            failed += n
            problems.append(traceback.format_exc())
            break
        round_problems += workloads.check(w, quality, first, reference, identity)
        first = first or quality
        n = len(stepper.step_ms) - before
        attempted += n
        failed += n if round_problems else 0
        problems += round_problems
        rounds += 1
        # set-up again between rounds, so its median samples the whole run
        t0 = perf_counter()
        while len(setup_s) <= rounds or perf_counter() - t0 < SETUP_SECONDS_PER_ROUND:
            set_up()
        elapsed = perf_counter() - start
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            break

    plain = steppers[False]
    metrics = {}
    if first is not None:
        metrics["final_loss"] = (first.final_loss, "1", rounds)
        metrics["mean_dice"] = (first.mean_dice, "1", rounds)
        metrics["mean_fold"] = (first.mean_fold, "voxels", rounds)
    if identity is not None:
        metrics["identity_dice"] = (identity, "1", 1)
    metrics["fail_ratio"] = (failed / max(attempted, 1), "1", attempted)
    metrics["setup_s"] = (statistics.median(setup_s), "s", len(setup_s))
    if plain.step_ms:
        n = len(plain.ref_ms)
        metrics["step_ms_p50"] = (float(np.percentile(plain.ref_ms, 50)), "ms", n)
        metrics["step_ms_p90"] = (float(np.percentile(plain.ref_ms, 90)), "ms", n)
        metrics["steps_per_s"] = (1e3 * n / sum(plain.ref_ms), "1/s", n)
        n = len(plain.step_ms)
        metrics["wall.step_ms_p50"] = (float(np.percentile(plain.step_ms, 50)), "ms", n)
        metrics["wall.step_ms_p90"] = (float(np.percentile(plain.step_ms, 90)), "ms", n)
        metrics["wall.steps_per_s"] = (_rate(plain), "1/s", len(plain.round_s))
    metrics["wall.setup_s"] = (statistics.median(setup_wall_s), "s", len(setup_wall_s))
    if plain.yardstick_ms:
        metrics["wall.yardstick_ms"] = (statistics.median(plain.yardstick_ms), "ms", len(plain.yardstick_ms))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1)
    if trace:
        for name, (value, samples) in tracer.layer_metrics(layer_names).items():
            metrics[name] = (value, _layer_unit(name), samples)
        traced = steppers[True]
        if plain.step_ms and traced.step_ms:
            metrics["trace.steps_per_s_untraced"] = (_rate(plain), "1/s", len(plain.round_s))
            metrics["trace.steps_per_s_traced"] = (_rate(traced), "1/s", len(traced.round_s))
            overhead = 100.0 * (_rate(plain) / _rate(traced) - 1.0)
            metrics["trace.overhead_pct"] = (overhead, "%", len(plain.round_s) + len(traced.round_s))
    return metrics, attempted, failed, problems, tracer


def _rate(stepper) -> float:
    return sum(stepper.round_steps) / sum(stepper.round_s)


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("mflop"):
        return "MFLOP"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def load_reference(w, seed: int) -> tuple[dict | None, str]:
    path = BENCH_DIR / "reference.json"
    recorded = json.loads(path.read_text())["workloads"].get(w.name)
    if recorded is None:
        return None, "none recorded for this workload"
    if recorded["spec"] != json.loads(json.dumps(w.spec())):
        raise SystemExit(f"error: {path} was recorded for another {w.name} spec; re-record it")
    ref = recorded["seeds"].get(str(seed))
    return ref, "checked" if ref else "not recorded for this seed: invariants only"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    contract = ROOT / "BENCHMARK.json"
    if not (src / "foldreg" / "__init__.py").is_file() or not contract.is_file():
        print(f"error: run from a foldreg checkout; {src}/foldreg or {contract} is missing",
              file=sys.stderr)
        return 2
    declared = json.loads(contract.read_text())["per_layer" if args.trace else "end_to_end"]
    pin_blas_threads()
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    reference, ref_status = load_reference(w, args.seed)
    meta = run_metadata(args.seed)
    meta.update(workload=w.name, seconds=args.seconds, trace=args.trace, reference=ref_status)
    print("# run " + json.dumps(meta), flush=True)

    layer_names = [m["name"] for m in declared] if args.trace else []
    metrics, attempted, failed, problems, tracer = measure(
        w, args.seed, args.seconds, bool(args.trace), reference, layer_names)
    if tracer is not None:
        spans_path = BENCH_DIR / "out" / f"spans-{w.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"# spans written to {spans_path.relative_to(ROOT)}")

    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<40} {value:>16.6f} {unit:<6} samples={samples}")
    for p in problems:
        print("# check failed: " + p.strip().replace("\n", "\n#   "))

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:  # no step completed: the failed checks above say why
        print("error: not measured: " + ", ".join(missing), file=sys.stderr)
        return 1
    out = {}
    for m in declared:
        value, unit, _ = metrics[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"error: {m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
