"""Fast self-test of the benchmark harness, at 8^3 with a few steps.

    python3 bench/selftest.py

Runs all three workload paths through ``run.main`` with tracing off and on,
and asserts that the last line of each run is the contract's JSON object with
every metric ``BENCHMARK.json`` declares, each with its declared unit, that
the checks pass, and that the exact work counts of a training step repeat.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace

import run

SMALL = {"faim_train": {"epochs": 1}, "direct_register": {"steps": 3}, "faim_eval": {}}
# per-step calls into the loss, jacobian and warp layers of one training step
STEP_COUNTS = {"loss.box_sums_per_step": 22.0, "jacobian.jacobian_raw_calls_per_step": 4.0,
               "warp.grid_passes_per_step": 2.0}


def main() -> int:
    run.pin_blas_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name, overrides in SMALL.items():
        w = workloads.WORKLOADS[name]
        # at 8^3 the identity field already reaches Dice ~0.86, so that check
        # only holds at full size
        workloads.WORKLOADS[name] = replace(w, dims=8, subjects=3, ckpt_subjects=min(w.ckpt_subjects, 3),
                                            beats_identity=False, train=replace(w.train, **overrides))
    # the recorded reference values belong to the full-size specs
    run.load_reference = lambda w, seed: (None, "not checked at 8^3")

    for name in SMALL:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
            result = json.loads(buf.getvalue().strip().splitlines()[-1])
            assert code == 0, code
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, buf.getvalue()
            declared = {m["name"]: m["unit"] for m in contract[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared, set(got) ^ set(declared)
            if trace and name != "faim_eval":
                for counter, expected in STEP_COUNTS.items():
                    assert result["metrics"][counter]["value"] == expected, (name, counter)
            print(f"ok  {name:<16} trace={trace}  {len(got)} metrics, {result['attempted']} steps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
