"""Smoke test of scripts/measure_step.py, the script behind the README's step times and peaks.

Each mode runs at 8^3 in its own process, as the script's docstring asks, with
PYTHONPATH unset; the FAIM modes also run at 8 x 12 x 16, so the convolution
kernels see D != H != W.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_TAIL = r"\d+ usable CPUs  peak RSS \d+ MiB \(before \d+ MiB\)  \d+ minor page faults\n"


def _run(dims, mode):
    # PYTHONPATH unset: the script imports the package from its own checkout
    env = {var: value for var, value in os.environ.items() if var != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "scripts/measure_step.py", "--dims", dims, *mode], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


# what each mode prints before the wall time: both training modes give their ms per step
_SUMMARY = {
    "train": r"train 2 steps  final loss \S+  \d+\.\d ms per step",
    "direct": r"direct 6 steps  final loss \S+  \d+\.\d ms per step",
    "evaluate": r"evaluate 1 pair  mean Dice \S+  total \S+",
}
_MODES = {"train": [], "direct": ["--direct"], "evaluate": ["--evaluate"]}


@pytest.mark.parametrize("mode", ["train", "direct", "evaluate"])
def test_measure_step_runs(mode):
    out = _run("8", _MODES[mode])
    assert re.fullmatch(rf"dims 8x8x8  {_SUMMARY[mode]}  \d+\.\d\d s  {_TAIL}", out), out


@pytest.mark.parametrize("mode", ["train", "evaluate"])
def test_measure_step_anisotropic(mode):
    out = _run("8,12,16", _MODES[mode])
    assert re.fullmatch(rf"dims 8x12x16  {_SUMMARY[mode]}  \d+\.\d\d s  {_TAIL}", out), out
