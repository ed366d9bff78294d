"""The benchmark harness still runs against the package.

The tracer in ``bench/`` patches entry points by name (``autodiff.conv3d``,
``Tensor.backward_fn``, ``trainer.backward``, ...), so renaming one breaks the
benchmark; its 8^3 self-test catches that here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
