"""Mutation check of the numeric core: each listed mutant must fail the tests named for it.

A mutant is a one-place edit of a source file: (name, file, old text, new
text, tests expected to kill it). The old text occurs exactly once in its
file; ``tests/test_mutants.py`` checks that in tier-1, so an edit of the code
cannot leave the list stale silently.

For each mutant, the script copies ``src/``, ``tests/``, ``bench/``,
``scripts/`` and ``pyproject.toml`` into a temporary directory, replaces the
old text there, and runs pytest on the mutant's tests under one BLAS thread.
A failing run kills the mutant. The repository itself is never written.

    python scripts/mutants.py            # every mutant, under a minute
    python scripts/mutants.py NAME ...   # the named ones

It prints one line per mutant, killed or survived, with the first failing
test, and exits 1 if any mutant survived. First it runs all the chosen
mutants' tests on an unmutated copy, and exits 2 if they fail there. It is
not part of tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "scripts", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


AD, WARP, OPTIM = "src/foldreg/autodiff.py", "src/foldreg/warp.py", "src/foldreg/optim.py"

MUTANTS = (
    Mutant("points_sign", WARP,
           "np.add(x, u.data[axis], out=out[axis])",
           "np.subtract(x, u.data[axis], out=out[axis])",
           ("tests/test_warp.py::TestWarpImage",)),
    Mutant("cells_clamp", WARP,
           "c = np.clip(coords[axis], 0.0, float(n - 1))\n        i0 = np.ceil(c)",
           "c = np.clip(coords[axis], 0.0, float(n))\n        i0 = np.ceil(c)",
           ("tests/test_warp.py::TestLibraryOracles",)),
    Mutant("gather_offsets", WARP,
           "v[a * ox + b * oy + c * oz:]",
           "v[a * ox + b * oz + c * oy:]",
           ("tests/test_warp.py::TestLibraryOracles",)),
    Mutant("grad_outside_mask", WARP,
           "grad[axis] *= (coords[axis] >= 0.0) & (coords[axis] <= float(n - 1))",
           "grad[axis] *= coords[axis] >= 0.0",
           ("tests/test_warp.py::TestLibraryOracles",)),
    Mutant("spans_last_piece", AD,
           "return [(s, n if s == starts[-1] else s + width) for s in starts]",
           "return [(s, s + width) for s in starts]",
           ("tests/test_autodiff.py::TestWindowTiles",)),
    Mutant("dtype_rule", AD,
           "if len(dts) != 1 or dts.pop() not in (np.float32, np.float64):",
           "if len(dts) != 1:",
           ("tests/test_autodiff.py::TestOperandDtype",)),
    Mutant("dtype_operands", AD,
           "_check_dtype(op, parents)",
           "_check_dtype(op, parents[:2])",
           ("tests/test_autodiff.py::TestOperandDtype",)),
    Mutant("row_prelu_mask", AD,
           "(z <= 0) * a + (z > 0)",
           "(z <= 0) * a",
           ("tests/test_autodiff.py::TestLayerRow",)),
    Mutant("row_mask_at_zero", AD,
           "(z <= 0) * a + (z > 0)",
           "(z < 0) * a + (z > 0)",
           ("tests/test_autodiff.py::TestLayerRow",)),
    Mutant("row_tap_offsets", AD,
           "offs = [(i * hp + j) * wp for i in range(k) for j in range(k)]",
           "offs = [(j * hp + i) * wp for i in range(k) for j in range(k)]",
           ("tests/test_autodiff.py::TestLibraryOracles",)),
    Mutant("fft_extent", AD,
           "max(n + (k - 1) // 2, k)",
           "max(n, k)",
           ("tests/test_autodiff.py::TestLibraryOracles",)),
    Mutant("fft_weight_lags", AD,
           "i1, i2 = ((np.arange(k) - (k - 1) // 2) % n for n in s)",
           "i1, i2 = (np.arange(k) % n for n in s)",
           ("tests/test_autodiff.py::TestLibraryOracles",)),
    Mutant("scatter_tiled", AD,
           "tiled = k == stride",
           "tiled = k >= stride",
           ("tests/test_autodiff.py::TestLibraryOracles",)),
    Mutant("row_halo_short", AD,
           "halo, wide = offs[-1], cin * k >= cout",
           "halo, wide = offs[-2], cin * k >= cout",
           ("tests/test_autodiff.py::TestWideRowTiles",)),
    Mutant("row_width_no_halo", AD,
           "width = max(width, 8 * halo)",
           "width = max(width, 8)",
           ("tests/test_autodiff.py::TestWideRowTiles",)),
    Mutant("row_tile_alignment", AD,
           "m = -(-m // 16) * 16 if pad else m",
           "m = -(-m // 1) * 1 if pad else m",
           ("tests/test_autodiff.py::TestWideRowTiles",)),
    Mutant("concat_view_adjacency", AD,
           "a.ctypes.data - base.ctypes.data != end",
           "a.ctypes.data - base.ctypes.data < start",
           ("tests/test_autodiff.py::TestConcatView",)),
    Mutant("shifted_rows_offset", AD,
           "(c0 - d0 * plane) * x.itemsize",
           "(c0 - d0 * plane + 1) * x.itemsize",
           ("tests/test_autodiff.py::TestStridedViews",)),
    Mutant("depth_block_tap_stride", AD,
           "(buf.itemsize, sc, sd, sd)",
           "(buf.itemsize, sc, sd - buf.itemsize, sd)",
           ("tests/test_autodiff.py::TestStridedViews",)),
    Mutant("window_view_offset", AD,
           "xp, 0,\n",
           "xp, xp.itemsize,\n",
           ("tests/test_autodiff.py::TestStridedViews",)),
    Mutant("one_pass_rule", AD,
           "if a is None or not forks(size):",
           "if a is None or forks(size):",
           ("tests/test_forkjoin.py::test_one_pass_row_gives_the_forked_halves",)),
    Mutant("r2_det_sign", "src/foldreg/jacobian.py",
           "folding = det < 0.0",
           "folding = det <= 0.0",
           ("tests/test_jacobian.py::TestR2Backward",)),
    Mutant("adam_bias_correction", OPTIM,
           "bc2 = 1.0 - BETA2 ** state.t",
           "bc2 = 1.0",
           ("tests/test_optim.py::TestAdamStep",)),
    Mutant("adam_span_offset", OPTIM,
           "        o += p.size",
           "        o += p.size - 1",
           ("tests/test_optim.py::TestFlatAdam",)),
    Mutant("adam_update_slice", OPTIM,
           "update[state.spans[name]]",
           "update[state.spans[name].start + 1:state.spans[name].stop + 1]",
           ("tests/test_optim.py::TestFlatAdam",)),
    Mutant("divergence_rollback", "src/foldreg/trainer.py",
           "            np.copyto(a, good[name])",
           "            pass",
           ("tests/test_trainer.py::TestDivergence",)),
)


def apply(tree: Path, m: Mutant) -> None:
    """Replace m's old text, which must occur exactly once, in the copy at ``tree``."""
    path = tree / m.file
    text = path.read_text()
    if text.count(m.old) != 1:
        raise ValueError(f"{m.name}: old text occurs {text.count(m.old)} times in {m.file}")
    path.write_text(text.replace(m.old, m.new))


def run(tests, m: Mutant | None = None) -> tuple[bool, str]:
    """Whether ``tests`` fail on a copy, mutated by m if given, and the first failing test (or pytest's last line)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, tree / name)
        if m is not None:
            apply(tree, m)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                              cwd=tree, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith("FAILED")]
    return proc.returncode != 0, (failed or lines[-1:] or [""])[0]


def main(argv: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(known)}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in argv] or MUTANTS
    failed, detail = run(sorted({t for m in chosen for t in m.tests}))
    if failed:  # a kill means nothing when the tests fail unmutated
        print(f"the tests fail on the unmutated copy: {detail}", file=sys.stderr)
        return 2
    survived = 0
    for m in chosen:
        start = time.perf_counter()
        killed, detail = run(m.tests, m)
        survived += not killed
        print(f"{m.name:22s} {'killed' if killed else 'SURVIVED':8s} {time.perf_counter() - start:6.1f} s  {detail}",
              flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
