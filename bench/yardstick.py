"""A fixed yardstick for the host's speed, timed next to every step.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent over seconds, in phases that can outlast a whole run, while the
process itself is never descheduled (its CPU time equals its wall time). A
wall-clock median therefore tracks the host more than the program. The
yardstick is a short fixed kernel of the same kinds of work as the workloads:
a box filter and a trilinear resampling of a 32^3 volume, small matrix
products, and a 3^3 convolution of a 4-channel 26^3 volume built, as in
``foldreg.autodiff``, from a window view and ``tensordot``. The box filter and
resampling alone track the memory-bound direct registration but not the
convolutions, whose window copies slow down differently; the sum of both
tracks all three workloads. Its arrays and window copy take about 17 MiB at
most, which ``peak_rss_mb`` includes. It uses numpy and scipy only, never
``foldreg``, so no change to the program moves it. ``Stepper`` times it at
every step boundary and rescales each step to the reference speed:

    step_ms * REF_MS / mean(yardstick before the step, yardstick after it)

so that a step reads in milliseconds as on a host where the yardstick takes
``REF_MS``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

# the yardstick's typical time on a 2-vCPU Xeon (Sapphire Rapids) KVM guest,
# numpy 2.4, scipy 1.17, OpenBLAS 0.3 on one thread; fixes the unit only
REF_MS = 10.0


class Yardstick:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.volume = rng.standard_normal((32, 32, 32))
        self.coords = np.indices((32, 32, 32)) + 2.0 * rng.standard_normal((3, 32, 32, 32))
        self.cols = rng.standard_normal((1024, 216))
        self.weights = rng.standard_normal((216, 16))
        self.channels = rng.standard_normal((4, 26, 26, 26))
        self.kernel = rng.standard_normal((8, 4, 3, 3, 3))
        self()  # first call allocates; not a sample

    def __call__(self) -> float:
        """One timing of the kernel, in ms."""
        t0 = perf_counter()
        ndimage.uniform_filter(self.volume * self.volume, 9, mode="constant")
        ndimage.map_coordinates(self.volume, self.coords, order=1)
        for _ in range(4):
            np.maximum(self.cols @ self.weights, 0.0).sum()
        windows = sliding_window_view(self.channels, (3, 3, 3), axis=(1, 2, 3))
        np.tensordot(self.kernel, windows, axes=([1, 2, 3, 4], [0, 4, 5, 6]))
        return 1e3 * (perf_counter() - t0)

    def rescale(self, elapsed: float, before: float, after: float) -> float:
        """``elapsed`` (in any unit), timed between two yardstick timings, at the reference speed."""
        return elapsed * REF_MS / ((before + after) / 2)
