"""Fork-join on one worker thread: half of a loss evaluation, or of a convolution row, beside the caller.

``fork(size, fn, *args)`` hands ``fn(*args)`` to the worker and returns its
join, a callable that waits for the result and returns it, or raises the
exception ``fn`` raised. The worker takes the task only when the volume has
at least ``GRAIN`` voxels and at least two CPUs are usable; otherwise the
join runs ``fn`` itself, on the caller, after the caller's own half, which
is the serial order of operations. A task that forks on the worker gets the
same inline join, since the worker would wait on its own queue. If the
caller's own half raises before the join, the task still runs to its end on
the worker, and its result is dropped.

There are two clients. The loss stack (``loss``, ``trainer``) forks its
field half, which reads u alone, beside the CC. A convolution row
(``autodiff._conv_node``), once the caller has run the kernel's BLAS work,
forks the second half of its output channels' inverse FFTs, crop copy and
epilogue (bias, skip, PReLU); the size is the row's output voxels. Below the
grain the hand-off costs more than the overlap saves. Forked over serial,
as medians of interleaved runs (one BLAS thread, 2-vCPU host): a training
step's ``_loss_and_grad`` (480-960 steps each, two or three runs of direct
training with the benchmark's direct_register settings), and one float32
tape-free row with the FAIM layer's channels at that output size (300 calls
each, two runs; the lower figure of the two is shown):

    size             16^3   20^3   24^3   28^3   32^3   40^3
    loss step        1.17   1.04   0.82   0.74   0.81   0.74
    branch7 (FFT)    0.90   0.82   0.75   0.80   0.78   0.73
    branch3 (rows)   1.00   0.95   0.91   0.90   0.88   0.87
    merge (k1)       0.86   0.85   0.77   0.72   0.82   0.71
    up1 (convT)      0.88   0.89   0.83   0.81   0.87   0.78
    head (3 ch.)     1.08   1.05   1.03   1.05   1.04   1.02

The loss step's upper figures were 1.35, 1.11, 1.04, 0.90, 0.85 and 0.77.
24^3 straddles the loss step's crossover, so the one grain stays just above
it. Most rows gain from 16^3 on; the head, whose half is a crop copy and a
bias add over 3 channels, is slower at every size, by about 40 us a call at
32^3.

A result never depends on the worker. Each task runs its operations in the
serial order, and nothing is accumulated across the two threads. A task
must make no BLAS call, so that OpenBLAS is entered from one thread only,
and must call no function that the benchmark's tracer (``bench/spans.py``)
times, since its span stack belongs to the caller. The tracer also counts
calls, per step, in a counter that the step's first counted call creates:
so that no count is lost, that call is made on the caller before the step's
first fork whose task makes a counted call, and no counted function runs on
both threads at once. A row's task makes none.

The worker thread starts on the first forked task. A child made by
``os.fork()`` gets a fresh executor, since the parent's thread does not exist
there.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

GRAIN = 1 << 14  # voxels; between 24^3 and 28^3


_thread = threading.local()  # on_worker is set on the worker thread only


def _mark_worker() -> None:
    _thread.on_worker = True


def _executor() -> ThreadPoolExecutor:
    # a ThreadPoolExecutor starts its thread on the first submit, not here
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="foldreg-fork", initializer=_mark_worker)


_worker = _executor()


def _restart_worker() -> None:
    global _worker
    _worker = _executor()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_restart_worker)


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork(size: int, fn, *args):
    """Start ``fn(*args)`` beside the caller when ``size`` voxels warrant it; return its join.

    On the worker itself the task always runs in the join, since the worker
    would wait on its own queue.
    """
    if size >= GRAIN and usable_cpus() >= 2 and not getattr(_thread, "on_worker", False):
        return _worker.submit(fn, *args).result
    return lambda: fn(*args)
