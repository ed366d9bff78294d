"""Fork-join on one worker thread: half of a loss evaluation beside the caller.

``fork(size, fn, *args)`` hands ``fn(*args)`` to the worker and returns its
join, a callable that waits for the result and returns it, or raises the
exception ``fn`` raised. The worker takes the task only when the field has
at least ``GRAIN`` voxels and at least two CPUs are usable; otherwise the
join runs ``fn`` itself, on the caller, after the caller's own half, which
is the serial order of operations. Below the grain the hand-off costs more
than the overlap saves: forked over serial, a training step's
``_loss_and_grad`` took 1.17-1.35x at 16^3, 1.04-1.11x at 20^3, 0.82-1.04x
at 24^3, 0.74-0.90x at 28^3, 0.81-0.85x at 32^3 and 0.74-0.77x at 40^3
(medians of 480-960 steps each, in two or three runs of direct training with
the benchmark's direct_register settings; one BLAS thread, 2-vCPU host).
24^3 straddles the crossover, so the grain stays just above it. If the
caller's own half raises before the join, the task still runs to its end on
the worker, and its result is dropped.

A result never depends on the worker. Each task runs its operations in the
serial order, and nothing is accumulated across the two threads. A task
must make no BLAS call, so that OpenBLAS is entered from one thread only,
and must call no function that the benchmark's tracer (``bench/spans.py``)
times, since its span stack belongs to the caller. The tracer also counts
calls, per step, in a counter that the step's first counted call creates:
so that no count is lost, that call is made on the caller before the step's
first fork, and no counted function runs on both threads at once.

The worker thread starts on the first forked task. A child made by
``os.fork()`` gets a fresh executor, since the parent's thread does not exist
there.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

GRAIN = 1 << 14  # voxels; between 24^3 and 28^3


def _executor() -> ThreadPoolExecutor:
    # a ThreadPoolExecutor starts its thread on the first submit, not here
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="foldreg-fork")


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
    """Start ``fn(*args)`` beside the caller when ``size`` voxels warrant it; return its join."""
    if size >= GRAIN and usable_cpus() >= 2:
        return _worker.submit(fn, *args).result
    return lambda: fn(*args)
