"""The loss stack's field half on the fork-join worker: same bytes, same errors, same tracer view.

``total_loss``, ``loss_value`` and ``trainer._loss_and_grad`` each hand one
half of their work to ``_forkjoin.fork``. ``_use_worker`` sends every task
to the worker (grain 0, two usable CPUs reported) or none (a grain no field
reaches), so these tests run both paths on any host.
"""

import importlib.util
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from foldreg import _forkjoin, jacobian, loss, model, optim, trainer
from foldreg.jacobian import folding_count
from foldreg.loss import GLOBAL, LOCAL, loss_value, total_loss
from foldreg.trainer import TrainConfig, synth_dataset
from foldreg.volume import DisplacementField, Volume

ROOT = Path(__file__).resolve().parents[1]


def _use_worker(monkeypatch, on):
    monkeypatch.setattr(_forkjoin, "GRAIN", 0 if on else 1 << 62)
    monkeypatch.setattr(_forkjoin, "usable_cpus", lambda: 2)


@pytest.fixture
def forked(monkeypatch):
    _use_worker(monkeypatch, True)


def _worker_threads():
    return [t for t in threading.enumerate() if t.name.startswith("foldreg-fork")]


def _inputs(dims, dtype, folding):
    rng = np.random.default_rng(sum(dims) + folding)
    s = Volume(rng.random(dims).astype(np.float32))
    t = Volume(rng.random(dims).astype(np.float32))
    u = DisplacementField((rng.standard_normal((3, *dims)) * (0.8 if folding else 0.01)).astype(dtype))
    assert (folding_count(jacobian.det_map(u)) > 0) == folding
    return s, t, u


def _bytes(*values):
    out = []
    for v in values:
        if isinstance(v, loss.LossBreakdown):
            v = np.array([v.image, v.r1, v.r2, v.total, v.alpha, v.beta])
        out.append((np.asarray(v).dtype.str, np.asarray(v).shape, np.asarray(v).tobytes()))
    return out


@pytest.mark.parametrize("dims", [(32, 32, 32), (20, 36, 28)], ids=["32", "20x36x28"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("cc", [(LOCAL, 9), (GLOBAL, 9)], ids=["local", "global"])
@pytest.mark.parametrize("alpha,beta", [(0.5, 0.2), (0.0, 0.2), (0.5, 0.0)])
@pytest.mark.parametrize("folding", [True, False], ids=["folding", "fold-free"])
def test_forked_bytes_match_serial(monkeypatch, dims, dtype, cc, alpha, beta, folding):
    s, t, u = _inputs(dims, dtype, folding)
    cfg = TrainConfig(alpha=alpha, beta=beta, cc_mode=cc[0], cc_window=cc[1])

    def run():
        return _bytes(total_loss(s, t, u, alpha, beta, *cc),
                      *loss_value(s, t, u, alpha, beta, *cc),
                      *trainer._loss_and_grad(s, t, u.data, cfg))

    assert np.prod(dims) >= _forkjoin.GRAIN  # sizes the worker takes by default
    _use_worker(monkeypatch, False)
    serial = run()
    _use_worker(monkeypatch, True)
    assert run() == serial


def test_worker_exception_comes_out_unchanged(forked, monkeypatch):
    s, t, u = _inputs((32, 32, 32), np.float32, True)
    expected = total_loss(s, t, u, 0.5, 0.2)
    error = RuntimeError("jacobian failed")
    raised_on = []
    real = jacobian.jacobian_raw

    def failing(u_arr):
        raised_on.append(threading.get_ident())
        raise error

    monkeypatch.setattr(jacobian, "jacobian_raw", failing)
    with pytest.raises(RuntimeError) as info:
        total_loss(s, t, u, 0.5, 0.2)
    assert info.value is error
    assert raised_on and threading.get_ident() not in raised_on
    monkeypatch.setattr(jacobian, "jacobian_raw", real)
    assert total_loss(s, t, u, 0.5, 0.2) == expected


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # forking a process that has threads
def test_worker_restarts_in_forked_child(forked):
    s, t, u = _inputs((32, 32, 32), np.float32, True)
    expected = total_loss(s, t, u, 0.5, 0.2)
    assert _worker_threads()  # the parent has used the worker
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only if the forked loss completes with the parent's value
        code = 1
        try:
            code = 0 if total_loss(s, t, u, 0.5, 0.2) == expected else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung on its first fork-join")
    assert os.waitstatus_to_exitcode(status) == 0


def _bench_spans(monkeypatch):
    """bench/spans.py, whose _TIMED and _COUNTED tables list (module, attribute, name) of what it times and counts."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look their module up
    spec.loader.exec_module(spans)
    return spans


def _direct_step(ds):
    """One direct-model _fit step on the first pair of a 32^3 dataset."""
    params = model.direct_field_model((32, 32, 32))
    state = optim.adam_init(params.arrays(), lr=0.1)
    rows = []
    trainer._fit(params, state, [(0, ("s00", "s01"))], ds.volumes, TrainConfig(lr=0.1, alpha=0.01, beta=0.01), rows)
    assert len(rows) == 1


def test_tracer_entry_points_stay_on_the_caller(forked, monkeypatch):
    # every entry point the benchmark's tracer times keeps to the calling
    # thread, and so do the BLAS box sums; the worker does run the field half
    ds = synth_dataset(seed=0, n=2, dims=(32, 32, 32))
    seen = []

    def record(module, attr, name):
        def recording(*args, _fn=getattr(module, attr), **kwargs):
            seen.append((name, threading.get_ident()))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, recording)

    for module, attr, name in _bench_spans(monkeypatch)._TIMED:
        record(module, attr, name)
    record(loss, "_box_sum", "loss._box_sum")
    record(jacobian, "jacobian_raw", "jacobian.jacobian_raw")
    _direct_step(ds)
    caller = threading.get_ident()
    names = {name for name, _ in seen}
    assert {"loss.total_loss", "loss.loss_backward", "optim.adam_step", "loss._box_sum"} <= names
    assert all(ident == caller for name, ident in seen if name != "jacobian.jacobian_raw")
    assert any(ident != caller for name, ident in seen if name == "jacobian.jacobian_raw")


def test_tracer_counters_are_never_raced(forked, monkeypatch):
    # the tracer's counters are a per-step Counter that the step's first
    # counted call creates, and each count is a read-modify-write; so that
    # no count is lost, that first call runs on the caller before the step
    # forks anything, and no counter is entered from both threads at once
    ds = synth_dataset(seed=0, n=2, dims=(32, 32, 32))
    calls = []  # (counter, thread, start, end)
    forks = []  # when each fork of the step was made

    def record(module, attr, counter):
        def recording(*args, _fn=getattr(module, attr), **kwargs):
            start = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                calls.append((counter, threading.get_ident(), start, time.perf_counter()))
        monkeypatch.setattr(module, attr, recording)

    def recording_fork(*args):
        forks.append(time.perf_counter())
        return _forkjoin.fork(*args)

    for module, attr, counter in _bench_spans(monkeypatch)._COUNTED:
        record(module, attr, counter)
    for module in (trainer, loss):
        monkeypatch.setattr(module, "fork", recording_fork)
    _direct_step(ds)
    caller = threading.get_ident()
    _, first_thread, first_start, _ = min(calls, key=lambda c: c[2])
    assert first_thread == caller and first_start < min(forks)
    assert {ident for _, ident, _, _ in calls} - {caller}  # the worker did count calls
    for counter, ident, start, end in calls:
        for other, other_ident, other_start, other_end in calls:
            if other == counter and other_ident != ident:
                assert end <= other_start or other_end <= start, (counter, start, end, other_start, other_end)
