"""The fork-join worker's two clients: same bytes, same errors, same tracer view.

``total_loss``, ``loss_value`` and ``trainer._loss_and_grad`` each hand one
half of their work to ``_forkjoin.fork``, and so does a convolution row
(``autodiff._conv_node``): half of its channels' inverse transforms and
epilogue. ``_use_worker`` sends every task to the worker (grain 0, two usable
CPUs reported) or none (a grain no volume reaches), so these tests run both
paths on any host.
"""

import importlib.util
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from foldreg import _forkjoin, jacobian, loss, metrics, model, optim, trainer
from foldreg import autodiff as ad
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


def _check_forked_child(run):
    """Fork the process; the child must complete ``run()``, its first fork-join there, with the parent's value."""
    expected = run()
    assert _worker_threads()  # the parent has used the worker
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only if its forked work completes with the parent's value
        code = 1
        try:
            code = 0 if run() == expected else 3
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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # forking a process that has threads
def test_worker_restarts_in_forked_child(forked):
    s, t, u = _inputs((32, 32, 32), np.float32, True)
    _check_forked_child(lambda: total_loss(s, t, u, 0.5, 0.2))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_worker_restarts_in_forked_child_after_conv_rows(forked):
    ds = synth_dataset(seed=0, n=2, dims=(32, 32, 32))
    params = model.build_faim(seed=0)
    _check_forked_child(lambda: model.faim_forward(params, ds.volumes["s00"], ds.volumes["s01"]).data.tobytes())


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


def test_fork_on_the_worker_runs_inline(forked, monkeypatch):
    # a task that forks from the worker gets its join run there, in serial order, instead of
    # waiting on the worker's own queue; a worker of its own lets the test end if it does wait
    monkeypatch.setattr(_forkjoin, "_worker", _forkjoin._executor())
    order = []

    def inner():
        order.append(("inner", threading.get_ident()))

    def outer():
        join = _forkjoin.fork(1, inner)
        order.append(("outer", threading.get_ident()))
        join()
        return threading.get_ident()

    future = _forkjoin._worker.submit(outer)
    try:
        worker = future.result(timeout=30)
    except TimeoutError:
        _forkjoin._worker.shutdown(wait=False, cancel_futures=True)  # ends the wait, so the thread can exit
        pytest.fail("a fork made on the worker waited on the worker")
    _forkjoin._worker.shutdown()
    assert worker != threading.get_ident()
    assert order == [("outer", worker), ("inner", worker)]


# a layer row, forked along output channels: (op, cin, cout, k, stride, act, skip) as in model.faim_layers
CONV_ROWS = {
    "fft-k5": ("conv3d", 2, 8, 5, 1, True, None),
    "fft-k7": ("conv3d", 2, 8, 7, 1, True, None),
    "thin-rows": ("conv3d", 2, 8, 3, 1, True, None),
    "wide-rows-skip": ("conv3d", 8, 8, 3, 1, True, "input"),
    "k1": ("conv3d", 24, 16, 1, 1, True, None),
    "window-k3s2": ("conv3d", 16, 32, 3, 2, True, None),
    "convT-k2s2-skip": ("conv3d_transpose", 32, 16, 2, 2, True, "other"),
    "linear-rows": ("conv3d", 16, 3, 3, 1, False, None),
}


def _conv_row(kind, dims, dtype, taped):
    """The row's output and, when taped, its leaves' gradients after a backward pass, as bytes."""
    op, cin, cout, k, stride, prelu, skip = CONV_ROWS[kind]
    rng = np.random.default_rng(k + cin + cout)
    in_dims = tuple(n // stride for n in dims) if op == "conv3d_transpose" else dims
    out_dims = tuple((n - 1) // stride + 1 for n in dims) if op == "conv3d" else dims
    shape_w = (cin, cout, k, k, k) if op == "conv3d_transpose" else (cout, cin, k, k, k)

    def leaf(shape, scale=1.0):
        return ad.Tensor((rng.standard_normal(shape) * scale).astype(dtype), requires_grad=taped)

    x, w, b = leaf((cin, *in_dims)), leaf(shape_w, 0.2), leaf((cout,))
    a = ad.Tensor(rng.uniform(0.1, 0.5, cout).astype(dtype), requires_grad=taped) if prelu else None
    s = {"input": x, "other": leaf((cout, *out_dims)), None: None}[skip]
    out = getattr(ad, op)(x, w, b, stride=stride, padding=(k - 1) // 2, slopes=a, skip=s)
    got = [out.data.dtype.str, out.data.flags.c_contiguous, out.data.tobytes()]
    if taped:
        ad.backward(out, seed=np.random.default_rng(1).standard_normal(out.shape))
        got += [t.grad.tobytes() for t in (x, w, b, a, s) if t is not None]
    return got


@pytest.mark.parametrize("taped", [False, True], ids=["tape-free", "taped"])
@pytest.mark.parametrize("dims", [(32, 32, 32), (20, 36, 28)], ids=["32", "20x36x28"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("kind", sorted(CONV_ROWS))
def test_forked_conv_rows_match_serial(monkeypatch, kind, dtype, dims, taped):
    _use_worker(monkeypatch, False)
    serial = _conv_row(kind, dims, dtype, taped)
    _use_worker(monkeypatch, True)
    assert _conv_row(kind, dims, dtype, taped) == serial


def _evaluate_32(ds):
    params = model.build_faim(seed=0)
    predict = metrics.checkpoint_predictor({"kind": "faim", **params.config.to_meta()}, params.arrays())
    result = metrics.evaluate(predict, ds.volumes, ds.labels, [tuple(ds.ids)])
    return metrics.report_csv(result), metrics.per_label_csv(result)


def test_forked_evaluate_report_matches_serial(monkeypatch):
    ds = synth_dataset(seed=2, n=2, dims=(32, 32, 32))
    _use_worker(monkeypatch, False)
    serial = _evaluate_32(ds)
    _use_worker(monkeypatch, True)
    assert _evaluate_32(ds) == serial


def test_worker_exception_from_a_row_comes_out_unchanged(forked, monkeypatch):
    ds = synth_dataset(seed=0, n=2, dims=(32, 32, 32))
    params = model.build_faim(seed=0)
    expected = model.faim_forward(params, ds.volumes["s00"], ds.volumes["s01"]).data.tobytes()
    error = RuntimeError("epilogue failed")
    raised_on = []
    real = ad._epilogue
    caller = threading.get_ident()

    def failing(*args):
        if threading.get_ident() == caller:
            return real(*args)
        raised_on.append(threading.get_ident())
        raise error

    monkeypatch.setattr(ad, "_epilogue", failing)
    with pytest.raises(RuntimeError) as info:
        model.faim_forward(params, ds.volumes["s00"], ds.volumes["s01"])
    assert info.value is error
    assert raised_on
    monkeypatch.setattr(ad, "_epilogue", real)
    assert model.faim_forward(params, ds.volumes["s00"], ds.volumes["s01"]).data.tobytes() == expected


def test_tracer_view_of_an_evaluated_pair(forked, monkeypatch):
    # during a 32^3 evaluate pair every entry point the tracer times or wraps runs on the caller;
    # the conv rows' tasks call no counted function, and the worker counts only the loss
    # stack's field half, as before the rows were forked
    ds = synth_dataset(seed=0, n=2, dims=(32, 32, 32))
    spans = _bench_spans(monkeypatch)
    seen, counted, rows = [], [], []

    def record(module, attr, name, log):
        def recording(*args, _fn=getattr(module, attr), **kwargs):
            start = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                log.append((name, threading.get_ident(), start, time.perf_counter()))
        monkeypatch.setattr(module, attr, recording)

    for module, attr, name in spans._TIMED:
        record(module, attr, name, seen)
    for attr in ("conv3d", "conv3d_transpose", "prelu", "add", "concat_channels"):
        record(ad, attr, f"autodiff.{attr}", seen)
    for module, attr, counter in spans._COUNTED:
        record(module, attr, counter, counted)
    record(ad, "_epilogue", "autodiff._epilogue", rows)
    _evaluate_32(ds)
    caller = threading.get_ident()
    names = {name for name, *_ in seen}
    assert {"model.faim_forward", "model.faim_apply", "autodiff.conv3d", "autodiff.conv3d_transpose",
            "autodiff.concat_channels", "warp.warp_labels", "warp.warp_image", "metrics.mean_dice"} <= names
    assert all(ident == caller for _, ident, *_ in seen)
    assert {ident for _, ident, *_ in rows} - {caller}  # the worker did run row halves
    on_worker = [c for c in counted if c[1] != caller]
    assert {name for name, *_ in on_worker} == {"jacobian.jacobian_raw_calls_per_step"}
    first = min(counted, key=lambda c: c[2])
    assert first[1] == caller and first[2] < min(start for _, _, start, _ in on_worker)
    convs = [(start, end) for name, _, start, end in seen if name.startswith("autodiff.conv")]
    for _, _, start, end in on_worker:
        assert all(end <= c0 or c1 <= start for c0, c1 in convs)
