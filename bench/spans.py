"""Step clock and span tracer for the benchmark.

``Stepper`` cuts a closed loop into steps: every call of the workload's
marker (``optim.adam_step`` when training, the predictor when evaluating)
ends one step and starts the next. Untraced rounds use nothing else but the
host-speed yardstick of ``yardstick.py``, timed at each step boundary.

``Tracer`` records spans (name, start, end, parent, step id) in memory around
the layer entry points of ``foldreg``. Each entry point is patched where the
calling module looks it up, e.g. ``foldreg.trainer.warp_image`` and
``foldreg.autodiff.conv3d``, and restored afterwards; no file of the package
is changed. A span's self time is its duration minus its children's. The
step itself is the root span, so the time of a step that no layer span covers
is the root's self time.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import foldreg.autodiff
import foldreg.jacobian
import foldreg.loss
import foldreg.metrics
import foldreg.model
import foldreg.optim
import foldreg.trainer
import foldreg.warp

# spans whose self time is reported under another name than "<span>_ms"
_METRIC_OF_SPAN = {
    "autodiff.backward": "autodiff.backward_overhead_ms",  # topo sort and grad zeroing
    "trainer.step": "trainer.step_self_ms",
}

# entry points timed as one span each: (module, attribute, span name)
_TIMED = (
    (foldreg.trainer, "warp_image", "warp.warp_image"),
    (foldreg.metrics, "warp_image", "warp.warp_image"),
    (foldreg.trainer, "warp_backward", "warp.warp_backward"),
    (foldreg.metrics, "warp_labels", "warp.warp_labels"),
    (foldreg.loss, "total_loss", "loss.total_loss"),
    (foldreg.loss, "loss_backward", "loss.loss_backward"),
    (foldreg.jacobian, "det_map", "jacobian.det_map"),
    (foldreg.metrics, "det_map", "jacobian.det_map"),
    (foldreg.jacobian, "r2_backward", "jacobian.r2_backward"),
    (foldreg.metrics, "folding_count", "jacobian.folding_count"),
    (foldreg.optim, "adam_step", "optim.adam_step"),
    (foldreg.metrics, "mean_dice", "metrics.mean_dice"),
    (foldreg.model, "save_checkpoint", "model.save_checkpoint"),
    (foldreg.model, "load_checkpoint", "model.load_checkpoint"),
    (foldreg.trainer, "backward", "autodiff.backward"),
    (foldreg.model, "faim_apply", "model.faim_apply"),
    (foldreg.metrics, "faim_forward", "model.faim_forward"),
)

# entry points only counted, per step: (module, attribute, counter name)
_COUNTED = (
    (foldreg.warp, "sample_grid", "warp.grid_passes_per_step"),
    (foldreg.warp, "sample_grid_grad", "warp.grid_passes_per_step"),
    (foldreg.loss, "_box_sum", "loss.box_sums_per_step"),
    (foldreg.jacobian, "jacobian_raw", "jacobian.jacobian_raw_calls_per_step"),
)

# entry points that run once per checkpoint, not per step
_PER_CALL = ("model.save_checkpoint", "model.load_checkpoint")


@contextmanager
def patched(targets):
    """Set (module, attribute, factory) targets to factory(original); restore on exit.

    A missing attribute raises, so a renamed entry point cannot go silently
    unmeasured.
    """
    saved = []
    try:
        for module, attr, factory in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    self_s: float
    parent: int | None
    step: int | None
    extra: dict | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.kept_steps: set[int] = set()
        self.step: int | None = None
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0
        self._next_step = 0

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def exit(self, extra: dict | None = None) -> None:
        end = perf_counter()
        span_id, name, start, child = self._stack.pop()
        parent = None
        if self._stack:
            self._stack[-1][3] += end - start
            parent = self._stack[-1][0]
        self.spans.append(Span(span_id, name, start, end, end - start - child, parent, self.step, extra))

    def open_step(self, name: str) -> None:
        if self._stack:
            raise RuntimeError(f"step opened inside span {self._stack[-1][1]!r}")
        self.step = self._next_step
        self._next_step += 1
        self.enter(name)

    def close_step(self, keep: bool) -> None:
        if len(self._stack) != 1:
            raise RuntimeError("step closed with spans still open")
        self.exit()
        if keep:
            self.kept_steps.add(self.step)
        self.step = None

    # -- wrappers -----------------------------------------------------------

    def timed(self, name: str):
        def factory(fn):
            def traced(*args, **kwargs):
                self.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.exit()
            return traced
        return factory

    def counted(self, name: str):
        def factory(fn):
            def counting(*args, **kwargs):
                if self.step is not None:
                    self.counts[self.step][name] += 1
                return fn(*args, **kwargs)
            return counting
        return factory

    def layer_op(self, kind: str):
        """Wrap a conv, convT or PReLU: forward span now, backward span via backward_fn.

        The layer is read from the parameter's name ("enc1.w" -> "enc1"). For
        convolutions the span carries the work computed from shapes, as the
        im2col kernels execute it (the zeros of a dilated convT input
        included): MFLOP of the forward pass and MB of its window copy, and,
        when the input is the unnamed stacked-input leaf, the MFLOP of the
        input gradient that backward computes and nothing reads.
        """
        def factory(fn):
            def traced(x, param, *args, **kwargs):
                layer = param.name.split(".")[0]
                self.enter(f"model.{layer}.fwd")
                extra = None
                try:
                    out = fn(x, param, *args, **kwargs)
                    if kind != "prelu":
                        extra = _conv_work(x, param, out, transpose=kind == "convT")
                finally:
                    self.exit(extra)
                unread = None
                if kind == "conv" and x.op == "leaf" and not x.name:
                    unread = {"unread_mflop": _input_grad_mflop(param, out, kwargs.get("stride", 1))}
                out.backward_fn = self._timed_backward(f"model.{layer}.bwd", out.backward_fn, unread)
                return out
            return traced
        return factory

    def _timed_backward(self, name, fn, extra):
        def traced(g):
            self.enter(name)
            try:
                fn(g)
            finally:
                self.exit(extra)
        return traced

    def add_concat(self, fn):
        def traced(*args, **kwargs):
            self.enter("autodiff.add_concat")
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            out.backward_fn = self._timed_backward("autodiff.add_concat", out.backward_fn, None)
            return out
        return traced

    def targets(self):
        """Every (module, attribute, factory) this tracer patches."""
        out = [(m, a, self.timed(n)) for m, a, n in _TIMED]
        out += [(m, a, self.counted(n)) for m, a, n in _COUNTED]
        out += [
            (foldreg.autodiff, "conv3d", self.layer_op("conv")),
            (foldreg.autodiff, "conv3d_transpose", self.layer_op("convT")),
            (foldreg.autodiff, "prelu", self.layer_op("prelu")),
            (foldreg.autodiff, "add", self.add_concat),
            (foldreg.autodiff, "concat_channels", self.add_concat),
        ]
        return out

    # -- summaries ----------------------------------------------------------

    def layer_metrics(self, names) -> dict[str, tuple[float, int]]:
        """Per-step means over the kept steps of every metric in ``names``.

        Returns name -> (value, samples). Times are self times in ms per step;
        the time of spans that map to no metric is ``trace.unattributed_ms``.
        """
        n_steps = len(self.kept_steps)
        sums: dict[str, float] = defaultdict(float)
        window: dict[str, float] = defaultdict(float)
        per_call: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            if s.name in _PER_CALL:
                per_call[s.name + "_ms"].append(1e3 * (s.end - s.start))
            if s.step not in self.kept_steps:
                continue
            metric = _METRIC_OF_SPAN.get(s.name, s.name + "_ms")
            if metric not in names:
                metric = "trace.unattributed_ms"
            sums[metric] += 1e3 * s.self_s
            if s.extra:
                layer = s.name.rsplit(".", 1)[0]
                if "mflop" in s.extra:
                    sums[layer + ".mflop"] += s.extra["mflop"]
                    window[layer + ".window_mb"] = max(window[layer + ".window_mb"], s.extra["window_mb"])
                if "unread_mflop" in s.extra:
                    sums["autodiff.unread_grad_mflop"] += s.extra["unread_mflop"]
        for step in self.kept_steps:
            for counter, n in self.counts[step].items():
                sums[counter] += n
        out = {}
        for name in names:
            if name in per_call:
                vals = per_call[name]
                out[name] = (sum(vals) / len(vals), len(vals))
            elif name in window:
                out[name] = (window[name], n_steps)
            else:
                out[name] = (sums.get(name, 0.0) / max(n_steps, 1), n_steps)
        return out

    def write(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                rec = {"id": s.id, "name": s.name, "start_ms": 1e3 * (s.start - t0),
                       "end_ms": 1e3 * (s.end - t0), "self_ms": 1e3 * s.self_s,
                       "parent": s.parent, "step": s.step}
                if s.extra:
                    rec.update(s.extra)
                fh.write(json.dumps(rec) + "\n")


def _conv_work(x, w, out, transpose: bool) -> dict:
    cin, cout = (w.shape[0], w.shape[1]) if transpose else (w.shape[1], w.shape[0])
    taps = w.shape[2] ** 3
    voxels = out.data[0].size
    return {
        "mflop": 2.0 * cin * cout * taps * voxels / 1e6,
        "window_mb": cin * taps * voxels * x.data.itemsize / 1e6,
    }


def _input_grad_mflop(w, out, stride: int) -> float:
    """Work of the conv input gradient: a full convT onto the padded domain."""
    cout, cin, k = w.shape[0], w.shape[1], w.shape[2]
    voxels = 1
    for t in out.data.shape[1:]:
        voxels *= (t - 1) * stride + k
    return 2.0 * cin * cout * k**3 * voxels / 1e6


class Stepper:
    """Step boundaries of a closed loop, optionally opening root spans.

    With a ``yardstick`` (see ``yardstick.py``) it is timed at every step
    boundary, outside the steps, and ``ref_ms`` holds each step rescaled to
    the reference speed by the timings just before and after it; ``round_s``
    leaves the yardstick's own time out.
    """

    def __init__(self, tracer: Tracer | None = None, root: str = "step", yardstick=None):
        self.tracer = tracer
        self.root = root
        self.yardstick = yardstick
        self.step_ms: list[float] = []
        self.ref_ms: list[float] = []
        self.yardstick_ms: list[float] = []
        self.round_s: list[float] = []
        self.round_steps: list[int] = []
        self._round_start = 0.0
        self._seg_start = 0.0
        self._seg_is_step = False
        self._last_yardstick = 0.0
        self._yardstick_s = 0.0

    def _time_yardstick(self) -> None:
        if self.yardstick is None:
            return
        t0 = perf_counter()
        self._last_yardstick = self.yardstick()
        self.yardstick_ms.append(self._last_yardstick)
        self._yardstick_s += perf_counter() - t0

    def _open(self, is_step: bool) -> None:
        self._seg_is_step = is_step
        if self.tracer is not None:
            self.tracer.open_step(self.root)
        self._seg_start = perf_counter()

    def _close(self, keep: bool) -> None:
        now = perf_counter()
        keep = keep and self._seg_is_step
        if self.tracer is not None:
            self.tracer.close_step(keep)
        before = self._last_yardstick
        self._time_yardstick()
        if keep:
            ms = 1e3 * (now - self._seg_start)
            self.step_ms.append(ms)
            self.round_steps[-1] += 1
            if self.yardstick is not None:
                self.ref_ms.append(self.yardstick.rescale(ms, before, self._last_yardstick))

    def begin(self, first_is_step: bool) -> None:
        self.round_steps.append(0)
        self._time_yardstick()
        self._yardstick_s = 0.0
        self._round_start = perf_counter()
        self._open(first_is_step)

    def mark(self) -> None:
        self._close(True)
        self._open(True)

    def end(self, keep_last: bool) -> None:
        self._close(keep_last)
        self.round_s.append(perf_counter() - self._round_start - self._yardstick_s)

    def after(self, fn):
        """``fn`` that ends a step when it returns (the optimizer update)."""
        def marked(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.mark()
            return out
        return marked

    def before(self, fn):
        """``fn`` that starts a step when it is called (the predictor)."""
        def marked(*args, **kwargs):
            self.mark()
            return fn(*args, **kwargs)
        return marked
