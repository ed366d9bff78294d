"""Displacement-prediction models and checkpoint serialization.

Two model kinds share the loss machinery:

* ``faim``: the convolutional network (inception layer, encoder, residual
  block, upsampling path with add-skips, linear head, no pooling), described
  once, row by row, in ``faim_layers``.
* ``direct``: the parameters are the displacement field itself, one tensor of
  shape (3, nx, ny, nz), optimized per image pair. It reproduces classical
  variational registration and doubles as an oracle for the loss stack.

Checkpoint container "FCK1": magic, a key=value metadata block, then named
float32 little-endian tensors. Round trips are bit-exact.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .settings import Settings, format_key_values, parse_key_values
from .volume import DisplacementField, FormatError, Volume

FULL_SCALE_REFERENCE_PARAMS = 179_787  # original network at 144x180x144

_CKPT_MAGIC = b"FCK1"


@dataclass(frozen=True)
class FaimConfig(Settings):
    branch_kernels: tuple[int, ...] = (3, 5, 7)
    branch_channels: int = 8
    merge_channels: int = 16
    enc1_channels: int = 32
    enc2_channels: int = 32
    head_kernel: int = 3

    def validate(self) -> None:
        if not self.branch_kernels:
            raise ValueError("need at least one inception branch")
        for k in (*self.branch_kernels, self.head_kernel):
            if k < 1 or k % 2 == 0:
                raise ValueError(f"kernel sizes must be odd and positive, got {k}")
        for c in (self.branch_channels, self.merge_channels, self.enc1_channels, self.enc2_channels):
            if c < 1:
                raise ValueError(f"channel counts must be >= 1, got {c}")


@dataclass
class ModelParams:
    kind: str  # "faim" or "direct"
    tensors: dict[str, Tensor] = field(default_factory=dict)
    config: FaimConfig | None = None
    dims: tuple[int, int, int] | None = None

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.tensors.items()}


def param_count(params: ModelParams) -> int:
    return sum(int(t.data.size) for t in params.tensors.values())


def _glorot(rng, shape, fan_in, fan_out, dtype, scale=1.0):
    bound = np.sqrt(6.0 / (fan_in + fan_out)) * scale
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def faim_layers(cfg: FaimConfig) -> tuple[tuple, ...]:
    """The network as one row per layer, in parameter and call order.

    A row is ``(name, op, input, cin, cout, k, stride, act, skip)``:

    * ``op`` "conv" has kernel (cout, cin, k, k, k), "convT" (transposed)
      has (cin, cout, k, k, k). Padding is always (k - 1) // 2: stride-1
      convs keep the size, k3 s2 convs halve it, k2 s2 convTs double it.
    * ``input`` is "input" (the stacked source/target pair), a layer name,
      or a tuple of layer names whose outputs are channel-concatenated.
    * ``act`` is "PReLU" (slopes start at 0.25) or "linear"; a linear
      layer's kernel starts at 1e-3 of the Glorot bound so the initial
      deformation is close to identity.
    * ``skip`` names a layer whose output is added: after the PReLU of a
      conv (residual block), before the PReLU of a convT (U-net junction).
    """
    cb, c0, c1, c2 = cfg.branch_channels, cfg.merge_channels, cfg.enc1_channels, cfg.enc2_channels
    branches = tuple(f"branch{k}" for k in cfg.branch_kernels)
    return (
        *((b, "conv", "input", 2, cb, k, 1, "PReLU", None) for b, k in zip(branches, cfg.branch_kernels)),
        ("merge", "conv", branches, cb * len(branches), c0, 1, 1, "PReLU", None),
        ("enc1", "conv", "merge", c0, c1, 3, 2, "PReLU", None),
        ("enc2", "conv", "enc1", c1, c2, 3, 2, "PReLU", None),
        ("res", "conv", "enc2", c2, c2, 3, 1, "PReLU", "enc2"),
        ("up2", "convT", "res", c2, c1, 2, 2, "PReLU", "enc1"),
        ("up1", "convT", "up2", c1, c0, 2, 2, "PReLU", "merge"),
        ("head", "conv", "up1", c0, 3, cfg.head_kernel, 1, "linear", None),
    )


def build_faim(cfg: FaimConfig = FaimConfig(), seed: int = 0, dtype=np.float32) -> ModelParams:
    """Create the network parameters; same seed gives bit-identical values."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, op, _, cin, cout, k, _, act, _ in faim_layers(cfg):
        shape = (cin, cout, k, k, k) if op == "convT" else (cout, cin, k, k, k)
        scale = 1.0 if act == "PReLU" else 1e-3
        init = {"w": _glorot(rng, shape, cin * k**3, cout * k**3, dtype, scale), "b": np.zeros(cout, dtype=dtype)}
        if act == "PReLU":
            init["a"] = np.full(cout, 0.25, dtype=dtype)
        for part, data in init.items():
            tensors[f"{name}.{part}"] = Tensor(data, name=f"{name}.{part}")
    return ModelParams(kind="faim", tensors=tensors, config=cfg)


def faim_apply(params: ModelParams, x: Tensor) -> Tensor:
    """Run the network graph on a (2, nx, ny, nz) stacked source/target pair."""
    if params.kind != "faim":
        raise ValueError(f"expected a faim model, got kind {params.kind!r}")
    t = params.tensors
    dims = x.data.shape[1:]
    if any(n % 4 != 0 for n in dims):
        raise ValueError(f"input dims must be divisible by 4, got {dims}")
    rows = faim_layers(params.config)
    last_reader = {}  # output name -> index of the last row that reads it, as input or skip
    couts = {row[0]: row[4] for row in rows}
    into = {}  # a concatenated row's name -> the channel slice of the concat's buffer that it writes
    for i, (_, _, src, cin, *_, skip) in enumerate(rows):
        for s in (*(src if isinstance(src, tuple) else (src,)), *((skip,) if skip else ())):
            last_reader[s] = i
        if isinstance(src, tuple):
            # the inception branches keep the input's size; written into one buffer, they are
            # concatenated with no copy (``concat_channels``)
            ends = list(itertools.accumulate(couts[s] for s in src))
            into.update(zip(src, np.split(np.empty((cin, *dims), dtype=x.data.dtype), ends[:-1])))
    out = {"input": x}
    for i, (name, op, src, _, _, k, stride, act, skip) in enumerate(rows):
        h = ad.concat_channels([out[s] for s in src]) if isinstance(src, tuple) else out[src]
        conv = ad.conv3d_transpose if op == "convT" else ad.conv3d
        # one node per row: the op adds the skip before a convT's PReLU and after a conv's
        h = conv(h, t[f"{name}.w"], t[f"{name}.b"], stride=stride, padding=(k - 1) // 2,
                 slopes=t[f"{name}.a"] if act == "PReLU" else None, skip=out[skip] if skip else None,
                 out=into.pop(name, None))
        out[name] = h
        for s, j in last_reader.items():
            if j == i:
                del out[s]  # frees it, unless a closure holds it for backward
    return h


def faim_input(params: ModelParams, source: Volume, target: Volume) -> Tensor:
    """The network input: source and target as 2 channels in the parameter dtype, frozen."""
    if source.dims != target.dims:
        raise ValueError(f"dims mismatch: {source.dims} vs {target.dims}")
    dtype = next(iter(params.tensors.values())).data.dtype
    return Tensor(np.stack([source.data, target.data]).astype(dtype, copy=False), requires_grad=False)


def predict(params: ModelParams, source: Volume, target: Volume) -> Tensor:
    """The field registering source to target as a tape node: the network output, or the direct field."""
    if params.kind == "direct":
        return params.tensors["field"]
    return faim_apply(params, faim_input(params, source, target))


def faim_forward(params: ModelParams, source: Volume, target: Volume) -> DisplacementField:
    """Predict the displacement field registering source to target, without a tape.

    The network runs on frozen views of the parameters (the same arrays,
    ``requires_grad`` False; the caller's tensors are untouched), so no op
    output keeps its inputs and each activation is freed after its last reader.
    """
    frozen = {name: Tensor(t.data, name=t.name, requires_grad=False) for name, t in params.tensors.items()}
    view = replace(params, tensors=frozen)
    return DisplacementField(faim_apply(view, faim_input(view, source, target)).data)


def direct_field_model(dims, dtype=np.float32) -> ModelParams:
    """A model whose only parameter is the displacement field, zero-initialized."""
    dims = tuple(int(n) for n in dims)
    if len(dims) != 3 or min(dims) < 1:
        raise ValueError(f"bad dims {dims}")
    field_t = Tensor(np.zeros((3, *dims), dtype=dtype), name="field")
    return ModelParams(kind="direct", tensors={"field": field_t}, dims=dims)


# ---------------------------------------------------------------------------
# Architecture summary


def describe(params: ModelParams) -> str:
    """Architecture summary; per-layer parameter counts are the sizes of the actual tensors."""
    def layer_size(name):
        return sum(int(t.data.size) for key, t in params.tensors.items() if key.split(".")[0] == name)

    if params.kind == "direct":
        nx, ny, nz = params.dims
        return "\n".join([f"direct-field model on {nx}x{ny}x{nz}",
                          *(f"{name:<15} {'x'.join(map(str, t.data.shape))}            params {t.data.size}"
                            for name, t in params.tensors.items()),
                          f"total parameters: {param_count(params)}"])

    def row(name, desc, n):
        lines.append(f"{name:<10} {desc:<50} params {n}")

    lines = ["faim network (input: stacked source+target, 2 channels)"]
    skips = 0
    for name, op, src, cin, cout, k, stride, act, skip in faim_layers(params.config):
        if isinstance(src, tuple):
            row("concat", f"channel concat -> {cin}", 0)
        junction = [f"add-skip from {skip}"] if skip else []
        steps = [act, *junction] if op == "conv" else [*junction, act]
        row(name, f"{op} k{k} s{stride} p{(k - 1) // 2}  {cin}->{cout}  " + ", ".join(steps), layer_size(name))
        skips += bool(skip)
    lines.append(f"add skips: {skips}")
    lines.append("pooling layers: 0")
    lines.append(f"head activation: {act}, {cout} channels")  # the last row is the head
    lines.append(f"total parameters: {param_count(params)}")
    lines.append(f"reference full-scale parameter count: {FULL_SCALE_REFERENCE_PARAMS}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# FCK1 checkpoints


def save_checkpoint(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write metadata and named float32 tensors; load restores them bit-exactly."""
    blob = bytearray()
    blob += _CKPT_MAGIC
    text = format_key_values(meta).encode("utf-8")
    blob += struct.pack("<I", len(text))
    blob += text
    blob += struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded))
        blob += encoded
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes()
    Path(path).write_bytes(bytes(blob))


def load_checkpoint(path):
    buf = Path(path).read_bytes()
    if buf[:4] != _CKPT_MAGIC:
        raise FormatError(f"{path}: bad magic (not an FCK1 checkpoint)")
    off = 4
    try:
        (text_len,) = struct.unpack_from("<I", buf, off)
        off += 4
        meta = parse_key_values(buf[off:off + text_len].decode("utf-8"))
        off += text_len
        (n_tensors,) = struct.unpack_from("<I", buf, off)
        off += 4
        arrays: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            (name_len,) = struct.unpack_from("<I", buf, off)
            off += 4
            name = buf[off:off + name_len].decode("utf-8")
            off += name_len
            if name in arrays:
                raise ValueError(f"tensor {name!r} is named twice")
            (ndim,) = struct.unpack_from("<I", buf, off)
            off += 4
            shape = struct.unpack_from(f"<{ndim}I", buf, off)
            off += 4 * ndim
            count = int(np.prod(shape)) if ndim else 1
            arrays[name] = np.frombuffer(buf, dtype="<f4", count=count, offset=off).reshape(shape).copy()
            off += count * 4
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise FormatError(f"{path}: truncated or corrupt checkpoint ({exc})") from exc
    if off != len(buf):
        raise FormatError(f"{path}: payload size mismatch")
    return meta, arrays


def params_from_checkpoint(meta: dict, arrays: dict[str, np.ndarray]) -> ModelParams:
    """Rebuild a model from checkpoint contents.

    Missing, unparsable or invalid model metadata raises ``FormatError``.
    Checkpoints written by earlier versions also carry Adam moments, as
    ``adam.m:<name>`` and ``adam.v:<name>`` tensors with ``adam_t`` in the
    metadata; such files still load, and those entries are skipped.
    """
    kind = meta.get("kind")
    if kind not in ("faim", "direct"):
        raise FormatError(f"unknown model kind {kind!r} in checkpoint")
    if kind == "direct":
        try:
            params = direct_field_model(meta["dims"].split(","))
        except (KeyError, ValueError) as exc:
            raise FormatError(f"bad checkpoint metadata: dims={meta.get('dims')!r}") from exc
        # the trained fields, one per pair, instead of the zero field
        params.tensors = {k: Tensor(v, name=k) for k, v in arrays.items() if k.startswith("field:")}
        for name, t in params.tensors.items():
            if t.data.shape != (3, *params.dims):
                raise FormatError(f"checkpoint tensor {name} has shape {t.data.shape}, "
                                  f"expected {(3, *params.dims)}")
        return params
    model_arrays = {k: v for k, v in arrays.items() if not k.startswith(("adam.", "field:"))}
    params = build_faim(FaimConfig.from_checkpoint(meta), seed=0)
    if set(params.tensors) != set(model_arrays):
        raise FormatError("checkpoint tensors do not match the model config")
    for name, t in params.tensors.items():
        if t.data.shape != model_arrays[name].shape:
            raise FormatError(f"checkpoint tensor {name} has shape {model_arrays[name].shape}, "
                              f"expected {t.data.shape}")
        t.data = model_arrays[name]
    return params
