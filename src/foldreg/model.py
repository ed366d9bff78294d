"""Displacement-prediction models and checkpoint serialization.

Two model kinds share the loss machinery:

* ``faim``: the convolutional network. First an inception-style layer
  (parallel convs at several odd kernel sizes, channel-concat, 1x1x1 merge),
  then two stride-2 encoder convs, a residual conv block, two stride-2
  transposed convs for upsampling, and a linear 3-channel head. Exactly three
  add-skip junctions tie the downsampling and upsampling paths; PReLU
  activations everywhere except the head. No pooling layers.
* ``direct``: the parameters are the displacement field itself, one tensor of
  shape (3, nx, ny, nz), optimized per image pair. It reproduces classical
  variational registration and doubles as an oracle for the loss stack.

Checkpoint container "FCK1": magic, a key=value metadata block, then named
float32 little-endian tensors. Round trips are bit-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .volume import DisplacementField, FormatError, Volume

FULL_SCALE_REFERENCE_PARAMS = 179_787  # original network at 144x180x144

_CKPT_MAGIC = b"FCK1"


@dataclass(frozen=True)
class FaimConfig:
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

    def to_meta(self) -> dict[str, str]:
        return {
            "branch_kernels": ",".join(str(k) for k in self.branch_kernels),
            "branch_channels": str(self.branch_channels),
            "merge_channels": str(self.merge_channels),
            "enc1_channels": str(self.enc1_channels),
            "enc2_channels": str(self.enc2_channels),
            "head_kernel": str(self.head_kernel),
        }

    @classmethod
    def from_meta(cls, meta) -> "FaimConfig":
        cfg = cls(
            branch_kernels=tuple(int(k) for k in meta["branch_kernels"].split(",")),
            branch_channels=int(meta["branch_channels"]),
            merge_channels=int(meta["merge_channels"]),
            enc1_channels=int(meta["enc1_channels"]),
            enc2_channels=int(meta["enc2_channels"]),
            head_kernel=int(meta["head_kernel"]),
        )
        cfg.validate()
        return cfg


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


def build_faim(cfg: FaimConfig = FaimConfig(), seed: int = 0, dtype=np.float32) -> ModelParams:
    """Create the network parameters; same seed gives bit-identical values."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    cb, c0, c1, c2 = cfg.branch_channels, cfg.merge_channels, cfg.enc1_channels, cfg.enc2_channels
    tensors: dict[str, Tensor] = {}

    def conv_block(name, cin, cout, k, *, with_act=True, scale=1.0):
        w = _glorot(rng, (cout, cin, k, k, k), cin * k**3, cout * k**3, dtype, scale)
        tensors[f"{name}.w"] = Tensor(w, name=f"{name}.w")
        tensors[f"{name}.b"] = Tensor(np.zeros(cout, dtype=dtype), name=f"{name}.b")
        if with_act:
            tensors[f"{name}.a"] = Tensor(np.full(cout, 0.25, dtype=dtype), name=f"{name}.a")

    for k in cfg.branch_kernels:
        conv_block(f"branch{k}", 2, cb, k)
    conv_block("merge", cb * len(cfg.branch_kernels), c0, 1)
    conv_block("enc1", c0, c1, 3)
    conv_block("enc2", c1, c2, 3)
    conv_block("res", c2, c2, 3)
    # transposed-conv kernels are (Cin, Cout, k, k, k)
    w = _glorot(rng, (c2, c1, 2, 2, 2), c2 * 8, c1 * 8, dtype)
    tensors["up2.w"] = Tensor(w, name="up2.w")
    tensors["up2.b"] = Tensor(np.zeros(c1, dtype=dtype), name="up2.b")
    tensors["up2.a"] = Tensor(np.full(c1, 0.25, dtype=dtype), name="up2.a")
    w = _glorot(rng, (c1, c0, 2, 2, 2), c1 * 8, c0 * 8, dtype)
    tensors["up1.w"] = Tensor(w, name="up1.w")
    tensors["up1.b"] = Tensor(np.zeros(c0, dtype=dtype), name="up1.b")
    tensors["up1.a"] = Tensor(np.full(c0, 0.25, dtype=dtype), name="up1.a")
    # near-zero head so the initial deformation is close to identity
    conv_block("head", c0, 3, cfg.head_kernel, with_act=False, scale=1e-3)

    return ModelParams(kind="faim", tensors=tensors, config=cfg)


def faim_apply(params: ModelParams, x: Tensor) -> Tensor:
    """Run the network graph on a (2, nx, ny, nz) stacked source/target pair."""
    if params.kind != "faim":
        raise ValueError(f"expected a faim model, got kind {params.kind!r}")
    cfg = params.config
    t = params.tensors
    dims = x.data.shape[1:]
    if any(n % 4 != 0 for n in dims):
        raise ValueError(f"input dims must be divisible by 4, got {dims}")

    branches = []
    for k in cfg.branch_kernels:
        h = ad.conv3d(x, t[f"branch{k}.w"], t[f"branch{k}.b"], stride=1, padding=(k - 1) // 2)
        branches.append(ad.prelu(h, t[f"branch{k}.a"]))
    l0 = ad.prelu(ad.conv3d(ad.concat_channels(branches), t["merge.w"], t["merge.b"]), t["merge.a"])
    l1 = ad.prelu(ad.conv3d(l0, t["enc1.w"], t["enc1.b"], stride=2, padding=1), t["enc1.a"])
    l2 = ad.prelu(ad.conv3d(l1, t["enc2.w"], t["enc2.b"], stride=2, padding=1), t["enc2.a"])
    l3 = ad.add(ad.prelu(ad.conv3d(l2, t["res.w"], t["res.b"], stride=1, padding=1), t["res.a"]), l2)
    u2 = ad.prelu(ad.add(ad.conv3d_transpose(l3, t["up2.w"], t["up2.b"], stride=2), l1), t["up2.a"])
    u1 = ad.prelu(ad.add(ad.conv3d_transpose(u2, t["up1.w"], t["up1.b"], stride=2), l0), t["up1.a"])
    hk = cfg.head_kernel
    return ad.conv3d(u1, t["head.w"], t["head.b"], stride=1, padding=(hk - 1) // 2)


def faim_forward(params: ModelParams, source: Volume, target: Volume) -> DisplacementField:
    """Predict the displacement field registering source to target."""
    if source.dims != target.dims:
        raise ValueError(f"dims mismatch: {source.dims} vs {target.dims}")
    dtype = next(iter(params.tensors.values())).data.dtype
    x = Tensor(np.stack([source.data, target.data]).astype(dtype, copy=False), requires_grad=False)
    out = faim_apply(params, x)
    return DisplacementField(out.data)


def direct_field_model(dims, seed: int = 0, dtype=np.float32) -> ModelParams:
    """A model whose only parameter is the displacement field, zero-initialized."""
    dims = tuple(int(n) for n in dims)
    if len(dims) != 3 or min(dims) < 1:
        raise ValueError(f"bad dims {dims}")
    field_t = Tensor(np.zeros((3, *dims), dtype=dtype), name="field")
    return ModelParams(kind="direct", tensors={"field": field_t}, dims=dims)


# ---------------------------------------------------------------------------
# Architecture summary


def describe(params: ModelParams) -> str:
    lines = []
    if params.kind == "direct":
        nx, ny, nz = params.dims
        lines.append(f"direct-field model on {nx}x{ny}x{nz}")
        lines.append(f"field           3x{nx}x{ny}x{nz}            params {3 * nx * ny * nz}")
        lines.append(f"total parameters: {param_count(params)}")
        return "\n".join(lines)

    cfg = params.config
    cb, c0, c1, c2 = cfg.branch_channels, cfg.merge_channels, cfg.enc1_channels, cfg.enc2_channels

    def row(name, desc, n):
        lines.append(f"{name:<10} {desc:<46} params {n}")

    lines.append("faim network (input: stacked source+target, 2 channels)")
    for k in cfg.branch_kernels:
        row(f"branch{k}", f"conv k{k} s1 p{(k - 1) // 2}  2->{cb}  PReLU", 2 * cb * k**3 + 2 * cb)
    nb = len(cfg.branch_kernels)
    row("concat", f"channel concat -> {nb * cb}", 0)
    row("merge", f"conv k1 s1 p0  {nb * cb}->{c0}  PReLU", nb * cb * c0 + 2 * c0)
    row("enc1", f"conv k3 s2 p1  {c0}->{c1}  PReLU", c0 * c1 * 27 + 2 * c1)
    row("enc2", f"conv k3 s2 p1  {c1}->{c2}  PReLU", c1 * c2 * 27 + 2 * c2)
    row("res", f"conv k3 s1 p1  {c2}->{c2}  PReLU, add-skip from enc2", c2 * c2 * 27 + 2 * c2)
    row("up2", f"convT k2 s2 p0 {c2}->{c1}, add-skip from enc1, PReLU", c2 * c1 * 8 + 2 * c1)
    row("up1", f"convT k2 s2 p0 {c1}->{c0}, add-skip from merge, PReLU", c1 * c0 * 8 + 2 * c0)
    hk = cfg.head_kernel
    row("head", f"conv k{hk} s1 p{(hk - 1) // 2}  {c0}->3  linear", c0 * 3 * hk**3 + 3)
    lines.append("add skips: 3")
    lines.append("pooling layers: 0")
    lines.append("head activation: linear, 3 channels")
    lines.append(f"total parameters: {param_count(params)}")
    lines.append(f"reference full-scale parameter count: {FULL_SCALE_REFERENCE_PARAMS}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# FCK1 checkpoints


def save_checkpoint(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write metadata and named float32 tensors; load restores them bit-exactly."""
    blob = bytearray()
    blob += _CKPT_MAGIC
    text = "".join(f"{k}={v}\n" for k, v in meta.items()).encode("utf-8")
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
        text = buf[off:off + text_len].decode("utf-8")
        off += text_len
        meta = {}
        for line in text.splitlines():
            if line:
                k, _, v = line.partition("=")
                meta[k] = v
        (n_tensors,) = struct.unpack_from("<I", buf, off)
        off += 4
        arrays: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            (name_len,) = struct.unpack_from("<I", buf, off)
            off += 4
            name = buf[off:off + name_len].decode("utf-8")
            off += name_len
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
    """Rebuild a model from checkpoint contents (optimizer state is skipped)."""
    kind = meta.get("kind")
    model_arrays = {k: v for k, v in arrays.items() if not k.startswith(("adam.", "field:"))}
    if kind == "faim":
        cfg = FaimConfig.from_meta(meta)
        params = build_faim(cfg, seed=0)
        if set(params.tensors) != set(model_arrays):
            raise FormatError("checkpoint tensors do not match the model config")
        for name, t in params.tensors.items():
            if t.data.shape != model_arrays[name].shape:
                raise FormatError(f"checkpoint tensor {name} has shape {model_arrays[name].shape}, "
                                  f"expected {t.data.shape}")
            t.data = model_arrays[name]
        return params
    if kind == "direct":
        dims = tuple(int(n) for n in meta["dims"].split(","))
        params = direct_field_model(dims)
        if "field" in model_arrays:
            params.tensors["field"].data = model_arrays["field"]
        return params
    raise FormatError(f"unknown model kind {kind!r} in checkpoint")
