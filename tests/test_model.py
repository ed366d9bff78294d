import hashlib

import numpy as np
import pytest

import foldreg.autodiff as ad
from foldreg.model import (
    FaimConfig,
    build_faim,
    describe,
    direct_field_model,
    faim_apply,
    faim_forward,
    faim_input,
    load_checkpoint,
    param_count,
    params_from_checkpoint,
    save_checkpoint,
)
from foldreg.volume import FormatError, Volume


CUSTOM = FaimConfig(branch_kernels=(3, 5), branch_channels=4, merge_channels=8,
                    enc1_channels=8, enc2_channels=16, head_kernel=5)

# sha256 of the FCK1 file of build_faim(cfg, seed=0): pins tensor names,
# insertion order, shapes, RNG draws and the config metadata
CHECKPOINT_SHA256 = {
    "default": "95133e0eb297f1f2fdc6a334313881c1610867d4268129e3977f3a1ca932819a",
    "custom": "c71a2f35e7735381f7ca4fa0aaf6a35497c9379dc7edf3224c284de54213071e",
}


def hand_counted_params(cfg: FaimConfig) -> int:
    """Closed-form parameter total, written independently of the layer table."""
    cb, c0, c1, c2 = cfg.branch_channels, cfg.merge_channels, cfg.enc1_channels, cfg.enc2_channels
    total = 0
    for k in cfg.branch_kernels:
        total += cb * 2 * k**3 + cb + cb  # kernel + bias + prelu slopes
    nb = len(cfg.branch_kernels)
    total += c0 * (nb * cb) * 1 + c0 + c0
    total += c1 * c0 * 27 + c1 + c1
    total += c2 * c1 * 27 + c2 + c2
    total += c2 * c2 * 27 + c2 + c2
    total += c2 * c1 * 8 + c1 + c1
    total += c1 * c0 * 8 + c0 + c0
    total += 3 * c0 * cfg.head_kernel**3 + 3
    return total


class TestBuild:
    def test_param_count_matches_hand_count(self):
        cfg = FaimConfig()
        params = build_faim(cfg, seed=0)
        assert param_count(params) == hand_counted_params(cfg)

    def test_param_count_custom_config(self):
        params = build_faim(CUSTOM, seed=1)
        assert param_count(params) == hand_counted_params(CUSTOM)

    @pytest.mark.parametrize("name,cfg", [("default", FaimConfig()), ("custom", CUSTOM)])
    def test_checkpoint_bytes_pinned(self, name, cfg, tmp_path):
        path = tmp_path / "m.fck"
        save_checkpoint(path, {"kind": "faim", **cfg.to_meta()}, build_faim(cfg, seed=0).arrays())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256[name]

    def test_same_seed_bit_identical(self):
        a = build_faim(FaimConfig(), seed=7)
        b = build_faim(FaimConfig(), seed=7)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name].data, b.tensors[name].data)

    def test_different_seed_differs(self):
        a = build_faim(FaimConfig(), seed=7)
        b = build_faim(FaimConfig(), seed=8)
        assert any(not np.array_equal(a.tensors[n].data, b.tensors[n].data) for n in a.tensors)

    def test_resolution_independent(self):
        # parameter count is a function of the config only
        params = build_faim(FaimConfig(), seed=0)
        n = param_count(params)
        rng = np.random.default_rng(0)
        for size in (8, 16):
            src = Volume(rng.random((size,) * 3, dtype=np.float32))
            tgt = Volume(rng.random((size,) * 3, dtype=np.float32))
            faim_forward(params, src, tgt)
            assert param_count(params) == n

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            build_faim(FaimConfig(branch_kernels=(4,)), seed=0)
        with pytest.raises(ValueError):
            build_faim(FaimConfig(merge_channels=0), seed=0)

    def test_graph_has_three_add_skips_and_linear_head(self):
        params = build_faim(FaimConfig(), seed=0)
        x = ad.Tensor(np.zeros((2, 8, 8, 8), dtype=np.float32))
        out = faim_apply(params, x)
        ops, skips = [], 0
        stack, seen = [out], set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            ops.append(node.op)
            # a row with an add-skip is one node that reads two activations
            skips += node.op != "concat_channels" and sum(p.op != "leaf" for p in node.parents) == 2
            stack.extend(node.parents)
        assert skips == 3
        assert out.op == "conv3d"  # linear head, no activation on top
        assert out.data.shape[0] == 3
        assert "pool" not in " ".join(ops)

    def test_layer_call_sequence_pinned(self, monkeypatch):
        # checkpoints and the benchmark's layer tracer rely on this order of ad.* calls
        calls = []
        for op in ("conv3d", "conv3d_transpose", "prelu", "add", "concat_channels"):
            def spy(*args, _op=op, _fn=getattr(ad, op), **kwargs):
                calls.append(" ".join([_op, *[a.name for a in args if isinstance(a, ad.Tensor) and a.name][:1]]))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(ad, op, spy)
        faim_apply(build_faim(FaimConfig(), seed=0), ad.Tensor(np.zeros((2, 8, 8, 8), np.float32)))
        expected = [f"conv3d branch{k}.w" for k in (3, 5, 7)]
        expected += ["concat_channels", "conv3d merge.w", "conv3d enc1.w", "conv3d enc2.w", "conv3d res.w",
                     "conv3d_transpose up2.w", "conv3d_transpose up1.w", "conv3d head.w"]
        assert calls == expected


class TestForward:
    def test_output_shape(self):
        params = build_faim(FaimConfig(), seed=0)
        rng = np.random.default_rng(1)
        src = Volume(rng.random((16, 16, 16), dtype=np.float32))
        tgt = Volume(rng.random((16, 16, 16), dtype=np.float32))
        u = faim_forward(params, src, tgt)
        assert u.dims == (16, 16, 16)
        assert u.data.shape[0] == 3

    def test_near_zero_at_init(self):
        params = build_faim(FaimConfig(), seed=0)
        rng = np.random.default_rng(2)
        src = Volume(rng.random((12, 12, 12), dtype=np.float32))
        tgt = Volume(rng.random((12, 12, 12), dtype=np.float32))
        u = faim_forward(params, src, tgt)
        assert float(np.abs(u.data).max()) < 0.1

    def test_ordered_pair_asymmetry(self):
        params = build_faim(FaimConfig(), seed=0)
        rng = np.random.default_rng(3)
        src = Volume(rng.random((8, 8, 8), dtype=np.float32))
        tgt = Volume(rng.random((8, 8, 8), dtype=np.float32))
        u_st = faim_forward(params, src, tgt)
        u_ts = faim_forward(params, tgt, src)
        assert not np.array_equal(u_st.data, u_ts.data)

    def test_deterministic_forward(self):
        params = build_faim(FaimConfig(), seed=0)
        rng = np.random.default_rng(4)
        src = Volume(rng.random((8, 8, 8), dtype=np.float32))
        tgt = Volume(rng.random((8, 8, 8), dtype=np.float32))
        u1 = faim_forward(params, src, tgt)
        u2 = faim_forward(params, src, tgt)
        assert np.array_equal(u1.data, u2.data)

    def test_dims_not_divisible_by_four(self):
        params = build_faim(FaimConfig(), seed=0)
        rng = np.random.default_rng(5)
        src = Volume(rng.random((6, 6, 6), dtype=np.float32))
        with pytest.raises(ValueError, match="divisible by 4"):
            faim_forward(params, src, src)


class TestTapeFreeForward:
    def _pair(self, seed, n=16):
        rng = np.random.default_rng(seed)
        return (Volume(rng.random((n, n, n), dtype=np.float32)),
                Volume(rng.random((n, n, n), dtype=np.float32)))

    def test_same_bytes_as_taped_apply(self):
        params = build_faim(FaimConfig(), seed=0)
        src, tgt = self._pair(6)
        taped = faim_apply(params, faim_input(params, src, tgt))
        assert taped.requires_grad and taped.parents
        assert faim_forward(params, src, tgt).data.tobytes() == taped.data.tobytes()

    def test_op_outputs_hold_no_tape(self, monkeypatch):
        outputs = []
        for op in ("conv3d", "conv3d_transpose", "prelu", "add", "concat_channels"):
            def spy(*args, _fn=getattr(ad, op), **kwargs):
                outputs.append(_fn(*args, **kwargs))
                return outputs[-1]
            monkeypatch.setattr(ad, op, spy)
        faim_forward(build_faim(FaimConfig(), seed=0), *self._pair(7, 8))
        assert len(outputs) == 11  # one node per layer row, and the concat
        for out in outputs:
            assert out.parents == () and out.backward_fn is None and not out.requires_grad

    @pytest.mark.parametrize("cfg", [FaimConfig(), CUSTOM], ids=["default", "custom"])
    @pytest.mark.parametrize("taped", [False, True], ids=["tape-free", "taped"])
    def test_branches_are_concatenated_as_a_view(self, monkeypatch, cfg, taped):
        joins = []

        def spy(xs, _fn=ad.concat_channels):
            joins.append((list(xs), _fn(xs)))
            return joins[-1][1]

        monkeypatch.setattr(ad, "concat_channels", spy)
        params = build_faim(cfg, seed=0)
        src, tgt = self._pair(9, 8)
        if taped:
            faim_apply(params, faim_input(params, src, tgt))
        else:
            faim_forward(params, src, tgt)
        (branches, cat), = joins
        assert cat.data.shape == (cfg.branch_channels * len(cfg.branch_kernels), 8, 8, 8)
        assert all(np.shares_memory(cat.data, b.data) for b in branches)

    def test_caller_params_untouched(self):
        params = build_faim(FaimConfig(), seed=0)
        before = {name: t.data for name, t in params.tensors.items()}
        faim_forward(params, *self._pair(8, 8))
        for name, t in params.tensors.items():
            assert t.requires_grad and t.grad is None and t.data is before[name]


class TestDirectModel:
    def test_zero_init(self):
        params = direct_field_model((8, 8, 8))
        field = params.tensors["field"].data
        assert field.shape == (3, 8, 8, 8)
        assert not field.any()

    def test_param_count(self):
        params = direct_field_model((16, 16, 16))
        assert param_count(params) == 3 * 16**3

    def test_one_adam_step_descends(self):
        from foldreg import optim
        from foldreg.trainer import TrainConfig, _loss_and_grad

        rng = np.random.default_rng(6)
        src = Volume(rng.random((8, 8, 8), dtype=np.float32))
        tgt = Volume(rng.random((8, 8, 8), dtype=np.float32))
        cfg = TrainConfig(lr=1e-3, alpha=0.1, beta=0.0, cc_mode="global")
        params = direct_field_model((8, 8, 8))
        field = params.tensors["field"].data
        state = optim.adam_init({"field": field}, lr=cfg.lr)
        bd0, g = _loss_and_grad(src, tgt, field, cfg)
        optim.adam_step({"field": field}, {"field": g}, state)
        bd1, _ = _loss_and_grad(src, tgt, field, cfg)
        assert bd1.total < bd0.total

    def test_high_beta_unfolds_seeded_folding(self):
        # hand-seeded folding field on a 16^3 toy: optimizing the penalty
        # alone drives the folding count to zero
        from foldreg import optim
        from foldreg.jacobian import det_map, folding_count, r2_backward
        from foldreg.volume import DisplacementField

        grid = np.indices((16, 16, 16)).astype(np.float64)
        u = np.zeros((3, 16, 16, 16), dtype=np.float32)
        u[0] = (-4.0 * np.sin(np.pi * grid[0] / 8)).astype(np.float32)
        assert folding_count(det_map(DisplacementField(u))) > 0
        state = optim.adam_init({"u": u}, lr=0.05)
        for _ in range(200):
            g = r2_backward(DisplacementField(u))
            if not g.any():
                break
            optim.adam_step({"u": u}, {"u": g}, state)
        assert folding_count(det_map(DisplacementField(u))) == 0


class TestDescribe:
    def test_reports_skips_and_head(self):
        text = describe(build_faim(FaimConfig(), seed=0))
        assert "add skips: 3" in text
        assert "pooling layers: 0" in text
        assert "linear" in text
        assert "179787" in text

    @pytest.mark.parametrize("cfg", [FaimConfig(), CUSTOM], ids=["default", "custom"])
    def test_layer_rows_count_actual_tensors(self, cfg):
        params = build_faim(cfg, seed=0)
        rows = [line for line in describe(params).splitlines() if " params " in line]
        total = 0
        for line in rows:
            layer, n = line.split()[0], int(line.rsplit("params ", 1)[1])
            assert n == sum(t.data.size for key, t in params.tensors.items() if key.split(".")[0] == layer)
            total += n
        # one row per tensor-owning layer, plus the concat junction
        layers = {key.split(".")[0] for key in params.tensors} | {"concat"}
        assert sorted(line.split()[0] for line in rows) == sorted(layers)
        assert total == param_count(params) == hand_counted_params(cfg)

    def test_direct_model_parameter_total(self):
        text = describe(direct_field_model((16, 16, 16)))
        assert str(3 * 16**3) in text


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = build_faim(FaimConfig(), seed=3)
        meta = {"kind": "faim", **params.config.to_meta(), "note": "x=1"}
        path = tmp_path / "m.fck"
        save_checkpoint(path, meta, params.arrays())
        meta2, arrays = load_checkpoint(path)
        assert meta2 == meta
        for name, t in params.tensors.items():
            assert np.array_equal(arrays[name], t.data)
        rebuilt = params_from_checkpoint(meta2, arrays)
        for name, t in params.tensors.items():
            assert np.array_equal(rebuilt.tensors[name].data, t.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.fck"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(FormatError, match="bad magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        params = build_faim(FaimConfig(), seed=3)
        path = tmp_path / "m.fck"
        save_checkpoint(path, {"kind": "faim", **params.config.to_meta()}, params.arrays())
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("defect,message", [
        ("trailing_bytes", "payload size mismatch"),
        ("missing_tensor", "checkpoint tensors do not match the model config"),
        ("extra_tensor", "checkpoint tensors do not match the model config"),
        ("wrong_shape", r"checkpoint tensor head\.w has shape \(1, 2, 3\)"),
    ])
    def test_malformed_tensors(self, tmp_path, defect, message):
        params = build_faim(FaimConfig(), seed=3)
        arrays = params.arrays()
        if defect == "missing_tensor":
            arrays.pop(next(iter(arrays)))
        elif defect == "extra_tensor":
            arrays["stray.w"] = np.zeros(2, np.float32)
        elif defect == "wrong_shape":
            arrays["head.w"] = np.zeros((1, 2, 3), np.float32)
        path = tmp_path / "m.fck"
        save_checkpoint(path, {"kind": "faim", **params.config.to_meta()}, arrays)
        if defect == "trailing_bytes":
            path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match=message):
            params_from_checkpoint(*load_checkpoint(path))

    @pytest.mark.parametrize("kind,drop,override", [
        ("faim", "head_kernel", {}),
        ("direct", "dims", {}),
        ("faim", None, {"branch_channels": "eight"}),
        ("faim", None, {"head_kernel": "4"}),
    ], ids=["faim_missing_key", "direct_missing_dims", "unparsable_value", "invalid_config"])
    def test_malformed_metadata_is_format_error(self, kind, drop, override):
        if kind == "faim":
            params = build_faim(FaimConfig(), seed=0)
            meta, arrays = {"kind": "faim", **params.config.to_meta()}, params.arrays()
        else:
            meta, arrays = {"kind": "direct", "dims": "4,4,4"}, {"field:a:b": np.zeros((3, 4, 4, 4), np.float32)}
        meta.pop(drop, None)
        meta.update(override)
        with pytest.raises(FormatError, match="checkpoint metadata"):
            params_from_checkpoint(meta, arrays)

    def test_direct_checkpoint_params_are_its_fields(self):
        meta = {"kind": "direct", "dims": "4,4,4"}
        arrays = {f"field:{p}": np.full((3, 4, 4, 4), i, np.float32) for i, p in enumerate(["a:b", "b:a"])}
        params = params_from_checkpoint(meta, arrays)
        assert sorted(params.tensors) == ["field:a:b", "field:b:a"]
        assert np.array_equal(params.tensors["field:b:a"].data, arrays["field:b:a"])
        assert param_count(params) == 2 * 3 * 4**3
        arrays["field:a:b"] = np.zeros((3, 4, 4, 5), np.float32)
        with pytest.raises(FormatError, match="field:a:b"):
            params_from_checkpoint(meta, arrays)

    def test_tensor_named_twice_rejected(self, tmp_path):
        # the later record once won silently; save_checkpoint takes a dict, so the file is edited
        arrays = {"field:a:b": np.zeros((3, 4, 4, 4), np.float32), "field:a:c": np.ones((3, 4, 4, 4), np.float32)}
        path = tmp_path / "d.fck"
        save_checkpoint(path, {"kind": "direct", "dims": "4,4,4"}, arrays)
        path.write_bytes(path.read_bytes().replace(b"field:a:c", b"field:a:b"))
        with pytest.raises(FormatError, match="tensor 'field:a:b' is named twice"):
            load_checkpoint(path)

    def test_metadata_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "d.fck"
        save_checkpoint(path, {"kind": "direct", "dims": "4,4,4"}, {"field:a:b": np.zeros((3, 4, 4, 4), np.float32)})
        blob = path.read_bytes().replace(b"dims=4,4,4", b"dims:4,4,4")
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"line 2: expected key=value, got 'dims:4,4,4'"):
            load_checkpoint(path)

    def test_direct_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        arrays = {"field:a:b": rng.standard_normal((3, 4, 4, 4)).astype(np.float32)}
        meta = {"kind": "direct", "dims": "4,4,4"}
        path = tmp_path / "d.fck"
        save_checkpoint(path, meta, arrays)
        meta2, arrays2 = load_checkpoint(path)
        assert np.array_equal(arrays2["field:a:b"], arrays["field:a:b"])
        assert meta2["dims"] == "4,4,4"
