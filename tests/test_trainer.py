import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldreg import _forkjoin, metrics, model, trainer
from foldreg.autodiff import Tensor
from foldreg.jacobian import det_map, folding_count, jacobian_raw
from foldreg.loss import total_loss
from foldreg.trainer import (
    Dataset,
    TrainConfig,
    TrainingDiverged,
    load_config,
    load_dataset,
    make_pairs,
    save_config,
    save_dataset,
    synth_dataset,
    train,
    write_loss_log,
)
from foldreg.volume import DisplacementField, Volume
from foldreg.warp import warp_image



# sha256 of test_run_bytes_pinned's loss rows and fields
DIRECT_RUN_SHA256 = "14a211439183a9a2293b4f87154507222f08f3bd311cea7f06061ba573d003fe"
# sha256 of test_bytes_pinned's volumes, labels and fields
SYNTH_SHA256 = "a404db26bd96a962f093bab9ed99cc52cc244a0cf4362d034d881ec9a990743b"


class TestMakePairs:
    def test_cohort_pair_counts(self):
        assert len(make_pairs(range(42))) == 1722
        assert len(make_pairs(range(20))) == 380

    def test_single_id(self):
        assert make_pairs(["a"]) == []

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_pairs(["a", "a", "b"])

    def test_lexicographic_order(self):
        pairs = make_pairs(["c", "a", "b"])
        assert pairs == [("a", "b"), ("a", "c"), ("b", "a"), ("b", "c"), ("c", "a"), ("c", "b")]

    @given(st.integers(2, 12))
    @settings(max_examples=12, deadline=None)
    def test_count_law(self, n):
        pairs = make_pairs(range(n))
        assert len(pairs) == n * (n - 1)
        assert len(set(pairs)) == len(pairs)
        assert all(s != t for s, t in pairs)


class TestSynthDataset:
    def test_ground_truth_fields_fold_free(self):
        ds = synth_dataset(seed=0, n=3, dims=(8, 8, 8))
        for sid in ds.ids:
            assert folding_count(det_map(ds.fields[sid])) == 0

    def test_row_sum_guarantee(self):
        # the construction caps max_x sum_a |dU_c/dx_a| below 0.5
        ds = synth_dataset(seed=1, n=3, dims=(12, 12, 12))
        for sid in ds.ids:
            D = jacobian_raw(ds.fields[sid].data.astype(np.float64))
            assert np.abs(D).sum(axis=1).max() < 0.5

    def test_same_seed_bit_identical(self):
        a = synth_dataset(seed=5, n=3, dims=(8, 8, 8))
        b = synth_dataset(seed=5, n=3, dims=(8, 8, 8))
        for sid in a.ids:
            assert np.array_equal(a.volumes[sid].data, b.volumes[sid].data)
            assert np.array_equal(a.labels[sid].data, b.labels[sid].data)
            assert np.array_equal(a.fields[sid].data, b.fields[sid].data)

    def test_labels_partition(self):
        ds = synth_dataset(seed=2, n=2, dims=(8, 8, 8), n_labels=4)
        for sid in ds.ids:
            lab = ds.labels[sid].data
            assert lab.min() >= 0
            assert lab.max() <= 4

    def test_volumes_normalized(self):
        ds = synth_dataset(seed=3, n=2, dims=(8, 8, 8))
        for sid in ds.ids:
            assert ds.volumes[sid].data.max() == 1.0
            assert ds.volumes[sid].data.min() >= 0.0

    def test_dims_divisibility(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            synth_dataset(seed=0, n=2, dims=(9, 8, 8))

    def test_bytes_pinned(self):
        # cubes and anisotropic extents, small and up to 64 x 48 x 40
        import hashlib

        digest = hashlib.sha256()
        for dims in ((16, 16, 16), (20, 16, 12), (32, 32, 32), (64, 48, 40)):
            ds = synth_dataset(seed=0, n=2, dims=dims)
            for sid in ds.ids:
                for a in (ds.volumes[sid].data, ds.labels[sid].data, ds.fields[sid].data):
                    digest.update(f"{a.dtype.str}{a.shape}".encode())
                    digest.update(a.tobytes())
        assert digest.hexdigest() == SYNTH_SHA256


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        ds = synth_dataset(seed=4, n=3, dims=(8, 8, 8))
        manifest = save_dataset(ds, tmp_path / "data")
        loaded = load_dataset(manifest)
        assert loaded.ids == ds.ids
        for sid in ds.ids:
            assert np.array_equal(loaded.volumes[sid].data, ds.volumes[sid].data)
            assert np.array_equal(loaded.labels[sid].data, ds.labels[sid].data)
            assert np.array_equal(loaded.fields[sid].data, ds.fields[sid].data)

    def test_directory_argument(self, tmp_path):
        ds = synth_dataset(seed=4, n=2, dims=(8, 8, 8))
        save_dataset(ds, tmp_path / "data")
        loaded = load_dataset(tmp_path / "data")
        assert loaded.ids == ds.ids

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")

    @pytest.mark.parametrize("entry", ["volume s00 volumes/s01.frv", "label s01 labels/s01.frv",
                                       "field s00 fields/s00.frv"])
    def test_duplicate_entry_rejected(self, tmp_path, entry):
        # a second volume s00 once replaced the first, so training ran on identical pairs
        manifest = save_dataset(synth_dataset(seed=4, n=2, dims=(8, 8, 8)), tmp_path / "data")
        lines = manifest.read_text().splitlines()
        kind, sid = entry.split()[:2]
        first = 1 + next(i for i, line in enumerate(lines) if line.split()[:2] == [kind, sid])
        manifest.write_text("\n".join(lines + [entry]) + "\n")
        with pytest.raises(ValueError, match=rf":{len(lines) + 1}: {kind} '{sid}' is already listed on line {first}$"):
            load_dataset(manifest)


CUSTOM_TRAIN = TrainConfig(lr=2e-4, epochs=1, alpha=0.5, beta=0.25, cc_mode="global", cc_window=5, seed=3,
                           crop=(8, 8, 8), clip_norm=1.5, steps=2)
CUSTOM_FAIM = model.FaimConfig(branch_kernels=(3, 5), branch_channels=4, merge_channels=8, enc1_channels=8,
                               enc2_channels=16, head_kernel=5)
DEFAULT_LINES = ("lr=0.0001\nepochs={}\nalpha=1.0\nbeta=0.0\ncc_mode=local\ncc_window=9\nseed=0\n"
                 "crop=none\nclip_norm=none\nsteps={}\n")
CUSTOM_LINES = ("lr=0.0002\nepochs=1\nalpha=0.5\nbeta=0.25\ncc_mode=global\ncc_window=5\nseed=3\n"
                "crop=8,8,8\nclip_norm=1.5\nsteps=2\n")
# config.txt and FCK1 metadata text of small runs on 12^3 subjects, recorded
# before TrainConfig and FaimConfig shared one codec: (kind, train config,
# model config, config.txt, checkpoint metadata)
PINNED_RUNS = {
    "faim-default": ("faim", TrainConfig(epochs=1), None, DEFAULT_LINES.format(1, 100),
                     "kind=faim\ndims=12,12,12\n" + DEFAULT_LINES.format(1, 100)
                     + "branch_kernels=3,5,7\nbranch_channels=8\nmerge_channels=16\nenc1_channels=32\n"
                       "enc2_channels=32\nhead_kernel=3\n"),
    "faim-custom": ("faim", CUSTOM_TRAIN, CUSTOM_FAIM, CUSTOM_LINES,
                    "kind=faim\ndims=8,8,8\n" + CUSTOM_LINES
                    + "branch_kernels=3,5\nbranch_channels=4\nmerge_channels=8\nenc1_channels=8\n"
                      "enc2_channels=16\nhead_kernel=5\n"),
    "direct-default": ("direct", TrainConfig(steps=2), None, DEFAULT_LINES.format(10, 2),
                       "kind=direct\ndims=12,12,12\n" + DEFAULT_LINES.format(10, 2)),
    "direct-custom": ("direct", CUSTOM_TRAIN, None, CUSTOM_LINES, "kind=direct\ndims=8,8,8\n" + CUSTOM_LINES),
}


class TestConfigFile:
    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_run_metadata_pinned(self, tmp_path, name):
        kind, cfg, faim_cfg, config_text, meta_text = PINNED_RUNS[name]
        train(cfg, tiny_dataset(dims=(12, 12, 12)).volumes, kind=kind, out_dir=tmp_path, faim_config=faim_cfg)
        assert (tmp_path / "config.txt").read_text() == config_text
        blob = (tmp_path / "checkpoint.fck").read_bytes()
        (length,) = struct.unpack_from("<I", blob, 4)
        assert blob[8:8 + length].decode() == meta_text
        assert load_config(tmp_path / "config.txt") == cfg

    def test_round_trip(self, tmp_path):
        cfg = TrainConfig(lr=5e-3, epochs=2, alpha=0.25, beta=1e-3, cc_mode="global",
                          cc_window=5, seed=9, crop=(8, 8, 8), clip_norm=2.0, steps=40)
        path = tmp_path / "config.txt"
        save_config(cfg, path)
        assert load_config(path) == cfg

    @pytest.mark.parametrize("text,match", [
        ("epochz=3\n", "unknown setting epochz"),
        ("crop=8,8\n", "crop must be 3 positive ints"),
        ("lr=abc\n", "could not convert"),
        ("lr 5\n", "config.txt: line 1: expected key=value"),
    ], ids=["unknown_key", "short_crop", "unparsable_value", "line_without_equals"])
    def test_malformed_file_rejected(self, tmp_path, text, match):
        path = tmp_path / "config.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_config(path)

    def test_defaults_from_empty_meta(self):
        cfg = TrainConfig.from_meta({})
        assert cfg.lr == 1e-4
        assert cfg.epochs == 10
        assert cfg.alpha == 1.0
        assert cfg.beta == 0.0


def tiny_dataset(seed=0, n=3, dims=(8, 8, 8)):
    return synth_dataset(seed=seed, n=n, dims=dims)


def _checkpoint_loss_on_failing_pair(err, ds, cfg, pair=None):
    """The kept checkpoint's tensors and its total loss on ``pair``, by default the pair the run diverged on."""
    src_id, tgt_id = pair or re.search(r"pair (\w+)->(\w+)", str(err)).groups()
    meta, arrays = model.load_checkpoint(err.checkpoint_path)
    src, tgt = ds.volumes[src_id], ds.volumes[tgt_id]
    if meta["kind"] == "faim":
        u = model.faim_forward(model.params_from_checkpoint(meta, arrays), src, tgt)
    else:
        u = DisplacementField(arrays[f"field:{src_id}:{tgt_id}"])
    bd = total_loss(warp_image(src, u), tgt, u, cfg.alpha, cfg.beta, cfg.cc_mode, cfg.cc_window)
    return arrays, bd.total


class TestTrainDirect:
    def test_identical_volumes_stay_near_zero(self):
        rng = np.random.default_rng(7)
        vol = Volume(rng.random((8, 8, 8), dtype=np.float32))
        cfg = TrainConfig(lr=1e-3, alpha=1.0, beta=0.0, cc_mode="global", seed=0, steps=5)
        res = train(cfg, {"a": vol, "b": Volume(vol.data.copy())}, kind="direct")
        for _, _, _, _, bd in res.log_rows:
            assert bd.image < 1e-3
        final_field = res.arrays["field:a:b"]
        assert float(np.abs(final_field).max()) < 0.05

    def test_descent_on_synth(self):
        ds = tiny_dataset()
        cfg = TrainConfig(lr=0.05, alpha=0.1, beta=0.0, cc_mode="global", seed=0, steps=60)
        res = train(cfg, {k: ds.volumes[k] for k in ds.ids[:2]}, kind="direct")
        per_pair = {}
        for _, it, s, t, bd in res.log_rows:
            per_pair.setdefault((s, t), []).append(bd.image)
        for seq in per_pair.values():
            assert seq[-1] < seq[0]

    def test_checkpoint_contains_pair_fields(self, tmp_path):
        ds = tiny_dataset()
        cfg = TrainConfig(lr=0.01, alpha=0.1, seed=0, steps=3, cc_mode="global")
        res = train(cfg, {k: ds.volumes[k] for k in ds.ids[:2]}, kind="direct", out_dir=tmp_path)
        assert res.checkpoint_path.is_file()
        assert res.log_path.is_file()
        keys = set(res.arrays)
        assert keys == {"field:s00:s01", "field:s01:s00"}

    def test_log_rows_count(self):
        ds = tiny_dataset()
        cfg = TrainConfig(lr=0.01, alpha=0.1, seed=0, steps=4, cc_mode="global")
        res = train(cfg, ds.volumes, kind="direct")
        assert len(res.log_rows) == 6 * 4  # 3 subjects -> 6 ordered pairs x 4 steps

    def test_monotone_descent_at_tiny_lr(self):
        # smoothness-dominated single pair: with a small enough step the
        # loss sequence never increases
        ds = tiny_dataset()
        cfg = TrainConfig(lr=1e-6, alpha=1.0, beta=0.0, cc_mode="global", seed=0, steps=30)
        res = train(cfg, {k: ds.volumes[k] for k in ds.ids[:2]}, kind="direct")
        totals = [bd.total for _, _, s, t, bd in res.log_rows if (s, t) == ("s00", "s01")]
        assert all(b <= a for a, b in zip(totals, totals[1:]))

    def test_run_bytes_pinned(self):
        # loss rows and final fields of a direct run with folding (the
        # direct_register settings at 12^3): the field is a leaf root, whose
        # float64 seed backward adopts as its gradient
        import hashlib

        ds = synth_dataset(seed=3, n=2, dims=(12, 12, 12))
        cfg = TrainConfig(lr=0.1, alpha=0.01, beta=0.01, seed=0, steps=8)
        res = train(cfg, ds.volumes, kind="direct")
        digest = hashlib.sha256()
        for step, it, s, t, bd in res.log_rows:
            digest.update(f"{step},{it},{s},{t},{bd.image!r},{bd.r1!r},{bd.r2!r},{bd.total!r}".encode())
        for name, a in sorted(res.arrays.items()):
            digest.update(f"{name}{a.dtype.str}{a.shape}".encode())
            digest.update(a.tobytes())
        assert digest.hexdigest() == DIRECT_RUN_SHA256


class TestTrainFaim:
    def test_two_epoch_log_and_checkpoint(self, tmp_path):
        ds = tiny_dataset()
        cfg = TrainConfig(lr=1e-4, epochs=2, alpha=1.0, beta=0.0, seed=0, cc_mode="local", cc_window=5)
        res = train(cfg, ds.volumes, kind="faim", out_dir=tmp_path)
        assert len(res.log_rows) == 2 * 6
        assert res.checkpoint_path.is_file()
        # every pair visited once per epoch
        for epoch in (0, 1):
            pairs_seen = {(s, t) for _, e, s, t, _ in res.log_rows if e == epoch}
            assert len(pairs_seen) == 6

    def test_reproducible_loss_log(self, tmp_path):
        ds = tiny_dataset()
        cfg = TrainConfig(lr=1e-4, epochs=1, alpha=1.0, seed=3, cc_mode="global")
        r1 = train(cfg, ds.volumes, kind="faim", out_dir=tmp_path / "a")
        r2 = train(cfg, ds.volumes, kind="faim", out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "loss_log.csv").read_bytes() == (tmp_path / "b" / "loss_log.csv").read_bytes()
        for name in r1.arrays:
            assert np.array_equal(r1.arrays[name], r2.arrays[name])

    def test_inputs_not_mutated(self):
        ds = tiny_dataset()
        before = {k: v.data.copy() for k, v in ds.volumes.items()}
        cfg = TrainConfig(lr=1e-4, epochs=1, alpha=1.0, seed=0, cc_mode="global")
        train(cfg, ds.volumes, kind="faim")
        for k, v in ds.volumes.items():
            assert np.array_equal(v.data, before[k])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_keeps_last_checkpoint(self, tmp_path):
        ds = tiny_dataset()
        # absurd learning rates force NaN quickly; the kept checkpoint is the
        # one from before the update that diverged, so its loss is finite
        for lr in (1e3, 1e12):
            cfg = TrainConfig(lr=lr, epochs=5, alpha=1.0, seed=0, cc_mode="global")
            with pytest.raises(TrainingDiverged, match="loss diverged") as err:
                train(cfg, ds.volumes, kind="faim", out_dir=tmp_path / repr(lr))
            assert err.value.checkpoint_path is not None
            assert err.value.checkpoint_path.is_file()
            _, loss = _checkpoint_loss_on_failing_pair(err.value, ds, cfg)
            assert np.isfinite(loss)

    def test_needs_two_volumes(self):
        ds = tiny_dataset()
        cfg = TrainConfig()
        with pytest.raises(ValueError, match="at least 2"):
            train(cfg, {"a": ds.volumes["s00"]}, kind="faim")

    def test_crop_applied(self):
        ds = tiny_dataset(dims=(12, 12, 12))
        cfg = TrainConfig(lr=1e-4, epochs=1, alpha=1.0, seed=0, crop=(8, 8, 8), cc_mode="global")
        res = train(cfg, {k: ds.volumes[k] for k in ds.ids[:2]}, kind="faim")
        assert res.meta["dims"] == "8,8,8"


class TestDivergence:
    """Both kinds share one step and one divergence protocol; a step fails on its third call."""

    def _diverge(self, tmp_path, monkeypatch, kind, route):
        real = trainer._loss_and_grad
        ds = tiny_dataset()
        ids = {id(v): sid for sid, v in ds.volumes.items()}  # uncropped runs train on these objects
        calls = []  # (pair, breakdown) of every loss evaluation

        def poisoned(src, tgt, u_arr, cfg):
            bd, grad_u = real(src, tgt, u_arr, cfg)
            calls.append(((ids[id(src)], ids[id(tgt)]), bd))
            if len(calls) == 3:
                if route == "loss":
                    return None, None
                grad_u = np.full_like(grad_u, np.nan)
            return bd, grad_u

        monkeypatch.setattr(trainer, "_loss_and_grad", poisoned)
        cfg = TrainConfig(lr=1e-2, epochs=1, alpha=1.0, seed=0, cc_mode="global", steps=5)
        message = "loss diverged" if route == "loss" else "diverged gradient in '.+'"
        with pytest.raises(TrainingDiverged, match=rf"^{message} at step 2 \(pair (\w+)->(\w+)\)$") as err:
            train(cfg, ds.volumes, kind=kind, out_dir=tmp_path)
        assert err.value.checkpoint_path == tmp_path / "checkpoint.fck"
        assert f"pair {calls[2][0][0]}->{calls[2][0][1]}" in str(err.value)
        # the diverged run writes the same three files as a finished one,
        # and its log holds the two completed steps
        rows = [line.split(",") for line in (tmp_path / "loss_log.csv").read_text().splitlines()[1:]]
        assert [(int(r[0]), (r[2], r[3]), float(r[-1])) for r in rows] == [
            (step, pair, bd.total) for step, (pair, bd) in enumerate(calls[:2])]
        assert load_config(tmp_path / "config.txt") == cfg
        return ds, cfg, err.value, calls

    def test_non_finite_total_forms_no_gradient(self, monkeypatch):
        # a finite field but a NaN voxel in the target: the total is NaN, and
        # _loss_and_grad returns before loss_backward
        ds = tiny_dataset()
        tgt = ds.volumes["s01"].data.copy()
        tgt[2, 3, 4] = np.nan
        monkeypatch.setattr(trainer.loss_mod, "loss_backward", lambda *args: pytest.fail("gradient formed"))
        u_arr = np.zeros((3, *tgt.shape), dtype=np.float32)
        cfg = TrainConfig(cc_mode="global")
        assert trainer._loss_and_grad(ds.volumes["s00"], Volume(tgt), u_arr, cfg) == (None, None)

    @pytest.mark.parametrize("kind", ["faim", "direct"])
    def test_loss_path_keeps_last_good(self, tmp_path, monkeypatch, kind):
        # non-finite loss on the third step: the kept state is the one the
        # second loss was computed with, after one update
        ds, cfg, err, calls = self._diverge(tmp_path, monkeypatch, kind, "loss")
        pair, bd = calls[1]
        arrays, loss = _checkpoint_loss_on_failing_pair(err, ds, cfg, pair)
        assert loss == pytest.approx(bd.total, rel=1e-5)
        if kind == "faim":
            assert set(arrays) == set(model.build_faim(model.FaimConfig(), seed=0).tensors)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kind", ["faim", "direct"])
    def test_gradient_path_keeps_last_good(self, tmp_path, monkeypatch, kind):
        # finite loss, non-finite gradient on the third step: adam_step refuses it
        ds, cfg, err, calls = self._diverge(tmp_path, monkeypatch, kind, "gradient")
        arrays, loss = _checkpoint_loss_on_failing_pair(err, ds, cfg)
        # the parameters the third loss was computed with, after two updates
        assert loss == pytest.approx(calls[2][1].total, rel=1e-5)
        if kind == "faim":
            assert set(arrays) == set(model.build_faim(model.FaimConfig(), seed=0).tensors)


class TestCheckpointContents:
    def test_parameters_only_and_earlier_format_loads(self, tmp_path):
        ds = tiny_dataset()
        res = train(TrainConfig(epochs=1), ds.volumes, out_dir=tmp_path)
        meta, arrays = model.load_checkpoint(res.checkpoint_path)
        assert list(arrays) == list(model.build_faim(model.FaimConfig(), seed=0).tensors)
        assert not any(key.startswith("adam") for key in meta)

        # the layout earlier versions wrote: every parameter, then adam.m:<name>
        # and adam.v:<name> for each, and adam_t last in the metadata
        rng = np.random.default_rng(5)
        old_arrays = dict(arrays)
        for name, a in arrays.items():
            old_arrays[f"adam.m:{name}"] = rng.standard_normal(a.shape).astype(np.float32)
            old_arrays[f"adam.v:{name}"] = rng.random(a.shape).astype(np.float32)
        model.save_checkpoint(tmp_path / "old.fck", {**meta, "adam_t": "6"}, old_arrays)
        old_meta, old_arrays = model.load_checkpoint(tmp_path / "old.fck")
        assert len(old_arrays) == 3 * len(arrays) and old_meta["adam_t"] == "6"

        rebuilt = model.params_from_checkpoint(old_meta, old_arrays)
        assert list(rebuilt.tensors) == list(arrays)
        for name, t in rebuilt.tensors.items():
            assert t.data.dtype == arrays[name].dtype
            assert np.array_equal(t.data, arrays[name])
        src, tgt = ds.volumes["s00"], ds.volumes["s01"]
        u_old = metrics.checkpoint_predictor(old_meta, old_arrays)("s00", "s01", src, tgt)
        u_new = metrics.checkpoint_predictor(meta, arrays)("s00", "s01", src, tgt)
        assert u_old.data.tobytes() == u_new.data.tobytes()
        assert TrainConfig.from_checkpoint(old_meta) == TrainConfig(epochs=1)


class TestLossLog:
    def test_csv_columns(self, tmp_path):
        from foldreg.loss import LossBreakdown

        rows = [(0, 0, "a", "b", LossBreakdown(0.5, 0.1, 0.0, 0.6, 1.0, 0.0))]
        path = tmp_path / "log.csv"
        write_loss_log(rows, path)
        text = path.read_text().splitlines()
        assert text[0] == "step,epoch,source,target,image,r1,r2,total"
        assert text[1].startswith("0,0,a,b,0.5,0.1,0.0,0.6")


class TestPeakMemory:
    """tracemalloc peaks of the bytes allocated while a step or a forward pass runs.

    With every gradient buffer zero-filled before backward and a taped
    inference forward, the peaks were 15.4 MB (one 16^3 training step) and
    37.5 MB (one 32^3 ``faim_forward``); freeing each array at its last use
    takes them to about 9.5 and 16.6 MB, and interior gradients in their
    node's dtype (float32 here) take the training step to about 7.4 MB.
    Snapshotting only the parameters before each update, not Adam's two
    float64 moment copies as well, takes it from 7.32 to 5.85 MB.
    """

    @staticmethod
    def _peak(fn) -> int:
        import tracemalloc

        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_faim_training_step(self):
        ds = synth_dataset(seed=0, n=2, dims=(16, 16, 16))
        params = model.build_faim(model.FaimConfig(), seed=0)
        state = trainer.optim.adam_init(params.arrays(), lr=1e-4)
        rows = []
        peak = self._peak(lambda: trainer._fit(params, state, [(0, ("s00", "s01"))], ds.volumes,
                                                TrainConfig(beta=0.01), rows))
        assert len(rows) == 1
        assert peak < 6_500_000

    def test_faim_training_step_32(self):
        # predict, loss and gradient, backward: 36.70-36.71 MB with the loss
        # stack's field half on the worker or not, as the backward pass sets it
        ds = synth_dataset(seed=0, n=2, dims=(32, 32, 32))
        params = model.build_faim(model.FaimConfig(), seed=0)
        src, tgt = ds.volumes["s00"], ds.volumes["s01"]

        def step():
            u = model.predict(params, src, tgt)
            _, grad_u = trainer._loss_and_grad(src, tgt, u.data, TrainConfig(beta=0.01))
            trainer.backward(u, seed=grad_u)

        assert self._peak(step) < 38_000_000

    def test_direct_loss_and_grad_32(self, monkeypatch):
        # 5.01 MB serial. With the worker forced on, 5.40 MB in the median of
        # 300 runs and 8.57 MB at most, as the two halves' transients overlap:
        # total_loss's local CC (3.44 MB peak) with the warp's derivative
        # (3.28 MB) and then the field values (3.54 MB), then loss_backward
        # (3.44 MB) with regularizer_grad (4.61 MB). The largest sum, with the
        # warped image and the derivative that waits for the join (0.52 MB),
        # is 8.57 MB, so the bound holds for every overlap
        monkeypatch.setattr(_forkjoin, "GRAIN", 0)
        monkeypatch.setattr(_forkjoin, "usable_cpus", lambda: 2)
        ds = synth_dataset(seed=0, n=2, dims=(32, 32, 32))
        u = (np.random.default_rng(1).standard_normal((3, 32, 32, 32)) * 0.8).astype(np.float32)
        assert folding_count(det_map(DisplacementField(u))) > 0
        cfg = TrainConfig(lr=0.1, alpha=0.01, beta=0.01)
        assert self._peak(lambda: trainer._loss_and_grad(ds.volumes["s00"], ds.volumes["s01"], u, cfg)) < 8_800_000

    def test_graph_released_before_update(self, monkeypatch):
        import gc

        ds = synth_dataset(seed=0, n=2, dims=(8, 8, 8))
        params = model.build_faim(model.FaimConfig(), seed=0)
        state = trainer.optim.adam_init(params.arrays(), lr=1e-4)
        leaves = {id(t) for t in params.tensors.values()}
        live_ops = []
        adam_step = trainer.optim.adam_step

        def checked(*args):
            live_ops.append(sum(1 for o in gc.get_objects()
                                if isinstance(o, Tensor) and any(id(p) in leaves for p in o.parents)))
            return adam_step(*args)

        monkeypatch.setattr(trainer.optim, "adam_step", checked)
        trainer._fit(params, state, [(0, ("s00", "s01"))], ds.volumes, TrainConfig(), [])
        assert live_ops == [0]

    def _faim_forward_peak(self, monkeypatch, worker):
        monkeypatch.setattr(_forkjoin, "GRAIN", 0 if worker else 1 << 62)
        monkeypatch.setattr(_forkjoin, "usable_cpus", lambda: 2)
        ds = synth_dataset(seed=0, n=2, dims=(32, 32, 32))
        params = model.build_faim(model.FaimConfig(), seed=0)
        return self._peak(lambda: model.faim_forward(params, ds.volumes["s00"], ds.volumes["s01"]))

    def test_faim_forward(self, monkeypatch):
        # 14.61 MB with the rows' epilogue halves on the worker or not, and with the
        # window kernel's column matrix in tiles or whole: another layer sets the peak
        assert self._faim_forward_peak(monkeypatch, worker=True) < 16_000_000

    def test_faim_forward_serial(self, monkeypatch):
        assert self._faim_forward_peak(monkeypatch, worker=False) < 16_000_000

    def test_taped_forward_holds_no_sign_masks(self):
        # the bytes a taped 32^3 forward pass keeps for backward: 25.69 MB while
        # each PReLU closure held a bool mask of its input's sign, 23.56 MB with
        # the sign recomputed from the input the closure keeps anyway, 20.87 MB
        # with one node per layer row (no separate output per skip add)
        import tracemalloc

        ds = synth_dataset(seed=0, n=2, dims=(32, 32, 32))
        params = model.build_faim(model.FaimConfig(), seed=0)
        tracemalloc.start()
        try:
            u = model.predict(params, ds.volumes["s00"], ds.volumes["s01"])
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert u.requires_grad and u.parents
        assert held < 21_500_000
