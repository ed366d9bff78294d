import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldreg import model, trainer
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


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = TrainConfig(lr=5e-3, epochs=2, alpha=0.25, beta=1e-3, cc_mode="global",
                          cc_window=5, seed=9, crop=(8, 8, 8), clip_norm=2.0, steps=40)
        path = tmp_path / "config.txt"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_defaults_from_empty_meta(self):
        cfg = TrainConfig.from_meta({})
        assert cfg.lr == 1e-4
        assert cfg.epochs == 10
        assert cfg.alpha == 1.0
        assert cfg.beta == 0.0


def tiny_dataset(seed=0, n=3, dims=(8, 8, 8)):
    return synth_dataset(seed=seed, n=n, dims=dims)


def _checkpoint_loss_on_failing_pair(err, ds, cfg):
    """Total loss of the kept checkpoint on the pair the run diverged on."""
    src_id, tgt_id = re.search(r"pair (\w+)->(\w+)", str(err)).groups()
    meta, arrays = model.load_checkpoint(err.checkpoint_path)
    src, tgt = ds.volumes[src_id], ds.volumes[tgt_id]
    if meta["kind"] == "faim":
        u = model.faim_forward(model.params_from_checkpoint(meta, arrays), src, tgt)
    else:
        u = DisplacementField(arrays[f"field:{src_id}:{tgt_id}"])
    bd = total_loss(warp_image(src, u).warped, tgt, u, cfg.alpha, cfg.beta, cfg.cc_mode, cfg.cc_window)
    return meta, bd.total


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
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kind", ["faim", "direct"])
    def test_gradient_path_keeps_last_good(self, tmp_path, monkeypatch, kind):
        # finite loss, non-finite gradient on the third step: adam_step refuses it
        real = trainer._loss_and_grad
        calls = []

        def poisoned(*args):
            bd, grad_u = real(*args)
            calls.append(bd)
            if len(calls) == 3:
                grad_u = np.full_like(grad_u, np.nan)
            return bd, grad_u

        monkeypatch.setattr(trainer, "_loss_and_grad", poisoned)
        ds = tiny_dataset()
        cfg = TrainConfig(lr=1e-2, epochs=1, alpha=1.0, seed=0, cc_mode="global", steps=5)
        with pytest.raises(TrainingDiverged, match="diverged gradient") as err:
            train(cfg, ds.volumes, kind=kind, out_dir=tmp_path)
        meta, loss = _checkpoint_loss_on_failing_pair(err.value, ds, cfg)
        # the parameters the third loss was computed with, after two updates
        assert loss == pytest.approx(calls[2].total, rel=1e-5)
        if kind == "faim":
            assert meta["adam_t"] == "2"


class TestLossLog:
    def test_csv_columns(self, tmp_path):
        from foldreg.loss import LossBreakdown

        rows = [(0, 0, "a", "b", LossBreakdown(0.5, 0.1, 0.0, 0.6, 1.0, 0.0))]
        path = tmp_path / "log.csv"
        write_loss_log(rows, path)
        text = path.read_text().splitlines()
        assert text[0] == "step,epoch,source,target,image,r1,r2,total"
        assert text[1].startswith("0,0,a,b,0.5,0.1,0.0,0.6")
