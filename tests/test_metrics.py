import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldreg import trainer
from foldreg.jacobian import det_map, folding_count
from foldreg.loss import GLOBAL, LOCAL, total_loss
from foldreg.metrics import (
    EvalResult,
    PairReport,
    _label_counts,
    checkpoint_predictor,
    dice,
    evaluate,
    identity_predictor,
    mean_dice,
    per_label_csv,
    report_csv,
)
from foldreg.model import FaimConfig, build_faim
from foldreg.volume import LABEL, DisplacementField, Volume
from foldreg.warp import warp_image, warp_labels


def brute_dice(x, y):
    inter = (x & y).sum()
    if x.sum() + y.sum() == 0:
        return 1.0
    return 2.0 * inter / (x.sum() + y.sum())


class TestDice:
    def test_identical_nonempty(self):
        x = np.zeros((3, 3, 3), dtype=bool)
        x[1] = True
        assert dice(x, x) == 1.0

    def test_disjoint(self):
        x = np.zeros((3, 3, 3), dtype=bool)
        y = np.zeros((3, 3, 3), dtype=bool)
        x[0], y[1] = True, True
        assert dice(x, y) == 0.0

    def test_half_overlap(self):
        x = np.zeros(8, dtype=bool).reshape(2, 2, 2)
        y = np.zeros(8, dtype=bool).reshape(2, 2, 2)
        x[0, 0, 0] = x[0, 0, 1] = True
        y[0, 0, 0] = y[1, 1, 1] = True
        assert dice(x, y) == 0.5

    def test_both_empty(self):
        z = np.zeros((2, 2, 2), dtype=bool)
        assert dice(z, z) == 1.0

    def test_empty_vs_nonempty(self):
        x = np.zeros((2, 2, 2), dtype=bool)
        y = np.ones((2, 2, 2), dtype=bool)
        assert dice(x, y) == 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_range(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((3, 3, 3)) < 0.4
        y = rng.random((3, 3, 3)) < 0.4
        d = dice(x, y)
        assert d == dice(y, x)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(brute_dice(x, y))


class TestMeanDice:
    def lab(self, arr):
        return Volume(np.asarray(arr, dtype=np.int32), LABEL)

    def test_perfect(self):
        rng = np.random.default_rng(0)
        lab = self.lab(rng.integers(0, 4, size=(4, 4, 4)))
        md, per = mean_dice(lab, lab)
        assert md == 1.0
        assert all(v == 1.0 for v in per.values())

    def test_unweighted_mean(self):
        a = np.zeros((2, 2, 2), dtype=np.int32)
        b = np.zeros((2, 2, 2), dtype=np.int32)
        a[0, 0, 0] = 1
        b[0, 0, 0] = 1  # label 1 perfect
        a[1, 1, 1] = 2
        b[1, 1, 0] = 2  # label 2 disjoint
        md, per = mean_dice(self.lab(a), self.lab(b))
        assert per[1] == 1.0
        assert per[2] == 0.0
        assert md == 0.5

    def test_background_excluded(self):
        a = np.zeros((2, 2, 2), dtype=np.int32)
        b = np.zeros((2, 2, 2), dtype=np.int32)
        a[0, 0, 0] = 3
        b[0, 0, 0] = 3
        md, per = mean_dice(self.lab(a), self.lab(b))
        assert set(per) == {3}
        assert md == 1.0

    def test_no_labels_errors(self):
        z = self.lab(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="no labels"):
            mean_dice(z, z)

    def test_brute_force_counting(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 5, size=(5, 5, 5)).astype(np.int32)
        b = rng.integers(0, 5, size=(5, 5, 5)).astype(np.int32)
        md, per = mean_dice(self.lab(a), self.lab(b))
        ids = sorted(set(np.unique(a)) | set(np.unique(b)) - {0})
        expected = {i: brute_dice(a == i, b == i) for i in ids if i != 0}
        for i, v in expected.items():
            assert per[i] == pytest.approx(v)
        assert md == pytest.approx(np.mean(list(expected.values())))


def mask_mean_dice(warped, target):
    """mean_dice from two boolean masks per label: the oracle of the histogram counts."""
    ids = [int(i) for i in np.union1d(np.unique(warped.data), np.unique(target.data)) if i != 0]
    if not ids:
        raise ValueError("no labels: both volumes contain only background")
    per_label = {i: dice(warped.data == i, target.data == i) for i in ids}
    return float(np.mean(list(per_label.values()), dtype=np.float64)), per_label


def oracle_evaluate(predictor, volumes, labels, pairs, alpha, beta, cc_mode, window):
    """evaluate as the composition of total_loss, det_map, folding_count and per-label masks."""
    reports = []
    for src_id, tgt_id in pairs:
        src, tgt = volumes[src_id], volumes[tgt_id]
        u = predictor(src_id, tgt_id, src, tgt)
        md, per_label = mask_mean_dice(warp_labels(labels[src_id], u), labels[tgt_id])
        n_fold = folding_count(det_map(u))
        bd = total_loss(warp_image(src, u), tgt, u, alpha, beta, cc_mode, window)
        reports.append(PairReport(src_id, tgt_id, md, per_label, n_fold, bd.image, bd.r1, bd.r2, bd.total))

    def agg(attr):
        return float(np.mean([getattr(r, attr) for r in reports], dtype=np.float64))

    return EvalResult(reports, *(agg(a) for a in ("mean_dice", "n_fold", "image", "r1", "r2", "total")))


class TestMeanDiceHistogram:
    """mean_dice counts one histogram; two masks per label are its oracle."""

    def assert_matches_masks(self, a, b):
        got = mean_dice(Volume(a, LABEL), Volume(b, LABEL))
        want = mask_mean_dice(Volume(a, LABEL), Volume(b, LABEL))
        assert repr(got) == repr(want)
        assert all(type(i) is int and type(d) is float for i, d in got[1].items())

    def test_uint8(self):
        rng = np.random.default_rng(30)
        self.assert_matches_masks(*(rng.integers(0, 7, size=(6, 5, 4)).astype(np.uint8) for _ in range(2)))

    @pytest.mark.parametrize("ids", [[-300, -2, 0, 5, 9], [0, 1, 20_000, -32_768, 32_767]], ids=["dense", "spread"])
    def test_int16_negative_ids(self, ids):
        # label volumes hold int32 ids >= 0; the counts take any integer array
        rng = np.random.default_rng(31)
        ids = np.array(ids, dtype=np.int16)
        a, b = (ids[rng.integers(0, 5, size=(6, 5, 4))] for _ in range(2))
        got, nx, ny, inter = _label_counts(a, b)
        want = np.union1d(a, b)
        assert got[(nx + ny) > 0].tolist() == want.tolist()
        for i, n_x, n_y, n_xy in zip(got, nx, ny, inter):
            assert (n_x, n_y, n_xy) == ((a == i).sum(), (b == i).sum(), ((a == i) & (b == i)).sum())

    def test_ids_spread_wider_than_the_volume(self):
        rng = np.random.default_rng(32)
        ids = np.array([0, 1, 40_000, 2_000_000_000], dtype=np.int32)
        a, b = (ids[rng.integers(0, 4, size=(4, 4, 4))] for _ in range(2))
        self.assert_matches_masks(a, b)

    def test_label_in_one_volume_only(self):
        a = np.zeros((3, 3, 3), dtype=np.int32)
        b = np.zeros((3, 3, 3), dtype=np.int32)
        a[0], b[0] = 1, 1
        a[1, 1], b[2, 2] = 4, 7
        self.assert_matches_masks(a, b)
        _, per = mean_dice(Volume(a, LABEL), Volume(b, LABEL))
        assert per == {1: 1.0, 4: 0.0, 7: 0.0}

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32])
    def test_all_background_raises(self, dtype):
        z = Volume(np.zeros((2, 3, 2), dtype=dtype), LABEL)
        with pytest.raises(ValueError, match="no labels: both volumes contain only background"):
            mean_dice(z, z)


def folding_field(rng, dims, dtype, scale):
    return DisplacementField((rng.standard_normal((3, *dims)) * scale).astype(dtype))


class TestEvaluateValuePass:
    """evaluate's reports are byte-identical to the oracle composition's."""

    @pytest.mark.parametrize("cc_mode,window,dtype,scale,alpha,beta", [
        (LOCAL, 9, np.float32, 0.8, 1.0, 0.1),
        (LOCAL, 5, np.float32, 0.8, 1.0, 0.1),
        (GLOBAL, 9, np.float32, 0.8, 1.0, 0.1),
        (LOCAL, 9, np.float64, 0.8, 0.5, 0.2),
        (GLOBAL, 5, np.float64, 0.8, 0.5, 0.2),
        (LOCAL, 9, np.float32, 0.8, 0.0, 0.1),
        (LOCAL, 5, np.float64, 0.8, 1.0, 0.0),
        (LOCAL, 9, np.float32, 0.05, 1.0, 0.1),
    ], ids=["local9-f32", "local5-f32", "global-f32", "local9-f64", "global-f64",
            "alpha0", "beta0", "no-folds"])
    def test_reports_match_oracle(self, cc_mode, window, dtype, scale, alpha, beta):
        ds = trainer.synth_dataset(seed=9, n=3, dims=(12, 8, 8), n_labels=5)
        pairs = trainer.make_pairs(ds.ids)
        rng = np.random.default_rng(33)
        fields = {p: folding_field(rng, (12, 8, 8), dtype, scale) for p in pairs}

        def predict(src_id, tgt_id, src, tgt):
            return fields[src_id, tgt_id]

        args = (predict, ds.volumes, ds.labels, pairs, alpha, beta, cc_mode, window)
        got, want = evaluate(*args), oracle_evaluate(*args)
        assert report_csv(got) == report_csv(want)
        assert per_label_csv(got) == per_label_csv(want)
        assert (got.mean_fold > 0) == (scale > 0.1)


class TestEvaluate:
    def setup_method(self):
        self.ds = trainer.synth_dataset(seed=8, n=3, dims=(8, 8, 8))
        self.pairs = trainer.make_pairs(self.ds.ids)

    def test_identity_has_zero_folds(self):
        res = evaluate(identity_predictor, self.ds.volumes, self.ds.labels, self.pairs)
        assert all(r.n_fold == 0 for r in res.reports)
        assert res.mean_fold == 0.0

    def test_aggregates_are_unweighted_means(self):
        res = evaluate(identity_predictor, self.ds.volumes, self.ds.labels, self.pairs)
        assert res.mean_dice == pytest.approx(np.mean([r.mean_dice for r in res.reports]), abs=1e-12)
        assert res.mean_total == pytest.approx(np.mean([r.total for r in res.reports]), abs=1e-12)

    def test_loss_defaults_are_the_training_defaults(self):
        cfg = trainer.TrainConfig()
        defaults = {name: p.default for name, p in inspect.signature(evaluate).parameters.items()
                    if p.default is not p.empty}
        assert defaults == {"alpha": cfg.alpha, "beta": cfg.beta, "cc_mode": cfg.cc_mode, "window": cfg.cc_window}

    def test_row_order_is_pair_order(self):
        res = evaluate(identity_predictor, self.ds.volumes, self.ds.labels, self.pairs)
        assert [(r.source, r.target) for r in res.reports] == self.pairs

    def test_missing_labels(self):
        with pytest.raises(ValueError, match="no labels"):
            evaluate(identity_predictor, self.ds.volumes, {}, self.pairs)

    def test_missing_volume_is_named(self):
        # a subject that has labels but no volume is named, as a subject without labels is
        volumes = {sid: v for sid, v in self.ds.volumes.items() if sid != "s01"}
        assert "s01" in self.ds.labels
        with pytest.raises(ValueError, match=r"no volumes for subjects: \['s01'\]"):
            evaluate(identity_predictor, volumes, self.ds.labels, self.pairs)

    def test_faim_checkpoint_predictor(self):
        params = build_faim(FaimConfig(), seed=0)
        meta = {"kind": "faim", **params.config.to_meta()}
        predict = checkpoint_predictor(meta, params.arrays())
        res = evaluate(predict, self.ds.volumes, self.ds.labels, self.pairs)
        assert len(res.reports) == len(self.pairs)

    def test_direct_checkpoint_predictor_missing_pair(self):
        meta = {"kind": "direct", "dims": "8,8,8"}
        predict = checkpoint_predictor(meta, {})
        with pytest.raises(ValueError, match="no trained field"):
            evaluate(predict, self.ds.volumes, self.ds.labels, self.pairs)

    def test_report_csv_shape(self):
        res = evaluate(identity_predictor, self.ds.volumes, self.ds.labels, self.pairs)
        text = report_csv(res)
        lines = text.strip().splitlines()
        assert lines[0] == "source,target,mean_dice,n_fold,image,r1,r2,total"
        assert len(lines) == 1 + len(self.pairs) + 1
        assert lines[-1].startswith("mean,mean,")

    def test_per_label_csv(self):
        res = evaluate(identity_predictor, self.ds.volumes, self.ds.labels, self.pairs)
        lines = per_label_csv(res).strip().splitlines()
        assert lines[0] == "source,target,label,dice"
        assert len(lines) > 1
