import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldreg import trainer
from foldreg.metrics import (
    checkpoint_predictor,
    dice,
    evaluate,
    identity_predictor,
    mean_dice,
    per_label_csv,
    report_csv,
)
from foldreg.model import FaimConfig, build_faim
from foldreg.volume import LABEL, Volume


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
