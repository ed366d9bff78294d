"""Work budgets per evaluated pair and per training step, counted by patching the layer entry points.

One evaluated pair takes the loss without its gradient (six local-CC box
sums) and one Du for R1, R2 and N; a training step keeps its loss calls:
22 box sums, 4 Jacobians and 2 grid passes, for both model kinds.
"""

from collections import Counter

import numpy as np
import pytest

import foldreg.jacobian
import foldreg.loss
import foldreg.metrics
import foldreg.warp
from foldreg import trainer
from foldreg.metrics import evaluate
from foldreg.volume import DisplacementField

COUNTED = (
    (foldreg.loss, "_box_sum", "box_sum"),
    (foldreg.jacobian, "jacobian_raw", "jacobian_raw"),
    (foldreg.jacobian, "det_map", "det_map"),
    (foldreg.metrics, "det_map", "det_map"),
    (foldreg.warp, "sample_grid", "grid_pass"),
    (foldreg.warp, "sample_grid_grad", "grid_pass"),
)


@pytest.fixture
def counts(monkeypatch):
    seen = Counter()
    for module, attr, name in COUNTED:
        def counting(*args, _fn=getattr(module, attr), _name=name, **kwargs):
            seen[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)
    return seen


@pytest.fixture(scope="module")
def dataset():
    return trainer.synth_dataset(seed=4, n=2, dims=(8, 8, 8))


def test_evaluate_pair(counts, dataset):
    u = DisplacementField((np.random.default_rng(5).standard_normal((3, 8, 8, 8)) * 0.8).astype(np.float32))
    res = evaluate(lambda *_: u, dataset.volumes, dataset.labels, [("s00", "s01")], 1.0, 0.1)
    assert res.reports[0].n_fold > 0
    assert (counts["box_sum"], counts["jacobian_raw"], counts["det_map"]) == (6, 1, 0)


@pytest.mark.parametrize("kind", ["faim", "direct"])
def test_training_step(counts, dataset, kind):
    cfg = trainer.TrainConfig(epochs=1, steps=1, alpha=1.0, beta=0.1)
    steps = len(trainer.train(cfg, dataset.volumes, kind=kind).log_rows)
    assert steps == 2
    assert (counts["box_sum"], counts["jacobian_raw"], counts["grid_pass"]) == (22 * steps, 4 * steps, 2 * steps)
