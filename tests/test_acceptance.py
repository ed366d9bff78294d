"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. The training criteria share a fixed synthetic setup: 4 subjects at
16^3 with 3 foreground labels (dataset seed 11), direct-field runs with
global CC, alpha 0.01, lr 0.1, 300 steps per pair, train seed 5.
"""

import struct
import time

import numpy as np
import pytest

import foldreg.autodiff as ad
from foldreg import metrics, trainer
from foldreg.gradcheck import run_all
from foldreg.jacobian import det_map, folding_count, r2_penalty
from foldreg.model import FaimConfig, build_faim, describe, load_checkpoint, save_checkpoint
from foldreg.trainer import TrainConfig, make_pairs, synth_dataset, train
from foldreg.volume import (
    INTENSITY,
    LABEL,
    DisplacementField,
    Volume,
    load_field,
    load_volume,
    save_field,
    save_volume,
)

DIMS = (16, 16, 16)
N_SUBJECTS = 4
DATA_SEED = 11
TRAIN_SEED = 5
SWEEP_BETAS = (0.0, 1e-3, 1e-2)
SWEEP_STEPS = 300
SWEEP_KW = dict(lr=0.1, alpha=0.01, cc_mode="global", seed=TRAIN_SEED, steps=SWEEP_STEPS, epochs=1)
FAIM_KW = dict(lr=1e-4, alpha=1.0, beta=0.0, cc_mode="local", cc_window=9, seed=TRAIN_SEED, epochs=2)


@pytest.fixture(scope="module")
def dataset():
    return synth_dataset(seed=DATA_SEED, n=N_SUBJECTS, dims=DIMS, n_labels=3)


def _run_sweep(dataset, out_root):
    """Train the direct model at each beta and evaluate; returns artifacts."""
    pairs = make_pairs(dataset.ids)
    results = {}
    for beta in SWEEP_BETAS:
        out_dir = out_root / f"beta_{beta:g}"
        cfg = TrainConfig(beta=beta, **SWEEP_KW)
        res = train(cfg, dataset.volumes, kind="direct", out_dir=out_dir)
        predict = metrics.checkpoint_predictor(res.meta, res.arrays)
        ev = metrics.evaluate(predict, dataset.volumes, dataset.labels, pairs,
                              alpha=cfg.alpha, beta=beta, cc_mode=cfg.cc_mode)
        report_path = out_dir / "report.csv"
        report_path.write_text(metrics.report_csv(ev))
        results[beta] = {
            "eval": ev,
            "log_bytes": res.log_path.read_bytes(),
            "report_bytes": report_path.read_bytes(),
        }
    return results


def _run_faim(dataset, out_dir):
    cfg = TrainConfig(**FAIM_KW)
    res = train(cfg, dataset.volumes, kind="faim", out_dir=out_dir)
    return res


@pytest.fixture(scope="module")
def sweep(dataset, tmp_path_factory):
    return _run_sweep(dataset, tmp_path_factory.mktemp("sweep"))


@pytest.fixture(scope="module")
def faim_run(dataset, tmp_path_factory):
    return _run_faim(dataset, tmp_path_factory.mktemp("faim"))


def test_criterion_1_gradient_fidelity():
    start = time.monotonic()
    results = run_all(seed=0, size=5)
    elapsed = time.monotonic() - start
    names = {r.name for r in results}
    for expected in ("conv3d", "conv3d_transpose", "prelu", "add/concat_channels",
                     "trilinear_warp", "global_cc", "local_cc", "r1_smoothness",
                     "r2_through_det", "faim_graph_end_to_end", "conv3d_s2",
                     "direct_loss_end_to_end", "row_conv_prelu_skip", "row_convT_skip_prelu"):
        assert expected in names
    for r in results:
        assert r.passed, f"{r.name}: rel err {r.max_rel_err:.3e} >= tol {r.tol:g}"
        assert r.tol == (1e-3 if r.name == "faim_graph_end_to_end" else 1e-4)
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 1 PASS: all {len(results)} gradient suites within tolerance "
          f"({elapsed:.1f}s)")


def test_criterion_2_jacobian_oracle():
    rng = np.random.default_rng(0)
    grid = np.indices((12, 12, 12)).astype(np.float64)
    A = rng.uniform(-0.3, 0.3, size=(3, 3))
    b = rng.uniform(-1.0, 1.0, size=3)
    u = np.zeros((3, 12, 12, 12))
    for c in range(3):
        u[c] = b[c] + sum(A[c, a] * grid[a] for a in range(3))
    d = det_map(DisplacementField(u))
    expected = np.linalg.det(np.eye(3) + A)
    assert np.abs(d - expected).max() < 1e-6

    u_fold = np.zeros((3, 12, 12, 12))
    u_fold[0] = -2.0 * grid[0]
    d_fold = det_map(DisplacementField(u_fold))
    assert np.allclose(d_fold, -1.0, atol=1e-12)
    assert folding_count(d_fold) == 12**3
    assert r2_penalty(d_fold) == 1.0
    print("\nACCEPTANCE 2 PASS: affine determinants exact to 1e-6; "
          "diag(-2,0,0) gives N=1728 and penalty exactly 1")


def test_criterion_3_pair_protocol():
    assert len(make_pairs(range(42))) == 1722
    assert len(make_pairs(range(20))) == 380
    print("\nACCEPTANCE 3 PASS: 42 ids -> 1722 ordered pairs, 20 ids -> 380")


def test_criterion_4_anti_folding_trend(sweep):
    folds = [sweep[beta]["eval"].mean_fold for beta in SWEEP_BETAS]
    assert folds[0] >= folds[1] >= folds[2], f"mean folding counts not non-increasing: {folds}"
    if folds[0] > 0:
        assert folds[2] < folds[0], f"no strict decrease: {folds}"
    print(f"\nACCEPTANCE 4 PASS: mean folding count over beta {SWEEP_BETAS}: "
          + " -> ".join(f"{n:.2f}" for n in folds))


def test_criterion_5_registration_efficacy(dataset, sweep):
    pairs = make_pairs(dataset.ids)
    baseline = metrics.evaluate(metrics.identity_predictor, dataset.volumes, dataset.labels, pairs)
    trained = sweep[1e-2]["eval"]
    gain = trained.mean_dice - baseline.mean_dice
    voxels = DIMS[0] * DIMS[1] * DIMS[2]
    assert gain >= 0.05, f"dice gain {gain:.4f} below 0.05"
    assert trained.mean_fold < 0.01 * voxels
    print(f"\nACCEPTANCE 5 PASS: mean dice {baseline.mean_dice:.4f} -> {trained.mean_dice:.4f} "
          f"(gain {gain:+.4f}), folding mean {trained.mean_fold:.2f} < 1% of {voxels} voxels")


def test_criterion_6_faim_smoke(faim_run):
    by_epoch = {}
    for _, epoch, _, _, bd in faim_run.log_rows:
        by_epoch.setdefault(epoch, []).append(bd.image)
    first = float(np.mean(by_epoch[0]))
    last = float(np.mean(by_epoch[max(by_epoch)]))
    assert last < first, f"image loss did not improve: {first:.6f} -> {last:.6f}"

    text = describe(build_faim(FaimConfig(), seed=0))
    assert "add skips: 3" in text
    assert "pooling layers: 0" in text
    assert "head activation: linear, 3 channels" in text
    print(f"\nACCEPTANCE 6 PASS: mean image loss {first:.6f} -> {last:.6f}; "
          "3 add-skips, 0 pooling layers, linear 3-channel head")


def test_criterion_7_serialization(tmp_path):
    rng = np.random.default_rng(2)
    vol = Volume(rng.random(DIMS, dtype=np.float32), INTENSITY)
    save_volume(vol, tmp_path / "i.frv")
    assert np.array_equal(load_volume(tmp_path / "i.frv").data, vol.data)

    lab = Volume(rng.integers(0, 5, size=DIMS).astype(np.int32), LABEL)
    save_volume(lab, tmp_path / "l.frv")
    assert np.array_equal(load_volume(tmp_path / "l.frv").data, lab.data)

    field = DisplacementField(rng.standard_normal((3, *DIMS)).astype(np.float32))
    save_field(field, tmp_path / "u.frv")
    assert np.array_equal(load_field(tmp_path / "u.frv").data, field.data)

    params = build_faim(FaimConfig(), seed=1)
    meta = {"kind": "faim", **params.config.to_meta()}
    save_checkpoint(tmp_path / "m.fck", meta, params.arrays())
    meta2, arrays = load_checkpoint(tmp_path / "m.fck")
    assert meta2 == meta
    assert all(np.array_equal(arrays[k], v) for k, v in params.arrays().items())

    # hand-built minimal NIfTI-1: 348-byte header, float32 2^3 payload
    header = bytearray(348)
    struct.pack_into("<i", header, 0, 348)
    struct.pack_into("<8h", header, 40, 3, 2, 2, 2, 1, 1, 1, 1)
    struct.pack_into("<h", header, 70, 16)
    struct.pack_into("<f", header, 108, 352.0)
    header[344:348] = b"n+1\x00"
    payload = np.arange(8, dtype="<f4")
    (tmp_path / "v.nii").write_bytes(bytes(header) + b"\x00" * 4 + payload.tobytes())
    nv = load_volume(tmp_path / "v.nii")
    assert nv.dims == (2, 2, 2)
    assert np.array_equal(nv.data.ravel(order="F"), payload.astype(np.float32))
    print("\nACCEPTANCE 7 PASS: FRV1 (intensity/label/displacement) and FCK1 round-trip "
          "bit-exactly; NIfTI-1 fixture loads with correct values")


def test_criterion_8_determinism(dataset, sweep, faim_run, tmp_path_factory):
    second = _run_sweep(dataset, tmp_path_factory.mktemp("sweep_again"))
    for beta in SWEEP_BETAS:
        assert second[beta]["log_bytes"] == sweep[beta]["log_bytes"]
        assert second[beta]["report_bytes"] == sweep[beta]["report_bytes"]

    faim_again = _run_faim(dataset, tmp_path_factory.mktemp("faim_again"))
    assert faim_again.log_path.read_bytes() == faim_run.log_path.read_bytes()
    print("\nACCEPTANCE 8 PASS: repeated runs of criteria 4-6 produce byte-identical CSV outputs")
