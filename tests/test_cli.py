import struct

import numpy as np
import pytest
from test_volume import build_nifti

from foldreg import autodiff as ad
from foldreg import jacobian, metrics, trainer
from foldreg.cli import main
from foldreg.model import FaimConfig, build_faim, load_checkpoint, save_checkpoint
from foldreg.trainer import load_dataset, make_pairs
from foldreg.volume import DisplacementField, center_crop, load_field, load_volume, save_field


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    code = run(["synth", "--seed", "7", "--n", "4", "--dims", "8", "--labels", "3",
                "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def direct_ckpt(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("runs") / "direct"
    code = run(["train", "--data", str(synth_dir), "--model", "direct", "--alpha", "0.1",
                "--beta", "0.01", "--lr", "0.05", "--steps", "20", "--seed", "1",
                "--cc", "global", "--out", str(out)])
    assert code == 0
    return out / "checkpoint.fck"


class TestSynth:
    def test_outputs_and_manifest(self, synth_dir):
        ds = load_dataset(synth_dir)
        assert len(ds.ids) == 4
        assert len(ds.volumes) == 4
        assert len(ds.labels) == 4
        assert len(ds.fields) == 4

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run(["synth", "--seed", "3", "--n", "2", "--dims", "8", "--out", str(out)]) == 0
        for rel in ["manifest.txt", "volumes/s00.frv", "labels/s01.frv", "fields/s00.frv"]:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_bad_dims_usage_error(self, tmp_path):
        assert run(["synth", "--seed", "1", "--n", "2", "--dims", "18", "--out", str(tmp_path / "x")]) == 1

    def test_unknown_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--nope", "1", "--out", str(tmp_path / "x")])
        assert exc.value.code == 1


@pytest.mark.parametrize("command", ["synth", "train", "gradcheck"])
def test_negative_seed_usage_error(synth_dir, tmp_path, capsys, command):
    argv = {
        "synth": ["synth", "--n", "2", "--dims", "8", "--out", str(tmp_path / "x")],
        "train": ["train", "--data", str(synth_dir), "--out", str(tmp_path / "x")],
        "gradcheck": ["gradcheck", "--size", "4"],
    }[command]
    assert run(argv + ["--seed", "-1"]) == 1
    assert "seed must be" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


class TestTrain:
    def test_train_direct_outputs(self, direct_ckpt):
        assert direct_ckpt.is_file()
        meta, arrays = load_checkpoint(direct_ckpt)
        assert meta["kind"] == "direct"
        assert any(k.startswith("field:") for k in arrays)
        log = direct_ckpt.parent / "loss_log.csv"
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "step,epoch,source,target,image,r1,r2,total"
        assert len(lines) == 1 + 12 * 20  # 4 subjects -> 12 pairs x 20 steps
        # r2 is logged and weighted into the total exactly (alpha=0.1, beta=0.01)
        image, r1, r2, total = (float(v) for v in lines[-1].split(",")[4:])
        assert total == image + 0.1 * r1 + 0.01 * r2

    def test_train_faim_log_rows(self, synth_dir, tmp_path):
        out = tmp_path / "faim"
        code = run(["train", "--data", str(synth_dir), "--model", "faim", "--epochs", "1",
                    "--lr", "1e-4", "--seed", "0", "--cc", "global", "--out", str(out)])
        assert code == 0
        lines = (out / "loss_log.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 12
        meta, _ = load_checkpoint(out / "checkpoint.fck")
        assert meta["kind"] == "faim"

    def test_missing_data_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--out", str(tmp_path / "x")])
        assert exc.value.code == 1

    @pytest.mark.parametrize("flag,value", [
        ("--lr", "-1"), ("--lr", "0"), ("--lr", "nan"), ("--lr", "inf"),
        ("--clip-norm", "0"), ("--clip-norm", "-1"),
        ("--alpha", "nan"), ("--beta", "inf"), ("--beta", "-1"),
    ])
    def test_bad_lr_or_clip_norm_usage_error(self, synth_dir, tmp_path, flag, value):
        assert run(["train", "--data", str(synth_dir), flag, value, "--out", str(tmp_path / "x")]) == 1
        assert not (tmp_path / "x").exists()

    def test_divergence_exit_2_keeps_last_good(self, synth_dir, tmp_path, monkeypatch, capsys):
        real = trainer._loss_and_grad
        fields = []  # the field of every loss evaluation, as it was then

        def poisoned(src, tgt, u_arr, cfg):
            fields.append(u_arr.copy())
            return (None, None) if len(fields) == 3 else real(src, tgt, u_arr, cfg)

        monkeypatch.setattr(trainer, "_loss_and_grad", poisoned)
        out = tmp_path / "run"
        code = run(["train", "--data", str(synth_dir), "--model", "direct", "--steps", "5",
                    "--lr", "0.05", "--cc", "global", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "foldreg: training diverged: loss diverged at step 2 (pair s00->s01)",
            f"foldreg: last good checkpoint kept at {out / 'checkpoint.fck'}",
        ]
        # the field the second loss was computed with: the third loss failed,
        # so the update between them is undone
        _, arrays = load_checkpoint(out / "checkpoint.fck")
        assert list(arrays) == ["field:s00:s01"]
        assert not np.array_equal(fields[1], fields[2])
        assert arrays["field:s00:s01"].dtype == fields[1].dtype
        assert arrays["field:s00:s01"].tobytes() == fields[1].tobytes()

    def test_nonexistent_data_runtime_error(self, tmp_path):
        code = run(["train", "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "x")])
        assert code == 2


class TestRegister:
    def test_register_pair_from_direct_checkpoint(self, synth_dir, direct_ckpt, tmp_path):
        from foldreg.loss import global_cc

        src = synth_dir / "volumes" / "s00.frv"
        tgt = synth_dir / "volumes" / "s01.frv"
        out_field = tmp_path / "u.frv"
        out_warped = tmp_path / "w.frv"
        code = run(["register", "--checkpoint", str(direct_ckpt), "--source", str(src),
                    "--target", str(tgt), "--out-field", str(out_field),
                    "--out-warped", str(out_warped)])
        assert code == 0
        u = load_field(out_field)
        assert u.dims == (8, 8, 8)
        warped = load_volume(out_warped)
        assert warped.dims == (8, 8, 8)
        # the pair was trained on, so the warped source correlates better
        # with the target than the unwarped source does
        source, target = load_volume(src), load_volume(tgt)
        assert global_cc(warped, target) > global_cc(source, target)

    @pytest.mark.parametrize("vox_offset", [np.inf, np.nan])
    def test_non_finite_vox_offset_exit_2(self, synth_dir, direct_ckpt, tmp_path, capsys, vox_offset):
        blob = bytearray(build_nifti(np.zeros((8, 8, 8), dtype="<f4"), datatype=16))
        struct.pack_into("<f", blob, 108, vox_offset)
        bad = tmp_path / "bad.nii"
        bad.write_bytes(bytes(blob))
        code = run(["register", "--checkpoint", str(direct_ckpt), "--source", str(bad),
                    "--target", str(synth_dir / "volumes" / "s01.frv"),
                    "--out-field", str(tmp_path / "u.frv"), "--out-warped", str(tmp_path / "w.frv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}: bad magic/header (vox_offset={vox_offset})" in err
        assert "Traceback" not in err

    def test_corrupt_checkpoint_exit_2(self, synth_dir, tmp_path):
        bad = tmp_path / "bad.fck"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        code = run(["register", "--checkpoint", str(bad),
                    "--source", str(synth_dir / "volumes" / "s00.frv"),
                    "--target", str(synth_dir / "volumes" / "s01.frv"),
                    "--out-field", str(tmp_path / "u.frv"),
                    "--out-warped", str(tmp_path / "w.frv")])
        assert code == 2


class TestEvaluate:
    def test_report_written(self, synth_dir, direct_ckpt, tmp_path):
        report = tmp_path / "report.csv"
        per_label = tmp_path / "labels.csv"
        code = run(["evaluate", "--checkpoint", str(direct_ckpt), "--data", str(synth_dir),
                    "--report", str(report), "--per-label", str(per_label)])
        assert code == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "source,target,mean_dice,n_fold,image,r1,r2,total"
        assert len(lines) == 1 + 12 + 1
        assert per_label.read_text().startswith("source,target,label,dice")

    def test_unlabeled_dataset_exit_2(self, synth_dir, direct_ckpt, tmp_path):
        stripped = tmp_path / "unlabeled"
        stripped.mkdir()
        (stripped / "volumes").mkdir()
        lines = []
        for line in (synth_dir / "manifest.txt").read_text().splitlines():
            if line.startswith("volume"):
                lines.append(line)
                sid = line.split()[1]
                data = (synth_dir / "volumes" / f"{sid}.frv").read_bytes()
                (stripped / "volumes" / f"{sid}.frv").write_bytes(data)
        (stripped / "manifest.txt").write_text("\n".join(lines) + "\n")
        code = run(["evaluate", "--checkpoint", str(direct_ckpt), "--data", str(stripped),
                    "--report", str(tmp_path / "r.csv")])
        assert code == 2

    @pytest.mark.parametrize("kind,flags", [("direct", ["--steps", "3"]), ("faim", ["--epochs", "1"])])
    def test_crops_like_register(self, tmp_path, kind, flags):
        data, ckpt, report = tmp_path / "data", tmp_path / "run" / "checkpoint.fck", tmp_path / "r.csv"
        assert run(["synth", "--seed", "2", "--n", "3", "--dims", "12", "--out", str(data)]) == 0
        assert run(["train", "--data", str(data), "--model", kind, "--crop", "8", "--cc", "global", *flags,
                    "--out", str(ckpt.parent)]) == 0
        assert run(["evaluate", "--checkpoint", str(ckpt), "--data", str(data), "--report", str(report)]) == 0
        # the report of the same checkpoint on center-cropped volumes and labels
        ds = load_dataset(data)
        meta, arrays = load_checkpoint(ckpt)
        cropped = [{sid: center_crop(v, (8, 8, 8)) for sid, v in vols.items()} for vols in (ds.volumes, ds.labels)]
        expected = metrics.evaluate(metrics.checkpoint_predictor(meta, arrays), *cropped, make_pairs(ds.ids),
                                    cc_mode="global")
        assert report.read_text() == metrics.report_csv(expected)

    def test_nifti_dataset_same_report(self, synth_dir, direct_ckpt, tmp_path):
        nifti = tmp_path / "nifti"
        nifti.mkdir()
        ds = load_dataset(synth_dir)
        lines = []
        for sid in ds.ids:
            for entry, vol, datatype in (("volume", ds.volumes[sid], 16), ("label", ds.labels[sid], 8)):
                (nifti / f"{sid}_{entry}.nii").write_bytes(build_nifti(vol.data, datatype=datatype))
                lines.append(f"{entry} {sid} {sid}_{entry}.nii")
        (nifti / "manifest.txt").write_text("\n".join(lines) + "\n")
        reports = []
        for data in (synth_dir, nifti):
            reports.append(tmp_path / f"{data.name}.csv")
            assert run(["evaluate", "--checkpoint", str(direct_ckpt), "--data", str(data),
                        "--report", str(reports[-1])]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()

    @pytest.mark.parametrize("key,value", [("alpha", "abc"), ("crop", "8,8"), ("cc_mode", None)])
    def test_malformed_training_metadata_exit_2(self, synth_dir, direct_ckpt, tmp_path, capsys, key, value):
        meta, arrays = load_checkpoint(direct_ckpt)
        del meta[key]
        if value is not None:
            meta[key] = value
        bad = tmp_path / "bad.fck"
        save_checkpoint(bad, meta, arrays)
        assert run(["evaluate", "--checkpoint", str(bad), "--data", str(synth_dir),
                    "--report", str(tmp_path / "r.csv")]) == 2
        assert "checkpoint metadata" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "register"])
def test_malformed_direct_field_exit_2(synth_dir, direct_ckpt, tmp_path, capsys, command):
    meta, arrays = load_checkpoint(direct_ckpt)
    arrays["field:s00:s01"] = np.zeros((3, 4, 4, 4), dtype=np.float32)
    bad = tmp_path / "bad.fck"
    save_checkpoint(bad, meta, arrays)
    if command == "evaluate":
        outputs = ["--data", str(synth_dir), "--report", str(tmp_path / "r.csv")]
    else:
        outputs = ["--source", str(synth_dir / "volumes" / "s00.frv"),
                   "--target", str(synth_dir / "volumes" / "s01.frv"),
                   "--out-field", str(tmp_path / "u.frv"), "--out-warped", str(tmp_path / "w.frv")]
    assert run([command, "--checkpoint", str(bad), *outputs]) == 2
    err = capsys.readouterr().err
    assert "checkpoint tensor field:s00:s01 has shape (3, 4, 4, 4), expected (3, 8, 8, 8)" in err


class TestJmap:
    def test_zero_field(self, tmp_path, capsys):
        u = DisplacementField(np.zeros((3, 4, 4, 4), dtype=np.float32))
        path = tmp_path / "u.frv"
        save_field(u, path)
        code = run(["jmap", "--field", str(path), "--out-det", str(tmp_path / "d.frv"),
                    "--out-mask", str(tmp_path / "m.frv")])
        assert code == 0
        assert "N=0" in capsys.readouterr().out
        det = load_volume(tmp_path / "d.frv")
        assert np.allclose(det.data, 1.0)
        mask = load_volume(tmp_path / "m.frv")
        assert not mask.data.any()

    def test_everywhere_folding_field(self, tmp_path, capsys):
        grid = np.indices((4, 4, 4)).astype(np.float32)
        u_arr = np.zeros((3, 4, 4, 4), dtype=np.float32)
        u_arr[0] = -2.0 * grid[0]
        save_field(DisplacementField(u_arr), tmp_path / "u.frv")
        code = run(["jmap", "--field", str(tmp_path / "u.frv"),
                    "--out-det", str(tmp_path / "d.frv"), "--out-mask", str(tmp_path / "m.frv")])
        assert code == 0
        assert "N=64" in capsys.readouterr().out
        mask = load_volume(tmp_path / "m.frv")
        assert mask.data.all()

    def test_synth_ground_truth_is_fold_free(self, synth_dir, tmp_path, capsys):
        code = run(["jmap", "--field", str(synth_dir / "fields" / "s00.frv"),
                    "--out-det", str(tmp_path / "d.frv"), "--out-mask", str(tmp_path / "m.frv")])
        assert code == 0
        assert "N=0" in capsys.readouterr().out

    def test_non_field_input_exit_2(self, synth_dir, tmp_path):
        code = run(["jmap", "--field", str(synth_dir / "volumes" / "s00.frv"),
                    "--out-det", str(tmp_path / "d.frv"), "--out-mask", str(tmp_path / "m.frv")])
        assert code == 2


class TestGradcheckCmd:
    def test_passes_on_defaults(self, capsys):
        assert run(["gradcheck", "--seed", "0", "--size", "4"]) == 0
        out = capsys.readouterr().out
        assert "conv3d" in out
        assert "FAIL" not in out

    # a 1% error in one kernel's weight gradient fails that kernel's rows and the
    # whole-network row, and no other; the forward pass is left exact, since the
    # row and FFT kernels derive their input gradient from it. A 1% error in the
    # regularizers' cotangent on Du fails every row that runs it.
    @pytest.mark.parametrize("module,attr,rows", [
        (ad, "_rows_weight_grad", {"conv3d", "row_conv_prelu_skip"}),
        (ad, "_plane_weight_grad", {"conv3d_k5"}),
        (ad, "_weight_grad", {"conv3d_transpose", "conv3d_s2", "row_convT_skip_prelu"}),
        (jacobian, "du_cotangent", {"r1_smoothness", "r2_through_det", "direct_loss_end_to_end"}),
    ], ids=["rows", "fft", "window", "du_cotangent"])
    def test_wrong_weight_gradient_fails(self, monkeypatch, capsys, module, attr, rows):
        exact = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *args: 1.01 * exact(*args))
        assert run(["gradcheck", "--seed", "0", "--size", "4"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert {line.split()[0] for line in lines if line.endswith("FAIL")} == rows | {"faim_graph_end_to_end"}

    def test_no_tolerance_override(self):
        with pytest.raises(SystemExit) as exc:
            run(["gradcheck", "--tol", "1e-12"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("size", [0, 1, 2, 3])
    def test_size_below_4_is_usage_error(self, capsys, size):
        assert run(["gradcheck", "--seed", "0", "--size", str(size)]) == 1
        err = capsys.readouterr().err
        assert "size must be >= 4" in err
        assert "Traceback" not in err


class TestDescribe:
    def test_default_config(self, capsys):
        assert run(["describe"]) == 0
        out = capsys.readouterr().out
        assert "add skips: 3" in out
        assert "pooling layers: 0" in out

    def test_checkpoint(self, direct_ckpt, capsys):
        assert run(["describe", "--checkpoint", str(direct_ckpt)]) == 0
        out = capsys.readouterr().out
        assert str(3 * 8**3) in out
        # one row per trained pair: 4 subjects -> 12 fields, counted from the checkpoint
        assert sum(line.startswith("field:") for line in out.splitlines()) == 12
        assert f"total parameters: {12 * 3 * 8**3}" in out

    def test_checkpoint_missing_metadata_exit_2(self, tmp_path, capsys):
        params = build_faim(FaimConfig(), seed=0)
        meta = {"kind": "faim", **params.config.to_meta()}
        del meta["head_kernel"]
        path = tmp_path / "m.fck"
        save_checkpoint(path, meta, params.arrays())
        assert run(["describe", "--checkpoint", str(path)]) == 2
        assert "head_kernel" in capsys.readouterr().err

    def test_unknown_key_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("head_kernal=5\n")
        assert run(["describe", "--config", str(cfg)]) == 1
        assert "head_kernal" in capsys.readouterr().err

    def test_line_without_equals_usage_error(self, tmp_path, capsys):
        # such a line once became a key with an empty value
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# comment\n\nhead_kernel 5\n")
        assert run(["describe", "--config", str(cfg)]) == 1
        assert f"{cfg}: line 3: expected key=value, got 'head_kernel 5'" in capsys.readouterr().err

    def test_threads_is_an_unknown_argument(self, capsys):
        # BLAS threads are set in the environment, not by a flag
        with pytest.raises(SystemExit) as exc:
            run(["--threads", "2", "describe"])
        assert exc.value.code == 1
        assert "foldreg: error:" in capsys.readouterr().err

    def test_invalid_kernel_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("head_kernel=4\n")
        assert run(["describe", "--config", str(cfg)]) == 1
