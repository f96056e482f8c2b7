"""End-to-end pipeline and command-line interface tests (tiny scale)."""

import json
import re
import struct

import numpy as np
import pytest

from subspectral.audio import AudioClip, load_wav, save_wav
from subspectral.cli import main
from subspectral.data import synth_fixture
from subspectral.models import load_model
from subspectral.pipeline import analyze_dataset, extract_dataset, load_feature_dir
from subspectral.storage import ContainerError, read_checkpoint, read_features, write_checkpoint, write_class_names, write_features


@pytest.fixture(scope="module")
def cli_dirs(tmp_path_factory):
    """A 3-class corpus driven entirely through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    fix = root / "fix"
    feat = root / "feat"
    run = root / "run"
    assert main(["synth", "--classes", "3", "--per-class", "3", "--seconds", "0.5", "--seed", "5", "--out", str(fix)]) == 0
    assert (
        main(
            [
                "extract",
                "--manifest",
                str(fix / "manifest.tsv"),
                "--audio-root",
                str(fix),
                "--out",
                str(feat),
                "--mel-bins",
                "40",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train",
                "--features",
                str(feat),
                "--out",
                str(run),
                "--epochs",
                "4",
                "--repeats",
                "1",
                "--seed",
                "1",
                "--sub-size",
                "20",
                "--hop-size",
                "10",
            ]
        )
        == 0
    )
    return fix, feat, run


class TestExtractPipeline:
    def test_feature_dir_contents(self, features_dir):
        data = load_feature_dir(features_dir)
        assert data["train_x"].shape == (20, 2, 40, 50)
        assert data["test_x"].shape == (10, 2, 40, 50)
        assert len(data["class_names"]) == 10
        # train features carry the fitted normalization: near zero mean
        flat = data["train_x"].astype(np.float64)
        assert abs(flat.mean()) < 1e-3
        assert abs(flat.std() - 1.0) < 0.05

    def test_missing_clip_reported_with_path(self, fixture_dir, tmp_path):
        out_dir, manifest = fixture_dir
        from dataclasses import replace

        from subspectral.data import DatasetManifest

        broken = DatasetManifest(
            entries=[replace(manifest.entries[0], path="audio/nope.wav")] + manifest.entries[1:],
            class_names=manifest.class_names,
        )
        with pytest.raises(FileNotFoundError, match="nope.wav"):
            extract_dataset(broken, out_dir, tmp_path / "x")

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("odd", ["shorter", "mono"])
    def test_odd_clip_shape_is_named(self, tmp_path, capsys, split, odd):
        fix = tmp_path / "fix"
        manifest = synth_fixture(2, 3, fix, test_per_class=1, seconds=0.5, seed=3)
        entry = manifest.split_entries(split)[-1]
        clip = load_wav(fix / entry.path)
        samples = clip.samples[:, : clip.n_samples // 2] if odd == "shorter" else clip.samples[:1]
        save_wav(fix / entry.path, AudioClip(samples=samples, sample_rate=clip.sample_rate))
        with pytest.raises(ValueError, match=re.escape(entry.path)):
            extract_dataset(manifest, fix, tmp_path / "feat")
        args = ["extract", "--manifest", str(fix / "manifest.tsv"), "--audio-root", str(fix), "--out", str(tmp_path / "cli")]
        assert main(args) == 1
        assert entry.path in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_odd_sample_rate_is_named(self, tmp_path, capsys, split):
        # one odd clip inside the train split, or a whole test split at
        # another rate than the train split: the first odd clip is named
        fix = tmp_path / "fix"
        manifest = synth_fixture(2, 3, fix, test_per_class=1, seconds=0.5, seed=3)
        odd = [manifest.split_entries("train")[-1]] if split == "train" else manifest.split_entries("test")
        for entry in odd:
            clip = load_wav(fix / entry.path)
            save_wav(fix / entry.path, AudioClip(samples=clip.samples, sample_rate=44100))
        message = f"{odd[0].path}: sample rate 44100 Hz differs from the dataset's 48000 Hz"
        with pytest.raises(ValueError, match=re.escape(message)):
            extract_dataset(manifest, fix, tmp_path / "feat")
        args = ["extract", "--manifest", str(fix / "manifest.tsv"), "--audio-root", str(fix), "--out", str(tmp_path / "cli")]
        assert main(args) == 1
        assert message in capsys.readouterr().err

    def test_frontend_error_names_the_clip(self, tmp_path, capsys):
        # a 96 kHz clip's 40 ms window (3840 samples) exceeds the FFT
        rng = np.random.default_rng(0)
        for name in ("a.wav", "b.wav"):
            save_wav(tmp_path / name, AudioClip(samples=rng.uniform(-0.5, 0.5, (1, 96000)), sample_rate=96000))
        (tmp_path / "manifest.tsv").write_text("a.wav\tcar\ttrain\nb.wav\tbus\ttest\n")
        args = ["extract", "--manifest", str(tmp_path / "manifest.tsv"), "--audio-root", str(tmp_path), "--out", str(tmp_path / "feat")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'a.wav'}: 40 ms window of 3840 samples at 96000 Hz exceeds the 2048-point FFT" in err

    def test_mel_count_with_empty_filters_exits_1(self, fixture_dir, tmp_path, capsys):
        out_dir, _ = fixture_dir
        args = ["extract", "--manifest", str(out_dir / "manifest.tsv"), "--audio-root", str(out_dir), "--out", str(tmp_path / "feat")]
        assert main(args + ["--mel-bins", "400"]) == 1
        assert "14 of 400 mel filters at 48000 Hz cover no bin" in capsys.readouterr().err
        assert not (tmp_path / "feat").exists()

    def test_mono_channel_mode(self, fixture_dir, tmp_path):
        out_dir, manifest = fixture_dir
        summary = extract_dataset(manifest, out_dir, tmp_path / "mono", mel_bins=40, channels="mono")
        assert summary["shape"][0] == 1


class TestAnalyzePipeline:
    def test_artifacts_on_disk(self, features_dir, tmp_path):
        out = tmp_path / "analysis"
        artifacts = analyze_dataset(features_dir, out, k=10.0)
        assert (out / "histograms.tsv").exists()
        class_names = artifacts["histograms"].class_ids
        assert len(list(out.glob("hist_*.tsv"))) == len(class_names) == 10
        for metric in ("chisq", "kl", "hellinger"):
            assert (out / f"matrix_{metric}.tsv").exists()
            values = artifacts["matrices"][metric].values
            np.testing.assert_allclose(values, values.T)
            np.testing.assert_allclose(np.diag(values), 1.0)
            assert values.min() >= 0 and values.max() <= 1


class TestCli:
    def test_synth_wrote_fixture(self, cli_dirs):
        fix, _, _ = cli_dirs
        assert (fix / "manifest.tsv").exists()
        assert len(list((fix / "audio").glob("*.wav"))) == 9

    def test_train_outputs(self, cli_dirs):
        _, _, run = cli_dirs
        assert (run / "model.ssnw").exists()
        assert (run / "report.tsv").exists()
        assert (run / "confusion_global.tsv").exists()
        assert (run / "curves_seed1.tsv").exists()

    def test_evaluate_command(self, cli_dirs, tmp_path):
        _, feat, run = cli_dirs
        out = tmp_path / "eval"
        code = main(["evaluate", "--checkpoint", str(run / "model.ssnw"), "--features", str(feat), "--out", str(out)])
        assert code == 0
        report = (out / "report.tsv").read_text()
        assert report.startswith("head\taccuracy")
        assert (out / "confusion_global.tsv").exists()

    def test_evaluate_reads_only_the_test_split_and_labels(self, cli_dirs, tmp_path):
        _, feat, run = cli_dirs
        scored = tmp_path / "feat"
        scored.mkdir()
        for name in ("test.ssnf", "labels.tsv"):
            (scored / name).write_bytes((feat / name).read_bytes())
        ckpt = str(run / "model.ssnw")
        for features, out in ((feat, tmp_path / "full"), (scored, tmp_path / "scored")):
            assert main(["evaluate", "--checkpoint", ckpt, "--features", str(features), "--out", str(out)]) == 0
        written = sorted(p.name for p in (tmp_path / "full").iterdir())
        assert "report.tsv" in written and "confusion_global.tsv" in written
        assert sorted(p.name for p in (tmp_path / "scored").iterdir()) == written
        for name in written:
            assert (tmp_path / "scored" / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name

    def test_predict_command(self, cli_dirs, tmp_path):
        _, feat, run = cli_dirs
        out = tmp_path / "pred.tsv"
        code = main(["predict", "--checkpoint", str(run / "model.ssnw"), "--features", str(feat / "test.ssnf"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        features, _ = read_features(feat / "test.ssnf")
        assert len(lines) == 1 + features.shape[0]
        assert lines[0].startswith("index\tlabel\tpred_global")

    def test_analyze_command(self, cli_dirs, tmp_path, capsys):
        _, feat, _ = cli_dirs
        out = tmp_path / "an"
        code = main(["analyze", "--features", str(feat), "--out", str(out), "--k", "10", "--metric", "hellinger"])
        assert code == 0
        captured = capsys.readouterr()
        assert "hellinger matrix" in captured.out
        assert (out / "matrix_hellinger.tsv").exists()

    @pytest.mark.parametrize("k", ["nan", "inf", "0"])
    def test_analyze_needs_finite_positive_k(self, cli_dirs, tmp_path, capsys, k):
        _, feat, _ = cli_dirs
        assert main(["analyze", "--features", str(feat), "--out", str(tmp_path / "an"), "--k", k]) == 1
        assert "k must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "an" / "matrix_chisq.tsv").exists()

    def test_evaluate_rejects_other_class_names(self, cli_dirs, tmp_path, capsys):
        # same class count as the checkpoint (band00-band02), other names
        _, feat, run = cli_dirs
        other = tmp_path / "feat"
        other.mkdir()
        for name in ("train.ssnf", "test.ssnf", "normalizer.bin"):
            (other / name).write_bytes((feat / name).read_bytes())
        write_class_names(other / "labels.tsv", ["car", "bus", "tram"])
        ckpt = run / "model.ssnw"
        assert main(["evaluate", "--checkpoint", str(ckpt), "--features", str(other), "--out", str(tmp_path / "ev")]) == 1
        err = capsys.readouterr().err
        assert str(other / "labels.tsv") in err and str(ckpt) in err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("rate, code", [(96000, 1), (51200, 0)])
    def test_synth_rejects_rates_extract_cannot_read(self, tmp_path, capsys, rate, code):
        # extract's 40 ms window fits the 2048-point FFT up to 51.2 kHz
        args = ["synth", "--classes", "2", "--per-class", "2", "--seconds", "0.1", "--sample-rate", str(rate), "--out", str(tmp_path)]
        assert main(args) == code
        if code:
            assert "40 ms window of 3840 samples at 96000 Hz exceeds the 2048-point FFT" in capsys.readouterr().err
            assert not (tmp_path / "manifest.tsv").exists()

    def test_paramcount_matches_library(self, capsys):
        code = main(["paramcount", "--model", "baseline", "--mel-bins", "40", "--channels", "stereo"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "layer\tkind\tparams"
        assert out[-1] == "total\t\t117686"

    def test_paramcount_head_compat(self, capsys):
        code = main(
            ["paramcount", "--model", "subspectralnet", "--mel-bins", "40", "--sub-size", "20", "--hop-size", "10", "--head-compat"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip().endswith("total\t\t331560")

    @pytest.mark.parametrize("flag", [["--mel-bins", "40"], ["--channels", "mono"]])
    def test_train_rejects_geometry_flags(self, tmp_path, capsys, flag):
        # train takes its input geometry from the feature directory
        with pytest.raises(SystemExit) as exc:
            main(["train", "--features", str(tmp_path), "--out", str(tmp_path / "run"), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_gradcheck_command(self, capsys):
        code = main(["gradcheck", "--seeds", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "conv2d_same" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_gradcheck_needs_a_seed(self, capsys, seeds):
        assert main(["gradcheck", "--seeds", seeds]) == 1
        assert "--seeds must be >= 1" in capsys.readouterr().err

    def test_train_rejects_nan_lr(self, cli_dirs, tmp_path, capsys):
        _, feat, _ = cli_dirs
        assert main(["train", "--features", str(feat), "--out", str(tmp_path / "run"), "--lr", "nan"]) == 1
        assert "lr must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, classes", [("analyze", 3), ("train", 3), ("evaluate", 3), ("evaluate", 8), ("predict", 3)])
    def test_out_of_range_label_exits_1(self, cli_dirs, tmp_path, capsys, command, classes):
        # a test label of 7 against a 3-class model; with 8 classes in
        # labels.tsv the feature directory is sound and only the
        # checkpoint's class count rules the label out
        _, feat, run = cli_dirs
        bad = tmp_path / "feat"
        bad.mkdir()
        for name in ("train.ssnf", "normalizer.bin"):
            (bad / name).write_bytes((feat / name).read_bytes())
        x, y = read_features(feat / "test.ssnf")
        y[0] = 7
        write_features(bad / "test.ssnf", x, y)
        write_class_names(bad / "labels.tsv", [f"c{i}" for i in range(classes)])
        ckpt = str(run / "model.ssnw")
        argv = {
            "analyze": ["analyze", "--features", str(bad), "--out", str(tmp_path / "an")],
            "train": ["train", "--features", str(bad), "--out", str(tmp_path / "run"), "--epochs", "1"],
            "evaluate": ["evaluate", "--checkpoint", ckpt, "--features", str(bad), "--out", str(tmp_path / "ev")],
            "predict": ["predict", "--checkpoint", ckpt, "--features", str(bad / "test.ssnf")],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        source = "labels.tsv" if command != "predict" and classes == 3 else ckpt
        assert f"{bad / 'test.ssnf'}: label 7 is out of range for the 3 classes of {source}" in err

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_feature_file_without_samples_exits_1(self, cli_dirs, tmp_path, capsys, command):
        _, feat, run = cli_dirs
        empty = tmp_path / "feat"
        empty.mkdir()
        for name in ("train.ssnf", "normalizer.bin", "labels.tsv"):
            (empty / name).write_bytes((feat / name).read_bytes())
        x, y = read_features(feat / "test.ssnf")
        write_features(empty / "test.ssnf", x[:0], y[:0])
        ckpt = str(run / "model.ssnw")
        out = tmp_path / "out"
        argv = {
            "evaluate": ["evaluate", "--checkpoint", ckpt, "--features", str(empty), "--out", str(out)],
            "predict": ["predict", "--checkpoint", ckpt, "--features", str(empty / "test.ssnf"), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        assert f"error: {empty / 'test.ssnf'}: holds no samples" in capsys.readouterr().err
        assert not out.exists()

    def test_error_exit_code_and_stderr(self, tmp_path, capsys):
        code = main(["extract", "--manifest", str(tmp_path / "missing.tsv"), "--audio-root", ".", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("manifests", [[], ["--train-manifest", "train.tsv"], ["--test-manifest", "test.tsv"]])
    def test_extract_without_a_manifest_exits_1(self, tmp_path, capsys, manifests):
        out = tmp_path / "o"
        assert main(["extract", *manifests, "--audio-root", ".", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: need --manifest or both --train-manifest/--test-manifest\n"
        assert not out.exists()

    def test_predict_with_renamed_header_key_exits_1(self, cli_dirs, tmp_path, capsys):
        _, feat, run = cli_dirs
        damaged = tmp_path / "model.ssnw"
        blob = (run / "model.ssnw").read_bytes()
        assert blob.count(b'"tensors"') == 1
        damaged.write_bytes(blob.replace(b'"tensors"', b'"uensors"'))
        code = main(["predict", "--checkpoint", str(damaged), "--features", str(feat / "test.ssnf")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_predict_with_mistyped_description_value_exits_1(self, cli_dirs, tmp_path, capsys):
        _, feat, run = cli_dirs
        desc, tensors, _ = read_checkpoint(run / "model.ssnw")
        damaged = tmp_path / "model.ssnw"
        write_checkpoint(damaged, dict(desc, mel_bins=str(desc["mel_bins"])), [(n, "param", v) for n, v in tensors.items()])
        code = main(["predict", "--checkpoint", str(damaged), "--features", str(feat / "test.ssnf")])
        assert code == 1
        assert str(damaged) in capsys.readouterr().err

    def test_predict_with_untrained_batch_norm_exits_1(self, cli_dirs, tmp_path, capsys):
        _, feat, run = cli_dirs
        desc, tensors, _ = read_checkpoint(run / "model.ssnw")
        tensors["sub1.bn2.batches_seen"] = np.zeros(1)
        damaged = tmp_path / "model.ssnw"
        write_checkpoint(damaged, desc, [(n, "param", v) for n, v in tensors.items()])
        assert main(["predict", "--checkpoint", str(damaged), "--features", str(feat / "test.ssnf")]) == 1
        err = capsys.readouterr().err
        assert str(damaged) in err and "sub1.bn2" in err

    @pytest.mark.parametrize("value", ["x", -1, 0, 1, 1.5, float("nan"), [], None])
    @pytest.mark.parametrize("key", ["head_compat", "include_sub_heads"])
    def test_predict_with_non_bool_head_option_exits_1(self, cli_dirs, tmp_path, capsys, key, value):
        _, feat, run = cli_dirs
        desc, tensors, _ = read_checkpoint(run / "model.ssnw")
        damaged = tmp_path / "model.ssnw"
        write_checkpoint(damaged, dict(desc, **{key: value}), [(n, "param", v) for n, v in tensors.items()])
        assert main(["predict", "--checkpoint", str(damaged), "--features", str(feat / "test.ssnf")]) == 1
        err = capsys.readouterr().err
        assert str(damaged) in err and f"{key} " in err

    @pytest.mark.parametrize("frames, code", [(50, 0), (60, 1), (100, 1)])
    def test_predict_checks_the_frame_count(self, tmp_path, capsys, frames, code):
        from subspectral.models import build_model, model_description
        from subspectral.storage import write_features

        graph = build_model(model_description("baseline", 40, 50, 1, n_classes=3), seed=0)
        graph.set_dropout_rng(np.random.default_rng(0))
        graph.forward(np.random.default_rng(1).standard_normal((4, 1, 40, 50)).astype(np.float32), train=True)
        graph.save(tmp_path / "model.ssnw")
        features = np.random.default_rng(2).standard_normal((3, 1, 40, frames)).astype(np.float32)
        write_features(tmp_path / "x.ssnf", features, [0, 1, 2])
        assert main(["predict", "--checkpoint", str(tmp_path / "model.ssnw"), "--features", str(tmp_path / "x.ssnf")]) == code
        if code:
            assert f"input has {frames} frames, model expects 50" in capsys.readouterr().err

    def test_extract_pair_manifests(self, tmp_path):
        from subspectral.data import synth_fixture, write_manifest
        from subspectral.data import DatasetManifest

        fix = tmp_path / "fix"
        manifest = synth_fixture(2, 2, fix, seconds=0.5, seed=3)
        train = DatasetManifest(entries=manifest.split_entries("train"), class_names=manifest.class_names)
        test = DatasetManifest(entries=manifest.split_entries("test"), class_names=manifest.class_names)
        write_manifest(tmp_path / "train.tsv", train)
        write_manifest(tmp_path / "test.tsv", test)
        code = main(
            [
                "extract",
                "--train-manifest",
                str(tmp_path / "train.tsv"),
                "--test-manifest",
                str(tmp_path / "test.tsv"),
                "--audio-root",
                str(fix),
                "--out",
                str(tmp_path / "feat"),
            ]
        )
        assert code == 0
        assert (tmp_path / "feat" / "train.ssnf").exists()

    @pytest.mark.parametrize("seconds, code", [("0", 1), ("-1", 1), ("0.01", 1), ("0.04", 0)])
    def test_synth_rejects_clips_extract_cannot_read(self, tmp_path, capsys, seconds, code):
        # extract's 40 ms window is 1920 samples at 48 kHz; one window extracts
        fix = tmp_path / "fix"
        assert main(["synth", "--classes", "2", "--per-class", "2", "--seconds", seconds, "--out", str(fix)]) == code
        if code:
            samples = round(float(seconds) * 48000)
            message = f"error: {seconds} s clips of {samples} samples are shorter than one 40 ms window of 1920 samples at 48000 Hz"
            assert message in capsys.readouterr().err
            assert not fix.exists()
        else:
            assert main(["extract", "--manifest", str(fix / "manifest.tsv"), "--audio-root", str(fix), "--out", str(tmp_path / "feat")]) == 0

    @pytest.mark.parametrize("mult", ["0", "-1"])
    def test_width_mult_below_1_exits_1(self, cli_dirs, tmp_path, capsys, mult):
        _, feat, _ = cli_dirs
        run = tmp_path / "run"
        for argv in (
            ["paramcount", "--model", "baseline", "--width-mult", mult],
            ["train", "--features", str(feat), "--out", str(run), "--model", "baseline", "--width-mult", mult, "--epochs", "1", "--repeats", "1"],
        ):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: width_multiplier {mult} is not an integer >= 1\n"
        assert not run.exists()

    @pytest.mark.parametrize("route", ["load_model", "predict"])
    @pytest.mark.parametrize("dtype", ["float64", "int8", None])
    def test_checkpoint_tensor_dtype_must_be_float32(self, cli_dirs, tmp_path, capsys, route, dtype):
        _, feat, run = cli_dirs
        blob = (run / "model.ssnw").read_bytes()
        header_len = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8 : 8 + header_len])
        entry = header["tensors"][1]
        if dtype is None:
            del entry["dtype"]
        else:
            entry["dtype"] = dtype
        payload = json.dumps(header).encode()
        damaged = tmp_path / "model.ssnw"
        damaged.write_bytes(blob[:4] + len(payload).to_bytes(4, "little") + payload + blob[8 + header_len :])
        message = f"{damaged}: tensor {entry['name']!r} has dtype {dtype!r}, not 'float32'"
        if route == "load_model":
            with pytest.raises(ContainerError, match=re.escape(message)):
                load_model(damaged)
        else:
            assert main(["predict", "--checkpoint", str(damaged), "--features", str(feat / "test.ssnf")]) == 1
            assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("shape, mismatch", [((1, 40), "1 channels, model expects 2"), ((2, 30), "30 mel bins, model expects 40")])
    def test_geometry_mismatch_names_both_files(self, cli_dirs, tmp_path, capsys, command, shape, mismatch):
        _, feat, run = cli_dirs
        x, y = read_features(feat / "test.ssnf")
        other = tmp_path / "feat"
        other.mkdir()
        (other / "labels.tsv").write_bytes((feat / "labels.tsv").read_bytes())
        write_features(other / "test.ssnf", np.zeros((len(y), *shape, x.shape[3]), dtype=np.float32), y)
        ckpt = run / "model.ssnw"
        out = tmp_path / "out"
        argv = {
            "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--features", str(other), "--out", str(out)],
            "predict": ["predict", "--checkpoint", str(ckpt), "--features", str(other / "test.ssnf"), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        assert f"error: {other / 'test.ssnf'}: input has {mismatch} ({ckpt})" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-1", "nan", "inf"])
    def test_failed_analyze_writes_nothing(self, cli_dirs, tmp_path, capsys, k):
        _, feat, _ = cli_dirs
        out = tmp_path / "an"
        assert main(["analyze", "--features", str(feat), "--out", str(out), f"--k={k}"]) == 1
        assert capsys.readouterr().err == f"error: k must be finite and positive, got {float(k)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seconds", ["inf", "-inf", "nan"])
    def test_synth_rejects_non_finite_seconds(self, tmp_path, capsys, seconds):
        fix = tmp_path / "fix"
        assert main(["synth", "--classes", "2", "--per-class", "2", f"--seconds={seconds}", "--out", str(fix)]) == 1
        assert capsys.readouterr().err == f"error: clip length must be finite, got {float(seconds)} s\n"
        assert not fix.exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_sample_without_values_exits_1(self, cli_dirs, tmp_path, capsys, command, axis):
        # both splits with C, F or T = 0; train reads train.ssnf first
        _, feat, run = cli_dirs
        bad = tmp_path / "feat"
        bad.mkdir()
        (bad / "labels.tsv").write_bytes((feat / "labels.tsv").read_bytes())
        for name in ("train.ssnf", "test.ssnf"):
            x, y = read_features(feat / name)
            # written by hand: write_features refuses such a shape
            header = struct.pack("<5I", 1, *np.take(x, [], axis=axis).shape)
            (bad / name).write_bytes(b"SSNF" + header + y.astype("<u4").tobytes())
        shape = "x".join(str(0 if a == axis else d) for a, d in enumerate(x.shape) if a)
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--features", str(bad), "--out", str(out), "--epochs", "1", "--repeats", "1"],
            "predict": ["predict", "--checkpoint", str(run / "model.ssnw"), "--features", str(bad / "test.ssnf"), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        path = bad / ("train.ssnf" if command == "train" else "test.ssnf")
        assert capsys.readouterr().err == f"error: {path}: a {shape} sample holds no values\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "analyze"])
    def test_splits_of_other_shapes_exit_1(self, cli_dirs, tmp_path, capsys, command):
        # a test split of twice the train split's frames
        _, feat, _ = cli_dirs
        bad = tmp_path / "feat"
        bad.mkdir()
        for name in ("train.ssnf", "normalizer.bin", "labels.tsv"):
            (bad / name).write_bytes((feat / name).read_bytes())
        x, y = read_features(feat / "test.ssnf")
        write_features(bad / "test.ssnf", np.concatenate([x, x], axis=3), y)
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--features", str(bad), "--out", str(out), "--epochs", "1", "--repeats", "1"],
            "analyze": ["analyze", "--features", str(bad), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        c, f, t = x.shape[1:]
        message = f"error: {bad / 'test.ssnf'}: {c}x{f}x{2 * t} samples differ from the {c}x{f}x{t} samples of train.ssnf\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["evaluate", "predict", "analyze"])
    def test_non_finite_feature_exits_1(self, cli_dirs, tmp_path, capsys, command, value):
        _, feat, run = cli_dirs
        bad = tmp_path / "feat"
        bad.mkdir()
        for name in ("train.ssnf", "normalizer.bin", "labels.tsv"):
            (bad / name).write_bytes((feat / name).read_bytes())
        x, y = read_features(feat / "test.ssnf")
        x[1, 0, 3, 4] = value
        write_features(bad / "test.ssnf", x, y)
        ckpt, out = str(run / "model.ssnw"), tmp_path / "out"
        argv = {
            "evaluate": ["evaluate", "--checkpoint", ckpt, "--features", str(bad), "--out", str(out)],
            "predict": ["predict", "--checkpoint", ckpt, "--features", str(bad / "test.ssnf"), "--out", str(out)],
            "analyze": ["analyze", "--features", str(bad), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        source = "test features hold" if command == "analyze" else f"{bad / 'test.ssnf'}: holds"
        assert capsys.readouterr().err == f"error: {source} a non-finite value (NaN or inf)\n"
        assert not out.exists()

    def test_label_that_cannot_name_a_file_exits_1_and_writes_nothing(self, cli_dirs, tmp_path, capsys):
        # analyze writes hist_<label>.tsv, so a '/' in a label is refused
        # when labels.tsv is read, before any file is written
        _, feat, _ = cli_dirs
        bad = tmp_path / "feat"
        bad.mkdir()
        for name in ("train.ssnf", "test.ssnf", "normalizer.bin"):
            (bad / name).write_bytes((feat / name).read_bytes())
        (bad / "labels.tsv").write_text("0\tbus\n1\tmetro/station\n2\tpark\n")
        out = tmp_path / "an"
        assert main(["analyze", "--features", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad / 'labels.tsv'}: line 2: class name 'metro/station' is empty or holds '/'\n"
        assert not out.exists()

    def test_every_written_table_is_rectangular_with_six_digit_numbers(self, cli_dirs, tmp_path):
        _, feat, run = cli_dirs
        ckpt = str(run / "model.ssnw")
        assert main(["evaluate", "--checkpoint", ckpt, "--features", str(feat), "--out", str(tmp_path / "ev")]) == 0
        assert main(["analyze", "--features", str(feat), "--out", str(tmp_path / "an")]) == 0
        assert main(["predict", "--checkpoint", ckpt, "--features", str(feat / "test.ssnf"), "--out", str(tmp_path / "pred.tsv")]) == 0
        tables = [*run.glob("*.tsv"), *tmp_path.glob("*/*.tsv"), tmp_path / "pred.tsv"]
        # train and evaluate: report and 4 confusions each, and one curve; analyze: 1 + 3 histograms and 3 matrices
        assert len(tables) == 6 + 5 + 7 + 1
        numbers = 0
        for path in tables:
            text = path.read_text()
            assert text.endswith("\n"), path
            header, *rows = (line.split("\t") for line in text.split("\n")[:-1])
            assert rows, path
            for row in rows:
                assert len(row) == len(header), path
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert f"{value:.6g}" == cell, (path, cell)
                    numbers += 1
        assert numbers > 100


class TestEndToEndDeterminism:
    def test_synth_extract_train_bitwise(self, tmp_path):
        checkpoints = []
        reports = []
        for tag in ("a", "b"):
            base = tmp_path / tag
            assert main(["synth", "--classes", "2", "--per-class", "2", "--seconds", "0.5", "--seed", "9", "--out", str(base / "fix")]) == 0
            assert (
                main(
                    [
                        "extract",
                        "--manifest",
                        str(base / "fix" / "manifest.tsv"),
                        "--audio-root",
                        str(base / "fix"),
                        "--out",
                        str(base / "feat"),
                    ]
                )
                == 0
            )
            assert (
                main(
                    [
                        "train",
                        "--features",
                        str(base / "feat"),
                        "--out",
                        str(base / "run"),
                        "--epochs",
                        "2",
                        "--repeats",
                        "1",
                        "--seed",
                        "3",
                    ]
                )
                == 0
            )
            checkpoints.append((base / "run" / "model.ssnw").read_bytes())
            reports.append((base / "run" / "report.tsv").read_text())
        assert checkpoints[0] == checkpoints[1]
        assert reports[0] == reports[1]
