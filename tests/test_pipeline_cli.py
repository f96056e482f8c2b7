"""End-to-end pipeline and command-line interface tests (tiny scale)."""

import json
import re

import numpy as np
import pytest

from subspectral.audio import AudioClip, load_wav, save_wav
from subspectral.cli import main
from subspectral.data import synth_fixture
from subspectral.pipeline import analyze_dataset, extract_dataset, load_feature_dir
from subspectral.storage import read_checkpoint, read_features, write_checkpoint


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

    def test_error_exit_code_and_stderr(self, tmp_path, capsys):
        code = main(["extract", "--manifest", str(tmp_path / "missing.tsv"), "--audio-root", ".", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

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
