"""Training loop: determinism, degenerate configs, evaluation reports."""

import numpy as np
import pytest

from subspectral.models import build_model, load_model, model_description, multi_head_loss
from subspectral.pipeline import load_feature_dir
from subspectral.storage import write_class_matrix
from subspectral.training import (
    TrainConfig,
    evaluate_model,
    predict_heads,
    train_model,
    write_curves_tsv,
    write_report_tsv,
)


@pytest.fixture(scope="module")
def data(features_dir):
    return load_feature_dir(features_dir)


def small_cfg(**kw):
    base = dict(epochs=3, repeats=1, seed=0, batch_size=8)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_at_init(self, data):
        from subspectral.training import build_model

        cfg = small_cfg(lr=0.0, epochs=2)
        n, c, f, t = data["train_x"].shape
        n_classes = int(max(data["train_y"].max(), data["test_y"].max())) + 1
        desc = cfg.model_description(f, t, c, n_classes)
        reference = build_model(desc, seed=cfg.seed)
        # same seed => identical initialization
        reference2 = build_model(desc, seed=cfg.seed)
        for a, b in zip(reference.parameters(), reference2.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        result = train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], cfg)
        for trained, init in zip(result.graph.parameters(), reference.parameters()):
            np.testing.assert_array_equal(trained.data, init.data)

    def test_bit_identical_repeat_runs(self, data, tmp_path):
        cfg = small_cfg(epochs=3)
        paths = []
        for tag in ("a", "b"):
            result = train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], cfg, data["class_names"])
            path = tmp_path / f"{tag}.ssnw"
            result.graph.save(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seeds_differ(self, data):
        r0 = train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], small_cfg(seed=0))
        r1 = train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], small_cfg(seed=1))
        same = all(
            np.array_equal(a.data, b.data) for a, b in zip(r0.graph.parameters(), r1.graph.parameters())
        )
        assert not same

    def test_nan_loss_aborts_with_context(self, data, monkeypatch):
        from subspectral import training as tr

        def poisoned(head_logits, labels):
            losses, dlogits = multi_head_loss(head_logits, labels)
            return {**losses, "global": float("nan")}, dlogits

        monkeypatch.setattr(tr, "multi_head_loss", poisoned)
        with pytest.raises(RuntimeError, match="NaN loss at run 0, epoch 0, batch 0"):
            train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], small_cfg())

    def test_inf_loss_aborts_with_context(self, data, monkeypatch):
        from subspectral import training as tr

        def poisoned(head_logits, labels):
            losses, dlogits = multi_head_loss(head_logits, labels)
            return {**losses, "global": float("inf")}, dlogits

        monkeypatch.setattr(tr, "multi_head_loss", poisoned)
        with pytest.raises(RuntimeError, match="inf loss at run 0, epoch 0, batch 0"):
            train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], small_cfg())

    def test_nonfinite_loss_names_the_head(self, data, monkeypatch):
        from subspectral import training as tr
        from subspectral.models import build_model

        def poisoned(desc, seed=0, dtype=np.float32):
            graph = build_model(desc, seed, dtype)
            graph.sub_heads[1].layers[0].weight.data[...] = np.nan
            return graph

        monkeypatch.setattr(tr, "build_model", poisoned)
        with pytest.raises(RuntimeError, match=r"^NaN loss at run 0, epoch 0, batch 0 \(heads: sub1\)$"):
            train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], small_cfg())

    def test_final_report_is_the_best_epochs_test_report(self, data):
        result = train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], small_cfg(repeats=2))
        fresh = evaluate_model(result.graph, data["test_x"], data["test_y"])
        report = result.final_report
        assert report.accuracy == fresh.accuracy
        assert set(report.confusion) == set(fresh.confusion)
        for name, matrix in fresh.confusion.items():
            np.testing.assert_array_equal(report.confusion[name], matrix)
        best = result.histories[result.best_run]
        for name, curve in best.test_accuracy.items():
            assert report.accuracy[name] == curve[best.best_epoch]

    def test_average_best_is_mean_over_repeats(self, data):
        cfg = small_cfg(epochs=2, repeats=2)
        result = train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], cfg)
        assert len(result.histories) == 2
        expected = np.mean([h.best_accuracy for h in result.histories])
        assert result.average_best == pytest.approx(expected)

    def test_empty_split_rejected(self, data):
        with pytest.raises(ValueError, match="non-empty"):
            train_model(data["train_x"][:0], data["train_y"][:0], data["test_x"], data["test_y"], small_cfg())

    def test_baseline_model_trains(self, data):
        cfg = small_cfg(model="baseline", epochs=2)
        result = train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], cfg)
        assert result.graph.desc["kind"] == "baseline"
        assert result.graph.head_names() == ["global"]

    def test_no_sub_loss_variant_has_single_head(self, data):
        cfg = small_cfg(include_sub_heads=False, epochs=2)
        result = train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], cfg)
        assert result.graph.head_names() == ["global"]


class TestEvaluation:
    def test_confusion_rows_sum_to_class_counts(self, data):
        cfg = small_cfg(epochs=2)
        result = train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], cfg)
        report = result.final_report
        counts = np.bincount(data["test_y"], minlength=10)
        for matrix in report.confusion.values():
            np.testing.assert_array_equal(matrix.sum(axis=1), counts)
            trace = np.trace(matrix)
            head = [k for k, v in report.confusion.items() if v is matrix][0]
            assert report.accuracy[head] == pytest.approx(trace / report.n_samples)

    def test_all_one_class_predictor(self, data):
        # force every prediction to class 3 through a huge output bias
        graph = build_model(model_description("baseline", 40, 50, 2, time_pool=10), seed=0)
        graph.set_dropout_rng(np.random.default_rng(0))
        graph.forward(data["train_x"][:4], train=True)  # initialize BN stats
        out_bias = graph.parameters()[-1]
        assert out_bias.name.endswith("dense2.bias")
        out_bias.data[...] = 0
        out_bias.data[3] = 50.0
        report = evaluate_model(graph, data["test_x"], data["test_y"])
        matrix = report.confusion["global"]
        assert matrix[:, 3].sum() == report.n_samples
        share = np.bincount(data["test_y"], minlength=10)[3] / report.n_samples
        assert report.accuracy["global"] == pytest.approx(share)

    def test_memorized_model_confusion_is_diagonal(self, data):
        cfg = small_cfg(epochs=45, batch_size=16)
        result = train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], cfg)
        report = evaluate_model(result.graph, data["train_x"], data["train_y"])
        if report.accuracy["global"] == 1.0:
            matrix = report.confusion["global"]
            assert np.all(matrix == np.diag(np.diag(matrix)))
        else:  # training is stochastic across platforms; still expect near-memorization
            assert report.accuracy["global"] >= 0.9

    def test_predict_heads_shapes(self, data):
        cfg = small_cfg(epochs=2)
        result = train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], cfg)
        preds = predict_heads(result.graph, data["test_x"])
        assert set(preds) == set(result.graph.head_names())
        for p in preds.values():
            assert p.shape == (data["test_x"].shape[0],)


class TestCheckpointFlow:
    def test_save_load_evaluate_bit_exact(self, data, tmp_path):
        cfg = small_cfg(epochs=3)
        result = train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], cfg, data["class_names"])
        before = evaluate_model(result.graph, data["test_x"], data["test_y"])
        path = tmp_path / "model.ssnw"
        result.graph.save(path)
        loaded, _ = load_model(path)
        after = evaluate_model(loaded, data["test_x"], data["test_y"])
        assert before.accuracy == after.accuracy
        for name in before.confusion:
            np.testing.assert_array_equal(before.confusion[name], after.confusion[name])


class TestReportWriters:
    def test_tsv_outputs(self, data, tmp_path):
        cfg = small_cfg(epochs=2)
        result = train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], cfg)
        report = result.final_report
        write_report_tsv(tmp_path / "report.tsv", report)
        lines = (tmp_path / "report.tsv").read_text().strip().split("\n")
        assert lines[0] == "head\taccuracy\tn_samples"
        assert len(lines) == 1 + len(report.head_names)
        write_class_matrix(tmp_path / "c.tsv", report.confusion["global"], data["class_names"])
        rows = (tmp_path / "c.tsv").read_text().strip().split("\n")
        assert len(rows) == 11
        write_curves_tsv(tmp_path / "curves.tsv", result.histories[0])
        curve_rows = (tmp_path / "curves.tsv").read_text().strip().split("\n")
        assert len(curve_rows) == 1 + cfg.epochs


class TestTrainConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lr must be finite"):
                TrainConfig(lr=lr)
        with pytest.raises(ValueError):
            TrainConfig(model="transformer")
