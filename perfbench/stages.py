"""The benchmark's stages, each a call into subspectral plus its output check.

An op is one stage call followed by its check. A call that raises, or a
check that fails, counts as a failed op; only the call is timed.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np
from subspectral import cli, data, models, pipeline, storage, training

from workloads import CHANNELS, CLASSES, MIN_REPS, SAMPLE_RATE, SETUP_REPS, STAGES, Workload


class CheckError(AssertionError):
    """An output check failed."""


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


class Ops:
    """Counts ops and failed ops; a failure is reported on stderr."""

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed = 0
        self.tracer = tracer

    def run(self, stage: str, call, check):
        """Time call(), then check(result). Returns (seconds, result), or
        None when the call raised or the check failed."""
        self.attempted += 1
        span = self.tracer.begin(f"stage.{stage}") if self.tracer else None
        try:
            t0 = time.perf_counter()
            try:
                result = call()
            finally:
                seconds = time.perf_counter() - t0
                if span is not None:
                    self.tracer.end(span)
            check(result)
        except Exception:  # one failed op must not stop the run; it is counted and reported
            self.failed += 1
            print(f"[perfbench] op failed in stage {stage}:", file=sys.stderr)
            traceback.print_exc()
            return None
        return seconds, result


# -- output checks ------------------------------------------------------


def check_features(x: np.ndarray, y: np.ndarray, shape: tuple, labels: np.ndarray) -> None:
    expect(x.shape == (len(labels),) + shape, f"features shape {x.shape}, expected {(len(labels),) + shape}")
    expect(np.isfinite(x).all(), "features contain non-finite values")
    expect(np.array_equal(np.asarray(y, dtype=np.int64), labels), "feature labels differ from the manifest")


def check_losses(losses, reference=None) -> None:
    expect(len(losses) > 0 and all(np.isfinite(losses)), f"non-finite epoch loss in {losses}")
    expect(reference is None or list(losses) == list(reference), f"losses {losses} differ from first run {reference}")


def check_predict_tsv(text: str, class_names, labels: np.ndarray, expected_global: np.ndarray) -> np.ndarray:
    """Rows of a predict TSV match the labels and the expected global-head
    class ids; returns the predicted ids."""
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split("\t")
    expect(header[:2] == ["index", "label"] and "pred_global" in header, f"bad predict header {header[:4]}")
    rows = [line.split("\t") for line in lines[1:]]
    expect(len(rows) == len(labels), f"{len(rows)} predict rows for {len(labels)} samples")
    col = header.index("pred_global")
    ids = {name: i for i, name in enumerate(class_names)}
    for i, row in enumerate(rows):
        expect(len(row) == len(header), f"row {i} has {len(row)} cells, header has {len(header)}")
        expect(row[0] == str(i) and row[1] == class_names[labels[i]], f"row {i} index/label {row[:2]} wrong")
        expect(row[col] in ids, f"row {i}: unknown class {row[col]!r}")
    pred = np.array([ids[row[col]] for row in rows])
    expect(np.array_equal(pred, expected_global), "pred_global disagrees with the checkpoint's argmax")
    return pred


def check_matrix(values: np.ndarray) -> None:
    expect(np.isfinite(values).all(), "distance matrix has non-finite entries")
    expect(np.allclose(np.diag(values), 1.0), f"distance matrix diagonal {np.diag(values)} is not 1")


# -- the stage runner ---------------------------------------------------


@dataclass
class Inputs:
    manifest: object
    fixture_dir: Path
    work_dir: Path


@dataclass
class StageTimes:
    seconds: dict = field(default_factory=lambda: {s: [] for s in STAGES})
    best_test_acc: float = float("nan")
    final_train_loss: float = float("nan")


def setup(wl: Workload, seed: int, work_dir: Path, ops: Ops) -> tuple[Inputs, list[float]]:
    """Synthesize the fixture SETUP_REPS times (same seed, same bytes) and
    return it with the wall time of each repeat."""
    fixture = work_dir / "fixture"
    times = []

    def call():
        return data.synth_fixture(
            CLASSES,
            wl.per_class,
            fixture,
            test_per_class=wl.test_per_class,
            seconds=wl.clip_seconds,
            sample_rate=SAMPLE_RATE,
            channels=CHANNELS,
            seed=seed,
        )

    def check(manifest):
        expect(len(manifest.entries) == wl.train_clips + wl.test_clips, "wrong clip count")
        expect(all((fixture / e.path).is_file() for e in manifest.entries), "missing WAV")

    manifest = None
    for _ in range(SETUP_REPS):
        done = ops.run("setup", call, check)
        if done is None:
            raise RuntimeError("fixture synthesis failed")
        times.append(done[0])
        manifest = done[1]
    return Inputs(manifest, fixture, work_dir), times


def run_stages(wl: Workload, inputs: Inputs, seed: int, seconds: float, ops: Ops) -> StageTimes:
    """Run every stage once in CLI order, then keep calling stages for
    seconds in all (and until each has MIN_REPS calls), always the stage
    furthest below its share of the time used so far. Interleaving spreads
    each stage's calls over the whole run, so a slow phase of the machine
    shifts every median a little instead of one median a lot. Raises
    RuntimeError when a first call fails, since later stages need it."""
    start = time.perf_counter()
    out = StageTimes()
    feat = inputs.work_dir / "features"
    ckpt = inputs.work_dir / "model.ssnw"
    tsv = inputs.work_dir / "predict.tsv"
    analysis = inputs.work_dir / "analysis"
    manifest = inputs.manifest
    shape = (CHANNELS, wl.mel_bins, wl.frames)
    train_labels = np.array([manifest.label_id(e.label) for e in manifest.split_entries("train")])
    test_labels = np.array([manifest.label_id(e.label) for e in manifest.split_entries("test")])
    stage_ops = {}

    def first(stage, call, check):
        stage_ops[stage] = (call, check)
        done = ops.run(stage, call, check)
        if done is None:
            raise RuntimeError(f"stage {stage} failed on its first call")
        if stage in out.seconds:
            out.seconds[stage].append(done[0])
        return done[1]

    # extract: WAV -> normalized .ssnf + sidecars
    def check_extract(summary):
        expect(tuple(summary["shape"]) == shape, f"extracted shape {summary['shape']}, expected {shape}")
        for name, labels in ((pipeline.TRAIN_FILE, train_labels), (pipeline.TEST_FILE, test_labels)):
            x, y = storage.read_features(feat / name)
            check_features(x, y, shape, labels)

    first(
        "extract",
        lambda: pipeline.extract_dataset(manifest, inputs.fixture_dir, feat, mel_bins=wl.mel_bins),
        check_extract,
    )

    # load: both containers and sidecars back into memory
    def check_load(d):
        check_features(d["train_x"], d["train_y"], shape, train_labels)
        check_features(d["test_x"], d["test_y"], shape, test_labels)
        expect(d["class_names"] == manifest.class_names, "class names differ from the manifest")

    d = first("load", lambda: pipeline.load_feature_dir(feat), check_load)

    # train: one repeat of cfg.epochs epochs, evaluations included; every
    # later call must repeat the first call's losses exactly
    cfg = wl.train_config(seed)
    reference_loss = []

    def check_train(result):
        check_losses(result.histories[0].epoch_loss, reference_loss or None)

    result = first(
        "train",
        lambda: training.train_model(d["train_x"], d["train_y"], d["test_x"], d["test_y"], cfg, d["class_names"]),
        check_train,
    )
    history = result.histories[0]
    reference_loss.extend(history.epoch_loss)
    out.best_test_acc = history.best_accuracy
    out.final_train_loss = history.epoch_loss[-1]
    graph = result.graph
    first("save", lambda: graph.save(ckpt, meta={"best_epoch": history.best_epoch}), lambda _: None)

    # the checkpoint must reproduce the in-memory model: same accuracy on
    # every head; its per-sample argmax is the reference for predict
    reference_pred = []

    def check_roundtrip(loaded):
        report = training.evaluate_model(loaded[0], d["test_x"], d["test_y"])
        expect(report.accuracy == result.final_report.accuracy, "load_model round trip changed accuracy")
        reference_pred.append(training.predict_heads(loaded[0], d["test_x"])["global"])

    first("roundtrip", lambda: models.load_model(ckpt), check_roundtrip)

    def check_eval(report):
        expect(report.accuracy == result.final_report.accuracy, f"accuracy {report.accuracy} != {result.final_report.accuracy}")

    first("evaluate", lambda: training.evaluate_model(graph, d["test_x"], d["test_y"]), check_eval)

    # predict: the CLI in-process, checkpoint load to TSV write
    argv = ["predict", "--checkpoint", str(ckpt), "--features", str(feat / pipeline.TEST_FILE), "--out", str(tsv)]

    def call_predict():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check_predict(code):
        expect(code == 0, f"predict exited with {code}")
        pred = check_predict_tsv(tsv.read_text(), d["class_names"], test_labels, reference_pred[0])
        n = len(d["class_names"])
        confusion = np.zeros((n, n), dtype=np.int64)
        np.add.at(confusion, (test_labels, pred), 1)
        expect(np.array_equal(confusion, result.final_report.confusion["global"]), "predict disagrees with evaluate_model")

    first("predict", call_predict, check_predict)

    # analyze: profiles, histograms, three distance matrices, TSVs
    def check_analyze(artifacts):
        expect(len(artifacts["matrices"]) == 3, "expected three distance matrices")
        for matrix in artifacts["matrices"].values():
            check_matrix(matrix.values)

    first("analyze", lambda: pipeline.analyze_dataset(feat, analysis), check_analyze)

    share = dict(zip(STAGES, wl.shares))
    used = {s: sum(out.seconds[s]) for s in STAGES}
    calls = {s: 1 for s in STAGES}
    while True:
        due = STAGES if time.perf_counter() - start < seconds else [s for s in STAGES if calls[s] < MIN_REPS]
        if not due:
            return out
        stage = min(due, key=lambda s: used[s] / share[s])
        t0 = time.perf_counter()
        done = ops.run(stage, *stage_ops[stage])
        used[stage] += time.perf_counter() - t0
        calls[stage] += 1
        if done is not None:
            out.seconds[stage].append(done[0])


def end_to_end(wl: Workload, times: StageTimes) -> dict[str, tuple[float, str]]:
    s = {stage: median(v) for stage, v in times.seconds.items()}
    audio_s = (wl.train_clips + wl.test_clips) * wl.clip_seconds
    return {
        "extract_audio_s_per_s": (audio_s / s["extract"], "audio-s/s"),
        "train_epoch_s": (s["train"] / wl.epochs, "s"),
        "eval_samples_per_s": (wl.test_clips / s["evaluate"], "samples/s"),
        "predict_samples_per_s": (wl.test_clips / s["predict"], "samples/s"),
        "analyze_s": (s["analyze"], "s"),
        "load_features_s": (s["load"], "s"),
    }
