"""Command-line entry points.

Subcommands: synth, extract, analyze, train, evaluate, predict,
paramcount, gradcheck. Every table, written to a file or printed, goes
through storage.table_text: tab-separated, floats to 6 significant digits;
exit code is 0 on success and nonzero with a stderr diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import pipeline, storage
from .data import parse_manifest, parse_manifest_pair, synth_fixture
from .models import KIND_OPTIONS, build_model, count_params, load_model, model_description
from .training import (
    TrainConfig,
    evaluate_model,
    predict_probs,
    train_model,
    write_curves_tsv,
    write_report_tsv,
)
from .verification import run_gradient_suite


def _add_model_flags(p: argparse.ArgumentParser):
    sub, base = KIND_OPTIONS["subspectralnet"], KIND_OPTIONS["baseline"]
    p.add_argument("--model", choices=list(KIND_OPTIONS), default="subspectralnet")
    p.add_argument("--sub-size", type=int, default=sub["sub_size"], help="band crop height X")
    p.add_argument("--hop-size", type=int, default=sub["hop_size"], help="vertical band hop Y")
    p.add_argument("--head-compat", action="store_true", help="size the global head to match the published parameter count")
    p.add_argument("--no-sub-loss", action="store_true", help="drop the per-band heads; train the global head only")
    p.add_argument("--width-mult", type=int, default=base["width_multiplier"], help="baseline conv width multiplier")


def _model_options(args) -> dict:
    """The model options (models.KIND_OPTIONS) the model flags set."""
    return {
        "sub_size": args.sub_size,
        "hop_size": args.hop_size,
        "head_compat": args.head_compat,
        "include_sub_heads": not args.no_sub_loss,
        "width_multiplier": args.width_mult,
    }


def cmd_synth(args) -> int:
    manifest = synth_fixture(
        args.classes,
        args.per_class,
        args.out,
        test_per_class=args.test_per_class,
        seconds=args.seconds,
        sample_rate=args.sample_rate,
        channels=2 if args.channels == "stereo" else 1,
        seed=args.seed,
    )
    print(f"wrote {len(manifest.entries)} clips under {args.out}")
    return 0


def cmd_extract(args) -> int:
    if args.manifest:
        manifest = parse_manifest(args.manifest)
    elif args.train_manifest and args.test_manifest:
        manifest = parse_manifest_pair(args.train_manifest, args.test_manifest)
    else:
        raise ValueError("need --manifest or both --train-manifest/--test-manifest")
    summary = pipeline.extract_dataset(
        manifest,
        args.audio_root,
        args.out,
        mel_bins=args.mel_bins,
        channels=args.channels,
    )
    c, f, t = summary["shape"]
    print(
        f"extracted {summary['train_samples']} train / {summary['test_samples']} test samples, "
        f"{c}x{f}x{t} features, classes: {', '.join(summary['class_names'])}"
    )
    return 0


def cmd_analyze(args) -> int:
    artifacts = pipeline.analyze_dataset(args.features, args.out, k=args.k)
    matrix = artifacts["matrices"][args.metric]
    print(f"wrote histograms and {len(artifacts['matrices'])} distance matrices to {args.out}")
    print(f"{args.metric} matrix (post-transform):")
    sys.stdout.write(storage.table_text(matrix.values.tolist()))
    return 0


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        lr=args.lr,
        batch_size=args.batch,
        seed=args.seed,
        repeats=args.repeats,
        model=args.model,
        **_model_options(args),
    )


def cmd_train(args) -> int:
    data = pipeline.load_feature_dir(args.features)
    cfg = _train_config(args)
    result = train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], cfg, data["class_names"])
    out = Path(args.out)
    _write_report(out, result.final_report, data["class_names"])
    checkpoint = out / "model.ssnw"
    best = result.histories[result.best_run]
    result.graph.save(
        checkpoint,
        meta={
            "best_run": result.best_run,
            "best_epoch": best.best_epoch,
            "best_accuracy": best.best_accuracy,
            "average_best": result.average_best,
        },
    )
    for history in result.histories:
        write_curves_tsv(out / f"curves_seed{history.run_seed}.tsv", history)
    print(f"average-best global accuracy over {cfg.repeats} run(s): {result.average_best:.6g}")
    print(f"best checkpoint (run {result.best_run}, epoch {best.best_epoch}) saved to {checkpoint}")
    return 0


def _write_report(out: Path, report, class_names) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_report_tsv(out / "report.tsv", report)
    for name, matrix in report.confusion.items():
        storage.write_class_matrix(out / f"confusion_{name}.tsv", matrix, class_names)


def _load_scored(features_path, checkpoint, labels_path=None):
    """The checked inputs of evaluate and predict: (graph, features, labels,
    class names), with the features' (C, F, T) that of the checkpoint."""
    features, labels = storage.read_features(features_path)
    names = storage.read_class_names(labels_path) if labels_path else None
    if names is not None:
        storage.check_labels(features_path, labels, len(names), pipeline.LABELS_FILE)
    if features.shape[0] == 0:
        raise storage.ContainerError(f"{features_path}: holds no samples")
    # a float64 sum of float32 values is non-finite exactly when a value is,
    # and it allocates no full-size mask
    if not np.isfinite(features.sum(dtype=np.float64)):
        raise storage.ContainerError(f"{features_path}: holds a non-finite value (NaN or inf)")
    graph, _meta = load_model(checkpoint)
    geometry = [graph.desc[key] for key in ("channels", "mel_bins", "frames")]
    for what, got, want in zip(("channels", "mel bins", "frames"), features.shape[1:], geometry):
        if got != want:
            raise storage.ContainerError(f"{features_path}: input has {got} {what}, model expects {want} ({checkpoint})")
    storage.check_labels(features_path, labels, graph.desc["n_classes"], checkpoint)
    if names is not None and graph.desc["class_names"] not in (None, names):
        raise storage.ContainerError(f"{labels_path}: class names {names} differ from {checkpoint}'s {graph.desc['class_names']}")
    return graph, features, labels, names or graph.desc["class_names"] or [str(i) for i in range(graph.desc["n_classes"])]


def cmd_evaluate(args) -> int:
    split = Path(args.features)
    graph, features, labels, class_names = _load_scored(split / pipeline.TEST_FILE, args.checkpoint, split / pipeline.LABELS_FILE)
    report = evaluate_model(graph, features, labels)
    _write_report(Path(args.out), report, class_names)
    for name in report.head_names:
        print(f"{name}\taccuracy {report.accuracy[name]:.6g}")
    return 0


def cmd_predict(args) -> int:
    graph, features, labels, class_names = _load_scored(args.features, args.checkpoint)
    head_probs = predict_probs(graph, features)
    preds = {name: np.argmax(p, axis=1) for name, p in head_probs.items()}
    heads, probs = graph.head_names(), head_probs["global"].tolist()
    header = ["index", "label", *(f"pred_{h}" for h in heads), *(f"p_{c}" for c in class_names)]
    rows = (
        [i, class_names[label], *(class_names[preds[h][i]] for h in heads), *probs[i]]
        for i, label in enumerate(labels)
    )
    text = storage.table_text(rows, header)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote predictions for {features.shape[0]} samples to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_paramcount(args) -> int:
    channels = 2 if args.channels == "stereo" else 1
    graph = build_model(model_description(args.model, args.mel_bins, args.frames, channels, **_model_options(args)))
    rows = [[row["name"], row["kind"], row["params"]] for row in graph.layer_table()]
    sys.stdout.write(storage.table_text([*rows, ["total", "", count_params(graph)]], ["layer", "kind", "params"]))
    return 0


def cmd_gradcheck(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    entries = run_gradient_suite(seeds=range(args.seeds))
    by_case: dict[tuple, list] = {}
    for e in entries:
        by_case.setdefault((e.case, e.dtype), []).append(e.report)
    rows = []
    for (case, dtype), reports in by_case.items():
        status = "pass" if all(r.passed for r in reports) else "FAIL"
        rows.append([case, dtype, sum(r.n_coords for r in reports), max(r.max_rel_error for r in reports), reports[0].tolerance, status])
    sys.stdout.write(storage.table_text(rows, ["case", "dtype", "coords", "max_rel_error", "tolerance", "status"]))
    return 0 if all(e.passed for e in entries) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="subspectral", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic band-limited fixture")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--per-class", type=int, default=4)
    p.add_argument("--test-per-class", type=int, default=None)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--sample-rate", type=int, default=48000)
    p.add_argument("--channels", choices=["mono", "stereo"], default="stereo")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("extract", help="extract normalized log-mel features to containers")
    p.add_argument("--manifest")
    p.add_argument("--train-manifest")
    p.add_argument("--test-manifest")
    p.add_argument("--audio-root", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mel-bins", type=int, default=40)
    p.add_argument("--channels", choices=["mono", "stereo"], default="stereo")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("analyze", help="band-activation histograms and distance matrices")
    p.add_argument("--features", required=True, help="directory written by extract")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=float, default=10.0, help="distance transform constant")
    p.add_argument("--metric", choices=["chisq", "kl", "hellinger"], default="chisq")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("train", help="train a model on extracted features")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=3)
    _add_model_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="per-head accuracy and confusion matrices")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("predict", help="per-sample head predictions for a feature container")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True, help="a .ssnf file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("paramcount", help="per-layer trainable parameter table")
    p.add_argument("--mel-bins", type=int, default=40, help="spectrogram height F")
    p.add_argument("--frames", type=int, default=500)
    p.add_argument("--channels", choices=["mono", "stereo"], default="stereo")
    _add_model_flags(p)
    p.set_defaults(fn=cmd_paramcount)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seeds", type=int, default=20)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
