"""Training and evaluation loops with per-head reporting.

Each run rebuilds the model from its own seed, reshuffles every epoch
from a counter-based RNG keyed on (run seed, epoch), and tracks per-head
test accuracy after every epoch. The checkpointed state is the epoch with
the best global-head test accuracy; with repeats the reported score is
the mean of per-run bests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import storage
from .models import KIND_OPTIONS, ModelGraph, build_model, model_description, multi_head_loss
from .nn import functional as F
from .nn.optim import adam_step
from .seeding import STREAM_DROPOUT, epoch_rng, philox_rng

EVAL_BATCH = 64  # samples per eval-mode forward


@dataclass
class TrainConfig:
    epochs: int = 200
    lr: float = 1e-3
    batch_size: int = 16
    seed: int = 0
    repeats: int = 3
    model: str = "subspectralnet"
    sub_size: int = KIND_OPTIONS["subspectralnet"]["sub_size"]
    hop_size: int = KIND_OPTIONS["subspectralnet"]["hop_size"]
    head_compat: bool = KIND_OPTIONS["subspectralnet"]["head_compat"]
    include_sub_heads: bool = KIND_OPTIONS["subspectralnet"]["include_sub_heads"]
    width_multiplier: int = KIND_OPTIONS["baseline"]["width_multiplier"]

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.model not in KIND_OPTIONS:
            raise ValueError(f"unknown model {self.model!r}")

    def model_description(self, mel_bins: int, frames: int, channels: int, n_classes: int, class_names=None) -> dict:
        """The description of the configured model over (channels,
        mel_bins, frames) features."""
        options = {key: getattr(self, key) for key in KIND_OPTIONS[self.model]}
        return model_description(
            self.model, mel_bins, frames, channels, n_classes=n_classes, class_names=class_names, **options
        )


@dataclass
class EvalReport:
    head_names: list[str]
    accuracy: dict[str, float]
    confusion: dict[str, np.ndarray]
    n_samples: int


@dataclass
class RunHistory:
    run_seed: int
    epoch_loss: list[float] = field(default_factory=list)
    test_accuracy: dict[str, list[float]] = field(default_factory=dict)
    train_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_accuracy: float = -1.0


@dataclass
class TrainResult:
    graph: ModelGraph
    best_run: int
    histories: list[RunHistory]
    average_best: float
    final_report: EvalReport


def predict_probs(graph: ModelGraph, features: np.ndarray) -> dict[str, np.ndarray]:
    """Eval-mode class probabilities per head over a feature tensor: the
    softmax of each head's logits."""
    out: dict[str, list] = {name: [] for name in graph.head_names()}
    for lo in range(0, features.shape[0], EVAL_BATCH):
        logits = graph.forward(features[lo : lo + EVAL_BATCH], train=False)
        for name, z in logits.items():
            out[name].append(F.softmax(z))
    return {name: np.concatenate(chunks, axis=0) for name, chunks in out.items()}


def predict_heads(graph: ModelGraph, features: np.ndarray) -> dict[str, np.ndarray]:
    """Eval-mode head predictions (class ids): the argmax of predict_probs."""
    return {name: np.argmax(p, axis=1) for name, p in predict_probs(graph, features).items()}


def evaluate_model(graph: ModelGraph, features: np.ndarray, labels: np.ndarray) -> EvalReport:
    """Accuracy and confusion matrix per head (rows true, columns predicted)."""
    n_classes = graph.desc["n_classes"]
    preds = predict_heads(graph, features)
    accuracy = {}
    confusion = {}
    for name, p in preds.items():
        matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
        np.add.at(matrix, (labels.astype(int), p.astype(int)), 1)
        confusion[name] = matrix
        accuracy[name] = float(np.trace(matrix)) / len(labels)
    return EvalReport(head_names=graph.head_names(), accuracy=accuracy, confusion=confusion, n_samples=len(labels))


def train_model(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    cfg: TrainConfig,
    class_names=None,
) -> TrainResult:
    """Minibatch Adam over the multi-head loss, repeated cfg.repeats times.

    Each step back-propagates the sum of every head's cross-entropy
    (multi_head_loss). Aborts with run/epoch/batch context if that sum is
    NaN or infinite, naming the heads whose own loss is. After each epoch
    every head is evaluated on the test set; each run keeps the state and
    test report of its best global-head epoch. The returned graph holds
    the best run's best state, and final_report is that epoch's report.
    Training is bit-reproducible for a fixed seed at one BLAS thread,
    whatever nn.functional's helper threads run (its module docstring).
    """
    if train_x.shape[0] == 0 or test_x.shape[0] == 0:
        raise ValueError("both train and test splits must be non-empty")
    _, channels, mel_bins, frames = train_x.shape
    if class_names is not None:
        n_classes = len(class_names)
    else:
        n_classes = int(max(train_y.max(), test_y.max())) + 1
    desc = cfg.model_description(mel_bins, frames, channels, n_classes, class_names)
    histories = []
    best_overall = (-1.0, None, None, None, None)  # acc, run index, state, report, graph
    for run in range(cfg.repeats):
        run_seed = cfg.seed + run
        graph = build_model(desc, seed=run_seed)
        graph.set_dropout_rng(philox_rng(run_seed, STREAM_DROPOUT))
        store = graph.param_store()
        history = RunHistory(run_seed=run_seed, test_accuracy={name: [] for name in graph.head_names()})
        best_state = best_report = None
        for epoch in range(cfg.epochs):
            order = epoch_rng(run_seed, epoch).permutation(train_x.shape[0])
            total_loss = 0.0
            n_batches = 0
            for lo in range(0, len(order), cfg.batch_size):
                idx = order[lo : lo + cfg.batch_size]
                logits = graph.forward(train_x[idx], train=True)
                losses, dlogits = multi_head_loss(logits, train_y[idx])
                loss = sum(losses.values())
                if not math.isfinite(loss):
                    bad = "NaN" if math.isnan(loss) else loss
                    heads = [name for name, value in losses.items() if not math.isfinite(value)]
                    named = f" (heads: {', '.join(heads)})" if heads else ""
                    raise RuntimeError(f"{bad} loss at run {run}, epoch {epoch}, batch {n_batches}{named}")
                store.zero_grad()
                graph.backward(dlogits)
                adam_step(store, lr=cfg.lr)
                total_loss += loss
                n_batches += 1
            history.epoch_loss.append(total_loss / n_batches)
            test_report = evaluate_model(graph, test_x, test_y)
            for name in graph.head_names():
                history.test_accuracy[name].append(test_report.accuracy[name])
            train_report = evaluate_model(graph, train_x, train_y)
            history.train_accuracy.append(train_report.accuracy["global"])
            if test_report.accuracy["global"] > history.best_accuracy:
                history.best_accuracy = test_report.accuracy["global"]
                history.best_epoch = epoch
                best_state, best_report = graph.state(), test_report
        histories.append(history)
        if history.best_accuracy > best_overall[0]:
            best_overall = (history.best_accuracy, run, best_state, best_report, graph)
    _, best_run, state, final_report, graph = best_overall
    graph.load_state(state)
    average_best = float(np.mean([h.best_accuracy for h in histories]))
    return TrainResult(
        graph=graph,
        best_run=best_run,
        histories=histories,
        average_best=average_best,
        final_report=final_report,
    )


def write_report_tsv(path, report: EvalReport) -> None:
    rows = [[name, report.accuracy[name], report.n_samples] for name in report.head_names]
    storage.write_table(path, rows, ["head", "accuracy", "n_samples"])


def write_curves_tsv(path, history: RunHistory) -> None:
    heads = list(history.test_accuracy)
    columns = [history.epoch_loss, history.train_accuracy, *(history.test_accuracy[h] for h in heads)]
    rows = [[epoch, *values] for epoch, values in enumerate(zip(*columns))]
    storage.write_table(path, rows, ["epoch", "loss", "train_acc_global", *(f"test_acc_{h}" for h in heads)])
