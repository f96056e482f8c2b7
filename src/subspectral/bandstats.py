"""Per-mel-bin activation statistics and histogram distance matrices.

Workflow: build per-class mean activation profiles from the normalized
training features, run one nearest-mean classifier per mel bin over the
test clips, collect per-class histograms of correctly classified bins,
then turn pairwise histogram distances into a confusion-style matrix via
max-normalize -> 1 - exp(-k*x) -> max-normalize -> 1 - x. Each split
comes in as one (N, C, F, T) array, and each metric's distances for all
class pairs are one array expression over the (classes, classes, bins)
broadcast of the histograms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import storage

METRICS = ("chisq", "kl", "hellinger")
KL_SMOOTHING = 1e-12


@dataclass
class ClassProfileSet:
    """Per-class mean activation over time (and channels): (n_classes, F)."""

    class_ids: list
    profiles: np.ndarray

    def __post_init__(self):
        self.profiles = np.asarray(self.profiles, dtype=np.float64)
        if self.profiles.ndim != 2 or self.profiles.shape[0] != len(self.class_ids):
            raise ValueError(f"profiles must be (n_classes, F), got {self.profiles.shape}")
        if not np.all(np.isfinite(self.profiles)):
            raise ValueError("profiles contain non-finite values")


@dataclass
class BinHistogramSet:
    """Per-class frequency of correct per-bin classification, max-normalized."""

    class_ids: list
    hist: np.ndarray

    def __post_init__(self):
        self.hist = np.asarray(self.hist, dtype=np.float64)
        if self.hist.ndim != 2 or self.hist.shape[0] != len(self.class_ids):
            raise ValueError(f"hist must be (n_classes, F), got {self.hist.shape}")
        if np.any(self.hist < 0) or np.any(self.hist > 1):
            raise ValueError("histogram values must lie in [0, 1]")


@dataclass
class DistanceMatrix:
    """Confusion-style similarity matrix after the full transform pipeline."""

    values: np.ndarray
    metric: str
    k: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        n = self.values.shape[0]
        if self.values.shape != (n, n):
            raise ValueError("matrix must be square")


def _check_stack(x: np.ndarray, labels: np.ndarray) -> None:
    if x.ndim != 4 or len(x) != len(labels):
        raise ValueError(f"need an (N, C, F, T) stack with one label per sample, got shape {x.shape} and {len(labels)} labels")


def class_mean_profiles(features, labels, class_ids) -> ClassProfileSet:
    """Mean activation per (class, bin) over an (N, C, F, T) stack.

    Each sample contributes its channel mean summed over frames; a class
    profile divides that by the class's total frame count.
    """
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    _check_stack(x, labels)
    n_classes = len(class_ids)
    sums = np.zeros((n_classes, x.shape[2]), dtype=np.float64)
    np.add.at(sums, labels, x.mean(axis=1).sum(axis=2))  # (N, F): channel mean, summed over frames
    frames = np.bincount(labels, minlength=n_classes) * x.shape[3]
    missing = [class_ids[c] for c in range(n_classes) if frames[c] == 0]
    if missing:
        raise ValueError(f"classes with zero samples: {missing}")
    return ClassProfileSet(class_ids=list(class_ids), profiles=sums / frames[:, None])


def per_bin_classify(test, profiles: ClassProfileSet) -> np.ndarray:
    """Nearest-mean prediction at every mel bin independently.

    test is one (C, F, T) clip or an (N, C, F, T) stack. Returns an int
    array of shape (F,) or (N, F): argmin over classes of the squared
    difference between the clip's temporal mean at that bin and the class
    profile. Ties break toward the lowest class index. A non-finite
    value in test or in the profiles is a ValueError: the float64 means
    of float32 features are non-finite exactly when a value they average is.
    """
    summary = np.asarray(test, dtype=np.float64).mean(axis=-1).mean(axis=-2)  # (..., F): channel mean
    if summary.shape[-1] != profiles.profiles.shape[1]:
        raise ValueError(f"clip has {summary.shape[-1]} bins, profiles have {profiles.profiles.shape[1]}")
    for what, values in (("test features", summary), ("class profiles", profiles.profiles)):
        if not np.isfinite(values).all():
            raise ValueError(f"{what} hold a non-finite value (NaN or inf)")
    sq = (profiles.profiles - summary[..., None, :]) ** 2  # (..., n_classes, F)
    return np.argmin(sq, axis=-2)


def bin_histograms(test_set, labels, profiles: ClassProfileSet) -> BinHistogramSet:
    """Per-class histogram of bins that classified the clip correctly.

    Counts, per class c and bin f, the test clips of class c whose bin-f
    prediction equals c, then scales each class row so its maximum is 1.
    """
    x = np.asarray(test_set)
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("empty test set")
    _check_stack(x, labels)
    n_classes = len(profiles.class_ids)
    preds = per_bin_classify(x, profiles)  # (N, F)
    counts = np.zeros((n_classes, profiles.profiles.shape[1]), dtype=np.float64)
    np.add.at(counts, labels, preds == labels[:, None])
    seen = np.bincount(labels, minlength=n_classes)
    missing = [profiles.class_ids[c] for c in range(n_classes) if seen[c] == 0]
    if missing:
        raise ValueError(f"classes absent from test set: {missing}")
    peak = counts.max(axis=1)
    normalized = np.divide(counts, peak[:, None], out=np.zeros_like(counts), where=peak[:, None] > 0)
    return BinHistogramSet(class_ids=list(profiles.class_ids), hist=normalized)


def pairwise_distances(hists: BinHistogramSet, metric: str) -> np.ndarray:
    """Distance between every two class histograms, as an (n, n) matrix.

    Each metric is one array expression over the (n, n, F) broadcast of
    the rows against each other; every term is exactly zero on the
    diagonal and exactly symmetric off it. chisq operates on the rows as
    given (0/0 bins contribute 0); hellinger and kl first scale each row
    to unit mass, and kl smooths with KL_SMOOTHING before taking logs.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; pick from {METRICS}")
    # C order keeps each (n, n, F) sum a pairwise sum along its own row
    h = np.ascontiguousarray(hists.hist)
    if metric == "chisq":
        p, q = h[:, None], h[None]
        num, denom = (p - q) ** 2, p + q
        return 0.5 * np.divide(num, denom, out=np.zeros_like(num), where=denom > 0).sum(axis=-1)
    total = h.sum(axis=1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("cannot mass-normalize an all-zero histogram")
    h = h / total
    if metric == "hellinger":
        root = np.sqrt(h)
        return np.sqrt(np.sum((root[:, None] - root[None]) ** 2, axis=-1)) / np.sqrt(2.0)
    h = h + KL_SMOOTHING
    h = h / h.sum(axis=1, keepdims=True)
    p, q = h[:, None], h[None]
    return 0.5 * (np.sum(p * np.log(p / q), axis=-1) + np.sum(q * np.log(q / p), axis=-1))


def confusion_like_matrix(hists: BinHistogramSet, metric: str = "chisq", k: float = 10.0) -> DistanceMatrix:
    """Distance matrix pushed through the confusion-resemblance pipeline.

    Steps: pairwise distances, divide by max, x -> 1 - exp(-k*x), divide
    by max, x -> 1 - x. Ends symmetric with unit diagonal and entries in
    [0, 1]; it reads as a similarity, so large off-diagonal values flag
    the most confusable class pairs.
    """
    if not (np.isfinite(k) and k > 0):
        raise ValueError(f"k must be finite and positive, got {k}")
    raw = pairwise_distances(hists, metric)
    peak = raw.max()
    if peak <= 0:
        raise ValueError("all pairwise distances are zero; need at least two distinct classes")
    x = raw / peak
    x = 1.0 - np.exp(-k * x)
    x = x / x.max()
    x = 1.0 - x
    return DistanceMatrix(values=x, metric=metric, k=k)


def _top_pair(similarity: np.ndarray) -> tuple[int, int]:
    values = np.array(similarity, dtype=np.float64)
    np.fill_diagonal(values, -np.inf)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    return (int(min(i, j)), int(max(i, j)))


def most_similar_pair(matrix: DistanceMatrix) -> tuple[int, int]:
    """Class index pair with the highest post-pipeline similarity."""
    return _top_pair(matrix.values)


def most_alike_profiles(profiles: ClassProfileSet) -> tuple[int, int]:
    """Class index pair whose mean activation profiles correlate most
    (Pearson correlation across mel bins): the pair of classes that
    activate the same bands."""
    return _top_pair(np.corrcoef(profiles.profiles))


def histogram_peak(hist_row) -> float:
    """Position of a histogram's maximum, in (fractional) bins.

    Histograms over few test clips take few distinct values, so several
    bins often tie for the maximum; the peak is then the median of the
    tied bins (halfway between the two middle ones for an even count),
    which, unlike np.argmax, favours neither end of the spectrum.
    """
    row = np.asarray(hist_row, dtype=np.float64)
    return float(np.median(np.flatnonzero(row == row.max())))


def write_histograms_tsv(path, hists: BinHistogramSet) -> None:
    """Combined table: one row per mel bin, one column per class."""
    storage.write_table(path, ([f, *column] for f, column in enumerate(hists.hist.T.tolist())), ["bin", *hists.class_ids])


def write_class_histogram_tsv(path, hists: BinHistogramSet, index: int) -> None:
    """Single-class histogram, one (bin, value) row per mel bin."""
    storage.write_table(path, enumerate(hists.hist[index].tolist()), ["bin", hists.class_ids[index]])
