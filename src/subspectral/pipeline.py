"""End-to-end stages: manifest -> features on disk -> band statistics.

Each split's features are one (N, C, F, T) float32 array from extraction
through storage to the band statistics. Normalization statistics come
from the training split only and are persisted next to the feature
containers.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from . import bandstats, storage
from .audio import load_wav, to_mono
from .data import DatasetManifest
from .features import apply_normalizer, fit_normalizer, log_mel_spectrogram, mel_filterbank

TRAIN_FILE = "train.ssnf"
TEST_FILE = "test.ssnf"
NORMALIZER_FILE = "normalizer.bin"
LABELS_FILE = "labels.tsv"


def extract_split(
    manifest: DatasetManifest,
    split: str,
    audio_root,
    mel_bins: int,
    channels: str = "stereo",
    sample_rate: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Extract one split's raw (unnormalized) features as an (N, C, F, T)
    float32 stack, with its uint32 label ids and the split's sample rate.

    Every clip must have sample_rate (default: the first clip's), so one
    filterbank serves the split, and give the first clip's (C, F, T)
    shape; the error for a clip that does not, or that the frontend
    rejects, names its path.
    """
    root = Path(audio_root)
    filterbank = None
    specs = []
    labels = []
    for entry in manifest.split_entries(split):
        clip_path = root / entry.path
        if not clip_path.exists():
            raise FileNotFoundError(f"clip listed in manifest not found: {clip_path}")
        clip = load_wav(clip_path)
        if sample_rate is None:
            sample_rate = clip.sample_rate
        if clip.sample_rate != sample_rate:
            raise ValueError(f"{clip_path}: sample rate {clip.sample_rate} Hz differs from the dataset's {sample_rate} Hz")
        if channels == "mono":
            clip = to_mono(clip)
        try:
            if filterbank is None:
                filterbank = mel_filterbank(mel_bins, sample_rate)
            spec = log_mel_spectrogram(clip, filterbank)
        except ValueError as exc:
            raise ValueError(f"{clip_path}: {exc}") from None
        if specs and spec.shape != specs[0].shape:
            raise ValueError(f"{clip_path}: spectrogram shape {spec.shape} differs from the first clip's {specs[0].shape}")
        specs.append(spec)
        labels.append(manifest.label_id(entry.label))
    if not specs:
        raise ValueError(f"manifest has no entries for split {split!r}")
    # np.stack keeps the spectrograms' memory layout, on which the summation
    # order, and so the bits, of fit_normalizer's float64 statistics depend
    return np.stack(specs), np.asarray(labels, dtype=np.uint32), sample_rate


def extract_dataset(
    manifest: DatasetManifest,
    audio_root,
    out_dir,
    *,
    mel_bins: int = 40,
    channels: str = "stereo",
) -> dict:
    """Extract both splits, fit the train normalizer, write containers.

    All clips must share the first train clip's sample rate. Produces
    train.ssnf / test.ssnf (normalized features), normalizer.bin and
    labels.tsv inside out_dir. Returns a summary dict.
    """
    train_raw, train_labels, sample_rate = extract_split(manifest, "train", audio_root, mel_bins, channels)
    test_raw, test_labels, _ = extract_split(manifest, "test", audio_root, mel_bins, channels, sample_rate)
    norm = fit_normalizer(train_raw)
    train_x = apply_normalizer(train_raw, norm)
    test_x = apply_normalizer(test_raw, norm)
    # made only now, so a failed extraction leaves no empty directory
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    storage.write_features(out_dir / TRAIN_FILE, train_x, train_labels)
    storage.write_features(out_dir / TEST_FILE, test_x, test_labels)
    storage.write_normalizer(out_dir / NORMALIZER_FILE, norm)
    storage.write_class_names(out_dir / LABELS_FILE, manifest.class_names)
    return {
        "train_samples": len(train_x),
        "test_samples": len(test_x),
        "shape": tuple(train_x.shape[1:]),
        "class_names": manifest.class_names,
    }


def load_feature_dir(features_dir) -> dict:
    """Read back the features and class names that extract_dataset wrote;
    both splits must share one (C, F, T) sample shape, and every label
    must be a class id of labels.tsv."""
    features_dir = Path(features_dir)
    train_x, train_y = storage.read_features(features_dir / TRAIN_FILE)
    test_x, test_y = storage.read_features(features_dir / TEST_FILE)
    if test_x.shape[1:] != train_x.shape[1:]:
        shape, train_shape = ("x".join(map(str, x.shape[1:])) for x in (test_x, train_x))
        raise storage.ContainerError(f"{features_dir / TEST_FILE}: {shape} samples differ from the {train_shape} samples of {TRAIN_FILE}")
    class_names = storage.read_class_names(features_dir / LABELS_FILE)
    storage.check_labels(features_dir / TRAIN_FILE, train_y, len(class_names), LABELS_FILE)
    storage.check_labels(features_dir / TEST_FILE, test_y, len(class_names), LABELS_FILE)
    return {
        "train_x": train_x,
        "train_y": train_y.astype(np.int64),
        "test_x": test_x,
        "test_y": test_y.astype(np.int64),
        "class_names": class_names,
    }


def analyze_dataset(features_dir, out_dir, *, k: float = 10.0) -> dict:
    """Band-activation analysis over extracted features.

    Builds class profiles from the train split, per-bin classification
    histograms from the test split, and writes the combined histogram
    table, one histogram file per class, and the transformed distance
    matrix for each metric; it writes nothing, out_dir included, unless
    every step before the writes succeeds, and a failed write removes
    out_dir again if this call made it. Returns the in-memory artifacts.
    """
    data = load_feature_dir(features_dir)
    class_names = data["class_names"]
    profiles = bandstats.class_mean_profiles(data["train_x"], data["train_y"], class_names)
    hists = bandstats.bin_histograms(data["test_x"], data["test_y"], profiles)
    matrices = {metric: bandstats.confusion_like_matrix(hists, metric, k) for metric in bandstats.METRICS}
    # made only now, so a failed analysis leaves no directory and no file;
    # a file name the file system refuses (a class name too long, or
    # holding a NUL) fails after the first writes. Not staged elsewhere
    # and renamed: on a rerun into an existing directory, renaming each
    # file over its old copy made analyze_s 25 % slower at corpus-10s.
    out_dir = Path(out_dir)
    made = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        bandstats.write_histograms_tsv(out_dir / "histograms.tsv", hists)
        for idx, name in enumerate(class_names):
            bandstats.write_class_histogram_tsv(out_dir / f"hist_{name}.tsv", hists, idx)
        for metric, matrix in matrices.items():
            storage.write_class_matrix(out_dir / f"matrix_{metric}.tsv", matrix.values, class_names)
    except (OSError, ValueError):
        if made:
            shutil.rmtree(out_dir, ignore_errors=True)
        raise
    return {"profiles": profiles, "histograms": hists, "matrices": matrices}
