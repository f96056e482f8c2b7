"""End-to-end stages: manifest -> features on disk -> band statistics.

Each split's features are one (N, C, F, T) float32 array from extraction
through storage to the band statistics. Normalization statistics come
from the training split only and are persisted next to the feature
containers.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import bandstats, storage
from .audio import load_wav, to_mono
from .data import DatasetManifest
from .features import MelConfig, StftConfig, apply_normalizer, fit_normalizer, log_mel_spectrogram

TRAIN_FILE = "train.ssnf"
TEST_FILE = "test.ssnf"
NORMALIZER_FILE = "normalizer.bin"
LABELS_FILE = "labels.tsv"


def extract_split(
    manifest: DatasetManifest,
    split: str,
    audio_root,
    stft: StftConfig,
    mel: MelConfig,
    channels: str = "stereo",
    target_frames: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Extract one split's raw (unnormalized) features as an (N, C, F, T)
    float32 stack, with its uint32 label ids.

    Every clip must give the first clip's (C, F, T) shape; the error for
    one that does not names its path.
    """
    root = Path(audio_root)
    specs = []
    labels = []
    for entry in manifest.split_entries(split):
        clip_path = root / entry.path
        if not clip_path.exists():
            raise FileNotFoundError(f"clip listed in manifest not found: {clip_path}")
        clip = load_wav(clip_path)
        if channels == "mono":
            clip = to_mono(clip)
        spec = log_mel_spectrogram(clip, stft, mel, target_frames)
        if specs and spec.shape != specs[0].shape:
            raise ValueError(f"{clip_path}: spectrogram shape {spec.shape} differs from the first clip's {specs[0].shape}")
        specs.append(spec)
        labels.append(manifest.label_id(entry.label))
    if not specs:
        raise ValueError(f"manifest has no entries for split {split!r}")
    # np.stack keeps the spectrograms' memory layout, on which the summation
    # order, and so the bits, of fit_normalizer's float64 statistics depend
    return np.stack(specs), np.asarray(labels, dtype=np.uint32)


def extract_dataset(
    manifest: DatasetManifest,
    audio_root,
    out_dir,
    *,
    mel_bins: int = 40,
    channels: str = "stereo",
    f_min: float = 0.0,
    f_max: float | None = None,
    stft: StftConfig | None = None,
    target_frames: int | None = None,
) -> dict:
    """Extract both splits, fit the train normalizer, write containers.

    Produces train.ssnf / test.ssnf (normalized features), normalizer.bin
    and labels.tsv inside out_dir. Returns a summary dict.
    """
    stft = stft or StftConfig()
    mel = MelConfig(n_mels=mel_bins, f_min=f_min, f_max=f_max)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    train_raw, train_labels = extract_split(manifest, "train", audio_root, stft, mel, channels, target_frames)
    test_raw, test_labels = extract_split(manifest, "test", audio_root, stft, mel, channels, target_frames)
    norm = fit_normalizer(train_raw)
    train_x = apply_normalizer(train_raw, norm)
    test_x = apply_normalizer(test_raw, norm)
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
    """Read back the features and class names that extract_dataset wrote."""
    features_dir = Path(features_dir)
    train_x, train_y = storage.read_features(features_dir / TRAIN_FILE)
    test_x, test_y = storage.read_features(features_dir / TEST_FILE)
    class_names = storage.read_class_names(features_dir / LABELS_FILE)
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
    matrix for each metric. Returns the in-memory artifacts.
    """
    data = load_feature_dir(features_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    class_names = data["class_names"]
    profiles = bandstats.class_mean_profiles(data["train_x"], data["train_y"], class_names)
    hists = bandstats.bin_histograms(data["test_x"], data["test_y"], profiles)
    bandstats.write_histograms_tsv(out_dir / "histograms.tsv", hists)
    for idx, name in enumerate(class_names):
        bandstats.write_class_histogram_tsv(out_dir / f"hist_{name}.tsv", hists, idx)
    matrices = {}
    for metric in bandstats.METRICS:
        matrix = bandstats.confusion_like_matrix(hists, metric, k)
        matrices[metric] = matrix
        bandstats.write_matrix_tsv(out_dir / f"matrix_{metric}.tsv", matrix, class_names)
    return {"profiles": profiles, "histograms": hists, "matrices": matrices}
