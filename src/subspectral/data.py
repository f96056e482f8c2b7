"""Dataset manifests and the synthetic band-limited fixture generator.

The fixture stands in for a real scene-classification corpus at desk
scale: each class is noise confined to its own mel-frequency band over a
broadband floor that is the same for every class, so band-level analyses
and the split-band models have known structure to find, and only in-band
bins carry class information. The last two classes ("twins") share 40%
of their band, each keeping a unique region, which makes their mean
activation profiles the most alike pair of classes. The per-bin
histogram matrices of bandstats do not single the twins out at desk
sizes: with a few test clips per class, chance hits in out-of-band bins
carry about as much mass as the in-band bins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import AudioClip, save_wav
from .features import WINDOW_MS, check_sample_rate, hz_to_mel, mel_to_hz, window_samples
from .seeding import STREAM_SYNTH, philox_rng
from .storage import write_table

SPLITS = ("train", "test")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    split: str


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    class_names: list[str]

    def __post_init__(self):
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            dupes = sorted({p for p in paths if paths.count(p) > 1})
            raise ValueError(f"duplicate clip paths in manifest: {dupes[:5]}")
        unknown = sorted({e.label for e in self.entries} - set(self.class_names))
        if unknown:
            raise ValueError(f"labels outside class_names: {unknown}")

    def label_id(self, label: str) -> int:
        return self.class_names.index(label)

    def split_entries(self, split: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == split]


def _read_rows(path) -> list[list[str]]:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            rows.append(line.split("\t"))
    if rows and rows[0] and rows[0][0].strip().lower() == "filename":
        rows = rows[1:]
    return rows


def parse_manifest(path, default_split: str = "train") -> DatasetManifest:
    """Read a TSV manifest: filename, scene_label, optional split column.

    A header row starting with 'filename' is skipped. Class ids follow
    the lexicographic order of the labels.
    """
    entries = []
    for row in _read_rows(path):
        if len(row) < 2:
            raise ValueError(f"{path}: row {row!r} needs at least filename and label")
        split = row[2].strip() if len(row) > 2 and row[2].strip() else default_split
        if split == "evaluate":
            split = "test"
        if split not in SPLITS:
            raise ValueError(f"{path}: unknown split {split!r}")
        entries.append(ManifestEntry(path=row[0].strip(), label=row[1].strip(), split=split))
    return DatasetManifest(entries=entries, class_names=sorted({e.label for e in entries}))


def parse_manifest_pair(train_path, test_path) -> DatasetManifest:
    """Merge separate train/test listing files into one manifest."""
    entries = parse_manifest(train_path, "train").entries + parse_manifest(test_path, "test").entries
    return DatasetManifest(entries=entries, class_names=sorted({e.label for e in entries}))


def write_manifest(path, manifest: DatasetManifest) -> None:
    write_table(path, ([e.path, e.label, e.split] for e in manifest.entries), ["filename", "scene_label", "split"])


def fixture_bands(classes: int, f_max: float, overlap_pair: bool = True) -> list[tuple[float, float]]:
    """Per-class frequency bands (Hz), equal widths on the mel scale.

    With overlap_pair, the last two classes share the top two slots
    instead of taking one each: each twin spans 1.25 slots, the middle
    half slot is common to both (40% of each twin's band), and each keeps
    a unique 0.75-slot region.
    """
    edges_mel = np.linspace(hz_to_mel(0.0), hz_to_mel(f_max), classes + 1)
    bands = [(float(mel_to_hz(edges_mel[c])), float(mel_to_hz(edges_mel[c + 1]))) for c in range(classes)]
    if overlap_pair and classes >= 2:
        lo_mel = edges_mel[classes - 2]
        width = edges_mel[classes] - lo_mel  # two slots
        bands[classes - 2] = (float(mel_to_hz(lo_mel)), float(mel_to_hz(lo_mel + 0.625 * width)))
        bands[classes - 1] = (float(mel_to_hz(lo_mel + 0.375 * width)), float(mel_to_hz(edges_mel[classes])))
    return bands


def _band_noise(rng: np.random.Generator, n: int, sr: int, band: tuple[float, float], channels: int) -> np.ndarray:
    white = rng.standard_normal((channels, n))
    spectrum = np.fft.rfft(white, axis=1)
    freqs = np.fft.rfftfreq(n, d=1.0 / sr)
    spectrum *= (freqs >= band[0]) & (freqs < band[1])
    shaped = np.fft.irfft(spectrum, n=n, axis=1)
    rms = np.sqrt(np.mean(shaped**2, axis=1, keepdims=True))
    shaped = np.divide(shaped, rms, out=np.zeros_like(shaped), where=rms > 0) * 0.1
    # broadband floor 10 dB below the band signal's total power, which
    # leaves in-band mel bins 3-7 nats (13-29 dB) above it at unit gain:
    # loud enough to swamp the STFT window's sidelobe leakage, so a
    # class's mean log-mel two or more bins outside its band stays within
    # ~0.15 nats of a floor-only clip instead of carrying class information
    floor = rng.standard_normal((channels, n)) * 3e-2
    # per-clip loudness jitter (+-6 dB, +-1.39 nats of log power) on the
    # band signal only: scaling the floor too would give every
    # out-of-band bin of a clip a shared loudness cue
    gain = np.exp(rng.uniform(np.log(0.5), np.log(2.0)))
    return np.clip(gain * shaped + floor, -0.99, 0.99)


def synth_fixture(
    classes: int,
    per_class: int,
    out_dir,
    *,
    test_per_class: int | None = None,
    seconds: float = 10.0,
    sample_rate: int = 48000,
    channels: int = 2,
    seed: int = 0,
    overlap_pair: bool = True,
) -> DatasetManifest:
    """Generate WAV clips of band-limited noise plus a manifest.

    per_class counts clips per class in total; the trailing
    test_per_class of them (default max(1, per_class // 4)) land in the
    test split. sample_rate must be one the feature frontend takes (up
    to 51.2 kHz), and seconds at least its 40 ms window. Deterministic
    for a fixed seed, down to the bytes. Writes manifest.tsv and
    fixture.json (band metadata) into out_dir.
    """
    if not 1 <= classes <= 10:
        raise ValueError("classes must be in 1..10")
    check_sample_rate(sample_rate)  # extract rejects the clips of any other rate
    if not np.isfinite(seconds):
        raise ValueError(f"clip length must be finite, got {seconds} s")
    n, win = int(round(seconds * sample_rate)), window_samples(sample_rate)
    if n < win:  # nor a clip shorter than one window
        raise ValueError(f"{seconds:g} s clips of {n} samples are shorter than one {WINDOW_MS:g} ms window of {win} samples at {sample_rate} Hz")
    if test_per_class is None:
        test_per_class = max(1, per_class // 4)
    if not 0 < test_per_class < per_class:
        raise ValueError(f"need 0 < test_per_class ({test_per_class}) < per_class ({per_class})")
    out_dir = Path(out_dir)
    (out_dir / "audio").mkdir(parents=True, exist_ok=True)
    bands = fixture_bands(classes, sample_rate / 2.0, overlap_pair)
    mel_top = float(hz_to_mel(sample_rate / 2.0))
    rng = philox_rng(seed, STREAM_SYNTH)
    entries = []
    names = [f"band{c:02d}" for c in range(classes)]
    for c in range(classes):
        m_lo, m_hi = float(hz_to_mel(bands[c][0])), float(hz_to_mel(bands[c][1]))
        width = m_hi - m_lo
        for i in range(per_class):
            # jitter both band edges per clip (+-12.5% of the band width,
            # on the mel scale) so bins at the nominal edges are only
            # sometimes excited; the band core stays informative
            j_lo, j_hi = rng.uniform(-0.125, 0.125, 2) * width
            clip_band = (
                float(mel_to_hz(min(max(m_lo + j_lo, 0.0), mel_top))),
                float(mel_to_hz(min(max(m_hi + j_hi, 0.0), mel_top))),
            )
            samples = _band_noise(rng, n, sample_rate, clip_band, channels)
            rel = f"audio/{names[c]}-{i:03d}.wav"
            save_wav(out_dir / rel, AudioClip(samples=samples, sample_rate=sample_rate), bits=16)
            split = "test" if i >= per_class - test_per_class else "train"
            entries.append(ManifestEntry(path=rel, label=names[c], split=split))
    manifest = DatasetManifest(entries=entries, class_names=names)
    write_manifest(out_dir / "manifest.tsv", manifest)
    meta = {
        "classes": classes,
        "per_class": per_class,
        "test_per_class": test_per_class,
        "seconds": seconds,
        "sample_rate": sample_rate,
        "channels": channels,
        "seed": seed,
        "bands_hz": {names[c]: list(bands[c]) for c in range(classes)},
    }
    (out_dir / "fixture.json").write_text(json.dumps(meta, indent=2))
    return manifest
