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

Synthesis runs on two threads, one clip apart (the nn.functional module
docstring): _draw_clip on the calling thread, _shape_clip on a helper.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import AudioClip, save_wav
from .features import WINDOW_MS, check_sample_rate, hz_to_mel, mel_to_hz, window_samples
from .nn.functional import _run_at_once
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
        for e in self.entries:
            # a label names its analysis files (hist_<label>.tsv)
            if not e.path or not e.label or "/" in e.label:
                raise ValueError(f"manifest row {e.path!r}, {e.label!r}: needs a filename and a label without '/'")
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


def _draw_clip(rng: np.random.Generator, n: int, mel_band: tuple[float, float], mel_top: float, channels: int):
    """One clip's random draws, in stream order: the band edges in Hz
    (jittered on the mel scale), the white noise the band signal is
    shaped from, the broadband floor and the band signal's gain."""
    m_lo, m_hi = mel_band
    # jitter both band edges per clip (+-12.5% of the band width, on the
    # mel scale) so bins at the nominal edges are only sometimes excited;
    # the band core stays informative
    j_lo, j_hi = rng.uniform(-0.125, 0.125, 2) * (m_hi - m_lo)
    band = (
        float(mel_to_hz(min(max(m_lo + j_lo, 0.0), mel_top))),
        float(mel_to_hz(min(max(m_hi + j_hi, 0.0), mel_top))),
    )
    white = rng.standard_normal((channels, n))
    # broadband floor 10 dB below the band signal's total power, which
    # leaves in-band mel bins 3-7 nats (13-29 dB) above it at unit gain:
    # loud enough to swamp the STFT window's sidelobe leakage, so a
    # class's mean log-mel two or more bins outside its band stays within
    # ~0.15 nats of a floor-only clip instead of carrying class information
    floor = rng.standard_normal((channels, n))
    floor *= 3e-2
    # per-clip loudness jitter (+-6 dB, +-1.39 nats of log power) on the
    # band signal only: scaling the floor too would give every
    # out-of-band bin of a clip a shared loudness cue
    gain = np.exp(rng.uniform(np.log(0.5), np.log(2.0)))
    return band, white, floor, gain


def _shape_clip(band: tuple[float, float], white: np.ndarray, floor: np.ndarray, gain, freqs: np.ndarray, spectrum: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """The clip's samples from its draws, deterministic: white noise kept
    to the band [lo, hi) Hz of the rfft bin frequencies freqs, scaled to
    0.1 rms per channel, times gain, plus the floor, clipped to +-0.99.
    Written over white's buffer and returned; spectrum and squares are
    scratch arrays of the rfft's and white's shapes."""
    np.fft.rfft(white, axis=1, out=spectrum)
    spectrum *= (freqs >= band[0]) & (freqs < band[1])
    shaped = np.fft.irfft(spectrum, n=white.shape[1], axis=1, out=white)
    rms = np.sqrt(np.mean(np.square(shaped, out=squares), axis=1, keepdims=True))
    live = rms > 0
    np.divide(shaped, rms, out=shaped, where=live)
    shaped[~live[:, 0]] = 0.0  # a band with no bins: silence under the floor
    shaped *= 0.1
    shaped *= gain
    shaped += floor
    return np.clip(shaped, -0.99, 0.99, out=shaped)


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
    to 51.2 kHz), seconds at least its 40 ms window, and channels 1 or
    2. Deterministic for a fixed seed, down to the bytes. Writes
    manifest.tsv and fixture.json (band metadata) into out_dir, the
    manifest only once every clip is written.
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
    if channels not in (1, 2):
        raise ValueError(f"channels must be 1 (mono) or 2 (stereo), got {channels!r}")
    out_dir = Path(out_dir)
    (out_dir / "audio").mkdir(parents=True, exist_ok=True)
    bands = fixture_bands(classes, sample_rate / 2.0, overlap_pair)
    mel_top = float(hz_to_mel(sample_rate / 2.0))
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    # the helper's full-size scratch, allocated once on this thread: what a
    # helper thread frees stays in its own malloc arena, unused by the
    # stages after synthesis (10 MB more peak RSS in a 10 s stereo run)
    spectrum, squares = np.empty((channels, freqs.size), np.complex128), np.empty((channels, n))
    rng = philox_rng(seed, STREAM_SYNTH)
    names = [f"band{c:02d}" for c in range(classes)]
    mel_bands = [(float(hz_to_mel(lo)), float(hz_to_mel(hi))) for lo, hi in bands]
    clips = [(c, i) for c in range(classes) for i in range(per_class)]
    entries = [
        ManifestEntry(path=f"audio/{names[c]}-{i:03d}.wav", label=names[c], split="test" if i >= per_class - test_per_class else "train")
        for c, i in clips
    ]
    drawn = {}

    def draw(k):
        drawn[k] = _draw_clip(rng, n, mel_bands[clips[k][0]], mel_top, channels)

    def write(k):
        samples = _shape_clip(*drawn.pop(k), freqs, spectrum, squares)
        save_wav(out_dir / entries[k].path, AudioClip(samples=samples, sample_rate=sample_rate), bits=16)

    # the calling thread draws clip k + 1, in stream order, while one
    # helper shapes and writes clip k
    draw(0)
    for k in range(len(clips)):
        steps = [(draw, k + 1)] if k + 1 < len(clips) else []
        _run_at_once(lambda step, k: step(k), steps + [(write, k)])
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
