#!/usr/bin/env python3
"""From a WAV file to a normalized log mel-energy spectrogram.

Builds a tiny synthetic corpus, walks one clip through the frontend, and
shows that bin-wise normalization standardizes the training split.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

import numpy as np

from subspectral.audio import load_wav
from subspectral.data import synth_fixture
from subspectral.features import (
    MelConfig,
    apply_normalizer,
    fit_normalizer,
    log_mel_spectrogram,
)

work = Path(tempfile.mkdtemp(prefix="subspectral_demo_"))
atexit.register(shutil.rmtree, work)
print(f"working under {work} (removed at exit)\n")

# Three classes of band-limited noise, one second each, stereo 48 kHz.
manifest = synth_fixture(3, 3, work, seconds=1.0, seed=1)
print(f"synthesized {len(manifest.entries)} clips, classes: {manifest.class_names}")

clip = load_wav(work / manifest.entries[0].path)
print(f"\nfirst clip: {clip.channels} channels x {clip.n_samples} samples @ {clip.sample_rate} Hz")

# 40 mel bins; 1 s at a 20 ms hop gives 50 frames.
mel = MelConfig(n_mels=40)
spec = log_mel_spectrogram(clip, mel=mel)
print(f"log-mel spectrogram: channels x bins x frames = {spec.data.shape}")
print(f"value range: [{spec.data.min():.1f}, {spec.data.max():.1f}] (natural log of mel energy)")

# Fit normalization statistics on the train split only.
train = [log_mel_spectrogram(load_wav(work / e.path), mel=mel) for e in manifest.split_entries("train")]
norm = fit_normalizer(train)
print(f"\nnormalizer: per-(channel, bin) mean/std, shape {norm.mean.shape}")

normalized = np.concatenate([apply_normalizer(s, norm).data for s in train], axis=2)
print(f"after normalization the fitting set has per-bin mean ~ {normalized.mean():.2e} and std ~ {normalized.std():.4f}")

# Which mel bins does each class excite? The band structure is visible
# directly in the per-class mean activation.
for label in manifest.class_names:
    clips = [e for e in manifest.split_entries("train") if e.label == label]
    specs = [apply_normalizer(log_mel_spectrogram(load_wav(work / e.path), mel=mel), norm) for e in clips]
    mean_act = np.mean([s.data.mean(axis=(0, 2)) for s in specs], axis=0)
    top = np.argsort(mean_act)[-5:]
    print(f"class {label}: most active mel bins {sorted(top.tolist())}")
