"""Log mel-energy spectrograms and bin-wise normalization.

Feature recipe: 2048-point STFT over 40 ms Hamming windows hopped by
20 ms, power spectrum, triangular Slaney-style mel filterbank with area
normalization, natural log with a 1e-10 floor. All constants live here so
an alternative frontend can be configured to match.

Features are plain float32 arrays: one clip is (C, F, T), a split is one
stacked (N, C, F, T) array, and the normalizer is fitted on and applied
to that stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_FLOOR = 1e-10
STD_FLOOR = 1e-8

# Slaney mel scale: linear below 1 kHz, logarithmic above.
_MEL_BREAK_HZ = 1000.0
_MEL_PER_HZ = 3.0 / 200.0
_MEL_BREAK = _MEL_BREAK_HZ * _MEL_PER_HZ
_LOG_STEP = math.log(6.4) / 27.0


def hz_to_mel(freq_hz):
    f = np.asarray(freq_hz, dtype=np.float64)
    mel = f * _MEL_PER_HZ
    above = f >= _MEL_BREAK_HZ
    if np.any(above):
        mel = np.where(above, _MEL_BREAK + np.log(np.maximum(f, _MEL_BREAK_HZ) / _MEL_BREAK_HZ) / _LOG_STEP, mel)
    return mel


def mel_to_hz(mel):
    m = np.asarray(mel, dtype=np.float64)
    f = m / _MEL_PER_HZ
    above = m >= _MEL_BREAK
    if np.any(above):
        f = np.where(above, _MEL_BREAK_HZ * np.exp(_LOG_STEP * (m - _MEL_BREAK)), f)
    return f


@dataclass(frozen=True)
class StftConfig:
    """Short-time Fourier transform parameters (defaults match the
    feature recipe above)."""

    fft_size: int = 2048
    window_ms: float = 40.0
    hop_ms: float = 20.0

    def __post_init__(self):
        if self.fft_size < 1:
            raise ValueError("fft_size must be >= 1")
        if not 0 < self.hop_ms < self.window_ms:
            raise ValueError(f"hop_ms must satisfy 0 < hop ({self.hop_ms}) < window ({self.window_ms})")

    def window_samples(self, sample_rate: int) -> int:
        return int(round(self.window_ms * sample_rate / 1000.0))

    def hop_samples(self, sample_rate: int) -> int:
        return int(round(self.hop_ms * sample_rate / 1000.0))

    def window(self, sample_rate: int) -> np.ndarray:
        # periodic (DFT-even) Hamming window
        n = self.window_samples(sample_rate)
        t = 2.0 * np.pi * np.arange(n) / n
        return 0.54 - 0.46 * np.cos(t)


@dataclass(frozen=True)
class MelConfig:
    """Mel filterbank parameters; f_max=None means Nyquist."""

    n_mels: int = 40
    f_min: float = 0.0
    f_max: float | None = None

    def __post_init__(self):
        if self.n_mels < 1:
            raise ValueError("n_mels must be >= 1")
        if self.f_max is not None and not self.f_min < self.f_max:
            raise ValueError(f"need f_min < f_max, got [{self.f_min}, {self.f_max}]")

    def resolved_f_max(self, sample_rate: int) -> float:
        nyquist = sample_rate / 2.0
        if self.f_max is None:
            return nyquist
        if self.f_max > nyquist:
            raise ValueError(f"f_max {self.f_max} above Nyquist {nyquist}")
        return self.f_max


@dataclass
class BinNormalizer:
    """Per-(channel, mel-bin) standardization statistics, float64."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 2:
            raise ValueError("mean/std must both be (C, F)")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("mean entries must be finite")
        if not np.all((self.std > 0) & np.isfinite(self.std)):
            raise ValueError("std entries must be finite and positive")


def mel_edge_frequencies(mel: MelConfig, sample_rate: int) -> np.ndarray:
    """n_mels + 2 filter edge frequencies in Hz, evenly spaced in mel."""
    lo = hz_to_mel(mel.f_min)
    hi = hz_to_mel(mel.resolved_f_max(sample_rate))
    return mel_to_hz(np.linspace(lo, hi, mel.n_mels + 2))


def mel_filterbank(mel: MelConfig, stft: StftConfig, sample_rate: int) -> np.ndarray:
    """Triangular area-normalized filterbank, (n_mels, fft_size//2 + 1)."""
    edges = mel_edge_frequencies(mel, sample_rate)
    fft_freqs = np.arange(stft.fft_size // 2 + 1) * (sample_rate / stft.fft_size)
    lower = edges[:-2, None]
    center = edges[1:-1, None]
    upper = edges[2:, None]
    rising = (fft_freqs[None, :] - lower) / (center - lower)
    falling = (upper - fft_freqs[None, :]) / (upper - center)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    weights *= (2.0 / (upper - lower))  # unit-area triangles
    return weights


def frame_count(n_samples: int, hop: int) -> int:
    """Raw frame count under center padding: 1 + ceil(n/hop)."""
    return 1 + math.ceil(n_samples / hop)


def default_frame_target(n_samples: int, hop: int) -> int:
    """Frames kept after trailing-crop: n // hop (500 for 10 s at 48 kHz)."""
    return n_samples // hop


def _frame_channel(x: np.ndarray, win: int, hop: int) -> np.ndarray:
    n_raw = frame_count(len(x), hop)
    last_center = (n_raw - 1) * hop
    pad_left = win // 2
    pad_right = last_center + (win - win // 2) - len(x)
    padded = np.pad(x, (pad_left, pad_right), mode="reflect")
    view = np.lib.stride_tricks.sliding_window_view(padded, win)
    return view[:: hop][:n_raw]


def log_mel_spectrogram(
    clip,
    stft: StftConfig = StftConfig(),
    mel: MelConfig = MelConfig(),
    target_frames: int | None = None,
) -> np.ndarray:
    """Extract a (C, F, T) float32 log mel-energy spectrogram from an AudioClip.

    Frames are centered at multiples of the hop (reflect padding), giving
    1 + ceil(n/hop) raw frames; trailing frames are cropped to
    target_frames (default n // hop). Deterministic for fixed input.
    """
    sr = clip.sample_rate
    win = stft.window_samples(sr)
    hop = stft.hop_samples(sr)
    if win < 1 or hop < 1:
        raise ValueError(f"window/hop too short for sample rate {sr}")
    if win > stft.fft_size:
        raise ValueError(f"window of {win} samples exceeds fft_size {stft.fft_size}")
    if clip.n_samples == 0:
        raise ValueError("empty clip")
    if clip.n_samples < win:
        raise ValueError(f"clip of {clip.n_samples} samples shorter than one {win}-sample window")
    if np.isnan(clip.samples).any():
        raise ValueError("clip contains NaN samples")

    if target_frames is None:
        target_frames = default_frame_target(clip.n_samples, hop)
    n_raw = frame_count(clip.n_samples, hop)
    if n_raw < target_frames:
        raise ValueError(f"clip yields {n_raw} frames, fewer than requested {target_frames}")

    window = stft.window(sr)
    filterbank = mel_filterbank(mel, stft, sr)
    channels = []
    for ch in clip.samples:
        frames = _frame_channel(ch, win, hop)[:target_frames]
        spectrum = np.fft.rfft(frames * window, n=stft.fft_size, axis=1)
        power = np.abs(spectrum) ** 2
        energies = power @ filterbank.T  # (T, F)
        channels.append(np.log(energies + LOG_FLOOR).T)
    spec = np.stack(channels, axis=0).astype(np.float32)
    if not np.all(np.isfinite(spec)):
        raise ValueError("spectrogram contains non-finite values")
    return spec


def fit_normalizer(x: np.ndarray) -> BinNormalizer:
    """Per-(channel, bin) mean/std over all frames of an (N, C, F, T) stack.

    Population statistics, accumulated in float64 in two passes so the
    result is independent of sample order; std floored at 1e-8.
    """
    if x.ndim != 4 or x.shape[0] == 0:
        raise ValueError(f"need a non-empty (N, C, F, T) stack, got shape {x.shape}")
    n_frames = x.shape[0] * x.shape[3]
    mean = x.sum(axis=3, dtype=np.float64).sum(axis=0) / n_frames
    sq = np.zeros_like(mean)
    # clip by clip: one 4-D einsum sums in another order and changes the std bits
    for clip in x:
        d = clip.astype(np.float64) - mean[:, :, None]
        sq += np.einsum("cft,cft->cf", d, d)
    std = np.sqrt(sq / n_frames)
    return BinNormalizer(mean=mean, std=np.maximum(std, STD_FLOOR))


def apply_normalizer(x: np.ndarray, norm: BinNormalizer) -> np.ndarray:
    """Standardize per (channel, bin): (x - mean) / std, as float32.

    x is any array whose last three axes are (C, F, T): one clip or a stack.
    """
    if x.shape[-3:-1] != norm.mean.shape:
        raise ValueError(f"normalizer shape {norm.mean.shape} does not match features {x.shape}")
    out = x.astype(np.float64)
    out -= norm.mean[:, :, None]
    out /= norm.std[:, :, None]
    out = out.astype(np.float32)
    if not np.all(np.isfinite(out)):
        raise ValueError("normalized features contain non-finite values")
    return out
