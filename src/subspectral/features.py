"""Log mel-energy spectrograms and bin-wise normalization.

One fixed recipe: 2048-point STFT over 40 ms Hamming windows hopped by
20 ms, power spectrum, triangular Slaney-style area-normalized mel
filterbank from 0 Hz to Nyquist, natural log with a 1e-10 floor; only
the mel count varies. Rates above 51.2 kHz (a 40 ms window longer than
the FFT) and mel counts with a filter that covers no FFT bin are rejected.

Features are plain float32 arrays: one clip is (C, F, T), a split is one
stacked (N, C, F, T) array, and the normalizer is fitted on and applied
to that stack.

Threads: the frontend splits by channel under the rule in the
nn.functional module docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn.functional import _in_parts

FFT_SIZE = 2048
WINDOW_MS = 40.0
HOP_MS = 20.0
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


def window_samples(sample_rate: int) -> int:
    return int(round(WINDOW_MS * sample_rate / 1000.0))


def hop_samples(sample_rate: int) -> int:
    return int(round(HOP_MS * sample_rate / 1000.0))


def check_sample_rate(sample_rate: int) -> None:
    """Raise ValueError unless the window and hop at sample_rate are at
    least one sample and the window fits the FFT (up to 51.2 kHz)."""
    win = window_samples(sample_rate)
    if win < 1 or hop_samples(sample_rate) < 1:
        raise ValueError(f"window/hop too short for sample rate {sample_rate}")
    if win > FFT_SIZE:
        raise ValueError(f"{WINDOW_MS:g} ms window of {win} samples at {sample_rate} Hz exceeds the {FFT_SIZE}-point FFT")


def hamming_window(sample_rate: int) -> np.ndarray:
    """Periodic (DFT-even) Hamming window of window_samples(sample_rate)."""
    n = window_samples(sample_rate)
    t = 2.0 * np.pi * np.arange(n) / n
    return 0.54 - 0.46 * np.cos(t)


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


def mel_edge_frequencies(n_mels: int, sample_rate: int) -> np.ndarray:
    """n_mels + 2 filter edges in Hz, evenly spaced in mel from 0 Hz to Nyquist."""
    return mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2))


def mel_filterbank(n_mels: int, sample_rate: int) -> np.ndarray:
    """Triangular area-normalized filterbank, (n_mels, FFT_SIZE//2 + 1).

    Every filter must cover at least one FFT bin: an empty one would give
    a feature row that is the log floor in every clip.
    """
    if n_mels < 1:
        raise ValueError(f"n_mels must be >= 1, got {n_mels}")
    edges = mel_edge_frequencies(n_mels, sample_rate)
    fft_freqs = np.arange(FFT_SIZE // 2 + 1) * (sample_rate / FFT_SIZE)
    lower = edges[:-2, None]
    center = edges[1:-1, None]
    upper = edges[2:, None]
    rising = (fft_freqs[None, :] - lower) / (center - lower)
    falling = (upper - fft_freqs[None, :]) / (upper - center)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    weights *= (2.0 / (upper - lower))  # unit-area triangles
    empty = int(np.count_nonzero(~weights.any(axis=1)))
    if empty:
        raise ValueError(
            f"{empty} of {n_mels} mel filters at {sample_rate} Hz cover no bin of the {FFT_SIZE}-point FFT; use fewer mel bins"
        )
    return weights


def log_mel_spectrogram(clip, filterbank: np.ndarray) -> np.ndarray:
    """Extract a (C, F, T) float32 log mel-energy spectrogram from an AudioClip.

    filterbank is mel_filterbank(n_mels, clip.sample_rate), built once per
    rate. Frames are centered at multiples of the hop (reflect padding);
    there are n // hop of them (500 for 10 s at 48 kHz).

    Padding, framing, windowing, rfft, power and the mel GEMM run over
    _in_parts' channel parts, each part in one pass over its channels;
    the log, the layout and the checks stay on the calling thread.
    """
    sr = clip.sample_rate
    check_sample_rate(sr)
    win = window_samples(sr)
    hop = hop_samples(sr)
    if clip.n_samples < win:
        raise ValueError(f"clip of {clip.n_samples} samples shorter than one {win}-sample window")
    if np.isnan(clip.samples).any():
        raise ValueError("clip contains NaN samples")

    c, n = clip.samples.shape
    n_frames = n // hop
    lead, tail = win // 2, win - win // 2
    padded = np.empty((c, n + win))
    frames = np.empty((c, n_frames, win))
    spectrum = np.empty((c, n_frames, FFT_SIZE // 2 + 1), dtype=np.complex128)
    power = np.empty(spectrum.shape)
    energies = np.empty((c, n_frames, filterbank.shape[0]))  # (C, T, F)
    window = hamming_window(sr)

    def part(lo, hi):
        x = clip.samples[lo:hi]
        # reflect padding, as np.pad(mode="reflect") writes it
        padded[lo:hi, lead : lead + n] = x
        padded[lo:hi, :lead] = x[:, lead - np.arange(lead)]
        padded[lo:hi, lead + n :] = x[:, n - 2 - np.arange(tail)]
        strided = np.lib.stride_tricks.sliding_window_view(padded[lo:hi], win, axis=1)[:, : n_frames * hop : hop]
        np.multiply(strided, window, out=frames[lo:hi])
        np.fft.rfft(frames[lo:hi], n=FFT_SIZE, axis=2, out=spectrum[lo:hi])
        np.abs(spectrum[lo:hi], out=power[lo:hi])
        np.square(power[lo:hi], out=power[lo:hi])
        np.matmul(power[lo:hi], filterbank.T, out=energies[lo:hi])

    _in_parts(c, frames.nbytes, part)
    energies += LOG_FLOOR
    # a (C, F, T) view of (C, T, F) memory: fit_normalizer's summation
    # order, and so the bits of its statistics, depend on this layout
    spec = np.log(energies, out=energies).transpose(0, 2, 1).astype(np.float32)
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
