"""PCM WAV reading/writing and channel utilities.

Only uncompressed RIFF/WAVE is handled: 16/24/32-bit integer PCM and
32-bit IEEE float, mono or stereo. Everything else raises.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE


class WavFormatError(ValueError):
    """Structurally broken RIFF/WAVE data (bad header, truncated chunk)."""


class UnsupportedWavError(ValueError):
    """Well-formed WAV using an encoding this reader does not decode."""


@dataclass
class AudioClip:
    """Multichannel audio in memory.

    samples is a (channels, n_samples) float64 array with amplitudes in
    [-1, 1]; channel rows always have equal length by construction.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 2:
            raise ValueError(f"samples must be 2-D (channels, n), got ndim={self.samples.ndim}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.shape[0] not in (1, 2):
            raise ValueError(f"only mono/stereo supported, got {self.samples.shape[0]} channels")

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate


def _parse_fmt(body: bytes) -> tuple[int, int, int, int]:
    if len(body) < 16:
        raise WavFormatError("fmt chunk shorter than 16 bytes")
    tag, channels, rate, _byte_rate, _block_align, bits = struct.unpack("<HHIIHH", body[:16])
    if tag == WAVE_FORMAT_EXTENSIBLE:
        # actual codec lives in the first two bytes of the SubFormat GUID
        if len(body) < 40:
            raise WavFormatError("WAVE_FORMAT_EXTENSIBLE fmt chunk too short")
        tag = struct.unpack("<H", body[24:26])[0]
    return tag, channels, rate, bits


def _decode_pcm(payload: bytes, bits: int, fmt_tag: int, channels: int) -> np.ndarray:
    """Decode interleaved PCM straight into a C-contiguous (channels, n)
    float64 array in [-1, 1], scaled or clipped in place."""
    if fmt_tag == WAVE_FORMAT_IEEE_FLOAT:
        raw, scale = np.frombuffer(payload, dtype="<f4"), None
    elif bits == 16:
        raw, scale = np.frombuffer(payload, dtype="<i2"), 32768.0
    elif bits == 32:
        raw, scale = np.frombuffer(payload, dtype="<i4"), 2147483648.0
    else:
        # 24-bit: widen each 3-byte sample to 4 bytes, then arithmetic-shift
        # to sign-extend
        wide = np.zeros((len(payload) // 3, 4), dtype=np.uint8)
        wide[:, 1:] = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
        raw, scale = wide.view("<i4")[:, 0] >> 8, 8388608.0
    samples = np.empty((channels, raw.size // channels))
    np.copyto(samples, raw.reshape(-1, channels).T)
    if scale is None:
        np.clip(samples, -1.0, 1.0, out=samples)
    else:
        samples /= scale
    return samples


def load_wav(path) -> AudioClip:
    """Read a PCM WAV file into an AudioClip scaled to [-1, 1].

    Accepts 16/24/32-bit integer and 32-bit float encodings with 1 or 2
    channels. Raises WavFormatError on malformed RIFF structure and
    UnsupportedWavError on other codecs/bit depths. Float samples outside
    [-1, 1] are clipped.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        size = struct.unpack("<I", data[pos + 4 : pos + 8])[0]
        body = data[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise WavFormatError(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            fmt = _parse_fmt(body)
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if payload is None:
        raise WavFormatError(f"{path}: missing data chunk")

    tag, channels, rate, bits = fmt
    if tag not in (WAVE_FORMAT_PCM, WAVE_FORMAT_IEEE_FLOAT):
        raise UnsupportedWavError(f"{path}: unsupported codec tag 0x{tag:04x}")
    if channels not in (1, 2):
        raise UnsupportedWavError(f"{path}: {channels} channels (want 1 or 2)")
    if rate <= 0:
        raise WavFormatError(f"{path}: nonsensical sample rate {rate}")
    if tag == WAVE_FORMAT_IEEE_FLOAT and bits != 32:
        raise UnsupportedWavError(f"{path}: {bits}-bit float not supported")
    if tag == WAVE_FORMAT_PCM and bits not in (16, 24, 32):
        raise UnsupportedWavError(f"{path}: {bits}-bit integer PCM not supported")

    frame_size = channels * bits // 8
    if len(payload) % frame_size != 0:
        raise WavFormatError(f"{path}: data size {len(payload)} not a multiple of frame size {frame_size}")

    return AudioClip(samples=_decode_pcm(payload, bits, tag, channels), sample_rate=rate)


# frames encoded per write: 64 Ki stereo frames are 1 MiB of float64, so
# the writer's arrays stay small whatever the clip's length, also when it
# runs on a helper thread whose malloc arena keeps what it frees
WRITE_FRAMES = 2**16


def _encode(samples: np.ndarray, bits: int | str) -> np.ndarray:
    """Interleaved little-endian samples of a (channels, n) block, clipped
    to [-1, 1]: float32, or integer PCM of the given bit depth."""
    x = np.clip(samples.T, -1.0, 1.0, out=np.empty(samples.shape[::-1]))
    if bits == "float32":
        return x.astype("<f4")
    # x in [-1, 1] rounds to an integer within the depth's range
    x *= 2.0 ** (bits - 1) - 1
    q = np.rint(x, out=x).astype("<i2" if bits == 16 else "<i4")
    return np.ascontiguousarray(q.view(np.uint8).reshape(-1, 4)[:, :3]) if bits == 24 else q


def save_wav(path, clip: AudioClip, bits: int | str = 16) -> None:
    """Write an AudioClip as PCM WAV (16/24/32-bit int or 'float32').

    Samples are clipped to [-1, 1]; NaN samples raise ValueError before
    the file is opened.
    """
    if bits == "float32":
        tag, nbits = WAVE_FORMAT_IEEE_FLOAT, 32
    elif bits in (16, 24, 32):
        tag, nbits = WAVE_FORMAT_PCM, int(bits)
    else:
        raise ValueError(f"unsupported bit depth {bits!r}")
    samples = clip.samples
    if samples.size and np.isnan(samples.min()):  # min propagates NaN
        raise ValueError(f"{path}: NaN samples have no PCM value")

    channels, n = samples.shape
    block_align = channels * nbits // 8
    size = n * block_align
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + size,
        b"WAVE",
        b"fmt ",
        16,
        tag,
        channels,
        clip.sample_rate,
        clip.sample_rate * block_align,
        block_align,
        nbits,
        b"data",
        size,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for lo in range(0, n, WRITE_FRAMES):
            fh.write(_encode(samples[:, lo : lo + WRITE_FRAMES], bits))
        if size & 1:
            fh.write(b"\x00")


def to_mono(clip: AudioClip) -> AudioClip:
    """Average channels into a single channel (before any STFT)."""
    if clip.channels == 1:
        return clip
    return AudioClip(samples=clip.samples.mean(axis=0, keepdims=True), sample_rate=clip.sample_rate)
