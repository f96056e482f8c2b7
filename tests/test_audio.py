"""WAV parser tests, cross-checked against scipy and hand-packed bytes."""

import struct

import numpy as np
import pytest
import scipy.io.wavfile

from subspectral.audio import (
    WRITE_FRAMES,
    AudioClip,
    UnsupportedWavError,
    WavFormatError,
    load_wav,
    save_wav,
    to_mono,
)


def wav_bytes(fmt_tag, channels, rate, bits, payload, extensible=False):
    """Independent minimal WAV writer used as a fixture builder."""
    if extensible:
        guid = struct.pack("<H", fmt_tag) + b"\x00\x00" + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        fmt = struct.pack("<HHIIHH", 0xFFFE, channels, rate, rate * channels * bits // 8, channels * bits // 8, bits)
        fmt += struct.pack("<HHI", 22, bits, 0) + guid
    else:
        fmt = struct.pack("<HHIIHH", fmt_tag, channels, rate, rate * channels * bits // 8, channels * bits // 8, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + (b"\x00" if len(fmt) & 1 else b"")
    chunks += b"data" + struct.pack("<I", len(payload)) + payload + (b"\x00" if len(payload) & 1 else b"")
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def pack_int24(values):
    return b"".join(int(v).to_bytes(3, "little", signed=True) for v in values)


def test_int16_fullscale(tmp_path):
    path = tmp_path / "one.wav"
    payload = struct.pack("<h", 32767)
    path.write_bytes(wav_bytes(1, 1, 48000, 16, payload))
    clip = load_wav(path)
    assert clip.channels == 1
    assert clip.sample_rate == 48000
    assert clip.samples[0, 0] == pytest.approx(32767 / 32768, abs=1e-9)
    assert abs(clip.samples[0, 0] - 0.99997) < 1e-4


def test_int16_negative_fullscale(tmp_path):
    path = tmp_path / "neg.wav"
    path.write_bytes(wav_bytes(1, 1, 8000, 16, struct.pack("<h", -32768)))
    assert load_wav(path).samples[0, 0] == -1.0


def test_24bit_known_values(tmp_path):
    values_l = [0, 1, -1, 8388607, -8388608, 4194304]
    values_r = [5, -5, 100, -8388608, 8388607, 0]
    interleaved = [v for pair in zip(values_l, values_r) for v in pair]
    path = tmp_path / "s24.wav"
    path.write_bytes(wav_bytes(1, 2, 48000, 24, pack_int24(interleaved)))
    clip = load_wav(path)
    assert clip.channels == 2
    np.testing.assert_allclose(clip.samples[0], np.array(values_l) / 2**23)
    np.testing.assert_allclose(clip.samples[1], np.array(values_r) / 2**23)


def test_24bit_stereo_ten_second_clip(tmp_path):
    # DCASE-style shape: 48 kHz, 10 s, 2 channels, 24-bit
    rng = np.random.default_rng(7)
    n = 480000
    left = rng.integers(-(2**23), 2**23, n)
    right = rng.integers(-(2**23), 2**23, n)
    interleaved = np.empty(2 * n, dtype=np.int64)
    interleaved[0::2] = left
    interleaved[1::2] = right
    # independent byte packing: int32 little-endian with the top byte dropped
    as32 = interleaved.astype("<i4").view(np.uint8).reshape(-1, 4)
    payload = as32[:, :3].tobytes()
    path = tmp_path / "dcase_like.wav"
    path.write_bytes(wav_bytes(1, 2, 48000, 24, payload))
    clip = load_wav(path)
    assert clip.samples.shape == (2, 480000)
    assert clip.duration == pytest.approx(10.0)
    np.testing.assert_allclose(clip.samples[0], left / 2**23)
    np.testing.assert_allclose(clip.samples[1], right / 2**23)


def test_zero_length_data_chunk(tmp_path):
    path = tmp_path / "empty.wav"
    path.write_bytes(wav_bytes(1, 2, 44100, 16, b""))
    clip = load_wav(path)
    assert clip.samples.shape == (2, 0)


def test_float32_roundtrip_vs_scipy(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (2, 512))
    path = tmp_path / "f32.wav"
    save_wav(path, AudioClip(samples=x, sample_rate=16000), bits="float32")
    rate, ref = scipy.io.wavfile.read(path)
    assert rate == 16000
    clip = load_wav(path)
    np.testing.assert_allclose(clip.samples.T, ref, atol=1e-7)
    np.testing.assert_allclose(clip.samples, x, atol=1e-6)


def test_16bit_save_load_vs_scipy(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.9, 0.9, (1, 300))
    path = tmp_path / "s16.wav"
    save_wav(path, AudioClip(samples=x, sample_rate=22050), bits=16)
    rate, ref = scipy.io.wavfile.read(path)
    clip = load_wav(path)
    np.testing.assert_allclose(clip.samples[0] * 32768, ref.astype(np.float64))
    # save scales by 32767, load divides by 32768: error <= ~1.4/32768
    np.testing.assert_allclose(clip.samples[0], x[0], atol=1.5 / 32768)


def test_32bit_int_roundtrip(tmp_path):
    x = np.array([[0.0, 0.5, -0.5, 1.0, -1.0]])
    path = tmp_path / "s32.wav"
    save_wav(path, AudioClip(samples=x, sample_rate=8000), bits=32)
    clip = load_wav(path)
    np.testing.assert_allclose(clip.samples, x, atol=1e-8)


def test_extensible_format_24bit(tmp_path):
    path = tmp_path / "ext.wav"
    path.write_bytes(wav_bytes(1, 1, 48000, 24, pack_int24([1000, -1000]), extensible=True))
    clip = load_wav(path)
    np.testing.assert_allclose(clip.samples[0], [1000 / 2**23, -1000 / 2**23])


def test_malformed_riff_raises_format_error(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"JUNK" + b"\x00" * 40)
    with pytest.raises(WavFormatError):
        load_wav(path)


def test_truncated_chunk_raises_format_error(tmp_path):
    good = wav_bytes(1, 1, 48000, 16, struct.pack("<4h", 1, 2, 3, 4))
    path = tmp_path / "trunc.wav"
    path.write_bytes(good[:-3])
    with pytest.raises(WavFormatError):
        load_wav(path)


def test_missing_data_chunk(tmp_path):
    fmt = struct.pack("<HHIIHH", 1, 1, 48000, 96000, 2, 16)
    blob = b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt)) + b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    path = tmp_path / "nodata.wav"
    path.write_bytes(blob)
    with pytest.raises(WavFormatError, match="data"):
        load_wav(path)


@pytest.mark.parametrize(
    "tag,channels,bits",
    [
        (7, 1, 8),  # mu-law
        (1, 1, 8),  # 8-bit PCM
        (1, 3, 16),  # too many channels
        (3, 1, 64),  # float64
    ],
)
def test_unsupported_encodings(tmp_path, tag, channels, bits):
    path = tmp_path / "unsup.wav"
    path.write_bytes(wav_bytes(tag, channels, 48000, bits, b"\x00" * 48))
    with pytest.raises(UnsupportedWavError):
        load_wav(path)


def test_data_not_multiple_of_frame(tmp_path):
    path = tmp_path / "odd.wav"
    path.write_bytes(wav_bytes(1, 2, 48000, 16, b"\x00\x01\x02"))
    with pytest.raises(WavFormatError):
        load_wav(path)


def test_to_mono_averages_channels():
    clip = AudioClip(samples=np.array([[1.0, 0.0], [0.0, 1.0]]), sample_rate=48000)
    mono = to_mono(clip)
    assert mono.channels == 1
    np.testing.assert_allclose(mono.samples, [[0.5, 0.5]])


def test_clip_validation():
    with pytest.raises(ValueError):
        AudioClip(samples=np.zeros((3, 10)), sample_rate=48000)
    with pytest.raises(ValueError):
        AudioClip(samples=np.zeros((1, 10)), sample_rate=0)


@pytest.mark.parametrize("bits", [16, 24, 32, "float32"])
def test_save_refuses_nan_and_writes_no_file(tmp_path, bits):
    x = np.zeros((2, 50))
    x[1, 7] = np.nan
    path = tmp_path / "nan.wav"
    with pytest.raises(ValueError, match="NaN"):
        save_wav(path, AudioClip(samples=x, sample_rate=8000), bits=bits)
    assert not path.exists()


@pytest.mark.parametrize("bits", [16, 24, 32, "float32"])
def test_save_clips_to_full_scale_and_pads_odd_payloads(tmp_path, bits):
    # one frame past a write block; mono 24-bit makes an odd payload and a pad byte
    x = np.full((1, WRITE_FRAMES + 1), 0.25)
    x[0, :3] = [np.inf, -2.0, 0.5]
    x[0, -1] = -0.75
    path = tmp_path / "loud.wav"
    save_wav(path, AudioClip(samples=x, sample_rate=8000), bits=bits)
    data = path.read_bytes()
    payload = x.size * (32 if bits == "float32" else bits) // 8
    assert len(data) == 44 + payload + (payload & 1)
    assert struct.unpack("<I", data[4:8])[0] == 36 + payload
    np.testing.assert_allclose(load_wav(path).samples, np.clip(x, -1, 1), atol=1e-4)
