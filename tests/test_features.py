"""Feature extraction tests: framing policy, filterbank, normalization."""

import hashlib
import math

import numpy as np
import pytest

from subspectral.audio import AudioClip
from subspectral.features import (
    LOG_FLOOR,
    STD_FLOOR,
    FFT_SIZE,
    BinNormalizer,
    apply_normalizer,
    fit_normalizer,
    hamming_window,
    hop_samples,
    hz_to_mel,
    log_mel_spectrogram,
    mel_edge_frequencies,
    mel_filterbank,
    mel_to_hz,
    window_samples,
)
from subspectral.nn import functional

SR = 48000


def tone(freq, seconds=1.0, sr=SR, channels=1, amp=0.5):
    t = np.arange(int(seconds * sr)) / sr
    x = amp * np.sin(2 * np.pi * freq * t)
    return AudioClip(samples=np.tile(x, (channels, 1)), sample_rate=sr)


FB40 = mel_filterbank(40, SR)


class TestFraming:
    def test_ten_second_clip_gives_500_frames(self):
        clip = AudioClip(samples=np.zeros((2, 480000)), sample_rate=SR)
        spec = log_mel_spectrogram(clip, FB40)
        assert spec.shape == (2, 40, 500)

    @pytest.mark.parametrize("n_samples", [1920, 1921, 48500, 480000])
    def test_n_frames_is_samples_over_hop(self, n_samples):
        # one window, one window plus a sample, not a multiple of the hop, 10 s
        clip = AudioClip(samples=np.zeros((1, n_samples)), sample_rate=SR)
        assert log_mel_spectrogram(clip, FB40).shape == (1, 40, n_samples // hop_samples(SR))

    def test_short_clip_errors(self):
        clip = AudioClip(samples=np.zeros((1, 1000)), sample_rate=SR)
        with pytest.raises(ValueError, match="shorter than one"):
            log_mel_spectrogram(clip, FB40)

    def test_nan_errors(self):
        samples = np.zeros((1, 48000))
        samples[0, 5] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            log_mel_spectrogram(AudioClip(samples=samples, sample_rate=SR), FB40)

    def test_inf_sample_gives_non_finite_error(self):
        samples = np.zeros((1, 48000))
        samples[0, 5] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            log_mel_spectrogram(AudioClip(samples=samples, sample_rate=SR), FB40)

    def test_window_longer_than_fft_errors(self):
        # 40 ms at 96 kHz is 3840 samples, more than the 2048-point FFT
        clip = AudioClip(samples=np.zeros((1, 96000)), sample_rate=96000)
        with pytest.raises(ValueError, match="3840 samples at 96000 Hz exceeds the 2048-point FFT"):
            log_mel_spectrogram(clip, FB40)

    def test_window_exactly_fft_size_is_accepted(self):
        # 40 ms at 51.2 kHz is exactly 2048 samples
        assert window_samples(51200) == FFT_SIZE
        clip = AudioClip(samples=np.zeros((1, 51200)), sample_rate=51200)
        spec = log_mel_spectrogram(clip, mel_filterbank(40, 51200))
        assert spec.shape == (1, 40, 50)
        assert np.all(np.isfinite(spec))


class TestMelScale:
    def test_roundtrip(self):
        f = np.array([0.0, 200.0, 999.0, 1000.0, 4000.0, 24000.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-12)

    def test_monotonic(self):
        f = np.linspace(0, 24000, 2000)
        assert np.all(np.diff(hz_to_mel(f)) > 0)

    @pytest.mark.parametrize(
        "n_mels, sr", [pytest.param(40, SR, id="40"), pytest.param(200, SR, id="200"), pytest.param(40, 51200, id="40-51200")]
    )
    def test_filterbank_nonnegative_and_covering(self, n_mels, sr):
        fb = mel_filterbank(n_mels, sr)
        assert fb.shape == (n_mels, FFT_SIZE // 2 + 1)
        assert np.all(fb >= 0)
        assert not np.any(fb.sum(axis=1) == 0), "every filter must touch at least one FFT bin"
        freqs = np.arange(FFT_SIZE // 2 + 1) * (sr / FFT_SIZE)
        interior = (freqs > 0) & (freqs < sr / 2)
        assert np.all(fb.sum(axis=0)[interior] > 0), "every interior FFT bin must be covered"

    def test_filterbank_spans_zero_to_nyquist(self):
        edges = mel_edge_frequencies(40, SR)
        assert edges[0] == 0.0
        np.testing.assert_allclose(edges[-1], SR / 2, rtol=1e-12)

    def test_empty_filters_error(self):
        # at 48 kHz, 14 of 400 filters fall between two FFT bins
        with pytest.raises(ValueError, match="14 of 400 mel filters at 48000 Hz cover no bin"):
            mel_filterbank(400, SR)


class TestLogMel:
    def test_silence_hits_log_floor(self):
        clip = AudioClip(samples=np.zeros((2, 48000)), sample_rate=SR)
        spec = log_mel_spectrogram(clip, FB40)
        assert np.all(np.isfinite(spec))
        np.testing.assert_allclose(spec, np.log(LOG_FLOOR), rtol=1e-6)

    @pytest.mark.parametrize("band", [2, 7, 13, 25, 39])
    def test_sine_at_band_center_peaks_there(self, band):
        centers = mel_edge_frequencies(40, SR)[1:-1]
        spec = log_mel_spectrogram(tone(centers[band]), FB40)
        assert int(np.argmax(spec[0].mean(axis=1))) == band

    def test_sine_matches_single_frame_oracle(self):
        # direct DFT + filterbank dot product on one hand-built frame
        freq = 3000.0
        clip = tone(freq)
        win = window_samples(SR)
        hop = hop_samples(SR)
        frame_index = 10
        start = frame_index * hop - win // 2
        frame = clip.samples[0, start : start + win] * hamming_window(SR)
        power = np.abs(np.fft.rfft(frame, n=FFT_SIZE)) ** 2
        oracle = np.log(FB40 @ power + LOG_FLOOR)
        spec = log_mel_spectrogram(clip, FB40)
        np.testing.assert_allclose(spec[0, :, frame_index], oracle, rtol=1e-5, atol=1e-5)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(0)
        clip = AudioClip(samples=rng.standard_normal((2, 48000)) * 0.2, sample_rate=SR)
        a = log_mel_spectrogram(clip, FB40)
        b = log_mel_spectrogram(clip, FB40)
        assert np.array_equal(a, b)

    def test_stereo_channels_independent(self):
        rng = np.random.default_rng(1)
        left = rng.standard_normal(48000) * 0.1
        right = np.zeros(48000)
        clip = AudioClip(samples=np.stack([left, right]), sample_rate=SR)
        spec = log_mel_spectrogram(clip, FB40)
        mono = log_mel_spectrogram(AudioClip(samples=left[None], sample_rate=SR), FB40)
        np.testing.assert_array_equal(spec[0], mono[0])
        np.testing.assert_allclose(spec[1], np.log(LOG_FLOOR), rtol=1e-6)



# md5 of log_mel_spectrogram's bytes for uniform noise (seed 7) before the
# frontend ran over channel parts: (channels, samples, mel bins, rate) ->
# digest. The FFT, log and GEMM bits are those of this numpy 2.4 /
# OpenBLAS 0.3.31 build. 480437 and 48437 samples are not multiples of the
# 960-sample hop; at 11025 Hz the window is 2 * hop + 1 samples, so the
# last frame reads the reflected tail.
FRONTEND_MD5 = {
    (2, 480000, 40, SR): "d794bef0eb200143a7f640c2365e5813",
    (2, 480000, 200, SR): "91aa936daefc6c705dce1b3928d72e57",
    (2, 48000, 40, SR): "aad9318da9454433929501a9918b955b",
    (2, 48000, 200, SR): "06dab30f57180b542cc1c3de8d8e6c80",
    (1, 480000, 40, SR): "7265d1002150156f32693f865c41d343",
    (1, 48000, 200, SR): "77a49f211282ca5726c52f06a99ed344",
    (2, 480437, 40, SR): "ca2693a1ae1b3e6d0f6b72cc5d672f18",
    (1, 48437, 40, SR): "3047b82387df47435c626e0ae9caa116",
    (2, 22000, 40, 11025): "fe61667c434d7387078cae367daddca6",
}


def noise_clip(channels, n_samples, sample_rate=SR):
    return AudioClip(samples=np.random.default_rng(7).uniform(-0.5, 0.5, (channels, n_samples)), sample_rate=sample_rate)


class TestFrontendParts:
    @pytest.mark.parametrize("floor", [0, math.inf])
    @pytest.mark.parametrize("channels, n_samples, mels, sample_rate", list(FRONTEND_MD5))
    def test_bytes_and_layout_do_not_depend_on_split(self, monkeypatch, floor, channels, n_samples, mels, sample_rate):
        monkeypatch.setattr(functional, "SPLIT_FLOOR", floor)
        spec = log_mel_spectrogram(noise_clip(channels, n_samples, sample_rate), mel_filterbank(mels, sample_rate))
        assert hashlib.md5(spec.tobytes()).hexdigest() == FRONTEND_MD5[channels, n_samples, mels, sample_rate]
        # (C, F, T) over (C, T, F) memory: fit_normalizer's bits depend on it
        t = n_samples // hop_samples(sample_rate)
        assert spec.shape == (channels, mels, t)
        assert spec.strides == ((t * mels * 4 if channels > 1 else 4), 4, mels * 4)

    @pytest.mark.parametrize("channels, n_samples, splits", [(2, 480000, True), (2, 48000, False), (1, 480000, False)])
    def test_only_ten_second_stereo_splits(self, monkeypatch, channels, n_samples, splits):
        parts = []
        run_at_once = functional._run_at_once
        monkeypatch.setattr(functional, "_run_at_once", lambda job, arglists: parts.append(arglists) or run_at_once(job, arglists))
        log_mel_spectrogram(noise_clip(channels, n_samples), FB40)
        assert parts == ([[(0, 1), (1, 2)]] if splits else [])


def const_spec(value, shape=(2, 4, 6)):
    return np.full(shape, value, dtype=np.float32)


def const_stack(*values, shape=(2, 4, 6)):
    return np.stack([const_spec(v, shape) for v in values])


class TestNormalizer:
    def test_constant_spectrogram(self):
        norm = fit_normalizer(const_stack(3.5))
        np.testing.assert_allclose(norm.mean, 3.5, rtol=1e-6)
        np.testing.assert_allclose(norm.std, STD_FLOOR)

    def test_two_point_population_std(self):
        norm = fit_normalizer(const_stack(0.0, 2.0))
        np.testing.assert_allclose(norm.mean, 1.0)
        np.testing.assert_allclose(norm.std, 1.0)

    def test_matches_two_pass_oracle(self, rng):
        x = rng.standard_normal((100, 2, 8, 15)).astype(np.float32) * 3 + 1
        norm = fit_normalizer(x)
        stacked = np.concatenate(x.astype(np.float64), axis=2)
        np.testing.assert_allclose(norm.mean, stacked.mean(axis=2), rtol=1e-6)
        np.testing.assert_allclose(norm.std, stacked.std(axis=2), rtol=1e-6)

    def test_order_independent_within_tolerance(self, rng):
        x = rng.standard_normal((50, 1, 5, 9)).astype(np.float32)
        a = fit_normalizer(x)
        b = fit_normalizer(x[::-1])
        np.testing.assert_allclose(a.mean, b.mean, rtol=1e-9)
        np.testing.assert_allclose(a.std, b.std, rtol=1e-9)

    def test_shape_mismatch_errors(self):
        with pytest.raises(ValueError, match="shape"):
            fit_normalizer(const_spec(1.0, (2, 4, 6)))  # one clip, not a stack
        with pytest.raises(ValueError, match="shape"):
            fit_normalizer(np.zeros((0, 2, 4, 6), dtype=np.float32))

    def test_identity_normalizer(self):
        spec = const_spec(2.0)
        norm = BinNormalizer(mean=np.zeros((2, 4)), std=np.ones((2, 4)))
        np.testing.assert_array_equal(apply_normalizer(spec, norm), spec)

    def test_constant_equal_to_mean_gives_zeros(self):
        x = const_stack(7.0)
        norm = fit_normalizer(x)
        np.testing.assert_allclose(apply_normalizer(x, norm), 0.0)

    def test_fit_then_apply_standardizes(self, rng):
        x = (rng.standard_normal((20, 2, 5, 20)) * 2 + 5).astype(np.float32)
        norm = fit_normalizer(x)
        normalized = apply_normalizer(x, norm).astype(np.float64)
        np.testing.assert_allclose(normalized.mean(axis=(0, 3)), 0.0, atol=1e-5)
        np.testing.assert_allclose(normalized.std(axis=(0, 3)), 1.0, atol=1e-5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_apply_rejects_non_finite(self, bad):
        x = const_stack(1.0, 2.0)
        x[1, 0, 2, 3] = bad
        norm = BinNormalizer(mean=np.zeros((2, 4)), std=np.ones((2, 4)))
        with pytest.raises(ValueError, match="non-finite"):
            apply_normalizer(x, norm)

    def test_apply_shape_mismatch(self):
        norm = BinNormalizer(mean=np.zeros((1, 4)), std=np.ones((1, 4)))
        with pytest.raises(ValueError, match="match"):
            apply_normalizer(const_spec(1.0, (2, 4, 6)), norm)
        with pytest.raises(ValueError, match="match"):
            apply_normalizer(const_stack(1.0, shape=(2, 4, 6)), norm)


class TestConfigValidation:
    def test_mel_bounds(self):
        for n_mels in (0, -3):
            with pytest.raises(ValueError, match="n_mels must be >= 1"):
                mel_filterbank(n_mels, SR)
