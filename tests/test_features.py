"""Feature extraction tests: framing policy, filterbank, normalization."""

import numpy as np
import pytest

from subspectral.audio import AudioClip
from subspectral.features import (
    LOG_FLOOR,
    STD_FLOOR,
    BinNormalizer,
    MelConfig,
    Spectrogram,
    StftConfig,
    apply_normalizer,
    fit_normalizer,
    frame_count,
    hz_to_mel,
    log_mel_spectrogram,
    mel_edge_frequencies,
    mel_filterbank,
    mel_to_hz,
)

SR = 48000


def tone(freq, seconds=1.0, sr=SR, channels=1, amp=0.5):
    t = np.arange(int(seconds * sr)) / sr
    x = amp * np.sin(2 * np.pi * freq * t)
    return AudioClip(samples=np.tile(x, (channels, 1)), sample_rate=sr)


class TestFraming:
    def test_ten_second_clip_gives_500_frames(self):
        clip = AudioClip(samples=np.zeros((2, 480000)), sample_rate=SR)
        spec = log_mel_spectrogram(clip, mel=MelConfig(n_mels=40))
        assert spec.data.shape == (2, 40, 500)
        # raw count before the trailing crop: 1 + 480000/960
        assert frame_count(480000, 960) == 501

    def test_frame_count_ceil(self):
        assert frame_count(1000, 960) == 3
        assert frame_count(960, 960) == 2

    def test_requested_frames_beyond_raw_errors(self):
        clip = AudioClip(samples=np.zeros((1, 48000)), sample_rate=SR)
        with pytest.raises(ValueError, match="fewer"):
            log_mel_spectrogram(clip, target_frames=60)

    def test_short_clip_errors(self):
        clip = AudioClip(samples=np.zeros((1, 1000)), sample_rate=SR)
        with pytest.raises(ValueError, match="shorter than one"):
            log_mel_spectrogram(clip)

    def test_nan_errors(self):
        samples = np.zeros((1, 48000))
        samples[0, 5] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            log_mel_spectrogram(AudioClip(samples=samples, sample_rate=SR))

    def test_window_longer_than_fft_errors(self):
        clip = AudioClip(samples=np.zeros((1, 48000)), sample_rate=SR)
        with pytest.raises(ValueError, match="fft_size"):
            log_mel_spectrogram(clip, stft=StftConfig(fft_size=1024))


class TestMelScale:
    def test_roundtrip(self):
        f = np.array([0.0, 200.0, 999.0, 1000.0, 4000.0, 24000.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-12)

    def test_monotonic(self):
        f = np.linspace(0, 24000, 2000)
        assert np.all(np.diff(hz_to_mel(f)) > 0)

    @pytest.mark.parametrize("n_mels", [40, 200])
    def test_filterbank_nonnegative_and_covering(self, n_mels):
        stft = StftConfig()
        fb = mel_filterbank(MelConfig(n_mels=n_mels), stft, SR)
        assert fb.shape == (n_mels, stft.fft_size // 2 + 1)
        assert np.all(fb >= 0)
        assert not np.any(fb.sum(axis=1) == 0), "every filter must touch at least one FFT bin"
        freqs = np.arange(stft.fft_size // 2 + 1) * (SR / stft.fft_size)
        interior = (freqs > 0) & (freqs < SR / 2)
        assert np.all(fb.sum(axis=0)[interior] > 0), "every interior FFT bin must be covered"


class TestLogMel:
    def test_silence_hits_log_floor(self):
        clip = AudioClip(samples=np.zeros((2, 48000)), sample_rate=SR)
        spec = log_mel_spectrogram(clip, mel=MelConfig(n_mels=40))
        assert np.all(np.isfinite(spec.data))
        np.testing.assert_allclose(spec.data, np.log(LOG_FLOOR), rtol=1e-6)

    @pytest.mark.parametrize("band", [2, 7, 13, 25, 39])
    def test_sine_at_band_center_peaks_there(self, band):
        stft, mel = StftConfig(), MelConfig(n_mels=40)
        centers = mel_edge_frequencies(mel, SR)[1:-1]
        spec = log_mel_spectrogram(tone(centers[band]), stft, mel)
        assert int(np.argmax(spec.data[0].mean(axis=1))) == band

    def test_sine_matches_single_frame_oracle(self):
        # direct DFT + filterbank dot product on one hand-built frame
        stft, mel = StftConfig(), MelConfig(n_mels=40)
        freq = 3000.0
        clip = tone(freq)
        win = stft.window_samples(SR)
        hop = stft.hop_samples(SR)
        frame_index = 10
        start = frame_index * hop - win // 2
        frame = clip.samples[0, start : start + win] * stft.window(SR)
        power = np.abs(np.fft.rfft(frame, n=stft.fft_size)) ** 2
        oracle = np.log(mel_filterbank(mel, stft, SR) @ power + LOG_FLOOR)
        spec = log_mel_spectrogram(clip, stft, mel)
        np.testing.assert_allclose(spec.data[0, :, frame_index], oracle, rtol=1e-5, atol=1e-5)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(0)
        clip = AudioClip(samples=rng.standard_normal((2, 48000)) * 0.2, sample_rate=SR)
        a = log_mel_spectrogram(clip)
        b = log_mel_spectrogram(clip)
        assert np.array_equal(a.data, b.data)

    def test_stereo_channels_independent(self):
        rng = np.random.default_rng(1)
        left = rng.standard_normal(48000) * 0.1
        right = np.zeros(48000)
        clip = AudioClip(samples=np.stack([left, right]), sample_rate=SR)
        spec = log_mel_spectrogram(clip, mel=MelConfig(n_mels=40))
        mono = log_mel_spectrogram(AudioClip(samples=left[None], sample_rate=SR), mel=MelConfig(n_mels=40))
        np.testing.assert_array_equal(spec.data[0], mono.data[0])
        np.testing.assert_allclose(spec.data[1], np.log(LOG_FLOOR), rtol=1e-6)


def const_spec(value, shape=(2, 4, 6)):
    return Spectrogram(data=np.full(shape, value, dtype=np.float32))


class TestNormalizer:
    def test_constant_spectrogram(self):
        norm = fit_normalizer([const_spec(3.5)])
        np.testing.assert_allclose(norm.mean, 3.5, rtol=1e-6)
        np.testing.assert_allclose(norm.std, STD_FLOOR)

    def test_two_point_population_std(self):
        norm = fit_normalizer([const_spec(0.0), const_spec(2.0)])
        np.testing.assert_allclose(norm.mean, 1.0)
        np.testing.assert_allclose(norm.std, 1.0)

    def test_matches_two_pass_oracle(self, rng):
        specs = [Spectrogram(data=rng.standard_normal((2, 8, 15)).astype(np.float32) * 3 + 1) for _ in range(100)]
        norm = fit_normalizer(specs)
        stacked = np.concatenate([s.data.astype(np.float64) for s in specs], axis=2)
        np.testing.assert_allclose(norm.mean, stacked.mean(axis=2), rtol=1e-6)
        np.testing.assert_allclose(norm.std, stacked.std(axis=2), rtol=1e-6)

    def test_order_independent_within_tolerance(self, rng):
        specs = [Spectrogram(data=rng.standard_normal((1, 5, 9)).astype(np.float32)) for _ in range(50)]
        a = fit_normalizer(specs)
        b = fit_normalizer(specs[::-1])
        np.testing.assert_allclose(a.mean, b.mean, rtol=1e-9)
        np.testing.assert_allclose(a.std, b.std, rtol=1e-9)

    def test_shape_mismatch_errors(self):
        with pytest.raises(ValueError, match="shape"):
            fit_normalizer([const_spec(1.0, (2, 4, 6)), const_spec(1.0, (2, 5, 6))])
        with pytest.raises(ValueError):
            fit_normalizer([])

    def test_identity_normalizer(self):
        spec = const_spec(2.0)
        norm = BinNormalizer(mean=np.zeros((2, 4)), std=np.ones((2, 4)))
        np.testing.assert_array_equal(apply_normalizer(spec, norm).data, spec.data)

    def test_constant_equal_to_mean_gives_zeros(self):
        spec = const_spec(7.0)
        norm = fit_normalizer([spec])
        np.testing.assert_allclose(apply_normalizer(spec, norm).data, 0.0)

    def test_fit_then_apply_standardizes(self, rng):
        specs = [Spectrogram(data=(rng.standard_normal((2, 5, 20)) * 2 + 5).astype(np.float32)) for _ in range(20)]
        norm = fit_normalizer(specs)
        normalized = np.concatenate([apply_normalizer(s, norm).data.astype(np.float64) for s in specs], axis=2)
        np.testing.assert_allclose(normalized.mean(axis=2), 0.0, atol=1e-5)
        np.testing.assert_allclose(normalized.std(axis=2), 1.0, atol=1e-5)

    def test_apply_shape_mismatch(self):
        norm = BinNormalizer(mean=np.zeros((1, 4)), std=np.ones((1, 4)))
        with pytest.raises(ValueError, match="match"):
            apply_normalizer(const_spec(1.0, (2, 4, 6)), norm)


class TestConfigValidation:
    def test_hop_must_be_smaller_than_window(self):
        with pytest.raises(ValueError):
            StftConfig(window_ms=20, hop_ms=40)

    def test_mel_bounds(self):
        with pytest.raises(ValueError):
            MelConfig(n_mels=0)
        with pytest.raises(ValueError):
            MelConfig(n_mels=10, f_min=500.0, f_max=100.0)
        with pytest.raises(ValueError, match="Nyquist"):
            MelConfig(n_mels=10, f_max=30000.0).resolved_f_max(SR)
