"""Manifest parsing and synthetic fixture generation."""

import json

import numpy as np
import pytest

from subspectral.audio import load_wav
from subspectral.bandstats import class_mean_profiles, most_alike_profiles
from subspectral.data import (
    DatasetManifest,
    ManifestEntry,
    fixture_bands,
    parse_manifest,
    parse_manifest_pair,
    synth_fixture,
    write_manifest,
)
from subspectral.features import log_mel_spectrogram, mel_edge_frequencies, mel_filterbank
from subspectral.pipeline import extract_dataset, load_feature_dir

# per-clip gain jitter of the band signal: +-6 dB, i.e. +-ln 4 nats of log power
GAIN_JITTER_NATS = np.log(4.0)


class TestManifest:
    def test_two_rows_lexicographic_ids(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a.wav\tpark\nb.wav\tmetro\n")
        manifest = parse_manifest(path)
        assert manifest.class_names == ["metro", "park"]
        assert manifest.label_id("metro") == 0
        assert manifest.label_id("park") == 1

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("filename\tscene_label\nx.wav\tbus\n")
        manifest = parse_manifest(path)
        assert len(manifest.entries) == 1
        assert manifest.entries[0].label == "bus"

    def test_duplicate_path_errors(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a.wav\tpark\na.wav\tmetro\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_manifest(path)

    def test_label_outside_class_names_errors(self):
        entries = [ManifestEntry(path="a.wav", label="zoo", split="train")]
        with pytest.raises(ValueError, match="outside class_names"):
            DatasetManifest(entries=entries, class_names=["metro", "park"])

    def test_split_column_and_evaluate_alias(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a.wav\tpark\ttrain\nb.wav\tpark\tevaluate\n")
        manifest = parse_manifest(path)
        assert [e.split for e in manifest.entries] == ["train", "test"]

    def test_pair_merge(self, tmp_path):
        train = tmp_path / "fold1_train.txt"
        test = tmp_path / "fold1_evaluate.txt"
        train.write_text("filename\tscene_label\nt1.wav\tpark\nt2.wav\tmetro\n")
        test.write_text("filename\tscene_label\ne1.wav\tpark\n")
        manifest = parse_manifest_pair(train, test)
        assert len(manifest.split_entries("train")) == 2
        assert len(manifest.split_entries("test")) == 1
        assert manifest.class_names == ["metro", "park"]

    def test_write_then_parse_roundtrip(self, tmp_path):
        manifest = DatasetManifest(
            entries=[ManifestEntry("a.wav", "park", "train"), ManifestEntry("b.wav", "metro", "test")],
            class_names=["metro", "park"],
        )
        path = tmp_path / "m.tsv"
        write_manifest(path, manifest)
        back = parse_manifest(path)
        assert back.entries == manifest.entries

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("only_one_column\n")
        with pytest.raises(ValueError, match="at least"):
            parse_manifest(path)


class TestFixtureBands:
    def test_disjoint_except_twin_pair(self):
        bands = fixture_bands(10, 24000.0)
        for i in range(8):
            assert bands[i][1] <= bands[i + 1][0] + 1e-9 or i == 8
        lo8, hi8 = bands[8]
        lo9, hi9 = bands[9]
        assert lo9 < hi8, "last two classes must overlap"
        assert hi9 > hi8 and lo8 < lo9, "each twin keeps a unique region"

    def test_no_overlap_mode(self):
        bands = fixture_bands(10, 24000.0, overlap_pair=False)
        for i in range(9):
            assert bands[i][1] <= bands[i + 1][0] + 1e-9


class TestSynthFixture:
    def test_counts_and_files(self, fixture_dir):
        out, manifest = fixture_dir
        assert len(manifest.entries) == 30
        assert len(manifest.split_entries("train")) == 20
        assert len(manifest.split_entries("test")) == 10
        assert (out / "manifest.tsv").exists()
        meta = json.loads((out / "fixture.json").read_text())
        assert meta["classes"] == 10
        for e in manifest.entries:
            assert (out / e.path).exists()

    def test_clip_shape(self, fixture_dir):
        out, manifest = fixture_dir
        clip = load_wav(out / manifest.entries[0].path)
        assert clip.channels == 2
        assert clip.sample_rate == 48000
        assert clip.n_samples == 48000

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth_fixture(3, 2, a, seconds=0.5, seed=11)
        synth_fixture(3, 2, b, seconds=0.5, seed=11)
        for name in ["band00-000.wav", "band02-001.wav"]:
            assert (a / "audio" / name).read_bytes() == (b / "audio" / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth_fixture(2, 2, a, seconds=0.5, seed=1)
        synth_fixture(2, 2, b, seconds=0.5, seed=2)
        assert (a / "audio" / "band00-000.wav").read_bytes() != (b / "audio" / "band00-000.wav").read_bytes()

    def test_low_band_class_peaks_in_low_mel_bins(self, fixture_dir):
        # oracle: the fixture's own band metadata + filterbank edges
        out, manifest = fixture_dir
        meta = json.loads((out / "fixture.json").read_text())
        lo, hi = meta["bands_hz"]["band00"]
        clip = load_wav(out / "audio" / "band00-000.wav")
        spec = log_mel_spectrogram(clip, mel_filterbank(40, 48000))
        mean_energy = spec.mean(axis=(0, 2))
        peak = int(np.argmax(mean_energy))
        edges = mel_edge_frequencies(40, 48000)
        # band 0 spans the lowest slice of the spectrum
        assert edges[peak] <= hi
        assert peak <= 6

    def test_out_of_band_bins_sit_on_the_shared_floor(self, fixture_dir):
        # two or more bins outside its band, a class's mean log-mel must
        # match the floor every class shares, well inside the gain jitter;
        # window leakage or a per-clip gain on the floor would make those
        # bins carry class information that the per-bin statistics pick up
        out, manifest = fixture_dir
        bands = json.loads((out / "fixture.json").read_text())["bands_hz"]
        filterbank = mel_filterbank(40, 48000)
        centers = mel_edge_frequencies(40, 48000)[1:-1]
        profiles = np.array(
            [
                np.mean(
                    [
                        log_mel_spectrogram(load_wav(out / e.path), filterbank).mean(axis=(0, 2))
                        for e in manifest.entries
                        if e.label == name
                    ],
                    axis=0,
                )
                for name in manifest.class_names
            ]
        )
        floor = np.median(profiles, axis=0)  # at most two classes are in band at any bin
        for c, name in enumerate(manifest.class_names):
            lo, hi = bands[name]
            in_band = np.flatnonzero((centers >= lo) & (centers <= hi))
            far = np.ones(len(centers), dtype=bool)
            far[max(in_band[0] - 2, 0) : in_band[-1] + 3] = False
            excess = np.abs(profiles[c] - floor)[far]
            assert excess.max() < GAIN_JITTER_NATS / 4, f"{name}: {excess.max():.2f} nats off the floor"

    def test_twins_have_the_most_alike_profiles(self, features_dir, tmp_path):
        def alike(feat):
            data = load_feature_dir(feat)
            return most_alike_profiles(class_mean_profiles(data["train_x"], data["train_y"], data["class_names"]))

        assert alike(features_dir) == (8, 9)
        manifest = synth_fixture(10, 3, tmp_path / "fix", test_per_class=1, seconds=1.0, seed=42, overlap_pair=False)
        extract_dataset(manifest, tmp_path / "fix", tmp_path / "feat", mel_bins=40)
        assert alike(tmp_path / "feat") != (8, 9)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            synth_fixture(11, 4, tmp_path)
        with pytest.raises(ValueError):
            synth_fixture(2, 1, tmp_path)  # no room for a test split
