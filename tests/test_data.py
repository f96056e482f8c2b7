"""Manifest parsing and synthetic fixture generation."""

import hashlib
import json
import re
import threading

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

# md5 of every file synth_fixture writes, as the one-thread generator
# wrote them (numpy 2.4.6): the two-thread pipeline keeps every byte
GOLDEN_FIXTURES = {
    "10s-stereo-two-clips": (
        dict(classes=1, per_class=2, seconds=10.0, seed=3),
        {
            "audio/band00-000.wav": "997baa89db7561b0582946c9cb0f74f8",
            "audio/band00-001.wav": "597325a2b7ee41cc8d5823b5da387d1d",
            "fixture.json": "655c69aae1b9975a0d1c5815419dd7c8",
            "manifest.tsv": "e0f61bfc048fcfda42d5f81412a40eb4",
        },
    ),
    "1s-stereo": (
        dict(classes=3, per_class=2, seconds=1.0, seed=11),
        {
            "audio/band00-000.wav": "0665a20e246e57b7637380976539b2be",
            "audio/band00-001.wav": "4256b2c35b8ea35e2cbc9ade93de2321",
            "audio/band01-000.wav": "dd4fe9cd4ee08fd4b8eb2f32fef20cb0",
            "audio/band01-001.wav": "23789168860d292ba9c8556de868a7f6",
            "audio/band02-000.wav": "e8558834f4eba66dbe07e67604c201aa",
            "audio/band02-001.wav": "2e1b75dc1f51694a12e61b328916b931",
            "fixture.json": "9eee880e7b9427ff79987090a7909e83",
            "manifest.tsv": "5d89bfdf2cfb685fe8952e767e9d550f",
        },
    ),
    "mono": (
        dict(classes=2, per_class=2, seconds=0.5, channels=1, seed=4),
        {
            "audio/band00-000.wav": "9c7961ac02f14bfe3d1bda83f469fe9e",
            "audio/band00-001.wav": "87f6fafc2f86e95c0fe1c7755809971e",
            "audio/band01-000.wav": "37e28073ac84c6e3bbb8c9da128b669d",
            "audio/band01-001.wav": "181ad7d402fec5b101209b40aa9ac283",
            "fixture.json": "20ae5c817781c25589f734e3d0a2df37",
            "manifest.tsv": "779687bafd1a4e58b727c4a90ef06b66",
        },
    ),
    "2s-11025": (
        dict(classes=2, per_class=3, seconds=2.0, sample_rate=11025, seed=5),
        {
            "audio/band00-000.wav": "3543bdf1c2a68ab3d6de1f9520bc42e6",
            "audio/band00-001.wav": "d810bf992c19386f9b44738b89ebd024",
            "audio/band00-002.wav": "181d9b0037afbc2c3f06aae4c5bb9112",
            "audio/band01-000.wav": "8aab93225556e4e00f63424fa0b90de5",
            "audio/band01-001.wav": "5846d7a83d207f038ebfdbf033549270",
            "audio/band01-002.wav": "65667b42e02331bcb634607518a73a47",
            "fixture.json": "ab5cee780800d2f223106f302f588f6d",
            "manifest.tsv": "8805f0648e4b0458f6fc5bbe43572aeb",
        },
    ),
}


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

    @pytest.mark.parametrize("row", ["\tpark\n", "a.wav\t\n", "a.wav\tmetro/station\n", "a.wav\t/\n"])
    def test_row_that_cannot_name_a_file_errors(self, tmp_path, row):
        # a label names analyze's hist_<label>.tsv, so it must be a file name
        path = tmp_path / "m.tsv"
        path.write_text("b.wav\tpark\n" + row)
        path_cell, label = row.rstrip("\n").split("\t")
        with pytest.raises(ValueError, match=re.escape(f"manifest row {path_cell!r}, {label!r}")):
            parse_manifest(path)
        with pytest.raises(ValueError, match="without '/'"):
            DatasetManifest(entries=[ManifestEntry(path_cell, label, "train")], class_names=[label])

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

    @pytest.mark.parametrize("case", GOLDEN_FIXTURES)
    def test_golden_bytes(self, tmp_path, case):
        kwargs, want = GOLDEN_FIXTURES[case]
        kwargs = dict(kwargs)
        synth_fixture(kwargs.pop("classes"), kwargs.pop("per_class"), tmp_path, **kwargs)
        got = {p.relative_to(tmp_path).as_posix(): hashlib.md5(p.read_bytes()).hexdigest() for p in tmp_path.rglob("*") if p.is_file()}
        assert got == want

    def test_failed_write_leaves_no_manifest_or_thread(self, tmp_path):
        # the third of four clips cannot be written: its path is a directory
        (tmp_path / "audio" / "band01-000.wav").mkdir(parents=True)
        threads = threading.active_count()
        with pytest.raises(IsADirectoryError):
            synth_fixture(2, 2, tmp_path, seconds=0.5, seed=1)
        assert threading.active_count() == threads
        assert not (tmp_path / "manifest.tsv").exists()
        assert not (tmp_path / "audio" / "band01-001.wav").exists()

    @pytest.mark.parametrize("channels", [0, 3])
    def test_channel_count_checked_before_any_file(self, tmp_path, channels):
        with pytest.raises(ValueError, match="channels"):
            synth_fixture(2, 2, tmp_path / "fix", seconds=0.5, channels=channels)
        assert not (tmp_path / "fix").exists()

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
