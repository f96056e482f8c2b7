"""Band statistics: profiles, per-bin classifiers, histogram distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspectral.bandstats import (
    KL_SMOOTHING,
    BinHistogramSet,
    ClassProfileSet,
    bin_histograms,
    class_mean_profiles,
    confusion_like_matrix,
    histogram_peak,
    most_alike_profiles,
    most_similar_pair,
    pairwise_distances,
    per_bin_classify,
    write_histograms_tsv,
)
from subspectral.storage import write_class_matrix

F_BINS = 6


def spec_of(value_per_bin, frames=4, channels=2, jitter=None):
    data = np.tile(np.asarray(value_per_bin, dtype=np.float64)[None, :, None], (channels, 1, frames))
    if jitter is not None:
        data = data + jitter
    return data


class TestProfiles:
    def test_one_constant_sample_per_class(self):
        feats = np.stack([spec_of([v] * F_BINS) for v in (1.0, -2.0, 0.5)])
        profiles = class_mean_profiles(feats, [0, 1, 2], ["a", "b", "c"])
        np.testing.assert_allclose(profiles.profiles[0], 1.0)
        np.testing.assert_allclose(profiles.profiles[1], -2.0)
        np.testing.assert_allclose(profiles.profiles[2], 0.5)

    def test_two_samples_average(self):
        feats = np.stack([spec_of([1.0] * F_BINS), spec_of([3.0] * F_BINS)])
        profiles = class_mean_profiles(feats, [0, 0], ["only"])
        np.testing.assert_allclose(profiles.profiles[0], 2.0)

    def test_matches_concatenate_then_mean_oracle(self, rng):
        feats = rng.standard_normal((15, 2, F_BINS, 7))
        labels = rng.integers(0, 3, 15)
        while len(set(labels.tolist())) < 3:
            labels = rng.integers(0, 3, 15)
        profiles = class_mean_profiles(feats, labels, ["a", "b", "c"])
        for c in range(3):
            stacked = np.concatenate([f.mean(axis=0) for f, l in zip(feats, labels) if l == c], axis=1)
            np.testing.assert_allclose(profiles.profiles[c], stacked.mean(axis=1), rtol=1e-9, atol=1e-12)

    def test_missing_class_errors(self):
        feats = spec_of([1.0] * F_BINS)[None]
        with pytest.raises(ValueError, match="zero samples"):
            class_mean_profiles(feats, [0], ["present", "missing"])


class TestPerBinClassify:
    def test_exact_profile_match(self, rng):
        profiles = ClassProfileSet(class_ids=list("abcde"), profiles=rng.standard_normal((5, F_BINS)))
        preds = per_bin_classify(spec_of(profiles.profiles[3]), profiles)
        assert np.all(preds == 3)

    def test_two_class_nearest_mean(self):
        profiles = ClassProfileSet(class_ids=["lo", "hi"], profiles=np.array([[0.0] * F_BINS, [1.0] * F_BINS]))
        preds = per_bin_classify(spec_of([0.4] * F_BINS), profiles)
        assert np.all(preds == 0)
        preds = per_bin_classify(spec_of([0.6] * F_BINS), profiles)
        assert np.all(preds == 1)

    def test_tie_breaks_to_lowest_index(self):
        profiles = ClassProfileSet(class_ids=["a", "b"], profiles=np.array([[1.0], [-1.0]]))
        assert per_bin_classify(spec_of([0.0]), profiles)[0] == 0

    def test_matches_bruteforce_distance_table(self, rng):
        profiles = ClassProfileSet(class_ids=list(range(7)), profiles=rng.standard_normal((7, F_BINS)))
        test = rng.standard_normal((2, F_BINS, 9))
        preds = per_bin_classify(test, profiles)
        summary = test.mean(axis=2).mean(axis=0)
        for f in range(F_BINS):
            table = [(summary[f] - profiles.profiles[c, f]) ** 2 for c in range(7)]
            assert preds[f] == int(np.argmin(table))

    def test_stack_matches_clip_by_clip(self, rng):
        profiles = ClassProfileSet(class_ids=list(range(5)), profiles=rng.standard_normal((5, F_BINS)) * 0.3)
        stack = rng.standard_normal((12, 2, F_BINS, 9)).astype(np.float32)
        preds = per_bin_classify(stack, profiles)
        assert preds.shape == (12, F_BINS)
        for clip, row in zip(stack, preds):
            np.testing.assert_array_equal(row, per_bin_classify(clip, profiles))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["test features", "class profiles"])
    def test_non_finite_value_is_rejected(self, rng, where, value):
        profiles = ClassProfileSet(class_ids=list(range(3)), profiles=rng.standard_normal((3, F_BINS)))
        stack = rng.standard_normal((4, 2, F_BINS, 9)).astype(np.float32)
        if where == "test features":
            stack[1, 1, 2, 5] = value
        else:
            profiles.profiles[1, 2] = value
        with pytest.raises(ValueError, match=f"{where} hold a non-finite value"):
            per_bin_classify(stack, profiles)

    @given(scale=st.floats(0.1, 10.0), shift=st.floats(-5.0, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_positive_affine_transform(self, scale, shift):
        rng = np.random.default_rng(7)
        profiles = rng.standard_normal((4, F_BINS))
        test = rng.standard_normal((1, F_BINS, 3))
        base = per_bin_classify(test, ClassProfileSet(class_ids=list(range(4)), profiles=profiles))
        mapped = per_bin_classify(
            test * scale + shift,
            ClassProfileSet(class_ids=list(range(4)), profiles=profiles * scale + shift),
        )
        assert np.array_equal(base, mapped)


class TestBinHistograms:
    def make_profiles(self, rng, n_classes=3):
        return ClassProfileSet(class_ids=list(range(n_classes)), profiles=rng.standard_normal((n_classes, F_BINS)) * 3)

    def test_perfect_test_set_gives_all_ones(self, rng):
        profiles = self.make_profiles(rng)
        test = np.stack([spec_of(profiles.profiles[c]) for c in range(3)])
        hists = bin_histograms(test, [0, 1, 2], profiles)
        np.testing.assert_allclose(hists.hist, 1.0)

    def test_never_correct_bin_is_zero(self):
        profiles = ClassProfileSet(class_ids=[0, 1], profiles=np.array([[0.0, 0.0], [4.0, 4.0]]))
        # class-0 clips sit exactly on class 1 at bin 1
        clips = np.stack([spec_of([0.0, 4.0]), spec_of([4.0, 4.0])])
        hists = bin_histograms(clips, [0, 1], profiles)
        assert hists.hist[0, 1] == 0.0
        assert hists.hist[0, 0] == 1.0

    def test_class_absent_from_test_set_errors(self, rng):
        profiles = self.make_profiles(rng)
        with pytest.raises(ValueError, match="absent"):
            bin_histograms(spec_of(profiles.profiles[0])[None], [0], profiles)

    def test_order_invariant(self, rng):
        profiles = self.make_profiles(rng)
        clips = np.stack([spec_of(profiles.profiles[c % 3], jitter=rng.standard_normal((2, F_BINS, 4)) * 0.5) for c in range(9)])
        labels = np.arange(9) % 3
        a = bin_histograms(clips, labels, profiles)
        order = rng.permutation(9)
        b = bin_histograms(clips[order], labels[order], profiles)
        np.testing.assert_array_equal(a.hist, b.hist)

    def test_matches_clip_by_clip_reference(self, rng):
        profiles = self.make_profiles(rng, n_classes=4)
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 2, 2, 1])
        clips = np.stack([spec_of(profiles.profiles[c], jitter=rng.standard_normal((2, F_BINS, 4)) * 2.0) for c in labels])
        counts = np.zeros((4, F_BINS))
        for clip, label in zip(clips, labels):
            counts[label] += per_bin_classify(clip, profiles) == label
        reference = counts / counts.max(axis=1, keepdims=True)
        assert np.unique(reference).size > 2  # the jitter makes some bins wrong for some clips
        np.testing.assert_array_equal(bin_histograms(clips, labels, profiles).hist, reference)

    def test_labels_must_match_the_stack(self, rng):
        profiles = self.make_profiles(rng)
        clips = np.stack([spec_of(profiles.profiles[c]) for c in range(3)])
        with pytest.raises(ValueError, match="one label per sample"):
            bin_histograms(clips, [0, 1, 2, 0], profiles)
        with pytest.raises(ValueError, match="one label per sample"):
            bin_histograms(clips[0], [0, 1], profiles)

    def test_max_normalization(self, rng):
        profiles = self.make_profiles(rng)
        clips, labels = [], []
        for c in range(3):
            clips.append(spec_of(profiles.profiles[c]))
            labels.append(c)
            clips.append(spec_of(profiles.profiles[(c + 1) % 3]))  # always wrong
            labels.append(c)
        hists = bin_histograms(np.stack(clips), labels, profiles)
        assert np.all(hists.hist.max(axis=1) == 1.0)


def histogram_distance(p, q, metric):
    """Distance between two histograms: the off-diagonal entry of their
    two-class pairwise_distances."""
    return pairwise_distances(BinHistogramSet(class_ids=[0, 1], hist=np.array([p, q])), metric)[0, 1]


def scalar_distance(p, q, metric):
    """Per-pair reference: one histogram pair at a time, each row scaled
    to unit mass on its own."""
    if metric == "chisq":
        num, denom = (p - q) ** 2, p + q
        return 0.5 * float(np.divide(num, denom, out=np.zeros_like(num), where=denom > 0).sum())
    p, q = p / p.sum(), q / q.sum()
    if metric == "hellinger":
        return float(np.sqrt(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)) / np.sqrt(2.0))
    p, q = p + KL_SMOOTHING, q + KL_SMOOTHING
    p, q = p / p.sum(), q / q.sum()
    return 0.5 * float(np.sum(p * np.log(p / q)) + np.sum(q * np.log(q / p)))


class TestHistogramDistance:
    def test_identical_histograms_are_zero(self, rng):
        h = rng.uniform(0, 1, 20)
        for metric in ("chisq", "kl", "hellinger"):
            assert histogram_distance(h, h, metric) == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_support_closed_forms(self):
        p = np.array([0.5, 0.5, 0.0, 0.0])
        q = np.array([0.0, 0.0, 0.5, 0.5])
        assert histogram_distance(p, q, "hellinger") == pytest.approx(1.0, abs=1e-9)
        assert histogram_distance(p, q, "chisq") == pytest.approx(1.0, abs=1e-9)

    def test_chisq_hand_value(self):
        # 0.5 * [(0.5^2 / 1.5) + (0.5^2 / 0.5)] = 1/3
        assert histogram_distance([1.0, 0.0], [0.5, 0.5], "chisq") == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_negative_entries_error(self):
        # BinHistogramSet, the only input of pairwise_distances, keeps every value in [0, 1]
        with pytest.raises(ValueError, match="lie in"):
            histogram_distance([0.5, -0.1], [0.5, 0.5], "chisq")

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            histogram_distance([1.0], [1.0], "cosine")

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0, 1, 12)
        q = rng.uniform(0, 1, 12)
        p[rng.integers(0, 12)] = 0.0
        for metric in ("chisq", "kl", "hellinger"):
            d_pq = histogram_distance(p, q, metric)
            d_qp = histogram_distance(q, p, metric)
            assert d_pq >= 0
            assert d_pq == pytest.approx(d_qp, rel=1e-9, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matrix_equals_per_pair_reference_bytes(self, seed):
        # random sets up to 10 classes x 256 bins, with empty bins and the
        # 1/3-step ties that few test clips give
        rng = np.random.default_rng(seed)
        n, bins = int(rng.integers(2, 11)), int(rng.integers(1, 257))
        hist = rng.integers(0, 4, (n, bins)) / 3.0 if seed % 2 else rng.uniform(0, 1, (n, bins))
        hist[rng.uniform(size=hist.shape) < 0.3] = 0.0
        hist[:, rng.integers(0, bins)] = 1.0
        hists = BinHistogramSet(class_ids=list(range(n)), hist=hist)
        for metric in ("chisq", "kl", "hellinger"):
            reference = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if i != j:
                        reference[i, j] = scalar_distance(hist[i], hist[j], metric)
            assert pairwise_distances(hists, metric).tobytes() == reference.tobytes()


def toy_hists():
    """Three classes engineered so pair (1, 2) is clearly most similar."""
    return BinHistogramSet(
        class_ids=[0, 1, 2],
        hist=np.array(
            [
                [1.0, 0.8, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.7, 0.1, 0.0],
                [0.0, 0.0, 0.9, 1.0, 0.2, 0.1],
            ]
        ),
    )


class TestConfusionLikeMatrix:
    def test_three_class_toy_frozen_values(self, monkeypatch):
        # frozen from an independent scalar evaluation of the pipeline on
        # raw distances d12=1, d13=0.5, d23=0.25 with k=10
        hists = BinHistogramSet(class_ids=[0, 1, 2], hist=np.eye(3))
        raw = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.25], [0.5, 0.25, 0.0]])
        monkeypatch.setattr("subspectral.bandstats.pairwise_distances", lambda h, m: raw.copy())
        matrix = confusion_like_matrix(hists, "chisq", k=10.0)
        np.testing.assert_allclose(matrix.values[0, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(matrix.values[0, 2], 0.0066928509, atol=1e-9)
        np.testing.assert_allclose(matrix.values[1, 2], 0.0820433235, atol=1e-9)
        np.testing.assert_allclose(np.diag(matrix.values), 1.0)

    def test_two_class_toy_off_diagonal_zero(self):
        hists = BinHistogramSet(class_ids=[0, 1], hist=np.array([[1.0, 0.0], [0.0, 1.0]]))
        matrix = confusion_like_matrix(hists, "chisq", k=10.0)
        assert matrix.values[0, 1] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(np.diag(matrix.values), 1.0)

    @pytest.mark.parametrize("metric", ["chisq", "kl", "hellinger"])
    def test_pipeline_algebra(self, metric):
        matrix = confusion_like_matrix(toy_hists(), metric, k=10.0)
        values = matrix.values
        np.testing.assert_allclose(values, values.T)
        np.testing.assert_allclose(np.diag(values), 1.0)
        assert np.all(values >= 0) and np.all(values <= 1)

    def test_monotone_reversal(self):
        # larger raw distance => smaller final entry
        hists = toy_hists()
        for metric in ("chisq", "kl", "hellinger"):
            raw = pairwise_distances(hists, metric)
            final = confusion_like_matrix(hists, metric, k=10.0).values
            iu = np.triu_indices(3, 1)
            order_raw = np.argsort(raw[iu])
            order_final = np.argsort(-final[iu])
            np.testing.assert_array_equal(order_raw, order_final)

    def test_metrics_agree_on_most_similar_pair(self):
        pairs = {m: most_similar_pair(confusion_like_matrix(toy_hists(), m, k=10.0)) for m in ("chisq", "kl", "hellinger")}
        assert set(pairs.values()) == {(1, 2)}

    def test_single_class_errors(self):
        hists = BinHistogramSet(class_ids=[0], hist=np.ones((1, 4)))
        with pytest.raises(ValueError, match="zero"):
            confusion_like_matrix(hists, "chisq", 10.0)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k"):
            confusion_like_matrix(toy_hists(), "chisq", 0.0)

    def test_larger_k_shrinks_off_diagonals(self):
        hists = toy_hists()
        a = confusion_like_matrix(hists, "chisq", k=2.0).values
        b = confusion_like_matrix(hists, "chisq", k=50.0).values
        iu = np.triu_indices(3, 1)
        assert np.all(b[iu] <= a[iu] + 1e-12)


class TestHistogramPeak:
    def test_single_maximum(self):
        assert histogram_peak([0.0, 1 / 3, 1.0, 2 / 3]) == 2.0

    def test_tied_maxima_give_their_median(self):
        assert histogram_peak([0.0, 1.0, 0.0, 1.0, 1.0, 0.0]) == 3.0
        assert histogram_peak([0.0, 1.0, 0.0, 0.0, 1.0, 0.0]) == 2.5

    def test_reversal_mirrors_the_peak(self):
        # no preference for either end, unlike np.argmax's lowest tied bin
        row = np.array([1.0, 0.0, 2 / 3, 1.0, 1.0, 0.0, 1 / 3])
        assert histogram_peak(row[::-1]) == len(row) - 1 - histogram_peak(row)


class TestMostAlikeProfiles:
    def test_classes_sharing_a_band_pair_up(self):
        profiles = ClassProfileSet(
            class_ids=["a", "b", "c", "d"],
            profiles=np.array(
                [
                    [5.0, 5.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 5.0, 5.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 5.0, 5.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0, 0.0, 5.0],
                ]
            ),
        )
        assert most_alike_profiles(profiles) == (1, 2)

    def test_invariant_to_per_class_offset_and_scale(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((4, 8))
        base[3] = base[1] + 0.1 * rng.standard_normal(8)
        shifted = base * np.array([[1.0], [2.0], [0.5], [3.0]]) + np.array([[4.0], [-1.0], [0.0], [7.0]])
        assert most_alike_profiles(ClassProfileSet(list(range(4)), shifted)) == (1, 3)


class TestTsvOutputs:
    def test_histograms_table(self, tmp_path):
        hists = toy_hists()
        path = tmp_path / "h.tsv"
        write_histograms_tsv(path, hists)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "bin\t0\t1\t2"
        assert len(lines) == 1 + hists.hist.shape[1]

    def test_matrix_table(self, tmp_path):
        matrix = confusion_like_matrix(toy_hists(), "chisq", 10.0)
        path = tmp_path / "m.tsv"
        write_class_matrix(path, matrix.values, ["a", "b", "c"])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "class\ta\tb\tc"
        assert lines[1].startswith("a\t1\t")
