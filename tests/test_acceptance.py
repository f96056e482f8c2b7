"""Acceptance suite. One test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria:

1. parameter-count reproduction (exact arithmetic)
2. gradient correctness over >= 20 seeds, f32 < 1e-4 / f64 < 1e-7
3. architecture shape traces for three split geometries
4. desk-scale learning on the synthetic band fixture (< 15 min)
5. band-statistics pipeline on the same fixture
6. bit-identical determinism
7. explicit statement of what desk scale cannot reproduce
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from subspectral.bandstats import histogram_peak, most_alike_profiles, most_similar_pair
from subspectral.cli import main
from subspectral.data import synth_fixture
from subspectral.features import mel_edge_frequencies
from subspectral.models import build_model, count_params, model_description
from subspectral.pipeline import analyze_dataset, extract_dataset, load_feature_dir
from subspectral.training import TrainConfig, train_model
from subspectral.verification import run_gradient_suite


def report(criterion, ok, detail):
    print(f"\n[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def within(value, target, tolerance=0.02):
    return abs(value - target) / target <= tolerance


# -- criterion 1 -------------------------------------------------------


def test_criterion_1_parameter_counts():
    base = model_description("baseline", 40, 500, 2)
    baseline = count_params(build_model(base))
    doubled = count_params(build_model(dict(base, width_multiplier=2)))
    band = model_description("subspectralnet", 40, 500, 2, sub_size=20, hop_size=10)
    compat = count_params(build_model(dict(band, head_compat=True)))
    no_sub = count_params(build_model(dict(band, head_compat=True, include_sub_heads=False)))
    printed = count_params(build_model(dict(band, head_compat=False)))
    checks = [
        (within(baseline, 117_000), f"baseline {baseline} vs 117K"),
        (within(doubled, 434_000), f"doubled baseline {doubled} vs 434K"),
        (within(compat, 331_000), f"band-split compat {compat} vs 331K"),
        (within(no_sub, 330_000), f"global-head-only {no_sub} vs 330K"),
        (printed == 325_672, f"printed-formula sizing {printed} vs closed-form 325672"),
        (baseline == 117_686, f"baseline closed-form {baseline} vs 117686"),
        (doubled == 434_966, f"doubled closed-form {doubled} vs 434966"),
        (compat == 331_560, f"compat closed-form {compat} vs 331560"),
        (no_sub == 330_570, f"global-only closed-form {no_sub} vs 330570"),
    ]
    ok = all(c for c, _ in checks)
    report(1, ok, "; ".join(msg for _, msg in checks))


# -- criterion 2 -------------------------------------------------------


def test_criterion_2_gradient_correctness():
    start = time.time()
    entries = run_gradient_suite(seeds=range(20))
    elapsed = time.time() - start
    worst_by_dtype = {"float32": 0.0, "float64": 0.0}
    for e in entries:
        worst_by_dtype[e.dtype] = max(worst_by_dtype[e.dtype], e.report.max_rel_error)
    failures = [e for e in entries if not e.passed]
    ok = not failures and elapsed < 300
    report(
        2,
        ok,
        f"{len(entries)} checks over 20 seeds in {elapsed:.0f}s; "
        f"max rel err f32 {worst_by_dtype['float32']:.2e} (tol 1e-4), "
        f"f64 {worst_by_dtype['float64']:.2e} (tol 1e-7)",
    )


# -- criterion 3 -------------------------------------------------------


def trace_oracle(sub_size, frames):
    """Hand dimension arithmetic for one band trunk (stereo input)."""
    f0, t0 = sub_size, frames
    f1, t1 = f0 // (sub_size // 10), t0 // 5
    f2, t2 = f1 // 4, t1 // 100
    return {
        "conv1": (32, f0, t0),
        "pool1": (32, f1, t1),
        "conv2": (64, f1, t1),
        "pool2": (64, f2, t2),
        "flatten": (64 * f2 * t2,),
        "dense1": (32,),
    }


@pytest.mark.parametrize("mel_bins,sub,hop,expected_m", [(40, 20, 10, 3), (200, 30, 10, 18), (200, 20, 10, 19)])
def test_criterion_3_shape_traces(mel_bins, sub, hop, expected_m):
    graph = build_model(model_description("subspectralnet", mel_bins, 500, 2, sub_size=sub, hop_size=hop, dropout=0.0), seed=0)
    crop_count = len(graph.bands)
    m_ok = crop_count == expected_m
    x = np.random.default_rng(0).standard_normal((1, 2, mel_bins, 500)).astype(np.float32)
    crops = [x[:, :, lo:hi, :] for lo, hi in graph.bands]
    oracle = trace_oracle(sub, 500)
    mismatches = []
    h = crops[0]
    for layer in graph.trunks[0].layers:
        h = layer.forward(h, train=True)
        key = layer.name.split(".")[-1]
        if key in oracle and h.shape[1:] != oracle[key]:
            mismatches.append(f"{key}: {h.shape[1:]} != {oracle[key]}")
    concat_width = 32 * crop_count
    probs = graph.forward(x, train=True)
    head_ok = len(probs) == crop_count + 1
    global_in = graph.global_head.layers[0].in_features
    ok = m_ok and not mismatches and head_ok and global_in == concat_width
    report(
        3,
        ok,
        f"(F={mel_bins}, X={sub}, Y={hop}): M={crop_count} (want {expected_m}), "
        f"trunk shapes match oracle, concat width {global_in} == 32*M={concat_width}",
    )


# -- criteria 4 + 5 share one fixture ----------------------------------

SEEDS = 3
EPOCHS = 80  # convergence lands by ~epoch 30; well inside the 200-epoch budget


@dataclass
class DeskRuns:
    features: dict
    features_dir: object
    fixture_dir: object
    ssn: object
    base: object
    minutes: float


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    start = time.time()
    manifest = synth_fixture(10, 6, root / "fix", test_per_class=3, seconds=1.0, seed=2024)
    extract_dataset(manifest, root / "fix", root / "feat", mel_bins=40)
    data = load_feature_dir(root / "feat")
    ssn = train_model(
        data["train_x"],
        data["train_y"],
        data["test_x"],
        data["test_y"],
        TrainConfig(epochs=EPOCHS, repeats=SEEDS, seed=100),
        data["class_names"],
    )
    base = train_model(
        data["train_x"],
        data["train_y"],
        data["test_x"],
        data["test_y"],
        TrainConfig(epochs=EPOCHS, repeats=SEEDS, seed=100, model="baseline", width_multiplier=2),
        data["class_names"],
    )
    minutes = (time.time() - start) / 60
    return DeskRuns(data, root / "feat", root / "fix", ssn, base, minutes)


def test_criterion_4_desk_scale_learning(desk_runs):
    memorized = []
    global_beats_all_subs = 0
    details = []
    for history in desk_runs.ssn.histories:
        best_train = max(history.train_accuracy)
        memorized.append(best_train >= 0.95)
        at_best = {head: curve[history.best_epoch] for head, curve in history.test_accuracy.items()}
        sub_accs = [v for k, v in at_best.items() if k != "global"]
        beats = all(at_best["global"] > v for v in sub_accs)
        global_beats_all_subs += beats
        details.append(
            f"seed {history.run_seed}: train {best_train:.2f}, global {at_best['global']:.2f}, "
            f"subs {[f'{v:.2f}' for k, v in sorted(at_best.items()) if k != 'global']}"
        )
    ok = all(memorized) and global_beats_all_subs >= 2 and desk_runs.minutes < 15
    report(
        4,
        ok,
        f">=95% train acc in {sum(memorized)}/{SEEDS} seeds within {EPOCHS} epochs; global beats every "
        f"sub-head in {global_beats_all_subs}/{SEEDS} seeds; fixture+training took {desk_runs.minutes:.1f} min. "
        + " | ".join(details),
    )


def test_epoch_curve_auc_dominance(desk_runs):
    # qualitative convergence claim: the band-split global head should
    # dominate the doubled-width plain CNN in accuracy-vs-epoch AUC. The
    # two are not parameter-matched: 325,672 parameters for the band-split
    # net (printed head sizing) against 434,966 for the doubled CNN
    wins = 0
    pairs = []
    for ssn_h, base_h in zip(desk_runs.ssn.histories, desk_runs.base.histories):
        auc_ssn = float(np.mean(ssn_h.test_accuracy["global"]))
        auc_base = float(np.mean(base_h.test_accuracy["global"]))
        wins += auc_ssn >= auc_base
        pairs.append(f"{auc_ssn:.3f} vs {auc_base:.3f}")
    assert wins >= 2, f"band-split AUC should win in most seeds: {pairs}"
    print(f"\n[INVARIANT] epoch-curve AUC (band-split vs doubled plain CNN): {pairs}, wins {wins}/{SEEDS}")


def test_criterion_5_band_statistics(desk_runs, tmp_path):
    artifacts = analyze_dataset(desk_runs.features_dir, tmp_path / "analysis", k=10.0)
    hists = artifacts["histograms"]
    bands = json.loads((desk_runs.fixture_dir / "fixture.json").read_text())["bands_hz"]
    edges = mel_edge_frequencies(40, 48000)
    centers = edges[1:-1]
    peak_ok = []
    for idx, name in enumerate(hists.class_ids):
        lo, hi = bands[name]
        # with 3 test clips a row only takes the values {0, 1/3, 2/3, 1}, so
        # several bins tie for the maximum and np.argmax would report the
        # lowest of them; histogram_peak takes their median instead, and a
        # peak halfway between two bins lies halfway between their centres
        peak_hz = np.interp(histogram_peak(hists.hist[idx]), np.arange(len(centers)), centers)
        peak_ok.append(lo <= peak_hz <= hi)
    matrices = artifacts["matrices"]
    algebra_ok = True
    for matrix in matrices.values():
        v = matrix.values
        algebra_ok &= np.allclose(v, v.T) and np.allclose(np.diag(v), 1.0) and v.min() >= 0 and v.max() <= 1
    # the twins (8, 9) share 40% of their band, so their class-mean
    # profiles are the most alike pair. The histogram matrices do not single
    # them out at 3 test clips per class (chance hits in out-of-band bins
    # weigh about as much as the in-band bins), so their most similar pairs
    # are reported, not checked.
    twins = most_alike_profiles(artifacts["profiles"])
    pairs = {name: most_similar_pair(m) for name, m in matrices.items()}
    ok = all(peak_ok) and algebra_ok and twins == (8, 9)
    report(
        5,
        ok,
        f"histogram peak inside generated band for {sum(peak_ok)}/10 classes; "
        f"matrix algebra (symmetric, unit diagonal, [0,1]) {'ok' if algebra_ok else 'violated'}; "
        f"most alike class-mean profiles {twins} (expected twins (8, 9)); "
        f"most-similar pair per metric {pairs}",
    )


# -- criterion 6 -------------------------------------------------------


def test_criterion_6_determinism(tmp_path):
    artifacts = []
    for tag in ("a", "b"):
        base = tmp_path / tag
        main(["synth", "--classes", "3", "--per-class", "2", "--seconds", "0.5", "--seed", "77", "--out", str(base / "fix")])
        main(
            [
                "extract",
                "--manifest",
                str(base / "fix" / "manifest.tsv"),
                "--audio-root",
                str(base / "fix"),
                "--out",
                str(base / "feat"),
            ]
        )
        main(
            [
                "train",
                "--features",
                str(base / "feat"),
                "--out",
                str(base / "run"),
                "--epochs",
                "3",
                "--repeats",
                "1",
                "--seed",
                "5",
            ]
        )
        artifacts.append(
            (
                (base / "feat" / "train.ssnf").read_bytes(),
                (base / "run" / "model.ssnw").read_bytes(),
                (base / "run" / "report.tsv").read_text(),
                (base / "run" / "curves_seed5.tsv").read_text(),
            )
        )
    features_same = artifacts[0][0] == artifacts[1][0]
    checkpoint_same = artifacts[0][1] == artifacts[1][1]
    reports_same = artifacts[0][2] == artifacts[1][2] and artifacts[0][3] == artifacts[1][3]
    ok = features_same and checkpoint_same and reports_same
    report(
        6,
        ok,
        f"byte-identical repeat runs: features {features_same}, checkpoint {checkpoint_same}, reports {reports_same}",
    )


# -- criterion 7 -------------------------------------------------------


def test_criterion_7_full_scale_protocol_documented():
    from pathlib import Path

    cfg = TrainConfig()
    protocol_ok = cfg.epochs == 200 and cfg.lr == 1e-3 and cfg.repeats == 3
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = "DCASE" in readme and "desk" in readme.lower()
    report(
        7,
        protocol_ok and documented,
        "published DCASE 2018 accuracies (65.66% plain stereo CNN, 72.18% band-split 40/20/10, 74.08% "
        "200/30/10, 66.79% doubled CNN, 71.94% 200-mel CNN) need the full dataset and long training and are "
        "NOT reproduced at desk scale; the harness keeps the full protocol (Adam, lr 0.001, 200 epochs, "
        "3 repeats, average-best) for users who supply the dataset",
    )
