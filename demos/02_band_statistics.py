#!/usr/bin/env python3
"""Per-mel-bin nearest-mean classification and histogram distance matrices.

Each mel bin acts as a tiny classifier: it predicts the class whose mean
activation profile is closest at that bin. Counting which bins classify
each class correctly yields one histogram per class; distances between
those histograms, pushed through max-normalize -> 1-exp(-k*x) ->
max-normalize -> 1-x, resemble a confusion matrix (large off-diagonal
value = easily confused pair).
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from subspectral.bandstats import histogram_peak, most_alike_profiles, most_similar_pair, pairwise_distances
from subspectral.data import synth_fixture
from subspectral.pipeline import analyze_dataset, extract_dataset

work = Path(tempfile.mkdtemp(prefix="subspectral_demo_"))
atexit.register(shutil.rmtree, work)

# Ten band-limited classes; the last two ("band08", "band09") share 40% of
# their frequency band, so their mean activation profiles are the most
# alike pair. With 3 test clips per class the histogram matrices need not
# single them out: chance hits in out-of-band bins weigh about as much as
# the in-band bins.
manifest = synth_fixture(10, 6, work / "fix", test_per_class=3, seconds=1.0, seed=3)
extract_dataset(manifest, work / "fix", work / "feat", mel_bins=40)
artifacts = analyze_dataset(work / "feat", work / "analysis", k=10.0)

hists = artifacts["histograms"]
print("per-class histogram peaks (median of the mel bins with the most correct classifications):")
for idx, name in enumerate(hists.class_ids):
    print(f"  {name}: peak at bin {histogram_peak(hists.hist[idx]):g}")

pair = most_alike_profiles(artifacts["profiles"])
print(f"\nmost alike class-mean profiles: {hists.class_ids[pair[0]]}, {hists.class_ids[pair[1]]}")

# At k = 10 the transform saturates: 1 - exp(-10 x) is near 1 for all
# but the smallest scaled distances, so most off-diagonal entries print
# near 0. The raw distances on the right keep the spread; the transform
# is monotone, so both sides single out the same pair.
print("\ndistance matrices after the confusion-resemblance transform (k=10), raw distances on the right:")
columns = " ".join(f"{c[-2:]:>6}" for c in hists.class_ids)
for metric, matrix in artifacts["matrices"].items():
    pair = most_similar_pair(matrix)
    names = (hists.class_ids[pair[0]], hists.class_ids[pair[1]])
    raw = pairwise_distances(hists, metric)
    print(f"\n{metric}: most similar pair {names}")
    print(f"          {columns}   |{columns}")
    for name, row, raw_row in zip(hists.class_ids, matrix.values, raw):
        print(f"  {name}  " + " ".join(f"{v:6.3f}" for v in row) + "   |" + " ".join(f"{v:6.2f}" for v in raw_row))

print(f"\nTSV artifacts written under {work / 'analysis'} (removed at exit)")
