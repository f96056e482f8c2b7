#!/usr/bin/env python3
"""End-to-end training on the synthetic fixture (about half a minute of CPU).

Trains the band-split network on 10 classes of band-limited noise and
reports per-head accuracies: each sub-classifier can only separate the
classes whose bands intersect its crop, so the global head should win.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from subspectral.data import synth_fixture
from subspectral.pipeline import extract_dataset, load_feature_dir
from subspectral.training import TrainConfig, train_model

work = Path(tempfile.mkdtemp(prefix="subspectral_demo_"))
atexit.register(shutil.rmtree, work)
manifest = synth_fixture(10, 6, work / "fix", test_per_class=3, seconds=1.0, seed=11)
extract_dataset(manifest, work / "fix", work / "feat", mel_bins=40)
data = load_feature_dir(work / "feat")
print(f"train {data['train_x'].shape}, test {data['test_x'].shape}\n")

cfg = TrainConfig(epochs=40, repeats=1, seed=0, sub_size=20, hop_size=10)
print(f"training band-split net ({cfg.epochs} epochs, batch {cfg.batch_size}, lr {cfg.lr}) ...")
result = train_model(data["train_x"], data["train_y"], data["test_x"], data["test_y"], cfg, data["class_names"])

history = result.histories[0]
print("\nepoch  loss    train_acc  test_acc(global)")
for epoch in range(0, cfg.epochs, 5):
    print(
        f"{epoch:>5}  {history.epoch_loss[epoch]:<7.3f} {history.train_accuracy[epoch]:<10.2f}"
        f"{history.test_accuracy['global'][epoch]:.2f}"
    )

print(f"\nbest global test accuracy {history.best_accuracy:.2f} at epoch {history.best_epoch}")
print("\nper-head accuracy at the saved checkpoint (bands in mel bins):")
bands = {f"sub{i}": band for i, band in enumerate(result.graph.bands)}
for head, acc in result.final_report.accuracy.items():
    band = f" bins {bands[head]}" if head in bands else ""
    print(f"  {head:<8}{acc:.2f}{band}")

ckpt = work / "model.ssnw"
result.graph.save(ckpt, meta={"best_accuracy": history.best_accuracy})
print(f"\ncheckpoint written to {ckpt} (removed at exit)")
