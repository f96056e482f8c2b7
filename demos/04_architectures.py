#!/usr/bin/env python3
"""Model geometry: band splitting, feature-map shapes, parameter counts.

The published model sizes fall out of the builder exactly: 117,686 for
the plain CNN (40 mel, stereo), 434,966 doubled, 331,560 for the
band-split network 40/20/10 with the compat head, 330,570 without the
per-band heads, and 325,672 with the head rule as printed.
"""

import numpy as np

from subspectral.models import build_model, count_params, global_head_widths, model_description

band = model_description("subspectralnet", 40, 500, 2, sub_size=20, hop_size=10, dropout=0.0)
graph = build_model(band, seed=0)
print(f"split geometry F=40, X=20, Y=10 -> M={len(graph.bands)} crops covering {graph.bands}")

x = np.zeros((1, 2, 40, 500), dtype=np.float32)
lo, hi = graph.bands[0]
h = x[:, :, lo:hi, :]
print(f"each crop: {h.shape[1:]} (channels, bins, frames)\n")

print("feature-map trace through one band trunk (stereo, T=500):")
for layer in graph.trunks[0].layers:
    h = layer.forward(h, train=True)
    print(f"  {layer.name:<14} -> {h.shape[1:]}")

print("\nglobal-head sizing rule (hidden widths):")
for m in (1, 2, 3, 18, 19):
    printed = global_head_widths(m)
    compat = global_head_widths(m, head_compat=True)
    note = "  <- compat differs" if printed != compat else ""
    print(f"  M={m:>2}: printed {printed}, compat {compat}{note}")

print("\nparameter counts:")
base = model_description("baseline", 40, 500, 2)
band = model_description("subspectralnet", 40, 500, 2, sub_size=20, hop_size=10)
rows = [
    ("plain CNN, 40 mel, stereo", base),
    ("plain CNN, doubled widths", dict(base, width_multiplier=2)),
    ("band-split 40/20/10, compat head", dict(band, head_compat=True)),
    ("  same, global head only", dict(band, head_compat=True, include_sub_heads=False)),
    ("band-split 40/20/10, printed rule", band),
    ("band-split 200/30/10, compat head", model_description("subspectralnet", 200, 500, 2, sub_size=30, head_compat=True)),
]
for name, desc in rows:
    print(f"  {name:<36} {count_params(build_model(desc)):>9,}")

print("\nper-layer table for the plain CNN:")
for row in build_model(base).layer_table():
    print(f"  {row['name']:<16}{row['kind']:<12}{row['params']:>8,}")
