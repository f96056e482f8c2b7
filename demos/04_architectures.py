#!/usr/bin/env python3
"""Model geometry: band splitting, feature-map shapes, parameter counts.

The published model sizes fall out of the builders exactly: 117,686 for
the plain CNN (40 mel, stereo), 434,966 doubled, 331,560 for the
band-split network 40/20/10 with the compat head, 330,570 without the
per-band heads, and 325,672 with the head rule as printed.
"""

import numpy as np

from subspectral.models import (
    SubSpectralConfig,
    build_baseline,
    build_subspectralnet,
    count_params,
    global_head_widths,
    split_subspectrograms,
)

cfg = SubSpectralConfig(40, 20, 10)
print(f"split geometry F=40, X=20, Y=10 -> M={cfg.crop_count} crops covering {cfg.crop_ranges()}")

x = np.zeros((1, 2, 40, 500), dtype=np.float32)
crops = split_subspectrograms(x, cfg)
print(f"each crop: {crops[0].shape[1:]} (channels, bins, frames)\n")

print("feature-map trace through one band trunk (stereo, T=500):")
graph = build_subspectralnet(cfg, 500, 2, dropout=0.0, seed=0)
h = crops[0]
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
rows = [
    ("plain CNN, 40 mel, stereo", count_params(build_baseline(40, 500, 2))),
    ("plain CNN, doubled widths", count_params(build_baseline(40, 500, 2, width_multiplier=2))),
    ("band-split 40/20/10, compat head", count_params(build_subspectralnet(cfg, 500, 2, head_compat=True))),
    ("  same, global head only", count_params(build_subspectralnet(cfg, 500, 2, head_compat=True, include_sub_heads=False))),
    ("band-split 40/20/10, printed rule", count_params(build_subspectralnet(cfg, 500, 2))),
    ("band-split 200/30/10, compat head", count_params(build_subspectralnet(SubSpectralConfig(200, 30, 10), 500, 2, head_compat=True))),
]
for name, count in rows:
    print(f"  {name:<36} {count:>9,}")

print("\nper-layer table for the plain CNN:")
for row in build_baseline(40, 500, 2).layer_table():
    print(f"  {row['name']:<16}{row['kind']:<12}{row['params']:>8,}")
