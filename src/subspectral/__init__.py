"""Sub-spectrogram CNN toolkit for acoustic scene classification.

Pieces: a log mel-energy feature frontend with bin-wise normalization,
per-mel-bin activation statistics with histogram distance matrices, a
deterministic numpy neural-network engine, band-split model builders with
verified parameter counts, and training/evaluation harnesses. Import
from the modules (subspectral.features, subspectral.models,
subspectral.training, ...); the package root exports nothing.
"""
