"""Minimal deterministic reverse-mode neural-network engine.

Feature maps are plain numpy arrays shaped (N, C, H, W); dense
activations are (N, D). Storage dtype is float32 by default with float64
accumulation inside every kernel; pass dtype=float64 to the builders for
fully double-precision graphs (used by gradient checking).
"""
