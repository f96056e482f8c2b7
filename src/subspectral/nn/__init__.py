"""Minimal deterministic reverse-mode neural-network engine.

Feature maps are plain numpy arrays shaped (N, C, H, W); dense
activations are (N, D). Storage dtype is float32 by default with float64
accumulation inside every kernel; pass dtype=float64 to the builders for
fully double-precision graphs (used by gradient checking).
"""

from . import functional
from .gradcheck import GradCheckReport, grad_check, relative_error, sample_coords
from .layers import (
    BatchNorm2d,
    Conv2dSame,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2d,
    Parameter,
    ReLU,
    Sequential,
    glorot_uniform,
)
from .optim import ParamStore, adam_step

__all__ = [
    "BatchNorm2d",
    "Conv2dSame",
    "Dense",
    "Dropout",
    "Flatten",
    "GradCheckReport",
    "Layer",
    "MaxPool2d",
    "ParamStore",
    "Parameter",
    "ReLU",
    "Sequential",
    "adam_step",
    "functional",
    "glorot_uniform",
    "grad_check",
    "relative_error",
    "sample_coords",
]
