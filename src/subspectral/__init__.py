"""Sub-spectrogram CNN toolkit for acoustic scene classification.

Pieces: a log mel-energy feature frontend with bin-wise normalization,
per-mel-bin activation statistics with histogram distance matrices, a
deterministic numpy neural-network engine, band-split model builders with
verified parameter counts, and training/evaluation harnesses.
"""

from .audio import AudioClip, UnsupportedWavError, WavFormatError, load_wav, save_wav, to_mono
from .bandstats import (
    BinHistogramSet,
    ClassProfileSet,
    DistanceMatrix,
    bin_histograms,
    class_mean_profiles,
    confusion_like_matrix,
    histogram_distance,
    most_similar_pair,
    per_bin_classify,
)
from .data import DatasetManifest, ManifestEntry, parse_manifest, parse_manifest_pair, synth_fixture
from .features import (
    BinNormalizer,
    MelConfig,
    Spectrogram,
    StftConfig,
    apply_normalizer,
    fit_normalizer,
    log_mel_spectrogram,
    mel_filterbank,
)
from .models import (
    ModelGraph,
    build_model,
    count_params,
    global_head_widths,
    load_model,
    model_description,
    multi_head_loss,
)
from .training import EvalReport, TrainConfig, TrainResult, evaluate_model, train_model
from .verification import run_gradient_suite

__version__ = "0.1.0"
