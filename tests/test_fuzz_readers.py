"""Damaged files raise their reader's typed error.

Each property writes one valid file, damages it by truncation, a
single-bit flip or an inflated u32 header field, and reads it back. The
reader must either return or raise its typed error, never a bare numpy,
struct or JSON error: ContainerError for .ssnf, normalizer.bin and .ssnw,
WavFormatError or UnsupportedWavError for WAV files; a .ssnf that reads
holds C, F, T >= 1, also for written samples with a zero axis. A
checkpoint whose model description holds a bad value must make predict
exit 1 naming it.
"""

import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subspectral.audio import AudioClip, UnsupportedWavError, WavFormatError, load_wav, save_wav
from subspectral.cli import main
from subspectral.features import BinNormalizer
from subspectral.models import build_model, model_description
from subspectral.storage import (
    ContainerError,
    read_checkpoint,
    read_features,
    read_normalizer,
    write_checkpoint,
    write_features,
    write_normalizer,
)

# a fixed, derandomized example budget per property
FUZZ = settings(max_examples=100, deadline=None, derandomize=True)
# small values only, so that no description built from them allocates
# more than a few times the valid model's tensors
DESCRIPTION_VALUES = [-1, 0, 1, 3, 1.5, float("nan"), "x", [], ["a", "b"], None, True]
INFLATED = st.one_of(st.sampled_from([0, 1, 2**16, 2**31 - 1, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1))


@st.composite
def damaged(draw, blob: bytes, u32_offsets):
    """blob cut short, with one bit flipped, or with one u32 header field
    at u32_offsets set to a drawn value."""
    how = draw(st.sampled_from(["truncate", "flip", "inflate"]))
    if how == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    data = bytearray(blob)
    if how == "flip":
        bit = draw(st.integers(0, 8 * len(data) - 1))
        data[bit // 8] ^= 1 << (bit % 8)
    else:
        offset = draw(st.sampled_from(u32_offsets))
        data[offset : offset + 4] = struct.pack("<I", draw(INFLATED))
    return bytes(data)


def fuzz_reader(path, reader, errors, u32_offsets, examples=(), accept=lambda result: None):
    """Every damaged copy of the valid file at path, and every blob of
    examples, reads and passes accept, or raises one of errors."""
    blob = path.read_bytes()
    target = path.with_name("damaged" + path.suffix)

    def check(candidate):
        target.write_bytes(candidate)
        try:
            result = reader(target)
        except errors:
            return
        accept(result)

    for candidate in examples:
        check = example(candidate)(check)
    FUZZ(given(damaged(blob, u32_offsets))(check))()


def has_values(result):
    """A .ssnf read back holds C, F, T >= 1 values per sample."""
    features, _ = result
    assert min(features.shape[1:]) >= 1, features.shape


@pytest.mark.parametrize("n", [0, 2])
def test_feature_container(tmp_path, n):
    path = tmp_path / "valid.ssnf"
    examples = []
    for shape in [(n, 0, 3, 4), (n, 2, 0, 4), (n, 2, 3, 0)]:  # a sample with C, F or T = 0
        # written by hand: write_features refuses such a shape
        examples.append(b"SSNF" + struct.pack("<5I", 1, *shape) + np.arange(n, dtype="<u4").tobytes())
    write_features(path, np.random.default_rng(0).standard_normal((n, 2, 3, 4)), np.arange(n))
    fuzz_reader(path, read_features, ContainerError, [4, 8, 12, 16, 20], examples, has_values)


def test_normalizer(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "valid.bin"
    write_normalizer(path, BinNormalizer(mean=rng.standard_normal((2, 3)), std=rng.uniform(0.5, 2.0, (2, 3))))
    fuzz_reader(path, read_normalizer, ContainerError, [0, 4])


def test_checkpoint(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "valid.ssnw"
    tensors = [("w", "param", rng.standard_normal((3, 4))), ("b", "buffer", rng.standard_normal(4))]
    write_checkpoint(path, model_description("baseline", 40, 50, 2), tensors, meta={"best_epoch": 3})
    fuzz_reader(path, read_checkpoint, ContainerError, [4])


def test_wav_16bit(tmp_path):
    path = tmp_path / "valid.wav"
    save_wav(path, AudioClip(np.random.default_rng(3).uniform(-1, 1, (2, 40)), 8000), bits=16)
    # RIFF size, fmt size, sample rate, byte rate, data size
    fuzz_reader(path, load_wav, (WavFormatError, UnsupportedWavError), [4, 16, 24, 28, 40])


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """A valid 3-class checkpoint over 40 mel x 50 frames stereo, its
    description, and a .ssnf of one sample per class."""
    root = tmp_path_factory.mktemp("scored")
    desc = model_description("subspectralnet", 40, 50, 2, n_classes=3, class_names=["car", "bus", "tram"])
    graph = build_model(desc, seed=0)
    graph.set_dropout_rng(np.random.default_rng(0))
    x = np.random.default_rng(4).standard_normal((3, 2, 40, 50)).astype(np.float32)
    graph.forward(x, train=True)  # sets the batch-norm running stats
    graph.save(root / "valid.ssnw")
    write_features(root / "x.ssnf", x, [0, 1, 2])
    return root, desc


@FUZZ
@given(key=st.sampled_from(list(model_description("subspectralnet", 40, 50, 2))), value=st.sampled_from(DESCRIPTION_VALUES))
@example(key="time_pool", value=0)
@example(key="dropout", value=1.5)
@example(key="class_names", value=["a", "b"])
def test_predict_with_one_bad_description_value(scored, key, value):
    root, desc = scored
    _, tensors, _ = read_checkpoint(root / "valid.ssnw")
    path = root / "damaged.ssnw"
    write_checkpoint(path, dict(desc, **{key: value}), [(name, "param", array) for name, array in tensors.items()])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["predict", "--checkpoint", str(path), "--features", str(root / "x.ssnf")])
    assert code in (0, 1)
    if code:
        assert str(path) in err.getvalue()
