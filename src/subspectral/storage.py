"""Binary container formats for features and model checkpoints.

Feature container (.ssnf), little-endian:

    magic "SSNF" | version u32 | n_samples u32 | C u32 | F u32 | T u32
    then per sample: label_id u32 followed by C*F*T float32, row-major
    (one packed record per sample, read and written as one array)

Normalizer sidecar, little-endian:

    C u32 | F u32 | mean C*F float64 | std C*F float64   (row-major)

Checkpoint (.ssnw), little-endian:

    magic "SSNW" | header_len u32 | header JSON (utf-8)
    then raw float32 tensor data in header["tensors"] order

The checkpoint header carries the model description (layer list, split
configuration, head flags) plus tensor names/shapes/dtypes.

Tables (every TSV file and printed table) are tab-separated lines, each
ending in a newline; floats are written to 6 significant digits
(table_text).
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .features import BinNormalizer

FEATURE_MAGIC = b"SSNF"
CHECKPOINT_MAGIC = b"SSNW"
FEATURE_VERSION = 1
CHECKPOINT_VERSION = 1


class ContainerError(ValueError):
    """Raised for malformed feature/checkpoint containers."""


def _feature_record(c: int, f: int, t: int) -> np.dtype:
    """One .ssnf sample: its u32 label, then its (C, F, T) float32 data."""
    return np.dtype([("label", "<u4"), ("x", "<f4", (c, f, t))])


def write_features(path, features: np.ndarray, labels) -> None:
    """Write an (N, C, F, T) float32 feature tensor with u32 labels."""
    features = np.asarray(features, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.uint32)
    if features.ndim != 4:
        raise ValueError(f"features must be (N, C, F, T), got {features.shape}")
    if labels.shape != (features.shape[0],):
        raise ValueError(f"{labels.shape[0]} labels for {features.shape[0]} samples")
    n, c, f, t = features.shape
    if 0 in (c, f, t):
        # read_features rejects such a header, so none is written
        raise ValueError(f"a {c}x{f}x{t} sample holds no values")
    records = np.empty(n, dtype=_feature_record(c, f, t))
    records["label"] = labels
    records["x"] = features
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<5I", FEATURE_VERSION, n, c, f, t))
        fh.write(records.tobytes())


def read_features(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a feature container; returns (features (N,C,F,T) f32, labels u32)."""
    blob = Path(path).read_bytes()
    if len(blob) < 24:
        raise ContainerError(f"{path}: {len(blob)} bytes is shorter than the 24-byte header")
    if blob[:4] != FEATURE_MAGIC:
        raise ContainerError(f"{path}: bad magic {blob[:4]!r}")
    version, n, c, f, t = struct.unpack("<5I", blob[4:24])
    if version != FEATURE_VERSION:
        raise ContainerError(f"{path}: unsupported feature container version {version}")
    if 0 in (c, f, t):
        raise ContainerError(f"{path}: a {c}x{f}x{t} sample holds no values")
    # exact sizes before any numpy type: numpy caps a record at 2 GiB and a
    # dimension below 2**31, which past this check only n = 0 can reach
    if len(blob) != 24 + n * (4 + 4 * c * f * t):
        raise ContainerError(f"{path}: size {len(blob)} does not match header")
    try:
        record = _feature_record(c, f, t)
    except ValueError as exc:
        raise ContainerError(f"{path}: a {c}x{f}x{t} sample is too large: {exc}") from exc
    records = np.frombuffer(blob, dtype=record, count=n, offset=24)
    return np.ascontiguousarray(records["x"], dtype=np.float32), records["label"].astype(np.uint32)


def check_labels(path, labels: np.ndarray, n_classes: int, source: str) -> None:
    """Raise ContainerError naming path if a label id is not below the
    n_classes that source (labels.tsv, a checkpoint) defines."""
    if labels.size and int(labels.max()) >= n_classes:
        raise ContainerError(f"{path}: label {int(labels.max())} is out of range for the {n_classes} classes of {source}")


def write_normalizer(path, norm: BinNormalizer) -> None:
    c, f = norm.mean.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<2I", c, f))
        fh.write(np.ascontiguousarray(norm.mean, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(norm.std, dtype="<f8").tobytes())


def read_normalizer(path) -> BinNormalizer:
    blob = Path(path).read_bytes()
    if len(blob) < 8:
        raise ContainerError(f"{path}: {len(blob)} bytes is shorter than the 8-byte normalizer header")
    c, f = struct.unpack("<2I", blob[:8])
    if len(blob) != 8 + 2 * c * f * 8:
        raise ContainerError(f"{path}: normalizer size does not match header ({c}x{f})")
    mean = np.frombuffer(blob, dtype="<f8", count=c * f, offset=8).reshape(c, f)
    std = np.frombuffer(blob, dtype="<f8", count=c * f, offset=8 + c * f * 8).reshape(c, f)
    try:
        return BinNormalizer(mean=mean.copy(), std=std.copy())
    except ValueError as exc:
        raise ContainerError(f"{path}: {exc}") from exc


def table_text(rows, header=None) -> str:
    """Tab-separated lines, header first, each ending in a newline. Python
    and numpy floats are written as f"{v:.6g}", every other cell as str(v)."""
    floats = (float, np.floating)  # bound once: building it per cell doubled the time
    lines = rows if header is None else [header, *rows]
    return "".join(["\t".join([f"{v:.6g}" if isinstance(v, floats) else str(v) for v in line]) + "\n" for line in lines])


def write_table(path, rows, header=None) -> None:
    Path(path).write_text(table_text(rows, header))


def write_class_matrix(path, matrix, class_names) -> None:
    """A class x class table (confusion counts, distance matrices): a
    'class' header naming the columns, then one row per class."""
    write_table(path, ([name, *row] for name, row in zip(class_names, matrix.tolist())), ["class", *class_names])


def write_class_names(path, names) -> None:
    write_table(path, enumerate(names))


def read_class_names(path) -> list[str]:
    names = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                idx, name = line.rstrip("\n").split("\t")
                idx = int(idx)
            except ValueError:
                raise ContainerError(f"{path}: line {lineno} is not '<class id><TAB><name>'") from None
            if not name or "/" in name:
                raise ContainerError(f"{path}: line {lineno}: class name {name!r} is empty or holds '/'")
            if idx != len(names):
                raise ContainerError(f"{path}: class ids not contiguous")
            names.append(name)
    return names


def write_checkpoint(path, model_desc: dict, tensors, meta: dict | None = None) -> None:
    """Write named tensors after a JSON header.

    tensors: iterable of (name, kind, array) with kind in {param, buffer}.
    All tensor data is stored as little-endian float32.
    """
    entries = []
    blobs = []
    for name, kind, array in tensors:
        array = np.asarray(array, dtype="<f4")
        entries.append({"name": name, "kind": kind, "shape": list(array.shape), "dtype": "float32"})
        blobs.append(np.ascontiguousarray(array).tobytes())
    header = {
        "format_version": CHECKPOINT_VERSION,
        "model": model_desc,
        "tensors": entries,
    }
    if meta:
        header["meta"] = meta
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        for blob in blobs:
            fh.write(blob)


def read_checkpoint(path) -> tuple[dict, dict, dict]:
    """Read a checkpoint; returns (model_desc, {name: array}, meta)."""
    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ContainerError(f"{path}: bad magic {blob[:4]!r}")
    header_len = int.from_bytes(blob[4:8], "little")
    if 8 + header_len > len(blob):
        raise ContainerError(f"{path}: header length {header_len} runs past the end of the file")
    try:
        header = json.loads(blob[8 : 8 + header_len].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ContainerError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format_version") != CHECKPOINT_VERSION:
        raise ContainerError(f"{path}: unsupported checkpoint version")
    if not isinstance(header.get("model"), dict) or not isinstance(header.get("tensors"), list):
        raise ContainerError(f"{path}: header needs a 'model' object and a 'tensors' list")
    pos = 8 + header_len
    tensors = {}
    for entry in header["tensors"]:
        shape = entry.get("shape") if isinstance(entry, dict) else None
        valid_shape = isinstance(shape, list) and all(isinstance(d, int) and d >= 0 for d in shape)
        if not (valid_shape and isinstance(entry.get("name"), str)):
            raise ContainerError(f"{path}: malformed tensor entry {entry!r}")
        if entry["name"] in tensors:
            raise ContainerError(f"{path}: tensor {entry['name']!r} is listed twice")
        if entry.get("dtype") != "float32":
            raise ContainerError(f"{path}: tensor {entry['name']!r} has dtype {entry.get('dtype')!r}, not 'float32'")
        count = math.prod(shape)  # exact: np.prod wraps in int64
        if pos + count * 4 > len(blob):
            raise ContainerError(f"{path}: tensor {entry['name']!r} runs past the end of the file")
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=pos).reshape(shape)
        tensors[entry["name"]] = arr.copy()
        pos += count * 4
    if pos != len(blob):
        raise ContainerError(f"{path}: trailing bytes after tensor data")
    return header["model"], tensors, header.get("meta", {})
