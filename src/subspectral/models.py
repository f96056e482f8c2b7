"""Model builders: the band-split network and the baseline CNN.

A model description (model_description) is the one input to graph
construction: build_model reads it, and checkpoint headers store it.
Both networks are made of the same conv trunk (_conv_trunk). The
band-split model crops the input spectrogram into overlapping
horizontal bands, runs one small CNN ("sub-classifier") per band, and
feeds the concatenated 32-unit band features into a dense global head.
Every sub-classifier keeps its own classifier head so each band learns to
classify on its own. Every head ends at a dense layer and emits logits;
all heads are trained simultaneously by summing their softmax
cross-entropies, and softmax runs only when predicting.
"""

from __future__ import annotations

import math

import numpy as np

from . import storage
from .nn import functional as F
from .nn.layers import (
    BatchNorm2d,
    Conv2dSame,
    Dense,
    Dropout,
    Flatten,
    MaxPool2d,
    Parameter,
    ReLU,
    Sequential,
)
from .nn.optim import ParamStore
from .seeding import STREAM_INIT, philox_rng

N_CLASSES = 10
FEATURE_WIDTH = 32  # per-band feature size feeding the global head
DEFAULT_TIME_POOL = 100

# The options of each model kind, with their defaults. A model description
# holds kind, n_classes, channels, frames and mel_bins, then its kind's
# options, then time_pool, dropout and class_names; checkpoint headers
# store it in that order.
KIND_OPTIONS = {
    "baseline": {"width_multiplier": 1},
    "subspectralnet": {"sub_size": 20, "hop_size": 10, "head_compat": False, "include_sub_heads": True},
}


def crop_ranges(mel_bins: int, sub_size: int, hop_size: int) -> list[tuple[int, int]]:
    """The (lo, hi) mel-bin range of each band crop.

    mel_bins: input height F; sub_size: crop height X; hop_size: vertical
    hop Y. There are M = floor(1 + (F - X) / Y) crops. sub_size must be a
    multiple of 10 because the first pooling stage is (X/10, 5).
    """
    if not 1 <= sub_size <= mel_bins:
        raise ValueError(f"sub_size {sub_size} must lie in [1, {mel_bins}]")
    if hop_size < 1:
        raise ValueError("hop_size must be >= 1")
    if sub_size % 10 != 0:
        raise ValueError(f"sub_size {sub_size} must be divisible by 10 (first pool is sub_size/10)")
    count = int(math.floor(1 + (mel_bins - sub_size) / hop_size))
    if count < 1:
        raise ValueError("configuration yields zero crops")
    return [(m * hop_size, m * hop_size + sub_size) for m in range(count)]


def global_head_widths(crop_count: int, head_compat: bool = False) -> list[int]:
    """Hidden-layer widths for the global head.

    Printed sizing rule: H = max(floor(log2(M)) - 1, 0) hidden layers of
    width 2^(6 + H - i). head_compat bumps H to at least 1 for M >= 2,
    which is the sizing that matches the published 331K parameter total
    for M = 3 (the printed rule gives H = 0 there).
    """
    if crop_count < 1:
        raise ValueError("crop_count must be >= 1")
    hidden = max(int(math.floor(math.log2(crop_count))) - 1, 0)
    if head_compat and crop_count >= 2:
        hidden = max(hidden, 1)
    return [2 ** (6 + hidden - i) for i in range(1, hidden + 1)]


def _check_pool(prefix: str, pool: tuple[int, int], extent: tuple[int, int]):
    for what, size, available in zip(("frequency", "time"), pool, extent):
        if not 1 <= size <= available:
            raise ValueError(f"{prefix}: pool size {size} is outside [1, {available}], the available {what} extent")


def _conv_trunk(prefix, c_in, in_size, widths, pool1, dense_width, *, time_pool, dropout, rng, dtype) -> Sequential:
    """The conv trunk both networks are made of, over (c_in, *in_size) inputs.

    Stack: conv(widths[0], 7x7, same) -> BN -> ReLU -> pool1 -> dropout ->
    conv(widths[1], 7x7, same) -> BN -> ReLU -> pool(4, time_pool) ->
    dropout -> flatten -> dense(dense_width) -> ReLU -> dropout.
    """
    w1, w2 = widths
    pool2 = (4, time_pool)
    _check_pool(prefix, pool1, in_size)
    freq, time = in_size[0] // pool1[0], in_size[1] // pool1[1]
    _check_pool(prefix, pool2, (freq, time))
    flat = w2 * (freq // pool2[0]) * (time // pool2[1])
    return Sequential(
        [
            Conv2dSame(c_in, w1, 7, 7, rng=rng, dtype=dtype, name=f"{prefix}.conv1"),
            BatchNorm2d(w1, dtype=dtype, name=f"{prefix}.bn1"),
            ReLU(name=f"{prefix}.relu1"),
            MaxPool2d(*pool1, name=f"{prefix}.pool1"),
            Dropout(dropout, name=f"{prefix}.drop1"),
            Conv2dSame(w1, w2, 7, 7, rng=rng, dtype=dtype, name=f"{prefix}.conv2"),
            BatchNorm2d(w2, dtype=dtype, name=f"{prefix}.bn2"),
            ReLU(name=f"{prefix}.relu2"),
            MaxPool2d(*pool2, name=f"{prefix}.pool2"),
            Dropout(dropout, name=f"{prefix}.drop2"),
            Flatten(name=f"{prefix}.flatten"),
            Dense(flat, dense_width, rng=rng, dtype=dtype, name=f"{prefix}.dense1"),
            ReLU(name=f"{prefix}.relu3"),
            Dropout(dropout, name=f"{prefix}.drop3"),
        ]
    )


class ModelGraph:
    """Built network: band trunks, optional per-band heads, and a global
    head over the concatenated trunk outputs; every head emits logits.

    Trunk m reads mel bins bands[m] = (lo, hi) of the (N, C, F, T) input.
    The band-split net has M crops and, when built with them, per-band
    heads "sub0".."subM-1". The baseline CNN is the one-band case: one
    trunk over (0, F), no per-band heads, and a one-layer global head.
    """

    def __init__(
        self,
        desc: dict,
        bands: list[tuple[int, int]],
        trunks: list[Sequential],
        sub_heads: list[Sequential],
        global_head: Sequential,
    ):
        self.desc = desc
        self.bands = bands
        self.trunks = trunks
        self.sub_heads = sub_heads
        self.global_head = global_head
        self._features: list[np.ndarray] | None = None
        self._input_shape = None

    # -- structure ----------------------------------------------------

    def head_names(self) -> list[str]:
        return ["global"] + [f"sub{i}" for i in range(len(self.sub_heads))]

    def _sequentials(self) -> list[Sequential]:
        return self.trunks + self.sub_heads + [self.global_head]

    def parameters(self) -> list[Parameter]:
        return [p for seq in self._sequentials() for p in seq.params()]

    def buffers(self):
        return [b for seq in self._sequentials() for b in seq.buffers()]

    def param_store(self) -> ParamStore:
        return ParamStore(self.parameters())

    def set_dropout_rng(self, rng) -> None:
        for seq in self._sequentials():
            for layer in seq.layers:
                if isinstance(layer, Dropout):
                    layer.rng = rng

    # -- compute ------------------------------------------------------

    def forward(self, x: np.ndarray, train: bool = False) -> dict[str, np.ndarray]:
        if x.shape[2] != self.desc["mel_bins"]:
            raise ValueError(f"input has {x.shape[2]} mel bins, model expects {self.desc['mel_bins']}")
        if x.shape[3] != self.desc["frames"]:
            raise ValueError(f"input has {x.shape[3]} frames, model expects {self.desc['frames']}")
        self._input_shape = x.shape
        self._features = [trunk.forward(x[:, :, lo:hi, :], train) for trunk, (lo, hi) in zip(self.trunks, self.bands)]
        out = {"global": self.global_head.forward(np.concatenate(self._features, axis=1), train)}
        for i, head in enumerate(self.sub_heads):
            out[f"sub{i}"] = head.forward(self._features[i], train)
        return out

    def backward(self, dlogits: dict[str, np.ndarray], input_grad: bool = False):
        """Backpropagate head logit gradients into parameter .grad fields.

        Heads absent from dlogits contribute nothing, so their private
        parameters keep whatever is already in .grad (zero after
        zero_grad). Band trunks accumulate from both their own head and
        the global head. The gradient w.r.t. the input spectrogram is
        only materialized (and returned) when input_grad is True; training
        never needs it.
        """
        widths = [f.shape[1] for f in self._features]
        if "global" in dlogits:
            dfeats = [np.array(d) for d in np.split(self.global_head.backward(dlogits["global"]), np.cumsum(widths)[:-1], axis=1)]
        else:
            dfeats = [np.zeros_like(f) for f in self._features]
        for i, head in enumerate(self.sub_heads):
            key = f"sub{i}"
            if key in dlogits:
                dfeats[i] += head.backward(dlogits[key])
        dx = np.zeros(self._input_shape, dtype=dfeats[0].dtype) if input_grad else None
        for trunk, (lo, hi), dfeat in zip(self.trunks, self.bands, dfeats):
            dcrop = trunk.backward(dfeat, input_grad=input_grad)
            if input_grad:
                dx[:, :, lo:hi, :] += dcrop
        return dx

    # -- reporting ----------------------------------------------------

    def layer_table(self) -> list[dict]:
        rows = []
        for seq in self._sequentials():
            for layer in seq.layers:
                n = sum(p.size for p in layer.params())
                if n or layer.params():
                    rows.append({"name": layer.name, "kind": layer.kind, "params": n})
        return rows

    def describe(self) -> dict:
        layers = [layer.spec() for seq in self._sequentials() for layer in seq.layers]
        return dict(self.desc, layers=layers)

    # -- state ----------------------------------------------------------

    def _tensors(self) -> list[tuple[str, str, np.ndarray]]:
        """(name, kind, array) of every parameter, then every buffer, in
        checkpoint order; the arrays are the live model tensors."""
        tensors = [(p.name, "param", p.data) for p in self.parameters()]
        return tensors + [(name, "buffer", value) for name, value in self.buffers()]

    def state(self) -> dict[str, np.ndarray]:
        """Copies of every parameter and buffer, keyed by name."""
        return {name: array.copy() for name, _, array in self._tensors()}

    def load_state(self, tensors: dict[str, np.ndarray]) -> None:
        """Copy tensors into every parameter and buffer; tensors must hold
        exactly the names of state(), each with the same shape."""
        live = {name: array for name, _, array in self._tensors()}
        for name in tensors:
            if name not in live:
                raise ValueError(f"tensor {name} is not part of the model")
        for name, array in live.items():
            if name not in tensors:
                raise ValueError(f"tensor {name} is missing")
            if np.shape(tensors[name]) != array.shape:
                raise ValueError(f"tensor {name} has shape {np.shape(tensors[name])}, expected {array.shape}")
        for name, array in live.items():
            array[...] = tensors[name]

    def save(self, path, meta: dict | None = None) -> None:
        storage.write_checkpoint(path, self.describe(), self._tensors(), meta=meta)


def count_params(graph: ModelGraph) -> int:
    """Trainable parameter total (BN gamma/beta included, running stats not)."""
    return sum(p.size for p in graph.parameters())


def multi_head_loss(head_logits: dict[str, np.ndarray], labels: np.ndarray):
    """Each head's softmax cross-entropy and the gradient for its logits,
    as (losses, dlogits), two dicts keyed like head_logits.

    The training loss is the unweighted sum(losses.values()); its
    gradient is dlogits, since each head's loss reads only its logits.
    """
    losses, dlogits = {}, {}
    for name, logits in head_logits.items():
        losses[name], dlogits[name] = F.softmax_cross_entropy(logits, labels)
    return losses, dlogits


def _description_keys(kind: str) -> list[str]:
    if kind not in KIND_OPTIONS:
        raise ValueError(f"unknown model kind {kind!r}")
    return ["kind", "n_classes", "channels", "frames", "mel_bins", *KIND_OPTIONS[kind], "time_pool", "dropout", "class_names"]


def model_description(
    kind: str,
    mel_bins: int,
    frames: int,
    channels: int,
    *,
    n_classes: int = N_CLASSES,
    time_pool: int | None = None,
    dropout: float = 0.3,
    class_names=None,
    **options,
) -> dict:
    """The description of a kind model over (channels, mel_bins, frames)
    inputs, which build_model reads and checkpoint headers store.

    options may set any kind's options (KIND_OPTIONS): an absent option of
    this kind takes its KIND_OPTIONS default, and those of the other kind
    are ignored, so one set of flags or config fields serves every kind.
    time_pool defaults to min(100, frames // 5).
    """
    keys = _description_keys(kind)
    unknown = set(options).difference(*KIND_OPTIONS.values())
    if unknown:
        raise TypeError(f"unknown model options {sorted(unknown)}")
    values = {**KIND_OPTIONS[kind], **options}
    values.update(
        kind=kind,
        n_classes=n_classes,
        channels=channels,
        frames=frames,
        mel_bins=mel_bins,
        time_pool=min(DEFAULT_TIME_POOL, frames // 5) if time_pool is None else time_pool,
        dropout=dropout,
        class_names=list(class_names) if class_names else None,
    )
    return {key: values[key] for key in keys}


def build_model(desc: dict, seed: int | None = 0, dtype=np.float32) -> ModelGraph:
    """Build the untrained graph a model description (model_description,
    or the "model" object of a checkpoint header) describes; seed keys
    the weight init, and seed None leaves every weight unset (np.empty)
    for a caller that loads them all next. Raises KeyError for a missing
    description key, and ValueError or TypeError for a bad value, such as
    class_names that is neither None nor a list of n_classes strings, a
    head_compat or include_sub_heads that is not a bool, or a
    width_multiplier that is not an int >= 1.

    The baseline CNN is the one-band graph: a trunk over all mel bins
    ending after a 100-unit dense block, with width_multiplier scaling
    both conv widths, and a global head holding the logits layer. The
    band-split net runs one trunk per crop of crop_ranges(mel_bins,
    sub_size, hop_size), each ending at 32 band features with its own
    logits head "sub{m}", and a global head over the concatenated band
    features. include_sub_heads=False leaves the per-band heads out of
    the graph (~990 fewer parameters for M = 3); each is still built, so
    the init draws, and with them all other tensors, match the full graph.
    """
    kind = desc["kind"]
    desc = {key: desc[key] for key in _description_keys(kind)}
    n_classes, channels, frames, mel_bins = desc["n_classes"], desc["channels"], desc["frames"], desc["mel_bins"]
    names = desc["class_names"]
    if names is not None and not (isinstance(names, list) and len(names) == n_classes and all(isinstance(n, str) for n in names)):
        raise ValueError(f"class_names {names!r} is not a list of {n_classes} strings")
    for key in ("head_compat", "include_sub_heads"):
        if key in desc and not isinstance(desc[key], bool):
            raise ValueError(f"{key} {desc[key]!r} is not true or false")
    mult = desc.get("width_multiplier", 1)
    if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
        raise ValueError(f"width_multiplier {mult!r} is not an integer >= 1")
    rng = None if seed is None else philox_rng(seed, STREAM_INIT)
    block = dict(time_pool=desc["time_pool"], dropout=desc["dropout"], rng=rng, dtype=dtype)

    def dense(d_in, d_out, name):
        return Dense(d_in, d_out, rng=rng, dtype=dtype, name=name)

    if kind == "baseline":
        if mel_bins % 5 != 0 or (mel_bins // 5) % 4 != 0:
            raise ValueError(f"mel_bins {mel_bins} must divide by 5 and then by 4 for the pooling stack")
        widths = (32 * mult, 64 * mult)
        trunk = _conv_trunk("base", channels, (mel_bins, frames), widths, (5, 5), 100, **block)
        return ModelGraph(desc, [(0, mel_bins)], [trunk], [], Sequential([dense(100, n_classes, "base.dense2")]))

    sub_size = desc["sub_size"]
    bands = crop_ranges(mel_bins, sub_size, desc["hop_size"])
    pool1 = (sub_size // 10, 5)
    trunks, sub_heads = [], []
    for m in range(len(bands)):
        trunks.append(_conv_trunk(f"sub{m}", channels, (sub_size, frames), (32, 64), pool1, FEATURE_WIDTH, **block))
        head = Sequential([dense(FEATURE_WIDTH, n_classes, f"sub{m}.head")])
        if desc["include_sub_heads"]:
            sub_heads.append(head)
    layers, width = [], FEATURE_WIDTH * len(bands)
    for i, hidden in enumerate(global_head_widths(len(bands), desc["head_compat"]), start=1):
        layers += [dense(width, hidden, f"global.dense{i}"), ReLU(name=f"global.relu{i}")]
        width = hidden
    layers.append(dense(width, n_classes, "global.out"))
    return ModelGraph(desc, bands, trunks, sub_heads, Sequential(layers))


def load_model(path) -> tuple[ModelGraph, dict]:
    """Rebuild a graph from a checkpoint and load its tensors. Returns
    (graph, meta). The graph is built in float32, the one dtype
    checkpoints hold, with its weights unset: load_state
    raises unless the file holds every tensor, each with its shape. A
    batch norm whose batches_seen is not positive has no running
    statistics for the eval forward to read, so it is rejected here."""
    desc, tensors, meta = storage.read_checkpoint(path)
    try:
        graph = build_model(desc, seed=None)
    except KeyError as exc:
        raise storage.ContainerError(f"{path}: model description has no {exc} entry") from exc
    except (TypeError, ValueError) as exc:
        raise storage.ContainerError(f"{path}: bad model description: {exc}") from exc
    try:
        graph.load_state(tensors)
    except ValueError as exc:
        raise storage.ContainerError(f"{path}: checkpoint {exc}") from exc
    for name, value in graph.buffers():
        if name.endswith(".batches_seen") and not value[0] > 0:
            raise storage.ContainerError(f"{path}: {name} is {value[0]:g}: batch-norm statistics from no training batch")
    return graph, meta
