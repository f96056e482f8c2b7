"""Spans around the public calls of each subspectral module, and the
per-layer metrics derived from them.

Every wrapper is installed where its caller looks the name up: pipeline
imports load_wav and the feature functions by name, training imports
adam_step and multi_head_loss, cli imports load_model, while storage and
bandstats are reached as module attributes. Graphs are instrumented per
instance when training.build_model or load_model returns them: the graph's
forward/backward, each band trunk, and forward/backward of every layer.
"""

from __future__ import annotations

import os
from collections import defaultdict
from statistics import median

from tracing import Tracer, ancestor, root, self_times, tail

LAYER_KINDS = ("conv2d", "batchnorm", "relu", "maxpool", "dropout", "dense", "softmax", "flatten")
# per-call timings reported with a tail percentile as well as the median
TAILED = (
    "audio.load_wav",
    "features.log_mel_spectrogram",
    "models.forward_train",
    "models.backward",
    "models.forward_eval",
    "models.multi_head_loss",
    "nn.optim.adam_step",
)
MB = 1e6


def _size_of_path_arg(args, kwargs, *_):
    return {"bytes": os.path.getsize(args[0])}


def _conv_fwd(layer):
    def before(args, kwargs):
        n, c_in, h, w = args[0].shape
        kh, kw = layer.kernel
        return {"flop": 2 * n * h * w * layer.out_channels * c_in * kh * kw}

    return before


def _conv_bwd(layer):
    def before(args, kwargs):
        n, c_out, h, w = args[0].shape
        kh, kw = layer.kernel
        need_dx = kwargs.get("input_grad", args[1] if len(args) > 1 else True)
        gemms = 2 if need_dx else 1  # weight gradient, plus input gradient when asked
        return {"flop": gemms * 2 * n * h * w * c_out * layer.in_channels * kh * kw}

    return before


def _batch_address(args, kwargs):
    # batches sliced from one feature array at the same offset share it
    return {"ptr": int(args[0].__array_interface__["data"][0])}


def instrument_graph(tracer: Tracer, graph):
    """Wrap one built ModelGraph instance; returns it."""
    fwd_train = tracer.traced(graph.forward, "models.forward_train", before=_batch_address)
    fwd_eval = tracer.traced(graph.forward, "models.forward_eval", before=_batch_address)

    def forward(x, train=False):
        return (fwd_train if train else fwd_eval)(x, train)

    graph.forward = forward
    graph.backward = tracer.traced(graph.backward, "models.backward")
    trunks = graph.trunks if graph.trunks else [graph.stack]
    heads = graph.sub_heads + ([graph.global_head] if graph.global_head else [])
    for seq in trunks:
        seq.forward = tracer.traced(seq.forward, "models.trunk_forward")
    for seq in trunks + heads:
        for layer in seq.layers:
            conv = layer.kind == "conv2d"
            layer.forward = tracer.traced(layer.forward, f"nn.{layer.kind}.fwd", before=_conv_fwd(layer) if conv else None)
            layer.backward = tracer.traced(layer.backward, f"nn.{layer.kind}.bwd", before=_conv_bwd(layer) if conv else None)
    return graph


def install(tracer: Tracer) -> None:
    """Patch every traced call site; tracer.unpatch() undoes it."""
    from subspectral import bandstats, cli, data, models, pipeline, storage, training

    p = tracer.patch
    p(data, "synth_fixture", "data.synth_fixture")
    p(pipeline, "load_wav", "audio.load_wav", before=_size_of_path_arg)
    for fn in ("log_mel_spectrogram", "fit_normalizer", "apply_normalizer"):
        p(pipeline, fn, f"features.{fn}")
    for fn in ("extract_dataset", "load_feature_dir", "analyze_dataset"):
        p(pipeline, fn, f"pipeline.{fn}")
    for fn in ("write_features", "write_checkpoint"):
        p(storage, fn, f"storage.{fn}", after=_size_of_path_arg)
    for fn in ("read_features", "read_checkpoint"):
        p(storage, fn, f"storage.{fn}", before=_size_of_path_arg)
    for fn in ("class_mean_profiles", "bin_histograms", "confusion_like_matrix"):
        p(bandstats, fn, f"bandstats.{fn}")
    p(training, "multi_head_loss", "models.multi_head_loss")
    p(
        training,
        "adam_step",
        "nn.optim.adam_step",
        before=lambda a, k: {"tensors": len(a[0].params), "params": a[0].total_size()},
    )
    p(training, "train_model", "training.train_model")
    p(training, "evaluate_model", "training.evaluate_model")
    p(cli, "cmd_predict", "cli.predict")

    def graph_out(args, kwargs, result):
        instrument_graph(tracer, result)
        return {}

    def loaded_graph_out(args, kwargs, result):
        instrument_graph(tracer, result[0])
        return {}

    p(training, "build_model", "training.build_model", after=graph_out)
    p(models, "load_model", "models.load_model", after=loaded_graph_out)
    p(cli, "load_model", "models.load_model", after=loaded_graph_out)


class SpanIndex:
    """Spans grouped by name, keeping only those recorded inside a stage
    call (root span "stage.*"), not those of the output checks."""

    def __init__(self, spans):
        self.spans = spans
        self.self_s = self_times(spans)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            top = spans[root(spans, i)].name
            if top.startswith("stage."):
                self.by_name[s.name].append(i)

    def ms(self, name):
        return [self.spans[i].duration * 1e3 for i in self.by_name[name]]

    def self_ms(self, name):
        return [self.self_s[i] * 1e3 for i in self.by_name[name]]

    def under(self, name, parent_name):
        """{parent index: [indices of name spans inside it]}."""
        groups = {i: [] for i in self.by_name[parent_name]}
        for i in self.by_name[name]:
            a = ancestor(self.spans, i, parent_name)
            if a in groups:
                groups[a].append(i)
        return groups

    def total_s(self, indices):
        return sum(self.spans[i].duration for i in indices)

    def attr_sum(self, indices, key):
        return sum(self.spans[i].attrs.get(key, 0) for i in indices)

    def per_call(self, name, parent_name):
        groups = self.under(name, parent_name)
        return sum(len(v) for v in groups.values()) / len(groups)

    def mb_per_stage_run(self, names):
        """MB moved by the given calls in one run of each stage, summed
        over stages (the median over each stage's repeats)."""
        per_root: dict[int, float] = defaultdict(float)
        for name in names:
            for i in self.by_name[name]:
                per_root[root(self.spans, i)] += self.spans[i].attrs["bytes"] / MB
        per_stage: dict[str, list[float]] = defaultdict(list)
        for r, mb in per_root.items():
            per_stage[self.spans[r].name].append(mb)
        return sum(median(v) for v in per_stage.values())


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, {name: (value, unit)}, from one traced pass."""
    ix = SpanIndex(spans)
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def timing(name):
        values = ix.ms(name)
        put(f"{name}.ms", median(values), "ms")
        if name in TAILED:
            pct, value = tail(values)
            put(f"{name}.tail_ms", value, "ms")
            put(f"{name}.tail_pct", pct, "%")
            put(f"{name}.samples", len(values), "count")

    def throughput(name):
        idx = ix.by_name[name]
        put(f"{name}.mb_per_s", ix.attr_sum(idx, "bytes") / MB / ix.total_s(idx), "MB/s")

    # audio, features, data
    timing("audio.load_wav")
    put("audio.load_wav.calls", ix.per_call("audio.load_wav", "pipeline.extract_dataset"), "count")
    throughput("audio.load_wav")
    timing("features.log_mel_spectrogram")
    put(
        "features.log_mel_spectrogram.calls",
        ix.per_call("features.log_mel_spectrogram", "pipeline.extract_dataset"),
        "count",
    )
    timing("features.fit_normalizer")
    timing("features.apply_normalizer")
    timing("data.synth_fixture")

    # pipeline
    put("pipeline.extract_dataset.self_ms", median(ix.self_ms("pipeline.extract_dataset")), "ms")
    timing("pipeline.load_feature_dir")
    put("pipeline.analyze_dataset.self_ms", median(ix.self_ms("pipeline.analyze_dataset")), "ms")

    # storage
    for fn in ("write_features", "read_features"):
        timing(f"storage.{fn}")
        throughput(f"storage.{fn}")
    timing("storage.write_checkpoint")
    timing("storage.read_checkpoint")
    put("storage.bytes_written_mb", ix.mb_per_stage_run(["storage.write_features", "storage.write_checkpoint"]), "MB")
    put("storage.bytes_read_mb", ix.mb_per_stage_run(["storage.read_features", "storage.read_checkpoint"]), "MB")

    # bandstats
    for fn in ("class_mean_profiles", "bin_histograms", "confusion_like_matrix"):
        timing(f"bandstats.{fn}")

    # models
    for name in ("models.forward_train", "models.backward", "models.forward_eval", "models.multi_head_loss", "models.load_model"):
        timing(name)
    put("models.trunk_forwards_per_step", ix.per_call("models.trunk_forward", "models.forward_train"), "count")

    # training steps: from a train-mode forward to the end of the next
    # Adam update (loss, backward and zero_grad in between)
    steps = []  # (forward_train index, backward index, step seconds)
    fwd = bwd = None
    marks = ix.by_name["models.forward_train"] + ix.by_name["models.backward"] + ix.by_name["nn.optim.adam_step"]
    for i in sorted(marks):
        name = spans[i].name
        if name == "models.forward_train":
            fwd, bwd = i, None
        elif name == "models.backward":
            bwd = i
        elif fwd is not None and bwd is not None:
            steps.append((fwd, bwd, spans[i].end - spans[fwd].start))
            fwd = bwd = None
    step_fwd = {k: ix.under(f"nn.{k}.fwd", "models.forward_train") for k in LAYER_KINDS}
    step_bwd = {k: ix.under(f"nn.{k}.bwd", "models.backward") for k in LAYER_KINDS}
    put("training.step_ms", median([t for _, _, t in steps]) * 1e3, "ms")
    for kind in LAYER_KINDS:
        for phase, groups, pick in (("fwd", step_fwd, 0), ("bwd", step_bwd, 1)):
            per_step = [ix.total_s(groups[kind].get(step[pick], [])) * 1e3 for step in steps]
            put(f"nn.{kind}.{phase}_ms", median(per_step), "ms")
    calls = [sum(len(step_fwd[k].get(f, [])) + len(step_bwd[k].get(b, [])) for k in LAYER_KINDS) for f, b, _ in steps]
    put("nn.layer_calls_per_step", median(calls), "count")
    conv = [step_fwd["conv2d"].get(f, []) + step_bwd["conv2d"].get(b, []) for f, b, _ in steps]
    put("nn.conv2d.gflop", median([ix.attr_sum(c, "flop") for c in conv]) / 1e9, "GFLOP")
    conv_all = [i for c in conv for i in c]
    put("nn.conv2d.gflops_per_s", ix.attr_sum(conv_all, "flop") / 1e9 / ix.total_s(conv_all), "GFLOP/s")
    conv_bwd = [i for _, b, _ in steps for i in step_bwd["conv2d"].get(b, [])]
    put("nn.conv2d.bwd_share", ix.total_s(conv_bwd) / sum(t for _, _, t in steps), "fraction")

    # optimizer
    timing("nn.optim.adam_step")
    first_adam = spans[ix.by_name["nn.optim.adam_step"][0]].attrs
    put("nn.optim.param_tensors", first_adam["tensors"], "count")
    put("nn.optim.param_count", first_adam["params"], "count")

    # training
    put("training.train_model.self_ms", median(ix.self_ms("training.train_model")), "ms")
    timing("training.evaluate_model")
    evals = ix.under("training.evaluate_model", "training.train_model")
    put(
        "training.epoch_eval_share",
        sum(ix.total_s(v) for v in evals.values()) / ix.total_s(list(evals)),
        "fraction",
    )

    # cli
    put("cli.predict.self_ms", median(ix.self_ms("cli.predict")), "ms")
    passes = ix.under("models.forward_eval", "cli.predict")
    per_batch = [len(v) / len({spans[i].attrs["ptr"] for i in v}) for v in passes.values()]
    put("cli.predict.forward_passes_per_batch", median(per_batch), "count")
    return out
