"""Architecture tests: splitting, shape traces, parameter counts, heads."""

import re

import numpy as np
import pytest

from subspectral import models
from subspectral.models import (
    build_model,
    count_params,
    crop_ranges,
    global_head_widths,
    load_model,
    model_description,
    multi_head_loss,
)
from subspectral.nn import functional as F
from subspectral.nn import layers
from subspectral.nn.optim import adam_step
from subspectral.storage import ContainerError, read_checkpoint, write_checkpoint
from subspectral.training import predict_probs


def dimension_oracle_subclassifier(sub_size, frames, channels, time_pool):
    """Independent layer-by-layer shape arithmetic for the band CNN."""
    shapes = []
    f, t = sub_size, frames
    shapes.append(("conv1", (32, f, t)))
    f, t = f // (sub_size // 10), t // 5
    shapes.append(("pool1", (32, f, t)))
    shapes.append(("conv2", (64, f, t)))
    f, t = f // 4, t // time_pool
    shapes.append(("pool2", (64, f, t)))
    shapes.append(("flatten", (64 * f * t,)))
    shapes.append(("dense1", (32,)))
    shapes.append(("head", (10,)))
    return shapes


def one_band(sub_size, frames, **kw):
    """The band CNN alone: trunk and head of a one-crop band-split net."""
    graph = build_model(model_description("subspectralnet", sub_size, frames, 2, sub_size=sub_size, **kw))
    return graph.trunks[0], graph.sub_heads[0]


def _spec(kind, name, **fields):
    return dict(kind=kind, name=name, **fields)


def _dense_spec(name, d_in, d_out):
    return _spec("dense", name, in_features=d_in, out_features=d_out)


def _trunk_specs(p, in_channels, pool1, flat, dense_out):
    """Header layer specs of one conv trunk (32/64 kernels), in order."""
    return [
        _spec("conv2d", f"{p}.conv1", in_channels=in_channels, out_channels=32, kernel=[7, 7]),
        _spec("batchnorm", f"{p}.bn1", channels=32, eps=0.001, momentum=0.99),
        _spec("relu", f"{p}.relu1"),
        _spec("maxpool", f"{p}.pool1", pool=pool1),
        _spec("dropout", f"{p}.drop1", rate=0.3),
        _spec("conv2d", f"{p}.conv2", in_channels=32, out_channels=64, kernel=[7, 7]),
        _spec("batchnorm", f"{p}.bn2", channels=64, eps=0.001, momentum=0.99),
        _spec("relu", f"{p}.relu2"),
        _spec("maxpool", f"{p}.pool2", pool=[4, 10]),
        _spec("dropout", f"{p}.drop2", rate=0.3),
        _spec("flatten", f"{p}.flatten"),
        _dense_spec(f"{p}.dense1", flat, dense_out),
        _spec("relu", f"{p}.relu3"),
        _spec("dropout", f"{p}.drop3", rate=0.3),
    ]


def _trunk_params(prefix):
    layers = (("conv1", "weight", "bias"), ("bn1", "gamma", "beta"), ("conv2", "weight", "bias"), ("bn2", "gamma", "beta"))
    layers += (("dense1", "weight", "bias"),)
    return [f"{prefix}.{layer}.{t}" for layer, *tensors in layers for t in tensors]


def _trunk_buffers(prefix):
    return [f"{prefix}.{bn}.{b}" for bn in ("bn1", "bn2") for b in ("running_mean", "running_var", "batches_seen")]


class TestSplitConfig:
    def test_paper_geometry_40_20_10(self):
        ranges = crop_ranges(40, 20, 10)
        assert len(ranges) == 3
        assert ranges == [(0, 20), (10, 30), (20, 40)]

    @pytest.mark.parametrize(
        "mel_bins,sub,hop,expected",
        [(40, 20, 10, 3), (200, 30, 10, 18), (200, 20, 10, 19), (200, 200, 1, 1), (40, 40, 1, 1)],
    )
    def test_crop_count_formula(self, mel_bins, sub, hop, expected):
        assert len(crop_ranges(mel_bins, sub, hop)) == expected

    def test_single_crop_is_identity(self, rng):
        x = rng.standard_normal((2, 2, 40, 7))
        crops = [x[:, :, lo:hi, :] for lo, hi in crop_ranges(40, 40, 1)]
        assert len(crops) == 1
        np.testing.assert_array_equal(crops[0], x)

    def test_crops_cover_expected_bins(self, rng):
        # the trunks of the built graph read the crops of crop_ranges
        graph = build_model(model_description("subspectralnet", 40, 5, 2, time_pool=1))
        x = rng.standard_normal((1, 2, 40, 5))
        crops = [x[:, :, lo:hi, :] for lo, hi in graph.bands]
        for (lo, hi), crop in zip(crop_ranges(40, 20, 10), crops):
            np.testing.assert_array_equal(crop, x[:, :, lo:hi, :])

    def test_overlap_regions_bit_identical(self, rng):
        x = rng.standard_normal((1, 1, 40, 5)).astype(np.float32)
        crops = [x[:, :, lo:hi, :] for lo, hi in crop_ranges(40, 20, 10)]
        # crops 0 and 1 share bins [10, 20); crops 1 and 2 share [20, 30)
        np.testing.assert_array_equal(crops[0][:, :, 10:20], crops[1][:, :, :10])
        np.testing.assert_array_equal(crops[1][:, :, 10:20], crops[2][:, :, :10])

    def test_reassembly_reproduces_input(self, rng):
        x = rng.standard_normal((2, 1, 30, 4)).astype(np.float32)
        crops = [x[:, :, lo:hi, :] for lo, hi in crop_ranges(30, 10, 10)]  # disjoint crops covering all bins
        rebuilt = np.concatenate(crops, axis=2)
        np.testing.assert_array_equal(rebuilt, x)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            crop_ranges(40, 50, 10)  # crop taller than input
        with pytest.raises(ValueError, match="divisible by 10"):
            crop_ranges(40, 15, 10)
        with pytest.raises(ValueError):
            crop_ranges(40, 20, 0)

    def test_split_wrong_height_errors(self):
        graph = build_model(model_description("subspectralnet", 40, 5, 2, time_pool=1))
        with pytest.raises(ValueError, match="mel bins"):
            graph.forward(np.zeros((1, 2, 30, 5)), train=True)


class TestGlobalHeadWidths:
    def test_single_crop_no_hidden_layers(self):
        assert global_head_widths(1) == []

    def test_eighteen_crops(self):
        assert global_head_widths(18) == [256, 128, 64]

    def test_printed_formula_for_three_crops(self):
        assert global_head_widths(3) == []

    def test_compat_mode_for_three_crops(self):
        assert global_head_widths(3, head_compat=True) == [64]

    def test_widths_halve_and_end_at_64(self):
        for m in (2, 3, 4, 8, 18, 19, 32):
            widths = global_head_widths(m)
            if widths:
                assert widths[-1] == 64
                assert all(a == 2 * b for a, b in zip(widths, widths[1:]))


class TestShapeTraces:
    @pytest.mark.parametrize(
        "mel_bins,sub,hop,frames",
        [(40, 20, 10, 500), (200, 30, 10, 500), (200, 20, 10, 500)],
    )
    def test_forward_shapes_match_dimension_oracle(self, mel_bins, sub, hop, frames):
        desc = model_description("subspectralnet", mel_bins, frames, 2, sub_size=sub, hop_size=hop, dropout=0.0)
        graph = build_model(desc, seed=0)
        x = np.random.default_rng(0).standard_normal((1, 2, mel_bins, frames)).astype(np.float32)
        crops = [x[:, :, lo:hi, :] for lo, hi in graph.bands]
        assert len(crops) == len(crop_ranges(mel_bins, sub, hop))
        oracle = dimension_oracle_subclassifier(sub, frames, 2, 100)
        expected = {name: shape for name, shape in oracle}
        for trunk, crop in zip(graph.trunks[:2], crops[:2]):  # same layers; checking two is enough
            h = crop
            for layer in trunk.layers:
                h = layer.forward(h, train=True)
                key = layer.name.split(".")[-1]
                if key in expected and key != "head":
                    assert h.shape[1:] == expected[key], f"{layer.name}: {h.shape[1:]} != {expected[key]}"

    def test_subclassifier_trace_40_20_10_stereo(self):
        # 2x20x500 -> 32x10x100 -> 64x2x1 -> 128 -> 32 -> 10
        trunk, head = one_band(20, 500, dropout=0.0)
        x = np.zeros((1, 2, 20, 500), dtype=np.float32)
        shapes = [x.shape]
        h = x
        for layer in trunk.layers:
            h = layer.forward(h, train=True)
            shapes.append(h.shape)
        probs = head.forward(h, train=True)
        assert (1, 32, 20, 500) in shapes
        assert (1, 32, 10, 100) in shapes
        assert (1, 64, 10, 100) in shapes
        assert (1, 64, 2, 1) in shapes
        assert (1, 128) in shapes
        assert (1, 32) in shapes
        assert probs.shape == (1, 10)

    def test_sub_size_10_first_pool(self):
        trunk, _ = one_band(10, 500, dropout=0.0)
        x = np.zeros((1, 2, 10, 500), dtype=np.float32)
        h = x
        for layer in trunk.layers:
            h = layer.forward(h, train=True)
            if layer.name.endswith("pool1"):
                assert h.shape == (1, 32, 10, 100)

    def test_baseline_200_mel_flatten_width(self):
        graph = build_model(model_description("baseline", 200, 500, 2, dropout=0.0))
        x = np.zeros((1, 2, 200, 500), dtype=np.float32)
        h = x
        for layer in graph.trunks[0].layers:
            h = layer.forward(h, train=True)
            if layer.name.endswith("flatten"):
                assert h.shape == (1, 640)  # 64 * (200/5/4) * (500/5/100)


class TestParameterCounts:
    def test_subclassifier_closed_form(self):
        trunk, head = one_band(20, 500)
        total = sum(p.size for p in trunk.params()) + sum(p.size for p in head.params())
        # 3,168 + 64 + 100,416 + 128 + 4,128 + 330
        assert total == 108234

    def test_baseline_40_stereo(self):
        assert count_params(build_model(model_description("baseline", 40, 500, 2))) == 117686
        assert abs(count_params(build_model(model_description("baseline", 40, 500, 2))) - 117_000) / 117_000 < 0.02

    def test_baseline_doubled(self):
        assert count_params(build_model(model_description("baseline", 40, 500, 2, width_multiplier=2))) == 434966

    def test_baseline_mono_conv1_delta(self):
        stereo = build_model(model_description("baseline", 40, 500, 2))
        mono = build_model(model_description("baseline", 40, 500, 1))
        assert count_params(stereo) - count_params(mono) == 32 * 7 * 7 * 1

    def test_subspectralnet_counts(self):
        desc = model_description("subspectralnet", 40, 500, 2, sub_size=20, hop_size=10)
        assert count_params(build_model(dict(desc, head_compat=True))) == 331560
        assert count_params(build_model(dict(desc, head_compat=False))) == 325672
        assert count_params(build_model(dict(desc, head_compat=True, include_sub_heads=False))) == 330570

    def test_no_sub_heads_delta_is_three_heads(self):
        desc = model_description("subspectralnet", 40, 500, 2, head_compat=True)
        with_heads = count_params(build_model(desc))
        without = count_params(build_model(dict(desc, include_sub_heads=False)))
        assert with_heads - without == 3 * (32 * 10 + 10)

    def test_count_monotone_in_crop_count(self):
        counts = []
        for hop in (20, 10, 5, 2):
            graph = build_model(model_description("subspectralnet", 40, 500, 2, sub_size=20, hop_size=hop))
            counts.append((len(graph.bands), count_params(graph)))
        counts.sort()
        assert all(a[1] <= b[1] for a, b in zip(counts, counts[1:]))

    def test_empty_graph_is_zero(self):
        from subspectral.models import ModelGraph
        from subspectral.nn.layers import Sequential

        graph = ModelGraph({"kind": "subspectralnet"}, [], [], [], Sequential([]))
        assert count_params(graph) == 0

    def test_layer_table_total_matches(self):
        graph = build_model(model_description("baseline", 40, 500, 2))
        assert sum(r["params"] for r in graph.layer_table()) == count_params(graph)


class TestMultiHeadLoss:
    def test_uniform_heads_sum(self):
        logits = {name: np.zeros((2, 10)) for name in ("global", "sub0", "sub1", "sub2")}
        labels = np.array([3, 7])
        losses, dlogits = multi_head_loss(logits, labels)
        assert sum(losses.values()) == pytest.approx(4 * np.log(10), rel=1e-9)
        assert list(losses) == list(dlogits) == list(logits)
        for name, z in logits.items():
            assert losses[name] == F.softmax_cross_entropy(z, labels)[0]

    def test_disabled_sub_losses(self):
        # a single-head dict (the graph of --no-sub-loss) gives that
        # head's loss alone
        losses, dlogits = multi_head_loss({"global": np.zeros((2, 10))}, np.array([0, 0]))
        assert losses["global"] == pytest.approx(np.log(10), rel=1e-9)
        assert list(losses) == list(dlogits) == ["global"]

    def test_gradient_is_sum_of_head_gradients(self, rng):
        desc = model_description("subspectralnet", 20, 20, 1, sub_size=10, hop_size=10, dropout=0.0)
        graph = build_model(desc, seed=5, dtype=np.float64)
        x = rng.standard_normal((2, 1, 20, 20))
        labels = np.array([1, 8])
        store = graph.param_store()

        logits = graph.forward(x, train=True)
        losses, dlogits = multi_head_loss(logits, labels)
        assert list(losses) == graph.head_names()
        for head, z in logits.items():
            assert losses[head] == F.softmax_cross_entropy(z, labels)[0]
        store.zero_grad()
        graph.backward(dlogits)
        combined = {p.name: p.grad.copy() for p in graph.parameters()}

        total = {p.name: np.zeros_like(p.grad) for p in graph.parameters()}
        for head in graph.head_names():
            logits = graph.forward(x, train=True)
            _, dz = multi_head_loss({head: logits[head]}, labels)
            store.zero_grad()
            graph.backward(dz)
            for p in graph.parameters():
                total[p.name] += p.grad
        for name in combined:
            np.testing.assert_allclose(combined[name], total[name], rtol=1e-9, atol=1e-12)


class TestHeadGradientFlow:
    def test_disabled_sub_losses_leave_head_params_untouched(self, rng):
        graph = build_model(model_description("subspectralnet", 40, 50, 2, dropout=0.0, time_pool=10), seed=2)
        x = rng.standard_normal((2, 2, 40, 50)).astype(np.float32)
        labels = np.array([0, 5])
        store = graph.param_store()
        logits = graph.forward(x, train=True)
        _, dlogits = multi_head_loss({"global": logits["global"]}, labels)
        store.zero_grad()
        graph.backward(dlogits)
        for head in graph.sub_heads:
            for p in head.params():
                assert np.all(p.grad == 0), f"{p.name} should receive no gradient"
        for trunk in graph.trunks:
            assert any(np.any(p.grad != 0) for p in trunk.params()), "trunks must still learn from the global head"

    def test_head_count_and_stochastic_rows(self, rng):
        graph = build_model(model_description("subspectralnet", 40, 50, 2, dropout=0.0, time_pool=10), seed=0)
        x = rng.standard_normal((4, 2, 40, 50)).astype(np.float32)
        logits = graph.forward(x, train=True)
        assert len(logits) == len(crop_ranges(40, 20, 10)) + 1
        probs = predict_probs(graph, x)
        assert set(probs) == set(logits)
        for p in probs.values():
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)


class TestEvalModeState:
    @pytest.mark.parametrize("kind", ["conv2d", "batchnorm", "relu", "maxpool", "dropout", "flatten", "dense"])
    def test_backward_after_eval_forward_raises(self, rng, kind):
        graph = build_model(model_description("baseline", 40, 50, 2), seed=0)
        graph.set_dropout_rng(np.random.default_rng(0))
        x = rng.standard_normal((2, 2, 40, 50)).astype(np.float32)
        graph.forward(x, train=True)
        graph.forward(x, train=False)  # drops what the train-mode forward kept
        layer = next(layer for seq in graph.trunks + [graph.global_head] for layer in seq.layers if layer.kind == kind)
        with pytest.raises(RuntimeError, match=f"{layer.name}: backward without a train-mode forward"):
            layer.backward(np.zeros(1, dtype=np.float32))

    @pytest.mark.parametrize("kind", ["baseline", "subspectralnet"])
    def test_backward_drops_what_the_forward_kept(self, rng, kind):
        graph = build_model(model_description(kind, 40, 50, 2), seed=0)
        graph.set_dropout_rng(np.random.default_rng(0))
        x = rng.standard_normal((2, 2, 40, 50)).astype(np.float32)
        _, dlogits = multi_head_loss(graph.forward(x, train=True), np.array([0, 3]))
        graph.backward(dlogits)
        layers = [layer for seq in graph.trunks + graph.sub_heads + [graph.global_head] for layer in seq.layers]
        saved = {f"{layer.name}.{key}": value for layer in layers for key, value in vars(layer).items() if key.startswith("_")}
        assert len(saved) == len(layers)
        assert [name for name, value in saved.items() if value is not None] == []
        with pytest.raises(RuntimeError, match="backward without a train-mode forward"):
            graph.backward(dlogits)
        for layer in layers:
            with pytest.raises(RuntimeError, match=f"{layer.name}: backward without a train-mode forward"):
                layer.backward(np.zeros(1, dtype=np.float32))


class TestOwnership:
    @pytest.mark.parametrize("kind", ["baseline", "subspectralnet"])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_graph_leaves_the_callers_x_and_dlogits(self, rng, kind, dropout):
        graph = build_model(model_description(kind, 40, 50, 2, dropout=dropout), seed=0)
        graph.set_dropout_rng(np.random.default_rng(0))
        x = rng.standard_normal((4, 2, 40, 50)).astype(np.float32)
        x0 = x.copy()
        _, dlogits = multi_head_loss(graph.forward(x, train=True), np.array([0, 3, 5, 9]))
        assert x.tobytes() == x0.tobytes()
        handed = {name: d.copy() for name, d in dlogits.items()}
        graph.backward(dlogits)
        for name, d in dlogits.items():
            assert d.tobytes() == handed[name].tobytes(), name
        graph.forward(x, train=False)
        assert x.tobytes() == x0.tobytes()


class TestCheckpointRoundTrip:
    def test_bit_exact_params_and_buffers(self, tmp_path, rng):
        desc = model_description("subspectralnet", 40, 50, 2, time_pool=10, class_names=[f"c{i}" for i in range(10)])
        graph = build_model(desc, seed=9)
        graph.set_dropout_rng(np.random.default_rng(0))
        # push one training batch through so BN stats are nontrivial
        x = rng.standard_normal((4, 2, 40, 50)).astype(np.float32)
        graph.forward(x, train=True)
        path = tmp_path / "model.ssnw"
        graph.save(path, meta={"note": "test"})
        loaded, meta = load_model(path)
        assert meta["note"] == "test"
        for a, b in zip(graph.parameters(), loaded.parameters()):
            assert a.name == b.name
            np.testing.assert_array_equal(a.data, b.data)
        probs_a = graph.forward(x, train=False)
        probs_b = loaded.forward(x, train=False)
        for name in probs_a:
            np.testing.assert_array_equal(probs_a[name], probs_b[name])

    def test_state_is_a_copy_that_load_state_restores(self, rng):
        graph = build_model(model_description("baseline", 40, 50, 2, time_pool=10), seed=3)
        graph.set_dropout_rng(np.random.default_rng(0))
        x = rng.standard_normal((4, 2, 40, 50)).astype(np.float32)
        graph.forward(x, train=True)
        saved = graph.state()
        assert set(saved) == {p.name for p in graph.parameters()} | {name for name, _ in graph.buffers()}
        graph.forward(x, train=True)  # moves the running stats and the batch count
        graph.parameters()[0].data += 1.0
        assert not np.array_equal(graph.state()["base.bn1.running_mean"], saved["base.bn1.running_mean"])
        graph.load_state(saved)
        for name, value in graph.state().items():
            np.testing.assert_array_equal(value, saved[name])

    def test_state_snapshot_does_not_alias_the_live_buffers(self, rng):
        graph = build_model(model_description("subspectralnet", 40, 50, 2, time_pool=10), seed=6)
        graph.set_dropout_rng(np.random.default_rng(0))
        store = graph.param_store()
        x = rng.standard_normal((4, 2, 40, 50)).astype(np.float32)
        labels = np.array([0, 3, 5, 9])

        def train_step():
            _, dlogits = multi_head_loss(graph.forward(x, train=True), labels)
            store.zero_grad()
            graph.backward(dlogits)
            adam_step(store)

        train_step()
        snapshot = graph.state()
        frozen = {name: value.copy() for name, value in snapshot.items()}
        assert snapshot["sub0.bn1.batches_seen"][0] == 1
        train_step()
        for name, value in frozen.items():
            np.testing.assert_array_equal(snapshot[name], value, err_msg=name)
        graph.load_state(snapshot)
        train_step()
        for name, value in frozen.items():
            np.testing.assert_array_equal(snapshot[name], value, err_msg=name)
        assert graph.state()["sub0.bn1.batches_seen"][0] == 2

    @pytest.mark.parametrize("damage", ["drop", "extra"])
    def test_checkpoint_must_hold_exactly_the_model_tensors(self, tmp_path, rng, damage):
        graph = build_model(model_description("baseline", 40, 50, 2, time_pool=10), seed=3)
        graph.set_dropout_rng(np.random.default_rng(0))
        graph.forward(rng.standard_normal((2, 2, 40, 50)).astype(np.float32), train=True)
        path = tmp_path / "model.ssnw"
        graph.save(path)
        desc, tensors, _ = read_checkpoint(path)
        if damage == "drop":
            name = "base.conv1.weight"
            del tensors[name]  # write_checkpoint drops its entry and its bytes
        else:
            name = "base.extra.weight"
            tensors[name] = np.zeros(3, dtype=np.float32)
        write_checkpoint(path, desc, [(n, "param", v) for n, v in tensors.items()])
        with pytest.raises(ContainerError, match=re.escape(name)):
            load_model(path)

    @pytest.mark.parametrize("value", [0, -1, 1.5, True, "2"])
    def test_width_multiplier_must_be_an_int_of_at_least_1(self, tmp_path, value):
        with pytest.raises(ValueError, match=re.escape(f"width_multiplier {value!r} is not an integer >= 1")):
            build_model(model_description("baseline", 40, 50, 2, time_pool=10, width_multiplier=value))
        graph = build_model(model_description("baseline", 40, 50, 2, time_pool=10), seed=3)
        path = tmp_path / "model.ssnw"
        graph.save(path)
        desc, tensors, _ = read_checkpoint(path)
        write_checkpoint(path, dict(desc, width_multiplier=value), [(n, "param", v) for n, v in tensors.items()])
        with pytest.raises(ContainerError, match=re.escape(f"{path}: bad model description: width_multiplier {value!r}")):
            load_model(path)

    def test_checkpoint_listing_a_tensor_twice_is_rejected(self, tmp_path):
        graph = build_model(model_description("baseline", 40, 50, 2, time_pool=10), seed=3)
        path = tmp_path / "model.ssnw"
        graph.save(path)
        desc, tensors, _ = read_checkpoint(path)
        name = "base.conv1.weight"
        entries = [(n, "param", v) for n, v in tensors.items()]
        write_checkpoint(path, desc, entries + [(name, "param", np.full_like(tensors[name], 7.0))])
        for reader in (read_checkpoint, load_model):
            with pytest.raises(ContainerError, match=re.escape(f"tensor {name!r} is listed twice")):
                reader(path)

    def test_load_model_makes_no_init_draws(self, tmp_path, rng, monkeypatch):
        graph = build_model(model_description("subspectralnet", 40, 50, 2, time_pool=10), seed=4)
        graph.set_dropout_rng(np.random.default_rng(0))
        x = rng.standard_normal((4, 2, 40, 50)).astype(np.float32)
        graph.forward(x, train=True)
        path = tmp_path / "model.ssnw"
        graph.save(path)

        def no_init(*args, **kwargs):
            raise AssertionError("load_model drew an init")

        monkeypatch.setattr(layers, "glorot_uniform", no_init)
        monkeypatch.setattr(models, "philox_rng", no_init)
        loaded, _ = load_model(path)
        state = loaded.state()
        for name, value in graph.state().items():
            assert state[name].tobytes() == value.tobytes(), name
        expected = predict_probs(graph, x)
        for name, probs in predict_probs(loaded, x).items():
            assert probs.tobytes() == expected[name].tobytes(), name

    def test_header_listing_softmax_layers_loads_and_predicts_the_same(self, tmp_path, rng):
        # checkpoints written while every head ended in a softmax layer
        # list those layers in their header; they carry no tensors
        graph = build_model(model_description("subspectralnet", 40, 50, 2, time_pool=10), seed=4)
        graph.set_dropout_rng(np.random.default_rng(0))
        x = rng.standard_normal((4, 2, 40, 50)).astype(np.float32)
        graph.forward(x, train=True)
        path = tmp_path / "model.ssnw"
        graph.save(path)
        header = graph.describe()
        softmax_specs = [{"kind": "softmax", "name": f"{h}.softmax"} for h in graph.head_names()]
        header["layers"] = header["layers"] + softmax_specs
        _, tensors, _ = read_checkpoint(path)
        write_checkpoint(path, header, [(n, "param", v) for n, v in tensors.items()])
        loaded, _ = load_model(path)
        expected = predict_probs(graph, x)
        for name, probs in predict_probs(loaded, x).items():
            np.testing.assert_array_equal(probs, expected[name])

    def test_saved_tensor_order_and_layer_list_are_pinned(self, tmp_path):
        # checkpoint bytes follow this order; a restructure must keep it
        bands = [f"sub{m}" for m in range(3)]
        cases = [
            (
                build_model(model_description("baseline", 40, 50, 2)),
                _trunk_params("base") + ["base.dense2.weight", "base.dense2.bias"] + _trunk_buffers("base"),
                _trunk_specs("base", 2, [5, 5], 128, 100) + [_dense_spec("base.dense2", 100, 10)],
            ),
            (
                build_model(model_description("subspectralnet", 40, 50, 2, sub_size=20, hop_size=10)),
                [n for b in bands for n in _trunk_params(b)]
                + [f"{b}.head.{t}" for b in bands for t in ("weight", "bias")]
                + ["global.out.weight", "global.out.bias"]
                + [n for b in bands for n in _trunk_buffers(b)],
                [spec for b in bands for spec in _trunk_specs(b, 2, [2, 5], 128, 32)]
                + [_dense_spec(f"{b}.head", 32, 10) for b in bands]
                + [_dense_spec("global.out", 96, 10)],
            ),
        ]
        for graph, tensor_names, layers in cases:
            path = tmp_path / f"{graph.desc['kind']}.ssnw"
            graph.save(path)
            desc, tensors, _ = read_checkpoint(path)
            assert list(tensors) == tensor_names
            assert desc["layers"] == layers

    def test_eval_before_training_errors(self):
        graph = build_model(model_description("baseline", 40, 50, 2, time_pool=10))
        x = np.zeros((1, 2, 40, 50), dtype=np.float32)
        with pytest.raises(RuntimeError, match="eval before any training batch"):
            graph.forward(x, train=False)

    def test_rebuild_from_description(self):
        for seed in (0, 3):
            for graph in (
                build_model(model_description("subspectralnet", 40, 500, 2, head_compat=True), seed=seed),
                build_model(model_description("baseline", 40, 500, 2, width_multiplier=2), seed=seed),
            ):
                rebuilt = build_model(graph.describe(), seed=seed)
                assert count_params(rebuilt) == count_params(graph)
                assert rebuilt.describe() == graph.describe()
                state, rebuilt_state = graph.state(), rebuilt.state()
                assert list(rebuilt_state) == list(state)
                for name, value in state.items():
                    np.testing.assert_array_equal(rebuilt_state[name], value, err_msg=name)

    def test_dropping_sub_heads_keeps_every_shared_tensor(self):
        # the dropped heads still take their init draws
        desc = model_description("subspectralnet", 40, 50, 2, head_compat=True)
        full = build_model(desc, seed=1).state()
        lean = build_model(dict(desc, include_sub_heads=False), seed=1).state()
        assert set(full) - set(lean) == {f"sub{m}.head.{t}" for m in range(3) for t in ("weight", "bias")}
        for name, value in lean.items():
            np.testing.assert_array_equal(value, full[name], err_msg=name)

    def test_unknown_kind_and_option_are_rejected(self):
        desc = build_model(model_description("baseline", 40, 50, 2)).describe()
        with pytest.raises(ValueError, match="unknown model kind"):
            build_model(dict(desc, kind="transformer"))
        with pytest.raises(KeyError, match="width_multiplier"):
            build_model({k: v for k, v in desc.items() if k != "width_multiplier"})
        with pytest.raises(TypeError, match="widht"):
            model_description("baseline", 40, 50, 2, widht_multiplier=2)


class TestBuilderErrors:
    def test_time_pool_too_large_names_dimension(self):
        with pytest.raises(ValueError, match="time"):
            one_band(20, 40, time_pool=100)

    def test_baseline_mel_bins_constraint(self):
        with pytest.raises(ValueError, match="divide"):
            build_model(model_description("baseline", 42, 500, 2))

    def test_sub_size_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            one_band(15, 500)
