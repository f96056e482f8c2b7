"""Gradient-check suite covering every layer and the multi-head loss.

Finite differences always run against a float64 evaluation of the same
computation; the float32 pass therefore measures the correctness of the
float32 analytic gradients rather than single-precision differencing
noise. Dropout is disabled and batch statistics come from the fixed check
batch, so every loss here is deterministic and smooth almost everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import build_model, model_description, multi_head_loss
from .nn import functional as F
from .nn.gradcheck import GradCheckReport, grad_check

TOL_F64 = 1e-7
TOL_F32 = 1e-4


@dataclass
class SuiteEntry:
    case: str
    dtype: str
    report: GradCheckReport

    @property
    def passed(self) -> bool:
        return self.report.passed


@dataclass(frozen=True)
class Case:
    """A gradient-check case. make(dtype) builds the computation in that
    dtype and returns (targets, loss, grads): targets is a list of
    (name, array, exclude_mask) for the arrays to difference, loss() the
    scalar loss of their current contents, grads() their analytic
    gradients in target order."""

    name: str
    make: Callable
    coords: int  # coordinates sampled per target
    rng_seed: int  # seed of the coordinate sampler


def _weighted_loss(y: np.ndarray, r: np.ndarray) -> float:
    return float(np.sum(y.astype(np.float64) * r))


def _array_case(name, seed, arrays64, loss, grads, masks=None) -> Case:
    """A functional case: loss(arrays) and grads(arrays) over the given
    float64 inputs, cast to the checked dtype."""

    def make(dtype):
        arrays = [a.astype(dtype) for a in arrays64]
        targets = [(f"{name}[{i}]", a, masks[i] if masks else None) for i, a in enumerate(arrays)]
        return targets, lambda: loss(arrays), lambda: grads(arrays)

    return Case(name, make, coords=6, rng_seed=seed + 99)


def _case_conv(seed):
    rng = np.random.default_rng(seed)
    n, c, o = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 5)
    h, w = rng.integers(4, 8), rng.integers(4, 9)
    kh, kw = rng.choice([1, 3, 7]), rng.choice([1, 3, 7])
    x = rng.standard_normal((n, c, h, w))
    wt = rng.standard_normal((o, c, kh, kw)) * 0.3
    b = rng.standard_normal(o) * 0.1
    r = rng.standard_normal((n, o, h, w))

    def loss(a):
        return _weighted_loss(F.conv2d_same(a[0], a[1], a[2]), r)

    def grads(a):
        return F.conv2d_same_backward(r.astype(a[0].dtype), a[0], a[1])

    return _array_case("conv2d_same", seed, [x, wt, b], loss, grads)


def _case_batchnorm(seed):
    rng = np.random.default_rng(seed)
    n, c, h, w = 4, int(rng.integers(2, 5)), int(rng.integers(3, 6)), int(rng.integers(3, 6))
    x = rng.standard_normal((n, c, h, w)) * 2 + rng.standard_normal((1, c, 1, 1))
    gamma = rng.uniform(0.5, 1.5, c)
    beta = rng.standard_normal(c) * 0.2

    def loss(a):
        y, _, _, _ = F.batchnorm2d_train(a[0], a[1], a[2], eps=1e-3)
        return float(np.sum(y.astype(np.float64) ** 2))

    def grads(a):
        y, _, _, cache = F.batchnorm2d_train(a[0], a[1], a[2], eps=1e-3)
        dy = (2.0 * y.astype(np.float64)).astype(a[0].dtype)
        return F.batchnorm2d_backward(dy, cache)

    return _array_case("batchnorm_train", seed, [x, gamma, beta], loss, grads)


def _case_maxpool(seed):
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    h, w = int(rng.integers(6, 11)), int(rng.integers(6, 11))
    ph, pw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    x = rng.standard_normal((n, c, h, w))
    r = rng.standard_normal((n, c, h // ph, w // pw))

    def loss(a):
        y, _ = F.maxpool2d(a[0], ph, pw)
        return _weighted_loss(y, r)

    def grads(a):
        _, idx = F.maxpool2d(a[0], ph, pw)
        return [F.maxpool2d_backward(r.astype(a[0].dtype), idx, a[0].shape, ph, pw)]

    return _array_case("maxpool", seed, [x], loss, grads)


def _case_dense(seed):
    rng = np.random.default_rng(seed)
    n, din, dout = int(rng.integers(2, 6)), int(rng.integers(3, 9)), int(rng.integers(2, 7))
    x = rng.standard_normal((n, din))
    w = rng.standard_normal((din, dout)) * 0.4
    b = rng.standard_normal(dout) * 0.1
    r = rng.standard_normal((n, dout))

    def loss(a):
        return _weighted_loss(F.dense(a[0], a[1], a[2]), r)

    def grads(a):
        return F.dense_backward(r.astype(a[0].dtype), a[0], a[1])

    return _array_case("dense", seed, [x, w, b], loss, grads)


def _case_relu(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 9))
    r = rng.standard_normal(x.shape)
    # coordinates at the kink are excluded from sampling
    masks = [np.abs(x) < 1e-4]

    def loss(a):
        return _weighted_loss(F.relu(a[0]), r)

    def grads(a):
        return [F.relu_backward(r.astype(a[0].dtype), a[0] > 0)]

    return _array_case("relu", seed, [x], loss, grads, masks)


def _case_softmax_ce(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 6)), int(rng.integers(3, 11))
    z = rng.standard_normal((n, k)) * 2
    labels = rng.integers(0, k, n)

    def loss(a):
        return F.softmax_cross_entropy(a[0], labels)[0]

    def grads(a):
        return [F.softmax_cross_entropy(a[0], labels)[1]]

    return _array_case("softmax_cross_entropy", seed, [z], loss, grads)


def _graph_case(name, desc, seed, x64, labels) -> Case:
    """A model case: the multi-head loss on x64 of the graph that
    build_model(desc, seed + 1, dtype) builds."""

    def make(dtype):
        graph = build_model(desc, seed + 1, dtype)
        params = graph.parameters()
        x = x64.astype(dtype)
        targets = [(f"{name}:input", x, None)] + [(f"{name}:{p.name}", p.data, None) for p in params]

        def loss():
            losses, _ = multi_head_loss(graph.forward(x, train=True), labels)
            return sum(losses.values())

        def grads():
            _, dlogits = multi_head_loss(graph.forward(x, train=True), labels)
            for p in params:
                p.grad[...] = 0
            dx = graph.backward(dlogits, input_grad=True)
            return [dx] + [p.grad for p in params]

        return targets, loss, grads

    return Case(name, make, coords=2, rng_seed=seed + 7)


def _case_subclassifier(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    channels = int(rng.choice([1, 2]))
    frames = int(rng.choice([20, 25]))
    labels = rng.integers(0, 10, n)
    x64 = rng.standard_normal((n, channels, 10, frames))

    # one band trunk under its 32 -> 10 logits layer: the one-crop
    # band-split net without per-band heads
    desc = model_description(
        "subspectralnet", 10, frames, channels, sub_size=10, hop_size=10, include_sub_heads=False, time_pool=frames // 5, dropout=0.0
    )
    return _graph_case("subclassifier_stack", desc, seed, x64, labels)


def _case_multi_head(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    channels = int(rng.choice([1, 2]))
    mel_bins, frames = 20, 20
    labels = rng.integers(0, 10, n)
    x64 = rng.standard_normal((n, channels, mel_bins, frames))
    desc = model_description("subspectralnet", mel_bins, frames, channels, sub_size=10, hop_size=5, dropout=0.0)
    return _graph_case("multi_head_loss", desc, seed, x64, labels)


def check_case(case: Case, dtype) -> SuiteEntry:
    """Analytic gradients computed in dtype against central differences
    of the float64 twin of the case, set to the same values."""
    targets, loss, grads = case.make(np.float64)
    if dtype == np.float64:
        analytic = grads()
    else:
        targets32, _, grads32 = case.make(np.float32)
        analytic = grads32()
        for (_, a64, _), (_, a32, _) in zip(targets, targets32):
            a64[...] = a32
    checked = [(name, a, np.asarray(g, dtype=np.float64), mask) for (name, a, mask), g in zip(targets, analytic)]
    tol = TOL_F64 if dtype == np.float64 else TOL_F32
    report = grad_check(loss, checked, tol, coords_per_target=case.coords, rng=np.random.default_rng(case.rng_seed))
    return SuiteEntry(case=case.name, dtype=np.dtype(dtype).name, report=report)


FUNCTIONAL_CASES = (_case_conv, _case_batchnorm, _case_maxpool, _case_dense, _case_relu, _case_softmax_ce)
MODEL_CASES = (_case_subclassifier, _case_multi_head)


def run_gradient_suite(seeds=range(20)) -> list[SuiteEntry]:
    """Check every case for every seed in float32 and float64; returns all entries."""
    entries = []
    for seed in seeds:
        for dtype in (np.float32, np.float64):
            for case_fn in FUNCTIONAL_CASES + MODEL_CASES:
                entries.append(check_case(case_fn(1000 + seed), dtype))
    return entries
