"""Gradient-check suite covering every layer and the multi-head loss.

Finite differences always run against a float64 evaluation of the same
computation; the float32 pass therefore measures the correctness of the
float32 analytic gradients rather than single-precision differencing
noise. Dropout is disabled and batch statistics come from the fixed check
batch, so every loss here is deterministic and smooth almost everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _weighted_loss(y: np.ndarray, r: np.ndarray) -> float:
    return float(np.sum(y.astype(np.float64) * r))


def _case_conv(seed):
    rng = np.random.default_rng(seed)
    n, c, o = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 5)
    h, w = rng.integers(4, 8), rng.integers(4, 9)
    kh, kw = rng.choice([1, 3, 7]), rng.choice([1, 3, 7])
    x = rng.standard_normal((n, c, h, w))
    wt = rng.standard_normal((o, c, kh, kw)) * 0.3
    b = rng.standard_normal(o) * 0.1
    r = rng.standard_normal((n, o, h, w))
    arrays = [x, wt, b]

    def loss(a):
        return _weighted_loss(F.conv2d_same(a[0], a[1], a[2]), r)

    def grads(a):
        dx, dw, db = F.conv2d_same_backward(r.astype(a[0].dtype), a[0], a[1])
        return [dx, dw, db]

    return "conv2d_same", arrays, loss, grads, None


def _case_batchnorm(seed):
    rng = np.random.default_rng(seed)
    n, c, h, w = 4, int(rng.integers(2, 5)), int(rng.integers(3, 6)), int(rng.integers(3, 6))
    x = rng.standard_normal((n, c, h, w)) * 2 + rng.standard_normal((1, c, 1, 1))
    gamma = rng.uniform(0.5, 1.5, c)
    beta = rng.standard_normal(c) * 0.2
    arrays = [x, gamma, beta]

    def loss(a):
        y, _, _, _ = F.batchnorm2d_train(a[0], a[1], a[2], eps=1e-3)
        return float(np.sum(y.astype(np.float64) ** 2))

    def grads(a):
        y, _, _, cache = F.batchnorm2d_train(a[0], a[1], a[2], eps=1e-3)
        dy = (2.0 * y.astype(np.float64)).astype(a[0].dtype)
        dx, dgamma, dbeta = F.batchnorm2d_backward(dy, cache)
        return [dx, dgamma, dbeta]

    return "batchnorm_train", arrays, loss, grads, None


def _case_maxpool(seed):
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    h, w = int(rng.integers(6, 11)), int(rng.integers(6, 11))
    ph, pw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    x = rng.standard_normal((n, c, h, w))
    r = rng.standard_normal((n, c, h // ph, w // pw))
    arrays = [x]

    def loss(a):
        y, _ = F.maxpool2d(a[0], ph, pw)
        return _weighted_loss(y, r)

    def grads(a):
        _, idx = F.maxpool2d(a[0], ph, pw)
        return [F.maxpool2d_backward(r.astype(a[0].dtype), idx, a[0].shape, ph, pw)]

    return "maxpool", arrays, loss, grads, None


def _case_dense(seed):
    rng = np.random.default_rng(seed)
    n, din, dout = int(rng.integers(2, 6)), int(rng.integers(3, 9)), int(rng.integers(2, 7))
    x = rng.standard_normal((n, din))
    w = rng.standard_normal((din, dout)) * 0.4
    b = rng.standard_normal(dout) * 0.1
    r = rng.standard_normal((n, dout))
    arrays = [x, w, b]

    def loss(a):
        return _weighted_loss(F.dense(a[0], a[1], a[2]), r)

    def grads(a):
        dx, dw, db = F.dense_backward(r.astype(a[0].dtype), a[0], a[1])
        return [dx, dw, db]

    return "dense", arrays, loss, grads, None


def _case_relu(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 9))
    r = rng.standard_normal(x.shape)
    arrays = [x]
    # coordinates at the kink are excluded from sampling
    masks = [np.abs(x) < 1e-4]

    def loss(a):
        return _weighted_loss(F.relu(a[0]), r)

    def grads(a):
        return [F.relu_backward(r.astype(a[0].dtype), a[0])]

    return "relu", arrays, loss, grads, masks


def _case_softmax_ce(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 6)), int(rng.integers(3, 11))
    z = rng.standard_normal((n, k)) * 2
    labels = rng.integers(0, k, n)
    arrays = [z]

    def loss(a):
        return F.softmax_cross_entropy(a[0], labels)[0]

    def grads(a):
        return [F.softmax_cross_entropy(a[0], labels)[1]]

    return "softmax_cross_entropy", arrays, loss, grads, None


def _graph_case(name, desc, seed, x64, labels):
    """A model case: the multi-head loss on x64 of the graph that
    build_model(desc, seed, dtype) builds."""

    def make(dtype):
        graph = build_model(desc, seed, dtype)
        params = graph.parameters()
        x = x64.astype(dtype)

        def loss():
            losses, _ = multi_head_loss(graph.forward(x, train=True), labels)
            return sum(losses.values())

        def grads():
            _, dlogits = multi_head_loss(graph.forward(x, train=True), labels)
            for p in params:
                p.grad[...] = 0
            dx = graph.backward(dlogits, input_grad=True)
            return [dx] + [p.grad for p in params]

        return x, params, loss, grads

    return name, make


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
    return _graph_case("subclassifier_stack", desc, seed + 1, x64, labels)


def _case_multi_head(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    channels = int(rng.choice([1, 2]))
    mel_bins, frames = 20, 20
    labels = rng.integers(0, 10, n)
    x64 = rng.standard_normal((n, channels, mel_bins, frames))
    desc = model_description("subspectralnet", mel_bins, frames, channels, sub_size=10, hop_size=5, dropout=0.0)
    return _graph_case("multi_head_loss", desc, seed + 1, x64, labels)


def _check_functional(case_fn, seed, dtype, coords=6) -> SuiteEntry:
    name, arrays64, loss, grads, masks = case_fn(seed)
    arrays64 = [np.asarray(a, dtype=np.float64) for a in arrays64]
    tol = TOL_F64 if dtype == np.float64 else TOL_F32
    if dtype == np.float64:
        analytic = grads(arrays64)
        eval_arrays = arrays64
    else:
        arrays32 = [a.astype(np.float32) for a in arrays64]
        analytic = grads(arrays32)
        eval_arrays = [a.astype(np.float64) for a in arrays32]
    targets = []
    for i, (arr, g) in enumerate(zip(eval_arrays, analytic)):
        mask = masks[i] if masks else None
        targets.append((f"{name}[{i}]", arr, np.asarray(g, dtype=np.float64), mask))
    report = grad_check(lambda: loss(eval_arrays), targets, tol, coords_per_target=coords, rng=np.random.default_rng(seed + 99))
    return SuiteEntry(case=name, dtype=np.dtype(dtype).name, report=report)


def _check_model(case_fn, seed, dtype, coords=2) -> SuiteEntry:
    name, make = case_fn(seed)
    tol = TOL_F64 if dtype == np.float64 else TOL_F32
    x_eval, params_eval, loss_eval, grads_eval = make(np.float64)
    if dtype == np.float64:
        analytic = grads_eval()
    else:
        x32, params32, _, grads32 = make(np.float32)
        analytic = grads32()
        # evaluate finite differences on the float64 twin at the same values
        x_eval[...] = x32.astype(np.float64)
        for p_eval, p32 in zip(params_eval, params32):
            p_eval.data[...] = p32.data.astype(np.float64)
    arrays = [x_eval] + [p.data for p in params_eval]
    names = ["input"] + [p.name for p in params_eval]
    targets = [
        (f"{name}:{n}", arr, np.asarray(g, dtype=np.float64))
        for n, arr, g in zip(names, arrays, analytic)
    ]
    report = grad_check(loss_eval, targets, tol, coords_per_target=coords, rng=np.random.default_rng(seed + 7))
    return SuiteEntry(case=name, dtype=np.dtype(dtype).name, report=report)


FUNCTIONAL_CASES = (_case_conv, _case_batchnorm, _case_maxpool, _case_dense, _case_relu, _case_softmax_ce)
MODEL_CASES = (_case_subclassifier, _case_multi_head)


def run_gradient_suite(seeds=range(20), dtypes=(np.float32, np.float64)) -> list[SuiteEntry]:
    """Check every case for every seed and dtype; returns all entries."""
    entries = []
    for seed in seeds:
        for dtype in dtypes:
            for case in FUNCTIONAL_CASES:
                entries.append(_check_functional(case, 1000 + seed, dtype))
            for case in MODEL_CASES:
                entries.append(_check_model(case, 1000 + seed, dtype))
    return entries
