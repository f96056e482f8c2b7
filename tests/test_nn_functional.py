"""Kernel-level tests against brute-force oracles."""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from subspectral.models import build_model, model_description, multi_head_loss
from subspectral.nn import functional as F
from subspectral.nn.gradcheck import grad_check
from subspectral.nn.layers import BatchNorm2d, Conv2dSame, Dense, Dropout, Flatten, MaxPool2d, Parameter, ReLU, Sequential
from subspectral.nn.optim import BETA1, BETA2, EPS, ParamStore, adam_step
from subspectral.seeding import philox_rng
from subspectral.training import predict_probs


def naive_conv2d_same(x, w, b):
    """O(N*O*C*H*W*Kh*Kw) direct loop with same zero padding."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    pt = (kh - 1) // 2
    pl = (kw - 1) // 2
    y = np.zeros((n, o, h, wd))
    for ni in range(n):
        for oi in range(o):
            for i in range(h):
                for j in range(wd):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                ii, jj = i + ki - pt, j + kj - pl
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += x[ni, ci, ii, jj] * w[oi, ci, ki, kj]
                    y[ni, oi, i, j] = acc + b[oi]
    return y


def reference_im2col(x, kh, kw):
    """All 'same'-padded columns (C*Kh*Kw, N*H*W) at once."""
    n, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), ((kh - 1) // 2, kh // 2), ((kw - 1) // 2, kw // 2)))
    cols = np.empty((c, kh, kw, n, h, w), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = padded[:, :, i : i + h, j : j + w].transpose(1, 0, 2, 3)
    return cols.reshape(c * kh * kw, n * h * w)


def reference_conv2d_same(x, w, b):
    """One GEMM over every column: the bytes the slab kernels must keep."""
    n, _, h, wd = x.shape
    o, _, kh, kw = w.shape
    out = w.reshape(o, -1) @ reference_im2col(x, kh, kw)
    out += b[:, None]
    return np.ascontiguousarray(out.reshape(o, n, h, wd).transpose(1, 0, 2, 3), dtype=x.dtype)


def reference_conv2d_same_backward(dy, x, w):
    """dw from one GEMM, and dcols for all samples added into a zero-padded
    buffer one kernel offset at a time."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    dyr = np.ascontiguousarray(dy.transpose(1, 0, 2, 3)).reshape(o, n * h * wd)
    db = dyr.sum(axis=1, dtype=np.float64).astype(w.dtype)
    dw = (reference_im2col(x, kh, kw) @ dyr.T).T.reshape(w.shape).astype(w.dtype, copy=False)
    dcols = (w.reshape(o, -1).T @ dyr).reshape(c, kh, kw, n, h, wd)
    dpad = np.zeros((n, c, h + kh - 1, wd + kw - 1), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            dpad[:, :, i : i + h, j : j + wd] += dcols[:, i, j].transpose(1, 0, 2, 3)
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    return np.ascontiguousarray(dpad[:, :, pt : pt + h, pl : pl + wd]), dw, db


def reference_maxpool2d(x, pool_h, pool_w):
    """Window copy + argmax + take_along_axis: the row-major first-maximum
    definition that maxpool2d's scan must match."""
    n, c, h, w = x.shape
    ho, wo = h // pool_h, w // pool_w
    windows = (
        x[:, :, : ho * pool_h, : wo * pool_w]
        .reshape(n, c, ho, pool_h, wo, pool_w)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, ho, wo, pool_h * pool_w)
    )
    idx = windows.argmax(axis=-1)
    y = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    return y, idx


def reference_maxpool2d_backward(dy, idx, x_shape, pool_h, pool_w):
    n, c, h, w = x_shape
    ho, wo = h // pool_h, w // pool_w
    dwin = np.zeros((n, c, ho, wo, pool_h * pool_w), dtype=dy.dtype)
    np.put_along_axis(dwin, idx[..., None], dy[..., None], axis=-1)
    dx = np.zeros(x_shape, dtype=dy.dtype)
    dx[:, :, : ho * pool_h, : wo * pool_w] = (
        dwin.reshape(n, c, ho, wo, pool_h, pool_w).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho * pool_h, wo * pool_w)
    )
    return dx


def reference_batchnorm2d_train(x, gamma, beta, eps):
    """Out-of-place batch norm: the formulas the in-place kernels keep."""
    m = x.shape[0] * x.shape[2] * x.shape[3]
    mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
    sumsq = np.einsum("nchw,nchw->c", x, x, dtype=np.float64)
    var = np.maximum(sumsq / m - mean**2, 0.0)
    inv_t = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    xhat = (x - mean.astype(x.dtype)[None, :, None, None]) * inv_t[None, :, None, None]
    y = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    return y.astype(x.dtype, copy=False), mean, var, (xhat, inv_t, gamma)


def reference_batchnorm2d_backward(dy, cache):
    xhat, inv, gamma = cache
    m = dy.shape[0] * dy.shape[2] * dy.shape[3]
    dgamma = np.einsum("nchw,nchw->c", dy, xhat, dtype=np.float64)
    dbeta = dy.sum(axis=(0, 2, 3), dtype=np.float64)
    dxhat = dy * gamma[None, :, None, None]
    sum_dxhat = dxhat.sum(axis=(0, 2, 3), dtype=np.float64)
    sum_dxhat_xhat = np.einsum("nchw,nchw->c", dxhat, xhat, dtype=np.float64)
    dx = (inv[None, :, None, None] / m) * (
        m * dxhat
        - sum_dxhat.astype(dy.dtype)[None, :, None, None]
        - xhat * sum_dxhat_xhat.astype(dy.dtype)[None, :, None, None]
    )
    return dx.astype(dy.dtype, copy=False), dgamma, dbeta


def traced_peak(fn, *args):
    """(result, peak bytes that numpy and Python allocated during fn)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# reduction buffers and per-channel arrays: far below one full-size array
# at the shapes of the memory tests
MEMORY_SLACK = 256 * 1024


class TestConv:
    def test_1x1_identity_kernel(self):
        x = np.random.default_rng(0).standard_normal((2, 1, 4, 5)).astype(np.float32)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        np.testing.assert_array_equal(F.conv2d_same(x, w, b), x)

    def test_ones_kernel_counts_overlap(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        y = F.conv2d_same(x, w, np.zeros(1))
        assert y[0, 0, 1, 1] == 9
        for corner in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert y[0, 0][corner] == 4

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 2, 5, 6))
        w = rng.standard_normal((4, 2, 7, 7))
        b = rng.standard_normal(4)
        np.testing.assert_allclose(F.conv2d_same(x, w, b), naive_conv2d_same(x, w, b), rtol=1e-6, atol=1e-9)

    def test_even_kernel_keeps_size(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 6, 5))
        w = rng.standard_normal((2, 3, 2, 4))
        y = F.conv2d_same(x, w, np.zeros(2))
        assert y.shape == (2, 2, 6, 5)

    def test_channel_mismatch_errors(self):
        with pytest.raises(ValueError, match="channels"):
            F.conv2d_same(np.zeros((1, 3, 4, 4)), np.zeros((2, 2, 3, 3)), np.zeros(2))

    @pytest.mark.parametrize("hw", [(1, 1), (1, 9), (8, 1), (9, 9)])
    def test_spatial_size_preserved_for_7x7(self, hw):
        x = np.zeros((1, 1) + hw)
        y = F.conv2d_same(x, np.zeros((1, 1, 7, 7)), np.zeros(1))
        assert y.shape == x.shape


class TestConvGradients:
    @pytest.mark.parametrize("kernel", [(2, 4), (4, 2), (2, 2)])
    def test_even_kernels_match_central_differences(self, kernel):
        rng = np.random.default_rng(sum(kernel))
        x = rng.standard_normal((2, 3, 5, 6))
        w = rng.standard_normal((4, 3) + kernel) * 0.3
        b = rng.standard_normal(4) * 0.1
        r = rng.standard_normal((2, 4, 5, 6))
        dx, dw, db = F.conv2d_same_backward(r, x, w)
        targets = [("x", x, dx), ("w", w, dw), ("b", b, db)]
        report = grad_check(lambda: float(np.sum(F.conv2d_same(x, w, b) * r)), targets, 1e-7, coords_per_target=12, rng=rng)
        assert report.passed, report.worst

    def test_outputs_are_c_contiguous(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 2, 6, 9)).astype(np.float32)
        w = rng.standard_normal((5, 2, 7, 7)).astype(np.float32)
        y = F.conv2d_same(x, w, np.zeros(5, dtype=np.float32))
        dx, _, _ = F.conv2d_same_backward(np.ones_like(y), x, w)
        assert y.flags.c_contiguous and dx.flags.c_contiguous
        assert y.dtype == dx.dtype == np.float32


class TestConvSlabs:
    """The slab kernels against one-GEMM copies of the same math."""

    @staticmethod
    def conv_case(rng, n, shape, kernels, dtype):
        """x (n, *shape) with post-ReLU zeros, w (kernels, C, 7, 7), b and
        a dy of the output's shape."""
        x = rng.standard_normal((n, *shape)).astype(dtype)
        x[:, :, ::3] = np.maximum(x[:, :, ::3], 0)
        w = (rng.standard_normal((kernels, shape[0], 7, 7)) * 0.1).astype(dtype)
        b = rng.standard_normal(kernels).astype(dtype)
        dy = rng.standard_normal((n, kernels, *shape[1:])).astype(dtype)
        return x, w, b, dy

    # corpus-10s conv1 and conv2 (10 s clips, 40 mel, doubled-width
    # baseline): the train shapes whose columns exceed COLS_BUDGET
    CORPUS = [((10, 2, 40, 500), 64), ((10, 64, 8, 100), 128)]

    @pytest.mark.parametrize("overwrite", [False, True], ids=["copy", "overwrite"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, kernels", CORPUS, ids=["conv1", "conv2"])
    def test_corpus_shapes_match_one_gemm_bytes(self, shape, kernels, dtype, overwrite):
        x, w, b, dy = self.conv_case(np.random.default_rng(shape[1]), shape[0], shape[1:], kernels, dtype)
        assert x.size * 49 * x.itemsize > F.COLS_BUDGET  # the slab path runs
        if not overwrite:
            y = F.conv2d_same(x, w, b)
            expected = reference_conv2d_same(x, w, b)
            assert y.dtype == expected.dtype and y.flags.c_contiguous and y.tobytes() == expected.tobytes()
        expected = reference_conv2d_same_backward(dy, x, w)
        for need_dx in (True, False):
            handed = dy.copy()
            dx, dw, db = F.conv2d_same_backward(handed, x, w, need_dx=need_dx, overwrite_dy=overwrite)
            assert (dx is None) != need_dx
            assert (handed.tobytes() != dy.tobytes()) == overwrite
            got = (dx, dw, db) if need_dx else (dw, db)
            for a, e in zip(got, expected if need_dx else expected[1:]):
                assert a.dtype == e.dtype and a.shape == e.shape and a.tobytes() == e.tobytes()

    def test_conv1_backward_over_an_owned_dy_holds_no_copy_of_it(self):
        # Fixed before measuring: corpus-10s conv1's dw-only backward holds
        # its kernel-row groups (at most COLS_BUDGET of columns), the
        # padded input and small arrays; the 51 MB dy is permuted in
        # place, where a channel-major copy would add dy.nbytes
        x, w, _, dy = self.conv_case(np.random.default_rng(15), 10, (2, 40, 500), 64, np.float32)
        padded = 10 * 2 * (40 + 6) * (500 + 6) * x.itemsize
        _, peak = traced_peak(lambda: F.conv2d_same_backward(dy, x, w, need_dx=False, overwrite_dy=True))
        assert peak <= F.COLS_BUDGET + padded + MEMORY_SLACK < dy.nbytes

    # small shapes under a budget of two samples' columns: slabs of one
    # sample and groups of one kernel row, two at a time
    X, KERNELS = (5, 4, 16, 40), 8

    def small_case(self, monkeypatch):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(self.X).astype(np.float32)
        w = rng.standard_normal((self.KERNELS, self.X[1], 7, 7)).astype(np.float32)
        b = np.zeros(self.KERNELS, dtype=np.float32)
        sample_cols = self.X[1] * 49 * self.X[2] * self.X[3] * x.itemsize
        monkeypatch.setattr(F, "COLS_BUDGET", 2 * sample_cols)
        return x, w, b

    def test_forward_peak_is_one_slab(self, monkeypatch):
        x, w, b = self.small_case(monkeypatch)
        y, peak = traced_peak(F.conv2d_same, x, w, b)
        out_slab = 2 * y[0].nbytes
        assert peak <= y.nbytes + F.COLS_BUDGET + out_slab + MEMORY_SLACK
        np.testing.assert_allclose(y, reference_conv2d_same(x, w, b), rtol=1e-5, atol=1e-4)

    @pytest.mark.parametrize("need_dx", [True, False])
    def test_backward_peak_is_one_slab_and_dyr(self, monkeypatch, need_dx):
        x, w, b = self.small_case(monkeypatch)
        dy = np.random.default_rng(12).standard_normal((self.X[0], self.KERNELS) + self.X[2:]).astype(np.float32)
        (dx, dw, _), peak = traced_peak(F.conv2d_same_backward, dy, x, w, need_dx)
        assert peak <= (dx.nbytes if need_dx else 0) + dw.nbytes + dy.nbytes + F.COLS_BUDGET + MEMORY_SLACK
        expected = reference_conv2d_same_backward(dy, x, w)
        for a, e in zip((dx, dw) if need_dx else (dw,), expected[:2] if need_dx else expected[1:2]):
            np.testing.assert_allclose(a, e, rtol=1e-5, atol=1e-4)

    def small_grads(self, x, w):
        """conv2d_same and conv2d_same_backward (need_dx both ways) at x."""
        y = F.conv2d_same(x, w, np.zeros(self.KERNELS, dtype=x.dtype))
        dy = np.random.default_rng(13).standard_normal(y.shape).astype(x.dtype)
        dx, dw, db = F.conv2d_same_backward(dy, x, w)
        none, dw_only, db_only = F.conv2d_same_backward(dy, x, w, need_dx=False)
        assert none is None
        return [y, dx, dw, db, dw_only, db_only]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_helper_threads_keep_the_bytes_of_the_same_slabs_inline(self, monkeypatch, dtype):
        x, w, _ = (a.astype(dtype) for a in self.small_case(monkeypatch))
        monkeypatch.setattr(F, "COLS_BUDGET", 2 * self.X[1] * 49 * self.X[2] * self.X[3] * x.itemsize)
        started = _thread_starts(monkeypatch)
        threaded = self.small_grads(x, w)
        assert started
        monkeypatch.setattr(F.threading, "Thread", _InlineThread)
        for a, e in zip(self.small_grads(x, w), threaded):
            assert a.dtype == e.dtype and a.shape == e.shape and a.tobytes() == e.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, kernels", CORPUS, ids=["conv1", "conv2"])
    def test_corpus_shapes_give_the_same_bytes_with_one_and_two_workers(self, monkeypatch, shape, kernels, dtype):
        # WORKERS sets the slab and group sizes, so this compares GEMM
        # splits too: at the small case's 8 kernels, 1-row and 2-row dw
        # groups give different dw bits, so the comparison runs at the
        # shapes that split at the real budget
        rng = np.random.default_rng(shape[1] + 1)
        x = rng.standard_normal(shape).astype(dtype)
        w = (rng.standard_normal((kernels, shape[1], 7, 7)) * 0.1).astype(dtype)
        b = rng.standard_normal(kernels).astype(dtype)
        dy = rng.standard_normal((shape[0], kernels) + shape[2:]).astype(dtype)
        got = {}
        for workers in (1, 2):
            monkeypatch.setattr(F, "WORKERS", workers)
            got[workers] = [F.conv2d_same(x, w, b), *F.conv2d_same_backward(dy, x, w)]
        for a, e in zip(got[2], got[1]):
            assert a.dtype == e.dtype and a.tobytes() == e.tobytes()

    def test_buffers_are_allocated_by_the_calling_thread(self, monkeypatch):
        x, w, _ = self.small_case(monkeypatch)
        allocating, im2col_threads = set(), set()
        real_empty, real_im2col = np.empty, F._im2col

        def empty(*args, **kwargs):
            allocating.add(threading.get_ident())
            return real_empty(*args, **kwargs)

        def im2col(*args):
            im2col_threads.add(threading.get_ident())
            real_im2col(*args)

        monkeypatch.setattr(np, "empty", empty)
        monkeypatch.setattr(F, "_im2col", im2col)
        self.small_grads(x, w)
        assert allocating == {threading.get_ident()}
        assert len(im2col_threads) > 1  # helpers built columns

    @pytest.mark.parametrize("fails", ["second call", "a helper's call"])
    @pytest.mark.parametrize("kernel", ["forward", "backward"])
    def test_slab_exception_propagates_and_joins_the_helpers(self, monkeypatch, kernel, fails):
        x, w, b = self.small_case(monkeypatch)
        dy = np.ones((self.X[0], self.KERNELS) + self.X[2:], dtype=np.float32)
        real, calls, lock = F._im2col, [], threading.Lock()

        def im2col(*args):
            with lock:
                calls.append(threading.current_thread())
                failing = len(calls) == 2 if fails == "second call" else calls[-1] is not threading.main_thread()
            if failing:
                raise RuntimeError("slab failed")
            real(*args)

        monkeypatch.setattr(F, "_im2col", im2col)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="slab failed"):
            F.conv2d_same(x, w, b) if kernel == "forward" else F.conv2d_same_backward(dy, x, w)
        assert threading.active_count() == before

    def test_float32_conv_within_the_budget_splits_above_the_floor(self, monkeypatch):
        rng = np.random.default_rng(14)
        started = _thread_starts(monkeypatch)
        # desk-40's largest conv, its 30-clip eval conv2 (17.9 MiB of
        # columns): two slabs of 15 samples, 9.4 MB each
        x, w, b, _ = self.conv_case(rng, 30, (32, 10, 10), 64, np.float32)
        assert x.size * 49 * x.itemsize <= F.COLS_BUDGET
        assert 15 * 32 * 49 * 100 * x.itemsize >= F.SPLIT_FLOOR
        F.conv2d_same(x, w, b)
        assert len(started) == 1
        # the same conv in float64 runs one GEMM; at 30 samples its 35.9
        # MiB of columns exceed the budget, so it runs its first 15, whose
        # columns are those of the float32 call
        x64, w64, b64 = (a.astype(np.float64) for a in (x[:15], w, b))
        assert x64.size * 49 * x64.itemsize == x.size * 49 * x.itemsize
        F.conv2d_same(x64, w64, b64)
        assert len(started) == 1
        # three samples: slabs of one sample, 0.6 MB, fall under the floor
        x, w, b, dy = self.conv_case(rng, 3, (32, 10, 10), 64, np.float32)
        assert 32 * 49 * 100 * x.itemsize < F.SPLIT_FLOOR
        F.conv2d_same(x, w, b)
        F.conv2d_same_backward(dy, x, w)
        assert len(started) == 1

    # every conv of the 1 s geometries (T = 50) as (C, H, W) and kernels:
    # 40/20/10 and 200/20/10 (conv1 and conv2), 200/30/10 (conv1), and
    # the baseline at width x1 and x2 over 40 and 200 mel
    ONE_SECOND = [
        ((2, 20, 50), 32),
        ((32, 10, 10), 64),
        ((2, 30, 50), 32),
        ((2, 40, 50), 32),
        ((32, 8, 10), 64),
        ((2, 40, 50), 64),
        ((64, 8, 10), 128),
        ((2, 200, 50), 32),
        ((32, 40, 10), 64),
        ((2, 200, 50), 64),
        ((64, 40, 10), 128),
    ]

    @pytest.mark.parametrize("shape, kernels", ONE_SECOND, ids=[f"{s}-{k}" for s, k in ONE_SECOND])
    def test_one_second_slabs_match_one_gemm_bytes(self, monkeypatch, shape, kernels):
        # a floor of 0 splits every call of two samples or more, so each N
        # below runs the two-slab forward and dx
        monkeypatch.setattr(F, "SPLIT_FLOOR", 0)
        started = _thread_starts(monkeypatch)
        rng = np.random.default_rng(sum(shape) + kernels)
        sample_cols = shape[0] * 49 * shape[1] * shape[2]
        sizes = [n for n in [*range(2, 18), 30, 31, 63, 64] if n * sample_cols * 4 <= F.COLS_BUDGET]
        for n in sizes:
            x, w, b, dy = self.conv_case(rng, n, shape, kernels, np.float32)
            before = len(started)
            y = F.conv2d_same(x, w, b)
            dx, dw, db = F.conv2d_same_backward(dy, x, w)
            assert len(started) - before == 2, n  # the forward's and dx's helpers
            expected = reference_conv2d_same(x, w, b)
            assert y.dtype == expected.dtype and y.flags.c_contiguous and y.tobytes() == expected.tobytes(), n
            for a, e in zip((dx, dw, db), reference_conv2d_same_backward(dy, x, w)):
                assert a.dtype == e.dtype and a.shape == e.shape and a.tobytes() == e.tobytes(), n
        # float64 runs one GEMM wherever its columns fit the budget
        n = max(n for n in sizes if n * sample_cols * 8 <= F.COLS_BUDGET)
        x, w, b, dy = self.conv_case(rng, n, shape, kernels, np.float64)
        before = len(started)
        F.conv2d_same(x, w, b)
        F.conv2d_same_backward(dy, x, w)
        assert len(started) == before


class TestConvOverwrite:
    """conv2d_same_backward(overwrite_dy=True) permutes dy into dyr in
    place above COLS_BUDGET, and copies it otherwise."""

    # (N, C, H, W) and kernels: one sample, one input channel, one kernel,
    # and a sample-by-kernel grid of unequal sides
    CASES = [((5, 4, 16, 40), 8), ((1, 4, 16, 40), 8), ((5, 1, 16, 40), 8), ((5, 4, 16, 40), 1), ((3, 2, 6, 9), 5)]

    @pytest.mark.parametrize("contiguous", [True, False], ids=["c", "strided"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, kernels", CASES, ids=[f"{s}-{k}" for s, k in CASES])
    def test_overwrite_keeps_the_bytes_and_only_it_changes_dy(self, monkeypatch, shape, kernels, dtype, contiguous):
        x, w, _, dy = TestConvSlabs.conv_case(np.random.default_rng(sum(shape) + kernels), shape[0], shape[1:], kernels, dtype)
        monkeypatch.setattr(F, "COLS_BUDGET", x.size * 49 * x.itemsize // 2)
        expected = reference_conv2d_same_backward(dy, x, w)
        got = {}
        for overwrite in (False, True):
            handed = dy.copy() if contiguous else np.repeat(dy, 2, axis=3)[..., ::2]
            assert handed.flags.c_contiguous == contiguous
            got[overwrite] = F.conv2d_same_backward(handed, x, w, overwrite_dy=overwrite)
            if overwrite and contiguous:  # dy's memory now holds dyr
                assert handed.reshape(-1).tobytes() == dy.transpose(1, 0, 2, 3).tobytes()
            else:
                assert handed.tobytes() == dy.tobytes()
        for a, b in zip(got[True], got[False]):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        (dx, dw, db), (edx, edw, edb) = got[True], expected
        for a, e in ((dx, edx), (db, edb)):
            assert a.dtype == e.dtype and a.shape == e.shape and a.tobytes() == e.tobytes()
        # dw's bits depend on the kernel-row group size at shapes this
        # small, so one GEMM's dw is matched to rounding
        assert dw.dtype == edw.dtype and dw.shape == edw.shape
        np.testing.assert_allclose(dw, edw, rtol=1e-4 if dtype == np.float32 else 1e-12, atol=1e-4 if dtype == np.float32 else 1e-12)

    def test_within_the_budget_dy_is_left_as_it_was(self):
        x, w, _, dy = TestConvSlabs.conv_case(np.random.default_rng(16), 5, (4, 16, 40), 8, np.float32)
        assert x.size * 49 * x.itemsize <= F.COLS_BUDGET
        handed = dy.copy()
        got = F.conv2d_same_backward(handed, x, w, overwrite_dy=True)
        assert handed.tobytes() == dy.tobytes()
        for a, e in zip(got, F.conv2d_same_backward(dy, x, w)):
            assert a.tobytes() == e.tobytes()

    def test_lone_conv_leaves_dy_and_an_owned_one_is_written_over(self, monkeypatch):
        x, _, _, dy = TestConvSlabs.conv_case(np.random.default_rng(17), 5, (4, 16, 40), 8, np.float32)
        monkeypatch.setattr(F, "COLS_BUDGET", x.size * 49 * x.itemsize // 2)
        grads = {}
        for owned in (False, True):
            conv = Conv2dSame(4, 8, 7, 7, rng=philox_rng(9, 1), name="conv")
            conv.forward(x, True)
            handed = dy.copy()
            dx = conv.backward(handed, owned=owned) if owned else conv.backward(handed)
            assert (handed.tobytes() != dy.tobytes()) == owned
            grads[owned] = [dx, conv.weight.grad, conv.bias.grad]
        for a, b in zip(grads[True], grads[False]):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("layers, owned", [(1, False), (2, True)], ids=["conv", "conv-bn"])
    def test_sequential_hands_its_leading_conv_whether_it_owns_dy(self, monkeypatch, layers, owned):
        # the caller's dy is never owned; batch norm's dx is made in the pass
        seen, real = [], F.conv2d_same_backward

        def backward(*args, **kwargs):
            seen.append(kwargs["overwrite_dy"])
            return real(*args, **kwargs)

        monkeypatch.setattr(F, "conv2d_same_backward", backward)
        seq = Sequential([Conv2dSame(2, 4, 3, 3, rng=philox_rng(9, 2), name="conv"), BatchNorm2d(4, name="bn")][:layers])
        y = seq.forward(np.random.default_rng(18).standard_normal((3, 2, 8, 10)).astype(np.float32), True)
        seq.backward(np.ones_like(y), input_grad=False)
        assert seen == [owned]


class _InlineThread:
    """threading.Thread's start and join, running the target on start."""

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        self.target(*self.args)

    def join(self):
        pass


def _thread_starts(monkeypatch) -> list:
    """Records every thread started from now until the test ends."""
    started, real = [], threading.Thread.start

    def start(self):
        started.append(self)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


POOLS = [(2, 5), (3, 5), (5, 5), (4, 10), (4, 100), (1, 1)]


class TestMaxPool:
    def test_paper_pool_sizes(self):
        x = np.random.default_rng(0).standard_normal((1, 1, 10, 100))
        y, _ = F.maxpool2d(x, 4, 100)
        assert y.shape == (1, 1, 2, 1)

    def test_identity_pool(self):
        x = np.random.default_rng(1).standard_normal((2, 3, 4, 5))
        y, _ = F.maxpool2d(x, 1, 1)
        np.testing.assert_array_equal(y, x)

    def test_matches_naive_window_max(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 7, 11))
        ph, pw = 2, 3
        y, _ = F.maxpool2d(x, ph, pw)
        for ni in range(2):
            for ci in range(3):
                for i in range(7 // ph):
                    for j in range(11 // pw):
                        window = x[ni, ci, i * ph : (i + 1) * ph, j * pw : (j + 1) * pw]
                        assert y[ni, ci, i, j] == window.max()

    def test_pool_larger_than_input_errors(self):
        with pytest.raises(ValueError, match="larger"):
            F.maxpool2d(np.zeros((1, 1, 3, 3)), 4, 1)

    def test_remainder_discarded(self):
        x = np.arange(10.0).reshape(1, 1, 1, 10)
        y, _ = F.maxpool2d(x, 1, 4)
        np.testing.assert_array_equal(y[0, 0, 0], [3.0, 7.0])

    @staticmethod
    def tie_heavy_input(pool, dtype):
        """Two windows each way plus remainder rows and columns, post-ReLU
        zeros tying inside windows, +-inf and -0.0 among them, and a
        last channel of all-zero windows."""
        ph, pw = pool
        rng = np.random.default_rng(ph * 1000 + pw)
        x = rng.standard_normal((2, 3, 2 * ph + 1, 2 * pw + 3)).astype(dtype)
        x = np.maximum(x, 0)  # post-ReLU zeros tie inside windows
        flat = x.reshape(-1)
        spots = rng.choice(flat.size, size=4 * (flat.size // 10 + 1))
        q = len(spots) // 4
        flat[spots[:q]] = np.inf
        flat[spots[q : 2 * q]] = -np.inf
        flat[spots[2 * q :]] = -0.0  # signed zeros among the post-ReLU +0.0
        return np.concatenate([x, np.zeros_like(x[:, :1])], axis=1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool", POOLS)
    def test_eval_kernel_matches_argmax_bytes(self, pool, dtype):
        x = self.tie_heavy_input(pool, dtype)
        expected, _ = reference_maxpool2d(x, *pool)
        y = F.maxpool2d_eval(x, *pool)
        assert y.dtype == expected.dtype and y.shape == expected.shape
        assert y.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool", POOLS)
    def test_train_kernels_match_reference_bytes(self, pool, dtype):
        x = self.tie_heavy_input(pool, dtype)
        expected, expected_idx = reference_maxpool2d(x, *pool)
        y, idx = F.maxpool2d(x, *pool)
        assert y.dtype == expected.dtype and y.tobytes() == expected.tobytes()
        assert idx.dtype == np.min_scalar_type(pool[0] * pool[1] - 1)
        np.testing.assert_array_equal(idx, expected_idx)
        dy = np.random.default_rng(1).standard_normal(y.shape).astype(dtype)
        dx = F.maxpool2d_backward(dy, idx, x.shape, *pool)
        expected_dx = reference_maxpool2d_backward(dy, expected_idx, x.shape, *pool)
        assert dx.dtype == expected_dx.dtype and dx.shape == x.shape
        assert dx.tobytes() == expected_dx.tobytes()

    @pytest.mark.parametrize("pool", [(2, 5), (4, 5), (4, 10)])
    def test_backward_peaks_at_one_dx_and_its_offsets(self, pool):
        x = np.random.default_rng(9).standard_normal((4, 8, 82, 106)).astype(np.float32)
        y, idx = F.maxpool2d(x, *pool)
        dx, peak = traced_peak(F.maxpool2d_backward, y, idx, x.shape, *pool)
        assert peak <= dx.nbytes + y.size * np.dtype(np.intp).itemsize + MEMORY_SLACK

    @pytest.mark.parametrize("first", [-0.0, 0.0])
    def test_eval_kernel_signed_zero_tie_keeps_the_first(self, first):
        x = np.array([[first, -first], [-first, -first]]).reshape(1, 1, 2, 2)
        y = F.maxpool2d_eval(x, 2, 2)
        assert np.signbit(y[0, 0, 0, 0]) == np.signbit(first)
        y_train, idx = F.maxpool2d(x, 2, 2)
        assert y.tobytes() == y_train.tobytes() and idx[0, 0, 0, 0] == 0

    @pytest.mark.parametrize("kernel", [F.maxpool2d, F.maxpool2d_eval])
    @pytest.mark.parametrize("pool, match", [((4, 1), "larger"), ((1, 4), "larger"), ((0, 1), ">= 1"), ((1, 0), ">= 1")])
    def test_bad_pool_errors_on_both_kernels(self, kernel, pool, match):
        with pytest.raises(ValueError, match=match):
            kernel(np.zeros((1, 1, 3, 3)), *pool)


def one_pass_maxpool2d(x, pool_h, pool_w):
    """maxpool2d's scan in one pass over full-size scratch on one thread:
    the bytes the banded scan must keep, NaN windows included."""
    ho, wo = x.shape[2] // pool_h, x.shape[3] // pool_w
    rows, cols = ho * pool_h, wo * pool_w
    itype = np.min_scalar_type(pool_h * pool_w - 1)
    m = x[:, :, :rows, 0:cols:pool_w].copy()
    jdx = np.zeros(m.shape, dtype=itype)
    for j in range(1, pool_w):
        xj = x[:, :, :rows, j:cols:pool_w]
        found = xj > m
        np.maximum(xj, m, out=m)
        np.maximum(jdx, np.multiply(found, itype.type(j)), out=jdx)
    y, idx = m[:, :, 0:rows:pool_h].copy(), jdx[:, :, 0:rows:pool_h].copy()
    for i in range(1, pool_h):
        mi = m[:, :, i:rows:pool_h]
        found = mi > y
        np.maximum(mi, y, out=y)
        cand = np.add(jdx[:, :, i:rows:pool_h], itype.type(i * pool_w))
        cand *= found
        np.maximum(idx, cand, out=idx)
    return y, idx


def _pool_bands(monkeypatch, x, pool):
    """maxpool2d(x, *pool) and the number of copies into its y: one for
    each band of each sample part."""
    dsts, real = [], np.copyto

    def copyto(dst, src, **kwargs):
        dsts.append(dst)
        real(dst, src, **kwargs)

    monkeypatch.setattr(np, "copyto", copyto)
    out = F.maxpool2d(x, *pool)
    monkeypatch.setattr(np, "copyto", real)
    return out, sum(np.shares_memory(d, out[0]) for d in dsts)


class TestMaxPoolBands:
    """maxpool2d's scan over bands of whole window rows."""

    @staticmethod
    def banded_input(pool, dtype):
        """Nine rows of windows and three columns, a remainder row and two
        remainder columns, with ties of post-ReLU zeros, +-inf, -0.0 and
        NaN, and a last channel of all-zero windows."""
        ph, pw = pool
        rng = np.random.default_rng(ph * 100 + pw)
        x = np.maximum(rng.standard_normal((4, 3, 9 * ph + 1, 3 * pw + 2)), 0).astype(dtype)
        flat = x.reshape(-1)
        spots = rng.choice(flat.size, size=5 * (flat.size // 12 + 1))
        q = len(spots) // 5
        flat[spots[:q]] = np.inf
        flat[spots[q : 2 * q]] = -np.inf
        flat[spots[2 * q : 4 * q]] = -0.0
        flat[spots[4 * q :]] = np.nan
        return np.concatenate([x, np.zeros_like(x[:, :1])], axis=1)

    @pytest.mark.parametrize("workers", [1, 2], ids=["whole", "split"])
    @pytest.mark.parametrize("band", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool", [(2, 3), (3, 2), (2, 5), (4, 10), (1, 1)])
    def test_bands_keep_the_one_pass_bytes(self, monkeypatch, pool, dtype, band, workers):
        # a floor of `band` rows of windows' scratch: bands of 1 or 2 of the
        # 9 rows of windows, the last of a band of 2 short
        x = self.banded_input(pool, dtype)
        n, c, h, w = x.shape
        ph, pw = pool
        itype = np.min_scalar_type(ph * pw - 1)
        monkeypatch.setattr(F, "WORKERS", workers)
        monkeypatch.setattr(F, "SPLIT_FLOOR", band * n * c * ph * (w // pw) * (x.itemsize + 2 * itype.itemsize + 1))
        started = _thread_starts(monkeypatch)
        (y, idx), writes = _pool_bands(monkeypatch, x, pool)
        assert len(started) == workers - 1
        assert writes == workers * -(-(h // ph) // band)
        expected, expected_idx = one_pass_maxpool2d(x, *pool)
        for a, e in ((y, expected), (idx, expected_idx)):
            assert a.dtype == e.dtype and a.shape == e.shape and a.tobytes() == e.tobytes()
        dy = np.random.default_rng(2).standard_normal(y.shape).astype(dtype)
        dy[:, :, 0] = -0.0
        dx = F.maxpool2d_backward(dy, idx, x.shape, *pool)
        expected_dx = reference_maxpool2d_backward(dy, expected_idx, x.shape, *pool)
        assert dx.dtype == expected_dx.dtype and dx.tobytes() == expected_dx.tobytes()

    # the train pools of desk-40 (40/20/10) and bands-200 (200/30/10) at
    # batch 16, pool1 then pool2, and of corpus-10s (x2 baseline, T = 500)
    # at batch 10
    @pytest.mark.parametrize(
        "shape, pool, bands",
        [
            ((16, 32, 20, 50), (2, 5), 1),
            ((16, 32, 30, 50), (3, 5), 1),
            ((16, 64, 10, 10), (4, 10), 1),
            ((10, 128, 8, 100), (4, 100), 1),
            ((10, 64, 40, 500), (5, 5), 8),
        ],
        ids=["desk-pool1", "bands-pool1", "pool2-1s", "corpus-pool2", "corpus-pool1"],
    )
    def test_default_floor_bands(self, monkeypatch, shape, pool, bands):
        x = np.zeros(shape, dtype=np.float32)
        parts = len(F._parts(shape[0], x.nbytes // pool[1]))
        _, writes = _pool_bands(monkeypatch, x, pool)
        assert writes == parts * bands


class TestBatchNorm:
    def test_train_standardizes(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 4, 5, 6)) * 3 + 2
        y, mean, var, _ = F.batchnorm2d_train(x, np.ones(4), np.zeros(4), eps=1e-3)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=2e-3)  # eps shrinks slightly
        np.testing.assert_allclose(mean, x.mean(axis=(0, 2, 3)))

    def test_gamma_beta_rescale(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((16, 2, 6, 6))
        y, _, _, _ = F.batchnorm2d_train(x, np.full(2, 2.0), np.full(2, 3.0), eps=1e-8)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 3.0, atol=1e-9)
        np.testing.assert_allclose(y.std(axis=(0, 2, 3)), 2.0, atol=1e-5)

    def test_eval_uses_given_stats(self):
        x = np.ones((2, 1, 2, 2))
        y = F.batchnorm2d_eval(x, np.ones(1), np.zeros(1), np.array([1.0]), np.array([4.0]), eps=0.0)
        np.testing.assert_allclose(y, 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_matches_reference_formula_bytes(self, dtype):
        def reference(x, gamma, beta, mean, var, eps):
            inv = (1.0 / np.sqrt(var.astype(np.float64) + eps)).astype(x.dtype)
            xhat = (x - mean.astype(x.dtype)[None, :, None, None]) * inv[None, :, None, None]
            y = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
            return y.astype(x.dtype, copy=False)

        rng = np.random.default_rng(5)
        x = (rng.standard_normal((4, 6, 7, 9)) * 3 + 1).astype(dtype)
        gamma, beta, mean = (rng.standard_normal(6).astype(dtype) for _ in range(3))
        var = rng.uniform(0.1, 4.0, 6).astype(dtype)
        y = F.batchnorm2d_eval(x, gamma, beta, mean, var, 1e-3)
        expected = reference(x, gamma, beta, mean, var, 1e-3)
        assert y.dtype == expected.dtype == dtype
        assert y.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_kernels_match_reference_bytes(self, dtype):
        rng = np.random.default_rng(6)
        x = (rng.standard_normal((4, 6, 7, 9)) * 3 + 1).astype(dtype)
        x[:, 2] = np.maximum(x[:, 2], 0)  # a channel of post-ReLU zeros
        gamma = rng.uniform(0.5, 1.5, 6).astype(dtype)
        beta = rng.standard_normal(6).astype(dtype)
        got = F.batchnorm2d_train(x, gamma, beta, 1e-3)
        expected = reference_batchnorm2d_train(x, gamma, beta, 1e-3)
        for a, b in zip(got[:3] + got[3][:2], expected[:3] + expected[3][:2]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        dy = rng.standard_normal(x.shape).astype(dtype)
        for a, b in zip(F.batchnorm2d_backward(dy, got[3]), reference_batchnorm2d_backward(dy, expected[3])):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("out", [False, True], ids=["new", "out"])
    @pytest.mark.parametrize("floor", [0, float("inf")], ids=["split", "whole"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_with_the_batch_statistics_gives_the_train_bytes(self, monkeypatch, dtype, floor, out):
        # train and eval share one normalize pass, so eval given the
        # batch's own mean and variance must write train's y
        monkeypatch.setattr(F, "SPLIT_FLOOR", floor)
        started = _thread_starts(monkeypatch)
        rng = np.random.default_rng(8)
        x = (rng.standard_normal((5, 6, 7, 9)) * 3 + 1).astype(dtype)
        x[:, 2] = np.maximum(x[:, 2], 0)  # a channel of post-ReLU zeros
        gamma = rng.uniform(0.5, 1.5, 6).astype(dtype)
        beta = rng.standard_normal(6).astype(dtype)
        xt, xe = x.copy(), x.copy()
        y, mean, var, _ = F.batchnorm2d_train(xt, gamma, beta, 1e-3, out=xt if out else None)
        got = F.batchnorm2d_eval(xe, gamma, beta, mean, var, 1e-3, out=xe if out else None)
        assert got.dtype == y.dtype == dtype and got.tobytes() == y.tobytes()
        assert len(started) == (3 if floor == 0 else 0)  # moments, train's and eval's normalize

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_and_backward_peak_at_two_full_size_arrays(self, dtype):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 8, 82, 106)).astype(dtype)
        gamma, beta = np.ones(8, dtype=dtype), np.zeros(8, dtype=dtype)
        (_, _, _, cache), peak = traced_peak(F.batchnorm2d_train, x, gamma, beta, 1e-3)
        assert peak <= 2 * x.nbytes + MEMORY_SLACK
        _, peak = traced_peak(F.batchnorm2d_backward, rng.standard_normal(x.shape).astype(dtype), cache)
        assert peak <= 2 * x.nbytes + MEMORY_SLACK


class TestSplitKernels:
    """Batch norm split by channel, ReLU and max-pool by sample (_in_parts),
    against the same kernels on the calling thread alone."""

    # corpus-10s block 1 and block 2 (10 s clips, 40 mel, doubled-width
    # baseline, batch 10): batch norm, ReLU and the max-pool that follows
    CORPUS = [((10, 64, 40, 500), (4, 5)), ((10, 128, 8, 100), (4, 100))]

    @staticmethod
    def kernel_outputs(x, pool, out):
        """Every split kernel's results at x, batch norm's float64
        statistics included; with out=True each kernel writes over a copy
        of its input, as a layer stack that owns it does."""
        rng = np.random.default_rng(x.shape[1])
        c, dtype = x.shape[1], x.dtype
        gamma = rng.uniform(0.5, 1.5, c).astype(dtype)
        beta = rng.standard_normal(c).astype(dtype)
        dy = rng.standard_normal(x.shape).astype(dtype)

        def arg(a):
            a = a.copy()
            return a, (a if out else None)

        got = []
        xa, o = arg(x)
        y, mean, var, cache = F.batchnorm2d_train(xa, gamma, beta, 1e-3, out=o)
        got += [y, mean, var, cache[0].copy(), cache[1]]
        da, o = arg(dy)
        got += list(F.batchnorm2d_backward(da, cache, out=o))
        xa, o = arg(x)
        got.append(F.batchnorm2d_eval(xa, gamma, beta, mean.astype(dtype), var.astype(dtype), 1e-3, out=o))
        xa, o = arg(x)
        got.append(F.relu(xa, out=o))
        y, idx = F.maxpool2d(x, *pool)
        got += [y, idx, F.maxpool2d_eval(x, *pool)]
        got.append(F.maxpool2d_backward(rng.standard_normal(y.shape).astype(dtype), idx, x.shape, *pool))
        return got

    def serial_and_split(self, monkeypatch, x, pool, out, workers=2):
        monkeypatch.setattr(F, "WORKERS", workers)
        monkeypatch.setattr(F, "SPLIT_FLOOR", float("inf"))
        serial = self.kernel_outputs(x, pool, out)
        monkeypatch.setattr(F, "SPLIT_FLOOR", 0)
        started = _thread_starts(monkeypatch)
        split = self.kernel_outputs(x, pool, out)
        assert started
        for a, e in zip(split, serial):
            assert a.dtype == e.dtype and a.shape == e.shape and a.tobytes() == e.tobytes()

    @staticmethod
    def activations(shape, dtype):
        x = (np.random.default_rng(sum(shape)).standard_normal(shape) * 2 + 0.5).astype(dtype)
        x[:, ::3] = np.maximum(x[:, ::3], 0)  # channels of post-ReLU zeros
        return x

    @pytest.mark.parametrize("out", [False, True], ids=["new", "out"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, pool", CORPUS, ids=["block1", "block2"])
    def test_corpus_shapes_match_the_serial_bytes(self, monkeypatch, shape, pool, dtype, out):
        self.serial_and_split(monkeypatch, self.activations(shape, dtype), pool, out)

    def test_corpus_block1_splits_at_the_floor_and_block2_does_not(self, monkeypatch):
        started = _thread_starts(monkeypatch)
        for (shape, pool), helpers in zip(self.CORPUS, (3, 0)):
            before = len(started)
            x = np.zeros(shape, dtype=np.float32)
            ones = np.ones(shape[1], dtype=np.float32)
            F.batchnorm2d_eval(x, ones, ones, ones, ones, 1e-3)
            F.relu(x)
            F.maxpool2d_eval(x, *pool)
            assert len(started) - before == helpers

    # odd channel counts (parts of unequal size), one sample (the sample
    # kernels cannot split it), 3 or 4 parts, and 3 channels, whose
    # one-channel part would change the float64 batch statistics' bits
    SMALL = [
        ((3, 5, 7, 9), (2, 3), 2),
        ((1, 7, 6, 10), (3, 5), 2),
        ((5, 9, 8, 12), (4, 4), 3),
        ((7, 13, 5, 11), (1, 1), 4),
        ((5, 3, 8, 12), (4, 4), 2),
    ]

    @pytest.mark.parametrize("out", [False, True], ids=["new", "out"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, pool, workers", SMALL)
    def test_small_shapes_split_to_the_serial_bytes(self, monkeypatch, shape, pool, workers, dtype, out):
        self.serial_and_split(monkeypatch, self.activations(shape, dtype), pool, out, workers)

    def test_batch_norm_parts_hold_two_channels_or_more(self, monkeypatch):
        monkeypatch.setattr(F, "SPLIT_FLOOR", 0)
        monkeypatch.setattr(F, "WORKERS", 4)
        parts = []

        def run_at_once(job, arglists):
            parts.append(arglists)
            for args in arglists:
                job(*args)

        monkeypatch.setattr(F, "_run_at_once", run_at_once)
        x = self.activations((5, 5, 8, 12), np.float64)
        F.batchnorm2d_train(x, np.ones(5), np.zeros(5), 1e-3)
        F.relu(x)
        assert parts == [[(0, 2), (2, 5)]] * 2 + [[(0, 1), (1, 2), (2, 3), (3, 5)]]  # moments, then xhat and y

    @pytest.mark.parametrize("kernel", ["bn_train", "bn_backward", "bn_eval", "relu", "pool", "pool_eval", "pool_backward"])
    def test_split_peaks_no_higher_than_the_serial_call(self, monkeypatch, kernel):
        x = self.activations((4, 8, 82, 106), np.float32)
        ones, zeros = np.ones(8, dtype=np.float32), np.zeros(8, dtype=np.float32)
        y, idx = F.maxpool2d(x, 4, 5)
        calls = {
            "bn_train": lambda: F.batchnorm2d_train(x, ones, zeros, 1e-3),
            "bn_backward": lambda: F.batchnorm2d_backward(x, F.batchnorm2d_train(x, ones, zeros, 1e-3)[3]),
            "bn_eval": lambda: F.batchnorm2d_eval(x, ones, zeros, zeros, ones, 1e-3),
            "relu": lambda: F.relu(x),
            "pool": lambda: F.maxpool2d(x, 4, 5),
            "pool_eval": lambda: F.maxpool2d_eval(x, 4, 5),
            "pool_backward": lambda: F.maxpool2d_backward(y, idx, x.shape, 4, 5),
        }
        peaks = {}
        for floor in (float("inf"), 0):
            monkeypatch.setattr(F, "SPLIT_FLOOR", floor)
            _, peaks[floor] = traced_peak(calls[kernel])
        assert peaks[0] <= peaks[float("inf")] + MEMORY_SLACK

    def test_model_step_and_eval_do_not_depend_on_the_split(self, monkeypatch):
        # the corpus-10s model (x2 baseline, T = 500) at batch 4
        desc = model_description("baseline", 40, 500, 2, width_multiplier=2)
        rng = np.random.default_rng(21)
        x = rng.standard_normal((4, 2, 40, 500)).astype(np.float32)
        labels = np.array([0, 3, 5, 9])
        runs = {}
        for floor in (0, float("inf")):
            monkeypatch.setattr(F, "SPLIT_FLOOR", floor)
            graph = build_model(desc, seed=3)
            graph.set_dropout_rng(philox_rng(4, 0))
            store = graph.param_store()
            losses, dlogits = multi_head_loss(graph.forward(x, train=True), labels)
            store.zero_grad()
            graph.backward(dlogits)
            adam_step(store)
            runs[floor] = (losses, graph.state(), predict_probs(graph, x))
        (losses, state, probs), (serial_losses, serial_state, serial_probs) = runs[0], runs[float("inf")]
        assert losses == serial_losses
        for name, value in serial_state.items():
            assert state[name].tobytes() == value.tobytes(), name
        for name, value in serial_probs.items():
            assert probs[name].tobytes() == value.tobytes(), name


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        probs = F.softmax(np.zeros((3, 10)))
        np.testing.assert_allclose(probs, 0.1, atol=1e-12)

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((6, 9)) * 5
        probs = F.softmax(z)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(F.softmax(z + 123.4), probs, atol=1e-6)

    def test_uniform_ce_is_log_10(self):
        labels = np.array([0, 3, 5, 9])
        loss, _ = F.softmax_cross_entropy(np.zeros((4, 10)), labels)
        assert loss == pytest.approx(np.log(10), rel=1e-12)

    def test_onehot_correct_is_zero(self):
        z = np.eye(10)[[2, 4]] * 1000.0
        loss, _ = F.softmax_cross_entropy(z, np.array([2, 4]))
        assert loss == 0.0

    def test_zero_probability_gives_finite_loss_without_warning(self):
        z = np.array([[0.0, -1000.0]])  # softmax underflows to exactly [1, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, dz = F.softmax_cross_entropy(z, np.array([1]))
        assert loss == pytest.approx(1000.0)
        np.testing.assert_array_equal(dz, [[1.0, -1.0]])

    def test_confidently_wrong_head_keeps_its_gradient(self):
        # a float64 logit margin of 40 puts p(label) near 4e-18, below the
        # 1e-12 floor where a clamped loss would zero the gradient
        z = np.array([[40.0, 0.0, 0.0], [0.0, 40.0, 0.0]])
        labels = np.array([2, 2])
        probs = F.softmax(z)
        assert np.all(probs[:, 2] < 1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, dz = F.softmax_cross_entropy(z, labels)
        assert np.isfinite(loss) and loss == pytest.approx(40.0)
        np.testing.assert_allclose(dz, (probs - np.eye(3)[labels]) / 2, rtol=1e-15, atol=0)
        assert np.all(dz[:, 2] < -0.49)

    def test_softmax_ce_gradient_is_probs_minus_onehot(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((5, 10))
        labels = rng.integers(0, 10, 5)
        probs = F.softmax(z)
        _, dz = F.softmax_cross_entropy(z, labels)
        onehot = np.eye(10)[labels]
        np.testing.assert_allclose(dz, (probs - onehot) / 5, atol=1e-9)

    def test_gradient_keeps_the_storage_dtype(self):
        z = np.zeros((2, 4), dtype=np.float32)
        _, dz = F.softmax_cross_entropy(z, np.array([0, 1]))
        assert dz.dtype == np.float32


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = np.random.default_rng(0).standard_normal((4, 5))
        y, mask = F.dropout(x, 0.0, train=True, rng=np.random.default_rng(1))
        assert mask is None
        np.testing.assert_array_equal(y, x)

    def test_eval_mode_is_identity(self):
        x = np.random.default_rng(0).standard_normal((4, 5))
        y, mask = F.dropout(x, 0.9, train=False, rng=None)
        assert mask is None
        np.testing.assert_array_equal(y, x)

    def test_kept_fraction_and_mean_preserved(self):
        rng = np.random.default_rng(42)
        x = np.ones((500, 400))  # 2e5 elements
        y, mask = F.dropout(x, 0.3, train=True, rng=rng)
        kept = mask.mean()
        assert abs(kept - 0.7) < 0.02
        assert abs(y.mean() - 1.0) < 0.02
        np.testing.assert_allclose(y[mask], 1.0 / 0.7)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            F.dropout(np.zeros(3), 1.0, train=True, rng=np.random.default_rng(0))


class TestAdam:
    def make_store(self, value, name="w"):
        p = Parameter(name, np.array([value], dtype=np.float64))
        return p, ParamStore([p])

    def test_first_step_magnitude_is_lr(self):
        p, store = self.make_store(0.0)
        p.grad[...] = 1.0
        adam_step(store, lr=0.01)
        assert p.data[0] == pytest.approx(-0.01, rel=1e-5)
        assert store.step_count == 1

    def test_zero_gradient_leaves_parameter(self):
        p, store = self.make_store(1.5)
        adam_step(store, lr=0.1)
        assert p.data[0] == 1.5

    def test_quadratic_bowl_descent(self):
        # independent scalar simulation oracle: f(w) = w^2, grad = 2w.
        # |w| shrinks by ~lr per step until it overshoots zero near step
        # 11, then oscillates with decaying amplitude; after 50 steps
        # |w| sits well below 0.1.
        w, m, v = 1.0, 0.0, 0.0
        oracle = [w]
        for t in range(1, 51):
            g = 2 * w
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            w = w - 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-7)
            oracle.append(w)

        p, store = self.make_store(1.0)
        values = [1.0]
        for _ in range(50):
            p.grad[...] = 2.0 * p.data
            adam_step(store, lr=0.1)
            values.append(float(p.data[0]))
        np.testing.assert_allclose(values, oracle, rtol=1e-12)
        assert abs(values[-1]) < 0.1
        early = [abs(x) for x in values[:11]]
        assert all(b < a for a, b in zip(early, early[1:]))

    def test_nan_gradient_aborts_with_name(self):
        p, store = self.make_store(0.0, name="branch.conv.weight")
        p.grad[...] = np.nan
        with pytest.raises(RuntimeError, match="branch.conv.weight"):
            adam_step(store)

    def test_inf_gradient_aborts_with_name_and_leaves_every_weight(self):
        a = Parameter("sub0.conv1.bias", np.array([0.25]))
        p = Parameter("sub0.conv1.weight", np.array([0.5]))
        store = ParamStore([a, p])
        a.grad[...] = 1.0
        p.grad[...] = np.inf
        with pytest.raises(RuntimeError, match="non-finite gradient in parameter 'sub0.conv1.weight'"):
            adam_step(store)
        assert a.data[0] == 0.25 and p.data[0] == 0.5 and store.step_count == 0

    def test_matches_reference_formula(self):
        # the out-of-place formula, byte for byte: adam_step works in place
        # in the same operation order
        assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-7)
        for dtype in (np.float32, np.float64):
            rng = np.random.default_rng(8)
            p = Parameter("w", rng.standard_normal((2, 3)).astype(dtype))
            store = ParamStore([p])
            m, v, ref = np.zeros_like(p.data), np.zeros_like(p.data), p.data.copy()
            for t in range(1, 8):
                g = rng.standard_normal(p.data.shape).astype(dtype)
                p.grad[...] = g
                adam_step(store, lr=0.002)
                m[...] = BETA1 * m + (1 - BETA1) * g
                v[...] = BETA2 * v + (1 - BETA2) * g * g
                ref[...] = ref - 0.002 * (m / (1 - BETA1**t)) / (np.sqrt(v / (1 - BETA2**t)) + EPS)
                assert p.data.tobytes() == ref.tobytes()
                assert store.first_moment["w"].tobytes() == m.tobytes()
                assert store.second_moment["w"].tobytes() == v.tobytes()
                store.zero_grad()

    def test_duplicate_parameter_names_rejected(self):
        a = Parameter("w", np.zeros(2))
        b = Parameter("w", np.zeros(3))
        with pytest.raises(ValueError, match="duplicate"):
            ParamStore([a, b])


class TestDenseLayer:
    def test_forward_matches_affine(self):
        rng = philox_rng(0, 1)
        layer = Dense(4, 3, rng=rng, name="d")
        x = np.random.default_rng(0).standard_normal((2, 4)).astype(np.float32)
        y = layer.forward(x, train=True)
        np.testing.assert_allclose(y, x @ layer.weight.data + layer.bias.data, rtol=1e-6)

    def test_width_mismatch_errors(self):
        layer = Dense(4, 3, rng=philox_rng(0, 1), name="d")
        with pytest.raises(ValueError, match="width"):
            layer.forward(np.zeros((2, 5), dtype=np.float32), train=True)


def _stack(dtype, seed, dropout=0.3, pool=(2, 5)):
    """conv -> BN -> ReLU -> pool -> dropout -> flatten -> dense -> ReLU ->
    dropout over (N, 2, 8, 10) inputs, as a conv trunk is built."""
    rng = philox_rng(seed, 1)
    flat = 4 * (8 // pool[0]) * (10 // pool[1])
    seq = Sequential(
        [
            Conv2dSame(2, 4, 3, 3, rng=rng, dtype=dtype, name="conv"),
            BatchNorm2d(4, dtype=dtype, name="bn"),
            ReLU(name="relu1"),
            MaxPool2d(*pool, name="pool"),
            Dropout(dropout, name="drop1"),
            Flatten(name="flatten"),
            Dense(flat, 6, rng=rng, dtype=dtype, name="dense"),
            ReLU(name="relu2"),
            Dropout(dropout, name="drop2"),
        ]
    )
    for layer in seq.layers:
        if isinstance(layer, Dropout):
            layer.rng = philox_rng(seed, 2)
    return seq


def _kernel_calls(dtype):
    """(name, kernel, args) for every kernel, called without out= on small inputs."""
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 3, 8, 10)).astype(dtype)
    dy = rng.standard_normal(x.shape).astype(dtype)
    w = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
    gamma, beta, mean = (rng.standard_normal(3).astype(dtype) for _ in range(3))
    var = rng.uniform(0.5, 2.0, 3).astype(dtype)
    _, _, _, cache = F.batchnorm2d_train(x.copy(), gamma, beta, 1e-3)
    _, idx = F.maxpool2d(x, 2, 5)
    dpool = rng.standard_normal((2, 3, 4, 2)).astype(dtype)
    z = rng.standard_normal((2, 5)).astype(dtype)
    wd, bd = rng.standard_normal((5, 4)).astype(dtype), rng.standard_normal(4).astype(dtype)
    dz = rng.standard_normal((2, 4)).astype(dtype)
    return [
        ("conv2d_same", F.conv2d_same, (x, w, bd)),
        ("conv2d_same_backward", F.conv2d_same_backward, (rng.standard_normal((2, 4, 8, 10)).astype(dtype), x, w)),
        ("maxpool2d", F.maxpool2d, (x, 2, 5)),
        ("maxpool2d_eval", F.maxpool2d_eval, (x, 2, 5)),
        ("maxpool2d_backward", F.maxpool2d_backward, (dpool, idx, x.shape, 2, 5)),
        ("batchnorm2d_train", F.batchnorm2d_train, (x, gamma, beta, 1e-3)),
        ("batchnorm2d_eval", F.batchnorm2d_eval, (x, gamma, beta, mean, var, 1e-3)),
        ("batchnorm2d_backward", F.batchnorm2d_backward, (dy, cache)),  # spends the cache, by design
        ("relu", F.relu, (x,)),
        ("relu_backward", F.relu_backward, (dy, x > 0)),
        ("dropout", F.dropout, (x, 0.3, True, np.random.default_rng(0))),
        ("dropout_backward", F.dropout_backward, (dy, rng.random(x.shape) >= 0.3, 0.3)),
        ("flatten", F.flatten, (x,)),
        ("dense", F.dense, (z, wd, bd)),
        ("dense_backward", F.dense_backward, (dz, z, wd)),
        ("softmax", F.softmax, (z,)),
        ("softmax_cross_entropy", F.softmax_cross_entropy, (z, np.array([1, 3]))),
    ]


class TestOwnership:
    """Layers write over what they are handed only when told they own it."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kernels_without_out_leave_their_inputs(self, dtype):
        changed = []
        for name, kernel, args in _kernel_calls(dtype):
            before = [a.copy() for a in args if isinstance(a, np.ndarray)]
            kernel(*args)
            after = [a for a in args if isinstance(a, np.ndarray)]
            if any(a.tobytes() != b.tobytes() for a, b in zip(after, before)):
                changed.append(name)
        assert changed == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layers_on_their_own_leave_x_and_dy(self, dtype):
        rng = np.random.default_rng(22)
        for layer in _stack(dtype, seed=3).layers:
            shape = (3, layer.in_features) if layer.kind == "dense" else (3, 2, 8, 10) if layer.kind == "conv2d" else (3, 4, 8, 10)
            x = rng.standard_normal(shape).astype(dtype)
            x0 = x.copy()
            y = layer.forward(x, True)
            dy = rng.standard_normal(y.shape).astype(dtype)
            dy0 = dy.copy()
            layer.backward(dy)
            layer.forward(x, False)
            assert x.tobytes() == x0.tobytes(), layer.name
            assert dy.tobytes() == dy0.tobytes(), layer.name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["batchnorm", "relu", "dropout"])
    def test_owned_path_gives_the_unowned_bytes_in_place(self, kind, dtype):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((3, 4, 8, 10)).astype(dtype)
        x[:, 1] = np.maximum(x[:, 1], 0)  # a channel of post-ReLU zeros
        dy = rng.standard_normal(x.shape).astype(dtype)
        ref, own = (next(layer for layer in _stack(dtype, seed=4).layers if layer.kind == kind) for _ in range(2))
        for train in (True, False):
            expected = ref.forward(x.copy(), train)
            handed = x.copy()
            got = own.forward(handed, train, owned=True)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
            assert np.shares_memory(got, handed)
            if train:
                expected = ref.backward(dy.copy())
                handed = dy.copy()
                got = own.backward(handed, owned=True)
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
                assert np.shares_memory(got, handed)
        for (name, a), (_, b) in zip(ref.buffers() + [(p.name, p.grad) for p in ref.params()], own.buffers() + [(p.name, p.grad) for p in own.params()]):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_sequential_gives_the_layer_by_layer_bytes(self, dropout, dtype):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((3, 2, 8, 10)).astype(dtype)
        x0 = x.copy()
        seq, ref = _stack(dtype, 5, dropout), _stack(dtype, 5, dropout)
        for train in (True, False):
            h = x
            for layer in ref.layers:
                h = layer.forward(h, train)
            y = seq.forward(x, train)
            assert y.tobytes() == h.tobytes()
        # a train pass again, then backward through both
        h = x
        for layer in ref.layers:
            h = layer.forward(h, True)
        seq.forward(x, True)
        dy = rng.standard_normal(h.shape).astype(dtype)
        dy0 = dy.copy()
        d = dy
        for layer in reversed(ref.layers):
            d = layer.backward(d)
        assert seq.backward(dy).tobytes() == d.tobytes()
        assert x.tobytes() == x0.tobytes() and dy.tobytes() == dy0.tobytes()
        for a, b in zip(ref.params() + ref.buffers(), seq.params() + seq.buffers()):
            a, b = (a.grad, b.grad) if isinstance(a, Parameter) else (a[1], b[1])
            assert a.tobytes() == b.tobytes()

    def test_conv_bn_relu_pool_train_step_peak(self):
        # Fixed before measuring. With ownership, a train step holds at
        # most two activations (batch norm's xhat, and the conv output
        # that batch norm and ReLU write over), ReLU's bool mask and the
        # max-pool's scan arrays; the parent held a third activation at
        # ReLU, forward and backward. A 1-channel 3x3 conv keeps the
        # im2col columns below that third activation.
        n, c, h, w, o, pool = 4, 1, 40, 100, 32, (2, 10)
        rng = philox_rng(6, 1)
        seq = Sequential(
            [
                Conv2dSame(c, o, 3, 3, rng=rng, name="conv"),
                BatchNorm2d(o, name="bn"),
                ReLU(name="relu"),
                MaxPool2d(*pool, name="pool"),
            ]
        )
        x = np.random.default_rng(25).standard_normal((n, c, h, w)).astype(np.float32)
        dy = np.random.default_rng(26).standard_normal((n, o, h // pool[0], w // pool[1])).astype(np.float32)

        def step():
            seq.forward(x, True)
            return seq.backward(dy)

        _, peak = traced_peak(step)
        act = n * o * h * w * 4
        mask = act // 4
        # the scan's window maxima (float32) and its uint8 offsets, flags
        # and candidates over the column pass, then the pooled output and
        # its offsets
        scan = act // pool[1] * (1 + 3 / 4) + act // (pool[0] * pool[1]) * (1 + 1 / 4)
        assert peak <= 2 * act + mask + scan + MEMORY_SLACK


def test_corpus_train_step_peak():
    # Fixed before measuring: a train step of the corpus-10s model (x2
    # baseline, T = 500, batch 10) peaks at two of block 1's 51.2 MB
    # activations (batch norm's xhat, and the activation or gradient over
    # which the layers write) plus 16 MiB for everything else: conv
    # columns, pool scratch and block 2. A channel-major copy of conv1's
    # dy, or full-size pool1 scan scratch beside two activations, goes over.
    desc = model_description("baseline", 40, 500, 2, width_multiplier=2)
    graph = build_model(desc, seed=3)
    graph.set_dropout_rng(philox_rng(4, 0))
    store = graph.param_store()
    x = np.random.default_rng(29).standard_normal((10, 2, 40, 500)).astype(np.float32)
    labels = np.arange(10)

    def step():
        _, dlogits = multi_head_loss(graph.forward(x, train=True), labels)
        store.zero_grad()
        graph.backward(dlogits)

    _, peak = traced_peak(step)
    act = 10 * 64 * 40 * 500 * 4
    assert peak <= 2 * act + 16 * 2**20


class TestPooledReluMask:
    """A ReLU that feeds a max-pool leaves its mask to the pool."""

    def test_pooled_relu_keeps_no_full_size_mask(self):
        seq = _stack(np.float32, seed=7)
        relu1, pool, relu2 = (next(layer for layer in seq.layers if layer.name == name) for name in ("relu1", "pool", "relu2"))
        assert relu1.pooled and pool.after_relu and not relu2.pooled
        x = np.random.default_rng(27).standard_normal((3, 2, 8, 10)).astype(np.float32)
        y = seq.forward(x, True)
        assert relu1._mask is True
        idx, _, mask = pool._idx
        assert mask.dtype == bool and mask.shape == idx.shape == (3, 4, 4, 2)
        # the ReLU after the dense layer has no pool after it
        assert relu2._mask.dtype == bool and relu2._mask.shape == (3, 6)
        seq.backward(np.ones_like(y))
        for layer in (relu1, pool):
            with pytest.raises(RuntimeError, match=f"{layer.name}: backward without a train-mode forward"):
                layer.backward(np.ones((3, 4, 4, 2), dtype=np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool", [(2, 5), (1, 1)])
    def test_pooled_mask_gives_the_full_mask_bytes(self, pool, dtype):
        # inputs with +-0 and negative windows, gradients with +-0 and
        # both signs: each winner's dy is multiplied by the same bool
        rng = np.random.default_rng(28)
        x = rng.standard_normal((3, 4, 8, 10)).astype(dtype)
        x[:, 0] = -np.abs(x[:, 0])
        x[:, 1, ::2] = 0.0
        x[:, 1, 1::2] = -0.0
        dy = rng.standard_normal((3, 4, 8 // pool[0], 10 // pool[1])).astype(dtype)
        dy[:, :, 0] = -0.0
        fused = Sequential([ReLU(name="relu"), MaxPool2d(*pool, name="pool"), Dropout(0.3, name="drop")])
        plain = [ReLU(name="relu"), MaxPool2d(*pool, name="pool"), Dropout(0.3, name="drop")]
        fused.layers[2].rng, plain[2].rng = philox_rng(8, 2), philox_rng(8, 2)
        assert not plain[0].pooled
        h = x
        for layer in plain:
            h = layer.forward(h, True)
        assert fused.forward(x, True).tobytes() == h.tobytes()
        d = dy
        for layer in reversed(plain):
            d = layer.backward(d)
        dy0 = dy.copy()
        got = fused.backward(dy)
        assert got.dtype == d.dtype and got.tobytes() == d.tobytes()
        assert dy.tobytes() == dy0.tobytes()
