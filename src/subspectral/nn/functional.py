"""Forward/backward kernels for the layers the models need.

Convention: feature maps are (N, C, H, W) numpy arrays, dense
activations are (N, D). Elementwise math and matrix products run in the
caller's storage dtype (float32 by default, float64 when the graph is
built that way); statistical reductions -- batch statistics, bias sums,
softmax normalization, losses -- always accumulate in float64.
Convolution is cross-correlation (no kernel flip).

The elementwise kernels (batch norm, ReLU, dropout) take numpy's out=:
the result is written into out, which may be the kernel's own input x or
dy; without it they return a new array and leave their inputs as they
are. Every float operation runs in the same order either way, so out=
changes no bits.

Threads: a call splits into at most WORKERS near-equal contiguous parts
of one axis, and only when the smallest part touches at least
SPLIT_FLOOR bytes (_parts). The axes are the samples of float32 conv
forwards and dx (bytes of columns, _slabwise), of ReLU and max-pool, and
the channels of batch norm (parts of two or more) and of the log-mel
frontend (features.log_mel_spectrogram; _in_parts). A conv whose
columns exceed COLS_BUDGET runs budget-sized slabs instead (dw: groups
of kernel rows), WORKERS at a time. The calling thread runs the first
part and one helper thread each of the others (_run_at_once); it
allocates every full-size array, the helpers call only numpy and write
into slices of them, and each part runs the whole chain of one call for
its units. Fixture synthesis (data.synth_fixture) runs one _run_at_once
per clip: the calling thread makes clip k + 1's random draws, in stream
order, while a helper shapes clip k into scratch the calling thread
allocated and writes its WAV. The bits do not depend on the threads.
"""

from __future__ import annotations

import math
import threading

import numpy as np


# Bytes of im2col columns live at one time, summed over the threads that
# run a conv. A conv whose columns exceed it runs its GEMMs over slabs of
# whole samples (dw: groups of kernel rows) of at most COLS_BUDGET //
# WORKERS bytes each, as many at once as fit the budget together, so a
# 10 s clip's train step peaks at its activations, not its columns, and
# both cores work on it. Every 1 s geometry's train and eval convs fit
# 24 MiB; their float32 forwards and dx split in WORKERS slabs above
# SPLIT_FLOOR instead, and their dw runs one GEMM.
COLS_BUDGET = 24 * 2**20
# Threads that share COLS_BUDGET: the calling thread and WORKERS - 1
# helpers, each started for one batch of slabs and joined before the next.
WORKERS = 2
# Bytes that each part's numpy calls must touch before batch norm, ReLU,
# max-pool or the log-mel frontend splits over the WORKERS threads
# (_in_parts), and the columns that each slab of a float32 conv within
# COLS_BUDGET must hold before it splits (_slabwise). A 10 s 48 kHz
# channel has 7.7 MB of frames, a 1 s one 0.77 MB, so only 10 s stereo
# clips split the frontend. 2 MiB splits the 10 s clips' first-block
# kernels and keeps every 1 s geometry's tensors (the largest, desk-40's
# eval batch norm, is 3.84 MB: 1.92 MB a half) and the 10 s second-block
# ones on the calling thread. A 512 KiB floor, which split the 1 s batch
# norms, slowed the 200-mel band-split evaluation, and the (4, 100) pool
# of the 10 s second block ran slower split than whole. A conv slab's
# GEMM does more work per byte than those elementwise calls: desk-40's
# batch-16 conv2 has 5.0 MB of columns a slab, and with its convs on two
# slabs desk-40's eval forward went 72 -> 49 ms (one traced perfbench
# pair, BENCH_conv_slabs.json).
SPLIT_FLOOR = 2 * 2**20


def _same_padding(k: int) -> tuple[int, int]:
    # extra padding (even kernels) goes on the bottom/right
    return (k - 1) // 2, k // 2


def _padded_shape(x_shape, kh: int, kw: int) -> tuple:
    n, c, h, w = x_shape
    return n, c, h + kh - 1, w + kw - 1


def _pad(x: np.ndarray, kh: int, kw: int, out: np.ndarray) -> None:
    """Write x, zero-padded for a 'same' output, into out (_padded_shape)."""
    (pt, _), (pl, _) = _same_padding(kh), _same_padding(kw)
    out.fill(0)
    out[:, :, pt : pt + x.shape[2], pl : pl + x.shape[3]] = x


def _im2col(padded: np.ndarray, kh: int, kw: int, rows: range, out: np.ndarray) -> None:
    """Write the 'same'-padded columns (C*len(rows)*Kw, N*H*W) of the
    kernel rows in rows into the C-contiguous out, in one copy (one
    release of the GIL); padded is x as _pad writes it, and row (c, i, j)
    of out matches w[:, :, rows].reshape(O, -1)."""
    n, c, hp, wp = padded.shape
    h, w = hp - kh + 1, wp - kw + 1
    windows = np.lib.stride_tricks.sliding_window_view(padded, (h, w), axis=(2, 3))  # (N, C, Kh, Kw, H, W)
    cols = out.reshape(c, len(rows), kw, n, h, w)  # a view: out is contiguous
    np.copyto(cols, windows[:, :, rows.start : rows.stop].transpose(1, 2, 3, 0, 4, 5))


def _slabwise(units: int, unit_bytes: int, job, buffer_shapes, split: bool = False) -> None:
    """Call job(lo, hi, *buffers) over slabs [lo, hi) that cover
    range(units), where each unit has unit_bytes of columns and
    buffer_shapes(lo, hi) lists the (shape, dtype) of each C-contiguous
    buffer that job fills for its slab.

    When the columns exceed COLS_BUDGET, slabs hold at most COLS_BUDGET
    // WORKERS bytes (at least one unit), and as many run at once as fit
    the budget together (at least one): the calling thread runs the first
    slab of each batch and one helper thread each of the others
    (_run_at_once). When they fit it, a split call runs the slabs of
    _parts(units, units * unit_bytes) at once, the same way; any other
    call is one call on the calling thread.

    The calling thread allocates one block that holds the buffers of one
    batch and hands out views of it, batch after batch. One block rather
    than an array per buffer keeps the other stages' heap use as it was
    with budget-sized slabs: glibc raises its mmap threshold to the
    largest mmapped block freed, and arrays below it are reused from the
    heap instead of being mapped and faulted in afresh on every call.
    """
    if units * unit_bytes > COLS_BUDGET:
        per = max(1, COLS_BUDGET // WORKERS // unit_bytes)
        together = max(1, min(WORKERS, COLS_BUDGET // (per * unit_bytes)))
        slabs = [(lo, min(lo + per, units)) for lo in range(0, units, per)]
    else:
        slabs = _parts(units, units * unit_bytes) if split else [(0, units)]
        together = len(slabs)
    batches = [slabs[k : k + together] for k in range(0, len(slabs), together)]

    def nbytes(shape, dtype) -> int:  # rounded up to whole cache lines
        return -(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64

    block = np.empty(sum(nbytes(*b) for lo, hi in batches[0] for b in buffer_shapes(lo, hi)), dtype=np.uint8)
    for batch in batches:
        arglists, offset = [], 0
        for lo, hi in batch:
            buffers = []
            for shape, dtype in buffer_shapes(lo, hi):
                buffers.append(block[offset:].view(dtype)[: math.prod(shape)].reshape(shape))
                offset += nbytes(shape, dtype)
            arglists.append((lo, hi, *buffers))
        _run_at_once(job, arglists)


def _run_at_once(job, arglists) -> None:
    """job(*args) for each args at once: the first on the calling thread,
    each other on a helper thread, all finished before this returns."""
    errors = []

    def guarded(*args):
        try:
            job(*args)
        except BaseException as exc:
            errors.append(exc)

    helpers = [threading.Thread(target=guarded, args=args) for args in arglists[1:]]
    for t in helpers:
        t.start()
    try:
        job(*arglists[0])
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]


def _parts(units: int, call_bytes: int, min_part: int = 1) -> list[tuple[int, int]]:
    """The split rule: contiguous parts [lo, hi) that cover range(units),
    where one call over all units touches call_bytes. Parts are
    near-equal, at most WORKERS of them and each of at least min_part
    units, when there are two or more and the smallest touches at least
    SPLIT_FLOOR bytes; otherwise the one part [(0, units)]."""
    n = min(WORKERS, units // min_part)
    if n < 2 or call_bytes * (units // n) < SPLIT_FLOOR * units:
        return [(0, units)]
    bounds = [units * k // n for k in range(n + 1)]
    return list(zip(bounds, bounds[1:]))


def _in_parts(units: int, call_bytes: int, job, min_part: int = 1) -> None:
    """Call job(lo, hi) over _parts(units, call_bytes, min_part): one part
    runs alone on the calling thread; of several, the calling thread runs
    the first and one helper thread each of the others (_run_at_once)."""
    parts = _parts(units, call_bytes, min_part)
    if len(parts) == 1:
        job(0, units)
        return
    _run_at_once(job, parts)


def _shifted(d: int, size: int) -> tuple[slice, slice]:
    """(source, destination) slices of a length-size axis shifted by d,
    clipped to [0, size)."""
    return slice(max(0, -d), min(size, size - d)), slice(max(0, d), min(size, size + d))


def conv2d_same(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """'Same'-padded 2-D cross-correlation: (N,C,H,W) -> C-contiguous (N,O,H,W).

    The forward is w @ cols over the sample slabs of _slabwise, each slab
    its own GEMM written straight into its own slice of the output, so
    the bits do not depend on which thread runs it. Within COLS_BUDGET,
    only a float32 call splits. Splitting a GEMM's N does not keep the
    bits at every shape: with OpenBLAS 0.3.31's SkylakeX kernels, a
    float64 (16, 32, 10, 10) input into 64 kernels, split into 13 + 3
    samples, changed 415 of its 102,400 outputs, and halves of N = 2 to
    17 samples of that shape changed outputs at 7 of the 16 N in one
    random draw. So a float64 call splits only above the budget. The
    slabs are proven byte-identical to one GEMM at the corpus-10s conv
    shapes, float32 and float64, and in float32 at every 1 s conv shape
    in halves of N = 2 to 17, 30, 31, 63 and 64 samples where the budget
    holds them (tests/test_nn_functional.py::TestConvSlabs).
    """
    n, c, h, wd = x.shape
    o, cw, kh, kw = w.shape
    if c != cw:
        raise ValueError(f"input has {c} channels but kernels expect {cw}")
    wm = w.reshape(o, -1)
    out = np.empty((n, o, h, wd), dtype=x.dtype)
    gemm_dtype = np.result_type(w, x)

    def slab(lo, hi, padded, cols, y):
        _pad(x[lo:hi], kh, kw, padded)
        _im2col(padded, kh, kw, range(kh), cols)
        np.matmul(wm, cols, out=y)
        y += b[:, None]
        out[lo:hi] = y.reshape(o, hi - lo, h, wd).transpose(1, 0, 2, 3)

    def buffers(lo, hi):
        m = (hi - lo) * h * wd
        return (_padded_shape(x[lo:hi].shape, kh, kw), x.dtype), ((c * kh * kw, m), x.dtype), ((o, m), gemm_dtype)

    _slabwise(n, c * kh * kw * h * wd * x.itemsize, slab, buffers, split=gemm_dtype == np.float32)
    return out


def conv2d_same_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray, need_dx: bool = True):
    """Gradients (dx, dw, db) for conv2d_same.

    With dy channel-major as dyr (O, N*H*W) and cols rebuilt from x,
    dw = (cols @ dyr.T).T, the orientation that ran fastest on one BLAS
    thread, over _slabwise's groups of kernel rows: that splits the
    GEMM's M and keeps its full N*H*W reduction. dx is col2im:
    dcols = w.T @ dyr over _slabwise's sample slabs, each added into its
    own slice of dx one kernel offset at a time in (i, j) order, clipped
    to dx's interior (what a zero-padded buffer would hold there). Each
    group and slab is its own GEMM writing its own slice, so the bits do
    not depend on the thread that runs it. Within the budget, dw is one
    GEMM, since its bits depend on the group size at small shapes, and
    dx splits as the forward does. These splits are proven
    byte-identical to one GEMM at the same shapes as the forward's.
    need_dx=False skips dx (at a first layer, where nobody reads it).
    """
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    hw = h * wd
    dyr = np.ascontiguousarray(dy.transpose(1, 0, 2, 3)).reshape(o, n * hw)
    db = dyr.sum(axis=1, dtype=np.float64).astype(w.dtype)
    dw = np.empty(w.shape, dtype=w.dtype)
    padded = np.empty(_padded_shape(x.shape, kh, kw), dtype=x.dtype)
    _pad(x, kh, kw, padded)

    def rows(lo, hi, cols, dwt):
        _im2col(padded, kh, kw, range(lo, hi), cols)
        np.matmul(cols, dyr.T, out=dwt)
        dw[:, :, lo:hi] = dwt.T.reshape(o, c, hi - lo, kw)

    def row_buffers(lo, hi):
        k = c * (hi - lo) * kw
        return ((k, n * hw), x.dtype), ((k, o), np.result_type(x, dy))

    _slabwise(kh, c * kw * n * hw * x.itemsize, rows, row_buffers)
    del padded
    if not need_dx:
        return None, dw, db
    (pt, _), (pl, _) = _same_padding(kh), _same_padding(kw)
    wt = w.reshape(o, -1).T
    dx = np.zeros(x.shape, dtype=x.dtype)

    def slab(lo, hi, dcols):
        np.matmul(wt, dyr[:, lo * hw : hi * hw], out=dcols)
        d = dcols.reshape(c, kh, kw, hi - lo, h, wd)
        dxs = dx[lo:hi]
        for i in range(kh):
            src_h, dst_h = _shifted(i - pt, h)
            for j in range(kw):
                src_w, dst_w = _shifted(j - pl, wd)
                dxs[:, :, dst_h, dst_w] += d[:, i, j, :, src_h, src_w].transpose(1, 0, 2, 3)

    dcols_dtype = np.result_type(w, dy)

    def slab_buffers(lo, hi):
        return (((c * kh * kw, (hi - lo) * hw), dcols_dtype),)

    _slabwise(n, c * kh * kw * hw * x.itemsize, slab, slab_buffers, split=dcols_dtype == np.float32)
    return dx, dw, db


def _pooled_size(x_shape, pool_h: int, pool_w: int) -> tuple[int, int]:
    """Output (rows, columns) of a non-overlapping pool; rejects pools
    below 1 or larger than the input."""
    _, _, h, w = x_shape
    if pool_h < 1 or pool_w < 1:
        raise ValueError("pool dims must be >= 1")
    if pool_h > h or pool_w > w:
        raise ValueError(f"pool ({pool_h}, {pool_w}) larger than input ({h}, {w})")
    return h // pool_h, w // pool_w


def maxpool2d(x: np.ndarray, pool_h: int, pool_w: int):
    """Non-overlapping max pooling with floor division; remainder rows and
    columns are discarded. Returns (y, idx): y is maxpool2d_eval's, and
    idx the row-major offset i * pool_w + j of each window's first
    maximum, in the smallest unsigned dtype that holds pool_h * pool_w - 1.

    idx is a running maximum of found * offset, where found marks an
    element strictly greater than the running maximum: offsets only grow
    along the scan, so the newest winner's offset wins, and a tie keeps
    the earlier element, as argmax does. Only in a window holding a NaN
    may idx differ from argmax's (y is NaN there either way, and training
    stops on the non-finite loss before any backward).

    The scan runs over _in_parts' sample parts, each call touching one
    strided column slice of its samples (x.nbytes / pool_w in all).
    """
    ho, wo = _pooled_size(x.shape, pool_h, pool_w)
    rows, cols = ho * pool_h, wo * pool_w
    itype = np.min_scalar_type(pool_h * pool_w - 1)
    # columns: m is each row's window maximum, jdx its column offset
    shape = x.shape[:2] + (rows, wo)
    m = np.empty(shape, dtype=x.dtype)
    jdx = np.zeros(shape, dtype=itype)
    found = np.empty(shape, dtype=bool)
    cand = np.empty(shape, dtype=itype)
    y = np.empty(x.shape[:2] + (ho, wo), dtype=x.dtype)
    idx = np.empty(y.shape, dtype=itype)

    def part(lo, hi):
        xs, ms, js, fs, cs = x[lo:hi], m[lo:hi], jdx[lo:hi], found[lo:hi], cand[lo:hi]
        np.copyto(ms, xs[:, :, :rows, 0:cols:pool_w])
        for j in range(1, pool_w):
            xj = xs[:, :, :rows, j:cols:pool_w]
            np.greater(xj, ms, out=fs)
            np.maximum(xj, ms, out=ms)
            np.maximum(js, np.multiply(fs, itype.type(j), out=cs), out=js)
        # rows: the same scan over each window's row maxima
        ys, idxs = y[lo:hi], idx[lo:hi]
        np.copyto(ys, ms[:, :, 0:rows:pool_h])
        np.copyto(idxs, js[:, :, 0:rows:pool_h])
        fs, cs = fs[:, :, :ho], cs[:, :, :ho]
        for i in range(1, pool_h):
            mi = ms[:, :, i:rows:pool_h]
            np.greater(mi, ys, out=fs)
            np.maximum(mi, ys, out=ys)
            np.add(js[:, :, i:rows:pool_h], itype.type(i * pool_w), out=cs)
            cs *= fs
            np.maximum(idxs, cs, out=idxs)

    _in_parts(x.shape[0], x.nbytes // pool_w, part)
    return y, idx


def maxpool2d_eval(x: np.ndarray, pool_h: int, pool_w: int) -> np.ndarray:
    """maxpool2d's y without the argmax: a running np.maximum over the
    strided column slices of each window, then over its row slices, over
    maxpool2d's sample parts.

    np.maximum returns its second operand when the two compare equal, so
    the running maximum goes second: a tie keeps the earlier element, as
    argmax's first-maximum rule does, and the bytes (signed zeros
    included) are those of the window's first maximum.
    """
    ho, wo = _pooled_size(x.shape, pool_h, pool_w)
    rows, cols = ho * pool_h, wo * pool_w
    m = np.empty(x.shape[:2] + (rows, wo), dtype=x.dtype)
    y = np.empty(x.shape[:2] + (ho, wo), dtype=x.dtype)

    def part(lo, hi):
        xs, ms, ys = x[lo:hi], m[lo:hi], y[lo:hi]
        np.copyto(ms, xs[:, :, :rows, 0:cols:pool_w])
        for j in range(1, pool_w):
            np.maximum(xs[:, :, :rows, j:cols:pool_w], ms, out=ms)
        np.copyto(ys, ms[:, :, 0:rows:pool_h])
        for i in range(1, pool_h):
            np.maximum(ms[:, :, i:rows:pool_h], ys, out=ys)

    _in_parts(x.shape[0], x.nbytes // pool_w, part)
    return y


def maxpool2d_backward(dy: np.ndarray, idx: np.ndarray, x_shape, pool_h: int, pool_w: int) -> np.ndarray:
    """Route each dy to its window's first maximum: one scatter into a
    zeroed dx through the flat offset of each winner, over maxpool2d's
    sample parts.

    Window offset k = i * pool_w + j sits i * w + j past the window's
    top-left corner, that is k + i * (w - pool_w); the offsets are built
    in place in one intp array of dy's size.
    """
    n, c, h, w = x_shape
    ho, wo = dy.shape[2], dy.shape[3]
    flat = np.empty(dy.shape, dtype=np.intp)
    planes = (np.arange(n * c) * (h * w)).reshape(n, c, 1, 1)
    rows = np.arange(ho)[:, None] * (pool_h * w)
    cols = np.arange(wo) * pool_w
    dx = np.zeros(x_shape, dtype=dy.dtype)

    def part(lo, hi):
        f = flat[lo:hi]
        np.floor_divide(idx[lo:hi], pool_w, out=f, dtype=np.intp)
        f *= w - pool_w
        f += idx[lo:hi]
        f += planes[lo:hi]
        f += rows
        f += cols
        dx.put(f, dy[lo:hi])

    _in_parts(n, dx.nbytes // pool_w, part)
    return dx


# Batch norm's channel parts hold at least two channels each: a one-channel
# slice drops its channel axis inside numpy, whose float64 sums and einsums
# then add in another order than over the whole array (seen at (5, 3, 8,
# 12) split 1 + 2), while parts of two or more matched in 4,500 random
# shapes and splits.
_BN_MIN_PART = 2


def _normalize(x, mean, inv, gamma, beta, xhat, y) -> None:
    """xhat = (x - mean) * inv, then y = gamma * xhat + beta, over
    _in_parts' channel parts; mean and inv are per-channel vectors in x's
    dtype, and each full-size result is computed in place after its first
    operation. xhat may be y (no xhat kept), and y may be x when xhat is
    not x."""

    def part(lo, hi):
        ch = np.s_[None, lo:hi, None, None]  # per-channel vectors over (N, C, H, W)
        xs = np.subtract(x[:, lo:hi], mean[ch], out=xhat[:, lo:hi])
        xs *= inv[ch]
        ys = np.multiply(gamma[ch], xs, out=y[:, lo:hi])
        ys += beta[ch]

    _in_parts(x.shape[1], x.nbytes, part, _BN_MIN_PART)


def batchnorm2d_train(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float, out=None):
    """Per-channel batch normalization using (biased) batch statistics,
    accumulated in float64.

    Returns (y, batch_mean, batch_var, cache) where cache feeds backward.
    xhat is complete before y is written (_normalize), so out=x is safe:
    y goes over x and xhat is the one new array.

    The moments, then xhat and y, run over _in_parts' channel parts, and
    the calling thread allocates xhat and y between the two passes: the
    reductions' scratch is then freed before xhat is allocated, the heap
    order of one serial call. With xhat allocated first, desk-40's
    perfbench peak_rss_mb read 88.5 MB against 85.1 MB in 20 of 20 paired
    runs on a 2-core VM (glibc malloc).
    """
    c = x.shape[1]
    m = x.shape[0] * x.shape[2] * x.shape[3]
    mean, var = np.empty(c), np.empty(c)
    inv_t = np.empty(c, dtype=x.dtype)

    def moments(lo, hi):
        xs = x[:, lo:hi]
        mean[lo:hi] = xs.mean(axis=(0, 2, 3), dtype=np.float64)
        sumsq = np.einsum("nchw,nchw->c", xs, xs, dtype=np.float64)
        var[lo:hi] = np.maximum(sumsq / m - mean[lo:hi] ** 2, 0.0)
        inv_t[lo:hi] = 1.0 / np.sqrt(var[lo:hi] + eps)

    _in_parts(c, x.nbytes, moments, _BN_MIN_PART)
    xhat = np.empty(x.shape, dtype=x.dtype)
    y = np.empty(x.shape, dtype=np.result_type(gamma, xhat)) if out is None else out
    _normalize(x, mean.astype(x.dtype), inv_t, gamma, beta, xhat, y)
    cache = (xhat, inv_t, gamma)
    return y.astype(x.dtype, copy=False), mean, var, cache


def batchnorm2d_eval(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, mean: np.ndarray, var: np.ndarray, eps: float, out=None
) -> np.ndarray:
    """gamma * (x - mean) / sqrt(var + eps) + beta with the given
    statistics, in x's dtype: _normalize into one output array (out,
    which may be x) that also holds xhat."""
    inv = (1.0 / np.sqrt(var.astype(np.float64) + eps)).astype(x.dtype)
    y = np.empty(x.shape, dtype=x.dtype) if out is None else out
    _normalize(x, mean.astype(x.dtype), inv, gamma, beta, y, y)
    return y


def batchnorm2d_backward(dy: np.ndarray, cache, out=None):
    """Gradients (dx, dgamma, dbeta) for batchnorm2d_train:
    dx = (inv / m) * ((m * dxhat - sum(dxhat)) - xhat * sum(dxhat * xhat))
    with dxhat = dy * gamma, evaluated in place in the array that holds
    dxhat (out, which may be dy: dgamma and dbeta are read from dy
    first), over _in_parts' channel parts. xhat times its sum is written
    over the cached xhat, so the cache is spent by this call."""
    xhat, inv, gamma = cache
    c = dy.shape[1]
    m = dy.shape[0] * dy.shape[2] * dy.shape[3]
    dgamma, dbeta = np.empty(c), np.empty(c)
    dx = np.empty(dy.shape, dtype=np.result_type(dy, gamma)) if out is None else out

    def part(lo, hi):
        ch = np.s_[None, lo:hi, None, None]
        dys, xs = dy[:, lo:hi], xhat[:, lo:hi]
        dgamma[lo:hi] = np.einsum("nchw,nchw->c", dys, xs, dtype=np.float64)
        dbeta[lo:hi] = dys.sum(axis=(0, 2, 3), dtype=np.float64)
        dxs = np.multiply(dys, gamma[ch], out=dx[:, lo:hi])
        sum_dxhat = dxs.sum(axis=(0, 2, 3), dtype=np.float64)
        sum_dxhat_xhat = np.einsum("nchw,nchw->c", dxs, xs, dtype=np.float64)
        dxs *= m
        dxs -= sum_dxhat.astype(dy.dtype)[None, :, None, None]
        dxs -= np.multiply(xs, sum_dxhat_xhat.astype(dy.dtype)[None, :, None, None], out=xs)
        dxs *= inv[ch] / m

    _in_parts(c, dy.nbytes, part, _BN_MIN_PART)
    return dx.astype(dy.dtype, copy=False), dgamma, dbeta


def relu(x: np.ndarray, out=None) -> np.ndarray:
    """max(x, 0) over _in_parts' sample parts."""
    y = np.empty_like(x) if out is None else out
    _in_parts(x.shape[0], x.nbytes, lambda lo, hi: np.maximum(x[lo:hi], 0, out=y[lo:hi]))
    return y


def relu_backward(dy: np.ndarray, mask: np.ndarray, out=None) -> np.ndarray:
    """dy where the forward input was positive; mask is that input > 0."""
    return np.multiply(dy, mask, out=out)


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"dense input width {x.shape[1]} does not match weight {w.shape}")
    return x @ w + b


def dense_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    dx = dy @ w.T
    dw = x.T @ dy
    db = dy.sum(axis=0, dtype=np.float64).astype(w.dtype)
    return dx, dw, db


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z.astype(np.float64) - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return (e / e.sum(axis=1, keepdims=True)).astype(z.dtype)


def _scaled_by_mask(a: np.ndarray, mask: np.ndarray, rate: float, out) -> np.ndarray:
    """(a * mask) * (1 / (1 - rate)), the second product in place."""
    y = np.multiply(a, mask, out=out)
    y *= np.asarray(1.0 / (1.0 - rate), dtype=a.dtype)
    return y


def dropout(x: np.ndarray, rate: float, train: bool, rng: np.random.Generator, out=None):
    """Inverted dropout; identity at rate 0 or in eval mode, which returns
    x itself (so there out may only be x or None)."""
    if not 0 <= rate < 1:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x, None
    mask = rng.random(x.shape) >= rate
    return _scaled_by_mask(x, mask, rate, out), mask


def dropout_backward(dy: np.ndarray, mask, rate: float, out=None) -> np.ndarray:
    if mask is None:
        return dy
    return _scaled_by_mask(dy, mask, rate, out)


def flatten(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], -1)


def softmax_cross_entropy(z: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of softmax(z) against integer labels, taken on
    the logits z. Returns (loss, dz) with dz = (softmax(z) - onehot) / n.

    The float64 log-sum-exp keeps the loss finite and the gradient exact
    for any logit margin; nothing is clamped.
    """
    n = z.shape[0]
    rows = np.arange(n)
    shifted = z.astype(np.float64) - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) - shifted[rows, labels]))
    dz = e / total
    dz[rows, labels] -= 1.0
    return loss, (dz / n).astype(z.dtype)
