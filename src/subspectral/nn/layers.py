"""Stateful layer objects over the functional kernels.

Each layer instance is used once per forward pass. Saved state lives
from a train-mode forward until its backward: the forward keeps what the
matching backward needs, and the backward drops it once used, so the
step's memory holds only what later layers still need. An eval-mode
forward keeps nothing and drops what an earlier train-mode forward kept.
A backward without a train-mode forward since the last backward raises.
Parameter gradients accumulate with += so shared trunks can receive
contributions from several heads; call zero_grad between steps.

Ownership: forward and backward take a keyword owned (default False).
A layer handed owned=True may write its result over the array it was
handed; batch norm, ReLU and dropout do, so a train step holds one
full-size activation fewer at each of them. A conv's backward whose
columns exceed COLS_BUDGET writes its channel-major dy over an owned dy
instead of copying it (F.conv2d_same_backward). A Sequential owns every
array one of its own layers made in the current pass: the caller's input
(going forward) or dy (going back) is never owned, and a layer's result
is owned unless it shares memory with the layer's input (Flatten's view,
Dropout in eval or at rate 0), in which case it is owned exactly when
that input was. A layer used on its own leaves its input as it is.
"""

from __future__ import annotations

import numpy as np

from . import functional as F


class Parameter:
    """Named trainable tensor with an accumulated gradient."""

    __slots__ = ("name", "data", "grad")

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.data = data
        self.grad = np.zeros_like(data)

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


def glorot_uniform(shape, fan_in: int, fan_out: int, rng: np.random.Generator, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _init_weight(shape, fan_in: int, fan_out: int, rng: np.random.Generator | None, dtype) -> np.ndarray:
    """glorot_uniform draws from rng; with rng None the weight is left
    unset (np.empty), for a caller that loads every weight next."""
    if rng is None:
        return np.empty(shape, dtype=dtype)
    return glorot_uniform(shape, fan_in, fan_out, rng, dtype)


class Layer:
    kind = "layer"

    def __init__(self, name: str = ""):
        self.name = name

    def params(self) -> list[Parameter]:
        return []

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) of each non-trainable state tensor; the arrays
        are the live ones, so writing into them sets the layer's state."""
        return []

    def forward(self, x: np.ndarray, train: bool, *, owned: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray, *, owned: bool = False) -> np.ndarray:
        raise NotImplementedError

    def _saved(self, attr: str):
        """Hand over the state that the last train-mode forward kept in
        attr and drop it: it lives until this backward. Raises if no
        train-mode forward ran since the last backward or eval forward."""
        state = getattr(self, attr)
        if state is None:
            raise RuntimeError(f"{self.name}: backward without a train-mode forward")
        setattr(self, attr, None)
        return state

    def spec(self) -> dict:
        return {"kind": self.kind, "name": self.name}


class Conv2dSame(Layer):
    kind = "conv2d"

    def __init__(self, in_channels, out_channels, kernel_h, kernel_w, *, rng, dtype=np.float32, name=""):
        super().__init__(name)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = (kernel_h, kernel_w)
        fan_in = in_channels * kernel_h * kernel_w
        fan_out = out_channels * kernel_h * kernel_w
        self.weight = Parameter(
            f"{name}.weight", _init_weight((out_channels, in_channels, kernel_h, kernel_w), fan_in, fan_out, rng, dtype)
        )
        self.bias = Parameter(f"{name}.bias", np.zeros(out_channels, dtype=dtype))
        self._x = None

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, train, *, owned=False):
        if x.shape[1] != self.in_channels:
            raise ValueError(f"{self.name}: got {x.shape[1]} channels, expected {self.in_channels}")
        self._x = x if train else None
        return F.conv2d_same(x, self.weight.data, self.bias.data)

    def backward(self, dy, input_grad=True, *, owned=False):
        dx, dw, db = F.conv2d_same_backward(dy, self._saved("_x"), self.weight.data, need_dx=input_grad, overwrite_dy=owned)
        self.weight.grad += dw
        self.bias.grad += db
        return dx

    def spec(self):
        return {
            "kind": self.kind,
            "name": self.name,
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel": list(self.kernel),
        }


class BatchNorm2d(Layer):
    """Per-channel batch norm. Train mode normalizes by the batch and moves
    the running statistics toward it; eval mode reads them. running_mean,
    running_var and batches_seen (a length-1 float64 count) are updated in
    place, so buffers() hands out the live arrays."""

    kind = "batchnorm"

    def __init__(self, channels, *, momentum=0.99, eps=1e-3, dtype=np.float32, name=""):
        super().__init__(name)
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(f"{name}.gamma", np.ones(channels, dtype=dtype))
        self.beta = Parameter(f"{name}.beta", np.zeros(channels, dtype=dtype))
        # running stats stay in the storage dtype so checkpoints (which
        # hold float32) round-trip bit-exactly
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.batches_seen = np.zeros(1, dtype=np.float64)
        self._cache = None

    def params(self):
        return [self.gamma, self.beta]

    def buffers(self):
        return [
            (f"{self.name}.running_mean", self.running_mean),
            (f"{self.name}.running_var", self.running_var),
            (f"{self.name}.batches_seen", self.batches_seen),
        ]

    def forward(self, x, train, *, owned=False):
        if x.shape[1] != self.channels:
            raise ValueError(f"{self.name}: got {x.shape[1]} channels, expected {self.channels}")
        out = x if owned else None
        if train:
            y, mean, var, self._cache = F.batchnorm2d_train(x, self.gamma.data, self.beta.data, self.eps, out=out)
            # float64 blend, rounded to the storage dtype on assignment
            self.running_mean[...] = self.momentum * self.running_mean.astype(np.float64) + (1 - self.momentum) * mean
            self.running_var[...] = self.momentum * self.running_var.astype(np.float64) + (1 - self.momentum) * var
            self.batches_seen += 1
            return y
        if not self.batches_seen[0]:
            raise RuntimeError(f"{self.name}: eval before any training batch; running stats uninitialized")
        self._cache = None
        return F.batchnorm2d_eval(x, self.gamma.data, self.beta.data, self.running_mean, self.running_var, self.eps, out=out)

    def backward(self, dy, *, owned=False):
        dx, dgamma, dbeta = F.batchnorm2d_backward(dy, self._saved("_cache"), out=dy if owned else None)
        self.gamma.grad += dgamma.astype(self.gamma.data.dtype)
        self.beta.grad += dbeta.astype(self.beta.data.dtype)
        return dx

    def spec(self):
        return {"kind": self.kind, "name": self.name, "channels": self.channels, "momentum": self.momentum, "eps": self.eps}


class ReLU(Layer):
    """max(x, 0). When a Sequential feeds it straight into a MaxPool2d
    (pooled=True), the pool applies its mask (see MaxPool2d): the ReLU
    keeps none and its backward hands dy on unchanged."""

    kind = "relu"

    def __init__(self, name=""):
        super().__init__(name)
        self.pooled = False
        self._mask = None  # after a train-mode forward: x > 0, or True when pooled

    def forward(self, x, train, *, owned=False):
        self._mask = (True if self.pooled else x > 0) if train else None
        return F.relu(x, out=x if owned else None)

    def backward(self, dy, *, owned=False):
        mask = self._saved("_mask")
        if mask is True:
            return dy
        return F.relu_backward(dy, mask, out=dy if owned else None)


class MaxPool2d(Layer):
    """Non-overlapping max pool. When a Sequential feeds it straight from a
    ReLU (after_relu=True), it keeps that ReLU's mask at its winners, the
    pooled y > 0, and multiplies dy by it before the scatter: a winner
    passed the ReLU exactly when its pooled value is positive, and every
    other input gets a zero either way, so the bits (signed zeros
    included) are those of the ReLU's full-size mask, at 1/(pool_h *
    pool_w) of its size."""

    kind = "maxpool"

    def __init__(self, pool_h, pool_w, name=""):
        super().__init__(name)
        self.pool = (pool_h, pool_w)
        self.after_relu = False
        self._idx = None  # (idx, input shape, y > 0 or None) after a train-mode forward

    def forward(self, x, train, *, owned=False):
        if not train:
            self._idx = None
            return F.maxpool2d_eval(x, *self.pool)
        y, idx = F.maxpool2d(x, *self.pool)
        self._idx = (idx, x.shape, y > 0 if self.after_relu else None)
        return y

    def backward(self, dy, *, owned=False):
        idx, in_shape, mask = self._saved("_idx")
        if mask is not None:
            dy = F.relu_backward(dy, mask, out=dy if owned else None)
        return F.maxpool2d_backward(dy, idx, in_shape, *self.pool)

    def spec(self):
        return {"kind": self.kind, "name": self.name, "pool": list(self.pool)}


class Dropout(Layer):
    kind = "dropout"

    def __init__(self, rate, name=""):
        super().__init__(name)
        if not 0 <= rate < 1:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng: np.random.Generator | None = None
        self._mask = None  # (mask,) after a train-mode forward; mask is None at rate 0

    def forward(self, x, train, *, owned=False):
        if train and self.rate > 0 and self.rng is None:
            raise RuntimeError(f"{self.name}: dropout needs an rng in train mode")
        y, mask = F.dropout(x, self.rate, train, self.rng, out=x if owned else None)
        self._mask = (mask,) if train else None
        return y

    def backward(self, dy, *, owned=False):
        (mask,) = self._saved("_mask")
        return F.dropout_backward(dy, mask, self.rate, out=dy if owned else None)

    def spec(self):
        return {"kind": self.kind, "name": self.name, "rate": self.rate}


class Flatten(Layer):
    kind = "flatten"

    def __init__(self, name=""):
        super().__init__(name)
        self._in_shape = None

    def forward(self, x, train, *, owned=False):
        self._in_shape = x.shape if train else None
        return F.flatten(x)

    def backward(self, dy, *, owned=False):
        return dy.reshape(self._saved("_in_shape"))


class Dense(Layer):
    kind = "dense"

    def __init__(self, in_features, out_features, *, rng, dtype=np.float32, name=""):
        super().__init__(name)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(f"{name}.weight", _init_weight((in_features, out_features), in_features, out_features, rng, dtype))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_features, dtype=dtype))
        self._x = None

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, train, *, owned=False):
        self._x = x if train else None
        return F.dense(x, self.weight.data, self.bias.data)

    def backward(self, dy, *, owned=False):
        dx, dw, db = F.dense_backward(dy, self._saved("_x"), self.weight.data)
        self.weight.grad += dw
        self.bias.grad += db
        return dx

    def spec(self):
        return {"kind": self.kind, "name": self.name, "in_features": self.in_features, "out_features": self.out_features}


class Sequential:
    """Plain layer pipeline; backward runs in reverse order. It tells each
    layer, its leading conv included, whether it owns the array it is
    handed (see the module docstring); the caller's x and dy are never
    written over. A ReLU followed by a MaxPool2d hands its mask to the
    pool (see MaxPool2d)."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers
        for a, b in zip(layers, layers[1:]):
            if isinstance(a, ReLU) and isinstance(b, MaxPool2d):
                a.pooled = b.after_relu = True

    def forward(self, x, train: bool):
        owned = False
        for layer in self.layers:
            y = layer.forward(x, train, owned=owned)
            owned, x = owned or not np.may_share_memory(y, x), y
        return x

    def backward(self, dy, input_grad=True):
        """input_grad=False skips the input gradient at a leading conv
        layer (trunks during training, where nobody reads that dx)."""
        owned = False
        for i, layer in enumerate(reversed(self.layers)):
            if i == len(self.layers) - 1 and isinstance(layer, Conv2dSame):
                return layer.backward(dy, input_grad=input_grad, owned=owned)
            dx = layer.backward(dy, owned=owned)
            owned, dy = owned or not np.may_share_memory(dx, dy), dx
        return dy

    def params(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.params()]

    def buffers(self):
        return [b for layer in self.layers for b in layer.buffers()]
