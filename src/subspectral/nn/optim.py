"""Parameter store and the Adam update."""

from __future__ import annotations

import numpy as np

from .layers import Parameter

# Adam moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-7


class ParamStore:
    """Ordered collection of parameters plus Adam moment state."""

    def __init__(self, params: list[Parameter]):
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.params = list(params)
        self.first_moment = {p.name: np.zeros_like(p.data) for p in params}
        self.second_moment = {p.name: np.zeros_like(p.data) for p in params}
        self.step_count = 0

    def zero_grad(self):
        for p in self.params:
            p.grad[...] = 0

    def total_size(self) -> int:
        return sum(p.size for p in self.params)


def adam_step(store: ParamStore, lr: float = 1e-3) -> None:
    """Bias-corrected Adam update over every parameter in the store:
    m = BETA1 * m + (1 - BETA1) * g, v = BETA2 * v + ((1 - BETA2) * g) * g,
    p -= (lr * m_hat) / (sqrt(v_hat) + EPS), each evaluated in place in
    that operation order, with two parameter-size temporaries.

    A non-finite gradient anywhere rejects the whole step before any
    parameter or moment changes."""
    for p in store.params:
        if not np.isfinite(p.grad).all():
            raise RuntimeError(f"non-finite gradient in parameter {p.name!r}")
    store.step_count += 1
    t = store.step_count
    for p in store.params:
        g = p.grad
        m = store.first_moment[p.name]
        v = store.second_moment[p.name]
        m *= BETA1
        step = np.multiply(g, 1 - BETA1)
        m += step
        v *= BETA2
        denom = np.multiply(g, 1 - BETA2)
        denom *= g
        v += denom
        np.divide(m, 1 - BETA1**t, out=step)
        step *= lr
        np.divide(v, 1 - BETA2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += EPS
        step /= denom
        p.data -= step
