"""Central finite-difference verification of analytic gradients.

The loss used for differencing should be evaluated in float64 (for
float32 graphs: rebuild the fragment in float64 at the same parameter
values) so the comparison measures gradient correctness rather than
storage noise. Relative error is |a - fd| / max(1, |a|, |fd|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CoordResult:
    target: str
    coord: tuple
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    tolerance: float
    max_rel_error: float = 0.0
    n_coords: int = 0
    worst: CoordResult | None = None

    @property
    def passed(self) -> bool:
        return self.n_coords > 0 and self.max_rel_error < self.tolerance


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def sample_coords(shape, n: int, rng: np.random.Generator, exclude_mask=None):
    """Up to n distinct flat coordinates, skipping excluded positions."""
    size = int(np.prod(shape)) if shape else 1
    allowed = np.arange(size)
    if exclude_mask is not None:
        allowed = allowed[~np.asarray(exclude_mask).reshape(-1)]
    if len(allowed) == 0:
        return []
    chosen = rng.choice(allowed, size=min(n, len(allowed)), replace=False)
    return [np.unravel_index(int(c), shape) if shape else () for c in chosen]


def grad_check(loss_fn, targets, tolerance: float, *, coords_per_target: int = 8, rng=None) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    loss_fn() re-evaluates the scalar loss with the target arrays'
    current contents. targets is a list of (name, array, analytic_grad)
    or (name, array, analytic_grad, exclude_mask) tuples; arrays are
    perturbed in place and restored. The step, 1e-6, scales with each
    coordinate's magnitude.
    """
    rng = rng or np.random.default_rng(0)
    report = GradCheckReport(tolerance=tolerance)
    for target in targets:
        name, array, grad = target[:3]
        exclude = target[3] if len(target) > 3 else None
        for coord in sample_coords(array.shape, coords_per_target, rng, exclude):
            original = array[coord]
            h = 1e-6 * max(1.0, abs(float(original)))
            array[coord] = original + h
            loss_plus = loss_fn()
            array[coord] = original - h
            loss_minus = loss_fn()
            array[coord] = original
            numeric = (loss_plus - loss_minus) / (2 * h)
            analytic = float(grad[coord])
            err = relative_error(analytic, numeric)
            report.n_coords += 1
            if err > report.max_rel_error:
                report.max_rel_error = err
                report.worst = CoordResult(name, coord, analytic, numeric, err)
    return report
