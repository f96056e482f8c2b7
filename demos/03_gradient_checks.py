#!/usr/bin/env python3
"""Finite-difference verification of every layer's analytic gradients.

Central differences are evaluated in float64; the float32 pass measures
the accuracy of float32 analytic gradients against that reference. Each
entry reports the tolerance it is held to (max relative error).
"""

import time
from collections import defaultdict

from subspectral.verification import run_gradient_suite

start = time.time()
entries = run_gradient_suite(seeds=range(5))
elapsed = time.time() - start

worst = defaultdict(float)
counts = defaultdict(int)
tolerance = {}
for e in entries:
    key = (e.case, e.dtype)
    worst[key] = max(worst[key], e.report.max_rel_error)
    counts[key] += e.report.n_coords
    tolerance[key] = e.report.tolerance

print(f"{len(entries)} checks over 5 seeds in {elapsed:.1f}s\n")
print(f"{'case':<24}{'dtype':<10}{'coords':>7}{'max rel err':>14}{'tolerance':>11}")
for (case, dtype), err in sorted(worst.items()):
    tol = tolerance[(case, dtype)]
    status = "ok" if err < tol else "FAIL"
    print(f"{case:<24}{dtype:<10}{counts[(case, dtype)]:>7}{err:>14.2e}{tol:>11.0e}  {status}")
