"""Tests of the benchmark itself: span arithmetic, metric names, output
checks, and a short run of every workload in both modes.

    python3 -m pytest perfbench -q
"""

import functools
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import stages  # noqa: E402
from tracing import Span, Tracer, self_times, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
        Span("c", 8.0, 11.0, parent=0),  # overlaps b and runs past root: counted once, clipped
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 5.0, 2.0, 1.0, 4.0, 3.0])


def test_tracer_records_parents_and_unpatches():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    box = Box()
    tracer.patch(box, "outer", "outer")
    tracer.patch(box, "inner", "inner", after=lambda a, k, r: {"result": r})
    assert box.outer() == 42
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracer.spans[1].attrs == {"result": 41}
    assert self_times(tracer.spans) == [2.0, 1.0]
    tracer.unpatch()
    assert "outer" not in box.__dict__ and "inner" not in box.__dict__
    box.outer()
    assert len(tracer.spans) == 2


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(1000)))[0] == 99.0
    assert tail(list(range(100)))[0] == 90.0
    assert tail(list(range(20)))[0] == 50.0
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_declared_names_and_units_are_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@functools.lru_cache(maxsize=None)
def short_run(workload, trace):
    """stdout lines of a 0.5-second run; each (workload, trace) runs once."""
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "5", "--seconds", "0.5"]
    proc = subprocess.run(cmd + ["--trace", str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_emits_every_declared_metric(workload, trace):
    result = json.loads(short_run(workload, trace)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(NAME.fullmatch(k) for k in result["metrics"])
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_learning_guards_repeat_exactly_for_a_seed(workload):
    printed = {line.split("\t")[0]: line.split("\t")[1] for line in short_run(workload, 0) if "\t" in line}
    traced = json.loads(short_run(workload, 1)[-1])["metrics"]
    for name in ("best_test_acc", "final_train_loss"):
        assert printed[name] == f"{traced[f'training.{name}']['value']:.6g}"


SHAPE = (2, 4, 5)
LABELS = np.array([0, 1, 1])


def test_nan_in_features_is_a_failed_op():
    ops = stages.Ops()
    x = np.zeros((3,) + SHAPE, dtype=np.float32)
    assert ops.run("extract", lambda: x, lambda r: stages.check_features(r, LABELS, SHAPE, LABELS)) is not None
    x_bad = x.copy()
    x_bad[1, 0, 2, 3] = np.nan
    assert ops.run("extract", lambda: x_bad, lambda r: stages.check_features(r, LABELS, SHAPE, LABELS)) is None
    assert (ops.attempted, ops.failed) == (2, 1)


def test_nonfinite_loss_and_matrix_are_failed_ops():
    ops = stages.Ops()
    ops.run("train", lambda: [2.0, float("inf")], stages.check_losses)
    ops.run("train", lambda: [2.0, 1.5], lambda r: stages.check_losses(r, [2.0, 1.25]))
    ops.run("analyze", lambda: np.full((3, 3), 0.5) + np.eye(3) * 0.4, stages.check_matrix)
    assert (ops.attempted, ops.failed) == (3, 3)


def _tsv(preds):
    names = ["a", "b"]
    lines = ["index\tlabel\tpred_global\tp_a\tp_b"]
    lines += [f"{i}\t{names[y]}\t{names[p]}\t0.5\t0.5" for i, (y, p) in enumerate(zip(LABELS, preds))]
    return "\n".join(lines) + "\n", names


def test_wrong_prediction_row_is_a_failed_op():
    ops = stages.Ops()
    expected = np.array([0, 1, 0])
    good, names = _tsv(expected)
    bad, _ = _tsv([0, 1, 1])
    short = good.rsplit("\n", 2)[0] + "\n"
    for text in (good, bad, short):
        ops.run("predict", lambda t=text: t, lambda t: stages.check_predict_tsv(t, names, LABELS, expected))
    assert (ops.attempted, ops.failed) == (3, 2)
