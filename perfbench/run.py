"""Benchmark of the subspectral toolkit: one workload per invocation.

    python3 perfbench/run.py --workload desk-40 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1 --out results.json

Run from the repository root. The package is imported from ./src, never
from an installed copy. BLAS is pinned to one thread before numpy loads,
and the run refuses to start unless OpenBLAS reports that one thread.
With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric; with --trace 1 it holds the per-layer metrics and the
tracing overhead, and the spans go to .perfbench_out/. See BENCHMARK.md.
"""

import os
import time

T0 = time.perf_counter()  # set-up time counts the imports below
PINNED_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured seconds (set-up not included)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --workload all: write every result and the environment here as JSON")
    return p.parse_args(argv)


def blas_info(np) -> tuple[int, str]:
    """(threads, version) as reported by numpy's bundled OpenBLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so*"))
    if not libs:
        raise RuntimeError("numpy's bundled OpenBLAS not found; cannot verify the BLAS thread pin")
    lib = ctypes.CDLL(libs[0])
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    get_config = lib.scipy_openblas_get_config64_
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    return get_threads(), get_config().decode()


def git_commit() -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, args, threads, openblas) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": threads,
        "openblas": openblas,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def result_line(correct, ops, metrics) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np
        import subspectral
    except ImportError as exc:
        print(f"error: cannot import subspectral from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(subspectral.__file__).resolve().parent.parent != SRC:
        print(f"error: subspectral imported from {subspectral.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import instrument
    import stages
    from tracing import Tracer

    import_s = time.perf_counter() - T0
    try:
        threads, openblas = blas_info(np)
    except (OSError, AttributeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if threads != PINNED_THREADS:
        print(f"error: OpenBLAS runs {threads} threads, the benchmark is pinned to {PINNED_THREADS}", file=sys.stderr)
        return 2
    env = environment(np, args, threads, openblas)
    print("env " + json.dumps(env, sort_keys=True))
    # the clamp warning of the cross-entropy is expected early in training
    warnings.simplefilter("ignore", RuntimeWarning)

    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    ops = stages.Ops(tracer)
    try:
        if tracer:
            instrument.install(tracer)
        inputs, setup_times = stages.setup(wl, args.seed, work, ops)
        if not tracer:
            times = stages.run_stages(wl, inputs, args.seed, args.seconds, ops)
            metrics = {"setup_s": (import_s + statistics.median(setup_times), "s")}
            metrics.update(stages.end_to_end(wl, times))
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        else:
            # untraced and traced halves of the same run give the overhead
            tracer.unpatch()
            ops.tracer = None
            plain = stages.run_stages(wl, inputs, args.seed, args.seconds / 2, ops)
            instrument.install(tracer)
            ops.tracer = tracer
            times = stages.run_stages(wl, inputs, args.seed, args.seconds / 2, ops)
            tracer.unpatch()
            metrics = instrument.layer_metrics(tracer.spans)
            base = stages.end_to_end(wl, plain)
            for name, (value, unit) in stages.end_to_end(wl, times).items():
                ratio = value / base[name][0] if unit == "s" else base[name][0] / value
                metrics[f"tracing_overhead.{name}"] = (ratio - 1, "fraction")
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{wl.name}-s{args.seed}.jsonl")
        guards = {"best_test_acc": (times.best_test_acc, "fraction"), "final_train_loss": (times.final_train_loss, "nats")}
        if tracer:
            metrics.update({f"training.{name}": v for name, v in guards.items()})
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(result_line(False, ops, {}))
        return 1
    finally:
        if tracer:
            tracer.unpatch()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    # the learning guards are printed but left out of the untraced result:
    # they change with the fixture seed by more than any bound could allow
    for name, (value, unit) in (metrics if tracer else {**metrics, **guards}).items():
        print(f"{name}\t{value:.6g}\t{unit}")
    print(f"error_rate\t{ops.failed / ops.attempted:.6g}\tfailed/attempted ({ops.failed}/{ops.attempted})")
    print(result_line(ops.failed == 0, ops, metrics))
    return 0 if ops.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another, so that peak
    RSS and set-up belong to one workload."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
        last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        results[name] = {"exit": proc.returncode, "env": env, "result": last}
    ok = all(r["exit"] == 0 and r["result"] and r["result"]["correct"] for r in results.values())
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": ok, "workloads": {name: r["result"] for name, r in results.items()}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
