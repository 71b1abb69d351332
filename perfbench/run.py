#!/usr/bin/env python3
"""Benchmark for coca-tta: adaptation throughput, step latency and sweeps.

    python3 perfbench/run.py --workload adapt-mlp-iid --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports ``coca_tta`` from
``src/`` there. ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a full
result file goes to ``perfbench/out/``. The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_info() -> dict:
    import ctypes
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }
    # The running OpenBLAS reports its thread count and the kernel it picked.
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for key, sym, restype in (("blas_threads", "scipy_openblas_get_num_threads64_",
                                   ctypes.c_int),
                                  ("blas_core", "scipy_openblas_get_corename64_",
                                   ctypes.c_char_p)):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, []
                value = fn()
                info[key] = value.decode() if isinstance(value, bytes) else value
    return info


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def load_program():
    """Pin BLAS threads, import coca_tta from ``src/`` and the workloads.

    Returns the workloads module, or None after printing why it cannot.
    """
    if not (SRC / "coca_tta" / "__init__.py").is_file():
        print(f"error: no coca_tta sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return None
    # One BLAS thread per process, set before numpy loads: `coca sweep`
    # forks PARALLEL workers and workers x BLAS threads must stay <= nproc.
    if "numpy" in sys.modules:
        print("error: numpy was imported before BLAS threads were pinned", file=sys.stderr)
        return None
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import multiprocessing
    import coca_tta
    if Path(coca_tta.__file__).resolve().parent != (SRC / "coca_tta").resolve():
        print(f"error: imported coca_tta from {coca_tta.__file__}, not {SRC}", file=sys.stderr)
        return None
    # Sweep workers must inherit the benchmark's spans, so they are forked.
    multiprocessing.set_start_method("fork")
    import workloads
    return workloads


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in bench_spec["workloads"]}
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(names)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workloads = load_program()
    if workloads is None:
        return 2

    wl = workloads.WORKLOADS[args.workload]
    expected_path = Path(__file__).resolve().parent / "expected.json"
    expected = json.loads(expected_path.read_text()) if expected_path.exists() else {}
    doc = workloads.config_doc(wl, args.seed)
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]
    trace = bool(args.trace)
    tag = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    work = OUT / f"work_{os.getpid()}"

    try:
        if wl.grid is None:
            outcome, full = workloads.run_adapt(wl, args.seed, args.seconds, trace,
                                                expected)
        else:
            outcome, full = workloads.run_sweep(wl, args.seed, args.seconds, trace,
                                                expected, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(outcome.metrics)
    if not trace:
        metrics["ok_frac"] = (1.0 - outcome.failed / max(outcome.attempted, 1), "fraction")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        wanted = [m["name"] for m in bench_spec["end_to_end"]]
    else:
        wanted = [m["name"] for m in bench_spec["per_layer"]]
    missing = [n for n in wanted if n not in metrics]
    if missing:
        outcome.problems.append(f"metrics not measured: {missing}")
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            outcome.problems.append(f"{name} is not finite")
            metrics[name] = (None, unit)
    correct = not outcome.problems and outcome.failed == 0 and outcome.attempted > 0

    machine = machine_info()
    OUT.mkdir(parents=True, exist_ok=True)
    result = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config_digest": digest, "config": doc,
        "machine": machine, "correct": correct, "problems": outcome.problems,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "details": outcome.details,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    if trace:
        with open(OUT / f"{tag}_steps.jsonl", "w", encoding="utf-8") as f:
            for step in full.steps:
                f.write(json.dumps(step) + "\n")

    for name in wanted:
        if name in metrics:
            value, unit = metrics[name]
            print(f"{name:36s} {value if value is None else format(value, '.6g')} {unit}")
    for key, value in outcome.details.items():
        print(f"# {key}: {value}")
    print("# machine: " + ", ".join(f"{k}={machine.get(k)}" for k in (
        "nproc", "cpu_model", "python", "numpy", "blas_vendor", "blas_version",
        "blas_core", "blas_threads")))
    print(f"# config_digest: {digest}")
    for problem in outcome.problems:
        print(f"# FAILED CHECK: {problem}")
    print(f"# result file: {(OUT / (tag + '.json')).relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in wanted if n in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
