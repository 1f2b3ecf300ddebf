"""Run one workload in this process and print its measurements as JSON.

Started by ``run.py`` in a fresh interpreter whose ``PYTHONPATH`` starts
with the checkout's ``src``. After an untimed warm-up it runs passes of the
workload until ``--seconds`` would be exceeded (at least one), checking the
outputs of every pass outside the timed region. With ``--trace 1`` untraced
and traced passes alternate, and the traced ones give the per-layer
metrics; their spans are written to ``.bench_work/``.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, Verdict

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


def run_cli(cli, argv) -> tuple[object, str]:
    """(exit code, stdout) of one in-process ``wplink`` call. An exception
    escaping ``main`` is recorded as the exit code, and the step's check
    counts it as wrong."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a traceback is a failed point, not a crashed run
        rc = f"{type(exc).__name__}: {exc}"
    return (0 if rc is None else rc), out.getvalue()


def run_pass(cli, workload, fig_dir: Path):
    shutil.rmtree(fig_dir, ignore_errors=True)
    fig_dir.mkdir(parents=True)
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    results = [run_cli(cli, step.argv) for step in workload.steps]
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    verdict = Verdict(attempted=0)
    for step, (rc, text) in zip(workload.steps, results):
        if step.csv_name:
            path = fig_dir / step.csv_name
            text = path.read_text(encoding="utf-8") if path.is_file() else ""
        v = step.check(rc, text)
        verdict.attempted += v.attempted
        verdict.failed += v.failed
        verdict.wrong += v.wrong
        verdict.rows += v.rows
    return wall, cpu, verdict


def blas_threads() -> dict:
    """Thread settings in effect: the environment and, where OpenBLAS is
    loaded, the thread count it reports."""
    info = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["openblas_threads"] = fn()
                return info
    return info


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import numpy
    import scipy
    import wplink.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: wplink imported from {cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    fig_dir = WORK / f"{args.workload}-figures"
    workload = WORKLOADS[args.workload](args.seed, str(fig_dir))
    fig_dir.mkdir(parents=True, exist_ok=True)
    for argv in workload.warmup:
        run_cli(cli, argv)

    tracer = Tracer() if args.trace else None
    samples = {False: [], True: []}  # traced? -> [(wall, cpu)]
    total = Verdict(attempted=0)
    start = time.perf_counter()
    while True:
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.install()
            try:
                wall, cpu, verdict = run_pass(cli, workload, fig_dir)
            finally:
                if traced:
                    tracer.uninstall()
            samples[traced].append((wall, cpu))
            for key in ("attempted", "failed", "wrong", "rows"):
                setattr(total, key, getattr(total, key) + getattr(verdict, key))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(samples[False])) > args.seconds:
            break

    passes = len(samples[False]) + len(samples[True])
    rows_per_pass = total.rows / passes
    wall_s = statistics.median(w for w, _ in samples[False])
    if tracer:
        traced_wall = statistics.median(w for w, _ in samples[True])
        multi_pb = sys.modules["wplink.multi_pb"]
        metrics = tracer.layer_metrics(
            len(samples[True]), rows_per_pass, getattr(multi_pb, "_U_SWITCH", float("inf"))
        )
        metrics["trace.overhead_frac"] = traced_wall / wall_s - 1.0
        tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(c for _, c in samples[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rows_per_s": rows_per_pass / wall_s,
        }

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": {"untraced": len(samples[False]), "traced": len(samples[True])},
        "pass_wall_s": [w for w, _ in samples[False]],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_threads(),
        "untraced_layers": tracer.missing if tracer else [],
    }
    print(json.dumps({
        "meta": meta,
        "attempted": total.attempted,
        "failed": total.failed,
        "wrong": total.wrong,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
