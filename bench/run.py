"""The wplink benchmark.

Run one workload (see ``workloads.py``) from the root of a checkout:

    python3 bench/run.py --workload analytic --seed 1 --seconds 45 --trace 0

It times a fresh ``import wplink.cli`` (``setup_s``, median of several),
then runs the workload in its own process (``worker.py``) and prints a
``{"meta": ...}`` line with the run's metadata, one line per metric with
its unit, and, as the last line, the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones. ``attempted`` counts checked points (CSV
rows and validate checks) and ``failed`` those with no output or with an
output off its reference; ``correct`` is false when any point fails other
than by the one known defect, the odd-n sweep's exit 3 in ``analytic``.

Compare two result sets, each a file or a directory of files holding the
output of runs:

    python3 bench/run.py --compare BASE NEW
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 15
TIME_LIMIT_S = 170.0


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def worker_env() -> dict:
    """Environment of every child: the checkout's ``src`` first on the path,
    and BLAS thread pools no larger than the CPUs this process may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            threads = min(int(env.get(var, nproc)), nproc)
        except ValueError:
            threads = nproc
        env[var] = str(max(threads, 1))
    return env


def measure_setup(env: dict) -> float:
    """Median wall time of ``import wplink.cli`` in a fresh interpreter,
    after one untimed import that fills the bytecode and file caches."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wplink.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def commit() -> str | None:
    """The checked-out commit, when the checkout is a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run(args) -> int:
    if not (ROOT / "src" / "wplink" / "cli.py").is_file():
        print(f"error: no wplink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    metric_spec = spec()["per_layer" if args.trace else "end_to_end"]
    env = worker_env()
    started = time.perf_counter()
    setup_s = None if args.trace else measure_setup(env)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=TIME_LIMIT_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = dict(result["metrics"], **({} if setup_s is None else {"setup_s": setup_s}))

    meta = dict(result["meta"], commit=commit(), source_sha256=source_digest(),
                wrong=result["wrong"])
    print(json.dumps({"meta": meta}))
    metrics = {}
    for m in metric_spec:
        if m["name"] not in values:
            print(f"error: workload reported no {m['name']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:40s} {values[m['name']]:14.6g} {m['unit']}")
    error_rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':40s} {error_rate:14.6g} ({result['failed']} of {result['attempted']} points)")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


# ------------------------------------------------------------------ compare


def load_results(path: Path) -> dict:
    """{(workload, trace): {metric: [values]}} from the output of runs."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    out: dict = {}
    for file in files:
        meta = None
        for line in file.read_text(encoding="utf-8", errors="replace").splitlines():
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "meta" in obj:
                meta = obj["meta"]
            elif "metrics" in obj and meta is not None:
                series = out.setdefault((meta["workload"], meta["trace"]), {})
                for name, m in obj["metrics"].items():
                    series.setdefault(name, []).append(m["value"])
                meta = None
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base_path: str, new_path: str) -> int:
    base, new = load_results(Path(base_path)), load_results(Path(new_path))
    metrics = spec()["end_to_end"]
    print(f"{'workload':16s} {'metric':14s} {'unit':6s} {'base median [q1, q3] (runs)':36s} "
          f"{'new median [q1, q3] (runs)':36s} new/base")
    for workload, trace in sorted(set(base) & set(new)):
        if trace:
            continue
        for m in metrics:
            a, b = base[workload, trace].get(m["name"]), new[workload, trace].get(m["name"])
            if not a or not b:
                continue
            (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
            print(f"{workload:16s} {m['name']:14s} {m['unit']:6s} "
                  f"{f'{a2:.5g} [{a1:.5g}, {a3:.5g}] ({len(a)})':36s} "
                  f"{f'{b2:.5g} [{b1:.5g}, {b3:.5g}] ({len(b)})':36s} "
                  f"{b2 / a2:.4f} of base {a2:.5g} {m['unit']} ({m['better']} is better)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
