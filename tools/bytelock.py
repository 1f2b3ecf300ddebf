"""Byte lock of the ``wplink`` command line: what each argv of a fixed corpus
prints, exits with and writes.

    python3 tools/bytelock.py record CHECKOUT OUT.json
    python3 tools/bytelock.py diff A.json B.json

``record`` imports ``wplink`` from ``CHECKOUT/src`` and runs every argv of
the corpus in this process, each in a fresh empty working directory (plus
the config files it names), with ``COLUMNS=80``. Per argv it stores the sha1
of stdout and of stderr, the exit code (or the exception that escaped
``main``) and the sha1 of every file the run left in its directory, which
covers ``--out`` files and figure directories. ``diff`` lists each argv whose
record moved between two files and exits 1 if any did.

The corpus is built here, from this repository's ``bench/`` and
``README.md``, so two checkouts are always compared on the same argv:

* every step and warm-up argv of the ``analytic`` and ``mc_validate``
  workloads at seeds 0-9;
* the README's ``$ wplink`` examples, with the README's ``link.cfg``;
* every ``--help`` text;
* a hostile grid: listed field n-sweeps (odd, zero and repeated n, a dense
  field, a field whose coefficient sum passes 1e300 only at the larger n,
  small supplies), sweeps that fail in a middle row, sweeps with infinite
  ends or an overflowing span, ``optpower`` sweeps over p_e and eps (the
  SearchError region, p_e near the double range's ends, hostile
  ``--sigma2``, an ignored variable), single-mode ``pes``, ``rate`` and
  ``plan`` sweeps that fail at each check in a middle row or deep in a grid
  of 1e4 rows or more, ``rate`` sweeps whose feasibility flips, multi-mode
  ``pes``, ``rate`` and ``plan`` sweeps that fail in their first row at a
  flag the sweep leaves alone or in a middle row, a Monte Carlo trial count
  past the cap, a Monte Carlo row whose codeword energy overflows, and
  seeded random argv over every flag (absent, ordinary or hostile values,
  sweeps and config files).

Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = range(10)
HOSTILE_SEED = 2026
HOSTILE_COUNT = 2000
COMMANDS = ("pes", "rate", "optpower", "plan")
FIELD = ("--lambda", "1e-3", "--ppb", "1e3")


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


# ------------------------------------------------------------------ corpus


def bench_argv() -> list[tuple[str, ...]]:
    """Every step and warm-up argv of both workloads at seeds 0-9, with the
    figure directory ``out`` relative to the run's working directory."""
    sys.path.insert(0, str(REPO / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    out = []
    for name in sorted(WORKLOADS):
        for seed in SEEDS:
            workload = WORKLOADS[name](seed, "out")
            out += [tuple(step.argv) for step in workload.steps] + [tuple(a) for a in workload.warmup]
    return out


def readme() -> tuple[list[tuple[str, ...]], dict[str, str]]:
    """The README's ``$ wplink`` lines and its ``link.cfg``."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    argv = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        for line in block.splitlines():
            if line.startswith("$ wplink "):
                argv.append(tuple(shlex.split(line[len("$ wplink "):], comments=True)))
    config = re.search(r"^```\n(# link\.cfg\n.*?)^```", text, re.M | re.S)
    return argv, {"link.cfg": config.group(1)} if config else {}


def help_argv() -> list[tuple[str, ...]]:
    return [("--help",)] + [(cmd, "--help") for cmd in COMMANDS + ("figure", "validate")]


def listed_argv() -> list[tuple[str, ...]]:
    """Hand-picked cases that the random grid would rarely draw."""
    out = []
    fields = [
        FIELD,
        ("--lambda", "5e-3", "--ppb", "1e3"),
        ("--lambda", "1e-2", "--ppb", "100", "--eta", "2.5"),
        ("--lambda", "2e-3", "--ppb", "1e3", "--mu", "0.5", "--eta", "8"),
    ]
    n_sweeps = [
        "n:0:100:5", "n:1:9:5", "n:1000:1002:5", "n:999:1001:3", "n:2:4:5:log",
        "n:2000:20000:4", "n:20:20:1", "n:3:3:1", "n:-4:40:3", "n:1000:5000000:3",
        "n:100:3000:7:log", "n:2026:2026:1",
    ]
    for field in fields:
        for m, pt in (("1500", "1"), ("100", "10"), ("40000", "1"), ("5", "100")):
            for sweep in n_sweeps:
                out.append(("pes", "--mode", "multi", "-m", m, "--pt", pt, *field, "--sweep", sweep))
    multi = ("pes", "--mode", "multi", "-m", "1500", "--pt")
    out += [
        # a dense field: the coefficient sum leaves the double range at every n
        (*multi, "1", "--lambda", "1e100", "--ppb", "1e3", "--sweep", "n:2:2000:5"),
        # the coefficient sum passes 1e300 only at the two larger n
        (*multi, "1", "--lambda", "3.5e294", "--ppb", "1e3", "--sweep", "n:2000:20000:4"),
        (*multi, "1", "--lambda", "3.5e294", "--ppb", "1e3", "--sweep", "n:2000:8000:2"),
        (*multi, "0", *FIELD, "--sweep", "n:2:2000:5"),
        (*multi, "1e-300", *FIELD, "--sweep", "n:2:2000:5"),
        (*multi, "1e300", *FIELD, "--sweep", "n:2:2000:5"),
        (*multi, "1", *FIELD, "--mc-trials", "200", "--sweep", "n:100:1000:3"),
        ("pes", "--mode", "multi", "-m", "0", "--pt", "1", *FIELD, "--sweep", "n:2:2000:5"),
        ("pes", "--mode", "multi", "--pt", "1", *FIELD, "--sweep", "n:2:2000:5"),
        ("pes", "--mode", "multi", "-m", "1500", *FIELD, "--sweep", "n:2:2000:5"),
        ("pes", "--mode", "multi", "-m", "1500", "--pt", "1", "--sweep", "n:2:2000:5"),
        # an error in a middle row
        ("pes", "-n", "50", "-a", "0.1", "--sweep", "m:-2:2:5"),
        ("pes", "-m", "100", "-n", "50", "--pe", "1", "--sweep", "a:-1:1:3"),
        ("pes", "-m", "100", "-n", "50", "--pt", "1", "--sweep", "a:-1:1:3"),
        ("pes", "-m", "100", "-n", "50", "--sweep", "pe:-1:1:3"),
        ("pes", "-m", "100", "-n", "50", "-a", "0.1", "--sweep", "pt:-1:1:3"),
        ("plan", "-a", "0.1", "--sweep", "eps:0.5:1.5:3"),
        ("rate", "--pe", "100", "--pt", "0.12", "--sweep", "eps:0.1:1.9:3"),
        ("rate", "--pe", "100", "--pt", "0.12", "--eps", "0.05", "--sweep", "n:2026:2030:5"),
        ("rate", "--eps", "0.5", "-n", "50", *FIELD, "--pt", "1", "--sweep", "lambda:-1e-3:1e-3:3"),
        ("plan", "--eps", "0.05", "--mode", "multi", "--pt", "1", *FIELD, "--sweep", "eta:1:3:3"),
        ("optpower", "--eps", "0.05", "--sweep", "pe:-100:100:3"),
        ("pes", "-m", "100", "-a", "0.1", "--sweep", "n:2:100:5"),
        ("pes", "-m", "100", "-n", "50", "-a", "0.1", "--mc-trials", "100", "--sweep", "m:-50:50:3"),
    ]
    # Infinite and NaN ends, of every sweepable variable.
    for var in ("a", "pt", "pe", "eps", "m", "n", "lambda", "ppb", "mu", "eta"):
        for ends in ("0:inf:3", "1:inf:3", "-inf:1:3", "nan:1:3", "1:nan:3", "inf:inf:1", "2:inf:3:log"):
            out += [
                ("pes", "-m", "100", "-n", "50", "-a", "0.1", "--sweep", f"{var}:{ends}"),
                ("plan", "-a", "1", "--eps", "0.05", "--sweep", f"{var}:{ends}"),
                ("pes", "--mode", "multi", "-m", "100", "-n", "50", "--pt", "1", *FIELD,
                 "--sweep", f"{var}:{ends}"),
            ]
    # Derived powers at the edge of the double range.
    for pt, a in (("1e-300", "1e300"), ("1", "1e-320"), ("1e300", "1e-300"), ("1e-320", "1e10"),
                  ("1", "1e-310"), ("1e308", "0.5")):
        for cmd in ("pes", "rate", "plan"):
            out.append((cmd, "-m", "100", "-n", "2026", "--pt", pt, "-a", a, "--eps", "0.05"))
    for pe, a in (("1e-300", "1e-300"), ("1e300", "1e300"), ("1", "1e-320"), ("1e-320", "1")):
        for cmd in ("pes", "rate", "plan"):
            out.append((cmd, "-m", "100", "-n", "2026", "--pe", pe, "-a", a, "--eps", "0.05"))
    # A power ratio that is infinite or overflows: given alone, or as pt/pe.
    for flags in (("-a", "inf"), ("-a", "1e308"), ("--pt", "1e300", "--pe", "1e-300"),
                  ("-a", "inf", "--pt", "1e300", "--pe", "1e-300")):
        for cmd in ("pes", "rate", "plan"):
            out.append((cmd, "-m", "100", "-n", "2026", *flags, "--eps", "0.05"))
        out.append(("rate", "--eps", "0.05", *flags))
    # A linear sweep whose span overflows, and a power ratio that is not
    # positive beside --pt alone.
    out += [
        ("pes", "-m", "100", "-n", "50", "--sweep", "a:-1e308:1e308:3"),
        ("plan", "--eps", "0.05", "--sweep", "a:-1e308:1e308:3"),
        ("optpower", "--eps", "0.05", "--sweep", "pe:-1e308:1e308:3"),
        ("rate", "--eps", "0.05", "--pe", "100", "--sweep", "pt:-1e308:1e308:3"),
    ]
    for a in ("-1", "0", "-0", "nan", "-inf"):
        out += [
            ("pes", "-m", "100", "-n", "50", "--pt", "1", "-a", a),
            ("rate", "-m", "100", "-n", "50", "--eps", "0.05", "--pt", "1", "-a", a),
            ("plan", "--eps", "0.05", "--pt", "1", "-a", a),
        ]
    # A Monte Carlo trial count past the cap, and a Monte Carlo row whose
    # codeword energy overflows.
    out += [
        ("pes", "-m", "100", "-n", "50", "-a", "0.1", "--mc-trials", "1e300"),
        ("validate", "--mc-trials", "1e300"),
        ("pes", "-m", "100", "-n", "50", "-a", "1e8", "--pe", "1e300", "--mc-trials", "50"),
    ]
    # Multi-mode sweeps that fail in their first row at a flag the sweep
    # leaves alone (the frame before the field), or in a middle row.
    rate, plan = ("rate", "--mode", "multi"), ("plan", "--mode", "multi")
    out += [
        (*rate, "--eps", "2", "--pt", "1", "--lambda", "0", "--ppb", "1e3", "--sweep", "m:100:300:3"),
        (*rate, "-n", "51", "--eps", "0.05", "--pt", "1", "--lambda", "0", "--ppb", "1e3",
         "--sweep", "m:1:3:3"),
        (*rate, "-n", "50", "--pt", "1", *FIELD, "--sweep", "eps:0.5:1.5:3"),
        (*rate, "--eps", "0.5", "-n", "50", *FIELD, "--sweep", "pt:-1:1:3"),
        (*rate, "--eps", "0.5", "-n", "50", "--pt", "1", *FIELD, "--sweep", "mu:-1:1:3"),
        ("pes", "--mode", "multi", "-m", "100", "--pt", "1", *FIELD, "--mu", "2", "--sweep", "n:2:6:3"),
        ("pes", "--mode", "multi", "-n", "50", "--pt", "1", *FIELD, "--sweep", "m:-2:2:5"),
        (*plan, "--pt", "1", *FIELD, "--sweep", "eps:0.5:1.5:3"),
        (*plan, "--eps", "0.05", "--pt", "1", *FIELD, "--sweep", "eta:1:3:3"),
        (*plan, "--eps", "0.05", "--lambda", "1e-3", "--sweep", "pt:1:2:2"),
    ]
    # optpower sweeps: every row of a pe or eps sweep is one search.
    optpower = ("optpower", "--eps")
    out += [
        (*optpower, "1e-3", "--sweep", "pe:1:1e6:60:log"),
        (*optpower, "0.05", "--sweep", "pe:0.1:1e8:60:log"),
        (*optpower, "0.5", "--sweep", "pe:10:1e8:60:log"),
        (*optpower, "0.05", "--sigma2", "1e-300", "--sweep", "pe:1e4:1e12:9:log"),  # fails mid-sweep
        (*optpower, "0.05", "--sweep", "pe:1e-3:10:4:log"),  # starts in the SearchError region
        (*optpower, "0.05", "--sweep", "pe:1e-320:1e-300:3:log"),
        (*optpower, "1e-300", "--sweep", "pe:1e290:1e300:3:log"),
        (*optpower, "0.05", "--sweep", "pe:1e300:1.7e308:3:log"),
        (*optpower, "0.05", "--pe", "100", "--sweep", "a:0.1:1:3"),
        (*optpower, "0.05", "--pe", "0.01", "--sweep", "m:1:100:3"),
        ("optpower", "--pe", "100", "--sweep", "eps:0.5:1.5:3"),
        ("optpower", "--pe", "100", "--sweep", "eps:1e-4:0.9:40:log"),
        ("optpower", "--pe", "0.05", "--sweep", "eps:1e-4:0.9:40:log"),
        ("optpower", "--pe", "1e5", "--sigma2", "3", "--sweep", "eps:1e-300:0.5:7:log"),
    ]
    for sigma2 in ("0", "inf", "1e-300", "-1", "nan", "1e300"):
        out += [
            (*optpower, "0.05", "--sigma2", sigma2, "--sweep", "pe:100:1e4:5:log"),
            (*optpower, "0.05", "--pe", "100", "--sigma2", sigma2),
        ]
    return out + single_sweep_argv()


def single_sweep_argv() -> list[tuple[str, ...]]:
    """Single-mode pes, rate and plan sweeps: over each of a, pt, pe, eps, m
    and n, failing at each check in a middle row where a grid can reach it
    there (a count or a negative value fails first at the start), sweeps of
    1e4 rows or more whose first failure lies deep in the grid, and rate
    sweeps with -m or -n given whose feasibility flips inside the grid."""
    pes, rate, plan = ("pes", "-m", "100", "-n", "50"), ("rate", "--eps", "0.05"), ("plan", "--eps", "0.05")
    out = []
    for head in (pes, rate, plan):
        out += [
            (*head, "--pe", "1e300", "--sweep", "a:0:4e8:5"),  # p_t = a*pe overflows
            (*head, "--pt", "1e-300", "--sweep", "a:1:4e30:5"),  # p_e = pt/a underflows
            (*head, "--pt", "1", "--pe", "1", "--sweep", "a:1:3:3"),  # a contradicts pt/pe
            (*head, "--pe", "1e-300", "--sweep", "pt:0:4e8:5"),  # a = pt/pe overflows
            (*head, "-a", "1e-300", "--sweep", "pt:1e-10:4e8:5"),  # p_e = pt/a overflows
            (*head, "-a", "10", "--sweep", "pe:1:4e307:5"),  # p_t = a*pe overflows
            (*head, "--pt", "1", "--sweep", "pe:-1:1:5"),
            (*head, "--pe", "1", "--sweep", "a:-1:1:5"),
            (*head, "--sweep", "a:0:1:5"),  # a = 0 first
            (*head, "-a", "0.1", "--sweep", "eps:0.2:1.8:5"),
            (*head, "-a", "0.1", "--sweep", "m:-2:2:5"),
            (*head, "-a", "0.1", "--sweep", "m:1:1e300:5"),
            (*head, "-a", "0.1", "--sweep", "n:-4:4:5"),
            (*head, "-a", "0.1", "--sweep", "n:1:1e300:5"),
            (*head, "--pt", "1e-300", "--mc-trials", "50", "--sweep", "a:1:4e30:5"),
        ]
    out += [
        # the harvest floor overflows
        (*rate, "--sweep", "a:1e300:1e308:5"),
        (*plan, "--sweep", "a:1e300:1e308:5"),
        (*rate, "--pe", "1e-10", "--sweep", "pt:1e280:4e298:5"),
        (*plan, "--pe", "1e-10", "--sweep", "pt:1e280:4e298:5"),
        # the SNR p_t/sigma2 overflows; eps fails in the frame, the harvest
        # floor or the plan
        (*rate, "--pe", "100", "--sigma2", "1e-300", "--sweep", "pt:1e-3:4e8:5"),
        ("rate", "--pe", "100", "--pt", "0.12", "--sweep", "eps:0.2:1.8:5"),
        ("rate", "-n", "50", "--pe", "100", "--pt", "0.12", "--sweep", "eps:0.2:1.8:5"),
        ("rate", "-m", "100", "-n", "50", "--pe", "100", "--pt", "0.12", "--sweep", "eps:0:1.5:4"),
        ("rate", "-m", "100", "-n", "50", "-a", "0", "--sweep", "eps:-0.5:0.5:5"),
        ("plan", "-a", "1e300", "--sweep", "eps:1e-3:0.9:5"),
        # an odd -n, and counts past 2**53
        (*rate, "-n", "51", "--pe", "100", "--sweep", "pt:0.1:10:3"),
        (*rate, "-m", "9007199254740993", "-n", "50", "--pe", "100", "--sweep", "pt:0.1:10:3"),
        (*rate, "-m", "100", "--pe", "100", "--pt", "1", "--sweep", "n:9007199254740990:1e17:3"),
        ("pes", "-m", "100", "-n", "9007199254740993", "-a", "0.1"),
        ("pes", "-m", "100", "-n", "9007199254740992", "-a", "0.1"),
        ("rate", "-n", "9007199254740993", "--eps", "0.05", "-a", "0.1"),
        ("rate", "-m", "9007199254740993", "-n", "50", "--eps", "0.05", "-a", "0.1"),
        ("rate", "-m", "9007199254740992", "-n", "50", "--eps", "0.05", "-a", "0.1"),
        # the first failure deep in a grid of 1e4 rows or more
        (*plan, "--sweep", "a:1e290:1e308:20000:log"),
        (*pes, "--pe", "1e300", "--sweep", "a:1:1e9:20000:log"),
        (*pes, "-a", "10", "--sweep", "pe:1:1e308:10000:log"),
        (*rate, "--pe", "100", "--sigma2", "1e-300", "--sweep", "pt:1e-3:1e9:20000:log"),
        (*rate, "--pe", "1e-10", "--sweep", "pt:1e270:1e300:10000:log"),
        ("rate", "--pe", "100", "--pt", "0.12", "--sweep", "eps:1e-6:2:10000"),
        ("plan", "-a", "0.1", "--sweep", "eps:1e-6:2:10000"),
        # -m or -n given, and the feasibility flipping inside the grid
        ("rate", "-m", "1000", "--eps", "0.05", "--pe", "100", "--sweep", "pt:0.01:100:50:log"),
        ("rate", "-n", "4000", "--eps", "0.05", "--pe", "100", "--sweep", "pt:0.01:100:50:log"),
        ("rate", "-m", "1000", "-n", "2026", "--eps", "0.05", "--sweep", "a:1e-4:10:50:log"),
        ("rate", "-m", "5000", "-n", "2000", "--pe", "100", "--pt", "1", "--sweep", "eps:0.01:0.9:40:log"),
        ("rate", "-m", "1000", "--eps", "0.05", "--pe", "100", "--pt", "0.12", "--sweep", "n:2:10000:50"),
        ("rate", "-m", "2000", "--eps", "0.05", "--pe", "100", "--pt", "1", "--sweep", "n:2:20000:60"),
        ("rate", "-m", "3000", "--eps", "0.05", "--pe", "100", "--sigma2", "0.5",
         "--sweep", "pt:1e-4:50:2000:log"),
    ]
    return out


ORDINARY = {
    "--pt": ["1", "0.12", "10"],
    "--pe": ["1", "100", "1000"],
    "-a": ["0.1", "0.0012", "1"],
    "--sigma2": ["1", "0.5"],
    "--eps": ["0.05", "0.5", "0.1"],
    "-m": ["100", "1500", "9134"],
    "-n": ["50", "1000", "2026", "51"],
    "--lambda": ["1e-3", "5e-3"],
    "--ppb": ["1e3", "100"],
    "--mu": ["1", "0.5"],
    "--eta": ["3.6", "2.5"],
    "--mc-trials": ["100"],
    "--seed": ["0", "7"],
}
HOSTILE = ["0", "-0", "1", "-1", "inf", "-inf", "nan", "1e300", "1e-300", "1e-320"]
HOSTILE_COUNTS = ["0", "-1", "3", "1e300", "2.5", "inf"]
SWEEP_VARS = ("a", "pt", "pe", "eps", "m", "n", "lambda", "ppb", "mu", "eta")
SWEEP_ENDS = ["0", "1", "-1", "0.5", "2", "10", "50", "1000", "2026", "inf", "-inf", "nan", "1e300", "1e-300"]
CONFIG_KEYS = ("mode", "pt", "pe", "a", "eps", "m", "n", "lambda", "ppb", "mu", "eta", "seed", "bogus")


def random_argv(rng: random.Random) -> tuple[tuple[str, ...], dict[str, str]]:
    """One argv of the random grid and its config file, if any."""
    cmd = rng.choice(COMMANDS)
    argv = [cmd]
    mode = rng.choice(["single", "multi", None, None, "bogus"])
    if mode:
        argv += ["--mode", mode]
    for flag, ordinary in ORDINARY.items():
        draw = rng.random()
        if draw < 0.45 or (flag == "--mc-trials" and draw < 0.9):
            continue
        if draw < 0.85:
            argv += [flag, rng.choice(ordinary)]
        else:
            counts = flag in ("-m", "-n", "--mc-trials", "--seed")
            argv += [flag, rng.choice(HOSTILE_COUNTS if counts else HOSTILE)]
    if rng.random() < 0.4:
        var = rng.choice(SWEEP_VARS + ("bogus",))
        start, stop = rng.choice(SWEEP_ENDS), rng.choice(SWEEP_ENDS)
        points = rng.choice(["1", "3", "5", "0", "2.5"])
        scale = rng.choice(["", "", ":log", ":bogus"])
        argv += ["--sweep", f"{var}:{start}:{stop}:{points}{scale}"]
    files = {}
    if rng.random() < 0.15:
        lines = []
        for _ in range(rng.randint(1, 3)):
            key = rng.choice(CONFIG_KEYS)
            value = rng.choice(["multi", "single"] if key == "mode" else HOSTILE + ["0.05", "100", "2.5"])
            lines.append(f"{key} = {value}")
        files["c.cfg"] = "\n".join(lines) + "\n"
        argv += ["--config", "c.cfg"]
    return tuple(argv), files


def corpus() -> list[tuple[str, tuple[str, ...], dict[str, str]]]:
    """(part, argv, files) of every corpus entry, each argv once."""
    examples, config = readme()
    rng = random.Random(HOSTILE_SEED)
    entries = (
        [("bench", argv, {}) for argv in bench_argv()]
        + [("readme", argv, config) for argv in examples]
        + [("help", argv, {}) for argv in help_argv()]
        + [("listed", argv, {}) for argv in listed_argv()]
        + [("random", *random_argv(rng)) for _ in range(HOSTILE_COUNT)]
    )
    seen, out = set(), []
    for part, argv, files in entries:
        key = (argv, tuple(sorted(files.items())))
        if key not in seen:
            seen.add(key)
            out.append((part, argv, files))
    return out


# ------------------------------------------------------------------ running


def run_one(cli, argv, files: dict[str, str]) -> dict:
    """Record of one argv, run in a fresh working directory."""
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            Path(work, name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        old = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a traceback is recorded, not fatal
                    code = f"raised {type(exc).__name__}: {exc}"
        finally:
            os.chdir(old)
        written = {
            str(path.relative_to(work)): _sha1(path.read_bytes())
            for path in sorted(Path(work).rglob("*"))
            if path.is_file() and path.name not in files
        }
    return {
        "stdout": _sha1(out.getvalue().encode()),
        "stderr": _sha1(err.getvalue().encode()),
        "exit": code,
        "files": written,
    }


def record(checkout: str, out_path: str) -> int:
    src = Path(checkout).resolve() / "src"
    if not (src / "wplink" / "cli.py").is_file():
        print(f"error: no wplink sources under {src}", file=sys.stderr)
        return 2
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage at the terminal width
    sys.path.insert(0, str(src))
    import wplink.cli as cli

    entries = corpus()
    records, parts, started = [], {}, time.perf_counter()
    for part, argv, files in entries:
        rec = run_one(cli, argv, files)
        records.append({"part": part, "argv": list(argv), "config": files, **rec})
        parts[part] = parts.get(part, 0) + 1
    exits = {}
    for rec in records:
        exits[str(rec["exit"])] = exits.get(str(rec["exit"]), 0) + 1
    Path(out_path).write_text(json.dumps({"records": records}, indent=0) + "\n", encoding="utf-8")
    print(f"{len(records)} argv in {time.perf_counter() - started:.1f} s; "
          f"parts {parts}; exit codes {dict(sorted(exits.items()))}")
    return 0


def _key(rec: dict) -> str:
    config = "".join(f" [{name}: {text!r}]" for name, text in sorted(rec["config"].items()))
    return shlex.join(rec["argv"]) + config


def diff(a_path: str, b_path: str) -> int:
    a = {_key(r): r for r in json.loads(Path(a_path).read_text(encoding="utf-8"))["records"]}
    b = {_key(r): r for r in json.loads(Path(b_path).read_text(encoding="utf-8"))["records"]}
    moved = 0
    for key in a.keys() | b.keys():
        if key not in a or key not in b:
            print(f"only in {'B' if key not in a else 'A'}: {key}")
            moved += 1
            continue
        what = [f for f in ("stdout", "stderr", "exit", "files") if a[key][f] != b[key][f]]
        if what:
            print(f"moved ({', '.join(what)}): {key}")
            moved += 1
    print(f"{moved} of {len(a.keys() | b.keys())} argv moved")
    return 1 if moved else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the corpus against a checkout")
    rec.add_argument("checkout")
    rec.add_argument("out")
    dif = sub.add_parser("diff", help="list the argv whose record moved")
    dif.add_argument("a")
    dif.add_argument("b")
    args = parser.parse_args()
    if args.command == "record":
        return record(args.checkout, args.out)
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
