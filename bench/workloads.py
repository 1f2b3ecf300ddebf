"""The two benchmark workloads, built from a seed.

A workload is a list of ``wplink`` command lines run in order in one
process (one *pass*), each with the check its output must pass, plus a
short untimed warm-up. Each workload loads different layers:

* ``analytic``: every command without Monte Carlo. First the field part:
  ``figure fig7`` (45 planner searches over the Poisson field outage
  series), ``figure fig6`` and one long-frame multi-beacon ``pes`` sweep up
  to n = 1e5, which load ``planner`` and ``multi_pb``. Then the
  single-beacon part: ``optpower``, ``pes``, ``rate`` and ``plan`` sweeps
  with many cheap rows, ``figure fig2``-``fig5`` and the odd-n sweep whose
  exit 3 is a known failure, which load ``single_pb`` and the ``cli`` rows.
* ``mc_validate``: ``validate`` at 1e5 trials plus one single-beacon ``pes``
  row with 1e5 trials at n = 400. Loads ``montecarlo`` and ``specfun``.

The single-beacon part is not a workload of its own. Its pure-Python
per-row work slows by up to a third for minutes at a time on a shared
host, more than the numeric work does, so alone its timings drifted
beyond any allowed bound; inside ``analytic`` it is about a sixth of a
pass.

The seed picks the sweep parameters. Where no closed form checks an output
(the beacon field, the figures, the power optimiser), the seed picks from a
pool whose outputs were captured from the program by ``capture.py`` into
``ref/``. The seed never changes how much work a pass does.
"""

from __future__ import annotations

import gzip
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from oracle import (
    asymptotic_rate_bits,
    cell_ok,
    close,
    lin_grid,
    log_grid,
    m_min,
    n_min,
    planned_rate_bits,
    read_csv,
    supply,
    within_3_sigma,
)

REF = Path(__file__).resolve().parent / "ref"

# Frozen 40-digit mpmath value of energy_supply_prob_mp(1500, 1000, 1,
# NetworkParams(density=1e-3, p_pb=1e3)), as pinned in tests/test_multi_pb.py.
FIELD_ANCHOR = 0.1664847072741914

MC_TRIALS = 100_000
MC_PES_N = 400
MC_PES_HEADER = ["m", "n", "a", "pes", "pes_mc", "pes_mc_stderr"]
LONG_FRAME_SWEEP = "n:20000:100000:5"

# (eps, sweep) of the optpower sweeps; their outputs are captured, because
# the large-frame optimum is only as accurate as the package's Lambert W.
OPTPOWER_SWEEPS = [
    ("0.001", "pe:150:15000:2000:log"),
    ("0.01", "pe:120:8000:2000:log"),
    ("0.05", "pe:100:10000:2000:log"),
]

# Candidate long-frame sweeps (m, pt, lambda) at ppb = 1e3; capture.py keeps
# those whose supply probability stays in [0.05, 0.995] over the sweep, so
# that a reordered sum is still judged at a relative 1e-10.
FIELD_CANDIDATES = [
    (400_000, 1.0, 1e-3),
    (250_000, 0.5, 1e-3),
    (600_000, 2.0, 1e-3),
    (350_000, 1.0, 1e-3),
    (150_000, 1.0, 2e-3),
    (250_000, 2.0, 2e-3),
    (100_000, 0.5, 2e-3),
    (40_000, 1.0, 5e-3),
]

VALIDATE_CHECKS = (
    "single_supply_vs_mc",
    "prefix_equals_final",
    "ppp_mean_vs_closed_form",
    "laplace_vs_mc",
    "multi_supply_vs_mc",
    "deriv_paths_agree",
    "first_deriv_vs_fd",
)


@dataclass
class Verdict:
    """Points attempted, failed (no output, or output off its reference),
    wrong (failed, other than by the known defect of the odd-n sweep) and
    result rows emitted."""

    attempted: int
    failed: int = 0
    wrong: int = 0
    rows: int = 0


Check = Callable[[object, str], Verdict]


@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...]
    check: Check
    csv_name: str | None = None  # a figure's CSV under the work dir, read instead of stdout


@dataclass(frozen=True)
class Workload:
    steps: list[Step]
    warmup: list[tuple[str, ...]]


# ------------------------------------------------------------------- checks


def _row_ok(got: list[str], want) -> bool:
    try:
        if callable(want):
            return want(got)
        return len(got) == len(want) and all(map(cell_ok, got, want))
    except (ValueError, IndexError):
        return False


def csv_check(header: list[str], expected: list, known_exit: int | None = None) -> Check:
    """Row by row against ``expected``: each row is a list of reference
    cells (see ``oracle.cell_ok``) or a predicate on the row's cells.

    A nonzero exit fails every row, and the rows count as wrong too, unless
    the exit code is ``known_exit``, that of a known defect. Then the rows
    the command did emit, under a header that starts with ``header``, are
    checked, and a row missing or off its reference fails but is not wrong.
    """

    def check(rc, text: str) -> Verdict:
        verdict = Verdict(attempted=len(expected))
        got_header, got = read_csv(text)
        verdict.rows = len(got)
        width = len(header)
        if rc == 0 and got_header == header and len(got) == len(expected):
            verdict.failed = verdict.wrong = sum(
                not _row_ok(g, w) for g, w in zip(got, expected)
            )
        elif rc == known_exit and got_header[:width] == header and len(got) == len(expected):
            verdict.failed = sum(not _row_ok(g[:width], w) for g, w in zip(got, expected))
        elif rc == known_exit:
            verdict.failed = len(expected)
        else:
            verdict.failed = verdict.wrong = len(expected)
        return verdict

    return check


def golden(name: str) -> tuple[list[str], list[list[str]]]:
    return read_csv((REF / f"{name}.csv").read_text(encoding="utf-8"))


def figure_step(name: str, work_dir: str, patch: Callable | None = None) -> Step:
    header, rows = golden(name)
    if patch:
        rows = patch(rows)
    return Step(("figure", name, "--out", work_dir), csv_check(header, rows), f"{name}.csv")


def validate_check(rc, text: str) -> Verdict:
    """Seven PASS lines, with the analytic values that have closed forms."""
    verdict = Verdict(attempted=len(VALIDATE_CHECKS))
    lines = {}
    for line in text.splitlines():
        name, _, rest = line.partition(": ")
        if name in VALIDATE_CHECKS:
            lines[name] = rest
    verdict.rows = len(lines)
    if rc not in (0, 4):
        verdict.failed = verdict.wrong = len(VALIDATE_CHECKS)
        return verdict
    analytic = {
        "single_supply_vs_mc": supply(100, 50, 0.1),
        "ppp_mean_vs_closed_form": math.pi * 1e-3 * (3.6 / 1.6) * 1e3,
        "multi_supply_vs_mc": FIELD_ANCHOR,
    }
    for name in VALIDATE_CHECKS:
        rest = lines.get(name, "")
        ok = rest.startswith("PASS")
        if name in analytic:
            ok = ok and f"(analytic {analytic[name]:.6g}," in rest
        if not ok:
            verdict.failed += 1
            verdict.wrong += 1
    return verdict


# ---------------------------------------------------------------- workloads


def field_pool() -> list[dict]:
    return json.loads((REF / "field_sweeps.json").read_text(encoding="utf-8"))


def mc_pool() -> list[dict]:
    return json.loads((REF / "mc_pool.json").read_text(encoding="utf-8"))["accepted"]


def field_sweep_argv(m: int, pt: float, density: float) -> tuple[str, ...]:
    return (
        "pes", "--mode", "multi", "-m", str(m), "--pt", repr(pt),
        "--lambda", repr(density), "--ppb", "1000.0", "--sweep", LONG_FRAME_SWEEP,
    )


def optpower_argv(index: int) -> tuple[str, ...]:
    eps, sweep = OPTPOWER_SWEEPS[index]
    return ("optpower", "--eps", eps, "--sweep", sweep)


def mc_pes_argv(entry: dict, trials: int) -> tuple[str, ...]:
    return (
        "pes", "-m", str(entry["m"]), "-n", str(MC_PES_N), "-a", repr(entry["a"]),
        "--mc-trials", str(trials), "--seed", str(entry["seed"]),
    )


def _anchor_fig6(rows):
    # Row k = 1 is the anchor point, scaled neither in density nor in power.
    rows = [list(r) for r in rows]
    rows[0][2] = rows[0][3] = FIELD_ANCHOR
    return rows


def field_part(seed: int, work_dir: str) -> Workload:
    pool = field_pool()
    entry = pool[seed % len(pool)]
    sweep = Step(
        field_sweep_argv(entry["m"], entry["pt"], entry["lambda"]),
        csv_check(["n", "pes"], entry["rows"]),
    )
    return Workload(
        steps=[
            figure_step("fig7", work_dir),
            figure_step("fig6", work_dir, _anchor_fig6),
            sweep,
        ],
        warmup=[
            ("figure", "fig6", "--out", work_dir),
            field_sweep_argv(60_000, 1.0, 1e-3)[:-1] + ("n:2000:20000:3",),
        ],
    )


def mc_row(entry: dict, trials: int) -> Callable[[list[str]], bool]:
    m, n, a = entry["m"], MC_PES_N, entry["a"]
    p = supply(m, n, a)

    def ok(cells: list[str]) -> bool:
        if len(cells) != 6 or not all(map(cell_ok, cells[:4], (m, n, a, p))):
            return False
        mean, std_err = float(cells[4]), float(cells[5])
        binomial = math.sqrt(mean * (1.0 - mean) / trials)
        return close(cells[5], binomial) and within_3_sigma(mean, std_err, p)

    return ok


def mc_validate(seed: int, work_dir: str) -> Workload:
    pool = mc_pool()
    entry = pool[seed % len(pool)]
    return Workload(
        steps=[
            Step(
                ("validate", "--mc-trials", str(MC_TRIALS), "--seed", str(entry["seed"])),
                validate_check,
            ),
            Step(mc_pes_argv(entry, MC_TRIALS), csv_check(MC_PES_HEADER, [mc_row(entry, MC_TRIALS)])),
        ],
        warmup=[
            ("validate", "--mc-trials", "4096"),
            mc_pes_argv(entry, 4096),
        ],
    )


def odd_n_row(m: int, a: float, n_grid: float) -> Callable[[list[str]], bool]:
    """A row of the odd-n sweep. Its lead cell is the grid value or the even
    n it was evaluated at, and its pes is the closed form at that even n,
    which lies within 1 of the grid value."""
    evens = [n for n in range(math.ceil(n_grid - 1.0), math.floor(n_grid + 1.0) + 1) if n % 2 == 0]

    def ok(cells: list[str]) -> bool:
        lead = float(cells[0])
        if close(cells[0], n_grid):
            candidates = evens
        elif lead in evens:
            candidates = [int(lead)]
        else:
            return False
        return len(cells) == 2 and any(cell_ok(cells[1], supply(m, n, a)) for n in candidates)

    return ok


def single_part(seed: int, work_dir: str) -> Workload:
    rng = random.Random(seed)
    steps = []

    index = rng.randrange(len(OPTPOWER_SWEEPS))
    header, rows = read_csv(gzip.decompress((REF / f"optpower{index}.csv.gz").read_bytes()).decode())
    steps.append(Step(optpower_argv(index), csv_check(header, rows)))

    m, n = rng.randint(50, 500), 2 * rng.randint(10, 500)
    a0, a1 = round(rng.uniform(1e-4, 1e-3), 6), round(rng.uniform(1.0, 10.0), 3)
    steps.append(Step(
        ("pes", "-m", str(m), "-n", str(n), "--pe", "1", "--sweep", f"a:{a0!r}:{a1!r}:100000:log"),
        csv_check(["a", "pes"], [[a, supply(m, n, a)] for a in log_grid(a0, a1, 100_000)]),
    ))

    eps_r = rng.choice([1e-3, 1e-2, 0.05, 0.1])
    pe = round(rng.uniform(200.0, 5000.0), 1)
    pt0, pt1 = 1e-4 * pe, 0.5 * pe
    rate_rows = []
    for pt in log_grid(pt0, pt1, 5000):
        rate, feasible = planned_rate_bits(pt, pe, eps_r)
        rate_rows.append(
            [pt, rate if feasible else None, asymptotic_rate_bits(pt / pe, pt, eps_r), feasible]
        )
    steps.append(Step(
        ("rate", "--eps", repr(eps_r), "--pe", repr(pe), "--sweep", f"pt:{pt0!r}:{pt1!r}:5000:log"),
        csv_check(["pt", "rate_bits", "rate_bits_asymptotic", "feasible"], rate_rows),
    ))

    eps_p = rng.choice([1e-3, 1e-2, 0.05, 0.1])
    b0, b1 = round(rng.uniform(1e-5, 1e-4), 7), round(rng.uniform(0.5, 5.0), 3)
    n_p = n_min(eps_p)
    plan_rows = []
    for a in log_grid(b0, b1, 5000):
        m_p = m_min(n_p, a, eps_p)
        plan_rows.append([a, n_p, m_p, 1.0 + 2.0 * a / eps_p, n_p + m_p])
    steps.append(Step(
        ("plan", "--eps", repr(eps_p), "--sweep", f"a:{b0!r}:{b1!r}:5000:log"),
        csv_check(["a", "n_min", "m_min", "overhead", "total"], plan_rows),
    ))

    steps += [figure_step(name, work_dir) for name in ("fig2", "fig3", "fig4", "fig5")]

    # The README's odd-n sweep: n = 51 is odd, and the whole sweep exits 3
    # without rows. Counted as attempted points so that the failure shows;
    # exit 3 is its one tolerated failure.
    steps.append(Step(
        ("pes", "-m", "100", "-a", "0.1", "--sweep", "n:2:100:5"),
        csv_check(["n", "pes"], [odd_n_row(100, 0.1, g) for g in lin_grid(2.0, 100.0, 5)],
                  known_exit=3),
    ))
    return Workload(
        steps=steps,
        warmup=[
            ("optpower", "--eps", "0.05", "--sweep", "pe:100:1000:20:log"),
            ("pes", "-m", "100", "-n", "50", "--pe", "1", "--sweep", "a:0.01:1:1000:log"),
            ("rate", "--eps", "0.01", "--pe", "1000", "--sweep", "pt:0.1:100:100:log"),
            ("plan", "--eps", "0.01", "--sweep", "a:0.0001:1:100:log"),
            ("figure", "fig2", "--out", work_dir),
        ],
    )


def analytic(seed: int, work_dir: str) -> Workload:
    field, single = field_part(seed, work_dir), single_part(seed, work_dir)
    return Workload(steps=field.steps + single.steps, warmup=field.warmup + single.warmup)


WORKLOADS: dict[str, Callable[[int, str], Workload]] = {
    "analytic": analytic,
    "mc_validate": mc_validate,
}
