"""Capture the reference outputs under ``ref/`` from the program in ``src/``.

    python3 bench/capture.py

Writes ``fig2.csv``..``fig7.csv`` (``figure`` output), ``optpower*.csv.gz``
(the ``optpower`` sweeps of ``analytic``), ``field_sweeps.json``
(the long-frame multi-beacon sweeps of ``analytic``) and
``mc_pool.json`` (the Monte Carlo inputs of ``mc_validate``). A 3-sigma
check fails by chance for about one seed in seventy, so ``mc_pool.json``
keeps the first candidates on which ``validate`` and the ``pes`` row pass,
and lists the rejected ones with the reason.
"""

from __future__ import annotations

import gzip
import json
import random
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import wplink.cli as cli  # noqa: E402

from worker import run_cli  # noqa: E402
from workloads import (  # noqa: E402
    FIELD_CANDIDATES,
    MC_PES_HEADER,
    MC_PES_N,
    MC_TRIALS,
    OPTPOWER_SWEEPS,
    REF,
    csv_check,
    field_sweep_argv,
    mc_pes_argv,
    mc_row,
    optpower_argv,
    read_csv,
    validate_check,
)

MC_POOL_SIZE = 16


def capture_figures() -> None:
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7"):
            rc, _ = run_cli(cli, ("figure", name, "--out", tmp))
            assert rc == 0, (name, rc)
            (REF / f"{name}.csv").write_bytes((Path(tmp) / f"{name}.csv").read_bytes())


def capture_optpower_sweeps() -> None:
    for index in range(len(OPTPOWER_SWEEPS)):
        rc, text = run_cli(cli, optpower_argv(index))
        assert rc == 0, (index, rc)
        (REF / f"optpower{index}.csv.gz").write_bytes(gzip.compress(text.encode(), mtime=0))


def capture_field_sweeps() -> None:
    pool = []
    for m, pt, density in FIELD_CANDIDATES:
        rc, text = run_cli(cli, field_sweep_argv(m, pt, density))
        header, rows = read_csv(text)
        assert rc == 0 and header == ["n", "pes"], (m, pt, density, rc)
        pes = [float(r[1]) for r in rows]
        print(f"field m={m} pt={pt} lambda={density}: pes {pes}", flush=True)
        if all(0.05 <= p <= 0.995 for p in pes):
            pool.append({"m": m, "pt": pt, "lambda": density, "rows": rows})
    (REF / "field_sweeps.json").write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")


def capture_mc_pool() -> None:
    accepted, rejected = [], []
    k = 0
    while len(accepted) < MC_POOL_SIZE:
        rng = random.Random(f"mc-{k}")
        k += 1
        m = rng.randint(100, 1000)
        target = rng.uniform(0.2, 0.8)  # single-beacon supply probability of the pes row
        a = round((m / 2.0) * (target ** (-2.0 / MC_PES_N) - 1.0), 6)
        entry = {"seed": rng.randrange(2 ** 32), "m": m, "a": a}
        rc, text = run_cli(cli, ("validate", "--mc-trials", str(MC_TRIALS), "--seed", str(entry["seed"])))
        if validate_check(rc, text).failed:
            rejected.append(dict(entry, reason=f"validate exit {rc}: " + text.replace("\n", "; ")))
            continue
        rc, text = run_cli(cli, mc_pes_argv(entry, MC_TRIALS))
        if csv_check(MC_PES_HEADER, [mc_row(entry, MC_TRIALS)])(rc, text).failed:
            rejected.append(dict(entry, reason="pes row outside 3 sigma: " + text.replace("\n", "; ")))
            continue
        accepted.append(entry)
        print(f"mc accepted {entry}", flush=True)
    (REF / "mc_pool.json").write_text(
        json.dumps({"accepted": accepted, "rejected": rejected}, indent=1) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    REF.mkdir(exist_ok=True)
    capture_figures()
    capture_optpower_sweeps()
    capture_field_sweeps()
    capture_mc_pool()
