# CLI surface tests: argument handling, CSV conventions, figures, and the
# validation run. Most cases drive main() in-process; one subprocess test
# covers the module entry point.

import contextlib
import hashlib
import io
import itertools
import math
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from wplink import cli, multi_pb, single_pb
from wplink.cli import main

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows(out):
    lines = out.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ----------------------------------------------------------------
# pes


def test_pes_exact_half(capsys):
    code, out, _ = run_cli(capsys, "pes", "-m", "2", "-n", "2", "-a", "1.0")
    assert code == 0
    header, body = rows(out)
    assert header == ["m", "n", "a", "pes"]
    assert body == [["2", "2", "1", "0.5"]]


def test_pes_matches_library(capsys):
    _, out, _ = run_cli(capsys, "pes", "-m", "100", "-n", "50", "-a", "0.1")
    _, body = rows(out)
    assert float(body[0][3]) == pytest.approx(
        single_pb.energy_supply_prob(100, 50, 0.1), rel=1e-12
    )


def test_pes_infers_ratio_from_powers(capsys):
    _, out, _ = run_cli(capsys, "pes", "-m", "100", "-n", "50", "--pt", "0.3", "--pe", "3.0")
    _, body = rows(out)
    assert float(body[0][2]) == pytest.approx(0.1, rel=1e-12)


def test_pes_multi_mode(capsys):
    code, out, _ = run_cli(
        capsys, "pes", "--mode", "multi", "-m", "1500", "-n", "1000",
        "--pt", "1", "--lambda", "1e-3", "--ppb", "1e3",
    )
    assert code == 0
    header, body = rows(out)
    assert header == ["m", "n", "pt", "pes"]
    net = multi_pb.NetworkParams(density=1e-3, p_pb=1e3)
    assert float(body[0][3]) == pytest.approx(
        multi_pb.energy_supply_prob_mp(1500, 1000, 1.0, net), rel=1e-11
    )


def count_series(monkeypatch):
    """Outage-series passes from here on."""
    calls = []
    series = multi_pb._outage_series
    monkeypatch.setattr(
        multi_pb, "_outage_series", lambda *args: calls.append(args) or series(*args)
    )
    return calls


# (m, pt, field) of a field n sweep, and the n each grid evaluates: odd grid
# values round up, and a repeated n repeats its row.
N_SWEEP_POINTS = {
    "m1500-lambda1e-3": ["-m", "1500", "--pt", "1", "--lambda", "1e-3", "--ppb", "1e3"],
    "m100-mu0.5": ["-m", "100", "--pt", "10", "--lambda", "5e-3", "--ppb", "1e3", "--mu", "0.5"],
    "m200-eta2.5": ["-m", "200", "--pt", "1", "--lambda", "1e-2", "--ppb", "100", "--eta", "2.5"],
}
N_SWEEP_GRIDS = {
    "n:1:9:5": [2, 4, 6, 8, 10],
    "n:1000:1002:5": [1000, 1000, 1002, 1002, 1002],
    "n:99:301:3": [100, 200, 302],
    "n:2000:8000:4": [2000, 4000, 6000, 8000],
}


@pytest.mark.parametrize("point", N_SWEEP_POINTS.values(), ids=N_SWEEP_POINTS.keys())
@pytest.mark.parametrize("grid", N_SWEEP_GRIDS)
def test_field_n_sweep_rows_print_as_single_rows(monkeypatch, capsys, point, grid):
    # one outage-series pass serves the whole grid, and each row prints the
    # bytes of the one-row command at its n
    head = ["pes", "--mode", "multi", *point]
    calls = count_series(monkeypatch)
    code, out, _ = run_cli(capsys, *head, "--sweep", grid)
    assert code == 0 and len(calls) == 1
    _, body = rows(out)
    assert len(body) == len(N_SWEEP_GRIDS[grid])
    for n, row in zip(N_SWEEP_GRIDS[grid], body):
        _, single, _ = run_cli(capsys, *head, "-n", str(n))
        assert row[1] == rows(single)[1][0][3], (grid, n)


def test_fig7_threshold_solves_start_warm(monkeypatch, tmp_path):
    # every threshold solve after fig7's first starts from the u*/(n/2) of
    # the one before: 36 series evaluations where cold starts took 60
    calls = count_series(monkeypatch)
    assert main(["figure", "fig7", "--out", str(tmp_path)]) == 0
    assert len(calls) <= 36


def test_pes_monte_carlo_columns(capsys):
    code, out, _ = run_cli(
        capsys, "pes", "-m", "100", "-n", "50", "-a", "0.1", "--mc-trials", "2000"
    )
    assert code == 0
    header, body = rows(out)
    assert header[-2:] == ["pes_mc", "pes_mc_stderr"]
    exact = float(body[0][3])
    mc, se = float(body[0][4]), float(body[0][5])
    assert abs(mc - exact) < 5.0 * se


def test_sweep_grid(capsys):
    code, out, _ = run_cli(
        capsys, "pes", "-m", "100", "-n", "50", "--sweep", "a:0.01:1:21"
    )
    assert code == 0
    header, body = rows(out)
    assert header == ["a", "pes"]
    assert len(body) == 21
    assert float(body[0][0]) == 0.01 and float(body[-1][0]) == 1.0
    values = [float(r[1]) for r in body]
    assert values == sorted(values, reverse=True)


def test_sweep_over_n_rounds_odd_values_up(capsys):
    # grid 2, 26.5, 51, 75.5, 100: rounded to the nearest integer, then an
    # odd n moves up one slot, so the rows hold n = 2, 26, 52, 76, 100
    code, out, _ = run_cli(capsys, "pes", "-m", "100", "-a", "0.1", "--sweep", "n:2:100:5")
    assert code == 0
    header, body = rows(out)
    assert header == ["n", "pes"]
    assert [float(r[0]) for r in body] == [2.0, 26.5, 51.0, 75.5, 100.0]
    for row, n in zip(body, (2, 26, 52, 76, 100)):
        assert float(row[1]) == pytest.approx(
            single_pb.energy_supply_prob(100, n, 0.1), rel=1e-11
        )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pes", "-m", "100", "-a", "0.1", "--sweep", "n:-10:2:3"],
         "transmit blocklength n must be an even integer >= 2, got -10"),
        (["pes", "-n", "4", "-a", "0.1", "--sweep", "m:-5:5:3"],
         "harvest blocklength m must be an integer >= 1, got -5"),
    ],
    ids=["n-below-2", "m-below-1"],
)
def test_count_sweep_below_domain_is_one_error_line(capsys, argv, message):
    # these rows were evaluated at the clamped counts n = 2 and m = 1
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "-a", "1", "--eps", "0.05", "--sweep", "mu:2:inf:3"],
        ["pes", "-m", "100", "-n", "50", "-a", "0.1", "--sweep", "eta:1:inf:3"],
        ["pes", "-m", "100", "-n", "50", "--sweep", "a:0:inf:3"],
        ["pes", "-m", "100", "-n", "50", "-a", "0.1", "--sweep", "pe:-inf:1:3"],
        ["pes", "-m", "100", "-n", "50", "--sweep", "a:nan:1:3"],
        ["rate", "--eps", "0.05", "--pe", "100", "--sweep", "pt:inf:inf:1"],
        ["pes", "-m", "100", "-a", "0.1", "--sweep", "n:2:inf:3:log"],
    ],
    ids=["mu-ignored", "eta-ignored", "a", "minus-inf", "nan", "one-point", "log"],
)
def test_sweep_with_a_non_finite_end_is_one_error_line(capsys, argv):
    # the first two printed lead cells nan, inf, inf with exit 0, and the
    # third failed with "power ratio a must be >= 0, got nan", a value no
    # flag gave
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: sweep {argv[-1]!r} needs a finite START and STOP\n"


def test_sweep_log_spacing(capsys):
    _, out, _ = run_cli(
        capsys, "pes", "-m", "100", "-n", "50", "--sweep", "a:0.01:1:3:log"
    )
    _, body = rows(out)
    assert [float(r[0]) for r in body] == pytest.approx([0.01, 0.1, 1.0], rel=1e-9)


# ----------------------------------------------------------------
# rate and optpower


def test_rate_row_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "rate", "-m", "99", "-n", "2026", "-a", "0.0012",
        "--pe", "100", "--eps", "0.05",
    )
    assert code == 0
    header, body = rows(out)
    assert header == ["m", "n", "a", "rate_bits", "rate_bits_asymptotic", "feasible"]
    plan = single_pb.BlocklengthPlan(m=99, n=2026, epsilon=0.05)
    link = single_pb.LinkParams(p_t=0.12, p_e=100.0)
    expected = single_pb.achievable_rate_fbl(plan, link)
    assert float(body[0][3]) == pytest.approx(expected.rate_bits, rel=1e-11)
    assert body[0][5] == "true"


@pytest.mark.parametrize(
    "argv",
    [
        ["-a", "0.001"],
        ["-m", "100", "-a", "0.001"],
        ["--mode", "multi", "--pt", "1", "--lambda", "5e-3", "--ppb", "1e3"],
        ["--mode", "multi", "-m", "9000", "--pt", "1", "--lambda", "5e-3", "--ppb", "1e3"],
    ],
    ids=["single", "single-with-m", "multi", "multi-with-m"],
)
def test_rate_odd_n_is_domain_error(capsys, argv):
    # with -m given, an odd -n was rounded up by BlocklengthPlan while the
    # row still printed the odd n
    code, out, err = run_cli(capsys, "rate", "--eps", "0.05", "-n", "2027", *argv)
    assert code == 3
    assert out == ""
    assert err == "error: transmit blocklength n must be an even integer >= 2, got 2027\n"


def test_rate_infeasible_row_has_empty_rate(capsys):
    _, out, _ = run_cli(
        capsys, "rate", "-m", "10", "-n", "2026", "-a", "0.0012",
        "--pe", "100", "--eps", "0.05",
    )
    _, body = rows(out)
    assert body[0][5] == "false"
    assert body[0][3] == ""


def test_optpower_reference_point(capsys):
    code, out, _ = run_cli(capsys, "optpower", "--eps", "1e-3", "--pe", "1000")
    assert code == 0
    header, body = rows(out)
    assert header == [
        "pt_asym", "pt_fbl", "a_asym", "a_fbl",
        "rate_bits_at_pt_asym", "rate_bits_at_pt_fbl",
    ]
    assert float(body[0][0]) == pytest.approx(1.1554, abs=1e-3)
    assert float(body[0][5]) >= float(body[0][4])


# ----------------------------------------------------------------
# plan


def test_plan_minimum_latency_row(capsys):
    code, out, _ = run_cli(capsys, "plan", "--eps", "0.05", "-a", "0.0012")
    assert code == 0
    header, body = rows(out)
    assert header == ["n_min", "m_min", "overhead", "total"]
    assert body == [["2026", "99", "1.048", "2125"]]


def test_plan_zero_ratio(capsys):
    _, out, _ = run_cli(capsys, "plan", "--eps", "0.05", "-a", "0")
    _, body = rows(out)
    assert body == [["2026", "0", "1", "2026"]]


# ----------------------------------------------------------------
# figure


def test_figure_fig6_outputs(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "figure", "fig6", "--out", str(tmp_path), "--svg"
    )
    assert code == 0
    csv_path = tmp_path / "fig6.csv"
    svg_path = tmp_path / "fig6.svg"
    assert csv_path.exists() and svg_path.exists()
    lines = csv_path.read_text().split("\n")
    header = lines[0].split(",")
    assert header == ["k", "mean_harvested", "pes_density_scaled", "pes_power_scaled"]
    body = [line.split(",") for line in lines[1:] if line]
    assert len(body) == 19  # k = 1, 1.5, ..., 10
    for row in body:
        assert float(row[2]) >= float(row[3]) - 1e-12
    assert svg_path.read_text().lstrip().startswith("<svg")


def test_figure_requires_known_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "fig99"])
    assert exc.value.code == 2


# ----------------------------------------------------------------
# validate


def test_validate_passes(capsys):
    code, out, _ = run_cli(capsys, "validate", "--mc-trials", "5000")
    assert code == 0
    assert "7/7 checks passed" in out
    assert "FAIL" not in out


# ----------------------------------------------------------------
# config file and precedence


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "link.cfg"
    cfg.write_text("m = 2\nn = 2\na = 1.0\n")
    _, out, _ = run_cli(capsys, "pes", "--config", str(cfg))
    _, body = rows(out)
    assert body == [["2", "2", "1", "0.5"]]


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "link.cfg"
    cfg.write_text("m = 2\nn = 2\na = 1.0\n")
    _, out, _ = run_cli(capsys, "pes", "--config", str(cfg), "-a", "0")
    _, body = rows(out)
    assert body == [["2", "2", "0", "1"]]


FIELD = ["--mode", "multi", "--pt", "1", "--lambda", "1e-3", "--ppb", "1e3"]
MULTI_PES = ["pes", "-m", "1500", "-n", "1000", "--pt", "1"]
# (command without the key, value) for each config key; each value differs
# from the key's default, so that a key read but not applied would show.
CONFIG_CASES = {
    "mode": (MULTI_PES + ["--lambda", "1e-3", "--ppb", "1e3"], "multi"),
    "pt": (["pes", "-m", "100", "-n", "50", "--pe", "10"], "1"),
    "pe": (["pes", "-m", "100", "-n", "50", "--pt", "1"], "10"),
    "sigma2": (["rate", "--eps", "0.05", "--pe", "100", "--pt", "0.12"], "2"),
    "eps": (["rate", "--pe", "100", "--pt", "0.12"], "0.05"),
    "a": (["pes", "-m", "100", "-n", "50"], "0.1"),
    "m": (["pes", "-n", "50", "-a", "0.1"], "100"),
    "n": (["pes", "-m", "100", "-a", "0.1"], "50"),
    "lambda": (MULTI_PES + ["--mode", "multi", "--ppb", "1e3"], "1e-3"),
    "ppb": (MULTI_PES + ["--mode", "multi", "--lambda", "1e-3"], "1e3"),
    "mu": (MULTI_PES + FIELD, "0.5"),
    "eta": (MULTI_PES + FIELD, "3"),
    "mc_trials": (["pes", "-m", "100", "-n", "50", "-a", "0.1"], "500"),
    "seed": (["pes", "-m", "100", "-n", "50", "-a", "0.1", "--mc-trials", "500"], "3"),
    "sweep": (["pes", "-m", "100", "-n", "50"], "a:0.01:1:5:log"),
}


def readme_config_keys():
    text = re.search(r"keys\s+match the flag\s+names \((.*?)\)", README, re.S).group(1)
    return re.findall(r"`(\w+)`", text)


def test_readme_lists_every_config_key():
    assert sorted(readme_config_keys()) == sorted(cli._CONFIG_KEYS) == sorted(CONFIG_CASES)


@pytest.mark.parametrize("key", readme_config_keys())
def test_config_key_acts_as_its_flag(tmp_path, capsys, key):
    base, value = CONFIG_CASES[key]
    flag = f"-{key}" if len(key) == 1 else "--" + key.replace("_", "-")
    cfg = tmp_path / "key.cfg"
    cfg.write_text(f"{key} = {value}\n")
    by_flag = run_cli(capsys, *base, f"{flag}={value}")
    assert by_flag[0] == 0, by_flag
    assert run_cli(capsys, *base, "--config", str(cfg)) == by_flag
    assert run_cli(capsys, *base)[:2] != by_flag[:2]


@pytest.mark.parametrize("key", ["out", "config"])
def test_path_flags_are_not_config_keys(tmp_path, capsys, key):
    cfg = tmp_path / "key.cfg"
    cfg.write_text(f"{key} = other\n")
    code, out, err = run_cli(capsys, "pes", "-m", "2", "-n", "2", "-a", "1", "--config", str(cfg))
    assert code == 3 and out == ""
    assert err == f"error: {cfg}:1: unknown config key {key!r}\n"


def test_out_writes_csv_file(tmp_path, capsys):
    target = tmp_path / "pes.csv"
    code, out, _ = run_cli(
        capsys, "pes", "-m", "2", "-n", "2", "-a", "1.0", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "m,n,a,pes\n2,2,1,0.5\n"


# One row of each subcommand in both modes, with and without Monte Carlo
# columns, and sweeps.
TABLES = {
    "pes-single": ["pes", "-m", "100", "-n", "50", "-a", "0.1", "--mc-trials", "500"],
    "pes-multi": ["pes", "-m", "1500", "-n", "1000", *FIELD, "--mc-trials", "500"],
    "rate-single": ["rate", "--eps", "0.05", "--pe", "100", "--pt", "0.12"],
    "rate-multi": ["rate", "-n", "50", "--eps", "0.5", *FIELD],
    "rate-infeasible": ["rate", "--eps", "0.05", "--pe", "100", "--pt", "0.12", "-m", "1"],
    "optpower": ["optpower", "--eps", "0.05", "--pe", "100"],
    "plan-single": ["plan", "--eps", "0.05", "-a", "0.0012"],
    "plan-multi": ["plan", "--eps", "0.05", *FIELD],
    "pes-sweep": ["pes", "-m", "100", "-n", "50", "--sweep", "a:0.01:1:5:log"],
    "rate-sweep": ["rate", "--eps", "0.05", *FIELD, "--sweep", "pt:0.1:10:3:log"],
}
FIGURES = ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7"]


def test_no_table_cell_needs_quoting(tmp_path, monkeypatch, capsys):
    # cli._emit joins cells with bare commas; that is valid CSV only while no
    # header or cell holds a comma, a quote or a line break, and no table has
    # a single column (csv quotes a lone empty field as "")
    tables = []
    real_emit = cli._emit

    def spy(header, columns, out_path):
        tables.append((list(header), [[cli._fmt(v) for v in row] for row in zip(*columns)]))
        real_emit(header, columns, out_path)

    monkeypatch.setattr(cli, "_emit", spy)
    argvs = list(TABLES.values()) + [["figure", f, "--out", str(tmp_path)] for f in FIGURES]
    for argv in argvs:
        tables.clear()
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert len(tables) == 1, argv
        header, body = tables[0]
        assert len(header) >= 2 and body, argv
        for cells in [header] + body:
            assert len(cells) == len(header), (argv, cells)
            bad = [c for c in cells if any(ch in c for ch in ',"\r\n')]
            assert not bad, (argv, bad)


@pytest.mark.parametrize("argv", TABLES.values(), ids=TABLES.keys())
def test_out_file_bytes_equal_stdout(tmp_path, capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    target = tmp_path / "table.csv"
    code, quiet, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and quiet == ""
    assert target.read_bytes() == out.encode("utf-8")


# ----------------------------------------------------------------
# exit statuses and determinism


def test_missing_required_inputs_exit_3(capsys):
    code, _, err = run_cli(capsys, "pes", "-n", "4", "-a", "0.1")
    assert code == 3
    assert err.startswith("error:")


def test_domain_error_exit_3(capsys):
    code, _, err = run_cli(capsys, "pes", "-m", "10", "-n", "3", "-a", "0.1")
    assert code == 3
    assert "error:" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pes", "--no-such-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command", ["", "pes", "rate", "optpower", "plan", "figure", "validate"]
)
def test_help_exits_0(capsys, command):
    # argparse formats a help string only on request, so a stray % in one
    # passes every other test
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: wplink")


# The usage paragraph of each subcommand at 80 columns, as the hand-written
# parser printed it before the flags were built from cli._CONFIG_KEYS: the
# flags' order, names, metavars and choices.
USAGE_COMMON = [
    "[-h] [--mode {single,multi}] [--pt PT] [--pe PE]",
    "[--sigma2 SIGMA2] [--eps EPS] [-m M] [-n N] [-a A]",
    "[--lambda DENSITY] [--ppb PPB] [--mu MU] [--eta ETA]",
    "[--mc-trials MC_TRIALS] [--seed SEED] [--config CONFIG]",
]
USAGE_SWEEPABLE = ["[--out OUT] [--sweep VAR:START:STOP:POINTS[:log]]"]
USAGE_TAIL = {
    "pes": USAGE_SWEEPABLE,
    "rate": USAGE_SWEEPABLE,
    "optpower": USAGE_SWEEPABLE,
    "plan": USAGE_SWEEPABLE,
    "figure": ["[--out OUT] [--svg]", "{fig2,fig3,fig4,fig5,fig6,fig7}"],
    "validate": ["[--out OUT]"],
}


@pytest.mark.parametrize("command", USAGE_TAIL)
def test_usage_lists_the_flags_in_order(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    head = f"usage: wplink {command} "
    assert usage == head + ("\n" + " " * len(head)).join(USAGE_COMMON + USAGE_TAIL[command])


@pytest.mark.parametrize(
    "value", ["inf", "nan", "2.5", "1" + "0" * 400], ids=["inf", "nan", "2.5", "1e400"]
)
def test_non_integer_count_is_usage_error(capsys, value):
    # an infinite count used to escape as an OverflowError traceback, and an
    # integer beyond the double range reached exit 3 only through a
    # catch-all for OverflowError
    with pytest.raises(SystemExit) as exc:
        main(["pes", "-m", value, "-n", "4", "-a", "0.1"])
    assert exc.value.code == 2
    assert "expected an integer" in capsys.readouterr().err


def test_infinite_power_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "pes", "--mode", "multi", "-m", "10", "-n", "4",
        "--pt", "inf", "--lambda", "1e-3", "--ppb", "1e3",
    )
    assert code == 3
    assert err.startswith("error: p_t must be finite")


def test_zero_harvested_power_is_domain_error(capsys):
    # --pe 0 used to divide by zero while resolving the power point
    code, _, err = run_cli(capsys, "rate", "--eps", "0.05", "--pe", "0", "--pt", "1")
    assert code == 3
    assert err == "error: p_e must be > 0, got 0.0\n"


FIELD_MC = ["pes", "--mode", "multi", "-m", "100", "-n", "10", "--pt", "1",
            "--lambda", "1e-3", "--ppb", "1e3"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["optpower", "--eps", "0.5", "--pe", "inf"], "power budget"),
        (["optpower", "--eps", "0.5", "--pe", "1e300", "--sigma2", "1e-300"], "power budget"),
        (["optpower", "--eps", "0.05", "--pe", "1e-320"], "p_e=1e-320 is too small"),
        (["validate", "--mc-trials", "1"], "trials must be an integer >= 2"),
        (["validate", "--mc-trials", "0"], "trials must be an integer >= 2"),
        (["pes", "-m", "100", "-n", "50", "-a", "0.1", "--mc-trials", "0"],
         "trials must be an integer >= 1"),
        (FIELD_MC + ["--lambda", "1e20", "--mc-trials", "1"], "field too dense to sample"),
        (FIELD_MC + ["--lambda", "1e100", "--mc-trials", "10"], "field too dense to sample"),
        (FIELD_MC + ["--lambda", "1e4", "--mc-trials", "100000"], "field too dense to sample"),
    ],
    ids=["optpower-pe-inf", "optpower-budget-overflow", "optpower-bracket-underflow",
         "validate-1-trial",
         "validate-0-trials", "pes-0-trials",
         "field-poisson-overflow", "field-dense", "field-block-too-large"],
)
def test_out_of_range_input_is_one_error_line(capsys, argv, message):
    # these printed nan, ran 20 000 trials, dropped the MC columns, raised
    # from the field sampler or tried a multi-GB allocation
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")


@pytest.mark.parametrize("command", [["pes", "-m", "100"], ["rate", "--eps", "0.05"]],
                         ids=["pes", "rate"])
def test_odd_n_past_2_53_is_one_error_line(capsys, command):
    # the odd 2**53 + 1 rounds to the even 2**53 as a double, which a
    # single-mode batch's count mask once took as exact: the row printed
    code, out, err = run_cli(capsys, *command, "-n", str(2 ** 53 + 1), "-a", "0.1")
    assert (code, out) == (3, "")
    assert err == (
        f"error: transmit blocklength n must be an even integer >= 2, got {2 ** 53 + 1}\n")


def test_harvest_length_past_2_53_prints_exactly(capsys):
    # a given -m of 2**53 + 1 printed as 2**53, its double
    code, out, _ = run_cli(capsys, "rate", "-m", str(2 ** 53 + 1), "-n", "50",
                           "--eps", "0.05", "-a", "0.1")
    assert code == 0
    assert out.splitlines()[1].startswith(f"{2 ** 53 + 1},50,0.1,")


def test_optpower_harvest_floor_overflow_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "optpower", "--pe", "1e300", "--eps", "1e-300")
    assert code == 3
    assert out == ""
    assert err == (
        "error: harvest floor overflows for n=3650388678900, "
        "a=3.5349811050300166e-05, eps=1e-300\n"
    )


def test_optpower_sweep_output_is_pinned(capsys):
    # SHA-256 of the 201 lines captured from the optimiser that re-planned
    # each probe through the public API: the search and its probes are
    # unchanged to the last printed digit
    code, out, _ = run_cli(capsys, "optpower", "--eps", "0.05", "--sweep", "pe:100:10000:200:log")
    assert code == 0
    assert len(out.splitlines()) == 201
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "fe84bae860698ffc7d9c0e3dfca80c4f73028be835081e54ab56392b1d9bb7ad"


def test_rate_at_zero_power_needs_no_harvest(capsys):
    code, out, _ = run_cli(capsys, "rate", "--eps", "0.05", "--pe", "100", "--pt", "0")
    assert code == 0
    assert rows(out)[1] == [["0", "2026", "0", "0", "0", "true"]]


@pytest.mark.parametrize(
    "argv",
    [
        ["pes", "-m", "2", "-n", "2", "-a", "1", "--config", "missing.cfg"],
        ["pes", "-m", "2", "-n", "2", "-a", "1", "--out", "missing/pes.csv"],
    ],
    ids=["config", "out"],
)
def test_unusable_path_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_config_count_uses_integer_rule(tmp_path, capsys):
    # m = 2.5 used to run silently as m = 2
    cfg = tmp_path / "link.cfg"
    cfg.write_text("m = 2.5\nn = 2\na = 1.0\n")
    code, out, err = run_cli(capsys, "pes", "--config", str(cfg))
    assert code == 3
    assert out == ""
    assert "bad value for m" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["pes", "-m", "100", "-n", "50", "--sweep", "a:-1e308:1e308:3"],
        ["plan", "--eps", "0.05", "--sweep", "a:-1e308:1e308:3"],
        ["optpower", "--eps", "0.05", "--sweep", "pe:-1e308:1e308:3"],
    ],
    ids=["pes", "plan", "optpower"],
)
def test_sweep_whose_span_overflows_is_one_error_line(capsys, argv):
    # the step (STOP - START)/(POINTS - 1) was inf, so the first point was
    # NaN: pes and plan failed with "power ratio a must be >= 0, got nan",
    # optpower with "p_e must be > 0, got nan", values no flag gave
    code, out, err = run_cli(capsys, *argv)
    message = f"sweep {argv[-1]!r} spans more than the double range: STOP - START overflows"
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("spec", ["a:x:1:3", "a:0.1:1:5.0"])
def test_malformed_sweep_names_the_sweep(capsys, spec):
    code, _, err = run_cli(capsys, "pes", "-m", "100", "-n", "50", "--sweep", spec)
    assert code == 3
    assert err.startswith(f"error: sweep {spec!r}")


# Each flag is set to each hostile value in turn on a valid base command.
# Values go in as --flag=value, so that argparse reads -inf as a value.
HOSTILE_BASES = {
    "pes-single": ["pes", "-m", "100", "-n", "50", "-a", "0.1"],
    "pes-multi": ["pes", "--mode", "multi", "-m", "100", "-n", "50", "--pt", "1",
                  "--lambda", "1e-3", "--ppb", "1e3"],
    "rate-single": ["rate", "--eps", "0.05", "--pe", "100", "--pt", "0.12"],
    "rate-multi": ["rate", "--mode", "multi", "-n", "50", "--eps", "0.5", "--pt", "1",
                   "--lambda", "1e-3", "--ppb", "1e3"],
    "optpower": ["optpower", "--eps", "0.05", "--pe", "100"],
    "plan-single": ["plan", "--eps", "0.05", "-a", "0.0012"],
    "plan-multi": ["plan", "--mode", "multi", "--eps", "0.5", "--pt", "1",
                   "--lambda", "1e-3", "--ppb", "1e3"],
}
HOSTILE_FLAGS = ["--pt", "--pe", "--sigma2", "--eps", "-m", "-n", "-a",
                 "--lambda", "--ppb", "--mu", "--eta"]
HOSTILE_VALUES = ["0", "-1", "inf", "-inf", "nan", "1e308", "1e-308", "1e-300", "1", "3"]


@pytest.mark.parametrize("flag", HOSTILE_FLAGS)
@pytest.mark.parametrize("base", HOSTILE_BASES)
def test_hostile_flag_values_exit_cleanly(capsys, base, flag):
    failures = []
    for value in HOSTILE_VALUES:
        argv = HOSTILE_BASES[base] + [f"{flag}={value}"]
        try:
            code, out, err = run_cli(capsys, *argv)
        except SystemExit as exc:  # argparse: usage error
            code, out, err = exc.code, "", capsys.readouterr().err
        except Exception as exc:  # noqa: BLE001 - any escape is the failure
            failures.append(f"{value}: {type(exc).__name__}: {exc}")
            continue
        lines = err.splitlines()
        if code not in (0, 2, 3) or (
            code == 3 and not (len(lines) == 1 and lines[0].startswith("error:"))
        ):
            failures.append(f"{value}: exit {code}, stderr {err!r}")
        elif code == 0 and any("nan" in cell.lower() for row in rows(out)[1] for cell in row):
            failures.append(f"{value}: exit 0 with a NaN cell in {out!r}")
    assert not failures, failures


def test_dense_field_is_certain_supply(capsys):
    dense = ["--mode", "multi", "--pt", "1", "--lambda", "1e100", "--ppb", "1e3"]
    code, out, _ = run_cli(capsys, "pes", "-m", "100", "-n", "50", *dense)
    assert code == 0 and rows(out)[1] == [["100", "50", "1", "1"]]
    code, out, _ = run_cli(capsys, "plan", "--eps", "0.5", *dense)
    assert code == 0 and rows(out)[1][0][1] == "1"


def test_inconsistent_powers_rejected(capsys):
    code, _, err = run_cli(
        capsys, "pes", "-m", "2", "-n", "2", "-a", "1.0", "--pt", "3", "--pe", "1"
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        ("rate -n 2026 --pt 1e300 --pe 1e300 --sigma2 1e-300 --eps 0.05",
         "SNR p_t/sigma2 must be finite and >= 0, got inf"),
        ("rate --mode multi -n 2026 --pt 1e-3 --sigma2 1e-320 --lambda 1e-3 --ppb 1e3 --eps 0.05",
         "SNR p_t/sigma2 must be finite and >= 0, got inf"),
        ("rate -m 100 -n 2026 -a 1e300 --pe 1e10 --eps 0.05",
         "p_t must be finite and >= 0, got inf"),
        ("rate -m 100 -n 2026 -a inf --eps 0.05", "p_t must be finite and >= 0, got inf"),
        ("rate --mode multi -m 100 -n 50 --eps 0.05 --pt inf --lambda 1e-3 --ppb 1e3",
         "p_t must be finite and >= 0, got inf"),
        ("pes -m 2 -n 2 -a 5 --pe inf", "p_e must be finite and > 0, got inf"),
        ("pes -m 2 -n 2 --pt inf --pe 1", "p_t must be finite and >= 0, got inf"),
        ("plan --eps 0.05 -a 0.0012 --pt nan", "p_t must be finite and >= 0, got nan"),
        ("rate -m 100 -n 2026 -a 1 --sigma2 inf --eps 0.05",
         "sigma2 must be finite and > 0, got inf"),
        ("rate -m 100 -n 2026 -a 1 --pe inf --eps 0.05", "p_e must be finite and > 0, got inf"),
        ("pes --mode multi -m 2 -n 2 --pt 1 --lambda 1e-3 --ppb inf",
         "p_pb must be finite and > 0, got inf"),
        ("rate --mode multi -m 200 -n 2026 --pt 1e-3 --sigma2 inf --lambda 1e-3 --ppb 1e3 "
         "--eps 0.05", "sigma2 must be finite and > 0, got inf"),
        ("pes -m 2 -n 2 -a inf --pt 1 --pe 1", "inconsistent flags: a=inf but pt/pe=1.0"),
        ("rate -m 100 -n 2026 -a inf --pt 1 --pe 1 --eps 0.05",
         "inconsistent flags: a=inf but pt/pe=1.0"),
        ("rate -m 100 -n 2026 -a nan --pt 1 --pe 1 --eps 0.05",
         "inconsistent flags: a=nan but pt/pe=1.0"),
    ],
    ids=["single-snr-overflow", "multi-snr-overflow", "single-pt-overflow", "single-a-inf",
         "multi-pt-inf", "single-pe-inf", "single-pt-inf", "single-pt-nan", "single-sigma2-inf",
         "single-derived-pt-inf", "multi-ppb-inf", "multi-sigma2-inf", "pes-a-inf-contradicts",
         "rate-a-inf-contradicts", "rate-a-nan-contradicts"],
)
def test_non_finite_power_is_one_error_line(capsys, argv, message):
    # each printed a row (a NaN rate marked feasible, a NaN asymptotic rate,
    # or a row at an infinite power), or an error naming a value no flag
    # gave; with pt/pe given, a = inf passed the consistency test as
    # inf > inf (and a = nan as nan > x), and rate then ran at pt/pe while
    # pes ran at a
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (3, "", f"error: {message}\n")


COLLIDE = "flags collide: pt={} and a={} give p_e={}, but p_e must be finite and > 0"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("rate -m 100 -n 2026 --pt 1e-300 -a 1e300 --eps 0.05", COLLIDE.format("1e-300", "1e+300", "0.0")),
        ("rate -m 100 -n 2026 --pt 1 -a 1e-320 --eps 0.05", COLLIDE.format("1.0", "1e-320", "inf")),
        ("pes -m 100 -n 2026 --pt 1e-300 -a 1e300", COLLIDE.format("1e-300", "1e+300", "0.0")),
        ("plan --eps 0.05 --pt 1e308 -a 0.5", COLLIDE.format("1e+308", "0.5", "inf")),
        ("pes -m 100 -n 2026 --pe 1e300 -a 1e300", "p_t must be finite and >= 0, got inf"),
    ],
    ids=["rate-pe-underflow", "rate-pe-overflow", "pes-pe-underflow", "plan-pe-overflow",
         "pes-pt-overflow"],
)
def test_derived_power_outside_double_range_is_one_error_line(capsys, argv, message):
    # p_e = pt/a and p_t = a*pe were not checked: rate named a p_e no flag
    # gave ("p_e must be > 0, got 0.0"), and pes and plan printed a row
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "base",
    [["pes", "-m", "100", "-n", "50"], ["rate", "-m", "100", "-n", "50", "--eps", "0.05"],
     ["plan", "--eps", "0.05"]],
    ids=["pes", "rate", "plan"],
)
@pytest.mark.parametrize(
    "a, message",
    [("-1", "power ratio a must be >= 0, got -1.0"),
     ("-1e300", "power ratio a must be >= 0, got -1e+300"),
     ("0", "cannot infer --pe from --pt when a = 0"),
     ("nan", "power ratio a must be >= 0, got nan")],
    ids=["negative", "very-negative", "zero", "nan"],
)
def test_non_positive_ratio_beside_pt_alone_is_one_error_line(capsys, base, a, message):
    # a negative a was answered "cannot infer --pe from --pt when a = 0", and
    # rate answered a NaN a "p_e must be > 0, got nan", a value no flag gave
    code, out, err = run_cli(capsys, *base, "--pt", "1", f"-a={a}")
    assert (code, out, err) == (3, "", f"error: {message}\n")


# The CLI contract over argv drawn from the command grammar: each flag of the
# four row commands absent, ordinary or hostile, given on the command line or
# in a config file, with or without a sweep.
CONTRACT_FLAGS = {
    "--pt": ["1", "0.12", "10"],
    "--pe": ["1", "100", "1000"],
    "-a": ["0.1", "0.0012", "1"],
    "--sigma2": ["1", "0.5"],
    "--eps": ["0.05", "0.5", "0.01"],
    "-m": ["100", "1500"],
    "-n": ["50", "1000", "51"],
    "--lambda": ["1e-3", "5e-3"],
    "--ppb": ["1e3", "100"],
    "--mu": ["1", "0.5"],
    "--eta": ["3.6", "2.5"],
    "--mc-trials": ["20"],
    "--seed": ["0", "7"],
}
CONTRACT_HOSTILE = ["0", "1", "-1", "inf", "-inf", "nan", "1e300", "-1e300", "1e-300", "1e-320"]
CONTRACT_ENDS = ["0", "1", "-1", "0.5", "2", "50", "2026", "inf", "-inf", "nan", "1e300",
                 "-1e308", "1e308", "1e-300", "1e-320"]
# Columns whose cells are probabilities, rates or counts.
PROBABILITY_COLUMNS = {"pes", "pes_mc"}
RATE_COLUMNS = {"rate_bits", "rate_bits_asymptotic", "rate_bits_at_pt_asym", "rate_bits_at_pt_fbl"}
COUNT_MINIMA = {"m": 0, "n": 2, "n_min": 2, "m_min": 0, "total": 2}


@st.composite
def contract_argv(draw):
    """(argv, config file text or None) of one draw: a bare command, or one of
    HOSTILE_BASES' valid rows, with flags added."""
    base = draw(st.sampled_from([None, *HOSTILE_BASES]))
    if base is None:
        argv = [draw(st.sampled_from(["pes", "rate", "optpower", "plan"]))]
        kinds = ["absent", "absent", "ordinary", "ordinary", "ordinary", "hostile"]
    else:
        argv = list(HOSTILE_BASES[base])
        kinds = ["absent"] * 5 + ["ordinary", "hostile"]
    mode = draw(st.sampled_from([None, None, "single", "multi"]))
    settings_ = [("--mode", mode)] if mode else []
    for flag, ordinary in CONTRACT_FLAGS.items():
        kind = draw(st.sampled_from(kinds))
        if kind != "absent":
            settings_.append((flag, draw(st.sampled_from(
                ordinary if kind == "ordinary" else CONTRACT_HOSTILE))))
    config = []
    for flag, value in settings_:
        if draw(st.integers(0, 4)) == 0:
            config.append(f"{flag.lstrip('-').replace('-', '_')} = {value}")
        else:
            argv.append(f"{flag}={value}")
    if draw(st.booleans()):
        var = draw(st.sampled_from(cli._SWEEPABLE))
        start, stop = draw(st.sampled_from(CONTRACT_ENDS)), draw(st.sampled_from(CONTRACT_ENDS))
        points = draw(st.sampled_from(["1", "3", "5"]))
        scale = draw(st.sampled_from(["", ":log"]))
        argv.append(f"--sweep={var}:{start}:{stop}:{points}{scale}")
    return argv, "\n".join(config) + "\n" if config else None


def _run_quietly(argv):
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cell_faults(header, body, lead):
    """Each cell of an exit-0 table that breaks the contract."""
    faults = []
    for row in body:
        for j, (column, cell) in enumerate(zip(header, row)):
            if cell in ("", "true", "false"):
                continue
            value = float(cell)
            ok = math.isfinite(value)
            if column in PROBABILITY_COLUMNS:
                ok = ok and 0.0 <= value <= 1.0
            elif column in RATE_COLUMNS:
                ok = ok and value >= 0.0
            elif column in COUNT_MINIMA and not (lead and j == 0):
                ok = ok and re.fullmatch(r"\d+", cell) and int(cell) >= COUNT_MINIMA[column]
            if not ok:
                faults.append(f"{column}={cell}")
    return faults


@settings(max_examples=400, deadline=None)
@given(draw=contract_argv())
def test_cli_contract_over_drawn_argv(draw):
    # exit 0, 2 or 3 and never a traceback; an exit-0 table holds only empty,
    # true, false or finite cells, with pes in [0, 1], rates >= 0 and counts
    # integers; an exit-3 run prints nothing and one error line
    argv, config = draw
    with tempfile.TemporaryDirectory() as work:
        if config is not None:
            path = pathlib.Path(work, "c.cfg")
            path.write_text(config, encoding="utf-8")
            argv = argv + ["--config", str(path)]
        code, out, err = _run_quietly(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3), (argv, config, code, err)
    if code == 0:
        header, body = rows(out)
        lead = any(arg.startswith("--sweep=") for arg in argv)
        assert not _cell_faults(header, body, lead), (argv, config, out)
    elif code == 3:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), (
            argv, config, err)


def test_huge_monte_carlo_trial_count_is_one_error_line(capsys):
    # 1e300 trials pass the count check (an integer within the double
    # range), then [None] * blocks raises a bare OverflowError
    code, out, err = run_cli(capsys, "pes", "-m", "100", "-n", "50", "-a", "0.1",
                             "--mc-trials", "1e300")
    assert code == 3 and out == "" and err.startswith("error: ")


# Single-mode sweeps against their one-row commands: each flag absent,
# ordinary or hostile, at the odds (absent, ordinary, hostile) of its row
# here; each sweep variable between two ends of its pool, which holds values
# inside and beyond the domain of its checks, so that a failing row can sit
# anywhere in the grid.
SINGLE_SWEEP_FLAGS = {
    "-a": ((3, 2, 1), ["0.1", "0.3", "0", "2"], ["1e-300", "1e300", "-1", "nan", "inf"]),
    "--pt": ((3, 2, 1), ["1", "0.12", "0.7", "0"], ["1e-300", "1e300", "-1", "inf"]),
    "--pe": ((3, 2, 1), ["100", "7", "1"], ["1e-300", "1e300", "0", "-1", "inf"]),
    "--sigma2": ((2, 2, 1), ["1", "0.5"], ["1e-300", "1e300", "0", "-1", "inf", "nan"]),
    "--eps": ((1, 4, 1), ["0.05", "0.5", "0.01"], ["1e-300", "0", "1", "nan"]),
    "-m": ((1, 4, 1), ["100", "1500"], ["0", "-1", "1e300"]),
    "-n": ((1, 4, 1), ["50", "1000"], ["51", "0", "1e300"]),
    "--mc-trials": ((8, 1, 1), ["20"], ["0"]),
}
SINGLE_SWEEP_ENDS = {
    "a": ["-1", "0", "1e-300", "1e-3", "0.1", "10", "1e8", "4e8", "1e300", "1e308"],
    "pt": ["-1", "0", "1e-320", "1e-3", "1", "1e3", "4e8", "1e300", "1e308"],
    "pe": ["-1", "0", "1e-320", "1e-10", "1", "100", "1e297", "4e298", "1e308"],
    "eps": ["-0.5", "0", "1e-300", "1e-3", "0.05", "0.5", "1", "1.5"],
    "m": ["-2", "0", "1", "2", "100", "1e4", "1e16", "1e300"],
    "n": ["-4", "0", "1", "2", "51", "1000", "1e16", "1e300"],
}
IGNORED_ENDS = ["-1", "0", "1", "1e3"]


@st.composite
def single_sweep(draw):
    """(command, flags, sweep variable, sweep spec) of one draw."""
    command = draw(st.sampled_from(["pes", "rate", "plan"]))
    flags = {}
    for flag, (odds, ordinary, hostile) in SINGLE_SWEEP_FLAGS.items():
        kind = draw(st.integers(0, sum(odds) - 1))
        if kind >= odds[0]:
            flags[flag] = draw(st.sampled_from(ordinary if kind < odds[0] + odds[1] else hostile))
    var = draw(st.sampled_from(cli._SWEEPABLE))
    ends = sorted(SINGLE_SWEEP_ENDS.get(var, IGNORED_ENDS), key=float)
    points = draw(st.sampled_from([1, 2, 3, 5, 7]))
    i = draw(st.integers(0, len(ends) - 1 - (points > 1)))
    j = i if points == 1 else draw(st.integers(i + 1, len(ends) - 1))
    log = float(ends[i]) > 0.0 and draw(st.booleans())
    return command, flags, var, f"{var}:{ends[i]}:{ends[j]}:{points}{':log' if log else ''}"


def _flag_of(var):
    return f"-{var}" if len(var) == 1 else f"--{var}"


@contextlib.contextmanager
def _every_row_by_itself():
    """Every single-mode batch evaluates each row by its one-row command."""
    batch = cli._batch
    cli._batch = lambda args, dest, ok, *rest: batch(args, dest, np.zeros_like(ok), *rest)
    try:
        yield
    finally:
        cli._batch = batch


def _prepared(argv):
    """What the command's prepare step hands to cli._run, (lead cells, value
    columns) with every float to the bit, or the type and message of the
    error it raises."""
    args = cli._build_parser().parse_args(argv)
    try:
        cli._finalize(args)
        dest = None if args.sweep is None else cli._CONFIG_KEYS[args.sweep.variable][0]
        return getattr(cli, f"_{argv[0]}_prepare")(args, dest)
    except cli._LIB_ERRORS as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(draw=single_sweep())
def test_single_sweep_rows_print_as_one_row_commands(draw):
    # each row of a single-mode sweep prints the value cells of the one-row
    # command at its grid value (a count rounded, as the sweep rounds it);
    # where a row fails, the sweep prints the error line of its first
    # failing row and nothing else. The batch gives the bits of the scalar
    # path, row by row.
    _check_single_sweep(*draw)


def _check_single_sweep(command, flags, var, spec):
    argv = [command] + [f"{flag}={value}" for flag, value in flags.items()]
    sweep = argv + [f"--sweep={spec}"]
    with _every_row_by_itself():
        by_row = _run_quietly(sweep), _prepared(sweep)
    assert (_run_quietly(sweep), _prepared(sweep)) == by_row, (argv, spec)
    code, out, err = by_row[0]
    dest = cli._CONFIG_KEYS[var][0]
    values = cli._swept(dest, cli._parse_sweep(spec).grid)
    lead = 0 if command == "plan" else 3
    singles = []
    for value in values:
        one = [arg for arg in argv if not arg.startswith(_flag_of(var) + "=")]
        text = str(value) if isinstance(value, int) else repr(value)
        single = _run_quietly(one + [f"{_flag_of(var)}={text}"])
        if single[0] != 0:
            assert (code, out, err) == (single[0], "", single[2]), (argv, spec, value)
            return
        singles.append(rows(single[1])[1][0][lead:])
    assert code == 0, (argv, spec, err)
    header, body = rows(out)
    assert header[0] == var and [row[1:] for row in body] == singles, (argv, spec)


# Long single-mode sweeps over ordinary values: (START:STOP) of each
# variable, and the power flags beside it (the swept one is left out).
LONG_SWEEPS = {"a": "1e-4:10", "pt": "1e-3:100", "pe": "1:1e3", "eps": "1e-4:0.9",
               "m": "1:1e4", "n": "2:1e4"}
LONG_POWERS = [["-a=0.3"], ["-a=0.3", "--pe=7"], ["--pt=0.7", "--pe=7"], ["-a=0.3", "--pt=0.7"]]


@st.composite
def long_sweep(draw):
    """argv of a 257-row single-mode sweep over ordinary values."""
    command = draw(st.sampled_from(["pes", "rate", "plan"]))
    var = draw(st.sampled_from(sorted(LONG_SWEEPS)))
    flags = draw(st.sampled_from(LONG_POWERS)) + [f"--sigma2={draw(st.sampled_from(['1', '3']))}",
                                                  "--eps=0.05"]
    flags += [count for count in ("-m=1500", "-n=1000") if command == "pes" or draw(st.booleans())]
    scale = draw(st.sampled_from(["", ":log"]))
    kept = [flag for flag in flags if not flag.startswith(_flag_of(var) + "=")]
    return [command, *kept, f"--sweep={var}:{LONG_SWEEPS[var]}:257{scale}"]


@settings(max_examples=60, deadline=None)
@given(argv=long_sweep())
def test_single_batch_cells_are_the_scalar_bits(argv):
    # the cells that a single-mode batch hands to the table equal those of
    # every row evaluated by its one-row command, bit for bit: the printed
    # 12 digits could hide a slip in the last bit
    with _every_row_by_itself():
        by_row = _prepared(argv)
    assert _prepared(argv) == by_row, argv


def test_figures_are_their_commands_sweeps():
    # each figure's columns are the cells that prepare hands to the table
    # for the command sweep the figure draws, bit for bit
    eps_column, a_column, rates = cli._FIGURES["fig2"]()[1]
    a_sweep = "a:1e-4:1:61:log"
    for k, eps in enumerate(["0.001", "0.01", "0.1"]):
        rows = slice(61 * k, 61 * (k + 1))
        _, columns = _prepared(["rate", "--pe=100", f"--eps={eps}", f"--sweep={a_sweep}"])
        assert eps_column[rows] == [float(eps)] * 61, eps
        assert a_column[rows] == list(cli._parse_sweep(a_sweep).grid), eps
        assert rates[rows] == list(columns[0]), eps
    pe_sweep = "pe:1e2:1e4:25:log"
    _, (pt_asym, pt_fbl, a_asym, a_fbl, _, _) = _prepared(
        ["optpower", "--eps=0.05", f"--sweep={pe_sweep}"])
    pe_grid = cli._parse_sweep(pe_sweep).grid
    assert cli._FIGURES["fig4"]()[1] == [pe_grid, list(pt_asym), list(pt_fbl)]
    assert cli._FIGURES["fig5"]()[1] == [pe_grid, list(a_asym), list(a_fbl)]
    eps_sweep = "eps:1e-4:0.5:41:log"
    xs, fixed, adapted, asym = cli._FIGURES["fig3"]()[1]
    p_t = single_pb.optimal_power_asymptotic(1e3, 1.0, 1e-3)
    _, columns = _prepared(["rate", f"--pt={p_t!r}", "--pe=1000", f"--sweep={eps_sweep}"])
    assert xs == cli._parse_sweep(eps_sweep).grid and fixed == list(columns[0])
    _, columns = _prepared(["optpower", "--pe=1000", f"--sweep={eps_sweep}"])
    assert adapted == list(columns[4])
    for eps, cell in zip(xs, asym, strict=True):
        p_t = single_pb.optimal_power_asymptotic(1e3, 1.0, eps)
        _, columns = _prepared(["rate", f"--pt={p_t!r}", "--pe=1000", f"--eps={eps!r}"])
        assert cell == columns[1][0], eps


RATIO_COLLIDE = "flags collide: pt=1e+300 and pe=1e-300 give a=inf, but a must be finite"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("pes -m 100 -n 50 -a inf", "p_t must be finite and >= 0, got inf"),
        ("plan --eps 0.05 -a inf", "p_t must be finite and >= 0, got inf"),
        ("rate --eps 0.05 -a inf", "p_t must be finite and >= 0, got inf"),
        ("pes -m 100 -n 50 --pt 1e300 --pe 1e-300", RATIO_COLLIDE),
        ("rate --eps 0.05 --pt 1e300 --pe 1e-300", RATIO_COLLIDE),
        ("plan --eps 0.05 -a inf --pt 1e300 --pe 1e-300", RATIO_COLLIDE),
    ],
    ids=["pes-a-inf", "plan-a-inf", "rate-a-inf-planned", "pes-ratio-overflow",
         "rate-ratio-overflow", "plan-ratio-overflow-matches-a"],
)
def test_infinite_power_ratio_is_one_error_line(capsys, argv, message):
    # pes printed a row with a = inf; rate and plan failed on a harvest floor
    # overflow at a = inf, a value no flag gave where a came from pt/pe
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (3, "", f"error: {message}\n")


# Every power flag of a command over these values, each flag also left out
POWER_VALUES = [None, "0", "1e-300", "1e300", "inf", "nan", "-1"]
POWER_GRID = {
    "pes-single": (["pes", "-m", "100", "-n", "50"], ["-a", "--pt", "--pe"]),
    "rate-single": (["rate", "-m", "100", "-n", "2026", "--eps", "0.05"],
                    ["-a", "--pt", "--pe", "--sigma2"]),
    "rate-single-planned": (["rate", "--eps", "0.05"], ["-a", "--pt", "--pe"]),
    "pes-multi": (["pes", "--mode", "multi", "-m", "100", "-n", "50", "--lambda", "1e-3"],
                  ["--pt", "--ppb"]),
    "rate-multi": (["rate", "--mode", "multi", "-m", "200", "-n", "2026", "--eps", "0.05",
                    "--lambda", "1e-3"], ["--pt", "--ppb", "--sigma2"]),
    "rate-multi-planned": (["rate", "--mode", "multi", "-n", "50", "--eps", "0.5",
                            "--lambda", "1e-3"], ["--pt", "--ppb", "--sigma2"]),
}


@pytest.mark.parametrize("grid", POWER_GRID)
def test_no_power_grid_cell_is_nan(capsys, grid):
    base, flags = POWER_GRID[grid]
    failures = []
    for values in itertools.product(POWER_VALUES, repeat=len(flags)):
        argv = base + [f"{f}={v}" for f, v in zip(flags, values) if v is not None]
        code, out, err = run_cli(capsys, *argv)
        if code == 0:
            if any("nan" in cell for row in rows(out)[1] for cell in row):
                failures.append(f"{argv}: {out!r}")
        elif code != 3 or out or len(err.splitlines()) != 1 or not err.startswith("error:"):
            failures.append(f"{argv}: exit {code}, {err!r}")
    assert not failures, failures


def test_monte_carlo_row_at_huge_power_prints_no_warning():
    # the codeword energy overflows to inf, which the supply count takes as
    # it should; NumPy's overflow RuntimeWarning reached stderr
    argv = ["pes", "-m", "100", "-n", "50", "-a", "1e8", "--pe", "1e300", "--mc-trials", "50"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _run_quietly(argv)
    table = "m,n,a,pes,pes_mc,pes_mc_stderr\n100,50,100000000,2.98019498611e-158,0,0\n"
    assert result == (0, table, "")


def test_monte_carlo_output_is_deterministic(capsys):
    argv = ["pes", "-m", "50", "-n", "20", "-a", "0.2", "--mc-trials", "4000"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wplink.cli", "pes", "-m", "2", "-n", "2", "-a", "1.0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "m,n,a,pes\n2,2,1,0.5\n"


# ----------------------------------------------------------------
# README examples


def readme_examples():
    """(argv, shown stdout lines) of every ``$ wplink ...`` line in the
    README's code blocks; the shown lines run to the next blank or ``$`` line."""
    examples = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README, re.M | re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ wplink "):
                continue
            shown = []
            for follow in lines[i + 1 :]:
                if not follow or follow.startswith("$ "):
                    break
                shown.append(follow)
            examples.append((shlex.split(line[len("$ wplink "):], comments=True), shown))
    return examples


EXAMPLES = readme_examples()


def test_readme_lists_examples():
    assert len(EXAMPLES) == 12


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_reproduces(tmp_path, monkeypatch, capsys, argv, shown):
    config = re.search(r"^```\n(# link\.cfg\n.*?)^```", README, re.M | re.S)
    (tmp_path / "link.cfg").write_text(config.group(1), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if shown:  # the config examples show no output
        assert out.splitlines() == shown
