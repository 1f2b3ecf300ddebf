# CLI surface tests: argument handling, CSV conventions, figures, and the
# validation run. Most cases drive main() in-process; one subprocess test
# covers the module entry point.

import hashlib
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from wplink import multi_pb, single_pb
from wplink.cli import main


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


def test_out_writes_csv_file(tmp_path, capsys):
    target = tmp_path / "pes.csv"
    code, out, _ = run_cli(
        capsys, "pes", "-m", "2", "-n", "2", "-a", "1.0", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "m,n,a,pes\n2,2,1,0.5\n"


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
    ],
    ids=["optpower-pe-inf", "optpower-budget-overflow", "optpower-bracket-underflow",
         "validate-1-trial",
         "validate-0-trials", "pes-0-trials"],
)
def test_out_of_range_input_is_one_error_line(capsys, argv, message):
    # these printed nan, ran 20 000 trials or dropped the MC columns
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")


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


README = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


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
