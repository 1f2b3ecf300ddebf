"""Command-line front end.

Subcommands: ``pes`` (energy supply probability), ``rate`` (finite-frame
achievable rate), ``optpower`` (transmit power optimization), ``plan``
(minimal blocklength planning), ``figure`` (bundled scenario sweeps as CSV,
optionally SVG), ``validate`` (closed-form vs Monte Carlo consistency run).

Output is CSV: UTF-8, comma separated, header row, LF line endings, numbers
at 12 significant digits, booleans as true/false, missing values as empty
cells. Exit codes: 0 success, 2 usage error, 3 domain/numeric error, 4
validation failure.

A config file (``--config``) holds flat ``key=value`` lines; command-line
flags override file values, file values override built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import montecarlo, multi_pb, planner, single_pb
from .single_pb import DomainError

_LN2 = math.log(2.0)

# The package's typed errors, exit 3. Anything else escaping a command is a
# defect in the package and keeps its traceback.
_LIB_ERRORS = (
    DomainError,
    multi_pb.StabilityError,
    single_pb.SearchError,
    single_pb.UnsatisfiableError,
)

# ------------------------------------------------------------ serialization


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def _emit(header, rows, out_path) -> None:
    def write(stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    else:
        write(sys.stdout)


# ------------------------------------------------------------ sweep parsing


@dataclass(frozen=True)
class SweepSpec:
    """A one-variable parameter sweep: variable name plus its grid."""

    variable: str
    grid: tuple[float, ...]


_SWEEPABLE = ("a", "pt", "pe", "eps", "m", "n", "lambda", "ppb", "mu", "eta")


def _log_grid(start: float, stop: float, points: int) -> tuple[float, ...]:
    la, lb = math.log(start), math.log(stop)
    grid = [math.exp(la + i * (lb - la) / (points - 1)) for i in range(points)]
    grid[0], grid[-1] = start, stop
    return tuple(grid)


def _parse_sweep(text: str) -> SweepSpec:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise DomainError(f"sweep must be VAR:START:STOP:POINTS[:log], got {text!r}")
    var = parts[0].strip().lower()
    if var not in _SWEEPABLE:
        raise DomainError(f"unknown sweep variable {var!r} (choose from {', '.join(_SWEEPABLE)})")
    try:
        start, stop = float(parts[1]), float(parts[2])
        points = int(parts[3])
    except ValueError:
        raise DomainError(f"sweep {text!r} needs numeric START, STOP and integer POINTS") from None
    scale = parts[4].strip().lower() if len(parts) == 5 else "linear"
    if scale not in ("linear", "log"):
        raise DomainError(f"sweep scale must be 'log' when given, got {parts[4]!r}")
    if points < 1:
        raise DomainError("sweep needs at least one point")
    if points == 1:
        grid = (start,)
    elif not stop > start:
        raise DomainError("sweep stop must exceed start")
    elif scale == "log":
        if start <= 0.0:
            raise DomainError("log sweep needs a positive start")
        grid = _log_grid(start, stop, points)
    else:
        step = (stop - start) / (points - 1)
        grid = [start + i * step for i in range(points)]
        grid[-1] = stop
    if var in ("m", "n") and not all(map(math.isfinite, grid)):
        raise DomainError(f"sweep {text!r} over a count needs a finite grid")
    return SweepSpec(var, tuple(grid))


def _swept(variable: str, value: float):
    """The value a sweep row evaluates: counts are rounded, and an odd n
    moves up one slot, as BlocklengthPlan does (the series needs an even n).
    A count below its minimum is left for the command's checks to reject."""
    if variable not in ("m", "n"):
        return value
    value = int(round(value))
    return value + value % 2 if variable == "n" else value


# ------------------------------------------------------- config & defaults


def _int_arg(text: str) -> int:
    """An integer within the double range, which the package computes in."""
    try:
        value = int(text, 0)
    except ValueError:
        try:
            value = float(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if not (abs(value) <= sys.float_info.max and value == int(value)):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(value)


_CONFIG_KEYS = {
    "mode": ("mode", str),
    "pt": ("pt", float),
    "pe": ("pe", float),
    "sigma2": ("sigma2", float),
    "eps": ("eps", float),
    "a": ("a", float),
    "m": ("m", _int_arg),
    "n": ("n", _int_arg),
    "lambda": ("density", float),
    "ppb": ("ppb", float),
    "mu": ("mu", float),
    "eta": ("eta", float),
    "mc_trials": ("mc_trials", _int_arg),
    "seed": ("seed", _int_arg),
    "sweep": ("sweep", str),
}

_HARD_DEFAULTS = {"mode": "single", "sigma2": 1.0, "mu": 1.0, "eta": 3.6, "seed": 0}


def _load_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, _, text = line.partition("=")
            key = key.strip().lower().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
            dest, cast = _CONFIG_KEYS[key]
            text = text.strip()
            try:
                values[dest] = cast(text)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise DomainError(f"{path}:{lineno}: bad value for {key}: {text!r}") from exc
    return values


def _finalize(args) -> None:
    """Merge config-file values and hard defaults into the parsed flags."""
    if getattr(args, "config", None):
        for dest, value in _load_config(args.config).items():
            if getattr(args, dest, None) is None:
                setattr(args, dest, value)
    for dest, value in _HARD_DEFAULTS.items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)
    if args.mode not in ("single", "multi"):
        raise DomainError(f"mode must be 'single' or 'multi', got {args.mode!r}")
    sweep = getattr(args, "sweep", None)
    args.sweep = _parse_sweep(sweep) if isinstance(sweep, str) else sweep


# ------------------------------------------------------ parameter plumbing


def _resolve_single(args) -> tuple[float, float, float]:
    """Pin down (a, p_t, p_e) from whichever flags were given."""
    a, p_t, p_e = args.a, args.pt, args.pe
    if p_e is not None:
        single_pb._check_positive("p_e", p_e)
    if a is None:
        if p_t is None or p_e is None:
            raise DomainError("single mode needs -a, or --pt together with --pe")
        return p_t / p_e, p_t, p_e
    if p_e is None and p_t is None:
        return a, a, 1.0
    if p_e is None:
        if a <= 0.0:
            raise DomainError("cannot infer --pe from --pt when a = 0")
        return a, p_t, p_t / a
    if p_t is None:
        return a, a * p_e, p_e
    if abs(p_t / p_e - a) > 1e-9 * max(abs(a), 1.0):
        raise DomainError(f"inconsistent flags: a={a!r} but pt/pe={p_t / p_e!r}")
    return a, p_t, p_e


def _resolve_multi(args) -> tuple[float, multi_pb.NetworkParams]:
    """(p_t, beacon field) of multi mode."""
    if args.pt is None:
        raise DomainError("multi mode needs --pt")
    if args.density is None or args.ppb is None:
        raise DomainError("multi mode needs --lambda and --ppb")
    net = multi_pb.NetworkParams(density=args.density, p_pb=args.ppb, mu=args.mu, eta=args.eta)
    return args.pt, net


def _mc_cfg(args) -> montecarlo.McConfig:
    return montecarlo.McConfig(trials=args.mc_trials, seed=args.seed)


# ------------------------------------------------------------- subcommands


def _run(args, point, lead: list[str], values: list[str]) -> int:
    """Emit ``point``'s (lead cells, value cells) for the flags, or one row per
    sweep value, in which the grid value replaces the lead cells. A sweep sets
    the swept field of one copy of the flags per row; any row's error aborts."""
    sweep = args.sweep
    if sweep is None:
        lead_cells, cells = point(args)
        _emit(lead + values, [lead_cells + cells], args.out)
        return 0
    ns = argparse.Namespace(**vars(args))
    dest = "density" if sweep.variable == "lambda" else sweep.variable
    rows = []
    for value in sweep.grid:
        setattr(ns, dest, _swept(dest, value))
        rows.append([value] + point(ns)[1])
    _emit([sweep.variable] + values, rows, args.out)
    return 0


def _power_column(args) -> str:
    return "a" if args.mode == "single" else "pt"


def _pes_point(ns) -> tuple[list, list]:
    if ns.m is None or ns.n is None:
        raise DomainError("pes needs -m and -n")
    if ns.mode == "single":
        a, p_t, p_e = _resolve_single(ns)
        lead = [ns.m, ns.n, a]
        cells = [single_pb.energy_supply_prob(ns.m, ns.n, a)]
        if ns.mc_trials is not None:
            est = montecarlo.estimate_supply_prob_single(ns.m, ns.n, p_t, p_e, _mc_cfg(ns))
    else:
        p_t, net = _resolve_multi(ns)
        lead = [ns.m, ns.n, p_t]
        cells = [multi_pb.energy_supply_prob_mp(ns.m, ns.n, p_t, net)]
        if ns.mc_trials is not None:
            est = montecarlo.estimate_supply_prob_mp(ns.m, ns.n, p_t, net, _mc_cfg(ns))
    if ns.mc_trials is not None:
        cells += [est.mean, est.std_err]
    return lead, cells


def cmd_pes(args) -> int:
    mc = ["pes_mc", "pes_mc_stderr"] if args.mc_trials is not None else []
    return _run(args, _pes_point, ["m", "n", _power_column(args)], ["pes"] + mc)


def _rate_point(ns) -> tuple[list, list]:
    if ns.eps is None:
        raise DomainError("rate needs --eps")
    n = ns.n if ns.n is not None else single_pb.min_transmit_blocklength(ns.eps)
    # A given -n is held to the even-n rule whether or not -m is given too;
    # BlocklengthPlan alone would round it up silently.
    if ns.mode == "single":
        a, p_t, p_e = _resolve_single(ns)
        single_pb._check_even_n(n)
        m = ns.m if ns.m is not None else planner.min_harvest_blocklength(n, a, ns.eps)
        plan = single_pb.BlocklengthPlan(m, n, ns.eps)
        link = single_pb.LinkParams(p_t=p_t, p_e=p_e, sigma2=ns.sigma2)
        res = single_pb.achievable_rate_fbl(plan, link)
        asym = single_pb.asymptotic_rate(link, ns.eps) / _LN2
        lead = [m, n, a]
    else:
        p_t, net = _resolve_multi(ns)
        single_pb._check_even_n(n)
        m = ns.m if ns.m is not None else planner.min_harvest_blocklength_mp(n, p_t, net, ns.eps)
        plan = single_pb.BlocklengthPlan(m, n, ns.eps)
        res = multi_pb.achievable_rate_mp(plan, p_t, ns.sigma2, net)
        asym = None
        lead = [m, n, p_t]
    return lead, [res.rate_bits if res.feasible else None, asym, res.feasible]


def cmd_rate(args) -> int:
    values = ["rate_bits", "rate_bits_asymptotic", "feasible"]
    return _run(args, _rate_point, ["m", "n", _power_column(args)], values)


def _optpower_point(ns) -> tuple[list, list]:
    if ns.mode != "single":
        raise DomainError("optpower applies to single mode only")
    if ns.pe is None or ns.eps is None:
        raise DomainError("optpower needs --pe and --eps")
    pt_asym = single_pb.optimal_power_asymptotic(ns.pe, ns.sigma2, ns.eps)
    pt_fbl, rate_fbl_nats = single_pb.optimal_power_fbl(ns.eps, ns.pe, ns.sigma2)
    n = single_pb.min_transmit_blocklength(ns.eps)
    link = single_pb.LinkParams(p_t=pt_asym, p_e=ns.pe, sigma2=ns.sigma2)
    return [], [
        pt_asym,
        pt_fbl,
        pt_asym / ns.pe,
        pt_fbl / ns.pe,
        _planned_rate_bits(n, pt_asym / ns.pe, link, ns.eps),
        rate_fbl_nats / _LN2,
    ]


def cmd_optpower(args) -> int:
    values = [
        "pt_asym",
        "pt_fbl",
        "a_asym",
        "a_fbl",
        "rate_bits_at_pt_asym",
        "rate_bits_at_pt_fbl",
    ]
    return _run(args, _optpower_point, [], values)


def _plan_point(ns) -> tuple[list, list]:
    if ns.eps is None:
        raise DomainError("plan needs --eps")
    n_min = single_pb.min_transmit_blocklength(ns.eps)
    if ns.mode == "single":
        a, _, _ = _resolve_single(ns)
        m_min = planner.min_harvest_blocklength(n_min, a, ns.eps)
        overhead = planner.harvest_overhead(a, ns.eps)
    else:
        p_t, net = _resolve_multi(ns)
        m_min = planner.min_harvest_blocklength_mp(n_min, p_t, net, ns.eps)
        overhead = None
    return [], [n_min, m_min, overhead, n_min + m_min]


def cmd_plan(args) -> int:
    return _run(args, _plan_point, [], ["n_min", "m_min", "overhead", "total"])


def _planned_rate_bits(n: int, a: float, link: single_pb.LinkParams, eps: float):
    """The rate in bits at the shortest harvest length for ``a``, or None
    where that plan is infeasible."""
    m = planner.min_harvest_blocklength(n, a, eps)
    res = single_pb.achievable_rate_fbl(single_pb.BlocklengthPlan(m, n, eps), link)
    return res.rate_bits if res.feasible else None


# ----------------------------------------------------------------- figures
#
# The bundled scenarios pin every parameter explicitly. Values that the
# model description leaves open (grids, per-curve tolerances, beacon power
# scans) are reconstructions; they are listed in the README and visible in
# the emitted CSV, never silent.


def _figure_fig2():
    p_e, sigma2 = 100.0, 1.0
    eps_list = (1e-3, 1e-2, 1e-1)
    grid = _log_grid(1e-4, 1.0, 61)
    rows, series = [], []
    for eps in eps_list:
        n = single_pb.min_transmit_blocklength(eps)
        xs, ys = [], []
        for a in grid:
            link = single_pb.LinkParams(p_t=a * p_e, p_e=p_e, sigma2=sigma2)
            rate = _planned_rate_bits(n, a, link, eps)
            rows.append([eps, a, rate])
            if rate is not None:
                xs.append(a)
                ys.append(rate)
        series.append((f"eps={eps:g}", xs, ys))
    plot = dict(series=series, x_label="a", y_label="rate (bits/channel use)", log_x=True)
    return ["eps", "a", "rate_bits"], rows, plot


def _figure_fig3():
    p_e, sigma2 = 1e3, 1.0
    pt_fixed = single_pb.optimal_power_asymptotic(p_e, sigma2, 1e-3)
    link_fixed = single_pb.LinkParams(p_t=pt_fixed, p_e=p_e, sigma2=sigma2)
    rows = []
    for eps in _log_grid(1e-4, 0.5, 41):
        n = single_pb.min_transmit_blocklength(eps)
        pt_ad = single_pb.optimal_power_asymptotic(p_e, sigma2, eps)
        link_ad = single_pb.LinkParams(p_t=pt_ad, p_e=p_e, sigma2=sigma2)
        r_fixed = _planned_rate_bits(n, pt_fixed / p_e, link_fixed, eps)
        r_ad = _planned_rate_bits(n, pt_ad / p_e, link_ad, eps)
        r_asym = single_pb.asymptotic_rate(link_ad, eps) / _LN2
        rows.append([eps, r_fixed, r_ad, r_asym])
    xs, fixed, adapted, asym = zip(*rows)
    header = ["eps", "rate_bits_fixed_power", "rate_bits_adapted_power", "rate_bits_asymptotic"]
    plot = dict(
        series=[("fixed power", xs, fixed), ("adapted power", xs, adapted), ("asymptotic", xs, asym)],
        x_label="eps",
        y_label="rate (bits/channel use)",
        log_x=True,
    )
    return header, rows, plot


def _figure_optimal_power(ratio: bool):
    """fig4: both optimal powers against p_e at eps = 0.05; fig5 (``ratio``):
    the same scan as power ratios."""
    rows = []
    for p_e in _log_grid(1e2, 1e4, 25):
        pt_asym = single_pb.optimal_power_asymptotic(p_e, 1.0, 0.05)
        pt_fbl, _ = single_pb.optimal_power_fbl(0.05, p_e, 1.0)
        scale = p_e if ratio else 1.0
        rows.append([p_e, pt_asym / scale, pt_fbl / scale])
    xs, opt_asym, opt_fbl = zip(*rows)
    plot = dict(
        series=[("asymptotic", xs, opt_asym), ("finite frame", xs, opt_fbl)],
        x_label="pe",
        y_label="optimal a" if ratio else "optimal pt",
        log_x=True,
        log_y=not ratio,
    )
    return ["pe", "a_asym", "a_fbl"] if ratio else ["pe", "pt_asym", "pt_fbl"], rows, plot


def _figure_fig6():
    lam0, p0 = 1e-3, 1e3
    m, n, p_t = 1500, 1000, 1.0
    rows = []
    for i in range(19):
        k = 1.0 + 0.5 * i
        net_d = multi_pb.NetworkParams(density=k * lam0, p_pb=p0)
        net_p = multi_pb.NetworkParams(density=lam0, p_pb=k * p0)
        mean = multi_pb.mean_harvested(net_d)
        s_d = multi_pb.energy_supply_prob_mp(m, n, p_t, net_d)
        s_p = multi_pb.energy_supply_prob_mp(m, n, p_t, net_p)
        rows.append([k, mean, s_d, s_p])
    _, xs, dens, powr = zip(*rows)
    header = ["k", "mean_harvested", "pes_density_scaled", "pes_power_scaled"]
    plot = dict(
        series=[("density scaled", xs, dens), ("power scaled", xs, powr)],
        x_label="mean harvested power",
        y_label="pes",
    )
    return header, rows, plot


def _figure_fig7():
    eps, sigma2 = 0.05, 1.0
    net = multi_pb.NetworkParams(density=5e-3, p_pb=1e3)
    rows = []
    xs, ys = [], []
    for n in (2026, 4052, 6078, 8104, 10130):
        best = None
        for p_t in _log_grid(0.1, 100.0, 9):
            m = planner.min_harvest_blocklength_mp(n, p_t, net, eps)
            res = multi_pb.achievable_rate_mp(
                single_pb.BlocklengthPlan(m, n, eps), p_t, sigma2, net
            )
            if res.feasible and (best is None or res.rate_bits > best[3]):
                best = [n, p_t, m, res.rate_bits]
        rows.append(best if best else [n, None, None, None])
        if best:
            xs.append(n)
            ys.append(best[3])
    plot = dict(
        series=[("best scanned power", xs, ys)],
        x_label="n",
        y_label="rate (bits/channel use)",
    )
    return ["n", "pt", "m", "rate_bits"], rows, plot


_FIGURES = {
    "fig2": _figure_fig2,
    "fig3": _figure_fig3,
    "fig4": lambda: _figure_optimal_power(False),
    "fig5": lambda: _figure_optimal_power(True),
    "fig6": _figure_fig6,
    "fig7": _figure_fig7,
}


def cmd_figure(args) -> int:
    header, rows, plot = _FIGURES[args.name]()
    out_dir = args.out if args.out else "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{args.name}.csv")
    _emit(header, rows, csv_path)
    print(csv_path)
    if args.svg:
        svg_path = os.path.join(out_dir, f"{args.name}.svg")
        render_line_chart(svg_path, **plot)
        print(svg_path)
    return 0


# -------------------------------------------------------------- validation


def _band_check(name: str, analytic: float, mean: float, std_err: float):
    diff = abs(mean - analytic)
    band = 3.0 * std_err
    ok = diff <= band if band > 0.0 else diff == 0.0
    detail = f"analytic {analytic:.6g}, mc {mean:.6g} +/- {std_err:.2g}"
    return name, ok, detail


def _sample_mean(name: str, analytic: float, samples: np.ndarray):
    """Band check of a sample mean, with the sample's standard error."""
    std_err = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    return _band_check(name, analytic, float(samples.mean()), std_err)


def cmd_validate(args) -> int:
    # The band checks take a sample standard deviation, which needs 2 trials.
    trials = 20_000 if args.mc_trials is None else single_pb._check_count("trials", args.mc_trials, 2)
    cfg = montecarlo.McConfig(trials=trials, seed=args.seed)
    net = multi_pb.NetworkParams(density=1e-3, p_pb=1e3)
    net_dense = multi_pb.NetworkParams(density=5e-3, p_pb=1e3)
    checks = []

    est = montecarlo.estimate_supply_prob_single(100, 50, 0.1, 1.0, cfg)
    analytic = single_pb.energy_supply_prob(100, 50, 0.1)
    checks.append(_band_check("single_supply_vs_mc", analytic, est.mean, est.std_err))

    pc, fc = montecarlo.check_prefix_equivalence(10, 20, 0.5, 1.0, cfg)
    checks.append(("prefix_equals_final", pc == fc, f"prefix={pc} final={fc}"))

    z = montecarlo.sample_ppp_energies(net, cfg, trials)
    checks.append(_sample_mean("ppp_mean_vs_closed_form", multi_pb.mean_harvested(net), z))
    s = 0.5
    checks.append(_sample_mean("laplace_vs_mc", multi_pb.laplace_z(s, net), np.exp(-s * z)))

    est = montecarlo.estimate_supply_prob_mp(1500, 1000, 1.0, net, cfg)
    analytic = multi_pb.energy_supply_prob_mp(1500, 1000, 1.0, net)
    checks.append(_band_check("multi_supply_vs_mc", analytic, est.mean, est.std_err))

    # The same product recurrence fed by the positive-argument 2F1 form: at
    # u = 1000 it shares no special-function code with laplace_derivs.
    d_ref = multi_pb.laplace_derivs(1.0, 8, net_dense)
    d_hyp = multi_pb._ladder(d_ref.values[0], multi_pb._g_derivs_hyp(1.0, 8, net_dense))
    rel = max(abs(x - y) / max(abs(y), 1e-300) for x, y in zip(d_hyp, d_ref.values))
    checks.append(("deriv_paths_agree", rel <= 1e-8, f"max rel diff {rel:.3e} (tol 1e-8)"))

    h = 1e-6
    fd = (multi_pb.laplace_z(1.0 + h, net_dense) - multi_pb.laplace_z(1.0 - h, net_dense)) / (
        2.0 * h
    )
    analytic = d_ref.values[1]
    rel = abs(fd - analytic) / abs(analytic)
    checks.append(
        ("first_deriv_vs_fd", rel <= 1e-6, f"rel diff {rel:.3e} (tol 1e-6)")
    )

    failed = 0
    for name, ok, detail in checks:
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 4


# ------------------------------------------------------------ SVG renderer

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _axis_ticks(lo: float, hi: float, log_scale: bool):
    if log_scale:
        first = math.floor(math.log10(lo) + 1e-9)
        last = math.ceil(math.log10(hi) - 1e-9)
        ticks = [10.0 ** e for e in range(first, last + 1)]
        ticks = [t for t in ticks if lo * 0.999 <= t <= hi * 1.001]
        return ticks if len(ticks) >= 2 else [lo, hi]
    if hi == lo:
        return [lo]
    return [lo + i * (hi - lo) / 4.0 for i in range(5)]


def render_line_chart(path, series, *, x_label="", y_label="", log_x=False, log_y=False):
    """Write a minimal self-contained SVG polyline chart."""
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 30, 50
    pw, ph = width - left - right, height - top - bottom

    pts = [
        (x, y)
        for _, xs, ys in series
        for x, y in zip(xs, ys)
        if x is not None and y is not None and math.isfinite(x) and math.isfinite(y)
    ]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if pts:
        fx = (lambda v: math.log10(v)) if log_x else (lambda v: v)
        fy = (lambda v: math.log10(v)) if log_y else (lambda v: v)
        x_lo, x_hi = min(p[0] for p in pts), max(p[0] for p in pts)
        y_lo, y_hi = min(p[1] for p in pts), max(p[1] for p in pts)
        if x_hi == x_lo:
            x_hi = x_lo + (abs(x_lo) or 1.0)
        if y_hi == y_lo:
            y_hi = y_lo + (abs(y_lo) or 1.0)
        sx = lambda v: left + (fx(v) - fx(x_lo)) / (fx(x_hi) - fx(x_lo)) * pw
        sy = lambda v: top + ph - (fy(v) - fy(y_lo)) / (fy(y_hi) - fy(y_lo)) * ph

        for t in _axis_ticks(x_lo, x_hi, log_x):
            x = sx(t)
            parts.append(
                f'<line x1="{x:.2f}" y1="{top}" x2="{x:.2f}" y2="{top + ph}" '
                f'stroke="#ddd" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{x:.2f}" y="{top + ph + 18}" text-anchor="middle">{t:.3g}</text>'
            )
        for t in _axis_ticks(y_lo, y_hi, log_y):
            y = sy(t)
            parts.append(
                f'<line x1="{left}" y1="{y:.2f}" x2="{left + pw}" y2="{y:.2f}" '
                f'stroke="#ddd" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{left - 6}" y="{y + 4:.2f}" text-anchor="end">{t:.3g}</text>'
            )
        for idx, (label, xs, ys) in enumerate(series):
            color = _PALETTE[idx % len(_PALETTE)]
            coords = " ".join(
                f"{sx(x):.2f},{sy(y):.2f}"
                for x, y in zip(xs, ys)
                if x is not None and y is not None and math.isfinite(x) and math.isfinite(y)
            )
            if coords:
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
            ly = top + 14 + 16 * idx
            parts.append(
                f'<line x1="{left + pw - 130}" y1="{ly - 4}" x2="{left + pw - 106}" '
                f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
            )
            parts.append(f'<text x="{left + pw - 100}" y="{ly}">{label}</text>')
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + ph}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top + ph}" x2="{left + pw}" y2="{top + ph}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{left + pw / 2:.0f}" y="{height - 12}" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{top + ph / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + ph / 2:.0f})">{y_label}</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wplink",
        description="Energy supply probability and finite-frame rate tools "
        "for wirelessly powered links.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=("single", "multi"), default=None,
                        help="link model: one dedicated beacon or a beacon field")
    common.add_argument("--pt", type=float, default=None, help="transmit power")
    common.add_argument("--pe", type=float, default=None,
                        help="mean harvested power (single mode)")
    common.add_argument("--sigma2", type=float, default=None,
                        help="receiver noise power (default 1)")
    common.add_argument("--eps", type=float, default=None, help="decoding error tolerance")
    common.add_argument("-m", type=_int_arg, default=None, help="harvesting slots")
    common.add_argument("-n", type=_int_arg, default=None, help="transmission slots")
    common.add_argument("-a", type=float, default=None, help="power ratio pt/pe")
    common.add_argument("--lambda", dest="density", type=float, default=None,
                        help="beacon density (multi mode)")
    common.add_argument("--ppb", type=float, default=None,
                        help="beacon transmit power (multi mode)")
    common.add_argument("--mu", type=float, default=None,
                        help="rectifier efficiency (default 1)")
    common.add_argument("--eta", type=float, default=None,
                        help="path loss exponent (default 3.6)")
    common.add_argument("--mc-trials", dest="mc_trials", type=_int_arg, default=None,
                        help="Monte Carlo trials (enables MC columns)")
    common.add_argument("--seed", type=_int_arg, default=None,
                        help="Monte Carlo seed (default 0)")
    common.add_argument("--config", default=None,
                        help="flat key=value file; flags override file values")
    common.add_argument("--out", default=None,
                        help="output CSV path (figure: output directory)")

    sweepable = argparse.ArgumentParser(add_help=False)
    sweepable.add_argument("--sweep", default=None, metavar="VAR:START:STOP:POINTS[:log]",
                           help=f"sweep one variable ({', '.join(_SWEEPABLE)})")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("pes", parents=[common, sweepable],
                   help="energy supply probability").set_defaults(func=cmd_pes)
    sub.add_parser("rate", parents=[common, sweepable],
                   help="finite-frame achievable rate").set_defaults(func=cmd_rate)
    sub.add_parser("optpower", parents=[common, sweepable],
                   help="transmit power optimization").set_defaults(func=cmd_optpower)
    sub.add_parser("plan", parents=[common, sweepable],
                   help="minimal blocklength plan").set_defaults(func=cmd_plan)
    fig = sub.add_parser("figure", parents=[common], help="bundled scenario sweeps")
    fig.add_argument("name", choices=sorted(_FIGURES))
    fig.add_argument("--svg", action="store_true", help="also render an SVG line chart")
    fig.set_defaults(func=cmd_figure)
    sub.add_parser("validate", parents=[common],
                   help="closed-form vs Monte Carlo consistency run").set_defaults(
        func=cmd_validate
    )
    return parser


def main(argv=None) -> int:
    multi_pb._threshold.cache_clear()
    args = _build_parser().parse_args(argv)
    try:
        _finalize(args)
        return args.func(args)
    except _LIB_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an unreadable --config or an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
