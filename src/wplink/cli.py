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


def _column_format(column) -> str:
    """The %-format of a column of cells, chosen once for the column:
    '%.12g' % x is format(x, '.12g') for a float and '%d' % k is str(k) for
    an int, as :func:`_fmt` writes them; a column of any other or mixed
    types gets '%s' and its cells go through :func:`_fmt` one by one."""
    kinds = set(map(type, column))
    if kinds == {float}:
        return "%.12g"
    return "%d" if kinds == {int} else "%s"


def _emit(header, columns, out_path) -> None:
    """Write a table given as its columns, each in its own format."""
    # Plain joins are valid CSV here: no cell needs quoting, since cells are
    # numbers, true/false or empty, and every table has at least two columns,
    # so no row is a lone empty field (which csv.writer would write as "").
    formats = list(map(_column_format, columns))
    columns = [list(map(_fmt, column)) if spec == "%s" else column
               for column, spec in zip(columns, formats)]
    line = ",".join(formats) + "\n"

    def write(stream):
        stream.write(",".join(header) + "\n")
        stream.writelines(map(line.__mod__, zip(*columns)))

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
    # The exponents la + i*(lb-la)/(points-1) in one NumPy expression: the
    # same IEEE operations in the same order as a loop, so the same bits.
    grid = list(map(math.exp, la + np.arange(points) * (lb - la) / (points - 1)))
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
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError(f"sweep {text!r} needs a finite START and STOP")
    if points == 1:
        grid = (start,)
    elif not stop > start:
        raise DomainError("sweep stop must exceed start")
    elif scale == "log":
        if start <= 0.0:
            raise DomainError("log sweep needs a positive start")
        grid = _log_grid(start, stop, points)
    else:
        span = stop - start
        if span == math.inf:  # the first point would be start + 0 * inf = NaN
            raise DomainError(
                f"sweep {text!r} spans more than the double range: STOP - START overflows"
            )
        step = span / (points - 1)
        grid = [start + i * step for i in range(points)]
        grid[-1] = stop
    if var in ("m", "n") and not all(map(math.isfinite, grid)):
        raise DomainError(f"sweep {text!r} over a count needs a finite grid")
    return SweepSpec(var, tuple(grid))


def _swept(variable: str, grid):
    """The values the rows of a sweep evaluate: counts are rounded, and an
    odd n moves up one slot, as BlocklengthPlan does (the series needs an
    even n). A count below its minimum is left for the command's checks to
    reject."""
    if variable not in ("m", "n"):
        return grid
    counts = [int(round(value)) for value in grid]
    return [n + n % 2 for n in counts] if variable == "n" else counts


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


# Every config-settable flag, keyed by its config key: (dest, type, built-in
# default, help). The parser, the config reader, the defaults merge and the
# sweep all read this table. A one-letter key is the flag -key, any other
# --key with dashes for underscores.
_CONFIG_KEYS = {
    "mode": ("mode", str, "single", "link model: one dedicated beacon or a beacon field"),
    "pt": ("pt", float, None, "transmit power"),
    "pe": ("pe", float, None, "mean harvested power (single mode)"),
    "sigma2": ("sigma2", float, 1.0, "receiver noise power (default 1)"),
    "eps": ("eps", float, None, "decoding error tolerance"),
    "m": ("m", _int_arg, None, "harvesting slots"),
    "n": ("n", _int_arg, None, "transmission slots"),
    "a": ("a", float, None, "power ratio pt/pe"),
    "lambda": ("density", float, None, "beacon density (multi mode)"),
    "ppb": ("ppb", float, None, "beacon transmit power (multi mode)"),
    "mu": ("mu", float, 1.0, "rectifier efficiency (default 1)"),
    "eta": ("eta", float, 3.6, "path loss exponent (default 3.6)"),
    "mc_trials": ("mc_trials", _int_arg, None, "Monte Carlo trials (enables MC columns)"),
    "seed": ("seed", _int_arg, 0, "Monte Carlo seed (default 0)"),
    "sweep": ("sweep", str, None, f"sweep one variable ({', '.join(_SWEEPABLE)})"),
}

# How two flags show in --help and usage. A config value of mode is checked
# by _finalize instead of by argparse's choices.
_FLAG_DISPLAY = {
    "mode": {"choices": ("single", "multi")},
    "sweep": {"metavar": "VAR:START:STOP:POINTS[:log]"},
}


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
            dest, cast, _, _ = _CONFIG_KEYS[key]
            text = text.strip()
            try:
                values[dest] = cast(text)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise DomainError(f"{path}:{lineno}: bad value for {key}: {text!r}") from exc
    return values


def _finalize(args) -> None:
    """Fill each config key's flag left unset: config-file value, else the
    built-in default."""
    config = _load_config(args.config) if args.config else {}
    for dest, _, default, _ in _CONFIG_KEYS.values():
        if getattr(args, dest, None) is None:
            setattr(args, dest, config.get(dest, default))
    if args.mode not in ("single", "multi"):
        raise DomainError(f"mode must be 'single' or 'multi', got {args.mode!r}")
    if args.sweep is not None:
        args.sweep = _parse_sweep(args.sweep)


# ------------------------------------------------------ parameter plumbing
#
# A command evaluates one row for the flags, or one row per sweep value, in
# grid order, and any row's error aborts it. A row evaluates its checks in
# one fixed order, so the error of a sweep is that of its first failing row.
# A command's prepare step hands its table to _run as columns.
#
# Single mode evaluates the whole grid as one NumPy batch (see _batch) with
# the bits of the one-row command, a row with no sweep being a batch of one.
# Multi mode runs its one-row command (_pes_row_mp, _rate_row_mp,
# _plan_row_mp) on each row in turn, resolving and checking every flag per
# row, through the same public functions as a command with no sweep; only a
# field n sweep shares one outage-series pass among its rows.

# Counts below 2**53 are exact as doubles, so that a batch's double
# arithmetic on them gives the bits of the scalar path's integer arithmetic.
# 2**53 itself is not: the odd 2**53 + 1 rounds to it.
_EXACT_COUNT = 2.0 ** 53

# How far a given -a may lie from the ratio of a given --pt and --pe.
_RATIO_TOL = 1e-9


def _check_given_powers(p_t, p_e) -> None:
    """A given p_t or p_e (None where not given) must be finite."""
    if p_e is not None:
        single_pb._check_positive("p_e", p_e)  # first, for its own message at 0
        single_pb._check_positive("p_e", p_e, finite=True)
    if p_t is not None:
        single_pb._check_nonnegative("p_t", p_t, finite=True)


def _power_point(a, p_t, p_e) -> tuple[float, float, float]:
    """(a, p_t, p_e) from whichever were given (None where not), after
    :func:`_check_given_powers`. An a that is not finite contradicts any
    finite pt/pe. A value derived from the flags must pass the check a given
    one does: p_t = a alone (at p_e = 1) or a*pe, and p_e = pt/a; a p_e or a
    ratio pt/pe that fails names the two flags. A negative or NaN a gets the
    check of a itself: here, beside --pt alone, where it would have nothing
    to divide; later for the rest."""
    if a is None:
        if p_t is None or p_e is None:
            raise DomainError("single mode needs -a, or --pt together with --pe")
        if p_t / p_e == math.inf:
            raise _ratio_overflow(p_t, p_e)
        return p_t / p_e, p_t, p_e
    if p_e is None and p_t is None:
        if a >= 0.0:
            single_pb._check_nonnegative("p_t", a, finite=True)
        return a, a, 1.0
    if p_e is None:
        if not a > 0.0:
            single_pb._check_nonnegative("power ratio a", a)  # a < 0 or NaN fails the check of a
            raise DomainError("cannot infer --pe from --pt when a = 0")
        p_e = p_t / a
        if not 0.0 < p_e < math.inf:
            raise DomainError(
                f"flags collide: pt={p_t!r} and a={a!r} give p_e={p_e!r}, but p_e must be"
                " finite and > 0"
            )
        return a, p_t, p_e
    if p_t is None:
        p_t = a * p_e
        if a >= 0.0:
            single_pb._check_nonnegative("p_t", p_t, finite=True)
        return a, p_t, p_e
    ratio = p_t / p_e
    if ratio != a and not (
        math.isfinite(a) and abs(ratio - a) <= _RATIO_TOL * max(abs(a), 1.0)
    ):
        raise DomainError(f"inconsistent flags: a={a!r} but pt/pe={ratio!r}")
    if ratio == math.inf:
        raise _ratio_overflow(p_t, p_e)
    return a, p_t, p_e


def _ratio_overflow(p_t, p_e) -> DomainError:
    return DomainError(
        f"flags collide: pt={p_t!r} and pe={p_e!r} give a=inf, but a must be finite"
    )


def _resolve_single(args) -> tuple[float, float, float]:
    """Pin down (a, p_t, p_e) from whichever flags were given."""
    _check_given_powers(args.pt, args.pe)
    return _power_point(args.a, args.pt, args.pe)


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


def _per_row(args, dest, row):
    """(lead cells, value columns) of the rows of a one-row command ``row(ns)
    -> (lead cells, value cells)``, run on one copy of the flags per row with
    the swept field ``dest`` set to each grid value in turn."""
    if dest is None:
        lead, cells = row(args)
        return lead, [[cell] for cell in cells]
    ns = argparse.Namespace(**vars(args))
    rows = []
    for value in _swept(dest, args.sweep.grid):
        setattr(ns, dest, value)
        rows.append(row(ns)[1])
    return None, list(zip(*rows))


# ------------------------------------------------------- single-mode batches
#
# A batch evaluates every row's checks as vector masks and every row's cells
# with the scalar path's IEEE operations in its order: +, -, *, /, sqrt and
# ceil in NumPy float64, exp and log1p from libm (single_pb._libm). A row
# that a mask flags runs its one-row command instead (_pes_row, _rate_row,
# _plan_row), whose checks raise its error. A mask may flag a row that
# passes, which then gets the one-row command's cells, but it never passes
# a row that fails.


def _row_flags(args, dest):
    """(count, flag) of a single-mode batch: its number of rows, and
    ``flag(key)``, the flag ``key``'s value in each row as a float array, or
    None where it is not given. A swept count takes its rounded values."""
    swept = [None] if dest is None else _swept(dest, args.sweep.grid)
    count = len(swept)

    def flag(key):
        if key == dest:
            return np.array(swept, dtype=float)
        value = getattr(args, key)
        return None if value is None else np.full(count, value, dtype=float)

    return count, flag


def _counts_ok(counts, minimum: int, even: bool = False) -> np.ndarray:
    """Where the counts are at least ``minimum`` and below 2**53, so that
    every count passed is exact, and even where ``even``. It must never be
    looser than single_pb._check_count, or with ``even`` _check_even_n: a
    count read as a double may already be rounded."""
    ok = (counts >= minimum) & (counts < _EXACT_COUNT)
    return ok & (counts % 2.0 == 0.0) if even else ok


def _power_rows(flag, count: int):
    """(a, p_t, p_e, ok): each row's powers as :func:`_resolve_single` gives
    them, and where they resolve with no error to a finite a >= 0, a finite
    p_t >= 0 and a finite p_e > 0. Elsewhere the powers are meaningless.
    The mask must never be looser than :func:`_resolve_single` with the
    checks of a itself."""
    a, p_t, p_e = flag("a"), flag("pt"), flag("pe")
    ok = np.ones(count, dtype=bool)
    with np.errstate(all="ignore"):
        if a is None:
            if p_t is None or p_e is None:
                nothing = np.zeros(count)
                return nothing, nothing, nothing, ~ok
            a = p_t / p_e
        elif p_t is None and p_e is None:
            p_t, p_e = a, np.ones(count)
        elif p_e is None:
            p_e = p_t / a
        elif p_t is None:
            p_t = a * p_e
        else:
            ratio = p_t / p_e
            ok = (ratio == a) | (
                np.isfinite(a) & (np.abs(ratio - a) <= _RATIO_TOL * np.maximum(np.abs(a), 1.0))
            )
        ok &= (a >= 0.0) & (a < math.inf) & (p_t >= 0.0) & (p_t < math.inf)
        ok &= (p_e > 0.0) & (p_e < math.inf)
    return a, p_t, p_e, ok


def _frames(dest, sigma2: float, eps: np.ndarray, n):
    """(probe, frame, n, ok) of a batch's (eps, n) frames, n being -n (None
    where not given) or else the shortest for eps: a
    :class:`single_pb._RateProbe` over the frames, each row's frame and n,
    and where eps lies in (0, 1) and n is even (never looser than
    single_pb._check_epsilon and _check_even_n). One frame serves every row
    unless eps or n is swept; a row that fails gets a stand-in frame, so
    that building the probe raises nothing."""
    ok = (eps > 0.0) & (eps < 1.0)
    if n is not None:
        ok &= _counts_ok(n, 2, even=True)
        n = np.where(ok, n, 2.0)
    eps = np.where(ok, eps, 0.5)
    per_row = dest == "eps" or (dest == "n" and n is not None)
    frame = np.arange(eps.size) if per_row else np.zeros(eps.size, dtype=int)
    frame_eps = eps[: eps.size if per_row else 1].tolist()
    if n is None:
        frame_n = list(map(single_pb.min_transmit_blocklength, frame_eps))
    else:
        frame_n = n[: len(frame_eps)].tolist()
    probe = single_pb._RateProbe(frame_eps, None, sigma2, frame_n)
    return probe, frame, probe.n_f[frame], ok


def _batch(args, dest, ok, lead, columns, row):
    """(lead cells, value columns) of a single-mode batch, for :func:`_run`.

    ``columns`` hold the batch's value cells of every row, ``lead()`` gives
    the lead cells of a batch of one, and ``ok`` marks the rows whose cells
    the batch vouches for. Each other row runs ``row(ns) -> (lead cells,
    value cells)``, its one-row command, in grid order."""
    columns = [column.tolist() if isinstance(column, np.ndarray) else column
               for column in columns]
    flagged = np.flatnonzero(~ok).tolist()
    if dest is None:
        return _per_row(args, None, row) if flagged else (lead(), columns)
    if flagged:
        swept = _swept(dest, args.sweep.grid)
        ns = argparse.Namespace(**vars(args))
        for i in flagged:
            setattr(ns, dest, swept[i])
            for column, cell in zip(columns, row(ns)[1]):
                column[i] = cell
    return None, columns


# ------------------------------------------------------------- subcommands


def _run(args, prepare, lead: list[str], values: list[str]) -> int:
    """Emit one row of (lead cells, value cells) for the flags, or one row per
    sweep value, in which the grid value replaces the lead cells.
    ``prepare(args, dest)`` returns the lead cells (of a row with no sweep)
    and the value columns of the rows, in grid order, for the swept field
    ``dest`` (None without a sweep)."""
    sweep = args.sweep
    dest = None if sweep is None else _CONFIG_KEYS[sweep.variable][0]
    lead_cells, columns = prepare(args, dest)
    if sweep is None:
        header, columns = lead + values, [[cell] for cell in lead_cells] + columns
    else:
        header, columns = [sweep.variable] + values, [sweep.grid] + columns
    _emit(header, columns, args.out)
    return 0


def _power_column(args) -> str:
    return "a" if args.mode == "single" else "pt"


def _pes_prepare(args, dest):
    if (args.m is None and dest != "m") or (args.n is None and dest != "n"):
        raise DomainError("pes needs -m and -n")
    if args.mode == "single":
        return _pes_batch(args, dest)
    if dest != "n":
        return _per_row(args, dest, _pes_row_mp)
    # An n sweep has one u, so one outage-series pass serves its whole grid;
    # the rows take its values in grid order.
    grid = _swept("n", args.sweep.grid)
    supplies = multi_pb._supply_probs_mp(args.m, grid, *_resolve_multi(args))
    return _per_row(args, dest, lambda ns: _pes_row_mp(ns, supplies))


def _pes_row_mp(ns, supplies=None) -> tuple[tuple, tuple]:
    """A multi-mode pes row; with ``supplies``, the supply is its next value."""
    p_t, net = _resolve_multi(ns)
    if supplies is None:
        cells = (multi_pb.energy_supply_prob_mp(ns.m, ns.n, p_t, net),)
    else:
        cells = (next(supplies),)
    if ns.mc_trials is not None:
        est = montecarlo.estimate_supply_prob_mp(ns.m, ns.n, p_t, net, _mc_cfg(ns))
        cells += (est.mean, est.std_err)
    return (ns.m, ns.n, p_t), cells


def _pes_batch(args, dest):
    """Single-mode pes: the supply exp(-(n/2) log1p(2a/m)) of every row. With
    the Monte Carlo columns, every row runs its one-row command."""
    if args.mc_trials is not None:
        return _per_row(args, dest, _pes_row)
    count, flag = _row_flags(args, dest)
    a, _, _, ok = _power_rows(flag, count)
    m, n = flag("m"), flag("n")
    ok &= _counts_ok(m, 1) & _counts_ok(n, 2, even=True)
    with np.errstate(all="ignore"):
        growth = single_pb._libm(math.log1p, np.where(ok, 2.0 * a / m, 0.0))
        columns = [single_pb._libm(math.exp, -(n / 2.0) * growth)]
    return _batch(args, dest, ok, lambda: (args.m, args.n, a.item()), columns, _pes_row)


def _pes_row(ns) -> tuple[tuple, tuple]:
    a, p_t, p_e = _resolve_single(ns)
    cells = (single_pb.energy_supply_prob(ns.m, ns.n, a),)
    if ns.mc_trials is not None:
        est = montecarlo.estimate_supply_prob_single(ns.m, ns.n, p_t, p_e, _mc_cfg(ns))
        cells += (est.mean, est.std_err)
    return (ns.m, ns.n, a), cells


def cmd_pes(args) -> int:
    mc = ["pes_mc", "pes_mc_stderr"] if args.mc_trials is not None else []
    return _run(args, _pes_prepare, ["m", "n", _power_column(args)], ["pes"] + mc)


def _rate_prepare(args, dest):
    if args.eps is None and dest != "eps":
        raise DomainError("rate needs --eps")
    if args.mode == "single":
        return _rate_batch(args, dest)
    return _per_row(args, dest, _rate_row_mp)


def _rate_row_mp(ns) -> tuple[tuple, tuple]:
    n = ns.n if ns.n is not None else single_pb.min_transmit_blocklength(ns.eps)
    p_t, net = _resolve_multi(ns)
    single_pb._check_even_n(n)
    m = ns.m if ns.m is not None else planner.min_harvest_blocklength_mp(n, p_t, net, ns.eps)
    plan = single_pb.BlocklengthPlan(m, n, ns.eps)
    res = multi_pb.achievable_rate_mp(plan, p_t, ns.sigma2, net)
    return (m, n, p_t), (res.rate_bits if res.feasible else None, None, res.feasible)


def _rate_batch(args, dest):
    """Single-mode rate: the plan at -m, else the shortest harvest length,
    its rate where feasible and the asymptotic rate, of every row. eps = 0,
    which -m and -n admit, runs its one-row command."""
    count, flag = _row_flags(args, dest)
    a, p_t, p_e, ok = _power_rows(flag, count)
    sigma2, m = args.sigma2, flag("m")
    probe, frame, n, frame_ok = _frames(dest, sigma2, flag("eps"), flag("n"))
    ok &= frame_ok
    if m is None:
        m, overflow = probe.harvest(frame, a)
        ok &= ~overflow
    else:
        ok &= _counts_ok(m, 0)
    with np.errstate(all="ignore"):
        ok &= (sigma2 > 0.0) & (sigma2 < math.inf) & (p_t / sigma2 < math.inf)
        # The link's power ratio p_t/p_e, which need not be a.
        ratio = np.where(ok, p_t / p_e, 0.0)
    p_t, m = np.where(ok, p_t, 0.0), np.where(ok, m, 1.0)
    feasible = probe.feasible(frame, m, ratio).tolist()
    rate = (probe.rate(frame, p_t, m) / _LN2).tolist()
    columns = [
        [r if f else None for r, f in zip(rate, feasible)],
        probe.asymptotic(frame, p_t, ratio) / _LN2,
        feasible,
    ]
    lead = lambda: (int(m.item()), int(n.item()), a.item())
    return _batch(args, dest, ok, lead, columns, _rate_row)


def _rate_row(ns) -> tuple[tuple, tuple]:
    n = ns.n if ns.n is not None else single_pb.min_transmit_blocklength(ns.eps)
    a, p_t, p_e = _resolve_single(ns)
    # A given -n is held to the even-n rule whether or not -m is given too;
    # BlocklengthPlan alone would round it up silently.
    single_pb._check_even_n(n)
    m = ns.m if ns.m is not None else planner.min_harvest_blocklength(n, a, ns.eps)
    plan = single_pb.BlocklengthPlan(m, n, ns.eps)
    link = single_pb.LinkParams(p_t=p_t, p_e=p_e, sigma2=ns.sigma2)
    res = single_pb.achievable_rate_fbl(plan, link)
    asym = single_pb.asymptotic_rate(link, ns.eps) / _LN2
    return (m, n, a), (res.rate_bits if res.feasible else None, asym, res.feasible)


def cmd_rate(args) -> int:
    values = ["rate_bits", "rate_bits_asymptotic", "feasible"]
    return _run(args, _rate_prepare, ["m", "n", _power_column(args)], values)


def _optpower_prepare(args, dest):
    if args.mode != "single":
        raise DomainError("optpower applies to single mode only")
    if (args.pe is None and dest != "pe") or (args.eps is None and dest != "eps"):
        raise DomainError("optpower needs --pe and --eps")
    # One lock-step search serves every row of a pe or eps sweep; the rows
    # take its results in grid order. Any other sweep has one row to compute.
    if dest not in ("pe", "eps"):
        cells = next(_optpower_cells([args.eps], [args.pe], args.sigma2))
        count = 1 if dest is None else len(args.sweep.grid)
        return (), [[cell] * count for cell in cells]
    grid = args.sweep.grid
    eps = grid if dest == "eps" else [args.eps] * len(grid)
    p_e = grid if dest == "pe" else [args.pe] * len(grid)
    return None, list(zip(*_optpower_cells(eps, p_e, args.sigma2)))


def _optpower_cells(eps, p_e, sigma2):
    """The value cells of each row of (eps, p_e), in turn, raising where the
    row's checks fail: the asymptotic optimum, the finite-frame search, the
    link at p_asym, then the planned rate there (the search's own probe)."""
    for pe, row in zip(p_e, single_pb._optimal_powers(eps, p_e, sigma2)):
        pt_asym = single_pb._unwrap(row.p_asym)
        pt_fbl, rate_fbl_nats = single_pb._unwrap(row.best)
        single_pb.LinkParams(p_t=pt_asym, p_e=pe, sigma2=sigma2)
        rate_asym_nats, feasible = single_pb._unwrap(row.rate_at_asym)
        yield [
            pt_asym,
            pt_fbl,
            pt_asym / pe,
            pt_fbl / pe,
            rate_asym_nats / _LN2 if feasible else None,
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
    return _run(args, _optpower_prepare, [], values)


def _plan_prepare(args, dest):
    if args.eps is None and dest != "eps":
        raise DomainError("plan needs --eps")
    if args.mode == "single":
        return _plan_batch(args, dest)
    return _per_row(args, dest, _plan_row_mp)


def _plan_row_mp(ns) -> tuple[tuple, tuple]:
    n = single_pb.min_transmit_blocklength(ns.eps)
    p_t, net = _resolve_multi(ns)
    m = planner.min_harvest_blocklength_mp(n, p_t, net, ns.eps)
    return (), (n, m, None, n + m)


def _plan_batch(args, dest):
    """Single-mode plan: the shortest n for eps, the shortest harvest length
    for it, the overhead 1 + 2a/eps and the total of every row."""
    count, flag = _row_flags(args, dest)
    a, _, _, ok = _power_rows(flag, count)
    eps = flag("eps")
    probe, frame, n, frame_ok = _frames(dest, args.sigma2, eps, None)
    ok &= frame_ok
    m, overflow = probe.harvest(frame, a)
    ok &= ~overflow
    with np.errstate(all="ignore"):
        overhead = 1.0 + 2.0 * a / eps
    n = list(map(int, n.tolist()))
    m = list(map(int, np.where(ok, m, 0.0).tolist()))
    columns = [n, m, overhead, [j + k for j, k in zip(n, m)]]
    return _batch(args, dest, ok, lambda: (), columns, _plan_row)


def _plan_row(ns) -> tuple[tuple, tuple]:
    n = single_pb.min_transmit_blocklength(ns.eps)
    a = _resolve_single(ns)[0]
    m = planner.min_harvest_blocklength(n, a, ns.eps)
    return (), (n, m, planner.harvest_overhead(a, ns.eps), n + m)


def cmd_plan(args) -> int:
    return _run(args, _plan_prepare, [], ["n_min", "m_min", "overhead", "total"])


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
    grid = _log_grid(1e-4, 1.0, 61)
    columns, series = [[], [], []], []
    for eps in (1e-3, 1e-2, 1e-1):
        n = single_pb.min_transmit_blocklength(eps)
        rates = []
        for a in grid:
            link = single_pb.LinkParams(p_t=a * p_e, p_e=p_e, sigma2=sigma2)
            rates.append(_planned_rate_bits(n, a, link, eps))
        for column, cells in zip(columns, ([eps] * len(grid), grid, rates)):
            column += cells
        series.append((f"eps={eps:g}", grid, rates))
    plot = dict(series=series, x_label="a", y_label="rate (bits/channel use)", log_x=True)
    return ["eps", "a", "rate_bits"], columns, plot


def _figure_fig3():
    p_e, sigma2 = 1e3, 1.0
    pt_fixed = single_pb.optimal_power_asymptotic(p_e, sigma2, 1e-3)
    link_fixed = single_pb.LinkParams(p_t=pt_fixed, p_e=p_e, sigma2=sigma2)
    xs = _log_grid(1e-4, 0.5, 41)
    fixed, adapted, asym = [], [], []
    for eps in xs:
        n = single_pb.min_transmit_blocklength(eps)
        pt_ad = single_pb.optimal_power_asymptotic(p_e, sigma2, eps)
        link_ad = single_pb.LinkParams(p_t=pt_ad, p_e=p_e, sigma2=sigma2)
        fixed.append(_planned_rate_bits(n, pt_fixed / p_e, link_fixed, eps))
        adapted.append(_planned_rate_bits(n, pt_ad / p_e, link_ad, eps))
        asym.append(single_pb.asymptotic_rate(link_ad, eps) / _LN2)
    header = ["eps", "rate_bits_fixed_power", "rate_bits_adapted_power", "rate_bits_asymptotic"]
    plot = dict(
        series=[("fixed power", xs, fixed), ("adapted power", xs, adapted), ("asymptotic", xs, asym)],
        x_label="eps",
        y_label="rate (bits/channel use)",
        log_x=True,
    )
    return header, [xs, fixed, adapted, asym], plot


def _figure_optimal_power(ratio: bool):
    """fig4: both optimal powers against p_e at eps = 0.05; fig5 (``ratio``):
    the same scan as power ratios."""
    xs = _log_grid(1e2, 1e4, 25)
    opt_asym, opt_fbl = [], []
    for p_e, row in zip(xs, single_pb._optimal_powers([0.05] * len(xs), xs, 1.0)):
        scale = p_e if ratio else 1.0
        opt_asym.append(single_pb._unwrap(row.p_asym) / scale)
        opt_fbl.append(single_pb._unwrap(row.best)[0] / scale)
    plot = dict(
        series=[("asymptotic", xs, opt_asym), ("finite frame", xs, opt_fbl)],
        x_label="pe",
        y_label="optimal a" if ratio else "optimal pt",
        log_x=True,
        log_y=not ratio,
    )
    header = ["pe", "a_asym", "a_fbl"] if ratio else ["pe", "pt_asym", "pt_fbl"]
    return header, [xs, opt_asym, opt_fbl], plot


def _figure_fig6():
    lam0, p0 = 1e-3, 1e3
    m, n, p_t = 1500, 1000, 1.0
    ks = [1.0 + 0.5 * i for i in range(19)]
    xs, dens, powr = [], [], []
    for k in ks:
        net_d = multi_pb.NetworkParams(density=k * lam0, p_pb=p0)
        net_p = multi_pb.NetworkParams(density=lam0, p_pb=k * p0)
        xs.append(multi_pb.mean_harvested(net_d))
        dens.append(multi_pb.energy_supply_prob_mp(m, n, p_t, net_d))
        powr.append(multi_pb.energy_supply_prob_mp(m, n, p_t, net_p))
    header = ["k", "mean_harvested", "pes_density_scaled", "pes_power_scaled"]
    plot = dict(
        series=[("density scaled", xs, dens), ("power scaled", xs, powr)],
        x_label="mean harvested power",
        y_label="pes",
    )
    return header, [ks, xs, dens, powr], plot


def _figure_fig7():
    eps, sigma2 = 0.05, 1.0
    net = multi_pb.NetworkParams(density=5e-3, p_pb=1e3)
    columns = [[], [], [], []]
    for n in (2026, 4052, 6078, 8104, 10130):
        best = [n, None, None, None]
        for p_t in _log_grid(0.1, 100.0, 9):
            m = planner.min_harvest_blocklength_mp(n, p_t, net, eps)
            res = multi_pb.achievable_rate_mp(
                single_pb.BlocklengthPlan(m, n, eps), p_t, sigma2, net
            )
            if res.feasible and (best[3] is None or res.rate_bits > best[3]):
                best = [n, p_t, m, res.rate_bits]
        for column, cell in zip(columns, best):
            column.append(cell)
    ns, _, _, rates = columns
    plot = dict(
        series=[("best scanned power", ns, rates)],
        x_label="n",
        y_label="rate (bits/channel use)",
    )
    return ["n", "pt", "m", "rate_bits"], columns, plot


_FIGURES = {
    "fig2": _figure_fig2,
    "fig3": _figure_fig3,
    "fig4": lambda: _figure_optimal_power(False),
    "fig5": lambda: _figure_optimal_power(True),
    "fig6": _figure_fig6,
    "fig7": _figure_fig7,
}


def cmd_figure(args) -> int:
    header, columns, plot = _FIGURES[args.name]()
    out_dir = args.out if args.out else "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{args.name}.csv")
    _emit(header, columns, csv_path)
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

    # One field sample serves the next three checks: the supply estimate's
    # harvest draws are the field energies themselves.
    est, z = montecarlo._field_supply(1500, 1000, 1.0, net, cfg)
    checks.append(_sample_mean("ppp_mean_vs_closed_form", multi_pb.mean_harvested(net), z))
    s = 0.5
    checks.append(_sample_mean("laplace_vs_mc", multi_pb.laplace_z(s, net), np.exp(-s * z)))

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

    # Points with an empty (None) or non-finite coordinate are not drawn.
    series = [
        (label, [
            (x, y) for x, y in zip(xs, ys)
            if x is not None and y is not None and math.isfinite(x) and math.isfinite(y)
        ])
        for label, xs, ys in series
    ]
    pts = [p for _, points in series for p in points]
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
        for idx, (label, points) in enumerate(series):
            color = _PALETTE[idx % len(_PALETTE)]
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
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
    sweepable = argparse.ArgumentParser(add_help=False)
    for key, (dest, kind, _, text) in _CONFIG_KEYS.items():
        flag = f"-{key}" if len(key) == 1 else "--" + key.replace("_", "-")
        (sweepable if key == "sweep" else common).add_argument(
            flag, dest=dest, type=kind, default=None, help=text, **_FLAG_DISPLAY.get(key, {})
        )
    common.add_argument("--config", default=None,
                        help="flat key=value file; flags override file values")
    common.add_argument("--out", default=None,
                        help="output CSV path (figure: output directory)")

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
    multi_pb._solved_ratio.clear()
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
