"""References the benchmark checks the program's outputs against.

Two kinds of reference live here:

* Closed forms for the single-beacon link, written out from the model's
  formulas (supply probability, blocklength floors, finite-frame and
  large-frame rates). They import nothing from ``wplink``.
* Comparison rules for CSV cells: empty cells, booleans and integers must
  match exactly; floats must match to a relative 1e-10.

Monte Carlo estimates are never compared bit for bit: an estimate passes
when it lies within three of its standard errors of the analytic value.
"""

from __future__ import annotations

import csv
import io
import math
import re

REL = 1e-10
LN2 = math.log(2.0)
_INT = re.compile(r"-?\d+")


# ---------------------------------------------------------------- closed forms


def log_grid(start: float, stop: float, points: int) -> list[float]:
    """The documented log sweep grid: geometric steps, exact end points."""
    la, lb = math.log(start), math.log(stop)
    grid = [math.exp(la + i * (lb - la) / (points - 1)) for i in range(points)]
    grid[0], grid[-1] = start, stop
    return grid


def lin_grid(start: float, stop: float, points: int) -> list[float]:
    """The documented linear sweep grid: equal steps, exact stop."""
    step = (stop - start) / (points - 1)
    grid = [start + i * step for i in range(points)]
    grid[-1] = stop
    return grid


def supply(m: int, n: int, a: float) -> float:
    """Single-beacon energy supply probability (1 + 2a/m)^(-n/2)."""
    return math.exp(-(n / 2.0) * math.log1p(2.0 * a / m))


def n_min(eps: float) -> int:
    """Shortest even transmit blocklength: (ln((2+eps)/eps^2))^4, rounded."""
    n = max(int(math.floor(math.log((2.0 + eps) / (eps * eps)) ** 4 + 0.5)), 2)
    return n + 1 if n % 2 else n


def harvest_floor(n: float, a: float, eps: float) -> float:
    """Real harvest length powering n slots: 2a / ((1+eps/2)^(2/n) - 1)."""
    if a == 0.0:
        return 0.0
    return 2.0 * a / math.expm1((2.0 / n) * math.log1p(0.5 * eps))


def m_min(n: int, a: float, eps: float) -> int:
    return int(math.ceil(harvest_floor(float(n), a, eps)))


def feasible(m: int, n: int, a: float, eps: float) -> bool:
    """Harvest floor at the shortest transmit length, and n under the energy cap."""
    growth = math.log1p(2.0 * a / m)
    within_cap = growth == 0.0 or n <= 2.0 * math.log1p(0.5 * eps) / growth
    return m >= harvest_floor(n_min(eps), a, eps) and within_cap


def rate_nats(m: int, n: int, gamma: float, eps: float) -> float:
    """Finite-frame rate bound, clamped at zero, in nats per channel use."""
    frac = gamma / (gamma + 1.0)
    penalty = math.sqrt((2.0 + eps) / eps * frac * n) if frac else 0.0
    raw = ((n / 2.0) * math.log1p(gamma) - penalty - n ** 0.25 - 1.0) / (n + m)
    return max(raw, 0.0)


def planned_rate_bits(p_t: float, p_e: float, eps: float) -> tuple[float, bool]:
    """Rate at power p_t (sigma2 = 1) with minimal (m, n), and its feasibility."""
    a = p_t / p_e
    n = n_min(eps)
    m = m_min(n, a, eps)
    return rate_nats(m, n, p_t, eps) / LN2, feasible(m, n, a, eps)


def asymptotic_rate_bits(a: float, gamma: float, eps: float) -> float:
    return 0.5 * math.log1p(gamma) / (1.0 + a / math.log1p(0.5 * eps)) / LN2


# ------------------------------------------------------------ cell comparison


def close(got: str, want: float) -> bool:
    """A float cell within a relative REL of ``want``."""
    try:
        value = float(got)
    except ValueError:
        return False
    if want == 0.0:
        return value == 0.0
    return abs(value - want) <= REL * abs(want)


def cell_ok(got: str, want) -> bool:
    """Compare one CSV cell with its reference.

    ``want`` is a reference cell as text (golden CSV), or a Python value
    from a closed form: None for an empty cell, bool, int or float.
    """
    if isinstance(want, str):
        if want in ("", "true", "false"):
            return got == want
        if _INT.fullmatch(want) and _INT.fullmatch(got):
            return got == want
        # A float column prints integral values without a point ("1").
        return close(got, float(want))
    if want is None:
        return got == ""
    if isinstance(want, bool):
        return got == ("true" if want else "false")
    if isinstance(want, int):
        return got == str(want)
    return close(got, want)


def within_3_sigma(mean: float, std_err: float, analytic: float) -> bool:
    return abs(mean - analytic) <= 3.0 * std_err


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    table = list(csv.reader(io.StringIO(text)))
    return (table[0], table[1:]) if table else ([], [])
