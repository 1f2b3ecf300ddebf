"""Closed forms for a link powered by a single dedicated power beacon.

Covers the save-then-transmit frame: the probability that the harvested
energy covers the codeword energy, the finite-blocklength achievable rate
with its feasibility constraints, the asymptotic (large-frame) rate, and
the transmit power that maximizes the asymptotic rate.

Conventions: all logarithms are natural; rates are reported in both nats
and bits per channel use. The power ratio ``a`` here is transmit power over
mean harvested power.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import lambertw

__all__ = [
    "DomainError",
    "LinkParams",
    "BlocklengthPlan",
    "RateResult",
    "SearchError",
    "UnsatisfiableError",
    "energy_supply_prob",
    "energy_outage_prob",
    "within_derivation_domain",
    "min_power_ratio",
    "asymptotic_supply_limit",
    "transmit_floor",
    "min_transmit_blocklength",
    "harvest_floor_real",
    "harvest_len_feasible_at_floor",
    "transmit_len_within_energy_cap",
    "transmit_len_meets_error_floor",
    "harvest_len_covers_transmit",
    "achievable_rate_fbl",
    "asymptotic_rate",
    "capacity_prelog",
    "high_reliability_rate",
    "optimal_power_asymptotic",
    "optimal_power_slope",
    "optimal_power_fbl",
]

_LN2 = math.log(2.0)
_INV_E = math.exp(-1.0)
# Below this power budget the optimum takes 1 + W0 from its branch-point
# series, whose first omitted term is below 2e-11 relative there.
_BRANCH_BUDGET = 1e-5
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Stopping rule of optimal_power_fbl's golden-section search in ln(p_t).
_FBL_XTOL = 1e-10
_FBL_ITERS = 200


class DomainError(ValueError):
    """Raised when an input lies outside a function's mathematical domain."""


class SearchError(RuntimeError):
    """Raised when a numerical search cannot produce a meaningful result."""


class UnsatisfiableError(RuntimeError):
    """No harvest blocklength up to the search cap meets the constraint."""


# =============================================================================
# Domain rules: one validator each, called by every module's entry points
# =============================================================================


# Largest count accepted: the closed forms and samplers convert counts to
# float, so a larger integer would raise a bare OverflowError there. Held as
# an int, since an int count compares with an int faster than with a float.
_COUNT_MAX = int(sys.float_info.max)


def _count_too_large(name: str, minimum: int) -> DomainError:
    return DomainError(
        f"{name} must be an integer >= {minimum} within the double range, "
        f"got one above {_COUNT_MAX:.6g}"
    )


def _check_count(name: str, value, minimum: int = 1) -> int:
    """A count: an integer >= ``minimum`` and at most :data:`_COUNT_MAX`,
    returned as an int. ``value % 1`` is NaN for inf, so inf, NaN and
    fractions all fail without an OverflowError."""
    if not (value >= minimum and value % 1 == 0):
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if value > _COUNT_MAX:
        raise _count_too_large(name, minimum)
    return int(value)


def _check_even_n(n) -> None:
    """A transmit blocklength: an even integer >= 2 and at most
    :data:`_COUNT_MAX`, since the codeword energy is a chi-squared(n) sum
    over n/2 complex symbols."""
    if not (n >= 2 and n % 2 == 0):
        raise DomainError(f"transmit blocklength n must be an even integer >= 2, got {n!r}")
    if n > _COUNT_MAX:
        raise _count_too_large("transmit blocklength n", 2)


def _check_epsilon(epsilon: float, zero_ok: bool = False) -> None:
    """An error target in (0, 1), or in [0, 1) where ``zero_ok``."""
    if not (0.0 < epsilon < 1.0 or (zero_ok and epsilon == 0.0)):
        interval = "[0, 1)" if zero_ok else "(0, 1)"
        raise DomainError(f"epsilon must lie in {interval}, got {epsilon!r}")


def _check_nonnegative(name: str, value: float, finite: bool = False) -> None:
    """A value >= 0; ``finite`` where it must also be finite."""
    if not (value >= 0.0 and (value < math.inf or not finite)):
        raise DomainError(f"{name} must be {'finite and ' if finite else ''}>= 0, got {value!r}")


def _check_positive(name: str, value: float, finite: bool = False) -> None:
    """A value > 0; ``finite`` where it must also be finite."""
    if not (value > 0.0 and (value < math.inf or not finite)):
        raise DomainError(f"{name} must be {'finite and ' if finite else ''}> 0, got {value!r}")


def _check_snr(p_t: float, sigma2: float) -> None:
    """Finite p_t and sigma2 whose SNR p_t/sigma2 is finite too: at an
    infinite SNR the rate bound's gamma/(gamma + 1) is NaN. Called after the
    sign checks of p_t and sigma2, so that only an infinite value reaches it."""
    _check_nonnegative("p_t", p_t, finite=True)
    _check_positive("sigma2", sigma2, finite=True)
    _check_nonnegative("SNR p_t/sigma2", p_t / sigma2, finite=True)


# =============================================================================
# Core parameter types
# =============================================================================


@dataclass(frozen=True)
class LinkParams:
    """Physical parameters of one powered link.

    Attributes:
        p_t: Transmit power (energy per channel use), finite and >= 0.
        p_e: Mean harvested power (energy per channel use), finite and > 0.
        sigma2: Receiver noise power, finite and > 0, with a finite SNR
            p_t/sigma2.
    """

    p_t: float
    p_e: float
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        _check_nonnegative("p_t", self.p_t)
        _check_positive("p_e", self.p_e)
        _check_positive("sigma2", self.sigma2)
        _check_positive("p_e", self.p_e, finite=True)
        _check_snr(self.p_t, self.sigma2)

    @property
    def a(self) -> float:
        """Power ratio: transmit power over mean harvested power."""
        return self.p_t / self.p_e

    @property
    def gamma(self) -> float:
        """Receive SNR: transmit power over noise power."""
        return self.p_t / self.sigma2


@dataclass(frozen=True)
class BlocklengthPlan:
    """A (harvest, transmit) blocklength pair with its error target.

    The transmit length must be even; odd requests are rounded up one slot.
    """

    m: int
    n: int
    epsilon: float

    def __post_init__(self) -> None:
        m = _check_count("m", self.m, 0)
        n = _check_count("n", self.n, 2)
        _check_epsilon(self.epsilon, zero_ok=True)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n + n % 2)


@dataclass(frozen=True)
class RateResult:
    """Achievable-rate evaluation outcome.

    ``rate_nats`` is clamped at zero (a negative numerator means the bound
    is vacuous, not that information flows backwards); the unclamped value
    stays available in ``raw_rate_nats``. ``feasible`` reports whether the
    blocklength pair satisfies the energy feasibility constraints.
    """

    rate_nats: float
    rate_bits: float
    feasible: bool
    clamped: bool
    raw_rate_nats: float = field(default=math.nan)


# =============================================================================
# Energy supply probability
# =============================================================================


def energy_supply_prob(m: int, n: int, a: float) -> float:
    """Probability that harvested energy covers the whole codeword.

    Args:
        m: Harvest blocklength (integer >= 1).
        n: Transmit blocklength (even integer >= 2).
        a: Power ratio (transmit over mean harvested power), >= 0.

    Returns:
        (1 + 2a/m)^(-n/2), a value in (0, 1].
    """
    _check_count("harvest blocklength m", m)
    _check_even_n(n)
    _check_nonnegative("power ratio a", a)
    return math.exp(-(n / 2.0) * math.log1p(2.0 * a / m))


def energy_outage_prob(m: int, n: int, a: float) -> float:
    """Complement of :func:`energy_supply_prob`, 1 - (1 + 2a/m)^(-n/2).

    Taken as -expm1 of the supply's logarithm, so it keeps its relative
    accuracy where the supply is close to 1 and the subtraction would
    cancel.
    """
    _check_count("harvest blocklength m", m)
    _check_even_n(n)
    _check_nonnegative("power ratio a", a)
    return -math.expm1(-(n / 2.0) * math.log1p(2.0 * a / m))


def within_derivation_domain(m: int, a: float) -> bool:
    """True when m > 2a, the regime assumed by the closed form's derivation.

    The derivation of the supply probability bounds a moment generating
    function under m > 2a; the resulting expression stays a valid
    probability for every m >= 1, a >= 0, so evaluation is never blocked —
    this predicate just reports whether the assumption held.
    """
    return m > 2.0 * a


def min_power_ratio(m: int, n: int, rho: float) -> float:
    """Largest power ratio keeping the supply probability at least rho.

    Inverts the supply probability in ``a``: the returned ratio makes
    ``energy_supply_prob(m, n, a)`` equal rho exactly.
    """
    _check_count("harvest blocklength m", m)
    _check_even_n(n)
    if not (0.0 < rho <= 1.0):
        raise DomainError(f"rho must lie in (0, 1], got {rho!r}")
    # rho^(-2/n) - 1 evaluated without cancellation.
    return (m / 2.0) * math.expm1(-(2.0 / n) * math.log(rho))


def asymptotic_supply_limit(a: float, c: float) -> float:
    """Large-frame limit of the supply probability along m = c*n."""
    _check_nonnegative("power ratio a", a)
    _check_positive("proportionality constant c", c)
    return math.exp(-a / c)


# =============================================================================
# Feasibility constraints (real-valued forms)
# =============================================================================


def transmit_floor(epsilon: float) -> float:
    """Real-valued lower limit on the transmit blocklength for error target.

    Returns (ln((2+eps)/eps^2))^4, taken as a difference of logarithms so
    that eps^2 cannot underflow. The operational (integer, even) floor is
    :func:`min_transmit_blocklength`.
    """
    _check_epsilon(epsilon)
    return (math.log(2.0 + epsilon) - 2.0 * math.log(epsilon)) ** 4


def min_transmit_blocklength(epsilon: float) -> int:
    """Shortest even transmit blocklength admitted by the error target.

    The real-valued floor (ln((2+eps)/eps^2))^4 is rounded to the nearest
    integer and then pushed up to the next even value, with 2 as the
    smallest possible answer.
    """
    n = max(int(math.floor(transmit_floor(epsilon) + 0.5)), 2)
    return n + 1 if n % 2 else n


def harvest_floor_real(n: float, a: float, epsilon: float) -> float:
    """Real-valued lower limit on the harvest blocklength.

    Smallest m (as a real number) for which a transmit phase of length ``n``
    is energy-feasible: 2a / ((1 + eps/2)^(2/n) - 1). Accepts real n so it
    can also be evaluated at the real-valued transmit floor. Returns inf
    where the floor leaves the double range.
    """
    _check_positive("n", n)
    _check_nonnegative("power ratio a", a)
    _check_epsilon(epsilon)
    return _harvest_floor(a, _floor_growth(n, epsilon))


def _floor_growth(n: float, epsilon: float) -> float:
    """(1 + eps/2)^(2/n) - 1, the harvest floor's denominator."""
    return math.expm1((2.0 / n) * math.log1p(0.5 * epsilon))


def _harvest_floor(a: float, growth: float) -> float:
    """2a/growth: 0 at a = 0, and inf where ``growth`` has underflowed to 0."""
    if a == 0.0:
        return 0.0
    return 2.0 * a / growth if growth > 0.0 else math.inf


def _harvest_len(floor: float, n: int, a: float, epsilon: float) -> int:
    """The harvest length of a real floor: its ceiling, unless it overflowed."""
    if floor == math.inf:
        raise _floor_overflow(n, a, epsilon)
    return math.ceil(floor)


def _floor_overflow(n: int, a: float, epsilon: float) -> UnsatisfiableError:
    return UnsatisfiableError(f"harvest floor overflows for n={n!r}, a={a!r}, eps={epsilon!r}")


def harvest_len_feasible_at_floor(m: float, a: float, epsilon: float) -> bool:
    """m is long enough to power the shortest admissible transmit phase."""
    if a == 0.0:
        return True
    return m >= harvest_floor_real(transmit_floor(epsilon), a, epsilon)


def transmit_len_within_energy_cap(n: float, m: float, a: float, epsilon: float) -> bool:
    """n does not exceed the energy-limited cap 2 ln(1+eps/2)/ln(1+2a/m),
    which is infinite at a = 0 (also for m = 0): the codeword needs no energy.
    For a > 0 and m = 0 nothing is harvested, and the cap is 0."""
    _check_epsilon(epsilon)
    if a == 0.0:
        return True
    if m == 0.0:
        return n <= 0.0
    growth = math.log1p(2.0 * a / m)
    if growth == 0.0:
        return True
    return n <= 2.0 * math.log1p(0.5 * epsilon) / growth


def transmit_len_meets_error_floor(n: float, epsilon: float) -> bool:
    """n reaches the real-valued transmit floor for the error target."""
    return n >= transmit_floor(epsilon)


def harvest_len_covers_transmit(m: float, n: float, a: float, epsilon: float) -> bool:
    """m reaches the real-valued harvest floor for this transmit length."""
    return m >= harvest_floor_real(n, a, epsilon)


def _operational_feasible(m: int, n: int, a: float, epsilon: float) -> bool:
    """Feasibility as used by rate results: the energy cap on n plus the
    harvest floor evaluated at the operational (even-integer) transmit
    floor, so that minimum-latency plans validate their own feasibility."""
    if epsilon == 0.0:
        return a == 0.0
    n_floor = min_transmit_blocklength(epsilon)
    return (
        m >= harvest_floor_real(n_floor, a, epsilon)
        and transmit_len_within_energy_cap(n, m, a, epsilon)
    )


# =============================================================================
# Finite-blocklength and asymptotic rates
# =============================================================================


def _raw_rate_nats(m: int, n: int, gamma: float, epsilon: float) -> float:
    """Unclamped rate bound numerator over total frame length, in nats."""
    snr_frac = gamma / (gamma + 1.0)
    if snr_frac == 0.0:
        penalty = 0.0
    elif epsilon == 0.0:
        return -math.inf
    else:
        penalty = math.sqrt((2.0 + epsilon) / epsilon * snr_frac * n)
    numer = (n / 2.0) * math.log1p(gamma) - penalty - n ** 0.25 - 1.0
    return numer / (n + m)


def _rate_result(raw: float, feasible: bool) -> RateResult:
    """The rate result of a raw bound value, clamped at zero."""
    clamped = raw < 0.0
    rate = 0.0 if clamped else raw
    return RateResult(
        rate_nats=rate,
        rate_bits=rate / _LN2,
        feasible=feasible,
        clamped=clamped,
        raw_rate_nats=raw,
    )


def achievable_rate_fbl(plan: BlocklengthPlan, link: LinkParams) -> RateResult:
    """Finite-blocklength achievable rate for a single-beacon link.

    Args:
        plan: Blocklength pair and error target.
        link: Physical link parameters (defines SNR and power ratio).

    Returns:
        RateResult with the clamped rate, feasibility of (m, n) under the
        energy constraints, and the raw (possibly negative) bound value.
    """
    raw = _raw_rate_nats(plan.m, plan.n, link.gamma, plan.epsilon)
    return _rate_result(raw, _operational_feasible(plan.m, plan.n, link.a, plan.epsilon))


def capacity_prelog(a: float, epsilon: float) -> float:
    """Fraction of AWGN capacity surviving the harvesting overhead.

    1 / (1 + a/ln(1+eps/2)), in [0, 1]. At epsilon = 0 the prelog is 1 for
    a = 0 and 0 otherwise (the overhead diverges).
    """
    _check_nonnegative("power ratio a", a)
    _check_epsilon(epsilon, zero_ok=True)
    if epsilon == 0.0:
        return 1.0 if a == 0.0 else 0.0
    return 1.0 / (1.0 + a / math.log1p(0.5 * epsilon))


def asymptotic_rate(link: LinkParams, epsilon: float) -> float:
    """Large-frame achievable rate in nats per channel use."""
    return capacity_prelog(link.a, epsilon) * 0.5 * math.log1p(link.gamma)


def high_reliability_rate(link: LinkParams, epsilon: float) -> float:
    """Small-epsilon approximation of the asymptotic rate (nats/use)."""
    _check_epsilon(epsilon, zero_ok=True)
    cap = 0.5 * math.log1p(link.gamma)
    if epsilon == 0.0:
        return cap if link.a == 0.0 else 0.0
    return cap / (1.0 + 2.0 * link.a / epsilon)


# =============================================================================
# Optimal transmit power
# =============================================================================


def _budget(p_e: float, sigma2: float, epsilon: float) -> float:
    """The power budget b = (p_e/sigma2) ln(1+eps/2) of the asymptotic
    optimum, after the checks of its inputs; a budget that is 0 or not
    finite is a DomainError."""
    _check_positive("p_e", p_e)
    _check_positive("sigma2", sigma2)
    _check_epsilon(epsilon)
    b = (p_e / sigma2) * math.log1p(0.5 * epsilon)
    # An infinite p_e or sigma2 makes b inf, 0 or NaN, so this covers them too.
    if not (0.0 < b < math.inf):
        raise DomainError(
            f"power budget (p_e/sigma2) ln(1+eps/2) must be finite and > 0, "
            f"got {b!r} from p_e={p_e!r}, sigma2={sigma2!r}"
        )
    return b


def _optima(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p*/sigma2, delta) of the asymptotic rate's stationarity condition, for
    each budget of ``b`` (from :func:`_budget`).

    With t = b - 1 and delta = 1 + W0(t/e), the optimum is
    p*/sigma2 = t/W0(t/e) - 1, which is (delta - b)/(1 - delta). As b -> 0
    the argument t/e nears the branch point -1/e and t/W0 - 1 cancels, so
    there delta comes from the series p - p^2/3 + 11p^3/72 - 43p^4/540 in
    p = sqrt(2b) and the optimum from the second form. Each element gets the
    IEEE operations of a scalar evaluation; ``lambertw`` is one ufunc either
    way.
    """
    x, delta = np.empty_like(b), np.empty_like(b)
    series = b < _BRANCH_BUDGET
    bs = b[series]
    p = np.sqrt(2.0 * bs)
    ds = p * (1.0 - p * (1.0 / 3.0 - p * (11.0 / 72.0 - p * 43.0 / 540.0)))
    x[series], delta[series] = (ds - bs) / (1.0 - ds), ds
    t = b[~series] - 1.0
    w = lambertw(t * _INV_E).real
    with np.errstate(divide="ignore", invalid="ignore"):
        # Limit t -> 0 of t / W0(t/e) is e.
        x[~series] = np.where(t == 0.0, math.e - 1.0, t / w - 1.0)
    delta[~series] = 1.0 + w
    return x, delta


def _optimum(p_e: float, sigma2: float, epsilon: float) -> tuple[float, float]:
    """(p*/sigma2, delta) of one (p_e, sigma2, eps); see :func:`_optima`."""
    x, delta = _optima(np.array([_budget(p_e, sigma2, epsilon)]))
    return float(x[0]), float(delta[0])


def optimal_power_asymptotic(p_e: float, sigma2: float, epsilon: float) -> float:
    """Transmit power maximizing the asymptotic rate.

    Solves the stationarity condition of the asymptotic rate in closed form:
    with t = (p_e/sigma2) ln(1+eps/2) - 1, the maximizer is
    sigma2 * (t / W0(t/e) - 1).

    Raises:
        DomainError: p_e or sigma2 not positive and finite, eps outside
            (0, 1), or a budget (p_e/sigma2) ln(1+eps/2) that leaves the
            double range.
    """
    return sigma2 * _optimum(p_e, sigma2, epsilon)[0]


def optimal_power_slope(p_e: float, sigma2: float, epsilon: float) -> float:
    """Derivative of the optimal transmit power with respect to p_e:
    ln(1+eps/2) / (1 + W0(t/e)). Raises as :func:`optimal_power_asymptotic`."""
    return math.log1p(0.5 * epsilon) / _optimum(p_e, sigma2, epsilon)[1]


def _libm(func, values: np.ndarray) -> np.ndarray:
    """``func`` (a ``math`` function) of each element. NumPy's own exp, log1p
    and log can differ from libm's in the last bit, so a batch that must
    match scalar evaluations takes them from libm."""
    return np.fromiter(map(func, values.tolist()), float, values.size)


def _search_checks(epsilon: float, p_e: float, sigma2: float) -> int:
    """The checks :func:`optimal_power_fbl` makes before its search, in its
    order; returns the shortest even n for eps."""
    n = min_transmit_blocklength(epsilon)
    _check_positive("p_e", p_e, finite=True)
    _check_positive("sigma2", sigma2, finite=True)
    if 1e-6 * p_e == 0.0:
        raise DomainError(f"p_e={p_e!r} is too small: the bracket end 1e-6 * p_e is 0")
    return n


class _RateProbe:
    """The single-beacon rate for rows of (eps, n) frames that share sigma2,
    bit for bit, where eps lies in (0, 1), n is even and n and m are exact
    as doubles (a planned m always is):

    - :meth:`harvest`: ``min_harvest_blocklength(n, a, eps)``;
    - :meth:`rate`: ``achievable_rate_fbl(BlocklengthPlan(m, n, eps),
      LinkParams(p_t, p_e, sigma2)).rate_nats``;
    - :meth:`feasible`: that result's ``feasible`` at a = p_t/p_e;
    - :meth:`asymptotic`: ``asymptotic_rate(LinkParams(p_t, p_e, sigma2), eps)``;
    - a call: the rate that :func:`optimal_power_fbl` maximizes at p_t, for
      frames of (eps, p_e) that have passed :func:`_search_checks`, each
      with the shortest even n for its eps.

    n, the harvest floor's growth term and the penalty's constants are taken
    once per frame here. A method evaluates any rows at once, a frame as
    often as it is listed, with the scalar path's IEEE operations in its
    order: arithmetic, sqrt and ceil in NumPy float64, log1p from libm.
    """

    def __init__(self, epsilon: list, p_e: list | None, sigma2: float, n: list) -> None:
        self.epsilon, self.n, self.sigma2 = epsilon, n, sigma2
        self.p_e = None if p_e is None else np.array(p_e, dtype=float)
        self.growth = np.array(list(map(_floor_growth, n, epsilon)))
        eps = np.array(epsilon, dtype=float)
        with np.errstate(over="ignore"):
            self.scale = (2.0 + eps) / eps
        self.n_f = np.array(n, dtype=float)
        self.quarter = np.array([k ** 0.25 for k in n])

    def harvest(self, rows: np.ndarray, a: np.ndarray):
        """(m, overflow) at the power ratios ``a`` of ``rows``: the planned
        harvest length, and where its floor overflows, which :meth:`error`
        turns into that row's error (its m is then meaningless)."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            floor = _floors(a, self.growth[rows])
        return np.ceil(floor), floor == np.inf

    def rate(self, rows: np.ndarray, p_t: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The clamped rate in nats of ``rows`` at the powers ``p_t`` and
        harvest lengths ``m``."""
        n = self.n_f[rows]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            gamma = p_t / self.sigma2
            snr_frac = gamma / (gamma + 1.0)
            penalty = np.where(snr_frac == 0.0, 0.0, np.sqrt(self.scale[rows] * snr_frac * n))
            numer = n / 2.0 * _libm(math.log1p, gamma) - penalty - self.quarter[rows] - 1.0
            raw = numer / (n + m)
        return np.where(raw < 0.0, 0.0, raw)

    def _half_log(self, rows: np.ndarray) -> np.ndarray:
        """ln(1 + eps/2) of ``rows``."""
        return _libm(math.log1p, 0.5 * np.array(self.epsilon, dtype=float))[rows]

    def feasible(self, rows: np.ndarray, m: np.ndarray, a: np.ndarray) -> np.ndarray:
        """:func:`_operational_feasible` at the harvest lengths ``m`` and
        power ratios ``a`` (p_t/p_e, finite or not) of ``rows``."""
        floor_n = list(map(min_transmit_blocklength, self.epsilon))
        floor_growth = np.array(list(map(_floor_growth, floor_n, self.epsilon)))[rows]
        n = self.n_f[rows]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            growth = _libm(math.log1p, 2.0 * a / m)
            within = (a == 0.0) | ((m != 0.0) & (
                (growth == 0.0) | (n <= 2.0 * self._half_log(rows) / growth)))
            return (m >= _floors(a, floor_growth)) & within

    def asymptotic(self, rows: np.ndarray, p_t: np.ndarray, a: np.ndarray) -> np.ndarray:
        """:func:`asymptotic_rate` in nats at the powers ``p_t`` and power
        ratios ``a`` (p_t/p_e) of ``rows``."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            prelog = 1.0 / (1.0 + a / self._half_log(rows))
            return prelog * 0.5 * _libm(math.log1p, p_t / self.sigma2)

    def __call__(self, rows: np.ndarray, p_t: np.ndarray):
        """(rate, m, a, overflow) at the powers ``p_t`` of ``rows``: the
        clamped rate in nats, the harvest length, the power ratio p_t/p_e,
        and where the harvest floor overflows (see :meth:`harvest`)."""
        a = p_t / self.p_e[rows]
        m, overflow = self.harvest(rows, a)
        return self.rate(rows, p_t, m), m, a, overflow

    def error(self, row: int, a) -> UnsatisfiableError:
        return _floor_overflow(self.n[row], float(a), self.epsilon[row])


def _floors(a: np.ndarray, growth: np.ndarray) -> np.ndarray:
    """:func:`_harvest_floor` of arrays."""
    return np.where(a == 0.0, 0.0, np.where(growth > 0.0, 2.0 * a / growth, np.inf))


class _PowerRow(NamedTuple):
    """One row of :func:`_optimal_powers`. Each field holds a value or the
    error that computing it raises (see :func:`_unwrap`):

    - ``p_asym``: ``optimal_power_asymptotic(p_e, sigma2, eps)``;
    - ``rate_at_asym``: (clamped rate in nats, feasible) of the plan at
      p_asym, as ``achievable_rate_fbl`` gives them, from the search's probe;
      None where the search failed;
    - ``best``: ``optimal_power_fbl(eps, p_e, sigma2)``.
    """

    p_asym: float | DomainError
    rate_at_asym: tuple[float, bool] | UnsatisfiableError | None
    best: tuple[float, float] | Exception


def _unwrap(cell):
    """The value of a :class:`_PowerRow` field; a field holding an error
    raises it."""
    if isinstance(cell, Exception):
        raise cell
    return cell


def _better(rate, x, best_rate, best_x) -> np.ndarray:
    """Where (rate, x) > (best_rate, best_x) as Python tuples compare: a
    larger rate, or an equal rate at a larger x. A NaN rate never wins and is
    never beaten."""
    return (rate > best_rate) | ((rate == best_rate) & (x > best_x))


def _optimal_powers(epsilon: list, p_e: list, sigma2: float) -> list[_PowerRow]:
    """:func:`optimal_power_fbl` and :func:`optimal_power_asymptotic` for each
    row of the equal-length ``epsilon`` and ``p_e``, with a shared sigma2.

    Every row runs the same 32-point pre-scan and golden-section steps in
    lock-step; an active mask freezes each row at its own stopping rule or
    at its first error. Each row gets the bits of its scalar search, and the
    error that search raises, in the same order of checks.
    """
    count = len(p_e)
    p_asym: list = [None] * count
    budgets, valued = [], []
    for i, (eps, pe) in enumerate(zip(epsilon, p_e)):
        try:
            budgets.append(_budget(pe, sigma2, eps))
        except DomainError as exc:
            p_asym[i] = exc
        else:
            valued.append(i)
    for i, value in zip(valued, (sigma2 * _optima(np.array(budgets))[0]).tolist()):
        p_asym[i] = value

    best: list = [None] * count
    rate_at_asym: list = [None] * count
    search, ns = [], []
    for i, (eps, pe) in enumerate(zip(epsilon, p_e)):
        try:
            ns.append(_search_checks(eps, pe, sigma2))
        except DomainError as exc:
            best[i] = exc
        else:
            search.append(i)
    if search:
        probe = _RateProbe([epsilon[i] for i in search], [p_e[i] for i in search], sigma2, ns)
        found = _search(probe, [p_asym[i] for i in search])
        for i, (cell, at_asym) in zip(search, found):
            best[i], rate_at_asym[i] = cell, at_asym
    return [_PowerRow(*row) for row in zip(p_asym, rate_at_asym, best)]


def _search(probe: _RateProbe, p_asym: list) -> list[tuple]:
    """(best cell, rate-at-p_asym cell) of each row of ``probe``, whose
    asymptotic optimum (or its error) is ``p_asym``; see
    :func:`_optimal_powers`."""
    count = len(p_asym)
    cells: list = [None] * count  # each row's error, then its result
    failed = np.zeros(count, dtype=bool)

    def probe_at(rows, x):
        """The rates of ``rows`` at p_t = exp(x). A row's first overflow in
        listed order is its error, unless it has one already."""
        rate, _, a, overflow = probe(rows, _libm(math.exp, x))
        for k in np.flatnonzero(overflow).tolist():
            row = int(rows[k])
            if not failed[row]:
                cells[row], failed[row] = probe.error(row, a[k]), True
        return rate

    # The 32-point pre-scan in ln(p_t) over [1e-6 p_e, p_e], and its winner.
    lo = _libm(math.log, 1e-6 * probe.p_e)
    hi = _libm(math.log, probe.p_e)
    grid = lo[:, None] + (hi - lo)[:, None] * np.arange(32) / 31.0
    everyone = np.arange(count)
    scans = probe_at(np.tile(everyone, 32), grid.T.ravel()).reshape(32, count)
    # idx is the winner's first grid index, as grid.index(best_x) finds it:
    # a later equal x has the same rate and does not win.
    best_rate, best_x, idx = scans[0], grid[:, 0], np.zeros(count, dtype=int)
    for j in range(1, 32):
        won = _better(scans[j], grid[:, j], best_rate, best_x)
        best_rate = np.where(won, scans[j], best_rate)
        best_x = np.where(won, grid[:, j], best_x)
        idx = np.where(won, j, idx)
    for row in np.flatnonzero(~failed & (best_rate <= 0.0)).tolist():
        cells[row], failed[row] = SearchError("rate is zero over the whole power bracket"), True

    # Golden-section refinement around each pre-scan winner.
    a_x = grid[everyone, np.maximum(idx - 1, 0)]
    b_x = grid[everyone, np.minimum(idx + 1, 31)]
    x1 = b_x - _GOLDEN * (b_x - a_x)
    x2 = a_x + _GOLDEN * (b_x - a_x)
    active = np.flatnonzero(~failed)
    f = probe_at(np.concatenate([active, active]), np.concatenate([x1[active], x2[active]]))
    f1, f2 = np.zeros(count), np.zeros(count)
    f1[active], f2[active] = f[: active.size], f[active.size:]
    for _ in range(_FBL_ITERS):
        active = active[~failed[active]]
        lo_x, hi_x = a_x[active], b_x[active]
        done = hi_x - lo_x <= _FBL_XTOL * np.maximum(1.0, np.abs(lo_x) + np.abs(hi_x))
        active = active[~done]
        if not active.size:
            break
        p1, p2, r1, r2 = x1[active], x2[active], f1[active], f2[active]
        right = r1 < r2  # the maximum lies right of x1: drop [a, x1)
        lo_x = np.where(right, p1, a_x[active])
        hi_x = np.where(right, b_x[active], p2)
        step = _GOLDEN * (hi_x - lo_x)
        x_new = np.where(right, lo_x + step, hi_x - step)
        f_new = probe_at(active, x_new)
        a_x[active], b_x[active] = lo_x, hi_x
        x1[active], x2[active] = np.where(right, p2, x_new), np.where(right, x_new, p1)
        f1[active], f2[active] = np.where(right, r2, f_new), np.where(right, f_new, r1)

    # The final candidates (f1, x1), (f2, x2), the pre-scan winner and, when
    # it lies in the bracket, the asymptotic optimum, which every row that
    # finished its search probes.
    at_asym: list = [None] * count
    for row in np.flatnonzero(~failed).tolist():
        if isinstance(p_asym[row], DomainError):
            cells[row], failed[row] = p_asym[row], True
    rows = np.flatnonzero(~failed)
    pa = np.array([p_asym[row] for row in rows.tolist()], dtype=float)
    rate, m, a, overflow = probe(rows, pa)
    pe = probe.p_e[rows]
    inside = (1e-6 * pe <= pa) & (pa <= pe)
    for k, row in enumerate(rows.tolist()):
        if overflow[k]:
            at_asym[row] = probe.error(row, a[k])
            if inside[k]:
                cells[row] = at_asym[row]
        else:
            # The plan meets its harvest floor by construction, so it is
            # feasible where n is within the energy cap.
            n, eps = probe.n[row], probe.epsilon[row]
            feasible = transmit_len_within_energy_cap(n, int(m[k]), float(a[k]), eps)
            at_asym[row] = float(rate[k]), feasible
    rate_star, x_star = f1[rows], x1[rows]
    for r, x, use in ((f2[rows], x2[rows], True), (best_rate[rows], best_x[rows], True),
                      (rate, _libm(math.log, np.where(inside, pa, 1.0)), inside)):
        won = use & _better(r, x, rate_star, x_star)
        rate_star, x_star = np.where(won, r, rate_star), np.where(won, x, x_star)
    for row, p_t, r in zip(rows.tolist(), _libm(math.exp, x_star).tolist(), rate_star.tolist()):
        if cells[row] is None:
            cells[row] = (p_t, r)
    return list(zip(cells, at_asym))


def optimal_power_fbl(epsilon: float, p_e: float, sigma2: float = 1.0) -> tuple[float, float]:
    """Maximize the finite-blocklength rate over transmit power.

    For each candidate power the blocklengths are re-planned: the shortest
    even transmit length for the error target, then the shortest harvest
    length for the resulting power ratio. The search is golden-section on
    ln(p_t) over [1e-6 * p_e, p_e], seeded by a 32-point pre-scan; the
    asymptotically optimal power is always included as a candidate. This is
    the one-row case of the lock-step search :func:`_optimal_powers`.

    Returns:
        (p_t_star, rate_nats_star).

    Raises:
        DomainError: eps outside (0, 1); p_e or sigma2 not finite and > 0;
            p_e so small that 1e-6 * p_e underflows to 0; or, from the
            asymptotic candidate, a power budget outside the double range.
        UnsatisfiableError: If a probe's harvest floor leaves the double
            range.
        SearchError: If the rate is zero over the whole bracket.
    """
    return _unwrap(_optimal_powers([epsilon], [p_e], sigma2)[0].best)
