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
from dataclasses import dataclass, field

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


def _check_count(name: str, value, minimum: int = 1) -> int:
    """A count: an integer >= ``minimum``, returned as an int. ``value % 1`` is
    NaN for inf, so inf, NaN and fractions all fail without an OverflowError."""
    if not (value >= minimum and value % 1 == 0):
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_even_n(n) -> None:
    """A transmit blocklength: an even integer >= 2, since the codeword
    energy is a chi-squared(n) sum over n/2 complex symbols."""
    if not (n >= 2 and n % 2 == 0):
        raise DomainError(f"transmit blocklength n must be an even integer >= 2, got {n!r}")


def _check_epsilon(epsilon: float, zero_ok: bool = False) -> None:
    """An error target in (0, 1), or in [0, 1) where ``zero_ok``."""
    if not (0.0 < epsilon < 1.0 or (zero_ok and epsilon == 0.0)):
        interval = "[0, 1)" if zero_ok else "(0, 1)"
        raise DomainError(f"epsilon must lie in {interval}, got {epsilon!r}")


def _check_ratio(a: float) -> None:
    if not (a >= 0.0):
        raise DomainError(f"power ratio a must be >= 0, got {a!r}")


def _check_power(p_t: float, finite: bool = False) -> None:
    """A transmit power >= 0; ``finite`` where a series needs a finite one."""
    if not (p_t >= 0.0 and (p_t < math.inf or not finite)):
        raise DomainError(f"p_t must be {'finite and ' if finite else ''}>= 0, got {p_t!r}")


def _check_positive(name: str, value: float, finite: bool = False) -> None:
    """A value > 0; ``finite`` where it must also be finite."""
    if not (value > 0.0 and (value < math.inf or not finite)):
        raise DomainError(f"{name} must be {'finite and ' if finite else ''}> 0, got {value!r}")


# =============================================================================
# Core parameter types
# =============================================================================


@dataclass(frozen=True)
class LinkParams:
    """Physical parameters of one powered link.

    Attributes:
        p_t: Transmit power (energy per channel use), >= 0.
        p_e: Mean harvested power (energy per channel use), > 0.
        sigma2: Receiver noise power, > 0.
    """

    p_t: float
    p_e: float
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        _check_power(self.p_t)
        _check_positive("p_e", self.p_e)
        _check_positive("sigma2", self.sigma2)

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
    _check_ratio(a)
    return math.exp(-(n / 2.0) * math.log1p(2.0 * a / m))


def energy_outage_prob(m: int, n: int, a: float) -> float:
    """Complement of :func:`energy_supply_prob`."""
    return 1.0 - energy_supply_prob(m, n, a)


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
    _check_ratio(a)
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
    _check_ratio(a)
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
        raise UnsatisfiableError(f"harvest floor overflows for n={n!r}, a={a!r}, eps={epsilon!r}")
    return math.ceil(floor)


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
    _check_ratio(a)
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


def _optimum(p_e: float, sigma2: float, epsilon: float) -> tuple[float, float]:
    """(p*/sigma2, delta) of the asymptotic rate's stationarity condition.

    With the budget b = (p_e/sigma2) ln(1+eps/2), t = b - 1 and
    delta = 1 + W0(t/e), the optimum is p*/sigma2 = t/W0(t/e) - 1, which is
    (delta - b)/(1 - delta). As b -> 0 the argument t/e nears the branch
    point -1/e and t/W0 - 1 cancels, so there delta comes from the series
    p - p^2/3 + 11p^3/72 - 43p^4/540 in p = sqrt(2b) and the optimum from
    the second form.
    """
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
    if b < _BRANCH_BUDGET:
        p = math.sqrt(2.0 * b)
        delta = p * (1.0 - p * (1.0 / 3.0 - p * (11.0 / 72.0 - p * 43.0 / 540.0)))
        return (delta - b) / (1.0 - delta), delta
    t = b - 1.0
    if t == 0.0:
        # Limit t -> 0 of t / W0(t/e) is e.
        return math.e - 1.0, 1.0
    w = float(lambertw(t * _INV_E).real)
    return t / w - 1.0, 1.0 + w


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


def _rate_probe(epsilon: float, p_e: float, sigma2: float):
    """The rate that :func:`optimal_power_fbl` maximizes, as a function of p_t:
    ``achievable_rate_fbl(BlocklengthPlan(min_harvest_blocklength(n, p_t/p_e,
    eps), n, eps), LinkParams(p_t, p_e, sigma2)).rate_nats`` for the shortest
    even n, bit for bit. n, the harvest floor's growth term and the checks of
    eps, p_e and sigma2 are taken once here, so a probe is plain arithmetic."""
    n = min_transmit_blocklength(epsilon)
    _check_positive("p_e", p_e, finite=True)
    _check_positive("sigma2", sigma2, finite=True)
    growth = _floor_growth(n, epsilon)

    def rate_at(p_t: float) -> float:
        a = p_t / p_e
        m = _harvest_len(_harvest_floor(a, growth), n, a, epsilon)
        raw = _raw_rate_nats(m, n, p_t / sigma2, epsilon)
        return 0.0 if raw < 0.0 else raw

    return rate_at


def optimal_power_fbl(epsilon: float, p_e: float, sigma2: float = 1.0) -> tuple[float, float]:
    """Maximize the finite-blocklength rate over transmit power.

    For each candidate power the blocklengths are re-planned: the shortest
    even transmit length for the error target, then the shortest harvest
    length for the resulting power ratio. Each such rate probe is plain
    arithmetic on constants taken once per call (see ``_rate_probe``). The
    search is golden-section on ln(p_t) over [1e-6 * p_e, p_e], seeded by a
    32-point pre-scan; the asymptotically optimal power is always included
    as a candidate.

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
    rate_at = _rate_probe(epsilon, p_e, sigma2)
    if 1e-6 * p_e == 0.0:
        raise DomainError(f"p_e={p_e!r} is too small: the bracket end 1e-6 * p_e is 0")
    lo, hi = math.log(1e-6 * p_e), math.log(p_e)
    grid = [lo + (hi - lo) * i / 31.0 for i in range(32)]
    scans = [(rate_at(math.exp(x)), x) for x in grid]
    best_rate, best_x = max(scans)
    if best_rate <= 0.0:
        raise SearchError("rate is zero over the whole power bracket")

    # Golden-section refinement around the pre-scan winner.
    idx = grid.index(best_x)
    a_x = grid[max(idx - 1, 0)]
    b_x = grid[min(idx + 1, 31)]
    x1 = b_x - _GOLDEN * (b_x - a_x)
    x2 = a_x + _GOLDEN * (b_x - a_x)
    f1, f2 = rate_at(math.exp(x1)), rate_at(math.exp(x2))
    for _ in range(_FBL_ITERS):
        if b_x - a_x <= _FBL_XTOL * max(1.0, abs(a_x) + abs(b_x)):
            break
        if f1 < f2:
            a_x, x1, f1 = x1, x2, f2
            x2 = a_x + _GOLDEN * (b_x - a_x)
            f2 = rate_at(math.exp(x2))
        else:
            b_x, x2, f2 = x2, x1, f1
            x1 = b_x - _GOLDEN * (b_x - a_x)
            f1 = rate_at(math.exp(x1))
    candidates = [(f1, x1), (f2, x2), (best_rate, best_x)]
    p_asym = optimal_power_asymptotic(p_e, sigma2, epsilon)
    if 1e-6 * p_e <= p_asym <= p_e:
        candidates.append((rate_at(p_asym), math.log(p_asym)))
    rate_star, x_star = max(candidates)
    return math.exp(x_star), rate_star
