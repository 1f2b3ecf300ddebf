"""Closed forms for a link powered by a Poisson field of power beacons.

The per-slot harvested energy Z is a shot-noise functional of a planar
Poisson process under the bounded path loss max(1, r^eta). Its Laplace
transform exp(g(s)) is known in closed form, and every quantity here is
driven by g and its derivatives:

* :func:`laplace_z` / :func:`mean_harvested` -- the transform and its mean.
* :func:`laplace_derivs` -- derivative ladder via the product recurrence
  for derivatives of exp(g).
* :func:`energy_supply_prob_mp` -- probability that m slots of harvesting
  cover an n-slot codeword, via a rescaled nonnegative series that stays
  stable up to n/2 = ``_SERIES_CAP`` = 1e6 terms.
* :func:`achievable_rate_mp` -- finite-blocklength rate with the
  supply-probability feasibility gate, answered from a cached bracket on
  the supply threshold 2/(2+eps) (``_threshold``), which the harvest
  length search ``planner.min_harvest_blocklength_mp`` shares.

The power ratio in this module is a = p_t / (mu * p_pb) — transmit power
over the mean *per-beacon* harvested scale — not the single-beacon p_t/p_e.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincc, betaln, hyp2f1

from . import single_pb
from .single_pb import DomainError, _check_count, _check_even_n, _check_positive, _check_power

__all__ = [
    "NetworkParams",
    "LaplaceDerivs",
    "StabilityError",
    "laplace_z",
    "mean_harvested",
    "laplace_derivs",
    "energy_supply_prob_mp",
    "achievable_rate_mp",
]

# Above this argument the radial functional is taken from its large-u
# expansion rather than the incomplete beta (see _radial).
_TAIL_U = 1e6

# Hard cap on raw derivative order: beyond this the factorially scaled
# ladder loses double-precision headroom.
_DERIV_CAP = 64

# Cap on the number of supply-series terms (n/2). The rescaled series is
# stable at this size; n/2 = 1e6 takes about 3 s and 130 MB of process
# memory on a 2-vCPU x86-64 host.
_SERIES_CAP = 1_000_000

# Terms per leaf of the outage series' divide and conquer. The per-term
# Python overhead dominates below this size, so smaller leaves only add FFTs.
_LEAF = 128

_SIGN_SLACK = 1e-9

# Threshold solve in v = ln u: stop at ln(hi/lo) <= _SOLVE_RTOL, which leaves
# at most one m inside the bracket while m < 1e10, or after _SOLVE_ITERS
# evaluations. Newton steps are capped at _LOG_STEP_CAP: from the mean-energy
# start a raw step lands at u ~ 1e32 for eps = 0.05, where the threshold is
# about 5e6. Up to _THRESHOLD_SLOTS brackets are cached.
_SOLVE_RTOL = 1e-10
_SOLVE_ITERS = 60
_LOG_STEP_CAP = 2.0
_THRESHOLD_SLOTS = 64


class StabilityError(ArithmeticError):
    """Raised when an evaluation leaves its mathematically valid range."""


@dataclass(frozen=True)
class NetworkParams:
    """Poisson beacon field parameters.

    Attributes:
        density: Beacon density (nodes per unit area), finite and > 0.
        p_pb: Beacon transmit power (energy per channel use), > 0.
        mu: Rectifier efficiency, in (0, 1].
        eta: Path loss exponent, finite and > 2.
    """

    density: float
    p_pb: float
    mu: float = 1.0
    eta: float = 3.6

    def __post_init__(self) -> None:
        if not (0.0 < self.density < math.inf):
            raise DomainError(f"density must be finite and > 0, got {self.density!r}")
        _check_positive("p_pb", self.p_pb)
        if not (0.0 < self.mu <= 1.0):
            raise DomainError(f"mu must lie in (0, 1], got {self.mu!r}")
        if not (2.0 < self.eta < math.inf):
            raise DomainError(f"eta must be finite and > 2, got {self.eta!r}")


@dataclass(frozen=True)
class LaplaceDerivs:
    """Derivatives d^k/ds^k of the energy Laplace transform at one point.

    ``values[k]`` is the k-th derivative; a Laplace transform of a
    nonnegative random variable is completely monotone, so the entries
    alternate in sign: (-1)^k values[k] >= 0.
    """

    s: float
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.s):
            raise DomainError(f"s must be finite, got {self.s!r}")
        if not self.values:
            raise DomainError("values must hold at least the 0th derivative")
        if not all(math.isfinite(v) for v in self.values):
            raise DomainError("derivative values must be finite")
        if not (0.0 < self.values[0] <= 1.0 + _SIGN_SLACK):
            raise DomainError(f"values[0] must lie in (0, 1], got {self.values[0]!r}")
        scale = max(abs(v) for v in self.values)
        for k, v in enumerate(self.values):
            if (-1.0) ** k * v < -_SIGN_SLACK * scale:
                raise DomainError(f"sign alternation violated at order {k}")

    @property
    def order(self) -> int:
        return len(self.values) - 1


# =============================================================================
# The radial functional and the Laplace transform of the harvested energy
# =============================================================================


def _radial(u: float, eta: float) -> float:
    """Radial functional F(u) = (2u/(eta-2)) 2F1(1, 1-alpha; 2-alpha; -u).

    With alpha = 2/eta and w = u/(1+u), DLMF 8.17 with Pfaff's
    transformation (15.8) gives the incomplete-beta closed form
    F(u) = alpha u^alpha (pi/sin(pi alpha)) I_w(1-alpha, alpha), taken
    through the complement I_{1-w}(alpha, 1-alpha) above u = 1. That
    complement loses digits far out (6e-11 relative at alpha = 1/2,
    u = 1e20), so past ``_TAIL_U`` the large-u expansion
    alpha [pi/sin(pi alpha) u^alpha - sum_j (-1)^j u^(-j)/(alpha+j)] takes
    over; its first omitted term (j = 4) is below 1e-24 there.
    """
    alpha = 2.0 / eta
    lead = math.pi / math.sin(math.pi * alpha)
    if u > _TAIL_U:
        tail = sum((-1.0) ** j * u ** (-j) / (alpha + j) for j in range(4))
        return alpha * (lead * u**alpha - tail)
    if u <= 1.0:
        beta = betainc(1.0 - alpha, alpha, u / (1.0 + u))
    else:
        beta = betaincc(alpha, 1.0 - alpha, 1.0 / (1.0 + u))
    return alpha * lead * u**alpha * float(beta)


def _log_laplace(u: float, net: NetworkParams) -> float:
    """g(u) = ln L_Z expressed in the scaled argument u = p_pb*mu*s."""
    return -math.pi * net.density * (u / (1.0 + u) + _radial(u, net.eta))


def laplace_z(s: float, net: NetworkParams) -> float:
    """Laplace transform E[exp(-s Z)] of the per-slot harvested energy."""
    if not (s >= 0.0):
        raise DomainError(f"s must be >= 0, got {s!r}")
    if s == 0.0:
        return 1.0
    u = net.p_pb * net.mu * s
    if u == math.inf:
        return 0.0  # the limit: Z > 0 almost surely in an infinite field
    return math.exp(_log_laplace(u, net))


def mean_harvested(net: NetworkParams) -> float:
    """Mean per-slot harvested energy: pi*density*(eta/(eta-2))*mu*p_pb."""
    return math.pi * net.density * (net.eta / (net.eta - 2.0)) * net.mu * net.p_pb


def _g_derivs(s: float, order: int, net: NetworkParams) -> list[float]:
    """[g'(s), ..., g^(order)(s)] for g = ln L_Z, from the series coefficients.

    g^(r)(s) = (-1)^r (r-1)! c_r / s^r with the c_r of the outage series.
    Where w = u/(1+u) <= 1/2 the c_r (about w^r) underflow before the
    division by s^r, so there the positive-argument 2F1 form takes over.
    """
    u = net.p_pb * net.mu * s
    if u <= 1.0:
        return _g_derivs_hyp(s, order, net)
    r = np.arange(1, order + 1, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        scaled = _series_coefficients(order, u, net) / np.power(s, r)
    return [(-1.0) ** k * math.factorial(k - 1) * x for k, x in enumerate(scaled.tolist(), 1)]


def _g_derivs_hyp(s: float, order: int, net: NetworkParams) -> list[float]:
    """[g'(s), ..., g^(order)(s)] from the positive-argument 2F1 form.

    F^(r)(u) = (-1)^(r+1) r! alpha/(r-alpha) (1+u)^(-r-1)
    2F1(r+1, 1; r+1-alpha; w), so with the near-field term
    g^(r)(s) = (-1)^r pi density r! b^r (1+u)^(-r-1)
    [1 + alpha/(r-alpha) 2F1(r+1, 1; r+1-alpha; w)], b = p_pb*mu.
    SciPy's ``hyp2f1`` evaluates it for any w in [0, 1). It shares no
    special-function code with :func:`_g_derivs` above u = 1, which makes
    it the audit route there.
    """
    alpha = 2.0 / net.eta
    b = net.p_pb * net.mu
    u = b * s
    w = u / (1.0 + u)
    out = []
    scale = math.pi * net.density / (1.0 + u)
    for r in range(1, order + 1):
        scale *= -r * b / (1.0 + u)  # (-1)^r pi density r! b^r (1+u)^(-r-1)
        hyp = float(hyp2f1(r + 1.0, 1.0, r + 1.0 - alpha, w))
        out.append(scale * (1.0 + alpha / (r - alpha) * hyp))
    return out


def _ladder(l0: float, g: list[float]) -> list[float]:
    """[L, L', ..., L^(len(g))] for L = exp(g), from L = l0 and g = [g', g'', ...].

    L^(i) = sum_j C(i-1, j) g^(i-j) L^(j), the complete Bell recurrence.
    For g = ln L_Z every (-1)^r g^(r) is >= 0, so each term carries the
    sign (-1)^i and the sum cannot cancel.
    """
    values = [l0]
    for i in range(1, len(g) + 1):
        values.append(sum(math.comb(i - 1, j) * g[i - j - 1] * values[j] for j in range(i)))
    return values


def laplace_derivs(s: float, order: int, net: NetworkParams) -> LaplaceDerivs:
    """Derivatives of the energy Laplace transform, orders 0..order.

    With L = exp(g), successive derivatives obey
    L^(i) = sum_j C(i-1, j) g^(i-j) L^(j), which needs only the derivatives
    of g; those come from the same incomplete-beta closed form as the
    outage-series coefficients (for u = p_pb*mu*s <= 1, from the
    positive-argument 2F1 form instead).

    Raises:
        DomainError: If ``order`` is not an integer in [0, 64] (the
            stability cap), or a derivative leaves the double range.
    """
    _check_positive("s", s)
    if not (0 <= order <= _DERIV_CAP and int(order) == order):
        raise DomainError(f"derivative order must be an integer in [0, {_DERIV_CAP}], got {order!r}")
    values = _ladder(laplace_z(s, net), _g_derivs(s, order, net))
    return LaplaceDerivs(s=s, values=tuple(values))


# =============================================================================
# Energy supply probability
# =============================================================================


def _series_coefficients(count: int, u: float, net: NetworkParams) -> np.ndarray:
    """Nonnegative ladder coefficients c_1..c_count for the outage series.

    c_r = (-1)^r u^r g^(r)(u) / (r-1)! in the scaled argument; both the
    near-field term and the radial-functional term reduce to closed forms
    (a geometric-in-w sequence and an incomplete-beta integral), which is
    what keeps the series free of factorials and cancellation.
    """
    alpha = 2.0 / net.eta
    w = u / (1.0 + u)
    log_w = math.log(u) - math.log1p(u)
    r = np.arange(1, count + 1, dtype=float)
    # A dense field can push c_r past the double range (pi*density = inf
    # even makes 0 * inf = NaN); the callers reject non-finite results.
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        near = r * np.exp(r * log_w) / (1.0 + u)
        radial = (
            (2.0 / net.eta)
            * r
            * math.exp(alpha * math.log(u))
            * np.exp(betaln(1.0 + alpha, r - alpha))
            * betainc(r - alpha, 1.0 + alpha, w)
        )
        return math.pi * net.density * (near + radial)


def _harvest_arg(m: int, p_t: float, net: NetworkParams) -> float:
    """Scaled series argument u = m*mu*p_pb/(2 p_t): the supply probability
    depends on (m, p_t, mu, p_pb) only through it."""
    return m * net.mu * net.p_pb / (2.0 * p_t)


def _check_supply_args(m: int, n: int, p_t: float) -> None:
    _check_count("harvest blocklength m", m)
    _check_even_n(n)
    if n // 2 > _SERIES_CAP:
        raise DomainError(f"n/2 = {n // 2} exceeds the series cap {_SERIES_CAP}")
    _check_power(p_t, finite=True)


def _outage_series(count: int, u: float, net: NetworkParams) -> tuple[float, float, float]:
    """(log offset, sum_{i<count} T_i, T_count) of the outage series at u > 0.

    The outage is exp(offset) * sum_{i<count} T_i, and
    d(outage)/du = -(count/u) exp(offset) T_count. The recurrence
    i T_i = sum_{r=1..i} c_r T_{i-r}, T_0 = 1, is an online convolution:
    divide and conquer over power-of-two blocks adds the left half's
    contribution to the right half's pending sums ``acc`` with one FFT
    product, and leaves of ``_LEAF`` terms run the direct loop, so the cost
    is O(count log^2 count). Whenever a term below T_count passes the
    rescale bound min(1e250, 1e300 / sum c_r), every term so far and every
    pending sum is divided by it and the log offset absorbs it. A term is at
    most the largest earlier one times sum c_r, so no term passes 1e300 and
    no FFT product passes count * 1e300. The sum then holds a term equal to
    1, so exp(offset) stays below the outage and cannot overflow.

    Raises:
        StabilityError: If sum c_r passes 1e300 (an extremely dense field),
            beyond what the rescaled recurrence can carry.
    """
    size = 1 << count.bit_length()  # > count, so T_0..T_count all fit
    c = np.zeros(size)
    c[1 : count + 1] = _series_coefficients(count, u, net)
    with np.errstate(over="ignore"):
        c_sum = float(c.sum())
    if not c_sum <= 1e300:  # also NaN
        raise StabilityError(
            f"outage series coefficients sum to {c_sum:.3g} at u={u!r}, beyond the"
            " double range the rescaled series can carry"
        )
    # min(1e250, 1e300 / c_sum), at least 1 (1e300 / 1e50 is 1e250 exactly)
    rescale = 1e300 / max(c_sum, 1e50)
    # c reversed, so that the leaf's dot products run on unit strides
    # (c[i-lo], ..., c[1] is c_rev[top-(i-lo) : top]), which halves their cost
    c_rev = c[::-1].copy()
    top = size - 1
    t = np.zeros(size)
    t[0] = 1.0
    acc = np.zeros(size)
    offset = _log_laplace(u, net)
    c_hat = {}  # FFT of c[:width] per block width; c is shared by every block

    def solve(lo: int, hi: int) -> None:
        nonlocal offset
        if hi - lo <= _LEAF:
            for i in range(max(lo, 1), min(hi, count + 1)):
                ti = (acc[i] + t[lo:i].dot(c_rev[top - (i - lo) : top])) / i
                t[i] = ti
                if ti > rescale and i < count:
                    t[: i + 1] /= ti
                    acc[i + 1 :] /= ti
                    offset += math.log(ti)
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        if mid > count:
            return
        width = hi - lo
        if width not in c_hat:
            c_hat[width] = np.fft.rfft(c[:width])
        # Cyclic length ``width`` leaves indices [mid-lo, width) alias-free.
        conv = np.fft.irfft(np.fft.rfft(t[lo:mid], width) * c_hat[width], width)
        acc[mid:hi] += conv[mid - lo :]
        solve(mid, hi)

    solve(0, size)
    return offset, float(np.sum(t[:count])), float(t[count])


def _supply_and_slope(count: int, u: float, net: NetworkParams) -> tuple[float, float, float]:
    """(supply probability, ln outage, d ln(outage)/d ln u) at u = m*mu*p_pb/(2 p_t).

    The supply probability is the value :func:`energy_supply_prob_mp` returns.

    Raises:
        StabilityError: If the series coefficients leave the double range
            (an extremely dense field), or the accumulated outage leaves
            [0, 1] beyond tolerance.
    """
    if u == 0.0:
        # Underflowed argument: no harvested energy, so certain outage.
        return 0.0, 0.0, 0.0
    if not math.isfinite(u) or u > 1e200:
        # The threshold argument dwarfs any representable series scale;
        # outage is far below double-precision resolution.
        return 1.0, -math.inf, -math.inf
    offset, total, t_last = _outage_series(count, u, net)
    # The product keeps the outage's relative error at a few ulps; the sum
    # offset + ln(total) would add an absolute error of up to |offset|*2^-53.
    # Where exp(offset) underflows, the outage is below exp(-150).
    outage = math.exp(offset) * total
    if not outage <= 1.0 + _SIGN_SLACK:  # also NaN
        raise StabilityError(f"outage series left [0, 1]: {outage!r}")
    return max(0.0, 1.0 - outage), offset + math.log(total), -count * t_last / total


class _Threshold:
    """Bracket on the supply threshold of one (n/2, net, epsilon).

    The supply probability depends on (m, p_t, mu, p_pb) only through the
    scaled argument u = m*mu*p_pb/(2 p_t) and increases with it, so one
    threshold u* in u serves every p_t. ``lo`` is the largest u evaluated
    infeasible and ``hi`` the smallest evaluated feasible (0 and inf to
    start, the limits of the supply probability), where feasible is
    exactly ``energy_supply_prob_mp(...) >= 2/(2+eps)``.
    """

    def __init__(self, count: int, net: NetworkParams, epsilon: float) -> None:
        self.count = count
        self.net = net
        self.target = 2.0 / (2.0 + epsilon)
        self.lo = 0.0
        self.hi = math.inf

    def feasible(self, u: float) -> bool:
        """Whether the supply probability at u reaches the target; it is
        evaluated only when u lies strictly inside the bracket."""
        if u >= self.hi:
            return True
        if u <= self.lo:
            return False
        return self._evaluate(u)[0]

    def _evaluate(self, u: float) -> tuple[bool, float, float]:
        supply, log_outage, slope = _supply_and_slope(self.count, u, self.net)
        ok = supply >= self.target
        if ok:
            self.hi = u
        else:
            self.lo = u
        return ok, log_outage, slope

    def solve(self) -> None:
        """Shrink the bracket, whose hi must be finite, to ln(hi/lo) <= ``_SOLVE_RTOL``.

        Newton on ln(outage) = ln(1 - target) in v = ln u, started where the
        mean harvested energy covers the codeword. The slope
        d ln(outage)/d ln u = -(n/2) T_{n/2} / sum_{i<n/2} T_i comes with the
        outage itself. Steps are capped at ``_LOG_STEP_CAP``, a step leaving
        the bracket becomes a bisection of it, and every step overshoots by
        a quarter of the tolerance so that the iterates straddle u*. Stopping
        early only leaves more of the search to direct evaluations.
        """
        # A target that rounds to 1 leaves no finite Newton goal; capped
        # steps and bisection then find the bracket alone.
        log_budget = math.log1p(-self.target) if self.target < 1.0 else -math.inf
        mean_u = self.count * self.net.p_pb * self.net.mu / mean_harvested(self.net)
        v = math.log(mean_u)
        for _ in range(_SOLVE_ITERS):
            lo_v = math.log(self.lo) if self.lo > 0.0 else -math.inf
            hi_v = math.log(self.hi)
            if hi_v - lo_v <= _SOLVE_RTOL:
                return
            if not lo_v < v < hi_v:
                v = hi_v - _LOG_STEP_CAP if lo_v == -math.inf else 0.5 * (lo_v + hi_v)
            ok, log_outage, slope = self._evaluate(math.exp(v))
            step = (log_budget - log_outage) / slope if -math.inf < slope < 0.0 else math.nan
            if not abs(step) <= _LOG_STEP_CAP:  # also NaN: no usable slope
                step = -_LOG_STEP_CAP if ok else _LOG_STEP_CAP
            v += step + math.copysign(0.25 * _SOLVE_RTOL, step)


# Thresholds by (n/2, net, epsilon), least recently used evicted first. Each
# entry records only evaluations of a pure function, so sharing it between
# callers changes no answer; ``cli.main`` clears the cache so that every run
# starts cold.
@functools.lru_cache(maxsize=_THRESHOLD_SLOTS)
def _threshold(count: int, net: NetworkParams, epsilon: float) -> _Threshold:
    return _Threshold(count, net, epsilon)


def _meets_supply_target(m: int, n: int, p_t: float, net: NetworkParams, epsilon: float) -> bool:
    """``energy_supply_prob_mp(m, n, p_t, net) >= 2/(2+epsilon)``, answered
    from the cached threshold bracket when it decides, evaluated otherwise."""
    _check_supply_args(m, n, p_t)
    if p_t == 0.0:
        return True
    return _threshold(int(n) // 2, net, epsilon).feasible(_harvest_arg(m, p_t, net))


def energy_supply_prob_mp(m: int, n: int, p_t: float, net: NetworkParams) -> float:
    """Probability that m harvesting slots cover an n-slot codeword.

    Evaluates 1 minus the outage series sum_{i<n/2} T_i, where
    T_i = (-1)^i s^i L^(i)(s) / i! at s = m/(2a), a = p_t/(mu*p_pb).
    Each T_i is nonnegative (it is E[(sZ)^i exp(-sZ)]/i!), and the ladder
    T_i = (1/i) sum_r c_r T_{i-r} with nonnegative c_r makes the partial
    sums monotone — no alternation, no factorial growth. A running
    log-offset rescales the ladder whenever values approach the double
    range, so very negative exponents g(s) stay exact. The ladder is
    evaluated as an FFT-based online convolution in O(n log^2 n).

    Raises:
        DomainError: m < 1, odd n, n/2 beyond the series cap, or a
            negative or non-finite p_t.
        StabilityError: If the series coefficients leave the double range
            (an extremely dense field), or the accumulated outage leaves
            [0, 1] beyond tolerance.
    """
    _check_supply_args(m, n, p_t)
    if p_t == 0.0:
        return 1.0
    return _supply_and_slope(int(n) // 2, _harvest_arg(m, p_t, net), net)[0]


def achievable_rate_mp(
    plan: "single_pb.BlocklengthPlan",
    p_t: float,
    sigma2: float,
    net: NetworkParams,
) -> "single_pb.RateResult":
    """Finite-blocklength achievable rate for a Poisson-field powered link.

    The rate expression matches the single-beacon bound with SNR
    p_t/sigma2; feasibility requires the transmit blocklength to reach the
    error-target floor and the supply probability to reach 2/(2+eps).
    """
    _check_power(p_t)
    _check_positive("sigma2", sigma2)
    raw = single_pb._raw_rate_nats(plan.m, plan.n, p_t / sigma2, plan.epsilon)
    if plan.epsilon == 0.0:
        feasible = p_t == 0.0
    else:
        feasible = plan.n >= single_pb.min_transmit_blocklength(plan.epsilon) and (
            _meets_supply_target(plan.m, plan.n, p_t, net, plan.epsilon)
        )
    return single_pb._rate_result(raw, feasible)
