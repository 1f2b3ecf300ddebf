"""Minimum-latency blocklength planning.

Given an error target (and a power ratio or network), pick the shortest
transmit phase admitted by the target and the shortest harvest phase that
powers it, plus the scaling-law helpers describing how the harvest phase
grows with the transmit phase.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import multi_pb, single_pb
from .single_pb import _check_epsilon, _check_even_n, _check_ratio

__all__ = [
    "UnsatisfiableError",
    "ScalingRate",
    "min_transmit_blocklength",
    "min_harvest_blocklength",
    "min_harvest_blocklength_mp",
    "scaling_rate",
    "harvest_overhead",
]

_M_SEARCH_CAP = 10 ** 9

# Threshold solve in v = ln u: stop at ln(hi/lo) <= _SOLVE_RTOL, which leaves
# at most one m inside the bracket while m < 1e10, or after _SOLVE_ITERS
# evaluations. Newton steps are capped at _LOG_STEP_CAP: from the mean-energy
# start a raw step lands at u ~ 1e32 for eps = 0.05, where the threshold is
# about 5e6. Up to _THRESHOLD_SLOTS brackets are cached.
_SOLVE_RTOL = 1e-10
_SOLVE_ITERS = 60
_LOG_STEP_CAP = 2.0
_THRESHOLD_SLOTS = 64


class UnsatisfiableError(RuntimeError):
    """No harvest blocklength up to the search cap meets the constraint."""


class ScalingRate(NamedTuple):
    """Harvest-per-transmit slot ratio, exact and small-epsilon forms."""

    exact: float
    small_eps: float


def min_transmit_blocklength(epsilon: float) -> int:
    """Shortest even transmit blocklength admitted by the error target.

    The real-valued floor (ln((2+eps)/eps^2))^4 is rounded to the nearest
    integer and then pushed up to the next even value, with 2 as the
    smallest possible answer.
    """
    n = max(int(math.floor(single_pb.transmit_floor(epsilon) + 0.5)), 2)
    return n + 1 if n % 2 else n


def min_harvest_blocklength(n: int, a: float, epsilon: float) -> int:
    """Shortest harvest blocklength powering an n-slot transmit phase.

    Raises:
        DomainError: Odd n, a < 0, or eps outside (0, 1).
        UnsatisfiableError: If the real-valued floor leaves the double range.
    """
    _check_even_n(n)
    return _harvest_len(single_pb.harvest_floor_real(float(n), a, epsilon), n, a, epsilon)


def _harvest_len(floor: float, n: int, a: float, epsilon: float) -> int:
    """The harvest length of a real floor: its ceiling, unless it overflowed."""
    if floor == math.inf:
        raise UnsatisfiableError(f"harvest floor overflows for n={n!r}, a={a!r}, eps={epsilon!r}")
    return math.ceil(floor)


class _Threshold:
    """Bracket on the supply threshold of one (n/2, net, epsilon).

    The supply probability depends on (m, p_t, mu, p_pb) only through the
    scaled argument u = m*mu*p_pb/(2 p_t) and increases with it, so one
    threshold u* in u serves every p_t. ``lo`` is the largest u evaluated
    infeasible and ``hi`` the smallest evaluated feasible (0 and inf to
    start, the limits of the supply probability), where feasible is
    exactly ``energy_supply_prob_mp(...) >= 2/(2+eps)``.
    """

    def __init__(self, count: int, net: "multi_pb.NetworkParams", epsilon: float) -> None:
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
        supply, log_outage, slope = multi_pb._supply_and_slope(self.count, u, self.net)
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
        mean_u = self.count * self.net.p_pb * self.net.mu / multi_pb.mean_harvested(self.net)
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


# Thresholds by (n/2, net, epsilon), least recently used first. Each entry
# records only evaluations of a pure function, so sharing it between callers
# changes no answer; ``cli.main`` clears it so that every run starts cold.
_THRESHOLDS: dict[tuple, _Threshold] = {}


def _threshold(count: int, net: "multi_pb.NetworkParams", epsilon: float) -> _Threshold:
    key = (count, net, epsilon)
    entry = _THRESHOLDS.pop(key, None) or _Threshold(count, net, epsilon)
    _THRESHOLDS[key] = entry
    if len(_THRESHOLDS) > _THRESHOLD_SLOTS:
        del _THRESHOLDS[next(iter(_THRESHOLDS))]
    return entry


def _meets_supply_target(
    m: int, n: int, p_t: float, net: "multi_pb.NetworkParams", epsilon: float
) -> bool:
    """``energy_supply_prob_mp(m, n, p_t, net) >= 2/(2+epsilon)``, answered
    from the cached threshold bracket when it decides, evaluated otherwise."""
    multi_pb._check_supply_args(m, n, p_t)
    if p_t == 0.0:
        return True
    return _threshold(int(n) // 2, net, epsilon).feasible(multi_pb._harvest_arg(m, p_t, net))


def min_harvest_blocklength_mp(
    n: int,
    p_t: float,
    net: "multi_pb.NetworkParams",
    epsilon: float,
) -> int:
    """Shortest harvest blocklength for a Poisson-field powered link.

    Finds the smallest m whose energy supply probability reaches 2/(2+eps).
    The threshold in u = m*mu*p_pb/(2 p_t) is solved once per
    (n, net, eps) and cached, so other transmit powers cost no more series
    evaluations unless some m lands inside the solved bracket; those m are
    evaluated directly.

    Raises:
        DomainError: Odd n, n/2 beyond the series cap, a negative or
            non-finite p_t, or eps outside (0, 1).
        UnsatisfiableError: If the constraint still fails at m = 10^9.
    """
    multi_pb._check_supply_args(1, n, p_t)  # m = 1: check n and p_t alone
    _check_epsilon(epsilon)
    if p_t == 0.0:
        return 1
    threshold = _threshold(int(n) // 2, net, epsilon)

    def ok(m: int) -> bool:
        return threshold.feasible(multi_pb._harvest_arg(m, p_t, net))

    if not ok(_M_SEARCH_CAP):
        raise UnsatisfiableError(
            f"supply probability below {threshold.target:.6g} even at m={_M_SEARCH_CAP}"
        )
    if ok(1):
        return 1
    threshold.solve()
    # Invariant: ok(hi) and not ok(lo). Outside the solved bracket ok() is a
    # comparison, so only m with u inside it cost an evaluation.
    lo, hi = 1, _M_SEARCH_CAP
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def scaling_rate(a: float, epsilon: float) -> ScalingRate:
    """Asymptotic harvest slots needed per transmit slot.

    Returns the exact ratio a/ln(1+eps/2) alongside the small-epsilon
    approximation 2a/eps.
    """
    _check_epsilon(epsilon)
    _check_ratio(a)
    return ScalingRate(
        exact=a / math.log1p(0.5 * epsilon),
        small_eps=2.0 * a / epsilon,
    )


def harvest_overhead(a: float, epsilon: float) -> float:
    """Frame-length inflation factor from harvesting: 1 + 2a/eps."""
    _check_epsilon(epsilon)
    _check_ratio(a)
    return 1.0 + 2.0 * a / epsilon
