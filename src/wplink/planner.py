"""Minimum-latency blocklength planning.

Given an error target and a power ratio or network, find the shortest
harvest phase that powers a transmit phase, plus the scaling-law helpers
describing how the harvest phase grows with the transmit phase. The rules
the searches apply live with their link models: the transmit floor
``min_transmit_blocklength`` and the harvest floor in ``single_pb``, the
field's cached supply threshold 2/(2+eps) in ``multi_pb``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import multi_pb, single_pb
from .single_pb import (UnsatisfiableError, _check_epsilon, _check_even_n,
                        _check_nonnegative, _harvest_len)

__all__ = [
    "ScalingRate",
    "min_harvest_blocklength",
    "min_harvest_blocklength_mp",
    "scaling_rate",
    "harvest_overhead",
]

_M_SEARCH_CAP = 10 ** 9


class ScalingRate(NamedTuple):
    """Harvest-per-transmit slot ratio, exact and small-epsilon forms."""

    exact: float
    small_eps: float


def min_harvest_blocklength(n: int, a: float, epsilon: float) -> int:
    """Shortest harvest blocklength powering an n-slot transmit phase.

    Raises:
        DomainError: Odd n, a < 0, or eps outside (0, 1).
        UnsatisfiableError: If the real-valued floor leaves the double range.
    """
    _check_even_n(n)
    return _harvest_len(single_pb.harvest_floor_real(float(n), a, epsilon), n, a, epsilon)


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
    threshold = multi_pb._threshold(int(n) // 2, net, epsilon)

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
    _check_nonnegative("power ratio a", a)
    return ScalingRate(
        exact=a / math.log1p(0.5 * epsilon),
        small_eps=2.0 * a / epsilon,
    )


def harvest_overhead(a: float, epsilon: float) -> float:
    """Frame-length inflation factor from harvesting: 1 + 2a/eps."""
    _check_epsilon(epsilon)
    _check_nonnegative("power ratio a", a)
    return 1.0 + 2.0 * a / epsilon
