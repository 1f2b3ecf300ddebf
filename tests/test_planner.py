# Tests for minimum-latency blocklength planning.

import math

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from wplink import multi_pb, planner, single_pb
from wplink.single_pb import UnsatisfiableError
from wplink.single_pb import DomainError


# ----------------------------------------------------------------
# Transmit blocklength


def test_min_transmit_blocklength_known_values():
    assert single_pb.min_transmit_blocklength(0.05) == 2026
    assert single_pb.min_transmit_blocklength(1e-3) == 44318


def test_min_transmit_blocklength_rounding_and_parity():
    # eps = 0.9 gives a real floor ~2.65, rounding to 3, bumped even to 4
    assert single_pb.min_transmit_blocklength(0.9) == 4
    for eps in (1e-4, 1e-3, 0.01, 0.05, 0.3, 0.9):
        n = single_pb.min_transmit_blocklength(eps)
        assert n % 2 == 0 and n >= 2
        # within one even step of the real-valued floor
        assert abs(n - single_pb.transmit_floor(eps)) <= 2.0


def test_min_transmit_blocklength_decreases_with_epsilon():
    values = [single_pb.min_transmit_blocklength(e) for e in (1e-4, 1e-3, 0.05, 0.5)]
    assert values == sorted(values, reverse=True)


def test_min_transmit_blocklength_validation():
    with pytest.raises(DomainError):
        single_pb.min_transmit_blocklength(0.0)
    with pytest.raises(DomainError):
        single_pb.min_transmit_blocklength(1.0)


# ----------------------------------------------------------------
# Harvest blocklength, single beacon


def test_min_harvest_blocklength_known_value():
    # The minimum-latency plan at eps = 0.05 with the reference power ratio
    assert planner.min_harvest_blocklength(2026, 0.0012, 0.05) == 99


def test_min_harvest_blocklength_is_ceiling_of_real_floor():
    for a in (0.0012, 0.3, 5.0):
        for n in (2026, 4052, 10_000):
            m = planner.min_harvest_blocklength(n, a, 0.05)
            floor = single_pb.harvest_floor_real(float(n), a, 0.05)
            assert m == math.ceil(floor)
            assert m - 1 < floor <= m


def test_min_harvest_blocklength_zero_ratio():
    assert planner.min_harvest_blocklength(2026, 0.0, 0.05) == 0


def test_min_harvest_blocklength_overflow_is_unsatisfiable():
    # the real floor leaves the double range; ceil(inf) used to escape as
    # OverflowError, and eps = 1e-300 as a ZeroDivisionError
    for n, a, eps in ((2026, math.inf, 0.05), (2026, 1e308, 0.05), (2026, 0.1, 5e-324)):
        with pytest.raises(UnsatisfiableError):
            planner.min_harvest_blocklength(n, a, eps)
    n = single_pb.min_transmit_blocklength(1e-300)
    with pytest.raises(UnsatisfiableError):
        planner.min_harvest_blocklength(n, 0.1, 1e-300)


def test_min_harvest_blocklength_validation():
    with pytest.raises(DomainError):
        planner.min_harvest_blocklength(2025, 0.1, 0.05)  # odd
    with pytest.raises(DomainError):
        planner.min_harvest_blocklength(2026, -0.1, 0.05)


# ----------------------------------------------------------------
# Harvest blocklength, beacon field


NET = multi_pb.NetworkParams(density=1e-3, p_pb=1e3, mu=1.0, eta=3.6)
NET_DENSE = multi_pb.NetworkParams(density=5e-3, p_pb=1e3, mu=1.0, eta=3.6)


def bisect_min_harvest(n, p_t, net, epsilon):
    """The search the threshold planner replaced, kept as its reference:
    doubling then bisection on m, one series evaluation per probe."""
    target = 2.0 / (2.0 + epsilon)

    def ok(m):
        return multi_pb.energy_supply_prob_mp(m, n, p_t, net) >= target

    if ok(1):
        return 1
    lo, hi = 1, 2
    while not ok(hi):
        assert hi < planner._M_SEARCH_CAP
        lo, hi = hi, min(2 * hi, planner._M_SEARCH_CAP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def count_series(monkeypatch):
    """Count outage-series evaluations from here on."""
    calls = []
    series = multi_pb._outage_series
    monkeypatch.setattr(
        multi_pb, "_outage_series", lambda *args: calls.append(args) or series(*args)
    )
    return calls


def test_min_harvest_mp_is_tight_boundary():
    eps = 0.05
    target = 2.0 / (2.0 + eps)
    m = planner.min_harvest_blocklength_mp(1000, 1.0, NET, eps)
    assert multi_pb.energy_supply_prob_mp(m, 1000, 1.0, NET) >= target
    assert multi_pb.energy_supply_prob_mp(m - 1, 1000, 1.0, NET) < target


def test_min_harvest_mp_zero_power():
    assert planner.min_harvest_blocklength_mp(1000, 0.0, NET, 0.05) == 1


def test_min_harvest_mp_unsatisfiable(monkeypatch):
    # A vanishing beacon density cannot meet the target within the cap,
    # which one evaluation at m = 10^9 decides.
    ghost = multi_pb.NetworkParams(density=1e-30, p_pb=1e3, mu=1.0, eta=3.6)
    calls = count_series(monkeypatch)
    with pytest.raises(UnsatisfiableError):
        planner.min_harvest_blocklength_mp(2, 1.0, ghost, 0.05)
    assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 4, 1000, 2026, 10130])
def test_min_harvest_mp_matches_bisection(n):
    # Same m as the bisection on every grid point. Within one (n, field,
    # eps) every p_t after the first is served by the cached threshold.
    multi_pb._threshold.cache_clear()
    for net in (NET, NET_DENSE):
        for eps in (1e-3, 0.05, 0.5):
            for p_t in (0.1, 10**0.5, 100.0):
                got = planner.min_harvest_blocklength_mp(n, p_t, net, eps)
                assert got == bisect_min_harvest(n, p_t, net, eps), (net, eps, p_t)


def test_min_harvest_mp_reuses_threshold(monkeypatch):
    # one threshold solve serves every p_t of the scan and the rate gate
    multi_pb._threshold.cache_clear()
    calls = count_series(monkeypatch)
    eps, n = 0.05, 2026
    first = planner.min_harvest_blocklength_mp(n, 1.0, NET_DENSE, eps)
    solve = len(calls)
    assert solve <= 20
    ms = [planner.min_harvest_blocklength_mp(n, p_t, NET_DENSE, eps) for p_t in (0.1, 3.0, 100.0)]
    assert len(calls) - solve <= 2
    before = len(calls)
    for m, p_t in zip([first] + ms, (1.0, 0.1, 3.0, 100.0)):
        plan = single_pb.BlocklengthPlan(m=m, n=n, epsilon=eps)
        assert multi_pb.achievable_rate_mp(plan, p_t, 1.0, NET_DENSE).feasible
        plan = single_pb.BlocklengthPlan(m=m - 1, n=n, epsilon=eps)
        assert not multi_pb.achievable_rate_mp(plan, p_t, 1.0, NET_DENSE).feasible
    assert len(calls) == before


@settings(max_examples=20, deadline=None)
@given(
    density=st.floats(min_value=1e-3, max_value=1e-2),
    eta=st.floats(min_value=2.5, max_value=6.0),
    eps=st.sampled_from([1e-3, 0.05, 0.5]),
    p_t=st.floats(min_value=0.1, max_value=10.0),
    half_n=st.integers(min_value=1, max_value=1000),
    half_other=st.integers(min_value=1, max_value=1000),
)
def test_min_harvest_mp_same_m_warm_cold_and_bisected(density, eta, eps, p_t, half_n, half_other):
    # a threshold solve started from the u*/(n/2) of a solve at another n of
    # the same field and eps finds the same m as one started cold, and as the
    # direct bisection
    assume(half_n != half_other)
    net = multi_pb.NetworkParams(density=density, p_pb=1e3, eta=eta)
    n = 2 * half_n
    multi_pb._threshold.cache_clear()
    multi_pb._solved_ratio.clear()
    try:
        cold = planner.min_harvest_blocklength_mp(n, p_t, net, eps)
    except UnsatisfiableError:
        reject()  # no m up to the search cap: nothing to compare
    multi_pb._threshold.cache_clear()
    multi_pb._solved_ratio.clear()
    try:
        planner.min_harvest_blocklength_mp(2 * half_other, p_t, net, eps)
    except UnsatisfiableError:
        pass  # the other n needs an m past the search cap; the assume decides
    assume((net, 2.0 / (2.0 + eps)) in multi_pb._solved_ratio)  # that search solved
    warm = planner.min_harvest_blocklength_mp(n, p_t, net, eps)
    assert warm == cold == bisect_min_harvest(n, p_t, net, eps)


def test_min_harvest_mp_target_rounding_to_one():
    # 2/(2+eps) rounds to 1.0, so the threshold solve has no finite Newton
    # goal (log1p(-1) used to raise ValueError); m is still the smallest
    # whose supply probability reaches the target
    m = planner.min_harvest_blocklength_mp(50, 1.0, NET, 1e-308)
    assert multi_pb.energy_supply_prob_mp(m, 50, 1.0, NET) >= 1.0
    assert multi_pb.energy_supply_prob_mp(m - 1, 50, 1.0, NET) < 1.0


def test_min_harvest_mp_validation():
    with pytest.raises(DomainError):
        planner.min_harvest_blocklength_mp(1001, 1.0, NET, 0.05)  # odd
    with pytest.raises(DomainError):
        planner.min_harvest_blocklength_mp(1000, -1.0, NET, 0.05)
    with pytest.raises(DomainError):
        planner.min_harvest_blocklength_mp(1000, 1.0, NET, 1.0)
    # a non-finite power used to raise a bare ValueError from log(0)
    for p_t in (math.inf, math.nan):
        with pytest.raises(DomainError):
            planner.min_harvest_blocklength_mp(1000, p_t, NET, 0.05)


# ----------------------------------------------------------------
# Scaling laws


def test_scaling_rate_forms():
    sr = planner.scaling_rate(0.3, 0.05)
    assert sr.exact == pytest.approx(0.3 / math.log1p(0.025), rel=1e-14)
    assert sr.small_eps == pytest.approx(0.3 * 2.0 / 0.05, rel=1e-14)
    # ln(1+eps/2) < eps/2, so the exact slope always exceeds the surrogate
    assert sr.exact > sr.small_eps
    assert planner.scaling_rate(0.0, 0.05) == (0.0, 0.0)


def test_harvest_overhead_value():
    assert planner.harvest_overhead(0.0012, 0.05) == pytest.approx(1.048, rel=1e-12)
    assert planner.harvest_overhead(0.0, 0.05) == 1.0


def test_harvest_share_converges_to_scaling_rate():
    # m(n)/n approaches the exact scaling slope as the frame grows.
    a, eps = 0.7, 0.05
    n = 1_000_000
    m = planner.min_harvest_blocklength(n, a, eps)
    assert m / n == pytest.approx(planner.scaling_rate(a, eps).exact, rel=1e-3)
