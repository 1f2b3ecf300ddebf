# Tests for the single-beacon closed forms: supply probability, rate
# bounds, and the optimal-power solutions.

import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wplink import montecarlo, multi_pb, planner, single_pb
from wplink.single_pb import (
    BlocklengthPlan,
    DomainError,
    LinkParams,
    SearchError,
    achievable_rate_fbl,
    asymptotic_rate,
    asymptotic_supply_limit,
    capacity_prelog,
    energy_outage_prob,
    energy_supply_prob,
    harvest_floor_real,
    harvest_len_covers_transmit,
    harvest_len_feasible_at_floor,
    high_reliability_rate,
    min_power_ratio,
    optimal_power_asymptotic,
    optimal_power_fbl,
    optimal_power_slope,
    transmit_floor,
    transmit_len_meets_error_floor,
    transmit_len_within_energy_cap,
    within_derivation_domain,
)


# ----------------------------------------------------------------
# Energy supply probability


def test_supply_prob_reference_value():
    # frozen: mpmath (1 + 2a/m)^(-n/2) at 30 digits
    assert energy_supply_prob(100, 50, 0.1) == pytest.approx(
        0.95127692383750769, rel=1e-14
    )


@pytest.mark.parametrize(
    "m, n, a, outage",
    [
        (10 ** 6, 2, 0.1, 1.999999600000080111e-7),
        (10 ** 12, 4, 0.1, 3.999999999998800222e-13),
    ],
    ids=["m-1e6", "m-1e12"],
)
def test_outage_prob_reference_value(m, n, a, outage):
    # frozen: mpmath 1 - (1 + 2a/m)^(-n/2) at 50 digits, with a the double
    # 0.1. One minus the supply loses 1.9e-10 and 3.3e-5 relative here.
    assert energy_outage_prob(m, n, a) == pytest.approx(outage, rel=1e-15, abs=0.0)


def test_supply_prob_edge_cases():
    assert energy_supply_prob(10, 4, 0.0) == 1.0
    assert energy_outage_prob(10, 4, 0.0) == 0.0
    # huge ratio drives the probability toward 0 but never below
    assert 0.0 < energy_supply_prob(2, 200, 50.0) < 1e-150


def test_supply_prob_input_validation():
    with pytest.raises(DomainError):
        energy_supply_prob(0, 4, 0.1)
    with pytest.raises(DomainError):
        energy_supply_prob(10, 3, 0.1)  # odd transmit length
    with pytest.raises(DomainError):
        energy_supply_prob(10, 4, -0.1)


NET = multi_pb.NetworkParams(density=1e-3, p_pb=1e3)
CFG = montecarlo.McConfig(trials=16)

# Every entry point that takes a slot count, called with m = 10 and n = 4
# unless one of them is replaced.
COUNT_ENTRY_POINTS = {
    "energy_supply_prob": lambda m, n: energy_supply_prob(m, n, 0.1),
    "min_power_ratio": lambda m, n: min_power_ratio(m, n, 0.5),
    "BlocklengthPlan": lambda m, n: BlocklengthPlan(m, n, 0.05),
    "min_harvest_blocklength": lambda m, n: planner.min_harvest_blocklength(n, 0.1, 0.05),
    "energy_supply_prob_mp": lambda m, n: multi_pb.energy_supply_prob_mp(m, n, 1.0, NET),
    "min_harvest_blocklength_mp": lambda m, n: planner.min_harvest_blocklength_mp(
        n, 1.0, NET, 0.05
    ),
    "estimate_supply_prob_single": lambda m, n: montecarlo.estimate_supply_prob_single(
        m, n, 0.1, 1.0, CFG
    ),
    "check_prefix_equivalence": lambda m, n: montecarlo.check_prefix_equivalence(
        m, n, 0.1, 1.0, CFG
    ),
    "estimate_supply_prob_mp": lambda m, n: montecarlo.estimate_supply_prob_mp(
        m, n, 1.0, NET, CFG
    ),
}


@pytest.mark.parametrize(
    "value", [math.inf, math.nan, 2.5, 10 ** 400], ids=["inf", "nan", "2.5", "1e400"]
)
@pytest.mark.parametrize(
    "entry, slot",
    [
        (entry, slot)
        for entry in COUNT_ENTRY_POINTS
        for slot in ("m", "n")
        if slot == "n" or not entry.startswith("min_harvest")
    ],
)
def test_count_rule_at_every_entry_point(entry, slot, value):
    # inf used to escape as a bare OverflowError, NaN as a ValueError, and
    # the Monte Carlo estimators took m = 2.5; a whole float is a count
    # (n = 4.0 used to fail inside the series and the symbol draws); an
    # integer past the double range mostly escaped as a bare OverflowError
    counts = {"m": 10, "n": 4, slot: value}
    COUNT_ENTRY_POINTS[entry](10.0, 4.0)
    with pytest.raises(DomainError, match="must be an (even )?integer >="):
        COUNT_ENTRY_POINTS[entry](counts["m"], counts["n"])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=1, max_value=1000).map(lambda k: 2 * k),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_supply_prob_bounds_and_monotonicity(m, n, a):
    p = energy_supply_prob(m, n, a)
    # extreme (n, a/m) combinations may underflow to exactly 0.0
    assert 0.0 <= p <= 1.0
    assert energy_outage_prob(m, n, a) == pytest.approx(1.0 - p, abs=1e-15)
    # longer harvest helps, longer codeword or higher power hurts
    assert energy_supply_prob(m + 1, n, a) >= p
    assert energy_supply_prob(m, n + 2, a) <= p
    assert energy_supply_prob(m, n, a + 0.5) <= p


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=1, max_value=500).map(lambda k: 2 * k),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-9),
)
def test_min_power_ratio_round_trip(m, n, rho):
    a = min_power_ratio(m, n, rho)
    assert a >= 0.0
    assert energy_supply_prob(m, n, a) == pytest.approx(rho, rel=1e-12)


def test_min_power_ratio_reference_value():
    # frozen: mpmath (m/2)(rho^(-2/n) - 1) at 30 digits
    assert min_power_ratio(1500, 1000, 0.9) == pytest.approx(
        0.15805742591378064, rel=1e-14
    )
    with pytest.raises(DomainError):
        min_power_ratio(10, 4, 0.0)


def test_derivation_domain_predicate():
    assert within_derivation_domain(10, 4.9)
    assert not within_derivation_domain(10, 5.0)


def test_supply_limit_is_strict_upper_gap():
    # Along m = c*n the supply probability approaches exp(-a/c) from above.
    a, c = 0.1, 2.0
    limit = asymptotic_supply_limit(a, c)
    assert limit == pytest.approx(math.exp(-a / c), rel=1e-15)
    last_gap = math.inf
    for n in (100, 10_000, 1_000_000):
        gap = energy_supply_prob(int(c * n), n, a) - limit
        assert 0.0 < gap < last_gap
        last_gap = gap
    assert last_gap < 1e-6


# ----------------------------------------------------------------
# Feasibility constraints


def test_transmit_floor_value():
    # eps = 0.05 -> (ln(2.05/0.0025))^4, about 2026.3
    x = transmit_floor(0.05)
    assert x == pytest.approx(math.log(2.05 / 0.0025) ** 4, rel=1e-14)
    assert 2026.0 < x < 2027.0


def test_transmit_floor_is_finite_for_tiny_epsilon():
    # eps^2 underflows to 0 below eps ~ 1e-162, where the floor used to
    # divide by zero (and return inf a little above)
    for eps in (1e-155, 1e-300, 5e-324):
        exact = mp.log((2 + mp.mpf(eps)) / mp.mpf(eps) ** 2) ** 4
        assert transmit_floor(eps) == pytest.approx(float(exact), rel=1e-14)
        assert single_pb.min_transmit_blocklength(eps) % 2 == 0


def test_harvest_floor_real_basics():
    assert harvest_floor_real(100.0, 0.0, 0.05) == 0.0
    m_floor = harvest_floor_real(2026.0, 0.5, 0.05)
    # growing n makes each transmit slot cost more total energy
    assert harvest_floor_real(4000.0, 0.5, 0.05) > m_floor
    # the floor is exactly the boundary of the covering predicate
    assert harvest_len_covers_transmit(m_floor, 2026.0, 0.5, 0.05)
    assert not harvest_len_covers_transmit(m_floor * (1 - 1e-12), 2026.0, 0.5, 0.05)


def test_harvest_floor_real_overflows_to_inf():
    # (1 + eps/2)^(2/n) - 1 rounds to 0 at the smallest eps: no ZeroDivisionError
    assert harvest_floor_real(2026.0, 0.1, 5e-324) == math.inf
    assert harvest_floor_real(2026.0, 1e308, 0.05) == math.inf


def test_energy_cap_holds_without_energy():
    # with a = 0 the codeword needs no energy; m = 0 used to give 0/0
    assert transmit_len_within_energy_cap(2026, 0, 0.0, 0.05)
    assert transmit_len_within_energy_cap(1e9, 5, 0.0, 0.05)
    res = achievable_rate_fbl(BlocklengthPlan(0, 2026, 0.05), LinkParams(p_t=0.0, p_e=100.0))
    assert res.feasible and res.rate_nats == 0.0


def test_energy_cap_is_zero_without_harvest():
    # with a > 0 and m = 0 nothing is harvested; 2a/m used to divide by zero
    assert not transmit_len_within_energy_cap(2, 0, 0.1, 0.05)
    assert not transmit_len_within_energy_cap(2026, 0.0, 1e-300, 0.05)


def test_constraint_forms_agree_on_operating_domain():
    # On n >= transmit floor the two published constraint pairs coincide.
    eps = 0.05
    n = 2028.0  # smallest even integer above the real floor
    # m exactly on the floor is skipped: the two forms round differently
    # at the knife edge, so probe a hair above it instead.
    for a in (0.0, 0.3, 2.0):
        for m_scale in (0.5, 1.0 + 1e-9, 2.0):
            m = max(1.0, harvest_floor_real(n, a, eps) * m_scale)
            lhs = harvest_len_covers_transmit(
                m, n, a, eps
            ) and transmit_len_within_energy_cap(n, m, a, eps)
            rhs = transmit_len_meets_error_floor(
                n, eps
            ) and harvest_len_feasible_at_floor(m, a, eps)
            assert lhs == rhs


def test_constraint_forms_diverge_below_the_floor():
    # Counterexample outside the operating domain: a huge harvest phase and
    # a two-slot codeword satisfy the energy pair but not the error floor.
    eps, a, m, n = 0.05, 1.0, 1_000_000.0, 2.0
    assert harvest_len_covers_transmit(m, n, a, eps)
    assert transmit_len_within_energy_cap(n, m, a, eps)
    assert not transmit_len_meets_error_floor(n, eps)


# ----------------------------------------------------------------
# Rates


def test_rate_reference_value():
    # frozen: mpmath evaluation of the rate bound at 30 digits
    plan = BlocklengthPlan(m=99, n=2026, epsilon=0.05)
    res = achievable_rate_fbl(plan, LinkParams(p_t=1.2, p_e=1e6))
    assert res.rate_nats == pytest.approx(0.27206579124415798, rel=1e-13)
    assert res.rate_bits == pytest.approx(0.39250796782347868, rel=1e-13)
    assert res.rate_bits == pytest.approx(res.rate_nats / math.log(2.0), rel=1e-15)
    assert not res.clamped
    assert res.raw_rate_nats == res.rate_nats


def test_rate_clamps_at_zero():
    # a 2-slot codeword cannot pay the additive penalties
    res = achievable_rate_fbl(
        BlocklengthPlan(m=1, n=2, epsilon=0.1), LinkParams(p_t=0.1, p_e=1.0)
    )
    assert res.clamped
    assert res.rate_nats == 0.0
    assert res.raw_rate_nats < 0.0


def test_rate_zero_power():
    res = achievable_rate_fbl(
        BlocklengthPlan(m=10, n=100, epsilon=0.1), LinkParams(p_t=0.0, p_e=1.0)
    )
    assert res.rate_nats == 0.0 and res.clamped


def test_rate_feasibility_flag():
    eps, p_e = 0.05, 1.0
    n = single_pb.min_transmit_blocklength(eps)
    p_t = 0.5
    m = planner.min_harvest_blocklength(n, p_t / p_e, eps)
    link = LinkParams(p_t=p_t, p_e=p_e)
    assert achievable_rate_fbl(BlocklengthPlan(m, n, eps), link).feasible
    assert not achievable_rate_fbl(BlocklengthPlan(m - 1, n, eps), link).feasible


def test_plan_rounds_odd_transmit_length_up():
    assert BlocklengthPlan(1, 3, 0.05).n == 4


def test_prelog_reference_and_bounds():
    # frozen: 1/(1 + a/ln(1+eps/2)) at a = 0.0012, eps = 1e-3
    assert capacity_prelog(0.0012, 1e-3) == pytest.approx(
        0.29406575742504652, rel=1e-14
    )
    assert capacity_prelog(0.0, 0.3) == 1.0
    assert capacity_prelog(0.0, 0.0) == 1.0
    assert capacity_prelog(1.0, 0.0) == 0.0
    assert 0.0 < capacity_prelog(5.0, 0.5) < 1.0


def test_asymptotic_rate_factorization():
    link = LinkParams(p_t=2.0, p_e=4.0, sigma2=0.5)
    eps = 0.2
    expected = capacity_prelog(0.5, eps) * 0.5 * math.log1p(4.0)
    assert asymptotic_rate(link, eps) == pytest.approx(expected, rel=1e-14)


def test_high_reliability_rate_tracks_exact_form():
    # The small-eps surrogate should sit within 1% of the exact asymptotic
    # rate across a low-error grid.
    for eps in (1e-4, 1e-3, 1e-2):
        for a in (0.01, 0.1, 1.0):
            link = LinkParams(p_t=a, p_e=1.0)
            exact = asymptotic_rate(link, eps)
            approx = high_reliability_rate(link, eps)
            assert approx == pytest.approx(exact, rel=1e-2)
            # ln(1+eps/2) < eps/2 inflates the prelog, so the surrogate
            # sits (slightly) above the exact rate
            assert approx >= exact


# ----------------------------------------------------------------
# Optimal transmit power


def test_optimal_power_matches_golden_section_oracle():
    # frozen: golden-section search on the asymptotic rate over p_t
    p_star = optimal_power_asymptotic(100.0, 1.0, 0.05)
    assert p_star == pytest.approx(2.9449636665283754, rel=1e-9)
    link = LinkParams(p_t=p_star, p_e=100.0)
    assert asymptotic_rate(link, 0.05) == pytest.approx(
        0.31296375173084098, rel=1e-12
    )


def test_optimal_power_is_stationary():
    for p_e, eps in ((100.0, 0.05), (1e3, 1e-3), (317.0, 0.2)):
        p_star = optimal_power_asymptotic(p_e, 1.0, eps)
        r0 = asymptotic_rate(LinkParams(p_star, p_e), eps)
        for h in (1e-4, -1e-4):
            r = asymptotic_rate(LinkParams(p_star * (1 + h), p_e), eps)
            assert r <= r0 + 1e-12


def test_optimal_power_slope_matches_finite_difference():
    # frozen: central difference of optimal_power_asymptotic at h = 1e-3
    assert optimal_power_slope(1e3, 1.0, 1e-3) == pytest.approx(
        0.00065090984367197727, rel=1e-6
    )


def test_optimal_power_small_budget_branch():
    # Budgets below sigma2/ln(1+eps/2) make the shifted budget negative;
    # the Lambert argument then sits in (-1/e, 0) and must still resolve.
    p = optimal_power_asymptotic(1.0, 1.0, 0.05)
    assert 0.0 < p < 1.0


def _replanned_rate(p_t, p_e, sigma2, eps):
    """optimal_power_fbl's objective, through the public API."""
    n = single_pb.min_transmit_blocklength(eps)
    plan = BlocklengthPlan(planner.min_harvest_blocklength(n, p_t / p_e, eps), n, eps)
    return achievable_rate_fbl(plan, LinkParams(p_t, p_e, sigma2)).rate_nats


def test_optimal_power_fbl_dominates_asymptotic_choice():
    eps, p_e = 0.05, 100.0
    p_fbl, rate_fbl = optimal_power_fbl(eps, p_e)
    p_asym = optimal_power_asymptotic(p_e, 1.0, eps)
    assert rate_fbl == pytest.approx(_replanned_rate(p_fbl, p_e, 1.0, eps), rel=1e-12)
    assert rate_fbl >= _replanned_rate(p_asym, p_e, 1.0, eps)
    # the finite-length penalties push the optimum above the asymptotic one
    assert p_fbl >= p_asym


def test_optimal_power_fbl_raises_when_rate_is_flat_zero():
    with pytest.raises(SearchError):
        optimal_power_fbl(1e-3, 0.01)


# (eps, p_e, sigma2) -> (pt_fbl, rate_nats), captured from the optimiser that
# re-planned each probe through the public API; exact, so any change to the
# search or to a probe's floating-point operations shows.
OPTIMAL_POWER_FBL_PINS = [
    ((1e-3, 1000.0, 1.0), (2.0478770128861425, 0.0750861338954227)),
    ((1e-3, 1e5, 3.0), (36.08241066726138, 0.6266656247346936)),
    ((0.01, 300.0, 1.0), (2.7882647942599226, 0.1889099689836879)),
    ((0.01, 3e4, 3.0), (71.42949555406149, 0.990283563213857)),
    ((0.05, 100.0, 1.0), (3.5979013215715043, 0.25768840721180925)),
    ((0.05, 1e4, 3.0), (104.32938789944617, 1.1561175297065611)),
    ((0.5, 100.0, 3.0), (36.95300917780436, 0.29145531314760126)),
    ((0.5, 1e5, 1.0), (4016.631430658807, 3.0620380540457206)),
]


@pytest.mark.parametrize("args, expected", OPTIMAL_POWER_FBL_PINS)
def test_optimal_power_fbl_pinned_values(args, expected):
    assert optimal_power_fbl(*args) == expected


@pytest.mark.parametrize(
    "p_e, sigma2, message",
    [
        (0.0, 1.0, "p_e must be finite and > 0"),
        (-1.0, 1.0, "p_e must be finite and > 0"),
        (math.inf, 1.0, "p_e must be finite and > 0"),
        (math.nan, 1.0, "p_e must be finite and > 0"),
        (100.0, 0.0, "sigma2 must be finite and > 0"),
        (100.0, math.inf, "sigma2 must be finite and > 0"),
        (100.0, math.nan, "sigma2 must be finite and > 0"),
        (1e-320, 1.0, "p_e=1e-320 is too small"),
    ],
)
def test_optimal_power_fbl_rejects_out_of_range_powers(p_e, sigma2, message):
    # p_e <= 0 raised a bare ValueError from math.log, p_e = inf a DomainError
    # about a NaN power ratio, sigma2 = inf a SearchError
    with pytest.raises(DomainError, match=message):
        optimal_power_fbl(0.05, p_e, sigma2)


def _batched_probe(eps, p_e, sigma2):
    """The lock-step search's rate probe as a function of p_t, for the row
    (eps, p_e) of a two-row batch; it raises the row's error where the
    harvest floor overflows."""
    ns = [single_pb._search_checks(e, pe, sigma2) for e, pe in ((0.5, 1e4), (eps, p_e))]
    probe = single_pb._RateProbe([0.5, eps], [1e4, p_e], sigma2, ns)

    def rate_at(p_t):
        rate, _, a, overflow = probe(np.array([0, 1, 0]), np.array([1.0, p_t, 2.0]))
        if overflow[1]:
            raise probe.error(1, a[1])
        return float(rate[1])

    return rate_at


@settings(max_examples=300, deadline=None)
@given(
    eps=st.floats(1e-6, 0.9),
    log_pe=st.floats(-2.0, 8.0),
    log_sigma2=st.floats(-3.0, 3.0),
    frac=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_rate_probe_is_bit_identical_to_public_path(eps, log_pe, log_sigma2, frac):
    p_e, sigma2 = 10.0 ** log_pe, 10.0 ** log_sigma2
    # frac None is a = 0; otherwise p_t runs log-uniformly over [1e-6 p_e, p_e]
    p_t = 0.0 if frac is None else p_e * 10.0 ** (-6.0 * frac)
    probe = _batched_probe(eps, p_e, sigma2)
    assert probe(p_t) == _replanned_rate(p_t, p_e, sigma2, eps)


@pytest.mark.parametrize("eps, p_e, p_t", [(1e-300, 1e300, 3.5e295), (1e-320, 100.0, 1e-4)])
def test_rate_probe_keeps_unsatisfiable_error(eps, p_e, p_t):
    # the harvest floor overflows: both paths raise the same error, except at
    # a = 0, where no harvest is needed
    assert _batched_probe(eps, p_e, 1.0)(0.0) == _replanned_rate(0.0, p_e, 1.0, eps)
    with pytest.raises(single_pb.UnsatisfiableError) as public:
        _replanned_rate(p_t, p_e, 1.0, eps)
    with pytest.raises(single_pb.UnsatisfiableError, match="harvest floor overflows") as probe:
        _batched_probe(eps, p_e, 1.0)(p_t)
    assert str(probe.value) == str(public.value)


def _outcome(call):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return call()
    except (DomainError, SearchError, single_pb.UnsatisfiableError) as exc:
        return type(exc), str(exc)


_HOSTILE_EPS = st.sampled_from([1e-300, 1e-320, 0.0, 1.0, 1.5, math.nan])
_HOSTILE_PE = st.sampled_from(
    [1e-320, 1e-300, 1e-3, 0.01, 1e300, 1.7e308, math.inf, 0.0, -1.0, math.nan]
)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(1e-4, 0.9) | _HOSTILE_EPS,
            st.floats(-3.0, 8.0).map(lambda v: 10.0 ** v) | _HOSTILE_PE,
        ),
        min_size=1,
        max_size=10,
    ),
    sigma2=st.floats(0.01, 100.0) | st.sampled_from([1.0, 1e-300, 1e300, 5e-324, 0.0, math.inf]),
)
def test_batched_search_rows_match_one_row_calls(rows, sigma2):
    # rows that raise (SearchError below p_e ~ 1, a bracket end that
    # underflows, overflowing floors and budgets, bad eps) sit among rows
    # that do not; none may change another row's result
    eps, p_e = map(list, zip(*rows))
    for e, pe, row in zip(eps, p_e, single_pb._optimal_powers(eps, p_e, sigma2)):
        assert _outcome(lambda: single_pb._unwrap(row.best)) == _outcome(
            lambda: optimal_power_fbl(e, pe, sigma2)
        )
        assert _outcome(lambda: single_pb._unwrap(row.p_asym)) == _outcome(
            lambda: optimal_power_asymptotic(pe, sigma2, e)
        )


def _scalar_search(eps, p_e, sigma2):
    """optimal_power_fbl as it ran one row at a time before its rows ran in
    lock-step (the same pre-scan, golden section and candidates), on the
    public-path rate: the reference of the batched search."""
    rate_at = lambda p_t: _replanned_rate(p_t, p_e, sigma2, eps)  # noqa: E731
    lo, hi = math.log(1e-6 * p_e), math.log(p_e)
    grid = [lo + (hi - lo) * i / 31.0 for i in range(32)]
    best_rate, best_x = max((rate_at(math.exp(x)), x) for x in grid)
    if best_rate <= 0.0:
        raise SearchError("rate is zero over the whole power bracket")
    idx = grid.index(best_x)
    a, b = grid[max(idx - 1, 0)], grid[min(idx + 1, 31)]
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - golden * (b - a), a + golden * (b - a)
    f1, f2 = rate_at(math.exp(x1)), rate_at(math.exp(x2))
    for _ in range(200):
        if b - a <= 1e-10 * max(1.0, abs(a) + abs(b)):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + golden * (b - a)
            f2 = rate_at(math.exp(x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - golden * (b - a)
            f1 = rate_at(math.exp(x1))
    candidates = [(f1, x1), (f2, x2), (best_rate, best_x)]
    p_asym = optimal_power_asymptotic(p_e, sigma2, eps)
    if 1e-6 * p_e <= p_asym <= p_e:
        candidates.append((rate_at(p_asym), math.log(p_asym)))
    rate, x = max(candidates)
    return math.exp(x), rate


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.floats(1e-6, 0.9), st.floats(-3.0, 8.0).map(lambda v: 10.0 ** v)),
        min_size=1,
        max_size=8,
    ),
    sigma2=st.floats(0.01, 100.0),
)
def test_batched_search_matches_scalar_reference(rows, sigma2):
    # finite SNRs, where the public-path rate is the search's probe; rows in
    # the SearchError region included
    eps, p_e = map(list, zip(*rows))
    for e, pe, row in zip(eps, p_e, single_pb._optimal_powers(eps, p_e, sigma2)):
        assert _outcome(lambda: single_pb._unwrap(row.best)) == _outcome(
            lambda: _scalar_search(e, pe, sigma2)
        )


def test_batched_search_matches_scalar_reference_on_a_random_batch():
    # one batch of 300 log-uniform rows: a last-bit slip in any probe's exp,
    # log1p or arithmetic moves some row's result
    rng = np.random.default_rng(22)
    eps = (10.0 ** rng.uniform(-6.0, math.log10(0.9), 300)).tolist()
    p_e = (10.0 ** rng.uniform(-1.0, 8.0, 300)).tolist()
    for sigma2 in (1.0, 0.3):
        for e, pe, row in zip(eps, p_e, single_pb._optimal_powers(eps, p_e, sigma2)):
            assert _outcome(lambda: single_pb._unwrap(row.best)) == _outcome(
                lambda: _scalar_search(e, pe, sigma2)
            )


def test_link_params_validation():
    with pytest.raises(DomainError):
        LinkParams(p_t=-1.0, p_e=1.0)
    with pytest.raises(DomainError):
        LinkParams(p_t=1.0, p_e=0.0)
    with pytest.raises(DomainError):
        BlocklengthPlan(m=-1, n=4, epsilon=0.1)
    with pytest.raises(DomainError):
        BlocklengthPlan(m=1, n=4, epsilon=1.0)


@pytest.mark.parametrize(
    "p_t, p_e, sigma2, message",
    [
        (1e300, 1e300, 1e-300, "SNR p_t/sigma2 must be finite and >= 0, got inf"),
        (1.0, 1e300, 5e-324, "SNR p_t/sigma2 must be finite and >= 0, got inf"),
        (math.inf, 1e300, 1.0, "p_t must be finite and >= 0, got inf"),
        (1.0, math.inf, 1.0, "p_e must be finite and > 0, got inf"),
        (1.0, 1.0, math.inf, "sigma2 must be finite and > 0, got inf"),
        (1.0, 0.0, 1.0, "p_e must be > 0, got 0.0"),
        (-1.0, 1.0, 1.0, "p_t must be >= 0, got -1.0"),
    ],
)
def test_link_params_reject_non_finite_powers(p_t, p_e, sigma2, message):
    # an infinite SNR made the rate bound's gamma/(gamma + 1) NaN, and
    # achievable_rate_fbl returned rate_nats=nan with feasible=True; a sign
    # error keeps its message
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        achievable_rate_fbl(BlocklengthPlan(10**6, 2026, 0.05), LinkParams(p_t, p_e, sigma2))
