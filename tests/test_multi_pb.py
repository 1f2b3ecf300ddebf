# Tests for the Poisson-field energy model: Laplace transform, derivative
# ladders, and the series-based supply probability.

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wplink import multi_pb, planner
from wplink.multi_pb import (
    LaplaceDerivs,
    NetworkParams,
    achievable_rate_mp,
    energy_supply_prob_mp,
    laplace_derivs,
    laplace_z,
    mean_harvested,
)
from wplink.single_pb import (
    BlocklengthPlan,
    LinkParams,
    achievable_rate_fbl,
    min_transmit_blocklength,
)
from wplink.single_pb import DomainError

NET = NetworkParams(density=1e-3, p_pb=1e3, mu=1.0, eta=3.6)
NET_DENSE = NetworkParams(density=5e-3, p_pb=1e3, mu=1.0, eta=3.6)


def hyp_derivs(s, order, net):
    """The derivative ladder fed by the positive-argument 2F1 form."""
    return multi_pb._ladder(laplace_z(s, net), multi_pb._g_derivs_hyp(s, order, net))


def f_deriv(k, u, eta, g_derivs=multi_pb._g_derivs):
    """k-th derivative of the radial functional F(u, eta), read off a g-ladder.

    With pi*density = 1 and p_pb*mu = 1, g^(k)(u) = -(q_k + F^(k)(u)), where
    q_k = (-1)^(k+1) k!/(1+u)^(k+1) is the k-th derivative of u/(1+u).
    """
    if k == 0:
        return multi_pb._radial(u, eta)
    unit = NetworkParams(density=1.0 / math.pi, p_pb=1.0, mu=1.0, eta=eta)
    near = (-1.0) ** (k + 1) * math.factorial(k) / (1.0 + u) ** (k + 1)
    return -g_derivs(u, k, unit)[k - 1] - near


def reference_supply(m, n, p_t, net):
    """Supply probability from the O(N^2) direct recurrence, N = n/2.

    i T_i = sum_r c_r T_{i-r} term by term, with the package's linear
    rescale and offset arithmetic, but with the terms in extended precision
    (np.longdouble) and summed there: in doubles the loop itself drifts by
    up to 4e-14 relative at N = 1e4, more than the FFT route does.
    Returns (supply, log offset).
    """
    count = n // 2
    u = multi_pb._harvest_arg(m, p_t, net)
    offset = multi_pb._log_laplace(u, net)
    c = multi_pb._series_coefficients(count, u, net).astype(np.longdouble)
    t = np.zeros(count, dtype=np.longdouble)
    t[0] = 1.0
    for i in range(1, count):
        ti = np.dot(c[:i], t[i - 1 :: -1]) / i
        t[i] = ti
        if ti > 1e250:
            t[: i + 1] /= ti
            offset += math.log(float(ti))
    return max(0.0, 1.0 - math.exp(offset) * float(t.sum())), offset


def mp_radial_derivs(u, order, eta):
    """[F(u), F'(u), ..., F^(order)(u)] at working precision from the
    parameter-shifted 2F1 ladder (DLMF 15.5.2): F = alpha/(1-alpha) u H(u),
    H^(k) = (-1)^k k! (1-alpha)_k/(2-alpha)_k 2F1(k+1, k+1-alpha; k+2-alpha; -u)."""
    u, alpha = mp.mpf(u), mp.mpf(2) / eta
    h = [
        (-1) ** k * mp.factorial(k) * mp.rf(1 - alpha, k) / mp.rf(2 - alpha, k)
        * mp.hyp2f1(k + 1, k + 1 - alpha, k + 2 - alpha, -u)
        for k in range(order + 1)
    ]
    lead = alpha / (1 - alpha)
    return [lead * u * h[0]] + [lead * (k * h[k - 1] + u * h[k]) for k in range(1, order + 1)]


# ----------------------------------------------------------------
# Parameter types


def test_network_params_validation():
    with pytest.raises(DomainError):
        NetworkParams(density=0.0, p_pb=1e3)
    with pytest.raises(DomainError):
        NetworkParams(density=1e-3, p_pb=-1.0)
    with pytest.raises(DomainError):
        NetworkParams(density=1e-3, p_pb=1e3, mu=1.5)
    with pytest.raises(DomainError):
        NetworkParams(density=1e-3, p_pb=1e3, eta=2.0)


def test_network_params_rejects_infinite_eta():
    # eta = inf used to pass, and the radial functional then divided by sin(0)
    with pytest.raises(DomainError, match="eta must be finite"):
        NetworkParams(density=1e-3, p_pb=1e3, eta=math.inf)


def test_network_params_rejects_non_finite_density():
    for density in (math.inf, math.nan):
        with pytest.raises(DomainError, match="density must be finite"):
            NetworkParams(density=density, p_pb=1e3)


def test_laplace_derivs_container_enforces_alternation():
    d = LaplaceDerivs(s=1.0, values=(0.5, -0.3, 0.2))
    assert d.order == 2
    with pytest.raises(DomainError):
        LaplaceDerivs(s=1.0, values=(0.5, 0.3))  # first derivative positive
    with pytest.raises(DomainError):
        LaplaceDerivs(s=1.0, values=())
    with pytest.raises(DomainError):
        LaplaceDerivs(s=1.0, values=(1.5,))
    # NaN compares false, so it must be rejected explicitly, as must inf
    nan, inf = float("nan"), float("inf")
    with pytest.raises(DomainError):
        LaplaceDerivs(s=1.0, values=(0.5, nan, 0.1))
    with pytest.raises(DomainError):
        LaplaceDerivs(s=1.0, values=(0.5, -inf))
    with pytest.raises(DomainError):
        LaplaceDerivs(s=nan, values=(0.5, -0.3))
    with pytest.raises(DomainError):
        LaplaceDerivs(s=inf, values=(0.5,))


# ----------------------------------------------------------------
# Radial functional


def test_f_deriv_reference_values():
    # frozen: mpmath 2F1 closed forms at 40 digits
    assert f_deriv(0, 3.0, 3.6) == pytest.approx(2.3623169403864835, rel=1e-12)
    assert f_deriv(4, 3.0, 3.6) == pytest.approx(-0.019902094186392630, rel=1e-10)


def test_f_deriv_sign_pattern():
    # the functional is positive and increasing with concave corrections:
    # derivative k >= 1 carries sign (-1)^(k+1); u = 0.2 takes the 2F1 form
    for u in (0.2, 3.0, 80.0):
        assert f_deriv(0, u, 3.6) > 0.0
        for k in range(1, 9):
            assert (-1.0) ** (k + 1) * f_deriv(k, u, 3.6) > 0.0


def test_f_deriv_branches_agree_at_switchover():
    # derivatives: the 2F1 form (u <= 1) and the series coefficients (u > 1)
    for k in (1, 3, 8):
        below = f_deriv(k, 1.0, 3.6)
        above = f_deriv(k, 1.0 + 1e-10, 3.6)
        assert above == pytest.approx(below, rel=1e-9)
        assert f_deriv(k, 1.0 + 1e-10, 3.6, multi_pb._g_derivs_hyp) == pytest.approx(
            above, rel=1e-12
        )
    # the functional: incomplete beta (u <= 1e6) and large-u expansion (above)
    below = f_deriv(0, 1e6, 3.6)
    above = f_deriv(0, 1e6 * (1.0 + 1e-12), 3.6)
    assert above == pytest.approx(below, rel=1e-11)


@pytest.mark.parametrize("eta", [2.01, 2.5, 3.0, 3.6, 4.0, 4.5, 8.0, 100.0])
def test_radial_matches_mpmath(eta):
    # every decade of u from 1e-12 to 1e50: both incomplete-beta branches,
    # the large-u expansion, and eta = 4 at u >= 1e16 where SciPy's
    # complemented incomplete beta alone loses digits
    with mp.workdps(40):
        for e in range(-12, 51):
            u = 10.0**e
            (ref,) = mp_radial_derivs(u, 0, eta)
            rel = abs(multi_pb._radial(u, eta) - ref) / ref
            assert rel <= 1e-13, (eta, u, float(rel))


# ----------------------------------------------------------------
# Laplace transform of the per-slot energy


def test_laplace_reference_value():
    # frozen: mpmath 40-digit evaluation of exp(g(s)) at s = 1
    assert laplace_z(1.0, NET) == pytest.approx(0.77226486573342029, rel=1e-12)


def test_laplace_basics():
    assert laplace_z(0.0, NET) == 1.0
    values = [laplace_z(s, NET) for s in (0.1, 1.0, 10.0, 100.0)]
    assert all(0.0 < v <= 1.0 for v in values)
    assert values == sorted(values, reverse=True)  # decreasing in s
    with pytest.raises(DomainError):
        laplace_z(-1.0, NET)


def test_laplace_at_infinity_is_zero():
    # Z > 0 almost surely in an infinite field, so E[exp(-sZ)] -> 0; the
    # scaled argument also overflows to inf for finite s
    assert laplace_z(math.inf, NET) == 0.0
    assert laplace_z(1e306, NET) == 0.0


def test_mean_harvested_closed_form():
    # pi * density * eta/(eta-2) * mu * p_pb
    assert mean_harvested(NET) == pytest.approx(7.0685834705770345, rel=1e-14)
    # consistency: -d/ds L at s=0 equals the mean
    h = 1e-9
    fd = (1.0 - laplace_z(h, NET)) / h
    assert fd == pytest.approx(mean_harvested(NET), rel=1e-6)


# ----------------------------------------------------------------
# Derivative ladders


def test_laplace_derivs_reference_values():
    # frozen: mpmath mp.taylor of exp(g) at 40 digits, s = 1
    d = laplace_derivs(1.0, 8, NET_DENSE)
    assert d.values[0] == pytest.approx(laplace_z(1.0, NET_DENSE), rel=1e-13)
    assert d.values[1] == pytest.approx(-0.19718661262632497, rel=1e-11)
    assert d.values[8] == pytest.approx(625.75641108854256, rel=1e-11)


def test_laplace_derivs_order_zero():
    d = laplace_derivs(2.5, 0, NET)
    assert d.order == 0
    assert d.values == (laplace_z(2.5, NET),)


def test_laplace_derivs_alternate_in_sign():
    d = laplace_derivs(0.7, 10, NET)
    for k, v in enumerate(d.values):
        assert (-1.0) ** k * v > 0.0


def test_laplace_derivs_order_cap():
    with pytest.raises(DomainError):
        laplace_derivs(1.0, 65, NET)
    with pytest.raises(DomainError):
        laplace_derivs(0.0, 2, NET)


@pytest.mark.parametrize("s", [1e-12, 1e-7, 1e-5, 3.0])
def test_laplace_derivs_order_64_match_mpmath(s):
    # at small s the series coefficients c_r underflow long before order 64,
    # so the ladder must come from the 2F1 form there; s = 3 takes the c_r
    net = NetworkParams(density=1e-3, p_pb=1.0)
    d = laplace_derivs(s, 64, net)
    with mp.workdps(40):
        lam_pi = mp.pi * net.density
        f = mp_radial_derivs(s, 64, net.eta)
        u = mp.mpf(s)
        g = [
            -lam_pi * ((-1) ** (k + 1) * mp.factorial(k) / (1 + u) ** (k + 1) + f[k])
            for k in range(1, 65)
        ]
        ref = [mp.exp(-lam_pi * (u / (1 + u) + f[0]))]
        for i in range(1, 65):
            ref.append(mp.fsum(mp.binomial(i - 1, j) * g[i - j - 1] * ref[j] for j in range(i)))
        for k, (v, r) in enumerate(zip(d.values, ref)):
            assert math.isfinite(v), (s, k)
            assert abs(v - r) <= 1e-10 * abs(r), (s, k, v, float(r))


def test_derivative_paths_agree_on_reference_nets():
    for net in (NET, NET_DENSE):
        for s in (0.05, 1.0, 2.0):
            a = laplace_derivs(s, 8, net)
            b = hyp_derivs(s, 8, net)
            for va, vb in zip(a.values, b):
                assert vb == pytest.approx(va, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=5.0),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=1e-4, max_value=1e-2),
    st.floats(min_value=1.0, max_value=100.0),
    st.floats(min_value=2.2, max_value=5.0),
)
def test_derivative_paths_agree_property(s, order, density, p_pb, eta):
    # scaled argument u = p_pb*s up to 500; u <= 1 is where
    # laplace_derivs takes the 2F1 form itself
    net = NetworkParams(density=density, p_pb=p_pb, mu=1.0, eta=eta)
    a = laplace_derivs(s, order, net)
    b = hyp_derivs(s, order, net)
    scale = max(abs(v) for v in a.values)
    for va, vb in zip(a.values, b):
        assert abs(va - vb) <= 1e-9 * scale


def test_audit_path_serves_large_arguments():
    # u = 2e4 and 1e6, where w = u/(1+u) is within 1e-6 of 1: the 2F1 form
    # still matches the series coefficients
    for s in (20.0, 1000.0):
        a = laplace_derivs(s, 8, NET)
        b = hyp_derivs(s, 8, NET)
        scale = max(abs(v) for v in a.values)
        for va, vb in zip(a.values, b):
            assert abs(va - vb) <= 1e-9 * scale, s


# ----------------------------------------------------------------
# Complete Bell polynomials: the product recurrence of the derivative
# ladder, L^(n) = L B_n(g', ..., g^(n)) for L = exp(g)


def complete_bell(u):
    return multi_pb._ladder(1.0, list(u))[-1]


def test_bell_small_cases():
    assert complete_bell([]) == 1.0
    assert complete_bell([4.5]) == 4.5
    u1, u2 = 2.0, 1.0
    assert complete_bell([u1, u2]) == u1**2 + u2  # = 5
    u1, u2, u3 = 1.5, -0.25, 2.0
    assert complete_bell([u1, u2, u3]) == pytest.approx(
        u1**3 + 3.0 * u1 * u2 + u3, rel=1e-14
    )


def partition_expansion(us):
    """B_n as the sum over integer partitions n = sum_j j*k_j of
    n! prod_j (u_j/j!)^k_j / k_j! (Faa di Bruno's formula)."""
    n = len(us)

    def parts(rest, largest):
        if rest == 0:
            yield {}
            return
        for j in range(min(rest, largest), 0, -1):
            for tail in parts(rest - j, j):
                counts = dict(tail)
                counts[j] = counts.get(j, 0) + 1
                yield counts

    total = 0.0
    for counts in parts(n, n):
        term = float(math.factorial(n))
        for j, k in counts.items():
            term *= (us[j - 1] / math.factorial(j)) ** k / math.factorial(k)
        total += term
    return total


def test_bell_matches_symbolic_partition_expansion():
    rng = np.random.default_rng(7)
    for _ in range(10):
        us = rng.uniform(-2.0, 2.0, size=8)
        for n in (2, 5, 8):
            expected = partition_expansion(list(us[:n]))
            assert complete_bell(list(us[:n])) == pytest.approx(expected, rel=1e-10)


# ----------------------------------------------------------------
# Supply probability over the beacon field


def test_supply_mp_matches_laplace_identities():
    # n = 2: exactly one series term, so supply = 1 - L(m / (2 p_t))
    m, p_t = 40, 1.3
    s = m / (2.0 * p_t)
    expected = 1.0 - laplace_z(s, NET)
    assert energy_supply_prob_mp(m, 2, p_t, NET) == pytest.approx(expected, rel=1e-12)
    # n = 4 adds the first-derivative term: supply = 1 - (L - s L')
    d = laplace_derivs(s, 1, NET)
    expected4 = 1.0 - (d.values[0] - s * d.values[1])
    assert energy_supply_prob_mp(m, 4, p_t, NET) == pytest.approx(expected4, rel=1e-12)


def test_supply_mp_reference_value():
    # frozen: mpmath high-precision series at the chart baseline point
    assert energy_supply_prob_mp(1500, 1000, 1.0, NET) == pytest.approx(
        0.1664847072741914, rel=1e-11
    )


def test_supply_mp_edge_cases_and_validation():
    assert energy_supply_prob_mp(10, 1000, 0.0, NET) == 1.0
    with pytest.raises(DomainError):
        energy_supply_prob_mp(0, 2, 1.0, NET)
    with pytest.raises(DomainError):
        energy_supply_prob_mp(10, 3, 1.0, NET)
    with pytest.raises(DomainError):
        energy_supply_prob_mp(10, 2, -1.0, NET)


def test_supply_mp_monotonicities():
    base = energy_supply_prob_mp(1500, 1000, 1.0, NET)
    assert 0.0 < base < 1.0
    assert energy_supply_prob_mp(3000, 1000, 1.0, NET) > base  # more harvest
    assert energy_supply_prob_mp(1500, 1200, 1.0, NET) < base  # longer codeword
    assert energy_supply_prob_mp(1500, 1000, 2.0, NET) < base  # hungrier codeword
    denser = NetworkParams(density=2e-3, p_pb=1e3, mu=1.0, eta=3.6)
    assert energy_supply_prob_mp(1500, 1000, 1.0, denser) > base  # more beacons


@pytest.mark.parametrize("eta", [2.01, 3.6, 8.0])
def test_supply_mp_fft_series_matches_direct_loop(eta):
    # u = 0.5 (u <= 1) and u = 500 ... 5e9 (u >> 1), n/2 from 1 to 1e4.
    # Supply runs from 0 through tiny outages (1 - 4e-12 at eta = 3.6) to 1;
    # at eta = 2.01, g reaches -2.8e9 and the linear rescale fires, with
    # m = 32 at n = 2e4 (g = -9581) landing at supply 0.27.
    net = NetworkParams(density=1e-3, p_pb=1e3, eta=eta)
    rescaled = 0
    points = ((1, 1e3), (1, 1.0), (16, 1.0), (32, 1.0), (1000, 1.0), (10**5, 1.0), (10**7, 1.0))
    for n in (2, 100, 2000, 20000):
        for m, p_t in points:
            ref, offset = reference_supply(m, n, p_t, net)
            got = energy_supply_prob_mp(m, n, p_t, net)
            assert abs(got - ref) <= 1e-14, (n, m, p_t, got, ref)
            if 0.05 <= ref <= 0.995:
                assert got == pytest.approx(ref, rel=1e-10), (n, m, p_t)
            rescaled += offset != multi_pb._log_laplace(multi_pb._harvest_arg(m, p_t, net), net)
    assert rescaled or eta != 2.01


def test_supply_slope_matches_finite_difference():
    # d ln(outage)/d ln u = -(n/2) T_{n/2} / sum_{i<n/2} T_i drives the
    # threshold solve's Newton steps; check it against a central difference in ln u
    for net, count, u in ((NET, 1000, 5e5), (NET_DENSE, 50, 2e3), (NET, 1, 40.0)):
        _, _, slope = multi_pb._supply_and_slope(count, u, net)
        h = 1e-5
        up = multi_pb._supply_and_slope(count, u * math.exp(h), net)[1]
        down = multi_pb._supply_and_slope(count, u * math.exp(-h), net)[1]
        assert slope < 0.0
        assert slope == pytest.approx((up - down) / (2.0 * h), rel=1e-6)


def test_supply_mp_beyond_old_series_cap():
    # n/2 = 2e5 lies above the former cap of 1e5; a longer codeword at the
    # same (m, p_t) is harder to power
    at_cap = energy_supply_prob_mp(400_000, 200_000, 1.0, NET)
    beyond = energy_supply_prob_mp(400_000, 400_000, 1.0, NET)
    assert 0.0 <= beyond < at_cap <= 1.0
    with pytest.raises(DomainError):
        energy_supply_prob_mp(400_000, 2_000_002, 1.0, NET)


def test_supply_mp_rejects_non_finite_power():
    # an infinite p_t used to raise a bare ValueError from log(0) for n > 2
    # and to return 0.0 for n = 2
    for n in (2, 10):
        with pytest.raises(DomainError):
            energy_supply_prob_mp(10, n, math.inf, NET)
    with pytest.raises(DomainError):
        energy_supply_prob_mp(10, 4, math.nan, NET)


def test_supply_mp_extreme_scale_saturates():
    # an astronomically long harvest phase cannot fail to cover two slots
    assert energy_supply_prob_mp(10**12, 2, 1e-9, NET) == 1.0


@pytest.mark.parametrize("density", [1e100, 1e200, 1e250])
def test_supply_mp_dense_field_is_certain(density):
    # c_r grow like the density; a fixed 1e250 rescale bound let one step of
    # the recurrence overflow, and the outage turned into NaN and then pes 0
    dense = NetworkParams(density=density, p_pb=1e3)
    assert energy_supply_prob_mp(100, 50, 1.0, dense) == 1.0
    assert energy_supply_prob_mp(100, 2000, 1.0, dense) == 1.0


def test_supply_mp_rejects_coefficients_beyond_double_range():
    with pytest.raises(multi_pb.StabilityError, match="double range"):
        energy_supply_prob_mp(100, 50, 1.0, NetworkParams(density=1e308, p_pb=1e3))


# ----------------------------------------------------------------
# Rate with the field-powered feasibility gate


def test_rate_mp_matches_single_beacon_formula():
    plan = BlocklengthPlan(m=1500, n=2026, epsilon=0.05)
    res = achievable_rate_mp(plan, 1.0, 1.0, NET)
    ref = achievable_rate_fbl(plan, LinkParams(p_t=1.0, p_e=1e9, sigma2=1.0))
    assert res.rate_nats == pytest.approx(ref.rate_nats, rel=1e-14)
    assert res.rate_bits == pytest.approx(ref.rate_bits, rel=1e-14)


def test_rate_mp_feasibility_gate():
    eps = 0.05
    # below the transmit floor: never feasible no matter the energy
    short = BlocklengthPlan(m=10**6, n=1000, epsilon=eps)
    assert not achievable_rate_mp(short, 1e-6, 1.0, NET).feasible
    # at the floor with a generous harvest phase: feasible
    n = min_transmit_blocklength(eps)
    m = planner.min_harvest_blocklength_mp(n, 1.0, NET, eps)
    good = BlocklengthPlan(m=m, n=n, epsilon=eps)
    assert achievable_rate_mp(good, 1.0, 1.0, NET).feasible
    # one slot short of the supply target: infeasible
    tight = BlocklengthPlan(m=m - 1, n=n, epsilon=eps)
    assert not achievable_rate_mp(tight, 1.0, 1.0, NET).feasible


def test_rate_mp_validation():
    plan = BlocklengthPlan(m=10, n=100, epsilon=0.1)
    with pytest.raises(DomainError):
        achievable_rate_mp(plan, -1.0, 1.0, NET)
    with pytest.raises(DomainError):
        achievable_rate_mp(plan, 1.0, 0.0, NET)
