# Tests for the two special functions behind the closed forms, both taken
# from SciPy: Lambert W0, seen through the asymptotic power optimiser, and
# Gauss 2F1, seen through the positive-argument derivative ladder.

import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import hyp2f1

from wplink.multi_pb import NetworkParams, laplace_derivs
from wplink.single_pb import DomainError, optimal_power_asymptotic, optimal_power_slope

INV_E = math.exp(-1.0)
EPS = 0.01
LOG_GROWTH = math.log1p(0.5 * EPS)  # ln(1 + eps/2)


# ----------------------------------------------------------------
# Lambert W, principal branch, through the power optimiser. At the budget
# b = (p_e/sigma2) ln(1+eps/2) the optimiser evaluates W0((b-1)/e); its
# slope is ln(1+eps/2) / (1 + W0), which hands W0 back.


def p_e_at(x):
    """Harvested power whose budget puts the Lambert argument at x."""
    return (1.0 + math.e * x) / LOG_GROWTH


def lambert_via_slope(x):
    return LOG_GROWTH / optimal_power_slope(p_e_at(x), 1.0, EPS) - 1.0


def mp_optimum(p_e, sigma2, eps):
    """60-digit sigma2 * (t/W0(t/e) - 1) and its slope, t = budget - 1."""
    with mp.workdps(60):
        log_growth = mp.log1p(mp.mpf(eps) / 2)
        t = mp.mpf(p_e) / mp.mpf(sigma2) * log_growth - 1
        w = mp.lambertw(t / mp.e).real
        return float(sigma2 * (t / w - 1)), float(log_growth / (1 + w))


def test_lambert_fixed_points():
    # W0(0) = 0: the limit t/W0(t/e) -> e; W0(e) = 1: t/W0 = e^2
    assert optimal_power_slope(p_e_at(0.0), 1.0, EPS) == LOG_GROWTH
    assert optimal_power_asymptotic(p_e_at(0.0), 1.0, EPS) == pytest.approx(math.e - 1.0, rel=1e-15)
    assert lambert_via_slope(math.e) == pytest.approx(1.0, rel=1e-12)
    assert optimal_power_asymptotic(p_e_at(math.e), 1.0, EPS) == pytest.approx(
        math.e**2 - 1.0, rel=1e-12
    )


def test_lambert_reference_value():
    # frozen: bisection on w*e^w - x over [-1, 0] (mpmath cross-check agrees)
    w_ref = -0.23204351638163468
    assert lambert_via_slope(-0.18399) == pytest.approx(w_ref, abs=1e-11)
    assert optimal_power_asymptotic(p_e_at(-0.18399), 1.0, EPS) == pytest.approx(
        -0.18399 * math.e / w_ref - 1.0, rel=1e-10
    )


def test_lambert_near_branch_regression():
    # 1.1e-8 above the branch point the budget is 3e-8: the optimum takes
    # 1 + W0 from the branch-point series rather than from lambertw
    x = -INV_E + 1.1e-8
    w = lambert_via_slope(x)
    assert -1.0 <= w < -0.999
    assert abs(w * math.exp(w) - x) <= 1e-12


def test_lambert_domain_errors():
    # a budget that overflows, underflows to 0 or is NaN has no optimum
    for p_e, sigma2, eps in (
        (math.inf, 1.0, 0.5),
        (1e300, 1e-300, 0.5),
        (1.0, math.inf, 0.5),
        (1e-300, 1e300, 0.5),
        (1.0, 1.0, 5e-324),
        (math.inf, math.inf, 0.5),
    ):
        with pytest.raises(DomainError, match="power budget"):
            optimal_power_asymptotic(p_e, sigma2, eps)
        with pytest.raises(DomainError, match="power budget"):
            optimal_power_slope(p_e, sigma2, eps)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.floats(min_value=-INV_E + 1e-6, max_value=1e6),
        st.floats(min_value=-300.0, max_value=6.0).map(lambda e: 10.0**e),
    )
)
def test_lambert_defining_identity(x):
    w = lambert_via_slope(x)
    # the budget rounds to one ulp, which moves x by up to about 1e-16 max(1, |x|)
    x_seen = (p_e_at(x) * LOG_GROWTH - 1.0) * INV_E
    assert w >= -1.0
    assert abs(w * math.exp(w) - x_seen) <= 1e-12 * max(1.0, abs(x))


def test_optimal_power_matches_mpmath_reference():
    # 40-digit mpmath value; the Halley iteration this replaced was 2.8e-11 off
    assert optimal_power_asymptotic(168.41965087223898, 1.0, 0.01) == pytest.approx(
        1.5531620504450212, rel=1e-13
    )


BUDGETS = [1e-30, 1e-20, 1e-16, 1e-10, 1e-6, 9.99e-6, 1.001e-5, 1e-3, 0.5, 1.0 - 1e-9, 1.0 + 1e-9, 3.0, 1e4]


@pytest.mark.parametrize("p_e, eps", [(b / LOG_GROWTH, EPS) for b in BUDGETS] + [(1e-10, 1e-6)])
def test_optimal_power_tracks_mpmath_over_budgets(p_e, eps):
    # near b = 0, b - 1 rounds to -1 and t/W0 - 1 cancels: the branch-point
    # series takes over below b = 1e-5. At (1e-10, 1e-6), b = 5e-17, where
    # the optimum read 0.0 and the slope raised ZeroDivisionError
    p_ref, slope_ref = mp_optimum(p_e, 1.0, eps)
    assert optimal_power_asymptotic(p_e, 1.0, eps) == pytest.approx(p_ref, rel=2e-11)
    assert optimal_power_slope(p_e, 1.0, eps) == pytest.approx(slope_ref, rel=2e-11)


# ----------------------------------------------------------------
# Gauss hypergeometric 2F1, at the parameter families the package uses


def test_hyp_at_zero_is_one():
    assert hyp2f1(0.7, 1.3, 2.9, 0.0) == 1.0


def test_hyp_log_identity():
    # 2F1(1,1;2;z) = -ln(1-z)/z
    for z in (-0.5, -1.0, -7.0, -200.0, 0.25, 0.9):
        expected = -math.log1p(-z) / z
        assert hyp2f1(1.0, 1.0, 2.0, z) == pytest.approx(expected, rel=1e-10)


def test_hyp_reference_value():
    # frozen: adaptive quadrature of the Euler integral representation
    val = hyp2f1(1.0, 1.0 - 2.0 / 3.6, 2.0 - 2.0 / 3.6, -5.0)
    assert val == pytest.approx(0.54357645755532237, rel=1e-11)


def test_hyp_direct_vs_pfaff_routes():
    # For z in (-1, 0) the raw series converges too; it must agree closely.
    for z in (-0.05, -0.3, -0.6, -0.95):
        a, b, c = 0.8, 1.0 - 2.0 / 3.6, 2.0 - 2.0 / 3.6
        direct = sum_series(a, b, c, z)
        assert hyp2f1(a, b, c, z) == pytest.approx(direct, rel=1e-10)


def sum_series(a, b, c, z, terms=400):
    total, term = 1.0, 1.0
    for k in range(terms):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
        total += term
    return total


# ----------------------------------------------------------------
# Derivatives of the 2F1 kernel, in the positive-argument form


def kernel_deriv(k, x1, eta):
    """k-th derivative in x1 of 2F1(1, 1-beta; 2-beta; -x1), beta = 2/eta.

    DLMF 15.5.2 with Pfaff's transformation gives
    (-1)^k k! (1-beta)/(k+1-beta) (1+x1)^(-k-1) 2F1(k+1, 1; k+2-beta; w),
    w = x1/(1+x1): the same positive-argument family of hyp2f1 calls that
    the beacon-field derivative ladder makes for small arguments.
    """
    beta = 2.0 / eta
    hyp = hyp2f1(k + 1.0, 1.0, k + 2.0 - beta, x1 / (1.0 + x1))
    return (-1.0) ** k * math.factorial(k) * (1.0 - beta) / (k + 1.0 - beta) * hyp / (
        1.0 + x1
    ) ** (k + 1)


def test_deriv_order_zero_is_function():
    for x1 in (0.0, 0.7, 12.0):
        assert kernel_deriv(0, x1, 3.6) == pytest.approx(
            hyp2f1(1.0, 1.0 - 2.0 / 3.6, 2.0 - 2.0 / 3.6, -x1), rel=1e-12
        )


def test_deriv_first_order_at_origin():
    eta = 3.6
    expected = -(1.0 - 2.0 / eta) / (2.0 - 2.0 / eta)
    assert kernel_deriv(1, 0.0, eta) == pytest.approx(expected, rel=1e-12)


def test_deriv_reference_value():
    # frozen: Richardson-extrapolated central differences of the 2F1 kernel
    assert kernel_deriv(3, 2.0, 3.6) == pytest.approx(-0.024742440905617058, rel=1e-9)


@pytest.mark.parametrize("eta", [2.5, 3.6, 4.0])
@pytest.mark.parametrize("x1", [0.1, 1.0, 50.0])
def test_deriv_ladder_consistent_with_finite_differences(eta, x1):
    # d/dx1 of order k-1 should match order k (central difference, h tuned
    # for ~1e-8 truncation error; spec'd agreement is 1e-5 relative).
    for k in (1, 2, 3, 6):
        h = 1e-4 * max(1.0, x1)
        fd = (kernel_deriv(k - 1, x1 + h, eta) - kernel_deriv(k - 1, x1 - h, eta)) / (2.0 * h)
        exact = kernel_deriv(k, x1, eta)
        assert fd == pytest.approx(exact, rel=1e-5)


def test_deriv_input_validation():
    # derivative orders now enter through laplace_derivs
    net = NetworkParams(density=1e-3, p_pb=1e3)
    with pytest.raises(DomainError):
        laplace_derivs(1.0, -1, net)
    with pytest.raises(DomainError):
        laplace_derivs(1.0, 1.5, net)
    with pytest.raises(DomainError):
        laplace_derivs(1.0, float("nan"), net)
    with pytest.raises(DomainError):
        laplace_derivs(1.0, float("inf"), net)
    with pytest.raises(DomainError):
        laplace_derivs(-0.5, 2, net)
    with pytest.raises(DomainError):
        laplace_derivs(float("nan"), 2, net)
