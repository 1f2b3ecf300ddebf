# Tests for the special-function building blocks.

import math

import pytest
from hypothesis import given, settings, strategies as st

from wplink.multi_pb import NetworkParams, _ladder, laplace_derivs
from wplink.specfun import (
    ConvergenceError,
    DomainError,
    gauss_2f1,
    lambert_w0,
)

INV_E = math.exp(-1.0)


# ----------------------------------------------------------------
# Lambert W, principal branch


def test_lambert_fixed_points():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-12)
    assert lambert_w0(-INV_E) == -1.0


def test_lambert_reference_value():
    # frozen: bisection on w*e^w - x over [-1, 0] (mpmath cross-check agrees)
    assert lambert_w0(-0.18399) == pytest.approx(-0.23204351638163468, abs=1e-11)


def test_lambert_near_branch_regression():
    # Regression: residual-based stopping must settle here even though the
    # step in w stalls at the cancellation noise floor (dw ~ eps/|w+1|).
    x = -INV_E + 1.1e-8
    w = lambert_w0(x)
    assert -1.0 <= w < -0.999
    assert abs(w * math.exp(w) - x) <= 1e-12


def test_lambert_domain_errors():
    with pytest.raises(DomainError):
        lambert_w0(-0.5)
    with pytest.raises(DomainError):
        lambert_w0(float("nan"))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.floats(min_value=-INV_E, max_value=1e6),
        st.floats(min_value=-300.0, max_value=6.0).map(lambda e: 10.0**e),
    )
)
def test_lambert_defining_identity(x):
    w = lambert_w0(x)
    assert w >= -1.0
    assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


# ----------------------------------------------------------------
# Gauss hypergeometric 2F1


def test_hyp_at_zero_is_one():
    assert gauss_2f1(0.7, 1.3, 2.9, 0.0) == 1.0


def test_hyp_log_identity():
    # 2F1(1,1;2;z) = -ln(1-z)/z
    for z in (-0.5, -1.0, -7.0, -200.0, 0.25, 0.9):
        expected = -math.log1p(-z) / z
        assert gauss_2f1(1.0, 1.0, 2.0, z) == pytest.approx(expected, rel=1e-10)


def test_hyp_reference_value():
    # frozen: adaptive quadrature of the Euler integral representation
    val = gauss_2f1(1.0, 1.0 - 2.0 / 3.6, 2.0 - 2.0 / 3.6, -5.0)
    assert val == pytest.approx(0.54357645755532237, rel=1e-11)


def test_hyp_direct_vs_pfaff_routes():
    # For z in (-1, 0) the raw series converges too, so both evaluation
    # routes are available; they must agree closely.
    for z in (-0.05, -0.3, -0.6, -0.95):
        a, b, c = 0.8, 1.0 - 2.0 / 3.6, 2.0 - 2.0 / 3.6
        direct = sum_series(a, b, c, z)
        assert gauss_2f1(a, b, c, z) == pytest.approx(direct, rel=1e-10)


def sum_series(a, b, c, z, terms=400):
    total, term = 1.0, 1.0
    for k in range(terms):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
        total += term
    return total


def test_hyp_domain_errors():
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 0.5, 1.5, 1.0)
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 0.5, -2.0, -1.0)


# ----------------------------------------------------------------
# Derivatives of the 2F1 kernel, in the positive-argument form


def kernel_deriv(k, x1, eta):
    """k-th derivative in x1 of 2F1(1, 1-beta; 2-beta; -x1), beta = 2/eta.

    DLMF 15.5.2 with Pfaff's transformation gives
    (-1)^k k! (1-beta)/(k+1-beta) (1+x1)^(-k-1) 2F1(k+1, 1; k+2-beta; w),
    w = x1/(1+x1): the same positive-argument family of gauss_2f1 calls that
    the beacon-field derivative ladder makes for small arguments.
    """
    beta = 2.0 / eta
    hyp = gauss_2f1(k + 1.0, 1.0, k + 2.0 - beta, x1 / (1.0 + x1))
    return (-1.0) ** k * math.factorial(k) * (1.0 - beta) / (k + 1.0 - beta) * hyp / (
        1.0 + x1
    ) ** (k + 1)


def test_deriv_order_zero_is_function():
    for x1 in (0.0, 0.7, 12.0):
        assert kernel_deriv(0, x1, 3.6) == pytest.approx(
            gauss_2f1(1.0, 1.0 - 2.0 / 3.6, 2.0 - 2.0 / 3.6, -x1), rel=1e-12
        )


def test_deriv_first_order_at_origin():
    eta = 3.6
    expected = -(1.0 - 2.0 / eta) / (2.0 - 2.0 / eta)
    assert kernel_deriv(1, 0.0, eta) == pytest.approx(expected, rel=1e-12)


def test_deriv_reference_value():
    # frozen: Richardson-extrapolated central differences of gauss_2f1
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


# ----------------------------------------------------------------
# Complete Bell polynomials: the product recurrence of the derivative
# ladder, L^(n) = L B_n(g', ..., g^(n)) for L = exp(g)


def complete_bell(u):
    return _ladder(1.0, list(u))[-1]


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
    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(10):
        us = rng.uniform(-2.0, 2.0, size=8)
        for n in (2, 5, 8):
            expected = partition_expansion(list(us[:n]))
            assert complete_bell(list(us[:n])) == pytest.approx(expected, rel=1e-10)
