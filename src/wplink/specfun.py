"""Scalar special functions used by the link-budget closed forms.

Everything here is deliberately plain double-precision Python: these routines
back the analytic expressions elsewhere in the package, and keeping them
dependency-free makes their numerics auditable.

Provided:

* :func:`lambert_w0` -- principal branch of the Lambert W function.
* :func:`gauss_2f1` -- Gauss hypergeometric function 2F1 for real arguments.
"""

from __future__ import annotations

import math

__all__ = [
    "DomainError",
    "ConvergenceError",
    "lambert_w0",
    "gauss_2f1",
]


class DomainError(ValueError):
    """Raised when an input lies outside a function's mathematical domain."""


class ConvergenceError(ArithmeticError):
    """Raised when an iteration or series fails to meet its tolerance."""


# Stopping rule of the iterative routines: the relative tolerance of the
# stopping test (lambert_w0's defect, the 2F1 series' tail bound) and the cap
# on iterations or terms before ConvergenceError.
_REL_TOL = 1e-12
_MAX_ITER = 100_000

_INV_E = math.exp(-1.0)


# =============================================================================
# Lambert W, principal branch
# =============================================================================


def _w0_initial_guess(x: float) -> float:
    """Starting point for the Halley iteration, chosen by regime."""
    if x < -0.25:
        # Branch-point expansion around x = -1/e in powers of
        # p = sqrt(2 (e x + 1)).
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        return -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    if x > math.e:
        # Two-term log asymptote, accurate enough to converge in a few steps.
        l1 = math.log(x)
        l2 = math.log(l1)
        return l1 - l2 + l2 / l1
    # Mid-range: a crude rational guess; Halley cleans it up quickly.
    return x / (1.0 + x) if x > -0.99 else -0.99


def lambert_w0(x: float) -> float:
    """Principal branch W0 of the Lambert W function, w * exp(w) = x.

    Halley's iteration stops once the defect is at most 1e-12 times
    max(1, |x|), within 100 000 iterations.

    Args:
        x: Argument, must satisfy x >= -1/e.

    Returns:
        The real solution w >= -1.

    Raises:
        DomainError: If x < -1/e (no real principal-branch value).
        ConvergenceError: If the Halley iteration fails to settle.
    """
    if math.isnan(x):
        raise DomainError("lambert_w0: argument is NaN")
    if x < -_INV_E:
        # Allow for representation error right at the branch point.
        if x > -_INV_E - 4.0 * abs(x) * 2.2e-16:
            return -1.0
        raise DomainError(f"lambert_w0: argument {x!r} below -1/e")
    if x == 0.0:
        return 0.0

    w = _w0_initial_guess(x)
    scale = max(1.0, abs(x))
    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        # Test the defect itself rather than the step size: near the branch
        # point the defect is well conditioned long before the step in w can
        # settle (there dw ~ eps / |w + 1|).
        if abs(f) <= _REL_TOL * scale:
            return w
        wp1 = w + 1.0
        if wp1 == 0.0:
            # Only reachable essentially at the branch point.
            return -1.0
        # Halley's update for f(w) = w e^w - x.
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        new_w = w - step
        if new_w == w:
            # Step below one ulp of w: no further progress is possible.
            return w
        w = new_w
    raise ConvergenceError(f"lambert_w0: no convergence for x={x!r}")


# =============================================================================
# Gauss hypergeometric function
# =============================================================================


def _hyp_series(a: float, b: float, c: float, z: float) -> float:
    """Plain power series for 2F1(a, b; c; z), |z| < 1."""
    term = 1.0
    total = 1.0
    for k in range(_MAX_ITER):
        prev = abs(term)
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
        total += term
        # Bound the remaining tail by the geometric series at the current
        # term ratio (the ratio tends to z, so this becomes exact).
        if term == 0.0:
            return total
        ratio = abs(term) / prev if prev > 0.0 else 1.0
        if ratio < 1.0:
            tail = abs(term) * ratio / (1.0 - ratio)
            if tail <= _REL_TOL * abs(total):
                return total
    raise ConvergenceError(
        f"gauss_2f1: series for ({a}, {b}; {c}; {z}) did not converge"
    )


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for real arguments.

    Evaluated by the defining power series. Negative arguments are first
    mapped into [0, 1) with the Pfaff transformation
    2F1(a, b; c; z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)), which keeps every
    series term positive for the parameter families used in this package.
    The series stops once its tail bound is at most 1e-12 of the sum.

    Args:
        a, b, c: Parameters; c must not be zero or a negative integer.
        z: Argument, must satisfy z < 1.

    Raises:
        DomainError: If c is a non-positive integer or z >= 1.
        ConvergenceError: If the series needs more than 100 000 terms.
    """
    if c <= 0.0 and c == math.floor(c):
        raise DomainError(f"gauss_2f1: c={c!r} is a non-positive integer")
    if not (z < 1.0):
        raise DomainError(f"gauss_2f1: argument z={z!r} outside z < 1")
    if z == 0.0:
        return 1.0
    if z < 0.0:
        w = z / (z - 1.0)  # in (0, 1)
        return (1.0 - z) ** (-a) * _hyp_series(a, c - b, c, w)
    return _hyp_series(a, b, c, z)

