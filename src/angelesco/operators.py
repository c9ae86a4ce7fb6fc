"""Lowering/raising differential operators and the order-(r+1) ODE.

Differentiation lowers the degree of the kernel polynomial while raising
both weight exponents by one; multiplying by the weight and differentiating
raises the degree while lowering the exponents.  Chaining the two yields a
linear differential equation of order r+1 satisfied by p_n, which is used
here purely as an identity on known polynomials (it is also the source of
the limiting algebraic Stieltjes equation, see asymptotics.py).

All three checks work on the coefficient arrays of ``base_poly``: a
derivative is taken exactly on the coefficients, a product with x^k is a
shift, and each side of an identity is a coefficient vector padded to the
identity's degree, built under ``numerics.overflow_trap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import overflow_trap, pochhammer
from .poly import identity_residual, padded_coeffs
from .polynomials import Params, base_poly

__all__ = [
    "lowering_check",
    "raising_coeffs",
    "raising_check",
    "OdeSpec",
    "ode_coeffs",
    "ode_residual",
]


def _derivative(c):
    # exact on the coefficients: k c_k moves to index k - 1
    return c[1:] * np.arange(1, len(c))


def _x_one_minus_xr(c, r, size):
    # coefficients of x(1 - x^r) c(x), padded to ``size``
    return padded_coeffs(c, size, 1) - padded_coeffs(c, size, r + 1)


def _coef_dev(left, right):
    # max coefficientwise deviation relative to the larger inf-norm
    scale = max(np.abs(left).max(), np.abs(right).max(), 1e-300)
    return float(np.abs(left - right).max() / scale)


@overflow_trap("an identity term")
def lowering_check(n, params):
    """Deviation of p_n' from n * p_(n-1) with both exponents raised by one."""
    if n < 1:
        raise ValueError("lowering_check needs n >= 1")
    d = _derivative(base_poly(n, params))
    shifted = Params(params.r, params.alpha + 1.0, params.beta + 1.0)
    target = float(n) * base_poly(n - 1, shifted)
    return _coef_dev(padded_coeffs(d, n), padded_coeffs(target, n))


def raising_coeffs(n, params):
    """Connection coefficients (a_1, ..., a_r) of the raising identity."""
    r, a, b = params.r, params.alpha, params.beta
    return tuple(
        (-1.0) ** k * (math.comb(r, k) * (r * a + b) + math.comb(r + 1, k + 1) * k * n)
        for k in range(1, r + 1)
    )


@overflow_trap("an identity term")
def raising_check(n, params):
    """Deviation between the two expansions of the raised polynomial
    (beta(1-x^r) - alpha r x^r) p_n + x(1-x^r) p_n'  (degree n+r).

    Valid on alpha, beta > r-1, where the shifted parameters alpha-k,
    beta-k stay admissible; no analytic continuation is attempted outside.
    """
    r, a, b = params.r, params.alpha, params.beta
    if not (a > r - 1 and b > r - 1):
        raise ValueError("raising identity requires alpha, beta > r-1")
    c = base_poly(n, params)
    size = n + r + 1  # both sides have degree <= n + r
    lhs = b * padded_coeffs(c, size) - (b + a * r) * padded_coeffs(c, size, r)
    lhs += _x_one_minus_xr(_derivative(c), r, size)

    rhs = np.zeros(size)
    for k, ak in enumerate(raising_coeffs(n, params), start=1):
        pk = base_poly(n + k, Params(r, a - k, b - k))
        rhs += ak * padded_coeffs(pk, size, r - k)
    return _coef_dev(lhs, rhs)


@dataclass(frozen=True)
class OdeSpec:
    """Coefficient data of  x(1-x^r) y^(r+1) + (r+beta) y^(r)
    + sum_k c_k x^k y^(k) = 0;  ``c[k]`` multiplies x^k y^(k)."""

    n: int
    params: Params
    c: tuple


def ode_coeffs(n, params):
    r, a, b = params.r, params.alpha, params.beta
    c = []
    for k in range(r + 1):
        val = (
            pochhammer(n - r + 1.0, r - k)
            * (math.comb(r, k) * (r * a + b) + math.comb(r + 1, k) * (r * n + r - k * n))
        )
        c.append(val if (r + k + 1) % 2 == 0 else -val)
    return OdeSpec(n, params, tuple(c))


@overflow_trap("an identity term")
def ode_residual(spec):
    """Max normalized residual of the ODE applied to p_n, checked as a
    polynomial identity on coefficients.

    p_n is ``base_poly(n)``; its derivatives are taken exactly on the
    coefficient representation, and the ODE coefficients are the doubles
    ``spec.c`` as handed in.  The terms x(1-x^r) y^(r+1), (r+beta) y^(r)
    and c_k x^k y^(k) are coefficient vectors, and the worst ratio of
    ``poly.identity_residual`` is returned: NaN if a coefficient is NaN.
    A term outside the double range raises ``DoubleRangeError``.
    """
    params, n = spec.params, spec.n
    r, b = params.r, params.beta
    size = n + 1  # every term has degree <= n
    derivs = [base_poly(n, params)]
    for _ in range(r + 1):
        derivs.append(_derivative(derivs[-1]))
    terms = [
        _x_one_minus_xr(derivs[r + 1], r, size),
        (r + b) * padded_coeffs(derivs[r], size),
    ]
    terms.extend(spec.c[k] * padded_coeffs(derivs[k], size, k) for k in range(r + 1))
    return float(identity_residual(terms).max())
