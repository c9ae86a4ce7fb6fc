"""Lowering/raising differential operators and the order-(r+1) ODE.

Differentiation lowers the degree of the kernel polynomial while raising
both weight exponents by one; multiplying by the weight and differentiating
raises the degree while lowering the exponents.  Chaining the two yields a
linear differential equation of order r+1 satisfied by p_n, which is used
here purely as an identity on known polynomials (it is also the source of
the limiting algebraic Stieltjes equation, see asymptotics.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import pochhammer
from .poly import Poly, identity_residual, padded_coeffs
from .polynomials import Params, base_poly

__all__ = [
    "lowering_check",
    "RaisingCoeffs",
    "raising_coeffs",
    "raising_check",
    "OdeSpec",
    "ode_coeffs",
    "ode_residual",
]


def _coef_dev(left, right):
    # max coefficientwise deviation relative to the larger inf-norm
    n = max(len(left.coeffs), len(right.coeffs))
    fa = padded_coeffs(left.coeffs, n)
    fb = padded_coeffs(right.coeffs, n)
    scale = max(np.abs(fa).max(), np.abs(fb).max(), 1e-300)
    return float(np.abs(fa - fb).max() / scale)


def lowering_check(n, params):
    """Deviation of p_n' from n * p_(n-1) with both exponents raised by one."""
    if n < 1:
        raise ValueError("lowering_check needs n >= 1")
    d = base_poly(n, params).derivative()
    shifted = Params(params.r, params.alpha + 1.0, params.beta + 1.0)
    target = base_poly(n - 1, shifted).scale(float(n))
    return _coef_dev(d, target)


@dataclass(frozen=True)
class RaisingCoeffs:
    """Connection coefficients a_k, k = 1..r, of the raising identity."""

    n: int
    values: tuple


def raising_coeffs(n, params):
    r, a, b = params.r, params.alpha, params.beta
    vals = tuple(
        (-1.0) ** k * (math.comb(r, k) * (r * a + b) + math.comb(r + 1, k + 1) * k * n)
        for k in range(1, r + 1)
    )
    return RaisingCoeffs(n, vals)


def _weight_factor_polys(params):
    r, a, b = params.r, params.alpha, params.beta
    w1 = np.zeros(r + 1)
    w1[0] = b
    w1[r] = -(b + a * r)  # beta (1-x^r) - alpha r x^r
    w2 = np.zeros(r + 2)
    w2[1] = 1.0
    w2[r + 1] = -1.0  # x (1-x^r)
    return Poly(w1), Poly(w2)


def raising_check(n, params):
    """Deviation between the two expansions of the raised polynomial
    (beta(1-x^r) - alpha r x^r) p_n + x(1-x^r) p_n'  (degree n+r).

    Valid on alpha, beta > r-1, where the shifted parameters alpha-k,
    beta-k stay admissible; no analytic continuation is attempted outside.
    """
    r, a, b = params.r, params.alpha, params.beta
    if not (a > r - 1 and b > r - 1):
        raise ValueError("raising identity requires alpha, beta > r-1")
    p = base_poly(n, params)
    w1, w2 = _weight_factor_polys(params)
    lhs = w1 * p + w2 * p.derivative()

    rhs = Poly([0.0])
    for k, ak in zip(range(1, r + 1), raising_coeffs(n, params).values):
        pk = base_poly(n + k, Params(r, a - k, b - k))
        rhs = rhs + pk.shift_up(r - k).scale(ak)
    return _coef_dev(lhs, rhs)


@dataclass(frozen=True)
class OdeSpec:
    """Coefficient data of  x(1-x^r) y^(r+1) + (r+beta) y^(r)
    + sum_k c_k x^k y^(k) = 0;  ``c[k]`` multiplies x^k y^(k)."""

    n: int
    params: Params
    c: tuple

    @property
    def order(self):
        return self.params.r + 1

    @property
    def top_factor(self):
        """Coefficients of x(1-x^r), the factor on the order-(r+1) term."""
        r = self.params.r
        out = np.zeros(r + 2)
        out[1] = 1.0
        out[r + 1] = -1.0
        return out

    @property
    def subtop_scalar(self):
        """r + beta, the constant factor on the order-r term."""
        return self.params.r + self.params.beta


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


def ode_residual(spec):
    """Max normalized residual of the ODE applied to p_n, checked as a
    polynomial identity on coefficients.

    p_n is ``base_poly(n)``; its derivatives are taken exactly on the
    coefficient representation, and the ODE coefficients are the doubles
    ``spec.c`` as handed in.  The terms x(1-x^r) y^(r+1), (r+beta) y^(r)
    and c_k x^k y^(k) are coefficient vectors; at each coefficient index
    the magnitude of their sum is divided by the largest term there, and
    the worst ratio over indices is returned.
    """
    params, n = spec.params, spec.n
    r, b = params.r, params.beta
    size = n + 1  # every term has degree <= n
    derivs = [base_poly(n, params).coeffs]
    for _ in range(r + 1):
        derivs.append(derivs[-1][1:] * np.arange(1, len(derivs[-1])))
    top = derivs[r + 1]
    terms = [
        padded_coeffs(top, size, 1) - padded_coeffs(top, size, r + 1),
        (r + b) * padded_coeffs(derivs[r], size),
    ]
    terms.extend(spec.c[k] * padded_coeffs(derivs[k], size, k) for k in range(r + 1))
    return identity_residual(terms)
