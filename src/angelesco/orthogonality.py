"""Moment-based verification of the type I orthogonality relations.

The weight has analytic moments: int_0^1 x^(m+beta) (1-x^r)^alpha dx is a
beta integral, so every star integral of a polynomial reduces to a finite
linear combination of exact moments.  That turns each orthogonality and
normalization condition into a residual carrying only rounding error, i.e.
a true oracle against which the closed-form constructions are checked.
A Gauss-Jacobi quadrature rule (after t = x^r) is provided as a secondary
cross-check utility; verification itself never uses quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .numerics import gamma_ratio, root_of_unity
from .polynomials import base_poly, Params

__all__ = [
    "moment",
    "OrthoReport",
    "ray_form",
    "ray_form_direct",
    "verify_type1",
    "check_modr",
    "gauss_jacobi_rstar",
]


def moment(m, params, alpha_shift=0):
    """int_0^1 x^(m+beta) (1-x^r)^(alpha+alpha_shift) dx
    = (1/r) B((m+beta+1)/r, alpha+alpha_shift+1)."""
    r, a, b = params.r, params.alpha + alpha_shift, params.beta
    u = (m + b + 1.0) / r
    return gamma_ratio([u, a + 1.0], [u + a + 1.0]) / r


@lru_cache(maxsize=256)
def _moment_row(r, alpha, beta, max_m):
    p = Params(r, alpha, beta)
    vals = np.array([moment(m, p) for m in range(max_m + 1)])
    vals.setflags(write=False)
    return vals


@lru_cache(maxsize=4096)
def _phase_vec(r, e, length):
    v = np.array([root_of_unity(r, e * m) for m in range(length)])
    v.setflags(write=False)
    return v


def _table_for(v, k):
    max_m = k + max(len(p.coeffs) for p in v.polys) - 1
    return _moment_row(v.params.r, v.params.alpha, v.params.beta, max_m)


def ray_form_direct(k, v):
    """sum_j omega^((j-1)(k+1)) sum_m c_{j,m} omega^((j-1)m) moment(k+m),
    i.e. the star integral sum_j int_0^(omega^(j-1)) x^k A_j(x) w(x) dx
    reduced to [0,1] moments by the ray parametrization x = omega^(j-1) t."""
    r = v.params.r
    mom = _table_for(v, k)
    total = 0j
    for j, p in enumerate(v.polys, start=1):
        c = p.coeffs
        inner = np.dot(c * _phase_vec(r, j - 1, len(c)), mom[k : k + len(c)])
        total += root_of_unity(r, (j - 1) * (k + 1)) * inner
    return total


def ray_form(k, v):
    """Star moment functional of a type I vector at power k.

    Diagonal vectors short-circuit: their entries are rotations of one real
    base polynomial, so the ray sum collapses to a root-of-unity sum that
    vanishes identically unless k+1 = 0 mod r.
    """
    r = v.params.r
    if v.tag.kind == "diagonal" and v.base is not None:
        if (k + 1) % r != 0:
            return 0j
        mom = _table_for(v, k)
        c = v.base.coeffs
        return complex(r * np.dot(c, mom[k : k + len(c)]))
    return ray_form_direct(k, v)


def _residual_scale(v, k):
    # positive-mass counterpart of ray_form: the natural size against which
    # cancellation must be measured (coefficient growth makes absolute
    # tolerances meaningless)
    mom = _table_for(v, k)
    s = 0.0
    for p in v.polys:
        c = np.abs(p.coeffs)
        s += float(np.dot(c, mom[k : k + len(c)]))
    return max(s, 1e-300)


@dataclass(frozen=True)
class OrthoReport:
    """Scaled residuals of the orthogonality and normalization conditions.

    Residuals are |ray_form(k)| divided by the positive-mass scale at k;
    ``norm_residual`` is the scaled distance of the k = |n|-1 value from 1.
    """

    max_ortho_residual: float
    norm_value: complex
    norm_residual: float
    tol: float
    passed: bool


def verify_type1(v, tol=1e-9):
    """Check all |n| conditions of a type I vector against the moment oracle."""
    size = v.size
    if size < 1:
        raise ValueError("vector has an empty multi-index: nothing to verify")
    worst = 0.0
    for k in range(size - 1):
        res = abs(ray_form(k, v)) / _residual_scale(v, k)
        worst = max(worst, res)
    norm = ray_form(size - 1, v)
    scale = max(1.0, _residual_scale(v, size - 1))
    norm_res = abs(norm - 1.0) / scale
    return OrthoReport(
        max_ortho_residual=worst,
        norm_value=norm,
        norm_residual=norm_res,
        tol=tol,
        passed=(worst <= tol and norm_res <= tol),
    )


def check_modr(n, params, tol=1e-12):
    """Orthogonality of p_n to x^(rj-1), 1 <= j <= n, plus its normalization.

    The normalization identity is tested in the telescoped form
    -int_0^1 p_n x^(r+beta-1) (1-x^r)^(alpha+n) dx = (-1)^(n+1) n! / (rn+r alpha+beta+r)_(n+1),
    which stays integrable for every beta > -1.
    """
    if n < 1:
        raise ValueError("check_modr needs n >= 1")
    p = base_poly(n, params)
    c = p.coeffs
    mom = _moment_row(params.r, params.alpha, params.beta, params.r * n - 1 + n)
    ok = True
    for j in range(1, n + 1):
        k = params.r * j - 1
        val = float(np.dot(c, mom[k : k + len(c)]))
        scale = float(np.dot(np.abs(c), mom[k : k + len(c)]))
        ok = ok and abs(val) <= tol * max(scale, 1.0)

    shifted = np.array(
        [moment(m + params.r - 1, params, alpha_shift=n) for m in range(len(c))]
    )
    lhs = -float(np.dot(c, shifted))
    r, a, b = params.r, params.alpha, params.beta
    target = math_factorial_ratio(n, r, a, b)
    if n % 2 == 0:
        target = -target
    scale = max(abs(target), float(np.dot(np.abs(c), shifted)))
    ok = ok and abs(lhs - target) <= tol * scale
    return ok


def math_factorial_ratio(n, r, a, b):
    # n! / (rn + r*alpha + beta + r)_(n+1)
    base = r * n + r * a + b + r
    return gamma_ratio([n + 1.0, base], [base + n + 1.0])


def gauss_jacobi_rstar(npts, params):
    """Nodes and weights with int_0^1 f(x) x^beta (1-x^r)^alpha dx
    ~ sum w_i f(x_i); secondary cross-check only.

    After t = x^r the integral is a Jacobi one on [0,1] with exponents
    (alpha, (beta+1)/r - 1), handled by scipy's Gauss-Jacobi rule.  Exact
    when f is a polynomial in x^r; other monomials become fractional powers
    of t and converge only algebraically with npts.
    """
    r, a, b = params.r, params.alpha, params.beta
    bj = (b + 1.0) / r - 1.0
    t, w = roots_jacobi(npts, a, bj)
    t = (t + 1.0) / 2.0
    w = w * 0.5 ** (a + bj + 1.0) / r
    return t ** (1.0 / r), w
