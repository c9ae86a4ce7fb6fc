"""Nearest-neighbor recurrence coefficients near the diagonal.

The star recurrence, valid for every ray entry j and every ray k,

    x A_n(x) = A_(n-e_k)(x) + b_n,k A_n(x) + sum_l a_n,l A_(n+e_l)(x),

has ray-resolved coefficients a_n,l = a(n) omega^(2(l-1)) and
b_n,k = b(n) omega^(k-1) built from two positive scalar profiles.  Only
this star parametrization is exposed.
"""

from __future__ import annotations

from .numerics import gamma_ratio, roots_of_unity
from .poly import identity_residual, padded_coeffs
from .polynomials import type1_diagonal, type1_down, type1_up

__all__ = [
    "coeff_a",
    "coeff_b",
    "limit_a",
    "limit_b",
    "recurrence_residual",
    "recurrence_residuals",
]


def coeff_a(n, params):
    """Scalar profile a(n) of the up-neighbor coefficients at level n."""
    if n < 1:
        raise ValueError("coeff_a needs n >= 1")
    r, a, b = params.r, params.alpha, params.beta
    if n == 1:
        # at n = 1 the linear factor r+r*alpha+beta equals r times the
        # gamma argument 1+alpha+beta/r, which can sit on a pole; fusing
        # x*Gamma(x) = Gamma(x+1) keeps the profile finite there
        pre = (1.0 + a) / ((r + 1 + r * a + b) * (r + 2 + r * a + b))
        return pre * gamma_ratio(
            [(b + 2.0) / r, 2.0 + a + b / r],
            [b / r + 1.0, 1.0 + a + (b + 2.0) / r],
        )
    pre = (
        n
        * (n + a)
        * (r * n + r * a + b)
        / (r * (r * n + n + r * a + b) * (r * n + n + r * a + b + 1.0))
    )
    gr = gamma_ratio(
        [(b + n + 1.0) / r, n + a + (b + n - 1.0) / r],
        [(b + n - 1.0) / r + 1.0, n + a + (b + n + 1.0) / r],
    )
    return pre * gr


def coeff_b(n, params):
    """Scalar profile b(n) of the down-neighbor coefficient at level n.

    Defined for r > 1 only: the star parametrization does not cover r = 1
    (that case is plain Jacobi on [0,1] in a different normalization).
    """
    if n < 1:
        raise ValueError("coeff_b needs n >= 1")
    r, a, b = params.r, params.alpha, params.beta
    if r < 2:
        raise ValueError("coeff_b is defined for r >= 2 only")
    if n == 1:
        # same fusion as in coeff_a: both linear factors pair with gamma
        # arguments that may degenerate at n = 1
        return gamma_ratio(
            [2.0 + a + (b - 1.0) / r, b / r + 1.0],
            [2.0 + a + b / r, (b - 1.0) / r + 1.0],
        )
    pre = (n + a + (b - 1.0) / r) / (n + a + (n + b - 1.0) / r)
    gr = gamma_ratio(
        [n + a + (n + b - 2.0) / r, (n + b - 1.0) / r + 1.0],
        [n + a + (n + b - 1.0) / r, (n + b - 2.0) / r + 1.0],
    )
    return pre * gr


def limit_a(r):
    """n -> infinity limit of coeff_a: r/(r+1)^(2+2/r)."""
    return r / (r + 1.0) ** (2.0 + 2.0 / r)


def limit_b(r):
    """n -> infinity limit of coeff_b (r > 1): r/(r+1)^(1+1/r)."""
    return r / (r + 1.0) ** (1.0 + 1.0 / r)


def recurrence_residual(n, k, params):
    """Largest normalized deviation of the nearest-neighbor relation at
    level n, ray k, checked as a polynomial identity on coefficients.

    Every vector comes from its closed-form construction.  For each ray
    entry j the terms x A_n, -A_(n-e_k), -b_k A_n and -a_l A_(n+e_l) are
    coefficient vectors; at each coefficient index the magnitude of their
    sum is divided by the largest term there, and the worst ratio over
    indices and entries is returned.
    """
    return _ray_residual(n, k, params, *_level_terms(n, params))


def recurrence_residuals(n, params):
    """``recurrence_residual(n, k, params)`` for k = 1..r, in ray order.

    The level's diagonal vector and its r up vectors are built once and
    shared by the r rays' checks; each residual is the one
    :func:`recurrence_residual` returns.
    """
    terms = _level_terms(n, params)
    return [_ray_residual(n, k, params, *terms) for k in range(1, params.r + 1)]


def _level_terms(n, params):
    # the k-independent vectors and coefficients of level n
    if n < 1:
        raise ValueError("recurrence_residual needs n >= 1")
    r = params.r
    if r < 2:
        raise ValueError("the star recurrence check needs r >= 2")
    cur = type1_diagonal(n, params)
    ups = [type1_up(n, l, params) for l in range(1, r + 1)]
    return cur, ups, coeff_a(n, params), coeff_b(n, params)


def _ray_residual(n, k, params, cur, ups, a_n, b_n):
    r = params.r
    dn = type1_down(n, k, params)
    roots = roots_of_unity(r)
    bk = b_n * roots[(k - 1) % r]
    al = [a_n * roots[(2 * l) % r] for l in range(r)]  # ray l+1 phase

    size = n + 2  # every term has degree <= n
    worst = 0.0
    for j in range(r):
        cj = cur.coeffs[j]
        terms = [
            padded_coeffs(cj, size, 1),
            -padded_coeffs(dn.coeffs[j], size),
            -bk * padded_coeffs(cj, size),
        ]
        terms.extend(-al[l] * padded_coeffs(ups[l].coeffs[j], size) for l in range(r))
        worst = max(worst, identity_residual(terms))
    return worst
