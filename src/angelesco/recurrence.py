"""Nearest-neighbor recurrence coefficients near the diagonal.

The star recurrence, valid for every ray entry j and every ray k,

    x A_n(x) = A_(n-e_k)(x) + b_n,k A_n(x) + sum_l a_n,l A_(n+e_l)(x),

has ray-resolved coefficients a_n,l = a(n) omega^(2(l-1)) and
b_n,k = b(n) omega^(k-1) built from two positive scalar profiles.  Only
this star parametrization is exposed.  The profiles take the
constructors' range guard, so they raise ``DoubleRangeError`` where the
vectors do.

The recurrence is checked as an identity on coefficients, one level at a
time: one kernel stacks the terms of every ray k and entry j, read from
the level's memoized up and down tables, and sums them in a fixed order
(see :func:`recurrence_residuals`).
"""

from __future__ import annotations

import numpy as np

from .numerics import gamma_ratio, roots_of_unity
from .polynomials import (
    _affine,
    _check_ray,
    type1_diagonal,
    type1_down_stack,
    type1_up_stack,
)

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
    _affine(params)  # the constructors' range guard
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
    _affine(params)
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
    indices and entries is returned.  This is entry k-1 of
    :func:`recurrence_residuals`.
    """
    return _level_residuals(n, params, k)[k - 1]


def recurrence_residuals(n, params):
    """``recurrence_residual(n, k, params)`` for k = 1..r, in ray order.

    One kernel checks the whole level.  It reads the diagonal vector and
    the memoized r x r tables of the up and down vectors once, and stacks
    every term of every ray k and entry j into one
    (r + 3) x r x r x (n + 2) array, indexed (term, k, j, coefficient).
    The terms are summed in the order x A_n, -A_(n-e_k), -b_k A_n, then
    -a_l A_(n+e_l) for l = 1..r, one vectorized add per term, so every
    residual is bitwise the one a per-ray, per-entry loop gives.
    """
    return _level_residuals(n, params)


def _level_residuals(n, params, k=None):
    # the constructors' guards run in the order the per-ray loop met them:
    # the diagonal, the up vectors, the profiles, the ray k, the down vectors
    if n < 1:
        raise ValueError("recurrence_residual needs n >= 1")
    r = params.r
    if r < 2:
        raise ValueError("the star recurrence check needs r >= 2")
    cur = type1_diagonal(n, params).coeffs  # [j, t], t < n
    ups = type1_up_stack(n, params)  # [l, j, t], t <= n
    a_n, b_n = coeff_a(n, params), coeff_b(n, params)
    if k is not None:
        _check_ray(k, r)
    downs = type1_down_stack(n, params)  # [k, j, t], t < n

    roots = roots_of_unity(r)
    bk = b_n * roots  # ray k's phase omega^(k-1)
    al = a_n * roots[(2 * np.arange(r)) % r]  # ray l's phase omega^(2(l-1))
    size = n + 2  # every term has degree <= n
    terms = np.zeros((r + 3, r, r, size), dtype=complex)
    terms[0, :, :, 1 : n + 1] = cur
    terms[1, :, :, :n] = -downs
    terms[2, :, :, :n] = -bk[:, None, None] * cur
    terms[3:, :, :, : n + 1] = (-al[:, None, None] * ups)[:, None]
    # the per-entry sum ((T_0 + T_1) + T_2) + ..., in term order; neither
    # np.sum (pairwise) nor a product over l keeps that rounding
    total = terms[0] + terms[1]
    for term in terms[2:]:
        total += term
    # indices where every term is zero are skipped; a NaN reaches its ray
    den = np.abs(terms).max(axis=0)
    ratio = np.divide(np.abs(total), den, out=np.zeros(den.shape), where=den > 0.0)
    return ratio.max(axis=(1, 2)).tolist()
