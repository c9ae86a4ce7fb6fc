"""Moment-based verification of the type I orthogonality relations.

The weight has analytic moments: int_0^1 x^(m+beta) (1-x^r)^alpha dx is a
beta integral, so every star integral of a polynomial reduces to a finite
linear combination of exact moments.  That turns each orthogonality and
normalization condition into a residual carrying only rounding error, i.e.
a true oracle against which the closed-form constructions are checked.
Every condition is a row of the moment Hankel matrix H[k, m] = moment(k+m)
applied to the phase-rotated coefficients of each entry, so a check reads
all r entries of the vector it is handed; no family takes a shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import gamma_ratio, roots_of_unity
from .polynomials import Params

__all__ = [
    "moment",
    "OrthoReport",
    "ray_form",
    "verify_type1",
]


def moment(m, params):
    """int_0^1 x^(m+beta) (1-x^r)^alpha dx = (1/r) B((m+beta+1)/r, alpha+1)."""
    r, a, b = params.r, params.alpha, params.beta
    u = (m + b + 1.0) / r
    return gamma_ratio([u, a + 1.0], [u + (a + 1.0)]) / r


@lru_cache(maxsize=256)
def _moment_row(r, alpha, beta, max_m):
    p = Params(r, alpha, beta)
    vals = np.array([moment(m, p) for m in range(max_m + 1)])
    vals.setflags(write=False)
    return vals


def _hankel(params, ks, cols):
    """H[i, m] = moment(ks[i] + m) for m < cols: a fresh array gathered from
    the cached moment row by one broadcast index sum.  The row's length is
    rounded up to a power of two, so the vectors of one ``verify`` share
    O(log n) rows; each moment is computed on its own, so the gather equals
    one from a row of exact length."""
    need = int(ks.max()) + cols
    max_m = (1 << (need - 1).bit_length()) - 1
    mom = _moment_row(params.r, params.alpha, params.beta, max_m)
    return mom[ks[:, None] + np.arange(cols)]


def _star_forms(v, ks):
    """Star moment functional of ``v`` at the powers ``ks`` and its
    positive-mass scale.

    Entry j (0-based, on the ray x = omega^j t) contributes
    omega^(j(k+1)) sum_m c_(j,m) omega^(jm) moment(k+m).  The scale replaces
    every term by its modulus: the size against which cancellation is
    measured, since coefficient growth makes absolute tolerances
    meaningless.  Both are Hankel products over all ks at once; the phase
    exponents are broadcast products reduced mod r.
    """
    r = v.params.r
    # only up to the last column that holds a nonzero entry (at least one):
    # the products' rounding depends on the length they sum over, so zero
    # columns at the end (a down vector's cancelled top) would move last bits
    live = np.flatnonzero(v.coeffs.any(axis=0))
    width = int(live[-1]) + 1 if live.size else 1
    c = v.coeffs[:, :width]
    h = _hankel(v.params, ks, width)
    roots = roots_of_unity(r)
    j = np.arange(r)
    rotated = c * roots[(j[:, None] * np.arange(width)) % r]
    forms = ((h @ rotated.T) * roots[((ks[:, None] + 1) * j) % r]).sum(axis=1)
    scale = (h @ np.abs(c).T).sum(axis=1)
    return forms, scale


def ray_form(k, v):
    """Star moment functional of a type I vector at power k:
    sum_j int_0^(omega^(j-1)) x^k A_j(x) w(x) dx, reduced to [0,1] moments by
    the ray parametrization x = omega^(j-1) t.  Reads every entry of ``v``."""
    forms, _ = _star_forms(v, np.array([k]))
    return complex(forms[0])


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
    forms, scale = _star_forms(v, np.arange(size))
    ortho = np.abs(forms[:-1]) / np.maximum(scale[:-1], 1e-300)
    worst = float(ortho.max(initial=0.0))
    norm = complex(forms[-1])
    norm_res = float(abs(norm - 1.0) / max(1.0, scale[-1]))
    return OrthoReport(
        max_ortho_residual=worst,
        norm_value=norm,
        norm_residual=norm_res,
        tol=tol,
        passed=(worst <= tol and norm_res <= tol),
    )
