"""Dense monomial-basis coefficient arrays: the helpers of the identity
checks and one evaluator.

Coefficient index k holds the coefficient of x^k.  Degrees in this library
stay small (``polynomials.DEGREE_CAP``), so a dense representation is the
right tool; a polynomial is its coefficient array, and a type I vector is
one r-row table of them.  Every polynomial identity (lowering, raising, the
ODE, the recurrence) is checked on coefficient arrays: ``padded_coeffs``
places x^k c(x) in a vector of the identity's length, and
``identity_residual`` measures a sum of such vectors.  ``poly_eval`` is the
one evaluator, classical Horner in doubles; the zero finder does not use
it, it evaluates in fixed-point integers at a precision sized by the
conditioning (see ``zeros.py``).
"""
from __future__ import annotations

import numpy as np

__all__ = ["poly_eval"]


def poly_eval(c, z):
    """Evaluate the coefficient sequence c at a scalar point by classical Horner."""
    c = np.asarray(c).tolist()
    acc = c[-1]
    for ck in reversed(c[:-1]):
        acc = acc * z + ck
    return acc


def padded_coeffs(c, size, shift=0):
    """Coefficients of x^shift * c as a vector of length ``size``."""
    out = np.zeros(size, dtype=c.dtype)
    out[shift : shift + len(c)] = c
    return out


def identity_residual(terms):
    """Worst normalized residual of a polynomial identity sum_i T_i = 0.

    ``terms`` stacks the coefficient vectors T_i as rows of equal length.
    At each coefficient index the magnitude of the sum is divided by the
    largest term there; indices where every term is zero are skipped.
    """
    terms = np.asarray(terms)
    num = np.abs(terms.sum(axis=0))
    den = np.abs(terms).max(axis=0)
    live = den > 0.0
    return float((num[live] / den[live]).max()) if live.any() else 0.0
