"""Dense monomial-basis coefficient arrays: the helpers of the identity
checks, and a Horner evaluator that no library path calls.

Coefficient index k holds the coefficient of x^k.  Degrees in this library
stay small (``polynomials.DEGREE_CAP``), so a dense representation is the
right tool; a polynomial is its coefficient array, and a type I vector is
one r-row table of them.  Every polynomial identity (lowering, raising, the
ODE, the recurrence) is checked on coefficient arrays, under
``numerics.overflow_trap``: a term outside the double range raises
``DoubleRangeError``.  ``padded_coeffs`` places x^k c(x) in a vector of an
operator identity's length.  ``identity_residual`` is the one per-index
residual kernel (the ODE's and the recurrence's), where a NaN term reads
NaN.  ``poly_eval`` is classical Horner in doubles; it serves only the
tests and the benchmark's span, and stays until the benchmark drops that
span (ROADMAP item 4).  The zero finder evaluates in fixed-point integers
(see ``zeros.py``).
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
    """Per-index normalized residual of a polynomial identity sum_i T_i = 0.

    ``terms`` stacks the T_i along its first axis.  They are added in stack
    order (the pinned residual digests guard it), and the magnitude of the
    sum is divided by the largest term at each index: 0 where every term
    is zero, NaN where any term is NaN.
    """
    terms = np.asarray(terms)
    den = np.abs(terms).max(axis=0)
    return np.divide(np.abs(terms.sum(axis=0)), den, out=np.zeros(den.shape), where=den != 0.0)
