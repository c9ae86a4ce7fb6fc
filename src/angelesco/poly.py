"""Dense monomial-basis polynomials: a read-only coefficient holder and
the coefficient-array helpers of the identity checks.

Coefficient index k holds the coefficient of x^k.  Degrees in this library
stay small (``polynomials.DEGREE_CAP``), so a dense representation is the
right tool.  :class:`Poly` only holds coefficients; it has no arithmetic.
Every polynomial identity (lowering, raising, the ODE, the recurrence) is
checked on coefficient arrays: ``padded_coeffs`` places x^k c(x) in a
vector of the identity's length, and ``identity_residual`` measures a sum
of such vectors.  ``poly_eval`` is the one evaluator, classical Horner in
doubles; the zero finder does not use it, it evaluates in fixed-point
integers at a precision sized by the conditioning (see ``zeros.py``).
"""
from __future__ import annotations

import numpy as np

__all__ = ["Poly", "poly_eval"]


class Poly:
    """Read-only dense coefficients; trailing exact zeros are trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs))
        if arr.ndim != 1:
            raise ValueError("Poly expects a 1-d coefficient sequence")
        if np.iscomplexobj(arr):
            arr = arr.astype(np.complex128, copy=False)
            if not arr.imag.any():
                arr = arr.real
        else:
            arr = arr.astype(np.float64, copy=False)
        nz = np.flatnonzero(arr)
        end = nz[-1] + 1 if nz.size else 1
        arr = arr[:end].copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def rows(cls, mat):
        """The polys of the rows of a 2-d coefficient array, in one pass.

        Bitwise equal to ``[Poly(row) for row in mat]``: the same dtype, the
        same trimmed length and read-only coefficients.  A complex row whose
        imaginary parts are all zero becomes real; the imaginary test and the
        trailing nonzero index are found for all rows at once.
        """
        arr = np.asarray(mat)
        if arr.ndim != 2:
            raise ValueError("Poly.rows expects a 2-d coefficient array")
        if np.iscomplexobj(arr):
            arr = arr.astype(np.complex128, copy=False)
            real = ~arr.imag.any(axis=1)
        else:
            arr = arr.astype(np.float64, copy=False)
            real = np.ones(len(arr), dtype=bool)
        # one past the last nonzero entry of each row, at least 1
        ends = ((arr != 0) * np.arange(1, arr.shape[1] + 1)).max(axis=1, initial=1)
        polys = []
        for row, end, is_real in zip(arr, ends.tolist(), real.tolist()):
            c = (row.real if is_real else row)[:end].copy()
            c.setflags(write=False)
            p = object.__new__(cls)
            object.__setattr__(p, "coeffs", c)
            polys.append(p)
        return polys

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self):
        """Exact degree; -1 for the zero polynomial."""
        if len(self.coeffs) == 1 and self.coeffs[0] == 0.0:
            return -1
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return self.degree == -1

    def __len__(self):
        return len(self.coeffs)

    def __repr__(self):
        return f"Poly({self.coeffs.tolist()!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and len(self.coeffs) == len(other.coeffs)
            and bool(np.all(self.coeffs == other.coeffs))
        )


def poly_eval(p, z):
    """Evaluate p at a scalar point by classical Horner."""
    c = p.coeffs.tolist()
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
