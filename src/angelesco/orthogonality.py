"""Moment-based verification of the type I orthogonality relations.

The weight has analytic moments: int_0^1 x^(m+beta) (1-x^r)^alpha dx is a
beta integral, so every star integral of a polynomial reduces to a finite
linear combination of exact moments.  That turns each orthogonality and
normalization condition into a residual carrying only rounding error, i.e.
a true oracle against which the closed-form constructions are checked.
Every condition is a row of the moment Hankel matrix H[k, m] = moment(k+m)
applied to the phase-rotated coefficients of each entry, so a check reads
all r entries of the vector it is handed; no family takes a shortcut.

One kernel checks a stack of vectors that share params, size and live
width (the columns up to the last nonzero one): one Hankel gather and one
pair of matrix products for the whole stack.  ``verify_type1_many`` groups
the vectors it is handed into such stacks; ``verify_type1`` and
``ray_form`` run the kernel on a stack of one.  ``verify_level`` checks a
level of ``verify`` straight from the constructors' memoized tables: the
diagonal's, the r up vectors' and the r down vectors' stacks, each one
product when all of its vectors reach its full width, and split by live
width otherwise.  Every report is bitwise the same whichever stack a
vector is checked in; an overflow raises ``DoubleRangeError``
(``numerics.overflow_trap``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import gamma_ratio, overflow_trap, roots_of_unity
from .polynomials import Params, type1_diagonal, type1_down_stack, type1_up_stack

__all__ = [
    "moment",
    "OrthoReport",
    "ray_form",
    "verify_type1",
    "verify_type1_many",
    "verify_level",
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
    """H[i, m] = moment(ks[i] + m) for m < cols, with ks ascending: a fresh
    array gathered from the cached moment row by one broadcast index sum.
    The row's length is rounded up to a power of two, so the vectors of one
    ``verify`` share O(log n) rows; each moment is computed on its own, so
    the gather equals one from a row of exact length."""
    need = int(ks[-1]) + cols
    max_m = (1 << (need - 1).bit_length()) - 1
    mom = _moment_row(params.r, params.alpha, params.beta, max_m)
    return mom[ks[:, None] + np.arange(cols)]


def _live_width(coeffs):
    # columns up to the last one that holds a nonzero entry (at least one):
    # the products' rounding depends on the length they sum over, so zero
    # columns at the end (a down vector's cancelled top) would move last bits
    live = coeffs.any(axis=0).nonzero()[0]
    return int(live[-1]) + 1 if live.size else 1


@overflow_trap("a moment-oracle term")
def _star_forms(c, params, ks):
    """Star moment functionals of a stack of coefficient tables at the
    powers ``ks``, and their positive-mass scales.

    ``c[v, j, m]`` holds coefficient m of entry j (0-based, on the ray
    x = omega^j t) of vector v; every vector shares ``params`` and the
    width, which is each one's live width.  Entry j contributes
    omega^(j(k+1)) sum_m c_(j,m) omega^(jm) moment(k+m).  The scale replaces
    every term by its modulus: the size against which cancellation is
    measured, since coefficient growth makes absolute tolerances
    meaningless.  One Hankel gather serves the stack, and each of the two is
    one matrix product over all ks and vectors at once; the phase exponents
    are broadcast products reduced mod r.  The complex product is followed
    at once by an elementwise one, which keeps libm at full speed (see
    ``polynomials._up_stack``).  Returns two (vectors, powers) arrays.
    """
    r, width = params.r, c.shape[-1]
    h = _hankel(params, ks, width)
    roots = roots_of_unity(r)
    j = np.arange(r)
    rotated = c * roots[(j[:, None] * np.arange(width)) % r]
    forms = ((h @ rotated.transpose(0, 2, 1)) * roots[((ks[:, None] + 1) * j) % r]).sum(axis=2)
    scale = (h @ np.abs(c).transpose(0, 2, 1)).sum(axis=2)
    return forms, scale


def ray_form(k, v):
    """Star moment functional of a type I vector at power k:
    sum_j int_0^(omega^(j-1)) x^k A_j(x) w(x) dx, reduced to [0,1] moments by
    the ray parametrization x = omega^(j-1) t.  Reads every entry of ``v``.

    k must be an integer >= 0 (a Python or numpy integer); anything else
    raises ValueError.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise ValueError(f"the power k must be an integer >= 0, got {k!r}")
    c = v.coeffs[None, :, : _live_width(v.coeffs)]
    forms, _ = _star_forms(c, v.params, np.array([k]))
    return complex(forms[0, 0])


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
    return verify_type1_many([v], tol)[0]


def _stack_reports(c, params, size, tol):
    # the reports of a stack c[v, j, m] of vectors that share params, size
    # and live width, in stack order
    forms, scale = _star_forms(c, params, np.arange(size))
    ortho = np.abs(forms[:, :-1]) / np.maximum(scale[:, :-1], 1e-300)
    worst = ortho.max(axis=1, initial=0.0).tolist()
    reports = []
    for w, norm, s in zip(worst, forms[:, -1].tolist(), scale[:, -1].tolist()):
        norm_res = abs(norm - 1.0) / max(1.0, s)
        reports.append(
            OrthoReport(
                max_ortho_residual=w,
                norm_value=norm,
                norm_residual=norm_res,
                tol=tol,
                passed=(w <= tol and norm_res <= tol),
            )
        )
    return reports


def _reports_by_width(tables, params, size, tol):
    # the reports of coefficient tables that share params and size, in
    # order: each is checked in one stack with the others of its live width
    groups = {}
    for i, table in enumerate(tables):
        groups.setdefault(_live_width(table), []).append(i)
    reports = [None] * len(tables)
    for width, members in groups.items():
        if len(members) == 1:  # a view: a lone vector pays for no copy
            c = tables[members[0]][None, :, :width]
        else:
            c = np.stack([tables[i][:, :width] for i in members])
        for i, rep in zip(members, _stack_reports(c, params, size, tol)):
            reports[i] = rep
    return reports


def verify_type1_many(vectors, tol=1e-9):
    """:func:`verify_type1` of each vector of a sequence, as a list in
    input order.

    Vectors that share params, size and live width are checked as one
    stack: one Hankel gather and one pair of products for the group.  Each
    report is bitwise the one :func:`verify_type1` gives; a stack never pads
    a vector to a wider one, since zero columns move the products' last
    bits.  Raises ValueError if any vector has an empty multi-index.
    """
    groups = {}
    for i, v in enumerate(vectors):
        size = v.size
        if size < 1:
            raise ValueError("vector has an empty multi-index: nothing to verify")
        groups.setdefault((v.params, size), []).append(i)
    reports = [None] * len(vectors)
    for (params, size), members in groups.items():
        tables = [vectors[i].coeffs for i in members]
        for i, rep in zip(members, _reports_by_width(tables, params, size, tol)):
            reports[i] = rep
    return reports


def verify_level(n, params, tol=1e-9):
    """The reports of every type I vector of level n, bitwise those of
    :func:`verify_type1_many` on them: the diagonal vector, the up vectors
    k = 1..r, then the down vectors k = 1..r (none at the empty index
    r = 1, n = 1).

    Reads the constructors' memoized tables (``type1_diagonal(n).coeffs``,
    ``type1_up_stack``, ``type1_down_stack``) and builds no vector.  A stack
    whose vectors all reach its full width (its last column is nonzero in
    some row of each) is checked in one product; any other is split by live
    width, as :func:`verify_type1_many` splits it.
    """
    r = params.r
    stacks = [
        (type1_diagonal(n, params).coeffs[None], r * n),
        (type1_up_stack(n, params), r * n + 1),
    ]
    if r * n - 1 >= 1:
        stacks.append((type1_down_stack(n, params), r * n - 1))
    reports = []
    for c, size in stacks:
        if c[:, :, -1].any(axis=1).all():
            reports += _stack_reports(c, params, size, tol)
        else:
            reports += _reports_by_width(c, params, size, tol)
    return reports
