"""Zeros of the kernel polynomials and their empirical measure.

All n zeros of p_n lie simple in the open interval (0,1).  The monomial-basis
root conditioning exhausts double precision already at moderate n, so the
coefficients come from the closed form at max(50, 30 + 1.2 n) digits and are
rounded once to integers at scale 2^prec (the working precision plus 32 guard
bits).  Grid points and iterates are dyadic, so Horner's rule runs on Python
integers as shift-and-add.  Sign changes on the exact quantile grid of the
limit zero distribution, closed by the endpoints 0 and 1 where p_n does not
vanish, bracket every zero, and a safeguarded Newton iteration (bisection
whenever a step would leave the bracket) converges inside each bracket.  The
reported doubles are the correctly rounded zeros at every degree: p_n
changes sign between the midpoints to the neighbouring doubles.  Each
residual is evaluated exactly at the reported double, so it depends only on
the output.

Zeros of the rotated star entries are rotations of this one zero set, so
they are never recomputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .polynomials import DEGREE_CAP, DegreeCapError, base_coeffs_mp

__all__ = ["ZeroSet", "ZeroFindingError", "find_zeros", "empirical_cdf", "stieltjes_empirical"]

_RESIDUAL_TOL = 1e-10
_MIN_SEPARATION = 1e-12


class ZeroFindingError(RuntimeError):
    """Raised when the computed roots fail the count/location/residual
    invariants; carries the offending indices."""

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


@dataclass(frozen=True)
class ZeroSet:
    """Sorted simple zeros of p_n in (0,1) with evaluation residuals
    relative to the local term magnitude sum |c_k| x^k.  ``precision`` names
    the arithmetic of the zero finder; it is always "extended"."""

    params: object
    n: int
    zeros: np.ndarray
    residuals: np.ndarray
    newton_iters: np.ndarray
    precision: str

    def __post_init__(self):
        self.zeros.setflags(write=False)
        self.residuals.setflags(write=False)
        self.newton_iters.setflags(write=False)


def _quantile_grid(n, r, per_root):
    # grid points at the quantiles of the limit zero distribution, whose CDF
    # inverts in closed form through the theta parametrization; the zeros are
    # asymptotically equidistributed with respect to it, so a few grid points
    # per root bracket every sign change even down to moderate n
    from .asymptotics import hatx_of_theta

    m = per_root * n
    qs = np.arange(1, m) / m
    theta = math.pi * (1.0 - qs) / (r + 1)
    pts = np.array([hatx_of_theta(t, r) ** (1.0 / r) for t in theta])
    # p_n(0) and p_n(1) are nonzero, so the closed interval's ends close the
    # outer brackets however close a zero lies to either end
    return np.concatenate([[0.0], pts, [1.0]])


def _fixed(x, prec):
    # a double is a dyadic rational, so at the scales used here it is exact
    num, den = x.as_integer_ratio()
    return (num << prec) // den


def _fixed_eval(crev, X, prec):
    # Horner on integers at scale 2^prec; each step truncates below 2^-prec
    acc = 0
    for c in crev:
        acc = ((acc * X) >> prec) + c
    return acc


def _fixed_eval_d(crev, X, prec):
    f = d = 0
    for c in crev:
        d = ((d * X) >> prec) + f
        f = ((f * X) >> prec) + c
    return f, d


def _dyadic_residual(crev, x):
    # |p(x)| / sum |c_k| x^k at the double x = num / 2^s, exact in integers:
    # both sums carry the common factor 2^(s n), which cancels in the ratio
    num, den = x.as_integer_ratio()
    s = den.bit_length() - 1
    val = mag = 0
    for k, c in enumerate(crev):
        val = val * num + (c << (s * k))
        mag = mag * num + (abs(c) << (s * k))
    return abs(val) / mag


def _safeguarded_newton(crev, prec, lo, hi, f_lo, f_hi, tol):
    # Newton iteration kept inside the sign-change bracket [lo, hi]; each
    # step moves the endpoint whose sign the new value shares, and a step
    # that would leave the closed bracket is replaced by bisection
    X = lo + f_lo * (hi - lo) // (f_lo - f_hi)
    for it in range(1, prec + 1):
        f, d = _fixed_eval_d(crev, X, prec)
        if f == 0:
            break
        if (f > 0) == (f_lo > 0):
            lo = X
        else:
            hi = X
        Xn = (lo + hi) >> 1
        if d:
            newton = X - (f << prec) // d
            if lo <= newton <= hi:
                Xn = newton
        step = abs(Xn - X)
        X = Xn
        if step < tol + ((tol * X) >> prec):
            break
    return X, d, it


def find_zeros(n, params):
    """All n zeros of p_n(.; alpha, beta) in (0,1), correctly rounded.

    The zeros are found by a safeguarded Newton iteration in integer fixed
    point at 50+ digits, inside sign-change brackets from the quantile grid
    of the limit zero distribution.  ``residuals`` are |p_n(x)| / sum |c_k|
    x^k at each reported x; ``newton_iters`` counts the safeguarded steps
    per root, bisections included.  Violations of the zero-set invariants
    raise :class:`ZeroFindingError` rather than returning partial output;
    among them a zero within half an ulp of 1, whose correctly rounded
    double is 1.0 (alpha within about 1e-13 to 1e-15 of -1, by r and n).
    """
    if n < 1:
        raise ValueError("find_zeros needs n >= 1")
    if n > DEGREE_CAP:
        raise DegreeCapError(n)

    dps = max(50, 30 + int(1.2 * n))
    with mp.workdps(dps):
        # coefficients rounded once to integers at scale 2^prec; the 32 guard
        # bits keep the truncations in Horner below the coefficients' own
        # rounding
        prec = mp.mp.prec + 32
        crev = [int(mp.nint(mp.ldexp(c, prec))) for c in reversed(base_coeffs_mp(n, params))]
    tol = (1 << prec) // 10 ** (dps - 6)

    brackets = None
    for per_root in (8, 16, 32, 64):
        grid = [_fixed(float(g), prec) for g in _quantile_grid(n, params.r, per_root)]
        vals = [_fixed_eval(crev, X, prec) for X in grid]
        cand = [
            (grid[i], grid[i + 1], vals[i], vals[i + 1])
            for i in range(len(grid) - 1)
            if vals[i] * vals[i + 1] < 0
        ]
        if len(cand) == n:
            brackets = cand
            break
    if brackets is None:
        raise ZeroFindingError(f"quantile grid failed to isolate {n} sign changes")

    zeros = np.empty(n)
    residuals = np.empty(n)
    iters = np.empty(n, dtype=np.int64)
    one = 1 << prec
    for i, (lo, hi, f_lo, f_hi) in enumerate(brackets):
        X, d, it = _safeguarded_newton(crev, prec, lo, hi, f_lo, f_hi, tol)
        if d == 0:
            raise ZeroFindingError(f"derivative vanishes at root {i}", indices=[i])
        x = X / one  # int / int rounds correctly
        zeros[i] = x
        residuals[i] = _dyadic_residual(crev, x)
        iters[i] = it

    bad = [i for i, x in enumerate(zeros) if not 0.0 < x < 1.0]
    if bad:
        raise ZeroFindingError(f"roots outside (0,1) at {bad}", indices=bad)
    gaps = np.diff(zeros)
    bad = list(np.nonzero(gaps <= _MIN_SEPARATION)[0])
    if bad:
        raise ZeroFindingError(f"root separation below {_MIN_SEPARATION} at {bad}", indices=bad)
    bad = list(np.nonzero(residuals > _RESIDUAL_TOL)[0])
    if bad:
        raise ZeroFindingError(f"evaluation residuals above {_RESIDUAL_TOL} at {bad}", indices=bad)
    return ZeroSet(params, n, zeros, residuals, iters, "extended")


def empirical_cdf(zs, x):
    """Fraction of zeros <= x: the CDF of the normalized zero counting measure."""
    return float(np.searchsorted(zs.zeros, x, side="right")) / zs.n


def stieltjes_empirical(zs, z):
    """(1/n) sum_j 1/(z - x_j), the Stieltjes transform of the zero measure;
    equals p_n'(z)/(n p_n(z)) away from [0,1]."""
    z = complex(z)
    d = z - zs.zeros
    if np.abs(d).min() < 1e-13:
        raise ValueError("z is numerically on top of a zero")
    return complex(np.mean(1.0 / d))
