"""Zeros of the kernel polynomials and their empirical measure.

All n zeros of p_n lie simple in the open interval (0,1).  The monomial-basis
root condition sum |c_k| x^k / |x p_n'(x)| reaches 10^42 (r = 1) to 10^112
(r = 40) at n = 60, so the coefficients come from the closed form
(``polynomials._base_coeffs_raw``, the kernel of ``base_coeffs_mp``, as raw
mpmath tuples) at a precision sized by that condition: an estimate that
grows like n log(r + 1), plus a 30-digit margin that also keeps the
reported residuals accurate.  They are rounded once to integers at scale
2^prec (the working precision plus 32 guard bits), and Horner's rule runs
on Python integers.  Its multiplier is the abscissa's significand: every
grid point and every abscissa of the rounding test is a double or the
midpoint of two, and every iterate of the search is rounded to 64
significant bits, so X = m 2^(prec - s) with m of at most 64 bits, and
((acc * m) >> s) is exactly ((acc * X) >> prec), at a fraction of the cost
of a full-width product.

The search runs on those integers shifted right to the attempt's digits
with 20 digits in place of the margin and no guard bits: the condition
estimate plus 20 digits at a first attempt, more at a doubled one.  Sign
changes on the quantile grid of the limit zero distribution, 4 points per
root and doubled up to 64 until n of them show, closed by the endpoints 0
and 1 where p_n does not vanish, bracket every zero, and a safeguarded
Newton iteration (bisection whenever a step would leave the bracket) runs
inside each bracket until its step nears double resolution.  Newton needs
only about 64 bits of the point it evaluates, so each iterate is rounded to
that many before Horner's rule sees it; the step that goes to the rounding
test keeps its full width.

Every reported double is certified by a rounding test in the style of Ziv,
on the full integers: p_n is evaluated at the two midpoints to the
neighbouring doubles, and the double is accepted only if the two values
differ in sign and each exceeds a bound on its own error.  The bound adds
three parts, in units of 2^-prec:
  - the coefficients' relative error K 2^-w from ``coeff_error_units``,
    times sum |c_k| x^k;
  - the rounding of each coefficient to an integer, half a unit each;
  - the n truncations of Horner's rule, less than a unit each.
So an accepted double is the correctly rounded zero, which is unique,
whatever precision found it.  Two certain values of one sign send Newton on;
an undecided test redoes the polynomial, and with it the search, at twice
the digits.  Each residual is evaluated at the reported double, which is
exact at scale 2^prec.

Zeros of the rotated star entries are rotations of this one zero set, so
they are never recomputed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .numerics import DoubleRangeError
from .polynomials import _base_coeffs_raw, coeff_error_units

__all__ = [
    "DEGREE_CAP", "DegreeCapError", "ZeroSet", "ZeroFindingError", "find_zeros",
    "empirical_cdf", "stieltjes_empirical",
]

# The largest degree find_zeros takes: its cost grows with the precision,
# which grows with n (see _condition_digits).
DEGREE_CAP = 60


class DegreeCapError(ValueError):
    """A degree past ``DEGREE_CAP``: only :func:`find_zeros` has a cap."""

    def __init__(self, n):
        super().__init__(f"degree {n} exceeds the supported cap {DEGREE_CAP}")
        self.n = n


_RESIDUAL_TOL = 1e-10
_MIN_SEPARATION = 1e-12
# digits beyond the condition estimate; they keep the residuals accurate to
# about 1e-9 relative, which 20 digits miss at well-conditioned zeros that
# lie unusually close to their double
_MARGIN_DIGITS = 30
# the first attempt and two doublings of its digits
_ATTEMPTS = 3
# Newton stops to certify once its step is below 2^-30 of the iterate: a
# quadratically converging step leaves the next iterate near 2^-60 of it.
# Over r = 1..5, n = 13..60 this re-tests 19 of 3,090 roots and saves 14% of
# the steps that a stop at 2^-40 takes.
_STOP_BITS = 30
# digits beyond the condition estimate for the bracketing grid and Newton,
# in place of the certificate's _MARGIN_DIGITS
_SEARCH_DIGITS = 20
# significant bits of each iterate that Newton evaluates: a step from an
# iterate within 2^-64 of its own value still converges quadratically (the
# search stops at 2^-30), and Horner multiplies by a significand this short
# however wide the scale
_ITERATE_BITS = 64
_UNDECIDED = "undecided"
_UNISOLATED = "unisolated"


class ZeroFindingError(RuntimeError):
    """Raised when the computed roots fail the count/location/residual
    invariants, or no attempt certifies them; carries the offending
    indices."""

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


@dataclass(frozen=True)
class ZeroSet:
    """Sorted simple zeros of p_n in (0,1) with evaluation residuals
    relative to the local term magnitude sum |c_k| x^k.  ``precision`` names
    the arithmetic of the zero finder; it is always "extended".  ``dps`` is
    the number of digits of the attempt that certified the zeros.
    ``newton_iters`` counts the safeguarded steps per root, bisections
    included, all of them on the truncated integers of the search, each
    taken from an iterate rounded to 64 significant bits."""

    params: object
    n: int
    zeros: np.ndarray
    residuals: np.ndarray
    newton_iters: np.ndarray
    precision: str
    dps: int

    def __post_init__(self):
        self.zeros.setflags(write=False)
        self.residuals.setflags(write=False)
        self.newton_iters.setflags(write=False)


def _condition_digits(n, r):
    # log10 of the worst root condition, fitted over r = 1..40 at n = 60
    # (within 1.2 digits there) and above the measured one at smaller n
    return n * (0.07 + 1.1 * (1.0 + 1.0 / r) * math.log10(r + 1.0))


def _quantile_grid(n, r, per_root):
    # grid points at the quantiles of the limit zero distribution, whose CDF
    # inverts in closed form through the theta parametrization; the zeros are
    # asymptotically equidistributed with respect to it, so a few grid points
    # per root bracket every sign change even down to moderate n.  The grid
    # only places brackets, so it is formed in one numpy pass, in logs
    from .asymptotics import _consts, _log_hatx_terms

    tm, _, log_c = _consts(r)
    m = per_root * n
    theta = tm * (1.0 - np.arange(1, m) / m)
    a, b, c = _log_hatx_terms((r + 1) * np.minimum(theta, tm - theta), theta, r, np)
    pts = np.exp((a - b - c - log_c) / r)
    # p_n(0) and p_n(1) are nonzero, so the closed interval's ends close the
    # outer brackets however close a zero lies to either end
    return [0.0, *pts.tolist(), 1.0]


def _fixed(x, prec):
    # a grid point at scale 2^prec, truncated where it is not exact
    num, den = x.as_integer_ratio()
    return (num << prec) // den


def _fixed_exact(x, prec):
    # the double x at scale 2^prec, or None where that scale cannot hold it
    num, den = x.as_integer_ratio()
    q, rem = divmod(num << prec, den)
    return None if rem else q


def _split(X, prec):
    # X = m 2^(prec - s) with s >= 0, so that (acc * X) >> prec equals
    # (acc * m) >> s for every integer acc: the left shift is exact and >>
    # floors.  A double or the midpoint of two has at most 54 significant
    # bits, and a search iterate _ITERATE_BITS, so m is short however wide
    # the scale
    if not X:
        return 0, prec
    tz = min((X & -X).bit_length() - 1, prec)
    return X >> tz, prec - tz


def _short(X):
    # X rounded to the nearest integer of at most _ITERATE_BITS significant
    # bits.  The rounding is monotone and fixes every such integer, so an X
    # between two of them stays between them
    drop = X.bit_length() - _ITERATE_BITS
    if drop <= 0:
        return X
    return ((X >> (drop - 1)) + 1) >> 1 << drop


def _fixed_eval(crev, X, prec):
    # Horner on integers at scale 2^prec; each step truncates below 2^-prec
    m, s = _split(X, prec)
    acc = 0
    for c in crev:
        acc = ((acc * m) >> s) + c
    return acc


def _fixed_eval_d(crev, X, prec):
    m, s = _split(X, prec)
    f = d = 0
    for c in crev:
        d = ((d * m) >> s) + f
        f = ((f * m) >> s) + c
    return f, d


def _rounding_test(crev, arev, prec, w, K, X):
    """Certify the double nearest X/2^prec: (x, f, mag) with p(x) and
    sum |c_k| x^k at scale 2^prec (arev holds the |c_k|), None if p has one
    certain sign at both midpoints (so the zero lies elsewhere), or
    _UNDECIDED."""
    n = len(crev) - 1
    x = X / (1 << prec)  # int / int rounds correctly
    Xx = _fixed_exact(x, prec)
    Xlo = _fixed_exact(math.nextafter(x, 0.0), prec)
    Xhi = _fixed_exact(math.nextafter(x, 2.0), prec)
    if Xx is None or Xlo is None or Xhi is None or (Xx + Xlo) & 1 or (Xx + Xhi) & 1:
        return _UNDECIDED
    f_lo = _fixed_eval(crev, (Xx + Xlo) >> 1, prec)
    f_hi = _fixed_eval(crev, (Xx + Xhi) >> 1, prec)
    f = _fixed_eval(crev, Xx, prec)
    mag = _fixed_eval(arev, Xx, prec)
    # 2 (mag + 2n + 2) bounds sum |c_k| m^k at either midpoint m; the
    # rounding to integers and Horner's truncations add at most 2n + 4
    bound = ((2 * K * (mag + 2 * n + 2)) >> w) + 2 * n + 4
    if abs(f_lo) <= bound or abs(f_hi) <= bound:
        return _UNDECIDED
    if (f_lo > 0) == (f_hi > 0):
        return None
    return x, f, mag


def _certified_newton(trev, shift, crev, arev, prec, w, K, lo, hi, f_lo, f_hi):
    # Newton iteration on the truncated integers trev, at scale
    # 2^(prec - shift), kept inside the sign-change bracket [lo, hi]; each
    # step moves the endpoint whose sign the new value shares, and a step
    # that would leave the closed bracket is replaced by bisection.  Horner
    # evaluates each iterate rounded by _short: the bracket's ends are such
    # iterates or grid points (doubles, at most 53 bits), so the rounded
    # iterate stays inside it.  Once a step nears double resolution the
    # rounding test decides, on the full integers crev and arev, at the
    # unrounded step.
    tprec = prec - shift
    X = _short(lo + f_lo * (hi - lo) // (f_lo - f_hi))
    for it in range(1, tprec + 1):
        f, d = _fixed_eval_d(trev, X, tprec)
        if f == 0:
            Xn = X
        else:
            if (f > 0) == (f_lo > 0):
                lo = X
            else:
                hi = X
            Xn = (lo + hi) >> 1
            if d:
                newton = X - (f << tprec) // d
                if lo <= newton <= hi:
                    Xn = newton
        if abs(Xn - X) <= Xn >> _STOP_BITS:
            cert = _rounding_test(crev, arev, prec, w, K, Xn << shift)
            if cert is not None:
                return cert, it
        Xn = _short(Xn)
        if Xn == X:
            # a fixed point: a step that rounds back onto X is below 2^-64
            # of it, so the test has just rejected its double
            break
        X = Xn
    return _UNDECIDED, it


def _fixed_coeffs(n, params, w, prec):
    # p_n's coefficients at w working bits, each rounded to the nearest
    # integer at scale 2^prec, highest degree first
    from mpmath.libmp import mpf_shift, round_nearest, to_int

    coeffs = _base_coeffs_raw(n, params, w)
    try:
        return [to_int(mpf_shift(c, prec), round_nearest) for c in reversed(coeffs)]
    except (OverflowError, MemoryError):
        # a shift past the address space: Python refuses it outright
        # (OverflowError) or fails to allocate it (MemoryError)
        raise DoubleRangeError(
            f"coefficients of p_{n} at {params} are too large for the fixed-point evaluator"
        ) from None


def _certify_at(n, params, dps):
    """All n zeros of p_n from coefficients at ``dps`` digits, each
    certified: (zeros, residuals, newton_iters), or _UNDECIDED when a
    rounding test cannot decide, or _UNISOLATED when the grid does not
    isolate n sign changes."""
    from mpmath.libmp import dps_to_prec

    w = dps_to_prec(dps)
    # coefficients rounded once to integers at scale 2^prec; the 32 guard
    # bits keep the truncations in Horner below the coefficients' own
    # rounding
    prec = w + 32
    crev = _fixed_coeffs(n, params, w, prec)
    arev = [abs(c) for c in crev]
    K = coeff_error_units(n, params.r)
    # the search (grid and Newton) runs on these integers truncated to the
    # attempt's digits with _SEARCH_DIGITS in place of _MARGIN_DIGITS and no
    # guard bits: the condition estimate plus _SEARCH_DIGITS at a first
    # attempt, more at a doubled one.  Only the certificate and the residuals
    # need the margin and the guard bits
    shift = prec - dps_to_prec(dps - _MARGIN_DIGITS + _SEARCH_DIGITS)
    tprec = prec - shift
    trev = [c >> shift for c in crev]

    for per_root in (4, 8, 16, 32, 64):
        grid = [_fixed(g, tprec) for g in _quantile_grid(n, params.r, per_root)]
        vals = [_fixed_eval(trev, X, tprec) for X in grid]
        brackets = [
            (grid[i], grid[i + 1], vals[i], vals[i + 1])
            for i in range(len(grid) - 1)
            if vals[i] * vals[i + 1] < 0
        ]
        if len(brackets) == n:
            break
    else:
        return _UNISOLATED

    zeros = np.empty(n)
    residuals = np.empty(n)
    iters = np.empty(n, dtype=np.int64)
    for i, bracket in enumerate(brackets):
        cert, it = _certified_newton(trev, shift, crev, arev, prec, w, K, *bracket)
        if cert is _UNDECIDED:
            return _UNDECIDED
        zeros[i], f, mag = cert
        residuals[i] = abs(f) / mag
        iters[i] = it
    return zeros, residuals, iters


def find_zeros(n, params):
    """All n zeros of p_n(.; alpha, beta) in (0,1), certified correctly
    rounded.

    The coefficients come from the closed form at a precision sized by the
    root condition, which grows with n and r; the zeros are found by a
    safeguarded Newton iteration in integer fixed point at 20 digits above
    the condition estimate (more at a doubled attempt), inside sign-change
    brackets from the quantile grid of the limit zero distribution, and each
    reported double passes the rounding test of the module docstring at the
    full digits.  An
    undecided test, or a grid that does not isolate n sign changes, redoes
    the polynomial at twice the digits, at most twice; ``dps`` is the digits
    of the attempt that certified.  ``residuals`` are |p_n(x)| / sum |c_k| x^k
    at each reported x; ``newton_iters`` is described at :class:`ZeroSet`.
    Violations of the zero-set invariants raise :class:`ZeroFindingError`
    rather than returning partial output; among them a zero within half an
    ulp of 1, whose correctly rounded double is 1.0 (alpha within about
    1e-13 to 1e-15 of -1, by r and n), and a grid that never isolates the
    zeros (alpha and beta far above n, such as 3e4 at n = 5).  Coefficients
    too large to round to integers (alpha or beta near 1e300) raise
    :class:`DoubleRangeError`.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("find_zeros needs n >= 1")
    if n > DEGREE_CAP:
        raise DegreeCapError(n)

    dps = math.ceil(_condition_digits(n, params.r)) + _MARGIN_DIGITS
    found = _certify_at(n, params, dps)
    for _ in range(_ATTEMPTS - 1):
        if not isinstance(found, str):
            break
        dps *= 2
        found = _certify_at(n, params, dps)
    if found is _UNISOLATED:
        raise ZeroFindingError(f"quantile grid failed to isolate {n} sign changes")
    if found is _UNDECIDED:
        raise ZeroFindingError(f"rounding test undecided at {dps} digits")
    zeros, residuals, iters = found

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
    return ZeroSet(params, n, zeros, residuals, iters, "extended", dps)


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
