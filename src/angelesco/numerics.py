"""Scalar building blocks: Pochhammer symbols, signed gamma ratios, and a
cached read-only table of the r-th roots of unity.

This is the library's one double-precision gamma kernel: every gamma
function value in doubles, whether a moment, a normalizer or the head of
a coefficient chain, is a :func:`gamma_ratio` call (the extended-precision
copy of the formula runs on mpmath).  The coefficients of p_n and the
tables of the type I vectors call it only at the heads of their chains and
advance every other entry, from the top down, by an exact rational factor
(see ``polynomials.py``).  It sums signed log-gammas exactly with one
rounding (``math.fsum``, Shewchuk's summation), so equal numerator and
denominator arguments cancel inside the sum.  It alone decides what a pole
does: equal poles cancel, the rest pair as a joint limit, which resolves
the degenerate parameter combinations (e.g. ``r=1`` with
``alpha+beta = -1``).  The heads of one chain share a factor free of t:
:func:`log_gamma_factor` sums its log-gammas once, into an exact
expansion that each head's ``fsum`` takes in place of the factor's terms,
and hands its poles to each head's cancel-and-pair step.  ``fsum`` is
correctly rounded over the exact sum (Shewchuk, "Adaptive Precision
Floating-Point Arithmetic", 1997), so every head keeps the bits it has
with the factor's arguments inline.  A ratio whose value leaves the
double range raises :class:`DoubleRangeError`, as does a numpy overflow
under :func:`overflow_trap`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "pochhammer",
    "gamma_ratio",
    "log_gamma_factor",
    "LogGammaFactor",
    "roots_of_unity",
    "DegenerateParameters",
    "DoubleRangeError",
]


class DegenerateParameters(ValueError):
    """A gamma ratio has an unpaired pole: the requested formula is
    singular at these exact parameter values."""


class DoubleRangeError(ValueError):
    """A closed-form value leaves the double range: a gamma ratio, or a
    coefficient of a type I vector, is too large for a double, or a
    coefficient of p_n is too large for the zero finder's integers."""


def overflow_trap(what):
    # a check's decorator: a numpy overflow inside it raises DoubleRangeError
    # "<what> exceeds the double range", with no RuntimeWarning and no inf
    def call(kind, flag):
        raise DoubleRangeError(f"{what} exceeds the double range")

    return np.errstate(over="call", call=call)


def pochhammer(a, n):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), as a direct product.

    The product form is exact for zero or negative bases and avoids the
    cancellation a Gamma-quotient would suffer for small ``a``.
    """
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    out = 1.0
    for j in range(n):
        out *= a + j
    return out


def _log_gammas(args, logs, poles, side):
    # appends side * lgamma(x) of each regular argument to logs and each pole
    # (value, rate) to poles; returns the sign of the regular gammas' product
    sign = 1.0
    for a in args:
        rate = 1.0
        if isinstance(a, tuple):
            a, rate = a
        x = float(a)
        if x <= 0.0:
            f = math.floor(x)
            if x == f:
                poles.append((x, float(rate)))
                continue
            if f % 2:  # Gamma(x) < 0 exactly where floor(x) is odd
                sign = -sign
        logs.append(side * math.lgamma(x))
    return sign


class LogGammaFactor(NamedTuple):
    """The log-gammas of a gamma ratio, summed once: ``sign * exp(sum(logs))``
    is the product of its regular gammas (those of its numerator over those
    of its denominator), and ``logs`` is an exact expansion of their
    +-lgamma terms (their exact sum, as a few doubles).  ``num_poles`` and
    ``den_poles`` are its pole arguments as (value, rate) pairs, for
    :func:`gamma_ratio` to cancel and pair with its own.  ``nums`` and
    ``dens`` are the arguments as given, for :func:`gamma_ratio`'s overflow
    message."""

    sign: float
    logs: tuple
    num_poles: tuple
    den_poles: tuple
    nums: tuple
    dens: tuple


def log_gamma_factor(nums, dens):
    """A gamma ratio's log-gammas and poles as one :class:`LogGammaFactor`,
    for :func:`gamma_ratio` to take as its ``factor``.

    The expansion's components are the correctly rounded sum of the
    +-lgamma terms (``math.fsum``), then that of the terms less the
    components so far, until the remainder is exactly 0 (it is a multiple of
    2^-1074, so a nonzero one never rounds to 0).  Its exact sum is the
    terms' exact sum, so ``math.fsum`` rounds a list that holds it to the
    same double as the list with the terms.  A log-gamma above the double
    range raises :class:`DoubleRangeError`.
    """
    logs, num_poles, den_poles = [], [], []
    try:
        sign = _log_gammas(nums, logs, num_poles, 1.0) * _log_gammas(dens, logs, den_poles, -1.0)
        expansion = []
        while part := math.fsum(logs):
            expansion.append(part)
            logs.append(-part)
    except OverflowError:
        raise _range_error(nums, dens) from None
    return LogGammaFactor(
        sign, tuple(expansion), tuple(num_poles), tuple(den_poles), tuple(nums), tuple(dens)
    )


def _range_error(nums, dens):
    return DoubleRangeError(
        f"gamma ratio exceeds the double range: {list(nums)!r} over {list(dens)!r}"
    )


def gamma_ratio(nums, dens, factor=None):
    """Signed ratio  prod Gamma(nums) / prod Gamma(dens), as a ``float``.

    Arguments may carry a rate as a ``(value, rate)`` pair.  Pole arguments
    (non-positive integers) are resolved as a joint limit: writing each pole
    argument as rate*eps near its pole and letting eps -> 0, a num/den pole
    pair at -m1, -m2 contributes (-1)^(m1-m2) m2!/m1! * rate_den/rate_num.
    This is exactly the finite limit of the fused formulas in this library at
    their removable parameter degeneracies (the pole loci of a fused
    coefficient always coincide, with rates 1 or r).  A surplus denominator
    pole gives 0 (1/Gamma is entire); a surplus numerator pole raises
    :class:`DegenerateParameters`.

    Every other argument adds +-lgamma(x) to one list, and the sign of
    Gamma(x) < 0 (x < 0 with floor(x) odd) flips the result's sign.  The
    list is summed exactly and rounded once (``math.fsum``), so the order of
    the arguments does not matter and an argument that is both a numerator
    and a denominator cancels exactly.  Arguments are finite.  A result (or
    a log-gamma) above the double range raises :class:`DoubleRangeError`;
    a result below it underflows to 0.

    ``factor``, a :func:`log_gamma_factor`, multiplies the ratio by its
    own: its expansion joins the list and its poles join the call's before
    they cancel and pair, so the result is bitwise
    ``gamma_ratio(nums + factor.nums, dens + factor.dens)``, and so is the
    message of an error.
    """
    try:
        logs, num_poles, den_poles = [], [], []
        sign = _log_gammas(nums, logs, num_poles, 1.0) * _log_gammas(dens, logs, den_poles, -1.0)
        if factor is not None:
            sign *= factor.sign
            logs.extend(factor.logs)
            if factor.num_poles or factor.den_poles:
                num_poles.extend(factor.num_poles)
                den_poles.extend(factor.den_poles)
        if num_poles and den_poles:
            for pole in num_poles[:]:
                if pole in den_poles:  # cancels exactly; a pairing across rates rounds log(rate)
                    num_poles.remove(pole)
                    den_poles.remove(pole)
        num_poles.sort()
        den_poles.sort()
        if len(num_poles) > len(den_poles):
            raise DegenerateParameters(
                f"gamma ratio has an unpaired pole: {num_poles!r} over {den_poles!r}"
            )
        if len(den_poles) > len(num_poles):
            return 0.0
        for (a, ra), (b, rb) in zip(num_poles, den_poles):
            ka, kb = int(-a), int(-b)
            sign *= -1.0 if (ka - kb) % 2 else 1.0
            logs.append(math.lgamma(kb + 1.0) - math.lgamma(ka + 1.0))
            logs.append(math.log(rb / ra))
        return sign * math.exp(math.fsum(logs))
    except OverflowError:
        if factor is not None:
            nums, dens = [*nums, *factor.nums], [*dens, *factor.dens]
        raise _range_error(nums, dens) from None


def _cospi(x):
    # cos(pi*x) with exact zeros at half-integers; x reduced mod 2
    x = math.fabs(x) % 2.0
    if x > 1.0:
        x = 2.0 - x
    if x == 0.5:
        return 0.0
    if x < 0.5:
        return math.cos(math.pi * x)
    return -math.cos(math.pi * (1.0 - x))


def _sinpi(x):
    return _cospi(x - 0.5)


@lru_cache(maxsize=64)
def roots_of_unity(r):
    """Read-only table of omega^e, e = 0..r-1, with omega = exp(2*pi*i/r).

    Index it with exponents reduced mod r (``roots_of_unity(r)[e % r]``, or
    an integer array of exponents ``% r``).  Each entry comes from its exact
    angle 2e/r (in units of pi), never from repeated multiplication, so
    there is no phase drift; quarter turns come out exactly (+1, -1, +i, -i).
    """
    if r < 1:
        raise ValueError("roots_of_unity needs r >= 1")
    v = np.array([complex(_cospi(2.0 * e / r), _sinpi(2.0 * e / r)) for e in range(r)])
    v.setflags(write=False)
    return v
