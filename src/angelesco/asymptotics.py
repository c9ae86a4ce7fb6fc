"""Limiting zero distribution and its algebraic Stieltjes transform.

The zero counting measures of p_n converge to a measure on [0,1] whose
density has the trigonometric parametrization

    xhat = x^r = sin^(r+1)((r+1)t) / (c_r sin t sin^r(r t)),   0 < t < pi/(r+1),
    w(xhat) = (r+1)/(pi |xhat'(t)|),      u(x) = r x^(r-1) w(x^r),

with c_r = (r+1)^(r+1)/r^r.  Because xhat(t) is strictly decreasing, the
mass in t is exactly uniform, which gives the closed CDF
F(x) = 1 - (r+1) t(x^r)/pi used throughout (and validated against
quadrature in the tests).

The Stieltjes transform S of the limit measure satisfies

    z S^(r+1) - (z S + r)(z S - 1)^r = 0,

equivalently W^(r+1) - (r+1) z^r W + r z^r = 0 with W = zS/(zS-1).  Its
r + 1 branches are labeled in the far field, where z S_1 -> -r and
z S_k -> 1 otherwise, and carried inward by continuation of the roots;
branch 2 is the Stieltjes transform.  Its boundary values, picked near the
cut by an angular window in W, recover the density on [0.01, 0.99] via
Stieltjes-Perron inversion for every r <= 64 (see :func:`perron_density`).

The inversion t(xhat) and the sampled curves are supported for
r <= MAX_R = 64 and raise ValueError above it.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from types import SimpleNamespace

import numpy as np

__all__ = [
    "MAX_R",
    "hatx_of_theta",
    "theta_of_hatx",
    "w_density",
    "u_density",
    "limit_cdf",
    "u_closed_r2",
    "DensityCurve",
    "density_curve",
    "stieltjes_branches",
    "cubic_branches_r2",
    "solve_stieltjes_boundary",
    "perron_density",
    "algebraic_residual_w",
    "stieltjes_limit",
    "ks_distance",
    "endpoint_exponents",
]


# The inversion theta(xhat) and density_curve are supported for r <= MAX_R.
# A sweep of both over r <= 70 (xhat from 1e-329 to 1 - 2^-53, curves of up
# to 1e5 samples) gave finite, positive values everywhere; from r = 90 the
# constant of the bracket's leading-order start overflows.
MAX_R = 64
_TINY = sys.float_info.min
_PERRON_EPS = 1e-3  # perron_density's largest distance from the real axis
_STIELTJES_RTOL = 1e-11  # stieltjes_limit's quadrature tolerance
_ENDPOINT_SAMPLES = 25  # the samples of each endpoint_exponents fit


def _check_r(r):
    if r > MAX_R:
        raise ValueError(f"the limit density is supported for r <= {MAX_R}, got r={r}")


@lru_cache(maxsize=64)
def _consts(r):
    # theta_max = pi/(r+1), c_r = (r+1)^(r+1)/r^r and log c_r, once per r;
    # from r = 143 the powers overflow, and c_r = (r+1) exp(r log1p(1/r))
    # takes their place (c_r itself is below e (r+1))
    try:
        c_r = (r + 1.0) ** (r + 1) / r**r
    except OverflowError:
        c_r = (r + 1.0) * math.exp(r * math.log1p(1.0 / r))
    return math.pi / (r + 1), c_r, math.log(c_r)


def _theta_max(r):
    return _consts(r)[0]


# The array code below gives every sample the bits that the scalar code
# gives it.  numpy's + - * /, comparisons and np.where round as Python
# floats do, but its sin, log and power can differ from libm's in the last
# bit, so each transcendental goes through the math function, float pow or
# complex abs per element.


def _per_element(fn):
    return lambda a: np.fromiter(map(fn, a.tolist()), float, len(a))


# math's functions on float arrays, for the formulas that take lib
_LIBM = SimpleNamespace(
    sin=_per_element(math.sin),
    cos=_per_element(math.cos),
    tan=_per_element(math.tan),
    log=_per_element(math.log),
)


def _pow(a, e):
    # float pow per element: np.power special-cases some exponents
    return np.fromiter(map(pow, a.tolist(), repeat(e)), float, len(a))


def _sin_top(theta, r):
    # sin((r+1)theta) evaluated through the distance to the right endpoint,
    # where (r+1)theta is a cancellation-prone sliver below pi
    tm = _consts(r)[0]
    if theta > 0.5 * tm:
        return math.sin((r + 1) * (tm - theta))
    return math.sin((r + 1) * theta)


def _sines(theta, r):
    # (sin((r+1)theta), sin theta, sin r theta) of an array of theta, shared
    # by xhat and w; the first as _sin_top takes it
    tm = _consts(r)[0]
    top = (r + 1) * np.where(theta > 0.5 * tm, tm - theta, theta)
    return _LIBM.sin(top), _LIBM.sin(theta), _LIBM.sin(r * theta)


def _hatx_at(theta, r, c_r):
    # xhat at one theta, without the domain check
    st, s1, sr = _sin_top(theta, r), math.sin(theta), math.sin(r * theta)
    num, den = st ** (r + 1), sr**r
    if num < _TINY or den < _TINY:
        # a sine power left the normal range (small theta at large r, where
        # both do): the ratio of the sines keeps full precision
        return (st / sr) ** r * st / (c_r * s1)
    return num / (c_r * s1 * den)


def _hatx(st, s1, sr, r, c_r):
    # _hatx_at on arrays of the sines; the fallback runs only where it is
    # taken, since its power can overflow elsewhere
    num, den = _pow(st, r + 1), _pow(sr, r)
    # where a power left the normal range (0/0 included), xh is replaced
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        xh = num / (c_r * s1 * den)
    tiny = np.flatnonzero((num < _TINY) | (den < _TINY))
    if tiny.size:
        st, s1, sr = st[tiny], s1[tiny], sr[tiny]
        xh[tiny] = _pow(st / sr, r) * st / (c_r * s1)
    return xh


def hatx_of_theta(theta, r):
    """xhat(t): strictly decreasing from 1 (t -> 0) to 0 (t -> pi/(r+1))."""
    tm, c_r, _ = _consts(r)
    if not 0.0 < theta < tm:
        raise ValueError("theta must lie strictly inside (0, pi/(r+1))")
    return _hatx_at(theta, r, c_r)


def _hatx_of_thetas(theta, r):
    # hatx_of_theta at every theta of an array
    tm, c_r, _ = _consts(r)
    if not np.all((0.0 < theta) & (theta < tm)):
        raise ValueError("theta must lie strictly inside (0, pi/(r+1))")
    return _hatx(*_sines(theta, r), r, c_r)


def _log_hatx_terms(top, theta, r, lib=math):
    # log xhat(theta) = a - b - c - log c_r, returned as (a, b, c), with
    # top = (r+1) theta or its reflection (r+1)(tm - theta).  lib is math
    # for one point, _LIBM for an array with math's bits, or numpy where the
    # last bits do not matter
    return (
        (r + 1) * lib.log(lib.sin(top)),
        lib.log(lib.sin(theta)),
        r * lib.log(lib.sin(r * theta)),
    )


def _log_hatx_of_delta(delta, r, lib=math):
    # log xhat at theta = theta_max - delta; accurate for tiny delta
    tm, _, log_c = _consts(r)
    a, b, c = _log_hatx_terms((r + 1) * delta, tm - delta, r, lib)
    return a - b - c - log_c


def _dlog_hatx(theta, r):
    # d log xhat / d theta = (r+1)^2 cot((r+1)t) - cot t - r^2 cot(rt);
    # near the right endpoint, cot((r+1)t) = -cot((r+1)(tm-t)) keeps precision
    tm = _consts(r)[0]
    if theta > 0.5 * tm:
        top = -((r + 1) ** 2) / math.tan((r + 1) * (tm - theta))
    else:
        top = (r + 1) ** 2 / math.tan((r + 1) * theta)
    return top - 1.0 / math.tan(theta) - r**2 / math.tan(r * theta)


def _dlog_hatx_of_thetas(theta, r):
    # _dlog_hatx at every theta of an array, and the mask of the samples
    # where a tangent is 0, where the scalar form raises ZeroDivisionError;
    # the caller runs it under np.errstate
    tm = _consts(r)[0]
    right = theta > 0.5 * tm
    tt = _LIBM.tan((r + 1) * np.where(right, tm - theta, theta))
    t1, tr = _LIBM.tan(theta), _LIBM.tan(r * theta)
    top = np.where(right, -((r + 1) ** 2), (r + 1) ** 2) / tt
    return top - 1.0 / t1 - r**2 / tr, (tt == 0.0) | (t1 == 0.0) | (tr == 0.0)


# theta(xh) is found in three stages: a bracket, 90 bisection steps and a
# Newton polish.  For small xh the unknown is delta = tm - theta and the
# level is log xh (log xhat increases in delta); otherwise the unknown is
# theta itself and the level is xh (xhat decreases in theta).  A stage state
# is (in_delta, level, lo, hi).  The scalar functions solve one xh; the
# *_curve functions solve an array of them in lock-step, each sample
# stopping where the scalar loop stops, with the same bits.  Every stage
# assumes xhat strictly decreasing in theta, which the tests check on a fine
# grid for every r <= MAX_R.
#
# Both are kept because each is the faster one where it runs (best of 9 on a
# 2-vCPU VM): one point costs 35-96 us in the scalar solver but 1.2-2.2 ms
# as a one-element array, so the one-point entry points stay scalar.  At
# density_curve(r, 999, "x"), r = 1..5, per-sample scalar code in place of
# the array bracket, polish or bisection costs +0.9-1.8, +1.7-2.1 and
# +1.3-2.0 ms per curve of 14-15 ms, and dropping the scalar tail below
# _ARRAY_MIN samples costs +0.2-0.6 ms per curve and +0.9-1.2 ms per
# endpoint_exponents call (best of 15 in 5 interleaved rounds, 2-vCPU Xeon
# VM).

_BISECTION_STEPS = 90
_NEWTON_STEPS = 3


def _log_start(r):
    # xhat ~ k_r delta^(r+1) near the right endpoint
    tm, c_r, _ = _consts(r)
    return (r + 1.0) ** (r + 1) / (c_r * math.sin(tm) * math.sin(r * tm) ** r)


def _bracket(xh, r):
    if not 0.0 < xh < 1.0:
        raise ValueError("xhat must lie strictly inside (0,1)")
    _check_r(r)
    tm = _consts(r)[0]

    if xh <= 0.5:
        target = math.log(xh)
        k_r = _log_start(r)
        delta = (xh / k_r) ** (1.0 / (r + 1))  # leading-order inverse
        if delta == 0.0:  # xh / k_r underflowed
            delta = xh ** (1.0 / (r + 1)) / k_r ** (1.0 / (r + 1))
        lo, hi = delta * 0.5, min(delta * 2.0, tm * 0.5)
        flo = _log_hatx_of_delta(lo, r) - target
        fhi = _log_hatx_of_delta(hi, r) - target
        while flo > 0.0:
            lo *= 0.5
            flo = _log_hatx_of_delta(lo, r) - target
        while fhi < 0.0:
            hi = min(hi * 2.0, tm * (1.0 - 1e-12))
            fhi = _log_hatx_of_delta(hi, r) - target
            if hi >= tm * (1.0 - 1e-12) and fhi < 0.0:
                break
        return True, target, lo, hi

    lo, hi = tm * 1e-9, tm * 0.5
    while hatx_of_theta(hi, r) > xh:
        hi = 0.5 * (hi + tm)
    return False, xh, lo, hi


def _bracket_curve(xh, r):
    # _bracket at every xh of an array: (in_delta, level, lo, hi) as arrays
    if not np.all((0.0 < xh) & (xh < 1.0)):
        raise ValueError("xhat must lie strictly inside (0,1)")
    _check_r(r)
    tm = _consts(r)[0]
    in_delta = xh <= 0.5
    level, lo, hi = xh.copy(), np.full(len(xh), tm * 1e-9), np.full(len(xh), tm * 0.5)

    d = np.flatnonzero(in_delta)
    if d.size:
        v = xh[d]
        target = _LIBM.log(v)
        k_r = _log_start(r)
        delta = _pow(v / k_r, 1.0 / (r + 1))
        under = np.flatnonzero(delta == 0.0)
        if under.size:
            delta[under] = _pow(v[under], 1.0 / (r + 1)) / k_r ** (1.0 / (r + 1))
        a, b = delta * 0.5, np.minimum(delta * 2.0, tm * 0.5)
        flo = _log_hatx_of_delta(a, r, _LIBM) - target
        fhi = _log_hatx_of_delta(b, r, _LIBM) - target
        m = np.flatnonzero(flo > 0.0)
        while m.size:
            a[m] *= 0.5
            flo[m] = _log_hatx_of_delta(a[m], r, _LIBM) - target[m]
            m = m[flo[m] > 0.0]
        cap = tm * (1.0 - 1e-12)
        m = np.flatnonzero(fhi < 0.0)
        while m.size:
            b[m] = np.minimum(b[m] * 2.0, cap)
            fhi[m] = _log_hatx_of_delta(b[m], r, _LIBM) - target[m]
            m = m[(fhi[m] < 0.0) & (b[m] < cap)]
        level[d], lo[d], hi[d] = target, a, b

    # every theta-form bracket starts at hi = tm/2, so xhat there is one value
    m = np.flatnonzero(~in_delta & (hatx_of_theta(tm * 0.5, r) > xh))
    while m.size:
        hi[m] = 0.5 * (hi[m] + tm)
        m = m[_hatx_of_thetas(hi[m], r) > xh[m]]
    return in_delta, level, lo, hi


def _bisect(in_delta, level, r, lo, hi, steps):
    # bisection that stops at its fixed point: once a step leaves (lo, hi)
    # unchanged, every later step would too, so the result is that of all
    # `steps` steps
    c_r = _consts(r)[1]
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if in_delta:
            below = _log_hatx_of_delta(mid, r) < level
        else:
            below = _hatx_at(mid, r, c_r) > level
        if below:
            if lo == mid:
                break
            lo = mid
        else:
            if hi == mid:
                break
            hi = mid
    return lo, hi


# below this many samples, a step of array code costs more than the steps
# of the scalar code it stands for
_ARRAY_MIN = 32


def _bisect_curve(in_delta, level, r, lo, hi, left, live):
    # _bisect for the samples `live` of one branch at once, in place: each
    # takes the `left` steps it still owes, or stops at its fixed point.
    # The last few samples finish in _bisect itself
    c_r = _consts(r)[1]
    live = live[left[live] > 0]
    while live.size >= _ARRAY_MIN:
        a, b = lo[live], hi[live]
        mid = 0.5 * (a + b)
        if in_delta:
            below = _log_hatx_of_delta(mid, r, _LIBM) < level[live]
        else:
            below = _hatx(*_sines(mid, r), r, c_r) > level[live]
        lo[live[below]] = mid[below]
        hi[live[~below]] = mid[~below]
        left[live] -= 1
        left[live[np.where(below, mid == a, mid == b)]] = 0
        live = live[left[live] > 0]
    rest = (live, level[live], lo[live], hi[live], left[live])
    for i, v, a, b, k in zip(*(col.tolist() for col in rest)):
        lo[i], hi[i] = _bisect(in_delta, v, r, a, b, k)


def _polish(in_delta, level, r, lo, hi):
    # up to three Newton steps from the bisection midpoint.  A step that
    # would leave (lo/2, 2 hi) or not move, or whose slope is zero or not
    # finite, ends the polish: repeating it would change nothing.  Returns
    # theta, which rounds to tm when delta is below half an ulp of tm.
    tm = _consts(r)[0]
    x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        if in_delta:
            g = _log_hatx_of_delta(x, r) - level
            try:
                slope = -_dlog_hatx(tm - x, r)
            except ZeroDivisionError:  # cot 0, where tm - x rounds to tm
                break
        else:
            h = hatx_of_theta(x, r)
            g = h - level
            slope = h * _dlog_hatx(x, r)
        if slope == 0.0 or not math.isfinite(slope):
            break
        cand = x - g / slope
        if not lo / 2 < cand < hi * 2 or cand == x:
            break
        x = cand
    return tm - x if in_delta else x


def _polish_curve(in_delta, level, r, lo, hi):
    # _polish for arrays of one branch at once; a zero tangent or slope only
    # ends a sample's polish, as the scalar loop's break does
    tm = _consts(r)[0]
    x = 0.5 * (lo + hi)
    live = np.arange(len(x))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            if not live.size:
                break
            xl = x[live]
            if in_delta:
                g = _log_hatx_of_delta(xl, r, _LIBM) - level[live]
                slope, stop = _dlog_hatx_of_thetas(tm - xl, r)
                slope = -slope
            else:
                h = _hatx_of_thetas(xl, r)
                g = h - level[live]
                dlog, stop = _dlog_hatx_of_thetas(xl, r)
                if stop.any():  # the scalar polish does not catch this one
                    raise ZeroDivisionError("float division by zero")
                slope = h * dlog
            cand = xl - g / slope
            go = (
                ~stop
                & (slope != 0.0)
                & np.isfinite(slope)
                & (lo[live] / 2 < cand)
                & (cand < hi[live] * 2)
                & (cand != xl)
            )
            x[live[go]] = cand[go]
            live = live[go]
    return tm - x if in_delta else x


def _solve(xh, r):
    # theta(xh) through the three stages, possibly rounded to tm
    in_delta, level, lo, hi = _bracket(xh, r)
    lo, hi = _bisect(in_delta, level, r, lo, hi, _BISECTION_STEPS)
    return _polish(in_delta, level, r, lo, hi)


_ROUNDS_TO_TM = "xhat is too close to 0: theta rounds to pi/(r+1)"


def _inside(theta, r):
    if not 0.0 < theta < _consts(r)[0]:
        raise ValueError(_ROUNDS_TO_TM)
    return theta


def theta_of_hatx(xh, r):
    """The unique t in (0, pi/(r+1)) with xhat(t) = xh, for xh in (0,1).

    Bracketed bisection plus Newton polish; solved in the distance to the
    right endpoint (log form) for small xh, in t directly otherwise.  The
    bisection stops once a step would leave its bracket unchanged.  Raises
    ValueError outside (0,1), and for xh so small that t rounds to
    pi/(r+1) (below about (1e-16)^(r+1)), and for r > ``MAX_R``.
    """
    return _inside(_solve(xh, r), r)


# a bisection step is taken from numpy's array evaluation only when its
# margin exceeds this share of the terms' size; numpy's log and sin can
# differ from libm's in the last bits.  The gap between the two margins is
# at most 3.3e-16 of the size over 200,000 random mids per form at
# r = 1..5, 12 and 64 with numpy 2.4; tests/test_asymptotics.py measures it
# on every step of the density curves and fails above a tenth of the bound
_CERTAIN = 1e-14


def _margin(in_delta, mid, level, r, lib):
    # a bisection step's signed margin (positive: the bracket's lower end
    # moves up) and the size of its terms, at arrays of mid and level, with
    # lib's transcendentals
    tm, _, log_c = _consts(r)
    if in_delta:
        top, theta = (r + 1) * mid, tm - mid
        ref = level
    else:
        top, theta = (r + 1) * np.where(mid > 0.5 * tm, tm - mid, mid), mid
        ref = lib.log(level)
    t1, t2, t3 = _log_hatx_terms(top, theta, r, lib)
    margin = t1 - t2 - t3 - log_c - ref
    if in_delta:
        margin = -margin  # delta moves up while log xhat < log xh
    return margin, np.abs(t1) + np.abs(t2) + np.abs(t3) + log_c + np.abs(ref)


def _certified_steps(in_delta, level, r, lo, hi, left, live):
    # bisection steps for the samples `live` of one branch at once, in place.
    # A sample leaves at its first step whose sign numpy cannot certify, or
    # at a step that would not move its bracket (left is then set to 0);
    # `left` counts the steps still owed by _bisect_curve.
    while live.size:
        a, b = lo[live], hi[live]
        mid = 0.5 * (a + b)
        margin, scale = _margin(in_delta, mid, level[live], r, np)
        sure = np.abs(margin) > _CERTAIN * scale
        up = sure & (margin > 0.0)
        down = sure & (margin < 0.0)
        lo[live[up]] = mid[up]
        hi[live[down]] = mid[down]
        left[live[sure]] -= 1
        left[live[(up & (mid == a)) | (down & (mid == b))]] = 0
        live = live[sure & (left[live] > 0)]


def _theta_curve(xh, r):
    # theta_of_hatx at every xh of an array, bitwise equal to calling it per
    # sample: numpy takes the bisection steps whose sign it certifies, and
    # the bracket, the remaining steps and the polish run on libm's values
    in_delta, level, lo, hi = _bracket_curve(xh, r)
    left = np.full(len(xh), _BISECTION_STEPS)
    theta = np.empty(len(xh))
    for branch in (True, False):
        live = np.flatnonzero(in_delta == branch)
        _certified_steps(branch, level, r, lo, hi, left, live)
        _bisect_curve(branch, level, r, lo, hi, left, live)
        theta[live] = _polish_curve(branch, level[live], r, lo[live], hi[live])
    if not np.all((0.0 < theta) & (theta < _consts(r)[0])):
        raise ValueError(_ROUNDS_TO_TM)
    return theta


def _w_at_theta(theta, r, xh, sines):
    # w at arrays of theta and xh = xhat(theta):
    #   (r+1)/(pi xh) s1 sr st / |(r+1) sr - r e^(i theta) st|^2.
    # e^(i theta) is (cos theta, s1) as cmath.exp gives it, and the modulus
    # is complex abs, for the bits of the one-sample complex arithmetic
    st, s1, sr = sines
    re, im = (r + 1) * sr - r * _LIBM.cos(theta) * st, r * s1 * st
    denom = _pow(np.fromiter(map(abs, map(complex, re.tolist(), im.tolist())), float, len(re)), 2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # as floats do
        scale = (r + 1) / (math.pi * xh)
        w = scale * s1 * sr * st / denom
        far = np.flatnonzero(scale == math.inf)
        if far.size:
            # xh near 0, where the sine product is small: take it first
            w[far] = (r + 1) / math.pi * (s1[far] * sr[far] * st[far] / denom[far]) / xh[far]
    return w


def _u_curve(x, xh, r):
    # (theta, u) at arrays of x and xh = x^r, bitwise equal to u_density's
    # steps per sample, without its range checks
    theta = _theta_curve(xh, r)
    return theta, r * _pow(x, r - 1) * _w_at_theta(theta, r, xh, _sines(theta, r))


def w_density(xh, r):
    """Density of the pushed-forward measure in xhat = x^r, on (0,1).

    Raises ValueError where :func:`theta_of_hatx` does (xh below about
    (1e-16)^(r+1)), and where w itself overflows: w grows like
    xh^(-r/(r+1)), so only subnormal xh at large r reach that (for example
    xh = 5e-324 at r = 30).
    """
    theta = np.array([theta_of_hatx(xh, r)])
    w = _w_at_theta(theta, r, np.array([float(xh)]), _sines(theta, r))[0]
    if w == math.inf:
        raise ValueError("xhat is too close to 0: w overflows")
    return float(w)


def u_density(x, r):
    """Limit density of the zero distribution: u(x) = r x^(r-1) w(x^r).

    Raises ValueError where x^r underflows (to 0 or a subnormal), and
    where theta(x^r) rounds to pi/(r+1) or w(x^r) overflows.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie strictly inside (0,1)")
    xh = x**r
    if xh < sys.float_info.min:
        raise ValueError("x^r underflows; too close to the endpoint")
    return r * x ** (r - 1) * w_density(xh, r)


def limit_cdf(x, r):
    """F(x) = 1 - (r+1) theta(x^r)/pi, the exact CDF of the limit measure.

    Reads 0 where x^r underflows or theta(x^r) rounds to pi/(r+1).  Raises
    ValueError for r > ``MAX_R``.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    xh = x**r
    if xh == 0.0:
        return 0.0
    # where theta rounds to pi/(r+1), the difference is 0 or one ulp below
    return max(0.0, 1.0 - (r + 1) * _solve(xh, r) / math.pi)


def u_closed_r2(x):
    """Closed radical form of the r=2 limit density.

    1 - sqrt(1-x^2) is evaluated as x^2/(1 + sqrt(1-x^2)) so the cube root
    keeps full precision near x = 0.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie strictly inside (0,1)")
    s = math.sqrt((1.0 - x) * (1.0 + x))
    plus = (1.0 + s) ** (1.0 / 3.0)
    minus = (x * x / (1.0 + s)) ** (1.0 / 3.0)
    return math.sqrt(3.0) / (2.0 * math.pi) * (plus + minus) / (x ** (1.0 / 3.0) * s)


@dataclass(frozen=True)
class DensityCurve:
    """Sampled limit density: increasing x with u and F columns, plus the
    generating theta grid."""

    r: int
    x: np.ndarray
    u: np.ndarray
    F: np.ndarray
    theta: np.ndarray


def density_curve(r, samples, spacing="theta"):
    """Sample (x, u_r(x), F_r(x)).

    ``spacing="theta"`` places samples uniformly in the parameter, which
    concentrates x-points near both endpoints (the right grid for plotting a
    density with endpoint singularities); ``spacing="x"`` uses the interior
    grid x_i = i/(samples+1) and inverts all of it at once, so theta is
    bitwise equal to ``theta_of_hatx(x_i**r, r)`` and u to
    ``u_density(x_i, r)``.  Both spacings evaluate every sample in array
    code with the bits of the one-sample formulas: numpy does the
    arithmetic, libm the sines, logs, tangents and powers.  Raises
    ValueError for r > ``MAX_R``.
    """
    _check_r(r)
    tm, c_r, _ = _consts(r)
    if spacing == "theta":
        theta = tm * np.arange(samples, 0, -1) / (samples + 1.0)
        sines = _sines(theta, r)
        xh = _hatx(*sines, r, c_r)
        x = _pow(xh, 1.0 / r)
        u = r * _pow(x, r - 1) * _w_at_theta(theta, r, xh, sines)
    elif spacing == "x":
        x = np.arange(1, samples + 1) / (samples + 1.0)
        theta, u = _u_curve(x, _pow(x, r), r)
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    F = 1.0 - (r + 1) * theta / math.pi
    return DensityCurve(r, x, u, F, theta)


# ---------------------------------------------------------------------------
# algebraic Stieltjes equation
# ---------------------------------------------------------------------------


def _v_poly_roots(z, r):
    # V = W/z: V^(r+1) - (r+1) V + r/z = 0.  Its coefficients stay moderate
    # where those of the W form reach |z|^r (np.roots fails on that at
    # |z| = 8 from r = 30)
    c = np.zeros(r + 2, dtype=complex)
    c[0] = 1.0
    c[-2] = -(r + 1.0)
    c[-1] = r / z
    return np.roots(c)


# outside this radius the 1/z expansions label the roots directly: the
# branch points, 0 and the r-th roots of unity (a double root forces W = 1,
# so z^r = 1), all lie in the closed unit disk
_R_FAR = 8.0


def _label_far(z, r, vs):
    # one root tends to r/((r+1) z) (z S_1 -> -r); the other r tend to
    # (r+1)^(1/r) omega^j and are ordered by j, so j = 0 (S_2) is the
    # Stieltjes branch
    i1 = int(np.argmin(np.abs(vs)))
    rest = np.delete(vs, i1)
    j = np.rint(r * np.angle(rest) / (2 * math.pi)) % r
    if sorted(j.tolist()) != list(range(r)):
        raise RuntimeError("far-field roots do not separate by angle")
    return np.concatenate(([vs[i1]], rest[np.argsort(j)]))


def _path(z, r):
    # waypoints from radius _R_FAR in to z: a radial leg at the mid-angle of
    # the sector between branch rays that holds z, then an arc at radius |z|,
    # so the path never crosses the star [0, omega^j] and keeps away from
    # the branch points; a real z is reached from the upper half plane
    rho = abs(z)
    if z.imag == 0.0:
        phi, k = (0.0, 0) if z.real > 0.0 else (math.pi, (r - 1) // 2)
    else:
        phi = cmath.phase(z) % (2 * math.pi)
        k = min(int(phi * r / (2 * math.pi)), r - 1)
    mid = (2 * k + 1) * math.pi / r
    nrad = max(3, int(math.log(_R_FAR / rho) / 0.3) + 1)
    narc = math.ceil(abs(phi - mid) / 0.15)
    pts = [cmath.rect(_R_FAR * (rho / _R_FAR) ** (i / nrad), mid) for i in range(nrad + 1)]
    pts += [cmath.rect(rho, mid + (phi - mid) * i / narc) for i in range(1, narc + 1)]
    pts[-1] = z
    return pts


def _match(prev, new):
    # new in the order of prev by nearest neighbours; None when the step is
    # too long to tell (a root moved by more than 0.35 of the smallest gap)
    d = np.abs(prev[:, None] - new[None, :])
    idx = d.argmin(axis=1)
    gaps = np.abs(new[:, None] - new[None, :])
    np.fill_diagonal(gaps, np.inf)
    if len(set(idx.tolist())) < len(new) or d[np.arange(len(new)), idx].max() > 0.35 * gaps.min():
        return None
    return new[idx]


def stieltjes_branches(z, r):
    """The r + 1 branches (S_1, ..., S_(r+1)) of the algebraic equation at z.

    Labels follow the far field: z S_1 -> -r, and z S_k -> 1 for k >= 2 with
    W = zS/(zS-1) ~ (r+1)^(1/r) omega^(k-2) z; S_2 is the Stieltjes branch,
    analytic off [0,1], with negative imaginary part in the upper half
    plane.  For |z| < 8 the labels are carried in from that radius by
    nearest-neighbour matching along a path that stays off the star of
    segments [0, omega^j], so they hold arbitrarily close to it; real z
    gives the limits from the upper half plane.  Raises ValueError at the
    branch points z = 0 and z^r = 1; accuracy degrades near them.
    """
    z = complex(z)
    if abs(z) < 1e-9 or abs(z**r - 1.0) < 1e-9:
        raise ValueError("z coincides with a branch point of the algebraic equation")
    path = _path(z, r) if abs(z) < _R_FAR else [z]
    vs = _label_far(path[0], r, _v_poly_roots(path[0], r))
    prev, pending, halvings = path[0], path[:0:-1], 0
    while pending:
        pt = pending.pop()
        new = _match(vs, _v_poly_roots(pt, r))
        if new is None:
            halvings += 1
            if halvings > 200:
                raise RuntimeError("branch continuation failed to separate roots")
            pending += [pt, 0.5 * (prev + pt)]
            continue
        vs, prev = new, pt
    return tuple(complex(v / (z * v - 1.0)) for v in vs)


def cubic_branches_r2(z):
    """The three branches (S_1, S_2, S_3) of the r=2 cubic at z."""
    return stieltjes_branches(z, 2)


def solve_stieltjes_boundary(x, eps, r):
    """Stieltjes branch of the algebraic equation at z = x + i*eps.

    The one W-root with argument in (0, 2 pi/(r+1)) is picked: as x -> 0 it
    tends to the angle pi/(r+1), and the other small-z roots to 3 pi/(r+1),
    5 pi/(r+1), ....  The roots are taken as W = zV from the V = W/z form of
    :func:`stieltjes_branches`, whose coefficients stay moderate where the
    W form's are of order x^r.  This cheap rule continues no path; the tests
    check it against S_2 of :func:`stieltjes_branches`.  Raises RuntimeError
    when the window holds no root or more than one.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie inside the support (0,1)")
    z = complex(x, eps)
    ws = z * _v_poly_roots(z, r)
    window = [w for w in ws if 0.0 < cmath.phase(w) < 2.0 * _theta_max(r)]
    if len(window) != 1:
        raise RuntimeError(
            f"expected exactly one W-root in the angular window, got {len(window)}"
        )
    w = window[0]
    return w / (z * (w - 1.0))


def perron_density(x, r):
    """Density recovered from the algebraic solution by Stieltjes-Perron
    inversion with Richardson extrapolation over e, e/2, e/4, where
    e = min(1e-3, x/50, (1-x)/50) follows the distance to the ends of the
    support.  Recovers u_r to 2e-7 relative on [0.01, 0.99] for every
    r <= 64."""
    eps = min(_PERRON_EPS, x / 50.0, (1.0 - x) / 50.0)
    f = [-solve_stieltjes_boundary(x, e, r).imag / math.pi for e in (eps, eps / 2, eps / 4)]
    return (f[0] - 6.0 * f[1] + 8.0 * f[2]) / 3.0


def algebraic_residual_w(z, S, r):
    """Residual of the transformed equation W^(r+1) - (r+1) z^r W + r z^r,
    with W = zS/(zS-1), scaled by the largest term."""
    z, S = complex(z), complex(S)
    w = z * S / (z * S - 1.0)
    t1 = w ** (r + 1)
    t2 = -(r + 1) * z**r * w
    t3 = r * z**r
    den = max(abs(t1), abs(t2), abs(t3), 1e-300)
    return abs(t1 + t2 + t3) / den


def stieltjes_limit(z, r):
    """S(z) = int u_r(x)/(z-x) dx by quadrature in the theta parameter,
    where the measure is exactly uniform: (r+1)/pi dtheta."""
    from scipy.integrate import quad

    z = complex(z)
    tm = _theta_max(r)

    def xval(t):
        return hatx_of_theta(t, r) ** (1.0 / r)

    re = quad(lambda t: ((r + 1) / math.pi) * (1.0 / (z - xval(t))).real, 0.0, tm,
              epsabs=0.0, epsrel=_STIELTJES_RTOL, limit=200)[0]
    im = quad(lambda t: ((r + 1) / math.pi) * (1.0 / (z - xval(t))).imag, 0.0, tm,
              epsabs=0.0, epsrel=_STIELTJES_RTOL, limit=200)[0]
    return complex(re, im)


def ks_distance(zs, r):
    """Kolmogorov-Smirnov distance between the empirical zero CDF and the
    limit CDF, maximized over the jump points."""
    n = zs.n
    worst = 0.0
    for i, x in enumerate(zs.zeros, start=1):
        fx = limit_cdf(x, r)
        worst = max(worst, abs(i / n - fx), abs(fx - (i - 1) / n))
    return worst


def _u_densities(x, r):
    # u_density at every x of an array, bitwise, with its ValueErrors
    if not np.all((0.0 < x) & (x < 1.0)):
        raise ValueError("x must lie strictly inside (0,1)")
    xh = _pow(x, r)
    if np.any(xh < _TINY):
        raise ValueError("x^r underflows; too close to the endpoint")
    return _u_curve(x, xh, r)[1]


def endpoint_exponents(r):
    """Fitted log-log slopes of u_r at the endpoints.

    Left: regression of log u against log x over x in [1e-6, 1e-3].
    Right: regression of log u against log(1 - x^r) over 1-x^r in the same
    window.  The limits are -1/(r+1) and -1/2.  Raises ValueError where
    :func:`u_density` does on either grid (from r = 52, 1e-6^r underflows).
    """
    xs = np.geomspace(1e-6, 1e-3, _ENDPOINT_SAMPLES)
    ts = np.geomspace(1e-6, 1e-3, _ENDPOINT_SAMPLES)
    xr = _pow(1.0 - ts, 1.0 / r)
    # both grids in one pass; the left one first, as its errors come first
    u = _u_densities(np.concatenate((xs, xr)), r)
    s0 = np.polyfit(np.log(xs), np.log(u[:_ENDPOINT_SAMPLES]), 1)[0]
    s1 = np.polyfit(np.log(ts), np.log(u[_ENDPOINT_SAMPLES:]), 1)[0]
    return float(s0), float(s1)
