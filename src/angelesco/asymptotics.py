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
# to 1e5 samples) gave finite, positive values everywhere except the first
# sample of density_curve(r, 10**5, "x") from r = 64: its x^r is subnormal
# (u reads inf) or, from r = 65, 0 (ValueError).  From r = 90 the constant
# of the bracket's leading-order start overflows.
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


# The theta-spacing curves and w give every sample the bits that the
# one-sample code gives it.  numpy's + - * /, comparisons and np.where round
# as Python floats do, but its sin and power can differ from libm's in the
# last bit, so each transcendental goes through the math function, float pow
# or complex abs per element.


def _per_element(fn):
    return lambda a: np.fromiter(map(fn, a.tolist()), float, len(a))


# math's functions on float arrays
_LIBM = SimpleNamespace(sin=_per_element(math.sin), cos=_per_element(math.cos))


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


def _log_hatx_terms(top, theta, r, lib=math):
    # log xhat(theta) = a - b - c - log c_r, returned as (a, b, c), with
    # top = (r+1) theta or its reflection (r+1)(tm - theta); lib is math for
    # one point or numpy for an array
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


# theta(xh) is one safeguarded Newton iteration inside a bracket (rtsafe,
# Numerical Recipes 9.4).  For xh <= 1/2 the unknown is delta = tm - theta
# and g = log xhat(tm - delta) - log xh, from the log terms, which keep their
# precision as delta -> 0; above 1/2 the unknown is theta and
# g = xh - xhat(theta), with xhat a ratio of sines.  Both g increase in the
# unknown, since xhat strictly decreases in theta (the tests check that on
# a fine grid for every r <= MAX_R).  Each step moves one end of the bracket
# to the iterate by the sign of g, and a Newton step that leaves the closed
# bracket becomes a bisection.  The iteration stops when a step is at most
# 2 ulp of the iterate, or when |g| is within 4 eps of the size of its
# terms, where rounding alone sets its sign (the Newton step from there is
# still taken if it stays in the bracket): without that test, iterates near
# xh -> 1 wander inside their rounding-noise band.
#
# _solve runs it for one xh in math, _theta_curve for an array in numpy,
# masked.  Both are kept because each is the faster one where it runs: one
# point costs 8-10 us in _solve but 180-210 us as a one-element array, and
# ks_distance and limit_cdf solve once per zero, while from about 50
# samples the array is faster (999 samples take 1.2-1.5 ms as a curve and
# about 9 ms one at a time; r = 1..5, best of 9, 2-vCPU VM).

_MAX_STEPS = 64
_RESIDUAL = 4.0 * sys.float_info.epsilon
_OUTSIDE = "xhat must lie strictly inside (0,1)"


@lru_cache(maxsize=64)
def _log_start(r):
    # log k_r, where xhat ~ k_r delta^(r+1) near the right endpoint
    tm, c_r, _ = _consts(r)
    return math.log((r + 1.0) ** (r + 1) / (c_r * math.sin(tm) * math.sin(r * tm) ** r))


def _start(in_delta, level, r, lib):
    # the leading-order inverse of one form: xhat ~ k_r delta^(r+1) as
    # delta -> 0, and xhat ~ 1 - r(r+1) theta^2/2 as theta -> 0
    if in_delta:
        return lib.exp((level - _log_start(r)) / (r + 1))
    return lib.sqrt(2.0 * (1.0 - level) / (r * (r + 1.0)))


def _newton_terms(in_delta, x, level, r, lib):
    # g, the Newton iterate and the size of g's terms at the unknown x of one
    # form, with lib's transcendentals (math, or numpy on arrays).  The size
    # also counts one unit per sine factor of xhat, 2r + 2 of them: the
    # rounding of each moves g by up to an ulp of 1 (log form) or of xhat
    # (ratio form)
    tm, c_r, log_c = _consts(r)
    if in_delta:
        theta, top = tm - x, (r + 1) * x
        a, b, c = _log_hatx_terms(top, theta, r, lib)
        g = a - b - c - log_c - level
        # dg/d delta, as cot((r+1)theta) = -cot(top); the step is Newton's
        # in log delta, where g is nearly linear
        dg = (r + 1) ** 2 / lib.tan(top) + 1.0 / lib.tan(theta) + r**2 / lib.tan(r * theta)
        size = abs(a) + abs(b) + abs(c) + log_c + abs(level) + 2 * (r + 1)
        return g, x * lib.exp(-g / (x * dg)), size
    # the sines scaled by 2^-e, where x = m 2^e, so their powers stay
    # normal; the scales cancel exactly in xhat
    top, e = (r + 1) * x, -lib.frexp(x)[1]
    st, s1, sr = (lib.ldexp(lib.sin(v), e) for v in (top, x, r * x))
    h = st ** (r + 1) / (c_r * s1 * sr**r)
    # -d log xhat/d theta: the cotangents cancel to O(theta) as theta -> 0,
    # and hypot with their rounding keeps a slope lost to it from
    # lengthening the step
    t1, t2, t3 = (r + 1) ** 2 / lib.tan(top), 1.0 / lib.tan(x), r**2 / lib.tan(r * x)
    slope = h * lib.hypot(t1 - t2 - t3, _RESIDUAL * (abs(t1) + t2 + abs(t3)))
    return level - h, x - (level - h) / slope, (2 * r + 3) * h + level


def _bracket(xh, r):
    # (in_delta, level, lo, hi, start) of one xh: the bracket around the
    # leading-order start, widened until g changes sign across it
    _check_r(r)
    if not 0.0 < xh < 1.0:
        raise ValueError(_OUTSIDE)
    tm = _consts(r)[0]
    if xh <= 0.5:
        level = math.log(xh)
        x = _start(True, level, r, math)
        lo, hi = 0.5 * x, min(2.0 * x, 0.5 * tm)
        while _log_hatx_of_delta(lo, r) > level:
            lo *= 0.5
        cap = tm * (1.0 - 1e-12)
        while hi < cap and _log_hatx_of_delta(hi, r) < level:
            hi = min(2.0 * hi, cap)
        return True, level, lo, hi, min(x, hi)
    lo, hi = tm * 1e-9, 0.5 * tm
    while hatx_of_theta(hi, r) > xh:
        hi = 0.5 * (hi + tm)
    return False, xh, lo, hi, min(max(_start(False, xh, r, math), lo), hi)


def _solve(xh, r):
    # (theta, Newton steps) of one xh; theta may round to tm
    in_delta, level, lo, hi, x = _bracket(xh, r)
    for steps in range(1, _MAX_STEPS + 1):
        g, new, size = _newton_terms(in_delta, x, level, r, math)
        if g < 0.0:
            lo = x
        else:
            hi = x
        # within rounding of the root: at most one more Newton step
        done = abs(g) <= _RESIDUAL * size
        if not lo <= new <= hi:
            new = x if done else 0.5 * (lo + hi)
        x, step = new, new - x
        if done or abs(step) <= 2.0 * math.ulp(x):
            break
    return (_consts(r)[0] - x if in_delta else x), steps


_ROUNDS_TO_TM = "xhat is too close to 0: theta rounds to pi/(r+1)"


def _inside(theta, r):
    if not 0.0 < theta < _consts(r)[0]:
        raise ValueError(_ROUNDS_TO_TM)
    return theta


def theta_of_hatx(xh, r):
    """The unique t in (0, pi/(r+1)) with xhat(t) = xh, for xh in (0,1).

    A safeguarded Newton iteration from the leading-order inverse inside a
    bracket; solved in the distance to the right endpoint (log form) for
    xh <= 1/2, in t directly otherwise.  The error is within
    2(r+1) ulp times max(1, 1/|t dlog xhat/dt|), the condition of t(xh).
    Raises ValueError for r > ``MAX_R``, outside (0,1), and for xh so small
    that t rounds to pi/(r+1) (below about (1e-16)^(r+1)).
    """
    return _inside(_solve(xh, r)[0], r)


def _theta_curve(xh, r):
    # _solve at every xh of an array, masked, with numpy's transcendentals:
    # (theta, Newton steps) as arrays.  Not bitwise _solve's, but within the
    # same error bound
    _check_r(r)
    if not np.all((0.0 < xh) & (xh < 1.0)):
        raise ValueError(_OUTSIDE)
    tm, c_r, _ = _consts(r)
    theta, steps = np.empty(len(xh)), np.zeros(len(xh), dtype=int)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for in_delta in (True, False):
            idx = np.flatnonzero((xh <= 0.5) == in_delta)
            level = np.log(xh[idx]) if in_delta else xh[idx]
            x = _start(in_delta, level, r, np)
            if in_delta:
                lo, hi = 0.5 * x, np.minimum(2.0 * x, 0.5 * tm)
                m = np.flatnonzero(_log_hatx_of_delta(lo, r, np) > level)
                while m.size:
                    lo[m] *= 0.5
                    m = m[_log_hatx_of_delta(lo[m], r, np) > level[m]]
                cap = tm * (1.0 - 1e-12)
                m = np.flatnonzero((hi < cap) & (_log_hatx_of_delta(hi, r, np) < level))
                while m.size:
                    hi[m] = np.minimum(2.0 * hi[m], cap)
                    m = m[(hi[m] < cap) & (_log_hatx_of_delta(hi[m], r, np) < level[m])]
            else:
                lo, hi = np.full(len(idx), tm * 1e-9), np.full(len(idx), 0.5 * tm)
                # every theta-form bracket starts at tm/2: one xhat there
                m = np.flatnonzero(hatx_of_theta(0.5 * tm, r) > level)
                while m.size:
                    hi[m] = 0.5 * (hi[m] + tm)
                    m = m[_hatx(*_sines(hi[m], r), r, c_r) > level[m]]
            x = np.clip(x, lo, hi)
            live = np.arange(len(idx))
            for step in range(1, _MAX_STEPS + 1):
                if not live.size:
                    break
                steps[idx[live]] = step
                xl, a, b = x[live], lo[live], hi[live]
                g, new, size = _newton_terms(in_delta, xl, level[live], r, np)
                a, b = np.where(g < 0.0, xl, a), np.where(g < 0.0, b, xl)
                lo[live], hi[live] = a, b
                done = np.abs(g) <= _RESIDUAL * size
                new = np.where((a <= new) & (new <= b), new, np.where(done, xl, 0.5 * (a + b)))
                x[live] = new
                live = live[~(done | (np.abs(new - xl) <= 2.0 * np.spacing(new)))]
            theta[idx] = tm - x if in_delta else x
    if not np.all((0.0 < theta) & (theta < tm)):
        raise ValueError(_ROUNDS_TO_TM)
    return theta, steps


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
    # (theta, u) at arrays of x and xh = x^r: u_density's steps per sample,
    # with theta from _theta_curve and without the range checks
    theta = _theta_curve(xh, r)[0]
    return theta, r * _pow(x, r - 1) * _w_at_theta(theta, r, xh, _sines(theta, r))


def w_density(xh, r):
    """Density of the pushed-forward measure in xhat = x^r, on (0,1).

    Raises ValueError where :func:`theta_of_hatx` does (xh below about
    (1e-16)^(r+1)), and where w itself overflows: w grows like
    xh^(-r/(r+1)), so only subnormal xh at large r reach that (for example
    xh = 5e-324 at r = 30).  Raises ValueError for r > ``MAX_R``.
    """
    _check_r(r)
    theta = np.array([theta_of_hatx(xh, r)])
    w = _w_at_theta(theta, r, np.array([float(xh)]), _sines(theta, r))[0]
    if w == math.inf:
        raise ValueError("xhat is too close to 0: w overflows")
    return float(w)


def u_density(x, r):
    """Limit density of the zero distribution: u(x) = r x^(r-1) w(x^r).

    Raises ValueError where x^r underflows (to 0 or a subnormal), and
    where theta(x^r) rounds to pi/(r+1) or w(x^r) overflows, and for
    r > ``MAX_R``.
    """
    _check_r(r)
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie strictly inside (0,1)")
    xh = x**r
    if xh < sys.float_info.min:
        raise ValueError("x^r underflows; too close to the endpoint")
    return r * x ** (r - 1) * w_density(xh, r)


def limit_cdf(x, r):
    """F(x) = 1 - (r+1) theta(x^r)/pi, the exact CDF of the limit measure.

    Reads 0 where x^r underflows or theta(x^r) rounds to pi/(r+1).  Raises
    ValueError for r > ``MAX_R``, whatever x is.
    """
    _check_r(r)
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    xh = x**r
    if xh == 0.0:
        return 0.0
    # where theta rounds to pi/(r+1), the difference is 0 or one ulp below
    return max(0.0, 1.0 - (r + 1) * _solve(xh, r)[0] / math.pi)


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
    grid x_i = i/(samples+1) and inverts all of it at once, in numpy, with
    the iteration of :func:`theta_of_hatx` and its error bound:
    2(r+1) ulp times max(1, 1/|t dlog xhat/dt|).  Given theta, both
    spacings evaluate x, u and F in array code with the bits of the
    one-sample formulas: numpy does the arithmetic, libm the sines and
    powers.  Raises ValueError for r > ``MAX_R``.
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
    # u_density at every x of an array, with its ValueErrors
    _check_r(r)
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
