"""Property tests of the zero finder.

For 1 <= r <= 24, alpha >= -1 + 1e-8 and beta > -1, ``find_zeros`` returns
all n zeros, strictly increasing inside (0,1), each with a residual within
the documented bound.  Closer to alpha = -1 the largest zero lies within
half an ulp of 1, where no double inside (0,1) is its correct rounding.

Its integer Horner steps multiply by the abscissa's significand and shift
by less than the scale; every step equals the full-width step
((acc * X) >> prec) + c, for doubles, midpoints of two doubles, truncated
quotients and the 64-bit rounded quotients that Newton evaluates alike.
The examples are derandomized so that the suite is reproducible.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from angelesco import Params, find_zeros
from angelesco.zeros import _fixed, _fixed_eval, _fixed_eval_d, _short


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    r=st.integers(1, 24),
    alpha=st.floats(-1.0 + 1e-8, 40.0),
    beta=st.floats(-1.0, 40.0, exclude_min=True),
    n=st.integers(1, 60),
)
def test_find_zeros_property(r, alpha, beta, n):
    zs = find_zeros(n, Params(r, alpha, beta))
    assert zs.n == n == len(zs.zeros)
    assert 0.0 < zs.zeros[0] and zs.zeros[-1] < 1.0
    assert np.all(np.diff(zs.zeros) > 0.0)
    assert np.all(zs.residuals <= 1e-10)


def _full_width(crev, X, prec):
    # Horner with the full-width multiplier: p, p' and sum |c_k| x^k
    f = d = a = 0
    for c in crev:
        d = ((d * X) >> prec) + f
        f = ((f * X) >> prec) + c
        a = ((a * X) >> prec) + abs(c)
    return f, d, a


@st.composite
def _abscissae(draw):
    # (X, prec): a double at scale 2^prec, the midpoint of a double and its
    # lower neighbour, or the truncated quotient of an odd denominator, as
    # it is or rounded to a Newton iterate's significand
    prec = draw(st.integers(60, 1200))
    x = draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(["double", "midpoint", "truncated", "short"]))
    if kind == "double":
        return _fixed(x, prec), prec
    if kind == "midpoint":
        return (_fixed(x, prec) + _fixed(math.nextafter(x, 0.0), prec)) >> 1, prec
    q = draw(st.integers(1, 2**64)) | 1
    X = (draw(st.integers(0, q)) << prec) // q
    return (_short(X) if kind == "short" else X), prec


_BITS = 2**1500


@settings(max_examples=300, deadline=None, derandomize=True)
@given(crev=st.lists(st.integers(-_BITS, _BITS), min_size=1, max_size=61), point=_abscissae())
@example(crev=[3, -(2**1499), 7], point=(_fixed(0.0, 60), 60))
@example(crev=[-(2**900) + 1, 5, -1], point=(_fixed(1.0, 1200), 1200))
@example(crev=[2**1500, -3, 2**700 + 1], point=(_fixed(5e-324, 1200), 1200))
@example(crev=[1, -1], point=(_fixed(5e-324, 60), 60))
@example(crev=[5, -7, 2**80], point=(3 << 61, 60))  # past 2^prec, as at x = 2
def test_split_horner_equals_full_width(crev, point):
    X, prec = point
    f, d, a = _full_width(crev, X, prec)
    assert _fixed_eval(crev, X, prec) == f
    assert _fixed_eval_d(crev, X, prec) == (f, d)
    assert _fixed_eval([abs(c) for c in crev], X, prec) == a
