import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammasgn

from angelesco import DegenerateParameters, Params, base_poly, gamma_ratio, moment, pochhammer
from angelesco.numerics import DoubleRangeError, log_gamma_factor, roots_of_unity
from angelesco.polynomials import base_coeffs_mp


def test_pochhammer_examples():
    assert pochhammer(3.7, 0) == 1.0
    assert pochhammer(1.0, 4) == 24.0
    assert pochhammer(0.5, 2) == 0.75


def test_pochhammer_recurrence_is_exact():
    for a in (0.3, -1.7, 2.0):
        for n in range(0, 20):
            assert pochhammer(a, n + 1) == pochhammer(a, n) * (a + n)


def test_gamma_ratio_plain():
    # Gamma(5)/Gamma(3) = 12
    assert gamma_ratio([5.0], [3.0]) == pytest.approx(12.0, rel=1e-14)
    # sign from a negative argument: Gamma(-0.5) = -2 sqrt(pi)
    assert gamma_ratio([-0.5], []) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)


def test_gamma_ratio_pole_semantics():
    # denominator pole kills the ratio
    assert gamma_ratio([2.0], [0.0]) == 0.0
    # equal poles with equal rates cancel to the residue limit 1
    assert gamma_ratio([0.0, 3.0], [0.0]) == pytest.approx(2.0, rel=1e-14)
    # rates scale the limit: Gamma(eps)/Gamma(2 eps) -> 2
    assert gamma_ratio([(0.0, 1.0)], [(0.0, 2.0)]) == pytest.approx(2.0, rel=1e-14)
    # pole pair at different integers: Gamma(-1+eps)/Gamma(eps) -> -1
    assert gamma_ratio([-1.0], [0.0]) == pytest.approx(-1.0, rel=1e-14)
    with pytest.raises(DegenerateParameters):
        gamma_ratio([0.0], [1.0])


# regular gamma arguments: positive, or negative and at least 1e-6 from a pole
regular = st.one_of(
    st.floats(1e-6, 60.0),
    st.integers(1, 30).map(float),
    st.floats(-8.0, -1e-6).filter(lambda x: abs(x - round(x)) > 1e-6),
)
# poles, bare or with a rate
pole = st.tuples(st.integers(-5, 0).map(float), st.sampled_from((1.0, 2.0, 3.0)))
argument = st.one_of(regular, regular, pole, pole.map(lambda p: p[0]))
bounded = settings(max_examples=200, deadline=None, derandomize=True)


def _outcome(nums, dens):
    try:
        return float(gamma_ratio(nums, dens)).hex()
    except DegenerateParameters:
        return "DegenerateParameters"


@bounded
@given(nums=st.lists(argument, max_size=6), dens=st.lists(argument, max_size=8), data=st.data())
def test_gamma_ratio_ignores_argument_order(nums, dens, data):
    perm_n = data.draw(st.permutations(nums))
    perm_d = data.draw(st.permutations(dens))
    assert _outcome(perm_n, perm_d) == _outcome(nums, dens)


@bounded
@given(
    nums=st.lists(argument, max_size=6),
    dens=st.lists(argument, max_size=8),
    shared=st.lists(regular, min_size=1, max_size=3),
    data=st.data(),
)
def test_gamma_ratio_cancels_equal_regular_arguments(nums, dens, shared, data):
    # an argument on both sides cancels inside the exact sum, wherever it sits
    more_n = data.draw(st.permutations(nums + shared))
    more_d = data.draw(st.permutations(dens + shared))
    assert _outcome(more_n, more_d) == _outcome(nums, dens)


@bounded
@given(nums=st.lists(regular, max_size=6), dens=st.lists(regular, max_size=8))
@example(nums=[], dens=[56.0, 60.0, 60.0, 60.0])  # a subnormal ratio, about 3e-314
def test_gamma_ratio_sign_and_value_against_references(nums, dens):
    val = gamma_ratio(nums, dens)
    assert type(val) is float
    sign = math.prod(gammasgn(x) for x in nums) * math.prod(gammasgn(x) for x in dens)
    assert math.copysign(1.0, val) == sign
    bound = 8 * 2.0**-52 * (1.0 + sum(abs(math.lgamma(x)) for x in nums + dens))
    with mp.workdps(50):
        ref = mp.fprod(mp.gamma(x) for x in nums) / mp.fprod(mp.gamma(x) for x in dens)
        err = abs((mp.mpf(val) - ref) / ref)
        # below the normal range the doubles are 2^-1074 apart
        assert err <= bound + mp.ldexp(1, -1074) / abs(ref)


# a chain factor's arguments: regular ones up to 1e12 (their ratios leave the
# double range), with or without a rate, and poles
wide = st.one_of(regular, st.floats(1.0, 1e12))
factor_argument = st.one_of(wide, wide, st.tuples(wide, st.sampled_from((1.0, 2.0, 7.0))), pole)


def _factor_outcome(nums, dens, factor=None):
    try:
        return float(gamma_ratio(nums, dens, factor)).hex()
    except (DegenerateParameters, DoubleRangeError) as e:
        return f"{type(e).__name__}: {e}"


@bounded
@given(
    nums=st.lists(argument, max_size=4),
    dens=st.lists(argument, max_size=4),
    fnums=st.lists(factor_argument, max_size=5),
    fdens=st.lists(factor_argument, max_size=5),
)
@example(nums=[300.0], dens=[], fnums=[200.0], fdens=[])  # overflows
@example(nums=[-0.5], dens=[(-1.5, 2.0)], fnums=[-2.5, (1e12, 7.0)], fdens=[-3.25, 1e12])
# the factor's poles cancel and pair with the call's: -1 at rate 2 cancels,
# -3 pairs with -2 at rates 1 and 7
@example(nums=[(-1.0, 2.0), 4.5], dens=[(-2.0, 7.0)], fnums=[-3.0], fdens=[(-1.0, 2.0), 2.5])
@example(nums=[], dens=[], fnums=[0.0], fdens=[])  # an unpaired pole
def test_gamma_ratio_with_a_factor_is_the_concatenation_bitwise(nums, dens, fnums, fdens):
    # every factor, poles included, gives the value or the error of one call
    # over the concatenated arguments
    got = _factor_outcome(nums, dens, log_gamma_factor(fnums, fdens))
    assert got == _factor_outcome(nums + fnums, dens + fdens)


def test_a_factor_overflow_names_every_argument():
    factor = log_gamma_factor([(200.0, 2.0)], [2.5])
    with pytest.raises(DoubleRangeError) as e:
        gamma_ratio([300.0], [1.5], factor)
    assert str(e.value) == (
        "gamma ratio exceeds the double range: [300.0, (200.0, 2.0)] over [1.5, 2.5]"
    )
    with pytest.raises(DoubleRangeError, match=r"\[1e\+306\] over \[\]"):
        log_gamma_factor([1e306], [])


def test_gamma_ratio_returns_float():
    assert type(gamma_ratio([5.0, np.float64(-0.5)], [3.0])) is float
    assert type(gamma_ratio([(-1.0, 2.0)], [0.0])) is float


# gamma_ratio sums log-gammas whose absolute error is near ulp(lgamma(x)),
# so a ratio's relative error grows like x ln x 2^-53 in its largest
# argument; at Params(2, a, 0.3) the two reads below are about 5e-13 and
# 1e-12 at a = 1e3, 2.5e-10 and 3.2e-10 at a = 1e5, 4.7e-8 and 2.8e-8 at
# a = 1e7
_LARGE_ALPHA = Params(2, 1e7, 0.3)


@pytest.mark.xfail(raises=AssertionError, reason="gamma_ratio loses digits at large arguments")
def test_base_poly_at_large_alpha_matches_mpmath():
    got = base_poly(5, _LARGE_ALPHA)
    with mp.workdps(40):
        want = base_coeffs_mp(5, _LARGE_ALPHA)
        assert len(got) == len(want)
        err = max(abs(mp.mpf(g) / w - 1) for g, w in zip(got, want))
    assert float(err) <= 1e-12


@pytest.mark.xfail(raises=AssertionError, reason="gamma_ratio loses digits at large arguments")
def test_moment_at_large_alpha_matches_mpmath():
    r, a, b = _LARGE_ALPHA.r, _LARGE_ALPHA.alpha, _LARGE_ALPHA.beta
    for m in range(6):
        with mp.workdps(40):
            want = mp.beta((m + mp.mpf(b) + 1) / r, mp.mpf(a) + 1) / r
            err = abs(mp.mpf(moment(m, _LARGE_ALPHA)) / want - 1)
        assert float(err) <= 1e-12


def test_root_of_unity_exact_quarter_turns():
    assert roots_of_unity(1)[5 % 1] == 1.0 + 0.0j
    assert roots_of_unity(2)[1] == -1.0 + 0.0j
    assert roots_of_unity(4)[1] == 1j
    assert roots_of_unity(4)[3] == -1j
    assert roots_of_unity(4)[6 % 4] == -1.0 + 0.0j


def test_root_of_unity_order():
    for r in range(1, 9):
        w = roots_of_unity(r)[1 % r]
        assert abs(w**r - 1.0) <= 4 * 2.3e-16 * r


def test_alternating_binomial_moments_vanish():
    # sum_k C(n,k) (-1)^(n-k) k^m = 0 for 0 <= m <= n-1, exact integers
    for n in range(1, 21):
        for m in range(0, n):
            s = sum(math.comb(n, k) * (-1) ** (n - k) * k**m for k in range(n + 1))
            assert s == 0


def test_alternating_binomial_reciprocal_sum():
    # sum_k C(n,k) (-1)^k / (t+k) = n! / (t)_(n+1)
    for n in range(1, 16):
        for t in (0.5, 1.3, 2.7):
            lhs = math.fsum(
                math.comb(n, k) * (-1) ** k / (t + k) for k in range(n + 1)
            )
            rhs = math.factorial(n) / pochhammer(t, n + 1)
            assert lhs == pytest.approx(rhs, rel=1e-11)


def test_alternating_binomial_reciprocal_sum_exact_rational():
    # the same identity in exact rational arithmetic at t = 1/2
    n = 12
    t = Fraction(1, 2)
    lhs = sum(Fraction(math.comb(n, k) * (-1) ** k, 1) / (t + k) for k in range(n + 1))
    rhs = Fraction(math.factorial(n), 1)
    den = Fraction(1, 1)
    for j in range(n + 1):
        den *= t + j
    assert lhs == rhs / den


def test_roots_of_unity_table_is_the_scalar_values():
    # entry e is omega^e from its exact angle (pi times 2e/r, rounded once):
    # within two ulps of the 40-digit value for every exponent reduced mod r,
    # and the table is read-only
    for r in range(1, 9):
        table = roots_of_unity(r)
        with mp.workdps(40):
            want = [complex(mp.expjpi(mp.mpf(2 * e) / r)) for e in range(-2 * r, 2 * r)]
        got = table[np.arange(-2 * r, 2 * r) % r]
        assert np.abs(got - np.array(want)).max() <= 2 * 2.3e-16
        with pytest.raises(ValueError):
            table[0] = 0.0
