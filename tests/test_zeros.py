import math

import mpmath as mp
import numpy as np
import pytest

from angelesco import (
    Params,
    base_poly,
    empirical_cdf,
    find_zeros,
    poly_eval,
    stieltjes_empirical,
)
from angelesco import zeros as zero_finder
from angelesco.polynomials import base_coeffs_mp, coeff_error_units


def test_single_zero():
    zs = find_zeros(1, Params(2, 0.0, 0.0))
    assert zs.zeros == pytest.approx([2.0 / 3.0], rel=1e-14)


def test_quadratic_zeros_exact():
    zs = find_zeros(2, Params(2, 0.0, 0.0))
    want = [(15.0 - math.sqrt(33.0)) / 24.0, (15.0 + math.sqrt(33.0)) / 24.0]
    assert zs.zeros == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_counts_and_interval(r):
    for a, b in ((0.0, 0.0), (0.7, -0.5), (2.0, 2.0)):
        params = Params(r, a, b)
        for n in (1, 5, 12, 25):
            zs = find_zeros(n, params)
            assert zs.n == n == len(zs.zeros)
            assert np.all(zs.zeros > 0.0) and np.all(zs.zeros < 1.0)
            assert np.all(np.diff(zs.zeros) > 1e-12)
            assert np.all(zs.residuals <= 1e-10)


def test_simplicity_via_derivative():
    params = Params(2, 0.0, 0.0)
    p = base_poly(12, params)
    dp = p.derivative()
    for x in find_zeros(12, params).zeros:
        assert poly_eval(dp, float(x)) != 0.0


def test_newton_polish_diagnostic():
    # safeguarded Newton settles within 6 steps for (almost) all low-degree roots
    iters = []
    for n in (4, 8, 12):
        for a, b in ((0.0, 0.0), (2.0, 0.7)):
            iters.extend(find_zeros(n, Params(2, a, b)).newton_iters.tolist())
    frac = np.mean(np.asarray(iters) <= 6)
    assert frac >= 0.99


def test_extended_mode_high_degree():
    zs = find_zeros(60, Params(5, 2.0, 2.0))
    assert zs.precision == "extended"
    assert zs.n == 60
    assert np.all(zs.residuals <= 1e-10)
    # the condition estimate (66 digits at r = 5, n = 60) plus the margin
    assert zs.dps == 96


def test_degree_cap():
    from angelesco import DegreeCapError

    with pytest.raises(DegreeCapError):
        find_zeros(61, Params(2, 0.0, 0.0))


def test_empirical_cdf_steps():
    zs = find_zeros(2, Params(2, 0.0, 0.0))
    assert empirical_cdf(zs, 0.0) == 0.0
    assert empirical_cdf(zs, 1.0) == 1.0
    assert empirical_cdf(zs, 0.5) == 0.5  # one of two zeros below 1/2
    x1 = zs.zeros[0]
    assert empirical_cdf(zs, x1) == 0.5  # right-continuous at the jump
    assert empirical_cdf(zs, math.nextafter(x1, 0.0)) == 0.0


def test_stieltjes_empirical_basic():
    zs = find_zeros(1, Params(2, 0.0, 0.0))
    z = 3.0 + 0.5j
    assert stieltjes_empirical(zs, z) == pytest.approx(1.0 / (z - 2.0 / 3.0))
    # z S(z) -> 1 along the real axis
    zs10 = find_zeros(10, Params(2, 0.0, 0.0))
    for zr in (1e3, 1e6):
        assert zr * stieltjes_empirical(zs10, zr) == pytest.approx(1.0, abs=1e-2)


def test_stieltjes_empirical_matches_log_derivative():
    params = Params(2, 0.7, -0.5)
    z = 2.0 + 1.0j
    for n in (3, 6, 10):
        zs = find_zeros(n, params)
        p = base_poly(n, params)
        want = poly_eval(p.derivative(), z) / (n * poly_eval(p, z))
        assert abs(stieltjes_empirical(zs, z) - want) <= 1e-8 * abs(want)


def test_stieltjes_pole_guard():
    zs = find_zeros(3, Params(2, 0.0, 0.0))
    with pytest.raises(ValueError):
        stieltjes_empirical(zs, complex(zs.zeros[1], 0.0))


def test_interlacing_observed():
    # consecutive-degree zero sets alternate strictly in every tested
    # instance (an observation here, not an asserted theorem in general)
    for r in (2, 3):
        params = Params(r, 0.7, -0.5)
        prev = find_zeros(1, params).zeros
        for n in range(2, 13):
            cur = find_zeros(n, params).zeros
            merged = np.sort(np.concatenate([prev, cur]))
            # strict alternation: every second element belongs to cur
            pos = np.searchsorted(merged, prev)
            assert np.all(np.diff(pos) == 2)
            prev = cur


def test_rotated_entry_zeros_are_rotations():
    # zeros of the ray-j entry of a diagonal vector are exactly the rotated
    # base zeros (documented corollary; checked by direct evaluation)
    from angelesco import type1_diagonal
    from angelesco.numerics import roots_of_unity

    params = Params(3, 0.7, -0.5)
    v = type1_diagonal(6, params)
    zs = find_zeros(5, params)
    w = roots_of_unity(3)[1]
    entry = v.polys[1]  # ray j = 2
    scale = float(np.abs(np.asarray(entry.coeffs, dtype=complex)).max())
    for x in zs.zeros:
        assert abs(poly_eval(entry, w * float(x))) <= 1e-9 * scale


def _closed_form_mp(n, r, a, b):
    # the paper's closed form for p_n, written out independently of the library
    a, b = mp.mpf(a), mp.mpf(b)
    return [
        (-1) ** (n - k)
        * mp.binomial(n, k)
        * mp.gamma(n + a + (b + k) / r + 1)
        / (mp.gamma(n + a + 1) * mp.gamma((b + k) / r + 1))
        for k in range(n + 1)
    ]


@pytest.mark.parametrize("r", range(1, 8))
@pytest.mark.parametrize("a, b", [(0.0, 0.0), (0.7, -0.5), (2.0, 2.0)])
def test_base_coeffs_mp_matches_closed_form(r, a, b):
    # the chained coefficients against the closed form at 40 more digits,
    # chains shorter than r included
    dps = 30
    for n in sorted({1, 2, r - 1, r, r + 1, 60} - {0}):
        with mp.workdps(dps):
            w = mp.mp.prec
            got = base_coeffs_mp(n, Params(r, a, b))
        with mp.workdps(dps + 40):
            want = _closed_form_mp(n, r, a, b)
            err = max(abs(g / v - 1) for g, v in zip(got, want))
        assert len(got) == n + 1
        assert err <= coeff_error_units(n, r) * mp.mpf(2) ** -w
        assert err <= 2 * mp.mpf(10) ** -dps


def _assert_correctly_rounded(zs, r, a, b, dps=160):
    # p_n changes sign between the midpoints to the neighbouring doubles, so
    # each reported zero is the double nearest the true one; the residual is
    # that of the reported double itself
    with mp.workdps(dps):
        crev = _closed_form_mp(zs.n, r, a, b)[::-1]
        absrev = [abs(v) for v in crev]
        for x, res in zip(zs.zeros, zs.residuals):
            x = float(x)
            lo = (mp.mpf(math.nextafter(x, 0.0)) + x) / 2
            hi = (mp.mpf(x) + math.nextafter(x, 1.0)) / 2
            assert mp.polyval(crev, lo) * mp.polyval(crev, hi) < 0
            want = abs(mp.polyval(crev, mp.mpf(x))) / mp.polyval(absrev, mp.mpf(x))
            assert res == pytest.approx(float(want), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n", [1, 5, 12, 13, 60])
@pytest.mark.parametrize("r, a, b", [(1, 0.0, 0.0), (3, 0.7, -0.5), (5, 2.0, 2.0)])
def test_extended_zeros_correctly_rounded(n, r, a, b):
    _assert_correctly_rounded(find_zeros(n, Params(r, a, b)), r, a, b)


@pytest.mark.parametrize("r", [16, 20, 40])
def test_large_r_zeros_correctly_rounded(r):
    # the root condition reaches 10^90 to 10^112 here, past what a precision
    # that ignores r provides
    a, b = 0.7, -0.5
    _assert_correctly_rounded(find_zeros(60, Params(r, a, b)), r, a, b, dps=220)


def test_rounding_test_can_fail():
    # at 30 + 1.2 n digits the coefficients of r = 20, n = 60 cannot settle
    # the rounding of every zero (the root condition is 10^95): the attempt
    # reports that instead of returning doubles
    assert zero_finder._certify_at(60, Params(20, 0.7, -0.5), 30 + int(1.2 * 60)) == "undecided"


def test_zero_next_to_origin():
    # beta near -1 pushes the first zero to 5.9e-10, below any interior grid
    # point; the grid's end at 0 still brackets it
    r, a, b = 1, 0.0, -1.0 + 1e-7
    zs = find_zeros(13, Params(r, a, b))
    assert zs.n == 13
    assert zs.zeros[0] == pytest.approx(5.9e-10, rel=0.01)
    _assert_correctly_rounded(zs, r, a, b)
