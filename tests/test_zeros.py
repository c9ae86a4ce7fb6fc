import hashlib
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
    c = base_poly(12, params)
    dp = c[1:] * np.arange(1, len(c))
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
        dp = p[1:] * np.arange(1, len(p))
        want = poly_eval(dp, z) / (n * poly_eval(p, z))
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
    entry = v.coeffs[1]  # ray j = 2
    scale = float(np.abs(entry).max())
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


# sha256 prefixes of the zeros' and residuals' bytes over each degree list,
# and the certifying digits per degree.  Zeros are correctly rounded,
# residuals are ratios of integers and dps comes from a formula, so every
# byte is determined; any change to the zero finder must leave them alone.
_DIGEST_DEGREES = (1, 2, 7, 13, 25, 40, 60)
_DIGESTS = {
    (1, 0.0, 0.0): ('dc66c3d7c0d3d5b20ca6babbb54b4b55', 'a46ab9eb58ac7471c02faf6735fa45c8', (31, 32, 36, 40, 49, 60, 74)),
    (1, 0.7, -0.5): ('ba4da52acaa489bcc11c403208cb4e7d', '6948d1534e4d8622a9f0302cd683431c', (31, 32, 36, 40, 49, 60, 74)),
    (1, 2.0, 2.0): ('4b2cb75a655101cffc7e959d563f5943', '136c4f8be5cdc71cc844e83445dcb630', (31, 32, 36, 40, 49, 60, 74)),
    (2, 0.0, 0.0): ('e912cf68e20c306d5c22edc493418efe', '076525bed33a20813065c60645a86255', (31, 32, 37, 42, 52, 65, 82)),
    (2, 0.7, -0.5): ('9d9f36c97319afe8d0f3a7896ee1180e', '3a4b991fca9288a309892938924ae130', (31, 32, 37, 42, 52, 65, 82)),
    (2, 2.0, 2.0): ('295f97b929a13feb930a5ae4eb26dfc6', '2e7adbcc3ca7d68379bc17ecf04a964c', (31, 32, 37, 42, 52, 65, 82)),
    (3, 0.0, 0.0): ('9425a0941dc98cadb2001fc38b457d6b', '2e2b6b828b7f361e529b81f52adc1845', (31, 32, 37, 43, 54, 69, 88)),
    (3, 0.7, -0.5): ('d1020bd16590cef2cf224f8bc324d0de', '561a811915d2c3e0df5767cecbb01b08', (31, 32, 37, 43, 54, 69, 88)),
    (3, 2.0, 2.0): ('025d4c9b5d6a85898ab935cde8d68bb1', '93d20db21029bfa676d543fce7fc394d', (31, 32, 37, 43, 54, 69, 88)),
    (4, 0.0, 0.0): ('cbe8606a12b375835b1743109c51b69c', 'fde5c222201a287c2d513b510e0ead91', (32, 33, 38, 44, 56, 72, 92)),
    (4, 0.7, -0.5): ('3696bc4517697d521024093ef8d35f1a', '49c799066e878e9f302f7812da4a4975', (32, 33, 38, 44, 56, 72, 92)),
    (4, 2.0, 2.0): ('d2d1f7ee3839b691683a9e6834a3045f', 'ef540575b1d2ddaf2dfeecf92e6d6967', (32, 33, 38, 44, 56, 72, 92)),
    (5, 0.0, 0.0): ('ddc8348a18a1c8207e73d944ac479e13', 'bb1674187d1421b4e211b68b297dc9fa', (32, 33, 38, 45, 58, 74, 96)),
    (5, 0.7, -0.5): ('6411e830668ee4230e751dcf25c022b5', '6b835cf85991b84d455d3fa6d7ad2a01', (32, 33, 38, 45, 58, 74, 96)),
    (5, 2.0, 2.0): ('2ed663a820cd18045214a6e335389b1c', '4d29d47871c84afcc85470d3b27d590c', (32, 33, 38, 45, 58, 74, 96)),
}
# the stress cases include two that redo the polynomial at twice the digits
_STRESS_DEGREES = (1, 2, 5, 13, 30, 60)
_STRESS_DIGESTS = {
    (1, -0.9, 40.0): ('501d268d6a4effdb512238fdb887488c', 'a6cc9070b6253f6200309a5495b273e8', (31, 32, 34, 40, 52, 148)),
    (3, 300.0, 0.3): ('19506653a241f0f06fbea7b2cc1cfb8f', '43230dc15a4b306080bb04bdd3f1e299', (31, 32, 35, 43, 59, 88)),
    (8, -0.999, -0.999): ('90b267d8aaaaa69acc848d8031e2611a', 'c79f0a17137aae2ea40c70213c35b1bf', (32, 33, 37, 47, 68, 106)),
    (16, 0.3, 300.0): ('accea71194e7cbe071c71926e14150a1', '930cac66c574c627e9ffe59b9fb7fe0e', (32, 34, 38, 50, 76, 242)),
    (24, -0.5, 5.0): ('0732626ffe4ea13bff3bec1515493be8', 'ccd2f403c54e354fd05e9727b32a455b', (32, 34, 39, 52, 81, 131)),
}


def _digest(r, a, b, degrees):
    hz, hr = hashlib.sha256(), hashlib.sha256()
    dps = []
    for n in degrees:
        zs = find_zeros(n, Params(r, a, b))
        hz.update(zs.zeros.astype("<f8").tobytes())
        hr.update(zs.residuals.astype("<f8").tobytes())
        dps.append(zs.dps)
    return hz.hexdigest()[:32], hr.hexdigest()[:32], tuple(dps)


@pytest.mark.parametrize("case", list(_DIGESTS))
def test_zero_finder_output_is_pinned(case):
    assert _digest(*case, _DIGEST_DEGREES) == _DIGESTS[case]


@pytest.mark.parametrize("case", list(_STRESS_DIGESTS))
def test_zero_finder_stress_output_is_pinned(case):
    assert _digest(*case, _STRESS_DEGREES) == _STRESS_DIGESTS[case]


@pytest.mark.parametrize("r", [1, 3, 5])
def test_horner_multipliers_are_short(monkeypatch, r):
    # grid points and rounding-test abscissae are doubles or midpoints, and
    # Newton's iterates are rounded to _ITERATE_BITS: no Horner pass
    # multiplies by a wider significand (full-width iterates reach about
    # 260 bits at n = 60, r = 3)
    split = zero_finder._split
    widths = []

    def record(X, prec):
        m, s = split(X, prec)
        widths.append(m.bit_length())
        return m, s

    monkeypatch.setattr(zero_finder, "_split", record)
    for n in (13, 40, 60):
        find_zeros(n, Params(r, 0.7, -0.5))
    assert widths and max(widths) <= 64


_ALL_DIGEST_CASES = [(case, _DIGEST_DEGREES) for case in _DIGESTS] + [
    (case, _STRESS_DEGREES) for case in _STRESS_DIGESTS
]


@pytest.mark.parametrize(
    "case, degrees", _ALL_DIGEST_CASES, ids=[str(c) for c, _ in _ALL_DIGEST_CASES]
)
def test_rounded_iterates_change_no_output(monkeypatch, case, degrees):
    # Newton at full-width iterates (nothing is rounded once _ITERATE_BITS
    # exceeds every search width) takes the same steps and certifies the
    # same bytes as Newton at 64-bit iterates
    r, a, b = case
    short = [find_zeros(n, Params(r, a, b)) for n in degrees]
    monkeypatch.setattr(zero_finder, "_ITERATE_BITS", 1 << 20)
    for n, got in zip(degrees, short):
        want = find_zeros(n, Params(r, a, b))
        for field in ("zeros", "residuals", "newton_iters"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert got.dps == want.dps


@pytest.mark.parametrize(
    "r, a, b, n", [(1, 0.0, 0.0, 60), (3, 0.7, -0.5, 40), (5, 2.0, 2.0, 25), (16, 0.7, -0.5, 60)]
)
def test_undecided_search_redoes_the_attempt(monkeypatch, r, a, b, n):
    # a search iterate that the rounding test does not accept leaves the
    # attempt undecided; the attempt at twice the digits searches at more
    # bits too and certifies the same correctly rounded zeros
    want = find_zeros(n, Params(r, a, b))
    first = mp.libmp.dps_to_prec(want.dps) + 32
    certify, newton = zero_finder._rounding_test, zero_finder._certified_newton
    search_bits = []

    def undecided_first(crev, arev, prec, *args):
        return zero_finder._UNDECIDED if prec == first else certify(crev, arev, prec, *args)

    def record(trev, shift, crev, arev, prec, *args):
        search_bits.append(prec - shift)
        return newton(trev, shift, crev, arev, prec, *args)

    monkeypatch.setattr(zero_finder, "_rounding_test", undecided_first)
    monkeypatch.setattr(zero_finder, "_certified_newton", record)
    got = find_zeros(n, Params(r, a, b))
    assert got.dps == 2 * want.dps
    assert got.zeros.tobytes() == want.zeros.tobytes()
    np.testing.assert_allclose(got.residuals, want.residuals, rtol=1e-6)
    # one undecided bracket at the first attempt, then all n at the second
    assert len(search_bits) == n + 1
    assert search_bits[1:] == [search_bits[1]] * n
    assert search_bits[1] > search_bits[0] + mp.libmp.dps_to_prec(want.dps) // 2


def _context_coeffs_mp(n, params):
    # the coefficient chain written on mpmath's context (mp.fadd, mp.gamma
    # and mpf operators at the working precision): the reference that the
    # library's kernel on raw libmp tuples must match bit for bit
    r = params.r
    a = mp.mpf(params.alpha)
    b = mp.mpf(params.beta)
    top = mp.fadd(mp.fmul(r, a, exact=True), r * (n + 1), exact=True)
    guard = 2 * (int((top + b + r) / r) + 2).bit_length() + 1
    arg_prec = mp.mp.prec + guard
    quot = []
    for k in range(n + 1):
        if k < r:
            bk = mp.fadd(b, k, exact=True)
            y = mp.fdiv(mp.fadd(top, bk, exact=True), r, prec=arg_prec)
            s1 = mp.fdiv(mp.fadd(bk, r, exact=True), r, prec=arg_prec)
            quot.append(mp.gamma(y) / mp.gamma(s1))
        else:
            bj = mp.fadd(b, k - r, exact=True)
            quot.append(quot[k - r] * mp.fadd(top, bj, exact=True) / mp.fadd(bj, r, exact=True))
    g = mp.gamma(mp.fadd(a, n + 1, exact=True))
    out = []
    binom = 1
    for k in range(n + 1):
        v = binom * quot[k] / g
        out.append(v if (n - k) % 2 == 0 else -v)
        binom = binom * (n - k) // (k + 1)
    return out


_KERNEL_PAIRS = [(a, b) for _, a, b in _STRESS_DIGESTS] + [(-1 + 1e-13, -1 + 1e-12), (1e7, 0.3)]


@pytest.mark.parametrize("r", range(1, 9))
@pytest.mark.parametrize("a, b", _KERNEL_PAIRS)
def test_coeff_kernel_matches_context_chain(r, a, b):
    # base_coeffs_mp's numbers and the zero finder's integers, at the first
    # attempt's digits and at twice them, are bitwise the context chain's
    params = Params(r, a, b)
    for n in sorted({1, r - 1, r, r + 1, 13, 60} - {0}):
        first = math.ceil(zero_finder._condition_digits(n, r)) + zero_finder._MARGIN_DIGITS
        for dps in (first, 2 * first):
            with mp.workdps(dps):
                w = mp.mp.prec
                want = _context_coeffs_mp(n, params)
                got = base_coeffs_mp(n, params)
                assert [c._mpf_ for c in got] == [c._mpf_ for c in want]
                want_fixed = [int(mp.nint(mp.ldexp(c, w + 32))) for c in reversed(want)]
            assert zero_finder._fixed_coeffs(n, params, w, w + 32) == want_fixed


@pytest.mark.parametrize(
    "r, n", [(np.int64(1), 5), (np.int32(3), np.int64(13)), (np.int64(5), np.int16(40))]
)
def test_numpy_integers_give_the_zeros_of_plain_ints(r, n):
    # Params and find_zeros take numpy integers as the ints they equal
    got = find_zeros(n, Params(r, 0.7, -0.5))
    want = find_zeros(int(n), Params(int(r), 0.7, -0.5))
    assert type(got.params.r) is int and type(got.n) is int
    for field in ("zeros", "residuals", "newton_iters"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert got.dps == want.dps
