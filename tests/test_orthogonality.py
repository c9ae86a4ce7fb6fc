import itertools
import math
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from angelesco import (
    DoubleRangeError,
    Params,
    base_poly,
    gamma_ratio,
    moment,
    ray_form,
    type1_diagonal,
    type1_down,
    type1_up,
    verify_type1,
)
from angelesco import cli, orthogonality, polynomials
from angelesco.numerics import roots_of_unity
from angelesco.orthogonality import _hankel, _live_width, _moment_row, _star_forms, verify_level
from angelesco.poly import padded_coeffs
from angelesco.polynomials import TypeIVector

GRID = (-0.5, 0.0, 0.7, 2.0)


def test_moment_examples():
    assert moment(0, Params(2, 0.0, 0.0)) == pytest.approx(1.0, rel=1e-14)
    assert moment(1, Params(2, 0.0, 0.0)) == pytest.approx(0.5, rel=1e-14)
    assert moment(0, Params(1, 1.0, 0.0)) == pytest.approx(0.5, rel=1e-14)


def test_moments_positive_decreasing():
    for r in (1, 3, 5):
        for a, b in itertools.product(GRID, GRID):
            vals = [moment(m, Params(r, a, b)) for m in range(25)]
            assert all(v > 0 for v in vals)
            assert all(x > y for x, y in zip(vals, vals[1:]))


def test_moment_ratio_recurrence():
    # moment(m+r)/moment(m) = B((m+beta+r+1)/r, a+1)/B((m+beta+1)/r, a+1)
    from scipy.special import betaln

    for r in (2, 4):
        p = Params(r, 0.7, -0.5)
        for m in range(0, 20):
            lhs = moment(m + r, p) / moment(m, p)
            u1 = (m + p.beta + r + 1.0) / r
            u0 = (m + p.beta + 1.0) / r
            rhs = math.exp(betaln(u1, p.alpha + 1) - betaln(u0, p.alpha + 1))
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_moment_near_alpha_beta_minus_one_matches_mpmath():
    # at alpha = beta = -1 + 1e-12 the beta function's last argument
    # u + alpha + 1 must be formed as u + (alpha + 1): alpha + 1 is exact
    # there, while (u + alpha) + 1 cancels about 12 digits when u is near 1
    a = b = -1.0 + 1e-12
    for r in (1, 2, 3, 5):
        p = Params(r, a, b)
        for m in range(4):
            with mp.workdps(50):
                want = mp.beta((m + mp.mpf(b) + 1) / r, mp.mpf(a) + 1) / r
            assert moment(m, p) == pytest.approx(float(want), rel=1e-13)


def gauss_jacobi_rstar(npts, params):
    """Nodes and weights with int_0^1 f(x) x^beta (1-x^r)^alpha dx
    ~ sum w_i f(x_i), an independent cross-check of :func:`moment`.

    After t = x^r the integral is a Jacobi one on [0,1] with exponents
    (alpha, (beta+1)/r - 1), handled by scipy's Gauss-Jacobi rule.  Exact
    when f is a polynomial in x^r; other monomials become fractional powers
    of t and converge only algebraically with npts.
    """
    from scipy.special import roots_jacobi

    r, a, b = params.r, params.alpha, params.beta
    bj = (b + 1.0) / r - 1.0
    t, w = roots_jacobi(npts, a, bj)
    t = (t + 1.0) / 2.0
    w = w * 0.5 ** (a + bj + 1.0) / r
    return t ** (1.0 / r), w


def test_moment_vs_gauss_jacobi_quadrature():
    # the quadrature is exact for integrands polynomial in x^r and converges
    # algebraically for the other monomials (fractional powers of t)
    for r in (1, 2, 3):
        p = Params(r, 0.7, -0.5)
        x, w = gauss_jacobi_rstar(40, p)
        for m in (0, r, 4 * r):
            quad = float(np.dot(w, x**m))
            assert quad == pytest.approx(moment(m, p), rel=1e-12)
    p = Params(3, 0.7, -0.5)
    errs = []
    for npts in (10, 40, 160):
        x, w = gauss_jacobi_rstar(npts, p)
        errs.append(abs(float(np.dot(w, x**5)) - moment(5, p)))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] <= 1e-5 * moment(5, p)


def test_ray_form_level_one_normalization():
    v = type1_diagonal(1, Params(2, 0.0, 0.0))
    assert ray_form(1, v) == pytest.approx(1.0, rel=1e-13)
    assert ray_form(0, v) == 0j  # r = 2: the two rays' phases are +-1, so exact


def test_ray_form_zero_vector():
    p = Params(2, 0.0, 0.0)
    v = TypeIVector(p, (1, 1), np.zeros((2, 1)))
    for k in range(5):
        assert ray_form(k, v) == 0j


@pytest.mark.parametrize("k", [-1, -3, 2.5, 2.0, "1", None])
def test_ray_form_rejects_a_power_that_is_not_a_nonnegative_integer(k):
    # a negative power used to wrap to the end of the cached moment row
    v = type1_diagonal(2, Params(2, 0.0, 0.0))
    with pytest.raises(ValueError, match="integer >= 0"):
        ray_form(k, v)


def test_ray_form_takes_numpy_integers():
    v = type1_up(3, 2, Params(3, 0.7, -0.5))
    for k in range(v.size):
        assert ray_form(np.int64(k), v) == ray_form(k, v)
        assert ray_form(np.uint8(k), v) == ray_form(k, v)


def test_verify_type1_grid_medium():
    for r in (1, 2, 3, 4, 5):
        for a, b in ((0.0, 0.0), (0.7, -0.5), (2.0, 2.0), (-0.5, 0.0)):
            params = Params(r, a, b)
            for n in (1, 2, 5):
                assert verify_type1(type1_diagonal(n, params), 1e-9).passed
                for k in range(1, r + 1):
                    assert verify_type1(type1_up(n, k, params), 1e-9).passed
                    if r * n - 1 >= 1:
                        assert verify_type1(type1_down(n, k, params), 1e-9).passed


def test_perturbed_vector_fails():
    params = Params(2, 0.0, 0.0)
    v = type1_diagonal(3, params)
    coeffs = np.array(v.coeffs)
    coeffs[0, 1] += 1e-3 * np.abs(coeffs[0]).max()
    bad = TypeIVector(params, v.index, coeffs)
    assert not verify_type1(bad, 1e-9).passed


def test_report_monotone_in_tol():
    v = type1_up(4, 2, Params(3, 0.7, 2.0))
    tols = (1e-15, 1e-12, 1e-9, 1e-6)
    passes = [verify_type1(v, t).passed for t in tols]
    # once passing, stays passing as tol loosens
    seen_pass = False
    for ok in passes:
        if seen_pass:
            assert ok
        seen_pass = seen_pass or ok
    assert passes[-1]


def test_verify_rejects_empty_index():
    with pytest.raises(ValueError):
        verify_type1(type1_down(1, 1, Params(1, 0.0, 0.0)))


def math_factorial_ratio(n, r, a, b):
    # n! / (rn + r*alpha + beta + r)_(n+1)
    base = r * n + r * a + b + r
    return gamma_ratio([n + 1.0, base], [base + n + 1.0])


def check_modr(n, params, tol=1e-12):
    """Orthogonality of p_n to x^(rj-1), 1 <= j <= n, plus its normalization.

    The normalization identity is tested in the telescoped form
    -int_0^1 p_n x^(r+beta-1) (1-x^r)^(alpha+n) dx = (-1)^(n+1) n! / (rn+r alpha+beta+r)_(n+1),
    which stays integrable for every beta > -1.
    """
    c = base_poly(n, params)
    h = _hankel(params, np.arange(params.r - 1, params.r * n, params.r), len(c))
    ok = bool(np.all(np.abs(h @ c) <= tol * np.maximum(h @ np.abs(c), 1.0)))

    r, a, b = params.r, params.alpha, params.beta
    shifted_weight = Params(r, a + n, b)
    shifted = np.array([moment(m + r - 1, shifted_weight) for m in range(len(c))])
    lhs = -float(np.dot(c, shifted))
    target = math_factorial_ratio(n, r, a, b)
    if n % 2 == 0:
        target = -target
    scale = max(abs(target), float(np.dot(np.abs(c), shifted)))
    return ok and abs(lhs - target) <= tol * scale


def test_check_modr_small_cases():
    # n=1, r=2: int_0^1 (1.5x - 1) x dx = 0, normalization 1/20
    assert math_factorial_ratio(1, 2, 0.0, 0.0) == pytest.approx(1.0 / 20.0, rel=1e-14)
    assert check_modr(1, Params(2, 0.0, 0.0), tol=1e-13)
    assert check_modr(2, Params(2, 0.0, 0.0), tol=1e-13)
    for r in (1, 3, 5):
        for n in (1, 4, 9):
            assert check_modr(n, Params(r, 0.7, -0.5), tol=1e-11)


def test_moment_conditions_sensitive_to_perturbation():
    # perturbing one coefficient visibly breaks the j=1 condition
    from angelesco.orthogonality import _moment_row

    p = Params(2, 0.0, 0.0)
    c = np.array(base_poly(3, p))
    mom = _moment_row(2, 0.0, 0.0, 10)
    clean = float(np.dot(c, mom[1 : 1 + len(c)]))
    assert abs(clean) <= 1e-14
    c[0] *= 1.0 + 1e-3
    dirty = float(np.dot(c, mom[1 : 1 + len(c)]))
    assert abs(dirty) > 1e-6


def test_norm_value_is_one_on_grid():
    for r in (2, 4):
        params = Params(r, 0.7, -0.5)
        for n in (1, 3, 6):
            rep = verify_type1(type1_diagonal(n, params))
            assert rep.norm_residual <= 1e-9  # mass-scaled deviation from 1
            assert rep.norm_value == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("r", [1, 3, 5])
@pytest.mark.parametrize("max_m", [7, 8, 9, 63, 64, 65])
def test_hankel_slices_equal_exact_moments(r, max_m):
    params = Params(r, 0.7, -0.5)
    for rows in (1, max_m // 2 + 1, max_m + 1):
        cols = max_m + 2 - rows
        h = _hankel(params, np.arange(rows), cols)
        want = np.array(
            [[moment(k + m, params) for m in range(cols)] for k in range(rows)]
        )
        assert h.shape == want.shape
        assert h.tobytes() == want.tobytes()


def _trimmed_rows(table):
    # each row up to its last nonzero entry (at least one), real where it
    # has no nonzero imaginary part: the rows the window formula was run on
    rows = []
    for c in table:
        live = np.flatnonzero(c)
        c = c[: live[-1] + 1 if live.size else 1]
        rows.append(c if c.imag.any() else c.real.copy())
    return rows


def _reference_star_forms(v, ks):
    # the window-view and outer-product formula that _star_forms replaced,
    # on the trimmed rows padded to the longest
    r = v.params.r
    rows = _trimmed_rows(v.coeffs)
    width = max(len(c) for c in rows)
    c = np.array([padded_coeffs(row, width) for row in rows])
    need = int(ks.max()) + width
    mom = _moment_row(r, v.params.alpha, v.params.beta, (1 << (need - 1).bit_length()) - 1)
    h = sliding_window_view(mom[:need], width)[ks]
    roots = roots_of_unity(r)
    j = np.arange(r)
    rotated = c * roots[np.outer(j, np.arange(width)) % r]
    forms = ((h @ rotated.T) * roots[np.outer(ks + 1, j) % r]).sum(axis=1)
    scale = (h @ np.abs(c).T).sum(axis=1)
    return forms, scale


@pytest.mark.parametrize("r", [1, 2, 3, 5, 8])
def test_star_forms_equal_window_formula_bitwise(r):
    # one stack per family, as verify_level forms them: each vector's
    # slice equals the window formula run on that vector alone
    params = Params(r, 0.7, -0.5)
    for n in (1, 2, 7, 24):
        stacks = [[type1_diagonal(n, params)], [type1_up(n, k, params) for k in range(1, r + 1)]]
        if r * n > 1:
            stacks.append([type1_down(n, k, params) for k in range(1, r + 1)])
        for vecs in stacks:
            width = _live_width(vecs[0].coeffs)
            assert all(_live_width(v.coeffs) == width for v in vecs)
            c = np.stack([v.coeffs[:, :width] for v in vecs])
            size = vecs[0].size
            for ks in (np.arange(size), np.array([size - 1])):
                got = _star_forms(c, params, ks)
                for i, v in enumerate(vecs):
                    want = _reference_star_forms(v, ks)
                    for g, w in zip((got[0][i], got[1][i]), want):
                        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def test_verify_type1_checks_the_live_width():
    # r = 1: the down vector at 12 has its top coefficient cancelled, so it
    # is checked on its 11 live columns, as the window formula on the
    # trimmed rows; the empty index has no condition to check
    params = Params(1, 0.7, -0.5)
    down = type1_down(12, 1, params)
    assert down.coeffs[0, -1] == 0 and _live_width(down.coeffs) == 11
    forms, scale = _reference_star_forms(down, np.arange(down.size))
    rep = verify_type1(down)
    assert rep.norm_value == complex(forms[-1])
    assert rep.max_ortho_residual == float((np.abs(forms[:-1]) / scale[:-1]).max())
    with pytest.raises(ValueError, match="empty multi-index"):
        verify_type1(type1_down(1, 1, params))


@pytest.mark.parametrize("r", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 7, 13])
def test_orthogonality_level_runs_three_stacks(monkeypatch, r, n):
    # the diagonal, the r up and the r down vectors: one Hankel gather each,
    # and none for the empty down index at r = 1, n = 1
    calls = 0
    real = orthogonality._hankel

    def counting(params, ks, cols):
        nonlocal calls
        calls += 1
        return real(params, ks, cols)

    vectors = 0

    class CountingVector(polynomials.TypeIVector):
        def __init__(self, *args, **kwargs):
            nonlocal vectors
            vectors += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(orthogonality, "_hankel", counting)
    monkeypatch.setattr(polynomials, "TypeIVector", CountingVector)
    cli._ortho_residual_level(n, Params(r, 0.7, -0.5), 1e-9)
    assert calls == (3 if r * n > 1 else 2)
    assert vectors == 1  # the diagonal's; the up and down rays stay in their stacks


_LEVEL_ALPHAS = (-0.999, -0.9, -0.5, 0.0, 0.7, 2.0, 40.0)
_LEVEL_BETAS = (-0.9, -0.5, -0.2, 0.0, 0.7, 3.0)
# stacks that miss their full width, so verify_level checks them one
# trimmed vector at a time: every r = 1 down stack (its top column is
# zero), and item 1's zero down vectors at n = 1 (ROADMAP); (3, -0.9,
# 0.7)'s zero vector is up at n = 0, which no level checks
_SPLIT_LEVELS = {
    1: {(a, b, n, "down") for a in _LEVEL_ALPHAS for b in _LEVEL_BETAS for n in range(2, 25)},
    2: {(-0.9, -0.2, 1, "down")},
    5: {(-0.9, -0.5, 1, "down")},
}


@pytest.mark.parametrize("r", range(1, 9))
def test_verify_level_equals_verify_many_bitwise(r):
    split = set()
    for alpha, beta in itertools.product(_LEVEL_ALPHAS, _LEVEL_BETAS):
        params = Params(r, alpha, beta)
        for n in range(1, (24 if r <= 5 else 12) + 1):
            families = {
                "diag": [type1_diagonal(n, params)],
                "up": [type1_up(n, k, params) for k in range(1, r + 1)],
                "down": [type1_down(n, k, params) for k in range(1, r + 1)] if r * n > 1 else [],
            }
            vectors = [v for vs in families.values() for v in vs]
            want = [repr(verify_type1(v, 1e-9)) for v in vectors]
            assert [repr(rep) for rep in verify_level(n, params, 1e-9)] == want, (alpha, beta, n)
            split |= {
                (alpha, beta, n, fam)
                for fam, vs in families.items()
                if vs and not all(v.coeffs[:, -1].any() for v in vs)
            }
    assert split >= _SPLIT_LEVELS.get(r, set())


def test_verify_shares_power_of_two_moment_rows():
    params = Params(3, 0.0, 2.0)
    _moment_row.cache_clear()
    for n in range(1, 13):
        verify_type1(type1_diagonal(n, params))
        for k in range(1, 4):
            verify_type1(type1_up(n, k, params))
            verify_type1(type1_down(n, k, params))
    # lengths 1, 2, 4, ..., 64 cover every row rows + cols - 1 <= 50
    assert _moment_row.cache_info().currsize <= 7


def test_down_vectors_near_r1_beta_corner():
    # verify --suite orthogonality at these parameters fails the same levels
    params = Params(1, 0.0, -1.0 + 1e-9)
    failed = [n for n in range(2, 6) if not verify_type1(type1_down(n, 1, params)).passed]
    assert failed == []


@pytest.mark.parametrize(
    "alpha, beta",
    [(-1.0 + 1e-11, -0.999), (-1.0 + 1e-9, -0.9), (-1.0 + 1e-12, 300.0)],
    ids=["-1+1e-11,-0.999", "-1+1e-9,-0.9", "-1+1e-12,300"],
)
def test_down_vector_near_r1_alpha_corner(alpha, beta):
    # built as the difference of two chains, the vector read a norm residual
    # of 1.2e-8 at (alpha, beta) = (-1 + 1e-11, -0.999) and 1.2e-7 at
    # (-1 + 1e-9, -0.9), and a norm value of -305.6 at (-1 + 1e-12, 300);
    # it is now the diagonal vector of level n - 1
    assert verify_type1(type1_down(2, 1, Params(1, alpha, beta))).passed


def test_r1_down_vectors_pass_near_every_corner():
    alphas = (-1 + 1e-13, -1 + 1e-12, -1 + 1e-11, -1 + 1e-9, -0.999, -0.9, -0.5, 0.0, 0.7, 2.0, 300.0)
    betas = (-1 + 1e-12, -0.999, -0.9, 0.0, 0.7, 2.0, 300.0)
    failed = [
        (a, b, n)
        for a, b, n in itertools.product(alphas, betas, range(2, 41))
        if not verify_type1(type1_down(n, 1, Params(1, a, b))).passed
    ]
    assert failed == []


def test_oracle_overflow_raises():
    # a product of the star forms overflows: it used to print numpy's
    # RuntimeWarning and read inf
    v = type1_diagonal(4, Params(2, 0.0, -0.9))
    huge = TypeIVector(v.params, v.index, np.full((2, 4), 1.7e308))
    for check in (verify_type1, partial(ray_form, 3)):
        with pytest.raises(DoubleRangeError, match="^a moment-oracle term exceeds the double range$"):
            check(huge)
