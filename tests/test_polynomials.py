import itertools
import math
from functools import partial

import numpy as np
import pytest

from angelesco import (
    DEGREE_CAP,
    DegenerateParameters,
    DegreeCapError,
    DoubleRangeError,
    Params,
    base_poly,
    diagonal_normalizer,
    down_normalizer,
    leading_coefficient,
    normalization_constants,
    pochhammer,
    type1_diagonal,
    type1_down,
    type1_up,
    up_normalizer,
)
from angelesco import polynomials
from angelesco.numerics import roots_of_unity
from angelesco.poly import Poly

GRID = (-0.5, 0.0, 0.7, 2.0)

from r2_reference import coeffs_match as _coeffs_match, mp_p_r2 as _mp_p_r2, mp_r2_pair as _mp_r2_pair  # noqa: E402


# ---------------------------------------------------------------------------
# base family
# ---------------------------------------------------------------------------


def test_base_poly_small_cases():
    p = Params(2, 0.0, 0.0)
    assert np.allclose(base_poly(0, p).coeffs, [1.0])
    assert np.allclose(base_poly(1, p).coeffs, [-1.0, 1.5])
    assert np.allclose(base_poly(2, p).coeffs, [1.0, -3.75, 3.0])


def test_base_poly_frozen_oracle_values():
    # 50-digit evaluation of the closed form at n=3, alpha=0.7, beta=-0.5
    want = [
        -0.57402583414461479381,
        4.7755282756880635777,
        -10.21765984777414333,
        6.3036973239082439226,
    ]
    got = base_poly(3, Params(2, 0.7, -0.5)).coeffs
    assert _coeffs_match(got, want, 1e-14)


@pytest.mark.parametrize("a", GRID)
@pytest.mark.parametrize("b", GRID)
def test_base_poly_matches_r2_closed_form(a, b):
    for n in range(0, 21):
        got = base_poly(n, Params(2, a, b)).coeffs
        want = _mp_p_r2(n, a, b)
        assert _coeffs_match(got, want, 1e-13)


def test_leading_coefficient_examples():
    assert leading_coefficient(0, Params(2, 0.0, 0.7)) == pytest.approx(1.0)
    assert leading_coefficient(1, Params(2, 0.0, 0.0)) == pytest.approx(1.5)
    assert leading_coefficient(2, Params(2, 0.0, 0.0)) == pytest.approx(3.0)
    for n in (1, 5, 12):
        for r in (1, 3, 5):
            p = Params(r, 0.7, -0.5)
            assert leading_coefficient(n, p) == base_poly(n, p).coeffs[-1]


def test_degree_cap_enforced():
    with pytest.raises(DegreeCapError):
        base_poly(DEGREE_CAP + 1, Params(2, 0.0, 0.0))
    with pytest.raises(DegreeCapError):
        type1_diagonal(DEGREE_CAP + 2, Params(2, 0.0, 0.0))


@pytest.mark.parametrize("r", [1, 2, 3, 8])
@pytest.mark.parametrize(
    "alpha, beta",
    [(1e300, -1.0 + 1e-12), (1e300, 0.0), (-1.0 + 1e-12, 1e300), (0.0, 1e300), (1e300, 1e300)],
)
def test_constructors_raise_where_offsets_vanish(r, alpha, beta):
    # r(1 + alpha) + (1 + beta) or beta absorbs the integers that every gamma
    # argument adds to it, so the closed form cannot be evaluated in doubles
    params = Params(r, alpha, beta)
    for n in (1, 2, 5):
        builds = [base_poly, leading_coefficient, type1_diagonal]
        builds += [partial(type1_up, k=k) for k in (1, r)]
        if r * n > 1:  # r = 1, n = 1 is the empty index's zero vector
            builds += [partial(type1_down, k=k) for k in (1, r)]
        for build in builds:
            with pytest.raises(DoubleRangeError):
                build(n, params=params)


@pytest.mark.parametrize(
    "r, alpha, beta", [(1, 1e300, 0.0), (2, 1e17, 0.0), (3, 0.5, 1e300), (2, 1e16, 3.0)]
)
def test_normalizers_raise_where_offsets_vanish(r, alpha, beta):
    # the normalizers' gamma arguments add integers to r alpha + beta and to
    # beta as well, so they take the constructors' guard; unguarded they
    # return finite wrong values (0.5 for the diagonal at (2, 1e17, 0), where
    # the closed form is about 2e34)
    params = Params(r, alpha, beta)
    for normalizer in (diagonal_normalizer, up_normalizer, down_normalizer):
        with pytest.raises(DoubleRangeError):
            normalizer(2, params)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Params(2, -1.0, 0.0)
    with pytest.raises(ValueError):
        Params(2, 0.0, -1.5)


def test_public_base_poly_degenerate_point_raises():
    # r=1 with alpha+beta = -1: the raw kernel polynomial itself is singular
    # (the type I vectors remain finite through fused normalizers)
    with pytest.raises(DegenerateParameters):
        base_poly(0, Params(1, -0.5, -0.5))


# ---------------------------------------------------------------------------
# type I vectors
# ---------------------------------------------------------------------------


def test_diagonal_level_one_r2():
    v = type1_diagonal(1, Params(2, 0.0, 0.0))
    assert np.allclose(v.polys[0].coeffs, [1.0])
    assert np.allclose(v.polys[1].coeffs, [1.0])


def test_diagonal_rotation_covariance():
    for r in (2, 3, 5):
        v = type1_diagonal(4, Params(r, 0.7, -0.5))
        c = v.base.coeffs
        roots = roots_of_unity(r)
        for j in range(1, r + 1):
            # entry j is the base polynomial composed with x -> omega^(-(j-1)) x
            want = c * roots[(-(j - 1) * np.arange(len(c))) % r]
            assert np.allclose(v.polys[j - 1].coeffs, want)


def test_degree_patterns():
    for r in (1, 2, 4):
        params = Params(r, 0.7, 2.0)
        for n in (1, 3, 6):
            assert type1_diagonal(n, params).degrees() == [n - 1] * r
            for k in range(1, r + 1):
                up = type1_up(n, k, params)
                assert up.degrees() == up.nominal_degrees()
                dn = type1_down(n, k, params)
                assert dn.degrees() == dn.nominal_degrees()


def test_up_leading_coefficient_cancels_structurally():
    # the x^n coefficient of the non-leading combinations must sit far below
    # the coefficient scale (root-of-unity cancellation of the leading terms)
    for r in (2, 3, 5):
        params = Params(r, 0.7, -0.5)
        for n in (2, 5):
            for k in range(1, r + 1):
                v = type1_up(n, k, params)
                for j, p in enumerate(v.polys, start=1):
                    if j == k:
                        continue
                    c = np.abs(np.asarray(p.coeffs, dtype=complex))
                    if len(c) > n:
                        assert c[n] <= 1e-10 * c.max()


def test_up_second_coefficient_nonvanishing():
    # observed across the grid: the x^(n-1) coefficient stays genuinely
    # nonzero for the off-ray entries, so their degree is exactly n-1
    for r in (2, 3):
        for a in GRID:
            for b in GRID:
                v = type1_up(3, 1, Params(r, a, b))
                for j, p in enumerate(v.polys, start=1):
                    if j == 1:
                        continue
                    c = np.abs(np.asarray(p.coeffs, dtype=complex))
                    assert c[2] > 1e-6 * c.max()


def test_down_degenerate_empty_index():
    v = type1_down(1, 1, Params(1, 0.0, 0.0))
    assert v.size == 0
    assert v.polys[0].is_zero


def test_r1_up_equals_next_diagonal():
    for a, b in ((0.0, 0.0), (0.7, -0.5), (2.0, 2.0), (-0.5, 0.7)):
        params = Params(1, a, b)
        for n in (0, 1, 3, 7):
            up = type1_up(n, 1, params).polys[0].coeffs
            diag = type1_diagonal(n + 1, params).polys[0].coeffs
            assert _coeffs_match(up, diag, 1e-12)


def test_vectors_finite_at_degenerate_loci():
    # fused construction must survive the removable singularities
    v = type1_diagonal(1, Params(1, -0.5, -0.5))
    assert v.polys[0].coeffs[0] == pytest.approx(1.0 / math.pi, rel=1e-13)
    v = type1_up(0, 1, Params(1, -0.5, -0.5))
    assert v.polys[0].coeffs[0] == pytest.approx(1.0 / math.pi, rel=1e-13)
    # r=2 down at the pochhammer-base zero (r(n+alpha)+beta = 1)
    v = type1_down(1, 1, Params(2, -0.5, 0.0))
    m0 = math.pi / 2  # int_0^1 (1-x^2)^(-1/2) dx
    assert v.polys[1].coeffs[0] == pytest.approx(-1.0 / m0, rel=1e-12)


# ---------------------------------------------------------------------------
# r=2 closed-form cross-checks (orientation map: B = ray 1, A = -ray 2)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.7, -0.5), (2.0, 0.7), (-0.5, 2.0)])
def test_diagonal_matches_two_interval_form(a, b):
    for n in range(0, 11):
        va, vb = _mp_r2_pair(n, a, b, "diag")
        v = type1_diagonal(n + 1, Params(2, a, b))
        assert _coeffs_match(v.polys[0].coeffs, vb, 1e-12)
        assert _coeffs_match((-1.0 * v.polys[1].coeffs), va, 1e-12)


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.7, -0.5), (2.0, 0.7), (-0.5, 2.0)])
def test_up_matches_two_interval_form(a, b):
    for n in range(0, 11):
        va, vb = _mp_r2_pair(n, a, b, "up")  # (A_{n,n+1}, B_{n,n+1})
        v = type1_up(n, 1, Params(2, a, b))
        assert _coeffs_match(v.polys[0].coeffs, vb, 1e-12)
        assert _coeffs_match(-1.0 * v.polys[1].coeffs, va, 1e-12)
        va2, vb2 = _mp_r2_pair(n, a, b, "down")  # (A_{n+1,n}, B_{n+1,n})
        v2 = type1_up(n, 2, Params(2, a, b))
        assert _coeffs_match(v2.polys[0].coeffs, vb2, 1e-12)
        assert _coeffs_match(-1.0 * v2.polys[1].coeffs, va2, 1e-12)


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.7, -0.5), (2.0, 0.7), (-0.5, 2.0)])
def test_down_matches_two_interval_form(a, b):
    # the lowered vector at level n is the two-interval pair at level n-1
    for n in range(1, 11):
        va, vb = _mp_r2_pair(n - 1, a, b, "down")  # (A_{n,n-1}, B_{n,n-1})
        v = type1_down(n, 1, Params(2, a, b))
        assert _coeffs_match(v.polys[0].coeffs, vb, 1e-12)
        assert _coeffs_match(-1.0 * v.polys[1].coeffs, va, 1e-12)
        va2, vb2 = _mp_r2_pair(n - 1, a, b, "up")  # (A_{n-1,n}, B_{n-1,n})
        v2 = type1_down(n, 2, Params(2, a, b))
        assert _coeffs_match(v2.polys[0].coeffs, vb2, 1e-12)
        assert _coeffs_match(-1.0 * v2.polys[1].coeffs, va2, 1e-12)


def test_legendre_angelesco_frozen_values():
    # r = 2, alpha = beta = 0: B_{2,2} on ray 1 and minus A_{2,2} on ray 2
    v = type1_diagonal(2, Params(2, 0.0, 0.0))
    assert np.allclose(v.polys[0].coeffs, [-10.0, 15.0])  # (1/2)(5!/3!) (1.5x - 1)
    assert np.allclose(v.polys[1].coeffs, [-10.0, -15.0])  # B(-x): root at -2/3


def test_normalization_constants_positive_and_consistent():
    for r in (1, 2, 4):
        for a, b in ((0.0, 0.0), (0.7, -0.5), (2.0, 2.0)):
            params = Params(r, a, b)
            for n in (1, 3, 7):
                c = normalization_constants(n, params)
                assert c.lambda_diag > 0
                assert c.tau_up > 0
                assert c.nu_leading > 0
                if r == 1 and n == 1:
                    continue  # empty minus index: no meaningful normalizer
                assert c.gamma_down > 0
                # gamma = r nu_(n-1) (n-1)! / (rn + r alpha + beta - 1)_n
                want = (
                    r
                    * leading_coefficient(n - 1, params)
                    * math.factorial(n - 1)
                    / pochhammer(r * n + r * a + b - 1.0, n)
                )
                assert down_normalizer(n, params) == pytest.approx(want, rel=1e-11)
                assert up_normalizer(n, params) > 0
                assert diagonal_normalizer(n, params) > 0


# ---------------------------------------------------------------------------
# per-level tables shared by every ray
# ---------------------------------------------------------------------------


def _clear_level_tables():
    polynomials._diagonal_base.cache_clear()
    polynomials._up_combos.cache_clear()
    polynomials._down_terms.cache_clear()


def _chain_heads(N, r, d):
    # entries of a chain that gamma_ratio computes, from the top down: the top
    # r entries, and every t whose step to t + r has a factor with a negative
    # integer part (beta - d + t + r <= 0 or r(N + alpha + 1) + beta - d + t
    # <= 0 at their smallest)
    return sum(
        1 for t in range(N + 1) if t > N - r or t + r - d <= 0 or r * N - 1 - d + t < 0
    )


@pytest.mark.parametrize("r", [1, 3, 5])
@pytest.mark.parametrize("n", [2, 7])
def test_level_tables_built_once_per_level(monkeypatch, r, n):
    calls = 0
    real = polynomials.gamma_ratio

    def counting(nums, dens):
        nonlocal calls
        calls += 1
        return real(nums, dens)

    _clear_level_tables()
    monkeypatch.setattr(polynomials, "gamma_ratio", counting)
    params = Params(r, 0.7, -0.5)
    for k in range(1, r + 1):
        type1_diagonal(n, params)  # the recurrence check builds it once per ray
        type1_up(n, k, params)
        type1_down(n, k, params)
    # the heads of one n-long diagonal chain, of the r chains (n+1 long) of
    # the up table and of the two n-long down chains, once for the level
    want = (
        _chain_heads(n - 1, r, 0)
        + sum(_chain_heads(n, r, m) for m in range(r))
        + _chain_heads(n - 1, r, 1)
        + _chain_heads(n - 1, r, 0)
    )
    assert calls == want


def _level_coeff_bytes(n, params, ks):
    out = {}
    for k in ks:
        for fam, build in (("up", type1_up), ("down", type1_down)):
            v = build(n, k, params)
            out[fam, k] = [(p.coeffs.dtype.str, p.coeffs.tobytes()) for p in v.polys]
    return out


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_level_tables_are_shared_safely(r):
    params = Params(r, -0.5, 2.0)
    n = 6
    _clear_level_tables()
    forward = _level_coeff_bytes(n, params, range(1, r + 1))
    _clear_level_tables()
    backward = _level_coeff_bytes(n, params, range(r, 0, -1))
    assert forward == backward

    combos = polynomials._up_combos(n, params)
    t1, t2 = polynomials._down_terms(n, params)
    diag = polynomials._diagonal_base(n, params).coeffs
    for table in (combos, t1, t2, diag):
        with pytest.raises(ValueError):
            table[0] = 1.0
    assert not np.shares_memory(type1_up(n, 1, params).polys[0].coeffs, combos)


def _reference_rows(n, k, params, family):
    # the per-ray loops the one-product assembly replaced
    r = params.r
    roots = roots_of_unity(r)
    rows = []
    if family == "up":
        combos = polynomials._up_combos(n, params)
        t = np.arange(n + 1)
        for j in range(1, r + 1):
            phases = roots[((-j + 1) * t + (-k + 1)) % r]
            rows.append(Poly(combos[(j - k) % r] * phases))
    else:
        t1, t2 = polynomials._down_terms(n, params)
        wk = roots[(k - 1) % r]
        t = np.arange(n)
        for j in range(1, r + 1):
            phases = roots[((-j + 1) * t) % r]
            rows.append(Poly(phases * (roots[j - 1] * t1 - wk * t2)))
    return rows


@pytest.mark.parametrize("r", range(1, 8))
@pytest.mark.parametrize("n", [1, 2, 7, 24])
def test_rows_equal_per_ray_assembly_bitwise(r, n):
    for params, k in itertools.product((Params(r, 0.7, -0.5), Params(r, -0.5, 2.0)), range(1, r + 1)):
        for family, build in (("up", type1_up), ("down", type1_down)):
            if family == "down" and r == 1 and n == 1:
                continue  # the empty multi-index
            got = build(n, k, params).polys
            want = _reference_rows(n, k, params, family)
            assert [(p.coeffs.dtype.str, p.coeffs.tobytes()) for p in got] == [
                (p.coeffs.dtype.str, p.coeffs.tobytes()) for p in want
            ], (family, k)


# ---------------------------------------------------------------------------
# chain kernel: structural degree drops
# ---------------------------------------------------------------------------

# the (alpha, beta) pairs of the chain's accuracy check: the unit corner,
# the criterion grids, both exponents near -1, and large alpha or beta
CHAIN_PAIRS = ((0.0, 0.0), (0.7, -0.5), (-0.5, 2.0), (2.0, 2.0),
               (-0.999, -0.999), (-0.9, 40.0), (300.0, 0.3))


@pytest.mark.parametrize("r", [1, 2, 3, 5, 8])
def test_chain_keeps_degree_drops_exact(r):
    # A_l for l != 0 has no x^n term: its table entry is a root-of-unity sum
    # of r equal heads.  On ray k of a down vector the leading terms of the
    # two rows cancel.
    for (a, b), n in itertools.product(CHAIN_PAIRS, range(1, 60)):
        params = Params(r, a, b)
        combos = polynomials._up_combos(n, params)
        assert np.all(np.abs(combos[1:, n]) <= 1e-15 * abs(combos[0, n])), (a, b, n)
        if r == 1 and n == 1:
            continue  # the empty minus index
        t1, t2 = polynomials._down_terms(n, params)
        assert abs(t1[n - 1] - t2[n - 1]) <= 1e-13 * abs(t1[n - 1]), (a, b, n)
