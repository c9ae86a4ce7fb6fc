import hashlib
import itertools
import math
import sys
from functools import partial

import numpy as np
import pytest

from angelesco import (
    DegenerateParameters,
    DoubleRangeError,
    Params,
    base_poly,
    diagonal_normalizer,
    down_normalizer,
    leading_coefficient,
    pochhammer,
    type1_diagonal,
    type1_down,
    type1_up,
    up_normalizer,
)
from angelesco import polynomials
from angelesco.numerics import roots_of_unity
from angelesco.polynomials import TypeIVector

GRID = (-0.5, 0.0, 0.7, 2.0)

from r2_reference import coeffs_match as _coeffs_match, mp_p_r2 as _mp_p_r2, mp_r2_pair as _mp_r2_pair  # noqa: E402


# ---------------------------------------------------------------------------
# base family
# ---------------------------------------------------------------------------


def test_base_poly_small_cases():
    p = Params(2, 0.0, 0.0)
    assert np.allclose(base_poly(0, p), [1.0])
    assert np.allclose(base_poly(1, p), [-1.0, 1.5])
    assert np.allclose(base_poly(2, p), [1.0, -3.75, 3.0])


def test_base_poly_frozen_oracle_values():
    # 50-digit evaluation of the closed form at n=3, alpha=0.7, beta=-0.5
    want = [
        -0.57402583414461479381,
        4.7755282756880635777,
        -10.21765984777414333,
        6.3036973239082439226,
    ]
    got = base_poly(3, Params(2, 0.7, -0.5))
    assert _coeffs_match(got, want, 1e-14)


@pytest.mark.parametrize("a", GRID)
@pytest.mark.parametrize("b", GRID)
def test_base_poly_matches_r2_closed_form(a, b):
    for n in range(0, 21):
        got = base_poly(n, Params(2, a, b))
        want = _mp_p_r2(n, a, b)
        assert _coeffs_match(got, want, 1e-13)


def test_leading_coefficient_examples():
    assert leading_coefficient(0, Params(2, 0.0, 0.7)) == pytest.approx(1.0)
    assert leading_coefficient(1, Params(2, 0.0, 0.0)) == pytest.approx(1.5)
    assert leading_coefficient(2, Params(2, 0.0, 0.0)) == pytest.approx(3.0)
    for n in (1, 5, 12):
        for r in (1, 3, 5):
            p = Params(r, 0.7, -0.5)
            assert leading_coefficient(n, p) == base_poly(n, p)[-1]


def test_degree_range_is_the_binomials_double_range():
    # the chains take every degree whose binomials C(N, t) are doubles: up
    # to N = 1029, where the central one is the largest and still finite
    assert polynomials._MAX_DEGREE == 1029
    assert max(math.comb(1029, t) for t in range(1030)) <= sys.float_info.max
    with pytest.raises(OverflowError):
        float(math.comb(1030, 515))
    # at r = 8 the heads stay finite to N = 1029 and the table's guard ends
    # the chain there; from N = 1030 the degree guard ends it first, on
    # every constructor's own degree
    p = Params(8, 0.0, 0.0)
    with pytest.raises(DoubleRangeError, match="^a type I coefficient leaves the double range$"):
        base_poly(1029, p)
    binomials = r"^degree 1030 exceeds the double range of the binomials C\(N, t\), N <= 1029$"
    for build in (
        lambda: base_poly(1030, p),
        lambda: type1_diagonal(1031, p),
        lambda: type1_up(1030, 1, p),
        lambda: polynomials.type1_up_stack(1030, p),
        lambda: type1_down(1031, 1, p),
        lambda: polynomials.type1_down_stack(1031, p),
    ):
        with pytest.raises(DoubleRangeError, match=binomials):
            build()
    # past the old cap of 60 the constructors build, finite
    for n in (61, 100):
        assert np.isfinite(base_poly(n, Params(2, 0.0, 0.0))).all()
        assert np.isfinite(type1_diagonal(n + 1, Params(2, 0.0, 0.0)).coeffs).all()


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
    assert np.allclose(v.coeffs, [[1.0], [1.0]])


def test_diagonal_rotation_covariance():
    for r in (2, 3, 5):
        v = type1_diagonal(4, Params(r, 0.7, -0.5))
        c = v.coeffs[0].real
        roots = roots_of_unity(r)
        for j in range(1, r + 1):
            # entry j is the base polynomial composed with x -> omega^(-(j-1)) x
            want = c * roots[(-(j - 1) * np.arange(len(c))) % r]
            assert np.allclose(v.coeffs[j - 1], want)


def test_degree_patterns():
    # r = 7 at (-0.875, -0.875) puts r(1 + alpha) + (1 + beta) at 1, where
    # the n = 1 down rows' gamma ratios hold poles of rates 1 and 7
    for r, a, b in ((1, 0.7, 2.0), (2, 0.7, 2.0), (4, 0.7, 2.0), (7, -0.875, -0.875)):
        params = Params(r, a, b)
        for n in (1, 3, 6):
            assert type1_diagonal(n, params).degrees() == [n - 1] * r
            for k in range(1, r + 1):
                up = type1_up(n, k, params)
                assert up.degrees() == up.nominal_degrees()
                dn = type1_down(n, k, params)
                assert dn.degrees() == dn.nominal_degrees()


# the structural-zero grid: at every level n, the diagonal, up and down
# vectors of each ray; ROADMAP item 1's zero vectors are the levels below,
# where X = r(1 + alpha) + (1 + beta) is an integer in decimal but not in
# doubles and a head's gamma_ratio sees a surplus denominator pole
ZERO_GRID = (-1 + 1e-12, -0.9, -0.5, 0.0, 0.7, 2.0, 40.0)
ZERO_VECTOR_LEVELS = ((3, -0.9, 0.7, "plus", 0), (5, -0.9, -0.5, "minus", 1))


def _level_vectors(n, kind, params):
    if kind == "diagonal":
        return [type1_diagonal(n, params)] if n >= 1 else []
    if kind == "minus" and n < 1:
        return []
    build = type1_up if kind == "plus" else type1_down
    return [build(n, k, params) for k in range(1, params.r + 1)]


def test_structural_zeros_are_exact():
    # every coefficient past an entry's nominal degree is an exact zero, and
    # degrees() reads the nominal degrees without a tolerance
    for a, b, r, n, kind in itertools.product(
        ZERO_GRID, ZERO_GRID, range(1, 9), (0, 1, 2, 5, 12), ("diagonal", "plus", "minus")
    ):
        for v in _level_vectors(n, kind, Params(r, a, b)):
            nominal = v.nominal_degrees()
            assert not any(c[d + 1:].any() for c, d in zip(v.coeffs, nominal)), (v, a, b)
            if (r, a, b, kind, n) not in ZERO_VECTOR_LEVELS:
                assert v.degrees() == nominal, (v, a, b)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: a near-integer X from decimal inputs makes the vector zero",
)
@pytest.mark.parametrize("r, alpha, beta, kind, n", ZERO_VECTOR_LEVELS)
def test_zero_vector_levels_read_their_nominal_degrees(r, alpha, beta, kind, n):
    for v in _level_vectors(n, kind, Params(r, alpha, beta)):
        assert v.degrees() == v.nominal_degrees()


def test_up_leading_coefficient_cancels_structurally():
    # the x^n coefficient of the non-leading combinations must sit far below
    # the coefficient scale (root-of-unity cancellation of the leading terms)
    for r in (2, 3, 5):
        params = Params(r, 0.7, -0.5)
        for n in (2, 5):
            for k in range(1, r + 1):
                v = type1_up(n, k, params)
                for j, c in enumerate(np.abs(v.coeffs), start=1):
                    if j != k:
                        assert c[n] <= 1e-10 * c.max()


def test_up_second_coefficient_nonvanishing():
    # observed across the grid: the x^(n-1) coefficient stays genuinely
    # nonzero for the off-ray entries, so their degree is exactly n-1
    for r in (2, 3):
        for a in GRID:
            for b in GRID:
                v = type1_up(3, 1, Params(r, a, b))
                for c in np.abs(v.coeffs[1:]):
                    assert c[2] > 1e-6 * c.max()


def test_down_degenerate_empty_index():
    v = type1_down(1, 1, Params(1, 0.0, 0.0))
    assert v.size == 0
    assert v.coeffs.shape == (1, 1) and v.coeffs[0, 0] == 0.0
    assert v.degrees() == [-1]


def test_coefficient_tables_are_read_only():
    params = Params(3, 0.7, -0.5)
    diag = type1_diagonal(3, params)
    for c in (base_poly(3, params), diag.coeffs[0].real):
        assert c.ndim == 1
        with pytest.raises(ValueError):
            c[0] = 5.0
    empty = type1_down(1, 1, Params(1, 0.0, 0.0))
    for v in (diag, type1_up(3, 2, params), type1_down(3, 2, params), empty):
        assert v.coeffs.ndim == 2
        with pytest.raises(ValueError):
            v.coeffs[0, 0] = 5.0
    # a table handed in is copied, so the vector never aliases it
    mine = np.ones((3, 2))
    v = TypeIVector(params, diag.index, mine)
    mine[0, 0] = 2.0
    assert v.coeffs[0, 0] == 1.0 and not v.coeffs.flags.writeable


def test_type1_vector_needs_one_row_per_ray():
    params = Params(2, 0.0, 0.0)
    for bad in ([1.0, 2.0], np.zeros((3, 2)), np.zeros((2, 2, 1))):
        with pytest.raises(ValueError):
            TypeIVector(params, (1, 1), bad)


@pytest.mark.parametrize("index", [(1,), (1, 1, 1), (), (1, -1), (-1, 0), (1, 1.0), (1, "1")])
def test_type1_vector_needs_an_index_of_r_integers_at_least_zero(index):
    with pytest.raises(ValueError, match="multi-index of 2 integers >= 0"):
        TypeIVector(Params(2, 0.0, 0.0), index, np.zeros((2, 1)))


def test_type1_vector_index_is_plain_ints():
    v = TypeIVector(Params(3, 0.0, 0.0), [np.int64(2), np.uint8(0), 1], np.zeros((3, 2)))
    assert v.index == (2, 0, 1) and all(type(m) is int for m in v.index)
    assert v.size == 3 and v.nominal_degrees() == [1, -1, 0]


def test_constructors_carry_their_multi_index():
    # (n, ..., n), with n + 1 (up) or n - 1 (down) at ray k; size is |n| and
    # the nominal degrees are n_j - 1
    for r in (1, 2, 3, 5):
        params = Params(r, 0.7, -0.5)
        for n in (1, 2, 6):
            cases = [(type1_diagonal(n, params), [n] * r)]
            for k in range(1, r + 1):
                plus, minus = [n] * r, [n] * r
                plus[k - 1] += 1
                minus[k - 1] -= 1
                cases += [(type1_up(n, k, params), plus), (type1_down(n, k, params), minus)]
            for v, index in cases:
                assert v.index == tuple(index)
                assert v.size == sum(index)
                assert v.nominal_degrees() == [m - 1 for m in index]
    empty = type1_down(1, 1, Params(1, 0.0, 0.0))
    assert empty.index == (0,) and empty.size == 0 and empty.nominal_degrees() == [-1]
    assert repr(empty) == "TypeIVector(r=1, index=(0,))"


def test_diagonal_row_zero_is_the_real_base_row():
    # row 0 of the diagonal table is the fused base row lambda p_(n-1),
    # bitwise, with zero imaginary parts
    for r, (a, b) in itertools.product((1, 2, 3, 8), ((0.7, -0.5), (-1 + 1e-12, 40.0))):
        params = Params(r, a, b)
        for n in (1, 4, 24):
            row = type1_diagonal(n, params).coeffs[0]
            base = polynomials._diagonal_base(n, params)
            assert not row.imag.any() and not row.flags.writeable
            assert row.real.tobytes() == base.tobytes()


def test_r1_up_equals_next_diagonal():
    for a, b in ((0.0, 0.0), (0.7, -0.5), (2.0, 2.0), (-0.5, 0.7)):
        params = Params(1, a, b)
        for n in (0, 1, 3, 7):
            up = type1_up(n, 1, params).coeffs[0]
            diag = type1_diagonal(n + 1, params).coeffs[0]
            assert _coeffs_match(up, diag, 1e-12)


def test_r1_down_equals_previous_diagonal_bitwise():
    # at r = 1 the index (n) - e_1 is (n - 1): the diagonal vector of that
    # level with a zero top, and the zero vector at the empty index n = 1
    for a, b in ((0.0, 0.0), (0.7, -0.5), (-1 + 1e-12, 300.0), (300.0, -0.999)):
        params = Params(1, a, b)
        assert type1_down(1, 1, params).coeffs.tobytes() == np.zeros((1, 1), complex).tobytes()
        for n in (2, 3, 7, 24, 60):
            down = type1_down(n, 1, params).coeffs
            want = np.append(type1_diagonal(n - 1, params).coeffs, [[0]], axis=1)
            assert (down.dtype, down.shape, down.tobytes()) == (
                want.dtype, want.shape, want.tobytes()
            ), (a, b, n)


def test_vectors_finite_at_degenerate_loci():
    # fused construction must survive the removable singularities
    v = type1_diagonal(1, Params(1, -0.5, -0.5))
    assert v.coeffs[0, 0] == pytest.approx(1.0 / math.pi, rel=1e-13)
    v = type1_up(0, 1, Params(1, -0.5, -0.5))
    assert v.coeffs[0, 0] == pytest.approx(1.0 / math.pi, rel=1e-13)
    # r=2 down at the pochhammer-base zero (r(n+alpha)+beta = 1)
    v = type1_down(1, 1, Params(2, -0.5, 0.0))
    m0 = math.pi / 2  # int_0^1 (1-x^2)^(-1/2) dx
    assert v.coeffs[1, 0] == pytest.approx(-1.0 / m0, rel=1e-12)


# ---------------------------------------------------------------------------
# r=2 closed-form cross-checks (orientation map: B = ray 1, A = -ray 2)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.7, -0.5), (2.0, 0.7), (-0.5, 2.0)])
def test_diagonal_matches_two_interval_form(a, b):
    for n in range(0, 11):
        va, vb = _mp_r2_pair(n, a, b, "diag")
        v = type1_diagonal(n + 1, Params(2, a, b))
        assert _coeffs_match(v.coeffs[0], vb, 1e-12)
        assert _coeffs_match((-1.0 * v.coeffs[1]), va, 1e-12)


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.7, -0.5), (2.0, 0.7), (-0.5, 2.0)])
def test_up_matches_two_interval_form(a, b):
    for n in range(0, 11):
        va, vb = _mp_r2_pair(n, a, b, "up")  # (A_{n,n+1}, B_{n,n+1})
        v = type1_up(n, 1, Params(2, a, b))
        assert _coeffs_match(v.coeffs[0], vb, 1e-12)
        assert _coeffs_match(-1.0 * v.coeffs[1], va, 1e-12)
        va2, vb2 = _mp_r2_pair(n, a, b, "down")  # (A_{n+1,n}, B_{n+1,n})
        v2 = type1_up(n, 2, Params(2, a, b))
        assert _coeffs_match(v2.coeffs[0], vb2, 1e-12)
        assert _coeffs_match(-1.0 * v2.coeffs[1], va2, 1e-12)


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.7, -0.5), (2.0, 0.7), (-0.5, 2.0)])
def test_down_matches_two_interval_form(a, b):
    # the lowered vector at level n is the two-interval pair at level n-1
    for n in range(1, 11):
        va, vb = _mp_r2_pair(n - 1, a, b, "down")  # (A_{n,n-1}, B_{n,n-1})
        v = type1_down(n, 1, Params(2, a, b))
        assert _coeffs_match(v.coeffs[0], vb, 1e-12)
        assert _coeffs_match(-1.0 * v.coeffs[1], va, 1e-12)
        va2, vb2 = _mp_r2_pair(n - 1, a, b, "up")  # (A_{n-1,n}, B_{n-1,n})
        v2 = type1_down(n, 2, Params(2, a, b))
        assert _coeffs_match(v2.coeffs[0], vb2, 1e-12)
        assert _coeffs_match(-1.0 * v2.coeffs[1], va2, 1e-12)


def test_legendre_angelesco_frozen_values():
    # r = 2, alpha = beta = 0: B_{2,2} on ray 1 and minus A_{2,2} on ray 2
    v = type1_diagonal(2, Params(2, 0.0, 0.0))
    assert np.allclose(v.coeffs[0], [-10.0, 15.0])  # (1/2)(5!/3!) (1.5x - 1)
    assert np.allclose(v.coeffs[1], [-10.0, -15.0])  # B(-x): root at -2/3


def test_normalization_constants_positive_and_consistent():
    for r in (1, 2, 4):
        for a, b in ((0.0, 0.0), (0.7, -0.5), (2.0, 2.0)):
            params = Params(r, a, b)
            for n in (1, 3, 7):
                assert diagonal_normalizer(n, params) > 0
                assert up_normalizer(n, params) > 0
                assert leading_coefficient(n, params) > 0
                if r == 1 and n == 1:
                    continue  # empty minus index: no meaningful normalizer
                assert down_normalizer(n, params) > 0
                # gamma = r nu_(n-1) (n-1)! / (rn + r alpha + beta - 1)_n
                want = (
                    r
                    * leading_coefficient(n - 1, params)
                    * math.factorial(n - 1)
                    / pochhammer(r * n + r * a + b - 1.0, n)
                )
                assert down_normalizer(n, params) == pytest.approx(want, rel=1e-11)


# ---------------------------------------------------------------------------
# per-level tables shared by every ray
# ---------------------------------------------------------------------------


def _clear_level_tables():
    polynomials._diagonal_base.cache_clear()
    polynomials._up_stack.cache_clear()
    polynomials._down_stack.cache_clear()


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
    calls = factors = 0
    real = polynomials.gamma_ratio
    real_factor = polynomials.log_gamma_factor

    def counting(nums, dens, factor=None):
        nonlocal calls
        calls += 1
        return real(nums, dens, factor)

    def counting_factor(nums, dens):
        nonlocal factors
        factors += 1
        return real_factor(nums, dens)

    _clear_level_tables()
    monkeypatch.setattr(polynomials, "gamma_ratio", counting)
    monkeypatch.setattr(polynomials, "log_gamma_factor", counting_factor)
    params = Params(r, 0.7, -0.5)
    for k in range(1, r + 1):
        type1_diagonal(n, params)  # the recurrence check builds it once per ray
        type1_up(n, k, params)
        type1_down(n, k, params)
    # the heads of one n-long diagonal chain, of the r chains (n+1 long) of
    # the up table and of the two n-long down chains, once for the level; at
    # r = 1 the down table is the diagonal row of level n - 1, one chain
    down = (
        _chain_heads(n - 2, r, 0)
        if r == 1
        else _chain_heads(n - 1, r, 1) + _chain_heads(n - 1, r, 0)
    )
    want = _chain_heads(n - 1, r, 0) + sum(_chain_heads(n, r, m) for m in range(r)) + down
    assert calls == want
    # one factor per chain: the diagonal's, the r up rows' and the down rows'
    assert factors == 1 + r + (1 if r == 1 else 2)


def _level_coeff_bytes(n, params, ks):
    out = {}
    for k in ks:
        for fam, build in (("up", type1_up), ("down", type1_down)):
            v = build(n, k, params)
            out[fam, k] = (v.coeffs.dtype.str, v.coeffs.shape, v.coeffs.tobytes())
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

    up = polynomials._up_stack(n, params)
    down = polynomials._down_stack(n, params)
    diag = polynomials._diagonal_base(n, params)
    for table in (up, down, diag):
        with pytest.raises(ValueError):
            table[0] = 1.0
    assert not np.shares_memory(type1_up(n, 1, params).coeffs, up)
    assert not np.shares_memory(type1_down(n, 1, params).coeffs, down)


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
            rows.append(combos[(j - k) % r] * phases)
    elif r == 1:
        # the diagonal row of level n - 1 and a zero top
        row = polynomials._diagonal_base(n - 1, params) if n > 1 else []
        rows.append(np.append(row, 0).astype(complex))
    else:
        t1, t2 = polynomials._down_terms(n, params)
        wk = roots[(k - 1) % r]
        t = np.arange(n)
        for j in range(1, r + 1):
            phases = roots[((-j + 1) * t) % r]
            rows.append(phases * (roots[j - 1] * t1 - wk * t2))
    return np.array(rows)


@pytest.mark.parametrize("r", range(1, 8))
@pytest.mark.parametrize("n", [1, 2, 7, 24])
def test_rows_equal_per_ray_assembly_bitwise(r, n):
    for params, k in itertools.product((Params(r, 0.7, -0.5), Params(r, -0.5, 2.0)), range(1, r + 1)):
        for family, build in (("up", type1_up), ("down", type1_down)):
            got = build(n, k, params).coeffs
            want = _reference_rows(n, k, params, family)
            assert (got.dtype, got.shape, got.tobytes()) == (
                want.dtype, want.shape, want.tobytes()
            ), (family, k)


# ---------------------------------------------------------------------------
# chain kernel: structural degree drops
# ---------------------------------------------------------------------------

# the (alpha, beta) pairs of the chain's accuracy check: the unit corner,
# the criterion grids, both exponents near -1, and large alpha or beta
CHAIN_PAIRS = ((0.0, 0.0), (0.7, -0.5), (-0.5, 2.0), (2.0, 2.0), (-0.999, -0.999),
               (-1 + 1e-13, -1 + 1e-12), (-0.9, 40.0), (300.0, 0.3), (1e7, 0.3), (0.5, 1e5))


# sha256 prefix of the bytes of every coefficient table (or the name of the
# exception its constructor raises) over r in {1, 2, 3, 5, 7, 8}, n in {0, 1,
# 2, 3, 7, 24, 60} and PINNED_PAIRS: pairs where r(1 + alpha) + (1 + beta) is
# an integer (r = 1 with alpha + beta = -1 among them, and 1 at r = 7, where
# the down rows' gamma ratios hold poles of rates 1 and 7), exponents at
# -1 + 1e-13, and 1e15 and 1e17, where the range guard and the double range
# bind
_PINNED_TABLE_DIGEST = "39ae241ff90f9521"
PINNED_PAIRS = ((0.0, 0.0), (-0.5, -0.5), (-0.5, 0.0), (0.5, 1.0), (0.7, -0.5), (-0.875, -0.875),
                (-1 + 1e-13, 0.3), (2.0, -1 + 1e-13), (-1 + 1e-13, -1 + 1e-13),
                (1e15, 0.5), (0.5, 1e15), (1e17, 0.0), (0.0, 1e17))


def _table_digest(points, ns):
    # sha256 prefix of every table built at the (r, alpha, beta) points and
    # levels ns, or of the name of the exception its constructor raises
    builds = (
        base_poly,
        leading_coefficient,
        lambda n, p: type1_diagonal(n + 1, p).coeffs,
        polynomials.type1_up_stack,
        polynomials.type1_down_stack,
    )
    h = hashlib.sha256()
    for (r, a, b), n in itertools.product(points, ns):
        for build in builds:
            try:
                out = np.asarray(build(n, Params(r, a, b)))
                h.update(f"{out.dtype.str} {out.shape} ".encode() + out.tobytes())
            except Exception as exc:
                h.update(type(exc).__name__.encode())
            h.update(b"\n")
    return h.hexdigest()[:16]


def test_coefficient_tables_are_pinned():
    points = [(r, a, b) for r in (1, 2, 3, 5, 7, 8) for a, b in PINNED_PAIRS]
    assert _table_digest(points, (0, 1, 2, 3, 7, 24, 60)) == _PINNED_TABLE_DIGEST


# the same digest at points where X = r(1 + alpha) + (1 + beta) is 1 or 2
# (in decimal only, at the two points with -0.9).  There the factors of the
# up chains at n = 0 and of the down chains at n = 1 (at r = 1 the diagonal
# row under the down stack at n = 2) hold poles, which gamma_ratio cancels
# or pairs with the heads' own
_PINNED_POLE_DIGEST = "01755a7e36ae700f"
POLE_POINTS = ((2, -0.9, -0.2), (3, -0.5, -0.5), (5, -0.9, -0.5), (7, -0.875, 0.125),
               (8, -0.9375, 0.5), (1, -0.5, -0.5))


def test_pole_factor_tables_are_pinned(monkeypatch):
    poles = 0
    real = polynomials.log_gamma_factor

    def counting(nums, dens):
        nonlocal poles
        factor = real(nums, dens)
        poles += bool(factor.num_poles or factor.den_poles)
        return factor

    _clear_level_tables()
    monkeypatch.setattr(polynomials, "log_gamma_factor", counting)
    assert _table_digest(POLE_POINTS, (0, 1, 2, 3, 7, 24)) == _PINNED_POLE_DIGEST
    assert poles > 0


@pytest.mark.parametrize("r", [1, 2, 3, 5, 8])
def test_chain_keeps_degree_drops_exact(monkeypatch, r):
    # A_l for l != 0 has no x^n term: the r chains of the up table end in
    # bitwise-equal heads, so their root-of-unity sum is exactly 0.  On ray k
    # of a down vector the leading terms of the two rows cancel: their heads
    # take the same arguments, so they are equal.
    tables = []
    real = polynomials._table
    monkeypatch.setattr(polynomials, "_table", lambda rows, r: tables.append(rows) or real(rows, r))
    for (a, b), n in itertools.product(CHAIN_PAIRS, range(1, 60)):
        params = Params(r, a, b)
        try:
            tables.clear()
            combos = polynomials._up_combos(n, params)
            assert len({row[n] for row in tables[0]}) == 1, (a, b, n)
            assert not combos[1:, n].any(), (a, b, n)
            if r == 1 and n == 1:
                continue  # the empty minus index
            t1, t2 = polynomials._down_terms(n, params)
            assert t1[n - 1] == t2[n - 1], (a, b, n)
        except DoubleRangeError:
            assert max(a, b) >= 1e5 and n >= 25  # the level leaves the double range
