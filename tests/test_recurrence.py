import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angelesco import (
    DoubleRangeError,
    Params,
    coeff_a,
    coeff_b,
    limit_a,
    limit_b,
    recurrence_residual,
    recurrence_residuals,
    type1_diagonal,
    type1_down,
    type1_up,
)
from angelesco import polynomials, recurrence
from angelesco.numerics import roots_of_unity
from angelesco.poly import identity_residual, padded_coeffs

from r2_reference import r2_recurrence_a, r2_recurrence_c


def test_frozen_values_r2():
    p = Params(2, 0.0, 0.0)
    assert coeff_a(1, p) == pytest.approx(1.0 / 12.0, rel=1e-14)
    assert coeff_b(1, p) == pytest.approx(0.5, rel=1e-14)


def test_diag_profile_closed_form_alpha_beta_zero():
    # a(n) = 2n^3/((3n+1) 3n (3n-1)) at alpha = beta = 0, r = 2
    p = Params(2, 0.0, 0.0)
    for n in range(1, 20):
        want = 2.0 * n**3 / ((3 * n + 1) * 3 * n * (3 * n - 1))
        assert coeff_a(n, p) == pytest.approx(want, rel=1e-13)


def test_limits():
    assert limit_a(2) == pytest.approx(2.0 / 27.0)
    assert limit_b(2) == pytest.approx(2.0 / 3.0**1.5)


def test_two_interval_translation_r2():
    # the two-interval coefficient set maps onto the star profiles:
    # a_{n,n} = coeff_a, c_{n-1,n} = coeff_b (d = -c via the omega phase)
    for a, b in ((0.0, 0.0), (0.7, -0.5), (2.0, 2.0)):
        p = Params(2, a, b)
        for n in range(1, 51):
            assert r2_recurrence_a(n, a, b) == pytest.approx(
                coeff_a(n, p), rel=1e-12
            )
        for n in range(1, 11):
            assert abs(r2_recurrence_c(n, a, b)) == pytest.approx(
                abs(coeff_b(n, p) * roots_of_unity(2)[0]), rel=1e-12
            )
            assert r2_recurrence_c(n, a, b) == pytest.approx(
                coeff_b(n, p), rel=1e-12
            )


def test_limit_approach_monotone():
    for r in (2, 3, 4, 5):
        for a, b in ((0.0, 0.0), (0.5, 0.5), (0.0, 0.5), (0.5, 0.0)):
            p = Params(r, a, b)
            la = limit_a(r)
            d50 = abs(coeff_a(50, p) - la)
            d200 = abs(coeff_a(200, p) - la)
            assert d200 < d50
            assert d200 <= 0.02 * la
            lb = limit_b(r)
            e50 = abs(coeff_b(50, p) - lb)
            e200 = abs(coeff_b(200, p) - lb)
            assert e200 < e50
            assert e200 <= 0.02 * lb


def test_residual_small_r2():
    p = Params(2, 0.0, 0.0)
    for n in range(1, 7):
        for k in (1, 2):
            assert recurrence_residual(n, k, p) <= 1e-9


def test_residual_small_r3():
    p = Params(3, 0.5, -0.25)
    for n in range(1, 5):
        for k in (1, 2, 3):
            assert recurrence_residual(n, k, p) <= 1e-9


def test_residual_sensitive_to_coefficient():
    import angelesco.recurrence as rec

    p = Params(2, 0.0, 0.0)
    clean = recurrence_residual(3, 1, p)
    orig = rec.coeff_a
    try:
        rec.coeff_a = lambda n, params: orig(n, params) * 1.01
        dirty = recurrence_residual(3, 1, p)
    finally:
        rec.coeff_a = orig
    assert dirty >= 1e3 * max(clean, 1e-300)


@pytest.mark.parametrize("r", [2, 3, 5])
def test_nan_profile_fails_every_ray(monkeypatch, r):
    # a NaN term reads NaN on its ray instead of dropping out of the maximum
    monkeypatch.setattr(recurrence, "coeff_a", lambda n, params: float("nan"))
    got = recurrence_residuals(3, Params(r, 0.0, 0.0))
    assert len(got) == r and all(x != x for x in got)


def test_term_outside_the_double_range_raises(monkeypatch):
    monkeypatch.setattr(recurrence, "coeff_a", lambda n, params: 1e308)
    with pytest.raises(DoubleRangeError, match="^an identity term exceeds the double range$"):
        recurrence_residuals(3, Params(3, 0.7, -0.5))


@pytest.mark.parametrize("n", [12, 30, 59])
@pytest.mark.parametrize("name", ["coeff_a", "coeff_b"])
def test_residual_sensitive_at_high_degree(n, name):
    # a 1e-8 relative change in either profile must show far above the
    # clean residual, at degrees where a sampled check loses its precision
    import angelesco.recurrence as rec

    p = Params(3, 0.7, -0.5)
    assert max(recurrence_residual(n, k, p) for k in (1, 2, 3)) <= 1e-12
    orig = getattr(rec, name)
    try:
        setattr(rec, name, lambda n, params: orig(n, params) * (1 + 1e-8))
        dirty = recurrence_residual(n, 2, p)
    finally:
        setattr(rec, name, orig)
    assert dirty > 1e-9


def test_ray_symmetry_of_residual():
    # moving from ray k to ray k+1 multiplies every coefficient by a unit
    # phase (the omega-power structure of the coefficients), which leaves
    # the coefficientwise residual unchanged
    for r in (3, 4, 5):
        p = Params(r, 0.7, -0.5)
        for n in (2, 7, 20):
            res = [recurrence_residual(n, k, p) for k in range(1, r + 1)]
            for k in range(r - 1):
                assert abs(res[k] - res[k + 1]) <= 1e-12


def test_declines_r1():
    with pytest.raises(ValueError):
        coeff_b(3, Params(1, 0.0, 0.0))
    with pytest.raises(ValueError):
        recurrence_residual(2, 1, Params(1, 0.0, 0.0))


def _logged(fn, name, log):
    def wrapped(*args, **kwargs):
        log.append(name)
        return fn(*args, **kwargs)

    return wrapped


@pytest.mark.parametrize("r", [2, 3, 5])
def test_level_residuals_build_each_vector_once(monkeypatch, r):
    # one level reads the diagonal vector and the up and down stacks once
    # each, and copies no per-ray vector
    params = Params(r, 0.7, -0.5)
    for n in (1, 4, 9):
        want = [recurrence_residual(n, k, params) for k in range(1, r + 1)]
        built = []
        for name in ("type1_diagonal", "type1_up_stack", "type1_down_stack"):
            monkeypatch.setattr(recurrence, name, _logged(getattr(recurrence, name), name, built))
        vector = polynomials.TypeIVector
        monkeypatch.setattr(polynomials, "TypeIVector", _logged(vector, "TypeIVector", built))
        got = recurrence_residuals(n, params)
        monkeypatch.undo()
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert built == ["type1_diagonal", "TypeIVector", "type1_up_stack", "type1_down_stack"]


def test_guards_keep_the_constructors_messages():
    p = Params(3, 0.7, -0.5)
    for k in (0, 4):
        with pytest.raises(ValueError, match=r"^ray k must be in 1\.\.3$"):
            recurrence_residual(3, k, p)
    with pytest.raises(DoubleRangeError, match="^degree 2000 exceeds the double range of the "):
        recurrence_residuals(2001, p)
    with pytest.raises(DoubleRangeError, match="absorbs 1"):
        recurrence_residuals(2, Params(3, 1e300, 0.0))


def _reference_residuals(n, params):
    # the recurrence check one ray k and one entry j at a time: every term
    # padded on its own, summed by identity_residual, worst over entries
    r = params.r
    cur = type1_diagonal(n, params)
    ups = [type1_up(n, l, params) for l in range(1, r + 1)]
    a_n, b_n = coeff_a(n, params), coeff_b(n, params)
    roots = roots_of_unity(r)
    al = [a_n * roots[(2 * l) % r] for l in range(r)]
    size = n + 2
    out = []
    for k in range(1, r + 1):
        dn = type1_down(n, k, params)
        bk = b_n * roots[(k - 1) % r]
        worst = 0.0
        for j in range(r):
            cj = cur.coeffs[j]
            terms = [
                padded_coeffs(cj, size, 1),
                -padded_coeffs(dn.coeffs[j], size),
                -bk * padded_coeffs(cj, size),
            ]
            terms.extend(-al[l] * padded_coeffs(ups[l].coeffs[j], size) for l in range(r))
            worst = max(worst, identity_residual(terms).max())
        out.append(worst)
    return out


# the corners of the exponent domain: near -1 (gamma arguments formed by
# cancellation), large alpha, large beta, and both large
_CORNERS = [
    (0.0, 0.0),
    (0.7, -0.5),
    (2.0, 2.0),
    (-0.5, 2.0),
    (-0.999, -0.999),
    (-1 + 1e-11, -0.999),
    (300.0, 0.3),
    (-0.9, 40.0),
    (300.0, 40.0),
    (1e3, 2.0),
]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(r=st.integers(2, 8), n=st.integers(1, 24), pair=st.sampled_from(_CORNERS))
def test_level_kernel_matches_per_ray_reference(r, n, pair):
    params = Params(r, *pair)
    got = recurrence_residuals(n, params)
    want = _reference_residuals(n, params)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert [recurrence_residual(n, k, params).hex() for k in range(1, r + 1)] == [
        x.hex() for x in want
    ]


# sha256 prefix of the repr of each level's residual list (or the name of
# the exception it raises) over r in {2, 3, 4, 5, 6, 8, 12, 16}, the corner
# pairs and alpha = 1e300, and n = 0..24, 30, 45, 60
_PINNED_RECURRENCE_DIGEST = "529b51e4689f9e1f"


def test_recurrence_residuals_are_pinned():
    def outcome(n, params):
        try:
            return repr(recurrence_residuals(n, params))
        except Exception as exc:
            return type(exc).__name__

    h = hashlib.sha256()
    for r in (2, 3, 4, 5, 6, 8, 12, 16):
        for a, b in _CORNERS + [(1e300, 0.0)]:
            params = Params(r, a, b)
            for n in [*range(25), 30, 45, 60]:
                h.update(f"{r} {a!r} {b!r} {n} {outcome(n, params)}\n".encode())
    assert h.hexdigest()[:16] == _PINNED_RECURRENCE_DIGEST
