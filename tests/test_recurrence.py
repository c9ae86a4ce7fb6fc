import pytest

from angelesco import (
    Params,
    coeff_a,
    coeff_b,
    limit_a,
    limit_b,
    recurrence_residual,
    recurrence_residuals,
)
from angelesco import recurrence
from angelesco.numerics import roots_of_unity

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
    def wrapped(*args):
        log.append(name)
        return fn(*args)

    return wrapped


@pytest.mark.parametrize("r", [2, 3, 5])
def test_level_residuals_build_each_vector_once(monkeypatch, r):
    params = Params(r, 0.7, -0.5)
    for n in (1, 4, 9):
        want = [recurrence_residual(n, k, params) for k in range(1, r + 1)]
        built = []
        for name in ("type1_diagonal", "type1_up", "type1_down"):
            monkeypatch.setattr(recurrence, name, _logged(getattr(recurrence, name), name, built))
        got = recurrence_residuals(n, params)
        monkeypatch.undo()
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert sorted(built) == sorted(["type1_diagonal"] + ["type1_up", "type1_down"] * r)
