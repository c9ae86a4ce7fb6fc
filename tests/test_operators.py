import math

import numpy as np
import pytest

from angelesco import (
    DoubleRangeError,
    Params,
    base_poly,
    lowering_check,
    ode_coeffs,
    ode_residual,
    raising_check,
    raising_coeffs,
)
from angelesco.cli import main
from angelesco.operators import _derivative, _x_one_minus_xr

GRID_AB = ((0.0, 0.0), (0.7, -0.5), (2.0, 2.0), (-0.5, 0.7))


def test_exact_derivative():
    assert _derivative(np.array([3.0])).size == 0
    assert _derivative(np.array([1.0, -3.75, 3.0])).tolist() == [-3.75, 6.0]


def test_ode_top_factor():
    # x(1 - x^3) times c(x) = 2 - x, padded to length 6
    got = _x_one_minus_xr(np.array([2.0, -1.0]), 3, 6)
    assert got.tolist() == [0.0, 2.0, -1.0, 0.0, -2.0, 1.0]


def test_lowering_hand_case():
    # d/dx (3x^2 - 3.75x + 1) = 6x - 3.75 = 2 * (3x - 1.875)
    p = Params(2, 0.0, 0.0)
    c = base_poly(2, p)
    assert np.allclose(c[1:] * [1, 2], [-3.75, 6.0])
    t = base_poly(1, Params(2, 1.0, 1.0))
    assert np.allclose(t, [-1.875, 3.0])
    assert lowering_check(2, p) <= 1e-13


def test_lowering_exact_across_grid():
    for r in (1, 2, 3, 5):
        for a, b in GRID_AB:
            for n in range(1, 21):
                assert lowering_check(n, Params(r, a, b)) <= 1e-13


def test_lowering_chain_consistency():
    # p_n^(r) = n!/(n-r)! p_(n-r)(alpha+r, beta+r)
    for r in (2, 3):
        for a, b in ((0.0, 0.0), (0.7, -0.5)):
            params = Params(r, a, b)
            for n in range(r, 15):
                d = base_poly(n, params)
                for _ in range(r):
                    d = d[1:] * np.arange(1, len(d))
                t = base_poly(n - r, Params(r, a + r, b + r)) * (
                    math.factorial(n) / math.factorial(n - r)
                )
                scale = max(np.abs(t).max(), 1e-300)
                diff = np.zeros(max(len(d), len(t)))
                diff[: len(d)] += d
                diff[: len(t)] -= t
                assert np.abs(diff).max() / scale <= 1e-13


def test_raising_examples():
    assert raising_check(1, Params(2, 2.5, 2.5)) <= 1e-11
    assert raising_check(0, Params(3, 2.25, 2.25)) <= 1e-11
    for r in (2, 3, 4):
        for n in range(0, 8):
            assert raising_check(n, Params(r, r - 0.5, r + 1.3)) <= 1e-11


def test_identities_hold_at_large_alpha():
    # p_n and the polynomials of its other side take their chain heads at
    # the same positions, with the same large gamma arguments, so the heads'
    # rounding cancels in each identity
    for r in (1, 2, 3, 5, 8):
        for n in range(1, 61):
            assert lowering_check(n, Params(r, 300.0, 40.0)) <= 1e-13, (r, n)
            assert ode_residual(ode_coeffs(n, Params(r, 1e3, 2.0))) <= 1e-13, (r, n)
    for n in range(1, 41):
        assert raising_check(n, Params(8, 7.5, 9.3)) <= 1e-11, n
    argv = "verify --suite raising --r 8 --alpha 7.5 --beta 9.3 --n-max 40 --tol 1e-11"
    assert main(argv.split()) == 0


def test_raising_coefficient_values():
    # a_k = (-1)^k [C(r,k)(r alpha + beta) + C(r+1,k+1) k n]
    a1, a2 = raising_coeffs(1, Params(2, 2.5, 2.5))
    assert a1 == pytest.approx(-(2 * (2 * 2.5 + 2.5) + 3 * 1))  # -(3n+4a+2b)
    assert a2 == pytest.approx(2 * 2.5 + 2.5 + 2 * 1)  # 2n+2a+b


def test_raising_domain_guard():
    with pytest.raises(ValueError):
        raising_check(2, Params(2, 0.5, 2.5))
    with pytest.raises(ValueError):
        raising_check(2, Params(3, 2.5, 1.0))


def test_ode_coeffs_r2_closed_form():
    # third-order equation: c2 = -(2a+b+6), c1 = (n-1)(3n+4a+2b+6),
    # c0 = -n(n-1)(2n+2a+b+2)
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = float(rng.uniform(-0.9, 3.0))
        b = float(rng.uniform(-0.9, 3.0))
        n = int(rng.integers(0, 18))
        spec = ode_coeffs(n, Params(2, a, b))
        assert spec.c[2] == pytest.approx(-(2 * a + b + 6), rel=1e-12, abs=1e-12)
        assert spec.c[1] == pytest.approx(
            (n - 1) * (3 * n + 4 * a + 2 * b + 6), rel=1e-12, abs=1e-12
        )
        assert spec.c[0] == pytest.approx(
            -n * (n - 1) * (2 * n + 2 * a + b + 2), rel=1e-12, abs=1e-12
        )


def test_ode_coeffs_connect_to_raising():
    # c_k = -a_(r-k, n-r)^(alpha+r, beta+r) (n-k)!/(n-r)!
    for r in (2, 3, 5):
        for a, b in GRID_AB:
            for n in range(r, 21):
                spec = ode_coeffs(n, Params(r, a, b))
                shifted = raising_coeffs(n - r, Params(r, a + r, b + r))
                for k in range(0, r):
                    want = -shifted[r - k - 1] * (
                        math.factorial(n - k) / math.factorial(n - r)
                    )
                    assert spec.c[k] == pytest.approx(want, rel=1e-12, abs=1e-9)


def test_ode_residual_ranges():
    for n in range(1, 16):
        assert ode_residual(ode_coeffs(n, Params(2, 0.0, 0.0))) <= 1e-8
    for r in (3, 4, 5):
        for a, b in ((0.7, -0.5), (2.0, 0.0)):
            for n in (2, 6, 10):
                assert ode_residual(ode_coeffs(n, Params(r, a, b))) <= 1e-8


def test_ode_residual_sensitivity():
    import dataclasses

    spec = ode_coeffs(8, Params(2, 0.0, 0.0))
    clean = ode_residual(spec)
    dirty = ode_residual(
        dataclasses.replace(spec, c=(spec.c[0] * (1 + 1e-6),) + spec.c[1:])
    )
    assert dirty >= 1e2 * max(clean, 1e-300)


@pytest.mark.parametrize("n", [12, 20])
def test_ode_residual_sensitivity_extended(n):
    # the check must test the coefficients it is handed, not rebuild them
    # from the formula
    import dataclasses

    spec = ode_coeffs(n, Params(2, 0.0, 0.0))
    assert ode_residual(spec) <= 1e-8
    dirty = ode_residual(
        dataclasses.replace(spec, c=(spec.c[0], spec.c[1] * (1 + 1e-6)) + spec.c[2:])
    )
    assert dirty > 1e-8


@pytest.mark.parametrize("n", [40, 60])
def test_ode_residual_sensitivity_high_degree(n):
    import dataclasses

    spec = ode_coeffs(n, Params(3, 0.7, -0.5))
    assert ode_residual(spec) <= 1e-12
    dirty = ode_residual(
        dataclasses.replace(spec, c=(spec.c[0], spec.c[1] * (1 + 1e-9)) + spec.c[2:])
    )
    assert dirty >= 5e-10


def test_ode_r1_shape():
    # r=1 collapses to the hypergeometric-type second-order operator
    spec = ode_coeffs(4, Params(1, 0.0, 0.0))
    assert len(spec.c) == 2
    assert ode_residual(spec) <= 1e-10


@pytest.mark.parametrize("nan_at", [(0,), (2,), (0, 1, 2)])
def test_ode_residual_reads_a_nan_coefficient(nan_at):
    # a NaN term must fail every tolerance, not drop out of the maximum
    import dataclasses

    spec = ode_coeffs(5, Params(2, 0.7, -0.5))
    c = tuple(math.nan if k in nan_at else ck for k, ck in enumerate(spec.c))
    assert math.isnan(ode_residual(dataclasses.replace(spec, c=c)))


@pytest.mark.parametrize("check", ["ode", "raising"])
def test_identity_term_outside_the_double_range_raises(check):
    # base_poly(5) peaks at 1.8e302 here, and its products by r + beta, by
    # c_k and by beta overflow: that is a DoubleRangeError, not a
    # RuntimeWarning and a nan residual
    params = Params(2, 15.0, 9e15)
    assert ode_residual(ode_coeffs(4, params)) <= 1e-15
    with pytest.raises(DoubleRangeError, match="^an identity term exceeds the double range$"):
        if check == "ode":
            ode_residual(ode_coeffs(5, params))
        else:
            raising_check(5, params)


# sha256 prefix of the repr of each residual (or the name of the exception
# it raises) over a grid that reaches the large and near -1 exponents the
# CLI pins do not: lowering and the ODE at every pair, raising at the pairs
# with alpha, beta > r - 1, n = 0..12 and n = 30, 60
_PINNED_IDENTITY_DIGEST = "7e8e3d4a428c5122"


def test_identity_residuals_are_pinned():
    import hashlib

    def outcome(f, *args):
        try:
            return repr(f(*args))
        except Exception as exc:
            return type(exc).__name__

    h = hashlib.sha256()
    for r in (1, 2, 3):
        pairs = [(0.7, -0.5), (300.0, 40.0), (1e3, 2.0), (1e300, 0.0), (-0.999, -0.999)]
        raising = [(r - 0.5, r + 1.3), (r + 300.0, 40.0), (1e3, r + 2.0), (1e300, r)]
        for a, b in pairs + raising:
            params = Params(r, a, b)
            for n in [*range(13), 30, 60]:
                line = [outcome(lowering_check, n, params)]
                line.append(outcome(lambda: ode_residual(ode_coeffs(n, params))))
                if (a, b) in raising:
                    line.append(outcome(raising_check, n, params))
                h.update(f"{r} {a!r} {b!r} {n} {' '.join(line)}\n".encode())
    assert h.hexdigest()[:16] == _PINNED_IDENTITY_DIGEST
