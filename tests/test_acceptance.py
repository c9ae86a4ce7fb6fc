"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, none is configurable.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from angelesco import (
    Params,
    coeff_a,
    coeff_b,
    cubic_branches_r2,
    endpoint_exponents,
    find_zeros,
    ks_distance,
    limit_a,
    limit_b,
    limit_cdf,
    lowering_check,
    ode_coeffs,
    ode_residual,
    perron_density,
    raising_check,
    recurrence_residual,
    type1_diagonal,
    type1_down,
    type1_up,
    u_closed_r2,
    u_density,
    verify_type1,
)
from r2_reference import coeffs_match, mp_r2_pair, r2_recurrence_a, r2_recurrence_c

GRID = (-0.5, 0.0, 0.7, 2.0)


def _report(num, text):
    print(f"\nACCEPTANCE {num}: {text}: PASS")


def test_criterion_1_orthogonality_suite():
    # every diagonal/up/down vector on the full grid passes the moment oracle
    # at tol 1e-9; r=1 excludes the empty minus index at n=1
    t0 = time.time()
    checked = 0
    for r in (1, 2, 3, 4, 5):
        for a, b in itertools.product(GRID, GRID):
            params = Params(r, a, b)
            vecs = [type1_up(0, k, params) for k in range(1, r + 1)]
            for n in range(1, 13):
                vecs.append(type1_diagonal(n, params))
                for k in range(1, r + 1):
                    vecs.append(type1_up(n, k, params))
                    if r * n - 1 >= 1:
                        vecs.append(type1_down(n, k, params))
            for v in vecs:
                rep = verify_type1(v, tol=1e-9)
                assert rep.passed, (r, a, b, v.tag)
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"orthogonality sweep took {elapsed:.1f}s"
    _report(1, f"orthogonality suite ({checked} vectors, {elapsed:.1f}s, tol 1e-9)")


def test_criterion_2_r2_closed_forms():
    # star constructions reproduce the two-interval closed forms to 1e-12
    # coefficientwise for n <= 10 after the orientation sign map
    for a, b in ((0.0, 0.0), (0.7, -0.5), (2.0, 0.7), (-0.5, 2.0)):
        for n in range(0, 11):
            va, vb = mp_r2_pair(n, a, b, "diag")
            v = type1_diagonal(n + 1, Params(2, a, b))
            assert coeffs_match(v.coeffs[0], vb, 1e-12)
            assert coeffs_match(-1.0 * v.coeffs[1], va, 1e-12)
            va, vb = mp_r2_pair(n, a, b, "up")
            v = type1_up(n, 1, Params(2, a, b))
            assert coeffs_match(v.coeffs[0], vb, 1e-12)
            assert coeffs_match(-1.0 * v.coeffs[1], va, 1e-12)
            if n >= 1:
                va, vb = mp_r2_pair(n - 1, a, b, "down")
                v = type1_down(n, 1, Params(2, a, b))
                assert coeffs_match(v.coeffs[0], vb, 1e-12)
                assert coeffs_match(-1.0 * v.coeffs[1], va, 1e-12)
    _report(2, "r=2 closed-form agreement (n <= 10, rel 1e-12)")


def test_criterion_3_recurrence():
    for r in (2, 3, 4):
        for a, b in ((0.0, 0.0), (0.7, -0.5)):
            params = Params(r, a, b)
            for n in range(1, 7):
                for k in range(1, r + 1):
                    assert recurrence_residual(n, k, params) <= 1e-9
    for a, b in ((0.0, 0.0), (0.7, -0.5), (2.0, 2.0)):
        p2 = Params(2, a, b)
        for n in range(1, 51):
            assert coeff_a(n, p2) == pytest.approx(r2_recurrence_a(n, a, b), rel=1e-12)
            assert coeff_b(n, p2) == pytest.approx(r2_recurrence_c(n, a, b), rel=1e-12)
    for r in (2, 3, 4, 5):
        p = Params(r, 0.0, 0.0)
        assert abs(coeff_a(200, p) - limit_a(r)) <= 0.02 * limit_a(r)
        assert abs(coeff_b(200, p) - limit_b(r)) <= 0.02 * limit_b(r)
    _report(3, "nearest-neighbor recurrence (residual 1e-9, r=2 forms 1e-12, limits 2%)")


def test_criterion_4_operators():
    for r in (1, 2, 3, 5):
        for a, b in ((0.0, 0.0), (0.7, -0.5), (2.0, 2.0)):
            for n in range(1, 21):
                assert lowering_check(n, Params(r, a, b)) <= 1e-13
    for r in (2, 3, 4):
        for n in range(0, 8):
            assert raising_check(n, Params(r, r - 0.5, r + 1.3)) <= 1e-11
    for r in (2, 3, 4, 5):
        for a, b in ((0.0, 0.0), (0.7, -0.5)):
            for n in range(1, 16):
                assert ode_residual(ode_coeffs(n, Params(r, a, b))) <= 1e-8
    # the general coefficient formula reproduces the third-order equation
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = float(rng.uniform(-0.9, 3.0))
        b = float(rng.uniform(-0.9, 3.0))
        n = int(rng.integers(0, 20))
        c = ode_coeffs(n, Params(2, a, b)).c
        assert c[2] == pytest.approx(-(2 * a + b + 6), rel=1e-12, abs=1e-12)
        assert c[1] == pytest.approx((n - 1) * (3 * n + 4 * a + 2 * b + 6), rel=1e-12, abs=1e-12)
        assert c[0] == pytest.approx(-n * (n - 1) * (2 * n + 2 * a + b + 2), rel=1e-12, abs=1e-12)
    _report(4, "operators (lowering 1e-13, raising 1e-11, ODE 1e-8, r=2 form exact)")


def test_criterion_5_zero_counts():
    for r in (1, 2, 3, 4, 5):
        for a, b in ((0.0, 0.0), (0.7, -0.5), (2.0, 2.0)):
            params = Params(r, a, b)
            for n in list(range(1, 13)) + [20, 30, 40]:
                zs = find_zeros(n, params)
                assert zs.n == n
                assert len(zs.zeros) == n
                assert np.all(zs.zeros > 0.0) and np.all(zs.zeros < 1.0)
                assert np.all(np.diff(zs.zeros) > 0.0)
    _report(5, "zeros: exactly n simple zeros in (0,1) for n <= 40, r <= 5")


def test_criterion_6_asymptotic_distribution():
    for r in (1, 2, 3, 4, 5):
        total, _ = quad(lambda x: u_density(x, r), 0.0, 1.0, limit=200)
        assert abs(total - 1.0) <= 1e-8
    for x in np.linspace(0.005, 0.995, 200):
        assert abs(u_closed_r2(x) - u_density(x, 2)) <= 1e-10 * u_closed_r2(x)
        want = 1.0 / (math.pi * math.sqrt(x * (1.0 - x)))
        assert abs(u_density(x, 1) - want) <= 1e-10 * want
    # KS decreases along n in {10, 20, 40} and the n=40 value sits below the
    # pinned threshold 0.049 (measured max 0.0389 over both parameter pairs,
    # plus a 25% margin) independently of (alpha, beta)
    for r in (2, 3):
        for a, b in ((0.0, 0.0), (2.0, 1.0)):
            params = Params(r, a, b)
            ks = [ks_distance(find_zeros(n, params), r) for n in (10, 20, 40)]
            assert ks[2] < ks[1] < ks[0]
            assert ks[2] <= 0.049
    _report(6, "asymptotic zero distribution (mass 1e-8, closed forms 1e-10, KS)")


def test_criterion_7_algebraic_closure():
    for r in (2, 3, 4):
        for x in np.linspace(0.05, 0.95, 50):
            assert abs(perron_density(x, r) - u_density(x, r)) <= 1e-6
    for z in (1e6 + 0j, 1e6 * np.exp(0.6j)):
        s1, s2, s3 = cubic_branches_r2(z)
        assert abs(z * s1 + 2.0) <= 1e-5
        assert abs(z * s2 - 1.0) <= 1e-5
        assert abs(z * s3 - 1.0) <= 1e-5
    _report(7, "algebraic closure (Perron 1e-6 on 50 points, branch asymptotics)")


def test_criterion_8_endpoint_exponents():
    for r in (1, 2, 3, 4, 5):
        s0, s1 = endpoint_exponents(r)
        assert abs(s0 - (-1.0 / (r + 1))) <= 0.02
        assert abs(s1 - (-0.5)) <= 0.02
    _report(8, "endpoint exponents (-1/(r+1) and -1/2 within 0.02)")


def test_criterion_9_figure2_reproduction(tmp_path):
    import contextlib
    import io

    from angelesco.cli import main

    svg = tmp_path / "figure2.svg"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["figure2", "--samples", "801", "--svg", str(svg)])
    assert code == 0
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "r,x,u,F"
    curves = {}
    for line in lines[1:]:
        rr, x, u, F = line.split(",")
        curves.setdefault(int(rr), []).append((float(x), float(u)))
    assert sorted(curves) == [1, 2, 3, 4, 5]
    # r=1 is symmetric around 1/2
    for x in (0.1, 0.25, 0.4):
        assert u_density(x, 1) == pytest.approx(u_density(1.0 - x, 1), rel=1e-9)
    # for r > 1 the symmetry is gone and mass concentrates near 1: the right
    # tail carries more probability than the mirrored left tail
    for r in (2, 3, 4, 5):
        assert (1.0 - limit_cdf(0.95, r)) > limit_cdf(0.05, r)
        assert limit_cdf(0.5, r) < 0.5
        assert u_density(0.9, r) > u_density(0.1, r)
    assert svg.read_text().count("<polyline") == 5
    _report(9, "figure 2 reproduction (five curves, symmetry features, SVG)")
