import cmath
import math
import re

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from angelesco import (
    Params,
    algebraic_residual_w,
    cubic_branches_r2,
    density_curve,
    endpoint_exponents,
    find_zeros,
    hatx_of_theta,
    ks_distance,
    limit_cdf,
    perron_density,
    solve_stieltjes_boundary,
    stieltjes_branches,
    stieltjes_empirical,
    stieltjes_limit,
    theta_of_hatx,
    u_closed_r2,
    u_density,
    w_density,
)
from angelesco.asymptotics import MAX_R
from angelesco.numerics import roots_of_unity

U2_HALF = 0.6989522791685144  # 50-digit evaluation of the closed r=2 form at 1/2
# endpoint_exponents against the u_density loop (measured: at most 6e-11)
ENDPOINT_RTOL = 1e-9


# ---------------------------------------------------------------------------
# parametrization
# ---------------------------------------------------------------------------


def test_hatx_endpoint_limits():
    for r in (1, 2, 5):
        tm = math.pi / (r + 1)
        assert hatx_of_theta(1e-8 * tm, r) == pytest.approx(1.0, abs=1e-12)
        # xhat ~ (delta)^(r+1) near the right end of the parameter interval
        assert hatx_of_theta(tm * (1 - 1e-9), r) <= 1e-15


def test_hatx_r1_is_cos_squared():
    for t in np.linspace(1e-3, math.pi / 2 - 1e-3, 40):
        assert hatx_of_theta(t, 1) == pytest.approx(math.cos(t) ** 2, rel=1e-13)


def test_hatx_strictly_decreasing():
    # the theta inversion assumes it: the array xhat on a fine grid for every
    # supported r, and the scalar xhat for a few
    from angelesco.asymptotics import _consts, _hatx, _sines

    for r in range(1, MAX_R + 1):
        tm, c_r, _ = _consts(r)
        grid = np.linspace(tm * 1e-4, tm * (1 - 1e-4), 10_000)
        assert np.all(np.diff(_hatx(*_sines(grid, r), r, c_r)) < 0.0), r
    for r in (1, 2, 3, 8):
        tm = math.pi / (r + 1)
        grid = np.linspace(tm * 1e-4, tm * (1 - 1e-4), 10_000)
        vals = np.array([hatx_of_theta(t, r) for t in grid])
        assert np.all(np.diff(vals) < 0.0)


def test_theta_inverse_r1():
    assert theta_of_hatx(0.25, 1) == pytest.approx(math.pi / 3, rel=1e-13)


def test_theta_round_trips():
    for r in (1, 2, 3, 5):
        for xh in (1e-30, 1e-12, 1e-4, 0.2, 0.5, 0.77, 0.99, 1 - 1e-10):
            t = theta_of_hatx(xh, r)
            assert abs(hatx_of_theta(t, r) - xh) <= 1e-13 * max(1.0, xh)


DOMAIN_END_R = (1, 2, 3, 5, 12, 52, MAX_R)
DOMAIN_END_XH = [10.0**-k for k in range(1, 330)] + [1 - 10.0**-k for k in range(1, 18)]


def test_theta_near_domain_ends():
    # tiny xh puts theta within half an ulp of pi/(r+1); xh near 1 makes the
    # Newton slope vanish (and, from r = 51, both sine powers of xhat
    # underflow).  Either way: a theta inside the interval, or a ValueError,
    # never a ZeroDivisionError
    for r in DOMAIN_END_R:
        tm = math.pi / (r + 1)
        for xh in DOMAIN_END_XH:
            try:
                t = theta_of_hatx(xh, r)
            except ValueError:
                continue
            assert math.isfinite(t) and 0.0 < t < tm
            assert abs(hatx_of_theta(t, r) - xh) <= 1e-13 * max(1.0, xh)
        for k in range(1, 330):
            x = 10.0 ** (-k / r)
            assert 0.0 <= limit_cdf(x, r) < 1.0
            try:
                assert 0.0 < u_density(x, r) < math.inf
            except ValueError:
                pass
    for x, r in ((1e-60, 1), (1e-20, 5)):
        with pytest.raises(ValueError):
            u_density(x, r)
    assert limit_cdf(1e-20, 5) == 0.0
    assert u_density(1 - 1e-16, 5) > 0.0


def test_supported_ray_counts():
    for spacing in ("x", "theta"):
        curve = density_curve(MAX_R, 99, spacing)
        assert np.all(np.isfinite(curve.u)) and np.all(curve.u > 0.0)
        with pytest.raises(ValueError, match="supported"):
            density_curve(MAX_R + 1, 99, spacing)
    for fn in (theta_of_hatx, w_density, limit_cdf):
        with pytest.raises(ValueError, match="supported"):
            fn(0.5, MAX_R + 1)
    # the r check comes before every other reading of x
    for fn, x in ((limit_cdf, 0.0), (limit_cdf, 1.0), (limit_cdf, 1e-300), (u_density, 1e-300)):
        with pytest.raises(ValueError, match="supported"):
            fn(x, 100)


def test_consts_past_the_power_overflow():
    # from r = 143, (r+1)^(r+1) overflows and c_r comes from its log form
    from angelesco.asymptotics import _consts

    for r in (1, 5, 64, 142, 143, 200, 1000, 10**6):
        with mp.workdps(40):
            want = mp.mpf(r + 1) ** (r + 1) / mp.mpf(r) ** r
        assert _consts(r)[1] == pytest.approx(float(want), rel=1e-15)
    assert _consts(142)[1] == (142 + 1.0) ** 143 / 142**142


def _count_evaluations(monkeypatch):
    # count the scalar xhat and log xhat evaluations made through the
    # module, and the evaluations of g (one per Newton step of a loop)
    import angelesco.asymptotics as asym

    calls = [0]
    for name in ("hatx_of_theta", "_log_hatx_of_delta", "_newton_terms"):
        fn = getattr(asym, name)

        def counted(*args, _fn=fn):
            calls[0] += 1
            return _fn(*args)

        monkeypatch.setattr(asym, name, counted)
    return calls


def test_theta_bisection_stops_at_fixed_point(monkeypatch):
    # the Newton iteration, with bisection as its safeguard, stops where
    # its own stop rule holds again: a step of at most 2 ulp, or g within
    # rounding of its terms.  It does not run a fixed count of steps
    import angelesco.asymptotics as asym

    calls = _count_evaluations(monkeypatch)
    for xh in (0.2, 0.8):
        calls[0] = 0
        theta = theta_of_hatx(xh, 3)
        assert calls[0] <= 65  # bisection to the fixed point takes about 53 steps
        in_delta, level = asym._bracket(xh, 3)[:2]
        x = math.pi / 4 - theta if in_delta else theta
        g, new, size = asym._newton_terms(in_delta, x, level, 3, math)
        assert abs(new - x) <= 2.0 * math.ulp(x) or abs(g) <= asym._RESIDUAL * size, xh


def test_density_curve_scalar_evaluations(monkeypatch):
    density_curve(3, 9, spacing="x")
    calls = _count_evaluations(monkeypatch)
    density_curve(3, 999, spacing="x")
    # thousands with one scalar inversion per sample; the array code makes
    # one call per step for all samples of a form
    assert calls[0] < 1_000


def _theta_mp(xh, r, t0):
    # theta(xh) to 50 digits by Newton's method from t0, and the condition
    # 1/|theta dlog xhat/dtheta| of theta(xh) there
    with mp.workdps(50):
        R, level = mp.mpf(r), mp.log(mp.mpf(xh))
        log_c = (R + 1) * mp.log(R + 1) - R * mp.log(R)
        t = mp.mpf(t0)
        for _ in range(30):
            g = (R + 1) * mp.log(mp.sin((R + 1) * t)) - mp.log(mp.sin(t)) - R * mp.log(mp.sin(R * t))
            d = (R + 1) ** 2 * mp.cot((R + 1) * t) - mp.cot(t) - R**2 * mp.cot(R * t)
            step = (g - log_c - level) / d
            t -= step
            if abs(step) < mp.mpf(10) ** -30 * t:
                return t, float(1 / abs(t * d))
    raise AssertionError(f"no 50-digit theta at xh={xh}, r={r}")


def _cond(theta, r):
    # the condition of theta(xh) at theta, from 30-digit mpmath
    with mp.workdps(30):
        t, R = mp.mpf(theta), mp.mpf(r)
        d = (R + 1) ** 2 * mp.cot((R + 1) * t) - mp.cot(t) - R**2 * mp.cot(R * t)
        return float(1 / abs(t * d))


def _ulps_over_bound(got, want, r, cond):
    # |got - want| in ulp of want, over the inversion's error bound:
    # 2(r+1) ulp times the condition of theta(xh) where it exceeds 1
    with mp.workdps(50):
        err = float(abs(mp.mpf(got) - mp.mpf(want)))
    return err / math.ulp(float(want)) / (2 * (r + 1) * max(1.0, cond))


def _assert_loops_agree(curve, one_point, r, label):
    # each loop is within the error bound of the true theta, so the two are
    # within twice the bound of each other: rounding leaves a band of iterates
    # where g has no reliable sign, and numpy's last bits and libm's can end
    # the two loops on opposite sides of it (up to 1.37 bounds apart at 999
    # samples, r = 11)
    for c, t in zip(curve, one_point):
        assert _ulps_over_bound(c, t, r, _cond(t, r)) <= 2.0, (label, t)


ACCURACY_XH = (
    np.linspace(0.001, 0.999, 40).tolist()
    + np.geomspace(1e-30, 1e-3, 20).tolist()
    + [1 - 10.0**-k for k in range(1, 17)]
)


@pytest.mark.parametrize("r", [1, 2, 3, 5, 12, 64])
def test_theta_solvers_match_mpmath(r):
    # both loops, the one-point math loop and the numpy loop of the curves
    from angelesco.asymptotics import _theta_curve

    curve = _theta_curve(np.array(ACCURACY_XH), r)[0].tolist()
    for xh, tc in zip(ACCURACY_XH, curve):
        ts = theta_of_hatx(xh, r)
        want, cond = _theta_mp(xh, r, ts)
        for got in (ts, tc):
            assert _ulps_over_bound(got, want, r, cond) <= 1.0, (xh, got)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 12, 64])
def test_newton_steps_per_density_curve_sample(monkeypatch, r):
    # from the leading-order starts, a few steps per sample
    import angelesco.asymptotics as asym

    seen = []
    real = asym._theta_curve

    def recording(xh, r):
        seen.append(real(xh, r))
        return seen[-1]

    monkeypatch.setattr(asym, "_theta_curve", recording)
    density_curve(r, 999, spacing="x")
    ((_, steps),) = seen
    assert steps.min() >= 1 and steps.mean() <= 6.0 and steps.max() <= 10, (steps.mean(), steps.max())


def test_theta_of_hatx_newton_steps():
    from angelesco.asymptotics import _solve

    for r in DOMAIN_END_R:
        for xh in DOMAIN_END_XH:
            if 0.0 < xh < 1.0:
                assert _solve(xh, r)[1] <= 10, (r, xh)


BITWISE_R = (*range(1, 13), 16, 24, 40, 64)
BITWISE_SAMPLES = (1, 10, 99, 151, 999, 2001, 4000)


def _w_one(t, r, xh):
    # w at one theta, in the one-sample arithmetic the array code reproduces:
    # complex exp and abs, float pow, and the small-xh fallback order
    import angelesco.asymptotics as asym

    st, s1, sr = asym._sin_top(t, r), math.sin(t), math.sin(r * t)
    denom = abs((r + 1) * sr - r * cmath.exp(1j * t) * st) ** 2
    scale = (r + 1) / (math.pi * xh)
    if scale == math.inf:
        return (r + 1) / math.pi * (s1 * sr * st / denom) / xh
    return scale * s1 * sr * st / denom


def _theta_curve_per_sample(r, samples):
    # (x, u, F, theta) of density_curve(spacing="theta"), one sample at a time
    tm = math.pi / (r + 1)
    theta = (tm * np.arange(samples, 0, -1) / (samples + 1.0)).tolist()
    xh = [hatx_of_theta(t, r) for t in theta]
    x = [v ** (1.0 / r) for v in xh]
    u = [r * xi ** (r - 1) * _w_one(t, r, v) for xi, t, v in zip(x, theta, xh)]
    F = [1.0 - (r + 1) * t / math.pi for t in theta]
    return [np.array(col) for col in (x, u, F, theta)]


def test_density_curve_matches_scalar_inversion_bitwise(monkeypatch):
    # the theta spacing inverts nothing; the x spacing is held to the error
    # bound in test_curve_agrees_with_the_one_point_entries
    import angelesco.asymptotics as asym

    cases = [(r, s) for r in BITWISE_R for s in BITWISE_SAMPLES]
    want = {case: _theta_curve_per_sample(*case) for case in cases}

    def refuse(xh, r):
        raise AssertionError("the theta spacing inverted xhat")

    monkeypatch.setattr(asym, "_theta_curve", refuse)
    monkeypatch.setattr(asym, "_solve", refuse)
    for case, cols in want.items():
        c = density_curve(*case, spacing="theta")
        for name, got, ref in zip("x u F theta".split(), (c.x, c.u, c.F, c.theta), cols):
            assert got.tobytes() == ref.tobytes(), (case, name)


def _endpoint_exponents_per_sample(r, npts=25):
    xs = np.geomspace(1e-6, 1e-3, npts)
    s0 = np.polyfit(np.log(xs), np.log([u_density(x, r) for x in xs.tolist()]), 1)[0]
    ts = np.geomspace(1e-6, 1e-3, npts)
    xr = [(1.0 - t) ** (1.0 / r) for t in ts.tolist()]
    s1 = np.polyfit(np.log(ts), np.log([u_density(x, r) for x in xr]), 1)[0]
    return float(s0), float(s1)


@pytest.mark.parametrize("r", BITWISE_R)
def test_curve_agrees_with_the_one_point_entries(r):
    # density_curve(spacing="x") and endpoint_exponents invert in numpy and
    # the one-point entries in math: theta agrees within the error bounds,
    # x, u and F are the one-sample arithmetic at the curve's theta, and the
    # endpoint fits agree to ENDPOINT_RTOL
    for samples in (1, 10, 99, 151, 999):
        c = density_curve(r, samples, spacing="x")
        x = (np.arange(1, samples + 1) / (samples + 1.0)).tolist()
        xh = [xi**r for xi in x]
        theta = c.theta.tolist()
        _assert_loops_agree(theta, [theta_of_hatx(v, r) for v in xh], r, samples)
        u = [r * xi ** (r - 1) * _w_one(t, r, v) for xi, t, v in zip(x, theta, xh)]
        F = [1.0 - (r + 1) * t / math.pi for t in theta]
        for name, got, ref in zip("x u F".split(), (c.x, c.u, c.F), (x, u, F)):
            assert got.tobytes() == np.array(ref).tobytes(), (samples, name)
    try:
        want = _endpoint_exponents_per_sample(r)
    except ValueError as e:  # from r = 52, 1e-6^r underflows
        with pytest.raises(ValueError, match=re.escape(str(e))):
            endpoint_exponents(r)
        return
    assert endpoint_exponents(r) == pytest.approx(want, rel=ENDPOINT_RTOL)


def _error(fn, *args):
    try:
        fn(*args)
    except ValueError as e:
        return str(e)
    return None


def test_theta_curve_raises_as_the_scalar_inversion_does():
    from angelesco.asymptotics import _theta_curve

    # below about (1e-16)^(r+1) theta rounds to pi/(r+1); 0 and 1 are outside
    for r, xh in ((1, 1e-40), (2, 1e-60), (5, 1e-100), (3, 0.0), (3, 1.0)):
        msg = _error(theta_of_hatx, xh, r)
        assert msg is not None
        assert _error(_theta_curve, np.array([0.5, xh]), r) == msg, (r, xh)
    assert _error(_theta_curve, np.array([0.5]), MAX_R + 1) == _error(theta_of_hatx, 0.5, MAX_R + 1)


@pytest.mark.parametrize("r", [1, 5, 52, 64])
def test_theta_curve_matches_near_the_domain_ends(r):
    # near xh = 1 the slope of xhat vanishes, and near 0 theta is within a
    # few ulp of pi/(r+1): the loops agree there too
    from angelesco.asymptotics import _theta_curve

    xh = (1.0 - np.geomspace(1e-16, 0.5, 80)).tolist() + np.geomspace(1e-320, 0.5, 80).tolist()
    want = []
    for v in xh:
        try:
            want.append((v, theta_of_hatx(v, r)))
        except ValueError:
            continue
    got = _theta_curve(np.array([v for v, _ in want]), r)[0]
    _assert_loops_agree(got.tolist(), [t for _, t in want], r, "domain ends")


def test_theta_derivative_matches_finite_differences():
    # the Newton step of each form against one from a central difference
    # of xhat
    from angelesco.asymptotics import _newton_terms

    for r in (2, 4):
        tm = math.pi / (r + 1)
        for t in (0.1, 0.3, 0.6):
            th, h = t * tm, 1e-6
            fd = (
                math.log(hatx_of_theta(th + h, r)) - math.log(hatx_of_theta(th - h, r))
            ) / (2 * h)
            xh = hatx_of_theta(th, r)
            # theta form at level 1.001 xhat; delta form at log level + 1e-3
            g, new, _ = _newton_terms(False, th, 1.001 * xh, r, math)
            assert new - th == pytest.approx(-g / (-xh * fd), rel=1e-6)
            g, new, _ = _newton_terms(True, tm - th, math.log(xh) + 1e-3, r, math)
            d = tm - th
            assert new == pytest.approx(d * math.exp(-g / (d * -fd)), rel=1e-9)


# ---------------------------------------------------------------------------
# densities and the CDF
# ---------------------------------------------------------------------------


def test_arcsine_case():
    assert u_density(0.5, 1) == pytest.approx(2.0 / math.pi, rel=1e-12)
    for x in np.linspace(0.005, 0.995, 100):
        want = 1.0 / (math.pi * math.sqrt(x * (1.0 - x)))
        assert u_density(x, 1) == pytest.approx(want, rel=1e-10)


def test_closed_r2_value_and_agreement():
    assert u_closed_r2(0.5) == pytest.approx(U2_HALF, rel=1e-13)
    assert u_density(0.5, 2) == pytest.approx(U2_HALF, rel=1e-13)
    for x in np.linspace(0.005, 0.995, 200):
        assert abs(u_closed_r2(x) - u_density(x, 2)) <= 1e-10 * u_closed_r2(x)


def test_closed_r2_blows_up_like_inverse_sqrt():
    # u_2 ~ (1-x^2)^(-1/2) as x -> 1
    vals = []
    for eps in (1e-4, 1e-6, 1e-8):
        x = 1.0 - eps
        vals.append(u_closed_r2(x) * math.sqrt(1.0 - x * x))
    assert vals[0] == pytest.approx(vals[2], rel=1e-2)


def test_w_density_positive_and_normalized():
    # substitutions xhat = s^(r+1) and xhat = 1-u^2 rectify the endpoint
    # singularities, so the adaptive integrator sees smooth integrands
    for r in (1, 2, 3, 4, 5):
        left, _ = quad(
            lambda s: w_density(s ** (r + 1), r) * (r + 1) * s**r,
            0.0,
            0.5 ** (1.0 / (r + 1)),
            limit=200,
        )
        right, _ = quad(
            lambda u: w_density(1.0 - u * u, r) * 2.0 * u, 0.0, 0.5**0.5, limit=200
        )
        assert left + right == pytest.approx(1.0, abs=1e-8)
        assert w_density(0.37, r) > 0.0


def _w_mp(xh, r):
    # the formula of w at the double theta the library solves for, in mpmath;
    # sin((r+1) theta) is taken through the double pi/(r+1), as there
    theta = theta_of_hatx(xh, r)
    with mp.workdps(50):
        t = mp.mpf(theta)
        st = mp.sin((r + 1) * (mp.mpf(math.pi / (r + 1)) - t))
        s1, sr = mp.sin(t), mp.sin(r * t)
        denom = abs((r + 1) * sr - r * mp.expj(t) * st) ** 2
        return (r + 1) / (mp.pi * xh) * s1 * sr * st / denom


@pytest.mark.parametrize(
    "xh,r", [(3e-308, 20), (1e-310, 20), (1e-300, 20), (1e-320, 30), (1e-315, 40), (2.5e-308, 60)]
)
def test_w_density_near_zero_matches_mpmath(xh, r):
    # (r+1)/(pi xh) alone overflows below about (r+1) 1.8e-309; w does not
    w = w_density(xh, r)
    assert math.isfinite(w)
    assert abs(w - _w_mp(xh, r)) <= 1e-12 * w


def test_u_density_where_x_r_is_near_the_smallest_normal():
    x, r = 2.5e-308 ** (1 / 20), 20
    assert u_density(x, r) == r * x ** (r - 1) * w_density(x**r, r)


def test_w_density_overflow_raises():
    # w ~ xh^(-r/(r+1)) exceeds the double range only at subnormal xh and large r
    with pytest.raises(ValueError, match="w overflows"):
        w_density(5e-324, 30)


def test_u_density_normalization_and_mean():
    for r in (1, 2, 3, 4, 5):
        val, _ = quad(lambda x: u_density(x, r), 0.0, 1.0, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)
        mean, _ = quad(lambda x: x * u_density(x, r), 0.0, 1.0, limit=200)
        assert mean == pytest.approx((r + 1.0) ** (-1.0 / r), abs=1e-6)


def test_limit_cdf_properties():
    assert limit_cdf(0.0, 3) == 0.0
    assert limit_cdf(1.0, 3) == 1.0
    assert limit_cdf(0.5, 1) == pytest.approx(0.5, rel=1e-13)  # arcsine median
    for r in (2, 5):
        xs = np.linspace(0.01, 0.99, 30)
        F = [limit_cdf(x, r) for x in xs]
        assert all(f2 > f1 for f1, f2 in zip(F, F[1:]))


def test_limit_cdf_matches_quadrature():
    for r in (2, 3):
        for x in np.linspace(0.05, 0.95, 10):
            val, _ = quad(lambda t: u_density(t, r), 0.0, x, limit=200)
            assert limit_cdf(x, r) == pytest.approx(val, abs=1e-8)


def test_density_curve_structures():
    c = density_curve(3, 101, spacing="theta")
    assert np.all(np.diff(c.x) > 0)
    assert np.all(c.u > 0)
    assert np.all(np.diff(c.F) > 0)
    assert 0.0 < c.F[0] and c.F[-1] < 1.0
    cx = density_curve(2, 9, spacing="x")
    assert cx.x == pytest.approx(np.arange(1, 10) / 10.0)


def test_endpoint_exponents():
    for r in (1, 2, 3, 4, 5):
        s0, s1 = endpoint_exponents(r)
        assert abs(s0 - (-1.0 / (r + 1))) <= 0.02
        assert abs(s1 - (-0.5)) <= 0.02


# ---------------------------------------------------------------------------
# algebraic Stieltjes equation
# ---------------------------------------------------------------------------


def test_branch_asymptotics_at_1e6():
    for z in (1e6 + 0j, 1e6 * cmath.exp(0.7j), 1e6 * cmath.exp(-2.1j)):
        s1, s2, s3 = cubic_branches_r2(z)
        assert abs(z * s1 + 2.0) <= 1e-5
        assert abs(z * s2 - 1.0) <= 1e-5
        assert abs(z * s3 - 1.0) <= 1e-5


def test_branches_satisfy_cubic():
    for z in (2 + 1j, 0.3 + 1e-3j, 0.8 - 1e-3j, -0.5 + 1e-3j, 5.0 + 0j, -3.0 + 0j):
        for s in cubic_branches_r2(z):
            assert abs(z * (1 - z * z) * s**3 + 3 * z * s - 2) <= 1e-12


def test_branch2_is_stieltjes_near_cut():
    # negative imaginary part on the upper side, recovering u_2 by Perron
    for x in (0.2, 0.5, 0.8):
        s2 = cubic_branches_r2(complex(x, 1e-6))[1]
        assert s2.imag < 0
        assert -s2.imag / math.pi == pytest.approx(u_closed_r2(x), rel=1e-4)


@pytest.mark.parametrize("r", [1, 3, 5, 12])
def test_branches_solve_the_equation_and_follow_the_far_field(r):
    # every branch solves the W form; at |z| = 1e6, z S_1 -> -r and branch
    # k >= 2 has W / ((r+1)^(1/r) z) -> omega^(k-2)
    for z in (2 + 1j, 0.3 + 1e-3j, 0.8 - 1e-3j, -0.5 + 1e-3j, 5.0 + 0j, -3.0 + 0j):
        for s in stieltjes_branches(z, r):
            assert algebraic_residual_w(z, s, r) <= 1e-12
    omega = roots_of_unity(r)
    for z in (1e6 + 0j, 1e6 * cmath.exp(0.7j), 1e6 * cmath.exp(-2.1j)):
        s1, *rest = stieltjes_branches(z, r)
        assert abs(z * s1 + r) <= 1e-5
        for j, s in enumerate(rest):
            w = z * s / (z * s - 1.0)
            assert abs(w / ((r + 1) ** (1.0 / r) * z) - omega[j]) <= 1e-5


def test_real_axis_gives_upper_boundary_limit():
    # a real z on the segments [0, 1] and [-1, 0] of the r = 2 star gets
    # the limit from the upper half plane
    for x in (0.3, -0.3, 0.7, -0.7):
        above = cubic_branches_r2(complex(x, 1e-13))
        for a, b in zip(cubic_branches_r2(x), above):
            assert abs(a - b) <= 1e-10 * abs(b)


@pytest.mark.parametrize("r", [2, 3, 5, 8, 12])
def test_branch_selection_consistency(r):
    # solving the algebraic equation and picking the W-window root agrees
    # with the continued branch 2, also next to the ends of the support
    for x in (0.01, 0.1, 0.45, 0.9, 0.99):
        for eps in (1e-3, 1e-5):
            a = stieltjes_branches(complex(x, eps), r)[1]
            b = solve_stieltjes_boundary(x, eps, r)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


@pytest.mark.parametrize("r", [2, 3, 5, 8, 12])
def test_branch2_matches_integral_transform(r):
    for z in (2 + 1j, -1.5 + 0.5j, 0.5 + 2j):
        want = stieltjes_limit(z, r)
        got = stieltjes_branches(z, r)[1]
        assert abs(got - want) <= 1e-8 * abs(want)


def test_algebraic_residual_of_integral_stieltjes():
    for r in (2, 3, 4):
        S = stieltjes_limit(2 + 1j, r)
        assert algebraic_residual_w(2 + 1j, S, r) <= 1e-6


def test_empirical_residual_decreases():
    params = Params(2, 0.0, 0.0)
    res = []
    for n in (10, 20, 40):
        S = stieltjes_empirical(find_zeros(n, params), 2 + 1j)
        res.append(algebraic_residual_w(2 + 1j, S, 2))
    assert res[2] < res[1] < res[0]


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_empirical_residual_falls_like_one_over_n(r):
    # the zero measures converge to the limit measure, whose Stieltjes
    # transform solves z S^(r+1) = (zS + r)(zS - 1)^r; off [0, 1] the
    # empirical transform misses it by O(1/n), so the residual halves as n
    # doubles (0.48 to 0.53 measured from n = 15 to 60)
    params = Params(r, 0.7, -0.5)
    zero_sets = [find_zeros(n, params) for n in (15, 30, 60)]
    for z in (1.5 + 0.5j, -0.5 + 0.3j, 0.5 + 0.8j):
        res = [algebraic_residual_w(z, stieltjes_empirical(zs, z), r) for zs in zero_sets]
        for coarse, fine in zip(res, res[1:]):
            assert 0.45 <= fine / coarse <= 0.55


def test_binomial_collapse_identity():
    # sum_(l=0..r+1) (-1)^(r+l+1) C(r+1,l) (r-l) z^l S^l = -(zS+r)(zS-1)^r
    rng = np.random.default_rng(5)
    for r in (2, 3, 5):
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            S = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = sum(
                (-1.0) ** (r + l + 1) * math.comb(r + 1, l) * (r - l) * (z * S) ** l
                for l in range(r + 2)
            )
            rhs = -(z * S + r) * (z * S - 1.0) ** r
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def test_perron_recovery():
    for r in (2, 3, 4):
        for x in np.linspace(0.05, 0.95, 50):
            assert abs(perron_density(x, r) - u_density(x, r)) <= 1e-6


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 8, 12, 20, 24, 25, 30, 32, 48, 64])
def test_perron_recovery_on_all_of_the_support(r):
    # eps shrinks with the distance to the ends of the support, so the
    # window root exists down to x = 0.01 (2e-7 measured at r = 2 and 64);
    # the roots come from the V = W/z form, which keeps its digits at large r
    for x in np.linspace(0.01, 0.99, 99):
        assert abs(perron_density(x, r) - u_density(x, r)) <= 1e-6


def test_branch_point_guard():
    with pytest.raises(ValueError):
        cubic_branches_r2(1.0)
    with pytest.raises(ValueError):
        cubic_branches_r2(0.0)
    for r in (1, 2, 3, 5):
        for z in (0.0, *roots_of_unity(r)):
            with pytest.raises(ValueError):
                stieltjes_branches(z, r)


# ---------------------------------------------------------------------------
# convergence of the zero counting measure
# ---------------------------------------------------------------------------


def test_ks_distance_decreases():
    for r in (2, 3):
        params = Params(r, 0.0, 0.0)
        ks = [ks_distance(find_zeros(n, params), r) for n in (10, 20, 40)]
        assert ks[2] < ks[1] < ks[0]


def test_ks_alpha_beta_insensitive_at_n40():
    vals = []
    for a, b in ((0.0, 0.0), (2.0, 1.0)):
        zs = find_zeros(40, Params(2, a, b))
        vals.append(ks_distance(zs, 2))
    assert max(vals) <= 0.049  # measured 0.0389 max, +25% margin


def test_ks_shrinks_for_higher_ray_counts():
    for r in (4, 5):
        params = Params(r, 0.0, 0.0)
        k15 = ks_distance(find_zeros(15, params), r)
        k30 = ks_distance(find_zeros(30, params), r)
        assert k30 < k15 <= 0.08
