"""Property tests of the recurrence and ODE checks over the parameter domain.

Within r >= 1 and alpha, beta > -1, each check either returns a
coefficient residual at the level of double rounding or the construction
raises ``DegenerateParameters``.  The examples are derandomized so that the
suite is reproducible.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from angelesco import (
    DegenerateParameters,
    Params,
    ode_coeffs,
    ode_residual,
    recurrence_residual,
)

exponent = st.floats(-1.0, 4.0, exclude_min=True, exclude_max=True)
bounded = settings(max_examples=60, deadline=None, derandomize=True)


def _near_r2_corner(r, n, alpha, beta):
    # at r = 2, n = 1 the type I vectors take gamma arguments such as
    # 3 + 2 alpha + beta, which vanish at alpha = beta = -1 and are formed
    # by cancellation; their relative error eps / (2(1+alpha) + (1+beta))
    # reaches the construction (the moment oracle sees it as well)
    return r == 2 and n == 1 and 2.0 * (1.0 + alpha) + (1.0 + beta) < 1e-4


@bounded
@given(
    r=st.integers(2, 5),
    alpha=exponent,
    beta=exponent,
    n=st.integers(1, 59),
    data=st.data(),
)
def test_recurrence_residual_property(r, alpha, beta, n, data):
    assume(not _near_r2_corner(r, n, alpha, beta))
    k = data.draw(st.integers(1, r), label="k")
    try:
        res = recurrence_residual(n, k, Params(r, alpha, beta))
    except DegenerateParameters:
        return
    assert res <= 1e-11


@bounded
@given(r=st.integers(1, 5), alpha=exponent, beta=exponent, n=st.integers(0, 60))
def test_ode_residual_property(r, alpha, beta, n):
    try:
        res = ode_residual(ode_coeffs(n, Params(r, alpha, beta)))
    except DegenerateParameters:
        return
    assert res <= 1e-11


def test_recurrence_residual_near_r2_corner():
    assert recurrence_residual(1, 1, Params(2, -1.0 + 1e-8, -1.0 + 1e-8)) <= 1e-11
