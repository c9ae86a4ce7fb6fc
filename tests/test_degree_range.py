"""The range rule: no layer but the zero finder has a degree cap.

Every constructor and stack, ``leading_coefficient``, the oracle
(``verify_level``) and the identity checks take any degree n, and return
finite values or raise ``DoubleRangeError`` (a value, or a binomial
C(N, t) of a coefficient chain, outside the double range) or
``DegenerateParameters``.  No ``OverflowError`` and no ``DegreeCapError``
escapes, and a degree past the chains' range is refused before anything
is allocated.
"""

import tracemalloc

import numpy as np
import pytest

from angelesco import (
    DegenerateParameters,
    DoubleRangeError,
    Params,
    base_poly,
    coeff_a,
    coeff_b,
    diagonal_normalizer,
    down_normalizer,
    leading_coefficient,
    lowering_check,
    moment,
    ode_coeffs,
    ode_residual,
    raising_check,
    recurrence_residuals,
    type1_diagonal,
    type1_down,
    type1_up,
    up_normalizer,
    verify_level,
)
from angelesco.polynomials import type1_down_stack, type1_up_stack

PAIRS = ((0.7, -0.5), (-0.999, -0.999), (40.0, -0.9), (300.0, 300.0), (2.0, 2.0))
# past the old cap, the chains' last degree and the first one past it, and
# degrees whose floats are huge or do not exist
DEGREES = (61, 200, 1029, 1030, 10**6, 10**20, 10**400)


def _calls(n, params):
    # (name, call) of every layer at level n; a call returns numbers
    r, a, b = params.r, params.alpha, params.beta
    yield "base_poly", lambda: base_poly(n, params)
    yield "leading_coefficient", lambda: leading_coefficient(n, params)
    yield "type1_diagonal", lambda: type1_diagonal(n, params).coeffs
    for k in sorted({1, r}):
        yield f"type1_up k={k}", lambda: type1_up(n, k, params).coeffs
        yield f"type1_down k={k}", lambda: type1_down(n, k, params).coeffs
    yield "type1_up_stack", lambda: type1_up_stack(n, params)
    yield "type1_down_stack", lambda: type1_down_stack(n, params)
    yield "verify_level", lambda: [
        (rep.max_ortho_residual, rep.norm_residual) for rep in verify_level(n, params)
    ]
    if r >= 2:
        yield "recurrence_residuals", lambda: recurrence_residuals(n, params)
    yield "lowering_check", lambda: lowering_check(n, params)
    if a > r - 1 and b > r - 1:
        yield "raising_check", lambda: raising_check(n, params)
    yield "ode_residual", lambda: ode_residual(ode_coeffs(n, params))


@pytest.mark.parametrize("n", DEGREES, ids=["61", "200", "1029", "1030", "1e6", "1e20", "1e400"])
@pytest.mark.parametrize("alpha, beta", PAIRS)
@pytest.mark.parametrize("r", [1, 2, 3, 8])
def test_every_layer_is_finite_or_leaves_the_double_range(r, alpha, beta, n):
    for name, call in _calls(n, Params(r, alpha, beta)):
        try:
            out = call()
        except (DoubleRangeError, DegenerateParameters):
            continue
        assert np.isfinite(np.asarray(out, dtype=complex)).all(), name


@pytest.mark.parametrize("build", [base_poly, lambda n, p: type1_up(n, 1, p)], ids=["base", "up"])
def test_a_degree_past_the_range_allocates_nothing(build):
    tracemalloc.start()
    try:
        with pytest.raises(DoubleRangeError, match="^degree 10000000 exceeds the double range"):
            build(10**7, Params(2, 0.7, -0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "scalar", [diagonal_normalizer, up_normalizer, down_normalizer, coeff_a, coeff_b, moment],
    ids=lambda f: f.__name__,
)
def test_a_degree_past_the_doubles_is_a_double_range_error(scalar):
    # an n that no double holds: the scalars' gamma arguments cannot be
    # formed, which is the documented DoubleRangeError, not an OverflowError
    with pytest.raises(DoubleRangeError, match=r"^(level|degree|moment power) 1000+ exceeds"):
        scalar(10**400, Params(2, 0.7, -0.5))
