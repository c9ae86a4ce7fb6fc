"""Property tests of the moment oracle over the parameter domain.

Every type I vector the constructors build passes ``verify_type1`` at 1e-9,
and a change of 1e-6 of the vector's largest coefficient in any one
coefficient of any one entry fails it, a diagonal vector's rotated entries
included, which leave its real base row (row 0) alone: the oracle must read
every entry it is handed.
The examples are derandomized so that the suite is reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from angelesco import Params, type1_diagonal, type1_down, type1_up, verify_type1
from angelesco.polynomials import TypeIVector

exponent = st.floats(-0.9, 4.0, exclude_min=True, exclude_max=True)
bounded = settings(max_examples=60, deadline=None, derandomize=True)


def _build(family, n, k, params):
    if family == "diagonal":
        return type1_diagonal(n, params)
    if family == "up":
        return type1_up(n, k, params)
    return type1_down(n, k, params)


@bounded
@given(
    r=st.integers(1, 5),
    alpha=exponent,
    beta=exponent,
    n=st.integers(1, 12),
    family=st.sampled_from(("diagonal", "up", "down")),
    data=st.data(),
)
def test_oracle_passes_built_and_fails_perturbed(r, alpha, beta, n, family, data):
    if family == "down" and r == 1 and n == 1:
        n = 2  # (0) is the empty multi-index
    params = Params(r, alpha, beta)
    k = data.draw(st.integers(1, r), label="k")
    v = _build(family, n, k, params)

    rep = verify_type1(v, 1e-9)
    assert rep.passed
    assert type(rep.max_ortho_residual) is float
    assert type(rep.norm_residual) is float
    assert type(rep.norm_value) is complex
    assert type(rep.passed) is bool

    j = data.draw(st.integers(0, r - 1), label="entry")
    m = data.draw(st.integers(0, v.coeffs.shape[1] - 1), label="m")
    c = np.array(v.coeffs)
    c[j, m] += 1e-6 * np.abs(c).max()
    bad = TypeIVector(params, v.index, c)
    assert not verify_type1(bad, 1e-9).passed
