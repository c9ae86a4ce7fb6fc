"""Property test of the constructors at the edge of the double range.

Within r >= 1 and alpha, beta > -1, ``base_poly`` and the ``type1_*``
constructors return finite coefficients or raise one of the documented
exceptions: ``DegenerateParameters`` (a closed formula singular at the
exact parameters), ``DegreeCapError`` or ``DoubleRangeError`` (a value too
large for a double).  The exponents reach 1e300, where most coefficients
leave the double range.  The examples are derandomized so that the suite
is reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from angelesco import (
    DEGREE_CAP,
    DegenerateParameters,
    DegreeCapError,
    DoubleRangeError,
    Params,
    base_poly,
    type1_diagonal,
    type1_down,
    type1_up,
)

exponent = st.one_of(
    st.floats(-1.0, 4.0, exclude_min=True),
    st.floats(4.0, 1e300),
    st.sampled_from((-1.0 + 1e-12, -0.5, 0.0, 1.0, 300.0, 1e5, 1e300)),
)
bounded = settings(max_examples=120, deadline=None, derandomize=True)

# smallest and largest degree argument each family takes below the cap
DEGREES = {
    "base": (0, DEGREE_CAP),
    "diagonal": (1, DEGREE_CAP + 1),
    "up": (0, DEGREE_CAP - 1),
    "down": (1, DEGREE_CAP + 1),
}


@bounded
@given(
    r=st.integers(1, 64),
    alpha=exponent,
    beta=exponent,
    family=st.sampled_from(sorted(DEGREES)),
    data=st.data(),
)
def test_constructors_are_finite_or_raise_documented_errors(r, alpha, beta, family, data):
    params = Params(r, alpha, beta)
    n = data.draw(st.integers(*DEGREES[family]), label="n")
    k = data.draw(st.integers(1, r), label="k")
    try:
        if family == "base":
            c = base_poly(n, params)
        elif family == "diagonal":
            c = type1_diagonal(n, params).coeffs
        elif family == "up":
            c = type1_up(n, k, params).coeffs
        else:
            c = type1_down(n, k, params).coeffs
    except (DegenerateParameters, DegreeCapError, DoubleRangeError):
        return
    assert np.isfinite(c).all()
