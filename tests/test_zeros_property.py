"""Property test of the zero finder over the parameter domain.

For 1 <= r <= 24, alpha >= -1 + 1e-8 and beta > -1, ``find_zeros`` returns
all n zeros, strictly increasing inside (0,1), each with a residual within
the documented bound.  Closer to alpha = -1 the largest zero lies within
half an ulp of 1, where no double inside (0,1) is its correct rounding.  The
examples are derandomized so that the suite is reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from angelesco import Params, find_zeros


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    r=st.integers(1, 24),
    alpha=st.floats(-1.0 + 1e-8, 40.0),
    beta=st.floats(-1.0, 40.0, exclude_min=True),
    n=st.integers(1, 60),
)
def test_find_zeros_property(r, alpha, beta, n):
    zs = find_zeros(n, Params(r, alpha, beta))
    assert zs.n == n == len(zs.zeros)
    assert 0.0 < zs.zeros[0] and zs.zeros[-1] < 1.0
    assert np.all(np.diff(zs.zeros) > 0.0)
    assert np.all(zs.residuals <= 1e-10)
