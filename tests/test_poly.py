import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angelesco import Poly, poly_derivative, poly_eval


def test_eval_examples():
    assert poly_eval(Poly([-1.0, 1.5]), 2.0 / 3.0) == pytest.approx(0.0, abs=1e-16)
    assert poly_eval(Poly([1.0]), 123.4) == 1.0
    assert poly_eval(Poly([0.0, 0.0, 1.0]), 1j) == pytest.approx(-1.0 + 0.0j)


def test_eval_matches_horner_on_benign_input():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(12)
    p = Poly(c)
    for x in rng.uniform(-1, 1, 8):
        ref = 0.0
        for ck in c[::-1]:
            ref = ref * x + ck
        assert poly_eval(p, float(x)) == pytest.approx(ref, rel=1e-13, abs=1e-13)


def test_derivative_and_axpy():
    assert poly_derivative(Poly([3.0])).is_zero
    d = poly_derivative(Poly([1.0, -3.75, 3.0]))
    assert np.allclose(d.coeffs, [-3.75, 6.0])


def test_degree_bookkeeping():
    assert Poly([0.0]).degree == -1
    assert Poly([0.0, 0.0]).degree == -1
    assert Poly([1.0, 2.0, 0.0]).degree == 1
    assert Poly([1.0, 2.0, 0.0]).coeffs.shape == (2,)
    assert Poly([1.0 + 0j, 2.0 + 0j]).is_real  # pure-real complex input demoted


def test_immutability():
    p = Poly([1.0, 2.0])
    with pytest.raises(AttributeError):
        p.coeffs = np.array([3.0])
    with pytest.raises(ValueError):
        p.coeffs[0] = 5.0


def test_poly_arithmetic():
    a = Poly([1.0, 2.0])
    b = Poly([3.0, 0.0, 1.0])
    assert np.allclose((a + b).coeffs, [4.0, 2.0, 1.0])
    assert np.allclose((b - a).coeffs, [2.0, -2.0, 1.0])
    assert np.allclose((a * b).coeffs, [3.0, 6.0, 1.0, 2.0])
    assert np.allclose(a.shift_up(2).coeffs, [0.0, 0.0, 1.0, 2.0])
    assert math.isclose((2.0 * a)(1.0), 6.0)


_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1e300, math.inf, math.nan])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=st.integers(0, 4),
    cols=st.integers(0, 6),
    complex_=st.booleans(),
    data=st.data(),
)
def test_rows_match_per_row_construction(rows, cols, complex_, data):
    def draw_matrix():
        return np.array(
            data.draw(st.lists(_ENTRIES, min_size=rows * cols, max_size=rows * cols)),
            dtype=float,
        ).reshape(rows, cols)

    mat = draw_matrix()
    if complex_:
        # some rows keep an imaginary part of zeros (signed ones included)
        # and must come back real
        imag = draw_matrix()
        real_rows = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        imag[real_rows] = np.copysign(0.0, imag[real_rows])
        mat = mat.astype(complex)
        mat.imag = imag
    got = Poly.rows(mat)
    want = [Poly(row) for row in mat]
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert p.coeffs.dtype == q.coeffs.dtype
        assert len(p.coeffs) == len(q.coeffs)
        assert p.coeffs.tobytes() == q.coeffs.tobytes()
        assert not p.coeffs.flags.writeable


def test_rows_rejects_non_matrix():
    with pytest.raises(ValueError):
        Poly.rows([1.0, 2.0])
