import numpy as np
import pytest

from angelesco import poly_eval


def test_eval_examples():
    assert poly_eval([-1.0, 1.5], 2.0 / 3.0) == pytest.approx(0.0, abs=1e-16)
    assert poly_eval([1.0], 123.4) == 1.0
    assert poly_eval(np.array([0.0, 0.0, 1.0]), 1j) == pytest.approx(-1.0 + 0.0j)


def test_eval_matches_horner_on_benign_input():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(12)
    for x in rng.uniform(-1, 1, 8):
        ref = 0.0
        for ck in c[::-1]:
            ref = ref * x + ck
        assert poly_eval(c, float(x)) == pytest.approx(ref, rel=1e-13, abs=1e-13)
