"""Independent two-interval (r=2) reference constructions in 40-digit
arithmetic, used as oracles by the unit and acceptance tests.

Convention: the pair (A, B) lives on [-1,0] and [0,1] with the real-line
orientation; against the star construction this means B = ray 1 and
A = minus ray 2.
"""

import mpmath as mp
import numpy as np


def mp_p_r2(n, a, b):
    """Coefficients of the r=2 kernel polynomial from its closed form."""
    with mp.workdps(40):
        a, b = mp.mpf(a), mp.mpf(b)
        return [
            float(
                mp.binomial(n, k)
                * mp.gamma(n + a + (b + k) / 2 + 1)
                / (mp.gamma(n + a + 1) * mp.gamma((b + k) / 2 + 1))
                * (-1) ** (n - k)
            )
            for k in range(n + 1)
        ]


def mp_r2_pair(n, a, b, which):
    """(A, B) coefficient lists at the three index offsets:
    'diag' -> (A_{n+1,n+1}, B_{n+1,n+1}), 'up' -> (A_{n,n+1}, B_{n,n+1}),
    'down' -> (A_{n+1,n}, B_{n+1,n})."""
    with mp.workdps(40):
        a, b = mp.mpf(a), mp.mpf(b)

        def pc(m, bb):
            return [
                mp.binomial(m, k)
                * mp.gamma(m + a + (bb + k) / 2 + 1)
                / (mp.gamma(m + a + 1) * mp.gamma((bb + k) / 2 + 1))
                * (-1) ** (m - k)
                for k in range(m + 1)
            ]

        def reflect(c):
            return [ci * (-1) ** i for i, ci in enumerate(c)]

        if which == "diag":
            lam = mp.rf(2 * a + b + 2 * n + 2, n + 1) / (2 * mp.factorial(n))
            bpoly = [lam * ci for ci in pc(n, b)]
            apoly = [-ci for ci in reflect(bpoly)]
        else:
            nu1 = mp.gamma(n + a + (b + n) / 2 + 1) / (
                mp.gamma(n + a + 1) * mp.gamma((b + n) / 2 + 1)
            )
            nu2 = mp.gamma(n + a + (b + n + 1) / 2) / (
                mp.gamma(n + a + 1) * mp.gamma((b + n + 1) / 2)
            )
            gam = 2 * mp.factorial(n) * nu1 / mp.rf(2 * n + 2 * a + b + 1, n + 1)
            q = pc(n, b - 1)
            p = pc(n, b)
            down = [(nu1 * qq - nu2 * pp) / gam for qq, pp in zip(q, p)]  # B_{n+1,n}
            up = [(nu1 * qq + nu2 * pp) / gam for qq, pp in zip(q, p)]  # B_{n,n+1}
            if which == "up":
                bpoly, apoly = up, reflect(down)
            else:
                bpoly, apoly = down, reflect(up)
        return [float(x) for x in apoly], [float(x) for x in bpoly]


def r2_recurrence_a(n, alpha, beta):
    """Two-interval (r=2, real-line) diagonal coefficient a_{n,n}; equals
    coeff_a at r=2.  Translation: the real-line set (a, b, c, d) maps to the
    star profiles via a = b = coeff_a, c = coeff_b, d = -c, with star phases
    omega^(2(k-1)) = 1 and omega^(k-1) = +/-1."""
    s = 3 * n + 2 * alpha + beta
    return n * (n + alpha) * (2 * n + 2 * alpha + beta) / ((s + 1.0) * s * (s - 1.0))


def r2_recurrence_c(n, alpha, beta):
    """Two-interval (r=2, real-line) off-diagonal coefficient c_{n-1,n};
    equals coeff_b at r=2 (and d_{n,n-1} = -c_{n-1,n})."""
    with mp.workdps(40):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        pre = (2 * n + 2 * a + b - 1) / (3 * n + 2 * a + b - 1)
        gr = (
            mp.gamma(n + a + (n + b) / 2 - 1)
            * mp.gamma((n + b + 1) / 2)
            / (mp.gamma(n + a + (n + b - 1) / 2) * mp.gamma((n + b) / 2))
        )
        return float(pre * gr)


def coeffs_match(got, want, rel):
    """Coefficientwise agreement relative to the oracle's largest coefficient."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    n = max(len(got), len(want))
    g = np.zeros(n, dtype=complex)
    w = np.zeros(n, dtype=complex)
    g[: len(got)] = got
    w[: len(want)] = want
    scale = max(np.abs(w).max(), 1e-300)
    return float(np.abs(g - w).max() / scale) <= rel
