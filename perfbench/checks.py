"""Output checks, run outside the timed region.

Each check reads what the program printed (or returned, for direct calls)
and tests it against a reference that does not reuse the code path under
test: the zeros of p_n are re-checked in mpmath from the paper's closed form,
densities against the r = 2 radical form or the trigonometric density.

The cheap checks run right after an item (``workloads.check_outcome``) and
return a ``Report``; the checks that need mpmath or the library's density
run after the loop, in ``run_deferred``, so they do not sit between timed
items.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import mpmath as mp
import numpy as np

# Pinned by the acceptance suite (tests/test_acceptance.py).
KS_MAX = 0.049
KS_FROM_N = 40
PERRON_TOL = 1e-6
CLOSED_R2_TOL = 1e-10
ENDPOINT_TOL = 0.02
# The zero finder documents extended precision from n = 13 on; there the
# reported doubles must sit on the true zeros.  Below it the documented claim
# is backward stability: a residual of at most 1e-10 relative to the local
# term sum sum |c_k| x^k, which both paths also meet.
EXTENDED_FROM_N = 13
ZERO_FORWARD_TOL = 1e-12
ZERO_RESIDUAL_TOL = 1e-10
# measured branch residuals stay below 1e-14
BRANCH_RESIDUAL_TOL = 1e-12


class CheckFailed(Exception):
    """An output failed a check; ``level`` names where, when it has one."""

    def __init__(self, reason, level=None):
        super().__init__(reason)
        self.reason = reason
        self.level = level


@dataclass
class Report:
    """What the checks learned from one item.

    ``levels`` holds (n, worst_residual, passed) per verify level;
    ``deferred`` the data of a check that runs after the loop.
    """

    suite: str | None = None
    levels: list = field(default_factory=list)
    deferred: tuple | None = None

    @property
    def failing_levels(self):
        return [n for n, _, ok in self.levels if not ok]


def _floats(row, width, where):
    parts = row.split(",")
    if len(parts) != width:
        raise CheckFailed(f"expected {width} fields, got {row!r}", where)
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise CheckFailed(f"unparsable row {row!r}", where) from None


def _arg(argv, flag, cast=str, default=None):
    return cast(argv[argv.index(flag) + 1]) if flag in argv else default


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def check_verify(argv, code, text):
    """Level lines n = 1..n-max, each verdict consistent with its residual
    and the tolerance, an overall line that agrees, and the exit code the
    CLI documents (0 all pass, 1 some level failed)."""
    suite = _arg(argv, "--suite")
    n_max = _arg(argv, "--n-max", int)
    tol = _arg(argv, "--tol", float, 1e-9)
    lines = text.splitlines()
    if len(lines) != n_max + 1:
        raise CheckFailed(f"expected {n_max + 1} lines, got {len(lines)}")
    report = Report(suite=suite)
    for n, line in enumerate(lines[:-1], start=1):
        parts = line.split()
        if (
            len(parts) != 4
            or parts[0] != f"suite={suite}"
            or parts[1] != f"n={n}"
            or not parts[2].startswith("worst_residual=")
            or parts[3] not in ("pass", "FAIL")
        ):
            raise CheckFailed(f"malformed level line {line!r}", f"n={n}")
        res = float(parts[2].split("=", 1)[1])
        ok = parts[3] == "pass"
        if ok != (res <= tol):
            raise CheckFailed(f"verdict {parts[3]} disagrees with residual {res:g}", f"n={n}")
        report.levels.append((n, res, ok))
    all_pass = not report.failing_levels
    want = f"suite={suite} overall={'pass' if all_pass else 'FAIL'}"
    if lines[-1] != want:
        raise CheckFailed(f"overall line {lines[-1]!r}, expected {want!r}")
    if code != (0 if all_pass else 1):
        raise CheckFailed(f"exit code {code} for overall {'pass' if all_pass else 'FAIL'}")
    return report


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------


def check_zeros(argv, code, text):
    """Header, exactly n zeros numbered 1..n, strictly increasing in (0,1);
    the sign and accuracy checks against p_n are deferred."""
    n = _arg(argv, "--n", int)
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    lines = text.splitlines()
    if not lines or lines[0] != "i,x":
        raise CheckFailed("missing i,x header")
    if len(lines) != n + 1:
        raise CheckFailed(f"expected {n} zeros, got {len(lines) - 1}")
    zeros = []
    for i, line in enumerate(lines[1:], start=1):
        idx, x = _floats(line, 2, f"i={i}")
        if idx != i:
            raise CheckFailed(f"row {i} is numbered {idx:g}", f"i={i}")
        zeros.append(x)
    z = np.array(zeros)
    if not (np.all(z > 0.0) and np.all(z < 1.0)):
        raise CheckFailed("zero outside (0,1)")
    if not np.all(np.diff(z) > 0.0):
        raise CheckFailed("zeros not strictly increasing")
    r = _arg(argv, "--r", int)
    a = _arg(argv, "--alpha", float, 0.0)
    b = _arg(argv, "--beta", float, 0.0)
    return Report(deferred=("zeros", r, a, b, n, tuple(zeros)))


class ClosedForm:
    """p_n(.; alpha, beta) in mpmath from the closed form

        c_k = C(n,k) (-1)^(n-k) Gamma(n+a+(b+k)/r+1) / [Gamma(n+a+1) Gamma((b+k)/r+1)],

    with the gamma quotient advanced by k -> k+r through
    Gamma(y+1+s)/Gamma(y+1) = (y+s)/y * Gamma(y+s)/Gamma(y).
    Coefficient vectors are cached per (n, r, alpha, beta)."""

    def __init__(self):
        self._cache = {}

    @staticmethod
    def dps(n):
        # the monomial-basis root condition reaches 1e65 at n = 60
        return 40 + 2 * n

    def coeffs(self, n, r, a, b):
        key = (n, r, a, b)
        if key not in self._cache:
            with mp.workdps(self.dps(n)):
                am, bm = mp.mpf(a), mp.mpf(b)
                quot = []
                for k in range(n + 1):
                    if k < r:
                        y = (bm + k) / r + 1
                        quot.append(mp.gamma(n + am + y) / mp.gamma(y))
                    else:
                        y = (bm + k - r) / r + 1
                        quot.append(quot[k - r] * (n + am + y) / y)
                g = mp.gamma(n + am + 1)
                c = [
                    (-1) ** (n - k) * math.comb(n, k) * quot[k] / g
                    for k in range(n + 1)
                ]
            self._cache[key] = c
        return self._cache[key]


def check_zero_set(form, r, a, b, n, zeros):
    """p_n changes sign between consecutive midpoints (with 0 and 1 at the
    ends), every zero meets the residual claim, zeros in the extended range
    sit on the true zeros to ZERO_FORWARD_TOL, and from n = 40 on the KS
    distance to the limit CDF stays below the pinned threshold."""
    from angelesco.asymptotics import ks_distance

    c = form.coeffs(n, r, a, b)
    with mp.workdps(form.dps(n)):
        crev = c[::-1]
        dcrev = [c[k] * k for k in range(n, 0, -1)]
        absrev = [abs(v) for v in crev]
        mids = [0.0] + [0.5 * (zeros[i] + zeros[i + 1]) for i in range(n - 1)] + [1.0]
        signs = [mp.sign(mp.polyval(crev, mp.mpf(m))) for m in mids]
        for i in range(n):
            if signs[i] * signs[i + 1] >= 0:
                raise CheckFailed(f"p_n has no sign change around zero {i + 1}", f"i={i + 1}")
        for i, x in enumerate(zeros, start=1):
            xm = mp.mpf(x)
            px = mp.polyval(crev, xm)
            if abs(px) / mp.polyval(absrev, xm) > ZERO_RESIDUAL_TOL:
                raise CheckFailed(f"zero {i} residual above {ZERO_RESIDUAL_TOL:g}", f"i={i}")
            if n >= EXTENDED_FROM_N:
                step = abs(px / mp.polyval(dcrev, xm))
                if step > ZERO_FORWARD_TOL:
                    raise CheckFailed(f"zero {i} is {float(step):.3g} from p_n's zero", f"i={i}")
    if n >= KS_FROM_N:
        ks = ks_distance(SimpleNamespace(n=n, zeros=np.array(zeros)), r)
        if ks > KS_MAX:
            raise CheckFailed(f"KS distance {ks:.4f} above {KS_MAX}")


# ---------------------------------------------------------------------------
# limit density
# ---------------------------------------------------------------------------


def _check_curve(rows, where):
    x, u, F = (np.array(col) for col in zip(*rows))
    if not (np.all(x > 0.0) and np.all(x < 1.0) and np.all(np.diff(x) > 0.0)):
        raise CheckFailed("x not strictly increasing inside (0,1)", where)
    if not np.all(u > 0.0):
        raise CheckFailed("density not positive", where)
    if not np.all(np.diff(F) > 0.0):
        raise CheckFailed("CDF not strictly increasing", where)
    return x, u


def _check_closed_r2(x, u, where):
    from angelesco.asymptotics import u_closed_r2

    for xi, ui in zip(x, u):
        want = u_closed_r2(float(xi))
        if abs(ui - want) > CLOSED_R2_TOL * want:
            raise CheckFailed(f"u({xi:.6g}) off the r=2 closed form", where)


def check_density(argv, code, text):
    r = _arg(argv, "--r", int)
    samples = _arg(argv, "--samples", int)
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    lines = text.splitlines()
    if not lines or lines[0] != "x,u,F":
        raise CheckFailed("missing x,u,F header")
    if len(lines) != samples + 1:
        raise CheckFailed(f"expected {samples} rows, got {len(lines) - 1}")
    rows = [_floats(line, 3, f"row={i}") for i, line in enumerate(lines[1:], start=1)]
    x, u = _check_curve(rows, f"r={r}")
    if r == 2:
        _check_closed_r2(x, u, "r=2")
    return Report()


def check_figure2(argv, code, text):
    samples = _arg(argv, "--samples", int)
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    lines = text.splitlines()
    if not lines or lines[0] != "r,x,u,F":
        raise CheckFailed("missing r,x,u,F header")
    if len(lines) != 5 * samples + 1:
        raise CheckFailed(f"expected {5 * samples} rows, got {len(lines) - 1}")
    for r in range(1, 6):
        block = lines[1 + (r - 1) * samples : 1 + r * samples]
        rows = [_floats(line, 4, f"r={r}") for line in block]
        if any(row[0] != r for row in rows):
            raise CheckFailed("curve rows out of order", f"r={r}")
        _check_curve([row[1:] for row in rows], f"r={r}")
    return Report()


def check_perron(r, grid, values):
    """Deferred: Stieltjes-Perron recovery against the trigonometric density."""
    from angelesco.asymptotics import u_density

    for x, v in zip(grid, values):
        if abs(v - u_density(x, r)) > PERRON_TOL:
            raise CheckFailed(f"Perron density off u_density at x={x:.4g}", f"r={r}")


def check_branches(x, eps, branches):
    """Every branch solves z S^3 = (zS + 2)(zS - 1)^2; the Stieltjes branch
    S_2 has negative imaginary part above the cut, and at the closest point
    its boundary value recovers the r=2 closed-form density."""
    from angelesco.asymptotics import u_closed_r2

    for e, triple in zip(eps, branches):
        z = complex(x, e)
        for j, s in enumerate(triple, start=1):
            t1 = z * s**3
            t2 = (z * s + 2.0) * (z * s - 1.0) ** 2
            if abs(t1 - t2) > BRANCH_RESIDUAL_TOL * max(abs(t1), abs(t2)):
                raise CheckFailed(f"branch {j} misses the cubic at eps={e:g}", f"x={x:g}")
        if not triple[1].imag < 0.0:
            raise CheckFailed(f"S_2 not below the real axis at eps={e:g}", f"x={x:g}")
    want = u_closed_r2(x)
    got = -branches[-1][1].imag / math.pi
    if abs(got - want) > 1e-6 * want:
        raise CheckFailed("S_2 boundary value misses the r=2 density", f"x={x:g}")


def check_endpoints(r, slopes):
    s0, s1 = slopes
    if abs(s0 + 1.0 / (r + 1)) > ENDPOINT_TOL or abs(s1 + 0.5) > ENDPOINT_TOL:
        raise CheckFailed(f"endpoint slopes {s0:.4f}, {s1:.4f}", f"r={r}")


CLI_CHECKS = {
    "verify": check_verify,
    "zeros": check_zeros,
    "density": check_density,
    "figure2": check_figure2,
}


def run_deferred(reports):
    """Run every deferred check; returns [(index, CheckFailed)]."""
    form = ClosedForm()
    failures = []
    for i, report in reports:
        kind, *data = report.deferred
        try:
            if kind == "zeros":
                check_zero_set(form, *data)
            elif kind == "perron":
                check_perron(*data)
        except CheckFailed as exc:
            failures.append((i, exc))
    return failures
