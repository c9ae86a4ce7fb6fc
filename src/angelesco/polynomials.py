"""Type I vectors for the Angelesco system on the r-star.

The measures live on the star segments [0, omega^(j-1)], j = 1..r, with
weight |x|^beta (1-x^r)^alpha.  Everything is assembled from one real
polynomial family

    p_n(x) = sum_k  C(n,k) (-1)^(n-k)
             Gamma(n+alpha+(beta+k)/r+1) /
             [Gamma(n+alpha+1) Gamma((beta+k)/r+1)]  x^k,

whose rotations and beta-shifts produce the type I vectors at the diagonal
multi-index (n,...,n) and one step above/below it.

Every double-precision coefficient list, p_n and each row of the type I
tables, runs on one chain kernel.  With c_t = (-1)^(N-t) C(N, t) q_t and
an exact integer binomial, entries of a list built on beta' = beta - d
differ within a residue class t mod r by an exact rational factor,

    q_(t+r) / q_t = [r(N + alpha + 1) + beta' + t] / (beta' + t + r).

The chain runs from the top down, so ``gamma_ratio`` runs only at its
heads: the top r entries, and every t whose factor has a negative integer
part (which covers the steps where it is exactly 0).  The two sides of
the lowering identity take their heads at the same positions with the
same large gamma arguments, so the heads' rounding cancels between them.
Each head is one fused gamma-ratio call (normalization constants folded
in), so parameter combinations where the normalizer vanishes while a
polynomial coefficient blows up, e.g. r=1 with alpha+beta = -1, evaluate
to their finite limit instead of inf*0.  Every gamma argument is rounded
once from its exact value, with X = r(1 + alpha) + (1 + beta) carried as a
two-double sum, and a step's factor adds nonnegative integers to X and to
1 + beta, so arguments and factors near alpha, beta -> -1 keep their
relative precision.  A table entry too large for the assembly, or an X or
beta that absorbs an added 1, raises :class:`DoubleRangeError`; the
normalizers take the same guard on X and beta.

The vectors at (n,...,n) +/- e_k depend on the ray k only through
root-of-unity phases.  Their level tables (the r combinations of the up
family, the two coefficient rows of the down family) are built once per
level, and one gather of phases from the one table of roots of unity and
one elementwise product turn each family's into the r per-ray tables of
the level at once: an r x r x w read-only stack, in a memo of a few
levels.  The vector at ray k copies row k-1 of it as its read-only
``coeffs``; ``type1_up_stack`` and ``type1_down_stack`` hand out the whole
stack, under the constructors' guards.  The diagonal's row is memoized the
same way, so the checks of one level build it once.  ``base_poly``
returns p_n's read-only coefficient array itself.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .numerics import (
    DegenerateParameters,
    DoubleRangeError,
    gamma_ratio,
    roots_of_unity,
)

__all__ = [
    "DEGREE_CAP",
    "DegreeCapError",
    "Params",
    "MultiIndexTag",
    "TypeIVector",
    "Constants",
    "base_poly",
    "base_coeffs_mp",
    "coeff_error_units",
    "leading_coefficient",
    "normalization_constants",
    "diagonal_normalizer",
    "up_normalizer",
    "down_normalizer",
    "type1_diagonal",
    "type1_up",
    "type1_down",
    "type1_up_stack",
    "type1_down_stack",
]

# Coefficients grow combinatorially with n; the cap bounds the degree that
# every constructor and CLI command accepts (the root finder works in
# extended precision at every degree, see zeros.py).
DEGREE_CAP = 60


class DegreeCapError(ValueError):
    def __init__(self, n, cap=DEGREE_CAP):
        super().__init__(f"degree {n} exceeds the supported cap {cap}")
        self.n = n
        self.cap = cap


def _check_cap(n):
    if n > DEGREE_CAP:
        raise DegreeCapError(n)


@dataclass(frozen=True)
class Params:
    """Weight parameters: ray count r >= 1 and exponents alpha, beta > -1."""

    r: int
    alpha: float
    beta: float

    def __post_init__(self):
        if not (isinstance(self.r, (int, np.integer)) and self.r >= 1):
            raise ValueError(f"r must be an integer >= 1, got {self.r!r}")
        if not (math.isfinite(self.alpha) and self.alpha > -1.0):
            raise ValueError(f"alpha must be finite and > -1, got {self.alpha!r}")
        if not (math.isfinite(self.beta) and self.beta > -1.0):
            raise ValueError(f"beta must be finite and > -1, got {self.beta!r}")


@dataclass(frozen=True)
class MultiIndexTag:
    """Diagonal level n with an offset: the multi-index is (n,...,n),
    (n,...,n)+e_k ('plus') or (n,...,n)-e_k ('minus')."""

    n: int
    kind: str  # "diagonal" | "plus" | "minus"
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("diagonal", "plus", "minus"):
            raise ValueError(f"unknown multi-index kind {self.kind!r}")
        if self.kind == "diagonal":
            if self.n < 1:
                raise ValueError("diagonal level must be >= 1")
            if self.k is not None:
                raise ValueError("diagonal index carries no ray")
        else:
            if self.k is None or self.k < 1:
                raise ValueError("plus/minus index needs a ray k >= 1")
            if self.kind == "minus" and self.n < 1:
                raise ValueError("minus index needs level n >= 1")
            if self.kind == "plus" and self.n < 0:
                raise ValueError("plus index needs level n >= 0")

    def size(self, r):
        """|n| = sum of the multi-index entries."""
        if self.kind == "diagonal":
            return r * self.n
        if self.kind == "plus":
            return r * self.n + 1
        return r * self.n - 1


class TypeIVector:
    """The r polynomials (A_1, ..., A_r) of a type I vector.

    ``coeffs`` is one read-only r x w coefficient table: row j-1 holds A_j,
    the polynomial attached to the segment [0, omega^(j-1)], and column t
    its x^t coefficient.  The width w is the level n for diagonal and down
    vectors, n+1 for up vectors, and 1 for the empty down index (r = 1,
    n = 1).  Rows are not trimmed: the down vector's row k keeps its exactly
    cancelled top coefficient as a zero.  Diagonal vectors additionally keep
    their real base row in ``base``: every entry is an exact rotation of it.
    """

    __slots__ = ("params", "tag", "coeffs", "base")

    def __init__(self, params, tag, coeffs, base=None):
        coeffs = np.array(coeffs)
        if coeffs.ndim != 2 or len(coeffs) != params.r:
            raise ValueError("need an r-row coefficient table, one row per ray")
        coeffs.setflags(write=False)
        self.params = params
        self.tag = tag
        self.coeffs = coeffs
        self.base = base

    @property
    def size(self):
        return self.tag.size(self.params.r)

    def nominal_degrees(self):
        """Exact degrees the construction is expected to produce."""
        r, n = self.params.r, self.tag.n
        if self.tag.kind == "diagonal":
            return [n - 1] * r
        if self.tag.kind == "plus":
            return [n if j == self.tag.k else n - 1 for j in range(1, r + 1)]
        return [n - 2 if j == self.tag.k else n - 1 for j in range(1, r + 1)]

    def degrees(self, rel_tol=1e-10):
        """Observed degrees, ignoring leading coefficients below ``rel_tol``
        times the entry's coefficient scale (storage is never truncated)."""
        out = []
        for c in self.coeffs:
            mags = np.abs(c)
            scale = mags.max()
            deg = -1
            for k in range(len(mags) - 1, -1, -1):
                if mags[k] > rel_tol * scale:
                    deg = k
                    break
            out.append(deg)
        return out

    def __repr__(self):
        return f"TypeIVector(r={self.params.r}, tag={self.tag!r})"


@dataclass(frozen=True)
class Constants:
    """Normalization constants at level n: diagonal lambda, up tau,
    down gamma, and the leading coefficient nu of the base polynomial."""

    lambda_diag: float
    tau_up: float
    gamma_down: float
    nu_leading: float


# ---------------------------------------------------------------------------
# base family
# ---------------------------------------------------------------------------


def _base_head(n, params):
    # X's hi and the head of p_n's chain: q_t = Gamma(n + alpha + s_t + 1) /
    # [Gamma(n + alpha + 1) Gamma(s_t + 1)], s_t = (beta + t)/r
    r, a, b = params.r, params.alpha, params.beta
    hi, lo = _affine(params)

    def head(t):
        return gamma_ratio([math.fsum((r * n + t - 1, hi, lo)) / r], [n + 1 + a, (t + r + b) / r])

    return hi, head


def base_poly(n, params):
    """The degree-n member of the real kernel family p_n(.; alpha, beta)."""
    _check_cap(n)
    hi, head = _base_head(n, params)
    return _table(_chain(n, params.r, 0, hi, params.beta, head), params.r)


def base_coeffs_mp(n, params):
    """Coefficients c_0..c_n of p_n as mpmath numbers, evaluated from the
    closed form at the caller's working precision (``mp.workdps``; at least
    53 bits, which hold alpha and beta exactly).

    This is the one extended-precision copy of the formula; the zero finder
    builds on it.  With s_k = (beta + k)/r, the quotient
    R_k = Gamma(n + alpha + s_k + 1) / Gamma(s_k + 1) advances along each
    chain k = j, j + r, j + 2r, ... by a rising factor,

        R_(k+r) = R_k (n + alpha + s_k + 1) / (s_k + 1)
                = R_k (r (n + alpha + 1) + beta + k) / (beta + k + r),

    so the gamma function runs only at the chain heads k < r and once for
    Gamma(n + alpha + 1): 2 min(r, n + 1) + 1 calls.  The binomials are
    exact integers (C(n, k+1) = C(n, k) (n - k)/(k + 1)).

    Error model, at w working bits: the factor's numerator and denominator
    are exact sums of doubles and integers, and the gamma arguments carry
    enough guard bits that their rounding moves a gamma by at most one unit
    of 2^-w.  Counting two units for the gamma function itself, one for
    each argument, and one for each product and quotient, every c_k has
    relative error at most ``coeff_error_units(n, r) * 2^-w``; the zero
    finder's rounding test relies on that bound.
    """
    import mpmath as mp

    r = params.r
    a = mp.mpf(params.alpha)
    b = mp.mpf(params.beta)
    top = mp.fadd(mp.fmul(r, a, exact=True), r * (n + 1), exact=True)  # r (n + alpha + 1)
    # every gamma argument y lies in (0, (top + beta + r)/r], where
    # y |psi(y)| <= (y + 1)^2
    guard = 2 * (int((top + b + r) / r) + 2).bit_length() + 1
    arg_prec = mp.mp.prec + guard
    quot = []
    for k in range(n + 1):
        if k < r:
            bk = mp.fadd(b, k, exact=True)
            y = mp.fdiv(mp.fadd(top, bk, exact=True), r, prec=arg_prec)  # n + alpha + s_k + 1
            s1 = mp.fdiv(mp.fadd(bk, r, exact=True), r, prec=arg_prec)  # s_k + 1
            quot.append(mp.gamma(y) / mp.gamma(s1))
        else:
            bj = mp.fadd(b, k - r, exact=True)
            quot.append(quot[k - r] * mp.fadd(top, bj, exact=True) / mp.fadd(bj, r, exact=True))
    g = mp.gamma(mp.fadd(a, n + 1, exact=True))
    out = []
    binom = 1
    for k in range(n + 1):
        v = binom * quot[k] / g
        out.append(v if (n - k) % 2 == 0 else -v)
        binom = binom * (n - k) // (k + 1)
    return out


def coeff_error_units(n, r):
    """K of the error model of :func:`base_coeffs_mp`: each coefficient of
    p_n has relative error at most K 2^-w at w working bits.  A chain head
    costs 3 + 3 + 1 units (two gammas with their arguments, one quotient),
    each of the at most floor(n/r) chain steps 2 (a product and a
    quotient), and the last step 4 (the product with the binomial, the
    quotient by Gamma(n + alpha + 1) and that gamma's 2).  That makes
    2 floor(n/r) + 11; the bound leaves 5 units for second-order terms."""
    return 2 * (n // r) + 16


def leading_coefficient(n, params):
    """Leading coefficient nu_n of p_n: the head of its chain at t = n."""
    return _base_head(n, params)[1](n)


def diagonal_normalizer(level, params):
    """lambda at diagonal level: (1/r) (r(level-1)+r*alpha+beta+r)_level / (level-1)!."""
    if level < 1:
        raise ValueError("diagonal level must be >= 1")
    _affine(params)  # the constructors' range guard; its sum is not needed here
    m = level - 1
    r, a, b = params.r, params.alpha, params.beta
    pb = r * m + r * a + b + r
    return gamma_ratio([(pb + level, r)], [(pb, r), m + 1.0]) / r


def up_normalizer(n, params):
    """tau at level n, the normalizer of the above-diagonal combination."""
    _affine(params)
    r, a, b = params.r, params.alpha, params.beta
    return r * gamma_ratio(
        [n + 1.0, n + a + 1.0, (b + n + 1.0) / r, (r * n + r * a + b + 1.0, r)],
        [n + a + (b + n + 1.0) / r, (r * n + n + r * a + b + 2.0, r)],
    )


def down_normalizer(n, params):
    """gamma at level n, the normalizer of the below-diagonal combination."""
    if n < 1:
        raise ValueError("down_normalizer needs n >= 1")
    _affine(params)
    r, a, b = params.r, params.alpha, params.beta
    db = r * n + r * a + b - 1.0
    return r * gamma_ratio(
        [n + 0.0, n + a + (n + b - 1.0) / r, (db, r)],
        [n + a, (n + b - 1.0) / r + 1.0, (db + n, r)],
    )


def normalization_constants(n, params):
    try:
        gamma = down_normalizer(n, params) if n >= 1 else math.nan
    except DegenerateParameters:
        gamma = math.nan  # empty minus index (r=1, n=1): no normalizer exists
    return Constants(
        lambda_diag=diagonal_normalizer(n, params),
        tau_up=up_normalizer(n, params),
        gamma_down=gamma,
        nu_leading=leading_coefficient(n, params),
    )


# ---------------------------------------------------------------------------
# type I vectors
# ---------------------------------------------------------------------------


def _affine(params):
    # X = r(1 + alpha) + (1 + beta) as an unevaluated sum hi + lo of two
    # doubles; every gamma argument with an alpha is an integer plus X, and
    # every other one an integer plus beta, so both must keep that integer
    r, a, b = params.r, params.alpha, params.beta
    terms = [r + 1.0, b] + [a] * r
    try:
        hi = math.fsum(terms)
    except OverflowError:
        hi = math.inf
    if hi + 1 == hi or b + 1 == b:
        raise DoubleRangeError(f"r(1 + alpha) + (1 + beta) or beta absorbs 1 at {params!r}")
    terms.append(-hi)
    return hi, math.fsum(terms)


def _chain(N, r, d, hi, beta, head):
    # Entries t = 0..N of a fused list (-1)^(N-t) C(N,t) q_t, with q_t =
    # Gamma(N + alpha + s_t + 1)/Gamma(s_t + 1), s_t = (beta - d + t)/r, times
    # factors free of t.  From the top down, q_t is q_(t+r) divided by the
    # step's factor (kn + X)/(kd + beta); head(t), the fused gamma-ratio value
    # of q_t, runs at the top r entries and wherever kn < 0 or kd <= 0.
    q = [0.0] * (N + 1)
    for t in range(N, -1, -1):
        kn, kd = r * N - 1 - d + t, t + r - d
        if t > N - r or kn < 0 or kd <= 0:
            q[t] = head(t)
        else:
            q[t] = q[t + r] / ((kn + hi) / (kd + beta))
    return [(-1) ** (N - t) * math.comb(N, t) * q[t] for t in range(N + 1)]


def _table(rows, r):
    # read-only float table; the assembly adds up to r entries times unit
    # phases, which stays finite below a quarter of the double range over r
    table = np.array(rows, dtype=float)
    if not np.abs(table).max() <= sys.float_info.max / (4 * r):
        raise DoubleRangeError("a type I coefficient leaves the double range")
    table.setflags(write=False)
    return table


@lru_cache(maxsize=4)
def _diagonal_base(level, params):
    # lambda * p_(level-1) on the chain; the table is read-only, so every
    # call at the level shares it
    r, a, b = params.r, params.alpha, params.beta
    m = level - 1
    hi, lo = _affine(params)
    pb = math.fsum((r * m - 1, hi, lo))  # r m + r alpha + beta + r
    pbl = math.fsum((r * m - 1 + level, hi, lo))  # pb + level

    def head(t):
        return gamma_ratio(
            [(pbl, r), math.fsum((r * m + t - 1, hi, lo)) / r],
            [(pb, r), m + 1 + a, (t + r + b) / r, m + 1.0],
        ) / r

    return _table(_chain(m, r, 0, hi, b, head), r)


def type1_diagonal(level, params):
    """Type I vector at the diagonal multi-index (level, ..., level).

    Entry j is lambda * p_(level-1)(omega^(-j+1) x); the normalizer is fused
    into the coefficients, so entries stay finite where lambda alone would
    vanish against a pole of p.  The fused row is built once per level (a
    memo of a few levels, read-only) and shared by the r rays' checks.
    """
    if level < 1:
        raise ValueError("diagonal level must be >= 1")
    _check_cap(level - 1)
    r = params.r
    base = _diagonal_base(level, params)
    # row j - 1 is base(omega^(-(j-1)) x)
    phases = roots_of_unity(r)[(-np.arange(r)[:, None] * np.arange(len(base))) % r]
    return TypeIVector(params, MultiIndexTag(level, "diagonal"), base * phases, base=base)


def _up_combos(n, params):
    # combos[l, t]: coefficient t of A_l, shared by every ray k of level n.
    # ratio[m, t] is coefficient t of p_n(.; beta-m) / (tau * nu^(beta-m)) on
    # the chain of beta - m.  Its head at t = n takes the m-dependent gamma
    # pair from the same expressions as numerator and denominator, so they
    # cancel exactly and that entry is the same for every m: this is what
    # makes the degree drop structural.
    r, a, b = params.r, params.alpha, params.beta
    hi, lo = _affine(params)
    n1 = n + 1 + a
    # the gamma arguments of 1/tau, numerator and denominator
    tau_num = [math.fsum((r * n + n - r, hi, lo)) / r, (math.fsum((r * n + n - r + 1, hi, lo)), r)]
    tau_den = [(n + 1 + b) / r, (math.fsum((r * n - r, hi, lo)), r)]

    def head(m, t):
        y = math.fsum((r * n - m + t - 1, hi, lo)) / r  # n + alpha + (beta - m + t)/r + 1
        yn = math.fsum((r * n - m + n - 1, hi, lo)) / r  # the same at t = n
        return gamma_ratio(
            [y, (n - m + r + b) / r] + tau_num,
            [n1, (t - m + r + b) / r, yn] + tau_den + [n + 1.0],
        ) / r

    ratio = [_chain(n, r, m, hi, b, partial(head, m)) for m in range(r)]
    lm = np.arange(r)
    return roots_of_unity(r)[(lm[:, None] * lm) % r] @ _table(ratio, r)


@lru_cache(maxsize=4)
def _up_stack(n, params):
    # the r x r x (n+1) tables of every ray of level n, read-only: ray k's
    # row j - 1 is A_((j-k) mod r) times its phases omega^(-(j-1) t - (k-1)).
    # No libm call may come between the combinations' complex matrix product
    # and this elementwise product: after an OpenBLAS complex product, libm
    # runs 3-5 times slower (lgamma included) until a numpy vector op runs
    r = params.r
    k, j = np.arange(r)[:, None], np.arange(r)  # k - 1 and j - 1
    phases = roots_of_unity(r)[(-j[:, None] * np.arange(n + 1) - k[:, :, None]) % r]
    stack = _up_combos(n, params)[(j - k) % r] * phases
    stack.setflags(write=False)
    return stack


def _check_ray(k, r):
    if not 1 <= k <= r:
        raise ValueError(f"ray k must be in 1..{r}")


def _check_up(n):
    if n < 0:
        raise ValueError("type1_up needs n >= 0")
    _check_cap(n + 1)


def type1_up(n, k, params):
    """Type I vector one step above the diagonal: multi-index (n,..,n)+e_k.

    Built from the r combinations A_l(x) = (1/tau) sum_m omega^(l m)
    p_n(x; alpha, beta-m)/nu_n^(beta-m); entry j is then
    A_((j-k) mod r)(omega^(-j+1) x) omega^(-k+1).  The leading coefficient
    of A_l for l != 0 cancels exactly by the root-of-unity sum.

    The combinations do not depend on k: level n builds their r x (n+1)
    table once and applies every ray's phases in one product, into an
    r x r x (n+1) stack (a memo of a few levels, read-only); ray k copies
    row k-1.
    """
    _check_up(n)
    _check_ray(k, params.r)
    return TypeIVector(params, MultiIndexTag(n, "plus", k), _up_stack(n, params)[k - 1])


def type1_up_stack(n, params):
    """The coefficient tables of every up vector of level n as one
    read-only r x r x (n+1) stack: entry k-1 is ``type1_up(n, k).coeffs``.
    The stack is the memoized one the vectors copy from; the guards are
    ``type1_up``'s."""
    _check_up(n)
    return _up_stack(n, params)


def _down_terms(n, params):
    # t1 = nu^(beta) coef_t(p_(n-1); beta-1) / gamma and
    # t2 = nu^(beta-1) coef_t(p_(n-1); beta) / gamma, each on its chain;
    # shared by every ray k of level n.  t2's head at t = n-1 takes its two
    # t-dependent gamma pairs from the expressions of their t-independent
    # partners, so it equals t1's head there bitwise and the degree drop on
    # ray k is exact.
    r, a, b = params.r, params.alpha, params.beta
    hi, lo = _affine(params)
    db = math.fsum((r * n - r - 2, hi, lo))  # r n + r alpha + beta - 1
    dbn = math.fsum((r * n - r - 2 + n, hi, lo))
    na = n + a

    def y(k):  # (k + X)/r
        return math.fsum((k, hi, lo)) / r

    def head1(t):
        return gamma_ratio(
            [(dbn, r), y(r * n - r - 2 + t)],
            [(db, r), na, (t - 1 + r + b) / r, n + 0.0],
        ) / r

    def head2(t):
        return gamma_ratio(
            [(n - 1 + r + b) / r, (dbn, r), y(r * n - r - 3 + n), y(r * n - r - 1 + t)],
            [dbn / r, (db, r), (n - 2 + r + b) / r, na, (t + r + b) / r, n + 0.0],
        ) / r

    return (
        _table(_chain(n - 1, r, 1, hi, b, head1), r),
        _table(_chain(n - 1, r, 0, hi, b, head2), r),
    )


@lru_cache(maxsize=4)
def _down_stack(n, params):
    # the r x r x n tables of every ray of level n, read-only: ray k's row
    # j - 1 is omega^(-(j-1) t) (omega^(j-1) t1 - omega^(k-1) t2)
    t1, t2 = _down_terms(n, params)
    roots = roots_of_unity(params.r)
    phases = roots[(-np.arange(params.r)[:, None] * np.arange(n)) % params.r]
    stack = phases * (roots[:, None] * t1 - roots[:, None, None] * t2)
    stack.setflags(write=False)
    return stack


def _check_down(n):
    if n < 1:
        raise ValueError("type1_down needs n >= 1")
    _check_cap(n - 1)


def type1_down(n, k, params):
    """Type I vector one step below the diagonal: multi-index (n,..,n)-e_k.

    gamma * A_j(x) = omega^(j-1) nu^(beta) p_(n-1)(omega^(-j+1)x; beta-1)
                   - omega^(k-1) nu^(beta-1) p_(n-1)(omega^(-j+1)x; beta);
    on ray j = k the two leading terms coincide and the degree drops to n-2.
    For r = 1, n = 1 the multi-index is empty and the vector is zero.

    The two fused coefficient rows do not depend on k: level n builds them
    once and applies every ray's phases in one product, into an r x r x n
    stack (a memo of a few levels, read-only); ray k copies row k-1.
    """
    _check_down(n)
    _check_ray(k, params.r)
    tag = MultiIndexTag(n, "minus", k)
    if n == 1 and params.r == 1:
        # empty multi-index: the zero vector, whose normalizer would be singular
        return TypeIVector(params, tag, np.zeros((1, 1)))
    return TypeIVector(params, tag, _down_stack(n, params)[k - 1])


def type1_down_stack(n, params):
    """The coefficient tables of every down vector of level n as one
    read-only r x r x n stack: entry k-1 is ``type1_down(n, k).coeffs``.
    The stack is the memoized one the vectors copy from; the guards are
    ``type1_down``'s.  At r = 1, n = 1, the empty index, ``type1_down``
    returns its zero vector without reading the stack."""
    _check_down(n)
    return _down_stack(n, params)

