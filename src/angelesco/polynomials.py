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
tables, runs on one chain kernel, ``_chain``.  A list on beta' = beta - d
has the entries c_t = (-1)^(N-t) C(N, t) q_t F: an exact integer binomial,
q_t the gamma quotient of p_N at beta', and a factor F free of t, passed
as the gamma arguments of r F: lambda for the diagonal, 1/(tau
nu_n(beta-m)) for up row m, nu_(n-1)(beta)/gamma and nu_(n-1)(beta-1)/gamma
for the down rows; p_n passes none.  nu_N at beta' is q_N (``_nu_args``).
Within a residue class t mod r, entries differ by an exact rational factor,

    q_(t+r) / q_t = [r(N + alpha + 1) + beta' + t] / (beta' + t + r).

The chain runs from the top down, so ``gamma_ratio`` runs only at its
heads: the top r entries, and every t whose factor has a negative integer
part (which covers the steps where it is exactly 0).  The two sides of
the lowering identity take their heads at the same positions with the
same large gamma arguments, so the heads' rounding cancels between them.
Each head is one gamma-ratio call over q_t's three arguments and r F,
divided by r (p_n's by 1).  The chain sums r F's log-gammas once
(``numerics.log_gamma_factor``, an exact expansion that each head's one
``fsum`` takes in place of F's terms, with F's poles, which
``gamma_ratio`` cancels and pairs with the head's own), so every head has
the bits of one call over all of its arguments.  So where a normalizer
vanishes while a coefficient blows up, e.g. r=1 with alpha+beta = -1, a
head evaluates to the finite limit instead of inf*0, and a q_t equal to
a nu in F cancels exactly: the degree drops are exact.
The signed binomials (-1)^(N-t) C(N, t) are memoized per N.  Every gamma
argument is rounded once from its exact value, with X = r(1 + alpha) +
(1 + beta) carried as a two-double sum, and a step's factor adds
nonnegative integers to X and to 1 + beta, so arguments and factors near
alpha, beta -> -1 keep their relative precision.  A table entry too
large for the assembly, or an X or beta that absorbs an added 1, raises
:class:`DoubleRangeError`; the normalizers take the same guard.  There is
no degree cap: a chain whose binomials leave the double range (degree
past 1029) raises the same error at the entry, before it allocates.

The vectors at (n,...,n) +/- e_k depend on the ray k only through
root-of-unity phases.  Their level tables (the r combinations of the up
family, the two coefficient rows of the down family) are built once per
level, and one elementwise product with their phases turns each family's
into the r per-ray tables of the level at once: an r x r x w read-only
stack, in a memo of a few levels.  The up family gathers its r x r x
(n+1) phases per level; the down family and the diagonal read their
r x w phases omega^(-(j-1) t) as a slice of ``numerics.phase_powers``'
per-r table, which a ladder of levels gathers O(log n) times.  The vector
at ray k copies row k-1 of its stack as its read-only ``coeffs``;
``type1_up_stack`` and ``type1_down_stack`` hand out the whole stack,
under the constructors' guards.  The diagonal's row is memoized the same
way, so the checks of one level build it once.  ``base_poly`` returns
p_n's read-only coefficient array itself.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import (
    DoubleRangeError,
    gamma_ratio,
    log_gamma_factor,
    phase_powers,
    roots_of_unity,
)

__all__ = [
    "Params",
    "TypeIVector",
    "base_poly",
    "base_coeffs_mp",
    "coeff_error_units",
    "leading_coefficient",
    "diagonal_normalizer",
    "up_normalizer",
    "down_normalizer",
    "type1_diagonal",
    "type1_up",
    "type1_down",
    "type1_up_stack",
    "type1_down_stack",
]


# The largest degree N whose binomials C(N, t) are all doubles, compared
# exactly.  The largest is the central one, below 2^N, so the search starts
# at N = max_exp - 1
_MAX_DEGREE = sys.float_info.max_exp - 1
while math.comb(_MAX_DEGREE + 1, (_MAX_DEGREE + 1) // 2) <= sys.float_info.max:
    _MAX_DEGREE += 1


def _check_degree(N):
    # a chain of degree N turns every C(N, t) into a double; checked before
    # the chain allocates anything
    if N > _MAX_DEGREE:
        raise DoubleRangeError(
            f"degree {N} exceeds the double range of the binomials C(N, t), N <= {_MAX_DEGREE}"
        )


@dataclass(frozen=True)
class Params:
    """Weight parameters: ray count r >= 1 and exponents alpha, beta > -1."""

    r: int
    alpha: float
    beta: float

    def __post_init__(self):
        if not (isinstance(self.r, (int, np.integer)) and self.r >= 1):
            raise ValueError(f"r must be an integer >= 1, got {self.r!r}")
        # a plain int, so that the sizes and bounds derived from r stay
        # exact Python integers
        object.__setattr__(self, "r", operator.index(self.r))
        if not (math.isfinite(self.alpha) and self.alpha > -1.0):
            raise ValueError(f"alpha must be finite and > -1, got {self.alpha!r}")
        if not (math.isfinite(self.beta) and self.beta > -1.0):
            raise ValueError(f"beta must be finite and > -1, got {self.beta!r}")


class TypeIVector:
    """The r polynomials (A_1, ..., A_r) of the type I vector at the
    multi-index ``index`` = (n_1, ..., n_r): A_j has degree at most n_j - 1,
    and the vector meets |n| = n_1 + ... + n_r conditions (``size``).

    ``coeffs`` is one read-only r x w coefficient table: row j-1 holds A_j,
    the polynomial attached to the segment [0, omega^(j-1)], and column t
    its x^t coefficient.  The width w is the level n for diagonal and down
    vectors, n+1 for up vectors, and 1 for the empty down index (r = 1,
    n = 1).  Rows are not trimmed: every coefficient past an entry's nominal
    degree (up rows j != k, down row k) is an exact zero.  A diagonal
    vector's row 0 is its real base row, with zero imaginary parts; every
    other entry is an exact rotation of it.
    """

    __slots__ = ("params", "index", "coeffs")

    def __init__(self, params, index, coeffs):
        index = tuple(index)
        if len(index) != params.r or not all(
            isinstance(m, (int, np.integer)) and m >= 0 for m in index
        ):
            raise ValueError(f"need a multi-index of {params.r} integers >= 0, got {index!r}")
        coeffs = np.array(coeffs)
        if coeffs.ndim != 2 or len(coeffs) != params.r:
            raise ValueError("need an r-row coefficient table, one row per ray")
        coeffs.setflags(write=False)
        self.params = params
        self.index = tuple(map(operator.index, index))
        self.coeffs = coeffs

    @property
    def size(self):
        """|n| = sum of the multi-index entries."""
        return sum(self.index)

    def nominal_degrees(self):
        """Exact degrees the construction is expected to produce: n_j - 1."""
        return [m - 1 for m in self.index]

    def degrees(self):
        """Observed degrees: the index of each row's last nonzero
        coefficient, -1 for a zero row."""
        return [int(nz[-1]) if nz.size else -1 for nz in map(np.flatnonzero, self.coeffs)]

    def __repr__(self):
        return f"TypeIVector(r={self.params.r}, index={self.index!r})"


# ---------------------------------------------------------------------------
# base family
# ---------------------------------------------------------------------------


def base_poly(n, params):
    """The degree-n member of the real kernel family p_n(.; alpha, beta)."""
    _check_degree(n)
    return _table(_chain(n, 0, params, *_affine(params)), params.r)


def base_coeffs_mp(n, params):
    """Coefficients c_0..c_n of p_n as mpmath numbers, evaluated from the
    closed form at the caller's working precision (``mp.workdps``; at least
    53 bits, which hold alpha and beta exactly): the numbers of
    :func:`_base_coeffs_raw` at ``mp.prec``.
    """
    import mpmath as mp

    return [mp.make_mpf(c) for c in _base_coeffs_raw(n, params, mp.mp.prec)]


def _base_coeffs_raw(n, params, prec):
    """Coefficients c_0..c_n of p_n as raw ``mpmath.libmp`` tuples at
    ``prec`` working bits (at least 53, which hold alpha and beta exactly).

    This is the one extended-precision copy of the formula; the zero finder
    rounds its tuples to integers, and :func:`base_coeffs_mp` wraps them.
    With s_k = (beta + k)/r, the quotient
    R_k = Gamma(n + alpha + s_k + 1) / Gamma(s_k + 1) advances along each
    chain k = j, j + r, j + 2r, ... by a rising factor,

        R_(k+r) = R_k (n + alpha + s_k + 1) / (s_k + 1)
                = R_k (r (n + alpha + 1) + beta + k) / (beta + k + r),

    so the gamma function runs only at the chain heads k < r and once for
    Gamma(n + alpha + 1): 2 min(r, n + 1) + 1 calls.  The binomials are
    exact integers (C(n, k+1) = C(n, k) (n - k)/(k + 1)).  Sums are exact;
    products, quotients and gammas round to nearest at ``prec``, the gamma
    arguments at more bits, as mpmath's context rounds them, so the tuples
    are bitwise those of the same chain written with ``mp.fadd``,
    ``mp.gamma`` and mpf operators.

    Error model, at w = ``prec`` bits: the factor's numerator and
    denominator are exact sums of doubles and integers, and the gamma
    arguments carry enough guard bits that their rounding moves a gamma by
    at most one unit of 2^-w.  Counting two units for the gamma function
    itself, one for each argument, and one for each product and quotient,
    every c_k has relative error at most ``coeff_error_units(n, r) * 2^-w``;
    the zero finder's rounding test relies on that bound.
    """
    from mpmath.libmp import (
        from_float,
        from_int,
        mpf_add,
        mpf_div,
        mpf_gamma,
        mpf_mul,
        mpf_mul_int,
        mpf_neg,
        round_nearest as rnd,
        to_int,
    )

    def exact(x):
        # alpha or beta as a tuple, converted as ``mp.mpf`` converts it
        return from_int(x, prec, rnd) if isinstance(x, int) else from_float(x)

    def add(x, k):
        return mpf_add(x, from_int(k), 0)

    r = params.r
    a, b = exact(params.alpha), exact(params.beta)
    rr = from_int(r)
    top = add(mpf_mul(rr, a, 0), r * (n + 1))  # r (n + alpha + 1)
    # every gamma argument y lies in (0, (top + beta + r)/r], where
    # y |psi(y)| <= (y + 1)^2
    ymax = mpf_div(mpf_add(mpf_add(top, b, prec, rnd), rr, prec, rnd), rr, prec, rnd)
    arg_prec = prec + 2 * (to_int(ymax) + 2).bit_length() + 1
    quot = []
    for k in range(n + 1):
        if k < r:
            bk = add(b, k)
            y = mpf_div(mpf_add(top, bk, 0), rr, arg_prec, rnd)  # n + alpha + s_k + 1
            s1 = mpf_div(add(bk, r), rr, arg_prec, rnd)  # s_k + 1
            quot.append(mpf_div(mpf_gamma(y, prec, rnd), mpf_gamma(s1, prec, rnd), prec, rnd))
        else:
            bj = add(b, k - r)
            up = mpf_mul(quot[k - r], mpf_add(top, bj, 0), prec, rnd)
            quot.append(mpf_div(up, add(bj, r), prec, rnd))
    g = mpf_gamma(add(a, n + 1), prec, rnd)
    out = []
    binom = 1
    for k in range(n + 1):
        v = mpf_div(mpf_mul_int(quot[k], binom, prec, rnd), g, prec, rnd)
        out.append(v if (n - k) % 2 == 0 else mpf_neg(v))
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
    """Leading coefficient nu_n of p_n: the head of its chain at t = n.
    Needs no binomial, so it reaches past the chains' degree range."""
    try:
        args = _nu_args(n, 0, params, *_affine(params))
    except OverflowError:  # n too large to convert to a double
        raise DoubleRangeError(f"degree {n} exceeds the double range") from None
    return gamma_ratio(*args)


def diagonal_normalizer(level, params):
    """lambda at diagonal level: (1/r) (r(level-1)+r*alpha+beta+r)_level / (level-1)!."""
    if level < 1:
        raise ValueError("diagonal level must be >= 1")
    _affine(params)  # the constructors' range guard; its sum is not needed here
    m = level - 1
    r, a, b = params.r, params.alpha, params.beta
    try:
        pb = r * m + r * a + b + r
        nums, dens = [(pb + level, r)], [(pb, r), m + 1.0]
    except OverflowError:  # level too large to convert to a double
        raise DoubleRangeError(f"level {level} exceeds the double range") from None
    return gamma_ratio(nums, dens) / r


def up_normalizer(n, params):
    """tau at level n, the normalizer of the above-diagonal combination."""
    _affine(params)
    r, a, b = params.r, params.alpha, params.beta
    try:
        nums = [n + 1.0, n + a + 1.0, (b + n + 1.0) / r, (r * n + r * a + b + 1.0, r)]
        dens = [n + a + (b + n + 1.0) / r, (r * n + n + r * a + b + 2.0, r)]
    except OverflowError:  # n too large to convert to a double
        raise DoubleRangeError(f"degree {n} exceeds the double range") from None
    return r * gamma_ratio(nums, dens)


def down_normalizer(n, params):
    """gamma at level n, the normalizer of the below-diagonal combination."""
    if n < 1:
        raise ValueError("down_normalizer needs n >= 1")
    _affine(params)
    r, a, b = params.r, params.alpha, params.beta
    try:
        db = r * n + r * a + b - 1.0
        nums = [n + 0.0, n + a + (n + b - 1.0) / r, (db, r)]
        dens = [n + a, (n + b - 1.0) / r + 1.0, (db + n, r)]
    except OverflowError:  # n too large to convert to a double
        raise DoubleRangeError(f"degree {n} exceeds the double range") from None
    return r * gamma_ratio(nums, dens)


# ---------------------------------------------------------------------------
# type I vectors
# ---------------------------------------------------------------------------


def _affine(params):
    # X = r(1 + alpha) + (1 + beta) as an unevaluated sum hi + lo of two
    # doubles; every gamma argument with an alpha is an integer plus X, and
    # every other one an integer plus beta, so both must keep that integer
    r, a, b = params.r, params.alpha, params.beta
    try:
        terms = [r + 1.0, b] + [a] * r
        hi = math.fsum(terms)
    except OverflowError:  # r past the index range, or a sum past the double range
        hi = math.inf
    if hi + 1 == hi or b + 1 == b:
        raise DoubleRangeError(f"r(1 + alpha) + (1 + beta) or beta absorbs 1 at {params!r}")
    terms.append(-hi)
    return hi, math.fsum(terms)


@lru_cache(maxsize=64)
def _signed_binomials(N):
    # (-1)^(N-t) C(N, t) for t = 0..N as doubles: a product of an int and a
    # float rounds the int to this same double first
    return tuple(float((-1) ** (N - t) * math.comb(N, t)) for t in range(N + 1))


def _chain(N, d, params, hi, lo, factor=None, over=1):
    # Entries t = 0..N of the list (-1)^(N-t) C(N,t) q_t F / over on beta - d,
    # with q_t = Gamma((kn + X)/r) / [Gamma(N + alpha + 1) Gamma((kd + beta)/r)]
    # and F the gamma ratio of factor = (nums, dens).  From the top down, q_t
    # is q_(t+r) divided by the step's factor (kn + X)/(kd + beta); a head, at
    # the top r entries and wherever kn < 0 or kd <= 0, is one gamma_ratio
    # call over the arguments of q_t and F's log-gammas and poles, summed
    # once for the chain (p_n has no F)
    r, b = params.r, params.beta
    n1 = N + 1 + params.alpha
    log_f = None if factor is None else log_gamma_factor(*factor)
    q = [0.0] * (N + 1)
    for t in range(N, -1, -1):
        kn, kd = r * N - 1 - d + t, t + r - d
        if t > N - r or kn < 0 or kd <= 0:
            y = math.fsum((kn, hi, lo)) / r
            q[t] = gamma_ratio([y], [n1, (kd + b) / r], log_f) / over
        else:
            q[t] = q[t + r] / ((kn + hi) / (kd + b))
    return [c * qt for c, qt in zip(_signed_binomials(N), q)]


def _nu_args(N, d, params, hi, lo):
    # nu_N at beta - d, the leading coefficient of p_N(.; alpha, beta - d):
    # the arguments of _chain's head at t = N
    r, a, b = params.r, params.alpha, params.beta
    return [math.fsum((r * N - 1 - d + N, hi, lo)) / r], [N + 1 + a, (N + r - d + b) / r]


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
    r, m = params.r, level - 1
    hi, lo = _affine(params)
    # r lambda = Gamma(pb + level) / [Gamma(pb) m!], pb = rm - 1 + X at rate r
    pb = math.fsum((r * m - 1, hi, lo))
    r_lambda = [(math.fsum((r * m - 1 + level, hi, lo)), r)], [(pb, r), m + 1.0]
    return _table(_chain(m, 0, params, hi, lo, r_lambda, r), r)


def type1_diagonal(level, params):
    """Type I vector at the diagonal multi-index (level, ..., level).

    Entry j is lambda * p_(level-1)(omega^(-j+1) x); the normalizer is fused
    into the coefficients, so entries stay finite where lambda alone would
    vanish against a pole of p.  The fused row is built once per level (a
    memo of a few levels, read-only) and shared by the r rays' checks.
    """
    if level < 1:
        raise ValueError("diagonal level must be >= 1")
    _check_degree(level - 1)
    r = params.r
    base = _diagonal_base(level, params)
    # row j - 1 is base(omega^(-(j-1)) x)
    return TypeIVector(params, (level,) * r, base * phase_powers(r, len(base), -1))


def _up_combos(n, params):
    # combos[l, t]: coefficient t of A_l, shared by every ray k of level n.
    # ratio[m, t] is coefficient t of p_n(.; beta-m) / (tau nu_n(beta-m)) on
    # the chain of beta - m.  At t = n, q_n and nu_n(beta-m) take the same
    # arguments and cancel exactly, so that entry is the same for every m:
    # this is what makes the degree drop structural.
    r, a, b = params.r, params.alpha, params.beta
    hi, lo = _affine(params)
    # r/tau = Gamma((rn + n - r + X)/r) Gamma(rn + n - r + 1 + X) / [n!
    # Gamma(n + 1 + alpha) Gamma((n + 1 + beta)/r) Gamma(rn - r + X)], the
    # arguments without /r at pole rate r
    tau_nums = [math.fsum((r * n + n - r, hi, lo)) / r, (math.fsum((r * n + n - r + 1, hi, lo)), r)]
    tau_dens = [n + 1.0, n + 1 + a, (n + 1 + b) / r, (math.fsum((r * n - r, hi, lo)), r)]
    ratio = []
    for m in range(r):
        nu_nums, nu_dens = _nu_args(n, m, params, hi, lo)
        ratio.append(_chain(n, m, params, hi, lo, (nu_dens + tau_nums, nu_nums + tau_dens), r))
    lm = np.arange(r)
    combos = roots_of_unity(r)[(lm[:, None] * lm) % r] @ _table(ratio, r)
    combos[1:, n] = 0  # sum_m omega^(lm) = 0 for l != 0, on equal tops
    return combos


@lru_cache(maxsize=4)
def _up_stack(n, params):
    # the r x r x (n+1) tables of every ray of level n, read-only: ray k's
    # row j - 1 is A_((j-k) mod r) times its phases omega^(-(j-1) t - (k-1)).
    # No libm call may come between the combinations' complex matrix product
    # and this elementwise product: after an OpenBLAS complex product, libm
    # runs 3-5 times slower (lgamma included) until a numpy vector op runs.
    # The combinations come first: their range guard rejects an r too large
    # for the phase exponents' r x r x (n+1) index
    r, combos = params.r, _up_combos(n, params)
    k, j = np.arange(r)[:, None], np.arange(r)  # k - 1 and j - 1
    phases = roots_of_unity(r)[(-j[:, None] * np.arange(n + 1) - k[:, :, None]) % r]
    stack = combos[(j - k) % r] * phases
    stack.setflags(write=False)
    return stack


def _check_ray(k, r):
    if not 1 <= k <= r:
        raise ValueError(f"ray k must be in 1..{r}")


def _check_up(n):
    if n < 0:
        raise ValueError("type1_up needs n >= 0")
    _check_degree(n)


def type1_up(n, k, params):
    """Type I vector one step above the diagonal: multi-index (n,..,n)+e_k.

    Built from the r combinations A_l(x) = (1/tau) sum_m omega^(l m)
    p_n(x; alpha, beta-m)/nu_n^(beta-m); entry j is then
    A_((j-k) mod r)(omega^(-j+1) x) omega^(-k+1).  The leading coefficient
    of A_l for l != 0 is set to exactly 0 from the identity
    sum_m omega^(l m) = 0, since the chain makes the x^n coefficient of
    p_n(x; alpha, beta-m)/nu_n^(beta-m) the same for every m.

    The combinations do not depend on k: level n builds their r x (n+1)
    table once and applies every ray's phases in one product, into an
    r x r x (n+1) stack (a memo of a few levels, read-only); ray k copies
    row k-1.
    """
    _check_up(n)
    _check_ray(k, params.r)
    coeffs = _up_stack(n, params)[k - 1]  # its range guard rejects r before the index
    index = [n] * params.r
    index[k - 1] += 1
    return TypeIVector(params, index, coeffs)


def type1_up_stack(n, params):
    """The coefficient tables of every up vector of level n as one
    read-only r x r x (n+1) stack: entry k-1 is ``type1_up(n, k).coeffs``.
    The stack is the memoized one the vectors copy from; the guards are
    ``type1_up``'s."""
    _check_up(n)
    return _up_stack(n, params)


def _down_terms(n, params):
    # t1 = nu_(n-1)(beta) coef_t(p_(n-1); beta-1) / gamma and
    # t2 = nu_(n-1)(beta-1) coef_t(p_(n-1); beta) / gamma, each on its chain;
    # shared by every ray k of level n.  At t = n-1 each row's q is its own
    # nu_(n-1), so both heads take the arguments of r/gamma and both nu's:
    # the top entries are bitwise equal and the degree drop exact.
    r, a, b = params.r, params.alpha, params.beta
    hi, lo = _affine(params)
    db = math.fsum((r * n - r - 2, hi, lo))  # r n + r alpha + beta - 1
    dbn = math.fsum((r * n - r - 2 + n, hi, lo))
    # r/gamma = Gamma(n + alpha) Gamma((n - 1 + r + beta)/r) Gamma(db + n) /
    # [(n-1)! Gamma((db + n)/r) Gamma(db)], db's at rate r
    g_nums, g_dens = [n + a, (n - 1 + r + b) / r, (dbn, r)], [n + 0.0, dbn / r, (db, r)]
    (nums0, dens0), (nums1, dens1) = (_nu_args(n - 1, d, params, hi, lo) for d in (0, 1))
    return (
        _table(_chain(n - 1, 1, params, hi, lo, (nums0 + g_nums, dens0 + g_dens), r), r),
        _table(_chain(n - 1, 0, params, hi, lo, (nums1 + g_nums, dens1 + g_dens), r), r),
    )


@lru_cache(maxsize=4)
def _down_stack(n, params):
    # the r x r x n tables of every ray of level n, read-only: ray k's row
    # j - 1 is omega^(-(j-1) t) (omega^(j-1) t1 - omega^(k-1) t2).  At r = 1,
    # where t1 - t2 cancels badly, it is the diagonal row of level n - 1
    # and a zero top (all zero at the empty index n = 1)
    if params.r == 1:
        stack = np.zeros((1, 1, n), dtype=complex)
        if n > 1:
            stack[0, 0, :-1] = _diagonal_base(n - 1, params)
    else:
        t1, t2 = _down_terms(n, params)
        roots = roots_of_unity(params.r)
        stack = phase_powers(params.r, n, -1) * (roots[:, None] * t1 - roots[:, None, None] * t2)
    stack.setflags(write=False)
    return stack


def _check_down(n):
    if n < 1:
        raise ValueError("type1_down needs n >= 1")
    _check_degree(n - 1)


def type1_down(n, k, params):
    """Type I vector one step below the diagonal: multi-index (n,..,n)-e_k.

    gamma * A_j(x) = omega^(j-1) nu^(beta) p_(n-1)(omega^(-j+1)x; beta-1)
                   - omega^(k-1) nu^(beta-1) p_(n-1)(omega^(-j+1)x; beta);
    on ray j = k the two leading terms coincide and the degree drops to n-2.

    The two fused coefficient rows do not depend on k: level n builds them
    once and applies every ray's phases in one product, into an r x r x n
    stack (a memo of a few levels, read-only); ray k copies row k-1.  At
    r = 1 the index (n) - e_1 is (n - 1): the vector is the diagonal's
    memoized row with a zero top, and zero at the empty index n = 1.
    """
    _check_down(n)
    _check_ray(k, params.r)
    coeffs = _down_stack(n, params)[k - 1]  # its range guard rejects r before the index
    index = [n] * params.r
    index[k - 1] -= 1
    return TypeIVector(params, index, coeffs)


def type1_down_stack(n, params):
    """The coefficient tables of every down vector of level n as one
    read-only r x r x n stack: entry k-1 is ``type1_down(n, k).coeffs``.
    The stack is the memoized one the vectors copy from; the guards are
    ``type1_down``'s."""
    _check_down(n)
    return _down_stack(n, params)

