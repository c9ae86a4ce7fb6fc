"""Nearest-neighbor recurrence and the order-(r+1) differential equation.

The star recurrence ties a diagonal vector to its 2r+1 neighbors through
two scalar profiles a(n), b(n) with ray phases omega^(2(k-1)), omega^(k-1);
both profiles converge as n grows.  The same polynomials satisfy a linear
ODE of order r+1 whose coefficients are explicit in (n, alpha, beta); both
identities are checked here on coefficients: at each power of x the
terms must cancel to rounding level relative to the largest of them.
"""

import numpy as np

from angelesco import (
    Params,
    coeff_a,
    coeff_b,
    limit_a,
    limit_b,
    lowering_check,
    ode_coeffs,
    ode_residual,
    recurrence_residual,
)

params = Params(r=3, alpha=0.0, beta=0.0)

print("recurrence coefficient profiles (r=3):")
print(f"  {'n':>4} {'a(n)':>14} {'b(n)':>14}")
for n in (1, 2, 5, 10, 50, 200):
    print(f"  {n:>4} {coeff_a(n, params):>14.10f} {coeff_b(n, params):>14.10f}")
print(f"  {'lim':>4} {limit_a(3):>14.10f} {limit_b(3):>14.10f}")
print("  (limits are r/(r+1)^(2+2/r) and r/(r+1)^(1+1/r))")

print("\nrecurrence residuals, max over rays, entries and coefficients:")
for n in range(1, 6):
    worst = max(recurrence_residual(n, k, params) for k in (1, 2, 3))
    print(f"  n={n}: {worst:.3e}")

print("\ndifferentiation lowers degree and raises both exponents:")
for n in (1, 5, 12, 20):
    print(f"  n={n:2d}: coefficientwise deviation {lowering_check(n, params):.3e}")

print("\norder-4 ODE residuals (r=3), max over coefficients:")
for n in (2, 5, 9, 12, 15):
    spec = ode_coeffs(n, params)
    print(f"  n={n:2d}: {ode_residual(spec):.3e}   c = {np.round(spec.c, 6)}")
print("  (each coefficient of the ODE is a two-term relation between")
print("   coefficients of p_n, so the check stays at rounding level up to n = 60)")
