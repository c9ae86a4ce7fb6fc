"""Zeros of the kernel polynomials and their limiting distribution.

All n zeros are simple and lie in (0,1); as n grows, their counting measure
approaches a fixed law whose density u_r is parametrized by a trigonometric
map and is independent of (alpha, beta).  The convergence is watched here
through the Kolmogorov-Smirnov distance to the exact limit CDF.
"""

import numpy as np

from angelesco import (
    Params,
    empirical_cdf,
    find_zeros,
    ks_distance,
    limit_cdf,
    u_density,
)

params = Params(r=2, alpha=0.0, beta=0.0)

zs = find_zeros(8, params)
print("zeros of the degree-8 kernel polynomial (r=2):")
print(" ", np.array2string(zs.zeros, precision=8))
print(f"  max evaluation residual: {zs.residuals.max():.2e}")

print("\nempirical vs limit CDF at a few points (n=8):")
for x in (0.2, 0.5, 0.8):
    print(f"  x={x}: F_8(x) = {empirical_cdf(zs, x):.4f}, F(x) = {limit_cdf(x, 2):.4f}")

print("\nKS distance to the limit law, n = 10, 20, 40:")
for r in (2, 3):
    for a, b in ((0.0, 0.0), (2.0, 1.0)):
        p = Params(r, a, b)
        ks = [ks_distance(find_zeros(n, p), r) for n in (10, 20, 40)]
        tag = f"r={r} (alpha,beta)=({a},{b})"
        print(f"  {tag:28s}: " + "  ".join(f"{v:.4f}" for v in ks))
print("  (the distance shrinks with n and is insensitive to alpha, beta)")

print("\nthe density is singular at both endpoints, harder at 1:")
for x in (0.001, 0.01, 0.5, 0.99, 0.999):
    print(f"  u_2({x}) = {u_density(x, 2):10.4f}")

print("\none zero finder at every degree, certified correctly rounded doubles;")
print("the digits grow with the root condition, so with n and r:")
for r, n in ((2, 8), (2, 40), (20, 40)):
    zsn = find_zeros(n, Params(r, 0.0, 0.0))
    print(f"  r={r} n={n}: dps={zsn.dps}, first={zsn.zeros[0]:.6f}, "
          f"last={zsn.zeros[-1]:.6f}, max residual={zsn.residuals.max():.1e}")
edge = find_zeros(13, Params(1, 0.0, -1.0 + 1e-7))
print(f"  beta = -1 + 1e-7 (r=1, n=13): first zero {edge.zeros[0]:.3e}, "
      "bracketed by the grid's end at 0")
