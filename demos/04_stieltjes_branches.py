"""The algebraic equation of the limit Stieltjes transform and its branches.

The Stieltjes transform S of the limit zero distribution satisfies
z S^(r+1) = (zS + r)(zS - 1)^r, with r + 1 labeled branches: z S_1 -> -r at
infinity while z S_k -> 1 for k >= 2, and branch 2 is the transform
itself.  One solver continues all of them for every r (a cubic for r = 2).
Branch 2's boundary values on (0,1) recover the density through
Stieltjes-Perron inversion, where the boundary branch is picked in the
W = zS/(zS-1) variable by its angular window.
"""

import numpy as np

from angelesco import (
    algebraic_residual_w,
    cubic_branches_r2,
    perron_density,
    solve_stieltjes_boundary,
    stieltjes_branches,
    stieltjes_limit,
    u_closed_r2,
    u_density,
)

print("far field |z| = 1e6: the branches for r=2 and r=3")
z = 1e6 + 0j
r2, r3 = cubic_branches_r2(z), stieltjes_branches(z, 3)
print(f"  z*S1 = {z*r2[0]:.8f} | {z*r3[0]:.8f}   (-> -r)")
print(f"  z*S2 = {z*r2[1]:.8f} | {z*r3[1]:.8f}   (-> 1, Stieltjes)")
print(f"  z*S3 = {z*r2[2]:.8f} | {z*r3[2]:.8f}   (-> 1)")
print(f"  z*S4 = {'':22} | {z*r3[3]:.8f}   (-> 1)")

print("\nnear the cut, branch 2 carries the density in its imaginary part:")
for x in (0.25, 0.5, 0.75):
    s2 = cubic_branches_r2(complex(x, 1e-6))[1]
    t2 = stieltjes_branches(complex(x, 1e-6), 3)[1]
    print(
        f"  x={x}: -Im S2/pi = {-s2.imag/np.pi:.8f},  u_2(x) = {u_closed_r2(x):.8f}"
        f" | r=3: {-t2.imag/np.pi:.8f},  u_3(x) = {u_density(x, 3):.8f}"
    )

print("\nRichardson-extrapolated Perron inversion vs the parametric density:")
for r in (2, 3, 4):
    worst = max(
        abs(perron_density(x, r) - u_density(x, r)) for x in np.linspace(0.05, 0.95, 50)
    )
    print(f"  r={r}: worst error over 50 interior points = {worst:.2e}")

print("\nthe integral transform of u_r solves the algebraic equation:")
for r in (2, 3, 4):
    S = stieltjes_limit(2 + 1j, r)
    print(f"  r={r}: S(2+i) = {S:.8f}, W-form residual = {algebraic_residual_w(2+1j, S, r):.1e}")

print("\nboundary solve (W angular window) agrees with the continued branch 2:")
for r in (2, 3):
    for x in (0.3, 0.7):
        a = stieltjes_branches(complex(x, 1e-4), r)[1]
        b = solve_stieltjes_boundary(x, 1e-4, r)
        print(f"  r={r}, x={x}: |difference| = {abs(a-b):.2e}")
