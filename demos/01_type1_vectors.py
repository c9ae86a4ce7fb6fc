"""Build type I vectors on the r-star and verify them against the moment oracle.

The system lives on r segments from 0 to the r-th roots of unity, with
weight |x|^beta (1-x^r)^alpha.  A type I vector is one polynomial per
segment; at the diagonal multi-index (n,...,n) every entry is a rotation of
one real polynomial, one step off the diagonal they are complex
combinations.  Every orthogonality and normalization condition reduces to
exact beta-function moments, so the verification below carries only
rounding error.
"""

import numpy as np

from angelesco import (
    Params,
    diagonal_normalizer,
    down_normalizer,
    leading_coefficient,
    ray_form,
    type1_diagonal,
    type1_down,
    type1_up,
    up_normalizer,
    verify_type1,
)

params = Params(r=3, alpha=0.5, beta=-0.25)
print(f"parameters: r={params.r}, alpha={params.alpha}, beta={params.beta}")

# --- the diagonal vector at level 4: entries are rotations of one real base
v = type1_diagonal(4, params)
print("\ndiagonal level 4")
print("  base coefficients:", np.array2string(v.coeffs[0].real, precision=6))
print("  entry degrees:", v.degrees())
rep = verify_type1(v)
print(f"  max orthogonality residual: {rep.max_ortho_residual:.3e}")
print(f"  normalization value:        {rep.norm_value.real:+.15f}")

# --- one step above the diagonal: the ray-k entry gains a degree
up = type1_up(4, 2, params)
print("\nabove diagonal (+e_2)")
print("  entry degrees:", up.degrees(), "(ray 2 carries degree n)")
print(f"  verified: {verify_type1(up).passed}")

# --- one step below: the ray-k entry loses a degree by leading cancellation
dn = type1_down(4, 2, params)
print("\nbelow diagonal (-e_2)")
print("  entry degrees:", dn.degrees(), "(ray 2 drops to n-2)")
print(f"  verified: {verify_type1(dn).passed}")

# --- the moment functional itself: zero to rounding except at the normalization power
print("\nstar moment functional of the diagonal vector (size |n| = 12):")
for k in range(12):
    val = ray_form(k, v)
    marker = "<- normalization" if k == 11 else ""
    print(f"  k={k:2d}  {abs(val):.3e} {marker}")

# --- normalization constants at level 4
print("\nnormalization constants at level 4:")
print(f"  diagonal lambda = {diagonal_normalizer(4, params):.6e}")
print(f"  up tau          = {up_normalizer(4, params):.6e}")
print(f"  down gamma      = {down_normalizer(4, params):.6e}")
print(f"  leading nu      = {leading_coefficient(4, params):.6e}")
