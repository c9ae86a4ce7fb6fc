"""Reproduce the five-curve density figure (r = 1..5) as CSV and SVG.

r = 1 gives the symmetric arcsine law; for r > 1 the symmetry is lost and
the zeros crowd toward the endpoint 1 (the other star segments push them
outward).  The curves are sampled uniformly in the parametrizing angle so
that both endpoint singularities are resolved, and the SVG is emitted by
hand: no plotting dependency.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from angelesco import limit_cdf, u_density
from angelesco.cli import main

buf = io.StringIO()
# the CLI notes the SVG it wrote on stderr; the line below says it instead
with redirect_stdout(buf), redirect_stderr(io.StringIO()):
    code = main(["figure2", "--samples", "1201", "--svg", "figure2.svg"])
assert code == 0
with open("figure2.csv", "w", encoding="utf-8") as fh:
    fh.write(buf.getvalue())
rows = buf.getvalue().count("\n") - 1
print(f"wrote figure2.svg and figure2.csv ({rows} rows, columns r,x,u,F)")

print("\nqualitative features, straight from the exact CDF:")
print(f"  r=1 median: F(1/2) = {limit_cdf(0.5, 1):.6f}  (symmetric)")
for r in (2, 3, 4, 5):
    left = limit_cdf(0.05, r)
    right = 1.0 - limit_cdf(0.95, r)
    print(
        f"  r={r}: mass below 0.05 = {left:.4f}, mass above 0.95 = {right:.4f}"
        f"  -> denser near 1"
    )

print("\nendpoint growth rates of the densities:")
for r in (1, 2, 5):
    print(
        f"  r={r}: u({1e-5:g}) = {u_density(1e-5, r):9.2f}, "
        f"u(1-{1e-5:g}) = {u_density(1 - 1e-5, r):9.2f}"
    )
print("  (orders x^(-1/(r+1)) at 0 and (1-x^r)^(-1/2) at 1)")
