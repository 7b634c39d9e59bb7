"""Divided differences: symmetry, confluent limits, and admissibility flags.

Run:  python demos/divided_differences.py
"""

import numpy as np

from moilab import (
    bump,
    classify,
    divided_difference,
    divided_difference_tensor,
    fourier,
    gaussian,
    monomial,
)

# First differences of x^2 recover the node sum: f[1](a, b) = a + b.
f = monomial(2)
print("x^2 on (2, 5)        ->", divided_difference(f, (2.0, 5.0)).real, "(expect 7)")

# Second differences of x^3 are the elementary symmetric sum of the nodes.
print("x^3 on (0, 1, 2)     ->", divided_difference(monomial(3), (0, 1, 2)).real,
      "(expect 3)")

# Order matters not at all: the table is symmetric in the nodes.
g = gaussian()
nodes = (0.1, 0.2, 0.3)
print("gaussian on", nodes, "->", divided_difference(g, nodes).real)
print("  reversed            ->", divided_difference(g, nodes[::-1]).real)

# Coalescing nodes converge to the confluent value f''(x)/2, and once the
# gap drops below the merge tolerance the table switches to exact
# derivative entries instead of cancelling quotients.
lam = 0.6
target = g.eval(2, lam) / 2.0
print(f"\nconfluent limit at {lam}: f''/2 = {target:.12f}")
for gap in (1e-2, 1e-4, 1e-6, 1e-9, 0.0):
    val = divided_difference(g, (lam, lam + gap, lam - gap)).real
    print(f"  gap {gap:8.0e} -> {val:.12f}  (err {abs(val - target):.2e})")

# Batch evaluation runs one table over every tuple of the node grids.
t = divided_difference_tensor(g, 2, [[-1.0, 0.0], [0.0, 1.0], [1.0]])
print("\ntensor over 2 x 2 x 1 node grids:\n", np.round(t.real, 6))

# Declared flags decide which operator-level statements a family certifies.
for fam, n in ((bump(), 3), (fourier(2.5), 3), (monomial(5), 3)):
    rep = classify(fam, n)
    print(f"\n{fam.family_id} at order {n}:")
    print("  derivative formula      :", rep.differentiable_lp)
    print("  trace formula (general) :", rep.trace_formula_lp)
    print("  trace formula (Schatten):", rep.trace_formula_schatten)
    for note in rep.notes:
        print("  note:", note)
