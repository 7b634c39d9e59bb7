"""One multilinear object, four ways to compute it.

The projection-sum form is the workhorse; the brute force over eigen-index tuples, the
factorized product form, and the spectral-bin discretization must all agree
with it on their common ground.

Run:  python demos/operator_integral_forms.py
"""

import itertools

import numpy as np

from moilab import (
    MOIOperands,
    SplitMix64,
    dd_symbol,
    divided_difference,
    eig_hermitian,
    exponential_symbol,
    gaussian,
    moi_discretized,
    moi_factorized,
    moi_projection_sum,
)

gen = SplitMix64(21)
d, n = 3, 2
mats = []
for _ in range(n + 1):
    X = gen.complex_normals((d, d))
    mats.append((X + X.conj().T) / 2)
args = [gen.complex_normals((d, d)) for _ in range(n)]
Es = [eig_hermitian(M) for M in mats]
f = gaussian()

value = moi_projection_sum(dd_symbol(f, n), MOIOperands(Es, args))
print("projection sum diagnostics:", value.diagnostics)

# Brute force: every eigen-index triple, rank-one projections.
brute = np.zeros((d, d), dtype=complex)
for idx in itertools.product(range(d), repeat=n + 1):
    nodes = tuple(Es[s].eigenvalues[idx[s]] for s in range(n + 1))
    v = Es[0].basis[:, idx[0]]
    acc = np.outer(v, v.conj())
    for k in range(n):
        u = Es[k + 1].basis[:, idx[k + 1]]
        acc = acc @ args[k] @ np.outer(u, u.conj())
    brute += divided_difference(f, nodes) * acc
print("vs brute force        :", f"{np.linalg.norm(value.value - brute):.2e}")

# A factorized symbol evaluates as an alternating operator product.
sym = exponential_symbol(0.8, n + 1)
a = moi_projection_sum(sym, MOIOperands(Es, args)).value
b = moi_factorized(sym, MOIOperands(Es, args)).value
print("factorized cross-form :", f"{np.linalg.norm(a - b):.2e}")

# The discretized sum walks bins of width 1/m and evaluates the symbol at
# bin corners; its error decays like 1/m until the bins resolve the spectra.
ops = MOIOperands(Es, args)
exact = value.value
print("\ndiscretized sum error vs bin density m:")
for m in (16, 64, 256, 1024, 4096):
    approx = moi_discretized(dd_symbol(f, n), ops, m=m)
    err = np.linalg.norm(approx.value - exact)
    print(f"  m = {m:5d}   bins hit = {approx.diagnostics['bins_hit']:3d}   "
          f"err = {err:.3e}")
