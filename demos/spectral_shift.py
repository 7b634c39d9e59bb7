"""Spectral shift densities and their trace formulas.

Order 1: the counting form is exact and its pairing with f' telescopes over
breakpoints.  Orders 2 and 3: the density is recovered from the exponential
pairing by Fourier inversion, then validated on held-out functions and
polynomial moments.

Run:  python demos/spectral_shift.py
"""

import numpy as np

from moilab import (
    SplitMix64,
    apply_function,
    counting_pairing,
    diagonal_symbol_trace,
    eig_hermitian,
    exponential,
    gaussian,
    higher_ssf_fourier,
    krein_ssf,
    runge,
    ssf_l1_report,
    trace,
    verify_trace_formula,
)

gen = SplitMix64(8)
d = 4
X = gen.complex_normals((d, d))
A = (X + X.conj().T) / 2
Y = gen.complex_normals((d, d))
B = (Y + Y.conj().T) / 2
B /= np.linalg.norm(B, 2)

# --- order 1: exact counting form ---
eta1 = krein_ssf(A, B)
f = exponential()
lhs = float(np.real(trace(apply_function(f, eig_hermitian(A + B)))
                    - trace(apply_function(f, eig_hermitian(A)))))
rhs = counting_pairing(eta1, f)
print("order 1 trace formula: trace increment =", f"{lhs:.12f}")
print("                       breakpoint sum  =", f"{rhs:.12f}")

# --- the 1x1 sanity case: a = 0, b = 1 has density (1 - t) on (0, 1) ---
g2 = higher_ssf_fourier(np.array([[0.0]]), np.array([[1.0]]), n=2)
true = np.where((g2.t_grid > 0) & (g2.t_grid < 1), 1.0 - g2.t_grid, 0.0)
print("\nscalar order-2 density: L1 recovery error =",
      f"{np.trapezoid(np.abs(g2.values - true), g2.t_grid):.2e}")

# --- order 2 on the random pair: held-out functions and moments ---
eta2 = higher_ssf_fourier(A, B, n=2)
report = verify_trace_formula(A, B, 2, eta2, [gaussian(), runge()])
print("\norder 2 held-out trace formula:")
for row in report.rows:
    print(f"  {row['family']:9s} remainder trace {row['remainder_trace']:+.8f}   "
          f"pairing {row['pairing']:+.8f}   rel err {row['rel_error']:.1e}")
print("moments vs monomial remainders:")
for m in report.moments:
    print(f"  k={m['k']}   grid {m['moment']:+.8f}   remainder {m['remainder_form']:+.8f}"
          f"   err {m['error']:.1e}")

# --- the restricted-symbol identity chain ---
chain = diagonal_symbol_trace(A, B, n=2, f=gaussian(), ssf=eta2)
print("\nidentity chain: restricted trace", f"{chain.restricted_trace.real:+.10f}")
print("                full trace      ", f"{chain.full_trace.real:+.10f}")
print("                chain deviation ", f"{chain.chain_deviation:.1e}")
print("                pairing errors  ", tuple(f"{e:.1e}" for e in chain.pairing_errors))

rep = ssf_l1_report(B, 2, eta2)
print("\nL1 mass / perturbation budget:", f"{rep['l1_norm']:.4f} / {rep['b_norm_pow']:.4f}"
      f"  (ratio {rep['ratio']:.3f})")
