"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import itertools
import json
import math

import numpy as np
import pytest

from moilab.families import (
    bump,
    divided_difference,
    exponential,
    fourier,
    gaussian,
    monomial,
    recip_plus,
    runge,
)
from moilab.harness import ExperimentConfig, run_suite
from moilab.moi import (
    MOIOperands,
    dd_symbol,
    exponential_symbol,
    moi_discretized,
    moi_factorized,
    moi_projection_sum,
)
from moilab.rng import SplitMix64
from moilab.spectral import apply_function, eig_hermitian, trace
from moilab.ssf import (
    counting_pairing,
    diagonal_symbol_trace,
    higher_ssf_fourier,
    krein_ssf,
    verify_trace_formula,
)
from moilab.taylor import (
    finite_difference_oracle,
    gateaux_derivative,
    lp_counterexample_demo,
    perturbation_first_order,
    perturbation_higher_order,
    taylor_remainder,
    telescoping_check,
)
from conftest import pair, random_hermitian


def _verdict(num, label, worst, tol, passed=None):
    ok = (worst <= tol) if passed is None else passed
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label} "
          f"(worst={worst:.3e}, tol={tol:.3e})")
    assert ok, f"criterion {num}: {label}: worst={worst} tol={tol}"


def _rel(x, y):
    return float(np.linalg.norm(x - y)) / max(1.0, float(np.linalg.norm(x)),
                                              float(np.linalg.norm(y)))


ANALYTIC_FAMILIES = [
    monomial(3), monomial(5), exponential(), fourier(1.3), gaussian(),
    bump(halfwidth=3.0), runge(), recip_plus(),
]


@pytest.fixture(scope="module")
def ssf_cases():
    """Shared Fourier densities: (A, B, n) -> grid, reused by criteria 7 and 8."""
    cases = {}
    for n, d, seed in ((2, 6, 8), (3, 4, 8)):
        A, B = pair(seed, d)
        cases[n] = (A, B, higher_ssf_fourier(A, B, n=n))
    return cases


def test_criterion_1_divided_differences():
    rng = np.random.default_rng(2024)
    worst_perm = 0.0
    worst_rec = 0.0
    worst_confl = 0.0
    for fam in ANALYTIC_FAMILIES:
        for n in range(1, min(4, fam.max_order) + 1):
            lo, hi = (0.2, 2.5) if fam.family_id == "recip_plus" else (-2.0, 2.5)
            nodes = np.sort(rng.uniform(lo, hi, n + 1))
            while np.min(np.diff(nodes)) < 0.2:  # well separated
                nodes = np.sort(rng.uniform(lo, hi, n + 1))
            base = divided_difference(fam, nodes)
            for _ in range(4):
                perm = rng.permutation(nodes)
                dev = abs(divided_difference(fam, perm) - base) / max(1e-30, abs(base))
                worst_perm = max(worst_perm, dev)
            lhs = divided_difference(fam, nodes) * (nodes[-1] - nodes[-2])
            rhs = divided_difference(fam, np.concatenate([nodes[:-2], nodes[-1:]])) \
                - divided_difference(fam, nodes[:-1])
            worst_rec = max(worst_rec, abs(lhs - rhs) / max(1.0, abs(rhs)))
            lam = float(nodes[0])
            got = divided_difference(fam, (lam,) * (n + 1))
            want = complex(fam.eval(n, lam)) / math.factorial(n)
            worst_confl = max(worst_confl, abs(got - want) / max(1.0, abs(want)))
    _verdict(1, "divided-difference symmetry", worst_perm, 1e-9)
    _verdict(1, "divided-difference recursion", worst_rec, 1e-10)
    _verdict(1, "divided-difference confluent limit", worst_confl, 1e-8)


def test_criterion_2_moi_cross_forms():
    # projection sum vs unclustered brute force, d <= 4, n <= 3
    worst_bf = 0.0
    for n, d, seed in ((1, 4, 100), (2, 4, 101), (3, 3, 102)):
        gen = SplitMix64(seed)
        mats = [random_hermitian(gen, d) for _ in range(n + 1)]
        args = [gen.complex_normals((d, d)) for _ in range(n)]
        Es = [eig_hermitian(M) for M in mats]
        f = gaussian()
        got = moi_projection_sum(dd_symbol(f, n), MOIOperands(Es, args)).value
        want = np.zeros((d, d), dtype=complex)
        for idx in itertools.product(range(d), repeat=n + 1):
            nodes = tuple(Es[s].eigenvalues[idx[s]] for s in range(n + 1))
            w = divided_difference(f, nodes)
            v = Es[0].basis[:, idx[0]]
            acc = np.outer(v, v.conj())
            for k in range(n):
                u = Es[k + 1].basis[:, idx[k + 1]]
                acc = acc @ args[k] @ np.outer(u, u.conj())
            want += w * acc
        worst_bf = max(worst_bf, _rel(got, want))
    _verdict(2, "projection sum vs brute force", worst_bf, 1e-10)

    # projection sum vs factorized exponential symbols
    worst_fact = 0.0
    for n, seed in ((1, 110), (2, 111)):
        gen = SplitMix64(seed)
        mats = [random_hermitian(gen, 4) for _ in range(n + 1)]
        args = [gen.complex_normals((4, 4)) for _ in range(n)]
        Es = [eig_hermitian(M) for M in mats]
        sym = exponential_symbol(1.1, n + 1)
        a = moi_projection_sum(sym, MOIOperands(Es, args)).value
        b = moi_factorized(sym, MOIOperands(Es, args)).value
        worst_fact = max(worst_fact, _rel(a, b))
    _verdict(2, "projection sum vs factorized", worst_fact, 1e-9)

    # discretized self-convergence: seeded ratio decay plus aligned exactness
    gen = SplitMix64(4)
    A = random_hermitian(gen, 4)
    B = random_hermitian(gen, 4)
    B /= np.linalg.norm(B, 2)
    ops = MOIOperands([eig_hermitian(A + B), eig_hermitian(A), eig_hermitian(A)], [B, B])
    sym = dd_symbol(gaussian(), 2)
    exact = moi_projection_sum(sym, ops).value
    errs = [
        float(np.linalg.norm(moi_discretized(sym, ops, m=2 ** k).value - exact))
        for k in range(4, 13)
    ]
    worst_ratio = max(e2 / e1 for e1, e2 in zip(errs, errs[1:]))
    _verdict(2, "discretized error ratio per doubling", worst_ratio, 0.75)
    lam = np.array([-0.5, 0.25, 0.75, 1.0])  # dyadic: bins resolve exactly
    Eg = eig_hermitian(np.diag(lam))
    Bg = SplitMix64(112).complex_normals((4, 4))
    opsg = MOIOperands([Eg, Eg, Eg], [Bg, Bg])
    exg = moi_projection_sum(sym, opsg).value
    final = max(
        float(np.linalg.norm(moi_discretized(sym, opsg, m=2 ** k).value - exg))
        for k in range(4, 13)
    )
    _verdict(2, "discretized final error on resolved spectra", final, 1e-8)


def test_criterion_3_derivative_formula():
    worst = 0.0
    for fam in (gaussian(), runge(), bump(halfwidth=3.0)):
        for k in (1, 2, 3):
            for d, seed in ((6, 200), (16, 201)):
                A, B = pair(seed, d)
                D = gateaux_derivative(fam, A, B, k=k, t=0.1)
                F = finite_difference_oracle(fam, A, B, k=k, t=0.1)
                worst = max(worst, _rel(D, F))
    _verdict(3, "derivative formula vs Richardson differences", worst, 1e-5)

    windows = {1: (1e-2, 1e-4), 2: (3e-2, 1e-3), 3: (1e-1, 1e-2)}
    worst_slope_dev = 0.0
    A, B = pair(202, 4)
    for k in (1, 2, 3):
        exact = gateaux_derivative(gaussian(), A, B, k=k)
        hs = np.geomspace(*windows[k], 5)
        errs = [
            float(np.linalg.norm(
                finite_difference_oracle(gaussian(), A, B, k=k, h=h, levels=0) - exact))
            for h in hs
        ]
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        worst_slope_dev = max(worst_slope_dev, abs(slope - 2.0))
    _verdict(3, "finite-difference slope within [1.7, 2.3]", worst_slope_dev, 0.3)


def test_criterion_4_remainder_identity():
    worst = 0.0
    for n in (1, 2, 3):
        for fam in (gaussian(), runge()):
            A, B = pair(300 + n, 4)
            EA = eig_hermitian(A)
            EAB = eig_hermitian(A + B)
            sigma = apply_function(fam, EAB) - apply_function(fam, EA)
            for k in range(1, n):
                sigma = sigma - moi_projection_sum(
                    dd_symbol(fam, k), MOIOperands([EA] * (k + 1), [B] * k)
                ).value
            closed = moi_projection_sum(
                dd_symbol(fam, n), MOIOperands([EAB] + [EA] * n, [B] * n)
            ).value
            worst = max(worst, _rel(sigma, closed))
            # the operation itself enforces the same bound internally
            taylor_remainder(fam, A, B, n)
    _verdict(4, "remainder subtraction form vs closed form", worst, 1e-8)


def test_criterion_5_perturbation_identities():
    worst_first = 0.0
    for fam in (gaussian(), runge()):
        A, B = pair(400, 6)
        worst_first = max(worst_first, perturbation_first_order(fam, A, B))
    _verdict(5, "first-order perturbation identity", worst_first, 1e-9)

    worst_higher = 0.0
    gen = SplitMix64(401)
    for k in (1, 2):
        d = 4
        A = random_hermitian(gen, d)
        B = random_hermitian(gen, d)
        aux_ops = [random_hermitian(gen, d) for _ in range(k)]
        aux_args = [gen.complex_normals((d, d)) for _ in range(k)]
        for j in range(1, k + 2):
            worst_higher = max(
                worst_higher,
                perturbation_higher_order(gaussian(), A, B, aux_ops, aux_args, k=k, j=j),
            )
    _verdict(5, "slot-replacement perturbation identity", worst_higher, 1e-8)

    worst_tel = 0.0
    A, B = pair(402, 4)
    for n, t, j in ((2, 0.9, 1), (3, 0.7, 2), (3, -0.4, 3)):
        worst_tel = max(worst_tel, telescoping_check(gaussian(), A, B, n=n, t=t, j=j))
    _verdict(5, "telescoped difference identity", worst_tel, 1e-8)


def test_criterion_6_first_order_ssf():
    worst_pair = 0.0
    for seed, d in ((500, 4), (501, 8)):
        A, B = pair(seed, d)
        grid = krein_ssf(A, B)
        for fam in (exponential(), gaussian()):
            lhs = float(np.real(
                trace(apply_function(fam, eig_hermitian(A + B)))
                - trace(apply_function(fam, eig_hermitian(A)))
            ))
            rhs = counting_pairing(grid, fam)
            worst_pair = max(worst_pair, abs(lhs - rhs) / max(1.0, abs(lhs)))
    _verdict(6, "exact Krein breakpoint trace formula", worst_pair, 1e-10)

    A, B = pair(5, 4)
    four = higher_ssf_fourier(A, B, n=1)
    count = krein_ssf(A, B)
    lam = np.asarray(count.params["spectrum_base"])
    mu = np.asarray(count.params["spectrum_perturbed"])
    exact = (
        (mu[None, :] > four.t_grid[:, None]).sum(1)
        - (lam[None, :] > four.t_grid[:, None]).sum(1)
    ).astype(float)
    l1 = float(np.trapezoid(np.abs(four.values - exact), four.t_grid))
    _verdict(6, "Fourier recovery vs counting form (L1)", l1, 1e-2)


def test_criterion_7_higher_order_ssf(ssf_cases):
    g2 = higher_ssf_fourier(np.array([[0.0]]), np.array([[1.0]]), n=2)
    true2 = np.where((g2.t_grid > 0) & (g2.t_grid < 1), 1.0 - g2.t_grid, 0.0)
    l1 = float(np.trapezoid(np.abs(g2.values - true2), g2.t_grid))
    _verdict(7, "scalar order-2 closed form (L1)", l1, 1e-2)

    worst_fn = 0.0
    worst_mom = 0.0
    for n, (A, B, grid) in ssf_cases.items():
        rep = verify_trace_formula(
            A, B, n, grid, [gaussian(), runge(), bump(halfwidth=4.0)]
        )
        worst_fn = max(worst_fn, rep.max_function_error())
        worst_mom = max(worst_mom, rep.max_moment_error())
    _verdict(7, "held-out trace formula, orders 2 and 3", worst_fn, 1e-3)
    _verdict(7, "moment identities k in {0,1,2}", worst_mom, 1e-3)


def test_criterion_8_identity_chain(ssf_cases):
    worst_chain = 0.0
    worst_pairing = 0.0
    for n, (A, B, grid) in ssf_cases.items():
        rep = diagonal_symbol_trace(A, B, n=n, f=gaussian(), ssf=grid)
        worst_chain = max(worst_chain, rep.chain_deviation)
        worst_pairing = max(worst_pairing, max(rep.pairing_errors))
    _verdict(8, "restricted vs full symbol trace", worst_chain, 1e-9)
    _verdict(8, "symbol traces vs density pairing", worst_pairing, 1e-3)


def test_criterion_9_counterexample():
    rows = lp_counterexample_demo(p=2.0, dims=[16, 64, 256, 1024, 4096])
    heavy = [r.r_heavy for r in rows]
    control = [r.r_bounded for r in rows]
    h_ratios = [b / a for a, b in zip(heavy, heavy[1:])]
    c_ratios = [b / a for a, b in zip(control, control[1:])]
    strictly_up = all(b > a for a, b in zip(heavy, heavy[1:]))
    _verdict(9, "heavy-tail column successive ratios >= 1.2",
             1.2 - min(h_ratios), 0.0, passed=(min(h_ratios) >= 1.2 and strictly_up))
    _verdict(9, "bounded control ratios within [0.95, 1.05]",
             max(abs(r - 1.0) for r in c_ratios), 0.05)


def test_criterion_10_reproducibility(tmp_path):
    cfg = ExperimentConfig(seed=77, dimension=3, order=2)
    blobs = []
    for _ in range(2):
        report = run_suite(cfg, "perturbation")
        payload = json.loads(report.to_json())
        payload["wall_time_s"] = 0.0
        blobs.append(json.dumps(payload, sort_keys=True).encode())
    _verdict(10, "byte-identical reports modulo wall time",
             0.0 if blobs[0] == blobs[1] else 1.0, 0.0,
             passed=(blobs[0] == blobs[1]))
