"""Counting and Fourier shift functions and their trace formulas."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moilab import cli
from moilab import ssf as ssf_module
from moilab.errors import ParameterError
from moilab.families import bump, exponential, fourier, gaussian, runge
from moilab.harness import DEFAULT_TOLERANCES, ExperimentConfig, generate_ensemble, run_suite
from moilab.matrix_io import save_matrix_csv
from moilab.rng import SplitMix64
from moilab.spectral import eig_hermitian, trace
from moilab.ssf import (
    MAX_NUM_S,
    FourierParams,
    counting_pairing,
    diagonal_symbol_trace,
    higher_ssf_fourier,
    krein_ssf,
    load_ssf,
    save_ssf,
    ssf_l1_report,
    verify_trace_formula,
)
from moilab.taylor import taylor_remainder
from conftest import random_hermitian


def pair(seed, d, scale=1.0):
    gen = SplitMix64(seed)
    A = random_hermitian(gen, d)
    B = random_hermitian(gen, d)
    return A, scale * B / np.linalg.norm(B, 2)


def test_krein_scalar_step():
    grid = krein_ssf(np.array([[0.0]]), np.array([[1.0]]))
    inside = (grid.t_grid > 0.0) & (grid.t_grid < 1.0)
    outside = (grid.t_grid < -0.01) | (grid.t_grid > 1.01)
    assert np.all(grid.values[inside] == 1.0)
    assert np.all(grid.values[outside] == 0.0)


def test_krein_zero_perturbation():
    A, _ = pair(1, 4)
    grid = krein_ssf(A, np.zeros((4, 4)))
    assert np.all(grid.values == 0.0)
    assert grid.l1_norm == 0.0


def test_krein_counting_values_are_small_integers():
    A, B = pair(2, 6)
    grid = krein_ssf(A, B)
    assert np.all(grid.values == np.round(grid.values))
    assert np.max(np.abs(grid.values)) <= 6


def test_krein_breakpoint_pairing_is_exact():
    A, B = pair(3, 6)
    grid = krein_ssf(A, B)
    f = exponential()
    lhs = float(np.real(trace(_fcalc(f, A + B) - _fcalc(f, A))))
    rhs = counting_pairing(grid, f)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def _fcalc(f, M):
    from moilab.spectral import apply_function, eig_hermitian

    return apply_function(f, eig_hermitian(M))


def test_fourier_params_validation():
    with pytest.raises(ParameterError):
        FourierParams(s_max=10.0, num_s=101)
    for s_max in (-1.0, 0.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ParameterError):
            FourierParams(s_max=s_max, num_s=100)
    # the exclusion zone 2 ds must stay inside the window
    for num_s in (0, 2, 4):
        with pytest.raises(ParameterError):
            FourierParams(s_max=10.0, num_s=num_s)
    assert FourierParams(s_max=10.0, num_s=100).s_min_exclusion == pytest.approx(0.4)
    # a t-step pi / s_max wider than the padded hull [-0.2, 0.7]
    with pytest.raises(ParameterError, match="fewer than 2 points"):
        higher_ssf_fourier(np.diag([0.0, 0.5]), np.diag([0.3, 0.0]), 2, FourierParams(1.0, 16))
    # a t-step pi / s_max so fine that t / dt is past any float: the grid is
    # too short to cover the hull, not an OverflowError
    for s_max in (1e308, np.finfo(float).max):
        with pytest.raises(ParameterError, match="increase num_s"):
            higher_ssf_fourier(np.diag([0.0, 20.0]), np.diag([0.3, 0.0]), 2,
                               FourierParams(s_max, 16384))


def test_cli_ssf_with_a_grid_too_fine_for_the_hull_exits_1(tmp_path, capsys):
    save_matrix_csv(tmp_path / "A.csv", np.diag([0.0, 1.0]))
    save_matrix_csv(tmp_path / "B.csv", np.diag([0.5, 0.0]))
    argv = ["ssf", "--matrix-a", str(tmp_path / "A.csv"), "--matrix-b", str(tmp_path / "B.csv"),
            "--order", "2", "--s-max", "1e308", "--out", str(tmp_path / "eta.csv")]
    assert cli.main(argv) == 1
    assert "increase num_s" in capsys.readouterr().err


def test_scalar_order2_closed_form():
    # a = 0, b = 1: density is (1 - t) on (0, 1)
    grid = higher_ssf_fourier(np.array([[0.0]]), np.array([[1.0]]), n=2)
    true = np.where((grid.t_grid > 0) & (grid.t_grid < 1), 1.0 - grid.t_grid, 0.0)
    l1_err = np.trapezoid(np.abs(grid.values - true), grid.t_grid)
    assert l1_err <= 1e-2
    assert grid.imag_residue <= 1e-6 * grid.l1_norm


def test_fourier_order1_matches_counting():
    A, B = pair(5, 4)
    counting = krein_ssf(A, B)
    fourier = higher_ssf_fourier(A, B, n=1)
    ref = np.interp(fourier.t_grid, counting.t_grid, counting.values)
    # compare on the common grid; the counting form is exact
    lam = np.asarray(counting.params["spectrum_base"])
    mu = np.asarray(counting.params["spectrum_perturbed"])
    exact = (
        (mu[None, :] > fourier.t_grid[:, None]).sum(1)
        - (lam[None, :] > fourier.t_grid[:, None]).sum(1)
    ).astype(float)
    l1 = np.trapezoid(np.abs(fourier.values - exact), fourier.t_grid)
    assert l1 <= 1e-2, l1
    del ref


def test_fourier_moment_anchor():
    A, B = pair(6, 4, scale=0.8)
    grid = higher_ssf_fourier(A, B, n=2)
    want = float(np.trace(B @ B).real) / 2.0
    assert grid.moment(0) == pytest.approx(want, abs=1e-4 * (1 + abs(want)))


def test_support_and_vanishing_outside_hull():
    A, B = pair(7, 4)
    grid = higher_ssf_fourier(A, B, n=2)
    lo, hi = grid.support
    span = hi - lo
    margin = 0.05 * span
    outside = (grid.t_grid < lo - margin) | (grid.t_grid > hi + margin)
    peak = np.max(np.abs(grid.values))
    assert np.any(outside)
    assert np.max(np.abs(grid.values[outside])) <= 1e-4 * peak


@pytest.mark.parametrize("n", [2, 3])
def test_heldout_trace_formula_and_moments(n):
    A, B = pair(8, 4)
    grid = higher_ssf_fourier(A, B, n=n)
    report = verify_trace_formula(
        A, B, n, grid, [gaussian(), runge(), bump(halfwidth=4.0)]
    )
    assert report.max_function_error() <= 1e-3, report.rows
    assert report.max_moment_error() <= 1e-3, report.moments


def test_affine_function_pairs_to_zero():
    # f with vanishing n-th derivative gives zero on both sides
    A, B = pair(9, 3)
    n = 2
    grid = higher_ssf_fourier(A, B, n=n)
    from moilab.families import monomial

    f = monomial(1, max_order=4)
    lhs = float(np.real(trace(taylor_remainder(f, A, B, n))))
    rhs = grid.quadrature(np.asarray(f.eval(n, grid.t_grid)))
    assert abs(lhs) <= 1e-10
    assert abs(rhs) <= 1e-6


def test_identity_chain_polynomial_case():
    from moilab.families import monomial

    A, B = pair(10, 4)
    rep = diagonal_symbol_trace(A, B, n=2, f=monomial(3))
    assert rep.chain_deviation <= 1e-9
    # both traces equal the remainder trace for a cubic
    want = complex(trace(taylor_remainder(monomial(3), A, B, 2)))
    assert rep.restricted_trace == pytest.approx(want, rel=1e-9)
    assert rep.full_trace == pytest.approx(want, rel=1e-9)


def test_identity_chain_zero_perturbation():
    A, _ = pair(11, 3)
    rep = diagonal_symbol_trace(A, np.zeros((3, 3)), n=2, f=gaussian())
    assert rep.chain_deviation <= 1e-9
    assert abs(rep.restricted_trace) <= 1e-12
    assert abs(rep.full_trace) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_identity_chain_matches_pairing(n):
    A, B = pair(12, 4)
    grid = higher_ssf_fourier(A, B, n=n)
    rep = diagonal_symbol_trace(A, B, n=n, f=gaussian(), ssf=grid)
    assert rep.chain_deviation <= 1e-9
    assert max(rep.pairing_errors) <= 1e-3


def test_identity_chain_needs_two_slots():
    A, B = pair(13, 3)
    with pytest.raises(ParameterError):
        diagonal_symbol_trace(A, B, n=1, f=gaussian())


def test_l1_report_zero_and_scalar():
    A, _ = pair(14, 3)
    grid = krein_ssf(A, np.zeros((3, 3)))
    rep = ssf_l1_report(A, np.zeros((3, 3)), 1, grid)
    assert rep["l1_norm"] == 0.0 and rep["b_norm_pow"] == 0.0
    # scalar order-2 closed form integrates to 1/2 with unit perturbation
    grid2 = higher_ssf_fourier(np.array([[0.0]]), np.array([[1.0]]), n=2)
    rep2 = ssf_l1_report(np.array([[0.0]]), np.array([[1.0]]), 2, grid2)
    assert rep2["l1_norm"] == pytest.approx(0.5, abs=2e-2)
    assert rep2["b_norm_pow"] == pytest.approx(1.0)


def test_remainder_trace_is_linear_in_function():
    # trace(remainder(a1 f1 + a2 f2)) equals the combination of the parts
    from moilab.families import FunctionFamily

    A, B = pair(15, 4)
    n = 2
    f1, f2 = gaussian(), runge()
    a1, a2 = 0.6, -1.3
    combo = FunctionFamily(
        "combo",
        min(f1.max_order, f2.max_order),
        lambda k, x: a1 * f1.eval(k, x) + a2 * f2.eval(k, x),
        bounded_deriv={k: True for k in range(1, 7)},
        vanishes_at_inf={k: True for k in range(1, 7)},
    )
    lhs = float(np.real(trace(taylor_remainder(combo, A, B, n))))
    t1 = float(np.real(trace(taylor_remainder(f1, A, B, n))))
    t2 = float(np.real(trace(taylor_remainder(f2, A, B, n))))
    rhs = a1 * t1 + a2 * t2
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
    # and the pairing side is linear by construction of the quadrature
    grid = higher_ssf_fourier(A, B, n=n)
    combined = np.asarray(combo.eval(n, grid.t_grid))
    split = a1 * np.asarray(f1.eval(n, grid.t_grid)) + a2 * np.asarray(f2.eval(n, grid.t_grid))
    assert grid.quadrature(combined) == pytest.approx(grid.quadrature(split), rel=1e-12)


def test_serialization_roundtrip_and_determinism(tmp_path):
    A, B = pair(16, 3)
    grid = higher_ssf_fourier(A, B, n=2, seed=16)
    p1 = tmp_path / "a.csv"
    m1 = tmp_path / "a.json"
    save_ssf(grid, p1, m1)
    grid_again = higher_ssf_fourier(A, B, n=2, seed=16)
    p2 = tmp_path / "b.csv"
    m2 = tmp_path / "b.json"
    save_ssf(grid_again, p2, m2)
    assert p1.read_bytes() == p2.read_bytes()
    assert m1.read_bytes() == m2.read_bytes()
    loaded = load_ssf(p1, m1)
    assert loaded.order == 2
    assert np.array_equal(loaded.t_grid, grid.t_grid)
    assert np.array_equal(loaded.values, grid.values)
    assert loaded.method == "fourier"


# ---------------------------------------------------------------------------
# The reduced-arity Fourier sweep against the remainder oracle
# ---------------------------------------------------------------------------

# Bound on |F_sweep - F_oracle|: C_ROUND * eps in units of d (1 + s ||B||)^(n-1),
# the size of the terms the sweep subtracts.  Measured on 4000 draws of the
# strategy below (1000 per spectrum kind) with the merging table this bound
# was set for: the rounding ratio was at most 3.0e3 (repeated spectrum, n = 1,
# at s_max), and the constant rounds it up by 3x.  With the merge-free table
# and gaps up to 1e-2: at most 32 on the draws below, 111 on 400 random ones.
C_ROUND = 1e4


def _spectrum_pair(seed, d, kind, gap, b_norm):
    """(A, B): A = Q diag(lam) Q* with a spectrum of the given kind, B
    Hermitian of norm b_norm.  The "gap" kind puts two eigenvalues
    gap (1 + |lam|) apart."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-2.0, 2.0, d)
    if kind == "scalar":
        lam[:] = lam[0]
    elif kind == "repeated":
        lam = rng.choice(lam[:2], d)
    elif kind == "gap" and d > 1:
        lam[1] = lam[0] + gap * (1.0 + abs(lam[0]))
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    A = (Q * lam) @ Q.conj().T
    A = (A + A.conj().T) / 2
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    B = (X + X.conj().T) / 2
    return A, B * (b_norm / np.linalg.norm(B, 2))


def _sweep(EA, EAB, B, n, ds, k_lo, k_hi, step):
    """The sweep's F at s = k ds, k_lo <= k < k_hi, into a new array."""
    return ssf_module._remainder_trace_exponential(
        EA, EAB, B, n, ds, k_lo, k_hi, step, np.empty(k_hi - k_lo, dtype=complex))


def _sweep_step(d, n):
    """The s-points per chunk that higher_ssf_fourier sweeps with."""
    return max(1, ssf_module._SWEEP_ENTRIES // max(2 * d, (n - 1) * d ** (n - 1)))


def _sweep_and_oracle(A, B, n, full=False):
    """F on the first s past the exclusion zone, a middle s and the last s, by
    both routes, swept in higher_ssf_fourier's chunks.  The sweep runs on the
    offsets 2 <= k <= h of the auto window, s_max included, or with full=True
    on the offsets 2 <= k < h that higher_ssf_fourier sweeps."""
    p = FourierParams.auto(A, B, n)
    k_hi = p.num_s // 2 + (0 if full else 1)
    grid = p.ds * np.arange(2, k_hi)
    idx = np.array([0, len(grid) // 7, len(grid) - 1])
    s_vals = grid[idx]
    EA, EAB = eig_hermitian(A), eig_hermitian(A + B)
    got = _sweep(EA, EAB, B, n, p.ds, 2, k_hi, _sweep_step(len(A), n))[idx]
    want = np.array([complex(trace(taylor_remainder(fourier(x), A, B, n))) for x in s_vals])
    return s_vals, got, want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    d=st.integers(1, 4),
    n=st.integers(1, 3),
    kind=st.sampled_from(["generic", "scalar", "repeated", "gap"]),
    gap=st.sampled_from([5e-9, 1e-8, 2e-8, 5e-8, 9e-8, 1.5e-7, 1e-6, 1e-5, 1e-4, 1e-3,
                         1e-2]),
    b_norm=st.sampled_from([0.0, 0.3, 1.0, 2.0]),
)
def test_sweep_matches_remainder_oracle(seed, d, n, kind, gap, b_norm):
    # d = 1, B = 0, A = cI, exact repeats, and near-confluent gaps from 5e-9
    # to 1e-2, across the tolerances the library used to merge at
    A, B = _spectrum_pair(seed, d, kind, gap, b_norm)
    s, got, want = _sweep_and_oracle(A, B, n)
    bound = C_ROUND * np.finfo(float).eps * d * (1.0 + s * b_norm) ** (n - 1)
    assert np.all(np.abs(got - want) <= bound), (np.abs(got - want) / bound).max()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed,d,kind", [(31, 4, "generic"), (32, 3, "gap")])
def test_sweep_on_the_full_auto_grid_matches_remainder_oracle(seed, d, n, kind):
    # the chunks and exponential tables of higher_ssf_fourier's own grid
    A, B = _spectrum_pair(seed, d, kind, 1e-4, 1.0)
    s, got, want = _sweep_and_oracle(A, B, n, full=True)
    bound = C_ROUND * np.finfo(float).eps * d * (1.0 + s) ** (n - 1)
    assert np.all(np.abs(got - want) <= bound), (np.abs(got - want) / bound).max()


def test_sweep_chunked_and_unchunked_agree():
    A, B = pair(21, 5)
    ds = 40.0 / 300  # s = ds, 2 ds, ..., 40
    EA, EAB = eig_hermitian(A), eig_hermitian(A + B)
    whole = _sweep(EA, EAB, B, 3, ds, 1, 301, 300)
    chunked = _sweep(EA, EAB, B, 3, ds, 1, 301, 7)
    np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-13 * np.abs(whole).max())


def test_fourier_budget_errors_before_allocation():
    A, B = pair(22, 8)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="cap"):
            higher_ssf_fourier(A, B, 2, params=FourierParams(s_max=10.0, num_s=2 ** 40))
        with pytest.raises(ParameterError, match="per s-point"):
            higher_ssf_fourier(A, B, 8)  # 7 * 8^7 entries per s-point
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_auto_num_s_is_capped_by_the_shared_constant():
    # far from the origin the Nyquist target exceeds the cap
    A = np.diag([1e4, 1e4 + 1.0])
    p = FourierParams.auto(A, np.diag([0.5, -0.5]), 2)
    assert p.num_s == MAX_NUM_S


def test_fourier_order1_suite_call_memory_regression():
    # the suite's order-1 call, the largest grid it inverts (2^18 steps)
    A, B = generate_ensemble(ExperimentConfig(seed=7, dimension=4, order=1))
    tracemalloc.start()
    try:
        grid = higher_ssf_fourier(A, B, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.params["num_s"] == MAX_NUM_S
    assert peak < 6 * 2 ** 20, peak / 2 ** 20


def test_ssf_group_memory_regression():
    # the whole ssf check group at the default config; its peak is the order-1
    # call's, which holds etahat (2 MiB) and chunk-sized buffers besides
    config = ExperimentConfig(seed=7, dimension=4, order=2)
    tracemalloc.start()
    try:
        report = run_suite(config, "ssf")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.all_passed, report.records
    assert peak < 6 * 2 ** 20, peak / 2 ** 20


def _fourier_whole_array(A, B, n):
    """higher_ssf_fourier's density with the quotient, fit, taper and weights
    applied to the whole half-grid at once, on the same sweep F."""
    p = FourierParams.auto(A, B, n)
    EA, EAB = eig_hermitian(A), eig_hermitian(A + B)
    h, ds = p.num_s // 2, p.ds
    s = ds * np.arange(2, h)
    etahat = np.zeros(h + 1, dtype=complex)
    etahat[2:h] = _sweep(EA, EAB, B, n, ds, 2, h, _sweep_step(len(A), n))
    etahat[2:h] /= s ** n
    etahat[2:h] *= (-1j) ** n
    eta0 = float(np.trace(np.linalg.matrix_power(B, n)).real) / math.factorial(n)
    sf, ef = s[:7], etahat[2:9]
    cr = np.linalg.lstsq(np.stack([sf ** 2, sf ** 4], axis=1), ef.real - eta0, rcond=None)[0]
    ci = np.linalg.lstsq(np.stack([sf, sf ** 3], axis=1), ef.imag, rcond=None)[0]
    sq = np.array([0.0, ds])
    etahat[:2] = eta0 + cr[0] * sq ** 2 + cr[1] * sq ** 4 + 1j * (ci[0] * sq + ci[1] * sq ** 3)
    cut = 0.5 * p.s_max
    taper = np.where(s > cut, 0.5 * (1.0 + np.cos(np.pi * (s - cut) / (p.s_max - cut))), 1.0)
    etahat[2:h] *= taper
    etahat *= ds
    etahat /= 2.0 * np.pi
    grid = higher_ssf_fourier(A, B, n)
    k = np.rint(grid.t_grid / (np.pi / p.s_max)).astype(int)
    return grid.values, ssf_module._band_dft(etahat, k[0], len(k)).real


@pytest.mark.parametrize("d,n", [(4, 1), (6, 3), (16, 3)])
def test_fourier_chunked_finish_matches_whole_array(d, n):
    # the quotient, taper and weights are applied a sweep chunk at a time
    A, B = generate_ensemble(ExperimentConfig(seed=7, dimension=d, order=n))
    got, want = _fourier_whole_array(A, B, n)
    err = np.abs(got - want).max()
    assert err <= 4 * np.finfo(float).eps * np.abs(want).max(), err / np.abs(want).max()


# Bound on |X_band - X_fft| for the band inverse: C_BAND * eps * log2(N) * ||u||_2.
# Measured on the cases below: at most 1.8 (N = 2^10, K = 1 at k = h - 1).
C_BAND = 4


@pytest.mark.parametrize("N", [2 ** 10, 2 ** 14, 2 ** 18, 12346])
def test_band_dft_matches_full_fft(N):
    h = N // 2
    rng = np.random.default_rng(N)
    g = rng.normal(size=h + 1) + 1j * rng.normal(size=h + 1)
    g[h] = 0.0
    u = np.concatenate([g[:h], [0.0], np.conj(g[1:h][::-1])])
    full = np.fft.fft(u)
    bound = C_BAND * np.finfo(float).eps * np.log2(N) * np.linalg.norm(u)
    bands = [
        (-37, 100),             # crosses k = 0
        (-h, 50), (h - 60, 60),  # touch -h and h - 1
        (5, 1), (-h, 1), (h - 1, 1),
        (-h, h + 3), (-h, N),   # K > N/2: a single FFT
        (-3 * h // 4, h // 2),
    ]
    for k_lo, K in bands:
        got = ssf_module._band_dft(g, k_lo, K)
        want = full[(k_lo + np.arange(K)) % N]
        err = np.abs(got - want).max()
        assert err <= bound, (k_lo, K, err / bound)
        assert err <= 1e-14 * np.abs(full).max(), (k_lo, K)


def test_fourier_grid_with_no_power_of_two_split(tmp_path):
    # num_s = 12346 = 2 * 6173 with 6173 prime: no divisor of h splits N, so
    # the band inverse is one FFT; a linspace over this window would put its
    # centre point at 2.8e-14, not at 0
    A, B = generate_ensemble(ExperimentConfig(seed=7, dimension=4, order=2))
    grid = higher_ssf_fourier(A, B, 2, FourierParams(250.7, 12346))
    report = verify_trace_formula(A, B, 2, grid, [gaussian(), runge(), bump(halfwidth=4.0)])
    assert report.max_function_error() <= DEFAULT_TOLERANCES["heldout_rel"], report.rows
    assert report.max_moment_error() <= DEFAULT_TOLERANCES["moment_rel"], report.moments
    save_matrix_csv(tmp_path / "A.csv", A)
    save_matrix_csv(tmp_path / "B.csv", B)
    argv = ["ssf", "--matrix-a", str(tmp_path / "A.csv"), "--matrix-b", str(tmp_path / "B.csv"),
            "--order", "2", "--s-max", "250.7", "--num-s", "12346",
            "--out", str(tmp_path / "eta.csv")]
    assert cli.main(argv) == 0


def test_fourier_d32_order3_memory_regression():
    A, B = pair(23, 32)
    tracemalloc.start()
    try:
        grid = higher_ssf_fourier(A, B, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(grid.values))
    assert peak < 6 * 2 ** 20, peak / 2 ** 20


# ---------------------------------------------------------------------------
# The Fourier sweep against the block-triangular expm oracle
# ---------------------------------------------------------------------------

# Bound on |F_sweep - F_expm|: C_EXPM * eps in units of d (1 + s ||B||)^(n-1),
# the size of the terms the sweep subtracts, as in the oracle test above.  The
# expm side is good to 5 eps against a 40-digit mpmath expm.  Measured on
# 12000 draws of the strategy below (36000 s-points, three seed sets) with the
# merging table, in units that also allowed its loss of eps / (s g)^(n-2) at
# eigenvalue gaps g: the ratio was at most 9.8, and the constant rounds it up
# by 3.3x.  The merge-free table needs no such allowance: at most 6.4 on the
# draws below, 10.1 on 600 random ones.
C_EXPM = 32


def _expm_remainder_trace(A, B, n, s):
    """tr R_n(e^{is.})(A, B) from scipy's expm alone.

    The top-right block of exp of the (k+1)-block upper bidiagonal matrix with
    isA on the diagonal and isB above it is the k-th Taylor term of
    t -> e^{is(A + tB)} at t = 0, so tr R_n = tr e^{is(A+B)} minus the traces
    of the terms k < n.  No eigensolve, divided difference or operator
    integral is involved.
    """
    import scipy.linalg  # oracle only

    d = len(A)
    total = np.trace(scipy.linalg.expm(1j * s * (A + B)))
    for k in range(n):
        M = np.kron(np.eye(k + 1), 1j * s * A) + np.kron(np.eye(k + 1, k=1), 1j * s * B)
        total -= np.trace(scipy.linalg.expm(M)[:d, k * d:])
    return total


def _oracle_pair(seed, d, kind, b_norm):
    """(A, B, lam): A with a generic spectrum lam in a random basis, or
    diagonal with exactly repeated eigenvalues lam; B Hermitian of norm b_norm."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-2.0, 2.0, d)
    if kind == "repeated":
        lam = rng.choice(lam[:2], d)
        A = np.diag(lam).astype(complex)
    else:
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        A = (Q * lam) @ Q.conj().T
        A = (A + A.conj().T) / 2
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    B = (X + X.conj().T) / 2
    return A, B * (b_norm / np.linalg.norm(B, 2)), lam


def _sweep_vs_expm(A, B, n, ds, k_hi, idx):
    """|F_sweep - F_expm| at the points idx of the sweep over s = k ds, 1 <= k < k_hi."""
    EA, EAB = eig_hermitian(A), eig_hermitian(A + B)
    got = _sweep(EA, EAB, B, n, ds, 1, k_hi, k_hi - 1)[idx]
    want = np.array([_expm_remainder_trace(A, B, n, s) for s in ds * (np.asarray(idx) + 1)])
    return np.abs(got - want)


def _expm_bound(lam, b_norm, n, s_vals):
    return C_EXPM * np.finfo(float).eps * len(lam) * (1.0 + s_vals * b_norm) ** (n - 1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    d=st.sampled_from([1, 2, 4]),
    n=st.integers(2, 5),
    kind=st.sampled_from(["generic", "repeated"]),
    b_norm=st.sampled_from([0.3, 1.0, 2.0]),
)
def test_sweep_matches_expm_oracle(seed, d, n, kind, b_norm):
    # s ||B|| in {0.05, 0.7, 2}; orders 4 and 5 are covered by no other test,
    # and exact repeats are the nodes the sweep exponentiates once
    A, B, lam = _oracle_pair(seed, d, kind, b_norm)
    # s ||B|| = 0.05, 0.7 and 2.0 on a grid of step 0.05 / ||B||
    ds = 0.05 / b_norm
    idx = [0, 13, 39]
    err = _sweep_vs_expm(A, B, n, ds, 41, idx)
    bound = _expm_bound(lam, b_norm, n, ds * (np.asarray(idx) + 1))
    assert np.all(err <= bound), (err / bound).max()
