"""Derivative formula, remainders, perturbation identities, divergence demo."""

import math
import tracemalloc

import numpy as np
import pytest

from moilab.errors import (
    DimensionMismatchError,
    OrderLimitError,
    ParameterError,
    ToleranceError,
)
from moilab.families import bump, exponential, fourier, gaussian, monomial, recip_plus, runge
from moilab.harness import DEFAULT_TOLERANCES, ExperimentConfig, generate_ensemble
from moilab.rng import SplitMix64
from moilab.taylor import (
    derivative_moi,
    finite_difference_oracle,
    gateaux_derivative,
    lp_counterexample_demo,
    perturbation_first_order,
    perturbation_higher_order,
    remainder_two_path,
    taylor_remainder,
    telescoping_check,
)
from conftest import pair, random_hermitian


def test_first_derivative_of_square_is_anticommutator():
    A, B = pair(1, 4)
    # both entry points file the missing-flags warning under the caller's line
    with pytest.warns(UserWarning, match="bounded-derivative") as caught:
        got = gateaux_derivative(monomial(2), A, B, k=1)
        via_moi = derivative_moi(monomial(2), A, B, k=1).value
    assert np.allclose(got, A @ B + B @ A, atol=1e-10)
    assert np.array_equal(via_moi, got)
    assert [w.filename for w in caught] == [__file__, __file__]


@pytest.mark.parametrize("n", [2, 3])
def test_top_derivative_of_monomial(n):
    A, B = pair(2, 3)
    with pytest.warns(UserWarning, match="bounded-derivative"):
        got = gateaux_derivative(monomial(n), A, B, k=n, t=0.4)
    want = math.factorial(n) * np.linalg.matrix_power(B, n)
    assert np.linalg.norm(got - want) <= 1e-9 * max(1.0, np.linalg.norm(want))


def test_exp_second_derivative_matches_richardson():
    A, B = pair(3, 5)
    with pytest.warns(UserWarning):  # exp carries no bounded-derivative flags
        got = gateaux_derivative(exponential(), A, B, k=2, t=0.3)
    want = finite_difference_oracle(exponential(), A, B, k=2, t=0.3)
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel <= 1e-6


@pytest.mark.parametrize("fam", [gaussian(), runge(), bump(halfwidth=3.0)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_derivative_matches_oracle_across_families(fam, k):
    A, B = pair(5, 4)
    got = gateaux_derivative(fam, A, B, k=k, t=0.1)
    want = finite_difference_oracle(fam, A, B, k=k, t=0.1)
    scale = max(1.0, np.linalg.norm(want))
    assert np.linalg.norm(got - want) / scale <= 1e-5


def expm_derivative(A, B, k, s):
    """D^k e^{isx}(A)[B, ..., B] from scipy's expm alone.

    The top-right block of exp of the (k+1)-block upper bidiagonal matrix with
    isA on the diagonal and isB above it is the k-th Taylor coefficient of
    t -> e^{is(A + tB)}: no eigensolve, divided difference or step size.
    """
    import scipy.linalg  # oracle only

    d = len(A)
    M = np.kron(np.eye(k + 1), 1j * s * A) + np.kron(np.eye(k + 1, k=1), 1j * s * B)
    return math.factorial(k) * scipy.linalg.expm(M)[:d, k * d:]


# Bound on ||D - D_expm||_F: C_DERIV (1 + s max|lambda|) (eps + eps^(1-k/(M+1))) s^k,
# with M = 16 the max_order of fourier(s) and s^k = k! sup|f^(k)|/k!.  The
# second factor is the divided-difference table's derived error; the first is
# the rounding of s lambda in each e^{is lambda}, which the table's quotients
# amplify like any other rounding.  Measured on the grid below: at most 0.688
# (k = 1), then 0.127, 0.020 and 0.0032 at k = 2, 3, 4.  The constant rounds
# 0.688 up by 1.45x.
C_DERIV = 1.0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_derivative_matches_expm_on_near_confluent_spectra(k):
    # {-0.7, 0.2, 0.2, 0.9} and 25 times it (spreads 1.6 and 40), the third
    # eigenvalue moved by g from 1e-9 to 1e-2, across the former merge
    # tolerances and tau
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    B = (X + X.conj().T) / 2
    B /= np.linalg.norm(B, 2)
    eps = np.finfo(float).eps
    worst = 0.0
    for spread in (1.0, 25.0):
        for g in np.geomspace(1e-9, 1e-2, 29):
            lam = spread * np.array([-0.7, 0.2, 0.2, 0.9]) + np.array([0.0, 0.0, g, 0.0])
            A = (Q * lam) @ Q.conj().T
            A = (A + A.conj().T) / 2
            for s in (1.0, 5.0):
                f = fourier(s)
                err = np.linalg.norm(gateaux_derivative(f, A, B, k) - expm_derivative(A, B, k, s))
                table = eps + eps ** (1 - k / (f.max_order + 1))
                unit = (1 + s * np.abs(lam).max()) * table * s ** k
                worst = max(worst, err / unit)
    assert worst <= C_DERIV, worst


def test_real_family_derivative_is_hermitian():
    A, B = pair(6, 5)
    D = gateaux_derivative(gaussian(), A, B, k=2)
    assert np.linalg.norm(D - D.conj().T) <= 1e-10


def test_oracle_linear_function_higher_orders_vanish():
    # truncation is identically zero for a linear map; a moderate step keeps
    # the 1/h^k rounding amplification below the target
    A, B = pair(7, 4)
    for k in (2, 3):
        out = finite_difference_oracle(monomial(1), A, B, k=k, h=0.5, levels=0)
        assert np.linalg.norm(out) <= 1e-10


def test_oracle_square_first_derivative_exact():
    A, B = pair(8, 4)
    out = finite_difference_oracle(monomial(2), A, B, k=1, levels=0)
    assert np.allclose(out, A @ B + B @ A, atol=1e-9)


@pytest.mark.parametrize("k,h_range", [(1, (1e-2, 1e-4)), (2, (3e-2, 1e-3)), (3, (1e-1, 1e-2))])
def test_oracle_convergence_slope_is_quadratic(k, h_range):
    # un-extrapolated central differences converge at O(h^2); the h-window
    # per order keeps rounding error below truncation
    fam = gaussian()
    A, B = pair(9, 4)
    exact = gateaux_derivative(fam, A, B, k=k)
    hs = np.geomspace(h_range[0], h_range[1], 5)
    errs = []
    for h in hs:
        approx = finite_difference_oracle(fam, A, B, k=k, h=h, levels=0)
        errs.append(np.linalg.norm(approx - exact))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.7 <= slope <= 2.3, (k, slope)


def test_first_order_chain_against_perturbation_slope():
    # d/dt at t equals the limit slope of the first-order difference
    fam = gaussian()
    A, B = pair(10, 4)
    t = 0.2
    D = gateaux_derivative(fam, A, B, k=1, t=t)
    from moilab.moi import dd_symbol, moi_projection_sum, operands
    from moilab.spectral import eig_hermitian

    prev = None
    for s in (1e-3, 1e-4):
        Ets = eig_hermitian(A + (t + s) * B)
        Et = eig_hermitian(A + t * B)
        slope = moi_projection_sum(
            dd_symbol(fam, 1), operands([Ets, Et], [B])
        ).value
        err = np.linalg.norm(slope - D)
        if prev is not None:
            assert err <= 0.2 * prev  # O(s) decay
        prev = err
    assert prev <= 1e-4 * max(1.0, np.linalg.norm(D))


def test_remainder_first_order_is_increment():
    fam = gaussian()
    A, B = pair(11, 4)
    R = taylor_remainder(fam, A, B, n=1)
    from moilab.spectral import apply_function, eig_hermitian

    want = apply_function(fam, eig_hermitian(A + B)) - apply_function(fam, eig_hermitian(A))
    assert np.linalg.norm(R - want) <= 1e-9 * max(1.0, np.linalg.norm(want))


def test_remainder_scalar_exponential():
    A = np.array([[0.0]])
    B = np.array([[1.0]])
    R = taylor_remainder(exponential(), A, B, n=3)
    assert R[0, 0].real == pytest.approx(math.e - 2.5, rel=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_remainder_two_paths_agree(n):
    fam = gaussian()
    A, B = pair(12, 4)
    # the contract itself asserts agreement at 1e-8; just exercise it
    R = taylor_remainder(fam, A, B, n=n)
    assert np.all(np.isfinite(R))


def test_remainder_two_path_backs_taylor_remainder():
    fam = gaussian()
    A, B = pair(12, 4)
    sigma, closed, dev = remainder_two_path(fam, A, B, 3)
    assert dev == float(np.linalg.norm(sigma - closed)) / max(
        1.0, float(np.linalg.norm(sigma)), float(np.linalg.norm(closed)))
    assert np.array_equal(taylor_remainder(fam, A, B, n=3), closed)
    with pytest.raises(ToleranceError):
        taylor_remainder(fam, A, B, n=3, check_tol=dev / 2)


def test_remainder_rejects_out_of_range_order():
    A, B = pair(13, 3)
    with pytest.raises(OrderLimitError):
        taylor_remainder(recip_plus(), A, B, n=3)


_A2, _B1 = np.diag([0.0, 1.0]), np.array([[0.5]])


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("call", [
    lambda A, B: gateaux_derivative(gaussian(), A, B, 1),
    lambda A, B: derivative_moi(gaussian(), A, B, 1),
    lambda A, B: finite_difference_oracle(gaussian(), A, B, 1),
    lambda A, B: remainder_two_path(gaussian(), A, B, 2),
    lambda A, B: taylor_remainder(gaussian(), A, B, 2),
    lambda A, B: perturbation_first_order(gaussian(), A, B),
    lambda A, B: perturbation_higher_order(gaussian(), A, B, [_A2], [np.eye(2)], k=1, j=1),
    lambda A, B: telescoping_check(gaussian(), A, B, n=2, t=0.5, j=1),
], ids=["gateaux_derivative", "derivative_moi", "finite_difference_oracle",
        "remainder_two_path", "taylor_remainder", "perturbation_first_order",
        "perturbation_higher_order", "telescoping_check"])
def test_a_pair_of_different_shapes_is_a_dimension_mismatch(call, swap):
    # A + tB would broadcast a 1 x 1 matrix against the other
    A, B = (_B1, _A2) if swap else (_A2, _B1)
    with pytest.raises(DimensionMismatchError, match="share a dimension"):
        call(A, B)


def test_perturbation_first_order_square_polynomial():
    A, B = pair(14, 4)
    with pytest.warns(UserWarning, match="Lipschitz"):
        res = perturbation_first_order(monomial(2), A, B)
    assert res <= 1e-12


def test_perturbation_first_order_equal_operators():
    A, _ = pair(15, 4)
    res = perturbation_first_order(gaussian(), A, A)
    assert res <= 1e-12


def test_perturbation_first_order_exp():
    A, B = pair(16, 6)
    with pytest.warns(UserWarning):
        res = perturbation_first_order(exponential(), A, B)
    assert res <= 1e-9


def test_perturbation_higher_order_identity():
    gen = SplitMix64(17)
    A = random_hermitian(gen, 3)
    B = random_hermitian(gen, 3)
    a_ops = [random_hermitian(gen, 3) for _ in range(2)]
    x_args = [gen.complex_normals((3, 3)) for _ in range(2)]
    for j in (1, 2, 3):
        res = perturbation_higher_order(gaussian(), A, B, a_ops, x_args, k=2, j=j)
        assert res <= 1e-8


def test_perturbation_higher_order_trivial_cases():
    gen = SplitMix64(18)
    A = random_hermitian(gen, 3)
    a_ops = [random_hermitian(gen, 3)]
    x_args = [gen.complex_normals((3, 3))]
    # B = A collapses both sides to zero
    res = perturbation_higher_order(gaussian(), A, A, a_ops, x_args, k=1, j=1)
    assert res <= 1e-12
    res = perturbation_higher_order(monomial(2), A, 0.5 * A, a_ops, x_args, k=1, j=1)
    assert res <= 1e-12


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_derivative_rejects_a_non_finite_t(t):
    A, B = pair(24, 3)
    with pytest.raises(ParameterError, match="t must be finite"):
        gateaux_derivative(gaussian(), A, B, 1, t=t)


def test_telescoping_identity():
    A, B = pair(19, 4)
    assert telescoping_check(gaussian(), A, B, n=3, t=0.7, j=2) <= 1e-8
    assert telescoping_check(monomial(3), A, B, n=2, t=0.9, j=1) <= 1e-11
    assert telescoping_check(gaussian(), A, B, n=2, t=0.0, j=2) <= 1e-12


def test_telescoping_d16_order4_memory_regression():
    # the perturbation group's call at the pinned stress config {7, 16, 3}; a
    # table run per index row, not per multiset, peaks at 71.5 MiB here
    A, B = generate_ensemble(ExperimentConfig(seed=7, dimension=16, order=3))
    tracemalloc.start()
    try:
        residual = telescoping_check(gaussian(), A, B, n=4, t=0.7, j=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual <= DEFAULT_TOLERANCES["telescoping"]
    assert peak <= 45 * 2 ** 20, peak / 2 ** 20


def test_gateaux_d64_order3_memory_regression():
    # one order-3 derivative on the seed-7 draw at d = 64: about 23 MiB
    A, B = generate_ensemble(ExperimentConfig(seed=7, dimension=64, order=3))
    tracemalloc.start()
    try:
        D = gateaux_derivative(gaussian(), A, B, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(D))
    assert peak <= 32 * 2 ** 20, peak / 2 ** 20


def test_telescoping_validates_slots():
    A, B = pair(20, 3)
    with pytest.raises(ParameterError):
        telescoping_check(gaussian(), A, B, n=2, t=0.5, j=3)


def test_counterexample_rows_and_monotonicity():
    rows = lp_counterexample_demo(p=2.0, dims=[16, 64, 256, 1024, 4096])
    heavy = [r.r_heavy for r in rows]
    bounded = [r.r_bounded for r in rows]
    h_ratios = [b / a for a, b in zip(heavy, heavy[1:])]
    b_ratios = [b / a for a, b in zip(bounded, bounded[1:])]
    assert all(r >= 1.2 for r in h_ratios), h_ratios
    assert all(0.95 <= r <= 1.05 for r in b_ratios), b_ratios


def test_counterexample_scalar_row_and_matched_formula():
    rows = lp_counterexample_demo(p=2.0, dims=[1, 8])
    assert rows[0].dim == 1 and np.isfinite(rows[0].r_heavy)
    # direct evaluation of the closed-form difference quotient
    d = 8
    t = 1.0 / d
    k = np.arange(1, d + 1)
    b = (k / d) ** (-1.0 / 3.0)
    quot = b * b * (4 + t * b) / (4 * (2 + t * b) ** 2)
    want = float(np.mean(quot ** 2) ** 0.5)
    assert rows[1].r_heavy == pytest.approx(want, rel=1e-12)


def test_counterexample_validates_input():
    with pytest.raises(ParameterError):
        lp_counterexample_demo(p=1.0, dims=[2, 4])
    with pytest.raises(ParameterError):
        lp_counterexample_demo(p=2.0, dims=[4, 2])
    with pytest.raises(ParameterError, match="positive"):
        lp_counterexample_demo(p=2.0, dims=[0, 16])
