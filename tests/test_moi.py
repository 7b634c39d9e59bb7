"""Cross-form consistency of the multiple operator integral implementations."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moilab.errors import (
    DimensionMismatchError,
    ParameterError,
)
from moilab import kernels
from moilab.families import divided_difference, exponential, gaussian, monomial, runge
from moilab.harness import _brute_force_moi
from moilab.kernels import projection_trace_weights
from moilab.moi import (
    DiagonalRestrictedSymbol,
    FactorizedSymbol,
    FactorTerm,
    Symbol,
    dd_symbol,
    exponential_symbol,
    moi_discretized,
    moi_factorized,
    moi_norm_report,
    moi_projection_sum,
    moi_trace,
    operands,
)
from moilab.rng import SplitMix64
from moilab.spectral import EigenSystem, eig_hermitian, trace
from conftest import random_hermitian


class CustomSymbol(Symbol):
    """A symbol given by a scalar function of one node tuple, called once per
    tuple; it wraps the scalar divided_difference oracle, among others."""

    def __init__(self, fn, arity):
        self.fn = fn
        self.arity = int(arity)

    def tensor(self, reps):
        shape = tuple(len(r) for r in reps)
        out = np.empty(shape, dtype=complex)
        for idx in np.ndindex(shape):
            out[idx] = complex(self.fn(tuple(float(reps[s][i]) for s, i in enumerate(idx))))
        return out


def test_diagonal_operators_give_schur_product():
    lam = np.array([0.3, 1.1, 2.4])
    E = eig_hermitian(np.diag(lam))
    B = SplitMix64(4).complex_normals((3, 3))
    f = gaussian()
    got = moi_projection_sum(dd_symbol(f, 1), operands([E, E], [B])).value
    want = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            want[i, j] = divided_difference(f, (lam[i], lam[j])) * B[i, j]
    assert np.allclose(got, want, atol=1e-12)


def test_square_function_first_order_is_anticommutator():
    A = random_hermitian(SplitMix64(9), 4)
    B = random_hermitian(SplitMix64(10), 4)
    E = eig_hermitian(A)
    got = moi_projection_sum(dd_symbol(monomial(2), 1), operands([E, E], [B])).value
    want = A @ B + B @ A
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_top_monomial_coefficient_is_argument_power(n):
    A = random_hermitian(SplitMix64(12), 4)
    B = random_hermitian(SplitMix64(13), 4)
    E = eig_hermitian(A)
    got = moi_projection_sum(dd_symbol(monomial(n), n), operands([E] * (n + 1), [B] * n)).value
    want = np.linalg.matrix_power(B, n)
    assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


def test_projection_sum_matches_brute_force_exp():
    gen = SplitMix64(21)
    A1 = random_hermitian(gen, 3)
    A2 = random_hermitian(gen, 3)
    A3 = random_hermitian(gen, 3)
    B1 = gen.complex_normals((3, 3))
    B2 = gen.complex_normals((3, 3))
    f = exponential()
    Es = [eig_hermitian(X) for X in (A1, A2, A3)]
    got = moi_projection_sum(dd_symbol(f, 2), operands(Es, [B1, B2])).value
    want = _brute_force_moi(f, Es, [B1, B2])
    assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


def test_projection_sum_matches_brute_force_gaussian_n3():
    gen = SplitMix64(33)
    mats = [random_hermitian(gen, 3) for _ in range(4)]
    args = [gen.complex_normals((3, 3)) for _ in range(3)]
    f = gaussian()
    Es = [eig_hermitian(X) for X in mats]
    got = moi_projection_sum(dd_symbol(f, 3), operands(Es, args)).value
    want = _brute_force_moi(f, Es, args)
    assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


def test_multilinearity():
    gen = SplitMix64(40)
    A = random_hermitian(gen, 4)
    E = eig_hermitian(A)
    B1, B1p, B2 = (gen.complex_normals((4, 4)) for _ in range(3))
    sym = dd_symbol(gaussian(), 2)
    alpha = 0.7 - 0.3j
    lhs = moi_projection_sum(sym, operands([E] * 3, [alpha * B1 + B1p, B2])).value
    rhs = alpha * moi_projection_sum(sym, operands([E] * 3, [B1, B2])).value \
        + moi_projection_sum(sym, operands([E] * 3, [B1p, B2])).value
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def test_palindromic_real_symbol_is_hermitian():
    gen = SplitMix64(41)
    A = random_hermitian(gen, 4)
    C = random_hermitian(gen, 4)
    B = random_hermitian(gen, 4)
    EA, EC = eig_hermitian(A), eig_hermitian(C)
    out = moi_projection_sum(dd_symbol(gaussian(), 2), operands([EA, EC, EA], [B, B])).value
    assert np.linalg.norm(out - out.conj().T) <= 1e-10


def test_arity_and_dimension_validation():
    E = eig_hermitian(np.eye(2))
    with pytest.raises(DimensionMismatchError):
        moi_projection_sum(dd_symbol(gaussian(), 2), operands([E, E], [np.eye(2)]))
    with pytest.raises(DimensionMismatchError):
        operands([E, E], [np.eye(3)])


# --- discretized form ---


def test_discretized_exact_when_spectra_on_grid():
    lam = np.array([-0.5, 0.25, 1.0])  # multiples of 1/4
    E = eig_hermitian(np.diag(lam))
    B = SplitMix64(6).complex_normals((3, 3))
    sym = dd_symbol(gaussian(), 1)
    ops = operands([E, E], [B])
    exact = moi_projection_sum(sym, ops).value
    for m in (4, 8, 64):
        got = moi_discretized(sym, ops, m=m).value
        assert np.linalg.norm(got - exact) <= 1e-12 * max(1.0, np.linalg.norm(exact))


def test_discretized_scalar_case_uses_bin_corner():
    a = 0.37
    E = eig_hermitian(np.array([[a]]))
    b = np.array([[2.0 + 1.0j]])
    sym = CustomSymbol(lambda nodes: nodes[0] + 10 * nodes[1], arity=2)
    m = 8
    got = moi_discretized(sym, operands([E, E], [b]), m=m).value
    corner = np.floor(a * m) / m
    assert got[0, 0] == pytest.approx((corner + 10 * corner) * b[0, 0])


def test_discretized_window_is_symmetric():
    # eigenvalues on a bin edge, one on each side of 0, fall in two bins per slot
    sym = dd_symbol(gaussian(), 1)
    edge = operands([eig_hermitian(np.diag([2.5, -2.5]))] * 2, [np.eye(2)])
    assert moi_discretized(sym, edge, m=4).diagnostics["bins_hit"] == 4


def test_discretized_shared_bin_is_a_confluent_node():
    # at m = 2, 0.1 and 0.2 share the bin [0, 1/2): their common corner is a
    # repeated node, which must give the confluent divided difference
    lam = np.array([0.1, 0.2, 0.7, 1.3])
    corners = np.floor(lam * 2) / 2
    assert list(corners) == [0.0, 0.0, 0.5, 1.0]
    rng = np.random.default_rng(5)
    bases = [np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
             for _ in range(2)]
    ops = operands([(Q * lam) @ Q.conj().T for Q in (bases[0], bases[1], bases[0])],
                   [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2)])
    f = gaussian()
    got = moi_discretized(dd_symbol(f, 2), ops, m=2)
    binned = [EigenSystem(corners, E.basis, 0.0) for E in ops.operators]
    want = _brute_force_moi(f, binned, ops.arguments)
    assert np.linalg.norm(got.value - want) <= 1e-10 * np.linalg.norm(want)
    assert got.diagnostics["bins_hit"] == 9


def test_discretized_self_convergence_seeded():
    # seed chosen so each doubling of m shrinks the error by at least 0.75
    gen = SplitMix64(4)
    A = random_hermitian(gen, 4)
    B = random_hermitian(gen, 4)
    B /= np.linalg.norm(B, 2)
    EA = eig_hermitian(A)
    EAB = eig_hermitian(A + B)
    sym = dd_symbol(gaussian(), 2)
    ops = operands([EAB, EA, EA], [B, B])
    exact = moi_projection_sum(sym, ops).value
    errs = []
    for m in [2 ** k for k in range(4, 13)]:
        approx = moi_discretized(sym, ops, m=m).value
        errs.append(np.linalg.norm(approx - exact))
    ratios = [e2 / e1 for e1, e2 in zip(errs, errs[1:])]
    assert all(r <= 0.75 for r in ratios), ratios
    assert errs[-1] < errs[0]


def test_discretized_never_grows_beyond_slack_across_seeds():
    # generic property: the error never grows by more than 10% per doubling
    sym = dd_symbol(gaussian(), 2)
    for seed in (2, 5, 7, 11):
        gen = SplitMix64(seed)
        A = random_hermitian(gen, 4)
        B = random_hermitian(gen, 4)
        B /= np.linalg.norm(B, 2)
        ops = operands([eig_hermitian(A + B), eig_hermitian(A), eig_hermitian(A)], [B, B])
        exact = moi_projection_sum(sym, ops).value
        errs = [
            np.linalg.norm(moi_discretized(sym, ops, m=2 ** k).value - exact)
            for k in range(4, 13)
        ]
        ratios = [e2 / e1 for e1, e2 in zip(errs, errs[1:])]
        assert all(r <= 1.1 for r in ratios), (seed, ratios)


# --- factorized form ---


def test_factorized_all_ones_gives_argument_product():
    gen = SplitMix64(50)
    Es = [eig_hermitian(random_hermitian(gen, 3)) for _ in range(3)]
    B1, B2 = (gen.complex_normals((3, 3)) for _ in range(2))
    one = FactorizedSymbol([FactorTerm(1.0, tuple([lambda x: np.ones_like(x)] * 3),
                                       (1.0, 1.0, 1.0))])
    got = moi_factorized(one, operands(Es, [B1, B2])).value
    assert np.allclose(got, B1 @ B2, atol=1e-12)


def test_factorized_exponential_is_alternating_product():
    gen = SplitMix64(51)
    mats = [random_hermitian(gen, 3) for _ in range(3)]
    B1, B2 = (gen.complex_normals((3, 3)) for _ in range(2))
    s = 0.9
    Es = [eig_hermitian(M) for M in mats]
    got = moi_factorized(exponential_symbol(s, 3), operands(Es, [B1, B2])).value
    import scipy.linalg  # oracle only

    e0, e1, e2 = (scipy.linalg.expm(1j * s * M) for M in mats)
    want = e0 @ B1 @ e1 @ B2 @ e2
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_factorized_agrees_with_projection_sum():
    gen = SplitMix64(52)
    mats = [random_hermitian(gen, 4) for _ in range(3)]
    args = [gen.complex_normals((4, 4)) for _ in range(2)]
    Es = [eig_hermitian(M) for M in mats]
    sym = exponential_symbol(1.3, 3)
    ops = operands(Es, args)
    a = moi_factorized(sym, ops).value
    b = moi_projection_sum(sym, ops).value
    assert np.linalg.norm(a - b) <= 1e-9 * max(1.0, np.linalg.norm(a))


# --- norm report ---


def test_norm_report_zero_argument():
    E = eig_hermitian(random_hermitian(SplitMix64(60), 3))
    ops = operands([E, E], [np.zeros((3, 3))])
    rep = moi_norm_report(dd_symbol(gaussian(), 1), ops, exponents=[2.0])
    assert rep.ratio == 0.0


def test_norm_report_scalar_confluent_bound():
    a = 0.4
    E = eig_hermitian(np.array([[a]]))
    b = np.array([[1.0]])
    f = gaussian()
    ops = operands([E, E, E], [b, b])
    rep = moi_norm_report(dd_symbol(f, 2), ops, exponents=[4.0, 4.0])
    # scalar value is |f''(a)|/2; ratio against sup|f''| stays below 1/2
    assert rep.ratio <= 0.5 + 1e-12


def test_norm_report_validates_exponents():
    E = eig_hermitian(np.eye(2))
    ops = operands([E, E], [np.eye(2)])
    ops2 = operands([E, E, E], [np.eye(2), np.eye(2)])
    # one exponent p_i > 1 per argument, and 1 < p < inf for 1/p = sum 1/p_i
    for bad_ops, exponents in [(ops, []), (ops, [2.0, 2.0]), (ops, [1.0]), (ops, [np.nan]),
                               (ops, [np.inf]), (ops2, [1.5, 1.5]), (ops2, [2.0, 2.0])]:
        with pytest.raises(ParameterError):
            moi_norm_report(dd_symbol(gaussian(), bad_ops.n_args), bad_ops, exponents)
    with pytest.raises(ParameterError):
        moi_norm_report(dd_symbol(exponential(), 1), ops, exponents=[2.0])


def test_norm_report_factorized_bound_holds():
    gen = SplitMix64(61)
    Es = [eig_hermitian(random_hermitian(gen, 4)) for _ in range(3)]
    args = [gen.complex_normals((4, 4)) for _ in range(2)]
    ops = operands(Es, args)
    rep = moi_norm_report(exponential_symbol(0.8, 3), ops, exponents=[4.0, 4.0])
    assert rep.factorized_bound == pytest.approx(1.0)
    assert rep.norm_value <= rep.denominator


def test_norm_report_ensemble_max_recorded():
    gen = SplitMix64(777)
    ratios = []
    for _ in range(20):
        A = random_hermitian(gen, 6)
        B = random_hermitian(gen, 6)
        E = eig_hermitian(A)
        ops = operands([E, E, E], [B, B])
        ratios.append(moi_norm_report(dd_symbol(gaussian(), 2), ops, exponents=[4.0, 4.0]).ratio)
    assert np.isfinite(ratios).all()
    assert max(ratios) > 0


# --- traces ---


def test_moi_trace_zero_closing():
    E = eig_hermitian(random_hermitian(SplitMix64(70), 3))
    ops = operands([E, E], [np.eye(3)])
    assert moi_trace(dd_symbol(gaussian(), 1), ops, np.zeros((3, 3))) == 0


def test_moi_trace_square_cyclicity():
    gen = SplitMix64(71)
    A = random_hermitian(gen, 4)
    B = random_hermitian(gen, 4)
    E = eig_hermitian(A)
    got = moi_trace(dd_symbol(monomial(2), 1), operands([E, E], [B]), closing=B)
    want = 2 * np.trace(A @ B @ B)
    assert got == pytest.approx(want, rel=1e-10)


def test_moi_trace_factorized_rotation_check_runs():
    gen = SplitMix64(72)
    mats = [random_hermitian(gen, 4) for _ in range(3)]
    args = [gen.complex_normals((4, 4)) for _ in range(2)]
    Es = [eig_hermitian(M) for M in mats]
    closing = gen.complex_normals((4, 4))
    val = moi_trace(exponential_symbol(0.5, 3), operands(Es, args), closing)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_diagonal_restriction_matches_definition():
    gen = SplitMix64(73)
    A = random_hermitian(gen, 4)
    C = random_hermitian(gen, 4)
    B = gen.complex_normals((4, 4))
    EA, EC = eig_hermitian(A), eig_hermitian(C)
    base = dd_symbol(gaussian(), 2)
    restricted = DiagonalRestrictedSymbol(base)
    got = moi_projection_sum(restricted, operands([EA, EC], [B])).value
    # direct double sum over eigen-indices
    f = gaussian()
    CB = EA.basis.conj().T @ B @ EC.basis
    inner = np.zeros((4, 4), dtype=complex)
    for i, ri in enumerate(EA.eigenvalues):
        for j, rj in enumerate(EC.eigenvalues):
            inner[i, j] = divided_difference(f, (ri, rj, ri)) * CB[i, j]
    want = EA.basis @ inner @ EC.basis.conj().T
    assert np.allclose(got, want, atol=1e-12)
    # the per-tuple route of a restricted symbol with no vectorized form
    custom = DiagonalRestrictedSymbol(CustomSymbol(lambda nodes: divided_difference(f, nodes), 3))
    assert np.allclose(moi_projection_sum(custom, operands([EA, EC], [B])).value, want, atol=1e-12)


def test_diagonal_restriction_of_factorized_matches_wrapped_product():
    # the restricted projection sum must equal the factorized product whose
    # wrapped factor multiplies the first slot
    gen = SplitMix64(74)
    A = random_hermitian(gen, 4)
    C = random_hermitian(gen, 4)
    B = gen.complex_normals((4, 4))
    EA, EC = eig_hermitian(A), eig_hermitian(C)
    sym = exponential_symbol(0.7, 3)
    restricted = DiagonalRestrictedSymbol(sym)
    got = moi_projection_sum(restricted, operands([EA, EC], [B])).value
    import scipy.linalg

    s = 0.7
    want = scipy.linalg.expm(2j * s * A) @ B @ scipy.linalg.expm(1j * s * C)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_projection_trace_weights_reproduce_moi_trace():
    gen = SplitMix64(75)
    A = random_hermitian(gen, 4)
    B = random_hermitian(gen, 4)
    EA = eig_hermitian(A)
    EAB = eig_hermitian(A + B)
    ops = operands([EAB, EA, EA], [B, B])
    f = gaussian()
    reps = [E.eigenvalues for E in ops.operators]
    weights = projection_trace_weights(ops)
    assert weights.shape == tuple(len(r) for r in reps)
    total = 0.0 + 0.0j
    for key, w in np.ndenumerate(weights):
        nodes = tuple(reps[s][key[s]] for s in range(3))
        total += divided_difference(f, nodes) * w
    direct = trace(moi_projection_sum(dd_symbol(f, 2), ops).value)
    assert total == pytest.approx(direct, rel=1e-10, abs=1e-12)


# --- kernel properties ---


def _unitary(gen, d):
    return eig_hermitian(random_hermitian(gen, d)).basis


def _assert_matches_brute_force(f, Es, args):
    got = moi_projection_sum(dd_symbol(f, len(args)), operands(Es, args)).value
    want = _brute_force_moi(f, Es, args)
    assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0), n=st.integers(1, 3),
       f=st.sampled_from([gaussian(), runge(), exponential()]))
def test_kernel_scalar_case(a, b, n, f):
    E = eig_hermitian(np.array([[a]]))
    _assert_matches_brute_force(f, [E] * (n + 1), [np.array([[b]])] * n)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), d=st.integers(1, 4), n=st.integers(1, 3))
def test_kernel_zero_argument_gives_zero(seed, d, n):
    gen = SplitMix64(seed)
    Es = [eig_hermitian(random_hermitian(gen, d)) for _ in range(n + 1)]
    args = [gen.complex_normals((d, d)) for _ in range(n)]
    args[seed % n] = np.zeros((d, d))
    got = moi_projection_sum(dd_symbol(gaussian(), n), operands(Es, args)).value
    assert np.array_equal(got, np.zeros((d, d)))
    _assert_matches_brute_force(gaussian(), Es, args)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), c=st.floats(-2.0, 2.0), d=st.integers(1, 4),
       n=st.integers(1, 3))
def test_kernel_fully_degenerate_operator(seed, c, d, n):
    # A = cI: the integral is f^(n)(c)/n! times the argument product
    gen = SplitMix64(seed)
    E = eig_hermitian(c * np.eye(d))
    args = [gen.complex_normals((d, d)) for _ in range(n)]
    _assert_matches_brute_force(runge(), [E] * (n + 1), args)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 3),
       spread=st.sampled_from([0.0, 1e-14, 1e-12, 1e-11]))
def test_kernel_clustered_spectrum(seed, n, spread):
    # repeated and sub-tolerance eigenvalues in a random basis, slots mixing
    # the clustered operator with a generic one
    gen = SplitMix64(seed)
    lam = np.array([-0.7, -0.7 + spread, -0.7 - spread, 0.4, 0.4 + spread])
    U = _unitary(gen, 5)
    E = eig_hermitian((U * lam) @ U.conj().T)
    other = eig_hermitian(random_hermitian(gen, 5))
    Es = [E, other, E, E][: n + 1]
    args = [gen.complex_normals((5, 5)) for _ in range(n)]
    _assert_matches_brute_force(gaussian(), Es, args)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(0, 3), rows=st.integers(1, 5))
def test_kernel_chunked_and_unchunked_agree(seed, n, rows):
    gen = SplitMix64(seed)
    d = 5
    Es = [eig_hermitian(random_hermitian(gen, d)) for _ in range(n + 1)]
    args = [gen.complex_normals((d, d)) for _ in range(n)]
    ops = operands(Es, args)
    sym = dd_symbol(gaussian(), n)
    whole = moi_projection_sum(sym, ops)
    binned = moi_discretized(sym, ops, m=8)
    weights = projection_trace_weights(ops)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_CHUNK_ENTRIES", rows * d ** n)
        chunked = moi_projection_sum(sym, ops)
        chunked_binned = moi_discretized(sym, ops, m=8)
        chunked_weights = projection_trace_weights(ops)
    for a, b in ((whole, chunked), (binned, chunked_binned)):
        assert np.linalg.norm(a.value - b.value) <= 1e-13 * max(1.0, np.linalg.norm(a.value))
    assert whole.diagnostics["cluster_counts"] == chunked.diagnostics["cluster_counts"]
    assert weights.shape == chunked_weights.shape
    assert np.all(np.abs(chunked_weights - weights) <= 1e-13 * np.maximum(1.0, np.abs(weights)))


def test_kernel_budget_error_before_allocation():
    # one i_0 slice at d = 64, order 5 is 64^5 complex entries (16 GiB)
    gen = SplitMix64(80)
    d, n = 64, 5
    E = eig_hermitian(random_hermitian(gen, d))
    ops = operands([E] * (n + 1), [gen.complex_normals((d, d))] * n)

    def never(nodes):
        raise AssertionError("symbol evaluated before the budget check")

    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="one chunk may hold"):
            moi_projection_sum(CustomSymbol(never, n + 1), ops)
        with pytest.raises(ParameterError, match="one chunk may hold"):
            moi_discretized(dd_symbol(gaussian(), n), ops, m=4)
        with pytest.raises(ParameterError, match="memory budget holds"):
            projection_trace_weights(ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # no d x d matrix (64 KiB) was formed


def test_trace_weights_over_the_budget_raise_before_allocation(monkeypatch):
    # W at d = 48, order 2 is 48^3 complex entries (1.7 MiB), over a 1 MiB
    # budget, while one i_0 slice of it (36 KiB) is far under any chunk
    gen = SplitMix64(81)
    d, n = 48, 2
    E = eig_hermitian(random_hermitian(gen, d))
    ops = operands([E] * (n + 1), [gen.complex_normals((d, d))] * n)
    monkeypatch.setattr(kernels, "_MEMORY_BUDGET_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="1 MiB memory budget holds"):
            projection_trace_weights(ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # neither W nor the chain's three d x d products was formed
