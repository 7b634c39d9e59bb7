"""Eigensolver, functional calculus, Schatten norms, traces."""

import math

import numpy as np
import pytest

from moilab.errors import DimensionMismatchError, ParameterError
from moilab.families import exponential, gaussian, monomial
from moilab.matrix_io import (
    load_matrix,
    load_matrix_csv,
    load_matrix_json,
    save_matrix_csv,
    save_matrix_json,
)
from moilab.errors import ConfigError
from moilab.rng import SplitMix64
from moilab.spectral import (
    apply_function,
    eig_hermitian,
    require_hermitian,
    schatten_norm,
    trace,
    weighted_diagonal_norm,
)
from conftest import random_hermitian


JACOBI_MAX_SWEEPS = 100


def jacobi_eigen(A: np.ndarray):
    """Cyclic Jacobi sweeps; returns (diagonal values, accumulated unitary).

    A pure-Python eigensolver that shares no code with np.linalg.eigh: the
    oracle for eig_hermitian.  Each sweep annihilates every off-diagonal
    pair with a unitary plane rotation.
    """
    d = A.shape[0]
    M = A.copy()
    V = np.eye(d, dtype=complex)
    if d == 1:
        return M.real.diagonal().copy(), V
    norm = np.linalg.norm(A)
    if norm == 0.0:
        return np.zeros(d), V
    stop = 1e-15 * norm
    for _ in range(JACOBI_MAX_SWEEPS):
        off = np.linalg.norm(M - np.diag(np.diagonal(M)))
        if off <= stop:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = M[p, q]
                r = abs(apq)
                if r <= 1e-18 * norm:
                    continue
                phase = apq / r
                tau = (M[q, q].real - M[p, p].real) / (2.0 * r)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                # unitary plane rotation J: J[p,p]=c, J[p,q]=s*phase,
                # J[q,p]=-s*conj(phase), J[q,q]=c; M <- J* M J, V <- V J
                colp = M[:, p].copy()
                colq = M[:, q].copy()
                M[:, p] = c * colp - s * np.conj(phase) * colq
                M[:, q] = s * phase * colp + c * colq
                rowp = M[p, :].copy()
                rowq = M[q, :].copy()
                M[p, :] = c * rowp - s * phase * rowq
                M[q, :] = s * np.conj(phase) * rowp + c * rowq
                M[p, q] = 0.0
                M[q, p] = 0.0
                M[p, p] = M[p, p].real
                M[q, q] = M[q, q].real
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * np.conj(phase) * vq
                V[:, q] = s * phase * vp + c * vq
    else:
        off = float(np.linalg.norm(M - np.diag(np.diagonal(M))))
        raise AssertionError(f"Jacobi oracle did not converge: off-diagonal {off}")
    return np.real(np.diagonal(M)).copy(), V


def expm_taylor(A, terms=30):
    """Scaling-and-squaring Taylor series, independent of eig paths."""
    A = np.asarray(A, dtype=complex)
    k = max(0, int(np.ceil(np.log2(max(np.linalg.norm(A, 2), 1e-30)))) + 1)
    S = A / 2 ** k
    out = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for j in range(1, terms):
        term = term @ S / j
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def test_diagonal_input_sorted_with_permutation_basis():
    E = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(E.eigenvalues, [1.0, 2.0, 3.0])
    P = np.abs(E.basis)
    assert np.allclose(P @ P.T, np.eye(3), atol=1e-12)


def test_two_by_two_closed_form():
    E = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(E.eigenvalues, [-1.0, 1.0])


def test_random_reconstruction_residual():
    A = random_hermitian(SplitMix64(42), 8)
    E = eig_hermitian(A)
    assert E.residual <= 1e-10 * np.linalg.norm(A)
    assert np.linalg.norm(E.basis.conj().T @ E.basis - np.eye(8)) <= 1e-12 * np.sqrt(8)
    R = (E.basis * E.eigenvalues) @ E.basis.conj().T
    assert np.linalg.norm(R - A) <= 1e-10 * max(1.0, np.linalg.norm(A))


def test_matches_numpy_eigvalsh():
    A = random_hermitian(SplitMix64(7), 12)
    E = eig_hermitian(A)
    assert np.allclose(E.eigenvalues, np.linalg.eigvalsh(A), atol=1e-10)


@pytest.mark.parametrize("kind", ["random", "clustered", "scalar"])
def test_eig_hermitian_matches_jacobi_oracle(kind):
    gen = SplitMix64(17)
    d = 6
    if kind == "random":
        A = random_hermitian(gen, d)
    elif kind == "clustered":
        U = eig_hermitian(random_hermitian(gen, d)).basis
        lam = np.array([-1.0, -1.0, -1.0 + 1e-12, 0.5, 0.5, 2.0])
        A = (U * lam) @ U.conj().T
        A = (A + A.conj().T) / 2.0
    else:
        A = 0.7 * np.eye(d, dtype=complex)
    E = eig_hermitian(A)
    vals, V = jacobi_eigen(np.asarray(A, dtype=complex))
    order = np.argsort(vals, kind="stable")
    vals, V = vals[order], V[:, order]
    assert np.allclose(E.eigenvalues, vals, rtol=0.0, atol=1e-12 * max(1.0, np.linalg.norm(A)))
    # eigenvectors are fixed only up to rotations inside an eigenspace: compare
    # the spectral projections onto the oracle's distinct eigenvalues
    for lam in np.unique(vals.round(9)):
        ours = E.basis[:, np.abs(E.eigenvalues - lam) < 1e-9]
        cols = V[:, np.abs(vals - lam) < 1e-9]
        assert ours.shape == cols.shape
        assert np.linalg.norm(ours @ ours.conj().T - cols @ cols.conj().T) <= 1e-10


def test_non_hermitian_rejected():
    # a square matrix that is not Hermitian has the right shape: a ParameterError
    with pytest.raises(ParameterError, match="not Hermitian"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        require_hermitian(np.ones((2, 3)))
    # the check is relative to ||M||, at any scale; the zero matrix passes
    for scale in (1e-13, 2.0 ** -40):
        with pytest.raises(ParameterError, match="not Hermitian"):
            eig_hermitian(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert require_hermitian(scale * np.eye(2)).shape == (2, 2)
    assert not require_hermitian(np.zeros((2, 2))).any()


def test_apply_identity_function_recovers_matrix():
    A = random_hermitian(SplitMix64(3), 6)
    E = eig_hermitian(A)
    out = apply_function(monomial(1), E)
    assert np.linalg.norm(out - A) <= 1e-10 * np.linalg.norm(A)


def test_apply_square_on_involution_gives_identity():
    E = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = apply_function(monomial(2), E)
    assert np.allclose(out, np.eye(2), atol=1e-12)


def test_apply_exponential_matches_taylor_oracle():
    A = random_hermitian(SplitMix64(11), 6)
    E = eig_hermitian(A)
    got = apply_function(exponential(), E)
    want = expm_taylor(A)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_apply_real_family_returns_hermitian():
    A = random_hermitian(SplitMix64(5), 5)
    out = apply_function(gaussian(), eig_hermitian(A))
    assert np.linalg.norm(out - out.conj().T) <= 1e-12


def test_schatten_identity_and_rank_one():
    assert schatten_norm(np.eye(4), 3.0) == pytest.approx(4.0 ** (1 / 3.0))
    u = np.array([1.0, 1j]) / np.sqrt(2)
    v = np.array([1.0, -1.0]) / np.sqrt(2)
    X = np.outer(u, v.conj())
    for p in (1.0, 2.0, 3.5, np.inf):
        assert schatten_norm(X, p) == pytest.approx(1.0, abs=1e-12)


def test_schatten_matches_extended_precision_singular_values():
    import mpmath as mp

    X = SplitMix64(19).complex_normals((5, 5))
    with mp.workdps(50):
        M = mp.matrix([[mp.mpc(z) for z in row] for row in X])
        eigs = mp.eighe(M.H * M, eigvals_only=True)
        oracle = float(sum(mp.sqrt(abs(e)) ** 3 for e in eigs) ** (mp.mpf(1) / 3))
    assert schatten_norm(X, 3.0) == pytest.approx(oracle, rel=1e-10)


def test_schatten_unitary_invariance():
    gen = SplitMix64(23)
    X = gen.complex_normals((5, 5))
    U = eig_hermitian(random_hermitian(gen, 5)).basis
    V = eig_hermitian(random_hermitian(gen, 5)).basis
    for p in (1.5, 2.0, 4.0, np.inf):
        a = schatten_norm(X, p)
        b = schatten_norm(U @ X @ V.conj().T, p)
        assert b == pytest.approx(a, rel=1e-10)


def test_schatten_rejects_bad_exponent():
    with pytest.raises(ParameterError):
        schatten_norm(np.eye(2), 0.5)


def test_trace_examples_and_cyclicity():
    assert trace(np.eye(4)) == pytest.approx(4.0)
    assert weighted_diagonal_norm(np.ones(4), 1.0, np.full(4, 0.25)) == pytest.approx(1.0)
    gen = SplitMix64(2)
    X = gen.complex_normals((6, 6))
    Y = gen.complex_normals((6, 6))
    lhs = trace(X @ Y)
    rhs = trace(Y @ X)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_weighted_model_requires_diagonal_and_valid_weights():
    # the weighted norm takes the diagonal as a vector and validates the weights
    x = np.array([1.0, -2.0, 3.0])
    with pytest.raises(ParameterError):
        weighted_diagonal_norm(x, 2.0, np.array([0.5, -0.5, 1.0]))
    with pytest.raises(ParameterError):
        weighted_diagonal_norm(x, 2.0, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(DimensionMismatchError):
        weighted_diagonal_norm(x, 2.0, np.full(2, 0.5))
    with pytest.raises(ParameterError):
        weighted_diagonal_norm(x, 0.5, np.full(3, 1 / 3))
    w = np.array([0.5, 0.25, 0.25])
    assert weighted_diagonal_norm(x, 2.0, w) == pytest.approx(math.sqrt(0.5 + 1.0 + 2.25))
    assert weighted_diagonal_norm(x, math.inf, w) == 3.0


def test_hoelder_inequality_on_random_pairs():
    gen = SplitMix64(31)
    for p, q in ((2.0, 2.0), (3.0, 1.5), (4.0, 4.0 / 3.0)):
        for _ in range(3):
            X = gen.complex_normals((4, 4))
            Y = gen.complex_normals((4, 4))
            lhs = abs(trace(X @ Y))
            rhs = schatten_norm(X, p) * schatten_norm(Y, q)
            assert lhs <= rhs + 1e-10


def test_matrix_io_roundtrip(tmp_path):
    M = SplitMix64(8).complex_normals((3, 3))
    jp = tmp_path / "m.json"
    cp = tmp_path / "m.csv"
    save_matrix_json(jp, M)
    save_matrix_csv(cp, M)
    assert np.allclose(load_matrix_json(jp), M)
    assert np.array_equal(load_matrix_csv(cp), M)  # repr round-trips exactly
    assert np.allclose(load_matrix(jp), load_matrix(cp))


def test_matrix_io_reports_line_context(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,0.0,2.0\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_matrix_csv(bad)
    bad2 = tmp_path / "bad.json"
    bad2.write_text("[[1, 2],")
    with pytest.raises(ConfigError, match="line"):
        load_matrix_json(bad2)
