"""Hermitian matrix algebra: eigensystems, functional calculus, norms, traces.

Eigendecompositions come from LAPACK through ``np.linalg.eigh``.  Its result
is not taken on trust: :func:`eig_hermitian` checks the reconstruction
residual and the unitarity of the eigenvector basis against fixed contracts
and raises :class:`NumericalError` when either fails.  Schatten norms use the
singular values from ``np.linalg.svd``, which keeps the condition number of
X rather than squaring it as an eigensolve of X*X would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    NumericalError,
    ParameterError,
)

__all__ = [
    "EigenSystem",
    "require_hermitian",
    "require_hermitian_pair",
    "eig_hermitian",
    "apply_function",
    "apply_callable",
    "schatten_norm",
    "weighted_diagonal_norm",
    "trace",
]


def require_hermitian(A) -> np.ndarray:
    """Validate and return a complex Hermitian matrix copy, of dimension d >= 1.
    M - M* is held to 1e-12 ||M||_F, a bound in the units of M: a scaled
    matrix passes or fails as the unscaled one does."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DimensionMismatchError(f"expected a nonempty square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M.view(float))):
        raise ParameterError("matrix has non-finite entries")
    if np.linalg.norm(M - M.conj().T) > 1e-12 * np.linalg.norm(M):
        raise ParameterError("matrix is not Hermitian within tolerance")
    return M.copy()


def require_hermitian_pair(A, B) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and return complex Hermitian copies of a pair (A, B) of one shape."""
    A = require_hermitian(A)
    B = require_hermitian(B)
    if A.shape != B.shape:
        raise DimensionMismatchError(
            f"A and B must share a dimension, got shapes {A.shape} and {B.shape}"
        )
    return A, B


@dataclass
class EigenSystem:
    """Eigendecomposition A = V diag(eigenvalues) V*, with no clustering.

    Close eigenvalues are used as computed: the divided-difference table of
    the operator integrals is accurate on near-confluent nodes, so their values
    do not depend, beyond that accuracy, on how V splits such an eigenspace.
    """

    eigenvalues: np.ndarray          # ascending, real
    basis: np.ndarray                # unitary, columns are eigenvectors
    residual: float                  # ||A - V diag V*||_F

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def eig_hermitian(A) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    Raises
    ------
    DimensionMismatchError
        If the input is not a nonempty square matrix.
    ParameterError
        If it has entries that are not finite, or is not Hermitian.
    NumericalError
        If LAPACK does not converge, or the reconstruction residual exceeds
        1e-10 ||A||_F, or the unitarity of the basis exceeds its contract.
    """
    M = require_hermitian(A)
    try:
        vals, V = np.linalg.eigh(M)  # ascending eigenvalues
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    d = M.shape[0]
    residual = float(np.linalg.norm(M - (V * vals) @ V.conj().T))
    if residual > 1e-10 * np.linalg.norm(M):
        raise NumericalError("eigendecomposition residual too large", residual=residual)
    unit = float(np.linalg.norm(V.conj().T @ V - np.eye(d)))
    if unit > 1e-12 * math.sqrt(d):
        raise NumericalError("eigenvector basis lost unitarity", residual=unit)
    return EigenSystem(eigenvalues=vals, basis=V, residual=residual)


def apply_callable(g, E: EigenSystem) -> np.ndarray:
    """basis @ diag(g(eigenvalues)) @ basis* for a plain scalar callable.

    Values that are not finite, as where f overflows on the spectrum, raise
    :class:`ParameterError` before the product turns them into NaN.
    """
    vals = np.asarray(g(E.eigenvalues), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise ParameterError("function values are not finite: f overflows on the spectrum")
    return (E.basis * vals) @ E.basis.conj().T


def apply_function(f, E: EigenSystem) -> np.ndarray:
    """Functional calculus f(A) from the eigensystem of A, for a FunctionFamily f
    (:func:`apply_callable` takes a plain scalar callable).

    The result is Hermitian to rounding when f is real valued.
    """
    return apply_callable(lambda x: f.eval(0, x), E)


def trace(X) -> complex:
    """Matrix trace of a square matrix."""
    M = np.asarray(X, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"trace needs a square matrix, got {M.shape}")
    return complex(np.trace(M))


def weighted_diagonal_norm(diagonal, p: float, weights) -> float:
    """p-norm of diag(diagonal) under the weighted diagonal trace sum_k w_k X_kk.

    (sum_k w_k |x_k|^p)^(1/p), or max |x_k| for p = inf.  The positive weights
    sum to 1: point masses of a finite measure space, the commutative setting
    of the heavy-tail counterexample.  Takes the diagonal as a vector, so no
    d x d matrix is formed.
    """
    if not (p >= 1.0):
        raise ParameterError(f"Schatten exponent must satisfy p >= 1, got {p}")
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12 * w.size:
        raise ParameterError("weights must be positive and sum to 1")
    sig = np.abs(np.asarray(diagonal, dtype=complex))
    if sig.shape != w.shape:
        raise DimensionMismatchError("diagonal length does not match weights")
    if math.isinf(p):
        return float(sig.max()) if len(sig) else 0.0
    return float(np.sum(w * sig ** p) ** (1.0 / p))


def schatten_norm(X, p: float) -> float:
    """Schatten p-norm (p >= 1 or inf) from the singular values."""
    if not (p >= 1.0):
        raise ParameterError(f"Schatten exponent must satisfy p >= 1, got {p}")
    M = np.asarray(X, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {M.shape}")
    sig = np.linalg.svd(M, compute_uv=False)  # descending
    if math.isinf(p):
        return float(sig[0]) if len(sig) else 0.0
    return float(np.sum(sig ** p) ** (1.0 / p))
