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
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    NumericalError,
    ParameterError,
)

__all__ = [
    "EigenSystem",
    "TraceModel",
    "STANDARD_TRACE",
    "require_hermitian",
    "eig_hermitian",
    "apply_function",
    "apply_callable",
    "schatten_norm",
    "weighted_diagonal_norm",
    "trace",
]


def require_hermitian(A, tol: float = 1e-12) -> np.ndarray:
    """Validate and return a complex Hermitian matrix copy."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M.view(float))):
        raise ParameterError("matrix has non-finite entries")
    scale = max(1.0, float(np.linalg.norm(M)))
    if np.linalg.norm(M - M.conj().T) > tol * scale:
        raise DimensionMismatchError("matrix is not Hermitian within tolerance")
    return M.copy()


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

    def hull(self) -> Tuple[float, float]:
        return float(self.eigenvalues[0]), float(self.eigenvalues[-1])


def eig_hermitian(A) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    Raises
    ------
    DimensionMismatchError
        If the input is not Hermitian.
    NumericalError
        If LAPACK does not converge, or the reconstruction residual or the
        unitarity of the basis exceeds its contract.
    """
    M = require_hermitian(A)
    try:
        vals, V = np.linalg.eigh(M)  # ascending eigenvalues
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    d = M.shape[0]
    residual = float(np.linalg.norm(M - (V * vals) @ V.conj().T))
    scale = max(1.0, float(np.linalg.norm(M)))
    if residual > 1e-10 * scale:
        raise NumericalError("eigendecomposition residual too large", residual=residual)
    unit = float(np.linalg.norm(V.conj().T @ V - np.eye(d)))
    if unit > 1e-12 * math.sqrt(d):
        raise NumericalError("eigenvector basis lost unitarity", residual=unit)
    return EigenSystem(eigenvalues=vals, basis=V, residual=residual)


def apply_callable(g, E: EigenSystem) -> np.ndarray:
    """basis @ diag(g(eigenvalues)) @ basis* for a plain scalar callable."""
    vals = np.asarray(g(E.eigenvalues), dtype=complex)
    return (E.basis * vals) @ E.basis.conj().T


def apply_function(f, E: EigenSystem) -> np.ndarray:
    """Functional calculus f(A) from the eigensystem of A.

    ``f`` is a FunctionFamily (domain checked) or any scalar callable.
    The result is Hermitian to rounding when f is real valued.
    """
    if hasattr(f, "eval"):
        f.check_domain(E.eigenvalues)
        return apply_callable(lambda x: f.eval(0, x), E)
    return apply_callable(f, E)


@dataclass
class TraceModel:
    """Standard matrix trace, or a normalized weighted diagonal trace.

    The weighted model emulates integration over a finite measure space with
    point masses `weights`; all of its operations are restricted to diagonal
    matrices.
    """

    kind: str = "standard"
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("standard", "weighted_diagonal"):
            raise ParameterError(f"unknown trace model kind {self.kind!r}")
        if self.kind == "weighted_diagonal":
            if self.weights is None:
                raise ParameterError("weighted_diagonal model needs weights")
            w = np.asarray(self.weights, dtype=float)
            if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12 * len(w):
                raise ParameterError("weights must be positive and sum to 1")
            self.weights = w

    def check_matrix(self, X: np.ndarray) -> None:
        if self.kind == "weighted_diagonal":
            if self.weights is not None and X.shape[0] != len(self.weights):
                raise DimensionMismatchError("matrix dimension does not match weights")
            off = X - np.diag(np.diagonal(X))
            if np.linalg.norm(off) > 1e-12 * max(1.0, np.linalg.norm(X)):
                raise ParameterError(
                    "weighted_diagonal trace model only handles diagonal matrices"
                )


STANDARD_TRACE = TraceModel()


def trace(X, model: Optional[TraceModel] = None) -> complex:
    """Trace functional under the given model (standard by default)."""
    M = np.asarray(X, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"trace needs a square matrix, got {M.shape}")
    if model is None or model.kind == "standard":
        return complex(np.trace(M))
    model.check_matrix(M)
    return complex(np.sum(model.weights * np.diagonal(M)))


def weighted_diagonal_norm(diagonal, p: float, model: TraceModel) -> float:
    """p-norm of diag(diagonal) under a weighted_diagonal trace model.

    (sum_k w_k |x_k|^p)^(1/p), or max |x_k| for p = inf.  Takes the diagonal
    as a vector, so no d x d matrix is formed.
    """
    if not (p >= 1.0):
        raise ParameterError(f"Schatten exponent must satisfy p >= 1, got {p}")
    if model.kind != "weighted_diagonal":
        raise ParameterError("weighted_diagonal_norm needs a weighted_diagonal model")
    sig = np.abs(np.asarray(diagonal, dtype=complex))
    if sig.shape != model.weights.shape:
        raise DimensionMismatchError("diagonal length does not match weights")
    if math.isinf(p):
        return float(sig.max()) if len(sig) else 0.0
    return float(np.sum(model.weights * sig ** p) ** (1.0 / p))


def schatten_norm(X, p: float, model: Optional[TraceModel] = None) -> float:
    """Schatten p-norm (p >= 1 or inf) under the active trace model."""
    if not (p >= 1.0):
        raise ParameterError(f"Schatten exponent must satisfy p >= 1, got {p}")
    M = np.asarray(X, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {M.shape}")
    if model is None or model.kind == "standard":
        sig = np.linalg.svd(M, compute_uv=False)  # descending
        if math.isinf(p):
            return float(sig[0]) if len(sig) else 0.0
        return float(np.sum(sig ** p) ** (1.0 / p))
    model.check_matrix(M)
    return weighted_diagonal_norm(np.diagonal(M), p, model)
