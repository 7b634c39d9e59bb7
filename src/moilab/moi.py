"""Multiple operator integrals in projection-sum, discretized, and factorized form.

The projection-sum form inserts the argument matrices between the rank-one
eigenprojections of the operator tuple and weights each multi-index by the
symbol evaluated at the eigenvalues, with no clustering:

    T(b_1, ..., b_n) = sum over (i_0..i_n) of
        phi(lambda_{i_0}, ..., lambda_{i_n}) P_{i_0} b_1 P_{i_1} ... b_n P_{i_n}

Close eigenvalues need no merging: the divided-difference table is accurate
on near-confluent nodes, so the sum does not depend on how the eigensolver
splits a near-degenerate eigenspace.

In the eigenbases, with C_k = V_k* b_{k+1} V_{k+1}, this is one tensor
contraction over eigen-indices (the Daleckii-Krein / Hadamard form):

    inner[i_0, i_n] = sum over i_1..i_{n-1} of
        Phi[i_0, ..., i_n] C_0[i_0, i_1] ... C_{n-1}[i_{n-1}, i_n]

    T = V_0 inner V_n*

One kernel computes it.  The symbol is evaluated once, as a tensor over the
per-slot node vectors (:meth:`Symbol.tensor`), one node per eigen-index: the
eigenvalue, or in the discretized form the corner of its spectral bin; and a
single ``einsum`` contracts it with the C_k.  The work is O(d^{n+1}), which is
the size of Phi itself.  The kernel, the one loop over chunks of i_0, keeps
every chunk within ``kernels._CHUNK_ENTRIES`` complex entries, and an
order whose single i_0 slice is larger raises :class:`ParameterError` before
anything is allocated.  Summation order is fixed, making results bit-stable
across runs.

The operand tuple (:class:`MOIOperands`), the chain C_k, the chunk width and
the trace structure weights ``projection_trace_weights`` (made whole, within the
memory budget) live in :mod:`moilab.kernels`, which the Fourier sweep shares;
this module holds the symbols and the operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    OrderLimitError,
    ParameterError,
    ToleranceError,
)
from .families import FunctionFamily, divided_difference_tensor
from .kernels import (
    MOIOperands,
    _chain,
    _chain_subscripts,
    _chunk_rows,
    _distinct_nodes,
    _index_rows,
    _indexed_divided_differences,
)
from .spectral import EigenSystem, apply_callable, eig_hermitian, schatten_norm, trace

__all__ = [
    "Symbol",
    "DividedDifferenceSymbol",
    "FactorizedSymbol",
    "FactorTerm",
    "DiagonalRestrictedSymbol",
    "dd_symbol",
    "exponential_symbol",
    "MOIResult",
    "NormReport",
    "operands",
    "moi_projection_sum",
    "moi_discretized",
    "moi_factorized",
    "moi_norm_report",
    "moi_trace",
]


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


class Symbol:
    """A function R^{arity} -> C driving a multiple operator integral.

    A symbol is defined by :meth:`tensor`, its values on a grid: the kernel
    never asks for a single tuple.
    """

    arity: int

    def tensor(self, reps: Sequence[np.ndarray]) -> np.ndarray:
        """Values at every tuple of per-slot representatives.

        Entry (j_0, ..., j_n) is phi(reps[0][j_0], ..., reps[n][j_n]).
        """
        raise NotImplementedError


class DividedDifferenceSymbol(Symbol):
    """phi = n-th divided difference of a function family (arity n+1)."""

    def __init__(self, f: FunctionFamily, order: int):
        if order > f.max_order:
            raise OrderLimitError(
                f"family {f.family_id!r} cannot drive an order-{order} symbol"
            )
        self.f = f
        self.order = int(order)
        self.arity = self.order + 1

    def tensor(self, reps):
        return divided_difference_tensor(self.f, self.order, reps)

    def __repr__(self):
        return f"DividedDifferenceSymbol({self.f.family_id}, order={self.order})"


@dataclass
class FactorTerm:
    """One product term weight * g_0(l_0) * ... * g_n(l_n)."""

    weight: complex
    factors: Tuple[Callable[[np.ndarray], np.ndarray], ...]
    factor_sups: Tuple[float, ...]  # sup |g_i| over the real line


class FactorizedSymbol(Symbol):
    """Finite sum of tensor-product terms (the finite factorized class)."""

    def __init__(self, terms: Sequence[FactorTerm]):
        if not terms:
            raise ParameterError("factorized symbol needs at least one term")
        arities = {len(t.factors) for t in terms}
        if len(arities) != 1:
            raise ParameterError("all factorized terms must share one arity")
        self.terms = list(terms)
        self.arity = arities.pop()

    def tensor(self, reps):
        """Sum over terms of weight * g_0(reps[0]) x ... x g_n(reps[n]) (outer products)."""
        out = np.zeros(tuple(len(r) for r in reps), dtype=complex)
        for term in self.terms:
            prod = np.asarray(complex(term.weight))
            for g, r in zip(term.factors, reps):
                r = np.asarray(r, dtype=float)
                vals = np.broadcast_to(np.asarray(g(r), dtype=complex), r.shape)
                prod = np.multiply.outer(prod, vals)
            out += prod
        return out

    def factorized_bound(self) -> float:
        """Sum over terms of |weight| * prod sup|g_i|."""
        return sum(abs(t.weight) * float(np.prod(t.factor_sups)) for t in self.terms)


class DiagonalRestrictedSymbol(Symbol):
    """phi(l_0,...,l_{n-1}) = base(l_0,...,l_{n-1}, l_0); arity drops by one."""

    def __init__(self, base: Symbol):
        if base.arity < 2:
            raise ParameterError("cannot diagonally restrict an arity-1 symbol")
        self.base = base
        self.arity = base.arity - 1

    def tensor(self, reps):
        if isinstance(self.base, DividedDifferenceSymbol):
            nodes, index = _distinct_nodes(*reps)
            rows = _index_rows(index)
            rows = np.concatenate([rows, rows[:, :1]], axis=1)
            return _indexed_divided_differences(self.base.f, nodes, rows).reshape(
                [len(r) for r in reps])
        wrapped = self.base.tensor(list(reps) + [reps[0]])
        return np.moveaxis(np.diagonal(wrapped, axis1=0, axis2=-1), -1, 0)


def dd_symbol(f: FunctionFamily, order: int) -> DividedDifferenceSymbol:
    return DividedDifferenceSymbol(f, order)


def exponential_symbol(s: float, arity: int) -> FactorizedSymbol:
    """phi(l_0..l_n) = exp(i s (l_0 + ... + l_n)) as a single product term."""
    s = float(s)

    def factor(x):
        return np.exp(1j * s * np.asarray(x))

    return FactorizedSymbol(
        [FactorTerm(1.0 + 0.0j, tuple([factor] * arity), tuple([1.0] * arity))]
    )


# ---------------------------------------------------------------------------
# Operands and results
# ---------------------------------------------------------------------------


def operands(
    operators: Sequence[Union[EigenSystem, np.ndarray]],
    arguments: Sequence[np.ndarray],
) -> MOIOperands:
    """Build operands, eigendecomposing any raw Hermitian matrices."""
    ops = [E if isinstance(E, EigenSystem) else eig_hermitian(E) for E in operators]
    args = [np.asarray(M, dtype=complex) for M in arguments]
    return MOIOperands(ops, args)


@dataclass
class MOIResult:
    value: np.ndarray
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Contraction kernel
# ---------------------------------------------------------------------------


def _binned(ops: MOIOperands, m: int) -> Tuple[List[np.ndarray], int]:
    """Per slot, the bin corner floor(lambda * m)/m of each eigen-index; and the bins hit."""
    corners = []
    hit = 0
    for E in ops.operators:
        bins = np.floor(E.eigenvalues * m)
        corners.append(bins / m)
        hit += len(_distinct_nodes(bins)[0])
    return corners, hit


def _contract(symbol: Symbol, ops: MOIOperands, nodes) -> Tuple[np.ndarray, int]:
    """V_0 inner V_n* with inner contracted chunk by chunk over i_0.

    ``nodes[k][i]`` is the node of eigen-index i in slot k.  Returns the value
    and the number of symbol values computed.
    """
    d, n = ops.dim, ops.n_args
    step = _chunk_rows(d, n)
    C = _chain(ops)
    idx, pairs = _chain_subscripts(n)
    spec = ",".join([idx] + pairs) + "->" + idx[0] + idx[-1]
    inner = np.zeros((d, d), dtype=complex)
    evaluations = 0
    for lo in range(0, d, step):
        rows = np.arange(lo, min(lo + step, d))
        phi = symbol.tensor([nodes[0][rows], *nodes[1:]])
        evaluations += phi.size
        if n == 0:
            inner[rows, rows] = phi
        else:
            inner[rows] = np.einsum(spec, phi, C[0][rows], *C[1:])
    value = ops.operators[0].basis @ inner @ ops.operators[-1].basis.conj().T
    return value, evaluations


def _check_symbol(symbol: Symbol, ops: MOIOperands) -> None:
    if symbol.arity != ops.n_args + 1:
        raise DimensionMismatchError(
            f"symbol arity {symbol.arity} does not match {ops.n_args + 1} operator slots"
        )


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def moi_projection_sum(symbol: Symbol, ops: MOIOperands) -> MOIResult:
    """Projection-sum multiple operator integral over every eigen-index tuple."""
    _check_symbol(symbol, ops)
    value, n_evals = _contract(symbol, ops, [E.eigenvalues for E in ops.operators])
    return MOIResult(
        value=value,
        diagnostics={
            "cluster_counts": [ops.dim] * (ops.n_args + 1),  # nodes per slot
            "symbol_evaluations": n_evals,
        },
    )


def moi_discretized(symbol: Symbol, ops: MOIOperands, m: int) -> MOIResult:
    """Discretized sum over spectral bins [l/m, (l+1)/m), symbol at bin corners.

    The window is the spectrum's own reach: every eigenvalue falls in its bin,
    so the finite sum is the window limit, and nothing is truncated.
    Eigenvalues that share a bin share its corner: a repeated, confluent node.
    """
    _check_symbol(symbol, ops)
    if m < 1:
        raise ParameterError("bin density m must be >= 1")
    corners, bins_hit = _binned(ops, m)
    value, n_evals = _contract(symbol, ops, corners)
    return MOIResult(
        value=value,
        diagnostics={
            "cluster_counts": [ops.dim] * (ops.n_args + 1),
            "symbol_evaluations": n_evals,
            "bins_hit": bins_hit,
            "m": m,
        },
    )


def moi_factorized(symbol: FactorizedSymbol, ops: MOIOperands) -> MOIResult:
    """Evaluate a factorized symbol term by term through functional calculus."""
    if not isinstance(symbol, FactorizedSymbol):
        raise ParameterError("moi_factorized needs a FactorizedSymbol")
    _check_symbol(symbol, ops)
    d = ops.dim
    out = np.zeros((d, d), dtype=complex)
    for term in symbol.terms:
        acc = apply_callable(term.factors[0], ops.operators[0])
        for k in range(ops.n_args):
            acc = acc @ ops.arguments[k] @ apply_callable(
                term.factors[k + 1], ops.operators[k + 1]
            )
        out += complex(term.weight) * acc
    return MOIResult(value=out, diagnostics={"terms": len(symbol.terms)})


@dataclass
class NormReport:
    ratio: float
    norm_value: float
    denominator: float
    factorized_bound: Optional[float] = None  # set for factorized symbols


def moi_norm_report(symbol: Symbol, ops: MOIOperands, exponents: Sequence[float]) -> NormReport:
    """Measured ratio ||T(b)||_p / (sup|f^(n)| * prod ||b_i||_{p_i}).

    exponents holds one Schatten exponent p_i > 1 per argument b_i, and p
    follows from the Hoelder condition 1/p = sum 1/p_i; it must satisfy
    1 < p < inf.  The ratio is recorded for monitoring only; no universal
    constant is asserted.  For factorized symbols the product bound
    sum |w| prod sup|g_i| is checked as a hard inequality, and a violation
    raises :class:`ToleranceError`.
    """
    exponents = [float(q) for q in exponents]
    if len(exponents) != ops.n_args:
        raise ParameterError(
            f"need one exponent per argument: {ops.n_args} arguments, {len(exponents)} exponents"
        )
    if not all(q > 1.0 for q in exponents):
        raise ParameterError(f"argument exponents must satisfy p_i > 1, got {exponents}")
    inv_p = sum(1.0 / q for q in exponents)
    if not 0.0 < inv_p < 1.0:
        raise ParameterError(f"norm report needs 1 < p < inf, got 1/p = sum 1/p_i = {inv_p}")
    p = 1.0 / inv_p
    if isinstance(symbol, DividedDifferenceSymbol):
        if not symbol.f.bounded_deriv.get(symbol.order, False):
            raise ParameterError(
                f"family {symbol.f.family_id!r} does not declare a bounded "
                f"derivative of order {symbol.order}"
            )
        hull = (min(E.eigenvalues[0] for E in ops.operators),
                max(E.eigenvalues[-1] for E in ops.operators))
        sup = symbol.f.sup_abs_deriv(symbol.order, hull)
    elif isinstance(symbol, FactorizedSymbol):
        sup = symbol.factorized_bound()
    else:
        raise ParameterError("norm report supports divided-difference and factorized symbols")
    value = moi_projection_sum(symbol, ops).value
    tnorm = schatten_norm(value, p)
    arg_norms = [schatten_norm(M, q) for M, q in zip(ops.arguments, exponents)]
    denom = sup * float(np.prod(arg_norms))
    ratio = 0.0 if denom == 0 else tnorm / denom
    report = NormReport(ratio=ratio, norm_value=tnorm, denominator=denom)
    if isinstance(symbol, FactorizedSymbol):
        # sup is the factorized bound, so denom is its limit on ||T(b)||_p
        report.factorized_bound = sup
        if not tnorm <= denom * (1.0 + 1e-9) + 1e-15:
            raise ToleranceError("factorized norm bound violated", lhs=tnorm, rhs=denom)
    return report


def moi_trace(symbol: Symbol, ops: MOIOperands, closing: np.ndarray) -> complex:
    """trace(T(b_1..b_n) * closing).

    When the symbol is a FactorizedSymbol, the trace is taken as well from
    its product form (:func:`moi_factorized`), which is functional calculus
    and shares no code with the contraction; the two must agree to 1e-9
    relative, and disagreement raises :class:`ToleranceError` with both values.
    """
    closing = np.asarray(closing, dtype=complex)
    if closing.shape != (ops.dim, ops.dim):
        raise DimensionMismatchError("closing matrix dimension mismatch")
    direct = trace(moi_projection_sum(symbol, ops).value @ closing)
    if isinstance(symbol, FactorizedSymbol):
        product = trace(moi_factorized(symbol, ops).value @ closing)
        scale = max(1.0, abs(direct), abs(product))
        if abs(direct - product) > 1e-9 * scale:
            raise ToleranceError(
                "product-form trace disagrees with the projection sum",
                lhs=direct,
                rhs=product,
                deviation=abs(direct - product) / scale,
            )
    return direct
