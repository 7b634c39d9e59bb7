"""Directional derivatives of t -> f(A + tB), Taylor remainders, and the
perturbation and trace-formula identities that tie them together.

Every operation here has two faces: a formula built from operator integrals
and an independent way to check it (finite differences, a second algebraic
route, or a closed scalar form).  The checks are part of the contracts, not
just the tests: `taylor_remainder` computes both of its routes and raises if
they disagree, and the perturbation and telescoping checks return the relative
residual of their identity for the caller to judge; so do the trace-formula
checks against a shift function from :mod:`moilab.ssf`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .errors import _MEMORY_BUDGET_BYTES, OrderLimitError, ParameterError, ToleranceError
from .families import FunctionFamily, monomial, recip_plus
from .moi import (
    DiagonalRestrictedSymbol,
    MOIOperands,
    MOIResult,
    dd_symbol,
    moi_projection_sum,
    moi_trace,
    operands,
)
from .spectral import (
    EigenSystem,
    apply_function,
    eig_hermitian,
    require_hermitian,
    require_hermitian_pair,
    schatten_norm,
    trace,
    weighted_diagonal_norm,
)

if TYPE_CHECKING:
    from .ssf import SSFGrid

__all__ = [
    "gateaux_derivative",
    "derivative_moi",
    "finite_difference_oracle",
    "taylor_remainder",
    "remainder_two_path",
    "relative_deviation",
    "perturbation_first_order",
    "perturbation_higher_order",
    "telescoping_check",
    "verify_trace_formula",
    "TraceFormulaReport",
    "diagonal_symbol_trace",
    "IdentityChainReport",
    "ssf_l1_report",
    "lp_counterexample_demo",
    "DivergenceRow",
    "default_fd_step",
]

# Central difference stencils for the k-th derivative, all O(h^2):
# map k -> list of (offset multiple of h, coefficient); divide by h^k.
_STENCILS = {
    1: [(-1, -0.5), (1, 0.5)],
    2: [(-1, 1.0), (0, -2.0), (1, 1.0)],
    3: [(-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)],
    4: [(-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)],
}

# Base steps per derivative order.  Larger orders need larger steps: the
# rounding term grows like eps / h^k while truncation stays O(h^2), so the
# usable window moves up with k.  With three extrapolation levels the
# smallest step is h/8, which keeps eps/(h/8)^k below 1e-6 at these values.
_BASE_STEP = {1: 1e-3, 2: 3e-3, 3: 4e-2, 4: 6e-2}


def relative_deviation(x: np.ndarray, y: np.ndarray) -> float:
    """||x - y||_F / max(1, ||x||_F, ||y||_F), the residual of the two-route checks."""
    return float(np.linalg.norm(x - y) / max(1.0, np.linalg.norm(x), np.linalg.norm(y)))


def default_fd_step(k: int, B: np.ndarray) -> float:
    bnorm = float(np.linalg.norm(B, 2))
    return _BASE_STEP[k] / (1.0 + bnorm)


def _warn_missing_flags(f: FunctionFamily, k: int) -> None:
    # called from _derivative_moi only: level 3 is the public entry point, 4 its caller
    missing = [j for j in range(1, k + 1) if not f.bounded_deriv.get(j, False)]
    if missing:
        warnings.warn(
            f"family {f.family_id!r} lacks bounded-derivative flags for orders "
            f"{missing}; the derivative exists at finite dimension but carries "
            f"no operator-norm guarantee",
            stacklevel=4,
        )


def gateaux_derivative(
    f: FunctionFamily,
    A,
    B,
    k: int,
    t: float = 0.0,
) -> np.ndarray:
    """k-th derivative of t -> f(A + tB), via the operator-integral formula.

    Equals k! times the order-k operator integral with every slot at A + tB
    and every argument equal to B.
    """
    return _derivative_moi(f, A, B, k, t).value


def derivative_moi(f: FunctionFamily, A, B, k: int, t: float = 0.0) -> MOIResult:
    """:func:`gateaux_derivative` with the kernel diagnostics of its one operator integral."""
    return _derivative_moi(f, A, B, k, t)


def _derivative_moi(f: FunctionFamily, A, B, k: int, t: float) -> MOIResult:
    if k > f.max_order:
        raise OrderLimitError(f"derivative order {k} exceeds {f.family_id!r} support")
    if k < 1:
        raise ParameterError("derivative order must be >= 1")
    if not math.isfinite(t):
        raise ParameterError(f"t must be finite, got {t!r}")
    _warn_missing_flags(f, k)
    A, B = require_hermitian_pair(A, B)
    E = eig_hermitian(A + t * B)
    ops = operands([E] * (k + 1), [B] * k)
    result = moi_projection_sum(dd_symbol(f, k), ops)
    return MOIResult(math.factorial(k) * result.value, result.diagnostics)


def finite_difference_oracle(
    f: FunctionFamily,
    A,
    B,
    k: int,
    t: float = 0.0,
    h: Optional[float] = None,
    levels: int = 3,
) -> np.ndarray:
    """Richardson-extrapolated central difference of s -> f(A + sB).

    Independent of the operator-integral machinery: each stencil point is a
    plain functional-calculus evaluation.
    """
    if k not in _STENCILS:
        raise ParameterError(f"finite differences implemented for k in {sorted(_STENCILS)}")
    if levels < 0:
        raise ParameterError("levels must be >= 0")
    A, B = require_hermitian_pair(A, B)
    if h is None:
        h = default_fd_step(k, B)
    if h <= 0:
        raise ParameterError("step h must be positive")

    def central(step: float) -> np.ndarray:
        acc = np.zeros(A.shape, dtype=complex)
        for mult, coef in _STENCILS[k]:
            s = t + mult * step
            acc += coef * apply_function(f, eig_hermitian(A + s * B))
        return acc / step ** k

    table = [central(h / 2 ** i) for i in range(levels + 1)]
    for j in range(1, levels + 1):
        factor = 4.0 ** j
        table = [
            (factor * table[i + 1] - table[i]) / (factor - 1.0)
            for i in range(len(table) - 1)
        ]
    return table[0]


def taylor_remainder(
    f: FunctionFamily,
    A,
    B,
    n: int,
    check_tol: float = 1e-8,
) -> np.ndarray:
    """Operator Taylor remainder of order n at base point A in direction B.

    Computes both the subtraction form

        f(A+B) - f(A) - sum_{k=1}^{n-1} (order-k integral with slots at A)

    and the closed integral form with the leading slot at A + B, asserts they
    agree to check_tol relative, and returns the closed form.
    """
    sigma, closed, dev = remainder_two_path(f, A, B, n)
    if dev > check_tol:
        raise ToleranceError(
            "subtraction and closed remainder forms disagree",
            lhs=sigma,
            rhs=closed,
            deviation=dev,
        )
    return closed


def remainder_two_path(f: FunctionFamily, A, B, n: int) -> Tuple[np.ndarray, np.ndarray, float]:
    """(subtraction form, closed form, their relative_deviation) of :func:`taylor_remainder`."""
    if n < 1:
        raise ParameterError("remainder order must be >= 1")
    if n > f.max_order:
        raise OrderLimitError(f"remainder order {n} exceeds {f.family_id!r} support")
    A, B = require_hermitian_pair(A, B)
    EA = eig_hermitian(A)
    EAB = eig_hermitian(A + B)
    sigma = apply_function(f, EAB) - apply_function(f, EA)
    for k in range(1, n):
        ops = operands([EA] * (k + 1), [B] * k)
        sigma = sigma - moi_projection_sum(dd_symbol(f, k), ops).value
    closed = moi_projection_sum(
        dd_symbol(f, n), operands([EAB] + [EA] * n, [B] * n)
    ).value
    return sigma, closed, relative_deviation(sigma, closed)


def perturbation_first_order(f: FunctionFamily, A, B) -> float:
    """Residual of: first-order integral over (A, B) applied to A - B equals
    f(A) - f(B).  The caller judges it against its tolerance."""
    if not f.bounded_deriv.get(1, False):
        warnings.warn(
            f"family {f.family_id!r} is not flagged Lipschitz; identity still "
            "holds at finite dimension",
            stacklevel=2,
        )
    A, B = require_hermitian_pair(A, B)
    EA, EB = eig_hermitian(A), eig_hermitian(B)
    lhs = moi_projection_sum(dd_symbol(f, 1), operands([EA, EB], [A - B])).value
    rhs = apply_function(f, EA) - apply_function(f, EB)
    return float(np.linalg.norm(lhs - rhs)) / max(1.0, float(np.linalg.norm(rhs)))


def perturbation_higher_order(
    f: FunctionFamily,
    A,
    B,
    a_list: Sequence,
    x_list: Sequence[np.ndarray],
    k: int,
    j: int,
) -> float:
    """Residual of the slot-replacement identity.

    Replacing operator slot j (1-based) of the order-k integral changes the
    value by an order-(k+1) integral with (B, A) in slots (j, j+1) and the
    difference B - A inserted as the j-th argument.
    """
    if k + 1 > f.max_order:
        raise OrderLimitError("identity needs derivatives up to order k+1")
    if not 1 <= j <= k + 1:
        raise ParameterError(f"slot j must lie in 1..{k + 1}")
    if len(a_list) != k or len(x_list) != k:
        raise ParameterError("need k operator slots and k arguments")
    A, B = require_hermitian_pair(A, B)
    EA, EB = eig_hermitian(A), eig_hermitian(B)
    Es = [X if isinstance(X, EigenSystem) else eig_hermitian(X) for X in a_list]
    xs = [np.asarray(x, dtype=complex) for x in x_list]
    sym_k = dd_symbol(f, k)
    sym_k1 = dd_symbol(f, k + 1)
    with_b = Es[: j - 1] + [EB] + Es[j - 1:]
    with_a = Es[: j - 1] + [EA] + Es[j - 1:]
    lhs = (
        moi_projection_sum(sym_k, MOIOperands(with_b, xs)).value
        - moi_projection_sum(sym_k, MOIOperands(with_a, xs)).value
    )
    rhs_ops = Es[: j - 1] + [EB, EA] + Es[j - 1:]
    rhs_args = xs[: j - 1] + [B - A] + xs[j - 1:]
    rhs = moi_projection_sum(sym_k1, MOIOperands(rhs_ops, rhs_args)).value
    return relative_deviation(lhs, rhs)


def telescoping_check(f: FunctionFamily, A, B, n: int, t: float, j: int) -> float:
    """Residual of the telescoped difference formula.

    The order-(n-1) integral with the first j slots moved from A to A + tB
    differs from the all-A integral by t times the sum over l <= j of
    order-n integrals with l perturbed leading slots.
    """
    if n > f.max_order:
        raise OrderLimitError("telescoping needs derivatives up to order n")
    if not 1 <= j <= n:
        raise ParameterError(f"slot count j must lie in 1..{n}")
    A, B = require_hermitian_pair(A, B)
    EA = eig_hermitian(A)
    Et = eig_hermitian(A + t * B)
    sym_lo = dd_symbol(f, n - 1)
    sym_hi = dd_symbol(f, n)
    lhs = (
        moi_projection_sum(sym_lo, MOIOperands([Et] * j + [EA] * (n - j), [B] * (n - 1))).value
        - moi_projection_sum(sym_lo, MOIOperands([EA] * n, [B] * (n - 1))).value
    )
    rhs = np.zeros_like(lhs)
    for l in range(1, j + 1):
        rhs = rhs + moi_projection_sum(
            sym_hi, MOIOperands([Et] * l + [EA] * (n + 1 - l), [B] * n)
        ).value
    return relative_deviation(lhs, t * rhs)


@dataclass
class TraceFormulaReport:
    rows: List[dict] = field(default_factory=list)
    moments: List[dict] = field(default_factory=list)

    def max_function_error(self) -> float:
        return max((r["rel_error"] for r in self.rows), default=0.0)

    def max_moment_error(self) -> float:
        return max((m["error"] for m in self.moments), default=0.0)


def verify_trace_formula(
    A, B, n: int, ssf: SSFGrid, test_functions: Sequence[FunctionFamily]
) -> TraceFormulaReport:
    """Held-out comparison of remainder traces against the shift pairing.

    Per function: relative error between trace(remainder_n(f)) and the
    quadrature of f^(n) against the density.  Moment identities for
    k = 0, 1, 2 compare the k-th grid moment with
    k!/(n+k)! * trace(remainder_n(x^{n+k})).
    """
    A, B = require_hermitian_pair(A, B)
    report = TraceFormulaReport()
    for f in test_functions:
        if f.max_order < n:
            raise OrderLimitError(f"test family {f.family_id!r} lacks order {n}")
        lhs = complex(trace(taylor_remainder(f, A, B, n))).real
        rhs = ssf.quadrature(np.asarray(f.eval(n, ssf.t_grid)))
        rel = abs(lhs - rhs) / max(1.0, abs(lhs))
        report.rows.append(
            {"family": f.family_id, "remainder_trace": lhs, "pairing": rhs,
             "rel_error": rel}
        )
    for k in (0, 1, 2):
        mono = monomial(n + k)
        lhs = ssf.moment(k)
        rhs = (
            math.factorial(k) / math.factorial(n + k)
            * complex(trace(taylor_remainder(mono, A, B, n))).real
        )
        err = abs(lhs - rhs) / (1.0 + abs(rhs))
        report.moments.append({"k": k, "moment": lhs, "remainder_form": rhs, "error": err})
    return report


@dataclass
class IdentityChainReport:
    restricted_trace: complex
    full_trace: complex
    chain_deviation: float
    pairing: Optional[float] = None
    pairing_errors: Optional[Tuple[float, float]] = None


def diagonal_symbol_trace(
    A, B, n: int, f: FunctionFamily, ssf: Optional[SSFGrid] = None
) -> IdentityChainReport:
    """Trace identity chain linking the restricted and full symbol forms.

    The restricted symbol phi(l_0..l_{n-1}) = f^[n](l_0,..,l_{n-1},l_0) runs
    on n operator slots (A, A+B, A, ..) with n-1 arguments and a closing B;
    the full divided difference runs on n+1 slots with n arguments.  Their
    traces agree because the first and last slots carry the same spectral
    projections, so the wrap-around index collapses.  Needs n >= 2: with a
    single slot the last operator is A + B and the wrap does not close.
    The report carries their relative deviation for the caller to judge.
    """
    if n < 2:
        raise ParameterError("the identity chain needs n >= 2")
    if n > f.max_order:
        raise OrderLimitError(f"family {f.family_id!r} lacks order {n}")
    A, B = require_hermitian_pair(A, B)
    EA = eig_hermitian(A)
    EAB = eig_hermitian(A + B)
    sym = dd_symbol(f, n)
    ops_restricted = MOIOperands([EA, EAB] + [EA] * (n - 2), [B] * (n - 1))
    lhs1 = moi_trace(DiagonalRestrictedSymbol(sym), ops_restricted, closing=B)
    ops_full = MOIOperands([EA, EAB] + [EA] * (n - 1), [B] * n)
    lhs2 = complex(trace(moi_projection_sum(sym, ops_full).value))
    dev = abs(lhs1 - lhs2) / max(1.0, abs(lhs1), abs(lhs2))
    report = IdentityChainReport(restricted_trace=lhs1, full_trace=lhs2, chain_deviation=dev)
    if ssf is not None:
        pairing = ssf.quadrature(np.asarray(f.eval(n, ssf.t_grid)))
        report.pairing = pairing
        report.pairing_errors = (
            abs(lhs1.real - pairing) / max(1.0, abs(pairing)),
            abs(lhs2.real - pairing) / max(1.0, abs(pairing)),
        )
    return report


def ssf_l1_report(B, n: int, ssf: SSFGrid) -> dict:
    """Pair (l1 mass of the density, n-norm of B to the n-th power) plus ratio."""
    B = require_hermitian(B)
    bn = schatten_norm(B, float(n)) ** n
    ratio = ssf.l1_norm / bn if bn > 0 else 0.0
    out = {"l1_norm": ssf.l1_norm, "b_norm_pow": bn, "ratio": ratio}
    if not all(math.isfinite(v) for v in out.values()):
        raise ParameterError("shift-function report has non-finite entries")
    return out


@dataclass
class DivergenceRow:
    dim: int
    t: float
    r_heavy: float
    r_bounded: float


# lp_counterexample_demo keeps about 10 float arrays of its largest dimension
# alive (tracemalloc: 9.1 * 8 bytes per atom), so under the memory budget
# dims[-1] = 3355443 is the largest it takes.
_COUNTEREXAMPLE_BYTES_PER_ATOM = 10 * 8


def _heavy_tail_diagonal(d: int, p: float) -> np.ndarray:
    """The counterexample's heavy-tail diagonal (k/d)^(-1/(1.5 p)), k = 1..d."""
    return (np.arange(1, d + 1, dtype=float) / d) ** (-1.0 / (1.5 * p))


def _counterexample_csv(rows: Sequence[DivergenceRow]) -> str:
    """The counterexample table as CSV text, each float by its repr."""
    return "d,t,r_heavy,r_bounded\n" + "".join(
        f"{r.dim},{r.t!r},{r.r_heavy!r},{r.r_bounded!r}\n" for r in rows)


def lp_counterexample_demo(p: float, dims: Sequence[int]) -> List[DivergenceRow]:
    """Difference-quotient blowup for an unbounded heavy-tail perturbation.

    The model is the normalized weighted diagonal algebra on d atoms of mass
    1/d, with a = 1 and b = diag((k/d)^(-1/(1.5 p))).  The tail exponent puts
    b inside L_p but outside L_2p as d grows, and the weighted p-norm of

        (phi'(t) - phi'(0)) / t      at t = 1 / d

    then grows without bound, while the bounded control b = 1 settles to a
    constant.  Rows report both columns per dimension.
    """
    if not 1.0 < p < math.inf:
        raise ParameterError("demo needs 1 < p < inf")
    if list(dims) != sorted(set(int(d) for d in dims)) or any(d < 1 for d in dims):
        raise ParameterError(f"dims must be strictly increasing and positive, got {list(dims)}")
    if max(dims, default=0) * _COUNTEREXAMPLE_BYTES_PER_ATOM > _MEMORY_BUDGET_BYTES:
        raise ParameterError(
            f"dims[-1] = {max(dims)} needs more than the {_MEMORY_BUDGET_BYTES >> 20} MiB "
            f"memory budget holds ({_COUNTEREXAMPLE_BYTES_PER_ATOM} bytes per atom)"
        )
    f = recip_plus()
    rows: List[DivergenceRow] = []
    for d in dims:
        weights = np.full(d, 1.0 / d)
        t = 1.0 / d
        out = []
        for heavy in (True, False):
            b = _heavy_tail_diagonal(d, p) if heavy else np.ones(d)
            # diagonal algebra commutes: phi'(t) = f'(1 + t b) b entrywise
            quot = (f.eval(1, 1.0 + t * b) * b - f.eval(1, np.ones(d)) * b) / t
            out.append(weighted_diagonal_norm(quot, p, weights))
        rows.append(DivergenceRow(dim=int(d), t=t, r_heavy=out[0], r_bounded=out[1]))
    return rows
