"""Array kernels shared by the operator integrals and the Fourier sweep.

Two engines live here, apart from the function catalogue, the symbols and
the operations that use them, so that a caller of one loads neither:

- The Hermite (confluent divided-difference) table, run over index rows:
  each row names its nodes by their indices into the sorted distinct nodes
  (:func:`_distinct_nodes`), and f^(j) is evaluated once per distinct node
  and order and gathered (:func:`_gathered`).  The part of the table that
  does not depend on f (:func:`_table_levels`) is split from its evaluation
  (:func:`_hermite_table`), so that the Fourier sweep builds it once and
  evaluates it for every chunk of its s-grid.
  :func:`_indexed_divided_differences` runs it for the rows of
  ``families.divided_difference_tensor`` and of the restricted symbol, whose
  docstring states the accuracy rule, once per distinct multiset of nodes:
  the sorted rows are told apart by colex rank in :func:`_distinct_rows`,
  which finds the Fourier sweep's multisets too.
- The operand tuple of a multiple operator integral (:class:`MOIOperands`),
  its arguments in the eigenbases of their neighbours (:func:`_chain`), the
  width of ``moi``'s chunks over i_0 (:func:`_chunk_rows`), and the trace
  structure weights (:func:`projection_trace_weights`), made whole.

:func:`_index_rows` builds the rows of a Cartesian product of index vectors
for both.  A function family is used only through ``max_order``, ``scale``
and its evaluator, so this module imports no family.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .errors import _MEMORY_BUDGET_BYTES, DimensionMismatchError, ParameterError
from .spectral import EigenSystem

if TYPE_CHECKING:
    from .families import FunctionFamily

__all__ = ["MOIOperands", "projection_trace_weights"]


# ---------------------------------------------------------------------------
# Index rows and the Hermite table
# ---------------------------------------------------------------------------


def _index_rows(index: Sequence[np.ndarray]) -> np.ndarray:
    """The (M, k) rows (index[0][i_0], ..., index[k-1][i_{k-1}]) over every
    tuple of positions, the last position running fastest."""
    k = len(index)
    rows = np.empty([len(x) for x in index] + [k], dtype=np.result_type(*index))
    for c, x in enumerate(index):
        rows[..., c] = x.reshape((-1,) + (1,) * (k - 1 - c))
    return rows.reshape(-1, k)


def _near_span(max_order: int, scale):
    """tau = eps^(1/(M+1)) * scale: the span below which an entry of the
    Hermite table of a family with M = max_order takes its Taylor series."""
    return np.finfo(float).eps ** (1.0 / (max_order + 1)) * scale


def _distinct_nodes(*lists) -> Tuple[np.ndarray, list]:
    """The distinct values of the lists in ascending order, and each list as
    indices into them: np.unique by a sort and a compare of neighbours,
    without np.unique's import of numpy.ma."""
    x = np.sort(np.concatenate(lists))
    keep = np.empty(len(x), dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    nodes = x[keep]
    return nodes, [np.searchsorted(nodes, l) for l in lists]


def _gathered(f: FunctionFamily, nodes: np.ndarray):
    """ev(j, x) = f^(j) at the nodes of index x, from f^(j) evaluated once at
    every node, on the first ask for order j."""
    values = {}

    def ev(j, x):
        if j not in values:
            values[j] = f._evaluator(j, nodes)
        return values[j][x]

    return ev


@dataclass
class _TableLevel:
    """What level j of the Hermite table over sorted rows z needs besides f:
    the spans gap = z[:, j:] - z[:, :-j], the (r, i) of the zero spans, and
    the (r, i) of the positive spans below a bound in ascending order of span,
    with those spans and the complete homogeneous polynomials h[m] of their
    offsets that their Taylor series take (:func:`_taylor_entries`)."""

    gap: np.ndarray
    confluent: Tuple[np.ndarray, np.ndarray]
    r: np.ndarray
    i: np.ndarray
    span: np.ndarray
    h: np.ndarray


def _table_levels(z: np.ndarray, near_below: float, max_order: int):
    """The levels j = 1..k-1 of the Hermite table over the sorted (M, k) rows z
    whose Taylor entries are the spans below near_below, for a family of
    max_order M (series of M - j + 1 terms at level j).

    None of it depends on the values of f, so a caller that evaluates many
    families over the same rows (the Fourier sweep, one per chunk of s)
    keeps the list, and takes the entries below each family's tau as a
    prefix; :func:`_indexed_divided_differences` takes one level at a time.
    """
    for j in range(1, z.shape[1]):
        gap = z[:, j:] - z[:, :-j]
        r, i = ((gap > 0) & (gap < near_below)).nonzero()
        h = np.zeros((max_order - j + 1, len(r)))
        if len(r):
            order = np.argsort(gap[r, i], kind="stable")
            r, i = r[order], i[order]
            # the Taylor series of each about its left node c (McCurdy, Ng &
            # Parlett, Math. Comp. 43, 1984): h_m of the offsets, which are
            # nonnegative, so h_m involves no cancellation
            nodes = z[r[:, None], i[:, None] + np.arange(j + 1)]
            h[0] = 1.0
            for x in (nodes[:, 1:] - nodes[:, :1]).T:
                for m in range(1, len(h)):
                    h[m] += x * h[m - 1]
        yield _TableLevel(gap, (gap == 0).nonzero(), r, i, gap[r, i], h)


def _hermite_table(ev, tau, at: np.ndarray, levels) -> np.ndarray:
    """The top entries of the Hermite table of ev over the sorted index rows
    at, given by their :func:`_table_levels`: ev(k, x) is f^(k) at the nodes
    of index x, and tau is :func:`_near_span` of the family, or one per entry
    of a trailing axis of ev's values.
    """
    col = np.asarray(ev(0, at), dtype=complex)
    trailing = (Ellipsis,) + (None,) * (col.ndim - 2)
    tau_max = np.max(tau)
    for j, level in enumerate(levels, 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            col = (col[:, 1:] - col[:, :-1]) / level.gap[trailing]
        if len(level.confluent[0]):
            deriv = np.asarray(ev(j, at[:, :-j][level.confluent]), dtype=complex)
            fact = math.factorial(j)
            col.real[level.confluent] = deriv.real / fact
            col.imag[level.confluent] = deriv.imag / fact
        # spans below the largest tau; rows with none keep the quotients
        near = level.span.searchsorted(tau_max) if len(level.span) else 0
        if near:
            _taylor_entries(ev, at, j, level, near, col, tau, trailing)
    return col[:, 0]


def _taylor_entries(ev, at, j, level, near, col, tau, trailing) -> None:
    """Overwrite the first near Taylor entries of the level by their series.

    About the left node c = z_i (McCurdy, Ng & Parlett, Math. Comp. 43, 1984):

        f[z_i..z_{i+j}] = sum_{m <= M-j} f^(j+m)(c)/(j+m)! h_m(z_i-c, .., z_{i+j}-c)

    where h_m is the complete homogeneous symmetric polynomial of degree m.
    Where tau varies along the trailing axis, the series is evaluated on all
    of it, and an entry takes it only where its own span is below tau.
    """
    r, i, span = level.r[:near], level.i[:near], level.span[:near]
    c = at[r, i]
    val = 0.0
    for m in reversed(range(len(level.h))):  # the smallest terms first
        val = val + ev(j + m, c) * (level.h[m, :near] / math.factorial(j + m))[trailing]
    if np.ndim(tau):
        val = np.where(span[trailing] < tau, val, col[r, i])
    col[r, i] = val


def _colex_ranks(rows: np.ndarray, n: int) -> np.ndarray:
    """The colex rank sum_c C(i_c + c, c + 1) of each nondecreasing row
    i_0 <= ... <= i_{k-1} of the (M, k) array rows of indices below n.

    This is the combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3): it
    numbers the C(n+k-1, k) multisets of k indices 0, 1, ... in colex
    order, one to one.  The binomials are k running sums down Pascal's
    triangle over the indices m < n: from 0 at m = 0 and 1 elsewhere, the
    (c+1)-th running sum holds C(m + c, c + 1) = sum_{j < m} C(j + c, c).

    The ranks are int64 and stay below C(n+k-1, k), so they cannot
    overflow where that bound is below 2^63.  The rows of an operator
    integral keep it many orders of magnitude under: its k slots hold d
    nodes each, so n <= k d, and at d = 64, k = 5 the bound is
    C(324, 5) < 2^35, where the d^5 index rows alone would take 40 GiB.  Only
    lists of very unequal lengths pass 2^63 (one list of 20,000 nodes and
    four of one node, k = 5), so :func:`_distinct_rows` checks the bound.
    """
    column = np.ones(n, dtype=np.int64)
    column[0] = 0
    rank = np.zeros(len(rows), dtype=np.int64)
    for c in range(rows.shape[1]):
        np.cumsum(column, out=column)  # now C(m + c, c + 1)
        rank += column[rows[:, c]]
    return rank


def _distinct_rows(rows: np.ndarray, n: int):
    """The distinct rows of the (M, k) index rows below n, sorted in place,
    in ascending colex rank, and the index of each row into them: one stable
    argsort of the ranks and a compare of neighbours, as :func:`_distinct_nodes`.

    Returns the rows as they are, with the identity index, where the ranks
    could pass int64 (see :func:`_colex_ranks`).
    """
    rows.sort(axis=1)
    k = rows.shape[1]
    if math.comb(n + k - 1, k) > np.iinfo(np.int64).max:
        return rows, np.arange(len(rows))
    rank = _colex_ranks(rows, n)
    order = np.argsort(rank, kind="stable")
    rank = rank[order]
    new = np.empty(len(rank), dtype=bool)
    new[:1] = True
    np.not_equal(rank[1:], rank[:-1], out=new[1:])
    first = order[new]
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return rows[first], inverse


def _indexed_divided_differences(f: FunctionFamily, nodes: np.ndarray, rows: np.ndarray):
    """divided_difference(f, nodes[row]) for every row of the (M, n+1) array
    rows of indices into the sorted distinct nodes, by the rule of
    ``families.divided_difference_tensor``; rows is sorted along axis 1 in
    place.

    A divided difference depends only on the multiset of its nodes, so the
    table runs once per distinct sorted row, found by its colex rank
    (:func:`_colex_ranks`), and the values are gathered back along axis 0;
    a family whose values carry trailing axes keeps them.  Which entries of
    a sorted row take the confluent value or the Taylor series depends only
    on that row's spans and tau, so every value has the bits it has when
    each row is run on its own.  Where the ranks could pass int64 (lists
    of very unequal lengths, see :func:`_colex_ranks`), the rows are run as
    they are.
    """
    rows, inverse = _distinct_rows(rows, len(nodes))
    tau = _near_span(f.max_order, f.scale)
    levels = _table_levels(nodes[rows], np.max(tau), f.max_order)
    return _hermite_table(_gathered(f, nodes), tau, rows, levels)[inverse]


# ---------------------------------------------------------------------------
# Operands, chunks and trace weights
# ---------------------------------------------------------------------------


@dataclass
class MOIOperands:
    """Operator tuple (n+1 eigen-systems) and argument matrices (n)."""

    operators: List[EigenSystem]
    arguments: List[np.ndarray]

    def __post_init__(self):
        if len(self.operators) != len(self.arguments) + 1:
            raise DimensionMismatchError(
                f"{len(self.operators)} operators need {len(self.operators) - 1} "
                f"arguments, got {len(self.arguments)}"
            )
        dims = {E.dim for E in self.operators}
        dims |= {M.shape[0] for M in self.arguments}
        dims |= {M.shape[1] for M in self.arguments}
        if len(dims) != 1:
            raise DimensionMismatchError(f"inconsistent operand dimensions {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.operators[0].dim

    @property
    def n_args(self) -> int:
        return len(self.arguments)


# Complex entries one chunk of the kernel may hold (4 MiB as complex128).  A
# chunk is a run of i_0 whose slab of Phi, d^n entries per i_0, fits in this
# bound; the symbol tensor it is broadcast from is no larger.
_CHUNK_ENTRIES = 1 << 18


def _chunk_rows(d: int, n: int) -> int:
    """Number of i_0 per chunk; raises ParameterError when one i_0 slice is too large."""
    per_row = d ** n
    if per_row > _CHUNK_ENTRIES:
        raise ParameterError(
            f"an order-{n} operator integral at dimension {d} needs {per_row} complex "
            f"entries per eigen-index, more than the {_CHUNK_ENTRIES} one chunk may hold"
        )
    return _CHUNK_ENTRIES // per_row


def _chain(ops: MOIOperands) -> List[np.ndarray]:
    """C_k = V_k* b_{k+1} V_{k+1}: the arguments in the eigenbases of their neighbours."""
    return [
        ops.operators[k].basis.conj().T @ ops.arguments[k] @ ops.operators[k + 1].basis
        for k in range(ops.n_args)
    ]


def _chain_subscripts(n: int) -> Tuple[str, List[str]]:
    """einsum letters of i_0..i_n and of C_0..C_{n-1}."""
    idx = string.ascii_letters[: n + 1]
    return idx, [idx[k:k + 2] for k in range(n)]


def projection_trace_weights(
    ops: MOIOperands, closing: Optional[np.ndarray] = None
):
    """Structure weights W(i_0..i_n) = trace(P_{i_0} b_1 P_{i_1} ... b_n P_{i_n} C).

    Separating these weights from the symbol lets a caller sweep a symbol
    family over the same operator tuple at the cost of one contraction: the
    trace of the operator integral against C is then
    sum over multi-indices of phi(eigenvalues) * W.

    Returns the complex array W, whose axis s runs over the eigen-indices of
    slot s; one einsum makes it, after a check of its size against the memory budget.
    """
    d, n = ops.dim, ops.n_args
    if 16 * d ** (n + 1) > _MEMORY_BUDGET_BYTES:
        raise ParameterError(f"the order-{n} trace weights at dimension {d} need "
                             f"{d ** (n + 1)} complex entries, more than the "
                             f"{_MEMORY_BUDGET_BYTES >> 20} MiB memory budget holds")
    closing = np.eye(d) if closing is None else np.asarray(closing, dtype=complex)
    Cwrap = ops.operators[-1].basis.conj().T @ closing @ ops.operators[0].basis
    idx, pairs = _chain_subscripts(n)
    # w[i_0..i_n] = C_0[i_0, i_1] ... C_{n-1}[i_{n-1}, i_n] Cwrap[i_n, i_0], "aa->a" at n = 0
    spec = ",".join(pairs + [idx[-1] + idx[0]]) + "->" + idx
    return np.einsum(spec, *_chain(ops), Cwrap)
