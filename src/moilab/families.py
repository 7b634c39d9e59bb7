"""Scalar function families with exact derivatives and divided differences.

A :class:`FunctionFamily` bundles closed-form evaluators for f, f', ...,
f^(max_order) together with declared regularity flags (bounded derivatives,
decay at infinity, compact support, admissible divided-difference kernels).
The flags are metadata, not computed facts: they gate which operator-level
results a family is allowed to certify, and :func:`classify` turns them into
a report.

Divided differences come from the confluent (Hermite) table of
:mod:`moilab.kernels`, run over index rows into the sorted distinct nodes, so
that f^(j) is evaluated once per distinct node and order, and the table once
per distinct multiset of nodes.
:func:`divided_difference_tensor` backs the operator integrals; it merges no
nodes, and is accurate at any node gap (its docstring states the rule and the
bound).  :func:`divided_difference` is the tests' independent oracle, the
definition run on one tuple: it merges neighbouring nodes closer than
1e-7 (1 + max |node|) into their mean, takes f^(m)(x)/m! on a block of m+1
merged nodes and difference quotients elsewhere, and shares no code with the
kernel.  It is accurate where the nodes are either merged or well apart.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import OrderLimitError, ParameterError
from .kernels import _distinct_nodes, _index_rows, _indexed_divided_differences

__all__ = [
    "FunctionFamily",
    "AdmissibilityReport",
    "divided_difference",
    "divided_difference_tensor",
    "classify",
    "monomial",
    "exponential",
    "fourier",
    "gaussian",
    "bump",
    "runge",
    "recip_plus",
    "family_from_spec",
    "BUILTIN_FAMILIES",
]

# Kernel classes a divided difference may be declared to live in:
#   "continuous" - finite factorized form with uniformly continuous factors
#   "bounded"    - finite factorized form with bounded factors only
#   None         - no declared factorization
KERNEL_CONTINUOUS = "continuous"
KERNEL_BOUNDED = "bounded"


class FunctionFamily:
    """A scalar function on the whole real line with derivative evaluators up
    to a fixed order.  Real or complex valued, as its evaluator returns.

    Parameters
    ----------
    family_id:
        Short string id, addressable from configuration.
    max_order:
        Highest derivative order the evaluator supports.
    evaluator:
        ``evaluator(k, x)`` returns f^(k)(x); must accept numpy arrays in x.
    bounded_deriv, vanishes_at_inf:
        Per-order flags for k = 1..max_order (k = 0 entries are ignored).
    dd_kernel:
        Per-order declared kernel class of the k-th divided difference
        ("continuous", "bounded", or None).  Declared, never computed.
    deriv_sup:
        Optional map k -> sup |f^(k)| over the real line, for orders where it
        is known in closed form.
    scale:
        The length over which f changes by O(1), one float; it sets the span
        below which :func:`divided_difference_tensor` uses Taylor series.
    """

    def __init__(
        self,
        family_id: str,
        max_order: int,
        evaluator: Callable[[int, np.ndarray], np.ndarray],
        *,
        bounded_deriv: Dict[int, bool],
        vanishes_at_inf: Dict[int, bool],
        compact_support: bool = False,
        dd_kernel: Optional[Dict[int, Optional[str]]] = None,
        deriv_sup: Optional[Dict[int, float]] = None,
        params: Optional[dict] = None,
        scale: float = 1.0,
    ):
        if max_order < 0:
            raise ParameterError("max_order must be nonnegative")
        self.family_id = family_id
        self.max_order = int(max_order)
        self._evaluator = evaluator
        self.bounded_deriv = dict(bounded_deriv)
        self.vanishes_at_inf = dict(vanishes_at_inf)
        self.compact_support = bool(compact_support)
        self.dd_kernel = dict(dd_kernel or {})
        self._deriv_sup = dict(deriv_sup or {})
        self.params = dict(params or {})
        self.scale = float(scale)

    def __repr__(self):
        return f"FunctionFamily({self.family_id!r}, max_order={self.max_order})"

    def eval(self, k: int, x):
        """Value of f^(k) at x (scalar or array)."""
        if not 0 <= k <= self.max_order:
            raise OrderLimitError(
                f"family {self.family_id!r} supports derivatives up to order "
                f"{self.max_order}, got {k}"
            )
        out = self._evaluator(k, np.asarray(x, dtype=float))
        return out if np.ndim(x) else complex(out) if np.iscomplexobj(out) else float(out)

    def sup_abs_deriv(self, k: int, hull: Tuple[float, float]) -> float:
        """Sup of |f^(k)|, from the declared table or a grid estimate on the
        hull (lo, hi) padded by a tenth of its width plus one."""
        if k in self._deriv_sup:
            return self._deriv_sup[k]
        pad = 0.1 * (hull[1] - hull[0] + 1.0)
        grid = np.linspace(hull[0] - pad, hull[1] + pad, 4001)
        return float(np.max(np.abs(self._evaluator(k, grid))))


def divided_difference(f: FunctionFamily, nodes) -> complex:
    """n-th order divided difference f^[n] of f on len(nodes) = n+1 nodes.

    The nodes are sorted, and neighbours closer than 1e-7 (1 + max |node|)
    merge, by single linkage, into one block that takes the block's mean.  A
    block of m+1 nodes contributes the confluent value f^(m)(x)/m!, and the
    Newton table of difference quotients does the rest.  Symmetric in the
    node order.
    """
    z = sorted(float(x) for x in nodes)
    if not z:
        raise ParameterError("a divided difference needs at least one node")
    order = len(z) - 1
    if order > f.max_order:
        raise OrderLimitError(
            f"divided difference of order {order} needs derivatives the family "
            f"{f.family_id!r} does not provide (max_order={f.max_order})"
        )
    tol = 1e-7 * (1.0 + max(abs(z[0]), abs(z[-1])))
    blocks = [[z[0]]]
    for a, b in zip(z, z[1:]):
        if b - a > tol:
            blocks.append([b])
        else:
            blocks[-1].append(b)
    x = []
    for block in blocks:
        # a lone node is its own mean; + 0.0 turns -0.0 into 0.0, as np.mean does
        x += [float(np.mean(block)) if len(block) > 1 else block[0] + 0.0] * len(block)
    col = list(np.asarray(f.eval(0, x), dtype=complex))
    for j in range(1, len(x)):
        col = [complex(f.eval(j, x[i])) / math.factorial(j) if x[i + j] == x[i]
               else (col[i + 1] - col[i]) / (x[i + j] - x[i]) for i in range(len(x) - j)]
    return complex(col[0])


def divided_difference_tensor(
    f: FunctionFamily, order: int, node_lists: Sequence[Sequence[float]]
) -> np.ndarray:
    """Entry (i_0,...,i_n) = divided_difference(f, (lists[0][i_0],...,lists[n][i_n])).

    The rows of the Cartesian product name their nodes by indices into the
    sorted distinct nodes of the lists, so f^(j) is evaluated once per
    distinct node and order.  Each row is sorted, and the Hermite table runs
    column by column, with no node merged, once per distinct multiset of
    nodes; rows with the same multiset share its value, bit for bit.  The
    level-j entry over
    z_i <= ... <= z_{i+j} has span h = z_{i+j} - z_i, and with
    M = f.max_order and tau = eps^(1/(M+1)) * f.scale (:func:`kernels._near_span`)
    it is

    - f^(j)(z_i)/j! where h = 0;
    - the Taylor series about z_i where 0 < h < tau (:func:`kernels._taylor_entries`);
    - the difference quotient of two level-(j-1) entries where h >= tau.

    Truncation leaves about (h/scale)^(M+1-j) of the entry, and a quotient
    divides by a span of at least tau, so an order-k value is good to about
    (eps + eps^(1-k/(M+1))) times the scale of f's order-k Taylor coefficients,
    sup|f^(k)|/k!.
    """
    if len(node_lists) != order + 1:
        raise ParameterError(f"expected {order + 1} node lists, got {len(node_lists)}")
    if order > f.max_order:
        raise OrderLimitError(
            f"order {order} exceeds max_order={f.max_order} of {f.family_id!r}"
        )
    lists = [np.asarray(l, dtype=float) for l in node_lists]
    for l in lists:
        if l.size == 0:
            raise ParameterError("empty node list")
    nodes, index = _distinct_nodes(*lists)
    return _indexed_divided_differences(f, nodes, _index_rows(index)).reshape(
        [len(l) for l in lists])


@dataclass
class AdmissibilityReport:
    """Which operator-level guarantees the declared flags support at order n."""

    family_id: str
    order: int
    differentiable_lp: bool      # all of f', ..., f^(n) bounded and continuous
    nth_deriv_vanishes: bool     # f^(n) decays at infinity
    trace_formula_lp: bool       # decaying f^(n), bounded lower derivatives,
    #                              continuous factorized n-th kernel
    trace_formula_schatten: bool  # bounded f^(n) and factorized n-th kernel
    moment_identities_only: bool = False
    notes: Tuple[str, ...] = field(default_factory=tuple)


def classify(f: FunctionFamily, n: int) -> AdmissibilityReport:
    """Flag-driven admissibility of the family at order n."""
    if n > f.max_order:
        raise OrderLimitError(
            f"order {n} exceeds max_order={f.max_order} of {f.family_id!r}"
        )
    bounded_all = all(f.bounded_deriv.get(k, False) for k in range(1, n + 1))
    bounded_below = all(f.bounded_deriv.get(k, False) for k in range(1, n))
    vanishes = f.vanishes_at_inf.get(n, False)
    kernel = f.dd_kernel.get(n)
    notes = []
    if f.compact_support:
        notes.append("compactly supported: every path is available")
    diff_lp = bounded_all
    tf_lp = vanishes and bounded_below and kernel == KERNEL_CONTINUOUS
    tf_schatten = bounded_all and kernel in (KERNEL_CONTINUOUS, KERNEL_BOUNDED)
    moment_only = not (diff_lp or tf_lp or tf_schatten)
    if not f.bounded_deriv.get(n, False):
        notes.append("unbounded top derivative: only density/moment checks apply")
    if diff_lp and not vanishes:
        notes.append("derivative formula holds; decay-based continuity path closed")
    return AdmissibilityReport(
        family_id=f.family_id,
        order=n,
        differentiable_lp=diff_lp,
        nth_deriv_vanishes=vanishes,
        trace_formula_lp=tf_lp,
        trace_formula_schatten=tf_schatten,
        moment_identities_only=moment_only,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def monomial(k: int, max_order: int = 8) -> FunctionFamily:
    """f(x) = x**k."""
    if not isinstance(k, numbers.Integral) or isinstance(k, bool) or k < 0:
        raise ParameterError(f"monomial exponent must be an integer >= 0, got {k!r}")
    k = int(k)
    max_order = max(max_order, k)

    def ev(j, x):
        if j > k:
            return np.zeros_like(x)
        c = math.factorial(k) / math.factorial(k - j)
        return c * x ** (k - j)

    return FunctionFamily(
        f"monomial{k}",
        max_order,
        ev,
        bounded_deriv={j: j >= k for j in range(1, max_order + 1)},
        vanishes_at_inf={j: j > k for j in range(1, max_order + 1)},
        dd_kernel={j: KERNEL_BOUNDED if j > k else None for j in range(1, max_order + 1)},
        deriv_sup={j: (math.factorial(k) if j == k else 0.0) for j in range(k, max_order + 1)},
        params={"k": k},
    )


def exponential(max_order: int = 8) -> FunctionFamily:
    """f(x) = exp(x).  Unbounded derivatives; useful on bounded spectra."""
    return FunctionFamily(
        "exp",
        max_order,
        lambda j, x: np.exp(x),
        bounded_deriv={j: False for j in range(1, max_order + 1)},
        vanishes_at_inf={j: False for j in range(1, max_order + 1)},
        dd_kernel={},
    )


def _power_or_inf(x: float, j: int) -> float:
    """x ** j for a float x >= 0, or inf where that is past the largest float."""
    try:
        return x ** j
    except OverflowError:
        return math.inf


def fourier(s: float, max_order: int = 16) -> FunctionFamily:
    """f(x) = exp(i s x), the bounded complex exponential with frequency s.

    max_order 16 puts tau at eps^(1/17)/|s|, as in the Fourier sweep's family.
    sup |f^(j)| = |s|^j is declared, as inf where it is past the largest float;
    f^(j) itself raises ParameterError there, as the factory does for a non-finite s.
    """
    if not math.isfinite(s):  # a TypeError for what is not a real number
        raise ParameterError(f"fourier needs a finite frequency s, got {s!r}")
    s = float(s)

    def ev(j, x):
        try:
            coef = (1j * s) ** j
        except OverflowError:
            raise ParameterError(f"f^(j) = (i s)^j exp(i s x) of fourier with s = {s!r} "
                                 f"is past the largest float at j = {j}") from None
        return coef * np.exp(1j * s * x)

    return FunctionFamily(
        "fourier",
        max_order,
        ev,
        bounded_deriv={j: True for j in range(1, max_order + 1)},
        vanishes_at_inf={j: False for j in range(1, max_order + 1)},
        dd_kernel={j: KERNEL_CONTINUOUS for j in range(1, max_order + 1)},
        deriv_sup={j: _power_or_inf(abs(s), j) for j in range(0, max_order + 1)},
        params={"s": s},
        scale=1.0 / abs(s) if s else math.inf,
    )


def gaussian(max_order: int = 8) -> FunctionFamily:
    """f(x) = exp(-x^2); derivatives via the Hermite recurrence."""

    def ev(j, x):
        h_prev = np.ones_like(x)
        h = 2.0 * x
        if j == 0:
            hj = h_prev
        elif j == 1:
            hj = h
        else:
            for i in range(1, j):
                h_prev, h = h, 2.0 * x * h - 2.0 * i * h_prev
            hj = h
        return (-1.0) ** j * hj * np.exp(-x * x)

    return FunctionFamily(
        "gaussian",
        max_order,
        ev,
        bounded_deriv={j: True for j in range(1, max_order + 1)},
        vanishes_at_inf={j: True for j in range(1, max_order + 1)},
        dd_kernel={j: KERNEL_CONTINUOUS for j in range(1, max_order + 1)},
        deriv_sup={0: 1.0, 2: 2.0},
    )


def _bump_numerators(max_order: int):
    """Coefficients, lowest degree first, of the polynomials P_j with
    f^(j) = f * P_j(u) / (1-u^2)^(2j) on |u| < 1.  They are small integers,
    so every sum and product below is exact."""
    one_minus_sq = np.array([1.0, 0.0, -2.0, 0.0, 1.0])  # (1 - u^2)^2
    polys = [np.array([1.0])]
    for j in range(1, max_order + 1):
        p = np.append(polys[-1], 0.0)  # a spare degree, so that P' is never empty
        # P_j from P_{j-1}: quotient rule plus the chain factor -2u/(1-u^2)^2,
        # P_j = P' (1-u^2)^2 + (4(j-1) u (1-u^2) - 2u) P
        p_next = np.convolve(p[1:] * np.arange(1, len(p)), one_minus_sq) \
            + np.convolve(p, [0.0, 4.0 * j - 6.0, 0.0, -4.0 * (j - 1)])
        polys.append(np.trim_zeros(p_next, "b"))
    return polys


def _horner(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomial with coefficients coef (lowest degree first) at x."""
    out = coef[-1] + x * 0
    for c in coef[-2::-1]:
        out = c + out * x
    return out


def bump(center: float = 0.0, halfwidth: float = 1.0, max_order: int = 6) -> FunctionFamily:
    """Smooth bump exp(-1/(1-u^2)) on |u| < 1 with u = (x-center)/halfwidth,
    for a finite center and a finite positive halfwidth (else ParameterError)."""
    if not (math.isfinite(center) and math.isfinite(halfwidth) and halfwidth > 0):
        raise ParameterError(f"bump needs a finite center and a finite positive halfwidth, "
                             f"got center = {center!r}, halfwidth = {halfwidth!r}")
    c, w = float(center), float(halfwidth)
    polys = _bump_numerators(max_order)

    def ev(j, x):
        xa = np.asarray(x, dtype=float)
        u = (np.atleast_1d(xa) - c) / w
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        core = np.exp(-1.0 / (1.0 - ui ** 2))
        out[inside] = core * _horner(polys[j], ui) / (1.0 - ui ** 2) ** (2 * j) / w ** j
        return out.reshape(xa.shape)

    fam = FunctionFamily(
        "bump",
        max_order,
        ev,
        bounded_deriv={j: True for j in range(1, max_order + 1)},
        vanishes_at_inf={j: True for j in range(1, max_order + 1)},
        compact_support=True,
        dd_kernel={j: KERNEL_CONTINUOUS for j in range(1, max_order + 1)},
        params={"center": c, "halfwidth": w},
        scale=0.3 * w,  # the derivatives grow fast towards the edges
    )
    return fam


def runge(max_order: int = 8) -> FunctionFamily:
    """f(x) = 1/(1+x^2), with derivatives from the complex partial fractions."""

    def ev(j, x):
        # on a 1-d array: numpy's complex power rounds a 0-d input differently
        xc = np.asarray(x, dtype=complex)
        x1 = np.atleast_1d(xc)
        val = ((-1.0) ** j * math.factorial(j) / (2j)) * (
            (x1 - 1j) ** (-(j + 1)) - (x1 + 1j) ** (-(j + 1))
        )
        return val.real.reshape(xc.shape)

    return FunctionFamily(
        "runge",
        max_order,
        ev,
        bounded_deriv={j: True for j in range(1, max_order + 1)},
        vanishes_at_inf={j: True for j in range(1, max_order + 1)},
        dd_kernel={j: KERNEL_CONTINUOUS for j in range(1, max_order + 1)},
        deriv_sup={0: 1.0},
    )


# Coefficients of the x < 0 continuation g(x) = g0 + g1*exp(x) + g2*exp(2x),
# matched to value, first, and second derivative of 1/(1+x) at 0.  The
# continuation keeps f twice continuously differentiable with f' and f''
# bounded on the whole line, which a polynomial tail cannot do.
_RECIP_G = (3.5, -4.0, 1.5)


def recip_plus(max_order: int = 2) -> FunctionFamily:
    """f(x) = 1/(1+x) for x >= 0, with a bounded C^2 continuation for x < 0."""
    if max_order > 2:
        raise ParameterError("recip_plus is only twice differentiable at 0")
    g0, g1, g2 = _RECIP_G

    def ev(j, x):
        xa = np.asarray(x, dtype=float)
        x1 = np.atleast_1d(xa)
        pos = x1 >= 0
        out = np.empty_like(x1)
        out[pos] = (-1.0) ** j * math.factorial(j) * (1.0 + x1[pos]) ** (-(j + 1))
        xn = x1[~pos]
        if j == 0:
            out[~pos] = g0 + g1 * np.exp(xn) + g2 * np.exp(2 * xn)
        else:
            out[~pos] = g1 * np.exp(xn) + g2 * 2.0 ** j * np.exp(2 * xn)
        return out.reshape(xa.shape)

    return FunctionFamily(
        "recip_plus",
        max_order,
        ev,
        bounded_deriv={1: True, 2: True},
        vanishes_at_inf={1: False, 2: False},
        dd_kernel={},
        deriv_sup={1: 7.0, 2: 10.0},  # coarse bounds from the continuation coefficients
    )


BUILTIN_FAMILIES = {
    "monomial": monomial,
    "exp": exponential,
    "fourier": fourier,
    "gaussian": gaussian,
    "bump": bump,
    "runge": runge,
    "recip_plus": recip_plus,
}


# Largest derivative order (monomial exponent k or max_order) a spec may ask
# for: the factories build per-order tables before any other check.
MAX_SPEC_ORDER = 64


def family_from_spec(spec: dict) -> FunctionFamily:
    """Build a family from {"id": ..., <params>}; a malformed spec raises ParameterError."""
    if not isinstance(spec, dict):
        raise ParameterError(f"function spec must be an object, got {spec!r}")
    spec = dict(spec)
    try:
        fid = spec.pop("id")
    except KeyError:
        raise ParameterError("function spec needs an 'id' field") from None
    try:
        factory = BUILTIN_FAMILIES[fid]
    except (KeyError, TypeError):
        raise ParameterError(
            f"unknown family id {fid!r}; known: {sorted(BUILTIN_FAMILIES)}"
        ) from None
    for key in ("k", "max_order"):
        v = spec.get(key)
        if isinstance(v, numbers.Real) and not isinstance(v, bool) and v > MAX_SPEC_ORDER:
            raise ParameterError(f"family {fid!r}: {key} = {v!r} exceeds the cap {MAX_SPEC_ORDER}")
    try:
        return factory(**spec)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"family {fid!r}: {exc}") from None
