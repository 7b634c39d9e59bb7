"""Spectral shift functions and trace-formula verification.

Order 1 uses the exact counting form: eta_1(t) counts eigenvalues of A + B
above t minus eigenvalues of A above t, a piecewise-constant function whose
pairing with f' telescopes exactly between the points of the two spectra; a
counting grid's sidecar holds both, all that the pairing needs.

Higher orders are recovered by Fourier duality.  Pairing the order-n
remainder trace with the bounded exponentials f_s(x) = exp(isx) gives

    F(s) = trace(remainder_n(f_s, A, B)) = (is)^n * etahat_n(s),

so etahat_n = F(s) / (is)^n away from s = 0; F comes from the chunked
reduced-arity sweep of :func:`_remainder_trace_exponential` over the s >= 0
half of a periodic power-of-two s-grid, since etahat_n(-s) = conj etahat_n(s).
Each chunk builds the rows exp(isx) of the distinct eigenvalues x from one
table of about 2 sqrt(m) exponentials per row (:class:`_ExpTable`); the
order-0 terms are weights on those rows, and the higher divided-difference
tables are gathered from them.  The quotient is filled across a small
exclusion zone around 0 by an even/odd polynomial fit anchored at the exact
zeroth moment etahat_n(0) = trace(B^n)/n!, tapered at the ends of the
s-window and weighted in place.  The grid sits in the hull's own frame: as
eta_n(A + cI, B)(t) = eta_n(A, B)(t - c), the sweep takes the spectra less
their hull's centre c, and the density is sampled at t_k = c + k pi / s_max.
It is in the hull's own units too: as eta_n(aA, aB)(at) = a^(n-1)
eta_n(A, B)(t), the window and the padding come from the hull's width
(:func:`_hull_width`), and the fit regresses on the offsets s / ds, so no
length of 1 enters the recovery and a power-of-two a rescales it exactly.
The inverse DFT is taken only at the band of t-points that cover the padded
spectral hull (:func:`_band_dft`), from FFTs of strided columns of the
half-grid.  The imaginary part of the inversion is diagnostic residue: it is
reported, checked against a threshold, and discarded.

Working set: the half-grid etahat (num_s / 2 + 1 complex values, 1 MiB at
order 1's num_s = 2^17) is the only array as long as the s-grid, and nothing
else outgrows a chunk.  What does not depend on s (the sweep's rows, spans
and Taylor offsets, and its exponential steps) is made once per call.  The
sweep builds each chunk's s = k ds from its integer offsets, and every
block is of at most _BLOCK_ENTRIES = 2^14 complex entries: a chunk's tables
(one s-point's per_s entries where that is more), a run of s-points of the
quotient and taper, applied to etahat in place, and a block of the band
inverse's columns (one column of L where L is more), whose twiddles are made
for 2^12 entries at a time.  So the suite's order-1 call at num_s = 2^17 peaks
at about 1.7 MiB under tracemalloc, the d = 4 order-2 call at 0.8 MiB, and the
order-3 calls at d = 32 and 64 at 0.7 and 1.2 MiB.

The sweep's divided-difference tables and trace weights come from
:mod:`moilab.kernels`.  The function catalogue, the operator-integral forms
and the Taylor module are imported by the two checks that run them
(:func:`verify_trace_formula` and :func:`diagonal_symbol_trace`) when they
are called, so a recovery loads neither ``families`` nor ``moi``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    InversionQualityError,
    OrderLimitError,
    ParameterError,
)
from .kernels import (
    _CHUNK_ENTRIES,
    MOIOperands,
    _distinct_nodes,
    _distinct_rows,
    _hermite_table,
    _index_rows,
    _near_span,
    _table_levels,
    projection_trace_weights,
)
from .spectral import (
    EigenSystem,
    eig_hermitian,
    require_hermitian,
    require_hermitian_pair,
    schatten_norm,
    trace,
)

if TYPE_CHECKING:
    from .families import FunctionFamily

__all__ = [
    "SSFGrid",
    "FourierParams",
    "krein_ssf",
    "counting_pairing",
    "higher_ssf_fourier",
    "verify_trace_formula",
    "TraceFormulaReport",
    "diagonal_symbol_trace",
    "IdentityChainReport",
    "ssf_l1_report",
    "save_ssf",
    "load_ssf",
]


@dataclass
class SSFGrid:
    """A sampled spectral shift density on a uniform real grid.  A counting
    grid's params hold the spectra of A and A + B, all that pairing it needs."""

    order: int
    t_grid: np.ndarray
    values: np.ndarray
    support: Tuple[float, float]
    method: str                      # "counting" | "fourier"
    imag_residue: float = 0.0
    params: Optional[dict] = None
    seed: Optional[int] = None

    @property
    def l1_norm(self) -> float:
        """Trapezoid integral of |values| over the grid."""
        return float(np.trapezoid(np.abs(self.values), self.t_grid))

    def quadrature(self, samples: np.ndarray) -> float:
        """Trapezoid integral of samples * values over the grid."""
        return float(np.trapezoid(np.asarray(samples) * self.values, self.t_grid).real)

    def moment(self, k: int) -> float:
        return self.quadrature(self.t_grid ** k)


def _spectra_hull(EA, EAB) -> Tuple[float, float]:
    lo = min(EA.eigenvalues[0], EAB.eigenvalues[0])
    hi = max(EA.eigenvalues[-1], EAB.eigenvalues[-1])
    return float(lo), float(hi)


def _hull_width(lo: float, hi: float) -> float:
    """The width W of the hull [lo, hi] that sizes and pads its grids: hi - lo,
    floored at the eigensolver's resolution 64 eps max(|lo|, |hi|), so that W
    is in the units of A and B whatever their scale.  It is 1 only where both
    are 0, for A = B = 0, where eta = 0."""
    width = max(hi - lo, 64 * np.finfo(float).eps * max(abs(lo), abs(hi)))
    return width if width > 0.0 else 1.0


def _padded_hull(lo: float, hi: float) -> Tuple[float, float]:
    """The t-range of a density: [lo, hi] padded by T_PAD_FRAC W, W = _hull_width(lo, hi)."""
    pad = T_PAD_FRAC * _hull_width(lo, hi)
    return lo - pad, hi + pad


def _counting(lam: np.ndarray, mu: np.ndarray, t) -> np.ndarray:
    """eta_1(t) = #{mu > t} - #{lam > t} at each t, as floats."""
    t = np.asarray(t)[..., None]
    return ((mu > t).sum(axis=-1) - (lam > t).sum(axis=-1)).astype(float)


def krein_ssf(A, B) -> SSFGrid:
    """First-order shift function by exact eigenvalue counting, on 2001 points."""
    A, B = require_hermitian_pair(A, B)
    EA, EAB = eig_hermitian(A), eig_hermitian(A + B)
    lo, hi = _spectra_hull(EA, EAB)
    t = np.linspace(*_padded_hull(lo, hi), 2001)
    dt = t[1] - t[0]
    lam, mu = EA.eigenvalues, EAB.eigenvalues
    return SSFGrid(
        order=1,
        t_grid=t,
        values=_counting(lam, mu, t),
        support=(lo - dt, hi + dt),
        method="counting",
        params={"spectrum_base": lam.tolist(), "spectrum_perturbed": mu.tolist()},
    )


def counting_pairing(ssf: SSFGrid, f: FunctionFamily) -> float:
    """Exact pairing integral of f' against a counting-form shift function.

    The density is constant between the points of the two spectra held in
    ssf.params, so the integral telescopes through the antiderivative of f',
    which is f itself; the intervals are summed in ascending order.  A
    pairing that is not finite, as where f overflows on the spectra, raises
    ParameterError.
    """
    params = ssf.params or {}
    if ssf.method != "counting" or not {"spectrum_base", "spectrum_perturbed"} <= params.keys():
        raise ParameterError("breakpoint pairing needs a counting-form grid")
    lam, mu = np.asarray(params["spectrum_base"]), np.asarray(params["spectrum_perturbed"])
    bp = np.sort(np.concatenate([lam, mu]))
    total = 0.0
    for a, b, val in zip(bp[:-1], bp[1:], _counting(lam, mu, 0.5 * (bp[:-1] + bp[1:])).tolist()):
        if b > a and val != 0.0:
            total += val * float(np.real(f.eval(0, b) - f.eval(0, a)))
    if not math.isfinite(total):
        raise ParameterError(f"the pairing of {f.family_id!r} with the shift function is "
                             f"{total}, not finite: f overflows on the spectra")
    return total


# Largest s-grid a given num_s may ask for; the auto grid is 2^17 at order 1
# and 2^14 above (FourierParams._for_hull).
MAX_NUM_S = 1 << 18
T_PAD_FRAC = 0.2     # padding of the t-grid past the spectral hull, times its width W
TAPER_FRAC = 0.5     # outer fraction of [-s_max, s_max] where the cosine taper falls to 0
FIT_BAND_WIDTHS = 6  # steps ds past the exclusion zone that the small-s fit uses
_BLOCK_ENTRIES = 1 << 14  # complex entries of each block of the recovery's working set


@dataclass
class FourierParams:
    """Dual-grid parameters of the Fourier recovery: the s-window [-s_max, s_max]
    and its number of steps num_s.  The s-grid is periodic, s_k = k ds for the
    integer offsets -num_s/2 <= k < num_s/2 with ds = 2 s_max / num_s; the
    exclusion zone |s| < 2 ds is the offsets |k| <= 1, and the density is
    sampled at t_k = c + k pi / s_max about the centre c of the spectral hull.

    A field left None is sized by :func:`higher_ssf_fourier` as :meth:`auto`
    would size it, from the eigensolves the call makes anyway; each given
    field is checked here, on its own."""

    s_max: Optional[float] = None
    num_s: Optional[int] = None

    def __post_init__(self):
        num_s, s_max = self.num_s, self.s_max
        if num_s is not None and (isinstance(num_s, bool)
                                  or not isinstance(num_s, numbers.Integral) or num_s % 2):
            raise ParameterError(f"num_s must be an even integer, got {num_s!r}")
        if num_s is not None and not 4 < num_s <= MAX_NUM_S:
            raise ParameterError(f"num_s = {num_s} must exceed 4, so that the exclusion "
                                 f"2 ds < s_max, and not the cap {MAX_NUM_S}")
        if s_max is not None and (isinstance(s_max, bool) or not isinstance(s_max, numbers.Real)
                                  or not (math.isfinite(s_max) and s_max > 0)):
            raise ParameterError(f"s_max must be a finite positive real, got {s_max!r}")
        self.num_s = None if num_s is None else int(num_s)  # plain scalars for the sidecar
        self.s_max = None if s_max is None else float(s_max)

    @property
    def ds(self) -> float:
        return 2.0 * self.s_max / self.num_s

    @classmethod
    def auto(cls, A, B, n: int) -> "FourierParams":
        """Order-aware defaults sized from the width of the joint spectral hull.

        Order 1 must resolve unit jumps of the counting function, so its
        window is large; the exponential pairing there is a closed form and
        stays cheap.  Higher orders have much smaller jumps and get a
        moderate window.  The density is sampled about the hull's centre
        (:func:`higher_ssf_fourier`), so where the hull lies does not enter.
        """
        A, B = require_hermitian_pair(A, B)
        return cls._for_hull(*_spectra_hull(eig_hermitian(A), eig_hermitian(A + B)), n)

    @classmethod
    def _for_hull(cls, lo: float, hi: float, n: int) -> "FourierParams":
        """:meth:`auto` for the joint spectral hull [lo, hi] of A and A + B: in
        units of the hull's width W (:func:`_hull_width`), which also pads it,
        one grid for every hull, so the grid scales with A and B.  The centred
        padded hull reaches 0.7 W, and the conjugate grid (num_s / 2) pi / s_max
        8.6 W at order 1 and 42.9 W above."""
        s_width, num_s = (24000.0, 1 << 17) if n == 1 else (600.0, 1 << 14)
        return cls(s_max=s_width / _hull_width(lo, hi), num_s=num_s)

    def _filled(self, lo: float, hi: float, n: int) -> "FourierParams":
        """These params with each field left None taken from :meth:`_for_hull`."""
        if self.s_max is not None and self.num_s is not None:
            return self
        auto = self._for_hull(lo, hi, n)
        return FourierParams(s_max=auto.s_max if self.s_max is None else self.s_max,
                             num_s=auto.num_s if self.num_s is None else self.num_s)


class _ExpTable:
    """Rows exp(i s_j x) for the nodes x over chunks s of at most width
    points of an arithmetic grid of step h, each written into one buffer and
    returned as an (len(x), len(s)) view of it, valid until the next chunk.

    With b = ceil(sqrt(m)) for the m points of a chunk, the entry at
    s_j = s_a + r h + delta (s_a every b-th point of the chunk, r < b, delta
    the grid's own rounding) is

        exp(i s_a x) * exp(i r h x) * (1 + i phi),   phi = s_j x - s_a x - r h x,

    each product rounded as a direct exp(i s_j x) would round it.  So only
    len(x) (m/b + b) exponentials are taken, phi is a few ulps of s_j x, and
    the neglected phi^2 / 2 is far below eps.  What no chunk changes is made
    once: the buffers, and exp(i r h x) for each b (the chunks of one sweep
    have at most two lengths).  The factors 1 + i phi are made for groups of
    rows of at most _BLOCK_ENTRIES entries, a few numpy calls per group.
    """

    def __init__(self, x: np.ndarray, h: float, width: int):
        self.x = x
        self.h = h
        b = math.isqrt(width - 1) + 1
        self.out = np.empty(len(x) * (width + b), dtype=complex)
        # the factors 1 + i phi of one group of rows, as 1.0 + 1j * phi has
        # them; phi is written into .imag
        rows = min(len(x), max(1, _BLOCK_ENTRIES // 2 // (width + b)))
        self.fix = np.empty(rows * (width + b), dtype=complex)
        self.fix.real = 1.0
        self.steps = {}

    def __call__(self, s: np.ndarray) -> np.ndarray:
        x = self.x
        m = len(s)
        b = math.isqrt(m - 1) + 1
        q = -(-m // b)
        grid = np.empty(q * b)
        grid[:m] = s
        grid[m:] = s[-1]
        grid = grid.reshape(q, b)
        if b not in self.steps:
            steps = np.multiply.outer(x, self.h * np.arange(b))
            self.steps[b] = steps, np.exp(1j * steps)[:, None, :]
        steps, exp_steps = self.steps[b]
        base = np.multiply.outer(x, grid[:, 0])
        table = self.out[:len(x) * q * b].reshape(len(x), q, b)
        np.multiply(np.exp(1j * base)[:, :, None], exp_steps, out=table)
        group = len(self.fix) // (q * b)
        for r in range(0, len(x), group):
            fix = self.fix[:min(group, len(x) - r) * q * b].reshape(-1, q, b)
            phi = fix.imag
            np.multiply.outer(x[r:r + group], grid, out=phi)
            phi -= base[r:r + group, :, None]
            phi -= steps[r:r + group, None, :]
            table[r:r + group] *= fix
        return table.reshape(len(x), q * b)[:, :m]


def _sweep_step(d: int, n: int) -> int:
    """s-points per chunk of the order-n sweep at dimension d.

    Its largest table holds per_s complex entries per s-point, and a chunk's
    tables at most _BLOCK_ENTRIES (one s-point's where per_s is more); an
    order whose per_s is past _CHUNK_ENTRIES raises ParameterError.

    per_s counts all index rows, not the multisets, since it also bounds the
    set-up (the d^(n-1) index tuples and W).  Counting multisets widens the
    chunks; on a 2-core VM that slowed the order-3 sweep at d = 16 (median
    55 -> 84 ms), and at d = 64 runs disagreed (0.89 -> 0.99 s, 0.68 -> 0.58 s).
    """
    per_s = max(2 * d, (n - 1) * d ** (n - 1))
    if per_s > _CHUNK_ENTRIES:
        raise ParameterError(f"order {n} at dimension {d} needs {per_s} entries "
                             f"per s-point, more than the {_CHUNK_ENTRIES} of one chunk")
    return max(1, _BLOCK_ENTRIES // per_s)


def _remainder_trace_exponential(
    EA: EigenSystem, EAB: EigenSystem, B: np.ndarray, n: int, ds: float, k_lo: int,
    k_hi: int, step: int, out: np.ndarray,
) -> np.ndarray:
    """F(s) = trace R_n(f_s), f_s(x) = exp(isx), by the reduced-arity route,
    at s_k = k ds for the integer offsets k_lo <= k < k_hi.

    The trace of each Taylor term of R_n drops one slot through the wrap-around
    of the trace, tr D^k f(A)[B^k] = tr(D^{k-1} f'(A)[B^{k-1}] B), and
    f_s' = is f_s, so with the trace weights W_k = tr(P_{i_0} B ... P_{i_{k-1}} B)

        F(s) = sum e^{is mu} - sum e^{is lambda}
               - sum_{k<n} (is/k) sum f_s^{[k-1]}(lambda_{i_0..i_{k-1}}) W_k.

    O(d^{n-1}) work per s-point, in chunks of ``step`` s-points, written into
    out (complex, k_hi - k_lo), which is returned.  Each chunk builds its own
    s = ds * k, so no s-array is longer than a chunk; :func:`higher_ssf_fourier`
    passes step = :func:`_sweep_step`, so that a chunk's tables hold at most
    2^14 entries (one s-point's where that is more).

    Every node of every term is an eigenvalue of A or of A + B, so each chunk
    takes the rows exp(isx) of the at most 2d distinct nodes from one table
    (:class:`_ExpTable`): a direct exp at every b-th point, times exp(irhx)
    for r < b, times 1 + i phi for the rounding.  The terms k = 0
    and k = 1 need nothing but these rows, so their weights are summed per
    node once and F starts as w_0 @ E - is (w_1 @ E).  The terms k >= 2 take
    their divided-difference tables (:func:`kernels._hermite_table`, M = 16,
    scale 1/s) from the same rows: the Taylor series where the nodes span
    less than eps^(1/17)/s, so an order-k value is good to about
    (eps + eps^(1-k/17)) s^k/k! at any eigenvalue gap.

    What does not depend on s is done once per call, before the chunks: each
    W_k (whole, within the memory budget); the rows of each term k >= 2, the
    sorted multisets of node indices in colex order (kernels._distinct_rows),
    each with its tuples' summed weight (a divided difference is symmetric);
    their spans and zero spans; and their Taylor entries, the spans below
    eps^(1/17)/s at the first s in ascending order, so that each chunk takes
    those below its own largest tau as a prefix.  A chunk costs only its arithmetic.

    Near s = 0 the rounding of the O(d) terms (eigenvalues of A + B included)
    is divided by s^n, so etahat loses accuracy as (s ||B||)^{-n}.  Relative
    error of F against taylor_remainder(fourier(s)) on the suite's draws
    (seed 7), at the first s past the exclusion zone / s_max, by how the rows
    are taken:

        config      direct exp        table             table, no 1 + i phi
        d=4, n=1    5.9e-15 / 4.0e-14  5.9e-15 / 4.0e-14  2.1e-12 / 2.4e-13
        d=16, n=2   2.2e-13 / 1.3e-13  3.2e-13 / 1.3e-13  2.0e-12 / 1.7e-13
        d=6, n=3    2.0e-11 / 4.2e-15  1.6e-11 / 4.3e-15  3.4e-10 / 2.7e-14
        d=16, n=3   2.4e-10 / 1.6e-13  3.6e-10 / 1.6e-13  2.3e-9 / 2.5e-13

    phi is taken from the rounded products, not as (s_j - s_a - r h) x: that
    form leaves the rows about eps s x off a direct exp, and failed the
    sweep's remainder-oracle test at 3.6 times its bound (d = 1, n = 1, s_max).
    """
    nodes, (at, at_ab) = _distinct_nodes(EA.eigenvalues, EAB.eigenvalues)
    # the k = 0 and k = 1 terms as weights on the nodes
    w01 = np.zeros((2, len(nodes)), dtype=complex)
    np.add.at(w01[0], at_ab, 1.0)
    np.add.at(w01[0], at, -1.0)
    # exp(isx) has every derivative; 16 put tau at eps^(1/17)/s = 0.12/s,
    # where neither the series nor a quotient loses more than rounding
    M = max(n - 2, 16)
    tau_1 = _near_span(M, 1.0)  # tau = tau_1 * (1 / s)
    near_below = tau_1 * (1.0 / np.float64(ds * k_lo))  # the largest tau, at the first s
    terms = []
    for k in range(1, n):
        W = projection_trace_weights(MOIOperands([EA] * k, [B] * (k - 1)), closing=B)
        if k == 1:
            np.add.at(w01[1], at, W)
            continue
        rows, inverse = _distinct_rows(_index_rows([at] * k), len(nodes))
        w = W.ravel()
        if inverse is not None:
            w = np.zeros(len(rows), dtype=complex)
            np.add.at(w, inverse, W.ravel())
        terms.append((k, rows, w, list(_table_levels(nodes[rows], near_below, M))))
    exp_table = _ExpTable(nodes, ds, min(step, k_hi - k_lo))
    for lo in range(k_lo, k_hi, step):
        sc = ds * np.arange(lo, min(lo + step, k_hi))
        E = exp_table(sc)

        def phase(j, x):
            # (is)^j exp(isx) at the nodes of index x, for the s of the chunk
            # as a trailing axis, gathered from the rows and scaled in place.
            # (is)^j has an exact zero part, so each product is one rounding
            # in any order.
            e = E[x]
            if j:
                e *= (1j * sc) ** j
            return e

        w0, w1 = w01 @ E
        F = out[lo - k_lo:lo - k_lo + len(sc)]
        np.subtract(w0, 1j * sc * w1, out=F)
        tau = tau_1 * (1.0 / sc)
        for k, rows, w, levels in terms:
            F -= 1j * sc / k * (w @ _hermite_table(phase, tau, rows, levels))
    return out


def _band_dft(g: np.ndarray, k_lo: int, K: int) -> np.ndarray:
    """X_k = sum_m u_m exp(-2 pi i m k / N) for the K indices k_lo <= k < k_lo + K,
    where u is the conjugate-symmetric vector of length N = 2h held by its half
    g of h + 1 values: u_m = g_m for m <= h, g_h = 0, and u_{N-m} = conj(g_m).

    With N = P L, P the largest divisor of h for which L >= K, the K indices
    fall in distinct residues mod L, and

        X_k = sum_{b<P} exp(-2 pi i b k / N) FFT_L(u[b::P])[k mod L]

    (the four-step split; Bailey, J. Supercomputing 4, 1990).  Column b of u
    is g[b::P] followed by the conjugate of g[h-b::-P] (g_h first), two
    strided views of g; the columns are transformed a block of at most
    _BLOCK_ENTRIES = 2^14 entries at a time (one column where L is
    longer), so no array is as long as u but the P = 1 column, which is all
    of u.  Each block's twiddles are made for a quarter of that many
    (b, k) pairs at a time (for one k at least), so no K-sized temporary is
    made either; each X_k sums its columns in the same order whatever the
    blocks.
    """
    h = len(g) - 1
    N = 2 * h
    cap = min(h, N // K)
    # the divisors of h come in pairs (p, h / p) with p <= sqrt(h)
    P = max(q for p in range(1, math.isqrt(h) + 1) if h % p == 0
            for q in (p, h // p) if q <= cap)
    L = N // P
    top = g[:h].reshape(L // 2, P)      # u at a P + b, a < L/2
    bot = g[h:0:-1].reshape(L // 2, P)  # conj u at (a + L/2) P + b
    X = np.zeros(K, dtype=complex)
    width = max(1, _BLOCK_ENTRIES // L)
    block = np.empty((min(width, P), L), dtype=complex)  # one buffer for every block
    for b0 in range(0, P, width):
        b = np.arange(b0, min(b0 + width, P))
        cols = block[:len(b)]
        cols[:, :L // 2] = top[:, b0:b0 + width].T
        np.conjugate(bot[:, b0:b0 + width].T, out=cols[:, L // 2:])
        np.fft.fft(cols, axis=1, out=cols)
        # b (k_lo + j) = (b k_lo mod N) + b j with b j < P K <= N, so every
        # angle is below 4 pi and exact in its integers
        offset = (b * k_lo % N)[:, None]
        span = max(1, _BLOCK_ENTRIES // 4 // len(b))
        j0 = 0
        while j0 < K:
            # a run of k whose residues k mod L do not wrap, so that the
            # columns' entries are a slice
            r0 = (k_lo + j0) % L
            j1 = min(K, j0 + span, j0 + L - r0)
            angle = np.multiply.outer(b, np.arange(j0, j1))
            angle += offset
            angle = angle * (-2.0 * np.pi / N)
            # cos + i sin, as np.cos(angle) + 1j * np.sin(angle) has it
            twiddle = np.empty(angle.shape, dtype=complex)
            twiddle.real = np.cos(angle)
            twiddle.imag = np.sin(angle)
            del angle
            X[j0:j1] += np.einsum("bk,bk->k", cols[:, r0:r0 + j1 - j0], twiddle)
            j0 = j1
    return X


def _divide_and_taper(etahat: np.ndarray, n: int, ds: float, s_max: float) -> None:
    """In place on etahat at the offsets 2 <= k < h, _BLOCK_ENTRIES s-points at
    a time: the quotient F / (is)^n and the cosine taper w, which is 1 but on
    the outer TAPER_FRAC of the window."""
    h = len(etahat) - 1
    cut = (1.0 - TAPER_FRAC) * s_max
    for k in range(2, h, _BLOCK_ENTRIES):
        sc = ds * np.arange(k, min(k + _BLOCK_ENTRIES, h))
        g = etahat[k:k + len(sc)]
        g /= sc ** n
        g *= (-1j) ** n
        past = int(np.searchsorted(sc, cut, "right"))
        g[past:] *= 0.5 * (1.0 + np.cos(np.pi * (sc[past:] - cut) / (s_max - cut)))


def higher_ssf_fourier(
    A, B, n: int, params: Optional[FourierParams] = None, seed: Optional[int] = None
) -> SSFGrid:
    """Order-n shift density recovered from the exponential pairing.

    F(s) = tr R_n(e^{is.}) uses the eigenvalues of A and A + B as computed,
    close ones included: divided differences of e^{isx} take the Taylor series
    below the span tau = eps^(1/17)/s, quotients above it, so F is good to a
    few eps times d (1 + s ||B||)^(n-1) against a block-triangular expm.

    The s-grid is periodic: s_k = k ds for the integer offsets -h <= k < h,
    h = num_s / 2, ds = 2 s_max / num_s; params None, or a field of it left
    None, is sized from the hull of the call's own two eigensolves, as
    :meth:`FourierParams.auto` sizes it.  Only s >= 0 is held, since
    etahat(-s) = conj etahat(s); the taper is exactly 0 at s = +-s_max, so
    leaving out s = +s_max changes nothing.  F is swept at k >= 2 and
    divided by (is)^n there; the exclusion zone |k| <= 1 (|s| < 2 ds) is
    filled by the fit over 2 <= k <= 2 + FIT_BAND_WIDTHS.  F is taken for the
    spectra less their hull's centre c, and the density is sampled at
    t_k = c + k pi / s_max for the -k_hi <= k <= k_hi in the padded hull.

    Memory: etahat, h + 1 complex values, plus blocks of _BLOCK_ENTRIES.  The
    sweep writes F straight into etahat, a chunk of :func:`_sweep_step`
    s-points at a time; the fit takes its 7 quotients from a copy, and the
    quotient and taper then run in place (:func:`_divide_and_taper`), so no
    other array is as long as the s-grid; the band inverse takes its twiddles
    for 2^12 (column, t-point) pairs at a time.  etahat is dropped once the
    band is inverted.  A given grid whose t-step pi / s_max is too fine for h
    points to cover the padded hull raises a ParameterError ("increase
    num_s"), however small the step.  seed, None or an integer, is recorded.
    """
    if n < 1:
        raise ParameterError("order must be >= 1")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)):
        raise ParameterError(f"seed must be None or an integer, got {seed!r}")
    A, B = require_hermitian_pair(A, B)
    step = _sweep_step(len(A), n)
    EA = eig_hermitian(A)
    EAB = eig_hermitian(A + B)
    lo, hi = _spectra_hull(EA, EAB)
    params = (FourierParams() if params is None else params)._filled(lo, hi, n)
    # the hull's own frame; the trace weights read only the bases
    c = 0.5 * (lo + hi)
    EA, EAB = (replace(E, eigenvalues=E.eigenvalues - c) for E in (EA, EAB))
    t_abs = 0.5 * (hi - lo) + T_PAD_FRAC * _hull_width(lo, hi)
    # Nyquist guard: t_k = c + k dt, -h <= k < h, must cover c +- t_abs, at 2 points or more
    h = params.num_s // 2
    dt = math.pi / params.s_max
    # compared as floats first: a t-step far below the hull's width puts
    # t_abs / dt past any integer math.floor can take
    if t_abs / dt >= h:
        raise ParameterError(
            "conjugate grid does not cover the padded hull; increase num_s"
        )
    k_hi = math.floor(t_abs / dt)
    if k_hi < 1:
        raise ParameterError(
            f"t-step pi/s_max = {dt:.3g} leaves fewer than 2 points in the padded hull "
            f"[{c - t_abs:.3g}, {c + t_abs:.3g}]; increase s_max"
        )

    # etahat at the offsets 0..h; the last, at s = s_max, is 0 by the taper
    ds = params.ds
    etahat = np.empty(h + 1, dtype=complex)
    etahat[h] = 0.0
    _remainder_trace_exponential(EA, EAB, B, n, ds, 2, h, step, etahat[2:h])

    # anchor: zeroth moment of eta_n equals trace(B^n)/n!; the fit reads the
    # quotient F / (is)^n on its band before the taper, and regresses on the
    # offsets u = s / ds, so that its columns are of one size at any ds
    eta0 = float(np.trace(np.linalg.matrix_power(B, n)).real) / math.factorial(n)
    u = np.arange(2.0, min(h, 3 + FIT_BAND_WIDTHS))
    ef = etahat[2:2 + len(u)] / (ds * u) ** n * (-1j) ** n
    cr, *_ = np.linalg.lstsq(np.stack([u ** 2, u ** 4], axis=1), ef.real - eta0, rcond=None)
    ci, *_ = np.linalg.lstsq(np.stack([u, u ** 3], axis=1), ef.imag, rcond=None)
    # the fit at u = 0 and u = 1
    etahat[0] = eta0
    etahat[1] = eta0 + cr[0] + cr[1] + 1j * (ci[0] + ci[1])

    _divide_and_taper(etahat, n, ds, params.s_max)
    # the quadrature weight ds and 1/(2 pi), in place
    etahat *= ds
    etahat /= 2.0 * np.pi
    # eta(c + k dt) = sum_j exp(-i s_j k dt) g_j with g = etahat w ds / (2 pi); over the
    # offsets j mod num_s this is a DFT, and no shift back is needed
    eta = _band_dft(etahat, -k_hi, 2 * k_hi + 1)
    del etahat  # nor is the half-grid held through what follows
    t_grid = c + dt * np.arange(-k_hi, k_hi + 1)

    imag_l1 = float(np.trapezoid(np.abs(eta.imag), t_grid))
    grid = SSFGrid(
        order=n,
        t_grid=t_grid,
        values=eta.real.copy(),
        support=(lo - dt, hi + dt),
        method="fourier",
        imag_residue=imag_l1,
        params=asdict(params),
        seed=None if seed is None else int(seed),
    )
    if imag_l1 > 1e-6 * grid.l1_norm:
        raise InversionQualityError(f"imaginary residue {imag_l1:.3e} exceeds 1e-6 "
                                    f"of the L1 mass {grid.l1_norm:.3e}")
    return grid


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
    from .families import monomial
    from .taylor import taylor_remainder

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
    from .moi import DiagonalRestrictedSymbol, dd_symbol, moi_projection_sum, moi_trace

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


# ---------------------------------------------------------------------------
# Serialization: CSV of (t, value) plus a JSON sidecar of metadata
# ---------------------------------------------------------------------------


def save_ssf(ssf: SSFGrid, csv_path, sidecar_path) -> None:
    lines = ["t,value"]
    for t, v in zip(ssf.t_grid, ssf.values):
        lines.append(f"{float(t)!r},{float(v)!r}")
    Path(csv_path).write_text("\n".join(lines) + "\n")
    meta = {
        "n": ssf.order,
        "method": ssf.method,
        "support": [ssf.support[0], ssf.support[1]],
        "l1_norm": ssf.l1_norm,
        "params": ssf.params,
        "seed": ssf.seed,
    }
    Path(sidecar_path).write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")


def load_ssf(csv_path, sidecar_path) -> SSFGrid:
    """Read a grid written by :func:`save_ssf`; a CSV with no samples, a row
    that is not two numbers, or a sidecar that is not a JSON object raises
    ParameterError."""
    samples = []
    for lineno, row in enumerate(Path(csv_path).read_text().strip().splitlines()[1:], start=2):
        try:
            t, v = row.split(",")
            samples.append((float(t), float(v)))
        except ValueError:
            raise ParameterError(f"{csv_path}: line {lineno}: expected 't,value', "
                                 f"two numbers, got {row!r}") from None
    if not samples:
        raise ParameterError(f"{csv_path}: no samples after the header on line 1")
    t, v = np.array(samples).T.copy()
    try:
        meta = json.loads(Path(sidecar_path).read_text())
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{sidecar_path}: not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ParameterError(f"{sidecar_path}: expected a JSON object, "
                             f"got a {type(meta).__name__}")
    return SSFGrid(
        order=int(meta.get("n", 0)),
        t_grid=t,
        values=v,
        support=tuple(meta.get("support", (float(t[0]), float(t[-1])))),
        method=meta.get("method", "unknown"),
        params=meta.get("params"),
        seed=meta.get("seed"),
    )
