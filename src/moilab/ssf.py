"""Spectral shift functions and trace-formula verification.

Order 1 uses the exact counting form: eta_1(t) counts eigenvalues of A + B
above t minus eigenvalues of A above t, a piecewise-constant function whose
pairing with f' telescopes exactly over breakpoint intervals.

Higher orders are recovered by Fourier duality.  Pairing the order-n
remainder trace with the bounded exponentials f_s(x) = exp(isx) gives

    F(s) = trace(remainder_n(f_s, A, B)) = (is)^n * etahat_n(s),

so etahat_n = F(s) / (is)^n away from s = 0; F comes from the chunked
reduced-arity sweep of :func:`_remainder_trace_exponential` over the s >= 0
half of a periodic power-of-two s-grid, since etahat_n(-s) = conj etahat_n(s).
Each chunk builds the rows exp(isx) of the distinct eigenvalues x from one
table of about 2 sqrt(m) exponentials per row (:func:`_exp_table`); the
order-0 terms are weights on those rows, and the higher divided-difference
tables are gathered from them.  The quotient is filled across a small
exclusion zone around 0 by an even/odd polynomial fit anchored at the exact
zeroth moment etahat_n(0) = trace(B^n)/n!, tapered at the ends of the
s-window and weighted in place.  The inverse DFT is taken only at the band of
t-points that cover the padded spectral hull (:func:`_band_dft`), from FFTs
of strided columns of the half-grid.  The imaginary part of the inversion is
diagnostic residue: it is reported, checked against a threshold, and
discarded.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    InversionQualityError,
    ParameterError,
)
from .families import FunctionFamily, divided_difference_rows, monomial
from .moi import (
    _CHUNK_ENTRIES,
    _sorted_distinct,
    DiagonalRestrictedSymbol,
    MOIOperands,
    dd_symbol,
    moi_projection_sum,
    moi_trace,
    projection_trace_weights,
)
from .spectral import EigenSystem, eig_hermitian, require_hermitian, schatten_norm, trace
from .taylor import taylor_remainder

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
    """A sampled spectral shift density on a uniform real grid."""

    order: int
    t_grid: np.ndarray
    values: np.ndarray
    support: Tuple[float, float]
    method: str                      # "counting" | "fourier"
    l1_norm: float
    breakpoints: Optional[np.ndarray] = None
    imag_residue: float = 0.0
    params: Optional[dict] = None
    seed: Optional[int] = None

    @property
    def dt(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])

    def quadrature(self, samples: np.ndarray) -> float:
        """Trapezoid integral of samples * values over the grid."""
        return float(np.trapezoid(np.asarray(samples) * self.values, self.t_grid).real)

    def moment(self, k: int) -> float:
        return self.quadrature(self.t_grid ** k)


def _spectra_hull(EA, EAB) -> Tuple[float, float]:
    lo = min(EA.eigenvalues[0], EAB.eigenvalues[0])
    hi = max(EA.eigenvalues[-1], EAB.eigenvalues[-1])
    return float(lo), float(hi)


def krein_ssf(A, B) -> SSFGrid:
    """First-order shift function by exact eigenvalue counting, on 2001 points."""
    A = require_hermitian(A)
    B = require_hermitian(B)
    if A.shape != B.shape:
        raise DimensionMismatchError("A and B must share a dimension")
    lam = eig_hermitian(A).eigenvalues
    mu = eig_hermitian(A + B).eigenvalues
    lo = float(min(lam[0], mu[0]))
    hi = float(max(lam[-1], mu[-1]))
    span = max(hi - lo, 1.0)
    pad = T_PAD_FRAC * span
    t = np.linspace(lo - pad, hi + pad, 2001)
    values = (
        (mu[None, :] > t[:, None]).sum(axis=1)
        - (lam[None, :] > t[:, None]).sum(axis=1)
    ).astype(float)
    breakpoints = np.sort(np.concatenate([lam, mu]))
    dt = t[1] - t[0]
    return SSFGrid(
        order=1,
        t_grid=t,
        values=values,
        support=(lo - dt, hi + dt),
        method="counting",
        l1_norm=float(np.trapezoid(np.abs(values), t)),
        breakpoints=breakpoints,
        params={"spectrum_base": lam.tolist(), "spectrum_perturbed": mu.tolist()},
    )


def counting_pairing(ssf: SSFGrid, f: FunctionFamily) -> float:
    """Exact pairing integral of f' against a counting-form shift function.

    The density is constant between breakpoints, so the integral telescopes
    through the antiderivative of f', which is f itself.
    """
    if ssf.method != "counting" or ssf.breakpoints is None or not ssf.params:
        raise ParameterError("breakpoint pairing needs a counting-form grid")
    lam = np.asarray(ssf.params["spectrum_base"])
    mu = np.asarray(ssf.params["spectrum_perturbed"])
    bp = ssf.breakpoints
    total = 0.0
    for left, right in zip(bp[:-1], bp[1:]):
        if right <= left:
            continue
        mid = 0.5 * (left + right)
        val = float(np.count_nonzero(mu > mid) - np.count_nonzero(lam > mid))
        if val != 0.0:
            total += val * float(np.real(f.eval(0, right) - f.eval(0, left)))
    return total


# Largest s-grid a FourierParams may ask for; FourierParams.auto sizes up to it.
MAX_NUM_S = 1 << 18
T_PAD_FRAC = 0.2     # padding of the t-grid past the spectral hull, times max(span, 1)
TAPER_FRAC = 0.5     # outer fraction of [-s_max, s_max] where the cosine taper falls to 0
FIT_BAND_WIDTHS = 6  # steps ds past the exclusion zone that the small-s fit uses
_BAND_BLOCK_ENTRIES = 1 << 16  # complex entries of one block of columns in _band_dft


@dataclass
class FourierParams:
    """Dual-grid parameters of the Fourier recovery: the s-window [-s_max, s_max]
    and its number of steps num_s.  The s-grid is periodic, s_k = k ds for the
    integer offsets -num_s/2 <= k < num_s/2 with ds = 2 s_max / num_s; the
    exclusion zone |s| < 2 ds is the offsets |k| <= 1, and the density is
    sampled at t-step pi / s_max."""

    s_max: float
    num_s: int

    def __post_init__(self):
        if self.num_s % 2:
            raise ParameterError("num_s must be even")
        if self.num_s > MAX_NUM_S:
            raise ParameterError(f"num_s = {self.num_s} exceeds the cap {MAX_NUM_S}")
        if self.s_max <= 0:
            raise ParameterError("s_max must be positive")
        if self.num_s <= 4:
            raise ParameterError("num_s must exceed 4, so that the exclusion 2 ds < s_max")

    @property
    def ds(self) -> float:
        return 2.0 * self.s_max / self.num_s

    @property
    def s_min_exclusion(self) -> float:
        return 2.0 * self.ds

    @classmethod
    def auto(cls, A, B, n: int) -> "FourierParams":
        """Order-aware defaults sized from the joint spectral hull.

        Order 1 targets must resolve unit jumps of the counting function, so
        the window is large; the exponential pairing there is a closed form
        and stays cheap.  Higher orders have much smaller jumps and get a
        moderate window.  num_s keeps the spacing fine against the slowest
        eta-hat oscillation, capped to bound the FFT size.
        """
        EA = eig_hermitian(require_hermitian(A))
        EAB = eig_hermitian(require_hermitian(np.asarray(A) + np.asarray(B)))
        lo, hi = _spectra_hull(EA, EAB)
        span = max(hi - lo, 1e-6)
        s_max = (24000.0 if n == 1 else 600.0) / span
        pad = T_PAD_FRAC * max(span, 1.0)
        t_abs = max(abs(lo - pad), abs(hi + pad), 1e-3)
        target = 6.7 * s_max * t_abs
        num_s = 1 << int(math.ceil(math.log2(min(max(target, 16384.0), MAX_NUM_S))))
        return cls(s_max=s_max, num_s=num_s)


def _exp_table(x: np.ndarray, s: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """Rows exp(i s_j x) for the nodes x over a chunk s of an arithmetic grid
    of step h, written into the flat buffer out and returned as an (len(x),
    len(s)) view of it.

    With b = ceil(sqrt(m)) for the m points of the chunk, the entry at
    s_j = s_a + r h + delta (s_a every b-th point of the chunk, r < b, delta
    the grid's own rounding) is

        exp(i s_a x) * exp(i r h x) * (1 + i phi),   phi = s_j x - s_a x - r h x,

    each product rounded as a direct exp(i s_j x) would round it.  So only
    len(x) (m/b + b) exponentials are taken, phi is a few ulps of s_j x, and
    the neglected phi^2 / 2 is far below eps.
    """
    m = len(s)
    b = math.isqrt(m - 1) + 1
    q = -(-m // b)
    grid = np.empty(q * b)
    grid[:m] = s
    grid[m:] = s[-1]
    grid = grid.reshape(q, b)
    base = np.multiply.outer(x, grid[:, 0])
    steps = np.multiply.outer(x, h * np.arange(b))
    table = out[:len(x) * q * b].reshape(len(x), q, b)
    np.multiply(np.exp(1j * base)[:, :, None], np.exp(1j * steps)[:, None, :], out=table)
    # one row at a time, so that no second table-sized array is made
    for row, xi, row_base, row_steps in zip(table, x, base, steps):
        phi = xi * grid
        phi -= row_base[:, None]
        phi -= row_steps
        row *= 1.0 + 1j * phi
    return table.reshape(len(x), q * b)[:, :m]


def _remainder_trace_exponential(
    EA: EigenSystem, EAB: EigenSystem, B: np.ndarray, n: int, s: np.ndarray, step: int,
    out: np.ndarray,
) -> np.ndarray:
    """F(s) = trace R_n(f_s), f_s(x) = exp(isx), by the reduced-arity route.

    The trace of each Taylor term of R_n drops one slot through the wrap-around
    of the trace, tr D^k f(A)[B^k] = tr(D^{k-1} f'(A)[B^{k-1}] B), and
    f_s' = is f_s, so with the trace weights W_k = tr(P_{i_0} B ... P_{i_{k-1}} B)

        F(s) = sum e^{is mu} - sum e^{is lambda}
               - sum_{k<n} (is/k) sum f_s^{[k-1]}(lambda_{i_0..i_{k-1}}) W_k.

    O(d^{n-1}) work per s-point, in chunks of ``step`` s-points, written into
    out (complex, len(s)), which is returned.  s must be an arithmetic grid
    (a ParameterError otherwise), such as the offsets k >= 2 of the periodic
    grid :func:`higher_ssf_fourier` inverts.

    Every node of every term is an eigenvalue of A or of A + B, so each chunk
    takes the rows exp(isx) of the at most 2d distinct nodes from one table
    (:func:`_exp_table`): a direct exp at every b-th point, times exp(irhx)
    for r < b, times 1 + i phi for the rounding.  The terms k = 0
    and k = 1 need nothing but these rows, so their weights are summed per
    node once and F starts as w_0 @ E - is (w_1 @ E).  The terms k >= 2 take
    their divided-difference tables (:func:`divided_difference_rows`, M = 16,
    scale 1/s) from the same rows: the Taylor series where the nodes span
    less than eps^(1/17)/s, so an order-k value is good to about
    (eps + eps^(1-k/17)) s^k/k! at any eigenvalue gap.

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
    s = np.asarray(s, dtype=float)
    m = len(s)
    h = (s[-1] - s[0]) / (m - 1) if m > 1 else 0.0
    # a linspace is within a few eps max|s| of arithmetic
    off = np.abs(s - (s[0] + h * np.arange(m))).max() if m > 2 else 0.0
    if off > 16 * np.finfo(float).eps * np.abs(s).max():
        raise ParameterError("the exponential sweep needs an arithmetic s-grid")
    nodes = _sorted_distinct(np.concatenate([EA.eigenvalues, EAB.eigenvalues]))
    # the k = 0 and k = 1 terms as weights on the nodes
    w01 = np.zeros((2, len(nodes)), dtype=complex)
    np.add.at(w01[0], np.searchsorted(nodes, EAB.eigenvalues), 1.0)
    np.add.at(w01[0], np.searchsorted(nodes, EA.eigenvalues), -1.0)
    terms = []
    for k in range(1, n):
        reps, W = projection_trace_weights(MOIOperands([EA] * k, [B] * (k - 1)), closing=B)
        if k == 1:
            np.add.at(w01[1], np.searchsorted(nodes, reps[0]), W)
            continue
        rows = np.stack(np.meshgrid(*reps, indexing="ij"), axis=-1).reshape(-1, k)
        terms.append((k, rows, W.ravel()))
    width = min(step, m)
    buf = np.empty(len(nodes) * (width + math.isqrt(width) + 1), dtype=complex)
    for lo in range(0, m, step):
        sc = s[lo:lo + step]
        E = _exp_table(nodes, sc, h, buf)

        def phase(j, x, cols=slice(None)):
            # (is)^j exp(isx) for the s of the chunk (those in cols), as a
            # trailing s axis, gathered from the rows of the nodes, x among
            # them, and scaled in place.  (is)^j has an exact zero part, so
            # each product is one rounding in any order.
            e = E[:, cols][np.searchsorted(nodes, x)]
            e *= (1j * sc[cols]) ** j
            return e

        # exp(isx) has every derivative; 16 put tau at eps^(1/17)/s = 0.12/s,
        # where neither the series nor a quotient loses more than rounding
        f_s = FunctionFamily("fourier_grid", max(n - 2, 16), phase, bounded_deriv={},
                             vanishes_at_inf={}, real_valued=False, scale=1.0 / sc)
        w0, w1 = w01 @ E
        F = out[lo:lo + step]
        np.subtract(w0, 1j * sc * w1, out=F)
        for k, rows, w in terms:
            F -= 1j * sc / k * (w @ divided_difference_rows(f_s, rows))
    return out


def _band_dft(g: np.ndarray, k_lo: int, K: int) -> np.ndarray:
    """X_k = sum_m u_m exp(-2 pi i m k / N) for the K indices k_lo <= k < k_lo + K,
    where u is the conjugate-symmetric vector of length N = 2h held by its half
    g of h + 1 values: u_m = g_m for m <= h, g_h = 0, and u_{N-m} = conj(g_m).

    With N = P L, P the largest divisor of h for which L >= K, the K indices
    fall in distinct residues mod L, and

        X_k = sum_{b<P} exp(-2 pi i b k / N) FFT_L(u[b::P])[k mod L].

    Column b of u is g[b::P] followed by the conjugate of g[h-b::-P] (g_h
    first), two strided views of g; the columns are transformed a block at a
    time, so no array is as long as u but the P = 1 column, which is all of u.
    """
    h = len(g) - 1
    N = 2 * h
    P = max(p for p in range(1, min(h, N // K) + 1) if h % p == 0)
    L = N // P
    top = g[:h].reshape(L // 2, P)      # u at a P + b, a < L/2
    bot = g[h:0:-1].reshape(L // 2, P)  # conj u at (a + L/2) P + b
    j = np.arange(K)
    rows = (k_lo + j) % L
    X = np.zeros(K, dtype=complex)
    width = max(1, _BAND_BLOCK_ENTRIES // L)
    for b0 in range(0, P, width):
        b = np.arange(b0, min(b0 + width, P))
        cols = np.empty((len(b), L), dtype=complex)
        cols[:, :L // 2] = top[:, b0:b0 + width].T
        np.conjugate(bot[:, b0:b0 + width].T, out=cols[:, L // 2:])
        np.fft.fft(cols, axis=1, out=cols)
        # b (k_lo + j) = (b k_lo mod N) + b j with b j < P K <= N, so every
        # angle is below 4 pi and exact in its integers
        angle = np.multiply.outer(b, j) + (b * k_lo % N)[:, None]
        angle = angle * (-2.0 * np.pi / N)
        X += np.einsum("bk,bk->k", cols[:, rows], np.cos(angle) + 1j * np.sin(angle))
    return X


def higher_ssf_fourier(
    A, B, n: int, params: Optional[FourierParams] = None, seed: Optional[int] = None
) -> SSFGrid:
    """Order-n shift density recovered from the exponential pairing.

    F(s) = tr R_n(e^{is.}) uses the eigenvalues of A and A + B as computed,
    close ones included: divided differences of e^{isx} take the Taylor series
    below the span tau = eps^(1/17)/s, quotients above it, so F is good to a
    few eps times d (1 + s ||B||)^(n-1) against a block-triangular expm.

    The s-grid is periodic: s_k = k ds for the integer offsets -h <= k < h,
    h = num_s / 2, ds = 2 s_max / num_s.  Only s >= 0 is held, since
    etahat(-s) = conj etahat(s); the taper is exactly 0 at s = +-s_max, so
    leaving out s = +s_max changes nothing.  F is swept at k >= 2 and
    divided by (is)^n there; the exclusion zone |k| <= 1 (|s| < 2 ds) is
    filled by the fit over 2 <= k <= 2 + FIT_BAND_WIDTHS.  The density is
    sampled at t_k = k pi / s_max, and only at the k whose t_k lie in the
    padded hull (:func:`_band_dft`).
    """
    if n < 1:
        raise ParameterError("order must be >= 1")
    A = require_hermitian(A)
    B = require_hermitian(B)
    # complex entries per s-point in the sweep's largest table
    per_s = max(2 * len(A), (n - 1) * len(A) ** (n - 1))
    if per_s > _CHUNK_ENTRIES:
        raise ParameterError(f"order {n} at dimension {len(A)} needs {per_s} entries "
                             f"per s-point, more than the {_CHUNK_ENTRIES} of one chunk")
    if params is None:
        params = FourierParams.auto(A, B, n)
    EA = eig_hermitian(A)
    EAB = eig_hermitian(A + B)
    lo, hi = _spectra_hull(EA, EAB)
    span = max(hi - lo, 1e-6)
    pad = T_PAD_FRAC * max(span, 1.0)
    t_lo, t_hi = lo - pad, hi + pad
    # Nyquist guard: the conjugate grid t_k = k dt, -h <= k < h, must cover the
    # padded hull, with at least two points in it
    h = params.num_s // 2
    dt = np.pi / params.s_max
    k_lo, k_hi = math.ceil(t_lo / dt), math.floor(t_hi / dt)
    if k_lo < -h or k_hi >= h:
        raise ParameterError(
            "conjugate grid does not cover the padded hull; increase num_s"
        )
    if k_hi - k_lo < 1:
        raise ParameterError(
            f"t-step pi/s_max = {dt:.3g} leaves fewer than 2 points in the padded hull "
            f"[{t_lo:.3g}, {t_hi:.3g}]; increase s_max"
        )

    # etahat at the offsets 0..h; the last, at s = s_max, is 0 by the taper
    ds = params.ds
    etahat = np.empty(h + 1, dtype=complex)
    etahat[h] = 0.0
    s = ds * np.arange(2, h)
    swept = etahat[2:h]
    _remainder_trace_exponential(EA, EAB, B, n, s, _CHUNK_ENTRIES // per_s, swept)
    swept /= s ** n
    swept *= (-1j) ** n

    # anchor: zeroth moment of eta_n equals trace(B^n)/n!
    eta0 = float(np.trace(np.linalg.matrix_power(B, n)).real) / math.factorial(n)
    sf = s[:FIT_BAND_WIDTHS + 1]
    ef = swept[:FIT_BAND_WIDTHS + 1]
    cr, *_ = np.linalg.lstsq(np.stack([sf ** 2, sf ** 4], axis=1), ef.real - eta0, rcond=None)
    ci, *_ = np.linalg.lstsq(np.stack([sf, sf ** 3], axis=1), ef.imag, rcond=None)
    sq = ds * np.arange(2)
    etahat[:2] = (eta0 + cr[0] * sq ** 2 + cr[1] * sq ** 4) + 1j * (
        ci[0] * sq + ci[1] * sq ** 3
    )

    # the cosine taper w, which is 1 but on the outer TAPER_FRAC of the window
    cut = (1.0 - TAPER_FRAC) * params.s_max
    past = int(np.searchsorted(s, cut, "right"))
    swept[past:] *= 0.5 * (1.0 + np.cos(np.pi * (s[past:] - cut) / (params.s_max - cut)))
    # the quadrature weight ds and 1/(2 pi), in place
    etahat *= ds
    etahat /= 2.0 * np.pi
    # eta(t_k) = sum_j exp(-i s_j t_k) g_j with g = etahat w ds / (2 pi); over the
    # offsets j mod num_s this is a DFT, and no shift back is needed
    eta = _band_dft(etahat, k_lo, k_hi - k_lo + 1)
    t_grid = dt * np.arange(k_lo, k_hi + 1)

    real = eta.real.copy()
    l1 = float(np.trapezoid(np.abs(real), t_grid))
    imag_l1 = float(np.trapezoid(np.abs(eta.imag), t_grid))
    if imag_l1 > 1e-6 * max(l1, 1e-12):
        raise InversionQualityError(
            f"imaginary residue {imag_l1:.3e} exceeds 1e-6 of the L1 mass {l1:.3e}"
        )
    dtg = float(t_grid[1] - t_grid[0])
    return SSFGrid(
        order=n,
        t_grid=t_grid,
        values=real,
        support=(lo - dtg, hi + dtg),
        method="fourier",
        l1_norm=l1,
        imag_residue=imag_l1,
        params=asdict(params),
        seed=seed,
    )


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
    A = require_hermitian(A)
    B = require_hermitian(B)
    report = TraceFormulaReport()
    for f in test_functions:
        if f.max_order < n:
            raise ParameterError(f"test family {f.family_id!r} lacks order {n}")
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
        raise ParameterError(f"family {f.family_id!r} lacks order {n}")
    A = require_hermitian(A)
    B = require_hermitian(B)
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


def ssf_l1_report(A, B, n: int, ssf: SSFGrid) -> dict:
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
    rows = Path(csv_path).read_text().strip().splitlines()[1:]
    t = np.array([float(r.split(",")[0]) for r in rows])
    v = np.array([float(r.split(",")[1]) for r in rows])
    meta = json.loads(Path(sidecar_path).read_text())
    return SSFGrid(
        order=int(meta.get("n", 0)),
        t_grid=t,
        values=v,
        support=tuple(meta.get("support", (float(t[0]), float(t[-1])))),
        method=meta.get("method", "unknown"),
        l1_norm=float(meta.get("l1_norm", np.trapezoid(np.abs(v), t))),
        params=meta.get("params"),
        seed=meta.get("seed"),
    )
