"""Spectral shift functions and trace-formula verification.

Order 1 uses the exact counting form: eta_1(t) counts eigenvalues of A + B
above t minus eigenvalues of A above t, a piecewise-constant function whose
pairing with f' telescopes exactly over breakpoint intervals.

Higher orders are recovered by Fourier duality.  Pairing the order-n
remainder trace with the bounded exponentials f_s(x) = exp(isx) gives

    F(s) = trace(remainder_n(f_s, A, B)) = (is)^n * etahat_n(s),

so etahat_n = F(s) / (is)^n away from s = 0; F comes from the chunked
reduced-arity sweep of :func:`_remainder_trace_exponential`, which computes
exp(isx) once per distinct eigenvalue x and s-point and gathers its
divided-difference tables from those rows.  The quotient is
filled across a small exclusion zone around 0 by an even/odd polynomial fit
anchored at the exact zeroth moment etahat_n(0) = trace(B^n)/n!, tapered at
the ends of the s-window, and inverted on the conjugate FFT grid.  The
imaginary part of the inversion is diagnostic residue: it is reported,
checked against a threshold, and discarded.
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


@dataclass
class FourierParams:
    """Dual-grid parameters of the Fourier recovery: the s-window [-s_max, s_max]
    and its number of steps.  The exclusion zone |s| < 2 ds follows from them."""

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


def _remainder_trace_exponential(
    EA: EigenSystem, EAB: EigenSystem, B: np.ndarray, n: int, s: np.ndarray, step: int
) -> np.ndarray:
    """F(s) = trace R_n(f_s), f_s(x) = exp(isx), by the reduced-arity route.

    The trace of each Taylor term of R_n drops one slot through the wrap-around
    of the trace, tr D^k f(A)[B^k] = tr(D^{k-1} f'(A)[B^{k-1}] B), and
    f_s' = is f_s, so with the trace weights W_k = tr(P_{i_0} B ... P_{i_{k-1}} B)

        F(s) = sum e^{is mu} - sum e^{is lambda}
               - sum_{k<n} (is/k) sum f_s^{[k-1]}(lambda_{i_0..i_{k-1}}) W_k.

    O(d^{n-1}) work per s-point, in chunks of ``step`` s-points.  The table
    of f_s (:func:`divided_difference_rows`, M = 16, scale 1/s) takes the
    Taylor series where its nodes span less than eps^(1/17)/s, so an order-k
    value is good to about (eps + eps^(1-k/17)) s^k/k! at any eigenvalue gap.

    The tables hold 2d + sum_{k<n} k d^k nodes per s-point (90 at n = 3,
    d = 6) but at most 2d distinct ones, the eigenvalues of A and of A + B,
    and evaluate f_s only there.  So each chunk computes exp(isx) once per
    distinct node and gathers from those rows, bit for bit a direct exp.

    Near s = 0 the rounding of the O(d) terms (eigenvalues of A + B included)
    is divided by s^n, so etahat loses accuracy as (s ||B||)^{-n}: 7e-10 at
    n = 3, d = 16 on the first s past the exclusion zone, 2e-14 at s ||B|| = 1.
    """
    terms = [(0, np.concatenate([EAB.eigenvalues, EA.eigenvalues])[:, None],
              np.repeat([1.0, -1.0], [EAB.dim, EA.dim]))]
    for k in range(1, n):
        reps, W = projection_trace_weights(MOIOperands([EA] * k, [B] * (k - 1)), closing=B)
        rows = np.stack(np.meshgrid(*reps, indexing="ij"), axis=-1).reshape(-1, k)
        terms.append((k, rows, W.ravel()))
    # the distinct nodes of all tables
    nodes = np.unique(np.concatenate([rows.ravel() for _, rows, _ in terms]))
    out = np.empty(len(s), dtype=complex)
    for lo in range(0, len(s), step):
        sc = s[lo:lo + step]
        e_nodes = np.exp(1j * np.multiply.outer(nodes, sc))

        def phase(j, x):
            # (is)^j exp(isx) for every s of the chunk, as a trailing s axis,
            # gathered from the exp rows of the nodes, x among them, and scaled
            # in place.  (is)^j has an exact zero part, so each product is one
            # rounding in any order.
            e = e_nodes[np.searchsorted(nodes, x)]
            e *= (1j * sc) ** j
            return e

        # exp(isx) has every derivative; 16 put tau at eps^(1/17)/s = 0.12/s,
        # where neither the series nor a quotient loses more than rounding
        f_s = FunctionFamily("fourier_grid", max(n - 2, 16), phase, bounded_deriv={},
                             vanishes_at_inf={}, real_valued=False, scale=1.0 / sc)
        out[lo:lo + step] = sum(
            (1.0 if k == 0 else -1j * sc / k) * (w @ divided_difference_rows(f_s, rows))
            for k, rows, w in terms
        )
    return out


def higher_ssf_fourier(
    A, B, n: int, params: Optional[FourierParams] = None, seed: Optional[int] = None
) -> SSFGrid:
    """Order-n shift density recovered from the exponential pairing.

    F(s) = tr R_n(e^{is.}) uses the eigenvalues of A and A + B as computed,
    close ones included: divided differences of e^{isx} take the Taylor series
    below the span tau = eps^(1/17)/s, quotients above it, so F is good to a
    few eps times d (1 + s ||B||)^(n-1) against a block-triangular expm.
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
    # Nyquist guard: the conjugate grid step is pi/s_max, which must resolve
    # the padded hull
    t_lo, t_hi = lo - pad, hi + pad

    N = params.num_s + 1
    ds = params.ds
    s = np.linspace(-params.s_max, params.s_max, N)
    pos = s > 0
    s_pos = s[pos]

    F_pos = _remainder_trace_exponential(EA, EAB, B, n, s_pos, _CHUNK_ENTRIES // per_s)
    etahat = np.zeros(N, dtype=complex)
    etahat[pos] = F_pos / (1j * s_pos) ** n
    etahat[s < 0] = np.conj(etahat[pos][::-1])

    # anchor: zeroth moment of eta_n equals trace(B^n)/n!
    eta0 = float(np.trace(np.linalg.matrix_power(B, n)).real) / math.factorial(n)
    excl = params.s_min_exclusion
    fill = np.abs(s) < excl
    band = (np.abs(s) >= excl) & (np.abs(s) <= excl + FIT_BAND_WIDTHS * ds)
    sf = s[band]
    ef = etahat[band]
    cr, *_ = np.linalg.lstsq(np.stack([sf ** 2, sf ** 4], axis=1), ef.real - eta0, rcond=None)
    ci, *_ = np.linalg.lstsq(np.stack([sf, sf ** 3], axis=1), ef.imag, rcond=None)
    sq = s[fill]
    etahat[fill] = (eta0 + cr[0] * sq ** 2 + cr[1] * sq ** 4) + 1j * (
        ci[0] * sq + ci[1] * sq ** 3
    )

    w = np.ones(N)
    cut = (1.0 - TAPER_FRAC) * params.s_max
    mask = np.abs(s) > cut
    w[mask] = 0.5 * (1.0 + np.cos(np.pi * (np.abs(s[mask]) - cut) / (params.s_max - cut)))
    wt = np.full(N, ds)
    wt[0] *= 0.5
    wt[-1] *= 0.5

    g = etahat * w * wt / (2.0 * np.pi)
    # eta(t_k) = sum_j exp(-i s_j t_k) g_j on the conjugate grid t_k = k dt
    spectrum = np.fft.fft(g)
    dt = 2.0 * np.pi / (N * ds)
    # fftshift puts the FFT frequencies in ascending order
    order_idx = np.fft.fftshift(np.arange(N))
    t_full = np.fft.fftfreq(N, d=1.0 / N)[order_idx] * dt
    if t_lo < t_full[0] or t_hi > t_full[-1]:
        raise ParameterError(
            "conjugate grid does not cover the padded hull; increase num_s"
        )
    keep = (t_full >= t_lo) & (t_full <= t_hi)
    t_grid = t_full[keep]
    # the shift back from the grid's start s = -s_max, on the kept points only
    eta = spectrum[order_idx[keep]] * np.exp(1j * params.s_max * t_grid)

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
