"""Experiment orchestration: seeded ensembles, check suites, reports.

Every ensemble is a pure function of the 64-bit config seed through the
SplitMix64 generator (see :mod:`moilab.rng`), and every check is a pure
function of the ensemble, so a (config, code) pair pins the report bytes
except for the wall-time field.  The check groups run one after another in
report order.  With an output directory, :func:`run_suite` also writes each
group's wall time and the process's peak RSS after it to a timings sidecar,
which stays out of the report so that the report bytes stay pinned.
"""

from __future__ import annotations

import itertools
import json
import math
import resource
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import matrix_io
from .errors import ConfigError, MoiLabError
from .families import bump, divided_difference, exponential, gaussian, runge
from .moi import (
    MOIOperands,
    dd_symbol,
    exponential_symbol,
    moi_discretized,
    moi_factorized,
    moi_norm_report,
    moi_projection_sum,
    operands,
)
from .rng import SplitMix64, _hermitian_from, _is_int, check_draw, gue_like_pair
from .spectral import apply_function, eig_hermitian, trace
from .ssf import _counting, counting_pairing, higher_ssf_fourier, krein_ssf
from .taylor import (
    _counterexample_csv,
    _heavy_tail_diagonal,
    diagonal_symbol_trace,
    finite_difference_oracle,
    gateaux_derivative,
    lp_counterexample_demo,
    perturbation_first_order,
    perturbation_higher_order,
    relative_deviation,
    remainder_two_path,
    ssf_l1_report,
    telescoping_check,
    verify_trace_formula,
)

__all__ = [
    "ExperimentConfig",
    "CheckRecord",
    "Report",
    "generate_ensemble",
    "run_suite",
    "SUITES",
    "DEFAULT_TOLERANCES",
]

DEFAULT_TOLERANCES: Dict[str, float] = {
    "derivative_vs_fd": 1e-5,
    "fd_slope_halfwidth": 0.3,      # window 2.0 +/- 0.3
    "remainder_two_path": 1e-8,
    "perturbation_first": 1e-9,
    "perturbation_higher": 1e-8,
    "telescoping": 1e-8,
    "moi_brute_force": 1e-10,
    "moi_factorized": 1e-9,
    "moi_multilinear": 1e-10,
    "moi_hermitian": 1e-10,
    "discretized_ratio": 0.75,
    "discretized_aligned": 1e-8,
    "krein_pairing": 1e-10,
    "fourier_vs_counting_l1": 1e-2,
    "eta2_scalar_l1": 1e-2,
    "heldout_rel": 1e-3,
    "moment_rel": 1e-3,
    "chain_rel": 1e-9,
    "chain_pairing": 1e-3,
    "counterexample_margin": 1e-12,  # heavy ratios must clear 1.2
    "control_window": 0.05,
}

_ENSEMBLES = ("gue_like", "diagonal_heavy_tail", "fixed_matrix_file")

# The heavy-tail model's L_p exponent (ensemble and counterexample group) and
# the counterexample group's dimensions
_HEAVY_TAIL_P = 2.0
_COUNTEREXAMPLE_DIMS = (16, 64, 256, 1024, 4096)


@dataclass
class ExperimentConfig:
    seed: int
    dimension: int = 4
    order: int = 2
    ensemble: str = "gue_like"
    matrix_a: Optional[str] = None
    matrix_b: Optional[str] = None
    out_dir: Optional[str] = None

    def __post_init__(self):
        if self.seed is None:
            raise ConfigError("seed is required; there is no entropy default")
        check_draw(self.seed, self.dimension)
        self.seed = int(self.seed)
        if not (_is_int(self.order) and self.order >= 1):
            raise ConfigError(f"order must be an integer >= 1, got {self.order!r}")
        if self.ensemble not in _ENSEMBLES:
            raise ConfigError(f"unknown ensemble {self.ensemble!r}; known: {_ENSEMBLES}")
        for name in ("matrix_a", "matrix_b", "out_dir"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name} must be a path string, got {getattr(self, name)!r}")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except ValueError as exc:  # an integer literal past Python's digit limit
            raise ConfigError(f"{path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: the config must be a JSON object, got {raw!r}")
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "seed" not in raw:
            raise ConfigError("config must declare a seed")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def echo(self) -> dict:
        return asdict(self)


def generate_ensemble(config: ExperimentConfig):
    """Deterministic (A, B) pair from the config."""
    d = config.dimension
    if config.ensemble == "gue_like":
        return gue_like_pair(config.seed, d)
    if config.ensemble == "diagonal_heavy_tail":
        return np.eye(d), np.diag(_heavy_tail_diagonal(d, _HEAVY_TAIL_P))
    # fixed_matrix_file
    if not config.matrix_a or not config.matrix_b:
        raise ConfigError("fixed_matrix_file ensemble needs matrix_a and matrix_b paths")
    return matrix_io.load_hermitian_pair(config.matrix_a, config.matrix_b)


@dataclass
class CheckRecord:
    name: str
    formula: str          # which identity or bound the check exercises
    measured: float
    threshold: float
    passed: bool
    error: Optional[str] = None


@dataclass
class Report:
    config: dict
    suite: str
    records: List[CheckRecord]
    artifacts: List[str]
    wall_time_s: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "suite": self.suite,
            "records": [asdict(r) for r in self.records],
            "artifacts": self.artifacts,
            "wall_time_s": self.wall_time_s,
        }
        return json.dumps(payload, sort_keys=True, indent=1)


def _record(name, formula, measured, threshold) -> CheckRecord:
    measured = float(measured)
    threshold = float(threshold)
    return CheckRecord(
        name=name, formula=formula, measured=measured, threshold=threshold,
        passed=bool(measured <= threshold),
    )


# ---------------------------------------------------------------------------
# Check groups; each returns its records and the paths of the files it wrote
# ---------------------------------------------------------------------------

_GroupResult = Tuple[List[CheckRecord], List[str]]


def _checks_derivatives(config: ExperimentConfig) -> _GroupResult:
    A, B = generate_ensemble(config)
    out = []
    for fam in (gaussian(), runge()):
        for k in range(1, min(config.order, 3) + 1):
            D = gateaux_derivative(fam, A, B, k=k, t=0.1)
            F = finite_difference_oracle(fam, A, B, k=k, t=0.1)
            out.append(
                _record(
                    f"derivative_{fam.family_id}_k{k}",
                    "derivative-formula",
                    relative_deviation(D, F),
                    DEFAULT_TOLERANCES["derivative_vs_fd"],
                )
            )
    fam = gaussian()
    windows = {1: (1e-2, 1e-4), 2: (3e-2, 1e-3), 3: (1e-1, 1e-2)}
    for k in range(1, min(config.order, 3) + 1):
        exact = gateaux_derivative(fam, A, B, k=k)
        hs = np.geomspace(*windows[k], 5)
        errs = [
            float(np.linalg.norm(finite_difference_oracle(fam, A, B, k=k, h=h, levels=0) - exact))
            for h in hs
        ]
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        out.append(
            _record(
                f"fd_slope_k{k}",
                "finite-difference-order",
                abs(slope - 2.0),
                DEFAULT_TOLERANCES["fd_slope_halfwidth"],
            )
        )
    return out, []


def _checks_perturbation(config: ExperimentConfig) -> _GroupResult:
    A, B = generate_ensemble(config)
    gen = SplitMix64(config.seed ^ 0x9E3779B97F4A7C15)
    d = config.dimension
    out = []
    for fam in (gaussian(), runge()):
        out.append(
            _record(
                f"perturbation_first_{fam.family_id}",
                "first-order-increment",
                perturbation_first_order(fam, A, B),
                DEFAULT_TOLERANCES["perturbation_first"],
            )
        )
        n = min(config.order, fam.max_order - 1, 2)
        ops_aux = [_hermitian_from(gen, d) for _ in range(n)]
        args_aux = [gen.complex_normals((d, d)) for _ in range(n)]
        worst = max(
            perturbation_higher_order(fam, A, B, ops_aux, args_aux, k=n, j=j)
            for j in range(1, n + 2)
        )
        out.append(
            _record(
                f"perturbation_higher_{fam.family_id}_k{n}",
                "slot-replacement",
                worst,
                DEFAULT_TOLERANCES["perturbation_higher"],
            )
        )
        nt = min(config.order + 1, fam.max_order)
        out.append(
            _record(
                f"telescoping_{fam.family_id}_n{nt}",
                "telescoped-difference",
                telescoping_check(fam, A, B, n=nt, t=0.7, j=max(1, nt - 1)),
                DEFAULT_TOLERANCES["telescoping"],
            )
        )
        out.append(
            _record(
                f"remainder_two_path_{fam.family_id}",
                "remainder-identity",
                remainder_two_path(fam, A, B, min(config.order, fam.max_order - 1))[2],
                DEFAULT_TOLERANCES["remainder_two_path"],
            )
        )
    return out, []


def _brute_force_moi(f, eigsystems, args) -> np.ndarray:
    """The projection-sum definition, unclustered: every eigen-index tuple's
    rank-one projections, weighted by the scalar divided_difference oracle.
    It shares no code with the contraction kernel or its table."""
    d = eigsystems[0].dim
    n = len(args)
    # proj[s][i] = v v*, for eigenvector v of eigen-index i in slot s
    proj = [[np.outer(v, v.conj()) for v in E.basis.T] for E in eigsystems]
    out = np.zeros((d, d), dtype=complex)
    for idx in itertools.product(range(d), repeat=n + 1):
        w = divided_difference(f, [E.eigenvalues[i] for E, i in zip(eigsystems, idx)])
        acc = proj[0][idx[0]]
        for k in range(n):
            acc = acc @ args[k] @ proj[k + 1][idx[k + 1]]
        out += w * acc
    return out


def _checks_moi(config: ExperimentConfig) -> _GroupResult:
    gen = SplitMix64(config.seed ^ 0xD1B54A32D192ED03)
    d = min(config.dimension, 4)
    n = min(config.order, 3)
    fam = gaussian()
    mats = [_hermitian_from(gen, d) for _ in range(n + 1)]
    args = [gen.complex_normals((d, d)) for _ in range(n)]
    Es = [eig_hermitian(M) for M in mats]
    out = []
    got = moi_projection_sum(dd_symbol(fam, n), MOIOperands(Es, args)).value
    want = _brute_force_moi(fam, Es, args)
    out.append(
        _record("moi_vs_brute_force", "projection-sum-definition", relative_deviation(got, want),
                DEFAULT_TOLERANCES["moi_brute_force"])
    )
    sym = exponential_symbol(0.9, n + 1)
    a = moi_factorized(sym, MOIOperands(Es, args)).value
    b = moi_projection_sum(sym, MOIOperands(Es, args)).value
    out.append(
        _record("moi_factorized_cross_form", "factorized-product-form", relative_deviation(a, b),
                DEFAULT_TOLERANCES["moi_factorized"])
    )
    # multilinearity in the first argument
    alpha = 0.7 - 0.3j
    extra = gen.complex_normals((d, d))
    lhs = moi_projection_sum(
        dd_symbol(fam, n), MOIOperands(Es, [alpha * args[0] + extra] + args[1:])
    ).value
    rhs = alpha * got + moi_projection_sum(
        dd_symbol(fam, n), MOIOperands(Es, [extra] + args[1:])
    ).value
    out.append(
        _record("moi_multilinearity", "multilinearity", relative_deviation(lhs, rhs),
                DEFAULT_TOLERANCES["moi_multilinear"])
    )
    # palindromic hermiticity
    Bh = _hermitian_from(gen, d)
    EA, EC = Es[0], Es[1]
    pal = moi_projection_sum(
        dd_symbol(fam, 2), MOIOperands([EA, EC, EA], [Bh, Bh])
    ).value
    out.append(
        _record("moi_palindromic_hermitian", "self-adjointness",
                float(np.linalg.norm(pal - pal.conj().T)), DEFAULT_TOLERANCES["moi_hermitian"])
    )
    # discretization: seeded decay ratio and grid-aligned exactness
    gen2 = SplitMix64(4)
    A2 = _hermitian_from(gen2, 4)
    B2 = _hermitian_from(gen2, 4)
    B2 /= np.linalg.norm(B2, 2)
    EA2, EAB2 = eig_hermitian(A2), eig_hermitian(A2 + B2)
    ops2 = MOIOperands([EAB2, EA2, EA2], [B2, B2])
    exact = moi_projection_sum(dd_symbol(fam, 2), ops2).value
    errs = []
    for m in [2 ** j for j in range(4, 13)]:
        approx = moi_discretized(dd_symbol(fam, 2), ops2, m=m).value
        errs.append(float(np.linalg.norm(approx - exact)))
    worst_ratio = max(e2 / e1 for e1, e2 in zip(errs, errs[1:]))
    out.append(
        _record("discretized_decay_ratio", "discretized-sum-convergence", worst_ratio,
                DEFAULT_TOLERANCES["discretized_ratio"])
    )
    lam = np.array([-0.5, 0.25, 0.75, 1.0])  # multiples of 1/16
    Eg = eig_hermitian(np.diag(lam))
    Bg = gen.complex_normals((4, 4))
    opsg = MOIOperands([Eg, Eg, Eg], [Bg, Bg])
    ex = moi_projection_sum(dd_symbol(fam, 2), opsg).value
    worst = max(
        float(np.linalg.norm(moi_discretized(dd_symbol(fam, 2), opsg, m=2 ** j).value - ex))
        for j in range(4, 13)
    )
    out.append(
        _record("discretized_grid_aligned", "discretized-sum-convergence", worst,
                DEFAULT_TOLERANCES["discretized_aligned"])
    )
    # norm ratio, monitored only
    ops_norm = operands([Es[0]] * 3, [args[0], args[0]])
    ratio = moi_norm_report(dd_symbol(fam, 2), ops_norm, exponents=[4.0, 4.0]).ratio
    out.append(_record("moi_norm_ratio", "norm-bound-monitor", ratio, math.inf))
    return out, []


def _checks_ssf(config: ExperimentConfig) -> _GroupResult:
    A, B = generate_ensemble(config)
    n = max(2, min(config.order, 3))
    out = []
    counting = krein_ssf(A, B)
    fam = exponential()
    lhs = float(
        np.real(
            trace(apply_function(fam, eig_hermitian(A + B)))
            - trace(apply_function(fam, eig_hermitian(A)))
        )
    )
    rhs = counting_pairing(counting, fam)
    out.append(
        _record("krein_breakpoint_pairing", "trace-formula-order-1",
                abs(lhs - rhs) / max(1.0, abs(lhs)), DEFAULT_TOLERANCES["krein_pairing"])
    )
    d_small = min(config.dimension, 4)
    cfg_small = ExperimentConfig(seed=config.seed, dimension=d_small, order=1,
                                 ensemble="gue_like")
    A1, B1 = generate_ensemble(cfg_small)
    four1 = higher_ssf_fourier(A1, B1, n=1)
    exact1 = _counting(eig_hermitian(A1).eigenvalues, eig_hermitian(A1 + B1).eigenvalues,
                       four1.t_grid)
    l1 = float(np.trapezoid(np.abs(four1.values - exact1), four1.t_grid))
    out.append(
        _record("fourier_vs_counting_l1", "trace-formula-order-1", l1,
                DEFAULT_TOLERANCES["fourier_vs_counting_l1"])
    )
    g2 = higher_ssf_fourier(np.array([[0.0]]), np.array([[1.0]]), n=2)
    true2 = np.where((g2.t_grid > 0) & (g2.t_grid < 1), 1.0 - g2.t_grid, 0.0)
    out.append(
        _record("eta2_scalar_closed_form", "remainder-density-order-2",
                float(np.trapezoid(np.abs(g2.values - true2), g2.t_grid)),
                DEFAULT_TOLERANCES["eta2_scalar_l1"])
    )
    grid = higher_ssf_fourier(A, B, n=n)
    heldout = [f for f in (gaussian(), runge(), bump(halfwidth=4.0)) if f.max_order >= n]
    rep = verify_trace_formula(A, B, n, grid, heldout)
    out.append(
        _record(f"heldout_trace_formula_n{n}", "trace-formula-order-n",
                rep.max_function_error(), DEFAULT_TOLERANCES["heldout_rel"])
    )
    out.append(
        _record(f"moment_identities_n{n}", "moment-identities",
                rep.max_moment_error(), DEFAULT_TOLERANCES["moment_rel"])
    )
    chain = diagonal_symbol_trace(A, B, n=n, f=gaussian(), ssf=grid)
    out.append(
        _record(f"identity_chain_n{n}", "restricted-symbol-chain",
                chain.chain_deviation, DEFAULT_TOLERANCES["chain_rel"])
    )
    out.append(
        _record(f"identity_chain_pairing_n{n}", "restricted-symbol-chain",
                max(chain.pairing_errors), DEFAULT_TOLERANCES["chain_pairing"])
    )
    l1rep = ssf_l1_report(B, n, grid)
    out.append(_record("ssf_l1_ratio", "l1-bound-monitor", l1rep["ratio"], math.inf))
    return out, []


def _checks_counterexample(config: ExperimentConfig) -> _GroupResult:
    rows = lp_counterexample_demo(_HEAVY_TAIL_P, _COUNTEREXAMPLE_DIMS)
    heavy = [r.r_heavy for r in rows]
    control = [r.r_bounded for r in rows]
    h_ratios = [b / a for a, b in zip(heavy, heavy[1:])]
    c_ratios = [b / a for a, b in zip(control, control[1:])]
    records = [
        _record("counterexample_heavy_divergence", "difference-quotient-blowup",
                1.2 - min(h_ratios), DEFAULT_TOLERANCES["counterexample_margin"]),
        _record("counterexample_bounded_control", "difference-quotient-blowup",
                max(abs(r - 1.0) for r in c_ratios), DEFAULT_TOLERANCES["control_window"]),
    ]
    artifacts = []
    if config.out_dir:
        path = Path(config.out_dir) / "counterexample.csv"
        path.write_text(_counterexample_csv(rows))
        artifacts.append(str(path))
    return records, artifacts


# report order
_GROUPS: Dict[str, Callable[[ExperimentConfig], _GroupResult]] = {
    "derivatives": _checks_derivatives,
    "perturbation": _checks_perturbation,
    "moi_consistency": _checks_moi,
    "ssf": _checks_ssf,
    "counterexample": _checks_counterexample,
}

SUITES = tuple(_GROUPS) + ("all",)


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (2^20 bytes);
    ru_maxrss counts KiB on Linux and bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def run_suite(config: ExperimentConfig, suite: str) -> Report:
    """Run one check group, or every group for "all", in report order.

    A group that raises a MoiLabError yields one failed "execution" record
    named after the group in place of its records; the other groups still run.
    A ConfigError, such as an unreadable matrix file, is not a check result:
    it propagates.

    With config.out_dir set, the report goes to report_<suite>.json there,
    and timings_<suite>.json next to it lists the groups in report order, each
    with its wall time and the process's peak RSS once it has run.
    """
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; known: {SUITES}")
    t0 = time.time()
    if config.out_dir:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    records: List[CheckRecord] = []
    artifacts: List[str] = []
    timings: List[dict] = []
    for name in _GROUPS if suite == "all" else (suite,):
        g0 = time.perf_counter()
        try:
            recs, arts = _GROUPS[name](config)
        except ConfigError:
            raise
        except MoiLabError as exc:
            recs, arts = [CheckRecord(name=name, formula="execution", measured=math.inf,
                                      threshold=0.0, passed=False, error=str(exc))], []
        records.extend(recs)
        artifacts.extend(arts)
        timings.append({"group": name, "wall_s": time.perf_counter() - g0,
                        "peak_rss_mb": _peak_rss_mb()})
    report = Report(
        config=config.echo(),
        suite=suite,
        records=records,
        artifacts=artifacts,
        wall_time_s=time.time() - t0,
    )
    if config.out_dir:
        out = Path(config.out_dir)
        (out / f"report_{suite}.json").write_text(report.to_json() + "\n")
        (out / f"timings_{suite}.json").write_text(
            json.dumps({"suite": suite, "groups": timings}, indent=1) + "\n")
    return report
