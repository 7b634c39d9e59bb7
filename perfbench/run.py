"""moi-lab benchmark: times ``python -m moilab.cli`` commands from outside.

    python3 perfbench/run.py --workload suite_default --seed 7 --seconds 35 --trace 0

Each invocation is a fresh child process started from the root of a moi-lab
checkout, with ``PYTHONPATH`` set to the checkout's absolute ``src``.  A run
first times ``import moilab.cli`` several times (``setup_s``), then repeats
the workload's command while another repetition is expected to end within
``--seconds`` (at least twice, so outputs can be compared across
invocations), and checks every output.

With ``--trace 0`` the result holds the end-to-end metrics (medians over the
invocations).  With ``--trace 1`` plain and traced invocations alternate; a
traced invocation runs the same command under ``perfbench/tracer.py`` and the
result holds the per-layer metrics (medians over traced invocations).  The
first cycle adds one ``--memory`` traced invocation for the Fourier
allocation peak, whose times are not used.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count correctness gates, so ``failed / attempted`` is the error
rate.  The lines before it give sample counts, spreads, failed gates and the
environment.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = BENCH_DIR / "tracer.py"

MIN_INVOCATIONS = 2       # the identity gates compare invocations with each other
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 60.0     # a normal invocation takes at most ~10 s
THREAD_VARS = ("MOI_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Tolerances the program itself pins (harness.DEFAULT_TOLERANCES).
HELDOUT_REL = 1e-3
MOMENT_REL = 1e-3

Gate = Tuple[str, bool]


@dataclass
class Invocation:
    cwd: Path
    mode: str  # "plain", "traced" or "memory" (traced with the Fourier memory peak)
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float

    def read(self, name: str):
        """Bytes of an output file, or None when it is missing."""
        try:
            return (self.cwd / name).read_bytes()
        except OSError:
            return None


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """The caller's environment plus an absolute PYTHONPATH to ``src``.

    Thread settings (MOI_LAB_THREADS, BLAS variables) pass through unchanged.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: List[str], cwd: Path, env: dict) -> Tuple[int, float, float, float]:
    """Run ``argv`` to completion; return (exit code, wall s, cpu s, peak RSS MB).

    Resource usage comes from ``os.wait4`` on this child alone, because
    RUSAGE_CHILDREN keeps the maximum RSS over every child reaped so far.
    """
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def invoke(cwd: Path, cli_args: List[str], env: dict, mode: str) -> Invocation:
    """One moi-lab command in a fresh process, in its own output directory."""
    cwd.mkdir(parents=True)
    if mode == "plain":
        argv = [sys.executable, "-m", "moilab.cli", *cli_args]
    else:
        memory = ["--memory"] if mode == "memory" else []
        argv = [sys.executable, str(TRACER), *memory, "trace.json", *cli_args]
    code, wall, cpu, rss = spawn(argv, cwd, env)
    return Invocation(cwd, mode, code, wall, cpu, rss)


# ---------------------------------------------------------------------------
# Workloads: inputs from the seed, the command, and the correctness gates
# ---------------------------------------------------------------------------


def identity_gates(name: str, blobs: list) -> List[Gate]:
    """Every blob after the first must exist and equal the first."""
    return [(name, blob is not None and blob == blobs[0]) for blob in blobs[1:]]


def exit_gates(invs: List[Invocation]) -> List[Gate]:
    return [("exit_ok", inv.exit_code == 0) for inv in invs]


_WALL_FIELD = re.compile(rb'"wall_time_s": [^\n,}]*')


def suite_prepare(dimension: int, order: int):
    def prepare(inputs: Path, seed: int) -> List[str]:
        cfg = inputs / "config.json"
        cfg.write_text(json.dumps({"seed": seed, "dimension": dimension, "order": order}))
        return ["run", "--config", str(cfg), "--suite", "all", "--out", "out"]
    return prepare


def suite_gates(invs: List[Invocation], seed: int) -> List[Gate]:
    gates = exit_gates(invs)
    blobs = []
    for inv in invs:
        report = inv.read("out/report_all.json")
        try:
            records = json.loads(report)["records"]
        except (TypeError, ValueError, KeyError):
            records = []
        passed = bool(records) and all(r.get("passed") is True for r in records)
        gates.append(("records_pass", passed))
        table = inv.read("out/counterexample.csv")
        blobs.append(None if report is None or table is None
                     else _WALL_FIELD.sub(b'"wall_time_s": 0', report) + table)
    return gates + identity_gates("report_identical", blobs)


SSF_DIM = 16
SSF_ORDER = 2


def gue_like(rng: np.random.Generator, d: int) -> np.ndarray:
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (X + X.conj().T) / 2.0


def write_matrix_csv(path: Path, M: np.ndarray) -> None:
    """The moi-lab CSV format: one row per matrix row, interleaved re/im."""
    lines = [",".join(repr(float(x)) for z in row for x in (z.real, z.imag)) for row in M]
    path.write_text("\n".join(lines) + "\n")


def ssf_matrices(seed: int) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed % 2 ** 64)
    A = gue_like(rng, SSF_DIM)
    B = gue_like(rng, SSF_DIM)
    return A, B / np.linalg.norm(B, 2)


def ssf_prepare(inputs: Path, seed: int) -> List[str]:
    A, B = ssf_matrices(seed)
    write_matrix_csv(inputs / "A.csv", A)
    write_matrix_csv(inputs / "B.csv", B)
    return ["ssf", "--matrix-a", str(inputs / "A.csv"), "--matrix-b", str(inputs / "B.csv"),
            "--order", str(SSF_ORDER), "--out", "eta.csv"]


def trace_formula_gates(A: np.ndarray, B: np.ndarray, inv: Invocation) -> List[Gate]:
    """Untimed post-check: held-out trace formula and moments of the written SSF."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from moilab import MoiLabError, gaussian, load_ssf, runge, verify_trace_formula

    try:
        grid = load_ssf(inv.cwd / "eta.csv", inv.cwd / "eta.csv.json")
        report = verify_trace_formula(A, B, SSF_ORDER, grid, [gaussian(), runge()])
    except (OSError, ValueError, IndexError, MoiLabError):
        return [("heldout_rel", False), ("moment_rel", False)]
    return [("heldout_rel", report.max_function_error() <= HELDOUT_REL),
            ("moment_rel", report.max_moment_error() <= MOMENT_REL)]


def ssf_gates(invs: List[Invocation], seed: int) -> List[Gate]:
    blobs = []
    for inv in invs:
        csv, sidecar = inv.read("eta.csv"), inv.read("eta.csv.json")
        blobs.append(None if csv is None or sidecar is None else csv + b"\0" + sidecar)
    A, B = ssf_matrices(seed)
    return (exit_gates(invs) + identity_gates("ssf_identical", blobs)
            + trace_formula_gates(A, B, invs[0]))


@dataclass
class Workload:
    name: str
    prepare: Callable[[Path, int], List[str]]
    gates: Callable[[List[Invocation], int], List[Gate]]
    hot_spans: Tuple[str, ...]  # spans the traced run must see called


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("suite_default", suite_prepare(4, 2), suite_gates,
             ("spectral.schatten_norm", "spectral.eig_hermitian", "taylor.lp_counterexample_demo",
              "taylor.finite_difference_oracle", "harness.generate_ensemble",
              "rng.SplitMix64.normals")),
    Workload("suite_stress", suite_prepare(6, 3), suite_gates,
             ("moi.moi_projection_sum", "families.divided_difference")),
    Workload("ssf_file", ssf_prepare, ssf_gates,
             ("ssf.higher_ssf_fourier", "matrix_io.load_matrix_csv")),
)}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metric -> unit; see layer_metrics for the definitions
PER_LAYER_UNITS = {
    "spectral.eig_calls": "count", "spectral.eig_s": "s",
    "spectral.schatten_calls": "count", "spectral.schatten_s": "s", "spectral.s": "s",
    "families.dd_calls": "count", "families.dd_s": "s", "families.s": "s",
    "moi.calls": "count", "moi.s": "s", "moi.block_tuples": "count",
    "moi.symbol_evals": "count", "moi.symbol_reuse": "ratio", "moi.trace_weights_s": "s",
    "taylor.fd_oracle_calls": "count", "taylor.s": "s",
    "ssf.fourier_calls": "count", "ssf.fourier_points": "count", "ssf.fourier_s": "s",
    "ssf.fourier_peak_mb": "MB", "ssf.s": "s",
    "rng.normals": "count", "rng.s": "s",
    "matrix_io.bytes": "bytes", "matrix_io.s": "s",
    "harness.ensemble_s": "s", "harness.s": "s", "cli.s": "s",
    "trace.overhead_ratio": "ratio", "trace.coverage": "ratio",
}


def layer_metrics(trace: dict, wall_s: float) -> Dict[str, float]:
    """Per-layer values of one traced invocation.

    ``trace.overhead_ratio`` and ``ssf.fourier_peak_mb`` come from other
    invocations and are set by the caller.
    """
    spans, counts = trace["spans"], trace["counts"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def layer_s(layer):
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(layer + "."))

    tuples = counts.get("moi.block_tuples", 0)
    evals = counts.get("moi.symbol_evals", 0)
    return {
        "spectral.eig_calls": calls("spectral.eig_hermitian"),
        "spectral.eig_s": self_s("spectral.eig_hermitian"),
        "spectral.schatten_calls": calls("spectral.schatten_norm"),
        "spectral.schatten_s": self_s("spectral.schatten_norm"),
        "spectral.s": layer_s("spectral"),
        "families.dd_calls": calls("families.divided_difference"),
        "families.dd_s": self_s("families.divided_difference"),
        "families.s": layer_s("families"),
        "moi.calls": counts.get("moi.results", 0),
        "moi.s": layer_s("moi"),
        "moi.block_tuples": tuples,
        "moi.symbol_evals": evals,
        "moi.symbol_reuse": 1.0 - evals / tuples if tuples else 0.0,
        "moi.trace_weights_s": self_s("moi.projection_trace_weights"),
        "taylor.fd_oracle_calls": calls("taylor.finite_difference_oracle"),
        "taylor.s": layer_s("taylor"),
        "ssf.fourier_calls": calls("ssf.higher_ssf_fourier"),
        "ssf.fourier_points": counts.get("ssf.fourier_points", 0),
        "ssf.fourier_s": self_s("ssf.higher_ssf_fourier"),
        "ssf.s": layer_s("ssf"),
        "rng.normals": counts.get("rng.normals", 0),
        "rng.s": layer_s("rng"),
        "matrix_io.bytes": counts.get("matrix_io.bytes", 0),
        "matrix_io.s": layer_s("matrix_io"),
        "harness.ensemble_s": self_s("harness.generate_ensemble"),
        "harness.s": layer_s("harness"),
        "cli.s": layer_s("cli"),
        "trace.coverage": sum(v["self_s"] for v in spans.values()) / wall_s,
    }


def summarize(samples: List[float]) -> dict:
    qs = statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    return {"median": statistics.median(samples), "q1": qs[0], "q3": qs[2],
            "min": min(samples), "max": max(samples), "n": len(samples)}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def measure_setup(work: Path, env: dict) -> List[Tuple[int, float]]:
    """(exit code, spawn-to-exit time) of children that only import moilab.cli."""
    setup = work / "setup"
    setup.mkdir()
    return [spawn([sys.executable, "-c", "import moilab.cli"], setup, env)[:2]
            for _ in range(SETUP_SAMPLES)]


def run_invocations(work: Path, cli_args, env, seconds: float, trace: bool):
    """Repeat the command while another cycle is expected to end within ``seconds``.

    A cycle is one plain invocation, or with ``trace`` a plain and a traced
    one; the first traced cycle also has a ``memory`` invocation.
    """
    invs: List[Invocation] = []
    start = time.perf_counter()
    modes = ("plain", "traced", "memory") if trace else ("plain",)
    cycles = 0
    while True:
        for mode in modes:
            invs.append(invoke(work / f"inv{len(invs):03d}", cli_args, env, mode))
        modes = ("plain", "traced") if trace else modes
        cycles += 1
        elapsed = time.perf_counter() - start
        if len(invs) >= MIN_INVOCATIONS and elapsed * (cycles + 1) / cycles > seconds:
            return invs


def trace_gates(wl: Workload, traced: List[Invocation]):
    """Gates on traced invocations of either mode, and their (invocation, trace) pairs."""
    gates, traces = [], []
    for inv in traced:
        try:
            trace = json.loads(inv.read("trace.json"))
        except (TypeError, ValueError):
            gates.append(("trace_written", False))
            continue
        traces.append((inv, trace))
        for span in wl.hot_spans:
            gates.append((f"hot:{span}", trace["spans"].get(span, {}).get("calls", 0) > 0))
    return gates, traces


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    env = child_env()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        cli_args = wl.prepare(inputs, seed)
        setup = [] if trace else measure_setup(work, env)
        invs = run_invocations(work, cli_args, env, seconds, trace)
        gates = [("setup_ok", code == 0) for code, _ in setup] + wl.gates(invs, seed)
        plain = [inv for inv in invs if inv.mode == "plain"]
        if trace:
            more, traces = trace_gates(wl, [inv for inv in invs if inv.mode != "plain"])
            gates += more
            samples = {k: [] for k in PER_LAYER_UNITS}
            plain_wall = statistics.median(inv.wall_s for inv in plain)
            for inv, tr in traces:
                if inv.mode == "memory":
                    peak = tr["counts"].get("ssf.fourier_peak_bytes", 0)
                    samples["ssf.fourier_peak_mb"].append(peak / 2 ** 20)
                    continue
                values = layer_metrics(tr, inv.wall_s)
                values["trace.overhead_ratio"] = inv.wall_s / plain_wall
                for k, v in values.items():
                    samples[k].append(float(v))
            units = PER_LAYER_UNITS
        else:
            samples = {
                "wall_s": [inv.wall_s for inv in plain],
                "cpu_s": [inv.cpu_s for inv in plain],
                "peak_rss_mb": [inv.peak_rss_mb for inv in plain],
                "setup_s": [wall for _, wall in setup],
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [name for name, ok in gates if not ok]
    stats = {k: summarize(v) for k, v in samples.items() if v}
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "invocations": len(invs),
        "gates": {"attempted": len(gates), "failed": len(failed), "failed_names": failed,
                  "error_rate": len(failed) / len(gates)},
        "stats": stats,
        "units": units,
        "environment": environment(),
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = got.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": commit, "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def result_line(res: dict) -> dict:
    gates = res["gates"]
    return {
        "correct": gates["failed"] == 0,
        "attempted": gates["attempted"],
        "failed": gates["failed"],
        "metrics": {k: {"value": res["stats"][k]["median"] if k in res["stats"] else 0.0,
                        "unit": unit}
                    for k, unit in res["units"].items()},
    }


def print_report(res: dict) -> None:
    gates = res["gates"]
    print(f"workload={res['workload']} seed={res['seed']} trace={int(res['trace'])} "
          f"invocations={res['invocations']}")
    for k, unit in res["units"].items():
        s = res["stats"].get(k)
        if s is None:
            print(f"  {k:26s} no samples")
            continue
        print(f"  {k:26s} median={s['median']:.6g} {unit}  q1={s['q1']:.6g} q3={s['q3']:.6g} "
              f"min={s['min']:.6g} max={s['max']:.6g} n={s['n']}")
    print(f"  gates attempted={gates['attempted']} failed={gates['failed']} "
          f"error_rate={gates['error_rate']:.6g}"
          + (f" failed_names={gates['failed_names']}" if gates["failed"] else ""))
    print("  environment " + json.dumps(res["environment"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "moilab" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'moilab' / 'cli.py'} not found; run from a moi-lab checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(res)
    line = result_line(res)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
