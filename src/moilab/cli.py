"""Command line interface.

    moi-lab run --config cfg.json --suite all --out results/
    moi-lab ssf --matrix-a a.json --matrix-b b.json --order 2 --out eta.csv
    moi-lab deriv --f gaussian --k 2 --t 0.1 --seed 7 --dim 4
    moi-lab counterexample --p 2.0 --dims 16,64,256,1024,4096 --out table.csv

Exit codes: 0 all checks passed, 1 at least one failed, 2 configuration error.

Importing this module loads only the standard library and moilab.errors; each
command imports the modules it runs when it starts, so ``ssf`` never loads
the check harness, the RNG, the Taylor module, the function families or the
operator-integral forms, and ``deriv --seed`` draws its pair from the RNG
without the check harness.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import ConfigError, MoiLabError, ParameterError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moi-lab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a check suite from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--suite", required=True,
                       help="a check group, or all; see harness.SUITES")
    p_run.add_argument("--out", required=True, help="output directory for report and artifacts")

    p_ssf = sub.add_parser("ssf", help="compute a spectral shift function")
    p_ssf.add_argument("--matrix-a", required=True)
    p_ssf.add_argument("--matrix-b", required=True)
    p_ssf.add_argument("--order", type=int, required=True)
    p_ssf.add_argument("--out", required=True, help="CSV output path")
    p_ssf.add_argument("--sidecar", default=None, help="JSON metadata path (default: out + .json)")
    p_ssf.add_argument("--method", choices=("fourier", "counting"), default="fourier")
    p_ssf.add_argument("--s-max", type=float, default=None)
    p_ssf.add_argument("--num-s", type=int, default=None)
    p_ssf.add_argument("--seed", type=int, default=None, help="recorded in the sidecar")

    p_d = sub.add_parser("deriv", help="directional derivative of f(A + tB)")
    p_d.add_argument("--f", required=True, help="family id, e.g. gaussian or fourier")
    p_d.add_argument("--params", default="{}", help="JSON parameters for the family")
    p_d.add_argument("--k", type=int, required=True)
    p_d.add_argument("--t", type=float, default=0.0)
    p_d.add_argument("--matrix-a", default=None)
    p_d.add_argument("--matrix-b", default=None)
    p_d.add_argument("--seed", type=int, default=None, help="seeded ensemble instead of files")
    p_d.add_argument("--dim", type=int, default=4)
    p_d.add_argument("--out", default=None, help="write the derivative matrix as JSON")

    p_c = sub.add_parser("counterexample", help="heavy-tail divergence table")
    p_c.add_argument("--p", type=float, required=True)
    p_c.add_argument("--dims", required=True, help="comma separated dimensions")
    p_c.add_argument("--out", default=None, help="CSV output path")
    return parser


def _cmd_run(args) -> int:
    from .harness import ExperimentConfig, run_suite

    config = ExperimentConfig.from_json(args.config)
    config.out_dir = args.out
    report = run_suite(config, args.suite)
    for rec in report.records:
        status = "PASS" if rec.passed else "FAIL"
        extra = f"  [{rec.error}]" if rec.error else ""
        print(f"{status} {rec.name}: measured={rec.measured:.3e} "
              f"threshold={rec.threshold:.3e}{extra}")
    print(f"report: {Path(args.out) / ('report_' + args.suite + '.json')}")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _cmd_ssf(args) -> int:
    from . import matrix_io
    from .ssf import FourierParams, higher_ssf_fourier, krein_ssf, save_ssf

    if args.order < 1:
        raise ConfigError(f"--order {args.order}: the order must be >= 1")
    A, B = matrix_io.load_hermitian_pair(args.matrix_a, args.matrix_b)
    given = {"--s-max": args.s_max, "--num-s": args.num_s}
    flags = " ".join(f"{k} {v!r}" for k, v in given.items() if v is not None)
    if args.method == "counting":
        if args.order != 1:
            raise ConfigError("counting method is first order only")
        if flags:
            raise ConfigError(f"{flags}: the counting method takes no Fourier grid")
        grid = krein_ssf(A, B)
        grid.seed = args.seed
    else:
        # a flag left out is sized from the hull of the call's own eigensolves
        try:
            params = FourierParams(s_max=args.s_max, num_s=args.num_s)
        except ParameterError as exc:
            raise ConfigError(f"{flags}: {exc}") from None
        grid = higher_ssf_fourier(A, B, n=args.order, params=params, seed=args.seed)
    sidecar = args.sidecar or (args.out + ".json")
    save_ssf(grid, args.out, sidecar)
    print(f"wrote {args.out} ({len(grid.t_grid)} samples, l1={grid.l1_norm!r})")
    return EXIT_OK


def _cmd_deriv(args) -> int:
    import numpy as np

    from . import matrix_io
    from .families import family_from_spec
    from .taylor import _STENCILS, derivative_moi, finite_difference_oracle

    try:  # ValueError: invalid JSON; TypeError: JSON that is not an object
        fam = family_from_spec({"id": args.f, **json.loads(args.params)})
    except (ValueError, TypeError, ParameterError) as exc:
        raise ConfigError(f"--f {args.f!r} --params {args.params!r}: {exc}") from None
    if args.k not in _STENCILS:
        raise ConfigError(f"--k {args.k}: the finite-difference check takes k in "
                          f"{min(_STENCILS)}..{max(_STENCILS)}")
    if args.k > fam.max_order:
        raise ConfigError(f"--k {args.k} exceeds the max_order {fam.max_order} of {args.f!r}")
    if not math.isfinite(args.t):
        raise ConfigError(f"--t {args.t!r}: t must be finite")
    if args.matrix_a and args.matrix_b:
        A, B = matrix_io.load_hermitian_pair(args.matrix_a, args.matrix_b)
    elif args.seed is not None:
        from .rng import check_draw, gue_like_pair

        check_draw(args.seed, args.dim)
        A, B = gue_like_pair(args.seed, args.dim)
    else:
        raise ConfigError("deriv needs either --matrix-a/--matrix-b or --seed")
    D = derivative_moi(fam, A, B, k=args.k, t=args.t)
    F = finite_difference_oracle(fam, A, B, k=args.k, t=args.t)
    rel = float(np.linalg.norm(D.value - F)) / max(1.0, float(np.linalg.norm(F)))
    if args.out:
        matrix_io.save_matrix_json(args.out, D.value)
        print(f"wrote {args.out}")
    print(f"deriv {args.f} k={args.k} t={args.t}: frobenius={np.linalg.norm(D.value):.6e} "
          f"fd_rel_err={rel:.3e}")
    print("diagnostics: " + json.dumps(D.diagnostics, sort_keys=True))
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    from .taylor import _counterexample_csv, lp_counterexample_demo

    try:
        dims = [int(x) for x in args.dims.split(",") if x]
    except ValueError:
        raise ConfigError(f"--dims must be comma separated integers, got {args.dims!r}") from None
    try:
        rows = lp_counterexample_demo(args.p, dims)
    except ParameterError as exc:
        raise ConfigError(f"counterexample: {exc}") from None
    print("    d            t        r_heavy     r_bounded")
    for r in rows:
        print(f"{r.dim:5d}  {r.t:.5e}  {r.r_heavy:.6e}  {r.r_bounded:.6e}")
    if args.out:
        Path(args.out).write_text(_counterexample_csv(rows))
        print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "ssf": _cmd_ssf,
        "deriv": _cmd_deriv,
        "counterexample": _cmd_counterexample,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MoiLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
