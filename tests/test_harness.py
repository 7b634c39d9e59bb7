"""Configuration, ensembles, suites, reports, and the CLI surface."""

import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moilab
from moilab import harness
from moilab.errors import ConfigError, ParameterError
from moilab.harness import (
    DEFAULT_TOLERANCES,
    CheckRecord,
    ExperimentConfig,
    generate_ensemble,
    run_suite,
)
from moilab.matrix_io import save_matrix_csv, save_matrix_json
from moilab.rng import SplitMix64


def test_splitmix_reference_values():
    # first outputs for seed 0; reproducible across implementations
    gen = SplitMix64(0)
    assert gen.next_u64() == 0xE220A8397B1DCDAF
    assert gen.next_u64() == 0x6E789E6AA1B965F4
    gen2 = SplitMix64(0x123456789ABCDEF)
    vals = [gen2.uniform() for _ in range(3)]
    assert all(0.0 < v <= 1.0 for v in vals)


def test_config_requires_seed_and_validates():
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=None)
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=1, dimension=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=1, ensemble="bogus")
    for bad in ({"dimension": 2.5}, {"dimension": True}, {"order": 2.5}, {"order": True}):
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=1, **bad)
    for seed in ("abc", 1.5, True, -1, 2 ** 64, 2 ** 70):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(seed=seed)
    assert ExperimentConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1
    # 4 d^2 normals of 8 bytes: d = 2896 fits 256 MiB, d = 2897 does not
    assert ExperimentConfig(seed=1, dimension=2896).dimension == 2896
    for dimension in (2897, 10 ** 6):
        with pytest.raises(ConfigError, match="budget"):
            ExperimentConfig(seed=1, dimension=dimension)


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 9, "dimension": 3, "order": 2}))
    cfg = ExperimentConfig.from_json(path)
    assert (cfg.seed, cfg.dimension, cfg.order) == (9, 3, 2)
    bad = tmp_path / "bad.json"
    bad.write_text("{\"seed\": 1,")
    with pytest.raises(ConfigError, match="line"):
        ExperimentConfig.from_json(bad)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"seed": 1, "bogus_field": 2}))
    with pytest.raises(ConfigError, match="bogus_field"):
        ExperimentConfig.from_json(unknown)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"dimension": 3}))
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_json(missing)


# JSON values of every kind: null, bools, ints (huge ones too), floats with
# NaN and infinities, strings, and nested lists and objects
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.sampled_from([0, -1, 2 ** 63, 2 ** 64, 10 ** 400, -10 ** 400])
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(ExperimentConfig.__dataclass_fields__) + [None]),
    value=_JSON_VALUES,
)
def test_config_from_any_json_is_a_config_or_config_error(tmp_path_factory, name, value):
    # one field set to an arbitrary JSON value, or (name None) the whole document
    payload = value if name is None else {"seed": 1, name: value}
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(payload))
    try:
        cfg = ExperimentConfig.from_json(path)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


def test_ensemble_deterministic_and_normalized():
    cfg = ExperimentConfig(seed=1, dimension=2)
    A1, B1 = generate_ensemble(cfg)
    A2, B2 = generate_ensemble(cfg)
    assert np.array_equal(A1, A2) and np.array_equal(B1, B2)
    assert np.linalg.norm(B1, 2) == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(A1, A1.conj().T)


def test_ensemble_scalar_dimension():
    cfg = ExperimentConfig(seed=5, dimension=1)
    A, B = generate_ensemble(cfg)
    assert A.shape == (1, 1) and B.shape == (1, 1)


def test_heavy_tail_ensemble_model():
    cfg = ExperimentConfig(seed=2, dimension=8, ensemble="diagonal_heavy_tail")
    A, B = generate_ensemble(cfg)
    assert np.allclose(A, np.eye(8))
    assert np.count_nonzero(B - np.diag(np.diagonal(B))) == 0
    b = np.diagonal(B).real
    assert b[0] == pytest.approx(8.0 ** (1.0 / 3.0))
    assert b[-1] == pytest.approx(1.0)


def test_fixed_matrix_file_ensemble(tmp_path):
    gen = SplitMix64(3)
    X = gen.complex_normals((3, 3))
    A = (X + X.conj().T) / 2
    save_matrix_json(tmp_path / "a.json", A)
    save_matrix_csv(tmp_path / "b.csv", np.eye(3))
    cfg = ExperimentConfig(
        seed=1, dimension=3, ensemble="fixed_matrix_file",
        matrix_a=str(tmp_path / "a.json"), matrix_b=str(tmp_path / "b.csv"),
    )
    A2, B2 = generate_ensemble(cfg)
    assert np.allclose(A2, A)
    assert np.allclose(B2, np.eye(3))
    cfg_bad = ExperimentConfig(seed=1, ensemble="fixed_matrix_file")
    with pytest.raises(ConfigError):
        generate_ensemble(cfg_bad)


def test_run_suite_counterexample(tmp_path):
    cfg = ExperimentConfig(seed=7, out_dir=str(tmp_path))
    report = run_suite(cfg, "counterexample")
    assert report.all_passed
    names = [r.name for r in report.records]
    assert "counterexample_heavy_divergence" in names
    csv_path = tmp_path / "counterexample.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "d,t,r_heavy,r_bounded"


def test_run_suite_rejects_unknown_suite():
    cfg = ExperimentConfig(seed=7)
    with pytest.raises(ConfigError):
        run_suite(cfg, "nope")


def test_run_suite_derivatives_passes():
    cfg = ExperimentConfig(seed=7, dimension=4, order=2)
    report = run_suite(cfg, "derivatives")
    assert report.all_passed, [(r.name, r.measured) for r in report.records if not r.passed]
    assert all(r.threshold > 0 for r in report.records)


def test_report_json_deterministic(tmp_path):
    cfg = ExperimentConfig(seed=11, dimension=3, order=2)
    r1 = run_suite(cfg, "perturbation")
    r2 = run_suite(cfg, "perturbation")
    j1 = json.loads(r1.to_json())
    j2 = json.loads(r2.to_json())
    j1.pop("wall_time_s")
    j2.pop("wall_time_s")
    assert json.dumps(j1, sort_keys=True) == json.dumps(j2, sort_keys=True)


def test_clustered_ensemble_passes_every_group_and_is_deterministic():
    # diagonal_heavy_tail has A = I, one d-fold eigenvalue cluster, so every
    # group runs the clustered eigen path
    cfg = ExperimentConfig(seed=7, dimension=6, order=3, ensemble="diagonal_heavy_tail")
    r1 = run_suite(cfg, "all")
    assert r1.all_passed, [(r.name, r.measured, r.error) for r in r1.records if not r.passed]
    r2 = run_suite(cfg, "all")
    r1.wall_time_s = r2.wall_time_s = 0.0
    assert r1.to_json() == r2.to_json()


def _child_env():
    # the child imports the same moilab as this process: a relative PYTHONPATH
    # entry such as "src" does not resolve from cwd, so prefix the absolute one
    env = dict(os.environ)
    pkg_root = str(Path(moilab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return env


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "moilab.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=_child_env(), timeout=120,
    )


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "2"])
def test_import_defaults_to_one_blas_thread(tmp_path, preset):
    # importing moilab sets each BLAS thread variable the caller left unset to
    # "1"; a value the caller set is kept
    env = _child_env()
    for var in BLAS_THREAD_VARS:
        env.pop(var, None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    show = "import os, moilab; print(*(os.environ[v] for v in %r))" % (BLAS_THREAD_VARS,)
    res = subprocess.run([sys.executable, "-c", show], capture_output=True, text=True,
                         cwd=tmp_path, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [preset or "1", "1", "1"]


def test_cli_counterexample_and_exit_codes(tmp_path):
    res = _run_cli(["counterexample", "--p", "2.0", "--dims", "16,64",
                    "--out", str(tmp_path / "t.csv")], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "t.csv").exists()
    # at the suite's p and dims, the command's table is the suite's, byte for byte
    res = _run_cli(["counterexample", "--p", "2", "--dims", "16,64,256,1024,4096",
                    "--out", str(tmp_path / "table.csv")], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    (tmp_path / "cfg.json").write_text('{"seed": 7}')
    res = _run_cli(["run", "--config", "cfg.json", "--suite", "counterexample",
                    "--out", "out"], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    table = (tmp_path / "table.csv").read_bytes()
    assert table == (tmp_path / "out" / "counterexample.csv").read_bytes()


def test_cli_config_error_exit_code(tmp_path):
    # every malformed input exits 2 with a message, never with a traceback
    retired = {"tolerances": {"telescoping": 1.0}, "functions": [{"id": "gaussian"}],
               "p": 2.0, "dims": [16, 64]}
    configs = {
        "dimension_float.json": {"seed": 1, "dimension": 2.5},
        "dimension_bool.json": {"seed": 1, "dimension": True},
        "order_float.json": {"seed": 1, "order": 2.5},
        "seed_str.json": {"seed": "abc"},
        "seed_float.json": {"seed": 1.5},
        "seed_bool.json": {"seed": True},
        "seed_huge.json": {"seed": 2 ** 70},
        "dimension_huge.json": {"seed": 1, "dimension": 10 ** 6},  # 4e12 normals
        "top_int.json": 5,
        "top_null.json": None,
        "top_list.json": [1, [2]],
        "matrix_a_int.json": {"seed": 1, "matrix_a": 5},
        # retired fields: the gates, function families, p and dims are fixed
        **{f"{name}.json": {"seed": 1, name: value} for name, value in retired.items()},
        "missing_matrix.json": {"seed": 1, "ensemble": "fixed_matrix_file",
                                "matrix_a": "nope_a.json", "matrix_b": "nope_b.csv"},
    }
    # a matrix pair that is not of one shape, Hermitian and finite
    bad_b = {"b1.csv": [[0.5]], "nonherm.csv": [[0.0, 1.0], [0.0, 0.0]],
             "nan.csv": [[0.0, np.nan], [np.nan, 1.0]]}
    configs.update({f"pair_{name}.json": {"seed": 1, "ensemble": "fixed_matrix_file",
                                          "matrix_a": "A.csv", "matrix_b": name}
                    for name in bad_b})
    for name, payload in configs.items():
        (tmp_path / name).write_text(json.dumps(payload))
    deriv = ["deriv", "--k", "1", "--seed", "5"]
    missing = ["--matrix-a", "nope_a.json", "--matrix-b", "nope_b.csv"]
    save_matrix_csv(tmp_path / "A.csv", np.diag([0.0, 1.0]))
    save_matrix_csv(tmp_path / "B.csv", np.diag([0.5, 0.0]))
    for name, M in bad_b.items():
        save_matrix_csv(tmp_path / name, np.array(M))
    ssf = ["ssf", "--matrix-a", "A.csv", "--matrix-b", "B.csv", "--order", "2", "--out", "e.csv"]
    bad_pairs = [["--matrix-a", "A.csv", "--matrix-b", name] for name in bad_b]
    (tmp_path / "ok.json").write_text('{"seed": 1}')
    cases = [
        ["run", "--config", "nope.json", "--suite", "counterexample", "--out", "o"],
        ["run", "--config", "ok.json", "--suite", "nosuch", "--out", "o_nosuch"],
        ["counterexample", "--p", "2.0", "--dims", "16,abc"],
        ["counterexample", "--p", "2", "--dims", "0,16"],
        ["counterexample", "--p", "2", "--dims", "16,1099511627776"],  # 8 TiB per array
        # the matrix files are read by the groups that draw the ensemble
        *(["run", "--config", name, "--suite",
           "derivatives" if name.startswith(("missing_", "pair_")) else "counterexample",
           "--out", "o"] for name in configs),
        ["ssf", *missing, "--order", "2", "--out", "eta.csv"],
        *([*ssf, f"--s-max={v}"] for v in ("nan", "inf", "-inf", "0")),
        [*ssf, "--num-s", "7"],
        ["ssf", "--matrix-a", "A.csv", "--matrix-b", "B.csv", "--order", "0", "--out", "e.csv"],
        *(["ssf", *pair, "--order", "2", "--out", "e.csv"] for pair in bad_pairs),
        *(["deriv", "--k", "1", "--f", "gaussian", *pair] for pair in bad_pairs),
        ["deriv", "--k", "1", "--f", "gaussian", *missing],
        # --k outside the stencils 1..4 or past the family's max_order
        *(["deriv", "--f", "gaussian", "--k", k, "--seed", "7"] for k in ("0", "5", "9")),
        ["deriv", "--f", "recip_plus", "--k", "3", "--seed", "7"],
        # the seed range, --dim >= 1 and the 4 d^2 draw budget
        *([*deriv, "--f", "gaussian", *more] for more in (
            ["--seed", "-1"], ["--seed", str(2 ** 64)], ["--dim", "0"], ["--dim", "2897"])),
        [*deriv, "--f", "gaussian", "--params", "{bad"],
        [*deriv, "--f", "gaussian", "--params", "[1]"],
        [*deriv, "--f", "gaussian", "--params", '{"foo": 1}'],
        [*deriv, "--f", "nosuch"],
        [*deriv, "--f", "fourier", "--params", '{"s": "x"}'],
        [*deriv, "--f", "monomial", "--params", '{"k": 1.5}'],
        [*deriv, "--f", "monomial", "--params", '{"k": 100000000}'],
        [*deriv, "--f", "gaussian", "--params", '{"max_order": 100000000}'],
    ]
    for argv in cases:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        res = _run_cli(argv, cwd=tmp_path)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert res.returncode == 2, (argv, res.stderr)
        assert "configuration error" in res.stderr, (argv, res.stderr)
        assert "Traceback" not in res.stderr, (argv, res.stderr)
        if argv[0] == "run" and argv[2][:-len(".json")] in retired:
            assert "unknown config fields" in res.stderr, (argv, res.stderr)
        # rejected before anything large is drawn or read: CPU, not wall
        # time, so that a loaded machine does not fail it
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        assert cpu < 1.0, (argv, cpu)
    assert not (tmp_path / "o_nosuch").exists()  # an unknown suite writes nothing


def test_cli_commands_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (12 ms at import); ssf and run avoid it
    save_matrix_csv(tmp_path / "A.csv", np.diag([0.0, 1.0, 2.5]))
    save_matrix_csv(tmp_path / "B.csv", np.full((3, 3), 0.3))
    (tmp_path / "cfg.json").write_text('{"seed": 7}')
    code = (
        "import sys\n"
        "from moilab.cli import main\n"
        "assert main(['ssf', '--matrix-a', 'A.csv', '--matrix-b', 'B.csv', '--order', '2',"
        " '--out', 'eta.csv']) == 0\n"
        "assert main(['run', '--config', 'cfg.json', '--suite', 'moi_consistency',"
        " '--out', 'o']) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path, env=_child_env(), timeout=120)
    assert res.returncode == 0, res.stderr


def _run_child(code, cwd, env=None):
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=cwd, env=env or _child_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_import_cli_loads_no_numpy_and_no_other_moilab_module(tmp_path):
    # the command module holds the standard library and moilab.errors alone;
    # importing it still sets the BLAS thread default, before numpy loads
    env = _child_env()
    for var in BLAS_THREAD_VARS:
        env.pop(var, None)
    code = (
        "import os, sys\n"
        "import moilab.cli\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'moilab')))\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    loaded, threads = _run_child(code, tmp_path, env).splitlines()
    assert loaded.split() == ["moilab", "moilab.cli", "moilab.errors"]
    assert threads == "1"


def test_cli_ssf_loads_only_the_modules_it_runs(tmp_path):
    # neither the function families nor the operator-integral forms: the
    # sweep's tables and trace weights come from moilab.kernels; order 3 runs
    # the k >= 2 table path.  One line per command, of what is loaded after it
    save_matrix_csv(tmp_path / "A.csv", np.diag([0.0, 1.0, 2.5]))
    save_matrix_csv(tmp_path / "B.csv", np.full((3, 3), 0.3))
    runs = [["--order", "2"], ["--order", "1"], ["--order", "3"],
            ["--order", "1", "--method", "counting"]]
    code = (
        "import sys\n"
        "from moilab.cli import main\n"
        f"for extra in {runs!r}:\n"
        "    assert main(['ssf', '--matrix-a', 'A.csv', '--matrix-b', 'B.csv', *extra,"
        " '--out', 'eta.csv']) == 0\n"
        "    print(*(m for m in ('moilab.families', 'moilab.moi', 'moilab.harness', 'moilab.rng',"
        " 'moilab.taylor', 'numpy.polynomial') if m in sys.modules))\n"
    )
    lines = [l for l in _run_child(code, tmp_path).splitlines() if not l.startswith("wrote ")]
    assert lines == [""] * len(runs)


def test_cli_deriv_seed_loads_no_check_harness(tmp_path):
    # the seeded pair comes from moilab.rng, not from the harness and its ssf
    code = (
        "import sys\n"
        "from moilab.cli import main\n"
        "assert main(['deriv', '--f', 'gaussian', '--k', '2', '--seed', '7']) == 0\n"
        "print(*(m for m in ('moilab.harness', 'moilab.ssf') if m in sys.modules))\n"
    )
    assert _run_child(code, tmp_path).splitlines()[-1] == ""


def test_import_kernels_loads_only_errors_and_spectral(tmp_path):
    code = (
        "import sys\n"
        "import moilab.kernels\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'moilab'))\n"
    )
    assert _run_child(code, tmp_path).split() == [
        "moilab", "moilab.errors", "moilab.kernels", "moilab.spectral"]


def test_package_names_resolve_to_their_modules(tmp_path):
    # every exported name is the object its own module defines; star and
    # submodule imports still work in a fresh process; an unknown name raises
    for name in moilab.__all__:
        obj = getattr(moilab, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert obj.__module__.startswith("moilab."), name
    assert set(moilab.__all__) <= set(dir(moilab))
    with pytest.raises(AttributeError, match="nosuch"):
        moilab.nosuch
    code = (
        "from moilab import *\n"
        "from moilab import harness\n"
        "import moilab\n"
        "assert all(globals()[name] is getattr(moilab, name) for name in moilab.__all__)\n"
        "assert harness.run_suite is run_suite\n"
        "print(len(moilab.__all__))\n"
    )
    assert _run_child(code, tmp_path).strip() == str(len(moilab.__all__))


def test_cli_ssf_and_deriv(tmp_path):
    gen = SplitMix64(13)
    X = gen.complex_normals((3, 3))
    A = (X + X.conj().T) / 2
    Y = gen.complex_normals((3, 3))
    B = (Y + Y.conj().T) / 2
    save_matrix_json(tmp_path / "a.json", A)
    save_matrix_json(tmp_path / "b.json", B)
    res = _run_cli(
        ["ssf", "--matrix-a", str(tmp_path / "a.json"), "--matrix-b",
         str(tmp_path / "b.json"), "--order", "2", "--out", str(tmp_path / "eta.csv")],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "eta.csv").exists()
    assert (tmp_path / "eta.csv.json").exists()
    res2 = _run_cli(["deriv", "--f", "gaussian", "--k", "1", "--t", "0.0",
                     "--seed", "5", "--dim", "3"], cwd=tmp_path)
    assert res2.returncode == 0, res2.stderr
    assert "fd_rel_err" in res2.stdout


def test_cli_deriv_runs_one_projection_sum(monkeypatch, capsys):
    # the printed diagnostics come from the operator integral the derivative
    # is built from, not from a second one
    import moilab.moi
    import moilab.taylor
    from moilab import cli

    calls = []
    real = moilab.moi.moi_projection_sum

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(moilab.moi, "moi_projection_sum", counting)
    monkeypatch.setattr(moilab.taylor, "moi_projection_sum", counting)
    code = cli.main(["deriv", "--f", "gaussian", "--k", "2", "--t", "0.1",
                     "--seed", "5", "--dim", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(calls) == 1
    assert 'diagnostics: {"cluster_counts": [3, 3, 3], "symbol_evaluations": 27}' in out


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_cli_deriv_rejects_a_non_finite_t_before_any_eigensolve(t, monkeypatch, capsys):
    import warnings

    import moilab.spectral
    import moilab.taylor
    from moilab import cli

    def never(*args, **kwargs):
        raise AssertionError("eigensolve before --t was checked")

    monkeypatch.setattr(moilab.spectral, "eig_hermitian", never)
    monkeypatch.setattr(moilab.taylor, "eig_hermitian", never)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["deriv", "--f", "gaussian", "--k", "1", f"--t={t}", "--seed", "7"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "configuration error: --t" in err and "finite" in err, err


def test_cli_run_reports_cross_process_identical(tmp_path):
    # two separate processes, same config and output directory: the report is
    # byte identical once the wall-time line is blanked
    cfg = {"seed": 3, "dimension": 3, "order": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    blank = lambda s: re.sub(rb'"wall_time_s": [0-9.e+-]+', b'"wall_time_s": 0', s)
    captured = []
    for _ in range(2):
        res = _run_cli(["run", "--config", str(cfg_path), "--suite", "counterexample",
                        "--out", str(out)], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        captured.append(
            (
                blank((out / "report_counterexample.json").read_bytes()),
                (out / "counterexample.csv").read_bytes(),
            )
        )
    assert captured[0][0] == captured[1][0]
    assert captured[0][1] == captured[1][1]


def test_run_suite_writes_group_timings_beside_the_report(tmp_path):
    # one entry per group in report order; the sidecar is not an artifact and
    # leaves the report alone
    cfg = ExperimentConfig(seed=7, dimension=3, order=2, out_dir=str(tmp_path))
    report = run_suite(cfg, "all")
    timings = json.loads((tmp_path / "timings_all.json").read_text())
    assert timings["suite"] == "all"
    assert [g["group"] for g in timings["groups"]] == list(harness._GROUPS)
    peaks = [g["peak_rss_mb"] for g in timings["groups"]]
    assert all(g["wall_s"] >= 0 for g in timings["groups"])
    assert 1 < peaks[0] and peaks == sorted(peaks)  # a high-water mark never falls
    assert not any("timings" in a for a in report.artifacts)
    assert set(json.loads((tmp_path / "report_all.json").read_text())) == {
        "config", "suite", "records", "artifacts", "wall_time_s"}
    run_suite(cfg, "moi_consistency")
    single = json.loads((tmp_path / "timings_moi_consistency.json").read_text())
    assert [g["group"] for g in single["groups"]] == ["moi_consistency"]


def test_failed_group_is_one_record_and_the_rest_still_run(monkeypatch, tmp_path):
    # a group that raises is reported as one failed "execution" record named
    # after it, in its place; the groups before and after it run as usual
    def broken(config):
        raise ParameterError("injected failure")

    monkeypatch.setitem(harness._GROUPS, "moi_consistency", broken)
    cfg = ExperimentConfig(seed=7, dimension=3, order=2, out_dir=str(tmp_path))
    report = run_suite(cfg, "all")

    def records_of(*groups):
        return [r for g in groups for r in run_suite(cfg, g).records]

    before = records_of("derivatives", "perturbation")
    after = records_of("ssf", "counterexample")
    failed = CheckRecord(name="moi_consistency", formula="execution", measured=math.inf,
                         threshold=0.0, passed=False, error="injected failure")
    assert report.records == before + [failed] + after
    assert all(r.passed for r in before + after)
    assert not report.all_passed
    assert report.artifacts == [str(tmp_path / "counterexample.csv")]


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         cwd=tmp_path, env=_child_env())
    assert res.returncode == 0, res.stderr


def test_default_tolerances_complete():
    # every gated record reads its threshold from the one table; monitors
    # are ungated
    report = run_suite(ExperimentConfig(seed=7), "all")
    gates = set(DEFAULT_TOLERANCES.values())
    assert all(r.threshold in gates or r.threshold == math.inf for r in report.records)
