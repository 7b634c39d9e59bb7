"""Counting and Fourier shift functions and their trace formulas."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moilab import cli
from moilab import ssf as ssf_module
from moilab.errors import DimensionMismatchError, OrderLimitError, ParameterError
from moilab.families import bump, exponential, fourier, gaussian, recip_plus, runge
from moilab.harness import DEFAULT_TOLERANCES, ExperimentConfig, generate_ensemble, run_suite
from moilab.matrix_io import save_matrix_csv
from moilab.moi import DividedDifferenceSymbol
from moilab.spectral import eig_hermitian, trace
from moilab.ssf import (
    MAX_NUM_S,
    FourierParams,
    counting_pairing,
    higher_ssf_fourier,
    krein_ssf,
    load_ssf,
    save_ssf,
)
from moilab.taylor import (
    diagonal_symbol_trace,
    ssf_l1_report,
    taylor_remainder,
    verify_trace_formula,
)
from conftest import pair


def test_krein_scalar_step():
    grid = krein_ssf(np.array([[0.0]]), np.array([[1.0]]))
    inside = (grid.t_grid > 0.0) & (grid.t_grid < 1.0)
    outside = (grid.t_grid < -0.01) | (grid.t_grid > 1.01)
    assert np.all(grid.values[inside] == 1.0)
    assert np.all(grid.values[outside] == 0.0)


def test_krein_zero_perturbation():
    A, _ = pair(1, 4)
    grid = krein_ssf(A, np.zeros((4, 4)))
    assert np.all(grid.values == 0.0)
    assert grid.l1_norm == 0.0


def test_krein_counting_values_are_small_integers():
    A, B = pair(2, 6)
    grid = krein_ssf(A, B)
    assert np.all(grid.values == np.round(grid.values))
    assert np.max(np.abs(grid.values)) <= 6


def test_krein_breakpoint_pairing_is_exact():
    A, B = pair(3, 6)
    grid = krein_ssf(A, B)
    f = exponential()
    lhs = float(np.real(trace(_fcalc(f, A + B) - _fcalc(f, A))))
    rhs = counting_pairing(grid, f)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def _fcalc(f, M):
    from moilab.spectral import apply_function, eig_hermitian

    return apply_function(f, eig_hermitian(M))


def test_auto_order1_window_covers_a_narrow_hull_away_from_zero():
    # span 0.07 at 1.3: the grid sits about the hull's centre c and is sized
    # by the hull's width W = span, so the order-1 window 24000 / span covers
    # the centred padded hull c +- (span / 2 + 0.2 span) whatever the hull's
    # distance from 0, and the recovery meets the suite's order-1 gate
    lam, b = 1.3649923, -0.07042378
    params = FourierParams.auto(np.array([[lam]]), np.array([[b]]), 1)
    c, t_abs = lam + b / 2, 0.7 * -b
    assert (params.num_s // 2) * math.pi / params.s_max >= t_abs
    grid = higher_ssf_fourier(np.array([[lam]]), np.array([[b]]), 1)
    dt = math.pi / params.s_max
    assert grid.t_grid[0] - dt < c - t_abs and grid.t_grid[-1] + dt > c + t_abs
    np.testing.assert_allclose(grid.t_grid - c, -(grid.t_grid - c)[::-1], rtol=0, atol=1e-14)
    exact = (lam + b > grid.t_grid).astype(float) - (lam > grid.t_grid)
    l1 = float(np.trapezoid(np.abs(grid.values - exact), grid.t_grid))
    assert l1 <= DEFAULT_TOLERANCES["fourier_vs_counting_l1"]


# Inputs whose hull is narrow, far from 0, of zero width or at 1e-12 scale:
# a grid sized from the hull's distance to 0, from its raw width, or from a
# width with a unit of length runs short or too coarse on one of them
_SCALE12 = np.random.default_rng(1).normal(size=(2, 3, 3))
_NARROW_HULLS = {
    "5/0.002 n=2": (np.array([[5.0]]), np.array([[0.002]]), 2),
    "5/0.002 n=3": (np.array([[5.0]]), np.array([[0.002]]), 3),
    "1000/0.01 n=2": (np.array([[1000.0]]), np.array([[0.01]]), 2),
    "0.4I/0 n=2": (0.4 * np.eye(3), np.zeros((3, 3)), 2),
    "0.4I/0 n=4": (0.4 * np.eye(3), np.zeros((3, 3)), 4),
    "0/0 n=2": (np.zeros((2, 2)), np.zeros((2, 2)), 2),
    "0/0 n=3": (np.zeros((2, 2)), np.zeros((2, 2)), 3),
}
_NARROW_HULLS.update({f"1e-12 n={n}": (1e-12 * (_SCALE12[0] + _SCALE12[0].T),
                                       1e-12 * (_SCALE12[1] + _SCALE12[1].T), n)
                      for n in (1, 2, 3)})


@pytest.mark.parametrize("case", list(_NARROW_HULLS))
def test_narrow_zero_width_and_tiny_hulls_recover(case):
    A, B, n = _NARROW_HULLS[case]
    grid = higher_ssf_fourier(A, B, n)
    assert np.all(np.isfinite(grid.values))
    want = float(np.trace(np.linalg.matrix_power(B, n)).real) / math.factorial(n)
    if not B.any():
        assert not grid.values.any()  # eta is exactly 0 for B = 0
    else:
        assert grid.moment(0) == pytest.approx(want, rel=1e-4, abs=0)  # relative at any scale


# Bound on |eta(A + cI, B)(t + c) - eta(A, B)(t)|: C_SHIFT eps (1 + |c|)
# ds^(2-n) in units of max|eta|.  The eigensolve of A + cI moves the centred
# eigenvalues by about eps (1 + |c|), which moves F(s) by about that times s,
# and the quotient by s^n, summed from s = 2 ds, grows as ds^(2-n).  Measured
# on d in {2, 4, 8, 16}, seeds {1, 2, 3, 7}, n in {2, 3} and c in {5, 50,
# -20, 1000}: at most 94; the constant rounds it up by 4x.
C_SHIFT = 400


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", [4, 16])
def test_fourier_density_is_translation_covariant(d, n):
    # eta_n(A + cI, B)(t + c) = eta_n(A, B)(t): the grid sits in the hull's
    # own frame, so a shift moves its points and leaves its size
    A, B = generate_ensemble(ExperimentConfig(seed=7, dimension=d, order=n))
    grid = higher_ssf_fourier(A, B, n)
    eps, peak = np.finfo(float).eps, np.abs(grid.values).max()
    for c in (5.0, 50.0, -20.0):
        shifted = higher_ssf_fourier(A + c * np.eye(d), B, n)
        assert shifted.params["num_s"] == grid.params["num_s"]
        assert shifted.params["s_max"] == pytest.approx(grid.params["s_max"],
                                                         rel=16 * eps * (1 + abs(c)))
        np.testing.assert_allclose(shifted.t_grid - c, grid.t_grid, rtol=0,
                                   atol=16 * eps * (1 + abs(c)))
        bound = C_SHIFT * eps * (1 + abs(c)) * FourierParams(**grid.params).ds ** (2 - n) * peak
        err = np.abs(shifted.values - grid.values).max()
        assert err <= bound, (c, err / bound)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [4, 16])
def test_fourier_density_is_scale_covariant(d, n):
    # eta_n(aA, aB)(at) = a^(n-1) eta_n(A, B)(t): the grid is sized by the
    # hull's width and the fit is in grid offsets, so the recovery has no
    # unit of length; a power-of-two a rescales every step exactly (bit for
    # bit, measured), any other a to its rounding (at most 1.1e-11 max|eta|)
    A, B = generate_ensemble(ExperimentConfig(seed=7, dimension=d, order=n))
    grid = higher_ssf_fourier(A, B, n)
    eps, peak = np.finfo(float).eps, np.abs(grid.values).max()
    for a, rel in ((2.0 ** -40, 16 * eps), (2.0 ** -20, 16 * eps), (2.0 ** 10, 16 * eps),
                   (1e-3, 1e-10), (1e-12, 1e-10)):
        scaled = higher_ssf_fourier(a * A, a * B, n)
        assert scaled.params["num_s"] == grid.params["num_s"]
        np.testing.assert_allclose(scaled.t_grid, a * grid.t_grid, rtol=0,
                                   atol=16 * eps * a * np.abs(grid.t_grid).max())
        err = np.abs(scaled.values - a ** (n - 1) * grid.values).max()
        assert err <= rel * a ** (n - 1) * peak, (a, err / (a ** (n - 1) * peak))


def test_fourier_params_validation():
    with pytest.raises(ParameterError):
        FourierParams(s_max=10.0, num_s=101)
    for s_max in (-1.0, 0.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ParameterError):
            FourierParams(s_max=s_max, num_s=100)
    # the exclusion zone 2 ds must stay inside the window
    for num_s in (0, 2, 4):
        with pytest.raises(ParameterError):
            FourierParams(s_max=10.0, num_s=num_s)
    # a num_s that is not an integer, or is a bool, and an s_max that is not
    # a real number, each under its own message, not later or under another
    for num_s in (16384.0, True, np.float64(16384), "16384"):
        with pytest.raises(ParameterError, match="num_s must be an even integer"):
            FourierParams(s_max=10.0, num_s=num_s)
    for s_max in ("5", True, 5j, [5.0]):
        with pytest.raises(ParameterError, match="s_max must be a finite positive real"):
            FourierParams(s_max=s_max, num_s=16384)
    # numpy integers and floats stay accepted
    assert FourierParams(s_max=np.float64(10.0), num_s=np.int64(16384)).ds == 20.0 / 16384
    # a t-step pi / s_max wider than the padded hull [-0.2, 0.7]
    with pytest.raises(ParameterError, match="fewer than 2 points"):
        higher_ssf_fourier(np.diag([0.0, 0.5]), np.diag([0.3, 0.0]), 2, FourierParams(1.0, 16))
    # a t-step pi / s_max so fine that t / dt is past any float: the grid is
    # too short to cover the hull, not an OverflowError
    for s_max in (1e308, np.finfo(float).max):
        with pytest.raises(ParameterError, match="increase num_s"):
            higher_ssf_fourier(np.diag([0.0, 20.0]), np.diag([0.3, 0.0]), 2,
                               FourierParams(s_max, 16384))


def test_cli_ssf_with_a_grid_too_fine_for_the_hull_exits_1(tmp_path, capsys):
    save_matrix_csv(tmp_path / "A.csv", np.diag([0.0, 1.0]))
    save_matrix_csv(tmp_path / "B.csv", np.diag([0.5, 0.0]))
    argv = ["ssf", "--matrix-a", str(tmp_path / "A.csv"), "--matrix-b", str(tmp_path / "B.csv"),
            "--order", "2", "--s-max", "1e308", "--out", str(tmp_path / "eta.csv")]
    assert cli.main(argv) == 1
    assert "increase num_s" in capsys.readouterr().err


def test_scalar_order2_closed_form():
    # a = 0, b = 1: density is (1 - t) on (0, 1)
    grid = higher_ssf_fourier(np.array([[0.0]]), np.array([[1.0]]), n=2)
    true = np.where((grid.t_grid > 0) & (grid.t_grid < 1), 1.0 - grid.t_grid, 0.0)
    l1_err = np.trapezoid(np.abs(grid.values - true), grid.t_grid)
    assert l1_err <= 1e-2
    assert grid.imag_residue <= 1e-6 * grid.l1_norm


def test_fourier_order1_matches_counting():
    A, B = pair(5, 4)
    counting = krein_ssf(A, B)
    fourier = higher_ssf_fourier(A, B, n=1)
    ref = np.interp(fourier.t_grid, counting.t_grid, counting.values)
    # compare on the common grid; the counting form is exact
    lam = np.asarray(counting.params["spectrum_base"])
    mu = np.asarray(counting.params["spectrum_perturbed"])
    exact = (
        (mu[None, :] > fourier.t_grid[:, None]).sum(1)
        - (lam[None, :] > fourier.t_grid[:, None]).sum(1)
    ).astype(float)
    l1 = np.trapezoid(np.abs(fourier.values - exact), fourier.t_grid)
    assert l1 <= 1e-2, l1
    del ref


def test_fourier_moment_anchor():
    A, B = pair(6, 4, scale=0.8)
    grid = higher_ssf_fourier(A, B, n=2)
    want = float(np.trace(B @ B).real) / 2.0
    assert grid.moment(0) == pytest.approx(want, abs=1e-4 * (1 + abs(want)))


def test_support_and_vanishing_outside_hull():
    A, B = pair(7, 4)
    grid = higher_ssf_fourier(A, B, n=2)
    lo, hi = grid.support
    span = hi - lo
    margin = 0.05 * span
    outside = (grid.t_grid < lo - margin) | (grid.t_grid > hi + margin)
    peak = np.max(np.abs(grid.values))
    assert np.any(outside)
    assert np.max(np.abs(grid.values[outside])) <= 1e-4 * peak


@pytest.mark.parametrize("n", [2, 3])
def test_heldout_trace_formula_and_moments(n):
    A, B = pair(8, 4)
    grid = higher_ssf_fourier(A, B, n=n)
    report = verify_trace_formula(
        A, B, n, grid, [gaussian(), runge(), bump(halfwidth=4.0)]
    )
    assert report.max_function_error() <= 1e-3, report.rows
    assert report.max_moment_error() <= 1e-3, report.moments


def test_affine_function_pairs_to_zero():
    # f with vanishing n-th derivative gives zero on both sides
    A, B = pair(9, 3)
    n = 2
    grid = higher_ssf_fourier(A, B, n=n)
    from moilab.families import monomial

    f = monomial(1, max_order=4)
    lhs = float(np.real(trace(taylor_remainder(f, A, B, n))))
    rhs = grid.quadrature(np.asarray(f.eval(n, grid.t_grid)))
    assert abs(lhs) <= 1e-10
    assert abs(rhs) <= 1e-6


def test_identity_chain_polynomial_case():
    from moilab.families import monomial

    A, B = pair(10, 4)
    rep = diagonal_symbol_trace(A, B, n=2, f=monomial(3))
    assert rep.chain_deviation <= 1e-9
    # both traces equal the remainder trace for a cubic
    want = complex(trace(taylor_remainder(monomial(3), A, B, 2)))
    assert rep.restricted_trace == pytest.approx(want, rel=1e-9)
    assert rep.full_trace == pytest.approx(want, rel=1e-9)


def test_identity_chain_zero_perturbation():
    A, _ = pair(11, 3)
    rep = diagonal_symbol_trace(A, np.zeros((3, 3)), n=2, f=gaussian())
    assert rep.chain_deviation <= 1e-9
    assert abs(rep.restricted_trace) <= 1e-12
    assert abs(rep.full_trace) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_identity_chain_matches_pairing(n):
    A, B = pair(12, 4)
    grid = higher_ssf_fourier(A, B, n=n)
    rep = diagonal_symbol_trace(A, B, n=n, f=gaussian(), ssf=grid)
    assert rep.chain_deviation <= 1e-9
    assert max(rep.pairing_errors) <= 1e-3


def test_identity_chain_needs_two_slots():
    A, B = pair(13, 3)
    with pytest.raises(ParameterError):
        diagonal_symbol_trace(A, B, n=1, f=gaussian())


@pytest.mark.parametrize("call", [
    lambda A, B: DividedDifferenceSymbol(recip_plus(), 3),
    lambda A, B: verify_trace_formula(A, B, 3, krein_ssf(A, B), [recip_plus()]),
    lambda A, B: diagonal_symbol_trace(A, B, n=3, f=recip_plus()),
], ids=["dd_symbol", "verify_trace_formula", "diagonal_symbol_trace"])
def test_order_above_max_order_is_an_order_limit_error(call):
    # recip_plus provides derivatives up to order 2
    A, B = pair(13, 3)
    with pytest.raises(OrderLimitError, match="recip_plus"):
        call(A, B)


_A2, _B1 = np.diag([0.0, 1.0]), np.array([[0.5]])


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("call", [
    krein_ssf,
    lambda A, B: higher_ssf_fourier(A, B, 2),
    lambda A, B: FourierParams.auto(A, B, 2),
    lambda A, B: verify_trace_formula(A, B, 2, krein_ssf(_A2, _A2), [gaussian()]),
    lambda A, B: diagonal_symbol_trace(A, B, n=2, f=gaussian()),
], ids=["krein_ssf", "higher_ssf_fourier", "FourierParams.auto", "verify_trace_formula",
        "diagonal_symbol_trace"])
def test_a_pair_of_different_shapes_is_a_dimension_mismatch(call, swap):
    # A + B would broadcast a 1 x 1 matrix against the other
    A, B = (_B1, _A2) if swap else (_A2, _B1)
    with pytest.raises(DimensionMismatchError, match="share a dimension"):
        call(A, B)


def test_l1_report_zero_and_scalar():
    A, _ = pair(14, 3)
    grid = krein_ssf(A, np.zeros((3, 3)))
    rep = ssf_l1_report(np.zeros((3, 3)), 1, grid)
    assert rep["l1_norm"] == 0.0 and rep["b_norm_pow"] == 0.0
    # scalar order-2 closed form integrates to 1/2 with unit perturbation
    grid2 = higher_ssf_fourier(np.array([[0.0]]), np.array([[1.0]]), n=2)
    rep2 = ssf_l1_report(np.array([[1.0]]), 2, grid2)
    assert rep2["l1_norm"] == pytest.approx(0.5, abs=2e-2)
    assert rep2["b_norm_pow"] == pytest.approx(1.0)


def test_auto_grid_reuses_the_eigensolves_of_the_call(monkeypatch):
    # with params=None the grid is sized from the hull the call computes
    # anyway: one eigensolve of A and one of A + B, not two of each
    A, B = generate_ensemble(ExperimentConfig(seed=7, dimension=16, order=2))
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return eig_hermitian(*args, **kwargs)

    monkeypatch.setattr(ssf_module, "eig_hermitian", counting)
    grid = higher_ssf_fourier(A, B, 2)
    assert calls == [16, 16]
    monkeypatch.undo()
    p = FourierParams.auto(A, B, 2)
    assert grid.params == {"s_max": p.s_max, "num_s": p.num_s}


def test_cli_grid_override_reuses_the_eigensolves_of_the_call(monkeypatch, tmp_path):
    # --num-s or --s-max alone: the other is sized from the hull of the
    # call's own two eigensolves, not from two more; the density is the one
    # the fully given grid yields
    A, B = generate_ensemble(ExperimentConfig(seed=7, dimension=16, order=2))
    save_matrix_csv(tmp_path / "A.csv", A)
    save_matrix_csv(tmp_path / "B.csv", B)
    auto = FourierParams.auto(A, B, 2)
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return eig_hermitian(*args, **kwargs)

    monkeypatch.setattr(ssf_module, "eig_hermitian", counting)
    for flag, value, params in (("--num-s", "16384", FourierParams(auto.s_max, 16384)),
                                ("--s-max", "35.5", FourierParams(35.5, auto.num_s))):
        calls.clear()
        out = tmp_path / f"eta{flag}.csv"
        argv = ["ssf", "--matrix-a", str(tmp_path / "A.csv"), "--matrix-b",
                str(tmp_path / "B.csv"), "--order", "2", flag, value, "--out", str(out)]
        assert cli.main(argv) == 0
        assert calls == [16, 16]
        grid = load_ssf(out, str(out) + ".json")
        assert grid.params == {"s_max": params.s_max, "num_s": params.num_s}
        np.testing.assert_array_equal(grid.values, higher_ssf_fourier(A, B, 2, params).values)


def test_remainder_trace_is_linear_in_function():
    # trace(remainder(a1 f1 + a2 f2)) equals the combination of the parts
    from moilab.families import FunctionFamily

    A, B = pair(15, 4)
    n = 2
    f1, f2 = gaussian(), runge()
    a1, a2 = 0.6, -1.3
    combo = FunctionFamily(
        "combo",
        min(f1.max_order, f2.max_order),
        lambda k, x: a1 * f1.eval(k, x) + a2 * f2.eval(k, x),
        bounded_deriv={k: True for k in range(1, 7)},
        vanishes_at_inf={k: True for k in range(1, 7)},
    )
    lhs = float(np.real(trace(taylor_remainder(combo, A, B, n))))
    t1 = float(np.real(trace(taylor_remainder(f1, A, B, n))))
    t2 = float(np.real(trace(taylor_remainder(f2, A, B, n))))
    rhs = a1 * t1 + a2 * t2
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
    # and the pairing side is linear by construction of the quadrature
    grid = higher_ssf_fourier(A, B, n=n)
    combined = np.asarray(combo.eval(n, grid.t_grid))
    split = a1 * np.asarray(f1.eval(n, grid.t_grid)) + a2 * np.asarray(f2.eval(n, grid.t_grid))
    assert grid.quadrature(combined) == pytest.approx(grid.quadrature(split), rel=1e-12)


def test_serialization_roundtrip_and_determinism(tmp_path):
    A, B = pair(16, 3)
    grids = {"fourier": (2, lambda: higher_ssf_fourier(A, B, n=2, seed=16)),
             "counting": (1, lambda: krein_ssf(A, B))}
    for method, (order, make) in grids.items():
        grid = make()
        p1 = tmp_path / f"{method}_a.csv"
        m1 = tmp_path / f"{method}_a.json"
        save_ssf(grid, p1, m1)
        grid_again = make()
        p2 = tmp_path / f"{method}_b.csv"
        m2 = tmp_path / f"{method}_b.json"
        save_ssf(grid_again, p2, m2)
        assert p1.read_bytes() == p2.read_bytes()
        assert m1.read_bytes() == m2.read_bytes()
        loaded = load_ssf(p1, m1)
        assert loaded.order == order
        assert np.array_equal(loaded.t_grid, grid.t_grid)
        assert np.array_equal(loaded.values, grid.values)
        assert loaded.method == method
        # the L1 mass is derived from the samples, which load back exactly
        assert loaded.l1_norm == grid.l1_norm
    # the counting sidecar holds both spectra, so the loaded grid pairs, bit for bit
    for f in (exponential(), gaussian()):
        assert counting_pairing(loaded, f) == counting_pairing(grid, f)
    # a counting sidecar without both spectra is refused, not a KeyError
    del loaded.params["spectrum_perturbed"]
    with pytest.raises(ParameterError, match="needs a counting-form grid"):
        counting_pairing(loaded, exponential())


_SIDECAR = '{"n": 2, "support": [0, 1]}'


@pytest.mark.parametrize("rows,sidecar,match,bad", [
    ([], _SIDECAR, "no samples after the header", "eta.csv"),
    (["0.5,1.0", "0.7"], _SIDECAR, "line 3", "eta.csv"),
    (["0.5,1.0", "0.7,one"], _SIDECAR, "line 3", "eta.csv"),
    (["0.5,1.0"], '{"n": 2,', "not JSON", "eta.json"),
    (["0.5,1.0"], "[1, 2]", "expected a JSON object, got a list", "eta.json"),
    (["0.0,1.0", "nan,2.0", "-1.0,inf"], _SIDECAR, "line 3: .* got 'nan,2.0'", "eta.csv"),
    (["0.0,1.0", "1.0,-inf"], _SIDECAR, "line 3: .* got '1.0,-inf'", "eta.csv"),
    (["0.0,1.0", "-1.0,2.0"], _SIDECAR, "line 3: .* got '-1.0,2.0'", "eta.csv"),
    (["0.5,1.0"], '{"n": "x"}', "integer \"n\" .* got 'x', None", "eta.json"),
    (["0.5,1.0"], '{"n": null}', "integer \"n\" .* got None, None", "eta.json"),
    (["0.5,1.0"], '{"n": 2.7}', "integer \"n\" .* got 2.7, None", "eta.json"),
    (["0.5,1.0"], '{"n": true}', "integer \"n\" .* got True, None", "eta.json"),
    (["0.5,1.0"], '{"support": 5}', "two-number \"support\", got None, 5", "eta.json"),
    (["0.5,1.0"], '{"support": [0, 1, 2]}', "got None, \\[0, 1, 2\\]", "eta.json"),
], ids=["header_only", "one_column", "not_a_number", "truncated_sidecar", "list_sidecar",
        "nan_t", "infinite_value", "decreasing_t", "string_n", "null_n", "float_n",
        "bool_n", "scalar_support", "three_support"])
def test_load_ssf_names_the_file_and_line_of_a_bad_csv(tmp_path, rows, sidecar, match, bad):
    # a ParameterError naming the bad file, not a raw IndexError, ValueError,
    # TypeError, JSONDecodeError or AttributeError, even where the sidecar
    # gives the support; rows that are not finite or fall in t are refused,
    # not loaded into an l1_norm of nan
    csv = tmp_path / "eta.csv"
    csv.write_text("\n".join(["t,value"] + rows) + "\n")
    (tmp_path / "eta.json").write_text(sidecar)
    with pytest.raises(ParameterError, match=match) as info:
        load_ssf(csv, tmp_path / "eta.json")
    assert str(tmp_path / bad) in str(info.value)


@pytest.mark.parametrize("A,B", [(0.4 * np.eye(3), np.zeros((3, 3))),
                                 (np.array([[1000.0]]), np.array([[1e-13]]))],
                         ids=["0.4I/0", "1000/1e-13"])
def test_grids_of_a_hull_narrower_than_their_step_load_back(tmp_path, A, B):
    # the grid steps by less than an ulp of the hull's centre, so neighbouring
    # points round to one float: a repeated t loads, a falling one does not
    for grid in (krein_ssf(A, B), higher_ssf_fourier(A, B, 2)):
        assert (np.diff(grid.t_grid) == 0).any()
        save_ssf(grid, tmp_path / "eta.csv", tmp_path / "eta.json")
        loaded = load_ssf(tmp_path / "eta.csv", tmp_path / "eta.json")
        assert np.array_equal(loaded.t_grid, grid.t_grid)
        assert np.array_equal(loaded.values, grid.values)
        assert loaded.l1_norm == grid.l1_norm
    csv = tmp_path / "eta.csv"
    csv.write_text("t,value\n0.0,1.0\n0.0,2.0\n1.0,0.0\n")
    assert load_ssf(csv, tmp_path / "eta.json").l1_norm == 1.0


def test_numpy_scalar_arguments_write_the_sidecar_of_python_scalars(tmp_path):
    A, B = np.diag([0.0, 1.0]), np.diag([0.5, 0.0])
    calls = {"python": (FourierParams(300.0, 16384), 7),
             "numpy": (FourierParams(np.float64(300.0), np.int64(16384)), np.int64(7))}
    for name, (params, seed) in calls.items():
        save_ssf(higher_ssf_fourier(A, B, 2, params, seed=seed),
                 tmp_path / f"{name}.csv", tmp_path / f"{name}.json")
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()
    assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()
    # a seed is None or an integer that is not a bool
    for seed in (True, 7.0, np.float64(7.0), "7"):
        with pytest.raises(ParameterError, match="seed must be None or an integer"):
            higher_ssf_fourier(A, B, 2, FourierParams(300.0, 16384), seed=seed)


# ---------------------------------------------------------------------------
# The reduced-arity Fourier sweep against the remainder oracle
# ---------------------------------------------------------------------------

# Bound on |F_sweep - F_oracle|: C_ROUND * eps in units of d (1 + s ||B||)^(n-1),
# the size of the terms the sweep subtracts.  Measured on 4000 draws of the
# strategy below (1000 per spectrum kind) with the merging table this bound
# was set for: the rounding ratio was at most 3.0e3 (repeated spectrum, n = 1,
# at s_max), and the constant rounds it up by 3x.  With the merge-free table
# and gaps up to 1e-2: at most 32 on the draws below, 111 on 400 random ones.
C_ROUND = 1e4


def _spectrum_pair(seed, d, kind, gap, b_norm):
    """(A, B): A = Q diag(lam) Q* with a spectrum of the given kind, B
    Hermitian of norm b_norm.  The "gap" kind puts two eigenvalues
    gap (1 + |lam|) apart."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-2.0, 2.0, d)
    if kind == "scalar":
        lam[:] = lam[0]
    elif kind == "repeated":
        lam = rng.choice(lam[:2], d)
    elif kind == "gap" and d > 1:
        lam[1] = lam[0] + gap * (1.0 + abs(lam[0]))
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    A = (Q * lam) @ Q.conj().T
    A = (A + A.conj().T) / 2
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    B = (X + X.conj().T) / 2
    return A, B * (b_norm / np.linalg.norm(B, 2))


def _sweep(EA, EAB, B, n, ds, k_lo, k_hi, step):
    """The sweep's F at s = k ds, k_lo <= k < k_hi, into a new array."""
    return ssf_module._remainder_trace_exponential(
        EA, EAB, B, n, ds, k_lo, k_hi, step, np.empty(k_hi - k_lo, dtype=complex))


def _sweep_and_oracle(A, B, n, full=False):
    """F on the first s past the exclusion zone, a middle s and the last s, by
    both routes, swept in higher_ssf_fourier's chunks.  The sweep runs on the
    offsets 2 <= k <= h of the auto window, s_max included, or with full=True
    on the offsets 2 <= k < h that higher_ssf_fourier sweeps."""
    p = FourierParams.auto(A, B, n)
    k_hi = p.num_s // 2 + (0 if full else 1)
    grid = p.ds * np.arange(2, k_hi)
    idx = np.array([0, len(grid) // 7, len(grid) - 1])
    s_vals = grid[idx]
    EA, EAB = eig_hermitian(A), eig_hermitian(A + B)
    got = _sweep(EA, EAB, B, n, p.ds, 2, k_hi, ssf_module._sweep_step(len(A), n))[idx]
    want = np.array([complex(trace(taylor_remainder(fourier(x), A, B, n))) for x in s_vals])
    return s_vals, got, want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    d=st.integers(1, 4),
    n=st.integers(1, 3),
    kind=st.sampled_from(["generic", "scalar", "repeated", "gap"]),
    gap=st.sampled_from([5e-9, 1e-8, 2e-8, 5e-8, 9e-8, 1.5e-7, 1e-6, 1e-5, 1e-4, 1e-3,
                         1e-2]),
    b_norm=st.sampled_from([0.0, 0.3, 1.0, 2.0]),
)
def test_sweep_matches_remainder_oracle(seed, d, n, kind, gap, b_norm):
    # d = 1, B = 0, A = cI, exact repeats, and near-confluent gaps from 5e-9
    # to 1e-2, across the tolerances the library used to merge at
    A, B = _spectrum_pair(seed, d, kind, gap, b_norm)
    s, got, want = _sweep_and_oracle(A, B, n)
    bound = C_ROUND * np.finfo(float).eps * d * (1.0 + s * b_norm) ** (n - 1)
    assert np.all(np.abs(got - want) <= bound), (np.abs(got - want) / bound).max()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed,d,kind", [(31, 4, "generic"), (32, 3, "gap")])
def test_sweep_on_the_full_auto_grid_matches_remainder_oracle(seed, d, n, kind):
    # the chunks and exponential tables of higher_ssf_fourier's own grid
    A, B = _spectrum_pair(seed, d, kind, 1e-4, 1.0)
    s, got, want = _sweep_and_oracle(A, B, n, full=True)
    bound = C_ROUND * np.finfo(float).eps * d * (1.0 + s) ** (n - 1)
    assert np.all(np.abs(got - want) <= bound), (np.abs(got - want) / bound).max()


def _near_switch_pair():
    """A d = 5 pair in which A's eigenvalues 0.3 and 0.3094 span less than
    tau = eps^(1/17)/s only below s = 12.8: on the grid s = k 40/300 the
    divided difference over them switches from its Taylor series to a
    quotient between k = 95 and k = 96, inside the chunk 92..98 of step 7."""
    rng = np.random.default_rng(5)
    lam = np.array([0.3, 0.3094, -1.1, 0.9, 1.7])
    Q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    A = (Q * lam) @ Q.conj().T
    X = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    B = (X + X.conj().T) / 2
    return (A + A.conj().T) / 2, B / np.linalg.norm(B, 2)


@pytest.mark.parametrize("step", [1, 7, 300])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("which", ["pair", "near_switch"])
def test_sweep_chunked_and_unchunked_agree(which, n, step):
    A, B = pair(21, 5) if which == "pair" else _near_switch_pair()
    ds = 40.0 / 300  # s = ds, 2 ds, ..., 40
    EA, EAB = eig_hermitian(A), eig_hermitian(A + B)
    if which == "near_switch":
        # the last offset at which the span is near, and the next, share a chunk
        span = EA.eigenvalues[2] - EA.eigenvalues[1]
        k = np.arange(1, 301)
        last = k[span < np.finfo(float).eps ** (1 / 17) * (1.0 / (ds * k))].max()
        assert last == 95 and (last - 1) // 7 == last // 7
    whole = _sweep(EA, EAB, B, n, ds, 1, 301, 300)
    chunked = _sweep(EA, EAB, B, n, ds, 1, 301, step)
    np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-13 * np.abs(whole).max())


@pytest.mark.parametrize("repeat", [False, True])
def test_sweep_runs_one_table_row_per_multiset(repeat, monkeypatch):
    # the k = 2 and k = 3 terms of an order-4 sweep each take one table row
    # per multiset of A's m distinct eigenvalues, C(m + k - 1, k) of them,
    # in ascending colex order (kernels._distinct_rows)
    lam = [-0.7, 0.2, 0.2 if repeat else 0.5, 1.1]
    B = pair(23, 4)[1]
    EA, EAB = eig_hermitian(np.diag(lam)), eig_hermitian(np.diag(lam) + B)
    m = len(set(EA.eigenvalues))
    assert m == (3 if repeat else 4)
    seen = []
    real = ssf_module._table_levels

    def counting(z, *args):
        seen.append(z.copy())
        return real(z, *args)

    monkeypatch.setattr(ssf_module, "_table_levels", counting)
    _sweep(EA, EAB, B, 4, 0.1, 1, 9, 8)
    assert [len(z) for z in seen] == [math.comb(m + k - 1, k) for k in (2, 3)]
    for z in seen:
        keys = [tuple(row[::-1]) for row in z]  # colex: the last node first
        assert keys == sorted(set(keys))


def test_fourier_budget_errors_before_allocation():
    A, B = pair(22, 8)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="cap"):
            higher_ssf_fourier(A, B, 2, params=FourierParams(s_max=10.0, num_s=2 ** 40))
        with pytest.raises(ParameterError, match="per s-point"):
            higher_ssf_fourier(A, B, 8)  # 7 * 8^7 entries per s-point
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_auto_num_s_is_capped_by_the_shared_constant():
    # the auto grid reads only the hull's width: a shift by cI, near or far
    # from the origin, gives the same params, within the cap
    A, B = np.diag([0.0, 3.0]), np.diag([0.5, -0.5])
    p = FourierParams.auto(A, B, 2)
    for c in (-20.0, 5.0, 1e4):
        assert FourierParams.auto(A + c * np.eye(2), B, 2) == p
    for n in (1, 2, 3):
        assert FourierParams.auto(A + 1e4 * np.eye(2), B, n).num_s <= MAX_NUM_S


def test_fourier_order1_suite_call_memory_regression():
    # the suite's order-1 call, the largest grid it inverts (2^17 steps)
    A, B = generate_ensemble(ExperimentConfig(seed=7, dimension=4, order=1))
    tracemalloc.start()
    try:
        grid = higher_ssf_fourier(A, B, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.params["num_s"] == 1 << 17
    assert peak < 3 * 2 ** 20, peak / 2 ** 20


def test_ssf_group_memory_regression():
    # the whole ssf check group at the default config; its peak is the order-1
    # call's, which holds etahat (1 MiB) and chunk-sized buffers besides
    config = ExperimentConfig(seed=7, dimension=4, order=2)
    tracemalloc.start()
    try:
        report = run_suite(config, "ssf")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.all_passed, report.records
    assert peak < 3 * 2 ** 20, peak / 2 ** 20


def _fourier_whole_array(A, B, n):
    """higher_ssf_fourier's density with the quotient, fit, taper and weights
    applied to the whole half-grid at once, on the same sweep F of the same
    spectra, less the hull's centre c."""
    p = FourierParams.auto(A, B, n)
    EA, EAB = eig_hermitian(A), eig_hermitian(A + B)
    c = 0.5 * (min(EA.eigenvalues[0], EAB.eigenvalues[0])
               + max(EA.eigenvalues[-1], EAB.eigenvalues[-1]))
    EA, EAB = (dataclasses.replace(E, eigenvalues=E.eigenvalues - c) for E in (EA, EAB))
    h, ds = p.num_s // 2, p.ds
    s = ds * np.arange(2, h)
    etahat = np.zeros(h + 1, dtype=complex)
    etahat[2:h] = _sweep(EA, EAB, B, n, ds, 2, h, ssf_module._sweep_step(len(A), n))
    etahat[2:h] /= s ** n
    etahat[2:h] *= (-1j) ** n
    eta0 = float(np.trace(np.linalg.matrix_power(B, n)).real) / math.factorial(n)
    u, ef = np.arange(2.0, 9.0), etahat[2:9]  # the fit in the offsets u = s / ds
    cr = np.linalg.lstsq(np.stack([u ** 2, u ** 4], axis=1), ef.real - eta0, rcond=None)[0]
    ci = np.linalg.lstsq(np.stack([u, u ** 3], axis=1), ef.imag, rcond=None)[0]
    uq = np.array([0.0, 1.0])
    etahat[:2] = eta0 + cr[0] * uq ** 2 + cr[1] * uq ** 4 + 1j * (ci[0] * uq + ci[1] * uq ** 3)
    cut = 0.5 * p.s_max
    taper = np.where(s > cut, 0.5 * (1.0 + np.cos(np.pi * (s - cut) / (p.s_max - cut))), 1.0)
    etahat[2:h] *= taper
    etahat *= ds
    etahat /= 2.0 * np.pi
    grid = higher_ssf_fourier(A, B, n)
    k = np.rint((grid.t_grid - c) / (np.pi / p.s_max)).astype(int)
    return grid.values, ssf_module._band_dft(etahat, k[0], len(k)).real


@pytest.mark.parametrize("d,n", [(4, 1), (6, 3), (16, 3)])
def test_fourier_chunked_finish_matches_whole_array(d, n):
    # the quotient, taper and weights are applied a sweep chunk at a time
    A, B = generate_ensemble(ExperimentConfig(seed=7, dimension=d, order=n))
    got, want = _fourier_whole_array(A, B, n)
    err = np.abs(got - want).max()
    assert err <= 4 * np.finfo(float).eps * np.abs(want).max(), err / np.abs(want).max()


# Bound on |X_band - X_fft| for the band inverse: C_BAND * eps * log2(N) * ||u||_2.
# Measured on the cases below: at most 1.8 (N = 2^10, K = 1 at k = h - 1).
C_BAND = 4


@pytest.mark.parametrize("N", [2 ** 10, 2 ** 14, 2 ** 18, 12346])
def test_band_dft_matches_full_fft(N):
    h = N // 2
    rng = np.random.default_rng(N)
    g = rng.normal(size=h + 1) + 1j * rng.normal(size=h + 1)
    g[h] = 0.0
    u = np.concatenate([g[:h], [0.0], np.conj(g[1:h][::-1])])
    full = np.fft.fft(u)
    bound = C_BAND * np.finfo(float).eps * np.log2(N) * np.linalg.norm(u)
    bands = [
        (-37, 100),             # crosses k = 0
        (-h, 50), (h - 60, 60),  # touch -h and h - 1
        (5, 1), (-h, 1), (h - 1, 1),
        (7, 2),                 # P = h: the divisor search's largest case
        (-h, h + 3), (-h, N),   # K > N/2: a single FFT
        (-3 * h // 4, h // 2),
    ]
    for k_lo, K in bands:
        got = ssf_module._band_dft(g, k_lo, K)
        want = full[(k_lo + np.arange(K)) % N]
        err = np.abs(got - want).max()
        assert err <= bound, (k_lo, K, err / bound)
        assert err <= 1e-14 * np.abs(full).max(), (k_lo, K)


def test_fourier_grid_with_no_power_of_two_split(tmp_path):
    # num_s = 12346 = 2 * 6173 with 6173 prime: no divisor of h splits N, so
    # the band inverse is one FFT; a linspace over this window would put its
    # centre point at 2.8e-14, not at 0
    A, B = generate_ensemble(ExperimentConfig(seed=7, dimension=4, order=2))
    grid = higher_ssf_fourier(A, B, 2, FourierParams(250.7, 12346))
    report = verify_trace_formula(A, B, 2, grid, [gaussian(), runge(), bump(halfwidth=4.0)])
    assert report.max_function_error() <= DEFAULT_TOLERANCES["heldout_rel"], report.rows
    assert report.max_moment_error() <= DEFAULT_TOLERANCES["moment_rel"], report.moments
    save_matrix_csv(tmp_path / "A.csv", A)
    save_matrix_csv(tmp_path / "B.csv", B)
    argv = ["ssf", "--matrix-a", str(tmp_path / "A.csv"), "--matrix-b", str(tmp_path / "B.csv"),
            "--order", "2", "--s-max", "250.7", "--num-s", "12346",
            "--out", str(tmp_path / "eta.csv")]
    assert cli.main(argv) == 0


def test_fourier_d32_order3_memory_regression():
    # and the seed-7 draws at d = 32 and d = 64, under the same bound
    draws = {"pair(23, 32)": pair(23, 32)}
    for d in (32, 64):
        draws[f"seed 7, d={d}"] = generate_ensemble(ExperimentConfig(seed=7, dimension=d, order=3))
    for draw, (A, B) in draws.items():
        tracemalloc.start()
        try:
            grid = higher_ssf_fourier(A, B, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(grid.values)), draw
        assert peak < 3.5 * 2 ** 20, (draw, peak / 2 ** 20)


# ---------------------------------------------------------------------------
# The Fourier sweep against the block-triangular expm oracle
# ---------------------------------------------------------------------------

# Bound on |F_sweep - F_expm|: C_EXPM * eps in units of d (1 + s ||B||)^(n-1),
# the size of the terms the sweep subtracts, as in the oracle test above.  The
# expm side is good to 5 eps against a 40-digit mpmath expm.  Measured on
# 12000 draws of the strategy below (36000 s-points, three seed sets) with the
# merging table, in units that also allowed its loss of eps / (s g)^(n-2) at
# eigenvalue gaps g: the ratio was at most 9.8, and the constant rounds it up
# by 3.3x.  The merge-free table needs no such allowance: at most 6.4 on the
# draws below, 10.1 on 600 random ones.
C_EXPM = 32


def _expm_remainder_trace(A, B, n, s):
    """tr R_n(e^{is.})(A, B) from scipy's expm alone.

    The top-right block of exp of the (k+1)-block upper bidiagonal matrix with
    isA on the diagonal and isB above it is the k-th Taylor term of
    t -> e^{is(A + tB)} at t = 0, so tr R_n = tr e^{is(A+B)} minus the traces
    of the terms k < n.  No eigensolve, divided difference or operator
    integral is involved.
    """
    import scipy.linalg  # oracle only

    d = len(A)
    total = np.trace(scipy.linalg.expm(1j * s * (A + B)))
    for k in range(n):
        M = np.kron(np.eye(k + 1), 1j * s * A) + np.kron(np.eye(k + 1, k=1), 1j * s * B)
        total -= np.trace(scipy.linalg.expm(M)[:d, k * d:])
    return total


def _oracle_pair(seed, d, kind, b_norm):
    """(A, B, lam): A with a generic spectrum lam in a random basis, or
    diagonal with exactly repeated eigenvalues lam; B Hermitian of norm b_norm."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-2.0, 2.0, d)
    if kind == "repeated":
        lam = rng.choice(lam[:2], d)
        A = np.diag(lam).astype(complex)
    else:
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        A = (Q * lam) @ Q.conj().T
        A = (A + A.conj().T) / 2
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    B = (X + X.conj().T) / 2
    return A, B * (b_norm / np.linalg.norm(B, 2)), lam


def _sweep_vs_expm(A, B, n, ds, k_hi, idx):
    """|F_sweep - F_expm| at the points idx of the sweep over s = k ds, 1 <= k < k_hi."""
    EA, EAB = eig_hermitian(A), eig_hermitian(A + B)
    got = _sweep(EA, EAB, B, n, ds, 1, k_hi, k_hi - 1)[idx]
    want = np.array([_expm_remainder_trace(A, B, n, s) for s in ds * (np.asarray(idx) + 1)])
    return np.abs(got - want)


def _expm_bound(lam, b_norm, n, s_vals):
    return C_EXPM * np.finfo(float).eps * len(lam) * (1.0 + s_vals * b_norm) ** (n - 1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    d=st.sampled_from([1, 2, 4]),
    n=st.integers(2, 5),
    kind=st.sampled_from(["generic", "repeated"]),
    b_norm=st.sampled_from([0.3, 1.0, 2.0]),
)
def test_sweep_matches_expm_oracle(seed, d, n, kind, b_norm):
    # s ||B|| in {0.05, 0.7, 2}; orders 4 and 5 are covered by no other test,
    # and exact repeats are the nodes the sweep exponentiates once
    A, B, lam = _oracle_pair(seed, d, kind, b_norm)
    # s ||B|| = 0.05, 0.7 and 2.0 on a grid of step 0.05 / ||B||
    ds = 0.05 / b_norm
    idx = [0, 13, 39]
    err = _sweep_vs_expm(A, B, n, ds, 41, idx)
    bound = _expm_bound(lam, b_norm, n, ds * (np.asarray(idx) + 1))
    assert np.all(err <= bound), (err / bound).max()
