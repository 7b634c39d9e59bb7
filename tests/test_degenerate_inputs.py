"""Public entry points on degenerate inputs: a table of entry point x input class.

Each cell states its outcome: a typed error (a MoiLabError subclass) or a
finite value, exactly zero where B = 0.  No cell may end in a raw Python
exception.
"""

import warnings

import numpy as np
import pytest

from moilab.errors import DimensionMismatchError, ParameterError
from moilab.families import exponential, gaussian
from moilab.ssf import counting_pairing, higher_ssf_fourier, krein_ssf
from moilab.taylor import (
    diagonal_symbol_trace,
    finite_difference_oracle,
    gateaux_derivative,
    taylor_remainder,
)

_X = np.random.default_rng(1).normal(size=(2, 3, 3))
_SCALE = 2.0 ** -40


def _chain_traces(A, B, f=gaussian()):
    report = diagonal_symbol_trace(A, B, n=2, f=f)
    return np.array([report.restricted_trace, report.full_trace])


# each entry point as a function of (A, B), returning the array it computes
ENTRY_POINTS = {
    "gateaux_derivative": lambda A, B: gateaux_derivative(gaussian(), A, B, 2),
    "taylor_remainder": lambda A, B: taylor_remainder(gaussian(), A, B, 2),
    "higher_ssf_fourier": lambda A, B: higher_ssf_fourier(A, B, 2).values,
    "diagonal_symbol_trace": _chain_traces,
    "krein_ssf": lambda A, B: krein_ssf(A, B).values,
    "counting_pairing": lambda A, B: np.array(counting_pairing(krein_ssf(A, B), exponential())),
}

# the entry points above that take f, with exp, which overflows past 709:
# only the "exp_overflow" class runs them
EXP_ENTRY_POINTS = {
    "gateaux_derivative_exp": lambda A, B: gateaux_derivative(exponential(), A, B, 2),
    "taylor_remainder_exp": lambda A, B: taylor_remainder(exponential(), A, B, 2),
    "diagonal_symbol_trace_exp": lambda A, B: _chain_traces(A, B, exponential()),
    "finite_difference_oracle_exp": lambda A, B: finite_difference_oracle(exponential(), A, B, 2),
}

# The power of a by which an entry point's values scale as (A, B) -> (aA, aB),
# where they have no unit of their own: eta_2 has degree 1, and a counting
# density degree 0 on a grid that scales with the hull.
HOMOGENEOUS = {"higher_ssf_fourier": 1, "krein_ssf": 0}

# input class -> (A, B) pairs
INPUT_CLASSES = {
    # 0 x 0 matrices: no spectrum, so no hull, grid or chunk
    "empty": [(np.zeros((0, 0)), np.zeros((0, 0)))],
    # zero-width hulls, a 1e-12-scale pair and a narrow spectrum far from 0
    # (another, at 1000, is under "exp_overflow")
    "degenerate_hull": [
        (0.4 * np.eye(3), np.zeros((3, 3))),
        (np.zeros((2, 2)), np.zeros((2, 2))),
        (1e-12 * (_X[0] + _X[0].T), 1e-12 * (_X[1] + _X[1].T)),
        (np.array([[5.0]]), np.array([[0.002]])),
    ],
    # one eigenvalue, with B = 0 once
    "d1": [(np.array([[0.3]]), np.array([[-0.7]])), (np.array([[-2.0]]), np.zeros((1, 1)))],
    # A = cI with B != 0: every slot of the first-order chain has one eigenvalue
    "scalar_identity": [(0.7 * np.eye(3), _X[1] + _X[1].T), (-2.0 * np.eye(2), np.diag([0.5, -0.25]))],
    # a nilpotent far below norm 1, which a Hermitian check with a unit passes
    "tiny_nilpotent": [(1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))],
    # a generic pair rescaled by 2^-40; the values are checked against the
    # unscaled pair's where the entry point is homogeneous
    "rescaled": [(_SCALE * (_X[0] + _X[0].T), _SCALE * (_X[1] + _X[1].T))],
    # spectra past 709, where exp overflows: a narrow hull at 1000 and a pair at 1e8
    "exp_overflow": [
        (np.array([[1000.0]]), np.array([[0.01]])),
        (1e8 * np.diag([0.0, 1.0]), 1e8 * np.diag([0.5, 0.0])),
    ],
}

# input class -> outcome, or a dict of the outcomes that differ by entry
# point, the rest finite: an error class and the text its message holds, or
# None for finite values.  Only counting_pairing takes exp.
EXPECTED = {
    "empty": (DimensionMismatchError, "nonempty square matrix"),
    "degenerate_hull": None,
    "d1": None,
    "scalar_identity": None,
    "tiny_nilpotent": (ParameterError, "not Hermitian"),
    "rescaled": None,
    "exp_overflow": {
        "counting_pairing": (ParameterError, "not finite"),
        **{entry: (ParameterError, "not finite: f overflows") for entry in EXP_ENTRY_POINTS},
    },
}

CELLS = [(entry, input_class) for input_class in INPUT_CLASSES for entry in ENTRY_POINTS]
CELLS += [(entry, "exp_overflow") for entry in EXP_ENTRY_POINTS]


@pytest.mark.parametrize("entry, input_class", CELLS)
def test_entry_point_on_degenerate_input(entry, input_class):
    call, outcome = {**ENTRY_POINTS, **EXP_ENTRY_POINTS}[entry], EXPECTED[input_class]
    if isinstance(outcome, dict):
        outcome = outcome.get(entry)
    for A, B in INPUT_CLASSES[input_class]:
        if outcome is not None:
            # raised where the value is made, before numpy turns it into NaN
            # with an "invalid value" warning
            error, match = outcome
            with warnings.catch_warnings(), pytest.raises(error, match=match):
                warnings.filterwarnings("error", message="invalid value")
                call(A, B)
            continue
        out = call(A, B)
        assert np.all(np.isfinite(out)), (entry, A, B)
        if not B.any():
            assert not np.any(out), (entry, A)
        if entry == "gateaux_derivative" and input_class in ("d1", "scalar_identity"):
            # A = cI: every divided difference is f''(c)/2, and the derivative f''(c) B^2
            want = gaussian().eval(2, A[0, 0]) * B @ B
            assert np.abs(out - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        if input_class == "rescaled" and entry in HOMOGENEOUS:
            want = _SCALE ** HOMOGENEOUS[entry] * call(A / _SCALE, B / _SCALE)
            err = np.abs(out - want).max()
            assert err <= 16 * np.finfo(float).eps * np.abs(want).max(), err
