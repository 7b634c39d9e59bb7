"""Public entry points on degenerate inputs: a table of entry point x input class.

Each cell states its outcome: a typed error (a MoiLabError subclass) or a
finite value, exactly zero where B = 0.  No cell may end in a raw Python
exception.
"""

import numpy as np
import pytest

from moilab.errors import DimensionMismatchError
from moilab.families import gaussian
from moilab.ssf import diagonal_symbol_trace, higher_ssf_fourier, krein_ssf
from moilab.taylor import gateaux_derivative, taylor_remainder

_X = np.random.default_rng(1).normal(size=(2, 3, 3))


def _chain_traces(A, B):
    report = diagonal_symbol_trace(A, B, n=2, f=gaussian())
    return np.array([report.restricted_trace, report.full_trace])


# each entry point as a function of (A, B), returning the array it computes
ENTRY_POINTS = {
    "gateaux_derivative": lambda A, B: gateaux_derivative(gaussian(), A, B, 2),
    "taylor_remainder": lambda A, B: taylor_remainder(gaussian(), A, B, 2),
    "higher_ssf_fourier": lambda A, B: higher_ssf_fourier(A, B, 2).values,
    "diagonal_symbol_trace": _chain_traces,
    "krein_ssf": lambda A, B: krein_ssf(A, B).values,
}

# input class -> (A, B) pairs
INPUT_CLASSES = {
    # 0 x 0 matrices: no spectrum, so no hull, grid or chunk
    "empty": [(np.zeros((0, 0)), np.zeros((0, 0)))],
    # zero-width hulls, a 1e-12-scale pair and narrow spectra far from 0
    "degenerate_hull": [
        (0.4 * np.eye(3), np.zeros((3, 3))),
        (np.zeros((2, 2)), np.zeros((2, 2))),
        (1e-12 * (_X[0] + _X[0].T), 1e-12 * (_X[1] + _X[1].T)),
        (np.array([[5.0]]), np.array([[0.002]])),
        (np.array([[1000.0]]), np.array([[0.01]])),
    ],
}

EXPECTED = {"empty": DimensionMismatchError, "degenerate_hull": None}


@pytest.mark.parametrize("input_class", list(INPUT_CLASSES))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_point_on_degenerate_input(entry, input_class):
    call, error = ENTRY_POINTS[entry], EXPECTED[input_class]
    for A, B in INPUT_CLASSES[input_class]:
        if error is not None:
            with pytest.raises(error, match="nonempty square matrix"):
                call(A, B)
            continue
        out = call(A, B)
        assert np.all(np.isfinite(out)), (entry, A, B)
        if not B.any():
            assert not np.any(out), (entry, A)
