"""Finite-dimensional multiple operator integrals and spectral shift functions.

The package realizes, for Hermitian matrices, the calculus of higher-order
directional derivatives of t -> f(A + tB): divided differences of scalar
function families, multiple operator integrals in several equivalent forms,
operator Taylor remainders and their perturbation identities, and spectral
shift densities with verified trace formulas.  The trace is the matrix
trace; a weighted diagonal norm on point masses provides the commutative
setting where the bounded-perturbation hypotheses demonstrably cannot be
dropped.

``import moilab`` loads no submodule and not numpy: every name in
``__all__`` (``from moilab import gaussian``, ``moilab.run_suite``) resolves
on first access by importing the module that defines it, which then loads
its own dependencies.
"""

import importlib
import os

# One BLAS thread unless the caller set one: the matrices here are small, and
# a second OpenBLAS thread costs CPU without saving time.  OpenBLAS reads these
# variables when numpy first loads it, so they are set before any submodule
# imports numpy; a numpy imported earlier keeps the threads it started with.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

# The package namespace: each module and the public names it defines.  None
# of them is imported until one of its names is asked for (PEP 562), so a
# command loads only the modules it runs.
_EXPORTS = {
    "errors": (
        "ConfigError", "DimensionMismatchError", "InversionQualityError", "MoiLabError",
        "NumericalError", "OrderLimitError", "ParameterError", "ToleranceError",
    ),
    "families": (
        "AdmissibilityReport", "FunctionFamily", "NodeList", "bump", "classify",
        "divided_difference", "divided_difference_tensor", "exponential", "family_from_spec",
        "fourier", "gaussian", "monomial", "recip_plus", "runge",
    ),
    "harness": ("ExperimentConfig", "Report", "generate_ensemble", "run_suite"),
    "kernels": ("MOIOperands", "projection_trace_weights"),
    "moi": (
        "DiagonalRestrictedSymbol", "DividedDifferenceSymbol", "FactorTerm", "FactorizedSymbol",
        "MOIResult", "Symbol", "dd_symbol", "exponential_symbol", "moi_discretized",
        "moi_factorized", "moi_norm_report", "moi_projection_sum", "moi_trace", "operands",
    ),
    "rng": ("SplitMix64",),
    "spectral": ("EigenSystem", "apply_function", "eig_hermitian", "schatten_norm", "trace"),
    "ssf": (
        "FourierParams", "SSFGrid", "counting_pairing", "diagonal_symbol_trace",
        "higher_ssf_fourier", "krein_ssf", "load_ssf", "save_ssf", "ssf_l1_report",
        "verify_trace_formula",
    ),
    "taylor": (
        "finite_difference_oracle", "gateaux_derivative", "lp_counterexample_demo",
        "perturbation_first_order", "perturbation_higher_order", "taylor_remainder",
        "telescoping_check",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # read from the module at every access, never cached here, so that a name
    # replaced in its module is the one the package hands out
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
