"""Finite-dimensional multiple operator integrals and spectral shift functions.

The package realizes, for Hermitian matrices, the calculus of higher-order
directional derivatives of t -> f(A + tB): divided differences of scalar
function families, multiple operator integrals in several equivalent forms,
operator Taylor remainders and their perturbation identities, and spectral
shift densities with verified trace formulas.  The trace is the matrix
trace; a weighted diagonal norm on point masses provides the commutative
setting where the bounded-perturbation hypotheses demonstrably cannot be
dropped.
"""

import os

# One BLAS thread unless the caller set one: the matrices here are small, and
# a second OpenBLAS thread costs CPU without saving time.  OpenBLAS reads these
# variables when numpy first loads it, so they are set before any submodule
# imports numpy; a numpy imported earlier keeps the threads it started with.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .errors import (
    ConfigError,
    DimensionMismatchError,
    InversionQualityError,
    MoiLabError,
    NumericalError,
    OrderLimitError,
    ParameterError,
    ToleranceError,
)
from .families import (
    AdmissibilityReport,
    FunctionFamily,
    NodeList,
    bump,
    classify,
    divided_difference,
    divided_difference_tensor,
    exponential,
    family_from_spec,
    fourier,
    gaussian,
    monomial,
    recip_plus,
    runge,
)
from .harness import ExperimentConfig, Report, generate_ensemble, run_suite
from .moi import (
    DiagonalRestrictedSymbol,
    DividedDifferenceSymbol,
    FactorTerm,
    FactorizedSymbol,
    MOIOperands,
    MOIResult,
    Symbol,
    dd_symbol,
    exponential_symbol,
    moi_discretized,
    moi_factorized,
    moi_norm_report,
    moi_projection_sum,
    moi_trace,
    operands,
    projection_trace_weights,
)
from .rng import SplitMix64
from .spectral import (
    EigenSystem,
    apply_function,
    eig_hermitian,
    schatten_norm,
    trace,
)
from .ssf import (
    FourierParams,
    SSFGrid,
    counting_pairing,
    diagonal_symbol_trace,
    higher_ssf_fourier,
    krein_ssf,
    load_ssf,
    save_ssf,
    ssf_l1_report,
    verify_trace_formula,
)
from .taylor import (
    finite_difference_oracle,
    gateaux_derivative,
    lp_counterexample_demo,
    perturbation_first_order,
    perturbation_higher_order,
    taylor_remainder,
    telescoping_check,
)

__version__ = "0.1.0"
