"""Simulation and verification lab for 2nd-order autoregressive partial sums.

The package studies S_n = xi_1 + ... + xi_n for the stable recursion
xi_k = a xi_{k-1} + b xi_{k-2} + theta_k with symmetric i.i.d. noise,
and estimates weighted tail series of Baum-Katz type

    sum_n n^(r/p-2) P{ |S_n| > eps n^(1/p) }

by deterministic, seed-keyed Monte Carlo.

Imported before numpy, the package sets OPENBLAS_NUM_THREADS to 1 for
the whole process unless it is already set (see README, "Threads and
start-up").
"""

import os
import sys

# The lab's one BLAS/LAPACK call is np.polyfit on at most 14 points, so
# the worker threads OpenBLAS starts when numpy loads, which poll for
# work before they sleep, only cost CPU time and start-up time. Once
# numpy is loaded the setting is too late, and a child process should
# not inherit a value that did nothing here.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import ExperimentConfig, parse_config, parse_config_text
from .errors import (
    DegenerateSpectrum,
    EmptyGrid,
    HorizonOverflow,
    InfiniteMoment,
    InsufficientHorizon,
    InvalidOrder,
    InvalidParameters,
    LabError,
    NonFiniteInput,
    ParseError,
    UnstableCoefficients,
    ValidationError,
)
from .estimate import (
    MomentGrowthReport,
    SeriesEstimate,
    SeriesParams,
    TailEstimate,
    Verdict,
    default_grid,
    moment_growth_check,
    partial_series,
    tail_probability,
)
from .noise import NoiseSpec, StreamKey, absolute_moment, generator_for, sample_block
from .recurrence import (
    ARCoefficients,
    BoundReport,
    CompanionSpectrum,
    Stability,
    WeightTable,
    bound_report,
    companion_power_column,
    companion_spectrum,
    weight_closed_form,
    weight_sequence,
)
from .simulate import Path, representation_residual, simulate_path, weighted_sum

__all__ = [
    "ARCoefficients",
    "BoundReport",
    "CompanionSpectrum",
    "DegenerateSpectrum",
    "EmptyGrid",
    "ExperimentConfig",
    "HorizonOverflow",
    "InfiniteMoment",
    "InsufficientHorizon",
    "InvalidOrder",
    "InvalidParameters",
    "LabError",
    "MomentGrowthReport",
    "NoiseSpec",
    "NonFiniteInput",
    "ParseError",
    "Path",
    "SeriesEstimate",
    "SeriesParams",
    "Stability",
    "StreamKey",
    "TailEstimate",
    "UnstableCoefficients",
    "ValidationError",
    "Verdict",
    "WeightTable",
    "absolute_moment",
    "bound_report",
    "companion_power_column",
    "companion_spectrum",
    "default_grid",
    "generator_for",
    "moment_growth_check",
    "parse_config",
    "parse_config_text",
    "partial_series",
    "representation_residual",
    "sample_block",
    "simulate_path",
    "tail_probability",
    "weight_closed_form",
    "weight_sequence",
    "weighted_sum",
]

__version__ = "0.1.0"
