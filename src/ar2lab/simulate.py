"""Path simulation and the weighted-sum representation of S_n.

Two routes to the same partial sum:

  direct:    xi_k = a*xi_{k-1} + b*xi_{k-2} + theta_k,  S_n = sum_k xi_k
  weighted:  S_n = sum_{k=1}^{n} U(n-k) * theta_k

with U the cumulative weights from the recurrence module.  Agreement of
the two routes on the same noise vector is the main self-check of the
whole pipeline; representation_residual quantifies it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, NonFiniteInput
from .recurrence import ARCoefficients, WeightTable
from .recurrence import weight_sequence  # noqa: F401  unused here, but bench/spans.py wraps it where simulate looks it up
from .summation import compensated_cumsum


@dataclass(frozen=True)
class Path:
    """One realized trajectory: innovations, states, and their sum."""

    coeffs: ARCoefficients
    n: int
    theta: np.ndarray
    xi: np.ndarray
    s_n: float


def _as_theta(theta) -> np.ndarray:
    arr = np.asarray(theta, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidParameters("theta must be a non-empty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("theta contains NaN or infinity")
    return arr


def simulate_path(coeffs: ARCoefficients, theta) -> Path:
    """Run the recursion from rest (xi_0 = xi_{-1} = 0) over theta.

    Works for any finite coefficients, stable or not; n is just
    len(theta).  S_n accumulates with compensation.
    """
    arr = _as_theta(theta)
    a, b = coeffs.a, coeffs.b
    states = []
    prev2, prev1 = 0.0, 0.0
    for t in arr.tolist():
        here = a * prev1 + b * prev2 + t
        states.append(here)
        prev2, prev1 = prev1, here
    xi = np.fromiter(states, float, arr.size)
    arr.setflags(write=False)
    xi.setflags(write=False)
    return Path(coeffs=coeffs, n=arr.size, theta=arr, xi=xi, s_n=float(compensated_cumsum(xi)[-1]))


def weighted_sum(table: WeightTable, theta) -> float:
    """S_n via sum_{k=1}^{n} U(n-k) * theta_k, compensated.

    The table must reach horizon n - 1 (InsufficientHorizon); it may
    reach further, so one table serves vectors of any length up to it.
    """
    arr = _as_theta(theta)
    n = arr.size
    table.require(n - 1)
    return float(compensated_cumsum(table.cum[n - 1 :: -1] * arr)[-1])


def representation_residual(table: WeightTable, theta) -> float:
    """|direct - weighted| / max(1, |direct|) on one noise vector.

    Both routes take the table's coefficients.
    """
    direct = simulate_path(table.coeffs, theta).s_n
    other = weighted_sum(table, theta)
    return abs(direct - other) / max(1.0, abs(direct))
