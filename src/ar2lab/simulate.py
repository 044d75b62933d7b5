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

from .errors import InsufficientHorizon, InvalidParameters, NonFiniteInput
from .recurrence import ARCoefficients, WeightTable, weight_sequence
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


def weights_for(coeffs: ARCoefficients, n: int, weights: WeightTable | None = None) -> WeightTable:
    """A weight table covering U(0)..U(n-1) for these coefficients.

    Without a table, a fresh one for exactly this n is built; a
    caller-supplied one must have been built for the same coefficients
    (InvalidParameters) and reach horizon n - 1 (InsufficientHorizon).
    """
    if weights is None:
        return weight_sequence(coeffs, n - 1)
    if weights.coeffs != coeffs:
        raise InvalidParameters("weight table was built for different coefficients")
    if weights.horizon < n - 1:
        raise InsufficientHorizon(f"weight table horizon {weights.horizon} < n - 1 = {n - 1}")
    return weights


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


def weighted_sum(coeffs: ARCoefficients, theta, weights: WeightTable | None = None) -> float:
    """S_n via sum_{k=1}^{n} U(n-k) * theta_k, compensated.

    The weight table comes from weights_for (built or checked).
    """
    arr = _as_theta(theta)
    n = arr.size
    weights = weights_for(coeffs, n, weights)
    return float(compensated_cumsum(weights.cum[n - 1 :: -1] * arr)[-1])


def representation_residual(coeffs: ARCoefficients, theta, weights: WeightTable | None = None) -> float:
    """|direct - weighted| / max(1, |direct|) on one noise vector.

    weights goes to weighted_sum, so one table can serve many vectors.
    """
    direct = simulate_path(coeffs, theta).s_n
    other = weighted_sum(coeffs, theta, weights)
    return abs(direct - other) / max(1.0, abs(direct))
