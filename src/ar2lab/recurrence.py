"""Deterministic structure of the second-order linear recursion.

The driven sequence is

    xi_k = a*xi_{k-1} + b*xi_{k-2} + theta_k,   xi_0 = xi_{-1} = 0,

and everything this module computes comes from the noise-free weights

    u_n = a*u_{n-1} + b*u_{n-2},   u_0 = 1, u_{-1} = 0,

their cumulative sums U(j) = sum_{m=0}^{j} u_m, and the companion matrix
C = [[a, b], [1, 0]].  The column identity C^s M = [[u_s, 0], [u_{s-1}, 0]]
with M = [[1, 0], [0, 0]] ties matrix powers back to the scalar recursion,
and the characteristic roots of z^2 - a*z - b govern growth and stability.
"""

from __future__ import annotations

import enum
import math
import sys

import numpy as np

from .errors import (
    DegenerateSpectrum,
    HorizonOverflow,
    InsufficientHorizon,
    InvalidParameters,
    NonFiniteInput,
    UnstableCoefficients,
)
from .noise import _as_whole, _Record
from .summation import compensated_cumsum

# Strict slack on the stability inequalities; points this close to the
# boundary are treated as outside the region.
STABILITY_SLACK = 1e-12

# |a^2 + 4b| at or below this (relative to max(1, a^2)) counts as a
# repeated root.
REPEATED_ROOT_TOL = 1e-10

# A simple-root formula cannot be trusted once the roots are this close.
ROOT_SEPARATION_TOL = 1e-10

# Tolerated imaginary leakage when a real weight is assembled from a
# complex-conjugate root pair.
IMAG_RESIDUE_TOL = 1e-9

# weight_sequence checks for overflow once per this many steps.
_WEIGHT_BLOCK = 256


class Stability(enum.Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"


class ARCoefficients(_Record):
    """Coefficient pair (a, b) with its stability classification.

    Stable means -1 < b < 1 - |a| with slack STABILITY_SLACK on both
    strict inequalities, which is equivalent to both characteristic
    roots lying strictly inside the unit circle.  stability is derived
    from a and b, not passed.
    """

    __slots__ = ("a", "b", "stability")

    def __init__(self, a: float, b: float):
        a = float(a)
        b = float(b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise NonFiniteInput(f"coefficients must be finite, got a={a}, b={b}")
        stable = (b > -1.0 + STABILITY_SLACK) and (b < 1.0 - abs(a) - STABILITY_SLACK)
        super().__init__(a, b, Stability.STABLE if stable else Stability.UNSTABLE)


def require_stable(coeffs: ARCoefficients, what: str) -> None:
    """Refuse unstable coefficients, naming what needed stable ones."""
    if coeffs.stability is not Stability.STABLE:
        raise UnstableCoefficients(f"{what} needs -1 < b < 1 - |a|, got a={coeffs.a}, b={coeffs.b}")


class CompanionSpectrum(_Record):
    """Roots of z^2 - a*z - b and derived growth data.

    rho is the spectral radius max(|lambda1|, |lambda2|); mu is the
    maximal root multiplicity (2 exactly when the discriminant a^2 + 4b
    vanishes to tolerance).  For a negative discriminant the roots form
    a conjugate pair and rho = sqrt(-b).
    """

    __slots__ = ("lambda1", "lambda2", "rho", "mu", "discriminant")


def companion_spectrum(coeffs: ARCoefficients) -> CompanionSpectrum:
    """Solve z^2 - a*z - b = 0 and report (lambda1, lambda2, rho, mu).

    lambda1 carries the + branch of (a +/- sqrt(a^2 + 4b)) / 2, so for a
    conjugate pair it has positive imaginary part.
    """
    a, b = coeffs.a, coeffs.b
    disc = a * a + 4.0 * b
    mu = 2 if abs(disc) <= REPEATED_ROOT_TOL * max(1.0, a * a) else 1
    if disc < 0.0:
        half_im = math.sqrt(-disc) / 2.0
        lam1 = complex(a / 2.0, half_im)
        lam2 = complex(a / 2.0, -half_im)
        rho = math.sqrt(-b)
    else:
        root = math.sqrt(disc)
        lam1 = complex((a + root) / 2.0, 0.0)
        lam2 = complex((a - root) / 2.0, 0.0)
        rho = max(abs(lam1.real), abs(lam2.real))
    return CompanionSpectrum(lambda1=lam1, lambda2=lam2, rho=rho, mu=mu, discriminant=disc)


def _readonly(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


class WeightTable(_Record):
    """Weights u_0..u_horizon and their running sums U(0)..U(horizon).

    Arrays are read-only; a table is safe to share between workers.
    """

    __slots__ = ("coeffs", "horizon", "u", "cum")

    def require(self, horizon: int) -> None:
        """Refuse a reader that needs weights past this table's horizon."""
        if self.horizon < horizon:
            raise InsufficientHorizon(f"weight table horizon {self.horizon} < {horizon}")

    def strip_jump(self, steps: int) -> tuple:
        """How a strip of steps >= 2 draws moves the state from its start s to its end e = s + steps.

        Returns (weights, jump), with (xi_e, xi_(e-1)) = jump @ (xi_s,
        xi_(s-1)) + weights @ (theta_(s+1), ..., theta_e).
        """
        self.require(steps)
        u, b = self.u, self.coeffs.b
        weights = np.array([u[steps - 1 :: -1], [*u[steps - 2 :: -1], 0.0]])
        jump = np.array([[u[steps], b * u[steps - 1]], [u[steps - 1], b * u[steps - 2]]])
        return weights, jump


def weight_sequence(coeffs: ARCoefficients, horizon: int) -> WeightTable:
    """Tabulate u_n = a*u_{n-1} + b*u_{n-2} and U(n) for n = 0..horizon.

    The running sums use compensated accumulation so that U(j) carries
    no visible drift even over 1e4+ terms.  Raises HorizonOverflow as
    soon as a weight leaves double range (possible only for unstable
    coefficients).
    """
    horizon = _as_whole(horizon, "horizon")
    if horizon < 0:
        raise InvalidParameters(f"horizon must be >= 0, got {horizon}")
    a, b = coeffs.a, coeffs.b
    u = [1.0]
    append = u.append
    prev2, prev1 = 0.0, 1.0  # u_{-1}, u_0
    for lo in range(1, horizon + 1, _WEIGHT_BLOCK):
        for _ in range(lo, min(lo + _WEIGHT_BLOCK, horizon + 1)):
            prev2, prev1 = prev1, a * prev1 + b * prev2
            append(prev1)
        # a and b are finite, so a non-finite weight makes every later one
        # non-finite (inf, or NaN from 0 * inf or inf - inf): the block's last
        # weight is finite exactly when all of the block's are
        if not math.isfinite(prev1):
            n = next(n for n in range(lo, len(u)) if not math.isfinite(u[n]))
            raise HorizonOverflow(f"weight u_{n} overflowed for a={a}, b={b}")
    u = _readonly(u)
    return WeightTable(coeffs=coeffs, horizon=horizon, u=u, cum=_readonly(compensated_cumsum(u)))


def weight_closed_form(spectrum: CompanionSpectrum, s: int) -> float:
    """Evaluate u_s from the characteristic roots.

    Simple roots:   u_s = (lambda1^{s+1} - lambda2^{s+1}) / (lambda1 - lambda2)
    Repeated root:  u_s = (s + 1) * (a/2)^s

    The simple-root branch runs in complex arithmetic; the imaginary
    part must cancel to within IMAG_RESIDUE_TOL * (1 + |u_s|) and only
    the real part is returned.
    """
    s = _as_whole(s, "s")
    if s < 0:
        raise InvalidParameters(f"s must be >= 0, got {s}")
    if spectrum.mu == 2:
        mid = (spectrum.lambda1 + spectrum.lambda2).real / 2.0
        try:
            return float(s + 1) * mid ** s
        except OverflowError as exc:
            raise HorizonOverflow(f"closed-form weight u_{s} overflowed") from exc
    sep = spectrum.lambda1 - spectrum.lambda2
    if abs(sep) < ROOT_SEPARATION_TOL:
        raise DegenerateSpectrum(
            f"roots separated by {abs(sep):.3e} but not flagged as repeated"
        )
    try:
        value = (spectrum.lambda1 ** (s + 1) - spectrum.lambda2 ** (s + 1)) / sep
    except OverflowError as exc:
        raise HorizonOverflow(f"closed-form weight u_{s} overflowed") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise HorizonOverflow(f"closed-form weight u_{s} overflowed")
    if abs(value.imag) > IMAG_RESIDUE_TOL * (1.0 + abs(value.real)):
        raise FloatingPointError(
            f"imaginary residue {value.imag:.3e} too large in closed-form weight u_{s}"
        )
    return value.real


def companion_power_column(coeffs: ARCoefficients, s: int) -> tuple:
    """First column of C^s M, that is (u_s, u_{s-1}), by binary powering.

    C^s is built from the squares C, C^2, C^4, ... (repeated squaring),
    so its products associate differently from the scalar recursion's
    a*u_{n-1} + b*u_{n-2}: an independent witness for the weight table,
    equal to it up to rounding rather than bit for bit.
    """
    s = _as_whole(s, "s")
    if s < 1:
        raise InvalidParameters(f"s must be >= 1, got {s}")
    a, b = coeffs.a, coeffs.b

    def times(p, q):  # 2x2 product of row-major (m00, m01, m10, m11)
        return (p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
                p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3])

    power, square, rest = (1.0, 0.0, 0.0, 1.0), (a, b, 1.0, 0.0), s  # I and C
    while rest:
        if rest & 1:
            power = times(power, square)
        square = times(square, square)
        rest >>= 1
    if not (math.isfinite(power[0]) and math.isfinite(power[2])):
        raise HorizonOverflow(f"matrix power overflowed at s={s} for a={a}, b={b}")
    return power[0], power[2]


class BoundReport(_Record):
    """Empirical envelope constants for a stable coefficient pair.

    koval_ratio_min/max bracket R(s) = ||C^s M||_F / (rho^s * s^(mu-1))
    over 1 <= s <= horizon; a two-sided envelope of that shape exists
    for every Frobenius companion matrix, so the extrema should settle
    to a bounded band.  L_star = max_j |U(j)| and cum_limit is the
    geometric-series limit 1 / (1 - a - b) of U(j).
    """

    __slots__ = ("L_star", "cum_limit", "koval_ratio_min", "koval_ratio_max", "horizon_used")


def bound_report(table: WeightTable, horizon: int) -> BoundReport:
    """Envelope constants from u_0..u_horizon and U(0..horizon) of a table reaching horizon.

    Requires stable coefficients and horizon >= 50.  The band covers
    1 <= s <= horizon while the sequential product rho^s is a normal
    double, and within that only the s whose Frobenius norm
    math.hypot(u_s, u_(s-1)) is normal too: a subnormal or zero operand
    has lost its relative precision, so its ratio carries no
    information.  horizon_used is the horizon asked for.  For the
    nilpotent pair a = b = 0 (rho = 0) no ratio is defined and the
    extrema are NaN.
    """
    coeffs = table.coeffs
    require_stable(coeffs, "bound report")
    horizon = _as_whole(horizon, "horizon")
    if horizon < 50:
        raise InvalidParameters(f"horizon must be >= 50, got {horizon}")
    table.require(horizon)
    spectrum = companion_spectrum(coeffs)
    L_star = float(np.max(np.abs(table.cum[: horizon + 1])))
    cum_limit = 1.0 / (1.0 - coeffs.a - coeffs.b)

    # R(s) for s = 1 .. stop, the s whose sequential product rho^s is normal
    rho_pow = np.cumprod(np.full(horizon, spectrum.rho))
    stop = np.count_nonzero(rho_pow >= sys.float_info.min)
    denom = rho_pow[:stop] * np.arange(1, stop + 1) if spectrum.mu == 2 else rho_pow[:stop]
    u = table.u[: stop + 1].tolist()
    norm = np.fromiter(map(math.hypot, u[1:], u), np.float64, stop)
    with np.errstate(over="ignore"):  # as a float division, an overflowing ratio is inf
        ratio = (norm / denom)[norm >= sys.float_info.min]
    ratio_min, ratio_max = (float(ratio.min()), float(ratio.max())) if ratio.size else (math.nan, math.nan)
    return BoundReport(
        L_star=L_star,
        cum_limit=cum_limit,
        koval_ratio_min=ratio_min,
        koval_ratio_max=ratio_max,
        horizon_used=horizon,
    )
