"""Path simulation and the weighted-sum representation of S_n.

Two routes to the same partial sum:

  direct:    xi_k = a*xi_{k-1} + b*xi_{k-2} + theta_k,  S_n = sum_k xi_k
  weighted:  S_n = sum_{k=1}^{n} U(n-k) * theta_k

with U the cumulative weights from the recurrence module.  Agreement of
the two routes on the same noise vector is the main self-check of the
whole pipeline; representation_residual quantifies it, summing the
states that simulate_path returns.  Each function takes one path as a
1-d theta or m paths as the rows of an (m, n) theta, and its results
follow theta's shape.

The direct route steps every path and every time chunk at once.  Time is
cut into chunks of CHUNK_STEPS steps, and each (path, chunk) is one row
of a lockstep walk, which steps all rows together in the scalar
recursion's operation order, fl(fl(fl(a xi_(t-1)) + fl(b xi_(t-2))) +
theta_t), three ufunc calls per step.  Chunk 0 starts from rest; every
later chunk starts from a guess, the weighted-sum jump of its
predecessor's guessed start by the xi rows of the estimate engine's
strip operator (WeightTable.strip_jump).
Then, as in a parareal iteration (Lions, Maday & Turinici 2001) with the
jump as the coarse propagator and the exact recursion as the fine one,
each sweep walks rows not yet final (see Cost) and restarts each chunk
from the end its predecessor reached.  The walk stops once every chunk's start equals
that end, compared as 64-bit patterns: each chunk then was walked from
its predecessor's end, and chunk 0 from rest, so by induction every
state is the scalar loop's to the last bit, -0.0, inf and NaN included.

Cost: a sweep walks the rows from the first one not yet final on, at
most WINDOW_ROWS of them (one chunk of every path if there are more
paths), and leaves at least one more chunk of every path final.  So a
walk takes at most one sweep per chunk, and its work grows linearly
with n.  How many sweeps it takes depends on rho^L, the factor by which
an error in a chunk's start shrinks over the chunk (rho the spectral
radius): the guesses, and the states walked from them, are off by a few
ulps of rounding, which must die out before the bits match.  Where
rho^L is small a few sweeps settle a whole window: 10 paths of 8192
steps (640 rows) take 2, 2, 3 or 4, 3 and 9 to 15 sweeps, by seed, on
the analytic benchmark's five pairs, about a third of a scalar loop's
time.  Where rho^L is near 1 most sweeps settle one chunk, and the walk
loses to a scalar loop: (0, -0.999), rho^L = 0.94, takes 62 sweeps for
those 64 chunks, ~1.6 x the loop's time, and (0, -0.99999) one sweep per
chunk, ~4 x at 10 paths of 2^18 steps.  Unstable coefficients cost a few
sweeps: the guesses overflow to inf where the states do, so (2.5, 0.5)
takes 6 sweeps for 64 chunks.  The walk also loses on one short path,
whose one chunk still pays three ufunc calls per step (n = 1000: ~4 x).
"""

from __future__ import annotations

import numpy as np

from .errors import HorizonOverflow, InvalidParameters, NonFiniteInput
from .recurrence import ARCoefficients, WeightTable, weight_sequence
from .summation import compensated_cumsum

# Steps per time chunk of the lockstep walk.  Fixed, and free of the
# results: the walk's output is the scalar recursion's whatever its value.
CHUNK_STEPS = 128

# Rows a sweep of the walk walks at most, or one chunk of every path if
# there are more paths; free of the results too.  Near this width a
# step's work on its rows about equals the fixed cost of its three ufunc
# calls, and 10 paths of 8192 steps (640 rows) fit in one window.
WINDOW_ROWS = 1024


def _as_theta(theta) -> np.ndarray:
    arr = np.asarray(theta, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise InvalidParameters("theta must be a non-empty 1-d array or 2-d array of rows")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("theta contains NaN or infinity")
    return arr


def _start_guesses(coeffs: ARCoefficients, draws: np.ndarray, paths: int) -> np.ndarray:
    """Guessed (xi_(s-1), xi_s) at the start s of every chunk but the first, as 2 rows.

    draws is the walk's (L, rows) array of chunk draws, chunk-major.  A
    chunk's forced end, the state its draws reach from rest, is one einsum
    with the draw columns of WeightTable.strip_jump(L)'s xi rows; chunk c + 1
    starts at J start_c + forced_c, with J their carry columns: one einsum
    per chunk, in time order (einsum, not BLAS, as in the estimate
    engine).  On unstable coefficients the guesses overflow to inf where
    the states do.  Only the number of sweeps depends on these values:
    weights that overflow leave every chunk at rest.
    """
    steps = len(draws)
    try:
        op = weight_sequence(coeffs, steps).strip_jump(steps)
    except HorizonOverflow:
        return np.zeros((2, draws.shape[1] - paths))
    weights, jump = op[1::-1, :steps], op[1::-1, steps + 1 : steps - 1 : -1]  # on xi, as (xi_(s-1), xi_s)
    starts = np.einsum("kj,ji->ki", weights, draws[:, :-paths], optimize=False)
    for c in range(paths, starts.shape[1], paths):
        starts[:, c : c + paths] += np.einsum("kj,ji->ki", jump, starts[:, c - paths : c], optimize=False)
    return starts


def _walk(coeffs: ARCoefficients, theta: np.ndarray) -> tuple:
    """States of the recursion from rest over each row of a 2-d theta, and the sweeps taken."""
    paths, n = theta.shape
    chunks = -(-n // CHUNK_STEPS)
    steps = min(n, CHUNK_STEPS)
    rows = paths * chunks
    whole = n // steps  # chunks that theta fills
    # draws[t, c * paths + i] is step t of path i's chunk c; steps past n draw zeros
    draws = np.empty((steps, rows))
    full = draws[:, : whole * paths].reshape(steps, whole, paths)
    np.copyto(full, theta[:, : whole * steps].reshape(paths, whole, steps).T)
    if whole < chunks:
        draws[:, whole * paths :] = 0.0
        draws[: n - whole * steps, whole * paths :] = theta[:, whole * steps :].T
    # states[t + 2] is each row's state after step t; rows 0 and 1 hold its start (xi_(s-1), xi_s)
    states = np.zeros((steps + 2, rows))
    bits = states.view(np.uint64)
    coeff = np.array([[coeffs.b], [coeffs.a]])
    window = paths * max(1, WINDOW_ROWS // paths)
    scratch = np.empty((2, min(window, rows)))
    first = 0
    with np.errstate(over="ignore", invalid="ignore"):
        if chunks > 1:
            states[:2, paths:] = _start_guesses(coeffs, draws, paths)
        # rows before `first` are final; a sweep walks the window from it, after
        # which at least one more chunk of every path is final
        for sweeps in range(1, chunks + 1):
            last = min(rows, first + window)
            walked = slice(first, last)
            prod = scratch[:, : last - first]
            for t, (here, draw) in enumerate(zip(states[2:, walked], draws[:, walked])):
                np.multiply(states[t : t + 2, walked], coeff, out=prod)
                np.add(prod[1], prod[0], out=here)
                here += draw
            # the starts of the later chunks up to one chunk past the window
            # against the ends their predecessors reached
            lo, hi = max(paths, first), min(rows, last + paths)
            moved = np.flatnonzero((bits[steps:, lo - paths : hi - paths] != bits[:2, lo:hi]).any(axis=0))
            if not moved.size and last == rows:
                break
            # a row past the window whose start matched is final but not yet walked
            first = min(last, lo + moved[0]) if moved.size else last
            states[:2, first:hi] = states[steps:, first - paths : hi - paths]
    # the draws' buffer, read no more, receives the states path by path
    xi = draws.reshape(paths, chunks * steps)
    np.copyto(xi.reshape(paths, chunks, steps), states[2:].reshape(steps, chunks, paths).T)
    return xi[:, :n], sweeps


def _totals(values: np.ndarray):
    """Compensated sum of a 1-d array as a float, or of each row of a 2-d one."""
    if values.ndim == 1:
        return float(compensated_cumsum(values)[-1])
    return np.array([compensated_cumsum(row)[-1] for row in values])


def simulate_path(coeffs: ARCoefficients, theta) -> np.ndarray:
    """States xi_1..xi_n of the recursion from rest (xi_0 = xi_{-1} = 0) over theta, or over each of its rows.

    Works for any finite coefficients, stable or not; n is theta's last
    dimension.  Returns a new read-only float64 array shaped like theta,
    the scalar loop's states bit for bit (see the module docstring); the
    caller's theta is left as it is and shares no memory with them.
    While the walk runs it holds two arrays of theta's size besides
    theta.  Paths are cheaper
    in one call than one at a time: one path of 1000 steps costs about
    4 x a scalar loop's time, and 10 of them in one call a little less
    than 10 loops (see the module docstring).
    """
    arr = _as_theta(theta)
    xi, _ = _walk(coeffs, arr.reshape(-1, arr.shape[-1]))
    xi = xi.reshape(arr.shape)
    xi.setflags(write=False)
    return xi


def weighted_sum(table: WeightTable, theta):
    """S_n via sum_{k=1}^{n} U(n-k) * theta_k, compensated; one per row of a 2-d theta.

    The table must reach horizon n - 1 (InsufficientHorizon); it may
    reach further, so one table serves vectors of any length up to it.
    """
    arr = _as_theta(theta)
    n = arr.shape[-1]
    table.require(n - 1)
    return _totals(table.cum[n - 1 :: -1] * arr)


def representation_residual(table: WeightTable, theta):
    """|direct - weighted| / max(1, |direct|) on one noise vector, or on each row of a 2-d theta.

    Both routes take the table's coefficients.  An infinite or NaN
    direct sum gives a NaN residual.
    """
    direct = _totals(simulate_path(table.coeffs, theta))
    other = weighted_sum(table, theta)
    with np.errstate(invalid="ignore"):
        residual = np.abs(direct - other) / np.maximum(1.0, np.abs(direct))
    return float(residual) if residual.ndim == 0 else residual
