"""Compensated running sums.

Long cumulative sums (weight tables, partial sums of a series) must not
drift by more than ~1e-12 per 1e4 terms, which plain left-to-right
accumulation cannot promise once terms vary in magnitude.  The Neumaier
variant of Kahan summation tracks the rounding error in a carry term and
folds it in at the end.

CompensatedSum adds one term at a time; compensated_cumsum returns all
running totals of an array at once, equal to CompensatedSum's bit for bit.
"""

import numpy as np


class CompensatedSum:
    """Neumaier summation: exact to one rounding of the true sum."""

    __slots__ = ("_sum", "_carry")

    def __init__(self):
        self._sum = 0.0
        self._carry = 0.0

    def add(self, x: float) -> "CompensatedSum":
        t = self._sum + x
        if abs(self._sum) >= abs(x):
            self._carry += (self._sum - t) + x
        else:
            self._carry += (x - t) + self._sum
        self._sum = t
        return self

    @property
    def total(self) -> float:
        return self._sum + self._carry


def compensated_cumsum(values) -> np.ndarray:
    """Running totals of a 1-d array, equal to CompensatedSum's after each add.

    The plain prefix sums are one cumsum; the rounding error of each
    step is computed with the branch CompensatedSum.add takes, and the
    carry is the cumsum of those errors.  Both cumsums start from +0.0
    as the scalar accumulator does.  NaN or infinity in the input
    propagates to every later total.
    """
    x = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.cumsum(np.concatenate(([0.0], x)))
        before, after = sums[:-1], sums[1:]
        err = np.where(np.abs(before) >= np.abs(x), (before - after) + x, (x - after) + before)
        return after + np.cumsum(np.concatenate(([0.0], err)))[1:]
