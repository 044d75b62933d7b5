"""Monte Carlo estimation of the weighted tail series.

The object of interest is

    sum_{n >= 1} n^(r/p - 2) * P{ |S_n| / n^(1/p) > eps },  0 < p < 2, r >= p,

whose convergence for every eps > 0 is the complete-convergence property
of the normalized partial sums.  Each replicate is one noise path, drawn
once in dyadic chunks and read at every grid point by one streamed
AR(2) recursion; each tail probability carries a 95% Wilson interval,
and the partial sums over a finite n-grid are reported together with a
stabilization verdict.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGrid, InfiniteMoment, InvalidParameters, NonFiniteInput
from .noise import NoiseSpec, StreamKey, _as_whole, _log2_abs_bound, absolute_moment, sample_block
from .recurrence import ARCoefficients, require_stable, weight_sequence
from .summation import CompensatedSum, compensated_cumsum

# Two-sided 95% normal quantile used by every Wilson interval here.
Z95 = 1.959963984540054

# Replicates drawn per stream block.  Fixed: block boundaries are part
# of the deterministic sampling layout, so changing this constant
# changes every estimate.
BLOCK_REPLICATES = 4096

# Version of the sampling layout described in _read_paths.  Estimates
# from different layouts agree in distribution, not draw for draw.
# Layout 7 takes normal draws' cos and sin from noise._polar_pairs
# instead of libm; every other family draws as in layout 6.
SAMPLING_LAYOUT = 7

# Every n up to this bound is on the default grid; above it only powers
# of two are (see default_grid).
DENSE_MAX = 128

# A replication block reads its draws in time strips of at most
# PATH_CELLS // 2 doubles (4 MiB), which leaves the other half for the
# sampling temporaries.  Strips only split the work; no estimate depends
# on this constant.
PATH_CELLS = 2 ** 20

# Draws beyond this magnitude are kept out of the recursion and added
# back through the weights (see _read_paths).  Below it, |xi_t| and |S_t|
# stay under n * max|U| * 2^512, far from the largest double (~2^1024).
# Only noise whose |theta| bound (noise._log2_abs_bound) is above 2^511,
# a factor 2 for rounding, is scanned for such draws: Pareto with alpha
# near 0 (P{|theta| > 2^512} is 2^(-512 alpha) at x_min = 1), Student-t
# with nu below ~0.1, uniform with c beyond 2^511.
SET_ASIDE = 2.0 ** 512

# A dyadic block is {n : 2^k <= n < 2^(k+1)}.  The verdict looks at the
# grid points falling in the highest occupied block.
STABILIZED_TAIL_SHARE = 1e-3
FLOOR_FRACTION_LIMIT = 0.25


@dataclass(frozen=True)
class SeriesParams:
    """Exponents and threshold of the series: 0 < p < 2, r >= p, eps > 0."""

    p: float
    r: float
    epsilon: float

    def __post_init__(self):
        p = float(self.p)
        r = float(self.r)
        eps = float(self.epsilon)
        if not (math.isfinite(p) and 0.0 < p < 2.0):
            raise InvalidParameters(f"p must satisfy 0 < p < 2, got {p}")
        if not (math.isfinite(r) and r >= p):
            raise InvalidParameters(f"r must satisfy r >= p, got r={r}, p={p}")
        if not (math.isfinite(eps) and eps > 0.0):
            raise InvalidParameters(f"epsilon must be > 0, got {eps}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "epsilon", eps)

    @property
    def exponent(self) -> float:
        """Weight exponent r/p - 2 of the series terms."""
        return self.r / self.p - 2.0


@dataclass(frozen=True)
class TailEstimate:
    """One Monte Carlo tail probability with its Wilson interval."""

    n: int
    replications: int
    p_hat: float
    ci_low: float
    ci_high: float
    at_floor: bool  # zero exceedances observed; p_hat sits on the MC floor


class Verdict(enum.Enum):
    STABILIZED = "Stabilized"
    FLOOR_LIMITED = "FloorLimited"
    GROWING = "Growing"


@dataclass(frozen=True)
class MomentGrowthReport:
    """Least-squares slope of log E|S_n|^r against log n.

    bound = max(1, r/2) is the growth exponent that E|S_n|^r of a
    stable recursion with E|theta|^r < inf cannot exceed (up to a
    constant); slope materially above it signals a defect.
    """

    r: float
    n_grid: tuple
    estimates: tuple
    slope: float
    intercept: float
    bound: float
    replications: int


@dataclass(frozen=True)
class SeriesEstimate:
    """Per-point estimates and running sums over an n-grid."""

    params: SeriesParams
    grid: tuple
    tails: tuple
    terms: tuple
    partial_sums: tuple
    partial_sum_ci_high: tuple
    verdict: Verdict
    moments: MomentGrowthReport | None  # the fit of E|S_n|^r on the same paths, None if skipped


def default_grid(n_max: int) -> list:
    """Evaluation grid policy: all of 1..n_max up to DENSE_MAX, dyadic beyond.

    Every grid point costs the same one recursion step, so the grid is
    not kept dyadic above DENSE_MAX for speed: the verdict depends on
    it.  Which points share the last dyadic block, and the share of
    terms on the Monte Carlo floor, change with the grid, and
    bench/workloads.default_grid mirrors this policy in the benchmark's
    oracle.
    """
    n_max = _as_whole(n_max, "n_max")
    if n_max < 1:
        raise EmptyGrid(f"n_max must be >= 1, got {n_max}")
    grid = list(range(1, min(n_max, DENSE_MAX) + 1))
    power = 2 * DENSE_MAX
    while power <= n_max:
        grid.append(power)
        power *= 2
    return grid


def wilson_interval(successes: int, total: int) -> tuple:
    """95% two-sided Wilson score interval, well-defined at 0 and total."""
    if total <= 0:
        raise InvalidParameters(f"total must be >= 1, got {total}")
    if not 0 <= successes <= total:
        raise InvalidParameters("successes must lie in [0, total]")
    p_hat = successes / total
    denom = 1.0 + Z95 * Z95 / total
    center = (p_hat + Z95 * Z95 / (2.0 * total)) / denom
    spread = Z95 * math.sqrt((p_hat * (1.0 - p_hat) + Z95 * Z95 / (4.0 * total)) / total) / denom
    # the endpoints are exact at the degenerate counts; do not let sqrt
    # rounding leak a ~1e-19 residue into them
    low = 0.0 if successes == 0 else max(0.0, center - spread)
    high = 1.0 if successes == total else min(1.0, center + spread)
    return low, high


def _as_grid(grid, what: str) -> list:
    """The grid as a list of ints, refused unless whole, strictly increasing and >= 1."""
    grid = [_as_whole(n, f"{what} point") for n in grid]
    if not grid:
        raise EmptyGrid(f"{what} is empty")
    if grid[0] < 1 or any(m >= n for m, n in zip(grid, grid[1:])):
        raise InvalidParameters(f"{what} must be strictly increasing and >= 1")
    return grid


def _as_replications(replications) -> int:
    replications = _as_whole(replications, "replications")
    if replications < 100:
        raise InvalidParameters(f"replications must be >= 100, got {replications}")
    return replications


def _read_paths(coeffs, spec, grid, replications, master_seed, thresholds, r, moment_at) -> tuple:
    """Exceedance counts and moments, read off one pass over the paths.

    Sampling layout 7 reads the paths as layout 6 did; it changed only
    the normal draws.  Each replicate is one noise path.  Its chunk k
    holds the times 2^(k-1) < t <= 2^k (chunk 0 is t = 1), and for
    replication block b that chunk is one block of take * len draws under
    StreamKey(master_seed, "tail", n=2^k, block=b), read time-major: draw
    j * take + i is row i at time 2^(k-1) + 1 + j.  A block reads its
    draws in time strips of at most PATH_CELLS // 2 draws (one time step
    at least), each a contiguous range of its chunk taken with
    sample_block's start and total, and only up to grid[-1].  So neither
    the strip size nor how far the paths run changes a draw, and every
    grid point of a block reads its prefix of the same paths.

    Over each strip the recursion xi_t = a xi_(t-1) + b xi_(t-2) + theta_t,
    S_t = S_(t-1) + xi_t steps all rows of the block at once, in
    simulate_path's operation order, holding four row vectors: xi_(t-1),
    xi_(t-2), S_t and a scratch.  |S_n| is read as t reaches each grid
    point.  A draw with |theta| > SET_ASIDE (+-inf included; strips are
    scanned for one, and U tabulated, only where the noise can reach it)
    is zeroed before the recursion sees it and kept aside as (row, t,
    theta); at each grid point n >= t its term U(n-t) theta is added back
    to its row's S_n, in time order.  So S_n is +-inf or NaN exactly when
    the weighted sum sum_k U(n-k) theta_k is, and the recursion itself
    cannot overflow.

    Returns the count of |S_n| > thresholds[i] at each grid point and
    the mean of |S_n|^r at grid[i] for i in moment_at.  Each mean adds
    one np.sum of |S_n|^r per block into a CompensatedSum, in block
    order, so it depends only on the seed, n and R.  An infinite |S_n|
    is kept (it exceeds any finite threshold); a NaN one, e.g. from
    +inf and -inf draws in one path, has no magnitude and is refused
    rather than silently miscounted.
    """
    a, b = coeffs.a, coeffs.b
    scan = _log2_abs_bound(spec) > math.log2(SET_ASIDE) - 1
    cum = weight_sequence(coeffs, grid[-1] - 1).cum if scan else None
    counts = [0] * len(grid)
    accs = {i: CompensatedSum() for i in moment_at}
    for block, done in enumerate(range(0, replications, BLOCK_REPLICATES)):
        take = min(BLOCK_REPLICATES, replications - done)
        steps = max(1, PATH_CELLS // 2 // take)
        prev, older, total, scratch = np.zeros((4, take))
        rows = times = np.empty(0, dtype=np.int64)
        aside = np.empty(0)
        i = 0
        for k in range((grid[-1] - 1).bit_length() + 1):
            end = 1 << k
            first = end // 2  # the chunk holds the times first + 1 .. end
            key = StreamKey(master_seed, "tail", n=end, block=block)
            for t0 in range(first, min(end, grid[-1]), steps):
                t1 = min(t0 + steps, end, grid[-1])
                theta = sample_block(spec, (t1 - t0) * take, key, (t0 - first) * take, (end - first) * take)
                if scan and (theta.max() > SET_ASIDE or theta.min() < -SET_ASIDE):
                    big = np.flatnonzero(np.abs(theta) > SET_ASIDE)
                    rows = np.append(rows, big % take)
                    times = np.append(times, t0 + 1 + big // take)
                    aside = np.append(aside, theta[big])
                    theta[big] = 0.0
                for t, draws in enumerate(theta.reshape(t1 - t0, take), start=t0 + 1):
                    older *= b
                    np.multiply(prev, a, out=scratch)
                    older += scratch
                    older += draws
                    total += older
                    prev, older = older, prev
                    if t < grid[i]:
                        continue
                    np.copyto(scratch, total)
                    if aside.size:
                        now = times <= t  # the strip's later draws join only from their own time on
                        with np.errstate(over="ignore", invalid="ignore"):  # inf draws make 0 * inf and inf - inf
                            np.add.at(scratch, rows[now], cum[t - times[now]] * aside[now])
                    np.abs(scratch, out=scratch)
                    nan_count = np.count_nonzero(np.isnan(scratch))
                    if nan_count:
                        raise NonFiniteInput(
                            f"|S_n| is NaN for {nan_count} of {take} replicates at n={t}, block {block}"
                        )
                    counts[i] += np.count_nonzero(scratch > thresholds[i])
                    if i in accs:
                        accs[i].add(float(np.sum(scratch ** r)))
                    i += 1
    return counts, [accs[i].total / replications for i in moment_at]


def _tail_estimate(n: int, count: int, replications: int) -> TailEstimate:
    low, high = wilson_interval(count, replications)
    return TailEstimate(n, replications, count / replications, low, high, at_floor=(count == 0))


def tail_probability(
    coeffs: ARCoefficients,
    spec: NoiseSpec,
    params: SeriesParams,
    n: int,
    replications: int,
    master_seed: int,
) -> TailEstimate:
    """Estimate P{ |S_n| > eps * n^(1/p) } by simple Monte Carlo.

    It reads the same paths as partial_series, so the result equals
    partial_series's row at n for the same seed, bit for bit.  at_floor
    flags a zero count: the point estimate is then 0 but the Wilson
    upper bound stays positive.
    """
    require_stable(coeffs, "estimation")
    n = _as_whole(n, "n")
    if n < 1:
        raise InvalidParameters(f"n must be >= 1, got {n}")
    replications = _as_replications(replications)
    threshold = params.epsilon * float(n) ** (1.0 / params.p)
    (count,), _ = _read_paths(coeffs, spec, [n], replications, master_seed, [threshold], params.r, [])
    return _tail_estimate(n, count, replications)


def _verdict(grid, ci_terms, at_floor_flags, partial_sums, ci_totals) -> Verdict:
    """Stabilization taxonomy over the evaluated grid.

    Stabilized: the point-estimate sum is identically zero, or the grid
    points in the last dyadic block contribute at most
    STABILIZED_TAIL_SHARE of the CI-upper sum.  Otherwise FloorLimited
    when at least FLOOR_FRACTION_LIMIT of the terms sit on the MC
    floor; otherwise Growing (the running sum is still accumulating
    mass that neither criterion explains away).
    """
    if partial_sums[-1] == 0.0:
        return Verdict.STABILIZED
    # the points sharing grid[-1]'s bit length form its block [2^k, 2^(k+1))
    last_block = grid[-1].bit_length()
    tail_ci = math.fsum(t for n, t in zip(grid, ci_terms) if n.bit_length() == last_block)
    if tail_ci <= STABILIZED_TAIL_SHARE * ci_totals[-1]:
        return Verdict.STABILIZED
    floor_fraction = sum(at_floor_flags) / len(at_floor_flags)
    if floor_fraction >= FLOOR_FRACTION_LIMIT:
        return Verdict.FLOOR_LIMITED
    return Verdict.GROWING


def _moment_report(r, n_grid, estimates, replications) -> MomentGrowthReport:
    """Least-squares fit of log E|S_n|^r against log n."""
    slope, intercept = np.polyfit(np.log(np.asarray(n_grid, dtype=float)), np.log(estimates), 1)
    return MomentGrowthReport(
        r, tuple(n_grid), tuple(estimates), float(slope), float(intercept), max(1.0, r / 2.0), replications
    )


def partial_series(
    coeffs: ARCoefficients,
    spec: NoiseSpec,
    params: SeriesParams,
    grid,
    replications: int,
    master_seed: int,
) -> SeriesEstimate:
    """Evaluate terms n^(r/p-2) * p_hat_n over the grid and judge them.

    The grid must be strictly increasing positive integers and reach at
    least two dyadic blocks, since the verdict weighs the last block
    against the whole sum.  One path per replicate serves every n.  A
    path's prefix does not depend on the grid, so inserting or removing
    grid points never perturbs the others; the shared paths do make the
    terms correlated across n, and the CI-upper sum is a sum of per-point
    bounds, not a simultaneous bound.

    The same pass estimates E|S_n|^r at the grid's powers of two from 16
    on and fits its log-log slope (moments), equal bit for bit to
    moment_growth_check on those n.  The fit is skipped (moments None)
    when E|theta|^r diverges or fewer than 4 such points are on the grid;
    below n = 16 the curvature of log E|S_n|^r would tilt the slope.
    """
    grid = _as_grid(grid, "grid")
    if grid[0].bit_length() == grid[-1].bit_length():
        raise InvalidParameters(
            f"grid must reach at least two dyadic blocks [2^k, 2^(k+1)), got n = {grid[0]}..{grid[-1]}"
        )
    require_stable(coeffs, "estimation")
    replications = _as_replications(replications)
    moment_at = [i for i, n in enumerate(grid) if n >= 16 and n & (n - 1) == 0]
    if len(moment_at) < 4 or not math.isfinite(absolute_moment(spec, params.r)):
        moment_at = []
    limits = [params.epsilon * float(n) ** (1.0 / params.p) for n in grid]
    counts, means = _read_paths(coeffs, spec, grid, replications, master_seed, limits, params.r, moment_at)
    tails = [_tail_estimate(n, count, replications) for n, count in zip(grid, counts)]
    scales = [float(n) ** params.exponent for n in grid]
    terms = [scale * est.p_hat for scale, est in zip(scales, tails)]
    ci_terms = [scale * est.ci_high for scale, est in zip(scales, tails)]
    flags = [est.at_floor for est in tails]

    partial_sums = compensated_cumsum(terms).tolist()
    ci_totals = compensated_cumsum(ci_terms).tolist()
    moments = None
    if moment_at:
        moments = _moment_report(params.r, [grid[i] for i in moment_at], means, replications)
    return SeriesEstimate(
        params=params,
        grid=tuple(grid),
        tails=tuple(tails),
        terms=tuple(terms),
        partial_sums=tuple(partial_sums),
        partial_sum_ci_high=tuple(ci_totals),
        verdict=_verdict(grid, ci_terms, flags, partial_sums, ci_totals),
        moments=moments,
    )


def moment_growth_check(
    coeffs: ARCoefficients,
    spec: NoiseSpec,
    r: float,
    n_grid,
    replications: int,
    master_seed: int,
) -> MomentGrowthReport:
    """Monte Carlo E|S_n|^r over a grid and its log-log slope.

    Requires the analytic E|theta|^r to be finite (InfiniteMoment
    otherwise) and at least 4 grid points for a meaningful fit.  It
    reads the same paths as partial_series, and each n's block sums are
    combined in block order, so the estimates are exactly reproducible
    for a given master seed and equal partial_series's moments at the
    same n.
    """
    require_stable(coeffs, "estimation")
    r = float(r)
    if not math.isfinite(absolute_moment(spec, r)):
        raise InfiniteMoment(f"E|theta|^{r} diverges for {spec.family}")
    n_grid = _as_grid(n_grid, "n_grid")
    if len(n_grid) < 4:
        raise InvalidParameters("n_grid needs >= 4 points for a slope fit")
    replications = _as_replications(replications)
    # an infinite threshold counts nothing; only the moments are read
    _, estimates = _read_paths(
        coeffs, spec, n_grid, replications, master_seed, [math.inf] * len(n_grid), r, range(len(n_grid))
    )
    return _moment_report(r, n_grid, estimates, replications)
