"""Monte Carlo estimation of the weighted tail series.

The object of interest is

    sum_{n >= 1} n^(r/p - 2) * P{ |S_n| / n^(1/p) > eps },  0 < p < 2, r >= p,

whose convergence for every eps > 0 is the complete-convergence property
of the normalized partial sums.  Each replicate is one noise path, drawn
once in time strips, each under its own stream key, and read at every
grid point by one step-by-step walk of the AR(2) recursion; past
DENSE_MAX the state jumps whole strips by the paper's weighted sums.
Each tail probability carries a 95% Wilson interval, and the partial
sums over a finite n-grid are reported with a stabilization verdict.
"""

from __future__ import annotations

import bisect
import enum
import math

import numpy as np

from .errors import EmptyGrid, InfiniteMoment, InvalidParameters, NonFiniteInput
from .noise import NoiseSpec, StreamKey, _as_whole, _log2_abs_bound, _Record, absolute_moment, sample_block
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
# Layout 10 draws layout 9's strips, with the same keys and draws, and
# reads S_n strictly inside a strip past DENSE_MAX by the per-step walk
# from the strip's start, which changes its rounding there.
SAMPLING_LAYOUT = 10

# Every n up to this bound is on the default grid; above it only powers
# of two are (see default_grid).  The engine steps the recursion through
# every time up to it and jumps whole strips past it (see _read_paths).
DENSE_MAX = 128

# Time strips end at 1, 2, 4, ..., STRIP_STEPS and then every STRIP_STEPS
# steps.  Fixed like BLOCK_REPLICATES: each strip is one stream block, so
# strip ends are part of the sampling layout.
STRIP_STEPS = 128

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


class SeriesParams(_Record):
    """Exponents and threshold of the series: 0 < p < 2, r >= p, eps > 0."""

    __slots__ = ("p", "r", "epsilon")

    def __init__(self, p: float, r: float, epsilon: float):
        p = float(p)
        r = float(r)
        eps = float(epsilon)
        if not (math.isfinite(p) and 0.0 < p < 2.0):
            raise InvalidParameters(f"p must satisfy 0 < p < 2, got {p}")
        if not (math.isfinite(r) and r >= p):
            raise InvalidParameters(f"r must satisfy r >= p, got r={r}, p={p}")
        if not (math.isfinite(eps) and eps > 0.0):
            raise InvalidParameters(f"epsilon must be > 0, got {eps}")
        super().__init__(p, r, eps)

    @property
    def exponent(self) -> float:
        """Weight exponent r/p - 2 of the series terms."""
        return self.r / self.p - 2.0


class TailEstimate(_Record):
    """One Monte Carlo tail probability with its Wilson interval.

    at_floor: zero exceedances observed; p_hat sits on the MC floor.
    """

    __slots__ = ("n", "replications", "p_hat", "ci_low", "ci_high", "at_floor")


class Verdict(enum.Enum):
    STABILIZED = "Stabilized"
    FLOOR_LIMITED = "FloorLimited"
    GROWING = "Growing"
    DIVERGENT = "Divergent"


class MomentGrowthReport(_Record):
    """Least-squares slope of log E|S_n|^r against log n.

    bound = max(1, r/2) is the growth exponent that E|S_n|^r of a
    stable recursion with E|theta|^r < inf cannot exceed (up to a
    constant); slope materially above it signals a defect.
    """

    __slots__ = ("r", "n_grid", "estimates", "slope", "intercept", "bound", "replications")


class SeriesEstimate(_Record):
    """Per-point estimates and running sums over an n-grid.

    moments is the fit of E|S_n|^r on the same paths, None if skipped.
    """

    __slots__ = ("params", "grid", "tails", "terms", "partial_sums", "partial_sum_ci_high", "verdict", "moments")


def default_grid(n_max: int) -> list:
    """Evaluation grid policy: all of 1..n_max up to DENSE_MAX, dyadic beyond.

    Up to DENSE_MAX a grid point costs one recursion step.  Past it each
    strip of STRIP_STEPS steps is jumped in one einsum, and a point
    inside a strip costs a walk of one step per t from the strip's start,
    so the powers of two, which end strips, are the cheap grid there.
    The verdict depends on the grid too: which points share the last
    dyadic block, and the share of terms on the Monte Carlo floor,
    change with it, and bench/workloads.default_grid mirrors this policy
    in the benchmark's oracle.
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


def _read_paths(coeffs, spec, grid, replications, master_seed):
    """Yield (i, |S_n|) at every grid point n = grid[i] of every replication block.

    Sampling layout 10.  Each replicate is one noise path, read in time
    strips: the strip ending at time e follows the one ending at s and
    holds the times s < t <= e, and strips end at 1, 2, 4, ...,
    STRIP_STEPS, then every STRIP_STEPS steps.  For replication block b
    that strip is one whole block of take * (e - s) draws under
    StreamKey(master_seed, "tail", n=e, block=b), read time-major: draw
    j * take + i is row i at time s + 1 + j.  The paths are drawn to the
    end of the strip that holds grid[-1], and no step past grid[-1] is
    read, so how far the grid reaches inside that strip changes no draw,
    and every grid point of a block reads its prefix of the same paths.
    One strip buffer, sized to the longest strip and three rows of state
    and allocated per call, receives every strip of every block through
    sample_block's out, so sampling pages in no fresh memory.

    One walk steps xi_t = a xi_(t-1) + b xi_(t-2) + theta_t, S_t = S_(t-1)
    + xi_t for all rows of the block at once, in simulate_path's operation
    order, and reads every grid point it passes; up to DENSE_MAX it steps
    the state itself.  Past DENSE_MAX each strip s < t <= e moves the
    state (xi_s, xi_(s-1), S_s) to e in one jump: the state is copied
    into three rows after the strip's draws, and one np.einsum (not BLAS,
    whose bits depend on the machine) applies WeightTable.strip_jump's
    linear map to them, adding the draws in time order, then xi_s,
    xi_(s-1) and S_s, whatever the block's width.  Every strip is
    jumped whatever the grid, and a point at a strip end reads S_e; the
    points strictly inside it are read by the walk on a copy of the
    strip's start, which stops at the last of them and never feeds the
    state.  So S_n depends on the seed and n alone.

    A draw with |theta| > SET_ASIDE (+-inf included; strips are scanned
    for one only where the noise can reach it) is zeroed before the
    recursion sees it and kept aside as (row, t, theta); at each grid
    point n >= t its term U(n-t) theta is added back to its row's S_n, in
    time order.  So S_n is +-inf or NaN exactly when the weighted sum
    sum_k U(n-k) theta_k is, and the recursion itself cannot overflow.
    One weight table, to STRIP_STEPS for the jumps and to grid[-1] - 1
    for the set-aside draws, serves the call; none is built when neither
    is needed.

    The items come in block order, and within a block in grid order.
    Each row is |S_n| of the block's replicates, held in the engine's
    scratch row: it is valid until the next item is asked for, when the
    walk writes into that row again, so a caller reduces it at once.
    An infinite |S_n| is kept (it exceeds any finite threshold).  A NaN
    one, e.g. from +inf and -inf draws in one path, has no magnitude and
    is refused rather than silently miscounted; only set-aside draws
    added back can make one, so only a block that holds them is searched
    (a sum of magnitudes is NaN exactly when one of them is).
    """
    a, b = coeffs.a, coeffs.b
    ends = [0, 1]  # strip j holds the times ends[j] < t <= ends[j + 1]
    while ends[-1] < grid[-1]:
        ends.append(ends[-1] + min(ends[-1], STRIP_STEPS))
    scan = _log2_abs_bound(spec) > math.log2(SET_ASIDE) - 1
    # a strip past DENSE_MAX is jumped when the grid reaches its end
    if scan or any(DENSE_MAX < end <= grid[-1] for end in ends):
        table = weight_sequence(coeffs, max(STRIP_STEPS, grid[-1] - 1) if scan else STRIP_STEPS)
        cum, jump = table.cum, table.strip_jump(STRIP_STEPS)
    # one strip and one scratch row serve every block: no block is wider than the first, no strip longer than the last
    widest = min(BLOCK_REPLICATES, replications)
    strip, scratch_row = np.empty((ends[-1] - ends[-2] + 3) * widest), np.empty(widest)
    for block, done in enumerate(range(0, replications, BLOCK_REPLICATES)):
        take = min(BLOCK_REPLICATES, replications - done)
        # the state (xi_t, xi_(t-1), S_t) and the walk's copy or the sums ahead of it
        state, ahead = np.zeros((2, 3, take))
        prev, older, total = state
        scratch = scratch_row[:take]
        rows = times = np.empty(0, dtype=np.int64)
        aside = np.empty(0)

        def read(n, sums):
            """|S_n| of the block, held in sums, in the scratch row."""
            if not aside.size:
                return np.abs(sums, out=scratch)
            np.copyto(scratch, sums)
            now = times <= n  # the strip's later draws join only from their own time on
            with np.errstate(over="ignore", invalid="ignore"):  # inf draws make 0 * inf and inf - inf
                np.add.at(scratch, rows[now], cum[n - times[now]] * aside[now])
            np.abs(scratch, out=scratch)
            if math.isnan(np.sum(scratch)):  # a sum of |S_n| is NaN exactly when some |S_n| is
                nan_count = np.count_nonzero(np.isnan(scratch))
                raise NonFiniteInput(f"|S_n| is NaN for {nan_count} of {take} replicates at n={n}, block {block}")
            return scratch

        i = 0
        for t0, end in zip(ends, ends[1:]):
            cells = (end - t0) * take
            sample_block(spec, cells, StreamKey(master_seed, "tail", n=end, block=block), out=strip[:cells])
            theta = strip[: (min(end, grid[-1]) - t0) * take]  # no step past grid[-1] is read
            if scan and (theta.max() > SET_ASIDE or theta.min() < -SET_ASIDE):
                big = np.flatnonzero(np.abs(theta) > SET_ASIDE)
                rows = np.append(rows, big % take)
                times = np.append(times, t0 + 1 + big // take)
                aside = np.append(aside, theta[big])
                theta[big] = 0.0
            theta = theta.reshape(-1, take)
            if end <= DENSE_MAX:  # in the head the walk steps the state itself
                walk = len(theta)
                xi, earlier, sums = prev, older, total
            else:  # past it a copy of the strip's start walks to the last grid point strictly inside the strip
                inside = bisect.bisect_left(grid, end, i)  # grid[i:inside] lie inside the strip
                walk = grid[inside - 1] - t0 if inside > i else 0
                xi, earlier, sums = ahead
                if walk:
                    ahead[0], ahead[1], ahead[2] = prev, older, total
            for t, draws in enumerate(theta[:walk], start=t0 + 1):
                earlier *= b
                np.multiply(xi, a, out=scratch)
                earlier += scratch
                earlier += draws
                sums += earlier
                xi, earlier = earlier, xi
                if t == grid[i]:
                    yield i, read(t, sums)
                    i += 1
            if end <= DENSE_MAX or i == len(grid):  # the walk moved the state, or read the last grid point
                prev, older = xi, earlier
                continue
            # the jump maps (theta_(t0+1..end), xi_t0, xi_(t0-1), S_t0) to the state at end
            moved = strip[: (end - t0 + 3) * take].reshape(-1, take)
            moved[-3], moved[-2], moved[-1] = prev, older, total
            np.einsum("kj,ji->ki", jump, moved, out=ahead, optimize=False)
            state, ahead = ahead, state
            prev, older, total = state
            if grid[i] == end:
                yield i, read(end, total)
                i += 1


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
    rows = _read_paths(coeffs, spec, [n], replications, master_seed)
    count = sum(np.count_nonzero(row > threshold) for _, row in rows)
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


def _moment_points(grid) -> list:
    """The grid indices of partial_series' moment fit: its powers of two >= 16, if at least 4 (else none)."""
    points = [i for i, n in enumerate(grid) if n >= 16 and n & (n - 1) == 0]
    return points if len(points) >= 4 else []


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
    when E|theta|^r diverges, when fewer than 4 such points are on the
    grid (below n = 16 the curvature of log E|S_n|^r would tilt the
    slope), or when a sum of |S_n|^r overflows a double.

    When E|theta|^r diverges the verdict is Divergent, whatever the
    estimates: for symmetric noise and a stable pair the series then
    diverges for every eps (Baum and Katz 1965, through a Levy-type
    maximal inequality; see the README).  The estimates are still made.
    """
    grid = _as_grid(grid, "grid")
    if grid[0].bit_length() == grid[-1].bit_length():
        raise InvalidParameters(
            f"grid must reach at least two dyadic blocks [2^k, 2^(k+1)), got n = {grid[0]}..{grid[-1]}"
        )
    require_stable(coeffs, "estimation")
    replications = _as_replications(replications)
    finite = math.isfinite(absolute_moment(spec, params.r))
    moment_at = _moment_points(grid) if finite else []
    limits = [params.epsilon * float(n) ** (1.0 / params.p) for n in grid]
    counts = [0] * len(grid)
    accs = {i: CompensatedSum() for i in moment_at}
    for i, row in _read_paths(coeffs, spec, grid, replications, master_seed):
        counts[i] += np.count_nonzero(row > limits[i])
        if i in accs:
            with np.errstate(over="ignore"):  # an overflowing sum skips the fit below
                accs[i].add(float(np.sum(row ** params.r)))
    tails = [_tail_estimate(n, count, replications) for n, count in zip(grid, counts)]
    scales = [float(n) ** params.exponent for n in grid]
    terms = [scale * est.p_hat for scale, est in zip(scales, tails)]
    ci_terms = [scale * est.ci_high for scale, est in zip(scales, tails)]
    flags = [est.at_floor for est in tails]

    partial_sums = compensated_cumsum(terms).tolist()
    ci_totals = compensated_cumsum(ci_terms).tolist()
    means = [accs[i].total / replications for i in moment_at]
    moments = None
    if moment_at and all(map(math.isfinite, means)):
        moments = _moment_report(params.r, [grid[i] for i in moment_at], means, replications)
    return SeriesEstimate(
        params=params,
        grid=tuple(grid),
        tails=tuple(tails),
        terms=tuple(terms),
        partial_sums=tuple(partial_sums),
        partial_sum_ci_high=tuple(ci_totals),
        verdict=_verdict(grid, ci_terms, flags, partial_sums, ci_totals) if finite else Verdict.DIVERGENT,
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
    otherwise) and at least 4 grid points for a meaningful fit, and
    refuses with NonFiniteInput a sum of |S_n|^r beyond the largest
    double, naming the first such n.  It
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
    accs = [CompensatedSum() for _ in n_grid]
    for i, row in _read_paths(coeffs, spec, n_grid, replications, master_seed):
        with np.errstate(over="ignore"):  # an overflowing sum is refused below
            accs[i].add(float(np.sum(row ** r)))
    estimates = [acc.total / replications for acc in accs]
    for n, estimate in zip(n_grid, estimates):
        if not math.isfinite(estimate):
            raise NonFiniteInput(f"the sum of |S_n|^{r:g} overflows a double at n={n}")
    return _moment_report(r, n_grid, estimates, replications)
