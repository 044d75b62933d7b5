import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ar2lab import (
    ARCoefficients,
    EmptyGrid,
    InfiniteMoment,
    InvalidParameters,
    NoiseSpec,
    NonFiniteInput,
    SeriesParams,
    StreamKey,
    UnstableCoefficients,
    Verdict,
    absolute_moment,
    bound_report,
    default_grid,
    moment_growth_check,
    partial_series,
    sample_block,
    simulate_path,
    tail_probability,
    weight_sequence,
)
from ar2lab import estimate
from ar2lab.estimate import wilson_interval
from ar2lab.noise import _log2_abs_bound
from ar2lab.summation import compensated_cumsum

STABLE = ARCoefficients(0.3, 0.2)
FREE = ARCoefficients(0.0, 0.0)  # no feedback: S_n is a plain i.i.d. sum
NORMAL = NoiseSpec("normal")
RADEMACHER = NoiseSpec("rademacher")


# --- oracles -----------------------------------------------------------------

def oracle_wilson(successes, total, z=1.959963984540054):
    """Text-book Wilson score interval, written independently."""
    phat = successes / total
    denom = 1 + z * z / total
    centre = phat + z * z / (2 * total)
    adj = z * math.sqrt((phat * (1 - phat) + z * z / (4 * total)) / total)
    return (centre - adj) / denom, (centre + adj) / denom


def oracle_rademacher_tail(n, threshold):
    """Exact P{|S_n| > t} for S_n a sum of n independent signs."""
    total = 0
    for heads in range(n + 1):
        if abs(2 * heads - n) > threshold:
            total += math.comb(n, heads)
    return total / 2 ** n


def oracle_gaussian_tail(sigma, threshold):
    return math.erfc(threshold / (sigma * math.sqrt(2.0)))


# --- Wilson intervals ----------------------------------------------------------

@given(st.integers(1, 10 ** 7))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_wilson_zero_successes_positive_upper(total):
    low, high = wilson_interval(0, total)
    assert low == 0.0
    assert high > 0.0


@given(st.integers(0, 4000), st.integers(1, 4000))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_wilson_matches_oracle_and_stays_in_unit_interval(successes, total):
    successes = min(successes, total)
    low, high = wilson_interval(successes, total)
    olow, ohigh = oracle_wilson(successes, total)
    assert low == pytest.approx(max(0.0, olow), abs=1e-12)
    assert high == pytest.approx(min(1.0, ohigh), abs=1e-12)
    assert 0.0 <= low <= successes / total <= high <= 1.0


def test_wilson_full_successes():
    low, high = wilson_interval(50, 50)
    assert high == 1.0 and low < 1.0


def test_wilson_validation():
    with pytest.raises(InvalidParameters):
        wilson_interval(1, 0)
    with pytest.raises(InvalidParameters):
        wilson_interval(5, 4)
    with pytest.raises(InvalidParameters):
        wilson_interval(-1, 4)


# --- grid policy ----------------------------------------------------------------

def test_default_grid_policy():
    assert default_grid(1) == [1]
    assert default_grid(64) == list(range(1, 65))
    assert default_grid(128) == list(range(1, 129))
    assert default_grid(200) == list(range(1, 129))
    assert default_grid(1024) == list(range(1, 129)) + [256, 512, 1024]
    assert default_grid(12.0) == default_grid(np.int64(12)) == list(range(1, 13))
    with pytest.raises(EmptyGrid):
        default_grid(0)
    # int() would end the grid at 12
    with pytest.raises(InvalidParameters, match=r"n_max must be a whole number"):
        default_grid(12.5)


# --- exact checkpoints ------------------------------------------------------------

def test_tail_certain_exceedance():
    params = SeriesParams(p=1, r=2, epsilon=0.5)
    est = tail_probability(FREE, RADEMACHER, params, 1, 1000, 1)
    assert est.p_hat == 1.0
    assert est.ci_high == 1.0
    assert not est.at_floor


def test_tail_impossible_exceedance():
    params = SeriesParams(p=1, r=2, epsilon=2.0)
    est = tail_probability(FREE, RADEMACHER, params, 1, 1000, 1)
    assert est.p_hat == 0.0
    assert est.at_floor
    assert est.ci_low == 0.0
    assert est.ci_high > 0.0


def test_tail_matches_exact_binomial():
    # P{|S_10| > 5} = 2 (C(10,0)+C(10,1)+C(10,2)) / 2^10 = 112/1024
    exact = oracle_rademacher_tail(10, 5.0)
    assert exact == 112 / 1024
    params = SeriesParams(p=1, r=2, epsilon=0.5)
    est = tail_probability(FREE, RADEMACHER, params, 10, 50000, 9)
    assert est.ci_low <= exact <= est.ci_high


def test_tail_counts_a_tie_as_no_exceedance():
    # Without feedback S_n of Rademacher noise is a whole number, so |S_8| = 4
    # ties the threshold 0.5 * 8 on 7/32 of the paths: the tail counts
    # |S_8| > 4 strictly, on the drawn paths themselves, in both estimators
    params = SeriesParams(p=1, r=2, epsilon=0.5)
    sums = np.abs(layout_paths(RADEMACHER, 9, "tail", 8).sum(axis=1))
    assert np.count_nonzero(sums == 4) > 800
    count = np.count_nonzero(sums > 4)
    assert tail_probability(FREE, RADEMACHER, params, 8, 4096, 9).p_hat * 4096 == count
    assert partial_series(FREE, RADEMACHER, params, range(1, 9), 4096, 9).tails[-1].p_hat * 4096 == count


def test_tail_matches_gaussian_oracle():
    # S_4 ~ N(0, 4) without feedback; threshold 4 gives 2*Phi(-2)
    exact = oracle_gaussian_tail(2.0, 4.0)
    params = SeriesParams(p=1, r=2, epsilon=1.0)
    est = tail_probability(FREE, NORMAL, params, 4, 100000, 1)
    se = math.sqrt(exact * (1 - exact) / est.replications)
    assert abs(est.p_hat - exact) <= 4.5 * se


def test_tail_coverage_over_seeds():
    # mini version of the acceptance run: 20 seeds, >= 16 must cover
    exact = oracle_gaussian_tail(2.0, 4.0)
    params = SeriesParams(p=1, r=2, epsilon=1.0)
    hits = 0
    for seed in range(1, 21):
        est = tail_probability(FREE, NORMAL, params, 4, 20000, seed)
        hits += est.ci_low <= exact <= est.ci_high
    assert hits >= 16


def test_tail_weighted_route_feeds_feedback():
    # with feedback the variance exceeds the i.i.d. value; check against
    # the exact weighted variance at n = 6
    table = weight_sequence(STABLE, 5)
    sigma = math.sqrt(float(np.sum(np.asarray(table.cum) ** 2)))
    exact = oracle_gaussian_tail(sigma, 6.0)
    params = SeriesParams(p=1, r=2, epsilon=1.0)
    est = tail_probability(STABLE, NORMAL, params, 6, 100000, 4)
    se = math.sqrt(exact * (1 - exact) / est.replications)
    assert abs(est.p_hat - exact) <= 4.5 * se


def layout_paths(spec, seed, purpose, width, take=4096):
    """Block 0's `take` paths to `width` steps, assembled from the documented strips:
    strips end at 1, 2, 4, ..., 128 and then every 128 steps; the strip ending at e after the
    one ending at s holds the times s < t <= e under StreamKey(seed, purpose, n=e, block=0),
    time-major: draw j * take + i is path i at time s + 1 + j."""
    strips, drawn = [], 0
    while drawn < width:
        end = drawn + max(1, min(drawn, 128))
        key = StreamKey(seed, purpose, n=end, block=0)
        strips.append(sample_block(spec, take * (end - drawn), key).reshape(end - drawn, take).T)
        drawn = end
    return np.hstack(strips)[:, :width]


def nan_rows(theta, n):
    """Paths whose first n steps hold both +inf and -inf, so that S_n is NaN."""
    head = theta[:, :n]
    return int(np.count_nonzero((head == np.inf).any(axis=1) & (head == -np.inf).any(axis=1)))


def weighted(theta, coeffs, n):
    """|S_n| of each path by its weighted sum U(n-1) theta_1 + ... + U(0) theta_n."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf draws make 0 * inf and inf - inf
        return np.abs(np.einsum("ij,j->i", theta[:, :n], weight_sequence(coeffs, n - 1).cum[::-1]))


def plain_recursion(theta, coeffs, n):
    """|S_n| of each path by the recursion alone, every draw fed in as it is."""
    xi = np.zeros((2, len(theta)))
    total = np.zeros(len(theta))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n):
            xi = np.array([coeffs.a * xi[0] + coeffs.b * xi[1] + theta[:, t], xi[0]])
            total += xi[0]
    return np.abs(total)


def test_tail_refuses_nan_sums_and_counts_infinite_ones():
    # alpha = 0.01 overflows ~0.08% of draws to +-inf; a path holding both
    # has a NaN sum, which must be refused, not counted as no exceedance
    heavy = NoiseSpec("pareto", (0.01, 1.0))
    paths = layout_paths(heavy, 2, "tail", 64)
    expected = nan_rows(paths, 64)
    assert expected > 0
    with pytest.raises(NonFiniteInput, match=rf"NaN for {expected} of 4096 replicates at n=64, block 0"):
        tail_probability(STABLE, heavy, SeriesParams(1, 2, 1), 64, 4096, 2)
    # the moment check reads the same paths and stops at the first grid
    # point whose paths hold a NaN sum
    first = next(n for n in (8, 16, 32, 64) if nan_rows(paths, n))
    assert first < 64
    expected = nan_rows(paths, first)
    with pytest.raises(NonFiniteInput, match=rf"NaN for {expected} of 4096 replicates at n={first}, block 0"):
        moment_growth_check(STABLE, heavy, 0.005, (8, 16, 32, 64), 4096, 2)
    # a lone infinite draw is an exceedance of any threshold
    theta = sample_block(heavy, 4096, StreamKey(2, "tail", n=1, block=0))
    assert np.isinf(theta).any()
    est = tail_probability(FREE, heavy, SeriesParams(1, 2, 1e300), 1, 4096, 2)
    assert est.p_hat * 4096 == np.count_nonzero(np.abs(theta) > 1e300)


@pytest.mark.parametrize("coeffs", [ARCoefficients(-0.5, 0.45), FREE, ARCoefficients(-1.5, -0.9)],
                         ids=["negative-a", "no-feedback", "oscillating"])
def test_dense_head_keeps_the_weighted_routes_nonfinite_sums(coeffs):
    # Fed to the recursion, one infinite draw becomes NaN when a or b is 0
    # (0 * inf), and inf - inf when a < 0 flips its sign at every step.
    # Draws beyond 2^512 are set aside and added back by weight instead, so
    # the refusal names the NaN count of the weighted sum, and an infinite
    # sum is counted as an exceedance
    heavy = NoiseSpec("pareto", (0.01, 1.0))
    paths = layout_paths(heavy, 1, "tail", 256)
    for n in (32, 64, 256):
        exact = weighted(paths, coeffs, n)
        nans = np.count_nonzero(np.isnan(exact))
        assert np.count_nonzero(np.isnan(plain_recursion(paths, coeffs, n))) > nans
        if n < 256:
            # no path holds both signs yet, and every path with an infinite draw sums to one
            assert nans == 0 and np.isinf(exact).sum() == np.isinf(paths[:, :n]).any(axis=1).sum() > 100
            est = tail_probability(coeffs, heavy, SeriesParams(1, 2, 1e300), n, 4096, 1)
            assert est.p_hat * 4096 == np.count_nonzero(exact > n * 1e300)
        else:
            assert nans > 0
            with pytest.raises(NonFiniteInput, match=rf"NaN for {nans} of 4096 replicates at n={n}, block 0"):
                tail_probability(coeffs, heavy, SeriesParams(1, 2, 1), n, 4096, 1)


def test_set_aside_draws_join_each_sum_from_their_own_time_on():
    # A strip is scanned for draws beyond 2^512 before the recursion steps
    # through it, so a draw at time t must join |S_n| only from n = t on.  On
    # the dense grid 1..64 each strip holds times after most of its grid
    # points; adding its later draws early made false infinite sums (seed 1,
    # from n = 3) and a false NaN refusal at n = 9 (seed 2).  Every grid
    # point is checked against the weighted sum.
    coeffs = ARCoefficients(-0.5, 0.45)
    heavy = NoiseSpec("pareto", (0.01, 1.0))
    params = SeriesParams(1, 2, 1e300)
    grid = list(range(1, 65))
    # seed 1: no path holds both signs by n = 64, so every point has a count
    paths = layout_paths(heavy, 1, "tail", 64)
    expected = [np.count_nonzero(weighted(paths, coeffs, n) > n * 1e300) for n in grid]
    assert expected[-1] > 100
    # seed 2: the refusal names the first n whose weighted sum is NaN, and its count
    paths = layout_paths(heavy, 2, "tail", 64)
    first = next(n for n in grid if np.isnan(weighted(paths, coeffs, n)).any())
    nans = np.count_nonzero(np.isnan(weighted(paths, coeffs, first)))
    est = partial_series(coeffs, heavy, params, grid, 4096, 1)
    assert [round(tail.p_hat * 4096) for tail in est.tails] == expected
    for n in (40, 50):
        assert tail_probability(coeffs, heavy, params, n, 4096, 1) == est.tails[n - 1]
    with pytest.raises(NonFiniteInput, match=rf"NaN for {nans} of 4096 replicates at n={first}, block 0"):
        partial_series(coeffs, heavy, params, grid, 4096, 2)


@pytest.mark.parametrize(
    "spec",
    [NoiseSpec("uniform", (2.0 ** 510,)), NoiseSpec("pareto", (0.106, 1024.0)), NoiseSpec("student_t", (0.1034,))],
    ids=["uniform", "pareto", "student_t"],
)
def test_unscanned_noise_reads_only_finite_rows(spec):
    # Noise whose |theta| bound (noise._log2_abs_bound) is at most 2^511 is not
    # scanned for set-aside draws, so no block holds any, and the engine searches
    # no row for a NaN: |S_n| < n max|U| 2^511 cannot overflow.  Just inside the
    # bound (log2 of it is 510, 510 and 510.9), on the slowest of the five
    # spectral classes (max|U| ~ 100), every row to n = 1024 is finite
    assert 509 < _log2_abs_bound(spec) <= math.log2(estimate.SET_ASIDE) - 1
    reads = 0
    for i, row in estimate._read_paths(ARCoefficients(0.2, 0.79), spec, range(1, 1025), 200, 5):
        assert i == reads and np.isfinite(row).all()
        reads += 1
    assert reads == 1024


def weighted_magnitude(theta, coeffs, width):
    """sum_k |U(n-k) theta_k| of each path at n = 1..width, a convolution done by FFT."""
    size = 2 * width
    cum = np.abs(weight_sequence(coeffs, width - 1).cum)
    return np.fft.irfft(np.fft.rfft(np.abs(theta[:, :width]), size) * np.fft.rfft(cum, size), size)[:, :width]


@pytest.mark.parametrize("ab", [(0.3, 0.2), (1.0, -0.25), (0.5, -0.9), (-0.5, 0.45), (0.2, 0.79)],
                         ids=["two-real", "repeated", "conjugate", "negative", "near-boundary"])
def test_dense_head_matches_the_direct_route(ab):
    # the engine's |S_n| against simulate_path's compensated prefix sums of the
    # same path at every n in 1..8192.  A block of one replicate (below the
    # public minimum of 100) makes the mean of |S_n| the path's own |S_n|; the
    # block of 100 pins the time-major reading of its strips.  Up to DENSE_MAX the
    # engine steps the same recursion with a plain running sum: at most 2.7e-14
    # relative to max(1, |S_n|) here (near-boundary).  Past it the engine jumps each
    # strip by weight and walks from the strip's start to the points inside it, so
    # the two routes round differently: the error is bounded by ulps of
    # sum_k |U(n-k) theta_k|, at most 0.86 of them here (negative)
    coeffs = ARCoefficients(*ab)
    ulp = np.finfo(float).eps
    for seed, take, width in [*((seed, 1, 1024) for seed in range(1, 16)), (0, 1, 8192), (16, 100, 8192)]:
        engine = np.empty(width)
        for i, row in estimate._read_paths(coeffs, NORMAL, range(1, width + 1), take, seed):
            engine[i] = np.sum(row) / take
        paths = layout_paths(NORMAL, seed, "tail", width, take)
        direct = np.abs([compensated_cumsum(simulate_path(coeffs, row)) for row in paths])
        error = np.abs(engine - direct.mean(axis=0))
        head = estimate.DENSE_MAX
        assert (error[:head] / np.maximum(1.0, direct[:, :head]).mean(axis=0)).max() <= 1e-12
        assert (error[head:] / weighted_magnitude(paths, coeffs, width)[:, head:].mean(axis=0)).max() <= 4 * ulp


FAMILIES = [
    NORMAL,
    RADEMACHER,
    NoiseSpec("uniform", (1.5,)),
    NoiseSpec("student_t", (5.0,)),
    NoiseSpec("pareto", (3.0, 1.0)),
]


def engine_table() -> str:
    """Exceedance counts and |S_n|^2 means of every family, as CSV text.

    default_grid(1024) with 4096 + 101 replicates runs two replication
    blocks, read in strips ending at 1, 2, 4, ..., 128 and then every 128
    steps, and the moment fit at n = 16, 32, ..., 1024.  A second section
    holds |S_n|^2 means at points strictly inside strips past DENSE_MAX,
    which default_grid never reads: one step in (129, 385), one step
    short of a strip end (383, 8191) and in between (300, 1000).
    """
    replications = estimate.BLOCK_REPLICATES + 101
    lines = ["family,n,count,moment"]
    for spec in FAMILIES:
        est = partial_series(STABLE, spec, SeriesParams(1.9, 2, 1), default_grid(1024), replications, 20221210)
        moments = dict(zip(est.moments.n_grid, est.moments.estimates))
        for tail in est.tails:
            moment = format(moments[tail.n], ".17g") if tail.n in moments else ""
            lines.append(f"{spec.family},{tail.n},{round(tail.p_hat * replications)},{moment}")
    lines.append("family,n,moment inside a strip")
    for spec in FAMILIES:
        inside = moment_growth_check(STABLE, spec, 2.0, [129, 300, 383, 385, 1000, 8191], replications, 20221210)
        lines += [f"{spec.family},{n},{moment:.17g}" for n, moment in zip(inside.n_grid, inside.estimates)]
    return "\n".join(lines) + "\n"


def test_readme_states_the_sampling_layout():
    # the README's layout section and its summary line name the layout the engine draws
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"follow sampling layout (\d+)", text) + re.findall(r"`sampling layout: (\d+)`", text)
    assert stated == [str(estimate.SAMPLING_LAYOUT)] * 2


def test_engine_matches_golden():
    # pins every bit the path engine feeds into the counts and moments
    golden = Path(__file__).parent / "data" / "golden.engine.csv"
    assert engine_table() == golden.read_text()


def test_paths_are_keyed_one_stream_per_strip(monkeypatch):
    # strips end at 1, 2, 4, ..., 128, then every 128 steps; grid[-1] = 300 lies in
    # the strip 256 < t <= 384, which each of the two blocks draws whole
    replications = estimate.BLOCK_REPLICATES + 101
    drawn = []

    def recorded(spec, count, stream_key, out=None):
        drawn.append((stream_key.master_seed, stream_key.purpose, stream_key.n, stream_key.block, count))
        return sample_block(spec, count, stream_key, out=out)

    monkeypatch.setattr(estimate, "sample_block", recorded)
    partial_series(STABLE, NORMAL, SeriesParams(1, 2, 1), [1, 150, 300], replications, 11)
    ends = [0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 384]
    assert drawn == [
        (11, "tail", end, block, take * (end - start))
        for block, take in enumerate((4096, 101))
        for start, end in zip(ends, ends[1:])
    ]
    assert sum(count for *_, count in drawn) == replications * 384


def test_strips_past_the_head_are_jumped_whatever_the_grid(monkeypatch):
    # past DENSE_MAX each strip 128 < t <= 256, ..., 896 < t <= 1024 that the grid
    # passes moves the state in one three-row strip sum; a grid point strictly
    # inside a strip is read by the per-step walk from the strip's start, which
    # takes no strip sum; a point at a strip end reads the carried sums, and the
    # last strip is not jumped when grid[-1] lies inside it
    rows = []
    einsum = np.einsum

    def recorded(subscripts, weights, theta, **kwargs):
        rows.append(len(weights))
        return einsum(subscripts, weights, theta, **kwargs)

    monkeypatch.setattr(np, "einsum", recorded)
    params = SeriesParams(1, 2, 1)
    for grid, jumps in [(range(1, 129), 0), ([64, 129], 0), (default_grid(1024), 7),
                        ([3, 256, 300, 384, 700, 1000, 1024], 7), ([200, 1000], 6)]:
        rows.clear()
        partial_series(STABLE, NORMAL, params, grid, 200, 5)
        assert rows == [3] * jumps


@pytest.mark.parametrize("spec", [NORMAL, RADEMACHER], ids=["normal", "rademacher"])
@pytest.mark.parametrize("width", [1, 2, 100, 4096])
def test_the_jump_adds_the_operators_columns_in_order(spec, width):
    # the engine's einsum of the strip operator against a strip of draws and a
    # state equals adding the operator's columns one after another, bit for bit,
    # at every block width; a C-ordered operator took numpy's contiguous dot
    # kernel at width 1, which does not add in column order
    steps = estimate.STRIP_STEPS
    op = weight_sequence(STABLE, steps).strip_jump(steps)
    moved = sample_block(spec, (steps + 3) * width, StreamKey(3, "tail", n=width, block=0)).reshape(-1, width)
    moved[-3:] *= 100.0  # a state larger than the draws, as far into a path
    sums = np.empty((3, width))
    np.einsum("kj,ji->ki", op, moved, out=sums, optimize=False)
    ordered = np.zeros((3, width))
    for column, row in zip(op.T, moved):
        ordered += column[:, None] * row
    assert np.array_equal(sums.view(np.uint64), ordered.view(np.uint64))


@pytest.mark.parametrize("spec", [NORMAL, RADEMACHER], ids=["normal", "rademacher"])
def test_a_one_row_block_reads_the_time_order_sum(spec):
    # R = 4097 leaves block 1 one replicate.  Its |S_256| walks the head to 128
    # and jumps the strip 128 < t <= 256; the reference draws the same stream keys,
    # steps the head in simulate_path's order and adds the jump's terms in time
    # order, then xi_128, xi_127 and S_128, in Python floats
    a, b = STABLE.a, STABLE.b
    cum = weight_sequence(STABLE, 128).cum.tolist()
    ends = [0, 1, 2, 4, 8, 16, 32, 64, 128, 256]
    for seed in (1, 2):
        for _, row in estimate._read_paths(STABLE, spec, [256], estimate.BLOCK_REPLICATES + 1, seed):
            last = float(row[-1])
        theta = np.concatenate([sample_block(spec, end - start, StreamKey(seed, "tail", n=end, block=1))
                                for start, end in zip(ends, ends[1:])]).tolist()
        xi = older = total = 0.0
        for draw in theta[:128]:
            xi, older = a * xi + b * older + draw, xi
            total += xi
        s_e = 0.0
        for weight, term in zip([*cum[127::-1], cum[128] - 1.0, b * cum[127], 1.0], [*theta[128:], xi, older, total]):
            s_e += weight * term
        assert last == abs(s_e), seed


def test_an_estimate_builds_at_most_one_weight_table(monkeypatch):
    # the jumps need U and u to STRIP_STEPS, the set-aside draws U to grid[-1] - 1;
    # one table serves both, and none is built for noise that is never scanned
    # unless the grid reaches the end of a strip past the dense head, 256: the
    # strip 128 < t <= 256 is only walked to 129 or 255
    built = []

    def recorded(coeffs, horizon):
        built.append(horizon)
        return weight_sequence(coeffs, horizon)

    monkeypatch.setattr(estimate, "weight_sequence", recorded)
    params = SeriesParams(1, 2, 1)
    scanned = NoiseSpec("pareto", (0.09, 1.0))  # |theta| can pass 2^512, with probability 2^-46 per draw
    for spec, grid, horizons in [(NORMAL, range(1, 129), []), (NORMAL, [2, 129], []), (NORMAL, [2, 255], []),
                                 (NORMAL, [2, 256], [estimate.STRIP_STEPS]),
                                 (NORMAL, default_grid(1024), [estimate.STRIP_STEPS]),
                                 (scanned, [2, 64], [estimate.STRIP_STEPS]), (scanned, [2, 1000], [999])]:
        built.clear()
        partial_series(STABLE, spec, params, grid, 200, 5)
        assert built == horizons


def dispatch_probe() -> str:
    """Counts, partial sums and moments past DENSE_MAX, envelope bands and paths, as text.

    Rademacher and uniform noise, two replication blocks, and a grid whose
    points 300, 383 and 1000 lie inside strips; the bands are the bound
    reports at horizon 8192 of the five spectral classes, and the paths
    are simulate_path's lockstep walks of 10 uniform and 10 Rademacher
    rows of 8192 steps at each of them, as a digest of their states' bits.
    """
    grid = sorted(default_grid(2048) + [300, 383, 1000])
    replications = estimate.BLOCK_REPLICATES + 101
    lines = []
    for spec in (RADEMACHER, NoiseSpec("uniform", (1.5,))):
        est = partial_series(STABLE, spec, SeriesParams(1.5, 2, 1), grid, replications, 23)
        lines += [repr([round(t.p_hat * replications) for t in est.tails]), repr(est.partial_sums),
                  repr(est.moments.estimates)]
    for ab in ((0.3, 0.2), (1.0, -0.25), (0.5, -0.9), (-0.5, 0.45), (0.2, 0.79)):
        report = bound_report(weight_sequence(ARCoefficients(*ab), 8192), 8192)
        lines.append(repr((report.koval_ratio_min, report.koval_ratio_max)))
        for spec in (NoiseSpec("uniform", (1.0,)), RADEMACHER):
            theta = np.array([sample_block(spec, 8192, StreamKey(29, "path", n=8192, block=i)) for i in range(10)])
            xi = simulate_path(ARCoefficients(*ab), theta)
            sums = [compensated_cumsum(row)[-1] for row in xi]
            lines.append(hashlib.sha256(xi.tobytes()).hexdigest() + " " + repr(sums))
    return "\n".join(lines)


def test_engine_bits_do_not_depend_on_numpy_simd_dispatch():
    # numpy picks SIMD loops by CPU at run time; the strip sums, the recursion
    # and the reductions must give the same bits with every dispatched feature
    # turned off.  The feature names come from numpy itself.
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    disabled = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    paths = [Path(estimate.__file__).resolve().parents[1], Path(__file__).parent, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled),
               PYTHONPATH=os.pathsep.join(str(path) for path in paths if path))
    probe = "import test_estimate; print(test_estimate.dispatch_probe(), end='')"
    child = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert child.stdout == dispatch_probe()


# the layout's longest strip: STRIP_STEPS time steps of a full block, in bytes
STRIP_BYTES = 8 * estimate.STRIP_STEPS * estimate.BLOCK_REPLICATES


def test_path_memory_stays_within_the_budget():
    # one unsplit block at n = 2^13 would hold 4096 x 8192 doubles (256 MiB) of
    # paths.  Read in time strips, it holds one strip of STRIP_STEPS steps (and
    # the three rows after it that the strip jump reads) with its sampling
    # temporaries and four rows of state, about 1.15 x STRIP_BYTES.
    tracemalloc.start()
    try:
        tail_probability(STABLE, NORMAL, SeriesParams(1, 2, 1), 2 ** 13, 4096, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * STRIP_BYTES


def test_path_memory_is_one_reused_strip():
    # n = 2^13, R = 4096: every strip is sampled into one buffer of STRIP_STEPS
    # steps (STRIP_BYTES) and the grid reads allocate nothing, so the peak is
    # the strip (and the three rows after it), the normal kernel's chunk arrays
    # and four rows of state, about 1.15 x STRIP_BYTES.  A fresh strip and its
    # two half-size uniform arrays per call would be 3.1 x.
    tracemalloc.start()
    try:
        tail_probability(STABLE, NORMAL, SeriesParams(1, 2, 1), 2 ** 13, 4096, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * STRIP_BYTES


def test_sums_memory_stays_within_the_budget_on_a_dense_grid():
    # grid 1..128 at R = 4096: its longest strip is 64 < t <= 128, half of
    # STRIP_BYTES (2 MiB), and each |S_n| is reduced as the recursion reaches n,
    # in the block's one row of scratch, so the peak is that strip with its
    # sampling temporaries and the four rows of state, about 2.6 MiB.  Holding
    # the whole block's 128 x 4096 |S_n| (4 MiB) besides would be 6.5 MiB.
    tracemalloc.start()
    try:
        partial_series(STABLE, NORMAL, SeriesParams(1, 2, 1), range(1, 129), 4096, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * STRIP_BYTES


def test_tail_validation():
    params = SeriesParams(p=1, r=2, epsilon=1.0)
    with pytest.raises(UnstableCoefficients):
        tail_probability(ARCoefficients(1.0, 0.5), NORMAL, params, 4, 1000, 1)
    with pytest.raises(InvalidParameters):
        tail_probability(FREE, NORMAL, params, 0, 1000, 1)
    with pytest.raises(InvalidParameters):
        tail_probability(FREE, NORMAL, params, 4, 99, 1)


def test_series_params_validation():
    with pytest.raises(InvalidParameters):
        SeriesParams(p=0.0, r=1.0, epsilon=1.0)
    with pytest.raises(InvalidParameters):
        SeriesParams(p=2.0, r=2.0, epsilon=1.0)
    with pytest.raises(InvalidParameters):
        SeriesParams(p=1.0, r=0.5, epsilon=1.0)
    with pytest.raises(InvalidParameters):
        SeriesParams(p=1.0, r=2.0, epsilon=0.0)
    assert SeriesParams(p=1.0, r=1.0, epsilon=0.1).exponent == -1.0
    assert SeriesParams(p=1.0, r=2.0, epsilon=0.1).exponent == 0.0


# --- scale equivariance ------------------------------------------------------------

def test_scale_equivariance_uniform_dyadic():
    # theta -> 2 theta and eps -> 2 eps is exact in binary floating point
    base = tail_probability(
        STABLE, NoiseSpec("uniform", (1.0,)), SeriesParams(1, 2, 0.25), 12, 20000, 5
    )
    scaled = tail_probability(
        STABLE, NoiseSpec("uniform", (2.0,)), SeriesParams(1, 2, 0.5), 12, 20000, 5
    )
    assert base.p_hat == scaled.p_hat


def test_scale_equivariance_pareto_dyadic():
    base = tail_probability(
        STABLE, NoiseSpec("pareto", (2.5, 1.0)), SeriesParams(1, 2, 4.0), 9, 20000, 6
    )
    scaled = tail_probability(
        STABLE, NoiseSpec("pareto", (2.5, 2.0)), SeriesParams(1, 2, 8.0), 9, 20000, 6
    )
    assert base.p_hat == scaled.p_hat


# --- partial series ------------------------------------------------------------

def test_partial_series_structure_and_monotonicity():
    series = partial_series(STABLE, NORMAL, SeriesParams(1, 2, 1), range(1, 25), 2000, 11)
    assert series.grid == tuple(range(1, 25))
    assert len(series.tails) == len(series.terms) == len(series.partial_sums) == 24
    sums = np.asarray(series.partial_sums)
    assert np.all(np.diff(sums) >= -1e-15)
    # CI-upper running sum dominates the point estimate sum everywhere
    assert all(c >= s for s, c in zip(series.partial_sums, series.partial_sum_ci_high))
    # terms recompute from tails: n^(r/p - 2) = 1 here
    for tail, term in zip(series.tails, series.terms):
        assert term == tail.p_hat


def test_partial_series_spitzer_weights():
    # r = p = 1: terms carry 1/n
    series = partial_series(STABLE, NORMAL, SeriesParams(1, 1, 1), range(1, 9), 500, 2)
    for tail, term in zip(series.tails, series.terms):
        assert term == pytest.approx(tail.p_hat / tail.n, rel=1e-15, abs=0)


def test_partial_series_is_deterministic():
    one = partial_series(STABLE, NORMAL, SeriesParams(1, 2, 1), range(1, 17), 1000, 21)
    two = partial_series(STABLE, NORMAL, SeriesParams(1, 2, 1), range(1, 17), 1000, 21)
    assert one == two


def test_partial_series_grid_insensitive_per_point():
    # the estimate at n depends only on (seed, n), not on the rest of the grid,
    # also when another grid draws the paths further (to 8192 against 64), or
    # stops inside a strip: at 40, at 300, 44 steps into the strip 256 < t <= 384,
    # whose draws must still be read as part of the whole strip, and at 1000.
    # Past DENSE_MAX a point inside a strip (300, 383, 385, 1000, 8191) is walked to
    # from the strip's start and a strip end (256, 384, 1024) reads the carried
    # sums; neither may depend on which points the grid holds in or before its strip
    params = SeriesParams(1, 2, 1)
    points = [129, 300, 383, 384, 385, 1000, 8191]
    dense = partial_series(STABLE, NORMAL, params, sorted(default_grid(8192) + points), 1000, 21)
    by_n = {t.n: t for t in dense.tails}
    grids = [range(1, 17), [4, 8, 16], [1, 2, 4, 8, 16, 100, 300], [3, 40], range(1, 65), [3, 100, 129, 300],
             [200, 383, 384, 385], [256, 385, 1000], [3, 1000, 8191], [130, 8192]]
    for grid in grids:
        for tail in partial_series(STABLE, NORMAL, params, grid, 1000, 21).tails:
            if tail.n in by_n:
                assert tail == by_n[tail.n]
    # tail_probability is the one-point case of the same engine
    for n in (1, 3, 40, 128, 129, 256, 300, 383, 384, 385, 1000, 1024, 8191):
        assert tail_probability(STABLE, NORMAL, params, n, 1000, 21) == by_n[n]
    # the moments see every bit of |S_n|: the same on short grids, whose points
    # inside strips differ from the dense grid's
    moments = dict(zip(dense.moments.n_grid, dense.moments.estimates))
    for grid in ([3, 16, 40, 64, 256], [16, 200, 256, 1024, 1500, 2048], [300, 512, 700, 4096, 8000, 8192]):
        short = moment_growth_check(STABLE, NORMAL, 2.0, grid, 1000, 21)
        for n, moment in zip(short.n_grid, short.estimates):
            if n in moments:
                assert moment == moments[n]


def test_wilson_coverage_against_exact_gaussian_tail():
    # S_n ~ N(0, sum_{k<n} U(k)^2) exactly for normal noise; p = 1, eps = 1
    # puts the threshold at n.  Every grid point's 95% interval, 40 seeds.
    grid = range(1, 33)
    cum = np.asarray(weight_sequence(STABLE, 31).cum)
    exact = [math.erfc(n / math.sqrt(2.0 * float(np.sum(cum[:n] ** 2)))) for n in grid]
    hits = np.zeros(len(grid), dtype=int)
    for seed in range(1, 41):
        series = partial_series(STABLE, NORMAL, SeriesParams(1, 2, 1), grid, 2000, seed)
        hits += [t.ci_low <= p <= t.ci_high for t, p in zip(series.tails, exact)]
    assert hits.sum() >= 1178  # of 1280
    assert hits.min() >= 32  # of 40 at every point


def test_verdict_zero_series_stabilizes():
    # eps so large that no path can exceed it: every term exactly zero
    series = partial_series(STABLE, RADEMACHER, SeriesParams(1, 2, 3.0), range(1, 17), 500, 3)
    assert series.partial_sums[-1] == 0.0
    assert all(t.at_floor for t in series.tails)
    assert series.verdict is Verdict.STABILIZED


def test_verdict_growing_on_truncated_grid():
    series = partial_series(STABLE, NORMAL, SeriesParams(1, 2, 1), range(1, 9), 2000, 3)
    assert not any(t.at_floor for t in series.tails)
    assert series.verdict is Verdict.GROWING


def test_moment_sums_beyond_the_largest_double_are_refused_not_nan():
    # E|theta|^2 = 1e306 / 3 is finite, but |S_n|^2 of these paths is not a
    # double; a compensated sum's carry would turn inf - inf into a silent NaN
    # estimate and a NaN slope
    wide = NoiseSpec("uniform", (1e153,))
    with pytest.raises(NonFiniteInput, match=r"^the sum of \|S_n\|\^2 overflows a double at n=16$"):
        moment_growth_check(STABLE, wide, 2, [16, 32, 64, 128], 1000, 1)
    # the series skips its fit and keeps its tails
    series = partial_series(STABLE, wide, SeriesParams(1, 2, 1), default_grid(256), 1000, 1)
    assert series.moments is None and series.verdict is not Verdict.DIVERGENT
    assert series.tails[-1] == tail_probability(STABLE, wide, SeriesParams(1, 2, 1), 256, 1000, 1)
    # a hundredth of the width fits
    assert partial_series(STABLE, NoiseSpec("uniform", (1e151,)), SeriesParams(1, 2, 1), default_grid(256), 1000,
                          1).moments is not None


def test_verdict_floor_limited():
    series = partial_series(STABLE, NORMAL, SeriesParams(1, 2, 1), range(1, 97), 200, 3)
    floor_fraction = sum(t.at_floor for t in series.tails) / len(series.tails)
    assert floor_fraction >= 0.25
    assert series.verdict is Verdict.FLOOR_LIMITED


@pytest.mark.parametrize(
    "spec, p, r, divergent",
    [
        (NoiseSpec("pareto", (2.01, 1.0)), 1, 2, False),  # alpha just above r
        (NoiseSpec("pareto", (1.99, 1.0)), 1, 2, True),  # alpha just below r
        (NoiseSpec("pareto", (2.0, 1.0)), 1, 2, True),  # alpha = r
        (NoiseSpec("student_t", (2.0,)), 1, 2, True),  # nu = r
        (NoiseSpec("student_t", (2.01,)), 1, 2, False),
        (NoiseSpec("student_t", (1.0,)), 1, 1, True),  # r = p (Spitzer): Cauchy noise
        (NoiseSpec("pareto", (1.01, 1.0)), 1, 1, False),
        (NORMAL, 1, 1, False),
        (RADEMACHER, 1.5, 1.5, False),
        (NoiseSpec("uniform", (2.0,)), 0.5, 4, False),
        # r < 1 with p < r, where the sufficiency proof bounds R_n by subadditivity, not Minkowski
        (NoiseSpec("pareto", (0.9, 1.0)), 0.5, 0.8, False),
        (NoiseSpec("pareto", (0.7, 1.0)), 0.5, 0.8, True),
        (NoiseSpec("student_t", (1.0,)), 0.5, 0.8, False),  # Cauchy noise, no mean
        (NoiseSpec("student_t", (0.5,)), 0.25, 0.6, True),
    ],
    ids=["pareto-above-r", "pareto-below-r", "pareto-at-r", "student-at-r", "student-above-r", "cauchy-r=p",
         "pareto-r=p", "normal-r=p", "rademacher-r=p", "uniform", "pareto-r<1-above-r", "pareto-r<1-below-r",
         "cauchy-r<1", "student-r<1-below-r"],
)
def test_verdict_divergent_exactly_when_the_moment_is_infinite(spec, p, r, divergent):
    # E|theta|^r = inf makes the series diverge whatever the estimates say;
    # the Monte Carlo still runs, so the tails are those tail_probability reads
    series = partial_series(STABLE, spec, SeriesParams(p, r, 1), range(1, 129), 200, 4)
    assert (series.verdict is Verdict.DIVERGENT) == divergent == (not math.isfinite(absolute_moment(spec, r)))
    assert series.tails[-1] == tail_probability(STABLE, spec, SeriesParams(p, r, 1), 128, 200, 4)
    assert (series.moments is None) == divergent


def test_partial_series_validation():
    params = SeriesParams(1, 2, 1)
    with pytest.raises(EmptyGrid):
        partial_series(STABLE, NORMAL, params, [], 1000, 1)
    with pytest.raises(InvalidParameters):
        partial_series(STABLE, NORMAL, params, [3, 2], 1000, 1)
    with pytest.raises(InvalidParameters):
        partial_series(STABLE, NORMAL, params, [0, 1], 1000, 1)
    with pytest.raises(UnstableCoefficients):
        partial_series(ARCoefficients(2.0, 0.5), NORMAL, params, [1, 2], 1000, 1)
    # a grid inside one dyadic block [2^k, 2^(k+1)) cannot support a verdict
    for one_block in ([1], range(64, 128)):
        with pytest.raises(InvalidParameters, match=r"at least two dyadic blocks"):
            partial_series(STABLE, NORMAL, params, one_block, 1000, 1)


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, "3"])
def test_counts_must_be_whole_numbers(bad):
    # int() would truncate 2.5 to 2 and estimate a different n, R or seed
    params = SeriesParams(1, 2, 1)
    with pytest.raises(InvalidParameters, match=r"grid point must be a whole number"):
        partial_series(STABLE, NORMAL, params, [1, bad, 4], 1000, 1)
    with pytest.raises(InvalidParameters, match=r"replications must be a whole number"):
        partial_series(STABLE, NORMAL, params, [1, 2, 4], bad, 1)
    with pytest.raises(InvalidParameters, match=r"seed must be a whole number"):
        partial_series(STABLE, NORMAL, params, [1, 2, 4], 1000, bad)
    with pytest.raises(InvalidParameters, match=r"n must be a whole number"):
        tail_probability(STABLE, NORMAL, params, bad, 1000, 1)
    # whole floats and numpy integers name the same n, R and seed as ints
    whole = partial_series(STABLE, NORMAL, params, np.array([1, 2, 4]), 1e3, 7.0)
    assert whole == partial_series(STABLE, NORMAL, params, [1, 2, 4], 1000, 7)


# --- moment growth ------------------------------------------------------------

def test_moment_estimates_match_exact_variance():
    # r = 2: E S_n^2 = sum_{j<n} U(j)^2 exactly for unit-variance noise
    grid = (8, 16, 32, 64)
    report = moment_growth_check(STABLE, NORMAL, 2.0, grid, 20000, 13)
    table = weight_sequence(STABLE, 63)
    cum = np.asarray(table.cum)
    for n, got in zip(report.n_grid, report.estimates):
        exact = float(np.sum(cum[:n] ** 2))
        se = exact * math.sqrt(2.0 / report.replications)  # Var(S^2) = 2 sigma^4
        assert abs(got - exact) <= 5 * se


@pytest.mark.parametrize("coeffs", [STABLE, ARCoefficients(0.5, -0.9), ARCoefficients(-0.5, 0.45),
                                    ARCoefficients(1.0, -0.25), ARCoefficients(0.2, 0.79)], ids=str)
@pytest.mark.parametrize("seed", [3, 29])
def test_gaussian_second_moment_against_exact_oracle(coeffs, seed):
    # normal noise: S_n ~ N(0, v_n) with v_n = sum_{k<n} U(k)^2, so E S_n^2 = v_n
    # and Var S_n^2 = 2 v_n^2; the mean of R squares lies within 5 standard errors
    grid = (8, 16, 32, 64, 128)
    replications = 6000
    report = moment_growth_check(coeffs, NORMAL, 2.0, grid, replications, seed)
    cum = np.asarray(weight_sequence(coeffs, grid[-1] - 1).cum)
    for n, got in zip(grid, report.estimates):
        exact = float(np.sum(cum[:n] ** 2))
        assert abs(got - exact) <= 5 * math.sqrt(2.0) * exact / math.sqrt(replications)


def test_moment_points_are_four_or_more_powers_of_two_from_16():
    # the one rule behind partial_series' fit and the summary's "fewer than 4" line
    assert estimate._moment_points(range(1, 129)) == [15, 31, 63, 127]
    assert estimate._moment_points(range(1, 65)) == []
    assert estimate._moment_points([8, 16, 32, 64, 100, 128]) == [1, 2, 3, 5]
    assert estimate._moment_points([8, 16, 32, 64, 100]) == []


def test_moment_slope_windows():
    grid = (64, 128, 256, 512, 1024)
    gaussian = moment_growth_check(STABLE, NORMAL, 2.0, grid, 20000, 17)
    assert gaussian.bound == 1.0
    assert 0.9 <= gaussian.slope <= 1.1
    signs = moment_growth_check(STABLE, RADEMACHER, 1.0, grid, 20000, 17)
    assert signs.bound == 1.0
    assert signs.slope <= 0.6


@pytest.mark.parametrize("spec, r", [(NORMAL, 2.0), (RADEMACHER, 1.0), (NoiseSpec("pareto", (3.0, 1.0)), 2.5)],
                         ids=["normal", "rademacher", "pareto"])
def test_series_moments_equal_the_moment_check(spec, r):
    # one pass: the series reads E|S_n|^r off its own paths at the grid's
    # powers of two from 16 on, bit for bit what the moment check gives there
    replications = estimate.BLOCK_REPLICATES + 101
    series = partial_series(STABLE, spec, SeriesParams(1, r, 1), range(1, 129), replications, 4)
    check = moment_growth_check(STABLE, spec, r, (16, 32, 64, 128), replications, 4)
    assert series.moments == check
    assert check.n_grid == (16, 32, 64, 128)
    # skipped below 4 such points, and when E|theta|^r diverges
    assert partial_series(STABLE, spec, SeriesParams(1, r, 1), range(1, 65), 200, 4).moments is None
    heavy = NoiseSpec("pareto", (1.5, 1.0))
    assert partial_series(STABLE, heavy, SeriesParams(1, 2, 1), range(1, 129), 200, 4).moments is None


def test_moment_growth_is_deterministic():
    one = moment_growth_check(STABLE, NORMAL, 2.0, (8, 16, 32, 64), 2000, 5)
    two = moment_growth_check(STABLE, NORMAL, 2.0, (8, 16, 32, 64), 2000, 5)
    assert one == two


def test_moment_growth_validation():
    with pytest.raises(InfiniteMoment):
        moment_growth_check(STABLE, NoiseSpec("pareto", (1.5, 1.0)), 2.0, (8, 16, 32, 64), 1000, 1)
    with pytest.raises(InvalidParameters):
        moment_growth_check(STABLE, NORMAL, 2.0, (8, 16, 32), 1000, 1)
    with pytest.raises(InvalidParameters):
        moment_growth_check(STABLE, NORMAL, 2.0, (8, 16, 32, 16), 1000, 1)
    with pytest.raises(UnstableCoefficients):
        moment_growth_check(ARCoefficients(1.5, 0.0), NORMAL, 2.0, (8, 16, 32, 64), 1000, 1)
