import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ar2lab import (
    ARCoefficients,
    HorizonOverflow,
    InsufficientHorizon,
    InvalidParameters,
    NonFiniteInput,
    representation_residual,
    simulate_path,
    weight_sequence,
    weighted_sum,
)
from ar2lab import simulate as sim
from ar2lab.summation import compensated_cumsum

from conftest import NAMED_PAIRS


def oracle_states(a, b, theta):
    """Plain recursion, no compensation: the scalar loop the lockstep walk must match bit for bit."""
    xi = []
    p2 = p1 = 0.0
    for t in np.asarray(theta, dtype=float).tolist():
        x = a * p1 + b * p2 + t
        xi.append(x)
        p2, p1 = p1, x
    return xi


def s_n(coeffs, theta) -> float:
    """S_n of the direct route: the compensated sum of simulate_path's states."""
    return float(compensated_cumsum(simulate_path(coeffs, theta))[-1])


theta_arrays = st.lists(
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=200
).map(np.asarray)


def test_path_matches_oracle(named_coeffs):
    rng = np.random.default_rng(101)
    theta = rng.standard_normal(500)
    states = simulate_path(named_coeffs, theta)
    xi = oracle_states(named_coeffs.a, named_coeffs.b, theta)
    assert np.allclose(states, xi, rtol=1e-13, atol=0)
    assert states.shape == (500,)
    assert s_n(named_coeffs, theta) == pytest.approx(math.fsum(xi), rel=1e-12, abs=1e-12)


def test_first_states_unrolled():
    # xi_1 = theta_1, xi_2 = a xi_1 + theta_2, xi_3 = (a^2+b) theta_1 + a theta_2 + theta_3
    a, b = 0.3, 0.2
    theta = np.array([1.7, -0.4, 2.2])
    xi = simulate_path(ARCoefficients(a, b), theta)
    assert xi[0] == pytest.approx(theta[0])
    assert xi[1] == pytest.approx(a * theta[0] + theta[1])
    assert xi[2] == pytest.approx((a * a + b) * theta[0] + a * theta[1] + theta[2], rel=1e-14)


def test_weighted_sum_example():
    # all-ones noise: S_3 = U(2) + U(1) + U(0) = 1.59 + 1.3 + 1
    coeffs = ARCoefficients(0.3, 0.2)
    assert weighted_sum(weight_sequence(coeffs, 2), [1.0, 1.0, 1.0]) == pytest.approx(3.89, rel=1e-12)
    assert s_n(coeffs, [1.0, 1.0, 1.0]) == pytest.approx(3.89, rel=1e-12)


def test_unstable_pairs_still_simulate():
    coeffs = ARCoefficients(1.0, 0.5)
    theta = np.ones(12)
    xi = simulate_path(coeffs, theta)
    assert np.allclose(xi, oracle_states(1.0, 0.5, theta), rtol=1e-13)
    assert representation_residual(weight_sequence(coeffs, 11), theta) <= 1e-9


@given(theta_arrays, st.sampled_from(sorted(NAMED_PAIRS)))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_dual_representation_residual(theta, name):
    coeffs = ARCoefficients(*NAMED_PAIRS[name])
    assert representation_residual(weight_sequence(coeffs, theta.size - 1), theta) <= 1e-9


@given(theta_arrays, st.sampled_from([2.0, 0.5, -1.0, 3.0, -0.25]))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_linearity_in_theta(theta, c):
    coeffs = ARCoefficients(-0.6, 0.3)
    lhs = s_n(coeffs, c * theta)
    rhs = c * s_n(coeffs, theta)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@given(theta_arrays, theta_arrays)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_superposition(theta, phi):
    m = min(theta.size, phi.size)
    theta, phi = theta[:m], phi[:m]
    coeffs = ARCoefficients(0.3, 0.2)
    lhs = s_n(coeffs, theta + phi)
    parts = s_n(coeffs, theta) + s_n(coeffs, phi)
    assert abs(lhs - parts) <= 1e-12 * max(1.0, abs(parts))


def test_prefix_sums_consistency(named_coeffs):
    rng = np.random.default_rng(7)
    theta = rng.standard_normal(400)
    xi = simulate_path(named_coeffs, theta)
    direct = compensated_cumsum(xi)
    assert direct[-1] == sim._totals(xi)  # the direct sum of representation_residual
    assert np.allclose(direct, np.cumsum(xi), rtol=1e-12, atol=1e-12)
    # every prefix, both routes: S_m = sum_{k<=m} U(m-k) theta_k is the m-th
    # coefficient of the product of the theta and U series
    table = weight_sequence(named_coeffs, 399)
    weighted = np.convolve(theta, table.cum)[:400]
    scale = np.maximum(1.0, np.abs(direct))
    assert np.max(np.abs(direct - weighted) / scale) <= 1e-9
    for n in (1, 2, 3, 57, 400):
        assert weighted[n - 1] == pytest.approx(weighted_sum(table, theta[:n]), rel=1e-12, abs=1e-12)


def test_weight_table_reuse_and_horizon_checks():
    coeffs = ARCoefficients(0.3, 0.2)
    theta = np.ones(10)
    table = weight_sequence(coeffs, 9)
    longer = weight_sequence(coeffs, 100)  # its prefix is table, bit for bit
    assert weighted_sum(longer, theta) == weighted_sum(table, theta)
    short = weight_sequence(coeffs, 3)
    with pytest.raises(InsufficientHorizon):
        weighted_sum(short, theta)
    with pytest.raises(InsufficientHorizon):  # n = 5 needs U(0)..U(4), one past the table
        weighted_sum(short, theta[:5])
    # representation_residual passes its table on to weighted_sum
    assert representation_residual(longer, theta) == representation_residual(table, theta)
    with pytest.raises(InsufficientHorizon):
        representation_residual(short, theta)


def test_input_validation():
    coeffs = ARCoefficients(0.3, 0.2)
    with pytest.raises(InvalidParameters):
        simulate_path(coeffs, [])
    with pytest.raises(NonFiniteInput):
        simulate_path(coeffs, [1.0, math.nan])
    with pytest.raises(NonFiniteInput):
        weighted_sum(weight_sequence(coeffs, 0), [math.inf])
    # rows of a 2-d theta are paths; a 3-d theta or an empty row is refused
    with pytest.raises(InvalidParameters):
        simulate_path(coeffs, [[[1.0, 2.0]]])
    with pytest.raises(InvalidParameters):
        simulate_path(coeffs, np.empty((2, 0)))
    with pytest.raises(NonFiniteInput):
        representation_residual(weight_sequence(coeffs, 1), [[1.0, 2.0], [math.inf, 0.0]])


def test_path_arrays_are_readonly():
    xi = simulate_path(ARCoefficients(0.3, 0.2), [1.0, 2.0])
    assert xi.dtype == np.float64
    with pytest.raises(ValueError):
        xi[0] = 0.0


def test_states_leave_the_callers_theta_alone():
    theta = np.ones(5)
    xi = simulate_path(ARCoefficients(0.3, 0.2), theta)
    assert theta.flags.writeable and not xi.flags.writeable and not np.shares_memory(xi, theta)
    theta[0] = 2.0  # the caller's array stays writeable, and the states are not a view of it
    assert xi.tolist() == oracle_states(0.3, 0.2, np.ones(5))


# the five spectral classes of the analytic benchmark, and two unstable pairs
# whose states overflow: to inf, and through 0 * inf to NaN
ANALYTIC_PAIRS = [(0.3, 0.2), (1.0, -0.25), (0.5, -0.9), (-0.5, 0.45), (0.2, 0.79)]
OVERFLOWING_PAIRS = [(2.5, 0.5), (1e200, 0.0)]
LENGTHS = (1, 2, 127, 128, 129, 1000, 8192)  # one chunk, chunk edges, a short last chunk, 64 chunks


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def edge_draws(kind: str, m: int, n: int) -> np.ndarray:
    rng = np.random.default_rng([m, n, len(kind)])
    if kind == "signed_zeros":  # +-0.0 with rare +-1e-300, whose states decay to zeros of either sign
        return rng.choice([0.0, -0.0, 1e-300, -1e-300], size=(m, n), p=[0.498, 0.498, 0.002, 0.002])
    if kind == "subnormal":  # products underflow to zeros of either sign
        return rng.integers(-(2 ** 20), 2 ** 20, size=(m, n)) * 5e-324
    return rng.choice([-1.0, 1.0], size=(m, n)) * rng.pareto(0.1, size=(m, n))  # up to ~1e170


@pytest.mark.parametrize("kind", ["signed_zeros", "subnormal", "pareto_0.1"])
@pytest.mark.parametrize("ab", ANALYTIC_PAIRS + OVERFLOWING_PAIRS, ids=str)
def test_lockstep_walk_is_the_scalar_loop_bit_for_bit(ab, kind):
    coeffs = ARCoefficients(*ab)
    for n in LENGTHS:
        theta = edge_draws(kind, 10, n)
        reference = [oracle_states(*ab, row) for row in theta]
        sums = [compensated_cumsum(row)[-1] for row in reference]
        for m in (1, 3, 10):
            xi = simulate_path(coeffs, theta[:m])
            assert xi.shape == (m, n) and xi.dtype == np.float64 and not xi.flags.writeable
            assert np.array_equal(bits(xi), bits(reference[:m])), (n, m)
            # the direct sums that representation_residual takes, one per row
            assert np.array_equal(bits(sim._totals(xi)), bits(sums[:m])), (n, m)
        one = simulate_path(coeffs, theta[0])  # a 1-d theta is one path, its sum a float
        assert one.shape == (n,) and np.array_equal(bits(one), bits(reference[0]))
        assert isinstance(sim._totals(one), float) and bits(sim._totals(one)) == bits(sums[0])


WRONG_GUESSES = [math.inf, -math.inf, math.nan, 1e308, -0.0]


@pytest.mark.parametrize("guess", WRONG_GUESSES, ids=repr)
def test_a_wrong_start_guess_costs_sweeps_not_bits(monkeypatch, guess):
    # every chunk but the first starts from a wrong guess, even inf or NaN: it is
    # walked again from its predecessor's end until the starts match as bits, at
    # most once per chunk.  With draws of -0.0 the true states are +0.0, and a
    # -0.0 guess equals them as a float but not as bits.
    monkeypatch.setattr(sim, "_start_guesses", lambda coeffs, draws, paths: np.full((2, draws.shape[1] - paths), guess))
    cases = [(ab, edge_draws("pareto_0.1", 3, 1000)) for ab in ANALYTIC_PAIRS]
    cases.append(((0.3, 0.2), np.full((3, 1000), -0.0)))
    for ab, theta in cases:
        xi, sweeps = sim._walk(ARCoefficients(*ab), theta)
        assert np.array_equal(bits(xi), bits([oracle_states(*ab, row) for row in theta])), ab
        assert 2 <= sweeps <= 8  # 8 chunks of 128 steps


# rho^128 of about 0.94 and 0.28, and near 1: a start's rounding error outlives
# many chunks, so most sweeps settle about one chunk
SLOW_PAIRS = [(0.0, -0.999), (-0.99, 0.0), (0.0, -0.99999)]


@pytest.mark.parametrize("window", [1, 7, 30, 1024])
def test_a_narrow_window_changes_no_bit(monkeypatch, window):
    # a sweep walks at most WINDOW_ROWS rows, or one chunk of every path: 3 paths
    # of 16 chunks in windows of 1, 2, 10 and 16 chunks; a chunk past the window
    # keeps its guess until the window reaches it, and a start that matched there
    # is final but still to be walked
    monkeypatch.setattr(sim, "WINDOW_ROWS", window)
    rng = np.random.default_rng(window)
    for theta in (rng.standard_normal((3, 2000)), edge_draws("pareto_0.1", 3, 2000)):
        for ab in ANALYTIC_PAIRS + SLOW_PAIRS + OVERFLOWING_PAIRS:
            xi, sweeps = sim._walk(ARCoefficients(*ab), theta)
            assert np.array_equal(bits(xi), bits([oracle_states(*ab, row) for row in theta])), ab
            assert sweeps <= 16


def test_overflowing_start_guesses_raise_nothing():
    draws = edge_draws("pareto_0.1", 128, 40)  # 10 paths of 4 chunks, time-major
    # (1e200, 0): the weights u_0..u_128 overflow, so every chunk starts at rest
    with pytest.raises(HorizonOverflow):
        weight_sequence(ARCoefficients(1e200, 0.0), 128)
    rest = sim._start_guesses(ARCoefficients(1e200, 0.0), draws, 10)
    assert rest.shape == (2, 30) and not rest.any()
    # (2.5, 0.5): finite weights, but the jumps of the guesses overflow
    with np.errstate(over="ignore", invalid="ignore"):
        wild = sim._start_guesses(ARCoefficients(2.5, 0.5), np.ones((128, 80)), 10)
    assert not np.isfinite(wild).all()
    theta = np.ones((10, 1024))
    xi = simulate_path(ARCoefficients(2.5, 0.5), theta)
    assert np.array_equal(bits(xi), bits([oracle_states(2.5, 0.5, row) for row in theta]))
    assert np.isinf(xi[:, -1]).all()


def test_stable_walks_take_few_sweeps():
    # the guesses are off by rounding alone: 10 paths of 64 chunks take far fewer
    # than 64 sweeps (two when the guesses' rounding dies out within one chunk)
    theta = np.random.default_rng(5).standard_normal((10, 8192))
    for ab in ANALYTIC_PAIRS:
        _, sweeps = sim._walk(ARCoefficients(*ab), theta)
        assert 2 <= sweeps <= 16, ab


def test_unstable_walks_take_few_sweeps():
    # the guesses, scanned chunk to chunk, overflow to inf where the states do,
    # so the chunks past the overflow need no sweep each (doubled jumps overflowed
    # to NaN there: 56 sweeps)
    theta = np.random.default_rng(5).standard_normal((10, 8192))
    _, sweeps = sim._walk(ARCoefficients(2.5, 0.5), theta)
    assert 2 <= sweeps <= 16


def test_batched_routes_follow_theta_shape():
    coeffs = ARCoefficients(0.2, 0.79)
    theta = np.random.default_rng(9).standard_normal((4, 300))
    table = weight_sequence(coeffs, 299)
    sums = weighted_sum(table, theta)
    residuals = representation_residual(table, theta)
    assert sums.shape == residuals.shape == (4,)
    for i, row in enumerate(theta):
        assert bits(sums[i]) == bits(weighted_sum(table, row))
        assert bits(residuals[i]) == bits(representation_residual(table, row))
    xi = simulate_path(coeffs, theta)
    assert xi.shape == theta.shape and not xi.flags.writeable and theta.flags.writeable
