import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ar2lab import (
    ARCoefficients,
    InsufficientHorizon,
    InvalidParameters,
    NonFiniteInput,
    representation_residual,
    simulate_path,
    weight_sequence,
    weighted_sum,
)
from ar2lab.summation import compensated_cumsum

from conftest import NAMED_PAIRS


def oracle_states(a, b, theta):
    """Plain recursion, no compensation."""
    xi = []
    p2 = p1 = 0.0
    for t in theta:
        x = a * p1 + b * p2 + t
        xi.append(x)
        p2, p1 = p1, x
    return xi


theta_arrays = st.lists(
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=200
).map(np.asarray)


def test_path_matches_oracle(named_coeffs):
    rng = np.random.default_rng(101)
    theta = rng.standard_normal(500)
    path = simulate_path(named_coeffs, theta)
    xi = oracle_states(named_coeffs.a, named_coeffs.b, theta)
    assert np.allclose(path.xi, xi, rtol=1e-13, atol=0)
    assert path.n == 500
    assert path.s_n == pytest.approx(math.fsum(xi), rel=1e-12, abs=1e-12)


def test_first_states_unrolled():
    # xi_1 = theta_1, xi_2 = a xi_1 + theta_2, xi_3 = (a^2+b) theta_1 + a theta_2 + theta_3
    a, b = 0.3, 0.2
    theta = np.array([1.7, -0.4, 2.2])
    path = simulate_path(ARCoefficients(a, b), theta)
    assert path.xi[0] == pytest.approx(theta[0])
    assert path.xi[1] == pytest.approx(a * theta[0] + theta[1])
    assert path.xi[2] == pytest.approx((a * a + b) * theta[0] + a * theta[1] + theta[2], rel=1e-14)


def test_weighted_sum_example():
    # all-ones noise: S_3 = U(2) + U(1) + U(0) = 1.59 + 1.3 + 1
    coeffs = ARCoefficients(0.3, 0.2)
    assert weighted_sum(weight_sequence(coeffs, 2), [1.0, 1.0, 1.0]) == pytest.approx(3.89, rel=1e-12)
    assert simulate_path(coeffs, [1.0, 1.0, 1.0]).s_n == pytest.approx(3.89, rel=1e-12)


def test_unstable_pairs_still_simulate():
    coeffs = ARCoefficients(1.0, 0.5)
    theta = np.ones(12)
    path = simulate_path(coeffs, theta)
    assert np.allclose(path.xi, oracle_states(1.0, 0.5, theta), rtol=1e-13)
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
    lhs = simulate_path(coeffs, c * theta).s_n
    rhs = c * simulate_path(coeffs, theta).s_n
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@given(theta_arrays, theta_arrays)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_superposition(theta, phi):
    m = min(theta.size, phi.size)
    theta, phi = theta[:m], phi[:m]
    coeffs = ARCoefficients(0.3, 0.2)
    lhs = simulate_path(coeffs, theta + phi).s_n
    parts = simulate_path(coeffs, theta).s_n + simulate_path(coeffs, phi).s_n
    assert abs(lhs - parts) <= 1e-12 * max(1.0, abs(parts))


def test_prefix_sums_consistency(named_coeffs):
    rng = np.random.default_rng(7)
    theta = rng.standard_normal(400)
    path = simulate_path(named_coeffs, theta)
    direct = compensated_cumsum(path.xi)
    assert direct[-1] == path.s_n
    assert np.allclose(direct, np.cumsum(path.xi), rtol=1e-12, atol=1e-12)
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
    with pytest.raises(InvalidParameters):
        simulate_path(coeffs, [[1.0, 2.0]])


def test_path_arrays_are_readonly():
    path = simulate_path(ARCoefficients(0.3, 0.2), [1.0, 2.0])
    with pytest.raises(ValueError):
        path.xi[0] = 0.0


def test_path_holds_its_own_copy_of_theta():
    theta = np.ones(5)
    path = simulate_path(ARCoefficients(0.3, 0.2), theta)
    assert theta.flags.writeable and not path.theta.flags.writeable
    theta[0] = 2.0  # the caller's array stays writeable and the path keeps its theta
    assert path.theta.tolist() == [1.0] * 5
    with pytest.raises(ValueError):
        path.theta[0] = 0.0
