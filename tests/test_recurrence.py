import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ar2lab import (
    ARCoefficients,
    BoundReport,
    DegenerateSpectrum,
    HorizonOverflow,
    InsufficientHorizon,
    InvalidParameters,
    NonFiniteInput,
    Stability,
    UnstableCoefficients,
    bound_report,
    companion_power_column,
    companion_spectrum,
    weight_closed_form,
    weight_sequence,
)
from ar2lab.recurrence import CompanionSpectrum

from conftest import NAMED_PAIRS


# --- oracles ---------------------------------------------------------------

def oracle_roots(a, b):
    """Independent root finder for z^2 - a z - b."""
    return np.roots([1.0, -a, -b])


def oracle_weights(a, b, horizon):
    """Straightforward recurrence loop, no compensation, no table."""
    u = [1.0]
    if horizon >= 1:
        u.append(a)
    for _ in range(2, horizon + 1):
        u.append(a * u[-1] + b * u[-2])
    cum = []
    s = 0.0
    for x in u:
        s += x
        cum.append(s)
    return u, cum


def stable_pairs(margin=1e-3):
    """Coefficient pairs strictly inside the stability triangle."""
    return (
        st.tuples(
            st.floats(-2.0 + margin, 2.0 - margin),
            st.floats(-1.0 + margin, 1.0 - margin),
        )
        .filter(lambda ab: abs(ab[0]) + ab[1] < 1.0 - margin)
    )


# --- coefficients and classification ---------------------------------------

def test_rejects_non_finite_inputs():
    for bad in [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)]:
        with pytest.raises(NonFiniteInput):
            ARCoefficients(*bad)


def test_named_pairs_are_stable(named_coeffs):
    assert named_coeffs.stability is Stability.STABLE


@pytest.mark.parametrize(
    "a,b",
    [(0.5, 0.5), (-0.5, 0.5), (0.0, 1.0), (2.0, -1.0), (0.3, -1.0), (1.1, 0.0), (0.0, -1.0)],
)
def test_boundary_and_outside_are_unstable(a, b):
    # includes b = 1 - |a| and b = -1 exactly
    assert ARCoefficients(a, b).stability is Stability.UNSTABLE


def test_just_inside_boundary_is_stable():
    assert ARCoefficients(0.5, 0.5 - 1e-9).stability is Stability.STABLE
    assert ARCoefficients(0.0, -1.0 + 1e-9).stability is Stability.STABLE


# --- spectrum ----------------------------------------------------------------

def test_spectrum_example_two_real_roots():
    spectrum = companion_spectrum(ARCoefficients(0.3, 0.2))
    assert spectrum.lambda1 == pytest.approx(0.6217, abs=5e-5)
    assert spectrum.lambda2 == pytest.approx(-0.3217, abs=5e-5)
    assert spectrum.rho == pytest.approx(0.6217, abs=5e-5)
    assert spectrum.mu == 1
    assert spectrum.discriminant == pytest.approx(0.89)


def test_spectrum_repeated_root():
    spectrum = companion_spectrum(ARCoefficients(1.0, -0.25))
    assert spectrum.mu == 2
    assert spectrum.lambda1 == pytest.approx(0.5)
    assert spectrum.lambda2 == pytest.approx(0.5)
    assert spectrum.rho == pytest.approx(0.5)


def test_spectrum_conjugate_pair():
    spectrum = companion_spectrum(ARCoefficients(0.0, -0.5))
    assert spectrum.mu == 1
    assert spectrum.discriminant == pytest.approx(-2.0)
    assert spectrum.lambda1.imag == pytest.approx(math.sqrt(0.5))
    assert spectrum.lambda2 == spectrum.lambda1.conjugate()
    assert spectrum.rho == pytest.approx(math.sqrt(0.5))


def test_spectrum_matches_independent_root_finder(named_coeffs):
    spectrum = companion_spectrum(named_coeffs)
    got = sorted([spectrum.lambda1, spectrum.lambda2], key=lambda z: (z.real, z.imag))
    want = sorted(oracle_roots(named_coeffs.a, named_coeffs.b), key=lambda z: (z.real, z.imag))
    for g, w in zip(got, want):
        assert g == pytest.approx(complex(w), abs=1e-10)


@given(stable_pairs())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_root_sum_and_product(ab):
    a, b = ab
    spectrum = companion_spectrum(ARCoefficients(a, b))
    total = spectrum.lambda1 + spectrum.lambda2
    prod = spectrum.lambda1 * spectrum.lambda2
    assert abs(total - a) <= 1e-12 * max(1.0, abs(a))
    assert abs(prod - (-b)) <= 1e-12 * max(1.0, abs(b))


@given(st.floats(-2, 2), st.floats(-1.5, 1.5))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_complex_roots_iff_negative_discriminant(a, b):
    spectrum = companion_spectrum(ARCoefficients(a, b))
    if spectrum.discriminant < 0:
        assert spectrum.lambda1.imag > 0
        assert spectrum.lambda2 == spectrum.lambda1.conjugate()
        assert spectrum.rho == pytest.approx(math.sqrt(-b))
    else:
        assert spectrum.lambda1.imag == 0 and spectrum.lambda2.imag == 0


@given(st.floats(-2, 2), st.floats(-1.5, 1.5))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_stability_matches_spectral_radius(a, b):
    # stay clear of the boundary where float noise could flip either side
    assume(abs(b + 1.0) > 1e-6 and abs(b - (1.0 - abs(a))) > 1e-6)
    coeffs = ARCoefficients(a, b)
    stable = coeffs.stability is Stability.STABLE
    assert stable == (companion_spectrum(coeffs).rho < 1.0)


# --- weight table ------------------------------------------------------------

def test_weight_table_example():
    u, cum = oracle_weights(0.3, 0.2, 3)
    table = weight_sequence(ARCoefficients(0.3, 0.2), 3)
    assert table.horizon == 3
    assert list(table.u) == u
    assert list(table.u) == pytest.approx([1.0, 0.3, 0.29, 0.147])
    assert list(table.cum) == pytest.approx(cum)
    assert list(table.cum) == pytest.approx([1.0, 1.3, 1.59, 1.737])


def test_weight_table_is_readonly():
    table = weight_sequence(ARCoefficients(0.3, 0.2), 5)
    with pytest.raises(ValueError):
        table.u[0] = 7.0
    with pytest.raises(ValueError):
        table.cum[0] = 7.0


def test_weight_table_matches_oracle(named_coeffs):
    u, cum = oracle_weights(named_coeffs.a, named_coeffs.b, 300)
    table = weight_sequence(named_coeffs, 300)
    assert np.allclose(table.u, u, rtol=1e-12, atol=1e-300)
    assert np.allclose(table.cum, cum, rtol=1e-9, atol=1e-12)


def test_horizon_zero_and_validation():
    table = weight_sequence(ARCoefficients(0.9, 0.05), 0)
    assert list(table.u) == [1.0] and list(table.cum) == [1.0]
    with pytest.raises(InvalidParameters):
        weight_sequence(ARCoefficients(0.9, 0.05), -1)
    # int() would end the table at 12
    with pytest.raises(InvalidParameters, match=r"horizon must be a whole number"):
        weight_sequence(ARCoefficients(0.9, 0.05), 12.7)
    assert weight_sequence(ARCoefficients(0.9, 0.05), 12.0).horizon == 12


def test_weight_overflow_raises():
    with pytest.raises(HorizonOverflow):
        weight_sequence(ARCoefficients(2.0, 2.0), 2000)


@given(stable_pairs())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_cum_diff_recovers_weights(ab):
    table = weight_sequence(ARCoefficients(*ab), 120)
    diffs = np.diff(table.cum)
    assert np.allclose(diffs, table.u[1:], rtol=0, atol=1e-12)


@given(stable_pairs(margin=0.02))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_cumulative_weights_reach_geometric_limit(ab):
    coeffs = ARCoefficients(*ab)
    rho = companion_spectrum(coeffs).rho
    assume(rho < 0.98)
    horizon = 50 * math.ceil(1.0 / (1.0 - rho))
    table = weight_sequence(coeffs, horizon)
    assert abs(table.cum[-1] - 1.0 / (1.0 - coeffs.a - coeffs.b)) <= 1e-6


# --- closed form and matrix powers ------------------------------------------

def test_closed_form_repeated_root_formula():
    # u_s = (s + 1) * (a/2)^s when the discriminant vanishes
    coeffs = ARCoefficients(1.0, -0.25)
    spectrum = companion_spectrum(coeffs)
    for s in range(0, 60):
        assert weight_closed_form(spectrum, s) == pytest.approx((s + 1) * 0.5 ** s, rel=1e-12)


def test_closed_form_agrees_with_table(named_coeffs):
    spectrum = companion_spectrum(named_coeffs)
    table = weight_sequence(named_coeffs, 200)
    for s in range(0, 201):
        closed = weight_closed_form(spectrum, s)
        assert abs(closed - table.u[s]) <= 1e-8 * max(1.0, abs(table.u[s]))


def test_closed_form_validation():
    spectrum = companion_spectrum(ARCoefficients(0.3, 0.2))
    with pytest.raises(InvalidParameters):
        weight_closed_form(spectrum, -1)
    with pytest.raises(InvalidParameters, match=r"s must be a whole number"):
        weight_closed_form(spectrum, 2.5)


def test_closed_form_degenerate_guard():
    # hand-built: simple-root branch with roots too close to divide by
    fake = CompanionSpectrum(
        lambda1=complex(0.5 + 1e-12, 0.0),
        lambda2=complex(0.5, 0.0),
        rho=0.5,
        mu=1,
        discriminant=0.0,
    )
    with pytest.raises(DegenerateSpectrum):
        weight_closed_form(fake, 5)


def test_power_column_small_s_formulas(named_coeffs):
    a, b = named_coeffs.a, named_coeffs.b
    assert companion_power_column(named_coeffs, 1) == (a, 1.0)
    u2, u1 = companion_power_column(named_coeffs, 2)
    assert u2 == pytest.approx(a * a + b, rel=1e-14) and u1 == a
    u3, u2b = companion_power_column(named_coeffs, 3)
    assert u3 == pytest.approx(a ** 3 + 2 * a * b, rel=1e-13, abs=1e-15)
    assert u2b == pytest.approx(a * a + b, rel=1e-14)


def test_power_column_validation_and_overflow():
    with pytest.raises(InvalidParameters):
        companion_power_column(ARCoefficients(0.3, 0.2), 0)
    with pytest.raises(InvalidParameters, match=r"s must be a whole number"):
        companion_power_column(ARCoefficients(0.3, 0.2), 2.5)
    with pytest.raises(HorizonOverflow):
        companion_power_column(ARCoefficients(2.0, 2.0), 3000)


@given(stable_pairs(), st.integers(1, 150))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_power_column_matches_table(ab, s):
    coeffs = ARCoefficients(*ab)
    table = weight_sequence(coeffs, s)
    u_s, u_prev = companion_power_column(coeffs, s)
    assert abs(u_s - table.u[s]) <= 1e-8 * max(1.0, abs(table.u[s]))
    assert abs(u_prev - table.u[s - 1]) <= 1e-8 * max(1.0, abs(table.u[s - 1]))


# --- bound report ------------------------------------------------------------

def test_bound_report_example_values():
    table = weight_sequence(ARCoefficients(0.3, 0.2), 200)
    report = bound_report(table, 200)
    assert report.cum_limit == pytest.approx(2.0)
    assert report.L_star == pytest.approx(2.0, abs=1e-9)
    # oracle: ratios recomputed from the raw table
    rho = companion_spectrum(ARCoefficients(0.3, 0.2)).rho
    ratios = [
        math.hypot(table.u[s], table.u[s - 1]) / rho ** s for s in range(1, 201)
    ]
    assert report.koval_ratio_min == pytest.approx(min(ratios), rel=1e-9)
    assert report.koval_ratio_max == pytest.approx(max(ratios), rel=1e-9)


def test_bound_report_requires_stability_and_horizon():
    with pytest.raises(UnstableCoefficients):
        bound_report(weight_sequence(ARCoefficients(1.0, 0.5), 100), 100)
    table = weight_sequence(ARCoefficients(0.3, 0.2), 100)
    with pytest.raises(InvalidParameters):
        bound_report(table, 49)
    with pytest.raises(InvalidParameters, match=r"horizon must be a whole number"):
        bound_report(table, 60.5)
    assert bound_report(table, 60.0) == bound_report(table, 60)


def test_bound_report_nilpotent_pair():
    report = bound_report(weight_sequence(ARCoefficients(0.0, 0.0), 100), 100)
    assert report.L_star == 1.0
    assert report.cum_limit == 1.0
    assert math.isnan(report.koval_ratio_min) and math.isnan(report.koval_ratio_max)


def scanned_extrema(coeffs, horizon):
    """The envelope extrema by the plain scan: s = 1, 2, ... while rho^s is normal, over normal norms."""
    u = weight_sequence(coeffs, horizon).u
    spectrum = companion_spectrum(coeffs)
    ratios, rho_pow = [], 1.0
    for s in range(1, horizon + 1):
        rho_pow *= spectrum.rho
        if rho_pow < sys.float_info.min:
            break
        norm = math.hypot(u[s], u[s - 1])
        if norm >= sys.float_info.min:
            ratios.append(norm / (rho_pow * (float(s) if spectrum.mu == 2 else 1.0)))
    return (min(ratios), max(ratios)) if ratios else (math.nan, math.nan)


# the five spectral classes, pairs whose rho^s leaves the normal range inside
# the horizon, one that keeps a ratio for s = 1 only, two whose subnormal
# ratios past that point would move the band, and two whose ratios tie to
# within 1e-12 over thousands of steps
EDGE_PAIRS = [(0.3, 0.2), (1.0, -0.25), (0.5, -0.9), (-0.5, 0.45), (0.2, 0.79), (0.5, 0.0), (0.001, 0.0),
              (-1.6, -0.64), (0.0, 0.5), (0.0, -1e-300), (1e-200, 0.0), (1e-155, 0.0),
              (1.2, -0.36), (0.0, -0.5), (-0.99, 0.0), (0.0, -0.999)]


@pytest.mark.parametrize("horizon", [200, 8192])
def test_bound_report_is_the_plain_scan_bit_for_bit(horizon):
    rng = np.random.default_rng(horizon)
    pairs = list(EDGE_PAIRS)
    while len(pairs) < 100:
        a, b = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
        if ARCoefficients(a, b).stability is Stability.STABLE:
            pairs.append((a, b))
    for a, b in pairs:
        report = bound_report(weight_sequence(ARCoefficients(a, b), horizon), horizon)
        got = (report.koval_ratio_min, report.koval_ratio_max)
        want = scanned_extrema(ARCoefficients(a, b), horizon)
        assert [type(x) for x in got] == [float, float]
        assert np.array_equal(got, want, equal_nan=True), (a, b)


@pytest.mark.parametrize("horizon", [50, 200, 1000])
def test_bound_report_reads_the_prefix_of_a_longer_table(horizon):
    # a longer table's prefix is the shorter table bit for bit, so the report is too
    rng = np.random.default_rng(horizon + 1)
    pairs = list(EDGE_PAIRS)
    while len(pairs) < 40:
        a, b = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
        if ARCoefficients(a, b).stability is Stability.STABLE:
            pairs.append((a, b))
    for a, b in pairs:
        coeffs = ARCoefficients(a, b)
        exact = bound_report(weight_sequence(coeffs, horizon), horizon)
        for longer in (horizon + 1, 4 * horizon, 10000):
            report = bound_report(weight_sequence(coeffs, longer), horizon)
            assert report.horizon_used == horizon
            got, want = ([getattr(r, name) for name in BoundReport.__slots__] for r in (report, exact))
            assert np.array_equal(got, want, equal_nan=True), (a, b)
        with pytest.raises(InsufficientHorizon):
            bound_report(weight_sequence(coeffs, horizon - 1), horizon)


@given(stable_pairs(margin=0.05))
@settings(max_examples=50, derandomize=True, deadline=None)
def test_bound_report_envelope_is_positive_and_finite(ab):
    assume(ab != (0.0, 0.0))  # nilpotent pair has no envelope; covered above
    report = bound_report(weight_sequence(ARCoefficients(*ab), 300), 300)
    assert 0.0 < report.koval_ratio_min <= report.koval_ratio_max < math.inf
    assert report.L_star < math.inf


@pytest.mark.parametrize("steps", [2, 3, 128])
def test_strip_jump_moves_a_state_across_a_strip(named_coeffs, steps):
    # (xi_e, xi_(e-1)) = jump @ (xi_s, xi_(s-1)) + weights @ draws, against the recursion
    rng = np.random.default_rng(steps)
    draws = rng.standard_normal(steps)
    older, prev = rng.standard_normal(2)
    start = (prev, older)
    for t in draws:
        older, prev = prev, named_coeffs.a * prev + named_coeffs.b * older + t
    weights, jump = weight_sequence(named_coeffs, steps).strip_jump(steps)
    assert np.allclose(jump @ start + weights @ draws, [prev, older], rtol=1e-12, atol=1e-12)
    with pytest.raises(InsufficientHorizon):
        weight_sequence(named_coeffs, steps - 1).strip_jump(steps)
