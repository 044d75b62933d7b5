"""End-to-end acceptance battery.

Each test covers one numbered criterion, prints exactly one
``[PASS]``/``[FAIL]`` line on the real stdout (past pytest's capture),
and enforces the stated tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest

from ar2lab import (
    ARCoefficients,
    NoiseSpec,
    SeriesParams,
    StreamKey,
    UnstableCoefficients,
    ValidationError,
    Verdict,
    bound_report,
    companion_power_column,
    companion_spectrum,
    moment_growth_check,
    parse_config_text,
    partial_series,
    sample_block,
    simulate_path,
    tail_probability,
    weight_closed_form,
    weight_sequence,
)
from ar2lab.cli import run
from ar2lab.recurrence import Stability
from ar2lab.summation import compensated_cumsum

COEFF_SET = [
    ARCoefficients(0.3, 0.2),
    ARCoefficients(1.0, -0.25),
    ARCoefficients(0.0, -0.5),
    ARCoefficients(-0.6, 0.3),
]
NORMAL = NoiseSpec("normal")
RADEMACHER = NoiseSpec("rademacher")
FREE = ARCoefficients(0.0, 0.0)


_CAPFD = None


@pytest.fixture(autouse=True)
def _live_report(capfd):
    # lets _report bypass capture so every criterion line reaches the terminal
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _report(index: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {index}: {label} ({detail})"
    if _CAPFD is None:
        print(line)
    else:
        with _CAPFD.disabled():
            print(line, flush=True)
    assert ok, line


def test_criterion_01_dual_representation():
    start = time.perf_counter()
    worst = 0.0
    for coeffs in COEFF_SET:
        table = weight_sequence(coeffs, 999)
        for block in range(100):
            theta = sample_block(NORMAL, 1000, StreamKey(1234, "acc1", n=1000, block=block))
            path = simulate_path(coeffs, theta)
            direct = compensated_cumsum(path.xi)
            weighted = np.convolve(theta, table.cum)[:1000]  # S_m = sum_{k<=m} U(m-k) theta_k
            scale = np.maximum(1.0, np.abs(direct))
            worst = max(worst, float(np.max(np.abs(direct - weighted) / scale)))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "dual representation, 4 coefficient pairs x 100 Gaussian paths, n <= 1000",
        worst <= 1e-9 and elapsed < 5.0,
        f"max relative residual {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_matrix_power_identity():
    start = time.perf_counter()
    worst = 0.0
    differ = 0  # columns not equal in bits to the table: the squarings associate differently
    for coeffs in COEFF_SET:
        a, b = coeffs.a, coeffs.b
        table = weight_sequence(coeffs, 100)
        for s in range(1, 101):
            top, bottom = companion_power_column(coeffs, s)
            differ += (top, bottom) != (table.u[s], table.u[s - 1])
            worst = max(
                worst,
                abs(top - table.u[s]) / max(1.0, abs(table.u[s])),
                abs(bottom - table.u[s - 1]) / max(1.0, abs(table.u[s - 1])),
            )
        # the displayed low-order columns: (a,1), (a^2+b, a), (a^3+2ab, a^2+b)
        for s, expect in ((1, (a, 1.0)), (2, (a * a + b, a)), (3, (a ** 3 + 2 * a * b, a * a + b))):
            top, bottom = companion_power_column(coeffs, s)
            worst = max(
                worst,
                abs(top - expect[0]) / max(1.0, abs(expect[0])),
                abs(bottom - expect[1]) / max(1.0, abs(expect[1])),
            )
    elapsed = time.perf_counter() - start
    _report(
        2,
        "companion-power column equals weight pairs for s <= 100",
        worst <= 1e-12 and differ > 0 and elapsed < 1.0,
        f"max relative error {worst:.3e}, {differ} of 400 columns differ in bits, {elapsed:.2f}s",
    )


def test_criterion_03_closed_form_vs_recurrence():
    start = time.perf_counter()
    rng = np.random.default_rng(20260815)
    pairs = []
    while len(pairs) < 1000:
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(-1.0, 1.0))
        coeffs = ARCoefficients(a, b)
        if coeffs.stability is Stability.STABLE and abs(a * a + 4 * b) > 1e-6:
            pairs.append(coeffs)
    worst = 0.0
    for coeffs in pairs:
        spectrum = companion_spectrum(coeffs)
        table = weight_sequence(coeffs, 200)
        for s in range(1, 201):
            closed = weight_closed_form(spectrum, s)
            worst = max(worst, abs(closed - table.u[s]) / max(1.0, abs(table.u[s])))
    elapsed = time.perf_counter() - start
    _report(
        3,
        "closed form vs recurrence on 1000 random stable pairs, s <= 200",
        worst <= 1e-8 and elapsed < 5.0,
        f"max relative error {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_04_stability_iff_contractive_radius():
    start = time.perf_counter()
    checked = 0
    disagreements = 0
    for i in range(-200, 201):
        a = i / 100.0
        for j in range(-150, 151):
            b = j / 100.0
            if abs(b + 1.0) <= 1e-6 or abs(b - (1.0 - abs(a))) <= 1e-6:
                continue  # boundary band
            coeffs = ARCoefficients(a, b)
            stable = coeffs.stability is Stability.STABLE
            rho = companion_spectrum(coeffs).rho
            checked += 1
            disagreements += stable != (rho < 1.0)
    elapsed = time.perf_counter() - start
    _report(
        4,
        "stability iff rho < 1 on the 0.01-step grid (boundary band excluded)",
        disagreements == 0 and elapsed < 10.0,
        f"{checked} pairs, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_05_cumulative_weight_limit():
    start = time.perf_counter()
    coeffs = ARCoefficients(0.3, 0.2)
    table = weight_sequence(coeffs, 200)
    # the generating-function limit 1/(1-a-b) evaluates to 2 exactly here
    gap = abs(table.cum[200] - 2.0)
    elapsed = time.perf_counter() - start
    _report(
        5,
        "cumulative weights reach 1/(1-a-b) = 2 at n = 200",
        gap <= 1e-6 and elapsed < 1.0,
        f"|U(200) - 2| = {gap:.3e}, {elapsed:.2f}s",
    )


def test_criterion_06_koval_envelope():
    start = time.perf_counter()
    ok = True
    details = []
    for coeffs in COEFF_SET:
        table = weight_sequence(coeffs, 8192)
        short = bound_report(table, 50)
        full = bound_report(table, 8192)
        ok = ok and full.koval_ratio_max <= 1.05 * short.koval_ratio_max
        ok = ok and full.koval_ratio_min > 0.0
        details.append(f"{full.koval_ratio_max / short.koval_ratio_max:.3f}")
    elapsed = time.perf_counter() - start
    _report(
        6,
        "envelope ratio stays within 1.05x of its s <= 50 maximum out to s = 8192",
        ok and elapsed < 1.0,
        f"max-ratio growth factors {', '.join(details)}, {elapsed:.2f}s",
    )


def test_criterion_07_exact_tail_checkpoints():
    start = time.perf_counter()
    params = SeriesParams(p=1, r=2, epsilon=0.5)
    sure = tail_probability(FREE, RADEMACHER, params, 1, 1000, 3)
    never = tail_probability(
        FREE, RADEMACHER, SeriesParams(p=params.p, r=params.r, epsilon=2.0), 1, 1000, 3
    )
    exact_ok = sure.p_hat == 1.0 and never.p_hat == 0.0 and never.at_floor

    target = math.erfc(math.sqrt(2.0))  # 2 Phi(-2) for S_4 ~ N(0,4), threshold 4
    gauss_params = SeriesParams(p=1, r=2, epsilon=1.0)
    hits = 0
    for seed in range(1, 101):
        est = tail_probability(FREE, NORMAL, gauss_params, 4, 100000, seed)
        hits += est.ci_low <= target <= est.ci_high
    elapsed = time.perf_counter() - start
    _report(
        7,
        "degenerate-coefficient checkpoints: exact Rademacher {0,1}, Gaussian CI coverage",
        exact_ok and hits >= 93 and elapsed < 60.0,
        f"coverage {hits}/100 for 2*Phi(-2), {elapsed:.1f}s",
    )


def test_criterion_08_hsu_robbins_desk_run():
    start = time.perf_counter()
    series = partial_series(
        ARCoefficients(0.3, 0.2),
        NORMAL,
        SeriesParams(p=1, r=2, epsilon=1.0),
        range(1, 129),
        100000,
        1,
    )
    stabilized = series.verdict is Verdict.STABILIZED

    # contribution of the last dyadic block [2^k, 2^(k+1)) to the CI-upper sum
    top = series.grid[-1]
    block_lo = 1 << (top.bit_length() - 1)
    exponent = series.params.exponent
    block_upper = math.fsum(
        t.ci_high * t.n ** exponent for t in series.tails if block_lo <= t.n < 2 * block_lo
    )
    share = block_upper / series.partial_sum_ci_high[-1]

    # terms nonincreasing for n >= 16 up to CI overlap
    monotone = True
    for prev, cur, tp, tc in zip(
        series.tails, series.tails[1:], series.terms, series.terms[1:]
    ):
        if prev.n < 16:
            continue
        overlap = max(prev.ci_low, cur.ci_low) <= min(prev.ci_high, cur.ci_high)
        if tc > tp and not overlap:
            monotone = False
            break
    elapsed = time.perf_counter() - start
    _report(
        8,
        "Hsu-Robbins exponent run on grid 1..128 at 1e5 replications",
        stabilized and share <= 1e-3 and monotone and elapsed < 600.0,
        f"verdict {series.verdict.value}, last-block share {share:.3e}, "
        f"sum {series.partial_sums[-1]:.4f}, {elapsed:.0f}s",
    )


def test_criterion_09_moment_growth_windows():
    start = time.perf_counter()
    grid = (64, 128, 256, 512, 1024)
    coeffs = ARCoefficients(0.3, 0.2)
    g2 = moment_growth_check(coeffs, NORMAL, 2.0, grid, 100000, 7)
    g4 = moment_growth_check(coeffs, NORMAL, 4.0, grid, 100000, 7)
    r1 = moment_growth_check(coeffs, RADEMACHER, 1.0, grid, 100000, 7)
    windows = 0.9 <= g2.slope <= 1.1 and 1.8 <= g4.slope <= 2.2 and r1.slope <= 0.65
    capped = all(rep.slope <= rep.bound + 0.15 for rep in (g2, g4, r1))
    elapsed = time.perf_counter() - start
    _report(
        9,
        "moment-growth slopes inside the stated windows and under max(1, r/2) + 0.15",
        windows and capped and elapsed < 300.0,
        f"slopes r=2: {g2.slope:.3f}, r=4: {g4.slope:.3f}, Rademacher r=1: {r1.slope:.3f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_10_byte_determinism(tmp_path):
    text = (
        "a = 0.3\nb = 0.2\np = 1\nr = 2\nepsilon = 1\nnoise.family = normal\n"
        "grid_max = 32\nreplications = 2000\nseed = 5\n"
    )
    first = parse_config_text(text + f"output = {tmp_path / 'one'}\n")
    second = parse_config_text(text + f"output = {tmp_path / 'two'}\n")
    assert run(first) == run(second)
    same = all(
        (tmp_path / f"one{suffix}").read_bytes() == (tmp_path / f"two{suffix}").read_bytes()
        for suffix in (".series.csv", ".spectrum.csv", ".summary.txt")
    )
    _report(
        10,
        "series pipeline is byte-deterministic for fixed config and seed",
        same,
        "series, spectrum, and summary files identical across two runs",
    )


def test_criterion_11_hypothesis_enforcement():
    base = "a = 0.3\nb = 0.2\np = 1\nr = 2\nepsilon = 1\nnoise.family = normal\n"
    checks = []

    with pytest.raises(ValidationError) as err:
        parse_config_text(base.replace("p = 1", "p = 2.5"))
    checks.append("0 < p < 2" in str(err.value))

    with pytest.raises(ValidationError) as err:
        parse_config_text(base.replace("r = 2", "r = 0.25"))
    checks.append("r >= p" in str(err.value))

    with pytest.raises(ValidationError) as err:
        parse_config_text(base.replace("b = 0.2", "b = 0.9"))
    checks.append("-1 < b < 1 - |a|" in str(err.value))

    unstable = ARCoefficients(1.2, 0.3)
    params = SeriesParams(1, 2, 1)
    for call in (
        lambda: tail_probability(unstable, NORMAL, params, 4, 1000, 1),
        lambda: partial_series(unstable, NORMAL, params, [1, 2], 1000, 1),
        lambda: moment_growth_check(unstable, NORMAL, 2.0, (8, 16, 32, 64), 1000, 1),
    ):
        with pytest.raises(UnstableCoefficients) as err:
            call()
        checks.append("-1 < b < 1 - |a|" in str(err.value))

    _report(
        11,
        "violated hypotheses are rejected with named conditions",
        all(checks),
        f"{sum(checks)}/{len(checks)} diagnostics name the condition",
    )
