"""Output checks that do not depend on the sampling layout.

No check compares bytes against a stored golden file: the sampling
layout may be versioned, and then every estimate changes.  Instead each
check re-derives what it can from the output itself (Wilson intervals,
terms, partial sums, verdict, exit code) and tests the estimates
against exact oracles:

* desk: every count against the exact Gaussian tail,
  S_n ~ N(0, sum_{k<n} U(k)^2), by a two-sided exact binomial test;
* horizon: ci_low under the Hoeffding bound 2 exp(-t^2 / (2 sum U^2)),
  and the r = 2 moment slope in [0.9, 1.1];
* analytic: the weight table and the sample paths against the
  recursion, the spectrum against the characteristic polynomial, and
  the verify battery line by line.

Each check returns `Check` records; one record is one operation of the
benchmark.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from scipy.special import bdtr, bdtrc

import workloads as wl

Z95 = 1.959963984540054  # two-sided 95% normal quantile
STABILIZED_TAIL_SHARE = 1e-3
FLOOR_FRACTION_LIMIT = 0.25
EXIT_CODE = {"Stabilized": 0, "FloorLimited": 2, "Growing": 3}
# Per-point level of the exact binomial test; with ~130 points and a
# few hundred runs, a correct program fails it with odds ~1e-5.
BINOMIAL_LEVEL = 1e-9
MOMENT_SLOPE_WINDOW = (0.9, 1.1)
SERIES_HEADER = "n,p_hat,ci_low,ci_high,term,partial_sum,partial_sum_ci_high,at_floor"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Row:
    n: int
    p_hat: float
    ci_low: float
    ci_high: float
    term: float
    partial_sum: float
    partial_sum_ci_high: float
    at_floor: bool


def _close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


# --- exact weights ---------------------------------------------------------


def weights(a: float, b: float, horizon: int) -> tuple:
    """u_0..u_horizon by the plain recursion and their running sums U."""
    u = [1.0]
    cum = [1.0]
    prev2, prev1, total = 0.0, 1.0, 1.0
    for _ in range(horizon):
        here = a * prev1 + b * prev2
        u.append(here)
        total += here
        cum.append(total)
        prev2, prev1 = prev1, here
    return u, cum


def variances(a: float, b: float, n_max: int) -> list:
    """Var S_n / Var theta = sum_{k<n} U(k)^2 for n = 0..n_max."""
    _, cum = weights(a, b, n_max)
    out = [0.0]
    for n in range(1, n_max + 1):
        out.append(out[-1] + cum[n - 1] ** 2)
    return out


# --- series outputs (desk, horizon) ----------------------------------------


def parse_series(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != SERIES_HEADER:
        raise ValueError("series.csv header differs from the documented schema")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 8 or f[7] not in ("true", "false"):
            raise ValueError(f"malformed series row {line!r}")
        rows.append(Row(int(f[0]), *(float(x) for x in f[1:7]), f[7] == "true"))
    return rows


def wilson(count: int, total: int) -> tuple:
    z = Z95
    p_hat = count / total
    denom = 1.0 + z * z / total
    center = (p_hat + z * z / (2.0 * total)) / denom
    spread = z * math.sqrt((p_hat * (1.0 - p_hat) + z * z / (4.0 * total)) / total) / denom
    low = 0.0 if count == 0 else max(0.0, center - spread)
    high = 1.0 if count == total else min(1.0, center + spread)
    return low, high


def counts(rows, replications: int) -> list:
    return [round(r.p_hat * replications) for r in rows]


def rebuild(cfg: wl.Config, grid, hits) -> list:
    """The rows a correct program writes for these exceedance counts."""
    exponent = cfg.r / cfg.p - 2.0
    rows = []
    terms, ci_terms = [], []
    for n, k in zip(grid, hits):
        p_hat = k / cfg.replications
        low, high = wilson(k, cfg.replications)
        scale = float(n) ** exponent
        terms.append(scale * p_hat)
        ci_terms.append(scale * high)
        rows.append(Row(n, p_hat, low, high, terms[-1], math.fsum(terms), math.fsum(ci_terms), k == 0))
    return rows


def series_consistency(cfg: wl.Config, rows) -> Check:
    """Grid, counts, Wilson intervals, terms and running sums re-derived."""
    grid = wl.default_grid(cfg.grid_max)
    if [r.n for r in rows] != grid:
        return Check("series.consistency", False, "grid differs from the documented policy")
    hits = counts(rows, cfg.replications)
    for r, k in zip(rows, hits):
        if abs(r.p_hat * cfg.replications - k) > 1e-6:
            return Check("series.consistency", False, f"n={r.n}: p_hat is not a count over {cfg.replications}")
    for r, want in zip(rows, rebuild(cfg, grid, hits)):
        same = (
            r.at_floor == want.at_floor
            and abs(r.ci_low - want.ci_low) <= 1e-12
            and abs(r.ci_high - want.ci_high) <= 1e-12
            and _close(r.term, want.term, 1e-12)
            and _close(r.partial_sum, want.partial_sum, 1e-12)
            and _close(r.partial_sum_ci_high, want.partial_sum_ci_high, 1e-12)
        )
        if not same:
            return Check("series.consistency", False, f"n={r.n}: columns do not follow from the count")
    return Check("series.consistency", True, f"{len(rows)} rows re-derived")


def verdict_of(cfg: wl.Config, rows) -> str:
    """The documented stabilization rule applied to the written rows."""
    if rows[-1].partial_sum == 0.0:
        return "Stabilized"
    exponent = cfg.r / cfg.p - 2.0
    top = rows[-1].n.bit_length() - 1
    tail_ci = math.fsum(float(r.n) ** exponent * r.ci_high for r in rows if r.n.bit_length() - 1 == top)
    if tail_ci <= STABILIZED_TAIL_SHARE * rows[-1].partial_sum_ci_high:
        return "Stabilized"
    if sum(r.at_floor for r in rows) / len(rows) >= FLOOR_FRACTION_LIMIT:
        return "FloorLimited"
    return "Growing"


def summary_field(summary: str, label: str) -> str:
    for line in summary.splitlines():
        if line.startswith(label + ":"):
            return line[len(label) + 1 :].strip()
    raise ValueError(f"summary has no {label!r} line")


def series_verdict(cfg: wl.Config, rows, summary: str, exit_code: int) -> Check:
    verdict = verdict_of(cfg, rows)
    written = summary_field(summary, "verdict")
    ok = written == verdict and exit_code == EXIT_CODE[verdict]
    return Check("series.verdict", ok, f"re-derived {verdict}, summary {written}, exit {exit_code}")


def gaussian_tail(cfg: wl.Config, rows) -> Check:
    """Each count against Binomial(R, P{|N(0, sum U^2)| > eps n^(1/p)})."""
    var = variances(cfg.a, cfg.b, rows[-1].n)
    worst = (1.0, 0)
    covered = 0
    for r, k in zip(rows, counts(rows, cfg.replications)):
        t = cfg.epsilon * float(r.n) ** (1.0 / cfg.p)
        prob = math.erfc(t / math.sqrt(2.0 * var[r.n]))
        covered += r.ci_low <= prob <= r.ci_high
        lower = bdtr(k, cfg.replications, prob)
        upper = 1.0 if k == 0 else bdtrc(k - 1, cfg.replications, prob)
        pval = min(1.0, 2.0 * min(lower, upper))
        worst = min(worst, (pval, r.n))
    return Check(
        "desk.gaussian_tail",
        bool(worst[0] >= BINOMIAL_LEVEL),
        f"smallest two-sided p-value {worst[0]:.3g} at n={worst[1]}; "
        f"95% Wilson covers the exact tail at {covered}/{len(rows)} points",
    )


def hoeffding(cfg: wl.Config, rows) -> Check:
    """ci_low <= 2 exp(-t^2 / (2 sum U^2)) for bounded (Rademacher) noise."""
    var = variances(cfg.a, cfg.b, rows[-1].n)
    margin = math.inf
    for r in rows:
        t = cfg.epsilon * float(r.n) ** (1.0 / cfg.p)
        bound = min(1.0, 2.0 * math.exp(-t * t / (2.0 * var[r.n])))
        margin = min(margin, bound - r.ci_low)
        if r.ci_low > bound:
            return Check("horizon.hoeffding", False, f"n={r.n}: ci_low {r.ci_low:.6g} > bound {bound:.6g}")
    return Check("horizon.hoeffding", True, f"smallest margin {margin:.3g}")


def moment_slope(summary: str) -> Check:
    match = re.match(r"slope (\S+) vs bound", summary_field(summary, "moment growth"))
    slope = float(match.group(1)) if match else math.nan
    lo, hi = MOMENT_SLOPE_WINDOW
    return Check("series.moment_slope", lo <= slope <= hi, f"r=2 slope {slope:.4f} in [{lo}, {hi}]")


def check_series(cfg: wl.Config, exit_code: int, files: dict) -> list:
    rows = parse_series(files["series.csv"])
    summary = files["summary.txt"]
    out = [series_consistency(cfg, rows), series_verdict(cfg, rows, summary, exit_code), moment_slope(summary)]
    if cfg.family == "normal":
        out.append(gaussian_tail(cfg, rows))
    if cfg.family == "rademacher":
        out.append(hoeffding(cfg, rows))
    return out


# --- analytic outputs ------------------------------------------------------


def _key_values(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def check_spectrum(cfg: wl.Config, tag: str, stdout: str) -> Check:
    kv = _key_values(stdout)
    a, b = cfg.a, cfg.b
    roots = [complex(kv["lambda1"]), complex(kv["lambda2"])]
    residual = max(abs(z * z - a * z - b) for z in roots)
    rho = max(abs(z) for z in roots)
    horizon = int(kv["horizon_used"])
    _, cum = weights(a, b, horizon)
    dominant = max(roots, key=abs)
    in_class = {
        "two_real": roots[0].imag == 0.0 and roots[0] != roots[1],
        "repeated": kv["mu"] == "2" and roots[0] == roots[1],
        "complex": roots[0].imag > 0.0,
        "negative": dominant.imag == 0.0 and dominant.real < 0.0,
        "near_boundary": rho > 0.99,
    }[tag]
    ok = (
        residual <= 1e-12
        and kv["stability"] == "Stable"
        and _close(float(kv["rho"]), rho, 1e-12)
        and rho < 1.0
        and (kv["mu"] == "2") == (tag == "repeated")
        and _close(float(kv["discriminant"]), a * a + 4.0 * b, 1e-12)
        and _close(float(kv["cum_limit"]), 1.0 / (1.0 - a - b), 1e-12)
        and _close(float(kv["L_star"]), max(abs(c) for c in cum), 1e-9)
        and in_class
    )
    return Check(f"{tag}.spectrum", ok, f"root residual {residual:.1e}, rho {rho:.6f}")


def check_weights(cfg: wl.Config, tag: str, stdout: str) -> Check:
    lines = stdout.splitlines()
    u, cum = weights(cfg.a, cfg.b, cfg.grid_max)
    if lines[0] != "j,u,cum" or len(lines) != cfg.grid_max + 2:
        return Check(f"{tag}.weights", False, "table shape differs from j = 0..grid_max")
    for j, line in enumerate(lines[1:]):
        f = line.split(",")
        if int(f[0]) != j or not (
            abs(float(f[1]) - u[j]) <= 1e-12 * max(1.0, abs(u[j]))
            and abs(float(f[2]) - cum[j]) <= 1e-9 * max(1.0, abs(cum[j]))
        ):
            return Check(f"{tag}.weights", False, f"row j={j} does not follow the recursion")
    return Check(f"{tag}.weights", True, f"{len(lines) - 1} rows against the recursion")


def _support_ok(cfg: wl.Config, theta: float) -> bool:
    if not math.isfinite(theta):
        return False
    if cfg.family == "rademacher":
        return theta in (-1.0, 1.0)
    if cfg.family == "uniform":
        return abs(theta) <= cfg.params[0]
    if cfg.family == "pareto":
        return abs(theta) >= cfg.params[1]
    return True


def check_paths(cfg: wl.Config, tag: str, paths_csv: str, stdout: str) -> Check:
    """Every state against xi_k = a xi_{k-1} + b xi_{k-2} + theta_k."""
    name = f"{tag}.paths"
    lines = paths_csv.splitlines()
    if not lines or lines[0] != "path,k,theta,xi" or (len(lines) - 1) % cfg.grid_max:
        return Check(name, False, "paths.csv shape differs from whole paths of length grid_max")
    n_paths = (len(lines) - 1) // cfg.grid_max
    if stdout.split()[:2] != ["wrote", str(n_paths)]:
        return Check(name, False, "stdout does not report the paths written")
    a, b = cfg.a, cfg.b
    positive = 0
    for i in range(n_paths):
        prev2 = prev1 = 0.0
        for k in range(1, cfg.grid_max + 1):
            f = lines[i * cfg.grid_max + k].split(",")
            theta, xi = float(f[2]), float(f[3])
            if int(f[0]) != i or int(f[1]) != k or not _support_ok(cfg, theta):
                return Check(name, False, f"path {i} step {k}: bad index or theta outside the support")
            want = a * prev1 + b * prev2 + theta
            if abs(xi - want) > 1e-12 * max(1.0, abs(want)):
                return Check(name, False, f"path {i} step {k}: xi {xi!r} != recursion {want!r}")
            positive += theta > 0.0
            prev2, prev1 = prev1, xi
    draws = n_paths * cfg.grid_max
    share = positive / draws
    # symmetric noise: six standard errors around one half
    ok = n_paths >= 1 and abs(share - 0.5) <= 3.0 / math.sqrt(draws)
    return Check(name, ok, f"{n_paths} paths x {cfg.grid_max} steps, positive share {share:.4f}")


_VERIFY_LINE = re.compile(r"\[(PASS|FAIL)\] (.+?)(?: \((.*)\))?$")


def check_verify(cfg: wl.Config, tag: str, exit_code: int, stdout: str) -> tuple:
    """(check, known_defect): every line PASS, or exactly the known defect."""
    results = []
    for line in stdout.splitlines():
        match = _VERIFY_LINE.match(line)
        if match:
            results.append(match.groups())
    fails = [r for r in results if r[0] == "FAIL"]
    last = stdout.splitlines()[-1] if stdout else ""
    name = f"{tag}.verify"
    if not results:
        return Check(name, False, "no check lines"), False
    if not fails:
        return Check(name, exit_code == 0 and last == "all checks passed", f"{len(results)} PASS"), False
    if tag == wl.KNOWN_DEFECT_PAIR and len(fails) == 1 and fails[0][1] == wl.KNOWN_DEFECT_CHECK:
        _, cum = weights(cfg.a, cfg.b, wl.VERIFY_HORIZON)
        gap = abs(cum[wl.VERIFY_HORIZON] - 1.0 / (1.0 - cfg.a - cfg.b))
        match = re.fullmatch(r"gap (\S+)", fails[0][2] or "")
        ok = bool(match) and _close(float(match.group(1)), gap, 5e-3) and exit_code == 1
        ok = ok and last == "1 check(s) failed"
        return Check(name, ok, f"known defect: U({wl.VERIFY_HORIZON}) is {gap:.3g} from 1/(1-a-b)"), ok
    return Check(name, False, "FAIL on " + "; ".join(f[1] for f in fails)), False
