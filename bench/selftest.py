"""Self-tests of the output checks: each must reject a tampered output.

Every run tampers with copies of its own first outputs (never the files
on disk) and runs the matching check on them.  A tamper the check lets
through is a failed operation, so a check that has lost its teeth shows
up in `failed` like a wrong output does.
"""

from __future__ import annotations

import math
from dataclasses import replace

import oracles as o
import workloads as wl


def _rejected(name: str, check: o.Check) -> o.Check:
    return o.Check(f"selftest.{name}", not check.ok, f"check {check.name} said: {check.detail}")


def series(cfg: wl.Config, exit_code: int, files: dict) -> list:
    rows = o.parse_series(files["series.csv"])
    summary = files["summary.txt"]
    hits = o.counts(rows, cfg.replications)
    grid = [r.n for r in rows]
    out = []

    # the most variable point: a shift there is the hardest to see
    i = max(range(len(rows)), key=lambda j: rows[j].p_hat * (1.0 - rows[j].p_hat))
    shift = round(0.05 * cfg.replications)
    shifted = list(rows)
    shifted[i] = replace(rows[i], p_hat=(hits[i] + shift) / cfg.replications)
    out.append(_rejected("shifted_p_hat", o.series_consistency(cfg, shifted)))

    flipped = list(rows)
    flipped[-1] = replace(rows[-1], at_floor=not rows[-1].at_floor)
    out.append(_rejected("flipped_at_floor", o.series_consistency(cfg, flipped)))

    verdict = o.summary_field(summary, "verdict")
    other = "Growing" if verdict != "Growing" else "Stabilized"
    out.append(_rejected("flipped_verdict", o.series_verdict(
        cfg, rows, summary.replace(f"verdict: {verdict}", f"verdict: {other}"), exit_code)))
    out.append(_rejected("flipped_exit_code", o.series_verdict(cfg, rows, summary, 3 if exit_code != 3 else 0)))

    slope = o.summary_field(summary, "moment growth").split()[1]
    out.append(_rejected("moment_slope", o.moment_slope(summary.replace(f"slope {slope}", "slope 1.2"))))

    # self-consistent outputs whose counts break the exact oracle
    moved = list(hits)
    if cfg.family == "normal":
        moved[i] = hits[i] + shift
        out.append(_rejected("consistent_shift", o.gaussian_tail(cfg, o.rebuild(cfg, grid, moved))))
    if cfg.family == "rademacher":
        var = o.variances(cfg.a, cfg.b, grid[-1])
        bounds = [2.0 * math.exp(-(cfg.epsilon * n ** (1.0 / cfg.p)) ** 2 / (2.0 * var[n])) for n in grid]
        j = min(range(len(grid)), key=bounds.__getitem__)
        moved[j] = min(cfg.replications, math.ceil((bounds[j] + 0.1) * cfg.replications))
        out.append(_rejected("above_hoeffding", o.hoeffding(cfg, o.rebuild(cfg, grid, moved))))
    return out


def _replace_line(text: str, index: int, edit) -> str:
    lines = text.split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines)


def analytic(configs: dict, outputs: dict) -> list:
    """configs: tag -> Config; outputs: call name -> (exit code, stdout, files)."""
    tag = wl.ANALYTIC_PAIRS[0][0]
    cfg = configs[tag]
    out = []

    def bump_xi(line):
        path, k, theta, xi = line.split(",")
        return ",".join([path, k, theta, repr(float(xi) * (1.0 + 1e-6) + 1e-6)])

    _, stdout, files = outputs[f"{tag}.simulate"]
    out.append(_rejected("perturbed_xi", o.check_paths(cfg, tag, _replace_line(files["paths.csv"], 7, bump_xi), stdout)))

    def bump_u(line):
        j, u, cum = line.split(",")
        return ",".join([j, repr(float(u) + 1e-9), cum])

    _, stdout, _ = outputs[f"{tag}.weights"]
    out.append(_rejected("perturbed_u", o.check_weights(cfg, tag, _replace_line(stdout, 101, bump_u))))

    _, stdout, _ = outputs[f"{tag}.spectrum"]
    rho = o._key_values(stdout)["rho"]
    out.append(_rejected("perturbed_rho", o.check_spectrum(
        cfg, tag, stdout.replace(f"rho = {rho}", f"rho = {float(rho) + 1e-6!r}"))))

    code, stdout, _ = outputs[f"{tag}.verify"]
    out.append(_rejected("flipped_verify_line", o.check_verify(cfg, tag, code, stdout.replace("[PASS]", "[FAIL]", 1))[0]))

    defect = wl.KNOWN_DEFECT_PAIR
    code, stdout, _ = outputs[f"{defect}.verify"]
    if "[FAIL]" in stdout:
        tampered = stdout.replace("(gap ", "(gap 9", 1)
        out.append(_rejected("known_defect_gap", o.check_verify(configs[defect], defect, code, tampered)[0]))
    return out
