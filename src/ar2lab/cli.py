"""Command-line front end.

    ar2lab spectrum  --config cfg   roots, radius, envelope constants
    ar2lab weights   --config cfg   weight table as CSV on stdout
    ar2lab simulate  --config cfg   sample paths -> <output>.paths.csv
    ar2lab series    --config cfg   full pipeline -> CSVs + summary
    ar2lab verify    --config cfg   internal consistency checks

Exit codes for `series`: 0 the partial sums stabilized, 2 the Monte
Carlo floor got in the way, 3 the sums kept growing, 4 the series
diverges because E|theta|^r is infinite, 1 any error, a usage error of
any command included.
All emitted files are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from . import estimate as est
from .config import ExperimentConfig, parse_config
from .errors import LabError
from .noise import StreamKey, absolute_moment, sample_block
from .recurrence import (
    bound_report,
    companion_power_column,  # noqa: F401  unused here, but bench/spans.py wraps it where cli looks it up
    companion_spectrum,
    weight_closed_form,
    weight_sequence,
)
from .simulate import representation_residual, simulate_path
from .text import table as _table

SELF_CHECK_PATHS = 10
RESIDUAL_TOL = 1e-9

_EXIT_CODE = {
    est.Verdict.STABILIZED: 0,
    est.Verdict.FLOOR_LIMITED: 2,
    est.Verdict.GROWING: 3,
    est.Verdict.DIVERGENT: 4,
}


def _f(x) -> str:
    """Render a float with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


def _series_csv(series: est.SeriesEstimate) -> str:
    """One row per grid point; schema is fixed and documented."""
    tails = series.tails
    columns = [
        [t.n for t in tails], [t.p_hat for t in tails], [t.ci_low for t in tails], [t.ci_high for t in tails],
        series.terms, series.partial_sums, series.partial_sum_ci_high,
        ["true" if t.at_floor else "false" for t in tails],
    ]
    head = "n,p_hat,ci_low,ci_high,term,partial_sum,partial_sum_ci_high,at_floor\n"
    return _table(head, "%d" + ",%.17g" * 6 + ",%s", columns)


def _spectrum_fields(config: ExperimentConfig, spectrum, report) -> list:
    """The spectrum report as (name, value) pairs, in its one order."""
    return [
        ("a", config.coeffs.a), ("b", config.coeffs.b), ("stability", config.coeffs.stability.value),
        ("lambda1", spectrum.lambda1), ("lambda2", spectrum.lambda2), ("rho", spectrum.rho),
        ("mu", spectrum.mu), ("discriminant", spectrum.discriminant), ("L_star", report.L_star),
        ("cum_limit", report.cum_limit), ("koval_ratio_min", report.koval_ratio_min),
        ("koval_ratio_max", report.koval_ratio_max), ("horizon_used", report.horizon_used),
    ]


def _cell(value) -> str:
    """Floats at 17 digits, complex roots as (re+imj) at 17 digits each; counts and names as str."""
    if isinstance(value, complex):
        imag = _f(value.imag)
        return f"({_f(value.real)}{'' if imag[0] == '-' else '+'}{imag}j)"
    return _f(value) if isinstance(value, float) else str(value)


def _spectrum_csv(config: ExperimentConfig, spectrum, report) -> str:
    """One row of the spectrum fields; a complex root splits into <name>_re, <name>_im."""
    fields = []
    for name, value in _spectrum_fields(config, spectrum, report):
        complex_root = isinstance(value, complex)
        fields += [(name + "_re", value.real), (name + "_im", value.imag)] if complex_root else [(name, value)]
    names, values = zip(*fields)
    return ",".join(names) + "\n" + ",".join(map(_cell, values)) + "\n"


def _write_files(files) -> None:
    """Write each (path, pieces of text) as UTF-8 with LF endings on every platform.  A failure in
    making or writing a piece removes every file opened so far, so a file that exists is complete."""
    opened = []
    try:
        for path, pieces in files:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                opened.append(path)
                for text in pieces:
                    _write_text(fh, text)
                    del text  # before the next piece is made, so one piece is held at a time
    except BaseException:
        for path in opened:
            os.remove(path)
        raise


def _write_text(fh, text: str) -> None:
    # every emitted file's text passes here, in one or more pieces, and
    # bench/spans.py counts the bytes written at this one name
    fh.write(text)


def _sample_paths(config: ExperimentConfig, purpose: str) -> np.ndarray:
    """SELF_CHECK_PATHS rows of grid_max draws, row i from the stream key (seed, purpose, grid_max, block i)."""
    n = config.grid_max
    rows = np.empty((SELF_CHECK_PATHS, n))
    for i, theta in enumerate(rows):
        sample_block(config.noise, n, StreamKey(config.master_seed, purpose, n=n, block=i), out=theta)
    return rows


def _self_check(config: ExperimentConfig, table) -> float:
    """Max dual-representation residual over probe paths, nan if any is nan.

    The finite probes are checked in one batch.  A heavy-tailed probe may
    draw or overflow to inf; its residual is then nan, which fails the
    check instead of dropping out of the max.
    """
    probes = _sample_paths(config, "probe")
    finite = np.isfinite(probes).all(axis=1)
    residuals = np.full(SELF_CHECK_PATHS, math.nan)
    if finite.any():
        with np.errstate(over="ignore", invalid="ignore"):
            residuals[finite] = representation_residual(table, probes if finite.all() else probes[finite])
    return float(np.max(residuals))


def _bound_horizon(grid_max: int) -> int:
    return max(200, min(grid_max, 10000))


def run(config: ExperimentConfig) -> int:
    """Full pipeline; returns the process exit code.

    ExperimentConfig guarantees stable coefficients.  Order: spectrum +
    envelope report and self-check on one weight table, tail series over
    the default grid with the moment-growth fit read off the same paths,
    then CSVs and a text summary.  Nothing is written until every stage has
    succeeded, and a failed write removes the files before it, so a
    refused run leaves no file behind.
    """
    spectrum = companion_spectrum(config.coeffs)
    horizon = _bound_horizon(config.grid_max)
    table = weight_sequence(config.coeffs, max(horizon, config.grid_max - 1))
    report = bound_report(table, horizon)

    residual = _self_check(config, table)
    if not residual <= RESIDUAL_TOL:
        raise LabError(
            f"representation self-check failed: residual {residual:.3e} > {RESIDUAL_TOL:.0e}"
        )

    series = est.partial_series(
        config.coeffs,
        config.noise,
        config.params,
        est.default_grid(config.grid_max),
        config.replications,
        config.master_seed,
    )

    texts = {".spectrum.csv": _spectrum_csv(config, spectrum, report), ".series.csv": _series_csv(series),
             ".summary.txt": _summary_text(config, spectrum, report, residual, series)}
    _write_files([(config.output_path + suffix, [text]) for suffix, text in texts.items()])
    return _EXIT_CODE[series.verdict]


def _summary_text(config, spectrum, report, residual, series) -> str:
    lines = [
        "series run summary",
        f"coefficients: a = {_f(config.coeffs.a)}, b = {_f(config.coeffs.b)} ({config.coeffs.stability.value})",
        f"series: p = {_f(config.params.p)}, r = {_f(config.params.r)}, epsilon = {_f(config.params.epsilon)}",
        "noise: "
        + config.noise.family
        + ("" if not config.noise.params else " (" + ", ".join(_f(p) for p in config.noise.params) + ")"),
        f"replications per n: {config.replications}",
        f"master seed: {config.master_seed}",
        f"sampling layout: {est.SAMPLING_LAYOUT}",
        f"spectral radius rho = {_f(spectrum.rho)}, multiplicity mu = {spectrum.mu}",
        f"cumulative weight bound L_star = {_f(report.L_star)}, limit {_f(report.cum_limit)}",
        f"envelope ratio range [{_f(report.koval_ratio_min)}, {_f(report.koval_ratio_max)}]"
        f" over s <= {report.horizon_used}",
        f"representation residual (max over {SELF_CHECK_PATHS} probes): {_f(residual)}",
        f"grid: {len(series.grid)} points, n = {series.grid[0]}..{series.grid[-1]}",
        f"partial sum: {_f(series.partial_sums[-1])}",
        f"partial sum CI-upper: {_f(series.partial_sum_ci_high[-1])}",
        f"terms at Monte Carlo floor: {sum(t.at_floor for t in series.tails)} of {len(series.tails)}",
        f"verdict: {series.verdict.value}"
        + (f" (E|theta|^{_f(config.params.r)} = inf)" if series.verdict is est.Verdict.DIVERGENT else ""),
    ]
    moment = series.moments
    if moment is not None:
        lines.append(
            f"moment growth: slope {_f(moment.slope)} vs bound {_f(moment.bound)}"
            f" over n = {moment.n_grid[0]}..{moment.n_grid[-1]}"
        )
    elif math.isfinite(absolute_moment(config.noise, config.params.r)):
        lines.append("moment growth: skipped (fewer than 4 powers of two >= 16 on the grid)")
    else:
        lines.append(f"moment growth: skipped (E|theta|^{_f(config.params.r)} diverges)")
    return "\n".join(lines) + "\n"


def _cmd_spectrum(config: ExperimentConfig) -> int:
    spectrum = companion_spectrum(config.coeffs)
    horizon = _bound_horizon(config.grid_max)
    report = bound_report(weight_sequence(config.coeffs, horizon), horizon)
    for name, value in _spectrum_fields(config, spectrum, report):
        print(f"{name} = {_cell(value)}")
    return 0


def _cmd_weights(config: ExperimentConfig) -> int:
    table = weight_sequence(config.coeffs, config.grid_max)
    columns = [np.arange(table.horizon + 1), table.u, table.cum]
    print(_table("j,u,cum\n", "%d,%.17g,%.17g", columns), end="")
    return 0


def _cmd_simulate(config: ExperimentConfig) -> int:
    """Walk the paths in one batch, then write them one at a time.

    The walk holds the draws and two arrays as large of its own, 3 x 10
    x n doubles; the draws and the states it returns (2 x 10 x n
    doubles) and one path's text are held while the paths are written.
    A batch refused for an infinite draw writes no file, and a failed
    write removes the file.
    """
    n = config.grid_max
    out = config.output_path + ".paths.csv"
    thetas = _sample_paths(config, "path")
    xi = simulate_path(config.coeffs, thetas)
    steps = np.arange(1, n + 1)

    def texts():
        for i in range(SELF_CHECK_PATHS):
            columns = [np.full(n, i), steps, thetas[i], xi[i]]
            yield _table("" if i else "path,k,theta,xi\n", "%d,%d,%.17g,%.17g", columns)

    _write_files([(out, texts())])
    print(f"wrote {SELF_CHECK_PATHS} paths of length {n} to {out}")
    return 0


def _cmd_verify(config: ExperimentConfig) -> int:
    """Fast invariant battery; prints one line per check."""
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[{tag}] {name}{suffix}")
        if not ok:
            failures += 1

    coeffs = config.coeffs
    spectrum = companion_spectrum(coeffs)
    horizon = 400
    table = weight_sequence(coeffs, max(horizon + 1, config.grid_max - 1))  # the probes' table too

    # roots solve z^2 - a z - b = 0
    lam_sum = spectrum.lambda1 + spectrum.lambda2
    lam_prod = spectrum.lambda1 * spectrum.lambda2
    check(
        "characteristic roots",
        abs(lam_sum - coeffs.a) <= 1e-12 * max(1.0, abs(coeffs.a))
        and abs(lam_prod + coeffs.b) <= 1e-12 * max(1.0, abs(coeffs.b)),
        f"sum={lam_sum}, prod={lam_prod}",
    )

    # closed form from the roots vs the recurrence's table, s = 1 .. 200
    worst = 0.0
    for s in range(1, 201):
        ref = table.u[s]
        worst = max(worst, abs(weight_closed_form(spectrum, s) - ref) / max(1.0, abs(ref)))
    check("weight routes agree (s <= 200)", worst <= 1e-8, f"max rel err {worst:.2e}")

    # (1-a-b) U(h) = 1 - u_{h+1} - b u_h holds exactly at every h, also
    # near the boundary where U(h) is still far from its limit 1/(1-a-b)
    u, cum = table.u, table.cum
    gap = abs((1.0 - coeffs.a - coeffs.b) * cum[horizon] - (1.0 - u[horizon + 1] - coeffs.b * u[horizon]))
    ok = gap <= 1e-10 * max(1.0, abs(cum[horizon]))
    check(f"cumulative weight identity at h = {horizon}", ok, f"gap {gap:.2e}")

    # dual representation on probe paths
    residual = _self_check(config, table)
    check("dual representation residual", residual <= RESIDUAL_TOL, f"max {residual:.2e}")

    # sampling determinism
    key = StreamKey(config.master_seed, "verify", n=64, block=0)
    one = sample_block(config.noise, 64, key)
    two = sample_block(config.noise, 64, key)
    check("sampling is key-deterministic", bool(np.array_equal(one, two)))

    # tail estimate determinism on a small case
    params = config.params
    t1 = est.tail_probability(coeffs, config.noise, params, 8, 500, config.master_seed)
    t2 = est.tail_probability(coeffs, config.noise, params, 8, 500, config.master_seed)
    check("tail estimate is reproducible", t1 == t2)

    print(f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "weights": _cmd_weights,
    "simulate": _cmd_simulate,
    "series": run,
    "verify": _cmd_verify,
}

_USAGE = "usage: ar2lab [-h] command --config CONFIG [--seed SEED] [--replications REPLICATIONS] [--out OUT]\n"

_HELP = _USAGE + """
Estimate weighted tail series for 2nd-order autoregressive partial sums.

options:
  -h, --help            show this help message and exit
  --config CONFIG       path to the config file
  --seed SEED           override the master seed
  --replications REPLICATIONS
                        override replications per n
  --out OUT             override the output path prefix

Each option takes its value as --opt value or --opt=value.

commands:
  spectrum  print roots, spectral radius, and envelope constants
  weights   dump the weight table as CSV on stdout
  simulate  write sample paths to <output>.paths.csv
  series    run the full estimation pipeline
  verify    run the internal consistency checks
"""

# option -> (config field it overrides, type of its value); --config names the file itself
_OPTIONS = {"--config": ("config", str), "--seed": ("master_seed", int),
            "--replications": ("replications", int), "--out": ("output_path", str)}


def _usage_error(message: str):
    """Exit 1, not 2, which is FloorLimited's code, with the usage line on stderr."""
    sys.stderr.write(f"{_USAGE}ar2lab: error: {message}\n")
    raise SystemExit(1)


def _parse_args(argv: list) -> tuple:
    """(command, {field: value}) from the command and --opt value / --opt=value options."""
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_HELP)
        raise SystemExit(0)
    commands, values = [], {}
    args = iter(argv)
    for arg in args:
        if not arg.startswith("-"):
            commands.append(arg)
            continue
        option, equals, value = arg.partition("=")
        if option not in _OPTIONS:
            _usage_error(f"unrecognized arguments: {arg}")
        if not equals:
            value = next(args, None)
            if value is None or (value.startswith("-") and not value[1:].isdigit()):
                _usage_error(f"argument {option}: expected one argument")
        field, kind = _OPTIONS[option]
        try:
            values[field] = kind(value)
        except ValueError:
            _usage_error(f"argument {option}: invalid int value: {value!r}")
    if len(commands) > 1:
        _usage_error(f"unrecognized arguments: {' '.join(commands[1:])}")
    if commands and commands[0] not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _usage_error(f"argument command: invalid choice: {commands[0]!r} (choose from {choices})")
    missing = ["command"] * (not commands) + ["--config"] * ("config" not in values)
    if missing:
        _usage_error("the following arguments are required: " + ", ".join(missing))
    return commands[0], values


def main(argv=None) -> int:
    command, overrides = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        # ExperimentConfig re-validates, so overrides obey the config file's rules
        config = parse_config(overrides.pop("config")).replace(**overrides)
        return _COMMANDS[command](config)
    except (LabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
