import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ar2lab.cli
import ar2lab.estimate
import ar2lab.text
from ar2lab import (
    ARCoefficients,
    NoiseSpec,
    StreamKey,
    ValidationError,
    Verdict,
    default_grid,
    parse_config_text,
    partial_series,
    sample_block,
    simulate_path,
    weight_sequence,
)
from ar2lab.cli import main, run

DATA = Path(__file__).parent / "data"

BASE = """
a = 0.3
b = 0.2
p = 1
r = 2
epsilon = 1
noise.family = normal
grid_max = 12
replications = 400
seed = 2026
"""

GOLDEN = BASE  # pinned forever; regenerating must reproduce the tests/data/golden.* files


def write_cfg(tmp_path, text=BASE, **overrides):
    out = tmp_path / "run"
    lines = [text.strip(), f"output = {out}"]
    for key, value in overrides.items():
        lines.append(f"{key.replace('_', '.', 1) if key.startswith('noise') else key} = {value}")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cfg, out


def configure(tmp_path, text=BASE):
    cfg_path, out = write_cfg(tmp_path, text)
    config = parse_config_text(cfg_path.read_text(encoding="utf-8"))
    return config, out


# --- run() pipeline -------------------------------------------------------------

def test_run_writes_all_artifacts(tmp_path):
    config, out = configure(tmp_path)
    code = run(config)
    assert code == 3  # the truncated grid never stabilizes
    series_path = Path(str(out) + ".series.csv")
    assert series_path.exists()
    assert Path(str(out) + ".spectrum.csv").exists()
    assert Path(str(out) + ".summary.txt").exists()

    raw = series_path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "n,p_hat,ci_low,ci_high,term,partial_sum,partial_sum_ci_high,at_floor"
    assert len(lines) == 1 + config.grid_max

    series = partial_series(
        config.coeffs, config.noise, config.params,
        default_grid(config.grid_max), config.replications, config.master_seed,
    )
    for row, tail, term, psum, pci in zip(
        lines[1:], series.tails, series.terms, series.partial_sums, series.partial_sum_ci_high
    ):
        cells = row.split(",")
        assert len(cells) == 8
        assert int(cells[0]) == tail.n
        # 17 significant digits round-trip every double exactly
        assert float(cells[1]) == tail.p_hat
        assert float(cells[2]) == tail.ci_low
        assert float(cells[3]) == tail.ci_high
        assert float(cells[4]) == term
        assert float(cells[5]) == psum
        assert float(cells[6]) == pci
        assert cells[7] in ("true", "false")
        assert (cells[7] == "true") == tail.at_floor


def test_run_spectrum_csv_schema(tmp_path):
    config, out = configure(tmp_path)
    run(config)
    lines = Path(str(out) + ".spectrum.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert header == [
        "a", "b", "stability", "lambda1_re", "lambda1_im", "lambda2_re", "lambda2_im",
        "rho", "mu", "discriminant", "L_star", "cum_limit",
        "koval_ratio_min", "koval_ratio_max", "horizon_used",
    ]
    assert len(row) == len(header)
    assert row[2] == "Stable"
    assert float(row[0]) == 0.3 and float(row[1]) == 0.2
    assert 0 < float(row[7]) < 1  # rho
    assert row[8] == "1"  # simple roots
    assert float(row[11]) == pytest.approx(2.0)  # 1/(1-a-b)


def test_run_summary_content(tmp_path):
    config, out = configure(tmp_path)
    run(config)
    text = Path(str(out) + ".summary.txt").read_text(encoding="utf-8")
    assert "coefficients: a = 0.29999999999999999, b = 0.20000000000000001 (Stable)" in text
    assert "noise: normal" in text
    assert "verdict: Growing" in text
    # grid 1..12 holds no power of two >= 16 for the moment fit
    assert "moment growth: skipped (fewer than 4 powers of two >= 16 on the grid)" in text
    assert "representation residual" in text


def test_run_skips_moment_check_when_moment_diverges(tmp_path):
    text = BASE.replace("noise.family = normal",
                        "noise.family = pareto\nnoise.param1 = 1.5\nnoise.param2 = 1.0")
    config, out = configure(tmp_path, text)
    assert run(config) == 4
    summary = Path(str(out) + ".summary.txt").read_text(encoding="utf-8")
    assert "moment growth: skipped" in summary


def summary_line(out, field):
    text = Path(str(out) + ".summary.txt").read_text(encoding="utf-8")
    return next(line for line in text.splitlines() if line.startswith(field + ": "))


PARETO_1_5 = "pareto\nnoise.param1 = 1.5\nnoise.param2 = 1.0"  # E|theta|^2 diverges


@pytest.mark.parametrize(
    "grid_max, family, expected",
    [
        (128, "normal", None),
        (64, "normal", "moment growth: skipped (fewer than 4 powers of two >= 16 on the grid)"),
        (128, PARETO_1_5, "moment growth: skipped (E|theta|^2 diverges)"),
    ],
    ids=["fit", "short-grid", "diverges"],
)
def test_run_summary_says_why_the_moment_fit_is_skipped(tmp_path, grid_max, family, expected):
    text = (BASE.replace("grid_max = 12", f"grid_max = {grid_max}")
            .replace("noise.family = normal", f"noise.family = {family}")
            .replace("replications = 400", "replications = 200"))
    config, out = configure(tmp_path, text)
    code = run(config)
    series = partial_series(config.coeffs, config.noise, config.params,
                            default_grid(config.grid_max), config.replications, config.master_seed)
    if expected is None:  # the fit, read off the series' own paths at 16, 32, 64, 128
        expected = f"moment growth: slope {series.moments.slope:.17g} vs bound 1 over n = 16..128"
    else:
        assert series.moments is None
    assert summary_line(out, "moment growth") == expected
    # the moment fit never moves the exit code: it is the verdict's
    # an infinite E|theta|^r does move it: the series diverges, and the verdict line says why
    divergent = series.verdict is Verdict.DIVERGENT
    assert divergent == (family == PARETO_1_5)
    assert summary_line(out, "verdict") == f"verdict: {series.verdict.value}" + " (E|theta|^2 = inf)" * divergent
    assert code == {"Stabilized": 0, "FloorLimited": 2, "Growing": 3, "Divergent": 4}[series.verdict.value]


@pytest.mark.parametrize("grid_max", [100, 128])
def test_series_run_draws_each_path_once(tmp_path, monkeypatch, grid_max):
    # one pass: R paths drawn to the end of the time strip holding grid_max
    # (128 for both) feed the tail counts and the moments alike, plus 10 probe
    # paths of grid_max steps
    draws = []
    for module in (ar2lab.cli, ar2lab.estimate):
        def counted(spec, count, *args, _sample=module.sample_block, **kwargs):
            draws.append(count)
            return _sample(spec, count, *args, **kwargs)

        monkeypatch.setattr(module, "sample_block", counted)
    text = BASE.replace("grid_max = 12", f"grid_max = {grid_max}").replace(
        "replications = 400", "replications = 200"
    )
    config, _ = configure(tmp_path, text)
    run(config)
    assert sum(draws) == 200 * 128 + 10 * grid_max


def test_run_is_byte_deterministic(tmp_path):
    config, out = configure(tmp_path)
    other = config.replace(output_path=str(tmp_path / "again"))
    assert run(config) == run(other)
    for suffix in (".series.csv", ".spectrum.csv", ".summary.txt"):
        first = Path(str(out) + suffix).read_bytes()
        second = Path(str(tmp_path / "again") + suffix).read_bytes()
        assert first == second


def test_run_matches_golden_series(tmp_path):
    config = parse_config_text(GOLDEN + f"output = {tmp_path / 'golden'}\n")
    run(config)
    for name in ("golden.series.csv", "golden.spectrum.csv", "golden.summary.txt"):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


COMPLEX = GOLDEN.replace("a = 0.3", "a = 0.5").replace("b = 0.2", "b = -0.9")  # roots 0.25 ± 0.915i


@pytest.mark.parametrize(
    "text, command, code, golden",
    [
        (GOLDEN, "spectrum", 0, "golden.spectrum.txt"),
        (GOLDEN, "weights", 0, "golden.weights.csv"),
        (GOLDEN, "verify", 0, "golden.verify.txt"),
        (GOLDEN, "simulate", 0, "golden.paths.csv"),  # its stdout names the output path
        (COMPLEX, "spectrum", 0, "golden.complex.spectrum.txt"),
        (COMPLEX, "series", 2, "golden.complex.spectrum.csv"),  # the _re/_im split; 6 of 12 terms at the floor
    ],
    ids=["spectrum", "weights", "verify", "paths", "complex-spectrum", "complex-spectrum-csv"],
)
def test_subcommands_match_golden(tmp_path, capsys, text, command, code, golden):
    cfg_path, out = write_cfg(tmp_path, text)
    assert main([command, "--config", str(cfg_path)]) == code
    stdout = capsys.readouterr().out.encode("utf-8")
    written = {"simulate": ".paths.csv", "series": ".spectrum.csv"}.get(command)
    got = Path(str(out) + written).read_bytes() if written else stdout
    assert got == (DATA / golden).read_bytes()


def test_spectrum_report_roots_carry_the_csv_digits(tmp_path, capsys):
    # one value, one text: the report's roots hold spectrum.csv's 17 digits
    # in a form that complex() reads back
    cfg_path, _ = write_cfg(tmp_path, COMPLEX)
    assert main(["spectrum", "--config", str(cfg_path)]) == 0
    report = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    header, values = (DATA / "golden.complex.spectrum.csv").read_text().splitlines()
    row = dict(zip(header.split(","), values.split(",")))
    for name in ("lambda1", "lambda2"):
        real, imag = row[name + "_re"], row[name + "_im"]
        assert real in report[name] and imag.lstrip("-") in report[name]
        assert complex(report[name]) == complex(float(real), float(imag))


def test_bound_horizon_takes_whole_numbers_only(tmp_path):
    # int() would scan a 300-step table for grid_max 300.5; the config refuses it,
    # so _bound_horizon only ever sees the whole grid_max a config holds
    config, _ = configure(tmp_path)
    with pytest.raises(ValidationError, match=r"grid_max must be a whole number"):
        config.replace(grid_max=300.5)
    whole = config.replace(grid_max=300.0).grid_max
    assert type(whole) is int and ar2lab.cli._bound_horizon(whole) == 300


def assert_self_check_fails(tmp_path, capsys, seed):
    """verify and series on the pareto 0.01 config at this seed both fail the self-check on a nan residual."""
    text = (BASE.replace("noise.family = normal", "noise.family = pareto\nnoise.param1 = 0.01\nnoise.param2 = 1")
            .replace("grid_max = 12", "grid_max = 128").replace("replications = 400", "replications = 1000")
            .replace("seed = 2026", f"seed = {seed}"))
    cfg_path, _ = write_cfg(tmp_path, text)
    assert main(["verify", "--config", str(cfg_path)]) == 1
    report = capsys.readouterr().out
    assert "[FAIL] dual representation residual (max nan)\n" in report
    assert report.count("[PASS]") == 5 and report.endswith("1 check(s) failed\n")
    assert main(["series", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: representation self-check failed: residual nan > 1e-09\n"
    assert [f.name for f in tmp_path.iterdir()] == ["exp.cfg"]  # a refused run writes no file


def test_self_check_fails_on_a_nan_residual(tmp_path, capsys):
    # alpha = 0.01 overflows probe 0 to +-inf, so its residual is nan
    assert_self_check_fails(tmp_path, capsys, 43)


def test_self_check_fails_on_an_infinite_draw(tmp_path, capsys):
    # at seed 3 a probe draws inf itself: it cannot be summed, so its residual
    # is nan, and verify runs its remaining checks after the [FAIL] line
    probes = [sample_block(NoiseSpec("pareto", (0.01, 1.0)), 128, StreamKey(3, "probe", n=128, block=i))
              for i in range(ar2lab.cli.SELF_CHECK_PATHS)]
    assert not all(np.isfinite(theta).all() for theta in probes)
    assert_self_check_fails(tmp_path, capsys, 3)


def fresh_env(openblas_threads=None):
    """The environment of a fresh process that imports this checkout's ar2lab.

    OPENBLAS_NUM_THREADS is dropped, since this process set it when
    conftest imported ar2lab, then set to `openblas_threads` if given.
    """
    src = str(Path(ar2lab.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return env


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; importing it cost most of a run's start-up
    probe = "import sys, ar2lab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", probe], env=fresh_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_series_process_loads_no_argparse_dataclasses_or_table_kernel(tmp_path):
    # a small series process pays for none of them: the options are read by
    # hand, the records generate no code, and a one-slab table is rendered by %
    cfg_path, out = write_cfg(tmp_path)
    probe = ("import sys, ar2lab.cli, ar2lab.text\n"
             f"code = ar2lab.cli.main(['series', '--config', {str(cfg_path)!r}])\n"
             "print(code, sorted({'argparse', 'gettext', 'locale', 'dataclasses'} & set(sys.modules)),"
             " ar2lab.text._constants.cache_info().currsize)\n")
    result = subprocess.run([sys.executable, "-c", probe], env=fresh_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.split(maxsplit=1)[1].strip() == "[] 0"
    assert Path(str(out) + ".series.csv").exists()


@pytest.mark.parametrize(
    "preset, imports, expected",
    [(None, "ar2lab.cli", "1"), ("2", "ar2lab.cli", "2"), (None, "numpy, ar2lab.cli", None)],
    ids=["unset", "preset", "numpy-first"],
)
def test_import_starts_openblas_with_one_thread_unless_told_otherwise(preset, imports, expected):
    probe = (f"import os, {imports}\n"
             "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
             "if os.path.exists('/proc/self/status'):\n"
             "    with open('/proc/self/status') as fh:\n"
             "        print(next(line for line in fh if line.startswith('Threads:')).split()[1])\n")
    result = subprocess.run([sys.executable, "-c", probe], env=fresh_env(preset),
                            capture_output=True, text=True, check=True)
    variable, *threads = result.stdout.split()
    assert variable == str(expected)
    if expected == "1" and threads:  # numpy loaded, and OpenBLAS started no pool
        assert threads == ["1"]


def test_series_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # grid 1..128 reaches the moment fit, the lab's one BLAS/LAPACK call (np.polyfit)
    text = BASE.replace("grid_max = 12", "grid_max = 128").replace("replications = 400", "replications = 100")
    cfg_path, out = write_cfg(tmp_path, text)
    code = main(["series", "--config", str(cfg_path)])
    assert summary_line(out, "moment growth").startswith("moment growth: slope ")
    for threads in (None, "2"):
        prefix = tmp_path / f"threads-{threads}"
        argv = ["series", "--config", str(cfg_path), "--out", str(prefix)]
        child = subprocess.run([sys.executable, "-m", "ar2lab.cli", *argv], env=fresh_env(threads), capture_output=True)
        assert child.returncode == code, child.stderr
        for suffix in (".series.csv", ".summary.txt"):
            assert Path(str(prefix) + suffix).read_bytes() == Path(str(out) + suffix).read_bytes(), (threads, suffix)


# --- exit codes -------------------------------------------------------------

def test_exit_code_stabilized(tmp_path):
    text = BASE.replace("noise.family = normal", "noise.family = rademacher").replace(
        "epsilon = 1", "epsilon = 3"
    )
    config, _ = configure(tmp_path, text)
    assert run(config) == 0


def test_exit_code_floor_limited(tmp_path):
    text = BASE.replace("grid_max = 12", "grid_max = 48").replace(
        "replications = 400", "replications = 200"
    )
    config, _ = configure(tmp_path, text)
    assert run(config) == 2


# --- main() and subcommands ------------------------------------------------------------

def test_main_series_roundtrip(tmp_path):
    cfg_path, out = write_cfg(tmp_path)
    assert main(["series", "--config", str(cfg_path)]) == 3
    assert Path(str(out) + ".series.csv").exists()


def test_main_spectrum_prints_report(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path)
    assert main(["spectrum", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "rho = 0.6216990566028302" in out
    assert "mu = 1" in out
    assert "stability = Stable" in out


def test_main_weights_streams_csv(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path)
    assert main(["weights", "--config", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "j,u,cum"
    assert lines[1] == "0,1,1"
    assert len(lines) == 2 + 12  # j = 0..grid_max


def test_main_simulate_writes_paths(tmp_path, capsys):
    cfg_path, out = write_cfg(tmp_path)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    lines = Path(str(out) + ".paths.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "path,k,theta,xi"
    assert len(lines) == 1 + 10 * 12
    assert "wrote 10 paths" in capsys.readouterr().out


def format_route(header, row_format, rows):
    """The text of the per-row str.format route that cli._table replaced."""
    return "\n".join([header, *(row_format.format(*row) for row in rows)]) + "\n"


def test_table_text_equals_the_format_route():
    # the kernel's hard cases as Python floats, numpy scalars and float64
    # arrays beside %d and %s columns, then 10^6 random float64 bit patterns
    powers = [float(f"1e{k}") for k in range(-323, 309)] + [1e-5, 1e-4, 1e16, 1e17]
    near = [v for p in powers for v in (np.nextafter(p, -math.inf), p, np.nextafter(p, math.inf))]
    # k 2^-m is an exact tie at the 18th digit when k 5^m has 18 digits (3 2^-24 = 1.78813934326171875e-07)
    ties = [k * 2.0 ** -m for k in [*range(1, 100, 2), 2 ** 50 + 1, 2 ** 52 + 3, 2 ** 53 - 1] for m in range(1, 80)
            if len(str(k * 5 ** m)) == 18]
    rng = np.random.default_rng(13)
    subnormals = rng.integers(1, 2 ** 52, 2000, dtype=np.uint64).view(np.float64).tolist()
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 99999999999999999.0, math.inf, math.nan]
    x = [float(v) for v in edges + near + ties + subnormals]
    x += [-v for v in x]
    assert len(ties) > 50 and 3 * 2.0 ** -24 in ties
    ints = [0, -1, 7, -10, 2 ** 63 - 1, -2 ** 63, 10 ** 18, -10 ** 18 + 1]
    ints += rng.integers(-2 ** 63, 2 ** 63, len(x) - len(ints), dtype=np.int64).tolist()  # mostly 19 digits
    scalars = list(np.array(x[::-1]))
    names = [repr(v) for v in x]
    got = ar2lab.cli._table("k,x,scalar,name\n", "%d,%.17g,%.17g,%s", [ints, x, scalars, names])
    assert got == format_route("k,x,scalar,name", "{},{:.17g},{:.17g},{}", zip(ints, x, scalars, names))

    randoms = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64).view(np.float64)
    got = ar2lab.cli._table("", "%.17g", [randoms])
    assert got == "".join([format(v, ".17g") + "\n" for v in randoms.tolist()])
    finite = randoms[np.isfinite(randoms)]
    assert handed_to_cpython(finite) <= finite.size // 1000  # 820 of 999,535

    # both sides of the route switch at one slab of float cells: the % route
    # below it, the kernel at it
    for cells in (ar2lab.text.SLAB - 2, ar2lab.text.SLAB):
        rows = cells // 2
        columns = [list(range(rows)), randoms[:rows], randoms[rows: 2 * rows], [f"r{i}" for i in range(rows)]]
        got = ar2lab.cli._table("k,x,y,name\n", "%d,%.17g,%.17g,%s", columns)
        assert got == format_route("k,x,y,name", "{},{:.17g},{:.17g},{}", zip(*columns)), cells


def handed_to_cpython(x) -> int:
    """How many cells of x the table kernel leaves to '%.17g' % x."""
    return sum(ar2lab.text._floats(x[k: k + ar2lab.text.SLAB])[1].size for k in range(0, x.size, ar2lab.text.SLAB))


def test_table_kernel_renders_nearly_every_normal_draw_itself():
    # a kernel that sent its cells to CPython would pass every byte test and lose its speed
    assert handed_to_cpython(np.random.default_rng(13).standard_normal(10 ** 6)) <= 10


def test_table_text_equals_the_format_route_on_every_layout_and_run_of_zeros():
    # one cell for each %g layout -- fixed with E = -4..16 and the exponent
    # forms with 2- and 3-digit exponents of both signs -- and each count z
    # = 0..16 of trailing zeros among its 17 digits (z = 16 prints no
    # point), both signs, through the kernel: every mask row random bits
    # almost never reach
    def shape(v):  # (E, z) of |v|
        mantissa, exponent = format(abs(v), ".16e").split("e")
        digits = mantissa.replace(".", "")
        return int(exponent), len(digits) - len(digits.rstrip("0"))

    def first(exponents, z):  # the first double k 10^(e-16+z) of shape (e, z), k of 17 - z digits
        return next(v for e in exponents for k in range(10 ** (16 - z), 10 ** (16 - z) + 20)
                    if shape(v := float(f"{k}e{e - 16 + z}")) == (e, z))

    forms = [[e] for e in range(-4, 17)] + [range(17, 100), range(-5, -100, -1), range(100, 309), range(-100, -324, -1)]
    cells = [first(exponents, z) for exponents in forms for z in range(17)]
    assert len({shape(v) for v in cells}) == 25 * 17 and "1e+100" in map(repr, cells)
    cells += [-v for v in cells]
    x = np.resize(cells, ar2lab.text.SLAB + len(cells))  # every cell on the kernel route
    assert ar2lab.cli._table("", "%.17g", [x]) == "".join(format(v, ".17g") + "\n" for v in x.tolist())


def test_table_kernel_tables_hold_the_exact_powers_of_ten():
    # hi + lo of 10^(16-E) 2^-s come from a few exact seeds by double-double
    # products; the kernel's digits need them to ~2^-80, and least_next[E]
    # must be exactly the least double >= 10^(E+1)
    tables = ar2lab.text._constants()
    for i, e in enumerate(range(-324, 309)):
        exact = Fraction(10) ** (16 - e) / Fraction(tables["scale"][i])
        assert abs(Fraction(tables["hi"][i]) + Fraction(tables["lo"][i]) - exact) <= exact / 2 ** 100, e
        least = tables["least_next"][i]
        assert least >= Fraction(10) ** (e + 1) > Fraction(np.nextafter(least, -math.inf)), e


@pytest.mark.parametrize(
    "row_format, columns, message",
    [
        ("%s", [["a\0"]], "a %s cell holds a NUL byte"),  # the kernel deletes its NUL padding
        ("%d,%x", [[1]], "does not fit 1 columns"),
        ("%d", [[1], [2]], "does not fit 2 columns"),
        ("%d,%d", [[1], [2, 3]], "columns differ in length"),
    ],
    ids=["nul", "unknown-field", "too-many-columns", "ragged"],
)
def test_table_refuses_what_it_cannot_render(row_format, columns, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ar2lab.cli._table("", row_format, columns)


@pytest.mark.parametrize("a, b, zeros, subnormals", [(0.3, 0.2, 6626, 77), (1.0, -0.25, 0, 7160)])
def test_weights_text_equals_the_format_route_where_weights_underflow(tmp_path, capsys, a, b, zeros, subnormals):
    # golden.weights.csv stops at grid_max 12; at 8192 u decays through
    # the subnormals (to 5e-324 at (1, -0.25)) and to exact zeros
    text = BASE.replace("a = 0.3", f"a = {a}").replace("b = 0.2", f"b = {b}").replace("grid_max = 12", "grid_max = 8192")
    cfg_path, _ = write_cfg(tmp_path, text)
    assert main(["weights", "--config", str(cfg_path)]) == 0
    table = weight_sequence(ARCoefficients(a, b), 8192)
    tiny = (table.u != 0) & (np.abs(table.u) < 2.2250738585072014e-308)
    assert (np.count_nonzero(table.u == 0), np.count_nonzero(tiny)) == (zeros, subnormals)
    rows = zip(range(8193), table.u.tolist(), table.cum.tolist())
    assert capsys.readouterr().out == format_route("j,u,cum", "{},{:.17g},{:.17g}", rows)


@pytest.mark.parametrize("noise", ["student_t\nnoise.param1 = 1", "pareto\nnoise.param1 = 0.1\nnoise.param2 = 1"],
                         ids=["student_t-1", "pareto-0.1"])
def test_simulate_text_equals_the_format_route_on_heavy_tails(tmp_path, capsys, noise):
    # values far beyond golden.paths.csv's: pareto 0.1 reaches e+XX exponents
    cfg_path, out = write_cfg(tmp_path, BASE.replace("normal", noise).replace("grid_max = 12", "grid_max = 2048"))
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    config = parse_config_text(cfg_path.read_text(encoding="utf-8"))
    n, rows = config.grid_max, []
    for i in range(10):
        key = StreamKey(config.master_seed, "path", n=n, block=i)
        theta = sample_block(config.noise, n, key)
        xi = simulate_path(config.coeffs, theta)
        rows += zip([i] * n, range(1, n + 1), theta.tolist(), xi.tolist())
    text = Path(str(out) + ".paths.csv").read_text(encoding="utf-8")
    assert text == format_route("path,k,theta,xi", "{},{},{:.17g},{:.17g}", rows)
    assert "pareto" not in noise or "e+" in text


def test_simulate_memory_scales_with_one_path(tmp_path, capsys, monkeypatch):
    # paths are walked in one batch, then rendered and written one at a time:
    # the peak is about 3.7 x one path's text (the batch's theta and xi, 2 x
    # 3 x n doubles, and one path's floats, slab rows and joined text), where
    # the whole file's rows and text at once were ~6.6 x the file
    monkeypatch.setattr(ar2lab.cli, "SELF_CHECK_PATHS", 3)
    cfg_path, out = write_cfg(tmp_path, BASE.replace("grid_max = 12", f"grid_max = {2 ** 16}"))
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * os.path.getsize(str(out) + ".paths.csv") / 3


def test_simulate_memory_of_the_whole_batch(tmp_path, capsys):
    # at the real batch of 10 paths the peak is about 6.0 x one path's text:
    # their theta and xi (2 x 10 x n doubles, ~3.3 x) and one path's text at a
    # time; the walk itself holds 3 x 10 x n doubles, the draws among them
    assert ar2lab.cli.SELF_CHECK_PATHS == 10
    cfg_path, out = write_cfg(tmp_path, BASE.replace("grid_max = 12", f"grid_max = {2 ** 16}"))
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * os.path.getsize(str(out) + ".paths.csv") / 10


def test_simulate_refused_path_leaves_no_file(tmp_path, capsys):
    # pareto 0.01 overflows ~0.08% of draws to +-inf; at seed 1 the paths
    # 0..2 of length 512 are finite and path 3 is not
    noise = "pareto\nnoise.param1 = 0.01\nnoise.param2 = 1"
    text = BASE.replace("normal", noise).replace("grid_max = 12", "grid_max = 512").replace("seed = 2026", "seed = 1")
    cfg_path, out = write_cfg(tmp_path, text)
    assert main(["simulate", "--config", str(cfg_path)]) == 1
    assert "error: theta contains NaN or infinity" in capsys.readouterr().err
    assert not Path(str(out) + ".paths.csv").exists()


def test_simulate_failed_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    # a full disk after the first path: the header and one path are on disk
    # and read like a finished file unless the failure removes them
    writes = []

    def write(fh, text, _write=ar2lab.cli._write_text):
        writes.append(len(text))
        if len(writes) == 2:
            raise OSError(28, "No space left on device")
        _write(fh, text)

    monkeypatch.setattr(ar2lab.cli, "_write_text", write)
    cfg_path, out = write_cfg(tmp_path)
    assert main(["simulate", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert not Path(str(out) + ".paths.csv").exists()


def test_series_failed_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    # a full disk at the summary, the last of the three files: the spectrum and
    # series files are complete and would read like a finished run unless the
    # failure removes them with the empty summary
    def write(fh, text, _write=ar2lab.cli._write_text):
        if fh.name.endswith(".summary.txt"):
            raise OSError(28, "No space left on device")
        _write(fh, text)

    monkeypatch.setattr(ar2lab.cli, "_write_text", write)
    cfg_path, out = write_cfg(tmp_path)
    assert main(["series", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["exp.cfg"]


def test_main_verify_all_pass(tmp_path, capsys):
    # the last two pairs sit near the boundary, where U(400) is still far
    # from 1/(1-a-b); the cumulative-weight check must pass there too
    for a, b in [(0.3, 0.2), (0.2, 0.79), (-1.99, -0.995)]:
        cfg_path, _ = write_cfg(tmp_path, BASE.replace("a = 0.3", f"a = {a}").replace("b = 0.2", f"b = {b}"))
        assert main(["verify", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 6
        assert "[FAIL]" not in out
        assert "all checks passed" in out


def test_main_overrides(tmp_path):
    cfg_path, out = write_cfg(tmp_path)
    moved = tmp_path / "elsewhere"
    assert main(["series", "--config", str(cfg_path), "--out", str(moved)]) == 3
    assert Path(str(moved) + ".series.csv").exists()
    assert not Path(str(out) + ".series.csv").exists()

    assert main(["series", "--config", str(cfg_path), "--seed", "7", "--out", str(out)]) == 3
    reseeded = Path(str(out) + ".series.csv").read_bytes()
    assert reseeded != Path(str(moved) + ".series.csv").read_bytes()


def test_main_rejects_bad_overrides(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path)
    assert main(["series", "--config", str(cfg_path), "--replications", "10"]) == 1
    assert "error: replications must be >= 100" in capsys.readouterr().err
    assert main(["series", "--config", str(cfg_path), "--seed", "-3"]) == 1
    assert "error: seed must fit in 64 unsigned bits" in capsys.readouterr().err


def test_main_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(BASE.replace("a = 0.3", "a = 0.9").replace("b = 0.2", "b = 0.5"),
                   encoding="utf-8")
    assert main(["series", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "-1 < b < 1 - |a|" in err

    assert main(["series", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "error:" in capsys.readouterr().err

    one_block, _ = write_cfg(tmp_path, BASE.replace("grid_max = 12", "grid_max = 1"))
    out_dir = tmp_path / "refused"
    out_dir.mkdir()
    assert main(["series", "--config", str(one_block), "--out", str(out_dir / "run")]) == 1
    assert "error: grid must reach at least two dyadic blocks [2^k, 2^(k+1))" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []  # a refused run writes no file


def test_main_refuses_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(BASE.replace("seed = 2026", "seed = 2026 # \u00e9t\u00e9").encode("latin-1"))
    assert main(["series", "--config", str(cfg)]) == 1
    offset = BASE.index("2026") + len("2026 # ")  # the latin-1 e-acute, not a UTF-8 lead byte
    assert capsys.readouterr().err == f"error: {cfg} is not UTF-8: invalid continuation byte at byte {offset}\n"


def test_main_requires_subcommand():
    with pytest.raises(SystemExit) as exit_:
        main([])
    assert exit_.value.code == 1


def test_usage_errors_exit_1_and_help_exits_0(tmp_path, capsys):
    cfg_path, out = write_cfg(tmp_path)
    config = ["--config", str(cfg_path)]
    for argv in (["series", *config, "--seed", "abc"], ["series", *config, "--seed=abc"], ["series"],
                 ["bogus"], ["series", "--config"], ["series", *config, "--bogus", "1"],
                 ["series", "spectrum", *config], ["series", "--conf", str(cfg_path)]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: ar2lab") and "error:" in err, argv
    for argv in (["--help"], ["series", "-h"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith("usage: ar2lab")
        assert all(f"\n  {command}  " in text for command in ("spectrum", "weights", "simulate", "series", "verify"))
    moved = tmp_path / "moved"
    assert main(["simulate", f"--config={cfg_path}", f"--out={moved}", "--seed=7"]) == 0
    assert capsys.readouterr().out == f"wrote 10 paths of length 12 to {moved}.paths.csv\n"
    assert not Path(str(out) + ".paths.csv").exists()
