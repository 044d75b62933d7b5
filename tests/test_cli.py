import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ar2lab.cli
import ar2lab.estimate
from ar2lab import InvalidParameters, default_grid, parse_config_text, partial_series
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
    run(config)
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
    assert summary_line(out, "verdict") == f"verdict: {series.verdict.value}"
    assert code == {"Stabilized": 0, "FloorLimited": 2, "Growing": 3}[series.verdict.value]


@pytest.mark.parametrize("grid_max", [100, 128])
def test_series_run_draws_each_path_once(tmp_path, monkeypatch, grid_max):
    # one pass: R paths to grid_max steps, drawn no further, feed the tail
    # counts and the moments alike, plus 10 probe paths of grid_max steps
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
    assert sum(draws) == 200 * grid_max + 10 * grid_max


def test_run_is_byte_deterministic(tmp_path):
    config, out = configure(tmp_path)
    other = dataclasses.replace(config, output_path=str(tmp_path / "again"))
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


def test_bound_horizon_takes_whole_numbers_only():
    # int() would scan a 300-step table for grid_max 300.5
    assert ar2lab.cli._bound_horizon(300.0) == ar2lab.cli._bound_horizon(300) == 300
    with pytest.raises(InvalidParameters, match=r"grid_max must be a whole number"):
        ar2lab.cli._bound_horizon(300.5)


def test_self_check_fails_on_a_nan_residual(tmp_path, capsys):
    # alpha = 0.01 overflows probe 0 to +-inf, so its residual is nan
    text = (BASE.replace("noise.family = normal", "noise.family = pareto\nnoise.param1 = 0.01\nnoise.param2 = 1")
            .replace("grid_max = 12", "grid_max = 128").replace("replications = 400", "replications = 1000")
            .replace("seed = 2026", "seed = 43"))
    cfg_path, _ = write_cfg(tmp_path, text)
    assert main(["verify", "--config", str(cfg_path)]) == 1
    report = capsys.readouterr().out
    assert "[FAIL] dual representation residual (max nan)\n" in report
    assert report.endswith("1 check(s) failed\n")
    assert main(["series", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: representation self-check failed: residual nan > 1e-09\n"
    assert [f.name for f in tmp_path.iterdir()] == ["exp.cfg"]  # a refused run writes no file


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; importing it cost most of a run's start-up
    src = str(Path(ar2lab.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, ar2lab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


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
    # argparse would exit 2, the code of a FloorLimited series
    cfg_path, _ = write_cfg(tmp_path)
    for argv in (["series", "--config", str(cfg_path), "--seed", "abc"], ["series"], ["bogus"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 1
        assert "error:" in capsys.readouterr().err
    for argv in (["--help"], ["series", "--help"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ar2lab")
