"""ar2lab benchmark: desk, horizon and analytic workloads, end to end and per layer.

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
`src/`).  Each repetition is a fresh child process (bench/child.py)
that imports ar2lab, parses the generated configs and runs the
workload's CLI calls one after another through `ar2lab.cli.main`.
Repetitions continue until --seconds have passed; metrics are medians
over them.  Every output is checked against layout-independent oracles
(bench/oracles.py), every check is itself tested against a tampered
output (bench/selftest.py), and later repetitions must reproduce the
first byte for byte.

--trace 0 prints the end-to-end metrics.  --trace 1 cycles through
traced (spans), untraced and memory (spans and tracemalloc) repetitions
and prints the per-layer metrics (bench/spans.py); trace.overhead_s is
the traced minus the untraced median run_s.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import oracles as o
import selftest
import spans
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = ".bench_work"
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
MIN_SETUP_SAMPLES = 7
RUN_LIMIT_S = 150.0  # no repetition starts that could end past this
OK_EXITS = {"series": (0, 2, 3), "verify": (0, 1)}  # any other command: 0
FILE_COMMANDS = ("series", "simulate")  # the commands that write <output>.* files


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Ledger:
    """Operations attempted and failed: CLI calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.lines = []

    def call(self, name: str, command: str, code: int) -> None:
        self.attempted += 1
        if code not in OK_EXITS.get(command, (0,)):
            self.failed += 1
            self.lines.append(f"FAIL call {name}: exit {code}")

    def check(self, check: o.Check, show: bool = True) -> None:
        self.attempted += 1
        if not check.ok:
            self.failed += 1
        if show or not check.ok:
            self.lines.append(f"{'ok  ' if check.ok else 'FAIL'} {check.name}: {check.detail}")


def _guarded(name: str, fn, *args) -> list:
    """Run a check; malformed output that makes it raise is a failed check."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - any crash on program output is a failed check
        return [o.Check(name, False, f"{type(exc).__name__}: {exc}")]
    return out if isinstance(out, list) else [out]


class Runner:
    def __init__(self, workload: wl.Workload, work: str):
        self.workload = workload
        self.work = work
        self.plan = os.path.join(work, "plan.json")
        self.count = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.env = env
        cfg_dir = os.path.join(work, "cfg")
        for d in (cfg_dir, os.path.join(work, "out"), os.path.join(work, "stdout"), os.path.join(work, "result")):
            os.makedirs(d)
        for cfg in workload.configs:
            with open(os.path.join(cfg_dir, cfg.name + ".cfg"), "w", encoding="utf-8") as fh:
                fh.write(cfg.text())
        plan = {
            "configs": [os.path.join(cfg_dir, c.name + ".cfg") for c in workload.configs],
            "calls": [[c.name, c.argv(cfg_dir)] for c in workload.calls],
            "stdout_dir": os.path.join(work, "stdout"),
        }
        with open(self.plan, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)

    def child(self, mode: str, timeout: float) -> dict:
        self.count += 1
        result = os.path.join(self.work, "result", f"{self.count}.json")
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD, self.plan, repr(start), mode, result],
            cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        if code is None:
            raise BenchError(f"{mode} repetition exceeded {timeout:.0f}s")
        if code != 0:
            raise BenchError(f"{mode} repetition exited with {code}")
        with open(result, encoding="utf-8") as fh:
            out = json.load(fh)
        out["wall_s"] = time.perf_counter() - start
        out["run_s"] = sum(c["wall_s"] for c in out["calls"])
        if mode in ("trace", "memory"):
            out["spans"] = spans.load(result + ".spans.jsonl")
        return out

    def outputs(self, rep: dict) -> dict:
        """call name -> (exit code, stdout, {file suffix: text})."""
        out = {}
        for call, record in zip(self.workload.calls, rep["calls"]):
            with open(os.path.join(self.work, "stdout", call.name + ".stdout"), encoding="utf-8") as fh:
                stdout = fh.read()
            files = {}
            prefix = os.path.basename(call.config.output) + "."
            out_dir = os.path.join(ROOT, os.path.dirname(call.config.output))
            for entry in sorted(os.listdir(out_dir)) if call.command in FILE_COMMANDS else ():
                if entry.startswith(prefix):
                    with open(os.path.join(out_dir, entry), encoding="utf-8") as fh:
                        files[entry[len(prefix):]] = fh.read()
            out[call.name] = (record["exit"], stdout, files)
        return out


def fingerprint(outputs: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(outputs):
        code, stdout, files = outputs[name]
        digest.update(f"{name}\0{code}\0{stdout}\0".encode())
        for suffix in sorted(files):
            digest.update(f"{suffix}\0{files[suffix]}\0".encode())
    return digest.hexdigest()


def check_outputs(workload: wl.Workload, outputs: dict, ledger: Ledger) -> None:
    """Oracle checks and their self-tests on one repetition's outputs."""
    checks = []
    if workload.name in ("desk", "horizon"):
        cfg = workload.configs[0]
        code, _, files = outputs[workload.name]
        checks += _guarded("series", o.check_series, cfg, code, files)
        checks += _guarded("selftest.series", selftest.series, cfg, code, files)
    else:
        configs = {c.name: c for c in workload.configs}
        for call in workload.calls:
            tag, cfg = call.config.name, call.config
            code, stdout, files = outputs[call.name]
            if call.command == "spectrum":
                checks += _guarded(call.name, o.check_spectrum, cfg, tag, stdout)
            elif call.command == "weights":
                checks += _guarded(call.name, o.check_weights, cfg, tag, stdout)
            elif call.command == "simulate":
                checks += _guarded(call.name, o.check_paths, cfg, tag, files.get("paths.csv", ""), stdout)
            else:
                try:
                    check, known = o.check_verify(cfg, tag, code, stdout)
                except Exception as exc:  # noqa: BLE001 - see _guarded
                    check, known = o.Check(call.name, False, f"{type(exc).__name__}: {exc}"), False
                checks.append(check)
                ledger.known_defects += known
        checks += _guarded("selftest.analytic", selftest.analytic, configs, outputs)
    for check in checks:
        ledger.check(check)


def verify_fails(outputs: dict) -> int:
    return sum(stdout.count("[FAIL]") for name, (_, stdout, _) in outputs.items() if name.endswith("verify"))


def seed_layout_dpi(workload: wl.Workload) -> tuple:
    """(draws, indicators per replicate) of the tail stage at the seed commit."""
    if workload.name == "analytic":
        return 8 * len(workload.configs), len(workload.configs)  # verify: tail_probability at n = 8
    grid = wl.default_grid(workload.configs[0].grid_max)
    return sum(grid), len(grid)


def _median(reps, key):
    return statistics.median(r[key] for r in reps)


def layer_metrics(workload: wl.Workload, by_mode: dict, imports: list, ledger: Ledger) -> dict:
    """Per-layer metrics: times are medians over traced repetitions, counts must repeat."""
    tables = [spans.layer_table(r["spans"], r) for r in by_mode["trace"]]
    memory = [spans.layer_table(r["spans"], r)[0] for r in by_mode["memory"]]
    for name in spans.COUNTS:
        values = {t[0][name][0] for t in tables} | {t[name][0] for t in memory}
        ledger.check(o.Check(f"trace.{name}_repeats", len(values) == 1, f"{sorted(values)}"), show=False)
    metrics = {}
    for name, (value, unit) in tables[0][0].items():
        if name == "estimate.peak_mb":
            value = statistics.median(t[name][0] for t in memory)
        elif unit in ("s", "ns", "us"):
            value = statistics.median(t[0][name][0] for t in tables)
        metrics[name] = (value, unit)
    metrics["cli.verify_fails"] = (by_mode["trace"][0]["verify_fails"], "count")
    metrics["setup.import_s"] = (statistics.median(imports), "s")
    metrics["trace.overhead_s"] = (_median(by_mode["trace"], "run_s") - _median(by_mode["run"], "run_s"), "s")

    details = {name: statistics.median(t[1][name] for t in tables) for name in tables[0][1]}
    draws, indicators = details.pop("tail_stage.draws"), details.pop("tail_stage.indicators")
    want_draws, want_points = seed_layout_dpi(workload)
    print(f"tail stage: {draws:.0f} draws over {indicators:.0f} indicators = {draws / max(indicators, 1):.6g} "
          f"per indicator; seed-commit layout {want_draws}/{want_points} = {want_draws / want_points:.6g}")
    for name, value in details.items():
        print(f"  {name} = {value:.6g}")
    return metrics


def run(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "ar2lab", "cli.py")):
        raise BenchError("src/ar2lab is missing: run from the root of an ar2lab source checkout")
    work_rel = os.path.join(WORK, args.workload)
    shutil.rmtree(os.path.join(ROOT, work_rel), ignore_errors=True)
    workload = wl.build(args.workload, args.seed, os.path.join(work_rel, "out"))
    runner = Runner(workload, os.path.join(ROOT, work_rel))
    ledger = Ledger()
    begin = time.perf_counter()

    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - begin)

    runner.child("setup", left())  # warm-up: bytecode caches, file cache
    modes = ["trace", "run", "memory"] if args.trace else ["run"]
    reps = []
    first = None
    longest = 0.0
    while True:
        mode = modes[len(reps) % len(modes)]
        rep = runner.child(mode, left())
        rep["mode"] = mode
        longest = max(longest, rep["wall_s"])
        for call, record in zip(workload.calls, rep["calls"]):
            ledger.call(record["name"], call.command, record["exit"])
        outputs = runner.outputs(rep)
        rep["verify_fails"] = verify_fails(outputs)
        if first is None:
            first = fingerprint(outputs)
            check_outputs(workload, outputs, ledger)
        else:
            ledger.check(o.Check("identical_outputs", fingerprint(outputs) == first,
                                 f"repetition {len(reps) + 1} ({mode}) reproduces repetition 1 byte for byte"),
                         show=False)
        reps.append(rep)
        enough = len(reps) >= max(2, len(modes))
        elapsed = time.perf_counter() - begin
        if (enough and elapsed >= args.seconds) or left() < 1.5 * longest:
            break
    setups = [r["setup_s"] for r in reps]
    imports = [r["import_s"] for r in reps]
    while len(setups) < MIN_SETUP_SAMPLES and left() > 5.0:
        rep = runner.child("setup", left())
        setups.append(rep["setup_s"])
        imports.append(rep["import_s"])

    by_mode = {m: [r for r in reps if r["mode"] == m] for m in ("run", "trace", "memory")}
    plain = by_mode["run"]
    print(f"workload {workload.name}: seed {args.seed}, repetitions "
          + ", ".join(f"{len(v)} {k}" for k, v in by_mode.items() if v)
          + f", {len(setups)} set-ups, {time.perf_counter() - begin:.1f}s")
    print("repetition run_s: " + ", ".join(f"{r['mode'][0]}{r['run_s']:.3f}" for r in reps))
    metrics = {}
    if not args.trace:
        metrics["run_s"] = (_median(plain, "run_s"), "s")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["cpu_s"] = (_median(plain, "cpu_s"), "s")
        metrics["peak_rss_mb"] = (_median(plain, "peak_rss_mb"), "MB")
    else:
        metrics = layer_metrics(workload, by_mode, imports, ledger)
    ledger.lines.append(
        f"failed_frac = {ledger.failed}/{ledger.attempted} operations (CLI calls and output checks); "
        f"known defects recognised: {ledger.known_defects}"
    )
    for line in ledger.lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
