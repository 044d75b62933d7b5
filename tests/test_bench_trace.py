"""The traced benchmark still finds the functions it wraps.

bench/spans.py patches ar2lab functions by module and attribute name; a
rename in the package would otherwise surface only as a broken
`bench/run.py --trace 1` run, and a call rerouted past a patched name
only as a missing layer or a changed count in it.
"""

import importlib.util
from pathlib import Path

import ar2lab.estimate
import ar2lab.noise
from ar2lab.cli import main

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

TINY = """
a = 0.3
b = 0.2
p = 1
r = 2
epsilon = 1
noise.family = normal
grid_max = 12
replications = 100
seed = 1
"""


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_records_spans_for_each_layer(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY + f"output = {tmp_path / 'run'}\n", encoding="utf-8")
    tracer = load_spans().Tracer(run_id="smoke", memory=False)
    tracer.install()
    try:
        codes = [main([command, "--config", str(cfg)]) for command in ("series", "simulate", "verify")]
    finally:
        tracer.uninstall()
    assert codes[0] in (0, 2, 3)
    assert codes[1:] == [0, 0]
    names = [span[0] for span in tracer.spans]
    assert {
        "noise.sample_block", "noise.generator_for", "simulate.simulate_path", "simulate.weighted_sum",
        "recurrence.weight_sequence", "recurrence.bound_report", "estimate.partial_series",
        "estimate.tail_probability",
    } <= set(names)
    # tables: one per series (its bound report and self-check share it) and one per
    # verify (its checks and probes); simulate needs none, and the estimates build
    # none, since normal noise never reaches the set-aside bound;
    # streams: one per sampled chunk or block (series 15: 5 dyadic chunks to n = 16, read
    # by the tail counts and the moments alike, 10 probes; simulate 10; verify 20:
    # 10 probes, 2 draws, 2 tail checks of 4 chunks to n = 8)
    assert names.count("recurrence.weight_sequence") == 2
    assert names.count("noise.generator_for") == 45
    assert ar2lab.estimate.sample_block is ar2lab.noise.sample_block  # uninstall restored it
