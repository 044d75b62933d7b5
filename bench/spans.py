"""Traced runs: spans around the calls into each ar2lab module.

The tracer wraps public functions where each caller module looks them
up (`ar2lab.estimate.sample_block`, `ar2lab.noise.generator_for`, ...),
so the program itself is unchanged.  Each wrapped call records a span
(name, start, end, parent, run id, attributes) in memory; the spans are
written out as JSON lines when the repetition ends and `layer_table`
derives the per-layer metrics from them.

Self time of a span is its duration minus the duration of its direct
children; a layer's self time is the sum over its spans.  Work the
tracer itself does between calls (counting non-finite draws, starting
and stopping tracemalloc) is recorded as `trace.bookkeeping` spans so
that it is charged to no layer.

tracemalloc slows every Python allocation (key derivation ~6x), so it
runs only in `memory` repetitions, which give estimate.peak_mb; the
timings come from repetitions without it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# (module the caller looks the name up in, attribute, layer that defines it)
TARGETS = (
    ("ar2lab.cli", "main", "cli"),
    ("ar2lab.cli", "_write_text", "cli"),
    ("ar2lab.cli", "parse_config", "config"),
    ("ar2lab.config", "parse_config_text", "config"),
    ("ar2lab.cli", "sample_block", "noise"),
    ("ar2lab.cli", "absolute_moment", "noise"),
    ("ar2lab.estimate", "sample_block", "noise"),
    ("ar2lab.estimate", "absolute_moment", "noise"),
    ("ar2lab.noise", "generator_for", "noise"),
    # cli reaches these as `est.<name>`, partial_series reaches tail_probability directly
    ("ar2lab.estimate", "partial_series", "estimate"),
    ("ar2lab.estimate", "moment_growth_check", "estimate"),
    ("ar2lab.estimate", "tail_probability", "estimate"),
    ("ar2lab.cli", "companion_spectrum", "recurrence"),
    ("ar2lab.cli", "bound_report", "recurrence"),
    ("ar2lab.cli", "weight_sequence", "recurrence"),
    ("ar2lab.cli", "weight_closed_form", "recurrence"),
    ("ar2lab.cli", "companion_power_column", "recurrence"),
    ("ar2lab.estimate", "weight_sequence", "recurrence"),
    ("ar2lab.recurrence", "weight_sequence", "recurrence"),
    ("ar2lab.recurrence", "companion_spectrum", "recurrence"),
    ("ar2lab.simulate", "weight_sequence", "recurrence"),
    ("ar2lab.cli", "simulate_path", "simulate"),
    ("ar2lab.cli", "representation_residual", "simulate"),
    ("ar2lab.simulate", "simulate_path", "simulate"),
    ("ar2lab.simulate", "weighted_sum", "simulate"),
)

# Outermost estimate spans measure their peak traced allocation.
MEMORY_SPANS = ("estimate.partial_series", "estimate.moment_growth_check", "estimate.tail_probability")
TAIL_STAGE = ("estimate.partial_series", "estimate.tail_probability")


def _attrs_before(name: str, bound: dict) -> dict:
    if name == "noise.sample_block":
        return {"family": bound["spec"].family, "draws": int(bound["count"])}
    if name == "estimate.partial_series":
        return {"replications": int(bound["replications"]), "points": len(bound["grid"])}
    if name == "estimate.tail_probability":
        return {"replications": int(bound["replications"]), "points": 1}
    if name in ("simulate.simulate_path", "simulate.weighted_sum"):
        return {"steps": int(np.size(bound["theta"]))}
    if name == "cli._write_text":
        return {"bytes": len(bound["text"].encode("utf-8"))}
    if name == "cli.main":
        return {"command": str(bound["argv"][0])}
    return {}


_WITH_ATTRS = {
    "noise.sample_block", "estimate.partial_series", "estimate.tail_probability",
    "simulate.simulate_path", "simulate.weighted_sum", "cli._write_text", "cli.main",
}


class Tracer:
    """Span recorder for one repetition; install() patches, uninstall() restores."""

    def __init__(self, run_id: str, memory: bool):
        self.run_id = run_id
        self.memory = memory
        self.spans = []  # [name, start, end, parent, attrs]
        self.stack = []
        self.add_calls = 0
        self._patched = []
        self._memory_owner = None

    def _bookkeeping(self, start: float, end: float) -> None:
        self.spans.append(["trace.bookkeeping", start, end, self.stack[-1] if self.stack else -1, {}])

    def wrap(self, name: str, fn):
        tracer = self
        signature = inspect.signature(fn) if name in _WITH_ATTRS else None

        def traced(*args, **kwargs):
            attrs = {}
            if signature is not None:
                attrs = _attrs_before(name, signature.bind(*args, **kwargs).arguments)
            record = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, attrs]
            index = len(tracer.spans)
            tracer.spans.append(record)
            owns_memory = tracer.memory and name in MEMORY_SPANS and tracer._memory_owner is None
            if owns_memory:
                mark = time.perf_counter()
                tracemalloc.start()
                tracer._memory_owner = index
                tracer._bookkeeping(mark, time.perf_counter())
            tracer.stack.append(index)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.stack.pop()
                if owns_memory:
                    attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer._memory_owner = None
                    tracer._bookkeeping(record[2], time.perf_counter())
            if name == "noise.sample_block":
                mark = time.perf_counter()
                attrs["nonfinite"] = int(out.size - np.count_nonzero(np.isfinite(out)))
                tracer._bookkeeping(mark, time.perf_counter())
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._patch(module, attr, self.wrap(f"{layer}.{fn.__name__}", fn))
        cli = importlib.import_module("ar2lab.cli")
        commands = dict(cli._COMMANDS)
        for command, fn in commands.items():
            commands[command] = self.wrap(f"cli.{command}", fn)
        self._patch(cli, "_COMMANDS", commands)

        summation = importlib.import_module("ar2lab.summation")
        add = summation.CompensatedSum.add
        tracer = self

        def counted_add(acc, x):
            tracer.add_calls += 1
            return add(acc, x)

        self._patch(summation.CompensatedSum, "add", counted_add)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id, "attrs": attrs}) + "\n")


def load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# Counts that must repeat exactly between traced repetitions.
COUNTS = (
    "noise.draws", "noise.keys", "noise.nonfinite", "estimate.draws_per_indicator",
    "summation.add_calls", "recurrence.calls", "cli.bytes_written",
)


def layer_table(spans: list, result: dict) -> tuple:
    """(per-layer metrics, details) for one traced repetition."""
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += dur[s["id"]]
    self_time = {i: dur[i] - child_time[i] for i in dur}

    def layer(s):
        return s["name"].split(".", 1)[0]

    def root_command(s):
        while s["parent"] >= 0:
            s = by_id[s["parent"]]
        return s["attrs"].get("command", "?")

    def inside(s, names):
        while s["parent"] >= 0:
            s = by_id[s["parent"]]
            if s["name"] in names:
                return True
        return False

    layer_self = defaultdict(float)
    cli_self = defaultdict(float)
    for s in spans:
        layer_self[layer(s)] += self_time[s["id"]]
        if layer(s) == "cli":
            cli_self[root_command(s)] += self_time[s["id"]]

    draws = 0
    nonfinite = 0
    kernel_s = defaultdict(float)
    family_draws = defaultdict(int)
    stage_draws = 0
    for s in spans:
        if s["name"] != "noise.sample_block":
            continue
        family = s["attrs"]["family"]
        draws += s["attrs"]["draws"]
        nonfinite += s["attrs"]["nonfinite"]
        family_draws[family] += s["attrs"]["draws"]
        kernel_s[family] += self_time[s["id"]]
        if inside(s, TAIL_STAGE):
            stage_draws += s["attrs"]["draws"]
    indicators = sum(
        s["attrs"]["replications"] * s["attrs"]["points"]
        for s in spans
        if s["name"] in TAIL_STAGE and not inside(s, TAIL_STAGE)
    )
    keys = [s for s in spans if s["name"] == "noise.generator_for"]
    steps = sum(s["attrs"]["steps"] for s in spans if s["name"] in ("simulate.simulate_path", "simulate.weighted_sum"))
    peaks = [s["attrs"]["peak_bytes"] for s in spans if "peak_bytes" in s["attrs"]]
    stdout_bytes = sum(c["stdout_bytes"] for c in result["calls"])

    metrics = {
        "noise.draws": (draws, "count"),
        "noise.keys": (len(keys), "count"),
        "noise.ns_per_draw": (1e9 * sum(kernel_s.values()) / max(draws, 1), "ns"),
        "noise.us_per_key": (1e6 * sum(dur[s["id"]] for s in keys) / max(len(keys), 1), "us"),
        "noise.self_s": (layer_self["noise"], "s"),
        "noise.nonfinite": (nonfinite, "count"),
        "estimate.draws_per_indicator": (stage_draws / max(indicators, 1), "draws"),
        "estimate.self_s": (layer_self["estimate"], "s"),
        "estimate.peak_mb": (max(peaks, default=0) / 2 ** 20, "MB"),
        "simulate.self_s": (layer_self["simulate"], "s"),
        "simulate.ns_per_step": (1e9 * layer_self["simulate"] / max(steps, 1), "ns"),
        "summation.add_calls": (result["add_calls"], "count"),
        "recurrence.self_s": (layer_self["recurrence"], "s"),
        "recurrence.calls": (sum(1 for s in spans if layer(s) == "recurrence"), "count"),
        "cli.self_s": (layer_self["cli"], "s"),
        "cli.bytes_written": (stdout_bytes + sum(s["attrs"]["bytes"] for s in spans if s["name"] == "cli._write_text"), "bytes"),
        "config.self_s": (layer_self["config"], "s"),
    }
    details = {
        "noise.ns_per_draw." + fam: 1e9 * kernel_s[fam] / family_draws[fam] for fam in sorted(family_draws)
    }
    details.update({"cli.self_s." + cmd: cli_self[cmd] for cmd in sorted(cli_self)})
    details["trace.bookkeeping_s"] = layer_self["trace"]
    details["tail_stage.draws"] = stage_draws
    details["tail_stage.indicators"] = indicators
    return metrics, details
