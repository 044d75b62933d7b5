"""ar2lab exports only what its own modules or the traced benchmark use.

Every name in ar2lab.__all__ is a class (a result, parameter or error
type), or code in an ar2lab module other than the one defining it refers
to it (an import alone does not count), or bench/spans.py wraps it where
its caller looks it up and BENCH_PINNED says why.
"""

import ast
from pathlib import Path

import ar2lab

SRC = Path(ar2lab.__file__).resolve().parent
SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# public functions no other ar2lab module calls, kept for the spans bench/spans.py records
BENCH_PINNED = {
    "companion_power_column": "wrapped at ar2lab.cli, the recurrence layer's matrix-power witness",
    "generator_for": "wrapped at ar2lab.noise, counts the stream keys (noise.keys, noise.us_per_key)",
    "moment_growth_check": "wrapped at ar2lab.estimate, one of the estimate layer's memory spans",
    "parse_config_text": "wrapped at ar2lab.config, times the config layer",
    "weighted_sum": "wrapped at ar2lab.simulate, counts the weighted route's steps (simulate.ns_per_step)",
}


def referenced_names() -> dict:
    """name -> the ar2lab modules (but __init__) whose code loads it as a name or attribute."""
    refs = {}
    for path in SRC.glob("*.py"):
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, set()).add(path.stem)
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, set()).add(path.stem)
    return refs


def spans_targets() -> set:
    """(module, attribute) pairs that bench/spans.py patches."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    value = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    return {(module, attr) for module, attr, _ in ast.literal_eval(value)}


def test_every_public_name_has_a_user():
    refs = referenced_names()
    unused = []
    for name in ar2lab.__all__:
        obj = getattr(ar2lab, name)
        if isinstance(obj, type) or name in BENCH_PINNED:
            continue
        home = obj.__module__.rpartition(".")[2]
        if not refs.get(name, set()) - {home}:
            unused.append(f"{name} ({home})")
    assert not unused, f"public names that no other ar2lab module uses: {unused}"


def test_bench_pins_are_wrapped_and_needed():
    refs = referenced_names()
    targets = spans_targets()
    for name in BENCH_PINNED:
        assert name in ar2lab.__all__, name
        home = getattr(ar2lab, name).__module__.rpartition(".")[2]
        assert not refs.get(name, set()) - {home}, f"{name} is used in src; it needs no pin"
        assert any(attr == name for _, attr in targets), f"bench/spans.py does not wrap {name}"
