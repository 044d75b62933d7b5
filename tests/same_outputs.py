"""Check that another source tree gives the same outputs as this one on the benchmark's workloads.

    python tests/same_outputs.py PARENT_TREE [--seeds 7 3011] [--workloads desk horizon analytic]

PARENT_TREE is any ar2lab source checkout (its `src/` is imported).  For
each seed and workload, the CLI calls of bench/workloads.py are written
out as config files with the same relative output paths under one
temporary directory per tree.  One subprocess per tree then runs every
call through `ar2lab.cli.main`, in that directory, as the benchmark does,
and records each call's stdout and exit code.  Every output file, every
stdout and every exit code is compared by SHA-256; the script prints one
line per workload and seed, and exits 1 on any difference.

pytest does not collect this file (its name does not start with test_).
It reads bench/workloads.py and writes nothing under bench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# runs in each tree's subprocess: every call of the plan, its exit code and then its stdout to one file
CHILD = """
import contextlib, io, json
import ar2lab.cli
for path, argv in json.load(open("plan.json", encoding="utf-8")):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ar2lab.cli.main(argv)
    with open(path, "w", encoding="utf-8", newline="\\n") as fh:
        fh.write(f"exit {code}\\n{buf.getvalue()}")
"""


def _plan(workloads: list, seeds: list) -> tuple:
    """Config texts and (stdout file, CLI argv) calls of every workload at every seed, by relative path."""
    sys.dont_write_bytecode = True  # leave no cache under bench/
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads as wl

    configs, calls = {}, []
    for seed in seeds:
        for name in workloads:
            base = os.path.join(f"seed{seed}", name)
            work = wl.build(name, seed, os.path.join(base, "out"))
            configs.update({os.path.join(base, "cfg", cfg.name + ".cfg"): cfg.text() for cfg in work.configs})
            calls += [(os.path.join(base, "out", call.name + ".stdout"), call.argv(os.path.join(base, "cfg")))
                      for call in work.calls]
    return configs, calls


def run_tree(tree: Path, configs: dict, calls: list, where: Path) -> dict:
    """Relative path -> SHA-256 of every file the calls leave in `where`, run on tree's src/."""
    for path, text in configs.items():
        (where / path).parent.mkdir(parents=True, exist_ok=True)
        (where / path).parent.with_name("out").mkdir(exist_ok=True)
        (where / path).write_text(text, encoding="utf-8")
    (where / "plan.json").write_text(json.dumps(calls), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", CHILD], cwd=where, env=env, check=True)
    return {str(path.relative_to(where)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(where.rglob("*")) if path.is_file() and path.parent.name == "out"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the other ar2lab source tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 3011])
    parser.add_argument("--workloads", nargs="+", default=["desk", "horizon", "analytic"])
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "ar2lab" / "cli.py").is_file():
        parser.error(f"{args.parent} is not an ar2lab source tree")
    configs, calls = _plan(args.workloads, args.seeds)
    with tempfile.TemporaryDirectory(prefix="ar2lab-same-") as scratch:
        digests = []
        for tree, label in ((ROOT, "this"), (args.parent.resolve(), "parent")):
            (Path(scratch) / label).mkdir()
            digests.append(run_tree(tree, configs, calls, Path(scratch) / label))
    ours, theirs = digests
    differ = sorted(path for path in ours.keys() | theirs.keys() if ours.get(path) != theirs.get(path))
    for seed in args.seeds:
        for name in args.workloads:
            prefix = os.path.join(f"seed{seed}", name, "out") + os.sep
            files = [path for path in ours if path.startswith(prefix)]
            bad = [path for path in differ if path.startswith(prefix)]
            print(f"{name:8} seed {seed}: {len(files)} files, {'identical' if not bad else f'{len(bad)} differ'}")
    for path in differ:
        print(f"differs: {path}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
