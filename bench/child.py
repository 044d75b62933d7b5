"""One benchmark repetition in a fresh process.

    python3 bench/child.py PLAN T_SPAWN MODE RESULT

PLAN is a JSON file with the config paths, the CLI calls and the
directory for their stdout.  T_SPAWN is the parent's perf_counter()
just before it started this process (CLOCK_MONOTONIC, shared by all
processes).  MODE is `setup` (import and parse only), `run`, `trace`
(spans) or `memory` (spans and tracemalloc).
The child writes its timings and resource use to RESULT as JSON.

The calls run one after another in this process through
`ar2lab.cli.main`, the public entry point: a closed loop with one
client and no extra threads or processes.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    plan_path, t_spawn, mode, result_path = sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4]
    t_import = time.perf_counter()
    import ar2lab.cli
    import ar2lab.config

    import_s = time.perf_counter() - t_import
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    for path in plan["configs"]:
        ar2lab.config.parse_config(path)
    result = {"setup_s": time.perf_counter() - t_spawn, "import_s": import_s, "calls": []}

    if mode != "setup":
        tracer = None
        if mode in ("trace", "memory"):
            import spans

            tracer = spans.Tracer(run_id=os.path.basename(result_path), memory=mode == "memory")
            tracer.install()
        for name, argv in plan["calls"]:
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = ar2lab.cli.main(argv)
            elapsed = time.perf_counter() - start
            text = buf.getvalue()
            with open(os.path.join(plan["stdout_dir"], name + ".stdout"), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            result["calls"].append({"name": name, "exit": code, "wall_s": elapsed, "stdout_bytes": len(text.encode())})
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(result_path + ".spans.jsonl")
            result["add_calls"] = tracer.add_calls

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
