"""A mutation battery: each mutant is one exact edit of the program that named tests must catch.

Run it from anywhere:

    python tests/mutants.py

Each mutant is applied to a fresh copy of the repository (without .git) in
a temporary directory, and its named tests run there with -x.  A mutant is
killed when a test fails, survives when all pass, and is an error when
pytest ends any other way (an edit that no longer imports, a test that is
gone).  The runner prints one line per mutant and its total wall time, and
exits 1 if any mutant survives or errs.

pytest does not collect this file (its name does not start with test_);
tests/test_mutants.py checks that each mutant's old text occurs exactly
once in its module, so the list cannot rot.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    module: str  # path under src/ar2lab
    old: str  # exact text, found once in the module
    new: str
    breaks: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("recurrence.py", "op[2, steps + 2] = 1.0", "op[2, steps + 2] = 0.0",
           "the strip jump drops S_s from S_e",
           ("tests/test_recurrence.py::test_strip_jump_moves_a_state_across_a_strip",
            "tests/test_estimate.py::test_a_one_row_block_reads_the_time_order_sum",
            "tests/test_estimate.py::test_engine_matches_golden")),
    Mutant("recurrence.py",
           "op[:, steps] = u[steps], u[steps - 1], cum[steps] - 1.0  # on xi_s\n        op[:, steps + 1] =",
           "op[:, steps + 1] = u[steps], u[steps - 1], cum[steps] - 1.0  # on xi_s\n        op[:, steps] =",
           "the strip jump weighs xi_s by xi_(s-1)'s carry and the other way round",
           ("tests/test_recurrence.py::test_strip_jump_moves_a_state_across_a_strip",
            "tests/test_estimate.py::test_a_one_row_block_reads_the_time_order_sum",
            "tests/test_estimate.py::test_engine_matches_golden")),
    Mutant("estimate.py", "moved[-3:] = state", "pass",
           "the strip jump reads a stale state from the strip buffer",
           ("tests/test_estimate.py::test_a_one_row_block_reads_the_time_order_sum",
            "tests/test_estimate.py::test_engine_matches_golden")),
    Mutant("estimate.py", "state[0], state[1], state[2] = xi, earlier, sums", "pass",
           "the head's walk leaves the state at rest, so each strip starts from it",
           ("tests/test_estimate.py::test_a_one_row_block_reads_the_time_order_sum",
            "tests/test_estimate.py::test_engine_matches_golden")),
    Mutant("estimate.py", "counts[i] += np.count_nonzero(row > limits[i])",
           "counts[i] += np.count_nonzero(row >= limits[i])",
           "partial_series counts a tie at the threshold as an exceedance",
           ("tests/test_estimate.py::test_tail_counts_a_tie_as_no_exceedance",
            "tests/test_estimate.py::test_engine_matches_golden")),
    Mutant("estimate.py", "np.count_nonzero(row > threshold)", "np.count_nonzero(row >= threshold)",
           "tail_probability counts a tie at the threshold as an exceedance",
           ("tests/test_estimate.py::test_tail_counts_a_tie_as_no_exceedance",)),
    Mutant("estimate.py", "if math.isnan(np.sum(scratch)):", "if False:",
           "a NaN |S_n| is counted as no exceedance instead of refused",
           ("tests/test_estimate.py::test_tail_refuses_nan_sums_and_counts_infinite_ones",
            "tests/test_estimate.py::test_dense_head_keeps_the_weighted_routes_nonfinite_sums")),
    Mutant("estimate.py", "if not aside.size:", "if True:",
           "a row is yielded before the set-aside draws are added back",
           ("tests/test_estimate.py::test_set_aside_draws_join_each_sum_from_their_own_time_on",
            "tests/test_estimate.py::test_tail_refuses_nan_sums_and_counts_infinite_ones")),
    Mutant("estimate.py", "if tail_ci <= STABILIZED_TAIL_SHARE", "if tail_ci < STABILIZED_TAIL_SHARE",
           "a last block at exactly the stabilized share is not Stabilized",
           ("tests/test_estimate.py::test_verdict_stabilizes_at_a_tail_share_of_exactly_the_limit",)),
    Mutant("estimate.py", "if floor_fraction >= FLOOR_FRACTION_LIMIT", "if floor_fraction > FLOOR_FRACTION_LIMIT",
           "a floor fraction of exactly the limit is not FloorLimited",
           ("tests/test_estimate.py::test_verdict_is_floor_limited_at_exactly_the_floor_fraction",)),
    Mutant("estimate.py", "n.bit_length() == last_block", "n.bit_length() >= last_block - 1",
           "the verdict's last block spans two dyadic blocks",
           ("tests/test_estimate.py::test_verdict_stabilizes_at_a_tail_share_of_exactly_the_limit",
            "tests/test_acceptance.py::test_criterion_08_hsu_robbins_desk_run")),
    Mutant("estimate.py", "finite = math.isfinite(absolute_moment(spec, params.r))", "finite = True",
           "a series with E|theta|^r = inf is judged and fitted as if it converged",
           ("tests/test_estimate.py::test_verdict_divergent_exactly_when_the_moment_is_infinite",
            "tests/test_cli.py::test_run_skips_moment_check_when_moment_diverges")),
    Mutant("simulate.py", "(bits[steps:, lo - paths : hi - paths] != bits[:2, lo:hi])",
           "(states[steps:, lo - paths : hi - paths] != states[:2, lo:hi])",
           "the walk compares chunk starts as floats, so -0.0 passes for 0.0 and NaN never matches",
           ("tests/test_simulate.py::test_a_wrong_start_guess_costs_sweeps_not_bits",
            "tests/test_simulate.py::test_a_narrow_window_changes_no_bit")),
    Mutant("simulate.py", "window = paths * max(1, WINDOW_ROWS // paths)",
           "window = paths * max(1, WINDOW_ROWS // paths) - 1",
           "a sweep's window stops one row short of whole chunks",
           ("tests/test_simulate.py::test_a_narrow_window_changes_no_bit",)),
    Mutant("simulate.py", "first = min(last, lo + moved[0]) if moved.size else last",
           "first = min(last, lo + moved[0] + paths) if moved.size else last",
           "a sweep leaves the first chunk whose start moved unwalked",
           ("tests/test_simulate.py::test_lockstep_walk_is_the_scalar_loop_bit_for_bit",
            "tests/test_simulate.py::test_a_narrow_window_changes_no_bit")),
    Mutant("simulate.py", "    return starts\n", "    return starts * (1.0 + 1e-12)\n",
           "the start guesses are off by a relative 1e-12, which costs sweeps, not bits",
           ("tests/test_simulate.py::test_stable_walks_take_few_sweeps",)),
)


def run(mutant: Mutant) -> str:
    """killed, survived or error: the named tests on a copy of the repository with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="ar2lab-mutant-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                                                 ".pytest_cache", ".bench_work"))
        module = copy / "src" / "ar2lab" / mutant.module
        text = module.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "error"
        module.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        code = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
                              cwd=copy, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(code, "error")


def main() -> int:
    start = time.perf_counter()
    outcomes = []
    for mutant in MUTANTS:
        began = time.perf_counter()
        outcomes.append(run(mutant))
        print(f"{outcomes[-1]:8}  {time.perf_counter() - began:6.1f} s  {mutant.module}: {mutant.breaks}", flush=True)
    print(f"{outcomes.count('killed')} of {len(MUTANTS)} killed in {time.perf_counter() - start:.1f} s")
    return 0 if outcomes.count("killed") == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
