"""Host-speed reference: a fixed unit of interpreter work timed beside the jobs.

The benchmark's hosts are shared virtual machines whose vCPUs slow down
and speed up by a third or more, in phases from about a second to
minutes; process CPU time moves with wall time, so neither clock shows
it.  The timed child therefore runs ``reference_unit`` between jobs and
the harness rescales every measured time to the reference speed:

    t_reported = t_measured * REFERENCE_UNIT_S / (mean time of one unit in the run)

The unit is a memoized halving recursion over Python integers, the same
mix of calls, dict look-ups and integer arithmetic that tmcorr runs, and
it does not touch tmcorr, so a change to tmcorr moves only the jobs'
side of the ratio.  Its speed tracks the host's: over 15 s windows in
which the raw times of tmcorr calls spread by 0.28 (IQR/median), their
ratio to this unit spread by 0.02-0.08.  This module imports only
``time``, so the set-up probes can load it without preloading modules
that tmcorr imports.
"""

import time

# Seconds one unit takes at the reference speed, about the speed of a calm
# phase of the 2-vCPU Xeon VM the benchmark was tuned on.  Reported times
# are "seconds at the reference speed".
REFERENCE_UNIT_S = 0.0012
UNIT_VALUE = 32281802128994678104   # what reference_unit returns; checked on every unit


def reference_unit() -> int:
    memo: dict[int, int] = {}

    def halve(n: int) -> int:
        if n < 3:
            return n
        value = memo.get(n)
        if value is None:
            value = halve(n >> 1) + halve((n >> 1) + 1) + (n & 1)
            memo[n] = value
        return value

    total = 0
    for k in range(16):
        memo.clear()
        total += halve((1 << 60) + 12345 * k)
    return total


def time_unit() -> float:
    t0 = time.perf_counter()
    value = reference_unit()
    elapsed = time.perf_counter() - t0
    if value != UNIT_VALUE:
        raise RuntimeError(f"reference unit returned {value}, not {UNIT_VALUE}")
    return elapsed


def run_scale(unit_seconds: list[float]) -> float:
    """REFERENCE_UNIT_S over the mean time of the units timed in one run.

    The units are spread over the run in step with the job time, so a
    slow phase or a pause weighs the same in their mean as in the jobs'
    total.  Over ten 20 s `ladder` runs, pass times rescaled this way
    spread by 0.04 (IQR/median); rescaled job by job, each by the median
    of the units near it, they spread by 0.16."""
    if not unit_seconds:
        raise ValueError("no reference units were timed")
    return REFERENCE_UNIT_S * len(unit_seconds) / sum(unit_seconds)

