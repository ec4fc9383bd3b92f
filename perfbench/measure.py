"""The timed unit loop, failure counting and the percentile rule.

Kept free of numpy and of groverdfs so the launcher and the tests can
import it without the program under test.

Machine speed on a shared host drifts by tens of percent over minutes,
in step for every kind of work. So the loop also times a fixed reference
kernel, unrelated to the program, every REFERENCE_EVERY_S of unit time.
Each unit carries the latest reference time, and its duration can be
rescaled to a nominal machine speed (`normalized`).
"""
from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import dataclass

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10
REFERENCE_EVERY_S = 0.5    # unit time between two timings of the reference kernel
REFERENCE_REPEATS = 3      # each timing is the median of this many calls


@dataclass
class Unit:
    """One timed unit: its index, the inputs it got, what it returned or raised,
    and the reference kernel's latest time (None when none was timed)."""

    index: int
    args: object
    output: object
    seconds: float
    error: str | None = None
    reference: float | None = None


def run_units(workload, seconds: float, first: int = 0, unit_fn=None, reference=None) -> list:
    """Run units back to back until their summed wall time reaches `seconds`.

    Only the call into the program is timed; building a unit's inputs
    (`workload.inputs(k)`) and the `reference` kernel run outside the
    timer. A unit that raises is recorded with its error and the loop
    goes on.
    """
    unit_fn = unit_fn or workload.unit
    units = []
    busy = 0.0
    ref, ref_at = None, -REFERENCE_EVERY_S
    k = first
    while busy < seconds:
        if reference is not None and busy - ref_at >= REFERENCE_EVERY_S:
            ref, ref_at = time_reference(reference), busy
        args = workload.inputs(k)
        error = output = None
        t0 = time.perf_counter()
        try:
            output = unit_fn(args)
        except Exception:
            error = traceback.format_exc()
        dt = time.perf_counter() - t0
        busy += dt
        units.append(Unit(k, args, output, dt, error, ref))
        k += 1
    return units


def time_reference(reference) -> float:
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def normalized(unit: Unit, nominal: float) -> float:
    """The unit's duration at the speed where the reference kernel takes `nominal` s."""
    return unit.seconds * nominal / unit.reference


def count_failures(units, check) -> int:
    """Units that raised or whose output `check(args, output)` rejects.

    The first failure's reason goes to stderr, so a failing run says why.
    """
    failed = 0
    for u in units:
        reason = u.error
        if reason is None:
            try:
                if not check(u.args, u.output):
                    reason = f"unit {u.index}: output failed its correctness check"
            except Exception:
                reason = f"unit {u.index}: check raised\n{traceback.format_exc()}"
        if reason is not None:
            if not failed:
                print(f"perfbench: {reason}", file=sys.stderr)
            failed += 1
    return failed


def percentile(samples, q: int):
    """Nearest-rank q-th percentile (q an integer percent), or None.

    None means fewer than MIN_TAIL samples lie beyond the percentile, too
    few to report it.
    """
    xs = sorted(samples)
    rank = (q * len(xs) + 99) // 100    # ceil(q n / 100) in integer arithmetic
    if rank < 1 or len(xs) - rank < MIN_TAIL:
        return None
    return xs[rank - 1]


def median(samples) -> float:
    return statistics.median(samples)
