"""Host-speed probe: fixed pure-Python work timed next to every round.

The vCPU this benchmark runs on changes speed from one second to the next,
and CPU time does not escape the swing.  Timing the same fixed work right
after each measured round tells the benchmark how fast the host was at
that moment, so a round's duration can be rescaled to a reference speed:

    corrected = raw * ((REFERENCE_S * reps) / probe_s) ** EXPONENT

A round slows by less than the probe does when the host slows: measured
here, the spread of 50-round window medians was smallest at an exponent of
0.7 for 25-SU memory rounds (cv 1.7%, against 2.9% linear and 5.8% raw)
and for 250- and 1000-SU in-process rounds, and within 0.5% of the best
for 2-SU TCP rounds.

The work mixes what a round does most -- SHA-256 through ``hashlib``,
bytes slicing, dict updates, string formatting and int arithmetic -- so
that it slows down with the host the way a round does.  It imports
nothing from ``repro``, allocates no GC-tracked containers (its one dict
is created at import and emptied after each use) and always does the same
work, so its time depends on the host alone.  It never runs inside a
timed span.
"""

from __future__ import annotations

import hashlib
import time

__all__ = ["EXPONENT", "ITERATIONS", "REFERENCE_S", "probe", "scale"]

#: Loop iterations in one probe unit.
ITERATIONS = 500

#: Seconds one probe unit takes at the reference host speed.  A recorded
#: constant: it fixes the scale of corrected figures and must never be
#: re-measured at run time.
REFERENCE_S = 0.0015

#: How strongly a round's duration follows the probe's (see above).
EXPONENT = 0.7

_TABLE: dict = {}
_SEED = b"perfbench-probe-0123456789abcdef"


def probe(reps: int = 1) -> float:
    """Run ``reps`` probe units; returns the elapsed seconds."""
    table = _TABLE
    digest = _SEED
    total = 0
    t0 = time.perf_counter()
    for i in range(reps * ITERATIONS):
        digest = hashlib.sha256(digest).digest()
        key = digest[:6]
        table[key] = table.get(key, 0) + i
        total += len(f"{i}:{key.hex()}") + int.from_bytes(digest[:4], "little")
    elapsed = time.perf_counter() - t0
    table.clear()
    if total < 0:  # never true; keeps the loop's result live
        raise AssertionError(total)
    return elapsed


def scale(reps: int, probe_s: float) -> float:
    """Factor that turns a duration measured next to ``probe_s`` into one
    at the reference speed (rates take its inverse)."""
    return (REFERENCE_S * reps / probe_s) ** EXPONENT
