"""A fixed slice of interpreter work, timed to calibrate the benchmark's
times against the machine's current speed (see worker.REFERENCE_SLICE_S).

The slice does the kind of work applekit does: it indexes generated IRIs
in nested dicts of sets and sorts the result, with a working set of a few
megabytes.  Run as a script, it performs one slice and exits: cli-cold
times that child process, so its reference pays interpreter start-up like
the commands do.
"""

import gc
import time

_IRIS = [f"http://calibration.example/node#n{i}" for i in range(20000)]


def _reference_work() -> int:
    index: dict[str, dict[str, set[str]]] = {}
    for i, subject in enumerate(_IRIS):
        index.setdefault(subject, {}).setdefault(_IRIS[i % 37], set()).add(_IRIS[(i * 7919) % 20000])
    return len(sorted((s, p, len(objects)) for s, by_p in index.items() for p, objects in by_p.items()))


def calibrate() -> float:
    """Wall seconds one calibration slice takes right now.

    The collector is paused so the slice costs the same whatever the size
    of the calling process's heap.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    calibrate()
