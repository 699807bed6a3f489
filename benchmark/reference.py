"""The reference computation that the benchmark's timings are scaled by.

``loop_seconds`` times a fixed pure-Python loop in the calling process.  Run
as a script, this file is the reference process: a fresh interpreter that
runs the same loop ``PROCESS_LOOPS`` times and exits.  Neither touches
gnfkit, so a change to gnfkit cannot change them; only the host's speed
does.  See README.md in this directory.
"""

from __future__ import annotations

import gc
import time

ITERATIONS = 6000   # one loop: about 3 ms on the host of README.md's figures
PROCESS_LOOPS = 20  # the reference process: about 0.15 s there


def _loop() -> int:
    table: dict[tuple[int, int], int] = {}
    width = 0
    for i in range(ITERATIONS):
        table[i, i & 7] = table.get((i - 1, (i - 1) & 7), 0) + 1
        width += len(str(i))
    return width + len(set(table))


def loop_seconds() -> float:
    """Wall time of one loop.  The garbage collector is off while it runs, so
    that the heap gnfkit leaves behind cannot lengthen it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    gc.disable()
    for _ in range(PROCESS_LOOPS):
        _loop()
