"""One respgame invocation in a fresh interpreter, as a user pays for it.

Usage: python3 -I perfbench/child.py SRC_DIR RESULT_FD TRACE ARGV...

Imports `respgame.cli` from SRC_DIR, calls `run_cli(ARGV)` with the
program's output going to this process's stdout and exits with its code.
Before exiting it writes one JSON object to the file descriptor RESULT_FD:
the monotonic time at which the import finished, the wall and CPU seconds
of the call, `calibration_s` and, with TRACE 1, the per-layer metrics of
the call.  `calibration_s` estimates how long a fixed pure-Python loop
(`calibrate`) took while the call ran, so that the caller can factor out
how fast the shared host ran this process at the time.
"""

import gc
import signal
import sys
import time

CALIBRATION_ROOTS = 80  # the loop `calibration_s` is expressed in
TICK_ROOTS = 2
TICK_S = 0.05


def calibration_graph(n: int = 3000):
    return [((i + 1) % n, (i * 7 + 3) % n, (i * 13 + 5) % n) for i in range(n)]


def calibrate(succ, roots: int) -> float:
    """Seconds for `roots` breadth-first searches over the graph `succ`.

    The set, dict and list traffic resembles the program's attractor code.
    The collector is off while it runs, so the heap the program built does
    not change the loop's cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for root in range(roots):
            seen = {root}
            level = {root: 0}
            frontier = [root]
            while frontier:
                joined = []
                for s in frontier:
                    for t in succ[s]:
                        if t not in seen:
                            seen.add(t)
                            level[t] = level[s] + 1
                            joined.append(t)
                frontier = sorted(joined)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Ticks:
    """Runs a short calibration every TICK_S seconds of wall time while the
    call is in progress, and keeps the time those runs took so it can be
    taken off the call's wall and CPU time."""

    def __init__(self, succ):
        self.succ = succ
        self.seconds = []
        self.wall_spent = 0.0
        self.cpu_spent = 0.0

    def _tick(self, signum, frame):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.seconds.append(calibrate(self.succ, TICK_ROOTS))
        self.wall_spent += time.perf_counter() - wall0
        self.cpu_spent += time.process_time() - cpu0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    src, result_fd, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[4:]
    sys.path.insert(0, src)
    import respgame.cli
    imported_at = time.monotonic()

    import json
    import os
    succ = calibration_graph()
    before = calibrate(succ, CALIBRATION_ROOTS)
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    with Ticks(succ) as ticks:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        code = respgame.cli.run_cli(argv)
        wall = time.perf_counter() - t0 - ticks.wall_spent
        cpu = time.process_time() - cpu0 - ticks.cpu_spent
    sys.stdout.flush()
    # Half from the long loops around the call, half from the ticks in it:
    # on this host that estimate tracks the call's own slowdown best.
    calibration = (before + calibrate(succ, CALIBRATION_ROOTS)) / 2
    if ticks.seconds:
        in_call = sum(ticks.seconds) / len(ticks.seconds)
        calibration = (calibration
                       + in_call * CALIBRATION_ROOTS / TICK_ROOTS) / 2
    result = {"imported_at": imported_at, "wall_s": wall, "cpu_s": cpu,
              "calibration_s": calibration}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
    with os.fdopen(result_fd, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
