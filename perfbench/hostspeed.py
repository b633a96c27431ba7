"""Host-speed correction: a fixed calibration pass timed beside the ops.

The host's speed drifts by up to a half over minutes, and all
pure-Python work slows and speeds up with it, so two sets of runs of
identical code disagree by more than any useful bound.  A run therefore
times :func:`calibration_pass` between its ops, for about a fifth of its
time, and scales every op time it reports by

    factor = REFERENCE_S / median(calibration seconds of the run)

so a time reads in seconds of a host on which the calibration pass takes
``REFERENCE_S``.  The pass is the benchmark's own code, never the
program's, so a change to the program moves the ops and not the
calibration.  Its work is what the simulator spends most of its time
on: resuming generators, a binary heap of events and dict updates, over
a working set of some megabytes like the ops'.  (A pass over a working
set that fits in the core's own cache tracked the ops' drift no better
than no correction at all.)  The passes run in a helper process, which
this file is when run as a script, so that their memory never shows in
the benchmark's own peak RSS.

Set-up runs in fresh interpreters, whose start-up drifts with the host
differently: in two sets of runs the op factor moved corrected
``setup_s`` by up to 36% where the raw medians moved 6%.  So set-up has
its own calibration, a fresh interpreter importing numpy and a fixed
part of the standard library (``setup_probe.py --reference``), timed
before every set-up probe; :func:`setup_factor` turns those times into
the factor for ``setup_s``.
"""

from __future__ import annotations

import heapq
import statistics
import subprocess
import sys
import time

# Median seconds of one calibration pass on the reference host (a 2-vCPU
# Xeon VM at 2.1 GHz, Python 3.11.7) in a calm spell.
REFERENCE_S = 0.15
SHARE = 0.2   # of a run's time spent calibrating
# Median seconds of one reference import probe on the same host.
SETUP_REFERENCE_S = 0.22

_PROCESSES, _STEPS = 20_000, 2


def calibration_pass() -> float:
    """One fixed event loop: every process yields ``_STEPS`` delays to a
    peer, and the loop resumes the earliest one."""
    def process(i):
        t = 0.0
        state = {"sent": 0}
        for k in range(_STEPS):
            t += ((i * 37 + k * 11) % 101) * 1e-3
            state["sent"] += 1
            yield t, (i + k) % _PROCESSES

    queue = [(0.0, i) for i in range(_PROCESSES)]
    processes = {i: process(i) for i in range(_PROCESSES)}
    inbox: dict = {}
    while queue:
        now, i = heapq.heappop(queue)
        try:
            delay, peer = next(processes[i])
        except StopIteration:
            del processes[i]
            continue
        inbox[peer] = inbox.get(peer, 0.0) + delay
        heapq.heappush(queue, (now + delay, i))
    return sum(inbox.values())


class HostSpeed:
    """Calibration samples of one run and the factor they give.

    A context manager: it starts the helper process, discards the
    helper's first pass, and stops the helper on exit."""

    def __enter__(self):
        self.samples: list[float] = []
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self._pass()
        return self

    def __exit__(self, *exc):
        self._helper.stdin.close()
        self._helper.wait(timeout=60)
        return False

    def _pass(self) -> float:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        return float(self._helper.stdout.readline())

    def sample(self, elapsed: float) -> None:
        """Time a pass if calibration is behind its share of ``elapsed``
        seconds of the run (always at the start)."""
        if not self.samples or sum(self.samples) < SHARE * elapsed:
            self.samples.append(self._pass())

    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)


def setup_factor(reference_seconds: list[float]) -> float:
    return SETUP_REFERENCE_S / statistics.median(reference_seconds)


if __name__ == "__main__":
    for _ in sys.stdin:
        t0 = time.perf_counter()
        calibration_pass()
        print(repr(time.perf_counter() - t0), flush=True)
