"""Child process: time one workload's set-up in a fresh interpreter.

Usage: ``python3 setup_probe.py WORKLOAD SRC_DIR WORKDIR``.  Prints the
seconds from the first line of this script to the end of the workload's
``setup``: importing ``repro``, building the platform and a ``Machine``
and, for sweeps, hashing the code and opening the cache and journal.
Interpreter start-up before this script runs is not counted.

``python3 setup_probe.py --reference`` times the same span for a fixed
import of numpy and some of the standard library instead.  It is the
calibration of ``setup_s`` (see ``hostspeed.py``): fresh-process
start-up drifts with the host differently from a running process.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def reference() -> None:
    import argparse, asyncio, dataclasses, decimal, email.parser  # noqa
    import fractions, http.client, json, logging, statistics  # noqa
    import unittest, xml.etree.ElementTree  # noqa
    import numpy  # noqa


def main() -> None:
    if sys.argv[1] == "--reference":
        reference()
    else:
        name, src, workdir = sys.argv[1], sys.argv[2], Path(sys.argv[3])
        sys.path.insert(0, src)
        from workloads import WORKLOADS

        WORKLOADS[name]().setup(workdir)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
