"""SRUMMA phase-traffic replay: determinism and the fast-path counters.

Equivalence with the stepped oracle is checked end to end in
``tests/sim/test_engine_modes.py``.
"""

import contextlib

import pytest

from repro.bench.traffic import srumma_phase_traffic
from repro.machines.platforms import get_platform
from repro.sim.cluster import Machine

from ..sim.stepped import stepped_machines


def _run(nranks=64, phases=2, subpanels=4, oracle=False):
    spec = get_platform("linux-myrinet")
    with stepped_machines() if oracle else contextlib.nullcontext():
        machine = Machine(spec, nranks)
    return srumma_phase_traffic(machine, phases=phases, subpanels=subpanels,
                                base_bytes=float(1 << 16))


def test_deterministic_across_runs():
    a = _run()
    b = _run()
    assert a["virtual_elapsed"] == b["virtual_elapsed"]
    assert a["flows"] == b["flows"]


def test_bursts_actually_aggregate():
    # Each rank's sub-panel burst shares (path, size, instant) with its
    # node sibling: the product must fold members into carriers, which the
    # step-by-step oracle never does.
    on = _run()
    assert on["flows_aggregated"] > on["flows"]
    assert on["ff_jumps"] > 0
    off = _run(oracle=True)
    assert off["flows_aggregated"] == 0
    assert off["ff_jumps"] == 0


def test_bad_parameters_rejected():
    spec = get_platform("linux-myrinet")
    machine = Machine(spec, 16)
    with pytest.raises(ValueError, match="phases"):
        srumma_phase_traffic(machine, phases=0)
    machine = Machine(spec, 16)
    with pytest.raises(ValueError, match="subpanels"):
        srumma_phase_traffic(machine, subpanels=0)
