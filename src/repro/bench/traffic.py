"""Engine-level replay of SRUMMA phase traffic at large rank counts.

The figure-level benchmarks drive full per-rank protocol processes, whose
generator bookkeeping dominates host time at 1024+ ranks and is identical
whatever the allocator does.  This module replays only the *communication
pattern* of a contended SRUMMA phase schedule straight into the
:class:`~repro.sim.network.FlowNetwork`, which is the regime the
engine's large-rank fast paths (cohort fast-forward, per-class
aggregation, batched dispatch) exist for: allocation cost is the
workload.

The pattern mirrors the paper's no-diagonal-shift access order, the worst
case Figure 10 measures.  In phase ``t`` every rank ``(i, j)`` of the
``p x q`` grid fetches its A panel from the phase's owner column ``(i, t
mod q)`` and its B panel from the owner row ``(t mod p, j)`` — hub-and-
spoke contention on the owners' NICs.  Two SRUMMA realities shape the
flows:

- **Pipelined sub-panel gets.**  A rank does not issue one monolithic get
  per panel; it pipelines ``subpanels`` equal-size gets to the same owner
  in a burst (the paper's overlap mechanism).  Every flow in a burst has
  an identical (path, size, start) signature — exactly what per-class
  aggregation collapses into one carrier flow, and, with ``cpus_per_node``
  ranks per node requesting from the same hub, class multiplicity is
  ``subpanels * cpus_per_node``.
- **Ragged block sizes.**  Dimensions never divide the grid evenly, so
  panel bytes vary per (owner node, requester node) pair.  Sizes are
  raggedised by a deterministic hash of the node pair, which staggers
  completions: each departure re-triggers the fairness allocator over the
  whole contended component, the cost the modes must keep sublinear in
  flow count.

Everything is deterministic — the virtual end time is asserted bitwise
identical across reps, and against the stepped oracle in
``tests/sim/stepped.py``, by the wall-clock benchmark and the unit tests.
"""

from __future__ import annotations

from ..distarray.distribution import choose_grid
from ..sim.cluster import Machine
from ..sim.engine import AllOf

__all__ = ["srumma_phase_traffic"]


def srumma_phase_traffic(machine: Machine, phases: int = 2,
                         subpanels: int = 8,
                         base_bytes: float = float(1 << 20)) -> dict:
    """Replay ``phases`` contended SRUMMA phases on ``machine``.

    Runs the machine's engine to completion and returns a stats dict:
    ``virtual_elapsed`` (bitwise-deterministic simulated seconds),
    ``flows`` issued, and the engine fast-path counters.
    """
    if phases < 1:
        raise ValueError(f"phases must be >= 1, got {phases}")
    if subpanels < 1:
        raise ValueError(f"subpanels must be >= 1, got {subpanels}")
    eng = machine.engine
    net = machine.net
    p, q = choose_grid(machine.nranks)
    flows = 0

    def size_for(src: int, dst: int) -> float:
        # Ragged-edge panel bytes: deterministic per (owner, requester)
        # node pair, shared by the ranks of one node so bursts stay
        # class-identical (Knuth multiplicative hash).
        pair = machine.node_of(src) * 1_000_003 + machine.node_of(dst)
        return base_bytes * (1.0 + ((pair * 2654435761) % 4096) / 4096.0)

    def driver():
        nonlocal flows
        for t in range(phases):
            events = []
            for r in range(p * q):
                i, j = divmod(r, q)
                a_src = i * q + (t % q)
                b_src = (t % p) * q + j
                for src in (a_src, b_src):
                    path = machine.network_path(src, r)
                    size = size_for(src, r) / subpanels
                    for _ in range(subpanels):
                        events.append(net.transfer(size, path))
            flows += len(events)
            # Phase fence: SRUMMA's shared-memory flavour barriers between
            # phases, so the next burst starts at one instant.
            yield AllOf(eng, events)

    eng.spawn(driver())
    eng.run()
    return {
        "virtual_elapsed": eng.now,
        "flows": flows,
        "grid": (p, q),
        "reallocations": net.reallocations,
        "ff_jumps": net.ff_jumps,
        "flows_aggregated": net.flows_aggregated,
        "dispatch_batches": machine.engine.dispatch_batches,
    }
