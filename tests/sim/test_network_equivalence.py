"""The product allocator against the full-recompute oracle, bit for bit.

The product allocator restricts each max-min recomputation to the
connected component of links touched by a membership change, takes fast
paths for uncontended joins/leaves, fills per path class, and coalesces
same-instant changes.  The oracle in ``tests/sim/stepped.py`` recomputes
over *all* active flows with the flat per-flow filling loop under the
same settle/reschedule discipline.  Determinism is load-bearing for the
whole reproduction, so the two must agree **exactly** — same completion
instants (``==`` on floats, no tolerance), same per-link
``bytes_carried``, same mid-run rates.  The invariants behind this are
documented in docs/performance.md.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Link, Timeout

from .stepped import flow_network


@st.composite
def _flow_schedules(draw):
    """Random links plus a timed flow arrival schedule over them."""
    n_links = draw(st.integers(min_value=1, max_value=8))
    bandwidths = [draw(st.floats(min_value=0.5, max_value=700.0))
                  for _ in range(n_links)]
    n_flows = draw(st.integers(min_value=1, max_value=16))
    flows = []
    for _ in range(n_flows):
        size = draw(st.floats(min_value=1.0, max_value=20_000.0))
        path_len = draw(st.integers(min_value=1, max_value=min(3, n_links)))
        path = tuple(draw(st.permutations(range(n_links)))[:path_len])
        # Coarse grid of start times so same-instant arrivals (the
        # coalescing path) actually occur.
        start = draw(st.integers(min_value=0, max_value=6)) * 0.5
        flows.append((size, path, start))
    return bandwidths, flows


def _simulate(oracle, bandwidths, flow_specs, probe_times=()):
    """Run one schedule; return every observable the allocators must agree on."""
    net = flow_network(oracle)
    eng = net.engine
    links = [Link(f"l{i}", bw) for i, bw in enumerate(bandwidths)]
    completions: dict[int, float] = {}

    ordered = sorted(enumerate(flow_specs), key=lambda kv: kv[1][2])

    def launcher():
        t = 0.0
        for idx, (size, path, start) in ordered:
            if start > t:
                yield Timeout(start - t)
                t = start
            done = net.transfer(size, [links[i] for i in path], label=str(idx))
            done.add_callback(
                lambda ev, idx=idx: completions.__setitem__(idx, eng.now))

    samples = []

    def prober():
        t = 0.0
        for pt in probe_times:
            if pt > t:
                yield Timeout(pt - t)
                t = pt
            samples.append(sorted(net.flow_rates()))

    eng.spawn(launcher())
    if probe_times:
        eng.spawn(prober())
    eng.run()
    assert net.active_flow_count == 0
    return {
        "completions": tuple(sorted(completions.items())),
        "bytes": tuple(link.bytes_carried for link in links),
        "final_now": eng.now,
        "completed": net.completed_flows,
        "samples": samples,
    }


def _quiescent_probes(event_times):
    """Instants strictly between consecutive events (no activity there)."""
    times = sorted(set(event_times))
    probes = []
    for a, b in zip(times, times[1:]):
        mid = (a + b) / 2.0
        if a < mid < b:
            probes.append(mid)
    return probes


@given(_flow_schedules())
@settings(max_examples=120, deadline=None)
def test_incremental_matches_reference_exactly(schedule):
    bandwidths, flow_specs = schedule
    # Pass 1: discover the event times from the (deterministic) oracle
    # run, so rate probes land at quiescent instants — mid-event sampling
    # would race the same-instant coalescing flush, which is unordered
    # relative to foreign processes.
    base = _simulate(True, bandwidths, flow_specs)
    event_times = ([start for _, _, start in flow_specs]
                   + [t for _, t in base["completions"]])
    probes = _quiescent_probes(event_times)

    ref = _simulate(True, bandwidths, flow_specs, probe_times=probes)
    inc = _simulate(False, bandwidths, flow_specs, probe_times=probes)

    # Probes are pure observers at event-free instants: they must not have
    # perturbed the oracle run at all.
    assert ref["completions"] == base["completions"]

    # Exact agreement — no pytest.approx anywhere.
    assert inc["completions"] == ref["completions"]
    assert inc["bytes"] == ref["bytes"]
    assert inc["final_now"] == ref["final_now"]
    assert inc["completed"] == ref["completed"]
    assert inc["samples"] == ref["samples"]


def test_seeded_soaks_match_exactly():
    """Longer randomized soaks (beyond hypothesis' example sizes)."""
    for seed in range(8):
        rng = random.Random(seed)
        n_links = rng.randint(2, 12)
        bandwidths = [rng.uniform(1.0, 900.0) for _ in range(n_links)]
        flows = []
        for _ in range(rng.randint(10, 60)):
            size = rng.uniform(1.0, 50_000.0)
            path_len = rng.randint(1, min(4, n_links))
            path = tuple(rng.sample(range(n_links), path_len))
            start = rng.randint(0, 20) * 0.25
            flows.append((size, path, start))
        ref = _simulate(True, bandwidths, flows)
        inc = _simulate(False, bandwidths, flows)
        assert inc == ref, f"divergence at seed {seed}"


def test_incremental_touches_fewer_flows_on_disjoint_traffic():
    """Scoping must pay off: disjoint flow pairs never see each other."""
    nets = {"reference": flow_network(oracle=True),
            "incremental": flow_network(oracle=False)}
    touches = {}
    for name, net in nets.items():
        eng = net.engine
        # 20 disjoint link pairs, two flows each (so neither the empty-path
        # nor the solo-departure fast path hides the reallocation).
        links = [(Link(f"a{i}", 10.0), Link(f"b{i}", 10.0)) for i in range(20)]

        def launcher(links=links, net=net):
            for i, (la, lb) in enumerate(links):
                net.transfer(100.0 + i, [la, lb])
                net.transfer(50.0 + i, [la, lb])
                yield Timeout(0.1)

        eng.spawn(launcher())
        eng.run()
        assert net.completed_flows == 40
        touches[name] = net.realloc_flow_touches
    # Oracle passes sweep every active flow; the product stays inside each
    # two-flow component.
    assert touches["incremental"] < touches["reference"]

