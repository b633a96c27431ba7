"""The product engine against the step-by-step oracle, bit for bit.

The engine and flow network take exact shortcuts to scale to thousands
of ranks: same-instant batched dispatch, component-scoped reallocation,
per-class progressive filling, carrier flows for identical same-instant
transfers, and one completion entry per cohort of coincident
completions.  Every observable (completion instants, per-link byte
counters, final virtual time) must be **bitwise identical** (``==`` on
floats, no tolerance) to the plain step-by-step simulation kept in
``tests/sim/stepped.py`` — including under aborts, mid-flight bandwidth
changes, and end to end through the public entry points.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Link, Timeout

from .stepped import flow_network, stepped_machines


@st.composite
def _flow_soups(draw):
    """Random links, timed flow arrivals, and timed cancellations.

    Start times sit on a coarse grid so same-instant arrivals — the
    aggregation (carrier-merge) path — occur routinely, and sizes repeat
    from a small pool so identical (path, size) classes actually form.
    """
    n_links = draw(st.integers(min_value=1, max_value=6))
    bandwidths = [draw(st.floats(min_value=0.5, max_value=800.0))
                  for _ in range(n_links)]
    size_pool = [draw(st.floats(min_value=1.0, max_value=15_000.0))
                 for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    n_flows = draw(st.integers(min_value=1, max_value=14))
    flows = []
    for _ in range(n_flows):
        size = draw(st.sampled_from(size_pool))
        path_len = draw(st.integers(min_value=1, max_value=min(3, n_links)))
        path = tuple(draw(st.permutations(range(n_links)))[:path_len])
        start = draw(st.integers(min_value=0, max_value=6)) * 0.5
        flows.append((size, path, start))
    # Cancellations: (flow index, abort time) — some land before the flow
    # starts (no-op), some mid-flight, some after completion (no-op).
    n_aborts = draw(st.integers(min_value=0, max_value=4))
    aborts = [(draw(st.integers(min_value=0, max_value=n_flows - 1)),
               draw(st.integers(min_value=0, max_value=8)) * 0.75)
              for _ in range(n_aborts)]
    return bandwidths, flows, aborts


def _run_soup(bandwidths, flow_specs, aborts, oracle=False):
    net = flow_network(oracle)
    eng = net.engine
    links = [Link(f"l{i}", bw) for i, bw in enumerate(bandwidths)]
    completions: dict[int, float] = {}
    events: dict[int, object] = {}

    def launcher():
        t = 0.0
        for idx, (size, path, start) in sorted(enumerate(flow_specs),
                                               key=lambda kv: kv[1][2]):
            if start > t:
                yield Timeout(start - t)
                t = start
            done = net.transfer(size, [links[i] for i in path], label=str(idx))
            events[idx] = done
            done.add_callback(
                lambda ev, idx=idx: completions.__setitem__(idx, eng.now))

    def aborter():
        t = 0.0
        for idx, at in sorted(aborts, key=lambda kv: kv[1]):
            if at > t:
                yield Timeout(at - t)
                t = at
            done = events.get(idx)
            if done is not None and not done.triggered:
                net.abort(done)

    eng.spawn(launcher())
    if aborts:
        eng.spawn(aborter())
    eng.run()
    assert net.active_flow_count == 0
    return {
        "completions": tuple(sorted(completions.items())),
        "bytes": tuple(link.bytes_carried for link in links),
        "final_now": eng.now,
        "completed": net.completed_flows,
        "aborted": net.aborted_flows,
    }


@given(_flow_soups())
@settings(max_examples=100, deadline=None)
def test_mode_matrix_matches_reference_exactly(soup):
    """Random soups with aborts: the product equals the stepped oracle."""
    bandwidths, flow_specs, aborts = soup
    ref = _run_soup(bandwidths, flow_specs, aborts, oracle=True)
    assert _run_soup(bandwidths, flow_specs, aborts) == ref


@given(_flow_soups())
@settings(max_examples=60, deadline=None)
def test_fast_forward_with_brownouts_matches_reference(soup):
    """A bandwidth change landing inside a fast-forwarded interval must
    invalidate the scheduled analytic jump: results stay bitwise equal to
    the stepped oracle with the change applied step by step."""
    bandwidths, flow_specs, _ = soup

    def run(oracle):
        net = flow_network(oracle)
        eng = net.engine
        links = [Link(f"l{i}", bw) for i, bw in enumerate(bandwidths)]
        completions = {}

        def launcher():
            t = 0.0
            for idx, (size, path, start) in sorted(enumerate(flow_specs),
                                                   key=lambda kv: kv[1][2]):
                if start > t:
                    yield Timeout(start - t)
                    t = start
                done = net.transfer(size, [links[i] for i in path],
                                    label=str(idx))
                done.add_callback(
                    lambda ev, idx=idx: completions.__setitem__(idx, eng.now))

        def brownout():
            # Degrade link 0 mid-run, restore later — instants chosen off
            # the arrival grid so they land inside settled intervals.
            yield Timeout(0.8)
            net.set_bandwidth(links[0], bandwidths[0] * 0.125)
            yield Timeout(1.3)
            net.set_bandwidth(links[0], bandwidths[0])

        eng.spawn(launcher())
        eng.spawn(brownout())
        eng.run()
        return {
            "completions": tuple(sorted(completions.items())),
            "bytes": tuple(link.bytes_carried for link in links),
            "final_now": eng.now,
        }

    assert run(oracle=False) == run(oracle=True)


def _srumma_brownout():
    """A ``FaultPlan`` brownout that lands mid-phase inside cohort jumps."""
    from repro.core.api import srumma_multiply
    from repro.machines import LINUX_MYRINET
    from repro.sim.faults import FaultPlan, LinkBrownout

    healthy = srumma_multiply(LINUX_MYRINET, 16, 384, 384, 384,
                              payload="synthetic", verify=False)
    plan = FaultPlan(brownouts=(
        LinkBrownout(node=3, t_start=0.2 * healthy.elapsed,
                     t_end=0.6 * healthy.elapsed, factor=0.1),))
    res = srumma_multiply(LINUX_MYRINET, 16, 384, 384, 384,
                          payload="synthetic", verify=False, faults=plan)
    assert res.elapsed > healthy.elapsed  # the brownout actually bit
    return res.elapsed, res.run.machine


def _hierarchical():
    from repro.core.hierarchical import hierarchical_multiply
    from repro.machines import LINUX_MYRINET

    res = hierarchical_multiply(LINUX_MYRINET, nranks=16, m=256, n=256,
                                k=256, payload="synthetic")
    return res.elapsed, res.run.machine


def _phase_traffic():
    from repro.bench.traffic import srumma_phase_traffic
    from repro.machines.platforms import get_platform
    from repro.sim.cluster import Machine

    machine = Machine(get_platform("linux-myrinet"), 64)
    st = srumma_phase_traffic(machine, phases=2, subpanels=4,
                              base_bytes=float(1 << 16))
    return (st["virtual_elapsed"], st["flows"]), machine


def _summa():
    from repro.baselines.summa import summa_multiply
    from repro.machines import LINUX_MYRINET

    res = summa_multiply(LINUX_MYRINET, 16, 384, 384, 384,
                         payload="synthetic")
    return res.elapsed, res.run.machine


def _pdgemm():
    from repro.baselines.pdgemm import pdgemm_multiply
    from repro.machines import IBM_SP

    res = pdgemm_multiply(IBM_SP, 12, 300, 260, 280, payload="synthetic")
    return res.elapsed, res.run.machine


@pytest.mark.parametrize("case", [_srumma_brownout, _hierarchical,
                                  _phase_traffic, _summa, _pdgemm],
                         ids=["srumma-brownout", "hierarchical",
                              "phase-traffic", "summa", "pdgemm"])
def test_end_to_end_matches_stepped_oracle(case):
    """Public entry points give bitwise the oracle's virtual time and
    per-link traffic."""
    def observe():
        result, machine = case()
        links = [(n.nic_out.bytes_carried, n.nic_in.bytes_carried,
                  n.mem.bytes_carried) for n in machine.nodes]
        return result, machine.engine.now, links

    product = observe()
    with stepped_machines():
        oracle = observe()
    assert product == oracle  # bitwise, no tolerance


class TestBrownoutInsideFastForwardedInterval:
    """The deterministic core case of the satellite: identical same-instant
    transfers merge into one carrier whose completion is one analytic jump
    away; a brownout strikes strictly inside that interval."""

    def _scenario(self, oracle=False):
        net = flow_network(oracle)
        eng = net.engine
        link = Link("nic", 100.0)
        other = Link("nic2", 100.0)
        completions = {}

        def work():
            # Four identical transfers born at one instant: the aggregated
            # path merges them; all four complete at the bitwise-same time,
            # which the fast-forward path schedules as one cohort.
            for i in range(4):
                done = net.transfer(400.0, [link], label=f"m{i}")
                done.add_callback(
                    lambda ev, i=i: completions.__setitem__(f"m{i}", eng.now))
            # A bystander on a disjoint link: its completion must be
            # untouched by the brownout.
            done = net.transfer(100.0, [other], label="solo")
            done.add_callback(
                lambda ev: completions.__setitem__("solo", eng.now))
            yield Timeout(0.0)

        def brownout():
            # The carrier's jump spans [0, 16]; strike at t=5, lift at t=9.
            yield Timeout(5.0)
            net.set_bandwidth(link, 10.0)
            yield Timeout(4.0)
            net.set_bandwidth(link, 100.0)

        eng.spawn(work())
        eng.spawn(brownout())
        eng.run()
        return completions, link.bytes_carried, other.bytes_carried, eng.now

    def test_brownout_invalidates_the_jump(self):
        assert self._scenario() == self._scenario(oracle=True)

    def test_timeline_is_the_degraded_one(self):
        completions, carried, other_carried, final = self._scenario()
        # 4 x 400 B on 100 B/s: healthy finish would be t=16.  Browned out
        # to 10 B/s over [5, 9]: 5*100 + 4*10 = 540 B done, 1060 B left at
        # 100 B/s -> t = 9 + 10.6 = 19.6.  A stale analytic jump would have
        # fired at 16.
        assert completions["m0"] == pytest.approx(19.6)
        assert all(completions[f"m{i}"] == completions["m0"] for i in range(4))
        assert completions["solo"] == pytest.approx(1.0)
        assert carried == pytest.approx(1600.0)
        assert other_carried == pytest.approx(100.0)
        assert final == completions["m0"]
