"""Per-layer attribution for the traced run.

Two sources, both installed from this directory and removed again after
each traced op, so the timed (untraced) ops run the program unmodified:

- host time: stdlib ``cProfile`` over the op, folded by the module path
  of each function into the repository's layers (:func:`fold`).  Code
  that is not the repository's own (builtins, the standard library,
  numpy) is charged to the layer that called it, split along the
  profiler's per-caller edges.  ``RankContext.dgemm`` is its own layer,
  ``kernel``: numpy's ``@`` is an operator, not a call, so it lands in
  that generator's self time, which cProfile sums over its resumes.
- counts: light wrappers that record every ``ParallelRun`` built, every
  ``RankContext.dgemm`` call and every journal record
  (:class:`Capture`), read out after the op by :func:`counters`.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import PurePath

# Layer of each module under src/repro, by (package, module) and then by
# package alone.  Anything in the repository not listed here is "other".
_MODULE_LAYERS = {
    ("sim", "engine.py"): "engine",
    ("sim", "network.py"): "network",
    ("sim", "cluster.py"): "cluster",
    ("sim", "resources.py"): "cluster",
    ("sim", "interference.py"): "cluster",
    ("sim", "trace.py"): "tracer",
    ("sim", "faults.py"): "faults",
    ("sim", "membership.py"): "faults",
    ("comm", "armci.py"): "comm.armci",
    ("comm", "mpi.py"): "comm.mpi",
    ("bench", "cache.py"): "harness.cache",
    ("bench", "journal.py"): "harness.journal",
}
_PACKAGE_LAYERS = {
    "comm": "comm.base",        # base.py, shmem.py, mpi_rma.py
    "core": "core",
    "model": "core",
    "machines": "cluster",
    "baselines": "baselines",
    "distarray": "distarray",   # includes abft.py
    "bench": "harness.parallel",  # parallel.py, runner.py
}

LAYERS = ("engine", "network", "cluster", "tracer", "comm.armci", "comm.mpi",
          "comm.base", "faults", "core", "baselines", "distarray", "kernel",
          "harness.cache", "harness.journal", "harness.parallel", "other")


def layer_of(func: tuple, src_root: str) -> str | None:
    """The layer of one profiled function, or None if it is not ours."""
    filename, _, name = func
    if not filename.startswith(src_root):
        return None
    parts = PurePath(filename[len(src_root):]).parts
    if len(parts) < 2:
        return "other"
    package, module = parts[0], parts[-1]
    if (package, module, name) == ("comm", "base.py", "dgemm"):
        return "kernel"
    return _MODULE_LAYERS.get((package, module),
                              _PACKAGE_LAYERS.get(package, "other"))


def fold(stats: dict, src_root: str, iterations: int = 60) -> dict:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` table.

    A function outside the repository passes its self time to its callers
    in proportion to the time it spent under each of them (cProfile keeps
    that per caller edge).  Recursion among such functions (``deepcopy``,
    the json encoder) is resolved by fixed-point iteration; mass still
    unresolved at the end, and time under callers that are not ours at
    all, is "other".
    """
    owner: dict = {}
    for func in stats:
        layer = layer_of(func, src_root)
        if layer is not None:
            owner[func] = {layer: 1.0}
    foreign = [f for f in stats if f not in owner]
    share: dict = {f: {} for f in foreign}
    for _ in range(iterations):
        for func in foreign:
            callers = stats[func][4]
            total = sum(edge[2] for edge in callers.values())
            mix: dict = {}
            if total > 0:
                for caller, edge in callers.items():
                    weight = edge[2] / total
                    src = owner.get(caller) or share.get(caller) or {}
                    for layer, part in src.items():
                        mix[layer] = mix.get(layer, 0.0) + weight * part
            share[func] = mix
    seconds = dict.fromkeys(LAYERS, 0.0)
    for func, row in stats.items():
        tt = row[2]
        mix = owner.get(func) or share[func]
        placed = 0.0
        for layer, part in mix.items():
            seconds[layer] += tt * part
            placed += part
        seconds["other"] += tt * max(0.0, 1.0 - placed)
    return seconds


def layer_seconds(profile: cProfile.Profile, src_root: str) -> dict:
    """Self seconds per layer over everything ``profile`` has recorded."""
    return fold(pstats.Stats(profile).stats, src_root)


class Capture:
    """Counting wrappers around the program's classes, for one traced op.

    Use as a context manager; the original attributes are restored on
    exit, so the wrappers never run during a timed op.
    """

    def __init__(self):
        from repro.bench.journal import SweepJournal
        from repro.comm.base import ParallelRun, RankContext

        self.runs: list = []
        self.kernel_calls = 0
        self.kernel_flops = 0
        self.kernel_bytes = 0
        self.journal_records = 0
        capture = self
        run_init = ParallelRun.__init__
        dgemm = RankContext.dgemm
        record = SweepJournal.record

        def counted_init(run, *args, **kwargs):
            run_init(run, *args, **kwargs)
            capture.runs.append(run)

        def counted_dgemm(ctx, a, b, c, transa=False, transb=False,
                          *args, **kwargs):
            m, n = c.shape
            k = a.shape[0] if transa else a.shape[1]
            capture.kernel_calls += 1
            capture.kernel_flops += 2 * m * n * k
            capture.kernel_bytes += a.nbytes + b.nbytes + 2 * c.nbytes
            return dgemm(ctx, a, b, c, transa, transb, *args, **kwargs)

        def counted_record(journal, index, spec, point):
            if index not in journal.completed:
                capture.journal_records += 1
            return record(journal, index, spec, point)

        self._patches = [(ParallelRun, "__init__", run_init, counted_init),
                         (RankContext, "dgemm", dgemm, counted_dgemm),
                         (SweepJournal, "record", record, counted_record)]

    def __enter__(self):
        for cls, name, _, wrapper in self._patches:
            setattr(cls, name, wrapper)
        return self

    def __exit__(self, *exc):
        for cls, name, original, _ in self._patches:
            setattr(cls, name, original)
        return False


def _ratio(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def counters(capture: Capture, cache_stats=None) -> dict:
    """Per-layer counts of one traced op, summed over every simulation
    it ran.  ``cache_stats`` is the op's ``CacheStats`` (sweeps only)."""
    from repro.core.srumma import RankStats

    out: dict = {}

    def add(name: str, value) -> None:
        out[name] = out.get(name, 0) + value

    for run in capture.runs:
        engine, net = run.machine.engine, run.machine.net
        tally = run.machine.tracer.counters
        add("engine.steps", engine.steps)
        add("engine.dispatch_batches", engine.dispatch_batches)
        add("engine.compactions", engine.compactions)
        add("engine.stalls_diagnosed", tally.get("engine:stalls_diagnosed", 0))
        add("network.reallocations", net.reallocations)
        add("network.flow_touches", net.realloc_flow_touches)
        add("network.ff_jumps", net.ff_jumps)
        add("network.flows_aggregated", net.flows_aggregated)
        add("network.completed_flows", net.completed_flows)
        add("network.aborted_flows", net.aborted_flows)
        add("comm.armci.gets", tally.get("armci_get", 0))
        add("comm.mpi.sends", tally.get("mpi_send", 0))
        for name in ("corruption_detected", "corruption_repaired",
                     "suspected", "false_suspicions", "stale_epoch_rejected"):
            metric = name.replace("corruption_", "corruptions_")
            add(f"faults.{metric}", tally.get(f"fault:{name}", 0))
        # Ranks on a crashed node return no RankStats; the rank that
        # recovers their tasks counts them as recovered_tasks.
        ranks = [s for s in run.results if isinstance(s, RankStats)]
        for field in ("remote_gets", "bytes_fetched", "copies", "retries",
                      "faults_absorbed"):
            add(f"comm.{field}", sum(getattr(s, field) for s in ranks))
        for field in ("tasks", "local_tasks", "recovered_tasks",
                      "checkpoints"):
            add(f"core.{field}", sum(getattr(s, field) for s in ranks))

    out["network.touches_per_realloc"] = _ratio(
        out.get("network.flow_touches", 0),
        out.get("network.reallocations", 0), 0.0)
    gets = out.get("comm.remote_gets", 0)
    out["comm.get_yield"] = _ratio(gets, gets + out.get("comm.retries", 0),
                                   1.0)
    out["kernel.calls"] = capture.kernel_calls
    out["kernel.flops"] = capture.kernel_flops
    out["kernel.bytes_computed"] = capture.kernel_bytes
    out["journal.records"] = capture.journal_records
    hits = cache_stats.hits if cache_stats is not None else 0
    misses = cache_stats.misses if cache_stats is not None else 0
    out["cache.hits"] = hits
    out["cache.misses"] = misses
    for field in ("writes", "bytes_read", "bytes_written", "io_errors"):
        out[f"cache.{field}"] = (getattr(cache_stats, field)
                                 if cache_stats is not None else 0)
    out["cache.hit_ratio"] = _ratio(hits, hits + misses, 0.0)
    return out
