#!/usr/bin/env python3
"""Host-time benchmark of the SRUMMA simulator, with per-layer attribution.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload srumma-flat --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes

Each run is a closed loop: one op at a time, the next only after the
previous one returns, ``gc.collect()`` between ops, after one discarded
warm-up op.  Every op's output is checked (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median host
seconds per op), ``setup_s`` (median over fresh interpreters of the
set-up a new process pays before its first op) and ``peak_rss_mb``.
``--trace 1`` reports the per-layer metrics instead: it times untraced
ops for a third of the run, then runs the rest under cProfile with
counting wrappers (``layers.py``), asserts each traced op reproduces the
untraced virtual time, and scales each layer's share of the traced self
time by the untraced median.

Every reported time is corrected for the host's speed during the run
(``hostspeed.py``); the raw medians are printed above the result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files
live under ``.perfbench-work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

from hostspeed import HostSpeed, setup_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_PROBES = 10   # fresh interpreters timed per run (after one discarded)
MIN_OPS = 5         # timed ops per run even if --seconds runs out first
UNTRACED_SHARE = 1 / 3  # of a traced run's seconds spent on untraced ops
PROBE_TIMEOUT_S = 60


def declared_metrics() -> dict:
    """Unit of every metric, by mode, as ``BENCHMARK.json`` declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {mode: {m["name"]: m["unit"] for m in spec[key]}
            for mode, key in ((False, "end_to_end"), (True, "per_layer"))}


class Tally:
    """Ops attempted and failed; each failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED op {self.attempted}: {message}", file=sys.stderr)

    def run(self, wl, contexts=()):
        """Run, time and check one op; returns (seconds, signature) or
        None.  The result itself is dropped, so peak memory is one op's."""
        wl.reset()
        gc.collect()
        self.attempted += 1
        try:
            with ExitStack() as stack:
                for ctx in contexts:
                    stack.enter_context(ctx)
                t0 = time.perf_counter()
                result = wl.op()
                dt = time.perf_counter() - t0
            error = wl.check(result)
            if error is None:
                return dt, wl.signature(result)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        self.fail(error)
        return None


def closed_loop(wl, tally: Tally, seconds: float, min_ops: int,
                contexts=lambda: (), between=None) -> list:
    """Back-to-back ops for ``seconds`` (and at least ``min_ops``).

    ``between(elapsed)``, if given, runs before each op, untimed."""
    start = time.perf_counter()
    hard_stop = start + 2.5 * seconds + 30
    done = []
    while True:
        if between is not None:
            between(time.perf_counter() - start)
        outcome = tally.run(wl, contexts())
        if outcome is not None:
            done.append(outcome)
        now = time.perf_counter()
        if now - start >= seconds and (len(done) >= min_ops
                                       or now >= hard_stop):
            return done


class SetupProbes:
    """Set-up seconds of fresh interpreters, spread evenly over a run so
    that they see the same host speed as the ops, each after a reference
    probe that calibrates it.  The first pair, which also writes the
    bytecode caches, is discarded."""

    def __init__(self, name: str, workdir: Path, seconds: float):
        self.name, self.workdir = name, workdir
        self.interval = seconds / SETUP_PROBES
        self.times: list[float] = []
        self.references: list[float] = []
        self._probe()

    def _run(self, *args: str) -> float:
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *args],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True, cwd=ROOT)
        return float(out.stdout.strip().splitlines()[-1])

    def _probe(self) -> None:
        probe_dir = self.workdir / "setup-probe"
        self.references.append(self._run("--reference"))
        self.times.append(self._run(self.name, str(SRC), str(probe_dir)))
        shutil.rmtree(probe_dir, ignore_errors=True)

    def __call__(self, elapsed: float) -> None:
        if (len(self.times) <= SETUP_PROBES
                and elapsed >= (len(self.times) - 1) * self.interval):
            self._probe()

    def finish(self) -> tuple[list[float], float]:
        """Seconds of every probe but the first, and their factor."""
        while len(self.times) <= SETUP_PROBES:
            self._probe()
        return self.times[1:], setup_factor(self.references[1:])


def tail_percentile(values: list[float]) -> tuple[str, float | None]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return "tail", None
    return f"p{100 * (n - 10) // n}", ordered[n - 11]


def end_to_end(wl, tally: Tally, seconds: float, probes: SetupProbes) -> dict:
    with HostSpeed() as speed:
        def between(elapsed: float) -> None:
            speed.sample(elapsed)
            probes(elapsed)

        timed = closed_loop(wl, tally, seconds, MIN_OPS, between=between)
        setup, setup_correction = probes.finish()
    times = [dt for dt, _ in timed]
    if not times:
        raise RuntimeError("no op completed")
    factor = speed.factor()
    label, tail = tail_percentile(times)
    p75 = statistics.quantiles(times, n=4)[2] if len(times) > 1 else times[0]
    tail_text = "n/a" if tail is None else f"{tail:.6f} s"
    print(f"host speed: calibration median "
          f"{statistics.median(speed.samples):.6f} s, n={len(speed.samples)}; "
          f"factor {factor:.4f} (raw seconds below)")
    print(f"wall_s: median {statistics.median(times):.6f} s, p75 {p75:.6f} s, "
          f"{label} {tail_text}, n={len(times)}")
    q1 = statistics.quantiles(setup, n=4)[0]
    print(f"setup_s: median {statistics.median(setup):.6f} s, "
          f"p25 {q1:.6f} s, min {min(setup):.6f} s, n={len(setup)}; "
          f"factor {setup_correction:.4f}; "
          f"probes {', '.join(f'{s:.4f}' for s in setup)}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"wall_s": factor * statistics.median(times),
            "setup_s": setup_correction * statistics.median(setup),
            "peak_rss_mb": peak}


def per_layer(wl, tally: Tally, seconds: float) -> dict:
    import layers

    with HostSpeed() as speed:
        untraced = closed_loop(wl, tally, seconds * UNTRACED_SHARE, 3,
                               between=speed.sample)
    if not untraced:
        raise RuntimeError("no untraced op completed")
    factor = speed.factor()
    wall = factor * statistics.median(dt for dt, _ in untraced)
    want = untraced[0][1]
    profiler = cProfile.Profile()   # a context manager; accumulates
    captures: list = []

    def contexts():
        captures[:] = [layers.Capture()]   # keep only the latest op's
        return (captures[0], profiler)

    traced = []
    for dt, signature in closed_loop(wl, tally,
                                     seconds * (1 - UNTRACED_SHARE), 1,
                                     contexts):
        if signature != want:
            tally.fail("traced op changed the virtual time")
        else:
            traced.append(dt)
    if not traced:
        raise RuntimeError("no traced op completed")

    seconds_by_layer = layers.layer_seconds(profiler,
                                            str(SRC / "repro") + os.sep)
    total = sum(seconds_by_layer.values())
    # A count the last op never touched (no simulation built) reads 0.
    metrics = dict.fromkeys(declared_metrics()[True], 0)
    metrics.update({f"{layer}.self_s": wall * s / total
                    for layer, s in seconds_by_layer.items()})
    metrics["traced.overhead_s"] = factor * statistics.median(traced) - wall
    # The last op's counts: its cache is the workload's current one.
    counts = layers.counters(captures[0], wl.cache_stats())
    metrics.update(counts)
    metrics["engine.steps_per_s"] = counts.get("engine.steps", 0) / wall
    print(f"traced: {len(traced)} ops; host-speed factor {factor:.4f}; "
          f"untraced median {wall:.6f} s, traced median "
          f"{wall + metrics['traced.overhead_s']:.6f} s (scaled)")
    for layer, s in sorted(seconds_by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  share {layer:<17} {100 * s / total:6.2f}%")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported repro from {repro.__file__}, "
                           f"not from {SRC}")
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        probes = None if trace else SetupProbes(name, workdir, seconds)
        wl = WORKLOADS[name]()
        wl.setup(workdir / "main")
        wl.prepare(seed)
        tally = Tally()
        tally.run(wl)   # warm-up: checked, not timed
        if trace:
            metrics = per_layer(wl, tally, seconds)
        else:
            metrics = end_to_end(wl, tally, seconds, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    units = declared_metrics()[trace]
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics.keys() ^ units.keys())} "
                           f"are measured or declared, not both")
    print(f"ops attempted {tally.attempted}, failed {tally.failed}")
    for key, unit in units.items():
        print(f"  {key} = {metrics[key]:.6g} {unit}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {key: {"value": metrics[key], "unit": unit}
                        for key, unit in units.items()}}


def run_all(args) -> dict:
    """Every workload in both modes, each in its own process."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} --trace {trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                summary["correct"] = False
                continue
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                summary["metrics"][f"{name}/{key}"] = value
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args)
    elif args.workload in WORKLOADS:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
