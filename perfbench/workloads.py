"""The four benchmark workloads, each a closed loop of one repeated op.

A workload is driven in this order: :meth:`setup` (what a fresh process
pays before its first op; timed in fresh interpreters for ``setup_s``),
:meth:`prepare` (the seeded inputs and the reference outputs, untimed),
then per op :meth:`reset` (untimed), :meth:`op` (timed) and
:meth:`check` (untimed).  Every op is checked; :meth:`check` returns a
message for a wrong output and ``None`` for a right one.

Golden virtual times were recorded with the default seed 0.  Only
``srumma-faults`` and ``sweep-cache`` use the seed; on other seeds
``srumma-faults`` is checked op against op for determinism.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import shutil
from pathlib import Path

PLATFORM = "linux-myrinet"
DEFAULT_SEED = 0


class Workload:
    name = ""

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def reset(self) -> None:
        pass

    def op(self):
        raise NotImplementedError

    def check(self, result) -> str | None:
        raise NotImplementedError

    def signature(self, result):
        """What a traced op must reproduce bitwise: its virtual time."""
        return result.elapsed

    def cache_stats(self):
        return None


def _golden(name: str, got: float, want: float) -> str | None:
    if got != want:
        return f"{name}: virtual elapsed {got!r} != golden {want!r}"
    return None


class SrummaFlat(Workload):
    name = "srumma-flat"
    NRANKS, N = 64, 2048
    GOLDEN = 0.10487259999999998

    def setup(self, workdir):
        from repro.core.api import srumma_multiply
        from repro.core.schedule import ScheduleOptions
        from repro.core.srumma import SrummaOptions
        from repro.machines.platforms import get_platform
        from repro.sim.cluster import Machine

        self.spec = get_platform(PLATFORM)
        Machine(self.spec, self.NRANKS)
        self.options = SrummaOptions(
            schedule=ScheduleOptions(diagonal_shift=True))
        self._multiply = srumma_multiply

    def op(self):
        n = self.N
        return self._multiply(self.spec, self.NRANKS, n, n, n,
                              payload="synthetic", verify=False,
                              options=self.options)

    def check(self, result):
        return _golden(self.name, result.elapsed, self.GOLDEN)


class MpiHier(Workload):
    name = "mpi-hier"
    NRANKS, N = 128, 4096
    GOLDEN = 0.7977577166666664

    def setup(self, workdir):
        from repro.core.hierarchical import hierarchical_multiply
        from repro.machines.platforms import get_platform
        from repro.sim.cluster import Machine

        self.spec = get_platform(PLATFORM)
        Machine(self.spec, self.NRANKS)
        self._multiply = hierarchical_multiply

    def op(self):
        n = self.N
        return self._multiply(self.spec, self.NRANKS, n, n, n,
                              payload="synthetic", verify=False)

    def check(self, result):
        return _golden(self.name, result.elapsed, self.GOLDEN)


class SrummaFaults(Workload):
    name = "srumma-faults"
    NRANKS, N = 32, 1536
    # Virtual seconds of the same multiply without faults; the plan's
    # times are fractions of it.
    HEALTHY = 0.09714573209396947
    GOLDEN = {DEFAULT_SEED: 0.13239880933088075}

    def setup(self, workdir):
        from repro.core.api import srumma_multiply
        from repro.core.srumma import SrummaOptions
        from repro.machines.platforms import get_platform
        from repro.sim.cluster import Machine

        self.spec = get_platform(PLATFORM)
        Machine(self.spec, self.NRANKS)
        self.options = SrummaOptions(dynamic=True)
        self._multiply = srumma_multiply
        self.plan = self._make_plan(DEFAULT_SEED)

    def _make_plan(self, seed: int):
        """Get failures, corruption, and the last node crashing halfway,
        found by a lossy timeout detector, under the progress watchdog."""
        from repro.sim.faults import DetectorConfig, FaultPlan, NodeCrash

        h = self.HEALTHY
        timeout = 0.05 * h
        last_node = self.NRANKS // self.spec.cpus_per_node - 1
        return FaultPlan(
            crashes=(NodeCrash(node=last_node, t_fail=0.5 * h),),
            get_fail_prob=0.05, corruption_rate=0.03, seed=seed,
            checkpoint_interval=2, get_timeout=0.25 * h,
            detector=DetectorConfig(period=timeout / 4, timeout=timeout,
                                    confirm_grace=timeout / 2,
                                    heartbeat_loss_prob=0.2),
            watchdog_grace=5.0 * h)

    def prepare(self, seed):
        super().prepare(seed)
        self.plan = self._make_plan(seed)
        self.first = None

    def op(self):
        n = self.N
        return self._multiply(self.spec, self.NRANKS, n, n, n,
                              payload="real", verify=True,
                              options=self.options, faults=self.plan)

    def check(self, result):
        # verify=True already raised inside the op if C differs from numpy.
        if result.max_error is None:
            return f"{self.name}: the numpy verification did not run"
        health = result.run.tracer.health()
        if not (health.get("confirmed_dead", 0) >= 1
                and health.get("recovery_tasks", 0) > 0):
            return f"{self.name}: the node crash was not detected/recovered"
        if self.seed in self.GOLDEN:
            return _golden(self.name, result.elapsed, self.GOLDEN[self.seed])
        if self.first is None:
            self.first = (result.elapsed, health)
        elif (result.elapsed, health) != self.first:
            return (f"{self.name}: op not deterministic: "
                    f"{(result.elapsed, health)!r} != {self.first!r}")
        return None


class SweepCache(Workload):
    name = "sweep-cache"
    ALGORITHMS = ("srumma", "summa", "pdgemm")
    NRANKS = (2, 4)
    SIZES = tuple(range(32, 32 + 8 * 60, 8))
    # In every GROUP consecutive points the seed picks one miss and
    # JOURNALED points that the interrupted sweep being resumed had
    # finished; the rest are plain cache hits.
    GROUP, JOURNALED = 20, 18
    # sha256 of the cold (uncached) reference points, which do not depend
    # on the seed.
    GOLDEN = "60c90aeaae8ab866c44a812e9180a51613d7bd93db837a7f0b5548b20285d65e"

    def setup(self, workdir):
        from repro.bench.cache import ResultCache, code_fingerprint
        from repro.bench.journal import SweepJournal
        from repro.bench.parallel import ExecutionPolicy, PointSpec, run_points
        from repro.machines.platforms import get_platform

        spec = get_platform(PLATFORM)
        self.specs = [PointSpec(alg, spec, p, m)
                      for alg in self.ALGORITHMS for p in self.NRANKS
                      for m in self.SIZES]
        code_fingerprint()
        self.cache_dir = workdir / "cache"
        self.journal_dir = workdir / "journal"
        self._cache_cls, self._run_points = ResultCache, run_points
        self._journal_cls = SweepJournal
        self.cache = ResultCache(self.cache_dir)
        SweepJournal.open(self.journal_dir, self.specs).finish()
        self.policy = ExecutionPolicy(journal_dir=self.journal_dir)

    def prepare(self, seed):
        super().prepare(seed)
        self.reference = self._run_points(self.specs, jobs=1)
        blob = repr([dataclasses.astuple(p) for p in self.reference])
        digest = hashlib.sha256(blob.encode()).hexdigest()
        self.reference_error = (
            None if digest == self.GOLDEN else
            f"{self.name}: cold reference digest {digest} != golden")
        # Every seed has the same mix of misses, journal and cache hits in
        # each kind and size band.
        rng = random.Random(seed)
        misses, journaled = set(), set()
        for start in range(0, len(self.specs), self.GROUP):
            group = rng.sample(range(start, start + self.GROUP),
                               1 + self.JOURNALED)
            misses.add(group[0])
            journaled.update(group[1:])
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        shutil.rmtree(self.journal_dir, ignore_errors=True)
        cache = self._cache_cls(self.cache_dir)
        journal = self._journal_cls.open(self.journal_dir, self.specs)
        for i, (spec, point) in enumerate(zip(self.specs, self.reference)):
            if i not in misses:
                cache.put(spec, point)
            if i in journaled:
                journal.record(i, spec, point)
        journal.close()
        self.prefilled = set(_files(self.cache_dir))
        self.journal_file = journal.path
        self.journal_bytes = journal.path.read_bytes()

    def reset(self):
        for path in _files(self.cache_dir):
            if path not in self.prefilled:
                os.unlink(path)
        self.journal_file.parent.mkdir(parents=True, exist_ok=True)
        self.journal_file.write_bytes(self.journal_bytes)
        self.cache = self._cache_cls(self.cache_dir)

    def op(self):
        return self._run_points(self.specs, jobs=1, cache=self.cache,
                                policy=self.policy)

    def check(self, result):
        if self.reference_error:
            return self.reference_error
        if self.journal_file.exists():
            return f"{self.name}: the completed sweep left its journal"
        if result != self.reference:
            bad = sum(a != b for a, b in zip(result, self.reference))
            return f"{self.name}: {bad} points differ from the cold reference"
        return None

    def signature(self, result):
        return tuple(p.elapsed for p in result)

    def cache_stats(self):
        return self.cache.stats


def _files(root: Path) -> list[str]:
    return [os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs]


WORKLOADS = {w.name: w for w in (SrummaFlat, MpiHier, SrummaFaults,
                                 SweepCache)}
