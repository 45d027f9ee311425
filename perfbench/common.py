"""Workloads and helpers shared by the end-to-end and per-layer runs.

Each workload is a seeded `gen_workload` trace that keeps the shape of
the corpus it stands for (size distribution, accesses per object, fault
mix, frees, arena size) with the object count scaled so that a run
repeats the gen -> parse -> replay -> report cycle often enough to
average over many samples.  Why each one exists is recorded in
BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from frameguard import Arena, Checker, EngineConfig, WorkloadParams

ROOT = Path(__file__).resolve().parent.parent
MIB = 1 << 20
SETUP_MIN_REPS = 9
SETUP_MAX_REPS = 401
SETUP_BUDGET_S = 0.5

# The calibration loop's sizes and the time it takes at the reference
# speed (see RefClock): about its median on the 2-vCPU Xeon VM the
# benchmark was tuned on, where a run's median was 17-22 ms.
CAL_ITERATIONS = 60_000
CAL_WALK_NODES = 1 << 18
CAL_WALK_STEPS = 20_000
CAL_DICT_KEYS = 8_000
CAL_REF_S = 0.020

ALL_FAULT_KINDS = ("overflow", "underflow", "use_after_free", "double_free")


@dataclass(frozen=True)
class Workload:
    params: WorkloadParams
    config: EngineConfig


WORKLOADS = {
    # ROADMAP's baseline corpus (20000 objects, 231,871 events at seed 7)
    # at half its object count.
    "mixed": Workload(
        WorkloadParams(
            objects=5000,
            size_dist="loguniform:1:65536",
            accesses_per_object=8,
            fault_rate=0.05,
            fault_kinds=ALL_FAULT_KINDS,
            edge_probe=True,
            free_fraction=0.5,
        ),
        EngineConfig(arena_size=1 << 34),
    ),
    "small_hot": Workload(
        WorkloadParams(
            objects=2000,
            size_dist="uniform:8:512",
            accesses_per_object=32,
            fault_rate=0.02,
            fault_kinds=("overflow", "underflow"),
            edge_probe=True,
        ),
        EngineConfig(arena_size=1 << 28),
    ),
    "big_churn": Workload(
        WorkloadParams(
            objects=15000,
            size_dist="loguniform:32768:262144",
            accesses_per_object=1,
            fault_rate=0.3,
            fault_kinds=("use_after_free", "double_free"),
            free_fraction=1.0,
        ),
        EngineConfig(arena_size=1 << 34),
    ),
}


def build_engine(config):
    """Arena and Checker for config, constructed the way run_trace does."""
    rng = random.Random(config.placement_seed) if config.placement_jitter else None
    arena = Arena(
        base=config.arena_base,
        size=config.arena_size,
        pad_bytes=config.pad_bytes,
        placement_jitter=config.placement_jitter,
        rng=rng,
    )
    return Checker(arena)


def median_seconds(fn, min_reps=SETUP_MIN_REPS, budget_s=SETUP_BUDGET_S,
                   max_reps=SETUP_MAX_REPS) -> float:
    """Median wall time of fn() over at least min_reps calls.

    Calls continue until budget_s has passed (or max_reps).  The result
    of each call is dropped and collected before the next one starts,
    so a large table is never held twice.
    """
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < min_reps or (time.perf_counter() < deadline and len(times) < max_reps):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def walk_ring(nodes: int = CAL_WALK_NODES, seed: int = 2) -> tuple[int, ...]:
    """ring[i] is the node after i on one cycle through all nodes.

    The order is seeded and random, so each step reads a tuple slot and
    an int object far from the last ones.  A tuple of ints is untracked
    by the collector, so holding it leaves the run's GC work unchanged.
    """
    order = list(range(nodes))
    random.Random(seed).shuffle(order)
    ring = [0] * nodes
    for i, node in enumerate(order):
        ring[node] = order[i - 1]
    return tuple(ring)


def calibration_loop(ring: tuple[int, ...]) -> int:
    """Fixed pure-Python work whose time tracks the interpreter's speed.

    Three parts, each sensitive to a different kind of interference:
    arithmetic on small ints, a walk through a ring larger than the
    caches, and a dict of new str keys.  They create next to no object
    the collector tracks, so the loop adds next to no GC work to the run.
    """
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i % 7
    node = 0
    for _ in range(CAL_WALK_STEPS):
        acc += node
        node = ring[node]
    table = {}
    for i in range(CAL_DICT_KEYS):
        table[str(i)] = i
    return acc + len(table)


def pin_to_one_cpu() -> None:
    """Keep the process, and so each sample and its calibration, on one CPU.

    The CPUs of a shared host slow down independently of each other, so
    a calibration says nothing about a sample the scheduler ran elsewhere.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class RefClock:
    """Times calls in reference-speed seconds.

    On a shared host the speed of the same Python code changes by up to
    2x between stretches of seconds to minutes, which moves every timing
    of a run together.  Each call is timed between two runs of
    `calibration_loop`, and its wall time is scaled by CAL_REF_S over
    their mean: the time the call would take on a machine where the
    loop takes CAL_REF_S.  The loop is fixed code outside `src/`, so a
    change to frameguard moves the scaled time as much as the wall time.
    """

    def __init__(self):
        pin_to_one_cpu()
        self._ring = walk_ring()
        self.wall_s: dict[str, list[float]] = {}
        self.ref_s: dict[str, list[float]] = {}
        self.calibration_s: list[float] = []
        self._calibrate()

    def _calibrate(self) -> float:
        t0 = time.perf_counter()
        calibration_loop(self._ring)
        elapsed = time.perf_counter() - t0
        self.calibration_s.append(elapsed)
        return elapsed

    def time(self, name: str, fn):
        """fn() after a collection; its reference-speed seconds go under name."""
        gc.collect()
        before = self._calibrate()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        after = self._calibrate()
        self.wall_s.setdefault(name, []).append(wall)
        self.ref_s.setdefault(name, []).append(wall * CAL_REF_S / ((before + after) / 2))
        return result


def mismatched_events(report, manifest: dict[int, str]) -> int:
    """Missing plus unexpected violations against the manifest."""
    got = dict(report.violations)
    missing = sum(1 for i, kind in manifest.items() if got.get(i) != kind)
    unexpected = sum(1 for i, kind in got.items() if manifest.get(i) != kind)
    return missing + unexpected


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Gate:
    """Tallies replayed events and manifest mismatches over a run."""

    def __init__(self, manifest: dict[int, str]):
        self.manifest = manifest
        self.attempted = 0
        self.failed = 0
        self.report_digests: set[str] = set()
        self.problems: list[str] = []

    def check(self, report, report_json: str) -> None:
        self.attempted += report.event_count
        self.failed += mismatched_events(report, self.manifest)
        self.report_digests.add(sha256(report_json))
        if len(self.report_digests) > 1:
            self.problems.append("JSON report bytes differ between replays of one trace")

    def expect(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and self.attempted > 0
