"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time

from frameguard.arena import Arena, DEFAULT_ARENA_BASE
from frameguard.harness import EngineConfig, WorkloadParams, gen_workload, run_trace
from frameguard.metadata import EntryConflictError
from frameguard.tagging import rebase
from frameguard.frame_math import SLOT_BITS, wrapper_frame
from frameguard.verdicts import VerdictKind
from oracles import wrapper_frame_oracle

BASE = DEFAULT_ARENA_BASE


def _criterion(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, f"{name}: {detail}"


def test_frame_selection_oracle_equivalence():
    rng = random.Random(0x0501)
    started = time.perf_counter()
    mismatches = 0
    for i in range(100_000):
        lo = rng.randrange(1 << 48)
        if i % 2:
            hi = rng.randrange(lo, min(lo + (1 << 20), 1 << 48))
        else:
            hi = rng.randrange(lo, 1 << 48)
        if wrapper_frame(lo, hi).n != wrapper_frame_oracle(lo, hi):
            mismatches += 1
    elapsed = time.perf_counter() - started
    _criterion(
        "frame selection matches brute-force oracle on 1e5 regions",
        mismatches == 0 and elapsed < 5.0,
        f"mismatches={mismatches} elapsed={elapsed:.2f}s",
    )


def test_no_smaller_frame_contains_any_region():
    rng = random.Random(0x0A01)
    failures = 0
    for i in range(10_000):
        lo = rng.randrange(1 << 48)
        if i % 2:
            hi = rng.randrange(lo, min(lo + (1 << 24), 1 << 48))
        else:
            hi = rng.randrange(lo, 1 << 48)
        f = wrapper_frame(lo, hi)
        size = 1 << f.n
        if not (f.base <= lo <= hi <= f.base + size - 1 and f.base % size == 0):
            failures += 1
            continue
        # exhaustive: every smaller frame size splits the region
        for m in range(f.n):
            if lo >> m == hi >> m:
                failures += 1
                break
    _criterion(
        "wrapper frame is minimal for 1e4 regions (no smaller frame contains them)",
        failures == 0,
        f"failures={failures}",
    )


def test_division_entries_never_conflict_across_streams():
    rng = random.Random(0x0A02)
    conflicts = 0
    total_allocations = 0
    max_live = 0
    for stream in range(1_000):
        if stream < 2:
            count = 10_000
            sizes = [rng.randrange(1, 512) for _ in range(count)]
        else:
            count = rng.randrange(50, 600)
            sizes = [
                rng.randrange(1, 300) if rng.random() < 0.8
                else rng.randrange(300, 1 << 17)
                for _ in range(count)
            ]
        need = sum(16 * ((16 + s + 15) // 16 + 8) for s in sizes) + (1 << 20)
        arena_size = -(-need // (1 << 16)) * (1 << 16)
        arena = Arena(base=BASE, size=arena_size, pad_bytes=1,
                      placement_jitter=rng.randrange(8), rng=rng)
        for s in sizes:
            try:
                arena.alloc(s)
            except EntryConflictError:
                conflicts += 1
        total_allocations += count
        max_live = max(max_live, arena.stats()["live_allocations"])
    _criterion(
        "1e3 disjoint allocation streams cause zero division-entry conflicts",
        conflicts == 0 and total_allocations >= 100_000 and max_live == 10_000,
        f"conflicts={conflicts} allocations={total_allocations} max_live={max_live}",
    )


def test_detection_completeness_at_plus_minus_one():
    params = WorkloadParams(
        objects=10_000,
        size_dist="uniform:16:256",
        accesses_per_object=2,
        edge_probe=True,
    )
    events, manifest = gen_workload(0x0B01, params)
    started = time.perf_counter()
    report = run_trace(events)
    elapsed = time.perf_counter() - started
    detected = dict(report.violations)
    ok = (
        report.verdicts["overflow"] == 10_000
        and report.verdicts["underflow"] == 10_000
        and detected == manifest
        and elapsed < 10.0
    )
    _criterion(
        "one-past-end and one-before-base stores detected for 1e4 objects, "
        "zero false positives",
        ok,
        f"overflow={report.verdicts['overflow']} underflow={report.verdicts['underflow']} "
        f"spurious={len(detected.keys() - manifest.keys())} elapsed={elapsed:.2f}s",
    )


def test_temporal_violations_detected():
    # big-framed double frees and uses after free through the table
    params = WorkloadParams(
        objects=1_000,
        size_dist="loguniform:65536:1048576",
        accesses_per_object=1,
        fault_rate=1.0,
        fault_kinds=("use_after_free", "double_free"),
    )
    events, manifest = gen_workload(0x0C01, params)
    report = run_trace(events, EngineConfig(arena_size=1 << 30))
    temporal_expected = len(manifest)
    temporal_found = report.verdicts["use_after_free"] + report.verdicts["double_free"]
    big_ok = (
        temporal_expected == 1_000
        and temporal_found == temporal_expected
        and dict(report.violations) == manifest
    )

    # small-framed double frees, caught at the cleared header
    arena = Arena(base=BASE, size=1 << 24)
    records = [arena.alloc(24) for _ in range(300)]
    small_count = sum(1 for r in records if r.n <= SLOT_BITS)
    caught = 0
    for r in records:
        assert arena.free(r.tagged).kind is VerdictKind.OK
        if arena.free(r.tagged).kind is VerdictKind.DOUBLE_FREE:
            caught += 1
    small_ok = caught == 300 and small_count >= 290
    _criterion(
        "temporal suite: 1e3 big-framed double-free/use-after-free cases "
        "plus small-framed double frees all detected",
        big_ok and small_ok,
        f"big={temporal_found}/{temporal_expected} small_double_free={caught}/300 "
        f"(small-framed objects: {small_count})",
    )


def test_unsafe_cast_store_regression():
    # char *p = malloc(10); int *q = p + 8; *q = ...  as a trace
    from frameguard.harness import parse_trace

    report = run_trace(parse_trace("alloc p 10\nstore p 8 4\n"))
    ok = (
        report.verdicts["overflow"] == 1
        and len(report.violations) == 1
        and report.violations == [(1, "overflow")]
    )
    _criterion("unsafe-cast store (4 bytes at offset 8 of 10) yields exactly one overflow",
               ok, f"verdicts={ {k: v for k, v in report.verdicts.items() if v} }")


def test_space_overhead_brackets():
    events, _ = gen_workload(0x0D01, WorkloadParams(
        objects=4_000, size_dist="uniform:1:127", accesses_per_object=1))
    ratio_64 = run_trace(events).overhead["ratio"]

    events, _ = gen_workload(0x0D02, WorkloadParams(
        objects=3_000, size_dist="fixed:1", accesses_per_object=1))
    ratio_1 = run_trace(events).overhead["ratio"]

    ok = 1.15 <= ratio_64 <= 1.40 and ratio_1 > 2.0
    _criterion(
        "space overhead ratio in [1.15, 1.40] at ~64-byte objects and above 2.0 "
        "at 1-byte objects",
        ok,
        f"ratio_64B={ratio_64:.3f} ratio_1B={ratio_1:.2f}",
    )


def test_tag_survives_every_in_object_address():
    rng = random.Random(0x0E01)
    arena = Arena(base=BASE, size=1 << 26, placement_jitter=4, rng=rng)
    small = 0
    failures = 0
    while small < 10_000:
        r = arena.alloc(rng.randrange(1, 64))
        if r.n > SLOT_BITS:
            continue  # rare slot straddler; tag stability is a small-frame claim
        small += 1
        for addr in range(r.obj_base, r.obj_base + r.raw_size):
            if arena.table.header_lookup(rebase(r.tagged, addr)) != r.header_addr:
                failures += 1
    _criterion(
        "header re-derivable from every in-object address of 1e4 small-framed objects",
        failures == 0,
        f"failures={failures}",
    )
