"""Per-layer metrics: spans around each layer's public calls, exact
counters, and per-call timings on inputs captured from the workload.

A layer is a module of `frameguard`.  The spans are installed from this
file by replacing, for the duration of one replay, the public calls of
each layer where their callers look them up: methods on `Checker`,
`Arena` and `DivisionTable`, and the module-level `wrapper_frame`,
`decode` and `rebase` names inside the modules that import them.
Nothing under `src/` changes.  Each span records (name, parent, start,
end); a layer's self time is the time its spans cover minus the time
their child spans cover.  Spans inflate the time of the layer that
calls them, so the end-to-end metrics come from untraced replays and
the difference is reported as `tracing.overhead_s`.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import frameguard.arena as arena_mod
import frameguard.checker as checker_mod
import frameguard.harness as harness_mod
import frameguard.metadata as metadata_mod
from frameguard import (
    SLOT_BITS,
    AccessRequest,
    Arena,
    Checker,
    DivisionTable,
    VerdictKind,
    decode,
    emit_report,
    format_trace,
    gen_workload,
    parse_trace,
    rebase,
    run_trace,
    wrapper_frame,
)
from common import MIB, ROOT, Gate, build_engine, median_seconds, sha256

MIN_PAIRS = 2            # untraced + traced replays per run, at least
CALL_SAMPLE = 20000      # captured inputs per per-call loop, at most
CALL_REPS = 5            # repetitions of each per-call loop; the median is kept
SYNTHETIC_OBJECTS = 512  # objects made up for calls no workload replays
PHASE_REPS = 3           # repetitions of gen, format and parse alone
SPANS_DIR = ROOT / ".perfbench"

UNITS = {
    "frame_math.wrapper_frame_ns": "ns",
    "frame_math.small_frames": "count",
    "frame_math.big_frames": "count",
    "frame_math.self_s": "s",
    "tagging.decode_ns": "ns",
    "tagging.rebase_ns": "ns",
    "tagging.self_s": "s",
    "metadata.table_build_s": "s",
    "metadata.table_reserved_mib": "MiB",
    "metadata.touched_divisions": "count",
    "metadata.header_lookup_big_ns": "ns",
    "metadata.set_entry_calls": "count",
    "metadata.reset_entry_calls": "count",
    "metadata.self_s": "s",
    "arena.alloc_ns": "ns",
    "arena.free_ns": "ns",
    "arena.self_s": "s",
    "arena.alloc_calls": "count",
    "arena.free_calls": "count",
    "checker.check_access_small_ns": "ns",
    "checker.check_access_big_ns": "ns",
    "checker.check_arith_ns": "ns",
    "checker.check_memcpy_ns": "ns",
    "checker.self_s": "s",
    "checker.access_checks": "count",
    "checker.lookups_small": "count",
    "checker.lookups_big": "count",
    "harness.run_trace_self_s": "s",
    "harness.gc_pause_s": "s",
    "harness.parse_ns_per_event": "ns",
    "harness.gen_ns_per_event": "ns",
    "harness.format_ns_per_event": "ns",
    "harness.report_retained_mib": "MiB",
    "tracing.overhead_s": "s",
}

# (owner, attribute, span name): the public calls of each layer, patched
# where the calling module looks them up
SPAN_TARGETS = (
    [(Checker, f"check_{name}", f"checker.check_{name}")
     for name in ("access", "arith", "memcpy", "memset", "strcpy", "strncpy", "free")]
    + [(Arena, name, f"arena.{name}")
       for name in ("alloc", "alloc_array", "free", "realloc", "scope_end")]
    + [(DivisionTable, name, f"metadata.{name}")
       for name in ("__init__", "entry_index", "get_entry", "set_entry", "reset_entry",
                    "header_lookup")]
    + [(arena_mod, "wrapper_frame", "frame_math.wrapper_frame"),
       (arena_mod, "decode", "tagging.decode"),
       (checker_mod, "decode", "tagging.decode"),
       (metadata_mod, "decode", "tagging.decode"),
       (harness_mod, "rebase", "tagging.rebase")]
)
ROOT_SPAN = "harness.run_trace"


@contextmanager
def patched(replacements):
    """Install (owner, attribute, make_replacement) for the duration."""
    saved = []
    try:
        for owner, attr, make in replacements:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Spans:
    """In-memory span log: parallel lists indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self._stack = [-1]

    def wrap(self, fn, span_name: str):
        if span_name not in self.names:
            self.names.append(span_name)
        name_id = self.names.index(span_name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return span

    def replacements(self):
        return [(owner, attr, lambda fn, name=name: self.wrap(fn, name))
                for owner, attr, name in SPAN_TARGETS]

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer (the part of a span name before the dot)."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        children = [0] * len(durations)
        for parent, duration in zip(self.parent, durations):
            if parent >= 0:
                children[parent] += duration
        layer_of = [name.split(".")[0] for name in self.names]
        totals: Counter[str] = Counter()
        for name_id, duration, child in zip(self.name, durations, children):
            totals[layer_of[name_id]] += duration - child
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def counts(self) -> Counter[str]:
        per_id = Counter(self.name)
        return Counter({self.names[i]: c for i, c in per_id.items()})

    def write(self, path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as out:
            json.dump({"names": self.names, "name": self.name, "parent": self.parent,
                       "start_ns": self.start, "end_ns": self.end}, out)


class GcClock:
    """gc.callbacks hook summing collection time and count."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0
            self.collections += 1


class Capture:
    """Inputs that reach each layer during one replay."""

    def __init__(self):
        self.requests = []       # AccessRequest objects passed to check_access
        self.regions = []        # (lo, hi) passed to wrapper_frame
        self.rebases = []        # (pointer, address) passed to rebase
        self.records = []        # AllocationRecord objects returned by alloc

    def replacements(self):
        def check_access(fn):
            def wrapper(checker, req):
                self.requests.append(req)
                return fn(checker, req)
            return wrapper

        def region(fn):
            def wrapper(lo, hi):
                self.regions.append((lo, hi))
                return fn(lo, hi)
            return wrapper

        def rebased(fn):
            def wrapper(p, addr):
                self.rebases.append((p, addr))
                return fn(p, addr)
            return wrapper

        def alloc(fn):
            def wrapper(*args, **kwargs):
                record = fn(*args, **kwargs)
                self.records.append(record)
                return record
            return wrapper

        return [(Checker, "check_access", check_access),
                (arena_mod, "wrapper_frame", region),
                (harness_mod, "rebase", rebased),
                (Arena, "alloc", alloc),
                (Arena, "alloc_array", alloc)]


def ns_per_call(fn, arg_tuples) -> float:
    """Wall time of fn(*args) for each args in arg_tuples, per call, in
    ns: the median over CALL_REPS passes."""
    times = []
    for _ in range(CALL_REPS):
        t0 = time.perf_counter_ns()
        for args in arg_tuples:
            fn(*args)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / len(arg_tuples)


def engine_calls(events, requests, config) -> tuple[dict[str, float], dict[str, str]]:
    """alloc, check_access, header_lookup and free on a fresh engine.

    The workload's allocations are replayed in order on a fresh arena,
    which places them where the replay did (the bump cursor never
    reuses addresses), so the captured pointers resolve to live objects.
    A pointer class the workload never checks (small on big_churn) is
    timed on synthetic objects of that class allocated after the
    workload's.  Every object is then freed.  alloc and free mutate the
    arena, so each of their passes starts a new engine.
    """
    allocs = [(ev.op, ev.args) for ev in events if ev.op in ("alloc", "alloc_array")]
    captured = {
        "small": [r for r in requests if r.tagged >> 63][:CALL_SAMPLE],
        "big": [r for r in requests if not r.tagged >> 63][:CALL_SAMPLE],
    }
    sources = {cls: "captured" if reqs else "synthetic" for cls, reqs in captured.items()}
    out: dict[str, float] = {}
    alloc_ns, free_ns = [], []
    for rep in range(CALL_REPS):
        gc.collect()
        checker = build_engine(config)
        arena = checker.arena
        t0 = time.perf_counter_ns()
        for op, args in allocs:
            if op == "alloc":
                arena.alloc(args[0], args[1])
            else:
                arena.alloc_array(args[0], args[1])
        alloc_ns.append((time.perf_counter_ns() - t0) / len(allocs))
        if rep == 0:
            reqs = dict(captured)
            for cls in ("small", "big"):
                if not reqs[cls]:
                    records = [arena.alloc(size) for size in synthetic_sizes(config, cls == "small")]
                    reqs[cls] = [AccessRequest(r.tagged, 1) for r in records
                                 if r.is_small == (cls == "small")]
            check, lookup = checker.check_access, arena.table.header_lookup
            out["checker.check_access_small_ns"] = ns_per_call(check, [(r,) for r in reqs["small"]])
            out["checker.check_access_big_ns"] = ns_per_call(check, [(r,) for r in reqs["big"]])
            out["metadata.header_lookup_big_ns"] = ns_per_call(lookup, [(r.tagged,) for r in reqs["big"]])
        tagged = [r.tagged for r in arena.records]
        free = arena.free
        t0 = time.perf_counter_ns()
        for p in tagged:
            free(p)
        free_ns.append((time.perf_counter_ns() - t0) / len(tagged))
        del checker, arena, free
    out["arena.alloc_ns"] = statistics.median(alloc_ns)
    out["arena.free_ns"] = statistics.median(free_ns)
    return out, sources


def synthetic_sizes(config, small: bool) -> list[int]:
    """SYNTHETIC_OBJECTS sizes of one frame class that fit in an eighth
    of the arena: 100 bytes is small-framed unless it straddles a slot
    boundary; anything over 2**16 bytes is big-framed."""
    if small:
        return [100] * SYNTHETIC_OBJECTS
    return [min(150_000, config.arena_size // (8 * SYNTHETIC_OBJECTS))] * SYNTHETIC_OBJECTS


def arith_and_memcpy(seed: int, config, gate: Gate) -> dict[str, float]:
    """check_arith and check_memcpy on synthetic pointers.

    No workload replays ptr_add or memcpy, so the inputs are made here
    on alternately small- and big-framed objects: half the arithmetic
    steps stay in the wrapper frame (the slot, for small-framed
    objects) and half leave it; half the copies fit both operands and
    half overflow the destination.  Each verdict is checked before the
    loops are timed.
    """
    rng = random.Random(seed)
    checker = build_engine(config)
    sizes = [s for pair in zip(synthetic_sizes(config, True), synthetic_sizes(config, False))
             for s in pair][:SYNTHETIC_OBJECTS]
    records = [checker.arena.alloc(size) for size in sizes]
    steps, copies = [], []
    for i, rec in enumerate(records):
        n = SLOT_BITS if rec.is_small else rec.frame.n
        if i % 4 < 2:
            addr, expect = rec.obj_base + rng.randrange(rec.raw_size), VerdictKind.OK
        else:
            addr, expect = (((rec.obj_base >> n) + 1) << n) + rng.randrange(16), VerdictKind.OUT_OF_FRAME
        steps.append((rec.tagged, rebase(rec.tagged, addr), expect))
        src = records[rng.randrange(len(records))]
        if i % 4 in (0, 2):
            copies.append((rec.tagged, src.tagged, min(rec.raw_size, src.raw_size), VerdictKind.OK))
        else:
            copies.append((rec.tagged, src.tagged, rec.raw_size + 1, VerdictKind.OVERFLOW))
    for old, new, expect in steps:
        gate.expect(checker.check_arith(old, new).kind is expect,
                    "check_arith verdict differs from the synthetic expectation")
    for dst, src, n, expect in copies:
        gate.expect(checker.check_memcpy(dst, src, n).kind is expect,
                    "check_memcpy verdict differs from the synthetic expectation")
    return {
        "checker.check_arith_ns": ns_per_call(checker.check_arith, [s[:2] for s in steps]),
        "checker.check_memcpy_ns": ns_per_call(checker.check_memcpy, [c[:3] for c in copies]),
    }


def retained_mib(parsed, config) -> float:
    """tracemalloc growth from before a replay to after it returned:
    the RunReport and whatever else the replay left alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run_trace(parsed, config)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del report
    return (after - before) / MIB


def phase_ns_per_event(seed: int, params, n_events: int) -> dict[str, float]:
    """gen_workload, format_trace and parse_trace timed on their own."""
    out: dict[str, list[float]] = {}
    for _ in range(PHASE_REPS):
        gc.collect()
        t0 = time.perf_counter_ns()
        events, _ = gen_workload(seed, params)
        t1 = time.perf_counter_ns()
        text = format_trace(events)
        t2 = time.perf_counter_ns()
        del events
        gc.collect()
        t3 = time.perf_counter_ns()
        parse_trace(text)
        t4 = time.perf_counter_ns()
        for name, ns in (("gen", t1 - t0), ("format", t2 - t1), ("parse", t4 - t3)):
            out.setdefault(f"harness.{name}_ns_per_event", []).append(ns / n_events)
    return {name: statistics.median(values) for name, values in out.items()}


def per_layer(name: str, workload, seed: int, seconds: float):
    """Per-layer metrics, their units, and the correctness gate."""
    params, config = workload.params, workload.config
    events, manifest = gen_workload(seed, params)
    parsed = parse_trace(format_trace(events))
    gate = Gate(manifest)
    gate.expect(parsed == events, "parse_trace(format_trace(events)) != events")
    del events

    # untraced and traced replays in pairs for half the run's seconds (the
    # per-call loops, phase timings and tracemalloc pass take about the
    # other half); the last traced replay's spans are kept
    untraced, traced, pauses, collections = [], [], [], []
    start = time.perf_counter()
    pair_s = 0.0
    while len(traced) < MIN_PAIRS or time.perf_counter() - start + pair_s <= seconds / 2:
        pair_start = time.perf_counter()
        gc.collect()
        gc_clock = GcClock()
        gc.callbacks.append(gc_clock)
        try:
            t0 = time.perf_counter()
            report = run_trace(parsed, config)
            untraced.append(time.perf_counter() - t0)
        finally:
            gc.callbacks.remove(gc_clock)
        pauses.append(gc_clock.seconds)
        collections.append(gc_clock.collections)
        gate.check(report, emit_report(report, "json"))
        del report
        gc.collect()
        spans = Spans()
        with patched(spans.replacements()):
            t0 = time.perf_counter()
            report = spans.wrap(run_trace, ROOT_SPAN)(parsed, config)
            traced.append(time.perf_counter() - t0)
        report_json = emit_report(report, "json")
        gate.check(report, report_json)
        pair_s = time.perf_counter() - pair_start
    spans.write(SPANS_DIR / f"spans-{name}.json")
    self_s = spans.self_seconds()
    calls = spans.counts()

    capture = Capture()
    with patched(capture.replacements()):
        captured_report = run_trace(parsed, config)
    gate.check(captured_report, emit_report(captured_report, "json"))
    del captured_report
    frame_logs = Counter(rec.frame.n for rec in capture.records)
    small_frames = sum(1 for rec in capture.records if rec.is_small)
    table_entry_bytes = metadata_mod.ENTRIES_PER_DIVISION * metadata_mod.ENTRY_BYTES
    table_build_s = median_seconds(lambda: DivisionTable(config.arena_base, config.arena_size))
    setup_s = median_seconds(lambda: build_engine(config))
    call_ns, sources = engine_calls(parsed, capture.requests, config)

    metrics = {
        "frame_math.wrapper_frame_ns": ns_per_call(wrapper_frame, capture.regions[:CALL_SAMPLE]),
        "frame_math.small_frames": small_frames,
        "frame_math.big_frames": len(capture.records) - small_frames,
        "frame_math.self_s": self_s.get("frame_math", 0.0),
        "tagging.decode_ns": ns_per_call(decode, [(r.tagged,) for r in capture.requests[:CALL_SAMPLE]]),
        "tagging.rebase_ns": ns_per_call(rebase, capture.rebases[:CALL_SAMPLE]),
        "tagging.self_s": self_s.get("tagging", 0.0),
        "metadata.table_build_s": table_build_s,
        "metadata.table_reserved_mib":
            DivisionTable(config.arena_base, config.arena_size).reserved_bytes / MIB,
        "metadata.touched_divisions": report.overhead["table_bytes"] // table_entry_bytes,
        "metadata.header_lookup_big_ns": call_ns["metadata.header_lookup_big_ns"],
        "metadata.set_entry_calls": calls["metadata.set_entry"],
        "metadata.reset_entry_calls": calls["metadata.reset_entry"],
        "metadata.self_s": self_s.get("metadata", 0.0),
        "arena.alloc_ns": call_ns["arena.alloc_ns"],
        "arena.free_ns": call_ns["arena.free_ns"],
        "arena.self_s": self_s.get("arena", 0.0),
        "arena.alloc_calls": calls["arena.alloc"] + calls["arena.alloc_array"],
        "arena.free_calls": calls["arena.free"],
        "checker.check_access_small_ns": call_ns["checker.check_access_small_ns"],
        "checker.check_access_big_ns": call_ns["checker.check_access_big_ns"],
        **arith_and_memcpy(seed, config, gate),
        "checker.self_s": self_s.get("checker", 0.0),
        "checker.access_checks": report.checks["access_checks"],
        "checker.lookups_small": report.checks["lookups_small"],
        "checker.lookups_big": report.checks["lookups_big"],
        "harness.run_trace_self_s": self_s.get("harness", 0.0),
        "harness.gc_pause_s": statistics.median(pauses),
        **phase_ns_per_event(seed, params, report.event_count),
        "harness.report_retained_mib": retained_mib(parsed, config),
        "tracing.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    assert metrics.keys() == UNITS.keys()

    counters = {
        "events": report.event_count,
        "checks": report.checks,
        "calls": dict(sorted(calls.items())),
        "small_frames": small_frames,
        "big_frames": len(capture.records) - small_frames,
        "frame_log_histogram": {str(n): c for n, c in sorted(frame_logs.items())},
        "touched_divisions": metrics["metadata.touched_divisions"],
        "report_sha256": sha256(report_json),
    }
    counters_json = json.dumps(counters, sort_keys=True)
    total_self = sum(self_s.values())
    share = {layer: s / total_self for layer, s in sorted(self_s.items())}
    print(f"replays: {len(untraced)} untraced, {len(traced)} traced  "
          f"median {statistics.median(untraced):.4f} s untraced, "
          f"{statistics.median(traced):.4f} s traced  "
          f"gc collections per replay: {statistics.median(collections)}")
    print("self-time share: " + "  ".join(f"{k}={v:.3f}" for k, v in share.items()))
    print(f"checker+tagging share: {share.get('checker', 0) + share.get('tagging', 0):.3f}  "
          f"arena+metadata share: {share.get('arena', 0) + share.get('metadata', 0):.3f}  "
          f"table_build_s/setup_s: {table_build_s / setup_s:.3f}")
    print(f"check_access inputs: small {sources['small']}, big {sources['big']}")
    print(f"counters: {counters_json}")
    print(f"counters_sha256: {sha256(counters_json)}")
    return metrics, UNITS, gate
